//! Barnes-Hut tree backend, end to end: θ-bound agreement with the FP64
//! direct sum on random Plummer realizations, bitwise determinism across
//! repeat runs, bitwise checkpoint/restore through the shared resilient
//! driver, and the hybrid near-field riding the device retry machinery.

use std::sync::Arc;

use nbody::force::{ForceKernel, ReferenceKernel};
use nbody::ic::{plummer, PlummerConfig};
use nbody::particle::{Forces, ParticleSystem};
use nbody_tt::{
    latest_checkpoint, resume_simulation_resilient, run_simulation_resilient, run_tree_simulation,
    ForceEvaluator, RecoveryConfig, SimulationConfig, SpillConfig, TreeConfig, TreeForceEvaluator,
};
use proptest::prelude::*;
use tensix::fault::FaultClass;
use tensix::{Device, DeviceConfig};

fn plummer_sys(n: usize, seed: u64) -> ParticleSystem {
    plummer(PlummerConfig { n, seed, ..PlummerConfig::default() })
}

fn sim(cycles: usize) -> SimulationConfig {
    SimulationConfig {
        eps: 0.01,
        cycles,
        steps_per_cycle: 1,
        dt: 1.0 / 256.0,
        num_cores: 1,
        blocks: None,
    }
}

fn tree_cfg(theta: f64) -> TreeConfig {
    TreeConfig { theta, leaf_capacity: 16, threads: 0 }
}

fn spill(tag: &str) -> SpillConfig {
    let dir = std::env::temp_dir().join(format!("tt-tree-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    SpillConfig::new(dir.join("ckpt"))
}

fn assert_bits_equal(a: &ParticleSystem, b: &ParticleSystem) {
    assert_eq!(a.len(), b.len());
    for i in 0..a.len() {
        for k in 0..3 {
            assert_eq!(a.pos[i][k].to_bits(), b.pos[i][k].to_bits(), "pos[{i}][{k}]");
            assert_eq!(a.vel[i][k].to_bits(), b.vel[i][k].to_bits(), "vel[{i}][{k}]");
        }
    }
}

/// Worst per-particle acceleration error, normalized by the cluster's rms
/// acceleration (a per-particle relative norm diverges for particles near
/// force balance).
fn worst_relative_error(got: &Forces, want: &Forces, n: usize) -> f64 {
    let typical = (want.acc.iter().map(|a| a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sum::<f64>()
        / n as f64)
        .sqrt()
        .max(f64::MIN_POSITIVE);
    let mut worst = 0.0f64;
    for i in 0..n {
        let mut d2 = 0.0;
        for k in 0..3 {
            let d = got.acc[i][k] - want.acc[i][k];
            d2 += d * d;
        }
        worst = worst.max(d2.sqrt() / typical);
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Monopole acceptance `2·half < θ·(d − r_t)` keeps the worst
    /// rms-normalized force error inside θ² on arbitrary realizations.
    #[test]
    fn tree_matches_direct_sum_within_theta_bound(
        n in 64usize..400,
        seed in 0u64..1000,
        theta in 0.2f64..0.9,
    ) {
        let sys = plummer_sys(n, seed);
        let eps = 1e-2;
        let ev = TreeForceEvaluator::host(n, eps, tree_cfg(theta));
        let tree_f = ev.evaluate_checked(&sys).unwrap();
        let reference = ReferenceKernel::new(eps).compute(&sys);
        let worst = worst_relative_error(&tree_f, &reference, n);
        prop_assert!(
            worst < theta * theta,
            "θ = {theta:.3}: worst rel err {worst:.3e} above θ² = {:.3e}",
            theta * theta
        );
    }
}

#[test]
fn repeat_tree_runs_are_bitwise_identical() {
    let run = || {
        let mut sys = plummer_sys(256, 17);
        run_tree_simulation(&mut sys, sim(6), tree_cfg(0.6))
    };
    let mut sys_a = plummer_sys(256, 17);
    let (out_a, cost_a) = run_tree_simulation(&mut sys_a, sim(6), tree_cfg(0.6));
    let mut sys_b = plummer_sys(256, 17);
    let (out_b, cost_b) = run_tree_simulation(&mut sys_b, sim(6), tree_cfg(0.6));
    assert_bits_equal(&sys_a, &sys_b);
    assert_eq!(out_a.energy_error.to_bits(), out_b.energy_error.to_bits());
    assert_eq!(out_a.steps, out_b.steps);
    // The deterministic cost counters replay exactly too (wall-clock
    // seconds legitimately differ).
    assert_eq!(cost_a.nodes, cost_b.nodes);
    assert_eq!(cost_a.leaves, cost_b.leaves);
    assert_eq!(cost_a.far_interactions, cost_b.far_interactions);
    assert_eq!(cost_a.near_interactions, cost_b.near_interactions);
    // And a third run through the closure for good measure.
    let (out_c, _) = run();
    assert_eq!(out_a.energy_error.to_bits(), out_c.energy_error.to_bits());
}

#[test]
fn tree_checkpoint_restore_is_bitwise_through_the_resilient_driver() {
    let n = 192;
    let theta = 0.6;

    // Golden: one uninterrupted 8-step resilient run.
    let mut golden_sys = plummer_sys(n, 23);
    let golden_eval = Arc::new(TreeForceEvaluator::host(n, sim(8).eps, tree_cfg(theta)));
    let golden = run_simulation_resilient(
        &golden_eval,
        &mut golden_sys,
        sim(8),
        RecoveryConfig { checkpoint_every: 2, ..RecoveryConfig::default() },
    )
    .unwrap();

    // Interrupted twin: run the first 4 steps spilling checkpoints to
    // disk, then restore the latest checkpoint into a *fresh* evaluator
    // and resume to step 8 — the server's migration path.
    let spill_cfg = spill("restore");
    let mut first_sys = plummer_sys(n, 23);
    let first_eval = Arc::new(TreeForceEvaluator::host(n, sim(4).eps, tree_cfg(theta)));
    let first = run_simulation_resilient(
        &first_eval,
        &mut first_sys,
        sim(4),
        RecoveryConfig {
            checkpoint_every: 2,
            spill: Some(spill_cfg.clone()),
            ..RecoveryConfig::default()
        },
    )
    .unwrap();
    assert!(first.checkpoint_spills > 0, "no checkpoint hit the disk");

    let (ckpt, step) = latest_checkpoint(&spill_cfg).unwrap();
    assert_eq!(step, 4, "latest checkpoint should be the final step of the first leg");
    let resume_eval = Arc::new(TreeForceEvaluator::host(n, sim(8).eps, tree_cfg(theta)));
    let mut restored = plummer_sys(n, 23);
    let resumed = resume_simulation_resilient(
        &resume_eval,
        &mut restored,
        &ckpt,
        step,
        sim(8),
        RecoveryConfig { checkpoint_every: 2, ..RecoveryConfig::default() },
    )
    .unwrap();

    assert_bits_equal(&golden_sys, &restored);
    assert_eq!(golden.outcome.final_time.to_bits(), resumed.outcome.final_time.to_bits());
    spill_cfg.cleanup();
}

#[test]
fn hybrid_near_field_agrees_with_host_tree_at_fp32_tolerance() {
    let n = 256;
    let eps = 1e-2;
    let sys = plummer_sys(n, 31);
    let host = TreeForceEvaluator::host(n, eps, tree_cfg(0.6));
    let device = Device::new(0, DeviceConfig::default());
    let hybrid = TreeForceEvaluator::hybrid(device, n, eps, 2, tree_cfg(0.6));
    let host_f = host.evaluate_checked(&sys).unwrap();
    let hybrid_f = hybrid.evaluate_checked(&sys).unwrap();
    let worst = worst_relative_error(&hybrid_f, &host_f, n);
    assert!(worst < 5e-3, "hybrid near-field drifted {worst:.3e} from the host tree");
    // Same tree, same acceptance: the deterministic counters must agree
    // exactly between the two near-field routes.
    let (hc, dc) = (host.tree_cost(), hybrid.tree_cost());
    assert_eq!(hc.far_interactions, dc.far_interactions);
    assert_eq!(hc.near_interactions, dc.near_interactions);
    assert_eq!(hc.nodes, dc.nodes);
}

#[test]
fn hybrid_survives_transient_fault_bitwise_via_shared_retry_driver() {
    let n = 128;
    let mk_run = |fault_event: Option<u64>| {
        let device = Device::new(0, DeviceConfig::default());
        if let Some(event) = fault_event {
            device.faults().schedule(FaultClass::KernelStall, event);
        }
        let eval = Arc::new(TreeForceEvaluator::hybrid(device, n, sim(3).eps, 1, tree_cfg(0.6)));
        let mut sys = plummer_sys(n, 41);
        let out =
            run_simulation_resilient(&eval, &mut sys, sim(3), RecoveryConfig::default()).unwrap();
        (sys, out)
    };
    let (clean_sys, clean) = mk_run(None);
    let (faulted_sys, faulted) = mk_run(Some(3));
    let t = faulted.outcome.timing.expect("hybrid backend reports device timing");
    assert!(t.retries > 0, "scheduled stall never exercised the retry driver");
    assert_bits_equal(&clean_sys, &faulted_sys);
    assert_eq!(clean.outcome.energy_error.to_bits(), faulted.outcome.energy_error.to_bits());
}
