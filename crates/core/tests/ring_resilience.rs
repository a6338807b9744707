//! The backend-agnostic resilient driver on a multi-card ring.
//!
//! The contract under test: a resilient Hermite run on a two-card ring with
//! an injected mid-run card loss — absorbed by spare failover inside the
//! evaluation, or (spares exhausted) by the driver's reset → checkpoint
//! restore → replay path — is f64-bitwise identical to the unfaulted run of
//! the same seed, and to the same run on a single card.

use std::sync::Arc;

use proptest::prelude::*;

use nbody::ic::{plummer, PlummerConfig};
use nbody::particle::ParticleSystem;
use nbody_tt::{
    run_simulation_resilient, DriverOutcome, MultiDevicePipeline, RecoveryConfig, SimulationConfig,
    SingleCardEvaluator,
};
use tensix::fault::FaultClass;
use tensix::{Device, DeviceConfig};

fn cfg() -> SimulationConfig {
    SimulationConfig {
        eps: 0.05,
        cycles: 2,
        steps_per_cycle: 3,
        dt: 1.0 / 256.0,
        num_cores: 1,
        blocks: None,
    }
}

fn devices(ids: &[usize]) -> Vec<Arc<Device>> {
    ids.iter().map(|id| Device::new(*id, DeviceConfig::default())).collect()
}

/// The resilient driver over a ring of `devices` with a `spares` pool; the
/// spare failovers come from the ring's own counters.
fn ring_run(
    devices: &[Arc<Device>],
    spares: &[Arc<Device>],
    sys: &mut ParticleSystem,
) -> DriverOutcome {
    let ring = Arc::new(
        MultiDevicePipeline::with_spares(devices, spares, sys.len(), cfg().eps, cfg().num_cores)
            .unwrap(),
    );
    let mut out = run_simulation_resilient(&ring, sys, cfg(), RecoveryConfig::default()).unwrap();
    out.failovers = ring.timing().failovers;
    out
}

fn assert_states_bitwise(a: &ParticleSystem, b: &ParticleSystem) {
    for i in 0..a.len() {
        for k in 0..3 {
            assert_eq!(a.pos[i][k].to_bits(), b.pos[i][k].to_bits(), "pos[{i}][{k}]");
            assert_eq!(a.vel[i][k].to_bits(), b.vel[i][k].to_bits(), "vel[{i}][{k}]");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Wherever in the run the card dies (any launch event: init or any
    /// step), spare failover keeps the resilient ring run bitwise identical
    /// to the unfaulted one — no rollback, no replayed steps.
    #[test]
    fn ring_loss_with_spare_is_bitwise_invisible(seed in 200u64..204, event in 1u64..8) {
        // Two tiles, so card 1 owns the tail tile and launches every step.
        let n = 1100usize;
        let mk = || plummer(PlummerConfig { n, seed, ..PlummerConfig::default() });

        let mut clean_sys = mk();
        let clean = ring_run(&devices(&[0, 1]), &[], &mut clean_sys);
        prop_assert_eq!(clean.failovers, 0);
        prop_assert_eq!(clean.recoveries, 0);

        let devs = devices(&[0, 1]);
        devs[1].faults().schedule(FaultClass::DeviceLoss, event);
        let spares = devices(&[9]);
        let mut sys = mk();
        let out = ring_run(&devs, &spares, &mut sys);
        prop_assert_eq!(out.failovers, 1, "spare absorbs the loss inside the evaluation");
        prop_assert_eq!(out.recoveries, 0, "failover never costs a rollback");
        prop_assert_eq!(out.steps_replayed, 0);
        prop_assert!(!devs[1].is_alive());

        for i in 0..n {
            for k in 0..3 {
                prop_assert_eq!(sys.pos[i][k].to_bits(), clean_sys.pos[i][k].to_bits());
                prop_assert_eq!(sys.vel[i][k].to_bits(), clean_sys.vel[i][k].to_bits());
            }
        }
        prop_assert_eq!(
            out.outcome.final_energy.to_bits(),
            clean.outcome.final_energy.to_bits()
        );
        prop_assert_eq!(
            out.outcome.energy_error.to_bits(),
            clean.outcome.energy_error.to_bits()
        );
    }
}

#[test]
fn exhausted_spares_fall_back_to_checkpoint_recovery() {
    // Two tiles, so card 1 owns the tail tile and launches every step.
    let n = 1100usize;
    let mk = || plummer(PlummerConfig { n, seed: 210, ..PlummerConfig::default() });

    let mut clean_sys = mk();
    let clean = ring_run(&devices(&[0, 1]), &[], &mut clean_sys);

    // No spare pool: the loss surfaces to the driver, which resets the dead
    // card in place, restores the checkpoint, and replays — the same
    // machinery the single-card path uses, through the same trait seam.
    let devs = devices(&[0, 1]);
    devs[1].faults().schedule(FaultClass::DeviceLoss, 4);
    let mut sys = mk();
    let out = ring_run(&devs, &[], &mut sys);
    assert_eq!(out.failovers, 0, "nothing to promote");
    assert_eq!(out.recoveries, 1, "driver reset the dead card and replayed");
    assert!(out.steps_replayed > 0);
    assert!(devs[1].is_alive(), "recovery resets the card back into service");

    assert_states_bitwise(&sys, &clean_sys);
    assert_eq!(out.outcome.final_energy.to_bits(), clean.outcome.final_energy.to_bits());
}

#[test]
fn ring_and_single_card_resilient_runs_agree_bitwise() {
    // Two cards × one core vs one card × two cores: the tile split is the
    // same, so the generic driver must produce identical FP64 trajectories
    // through either backend.
    let n = 512usize;
    let mk = || plummer(PlummerConfig { n, seed: 211, ..PlummerConfig::default() });

    let mut ring_sys = mk();
    let ring = ring_run(&devices(&[0, 1]), &[], &mut ring_sys);
    assert_eq!(ring.outcome.kernel, "tenstorrent-wormhole-ring");

    let card = Arc::new(
        SingleCardEvaluator::new(Device::new(0, DeviceConfig::default()), n, cfg().eps, 2).unwrap(),
    );
    let mut single_sys = mk();
    let single =
        run_simulation_resilient(&card, &mut single_sys, cfg(), RecoveryConfig::default()).unwrap();
    assert_eq!(single.outcome.kernel, "tenstorrent-wormhole");

    assert_states_bitwise(&ring_sys, &single_sys);
    assert_eq!(ring.outcome.final_energy.to_bits(), single.outcome.final_energy.to_bits());
}
