//! End-to-end bitwise regression tests for the zero-copy tile pipeline.
//!
//! Two layers of defense:
//!
//! 1. A lane-exact scalar emulation of the device kernels' FP32 op sequence
//!    (the order the compute kernel issues its FPU/SFPU instructions in)
//!    must reproduce the pipeline's forces bit for bit — so any future
//!    reordering, re-association, or caching bug in the tile path shows up
//!    as a bit flip, not a tolerance drift.
//! 2. Golden values captured from the pre-optimization pipeline (Arc'd CB
//!    pages, tilize cache, vectorized tile math and the worker pool must
//!    all be invisible): the forces hash *and* the full `PipelineTiming`
//!    cycle accounting are pinned for two seeds covering single-core and
//!    multi-core tile splits.
//! 3. Whole-driver goldens: the final state and timing of complete
//!    simulation runs — shared steps on one card, through the resilient
//!    driver under DRAM faults and a card loss, on a ring and on the host
//!    tree, plus block steps on one card — so every launch the driver
//!    makes, and every host FP64 predict/correct, is pinned end to end.

use std::sync::Arc;

use nbody::ic::{plummer, PlummerConfig};
use nbody::particle::{Forces, ParticleSystem};
use nbody_tt::{
    run_block_simulation, run_simulation, run_simulation_resilient, BlockStepConfig,
    DeviceForcePipeline, ForceEvaluator, HostArrays, MultiDevicePipeline, PipelineTiming,
    RecoveryConfig, RetryPolicy, SimulationConfig, TreeConfig, TreeForceEvaluator,
};
use tensix::fault::FaultClass;
use tensix::{Device, DeviceConfig, FaultConfig};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn forces_hash(f: &Forces) -> u64 {
    let mut bytes = Vec::with_capacity(f.len() * 48);
    for v in f.acc.iter().chain(f.jerk.iter()) {
        for c in v {
            bytes.extend_from_slice(&c.to_bits().to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

/// Lane-exact FP32 emulation of `ForceComputeKernel::interact` — every
/// arithmetic step in the order (and associativity) the device kernel
/// issues it, including the `fma` accumulations of the MAD LLK.
// Plain `x = x + ...` assignments (not `+=`) deliberately mirror the device
// kernel's two-operand instruction issue order.
#[allow(clippy::assign_op_pattern)]
fn emulate_device_forces(sys: &ParticleSystem, eps: f64) -> Forces {
    let a = HostArrays::from_system(sys);
    let eps2 = (eps * eps) as f32;
    let n = a.n;
    let mut out = Forces::zeros(n);
    for i in 0..n {
        let (xi, yi, zi) = (a.pos[0][i], a.pos[1][i], a.pos[2][i]);
        let (vxi, vyi, vzi) = (a.vel[0][i], a.vel[1][i], a.vel[2][i]);
        let mut acc = [0.0f32; 3];
        let mut jerk = [0.0f32; 3];
        for j in 0..n {
            // Phase A: displacements (FPU sub_tiles, source minus target).
            let d = [a.pos[0][j] - xi, a.pos[1][j] - yi, a.pos[2][j] - zi];
            let dv = [a.vel[0][j] - vxi, a.vel[1][j] - vyi, a.vel[2][j] - vzi];
            // Phase B: w = m/s³ and rv3 = 3(d·dv)/s².
            let mut r2 = d[0] * d[0]; // square_tile + add_binary_tile chain
            r2 = r2 + d[1] * d[1];
            r2 = r2 + d[2] * d[2];
            let s2 = r2 * 1.0 + eps2; // scale_tile(0, 1.0, ε²)
            let inv_s = 1.0 / s2.sqrt(); // rsqrt_tile (precise)
            let inv_s2 = inv_s * inv_s; // square_tile
            let inv_s3 = inv_s2 * inv_s; // mul_binary_tile
            let w = inv_s3 * a.mass[j]; // mul_binary_tile with m_j
            let mut rv = d[0] * dv[0]; // mul_tiles + add_binary_tile chain
            rv = rv + d[1] * dv[1];
            rv = rv + d[2] * dv[2];
            rv = rv * inv_s2; // mul_binary_tile
            let rv3 = rv * 3.0 + 0.0; // scale_tile(4, 3.0, 0.0)
            for axis in 0..3 {
                // Phase C1: acc += d·w (SFPU MAD = f32::mul_add).
                acc[axis] = d[axis].mul_add(w, acc[axis]);
            }
            for axis in 0..3 {
                // Phase C2: jerk += (dv − rv3·d)·w, issued as
                // neg(d·rv3) + dv then MAD.
                let t = -(d[axis] * rv3) + dv[axis];
                jerk[axis] = t.mul_add(w, jerk[axis]);
            }
        }
        for axis in 0..3 {
            out.acc[i][axis] = f64::from(acc[axis]);
            out.jerk[i][axis] = f64::from(jerk[axis]);
        }
    }
    out
}

fn run_pipeline(n: usize, seed: u64, eps: f64, cores: usize) -> (Forces, nbody_tt::PipelineTiming) {
    let sys = plummer(PlummerConfig { n, seed, ..PlummerConfig::default() });
    let device = Device::new(0, DeviceConfig::default());
    let pipeline = DeviceForcePipeline::new(device, n, eps, cores).unwrap();
    let f = pipeline.evaluate_checked(&sys).unwrap();
    (f, pipeline.timing())
}

#[test]
fn pipeline_matches_scalar_emulation_bitwise_single_core() {
    let (n, seed, eps) = (80usize, 93u64, 0.03f64);
    let sys = plummer(PlummerConfig { n, seed, ..PlummerConfig::default() });
    let device = Device::new(0, DeviceConfig::default());
    let pipeline = DeviceForcePipeline::new(device, n, eps, 1).unwrap();
    let dev = pipeline.evaluate_checked(&sys).unwrap();
    let host = emulate_device_forces(&sys, eps);
    for i in 0..n {
        for axis in 0..3 {
            assert_eq!(
                dev.acc[i][axis].to_bits(),
                host.acc[i][axis].to_bits(),
                "acc[{i}][{axis}]: device {} vs emulated {}",
                dev.acc[i][axis],
                host.acc[i][axis]
            );
            assert_eq!(
                dev.jerk[i][axis].to_bits(),
                host.jerk[i][axis].to_bits(),
                "jerk[{i}][{axis}]: device {} vs emulated {}",
                dev.jerk[i][axis],
                host.jerk[i][axis]
            );
        }
    }
}

#[test]
fn pipeline_matches_scalar_emulation_bitwise_multi_core() {
    // Two target tiles split over two cores: the cached reader path runs
    // per kernel instance, so both instances must stay lane-exact.
    let (n, seed, eps) = (1500usize, 95u64, 0.02f64);
    let sys = plummer(PlummerConfig { n, seed, ..PlummerConfig::default() });
    let device = Device::new(0, DeviceConfig::default());
    let pipeline = DeviceForcePipeline::new(device, n, eps, 2).unwrap();
    let dev = pipeline.evaluate_checked(&sys).unwrap();
    let host = emulate_device_forces(&sys, eps);
    let mut mismatches = 0usize;
    for i in 0..n {
        for axis in 0..3 {
            if dev.acc[i][axis].to_bits() != host.acc[i][axis].to_bits()
                || dev.jerk[i][axis].to_bits() != host.jerk[i][axis].to_bits()
            {
                mismatches += 1;
            }
        }
    }
    assert_eq!(mismatches, 0, "{mismatches} lanes differ from the scalar emulation");
}

#[test]
fn seed_golden_single_core() {
    // Forces captured from the pre-optimization pipeline (commit 6b8f827).
    // The data path must keep forces AND cycle accounting bitwise.
    let (f, t) = run_pipeline(96, 90, 0.01, 1);
    assert_eq!(forces_hash(&f), 0xcd15_7171_9965_0133);
    assert_eq!(
        f.acc[0].map(f64::to_bits),
        [4590289887759958016, 4598304488934080512, 13825332225857552384]
    );
    assert_eq!(
        f.jerk[0].map(f64::to_bits),
        [13808396175524495360, 13822373409465565184, 4600568563227426816]
    );
    assert_eq!(t.device_seconds.to_bits(), 0x3f31_6f24_6144_79be);
    assert_eq!(t.io_seconds.to_bits(), 0x3ecb_3392_da3d_7e69);
    assert_eq!(t.evaluations, 1);
    assert_eq!(t.last_eval_cycles, 266_024);
    assert_eq!(t.busy_cycles, 269_254);
    assert_eq!(t.retries, 0);
    assert_eq!(t.wasted_cycles, 0);
    assert_eq!(t.redo_cycles, 0);
    assert_eq!(t.partial_redos, 0);
}

#[test]
fn seed_golden_multi_core() {
    let (f, t) = run_pipeline(2560, 91, 0.02, 2);
    assert_eq!(forces_hash(&f), 0x3978_aee1_c9f4_4781);
    assert_eq!(
        f.acc[0].map(f64::to_bits),
        [4604718705299947520, 13827545320499707904, 13825608754642550784]
    );
    assert_eq!(
        f.jerk[0].map(f64::to_bits),
        [13836184382538252288, 13820965827886710784, 4605462795499077632]
    );
    assert_eq!(t.device_seconds.to_bits(), 0x3f8c_fc4d_7688_fbf0);
    assert_eq!(t.io_seconds.to_bits(), 0x3ee4_66ae_23ae_1ed1);
    assert_eq!(t.evaluations, 1);
    assert_eq!(t.last_eval_cycles, 14_153_104);
    assert_eq!(t.busy_cycles, 21_246_585);
}

#[test]
fn seed_golden_ring_loss() {
    // The same seed as `seed_golden_multi_core`, computed by a two-card ring
    // (one core each — the per-tile arithmetic is split-invariant, so the
    // forces hash is the same golden) with card 1 falling off the bus on its
    // first launch and a spare taking over mid-evaluation. Failover must be
    // invisible to the physics AND keep the forces pinned to the golden.
    use tensix::fault::FaultClass;

    let (n, seed, eps) = (2560usize, 91u64, 0.02f64);
    let sys = plummer(PlummerConfig { n, seed, ..PlummerConfig::default() });
    let devices =
        vec![Device::new(0, DeviceConfig::default()), Device::new(1, DeviceConfig::default())];
    devices[1].faults().schedule(FaultClass::DeviceLoss, 1);
    let spare = Device::new(9, DeviceConfig::default());
    let ring = MultiDevicePipeline::with_spares(&devices, &[spare], n, eps, 1).unwrap();
    let f = ring.evaluate_checked(&sys).unwrap();
    assert_eq!(forces_hash(&f), 0x3978_aee1_c9f4_4781);
    assert_eq!(
        f.acc[0].map(f64::to_bits),
        [4604718705299947520, 13827545320499707904, 13825608754642550784]
    );
    let t = ring.timing();
    assert_eq!(t.failovers, 1);
    assert_eq!(t.evaluations, 1);
    assert!(t.comm_seconds > 0.0);
    assert_eq!(t.pipeline.evaluations, 2, "surviving card + promoted spare");
}

// ---------------------------------------------------------------------------
// Whole-driver goldens: the final FP64 state and the full `PipelineTiming`
// of complete simulation runs, one per driver path. These pin the launch
// sequence and the host predict/correct arithmetic end to end, so any
// change to how a driver schedules, retries, checkpoints or replays its
// force evaluations shows up here bit for bit.
// ---------------------------------------------------------------------------

/// FNV-1a over the bit patterns of time, positions, velocities,
/// accelerations and jerks.
fn state_hash(sys: &ParticleSystem) -> u64 {
    let mut bytes = Vec::with_capacity(8 + sys.len() * 96);
    bytes.extend_from_slice(&sys.time.to_bits().to_le_bytes());
    for field in [&sys.pos, &sys.vel, &sys.acc, &sys.jerk] {
        for v in field {
            for c in v {
                bytes.extend_from_slice(&c.to_bits().to_le_bytes());
            }
        }
    }
    fnv1a(&bytes)
}

fn driver_config(blocks: Option<BlockStepConfig>) -> SimulationConfig {
    SimulationConfig {
        eps: 0.05,
        cycles: 2,
        steps_per_cycle: 3,
        dt: 1.0 / 256.0,
        num_cores: 1,
        blocks,
    }
}

fn driver_system(seed: u64) -> ParticleSystem {
    plummer(PlummerConfig { n: 96, seed, ..PlummerConfig::default() })
}

/// Pin a run's final state and its timing. `Debug` prints every `f64` in
/// its shortest round-trip form, so equal strings mean bitwise-equal
/// timings.
fn assert_driver_golden(sys: &ParticleSystem, t: Option<PipelineTiming>, hash: u64, timing: &str) {
    assert_eq!(state_hash(sys), hash, "final state hash {:#018x}", state_hash(sys));
    assert_eq!(format!("{t:?}"), timing);
}

#[test]
fn driver_golden_shared_single_card() {
    let cfg = driver_config(None);
    let mut sys = driver_system(300);
    let card = Arc::new(
        DeviceForcePipeline::new(Device::new(0, DeviceConfig::default()), sys.len(), cfg.eps, 1)
            .unwrap(),
    );
    let out = run_simulation(&card, &mut sys, cfg);
    assert_eq!(out.steps, 6);
    assert_driver_golden(
        &sys,
        out.timing,
        0x9bd275db5bf1a317,
        "Some(PipelineTiming { device_seconds: 0.0018621680000000004, io_seconds: 2.269866666666672e-5, evaluations: 7, last_eval_cycles: 266024, last_matrix_cycles: 17280, last_vector_cycles: 122712, retries: 0, retry_backoff_seconds: 0.0, busy_cycles: 1884778, wasted_cycles: 0, wasted_seconds: 0.0, redo_cycles: 0, redo_seconds: 0.0, partial_redos: 0 })",
    );
}

#[test]
fn driver_golden_shared_resilient_faults() {
    let cfg = driver_config(None);
    let mut sys = driver_system(301);
    let dev = Device::new(
        0,
        DeviceConfig {
            seed: 17,
            faults: FaultConfig { dram_uncorrectable_frac: 1.0, ..FaultConfig::default() },
            ..DeviceConfig::default()
        },
    );
    // One uncorrectable DRAM read in the fourth launch (a 96-particle launch
    // makes 6 + 7 = 13 reads), then the card falls off the bus at launch 8.
    dev.faults().schedule(FaultClass::DramRead, 3 * 13 + 5);
    dev.faults().schedule(FaultClass::DeviceLoss, 8);
    let card = Arc::new(DeviceForcePipeline::new(Arc::clone(&dev), sys.len(), cfg.eps, 1).unwrap());
    let recovery = RecoveryConfig {
        retry: RetryPolicy { max_retries: 8, ..RetryPolicy::default() },
        ..RecoveryConfig::default()
    };
    let out = run_simulation_resilient(&card, &mut sys, cfg, recovery).unwrap();
    let stats = dev.faults().stats();
    assert_eq!((stats.dram_uncorrectable, stats.device_losses), (1, 1));
    assert_eq!((out.recoveries, out.steps_replayed), (1, 1));
    assert_driver_golden(
        &sys,
        out.outcome.timing,
        0x99140fee706f720d,
        "Some(PipelineTiming { device_seconds: 0.002128192, io_seconds: 2.5941333333333356e-5, evaluations: 8, last_eval_cycles: 266024, last_matrix_cycles: 17280, last_vector_cycles: 122712, retries: 1, retry_backoff_seconds: 0.25, busy_cycles: 2154032, wasted_cycles: 834, wasted_seconds: 0.250000818, redo_cycles: 269254, redo_seconds: 0.000266024, partial_redos: 1 })",
    );
}

#[test]
fn driver_golden_shared_ring() {
    // At N = 96 the one target tile belongs to card 0 and card 1 makes no
    // launch, so the ring's timing is the single card's.
    let cfg = driver_config(None);
    let mut sys = driver_system(302);
    let devices =
        vec![Device::new(0, DeviceConfig::default()), Device::new(1, DeviceConfig::default())];
    let ring = Arc::new(MultiDevicePipeline::new(&devices, sys.len(), cfg.eps, 1).unwrap());
    let out = run_simulation(&ring, &mut sys, cfg);
    assert_driver_golden(
        &sys,
        out.timing,
        0xc01f911b951d8e5a,
        "Some(PipelineTiming { device_seconds: 0.0018621680000000004, io_seconds: 2.269866666666672e-5, evaluations: 7, last_eval_cycles: 266024, last_matrix_cycles: 17280, last_vector_cycles: 122712, retries: 0, retry_backoff_seconds: 0.0, busy_cycles: 1884778, wasted_cycles: 0, wasted_seconds: 0.0, redo_cycles: 0, redo_seconds: 0.0, partial_redos: 0 })",
    );
}

#[test]
fn driver_golden_shared_host_tree() {
    let cfg = driver_config(None);
    let mut sys = driver_system(303);
    let tree = Arc::new(TreeForceEvaluator::host(
        sys.len(),
        cfg.eps,
        TreeConfig { theta: 0.6, leaf_capacity: 8, threads: 1 },
    ));
    let out = run_simulation(&tree, &mut sys, cfg);
    assert_driver_golden(&sys, out.timing, 0x7200ebb2508ceb58, "None");
}

#[test]
fn driver_golden_block_single_card() {
    let cfg = driver_config(Some(BlockStepConfig { eta: 0.02, levels: 3 }));
    let mut sys = driver_system(304);
    let card = Arc::new(
        DeviceForcePipeline::new(Device::new(0, DeviceConfig::default()), sys.len(), cfg.eps, 1)
            .unwrap(),
    );
    let out = run_block_simulation(&card, &mut sys, cfg).unwrap();
    assert_eq!((out.report.iterations, out.report.particle_evaluations), (49, 942));
    assert_driver_golden(
        &sys,
        out.outcome.timing,
        0xb8c15c35450545f8,
        "Some(PipelineTiming { device_seconds: 0.013035176000000004, io_seconds: 0.00015889066666666406, evaluations: 49, last_eval_cycles: 266024, last_matrix_cycles: 17280, last_vector_cycles: 122712, retries: 0, retry_backoff_seconds: 0.0, busy_cycles: 13193446, wasted_cycles: 0, wasted_seconds: 0.0, redo_cycles: 0, redo_seconds: 0.0, partial_redos: 0 })",
    );
}
