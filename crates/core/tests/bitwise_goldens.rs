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
//! 4. Wide launches: one evaluation on 8 cores (half tiles) and one on 64
//!    cores (matrix blocks), pinning forces, timing and per-CB traffic.
//!    A full launch with fewer work units than cores runs the busy cores
//!    only.

use std::ops::RangeInclusive;
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
    // Two target tiles split over two cores: the reader runs per kernel
    // instance, so both instances must stay lane-exact.
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
        "Some(PipelineTiming { device_seconds: 0.002128192, io_seconds: 2.8160000000000042e-5, evaluations: 8, last_eval_cycles: 266024, last_matrix_cycles: 17280, last_vector_cycles: 122712, retries: 1, retry_backoff_seconds: 0.25, busy_cycles: 2154032, wasted_cycles: 834, wasted_seconds: 0.250000818, redo_cycles: 269254, redo_seconds: 0.000266024, partial_redos: 1 })",
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

// ---------------------------------------------------------------------------
// Matrix-kernel force goldens: FNV digests of full and subset rows, minted
// at commit ef24cbd, whose kernel streamed every source block once per
// target block.
// Each row keeps its source order and arithmetic however the kernel
// schedules its blocks, so the digests pin the forces bit for bit. The
// per-core block counts fall below, at, above and off a multiple of the
// kernel's target-group size.
// ---------------------------------------------------------------------------

/// `(n, cores, full-row digest, subset-row digest)`.
const MATRIX_GOLDENS: [(usize, usize, u64, u64); 5] = [
    (96, 1, 0xae38_fe75_c9d1_9004, 0xa8ff_fce1_5f57_1d47),
    (611, 1, 0x6e6b_6358_18da_94f1, 0x344b_bc4e_a030_b1ab),
    (1012, 2, 0xed5b_25eb_8d61_0c4a, 0xdc5b_6acd_ef27_040f),
    (2548, 2, 0x7cb1_bdee_785b_9a00, 0x88f7_822f_2ba2_9768),
    (3000, 3, 0x4531_5b22_3a72_5f24, 0xe2fe_bdda_22e1_57b1),
];

#[test]
fn matrix_kernel_rows_are_pinned() {
    use nbody_tt::{ActiveSet, ForceKernelKind};

    let eps = 0.02;
    let mut digests = Vec::new();
    for (n, cores, _, _) in MATRIX_GOLDENS {
        let sys = plummer(PlummerConfig { n, seed: n as u64, ..PlummerConfig::default() });
        let device = Device::new(0, DeviceConfig::default());
        let pipeline =
            DeviceForcePipeline::new_with_kernel(device, n, eps, cores, ForceKernelKind::Matrix)
                .unwrap();
        let full = forces_hash(&pipeline.evaluate_checked(&sys).unwrap());
        // About 40% of the rows, scattered: gathered blocks take their
        // self-pairs from several source blocks and damping pages.
        let mix = |i: u64| (n as u64 ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 57;
        let subset =
            ActiveSet::from_indices((0..n).filter(|&i| mix(i as u64) % 5 < 2).collect(), n);
        let rows = forces_hash(&pipeline.evaluate_active(&sys, &subset).unwrap());
        digests.push((n, cores, full, rows));
    }
    assert_eq!(digests, MATRIX_GOLDENS);
}

/// Per-CB traffic of a launch, grouped per core: each core's
/// `(cb index, pages_pushed, pages_popped, max_occupancy)` rows in CB order.
/// Stall counts are left out: they say how the host scheduled the kernels,
/// not what the kernels did.
fn cb_traffic(report: &ttmetal::ProgramReport) -> Vec<Vec<(u8, u64, u64, usize)>> {
    let mut cores: Vec<Vec<(u8, u64, u64, usize)>> = Vec::new();
    let mut last_core = None;
    for cb in &report.cb_stats {
        if last_core != Some(cb.core_index) {
            cores.push(Vec::new());
            last_core = Some(cb.core_index);
        }
        let s = cb.stats;
        cores.last_mut().unwrap().push((cb.index, s.pages_pushed, s.pages_popped, s.max_occupancy));
    }
    cores
}

/// Pin one evaluation at the core counts the paper point runs: forces,
/// the whole `PipelineTiming` and every core's CB traffic, which must be
/// the same on each core because each runs one equal work unit. Each CB's
/// row is `(index, pages_pushed, pages_popped, max_occupancy range)`.
fn assert_wide_golden(
    kind: nbody_tt::ForceKernelKind,
    (n, eps, cores): (usize, f64, usize),
    hash: u64,
    timing: &str,
    per_core: &[(u8, u64, u64, RangeInclusive<usize>)],
) {
    let sys = plummer(PlummerConfig { n, seed: n as u64, ..PlummerConfig::default() });
    let device = Device::new(0, DeviceConfig::default());
    let pipeline = DeviceForcePipeline::new_with_kernel(device, n, eps, cores, kind).unwrap();
    assert_eq!(pipeline.sizing(n).units, cores, "one work unit per core");
    let f = pipeline.evaluate_checked(&sys).unwrap();
    assert_eq!(forces_hash(&f), hash, "forces hash {:#018x}", forces_hash(&f));
    assert_eq!(format!("{:?}", pipeline.timing()), timing);
    let traffic = cb_traffic(&pipeline.last_launch_report().unwrap());
    assert_eq!(traffic.len(), cores);
    for (core, rows) in traffic.iter().enumerate() {
        let fits = rows.len() == per_core.len()
            && rows.iter().zip(per_core).all(
                |(&(cb, push, pop, occ), (pcb, ppush, ppop, pocc))| {
                    (cb, push, pop) == (*pcb, *ppush, *ppop) && pocc.contains(&occ)
                },
            );
        assert!(fits, "core {core}: {rows:?}");
    }
}

#[test]
fn eight_core_half_tile_launch_is_pinned() {
    assert_wide_golden(
        nbody_tt::ForceKernelKind::Elementwise,
        (4096, 0.01, 8),
        0xf695_b2bd_b73f_542c,
        "PipelineTiming { device_seconds: 0.006209976, io_seconds: 2.1162666666666656e-5, evaluations: 1, last_eval_cycles: 6209976, last_matrix_cycles: 442368, last_vector_cycles: 2867320, retries: 0, retry_backoff_seconds: 0.0, busy_cycles: 49734640, wasted_cycles: 0, wasted_seconds: 0.0, redo_cycles: 0, redo_seconds: 0.0, partial_redos: 0 }",
        &[
            (0, 6, 6, 6..=6),
            (1, 28, 28, 14..=14),
            (16, 6, 6, 6..=6),
            (24, 24576, 24576, 6..=6),
            (25, 8192, 8192, 2..=2),
            (26, 24582, 24582, 12..=12),
        ],
    );
}

#[test]
fn sixty_four_core_matrix_launch_is_pinned() {
    assert_wide_golden(
        nbody_tt::ForceKernelKind::Matrix,
        (2048, 0.02, 64),
        0xab7d_69a2_f8b5_bcaf,
        "PipelineTiming { device_seconds: 0.000159388, io_seconds: 0.00029508266666666665, evaluations: 1, last_eval_cycles: 159388, last_matrix_cycles: 20992, last_vector_cycles: 76260, retries: 0, retry_backoff_seconds: 0.0, busy_cycles: 15339096, wasted_cycles: 0, wasted_seconds: 0.0, redo_cycles: 0, redo_seconds: 0.0, partial_redos: 0 }",
        &[
            (0, 4, 4, 4..=4),
            (1, 320, 320, 10..=10),
            (2, 128, 128, 4..=4),
            (3, 1, 0, 1..=1),
            // The writer drains each two-page output chunk while the compute
            // kernel works on the next one, or after it: before kernels ran
            // as cooperative tasks, the host's thread schedule picked 2 or 4.
            (16, 16, 16, 2..=4),
            (24, 256, 256, 4..=4),
            (25, 128, 128, 2..=2),
            (26, 288, 288, 8..=8),
        ],
    );
}

/// A full-N launch with fewer work units than cores runs only the busy
/// cores: three kernel instances on each, none on the idle ones. Its forces
/// are the one-core pipeline's bits, and its busy cycles are the sum of the
/// instances it reports.
#[test]
fn full_launch_with_fewer_units_than_cores_runs_only_busy_cores() {
    use nbody_tt::ForceKernelKind::{Elementwise, Matrix};

    // Elementwise: one half-tile unit on 4 cores; matrix: 3 blocks on 8.
    for (kind, cores, units) in [(Elementwise, 4, 1), (Matrix, 8, 3)] {
        let n = 96;
        let sys = plummer(PlummerConfig { n, seed: 28, ..PlummerConfig::default() });
        let run = |cores| {
            let device = Device::new(0, DeviceConfig::default());
            let pipeline =
                DeviceForcePipeline::new_with_kernel(device, n, 0.01, cores, kind).unwrap();
            let forces = pipeline.evaluate_checked(&sys).unwrap();
            (pipeline, forces)
        };
        let (_, one_core) = run(1);
        let (wide, forces) = run(cores);
        assert_eq!(wide.sizing(n).units, units, "{kind:?}");
        assert_eq!(forces.acc, one_core.acc, "{kind:?}");
        assert_eq!(forces.jerk, one_core.jerk, "{kind:?}");

        let report = wide.last_launch_report().unwrap();
        let mut instances = vec![0; cores];
        for k in &report.timings {
            instances[k.core_index] += 1;
        }
        let want: Vec<usize> = (0..cores).map(|c| if c < units { 3 } else { 0 }).collect();
        assert_eq!(instances, want, "{kind:?}: kernel instances per core");
        let reported: u64 = report.timings.iter().map(|k| k.cycles).sum();
        assert_eq!(wide.timing().busy_cycles, reported, "{kind:?}");
    }
}
