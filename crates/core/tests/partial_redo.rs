//! End-to-end tests of partial-tile redo: a transient fault on one core is
//! recovered by re-launching only that core's tile slice, the result stays
//! bitwise identical to a fault-free run, and the virtual-time retry
//! overhead stays near `1/num_cores` instead of the full re-run's ~1.
//!
//! Two fault flavours are exercised. Injected compute stalls are rolled on
//! the launching thread, so the faulting core is a deterministic function
//! of the one-shot schedule — that drives the per-core property test.
//! Uncorrectable DRAM ECC panics stop their reader early, which keeps the
//! cost comparison immune to host load (the faulting core is then whichever
//! reader hits the scheduled event, and the partial redo must cope with any
//! of them).

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use nbody::ic::{plummer, PlummerConfig};
use nbody::particle::{Forces, ParticleSystem};
use nbody_tt::{DeviceForcePipeline, ForceEvaluator, PipelineTiming, RetryPolicy};
use tensix::fault::{FaultClass, FaultConfig};
use tensix::{Device, DeviceConfig, TILE_ELEMS};

const EPS: f64 = 0.01;
const SMALL_CORES: usize = 2;
const SMALL_N: usize = SMALL_CORES * TILE_ELEMS; // one tile per core

fn small_system() -> ParticleSystem {
    plummer(PlummerConfig { n: SMALL_N, seed: 201, ..PlummerConfig::default() })
}

/// Fault-free forces for [`small_system`], computed once per process.
fn small_golden() -> &'static Forces {
    static GOLDEN: OnceLock<Forces> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let pipeline = DeviceForcePipeline::new(
            Device::new(0, DeviceConfig::default()),
            SMALL_N,
            EPS,
            SMALL_CORES,
        )
        .unwrap();
        pipeline.evaluate_checked(&small_system()).unwrap()
    })
}

/// Stall the force-compute kernel instance on 0-based core `k` of a
/// `num_cores`-core launch and run one evaluation under `policy`.
///
/// Launch order is kernels-outer, cores-inner (reader instances land on
/// fault events `1..=C`, compute on `C+1..=2C`), so the scheduled one-shot
/// deterministically picks core `k`'s compute instance. The stalled
/// attempt ends when its core stops moving: the stalled core's reader
/// fills its input CBs and waits, its writer waits on an empty output CB,
/// and once no task there can move the core's launch is over. Only that
/// core is affected, with no time budget.
fn run_with_stall(
    system: &ParticleSystem,
    num_cores: usize,
    k: usize,
    policy: RetryPolicy,
) -> (Forces, PipelineTiming) {
    let pipeline = stalled_pipeline(system.len(), num_cores, k);
    let forces = pipeline.evaluate_with_retry(system, policy).unwrap();
    (forces, pipeline.timing())
}

/// A `num_cores`-core pipeline for `n` particles whose first launch stalls
/// the force-compute instance on 0-based core `k` (see [`run_with_stall`]).
fn stalled_pipeline(n: usize, num_cores: usize, k: usize) -> DeviceForcePipeline {
    let dev = Device::new(0, DeviceConfig { seed: 7 + k as u64, ..DeviceConfig::default() });
    dev.faults().schedule(FaultClass::KernelStall, (num_cores + k + 1) as u64);
    DeviceForcePipeline::new(dev, n, EPS, num_cores).unwrap()
}

/// Fail the 5th DRAM read of a `num_cores`-core launch with an
/// uncorrectable ECC hit and run one evaluation under `policy`. The reader
/// that draws it panics long before any tile completes, which stops only
/// its core; the survivors run to the end.
fn run_with_dram_fault(
    system: &ParticleSystem,
    num_cores: usize,
    policy: RetryPolicy,
) -> (Forces, PipelineTiming) {
    let dev = Device::new(
        0,
        DeviceConfig {
            faults: FaultConfig { dram_uncorrectable_frac: 1.0, ..FaultConfig::default() },
            seed: 11,
            ..DeviceConfig::default()
        },
    );
    dev.faults().schedule(FaultClass::DramRead, 5);
    let pipeline = DeviceForcePipeline::new(dev, system.len(), EPS, num_cores).unwrap();
    let forces = pipeline.evaluate_with_retry(system, policy).unwrap();
    (forces, pipeline.timing())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Whichever core faults, the partial redo delivers a bitwise-identical
    /// result, performs exactly one single-slice retry, and its overhead
    /// stays under the `1.5/num_cores` acceptance bound.
    #[test]
    fn partial_redo_is_bitwise_identical_for_any_faulting_core(k in 0usize..SMALL_CORES) {
        let sys = small_system();
        let golden = small_golden();

        let (forces, t) = run_with_stall(&sys, SMALL_CORES, k, RetryPolicy::default());
        prop_assert_eq!(&forces.acc, &golden.acc, "acc must be bit-identical after redo");
        prop_assert_eq!(&forces.jerk, &golden.jerk, "jerk must be bit-identical after redo");

        prop_assert_eq!(t.evaluations, 1);
        prop_assert_eq!(t.retries, 1);
        prop_assert_eq!(t.partial_redos, 1, "retry must be a single-slice redo");
        prop_assert!(t.redo_cycles > 0);
        prop_assert!(t.redo_cycles < t.busy_cycles, "redo is a strict subset of useful work");
        prop_assert!(t.wasted_seconds > 0.0, "faulting core's discarded time must be billed");
        prop_assert!(
            t.retry_overhead_ratio() <= 1.5 / SMALL_CORES as f64,
            "overhead {:.4} exceeds 1.5/{}",
            t.retry_overhead_ratio(),
            SMALL_CORES
        );
    }
}

/// A launch cut into half tiles redoes at half-tile granularity: at
/// N = 1024 on two cores each core owns one 16-row half tile, and a stall on
/// one core re-launches only that core's half. The result lands bitwise on
/// the one-core whole-tile evaluation.
#[test]
fn half_tile_launch_redoes_only_the_faulted_half() {
    let n = TILE_ELEMS;
    let sys = plummer(PlummerConfig { n, seed: 204, ..PlummerConfig::default() });
    let whole = DeviceForcePipeline::new(Device::new(0, DeviceConfig::default()), n, EPS, 1)
        .unwrap()
        .evaluate_checked(&sys)
        .unwrap();

    let k = 1;
    let pipeline = stalled_pipeline(n, SMALL_CORES, k);
    let sizing = pipeline.sizing(n);
    assert_eq!((sizing.unit_particles, sizing.units), (TILE_ELEMS / 2, SMALL_CORES));
    let forces = pipeline.evaluate_with_retry(&sys, RetryPolicy::default()).unwrap();
    assert_eq!(forces.acc, whole.acc, "acc must land bitwise after the redo");
    assert_eq!(forces.jerk, whole.jerk);

    let t = pipeline.timing();
    assert_eq!((t.evaluations, t.retries, t.partial_redos), (1, 1, 1));
    // The landing attempt is the redo slice: one compute instance, on the
    // stalled core, re-running its one half tile.
    let redo = pipeline.last_launch_report().unwrap();
    let computes: Vec<_> = redo.timings.iter().filter(|k| k.label == "force-compute").collect();
    let stalled = pipeline.device().grid().index_of(tensix::CoreCoord::new(k, 0));
    assert_eq!(computes.len(), 1, "only the faulted core re-launches");
    assert_eq!(computes[0].core_index, stalled);
    let redo_frac = t.redo_cycles as f64 / t.busy_cycles as f64;
    assert!(redo_frac > 0.3 && redo_frac < 0.7, "redo fraction {redo_frac:.4} is not one half");
}

/// Acceptance criterion at the campaign core count: on an eight-core split
/// (the N = 102 400 run's shape, scaled to one tile per core so the debug
/// build stays tractable), a seeded single-core transient fault recovers
/// via partial redo with virtual-time retry overhead at most
/// `1.5/num_cores` of the useful work.
#[test]
fn eight_core_fault_recovers_within_acceptance_bound() {
    let num_cores = 8;
    let n = num_cores * TILE_ELEMS;
    let sys = plummer(PlummerConfig { n, seed: 202, ..PlummerConfig::default() });

    let (forces, t) = run_with_dram_fault(&sys, num_cores, RetryPolicy::default());

    assert!(forces.acc.iter().flatten().all(|a| a.is_finite()));
    assert_eq!((t.evaluations, t.retries, t.partial_redos), (1, 1, 1));
    let bound = 1.5 / num_cores as f64;
    assert!(
        t.retry_overhead_ratio() <= bound,
        "overhead {:.4} exceeds bound {bound:.4}",
        t.retry_overhead_ratio()
    );
    // The redo relaunched one of eight equal slices; its cycle cost must
    // sit near 1/8 of the delivered work, nowhere near a full re-run.
    let redo_frac = t.redo_cycles as f64 / t.busy_cycles as f64;
    assert!(redo_frac < 0.2, "redo fraction {redo_frac:.4} not ~1/8");
    assert!(redo_frac > 0.05, "redo fraction {redo_frac:.4} suspiciously small");
}

/// Cost comparison: the same fault handled by a whole-grid re-run wastes
/// the surviving cores' completed work, so its overhead ratio is a
/// multiple of the partial redo's. Three cores is the smallest split where
/// the strategies separate (at two cores, `1/C` and `(C-1)/C` coincide).
/// The fault is the panic-driven DRAM ECC hit, so the faulting core is
/// whichever reader draws it under a loaded host.
#[test]
fn full_rerun_costs_multiples_of_partial_redo() {
    let num_cores = 3;
    let n = num_cores * TILE_ELEMS;
    let sys = plummer(PlummerConfig { n, seed: 203, ..PlummerConfig::default() });

    let (partial_forces, partial) = run_with_dram_fault(&sys, num_cores, RetryPolicy::default());
    let (full_forces, full) = run_with_dram_fault(&sys, num_cores, RetryPolicy::full_rerun());

    // Both strategies recover the same bitwise result (identity against a
    // fault-free run is covered by the per-core property test above).
    assert_eq!(partial_forces.acc, full_forces.acc);
    assert_eq!(partial_forces.jerk, full_forces.jerk);
    assert_eq!(full.partial_redos, 0, "full_rerun must never slice");
    assert_eq!(full.retries, 1);

    // Two surviving cores completed 2/3 of the tiles before the abort, so
    // the full re-run discards at least that much finished work while the
    // partial redo re-executes only the faulting third.
    assert!(full.wasted_cycles > full.busy_cycles / 2);
    assert!(
        full.retry_overhead_ratio() > 1.7 * partial.retry_overhead_ratio(),
        "full {:.4} vs partial {:.4}",
        full.retry_overhead_ratio(),
        partial.retry_overhead_ratio()
    );
}

/// The matrix kernel publishes a group's redo watermarks together, after
/// the group's last chunk. At N = 512 on one core (16 blocks, 2 groups of
/// 8), an uncorrectable DRAM hit on read 250 lands on source block 10 of
/// the second group. By then the compute kernel has flushed that group's
/// first chunk, which needs the writer past the first group's watermarks:
/// the redo re-launches exactly the second group's 8 blocks and lands
/// bitwise on a fault-free run.
#[test]
fn matrix_redo_resumes_after_the_last_complete_group() {
    use nbody_tt::ForceKernelKind;

    let n = 512;
    let sys = plummer(PlummerConfig { n, seed: 205, ..PlummerConfig::default() });
    let matrix = |dev| {
        DeviceForcePipeline::new_with_kernel(dev, n, EPS, 1, ForceKernelKind::Matrix).unwrap()
    };
    let clean = matrix(Device::new(0, DeviceConfig::default())).evaluate_checked(&sys).unwrap();

    let dev = Device::new(
        0,
        DeviceConfig {
            faults: FaultConfig { dram_uncorrectable_frac: 1.0, ..FaultConfig::default() },
            seed: 13,
            ..DeviceConfig::default()
        },
    );
    dev.faults().schedule(FaultClass::DramRead, 250);
    let pipeline = matrix(dev);
    let forces = pipeline.evaluate_with_retry(&sys, RetryPolicy::default()).unwrap();
    assert_eq!(forces.acc, clean.acc, "acc must land bitwise after the redo");
    assert_eq!(forces.jerk, clean.jerk);

    let t = pipeline.timing();
    assert_eq!((t.evaluations, t.retries, t.partial_redos), (1, 1, 1));
    let redo_frac = t.redo_cycles as f64 / t.busy_cycles as f64;
    assert!(redo_frac > 0.4 && redo_frac < 0.6, "redo fraction {redo_frac:.4} is not one group");
}

/// FNV-1a over the bit patterns of every acceleration and jerk component.
fn forces_digest(f: &Forces) -> u64 {
    f.acc.iter().chain(&f.jerk).flatten().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
    })
}

/// A fault on a source page's second read of a launch. At N = 2048 on one
/// core the reader takes 2 target tiles, each a pass of 6 target pages and
/// the 14 packed source pages, so read 27 is source page 0's second read
/// (tile 1's first source page). By then the compute kernel has pushed
/// tile 0's results, which the writer drains without waiting, so the
/// redo re-launches exactly tile 1 and the timing is pinned bit for bit.
#[test]
fn fault_on_a_repeated_source_read_redoes_the_second_tile() {
    let n = 2 * TILE_ELEMS;
    let sys = plummer(PlummerConfig { n, seed: 206, ..PlummerConfig::default() });
    let clean = DeviceForcePipeline::new(Device::new(0, DeviceConfig::default()), n, EPS, 1)
        .unwrap()
        .evaluate_checked(&sys)
        .unwrap();

    let dev = Device::new(
        0,
        DeviceConfig {
            faults: FaultConfig { dram_uncorrectable_frac: 1.0, ..FaultConfig::default() },
            seed: 17,
            ..DeviceConfig::default()
        },
    );
    dev.faults().schedule(FaultClass::DramRead, 6 + 14 + 6 + 1);
    let pipeline = DeviceForcePipeline::new(Arc::clone(&dev), n, EPS, 1).unwrap();
    let forces = pipeline.evaluate_with_retry(&sys, RetryPolicy::default()).unwrap();
    assert_eq!(forces.acc, clean.acc, "acc must land bitwise after the redo");
    assert_eq!(forces.jerk, clean.jerk);
    assert_eq!(dev.faults().stats().dram_uncorrectable, 1);
    assert_eq!(forces_digest(&forces), 0xa513_22e4_0b05_c5ad);

    let t = pipeline.timing();
    assert_eq!((t.retries, t.partial_redos), (1, 1));
    assert_eq!(
        format!("{t:?}"),
        "PipelineTiming { device_seconds: 0.008492224499506026, io_seconds: 6.485333333333331e-6, evaluations: 1, last_eval_cycles: 5661712, last_matrix_cycles: 368640, last_vector_cycles: 2613680, retries: 1, retry_backoff_seconds: 0.25, busy_cycles: 8499463, wasted_cycles: 2833655, wasted_seconds: 0.252830855500494, redo_cycles: 5665807, redo_seconds: 0.005661368, partial_redos: 1 }"
    );
}
