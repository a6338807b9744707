//! Hierarchical block-time-step integration tests.
//!
//! Four layers of defense around the active-set machinery:
//!
//! 1. Per-scenario energy goldens: the block-step Hermite driver conserves
//!    energy across the whole IC catalog, not just the Plummer sphere the
//!    shared-step goldens use.
//! 2. Accuracy vs the shared-step integrator: at the same base step the
//!    block scheduler (which refines below it) must not be less accurate,
//!    while doing strictly fewer particle evaluations than a shared run
//!    at the hierarchy's finest step.
//! 3. Active launches on the device: the launch grid is sized by the
//!    active work-unit count (not N) on both kernels — half tiles when
//!    whole ones would leave a core idle — active rows are
//!    f32-bitwise identical to the corresponding full-evaluation rows,
//!    degenerate sets (empty / full / single tail particle) hold, a ring
//!    splits an active set across cards without perturbing a single bit,
//!    and a transient fault on an active launch is retried under the run's
//!    policy.
//! 4. Checkpoint/restore: a run cut mid-hierarchy and resumed — including
//!    through the on-disk spill format — replays to a bitwise-identical
//!    final state (pinned by a proptest over random cut points).

use std::sync::Arc;

use nbody::force::{ReferenceKernel, SimdKernel, ThreadedKernel};
use nbody::ic::{plummer, IcKind, PlummerConfig};
use nbody::particle::ParticleSystem;
use nbody_tt::{
    read_checkpoint, run_block_simulation, write_checkpoint, ActiveSet, BlockScheduler,
    BlockStepConfig, CpuForceEvaluator, DeviceForcePipeline, DriverOutcome, ForceEvaluator,
    ForceKernelKind, MultiDevicePipeline, RetryPolicy, SimulationConfig, SpillConfig,
};
use proptest::prelude::*;
use tensix::fault::{FaultClass, FaultConfig};
use tensix::{Device, DeviceConfig};

fn block_config(dt: f64, cycles: usize, steps_per_cycle: usize, levels: u32) -> SimulationConfig {
    SimulationConfig {
        eps: 0.05,
        cycles,
        steps_per_cycle,
        dt,
        num_cores: 2,
        blocks: Some(BlockStepConfig { eta: 0.02, levels }),
    }
}

/// The driver on the single-threaded CPU reference (SIMD) kernel.
fn cpu_run(sys: &mut ParticleSystem, config: SimulationConfig) -> DriverOutcome {
    let eval = Arc::new(CpuForceEvaluator::new(
        ThreadedKernel::new(SimdKernel::new(config.eps), 1),
        sys.len(),
    ));
    run_block_simulation(&eval, sys, config).expect("CPU runs cannot fault")
}

fn assert_state_bitwise(a: &ParticleSystem, b: &ParticleSystem, what: &str) {
    assert_eq!(a.time.to_bits(), b.time.to_bits(), "{what}: time differs");
    for i in 0..a.len() {
        for c in 0..3 {
            assert_eq!(
                a.pos[i][c].to_bits(),
                b.pos[i][c].to_bits(),
                "{what}: pos[{i}][{c}] {} vs {}",
                a.pos[i][c],
                b.pos[i][c]
            );
            assert_eq!(
                a.vel[i][c].to_bits(),
                b.vel[i][c].to_bits(),
                "{what}: vel[{i}][{c}] {} vs {}",
                a.vel[i][c],
                b.vel[i][c]
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 1. Per-scenario energy goldens.
// ---------------------------------------------------------------------------

/// The block-step driver holds its energy budget on every catalog scenario.
/// The violent ICs (cold collapse, merger) get a looser golden than the
/// equilibrium ones — their tightest timesteps are the point of the
/// hierarchy, but the absolute error is set by the dynamics, not the
/// scheduler.
#[test]
fn energy_goldens_per_ic_scenario() {
    for kind in IcKind::ALL {
        let tol = match kind {
            IcKind::ColdCollapse | IcKind::Merger => 1e-3,
            _ => 1e-4,
        };
        let mut sys = kind.build(128, 5);
        let out = cpu_run(&mut sys, block_config(1.0 / 64.0, 2, 4, 4));
        assert!(
            out.outcome.energy_error < tol,
            "{}: block-step dE/E {} exceeds the {tol} golden",
            kind.name(),
            out.outcome.energy_error
        );
        assert!(
            (out.outcome.final_time - 0.125).abs() < 1e-12,
            "{}: run must land on t_end exactly (got {})",
            kind.name(),
            out.outcome.final_time
        );
        // The ledger saw the run: the init launch plus at least one
        // iteration per base block, and a finest step on the grid.
        assert!(
            out.report.iterations >= 9,
            "{}: only {} launches recorded",
            kind.name(),
            out.report.iterations
        );
        let dt_min = (1.0 / 64.0) / f64::from(1u32 << 4);
        assert!(
            out.report.min_dt_used >= dt_min - 1e-15,
            "{}: step {} fell below the hierarchy floor {dt_min}",
            kind.name(),
            out.report.min_dt_used
        );
    }
}

// ---------------------------------------------------------------------------
// 2. Block vs shared accuracy / cost bound.
// ---------------------------------------------------------------------------

/// Deep into a cold collapse (half a free-fall time, where the central
/// pairs demand the finest grid level) the block scheduler is far more
/// accurate than the shared-step integrator at the same base step — the
/// tight pairs get refined — while doing strictly fewer per-particle force
/// evaluations than a shared run at the hierarchy's finest step. That is
/// the accuracy-for-launches trade the paper's full-N formulation cannot
/// make.
#[test]
fn block_vs_shared_accuracy_and_cost_bound() {
    let levels = 4u32;
    let dt = 1.0 / 32.0;
    let (cycles, steps) = (2usize, 8usize); // t_end = 0.5
    let make = || IcKind::ColdCollapse.build(96, 3);

    let mut block_sys = make();
    let block = cpu_run(&mut block_sys, block_config(dt, cycles, steps, levels));

    let mut shared_sys = make();
    let shared_base = cpu_run(
        &mut shared_sys,
        SimulationConfig { blocks: None, ..block_config(dt, cycles, steps, levels) },
    )
    .outcome;

    let refine = 1usize << levels;
    let mut fine_sys = make();
    let shared_fine = cpu_run(
        &mut fine_sys,
        SimulationConfig {
            blocks: None,
            dt: dt / refine as f64,
            ..block_config(dt, cycles, steps * refine, levels)
        },
    )
    .outcome;

    // Measured: block 3.8e-8 vs shared-base 3.8e-5 — three orders.
    assert!(
        block.outcome.energy_error <= shared_base.energy_error,
        "block dE/E {} must not exceed the shared run at the same base step ({})",
        block.outcome.energy_error,
        shared_base.energy_error
    );
    // Measured: 6 742 block evaluations vs 24 576 — the hierarchy reaches
    // shared-fine-class accuracy at ~27% of the force work.
    let fine_evals = (96 * cycles * steps * refine) as u64;
    assert!(
        block.report.particle_evaluations < fine_evals,
        "block hierarchy spent {} particle evaluations, at least the {} of a \
         uniformly fine shared run",
        block.report.particle_evaluations,
        fine_evals
    );
    // Sanity on the comparison itself: refining the shared step helps.
    assert!(shared_fine.energy_error <= shared_base.energy_error);
}

// ---------------------------------------------------------------------------
// 3. Active-set launches on the device.
// ---------------------------------------------------------------------------

fn compute_cores(report: &ttmetal::ProgramReport) -> usize {
    report.timings.iter().filter(|k| k.label == "force-compute").count()
}

/// An active launch is a program slice of `min(num_cores, units)` cores,
/// not the full-N grid — 1040 targets on 3 cores are 3 half tiles, one per
/// core — and every active row is f32-bitwise identical to the
/// corresponding row of the full evaluation.
#[test]
fn device_launch_grid_is_sized_to_active() {
    let (n, eps) = (2560usize, 0.02f64);
    let sys = plummer(PlummerConfig { n, seed: 91, ..PlummerConfig::default() });
    let device = Device::new(0, DeviceConfig::default());
    let pipeline = DeviceForcePipeline::new(device, n, eps, 3).unwrap();

    let full = pipeline.evaluate_checked(&sys).unwrap();
    assert_eq!(
        compute_cores(&pipeline.last_launch_report().unwrap()),
        3,
        "full-N launch uses the whole grid"
    );

    for (active_len, want_cores) in [(100usize, 1usize), (1040, 3), (2200, 3)] {
        // Spread the active particles over the whole index range so the
        // gather crosses every source tile.
        let active =
            ActiveSet::from_indices((0..active_len).map(|i| i * n / active_len).collect(), n);
        let forces = pipeline.evaluate_active(&sys, &active).unwrap();
        let report = pipeline.last_launch_report().unwrap();
        assert_eq!(
            compute_cores(&report),
            want_cores,
            "|A| = {active_len} must launch {want_cores} compute cores"
        );
        assert_eq!(forces.len(), active_len);
        for (slot, &i) in active.indices().iter().enumerate() {
            for c in 0..3 {
                assert_eq!(
                    forces.acc[slot][c].to_bits(),
                    full.acc[i][c].to_bits(),
                    "acc row {i} not bitwise vs full eval"
                );
                assert_eq!(
                    forces.jerk[slot][c].to_bits(),
                    full.jerk[i][c].to_bits(),
                    "jerk row {i} not bitwise vs full eval"
                );
            }
        }
    }
}

/// Degenerate active sets: empty launches nothing, a full-by-indices set
/// takes the full-N path bitwise, and a lone tail-tile particle (padded
/// lanes in its gathered tile) still matches its full-evaluation row.
#[test]
fn degenerate_active_sets_on_device() {
    let (n, eps) = (1500usize, 0.02f64);
    let sys = plummer(PlummerConfig { n, seed: 95, ..PlummerConfig::default() });
    let device = Device::new(0, DeviceConfig::default());
    let pipeline = DeviceForcePipeline::new(device, n, eps, 2).unwrap();
    let full = pipeline.evaluate_checked(&sys).unwrap();

    let empty = pipeline.evaluate_active(&sys, &ActiveSet::from_indices(vec![], n)).unwrap();
    assert_eq!(empty.len(), 0, "empty block launches nothing");

    let all = ActiveSet::from_indices((0..n).collect(), n);
    assert!(all.is_full(), "every index active is the full set");
    let via_full = pipeline.evaluate_active(&sys, &all).unwrap();
    for i in 0..n {
        for c in 0..3 {
            assert_eq!(via_full.acc[i][c].to_bits(), full.acc[i][c].to_bits());
            assert_eq!(via_full.jerk[i][c].to_bits(), full.jerk[i][c].to_bits());
        }
    }

    let tail = ActiveSet::from_indices(vec![n - 1], n);
    let lone = pipeline.evaluate_active(&sys, &tail).unwrap();
    assert_eq!(lone.len(), 1);
    for c in 0..3 {
        assert_eq!(lone.acc[0][c].to_bits(), full.acc[n - 1][c].to_bits());
        assert_eq!(lone.jerk[0][c].to_bits(), full.jerk[n - 1][c].to_bits());
    }
}

/// Work units of a `targets`-particle elementwise launch on `cores` cores:
/// 512-particle half tiles when whole tiles would leave a core idle and
/// halves give every unit its own core, whole 1024-particle tiles
/// otherwise.
fn elementwise_units(targets: usize, cores: usize) -> usize {
    let (tiles, halves) = (targets.div_ceil(1024), targets.div_ceil(512));
    if tiles < cores && halves <= cores {
        halves
    } else {
        tiles
    }
}

/// At N = 2048, a block of 800 due particles is one whole tile on one core,
/// but two half tiles on a two-core card: the slowest core then computes
/// 512 target lanes instead of 1024, at well under 0.6× the cycles.
#[test]
fn half_tiles_put_a_small_block_on_every_core() {
    let (n, eps) = (2048usize, 0.05f64);
    let sys = plummer(PlummerConfig { n, seed: 17, ..PlummerConfig::default() });
    let active = ActiveSet::from_indices((0..800).map(|i| i * n / 800).collect(), n);
    let launch = |cores: usize| {
        let pipeline =
            DeviceForcePipeline::new(Device::new(0, DeviceConfig::default()), n, eps, cores)
                .unwrap();
        let rows = pipeline.evaluate_active(&sys, &active).unwrap();
        let report = pipeline.last_launch_report().unwrap();
        (rows, compute_cores(&report), pipeline.timing().last_eval_cycles)
    };
    let (one_rows, one_cores, one_cycles) = launch(1);
    let (two_rows, two_cores, two_cycles) = launch(2);
    assert_eq!((one_cores, two_cores), (1, 2));
    assert!(
        two_cycles as f64 <= 0.6 * one_cycles as f64,
        "2 cores: {two_cycles} cycles vs 1 core: {one_cycles}"
    );
    assert_eq!(one_rows.acc, two_rows.acc, "half tiles must not move a bit");
    assert_eq!(one_rows.jerk, two_rows.jerk);
}

/// A full-N launch that whole tiles would leave a core idle on runs as
/// half tiles — and lands bitwise on the one-core whole-tile evaluation.
#[test]
fn half_tile_full_launch_matches_whole_tiles_bitwise() {
    let (n, eps) = (1000usize, 0.02f64);
    let sys = plummer(PlummerConfig { n, seed: 23, ..PlummerConfig::default() });
    let evaluate = |cores: usize| {
        let pipeline =
            DeviceForcePipeline::new(Device::new(0, DeviceConfig::default()), n, eps, cores)
                .unwrap();
        assert_eq!(pipeline.sizing(n).units, elementwise_units(n, cores));
        pipeline.evaluate_checked(&sys).unwrap()
    };
    let (whole, halves) = (evaluate(1), evaluate(2));
    assert_eq!(whole.acc, halves.acc);
    assert_eq!(whole.jerk, halves.jerk);
}

fn matrix_pipeline(n: usize, eps: f64, cores: usize) -> DeviceForcePipeline {
    DeviceForcePipeline::new_with_kernel(
        Device::new(0, DeviceConfig::default()),
        n,
        eps,
        cores,
        ForceKernelKind::Matrix,
    )
    .unwrap()
}

/// Every row of `rows` is f32-bitwise the `active` row of `full`.
fn assert_rows_bitwise(
    rows: &nbody::particle::Forces,
    full: &nbody::particle::Forces,
    active: &ActiveSet,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(rows.len(), active.len());
    for (slot, &i) in active.indices().iter().enumerate() {
        for c in 0..3 {
            prop_assert_eq!(rows.acc[slot][c].to_bits(), full.acc[i][c].to_bits());
            prop_assert_eq!(rows.jerk[slot][c].to_bits(), full.jerk[i][c].to_bits());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Elementwise active rows are f32-bitwise the full evaluation's rows
    /// whatever the work unit, and a subset launch runs on exactly
    /// `min(C, units)` compute cores under the unit rule (half tiles when
    /// whole ones would leave a core idle).
    #[test]
    fn elementwise_active_rows_are_bitwise_full_rows(
        n in 1usize..=3072,
        cores in 1usize..=4,
        seed in 0u64..1000,
        keep_pct in 1u64..100,
    ) {
        let eps = 0.02;
        let sys = plummer(PlummerConfig { n, seed, ..PlummerConfig::default() });
        let pipeline =
            DeviceForcePipeline::new(Device::new(0, DeviceConfig::default()), n, eps, cores)
                .unwrap();
        let full = pipeline.evaluate_checked(&sys).unwrap();
        let mix = |i: u64| (seed ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 57;
        let random: Vec<usize> =
            (0..n).filter(|&i| mix(i as u64) % 100 < keep_pct).collect();
        let active = ActiveSet::from_indices(random, n);
        let rows = pipeline.evaluate_active(&sys, &active).unwrap();
        assert_rows_bitwise(&rows, &full, &active)?;
        if !active.is_empty() && !active.is_full() {
            let launched = compute_cores(&pipeline.last_launch_report().unwrap());
            prop_assert_eq!(launched, cores.min(elementwise_units(active.len(), cores)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Matrix-pipe active rows are f32-bitwise the full evaluation's rows:
    /// gathering moves a row into another block, and the per-block damping
    /// plan adds exactly `+0.0` wherever the row has no self-pair. Random
    /// subsets, the empty and the full set, and a lone tail particle, on
    /// 1–3 cores.
    #[test]
    fn matrix_active_rows_are_bitwise_full_rows(
        n in 33usize..334,
        cores in 1usize..4,
        seed in 0u64..1000,
        keep_pct in 1u64..100,
    ) {
        let eps = 0.02;
        let sys = plummer(PlummerConfig { n, seed, ..PlummerConfig::default() });
        let pipeline = matrix_pipeline(n, eps, cores);
        let full = pipeline.evaluate_checked(&sys).unwrap();
        let mix = |i: u64| (seed ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 57;
        let random: Vec<usize> =
            (0..n).filter(|&i| mix(i as u64) % 100 < keep_pct).collect();
        for indices in [random, vec![], (0..n).collect(), vec![n - 1]] {
            let active = ActiveSet::from_indices(indices, n);
            let rows = pipeline.evaluate_active(&sys, &active).unwrap();
            assert_rows_bitwise(&rows, &full, &active)?;
        }
    }
}

/// A matrix subset launches ⌈|A|/32⌉ gathered blocks on
/// `min(cores, blocks)` cores, so its device time follows the active set:
/// at N = 1012 on 2 cores, |A| = 77 (3 blocks, the larger core share 2 of
/// the full launch's 16) costs at most 0.2× a full launch.
#[test]
fn matrix_launch_is_sized_to_active_blocks() {
    let (n, eps) = (1012usize, 0.02f64);
    let sys = plummer(PlummerConfig { n, seed: 93, ..PlummerConfig::default() });
    let pipeline = matrix_pipeline(n, eps, 2);
    let full = pipeline.evaluate_checked(&sys).unwrap();
    let full_s = pipeline.timing().device_seconds;
    assert_eq!(compute_cores(&pipeline.last_launch_report().unwrap()), 2);

    for (active_len, want_cores) in [(20usize, 1usize), (77, 2)] {
        let active =
            ActiveSet::from_indices((0..active_len).map(|i| i * n / active_len).collect(), n);
        let before = pipeline.timing().device_seconds;
        let rows = pipeline.evaluate_active(&sys, &active).unwrap();
        let launch_s = pipeline.timing().device_seconds - before;
        assert_eq!(
            compute_cores(&pipeline.last_launch_report().unwrap()),
            want_cores,
            "|A| = {active_len} must launch {want_cores} compute cores"
        );
        assert_rows_bitwise(&rows, &full, &active).unwrap();
        if active_len == 77 {
            assert!(launch_s <= 0.2 * full_s, "|A| = 77 took {launch_s} s vs full {full_s} s");
        }
    }
}

/// A transient DRAM fault on an active-set launch in a block run is retried
/// by the card's launch driver under the run's policy: the retry and its
/// backoff are billed, and the run lands bitwise on a fault-free twin.
#[test]
fn transient_fault_on_an_active_launch_is_retried_under_the_policy() {
    let (n, eps) = (256usize, 0.05f64);
    let config = block_config(1.0 / 64.0, 1, 2, 3);
    let make = || plummer(PlummerConfig { n, seed: 12, ..PlummerConfig::default() });
    let card = |device| Arc::new(DeviceForcePipeline::new(device, n, eps, 2).unwrap());

    let mut clean_sys = make();
    run_block_simulation(&card(Device::new(0, DeviceConfig::default())), &mut clean_sys, config)
        .unwrap();

    // Every DRAM ECC hit is uncorrectable; the device stays clean through
    // the initializing full-N launch, then the 5th read of the first block
    // iteration faults.
    let device = Device::new(
        0,
        DeviceConfig {
            faults: FaultConfig { dram_uncorrectable_frac: 1.0, ..FaultConfig::default() },
            ..DeviceConfig::default()
        },
    );
    let evaluator = card(Arc::clone(&device));
    let mut sys = make();
    let mut scheduler =
        BlockScheduler::new(Arc::clone(&evaluator), &mut sys, config, RetryPolicy::default())
            .unwrap();
    device.faults().schedule(FaultClass::DramRead, 5);
    scheduler.step(&mut sys).unwrap();
    assert!(
        scheduler.report().particle_evaluations < 2 * n as u64,
        "the first block iteration must be an active subset"
    );
    let t = evaluator.timing();
    assert_eq!(t.retries, 1, "the subset launch retried once");
    assert!(t.retry_backoff_seconds > 0.0, "the policy's backoff is billed");
    assert!(t.wasted_seconds >= t.retry_backoff_seconds);
    while !scheduler.done(&sys) {
        scheduler.step(&mut sys).unwrap();
    }
    assert_state_bitwise(&clean_sys, &sys, "retried block run vs fault-free twin");
}

/// A two-card ring splits the active set into shares; the gathered result
/// must be bitwise identical to a single card evaluating the same set.
#[test]
fn ring_active_matches_single_card_bitwise() {
    let (n, eps) = (2560usize, 0.02f64);
    let sys = plummer(PlummerConfig { n, seed: 91, ..PlummerConfig::default() });
    let active = ActiveSet::from_indices((0..n).step_by(3).collect(), n);

    let single = DeviceForcePipeline::new(Device::new(0, DeviceConfig::default()), n, eps, 1)
        .unwrap()
        .evaluate_active(&sys, &active)
        .unwrap();

    let devices =
        vec![Device::new(0, DeviceConfig::default()), Device::new(1, DeviceConfig::default())];
    let ring = MultiDevicePipeline::new(&devices, n, eps, 1).unwrap();
    let ringed = ForceEvaluator::evaluate_active(&ring, &sys, &active).unwrap();

    assert_eq!(single.len(), ringed.len());
    for k in 0..active.len() {
        for c in 0..3 {
            assert_eq!(
                single.acc[k][c].to_bits(),
                ringed.acc[k][c].to_bits(),
                "ring acc slot {k} differs from single card"
            );
            assert_eq!(single.jerk[k][c].to_bits(), ringed.jerk[k][c].to_bits());
        }
    }
}

/// A whole block-step run on a two-card ring lands bitwise on the
/// single-card result: same final state, same launch ledger.
#[test]
fn block_run_ring_matches_single_card_bitwise() {
    let (n, eps) = (640usize, 0.05f64);
    let config = SimulationConfig {
        eps,
        cycles: 1,
        steps_per_cycle: 2,
        dt: 1.0 / 64.0,
        num_cores: 2,
        blocks: Some(BlockStepConfig { eta: 0.02, levels: 3 }),
    };
    let make = || plummer(PlummerConfig { n, seed: 9, ..PlummerConfig::default() });

    let mut single_sys = make();
    let card = Arc::new(
        DeviceForcePipeline::new(Device::new(0, DeviceConfig::default()), n, eps, 2).unwrap(),
    );
    let single = run_block_simulation(&card, &mut single_sys, config).unwrap();

    let mut ring_sys = make();
    let devices =
        vec![Device::new(0, DeviceConfig::default()), Device::new(1, DeviceConfig::default())];
    let ring = Arc::new(MultiDevicePipeline::new(&devices, n, eps, 1).unwrap());
    let ringed = run_block_simulation(&ring, &mut ring_sys, config).unwrap();

    assert_state_bitwise(&single_sys, &ring_sys, "ring vs single card block run");
    assert_eq!(single.report.iterations, ringed.report.iterations);
    assert_eq!(single.report.particle_evaluations, ringed.report.particle_evaluations);
    assert_eq!(single.outcome.energy_error.to_bits(), ringed.outcome.energy_error.to_bits());
}

// ---------------------------------------------------------------------------
// 4. Checkpoint / restore mid-hierarchy.
// ---------------------------------------------------------------------------

fn cpu_scheduler(
    sys: &mut ParticleSystem,
    config: SimulationConfig,
) -> BlockScheduler<CpuForceEvaluator<ReferenceKernel>> {
    let eval = Arc::new(CpuForceEvaluator::new(ReferenceKernel::new(config.eps), sys.len()));
    BlockScheduler::new(eval, sys, config, RetryPolicy::default()).expect("CPU init cannot fault")
}

fn run_to_end(
    scheduler: &mut BlockScheduler<CpuForceEvaluator<ReferenceKernel>>,
    sys: &mut ParticleSystem,
) {
    while !scheduler.done(sys) {
        scheduler.step(sys).expect("CPU step cannot fault");
    }
}

/// Cut a run mid-hierarchy (particles at *different* times and steps),
/// round-trip the checkpoint through the on-disk spill format, restore it
/// into a *fresh* scheduler, and finish: the final state must be bitwise
/// identical to the uninterrupted run.
#[test]
fn checkpoint_mid_hierarchy_resumes_bitwise_through_spill() {
    let config = block_config(1.0 / 32.0, 1, 4, 4);
    let make = || plummer(PlummerConfig { n: 64, seed: 1, ..PlummerConfig::default() });

    // Reference: uninterrupted run.
    let mut ref_sys = make();
    let mut reference = cpu_scheduler(&mut ref_sys, config);
    run_to_end(&mut reference, &mut ref_sys);

    // Cut after three iterations — mid-hierarchy, before any forced sync.
    let mut cut_sys = make();
    let mut cut = cpu_scheduler(&mut cut_sys, config);
    for _ in 0..3 {
        cut.step(&mut cut_sys).unwrap();
    }
    let ckpt = cut.checkpoint(&cut_sys);
    assert!(
        ckpt.t.iter().any(|&t| (t - ckpt.time).abs() > 1e-15),
        "cut point must land mid-hierarchy (some particles behind the front)"
    );

    // Round-trip through the spill file.
    let spill = SpillConfig::new(
        std::env::temp_dir().join(format!("block_steps_spill_{}", std::process::id())),
    );
    let written = write_checkpoint(&spill, &ckpt, 3).expect("spill write");
    assert!(written > 0, "spill write bills bytes");
    let (restored, iteration) = read_checkpoint(&spill, 3).expect("spill read");
    let _ = std::fs::remove_file(spill.file_for(3));
    assert_eq!(iteration, 3);
    assert_eq!(restored.time.to_bits(), ckpt.time.to_bits());
    assert_eq!(restored.next_due_bitmap(), ckpt.next_due_bitmap());
    for i in 0..64 {
        assert_eq!(restored.t[i].to_bits(), ckpt.t[i].to_bits());
        assert_eq!(restored.dt[i].to_bits(), ckpt.dt[i].to_bits());
        for c in 0..3 {
            assert_eq!(restored.pos0[i][c].to_bits(), ckpt.pos0[i][c].to_bits());
            assert_eq!(restored.vel0[i][c].to_bits(), ckpt.vel0[i][c].to_bits());
            assert_eq!(restored.acc0[i][c].to_bits(), ckpt.acc0[i][c].to_bits());
            assert_eq!(restored.jerk0[i][c].to_bits(), ckpt.jerk0[i][c].to_bits());
        }
    }

    // Resume in a fresh scheduler (its own init launch is then overwritten
    // by the restore) and finish the run.
    let mut res_sys = make();
    let mut resumed = cpu_scheduler(&mut res_sys, config);
    resumed.restore(&mut res_sys, &restored);
    run_to_end(&mut resumed, &mut res_sys);

    assert_state_bitwise(&ref_sys, &res_sys, "resumed vs uninterrupted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any cut point in the iteration stream resumes bitwise: the block
    /// hierarchy carries no hidden state outside the checkpoint.
    #[test]
    fn checkpoint_restore_is_bitwise_at_any_cut(
        seed in 0u64..200,
        cut in 1usize..6,
        n in 32usize..80,
    ) {
        let config = block_config(1.0 / 32.0, 1, 2, 3);
        let make = || plummer(PlummerConfig { n, seed, ..PlummerConfig::default() });

        let mut ref_sys = make();
        let mut reference = cpu_scheduler(&mut ref_sys, config);
        run_to_end(&mut reference, &mut ref_sys);

        let mut cut_sys = make();
        let mut scheduler = cpu_scheduler(&mut cut_sys, config);
        for _ in 0..cut {
            if scheduler.done(&cut_sys) {
                break;
            }
            scheduler.step(&mut cut_sys).unwrap();
        }
        let ckpt = scheduler.checkpoint(&cut_sys);

        let mut res_sys = make();
        let mut resumed = cpu_scheduler(&mut res_sys, config);
        resumed.restore(&mut res_sys, &ckpt);
        run_to_end(&mut resumed, &mut res_sys);

        prop_assert_eq!(ref_sys.time.to_bits(), res_sys.time.to_bits());
        for i in 0..n {
            for c in 0..3 {
                prop_assert_eq!(ref_sys.pos[i][c].to_bits(), res_sys.pos[i][c].to_bits());
                prop_assert_eq!(ref_sys.vel[i][c].to_bits(), res_sys.vel[i][c].to_bits());
            }
        }
    }
}
