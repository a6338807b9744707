//! Program assembly and host-side driving of the force pipeline.
//!
//! [`DeviceForcePipeline`] owns the DRAM buffers, the three kernels and the
//! command queue for one device, and exposes a force evaluation that (1)
//! tilizes the FP64 state to FP32, (2) ships it to DRAM, (3) runs the
//! read/compute/write program across the selected Tensix cores with the
//! outer loop split per core as in Fig. 2, and (4) reads back and
//! un-tilizes acceleration and jerk.
//!
//! The elementwise program reads the packed source view, 7 ⌈n/1024⌉ pages,
//! and broadcasts source lanes on the device. The paper's replicated view
//! (7 n pages) is modelled only in [`crate::perf_model`], so one
//! elementwise evaluation moves 19 pages per target tile over PCIe: 6
//! target and 7 source pages up, 6 result pages down.
//!
//! Every evaluation takes one launch path, `DeviceForcePipeline::launch`,
//! and every launch has one shape. Full-N is the all-particles active set:
//! like any subset, its targets are gathered into dense work units, and
//! the launch runs a slice of the card's template program (its CBs and
//! kernels, no runtime args) on the cores those units need, with per-launch
//! runtime args. [`LaunchSizing`] is the one rule that picks the unit: a
//! 32-particle block on the matrix kernel; on the elementwise kernel a
//! 1024-particle tile, or a 512-particle 16-row half tile when whole tiles
//! would leave a core idle and halves give every unit its own core.
//! One retry/salvage/partial-redo driver runs every launch, with one
//! failure path. The matrix kernel's self-pair damping travels with the
//! launch as a per-block [`crate::layout::DampingPlan`], so gathering keeps
//! every row bitwise.
//! The Hermite driver, the ring and the tree reach it through the
//! [`crate::evaluator::ForceEvaluator`] seam, with typed launch errors.
//!
//! The pipeline is also the one single-card evaluator: a lost card is
//! reset and its buffers, program and command queue rebuilt in place by
//! [`DeviceForcePipeline::recover_device_loss`], with the lost
//! incarnation's timing carried forward.

use std::sync::Arc;

use parking_lot::Mutex;

use nbody::particle::{Forces, ParticleSystem};
use tensix::cb::CircularBufferConfig;
use tensix::grid::{CoreCoord, CoreRangeSet};
use tensix::{
    unpack_vector_rows, DataFormat, Device, NocId, Result, Tile, HALF_TILE_ROWS, TILE_DIM,
    TILE_ELEMS,
};
use ttmetal::cb_index::{IN0, IN1, IN2, IN3, INTERMED0, INTERMED1, INTERMED2, OUT0};
use ttmetal::{Buffer, CommandQueue, LaunchError, Program, ProgramReport};

use crate::evaluator::ActiveSet;
use crate::kernels::{
    ForceComputeKernel, MatrixForceComputeKernel, MatrixReaderKernel, MatrixWriterKernel,
    ReaderKernel, WriterKernel, MATRIX_GROUP_BLOCKS,
};
use crate::layout::matrix_pages::ATTR_COLS;
use crate::layout::{
    bf16_split, damping_plan, gather_active_targets, matrix_chunks, matrix_source_view,
    matrix_target_view, split_tiles_to_cores, tilize_sources, tilize_targets, HostArrays,
    MATRIX_BLOCK,
};

/// Which inner-loop formulation the device program runs.
///
/// Both kernels produce the same physics through different Tensix pipes:
///
/// * [`Elementwise`](ForceKernelKind::Elementwise) — the paper's port:
///   displacement/distance math as SFPU vector ops, one source *particle*
///   per inner step (lane-broadcast), 32 vector lanes per clock.
/// * [`Matrix`](ForceKernelKind::Matrix) — the force block reformulated as
///   blocked matmuls so the bulk of the MACs ride the FPU matrix pipe at
///   2048 BF16 MACs/clk/core: one 32×32 *block pair* per inner step, with a
///   compensated FP64 host combine preserving the mixed-precision accuracy
///   contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ForceKernelKind {
    /// SFPU vector-pipe formulation (the paper's kernel).
    #[default]
    Elementwise,
    /// FPU matrix-pipe formulation (blocked matmuls + host combine).
    Matrix,
}

impl ForceKernelKind {
    /// CLI name of the kernel (`elementwise` / `matrix`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ForceKernelKind::Elementwise => "elementwise",
            ForceKernelKind::Matrix => "matrix",
        }
    }

    /// Particles per whole work unit: a 1024-particle tile for the
    /// elementwise kernel, a 32-particle block for the matrix kernel. A
    /// ring splits its active set across cards in these units; a card may
    /// cut its share finer (see [`LaunchSizing`]).
    #[must_use]
    pub fn work_unit_particles(self) -> usize {
        match self {
            ForceKernelKind::Elementwise => tensix::TILE_ELEMS,
            ForceKernelKind::Matrix => MATRIX_BLOCK,
        }
    }

    /// Work units covering `particles` targets: ⌈particles / unit⌉.
    #[must_use]
    pub(crate) fn work_units(self, particles: usize) -> usize {
        particles.div_ceil(self.work_unit_particles())
    }
}

/// How one launch cuts its targets into device work units — the one
/// sizing rule, used for full-N and subset launches alike.
///
/// The matrix kernel's unit is a 32-particle block. The elementwise unit is
/// a whole 1024-particle tile, unless whole tiles would leave a core idle
/// (⌈|A|/1024⌉ < C) while 512-particle half tiles give every unit its own
/// core (⌈|A|/512⌉ ≤ C): then it is a 16-row half tile. One-core cards and
/// launches with at least `C` tiles keep whole tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchSizing {
    /// Target particles per work unit: 1024, 512 or 32.
    pub unit_particles: usize,
    /// Work units covering the launch's targets.
    pub units: usize,
    /// Compute cores the launch runs on: `min(card cores, units)`.
    pub cores: usize,
}

/// Targets in one elementwise half tile.
const HALF_TILE_TARGETS: usize = HALF_TILE_ROWS * TILE_DIM;

impl LaunchSizing {
    /// The sizing of a `targets`-particle launch of `kind` on a card with
    /// `card_cores` cores.
    #[must_use]
    pub fn of(kind: ForceKernelKind, targets: usize, card_cores: usize) -> Self {
        let unit_particles = match kind {
            ForceKernelKind::Matrix => MATRIX_BLOCK,
            ForceKernelKind::Elementwise
                if targets.div_ceil(TILE_ELEMS) < card_cores
                    && targets.div_ceil(HALF_TILE_TARGETS) <= card_cores =>
            {
                HALF_TILE_TARGETS
            }
            ForceKernelKind::Elementwise => TILE_ELEMS,
        };
        let units = targets.div_ceil(unit_particles);
        LaunchSizing { unit_particles, units, cores: card_cores.min(units).max(1) }
    }

    /// Tile rows of an elementwise unit: 32, or 16 for a half tile.
    #[must_use]
    pub fn tile_rows(&self) -> usize {
        self.unit_particles / TILE_DIM
    }

    /// Targets owned by the slowest core: the front-loaded split hands it
    /// ⌈units / cores⌉ units.
    #[must_use]
    pub fn slowest_core_targets(&self) -> usize {
        self.units.div_ceil(self.cores) * self.unit_particles
    }
}

impl std::str::FromStr for ForceKernelKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "elementwise" => Ok(ForceKernelKind::Elementwise),
            "matrix" => Ok(ForceKernelKind::Matrix),
            other => Err(format!("unknown force kernel '{other}' (elementwise|matrix)")),
        }
    }
}

/// Accumulated virtual-time cost of the evaluations run so far.
///
/// Cycle accounting separates three buckets so energy-to-solution sums stay
/// honest under faults:
///
/// * `busy_cycles` — cycles that contributed to a delivered result
///   (including redo cycles: the work was done once, late);
/// * `redo_cycles` ⊆ `busy_cycles` — the subset re-executed by a partial
///   redo after a transient fault;
/// * `wasted_cycles` — cycles of failed attempts whose output was
///   discarded. These never inflate the useful-work denominator.
///
/// `device_seconds` covers useful occupancy only; `wasted_seconds` is the
/// device time burned by discarded attempts (total occupancy is their sum).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineTiming {
    /// Device seconds of useful work across all force programs.
    pub device_seconds: f64,
    /// Host↔device transfer seconds (PCIe).
    pub io_seconds: f64,
    /// Number of force evaluations.
    pub evaluations: u64,
    /// Compute-kernel cycles of the slowest core in the most recent
    /// evaluation.
    pub last_eval_cycles: u64,
    /// Matrix-pipe (FPU) cycles of the slowest compute instance in the most
    /// recent evaluation — the per-pipe attribution behind `last_eval_cycles`.
    pub last_matrix_cycles: u64,
    /// Vector-pipe (SFPU) cycles of the slowest compute instance in the most
    /// recent evaluation.
    pub last_vector_cycles: u64,
    /// Transient-fault retries: launches under a [`RetryPolicy`] that
    /// allows them retry in place, whether the launch is a full set, a
    /// subset or a tree patch.
    pub retries: u64,
    /// Virtual seconds spent in retry backoff.
    pub retry_backoff_seconds: f64,
    /// Kernel cycles that contributed to delivered results.
    pub busy_cycles: u64,
    /// Kernel cycles of failed attempts whose output was discarded.
    pub wasted_cycles: u64,
    /// Device seconds of discarded attempts (not part of `device_seconds`).
    pub wasted_seconds: f64,
    /// Subset of `busy_cycles` re-executed by partial redo launches.
    pub redo_cycles: u64,
    /// Device seconds of partial redo launches (part of `device_seconds`).
    pub redo_seconds: f64,
    /// Number of partial (single-slice) redo launches performed.
    pub partial_redos: u64,
}

impl PipelineTiming {
    /// Fold another pipeline's accumulated timing into this one (used when a
    /// pipeline is rebuilt after device loss and the old accounting must be
    /// carried forward).
    pub fn absorb(&mut self, other: PipelineTiming) {
        self.device_seconds += other.device_seconds;
        self.io_seconds += other.io_seconds;
        self.evaluations += other.evaluations;
        if other.last_eval_cycles > 0 {
            self.last_eval_cycles = other.last_eval_cycles;
        }
        if other.last_matrix_cycles > 0 {
            self.last_matrix_cycles = other.last_matrix_cycles;
        }
        if other.last_vector_cycles > 0 {
            self.last_vector_cycles = other.last_vector_cycles;
        }
        self.retries += other.retries;
        self.retry_backoff_seconds += other.retry_backoff_seconds;
        self.busy_cycles += other.busy_cycles;
        self.wasted_cycles += other.wasted_cycles;
        self.wasted_seconds += other.wasted_seconds;
        self.redo_cycles += other.redo_cycles;
        self.redo_seconds += other.redo_seconds;
        self.partial_redos += other.partial_redos;
    }

    /// Retry overhead as a fraction of useful work:
    /// `(wasted + redo) / busy`. For a single transient fault on one of
    /// `C` equal cores a partial redo lands near `1/C`; a full re-run lands
    /// near `1`. Zero when no cycles have been recorded.
    #[must_use]
    pub fn retry_overhead_ratio(&self) -> f64 {
        if self.busy_cycles == 0 {
            return 0.0;
        }
        (self.wasted_cycles + self.redo_cycles) as f64 / self.busy_cycles as f64
    }
}

/// Bounded-retry policy for transient device faults (kernel panics from NoC
/// or DRAM ECC errors, deadlocks, injected stalls). Backoff is exponential
/// (`backoff_base_s`, doubling per attempt, capped at `max_backoff_s`) with
/// optional seeded jitter, and charged to the pipeline's virtual-time
/// accounting — as *wasted* time, since the device sits idle — not slept on
/// the host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum number of retries after the first failed attempt. Zero
    /// disables retrying.
    pub max_retries: u32,
    /// Backoff before the first retry, in virtual seconds.
    pub backoff_base_s: f64,
    /// Ceiling on any single backoff, in virtual seconds (the doubling
    /// stops here). Non-positive means uncapped.
    pub max_backoff_s: f64,
    /// Jitter amplitude as a fraction of the (capped) backoff: each wait is
    /// scaled by a deterministic factor in `[1 − jitter_frac, 1 + jitter_frac)`
    /// drawn from `jitter_seed` and the attempt index. Zero disables jitter.
    pub jitter_frac: f64,
    /// Seed for the jitter draws. Derived per job/tenant by the serving
    /// layer so concurrent retry storms decorrelate while every run with
    /// the same seed replays identical waits.
    pub jitter_seed: u64,
    /// When true (default), a retryable fault that names the faulting core
    /// keeps surviving cores' completed tile ranges and re-launches only the
    /// incomplete slices; otherwise every retry re-runs the whole grid.
    pub partial_redo: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base_s: 0.25,
            max_backoff_s: 8.0,
            jitter_frac: 0.0,
            jitter_seed: 0,
            partial_redo: true,
        }
    }
}

/// SplitMix64 finalizer: a stateless, well-mixed hash for jitter draws.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// A policy that never retries.
    #[must_use]
    pub fn disabled() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff_base_s: 0.0,
            partial_redo: false,
            ..RetryPolicy::default()
        }
    }

    /// The default policy restricted to whole-grid retries (the pre-partial
    /// behaviour; useful for cost comparisons).
    #[must_use]
    pub fn full_rerun() -> Self {
        RetryPolicy { partial_redo: false, ..RetryPolicy::default() }
    }

    /// The default policy with ±25% seeded jitter — what the job server
    /// hands each job so simultaneous retry waves decorrelate
    /// deterministically.
    #[must_use]
    pub fn jittered(seed: u64) -> Self {
        RetryPolicy { jitter_frac: 0.25, jitter_seed: seed, ..RetryPolicy::default() }
    }

    /// Backoff charged before retry number `attempt` (0-based): exponential
    /// doubling from `backoff_base_s`, capped at `max_backoff_s`, scaled by
    /// the seeded jitter factor. Deterministic in (`self`, `attempt`).
    #[must_use]
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        let mut wait = self.backoff_base_s * f64::from(1u32 << attempt.min(16));
        if self.max_backoff_s > 0.0 {
            wait = wait.min(self.max_backoff_s);
        }
        if self.jitter_frac > 0.0 {
            // A uniform draw in [0, 1) from the (seed, attempt) pair; the
            // hash is stateless so retries replay bitwise under one seed.
            let bits = splitmix64(self.jitter_seed ^ (u64::from(attempt) << 32 | 0x6a69_7474));
            let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
            wait *= 1.0 + self.jitter_frac * (2.0 * unit - 1.0);
        }
        wait
    }
}

/// The assembled force+jerk pipeline on one Wormhole device.
///
/// It is the single-card [`crate::evaluator::ForceEvaluator`]: besides the
/// one launch path it recovers from losing its card itself
/// ([`crate::evaluator::ForceEvaluator::recover_device_loss`] resets the
/// card and rebuilds the card-resident state in place), so the resilient
/// driver, the ring and the job server all hold a card as this type.
pub struct DeviceForcePipeline {
    device: Arc<Device>,
    n: usize,
    eps: f64,
    num_cores: usize,
    format: DataFormat,
    kind: ForceKernelKind,
    /// Source-chunk count of the matrix formulation (1 for elementwise):
    /// each target block's moment sums are flushed once per chunk, so the
    /// output buffers hold `num_blocks · num_chunks` partial pages.
    num_chunks: usize,
    /// The card-resident state, behind the one lock a launch holds from
    /// its input writes to its readback.
    card: Mutex<Card>,
    /// Accounting of the current card incarnation.
    timing: Mutex<PipelineTiming>,
    /// Accounting of incarnations retired by card loss.
    retired: Mutex<PipelineTiming>,
    /// Report of the most recent successful launch (spans, CB stats), kept
    /// for the profiling harness. Purely observational: never read by the
    /// evaluation paths themselves.
    last_report: Mutex<Option<ProgramReport>>,
}

/// What a card loss destroys and recovery rebuilds: the DRAM buffers, the
/// program that references them, and the command queue with its PCIe
/// ledger.
struct Card {
    queue: CommandQueue,
    /// The template every launch slices: the card's CBs and kernels on
    /// all its cores, with no runtime args.
    program: Program,
    target_bufs: Vec<Buffer>,
    source_bufs: Vec<Buffer>,
    output_bufs: Vec<Buffer>,
    /// FP32 host view of the most recent launch's gathered targets, refilled
    /// in place by every launch — the matrix kernel's host combine needs
    /// the exact quantized operands the device saw.
    targets: HostArrays,
}

impl Card {
    /// Allocate the buffers and assemble the program on `device`.
    fn build(
        device: &Arc<Device>,
        n: usize,
        eps: f64,
        num_cores: usize,
        format: DataFormat,
        kind: ForceKernelKind,
        num_chunks: usize,
    ) -> Result<Card> {
        let work_units = kind.work_units(n);
        let mk = |count: usize| Buffer::new(device, format, count);
        let (target_bufs, source_bufs, output_bufs) = match kind {
            ForceKernelKind::Elementwise => {
                // Target and result pages hold one work unit each; the
                // largest half-tile launch can outnumber the whole tiles.
                let pages = unit_capacity(n, num_cores);
                (
                    (0..6).map(|_| mk(pages)).collect::<Result<Vec<_>>>()?,
                    (0..7).map(|_| mk(work_units)).collect::<Result<Vec<_>>>()?,
                    (0..6).map(|_| mk(pages)).collect::<Result<Vec<_>>>()?,
                )
            }
            ForceKernelKind::Matrix => {
                let targets = (0..4).map(|_| mk(work_units)).collect::<Result<Vec<_>>>()?;
                // 7 per-block operand views + the damping pages (index 7):
                // at most one per (gathered block, source block) pair, and
                // sorted targets cross ⌈n/32⌉ − 1 source-block boundaries.
                let mut sources = (0..7).map(|_| mk(work_units)).collect::<Result<Vec<_>>>()?;
                sources.push(mk(2 * work_units)?);
                let outputs =
                    (0..2).map(|_| mk(work_units * num_chunks)).collect::<Result<Vec<_>>>()?;
                (targets, sources, outputs)
            }
        };

        let cores = CoreRangeSet::first_n(num_cores, device.grid().x);
        let (t, s, o) = (&target_bufs, &source_bufs, &output_bufs);
        let program = match kind {
            ForceKernelKind::Elementwise => build_program(&cores, t, s, o, eps, format),
            ForceKernelKind::Matrix => build_matrix_program(&cores, t, s, o, eps, num_chunks),
        };
        Ok(Card {
            queue: CommandQueue::new(Arc::clone(device)),
            program,
            target_bufs,
            source_bufs,
            output_bufs,
            targets: HostArrays::default(),
        })
    }
}

impl DeviceForcePipeline {
    /// Build the pipeline for `n` particles with Plummer softening `eps` on
    /// the first `num_cores` Tensix cores.
    ///
    /// # Errors
    /// DRAM exhaustion (the elementwise program needs 19 ⌈n/1024⌉ tiles, a
    /// few more when its largest half-tile launch outnumbers them).
    ///
    /// # Panics
    /// Panics if `n == 0`, `eps <= 0` (the device kernel has no
    /// self-interaction branch), or `num_cores` is 0 or exceeds the grid.
    pub fn new(device: Arc<Device>, n: usize, eps: f64, num_cores: usize) -> Result<Self> {
        Self::new_with_kernel(device, n, eps, num_cores, ForceKernelKind::Elementwise)
    }

    /// Build the elementwise pipeline with an explicit storage format for
    /// DRAM buffers and circular buffers (dst math is always FP32;
    /// lower-precision storage quantizes on every pack, exactly as on
    /// hardware).
    ///
    /// The paper runs FP32 — "the Tenstorrent Wormhole accelerator supports
    /// up to FP32" — and this constructor exists to quantify why: BF16
    /// storage fails the paper's accuracy tolerances (see the accuracy
    /// harness's ablation rows).
    ///
    /// # Errors
    /// DRAM exhaustion.
    ///
    /// # Panics
    /// Same contract as [`DeviceForcePipeline::new`].
    pub fn new_with_format(
        device: Arc<Device>,
        n: usize,
        eps: f64,
        num_cores: usize,
        format: DataFormat,
    ) -> Result<Self> {
        Self::build(device, n, eps, num_cores, format, ForceKernelKind::Elementwise)
    }

    /// Build the FP32 pipeline with an explicit force-kernel formulation
    /// (see [`ForceKernelKind`]). The matrix kernel's FP32 cross matmuls
    /// are what keep the r² decomposition free of catastrophic
    /// cancellation, while its W/G accumulation matmuls quantize to BF16
    /// internally.
    ///
    /// # Errors
    /// DRAM exhaustion.
    ///
    /// # Panics
    /// Same contract as [`DeviceForcePipeline::new`].
    pub fn new_with_kernel(
        device: Arc<Device>,
        n: usize,
        eps: f64,
        num_cores: usize,
        kind: ForceKernelKind,
    ) -> Result<Self> {
        Self::build(device, n, eps, num_cores, DataFormat::Float32, kind)
    }

    fn build(
        device: Arc<Device>,
        n: usize,
        eps: f64,
        num_cores: usize,
        format: DataFormat,
        kind: ForceKernelKind,
    ) -> Result<Self> {
        assert!(n > 0, "empty system");
        assert!(eps > 0.0, "device force kernel requires softening > 0");
        let grid = device.grid();
        assert!(
            num_cores > 0 && num_cores <= grid.num_cores(),
            "core count {num_cores} outside 1..={}",
            grid.num_cores()
        );
        let num_chunks = match kind {
            ForceKernelKind::Elementwise => 1,
            ForceKernelKind::Matrix => matrix_chunks(kind.work_units(n)).len(),
        };
        let card = Card::build(&device, n, eps, num_cores, format, kind, num_chunks)?;

        Ok(DeviceForcePipeline {
            device,
            n,
            eps,
            num_cores,
            format,
            kind,
            num_chunks,
            card: Mutex::new(card),
            timing: Mutex::new(PipelineTiming::default()),
            retired: Mutex::new(PipelineTiming::default()),
            last_report: Mutex::new(None),
        })
    }

    /// The device this pipeline runs on.
    #[must_use]
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// Particle count the pipeline was built for.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Softening length.
    #[must_use]
    pub fn softening(&self) -> f64 {
        self.eps
    }

    /// Number of Tensix cores in use.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Storage format of the pipeline's buffers and CBs.
    #[must_use]
    pub fn format(&self) -> DataFormat {
        self.format
    }

    /// Which force-kernel formulation the program runs.
    #[must_use]
    pub fn kernel_kind(&self) -> ForceKernelKind {
        self.kind
    }

    /// How a launch of `targets` particles is cut into work units on this
    /// card; see [`LaunchSizing`].
    #[must_use]
    pub fn sizing(&self, targets: usize) -> LaunchSizing {
        LaunchSizing::of(self.kind, targets, self.num_cores)
    }

    /// Accumulated timing: the incarnations retired by card loss
    /// ⊕ the current one.
    #[must_use]
    pub fn timing(&self) -> PipelineTiming {
        let retired = self.retired.lock();
        let mut t = *retired;
        t.absorb(*self.timing.lock());
        t
    }

    /// Absorb a card loss in place: reset the card, rebuild the buffers,
    /// program and command queue with the same n, eps, cores, format and
    /// kernel kind, and retire the lost incarnation's timing so
    /// [`Self::timing`] carries it forward. Inputs are rewritten on every
    /// launch, so the next launch computes exactly what the lost one would
    /// have.
    ///
    /// # Errors
    /// The original `cause` unless it is a card loss; otherwise the reset
    /// or rebuild failure, leaving the accounting untouched.
    pub fn recover_device_loss(&self, cause: LaunchError) -> std::result::Result<(), LaunchError> {
        if !cause.is_card_loss() {
            return Err(cause);
        }
        let mut card = self.card.lock();
        self.device.reset()?;
        *card = Card::build(
            &self.device,
            self.n,
            self.eps,
            self.num_cores,
            self.format,
            self.kind,
            self.num_chunks,
        )?;
        let mut retired = self.retired.lock();
        retired.absorb(std::mem::take(&mut *self.timing.lock()));
        Ok(())
    }

    /// Per-kernel timings and per-CB statistics of the most recent
    /// *successful* launch, or `None` before the first evaluation. For a
    /// retried evaluation this is the final (landing) attempt — possibly a
    /// partial-redo slice covering only the faulted cores' tile ranges.
    #[must_use]
    pub fn last_launch_report(&self) -> Option<ProgramReport> {
        self.last_report.lock().clone()
    }

    /// The one launch path: forces and jerks on the `active` targets
    /// against **all** `n` sources, driven to completion under `policy`.
    /// Row `k` of the result is the force on `active.indices()[k]`; full-N
    /// evaluation is the [`ActiveSet::full`] case.
    ///
    /// Every set, full or not, is dynamic packing: the active particles are
    /// gathered into dense work units of the launch's [`LaunchSizing`] —
    /// zero-mass-padded tiles or half tiles for the elementwise kernel,
    /// 32-particle blocks for the matrix kernel — whose pad lanes park at
    /// the padding position. The source view stays all `n` particles, and
    /// the launch is a slice of the card's template program over the Fig. 2
    /// split of the *active* unit count — `min(num_cores, units)` cores, each
    /// with its own runtime args — so a small block costs a small launch and
    /// idle cores launch nothing. Per-target source summation order is
    /// unchanged by the gather. The matrix kernel's self-pair damping rides
    /// in the runtime args as the launch's [`crate::layout::DampingPlan`];
    /// it adds exactly `+0.0` off the self-pairs, and the matmuls and Kahan
    /// folds are row-independent, so on both kernels each active row is
    /// f32-bitwise identical to the corresponding row of a full evaluation.
    ///
    /// Inputs are written once — DRAM survives a failed launch while the
    /// card stays on the bus — and timing counts exactly one evaluation per
    /// *successful* attempt, so a retried evaluation never double-counts
    /// device work. Transient faults retry up to `policy.max_retries` times,
    /// the backoff billed as wasted device time. With
    /// [`RetryPolicy::partial_redo`] set, a retryable fault's
    /// completed-range inventory is validated against the launched
    /// `(core, start, count)` ranges: surviving cores' finished tiles are
    /// kept (billed as `busy_cycles`), the failed attempt's discarded share
    /// is billed as `wasted_cycles`, and only the incomplete cores re-launch
    /// with their window advanced past the delivered prefix — tracked in
    /// `redo_cycles`/`partial_redos`. An invalid inventory (a watermark past
    /// the remaining range) falls back to a full re-run, moving everything
    /// kept so far into the wasted bucket; a terminal failure takes the
    /// same discard step and returns. Device loss is never retried here:
    /// the DRAM buffers died with the card, so it goes to
    /// [`Self::recover_device_loss`]. Every exit, failed or not, records
    /// the PCIe time the launch's transfers took.
    ///
    /// # Errors
    /// The final [`LaunchError`] when the retry budget is exhausted or the
    /// fault is not transient.
    ///
    /// # Panics
    /// Panics if `system.len()` or `active.n()` differs from the pipeline's
    /// `n`.
    pub(crate) fn launch(
        &self,
        system: &ParticleSystem,
        active: &ActiveSet,
        policy: RetryPolicy,
    ) -> std::result::Result<Forces, LaunchError> {
        assert_eq!(system.len(), self.n, "pipeline built for n = {}", self.n);
        assert_eq!(active.n(), self.n, "active set built for n = {}", active.n());
        if active.is_empty() {
            return Ok(Forces::zeros(0));
        }
        let mut card = self.card.lock();
        let result = self.drive(&mut card, system, active, policy);
        // Every exit bills the PCIe traffic it caused, a failed one too:
        // card-loss recovery replaces the queue and its ledger.
        self.timing.lock().io_seconds = card.queue.io_seconds();
        result
    }

    /// [`Self::launch`] on the locked `card`: write the inputs, then run
    /// attempts until one lands or the failure is terminal.
    fn drive(
        &self,
        card: &mut Card,
        system: &ParticleSystem,
        active: &ActiveSet,
        policy: RetryPolicy,
    ) -> std::result::Result<Forces, LaunchError> {
        let sizing = self.sizing(active.len());
        let plan = self.write_inputs(card, system, active, sizing)?;
        let ranges = self.active_ranges(sizing);
        let program = self.program_slice(&card.program, &ranges, &plan);

        // Tiles already delivered per core (across attempts); kept work of
        // failed attempts, to be billed only when an attempt finally lands.
        let mut done: Vec<u64> = vec![0; ranges.len()];
        let mut kept_busy_cycles = 0u64;
        let mut kept_redo_cycles = 0u64;
        let mut kept_seconds = 0.0f64;
        let mut kept_redo_seconds = 0.0f64;
        // Slowest compute instance's (total, matrix-pipe, vector-pipe) cycles
        // over the attempts whose work the landing result keeps.
        let mut max_fc = [0u64; 3];
        let mut attempt = 0u32;
        let mut redo: Option<Program> = None;

        loop {
            let is_redo = redo.is_some();
            let e = match card.queue.enqueue_program(redo.as_ref().unwrap_or(&program)) {
                Ok(report) => {
                    let cycles: u64 = report.timings.iter().map(|k| k.cycles).sum();
                    max_fc = max_compute_cycles(max_fc, &report.timings);
                    let forces = self.read_forces(card, active, sizing)?;
                    let mut t = self.timing.lock();
                    t.device_seconds += kept_seconds + report.seconds;
                    t.busy_cycles += kept_busy_cycles + cycles;
                    t.redo_cycles += kept_redo_cycles + if is_redo { cycles } else { 0 };
                    t.redo_seconds +=
                        kept_redo_seconds + if is_redo { report.seconds } else { 0.0 };
                    t.evaluations += 1;
                    [t.last_eval_cycles, t.last_matrix_cycles, t.last_vector_cycles] = max_fc;
                    drop(t);
                    *self.last_report.lock() = Some(report);
                    return Ok(forces);
                }
                Err(e) => e,
            };
            let failed = card.queue.take_last_failure();
            let timings = failed.as_ref().map_or(&[][..], |f| &f.timings[..]);
            let cycles: u64 = timings.iter().map(|k| k.cycles).sum();
            let seconds = failed.as_ref().map_or(0.0, |f| f.seconds);
            let retry = e.is_transient() && attempt < policy.max_retries;
            let salvage = if retry && policy.partial_redo {
                salvage_attempt(&ranges, e.completed_work(), &done)
            } else {
                None
            };
            let mut t = self.timing.lock();
            if retry {
                if let Some(sink) = self.device.trace_sink().filter(|s| s.enabled()) {
                    sink.host_instant(
                        "retry",
                        &[
                            ("attempt", u64::from(attempt)),
                            ("partial", u64::from(salvage.is_some())),
                        ],
                    );
                }
                t.retries += 1;
                // The backoff wait is dead time on the device: charge it to
                // the wasted bucket as well as the backoff ledger.
                let backoff = policy.backoff_s(attempt);
                t.retry_backoff_seconds += backoff;
                t.wasted_seconds += backoff;
                attempt += 1;
            }
            let Some(fresh) = salvage else {
                // A full re-run, or the end of the call: this attempt and
                // everything kept from earlier attempts is discarded work.
                t.wasted_cycles += cycles + kept_busy_cycles;
                t.wasted_seconds += seconds + kept_seconds;
                drop(t);
                if !retry {
                    return Err(e);
                }
                kept_busy_cycles = 0;
                kept_redo_cycles = 0;
                kept_seconds = 0.0;
                kept_redo_seconds = 0.0;
                max_fc = [0; 3];
                done.iter_mut().for_each(|d| *d = 0);
                redo = None;
                continue;
            };
            // Keep survivors' finished tiles: split the attempt's cycles by
            // each core's delivered fraction of its remaining range.
            let grid = self.device.grid();
            let mut kept = 0u64;
            for k in timings {
                let frac = ranges
                    .iter()
                    .position(|(core, _, _)| grid.index_of(*core) == k.core_index)
                    .map_or(0.0, |i| delivered_frac(ranges[i].2, fresh[i], done[i]));
                kept += scale_cycles(k.cycles, frac);
            }
            let kept_frac = if cycles > 0 { kept as f64 / cycles as f64 } else { 0.0 };
            t.wasted_cycles += cycles - kept;
            t.wasted_seconds += seconds * (1.0 - kept_frac);
            t.partial_redos += 1;
            drop(t);
            max_fc = max_compute_cycles(max_fc, timings);
            kept_busy_cycles += kept;
            kept_seconds += seconds * kept_frac;
            if is_redo {
                kept_redo_cycles += kept;
                kept_redo_seconds += seconds * kept_frac;
            }
            for (d, f) in done.iter_mut().zip(&fresh) {
                *d += f;
            }
            // Re-launch only the incomplete cores, each window advanced past
            // its delivered prefix.
            let remaining: Vec<(CoreCoord, usize, usize)> = ranges
                .iter()
                .zip(&done)
                .filter(|((_, _, count), d)| **d < *count as u64)
                .map(|(&(core, start, count), &d)| (core, start + d as usize, count - d as usize))
                .collect();
            redo = Some(self.program_slice(&card.program, &remaining, &plan));
        }
    }

    /// The launch's `(core, start, count)` ranges: the first `sizing.cores`
    /// cores of the Fig. 2 split over the launch's work units — the launch
    /// grid is sized by the work that exists, not by `n`.
    fn active_ranges(&self, sizing: LaunchSizing) -> Vec<(CoreCoord, usize, usize)> {
        let width = self.device.grid().x;
        split_tiles_to_cores(sizing.units, sizing.cores)
            .into_iter()
            .enumerate()
            .map(|(i, (start, count))| (CoreCoord::new(i % width, i / width), start, count))
            .collect()
    }

    /// The card's template `program` restricted to `ranges`' cores, each
    /// core's runtime args set to its `[start, count, n]` window followed
    /// by the launch's `plan` args (the matrix damping plan; the unit's
    /// tile rows for elementwise).
    fn program_slice(
        &self,
        program: &Program,
        ranges: &[(CoreCoord, usize, usize)],
        plan: &[u32],
    ) -> Program {
        let cores: Vec<CoreCoord> = ranges.iter().map(|&(core, _, _)| core).collect();
        let mut slice = program.slice_for_cores(&cores);
        for &(core, start, count) in ranges {
            slice.set_runtime_args_all_kernels(core, launch_args(start, count, self.n, plan));
        }
        slice
    }

    /// Tilize the FP64 state and ship it to DRAM: the `active` targets into
    /// the target buffers' leading pages and the source view of all `n`
    /// particles. Elementwise: the six target views, one page per work unit
    /// of `sizing`, and the packed source view. Matrix: the four target
    /// views of the ⌈|A|/32⌉ gathered blocks, the seven source views, and
    /// the launch's distinct damping pages — each view built, written and
    /// dropped before the next, so host memory holds one view at a time.
    /// Returns the launch's plan args (see [`Self::program_slice`]).
    fn write_inputs(
        &self,
        card: &mut Card,
        system: &ParticleSystem,
        active: &ActiveSet,
        sizing: LaunchSizing,
    ) -> std::result::Result<Vec<u32>, LaunchError> {
        let arrays = HostArrays::from_system(system);
        gather_active_targets(&arrays, active.indices(), &mut card.targets);
        let targets = &card.targets;
        match self.kind {
            ForceKernelKind::Elementwise => {
                let rows = sizing.tile_rows();
                for (buf, tiles) in card.target_bufs.iter().zip(&tilize_targets(targets, rows)) {
                    card.queue.enqueue_write_buffer(buf, tiles)?;
                }
                for (buf, tiles) in card.source_bufs.iter().zip(&tilize_sources(&arrays)) {
                    card.queue.enqueue_write_buffer(buf, tiles)?;
                }
                Ok(vec![rows as u32])
            }
            ForceKernelKind::Matrix => {
                let eps2 = (self.eps * self.eps) as f32;
                for (view, buf) in card.target_bufs.iter().enumerate() {
                    card.queue.enqueue_write_buffer(buf, &matrix_target_view(targets, view))?;
                }
                for (view, buf) in card.source_bufs[..7].iter().enumerate() {
                    let pages = matrix_source_view(&arrays, eps2, view);
                    card.queue.enqueue_write_buffer(buf, &pages)?;
                }
                let plan = damping_plan(active.indices());
                card.queue.enqueue_write_buffer(&card.source_bufs[7], &plan.pages)?;
                Ok(plan.args)
            }
        }
    }

    /// Read the `active` rows back into FP64 forces. Elementwise: the
    /// launch's unit pages of the six per-axis acc/jerk buffers — only
    /// those cross PCIe — un-tilized from each page's top `tile_rows` rows
    /// and promoted. Matrix: the gathered blocks' `num_chunks` partial
    /// pages of the two moment-sum buffers, combined on the host in
    /// compensated FP64 against the gathered targets (see
    /// [`Self::combine_moments`]).
    fn read_forces(
        &self,
        card: &mut Card,
        active: &ActiveSet,
        sizing: LaunchSizing,
    ) -> std::result::Result<Forces, LaunchError> {
        match self.kind {
            ForceKernelKind::Elementwise => {
                let len = active.len();
                let mut result_tiles: Vec<Vec<Tile>> = Vec::with_capacity(6);
                for buf in &card.output_bufs {
                    result_tiles.push(card.queue.enqueue_read_pages(buf, sizing.units)?);
                }
                let unpack = |tiles: &[Tile]| unpack_vector_rows(tiles, sizing.tile_rows(), len);
                let mut forces = Forces::zeros(len);
                for axis in 0..3 {
                    let acc = unpack(&result_tiles[axis]);
                    let jerk = unpack(&result_tiles[3 + axis]);
                    for i in 0..len {
                        forces.acc[i][axis] = f64::from(acc[i]);
                        forces.jerk[i][axis] = f64::from(jerk[i]);
                    }
                }
                Ok(forces)
            }
            ForceKernelKind::Matrix => {
                let pages = sizing.units * self.num_chunks;
                let w_tiles = card.queue.enqueue_read_pages(&card.output_bufs[0], pages)?;
                let g_tiles = card.queue.enqueue_read_pages(&card.output_bufs[1], pages)?;
                Ok(self.combine_moments(&card.targets, &w_tiles, &g_tiles))
            }
        }
    }

    /// The matrix kernel's host-side finish: fold the per-chunk moment sums
    /// of the gathered target blocks into accelerations and jerks in FP64,
    /// row `i` being gathered target `i`.
    ///
    /// The device returns, per target row `i` of each `(block, chunk)` tile
    /// pair, the seven W-moments `[Σ W r_j | Σ W v_j | Σ W]` and the G-tile's
    /// `[Σ G r_j | · | Σ G]` (columns 0‑2, 3‑5, 6). The host completes
    ///
    /// ```text
    /// acc_i  = Σ W r_j − r̃_i Σ W
    /// jerk_i = (Σ W v_j − ṽ_i Σ W) − (Σ G r_j − r̃_i Σ G)
    /// ```
    ///
    /// where `r̃_i = hi + lo`, `ṽ_i` likewise are the target coordinates
    /// passed through the same [`bf16_split`] the device's hi/lo `SRC_ATTR`
    /// pages carry — the exact values the accumulate matmuls multiplied
    /// into the moments, so the subtraction is consistent to the split's
    /// ~16 mantissa bits. Chunk partials are summed in FP64; the rounding
    /// left is the device's own FP32 accumulate plus the BF16 quantization
    /// of W and G (the accuracy-bound test budgets exactly that).
    fn combine_moments(&self, arrays: &HostArrays, w_tiles: &[Tile], g_tiles: &[Tile]) -> Forces {
        let mut forces = Forces::zeros(arrays.n);
        for i in 0..arrays.n {
            let (block, row) = (i / MATRIX_BLOCK, i % MATRIX_BLOCK);
            let mut m = [0.0f64; ATTR_COLS]; // W-moments: Σ W r | Σ W v | Σ W
            let mut g = [0.0f64; ATTR_COLS]; // G-moments: Σ G r | unused | Σ G
            for c in 0..self.num_chunks {
                let wt = &w_tiles[block * self.num_chunks + c];
                let gt = &g_tiles[block * self.num_chunks + c];
                for (k, acc) in m.iter_mut().enumerate() {
                    *acc += f64::from(wt.get(row, k));
                }
                for (k, acc) in g.iter_mut().enumerate() {
                    *acc += f64::from(gt.get(row, k));
                }
            }
            let sum_w = m[6];
            let sum_g = g[6];
            for axis in 0..3 {
                let (rh, rl) = bf16_split(arrays.pos[axis][i]);
                let (vh, vl) = bf16_split(arrays.vel[axis][i]);
                let rq = f64::from(rh) + f64::from(rl);
                let vq = f64::from(vh) + f64::from(vl);
                forces.acc[i][axis] = m[axis] - rq * sum_w;
                forces.jerk[i][axis] = (m[3 + axis] - vq * sum_w) - (g[axis] - rq * sum_g);
            }
        }
        forces
    }
}

/// Pages an elementwise target or result buffer needs: the most work units
/// any launch of at most `n` targets has. Whole tiles peak at the full set;
/// half tiles at the largest set that takes them, `min(n, 512 C)` targets.
fn unit_capacity(n: usize, num_cores: usize) -> usize {
    let units = |targets| LaunchSizing::of(ForceKernelKind::Elementwise, targets, num_cores).units;
    units(n).max(units(n.min(num_cores * HALF_TILE_TARGETS)))
}

/// Validate a failed attempt's completed-range inventory against the
/// launched `ranges`. Returns the per-range *freshly* delivered tile counts
/// of this attempt when every watermark is trustworthy (covers each core
/// and stays within its remaining range), `None` otherwise.
fn salvage_attempt(
    ranges: &[(CoreCoord, usize, usize)],
    inventory: &[ttmetal::CoreProgress],
    done: &[u64],
) -> Option<Vec<u64>> {
    if inventory.is_empty() {
        return None;
    }
    let mut fresh = vec![0u64; ranges.len()];
    for (i, (core, _, count)) in ranges.iter().enumerate() {
        let remaining = *count as u64 - done[i];
        if remaining == 0 {
            // Core finished in an earlier attempt; it was not part of
            // this launch, so no watermark is expected.
            continue;
        }
        let delivered = inventory.iter().find(|pr| pr.core == *core)?.completed;
        if delivered > remaining {
            return None; // watermark past a tile boundary we own
        }
        fresh[i] = delivered;
    }
    Some(fresh)
}

/// Fraction of a core's work in a failed attempt that was delivered:
/// `fresh / remaining` of its `count`-tile range with `done` tiles landed
/// before the attempt.
fn delivered_frac(count: usize, fresh: u64, done: u64) -> f64 {
    let remaining = count as u64 - done;
    if remaining == 0 {
        return 0.0;
    }
    fresh as f64 / remaining as f64
}

/// Fold `timings` into the running per-field max of force-compute
/// (total, matrix-pipe, vector-pipe) cycles — the slowest core.
fn max_compute_cycles(acc: [u64; 3], timings: &[tensix::clock::KernelTiming]) -> [u64; 3] {
    timings
        .iter()
        .filter(|k| k.label == "force-compute")
        .fold(acc, |[c, m, v], k| [c.max(k.cycles), m.max(k.matrix_cycles), v.max(k.vector_cycles)])
}

/// `cycles * frac`, rounded, saturating at `cycles`.
fn scale_cycles(cycles: u64, frac: f64) -> u64 {
    ((cycles as f64 * frac).round() as u64).min(cycles)
}

/// Assemble the elementwise force program's template: `format` CBs and
/// the reader/compute/writer trio on every core of `cores`.
fn build_program(
    cores: &CoreRangeSet,
    targets: &[Buffer],
    sources: &[Buffer],
    outputs: &[Buffer],
    eps: f64,
    format: DataFormat,
) -> Program {
    let f = format;
    let mut program = Program::new();
    program.add_circular_buffer(cores.clone(), IN0, CircularBufferConfig::new(6, f));
    program.add_circular_buffer(cores.clone(), IN1, CircularBufferConfig::new(14, f));
    program.add_circular_buffer(cores.clone(), INTERMED0, CircularBufferConfig::new(6, f));
    program.add_circular_buffer(cores.clone(), INTERMED1, CircularBufferConfig::new(2, f));
    program.add_circular_buffer(cores.clone(), INTERMED2, CircularBufferConfig::new(12, f));
    program.add_circular_buffer(cores.clone(), OUT0, CircularBufferConfig::new(12, f));

    program.add_data_movement_kernel(
        "reader",
        cores.clone(),
        NocId::Noc0,
        Arc::new(ReaderKernel {
            targets: std::array::from_fn(|i| targets[i].reference()),
            sources: std::array::from_fn(|i| sources[i].reference()),
        }),
    );
    program.add_compute_kernel(
        "force-compute",
        cores.clone(),
        f,
        Arc::new(ForceComputeKernel { eps_squared: (eps * eps) as f32 }),
    );
    program.add_data_movement_kernel(
        "writer",
        cores.clone(),
        NocId::Noc1,
        Arc::new(WriterKernel { outputs: std::array::from_fn(|i| outputs[i].reference()) }),
    );
    program
}

/// Assemble the matrix-pipe force program's template: FP32 operand CBs
/// sized for groups of [`MATRIX_GROUP_BLOCKS`] target blocks, and BF16 CBs
/// for the quantized W/G and `SRC_ATTR` pages feeding the full-rate
/// accumulate matmuls. Each launch's args count 32-particle *blocks* and
/// carry its damping plan.
fn build_matrix_program(
    cores: &CoreRangeSet,
    targets: &[Buffer],
    sources: &[Buffer],
    outputs: &[Buffer],
    eps: f64,
    num_chunks: usize,
) -> Program {
    let f32f = DataFormat::Float32;
    let bf16 = DataFormat::Float16b;
    let group = MATRIX_GROUP_BLOCKS;
    let mut program = Program::new();
    // IN0: 4 target-operand pages per block (A_POS, A_VEL, COL_R2, COL_RV),
    // for two groups: the next group's targets land while one is computed.
    program.add_circular_buffer(cores.clone(), IN0, CircularBufferConfig::new(8 * group, f32f));
    // IN1: 5 FP32 source pages per source block, read once per group.
    program.add_circular_buffer(cores.clone(), IN1, CircularBufferConfig::new(10, f32f));
    // IN2: the BF16 SRC_ATTR hi/lo pages (the CB quantizes each page read).
    program.add_circular_buffer(cores.clone(), IN2, CircularBufferConfig::new(4, bf16));
    // IN3: the FP32 damping page in use, held until the plan moves on.
    program.add_circular_buffer(cores.clone(), IN3, CircularBufferConfig::new(1, f32f));
    // INTERMED0: W and G, quantized to BF16 on pack for the matrix pipe.
    program.add_circular_buffer(cores.clone(), INTERMED0, CircularBufferConfig::new(4, bf16));
    // INTERMED1: FP32 W/G staging for the hi/lo residual pass.
    program.add_circular_buffer(cores.clone(), INTERMED1, CircularBufferConfig::new(2, f32f));
    // INTERMED2: the FP32 moment-accumulator ring — (W-moments, G-moments)
    // plus their Kahan compensation tiles (cW, cG) — one set per group
    // member and room for the member's next set.
    program.add_circular_buffer(
        cores.clone(),
        INTERMED2,
        CircularBufferConfig::new(4 * group + 4, f32f),
    );
    program.add_circular_buffer(cores.clone(), OUT0, CircularBufferConfig::new(4, f32f));

    program.add_data_movement_kernel(
        "reader",
        cores.clone(),
        NocId::Noc0,
        Arc::new(MatrixReaderKernel {
            targets: [
                targets[0].reference(),
                targets[1].reference(),
                targets[2].reference(),
                targets[3].reference(),
            ],
            sources: [
                sources[0].reference(),
                sources[1].reference(),
                sources[2].reference(),
                sources[3].reference(),
                sources[4].reference(),
                sources[5].reference(),
                sources[6].reference(),
            ],
            diag: sources[7].reference(),
        }),
    );
    program.add_compute_kernel(
        "force-compute",
        cores.clone(),
        f32f,
        Arc::new(MatrixForceComputeKernel { eps_squared: (eps * eps) as f32 }),
    );
    program.add_data_movement_kernel(
        "writer",
        cores.clone(),
        NocId::Noc1,
        Arc::new(MatrixWriterKernel {
            outputs: [outputs[0].reference(), outputs[1].reference()],
            num_chunks,
        }),
    );
    program
}

/// One core's runtime args: its `[start, count, n]` window, then `plan`.
fn launch_args(start: usize, count: usize, n: usize, plan: &[u32]) -> Arc<[u32]> {
    [start as u32, count as u32, n as u32].into_iter().chain(plan.iter().copied()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::ForceEvaluator;
    use nbody::accuracy::compare_forces;
    use nbody::force::{ForceKernel, ReferenceKernel};
    use nbody::ic::{plummer, PlummerConfig};
    use tensix::DeviceConfig;

    fn device() -> Arc<Device> {
        Device::new(0, DeviceConfig::default())
    }

    #[test]
    fn single_tile_cluster_matches_golden() {
        let sys = plummer(PlummerConfig { n: 96, seed: 90, ..PlummerConfig::default() });
        let eps = 0.01;
        let pipeline = DeviceForcePipeline::new(device(), sys.len(), eps, 1).unwrap();
        let dev = pipeline.evaluate_checked(&sys).unwrap();
        let golden = ReferenceKernel::new(eps).compute(&sys);
        let cmp = compare_forces(&golden, &dev);
        assert!(
            cmp.passes(),
            "acc err {:.2e}, jerk err {:.2e}",
            cmp.max_acc_error,
            cmp.max_jerk_error
        );
        let t = pipeline.timing();
        assert_eq!(t.evaluations, 1);
        assert!(t.device_seconds > 0.0);
        assert!(t.last_eval_cycles > 0);
    }

    #[test]
    fn multi_core_multi_tile_matches_golden() {
        // 3 target tiles over 2 cores: exercises the Fig. 2 distribution.
        let n = 2048 + 512;
        let sys = plummer(PlummerConfig { n, seed: 91, ..PlummerConfig::default() });
        let eps = 0.02;
        let pipeline = DeviceForcePipeline::new(device(), n, eps, 2).unwrap();
        let dev = pipeline.evaluate_checked(&sys).unwrap();
        let golden = ReferenceKernel::new(eps).compute(&sys);
        let cmp = compare_forces(&golden, &dev);
        assert!(
            cmp.passes(),
            "acc err {:.2e}, jerk err {:.2e}",
            cmp.max_acc_error,
            cmp.max_jerk_error
        );
    }

    #[test]
    fn packed_source_view_moves_nineteen_pages_per_tile() {
        // Per target tile, one evaluation ships 6 target and 7 packed source
        // pages up and 6 result pages down: the perf model's packed data
        // path, not the paper's 7 n replicated source pages.
        // On the device, the reader moves 6 target and 7·⌈n/1024⌉ source
        // pages per target tile over the NoC; DRAM serves those reads plus
        // the 6 result pages per tile of the host readback.
        let model = crate::perf_model::WormholePerfModel::default();
        let page = DataFormat::Float32.tile_bytes() as u64;
        let mut traffic = Vec::new();
        for n in [1025, 2048] {
            let sys = plummer(PlummerConfig { n, seed: 122, ..PlummerConfig::default() });
            let dev = device();
            let pipeline = DeviceForcePipeline::new(Arc::clone(&dev), n, 0.01, 1).unwrap();
            let noc_reads =
                || dev.noc().read_bytes(NocId::Noc0) + dev.noc().read_bytes(NocId::Noc1);
            let dram_reads = || dev.dram().stats().read_bytes.iter().sum::<u64>();
            let (noc0, dram0) = (noc_reads(), dram_reads());
            pipeline.evaluate_checked(&sys).unwrap();
            let (io, modeled) = (pipeline.timing().io_seconds, model.io_seconds_optimized(n));
            assert!((io - modeled).abs() <= 1e-12 * modeled, "n = {n}: io {io} vs {modeled}");
            let tiles = n.div_ceil(TILE_ELEMS) as u64;
            let reader_pages = tiles * (6 + 7 * tiles);
            assert_eq!(noc_reads() - noc0, reader_pages * page, "n = {n}: NoC read bytes");
            assert_eq!(
                dram_reads() - dram0,
                (reader_pages + 6 * tiles) * page,
                "n = {n}: DRAM read bytes"
            );
            traffic.push((dev.noc().total_bytes(), dev.dram().stats().total_bytes()));
        }
        // Both sizes fill two tiles, so they move the same bytes: the source
        // stream scales with tiles, not particles.
        assert_eq!(traffic[0], traffic[1]);
    }

    #[test]
    fn matrix_source_pages_cross_once_per_target_group() {
        // N = 1024 on 2 cores: 32 target blocks, 16 per core, so 2 groups
        // of 8 per core. The reader moves each target block's 4 pages once,
        // all 32 source blocks' 7 pages once per group and, on a full
        // launch, the one damping page once per core. DRAM also serves the
        // host readback: 8 chunk partials of both moment buffers per block.
        let (n, cores) = (1024, 2);
        let sys = plummer(PlummerConfig { n, seed: 124, ..PlummerConfig::default() });
        let dev = device();
        let pipeline = DeviceForcePipeline::new_with_kernel(
            Arc::clone(&dev),
            n,
            0.01,
            cores,
            ForceKernelKind::Matrix,
        )
        .unwrap();
        let noc_reads = || dev.noc().read_bytes(NocId::Noc0) + dev.noc().read_bytes(NocId::Noc1);
        let dram_reads = || dev.dram().stats().read_bytes.iter().sum::<u64>();
        let (noc0, dram0) = (noc_reads(), dram_reads());
        pipeline.evaluate_checked(&sys).unwrap();

        let (blocks, per_core, chunks): (usize, usize, usize) = (32, 16, 8);
        let groups = cores * per_core.div_ceil(MATRIX_GROUP_BLOCKS);
        let page = DataFormat::Float32.tile_bytes();
        let kernel_pages = 4 * blocks + 7 * blocks * groups + cores;
        assert_eq!(noc_reads() - noc0, (kernel_pages * page) as u64);
        assert_eq!(dram_reads() - dram0, ((kernel_pages + 2 * blocks * chunks) * page) as u64);
    }

    #[test]
    fn subset_readback_moves_only_the_launched_pages() {
        // At n = 2048 on one core a 100-particle subset is one whole tile:
        // 6 target and 14 source pages go up, and only the tile's 6 result
        // pages come down, not all 12 pages of the result buffers.
        let n = 2048;
        let sys = plummer(PlummerConfig { n, seed: 123, ..PlummerConfig::default() });
        let pipeline = DeviceForcePipeline::new(device(), n, 0.01, 1).unwrap();
        let active = ActiveSet::from_indices((0..100).map(|i| i * 20).collect(), n);
        pipeline.evaluate_active(&sys, &active).unwrap();
        let page = DataFormat::Float32.tile_bytes() as f64 / ttmetal::PCIE_BYTES_PER_S;
        let (io, want) = (pipeline.timing().io_seconds, 26.0 * page);
        assert!((io - want).abs() <= 1e-12 * want, "io {io} vs 26 pages {want}");
    }

    #[test]
    fn matrix_kernel_matches_golden() {
        let sys = plummer(PlummerConfig { n: 96, seed: 90, ..PlummerConfig::default() });
        let eps = 0.01;
        let pipeline = DeviceForcePipeline::new_with_kernel(
            device(),
            sys.len(),
            eps,
            1,
            ForceKernelKind::Matrix,
        )
        .unwrap();
        assert_eq!(pipeline.kernel_kind(), ForceKernelKind::Matrix);
        assert_eq!(pipeline.sizing(96).unit_particles, 32);
        let dev = pipeline.evaluate_checked(&sys).unwrap();
        let golden = ReferenceKernel::new(eps).compute(&sys);
        let cmp = compare_forces(&golden, &dev);
        assert!(
            cmp.passes(),
            "acc err {:.2e}, jerk err {:.2e}",
            cmp.max_acc_error,
            cmp.max_jerk_error
        );
        let t = pipeline.timing();
        assert_eq!(t.evaluations, 1);
        assert!(t.last_matrix_cycles > 0, "matrix kernel must charge the matrix pipe");
        assert!(t.last_vector_cycles > 0, "SFPU rsqrt chain must charge the vector pipe");

        // The retry driver bills a landing launch exactly like the plain
        // evaluation: same forces, same per-pipe split, same every counter.
        let twin = DeviceForcePipeline::new_with_kernel(
            device(),
            sys.len(),
            eps,
            1,
            ForceKernelKind::Matrix,
        )
        .unwrap();
        let retried = twin.evaluate_with_retry(&sys, RetryPolicy::disabled()).unwrap();
        assert_eq!(retried.acc, dev.acc);
        assert_eq!(twin.timing(), t);
    }

    #[test]
    fn matrix_kernel_multi_core_multi_block() {
        // 3 target tiles' worth of blocks over 2 cores, n not a multiple of
        // 32: exercises padding, chunking and the block-unit outer split.
        // Tolerances are 2× the paper's: the decomposed quadratic forms
        // (s² and d·dv from |r|²/r·v moments) amplify FP32 rounding by
        // ~|r|²/s² at the closest pairs — the matrix formulation's
        // systematic cost, budgeted precisely by the accuracy-bound test.
        // (Was 5× before the moment accumulators grew Kahan compensation.)
        let n = 2048 + 500;
        let sys = plummer(PlummerConfig { n, seed: 91, ..PlummerConfig::default() });
        let eps = 0.02;
        let pipeline =
            DeviceForcePipeline::new_with_kernel(device(), n, eps, 2, ForceKernelKind::Matrix)
                .unwrap();
        let dev = pipeline.evaluate_checked(&sys).unwrap();
        let golden = ReferenceKernel::new(eps).compute(&sys);
        let cmp = compare_forces(&golden, &dev);
        assert!(
            cmp.max_acc_error <= 2.0 * nbody::accuracy::ACC_TOLERANCE
                && cmp.max_jerk_error <= 2.0 * nbody::accuracy::JERK_TOLERANCE,
            "acc err {:.2e}, jerk err {:.2e}",
            cmp.max_acc_error,
            cmp.max_jerk_error
        );
    }

    #[test]
    fn bf16_storage_fails_paper_tolerances() {
        // The precision ablation behind the paper's FP32 choice: with BF16
        // tiles (7-bit mantissas) the force errors blow two orders past the
        // 0.05 % tolerance.
        let sys = plummer(PlummerConfig { n: 128, seed: 94, ..PlummerConfig::default() });
        let eps = 0.01;
        let fp32 = DeviceForcePipeline::new(device(), 128, eps, 1).unwrap();
        let bf16 =
            DeviceForcePipeline::new_with_format(device(), 128, eps, 1, DataFormat::Float16b)
                .unwrap();
        assert_eq!(bf16.format(), DataFormat::Float16b);
        let golden = ReferenceKernel::new(eps).compute(&sys);
        let cmp32 = compare_forces(&golden, &fp32.evaluate_checked(&sys).unwrap());
        let cmp16 = compare_forces(&golden, &bf16.evaluate_checked(&sys).unwrap());
        assert!(cmp32.passes());
        assert!(
            !cmp16.passes(),
            "BF16 must fail the paper tolerance (acc err {:.2e})",
            cmp16.max_acc_error
        );
        assert!(cmp16.max_acc_error > 20.0 * cmp32.max_acc_error);
    }

    #[test]
    fn transient_fault_is_retried_and_result_is_bit_identical() {
        use tensix::fault::{FaultClass, FaultConfig};

        let sys = plummer(PlummerConfig { n: 96, seed: 95, ..PlummerConfig::default() });
        let clean = DeviceForcePipeline::new(device(), 96, 0.01, 1).unwrap();
        let clean_forces = clean.evaluate_checked(&sys).unwrap();

        // All DRAM ECC hits are uncorrectable; schedule one on the 5th read.
        let dev = Device::new(
            0,
            tensix::DeviceConfig {
                faults: FaultConfig { dram_uncorrectable_frac: 1.0, ..FaultConfig::default() },
                seed: 7,
                ..tensix::DeviceConfig::default()
            },
        );
        dev.faults().schedule(FaultClass::DramRead, 5);
        let faulty = DeviceForcePipeline::new(dev, 96, 0.01, 1).unwrap();
        let forces = faulty.evaluate_with_retry(&sys, RetryPolicy::default()).unwrap();
        let t = faulty.timing();
        assert_eq!(t.retries, 1, "one transient fault, one retry");
        assert!(t.retry_backoff_seconds > 0.0);
        assert!(
            t.wasted_seconds >= t.retry_backoff_seconds,
            "backoff is dead device time and must land in the wasted bucket"
        );
        assert_eq!(t.evaluations, 1, "failed attempt not counted");
        assert_eq!(forces.acc, clean_forces.acc, "retried result must be bit-identical");
        assert_eq!(forces.jerk, clean_forces.jerk);
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_deterministically() {
        let plain = RetryPolicy::default();
        assert_eq!(plain.backoff_s(0), 0.25);
        assert_eq!(plain.backoff_s(1), 0.5);
        assert_eq!(plain.backoff_s(2), 1.0);
        // The doubling stops at the cap.
        assert_eq!(plain.backoff_s(10), plain.max_backoff_s);
        let uncapped = RetryPolicy { max_backoff_s: 0.0, ..plain };
        assert_eq!(uncapped.backoff_s(10), 0.25 * 1024.0);

        let jittered = RetryPolicy::jittered(42);
        for attempt in 0..6 {
            let base = plain.backoff_s(attempt);
            let a = jittered.backoff_s(attempt);
            let b = jittered.backoff_s(attempt);
            assert_eq!(a.to_bits(), b.to_bits(), "same seed+attempt, same wait");
            assert!(a >= base * 0.75 && a < base * 1.25, "wait {a} outside ±25% of {base}");
        }
        // Different seeds decorrelate; different attempts decorrelate.
        let other = RetryPolicy::jittered(43);
        assert_ne!(jittered.backoff_s(0).to_bits(), other.backoff_s(0).to_bits());
        let waves: Vec<u64> = (0..4).map(|a| jittered.backoff_s(a).to_bits()).collect();
        let mut uniq = waves.clone();
        uniq.dedup();
        assert_eq!(waves.len(), uniq.len());
    }

    #[test]
    fn traced_evaluation_is_bit_identical_and_spans_reconcile() {
        use tt_trace::{EventKind, MemorySink, TraceSink};

        let sys = plummer(PlummerConfig { n: 96, seed: 97, ..PlummerConfig::default() });
        let eps = 0.01;
        let plain = DeviceForcePipeline::new(device(), 96, eps, 1).unwrap();
        let base = plain.evaluate_checked(&sys).unwrap();

        let dev = device();
        let sink = Arc::new(MemorySink::new());
        dev.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));
        let traced = DeviceForcePipeline::new(dev, 96, eps, 1).unwrap();
        let forces = traced.evaluate_checked(&sys).unwrap();
        assert_eq!(forces.acc, base.acc, "tracing must not perturb results");
        assert_eq!(forces.jerk, base.jerk);
        assert_eq!(traced.timing(), plain.timing(), "tracing must not perturb timing");

        let events = sink.export();
        tt_trace::check_nesting(&events).expect("trace spans must nest per track");
        // The kernel-level spans begin at context cycle 0, so their SpanEnd
        // timestamps are the per-instance cycle totals: summed, they must
        // reconcile exactly with the pipeline's busy-cycle accounting.
        let kernel_span_cycles: u64 = events
            .iter()
            .filter(|e| {
                matches!(e.kind, EventKind::SpanEnd)
                    && ["reader", "force-compute", "writer"].contains(&e.name.as_str())
            })
            .map(|e| e.ts)
            .sum();
        assert_eq!(kernel_span_cycles, traced.timing().busy_cycles);
        assert!(events.iter().any(|e| e.name == "tile"), "per-tile spans present");
        assert!(events.iter().any(|e| e.name == "noc_read"));
        assert!(events.iter().any(|e| e.name == "noc_write"));

        let report = traced.last_launch_report().expect("successful launch stores a report");
        assert_eq!(report.timings.len(), 3);
        assert!(report.cb_stats.iter().any(|c| c.stats.pages_pushed > 0));
        assert!(plain.last_launch_report().is_some(), "report kept even when tracing is off");
    }

    #[test]
    fn retry_emits_host_instant_when_traced() {
        use tensix::fault::{FaultClass, FaultConfig};
        use tt_trace::{MemorySink, TraceSink, HOST_CORE};

        let sys = plummer(PlummerConfig { n: 96, seed: 95, ..PlummerConfig::default() });
        let dev = Device::new(
            0,
            tensix::DeviceConfig {
                faults: FaultConfig { dram_uncorrectable_frac: 1.0, ..FaultConfig::default() },
                seed: 7,
                ..tensix::DeviceConfig::default()
            },
        );
        dev.faults().schedule(FaultClass::DramRead, 5);
        let sink = Arc::new(MemorySink::new());
        dev.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));
        let pipeline = DeviceForcePipeline::new(dev, 96, 0.01, 1).unwrap();
        pipeline.evaluate_with_retry(&sys, RetryPolicy::default()).unwrap();
        let events = sink.export();
        let retry = events
            .iter()
            .find(|e| e.name == "retry")
            .expect("retry must leave a host-side trace marker");
        assert_eq!(retry.core, HOST_CORE);
    }

    #[test]
    fn device_loss_is_not_retried() {
        use tensix::fault::FaultClass;

        let sys = plummer(PlummerConfig { n: 64, seed: 96, ..PlummerConfig::default() });
        let dev = device();
        dev.faults().schedule(FaultClass::DeviceLoss, 1);
        let pipeline = DeviceForcePipeline::new(dev, 64, 0.01, 1).unwrap();
        let err = pipeline.evaluate_with_retry(&sys, RetryPolicy::default()).unwrap_err();
        assert!(matches!(err, ttmetal::LaunchError::DeviceLost { .. }), "{err:?}");
        assert_eq!(pipeline.timing().retries, 0);
    }

    #[test]
    fn pipeline_recovers_from_card_loss_and_carries_timing() {
        use tensix::fault::FaultClass;

        let n = 96;
        let sys = plummer(PlummerConfig { n, seed: 91, ..PlummerConfig::default() });
        for kind in [ForceKernelKind::Elementwise, ForceKernelKind::Matrix] {
            let dev = device();
            let pipeline =
                DeviceForcePipeline::new_with_kernel(Arc::clone(&dev), n, 0.01, 1, kind).unwrap();
            let before = pipeline.evaluate_checked(&sys).unwrap();
            let t1 = pipeline.timing();
            assert_eq!(t1.evaluations, 1);

            // Kill the card mid-evaluation; recovery resets it and rebuilds
            // the card state in place while the old accounting is carried.
            dev.faults().schedule(FaultClass::DeviceLoss, 1);
            let err = pipeline.evaluate_checked(&sys).unwrap_err();
            assert!(err.is_card_loss(), "{kind:?}: {err:?}");
            // The lost launch's input writes crossed PCIe and are billed.
            let lost_io = pipeline.timing().io_seconds;
            assert!(lost_io > t1.io_seconds, "{kind:?}: lost launch's writes billed");
            pipeline.recover_device_loss(err).unwrap();
            assert!(dev.is_alive());
            assert_eq!(pipeline.kernel_kind(), kind, "recovery keeps the kernel kind");
            let after = pipeline.evaluate_checked(&sys).unwrap();
            assert_eq!(after.acc, before.acc, "{kind:?}: recovery must be invisible to physics");
            assert_eq!(after.jerk, before.jerk, "{kind:?}");
            let t2 = pipeline.timing();
            assert_eq!(t2.evaluations, 2, "{kind:?}: lost incarnation's accounting carried");
            assert_eq!(t2.busy_cycles, 2 * t1.busy_cycles, "{kind:?}");
            assert_eq!(t2.io_seconds, lost_io + t1.io_seconds, "{kind:?}: fresh queue");

            // Non-card-loss causes are refused.
            let stall = LaunchError::Stall {
                kernel: "force-compute".into(),
                core: tensix::CoreCoord::new(0, 0),
                completed: Vec::new(),
            };
            let err = pipeline.recover_device_loss(stall).unwrap_err();
            assert!(matches!(err, LaunchError::Stall { .. }), "{kind:?}");
            assert_eq!(pipeline.timing(), t2, "{kind:?}: a refused recovery changes nothing");
        }
    }

    #[test]
    #[should_panic(expected = "softening > 0")]
    fn zero_softening_rejected() {
        let _ = DeviceForcePipeline::new(device(), 64, 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "pipeline built for")]
    fn wrong_particle_count_rejected() {
        let sys = plummer(PlummerConfig { n: 32, seed: 93, ..PlummerConfig::default() });
        let pipeline = DeviceForcePipeline::new(device(), 64, 0.01, 1).unwrap();
        let _ = pipeline.evaluate_checked(&sys);
    }
}
