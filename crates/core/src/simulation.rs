//! Full mixed-precision simulations with a force backend in the loop.
//!
//! Drives the 4th-order Hermite scheme — prediction/correction in FP64 on
//! the host, force and jerk in FP32 on the backend — and reports both
//! physics diagnostics and virtual-time accounting, mirroring the paper's
//! representative-simulation structure (N particles, a number of time
//! cycles each made of Hermite steps).
//!
//! There is one driver, the [`BlockScheduler`], generic over
//! [`ForceEvaluator`]: the same loop (and the same checkpoint/restart
//! machinery) runs against the single-card pipeline, the multi-card ring,
//! the tree code or the CPU reference kernel. Shared stepping is its
//! zero-level case — `SimulationConfig::blocks = None` puts every particle
//! on the base step, so every iteration is one full-N launch. Faults travel
//! as typed [`LaunchError`]s from the evaluator to the driver; the entry
//! points ([`run_simulation`], [`run_block_simulation`],
//! [`run_simulation_resilient`], [`resume_simulation_resilient`]) differ
//! only in how much recovery they ask of it.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;

use nbody::diagnostics::{relative_energy_error, total_energy};
use nbody::integrator::{aarseth_timestep, hermite_correct, hermite_predict, quantize_block_step};
use nbody::particle::{Forces, ParticleSystem, Vec3};
use tensix::TensixError;
use tt_telemetry::BlockStepReport;
use ttmetal::LaunchError;

use crate::evaluator::{ActiveSet, ForceEvaluator};
use crate::pipeline::{PipelineTiming, RetryPolicy};

/// Configuration of a device-accelerated simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Plummer softening (must be positive for the device kernel).
    pub eps: f64,
    /// Time cycles (outer loop, as in the paper's "ten time cycles").
    pub cycles: usize,
    /// Hermite steps per cycle.
    pub steps_per_cycle: usize,
    /// Fixed step size in N-body time units. For block-step runs this is
    /// the *base* (largest) block step; particles subdivide below it.
    pub dt: f64,
    /// Tensix cores to use (per device, for multi-card runs).
    pub num_cores: usize,
    /// Hierarchical block time-steps: `Some` lets particles refine below
    /// the base step; `None` is shared stepping (zero levels: every
    /// particle due on every step).
    pub blocks: Option<BlockStepConfig>,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            eps: 0.01,
            cycles: 10,
            steps_per_cycle: 4,
            dt: 1.0 / 512.0,
            num_cores: 4,
            blocks: None,
        }
    }
}

/// Parameters of the hierarchical block-time-step scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockStepConfig {
    /// Aarseth accuracy parameter η (per-particle dt = η |a| / |ȧ|).
    pub eta: f64,
    /// Power-of-two halvings allowed below the base step: particle steps
    /// live on `dt / 2^k` for `k in 0..=levels`.
    pub levels: u32,
}

impl Default for BlockStepConfig {
    fn default() -> Self {
        BlockStepConfig { eta: 0.02, levels: 6 }
    }
}

/// Outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// Steps executed (block iterations; the initializing launch is not a
    /// step).
    pub steps: usize,
    /// Final simulation time (N-body units).
    pub final_time: f64,
    /// Relative energy error |ΔE/E₀| over the run.
    pub energy_error: f64,
    /// Initial total energy.
    pub initial_energy: f64,
    /// Final total energy.
    pub final_energy: f64,
    /// Device/IO virtual-time accounting (device runs only).
    pub timing: Option<PipelineTiming>,
    /// Kernel name that produced the forces.
    pub kernel: &'static str,
}

/// Where (and how fast) resilient runs spill their checkpoints.
///
/// With a spill configured, the checkpoint lives on disk instead of in host
/// memory: every snapshot is serialized with a content hash, the write time
/// is charged to the virtual clock (as IO), and a restore re-reads and
/// verifies the file — catching silent checkpoint corruption instead of
/// resuming from garbage. Each checkpoint is its own file
/// (`<path>.s<step>`), and the store garbage-collects all but the newest
/// `keep_last` so long-lived serving never fills the disk.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillConfig {
    /// Checkpoint file stem; checkpoint of iteration `k` lands at
    /// `<path>.s<k>`.
    pub path: PathBuf,
    /// Modeled sequential write bandwidth in GB/s, used to charge the spill
    /// to the virtual clock.
    pub write_gbps: f64,
    /// How many checkpoint files to retain on disk (older ones are deleted
    /// after each successful write). Clamped to at least 1.
    pub keep_last: usize,
}

impl SpillConfig {
    /// Spill to `path` at the default modeled bandwidth (2 GB/s NVMe-class
    /// sequential writes), retaining the last two checkpoints.
    #[must_use]
    pub fn new(path: PathBuf) -> Self {
        SpillConfig { path, write_gbps: 2.0, keep_last: 2 }
    }

    /// On-disk file of the iteration-`step` checkpoint.
    #[must_use]
    pub fn file_for(&self, step: usize) -> PathBuf {
        let mut name = self.path.as_os_str().to_owned();
        name.push(format!(".s{step}"));
        PathBuf::from(name)
    }

    /// Iterations of every checkpoint file currently on disk for this stem,
    /// sorted ascending. Missing directories read as empty (never an error:
    /// the question "is there anything to resume from?" has answer no).
    #[must_use]
    pub fn checkpoints_on_disk(&self) -> Vec<usize> {
        let parent = match self.path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let Some(stem) = self.path.file_name().map(|s| s.to_string_lossy().into_owned()) else {
            return Vec::new();
        };
        let prefix = format!("{stem}.s");
        let Ok(entries) = std::fs::read_dir(parent) else { return Vec::new() };
        let mut steps: Vec<usize> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                e.file_name().to_string_lossy().strip_prefix(&prefix)?.parse::<usize>().ok()
            })
            .collect();
        steps.sort_unstable();
        steps.dedup();
        steps
    }

    /// Delete every checkpoint file of this stem (job teardown). Best
    /// effort: files that cannot be removed are left behind.
    pub fn cleanup(&self) {
        for step in self.checkpoints_on_disk() {
            let _ = std::fs::remove_file(self.file_for(step));
        }
    }
}

/// How the resilient runner survives faults mid-simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryConfig {
    /// Snapshot the FP64 Hermite state every this many successful
    /// iterations (shared steps at zero levels).
    pub checkpoint_every: usize,
    /// In-place retry budget for transient launch faults (panics, deadlocks,
    /// stalls). Card loss is never retried in place — the card's DRAM is
    /// gone — and always goes through recovery + checkpoint restore instead.
    pub retry: RetryPolicy,
    /// How many card losses the runner will recover-and-resume past before
    /// giving up and surfacing the [`LaunchError`].
    pub max_recoveries: u32,
    /// Spill checkpoints to disk instead of keeping them in host memory.
    pub spill: Option<SpillConfig>,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            checkpoint_every: 4,
            retry: RetryPolicy::default(),
            max_recoveries: 2,
            spill: None,
        }
    }
}

impl RecoveryConfig {
    /// No retries, no recovery and therefore no checkpoints: every fault is
    /// terminal.
    fn none() -> Self {
        RecoveryConfig { retry: RetryPolicy::disabled(), max_recoveries: 0, ..Self::default() }
    }
}

/// Outcome of a driver run: the physics, the launch ledger and the
/// recovery ledger.
#[derive(Debug, Clone)]
pub struct DriverOutcome {
    /// Physics and timing. `outcome.steps` counts the block iterations of
    /// this run (shared steps at zero levels; the initializing launch is
    /// not a step), and the timing includes replayed work and checkpoint
    /// spill IO.
    pub outcome: SimulationOutcome,
    /// Active-set launch accounting, the initializing launch and replayed
    /// launches included — recovery work is billed, not hidden.
    pub report: BlockStepReport,
    /// Card losses survived via evaluator recovery + checkpoint restore.
    pub recoveries: u32,
    /// Iterations re-executed after rolling back to a checkpoint.
    pub steps_replayed: usize,
    /// Checkpoints written to disk (zero without a [`SpillConfig`]).
    pub checkpoint_spills: u64,
    /// Virtual seconds charged for checkpoint spill writes.
    pub spill_seconds: f64,
}

/// Evolve `system` for `cycles × steps_per_cycle` base steps against any
/// [`ForceEvaluator`], shared (`config.blocks = None`) or on block steps.
/// The backend's accumulated timing (if it has a device clock) and
/// backend name are reported in the outcome.
///
/// # Panics
/// Panics with the [`LaunchError`] on the first backend fault (there is no
/// retry or recovery here — see [`run_simulation_resilient`], or
/// [`run_block_simulation`] for the same run with the error returned);
/// also panics on a particle-count mismatch with the evaluator.
#[must_use]
pub fn run_simulation<E: ForceEvaluator>(
    evaluator: &Arc<E>,
    system: &mut ParticleSystem,
    config: SimulationConfig,
) -> SimulationOutcome {
    match drive(evaluator, system, config, &RecoveryConfig::none(), None) {
        Ok(out) => out.outcome,
        Err(e) => panic!("force evaluation failed: {e}"),
    }
}

/// [`run_simulation`] with the launch ledger, and faults returned instead
/// of raised: no retries, no recovery.
///
/// # Errors
/// Any evaluation fault.
///
/// # Panics
/// Panics on a particle-count mismatch with the evaluator.
pub fn run_block_simulation<E: ForceEvaluator>(
    evaluator: &Arc<E>,
    system: &mut ParticleSystem,
    config: SimulationConfig,
) -> Result<DriverOutcome, LaunchError> {
    drive(evaluator, system, config, &RecoveryConfig::none(), None)
}

/// Evolve `system` like [`run_simulation`], but survive injected faults:
/// transient launch failures are retried in place (every launch, full-N or
/// active subset, through [`ForceEvaluator::evaluate_active_with_retry`],
/// so partial-redo salvage and backoff billing apply), and a mid-run card
/// loss goes through
/// [`ForceEvaluator::recover_device_loss`] → restore of the last
/// checkpoint → replay. Because the checkpoint holds the exact host-side
/// Hermite state (the whole block hierarchy) and every backend is
/// deterministic, a recovered run is f64-bitwise identical to a fault-free
/// one — on a single card *and* on a multi-card ring.
///
/// # Errors
/// Non-transient faults the evaluator cannot recover from, checkpoint spill
/// failures (including a content-hash mismatch on restore), or more than
/// `recovery.max_recoveries` card losses.
///
/// # Panics
/// Panics on a particle-count mismatch with the evaluator.
pub fn run_simulation_resilient<E: ForceEvaluator>(
    evaluator: &Arc<E>,
    system: &mut ParticleSystem,
    config: SimulationConfig,
    recovery: RecoveryConfig,
) -> Result<DriverOutcome, LaunchError> {
    drive(evaluator, system, config, &recovery, None)
}

/// Resume a run from a checkpoint written at iteration `iteration` (as
/// read by [`latest_checkpoint`] / [`read_checkpoint`]): `system` is reset
/// to the checkpoint's state, no initializing launch is made, and stepping
/// continues with iteration `iteration + 1` — mid-hierarchy for block
/// runs. On a deterministic backend of the same class, the resumed tail is
/// f64-bitwise identical to what an uninterrupted run would have done —
/// this is the server's checkpoint-migration path between backends.
///
/// # Errors
/// Same contract as [`run_simulation_resilient`].
///
/// # Panics
/// Panics when the evaluator or the checkpoint holds a different particle
/// count than `system`.
pub fn resume_simulation_resilient<E: ForceEvaluator>(
    evaluator: &Arc<E>,
    system: &mut ParticleSystem,
    checkpoint: &BlockCheckpoint,
    iteration: usize,
    config: SimulationConfig,
    recovery: RecoveryConfig,
) -> Result<DriverOutcome, LaunchError> {
    drive(evaluator, system, config, &recovery, Some((checkpoint, iteration)))
}

/// The one Hermite driver loop: initialize (or restore), step the
/// scheduler to `t_end`, checkpoint every `checkpoint_every` iterations,
/// and roll back to the last checkpoint after each absorbed card loss.
fn drive<E: ForceEvaluator>(
    evaluator: &Arc<E>,
    system: &mut ParticleSystem,
    config: SimulationConfig,
    recovery: &RecoveryConfig,
    resume: Option<(&BlockCheckpoint, usize)>,
) -> Result<DriverOutcome, LaunchError> {
    assert_eq!(system.len(), evaluator.n(), "evaluator built for n = {}", evaluator.n());
    let mut recoveries: u32 = 0;
    // A card loss within budget is absorbed by the evaluator (the caller
    // then retries or restores); anything else is terminal.
    let mut absorb = |cause: LaunchError| -> Result<(), LaunchError> {
        if cause.is_card_loss() && recoveries < recovery.max_recoveries {
            recoveries += 1;
            evaluator.recover_device_loss(cause)
        } else {
            Err(cause)
        }
    };

    // Initialization only mutates `system` after its evaluation succeeds,
    // so on card loss we recover the evaluator and simply try again. A
    // resumed run arrives with the hierarchy in its checkpoint: a fresh
    // initializing launch would be redundant work and, on a different
    // backend class, would break bitwise identity with the interrupted run.
    let (mut sched, start) = match resume {
        Some((ckpt, iteration)) => {
            let retry = recovery.retry;
            (BlockScheduler::resume(Arc::clone(evaluator), system, config, retry, ckpt), iteration)
        }
        None => loop {
            match BlockScheduler::new(Arc::clone(evaluator), system, config, recovery.retry) {
                Ok(s) => break (s, 0),
                Err(e) => absorb(e)?,
            }
        },
    };
    let e0 = total_energy(system, config.eps);

    // Checkpoint *after* initialize: a restore replays whole iterations
    // from exact FP64 state, keeping bitwise identity.
    let mut store = BlockCheckpointStore::new(recovery);
    store.save(&sched, system, start)?;
    let mut iteration = start;
    let mut replayed = 0usize;
    while !sched.done(system) {
        match sched.step(system) {
            Ok(()) => {
                iteration += 1;
                // Checkpoint on every full stride, including one landing on
                // the final iteration: a card loss during a terminal partial
                // stride must never replay more than `checkpoint_every`.
                if iteration - store.iteration >= recovery.checkpoint_every.max(1) {
                    store.save(&sched, system, iteration)?;
                }
            }
            Err(e) => {
                // A failed iteration leaves `system` predicted, not
                // corrected, so recovery always restores the checkpoint.
                absorb(e)?;
                let (ckpt, restored) = store.restore()?;
                sched.restore(system, &ckpt);
                replayed += iteration - restored;
                iteration = restored;
            }
        }
    }

    let e1 = total_energy(system, config.eps);
    let mut timing = evaluator.timing();
    if let Some(t) = timing.as_mut() {
        // Spill writes are host IO on the virtual clock.
        t.io_seconds += store.seconds;
    }
    Ok(DriverOutcome {
        outcome: SimulationOutcome {
            steps: iteration - start,
            final_time: system.time,
            energy_error: relative_energy_error(e1, e0),
            initial_energy: e0,
            final_energy: e1,
            timing,
            kernel: evaluator.backend(),
        },
        report: sched.into_report(),
        recoveries,
        steps_replayed: replayed,
        checkpoint_spills: store.spills,
        spill_seconds: store.seconds,
    })
}

// ---------------------------------------------------------------------------
// The scheduler: hierarchical block time steps over the evaluator seam.
// ---------------------------------------------------------------------------

/// Hierarchical block-time-step Hermite scheduler over the evaluator seam.
///
/// Each particle `i` carries its last-corrected state at `t[i]` and a
/// power-of-two step `dt[i] = dt_max / 2^k`; every iteration advances the
/// globally earliest due time, predicts all particles there in FP64, and
/// force-evaluates + Hermite-corrects only the due block. With zero levels
/// every particle is due on every iteration: shared stepping, bitwise equal
/// to `nbody`'s `Hermite4` at power-of-two steps (both use the one
/// [`hermite_predict`]/[`hermite_correct`] pair).
///
/// The *backend* sees the active set, full-N (the initializing launch,
/// every shared step, base-step boundaries, the final sync) or a subset,
/// through [`ForceEvaluator::evaluate_active_with_retry`] under the run's
/// retry policy: a device pipeline packs the active particles into gathered
/// tiles or matrix blocks and sizes its launch grid to the block, the ring
/// splits the block across cards, and the CPU kernel front-permutes. All of
/// it is `Result`-typed: no fault unwinds through the force seam.
pub struct BlockScheduler<E> {
    evaluator: Arc<E>,
    blocks: BlockStepConfig,
    /// Base (largest) block step.
    dt_max: f64,
    retry: RetryPolicy,
    /// Run length past the grid origin: `t_end = t_origin + span`.
    span: f64,
    t_end: f64,
    /// Origin of the block grid (start time of the run); step alignment is
    /// judged relative to it, so it must survive checkpoint/restore.
    t_origin: f64,
    /// Last correction time per particle.
    t: Vec<f64>,
    /// Current block step per particle.
    dt: Vec<f64>,
    /// Corrected state at `t[i]` (the osculating data prediction uses;
    /// `system` itself holds predictions between corrections).
    pos0: Vec<Vec3>,
    vel0: Vec<Vec3>,
    acc0: Vec<Vec3>,
    jerk0: Vec<Vec3>,
    report: BlockStepReport,
}

impl<E: ForceEvaluator> BlockScheduler<E> {
    /// A scheduler with no hierarchy yet: `new` seeds it with a launch,
    /// `resume` from a checkpoint.
    fn armed(
        evaluator: Arc<E>,
        system: &ParticleSystem,
        config: SimulationConfig,
        retry: RetryPolicy,
    ) -> Self {
        assert_eq!(system.len(), evaluator.n(), "evaluator built for n = {}", evaluator.n());
        assert!(config.dt > 0.0, "base block step must be positive");
        let span = (config.cycles * config.steps_per_cycle) as f64 * config.dt;
        BlockScheduler {
            evaluator,
            blocks: config.blocks.unwrap_or(BlockStepConfig { levels: 0, ..Default::default() }),
            dt_max: config.dt,
            retry,
            span,
            t_end: system.time + span,
            t_origin: system.time,
            t: Vec::new(),
            dt: Vec::new(),
            pos0: Vec::new(),
            vel0: Vec::new(),
            acc0: Vec::new(),
            jerk0: Vec::new(),
            report: BlockStepReport::new(system.len()),
        }
    }

    /// Initialize the block hierarchy: one full-N force evaluation seeds
    /// acc/jerk, then every particle's step comes from the Aarseth
    /// criterion quantized to the grid. The run ends at
    /// `system.time + cycles · steps_per_cycle · dt`.
    ///
    /// # Errors
    /// Unrecovered faults from the initializing evaluation.
    ///
    /// # Panics
    /// Panics on a particle-count mismatch with the evaluator or a
    /// non-positive base step.
    pub fn new(
        evaluator: Arc<E>,
        system: &mut ParticleSystem,
        config: SimulationConfig,
        retry: RetryPolicy,
    ) -> Result<Self, LaunchError> {
        let mut sched = Self::armed(evaluator, system, config, retry);
        let n = system.len();
        let forces = sched.launch(system, &ActiveSet::full(n))?;
        system.set_forces(forces.acc.clone(), forces.jerk.clone());
        for i in 0..n {
            let raw = aarseth_timestep(forces.acc[i], forces.jerk[i], sched.blocks.eta, config.dt);
            sched.dt.push(quantize_block_step(raw, 0.0, config.dt, sched.blocks.levels));
        }
        sched.t = vec![system.time; n];
        sched.pos0 = system.pos.clone();
        sched.vel0 = system.vel.clone();
        sched.acc0 = forces.acc;
        sched.jerk0 = forces.jerk;
        sched.report.record(n, 0.0); // the initializing full-N launch
        Ok(sched)
    }

    /// A scheduler picking up a [`checkpoint`](Self::checkpoint) of a run
    /// with the same `config`, without an initializing launch; `system` is
    /// reset to the checkpoint's state.
    ///
    /// # Panics
    /// Same contract as [`Self::restore`], plus the [`Self::new`] checks.
    fn resume(
        evaluator: Arc<E>,
        system: &mut ParticleSystem,
        config: SimulationConfig,
        retry: RetryPolicy,
        ckpt: &BlockCheckpoint,
    ) -> Self {
        let mut sched = Self::armed(evaluator, system, config, retry);
        sched.restore(system, ckpt);
        sched
    }

    /// Force evaluation of the `active` block with transient faults
    /// retried in place under the run's policy, through
    /// [`ForceEvaluator::evaluate_active_with_retry`]. A failed attempt's
    /// cycles are already billed as wasted by the pipeline.
    fn launch(&self, system: &ParticleSystem, active: &ActiveSet) -> Result<Forces, LaunchError> {
        self.evaluator.evaluate_active_with_retry(system, active, self.retry)
    }

    /// Has the run reached `t_end`?
    #[must_use]
    pub fn done(&self, system: &ParticleSystem) -> bool {
        system.time >= self.t_end - 1e-12
    }

    /// The launch ledger so far.
    #[must_use]
    pub fn report(&self) -> &BlockStepReport {
        &self.report
    }

    /// Consume the scheduler, yielding the launch ledger.
    #[must_use]
    pub fn into_report(self) -> BlockStepReport {
        self.report
    }

    /// One block iteration: advance to the earliest due time, predict all,
    /// force-evaluate and correct the active block, re-choose its steps.
    /// The final iteration (the one landing on `t_end`) force-synchronizes
    /// every particle so the run ends with corrected state throughout.
    ///
    /// # Errors
    /// Unrecovered evaluation faults. `system` is left in the predicted
    /// (pre-correction) state; recovery must restore a checkpoint.
    pub fn step(&mut self, system: &mut ParticleSystem) -> Result<(), LaunchError> {
        debug_assert!(!self.done(system), "stepping past t_end");
        let n = system.len();
        let mut t_next = f64::INFINITY;
        for i in 0..n {
            t_next = t_next.min(self.t[i] + self.dt[i]);
        }
        let t_next = t_next.min(self.t_end);

        // Predict every particle to t_next (host-side FP64 pass).
        for i in 0..n {
            (system.pos[i], system.vel[i]) = hermite_predict(
                self.pos0[i],
                self.vel0[i],
                self.acc0[i],
                self.jerk0[i],
                t_next - self.t[i],
            );
        }

        // Active block: particles due at t_next (everyone on the final sync).
        let forced_sync = t_next >= self.t_end - 1e-12;
        let due: Vec<usize> =
            (0..n).filter(|&i| forced_sync || self.t[i] + self.dt[i] <= t_next + 1e-12).collect();
        let active = ActiveSet::from_indices(due, n);
        let forces = self.launch(system, &active)?;

        // Hermite-correct the block; row `slot` of `forces` is particle
        // `active.indices()[slot]` against all N sources.
        let mut min_h = f64::INFINITY;
        for (slot, &i) in active.indices().iter().enumerate() {
            let h = t_next - self.t[i];
            if h <= 0.0 {
                continue;
            }
            min_h = min_h.min(h);
            let (a1, j1) = (forces.acc[slot], forces.jerk[slot]);
            let (x1, v1) =
                hermite_correct(self.pos0[i], self.vel0[i], self.acc0[i], self.jerk0[i], a1, j1, h);
            (self.pos0[i], self.vel0[i]) = (x1, v1);
            (system.pos[i], system.vel[i]) = (x1, v1);
            self.acc0[i] = a1;
            self.jerk0[i] = j1;
            self.t[i] = t_next;
            let raw = aarseth_timestep(a1, j1, self.blocks.eta, self.dt_max);
            self.dt[i] =
                quantize_block_step(raw, t_next - self.t_origin, self.dt_max, self.blocks.levels);
        }

        system.time = t_next;
        self.report.record(active.len(), if min_h.is_finite() { min_h } else { 0.0 });

        if forced_sync {
            // Leave the system fully synchronized: corrected state only.
            system.pos.clone_from(&self.pos0);
            system.vel.clone_from(&self.vel0);
            system.set_forces(self.acc0.clone(), self.jerk0.clone());
        }
        Ok(())
    }

    /// Snapshot the full block hierarchy (corrected states, per-particle
    /// times and steps, the grid origin) for bitwise resume.
    #[must_use]
    pub fn checkpoint(&self, system: &ParticleSystem) -> BlockCheckpoint {
        BlockCheckpoint {
            time: system.time,
            t_origin: self.t_origin,
            mass: system.mass.clone(),
            pos0: self.pos0.clone(),
            vel0: self.vel0.clone(),
            acc0: self.acc0.clone(),
            jerk0: self.jerk0.clone(),
            t: self.t.clone(),
            dt: self.dt.clone(),
        }
    }

    /// Restore a [`checkpoint`](Self::checkpoint): the scheduler re-arms the
    /// hierarchy and `system` is reset to the corrected state, so the next
    /// [`step`](Self::step) replays exactly what the snapshotted run did.
    ///
    /// # Panics
    /// Panics on a particle-count mismatch.
    pub fn restore(&mut self, system: &mut ParticleSystem, ckpt: &BlockCheckpoint) {
        let n = system.len();
        assert_eq!(ckpt.mass.len(), n, "checkpoint holds a different particle count");
        self.t_origin = ckpt.t_origin;
        self.t_end = ckpt.t_origin + self.span;
        self.t.clone_from(&ckpt.t);
        self.dt.clone_from(&ckpt.dt);
        self.pos0.clone_from(&ckpt.pos0);
        self.vel0.clone_from(&ckpt.vel0);
        self.acc0.clone_from(&ckpt.acc0);
        self.jerk0.clone_from(&ckpt.jerk0);
        system.time = ckpt.time;
        system.mass.clone_from(&ckpt.mass);
        system.pos.clone_from(&ckpt.pos0);
        system.vel.clone_from(&ckpt.vel0);
        system.set_forces(ckpt.acc0.clone(), ckpt.jerk0.clone());
    }
}

// ---------------------------------------------------------------------------
// The checkpoint: one snapshot type, one hashed spill format, one store.
// ---------------------------------------------------------------------------

/// A point-in-time snapshot of a run: the FP64 corrected state *and* the
/// hierarchy (per-particle times/steps, grid origin) — everything
/// [`BlockScheduler::restore`] needs for a bitwise-identical resume. A
/// shared-step run's checkpoint is the zero-level case: every particle at
/// the same time on the base step.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockCheckpoint {
    /// Simulation time of the snapshot.
    pub time: f64,
    /// Origin of the block grid (start of the run).
    pub t_origin: f64,
    /// Particle masses.
    pub mass: Vec<f64>,
    /// Corrected positions at `t[i]`.
    pub pos0: Vec<Vec3>,
    /// Corrected velocities at `t[i]`.
    pub vel0: Vec<Vec3>,
    /// Accelerations at `t[i]`.
    pub acc0: Vec<Vec3>,
    /// Jerks at `t[i]`.
    pub jerk0: Vec<Vec3>,
    /// Last correction time per particle.
    pub t: Vec<f64>,
    /// Current block step per particle.
    pub dt: Vec<f64>,
}

impl BlockCheckpoint {
    /// Bitmap (bit `i % 64` of word `i / 64`) of the particles due at the
    /// next block time — the active set the first resumed iteration will
    /// launch. Serialized into the spill payload (and its FNV hash) as a
    /// consistency check on the hierarchy.
    #[must_use]
    pub fn next_due_bitmap(&self) -> Vec<u64> {
        let n = self.mass.len();
        let mut t_next = f64::INFINITY;
        for i in 0..n {
            t_next = t_next.min(self.t[i] + self.dt[i]);
        }
        let mut words = vec![0u64; n.div_ceil(64)];
        for i in 0..n {
            if self.t[i] + self.dt[i] <= t_next + 1e-12 {
                words[i / 64] |= 1u64 << (i % 64);
            }
        }
        words
    }
}

const SPILL_MAGIC: u64 = 0x4e42_5454_424c_4b53; // "NBTTBLKS"

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn spill_fault(message: String) -> LaunchError {
    LaunchError::Device(TensixError::KernelFault { message })
}

/// Typed (non-panicking, non-transient) error for checkpoint IO failures:
/// an unwritable spill directory, a full disk, or a missing file. The
/// serving layer matches on it to shed the job instead of unwinding.
fn spill_io_fault(path: &std::path::Path, e: &std::io::Error) -> LaunchError {
    LaunchError::Device(TensixError::CheckpointIo {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

/// Serialize a checkpoint: time and grid origin, then mass, the four
/// corrected-state fields, per-particle times and steps (15 scalars per
/// particle + 2), then the next-due active-set bitmap — all under one FNV
/// content hash.
fn spill_payload(ckpt: &BlockCheckpoint) -> Vec<u8> {
    let n = ckpt.mass.len();
    let mut buf = Vec::with_capacity(8 * (2 + 15 * n + n.div_ceil(64)));
    buf.extend_from_slice(&ckpt.time.to_bits().to_le_bytes());
    buf.extend_from_slice(&ckpt.t_origin.to_bits().to_le_bytes());
    for &m in &ckpt.mass {
        buf.extend_from_slice(&m.to_bits().to_le_bytes());
    }
    for field in [&ckpt.pos0, &ckpt.vel0, &ckpt.acc0, &ckpt.jerk0] {
        for v in field {
            for &c in v {
                buf.extend_from_slice(&c.to_bits().to_le_bytes());
            }
        }
    }
    for series in [&ckpt.t, &ckpt.dt] {
        for &x in series {
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    for w in ckpt.next_due_bitmap() {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf
}

/// Serialize and write the iteration-`iteration` checkpoint to its spill
/// file, returning the bytes written (for virtual-clock IO charging).
///
/// # Errors
/// [`TensixError::CheckpointIo`] (behind [`LaunchError::Device`]) when the
/// spill directory is unwritable or the write fails.
pub fn write_checkpoint(
    spill: &SpillConfig,
    ckpt: &BlockCheckpoint,
    iteration: usize,
) -> Result<u64, LaunchError> {
    let payload = spill_payload(ckpt);
    let mut out = Vec::with_capacity(32 + payload.len());
    out.extend_from_slice(&SPILL_MAGIC.to_le_bytes());
    out.extend_from_slice(&(iteration as u64).to_le_bytes());
    out.extend_from_slice(&(ckpt.mass.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    let file = spill.file_for(iteration);
    std::fs::write(&file, &out).map_err(|e| spill_io_fault(&file, &e))?;
    Ok(out.len() as u64)
}

/// Read back and verify the iteration-`iteration` checkpoint: framing,
/// content hash, and the serialized next-due bitmap against one re-derived
/// from the per-particle times (a hierarchy-consistency check).
///
/// # Errors
/// [`TensixError::CheckpointIo`] when the file is unreadable, or a
/// kernel-fault launch error when the framing, content hash or hierarchy
/// is corrupt — including a header whose particle count cannot describe
/// any file.
pub fn read_checkpoint(
    spill: &SpillConfig,
    iteration: usize,
) -> Result<(BlockCheckpoint, usize), LaunchError> {
    let file = spill.file_for(iteration);
    let raw = std::fs::read(&file).map_err(|e| spill_io_fault(&file, &e))?;
    let corrupt = |what: &str| spill_fault(format!("checkpoint {file:?} corrupt: {what}"));
    if raw.len() < 32 {
        return Err(corrupt("truncated header"));
    }
    let word = |i: usize| u64::from_le_bytes(raw[8 * i..8 * (i + 1)].try_into().unwrap());
    if word(0) != SPILL_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let header_iteration = word(1) as usize;
    let n = usize::try_from(word(2)).map_err(|_| corrupt("particle count overflows"))?;
    let payload = &raw[32..];
    // 8 · (2 + 15 n) scalar bytes plus the bitmap; the header is untrusted,
    // so every step is checked.
    let scalar_bytes =
        n.checked_mul(15).and_then(|s| s.checked_add(2)).and_then(|s| s.checked_mul(8));
    let payload_bytes = scalar_bytes.and_then(|s| s.checked_add(8 * n.div_ceil(64)));
    let (Some(scalar_bytes), Some(payload_bytes)) = (scalar_bytes, payload_bytes) else {
        return Err(corrupt("particle count overflows"));
    };
    if payload.len() != payload_bytes {
        return Err(corrupt("payload length does not match particle count"));
    }
    if fnv1a(payload) != word(3) {
        return Err(corrupt("content hash mismatch"));
    }
    let mut scalars = payload[..scalar_bytes].chunks_exact(8).map(|c| {
        f64::from_bits(u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes")))
    });
    let time = scalars.next().expect("length checked above");
    let t_origin = scalars.next().expect("length checked above");
    let mass: Vec<f64> = scalars.by_ref().take(n).collect();
    let mut vec3s = || -> Vec<Vec3> {
        (0..n)
            .map(|_| {
                let mut v = [0.0; 3];
                for c in &mut v {
                    *c = scalars.next().expect("length checked above");
                }
                v
            })
            .collect()
    };
    let pos0 = vec3s();
    let vel0 = vec3s();
    let acc0 = vec3s();
    let jerk0 = vec3s();
    let t: Vec<f64> = scalars.by_ref().take(n).collect();
    let dt: Vec<f64> = scalars.take(n).collect();
    let ckpt = BlockCheckpoint { time, t_origin, mass, pos0, vel0, acc0, jerk0, t, dt };
    let stored: Vec<u64> = payload[scalar_bytes..]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes")))
        .collect();
    if stored != ckpt.next_due_bitmap() {
        return Err(corrupt("active-set bitmap inconsistent with block times"));
    }
    Ok((ckpt, header_iteration))
}

/// Read the newest checkpoint on disk for `spill` — the migration entry
/// point: after a backend dies past its recovery budget, the server
/// restores the job's last spilled state here and resumes it elsewhere via
/// [`resume_simulation_resilient`].
///
/// # Errors
/// [`TensixError::CheckpointIo`] when no checkpoint file exists, plus the
/// [`read_checkpoint`] error contract.
pub fn latest_checkpoint(spill: &SpillConfig) -> Result<(BlockCheckpoint, usize), LaunchError> {
    let iteration = spill.checkpoints_on_disk().pop().ok_or_else(|| {
        LaunchError::Device(TensixError::CheckpointIo {
            path: spill.path.display().to_string(),
            message: "no checkpoint files on disk".into(),
        })
    })?;
    read_checkpoint(spill, iteration)
}

/// The driver's checkpoint slot: an in-memory clone, or — with a
/// [`SpillConfig`] — hashed files on disk that restores re-read and verify,
/// garbage-collected down to the newest `keep_last`. A run that can
/// neither recover nor spill keeps no checkpoint at all.
struct BlockCheckpointStore {
    spill: Option<SpillConfig>,
    /// Whether any checkpoint can be read back: by a card-loss recovery,
    /// or from disk by a migration.
    kept: bool,
    memory: Option<BlockCheckpoint>,
    iteration: usize,
    /// Iterations with a live on-disk file, oldest first (the GC queue).
    on_disk: VecDeque<usize>,
    spills: u64,
    seconds: f64,
}

impl BlockCheckpointStore {
    fn new(recovery: &RecoveryConfig) -> Self {
        BlockCheckpointStore {
            spill: recovery.spill.clone(),
            kept: recovery.max_recoveries > 0 || recovery.spill.is_some(),
            memory: None,
            iteration: 0,
            on_disk: VecDeque::new(),
            spills: 0,
            seconds: 0.0,
        }
    }

    fn save<E: ForceEvaluator>(
        &mut self,
        sched: &BlockScheduler<E>,
        system: &ParticleSystem,
        iteration: usize,
    ) -> Result<(), LaunchError> {
        self.iteration = iteration;
        if !self.kept {
            return Ok(());
        }
        let ckpt = sched.checkpoint(system);
        match &self.spill {
            Some(spill) => {
                let bytes = write_checkpoint(spill, &ckpt, iteration)?;
                self.spills += 1;
                self.seconds += bytes as f64 / (spill.write_gbps * 1e9);
                // Disk is the only copy: restores must go through it.
                self.memory = None;
                // Keep-last-K retention: drop the oldest files once the new
                // one is safely down. Deletion is best-effort (a file we
                // cannot remove is a leak, not a correctness problem).
                self.on_disk.push_back(iteration);
                while self.on_disk.len() > spill.keep_last.max(1) {
                    if let Some(old) = self.on_disk.pop_front() {
                        let _ = std::fs::remove_file(spill.file_for(old));
                    }
                }
            }
            None => self.memory = Some(ckpt),
        }
        Ok(())
    }

    /// The newest checkpoint and its iteration.
    fn restore(&self) -> Result<(BlockCheckpoint, usize), LaunchError> {
        match &self.spill {
            Some(spill) => {
                let (ckpt, iteration) = read_checkpoint(spill, self.iteration)?;
                if iteration != self.iteration {
                    return Err(spill_fault(format!(
                        "checkpoint {:?} is stale: holds iteration {iteration}, expected {}",
                        spill.file_for(self.iteration),
                        self.iteration
                    )));
                }
                Ok((ckpt, iteration))
            }
            None => {
                let ckpt = self.memory.as_ref().expect("restore before first save").clone();
                Ok((ckpt, self.iteration))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::CpuForceEvaluator;
    use crate::pipeline::DeviceForcePipeline;
    use nbody::force::{ReferenceKernel, SimdKernel, ThreadedKernel};
    use nbody::ic::{plummer, PlummerConfig};
    use tensix::fault::FaultClass;
    use tensix::{Device, DeviceConfig};

    fn small_config() -> SimulationConfig {
        SimulationConfig {
            eps: 0.05,
            cycles: 2,
            steps_per_cycle: 2,
            dt: 1.0 / 256.0,
            num_cores: 1,
            blocks: None,
        }
    }

    fn temp_spill(tag: &str) -> SpillConfig {
        SpillConfig::new(
            std::env::temp_dir().join(format!("nbody-ckpt-{tag}-{}.bin", std::process::id())),
        )
    }

    fn card(dev: &Arc<Device>, n: usize, cfg: SimulationConfig) -> Arc<DeviceForcePipeline> {
        Arc::new(DeviceForcePipeline::new(Arc::clone(dev), n, cfg.eps, cfg.num_cores).unwrap())
    }

    fn cpu(
        n: usize,
        eps: f64,
        threads: usize,
    ) -> Arc<CpuForceEvaluator<ThreadedKernel<SimdKernel>>> {
        Arc::new(CpuForceEvaluator::new(ThreadedKernel::new(SimdKernel::new(eps), threads), n))
    }

    /// The post-init checkpoint of a small CPU run.
    fn cpu_checkpoint(n: usize, seed: u64) -> BlockCheckpoint {
        let mut sys = plummer(PlummerConfig { n, seed, ..PlummerConfig::default() });
        let eval = Arc::new(CpuForceEvaluator::new(ReferenceKernel::new(0.05), n));
        let sched = BlockScheduler::new(eval, &mut sys, small_config(), RetryPolicy::disabled())
            .expect("CPU init cannot fault");
        sched.checkpoint(&sys)
    }

    #[test]
    fn device_simulation_conserves_energy() {
        let mut sys = plummer(PlummerConfig { n: 128, seed: 100, ..PlummerConfig::default() });
        let dev = Device::new(0, DeviceConfig::default());
        let out = run_simulation(&card(&dev, sys.len(), small_config()), &mut sys, small_config());
        assert_eq!(out.steps, 4);
        assert!((out.final_time - 4.0 / 256.0).abs() < 1e-12);
        // FP32 forces: energy error at the 1e-5 level over a few steps.
        assert!(out.energy_error < 1e-4, "energy error {}", out.energy_error);
        let t = out.timing.expect("device runs report timing");
        assert_eq!(t.evaluations, 5, "init + 4 steps");
        assert!(t.device_seconds > 0.0);
    }

    #[test]
    fn device_and_cpu_runs_agree() {
        let mk = || plummer(PlummerConfig { n: 96, seed: 101, ..PlummerConfig::default() });
        let cfg = small_config();

        let mut dev_sys = mk();
        let dev = Device::new(0, DeviceConfig::default());
        let _ = run_simulation(&card(&dev, 96, cfg), &mut dev_sys, cfg);

        let mut cpu_sys = mk();
        let _ = run_simulation(&cpu(96, cfg.eps, 2), &mut cpu_sys, cfg);

        // Same mixed-precision algorithm, different summation order: the
        // trajectories agree to FP32-commensurate accuracy over 4 steps.
        for i in 0..dev_sys.len() {
            for k in 0..3 {
                let d = (dev_sys.pos[i][k] - cpu_sys.pos[i][k]).abs();
                assert!(d < 1e-5, "particle {i} axis {k} diverged by {d}");
            }
        }
    }

    #[test]
    fn shared_driver_matches_hermite4_bitwise() {
        // Zero-level block stepping *is* the shared-step Hermite scheme: at
        // a power-of-two step the driver and `nbody`'s `Hermite4` share the
        // predictor/corrector and land on the same bits.
        use nbody::integrator::{Hermite4, Integrator};

        let cfg = small_config();
        let mk = || plummer(PlummerConfig { n: 64, seed: 109, ..PlummerConfig::default() });
        let mut driven = mk();
        let out = run_simulation(&cpu(64, cfg.eps, 2), &mut driven, cfg);

        let mut reference = mk();
        let integ = Hermite4::new(ThreadedKernel::new(SimdKernel::new(cfg.eps), 2));
        integ.initialize(&mut reference);
        for _ in 0..out.steps {
            integ.step(&mut reference, cfg.dt);
        }
        assert_eq!(driven.time.to_bits(), reference.time.to_bits());
        assert_eq!(driven.pos, reference.pos);
        assert_eq!(driven.vel, reference.vel);
        assert_eq!(driven.acc, reference.acc);
        assert_eq!(driven.jerk, reference.jerk);
    }

    #[test]
    #[should_panic(expected = "force evaluation failed")]
    fn run_simulation_panics_at_the_driver_boundary() {
        use tensix::FaultConfig;

        let dev = Device::new(
            0,
            DeviceConfig {
                faults: FaultConfig { device_loss_prob: 1.0, ..FaultConfig::default() },
                ..DeviceConfig::default()
            },
        );
        let mut sys = plummer(PlummerConfig { n: 16, seed: 113, ..PlummerConfig::default() });
        let _ = run_simulation(&card(&dev, 16, small_config()), &mut sys, small_config());
    }

    #[test]
    fn device_loss_mid_run_resumes_bitwise_identical() {
        let cfg = SimulationConfig {
            eps: 0.05,
            cycles: 2,
            steps_per_cycle: 4,
            dt: 1.0 / 256.0,
            num_cores: 2,
            blocks: None,
        };
        let mk = || plummer(PlummerConfig { n: 512, seed: 103, ..PlummerConfig::default() });

        let clean_dev = Device::new(0, DeviceConfig::default());
        let mut clean_sys = mk();
        let clean = run_simulation_resilient(
            &card(&clean_dev, 512, cfg),
            &mut clean_sys,
            cfg,
            RecoveryConfig::default(),
        )
        .unwrap();
        assert_eq!(clean.recoveries, 0);
        assert_eq!(clean.steps_replayed, 0);
        assert_eq!(clean.checkpoint_spills, 0, "no spill configured");

        // Launch events: initialize is #1, step i is #(i+1); kill the card
        // mid-way through the 4th step.
        let dev = Device::new(0, DeviceConfig::default());
        dev.faults().schedule(FaultClass::DeviceLoss, 5);
        let mut sys = mk();
        let out = run_simulation_resilient(
            &card(&dev, 512, cfg),
            &mut sys,
            cfg,
            RecoveryConfig::default(),
        )
        .unwrap();
        assert_eq!(out.recoveries, 1);
        assert_eq!(out.steps_replayed, 3, "rolled back to the post-init checkpoint");
        assert_eq!(dev.faults().stats().device_losses, 1);

        // Checkpoint/restart must be invisible to the physics: f64-bitwise
        // identical state and energies.
        assert_eq!(sys.pos, clean_sys.pos);
        assert_eq!(sys.vel, clean_sys.vel);
        assert_eq!(out.outcome.final_energy.to_bits(), clean.outcome.final_energy.to_bits());
        assert_eq!(out.outcome.energy_error.to_bits(), clean.outcome.energy_error.to_bits());
        // Replayed work is billed, not hidden.
        let t = out.outcome.timing.unwrap();
        let tc = clean.outcome.timing.unwrap();
        assert_eq!(t.evaluations, tc.evaluations + out.steps_replayed as u64);
    }

    #[test]
    fn device_loss_replays_at_most_checkpoint_every_steps() {
        // Sweep the loss over every step of the run, including the final
        // partial stride: the checkpoint cadence must bound the replay at
        // `checkpoint_every` everywhere.
        let cfg = SimulationConfig {
            eps: 0.05,
            cycles: 2,
            steps_per_cycle: 3,
            dt: 1.0 / 256.0,
            num_cores: 1,
            blocks: None,
        };
        let total = cfg.cycles * cfg.steps_per_cycle;
        let recovery = RecoveryConfig { checkpoint_every: 2, ..RecoveryConfig::default() };
        for lost_step in 1..=total {
            let dev = Device::new(0, DeviceConfig::default());
            // Launch events: initialize is #1, step i is #(i+1).
            dev.faults().schedule(FaultClass::DeviceLoss, (lost_step + 1) as u64);
            let mut sys = plummer(PlummerConfig { n: 64, seed: 105, ..PlummerConfig::default() });
            let out =
                run_simulation_resilient(&card(&dev, 64, cfg), &mut sys, cfg, recovery.clone())
                    .unwrap();
            assert_eq!(out.recoveries, 1, "loss at step {lost_step}");
            assert!(
                out.steps_replayed < recovery.checkpoint_every,
                "loss at step {lost_step}: replayed {} ≥ checkpoint_every {}",
                out.steps_replayed,
                recovery.checkpoint_every
            );
            assert_eq!(out.outcome.steps, total);
        }
    }

    #[test]
    fn repeated_device_loss_exhausts_recovery_budget() {
        use tensix::FaultConfig;

        let dev = Device::new(
            0,
            DeviceConfig {
                faults: FaultConfig { device_loss_prob: 1.0, ..FaultConfig::default() },
                ..DeviceConfig::default()
            },
        );
        let mut sys = plummer(PlummerConfig { n: 64, seed: 104, ..PlummerConfig::default() });
        let recovery = RecoveryConfig { max_recoveries: 1, ..RecoveryConfig::default() };
        let err = run_simulation_resilient(
            &card(&dev, 64, small_config()),
            &mut sys,
            small_config(),
            recovery,
        )
        .unwrap_err();
        assert!(matches!(err, LaunchError::DeviceLost { .. }), "{err:?}");
    }

    #[test]
    fn cpu_simulation_reports() {
        let mut sys = plummer(PlummerConfig { n: 64, seed: 102, ..PlummerConfig::default() });
        let out = run_simulation(&cpu(64, 0.05, 4), &mut sys, small_config());
        assert_eq!(out.kernel, "threaded");
        assert!(out.timing.is_none());
        assert!(out.energy_error < 1e-3);
        assert!(out.initial_energy < 0.0, "bound cluster");
    }

    #[test]
    fn spilled_checkpoints_restore_bitwise_and_charge_the_clock() {
        let cfg = SimulationConfig {
            eps: 0.05,
            cycles: 2,
            steps_per_cycle: 4,
            dt: 1.0 / 256.0,
            num_cores: 1,
            blocks: None,
        };
        let mk = || plummer(PlummerConfig { n: 256, seed: 106, ..PlummerConfig::default() });

        // In-memory reference with the same injected loss.
        let dev_mem = Device::new(0, DeviceConfig::default());
        dev_mem.faults().schedule(FaultClass::DeviceLoss, 6);
        let mut sys_mem = mk();
        let mem = run_simulation_resilient(
            &card(&dev_mem, 256, cfg),
            &mut sys_mem,
            cfg,
            RecoveryConfig::default(),
        )
        .unwrap();
        assert_eq!(mem.recoveries, 1);

        let spill = temp_spill("roundtrip");
        let dev = Device::new(0, DeviceConfig::default());
        dev.faults().schedule(FaultClass::DeviceLoss, 6);
        let mut sys = mk();
        let recovery = RecoveryConfig { spill: Some(spill.clone()), ..RecoveryConfig::default() };
        let out = run_simulation_resilient(&card(&dev, 256, cfg), &mut sys, cfg, recovery).unwrap();
        assert!(
            spill.checkpoints_on_disk().len() <= spill.keep_last,
            "retention must GC old spill files"
        );
        spill.cleanup();
        assert!(spill.checkpoints_on_disk().is_empty());

        assert_eq!(out.recoveries, 1);
        assert!(out.checkpoint_spills >= 2, "post-init + stride checkpoints hit disk");
        assert!(out.spill_seconds > 0.0, "spill writes must be charged");

        // Restoring through the disk file is invisible to the physics.
        assert_eq!(sys.pos, sys_mem.pos);
        assert_eq!(sys.vel, sys_mem.vel);
        assert_eq!(out.outcome.final_energy.to_bits(), mem.outcome.final_energy.to_bits());
        // The spill IO lands on the virtual clock.
        let t = out.outcome.timing.unwrap();
        let tm = mem.outcome.timing.unwrap();
        assert!((t.io_seconds - tm.io_seconds - out.spill_seconds).abs() < 1e-12);
    }

    #[test]
    fn corrupt_spill_is_rejected_on_restore() {
        let spill = temp_spill("corrupt");
        let ckpt = cpu_checkpoint(32, 107);
        write_checkpoint(&spill, &ckpt, 3).unwrap();

        // Round-trips clean first.
        let (restored, iteration) = read_checkpoint(&spill, 3).unwrap();
        assert_eq!(iteration, 3);
        assert_eq!(restored, ckpt);

        // Flip one payload bit: the content hash must catch it.
        let file = spill.file_for(3);
        let mut raw = std::fs::read(&file).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        std::fs::write(&file, &raw).unwrap();
        let err = read_checkpoint(&spill, 3).unwrap_err();
        assert!(err.to_string().contains("hash mismatch"), "{err}");
        spill.cleanup();
    }

    #[test]
    fn forged_checkpoint_header_is_a_typed_error() {
        // A header claiming n = 2^62 particles: sizing the payload from it
        // overflows, which must surface as the corrupt-checkpoint error
        // rather than an arithmetic panic or a wrapped length.
        let spill = temp_spill("forged");
        write_checkpoint(&spill, &cpu_checkpoint(16, 114), 0).unwrap();
        let file = spill.file_for(0);
        let mut raw = std::fs::read(&file).unwrap();
        raw[16..24].copy_from_slice(&(1u64 << 62).to_le_bytes());
        std::fs::write(&file, &raw).unwrap();
        let err = read_checkpoint(&spill, 0).unwrap_err();
        assert!(err.to_string().contains("particle count overflows"), "{err}");
        assert!(!err.is_transient() && !err.is_card_loss());
        spill.cleanup();
    }

    #[test]
    fn spill_retention_keeps_last_k_files() {
        let spill = SpillConfig { keep_last: 3, ..temp_spill("retention") };
        let mut sys = plummer(PlummerConfig { n: 16, seed: 110, ..PlummerConfig::default() });
        let eval = Arc::new(CpuForceEvaluator::new(ReferenceKernel::new(0.05), 16));
        let sched = BlockScheduler::new(eval, &mut sys, small_config(), RetryPolicy::disabled())
            .expect("CPU init cannot fault");
        let recovery = RecoveryConfig { spill: Some(spill.clone()), ..RecoveryConfig::default() };
        let mut store = BlockCheckpointStore::new(&recovery);
        for iteration in 0..10 {
            store.save(&sched, &sys, iteration).unwrap();
        }
        assert_eq!(store.spills, 10);
        assert_eq!(spill.checkpoints_on_disk(), vec![7, 8, 9], "only the newest 3 survive");
        // The newest checkpoint is what an external restore finds.
        let (_, iteration) = latest_checkpoint(&spill).unwrap();
        assert_eq!(iteration, 9);
        spill.cleanup();
    }

    #[test]
    fn unwritable_spill_directory_is_a_typed_error_not_a_panic() {
        let spill = SpillConfig::new(
            std::env::temp_dir().join("nbody-no-such-dir").join("sub").join("ckpt.bin"),
        );
        let err = write_checkpoint(&spill, &cpu_checkpoint(16, 111), 0).unwrap_err();
        assert!(
            matches!(err, LaunchError::Device(TensixError::CheckpointIo { .. })),
            "expected CheckpointIo, got {err:?}"
        );
        assert!(!err.is_transient(), "checkpoint IO failures must not be retried in place");
        // Reading a missing checkpoint is the same typed error.
        let err = latest_checkpoint(&spill).unwrap_err();
        assert!(matches!(err, LaunchError::Device(TensixError::CheckpointIo { .. })));
    }

    #[test]
    fn interrupted_run_resumes_on_a_different_backend_bitwise() {
        let cfg = SimulationConfig {
            eps: 0.05,
            cycles: 2,
            steps_per_cycle: 4,
            dt: 1.0 / 256.0,
            num_cores: 1,
            blocks: None,
        };
        let mk = || plummer(PlummerConfig { n: 128, seed: 112, ..PlummerConfig::default() });

        // Fault-free golden on card A's twin.
        let mut golden = mk();
        let clean_dev = Device::new(0, DeviceConfig::default());
        run_simulation_resilient(
            &card(&clean_dev, 128, cfg),
            &mut golden,
            cfg,
            RecoveryConfig::default(),
        )
        .unwrap();

        // Card A dies mid-run with no in-place recovery budget; the failure
        // surfaces, leaving the last spill on disk.
        let spill = temp_spill("migrate");
        let dev_a = Device::new(1, DeviceConfig::default());
        dev_a.faults().schedule(FaultClass::DeviceLoss, 6);
        let mut sys = mk();
        let recovery = RecoveryConfig {
            spill: Some(spill.clone()),
            max_recoveries: 0,
            checkpoint_every: 2,
            ..RecoveryConfig::default()
        };
        let err =
            run_simulation_resilient(&card(&dev_a, 128, cfg), &mut sys, cfg, recovery.clone())
                .unwrap_err();
        assert!(err.is_card_loss());

        // Migrate: restore the newest checkpoint and resume on card B.
        let (ckpt, iteration) = latest_checkpoint(&spill).unwrap();
        assert!(iteration > 0 && iteration < cfg.cycles * cfg.steps_per_cycle);
        let dev_b = Device::new(7, DeviceConfig::default());
        let mut resumed = mk();
        let out = resume_simulation_resilient(
            &card(&dev_b, 128, cfg),
            &mut resumed,
            &ckpt,
            iteration,
            cfg,
            recovery,
        )
        .unwrap();
        assert_eq!(out.outcome.steps, cfg.cycles * cfg.steps_per_cycle - iteration);
        assert_eq!(resumed.pos, golden.pos, "migrated tail must be bitwise identical");
        assert_eq!(resumed.vel, golden.vel);
        spill.cleanup();
    }

    #[test]
    fn resilient_driver_is_backend_agnostic() {
        // The CPU evaluator through the *same* generic resilient driver:
        // no retries or recoveries, but checkpoints and accounting flow.
        let mut sys = plummer(PlummerConfig { n: 64, seed: 108, ..PlummerConfig::default() });
        let out = run_simulation_resilient(
            &cpu(64, 0.05, 2),
            &mut sys,
            small_config(),
            RecoveryConfig::default(),
        )
        .unwrap();
        assert_eq!(out.outcome.kernel, "threaded");
        assert_eq!(out.recoveries, 0);
        assert!(out.outcome.timing.is_none());

        // And it matches the plain CPU run bitwise.
        let mut plain = plummer(PlummerConfig { n: 64, seed: 108, ..PlummerConfig::default() });
        let _ = run_simulation(&cpu(64, 0.05, 2), &mut plain, small_config());
        assert_eq!(sys.pos, plain.pos);
    }
}
