//! The deterministic virtual-time job server.
//!
//! One campaign = one call to [`run_campaign`]: a list of `(arrival time,
//! request)` pairs is replayed through a discrete-event loop over a fleet
//! of simulated backends. All time is *virtual* — arrival times come from
//! the load generator, service times from the device simulator's virtual
//! clock (or the modeled CPU rate) — so the loop is single-threaded,
//! wall-clock-free, and bitwise replayable: the same campaign seed and
//! arrival list produce the same per-job outcomes, the same quarantine
//! decisions, and the same census, every run.
//!
//! Lifecycle of one job:
//!
//! 1. **Admission** ([`crate::wfq::Admission`]): bounded global and
//!    per-tenant queues shed overload at the door with typed
//!    [`Rejection`]s.
//! 2. **Dispatch**: weighted-fair pick of the next job; queue-deadline
//!    enforcement (a job that waited past its deadline is shed, never
//!    silently dropped).
//! 3. **Execution** on a device backend under its storm-derived fault
//!    profile, with per-segment in-place recovery and checkpoint spill.
//! 4. **Migration**: a terminal fault strikes the backend's
//!    [`crate::breaker::Breaker`] and moves the job — via its newest
//!    on-disk checkpoint — to another device backend, resuming bitwise.
//! 5. **Degradation**: when no device backend can take the job (fleet
//!    quarantined or migration budget spent), it restarts on the host CPU
//!    evaluator: slower, never refused, typed as [`JobDisposition::DegradedCpu`].
//! 6. **Verification**: every completed job's final FP64 state is hashed
//!    and compared against a fault-free golden of its backend class, so
//!    the census can assert the zero-lost-jobs invariant.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;

use nbody::force::{SimdKernel, ThreadedKernel};
use nbody::ic::IcKind;
use nbody::particle::ParticleSystem;
use nbody_tt::{
    latest_checkpoint, resume_simulation_resilient, run_block_simulation, run_simulation,
    run_simulation_resilient, BlockCheckpoint, CpuForceEvaluator, DriverOutcome, ForceEvaluator,
    ForceKernelKind, MultiDevicePipeline, PipelineTiming, RecoveryConfig, RetryPolicy,
    SimulationConfig, SingleCardEvaluator, SpillConfig, TreeForceEvaluator,
};
use tensix::catalog::DeviceArch;
use tensix::{
    backend_storm, BackendStorm, Device, DeviceConfig, FaultClass, StormConfig, TensixError,
};
use tt_telemetry::serving::{JobDisposition, ServedJob, ServingCensus};
use tt_trace::serving::{JobPhase, JobSpanBuilder, JobSpanTree};
use tt_trace::TraceSink;
use ttmetal::LaunchError;

use crate::breaker::{Breaker, BreakerConfig};
use crate::job::{JobRequest, Rejection, TenantSpec};
use crate::recorder::{
    breaker_label, FlightConfig, FlightRecorder, Postmortem, ServerSnapshot, SlotSnapshot,
    TriggerKind,
};
use crate::wfq::{Admission, QueuedJob};

/// Shape of one backend in the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// One Wormhole card.
    SingleCard,
    /// A multi-card all-gather ring with a spare pool.
    Ring {
        /// Active ring members.
        members: usize,
        /// Hot spares promoted on member loss (absorbed without rollback).
        spares: usize,
    },
    /// Host Barnes-Hut tree code at opening angle θ = `theta_milli`/1000
    /// (integer so the kind stays `Copy + Eq + Hash` for golden keys).
    /// Storm-immune — no device to lose — but a distinct *backend class*:
    /// its forces differ from the FP32 device pipeline, so it verifies
    /// against its own goldens and jobs never migrate across classes.
    TreeHost {
        /// Opening angle in milli-units (600 → θ = 0.6).
        theta_milli: u32,
    },
}

/// Golden-compatibility class of a backend: two backends in the same class
/// produce bitwise-identical trajectories for the same request, so a job
/// may migrate between them and still match one golden.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendClass {
    /// FP32 tiled device pipelines (single cards and rings are
    /// bitwise-compatible by the ring-equivalence tests).
    Device,
    /// Host FP64 Barnes-Hut at a fixed opening angle.
    Tree {
        /// Opening angle in milli-units.
        theta_milli: u32,
    },
    /// Host FP64 direct-sum CPU evaluator (degradation target).
    Cpu,
}

impl BackendKind {
    fn label(self, slot: usize) -> String {
        match self {
            BackendKind::SingleCard => format!("card{slot}"),
            BackendKind::Ring { members, spares } => format!("ring{slot}x{members}+{spares}"),
            BackendKind::TreeHost { theta_milli } => format!("tree{slot}t{theta_milli}"),
        }
    }

    /// The golden-compatibility class of this backend.
    #[must_use]
    pub fn class(self) -> BackendClass {
        match self {
            BackendKind::SingleCard | BackendKind::Ring { .. } => BackendClass::Device,
            BackendKind::TreeHost { theta_milli } => BackendClass::Tree { theta_milli },
        }
    }
}

impl BackendClass {
    /// Stable label for span trees and attribution groups (`device`,
    /// `tree600`, `cpu`).
    #[must_use]
    pub fn label(self) -> String {
        match self {
            BackendClass::Device => "device".to_string(),
            BackendClass::Tree { theta_milli } => format!("tree{theta_milli}"),
            BackendClass::Cpu => "cpu".to_string(),
        }
    }
}

/// Server configuration: tenants, fleet, storm, and resilience budgets.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Tenant table (index = tenant id in requests).
    pub tenants: Vec<TenantSpec>,
    /// Device fleet.
    pub backends: Vec<BackendKind>,
    /// Fault storm the fleet serves through.
    pub storm: StormConfig,
    /// Global admission-queue bound.
    pub max_queue: usize,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Snapshot cadence of running jobs (steps between checkpoint spills).
    pub checkpoint_every: usize,
    /// In-place device-loss recoveries per segment before the loss becomes
    /// terminal and the job migrates.
    pub recoveries_per_segment: u32,
    /// Host CPU evaluator slots for dispatch-time degradation. Stranded
    /// jobs (migration budget spent) always get the CPU regardless.
    pub cpu_slots: usize,
    /// Modeled host-CPU force rate, pair interactions per virtual second.
    pub cpu_pairs_per_s: f64,
    /// Directory for per-job checkpoint spill files.
    pub spill_dir: PathBuf,
    /// Flight-recorder tuning (always-on bounded ring + post-mortems).
    pub flight: FlightConfig,
    /// Catalog part every fleet device is built as (grid + cost tables).
    pub arch: DeviceArch,
    /// Force kernel every device backend (and the device golden) launches.
    /// Single cards and rings stay bitwise-compatible per kernel kind, so
    /// the fleet runs one kind rather than mixing classes.
    pub force_kernel: ForceKernelKind,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            tenants: vec![TenantSpec::default()],
            backends: vec![BackendKind::SingleCard],
            storm: StormConfig::default(),
            max_queue: 256,
            breaker: BreakerConfig::default(),
            checkpoint_every: 2,
            recoveries_per_segment: 1,
            cpu_slots: 1,
            cpu_pairs_per_s: 2.0e8,
            spill_dir: std::env::temp_dir(),
            flight: FlightConfig::default(),
            arch: DeviceArch::n300(),
            force_kernel: ForceKernelKind::Elementwise,
        }
    }
}

/// Per-backend tally for the campaign report.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendReport {
    /// Backend label (`card0`, `ring1x2+1`, …).
    pub label: String,
    /// Jobs whose final segment completed here.
    pub completed: u64,
    /// Terminal faults charged here (each one migrated a job away).
    pub terminal_faults: u64,
    /// Times the breaker quarantined this backend.
    pub quarantines: u32,
    /// Spare promotions inside ring evaluations (rings only).
    pub failovers: u64,
}

/// Everything one campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-job rows, in job-id order.
    pub jobs: Vec<ServedJob>,
    /// Aggregated census (per-tenant p50/p99, shed counts, migrations).
    pub census: ServingCensus,
    /// Per-backend tallies.
    pub backends: Vec<BackendReport>,
    /// Total breaker trips across the fleet.
    pub quarantines: u64,
    /// Jobs that ran (or finished) on the CPU evaluator.
    pub cpu_fallbacks: u64,
    /// Order-independent digest of `(job_id, disposition, state_hash)` —
    /// two replays of the same campaign must produce equal digests.
    pub digest: u64,
    /// Per-job causal span trees in job-id order — one per admitted job,
    /// each tiling the job's sojourn on the virtual clock (the input to
    /// `tt_telemetry::attribution`).
    pub spans: Vec<JobSpanTree>,
    /// Flight-recorder triggers (golden mismatch / job loss / breaker
    /// trip), with dump paths where post-mortems were written.
    pub postmortems: Vec<Postmortem>,
    /// Events evicted from the flight-recorder ring over the campaign.
    pub flight_dropped: u64,
}

// ---------------------------------------------------------------------------
// Internals.
// ---------------------------------------------------------------------------

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// FNV-1a over the FP64 bit patterns of positions and velocities — the
/// bitwise-identity fingerprint of a final state.
#[must_use]
pub fn state_hash(system: &ParticleSystem) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for field in [&system.pos, &system.vel] {
        for v in field {
            for &c in v {
                fnv1a(&mut h, &c.to_bits().to_le_bytes());
            }
        }
    }
    h
}

fn mix(a: u64, b: u64) -> u64 {
    // splitmix64 of a ^ rotated b: cheap seed derivation.
    let mut z = a ^ b.rotate_left(23) ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvKind {
    Arrival(usize),
    /// A device slot's busy window ended.
    SlotFree(usize),
    /// A quarantine window ended (probation begins).
    QuarantineEnd(usize),
    /// A CPU slot freed up.
    CpuFree,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ev {
    /// Virtual time as monotone bits (non-negative finite f64 only).
    t_bits: u64,
    seq: u64,
    kind: EvKind,
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.t_bits, self.seq).cmp(&(other.t_bits, other.seq))
    }
}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Idle,
    Busy,
}

struct Slot {
    kind: BackendKind,
    storm: BackendStorm,
    state: SlotState,
    breaker: Breaker,
    completed: u64,
    terminal_faults: u64,
    failovers: u64,
    /// Segments started here — salts each segment's device seeds.
    segments: u64,
}

/// Golden cache key: backend class + everything that shapes the physics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GoldenKey {
    class: BackendClass,
    n: usize,
    ic: IcKind,
    ic_seed: u64,
    cycles: usize,
    steps_per_cycle: usize,
    dt_bits: u64,
    eps_bits: u64,
    num_cores: usize,
    /// Block-step spec, `(eta bits, levels)` — a block job and a shared-step
    /// job with otherwise equal specs follow different trajectories.
    blocks: Option<(u64, u32)>,
}

impl GoldenKey {
    fn new(class: BackendClass, req: &JobRequest) -> Self {
        GoldenKey {
            class,
            n: req.n,
            ic: req.ic,
            ic_seed: req.ic_seed,
            cycles: req.sim.cycles,
            steps_per_cycle: req.sim.steps_per_cycle,
            dt_bits: req.sim.dt.to_bits(),
            eps_bits: req.sim.eps.to_bits(),
            num_cores: req.sim.num_cores,
            blocks: req.sim.blocks.map(|b| (b.eta.to_bits(), b.levels)),
        }
    }
}

struct Campaign<'a> {
    cfg: &'a ServerConfig,
    slots: Vec<Slot>,
    adm: Admission,
    heap: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    cpu_busy: usize,
    arrivals: Vec<(f64, JobRequest)>,
    jobs: Vec<ServedJob>,
    goldens: HashMap<GoldenKey, u64>,
    quarantines: u64,
    cpu_fallbacks: u64,
    trace: Option<&'a dyn TraceSink>,
    recorder: FlightRecorder,
    spans: Vec<JobSpanTree>,
}

/// What one device segment produced. The outcome is boxed: `Done` would
/// otherwise dwarf `Failed` (clippy's large-variant lint).
enum Segment {
    Done { outcome: Box<DriverOutcome>, system: ParticleSystem, service_s: f64 },
    Failed { error: LaunchError, service_s: f64, retries: u64 },
}

fn timing_seconds(t: &PipelineTiming) -> f64 {
    t.device_seconds + t.io_seconds
}

/// A job's newest checkpoint and the iteration it was taken at.
type Resume = (BlockCheckpoint, usize);

/// Run one device segment of a job on `eval`: from its start, or resumed
/// mid-run from a migrated checkpoint.
fn drive_segment<E: ForceEvaluator>(
    eval: &Arc<E>,
    system: &mut ParticleSystem,
    resume: Option<&Resume>,
    sim: SimulationConfig,
    recovery: RecoveryConfig,
) -> Result<DriverOutcome, LaunchError> {
    match resume {
        Some((ckpt, iteration)) => {
            resume_simulation_resilient(eval, system, ckpt, *iteration, sim, recovery)
        }
        None => run_simulation_resilient(eval, system, sim, recovery),
    }
}

/// The host CPU evaluator a degraded job (and its CPU golden) runs on.
fn cpu_evaluator(req: &JobRequest) -> Arc<CpuForceEvaluator<ThreadedKernel<SimdKernel>>> {
    Arc::new(CpuForceEvaluator::new(ThreadedKernel::new(SimdKernel::new(req.sim.eps), 1), req.n))
}

/// Tree tuning for a fleet slot: θ from the backend kind, default leaf
/// size, single-threaded walk (any thread count is bitwise-identical; one
/// thread keeps the serving loop's host footprint predictable).
fn tree_config(theta_milli: u32) -> nbody_tt::TreeConfig {
    nbody_tt::TreeConfig {
        theta: f64::from(theta_milli) / 1000.0,
        threads: 1,
        ..nbody_tt::TreeConfig::default()
    }
}

impl<'a> Campaign<'a> {
    fn push(&mut self, t: f64, kind: EvKind) {
        assert!(t.is_finite() && t >= 0.0, "virtual time must be non-negative finite");
        self.seq += 1;
        self.heap.push(Reverse(Ev { t_bits: t.to_bits(), seq: self.seq, kind }));
    }

    /// One server event, fanned out to the (optional) device-trace sink
    /// and to the always-on flight-recorder ring at virtual time `t_s`.
    fn note(&mut self, t_s: f64, name: &str, args: &[(&str, u64)]) {
        if let Some(sink) = self.trace {
            sink.host_instant(name, args);
        }
        self.recorder.note(t_s, name, args);
    }

    /// Point-in-time server state for a post-mortem dump.
    fn snapshot(&self, t_s: f64) -> ServerSnapshot {
        ServerSnapshot {
            t_s,
            queue_depth: self.adm.depth(),
            tenant_depths: (0..self.cfg.tenants.len()).map(|t| self.adm.tenant_depth(t)).collect(),
            cpu_busy: self.cpu_busy,
            quarantines: self.quarantines,
            jobs_recorded: self.jobs.len(),
            slots: self
                .slots
                .iter()
                .enumerate()
                .map(|(i, s)| SlotSnapshot {
                    label: s.kind.label(i),
                    busy: s.state == SlotState::Busy,
                    breaker: breaker_label(s.breaker.state()),
                    completed: s.completed,
                    terminal_faults: s.terminal_faults,
                    trips: s.breaker.trips,
                })
                .collect(),
        }
    }

    /// Close a finished span tree into the report. A malformed tree is an
    /// emitter bug, not a servable condition — fail loudly.
    fn close_span(&mut self, jb: JobSpanBuilder, outcome: &str, class: &str, finish_s: f64) {
        let tree = jb
            .finish(outcome, class, finish_s)
            .unwrap_or_else(|e| panic!("span emitter produced a malformed tree: {e}"));
        self.spans.push(tree);
    }

    /// Fresh seeded devices for segment `segment` of backend `slot`.
    fn devices(&self, slot: usize, segment: u64, count: usize, base: usize) -> Vec<Arc<Device>> {
        (0..count)
            .map(|m| {
                let seed =
                    mix(self.cfg.storm.seed, mix(slot as u64, segment ^ ((base + m) as u64) << 48));
                Device::new(
                    base + m,
                    DeviceConfig {
                        seed,
                        faults: self.slots[slot].storm.faults,
                        reset_failure_prob: 0.0,
                        ..self.cfg.arch.device_config()
                    },
                )
            })
            .collect()
    }

    /// Run one device segment of `req` on `slot`, either from scratch or
    /// resumed from a migrated checkpoint.
    fn run_segment(
        &mut self,
        slot: usize,
        req: &JobRequest,
        resume: Option<&Resume>,
        spill: &SpillConfig,
    ) -> Segment {
        let segment = self.slots[slot].segments;
        self.slots[slot].segments += 1;
        let recovery = RecoveryConfig {
            checkpoint_every: self.cfg.checkpoint_every,
            retry: RetryPolicy::jittered(mix(self.cfg.storm.seed, req.job_id)),
            max_recoveries: self.cfg.recoveries_per_segment,
            spill: Some(spill.clone()),
        };
        let mut system = req.ics();

        let kind = self.slots[slot].kind;
        let scheduled = self.slots[slot].storm.scheduled_losses.clone();
        match kind {
            BackendKind::SingleCard => {
                let dev = self.devices(slot, segment, 1, 0).remove(0);
                for &at in &scheduled {
                    dev.faults().schedule(FaultClass::DeviceLoss, at);
                }
                let eval = match SingleCardEvaluator::new_with_kernel(
                    Arc::clone(&dev),
                    req.n,
                    req.sim.eps,
                    req.sim.num_cores,
                    self.cfg.force_kernel,
                ) {
                    Ok(e) => Arc::new(e),
                    Err(e) => {
                        return Segment::Failed {
                            error: LaunchError::from(e),
                            service_s: 0.0,
                            retries: 0,
                        }
                    }
                };
                let result = drive_segment(&eval, &mut system, resume, req.sim, recovery);
                match result {
                    Ok(outcome) => {
                        let service_s = outcome.outcome.timing.as_ref().map_or(0.0, timing_seconds);
                        Segment::Done { outcome: Box::new(outcome), system, service_s }
                    }
                    Err(error) => {
                        let t = eval.timing().unwrap_or_default();
                        Segment::Failed { error, service_s: timing_seconds(&t), retries: t.retries }
                    }
                }
            }
            BackendKind::Ring { members, spares } => {
                let devs = self.devices(slot, segment, members, 0);
                let spare_devs = self.devices(slot, segment, spares, members);
                for &at in &scheduled {
                    devs[0].faults().schedule(FaultClass::DeviceLoss, at);
                }
                let ring = match MultiDevicePipeline::with_spares_kernel(
                    &devs,
                    &spare_devs,
                    req.n,
                    req.sim.eps,
                    req.sim.num_cores,
                    self.cfg.force_kernel,
                ) {
                    Ok(r) => Arc::new(r),
                    Err(e) => {
                        return Segment::Failed {
                            error: LaunchError::from(e),
                            service_s: 0.0,
                            retries: 0,
                        }
                    }
                };
                let result = drive_segment(&ring, &mut system, resume, req.sim, recovery);
                let rt = MultiDevicePipeline::timing(&ring);
                self.slots[slot].failovers += rt.failovers;
                match result {
                    Ok(mut outcome) => {
                        outcome.failovers = rt.failovers;
                        let service_s = rt.device_seconds
                            + rt.comm_seconds
                            + outcome.outcome.timing.as_ref().map_or(0.0, |t| t.io_seconds);
                        Segment::Done { outcome: Box::new(outcome), system, service_s }
                    }
                    Err(error) => Segment::Failed {
                        error,
                        service_s: rt.device_seconds + rt.comm_seconds + rt.pipeline.io_seconds,
                        retries: rt.pipeline.retries,
                    },
                }
            }
            BackendKind::TreeHost { theta_milli } => {
                // No device, no storm: the tree backend's faults are the
                // host's (none in this model). Service time is charged from
                // the evaluator's deterministic interaction counts at the
                // modeled host rate, not wall clock, so replays stay
                // bitwise.
                let eval = Arc::new(TreeForceEvaluator::host(
                    req.n,
                    req.sim.eps,
                    tree_config(theta_milli),
                ));
                let result = drive_segment(&eval, &mut system, resume, req.sim, recovery);
                match result {
                    Ok(outcome) => {
                        // The walk counters tally only evaluated (active)
                        // targets, so block jobs are charged their actual
                        // active-count interactions here with no extra case.
                        let service_s =
                            eval.tree_cost().total_interactions() as f64 / self.cfg.cpu_pairs_per_s;
                        Segment::Done { outcome: Box::new(outcome), system, service_s }
                    }
                    Err(error) => Segment::Failed { error, service_s: 0.0, retries: 0 },
                }
            }
        }
    }

    /// Fault-free golden fingerprint for `req` on the given backend class,
    /// computed once per distinct spec and cached.
    fn golden(&mut self, class: BackendClass, req: &JobRequest) -> u64 {
        let key = GoldenKey::new(class, req);
        if let Some(&h) = self.goldens.get(&key) {
            return h;
        }
        let mut system = req.ics();
        let _ = match class {
            BackendClass::Cpu => run_simulation(&cpu_evaluator(req), &mut system, req.sim),
            BackendClass::Device => {
                let dev = Device::new(
                    usize::MAX / 2, // outside fleet ids; fault-free
                    DeviceConfig { reset_failure_prob: 0.0, ..self.cfg.arch.device_config() },
                );
                let eval = Arc::new(
                    SingleCardEvaluator::new_with_kernel(
                        dev,
                        req.n,
                        req.sim.eps,
                        req.sim.num_cores,
                        self.cfg.force_kernel,
                    )
                    .expect("fault-free golden pipeline construction"),
                );
                run_simulation(&eval, &mut system, req.sim)
            }
            BackendClass::Tree { theta_milli } => {
                let eval = Arc::new(TreeForceEvaluator::host(
                    req.n,
                    req.sim.eps,
                    tree_config(theta_milli),
                ));
                run_simulation(&eval, &mut system, req.sim)
            }
        };
        let h = state_hash(&system);
        self.goldens.insert(key, h);
        h
    }

    /// Record a typed shed. `jb` carries the span tree of a job that got
    /// past admission (queue + any attempts so far); sheds at the door
    /// get a fresh queue-only tree covering `[arrival_s, now_s]`.
    fn record_shed(
        &mut self,
        job: &JobRequest,
        arrival_s: f64,
        now_s: f64,
        why: &Rejection,
        jb: Option<JobSpanBuilder>,
    ) {
        self.note(now_s, "job_shed", &[("job", job.job_id), ("tenant", job.tenant as u64)]);
        let jb = jb.unwrap_or_else(|| {
            let mut jb = JobSpanBuilder::new(job.job_id, job.tenant, arrival_s);
            jb.begin(JobPhase::Queue, None, "-", 0, arrival_s);
            jb.end(now_s, 0);
            jb
        });
        self.close_span(jb, "shed", "-", now_s);
        let snap = self.snapshot(now_s);
        self.recorder.trigger(TriggerKind::JobLoss, Some(job.job_id), &why.reason(), &snap);
        self.jobs.push(ServedJob {
            job_id: job.job_id,
            tenant: job.tenant,
            n: job.n,
            arrival_s,
            start_s: now_s,
            finish_s: now_s,
            backend: "-".into(),
            disposition: JobDisposition::Shed { reason: why.reason() },
            migrations: 0,
            recoveries: 0,
            retries: 0,
            state_hash: 0,
            bitwise_golden: None,
        });
    }

    /// A device slot is dispatchable if idle and its breaker admits.
    fn idle_device_slot(&self, now_s: f64) -> Option<usize> {
        self.slots.iter().position(|s| s.state == SlotState::Idle && s.breaker.admits(now_s))
    }

    /// True when no device slot could possibly take a job soon: none busy
    /// (nothing will free up) and none admitting (all quarantined).
    fn fleet_exhausted(&self, now_s: f64) -> bool {
        self.slots.iter().all(|s| s.state == SlotState::Idle && !s.breaker.admits(now_s))
    }

    /// Pop the WFQ-next job that has not blown its queue deadline; shed the
    /// expired ones typed.
    fn next_live_job(&mut self, now_s: f64) -> Option<QueuedJob> {
        while let Some(job) = self.adm.take_next() {
            let waited = now_s - job.arrival_s;
            if waited > job.req.deadline_s {
                let why = Rejection::DeadlineExceeded { waited_s: waited };
                self.record_shed(&job.req, job.arrival_s, now_s, &why, None);
                continue;
            }
            return Some(job);
        }
        None
    }

    /// Execute `job` starting on device slot `first`, migrating on terminal
    /// faults, degrading to CPU when the device options run out.
    fn execute_on_device(&mut self, first: usize, job: QueuedJob, now_s: f64) {
        let req = job.req;
        let spill = SpillConfig {
            keep_last: 2,
            ..SpillConfig::new(self.cfg.spill_dir.join(format!("serve-job{}.ckpt", req.job_id)))
        };
        let mut slot = first;
        let mut elapsed = 0.0f64;
        let mut migrations: u32 = 0;
        let mut retries: u64 = 0;
        let mut recoveries: u32 = 0;
        let mut resume: Option<Resume> = None;
        // Span tree: queue phase [arrival, dispatch], then one phase per
        // attempt starting at `seg_start` (service or retry, plus
        // zero-width migration markers between attempts).
        let mut jb = JobSpanBuilder::new(req.job_id, req.tenant, job.arrival_s);
        jb.begin(JobPhase::Queue, None, "-", 0, job.arrival_s);
        jb.end(now_s, 0);
        let mut attempt: u32 = 1;
        let mut seg_start = now_s;

        self.slots[slot].state = SlotState::Busy;
        self.note(now_s, "job_dispatch", &[("job", req.job_id), ("slot", slot as u64)]);

        loop {
            let segment = self.run_segment(slot, &req, resume.as_ref(), &spill);
            match segment {
                Segment::Done { outcome, system, service_s } => {
                    elapsed += service_s;
                    let finish = now_s + elapsed;
                    let seg_retries = outcome.outcome.timing.as_ref().map_or(0, |t| t.retries);
                    retries += seg_retries;
                    recoveries += outcome.recoveries;
                    self.push(finish, EvKind::SlotFree(slot));
                    self.slots[slot].breaker.record_success();
                    self.slots[slot].completed += 1;
                    let class = self.slots[slot].kind.class();
                    let label = self.slots[slot].kind.label(slot);
                    let golden = self.golden(class, &req);
                    let h = state_hash(&system);
                    self.note(
                        finish,
                        "job_complete",
                        &[("job", req.job_id), ("slot", slot as u64)],
                    );
                    jb.begin(JobPhase::Service, Some(slot as u32), &label, attempt, seg_start);
                    jb.end(finish, seg_retries);
                    self.close_span(jb, "device", &class.label(), finish);
                    if h != golden {
                        let snap = self.snapshot(finish);
                        self.recorder.trigger(
                            TriggerKind::GoldenMismatch,
                            Some(req.job_id),
                            &format!("state {h:#018x} != golden {golden:#018x} on {label}"),
                            &snap,
                        );
                    }
                    self.jobs.push(ServedJob {
                        job_id: req.job_id,
                        tenant: req.tenant,
                        n: req.n,
                        arrival_s: job.arrival_s,
                        start_s: now_s,
                        finish_s: finish,
                        backend: self.slots[slot].kind.label(slot),
                        disposition: JobDisposition::CompletedDevice,
                        migrations,
                        recoveries,
                        retries,
                        state_hash: h,
                        bitwise_golden: Some(h == golden),
                    });
                    spill.cleanup();
                    return;
                }
                Segment::Failed { error, service_s, retries: r } => {
                    elapsed += service_s;
                    retries += r;
                    let fault_t = now_s + elapsed;
                    let label = self.slots[slot].kind.label(slot);
                    // The failed attempt is a retry phase: work and backoff
                    // the terminal fault threw away.
                    jb.begin(JobPhase::Retry, Some(slot as u32), &label, attempt, seg_start);
                    jb.end(fault_t, r);
                    seg_start = fault_t;
                    // The slot frees at the fault; the breaker decides
                    // whether it is dispatchable after that.
                    self.push(fault_t, EvKind::SlotFree(slot));
                    self.slots[slot].terminal_faults += 1;
                    if let Some(until) = self.slots[slot].breaker.record_fault(fault_t) {
                        self.quarantines += 1;
                        self.push(until, EvKind::QuarantineEnd(slot));
                        self.note(
                            fault_t,
                            "backend_quarantined",
                            &[
                                ("slot", slot as u64),
                                ("trips", u64::from(self.slots[slot].breaker.trips)),
                            ],
                        );
                        let snap = self.snapshot(fault_t);
                        self.recorder.trigger(
                            TriggerKind::BreakerTrip,
                            Some(req.job_id),
                            &format!(
                                "{label} tripped (trip {}) at fault of job {}",
                                self.slots[slot].breaker.trips, req.job_id
                            ),
                            &snap,
                        );
                    }

                    // Checkpoint IO failure: neither recovery nor migration
                    // can be guaranteed — shed, typed.
                    if let LaunchError::Device(TensixError::CheckpointIo { ref message, .. }) =
                        error
                    {
                        let why = Rejection::CheckpointUnavailable { message: message.clone() };
                        self.record_shed(&req, job.arrival_s, fault_t, &why, Some(jb));
                        spill.cleanup();
                        return;
                    }

                    // Migrate: restore the newest checkpoint and resume on
                    // another admitting slot *of the same backend class* —
                    // a checkpoint resumed across classes (device ↔ tree)
                    // would finish with a state matching neither golden.
                    // (The failed slot is still Busy until its SlotFree
                    // fires, so it is never re-picked here.)
                    let class = self.slots[slot].kind.class();
                    let target = (migrations < req.max_migrations)
                        .then(|| {
                            self.slots.iter().position(|s| {
                                s.state == SlotState::Idle
                                    && s.kind.class() == class
                                    && s.breaker.admits(fault_t)
                            })
                        })
                        .flatten();
                    match target {
                        Some(next) => {
                            // Resume from the newest checkpoint: shared and
                            // block jobs alike, block jobs mid-hierarchy.
                            if spill.checkpoints_on_disk().is_empty() {
                                // The loss landed before the first checkpoint
                                // (during init): nothing was computed yet, so
                                // the migrated segment restarts from the start.
                                resume = None;
                            } else {
                                match latest_checkpoint(&spill) {
                                    Ok(newest) => resume = Some(newest),
                                    Err(e) => {
                                        // Corrupt checkpoint: typed shed.
                                        let why = Rejection::CheckpointUnavailable {
                                            message: e.to_string(),
                                        };
                                        self.record_shed(
                                            &req,
                                            job.arrival_s,
                                            fault_t,
                                            &why,
                                            Some(jb),
                                        );
                                        spill.cleanup();
                                        return;
                                    }
                                }
                            }
                            migrations += 1;
                            attempt += 1;
                            slot = next;
                            self.slots[slot].state = SlotState::Busy;
                            // Checkpoint restore is modeled free today; the
                            // zero-width phase marks where its cost belongs.
                            let label = self.slots[slot].kind.label(slot);
                            jb.begin(
                                JobPhase::Migration,
                                Some(slot as u32),
                                &label,
                                attempt,
                                fault_t,
                            );
                            jb.end(fault_t, 0);
                            self.note(
                                fault_t,
                                "job_migrate",
                                &[("job", req.job_id), ("to", slot as u64)],
                            );
                            continue;
                        }
                        _ => {
                            // No device can take it: graceful degradation.
                            // The CPU evaluator restarts from step 0 (its
                            // arithmetic differs bitwise from the device
                            // class, so resuming a device checkpoint would
                            // produce a state matching *neither* golden).
                            spill.cleanup();
                            self.finish_on_cpu(
                                req,
                                job.arrival_s,
                                now_s,
                                fault_t,
                                migrations,
                                recoveries,
                                retries,
                                jb,
                                attempt + 1,
                            );
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Run `req` to completion on the host CPU evaluator, starting at
    /// virtual time `start_service_s` (infallible; always accepted). `jb`
    /// is the job's span tree so far (queue + any device attempts); the
    /// CPU service becomes its closing degrade phase, numbered `attempt`.
    /// Returns the virtual finish time so the caller can free the CPU slot.
    #[allow(clippy::too_many_arguments)]
    fn finish_on_cpu(
        &mut self,
        req: JobRequest,
        arrival_s: f64,
        start_s: f64,
        start_service_s: f64,
        migrations: u32,
        recoveries: u32,
        retries: u64,
        mut jb: JobSpanBuilder,
        attempt: u32,
    ) -> f64 {
        self.cpu_fallbacks += 1;
        let mut system = req.ics();
        // Active-count accounting: a job is charged the particle evaluations
        // its launches actually ran (× n sources each) — for a block job
        // that is below the shared-step every-particle-every-step ceiling.
        let out = run_block_simulation(&cpu_evaluator(&req), &mut system, req.sim)
            .unwrap_or_else(|e| panic!("host CPU evaluator cannot fault: {e}"));
        let service_s =
            out.report.particle_evaluations as f64 * req.n as f64 / self.cfg.cpu_pairs_per_s;
        let finish = start_service_s + service_s;
        let golden = self.golden(BackendClass::Cpu, &req);
        let h = state_hash(&system);
        self.note(finish, "job_degraded_cpu", &[("job", req.job_id)]);
        jb.begin(JobPhase::Degrade, None, "cpu", attempt, start_service_s);
        jb.end(finish, 0);
        self.close_span(jb, "cpu-degraded", "cpu", finish);
        if h != golden {
            let snap = self.snapshot(finish);
            self.recorder.trigger(
                TriggerKind::GoldenMismatch,
                Some(req.job_id),
                &format!("state {h:#018x} != golden {golden:#018x} on cpu"),
                &snap,
            );
        }
        self.jobs.push(ServedJob {
            job_id: req.job_id,
            tenant: req.tenant,
            n: req.n,
            arrival_s,
            start_s,
            finish_s: finish,
            backend: "cpu".into(),
            disposition: JobDisposition::DegradedCpu,
            migrations,
            recoveries,
            retries,
            state_hash: h,
            bitwise_golden: Some(h == golden),
        });
        finish
    }

    /// Dispatch as many queued jobs as the fleet can take at `now_s`.
    fn dispatch(&mut self, now_s: f64) {
        loop {
            if let Some(slot) = self.idle_device_slot(now_s) {
                let Some(job) = self.next_live_job(now_s) else { return };
                self.execute_on_device(slot, job, now_s);
            } else if self.fleet_exhausted(now_s) && self.cpu_busy < self.cfg.cpu_slots {
                // Every device is quarantined and none is even busy: serve
                // on the CPU rather than let the queue rot to its deadlines.
                let Some(job) = self.next_live_job(now_s) else { return };
                self.cpu_busy += 1;
                let mut jb = JobSpanBuilder::new(job.req.job_id, job.req.tenant, job.arrival_s);
                jb.begin(JobPhase::Queue, None, "-", 0, job.arrival_s);
                jb.end(now_s, 0);
                let finish =
                    self.finish_on_cpu(job.req, job.arrival_s, now_s, now_s, 0, 0, 0, jb, 1);
                self.push(finish, EvKind::CpuFree);
            } else {
                return;
            }
        }
    }

    fn run(mut self) -> CampaignReport {
        for i in 0..self.arrivals.len() {
            let t = self.arrivals[i].0;
            self.push(t, EvKind::Arrival(i));
        }
        while let Some(Reverse(ev)) = self.heap.pop() {
            let now_s = f64::from_bits(ev.t_bits);
            match ev.kind {
                EvKind::Arrival(i) => {
                    let (arrival_s, req) = self.arrivals[i];
                    self.note(
                        arrival_s,
                        "job_arrive",
                        &[("job", req.job_id), ("tenant", req.tenant as u64)],
                    );
                    if let Err(why) = self.adm.offer(req, arrival_s) {
                        self.record_shed(&req, arrival_s, arrival_s, &why, None);
                    }
                }
                EvKind::SlotFree(slot) => {
                    self.slots[slot].state = SlotState::Idle;
                }
                EvKind::QuarantineEnd(slot) => {
                    self.slots[slot].breaker.tick(now_s);
                }
                EvKind::CpuFree => {
                    self.cpu_busy = self.cpu_busy.saturating_sub(1);
                }
            }
            self.dispatch(now_s);
        }

        self.jobs.sort_by_key(|j| j.job_id);
        self.spans.sort_by_key(|t| t.job_id);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for j in &self.jobs {
            fnv1a(&mut digest, &j.job_id.to_le_bytes());
            fnv1a(&mut digest, j.disposition.tag().as_bytes());
            fnv1a(&mut digest, &j.state_hash.to_le_bytes());
        }
        let census = ServingCensus::from_jobs(&self.jobs);
        let backends = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| BackendReport {
                label: s.kind.label(i),
                completed: s.completed,
                terminal_faults: s.terminal_faults,
                quarantines: s.breaker.trips,
                failovers: s.failovers,
            })
            .collect();
        CampaignReport {
            jobs: self.jobs,
            census,
            backends,
            quarantines: self.quarantines,
            cpu_fallbacks: self.cpu_fallbacks,
            digest,
            spans: self.spans,
            postmortems: self.recorder.take_postmortems(),
            flight_dropped: self.recorder.dropped(),
        }
    }
}

/// Run one serving campaign: replay `arrivals` through the fleet under the
/// configured storm and return every job's outcome plus the census.
///
/// Arrivals may be in any order; they are replayed in `(time, job_id)`
/// order. Pass a [`TraceSink`] to get server-level instants
/// (`job_arrive` / `job_dispatch` / `job_migrate` / `backend_quarantined` /
/// `job_complete` / `job_shed` / `job_degraded_cpu`) in the device trace.
///
/// # Panics
/// Panics on non-finite arrival times and on tenant tables with
/// non-positive weights.
#[must_use]
pub fn run_campaign(
    cfg: &ServerConfig,
    arrivals: &[(f64, JobRequest)],
    trace: Option<&dyn TraceSink>,
) -> CampaignReport {
    let mut sorted = arrivals.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.job_id.cmp(&b.1.job_id)));
    let slots = cfg
        .backends
        .iter()
        .enumerate()
        .map(|(i, &kind)| Slot {
            kind,
            storm: backend_storm(&cfg.storm, i),
            state: SlotState::Idle,
            breaker: Breaker::new(cfg.breaker),
            completed: 0,
            terminal_faults: 0,
            failovers: 0,
            segments: 0,
        })
        .collect();
    Campaign {
        cfg,
        slots,
        adm: Admission::new(&cfg.tenants, cfg.max_queue),
        heap: BinaryHeap::new(),
        seq: 0,
        cpu_busy: 0,
        arrivals: sorted,
        jobs: Vec::new(),
        goldens: HashMap::new(),
        quarantines: 0,
        cpu_fallbacks: 0,
        trace,
        recorder: FlightRecorder::new(cfg.flight.clone()),
        spans: Vec::new(),
    }
    .run()
}
