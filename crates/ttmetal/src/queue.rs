//! Command queue: host↔device transfers and program execution.
//!
//! Mirrors TT-Metalium's `CommandQueue` (`EnqueueWriteBuffer`,
//! `EnqueueReadBuffer`, `EnqueueProgram`, `Finish`). One simplification: in
//! the simulator `enqueue_program` executes synchronously and returns a
//! [`ProgramReport`]; `finish` therefore only reports accumulated virtual
//! time. The *device-side* concurrency the paper relies on — reader, compute
//! and writer kernels overlapping through CBs across many cores — is real:
//! each kernel instance runs on its own OS thread.
//!
//! The queue also acts as the **launch supervisor**: kernel panics, CB and
//! semaphore watchdog timeouts, injected compute stalls and mid-run device
//! loss are caught, sibling kernels are torn down cleanly (poisoned CBs and
//! semaphores plus a cancel token, never a hung host thread), and the root
//! cause is reported as a structured [`LaunchError`] naming the faulting
//! kernel and core.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use tensix::cb::{CbStats, CircularBuffer};
use tensix::clock::{program_seconds, KernelTiming};
use tensix::fault::{InterruptKind, KernelInterrupt};
use tensix::grid::CoreCoord;
use tensix::{Device, Result, TensixError, Tile};
use tt_trace::{RiscRole, SpanEmitter, TraceSink};

use crate::buffer::Buffer;
use crate::context::{CbMap, ComputeCtx, DataMovementCtx, SemMap};
use crate::error::{CoreProgress, LaunchError};
use crate::program::{KernelBody, Program};
use crate::semaphore::Semaphore;

/// Effective host↔device bandwidth over PCIe 4.0 x16, bytes/s.
pub const PCIE_BYTES_PER_S: f64 = 24.0e9;

/// Lifetime statistics of one circular-buffer instance, surfaced per
/// launch. The simulator always counts these ([`CbStats`]); this report
/// is how they leave the device instead of dying with the CB at program
/// teardown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbReport {
    /// Core the CB lives on.
    pub core: CoreCoord,
    /// Flattened grid index of `core` (matches `KernelTiming::core_index`).
    pub core_index: usize,
    /// CB index (see [`crate::kernel::cb_index`]).
    pub index: u8,
    /// Push/pop/occupancy/stall counts over the launch.
    pub stats: CbStats,
}

/// Outcome of one program execution.
#[derive(Debug, Clone)]
pub struct ProgramReport {
    /// Device time of the program: the slowest kernel instance, since the
    /// pipeline overlaps everything else.
    pub seconds: f64,
    /// Per-kernel-instance timings.
    pub timings: Vec<KernelTiming>,
    /// Per-CB statistics, sorted by `(core_index, index)`.
    pub cb_stats: Vec<CbReport>,
}

/// Virtual-time cost of the most recent *failed* launch, kept by the queue so
/// retry policies can bill the discarded attempt (its cycles never enter the
/// queue's `program_seconds`).
#[derive(Debug, Clone)]
pub struct FailedLaunch {
    /// Virtual seconds the failed attempt occupied the device (slowest
    /// surviving kernel instance).
    pub seconds: f64,
    /// Per-kernel-instance timings of the failed attempt (stalled instances
    /// report zero cycles).
    pub timings: Vec<KernelTiming>,
    /// Per-CB statistics of the failed attempt, sorted by
    /// `(core_index, index)`.
    pub cb_stats: Vec<CbReport>,
}

/// Shared flag that wakes a stalled kernel thread early when a sibling
/// fault already tore the program down.
#[derive(Clone)]
struct CancelToken(Arc<(Mutex<bool>, Condvar)>);

impl CancelToken {
    fn new() -> Self {
        CancelToken(Arc::new((Mutex::new(false), Condvar::new())))
    }

    fn cancel(&self) {
        let (lock, cvar) = &*self.0;
        *lock.lock() = true;
        cvar.notify_all();
    }

    /// Wait until cancelled or `timeout` elapses. Returns whether the token
    /// was cancelled.
    fn wait(&self, timeout: Duration) -> bool {
        let (lock, cvar) = &*self.0;
        let mut done = lock.lock();
        while !*done {
            if cvar.wait_for(&mut done, timeout).timed_out() {
                break;
            }
        }
        *done
    }
}

/// Root-cause priority, ascending: a poisoned sibling is always a victim, a
/// genuine stall always the cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum AbortKind {
    Poisoned,
    Deadlock,
    Panic,
    Stall,
}

#[derive(Debug)]
struct KernelAbort {
    kind: AbortKind,
    kernel: String,
    core: CoreCoord,
    message: String,
}

fn classify_abort(label: &str, core: CoreCoord, e: Box<dyn std::any::Any + Send>) -> KernelAbort {
    let e = match e.downcast::<KernelInterrupt>() {
        Ok(interrupt) => {
            let kind = match interrupt.kind {
                InterruptKind::Poisoned => AbortKind::Poisoned,
                InterruptKind::DeadlockTimeout => AbortKind::Deadlock,
                InterruptKind::Stalled => AbortKind::Stall,
            };
            return KernelAbort {
                kind,
                kernel: label.to_string(),
                core,
                message: interrupt.detail,
            };
        }
        Err(e) => e,
    };
    let e = match e.downcast::<TensixError>() {
        Ok(te) => {
            return KernelAbort {
                kind: AbortKind::Panic,
                kernel: label.to_string(),
                core,
                message: te.to_string(),
            };
        }
        Err(e) => e,
    };
    let detail = e
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| e.downcast_ref::<&str>().copied())
        .unwrap_or("unknown panic");
    KernelAbort {
        kind: AbortKind::Panic,
        kernel: label.to_string(),
        core,
        message: detail.to_string(),
    }
}

/// Poison the given CBs and semaphores and trip the cancel token.
///
/// CBs and semaphores are core-local, so a faulting kernel passes only *its
/// core's* objects here: siblings on the same core unwind promptly, while
/// other cores' pipelines are self-contained and run to completion — that is
/// what makes their completed tile ranges trustworthy for a partial redo.
/// The cancel token is still global; it only wakes injected-stall threads
/// early, wherever they are parked.
fn teardown(cbs: &[CircularBuffer], sems: &[Semaphore], cancel: &CancelToken) {
    for cb in cbs {
        cb.poison();
    }
    for sem in sems {
        sem.poison();
    }
    cancel.cancel();
}

/// The command queue of one device.
pub struct CommandQueue {
    device: Arc<Device>,
    io_seconds: f64,
    program_seconds: f64,
    last_failure: Option<FailedLaunch>,
}

impl CommandQueue {
    /// Queue for `device`.
    #[must_use]
    pub fn new(device: Arc<Device>) -> Self {
        CommandQueue { device, io_seconds: 0.0, program_seconds: 0.0, last_failure: None }
    }

    /// The device this queue drives.
    #[must_use]
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// `EnqueueWriteBuffer`: move tilized host data into a DRAM buffer.
    ///
    /// # Errors
    /// If `tiles` exceeds the buffer, if the card fell off the bus, or on
    /// DRAM faults.
    pub fn enqueue_write_buffer(&mut self, buffer: &Buffer, tiles: &[Tile]) -> Result<()> {
        self.device.ensure_alive()?;
        if tiles.len() > buffer.num_tiles() {
            return Err(TensixError::InvalidAddress {
                addr: tiles.len() as u64,
                context: "enqueue_write_buffer past end of buffer",
            });
        }
        let r = buffer.reference();
        // One lock acquisition for the whole transfer; per-page stats are
        // accounted inside exactly as per-page writes would.
        self.device.dram().write_tiles(r.id, tiles)?;
        self.io_seconds += (tiles.len() * r.format.tile_bytes()) as f64 / PCIE_BYTES_PER_S;
        Ok(())
    }

    /// `EnqueueReadBuffer`: read the whole buffer back to the host.
    ///
    /// # Errors
    /// If the card fell off the bus, or on DRAM faults.
    pub fn enqueue_read_buffer(&mut self, buffer: &Buffer) -> Result<Vec<Tile>> {
        self.enqueue_read_pages(buffer, buffer.num_tiles())
    }

    /// Read the leading `pages` pages of `buffer` back to the host; only
    /// those pages cross PCIe.
    ///
    /// # Errors
    /// If `pages` exceeds the buffer, if the card fell off the bus, or on
    /// DRAM faults.
    pub fn enqueue_read_pages(&mut self, buffer: &Buffer, pages: usize) -> Result<Vec<Tile>> {
        self.device.ensure_alive()?;
        let r = buffer.reference();
        let out = self.device.dram().read_tiles(r.id, pages)?;
        self.io_seconds += (pages * r.format.tile_bytes()) as f64 / PCIE_BYTES_PER_S;
        Ok(out)
    }

    /// `EnqueueProgram`: instantiate CBs and semaphores, launch every kernel
    /// instance on its own thread under supervision, join, and aggregate
    /// timing.
    ///
    /// # Errors
    /// * [`LaunchError::Device`] if the CB configuration does not fit in L1;
    /// * [`LaunchError::DeviceLost`] if the card is (or falls) off the bus;
    /// * [`LaunchError::KernelPanic`] / [`LaunchError::Deadlock`] /
    ///   [`LaunchError::Stall`] naming the root-cause kernel and core when a
    ///   kernel fails. Sibling kernels are always torn down cleanly via CB
    ///   and semaphore poisoning — a failed launch never wedges the host.
    pub fn enqueue_program(
        &mut self,
        program: &Program,
    ) -> std::result::Result<ProgramReport, LaunchError> {
        self.device.ensure_alive()?;
        self.last_failure = None;
        if !self.device.faults().disarmed() && self.device.faults().roll_device_loss() {
            self.device.mark_lost();
            return Err(LaunchError::DeviceLost { device_id: self.device.id() });
        }
        // Watermarks are attempt-local: zero the board so a fault inventory
        // reflects only this launch.
        self.device.reset_progress();
        let grid = self.device.grid();
        let watchdog = self.device.watchdog();

        // One trace epoch per launch. The sink is fetched once here; kernel
        // instances get their own emitters, so per-event paths never touch
        // the device's sink lock.
        let sink: Option<Arc<dyn TraceSink>> = self.device.trace_sink().filter(|s| s.enabled());
        let epoch = sink.as_ref().map(|s| s.begin_epoch());

        // Instantiate circular buffers per core and allocate their L1.
        let mut core_cbs: Vec<(CoreCoord, CbMap)> = Vec::new();
        for entry in &program.cbs {
            for core in entry.cores.iter() {
                if let Err(e) = self.device.alloc_l1(core, entry.config.total_bytes()) {
                    // Roll back partial CB allocations before surfacing.
                    self.device.free_all_l1();
                    return Err(e.into());
                }
                let cb = CircularBuffer::with_timeout(entry.config, watchdog);
                match core_cbs.iter_mut().find(|(c, _)| *c == core) {
                    Some((_, map)) => {
                        map.insert(entry.index, cb);
                    }
                    None => {
                        let mut map = CbMap::new();
                        map.insert(entry.index, cb);
                        core_cbs.push((core, map));
                    }
                }
            }
        }
        let cbs_for = |core: CoreCoord| -> CbMap {
            core_cbs.iter().find(|(c, _)| *c == core).map(|(_, m)| m.clone()).unwrap_or_default()
        };

        // Instantiate per-core semaphores.
        let mut core_sems: Vec<(CoreCoord, SemMap)> = Vec::new();
        for entry in &program.sems {
            for core in entry.cores.iter() {
                let sem = Semaphore::with_timeout(entry.initial, watchdog);
                match core_sems.iter_mut().find(|(c, _)| *c == core) {
                    Some((_, map)) => {
                        map.insert(entry.index, sem);
                    }
                    None => {
                        let mut map = SemMap::new();
                        map.insert(entry.index, sem);
                        core_sems.push((core, map));
                    }
                }
            }
        }
        let sems_for = |core: CoreCoord| -> SemMap {
            core_sems.iter().find(|(c, _)| *c == core).map(|(_, m)| m.clone()).unwrap_or_default()
        };

        // Launch one kernel instance per pool job. Stall injection is rolled
        // here, on the host thread, so the affected instance is a
        // deterministic function of the seed and launch order. Jobs run on
        // the persistent worker pool (reused across launches) and report
        // back tagged with their launch-order index; results are collected
        // back into submission order below, so timing/abort aggregation is
        // byte-for-byte what the old join-in-order loop produced.
        let cancel = CancelToken::new();
        type KernelOutcome = (KernelTiming, Option<KernelAbort>);
        // `None` payload = the instance body panicked outside its own
        // catch_unwind (the old `JoinHandle::join` Err arm).
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Option<KernelOutcome>)>();
        let mut jobs: Vec<crate::pool::Job> = Vec::new();
        let mut submit = |body: Box<dyn FnOnce() -> KernelOutcome + Send + 'static>| {
            let idx = jobs.len();
            let tx = tx.clone();
            jobs.push(Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(body)).ok();
                let _ = tx.send((idx, outcome));
            }));
        };
        for entry in &program.kernels {
            let role = match &entry.body {
                KernelBody::DataMovement { noc: tensix::NocId::Noc0, .. } => RiscRole::Brisc,
                KernelBody::DataMovement { .. } => RiscRole::Ncrisc,
                KernelBody::Compute { .. } => RiscRole::Trisc,
            };
            for core in entry.cores.iter() {
                let device = Arc::clone(&self.device);
                let label = entry.label.clone();
                let args = program.args_for(entry, core);
                let cbs = cbs_for(core);
                let sems = sems_for(core);
                let core_index = grid.index_of(core);
                let tracer = match (&sink, epoch) {
                    (Some(s), Some(e)) => {
                        Some(SpanEmitter::new(Arc::clone(s), e, core_index as u32, role))
                    }
                    _ => None,
                };
                // Partial teardown: a faulting kernel poisons only its own
                // core's CBs/semaphores, so surviving cores finish their tile
                // ranges and only the faulting core's slice needs a redo.
                let poison_cbs: Vec<CircularBuffer> = cbs.values().cloned().collect();
                let poison_sems: Vec<Semaphore> = sems.values().cloned().collect();
                let cancel = cancel.clone();
                let stall =
                    !self.device.faults().disarmed() && self.device.faults().roll_kernel_stall();
                if stall {
                    // The kernel hangs without making progress. The thread
                    // parks on the cancel token; either a sibling fault
                    // cancels it early, or its own watchdog expires and it
                    // initiates teardown itself.
                    let mut tracer = tracer;
                    submit(Box::new(move || {
                        if let Some(tr) = tracer.as_mut() {
                            tr.instant("injected_stall", 0, &[]);
                        }
                        if !cancel.wait(device.watchdog()) {
                            teardown(&poison_cbs, &poison_sems, &cancel);
                        }
                        let abort = KernelAbort {
                            kind: AbortKind::Stall,
                            kernel: label.clone(),
                            core,
                            message: "kernel made no progress (injected stall)".to_string(),
                        };
                        (KernelTiming { label, core_index, ..KernelTiming::default() }, Some(abort))
                    }));
                    continue;
                }
                match &entry.body {
                    KernelBody::DataMovement { noc, kernel } => {
                        let noc = *noc;
                        let kernel = Arc::clone(kernel);
                        submit(Box::new(move || {
                            let mut ctx =
                                DataMovementCtx::new(device, core, noc, cbs, sems, args, tracer);
                            ctx.trace_kernel_begin(&label);
                            let outcome = catch_unwind(AssertUnwindSafe(|| kernel.run(&mut ctx)));
                            ctx.trace_kernel_end();
                            let abort = outcome.err().map(|e| {
                                teardown(&poison_cbs, &poison_sems, &cancel);
                                classify_abort(&label, core, e)
                            });
                            (
                                KernelTiming {
                                    label,
                                    core_index,
                                    cycles: ctx.take_cycles(),
                                    ..KernelTiming::default()
                                },
                                abort,
                            )
                        }));
                    }
                    KernelBody::Compute { format, kernel } => {
                        let format = *format;
                        let kernel = Arc::clone(kernel);
                        submit(Box::new(move || {
                            let mut ctx =
                                ComputeCtx::new(device, core, format, cbs, sems, args, tracer);
                            ctx.trace_kernel_begin(&label);
                            let outcome = catch_unwind(AssertUnwindSafe(|| kernel.run(&mut ctx)));
                            ctx.trace_kernel_end();
                            let abort = outcome.err().map(|e| {
                                teardown(&poison_cbs, &poison_sems, &cancel);
                                classify_abort(&label, core, e)
                            });
                            (
                                KernelTiming {
                                    label,
                                    core_index,
                                    cycles: ctx.take_cycles(),
                                    matrix_cycles: ctx.matrix_cycles(),
                                    vector_cycles: ctx.vector_cycles(),
                                },
                                abort,
                            )
                        }));
                    }
                }
            }
        }
        drop(tx);

        let instance_count = jobs.len();
        let batch = crate::pool::WorkerPool::global().submit_batch(jobs);
        let mut slots: Vec<Option<Option<KernelOutcome>>> = Vec::new();
        slots.resize_with(instance_count, || None);
        for _ in 0..instance_count {
            // Every job sends exactly once (the pool keeps workers alive
            // through panics), so recv cannot hang short of worker death —
            // treat a hung-up channel like a crashed instance.
            match rx.recv() {
                Ok((idx, outcome)) => slots[idx] = Some(outcome),
                Err(_) => break,
            }
        }
        // Return only once the workers have retired this launch's jobs, so
        // the next launch finds them idle instead of growing the pool.
        batch.wait();

        let mut timings = Vec::with_capacity(instance_count);
        let mut aborts: Vec<KernelAbort> = Vec::new();
        for slot in slots {
            match slot.flatten() {
                Some((timing, abort)) => {
                    timings.push(timing);
                    if let Some(a) = abort {
                        aborts.push(a);
                    }
                }
                None => aborts.push(KernelAbort {
                    kind: AbortKind::Panic,
                    kernel: "<supervisor>".to_string(),
                    core: CoreCoord::new(0, 0),
                    message: "kernel thread aborted".to_string(),
                }),
            }
        }

        // Harvest CB statistics before teardown drops the rings: the stats
        // were always counted, this is where they get out.
        let mut cb_stats: Vec<CbReport> = Vec::new();
        for (core, map) in &core_cbs {
            let core_index = grid.index_of(*core);
            for (index, cb) in map {
                cb_stats.push(CbReport {
                    core: *core,
                    core_index,
                    index: *index,
                    stats: cb.stats(),
                });
            }
        }
        cb_stats.sort_by_key(|r| (r.core_index, r.index));

        // Program teardown frees CB storage.
        self.device.free_all_l1();

        // Close the launch epoch at the slowest instance, so the next
        // launch's events rebase after this one on the virtual clock.
        if let (Some(s), Some(e)) = (&sink, epoch) {
            let dur = timings.iter().map(|t| t.cycles).max().unwrap_or(0);
            s.end_epoch(e, dur);
        }

        if let Some(root) = aborts.into_iter().max_by_key(|a| a.kind) {
            // Inventory the attempt: per-core completed-tile watermarks (for
            // the partial redo) and the attempt's virtual-time cost (for the
            // wasted-cycle accounting). Failed attempts never enter the
            // queue's own `program_seconds`.
            let mut inventory_cores: Vec<CoreCoord> = Vec::new();
            for entry in &program.kernels {
                for core in entry.cores.iter() {
                    if !inventory_cores.contains(&core) {
                        inventory_cores.push(core);
                    }
                }
            }
            let completed: Vec<CoreProgress> = inventory_cores
                .into_iter()
                .map(|core| CoreProgress { core, completed: self.device.progress_of(core) })
                .collect();
            let seconds = program_seconds(self.device.costs(), &timings);
            self.last_failure = Some(FailedLaunch { seconds, timings, cb_stats });
            let KernelAbort { kind, kernel, core, message } = root;
            if let Some(s) = &sink {
                s.host_instant(
                    &format!("launch_abort:{}", kernel),
                    &[("core", grid.index_of(core) as u64)],
                );
            }
            return Err(match kind {
                AbortKind::Stall => LaunchError::Stall { kernel, core, completed },
                AbortKind::Panic => LaunchError::KernelPanic { kernel, core, message, completed },
                // A launch whose best root cause is a poisoned victim still
                // reports where the pipeline stopped.
                AbortKind::Deadlock | AbortKind::Poisoned => {
                    LaunchError::Deadlock { kernel, core, message, completed }
                }
            });
        }
        let seconds = program_seconds(self.device.costs(), &timings);
        self.program_seconds += seconds;
        Ok(ProgramReport { seconds, timings, cb_stats })
    }

    /// `Finish`: total virtual seconds of everything enqueued so far
    /// (host I/O + program execution).
    #[must_use]
    pub fn finish(&self) -> f64 {
        self.io_seconds + self.program_seconds
    }

    /// `Finish` with a virtual-time budget: fails instead of silently
    /// returning when the accumulated work exceeded `budget_s` seconds, or
    /// when the card fell off the bus.
    ///
    /// # Errors
    /// [`LaunchError::Timeout`] when over budget,
    /// [`LaunchError::DeviceLost`] when the card is gone.
    pub fn finish_with_timeout(&self, budget_s: f64) -> std::result::Result<f64, LaunchError> {
        self.device.ensure_alive()?;
        let elapsed_s = self.finish();
        if elapsed_s > budget_s {
            return Err(LaunchError::Timeout { budget_s, elapsed_s });
        }
        Ok(elapsed_s)
    }

    /// Virtual seconds spent on host↔device transfers.
    #[must_use]
    pub fn io_seconds(&self) -> f64 {
        self.io_seconds
    }

    /// Virtual seconds spent executing programs.
    #[must_use]
    pub fn program_seconds(&self) -> f64 {
        self.program_seconds
    }

    /// Cost of the most recent failed launch, if the last
    /// [`Self::enqueue_program`] aborted with kernel timings to
    /// report. Cleared at the start of every launch; taking it leaves `None`.
    /// Retry policies use this to bill discarded attempts to a wasted-time
    /// bucket instead of losing them.
    pub fn take_last_failure(&mut self) -> Option<FailedLaunch> {
        self.last_failure.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::DataMovementCtx;
    use crate::kernel::{cb_index, ComputeFn};
    use tensix::cb::CircularBufferConfig;
    use tensix::fault::{FaultClass, FaultConfig};
    use tensix::grid::CoreRangeSet;
    use tensix::{DataFormat, DeviceConfig, NocId};

    fn device() -> Arc<Device> {
        Device::new(0, DeviceConfig::default())
    }

    #[test]
    fn write_then_read_buffer_roundtrip() {
        let dev = device();
        let mut q = CommandQueue::new(Arc::clone(&dev));
        let buf = Buffer::new(&dev, DataFormat::Float32, 3).unwrap();
        let tiles: Vec<Tile> = (0..3).map(|i| Tile::splat(DataFormat::Float32, i as f32)).collect();
        q.enqueue_write_buffer(&buf, &tiles).unwrap();
        let back = q.enqueue_read_buffer(&buf).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[2].get(0, 0), 2.0);
        assert!(q.io_seconds() > 0.0);
    }

    #[test]
    fn page_read_moves_only_the_leading_pages() {
        let dev = device();
        let mut q = CommandQueue::new(Arc::clone(&dev));
        let buf = Buffer::new(&dev, DataFormat::Float32, 3).unwrap();
        let tiles: Vec<Tile> = (0..3).map(|i| Tile::splat(DataFormat::Float32, i as f32)).collect();
        q.enqueue_write_buffer(&buf, &tiles).unwrap();
        let written = q.io_seconds();
        let front = q.enqueue_read_pages(&buf, 2).unwrap();
        assert_eq!(front.iter().map(|t| t.get(0, 0)).collect::<Vec<_>>(), vec![0.0, 1.0]);
        let two_pages = q.io_seconds() - written;
        q.enqueue_read_buffer(&buf).unwrap();
        let whole = q.io_seconds() - written - two_pages;
        assert!((two_pages - whole * 2.0 / 3.0).abs() <= 1e-15, "{two_pages} vs {whole}");
        assert!(q.enqueue_read_pages(&buf, 4).is_err(), "read past the end");
    }

    #[test]
    fn write_past_end_errors() {
        let dev = device();
        let mut q = CommandQueue::new(Arc::clone(&dev));
        let buf = Buffer::new(&dev, DataFormat::Float32, 1).unwrap();
        let tiles = vec![Tile::zeros(DataFormat::Float32); 2];
        assert!(q.enqueue_write_buffer(&buf, &tiles).is_err());
    }

    fn doubling_program(
        cores: CoreRangeSet,
        input: &Buffer,
        output: &Buffer,
        tiles_per_core: usize,
    ) -> Program {
        let mut p = Program::new();
        let cb_cfg = CircularBufferConfig::new(2, DataFormat::Float32);
        p.add_circular_buffer(cores.clone(), cb_index::IN0, cb_cfg);
        p.add_circular_buffer(cores.clone(), cb_index::OUT0, cb_cfg);

        let inref = input.reference();
        let outref = output.reference();

        let reader = p.add_data_movement_kernel(
            "reader",
            cores.clone(),
            NocId::Noc0,
            Arc::new(move |ctx: &mut DataMovementCtx| {
                let start = ctx.arg(0) as usize;
                let count = ctx.arg(1) as usize;
                for page in start..start + count {
                    ctx.read_page_to_cb(cb_index::IN0, inref, page);
                }
            }),
        );
        let compute = p.add_compute_kernel(
            "double",
            cores.clone(),
            DataFormat::Float32,
            Arc::new(ComputeFn(move |ctx: &mut ComputeCtx| {
                let count = ctx.arg(1) as usize;
                for _ in 0..count {
                    ctx.cb_wait_front(cb_index::IN0, 1);
                    ctx.tile_regs_acquire();
                    ctx.copy_tile(cb_index::IN0, 0, 0);
                    ctx.scale_tile(0, 2.0, 0.0);
                    ctx.tile_regs_commit();
                    ctx.cb_reserve_back(cb_index::OUT0, 1);
                    ctx.pack_tile(0, cb_index::OUT0);
                    ctx.cb_push_back(cb_index::OUT0, 1);
                    ctx.tile_regs_release();
                    ctx.cb_pop_front(cb_index::IN0, 1);
                }
            })),
        );
        let writer = p.add_data_movement_kernel(
            "writer",
            cores.clone(),
            NocId::Noc1,
            Arc::new(move |ctx: &mut DataMovementCtx| {
                let start = ctx.arg(0) as usize;
                let count = ctx.arg(1) as usize;
                for page in start..start + count {
                    ctx.write_cb_to_page(cb_index::OUT0, outref, page);
                }
            }),
        );

        for (i, core) in cores.iter().enumerate() {
            let args = vec![(i * tiles_per_core) as u32, tiles_per_core as u32];
            p.set_runtime_args(reader, core, args.clone());
            p.set_runtime_args(compute, core, args.clone());
            p.set_runtime_args(writer, core, args);
        }
        p
    }

    /// A three-kernel pipeline doubling every tile of a buffer: the same
    /// reader → compute → writer shape as the paper's force pipeline.
    #[test]
    fn three_stage_pipeline_doubles_buffer() {
        let dev = device();
        let mut q = CommandQueue::new(Arc::clone(&dev));
        let n_tiles = 8usize;
        let input = Buffer::new(&dev, DataFormat::Float32, n_tiles).unwrap();
        let output = Buffer::new(&dev, DataFormat::Float32, n_tiles).unwrap();
        let tiles: Vec<Tile> =
            (0..n_tiles).map(|i| Tile::splat(DataFormat::Float32, i as f32)).collect();
        q.enqueue_write_buffer(&input, &tiles).unwrap();

        let cores = CoreRangeSet::first_n(2, 8); // two cores, 4 tiles each
        let p = doubling_program(cores, &input, &output, 4);

        let report = q.enqueue_program(&p).unwrap();
        assert!(report.seconds > 0.0);
        assert_eq!(report.timings.len(), 6); // 3 kernels × 2 cores

        let result = q.enqueue_read_buffer(&output).unwrap();
        for (i, tile) in result.iter().enumerate() {
            assert_eq!(tile.get(0, 0), 2.0 * i as f32, "tile {i}");
        }
        // L1 was freed at teardown.
        assert_eq!(dev.l1_used(CoreCoord::new(0, 0)), 0);
        assert!(q.finish() >= report.seconds);
        assert!(q.finish_with_timeout(1.0).is_ok());
        assert!(matches!(q.finish_with_timeout(0.0), Err(LaunchError::Timeout { .. })));
    }

    #[test]
    fn kernel_panic_becomes_fault_and_unblocks_pipeline() {
        let dev = device();
        let mut q = CommandQueue::new(Arc::clone(&dev));
        let cores = CoreRangeSet::first_n(1, 8);
        let mut p = Program::new();
        let cb_cfg = CircularBufferConfig::new(2, DataFormat::Float32);
        p.add_circular_buffer(cores.clone(), cb_index::IN0, cb_cfg);

        // The consumer waits forever on a producer that dies immediately.
        p.add_data_movement_kernel(
            "dying-producer",
            cores.clone(),
            NocId::Noc0,
            Arc::new(|_ctx: &mut DataMovementCtx| panic!("injected failure")),
        );
        p.add_compute_kernel(
            "blocked-consumer",
            cores.clone(),
            DataFormat::Float32,
            Arc::new(ComputeFn(|ctx: &mut ComputeCtx| {
                ctx.cb_wait_front(cb_index::IN0, 1);
            })),
        );

        let err = q.enqueue_program(&p).unwrap_err();
        match err {
            LaunchError::KernelPanic { message, .. } => {
                assert!(message.contains("injected failure"), "{message}");
            }
            other => panic!("expected KernelPanic, got {other:?}"),
        }
    }

    #[test]
    fn kernel_panic_is_classified_with_core_and_phase() {
        let dev = device();
        let mut q = CommandQueue::new(Arc::clone(&dev));
        let cores = CoreRangeSet::first_n(1, 8);
        let mut p = Program::new();
        p.add_circular_buffer(
            cores.clone(),
            cb_index::IN0,
            CircularBufferConfig::new(2, DataFormat::Float32),
        );
        p.add_data_movement_kernel(
            "dying-producer",
            cores.clone(),
            NocId::Noc0,
            Arc::new(|_ctx: &mut DataMovementCtx| panic!("injected failure")),
        );
        p.add_compute_kernel(
            "blocked-consumer",
            cores,
            DataFormat::Float32,
            Arc::new(ComputeFn(|ctx: &mut ComputeCtx| {
                ctx.cb_wait_front(cb_index::IN0, 1);
            })),
        );

        let err = q.enqueue_program(&p).unwrap_err();
        match &err {
            LaunchError::KernelPanic { kernel, message, .. } => {
                assert_eq!(kernel, "dying-producer");
                assert!(message.contains("injected failure"));
            }
            other => panic!("expected KernelPanic, got {other:?}"),
        }
        assert_eq!(err.faulting_core(), Some(CoreCoord::new(0, 0)));
        assert_eq!(err.phase(), "panic");
        assert!(err.is_transient());
    }

    /// Acceptance criterion: an injected stalled compute kernel produces a
    /// structured `Stall` error naming the kernel and core, with every
    /// sibling kernel torn down cleanly, and the queue stays usable.
    #[test]
    fn stalled_compute_kernel_is_cancelled_and_reported() {
        let dev = Device::new(
            0,
            DeviceConfig {
                watchdog: Duration::from_millis(50),
                seed: 42,
                ..DeviceConfig::default()
            },
        );
        // Launch order is reader, double, writer: stall instance #2, the
        // compute kernel.
        dev.faults().schedule(FaultClass::KernelStall, 2);

        let mut q = CommandQueue::new(Arc::clone(&dev));
        let n_tiles = 4usize;
        let input = Buffer::new(&dev, DataFormat::Float32, n_tiles).unwrap();
        let output = Buffer::new(&dev, DataFormat::Float32, n_tiles).unwrap();
        let tiles: Vec<Tile> =
            (0..n_tiles).map(|i| Tile::splat(DataFormat::Float32, i as f32)).collect();
        q.enqueue_write_buffer(&input, &tiles).unwrap();

        let cores = CoreRangeSet::first_n(1, 8);
        let p = doubling_program(cores, &input, &output, n_tiles);
        let err = q.enqueue_program(&p).unwrap_err();
        match &err {
            LaunchError::Stall { kernel, core, completed } => {
                assert_eq!(kernel, "double");
                assert_eq!(*core, CoreCoord::new(0, 0));
                // Single-core program: the inventory covers exactly that core.
                assert_eq!(completed.len(), 1);
            }
            other => panic!("expected Stall, got {other:?}"),
        }
        assert_eq!(err.phase(), "stall");
        assert_eq!(dev.faults().stats().kernel_stalls, 1);
        // Clean teardown: L1 freed, device alive, and the same program runs
        // to completion on retry (the scheduled stall was one-shot).
        assert_eq!(dev.l1_used(CoreCoord::new(0, 0)), 0);
        assert!(dev.is_alive());
        let p2 = doubling_program(CoreRangeSet::first_n(1, 8), &input, &output, n_tiles);
        q.enqueue_program(&p2).unwrap();
        let result = q.enqueue_read_buffer(&output).unwrap();
        assert_eq!(result[3].get(0, 0), 6.0);
    }

    #[test]
    fn injected_device_loss_fails_launch_until_reset() {
        let dev = Device::new(0, DeviceConfig { seed: 5, ..DeviceConfig::default() });
        dev.faults().schedule(FaultClass::DeviceLoss, 1);
        let mut q = CommandQueue::new(Arc::clone(&dev));
        let buf = Buffer::new(&dev, DataFormat::Float32, 1).unwrap();
        let p = Program::new();
        let err = q.enqueue_program(&p).unwrap_err();
        assert_eq!(err, LaunchError::DeviceLost { device_id: 0 });
        // Every queue operation now fails fast.
        assert!(matches!(
            q.enqueue_write_buffer(&buf, &[Tile::zeros(DataFormat::Float32)]),
            Err(TensixError::DeviceLost { .. })
        ));
        assert!(matches!(q.finish_with_timeout(1.0), Err(LaunchError::DeviceLost { .. })));
        // A reset revives the card (DRAM content is gone, so reallocate).
        dev.reset().unwrap();
        let buf = Buffer::new(&dev, DataFormat::Float32, 1).unwrap();
        q.enqueue_write_buffer(&buf, &[Tile::zeros(DataFormat::Float32)]).unwrap();
        q.enqueue_program(&Program::new()).unwrap();
    }

    #[test]
    fn uncorrectable_dram_ecc_error_is_reported_as_panic() {
        let dev = Device::new(
            0,
            DeviceConfig {
                faults: FaultConfig {
                    dram_corruption_prob: 1.0,
                    dram_uncorrectable_frac: 1.0,
                    ..FaultConfig::default()
                },
                seed: 9,
                ..DeviceConfig::default()
            },
        );
        let mut q = CommandQueue::new(Arc::clone(&dev));
        let n_tiles = 2usize;
        let input = Buffer::new(&dev, DataFormat::Float32, n_tiles).unwrap();
        let output = Buffer::new(&dev, DataFormat::Float32, n_tiles).unwrap();
        let tiles = vec![Tile::splat(DataFormat::Float32, 1.0); n_tiles];
        q.enqueue_write_buffer(&input, &tiles).unwrap();
        let p = doubling_program(CoreRangeSet::first_n(1, 8), &input, &output, n_tiles);
        let err = q.enqueue_program(&p).unwrap_err();
        match &err {
            LaunchError::KernelPanic { kernel, message, .. } => {
                assert_eq!(kernel, "reader");
                assert!(message.contains("uncorrectable DRAM ECC"), "{message}");
            }
            other => panic!("expected KernelPanic, got {other:?}"),
        }
        assert!(dev.faults().stats().dram_uncorrectable >= 1);
    }

    #[test]
    fn corrected_dram_ecc_errors_only_cost_cycles() {
        let run = |faults: FaultConfig| {
            let dev = Device::new(0, DeviceConfig { faults, seed: 11, ..DeviceConfig::default() });
            let mut q = CommandQueue::new(Arc::clone(&dev));
            let n_tiles = 4usize;
            let input = Buffer::new(&dev, DataFormat::Float32, n_tiles).unwrap();
            let output = Buffer::new(&dev, DataFormat::Float32, n_tiles).unwrap();
            let tiles = vec![Tile::splat(DataFormat::Float32, 3.0); n_tiles];
            q.enqueue_write_buffer(&input, &tiles).unwrap();
            let p = doubling_program(CoreRangeSet::first_n(1, 8), &input, &output, n_tiles);
            let report = q.enqueue_program(&p).unwrap();
            let out = q.enqueue_read_buffer(&output).unwrap();
            assert_eq!(out[0].get(0, 0), 6.0);
            (report.seconds, dev.faults().stats())
        };
        let (clean_s, clean_stats) = run(FaultConfig::default());
        assert_eq!(clean_stats.dram_corrected, 0);
        let (faulty_s, faulty_stats) = run(FaultConfig {
            dram_corruption_prob: 1.0,
            dram_uncorrectable_frac: 0.0,
            ..FaultConfig::default()
        });
        assert!(faulty_stats.dram_corrected >= 4);
        assert!(faulty_s > clean_s, "ECC correction must cost time: {faulty_s} vs {clean_s}");
    }

    #[test]
    fn cb_config_too_large_for_l1_errors() {
        let dev = device();
        let mut q = CommandQueue::new(Arc::clone(&dev));
        let cores = CoreRangeSet::first_n(1, 8);
        let mut p = Program::new();
        // 400 FP32 pages = 1.6 MB > 1.5 MB L1.
        p.add_circular_buffer(
            cores,
            cb_index::IN0,
            CircularBufferConfig::new(400, DataFormat::Float32),
        );
        let err = q.enqueue_program(&p).unwrap_err();
        assert!(matches!(err, LaunchError::Device(TensixError::L1OutOfMemory { .. })), "{err:?}");
    }
}
