//! Command queue: host↔device transfers and program execution.
//!
//! Mirrors TT-Metalium's `CommandQueue` (`EnqueueWriteBuffer`,
//! `EnqueueReadBuffer`, `EnqueueProgram`, `Finish`). One simplification: in
//! the simulator `enqueue_program` executes synchronously and returns a
//! [`ProgramReport`] with the launch's virtual time. The *device-side*
//! concurrency the paper relies on — reader, compute and writer kernels
//! overlapping through CBs on every core — runs as cooperative tasks: one
//! job per core polls the core's kernel futures in launch order on one host
//! thread, and the cores' jobs share the persistent worker pool.
//! CBs and semaphores are core-local, so no wait ever needs a kernel on
//! another core, or another thread, to move.
//!
//! The queue also acts as the **launch supervisor**: kernel panics,
//! deadlocked cores, injected compute stalls and mid-run device loss are
//! caught, and the root cause is reported as a structured [`LaunchError`]
//! naming the faulting kernel and core. A panicking kernel's task stops and
//! an injected stall is a task that never finishes; the rest of the core
//! runs on until it is *quiescent*: a round of polls in which no task
//! finishes and no CB or semaphore changes ([`ChangeCounter`]) leaves every
//! task waiting where it was. That test is exact, with no time budget. At
//! quiescence a core with a panicked or stalled task reports it, and every
//! task still waiting is its victim; otherwise the first task still waiting
//! in launch order is the root cause of a deadlock. The waiting tasks are
//! then dropped. A fault stops only its own core: other cores' pipelines
//! are self-contained and run to completion, which is what makes their
//! completed tile ranges trustworthy for a partial redo.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use tensix::cb::{CbStats, ChangeCounter, CircularBuffer};
use tensix::clock::{program_seconds, KernelTiming};
use tensix::grid::CoreCoord;
use tensix::{Device, Result, TensixError, Tile};
use tt_trace::{SpanEmitter, TraceSink};

use crate::buffer::Buffer;
use crate::context::{CbMap, KernelCtx, SemMap};
use crate::error::{CoreProgress, LaunchError};
use crate::kernel::KernelFuture;
use crate::program::{KernelRun, Program};
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

/// Outcome of one program execution, or of one failed attempt (see
/// [`CommandQueue::take_last_failure`]).
#[derive(Debug, Clone)]
pub struct ProgramReport {
    /// Device time of the program: the slowest kernel instance, since the
    /// pipeline overlaps everything else.
    pub seconds: f64,
    /// Per-kernel-instance timings (stalled instances report zero cycles).
    pub timings: Vec<KernelTiming>,
    /// Per-CB statistics, sorted by `(core_index, index)`.
    pub cb_stats: Vec<CbReport>,
}

/// Root-cause priority, ascending: a genuine stall always wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum AbortKind {
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

/// The message of a kernel's panic payload.
fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(te) = e.downcast_ref::<TensixError>() {
        return te.to_string();
    }
    e.downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| e.downcast_ref::<&str>().copied())
        .unwrap_or("unknown panic")
        .to_string()
}

/// One kernel instance of a launch, with its place in launch order
/// (kernels outer, cores inner).
struct Instance {
    order: usize,
    label: String,
    core_index: usize,
    /// Rolled at launch: the instance hangs without making progress.
    stalled: bool,
    run: KernelRun,
}

/// One core's share of a launch: its instances in launch order and the
/// counter their CBs and semaphores bump.
struct CoreRun {
    core: CoreCoord,
    changes: ChangeCounter,
    instances: Vec<Instance>,
}

/// A finished instance: its place in launch order, timing and abort.
type Outcome = (usize, KernelTiming, Option<KernelAbort>);

/// Run one core's instances as cooperative tasks until the core is
/// quiescent, then classify what is left (see the module docs).
fn run_core(run: CoreRun) -> Vec<Outcome> {
    let CoreRun { core, changes, mut instances } = run;
    let mut aborts: Vec<Option<(AbortKind, String)>> = instances
        .iter()
        .map(|i| {
            i.stalled.then(|| (AbortKind::Stall, "kernel made no progress (injected stall)".into()))
        })
        .collect();
    {
        let mut tasks: Vec<Option<KernelFuture<'_>>> = instances
            .iter_mut()
            .map(|Instance { stalled, run, .. }| {
                Some(if *stalled { Box::pin(std::future::pending()) } else { run.start() })
            })
            .collect();
        let mut cx = Context::from_waker(Waker::noop());
        loop {
            let seen = changes.get();
            let mut finished = false;
            for (slot, abort) in tasks.iter_mut().zip(&mut aborts) {
                let Some(task) = slot else { continue };
                match catch_unwind(AssertUnwindSafe(|| task.as_mut().poll(&mut cx))) {
                    Ok(Poll::Pending) => continue,
                    Ok(Poll::Ready(())) => {}
                    Err(payload) => *abort = Some((AbortKind::Panic, panic_message(&*payload))),
                }
                *slot = None;
                finished = true;
            }
            if !finished && changes.get() == seen {
                break;
            }
        }
        // Quiescent. Without a panic or stall to blame, the first task still
        // waiting is the deadlock's root cause; the others are victims.
        if aborts.iter().all(Option::is_none) {
            if let Some(i) = tasks.iter().position(Option::is_some) {
                let message = "no kernel on the core can move: each waits on a CB or semaphore \
                               no running kernel will change";
                aborts[i] = Some((AbortKind::Deadlock, message.to_string()));
            }
        }
    }
    instances
        .into_iter()
        .zip(aborts)
        .map(|(Instance { order, label, core_index, run, .. }, abort)| {
            let (mut ctx, [matrix_cycles, vector_cycles]) = run.finish();
            ctx.trace_kernel_end();
            let abort = abort.map(|(kind, message)| KernelAbort {
                kind,
                kernel: label.clone(),
                core,
                message,
            });
            let cycles = ctx.cycles();
            let timing = KernelTiming { label, core_index, cycles, matrix_cycles, vector_cycles };
            (order, timing, abort)
        })
        .collect()
}

/// The command queue of one device.
pub struct CommandQueue {
    device: Arc<Device>,
    io_seconds: f64,
    last_failure: Option<ProgramReport>,
}

impl CommandQueue {
    /// Queue for `device`.
    #[must_use]
    pub fn new(device: Arc<Device>) -> Self {
        CommandQueue { device, io_seconds: 0.0, last_failure: None }
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

    /// `EnqueueProgram`: instantiate CBs and semaphores, run every core's
    /// kernel instances under supervision, and aggregate timing.
    ///
    /// # Errors
    /// * [`LaunchError::Device`] if the CB configuration does not fit in L1;
    /// * [`LaunchError::DeviceLost`] if the card is (or falls) off the bus;
    /// * [`LaunchError::KernelPanic`] / [`LaunchError::Deadlock`] /
    ///   [`LaunchError::Stall`] naming the root-cause kernel and core when a
    ///   kernel fails. The faulting core's waiting kernels are dropped once
    ///   it stops moving — a failed launch never wedges the host.
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

        // One trace epoch per launch. The sink is fetched once here; kernel
        // instances get their own emitters, so per-event paths never touch
        // the device's sink lock.
        let sink: Option<Arc<dyn TraceSink>> = self.device.trace_sink().filter(|s| s.enabled());
        let epoch = sink.as_ref().map(|s| s.begin_epoch());

        // Instantiate each core's circular buffers (allocating their L1) and
        // semaphores around the core's one change counter.
        let mut cores: HashMap<CoreCoord, (CbMap, SemMap, ChangeCounter)> = HashMap::new();
        for entry in &program.cbs {
            for core in entry.cores.iter() {
                if let Err(e) = self.device.alloc_l1(core, entry.config.total_bytes()) {
                    // Roll back partial CB allocations before surfacing.
                    self.device.free_all_l1();
                    return Err(e.into());
                }
                let (cbs, _, changes) = cores.entry(core).or_default();
                cbs.insert(entry.index, CircularBuffer::on_core(entry.config, changes.clone()));
            }
        }
        for entry in &program.sems {
            for core in entry.cores.iter() {
                let (_, sems, changes) = cores.entry(core).or_default();
                sems.insert(entry.index, Semaphore::on_core(entry.initial, changes.clone()));
            }
        }

        // Group the kernel instances by core, in launch order. Stall
        // injection is rolled here, on the host thread, so the affected
        // instance is a deterministic function of the seed and launch order.
        let mut core_runs: Vec<CoreRun> = Vec::new();
        let mut run_of: HashMap<CoreCoord, usize> = HashMap::new();
        let mut order = 0;
        for (k, entry) in program.kernels.iter().enumerate() {
            let role = entry.body.role();
            for core in entry.cores.iter() {
                let core_index = grid.index_of(core);
                let tracer = match (&sink, epoch) {
                    (Some(s), Some(e)) => {
                        Some(SpanEmitter::new(Arc::clone(s), e, core_index as u32, role))
                    }
                    _ => None,
                };
                let stalled =
                    !self.device.faults().disarmed() && self.device.faults().roll_kernel_stall();
                let (cbs, sems, changes) = cores.entry(core).or_default();
                let args = program.args_for(k, core);
                let ctx = KernelCtx::new(
                    Arc::clone(&self.device),
                    core,
                    cbs.clone(),
                    sems.clone(),
                    args,
                    tracer,
                );
                let mut run = entry.body.instance(ctx);
                if stalled {
                    run.ctx().trace_instant("injected_stall", &[]);
                } else {
                    run.ctx().trace_kernel_begin(&entry.label);
                }
                let slot = *run_of.entry(core).or_insert_with(|| {
                    let instances = Vec::with_capacity(program.kernels.len());
                    core_runs.push(CoreRun { core, changes: changes.clone(), instances });
                    core_runs.len() - 1
                });
                let label = entry.label.to_string();
                core_runs[slot].instances.push(Instance { order, label, core_index, stalled, run });
                order += 1;
            }
        }

        let mut outcomes: Vec<Outcome> = crate::pool::WorkerPool::global()
            .map(core_runs, run_core)
            .into_iter()
            .flatten()
            .collect();
        outcomes.sort_by_key(|(order, ..)| *order);
        let mut timings = Vec::with_capacity(outcomes.len());
        let mut aborts: Vec<KernelAbort> = Vec::new();
        for (_, timing, abort) in outcomes {
            timings.push(timing);
            aborts.extend(abort);
        }

        // Harvest CB statistics before teardown drops the rings: the stats
        // were always counted, this is where they get out.
        let mut cb_stats: Vec<CbReport> = Vec::new();
        for (core, (cbs, ..)) in &cores {
            let core_index = grid.index_of(*core);
            for (index, cb) in cbs.iter() {
                cb_stats.push(CbReport { core: *core, core_index, index, stats: cb.stats() });
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
            // wasted-cycle accounting).
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
            self.last_failure = Some(ProgramReport { seconds, timings, cb_stats });
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
                AbortKind::Deadlock => LaunchError::Deadlock { kernel, core, message, completed },
            });
        }
        let seconds = program_seconds(self.device.costs(), &timings);
        Ok(ProgramReport { seconds, timings, cb_stats })
    }

    /// Virtual seconds spent on host↔device transfers.
    #[must_use]
    pub fn io_seconds(&self) -> f64 {
        self.io_seconds
    }

    /// Report of the most recent failed launch, if the last
    /// [`Self::enqueue_program`] aborted with kernel timings to
    /// report. Cleared at the start of every launch; taking it leaves `None`.
    /// Retry policies use this to bill discarded attempts to a wasted-time
    /// bucket instead of losing them.
    pub fn take_last_failure(&mut self) -> Option<ProgramReport> {
        self.last_failure.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ComputeCtx, DataMovementCtx};
    use crate::kernel::{cb_index, ComputeFn};
    use std::time::Duration;
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
        doubling_program_with(cores, input, output, tiles_per_core, None, Duration::ZERO)
    }

    /// [`doubling_program`] with two switches: the reader on `short` sends
    /// one page fewer than its compute kernel waits for (a genuine
    /// deadlock on that core only), and the compute kernel sleeps `nap` of
    /// host time before each push (slow progress, never a deadlock). The
    /// writer publishes every committed tile to the completion watermark.
    fn doubling_program_with(
        cores: CoreRangeSet,
        input: &Buffer,
        output: &Buffer,
        tiles_per_core: usize,
        short: Option<CoreCoord>,
        nap: Duration,
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
            Arc::new(async move |ctx: &mut DataMovementCtx| {
                let start = ctx.arg(0) as usize;
                let count = ctx.arg(1) as usize - usize::from(short == Some(ctx.core()));
                for page in start..start + count {
                    ctx.read_page_to_cb(cb_index::IN0, inref, page).await;
                }
            }),
        );
        let compute = p.add_compute_kernel(
            "double",
            cores.clone(),
            DataFormat::Float32,
            Arc::new(ComputeFn(async move |ctx: &mut ComputeCtx| {
                let count = ctx.arg(1) as usize;
                for _ in 0..count {
                    ctx.cb_wait_front(cb_index::IN0, 1).await;
                    ctx.tile_regs_acquire();
                    ctx.copy_tile(cb_index::IN0, 0, 0);
                    ctx.scale_tile(0, 2.0, 0.0);
                    ctx.tile_regs_commit();
                    std::thread::sleep(nap);
                    ctx.cb_reserve_back(cb_index::OUT0, 1).await;
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
            Arc::new(async move |ctx: &mut DataMovementCtx| {
                let start = ctx.arg(0) as usize;
                let count = ctx.arg(1) as usize;
                for page in start..start + count {
                    ctx.write_cb_to_page(cb_index::OUT0, outref, page).await;
                    ctx.mark_unit_complete();
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
            Arc::new(async |_ctx: &mut DataMovementCtx| panic!("injected failure")),
        );
        p.add_compute_kernel(
            "blocked-consumer",
            cores.clone(),
            DataFormat::Float32,
            Arc::new(ComputeFn(async |ctx: &mut ComputeCtx| {
                ctx.cb_wait_front(cb_index::IN0, 1).await;
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
            Arc::new(async |_ctx: &mut DataMovementCtx| panic!("injected failure")),
        );
        p.add_compute_kernel(
            "blocked-consumer",
            cores,
            DataFormat::Float32,
            Arc::new(ComputeFn(async |ctx: &mut ComputeCtx| {
                ctx.cb_wait_front(cb_index::IN0, 1).await;
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
        let dev = Device::new(0, DeviceConfig { seed: 42, ..DeviceConfig::default() });
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

    /// A genuine deadlock, no fault injected: the reader pushes one page
    /// fewer than the compute kernel waits for. The launch fails at once as
    /// a `Deadlock` naming the waiting kernel and core, and the queue stays
    /// usable.
    #[test]
    fn short_producer_deadlocks_its_core() {
        let dev = device();
        let mut q = CommandQueue::new(Arc::clone(&dev));
        let n_tiles = 3usize;
        let input = Buffer::new(&dev, DataFormat::Float32, n_tiles).unwrap();
        let output = Buffer::new(&dev, DataFormat::Float32, n_tiles).unwrap();
        let tiles: Vec<Tile> =
            (0..n_tiles).map(|i| Tile::splat(DataFormat::Float32, i as f32)).collect();
        q.enqueue_write_buffer(&input, &tiles).unwrap();

        let core = CoreCoord::new(0, 0);
        let cores = CoreRangeSet::first_n(1, 8);
        let p = doubling_program_with(
            cores.clone(),
            &input,
            &output,
            n_tiles,
            Some(core),
            Duration::ZERO,
        );
        let err = q.enqueue_program(&p).unwrap_err();
        match &err {
            LaunchError::Deadlock { kernel, core: at, completed, .. } => {
                // The reader has finished; the compute kernel is the first
                // of the two waiting kernels in launch order.
                assert_eq!(kernel, "double");
                assert_eq!(*at, core);
                assert_eq!(completed, &[CoreProgress { core, completed: n_tiles as u64 - 1 }]);
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
        assert_eq!(err.phase(), "deadlock");
        assert!(err.is_transient());
        assert_eq!(dev.l1_used(core), 0, "teardown frees the CBs' L1");
        q.enqueue_program(&doubling_program(cores, &input, &output, n_tiles)).unwrap();
        let result = q.enqueue_read_buffer(&output).unwrap();
        assert_eq!(result[2].get(0, 0), 4.0);
    }

    /// The same fault on core 1 of a two-core program tears down core 1
    /// only: core 0 completes, and its full watermark is in the inventory.
    #[test]
    fn deadlock_on_one_core_spares_the_other() {
        let dev = device();
        let mut q = CommandQueue::new(Arc::clone(&dev));
        let per_core = 3usize;
        let input = Buffer::new(&dev, DataFormat::Float32, 2 * per_core).unwrap();
        let output = Buffer::new(&dev, DataFormat::Float32, 2 * per_core).unwrap();
        let tiles: Vec<Tile> =
            (0..2 * per_core).map(|i| Tile::splat(DataFormat::Float32, i as f32)).collect();
        q.enqueue_write_buffer(&input, &tiles).unwrap();

        let (core0, core1) = (CoreCoord::new(0, 0), CoreCoord::new(1, 0));
        let cores = CoreRangeSet::first_n(2, 8);
        let p =
            doubling_program_with(cores, &input, &output, per_core, Some(core1), Duration::ZERO);
        let err = q.enqueue_program(&p).unwrap_err();
        match &err {
            LaunchError::Deadlock { kernel, core, completed, .. } => {
                assert_eq!(kernel, "double");
                assert_eq!(*core, core1);
                assert_eq!(
                    completed,
                    &[
                        CoreProgress { core: core0, completed: per_core as u64 },
                        CoreProgress { core: core1, completed: per_core as u64 - 1 },
                    ]
                );
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
        let result = q.enqueue_read_buffer(&output).unwrap();
        for (i, tile) in result.iter().take(per_core).enumerate() {
            assert_eq!(tile.get(0, 0), 2.0 * i as f32, "core 0 tile {i}");
        }
    }

    /// Slow progress is not a deadlock: the compute kernel naps on the host
    /// between pushes while the writer waits, and the launch succeeds.
    /// This guards against a time budget coming back.
    #[test]
    fn slow_kernel_with_parked_writer_is_not_a_deadlock() {
        let dev = device();
        let mut q = CommandQueue::new(Arc::clone(&dev));
        let n_tiles = 2usize;
        let input = Buffer::new(&dev, DataFormat::Float32, n_tiles).unwrap();
        let output = Buffer::new(&dev, DataFormat::Float32, n_tiles).unwrap();
        let tiles: Vec<Tile> =
            (0..n_tiles).map(|i| Tile::splat(DataFormat::Float32, i as f32)).collect();
        q.enqueue_write_buffer(&input, &tiles).unwrap();

        let cores = CoreRangeSet::first_n(1, 8);
        let nap = Duration::from_millis(300);
        let p = doubling_program_with(cores, &input, &output, n_tiles, None, nap);
        q.enqueue_program(&p).unwrap();
        let result = q.enqueue_read_buffer(&output).unwrap();
        assert_eq!(result[1].get(0, 0), 2.0);
    }

    /// A launch on every core of the grid runs on the launching thread
    /// plus a pool that never holds more threads than the host has.
    #[test]
    fn sixty_four_core_launch_stays_within_the_host_threads() {
        let dev = device();
        let mut q = CommandQueue::new(Arc::clone(&dev));
        let input = Buffer::new(&dev, DataFormat::Float32, 128).unwrap();
        let output = Buffer::new(&dev, DataFormat::Float32, 128).unwrap();
        let tiles: Vec<Tile> =
            (0..128).map(|i| Tile::splat(DataFormat::Float32, i as f32)).collect();
        q.enqueue_write_buffer(&input, &tiles).unwrap();
        let p = doubling_program(CoreRangeSet::first_n(64, 8), &input, &output, 2);
        assert_eq!(q.enqueue_program(&p).unwrap().timings.len(), 3 * 64);
        assert_eq!(q.enqueue_read_buffer(&output).unwrap()[127].get(0, 0), 254.0);
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            let workers = tasks
                .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                .filter(|name| name.starts_with("tensix-worker"))
                .count();
            assert!(workers < host, "{workers} pool threads on a {host}-thread host");
        }
    }

    /// Two identical launches report identical CB statistics, stall counts
    /// included: a core's tasks run in one order whatever the host does.
    #[test]
    fn identical_launches_report_identical_cb_stats() {
        let run = || {
            let dev = device();
            let mut q = CommandQueue::new(Arc::clone(&dev));
            let input = Buffer::new(&dev, DataFormat::Float32, 16).unwrap();
            let output = Buffer::new(&dev, DataFormat::Float32, 16).unwrap();
            q.enqueue_write_buffer(&input, &vec![Tile::zeros(DataFormat::Float32); 16]).unwrap();
            let p = doubling_program(CoreRangeSet::first_n(2, 8), &input, &output, 8);
            q.enqueue_program(&p).unwrap().cb_stats
        };
        let first = run();
        assert!(first.iter().any(|cb| cb.stats.producer_stalls + cb.stats.consumer_stalls > 0));
        for _ in 0..8 {
            assert_eq!(run(), first);
        }
    }

    /// Two cores that each camp on one DRAM channel report the same bank
    /// conflicts launch after launch: each core's reads are counted in
    /// their own order, however the host interleaves the two cores.
    #[test]
    fn identical_launches_report_identical_bank_conflicts() {
        const READS: usize = 200;
        let run = || {
            let dev = device();
            let mut q = CommandQueue::new(Arc::clone(&dev));
            let input = Buffer::new(&dev, DataFormat::Float32, 6 * READS).unwrap();
            let inref = input.reference();
            let mut p = Program::new();
            p.add_data_movement_kernel(
                "camper",
                CoreRangeSet::first_n(2, 8),
                NocId::Noc0,
                Arc::new(async move |ctx: &mut DataMovementCtx| {
                    // Core x reads only pages on channel x.
                    for i in 0..READS {
                        let _ = ctx.noc_async_read_tile(inref, ctx.core().x + 6 * i);
                    }
                }),
            );
            q.enqueue_program(&p).unwrap();
            dev.dram().stats().bank_conflicts
        };
        for _ in 0..9 {
            assert_eq!(run(), 2 * (READS as u64 - 1));
        }
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
