//! Kernel execution contexts — the in-kernel API surface.
//!
//! [`KernelCtx`] holds what every kernel instance shares, as TT-Metalium's
//! reader and compute kernels share one CB API: the core's circular buffers
//! and semaphores, runtime args, the cycle counter and the trace hooks.
//! [`DataMovementCtx`] adds what `dataflow_api.h` gives a reader/writer
//! kernel: NoC async reads/writes against interleaved DRAM buffers.
//! [`ComputeCtx`] adds the compute-kernel LLK calls the paper names
//! (`sub_binary_tile`, `square_tile`, `rsqrt_tile`, `copy_tile`,
//! `pack_tile`, …) plus the `tile_regs_*` dst-ownership protocol. Both reach
//! the shared calls through `Deref`.
//!
//! Every operation charges its cycle cost to the context's counter; the
//! queue aggregates counters into the device's virtual time.
//!
//! The element-wise compute ops work on the context's tile row count
//! ([`ComputeCtx::set_tile_rows`]): 32 rows for whole tiles, or 16 for the
//! 16×32 half tile, which computes rows 0–15 only and charges each
//! per-element pass at half. Matmul and broadcast ops take whole tiles
//! only and panic on a half-tile context.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use tensix::cb::CircularBuffer;
use tensix::cost::ComputeCosts;
use tensix::dst::DstRegisters;
use tensix::fault::DramReadFault;
use tensix::fpu::{self, BroadcastDim};
use tensix::grid::CoreCoord;
use tensix::sfpu::{self, BinaryOp, UnaryOp};
use tensix::srcreg::{SrcReg, SrcRegisters};
use tensix::{
    row_elems, CycleCounter, DataFormat, Device, DramRequester, NocId, TensixError, Tile, TILE_DIM,
};
use tt_trace::SpanEmitter;

use crate::buffer::BufferRef;
use crate::kernel::cb_index::NUM_CBS;
use crate::semaphore::{Semaphore, NUM_SEMAPHORES};

/// One core's objects of one kind, looked up by their `u8` index in a
/// fixed array of `N` slots: every CB or semaphore call of a kernel goes
/// through [`SlotArray::get`], so it is one bounds check, not a hash.
#[derive(Debug, Clone)]
pub struct SlotArray<T, const N: usize>([Option<T>; N]);

impl<T, const N: usize> Default for SlotArray<T, N> {
    fn default() -> Self {
        SlotArray(std::array::from_fn(|_| None))
    }
}

impl<T, const N: usize> SlotArray<T, N> {
    /// No slot filled.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fill slot `index`, replacing what it held.
    ///
    /// # Panics
    /// Panics if `index` is not below `N`.
    pub fn insert(&mut self, index: u8, value: T) {
        assert!(usize::from(index) < N, "slot {index} out of range (0..{N})");
        self.0[usize::from(index)] = Some(value);
    }

    /// The object in slot `index`, if one was inserted.
    #[must_use]
    pub fn get(&self, index: u8) -> Option<&T> {
        self.0.get(usize::from(index))?.as_ref()
    }

    /// The filled slots in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u8, &T)> {
        (0u8..).zip(&self.0).filter_map(|(i, slot)| Some((i, slot.as_ref()?)))
    }
}

/// One core's instantiated circular buffers, by CB index.
pub type CbMap = SlotArray<CircularBuffer, NUM_CBS>;

/// One core's instantiated semaphores, by semaphore index.
pub type SemMap = SlotArray<Semaphore, NUM_SEMAPHORES>;

/// The state and calls every kernel instance shares: its device and core,
/// the core's CBs and semaphores, its runtime args, cycle counter and trace
/// emitter. [`DataMovementCtx`] and [`ComputeCtx`] deref to it.
pub struct KernelCtx {
    device: Arc<Device>,
    core: CoreCoord,
    cbs: CbMap,
    sems: SemMap,
    args: Arc<[u32]>,
    counter: CycleCounter,
    /// Per-instance trace emitter; `None` when tracing is off (the
    /// zero-cost path — every hook is a single branch).
    tracer: Option<SpanEmitter>,
}

impl KernelCtx {
    pub(crate) fn new(
        device: Arc<Device>,
        core: CoreCoord,
        cbs: CbMap,
        sems: SemMap,
        args: Arc<[u32]>,
        tracer: Option<SpanEmitter>,
    ) -> Self {
        KernelCtx { device, core, cbs, sems, args, counter: CycleCounter::new(), tracer }
    }

    fn cb(&self, index: u8) -> &CircularBuffer {
        self.cbs.get(index).unwrap_or_else(|| {
            panic!("circular buffer {index} is not configured on core {}", self.core)
        })
    }

    fn sem(&self, index: u8) -> &Semaphore {
        self.sems
            .get(index)
            .unwrap_or_else(|| panic!("semaphore {index} is not configured on core {}", self.core))
    }

    /// Emit a trace instant at the current virtual time.
    pub(crate) fn trace_instant(&mut self, name: &str, args: &[(&str, u64)]) {
        let ts = self.counter.cycles();
        if let Some(tr) = self.tracer.as_mut() {
            tr.instant(name, ts, args);
        }
    }

    /// Open a named trace span at the current virtual time. No-op (and
    /// free of virtual cycles) when tracing is off. Spans must be closed
    /// with [`Self::trace_span_end`] in LIFO order.
    pub fn trace_span_begin(&mut self, name: &str) {
        let ts = self.counter.cycles();
        if let Some(tr) = self.tracer.as_mut() {
            tr.span_begin(name, ts);
        }
    }

    /// Close the innermost open trace span (which must be `name`).
    pub fn trace_span_end(&mut self, name: &str) {
        let ts = self.counter.cycles();
        if let Some(tr) = self.tracer.as_mut() {
            tr.span_end(name, ts);
        }
    }

    /// Open the whole-kernel span (the launch supervisor calls this right
    /// before `run`).
    pub(crate) fn trace_kernel_begin(&mut self, label: &str) {
        self.trace_span_begin(label);
    }

    /// Close the whole-kernel span and any spans an aborting kernel left
    /// open, so traces stay well-nested even on faulty runs.
    pub(crate) fn trace_kernel_end(&mut self) {
        let ts = self.counter.cycles();
        if let Some(tr) = self.tracer.as_mut() {
            tr.close_all(ts);
        }
    }

    /// `noc_semaphore_set`: overwrite semaphore `index` on this core.
    pub fn noc_semaphore_set(&mut self, index: u8, value: u32) {
        self.counter.add(self.device.costs().compute.cb_op);
        self.sem(index).set(value);
    }

    /// `noc_semaphore_inc`: add to semaphore `index` on this core.
    pub fn noc_semaphore_inc(&mut self, index: u8, delta: u32) {
        self.counter.add(self.device.costs().compute.cb_op);
        self.sem(index).inc(delta);
    }

    /// `noc_semaphore_wait`: wait until semaphore `index` equals `target`.
    pub async fn noc_semaphore_wait(&mut self, index: u8, target: u32) {
        self.counter.add(self.device.costs().compute.cb_op);
        self.sem(index).wait(target).await;
    }

    /// The core this kernel instance runs on.
    #[must_use]
    pub fn core(&self) -> CoreCoord {
        self.core
    }

    /// Per-core runtime arguments (`get_arg_val<uint32_t>` equivalent).
    ///
    /// # Panics
    /// Panics if `i` is out of range — matching the UB a real kernel would
    /// hit, but loudly.
    #[must_use]
    pub fn arg(&self, i: usize) -> u32 {
        *self.args.get(i).unwrap_or_else(|| {
            panic!("runtime arg {i} missing on core {} ({} provided)", self.core, self.args.len())
        })
    }

    /// Cycles accumulated so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.counter.cycles()
    }

    /// Producer: wait until `n` pages are free in `cb` and reserve them.
    pub async fn cb_reserve_back(&mut self, cb: u8, n: usize) {
        self.counter.add(self.device.costs().compute.cb_op);
        if self.cb(cb).reserve_back(n).await {
            self.trace_instant("cb_stall", &[("cb", u64::from(cb)), ("producer", 1)]);
        }
    }

    /// Producer: write one tile into space reserved in `cb`, quantized to
    /// the CB's format.
    pub fn cb_write_tile(&mut self, cb: u8, tile: &Tile) {
        self.counter.add(self.device.costs().compute.unpack_tile);
        self.cb(cb).write_tile(tile);
    }

    /// Producer: publish `n` written pages.
    pub fn cb_push_back(&mut self, cb: u8, n: usize) {
        self.counter.add(self.device.costs().compute.cb_op);
        self.cb(cb).push_back(n);
    }

    /// Consumer: wait until `n` pages are visible.
    pub async fn cb_wait_front(&mut self, cb: u8, n: usize) {
        self.counter.add(self.device.costs().compute.cb_op);
        if self.cb(cb).wait_front(n).await {
            self.trace_instant("cb_stall", &[("cb", u64::from(cb)), ("producer", 0)]);
        }
    }

    /// Consumer: read the `idx`-th visible page without consuming.
    #[must_use]
    pub fn cb_peek_tile(&mut self, cb: u8, idx: usize) -> Tile {
        self.counter.add(self.device.costs().compute.unpack_tile);
        self.cb(cb).peek_tile(idx)
    }

    /// Consumer: release `n` pages.
    pub fn cb_pop_front(&mut self, cb: u8, n: usize) {
        self.counter.add(self.device.costs().compute.cb_op);
        self.cb(cb).pop_front(n);
    }
}

/// Context handed to a [`crate::kernel::DataMovementKernel`]: the shared
/// [`KernelCtx`] plus the NoC the kernel is bound to.
pub struct DataMovementCtx {
    kernel: KernelCtx,
    noc: NocId,
}

impl Deref for DataMovementCtx {
    type Target = KernelCtx;

    fn deref(&self) -> &KernelCtx {
        &self.kernel
    }
}

impl DerefMut for DataMovementCtx {
    fn deref_mut(&mut self) -> &mut KernelCtx {
        &mut self.kernel
    }
}

impl DataMovementCtx {
    pub(crate) fn new(kernel: KernelCtx, noc: NocId) -> Self {
        DataMovementCtx { kernel, noc }
    }

    pub(crate) fn into_kernel(self) -> KernelCtx {
        self.kernel
    }

    /// Publish one completed work unit to the device's per-core completion
    /// watermark. Writer kernels call this after a tile's outputs are fully
    /// committed to DRAM, so a partial redo after a fault can resume the
    /// faulting core at a tile boundary while trusting survivors' watermarks.
    pub fn mark_unit_complete(&self) {
        self.kernel.device.record_progress(self.kernel.core);
    }

    /// Async NoC read of one tile page from an interleaved DRAM buffer
    /// (`noc_async_read_tile`). Returns the tile; the matching barrier is
    /// implicit (the simulator completes transfers eagerly but charges the
    /// full cost).
    ///
    /// # Panics
    /// Panics on out-of-range pages (a hardware kernel would fetch garbage).
    /// With fault injection armed, may raise a typed
    /// [`TensixError::NocTransactionFailed`] or
    /// [`TensixError::DramEccUncorrectable`] panic the command queue
    /// classifies into a structured launch error; an ECC-corrected read only
    /// charges the correction latency.
    #[must_use]
    pub fn noc_async_read_tile(&mut self, buf: BufferRef, page: usize) -> Tile {
        let noc = self.noc;
        let k = &mut self.kernel;
        let bytes = buf.format.tile_bytes();
        // DRAM banks sit on the chip perimeter; charge a representative hop
        // count from this core to the bank for page's channel.
        let hops = 2 + tensix::dram::DramModel::channel_of_page(page) % 4;
        let start = k.counter.cycles();
        let cycles = k.device.noc().read(k.device.costs(), noc, bytes, hops);
        k.counter.add(cycles);
        let plan = k.device.faults();
        if !plan.disarmed() {
            if plan.roll_noc_transient() {
                // One hardware retransmit: charge the transfer again.
                k.counter.add(cycles);
                let ts = k.counter.cycles();
                if let Some(tr) = k.tracer.as_mut() {
                    tr.instant("noc_retransmit", ts, &[("page", page as u64)]);
                }
                if plan.roll_noc_transient() {
                    plan.count_noc_failure();
                    std::panic::panic_any(TensixError::NocTransactionFailed {
                        context: "noc_async_read_tile",
                    });
                }
            }
            // Background ECC scrub: the patrol reader steals DRAM read
            // bandwidth while enabled (extra cycles on every read), and the
            // corruption roll sees the device's virtual time so standing
            // errors decay between sweeps and escalation tracks time.
            let slowdown = plan.dram_scrub_slowdown();
            if slowdown > 1.0 {
                k.counter.add((cycles as f64 * (slowdown - 1.0)).round() as u64);
            }
            let now_s =
                k.device.clock().now() + k.device.costs().cycles_to_seconds(k.counter.cycles());
            match plan.roll_dram_read_at(now_s) {
                DramReadFault::None => {}
                // The GDDR6 controller fixed the word inline; small latency.
                DramReadFault::Corrected => {
                    k.counter.add(k.device.costs().compute.cb_op);
                }
                DramReadFault::Uncorrectable => {
                    std::panic::panic_any(TensixError::DramEccUncorrectable { page });
                }
            }
        }
        let end = k.counter.cycles();
        if let Some(tr) = k.tracer.as_mut() {
            tr.complete(
                "noc_read",
                start,
                end - start,
                &[("bytes", bytes as u64), ("page", page as u64)],
            );
        }
        k.device
            .dram()
            .read_tile(DramRequester::Core(k.core), buf.id, page)
            .unwrap_or_else(|e| panic!("noc_async_read_tile({page}): {e}"))
    }

    /// Async NoC write of one tile page to an interleaved DRAM buffer
    /// (`noc_async_write_tile`).
    ///
    /// # Panics
    /// Panics on out-of-range pages. With fault injection armed, may raise a
    /// typed [`TensixError::NocTransactionFailed`] panic after a failed
    /// retransmit.
    pub fn noc_async_write_tile(&mut self, buf: BufferRef, page: usize, tile: &Tile) {
        let noc = self.noc;
        let k = &mut self.kernel;
        let bytes = buf.format.tile_bytes();
        let hops = 2 + tensix::dram::DramModel::channel_of_page(page) % 4;
        let start = k.counter.cycles();
        let cycles = k.device.noc().write(k.device.costs(), noc, bytes, hops);
        k.counter.add(cycles);
        let plan = k.device.faults();
        if !plan.disarmed() && plan.roll_noc_transient() {
            k.counter.add(cycles);
            let ts = k.counter.cycles();
            if let Some(tr) = k.tracer.as_mut() {
                tr.instant("noc_retransmit", ts, &[("page", page as u64)]);
            }
            if plan.roll_noc_transient() {
                plan.count_noc_failure();
                std::panic::panic_any(TensixError::NocTransactionFailed {
                    context: "noc_async_write_tile",
                });
            }
        }
        let end = k.counter.cycles();
        if let Some(tr) = k.tracer.as_mut() {
            tr.complete(
                "noc_write",
                start,
                end - start,
                &[("bytes", bytes as u64), ("page", page as u64)],
            );
        }
        k.device
            .dram()
            .write_tile(DramRequester::Core(k.core), buf.id, page, tile)
            .unwrap_or_else(|e| panic!("noc_async_write_tile({page}): {e}"));
    }

    /// `noc_async_read_barrier` / `noc_async_write_barrier`: waits for
    /// outstanding transactions. Functionally a no-op here (transfers are
    /// eager); charges a small synchronization cost.
    pub fn noc_barrier(&mut self) {
        self.kernel.counter.add(self.kernel.device.costs().compute.cb_op);
    }

    /// Convenience reader idiom: reserve, NoC-read a DRAM page into the CB,
    /// push. One call per tile keeps reader kernels close to the TT-Metalium
    /// originals without the pointer plumbing.
    pub async fn read_page_to_cb(&mut self, cb: u8, buf: BufferRef, page: usize) {
        self.cb_reserve_back(cb, 1).await;
        let tile = self.noc_async_read_tile(buf, page);
        self.noc_barrier();
        self.cb_write_tile(cb, &tile);
        self.cb_push_back(cb, 1);
    }

    /// Convenience writer idiom: wait on a CB page, NoC-write it to DRAM,
    /// pop.
    pub async fn write_cb_to_page(&mut self, cb: u8, buf: BufferRef, page: usize) {
        self.cb_wait_front(cb, 1).await;
        let tile = self.cb_peek_tile(cb, 0);
        self.noc_async_write_tile(buf, page, &tile);
        self.noc_barrier();
        self.cb_pop_front(cb, 1);
    }
}

/// Context handed to a [`crate::kernel::ComputeKernel`]: the shared
/// [`KernelCtx`] plus the dst and src register files and the per-pipe
/// cycle counters.
pub struct ComputeCtx {
    kernel: KernelCtx,
    dst: DstRegisters,
    src: SrcRegisters,
    /// Cycles charged to the matrix (FPU) pipe: matmuls, FPU element-wise
    /// and broadcast ops.
    matrix_cycles: u64,
    /// Cycles charged to the vector (SFPU) pipe: transcendentals, unary and
    /// binary lane ops, fills, scales, register moves.
    vector_cycles: u64,
    /// Rows of the tiles the element-wise ops work on: 32, or 16 for half
    /// tiles.
    tile_rows: usize,
}

impl Deref for ComputeCtx {
    type Target = KernelCtx;

    fn deref(&self) -> &KernelCtx {
        &self.kernel
    }
}

impl DerefMut for ComputeCtx {
    fn deref_mut(&mut self) -> &mut KernelCtx {
        &mut self.kernel
    }
}

impl ComputeCtx {
    pub(crate) fn new(kernel: KernelCtx, format: DataFormat) -> Self {
        ComputeCtx {
            kernel,
            dst: DstRegisters::new(format),
            src: SrcRegisters::new(),
            matrix_cycles: 0,
            vector_cycles: 0,
            tile_rows: TILE_DIM,
        }
    }

    pub(crate) fn into_kernel(self) -> KernelCtx {
        self.kernel
    }

    /// Set the row count of the tiles the element-wise ops work on, once at
    /// kernel start like an LLK init with `num_faces`: 32 for whole tiles,
    /// 16 for half tiles (faces 0–1).
    ///
    /// # Panics
    /// Panics unless `rows` is 16 or 32.
    pub fn set_tile_rows(&mut self, rows: usize) {
        let _ = row_elems(rows);
        self.tile_rows = rows;
    }

    /// Row count of the tiles the element-wise ops work on.
    #[must_use]
    pub fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    /// The device's compute cost table.
    fn costs(&self) -> ComputeCosts {
        self.kernel.device.costs().compute
    }

    /// The cost table at the context's tile row count, for the passes this
    /// context charges itself (copy, pack, lane-broadcast unpack).
    fn row_costs(&self) -> ComputeCosts {
        self.costs().for_rows(self.tile_rows)
    }

    /// Refuse a whole-tile-only op on a half-tile context rather than guess
    /// its cost.
    fn require_whole_tiles(&self, op: &str) {
        assert_eq!(
            self.tile_rows, TILE_DIM,
            "{op}: whole tiles only, not {}-row tiles",
            self.tile_rows
        );
    }

    /// Charge `cycles` to the kernel total and to the matrix (FPU) pipe.
    fn charge_matrix(&mut self, cycles: u64) {
        self.kernel.counter.add(cycles);
        self.matrix_cycles += cycles;
    }

    /// Charge `cycles` to the kernel total and to the vector (SFPU) pipe.
    fn charge_vector(&mut self, cycles: u64) {
        self.kernel.counter.add(cycles);
        self.vector_cycles += cycles;
    }

    /// Cycles charged to the matrix (FPU) pipe so far.
    #[must_use]
    pub fn matrix_cycles(&self) -> u64 {
        self.matrix_cycles
    }

    /// Cycles charged to the vector (SFPU) pipe so far.
    #[must_use]
    pub fn vector_cycles(&self) -> u64 {
        self.vector_cycles
    }

    /// Dst capacity in tiles for the active math format (16 in BF16, 8 in
    /// FP32 — the paper's register-budget constraint).
    #[must_use]
    pub fn dst_capacity(&self) -> usize {
        self.dst.capacity()
    }

    // --- dst register protocol ---

    /// `tile_regs_acquire`: MATH takes the dst file.
    pub fn tile_regs_acquire(&mut self) {
        self.dst.acquire();
    }

    /// `tile_regs_commit` + `tile_regs_wait`: hand dst to PACK.
    pub fn tile_regs_commit(&mut self) {
        self.dst.commit();
    }

    /// `tile_regs_release`: PACK frees dst.
    pub fn tile_regs_release(&mut self) {
        self.dst.release();
    }

    // --- unpack/pack ---

    /// `copy_tile`: unpack the `idx`-th visible page of `cb` into dst
    /// segment `dst_idx`.
    pub fn copy_tile(&mut self, cb: u8, idx: usize, dst_idx: usize) {
        let tile = self.kernel.cb(cb).peek_tile(idx);
        self.kernel.counter.add(self.row_costs().copy_tile);
        self.dst.write(dst_idx, tile).unwrap_or_else(|e| panic!("copy_tile: {e}"));
    }

    /// Lane-broadcast unpack: fill the context's tile rows of dst segment
    /// `dst_idx` with element `lane` (row-major index, any of the page's
    /// 1024) of the `idx`-th visible page of `cb`.
    ///
    /// Hardware story: the unpacker's address generator can re-read the same
    /// datum with stride 0, filling srcA with a broadcast of one scalar —
    /// the trick that lets an optimized kernel evaluate 1024 targets against
    /// source particle `lane` without materializing replicated tiles in
    /// DRAM. Costs one unpack pass.
    ///
    /// # Panics
    /// Panics if `lane >= 1024`.
    pub fn copy_tile_lane_broadcast(&mut self, cb: u8, idx: usize, lane: usize, dst_idx: usize) {
        assert!(lane < tensix::TILE_ELEMS, "lane {lane} out of range");
        let src = self.kernel.cb(cb).peek_tile(idx);
        let value = self.dst.format().quantize(src.as_slice()[lane]);
        let costs = self.row_costs();
        self.kernel.counter.add(costs.issue_overhead + costs.unpack_tile);
        let out = self.dst.output(dst_idx).unwrap_or_else(|e| panic!("lane broadcast: {e}"));
        out.as_mut_slice()[..row_elems(self.tile_rows)].fill(value);
    }

    /// Fused lane-broadcast subtraction:
    /// `dst = broadcast(cb_src[i_src][lane]) − cb_tgt[i_tgt]` — the
    /// displacement computation of the elementwise force kernel
    /// (srcA loaded with stride 0, srcB with the target tile, FPU subtract).
    ///
    /// # Panics
    /// Panics if `lane >= 1024`.
    pub fn sub_tiles_lane_bcast(
        &mut self,
        cb_src: u8,
        cb_tgt: u8,
        i_src: usize,
        i_tgt: usize,
        lane: usize,
        dst: usize,
    ) {
        assert!(lane < tensix::TILE_ELEMS, "lane {lane} out of range");
        let src = self.kernel.cb(cb_src).peek_tile(i_src);
        let tgt = self.kernel.cb(cb_tgt).peek_tile(i_tgt);
        let (costs, rows) = (self.costs(), self.tile_rows);
        // Stride-0 unpack of the source lane into srcA, full unpack of the
        // target tile into srcB.
        self.kernel.counter.add(self.src.unpack_lane_broadcast(
            &costs,
            rows,
            SrcReg::A,
            &src,
            lane,
        ));
        self.kernel.counter.add(self.src.unpack_tile(&costs, rows, SrcReg::B, tgt));
        self.fpu_eltwise_to_dst(BinaryOp::Sub, dst, "sub lane bcast");
    }

    /// MATH half of an FPU element-wise op: `dst = op(srcA, srcB)` on the
    /// context's tile rows, written into the dst segment's recycled
    /// storage.
    fn fpu_eltwise_to_dst(&mut self, op: BinaryOp, dst: usize, what: &str) {
        let costs = self.costs();
        let sa = self.src.read(SrcReg::A).unwrap_or_else(|e| panic!("{what}: {e}"));
        let sb = self.src.read(SrcReg::B).unwrap_or_else(|e| panic!("{what}: {e}"));
        let out = self.dst.output(dst).unwrap_or_else(|e| panic!("{what}: {e}"));
        let cycles = fpu::eltwise_binary(&costs, self.tile_rows, op, sa, sb, out);
        self.charge_matrix(cycles);
    }

    /// `pack_tile`: move dst segment `dst_idx` into space reserved in `cb`.
    /// Requires [`ComputeCtx::tile_regs_commit`] first.
    pub fn pack_tile(&mut self, dst_idx: usize, cb: u8) {
        let tile = self.dst.read_pack(dst_idx).unwrap_or_else(|e| panic!("pack_tile: {e}"));
        self.kernel.counter.add(self.row_costs().pack_tile);
        self.kernel.cb(cb).write_tile(&tile);
    }

    // --- FPU element-wise binary ops from CBs (add_tiles / sub_tiles /
    //     mul_tiles) ---

    fn fpu_binary(&mut self, op: BinaryOp, cb_a: u8, cb_b: u8, ia: usize, ib: usize, dst: usize) {
        // UNPACK: CB pages into srcA/srcB; MATH: FPU consumes the pair.
        let a = self.kernel.cb(cb_a).peek_tile(ia);
        let b = self.kernel.cb(cb_b).peek_tile(ib);
        let (costs, rows) = (self.costs(), self.tile_rows);
        self.kernel.counter.add(self.src.unpack_tile(&costs, rows, SrcReg::A, a));
        self.kernel.counter.add(self.src.unpack_tile(&costs, rows, SrcReg::B, b));
        self.fpu_eltwise_to_dst(op, dst, "fpu binary");
    }

    /// `add_tiles(cb_a, cb_b, ia, ib, dst)`.
    pub fn add_tiles(&mut self, cb_a: u8, cb_b: u8, ia: usize, ib: usize, dst: usize) {
        self.fpu_binary(BinaryOp::Add, cb_a, cb_b, ia, ib, dst);
    }

    /// `sub_tiles(cb_a, cb_b, ia, ib, dst)` — the paper's element-wise
    /// displacement computation.
    pub fn sub_tiles(&mut self, cb_a: u8, cb_b: u8, ia: usize, ib: usize, dst: usize) {
        self.fpu_binary(BinaryOp::Sub, cb_a, cb_b, ia, ib, dst);
    }

    /// `mul_tiles(cb_a, cb_b, ia, ib, dst)`.
    pub fn mul_tiles(&mut self, cb_a: u8, cb_b: u8, ia: usize, ib: usize, dst: usize) {
        self.fpu_binary(BinaryOp::Mul, cb_a, cb_b, ia, ib, dst);
    }

    /// Dense tile matmul from CBs with optional dst accumulation
    /// (`matmul_tiles`).
    pub fn matmul_tiles(
        &mut self,
        cb_a: u8,
        cb_b: u8,
        ia: usize,
        ib: usize,
        dst: usize,
        accumulate: bool,
    ) {
        self.require_whole_tiles("matmul_tiles");
        let a = self.kernel.cb(cb_a).peek_tile(ia);
        let b = self.kernel.cb(cb_b).peek_tile(ib);
        let costs = self.costs();
        self.kernel.counter.add(self.src.unpack_tile(&costs, TILE_DIM, SrcReg::A, a));
        self.kernel.counter.add(self.src.unpack_tile(&costs, TILE_DIM, SrcReg::B, b));
        let sa = self.src.read(SrcReg::A).unwrap_or_else(|e| panic!("matmul: {e}"));
        let sb = self.src.read(SrcReg::B).unwrap_or_else(|e| panic!("matmul: {e}"));
        // Accumulation reads the segment back through the math port (a
        // copy-on-write point if it still shares a CB page); otherwise the
        // product overwrites the segment's recycled storage.
        let acc = if accumulate {
            self.dst.modify(dst).unwrap_or_else(|e| panic!("matmul acc: {e}"))
        } else {
            self.dst.output(dst).unwrap_or_else(|e| panic!("matmul: {e}"))
        };
        let cycles = fpu::matmul_tiles(&costs, sa, sb, acc, accumulate);
        self.charge_matrix(cycles);
    }

    // --- FPU broadcast binary ops against dst ---

    /// Shared body of the `*_tile_bcast` ops: `dst = op(dst, bcast(cb[idx]))`
    /// with the broadcast operand unpacked into srcB (stride-0 row/column
    /// address generation) and dst read back through the math port.
    fn fpu_binary_bcast_dst(
        &mut self,
        op: BinaryOp,
        dim: BroadcastDim,
        dst: usize,
        cb: u8,
        idx: usize,
    ) {
        self.require_whole_tiles("broadcast ops");
        let b = self.kernel.cb(cb).peek_tile(idx);
        let costs = self.costs();
        self.kernel.counter.add(self.src.unpack_tile(&costs, TILE_DIM, SrcReg::B, b));
        let sb = self.src.read(SrcReg::B).unwrap_or_else(|e| panic!("bcast: {e}"));
        let format = self.dst.format();
        let acc = self.dst.modify(dst).unwrap_or_else(|e| panic!("bcast: {e}"));
        if acc.format() != format {
            // A page `copy_tile`d from a CB of another format: the result
            // is a math-format tile holding the op of the page's values.
            let page = std::mem::replace(acc, Tile::zeros(format));
            acc.as_mut_slice().copy_from_slice(page.as_slice());
        }
        let cycles = fpu::eltwise_binary_bcast_in_place(&costs, op, dim, acc, sb);
        self.charge_matrix(cycles);
    }

    /// `add_tiles_bcast` against dst: `dst += bcast(cb[idx])` with row 0
    /// (`BroadcastDim::Row`), column 0 (`Col`) or element (0,0) (`Scalar`)
    /// of the CB page replicated across the tile.
    pub fn add_tile_bcast(&mut self, dim: BroadcastDim, dst: usize, cb: u8, idx: usize) {
        self.fpu_binary_bcast_dst(BinaryOp::Add, dim, dst, cb, idx);
    }

    /// `mul_tiles_bcast` against dst: `dst *= bcast(cb[idx])`.
    pub fn mul_tile_bcast(&mut self, dim: BroadcastDim, dst: usize, cb: u8, idx: usize) {
        self.fpu_binary_bcast_dst(BinaryOp::Mul, dim, dst, cb, idx);
    }

    // --- SFPU ops on dst ---

    fn sfpu_unary(&mut self, op: UnaryOp, dst: usize) {
        let (costs, rows) = (self.costs(), self.tile_rows);
        let tile = self.dst.modify(dst).unwrap_or_else(|e| panic!("sfpu unary: {e}"));
        let cycles = sfpu::apply_unary(&costs, rows, op, tile);
        self.charge_vector(cycles);
    }

    /// `square_tile(dst)` — x².
    pub fn square_tile(&mut self, dst: usize) {
        self.sfpu_unary(UnaryOp::Square, dst);
    }

    /// `rsqrt_tile(dst)` — precise variant.
    pub fn rsqrt_tile(&mut self, dst: usize) {
        self.sfpu_unary(UnaryOp::Rsqrt, dst);
    }

    /// `negative_tile(dst)`.
    pub fn negative_tile(&mut self, dst: usize) {
        self.sfpu_unary(UnaryOp::Neg, dst);
    }

    fn sfpu_binary(&mut self, op: BinaryOp, dst_a: usize, dst_b: usize) {
        let b = self.dst.read_math(dst_b).unwrap_or_else(|e| panic!("sfpu binary: {e}"));
        let (costs, rows) = (self.costs(), self.tile_rows);
        let a = self.dst.modify(dst_a).unwrap_or_else(|e| panic!("sfpu binary: {e}"));
        let cycles = sfpu::apply_binary(&costs, rows, op, a, &b);
        self.charge_vector(cycles);
    }

    /// `add_binary_tile(dst_a, dst_b)`: dst_a += dst_b.
    pub fn add_binary_tile(&mut self, dst_a: usize, dst_b: usize) {
        self.sfpu_binary(BinaryOp::Add, dst_a, dst_b);
    }

    /// `sub_binary_tile(dst_a, dst_b)`: dst_a -= dst_b — named in the paper.
    pub fn sub_binary_tile(&mut self, dst_a: usize, dst_b: usize) {
        self.sfpu_binary(BinaryOp::Sub, dst_a, dst_b);
    }

    /// `mul_binary_tile(dst_a, dst_b)`: dst_a *= dst_b.
    pub fn mul_binary_tile(&mut self, dst_a: usize, dst_b: usize) {
        self.sfpu_binary(BinaryOp::Mul, dst_a, dst_b);
    }

    /// Fused multiply-accumulate across dst segments:
    /// `dst_acc += dst_a * dst_b` (SFPU MAD).
    pub fn mad_binary_tile(&mut self, dst_a: usize, dst_b: usize, dst_acc: usize) {
        let a = self.dst.read_math(dst_a).unwrap_or_else(|e| panic!("mad: {e}"));
        let b = self.dst.read_math(dst_b).unwrap_or_else(|e| panic!("mad: {e}"));
        let (costs, rows) = (self.costs(), self.tile_rows);
        let acc = self.dst.modify(dst_acc).unwrap_or_else(|e| panic!("mad: {e}"));
        let cycles = sfpu::apply_mad(&costs, rows, &a, &b, acc);
        self.charge_vector(cycles);
    }

    /// SFPU register move: copy dst segment `src` into dst segment `dst`
    /// (`copy_dest_values` LLK).
    pub fn copy_dst_tile(&mut self, src: usize, dst: usize) {
        let tile = self.dst.read_math(src).unwrap_or_else(|e| panic!("copy_dst_tile: {e}"));
        let costs = self.row_costs();
        self.charge_vector(costs.issue_overhead + costs.sfpu_simple);
        self.dst.write(dst, tile).unwrap_or_else(|e| panic!("copy_dst_tile: {e}"));
    }

    /// `fill_tile(dst, value)`: set every lane of a dst segment.
    pub fn fill_tile(&mut self, dst: usize, value: f32) {
        let (costs, rows) = (self.costs(), self.tile_rows);
        let tile = self.dst.output(dst).unwrap_or_else(|e| panic!("fill_tile: {e}"));
        let cycles = sfpu::apply_fill(&costs, rows, tile, value);
        self.charge_vector(cycles);
    }

    /// Multiply a dst segment by a scalar and add a bias in one SFPU pass
    /// (`binop_with_scalar` family).
    pub fn scale_tile(&mut self, dst: usize, scale: f32, bias: f32) {
        let (costs, rows) = (self.costs(), self.tile_rows);
        let tile = self.dst.modify(dst).unwrap_or_else(|e| panic!("scale_tile: {e}"));
        let cycles = sfpu::apply_unary_scaled(&costs, rows, UnaryOp::Identity, tile, scale, bias);
        self.charge_vector(cycles);
    }

    /// Debug accessor for tests: read a dst segment during MATH.
    #[must_use]
    pub fn debug_dst(&self, dst: usize) -> Tile {
        self.dst.read_math(dst).expect("debug_dst")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensix::cb::CircularBufferConfig;
    use tensix::DeviceConfig;

    fn mk_compute_ctx() -> ComputeCtx {
        let dev = Device::new(0, DeviceConfig::default());
        let mut cbs = CbMap::new();
        let cfg = CircularBufferConfig::new(4, DataFormat::Float32);
        cbs.insert(0, CircularBuffer::new(cfg));
        cbs.insert(1, CircularBuffer::new(cfg));
        cbs.insert(16, CircularBuffer::new(cfg));
        let kernel =
            KernelCtx::new(dev, CoreCoord::new(0, 0), cbs, SemMap::new(), [3, 7].into(), None);
        ComputeCtx::new(kernel, DataFormat::Float32)
    }

    /// Run a wait that must not have to wait.
    fn ready<F: std::future::Future>(wait: F) -> F::Output {
        let cx = &mut std::task::Context::from_waker(std::task::Waker::noop());
        match std::pin::pin!(wait).poll(cx) {
            std::task::Poll::Ready(out) => out,
            std::task::Poll::Pending => panic!("the wait would stall"),
        }
    }

    fn feed(ctx: &ComputeCtx, cb: u8, v: f32) {
        let c = ctx.cbs.get(cb).unwrap();
        assert!(c.try_reserve_back(1));
        c.write_tile(&Tile::splat(DataFormat::Float32, v));
        c.push_back(1);
    }

    #[test]
    fn slot_arrays_look_up_by_index() {
        let mut slots: SlotArray<&str, 4> = SlotArray::new();
        slots.insert(3, "three");
        slots.insert(1, "one");
        assert_eq!(slots.get(1), Some(&"one"));
        assert_eq!(slots.get(0), None);
        assert_eq!(slots.get(200), None, "an index past the array is simply absent");
        assert_eq!(slots.iter().collect::<Vec<_>>(), [(1, &"one"), (3, &"three")]);
    }

    #[test]
    #[should_panic(expected = "slot 4 out of range (0..4)")]
    fn slot_array_insert_is_range_checked() {
        SlotArray::<u32, 4>::new().insert(4, 0);
    }

    #[test]
    fn args_accessible() {
        let ctx = mk_compute_ctx();
        assert_eq!(ctx.arg(0), 3);
        assert_eq!(ctx.arg(1), 7);
    }

    #[test]
    #[should_panic(expected = "runtime arg 2 missing")]
    fn missing_arg_panics() {
        let _ = mk_compute_ctx().arg(2);
    }

    #[test]
    fn sub_square_rsqrt_pipeline() {
        // The inner pattern of the force kernel: dx = xi - xj; dx²; 1/√(…).
        let mut ctx = mk_compute_ctx();
        feed(&ctx, 0, 5.0);
        feed(&ctx, 1, 1.0);
        ready(ctx.cb_wait_front(0, 1));
        ready(ctx.cb_wait_front(1, 1));
        ctx.tile_regs_acquire();
        ctx.sub_tiles(0, 1, 0, 0, 0); // 4.0
        ctx.square_tile(0); // 16.0
        ctx.rsqrt_tile(0); // 0.25
        assert_eq!(ctx.debug_dst(0).get(0, 0), 0.25);
        ctx.tile_regs_commit();
        ready(ctx.cb_reserve_back(16, 1));
        ctx.pack_tile(0, 16);
        ctx.cb_push_back(16, 1);
        ctx.tile_regs_release();
        ctx.cb_pop_front(0, 1);
        ctx.cb_pop_front(1, 1);
        let out = ctx.cbs.get(16).unwrap();
        assert!(out.has_front(1));
        assert_eq!(out.peek_tile(0).get(0, 0), 0.25);
        assert!(ctx.cycles() > 0);
    }

    #[test]
    fn dst_binary_and_mad() {
        let mut ctx = mk_compute_ctx();
        feed(&ctx, 0, 2.0);
        feed(&ctx, 1, 3.0);
        ready(ctx.cb_wait_front(0, 1));
        ready(ctx.cb_wait_front(1, 1));
        ctx.tile_regs_acquire();
        ctx.copy_tile(0, 0, 0);
        ctx.copy_tile(1, 0, 1);
        ctx.fill_tile(2, 10.0);
        ctx.mad_binary_tile(0, 1, 2); // 10 + 6 = 16
        assert_eq!(ctx.debug_dst(2).get(0, 0), 16.0);
        ctx.mul_binary_tile(0, 1); // 6
        assert_eq!(ctx.debug_dst(0).get(0, 0), 6.0);
        ctx.sub_binary_tile(0, 1); // 3
        assert_eq!(ctx.debug_dst(0).get(0, 0), 3.0);
        ctx.add_binary_tile(0, 1); // 6
        assert_eq!(ctx.debug_dst(0).get(0, 0), 6.0);
        ctx.scale_tile(0, 0.5, 1.0); // 4
        assert_eq!(ctx.debug_dst(0).get(0, 0), 4.0);
        ctx.tile_regs_commit();
        ctx.tile_regs_release();
    }

    #[test]
    fn matmul_from_cbs() {
        let mut ctx = mk_compute_ctx();
        feed(&ctx, 0, 1.0); // all-ones
        feed(&ctx, 1, 2.0);
        ready(ctx.cb_wait_front(0, 1));
        ready(ctx.cb_wait_front(1, 1));
        ctx.tile_regs_acquire();
        ctx.matmul_tiles(0, 1, 0, 0, 0, false);
        // (1*2) summed over k=32 = 64 in every cell.
        assert_eq!(ctx.debug_dst(0).get(3, 3), 64.0);
        ctx.matmul_tiles(0, 1, 0, 0, 0, true);
        assert_eq!(ctx.debug_dst(0).get(3, 3), 128.0);
        ctx.tile_regs_commit();
        ctx.tile_regs_release();
    }

    /// A context on `rows`-row tiles whose CBs 0 and 1 each hold one
    /// waited page of the same varied values.
    fn rows_ctx(rows: usize) -> ComputeCtx {
        let mut ctx = mk_compute_ctx();
        ctx.set_tile_rows(rows);
        let vals: Vec<f32> = (0..1024).map(|i| 1.0 + (i % 113) as f32 * 0.37).collect();
        for (cb, scale) in [(0u8, 1.0f32), (1, -0.5)] {
            let c = ctx.cbs.get(cb).unwrap();
            assert!(c.try_reserve_back(1));
            let scaled: Vec<f32> = vals.iter().map(|v| v * scale).collect();
            c.write_tile(&Tile::from_rowmajor(DataFormat::Float32, &scaled));
            c.push_back(1);
            ready(ctx.cb_wait_front(cb, 1));
        }
        ctx
    }

    /// Each element-wise op of a half-tile context computes rows 0–15
    /// bitwise as the whole-tile op does, and charges its per-element
    /// passes at half with the issue overhead whole.
    #[test]
    fn half_tile_ops_match_whole_tile_rows_at_half_per_element_cost() {
        type Op = (&'static str, fn(&mut ComputeCtx), fn(&ComputeCosts) -> u64);
        let fpu = |c: &ComputeCosts| 2 * c.unpack_tile + c.issue_overhead + c.fpu_eltwise;
        let ops: [Op; 15] = [
            ("copy_tile", |x| x.copy_tile(0, 0, 0), |c| c.copy_tile),
            (
                "lane_bcast",
                |x| x.copy_tile_lane_broadcast(1, 0, 700, 1),
                |c| c.issue_overhead + c.unpack_tile,
            ),
            ("sub_lane_bcast", |x| x.sub_tiles_lane_bcast(1, 0, 0, 0, 5, 2), fpu),
            ("sub_tiles", |x| x.sub_tiles(0, 1, 0, 0, 3), fpu),
            ("add_tiles", |x| x.add_tiles(0, 1, 0, 0, 4), fpu),
            ("mul_tiles", |x| x.mul_tiles(0, 1, 0, 0, 5), fpu),
            ("square", |x| x.square_tile(3), |c| c.issue_overhead + c.sfpu_simple),
            ("rsqrt", |x| x.rsqrt_tile(0), |c| c.issue_overhead + c.sfpu_transcendental),
            ("negative", |x| x.negative_tile(4), |c| c.issue_overhead + c.sfpu_simple),
            ("add_binary", |x| x.add_binary_tile(2, 3), |c| c.issue_overhead + c.sfpu_simple),
            ("mul_binary", |x| x.mul_binary_tile(2, 0), |c| c.issue_overhead + c.sfpu_simple),
            ("mad", |x| x.mad_binary_tile(0, 1, 5), |c| c.issue_overhead + c.sfpu_mad),
            ("copy_dst", |x| x.copy_dst_tile(5, 6), |c| c.issue_overhead + c.sfpu_simple),
            ("fill", |x| x.fill_tile(7, 2.5), |c| c.issue_overhead + c.sfpu_simple),
            (
                "scale",
                |x| x.scale_tile(6, 3.0, 0.5),
                |c| c.issue_overhead + c.sfpu_simple + c.sfpu_mad,
            ),
        ];
        let (mut whole, mut half) = (rows_ctx(TILE_DIM), rows_ctx(tensix::HALF_TILE_ROWS));
        let whole_costs = whole.costs();
        let half_costs = whole_costs.for_rows(tensix::HALF_TILE_ROWS);
        whole.tile_regs_acquire();
        half.tile_regs_acquire();
        for (name, op, cost) in ops {
            let (w0, h0) = (whole.cycles(), half.cycles());
            op(&mut whole);
            op(&mut half);
            assert_eq!(whole.cycles() - w0, cost(&whole_costs), "{name}: whole-tile cycles");
            assert_eq!(half.cycles() - h0, cost(&half_costs), "{name}: half-tile cycles");
            assert!(half.cycles() - h0 < whole.cycles() - w0, "{name}");
        }
        for d in 0..8 {
            let (w, h) = (whole.debug_dst(d), half.debug_dst(d));
            for (i, (a, b)) in w.as_slice()[..512].iter().zip(&h.as_slice()[..512]).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "dst[{d}] lane {i}");
            }
        }
        for ctx in [&mut whole, &mut half] {
            ctx.tile_regs_commit();
            ready(ctx.cb_reserve_back(16, 1));
        }
        let (w0, h0) = (whole.cycles(), half.cycles());
        whole.pack_tile(2, 16);
        half.pack_tile(2, 16);
        assert_eq!(whole.cycles() - w0, whole_costs.pack_tile);
        assert_eq!(half.cycles() - h0, half_costs.pack_tile);
    }

    fn bits(t: &Tile) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A context on a `format` dst file whose CBs 0 and 1 (`format`) and
    /// 2 (`page_format`) each hold two waited pages of varied values.
    fn matrix_ctx(format: DataFormat, page_format: DataFormat) -> ComputeCtx {
        let mut cbs = CbMap::new();
        for (cb, f) in [(0u8, format), (1, format), (2, page_format)] {
            let c = CircularBuffer::new(CircularBufferConfig::new(2, f));
            assert!(c.try_reserve_back(2));
            for page in 0..2u32 {
                let mut x = 0x9e37_79b9u32 ^ (u32::from(cb) << 8 | page);
                let vals: Vec<f32> = (0..tensix::TILE_ELEMS)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 17;
                        x ^= x << 5;
                        (x >> 8) as f32 / (1u32 << 24) as f32 * 4.0 - 2.0
                    })
                    .collect();
                c.write_tile(&Tile::from_rowmajor(f, &vals));
            }
            c.push_back(2);
            cbs.insert(cb, c);
        }
        let dev = Device::new(0, DeviceConfig::default());
        let core = CoreCoord::new(0, 0);
        let mut ctx =
            ComputeCtx::new(KernelCtx::new(dev, core, cbs, SemMap::new(), [].into(), None), format);
        for cb in 0..3 {
            ready(ctx.cb_wait_front(cb, 2));
        }
        ctx
    }

    /// The matrix-pipe ops write their dst segment in place, bitwise as
    /// the `fpu::reference` forms compute into a fresh tile, and never
    /// through a CB page that a segment still shares after `copy_tile`.
    #[test]
    fn matrix_pipe_ops_match_reference_through_recycled_dst() {
        let c = ComputeCosts::default();
        let dims = [BroadcastDim::Row, BroadcastDim::Col, BroadcastDim::Scalar];
        for format in [DataFormat::Float32, DataFormat::Float16b] {
            let mut ctx = matrix_ctx(format, format);
            let page = |ctx: &ComputeCtx, cb: u8, i: usize| ctx.cbs.get(cb).unwrap().peek_tile(i);
            let (a0, a1, b0, b1) =
                (page(&ctx, 0, 0), page(&ctx, 0, 1), page(&ctx, 1, 0), page(&ctx, 1, 1));
            // Two iterations, so the second recycles the first's storage.
            for _ in 0..2 {
                ctx.tile_regs_acquire();
                let mut want = Tile::zeros(format);
                ctx.matmul_tiles(0, 1, 0, 0, 0, false);
                fpu::reference::matmul_tiles(&c, &a0, &b0, &mut want, false);
                assert_eq!(bits(&ctx.debug_dst(0)), bits(&want), "{format:?} matmul");
                ctx.matmul_tiles(0, 1, 1, 1, 0, true);
                fpu::reference::matmul_tiles(&c, &a1, &b1, &mut want, true);
                assert_eq!(bits(&ctx.debug_dst(0)), bits(&want), "{format:?} matmul acc");
                for dim in dims {
                    for (op, cb) in [(BinaryOp::Add, 1u8), (BinaryOp::Mul, 0)] {
                        let before = want.clone();
                        if op == BinaryOp::Add {
                            ctx.add_tile_bcast(dim, 0, cb, 1);
                        } else {
                            ctx.mul_tile_bcast(dim, 0, cb, 1);
                        }
                        let b = page(&ctx, cb, 1);
                        fpu::reference::eltwise_binary_bcast(&c, op, dim, &before, &b, &mut want);
                        assert_eq!(
                            bits(&ctx.debug_dst(0)),
                            bits(&want),
                            "{format:?} {op:?} {dim:?}"
                        );
                    }
                }
                // Accumulate and broadcast onto CB pages unpacked into dst.
                ctx.copy_tile(0, 1, 1);
                ctx.copy_tile(1, 0, 2);
                ctx.matmul_tiles(0, 1, 0, 1, 1, true);
                ctx.add_tile_bcast(BroadcastDim::Col, 2, 0, 0);
                let mut acc = a1.clone();
                fpu::reference::matmul_tiles(&c, &a0, &b1, &mut acc, true);
                assert_eq!(bits(&ctx.debug_dst(1)), bits(&acc), "{format:?} acc onto a page");
                let mut sum = Tile::zeros(format);
                fpu::reference::eltwise_binary_bcast(
                    &c,
                    BinaryOp::Add,
                    BroadcastDim::Col,
                    &b0,
                    &a0,
                    &mut sum,
                );
                assert_eq!(bits(&ctx.debug_dst(2)), bits(&sum), "{format:?} bcast onto a page");
                assert_eq!(bits(&page(&ctx, 0, 1)), bits(&a1), "{format:?} CB page kept its bits");
                assert_eq!(bits(&page(&ctx, 1, 0)), bits(&b0), "{format:?} CB page kept its bits");
                ctx.tile_regs_commit();
                ctx.tile_regs_release();
            }
        }
        // A page of another format broadcast against in dst becomes a
        // math-format result, as if computed into a fresh math-format tile.
        let mut ctx = matrix_ctx(DataFormat::Float16b, DataFormat::Float32);
        let p = ctx.cbs.get(2).unwrap().peek_tile(0);
        let b = ctx.cbs.get(1).unwrap().peek_tile(1);
        ctx.tile_regs_acquire();
        ctx.copy_tile(2, 0, 3);
        ctx.mul_tile_bcast(BroadcastDim::Row, 3, 1, 1);
        let mut want = Tile::zeros(DataFormat::Float16b);
        fpu::reference::eltwise_binary_bcast(
            &c,
            BinaryOp::Mul,
            BroadcastDim::Row,
            &p,
            &b,
            &mut want,
        );
        let got = ctx.debug_dst(3);
        assert_eq!(got.format(), DataFormat::Float16b);
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(bits(&ctx.cbs.get(2).unwrap().peek_tile(0)), bits(&p), "CB page kept its bits");
    }

    #[test]
    #[should_panic(expected = "matmul_tiles: whole tiles only")]
    fn matmul_refuses_half_tiles() {
        let mut ctx = rows_ctx(tensix::HALF_TILE_ROWS);
        ctx.tile_regs_acquire();
        ctx.matmul_tiles(0, 1, 0, 0, 0, false);
    }

    #[test]
    #[should_panic(expected = "broadcast ops: whole tiles only")]
    fn broadcast_refuses_half_tiles() {
        let mut ctx = rows_ctx(tensix::HALF_TILE_ROWS);
        ctx.tile_regs_acquire();
        ctx.fill_tile(0, 1.0);
        ctx.add_tile_bcast(BroadcastDim::Row, 0, 1, 0);
    }

    #[test]
    #[should_panic(expected = "not configured")]
    fn unknown_cb_panics() {
        let mut ctx = mk_compute_ctx();
        ready(ctx.cb_wait_front(9, 1));
    }

    #[test]
    fn fp32_dst_capacity_enforced_via_ctx() {
        let mut ctx = mk_compute_ctx();
        assert_eq!(ctx.dst_capacity(), 8);
        ctx.tile_regs_acquire();
        for i in 0..8 {
            ctx.fill_tile(i, 1.0);
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.fill_tile(8, 1.0);
        }));
        assert!(r.is_err(), "9th FP32 dst tile must fault");
    }
}
