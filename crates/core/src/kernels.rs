//! The read / compute / write kernels of the force pipeline.
//!
//! Section 3 of the paper: "The data flow is organized across three compute
//! kernels. The read kernel loads the original particle data from DRAM and
//! formats it into tiles stored in CBs. It is implemented as a double
//! for-loop, where the outer loop reads the particle data in a tiled manner,
//! and the inner loop reads the replicated tiles used in the subsequent
//! computation. The compute kernel then performs the gravitational force and
//! jerk calculations by consuming the tiled data in a manner consistent with
//! the read kernel. After the computation is complete, the write kernel
//! transfers the results back to DRAM."
//!
//! The paper's inner loop streams `N` replicated source tiles, one per
//! particle, from DRAM. That layout is modelled only in
//! [`crate::perf_model`]. The kernels here keep the double loop and the
//! arithmetic but read the *packed* source view — ⌈N/1024⌉ tiles per
//! quantity — and the compute kernel makes each per-particle broadcast
//! itself with stride-0 unpacks (`sub_tiles_lane_bcast`,
//! `copy_tile_lane_broadcast`). Sources are still summed `j = 0..N` in
//! order, so the forces are the replicated layout's bit for bit.
//!
//! A target work unit is a whole tile of 1024 targets or, when the launch
//! is cut into half tiles, a 16-row half tile of 512 (faces 0–1 of its
//! page). The compute kernel sets the context's tile rows once from a
//! runtime arg, and every element-wise op then computes only those rows;
//! reader and writer still move whole pages, and the source pages stay
//! whole tiles. Each target lane keeps the same arithmetic and source order
//! either way, so the unit size never changes a bit of the forces.
//!
//! Because the FP32 dst register file holds only 8 tiles, the compute kernel
//! stages its reusable intermediates — the displacement components
//! (dx, dy, dz, dvx, dvy, dvz) and the scalar fields w = m/s³ and
//! 3(d·dv)/s² — in L1 circular buffers, exactly the register-spill
//! workaround the paper describes. Transcendentals run on the SFPU
//! (`rsqrt_tile`), element-wise subtraction on the FPU.
//!
//! CB roles (per core):
//!
//! | CB          | contents                          | pages |
//! |-------------|-----------------------------------|-------|
//! | `IN0`       | target bundle (x y z vx vy vz)    | 6     |
//! | `IN1`       | packed source bundle (m x y z vx vy vz) | 14 |
//! | `INTERMED0` | displacements (dx dy dz dvx dvy dvz) | 6  |
//! | `INTERMED1` | w, rv3                            | 2     |
//! | `INTERMED2` | accumulator ring (ax ay az jx jy jz) | 12 |
//! | `OUT0`      | results per target tile           | 12    |

use tensix::fpu::BroadcastDim;
use tensix::TILE_ELEMS;
use ttmetal::cb_index::{IN0, IN1, IN2, IN3, INTERMED0, INTERMED1, INTERMED2, OUT0};
use ttmetal::{
    BufferRef, ComputeCtx, ComputeKernel, DataMovementCtx, DataMovementKernel, KernelFuture,
};

use crate::layout::matrix_pages::{
    A_POS, A_VEL, B_POST, B_VELT, COL_R2, COL_RV, ROW_M, ROW_R2EPS, ROW_RV,
};
use crate::layout::{matrix_chunks, num_matrix_blocks};

/// Runtime-arg slots shared by all three kernels; slots from 3 on are
/// kernel-specific.
pub mod args {
    /// First target work unit owned by this core.
    pub const START_TILE: usize = 0;
    /// Number of target work units owned by this core.
    pub const TILE_COUNT: usize = 1;
    /// Total number of source particles `n`: the elementwise kernels sweep
    /// ⌈n/1024⌉ packed source tiles, the matrix kernels ⌈n/32⌉ blocks.
    pub const NUM_SOURCES: usize = 2;
    /// Elementwise kernels only: the rows of a target work unit, 32 for a
    /// whole tile or 16 for a half tile.
    pub const TILE_ROWS: usize = 3;
    /// Matrix kernels only: the first slot of the launch's
    /// [`crate::layout::DampingPlan`], which covers every gathered target
    /// block, so any `[start, count]` window reads its own blocks' pairs.
    pub const DAMPING_PLAN: usize = 3;
}

/// The damping schedule of target blocks `start..start + count`, decoded
/// from the [`crate::layout::DampingPlan`] args: per block, its
/// `(source block, damping page)` pairs in source-block order.
fn damping_schedule(
    arg: impl Fn(usize) -> u32,
    start: usize,
    count: usize,
) -> Vec<Vec<(usize, usize)>> {
    let offsets = args::DAMPING_PLAN + 1;
    let pairs = offsets + arg(args::DAMPING_PLAN) as usize + 1;
    (start..start + count)
        .map(|blk| {
            (arg(offsets + blk) as usize..arg(offsets + blk + 1) as usize)
                .map(|p| (arg(pairs + 2 * p) as usize, arg(pairs + 2 * p + 1) as usize))
                .collect()
        })
        .collect()
}

/// Displacement CB page order.
const DX: usize = 0;
const DY: usize = 1;
const DZ: usize = 2;
const DVX: usize = 3;
const DVY: usize = 4;
const DVZ: usize = 5;

/// The read kernel: double loop, outer over this core's target tiles, inner
/// over the packed source tiles — ⌈n/1024⌉ pages per quantity, re-read once
/// per target tile.
pub struct ReaderKernel {
    /// Target-view buffers `[x, y, z, vx, vy, vz]`.
    pub targets: [BufferRef; 6],
    /// Packed source buffers `[m, x, y, z, vx, vy, vz]`.
    pub sources: [BufferRef; 7],
}

impl DataMovementKernel for ReaderKernel {
    fn run<'a>(&'a self, ctx: &'a mut DataMovementCtx) -> KernelFuture<'a> {
        Box::pin(async move {
            let start = ctx.arg(args::START_TILE) as usize;
            let count = ctx.arg(args::TILE_COUNT) as usize;
            let src_tiles = (ctx.arg(args::NUM_SOURCES) as usize).div_ceil(TILE_ELEMS);
            for tile in start..start + count {
                ctx.trace_span_begin("tile");
                // Outer loop: the packed target tile of each quantity.
                for buf in self.targets {
                    ctx.read_page_to_cb(IN0, buf, tile).await?;
                }
                // Inner loop: the packed source tiles.
                for s in 0..src_tiles {
                    for buf in self.sources {
                        ctx.read_page_to_cb(IN1, buf, s).await?;
                    }
                }
                ctx.trace_span_end("tile");
            }
            Ok(())
        })
    }
}

/// The compute kernel: force and jerk in FP32 on the Tensix math pipeline.
pub struct ForceComputeKernel {
    /// Squared Plummer softening (FP32), added to every pair distance. Must
    /// be positive: the device pipeline has no self-interaction branch, the
    /// softened r² keeps the diagonal finite.
    pub eps_squared: f32,
}

impl ForceComputeKernel {
    /// Per-source inner body: evaluates the unit's target lanes (1024, or
    /// 512 on a half tile) against source particle `lane` of the packed
    /// source tile at the front of `IN1`.
    async fn interact(&self, ctx: &mut ComputeCtx, lane: usize) {
        // --- Phase A: displacements into the staging CB -----------------
        // dx = xj − xi and the velocity analogues: FPU subtract with the
        // source lane unpacked stride-0 into srcA.
        ctx.tile_regs_acquire();
        for axis in 0..6 {
            // IN1 pages: [m, x, y, z, vx, vy, vz]; IN0: [x, y, z, vx, vy, vz].
            ctx.sub_tiles_lane_bcast(IN1, IN0, 1 + axis, axis, lane, DX + axis);
        }
        ctx.tile_regs_commit();
        ctx.cb_reserve_back(INTERMED0, 6).await;
        for k in 0..6 {
            ctx.pack_tile(k, INTERMED0);
        }
        ctx.cb_push_back(INTERMED0, 6);
        ctx.tile_regs_release();
        ctx.cb_wait_front(INTERMED0, 6).await;

        // --- Phase B: w = m/s³ and rv3 = 3 (d·dv)/s² ---------------------
        ctx.tile_regs_acquire();
        ctx.copy_tile(INTERMED0, DX, 0);
        ctx.square_tile(0);
        ctx.copy_tile(INTERMED0, DY, 1);
        ctx.square_tile(1);
        ctx.copy_tile(INTERMED0, DZ, 2);
        ctx.square_tile(2);
        ctx.add_binary_tile(0, 1);
        ctx.add_binary_tile(0, 2);
        ctx.scale_tile(0, 1.0, self.eps_squared); // s² = r² + ε²
        ctx.rsqrt_tile(0); // 1/s
        ctx.copy_dst_tile(0, 1);
        ctx.square_tile(1); // 1/s²
        ctx.copy_dst_tile(1, 2);
        ctx.mul_binary_tile(2, 0); // 1/s³
        ctx.copy_tile_lane_broadcast(IN1, 0, lane, 3); // m_j
        ctx.mul_binary_tile(2, 3); // w = m_j / s³
        ctx.mul_tiles(INTERMED0, INTERMED0, DX, DVX, 4);
        ctx.mul_tiles(INTERMED0, INTERMED0, DY, DVY, 5);
        ctx.mul_tiles(INTERMED0, INTERMED0, DZ, DVZ, 6);
        ctx.add_binary_tile(4, 5);
        ctx.add_binary_tile(4, 6); // d·dv
        ctx.mul_binary_tile(4, 1); // (d·dv)/s²
        ctx.scale_tile(4, 3.0, 0.0); // rv3
        ctx.tile_regs_commit();
        ctx.cb_reserve_back(INTERMED1, 2).await;
        ctx.pack_tile(2, INTERMED1); // w
        ctx.pack_tile(4, INTERMED1); // rv3
        ctx.cb_push_back(INTERMED1, 2);
        ctx.tile_regs_release();
        ctx.cb_wait_front(INTERMED1, 2).await;

        // --- Phase C1: acceleration accumulation -------------------------
        // acc_a += w · d_a, reading the old accumulators from the ring.
        ctx.cb_wait_front(INTERMED2, 6).await;
        ctx.cb_reserve_back(INTERMED2, 6).await;
        ctx.tile_regs_acquire();
        for axis in 0..3 {
            ctx.copy_tile(INTERMED2, axis, axis);
        }
        ctx.copy_tile(INTERMED1, 0, 6); // w
        for axis in 0..3 {
            ctx.copy_tile(INTERMED0, DX + axis, 7);
            ctx.mad_binary_tile(7, 6, axis);
        }
        ctx.tile_regs_commit();
        for axis in 0..3 {
            ctx.pack_tile(axis, INTERMED2);
        }
        ctx.cb_push_back(INTERMED2, 3);
        ctx.tile_regs_release();

        // --- Phase C2: jerk accumulation ----------------------------------
        // jerk_a += w · (dv_a − rv3 · d_a).
        ctx.tile_regs_acquire();
        for axis in 0..3 {
            ctx.copy_tile(INTERMED2, 3 + axis, axis); // old jerk accumulators
        }
        ctx.copy_tile(INTERMED1, 0, 3); // w
        ctx.copy_tile(INTERMED1, 1, 4); // rv3
        for axis in 0..3 {
            ctx.copy_tile(INTERMED0, DX + axis, 5);
            ctx.mul_binary_tile(5, 4); // rv3 · d_a
            ctx.negative_tile(5);
            ctx.copy_tile(INTERMED0, DVX + axis, 6);
            ctx.add_binary_tile(5, 6); // dv_a − rv3 · d_a
            ctx.mad_binary_tile(5, 3, axis);
        }
        ctx.tile_regs_commit();
        for axis in 0..3 {
            ctx.pack_tile(axis, INTERMED2);
        }
        ctx.cb_push_back(INTERMED2, 3);
        ctx.tile_regs_release();

        // Retire this source's staging data and the old accumulators.
        ctx.cb_pop_front(INTERMED2, 6);
        ctx.cb_pop_front(INTERMED0, 6);
        ctx.cb_pop_front(INTERMED1, 2);
    }
}

impl ComputeKernel for ForceComputeKernel {
    fn run<'a>(&'a self, ctx: &'a mut ComputeCtx) -> KernelFuture<'a> {
        Box::pin(async move {
            assert!(self.eps_squared > 0.0, "device force kernel requires softening > 0");
            let count = ctx.arg(args::TILE_COUNT) as usize;
            let n = ctx.arg(args::NUM_SOURCES) as usize;
            ctx.set_tile_rows(ctx.arg(args::TILE_ROWS) as usize);
            for _tile in 0..count {
                ctx.trace_span_begin("tile");
                ctx.cb_wait_front(IN0, 6).await;

                // Zero the six accumulators.
                ctx.cb_reserve_back(INTERMED2, 6).await;
                ctx.tile_regs_acquire();
                for k in 0..6 {
                    ctx.fill_tile(k, 0.0);
                }
                ctx.tile_regs_commit();
                for k in 0..6 {
                    ctx.pack_tile(k, INTERMED2);
                }
                ctx.cb_push_back(INTERMED2, 6);
                ctx.tile_regs_release();

                // Sources j = 0..n in order, one packed tile at a time; the lane
                // loop stops at n, so the last tile's padding lanes cost nothing.
                for first in (0..n).step_by(TILE_ELEMS) {
                    ctx.cb_wait_front(IN1, 7).await;
                    for lane in 0..TILE_ELEMS.min(n - first) {
                        self.interact(ctx, lane).await;
                    }
                    ctx.cb_pop_front(IN1, 7);
                }

                // Drain the final accumulators to the output CB.
                ctx.cb_wait_front(INTERMED2, 6).await;
                ctx.cb_reserve_back(OUT0, 6).await;
                ctx.tile_regs_acquire();
                for k in 0..6 {
                    ctx.copy_tile(INTERMED2, k, k);
                }
                ctx.tile_regs_commit();
                for k in 0..6 {
                    ctx.pack_tile(k, OUT0);
                }
                ctx.cb_push_back(OUT0, 6);
                ctx.tile_regs_release();
                ctx.cb_pop_front(INTERMED2, 6);
                ctx.cb_pop_front(IN0, 6);
                ctx.trace_span_end("tile");
            }
            Ok(())
        })
    }
}

/// The write kernel: results back to DRAM.
pub struct WriterKernel {
    /// Output buffers `[ax, ay, az, jx, jy, jz]`.
    pub outputs: [BufferRef; 6],
}

impl DataMovementKernel for WriterKernel {
    fn run<'a>(&'a self, ctx: &'a mut DataMovementCtx) -> KernelFuture<'a> {
        Box::pin(async move {
            let start = ctx.arg(args::START_TILE) as usize;
            let count = ctx.arg(args::TILE_COUNT) as usize;
            for tile in start..start + count {
                ctx.trace_span_begin("tile");
                for buf in self.outputs {
                    ctx.write_cb_to_page(OUT0, buf, tile).await?;
                }
                // All six result pages for this tile are in DRAM: publish the
                // watermark so a partial redo can resume at the next tile.
                ctx.mark_unit_complete();
                ctx.trace_span_end("tile");
            }
            Ok(())
        })
    }
}

// ---------------------------------------------------------------------------
// Matrix-pipe kernel family: the pairwise loop as blocked matmuls.
//
// One 32×32 tile covers a (32 targets × 32 sources) block pair. The squared
// pair distance decomposes as s² = |r_i|² + (|r_j|² + ε²) − 2 r_i·r_j, so
// three FP32 cross matmuls (r_i·r_j, r_i·v_j, v_i·r_j) plus row/column
// broadcast adds of host-precomputed moments produce s² and d·dv for all
// 1024 pairs of the block at once. An SFPU rsqrt chain turns s² into the
// interaction weights W = m_j/s³ and G = 3 W (d·dv)/s², which are packed to
// BF16 and hit the matrix pipe's full 2048-MACs/clk rate in exactly two
// accumulate matmuls per block pair: W × SRC_ATTR and G × SRC_ATTR, where
// SRC_ATTR's columns are [r_j, v_j, 1]. The device therefore returns moment
// sums (Σ W r_j, Σ W v_j, Σ W, Σ G r_j, Σ G) per target — Kahan-compensated
// across source blocks so the FP32 partials do not drift with N — flushed
// once per source chunk; the host finishes acc_i = Σ W r_j − r_i Σ W (and
// the jerk analogue) in compensated FP64 — the mixed-precision split that
// keeps the energy goldens intact.
//
// Target blocks are the launch's gathered targets (all `n` for a full-N
// launch), so a target row's self-pair may sit in any source block: the
// launch's damping plan names, per target block, the source blocks to damp
// and the page to damp them with. Every row is independent of the others,
// so a gathered row is bitwise its full-N self.
//
// Source reuse (the i-blocking of Nitadori, Makino and Hut): each core
// takes its target blocks in groups of up to [`MATRIX_GROUP_BLOCKS`], and
// each source block's pages cross the NoC once per group, serving every
// block in it. A row still meets the source blocks in order, with the same
// arithmetic, so the grouping never changes a bit of the forces.
// ---------------------------------------------------------------------------

/// Target blocks per source pass of the matrix kernel, sized from L1: with
/// two groups' target operands in IN0 and one Kahan accumulator set per
/// member in INTERMED2, the matrix program's CBs take 484 KiB of the
/// 1.5 MiB per core. It divides source traffic by up to 8.
pub const MATRIX_GROUP_BLOCKS: usize = 8;

/// The matrix-kernel reader, per group of target blocks: the group's 4
/// target-operand pages per block into IN0, then per source block its 5
/// FP32 pages into IN1 and the two BF16 SRC_ATTR pages (hi, lo) into IN2
/// (quantized by the CB as they land), then that source block's damping
/// pages into IN3 in group order. Sources go first: the compute kernel
/// swaps its damping page only after it holds the source block, so a page
/// pushed ahead of them would wait on a pop that waits on them. A damping
/// page is read only when it differs from the page held — so a full
/// launch, whose plan is one page throughout, reads it once.
pub struct MatrixReaderKernel {
    /// Target-side buffers `[A_POS, A_VEL, COL_R2, COL_RV]`, one page per
    /// gathered target block.
    pub targets: [BufferRef; 4],
    /// Source-side buffers
    /// `[B_POST, B_VELT, ROW_M, ROW_R2EPS, ROW_RV, SRC_ATTR_HI, SRC_ATTR_LO]`.
    pub sources: [BufferRef; 7],
    /// The launch's distinct damping pages.
    pub diag: BufferRef,
}

impl DataMovementKernel for MatrixReaderKernel {
    fn run<'a>(&'a self, ctx: &'a mut DataMovementCtx) -> KernelFuture<'a> {
        Box::pin(async move {
            let start = ctx.arg(args::START_TILE) as usize;
            let count = ctx.arg(args::TILE_COUNT) as usize;
            let n = ctx.arg(args::NUM_SOURCES) as usize;
            if count == 0 {
                return Ok(());
            }
            let schedule = damping_schedule(|i| ctx.arg(i), start, count);
            let mut held = schedule[0][0].1;
            ctx.read_page_to_cb(IN3, self.diag, held).await?;
            let groups = schedule.chunks(MATRIX_GROUP_BLOCKS);
            for (first, group) in (start..).step_by(MATRIX_GROUP_BLOCKS).zip(groups) {
                ctx.trace_span_begin("group");
                for blk in first..first + group.len() {
                    for buf in self.targets {
                        ctx.read_page_to_cb(IN0, buf, blk).await?;
                    }
                }
                let mut damp: Vec<_> = group.iter().map(|pairs| pairs.iter().peekable()).collect();
                for j in 0..num_matrix_blocks(n) {
                    for buf in &self.sources[..5] {
                        ctx.read_page_to_cb(IN1, *buf, j).await?;
                    }
                    ctx.read_page_to_cb(IN2, self.sources[5], j).await?;
                    ctx.read_page_to_cb(IN2, self.sources[6], j).await?;
                    for pairs in &mut damp {
                        if let Some(&(_, page)) = pairs.next_if(|&&(src, _)| src == j) {
                            if page != held {
                                ctx.read_page_to_cb(IN3, self.diag, page).await?;
                                held = page;
                            }
                        }
                    }
                }
                ctx.trace_span_end("group");
            }
            Ok(())
        })
    }
}

/// The matrix-pipe force/jerk compute kernel.
pub struct MatrixForceComputeKernel {
    /// Squared Plummer softening, folded into ROW_R2EPS by the host; kept
    /// here only for the positivity assertion.
    pub eps_squared: f32,
}

impl MatrixForceComputeKernel {
    /// One (target block × source block) interaction: FP32 cross matmuls
    /// and the SFPU chain produce W and G, then four BF16 accumulate
    /// matmuls (hi and lo SRC_ATTR per moment tile) fold the block into the
    /// moment accumulators at the front of INTERMED2. `a` is the target
    /// block's first page in IN0 (`4t` for group member `t`); the source
    /// block is at the front of IN1 and IN2. `damp` marks a block pair
    /// holding some target row's self-interaction: the damping page at the
    /// front of IN3 adds `DIAG_DAMP` on those lanes and `+0.0` everywhere
    /// else.
    async fn interact(&self, ctx: &mut ComputeCtx, a: usize, damp: bool) {
        // --- Phase M1: W and G on the FP32 cross-matmul + SFPU path ------
        ctx.tile_regs_acquire();
        ctx.matmul_tiles(IN0, IN1, a + A_POS, B_POST, 0, false); // r_i·r_j
        ctx.matmul_tiles(IN0, IN1, a + A_POS, B_VELT, 3, false); // r_i·v_j
        ctx.matmul_tiles(IN0, IN1, a + A_VEL, B_POST, 4, false); // v_i·r_j
        ctx.scale_tile(0, -2.0, 0.0);
        ctx.add_tile_bcast(BroadcastDim::Col, 0, IN0, a + COL_R2);
        ctx.add_tile_bcast(BroadcastDim::Row, 0, IN1, ROW_R2EPS); // s²
        if damp {
            // Self-pairs: s² += DIAG_DAMP on their lanes collapses the
            // huge softened self-weight m/ε³ to ~m·10⁻¹², keeping the FP32
            // moment sums free of a giant term that cancels only later.
            ctx.copy_tile(IN3, 0, 5);
            ctx.add_binary_tile(0, 5);
        }
        ctx.rsqrt_tile(0); // 1/s
        ctx.copy_dst_tile(0, 1);
        ctx.square_tile(1); // 1/s²
        ctx.copy_dst_tile(1, 2);
        ctx.mul_binary_tile(2, 0); // 1/s³
        ctx.mul_tile_bcast(BroadcastDim::Row, 2, IN1, ROW_M); // W = m_j/s³
        ctx.add_binary_tile(3, 4); // r_i·v_j + v_i·r_j
        ctx.scale_tile(3, -1.0, 0.0);
        ctx.add_tile_bcast(BroadcastDim::Col, 3, IN0, a + COL_RV);
        ctx.add_tile_bcast(BroadcastDim::Row, 3, IN1, ROW_RV); // d·dv
        ctx.mul_binary_tile(3, 1); // (d·dv)/s²
        ctx.scale_tile(3, 3.0, 0.0);
        ctx.mul_binary_tile(3, 2); // G = 3 W (d·dv)/s²
        ctx.tile_regs_commit();
        // W_hi/G_hi: quantized to BF16 by the INTERMED0 pack; the FP32
        // copies park in INTERMED1 for the residual pass.
        ctx.cb_reserve_back(INTERMED0, 2).await;
        ctx.cb_reserve_back(INTERMED1, 2).await;
        ctx.pack_tile(2, INTERMED0); // W_hi = bf16(W)
        ctx.pack_tile(3, INTERMED0); // G_hi = bf16(G)
        ctx.pack_tile(2, INTERMED1); // W (FP32)
        ctx.pack_tile(3, INTERMED1); // G (FP32)
        ctx.cb_push_back(INTERMED0, 2);
        ctx.cb_push_back(INTERMED1, 2);
        ctx.tile_regs_release();

        // --- Phase M1b: BF16 residuals of W and G ------------------------
        // W_lo = bf16(W − bf16(W)) — the same hi/lo split the host applies
        // to SRC_ATTR, so the accumulate matmuls see W and G to ~16
        // mantissa bits while every operand stays BF16 (full MAC rate).
        ctx.cb_wait_front(INTERMED0, 2).await;
        ctx.cb_wait_front(INTERMED1, 2).await;
        ctx.cb_reserve_back(INTERMED0, 2).await;
        ctx.tile_regs_acquire();
        ctx.copy_tile(INTERMED1, 0, 0); // W
        ctx.copy_tile(INTERMED0, 0, 1); // dequantized W_hi
        ctx.sub_binary_tile(0, 1);
        ctx.copy_tile(INTERMED1, 1, 2); // G
        ctx.copy_tile(INTERMED0, 1, 3); // dequantized G_hi
        ctx.sub_binary_tile(2, 3);
        ctx.tile_regs_commit();
        ctx.pack_tile(0, INTERMED0); // W_lo
        ctx.pack_tile(2, INTERMED0); // G_lo
        ctx.cb_push_back(INTERMED0, 2);
        ctx.tile_regs_release();
        ctx.cb_pop_front(INTERMED1, 2);

        // --- Phase M2: BF16 accumulate matmuls into the moment ring ------
        // Six matmuls cover (W_hi + W_lo) × (ATTR_HI + ATTR_LO) per moment
        // tile minus the lo×lo term, which is ~2⁻¹⁸ relative — below the
        // FP32 accumulator's own rounding. The block delta lands in its own
        // zeroed registers and is folded into the running moments with a
        // Kahan two-sum: the ring carries a compensation tile (cW, cG) next
        // to each accumulator, so the per-chunk sums do not drift with
        // source count the way naive FP32 accumulation does.
        ctx.cb_wait_front(INTERMED0, 4).await;
        ctx.cb_wait_front(INTERMED2, 4).await;
        ctx.cb_reserve_back(INTERMED2, 4).await;
        ctx.tile_regs_acquire();
        ctx.fill_tile(0, 0.0); // block delta, W moments
        ctx.fill_tile(1, 0.0); // block delta, G moments
        ctx.matmul_tiles(INTERMED0, IN2, 0, 0, 0, true); // += W_hi × ATTR_HI
        ctx.matmul_tiles(INTERMED0, IN2, 0, 1, 0, true); // += W_hi × ATTR_LO
        ctx.matmul_tiles(INTERMED0, IN2, 2, 0, 0, true); // += W_lo × ATTR_HI
        ctx.matmul_tiles(INTERMED0, IN2, 1, 0, 1, true); // += G_hi × ATTR_HI
        ctx.matmul_tiles(INTERMED0, IN2, 1, 1, 1, true); // += G_hi × ATTR_LO
        ctx.matmul_tiles(INTERMED0, IN2, 3, 0, 1, true); // += G_lo × ATTR_HI
                                                         // Kahan: y = delta − c; t = acc + y; c' = (t − acc) − y; acc = t.
        ctx.copy_tile(INTERMED2, 2, 2); // cW
        ctx.sub_binary_tile(0, 2); // y_W
        ctx.copy_tile(INTERMED2, 0, 3); // accW
        ctx.copy_dst_tile(3, 4);
        ctx.add_binary_tile(4, 0); // t_W
        ctx.copy_dst_tile(4, 5);
        ctx.sub_binary_tile(5, 3);
        ctx.sub_binary_tile(5, 0); // c'_W
        ctx.copy_tile(INTERMED2, 3, 2); // cG
        ctx.sub_binary_tile(1, 2); // y_G
        ctx.copy_tile(INTERMED2, 1, 3); // accG
        ctx.copy_dst_tile(3, 6);
        ctx.add_binary_tile(6, 1); // t_G
        ctx.copy_dst_tile(6, 7);
        ctx.sub_binary_tile(7, 3);
        ctx.sub_binary_tile(7, 1); // c'_G
        ctx.tile_regs_commit();
        ctx.pack_tile(4, INTERMED2); // accW = t_W
        ctx.pack_tile(6, INTERMED2); // accG = t_G
        ctx.pack_tile(5, INTERMED2); // cW
        ctx.pack_tile(7, INTERMED2); // cG
        ctx.cb_push_back(INTERMED2, 4);
        ctx.tile_regs_release();

        ctx.cb_pop_front(INTERMED2, 4);
        ctx.cb_pop_front(INTERMED0, 4);
    }
}

impl ComputeKernel for MatrixForceComputeKernel {
    fn run<'a>(&'a self, ctx: &'a mut ComputeCtx) -> KernelFuture<'a> {
        Box::pin(async move {
            assert!(self.eps_squared > 0.0, "device force kernel requires softening > 0");
            let start = ctx.arg(args::START_TILE) as usize;
            let count = ctx.arg(args::TILE_COUNT) as usize;
            let n = ctx.arg(args::NUM_SOURCES) as usize;
            if count == 0 {
                return Ok(());
            }
            // The damping page at the front of IN3 is held until the plan
            // needs a different one, mirroring the reader's pushes.
            let schedule = damping_schedule(|i| ctx.arg(i), start, count);
            let mut held = schedule[0][0].1;
            ctx.cb_wait_front(IN3, 1).await;
            let chunks = matrix_chunks(num_matrix_blocks(n));
            for group in schedule.chunks(MATRIX_GROUP_BLOCKS) {
                ctx.trace_span_begin("group");
                let k = group.len();
                ctx.cb_wait_front(IN0, 4 * k).await;
                let mut damp: Vec<_> = group.iter().map(|pairs| pairs.iter().peekable()).collect();
                for &(cs, cc) in &chunks {
                    // Zero each member's moment accumulators and their Kahan
                    // compensation tiles for this chunk: k sets of 4 in the
                    // INTERMED2 ring, member 0's at the front.
                    ctx.cb_reserve_back(INTERMED2, 4 * k).await;
                    ctx.tile_regs_acquire();
                    for r in 0..4 {
                        ctx.fill_tile(r, 0.0);
                    }
                    ctx.tile_regs_commit();
                    for _ in 0..k {
                        for r in 0..4 {
                            ctx.pack_tile(r, INTERMED2);
                        }
                    }
                    ctx.cb_push_back(INTERMED2, 4 * k);
                    ctx.tile_regs_release();

                    // Each source block serves every member in turn; a member
                    // takes its set from the ring's front and pushes it back,
                    // so the ring is in member order again after the block.
                    for j in cs..cs + cc {
                        ctx.cb_wait_front(IN1, 5).await;
                        ctx.cb_wait_front(IN2, 2).await;
                        for (t, pairs) in damp.iter_mut().enumerate() {
                            let due = pairs.next_if(|&&(src, _)| src == j);
                            if let Some(&(_, page)) = due {
                                if page != held {
                                    ctx.cb_pop_front(IN3, 1);
                                    ctx.cb_wait_front(IN3, 1).await;
                                    held = page;
                                }
                            }
                            self.interact(ctx, 4 * t, due.is_some()).await;
                        }
                        ctx.cb_pop_front(IN1, 5);
                        ctx.cb_pop_front(IN2, 2);
                    }

                    // Flush each member's chunk partials to the output CB,
                    // folding the compensation back in so the host combine sees
                    // one tile per moment accumulator.
                    for _ in 0..k {
                        ctx.cb_wait_front(INTERMED2, 4).await;
                        ctx.cb_reserve_back(OUT0, 2).await;
                        ctx.tile_regs_acquire();
                        ctx.copy_tile(INTERMED2, 0, 0);
                        ctx.copy_tile(INTERMED2, 2, 1);
                        ctx.add_binary_tile(0, 1); // accW + cW
                        ctx.copy_tile(INTERMED2, 1, 2);
                        ctx.copy_tile(INTERMED2, 3, 3);
                        ctx.add_binary_tile(2, 3); // accG + cG
                        ctx.tile_regs_commit();
                        ctx.pack_tile(0, OUT0);
                        ctx.pack_tile(2, OUT0);
                        ctx.cb_push_back(OUT0, 2);
                        ctx.tile_regs_release();
                        ctx.cb_pop_front(INTERMED2, 4);
                    }
                }
                ctx.cb_pop_front(IN0, 4 * k);
                ctx.trace_span_end("group");
            }
            Ok(())
        })
    }
}

/// The matrix-kernel writer: per group of target blocks, chunk by chunk,
/// each member's W- and G-moment partial tiles to DRAM at page
/// `block · num_chunks + chunk`.
pub struct MatrixWriterKernel {
    /// Output buffers `[W_moments, G_moments]`, each
    /// `num_blocks · num_chunks` pages.
    pub outputs: [BufferRef; 2],
    /// Chunk count (mirrors [`matrix_chunks`]; cached for page addressing).
    pub num_chunks: usize,
}

impl DataMovementKernel for MatrixWriterKernel {
    fn run<'a>(&'a self, ctx: &'a mut DataMovementCtx) -> KernelFuture<'a> {
        Box::pin(async move {
            let start = ctx.arg(args::START_TILE) as usize;
            let count = ctx.arg(args::TILE_COUNT) as usize;
            for first in (start..start + count).step_by(MATRIX_GROUP_BLOCKS) {
                ctx.trace_span_begin("group");
                let group = first..(first + MATRIX_GROUP_BLOCKS).min(start + count);
                for c in 0..self.num_chunks {
                    for blk in group.clone() {
                        ctx.write_cb_to_page(OUT0, self.outputs[0], blk * self.num_chunks + c)
                            .await?;
                        ctx.write_cb_to_page(OUT0, self.outputs[1], blk * self.num_chunks + c)
                            .await?;
                    }
                }
                // Every chunk partial of the group is in DRAM only after its
                // last chunk: publish the members' redo watermarks together.
                for _ in group {
                    ctx.mark_unit_complete();
                }
                ctx.trace_span_end("group");
            }
            Ok(())
        })
    }
}
