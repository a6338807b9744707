//! FPU — the Tensix tensor (matrix) engine.
//!
//! The FPU consumes the `srcA`/`srcB` source registers (each holding up to
//! 1024 single-precision values, i.e. one tile) and writes results to dst.
//! Besides dense matmul it provides the element-wise binary tile ops that
//! TT-Metalium exposes as `add_tiles` / `sub_tiles` / `mul_tiles`, broadcast
//! variants, and row/column reductions — the building blocks the N-body
//! compute kernel mixes with SFPU transcendentals.

use crate::cost::ComputeCosts;
use crate::sfpu::{binary_scalar, BinaryOp};
use crate::tile::{row_elems, Tile, TILE_DIM, TILE_ELEMS};

/// Broadcast dimension for `*_tiles_bcast` operations: which part of srcB is
/// replicated across the tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BroadcastDim {
    /// srcB's first row is broadcast down all rows.
    Row,
    /// srcB's first column is broadcast across all columns.
    Col,
    /// srcB's element (0,0) is broadcast everywhere.
    Scalar,
}

/// Cycle cost of one tile matmul: the matrix pipe retires twice the MACs
/// per clock when both source operands are 16-bit-or-narrower formats
/// (BF16/FP16/BFP8 — the unpacker feeds srcA/srcB without widening the
/// datapath), so those matmuls are charged the `fpu_matmul_bf16` rate.
/// Mixed or FP32 operands pay the full-precision rate.
fn matmul_cost(costs: &ComputeCosts, a: &Tile, b: &Tile) -> u64 {
    let narrow = a.format().element_bytes() <= 2 && b.format().element_bytes() <= 2;
    let rate = if narrow { costs.fpu_matmul_bf16 } else { costs.fpu_matmul };
    costs.issue_overhead + rate
}

/// Vector lanes one register-row update works in: eight `f32`, one AVX2
/// register, so each lane group of a row is one packed FMA.
const LANES: usize = 8;

/// Rows the narrow-output path updates at once: eight independent FMA
/// chains, one register each, enough to hide the FMA latency.
const NARROW_ROWS: usize = 8;

/// Bits of `-0.0`, the sign bit alone.
const NEG_ZERO_BITS: u32 = 0x8000_0000;
/// Bits of `+inf`: magnitudes above it are NaN.
const INF_BITS: u32 = 0x7f80_0000;

/// `v`'s bits without the sign: zero exactly when `v` is ±0.
#[inline(always)]
fn magnitude_bits(v: f32) -> u32 {
    v.to_bits() << 1
}

/// Tile matmul: `a (32×32) × b (32×32)`, accumulating into `acc` when
/// `accumulate` is set (matmul with dst accumulation). Returns cycle cost.
///
/// Every output element receives its fused multiply-adds in ascending-`k`
/// order, as in the textbook (i, j, k) nest of [`reference::matmul_tiles`],
/// so results are bitwise identical to it, with one exception: where two
/// NaNs of different payloads meet in one FMA, the two loops may return
/// different payloads (an x86 FMA returns the NaN of a fixed operand slot,
/// and the loops hold their operands in different slots). Such a lane is
/// NaN on both sides. Products that are exactly ±0 are
/// skipped where that provably changes no bit. Two structures qualify, and
/// they cover the matrix force kernel's operands (inner dimension 3 of 32
/// in its cross matmuls, 7 of 32 output columns in its accumulate matmuls):
///
/// * **Trailing inner dimension.** Columns `k ≥ K` of `a` are all ±0 and
///   rows `k ≥ K` of `b` all finite, with `K ≥ 1`. Each skipped product is
///   an exact ±0, and adding ±0 leaves a sum unchanged unless the sum is
///   itself a zero: `x + ±0 = x` for nonzero `x` (infinities included) and
///   for the quiet NaN any FMA returns. A `+0` sum stays `+0` under
///   round-to-nearest. A `-0` sum (from a `-0` accumulator or an FMA
///   product that underflowed) flips to `+0` on a `+0` product, so every
///   output left at `-0` finishes the skipped steps of its chain literally.
/// * **Narrow output.** Lane groups 1–3 of `b` are all ±0. Only lanes 0–7
///   are computed, [`NARROW_ROWS`] rows at a time. Lanes 8–31 then receive
///   only exact ±0 products, provided `a` is finite, so they stay `+0`, or
///   stay the accumulator when no accumulator lane is `-0` or NaN.
///   A non-finite element of `a` makes all eight computed lanes of its row
///   non-finite, so those lanes being finite proves the row's `a` finite;
///   they are stored only then, and otherwise the tile is computed as if
///   the structure were absent.
///
/// Anything else takes the dense loop. Two output rows at a time are held
/// in local `[f32; 32]` registers and updated in [`LANES`]-wide groups from
/// one load of each `b` row. On an x86-64 release build
/// (`-C target-cpu=native`, AVX2/FMA) each row takes four packed
/// `vfmadd231ps` per `k`. Updating `acc`'s row in place instead does not
/// vectorize: LLVM fully unrolls it into 32 scalar `vfmadd231ss` per `k`,
/// over 10× slower. Each loop lives in its own non-inlined function:
/// with two of them in one body, LLVM scalarized them.
///
/// The skips are host work only: the cycle charge is the dense one.
pub fn matmul_tiles(
    costs: &ComputeCosts,
    a: &Tile,
    b: &Tile,
    acc: &mut Tile,
    accumulate: bool,
) -> u64 {
    let (va, vb) = (a.as_slice(), b.as_slice());
    let out = acc.as_mut_slice();
    let narrowed = narrow_output(vb)
        && (!accumulate || zero_sums_keep(out))
        && matmul_narrow(va, vb, out, accumulate);
    if !narrowed {
        let k = live_inner_dim(va);
        if (1..TILE_DIM).contains(&k) && all_finite(&vb[k * TILE_DIM..]) {
            matmul_inner_prefix(va, vb, out, accumulate, k);
            if any_negative_zero(out) {
                finish_negative_zeros(va, vb, out, k);
            }
        } else {
            matmul_dense(va, vb, out, accumulate);
        }
    }
    matmul_cost(costs, a, b)
}

/// Per column, the largest of [`magnitude_bits`] down the tile: zero
/// exactly for columns of ±0. One packed `vpmaxud` per lane group and row.
/// Integer folds must be written over flat lane groups like this: with a
/// row-major nest LLVM reorders them into gathers across rows, and a fold
/// over a whole row it widens to 512-bit registers, which slow the FMA
/// loops that follow.
#[inline(never)]
fn column_magnitudes(v: &[f32; TILE_ELEMS]) -> [[u32; LANES]; TILE_DIM / LANES] {
    let mut cols = [[0u32; LANES]; TILE_DIM / LANES];
    for (g, group) in v.chunks_exact(LANES).enumerate() {
        for (c, x) in cols[g % (TILE_DIM / LANES)].iter_mut().zip(group) {
            *c = (*c).max(magnitude_bits(*x));
        }
    }
    cols
}

/// Whether lane groups 1–3 of every row of `b` hold only ±0.
fn narrow_output(vb: &[f32; TILE_ELEMS]) -> bool {
    // A dense operand stops here, on its first lane-group-1 entry.
    magnitude_bits(vb[LANES]) == 0
        && column_magnitudes(vb)[1..].iter().all(|group| *group == [0; LANES])
}

/// One past the last column of `a` holding anything but ±0.
fn live_inner_dim(va: &[f32; TILE_ELEMS]) -> usize {
    // A dense operand stops here, on its first last-column entry.
    if magnitude_bits(va[TILE_DIM - 1]) != 0 {
        return TILE_DIM;
    }
    column_magnitudes(va).as_flattened().iter().rposition(|c| *c != 0).map_or(0, |k| k + 1)
}

/// Whether every value is finite: the largest magnitude among the bit
/// patterns stays below [`INF_BITS`]. Integer min/max folds compile to
/// packed `vpmaxud`/`vpminud`; a `bool` fold of float compares goes
/// through mask registers and is several times slower.
#[inline(never)]
fn all_finite(v: &[f32]) -> bool {
    v.iter().fold(0, |m, x| m.max(x.to_bits() & !NEG_ZERO_BITS)) < INF_BITS
}

/// Whether no value is `-0` or NaN: accumulator lanes that adding ±0
/// leaves bitwise unchanged. One pass of the two folds below.
#[inline(never)]
fn zero_sums_keep(v: &[f32]) -> bool {
    let (max, min) = v.iter().fold((0, u32::MAX), |(max, min), x| {
        let bits = x.to_bits();
        (max.max(bits & !NEG_ZERO_BITS), min.min(bits ^ NEG_ZERO_BITS))
    });
    max <= INF_BITS && min != 0
}

/// Whether some value is `-0`: the only one whose bits, sign flipped, are 0.
#[inline(never)]
fn any_negative_zero(v: &[f32]) -> bool {
    v.iter().fold(u32::MAX, |m, x| m.min(x.to_bits() ^ NEG_ZERO_BITS)) == 0
}

/// The register-row loop over row pairs of `va`/`out`, with the inner
/// dimension cut to `k`.
#[inline(always)]
fn matmul_rows(
    va: &[f32; TILE_ELEMS],
    vb: &[f32; TILE_ELEMS],
    out: &mut [f32; TILE_ELEMS],
    accumulate: bool,
    k: usize,
) {
    for (a_rows, out_rows) in va.chunks_exact(2 * TILE_DIM).zip(out.chunks_exact_mut(2 * TILE_DIM))
    {
        let (a0, a1) = a_rows.split_at(TILE_DIM);
        let (o0, o1) = out_rows.split_at_mut(TILE_DIM);
        let mut r0 = [0.0f32; TILE_DIM];
        let mut r1 = [0.0f32; TILE_DIM];
        if accumulate {
            r0.copy_from_slice(o0);
            r1.copy_from_slice(o1);
        }
        for ((x0, x1), b_row) in a0[..k].iter().zip(&a1[..k]).zip(vb.chunks_exact(TILE_DIM)) {
            let lanes = r0.chunks_exact_mut(LANES).zip(r1.chunks_exact_mut(LANES));
            for ((l0, l1), bl) in lanes.zip(b_row.chunks_exact(LANES)) {
                for ((y0, y1), bv) in l0.iter_mut().zip(l1.iter_mut()).zip(bl) {
                    *y0 = x0.mul_add(*bv, *y0);
                    *y1 = x1.mul_add(*bv, *y1);
                }
            }
        }
        o0.copy_from_slice(&r0);
        o1.copy_from_slice(&r1);
    }
}

/// The dense matmul of the rows of `va` into the rows of `out`.
#[inline(never)]
fn matmul_dense(
    va: &[f32; TILE_ELEMS],
    vb: &[f32; TILE_ELEMS],
    out: &mut [f32; TILE_ELEMS],
    accumulate: bool,
) {
    matmul_rows(va, vb, out, accumulate, TILE_DIM);
}

/// The matmul over inner indices `0..k` only.
#[inline(never)]
fn matmul_inner_prefix(
    va: &[f32; TILE_ELEMS],
    vb: &[f32; TILE_ELEMS],
    out: &mut [f32; TILE_ELEMS],
    accumulate: bool,
    k: usize,
) {
    matmul_rows(va, vb, out, accumulate, k);
}

/// Runs the skipped steps `k..32` of every output chain that
/// [`matmul_inner_prefix`] left at `-0`, the one sum they can change.
#[cold]
#[inline(never)]
fn finish_negative_zeros(
    va: &[f32; TILE_ELEMS],
    vb: &[f32; TILE_ELEMS],
    out: &mut [f32; TILE_ELEMS],
    k: usize,
) {
    for (a_row, out_row) in va.chunks_exact(TILE_DIM).zip(out.chunks_exact_mut(TILE_DIM)) {
        for (j, o) in out_row.iter_mut().enumerate() {
            if o.to_bits() == NEG_ZERO_BITS {
                *o = (k..TILE_DIM).fold(*o, |s, kk| a_row[kk].mul_add(vb[kk * TILE_DIM + j], s));
            }
        }
    }
}

/// Lanes 0–7 of `a × b`, [`NARROW_ROWS`] rows at a time, for a `b` whose
/// lane groups 1–3 are ±0 (and, accumulating, whose accumulator passes
/// [`zero_sums_keep`]). Returns whether it wrote the product: not when a
/// computed lane is non-finite, and then `out` is as it was.
#[inline(never)]
fn matmul_narrow(
    va: &[f32; TILE_ELEMS],
    vb: &[f32; TILE_ELEMS],
    out: &mut [f32; TILE_ELEMS],
    accumulate: bool,
) -> bool {
    // Rows' lanes 0–7, stored to `out` only once every one is finite.
    let mut lanes = [[0.0f32; LANES]; TILE_DIM];
    if accumulate {
        for (l, o) in lanes.iter_mut().zip(out.chunks_exact(TILE_DIM)) {
            l.copy_from_slice(&o[..LANES]);
        }
    }
    for (a_rows, regs) in
        va.chunks_exact(NARROW_ROWS * TILE_DIM).zip(lanes.chunks_exact_mut(NARROW_ROWS))
    {
        for (kk, b_row) in vb.chunks_exact(TILE_DIM).enumerate() {
            let bl = &b_row[..LANES];
            for (r, a_row) in regs.iter_mut().zip(a_rows.chunks_exact(TILE_DIM)) {
                let x = a_row[kk];
                for (y, bv) in r.iter_mut().zip(bl) {
                    *y = x.mul_add(*bv, *y);
                }
            }
        }
    }
    if !all_finite(lanes.as_flattened()) {
        return false;
    }
    for (l, o) in lanes.iter().zip(out.chunks_exact_mut(TILE_DIM)) {
        o[..LANES].copy_from_slice(l);
        if !accumulate {
            o[LANES..].fill(0.0);
        }
    }
    true
}

/// Element-wise binary op through the FPU datapath (`sub_tiles` etc.) on
/// the top `rows` rows: `out = op(a, b)` there, the rest of `out` left as
/// it was. A 16-row half tile charges half the per-element cost (see
/// [`ComputeCosts::for_rows`]). Returns cycle cost.
pub fn eltwise_binary(
    costs: &ComputeCosts,
    rows: usize,
    op: BinaryOp,
    a: &Tile,
    b: &Tile,
    out: &mut Tile,
) -> u64 {
    let lanes = row_elems(rows);
    let (va, vb) = (&a.as_slice()[..lanes], &b.as_slice()[..lanes]);
    let vo = &mut out.as_mut_slice()[..lanes];
    // Dispatch the op once per tile so each arm is a branch-free,
    // autovectorizer-friendly lane loop.
    macro_rules! lanes {
        ($f:expr) => {
            for (o, (x, y)) in vo.iter_mut().zip(va.iter().zip(vb.iter())) {
                *o = $f(*x, *y);
            }
        };
    }
    match op {
        BinaryOp::Add => lanes!(|x: f32, y: f32| x + y),
        BinaryOp::Sub => lanes!(|x: f32, y: f32| x - y),
        BinaryOp::Mul => lanes!(|x: f32, y: f32| x * y),
        BinaryOp::Min => lanes!(f32::min),
        BinaryOp::Max => lanes!(f32::max),
    }
    costs.issue_overhead + costs.for_rows(rows).fpu_eltwise
}

/// Element-wise binary op with srcB broadcast (`sub_tiles_bcast` etc.).
/// Returns cycle cost.
pub fn eltwise_binary_bcast(
    costs: &ComputeCosts,
    op: BinaryOp,
    dim: BroadcastDim,
    a: &Tile,
    b: &Tile,
    out: &mut Tile,
) -> u64 {
    out.as_mut_slice().copy_from_slice(a.as_slice());
    eltwise_binary_bcast_in_place(costs, op, dim, out, b)
}

/// [`eltwise_binary_bcast`] with its first operand as the output:
/// `acc = op(acc, bcast(b))`, as the `*_tiles_bcast` ops against dst
/// compute. Returns cycle cost.
pub fn eltwise_binary_bcast_in_place(
    costs: &ComputeCosts,
    op: BinaryOp,
    dim: BroadcastDim,
    acc: &mut Tile,
    b: &Tile,
) -> u64 {
    let vb = b.as_slice();
    let out = acc.as_mut_slice();
    // Dispatch `op` and `dim` once per tile, so each arm is one flat packed
    // loop: against b's row 0 repeated into a whole tile (Row), b's column-0
    // entry of each lane group's row (Col) or b(0,0) (Scalar). A row-by-row
    // nest LLVM vectorizes across rows instead, with gathers.
    macro_rules! bcast {
        ($f:expr) => {
            match dim {
                BroadcastDim::Row => {
                    let b_row: [f32; TILE_DIM] = vb[..TILE_DIM].try_into().expect("a tile row");
                    let rows = [b_row; TILE_DIM];
                    for (o, y) in out.iter_mut().zip(rows.as_flattened()) {
                        *o = $f(*o, *y);
                    }
                }
                BroadcastDim::Col => {
                    for (g, group) in out.chunks_exact_mut(LANES).enumerate() {
                        let y = vb[g / (TILE_DIM / LANES) * TILE_DIM];
                        for o in group {
                            *o = $f(*o, y);
                        }
                    }
                }
                BroadcastDim::Scalar => {
                    let y = vb[0];
                    for o in out.iter_mut() {
                        *o = $f(*o, y);
                    }
                }
            }
        };
    }
    match op {
        BinaryOp::Add => bcast!(|x: f32, y: f32| x + y),
        BinaryOp::Sub => bcast!(|x: f32, y: f32| x - y),
        BinaryOp::Mul => bcast!(|x: f32, y: f32| x * y),
        BinaryOp::Min => bcast!(f32::min),
        BinaryOp::Max => bcast!(f32::max),
    }
    costs.issue_overhead + costs.fpu_eltwise
}

/// Reduce a tile along rows (summing each row into column 0 of the output)
/// scaled by `scale` — mirrors `reduce_tile` with a scaler tile. Returns
/// cycle cost.
pub fn reduce_rows(costs: &ComputeCosts, a: &Tile, scale: f32, out: &mut Tile) -> u64 {
    let va = a.as_slice();
    let o = out.as_mut_slice();
    o.fill(0.0);
    // Each row sum must stay strictly j-ascending (FP addition order is
    // observable), so the inner loop is sequential over the contiguous row.
    for (i, row) in va.chunks_exact(TILE_DIM).enumerate() {
        let mut sum = 0.0f32;
        for v in row {
            sum += *v;
        }
        o[i * TILE_DIM] = sum * scale;
    }
    costs.issue_overhead + costs.fpu_reduce
}

/// Reduce a tile along columns (summing each column into row 0). Returns
/// cycle cost.
///
/// The column sums live in one local `[f32; 32]` register row that each
/// tile row is added into in [`LANES`]-wide groups: four packed `vaddps`
/// per row on an x86-64 release build. Adding into `out`'s row in place
/// instead compiles to 32 scalar `vaddss` per row. Each column
/// still receives its partial sums in ascending-`i` order, so results
/// match the j-outer [`reference::reduce_cols`] bitwise.
pub fn reduce_cols(costs: &ComputeCosts, a: &Tile, scale: f32, out: &mut Tile) -> u64 {
    let mut sums = [0.0f32; TILE_DIM];
    for row in a.as_slice().chunks_exact(TILE_DIM) {
        for (sl, rl) in sums.chunks_exact_mut(LANES).zip(row.chunks_exact(LANES)) {
            for (s, v) in sl.iter_mut().zip(rl) {
                *s += *v;
            }
        }
    }
    let o = out.as_mut_slice();
    o.fill(0.0);
    for (slot, s) in o[..TILE_DIM].iter_mut().zip(sums) {
        *slot = s * scale;
    }
    costs.issue_overhead + costs.fpu_reduce
}

/// Full-tile sum (both dimensions), returned as a scalar in out(0,0).
pub fn reduce_full(costs: &ComputeCosts, a: &Tile, scale: f32, out: &mut Tile) -> u64 {
    let total: f32 = a.as_slice().iter().sum();
    let o = out.as_mut_slice();
    o.fill(0.0);
    o[0] = total * scale;
    costs.issue_overhead + costs.fpu_reduce
}

/// Pre-vectorization scalar implementations, kept as the bitwise-identity
/// oracle for property tests and as the "before" side of the tile-op
/// benchmarks. Not part of the simulator's public API.
#[doc(hidden)]
pub mod reference {
    use super::*;

    /// Original (i, j, k)-ordered form of [`super::matmul_tiles`].
    pub fn matmul_tiles(
        costs: &ComputeCosts,
        a: &Tile,
        b: &Tile,
        acc: &mut Tile,
        accumulate: bool,
    ) -> u64 {
        let (va, vb) = (a.as_slice(), b.as_slice());
        let out = acc.as_mut_slice();
        for i in 0..TILE_DIM {
            for j in 0..TILE_DIM {
                let mut sum = if accumulate { out[i * TILE_DIM + j] } else { 0.0 };
                for k in 0..TILE_DIM {
                    sum = va[i * TILE_DIM + k].mul_add(vb[k * TILE_DIM + j], sum);
                }
                out[i * TILE_DIM + j] = sum;
            }
        }
        super::matmul_cost(costs, a, b)
    }

    /// Original per-element-`match` form of [`super::eltwise_binary`].
    pub fn eltwise_binary(
        costs: &ComputeCosts,
        op: BinaryOp,
        a: &Tile,
        b: &Tile,
        out: &mut Tile,
    ) -> u64 {
        let (va, vb) = (a.as_slice(), b.as_slice());
        for (o, (x, y)) in out.as_mut_slice().iter_mut().zip(va.iter().zip(vb.iter())) {
            *o = binary_scalar(op, *x, *y);
        }
        costs.issue_overhead + costs.fpu_eltwise
    }

    /// Original per-element-`match` form of [`super::eltwise_binary_bcast`].
    pub fn eltwise_binary_bcast(
        costs: &ComputeCosts,
        op: BinaryOp,
        dim: BroadcastDim,
        a: &Tile,
        b: &Tile,
        out: &mut Tile,
    ) -> u64 {
        let va = a.as_slice();
        for i in 0..TILE_DIM {
            for j in 0..TILE_DIM {
                let bv = match dim {
                    BroadcastDim::Row => b.get(0, j),
                    BroadcastDim::Col => b.get(i, 0),
                    BroadcastDim::Scalar => b.get(0, 0),
                };
                out.as_mut_slice()[i * TILE_DIM + j] = binary_scalar(op, va[i * TILE_DIM + j], bv);
            }
        }
        costs.issue_overhead + costs.fpu_eltwise
    }

    /// Original strided form of [`super::reduce_rows`].
    pub fn reduce_rows(costs: &ComputeCosts, a: &Tile, scale: f32, out: &mut Tile) -> u64 {
        let o = out.as_mut_slice();
        o.fill(0.0);
        for i in 0..TILE_DIM {
            let mut sum = 0.0f32;
            for j in 0..TILE_DIM {
                sum += a.get(i, j);
            }
            o[i * TILE_DIM] = sum * scale;
        }
        costs.issue_overhead + costs.fpu_reduce
    }

    /// Original j-outer (column-strided) form of [`super::reduce_cols`].
    pub fn reduce_cols(costs: &ComputeCosts, a: &Tile, scale: f32, out: &mut Tile) -> u64 {
        let o = out.as_mut_slice();
        o.fill(0.0);
        for (j, slot) in o.iter_mut().enumerate().take(TILE_DIM) {
            let mut sum = 0.0f32;
            for i in 0..TILE_DIM {
                sum += a.get(i, j);
            }
            *slot = sum * scale;
        }
        costs.issue_overhead + costs.fpu_reduce
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DataFormat;

    fn costs() -> ComputeCosts {
        ComputeCosts::default()
    }

    fn identity_tile() -> Tile {
        let mut t = Tile::zeros(DataFormat::Float32);
        for i in 0..TILE_DIM {
            t.set(i, i, 1.0);
        }
        t
    }

    #[test]
    fn matmul_identity() {
        let a = identity_tile();
        let vals: Vec<f32> = (0..1024).map(|i| (i % 97) as f32).collect();
        let b = Tile::from_rowmajor(DataFormat::Float32, &vals);
        let mut out = Tile::zeros(DataFormat::Float32);
        matmul_tiles(&costs(), &a, &b, &mut out, false);
        assert_eq!(out.as_slice()[..], b.as_slice()[..]);
    }

    #[test]
    fn matmul_accumulate() {
        let a = identity_tile();
        let b = Tile::splat(DataFormat::Float32, 2.0);
        let mut out = Tile::splat(DataFormat::Float32, 1.0);
        matmul_tiles(&costs(), &a, &b, &mut out, true);
        assert_eq!(out.get(4, 7), 3.0);
        // Without accumulation the old contents are discarded.
        matmul_tiles(&costs(), &a, &b, &mut out, false);
        assert_eq!(out.get(4, 7), 2.0);
    }

    #[test]
    fn matmul_ones_sums_columns() {
        // ones(32x32) * b sums each column of b into every row.
        let ones = Tile::splat(DataFormat::Float32, 1.0);
        let mut b = Tile::zeros(DataFormat::Float32);
        for i in 0..TILE_DIM {
            b.set(i, 0, (i + 1) as f32); // column 0 = 1..32
        }
        let mut out = Tile::zeros(DataFormat::Float32);
        matmul_tiles(&costs(), &ones, &b, &mut out, false);
        assert_eq!(out.get(0, 0), (32 * 33 / 2) as f32);
        assert_eq!(out.get(31, 0), (32 * 33 / 2) as f32);
        assert_eq!(out.get(0, 1), 0.0);
    }

    /// The force kernel's operand shapes: `A_POS` (3 live columns) against
    /// `B_POST` (3 live rows), and a dense `W` against `SRC_ATTR` (7 live
    /// output columns).
    #[test]
    fn structure_detection_finds_the_force_kernel_shapes() {
        let mut a_pos = [0.0f32; TILE_ELEMS];
        let mut attr = [0.0f32; TILE_ELEMS];
        for i in 0..TILE_DIM {
            for k in 0..3 {
                a_pos[i * TILE_DIM + k] = (i + k) as f32 - 7.5;
            }
            for j in 0..7 {
                attr[i * TILE_DIM + j] = (i * j) as f32 * 0.25;
            }
        }
        assert_eq!(live_inner_dim(&a_pos), 3);
        assert!(narrow_output(&attr));
        let dense = [1.0f32; TILE_ELEMS];
        assert_eq!(live_inner_dim(&dense), TILE_DIM);
        assert!(!narrow_output(&dense));
        a_pos[TILE_ELEMS - 1] = -0.0;
        assert_eq!(live_inner_dim(&a_pos), 3, "a -0 column entry is still a zero");
    }

    /// An FMA whose product underflows turns a `+0` sum into `-0`, and the
    /// dense chain's next `+0` product turns it back: the inner-prefix path
    /// must finish those chains, not keep the `-0`.
    #[test]
    fn inner_prefix_keeps_the_dense_sign_of_an_underflowed_zero() {
        let mut a = Tile::zeros(DataFormat::Float32);
        let mut b = Tile::splat(DataFormat::Float32, 1.0);
        for i in 0..TILE_DIM {
            a.set(i, 0, 1.0e-30);
            b.set(0, i, -1.0e-30);
        }
        let mut fast = Tile::zeros(DataFormat::Float32);
        let mut slow = Tile::zeros(DataFormat::Float32);
        assert_eq!(live_inner_dim(a.as_slice()), 1);
        matmul_tiles(&costs(), &a, &b, &mut fast, false);
        reference::matmul_tiles(&costs(), &a, &b, &mut slow, false);
        assert_eq!(slow.get(3, 4).to_bits(), 0, "the dense chain ends at +0");
        assert_eq!(bits(&fast), bits(&slow));
    }

    fn bits(t: &Tile) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn matmul_charges_bf16_rate_for_narrow_operands() {
        let c = costs();
        let mut out = Tile::zeros(DataFormat::Float32);
        let f32_cost = matmul_tiles(
            &c,
            &Tile::splat(DataFormat::Float32, 1.0),
            &Tile::splat(DataFormat::Float32, 1.0),
            &mut out,
            false,
        );
        assert_eq!(f32_cost, c.issue_overhead + c.fpu_matmul);
        let bf16_cost = matmul_tiles(
            &c,
            &Tile::splat(DataFormat::Float16b, 1.0),
            &Tile::splat(DataFormat::Float16b, 1.0),
            &mut out,
            false,
        );
        assert_eq!(bf16_cost, c.issue_overhead + c.fpu_matmul_bf16);
        // Mixed precision pays the FP32 rate.
        let mixed_cost = matmul_tiles(
            &c,
            &Tile::splat(DataFormat::Float16b, 1.0),
            &Tile::splat(DataFormat::Float32, 1.0),
            &mut out,
            false,
        );
        assert_eq!(mixed_cost, f32_cost);
    }

    #[test]
    fn eltwise_binary_sub() {
        let a = Tile::splat(DataFormat::Float32, 10.0);
        let b = Tile::splat(DataFormat::Float32, 4.0);
        let mut out = Tile::zeros(DataFormat::Float32);
        eltwise_binary(&costs(), TILE_DIM, BinaryOp::Sub, &a, &b, &mut out);
        assert_eq!(out.get(0, 0), 6.0);
    }

    #[test]
    fn half_tile_eltwise_matches_whole_tile_on_rows_0_to_15() {
        use crate::tile::HALF_TILE_ROWS;
        let c = costs();
        let vals: Vec<f32> = (0..1024).map(|i| (i % 89) as f32 * 0.37).collect();
        let a = Tile::from_rowmajor(DataFormat::Float32, &vals);
        let b = Tile::splat(DataFormat::Float32, 1.25);
        let lanes = HALF_TILE_ROWS * TILE_DIM;
        for op in [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul] {
            let mut whole = Tile::zeros(DataFormat::Float32);
            let mut half = Tile::zeros(DataFormat::Float32);
            eltwise_binary(&c, TILE_DIM, op, &a, &b, &mut whole);
            let cycles = eltwise_binary(&c, HALF_TILE_ROWS, op, &a, &b, &mut half);
            assert_eq!(whole.as_slice()[..lanes], half.as_slice()[..lanes], "{op:?}");
            assert!(half.as_slice()[lanes..].iter().all(|v| *v == 0.0), "rows 16-31 untouched");
            assert_eq!(cycles, c.issue_overhead + c.fpu_eltwise / 2);
        }
    }

    #[test]
    fn broadcast_row_col_scalar() {
        let a = Tile::zeros(DataFormat::Float32);
        let mut b = Tile::zeros(DataFormat::Float32);
        b.set(0, 0, 5.0);
        b.set(0, 3, 7.0);
        b.set(3, 0, 9.0);
        let mut out = Tile::zeros(DataFormat::Float32);

        eltwise_binary_bcast(&costs(), BinaryOp::Add, BroadcastDim::Row, &a, &b, &mut out);
        assert_eq!(out.get(17, 3), 7.0, "row 0 broadcast down");

        eltwise_binary_bcast(&costs(), BinaryOp::Add, BroadcastDim::Col, &a, &b, &mut out);
        assert_eq!(out.get(3, 29), 9.0, "col 0 broadcast across");

        eltwise_binary_bcast(&costs(), BinaryOp::Add, BroadcastDim::Scalar, &a, &b, &mut out);
        assert_eq!(out.get(31, 31), 5.0, "element (0,0) everywhere");
    }

    #[test]
    fn reduce_rows_and_cols() {
        let mut a = Tile::zeros(DataFormat::Float32);
        for j in 0..TILE_DIM {
            a.set(j, 5, 2.0); // col 5 = 2.0 everywhere ...
            a.set(2, j, 1.0); // ... except (2,5), overwritten to 1.0
        }
        let mut out = Tile::zeros(DataFormat::Float32);
        reduce_rows(&costs(), &a, 1.0, &mut out);
        assert_eq!(out.get(2, 0), 32.0, "row 2 is all ones");
        reduce_cols(&costs(), &a, 0.5, &mut out);
        assert_eq!(out.get(0, 5), (31.0 * 2.0 + 1.0) * 0.5);
    }

    #[test]
    fn reduce_full_sums_everything() {
        let a = Tile::splat(DataFormat::Float32, 0.25);
        let mut out = Tile::zeros(DataFormat::Float32);
        reduce_full(&costs(), &a, 2.0, &mut out);
        assert_eq!(out.get(0, 0), 1024.0 * 0.25 * 2.0);
        assert_eq!(out.get(0, 1), 0.0);
    }
}
