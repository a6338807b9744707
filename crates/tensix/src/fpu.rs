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
use crate::tile::{row_elems, Tile, TILE_DIM};

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

/// Dense tile matmul: `a (32×32) × b (32×32)`, accumulating into `acc` when
/// `accumulate` is set (matmul with dst accumulation). Returns cycle cost.
///
/// Two output rows at a time are held in local `[f32; 32]` registers and
/// updated in [`LANES`]-wide groups from one load of each `b` row. On an
/// x86-64 release build (`-C target-cpu=native`, AVX2/FMA) each row takes
/// four packed `vfmadd231ps` per `k`. Updating `acc`'s row in place
/// instead does not vectorize: LLVM fully unrolls it into 32 scalar
/// `vfmadd231ss` per `k`, over 10× slower. Each output element still receives its fused multiply-adds in
/// ascending-`k` order, so results are bitwise identical to the textbook
/// (i, j, k) nest in [`reference::matmul_tiles`].
pub fn matmul_tiles(
    costs: &ComputeCosts,
    a: &Tile,
    b: &Tile,
    acc: &mut Tile,
    accumulate: bool,
) -> u64 {
    let (va, vb) = (a.as_slice(), b.as_slice());
    let out = acc.as_mut_slice();
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
        for ((x0, x1), b_row) in a0.iter().zip(a1).zip(vb.chunks_exact(TILE_DIM)) {
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
    matmul_cost(costs, a, b)
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
    // The broadcast `match` is hoisted out of the element loop: each row is
    // processed with its broadcast operand resolved once (Row broadcast zips
    // against b's contiguous row 0, Col/Scalar against one splatted value).
    for (i, row) in acc.as_mut_slice().chunks_exact_mut(TILE_DIM).enumerate() {
        match dim {
            BroadcastDim::Row => {
                for (o, y) in row.iter_mut().zip(&vb[..TILE_DIM]) {
                    *o = binary_scalar(op, *o, *y);
                }
            }
            BroadcastDim::Col | BroadcastDim::Scalar => {
                let bv = if dim == BroadcastDim::Col { vb[i * TILE_DIM] } else { vb[0] };
                for o in row {
                    *o = binary_scalar(op, *o, bv);
                }
            }
        }
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
