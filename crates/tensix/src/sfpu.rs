//! SFPU — the wide SIMD engine of a Tensix core.
//!
//! The SFPU executes general-purpose vector math on dst register tiles:
//! element-wise unary ops (including the transcendentals the force kernel
//! needs: `rsqrt`, `square`, reciprocal), element-wise binary ops between two
//! dst tiles (`sub_binary_tile` and friends from the paper), and fused
//! multiply-add for accumulation. All arithmetic is IEEE `f32`, the highest
//! precision the Wormhole supports.
//!
//! Every op works on the top `rows` rows of its tiles: 32 for a whole tile,
//! 16 for a half tile (faces 0–1), which computes 512 lanes and charges its
//! per-element cycles at half (see [`ComputeCosts::for_rows`]). Lanes past
//! `rows` are left as they were.
//!
//! `rsqrt` ships in two variants mirroring TT-Metalium: a *precise* one and a
//! *fast* approximate one (hardware Newton–Raphson refinement of an initial
//! guess), so accuracy studies can quantify the trade-off.

use crate::cost::ComputeCosts;
use crate::tile::{row_elems, Tile, TILE_ELEMS};

/// Element-wise unary SFPU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// x²
    Square,
    /// √x
    Sqrt,
    /// 1/√x (precise variant)
    Rsqrt,
    /// 1/√x (fast approximate variant, ~1e-6 relative error)
    RsqrtFast,
    /// 1/x
    Recip,
    /// eˣ
    Exp,
    /// ln x
    Log,
    /// |x|
    Abs,
    /// −x
    Neg,
    /// x · 2ᵏ handled via [`apply_unary_scaled`]; plain copy here.
    Identity,
}

/// Element-wise binary SFPU operations between two dst tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// a + b
    Add,
    /// a − b
    Sub,
    /// a · b
    Mul,
    /// min(a, b)
    Min,
    /// max(a, b)
    Max,
}

/// Fast inverse square root as implemented by SFPU microcode: bit-trick
/// initial guess + two Newton–Raphson iterations.
#[must_use]
pub fn rsqrt_fast(x: f32) -> f32 {
    if x <= 0.0 {
        return if x == 0.0 { f32::INFINITY } else { f32::NAN };
    }
    let i = 0x5f37_59df_u32.wrapping_sub(x.to_bits() >> 1);
    let mut y = f32::from_bits(i);
    let half = 0.5 * x;
    y *= 1.5 - half * y * y;
    y *= 1.5 - half * y * y;
    y
}

/// Scalar semantics of a unary op (f32, device precision).
#[must_use]
pub fn unary_scalar(op: UnaryOp, x: f32) -> f32 {
    match op {
        UnaryOp::Square => x * x,
        UnaryOp::Sqrt => x.sqrt(),
        UnaryOp::Rsqrt => 1.0 / x.sqrt(),
        UnaryOp::RsqrtFast => rsqrt_fast(x),
        UnaryOp::Recip => 1.0 / x,
        UnaryOp::Exp => x.exp(),
        UnaryOp::Log => x.ln(),
        UnaryOp::Abs => x.abs(),
        UnaryOp::Neg => -x,
        UnaryOp::Identity => x,
    }
}

/// Scalar semantics of a binary op (f32, device precision).
#[must_use]
pub fn binary_scalar(op: BinaryOp, a: f32, b: f32) -> f32 {
    match op {
        BinaryOp::Add => a + b,
        BinaryOp::Sub => a - b,
        BinaryOp::Mul => a * b,
        BinaryOp::Min => a.min(b),
        BinaryOp::Max => a.max(b),
    }
}

/// One specialized, autovectorizer-friendly pass over the lanes: the unary
/// op is dispatched once per tile (monomorphized per closure) instead of a
/// per-element `match`.
#[inline]
fn map_lanes(lanes: &mut [f32], f: impl Fn(f32) -> f32) {
    for lane in lanes.iter_mut() {
        *lane = f(*lane);
    }
}

/// Like [`map_lanes`] but fusing the `* scale + bias` epilogue of
/// [`apply_unary_scaled`] into the same pass.
#[inline]
fn map_lanes_scaled(lanes: &mut [f32], scale: f32, bias: f32, f: impl Fn(f32) -> f32) {
    for lane in lanes.iter_mut() {
        *lane = f(*lane) * scale + bias;
    }
}

/// Apply a unary op in place to the top `rows` rows of a dst tile. Returns
/// the cycle cost. Bitwise-identical to [`reference::apply_unary`] on those
/// rows.
pub fn apply_unary(costs: &ComputeCosts, rows: usize, op: UnaryOp, tile: &mut Tile) -> u64 {
    let lanes = &mut tile.as_mut_slice()[..row_elems(rows)];
    match op {
        UnaryOp::Square => map_lanes(lanes, |x| x * x),
        UnaryOp::Sqrt => map_lanes(lanes, f32::sqrt),
        UnaryOp::Rsqrt => map_lanes(lanes, |x| 1.0 / x.sqrt()),
        UnaryOp::RsqrtFast => map_lanes(lanes, rsqrt_fast),
        UnaryOp::Recip => map_lanes(lanes, |x| 1.0 / x),
        UnaryOp::Exp => map_lanes(lanes, f32::exp),
        UnaryOp::Log => map_lanes(lanes, f32::ln),
        UnaryOp::Abs => map_lanes(lanes, f32::abs),
        UnaryOp::Neg => map_lanes(lanes, |x| -x),
        UnaryOp::Identity => {}
    }
    costs.issue_overhead + unary_cost(&costs.for_rows(rows), op)
}

/// Apply `tile[i] = op(tile[i]) * scale + bias` in one pass over the top
/// `rows` rows (used for softening and unit conversions without extra tile
/// traffic). Bitwise-identical to [`reference::apply_unary_scaled`].
pub fn apply_unary_scaled(
    costs: &ComputeCosts,
    rows: usize,
    op: UnaryOp,
    tile: &mut Tile,
    scale: f32,
    bias: f32,
) -> u64 {
    let lanes = &mut tile.as_mut_slice()[..row_elems(rows)];
    match op {
        UnaryOp::Square => map_lanes_scaled(lanes, scale, bias, |x| x * x),
        UnaryOp::Sqrt => map_lanes_scaled(lanes, scale, bias, f32::sqrt),
        UnaryOp::Rsqrt => map_lanes_scaled(lanes, scale, bias, |x| 1.0 / x.sqrt()),
        UnaryOp::RsqrtFast => map_lanes_scaled(lanes, scale, bias, rsqrt_fast),
        UnaryOp::Recip => map_lanes_scaled(lanes, scale, bias, |x| 1.0 / x),
        UnaryOp::Exp => map_lanes_scaled(lanes, scale, bias, f32::exp),
        UnaryOp::Log => map_lanes_scaled(lanes, scale, bias, f32::ln),
        UnaryOp::Abs => map_lanes_scaled(lanes, scale, bias, f32::abs),
        UnaryOp::Neg => map_lanes_scaled(lanes, scale, bias, |x| -x),
        UnaryOp::Identity => map_lanes_scaled(lanes, scale, bias, |x| x),
    }
    let costs = costs.for_rows(rows);
    costs.issue_overhead + unary_cost(&costs, op) + costs.sfpu_mad
}

/// Apply a binary op lane-wise over the top `rows` rows:
/// `a[i] = op(a[i], b[i])`. Returns cycle cost. Bitwise-identical to
/// [`reference::apply_binary`].
pub fn apply_binary(
    costs: &ComputeCosts,
    rows: usize,
    op: BinaryOp,
    a: &mut Tile,
    b: &Tile,
) -> u64 {
    let lanes = row_elems(rows);
    let vb = &b.as_slice()[..lanes];
    let va = &mut a.as_mut_slice()[..lanes];
    macro_rules! lanes {
        ($f:expr) => {
            for (x, y) in va.iter_mut().zip(vb.iter()) {
                *x = $f(*x, *y);
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
    costs.issue_overhead + costs.for_rows(rows).sfpu_simple
}

/// Fused multiply-add over the top `rows` rows: `acc[i] += a[i] * b[i]`.
/// Returns cycle cost. Bitwise-identical to [`reference::apply_mad`].
pub fn apply_mad(costs: &ComputeCosts, rows: usize, a: &Tile, b: &Tile, acc: &mut Tile) -> u64 {
    let lanes = row_elems(rows);
    let (va, vb) = (&a.as_slice()[..lanes], &b.as_slice()[..lanes]);
    // Hoist the COW borrow out of the lane loop: `as_mut_slice` re-checks
    // Arc uniqueness on every call, which the old per-element indexing paid
    // 1024 times per tile.
    let vo = &mut acc.as_mut_slice()[..lanes];
    for (o, (x, y)) in vo.iter_mut().zip(va.iter().zip(vb.iter())) {
        *o = x.mul_add(*y, *o);
    }
    costs.issue_overhead + costs.for_rows(rows).sfpu_mad
}

/// Fill the top `rows` rows with a constant (`fill_tile` LLK).
pub fn apply_fill(costs: &ComputeCosts, rows: usize, tile: &mut Tile, value: f32) -> u64 {
    tile.as_mut_slice()[..row_elems(rows)].fill(value);
    costs.issue_overhead + costs.for_rows(rows).sfpu_simple
}

/// Pre-vectorization scalar implementations, kept as the bitwise-identity
/// oracle for property tests and as the "before" side of the tile-op
/// benchmarks. Not part of the simulator's public API.
#[doc(hidden)]
pub mod reference {
    use super::*;

    /// Original per-element-`match` form of [`super::apply_unary`].
    pub fn apply_unary(costs: &ComputeCosts, op: UnaryOp, tile: &mut Tile) -> u64 {
        for lane in tile.as_mut_slice().iter_mut() {
            *lane = unary_scalar(op, *lane);
        }
        costs.issue_overhead + unary_cost(costs, op)
    }

    /// Original per-element-`match` form of [`super::apply_unary_scaled`].
    pub fn apply_unary_scaled(
        costs: &ComputeCosts,
        op: UnaryOp,
        tile: &mut Tile,
        scale: f32,
        bias: f32,
    ) -> u64 {
        for lane in tile.as_mut_slice().iter_mut() {
            *lane = unary_scalar(op, *lane) * scale + bias;
        }
        costs.issue_overhead + unary_cost(costs, op) + costs.sfpu_mad
    }

    /// Original per-element-`match` form of [`super::apply_binary`].
    pub fn apply_binary(costs: &ComputeCosts, op: BinaryOp, a: &mut Tile, b: &Tile) -> u64 {
        let bs = b.as_slice();
        for (x, y) in a.as_mut_slice().iter_mut().zip(bs.iter()) {
            *x = binary_scalar(op, *x, *y);
        }
        costs.issue_overhead + costs.sfpu_simple
    }

    /// Original form of [`super::apply_mad`], including the per-element
    /// `as_mut_slice` re-borrow it used to pay.
    pub fn apply_mad(costs: &ComputeCosts, a: &Tile, b: &Tile, acc: &mut Tile) -> u64 {
        let (va, vb) = (a.as_slice(), b.as_slice());
        for i in 0..TILE_ELEMS {
            let out = &mut acc.as_mut_slice()[i];
            *out = va[i].mul_add(vb[i], *out);
        }
        costs.issue_overhead + costs.sfpu_mad
    }
}

/// Cycle cost of a unary op per tile.
#[must_use]
pub fn unary_cost(costs: &ComputeCosts, op: UnaryOp) -> u64 {
    match op {
        UnaryOp::Square | UnaryOp::Abs | UnaryOp::Neg | UnaryOp::Identity => costs.sfpu_simple,
        UnaryOp::RsqrtFast => costs.sfpu_transcendental / 2,
        UnaryOp::Sqrt | UnaryOp::Rsqrt | UnaryOp::Recip | UnaryOp::Exp | UnaryOp::Log => {
            costs.sfpu_transcendental
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DataFormat;
    use crate::tile::{HALF_TILE_ROWS, TILE_DIM};

    fn costs() -> ComputeCosts {
        ComputeCosts::default()
    }

    fn ramp_tile() -> Tile {
        let vals: Vec<f32> = (1..=TILE_ELEMS).map(|i| i as f32).collect();
        Tile::from_rowmajor(DataFormat::Float32, &vals)
    }

    #[test]
    fn square_matches_scalar() {
        let mut t = ramp_tile();
        let cycles = apply_unary(&costs(), TILE_DIM, UnaryOp::Square, &mut t);
        assert_eq!(t.get(0, 2), 9.0);
        assert_eq!(cycles, 4 + 32);
    }

    #[test]
    fn rsqrt_precise_matches_f32() {
        let mut t = Tile::splat(DataFormat::Float32, 4.0);
        apply_unary(&costs(), TILE_DIM, UnaryOp::Rsqrt, &mut t);
        assert_eq!(t.get(0, 0), 0.5);
    }

    #[test]
    fn rsqrt_fast_within_1e5_relative() {
        let mut x = 1e-6f32;
        while x < 1e12 {
            let approx = rsqrt_fast(x);
            let exact = 1.0 / x.sqrt();
            let rel = ((approx - exact) / exact).abs();
            assert!(rel < 1e-5, "rel {rel} at {x}");
            x *= 9.7;
        }
    }

    #[test]
    fn rsqrt_fast_edge_cases() {
        assert_eq!(rsqrt_fast(0.0), f32::INFINITY);
        assert!(rsqrt_fast(-1.0).is_nan());
    }

    #[test]
    fn transcendental_costs_more() {
        let c = costs();
        let mut t = Tile::splat(DataFormat::Float32, 2.0);
        let simple = apply_unary(&c, TILE_DIM, UnaryOp::Square, &mut t);
        let tr = apply_unary(&c, TILE_DIM, UnaryOp::Rsqrt, &mut t);
        assert!(tr > simple);
        // Fast rsqrt is cheaper than precise.
        let fast = apply_unary(&c, TILE_DIM, UnaryOp::RsqrtFast, &mut t);
        assert!(fast < tr);
    }

    #[test]
    fn binary_sub_is_the_paper_sub_binary_tile() {
        let mut a = Tile::splat(DataFormat::Float32, 5.0);
        let b = Tile::splat(DataFormat::Float32, 2.0);
        apply_binary(&costs(), TILE_DIM, BinaryOp::Sub, &mut a, &b);
        assert_eq!(a.get(3, 3), 3.0);
    }

    #[test]
    fn binary_ops_all_lanes() {
        let mut a = ramp_tile();
        let b = ramp_tile();
        apply_binary(&costs(), TILE_DIM, BinaryOp::Mul, &mut a, &b);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 3), 16.0);
        let mut mn = ramp_tile();
        apply_binary(
            &costs(),
            TILE_DIM,
            BinaryOp::Min,
            &mut mn,
            &Tile::splat(DataFormat::Float32, 10.0),
        );
        assert_eq!(mn.get(0, 0), 1.0);
        assert_eq!(mn.get(31, 31), 10.0);
    }

    #[test]
    fn mad_accumulates() {
        let a = Tile::splat(DataFormat::Float32, 2.0);
        let b = Tile::splat(DataFormat::Float32, 3.0);
        let mut acc = Tile::splat(DataFormat::Float32, 1.0);
        apply_mad(&costs(), TILE_DIM, &a, &b, &mut acc);
        assert_eq!(acc.get(0, 0), 7.0);
        apply_mad(&costs(), TILE_DIM, &a, &b, &mut acc);
        assert_eq!(acc.get(5, 5), 13.0);
    }

    #[test]
    fn unary_scaled_fuses() {
        let mut t = Tile::splat(DataFormat::Float32, 3.0);
        apply_unary_scaled(&costs(), TILE_DIM, UnaryOp::Square, &mut t, 2.0, 1.0);
        assert_eq!(t.get(0, 0), 19.0);
    }

    #[test]
    fn fill_sets_all_lanes() {
        let mut t = ramp_tile();
        apply_fill(&costs(), TILE_DIM, &mut t, -4.25);
        assert!(t.as_slice().iter().all(|v| *v == -4.25));
    }

    #[test]
    fn exp_log_inverse() {
        let mut t = Tile::splat(DataFormat::Float32, 2.5);
        apply_unary(&costs(), TILE_DIM, UnaryOp::Log, &mut t);
        apply_unary(&costs(), TILE_DIM, UnaryOp::Exp, &mut t);
        assert!((t.get(0, 0) - 2.5).abs() < 1e-5);
    }

    #[test]
    fn half_tile_ops_match_whole_tile_on_rows_0_to_15_at_half_lane_cost() {
        let c = costs();
        let h = c.for_rows(HALF_TILE_ROWS);
        let lanes = HALF_TILE_ROWS * TILE_DIM;
        let same_top = |a: &Tile, b: &Tile| a.as_slice()[..lanes] == b.as_slice()[..lanes];
        let b = ramp_tile();
        for op in [UnaryOp::Square, UnaryOp::Rsqrt, UnaryOp::RsqrtFast, UnaryOp::Neg] {
            let (mut whole, mut half) = (ramp_tile(), ramp_tile());
            apply_unary(&c, TILE_DIM, op, &mut whole);
            let cycles = apply_unary(&c, HALF_TILE_ROWS, op, &mut half);
            assert!(same_top(&whole, &half), "{op:?}");
            assert_eq!(cycles, c.issue_overhead + unary_cost(&h, op), "{op:?}");
            assert_eq!(
                half.as_slice()[lanes..],
                ramp_tile().as_slice()[lanes..],
                "rows 16-31 untouched"
            );
        }
        let (mut whole, mut half) = (ramp_tile(), ramp_tile());
        apply_unary_scaled(&c, TILE_DIM, UnaryOp::Identity, &mut whole, 3.0, 0.5);
        let cycles = apply_unary_scaled(&c, HALF_TILE_ROWS, UnaryOp::Identity, &mut half, 3.0, 0.5);
        assert!(same_top(&whole, &half));
        assert_eq!(cycles, c.issue_overhead + h.sfpu_simple + h.sfpu_mad);
        for op in [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul] {
            let (mut whole, mut half) = (ramp_tile(), ramp_tile());
            apply_binary(&c, TILE_DIM, op, &mut whole, &b);
            let cycles = apply_binary(&c, HALF_TILE_ROWS, op, &mut half, &b);
            assert!(same_top(&whole, &half), "{op:?}");
            assert_eq!(cycles, c.issue_overhead + h.sfpu_simple, "{op:?}");
        }
        let (mut whole, mut half) = (ramp_tile(), ramp_tile());
        apply_mad(&c, TILE_DIM, &b, &b, &mut whole);
        let cycles = apply_mad(&c, HALF_TILE_ROWS, &b, &b, &mut half);
        assert!(same_top(&whole, &half));
        assert_eq!(cycles, c.issue_overhead + h.sfpu_mad);
        let (mut whole, mut half) = (ramp_tile(), ramp_tile());
        apply_fill(&c, TILE_DIM, &mut whole, 2.5);
        let cycles = apply_fill(&c, HALF_TILE_ROWS, &mut half, 2.5);
        assert!(same_top(&whole, &half));
        assert_eq!(cycles, c.issue_overhead + h.sfpu_simple);
    }
}
