//! Bitwise-identity properties of the vectorized tile math.
//!
//! The chunked, autovectorizer-friendly FPU/SFPU loops and the slice
//! quantizers are *optimizations only*: for every op and every data format
//! they must produce exactly the bits of the per-element reference forms
//! (kept alive in `fpu::reference` / `sfpu::reference` as oracles). These
//! properties are what lets the zero-copy pipeline claim bitwise-identical
//! forces and cycle accounting.
//!
//! One exception is known and kept visible rather than filtered out: when
//! two NaNs of different payloads meet in one fused multiply-add, the
//! packed matmul loop and the scalar reference can return different
//! payloads: an x86 FMA returns the NaN of a fixed operand slot, and the
//! two loops were compiled with their operands in different slots. The
//! finite-input properties never meet it. `fpu_matmul_structured_sparsity_matches_reference`, which feeds
//! infinities and NaNs, therefore compares every non-NaN lane bitwise and
//! requires NaN lanes to be NaN on both sides.

use proptest::collection::vec;
use proptest::prelude::*;
use tensix::cost::ComputeCosts;
use tensix::dtype::{bfp8_quantize_scalar, DataFormat};
use tensix::fpu::{self, BroadcastDim};
use tensix::sfpu::{self, BinaryOp, UnaryOp};
use tensix::tile::{Tile, TILE_DIM, TILE_ELEMS};

const FORMATS: [DataFormat; 3] = [DataFormat::Float32, DataFormat::Float16b, DataFormat::Float16];

const UNARY_OPS: [UnaryOp; 10] = [
    UnaryOp::Square,
    UnaryOp::Sqrt,
    UnaryOp::Rsqrt,
    UnaryOp::RsqrtFast,
    UnaryOp::Recip,
    UnaryOp::Exp,
    UnaryOp::Log,
    UnaryOp::Abs,
    UnaryOp::Neg,
    UnaryOp::Identity,
];

const BINARY_OPS: [BinaryOp; 5] =
    [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Min, BinaryOp::Max];

fn finite_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        -1.0e20f32..1.0e20f32,
        -1.0f32..1.0f32,
        1.0e-30f32..1.0e-20f32,
        Just(0.0f32),
        Just(-0.0f32),
    ]
}

/// An operand value for the structured matmuls: as [`finite_f32`], but no
/// larger than 1e3, so products never overflow and every fallback is one
/// the property put there; plus subnormals of either sign, so products
/// underflow to signed zeros.
fn operand_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        -1.0e3f32..1.0e3f32,
        -1.0f32..1.0f32,
        1.0e-30f32..1.0e-20f32,
        (1u32..0x0080_0000).prop_map(f32::from_bits),
        (0x8000_0001u32..0x8080_0000).prop_map(f32::from_bits),
        Just(0.0f32),
        Just(-0.0f32),
    ]
}

/// A NaN of any payload.
fn nan_f32() -> impl Strategy<Value = f32> {
    (0x7f80_0001u32..0x8000_0000).prop_map(f32::from_bits)
}

/// A few `(index, value)` overrides of a tile's values.
fn spikes<S: Strategy<Value = f32>>(
    value: S,
    max: usize,
) -> impl Strategy<Value = Vec<(usize, f32)>> {
    vec((0usize..TILE_ELEMS, value), 0..max)
}

/// An accumulator lane with no `-0` and no NaN of its own; the property
/// adds those as spikes.
fn accumulator_f32() -> impl Strategy<Value = f32> {
    prop_oneof![-1.0e20f32..1.0e20f32, -1.0f32..1.0f32, Just(0.0f32)]
}

/// Equal bits, or NaN on both sides.
fn same_value(x: f32, y: f32) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

/// Bit patterns, so NaN payloads and signed zeros must match too.
fn bits(t: &Tile) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `quantize_slice` is the per-element `quantize`, for every format.
    #[test]
    fn quantize_slice_matches_per_element(vals in vec(finite_f32(), TILE_ELEMS)) {
        for format in
            [DataFormat::Float32, DataFormat::Float16b, DataFormat::Float16, DataFormat::Bfp8b]
        {
            let mut batched = vals.clone();
            format.quantize_slice(&mut batched);
            for (i, (&b, &x)) in batched.iter().zip(&vals).enumerate() {
                prop_assert_eq!(
                    b.to_bits(),
                    format.quantize(x).to_bits(),
                    "{:?} lane {} of {}", format, i, x
                );
            }
        }
    }

    /// The closed-form Bfp8b scalar quantizer agrees bitwise with the
    /// shared-exponent block quantizer on single-element blocks (where the
    /// element is its own exponent block).
    #[test]
    fn bfp8_scalar_matches_block_oracle(x in finite_f32()) {
        let block = tensix::dtype::bfp8_quantize_block(&[x]);
        prop_assert_eq!(bfp8_quantize_scalar(x).to_bits(), block[0].to_bits());
    }

    /// Every SFPU unary op, vectorized vs reference, all formats.
    #[test]
    fn sfpu_unary_bitwise_identity(vals in vec(finite_f32(), TILE_ELEMS)) {
        let costs = ComputeCosts::default();
        for format in FORMATS {
            let base = Tile::from_rowmajor(format, &vals);
            for op in UNARY_OPS {
                let mut fast = base.deep_clone();
                let mut slow = base.deep_clone();
                let cf = sfpu::apply_unary(&costs, TILE_DIM, op, &mut fast);
                let cs = sfpu::reference::apply_unary(&costs, op, &mut slow);
                prop_assert_eq!(cf, cs, "{:?}/{:?} cycle cost", format, op);
                prop_assert_eq!(bits(&fast), bits(&slow), "{:?}/{:?}", format, op);
            }
        }
    }

    /// Scaled unary (scale·x + bias pre-transform), vectorized vs reference.
    #[test]
    fn sfpu_unary_scaled_bitwise_identity(
        vals in vec(finite_f32(), TILE_ELEMS),
        scale in -4.0f32..4.0,
        bias in -4.0f32..4.0,
    ) {
        let costs = ComputeCosts::default();
        for format in FORMATS {
            let base = Tile::from_rowmajor(format, &vals);
            for op in UNARY_OPS {
                let mut fast = base.deep_clone();
                let mut slow = base.deep_clone();
                sfpu::apply_unary_scaled(&costs, TILE_DIM, op, &mut fast, scale, bias);
                sfpu::reference::apply_unary_scaled(&costs, op, &mut slow, scale, bias);
                prop_assert_eq!(bits(&fast), bits(&slow), "{:?}/{:?}", format, op);
            }
        }
    }

    /// Every SFPU binary op, vectorized vs reference, all formats.
    #[test]
    fn sfpu_binary_bitwise_identity(
        a in vec(finite_f32(), TILE_ELEMS),
        b in vec(finite_f32(), TILE_ELEMS),
    ) {
        let costs = ComputeCosts::default();
        for format in FORMATS {
            let ta = Tile::from_rowmajor(format, &a);
            let tb = Tile::from_rowmajor(format, &b);
            for op in BINARY_OPS {
                let mut fast = ta.deep_clone();
                let mut slow = ta.deep_clone();
                sfpu::apply_binary(&costs, TILE_DIM, op, &mut fast, &tb);
                sfpu::reference::apply_binary(&costs, op, &mut slow, &tb);
                prop_assert_eq!(bits(&fast), bits(&slow), "{:?}/{:?}", format, op);
            }
        }
    }

    /// SFPU multiply-add accumulation, vectorized vs reference.
    #[test]
    fn sfpu_mad_bitwise_identity(
        a in vec(finite_f32(), TILE_ELEMS),
        x in vec(finite_f32(), TILE_ELEMS),
        acc0 in vec(finite_f32(), TILE_ELEMS),
    ) {
        let costs = ComputeCosts::default();
        for format in FORMATS {
            let ta = Tile::from_rowmajor(format, &a);
            let tx = Tile::from_rowmajor(format, &x);
            let base = Tile::from_rowmajor(format, &acc0);
            let mut fast = base.deep_clone();
            let mut slow = base.deep_clone();
            sfpu::apply_mad(&costs, TILE_DIM, &ta, &tx, &mut fast);
            sfpu::reference::apply_mad(&costs, &ta, &tx, &mut slow);
            prop_assert_eq!(bits(&fast), bits(&slow), "{:?}", format);
        }
    }

    /// FPU dense matmul with the (i,k,j) interchange vs the textbook
    /// (i,j,k) nest — per-element FMA order is preserved, so bits match.
    #[test]
    fn fpu_matmul_bitwise_identity(
        a in vec(finite_f32(), TILE_ELEMS),
        b in vec(finite_f32(), TILE_ELEMS),
        acc0 in vec(finite_f32(), TILE_ELEMS),
        acc_flag in 0u32..2,
    ) {
        let accumulate = acc_flag == 1;
        let costs = ComputeCosts::default();
        for format in FORMATS {
            let ta = Tile::from_rowmajor(format, &a);
            let tb = Tile::from_rowmajor(format, &b);
            let base = Tile::from_rowmajor(format, &acc0);
            let mut fast = base.deep_clone();
            let mut slow = base.deep_clone();
            fpu::matmul_tiles(&costs, &ta, &tb, &mut fast, accumulate);
            fpu::reference::matmul_tiles(&costs, &ta, &tb, &mut slow, accumulate);
            prop_assert_eq!(bits(&fast), bits(&slow), "{:?} acc={}", format, accumulate);
        }
    }

    /// The matrix force kernel's accumulate path: a *chain* of
    /// `matmul_tiles(..., accumulate = true)` calls folding partial products
    /// into one dst tile (the kernel's six hi/lo split matmuls), vectorized
    /// vs reference, for every data format including the block-quantized
    /// `Bfp8b`. The single-matmul identity above does not cover this: with
    /// accumulation, dst carries bits *between* calls, so any reassociation
    /// inside one matmul would compound across the chain. Cycle charges must
    /// agree link by link as well.
    #[test]
    fn fpu_matmul_accumulate_chain_bitwise_identity(
        links in vec((vec(finite_f32(), TILE_ELEMS), vec(finite_f32(), TILE_ELEMS)), 2..6),
    ) {
        let costs = ComputeCosts::default();
        for format in
            [DataFormat::Float32, DataFormat::Float16b, DataFormat::Float16, DataFormat::Bfp8b]
        {
            let mut fast = Tile::zeros(format);
            let mut slow = Tile::zeros(format);
            for (i, (a, b)) in links.iter().enumerate() {
                let ta = Tile::from_rowmajor(format, a);
                let tb = Tile::from_rowmajor(format, b);
                // First link initializes dst, the rest accumulate into it.
                let cf = fpu::matmul_tiles(&costs, &ta, &tb, &mut fast, i > 0);
                let cs = fpu::reference::matmul_tiles(&costs, &ta, &tb, &mut slow, i > 0);
                prop_assert_eq!(cf, cs, "{:?} link {} cycle cost", format, i);
                prop_assert_eq!(bits(&fast), bits(&slow), "{:?} link {}", format, i);
            }
        }
    }

    /// The structured operands `fpu::matmul_tiles` skips products for,
    /// against the dense reference, accumulating and not, in every format:
    /// `a` with its columns from `live` on zeroed, `b` with its lanes from
    /// `8 · lane_groups` on zeroed, each zero of a drawn sign. The rest of
    /// both operands mixes subnormals (products that underflow to signed
    /// zeros) with a few ±inf and NaN spikes, and the accumulator has `-0`
    /// and NaN spikes, so every fallback to the dense loop is on the path
    /// too.
    #[test]
    fn fpu_matmul_structured_sparsity_matches_reference(
        operands in (vec(operand_f32(), TILE_ELEMS), vec(operand_f32(), TILE_ELEMS)),
        zero_signs in vec(0u32..2, TILE_ELEMS),
        // Biased towards the force kernel's shapes: 3 live columns of `a`,
        // one lane group of `b`.
        shape in (prop_oneof![1usize..4, 0usize..TILE_DIM + 1], prop_oneof![Just(1usize), 1usize..5]),
        acc0 in vec(accumulator_f32(), TILE_ELEMS),
        operand_spikes in (
            spikes(prop_oneof![Just(f32::INFINITY), Just(f32::NEG_INFINITY), nan_f32()], 3),
            spikes(prop_oneof![Just(f32::INFINITY), Just(f32::NEG_INFINITY), nan_f32()], 3),
        ),
        acc_spikes in spikes(prop_oneof![Just(-0.0f32), nan_f32()], 8),
    ) {
        let costs = ComputeCosts::default();
        let (live, lane_groups) = shape;
        let (mut a, mut b) = operands;
        let mut acc0 = acc0;
        for (i, v) in operand_spikes.0 {
            a[i] = v;
        }
        for (i, v) in operand_spikes.1 {
            b[i] = v;
        }
        for (i, v) in acc_spikes {
            acc0[i] = v;
        }
        let signed_zero = |i: usize| if zero_signs[i] == 1 { -0.0f32 } else { 0.0 };
        for (i, v) in a.iter_mut().enumerate() {
            if i % TILE_DIM >= live {
                *v = signed_zero(i);
            }
        }
        for (i, v) in b.iter_mut().enumerate() {
            if i % TILE_DIM >= 8 * lane_groups {
                *v = signed_zero(i);
            }
        }
        for format in
            [DataFormat::Float32, DataFormat::Float16b, DataFormat::Float16, DataFormat::Bfp8b]
        {
            let ta = Tile::from_rowmajor(format, &a);
            let tb = Tile::from_rowmajor(format, &b);
            let base = Tile::from_rowmajor(format, &acc0);
            for accumulate in [false, true] {
                let mut fast = base.deep_clone();
                let mut slow = base.deep_clone();
                let cf = fpu::matmul_tiles(&costs, &ta, &tb, &mut fast, accumulate);
                let cs = fpu::reference::matmul_tiles(&costs, &ta, &tb, &mut slow, accumulate);
                prop_assert_eq!(cf, cs, "{:?} acc={} cycle cost", format, accumulate);
                for (i, (x, y)) in fast.as_slice().iter().zip(slow.as_slice()).enumerate() {
                    prop_assert!(
                        same_value(*x, *y),
                        "{:?} acc={} live={} lane_groups={} element {}: {:e} ({:#010x}) vs \
                         reference {:e} ({:#010x})",
                        format, accumulate, live, lane_groups, i, x, x.to_bits(), y, y.to_bits()
                    );
                }
            }
        }
    }

    /// FPU element-wise binary (plain and every broadcast dim).
    #[test]
    fn fpu_eltwise_bitwise_identity(
        a in vec(finite_f32(), TILE_ELEMS),
        b in vec(finite_f32(), TILE_ELEMS),
    ) {
        let costs = ComputeCosts::default();
        for format in FORMATS {
            let ta = Tile::from_rowmajor(format, &a);
            let tb = Tile::from_rowmajor(format, &b);
            for op in BINARY_OPS {
                let mut fast = Tile::zeros(format);
                let mut slow = Tile::zeros(format);
                fpu::eltwise_binary(&costs, TILE_DIM, op, &ta, &tb, &mut fast);
                fpu::reference::eltwise_binary(&costs, op, &ta, &tb, &mut slow);
                prop_assert_eq!(bits(&fast), bits(&slow), "{:?}/{:?}", format, op);
                for dim in [BroadcastDim::Row, BroadcastDim::Col, BroadcastDim::Scalar] {
                    let mut fast = Tile::zeros(format);
                    let mut slow = Tile::zeros(format);
                    fpu::eltwise_binary_bcast(&costs, op, dim, &ta, &tb, &mut fast);
                    fpu::reference::eltwise_binary_bcast(&costs, op, dim, &ta, &tb, &mut slow);
                    prop_assert_eq!(
                        bits(&fast), bits(&slow), "{:?}/{:?}/{:?}", format, op, dim
                    );
                }
            }
        }
    }

    /// FPU reductions keep their sequential accumulation order.
    #[test]
    fn fpu_reduce_bitwise_identity(
        a in vec(finite_f32(), TILE_ELEMS),
        scale in -4.0f32..4.0,
    ) {
        let costs = ComputeCosts::default();
        for format in FORMATS {
            let ta = Tile::from_rowmajor(format, &a);
            let mut fast = Tile::zeros(format);
            let mut slow = Tile::zeros(format);
            fpu::reduce_rows(&costs, &ta, scale, &mut fast);
            fpu::reference::reduce_rows(&costs, &ta, scale, &mut slow);
            prop_assert_eq!(bits(&fast), bits(&slow), "reduce_rows {:?}", format);
            let mut fast = Tile::zeros(format);
            let mut slow = Tile::zeros(format);
            fpu::reduce_cols(&costs, &ta, scale, &mut fast);
            fpu::reference::reduce_cols(&costs, &ta, scale, &mut slow);
            prop_assert_eq!(bits(&fast), bits(&slow), "reduce_cols {:?}", format);
        }
    }
}
