//! Data formats supported by the Wormhole Tensix datapath.
//!
//! The Wormhole packs tensors into fixed 32×32 tiles whose element encoding is
//! selected per circular buffer / DRAM buffer. The formats implemented here are
//! the ones that matter for the N-body port and its validation:
//!
//! * [`DataFormat::Float32`] — IEEE-754 binary32, the highest precision the
//!   device supports. The paper's force/jerk kernel runs entirely in FP32.
//! * [`DataFormat::Float16b`] — bfloat16 (8-bit exponent, 7-bit mantissa), the
//!   native "BFP16" format mentioned in the paper when discussing the dst
//!   register capacity (16 tiles in BF16, 8 in FP32).
//! * [`DataFormat::Float16`] — IEEE half precision (5-bit exponent).
//! * [`DataFormat::Bfp8b`] — block floating point: a shared 8-bit exponent per
//!   16-element face row plus 8-bit sign/mantissa per element. Modelled with
//!   the same value semantics (shared exponent quantization) so that format
//!   conversion costs and error behaviour are representative.
//!
//! All conversions use round-to-nearest-even, matching the hardware packer.

/// Element encodings available to tiles, circular buffers and DRAM buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataFormat {
    /// IEEE-754 binary32.
    Float32,
    /// bfloat16: truncated binary32 with round-to-nearest-even.
    Float16b,
    /// IEEE-754 binary16.
    Float16,
    /// Block floating point, 8-bit mantissas with a shared exponent per
    /// 16-element group.
    Bfp8b,
}

impl DataFormat {
    /// Bytes occupied by a single element of this format when packed.
    ///
    /// `Bfp8b` amortizes its shared exponent over the 16-element group:
    /// 16 mantissa bytes + 1 exponent byte ≈ 1.0625 B/elem; the hardware
    /// rounds tile storage up, which [`DataFormat::tile_bytes`] accounts for.
    #[must_use]
    pub fn element_bytes(self) -> usize {
        match self {
            DataFormat::Float32 => 4,
            DataFormat::Float16b | DataFormat::Float16 => 2,
            DataFormat::Bfp8b => 1,
        }
    }

    /// Bytes occupied by one packed 32×32 tile of this format, including
    /// per-face headers for block-float formats.
    #[must_use]
    pub fn tile_bytes(self) -> usize {
        match self {
            DataFormat::Float32 => 1024 * 4,
            DataFormat::Float16b | DataFormat::Float16 => 1024 * 2,
            // 1024 mantissa bytes + 64 shared exponents (one per 16-elem row).
            DataFormat::Bfp8b => 1024 + 64,
        }
    }

    /// Number of tiles of this format that fit in the 32 KiB Tensix `dst`
    /// register file (the capacity halving for FP32 called out in the paper).
    #[must_use]
    pub fn dst_capacity_tiles(self) -> usize {
        match self {
            DataFormat::Float32 => 8,
            _ => 16,
        }
    }

    /// Quantize an `f32` to this format's value grid and return the result as
    /// `f32` (the simulator keeps all live values in `f32`, the format only
    /// affects precision/storage).
    #[must_use]
    pub fn quantize(self, x: f32) -> f32 {
        match self {
            DataFormat::Float32 => x,
            DataFormat::Float16b => bf16_round(x),
            DataFormat::Float16 => f16_round(x),
            // Scalar Bfp8b quantization assumes the element is its own block;
            // block-aware quantization is applied at tile granularity.
            DataFormat::Bfp8b => bfp8_quantize_scalar(x),
        }
    }

    /// Quantize a slice of values in place, bitwise-identical to applying
    /// [`DataFormat::quantize`] element by element.
    ///
    /// The format `match` is dispatched once per slice instead of once per
    /// element so each arm is a tight, autovectorizer-friendly loop —
    /// `Float32` in particular is a no-op rather than 1024 branch tests per
    /// tile.
    pub fn quantize_slice(self, values: &mut [f32]) {
        match self {
            DataFormat::Float32 => {}
            DataFormat::Float16b => {
                for v in values {
                    *v = bf16_round(*v);
                }
            }
            DataFormat::Float16 => {
                for v in values {
                    *v = f16_round(*v);
                }
            }
            DataFormat::Bfp8b => {
                for v in values {
                    *v = bfp8_quantize_scalar(*v);
                }
            }
        }
    }
}

/// Single-element Bfp8b quantization: exactly `bfp8_quantize_block(&[x])[0]`
/// without the per-call allocation. The element is its own block, so the
/// shared exponent is the element's own exponent.
#[inline]
#[must_use]
pub fn bfp8_quantize_scalar(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    if x == 0.0 || !x.is_finite() {
        // Matches the block path: an all-zero block quantizes to +0.0, and a
        // non-finite element never contributes a shared exponent (a lone
        // infinity yields an empty block, hence 0.0).
        return 0.0;
    }
    let shared_e = ((x.to_bits() >> 23) & 0xff) as i32 - 127;
    let step = ((shared_e - 6) as f32).exp2(); // 7 mantissa bits: m * 2^(e-6)
    (x / step).round_ties_even().clamp(-127.0, 127.0) * step
}

/// Round an `f32` to bfloat16 precision using round-to-nearest-even, returning
/// the value re-expanded to `f32`.
#[must_use]
pub fn bf16_round(x: f32) -> f32 {
    let bits = x.to_bits();
    let lsb = (bits >> 16) & 1;
    let rounded = bits.wrapping_add(0x0000_7fff + lsb) & 0xffff_0000;
    // A NaN keeps its sign and top payload bits and is made quiet. Both
    // results are computed and one selected, with no branch, so slice loops
    // over this function vectorize.
    let nan = (bits & 0xffff_0000) | 0x0041_0000;
    f32::from_bits(if x.is_nan() { nan } else { rounded })
}

/// Convert an `f32` to the nearest IEEE binary16 value, returned as `f32`.
///
/// Handles overflow to infinity, subnormals and round-to-nearest-even.
#[must_use]
pub fn f16_round(x: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(x))
}

/// Encode an `f32` as IEEE binary16 bits (round-to-nearest-even).
#[must_use]
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN.
        let payload = if mant != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | payload;
    }
    // Unbiased exponent.
    let e = exp - 127;
    if e > 15 {
        return sign | 0x7c00; // overflow -> inf
    }
    if e >= -14 {
        // Normal half.
        let mant16 = mant >> 13;
        let round = mant & 0x1fff;
        let mut h = sign as u32 | (((e + 15) as u32) << 10) | mant16;
        if round > 0x1000 || (round == 0x1000 && (mant16 & 1) == 1) {
            h += 1; // may carry into exponent, which is still correct
        }
        return h as u16;
    }
    if e < -25 {
        return sign; // underflow to zero
    }
    // Subnormal half.
    let full_mant = mant | 0x0080_0000;
    let shift = (-14 - e) as u32 + 13;
    let mant16 = full_mant >> shift;
    let round_mask = (1u32 << shift) - 1;
    let round = full_mant & round_mask;
    let half_point = 1u32 << (shift - 1);
    let mut h = sign as u32 | mant16;
    if round > half_point || (round == half_point && (mant16 & 1) == 1) {
        h += 1;
    }
    h as u16
}

/// Decode IEEE binary16 bits to `f32`.
#[must_use]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x03ff) as u32;
    let bits = if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal: normalize.
            let mut m = mant;
            let mut e = -14i32;
            while m & 0x0400 == 0 {
                m <<= 1;
                e -= 1;
            }
            m &= 0x03ff;
            sign | (((e + 127) as u32) << 23) | (m << 13)
        }
    } else if exp == 0x1f {
        sign | 0x7f80_0000 | (mant << 13)
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(bits)
}

/// Quantize a block of values to Bfp8b: find the max exponent in the block,
/// then represent every element with a sign bit and a 7-bit mantissa scaled by
/// the shared exponent. Hardware blocks are 16-element face rows.
#[must_use]
pub fn bfp8_quantize_block(block: &[f32]) -> Vec<f32> {
    let max_exp = block
        .iter()
        .filter(|v| v.is_finite() && **v != 0.0)
        .map(|v| {
            let bits = v.to_bits();
            ((bits >> 23) & 0xff) as i32 - 127
        })
        .max();
    let Some(shared_e) = max_exp else {
        return block.iter().map(|v| if v.is_nan() { *v } else { 0.0 }).collect();
    };
    let scale = (shared_e - 6) as f32; // 7 mantissa bits: values are m * 2^(e-6)
    let step = scale.exp2();
    block
        .iter()
        .map(|v| {
            if !v.is_finite() {
                return *v;
            }
            let q = (v / step).round_ties_even().clamp(-127.0, 127.0);
            q * step
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_and_tile_bytes() {
        assert_eq!(DataFormat::Float32.element_bytes(), 4);
        assert_eq!(DataFormat::Float16b.element_bytes(), 2);
        assert_eq!(DataFormat::Float32.tile_bytes(), 4096);
        assert_eq!(DataFormat::Float16b.tile_bytes(), 2048);
        assert_eq!(DataFormat::Bfp8b.tile_bytes(), 1088);
    }

    #[test]
    fn dst_capacity_matches_paper() {
        // "A Tensix core dst register has a capacity of 16 tiles when using
        // BFP16 data format, which is effectively halved [...] FP32."
        assert_eq!(DataFormat::Float16b.dst_capacity_tiles(), 16);
        assert_eq!(DataFormat::Float32.dst_capacity_tiles(), 8);
    }

    #[test]
    fn bf16_round_exact_values_unchanged() {
        for v in [0.0f32, 1.0, -2.5, 0.5, 1024.0, -0.125] {
            assert_eq!(bf16_round(v), v, "{v} should be exactly representable");
        }
    }

    #[test]
    fn bf16_round_to_nearest_even() {
        // 1.0 + 2^-8 is exactly halfway between 1.0 and the next bf16 value
        // (1.0078125); ties go to even mantissa (1.0).
        let halfway = f32::from_bits(0x3f80_8000);
        assert_eq!(bf16_round(halfway), 1.0);
        // Just above halfway rounds up.
        let above = f32::from_bits(0x3f80_8001);
        assert_eq!(above.to_bits() & 0xffff_0000, 0x3f80_0000);
        assert_eq!(bf16_round(above), f32::from_bits(0x3f81_0000));
    }

    #[test]
    fn bf16_relative_error_bounded() {
        let mut x = 1e-20f32;
        while x < 1e20 {
            let r = bf16_round(x);
            let rel = ((r - x) / x).abs();
            assert!(rel <= 1.0 / 256.0, "rel error {rel} at {x}");
            x *= 3.7;
        }
    }

    #[test]
    fn bf16_preserves_sign_and_specials() {
        assert_eq!(bf16_round(-1.5), -1.5);
        assert!(bf16_round(f32::NAN).is_nan());
        assert_eq!(bf16_round(f32::INFINITY), f32::INFINITY);
        assert_eq!(bf16_round(f32::NEG_INFINITY), f32::NEG_INFINITY);
    }

    #[test]
    fn f16_round_trip_exact() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2048.0, 65504.0, -0.000061035156] {
            assert_eq!(f16_round(v), v, "{v} should be f16-representable");
        }
    }

    #[test]
    fn f16_overflow_and_underflow() {
        assert_eq!(f16_round(1e6), f32::INFINITY);
        assert_eq!(f16_round(-1e6), f32::NEG_INFINITY);
        assert_eq!(f16_round(1e-12), 0.0);
        assert!(f16_round(f32::NAN).is_nan());
    }

    #[test]
    fn f16_subnormals() {
        // Smallest positive half subnormal: 2^-24.
        let tiny = 2f32.powi(-24);
        assert_eq!(f16_round(tiny), tiny);
        // Half of it rounds to zero (ties-to-even, mantissa 0 even).
        assert_eq!(f16_round(tiny / 2.0), 0.0);
    }

    #[test]
    fn bfp8_block_shares_exponent() {
        // 100.0 has unbiased exponent 6 => shared step is 2^(6-6) = 1.0, so
        // every element in the block snaps to the integer grid.
        let block = [1.0f32, 0.5, 0.25, 100.0];
        let q = bfp8_quantize_block(&block);
        assert_eq!(q[3], 100.0);
        assert_eq!(q[0], 1.0);
        assert_eq!(q[1], 0.0, "0.5 ties to even (0) on a unit grid");
        assert_eq!(q[2], 0.0);
    }

    #[test]
    fn bfp8_zero_block() {
        let q = bfp8_quantize_block(&[0.0, -0.0, 0.0]);
        assert!(q.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn quantize_dispatch() {
        assert_eq!(DataFormat::Float32.quantize(1.2345678), 1.2345678);
        assert_eq!(DataFormat::Float16b.quantize(1.0), 1.0);
        assert_eq!(DataFormat::Float16.quantize(65504.0), 65504.0);
    }
}
