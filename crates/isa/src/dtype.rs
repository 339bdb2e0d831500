//! Machine number formats and their quantisation behaviour.

use std::fmt;

/// A machine data type supported by the DTU compute core.
///
/// Table I gives the peak throughput of the i20 per type; the relative
/// throughput multipliers come out of [`DataType::ops_multiplier`]. The
/// quantisation functions model the *value* effect of each format so the
/// functional simulator can report accuracy deltas against an FP32
/// reference (the paper configures 0.01%–0.05% tolerated precision
/// difference, §VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataType {
    /// IEEE-754 single precision.
    Fp32,
    /// TensorFloat-32: FP32 range, 10 explicit mantissa bits.
    Tf32,
    /// IEEE-754 half precision.
    #[default]
    Fp16,
    /// bfloat16: FP32 range, 7 explicit mantissa bits.
    Bf16,
    /// 32-bit signed integer.
    Int32,
    /// 16-bit signed integer.
    Int16,
    /// 8-bit signed integer.
    Int8,
}

impl DataType {
    /// All supported types, widest first.
    pub const ALL: [DataType; 7] = [
        DataType::Fp32,
        DataType::Tf32,
        DataType::Fp16,
        DataType::Bf16,
        DataType::Int32,
        DataType::Int16,
        DataType::Int8,
    ];

    /// Storage size of one element, in bytes.
    ///
    /// TF32 is stored in 32-bit containers (as on real hardware).
    pub fn size_bytes(self) -> usize {
        match self {
            DataType::Fp32 | DataType::Tf32 | DataType::Int32 => 4,
            DataType::Fp16 | DataType::Bf16 | DataType::Int16 => 2,
            DataType::Int8 => 1,
        }
    }

    /// Peak-throughput multiplier relative to FP32 on DTU 2.0.
    ///
    /// Table I: FP32 32 TFLOPS; TF32/FP16/BF16 128; INT8 256 TOPS. INT32 and
    /// INT16 track FP32 and FP16 respectively (the DTU 1.0 ratios, §II-A,
    /// scaled by the 2.0 uplift).
    pub fn ops_multiplier(self) -> f64 {
        match self {
            DataType::Fp32 | DataType::Int32 => 1.0,
            DataType::Tf32 | DataType::Fp16 | DataType::Bf16 | DataType::Int16 => 4.0,
            DataType::Int8 => 8.0,
        }
    }

    /// Explicit mantissa (fraction) bits for float formats; `None` for ints.
    pub fn mantissa_bits(self) -> Option<u32> {
        match self {
            DataType::Fp32 => Some(23),
            DataType::Tf32 => Some(10),
            DataType::Fp16 => Some(10),
            DataType::Bf16 => Some(7),
            _ => None,
        }
    }

    /// Quantises an `f32` value through this format and back.
    ///
    /// * Float formats: round-to-nearest-even mantissa truncation, plus
    ///   range clamping to the format's max finite value (FP16 only — TF32
    ///   and BF16 share FP32's exponent range).
    /// * Integer formats: round-to-nearest with saturation at the type
    ///   bounds.
    pub fn quantize(self, v: f32) -> f32 {
        match self {
            DataType::Fp32 => v,
            DataType::Tf32 => truncate_mantissa(v, 10),
            DataType::Bf16 => truncate_mantissa(v, 7),
            DataType::Fp16 => {
                if v.is_nan() {
                    return v;
                }
                const FP16_MAX: f32 = 65504.0;
                let t = truncate_mantissa(v, 10);
                if t.is_finite() {
                    t.clamp(-FP16_MAX, FP16_MAX)
                } else if t.is_sign_positive() {
                    f32::INFINITY
                } else {
                    f32::NEG_INFINITY
                }
            }
            DataType::Int32 => saturate_round(v, i32::MIN as f64, i32::MAX as f64),
            DataType::Int16 => saturate_round(v, i16::MIN as f64, i16::MAX as f64),
            DataType::Int8 => saturate_round(v, i8::MIN as f64, i8::MAX as f64),
        }
    }

    /// Worst-case relative quantisation error for float formats
    /// (half a unit in the last place), used by accuracy assertions.
    pub fn relative_epsilon(self) -> Option<f64> {
        self.mantissa_bits()
            .map(|m| 0.5 * (2.0f64).powi(-(m as i32)))
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Fp32 => "FP32",
            DataType::Tf32 => "TF32",
            DataType::Fp16 => "FP16",
            DataType::Bf16 => "BF16",
            DataType::Int32 => "INT32",
            DataType::Int16 => "INT16",
            DataType::Int8 => "INT8",
        };
        write!(f, "{s}")
    }
}

/// Rounds an `f32` to `keep` mantissa bits with round-to-nearest-even.
fn truncate_mantissa(v: f32, keep: u32) -> f32 {
    if !v.is_finite() {
        return v;
    }
    let bits = v.to_bits();
    let drop = 23 - keep;
    let mask: u32 = (1 << drop) - 1;
    let tail = bits & mask;
    let half = 1u32 << (drop - 1);
    let mut kept = bits & !mask;
    // Round to nearest, ties to even (on the lowest kept bit).
    if tail > half || (tail == half && (kept >> drop) & 1 == 1) {
        kept = kept.wrapping_add(1 << drop);
    }
    f32::from_bits(kept)
}

/// Rounds to nearest integer and saturates into `[lo, hi]`.
fn saturate_round(v: f32, lo: f64, hi: f64) -> f32 {
    if v.is_nan() {
        return 0.0;
    }
    ((v as f64).round().clamp(lo, hi)) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_formats() {
        assert_eq!(DataType::Fp32.size_bytes(), 4);
        assert_eq!(DataType::Tf32.size_bytes(), 4);
        assert_eq!(DataType::Fp16.size_bytes(), 2);
        assert_eq!(DataType::Bf16.size_bytes(), 2);
        assert_eq!(DataType::Int8.size_bytes(), 1);
    }

    #[test]
    fn ops_multipliers_match_table1_ratios() {
        // Table I: 32 / 128 / 128 / 128 / 256 relative to FP32's 32.
        assert_eq!(DataType::Fp32.ops_multiplier(), 1.0);
        assert_eq!(DataType::Fp16.ops_multiplier(), 4.0);
        assert_eq!(DataType::Bf16.ops_multiplier(), 4.0);
        assert_eq!(DataType::Tf32.ops_multiplier(), 4.0);
        assert_eq!(DataType::Int8.ops_multiplier(), 8.0);
    }

    #[test]
    fn fp32_quantize_is_identity() {
        for v in [-1.5e20, -1.0, 0.0, 3.25, 7.7e-30] {
            assert_eq!(DataType::Fp32.quantize(v), v);
        }
    }

    #[test]
    fn bf16_drops_fine_mantissa() {
        // 1 + 2^-9 is below bf16 resolution near 1.0 (ulp = 2^-7).
        assert_eq!(DataType::Bf16.quantize(1.0 + 1.0 / 512.0), 1.0);
        // 1 + 2^-7 is exactly representable.
        assert_eq!(
            DataType::Bf16.quantize(1.0 + 1.0 / 128.0),
            1.0 + 1.0 / 128.0
        );
    }

    #[test]
    fn fp16_and_tf32_share_mantissa_resolution() {
        let v = 1.0 + 1.0 / 1024.0; // exactly a 10-bit mantissa step
        assert_eq!(DataType::Fp16.quantize(v), v);
        assert_eq!(DataType::Tf32.quantize(v), v);
        let fine = 1.0 + 1.0 / 4096.0;
        assert_eq!(DataType::Fp16.quantize(fine), 1.0);
    }

    #[test]
    fn fp16_saturates_range_tf32_does_not() {
        assert_eq!(DataType::Fp16.quantize(1.0e6), 65504.0);
        assert_eq!(DataType::Fp16.quantize(-1.0e6), -65504.0);
        assert!(DataType::Tf32.quantize(1.0e6) > 65504.0);
        assert_eq!(DataType::Fp16.quantize(f32::INFINITY), f32::INFINITY);
    }

    #[test]
    fn int8_saturating_round() {
        assert_eq!(DataType::Int8.quantize(3.4), 3.0);
        assert_eq!(DataType::Int8.quantize(3.6), 4.0);
        assert_eq!(DataType::Int8.quantize(200.0), 127.0);
        assert_eq!(DataType::Int8.quantize(-200.0), -128.0);
        assert_eq!(DataType::Int8.quantize(f32::NAN), 0.0);
    }

    #[test]
    fn int16_int32_bounds() {
        assert_eq!(DataType::Int16.quantize(40000.0), 32767.0);
        assert_eq!(DataType::Int32.quantize(-3.0e10), i32::MIN as f32);
    }

    #[test]
    fn quantize_is_idempotent_for_floats() {
        for dt in [DataType::Tf32, DataType::Fp16, DataType::Bf16] {
            for v in [0.1f32, -2.7, 123.456, 1e-8, -65000.0] {
                let q = dt.quantize(v);
                assert_eq!(dt.quantize(q), q, "{dt} not idempotent at {v}");
            }
        }
    }

    #[test]
    fn relative_epsilon_ordering() {
        let e32 = DataType::Fp32.relative_epsilon().unwrap();
        let e16 = DataType::Fp16.relative_epsilon().unwrap();
        let eb = DataType::Bf16.relative_epsilon().unwrap();
        assert!(e32 < e16 && e16 < eb);
        assert!(DataType::Int8.relative_epsilon().is_none());
    }

    #[test]
    fn quantize_error_bounded_by_epsilon() {
        for dt in [DataType::Tf32, DataType::Fp16, DataType::Bf16] {
            let eps = dt.relative_epsilon().unwrap();
            for i in 1..1000 {
                let v = i as f32 * 0.37;
                let q = dt.quantize(v);
                let rel = ((q - v).abs() / v.abs()) as f64;
                assert!(rel <= eps * 1.0001, "{dt}: rel err {rel} > {eps} at {v}");
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(DataType::Bf16.to_string(), "BF16");
        assert_eq!(DataType::Int8.to_string(), "INT8");
    }
}
