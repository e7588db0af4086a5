use std::cmp::Ordering;
use std::fmt;

use crate::{FormatError, QFormat};

/// A single quantized fixed-point word in a given [`QFormat`].
///
/// The value is stored as the raw two's-complement bit pattern (only the low
/// `total_bits` bits are meaningful), which makes bit-exact fault injection —
/// stuck-at-0, stuck-at-1 and bit flips — trivial and lossless.
///
/// # Examples
///
/// ```
/// use navft_qformat::{QFormat, QValue};
///
/// let v = QValue::quantize(-2.5, QFormat::Q3_4);
/// assert_eq!(v.to_f32(), -2.5);
/// assert_eq!(v.raw(), -40); // -2.5 / 2^-4
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct QValue {
    bits: u32,
    format: QFormat,
}

impl QValue {
    /// Quantizes an `f32` into this format, rounding to nearest and saturating
    /// at the format's representable range.
    ///
    /// Non-finite inputs saturate: `+inf`/`NaN` map to the maximum value and
    /// `-inf` to the minimum value.
    ///
    /// # Examples
    ///
    /// ```
    /// use navft_qformat::{QFormat, QValue};
    ///
    /// let v = QValue::quantize(100.0, QFormat::Q3_4);
    /// assert_eq!(v.to_f32(), QFormat::Q3_4.max_value());
    /// ```
    #[inline]
    pub fn quantize(value: f32, format: QFormat) -> QValue {
        // `2^frac_bits` built from its exponent bits: exact, like the
        // repeated-squaring `powi` it replaces, with no libm call per value.
        let scale = f32::from_bits((127 + u32::from(format.frac_bits())) << 23);
        let (lo, hi) = (format.min_raw() as f32, format.max_raw() as f32);
        // Clamp before rounding: rounding is monotone and fixes the integral
        // bounds, so `round(clamp(x)) == clamp(round(x))`. `f32::min`
        // returns the non-NaN operand, which sends NaN to `hi` (the maximum)
        // and the infinities to the matching bound.
        let clamped = (value * scale).min(hi).max(lo);
        QValue::from_raw(round_half_away(clamped), format)
    }

    /// Builds a value from a raw two's-complement integer in `format`.
    ///
    /// The raw value is clamped to the representable raw range.
    #[inline]
    pub fn from_raw(raw: i32, format: QFormat) -> QValue {
        let raw = raw.clamp(format.min_raw(), format.max_raw());
        QValue { bits: (raw as u32) & format_mask(format), format }
    }

    /// Builds a value directly from a bit pattern (the low
    /// [`total_bits`](QFormat::total_bits) bits of `bits`).
    ///
    /// Unlike [`QValue::from_raw`] no clamping is performed: any bit pattern is
    /// a legal word, which is precisely what fault injection needs.
    pub fn from_bits(bits: u32, format: QFormat) -> QValue {
        QValue { bits: bits & format_mask(format), format }
    }

    /// The format this word is encoded in.
    #[inline]
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// The raw bit pattern (low [`total_bits`](QFormat::total_bits) bits).
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The raw two's-complement integer value (sign-extended).
    #[inline]
    pub fn raw(&self) -> i32 {
        let total = u32::from(self.format.total_bits());
        let shift = 32 - total;
        ((self.bits << shift) as i32) >> shift
    }

    /// Dequantizes to `f32` (exact: every representable word maps to a unique
    /// `f32` for formats up to 24 value bits).
    #[inline]
    pub fn to_f32(&self) -> f32 {
        self.raw() as f32 * self.format.resolution()
    }

    /// Returns the value of bit `index` (0 = least-significant bit).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::BitIndexOutOfRange`] if `index` is not below the
    /// word width.
    pub fn bit(&self, index: u8) -> Result<bool, FormatError> {
        self.check_index(index)?;
        Ok((self.bits >> index) & 1 == 1)
    }

    /// Returns a copy with bit `index` flipped (a transient single-event
    /// upset).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::BitIndexOutOfRange`] if `index` is not below the
    /// word width.
    pub fn with_flipped_bit(&self, index: u8) -> Result<QValue, FormatError> {
        self.check_index(index)?;
        Ok(QValue { bits: self.bits ^ (1 << index), format: self.format })
    }

    /// Returns a copy with bit `index` forced to `value` (a stuck-at fault).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::BitIndexOutOfRange`] if `index` is not below the
    /// word width.
    pub fn with_stuck_bit(&self, index: u8, value: bool) -> Result<QValue, FormatError> {
        self.check_index(index)?;
        let bits = if value { self.bits | (1 << index) } else { self.bits & !(1 << index) };
        Ok(QValue { bits, format: self.format })
    }

    /// Saturating addition of two words in the same format.
    ///
    /// # Panics
    ///
    /// Panics if the two operands use different formats.
    pub fn saturating_add(&self, other: &QValue) -> QValue {
        assert_eq!(self.format, other.format, "operands must share a format");
        QValue::from_raw(self.raw().saturating_add(other.raw()), self.format)
    }

    /// Saturating subtraction of two words in the same format.
    ///
    /// # Panics
    ///
    /// Panics if the two operands use different formats.
    pub fn saturating_sub(&self, other: &QValue) -> QValue {
        assert_eq!(self.format, other.format, "operands must share a format");
        QValue::from_raw(self.raw().saturating_sub(other.raw()), self.format)
    }

    /// Number of `1` bits in the word.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.bits.count_ones()
    }

    /// Number of `0` bits in the word (within the format's width).
    #[inline]
    pub fn count_zeros(&self) -> u32 {
        u32::from(self.format.total_bits()) - self.count_ones()
    }

    fn check_index(&self, index: u8) -> Result<(), FormatError> {
        if index >= self.format.total_bits() {
            Err(FormatError::BitIndexOutOfRange { index, total_bits: self.format.total_bits() })
        } else {
            Ok(())
        }
    }
}

/// `x.round() as i32` (ties away from zero) without the libm call, for any
/// `x` within `[-2^31, 2^31]`: truncate, then step one unit away from zero
/// when the exact fraction reaches one half. `x - trunc(x)` is exact in
/// IEEE arithmetic, and every `|x| >= 2^23` is already integral, so the
/// fraction is then zero. `2^31` itself truncates (saturating) to
/// `i32::MAX`, which every caller clamps to its raw range anyway. NaN
/// maps to `0` (the saturating cast's NaN rule).
#[inline]
pub fn round_half_away(x: f32) -> i32 {
    let t = x as i32;
    let frac = x - t as f32;
    t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)
}

#[inline]
fn format_mask(format: QFormat) -> u32 {
    let total = u32::from(format.total_bits());
    if total == 32 {
        u32::MAX
    } else {
        (1u32 << total) - 1
    }
}

impl fmt::Debug for QValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QValue {{ {} = {:#0width$b} in {} }}",
            self.to_f32(),
            self.bits,
            self.format,
            width = usize::from(self.format.total_bits()) + 2
        )
    }
}

impl fmt::Display for QValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl PartialOrd for QValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        if self.format == other.format {
            Some(self.raw().cmp(&other.raw()))
        } else {
            self.to_f32().partial_cmp(&other.to_f32())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_roundtrips_representable_values() {
        let fmt = QFormat::Q3_4;
        for raw in fmt.min_raw()..=fmt.max_raw() {
            let v = QValue::from_raw(raw, fmt);
            let back = QValue::quantize(v.to_f32(), fmt);
            assert_eq!(back.raw(), raw);
        }
    }

    #[test]
    fn quantize_saturates() {
        let fmt = QFormat::Q3_4;
        assert_eq!(QValue::quantize(100.0, fmt).to_f32(), fmt.max_value());
        assert_eq!(QValue::quantize(-100.0, fmt).to_f32(), fmt.min_value());
        assert_eq!(QValue::quantize(f32::INFINITY, fmt).to_f32(), fmt.max_value());
        assert_eq!(QValue::quantize(f32::NEG_INFINITY, fmt).to_f32(), fmt.min_value());
        assert_eq!(QValue::quantize(f32::NAN, fmt).to_f32(), fmt.max_value());
    }

    #[test]
    fn negative_values_are_twos_complement() {
        let v = QValue::quantize(-1.0, QFormat::Q3_4);
        assert_eq!(v.raw(), -16);
        assert_eq!(v.bits(), 0b1111_0000);
        assert_eq!(v.to_f32(), -1.0);
    }

    #[test]
    fn flipping_the_sign_bit_creates_an_outlier() {
        let fmt = QFormat::Q4_11;
        let v = QValue::quantize(0.25, fmt);
        let corrupted = v.with_flipped_bit(fmt.sign_bit()).expect("valid bit");
        assert!(corrupted.to_f32() < fmt.min_value() / 2.0);
    }

    #[test]
    fn flipping_a_fraction_bit_is_a_small_perturbation() {
        let fmt = QFormat::Q4_11;
        let v = QValue::quantize(0.25, fmt);
        let corrupted = v.with_flipped_bit(0).expect("valid bit");
        assert!((corrupted.to_f32() - v.to_f32()).abs() <= fmt.resolution());
    }

    #[test]
    fn stuck_bits_are_idempotent() {
        let fmt = QFormat::Q3_4;
        let v = QValue::quantize(3.0, fmt);
        let s1 = v.with_stuck_bit(6, true).expect("valid");
        let s2 = s1.with_stuck_bit(6, true).expect("valid");
        assert_eq!(s1, s2);
        let z1 = v.with_stuck_bit(6, false).expect("valid");
        let z2 = z1.with_stuck_bit(6, false).expect("valid");
        assert_eq!(z1, z2);
    }

    #[test]
    fn bit_index_out_of_range_is_an_error() {
        let v = QValue::quantize(0.0, QFormat::Q3_4);
        assert!(matches!(v.bit(8), Err(FormatError::BitIndexOutOfRange { .. })));
        assert!(v.with_flipped_bit(8).is_err());
        assert!(v.with_stuck_bit(100, true).is_err());
    }

    #[test]
    fn saturating_arithmetic() {
        let fmt = QFormat::Q3_4;
        let a = QValue::quantize(6.0, fmt);
        let b = QValue::quantize(5.0, fmt);
        assert_eq!(a.saturating_add(&b).to_f32(), fmt.max_value());
        let c = QValue::quantize(-7.0, fmt);
        assert_eq!(c.saturating_add(&c).to_f32(), fmt.min_value());
        assert_eq!(a.saturating_sub(&c).to_f32(), fmt.max_value());
    }

    #[test]
    fn ordering_within_a_format_matches_value_ordering() {
        let fmt = QFormat::Q3_4;
        let a = QValue::quantize(-2.0, fmt);
        let b = QValue::quantize(3.5, fmt);
        assert!(a < b);
    }

    #[test]
    fn count_ones_and_zeros_cover_the_word() {
        let fmt = QFormat::Q3_4;
        let v = QValue::quantize(-1.0, fmt); // 0b1111_0000
        assert_eq!(v.count_ones(), 4);
        assert_eq!(v.count_zeros(), 4);
    }

    #[test]
    fn debug_is_nonempty() {
        let v = QValue::quantize(1.0, QFormat::Q3_4);
        assert!(!format!("{v:?}").is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_format() -> impl Strategy<Value = QFormat> {
        (0u8..=15, 0u8..=15)
            .prop_filter("at least one value bit", |(i, f)| i + f >= 1)
            .prop_map(|(i, f)| QFormat::new(i, f).expect("valid format"))
    }

    /// Formats whose full precision survives a round-trip through `f32`
    /// arithmetic: `quantize` scales by `2^frac_bits` in `f32`, so formats
    /// wider than the 24-bit mantissa would see representation error larger
    /// than their own resolution.
    fn arb_narrow_format() -> impl Strategy<Value = QFormat> {
        (0u8..=10, 0u8..=12)
            .prop_filter("at least one value bit", |(i, f)| i + f >= 1)
            .prop_map(|(i, f)| QFormat::new(i, f).expect("valid format"))
    }

    /// The `powi` + libm `round()` + round-then-compare formula
    /// [`QValue::quantize`] used before its scale was hoisted and its
    /// rounding made libm-free: the oracle the rewrite is pinned to.
    fn quantize_reference(value: f32, format: QFormat) -> QValue {
        let scaled = value * (2.0f32).powi(i32::from(format.frac_bits()));
        let raw = if scaled.is_nan() {
            format.max_raw()
        } else {
            let rounded = scaled.round();
            if rounded >= format.max_raw() as f32 {
                format.max_raw()
            } else if rounded <= format.min_raw() as f32 {
                format.min_raw()
            } else {
                rounded as i32
            }
        };
        QValue::from_raw(raw, format)
    }

    /// Every preset plus the width extremes (1 and 32 bits, all-integer
    /// and all-fraction) where `max_raw` is not representable in `f32`.
    fn quantize_formats() -> Vec<QFormat> {
        vec![
            QFormat::Q4_11,
            QFormat::Q7_8,
            QFormat::Q10_5,
            QFormat::Q3_4,
            QFormat::Q2_5,
            QFormat::Q2_13,
            QFormat::new(0, 1).expect("valid format"),
            QFormat::new(6, 0).expect("valid format"),
            QFormat::new(20, 6).expect("valid format"),
            QFormat::new(31, 0).expect("valid format"),
            QFormat::new(0, 31).expect("valid format"),
            QFormat::new(15, 16).expect("valid format"),
        ]
    }

    /// Probes around one raw step `raw` of `format`: the step itself, the
    /// exact `.5` ties on both sides and their `f32` neighbours.
    fn tie_probes(raw: f32, format: QFormat) -> Vec<f32> {
        let res = format.resolution();
        let mut probes = Vec::new();
        for scaled in [raw, raw - 0.5, raw + 0.5] {
            let v = scaled * res;
            probes.extend([
                v,
                -v,
                f32::from_bits(v.to_bits().wrapping_add(1)),
                f32::from_bits(v.to_bits().wrapping_sub(1)),
            ]);
        }
        probes
    }

    #[test]
    fn quantize_matches_the_reference_on_edge_values() {
        let specials = [
            0.0f32,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            0.5,
            -0.5,
            0.499_999_97,
            -0.499_999_97,
        ];
        for format in quantize_formats() {
            let mut probes = specials.to_vec();
            for raw in [format.max_raw() as f32, format.min_raw() as f32, 1.0, 2.0, 3.0, 1e6] {
                probes.extend(tie_probes(raw, format));
            }
            for value in probes {
                assert_eq!(
                    QValue::quantize(value, format),
                    quantize_reference(value, format),
                    "{format} {value:e} ({:#010x})",
                    value.to_bits()
                );
            }
        }
    }

    proptest! {
        #[test]
        fn quantize_matches_the_reference_formula(
            bits in 0u32..=u32::MAX,
            tie in -70_000i32..=70_000,
            index in 0usize..12,
        ) {
            let format = quantize_formats()[index];
            // Any bit pattern (NaNs, infinities, subnormals, huge values),
            // the same pattern squeezed into the subnormal range, a value of
            // unit magnitude, and exact `.5` ties around `tie` raw steps.
            let any = f32::from_bits(bits);
            let subnormal = f32::from_bits(bits & 0x807f_ffff);
            let unit = f32::from_bits((bits & 0x807f_ffff) | 0x3f00_0000);
            let mut probes = vec![any, subnormal, unit];
            probes.extend(tie_probes(tie as f32, format));
            for value in probes {
                prop_assert_eq!(
                    QValue::quantize(value, format),
                    quantize_reference(value, format),
                    "{} {:e}",
                    format,
                    value
                );
            }
        }

        #[test]
        fn quantize_never_exceeds_range(value in -2000.0f32..2000.0, fmt in arb_format()) {
            let q = QValue::quantize(value, fmt);
            prop_assert!(q.to_f32() <= fmt.max_value());
            prop_assert!(q.to_f32() >= fmt.min_value());
        }

        #[test]
        fn quantization_error_is_bounded_by_half_resolution(
            value in -7.9f32..7.9, ) {
            let fmt = QFormat::Q3_4;
            let q = QValue::quantize(value, fmt);
            prop_assert!((q.to_f32() - value).abs() <= fmt.resolution() / 2.0 + f32::EPSILON);
        }

        #[test]
        fn double_flip_is_identity(raw in -128i32..=127, bit in 0u8..8) {
            let fmt = QFormat::Q3_4;
            let v = QValue::from_raw(raw, fmt);
            let twice = v
                .with_flipped_bit(bit).expect("valid")
                .with_flipped_bit(bit).expect("valid");
            prop_assert_eq!(v, twice);
        }

        #[test]
        fn quantize_dequantize_roundtrip_error_is_bounded(
            value in -4000.0f32..4000.0,
            fmt in arb_narrow_format(),
        ) {
            // Quantize → dequantize must land within one quantization step
            // (2^-frac_bits) of the nearest representable value, i.e. of the
            // input clamped to the format's range.
            let clamped = value.clamp(fmt.min_value(), fmt.max_value());
            let roundtrip = QValue::quantize(value, fmt).to_f32();
            let step = fmt.resolution(); // == 2^-frac_bits
            prop_assert!(
                (roundtrip - clamped).abs() <= step,
                "format Q{}.{}: {} round-tripped to {} (step {})",
                fmt.int_bits(), fmt.frac_bits(), value, roundtrip, step
            );
        }

        #[test]
        fn quantize_saturates_at_format_extremes(
            beyond in 0.0f32..1e6,
            fmt in arb_format(),
        ) {
            // Anything at or past the representable range must pin to the
            // extreme raw codes rather than wrapping.
            let hi = QValue::quantize(fmt.max_value() + beyond, fmt);
            prop_assert_eq!(hi.raw(), fmt.max_raw());
            let lo = QValue::quantize(fmt.min_value() - beyond, fmt);
            prop_assert_eq!(lo.raw(), fmt.min_raw());
        }

        #[test]
        fn from_bits_roundtrips_raw(raw in -128i32..=127) {
            let fmt = QFormat::Q3_4;
            let v = QValue::from_raw(raw, fmt);
            let w = QValue::from_bits(v.bits(), fmt);
            prop_assert_eq!(v.raw(), w.raw());
        }
    }
}
