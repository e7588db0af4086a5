use std::fmt;

use crate::FormatError;

/// A signed fixed-point format `Q(1, int, frac)`: one sign bit, `int` integer
/// bits and `frac` fractional bits, stored in two's complement.
///
/// The total word width is `1 + int + frac` bits and must be between 2 and 32.
/// Values span `[-2^int, 2^int - 2^-frac]` with a resolution of `2^-frac`.
///
/// The paper evaluates three 16-bit formats for the drone policy network
/// (Fig. 7e) — [`QFormat::Q4_11`], [`QFormat::Q7_8`], [`QFormat::Q10_5`] — and
/// an 8-bit format for Grid World policies, which we model as
/// [`QFormat::Q3_4`] (range `[-8, 7.9375]`, matching the value histograms in
/// Fig. 2b/2d).
///
/// # Examples
///
/// ```
/// use navft_qformat::QFormat;
///
/// let fmt = QFormat::Q4_11;
/// assert_eq!(fmt.total_bits(), 16);
/// assert_eq!(fmt.max_value(), 16.0 - fmt.resolution());
/// assert_eq!(fmt.min_value(), -16.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    int_bits: u8,
    frac_bits: u8,
}

impl QFormat {
    /// The 16-bit `Q(1,4,11)` format: range `[-16, 16)`, resolution `2^-11`.
    ///
    /// The narrowest of the three drone-policy formats in Fig. 7e and the most
    /// fault-resilient one because its integer bits only cover the range the
    /// trained weights actually use.
    pub const Q4_11: QFormat = QFormat { int_bits: 4, frac_bits: 11 };

    /// The 16-bit `Q(1,7,8)` format: range `[-128, 128)`, resolution `2^-8`.
    pub const Q7_8: QFormat = QFormat { int_bits: 7, frac_bits: 8 };

    /// The 16-bit `Q(1,10,5)` format: range `[-1024, 1024)`, resolution `2^-5`.
    ///
    /// The widest-range format in Fig. 7e; a flipped MSB produces the largest
    /// deviation, which is why it is the least resilient.
    pub const Q10_5: QFormat = QFormat { int_bits: 10, frac_bits: 5 };

    /// The 8-bit `Q(1,3,4)` format: range `[-8, 8)`, resolution `2^-4`.
    ///
    /// Used for the 8-bit quantized Grid World policies (tabular values and
    /// MLP weights); its range matches the value histograms of Fig. 2b/2d
    /// (tabular minimum −8, maximum 7.625).
    pub const Q3_4: QFormat = QFormat { int_bits: 3, frac_bits: 4 };

    /// The 8-bit `Q(1,2,5)` format: range `[-4, 4)`, resolution `2^-5`.
    ///
    /// An extra-narrow format used by the data-type ablation extension.
    pub const Q2_5: QFormat = QFormat { int_bits: 2, frac_bits: 5 };

    /// The 16-bit `Q(1,2,13)` format used by the extended data-type ablation.
    pub const Q2_13: QFormat = QFormat { int_bits: 2, frac_bits: 13 };

    /// Creates a format with `int_bits` integer bits and `frac_bits`
    /// fractional bits (plus the implicit sign bit).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidFormat`] if the total width
    /// `1 + int_bits + frac_bits` is larger than 32 bits or smaller than 2.
    ///
    /// # Examples
    ///
    /// ```
    /// use navft_qformat::QFormat;
    /// # fn main() -> Result<(), navft_qformat::FormatError> {
    /// let fmt = QFormat::new(7, 8)?;
    /// assert_eq!(fmt, QFormat::Q7_8);
    /// assert!(QFormat::new(40, 0).is_err());
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(int_bits: u8, frac_bits: u8) -> Result<QFormat, FormatError> {
        let total = 1u16 + u16::from(int_bits) + u16::from(frac_bits);
        if !(2..=32).contains(&total) {
            return Err(FormatError::InvalidFormat { int_bits, frac_bits });
        }
        Ok(QFormat { int_bits, frac_bits })
    }

    /// Number of integer bits (excluding the sign bit).
    #[inline]
    pub fn int_bits(&self) -> u8 {
        self.int_bits
    }

    /// Number of fractional bits.
    #[inline]
    pub fn frac_bits(&self) -> u8 {
        self.frac_bits
    }

    /// Total word width in bits, including the sign bit.
    #[inline]
    pub fn total_bits(&self) -> u8 {
        1 + self.int_bits + self.frac_bits
    }

    /// The smallest positive increment representable in this format,
    /// `2^-frac_bits`.
    #[inline]
    pub fn resolution(&self) -> f32 {
        (2.0f32).powi(-i32::from(self.frac_bits))
    }

    /// The largest representable value, `2^int_bits - 2^-frac_bits`.
    #[inline]
    pub fn max_value(&self) -> f32 {
        (2.0f32).powi(i32::from(self.int_bits)) - self.resolution()
    }

    /// The smallest (most negative) representable value, `-2^int_bits`.
    #[inline]
    pub fn min_value(&self) -> f32 {
        -(2.0f32).powi(i32::from(self.int_bits))
    }

    /// The raw two's-complement integer corresponding to [`max_value`].
    ///
    /// [`max_value`]: QFormat::max_value
    #[inline]
    pub fn max_raw(&self) -> i32 {
        // Unsigned arithmetic: at the full 32-bit width `1 << 31` has no
        // signed representation, but `(1u32 << 31) - 1` is `i32::MAX`.
        ((1u32 << (self.total_bits() - 1)) - 1) as i32
    }

    /// The raw two's-complement integer corresponding to [`min_value`].
    ///
    /// [`min_value`]: QFormat::min_value
    #[inline]
    pub fn min_raw(&self) -> i32 {
        // `-(1 << (total - 1))` overflows at the full 32-bit width; the
        // two's-complement identity below is total for every valid format.
        -self.max_raw() - 1
    }

    /// Index of the sign bit (the most significant bit of the word).
    #[inline]
    pub fn sign_bit(&self) -> u8 {
        self.total_bits() - 1
    }

    /// Saturates a widened value at the format's raw scale (`2^-frac_bits`)
    /// to the representable raw range.
    #[inline]
    pub fn saturate_raw(&self, raw: i64) -> i32 {
        raw.clamp(i64::from(self.min_raw()), i64::from(self.max_raw())) as i32
    }

    /// Requantizes a widened product accumulator back into this format.
    ///
    /// The product of two raw words in this format carries `2 × frac_bits`
    /// fractional bits; native fixed-point kernels sum such products (plus a
    /// bias shifted up by `frac_bits`) in a widened accumulator and call this
    /// once per output element. Rounding is to nearest with ties away from
    /// zero — the same rule `f32::round` applies inside
    /// [`QValue::quantize`](crate::QValue::quantize) — and the result
    /// saturates at the representable raw range, so the native path agrees
    /// with the float-simulated path wherever the latter is exact.
    ///
    /// The implementation is a single branchless arithmetic-shift chain (the
    /// scalar form of the SIMD epilogue in `navft-nn`): round-half-away
    /// `(acc + half) >> frac` needs its bias reduced by one for negative
    /// accumulators because `2^frac - half == half`, so the sign-dependent
    /// adjust is computed with a mask instead of a branch. The add saturates,
    /// which pins accumulators within `half` of `i64::MAX` at the raw maximum
    /// instead of wrapping (the historical branchy formulation overflowed
    /// there in release builds).
    ///
    /// # Examples
    ///
    /// ```
    /// use navft_qformat::QFormat;
    ///
    /// let fmt = QFormat::Q3_4;
    /// // 1.5 * 2.0 == 3.0: raw 24 * raw 32 = 768 at scale 2^-8 -> raw 48.
    /// assert_eq!(fmt.requantize_product_sum(768), 48);
    /// // Half-way values round away from zero, matching `f32::round`.
    /// assert_eq!(fmt.requantize_product_sum(8), 1);
    /// assert_eq!(fmt.requantize_product_sum(-8), -1);
    /// ```
    #[inline]
    pub fn requantize_product_sum(&self, acc: i64) -> i32 {
        let frac = u32::from(self.frac_bits);
        // `(1 << frac) >> 1` is `half` for frac > 0 and 0 for frac == 0, so
        // the frac == 0 identity case needs no branch.
        let half = (1i64 << frac) >> 1;
        // Negative accumulators need bias `half - 1`:
        //   floor((acc + half - 1) / 2^frac) == -floor((-acc + half) / 2^frac)
        // because `2^frac - half == half`. `acc >> 63` is the all-ones mask
        // for negatives; the `half != 0` factor keeps frac == 0 exact.
        let adjust = half + ((acc >> 63) & -i64::from(half != 0));
        // `adjust >= 0`, so only positive overflow is possible; saturating
        // pins it at i64::MAX, which the final clamp maps to `max_raw`.
        let rounded = acc.saturating_add(adjust) >> frac;
        self.saturate_raw(rounded)
    }
}

impl Default for QFormat {
    /// Defaults to the 8-bit [`QFormat::Q3_4`] format used by the Grid World
    /// experiments.
    fn default() -> Self {
        QFormat::Q3_4
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q(1,{},{})", self.int_bits, self.frac_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_widths() {
        assert_eq!(QFormat::Q4_11.total_bits(), 16);
        assert_eq!(QFormat::Q7_8.total_bits(), 16);
        assert_eq!(QFormat::Q10_5.total_bits(), 16);
        assert_eq!(QFormat::Q3_4.total_bits(), 8);
        assert_eq!(QFormat::Q2_13.total_bits(), 16);
    }

    #[test]
    fn ranges_match_definition() {
        let f = QFormat::Q3_4;
        assert_eq!(f.min_value(), -8.0);
        assert_eq!(f.max_value(), 8.0 - 0.0625);
        assert_eq!(f.resolution(), 0.0625);
        assert_eq!(f.max_raw(), 127);
        assert_eq!(f.min_raw(), -128);
    }

    #[test]
    fn new_rejects_oversized_formats() {
        assert!(QFormat::new(20, 20).is_err());
        assert!(QFormat::new(31, 1).is_err());
        assert!(QFormat::new(0, 0).is_err());
        assert!(QFormat::new(31, 0).is_ok());
        assert!(QFormat::new(0, 1).is_ok());
    }

    #[test]
    fn sign_and_integer_mask_covers_top_bits() {
        let f = QFormat::Q3_4; // 8 bits: sssi iiff -> 1 sign + 3 int + 4 frac
        assert_eq!(f.sign_bit(), 7);
    }

    #[test]
    fn requantize_product_sum_rounds_and_saturates() {
        let f = QFormat::Q3_4;
        // raw(1.25) * raw(2.0) = 20 * 32 = 640 at 2^-8 -> raw 40 (2.5).
        assert_eq!(f.requantize_product_sum(640), 40);
        // Ties round away from zero in both directions.
        assert_eq!(f.requantize_product_sum(24), 2);
        assert_eq!(f.requantize_product_sum(-24), -2);
        // Overflowing sums pin at the raw extremes instead of wrapping.
        assert_eq!(f.requantize_product_sum(1 << 30), f.max_raw());
        assert_eq!(f.requantize_product_sum(-(1 << 30)), f.min_raw());
        // frac_bits == 0: the accumulator is already at the raw scale.
        let ints = QFormat::new(6, 0).expect("valid format");
        assert_eq!(ints.requantize_product_sum(5), 5);
    }

    /// The historical branchy requantize, kept verbatim as the reference the
    /// branchless rewrite is pinned against. Only valid on the non-overflow
    /// domain `i64::MIN + half < acc <= i64::MAX - half` (outside it the old
    /// formulation wrapped in release builds; the rewrite saturates instead).
    fn requantize_branchy_reference(format: QFormat, acc: i64) -> i32 {
        let frac = u32::from(format.frac_bits());
        let rounded = if frac == 0 {
            acc
        } else {
            let half = 1i64 << (frac - 1);
            if acc >= 0 {
                (acc + half) >> frac
            } else {
                -((-acc + half) >> frac)
            }
        };
        format.saturate_raw(rounded)
    }

    fn equivalence_formats() -> Vec<QFormat> {
        vec![
            QFormat::Q4_11,
            QFormat::Q7_8,
            QFormat::Q10_5,
            QFormat::Q3_4,
            QFormat::Q2_5,
            QFormat::Q2_13,
            QFormat::new(6, 0).expect("valid format"),
            QFormat::new(31, 0).expect("valid format"),
            QFormat::new(0, 1).expect("valid format"),
            QFormat::new(0, 31).expect("valid format"),
            QFormat::new(15, 16).expect("valid format"),
        ]
    }

    #[test]
    fn branchless_requantize_matches_branchy_reference_near_edges() {
        for format in equivalence_formats() {
            let half = (1i64 << u32::from(format.frac_bits())) >> 1;
            let lo = i64::MIN + half + 1; // smallest acc the old version handled
            let hi = i64::MAX - half; // largest acc the old version handled
            let mut probes: Vec<i64> = Vec::new();
            for offset in 0..512 {
                probes.push(lo + offset);
                probes.push(hi - offset);
                probes.push(offset - 256);
            }
            // Rounding boundaries around every multiple of 2^frac near zero.
            for k in -64i64..=64 {
                let base = k << u32::from(format.frac_bits());
                probes.extend([base - 1, base, base + 1, base + half, base - half]);
            }
            for acc in probes {
                if acc < lo || acc > hi {
                    continue;
                }
                assert_eq!(
                    format.requantize_product_sum(acc),
                    requantize_branchy_reference(format, acc),
                    "format {format} acc {acc}"
                );
            }
        }
    }

    #[test]
    fn branchless_requantize_saturates_at_the_i64_extremes() {
        // Outside the old version's domain the rewrite must still be total:
        // the magnitude is astronomically out of range either way, so the
        // only correct answer is the raw extreme.
        for format in equivalence_formats() {
            assert_eq!(format.requantize_product_sum(i64::MIN), format.min_raw(), "{format} MIN");
            assert_eq!(format.requantize_product_sum(i64::MAX), format.max_raw(), "{format} MAX");
            let half = (1i64 << u32::from(format.frac_bits())) >> 1;
            // The saturating-add window the old formulation wrapped in:
            // the `half` accumulators just below `i64::MAX`.
            for delta in 0..half.min(4) {
                assert_eq!(
                    format.requantize_product_sum(i64::MAX - half + 1 + delta),
                    format.max_raw(),
                    "{format} MAX - half + 1 + {delta}"
                );
            }
            for delta in 0..4 {
                assert_eq!(
                    format.requantize_product_sum(i64::MIN + delta),
                    format.min_raw(),
                    "{format} MIN + {delta}"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn branchless_requantize_equals_branchy_reference(
            acc_seed in 0u64..u64::MAX,
            format_index in 0usize..11,
            near_zero in -4096i64..=4096,
        ) {
            use proptest::rand::{RngCore, SeedableRng};
            let formats = equivalence_formats();
            let format = formats[format_index];
            let half = (1i64 << u32::from(format.frac_bits())) >> 1;
            // Full-width accumulators (any bit pattern) plus small magnitudes
            // that exercise the rounding boundaries densely.
            let mut bits = proptest::rand::rngs::SmallRng::seed_from_u64(acc_seed);
            let wide = bits.next_u64() as i64;
            let shifted = wide >> (bits.next_u64() % 64);
            for probe in [wide, shifted, near_zero] {
                if probe > i64::MIN + half && probe <= i64::MAX - half {
                    proptest::prop_assert_eq!(
                        format.requantize_product_sum(probe),
                        requantize_branchy_reference(format, probe)
                    );
                }
            }
        }
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(QFormat::Q4_11.to_string(), "Q(1,4,11)");
        assert_eq!(QFormat::Q10_5.to_string(), "Q(1,10,5)");
    }

    #[test]
    fn default_is_grid_world_format() {
        assert_eq!(QFormat::default(), QFormat::Q3_4);
    }
}
