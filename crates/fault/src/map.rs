use rand::seq::index::sample;
use rand::Rng;

use navft_qformat::{QFormat, QValue};

use crate::FaultKind;

/// A storage word the fault layer can corrupt in place: the glue between a
/// buffer's element type and the bit-level fault mechanisms.
///
/// Three representations ship:
///
/// * **`f32`** — a buffer that *models* Q-format storage: each fault
///   quantizes the value into the format, perturbs the stored word and
///   dequantizes the result back.
/// * **`i32`** — a buffer that *natively holds* raw two's-complement
///   Q-format words: each fault is a single integer operation on the live
///   word, with no round trip.
/// * **`i8`** — a buffer of live affine bytes (the `i8` inference backend):
///   each fault is a direct bit operation on the stored byte. The format's
///   numeric interpretation is irrelevant to an affine byte, so only its
///   role as a bit-width bound applies (bits ≥ 8 never land).
///
/// Every corrupt/enforce entry point of [`FaultMap`] and
/// [`crate::Injector`] is generic over this trait, so a new storage
/// representation (for a new inference backend) plugs into the whole fault
/// layer with one `impl`.
pub trait StoredWord: Copy {
    /// Applies one bit fault to this word, interpreting it in `format`.
    /// Returns the corrupted word, or `None` if the fault does not apply
    /// (e.g. a bit index outside the format's width).
    fn apply_fault(self, fault: &BitFault, format: QFormat) -> Option<Self>;
}

impl StoredWord for f32 {
    fn apply_fault(self, fault: &BitFault, format: QFormat) -> Option<f32> {
        let word = QValue::quantize(self, format);
        fault.kind.apply(word, fault.bit).ok().map(|corrupted| corrupted.to_f32())
    }
}

impl StoredWord for i32 {
    fn apply_fault(self, fault: &BitFault, format: QFormat) -> Option<i32> {
        fault.kind.apply(QValue::from_raw(self, format), fault.bit).ok().map(|c| c.raw())
    }
}

impl StoredWord for i8 {
    fn apply_fault(self, fault: &BitFault, _format: QFormat) -> Option<i8> {
        // Affine bytes have no binary point: the fault mechanisms act on the
        // raw byte directly, and the format only matters for sampling bit
        // positions (use an 8-bit format there).
        if fault.bit >= 8 {
            return None;
        }
        let mask = 1u8 << fault.bit;
        let byte = self as u8;
        let corrupted = match fault.kind {
            FaultKind::BitFlip => byte ^ mask,
            FaultKind::StuckAt0 => byte & !mask,
            FaultKind::StuckAt1 => byte | mask,
        };
        Some(corrupted as i8)
    }
}

/// A single bit-level fault: which word, which bit, which mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitFault {
    /// Index of the affected word within the buffer.
    pub word: usize,
    /// Index of the affected bit within the word (0 = LSB).
    pub bit: u8,
    /// The fault mechanism.
    pub kind: FaultKind,
}

/// A concrete set of bit faults over a buffer of quantized words.
///
/// A fault map is sampled once from a bit error rate (the fraction of bits in
/// the buffer that are faulty) and can then be applied to the buffer —
/// transiently (bit flips, applied once) or persistently (stuck-at faults,
/// re-enforced on every access via [`FaultMap::enforce`]).
///
/// # Examples
///
/// ```
/// use navft_fault::{FaultKind, FaultMap};
/// use navft_qformat::QFormat;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(42);
/// let map = FaultMap::sample(100, QFormat::Q3_4, 0.01, FaultKind::StuckAt1, &mut rng);
/// assert_eq!(map.len(), 8); // 1% of 100 words x 8 bits
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultMap {
    faults: Vec<BitFault>,
}

impl FaultMap {
    /// Creates an empty fault map (a fault-free run).
    pub fn new() -> FaultMap {
        FaultMap::default()
    }

    /// Creates a fault map from an explicit list of faults.
    pub fn from_faults(faults: Vec<BitFault>) -> FaultMap {
        FaultMap { faults }
    }

    /// Samples a fault map over a buffer of `num_words` words in `format`.
    ///
    /// The number of faulty bits is `round(ber * num_words * total_bits)`,
    /// drawn uniformly without replacement over all (word, bit) positions —
    /// the standard BER-parameterized fault model of the paper.
    pub fn sample<R: Rng + ?Sized>(
        num_words: usize,
        format: QFormat,
        ber: f64,
        kind: FaultKind,
        rng: &mut R,
    ) -> FaultMap {
        let word_bits = usize::from(format.total_bits());
        let total_bits = num_words * word_bits;
        if total_bits == 0 {
            return FaultMap::new();
        }
        let count = ((ber * total_bits as f64).round() as usize).min(total_bits);
        let faults = sample(rng, total_bits, count)
            .into_iter()
            .map(|flat| BitFault { word: flat / word_bits, bit: (flat % word_bits) as u8, kind })
            .collect();
        FaultMap { faults }
    }

    /// Samples exactly `count` faults over the buffer (used when the paper
    /// reports an absolute number of faults rather than a rate).
    pub fn sample_count<R: Rng + ?Sized>(
        num_words: usize,
        format: QFormat,
        count: usize,
        kind: FaultKind,
        rng: &mut R,
    ) -> FaultMap {
        let word_bits = usize::from(format.total_bits());
        let total_bits = num_words * word_bits;
        let count = count.min(total_bits);
        let faults = sample(rng, total_bits, count)
            .into_iter()
            .map(|flat| BitFault { word: flat / word_bits, bit: (flat % word_bits) as u8, kind })
            .collect();
        FaultMap { faults }
    }

    /// Number of faulty bits in the map.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the map contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The individual faults.
    pub fn faults(&self) -> &[BitFault] {
        &self.faults
    }

    /// Applies every fault to a buffer of quantized words.
    ///
    /// Faults whose word index falls outside the buffer are ignored (this
    /// makes a map sampled for a larger buffer safely applicable to a slice).
    pub fn apply(&self, words: &mut [QValue]) {
        for fault in &self.faults {
            if let Some(word) = words.get_mut(fault.word) {
                if let Ok(corrupted) = fault.kind.apply(*word, fault.bit) {
                    *word = corrupted;
                }
            }
        }
    }

    /// Applies every fault once to a buffer of any [`StoredWord`]
    /// representation (transient semantics).
    ///
    /// An `f32` buffer models one that physically stores `format` words: it
    /// goes through a quantize → corrupt → dequantize round trip, so the
    /// faulty bits perturb the stored word and the consumer sees the
    /// dequantized result. A buffer that natively holds raw two's-complement
    /// words (`i32` Q-format words, `i8` affine bytes) skips the round trip:
    /// each bit flip or stuck-at is a single integer operation.
    pub fn corrupt<W: StoredWord>(&self, words: &mut [W], format: QFormat) {
        self.corrupt_span(0, words, format);
    }

    /// Like [`FaultMap::corrupt`], but treats `words` as the window of the
    /// fault map's word space starting at word `first_word` (faults outside
    /// the window are ignored).
    ///
    /// This is how a map sampled over a whole network's concatenated weight
    /// space applies to one layer's buffer without materializing sliced maps.
    pub fn corrupt_span<W: StoredWord>(&self, first_word: usize, words: &mut [W], format: QFormat) {
        self.apply_span(first_word, words, format, false);
    }

    /// Re-enforces the *permanent* faults of the map on a buffer of any
    /// [`StoredWord`] representation.
    ///
    /// Transient bit flips are skipped: once flipped they do not re-assert
    /// themselves, whereas stuck-at bits override every write. Call this after
    /// each update of a buffer afflicted by permanent faults.
    pub fn enforce<W: StoredWord>(&self, words: &mut [W], format: QFormat) {
        self.enforce_span(0, words, format);
    }

    /// Window variant of [`FaultMap::enforce`] (see
    /// [`FaultMap::corrupt_span`]).
    pub fn enforce_span<W: StoredWord>(&self, first_word: usize, words: &mut [W], format: QFormat) {
        self.apply_span(first_word, words, format, true);
    }

    fn apply_span<W: StoredWord>(
        &self,
        first_word: usize,
        words: &mut [W],
        format: QFormat,
        permanent_only: bool,
    ) {
        for fault in &self.faults {
            if permanent_only && !fault.kind.is_permanent() {
                continue;
            }
            let Some(index) = fault.word.checked_sub(first_word) else { continue };
            if let Some(word) = words.get_mut(index) {
                if let Some(corrupted) = word.apply_fault(fault, format) {
                    *word = corrupted;
                }
            }
        }
    }

    /// Whether the map contains at least one permanent (stuck-at) fault.
    pub fn has_permanent(&self) -> bool {
        self.faults.iter().any(|f| f.kind.is_permanent())
    }
}

impl FromIterator<BitFault> for FaultMap {
    fn from_iter<T: IntoIterator<Item = BitFault>>(iter: T) -> Self {
        FaultMap { faults: iter.into_iter().collect() }
    }
}

impl Extend<BitFault> for FaultMap {
    fn extend<T: IntoIterator<Item = BitFault>>(&mut self, iter: T) {
        self.faults.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn sample_count_matches_ber() {
        let mut rng = SmallRng::seed_from_u64(1);
        let map = FaultMap::sample(1000, QFormat::Q3_4, 0.001, FaultKind::BitFlip, &mut rng);
        assert_eq!(map.len(), 8); // 0.1% of 8000 bits
        let map = FaultMap::sample(1000, QFormat::Q3_4, 0.0, FaultKind::BitFlip, &mut rng);
        assert!(map.is_empty());
    }

    #[test]
    fn sampled_positions_are_unique_and_in_range() {
        let mut rng = SmallRng::seed_from_u64(2);
        let map = FaultMap::sample(10, QFormat::Q3_4, 0.5, FaultKind::BitFlip, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for f in map.faults() {
            assert!(f.word < 10);
            assert!(f.bit < 8);
            assert!(seen.insert((f.word, f.bit)), "duplicate fault position");
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let map_a = FaultMap::sample(
            64,
            QFormat::Q4_11,
            0.05,
            FaultKind::StuckAt0,
            &mut SmallRng::seed_from_u64(7),
        );
        let map_b = FaultMap::sample(
            64,
            QFormat::Q4_11,
            0.05,
            FaultKind::StuckAt0,
            &mut SmallRng::seed_from_u64(7),
        );
        assert_eq!(map_a, map_b);
    }

    #[test]
    fn corrupt_changes_f32_values_and_enforce_reasserts_stuck_bits() {
        let fmt = QFormat::Q3_4;
        let map =
            FaultMap::from_faults(vec![BitFault { word: 0, bit: 7, kind: FaultKind::StuckAt1 }]);
        let mut buf = vec![1.0f32, 2.0];
        map.corrupt(&mut buf, fmt);
        assert!(buf[0] < 0.0, "sign bit stuck at 1 makes the value negative");
        assert_eq!(buf[1], 2.0);

        // A write "repairs" the value, then enforcement re-asserts the defect.
        buf[0] = 1.0;
        map.enforce(&mut buf, fmt);
        assert!(buf[0] < 0.0);
    }

    #[test]
    fn enforce_skips_transient_flips() {
        let fmt = QFormat::Q3_4;
        let map =
            FaultMap::from_faults(vec![BitFault { word: 0, bit: 7, kind: FaultKind::BitFlip }]);
        let mut buf = vec![1.0f32];
        map.enforce(&mut buf, fmt);
        assert_eq!(buf[0], 1.0);
        map.corrupt(&mut buf, fmt);
        assert!(buf[0] < 0.0);
    }

    #[test]
    fn stuck_at_0_on_zero_bits_is_benign() {
        let fmt = QFormat::Q3_4;
        let map =
            FaultMap::from_faults(vec![BitFault { word: 0, bit: 6, kind: FaultKind::StuckAt0 }]);
        let mut buf = vec![0.5f32];
        map.corrupt(&mut buf, fmt);
        assert_eq!(buf[0], 0.5);
    }

    #[test]
    fn out_of_range_words_are_ignored() {
        let map =
            FaultMap::from_faults(vec![BitFault { word: 10, bit: 0, kind: FaultKind::BitFlip }]);
        let mut buf = vec![1.0f32; 2];
        map.corrupt(&mut buf, QFormat::Q3_4);
        assert_eq!(buf, vec![1.0, 1.0]);
    }

    #[test]
    fn apply_on_qvalues_matches_corrupt_on_f32() {
        let fmt = QFormat::Q4_11;
        let map =
            FaultMap::from_faults(vec![BitFault { word: 1, bit: 14, kind: FaultKind::BitFlip }]);
        let mut words: Vec<QValue> =
            [0.25f32, 0.75].iter().map(|&v| QValue::quantize(v, fmt)).collect();
        let mut floats = vec![0.25f32, 0.75];
        map.apply(&mut words);
        map.corrupt(&mut floats, fmt);
        assert_eq!(words[1].to_f32(), floats[1]);
        assert_eq!(words[0].to_f32(), floats[0]);
    }

    #[test]
    fn corrupt_flips_live_raw_words_in_place() {
        let fmt = QFormat::Q3_4;
        let map = FaultMap::from_faults(vec![
            BitFault { word: 0, bit: 7, kind: FaultKind::BitFlip },
            BitFault { word: 1, bit: 0, kind: FaultKind::StuckAt1 },
        ]);
        let mut words = vec![16i32, 32]; // 1.0 and 2.0 in Q3_4
        map.corrupt(&mut words, fmt);
        // Flipping bit 7 of raw 16 (0b0001_0000) gives 0b1001_0000 = -112.
        assert_eq!(words, vec![-112, 33]);
    }

    #[test]
    fn raw_word_corruption_matches_the_f32_round_trip_on_grid_values() {
        let fmt = QFormat::Q4_11;
        let mut rng = SmallRng::seed_from_u64(9);
        let map = FaultMap::sample(32, fmt, 0.1, FaultKind::StuckAt1, &mut rng);
        let mut floats: Vec<f32> = (0..32).map(|i| (i as f32 - 16.0) * 0.25).collect();
        let mut raws: Vec<i32> = floats.iter().map(|&v| QValue::quantize(v, fmt).raw()).collect();
        map.corrupt(&mut floats, fmt);
        map.corrupt(&mut raws, fmt);
        let dequantized: Vec<f32> =
            raws.iter().map(|&r| QValue::from_raw(r, fmt).to_f32()).collect();
        assert_eq!(floats, dequantized);
    }

    #[test]
    fn corrupt_flips_live_bytes_on_i8_words() {
        let fmt = QFormat::Q3_4; // ignored by the i8 representation
        let map = FaultMap::from_faults(vec![
            BitFault { word: 0, bit: 7, kind: FaultKind::BitFlip },
            BitFault { word: 1, bit: 0, kind: FaultKind::StuckAt1 },
            BitFault { word: 2, bit: 1, kind: FaultKind::StuckAt0 },
        ]);
        let mut bytes = vec![16i8, 32, 7];
        map.corrupt(&mut bytes, fmt);
        // Flipping bit 7 of 0b0001_0000 gives 0b1001_0000 = -112; 32 gains
        // bit 0; 7 (0b111) loses bit 1.
        assert_eq!(bytes, vec![-112, 33, 5]);
    }

    #[test]
    fn i8_words_ignore_faults_beyond_their_eighth_bit() {
        let fault = BitFault { word: 0, bit: 8, kind: FaultKind::BitFlip };
        assert_eq!(42i8.apply_fault(&fault, QFormat::Q3_4), None);
        let in_range = BitFault { word: 0, bit: 6, kind: FaultKind::BitFlip };
        assert_eq!(1i8.apply_fault(&in_range, QFormat::Q3_4), Some(65));
    }

    #[test]
    fn span_application_rebases_and_ignores_outside_words() {
        let fmt = QFormat::Q3_4;
        let map = FaultMap::from_faults(vec![
            BitFault { word: 2, bit: 7, kind: FaultKind::BitFlip },
            BitFault { word: 9, bit: 7, kind: FaultKind::BitFlip },
        ]);
        // Window covering words 2..5: only word 2 lands, at local index 0.
        let mut floats = vec![1.0f32; 3];
        map.corrupt_span(2, &mut floats, fmt);
        assert!(floats[0] < 0.0);
        assert_eq!(&floats[1..], &[1.0, 1.0]);
        let mut raws = vec![16i32; 3];
        map.corrupt_span(2, &mut raws, fmt);
        assert_eq!(raws, vec![-112, 16, 16]);
    }

    #[test]
    fn enforce_reasserts_only_permanent_faults_on_raw_words() {
        let fmt = QFormat::Q3_4;
        let map = FaultMap::from_faults(vec![
            BitFault { word: 0, bit: 6, kind: FaultKind::StuckAt1 },
            BitFault { word: 1, bit: 6, kind: FaultKind::BitFlip },
        ]);
        let mut words = vec![0i32, 0];
        map.enforce(&mut words, fmt);
        assert_eq!(words, vec![64, 0]);
    }

    #[test]
    fn collect_and_extend() {
        let mut map: FaultMap =
            vec![BitFault { word: 0, bit: 0, kind: FaultKind::BitFlip }].into_iter().collect();
        map.extend(vec![BitFault { word: 1, bit: 1, kind: FaultKind::StuckAt0 }]);
        assert_eq!(map.len(), 2);
        assert!(map.has_permanent());
    }

    #[test]
    fn ber_one_faults_every_bit() {
        let mut rng = SmallRng::seed_from_u64(3);
        let map = FaultMap::sample(4, QFormat::Q3_4, 1.0, FaultKind::BitFlip, &mut rng);
        assert_eq!(map.len(), 32);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    proptest! {
        #[test]
        fn sampled_map_size_tracks_ber(
            words in 1usize..200,
            ber in 0.0f64..1.0,
            seed in 0u64..1000,
        ) {
            let fmt = QFormat::Q3_4;
            let mut rng = SmallRng::seed_from_u64(seed);
            let map = FaultMap::sample(words, fmt, ber, FaultKind::BitFlip, &mut rng);
            let expected = (ber * (words * 8) as f64).round() as usize;
            prop_assert_eq!(map.len(), expected.min(words * 8));
        }

        #[test]
        fn double_corruption_with_flips_is_identity(seed in 0u64..500) {
            // Applying the same bit-flip map twice restores the original buffer
            // (for values that are exactly representable).
            let fmt = QFormat::Q3_4;
            let mut rng = SmallRng::seed_from_u64(seed);
            let map = FaultMap::sample(32, fmt, 0.1, FaultKind::BitFlip, &mut rng);
            let original: Vec<f32> = (0..32).map(|i| (i as f32 - 16.0) * 0.25).collect();
            let mut buf = original.clone();
            map.corrupt(&mut buf, fmt);
            map.corrupt(&mut buf, fmt);
            prop_assert_eq!(buf, original);
        }

        #[test]
        fn stuck_at_application_is_idempotent(seed in 0u64..500) {
            let fmt = QFormat::Q4_11;
            let mut rng = SmallRng::seed_from_u64(seed);
            let map = FaultMap::sample(32, fmt, 0.1, FaultKind::StuckAt1, &mut rng);
            let mut once: Vec<f32> = (0..32).map(|i| i as f32 * 0.01).collect();
            map.corrupt(&mut once, fmt);
            let mut twice = once.clone();
            map.corrupt(&mut twice, fmt);
            prop_assert_eq!(once, twice);
        }
    }
}
