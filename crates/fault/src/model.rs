use std::fmt;

use navft_qformat::{QFormat, QValue};
use rand::Rng;

use crate::map::{FaultMap, StoredWord};

/// The physical fault mechanism applied to a single bit.
///
/// Following §3.2 of the paper, permanent faults (manufacturing defects)
/// manifest as bits held at a fixed logic level (*stuck-at-0*/*stuck-at-1*),
/// while transient faults (particle strikes, voltage droops) manifest as
/// random *bit flips*.
///
/// # Examples
///
/// ```
/// use navft_fault::FaultKind;
/// use navft_qformat::{QFormat, QValue};
///
/// let word = QValue::quantize(1.0, QFormat::Q3_4);
/// let hit = FaultKind::StuckAt1.apply(word, QFormat::Q3_4.sign_bit()).unwrap();
/// assert!(hit.to_f32() < 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The bit is permanently held at logic `0`.
    StuckAt0,
    /// The bit is permanently held at logic `1`.
    StuckAt1,
    /// The bit's logic value is inverted once (single-event upset).
    BitFlip,
}

impl FaultKind {
    /// All fault kinds, in the order the paper's figures sweep them.
    pub const ALL: [FaultKind; 3] = [FaultKind::BitFlip, FaultKind::StuckAt0, FaultKind::StuckAt1];

    /// Whether this fault persists for the lifetime of the device (stuck-at
    /// faults) rather than striking once (bit flips).
    pub fn is_permanent(&self) -> bool {
        matches!(self, FaultKind::StuckAt0 | FaultKind::StuckAt1)
    }

    /// Applies the fault to bit `bit` of `word`.
    ///
    /// # Errors
    ///
    /// Returns a [`navft_qformat::FormatError`] if `bit` is outside the word.
    pub fn apply(&self, word: QValue, bit: u8) -> Result<QValue, navft_qformat::FormatError> {
        match self {
            FaultKind::StuckAt0 => word.with_stuck_bit(bit, false),
            FaultKind::StuckAt1 => word.with_stuck_bit(bit, true),
            FaultKind::BitFlip => word.with_flipped_bit(bit),
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultKind::StuckAt0 => "stuck-at-0",
            FaultKind::StuckAt1 => "stuck-at-1",
            FaultKind::BitFlip => "bit-flip",
        };
        f.write_str(name)
    }
}

/// A reusable fault-sampling recipe: the bit error rate, fault kind and
/// storage format of a fault population, without a concrete word count.
///
/// [`FaultMap`] binds a sampled pattern to a fixed buffer size; a spec is
/// the step before that — what a long-running server keeps per session to
/// draw a fresh transient pattern per request over whatever buffer the
/// request touches. [`FaultSpec::sample`] draws the map;
/// [`FaultSpec::strike`] samples and corrupts in one call.
///
/// # Examples
///
/// ```
/// use navft_fault::{FaultKind, FaultSpec};
/// use navft_qformat::QFormat;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let spec = FaultSpec::new(0.05, FaultKind::BitFlip, QFormat::Q4_11);
/// let mut rng = SmallRng::seed_from_u64(1);
/// let mut buffer = vec![0.5f32; 64];
/// let hits = spec.strike(&mut buffer, &mut rng);
/// assert_eq!(hits, spec.faults_in(64));
/// assert!(buffer.iter().any(|&v| v != 0.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability of any single stored bit being faulty.
    pub ber: f64,
    /// The physical fault mechanism.
    pub kind: FaultKind,
    /// The storage format of the afflicted buffer.
    pub format: QFormat,
}

impl FaultSpec {
    /// Builds a spec from a bit error rate, fault kind and storage format.
    pub fn new(ber: f64, kind: FaultKind, format: QFormat) -> FaultSpec {
        FaultSpec { ber, kind, format }
    }

    /// How many faulty bits this spec draws over `num_words` words —
    /// `round(ber · num_words · total_bits)`, the paper's BER model.
    pub fn faults_in(&self, num_words: usize) -> usize {
        let total_bits = num_words * usize::from(self.format.total_bits());
        (self.ber * total_bits as f64).round() as usize
    }

    /// Samples a concrete fault map over a buffer of `num_words` words.
    pub fn sample<R: Rng + ?Sized>(&self, num_words: usize, rng: &mut R) -> FaultMap {
        FaultMap::sample(num_words, self.format, self.ber, self.kind, rng)
    }

    /// Samples a fresh fault pattern over `words` and corrupts the buffer in
    /// place (any [`StoredWord`] representation). Returns the number of bit
    /// faults struck.
    pub fn strike<W: StoredWord, R: Rng + ?Sized>(&self, words: &mut [W], rng: &mut R) -> usize {
        let map = self.sample(words.len(), rng);
        map.corrupt(words, self.format);
        map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stuck_at_is_permanent_and_flip_is_not() {
        assert!(FaultKind::StuckAt0.is_permanent());
        assert!(FaultKind::StuckAt1.is_permanent());
        assert!(!FaultKind::BitFlip.is_permanent());
    }

    #[test]
    fn apply_matches_semantics() {
        let fmt = QFormat::Q3_4;
        let word = QValue::quantize(1.0, fmt); // 0b0001_0000
        assert_eq!(FaultKind::StuckAt0.apply(word, 4).unwrap().to_f32(), 0.0);
        assert_eq!(FaultKind::StuckAt1.apply(word, 4).unwrap(), word);
        assert_eq!(FaultKind::BitFlip.apply(word, 4).unwrap().to_f32(), 0.0);
        assert_eq!(FaultKind::BitFlip.apply(word, 0).unwrap().to_f32(), 1.0625);
    }

    #[test]
    fn apply_rejects_bad_bit() {
        let word = QValue::quantize(0.0, QFormat::Q3_4);
        assert!(FaultKind::BitFlip.apply(word, 8).is_err());
    }

    #[test]
    fn display_names_match_paper_terms() {
        assert_eq!(FaultKind::StuckAt0.to_string(), "stuck-at-0");
        assert_eq!(FaultKind::StuckAt1.to_string(), "stuck-at-1");
        assert_eq!(FaultKind::BitFlip.to_string(), "bit-flip");
    }

    #[test]
    fn bit_flip_applied_twice_is_an_involution() {
        // A single-event upset hitting the same (word, bit) location twice
        // restores the original word, for every representable word and bit.
        let fmt = QFormat::Q3_4;
        for raw in fmt.min_raw()..=fmt.max_raw() {
            let word = QValue::from_raw(raw, fmt);
            for bit in 0..fmt.total_bits() {
                let once = FaultKind::BitFlip.apply(word, bit).unwrap();
                assert_ne!(once, word, "a flip must change the word");
                let twice = FaultKind::BitFlip.apply(once, bit).unwrap();
                assert_eq!(twice, word, "raw {raw} bit {bit}");
            }
        }
    }

    #[test]
    fn spec_sampling_matches_the_map_sampler_and_counts_hits() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        let spec = FaultSpec::new(0.02, FaultKind::BitFlip, QFormat::Q4_11);
        // The spec delegates to FaultMap::sample with its own parameters, so
        // the same seed draws the same pattern.
        let map = spec.sample(32, &mut SmallRng::seed_from_u64(3));
        let direct = FaultMap::sample(
            32,
            QFormat::Q4_11,
            0.02,
            FaultKind::BitFlip,
            &mut SmallRng::seed_from_u64(3),
        );
        assert_eq!(map.faults(), direct.faults());
        assert_eq!(map.len(), spec.faults_in(32));

        // strike() corrupts live raw words in place and reports the count.
        // Distinct positions can share a word, so count faulted words from
        // the map rather than assuming one word per bit fault.
        let mut words = vec![0i32; 32];
        let hits = spec.strike(&mut words, &mut SmallRng::seed_from_u64(3));
        assert_eq!(hits, map.len());
        let faulted_words: std::collections::HashSet<usize> =
            map.faults().iter().map(|f| f.word).collect();
        assert_eq!(words.iter().filter(|&&w| w != 0).count(), faulted_words.len());
    }

    #[test]
    fn all_lists_every_kind_once() {
        assert_eq!(FaultKind::ALL.len(), 3);
        assert!(FaultKind::ALL.contains(&FaultKind::StuckAt0));
        assert!(FaultKind::ALL.contains(&FaultKind::StuckAt1));
        assert!(FaultKind::ALL.contains(&FaultKind::BitFlip));
    }
}
