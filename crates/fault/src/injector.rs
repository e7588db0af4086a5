use rand::Rng;

use navft_qformat::QFormat;

use crate::{FaultKind, FaultMap, FaultTarget, StoredWord};

/// A reusable fault injector bound to a target buffer description.
///
/// [`FaultMap`] is a one-shot sampled pattern; `Injector` wraps the pattern
/// together with the buffer's quantization format and target description so
/// higher-level code (training loops, inference engines) can hand buffers to
/// it without tracking formats and sites separately.
///
/// # Examples
///
/// ```
/// use navft_fault::{FaultKind, FaultSite, FaultTarget, Injector};
/// use navft_qformat::QFormat;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(3);
/// let injector = Injector::sample(
///     FaultTarget::new(FaultSite::WeightBuffer),
///     256,
///     QFormat::Q4_11,
///     0.001,
///     FaultKind::BitFlip,
///     &mut rng,
/// );
/// let mut weights = vec![0.1f32; 256];
/// injector.corrupt(&mut weights);
/// assert_eq!(injector.fault_count(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Injector {
    target: FaultTarget,
    format: QFormat,
    map: FaultMap,
}

impl Injector {
    /// Creates an injector from an already-sampled fault map.
    pub fn new(target: FaultTarget, format: QFormat, map: FaultMap) -> Injector {
        Injector { target, format, map }
    }

    /// Creates an injector that injects no faults (the fault-free baseline).
    pub fn fault_free(target: FaultTarget, format: QFormat) -> Injector {
        Injector { target, format, map: FaultMap::new() }
    }

    /// Samples a fresh fault pattern at the given bit error rate.
    pub fn sample<R: Rng + ?Sized>(
        target: FaultTarget,
        num_words: usize,
        format: QFormat,
        ber: f64,
        kind: FaultKind,
        rng: &mut R,
    ) -> Injector {
        let map = FaultMap::sample(num_words, format, ber, kind, rng);
        Injector { target, format, map }
    }

    /// The buffer this injector targets.
    pub fn target(&self) -> FaultTarget {
        self.target
    }

    /// The quantization format of the target buffer.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// The underlying fault map.
    pub fn map(&self) -> &FaultMap {
        &self.map
    }

    /// Number of faulty bits.
    pub fn fault_count(&self) -> usize {
        self.map.len()
    }

    /// Applies the fault pattern once to a buffer of any [`StoredWord`]
    /// representation (transient semantics).
    ///
    /// This is the single generic corruption entry point: for `f32` buffers
    /// that model Q-format storage the quantize → corrupt → dequantize round
    /// trip lives in the [`StoredWord`] impl (and nowhere else); buffers that
    /// natively hold raw `i32` words corrupt with single integer operations
    /// and no round trip.
    pub fn corrupt<W: StoredWord>(&self, words: &mut [W]) {
        self.corrupt_span(0, words);
    }

    /// Applies the faults that fall inside the window starting at word
    /// `first_word` to `words` (e.g. one layer's buffer within a fault map
    /// sampled over a whole network's concatenated weight space).
    pub fn corrupt_span<W: StoredWord>(&self, first_word: usize, words: &mut [W]) {
        self.map.corrupt_span(first_word, words, self.format);
    }

    /// Re-enforces the permanent faults of the pattern on `words`.
    pub fn enforce<W: StoredWord>(&self, words: &mut [W]) {
        self.enforce_span(0, words);
    }

    /// Window variant of [`Injector::enforce`] (see
    /// [`Injector::corrupt_span`]).
    pub fn enforce_span<W: StoredWord>(&self, first_word: usize, words: &mut [W]) {
        self.map.enforce_span(first_word, words, self.format);
    }

    /// Whether this injector carries permanent faults that must be re-enforced
    /// after every buffer update.
    pub fn has_permanent(&self) -> bool {
        self.map.has_permanent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultSite;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn fault_free_injector_is_a_no_op() {
        let injector =
            Injector::fault_free(FaultTarget::new(FaultSite::WeightBuffer), QFormat::Q4_11);
        let mut buf = vec![0.5f32; 16];
        injector.corrupt(&mut buf);
        injector.enforce(&mut buf);
        assert!(buf.iter().all(|&v| v == 0.5));
        assert_eq!(injector.fault_count(), 0);
        assert!(!injector.has_permanent());
    }

    #[test]
    fn sampled_injector_reports_its_configuration() {
        let mut rng = SmallRng::seed_from_u64(11);
        let target = FaultTarget::layer(FaultSite::ActivationBuffer, 2);
        let injector =
            Injector::sample(target, 64, QFormat::Q3_4, 0.01, FaultKind::StuckAt1, &mut rng);
        assert_eq!(injector.target(), target);
        assert_eq!(injector.format(), QFormat::Q3_4);
        assert_eq!(injector.fault_count(), 5); // 1% of 512 bits
        assert!(injector.has_permanent());
        assert_eq!(injector.map().len(), 5);
    }

    #[test]
    fn corrupt_flips_bits_in_the_live_raw_words() {
        // The quantized path corrupts the stored words directly: each bit
        // flip is exactly one XOR on the live buffer, so the before/after
        // words differ in precisely the sampled bit positions — proof that
        // no dequantize → requantize round trip touched the values.
        let fmt = QFormat::Q4_11;
        let mut rng = SmallRng::seed_from_u64(21);
        let injector = Injector::sample(
            FaultTarget::new(FaultSite::WeightBuffer),
            64,
            fmt,
            0.02,
            FaultKind::BitFlip,
            &mut rng,
        );
        let original: Vec<i32> = (0..64).map(|i| i * 37 % 1000 - 500).collect();
        let mut corrupted = original.clone();
        injector.corrupt(&mut corrupted);
        let mut expected = original.clone();
        for fault in injector.map().faults() {
            expected[fault.word] ^= 1 << fault.bit;
            // Re-sign-extend within the 16-bit word, as the live storage does.
            expected[fault.word] = (expected[fault.word] << 16) >> 16;
        }
        assert!(injector.fault_count() > 0);
        assert_eq!(corrupted, expected);
        // Flipping the same pattern again restores the original words.
        injector.corrupt(&mut corrupted);
        assert_eq!(corrupted, original);
    }

    #[test]
    fn corrupt_span_only_touches_the_window() {
        let map = FaultMap::from_faults(vec![
            crate::BitFault { word: 3, bit: 7, kind: FaultKind::BitFlip },
            crate::BitFault { word: 20, bit: 7, kind: FaultKind::BitFlip },
        ]);
        let injector = Injector::new(FaultTarget::new(FaultSite::WeightBuffer), QFormat::Q3_4, map);
        let mut window = vec![1.0f32; 5]; // words 2..7 of the buffer
        injector.corrupt_span(2, &mut window);
        assert!(window[1] < 0.0, "word 3 lands at local index 1");
        assert_eq!(window.iter().filter(|&&v| v != 1.0).count(), 1);
    }

    #[test]
    fn corrupt_changes_some_value_at_high_ber() {
        let mut rng = SmallRng::seed_from_u64(5);
        let injector = Injector::sample(
            FaultTarget::new(FaultSite::InputBuffer),
            32,
            QFormat::Q4_11,
            0.1,
            FaultKind::BitFlip,
            &mut rng,
        );
        let mut buf = vec![0.25f32; 32];
        injector.corrupt(&mut buf);
        assert!(buf.iter().any(|&v| v != 0.25));
    }
}
