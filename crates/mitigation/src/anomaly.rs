//! Inference-time mitigation: range-based anomaly detection (§5.2).
//!
//! Once a policy is trained, the value range `(aᵢ, bᵢ)` of every layer's
//! parameters is instrumented. During inference each consumed value is checked
//! against its layer's range widened by a detection margin (10 % in the
//! paper); the comparison only looks at the *sign and integer bits* of the
//! fixed-point word, because fractional-bit corruption cannot move a value
//! outside the margin. Detected outliers are skipped (their contribution is
//! zeroed), exploiting the sparsity of trained policies: a small weight whose
//! high-order bit flipped is far more likely to be a fault than a legitimate
//! large value.

use navft_nn::{Element, ForwardHooks, I8Affine, LayerKind, Network, NetworkBase, QNetwork};
use navft_qformat::{QFormat, QValue};

/// Parameters of the range-based anomaly detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeGuardConfig {
    /// Detection margin applied to the instrumented bounds (the paper uses
    /// 10 %).
    pub margin: f64,
    /// Whether to compare only the sign and integer bits of the word (the
    /// paper's hardware-cheap variant) or the full value.
    pub integer_bits_only: bool,
}

impl RangeGuardConfig {
    /// The paper's configuration: 10 % margin, sign+integer-bit comparison.
    pub fn paper() -> RangeGuardConfig {
        RangeGuardConfig { margin: 0.1, integer_bits_only: true }
    }

    /// Full-precision comparison (used by the ablation study).
    pub fn full_precision(margin: f64) -> RangeGuardConfig {
        RangeGuardConfig { margin, integer_bits_only: false }
    }
}

impl Default for RangeGuardConfig {
    fn default() -> Self {
        RangeGuardConfig::paper()
    }
}

/// The instrumented per-layer value range of a trained policy, plus the
/// detection logic.
///
/// # Examples
///
/// ```
/// use navft_mitigation::{RangeGuard, RangeGuardConfig};
/// use navft_nn::mlp;
/// use navft_qformat::QFormat;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let mut policy = mlp(&[10, 16, 4], &mut rng);
/// let guard = RangeGuard::from_network(&policy, QFormat::Q4_11, RangeGuardConfig::paper());
///
/// // A fault makes one weight explode; the guard scrubs it back to zero.
/// policy.layer_weights_mut(0).unwrap()[3] = 14.0;
/// let detected = guard.scrub(&mut policy);
/// assert_eq!(detected, 1);
/// assert_eq!(policy.layer_weights(0).unwrap()[3], 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RangeGuard {
    format: QFormat,
    config: RangeGuardConfig,
    /// Per parametric layer: `(layer index, guarded lower bound, guarded upper bound)`.
    bounds: Vec<(usize, f32, f32)>,
}

impl RangeGuard {
    /// Instruments the per-layer weight ranges of a trained network.
    pub fn from_network(
        network: &Network,
        format: QFormat,
        config: RangeGuardConfig,
    ) -> RangeGuard {
        let bounds = network
            .weight_ranges()
            .into_iter()
            .map(|(layer, lo, hi)| {
                let (lo, hi) = widen(lo, hi, config.margin);
                (layer, lo, hi)
            })
            .collect();
        RangeGuard { format, config, bounds }
    }

    /// Builds a guard from explicit per-layer bounds (before the margin is
    /// applied).
    pub fn from_bounds(
        bounds: impl IntoIterator<Item = (usize, f32, f32)>,
        format: QFormat,
        config: RangeGuardConfig,
    ) -> RangeGuard {
        let bounds = bounds
            .into_iter()
            .map(|(layer, lo, hi)| {
                let (lo, hi) = widen(lo, hi, config.margin);
                (layer, lo, hi)
            })
            .collect();
        RangeGuard { format, config, bounds }
    }

    /// The configuration in use.
    pub fn config(&self) -> RangeGuardConfig {
        self.config
    }

    /// The guarded (margin-widened) bounds per layer.
    pub fn bounds(&self) -> &[(usize, f32, f32)] {
        &self.bounds
    }

    /// Whether `value` is anomalous for layer `layer` — generic over the
    /// policy's storage element: `f32` values compare in the value domain,
    /// live raw words compare with pure integer arithmetic on the stored
    /// word (no dequantize round trip), matching the hardware the paper
    /// sketches (a comparator on the sign and integer bits of the bus). The
    /// instantiations agree on every value of the storage grid.
    ///
    /// `meta` is the network-level metadata of the backend (the affine scale
    /// for `i8`, ignored by the other backends — pass the network's
    /// `net_meta()`).
    ///
    /// Values in layers the guard has no bounds for are never anomalous.
    pub fn is_anomalous_in<E: GuardedElement>(
        &self,
        layer: usize,
        value: E,
        meta: &E::Meta,
    ) -> bool {
        let Some(&(_, lo, hi)) = self.bounds.iter().find(|(l, _, _)| *l == layer) else {
            return false;
        };
        value.is_outside(&E::layer_bounds(lo, hi, self.format, &self.config, meta))
    }

    /// Scans every guarded layer of `network` — either backend — and zeroes
    /// anomalous weights (the "skip the operations around this data"
    /// recovery). On the native backend the scrub runs on live raw words in
    /// place. Returns the number of weights scrubbed.
    ///
    /// # Panics
    ///
    /// Panics if a natively quantized network's format differs from the
    /// guard's.
    pub fn scrub<E: GuardedElement>(&self, network: &mut NetworkBase<E>) -> usize {
        E::check_network(network, self.format);
        let meta = *network.net_meta();
        let mut scrubbed = 0;
        for &(layer, lo, hi) in &self.bounds {
            // The comparison form is loop-invariant per layer, so the scan
            // hoists it (for raw words that is one integer triple).
            let bounds = E::layer_bounds(lo, hi, self.format, &self.config, &meta);
            if let Some(weights) = network.layer_weights_mut(layer) {
                for w in weights.iter_mut() {
                    if w.is_outside(&bounds) {
                        *w = E::default();
                        scrubbed += 1;
                    }
                }
            }
        }
        scrubbed
    }

    /// Scrubs one buffer of stored values (e.g. a served activation row or
    /// an observation about to enter the engine) against layer `layer`'s
    /// guarded bounds, zeroing every anomalous value in place. Returns the
    /// number of values scrubbed.
    ///
    /// This is the streaming counterpart of [`RangeGuard::scrub`]: the same
    /// comparison the weight scan hoists per layer, applied to a transient
    /// buffer the guard does not own — what a serving daemon runs per batch
    /// row. `meta` is the backend's network-level metadata (the affine scale
    /// for `i8`; pass the policy's `net_meta()`). Buffers in layers the
    /// guard has no bounds for are left untouched.
    pub fn scrub_buffer<E: GuardedElement>(
        &self,
        layer: usize,
        values: &mut [E],
        meta: &E::Meta,
    ) -> usize {
        let Some(&(_, lo, hi)) = self.bounds.iter().find(|(l, _, _)| *l == layer) else {
            return 0;
        };
        let bounds = E::layer_bounds(lo, hi, self.format, &self.config, meta);
        let mut scrubbed = 0;
        for v in values.iter_mut() {
            if v.is_outside(&bounds) {
                *v = E::default();
                scrubbed += 1;
            }
        }
        scrubbed
    }

    /// Counts anomalous weights of a network of either backend without
    /// modifying it.
    ///
    /// # Panics
    ///
    /// Panics if a natively quantized network's format differs from the
    /// guard's.
    pub fn count_anomalies<E: GuardedElement>(&self, network: &NetworkBase<E>) -> usize {
        E::check_network(network, self.format);
        self.bounds
            .iter()
            .filter_map(|&(layer, lo, hi)| {
                let bounds = E::layer_bounds(lo, hi, self.format, &self.config, network.net_meta());
                network
                    .layer_weights(layer)
                    .map(|weights| weights.iter().filter(|w| w.is_outside(&bounds)).count())
            })
            .sum()
    }
}

/// A storage element the range guard can police: how one layer's
/// `(lo, hi)` bounds translate into this representation's comparison, and
/// how a stored weight compares against them.
///
/// Implemented for `f32` (value-domain comparison, optionally reduced to
/// sign+integer bits), `i32` (pure integer comparison on the live raw word)
/// and `i8` (byte comparison on the affine grid). A further backend plugs
/// into [`RangeGuard::scrub`] / [`RangeGuard::count_anomalies`] with one
/// `impl`.
pub trait GuardedElement: Element {
    /// The per-layer comparison, precomputed once per layer scan.
    type Bounds: Copy;

    /// Builds the comparison for one layer's margin-widened `(lo, hi)`.
    /// `meta` is the backend's network-level metadata (e.g. the `i8` affine
    /// scale); backends whose storage grid is fully described by `format`
    /// ignore it.
    fn layer_bounds(
        lo: f32,
        hi: f32,
        format: QFormat,
        config: &RangeGuardConfig,
        meta: &Self::Meta,
    ) -> Self::Bounds;

    /// Whether this stored weight falls outside the guarded range.
    fn is_outside(&self, bounds: &Self::Bounds) -> bool;

    /// Validates a network against the guard's format before a scan.
    ///
    /// # Panics
    ///
    /// Panics if the network's storage format is incompatible with the
    /// guard's (native backend only).
    fn check_network(network: &NetworkBase<Self>, guard_format: QFormat);
}

/// The `f32` guard comparison: the raw `(lo, hi)` plus their sign+integer
/// reductions, selected by the config.
#[derive(Debug, Clone, Copy)]
pub struct ValueBounds {
    lo: f32,
    hi: f32,
    lo_int: i32,
    hi_int: i32,
    integer_bits_only: bool,
    format: QFormat,
}

impl GuardedElement for f32 {
    type Bounds = ValueBounds;

    fn layer_bounds(
        lo: f32,
        hi: f32,
        format: QFormat,
        config: &RangeGuardConfig,
        _meta: &(),
    ) -> ValueBounds {
        ValueBounds {
            lo,
            hi,
            lo_int: compare_integer_bits(lo, format),
            hi_int: compare_integer_bits(hi, format),
            integer_bits_only: config.integer_bits_only,
            format,
        }
    }

    fn is_outside(&self, bounds: &ValueBounds) -> bool {
        if bounds.integer_bits_only {
            let v = compare_integer_bits(*self, bounds.format);
            v > bounds.hi_int || v < bounds.lo_int
        } else {
            *self > bounds.hi || *self < bounds.lo
        }
    }

    fn check_network(_network: &Network, _guard_format: QFormat) {}
}

impl GuardedElement for i32 {
    /// A raw word is anomalous iff `raw >> shift` falls outside `[lo, hi]`.
    type Bounds = (i32, i32, u8);

    fn layer_bounds(
        lo: f32,
        hi: f32,
        format: QFormat,
        config: &RangeGuardConfig,
        _meta: &QFormat,
    ) -> (i32, i32, u8) {
        let frac = format.frac_bits();
        if config.integer_bits_only {
            (
                QValue::quantize(lo, format).raw() >> frac,
                QValue::quantize(hi, format).raw() >> frac,
                frac,
            )
        } else {
            // `raw·2^-frac > hi` for grid values is `raw > floor(hi·2^frac)`
            // (and symmetrically with ceil for the lower bound), so the
            // comparison stays exact without a float round trip per word.
            let scale = (2.0f32).powi(i32::from(frac));
            (
                format.saturate_raw((lo * scale).ceil() as i64),
                format.saturate_raw((hi * scale).floor() as i64),
                0,
            )
        }
    }

    fn is_outside(&self, &(lo, hi, shift): &(i32, i32, u8)) -> bool {
        *self >> shift > hi || *self >> shift < lo
    }

    fn check_network(network: &QNetwork, guard_format: QFormat) {
        assert_eq!(network.format(), guard_format, "guard format does not match network format");
    }
}

impl GuardedElement for i8 {
    /// A stored byte is anomalous iff it falls outside `[lo, hi]` on the
    /// network's affine grid. Affine bytes carry no binary point, so the
    /// sign+integer-bit reduction degenerates to the whole-word comparison
    /// and the config's `integer_bits_only` flag makes no difference.
    type Bounds = (i8, i8);

    fn layer_bounds(
        lo: f32,
        hi: f32,
        _format: QFormat,
        _config: &RangeGuardConfig,
        meta: &I8Affine,
    ) -> (i8, i8) {
        // `byte·scale > hi` for stored bytes is `byte > floor(hi/scale)`
        // (and symmetrically with ceil below), so the comparison stays exact
        // without a float multiply per byte.
        let lo = (lo / meta.scale).ceil().clamp(-128.0, 127.0) as i8;
        let hi = (hi / meta.scale).floor().clamp(-128.0, 127.0) as i8;
        (lo, hi)
    }

    fn is_outside(&self, &(lo, hi): &(i8, i8)) -> bool {
        *self > hi || *self < lo
    }

    /// No-op: the affine scale travels with the network itself, so there is
    /// no separate format to cross-check against the guard.
    fn check_network(_network: &NetworkBase<i8>, _guard_format: QFormat) {}
}

/// Widens `(lo, hi)` by `margin` (relative, away from zero on both sides).
fn widen(lo: f32, hi: f32, margin: f64) -> (f32, f32) {
    let m = margin as f32;
    // Scaling by (1 + m) moves a value away from zero regardless of sign.
    let widen_one = |v: f32| v * (1.0 + m);
    let lo = if lo > 0.0 { lo * (1.0 - m) } else { widen_one(lo) };
    let hi = if hi < 0.0 { hi * (1.0 - m) } else { widen_one(hi) };
    (lo, hi)
}

/// Reduces a value to its sign-and-integer-bit representation in `format`:
/// the fractional bits are discarded, so two values that differ only in the
/// fraction compare equal.
fn compare_integer_bits(value: f32, format: QFormat) -> i32 {
    let word = QValue::quantize(value, format);
    word.raw() >> format.frac_bits()
}

/// An activation guard: clamps activation values that escape the range
/// observed during fault-free calibration.
///
/// Attach it as [`ForwardHooks`] during inference to protect the activation
/// buffers in addition to the weight scrub.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationGuard {
    /// Per-layer `(lower, upper)` bounds after the margin is applied.
    bounds: Vec<(f32, f32)>,
    /// Number of values clamped so far.
    clamped: usize,
}

impl ActivationGuard {
    /// Builds a guard from per-layer activation ranges (e.g. from
    /// [`navft_nn::RangeRecorder`]) and a detection margin.
    pub fn new(ranges: &[(f32, f32)], margin: f64) -> ActivationGuard {
        let bounds = ranges.iter().map(|&(lo, hi)| widen(lo, hi, margin)).collect();
        ActivationGuard { bounds, clamped: 0 }
    }

    /// Number of activation values clamped so far.
    pub fn clamped(&self) -> usize {
        self.clamped
    }
}

impl ForwardHooks for ActivationGuard {
    fn on_activation(&mut self, layer_index: usize, _kind: LayerKind, values: &mut [f32]) {
        let Some(&(lo, hi)) = self.bounds.get(layer_index) else { return };
        if !lo.is_finite() || !hi.is_finite() {
            return;
        }
        for v in values.iter_mut() {
            if *v > hi || *v < lo {
                *v = 0.0;
                self.clamped += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navft_nn::{mlp, RangeRecorder, Tensor};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn network(seed: u64) -> Network {
        let mut rng = SmallRng::seed_from_u64(seed);
        mlp(&[8, 16, 4], &mut rng)
    }

    #[test]
    fn clean_network_has_no_anomalies() {
        let net = network(0);
        let guard = RangeGuard::from_network(&net, QFormat::Q4_11, RangeGuardConfig::paper());
        assert_eq!(guard.count_anomalies(&net), 0);
        let mut copy = net.clone();
        assert_eq!(guard.scrub(&mut copy), 0);
        assert_eq!(copy.flat_weights(), net.flat_weights());
    }

    #[test]
    fn corrupted_weight_is_detected_and_zeroed() {
        let net = network(1);
        let guard = RangeGuard::from_network(&net, QFormat::Q4_11, RangeGuardConfig::paper());
        let mut corrupted = net.clone();
        corrupted.layer_weights_mut(0).expect("weights")[5] = -15.0;
        assert_eq!(guard.count_anomalies(&corrupted), 1);
        assert_eq!(guard.scrub(&mut corrupted), 1);
        assert_eq!(corrupted.layer_weights(0).expect("weights")[5], 0.0);
    }

    #[test]
    fn small_deviations_within_margin_are_not_flagged() {
        let net = network(2);
        let guard = RangeGuard::from_network(&net, QFormat::Q4_11, RangeGuardConfig::paper());
        let mut nudged = net.clone();
        // Perturb a weight by one fractional LSB: invisible to the
        // integer-bit comparison.
        nudged.layer_weights_mut(0).expect("weights")[0] += QFormat::Q4_11.resolution();
        assert_eq!(guard.count_anomalies(&nudged), 0);
    }

    #[test]
    fn integer_bit_comparison_ignores_fraction_only_outliers() {
        // Bounds of ±1.0 with a 10% margin; a value of 1.4 exceeds the bound
        // but shares the same integer bits (1), so the cheap comparison
        // accepts it while the full-precision comparison flags it.
        let cheap =
            RangeGuard::from_bounds([(0, -1.0, 1.0)], QFormat::Q4_11, RangeGuardConfig::paper());
        let precise = RangeGuard::from_bounds(
            [(0, -1.0, 1.0)],
            QFormat::Q4_11,
            RangeGuardConfig::full_precision(0.1),
        );
        assert!(!cheap.is_anomalous_in(0, 1.4, &()));
        assert!(precise.is_anomalous_in(0, 1.4, &()));
        // Both flag a genuinely large outlier.
        assert!(cheap.is_anomalous_in(0, 5.0, &()));
        assert!(precise.is_anomalous_in(0, 5.0, &()));
    }

    #[test]
    fn unguarded_layers_are_never_anomalous() {
        let guard =
            RangeGuard::from_bounds([(2, -1.0, 1.0)], QFormat::Q4_11, RangeGuardConfig::paper());
        assert!(!guard.is_anomalous_in(0, 100.0, &()));
        assert!(guard.is_anomalous_in(2, 100.0, &()));
        assert_eq!(guard.bounds().len(), 1);
    }

    #[test]
    fn scrubbing_restores_policy_output_after_a_fault() {
        let net = network(3);
        let input = Tensor::full(&[8], 0.5);
        let clean_output = net.forward(&input);
        let mut corrupted = net.clone();
        corrupted.layer_weights_mut(0).expect("weights")[7] = 15.5;
        let corrupted_output = corrupted.forward(&input);
        let guard = RangeGuard::from_network(&net, QFormat::Q4_11, RangeGuardConfig::paper());
        guard.scrub(&mut corrupted);
        let repaired_output = corrupted.forward(&input);
        let dist = |a: &Tensor, b: &Tensor| -> f32 {
            a.data().iter().zip(b.data()).map(|(x, y)| (x - y).abs()).sum()
        };
        assert!(dist(&repaired_output, &clean_output) < dist(&corrupted_output, &clean_output));
    }

    #[test]
    fn quantized_scrub_zeroes_the_corrupted_live_word() {
        let net = network(5);
        let format = QFormat::Q4_11;
        let guard = RangeGuard::from_network(&net, format, RangeGuardConfig::paper());
        let mut qnet = net.to_quantized(format);
        assert_eq!(guard.count_anomalies(&qnet), 0);
        // A sign-bit flip on a live word creates a large negative outlier.
        let layer = qnet.parametric_layers()[0];
        let before = qnet.layer_weights(layer).expect("words")[5];
        qnet.layer_weights_mut(layer).expect("words")[5] = before ^ (1 << 15);
        let qnet_words_before = qnet.layer_weights(layer).expect("words").to_vec();
        assert_eq!(guard.count_anomalies(&qnet), 1);
        assert_eq!(guard.scrub(&mut qnet), 1);
        assert_eq!(qnet.layer_weights(layer).expect("words")[5], 0);
        // Only the anomalous word changed.
        let after = qnet.layer_weights(layer).expect("words");
        assert_eq!(qnet_words_before.iter().zip(after.iter()).filter(|(a, b)| a != b).count(), 1);
    }

    #[test]
    fn raw_and_f32_detection_agree_on_grid_values() {
        for config in [RangeGuardConfig::paper(), RangeGuardConfig::full_precision(0.1)] {
            let format = QFormat::Q3_4;
            let guard = RangeGuard::from_bounds([(0, -1.3, 1.7)], format, config);
            for raw in format.min_raw()..=format.max_raw() {
                let value = raw as f32 * format.resolution();
                assert_eq!(
                    guard.is_anomalous_in(0, raw, &format),
                    guard.is_anomalous_in(0, value, &()),
                    "raw {raw} (value {value}) disagrees under {config:?}"
                );
            }
        }
    }

    #[test]
    fn i8_scrub_zeroes_bytes_outside_the_affine_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut net = mlp(&[4, 3], &mut rng);
        for w in net.layer_weights_mut(0).expect("weights") {
            *w = 0.2;
        }
        let mut inet = navft_nn::I8Network::quantize_with(&net, I8Affine { scale: 0.01 });
        let guard =
            RangeGuard::from_bounds([(0, -0.5, 0.5)], QFormat::Q3_4, RangeGuardConfig::paper());
        assert_eq!(guard.count_anomalies(&inet), 0);
        // Corrupt one byte far past the widened bound (0.55 → byte 55).
        inet.layer_weights_mut(0).expect("bytes")[3] = 100;
        assert!(guard.is_anomalous_in(0, 100i8, &inet.affine()));
        assert_eq!(guard.count_anomalies(&inet), 1);
        assert_eq!(guard.scrub(&mut inet), 1);
        assert_eq!(inet.layer_weights(0).expect("bytes")[3], 0);
        assert_eq!(guard.count_anomalies(&inet), 0);
    }

    #[test]
    fn i8_bounds_quantize_onto_the_affine_grid_and_clamp() {
        let affine = I8Affine { scale: 0.25 };
        let config = RangeGuardConfig::paper();
        let bounds =
            <i8 as GuardedElement>::layer_bounds(-1.3, 1.7, QFormat::Q3_4, &config, &affine);
        // ceil(-1.3/0.25) = -5, floor(1.7/0.25) = 6.
        assert_eq!(bounds, (-5, 6));
        let wide =
            <i8 as GuardedElement>::layer_bounds(-100.0, 100.0, QFormat::Q3_4, &config, &affine);
        assert_eq!(wide, (-128, 127));
    }

    #[test]
    #[should_panic(expected = "guard format does not match")]
    fn quantized_scrub_rejects_mismatched_formats() {
        let net = network(6);
        let guard = RangeGuard::from_network(&net, QFormat::Q4_11, RangeGuardConfig::paper());
        let mut qnet = net.to_quantized(QFormat::Q3_4);
        let _ = guard.scrub(&mut qnet);
    }

    #[test]
    fn scrub_buffer_zeroes_outliers_in_place_per_backend() {
        let format = QFormat::Q4_11;
        let guard = RangeGuard::from_bounds([(0, -1.0, 1.0)], format, RangeGuardConfig::paper());

        // f32: two genuine outliers, one in-range value.
        let mut floats = [0.5f32, 9.0, -12.0];
        assert_eq!(guard.scrub_buffer(0, &mut floats, &()), 2);
        assert_eq!(floats, [0.5, 0.0, 0.0]);

        // Raw Q-format words: same comparison on the live integer words.
        let mut raws = [
            QValue::quantize(0.5, format).raw(),
            QValue::quantize(9.0, format).raw(),
            QValue::quantize(-12.0, format).raw(),
        ];
        let kept = raws[0];
        assert_eq!(guard.scrub_buffer(0, &mut raws, &format), 2);
        assert_eq!(raws, [kept, 0, 0]);

        // i8 affine bytes: bound ±1.1 on a 0.02 grid → |byte| > 55 scrubs.
        let affine = I8Affine { scale: 0.02 };
        let mut bytes = [25i8, 100, -100];
        assert_eq!(guard.scrub_buffer(0, &mut bytes, &affine), 2);
        assert_eq!(bytes, [25, 0, 0]);
    }

    #[test]
    fn scrub_buffer_ignores_unguarded_layers() {
        let guard =
            RangeGuard::from_bounds([(1, -1.0, 1.0)], QFormat::Q4_11, RangeGuardConfig::paper());
        let mut values = [50.0f32, -80.0];
        assert_eq!(guard.scrub_buffer(0, &mut values, &()), 0);
        assert_eq!(values, [50.0, -80.0]);
        assert_eq!(guard.scrub_buffer(1, &mut values, &()), 2);
    }

    #[test]
    fn scrub_buffer_agrees_with_is_anomalous_in() {
        let guard =
            RangeGuard::from_bounds([(0, -1.3, 1.7)], QFormat::Q3_4, RangeGuardConfig::paper());
        let format = QFormat::Q3_4;
        let mut buf: Vec<i32> = (format.min_raw()..=format.max_raw()).collect();
        let expected = buf.iter().filter(|&&raw| guard.is_anomalous_in(0, raw, &format)).count();
        assert_eq!(guard.scrub_buffer(0, &mut buf, &format), expected);
        assert!(buf.iter().zip(format.min_raw()..=format.max_raw()).all(|(&now, raw)| {
            if guard.is_anomalous_in(0, raw, &format) {
                now == 0
            } else {
                now == raw
            }
        }));
    }

    #[test]
    fn activation_guard_zeroes_escaped_activations() {
        let net = network(4);
        let mut recorder = RangeRecorder::new();
        for i in 0..8 {
            net.forward_with(&Tensor::full(&[8], i as f32 * 0.1), &mut recorder);
        }
        let mut guard = ActivationGuard::new(recorder.ranges(), 0.1);
        // Feed an absurdly large input, simulating a corrupted input buffer:
        // activations escape the calibrated range and get clamped.
        let wild = Tensor::full(&[8], 500.0);
        let out = net.forward_with(&wild, &mut guard);
        assert!(guard.clamped() > 0);
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn guard_config_accessors() {
        let guard =
            RangeGuard::from_bounds([(0, 0.0, 1.0)], QFormat::Q3_4, RangeGuardConfig::paper());
        assert_eq!(guard.config(), RangeGuardConfig::paper());
        assert_eq!(RangeGuardConfig::default(), RangeGuardConfig::paper());
        assert!(!RangeGuardConfig::full_precision(0.2).integer_bits_only);
    }

    #[test]
    fn widen_expands_both_signs() {
        let (lo, hi) = widen(-2.0, 4.0, 0.1);
        assert!(lo < -2.0 && lo > -2.3);
        assert!(hi > 4.0 && hi < 4.5);
        let (lo, hi) = widen(1.0, 2.0, 0.1);
        assert!(lo < 1.0);
        assert!(hi > 2.0);
    }
}
