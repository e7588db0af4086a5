//! The quantized backends: the compile and decompile path between a trained
//! `f32` network and its stored-word instantiations, written once for both
//! integer backends.
//!
//! The `f32` backend *simulates* a fixed-point datapath by requantizing
//! activations after every layer; the integer backends *are* the datapath.
//! [`QNetwork`] is [`NetworkBase`]`<i32>` (raw two's-complement Q-format
//! words) and [`I8Network`](crate::I8Network) is [`NetworkBase`]`<i8>`
//! (per-network symmetric affine bytes) — the same generic layers, engine
//! and blocked GEMM as the float backend, with the [`Element`] impls
//! supplying the arithmetic: a widened accumulator and one saturating,
//! round-to-nearest requantize per output element — exactly an integer MAC
//! array. The live buffers a fault campaign corrupts (weights, inputs,
//! activations) therefore exist as stored words at inference time, and
//! corrupting them is a single integer operation.
//!
//! What differs between the two integer backends at compile time — how an
//! `f32` parameter snaps onto the grid, which activation format the float
//! simulation runs, how wide a stored word is — is the
//! [`QuantizedElement`] trait; everything else here is one generic body.

use std::fmt;

use navft_qformat::{bitstats::BitStats, QFormat, QValue};

use crate::element::{Element, I8Affine};
use crate::engine::EngineConfig;
use crate::layer::{Conv2dBase, LayerBase, LinearBase};
use crate::network::{ForwardHooks, NetworkBase};
use crate::tensor::TensorBase;
use crate::{LayerKind, Network, QTensor, Scratch};

/// Activation storage for the native fixed-point backend: a [`Scratch`] over
/// raw Q-format words.
pub type QScratch = Scratch<i32>;

/// A 2-D convolution over raw Q-format words (valid padding) — the `i32`
/// instantiation of the generic [`Conv2dBase`].
pub type QConv2d = Conv2dBase<i32>;

/// A fully-connected layer `y = W x + b` over raw Q-format words — the
/// `i32` instantiation of the generic [`LinearBase`].
pub type QLinear = LinearBase<i32>;

/// A layer of the native fixed-point backend — the `i32` instantiation of
/// the generic [`LayerBase`].
pub type QLayer = LayerBase<i32>;

/// A 2-D convolution over affine bytes (valid padding) — the `i8`
/// instantiation of the generic [`Conv2dBase`].
pub type I8Conv2d = Conv2dBase<i8>;

/// A fully-connected layer `y = W x + b` over affine bytes — the `i8`
/// instantiation of the generic [`LinearBase`].
pub type I8Linear = LinearBase<i8>;

/// A layer of the `i8` backend — the `i8` instantiation of the generic
/// [`LayerBase`].
pub type I8Layer = LayerBase<i8>;

/// A stored-word element a trained `f32` network compiles into: the
/// per-backend facts the generic quantize, dequantize, bit-statistics and
/// display paths need on top of [`Element`].
pub trait QuantizedElement: Element + Into<i32> {
    /// The network type's display name.
    const NETWORK_NAME: &'static str;

    /// Snaps one `f32` parameter onto the network's grid, saturating at the
    /// word's extremes.
    fn quantize_value(value: f32, net: &Self::NetMeta) -> Self;

    /// The activation format the `f32` simulation of a network runs with
    /// (`None` when the backend has no binary-point format to simulate).
    fn simulation_format(net: &Self::NetMeta) -> Option<QFormat>;

    /// A format as wide as one stored word, which is all bit-population
    /// statistics need.
    fn bit_format(net: &Self::NetMeta) -> QFormat;

    /// Writes the network metadata's part of the display string.
    fn fmt_meta(net: &Self::NetMeta, f: &mut fmt::Formatter<'_>) -> fmt::Result;
}

impl QuantizedElement for i32 {
    const NETWORK_NAME: &'static str = "QNetwork";

    fn quantize_value(value: f32, net: &QFormat) -> i32 {
        QValue::quantize(value, *net).raw()
    }

    fn simulation_format(net: &QFormat) -> Option<QFormat> {
        Some(*net)
    }

    fn bit_format(net: &QFormat) -> QFormat {
        *net
    }

    fn fmt_meta(net: &QFormat, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "in {net}")
    }
}

impl QuantizedElement for i8 {
    const NETWORK_NAME: &'static str = "I8Network";

    fn quantize_value(value: f32, net: &I8Affine) -> i8 {
        net.quantize(value)
    }

    fn simulation_format(_net: &I8Affine) -> Option<QFormat> {
        None
    }

    fn bit_format(_net: &I8Affine) -> QFormat {
        // Any 8-bit format: only the word width matters for bit counts.
        QFormat::Q3_4
    }

    fn fmt_meta(net: &I8Affine, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at scale {}", net.scale)
    }
}

impl<E: QuantizedElement> NetworkBase<E> {
    /// Compiles `network` onto an explicit grid (post-training quantization
    /// of weights and biases): a [`QFormat`] for [`QNetwork`], an
    /// [`I8Affine`] for [`I8Network`](crate::I8Network).
    pub fn quantize_with(network: &Network, meta: E::NetMeta) -> NetworkBase<E> {
        let layers = network
            .layers()
            .iter()
            .map(|layer| layer.map_params(|v| E::quantize_value(v, &meta)))
            .collect();
        NetworkBase::from_parts(layers, meta)
    }

    /// Decompiles back into an `f32` [`Network`] whose parameters sit exactly
    /// on this network's grid — with the activation format set where the
    /// backend has one — the float *simulation* the equivalence suites
    /// compare against.
    pub fn dequantize(&self) -> Network {
        let meta = *self.net_meta();
        let layers =
            self.layers().iter().map(|layer| layer.map_params(|w| w.value_to_f32(&meta))).collect();
        let network = Network::new(layers);
        match E::simulation_format(&meta) {
            Some(format) => network.with_activation_format(format),
            None => network,
        }
    }

    /// Bit-population statistics over the network's parameter words and —
    /// when `calibration` inputs are given — every activation buffer (input
    /// included) produced by forwarding them. One call sweeps the whole
    /// fault surface, feeding the per-format zero/one-bit-ratio report of
    /// the data-type experiment.
    ///
    /// # Panics
    ///
    /// Panics if a calibration input's metadata differs from the network's.
    pub fn bit_stats(&self, calibration: &[TensorBase<E>], scratch: &mut Scratch<E>) -> BitStats {
        struct StatsHook {
            stats: BitStats,
            format: QFormat,
        }
        impl StatsHook {
            fn count<E: QuantizedElement>(&mut self, words: &[E]) {
                self.stats.extend_raw(words.iter().map(|&w| w.into()), self.format);
            }
        }
        impl<E: QuantizedElement> ForwardHooks<E> for StatsHook {
            fn on_input(&mut self, words: &mut [E]) {
                self.count(words);
            }
            fn on_activation(&mut self, _i: usize, _k: LayerKind, words: &mut [E]) {
                self.count(words);
            }
        }
        let mut hook = StatsHook { stats: BitStats::new(), format: E::bit_format(self.net_meta()) };
        for layer in self.layers() {
            for buffer in [layer.weights(), layer.biases()].into_iter().flatten() {
                hook.count(buffer);
            }
        }
        self.forward_batch_into_cfg(calibration, scratch, &mut hook, EngineConfig::default());
        hook.stats
    }
}

impl<E: QuantizedElement> fmt::Display for NetworkBase<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", E::NETWORK_NAME)?;
        for (i, layer) in self.layers().iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{}", layer.kind())?;
        }
        write!(f, "] ({} weights ", self.weight_count())?;
        E::fmt_meta(self.net_meta(), f)?;
        write!(f, ")")
    }
}

/// A feed-forward network executing natively in one [`QFormat`] — the
/// raw-word instantiation of the generic [`NetworkBase`].
///
/// A `QNetwork` is the fixed-point compilation of a [`Network`]: same
/// topology, parameters snapped to the format and stored as raw
/// two's-complement words, and every forward pass runs in integer
/// arithmetic end to end through the same generic engine as the float
/// backend. Activations are raw words too, so the paper's fault model
/// corrupts the buffers that actually exist at inference time.
///
/// # Examples
///
/// ```
/// use navft_nn::{mlp, QNetwork, QTensor, Tensor};
/// use navft_qformat::QFormat;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let net = mlp(&[4, 8, 2], &mut rng);
/// let qnet = QNetwork::quantize(&net, QFormat::Q4_11);
/// let input = QTensor::quantize(&Tensor::zeros(&[4]), QFormat::Q4_11);
/// let out = qnet.forward(&input);
/// assert_eq!(out.len(), 2);
/// ```
pub type QNetwork = NetworkBase<i32>;

impl QNetwork {
    /// Compiles `network` into a native fixed-point network in `format`
    /// (post-training quantization of weights and biases).
    pub fn quantize(network: &Network, format: QFormat) -> QNetwork {
        QNetwork::quantize_with(network, format)
    }

    /// The format every buffer of this network is stored in.
    pub fn format(&self) -> QFormat {
        *self.net_meta()
    }
}

/// Bit-population statistics over an `f32` network's whole fault surface in
/// one call: every weight and bias buffer plus — when `calibration` inputs
/// are given — every activation buffer (input included) a forward pass
/// produces, all quantized into `format`.
///
/// This is the network-level [`BitStats`] sweep behind the zero/one
/// bit-ratio analysis of the data-type experiment; the native equivalent for
/// an already-quantized network is [`NetworkBase::bit_stats`].
pub fn network_bit_stats(
    network: &Network,
    format: QFormat,
    calibration: &[crate::Tensor],
) -> BitStats {
    let qnet = QNetwork::quantize(network, format);
    let inputs: Vec<QTensor> = calibration.iter().map(|t| QTensor::quantize(t, format)).collect();
    let mut scratch = QScratch::new();
    qnet.bit_stats(&inputs, &mut scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Kernels;
    use crate::{NoHooks, Tensor};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_qnet(seed: u64, format: QFormat) -> QNetwork {
        let mut rng = SmallRng::seed_from_u64(seed);
        QNetwork::quantize(&crate::mlp(&[3, 8, 2], &mut rng), format)
    }

    #[test]
    fn quantize_preserves_topology_and_spans() {
        let mut rng = SmallRng::seed_from_u64(0);
        let net = crate::mlp(&[3, 8, 2], &mut rng);
        let qnet = QNetwork::quantize(&net, QFormat::Q4_11);
        assert_eq!(qnet.num_layers(), net.num_layers());
        assert_eq!(qnet.parametric_layers(), net.parametric_layers());
        assert_eq!(qnet.weight_count(), net.weight_count());
        for index in qnet.parametric_layers() {
            assert_eq!(qnet.weight_span(index), net.weight_span(index));
        }
        assert_eq!(qnet.format(), QFormat::Q4_11);
    }

    #[test]
    fn native_forward_matches_float_simulation_on_a_tiny_mlp() {
        let format = QFormat::Q3_4;
        let qnet = tiny_qnet(1, format);
        let reference = qnet.dequantize();
        let input = QTensor::quantize(&Tensor::from_vec(&[3], vec![0.5, -0.25, 1.0]), format);
        let native = qnet.forward(&input);
        let simulated = reference.forward(&input.dequantize());
        for (n, s) in native.dequantize().data().iter().zip(simulated.data().iter()) {
            assert!(
                (n - s).abs() <= format.resolution(),
                "native {n} vs simulated {s} diverge past one LSB"
            );
        }
    }

    #[test]
    fn batched_native_pass_is_bit_identical_to_serial() {
        let format = QFormat::Q4_11;
        let qnet = tiny_qnet(2, format);
        let inputs: Vec<QTensor> = (0..5)
            .map(|i| {
                QTensor::quantize(
                    &Tensor::from_vec(&[3], vec![0.3 * i as f32 - 0.5, 0.25, -0.1 * i as f32]),
                    format,
                )
            })
            .collect();
        let mut scratch = QScratch::new();
        qnet.forward_batch_into_cfg(&inputs, &mut scratch, &mut NoHooks, EngineConfig::default());
        for (b, input) in inputs.iter().enumerate() {
            assert_eq!(scratch.row(b), qnet.forward(input).words());
        }
    }

    #[test]
    fn native_batched_steady_state_does_not_grow_the_scratch() {
        let qnet = tiny_qnet(3, QFormat::Q3_4);
        let inputs = vec![QTensor::quantize(&Tensor::full(&[3], 0.5), QFormat::Q3_4); 4];
        let mut scratch = QScratch::new();
        let config = EngineConfig::default();
        qnet.forward_batch_into_cfg(&inputs, &mut scratch, &mut NoHooks, config);
        let warm = scratch.grow_events();
        for _ in 0..20 {
            qnet.forward_batch_into_cfg(&inputs, &mut scratch, &mut NoHooks, config);
        }
        assert_eq!(scratch.grow_events(), warm, "warm native passes must not allocate");
    }

    #[test]
    fn hooks_can_corrupt_live_words() {
        struct ZeroFirstActivation;
        impl ForwardHooks<i32> for ZeroFirstActivation {
            fn on_activation(&mut self, layer: usize, _k: LayerKind, words: &mut [i32]) {
                if layer == 0 {
                    words.iter_mut().for_each(|w| *w = 0);
                }
            }
        }
        let format = QFormat::Q3_4;
        let qnet = tiny_qnet(4, format);
        let input = QTensor::quantize(&Tensor::full(&[3], 1.0), format);
        let clean = qnet.forward(&input);
        let hooked = qnet.forward_with(&input, &mut ZeroFirstActivation);
        // Zeroing the first linear layer's output leaves only fc2's bias.
        let bias = qnet.layers()[2].biases().expect("fc2 bias");
        assert_eq!(hooked.words(), bias);
        assert_ne!(clean.words(), hooked.words());
    }

    #[test]
    fn relu_in_place_zeroes_negative_words() {
        let mut words = vec![-3, 0, 5];
        QLayer::relu_in_place(&mut words);
        assert_eq!(words, vec![0, 0, 5]);
    }

    #[test]
    fn weight_ranges_are_dequantized_extrema() {
        let qnet = tiny_qnet(5, QFormat::Q3_4);
        for (layer, lo, hi) in qnet.weight_ranges() {
            let words = qnet.layer_weights(layer).expect("weights");
            let min = *words.iter().min().expect("non-empty") as f32 * 0.0625;
            let max = *words.iter().max().expect("non-empty") as f32 * 0.0625;
            assert_eq!((lo, hi), (min, max));
        }
    }

    #[test]
    fn bit_stats_cover_parameters_and_activations() {
        let format = QFormat::Q3_4;
        let qnet = tiny_qnet(6, format);
        let mut scratch = QScratch::new();
        let weights_only = qnet.bit_stats(&[], &mut scratch);
        let param_words: usize = qnet.weight_count()
            + qnet.layers().iter().filter_map(|l| l.biases().map(<[i32]>::len)).sum::<usize>();
        assert_eq!(weights_only.total_bits(), (param_words * 8) as u64);
        let input = QTensor::quantize(&Tensor::full(&[3], 0.5), format);
        let with_acts = qnet.bit_stats(std::slice::from_ref(&input), &mut scratch);
        // input (3) + linear (8) + relu (8) + linear (2) activation words.
        assert_eq!(with_acts.total_bits(), weights_only.total_bits() + 21 * 8);
    }

    #[test]
    fn network_bit_stats_matches_native_sweep() {
        let mut rng = SmallRng::seed_from_u64(7);
        let net = crate::mlp(&[3, 8, 2], &mut rng);
        let format = QFormat::Q4_11;
        let calibration = vec![Tensor::full(&[3], 0.25)];
        let via_f32 = network_bit_stats(&net, format, &calibration);
        let qnet = QNetwork::quantize(&net, format);
        let qcal: Vec<QTensor> = calibration.iter().map(|t| QTensor::quantize(t, format)).collect();
        let mut scratch = QScratch::new();
        assert_eq!(via_f32, qnet.bit_stats(&qcal, &mut scratch));
    }

    #[test]
    fn display_lists_layers_and_format() {
        let qnet = tiny_qnet(8, QFormat::Q3_4);
        let text = qnet.to_string();
        assert!(text.contains("linear"));
        assert!(text.contains("Q(1,3,4)"));
    }

    #[test]
    #[should_panic(expected = "format does not match")]
    fn forward_rejects_mismatched_input_format() {
        let qnet = tiny_qnet(9, QFormat::Q3_4);
        let input = QTensor::quantize(&Tensor::zeros(&[3]), QFormat::Q4_11);
        let _ = qnet.forward(&input);
    }

    #[test]
    fn naive_and_blocked_native_paths_are_bit_identical() {
        let format = QFormat::Q4_11;
        let qnet = tiny_qnet(10, format);
        let mut rng = SmallRng::seed_from_u64(11);
        let inputs: Vec<QTensor> = (0..7)
            .map(|_| QTensor::quantize(&Tensor::uniform(&[3], 1.0, &mut rng), format))
            .collect();
        let mut blocked = QScratch::new();
        qnet.forward_batch_into_cfg(&inputs, &mut blocked, &mut NoHooks, EngineConfig::default());
        let mut naive = QScratch::new();
        let naive_cfg = EngineConfig { kernels: Kernels::Naive };
        qnet.forward_batch_into_cfg(&inputs, &mut naive, &mut NoHooks, naive_cfg);
        for b in 0..inputs.len() {
            assert_eq!(blocked.row(b), naive.row(b), "row {b} diverged");
        }
    }
}
