//! The `i8` per-tensor affine backend's network alias and its scale
//! choice.
//!
//! [`I8Network`] is [`NetworkBase`]`<i8>` — the same generic layers, engine,
//! blocked GEMM and SIMD dispatch as the other backends, with the
//! [`Element`] impl for `i8` supplying the arithmetic. One symmetric scale
//! covers the whole network ([`I8Affine`], the serving-style Int8 scheme of
//! inference runtimes), byte products accumulate exactly in a widened
//! `i32`, and each output element gets one rounding, saturating requantize.
//! Compiling, decompiling, bit statistics and display are the generic
//! quantized-network paths of [`crate::QuantizedElement`]; only the choice
//! of the scale lives here.
//!
//! [`Element`]: crate::Element

use crate::element::I8Affine;
use crate::network::NetworkBase;
use crate::{Network, Scratch};

/// Activation storage for the `i8` backend: a [`Scratch`] over affine bytes.
pub type I8Scratch = Scratch<i8>;

/// A feed-forward network executing natively on `i8` affine bytes — the
/// byte instantiation of the generic [`NetworkBase`].
///
/// An `I8Network` is the Int8 compilation of a [`Network`]: same topology,
/// one per-network symmetric scale chosen from the parameters' maximum
/// magnitude, every buffer stored as live bytes, and every forward pass
/// runs in integer arithmetic with one requantize per output element
/// through the same generic engine as the other backends.
///
/// # Examples
///
/// ```
/// use navft_nn::{mlp, I8Network, I8Tensor, Tensor};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let net = mlp(&[4, 8, 2], &mut rng);
/// let i8net = I8Network::quantize(&net);
/// let input = I8Tensor::quantize(&Tensor::zeros(&[4]), i8net.affine());
/// let out = i8net.forward(&input);
/// assert_eq!(out.len(), 2);
/// ```
pub type I8Network = NetworkBase<i8>;

impl I8Network {
    /// Compiles `network` into an `i8` affine network, choosing the
    /// symmetric per-network scale from the largest parameter magnitude
    /// (post-training quantization of weights and biases).
    pub fn quantize(network: &Network) -> I8Network {
        let mut max_abs = 0.0f32;
        for layer in network.layers() {
            for buffer in [layer.weights(), layer.biases()].into_iter().flatten() {
                for &v in buffer {
                    max_abs = max_abs.max(v.abs());
                }
            }
        }
        I8Network::quantize_with(network, I8Affine::from_max_abs(max_abs))
    }

    /// The affine every buffer of this network is stored in.
    pub fn affine(&self) -> I8Affine {
        *self.net_meta()
    }

    /// The value of one least-significant step.
    pub fn scale(&self) -> f32 {
        self.affine().scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, Kernels};
    use crate::{ForwardHooks, I8Tensor, LayerKind, NoHooks, Tensor};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_i8net(seed: u64) -> I8Network {
        let mut rng = SmallRng::seed_from_u64(seed);
        I8Network::quantize(&crate::mlp(&[3, 8, 2], &mut rng))
    }

    #[test]
    fn quantize_preserves_topology_and_spans() {
        let mut rng = SmallRng::seed_from_u64(0);
        let net = crate::mlp(&[3, 8, 2], &mut rng);
        let i8net = I8Network::quantize(&net);
        assert_eq!(i8net.num_layers(), net.num_layers());
        assert_eq!(i8net.parametric_layers(), net.parametric_layers());
        assert_eq!(i8net.weight_count(), net.weight_count());
        for index in i8net.parametric_layers() {
            assert_eq!(i8net.weight_span(index), net.weight_span(index));
        }
        assert!(i8net.scale() > 0.0);
    }

    #[test]
    fn quantize_scale_covers_the_largest_parameter() {
        let mut rng = SmallRng::seed_from_u64(1);
        let net = crate::mlp(&[3, 8, 2], &mut rng);
        let i8net = I8Network::quantize(&net);
        let mut max_abs = 0.0f32;
        for layer in net.layers() {
            for buffer in [layer.weights(), layer.biases()].into_iter().flatten() {
                for &v in buffer {
                    max_abs = max_abs.max(v.abs());
                }
            }
        }
        // The extreme parameter quantizes to ±127, i.e. nothing saturated.
        assert!((i8net.scale() - max_abs / 127.0).abs() < 1e-9);
        let extreme = i8net
            .layers()
            .iter()
            .flat_map(|l| [l.weights(), l.biases()])
            .flatten()
            .flat_map(|buf| buf.iter().map(|&b| i32::from(b).abs()))
            .max()
            .expect("parameters");
        assert_eq!(extreme, 127);
    }

    #[test]
    fn dequantize_round_trips_onto_the_affine_grid() {
        let i8net = tiny_i8net(2);
        let float = i8net.dequantize();
        let again = I8Network::quantize_with(&float, i8net.affine());
        for index in i8net.parametric_layers() {
            assert_eq!(
                i8net.layer_weights(index),
                again.layer_weights(index),
                "layer {index} bytes must survive the round trip"
            );
        }
    }

    #[test]
    fn batched_i8_pass_is_bit_identical_to_serial() {
        let i8net = tiny_i8net(3);
        let affine = i8net.affine();
        let inputs: Vec<I8Tensor> = (0..5)
            .map(|i| {
                I8Tensor::quantize(
                    &Tensor::from_vec(&[3], vec![0.3 * i as f32 - 0.5, 0.25, -0.1 * i as f32]),
                    affine,
                )
            })
            .collect();
        let mut scratch = I8Scratch::new();
        i8net.forward_batch_into_cfg(&inputs, &mut scratch, &mut NoHooks, EngineConfig::default());
        for (b, input) in inputs.iter().enumerate() {
            assert_eq!(scratch.row(b), i8net.forward(input).words());
        }
    }

    #[test]
    fn naive_and_blocked_i8_paths_are_bit_identical() {
        let i8net = tiny_i8net(4);
        let affine = i8net.affine();
        let mut rng = SmallRng::seed_from_u64(5);
        let inputs: Vec<I8Tensor> = (0..7)
            .map(|_| I8Tensor::quantize(&Tensor::uniform(&[3], 1.0, &mut rng), affine))
            .collect();
        let mut blocked = I8Scratch::new();
        i8net.forward_batch_into_cfg(&inputs, &mut blocked, &mut NoHooks, EngineConfig::default());
        let mut naive = I8Scratch::new();
        let naive_cfg = EngineConfig { kernels: Kernels::Naive };
        i8net.forward_batch_into_cfg(&inputs, &mut naive, &mut NoHooks, naive_cfg);
        for b in 0..inputs.len() {
            assert_eq!(blocked.row(b), naive.row(b), "row {b} diverged");
        }
    }

    #[test]
    fn hooks_can_corrupt_live_bytes() {
        struct ZeroFirstActivation;
        impl ForwardHooks<i8> for ZeroFirstActivation {
            fn on_activation(&mut self, layer: usize, _k: LayerKind, words: &mut [i8]) {
                if layer == 0 {
                    words.iter_mut().for_each(|w| *w = 0);
                }
            }
        }
        let i8net = tiny_i8net(6);
        let input = I8Tensor::quantize(&Tensor::full(&[3], 1.0), i8net.affine());
        let clean = i8net.forward(&input);
        let hooked = i8net.forward_with(&input, &mut ZeroFirstActivation);
        // Zeroing the first linear layer's output leaves only fc2's bias,
        // lifted into the accumulator and requantized once.
        let ctx = i8net.affine();
        let expected: Vec<i8> = i8net.layers()[2]
            .biases()
            .expect("fc2 bias")
            .iter()
            .map(|&b| <i8 as crate::Element>::finish(<i8 as crate::Element>::acc_init(b, ctx), ctx))
            .collect();
        assert_eq!(hooked.words(), expected.as_slice());
        assert_ne!(clean.words(), hooked.words());
    }

    #[test]
    fn i8_batched_steady_state_does_not_grow_the_scratch() {
        let i8net = tiny_i8net(7);
        let inputs = vec![I8Tensor::quantize(&Tensor::full(&[3], 0.5), i8net.affine()); 4];
        let mut scratch = I8Scratch::new();
        let config = EngineConfig::default();
        i8net.forward_batch_into_cfg(&inputs, &mut scratch, &mut NoHooks, config);
        let warm = scratch.grow_events();
        for _ in 0..20 {
            i8net.forward_batch_into_cfg(&inputs, &mut scratch, &mut NoHooks, config);
        }
        assert_eq!(scratch.grow_events(), warm, "warm i8 passes must not allocate");
    }

    #[test]
    fn bit_stats_cover_parameters_and_activations() {
        let i8net = tiny_i8net(8);
        let mut scratch = I8Scratch::new();
        let weights_only = i8net.bit_stats(&[], &mut scratch);
        let param_words: usize = i8net.weight_count()
            + i8net.layers().iter().filter_map(|l| l.biases().map(<[i8]>::len)).sum::<usize>();
        assert_eq!(weights_only.total_bits(), (param_words * 8) as u64);
        let input = I8Tensor::quantize(&Tensor::full(&[3], 0.5), i8net.affine());
        let with_acts = i8net.bit_stats(std::slice::from_ref(&input), &mut scratch);
        // input (3) + linear (8) + relu (8) + linear (2) activation words.
        assert_eq!(with_acts.total_bits(), weights_only.total_bits() + 21 * 8);
    }

    #[test]
    fn display_lists_layers_and_scale() {
        let i8net = tiny_i8net(9);
        let text = i8net.to_string();
        assert!(text.contains("linear"));
        assert!(text.contains("scale"));
    }

    #[test]
    #[should_panic(expected = "scale does not match")]
    fn forward_rejects_mismatched_input_scale() {
        let i8net = tiny_i8net(10);
        let input = I8Tensor::quantize(&Tensor::zeros(&[3]), I8Affine { scale: 123.0 });
        let _ = i8net.forward(&input);
    }
}
