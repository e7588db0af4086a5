//! Property tests pinning the training path of the `f32` network bit for
//! bit against straightforward reference loops:
//!
//! * [`Network::backward_tail`] — which skips dead gradients, stops at the
//!   first frozen layer and updates each weight row in one vectorizable
//!   pass — against the per-element loop it replaced, kept here as the
//!   oracle: random MLP widths, every `trainable_from`, output gradients
//!   with zeros in them, non-finite weights and a convolution-headed stack;
//! * [`Network::forward_traced_into`] — which runs on the blocked GEMM and
//!   im2row kernels — against a per-layer pass on the naive kernels.

use navft_nn::layer::{Conv2d, Linear, MaxPool2d};
use navft_nn::{mlp, ForwardTrace, Layer, Network, Tensor};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The reference back-propagation loop: computes every input gradient,
/// walks every layer down to the first convolution or pooling layer, and
/// updates the weights of the layers at or above `trainable_from`
/// element by element. Returns the number of updated layers.
fn oracle_backward_tail(
    layers: &mut [Layer],
    trace: &ForwardTrace,
    output_grad: &[f32],
    lr: f32,
    trainable_from: usize,
) -> usize {
    let mut grad = output_grad.to_vec();
    let mut updated = 0;
    for index in (0..layers.len()).rev() {
        let input = &trace.values[index];
        match &mut layers[index] {
            Layer::Linear(linear) => {
                let x = input.data();
                let mut input_grad = vec![0.0f32; linear.in_features];
                for (o, &g) in grad.iter().enumerate().take(linear.out_features) {
                    let row_start = o * linear.in_features;
                    if index >= trainable_from {
                        linear.bias[o] -= lr * g;
                    }
                    for j in 0..linear.in_features {
                        input_grad[j] += linear.weights[row_start + j] * g;
                        if index >= trainable_from {
                            linear.weights[row_start + j] -= lr * g * x[j];
                        }
                    }
                }
                if index >= trainable_from {
                    updated += 1;
                }
                grad = input_grad;
            }
            Layer::Relu => {
                for (g, &x) in grad.iter_mut().zip(input.data().iter()) {
                    if x <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            Layer::Flatten => {}
            Layer::Conv2d(_) | Layer::MaxPool2d(_) => break,
        }
        if index == 0 {
            break;
        }
    }
    updated
}

/// The reference traced pass: every layer on the naive per-element kernels.
fn oracle_trace(net: &Network, input: &Tensor) -> Vec<Vec<f32>> {
    let mut values = vec![input.data().to_vec()];
    let mut shape = input.shape().to_vec();
    let mut next_shape = Vec::new();
    for layer in net.layers() {
        layer.output_shape(&shape, &mut next_shape);
        let mut out = vec![0.0f32; next_shape.iter().product()];
        layer.forward_naive(values.last().expect("input"), &shape, &mut out, ());
        values.push(out);
        std::mem::swap(&mut shape, &mut next_shape);
    }
    values
}

/// Every weight and bias of `layers`, as bit patterns.
fn param_bits(layers: &[Layer]) -> Vec<u32> {
    layers
        .iter()
        .flat_map(|l| l.weights().into_iter().chain(l.biases()).flatten())
        .map(|v| v.to_bits())
        .collect()
}

/// An output gradient with roughly a third of its entries exactly zero (a
/// DQN gradient is zero everywhere but the taken action).
fn gradient(len: usize, rng: &mut SmallRng) -> Vec<f32> {
    (0..len).map(|_| if rng.gen_bool(0.35) { 0.0 } else { rng.gen_range(-2.0f32..=2.0) }).collect()
}

/// A convolution-headed stack like the drone policy's: conv/relu(/pool)
/// feature extractor, flattened into a two-layer linear tail.
fn conv_headed_net(rng: &mut SmallRng) -> (Network, Vec<usize>) {
    let channels = 1 + rng.gen_range(0usize..3);
    let size = 6 + rng.gen_range(0usize..5);
    let filters = 1 + rng.gen_range(0usize..4);
    let conv = Conv2d::new(channels, filters, 3, 1 + rng.gen_range(0usize..2), rng);
    let mut spatial = conv.output_size(size);
    let mut layers = vec![Layer::Conv2d(conv), Layer::Relu];
    if spatial >= 2 && rng.gen_bool(0.5) {
        layers.push(Layer::MaxPool2d(MaxPool2d::new(2, 2)));
        spatial = (spatial - 2) / 2 + 1;
    }
    layers.push(Layer::Flatten);
    let hidden = 1 + rng.gen_range(0usize..20);
    layers.push(Layer::Linear(Linear::new(filters * spatial * spatial, hidden, rng)));
    layers.push(Layer::Relu);
    layers.push(Layer::Linear(Linear::new(hidden, 1 + rng.gen_range(0usize..5), rng)));
    (Network::new(layers), vec![channels, size, size])
}

/// Runs `steps` traced forward + backward steps on `net` and on the oracle
/// side by side, asserting bit-identical traces, parameters and update
/// counts after each one.
fn check_against_oracle(net: &Network, in_shape: &[usize], seed: u64, steps: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let lr = rng.gen_range(0.001f32..0.2);
    for trainable_from in 0..=net.num_layers() {
        let mut fast = net.clone();
        let mut reference: Vec<Layer> = net.layers().to_vec();
        let mut trace = ForwardTrace::new();
        for step in 0..steps {
            // Both sides hold the same parameters here (asserted at the end
            // of every step), so one trace feeds both backward passes.
            let input = Tensor::uniform(in_shape, 1.0, &mut rng);
            fast.forward_traced_into(&input, &mut trace);
            for (i, (got, want)) in trace.values.iter().zip(oracle_trace(&fast, &input)).enumerate()
            {
                let got: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "trace value {i}, trainable_from {trainable_from}");
            }
            let output_grad = gradient(trace.output().len(), &mut rng);
            let updated = fast.backward_tail(&trace, &output_grad, lr, trainable_from);
            let oracle_updated =
                oracle_backward_tail(&mut reference, &trace, &output_grad, lr, trainable_from);
            assert_eq!(updated, oracle_updated, "step {step}, trainable_from {trainable_from}");
            assert_eq!(
                param_bits(fast.layers()),
                param_bits(&reference),
                "step {step}, trainable_from {trainable_from}"
            );
        }
    }
}

proptest! {
    /// MLPs of random depth and width (up to 24 wide, so hidden layers cover
    /// full 8-row kernel tiles and their remainders).
    #[test]
    fn backward_tail_matches_the_reference_loop_on_mlps(seed in 0u64..40) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let depth = 2 + rng.gen_range(0usize..3);
        let sizes: Vec<usize> = (0..depth).map(|_| 1 + rng.gen_range(0usize..24)).collect();
        let net = mlp(&sizes, &mut rng);
        check_against_oracle(&net, &[sizes[0]], seed ^ 0xB4C4, 3);
    }

    /// A network whose weights carry fault-injected non-finite words: the
    /// gradient arithmetic must propagate NaN and infinity exactly as the
    /// reference loop does, zero gradients included.
    #[test]
    fn backward_tail_matches_the_reference_loop_on_faulted_weights(seed in 0u64..16) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let sizes = [1 + rng.gen_range(0usize..12), 1 + rng.gen_range(0usize..24), 4];
        let mut net = mlp(&sizes, &mut rng);
        for layer in net.parametric_layers() {
            let weights = net.layer_weights_mut(layer).expect("parametric");
            let at = rng.gen_range(0..weights.len());
            weights[at] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0usize..3)];
        }
        check_against_oracle(&net, &[sizes[0]], seed ^ 0xFA17, 2);
    }

    /// A convolution-headed stack: back-propagation stops at the frozen
    /// feature extractor, and the traced conv runs through im2row + GEMM.
    #[test]
    fn backward_tail_matches_the_reference_loop_on_conv_headed_stacks(seed in 0u64..24) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (net, in_shape) = conv_headed_net(&mut rng);
        check_against_oracle(&net, &in_shape, seed ^ 0xC0DE, 2);
    }
}
