//! Property tests for the batched inference engine: for *arbitrary* layer
//! stacks and inputs, `forward_batch_into_cfg` must agree bit-for-bit with the
//! per-sample `forward`, and a reused [`Scratch`] must never leak state from
//! a previous batch into a later one.

use navft_nn::layer::{Conv2d, Linear, MaxPool2d};
use navft_nn::{mlp, EngineConfig, Layer, Network, NoHooks, Scratch, Tensor};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds an arbitrary convolutional stack (conv/relu/pool prefix, linear
/// tail) from a seed, returning the network and its input shape.
fn arbitrary_conv_net(seed: u64) -> (Network, Vec<usize>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let channels = 1 + rng.gen_range(0usize..3);
    let size = 7 + rng.gen_range(0usize..6);
    let kernel = 2 + rng.gen_range(0usize..2);
    let filters = 1 + rng.gen_range(0usize..4);
    let conv = Conv2d::new(channels, filters, kernel, 1, &mut rng);
    let after_conv = conv.output_size(size);
    let mut layers = vec![Layer::Conv2d(conv), Layer::Relu];
    let mut spatial = after_conv;
    if spatial >= 2 && rng.gen_bool(0.5) {
        layers.push(Layer::MaxPool2d(MaxPool2d::new(2, 2)));
        spatial = (spatial - 2) / 2 + 1;
    }
    layers.push(Layer::Flatten);
    let flat = filters * spatial * spatial;
    let hidden = 1 + rng.gen_range(0usize..8);
    layers.push(Layer::Linear(Linear::new(flat, hidden, &mut rng)));
    layers.push(Layer::Relu);
    layers.push(Layer::Linear(Linear::new(hidden, 1 + rng.gen_range(0usize..5), &mut rng)));
    (Network::new(layers), vec![channels, size, size])
}

/// Builds an arbitrary MLP from a seed, returning the network and its input
/// length.
fn arbitrary_mlp(seed: u64) -> (Network, usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let depth = 2 + rng.gen_range(0usize..3);
    let sizes: Vec<usize> = (0..depth).map(|_| 1 + rng.gen_range(0usize..24)).collect();
    let input = sizes[0];
    (mlp(&sizes, &mut rng), input)
}

fn random_inputs(shape: &[usize], batch: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..batch).map(|_| Tensor::uniform(shape, 2.0, &mut rng)).collect()
}

/// One default-config batched pass through `scratch`, returning the rows.
fn batch_rows(net: &Network, inputs: &[Tensor], scratch: &mut Scratch) -> Vec<Vec<f32>> {
    net.forward_batch_into_cfg(inputs, scratch, &mut NoHooks, EngineConfig::default());
    (0..scratch.rows()).map(|b| scratch.row(b).to_vec()).collect()
}

proptest! {
    #[test]
    fn arbitrary_mlp_batched_equals_serial(
        net_seed in 0u64..1_000_000,
        input_seed in 0u64..1_000_000,
        batch in 1usize..=9,
    ) {
        let (net, input_len) = arbitrary_mlp(net_seed);
        let inputs = random_inputs(&[input_len], batch, input_seed);
        let mut scratch = Scratch::new();
        let batched = batch_rows(&net, &inputs, &mut scratch);
        for (input, out) in inputs.iter().zip(batched.iter()) {
            prop_assert_eq!(out.as_slice(), net.forward(input).data());
        }
    }

    #[test]
    fn arbitrary_conv_stack_batched_equals_serial(
        net_seed in 0u64..1_000_000,
        input_seed in 0u64..1_000_000,
        batch in 1usize..=5,
    ) {
        let (net, shape) = arbitrary_conv_net(net_seed);
        let inputs = random_inputs(&shape, batch, input_seed);
        let mut scratch = Scratch::new();
        let batched = batch_rows(&net, &inputs, &mut scratch);
        for (input, out) in inputs.iter().zip(batched.iter()) {
            prop_assert_eq!(scratch.row_shape(), net.forward(input).shape());
            prop_assert_eq!(out.as_slice(), net.forward(input).data());
        }
    }

    #[test]
    fn scratch_reuse_across_batches_never_leaks_state(
        wild_seed in 0u64..1_000_000,
        wild_batch in 1usize..=8,
        sentinel_batch in 1usize..=4,
        width in 1usize..=16,
    ) {
        // First pollute the scratch with a batch of wild values through an
        // arbitrary network...
        let (wild_net, input_len) = arbitrary_mlp(wild_seed);
        let wild_inputs = random_inputs(&[input_len], wild_batch, wild_seed ^ 0xF00D);
        let mut scratch = Scratch::new();
        let _ = batch_rows(&wild_net, &wild_inputs, &mut scratch);

        // ...then run an all-zeros batch through an identity network. Any
        // residue from the previous batch reaching the compute or the output
        // rows would surface as a non-zero element.
        let mut identity = Linear { in_features: width, out_features: width,
            weights: vec![0.0; width * width], bias: vec![0.0; width] };
        for i in 0..width {
            identity.weights[i * width + i] = 1.0;
        }
        let sentinel_net = Network::new(vec![Layer::Linear(identity), Layer::Relu]);
        let zeros = vec![Tensor::zeros(&[width]); sentinel_batch];
        let _ = batch_rows(&sentinel_net, &zeros, &mut scratch);
        prop_assert_eq!(scratch.rows(), sentinel_batch);
        for b in 0..sentinel_batch {
            prop_assert!(
                scratch.row(b).iter().all(|&v| v == 0.0),
                "stale values leaked into sentinel row {}: {:?}", b, scratch.row(b)
            );
        }

        // And a reused scratch must agree with a fresh one on real data.
        let probe_inputs = random_inputs(&[input_len], sentinel_batch, wild_seed ^ 0xBEEF);
        let reused = batch_rows(&wild_net, &probe_inputs, &mut scratch);
        let fresh = batch_rows(&wild_net, &probe_inputs, &mut Scratch::new());
        prop_assert_eq!(reused, fresh);
    }
}
