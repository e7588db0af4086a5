//! Property tests pinning the generic inference core and its blocked GEMM
//! path:
//!
//! * arbitrary layer stacks through the generic batched engine are
//!   **bit-identical** to the pre-refactor per-sample `f32` kernels (the
//!   naive conv/linear loop bodies, still callable as `Layer::forward`);
//! * for parameters and inputs on the quantization grid the two backends
//!   agree **exactly** through the generic engine;
//! * the blocked im2col/im2row GEMM path equals the naive kernel path **bit
//!   for bit** on both backends at batch sizes {1, 7, 64}.

use navft_nn::layer::{Conv2d, Linear, MaxPool2d};
use navft_nn::{
    mlp, Element, EngineConfig, I8Network, I8Scratch, I8Tensor, Kernels, Layer, Network,
    NetworkBase, NoHooks, QNetwork, QScratch, QTensor, Scratch, Tensor, TensorBase,
};
use navft_qformat::{QFormat, QValue};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const FORMATS: [QFormat; 4] = [QFormat::Q3_4, QFormat::Q4_11, QFormat::Q2_5, QFormat::Q2_13];

/// The batch sizes the GEMM-vs-naive contract is pinned at.
const BATCHES: [usize; 3] = [1, 7, 64];

fn format_for(index: usize) -> QFormat {
    FORMATS[index % FORMATS.len()]
}

/// Builds an arbitrary convolutional stack (conv/relu/pool prefix, linear
/// tail) from a seed, returning the network and its input shape.
fn arbitrary_conv_net(seed: u64) -> (Network, Vec<usize>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let channels = 1 + rng.gen_range(0usize..3);
    let size = 7 + rng.gen_range(0usize..6);
    let kernel = 2 + rng.gen_range(0usize..2);
    let stride = 1 + rng.gen_range(0usize..2);
    let filters = 1 + rng.gen_range(0usize..4);
    let conv = Conv2d::new(channels, filters, kernel, stride, &mut rng);
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

/// The default blocked, SIMD-dispatched kernels.
const DISPATCHED: EngineConfig = EngineConfig { kernels: Kernels::Dispatched };

/// The naive per-row reference kernels.
const NAIVE: EngineConfig = EngineConfig { kernels: Kernels::Naive };

fn batch_inputs(shape: &[usize], batch: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..batch).map(|_| Tensor::uniform(shape, 1.0, &mut rng)).collect()
}

/// One default-config batched pass, returning the output rows.
fn batch_rows<E: Element>(net: &NetworkBase<E>, inputs: &[TensorBase<E>]) -> Vec<Vec<E>> {
    let mut scratch = Scratch::new();
    net.forward_batch_into_cfg(inputs, &mut scratch, &mut NoHooks, DISPATCHED);
    (0..scratch.rows()).map(|b| scratch.row(b).to_vec()).collect()
}

proptest! {
    /// The generic engine (blocked GEMM and all) reproduces the pre-refactor
    /// per-sample f32 kernels bit for bit on arbitrary stacks.
    #[test]
    fn generic_engine_is_bit_identical_to_per_sample_f32_kernels(seed in 0u64..48) {
        let (net, in_shape) = arbitrary_conv_net(seed);
        let inputs = batch_inputs(&in_shape, 5, seed ^ 0xF0);
        let batched = batch_rows(&net, &inputs);
        for (input, out) in inputs.iter().zip(batched.iter()) {
            // `Network::forward` runs the naive per-layer kernels — the
            // pre-refactor loop bodies.
            prop_assert_eq!(out.as_slice(), net.forward(input).data());
        }
    }

    /// The blocked GEMM path equals the naive kernel path bit for bit on the
    /// f32 backend at batches {1, 7, 64}.
    #[test]
    fn f32_gemm_path_equals_naive_path_at_pinned_batches(seed in 0u64..24) {
        let (net, in_shape) = arbitrary_conv_net(seed);
        for &batch in &BATCHES {
            let inputs = batch_inputs(&in_shape, batch, seed ^ batch as u64);
            let mut blocked = Scratch::new();
            net.forward_batch_into_cfg(&inputs, &mut blocked, &mut NoHooks, DISPATCHED);
            let mut naive = Scratch::new();
            net.forward_batch_into_cfg(&inputs, &mut naive, &mut NoHooks, NAIVE);
            for b in 0..batch {
                prop_assert_eq!(blocked.row(b), naive.row(b), "batch {} row {}", batch, b);
            }
        }
    }

    /// The blocked GEMM path equals the naive kernel path bit for bit on the
    /// native raw-word backend at batches {1, 7, 64}.
    #[test]
    fn quantized_gemm_path_equals_naive_path_at_pinned_batches(seed in 0u64..24) {
        let (net, in_shape) = arbitrary_conv_net(seed);
        let format = format_for(seed as usize);
        let qnet = QNetwork::quantize(&net, format);
        for &batch in &BATCHES {
            let qinputs: Vec<QTensor> = batch_inputs(&in_shape, batch, seed ^ batch as u64)
                .iter()
                .map(|t| QTensor::quantize(t, format))
                .collect();
            let mut blocked = QScratch::new();
            qnet.forward_batch_into_cfg(&qinputs, &mut blocked, &mut NoHooks, DISPATCHED);
            let mut naive = QScratch::new();
            qnet.forward_batch_into_cfg(&qinputs, &mut naive, &mut NoHooks, NAIVE);
            for b in 0..batch {
                prop_assert_eq!(blocked.row(b), naive.row(b), "batch {} row {}", batch, b);
            }
        }
    }

    /// The blocked GEMM path equals the naive kernel path bit for bit on the
    /// `i8` per-tensor affine backend at batches {1, 7, 64}.
    #[test]
    fn i8_gemm_path_equals_naive_path_at_pinned_batches(seed in 0u64..24) {
        let (net, in_shape) = arbitrary_conv_net(seed);
        let inet = I8Network::quantize(&net);
        for &batch in &BATCHES {
            let iinputs: Vec<I8Tensor> = batch_inputs(&in_shape, batch, seed ^ batch as u64)
                .iter()
                .map(|t| I8Tensor::quantize(t, inet.affine()))
                .collect();
            let mut blocked = I8Scratch::new();
            inet.forward_batch_into_cfg(&iinputs, &mut blocked, &mut NoHooks, DISPATCHED);
            let mut naive = I8Scratch::new();
            inet.forward_batch_into_cfg(&iinputs, &mut naive, &mut NoHooks, NAIVE);
            for b in 0..batch {
                prop_assert_eq!(blocked.row(b), naive.row(b), "batch {} row {}", batch, b);
            }
        }
    }

    /// On-grid parameters and inputs with a small fan-in make f32 arithmetic
    /// exact, so the two backends must agree bit for bit *through the
    /// generic batched engine* (not just the per-sample kernels).
    #[test]
    fn generic_engine_backends_agree_exactly_on_grid(seed in 0u64..100) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let format = QFormat::Q3_4;
        let in_features = 1 + rng.gen_range(0usize..32);
        let hidden = 1 + rng.gen_range(0usize..8);
        let raw = |rng: &mut SmallRng| {
            QValue::from_raw(rng.gen_range(-128i32..=127), format).to_f32()
        };
        let weights: Vec<f32> = (0..in_features * hidden).map(|_| raw(&mut rng)).collect();
        let bias: Vec<f32> = (0..hidden).map(|_| raw(&mut rng)).collect();
        let net = Network::new(vec![Layer::Linear(Linear {
            in_features,
            out_features: hidden,
            weights,
            bias,
        })]);
        let qnet = QNetwork::quantize(&net, format);
        let reference = qnet.dequantize();
        let inputs: Vec<Tensor> = (0..7)
            .map(|_| {
                Tensor::from_vec(
                    &[in_features],
                    (0..in_features).map(|_| raw(&mut rng)).collect(),
                )
            })
            .collect();
        let qinputs: Vec<QTensor> =
            inputs.iter().map(|t| QTensor::quantize(t, format)).collect();
        let f32_rows = batch_rows(&reference, &inputs);
        let q_rows = batch_rows(&qnet, &qinputs);
        for (frow, qrow) in f32_rows.iter().zip(q_rows.iter()) {
            let f32_raw: Vec<i32> =
                frow.iter().map(|&v| QValue::quantize(v, format).raw()).collect();
            prop_assert_eq!(&f32_raw, qrow);
        }
    }

    /// MLP-only stacks (the Grid World shape) through the generic engine:
    /// blocked == naive == per-sample on both backends.
    #[test]
    fn mlp_paths_agree_on_both_backends(seed in 0u64..32, batch in 1usize..9) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let sizes =
            [1 + rng.gen_range(0usize..12), 1 + rng.gen_range(0usize..24), 1 + rng.gen_range(0usize..6)];
        let net = mlp(&sizes, &mut rng);
        let inputs = batch_inputs(&[sizes[0]], batch, seed ^ 0xAB);
        let mut blocked = Scratch::new();
        net.forward_batch_into_cfg(&inputs, &mut blocked, &mut NoHooks, DISPATCHED);
        let mut naive = Scratch::new();
        net.forward_batch_into_cfg(&inputs, &mut naive, &mut NoHooks, NAIVE);
        for (b, input) in inputs.iter().enumerate() {
            prop_assert_eq!(blocked.row(b), naive.row(b));
            prop_assert_eq!(blocked.row(b), net.forward(input).data());
        }
        let format = format_for(seed as usize);
        let qnet = QNetwork::quantize(&net, format);
        let qinputs: Vec<QTensor> =
            inputs.iter().map(|t| QTensor::quantize(t, format)).collect();
        let mut qblocked = QScratch::new();
        qnet.forward_batch_into_cfg(&qinputs, &mut qblocked, &mut NoHooks, DISPATCHED);
        let mut qnaive = QScratch::new();
        qnet.forward_batch_into_cfg(&qinputs, &mut qnaive, &mut NoHooks, NAIVE);
        for (b, qinput) in qinputs.iter().enumerate() {
            prop_assert_eq!(qblocked.row(b), qnaive.row(b));
            prop_assert_eq!(qblocked.row(b), qnet.forward(qinput).words());
        }
    }
}
