//! Property tests pinning the native fixed-point kernels: for *arbitrary*
//! layer stacks the native forward pass must stay within the format's
//! resolution of the `f32` fixed-point simulation (the dequantized network
//! forwarded under the [`Requantize`] hook), batched and serial native
//! passes must agree bit for bit, and for parameters and inputs already on
//! the quantization grid (where `f32` arithmetic is exact) the two backends
//! must agree *exactly*.

use navft_nn::layer::{Conv2d, Linear, MaxPool2d};
use navft_nn::{
    mlp, EngineConfig, ForwardHooks, Layer, LayerKind, Network, NoHooks, QNetwork, QScratch,
    QTensor, Tensor,
};
use navft_qformat::{QFormat, QValue};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const FORMATS: [QFormat; 4] = [QFormat::Q3_4, QFormat::Q4_11, QFormat::Q2_5, QFormat::Q2_13];

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
    let mut sizes = Vec::with_capacity(depth);
    for _ in 0..depth {
        sizes.push(1 + rng.gen_range(0usize..12));
    }
    let input = sizes[0];
    (mlp(&sizes, &mut rng), input)
}

/// The `f32` oracle of the native datapath: requantizes every activation
/// into `format` before `inner` sees it, as a fixed-point MAC array stores
/// each layer's output.
struct Requantize<H> {
    format: QFormat,
    inner: H,
}

impl<H: ForwardHooks> ForwardHooks for Requantize<H> {
    fn on_input(&mut self, values: &mut [f32]) {
        self.inner.on_input(values);
    }

    fn on_activation(&mut self, layer: usize, kind: LayerKind, values: &mut [f32]) {
        for v in values.iter_mut() {
            *v = QValue::quantize(*v, self.format).to_f32();
        }
        self.inner.on_activation(layer, kind, values);
    }
}

/// Asserts every native output word is within one quantization step of the
/// `f32` simulation's output.
fn assert_within_resolution(native: &QTensor, simulated: &Tensor, format: QFormat, tag: &str) {
    let lsb = format.resolution();
    let dequantized = native.dequantize();
    assert_eq!(dequantized.len(), simulated.len());
    for (i, (n, s)) in dequantized.data().iter().zip(simulated.data().iter()).enumerate() {
        assert!(
            (n - s).abs() <= lsb,
            "{tag} element {i}: native {n} vs simulated {s} diverge past {lsb}"
        );
    }
}

proptest! {
    #[test]
    fn native_mlp_forward_matches_f32_within_resolution(seed in 0u64..160) {
        let (net, input_len) = arbitrary_mlp(seed);
        let format = format_for(seed as usize);
        let qnet = QNetwork::quantize(&net, format);
        let reference = qnet.dequantize();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x1A5);
        let input = Tensor::uniform(&[input_len], 1.0, &mut rng);
        let qinput = QTensor::quantize(&input, format);
        let native = qnet.forward(&qinput);
        let mut oracle = Requantize { format, inner: NoHooks };
        let simulated = reference.forward_with(&qinput.dequantize(), &mut oracle);
        assert_within_resolution(&native, &simulated, format, "mlp");
    }

    #[test]
    fn native_conv_forward_matches_f32_within_resolution(seed in 0u64..48) {
        let (net, in_shape) = arbitrary_conv_net(seed);
        let format = format_for(seed as usize);
        let qnet = QNetwork::quantize(&net, format);
        let reference = qnet.dequantize();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0);
        let input = Tensor::uniform(&in_shape, 1.0, &mut rng);
        let qinput = QTensor::quantize(&input, format);
        let native = qnet.forward(&qinput);
        let mut oracle = Requantize { format, inner: NoHooks };
        let simulated = reference.forward_with(&qinput.dequantize(), &mut oracle);
        assert_within_resolution(&native, &simulated, format, "conv");
    }

    #[test]
    fn grid_aligned_inputs_give_exact_equality(seed in 0u64..200) {
        // Parameters and inputs drawn directly as raw Q(1,3,4) words with a
        // small fan-in: every f32 product and partial sum is then exactly
        // representable (products are multiples of 2^-8 below 2^14, sums stay
        // below 2^24 of them), so the float simulation commits no rounding
        // of its own and the two backends must agree bit for bit.
        let mut rng = SmallRng::seed_from_u64(seed);
        let format = QFormat::Q3_4;
        let in_features = 1 + rng.gen_range(0usize..32);
        let out_features = 1 + rng.gen_range(0usize..8);
        let raw = |rng: &mut SmallRng| {
            QValue::from_raw(rng.gen_range(-128i32..=127), format).to_f32()
        };
        let weights: Vec<f32> = (0..in_features * out_features).map(|_| raw(&mut rng)).collect();
        let bias: Vec<f32> = (0..out_features).map(|_| raw(&mut rng)).collect();
        let net = Network::new(vec![Layer::Linear(Linear {
            in_features,
            out_features,
            weights,
            bias,
        })]);
        let input = Tensor::from_vec(
            &[in_features],
            (0..in_features).map(|_| raw(&mut rng)).collect(),
        );
        let qnet = QNetwork::quantize(&net, format);
        let reference = qnet.dequantize();
        let native = qnet.forward(&QTensor::quantize(&input, format));
        let simulated = reference.forward(&input);
        let simulated_raw: Vec<i32> =
            simulated.data().iter().map(|&v| QValue::quantize(v, format).raw()).collect();
        prop_assert_eq!(native.words(), simulated_raw.as_slice());
    }

    #[test]
    fn batched_native_pass_equals_serial_bitwise(seed in 0u64..64, batch in 1usize..6) {
        let (net, in_shape) = arbitrary_conv_net(seed);
        let format = format_for(seed as usize + 1);
        let qnet = QNetwork::quantize(&net, format);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xBA7);
        let inputs: Vec<QTensor> = (0..batch)
            .map(|_| QTensor::quantize(&Tensor::uniform(&in_shape, 1.0, &mut rng), format))
            .collect();
        let mut scratch = QScratch::new();
        qnet.forward_batch_into_cfg(&inputs, &mut scratch, &mut NoHooks, EngineConfig::default());
        for (b, input) in inputs.iter().enumerate() {
            prop_assert_eq!(scratch.row(b), qnet.forward(input).words());
        }
    }

    #[test]
    fn a_reused_qscratch_never_leaks_state_between_networks(seed in 0u64..48) {
        // Run network A, then network B, then A again on the same scratch:
        // the third run must reproduce the first bit for bit.
        let (net_a, len_a) = arbitrary_mlp(seed);
        let (net_b, len_b) = arbitrary_mlp(seed ^ 0xB);
        let format = format_for(seed as usize + 2);
        let qa = QNetwork::quantize(&net_a, format);
        let qb = QNetwork::quantize(&net_b, format);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5C);
        let input_a = QTensor::quantize(&Tensor::uniform(&[len_a], 1.0, &mut rng), format);
        let input_b = QTensor::quantize(&Tensor::uniform(&[len_b], 1.0, &mut rng), format);
        let mut scratch = QScratch::new();
        let config = EngineConfig::default();
        qa.forward_batch_into_cfg(&[&input_a], &mut scratch, &mut NoHooks, config);
        let first = scratch.row(0).to_vec();
        qb.forward_batch_into_cfg(&[&input_b], &mut scratch, &mut NoHooks, config);
        qa.forward_batch_into_cfg(&[&input_a], &mut scratch, &mut NoHooks, config);
        prop_assert_eq!(first.as_slice(), scratch.row(0));
    }

    #[test]
    fn quantizing_a_dequantized_qtensor_is_the_identity(seed in 0u64..200) {
        // Inputs already on the quantization grid survive the f32 round trip
        // exactly: the native backend's ingest loses nothing on them.
        let mut rng = SmallRng::seed_from_u64(seed);
        let format = format_for(seed as usize + 3);
        let words: Vec<i32> = (0..16)
            .map(|_| rng.gen_range(format.min_raw()..=format.max_raw()))
            .collect();
        let q = QTensor::from_raw_vec(&[16], words, format);
        let roundtrip = QTensor::quantize(&q.dequantize(), format);
        prop_assert_eq!(q.words(), roundtrip.words());
    }
}
