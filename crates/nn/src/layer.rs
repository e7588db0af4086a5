//! Network layers: convolution, pooling, activation and fully-connected —
//! one generic implementation shared by every numeric backend.
//!
//! [`Conv2dBase`], [`LinearBase`] and [`LayerBase`] are generic over the
//! [`Element`] type; the `f32` backend uses the [`Conv2d`] / [`Linear`] /
//! [`Layer`] aliases, the native fixed-point backend the
//! [`QConv2d`](crate::QConv2d) / [`QLinear`](crate::QLinear) /
//! [`QLayer`](crate::QLayer) aliases of the *same* types. There is exactly
//! one convolution loop, one fully-connected loop and one pooling loop in
//! the crate; what differs per backend is the element arithmetic the
//! [`Element`] trait supplies (plain float MACs versus widened-accumulator
//! integer MACs with one saturating requantize per output element).

use std::fmt;

use rand::Rng;

use crate::element::Element;

/// The kind of a layer, used by experiments that sweep fault sensitivity per
/// layer type (Fig. 7d).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// 2-D convolution.
    Conv2d,
    /// 2-D max pooling.
    MaxPool2d,
    /// Rectified linear unit.
    Relu,
    /// Shape flattening (no parameters).
    Flatten,
    /// Fully-connected (linear) layer.
    Linear,
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LayerKind::Conv2d => "conv2d",
            LayerKind::MaxPool2d => "maxpool2d",
            LayerKind::Relu => "relu",
            LayerKind::Flatten => "flatten",
            LayerKind::Linear => "linear",
        })
    }
}

/// Output spatial extent of a valid-padding sliding window: shared by every
/// backend so their shape inference can never diverge.
pub(crate) fn window_output_size(input: usize, kernel: usize, stride: usize) -> usize {
    (input - kernel) / stride + 1
}

/// A 2-D convolution layer over `[C, H, W]` inputs (valid padding), generic
/// over the backend's element type.
///
/// Use the aliases: [`Conv2d`] (`f32`) or [`QConv2d`](crate::QConv2d) (raw
/// Q-format words).
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2dBase<E: Element> {
    /// Number of input channels.
    pub in_channels: usize,
    /// Number of output channels (filters).
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Filter weights, laid out `[out, in, k, k]` row-major.
    pub weights: Vec<E>,
    /// Per-output-channel biases.
    pub bias: Vec<E>,
}

/// A 2-D `f32` convolution layer over `[C, H, W]` inputs (valid padding).
pub type Conv2d = Conv2dBase<f32>;

impl Eq for Conv2dBase<i32> {}

impl<E: Element> Conv2dBase<E> {
    /// Output spatial size for an input of extent `input`.
    pub fn output_size(&self, input: usize) -> usize {
        window_output_size(input, self.kernel, self.stride)
    }

    /// The `[C, H, W]` output shape for a `[C, H, W]` input shape.
    ///
    /// # Panics
    ///
    /// Panics if the input shape is not 3-dimensional with `in_channels`
    /// channels or is smaller than the kernel.
    pub fn output_shape(&self, in_shape: &[usize]) -> [usize; 3] {
        assert_eq!(in_shape.len(), 3, "conv2d expects a [C, H, W] input");
        assert_eq!(in_shape[0], self.in_channels, "conv2d input channel mismatch");
        let (h, w) = (in_shape[1], in_shape[2]);
        assert!(h >= self.kernel && w >= self.kernel, "conv2d input smaller than kernel");
        [self.out_channels, self.output_size(h), self.output_size(w)]
    }

    /// The reduction length of one output element: `in_channels × k × k`
    /// (the K dimension, one patch-panel row each, of the GEMM view of this
    /// convolution).
    pub(crate) fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Runs the convolution on a flat `[C, H, W]` buffer, writing every
    /// output element into the caller-provided `out` buffer (no allocation).
    ///
    /// This is the *naive* (direct) kernel: one accumulator per output
    /// element, fed in `(ic, ky, kx)` order. The blocked GEMM path of the
    /// batched engine accumulates in exactly the same order, so the two
    /// paths agree bit for bit on every backend.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are invalid or `out` has the wrong length.
    pub fn forward_naive(&self, data: &[E], in_shape: &[usize], out: &mut [E], ctx: E::Meta) {
        let [_, oh, ow] = self.output_shape(in_shape);
        let (h, w) = (in_shape[1], in_shape[2]);
        assert_eq!(data.len(), self.in_channels * h * w, "conv2d input buffer length mismatch");
        assert_eq!(out.len(), self.out_channels * oh * ow, "conv2d output buffer length mismatch");
        let k = self.kernel;
        for oc in 0..self.out_channels {
            let w_base = oc * self.in_channels * k * k;
            let out_base = oc * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = E::acc_init(self.bias[oc], ctx);
                    let iy0 = oy * self.stride;
                    let ix0 = ox * self.stride;
                    for ic in 0..self.in_channels {
                        let in_base = ic * h * w;
                        let wk_base = w_base + ic * k * k;
                        for ky in 0..k {
                            let row = in_base + (iy0 + ky) * w + ix0;
                            let wrow = wk_base + ky * k;
                            for kx in 0..k {
                                acc = E::mac(acc, data[row + kx], self.weights[wrow + kx]);
                            }
                        }
                    }
                    out[out_base + oy * ow + ox] = E::finish(acc, ctx);
                }
            }
        }
    }
}

impl Conv2d {
    /// Creates a convolution with He-uniform initialised weights.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        rng: &mut R,
    ) -> Conv2d {
        let fan_in = in_channels * kernel * kernel;
        let scale = (2.0 / fan_in as f32).sqrt();
        let weights = (0..out_channels * fan_in).map(|_| rng.gen_range(-scale..=scale)).collect();
        Conv2d { in_channels, out_channels, kernel, stride, weights, bias: vec![0.0; out_channels] }
    }
}

/// A 2-D max-pooling layer over `[C, H, W]` inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxPool2d {
    /// Square pooling window.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
}

impl MaxPool2d {
    /// Creates a pooling layer.
    pub fn new(kernel: usize, stride: usize) -> MaxPool2d {
        MaxPool2d { kernel, stride }
    }

    /// Output spatial size for an input of extent `input`.
    pub fn output_size(&self, input: usize) -> usize {
        window_output_size(input, self.kernel, self.stride)
    }

    /// The `[C, H, W]` output shape for a `[C, H, W]` input shape.
    ///
    /// # Panics
    ///
    /// Panics if the input shape is not 3-dimensional or is smaller than the
    /// window.
    pub fn output_shape(&self, in_shape: &[usize]) -> [usize; 3] {
        assert_eq!(in_shape.len(), 3, "maxpool2d expects a [C, H, W] input");
        let (c, h, w) = (in_shape[0], in_shape[1], in_shape[2]);
        assert!(h >= self.kernel && w >= self.kernel, "maxpool2d input smaller than window");
        [c, self.output_size(h), self.output_size(w)]
    }

    /// Runs the pooling on a flat `[C, H, W]` buffer, writing every output
    /// element into the caller-provided `out` buffer (no allocation).
    ///
    /// The kernel is generic over the element type because max pooling is
    /// pure order comparison: the `f32` backend pools dequantized values, the
    /// native fixed-point backend pools raw two's-complement words, and the
    /// two agree exactly since dequantization is monotonic in the raw word.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are invalid or `out` has the wrong length.
    pub fn forward_into<T: Copy + PartialOrd>(
        &self,
        data: &[T],
        in_shape: &[usize],
        out: &mut [T],
    ) {
        let [c, oh, ow] = self.output_shape(in_shape);
        let (h, w) = (in_shape[1], in_shape[2]);
        assert_eq!(data.len(), c * h * w, "maxpool2d input buffer length mismatch");
        assert_eq!(out.len(), c * oh * ow, "maxpool2d output buffer length mismatch");
        let s = self.stride;
        for ch in 0..c {
            let plane = &data[ch * h * w..(ch + 1) * h * w];
            for (oy, best) in out[ch * oh * ow..(ch + 1) * oh * ow].chunks_exact_mut(ow).enumerate()
            {
                // Every output of the row starts at its window's first
                // element, then folds the window in `(ky, kx)` order. The
                // output pixel loop is innermost, so each fold step is one
                // data-independent select across the row.
                let top = &plane[oy * s * w..];
                zip_strided(best, top, s, |b, v| *b = v);
                for ky in 0..self.kernel {
                    for kx in 0..self.kernel {
                        zip_strided(best, &top[ky * w + kx..], s, |b, v| *b = max_step(*b, v));
                    }
                }
            }
        }
    }
}

/// Applies `f(&mut out[i], src[i · s])` for every output `i`, four outputs
/// per bounds check: the strided row walk of patch packing and pooling,
/// whose runs are only a few elements long.
#[inline(always)]
pub(crate) fn zip_strided<T: Copy>(
    out: &mut [T],
    src: &[T],
    s: usize,
    mut f: impl FnMut(&mut T, T),
) {
    let Some(last) = out.len().checked_sub(1) else { return };
    let src = &src[..last * s + 1];
    let mut quads = out.chunks_exact_mut(4);
    let mut i = 0;
    for quad in &mut quads {
        let window = &src[i * s..][..3 * s + 1];
        f(&mut quad[0], window[0]);
        f(&mut quad[1], window[s]);
        f(&mut quad[2], window[2 * s]);
        f(&mut quad[3], window[3 * s]);
        i += 4;
    }
    for o in quads.into_remainder() {
        f(o, src[i * s]);
        i += 1;
    }
}

/// One step of the max-pool fold with `f32::max` semantics: an incomparable
/// element (an `f32` NaN) never wins and a comparable one replaces an
/// incomparable best, so NaNs are skipped; on ties the earlier element
/// stays (first seen wins, so `-0.0` before `0.0` pools to `-0.0`). For
/// totally ordered types (raw words, bytes) this reduces to `v > best`.
/// Both conditions are evaluated unconditionally and combined without
/// short-circuiting, so the step compiles to a select rather than a branch
/// on the data.
#[inline(always)]
fn max_step<T: Copy + PartialOrd>(best: T, v: T) -> T {
    #[allow(clippy::eq_op)] // `v == v` is the NaN test for floats
    let take = (v > best) | (best.partial_cmp(&v).is_none() & (v == v));
    if take {
        v
    } else {
        best
    }
}

/// A fully-connected layer `y = W x + b`, generic over the backend's element
/// type.
///
/// Use the aliases: [`Linear`] (`f32`) or [`QLinear`](crate::QLinear) (raw
/// Q-format words).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearBase<E: Element> {
    /// Input feature count.
    pub in_features: usize,
    /// Output feature count.
    pub out_features: usize,
    /// Weights, laid out `[out, in]` row-major.
    pub weights: Vec<E>,
    /// Per-output biases.
    pub bias: Vec<E>,
}

/// A fully-connected `f32` layer `y = W x + b`.
pub type Linear = LinearBase<f32>;

impl Eq for LinearBase<i32> {}

impl<E: Element> LinearBase<E> {
    /// Runs the layer on a flat buffer, writing every output element into the
    /// caller-provided `out` buffer (no allocation).
    ///
    /// This is the *naive* kernel: one accumulator per output, fed in input
    /// order — the blocked GEMM path accumulates identically, so the two
    /// paths agree bit for bit on every backend.
    ///
    /// # Panics
    ///
    /// Panics if the input length differs from `in_features` or `out` from
    /// `out_features`.
    pub fn forward_naive(&self, x: &[E], _in_shape: &[usize], out: &mut [E], ctx: E::Meta) {
        assert_eq!(x.len(), self.in_features, "linear input length mismatch");
        assert_eq!(out.len(), self.out_features, "linear output buffer length mismatch");
        for (o, out_v) in out.iter_mut().enumerate() {
            let row = &self.weights[o * self.in_features..(o + 1) * self.in_features];
            let mut acc = E::acc_init(self.bias[o], ctx);
            for (w, xi) in row.iter().zip(x.iter()) {
                acc = E::mac(acc, *xi, *w);
            }
            *out_v = E::finish(acc, ctx);
        }
    }
}

impl Linear {
    /// Creates a linear layer with Xavier-uniform initialised weights.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Linear {
        let scale = (6.0 / (in_features + out_features) as f32).sqrt();
        let weights =
            (0..in_features * out_features).map(|_| rng.gen_range(-scale..=scale)).collect();
        Linear { in_features, out_features, weights, bias: vec![0.0; out_features] }
    }
}

/// A network layer, generic over the backend's element type.
///
/// Layers are a closed enum rather than a trait object so that training code
/// and per-layer fault targeting can match on the concrete kind. Use the
/// aliases: [`Layer`] (`f32`) or [`QLayer`](crate::QLayer) (raw Q-format
/// words).
#[derive(Debug, Clone, PartialEq)]
pub enum LayerBase<E: Element> {
    /// 2-D convolution.
    Conv2d(Conv2dBase<E>),
    /// 2-D max pooling (pure order comparison, parameter-free).
    MaxPool2d(MaxPool2d),
    /// Rectified linear unit.
    Relu,
    /// Flatten to a vector.
    Flatten,
    /// Fully-connected layer.
    Linear(LinearBase<E>),
}

/// An `f32` network layer.
pub type Layer = LayerBase<f32>;

impl Eq for LayerBase<i32> {}

impl<E: Element> LayerBase<E> {
    /// The layer kind.
    pub fn kind(&self) -> LayerKind {
        match self {
            LayerBase::Conv2d(_) => LayerKind::Conv2d,
            LayerBase::MaxPool2d(_) => LayerKind::MaxPool2d,
            LayerBase::Relu => LayerKind::Relu,
            LayerBase::Flatten => LayerKind::Flatten,
            LayerBase::Linear(_) => LayerKind::Linear,
        }
    }

    /// Writes the layer's output shape for `in_shape` into `out` (cleared
    /// first, so a reused `Vec` never allocates once warm).
    ///
    /// # Panics
    ///
    /// Panics if `in_shape` is not a valid input shape for this layer.
    pub fn output_shape(&self, in_shape: &[usize], out: &mut Vec<usize>) {
        out.clear();
        match self {
            LayerBase::Conv2d(conv) => out.extend_from_slice(&conv.output_shape(in_shape)),
            LayerBase::MaxPool2d(pool) => out.extend_from_slice(&pool.output_shape(in_shape)),
            LayerBase::Relu => out.extend_from_slice(in_shape),
            LayerBase::Flatten => out.push(in_shape.iter().product()),
            LayerBase::Linear(linear) => {
                let len: usize = in_shape.iter().product();
                assert_eq!(len, linear.in_features, "linear input length mismatch");
                out.push(linear.out_features);
            }
        }
    }

    /// Runs the layer on a flat buffer through the naive per-element
    /// kernels, writing the output into the caller-provided `out` buffer.
    /// `Relu` and `Flatten` degrade to a copy here; the batched engine
    /// applies them in place instead.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are invalid or `out` has the wrong length.
    pub fn forward_naive(&self, data: &[E], in_shape: &[usize], out: &mut [E], ctx: E::Meta) {
        match self {
            LayerBase::Conv2d(conv) => conv.forward_naive(data, in_shape, out, ctx),
            LayerBase::MaxPool2d(pool) => pool.forward_into(data, in_shape, out),
            LayerBase::Relu | LayerBase::Flatten => {
                out.copy_from_slice(data);
                if matches!(self, LayerBase::Relu) {
                    Self::relu_in_place(out);
                }
            }
            LayerBase::Linear(linear) => linear.forward_naive(data, in_shape, out, ctx),
        }
    }

    /// Applies the ReLU non-linearity in place (the batched engine's
    /// zero-copy path for ReLU layers).
    pub fn relu_in_place(values: &mut [E]) {
        for v in values.iter_mut() {
            *v = v.relu();
        }
    }

    /// Whether the layer transforms values without moving them between
    /// buffers: `Relu` rewrites elements in place and `Flatten` only changes
    /// the shape. The batched engine skips the slab swap for these.
    pub fn is_in_place(&self) -> bool {
        matches!(self, LayerBase::Relu | LayerBase::Flatten)
    }

    /// The layer's weight buffer, if it has parameters.
    pub fn weights(&self) -> Option<&[E]> {
        match self {
            LayerBase::Conv2d(conv) => Some(&conv.weights),
            LayerBase::Linear(linear) => Some(&linear.weights),
            _ => None,
        }
    }

    /// The layer's weight buffer, mutably — the weight-fault injection
    /// surface.
    pub fn weights_mut(&mut self) -> Option<&mut Vec<E>> {
        match self {
            LayerBase::Conv2d(conv) => Some(&mut conv.weights),
            LayerBase::Linear(linear) => Some(&mut linear.weights),
            _ => None,
        }
    }

    /// The layer's bias buffer, if it has parameters.
    pub fn biases(&self) -> Option<&[E]> {
        match self {
            LayerBase::Conv2d(conv) => Some(&conv.bias),
            LayerBase::Linear(linear) => Some(&linear.bias),
            _ => None,
        }
    }

    /// Whether the layer holds trainable parameters.
    pub fn is_parametric(&self) -> bool {
        self.weights().is_some()
    }

    /// The same layer on another backend, every weight and bias mapped
    /// through `f` — the single compile/decompile path between a trained
    /// `f32` network and its stored-word instantiations.
    pub(crate) fn map_params<T: Element>(&self, f: impl Fn(E) -> T) -> LayerBase<T> {
        let map = |values: &[E]| values.iter().map(|&v| f(v)).collect();
        match self {
            LayerBase::Conv2d(conv) => LayerBase::Conv2d(Conv2dBase {
                in_channels: conv.in_channels,
                out_channels: conv.out_channels,
                kernel: conv.kernel,
                stride: conv.stride,
                weights: map(&conv.weights),
                bias: map(&conv.bias),
            }),
            LayerBase::MaxPool2d(pool) => LayerBase::MaxPool2d(*pool),
            LayerBase::Relu => LayerBase::Relu,
            LayerBase::Flatten => LayerBase::Flatten,
            LayerBase::Linear(linear) => LayerBase::Linear(LinearBase {
                in_features: linear.in_features,
                out_features: linear.out_features,
                weights: map(&linear.weights),
                bias: map(&linear.bias),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn conv_identity_kernel_reproduces_input() {
        let mut conv = Conv2d {
            in_channels: 1,
            out_channels: 1,
            kernel: 1,
            stride: 1,
            weights: vec![1.0],
            bias: vec![0.0],
        };
        let input = [1.0, 2.0, 3.0, 4.0];
        let mut out = [0.0; 4];
        conv.forward_naive(&input, &[1, 2, 2], &mut out, ());
        assert_eq!(out, input);
        conv.bias = vec![1.0];
        conv.forward_naive(&input, &[1, 2, 2], &mut out, ());
        assert_eq!(out, [2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn conv_sums_over_window_and_channels() {
        let conv = Conv2d {
            in_channels: 2,
            out_channels: 1,
            kernel: 2,
            stride: 1,
            weights: vec![1.0; 8],
            bias: vec![0.0],
        };
        assert_eq!(conv.output_shape(&[2, 3, 3]), [1, 2, 2]);
        let mut out = [0.0; 4];
        conv.forward_naive(&[1.0; 18], &[2, 3, 3], &mut out, ());
        assert!(out.iter().all(|&v| v == 8.0));
    }

    #[test]
    fn conv_stride_reduces_output() {
        let mut rng = SmallRng::seed_from_u64(0);
        let conv = Conv2d::new(1, 4, 3, 2, &mut rng);
        assert_eq!(conv.output_size(7), 3);
        assert_eq!(conv.output_shape(&[1, 7, 7]), [4, 3, 3]);
        let mut out = [1.0; 36];
        conv.forward_naive(&[0.0; 49], &[1, 7, 7], &mut out, ());
        assert_eq!(out, [0.0; 36]);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv_rejects_wrong_channel_count() {
        let mut rng = SmallRng::seed_from_u64(0);
        let conv = Conv2d::new(3, 4, 3, 1, &mut rng);
        conv.forward_naive(&[0.0; 25], &[1, 5, 5], &mut [0.0; 36], ());
    }

    #[test]
    fn maxpool_takes_window_maximum() {
        let pool = MaxPool2d::new(2, 2);
        let input = [1.0, 5.0, 2.0, 0.0, 3.0, 4.0, -1.0, 7.0];
        assert_eq!(pool.output_shape(&[1, 2, 4]), [1, 1, 2]);
        let mut out = [0.0; 2];
        pool.forward_into(&input, &[1, 2, 4], &mut out);
        assert_eq!(out, [5.0, 7.0]);
    }

    #[test]
    fn maxpool_skips_nan_like_f32_max() {
        let pool = MaxPool2d::new(2, 1);
        let pooled = |input: [f32; 4]| {
            let mut out = [0.0f32];
            pool.forward_into(&input, &[1, 2, 2], &mut out);
            out[0]
        };
        assert_eq!(pooled([f32::NAN, 1.0, 0.5, -2.0]), 1.0);
        assert_eq!(pooled([0.5, -2.0, 1.0, f32::NAN]), 1.0);
        // Ties keep the first element seen: `-0.0` then `0.0` pools to `-0.0`.
        assert_eq!(pooled([-0.0, 0.0, -1.0, 0.0]).to_bits(), (-0.0f32).to_bits());
    }

    /// The branchy max-pool fold [`MaxPool2d::forward_into`] ran before its
    /// select form: the oracle the pool is pinned to.
    fn maxpool_reference<T: Copy + PartialOrd>(
        pool: MaxPool2d,
        data: &[T],
        in_shape: &[usize],
        out: &mut [T],
    ) {
        let [c, oh, ow] = pool.output_shape(in_shape);
        let (h, w) = (in_shape[1], in_shape[2]);
        for ch in 0..c {
            let in_base = ch * h * w;
            let out_base = ch * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = data[in_base + oy * pool.stride * w + ox * pool.stride];
                    for ky in 0..pool.kernel {
                        let row = in_base + (oy * pool.stride + ky) * w + ox * pool.stride;
                        for kx in 0..pool.kernel {
                            let v = data[row + kx];
                            if v > best
                                || (best.partial_cmp(&v).is_none() && v.partial_cmp(&v).is_some())
                            {
                                best = v;
                            }
                        }
                    }
                    out[out_base + oy * ow + ox] = best;
                }
            }
        }
    }

    /// Pools `data` with both the layer and the reference fold.
    fn pool_both<T: Copy + PartialOrd + Default>(
        pool: MaxPool2d,
        data: &[T],
        in_shape: &[usize],
    ) -> (Vec<T>, Vec<T>) {
        let len = pool.output_shape(in_shape).iter().product();
        let (mut got, mut want) = (vec![T::default(); len], vec![T::default(); len]);
        pool.forward_into(data, in_shape, &mut got);
        maxpool_reference(pool, data, in_shape, &mut want);
        (got, want)
    }

    proptest::proptest! {
        #[test]
        fn maxpool_matches_the_reference_fold(
            seed in 0u64..u64::MAX,
            kernel in 1usize..=3,
            stride in 1usize..=3,
            channels in 1usize..=3,
            extra_h in 0usize..6,
            extra_w in 0usize..6,
        ) {
            use rand::{Rng, RngCore};
            let mut rng = SmallRng::seed_from_u64(seed);
            let pool = MaxPool2d::new(kernel, stride);
            let shape = [channels, kernel + extra_h, kernel + extra_w];
            let len: usize = shape.iter().product();
            // Floats drawn from a small pool of specials and ties so NaNs,
            // signed zeros and infinities meet in the same windows.
            let specials =
                [f32::NAN, -f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 1.0, -1.0];
            let floats: Vec<f32> = (0..len)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        specials[rng.gen_range(0..specials.len())]
                    } else {
                        rng.gen_range(-2.0f32..2.0)
                    }
                })
                .collect();
            let (got, want) = pool_both(pool, &floats, &shape);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&got), bits(&want));
            let words: Vec<i32> = (0..len).map(|_| rng.next_u32() as i32).collect();
            let (got, want) = pool_both(pool, &words, &shape);
            proptest::prop_assert_eq!(got, want);
            let bytes: Vec<i8> = (0..len).map(|_| rng.next_u32() as i8).collect();
            let (got, want) = pool_both(pool, &bytes, &shape);
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn linear_computes_affine_map() {
        let linear = Linear {
            in_features: 2,
            out_features: 2,
            weights: vec![1.0, 2.0, 3.0, 4.0],
            bias: vec![0.5, -0.5],
        };
        let mut out = [0.0; 2];
        linear.forward_naive(&[1.0, 1.0], &[2], &mut out, ());
        assert_eq!(out, [3.5, 6.5]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn linear_rejects_wrong_input_length() {
        let mut rng = SmallRng::seed_from_u64(0);
        let linear = Linear::new(4, 2, &mut rng);
        linear.forward_naive(&[0.0; 3], &[3], &mut [0.0; 2], ());
    }

    #[test]
    fn relu_and_flatten() {
        let mut values = [-1.0, 2.0, -3.0, 4.0];
        Layer::relu_in_place(&mut values);
        assert_eq!(values, [0.0, 2.0, 0.0, 4.0]);
        let mut flat = Vec::new();
        Layer::Flatten.output_shape(&[1, 2, 2], &mut flat);
        assert_eq!(flat, [4]);
    }

    #[test]
    fn layer_kinds_and_weight_access() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut layer = Layer::Linear(Linear::new(2, 3, &mut rng));
        assert_eq!(layer.kind(), LayerKind::Linear);
        assert!(layer.is_parametric());
        assert_eq!(layer.weights().map(|w| w.len()), Some(6));
        layer.weights_mut().expect("has weights")[0] = 9.0;
        assert_eq!(layer.weights().expect("has weights")[0], 9.0);
        assert!(!Layer::Relu.is_parametric());
        assert!(Layer::Flatten.weights().is_none());
        assert_eq!(LayerKind::Conv2d.to_string(), "conv2d");
    }

    #[test]
    fn initialised_weights_are_bounded() {
        let mut rng = SmallRng::seed_from_u64(2);
        let conv = Conv2d::new(3, 8, 3, 1, &mut rng);
        let fan_in = 27.0f32;
        let bound = (2.0 / fan_in).sqrt();
        assert!(conv.weights.iter().all(|w| w.abs() <= bound));
        let linear = Linear::new(10, 5, &mut rng);
        let bound = (6.0 / 15.0f32).sqrt();
        assert!(linear.weights.iter().all(|w| w.abs() <= bound));
    }

    #[test]
    fn generic_naive_kernels_serve_raw_words_too() {
        // The same conv code runs the quantized backend: Q3_4 words, widened
        // accumulate, one requantize per output.
        use navft_qformat::QFormat;
        let conv: Conv2dBase<i32> = Conv2dBase {
            in_channels: 1,
            out_channels: 1,
            kernel: 1,
            stride: 1,
            weights: vec![16], // 1.0 in Q3_4
            bias: vec![8],     // 0.5
        };
        let data = [16i32, 32, -16, 48]; // 1.0, 2.0, -1.0, 3.0
        let mut out = [0i32; 4];
        conv.forward_naive(&data, &[1, 2, 2], &mut out, QFormat::Q3_4);
        assert_eq!(out, [24, 40, -8, 56]); // x + 0.5 on the Q3_4 grid
    }
}
