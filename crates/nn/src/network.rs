//! The generic feed-forward network: one implementation of every forward
//! path, instantiated per numeric backend.
//!
//! [`NetworkBase`] is generic over the [`Element`] type; [`Network`] is its
//! `f32` alias and [`QNetwork`](crate::QNetwork) its raw-word alias. All
//! shared machinery — layer stacking, weight spans, the single-sample and
//! batched forward passes, the blocked-GEMM engine — lives here exactly
//! once; backend-specific surface (training, quantization, raw-word access)
//! lives in per-alias `impl` blocks.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::fmt;
use std::ops::Range;

use navft_qformat::QFormat;

use crate::element::Element;
use crate::engine::{EngineConfig, SweepEvent};
use crate::tensor::TensorBase;
use crate::{gemm, Layer, LayerBase, LayerKind, Scratch, Tensor};

/// Observer/mutator hooks invoked during a forward pass, over the live
/// buffers of the network's element type `E` (`f32` values, raw Q-format
/// words or `i8` affine bytes).
///
/// Hooks are how dynamic fault injection (transient faults in activations,
/// §3.3) and range instrumentation (the inference mitigation of §5.2) attach
/// to the network without the network knowing about fault models. On the
/// integer backends they see the stored words themselves, so fault injection
/// and instrumentation touch the representation that exists at inference
/// time.
///
/// # Batched passes
///
/// [`NetworkBase::forward_batch_into_cfg`] evaluates B inputs per layer
/// sweep and reports each row through the `on_batch_*` methods, whose
/// defaults forward to the per-sample methods with the row index dropped. A
/// hook written for single-sample inference therefore keeps working
/// unchanged on the batched path; hooks that need per-row behaviour (e.g. an
/// independently seeded fault injector per episode) override the batch
/// methods or wrap one hook per row in [`DynRowHooks`].
pub trait ForwardHooks<E: Element = f32> {
    /// Called on the input feature map before the first layer.
    fn on_input(&mut self, values: &mut [E]) {
        let _ = values;
    }

    /// Called on the activation buffer produced by layer `layer_index`.
    fn on_activation(&mut self, layer_index: usize, kind: LayerKind, values: &mut [E]) {
        let _ = (layer_index, kind, values);
    }

    /// Called on batch row `batch_row` of the input before the first layer
    /// of a batched pass. Defaults to [`ForwardHooks::on_input`].
    fn on_batch_input(&mut self, batch_row: usize, values: &mut [E]) {
        let _ = batch_row;
        self.on_input(values);
    }

    /// Called on batch row `batch_row` of the activation buffer produced by
    /// layer `layer_index` during a batched pass. Defaults to
    /// [`ForwardHooks::on_activation`].
    fn on_batch_activation(
        &mut self,
        batch_row: usize,
        layer_index: usize,
        kind: LayerKind,
        values: &mut [E],
    ) {
        let _ = batch_row;
        self.on_activation(layer_index, kind, values);
    }

    /// Whether this hook observes the pass at all. `false` declares that
    /// every method above is a no-op for this hook's whole lifetime — it
    /// neither reads nor writes a buffer nor changes its own state — so a
    /// caller may skip calling it, and a row it rides may share its forward
    /// pass with another row whose staged input is bit-identical (the
    /// vectorized rollout does). Defaults to `true`, so a hook merges with
    /// nothing unless it says so; [`NoHooks`] returns `false`.
    fn observes(&self) -> bool {
        true
    }
}

/// Routes each batch row of a batched forward pass to its own dynamically
/// dispatched hook.
///
/// This is the bit-exactness bridge between batched and per-sample
/// inference under *stateful* hooks. The adapter borrows one
/// `&mut dyn ForwardHooks<E>` per row, so callers that hold heterogeneous
/// hooks — a rollout's per-episode fault injectors, a serving daemon's
/// per-session fault/scrub state coalesced in arrival order — can run them
/// through a single batched sweep. Row `b` of
/// [`NetworkBase::forward_batch_into_cfg`] sees exactly the input/activation
/// call sequence that a standalone [`NetworkBase::forward_with`] using
/// `rows[b]` would see, so per-row stateful hooks (seeded fault injectors,
/// scrub counters) behave identically at any batch composition. On the
/// single-sample methods (a non-batched pass) the adapter behaves as row 0.
///
/// # Panics
///
/// The batch methods panic if the pass has more rows than hooks.
pub struct DynRowHooks<'a, E: Element> {
    rows: Vec<&'a mut dyn ForwardHooks<E>>,
}

impl<'a, E: Element> DynRowHooks<'a, E> {
    /// Wraps one borrowed hook per batch row, in batch-row order.
    pub fn new(rows: Vec<&'a mut dyn ForwardHooks<E>>) -> DynRowHooks<'a, E> {
        DynRowHooks { rows }
    }

    /// Number of rows the adapter covers.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the adapter covers no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl<E: Element> ForwardHooks<E> for DynRowHooks<'_, E> {
    fn on_input(&mut self, values: &mut [E]) {
        if let Some(hook) = self.rows.first_mut() {
            hook.on_input(values);
        }
    }

    fn on_activation(&mut self, layer_index: usize, kind: LayerKind, values: &mut [E]) {
        if let Some(hook) = self.rows.first_mut() {
            hook.on_activation(layer_index, kind, values);
        }
    }

    fn on_batch_input(&mut self, batch_row: usize, values: &mut [E]) {
        assert!(batch_row < self.rows.len(), "DynRowHooks holds no hook for row {batch_row}");
        self.rows[batch_row].on_input(values);
    }

    fn on_batch_activation(
        &mut self,
        batch_row: usize,
        layer_index: usize,
        kind: LayerKind,
        values: &mut [E],
    ) {
        assert!(batch_row < self.rows.len(), "DynRowHooks holds no hook for row {batch_row}");
        self.rows[batch_row].on_activation(layer_index, kind, values);
    }
}

/// A no-op hook set: the fault-free forward pass (every backend).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl<E: Element> ForwardHooks<E> for NoHooks {
    fn observes(&self) -> bool {
        false
    }
}

/// Records the observed value range of every activation buffer.
///
/// Running this over a representative set of inputs yields the per-layer
/// `(aᵢ, bᵢ)` ranges the paper's range-based anomaly detector instruments
/// after training.
#[derive(Debug, Clone, Default)]
pub struct RangeRecorder {
    ranges: Vec<(f32, f32)>,
}

impl RangeRecorder {
    /// Creates an empty recorder.
    pub fn new() -> RangeRecorder {
        RangeRecorder::default()
    }

    /// The observed `(min, max)` per layer index (empty slots are
    /// `(inf, -inf)` if a layer was never observed).
    pub fn ranges(&self) -> &[(f32, f32)] {
        &self.ranges
    }
}

impl ForwardHooks for RangeRecorder {
    fn on_activation(&mut self, layer_index: usize, _kind: LayerKind, values: &mut [f32]) {
        if self.ranges.len() <= layer_index {
            self.ranges.resize(layer_index + 1, (f32::INFINITY, f32::NEG_INFINITY));
        }
        let (lo, hi) = &mut self.ranges[layer_index];
        for &v in values.iter() {
            *lo = lo.min(v);
            *hi = hi.max(v);
        }
    }
}

/// A record of every intermediate activation of a forward pass, used for
/// training.
///
/// A trace can be reused across passes through
/// [`Network::forward_traced_into`], which overwrites the recorded tensors in
/// place instead of reallocating them. The trace also owns the K-major patch
/// panel its convolutions are packed into, so a warm traced pass allocates
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct ForwardTrace {
    /// `values[0]` is the input; `values[i + 1]` is the output of layer `i`.
    pub values: Vec<Tensor>,
    /// The K-major patch panel of the traced convolution sweeps.
    cols: Vec<f32>,
}

impl ForwardTrace {
    /// An empty trace, ready to be filled by [`Network::forward_traced_into`].
    pub fn new() -> ForwardTrace {
        ForwardTrace::default()
    }

    /// The network output (the last recorded value).
    ///
    /// # Panics
    ///
    /// Panics on a trace that has never been filled.
    pub fn output(&self) -> &Tensor {
        self.values.last().expect("trace always holds the input")
    }
}

thread_local! {
    /// The back-propagation workspace of [`Network::backward_tail`]: the
    /// gradient at the current layer's output and the input gradient being
    /// accumulated below it. Reused across calls, so a warm learning step
    /// allocates nothing.
    static GRADS: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// A feed-forward network: an ordered stack of layers plus the backend's
/// metadata, generic over the numeric [`Element`] type.
///
/// The network exposes its weight buffers per layer and lets callers hook the
/// activation buffers produced during a forward pass, which together form the
/// complete fault-injection surface of the paper (input / weight / activation
/// buffers).
///
/// Use the aliases: [`Network`] for the `f32` backend,
/// [`QNetwork`](crate::QNetwork) for the native fixed-point backend and
/// [`I8Network`](crate::I8Network) for the `i8` affine backend. All three
/// run every forward pass through the same generic code and the same
/// blocked-GEMM engine; only the per-element arithmetic differs.
///
/// # Examples
///
/// ```
/// use navft_nn::{mlp, Tensor};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let net = mlp(&[4, 8, 2], &mut rng);
/// let out = net.forward(&Tensor::zeros(&[4]));
/// assert_eq!(out.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkBase<E: Element> {
    layers: Vec<LayerBase<E>>,
    meta: E::Meta,
}

/// A feed-forward `f32` network: the trainable backend, in plain float
/// arithmetic.
pub type Network = NetworkBase<f32>;

impl Eq for NetworkBase<i32> {}

impl<E: Element> NetworkBase<E> {
    /// Builds a network from parts (the per-alias constructors).
    pub(crate) fn from_parts(layers: Vec<LayerBase<E>>, meta: E::Meta) -> NetworkBase<E> {
        NetworkBase { layers, meta }
    }

    /// The backend metadata (nothing for `f32`, the storage format for raw
    /// words, the affine scale for `i8`).
    pub fn net_meta(&self) -> &E::Meta {
        &self.meta
    }

    /// The layers of the network.
    pub fn layers(&self) -> &[LayerBase<E>] {
        &self.layers
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Indices of the layers that hold weights (conv and linear layers), in
    /// network order. These are the targets of per-layer weight fault
    /// injection (Fig. 7d).
    pub fn parametric_layers(&self) -> Vec<usize> {
        self.layers.iter().enumerate().filter(|(_, l)| l.is_parametric()).map(|(i, _)| i).collect()
    }

    /// The weight buffer of layer `index`, if that layer has one.
    pub fn layer_weights(&self, index: usize) -> Option<&[E]> {
        self.layers.get(index).and_then(|l| l.weights())
    }

    /// The weight buffer of layer `index`, mutably — the live storage
    /// weight-fault injection corrupts in place.
    pub fn layer_weights_mut(&mut self, index: usize) -> Option<&mut Vec<E>> {
        self.layers.get_mut(index).and_then(|l| l.weights_mut())
    }

    /// Total number of weights across all layers.
    pub fn weight_count(&self) -> usize {
        self.layers.iter().filter_map(|l| l.weights().map(<[E]>::len)).sum()
    }

    /// The range of flat weight indices occupied by layer `index` when all
    /// weight buffers are viewed as one concatenated buffer.
    ///
    /// Returns an empty range for non-parametric layers.
    pub fn weight_span(&self, index: usize) -> Range<usize> {
        let mut start = 0;
        for (i, layer) in self.layers.iter().enumerate() {
            let len = layer.weights().map_or(0, <[E]>::len);
            if i == index {
                return start..start + len;
            }
            start += len;
        }
        start..start
    }

    /// Applies `f` to every weight buffer (e.g. to corrupt or re-enforce
    /// faults), passing the layer index.
    pub fn for_each_weight_buffer<F: FnMut(usize, &mut Vec<E>)>(&mut self, mut f: F) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            if let Some(w) = layer.weights_mut() {
                f(i, w);
            }
        }
    }

    /// The `(min, max)` value of each parametric layer's weights, keyed by
    /// layer index — the instrumentation the range-based anomaly detector
    /// derives once the policy is trained. Raw-word weights report their
    /// dequantized values.
    pub fn weight_ranges(&self) -> Vec<(usize, f32, f32)> {
        self.layers
            .iter()
            .enumerate()
            .filter_map(|(i, l)| {
                l.weights().map(|w| {
                    // Degenerate zero-width layers report an empty (0, 0)
                    // range instead of panicking.
                    let (mut lo, mut hi) = match w.split_first() {
                        Some((&first, _)) => (first, first),
                        None => (E::default(), E::default()),
                    };
                    for &v in w.iter().skip(1) {
                        // `f32::min`/`f32::max` fold semantics, as in the
                        // pooling kernel: an incomparable extremum (f32 NaN)
                        // is replaced by any comparable value rather than
                        // poisoning the range; for totally ordered raw words
                        // this reduces to plain comparisons.
                        let replace_incomparable =
                            |e: E| e.partial_cmp(&v).is_none() && v.partial_cmp(&v).is_some();
                        if v < lo || replace_incomparable(lo) {
                            lo = v;
                        }
                        if v > hi || replace_incomparable(hi) {
                            hi = v;
                        }
                    }
                    (i, lo.value_to_f32(&self.meta), hi.value_to_f32(&self.meta))
                })
            })
            .collect()
    }

    /// Runs a forward pass with no hooks.
    pub fn forward(&self, input: &TensorBase<E>) -> TensorBase<E> {
        self.forward_with(input, &mut NoHooks)
    }

    /// Runs a single-sample forward pass on the naive reference kernels,
    /// invoking `hooks` on the input buffer and on every layer's activation
    /// buffer. This is the serial oracle the batched engine is pinned
    /// against: every equivalence suite compares
    /// [`NetworkBase::forward_batch_into_cfg`] rows to it bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the input cannot feed this network (a raw-word input in a
    /// different format).
    pub fn forward_with<H: ForwardHooks<E> + ?Sized>(
        &self,
        input: &TensorBase<E>,
        hooks: &mut H,
    ) -> TensorBase<E> {
        E::check_input(input.meta(), &self.meta);
        let mut shape = input.shape().to_vec();
        let mut next_shape = Vec::with_capacity(4);
        let mut current = input.data().to_vec();
        hooks.on_input(&mut current);
        for (i, layer) in self.layers.iter().enumerate() {
            layer.output_shape(&shape, &mut next_shape);
            if layer.is_in_place() {
                if matches!(layer, LayerBase::Relu) {
                    LayerBase::relu_in_place(&mut current);
                }
            } else {
                let mut out = vec![E::default(); next_shape.iter().product()];
                layer.forward_naive(&current, &shape, &mut out, self.meta);
                current = out;
            }
            std::mem::swap(&mut shape, &mut next_shape);
            hooks.on_activation(i, layer.kind(), &mut current);
        }
        let data = current.into_iter().map(|v| v.sanitize(&self.meta)).collect();
        TensorBase::from_parts(shape, data, self.meta)
    }

    /// The batched engine: all `inputs` advance through the network one
    /// layer sweep at a time, with activations staged in `scratch`'s
    /// preallocated slabs, and the outputs are left in `scratch`, readable
    /// via [`Scratch::row`] until the next pass. Steady-state calls perform
    /// no heap allocation at all ([`Scratch::grow_events`] stays flat once
    /// the slabs are warm). A single-sample pass is row 0 of a batch of one.
    ///
    /// `inputs` may hold owned tensors or references (`&[Tensor]` or
    /// `&[&Tensor]`), so callers that stage rows in per-row buffers — a
    /// rollout's per-environment tensors, a serving daemon's pooled request
    /// buffers — need not gather them into a contiguous `Vec` first.
    ///
    /// Each batch row is reported through the hook's batch methods in
    /// per-row program order, so single-sample hooks and [`RangeRecorder`]
    /// work unchanged and [`DynRowHooks`] reproduces per-sample fault
    /// injection bit-exactly. Row `b` of the result equals
    /// `self.forward_with(&inputs[b], ..)` exactly under every
    /// [`EngineConfig`] (see the equivalence test suites), even though the
    /// default kernels run the blocked, SIMD-dispatched GEMM.
    ///
    /// An empty `inputs` slice is a no-op on every backend: the scratch
    /// resets to zero rows, no kernel runs and no hook fires — a batcher
    /// flushing an empty queue costs nothing.
    ///
    /// # Panics
    ///
    /// Panics if the inputs do not share one shape or an input cannot feed
    /// this network.
    pub fn forward_batch_into_cfg<H, R>(
        &self,
        inputs: &[R],
        scratch: &mut Scratch<E>,
        hooks: &mut H,
        config: EngineConfig,
    ) where
        H: ForwardHooks<E> + ?Sized,
        R: Borrow<TensorBase<E>>,
    {
        let Some(first) = inputs.first() else {
            // An empty flush is a no-op on every backend and every kernel
            // choice: reset the scratch to zero rows so stale rows from a
            // previous pass are not readable as this pass's outputs.
            scratch.load_rows(&[0], std::iter::empty());
            return;
        };
        let input_shape = first.borrow().shape();
        for input in inputs {
            let input = input.borrow();
            assert_eq!(input.shape(), input_shape, "all batch inputs must share one shape");
            E::check_input(input.meta(), &self.meta);
        }
        crate::engine::forward_batch_engine(
            &self.layers,
            self.meta,
            input_shape,
            inputs.iter().map(|t| t.borrow().data()),
            scratch,
            config.kernels,
            |event, row| match event {
                SweepEvent::Input { row: b } => hooks.on_batch_input(b, row),
                SweepEvent::Activation { row: b, layer, kind } => {
                    hooks.on_batch_activation(b, layer, kind, row)
                }
            },
        );
    }
}

impl Network {
    /// Builds a network from a stack of layers.
    pub fn new(layers: Vec<Layer>) -> Network {
        NetworkBase::from_parts(layers, ())
    }

    /// Copies all weights into one concatenated buffer (layer order).
    pub fn flat_weights(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.weight_count());
        for layer in &self.layers {
            if let Some(w) = layer.weights() {
                out.extend_from_slice(w);
            }
        }
        out
    }

    /// Overwrites all weights from one concatenated buffer (layer order).
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` differs from [`NetworkBase::weight_count`].
    pub fn set_flat_weights(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.weight_count(), "flat weight buffer length mismatch");
        let mut start = 0;
        for layer in &mut self.layers {
            if let Some(w) = layer.weights_mut() {
                let len = w.len();
                w.copy_from_slice(&flat[start..start + len]);
                start += len;
            }
        }
    }

    /// Snaps every weight to `format` (post-training quantization).
    pub fn quantize_weights(&mut self, format: QFormat) {
        self.for_each_weight_buffer(|_, w| {
            for v in w.iter_mut() {
                *v = navft_qformat::QValue::quantize(*v, format).to_f32();
            }
        });
    }

    /// Compiles this network into the native fixed-point backend
    /// ([`crate::QNetwork`]): parameters quantized into raw `format` words,
    /// every forward pass in integer arithmetic end to end.
    pub fn to_quantized(&self, format: QFormat) -> crate::QNetwork {
        crate::QNetwork::quantize(self, format)
    }

    /// Runs a forward pass recording every intermediate activation into a
    /// reusable `trace` (the input of [`Network::backward_tail`]),
    /// overwriting the recorded tensors in place. After the first call with
    /// a given topology, subsequent calls reuse every activation buffer and
    /// the trace's patch panel (no allocation), which is what makes
    /// replay-heavy DQN training cheap.
    ///
    /// Linear and convolution layers run on the batched engine's blocked,
    /// SIMD-dispatched GEMM (a convolution through its patch panel) at a
    /// batch of one, so every recorded value is bit-identical to the naive
    /// kernels by the GEMM contract: the trace records exactly the
    /// activations [`NetworkBase::forward_with`] produces.
    pub fn forward_traced_into(&self, input: &Tensor, trace: &mut ForwardTrace) {
        let ForwardTrace { values, cols } = trace;
        if values.len() != self.layers.len() + 1 {
            values.resize(self.layers.len() + 1, Tensor::zeros(&[1]));
        }
        values[0].assign(input.shape(), input.data());
        for (i, layer) in self.layers.iter().enumerate() {
            let (head, tail) = values.split_at_mut(i + 1);
            let previous = &head[i];
            let current = &mut tail[0];
            match layer {
                Layer::Relu => {
                    current.assign(previous.shape(), previous.data());
                    Layer::relu_in_place(current.data_mut());
                }
                Layer::Flatten => {
                    current.assign(&[previous.len()], previous.data());
                }
                Layer::MaxPool2d(pool) => {
                    current.resize_to(&pool.output_shape(previous.shape()));
                    pool.forward_into(previous.data(), previous.shape(), current.data_mut());
                }
                Layer::Linear(linear) => {
                    // One row is a `[K, 1]` panel with a `[1, M]` result.
                    assert_eq!(previous.len(), linear.in_features, "linear input length mismatch");
                    current.resize_to(&[linear.out_features]);
                    gemm::gemm_bias(
                        (),
                        true,
                        &linear.weights,
                        &linear.bias,
                        linear.out_features,
                        linear.in_features,
                        previous.data(),
                        1,
                        current.data_mut(),
                    );
                }
                Layer::Conv2d(conv) => {
                    // One row's `[oc, oh·ow]` result already is its
                    // `[oc, oh, ow]` output.
                    let out_shape = conv.output_shape(previous.shape());
                    let [oc, oh, ow] = out_shape;
                    let (ohw, patch) = (oh * ow, conv.patch_len());
                    if cols.len() < patch * ohw {
                        cols.resize(patch * ohw, 0.0);
                    }
                    let panel = &mut cols[..patch * ohw];
                    gemm::pack_patches(conv, previous.data(), 1, previous.shape(), panel);
                    current.resize_to(&out_shape);
                    gemm::gemm_bias(
                        (),
                        true,
                        &conv.weights,
                        &conv.bias,
                        oc,
                        patch,
                        panel,
                        ohw,
                        current.data_mut(),
                    );
                }
            }
        }
    }

    /// Back-propagates `output_grad` through the trailing run of
    /// `Linear`/`Relu`/`Flatten` layers and applies an SGD update with
    /// learning rate `lr`, training only layers with index
    /// `>= trainable_from`.
    ///
    /// This covers both use cases of the paper: the Grid World MLP (all
    /// layers are linear/ReLU) and the drone policy's transfer-learning
    /// fine-tuning, which retrains only the last two fully-connected layers
    /// while the convolutional feature extractor stays frozen.
    ///
    /// Only the gradients an update consumes are computed: the walk stops
    /// at the first layer below `trainable_from` (or at a convolution or
    /// pooling layer), and a linear layer's input gradient is accumulated
    /// only when a trainable linear layer below it will read it. Each weight
    /// row is updated in one pass over the row, the input and the input
    /// gradient, which the compiler vectorizes; every element still sees the
    /// same multiply-then-add sequence, in the same order, as a
    /// straightforward per-element loop, so the updated weights are bit for
    /// bit those of that loop. The gradient buffers are reused across calls.
    ///
    /// Returns the number of parametric layers that were updated.
    ///
    /// # Panics
    ///
    /// Panics if `output_grad` does not match the network output length or
    /// the trace was produced by a different topology.
    pub fn backward_tail(
        &mut self,
        trace: &ForwardTrace,
        output_grad: &[f32],
        lr: f32,
        trainable_from: usize,
    ) -> usize {
        assert_eq!(
            trace.values.len(),
            self.layers.len() + 1,
            "trace does not match network topology"
        );
        assert_eq!(output_grad.len(), trace.output().len(), "output gradient length mismatch");
        GRADS.with(|grads| {
            let (grad, input_grad) = &mut *grads.borrow_mut();
            grad.clear();
            grad.extend_from_slice(output_grad);
            let mut updated = 0;
            for index in (trainable_from..self.layers.len()).rev() {
                let input = trace.values[index].data();
                let (below, rest) = self.layers.split_at_mut(index);
                match &mut rest[0] {
                    Layer::Linear(linear) => {
                        assert_eq!(input.len(), linear.in_features, "trace does not match layer");
                        // The input gradient is read only by a trainable
                        // linear layer reached through ReLU/Flatten layers.
                        let consumed = below[trainable_from..]
                            .iter()
                            .rev()
                            .find(|layer| !layer.is_in_place())
                            .is_some_and(|layer| matches!(layer, Layer::Linear(_)));
                        if consumed {
                            input_grad.clear();
                            input_grad.resize(linear.in_features, 0.0);
                        }
                        let rows = linear.weights.chunks_exact_mut(linear.in_features);
                        for ((row, bias), &g) in rows.zip(linear.bias.iter_mut()).zip(grad.iter()) {
                            let step = lr * g;
                            *bias -= step;
                            if consumed {
                                for ((w, &x), ig) in
                                    row.iter_mut().zip(input).zip(input_grad.iter_mut())
                                {
                                    *ig += *w * g;
                                    *w -= step * x;
                                }
                            } else {
                                for (w, &x) in row.iter_mut().zip(input) {
                                    *w -= step * x;
                                }
                            }
                        }
                        updated += 1;
                        if !consumed {
                            break;
                        }
                        std::mem::swap(grad, input_grad);
                    }
                    Layer::Relu => {
                        for (g, &x) in grad.iter_mut().zip(input) {
                            if x <= 0.0 {
                                *g = 0.0;
                            }
                        }
                    }
                    Layer::Flatten => {
                        // Shape-only change: the gradient passes through unchanged.
                    }
                    Layer::Conv2d(_) | Layer::MaxPool2d(_) => {
                        // The frozen feature extractor: stop back-propagation here.
                        break;
                    }
                }
            }
            updated
        })
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Network[")?;
        for (i, layer) in self.layers.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{}", layer.kind())?;
        }
        write!(f, "] ({} weights)", self.weight_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Kernels;
    use crate::layer::Linear;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_mlp(seed: u64) -> Network {
        let mut rng = SmallRng::seed_from_u64(seed);
        crate::mlp(&[3, 8, 2], &mut rng)
    }

    /// One batched pass under the default config, returning the output rows.
    fn batch_rows<H: ForwardHooks + ?Sized>(
        net: &Network,
        inputs: &[Tensor],
        hooks: &mut H,
    ) -> Vec<Vec<f32>> {
        let mut scratch = Scratch::new();
        net.forward_batch_into_cfg(inputs, &mut scratch, hooks, EngineConfig::default());
        (0..scratch.rows()).map(|b| scratch.row(b).to_vec()).collect()
    }

    #[test]
    fn forward_produces_output_of_last_layer_size() {
        let net = tiny_mlp(0);
        let out = net.forward(&Tensor::from_vec(&[3], vec![0.1, -0.2, 0.3]));
        assert_eq!(out.shape(), &[2]);
    }

    #[test]
    fn parametric_layers_and_weight_spans() {
        let net = tiny_mlp(0);
        let params = net.parametric_layers();
        assert_eq!(params.len(), 2);
        let span0 = net.weight_span(params[0]);
        let span1 = net.weight_span(params[1]);
        assert_eq!(span0.len(), 3 * 8);
        assert_eq!(span1.len(), 8 * 2);
        assert_eq!(span1.start, span0.end);
        assert_eq!(net.weight_count(), 3 * 8 + 8 * 2);
    }

    #[test]
    fn flat_weights_roundtrip() {
        let mut net = tiny_mlp(1);
        let flat = net.flat_weights();
        let mut modified = flat.clone();
        modified[0] = 123.0;
        net.set_flat_weights(&modified);
        assert_eq!(net.flat_weights()[0], 123.0);
        assert_eq!(net.flat_weights()[1..], flat[1..]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_flat_weights_rejects_wrong_length() {
        let mut net = tiny_mlp(1);
        net.set_flat_weights(&[0.0; 3]);
    }

    #[test]
    fn hooks_see_and_can_mutate_activations() {
        struct Zeroer {
            calls: usize,
        }
        impl ForwardHooks for Zeroer {
            fn on_activation(&mut self, _i: usize, kind: LayerKind, values: &mut [f32]) {
                self.calls += 1;
                if kind == LayerKind::Linear {
                    values.iter_mut().for_each(|v| *v = 0.0);
                }
            }
        }
        let net = tiny_mlp(2);
        let mut hook = Zeroer { calls: 0 };
        let out = net.forward_with(&Tensor::from_vec(&[3], vec![1.0, 1.0, 1.0]), &mut hook);
        assert_eq!(hook.calls, net.num_layers());
        assert!(out.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn range_recorder_collects_per_layer_ranges() {
        let net = tiny_mlp(3);
        let mut recorder = RangeRecorder::new();
        for i in 0..5 {
            let x = Tensor::full(&[3], i as f32 * 0.1);
            net.forward_with(&x, &mut recorder);
        }
        assert_eq!(recorder.ranges().len(), net.num_layers());
        for &(lo, hi) in recorder.ranges() {
            assert!(lo <= hi);
        }
    }

    #[test]
    fn quantize_weights_snaps_to_format() {
        let mut net = tiny_mlp(4);
        net.quantize_weights(QFormat::Q3_4);
        for &w in net.flat_weights().iter() {
            let snapped = navft_qformat::QValue::quantize(w, QFormat::Q3_4).to_f32();
            assert_eq!(w, snapped);
        }
    }

    #[test]
    fn weight_ranges_cover_parametric_layers() {
        let net = tiny_mlp(6);
        let ranges = net.weight_ranges();
        assert_eq!(ranges.len(), 2);
        for (_, lo, hi) in ranges {
            assert!(lo < hi);
        }
    }

    #[test]
    fn backward_tail_reduces_regression_loss() {
        // Train y = W x to map [1, 0] -> [1, -1] with SGD steps.
        let mut rng = SmallRng::seed_from_u64(7);
        let mut net = crate::mlp(&[2, 8, 2], &mut rng);
        let x = Tensor::from_vec(&[2], vec![1.0, 0.0]);
        let target = [1.0f32, -1.0];
        let loss = |net: &Network| -> f32 {
            let out = net.forward(&x);
            out.data().iter().zip(target.iter()).map(|(o, t)| (o - t).powi(2)).sum()
        };
        let before = loss(&net);
        let mut trace = ForwardTrace::new();
        for _ in 0..200 {
            net.forward_traced_into(&x, &mut trace);
            let out = trace.output().data().to_vec();
            let grad: Vec<f32> =
                out.iter().zip(target.iter()).map(|(o, t)| 2.0 * (o - t)).collect();
            let updated = net.backward_tail(&trace, &grad, 0.05, 0);
            assert_eq!(updated, 2);
        }
        let after = loss(&net);
        assert!(after < before * 0.05, "loss should shrink: before {before}, after {after}");
    }

    #[test]
    fn backward_tail_respects_trainable_from() {
        let mut net = tiny_mlp(8);
        let first_linear = net.parametric_layers()[0];
        let last_linear = net.parametric_layers()[1];
        let frozen_before = net.layer_weights(first_linear).expect("weights").to_vec();
        let x = Tensor::from_vec(&[3], vec![0.5, -0.5, 1.0]);
        let mut trace = ForwardTrace::new();
        net.forward_traced_into(&x, &mut trace);
        let grad = vec![1.0f32; 2];
        let updated = net.backward_tail(&trace, &grad, 0.1, last_linear);
        assert_eq!(updated, 1);
        assert_eq!(net.layer_weights(first_linear).expect("weights"), frozen_before.as_slice());
    }

    #[test]
    fn backward_stops_at_conv_layers() {
        let mut rng = SmallRng::seed_from_u64(9);
        let conv = crate::layer::Conv2d::new(1, 2, 2, 1, &mut rng);
        let conv_weights = conv.weights.clone();
        let mut net = Network::new(vec![
            Layer::Conv2d(conv),
            Layer::Relu,
            Layer::Flatten,
            // in_features = channels x height x width = 2 x 1 x 1
            Layer::Linear(Linear::new(2, 2, &mut rng)),
        ]);
        let x = Tensor::full(&[1, 2, 2], 0.5);
        let mut trace = ForwardTrace::new();
        net.forward_traced_into(&x, &mut trace);
        let updated = net.backward_tail(&trace, &[0.5, -0.5], 0.1, 0);
        assert_eq!(updated, 1);
        assert_eq!(net.layer_weights(0).expect("conv weights"), conv_weights.as_slice());
    }

    #[test]
    fn forward_batch_matches_serial_forward_bitwise() {
        let net = tiny_mlp(11);
        let inputs: Vec<Tensor> = (0..5)
            .map(|i| Tensor::from_vec(&[3], vec![i as f32 * 0.3 - 0.5, 0.25, -0.1 * i as f32]))
            .collect();
        let batched = batch_rows(&net, &inputs, &mut NoHooks);
        assert_eq!(batched.len(), inputs.len());
        for (input, out) in inputs.iter().zip(batched.iter()) {
            assert_eq!(out.as_slice(), net.forward(input).data());
        }
    }

    #[test]
    fn forward_batch_steady_state_does_not_grow_the_scratch() {
        let net = tiny_mlp(13);
        let inputs = vec![Tensor::full(&[3], 0.5); 4];
        let mut scratch = Scratch::new();
        let config = EngineConfig::default();
        net.forward_batch_into_cfg(&inputs, &mut scratch, &mut NoHooks, config);
        let warm = scratch.grow_events();
        for _ in 0..20 {
            net.forward_batch_into_cfg(&inputs, &mut scratch, &mut NoHooks, config);
        }
        assert_eq!(scratch.grow_events(), warm, "warm passes must not allocate");
    }

    #[test]
    fn naive_path_is_bit_identical_to_the_blocked_path() {
        let mut rng = SmallRng::seed_from_u64(20);
        let net = crate::mlp(&[9, 17, 5, 3], &mut rng);
        let inputs: Vec<Tensor> = (0..7).map(|_| Tensor::uniform(&[9], 1.0, &mut rng)).collect();
        let mut blocked = Scratch::new();
        net.forward_batch_into_cfg(&inputs, &mut blocked, &mut NoHooks, EngineConfig::default());
        let mut naive = Scratch::new();
        let naive_cfg = EngineConfig { kernels: Kernels::Naive };
        net.forward_batch_into_cfg(&inputs, &mut naive, &mut NoHooks, naive_cfg);
        for b in 0..inputs.len() {
            assert_eq!(blocked.row(b), naive.row(b), "row {b} diverged");
        }
    }

    #[test]
    fn forward_scratch_exposes_the_output_row_without_allocating_tensors() {
        let net = tiny_mlp(14);
        let input = Tensor::from_vec(&[3], vec![0.2, -0.4, 0.6]);
        let mut scratch = Scratch::new();
        let config = EngineConfig::default();
        net.forward_batch_into_cfg(&[&input], &mut scratch, &mut NoHooks, config);
        assert_eq!(scratch.row(0), net.forward(&input).data());
    }

    #[test]
    #[should_panic(expected = "share one shape")]
    fn forward_batch_rejects_mixed_input_shapes() {
        let net = tiny_mlp(15);
        let inputs = vec![Tensor::zeros(&[3]), Tensor::zeros(&[4])];
        let _ = batch_rows(&net, &inputs, &mut NoHooks);
    }

    #[test]
    fn forward_batch_with_empty_inputs_returns_empty() {
        let net = tiny_mlp(16);
        assert!(batch_rows(&net, &[], &mut NoHooks).is_empty());
    }

    #[test]
    fn batch_hooks_see_rows_in_per_row_program_order() {
        #[derive(Default)]
        struct CallLog {
            calls: Vec<(usize, Option<usize>)>,
        }
        impl ForwardHooks for CallLog {
            fn on_batch_input(&mut self, row: usize, _values: &mut [f32]) {
                self.calls.push((row, None));
            }
            fn on_batch_activation(
                &mut self,
                row: usize,
                layer: usize,
                _kind: LayerKind,
                _values: &mut [f32],
            ) {
                self.calls.push((row, Some(layer)));
            }
        }
        let net = tiny_mlp(17);
        let inputs = vec![Tensor::zeros(&[3]); 2];
        let mut log = CallLog::default();
        batch_rows(&net, &inputs, &mut log);
        // Input hooks first (rows in order), then per layer all rows in order.
        let mut expected = vec![(0, None), (1, None)];
        for layer in 0..net.num_layers() {
            expected.push((0, Some(layer)));
            expected.push((1, Some(layer)));
        }
        assert_eq!(log.calls, expected);
    }

    #[test]
    fn per_row_hooks_give_each_row_its_own_state() {
        struct AddRowTag(f32);
        impl ForwardHooks for AddRowTag {
            fn on_input(&mut self, values: &mut [f32]) {
                for v in values.iter_mut() {
                    *v += self.0;
                }
            }
        }
        let net = tiny_mlp(18);
        let inputs = vec![Tensor::zeros(&[3]); 3];
        let mut tags = [AddRowTag(0.0), AddRowTag(0.5), AddRowTag(1.0)];
        let rows = tags.iter_mut().map(|tag| tag as &mut dyn ForwardHooks).collect();
        let mut per_row = DynRowHooks::new(rows);
        let batched = batch_rows(&net, &inputs, &mut per_row);
        for (b, tag) in [0.0f32, 0.5, 1.0].iter().enumerate() {
            let mut hook = AddRowTag(*tag);
            let serial = net.forward_with(&inputs[b], &mut hook);
            assert_eq!(batched[b].as_slice(), serial.data(), "row {b} diverged");
        }
        assert_eq!(per_row.len(), 3);
    }

    #[test]
    fn forward_traced_into_reuses_buffers_and_matches_forward_traced() {
        let net = tiny_mlp(19);
        let a = Tensor::from_vec(&[3], vec![0.3, -0.6, 0.9]);
        let b = Tensor::from_vec(&[3], vec![-0.2, 0.4, 0.1]);
        let mut trace = ForwardTrace::new();
        net.forward_traced_into(&a, &mut trace);
        let mut fresh = ForwardTrace::new();
        net.forward_traced_into(&a, &mut fresh);
        assert_eq!(trace.values.len(), fresh.values.len());
        for (reused, one_shot) in trace.values.iter().zip(fresh.values.iter()) {
            assert_eq!(reused.data(), one_shot.data());
        }
        assert_eq!(trace.output().data(), net.forward(&a).data());
        // Refill with a different input: previous values are fully replaced.
        net.forward_traced_into(&b, &mut trace);
        assert_eq!(trace.output().data(), net.forward(&b).data());
    }

    #[test]
    fn display_lists_layer_kinds() {
        let net = tiny_mlp(10);
        let text = net.to_string();
        assert!(text.contains("linear"));
        assert!(text.contains("relu"));
        assert!(text.contains("weights"));
    }
}
