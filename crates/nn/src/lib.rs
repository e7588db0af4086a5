//! A minimal neural-network library with fault-injectable buffers and one
//! generic inference core instantiated for three numeric backends.
//!
//! Learning-based navigation policies run on accelerators that stage data in
//! input, weight (filter) and activation (output) buffers; the paper's fault
//! model corrupts exactly those buffers. This crate therefore provides a small
//! CNN/MLP stack whose buffers are all plainly exposed:
//!
//! * [`Tensor`] — dense `f32` storage with direct access to the flat buffer.
//! * [`Layer`] — convolution, max-pooling, ReLU, flatten and fully-connected
//!   layers ([`layer`] module).
//! * [`Network`] — an ordered layer stack with per-layer weight access,
//!   forward hooks over every activation buffer ([`ForwardHooks`]), range
//!   instrumentation ([`RangeRecorder`]) and SGD training of the
//!   fully-connected tail ([`Network::backward_tail`]) used for
//!   transfer-learning fine-tuning.
//! * [`models`] — the Grid World MLP ([`mlp`]) and the paper's C3F2 drone
//!   policy topology ([`C3f2Config`], Fig. 6b).
//! * [`Scratch`] — a reusable, double-buffered activation arena behind the
//!   batched inference engine ([`NetworkBase::forward_batch_into_cfg`]),
//!   generic over the element type so every backend shares it.
//!
//! # One generic core, three numeric backends
//!
//! The crate's central abstraction is the [`Element`] trait: everything that
//! distinguishes the numeric backends — the widened MAC accumulator, how a
//! bias seeds it, the per-output requantize, what ReLU means, and the
//! metadata networks and tensors carry — lives behind it. The tensor, layer
//! and network types are *aliases of shared generic types*:
//!
//! | generic | `f32` backend | native fixed-point | `i8` affine |
//! |---|---|---|---|
//! | [`TensorBase`]`<E>` | [`Tensor`] | [`QTensor`] | [`I8Tensor`] |
//! | [`layer::Conv2dBase`]`<E>` | [`layer::Conv2d`] | [`QConv2d`] | [`I8Conv2d`] |
//! | [`layer::LinearBase`]`<E>` | [`layer::Linear`] | [`QLinear`] | [`I8Linear`] |
//! | [`LayerBase`]`<E>` | [`Layer`] | [`QLayer`] | [`I8Layer`] |
//! | [`NetworkBase`]`<E>` | [`Network`] | [`QNetwork`] | [`I8Network`] |
//!
//! There is exactly **one** convolution kernel, one fully-connected kernel,
//! one pooling kernel, one argmax and one batched engine in the crate; the
//! backends cannot drift because they are the same code. There is also one
//! hook trait, [`ForwardHooks`]`<E>`, over whichever buffers the backend
//! stores (`f32` values, live raw words, live bytes; [`HooksFor`] is the
//! same trait under the name generic bounds spell), and one quantized-network
//! path ([`QuantizedElement`]) that compiles a trained network into either
//! integer backend, decompiles it, and counts its bits.
//!
//! The forward surface is four entry points, one per concern:
//!
//! * [`NetworkBase::forward`] / [`NetworkBase::forward_with`] — the
//!   single-sample pass on the naive kernels, the serial reference oracle
//!   every equivalence suite compares against;
//! * [`NetworkBase::forward_batch_into_cfg`] — the batched, zero-allocation
//!   engine (a single-sample scratch pass is row 0 of a batch of one);
//! * [`Network::forward_traced_into`] — the traced pass training
//!   back-propagates through.
//!
//! Per backend:
//!
//! * The **`f32` backend** ([`Network`]) trains (Q-learning, DQN,
//!   transfer-learning fine-tuning need float gradients) in plain float
//!   arithmetic; it carries no fixed-point state.
//! * The **native fixed-point backend** ([`QNetwork`], compiled from a
//!   trained network via [`Network::to_quantized`]) stores every buffer as
//!   raw two's-complement Q-format words ([`QTensor`], [`QScratch`]) and
//!   executes Conv2d/Linear sweeps with a widened integer accumulator and one
//!   saturating requantize per output element. The live words the paper's
//!   fault model corrupts exist at inference time, so bit flips and stuck-at
//!   faults are single integer operations — and it is the fast path on
//!   integer hardware. The data-type sensitivity experiments (Fig. 7e and the
//!   extended ablation) execute each format natively on this backend; an
//!   equivalence suite (`tests/integration_quantized_equivalence.rs`) pins it
//!   within one LSB per layer of its dequantized `f32` network forwarded
//!   under a test hook that requantizes every activation, and
//!   bit-deterministic across runs.
//! * The **`i8` per-tensor affine backend** ([`I8Network`], compiled from a
//!   trained network via [`I8Network::quantize`]) stores every buffer as
//!   symmetric `value = word · scale` bytes ([`I8Affine`], one scale per
//!   network), accumulates byte products exactly in a widened `i32` and
//!   performs one rounding, saturating requantize per output element — the
//!   serving-style Int8 scheme of inference runtimes. Its live bytes are
//!   faultable exactly like raw Q-format words (`FaultMap::corrupt` /
//!   `corrupt_span` flip bits of the stored `i8`s), and the data-type sweeps
//!   run it alongside the Q-formats.
//!
//! Adding a **further backend** is one `impl Element for NewType` plus an
//! optional set of aliases: the layers, the engine, the GEMM path, fault
//! injection (`navft-fault` corrupts any storage word) and the `navft-rl`
//! evaluators are already generic — the `i8` backend is exactly that recipe,
//! cashed in.
//!
//! # Batched, zero-allocation, blocked-GEMM inference
//!
//! Fault-injection campaigns replay millions of forward passes, so the hot
//! path must not allocate. Every layer exposes a buffer-to-buffer kernel,
//! and [`NetworkBase::forward_batch_into_cfg`] evaluates B inputs per layer
//! sweep against a [`Scratch`] whose activation slabs are reused across calls:
//! once warm, a pass performs **zero** heap allocations
//! ([`Scratch::grow_events`] stays flat). Convolution and linear sweeps run
//! a blocked GEMM (module `gemm`) with one contract: `[M, K]` weights times
//! a K-major `[K, N]` panel gives a row-major `[M, N]` result. A
//! convolution packs a cache-sized chunk of batch rows' patches straight
//! into the panel; a linear layer transposes its batch rows into it. The
//! sweep runs `MR × NR` register tiles over whole panel rows, each
//! output element still accumulating in the naive kernel's reduction order —
//! so batched, GEMM-accelerated passes stay **bit-identical** to per-sample
//! naive passes on every backend (enforced by the equivalence suites and the
//! crate's proptests; [`Kernels::Naive`] keeps the reference path callable
//! for comparison and benchmarking).
//!
//! Runtime-dispatched **SIMD microkernels** (module [`simd`]) sit behind
//! the same contract: every GEMM sweep is first offered to an explicit
//! `std::arch` AVX2 kernel, selected per CPU at runtime, and runs on the
//! portable scalar register tiles on any CPU without AVX2. The kernels
//! reproduce the scalar accumulation chains bit for bit (every backend
//! vectorizes across output columns, `f32` with explicit multiply + add,
//! never FMA; integer reordering within `k` is exact)
//! ([`simd_kernel_name`] reports `"avx2"` or `"scalar"`).
//!
//! The engine's one knob is [`EngineConfig::kernels`], an explicit,
//! caller-owned choice of [`Kernels::Dispatched`] (the default),
//! [`Kernels::Scalar`] (the scalar tiles only) or [`Kernels::Naive`] (the
//! per-row reference kernels); every choice is bit-identical, and there is
//! no process-wide engine state. Sweeps run on the calling thread:
//! parallelism lives above the engine, in campaign trial workers and serve
//! batcher workers.
//!
//! # The training path
//!
//! [`Network::forward_traced_into`] records every activation of one sample
//! for back-propagation. It runs its linear and convolution layers on the
//! same blocked, SIMD-dispatched GEMM at a batch of one (convolutions through
//! their patch panel, kept inside the [`ForwardTrace`]), so a warm
//! traced pass allocates nothing and stays bit-identical to the naive
//! kernels. Single-column sweeps like this one, and the 1–7 row remainders
//! of any `f32` sweep, run as 8-row tiles of independent accumulators.
//! [`Network::backward_tail`] computes only the gradients an update
//! consumes: it stops at the first frozen layer, skips the input gradient of
//! a linear layer no trainable linear layer below will read (the 100×32 input
//! gradient of the Grid World MLP's first layer, for instance), and updates
//! each weight row in one pass the compiler vectorizes — with the per-element
//! multiply-then-add of a plain loop, so the updated weights are bit for bit
//! the same (pinned against that loop by `tests/proptest_backward.rs`).
//!
//! Hooks map onto batches per row: [`ForwardHooks::on_batch_input`] and
//! [`ForwardHooks::on_batch_activation`] receive `(batch_row, layer,
//! values)` in per-row program order and default to the single-sample
//! methods, so existing hooks (range recording, dynamic fault injection)
//! work unchanged; [`DynRowHooks`] gives each row its own stateful hook,
//! reproducing per-episode fault injection bit-exactly on the batched path.
//! [`ForwardHooks::observes`] lets a hook declare that it does nothing at
//! all (of the library's hooks, only [`NoHooks`] does), which lets a caller
//! compute bit-identical rows once.
//!
//! # Examples
//!
//! ```
//! use navft_nn::{C3f2Config, Tensor};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(0);
//! let config = C3f2Config::scaled();
//! let policy = config.build(&mut rng);
//! let frame = Tensor::zeros(&config.input_shape());
//! let q_values = policy.forward(&frame);
//! assert_eq!(q_values.len(), config.actions);
//! ```

// `deny`, not `forbid`: the `simd` module opts back in with a module-level
// `allow` for its feature-gated intrinsics; everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod layer;
pub mod models;
pub mod simd;

mod element;
mod engine;
mod gemm;
mod i8network;
mod i8tensor;
mod network;
mod qnetwork;
mod qtensor;
mod scratch;
mod tensor;

pub use element::{Element, I8Affine};
pub use engine::{EngineConfig, Kernels};
pub use i8network::{I8Network, I8Scratch};
pub use i8tensor::I8Tensor;
pub use layer::{Conv2d, Linear};
pub use layer::{Layer, LayerBase, LayerKind};
pub use models::{c3f2, c3f2_scaled, mlp, parametric_layer_names, C3f2Config};
pub use network::{
    DynRowHooks, ForwardHooks, ForwardHooks as HooksFor, ForwardTrace, Network, NetworkBase,
    NoHooks, RangeRecorder,
};
pub use qnetwork::{
    I8Conv2d, I8Layer, I8Linear, QConv2d, QLayer, QLinear, QNetwork, QScratch, QuantizedElement,
};
pub use qtensor::QTensor;
pub use scratch::Scratch;
pub use simd::simd_kernel_name;
pub use tensor::{argmax, Tensor, TensorBase};
