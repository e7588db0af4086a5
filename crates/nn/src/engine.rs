//! The batched layer-sweep engine shared by every numeric backend.
//!
//! [`NetworkBase::forward_batch_into_cfg`](crate::NetworkBase::forward_batch_into_cfg)
//! runs the same algorithm on every backend: load the batch rows into the
//! scratch's front slab, report them to the hooks, then per layer either
//! transform the front slab in place or sweep every row into the back slab
//! and swap, reporting each produced row. Keeping that control flow — the
//! shape bookkeeping, the slab ping-pong, the per-row hook order the
//! bit-exactness contracts depend on — in one place means the backends
//! cannot drift; each backend only supplies its [`Element`] arithmetic.
//!
//! [`EngineConfig::kernels`] picks what drives the non-in-place layers:
//!
//! * [`Kernels::Dispatched`] (the default) runs convolutions and linear
//!   layers through the blocked K-major-panel GEMM of `crate::gemm` — a
//!   convolution packs a cache-sized chunk of batch rows' patches per sweep,
//!   a linear layer sweeps the whole batch at once — offering every sweep
//!   to the runtime-dispatched SIMD microkernels first.
//! * [`Kernels::Scalar`] runs the same blocked GEMM on the portable scalar
//!   register tiles only.
//! * [`Kernels::Naive`] runs the per-row reference kernels
//!   ([`LayerBase::forward_naive`]).
//!
//! All three are bit-identical on every backend (the GEMM accumulates each
//! output in the naive kernel's reduction order); the dispatched path is
//! simply fastest. Equivalence proptests pin the contract.

use crate::element::Element;
use crate::layer::LayerBase;
use crate::{gemm, LayerKind, Scratch};

/// Which kernels the batched engine drives for convolution and linear
/// sweeps. Every choice produces bit-identical results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Kernels {
    /// Blocked K-major-panel GEMM, each sweep offered to the runtime-dispatched
    /// SIMD microkernels first (the fast default).
    #[default]
    Dispatched,
    /// Blocked K-major-panel GEMM on the portable scalar register tiles, bypassing
    /// SIMD dispatch — the baseline the dispatch equivalence tests compare
    /// against.
    Scalar,
    /// The per-row naive reference kernels.
    Naive,
}

/// An explicit, caller-owned configuration of the batched engine.
///
/// [`crate::NetworkBase::forward_batch_into_cfg`] threads one of these
/// through the whole batched path, so concurrent callers — servers, tests,
/// benches in one process — cannot observe each other's settings. No
/// setting ever changes results. Batched sweeps always run on the calling
/// thread; parallelism lives above the engine (campaign trial workers and
/// serve batcher workers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineConfig {
    /// The kernels that drive convolution and linear sweeps.
    pub kernels: Kernels,
}

/// A per-row buffer event reported by the batched forward engine.
pub(crate) enum SweepEvent {
    /// Batch row `row` of the input, before the first layer.
    Input {
        /// The batch row index.
        row: usize,
    },
    /// Batch row `row` of the buffer produced by layer `layer`.
    Activation {
        /// The batch row index.
        row: usize,
        /// The producing layer's index.
        layer: usize,
        /// The producing layer's kind.
        kind: LayerKind,
    },
}

/// Runs a batched pass over `layers`, staging activations in `scratch` and
/// reporting every input/activation row through `notify` in per-row program
/// order. The outputs are left in the scratch's front slab.
pub(crate) fn forward_batch_engine<'a, E, I, F>(
    layers: &[LayerBase<E>],
    ctx: E::Ctx,
    input_shape: &[usize],
    rows: I,
    scratch: &mut Scratch<E>,
    kernels: Kernels,
    mut notify: F,
) where
    E: Element,
    I: ExactSizeIterator<Item = &'a [E]>,
    F: FnMut(SweepEvent, &mut [E]),
{
    let blocked = kernels != Kernels::Naive;
    let simd = kernels == Kernels::Dispatched;
    scratch.load_rows(input_shape, rows);
    let nrows = scratch.rows();

    let row_len = scratch.row_len();
    let front = scratch.front_mut();
    for b in 0..nrows {
        notify(SweepEvent::Input { row: b }, &mut front[b * row_len..(b + 1) * row_len]);
    }

    let mut next_shape = scratch.take_next_shape();
    for (i, layer) in layers.iter().enumerate() {
        let in_len = scratch.row_len();
        layer.output_shape(scratch.row_shape(), &mut next_shape);
        let out_len: usize = next_shape.iter().product();
        match layer {
            LayerBase::Relu => LayerBase::relu_in_place(scratch.front_mut()),
            LayerBase::Flatten => {}
            LayerBase::Conv2d(conv) if blocked => {
                // Pack a chunk of batch rows' patches into the K-major panel
                // (sized to stay cache-resident), sweep it with one GEMM into
                // the `[oc, rows · oh·ow]` staging slab, then move each
                // row's `oh·ow` runs into its `[oc, oh, ow]` output slot.
                let (oc, patch) = (conv.out_channels, conv.patch_len());
                let ohw = out_len / oc;
                let chunk = gemm::conv_chunk_rows::<E>(patch, ohw).min(nrows);
                let (in_shape, front, cols, stage, back) =
                    scratch.gemm_slabs(patch * chunk * ohw, oc * chunk * ohw, nrows * out_len);
                for b0 in (0..nrows).step_by(chunk) {
                    let rows = chunk.min(nrows - b0);
                    let n = rows * ohw;
                    let panel = &mut cols[..patch * n];
                    gemm::pack_patches(
                        conv,
                        &front[b0 * in_len..(b0 + rows) * in_len],
                        rows,
                        in_shape,
                        panel,
                    );
                    let result = &mut stage[..oc * n];
                    gemm::gemm_bias(
                        ctx,
                        simd,
                        &conv.weights,
                        &conv.bias,
                        oc,
                        patch,
                        panel,
                        n,
                        result,
                    );
                    let out = &mut back[b0 * out_len..(b0 + rows) * out_len];
                    gemm::transpose_runs(result, oc, rows, ohw, out);
                }
                scratch.swap();
            }
            LayerBase::Linear(linear) if blocked => {
                // The `[N, K]` batch rows transpose into the K-major panel
                // and the `[M, N]` result back into `[N, M]` rows; one row
                // already is a `[K, 1]` panel and a `[1, M]` result, so a
                // batch of one sweeps straight from front to back.
                let (m, k) = (linear.out_features, linear.in_features);
                let (_, front, cols, stage, back) =
                    scratch.gemm_slabs(k * nrows, m * nrows, nrows * m);
                if nrows == 1 {
                    gemm::gemm_bias(ctx, simd, &linear.weights, &linear.bias, m, k, front, 1, back);
                } else {
                    gemm::transpose_runs(front, nrows, k, 1, cols);
                    gemm::gemm_bias(
                        ctx,
                        simd,
                        &linear.weights,
                        &linear.bias,
                        m,
                        k,
                        cols,
                        nrows,
                        stage,
                    );
                    gemm::transpose_runs(stage, m, nrows, 1, back);
                }
                scratch.swap();
            }
            _ => {
                // Per-row reference kernels: max pooling always, conv/linear
                // on the naive path.
                let (in_shape, front, back) = scratch.slabs_for_sweep(nrows * out_len);
                for b in 0..nrows {
                    layer.forward_naive(
                        &front[b * in_len..(b + 1) * in_len],
                        in_shape,
                        &mut back[b * out_len..(b + 1) * out_len],
                        ctx,
                    );
                }
                scratch.swap();
            }
        }
        scratch.set_shape(&next_shape);

        let front = scratch.front_mut();
        for b in 0..nrows {
            notify(
                SweepEvent::Activation { row: b, layer: i, kind: layer.kind() },
                &mut front[b * out_len..(b + 1) * out_len],
            );
        }
    }
    scratch.put_next_shape(next_shape);
}
