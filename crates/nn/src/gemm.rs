//! K-major panel packing + register-tiled GEMM: the batched engine's fast
//! path for convolution and fully-connected sweeps, generic over the
//! backend's [`Element`].
//!
//! Both hot layers are the same computation, under one contract: `C[m][n]
//! = bias[m] + Σ_k W[m][k] · B[k][n]`, with `W` the `[M, K]` row-major
//! weight matrix, `B` a **K-major** `[K, N]` panel of reduction vectors and
//! `C` a row-major `[M, N]` result. A convolution packs its input patches
//! straight into that panel — one panel row per `(ic, ky, kx)`, one column
//! per batch row × output pixel ([`pack_patches`]) — for a chunk of batch
//! rows at a time; a linear layer transposes its `[N, K]` batch rows into
//! it ([`transpose_runs`]), a no-op at `N = 1`. Every kernel then streams
//! whole panel rows: a vector of `B[k][n0..]` is one contiguous load, and a
//! vector of `C[m][n0..]` one contiguous store. The kernel tiles `M × N`
//! into `MR × NR` register blocks and sweeps the full `K` extent once per
//! block, so every weight load feeds `NR` MACs, every panel load feeds `MR`
//! MACs, and each output element owns `1` of `MR × NR` independent
//! accumulators — breaking the single-accumulator dependency chain that
//! bounds the naive kernels.
//!
//! # Bit-exactness contract
//!
//! Each output element's accumulator is seeded with its bias and receives
//! its `K` products in ascending `k` order — exactly the `(ic, ky, kx)`
//! order of [`Conv2dBase::forward_naive`] and the input order of
//! [`LinearBase::forward_naive`]. Tiling only changes *which outputs*
//! accumulate concurrently, never the order within one accumulator, so the
//! GEMM path is bit-identical to the naive path on every backend — `f32`
//! included, where summation order changes results. The equivalence
//! proptests pin this for arbitrary layer stacks.
//!
//! [`Conv2dBase::forward_naive`]: crate::layer::Conv2dBase::forward_naive
//! [`LinearBase::forward_naive`]: crate::layer::LinearBase::forward_naive

use crate::element::Element;
use crate::layer::{zip_strided, Conv2dBase};

/// The byte budget of one packed convolution panel: batch rows are packed
/// and swept in chunks that fit it, so the panel a GEMM streams was just
/// written by the pack and is still cache-resident.
const PANEL_BYTES: usize = 64 * 1024;

/// How many batch rows one packed convolution panel holds: as many as fit
/// [`PANEL_BYTES`] (at least one), given the panel's `patch` rows and the
/// `ohw` output pixels each batch row contributes as columns.
pub(crate) fn conv_chunk_rows<E>(patch: usize, ohw: usize) -> usize {
    (PANEL_BYTES / (patch * ohw * std::mem::size_of::<E>()).max(1)).max(1)
}

/// Packs the K-major patch panel of a convolution: panel row `(ic · k + ky)
/// · k + kx` holds, at column `b · OH·OW + oy · OW + ox`, the input element
/// that output pixel `(oy, ox)` of batch row `b` multiplies by weight `(ic,
/// ky, kx)` — so each panel column is one output's patch in the naive
/// kernel's reduction order. At stride 1 every `(panel row, batch row, oy)`
/// run is one contiguous copy of an input row segment.
///
/// `front` holds `nrows` contiguous `[C, H, W]` batch rows; `cols` must be
/// `C·k·k · nrows · OH·OW` long.
pub(crate) fn pack_patches<E: Element>(
    conv: &Conv2dBase<E>,
    front: &[E],
    nrows: usize,
    in_shape: &[usize],
    cols: &mut [E],
) {
    let (c, h, w) = (in_shape[0], in_shape[1], in_shape[2]);
    let [_, oh, ow] = conv.output_shape(in_shape);
    let (k, s) = (conv.kernel, conv.stride);
    let (row_len, ohw) = (c * h * w, oh * ow);
    let n = nrows * ohw;
    // Real assertions, not debug ones: this cold entry point sizes the
    // panels that the release-mode kernels (including the raw loads of the
    // SIMD microkernels) trust downstream.
    assert_eq!(front.len(), nrows * row_len, "patch pack front slab length mismatch");
    assert_eq!(cols.len(), conv.patch_len() * n, "patch panel length mismatch");
    for (r, panel_row) in cols.chunks_exact_mut(n).enumerate() {
        let (ic, ky, kx) = (r / (k * k), r / k % k, r % k);
        for (img, dst) in front.chunks_exact(row_len).zip(panel_row.chunks_exact_mut(ohw)) {
            let plane = &img[ic * h * w + ky * w + kx..];
            for (oy, run) in dst.chunks_exact_mut(ow).enumerate() {
                // A strided walk even at stride 1: runs are a few elements
                // long, where a `memcpy` call costs more than the copy.
                zip_strided(run, &plane[oy * s * w..], s, |d, v| *d = v);
            }
        }
    }
}

/// Transposes a `[rows, cols]` matrix of `run`-element runs: run `(r, c)`
/// of `src` lands at run `(c, r)` of `dst`. With `run == 1` this is the
/// plain transpose a linear layer applies to move its `[N, K]` batch rows
/// into the K-major panel and its `[M, N]` result back into `[N, M]` rows;
/// with `run == OH·OW` it moves a convolution's `[OC, rows, OH·OW]` result
/// into the rows' `[OC, OH, OW]` output slots.
pub(crate) fn transpose_runs<E: Copy + 'static>(
    src: &[E],
    rows: usize,
    cols: usize,
    run: usize,
    dst: &mut [E],
) {
    assert_eq!(src.len(), rows * cols * run, "transpose source length mismatch");
    assert_eq!(dst.len(), rows * cols * run, "transpose destination length mismatch");
    if run == 1 {
        if crate::simd::transpose_words(src, rows, cols, dst) {
            return;
        }
        for (r, line) in src.chunks_exact(cols).enumerate() {
            for (c, &v) in line.iter().enumerate() {
                dst[c * rows + r] = v;
            }
        }
    } else {
        for (r, line) in src.chunks_exact(cols * run).enumerate() {
            for (c, src_run) in line.chunks_exact(run).enumerate() {
                dst[(c * rows + r) * run..][..run].copy_from_slice(src_run);
            }
        }
    }
}

/// The blocked GEMM with bias: `c[m·n + j] = bias[m] + Σ_k a[m·k + kk] ·
/// b[kk·n + j]` for every `(m, j)`, with `a` `[M, K]` row-major, `b` the
/// K-major `[K, N]` panel and `c` the row-major `[M, N]` result.
///
/// When `simd` is true, first offers the sweep to the backend's
/// runtime-dispatched SIMD microkernel ([`Element::gemm_simd`], see
/// [`crate::simd`]); when that declines — no kernel for this CPU, scalar
/// execution pinned by the engine config, or a backend without SIMD
/// support — dispatches to the register-tile shape the backend's
/// [`Element::GEMM_TILE`] requests. Both paths write every output exactly
/// once and are bit-identical by the contract above. Const generics force
/// one monomorphized scalar kernel per tile shape, so the supported shapes
/// are enumerated here — `(8, 1)` and `(4, 4)`; an unlisted shape runs the
/// `(4, 4)` kernel (results are identical either way, only register
/// pressure differs), as documented on [`Element::GEMM_TILE`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_bias<E: Element>(
    ctx: E::Meta,
    simd: bool,
    a: &[E],
    bias: &[E],
    m: usize,
    k: usize,
    b: &[E],
    n: usize,
    c: &mut [E],
) {
    // Cold-entry panel checks (the SIMD kernels read and write these slices
    // through raw in-bounds loads and stores, so the invariants must hold
    // in release builds).
    assert_eq!(a.len(), m * k, "gemm weight panel length mismatch");
    assert_eq!(b.len(), k * n, "gemm reduction panel length mismatch");
    assert_eq!(bias.len(), m, "gemm bias length mismatch");
    assert_eq!(c.len(), m * n, "gemm result length mismatch");
    if simd && E::gemm_simd(ctx, a, bias, m, k, b, n, c) {
        return;
    }
    match E::GEMM_TILE {
        (8, 1) => gemm_tiled::<E, 8, 1>(ctx, simd, a, bias, m, k, b, n, c),
        _ => gemm_tiled::<E, 4, 4>(ctx, simd, a, bias, m, k, b, n, c),
    }
}

/// The one register-tiled GEMM implementation, monomorphized per tile shape.
///
/// Full `MR × NR` interior tiles run the fast path (`MR × NR` independent
/// accumulators, one full-K sweep, each fed in ascending k order from one
/// contiguous `NR`-wide slice of each panel row); edge tiles fall back to
/// single-output dot products with identical accumulation order. When
/// `simd` is true, each full tile's accumulators are handed as one flat
/// slice to the backend's batched [`Element::finish_tile`] epilogue
/// (bit-identical to the per-element `finish` by contract); the engine's
/// force-scalar pin routes through per-element [`Element::finish`] so the
/// scalar baseline stays epilogue-free.
#[allow(clippy::too_many_arguments)]
fn gemm_tiled<E: Element, const MR: usize, const NR: usize>(
    ctx: E::Meta,
    simd: bool,
    a: &[E],
    bias: &[E],
    m: usize,
    k: usize,
    b: &[E],
    n: usize,
    c: &mut [E],
) {
    // Upper bound on MR · NR across the supported tile shapes, so the
    // epilogue's output scratch can live on the stack without generic
    // arithmetic in the array length.
    const MAX_TILE: usize = 16;
    debug_assert!(MR * NR <= MAX_TILE);
    // Row blocks outer, so each row's bias accumulator is seeded once per
    // sweep (the `i8` seed divides and rounds) and its weights stay hot
    // while the panel streams past.
    let mut m0 = 0;
    while m0 < m {
        let mb = MR.min(m - m0);
        let ar: [&[E]; MR] = std::array::from_fn(|i| &a[(m0 + i.min(mb - 1)) * k..][..k]);
        let init: [E::Acc; MR] =
            std::array::from_fn(|i| E::acc_init(bias[m0 + i.min(mb - 1)], ctx));
        let mut n0 = 0;
        while n0 < n {
            let nb = NR.min(n - n0);
            if mb == MR && nb == NR {
                // Register-tiled fast path.
                let mut acc: [[E::Acc; NR]; MR] = std::array::from_fn(|i| [init[i]; NR]);
                for (kk, panel_row) in b.chunks_exact(n).enumerate() {
                    let bv: [E; NR] = std::array::from_fn(|j| panel_row[n0 + j]);
                    for i in 0..MR {
                        let av = ar[i][kk];
                        for j in 0..NR {
                            acc[i][j] = E::mac(acc[i][j], bv[j], av);
                        }
                    }
                }
                let mut tile_out = [E::default(); MAX_TILE];
                if simd {
                    // Batched epilogue: fold the whole tile's accumulators
                    // in one `finish_tile` call (vectorized for the integer
                    // backends, the same scalar loop otherwise).
                    E::finish_tile(ctx, acc.as_flattened(), &mut tile_out[..MR * NR]);
                } else {
                    for (out, &cell) in tile_out.iter_mut().zip(acc.as_flattened()) {
                        *out = E::finish(cell, ctx);
                    }
                }
                for (i, row) in tile_out[..MR * NR].chunks_exact(NR).enumerate() {
                    c[(m0 + i) * n + n0..][..NR].copy_from_slice(row);
                }
            } else {
                // Edge tiles: plain dot products, same accumulation order.
                for (i, arow) in ar.iter().enumerate().take(mb) {
                    for j in n0..n0 + nb {
                        let mut acc = init[i];
                        for (av, panel_row) in arow.iter().zip(b.chunks_exact(n)) {
                            acc = E::mac(acc, panel_row[j], *av);
                        }
                        c[(m0 + i) * n + j] = E::finish(acc, ctx);
                    }
                }
            }
            n0 += nb;
        }
        m0 += mb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LinearBase;
    use navft_qformat::QFormat;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Runs `linear` over `n` batch rows through the K-major contract —
    /// transpose in, GEMM, transpose out — on the SIMD (`simd`) or scalar
    /// tiles, and checks every row against the naive kernel bit for bit.
    fn check_linear<E: Element>(linear: &LinearBase<E>, rows: &[E], n: usize, ctx: E::Meta) {
        let (m, k) = (linear.out_features, linear.in_features);
        let mut panel = vec![E::default(); k * n];
        transpose_runs(rows, n, k, 1, &mut panel);
        for simd in [true, false] {
            let mut c = vec![E::default(); m * n];
            gemm_bias(ctx, simd, &linear.weights, &linear.bias, m, k, &panel, n, &mut c);
            let mut out = vec![E::default(); n * m];
            transpose_runs(&c, m, n, 1, &mut out);
            for ni in 0..n {
                let mut naive = vec![E::default(); m];
                linear.forward_naive(&rows[ni * k..(ni + 1) * k], &[k], &mut naive, ctx);
                assert_eq!(&out[ni * m..(ni + 1) * m], naive.as_slice(), "row {ni} simd {simd}");
            }
        }
    }

    #[test]
    fn gemm_matches_naive_linear_bitwise_for_f32() {
        let mut rng = SmallRng::seed_from_u64(1);
        let (m, k) = (7, 13);
        let linear = LinearBase::<f32> {
            in_features: k,
            out_features: m,
            weights: (0..m * k).map(|_| rng.gen_range(-1.0f32..=1.0)).collect(),
            bias: (0..m).map(|_| rng.gen_range(-1.0f32..=1.0)).collect(),
        };
        for n in [1, 3, 4, 9, 17, 33] {
            let rows: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..=1.0)).collect();
            check_linear(&linear, &rows, n, ());
        }
    }

    #[test]
    fn gemm_matches_naive_linear_for_raw_words() {
        let fmt = QFormat::Q3_4;
        let mut rng = SmallRng::seed_from_u64(2);
        let (m, k) = (5, 6);
        let raw = |rng: &mut SmallRng| rng.gen_range(-128i32..=127);
        let linear = LinearBase::<i32> {
            in_features: k,
            out_features: m,
            weights: (0..m * k).map(|_| raw(&mut rng)).collect(),
            bias: (0..m).map(|_| raw(&mut rng)).collect(),
        };
        for n in [1, 2, 11, 16, 35] {
            let rows: Vec<i32> = (0..n * k).map(|_| raw(&mut rng)).collect();
            check_linear(&linear, &rows, n, fmt);
        }
    }

    #[test]
    fn transpose_runs_moves_whole_runs() {
        // A [2, 3] matrix of 2-element runs.
        let src = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
        let mut dst = [0; 12];
        transpose_runs(&src, 2, 3, 2, &mut dst);
        assert_eq!(dst, [1, 2, 7, 8, 3, 4, 9, 10, 5, 6, 11, 12]);
        let mut plain = [0; 6];
        transpose_runs(&[1, 2, 3, 4, 5, 6], 2, 3, 1, &mut plain);
        assert_eq!(plain, [1, 4, 2, 5, 3, 6]);
    }

    #[test]
    fn packed_conv_gemm_matches_naive_conv_bitwise() {
        let mut rng = SmallRng::seed_from_u64(3);
        for stride in [1, 2] {
            let conv = Conv2dBase::<f32> {
                in_channels: 2,
                out_channels: 5,
                kernel: 3,
                stride,
                weights: (0..5 * 2 * 9).map(|_| rng.gen_range(-1.0f32..=1.0)).collect(),
                bias: (0..5).map(|_| rng.gen_range(-1.0f32..=1.0)).collect(),
            };
            let in_shape = [2usize, 9, 7];
            let nrows = 3;
            let row_len: usize = in_shape.iter().product();
            let front: Vec<f32> =
                (0..nrows * row_len).map(|_| rng.gen_range(-1.0f32..=1.0)).collect();
            let [oc, oh, ow] = conv.output_shape(&in_shape);
            let (patch, ohw) = (conv.patch_len(), oh * ow);
            let mut cols = vec![0.0f32; patch * nrows * ohw];
            pack_patches(&conv, &front, nrows, &in_shape, &mut cols);
            let mut c = vec![0.0f32; oc * nrows * ohw];
            gemm_bias((), true, &conv.weights, &conv.bias, oc, patch, &cols, nrows * ohw, &mut c);
            let mut out = vec![0.0f32; nrows * oc * ohw];
            transpose_runs(&c, oc, nrows, ohw, &mut out);
            for b in 0..nrows {
                let mut naive = vec![0.0f32; oc * ohw];
                conv.forward_naive(
                    &front[b * row_len..(b + 1) * row_len],
                    &in_shape,
                    &mut naive,
                    (),
                );
                assert_eq!(
                    &out[b * oc * ohw..(b + 1) * oc * ohw],
                    naive.as_slice(),
                    "row {b} stride {stride}"
                );
            }
        }
    }

    #[test]
    fn conv_chunks_fit_the_panel_budget() {
        // A small panel packs many rows, an oversized one still packs one.
        assert_eq!(conv_chunk_rows::<f32>(72, 4), PANEL_BYTES / (72 * 4 * 4));
        assert_eq!(conv_chunk_rows::<f32>(147, 625), 1);
        assert!(conv_chunk_rows::<i8>(25, 196) > conv_chunk_rows::<f32>(25, 196));
    }
}
