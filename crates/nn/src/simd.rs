//! Explicit `std::arch` SIMD microkernels behind the blocked GEMM, with
//! runtime dispatch and a force-scalar override.
//!
//! The GEMM module's `gemm_bias` first offers every sweep to the backend's
//! [`Element::gemm_simd`](crate::Element::gemm_simd) hook, which lands here.
//! Dispatch has one rule on every backend: the AVX2 kernel when the CPU has
//! AVX2, else the portable scalar register tiles — which also run whenever
//! the caller pins scalar execution via [`Kernels::Scalar`].
//!
//! Every kernel reads the GEMM's one operand layout: a K-major `[K, N]`
//! panel (a convolution's packed patches or a linear layer's transposed
//! batch rows), so a vector of `N` consecutive columns at reduction step
//! `k` is one contiguous load, and writes the row-major `[M, N]` result,
//! so a finished vector of columns is one contiguous store. A one-column
//! panel (`N = 1`: ε-greedy acts, traced training passes) is a single
//! contiguous column. Every kernel honours the crate's bit-exactness
//! contract:
//!
//! * **`f32`** vectorizes across *output columns*: each vector lane owns one
//!   output's full `K` chain, fed in ascending `k` order through explicit
//!   multiply + add (never FMA, whose fused rounding would diverge from the
//!   scalar chain), so lane `j` reproduces the scalar accumulator bit for
//!   bit. The kernel runs 8 columns across 4 row-blocked accumulator
//!   registers straight off the panel, and any 1–7 column remainder as one
//!   more pass with masked loads and stores. A one-column panel runs the
//!   scalar chain (f32 summation order is load-bearing) as 8-row tiles of
//!   independent accumulators, so one-column sweeps are not bound by one
//!   add's latency per product.
//! * **`i32` (Q-format) and `i8` (affine)** also vectorize column blocks
//!   lane-per-column, each lane fed in ascending `k` order — the scalar
//!   chain verbatim. Bytes run 16 `i32` lanes with `madd_epi16` folding
//!   `(k, k+1)` product pairs, from a pair panel that interleaves panel
//!   rows `k` and `k+1` of one 16-column block (a trailing block of fewer
//!   columns is zero-padded, and only its real columns are stored). Q
//!   formats whose total width fits `i16` (every preset) take the same
//!   16-lane `madd` shape on narrowed words, guarded for exactness: a
//!   pre-pass profiles each left-hand row (words must fit `i16`, no aligned
//!   `(-32768, -32768)` pair, and a per-row chunk bound keeps `i32` pair
//!   sums from wrapping before they widen into `i64` lanes), and any row or
//!   panel block that fault injection pushed outside those bounds falls
//!   back to widened exact dots for that slice only. Wider formats have no
//!   kernel: `gemm_q` declines them to the scalar tiles. A one-column panel
//!   takes a `k`-vectorized dot with a horizontal reduction, which is still
//!   exact because integer addition is associative and commutative (also
//!   modulo 2ⁿ). Products stay exact in their widened lanes, and the single
//!   rounding requantize per output runs in the vectorized epilogues
//!   (`requantize_q` / `requantize_i8`) that back [`Element::finish_tile`]
//!   — bit-identical to the scalar `finish`, just over whole registers of
//!   accumulators. Without AVX2 the epilogues run the scalar loop.
//!
//! [`Element::finish_tile`]: crate::Element::finish_tile
//! [`Kernels::Scalar`]: crate::Kernels::Scalar
//!
//! This is the only module in the crate that may use `unsafe` (the crate
//! root is `#![deny(unsafe_code)]`): every unsafe operation is a CPU
//! intrinsic gated by `is_x86_feature_detected!` (or from the x86-64
//! baseline) or an in-bounds raw load from a slice whose length the caller
//! checked. Off x86-64 every kernel entry point declines.

#![allow(unsafe_code)]

use crate::element::I8Affine;
use navft_qformat::QFormat;

/// Whether this CPU runs the AVX2 kernels: the one dispatch test of every
/// entry point below. Always `false` off x86-64.
fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return true;
    }
    false
}

/// The kernel tier runtime dispatch selects on this CPU right now: `"avx2"`,
/// or `"scalar"` without AVX2 (and on every non-x86-64 target). Callers that
/// pin [`Kernels::Scalar`] run the scalar tiles regardless of the reported
/// tier.
///
/// [`Kernels::Scalar`]: crate::Kernels::Scalar
pub fn simd_kernel_name() -> &'static str {
    if avx2() {
        "avx2"
    } else {
        "scalar"
    }
}

/// The `f32` column kernel on AVX2; declines to the scalar tiles otherwise.
#[allow(clippy::too_many_arguments)]
#[allow(unused_variables)] // every argument is read on x86-64 only
pub(crate) fn gemm_f32(
    a: &[f32],
    bias: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    c: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        x86::gemm_f32_avx2(a, bias, m, k, b, n, c);
        return true;
    }
    false
}

/// The raw Q-format word kernel on AVX2, for formats whose total width fits
/// `i16` (every preset); declines to the scalar tiles otherwise.
#[allow(clippy::too_many_arguments)]
#[allow(unused_variables)] // every argument is read on x86-64 only
pub(crate) fn gemm_q(
    ctx: QFormat,
    a: &[i32],
    bias: &[i32],
    m: usize,
    k: usize,
    b: &[i32],
    n: usize,
    c: &mut [i32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx2() && ctx.total_bits() <= 16 {
        x86::gemm_q_avx2(ctx, a, bias, m, k, b, n, c);
        return true;
    }
    false
}

/// The `i8` affine byte kernel on AVX2 (`cvtepi8_epi16` + `madd_epi16`);
/// declines to the scalar tiles otherwise.
#[allow(clippy::too_many_arguments)]
#[allow(unused_variables)] // every argument is read on x86-64 only
pub(crate) fn gemm_i8(
    ctx: I8Affine,
    a: &[i8],
    bias: &[i8],
    m: usize,
    k: usize,
    b: &[i8],
    n: usize,
    c: &mut [i8],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        x86::gemm_i8_avx2(ctx, a, bias, m, k, b, n, c);
        return true;
    }
    false
}

/// Q-format requantize epilogue over a slice of widened `i64` accumulators
/// — the batched [`Element::finish_tile`] seam for raw words. AVX2 folds
/// four lanes per step; without it the scalar loop runs. Both reproduce the
/// branchless scalar [`QFormat::requantize_product_sum`] bit for bit (round
/// half away from zero with `i64` saturation, arithmetic shift, raw-range
/// clamp), so dispatch never changes results, only throughput.
///
/// [`Element::finish_tile`]: crate::Element::finish_tile
pub(crate) fn requantize_q(ctx: QFormat, accs: &[i64], out: &mut [i32]) {
    assert_eq!(accs.len(), out.len(), "accumulator and output tiles must match");
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: AVX2 verified above.
        unsafe { x86::requantize_q_avx2(ctx, accs, out) };
        return;
    }
    for (value, &acc) in out.iter_mut().zip(accs) {
        *value = ctx.requantize_product_sum(acc);
    }
}

/// Affine requantize epilogue over a slice of `i32` accumulators — the
/// batched [`Element::finish_tile`] seam for bytes. AVX2 folds eight lanes
/// per step; without it the scalar loop runs. The AVX2 tier runs the scalar
/// chain `(acc as f32 * scale).round().clamp(-128.0, 127.0) as i8` exactly:
/// lane conversion and multiply round to nearest even like the scalar code,
/// and round-half-away is rebuilt from an exact truncate / fraction-compare
/// / signed-step sequence, so results stay bit for bit identical for every
/// accumulator (the affine scale is finite by construction).
///
/// [`Element::finish_tile`]: crate::Element::finish_tile
pub(crate) fn requantize_i8(ctx: I8Affine, accs: &[i32], out: &mut [i8]) {
    assert_eq!(accs.len(), out.len(), "accumulator and output tiles must match");
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: AVX2 verified above.
        unsafe { x86::requantize_i8_avx2(ctx, accs, out) };
        return;
    }
    for (value, &acc) in out.iter_mut().zip(accs) {
        *value = <i8 as crate::element::Element>::finish(acc, ctx);
    }
}

/// Transposes a `[rows, cols]` matrix of `f32` values or `i32` words —
/// `dst[c · rows + r] = src[r · cols + c]` — in 4 × 4 tiles of SSE2
/// shuffles (part of the x86-64 baseline, so AVX2 hosts run them too),
/// moving the bits untouched. Returns `false`, leaving `dst` alone, for any
/// other element type or off x86-64; the caller then transposes element by
/// element.
#[allow(unused_variables)] // every argument is read on x86-64 only
pub(crate) fn transpose_words<E: Copy + 'static>(
    src: &[E],
    rows: usize,
    cols: usize,
    dst: &mut [E],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::any::TypeId;
        let id = TypeId::of::<E>();
        if id == TypeId::of::<f32>() || id == TypeId::of::<i32>() {
            assert!(
                src.len() == rows * cols && dst.len() == rows * cols,
                "transpose length mismatch"
            );
            // SAFETY: `E` is `f32` or `i32` (checked above), both 4-byte
            // plain values, so every element can be moved as one 32-bit
            // lane; the length assertion bounds every tile load and store,
            // and SSE/SSE2 are part of the x86-64 baseline.
            unsafe {
                x86::transpose_words_sse2(src.as_ptr().cast(), rows, cols, dst.as_mut_ptr().cast())
            };
            return true;
        }
    }
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;
    use std::cell::RefCell;

    use navft_qformat::QFormat;

    use crate::element::{Element, I8Affine};

    thread_local! {
        /// The pair panel of the `madd_epi16` kernels (bytes and narrow Q
        /// words): one 16-column block of the K-major panel widened or
        /// narrowed to `i16` and interleaved in `(k, k+1)` pairs, so
        /// `madd_epi16` consumes two `k` steps per instruction (see
        /// [`pack_byte_pairs`]). Reused across sweeps so warm passes stay
        /// allocation-free.
        static PAIR_PANEL: RefCell<Vec<i16>> = const { RefCell::new(Vec::new()) };
        /// Per-call row scratch for the narrow Q-format kernel: every
        /// left-hand row's `(2k, 2k+1)` word pairs pre-packed into one
        /// broadcast-ready `i32` each, plus the per-row widening chunk
        /// bound (`0` marks a row that must take the exact-dot fallback).
        /// Computed once per GEMM call and reused across all column blocks.
        static ROWS_Q16: RefCell<(Vec<i32>, Vec<u32>)> =
            const { RefCell::new((Vec::new(), Vec::new())) };
    }

    /// A one-column panel (ε-greedy acts, traced training passes) on the
    /// scalar chain: blocks of 8 rows run as 8 independent scalar
    /// accumulators (then 4, 2 and 1 for the rows left over), each fed
    /// `bias + Σ_k b·a` in ascending `k` order — the same per-output chain
    /// the tile path's edge case performs, so the results are bit-identical,
    /// but the rows no longer wait on one another's add latency.
    fn column_tiles(a: &[f32], bias: &[f32], m: usize, k: usize, col: &[f32], c: &mut [f32]) {
        let mut i = 0;
        while i + 8 <= m {
            row_tile::<8>(a, bias, k, col, i, c);
            i += 8;
        }
        if m - i >= 4 {
            row_tile::<4>(a, bias, k, col, i, c);
            i += 4;
        }
        if m - i >= 2 {
            row_tile::<2>(a, bias, k, col, i, c);
            i += 2;
        }
        if m > i {
            row_tile::<1>(a, bias, k, col, i, c);
        }
    }

    /// Rows `i0..i0 + R` of the one-column panel: `R` independent
    /// accumulators, each `acc += b·a` in ascending `k` order. The products
    /// of each 8-step block are formed first, row by row, from contiguous
    /// row and panel segments, then folded into the accumulators step by
    /// step: the same single-rounding multiplies and the same add order,
    /// but the multiplies vectorize along `k` instead of the compiler
    /// gathering one word per row for every step.
    fn row_tile<const R: usize>(
        a: &[f32],
        bias: &[f32],
        k: usize,
        col: &[f32],
        i0: usize,
        c: &mut [f32],
    ) {
        const T: usize = 8;
        // Every slice is cut to exactly `k` so the loops run check-free.
        let rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i0 + r) * k..][..k]);
        let mut acc: [f32; R] = std::array::from_fn(|r| bias[i0 + r]);
        let col = &col[..k];
        let blocked = k - k % T;
        for kb in (0..blocked).step_by(T) {
            let bs = &col[kb..kb + T];
            let prods: [[f32; T]; R] = std::array::from_fn(|r| {
                let row = &rows[r][kb..kb + T];
                std::array::from_fn(|t| bs[t] * row[t])
            });
            #[allow(clippy::needless_range_loop)] // t is the step every row folds next
            for t in 0..T {
                for r in 0..R {
                    acc[r] += prods[r][t];
                }
            }
        }
        for kk in blocked..k {
            let bv = col[kk];
            for r in 0..R {
                acc[r] += bv * rows[r][kk];
            }
        }
        c[i0..i0 + R].copy_from_slice(&acc);
    }

    pub(super) fn gemm_f32_avx2(
        a: &[f32],
        bias: &[f32],
        m: usize,
        k: usize,
        b: &[f32],
        n: usize,
        c: &mut [f32],
    ) {
        if n == 1 {
            // One contiguous column: the scalar 8-row tiles.
            column_tiles(a, bias, m, k, b, c);
            return;
        }
        let mut n0 = 0;
        while n0 + 8 <= n {
            // SAFETY: the dispatcher verified AVX2; `gemm_bias` checked
            // `b.len() == k · n` and `c.len() == m · n`, and `n0 + 8 <= n`.
            unsafe { rows_avx2::<false>(a, bias, m, k, b, n, n0, c) };
            n0 += 8;
        }
        if n0 < n {
            // A 1–7 column remainder (a minibatch of 4, say) runs the same
            // kernel on masked loads and stores: masked-off lanes read
            // zeros, never touch memory past the panel row, and are never
            // stored.
            // SAFETY: as above, with `n0 < n`.
            unsafe { rows_avx2::<true>(a, bias, m, k, b, n, n0, c) };
        }
    }

    /// Columns `n0..n0 + 8` of every output row (`MASKED`: only the
    /// `n - n0 < 8` columns that exist): each `k` step is one contiguous
    /// 8-float load from panel row `k`, each finished register one
    /// contiguous store into the output row.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn rows_avx2<const MASKED: bool>(
        a: &[f32],
        bias: &[f32],
        m: usize,
        k: usize,
        b: &[f32],
        n: usize,
        n0: usize,
        c: &mut [f32],
    ) {
        debug_assert!(b.len() == k * n && c.len() == m * n);
        debug_assert!(if MASKED { n0 < n && n - n0 < 8 } else { n0 + 8 <= n });
        let bp = b.as_ptr().add(n0);
        let cp = c.as_mut_ptr().add(n0);
        // Lane `j` is live when `j < n - n0`: its mask word has the sign bit set.
        let width = (n - n0).min(8) as i32;
        let mask =
            _mm256_cmpgt_epi32(_mm256_set1_epi32(width), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        // 4-row blocks: four independent accumulator registers share each
        // panel load and break the one-add-per-cycle dependency chain a
        // single register would impose. Lane `j` of register `r` still sums
        // `bias[i + r] + Σ_k a·b` in ascending `k` order — the scalar chain.
        const MR: usize = 4;
        let mut i = 0;
        while i + MR <= m {
            let rows: [&[f32]; MR] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
            let mut acc: [__m256; MR] = std::array::from_fn(|r| _mm256_set1_ps(bias[i + r]));
            #[allow(clippy::needless_range_loop)] // kk indexes the panel and all MR rows
            for kk in 0..k {
                // Explicit multiply + add: FMA's fused rounding would break
                // bit-identity with the scalar chain.
                let p = bp.add(kk * n);
                let bv = if MASKED { _mm256_maskload_ps(p, mask) } else { _mm256_loadu_ps(p) };
                for r in 0..MR {
                    acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(_mm256_set1_ps(rows[r][kk]), bv));
                }
            }
            for (r, &reg) in acc.iter().enumerate() {
                let p = cp.add((i + r) * n);
                if MASKED {
                    _mm256_maskstore_ps(p, mask, reg);
                } else {
                    _mm256_storeu_ps(p, reg);
                }
            }
            i += MR;
        }
        while i < m {
            let row = &a[i * k..(i + 1) * k];
            let mut acc = _mm256_set1_ps(bias[i]);
            for (kk, &av) in row.iter().enumerate() {
                let p = bp.add(kk * n);
                let bv = if MASKED { _mm256_maskload_ps(p, mask) } else { _mm256_loadu_ps(p) };
                acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(av), bv));
            }
            let p = cp.add(i * n);
            if MASKED {
                _mm256_maskstore_ps(p, mask, acc);
            } else {
                _mm256_storeu_ps(p, acc);
            }
            i += 1;
        }
    }

    /// One output of the exact widened fallback: `acc_init(bias) + Σ_k
    /// arow[k] · b[k][j]` in `i64`, then the scalar requantize. A
    /// one-column panel is one contiguous column and takes the
    /// `k`-vectorized dot; otherwise the column is read with stride `n`.
    /// Wrapping integer addition is associative, so any summation order
    /// matches the scalar chain.
    fn q_dot(ctx: QFormat, arow: &[i32], bias: i32, b: &[i32], n: usize, j: usize) -> i32 {
        let dot = if n == 1 {
            // SAFETY: the dispatcher verified AVX2 before any Q kernel runs.
            unsafe { dot_words_avx2(arow, &b[..arow.len()]) }
        } else {
            arow.iter()
                .zip(b[j..].iter().step_by(n))
                .fold(0i64, |s, (&av, &bv)| s.wrapping_add(i64::from(av) * i64::from(bv)))
        };
        <i32 as Element>::finish(<i32 as Element>::acc_init(bias, ctx).wrapping_add(dot), ctx)
    }

    /// The Q-format kernel for formats whose total width fits `i16`:
    /// 16-column blocks of the panel, raw words narrowed to `i16` and
    /// reduced with `madd_epi16` pairs exactly like the byte kernel; a
    /// trailing block of fewer columns is zero-padded. Blocks or rows that cannot be folded exactly — a
    /// fault-widened word outside `i16`, or the one `madd` pair pattern
    /// whose sum escapes `i32` — fall back to the widened exact dots, so the
    /// kernel stays bit-identical to the scalar chain for *every* input,
    /// including corrupted ones.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn gemm_q_avx2(
        ctx: QFormat,
        a: &[i32],
        bias: &[i32],
        m: usize,
        k: usize,
        b: &[i32],
        n: usize,
        c: &mut [i32],
    ) {
        debug_assert!(ctx.total_bits() <= 16, "wide formats run the scalar tiles");
        if n == 1 {
            for (i, out) in c.iter_mut().enumerate() {
                *out = q_dot(ctx, &a[i * k..(i + 1) * k], bias[i], b, 1, 0);
            }
            return;
        }
        const NR: usize = 16;
        let kpairs = k.div_ceil(2);
        PAIR_PANEL.with(|panel| {
            ROWS_Q16.with(|rows| {
                let mut bt = panel.borrow_mut();
                if bt.len() < kpairs * 2 * NR {
                    bt.resize(kpairs * 2 * NR, 0);
                }
                let bt = &mut bt[..kpairs * 2 * NR];
                let (apairs, chunks) = &mut *rows.borrow_mut();
                if apairs.len() < m * kpairs {
                    apairs.resize(m * kpairs, 0);
                }
                if chunks.len() < m {
                    chunks.resize(m, 0);
                }
                // Profile and pack every `a` row once; each column block
                // below reuses the broadcast-ready pairs and the per-row
                // widening bound instead of rescanning `a`.
                for i in 0..m {
                    chunks[i] = q16_row_pack(
                        &a[i * k..(i + 1) * k],
                        &mut apairs[i * kpairs..(i + 1) * kpairs],
                    );
                }
                let mut n0 = 0;
                while n0 < n {
                    let width = NR.min(n - n0);
                    // SAFETY: the dispatcher verified AVX2; `gemm_bias`
                    // checked the panel length.
                    if unsafe { pack_q_pairs(bt, b, n, n0, width, k) } {
                        // SAFETY: as above; the pair panel holds exactly
                        // kpairs × 32 lanes.
                        unsafe {
                            rows_q16_avx2(
                                ctx,
                                a,
                                bias,
                                m,
                                k,
                                bt,
                                &apairs[..m * kpairs],
                                &chunks[..m],
                                b,
                                n,
                                n0,
                                width,
                                c,
                            );
                        }
                    } else {
                        // A panel word escaped `i16` (fault injection widens
                        // words arbitrarily): serve the block via exact dots.
                        for i in 0..m {
                            for j in n0..n0 + width {
                                c[i * n + j] = q_dot(ctx, &a[i * k..(i + 1) * k], bias[i], b, n, j);
                            }
                        }
                    }
                    n0 += width;
                }
            });
        });
    }

    /// Packs columns `n0..n0 + width` (`width <= 16`) of the K-major
    /// raw-word panel into the [`pack_byte_pairs`] pair layout, narrowing
    /// each word to `i16`: pair row `p` interleaves panel rows `2p` and
    /// `2p + 1` (an odd trailing `k` pairs with zero), and columns past
    /// `width` are zero. Per pair row and group of four columns: two 4-word
    /// loads (one per panel row), a 32-bit interleave and one saturating
    /// narrow; a narrower trailing block first stages its panel row
    /// segments in zero-padded 16-word buffers. A word fits `i16` exactly
    /// when sign-extending its low half reproduces it. Returns `false` when
    /// any word does not — possible only through the fault-injection
    /// surface, since every format this path serves stores within `i16` —
    /// in which case the caller must not use the (saturated) panel.
    #[target_feature(enable = "avx2")]
    unsafe fn pack_q_pairs(
        bt: &mut [i16],
        b: &[i32],
        n: usize,
        n0: usize,
        width: usize,
        k: usize,
    ) -> bool {
        let kpairs = k.div_ceil(2);
        debug_assert!(bt.len() == kpairs * 32 && b.len() == k * n && n0 + width <= n);
        const ZERO: [i32; 16] = [0; 16];
        let mut stage = [[0i32; 16]; 2];
        let mut fit = _mm_set1_epi32(-1);
        let fits_mask =
            |x: __m128i| _mm_cmpeq_epi32(x, _mm_srai_epi32::<16>(_mm_slli_epi32::<16>(x)));
        for p in 0..kpairs {
            let mut rows = [ZERO.as_ptr(); 2];
            for (h, row) in rows.iter_mut().enumerate() {
                let kk = 2 * p + h;
                if kk < k {
                    let segment = &b[kk * n + n0..][..width];
                    *row = if width == 16 {
                        segment.as_ptr()
                    } else {
                        stage[h][..width].copy_from_slice(segment);
                        stage[h].as_ptr()
                    };
                }
            }
            for q in 0..4 {
                let x0 = _mm_loadu_si128(rows[0].add(4 * q).cast::<__m128i>());
                let x1 = _mm_loadu_si128(rows[1].add(4 * q).cast::<__m128i>());
                fit = _mm_and_si128(fit, _mm_and_si128(fits_mask(x0), fits_mask(x1)));
                let packed =
                    _mm_packs_epi32(_mm_unpacklo_epi32(x0, x1), _mm_unpackhi_epi32(x0, x1));
                _mm_storeu_si128(bt.as_mut_ptr().add(p * 32 + q * 8).cast::<__m128i>(), packed);
            }
        }
        _mm_movemask_epi8(fit) == 0xFFFF
    }

    fn fits_i16(word: i32) -> bool {
        word >= i32::from(i16::MIN) && word <= i32::from(i16::MAX)
    }

    /// Profiles a left-hand row for the `madd_epi16` path and packs its
    /// `(2k, 2k+1)` word pairs into broadcast-ready `lo | hi << 16` words
    /// (an odd trailing `k` pads a zero partner). Returns the row's
    /// widening chunk bound, or `0` when the row must take the exact-dot
    /// fallback: a word outside `i16`, or an aligned pair equal to
    /// `(-32768, -32768)`. Outside those cases every `madd_epi16` pair sum
    /// is exact in `i32` — each product is bounded by `2^30` in magnitude,
    /// and the only pair sum reaching `±2^31` is two `(-32768)²` products,
    /// the excluded pattern. The chunk bound caps how many pair sums can
    /// accumulate in `i32` before widening (see [`rows_q16_avx2`]): with
    /// `|a| ≤ max_abs` and `|b| ≤ 2^15`, a `chunk`-step partial sum is
    /// bounded by `chunk · 2 · max_abs · 2^15 ≤ i32::MAX`. The shift in the
    /// bound cannot overflow because `max_abs ≤ 2^15` once every word fits
    /// `i16`; the `chunk = 1` edge stays exact because the scan excluded
    /// the one overflowing pair.
    fn q16_row_pack(row: &[i32], pairs: &mut [i32]) -> u32 {
        let k = row.len();
        debug_assert_eq!(pairs.len(), k.div_ceil(2));
        // Pure reduction passes first — each one a single fold over the
        // contiguous row, which the compiler vectorizes — then an
        // unconditional pack loop over complete pairs.
        let (mut fits, mut max_abs) = (true, 0u32);
        for &w in row {
            fits &= fits_i16(w);
            max_abs = max_abs.max(w.unsigned_abs());
        }
        if !fits {
            return 0;
        }
        let mut min_pair = false;
        for pair in row.chunks_exact(2) {
            min_pair |= (pair[0] == i32::from(i16::MIN)) & (pair[1] == i32::from(i16::MIN));
        }
        if min_pair {
            return 0;
        }
        for (pair, slot) in row.chunks_exact(2).zip(pairs.iter_mut()) {
            *slot = ((pair[0] as u16 as u32) | ((pair[1] as u16 as u32) << 16)) as i32;
        }
        if k % 2 == 1 {
            pairs[k / 2] = (row[k - 1] as u16 as u32) as i32;
        }
        (i32::MAX as u32 / (max_abs.max(1) << 16)).max(1)
    }

    /// Sixteen-column lane-per-column kernel for narrow raw words: each
    /// `i64` lane accumulates `acc_init(bias) + Σ_k a·b` with `madd_epi16`
    /// folding each ascending `(k, k+1)` product pair — exact in `i32` per
    /// the [`q16_row_pack`] bound. Pair sums accumulate in `i32` lanes for
    /// up to the row's pre-computed `chunk` steps before one widening add,
    /// so the `i32` additions never wrap and the final `i64` value equals
    /// the scalar tile's one-at-a-time chain exactly (wrapping addition is
    /// associative). Rows whose chunk bound is `0` failed the exactness
    /// precondition and take the widened exact dots instead. Only the
    /// block's first `width` columns are stored.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn rows_q16_avx2(
        ctx: QFormat,
        a: &[i32],
        bias: &[i32],
        m: usize,
        k: usize,
        bt: &[i16],
        apairs: &[i32],
        chunks: &[u32],
        b: &[i32],
        n: usize,
        n0: usize,
        width: usize,
        c: &mut [i32],
    ) {
        let kpairs = k.div_ceil(2);
        debug_assert_eq!(bt.len(), kpairs * 32);
        debug_assert_eq!(apairs.len(), m * kpairs);
        debug_assert_eq!(chunks.len(), m);
        for i in 0..m {
            let out = &mut c[i * n + n0..][..width];
            let chunk = chunks[i] as usize;
            if chunk == 0 {
                let row = &a[i * k..(i + 1) * k];
                for (j, word) in out.iter_mut().enumerate() {
                    *word = q_dot(ctx, row, bias[i], b, n, n0 + j);
                }
                continue;
            }
            let row_pairs = &apairs[i * kpairs..(i + 1) * kpairs];
            // A block of at most eight real columns skips the padded upper
            // half of the pair panel.
            let wide = width > 8;
            let init = _mm256_set1_epi64x(<i32 as Element>::acc_init(bias[i], ctx));
            let mut acc = [init; 4];
            let mut p = 0usize;
            while p < kpairs {
                let end = (p + chunk).min(kpairs);
                let mut s01 = _mm256_setzero_si256();
                let mut s23 = _mm256_setzero_si256();
                for (off, &pair_word) in row_pairs[p..end].iter().enumerate() {
                    let q = p + off;
                    let pair = _mm256_set1_epi32(pair_word);
                    let b01 = _mm256_loadu_si256(bt.as_ptr().add(q * 32).cast::<__m256i>());
                    s01 = _mm256_add_epi32(s01, _mm256_madd_epi16(pair, b01));
                    if wide {
                        let b23 =
                            _mm256_loadu_si256(bt.as_ptr().add(q * 32 + 16).cast::<__m256i>());
                        s23 = _mm256_add_epi32(s23, _mm256_madd_epi16(pair, b23));
                    }
                }
                acc[0] =
                    _mm256_add_epi64(acc[0], _mm256_cvtepi32_epi64(_mm256_castsi256_si128(s01)));
                acc[1] = _mm256_add_epi64(
                    acc[1],
                    _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(s01)),
                );
                acc[2] =
                    _mm256_add_epi64(acc[2], _mm256_cvtepi32_epi64(_mm256_castsi256_si128(s23)));
                acc[3] = _mm256_add_epi64(
                    acc[3],
                    _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(s23)),
                );
                p = end;
            }
            let mut lanes = [0i64; 16];
            for (quad, &vec) in acc.iter().enumerate() {
                _mm256_storeu_si256(lanes.as_mut_ptr().add(quad * 4).cast::<__m256i>(), vec);
            }
            let mut words = [0i32; 16];
            // SAFETY: still inside the AVX2 target-feature context.
            requantize_q_avx2(ctx, &lanes, &mut words);
            out.copy_from_slice(&words[..width]);
        }
    }

    /// `Σ a[t] · b[t]` in a widened `i64`, exactly — the scalar MAC chain's
    /// sum in a different (irrelevant, integer addition is associative)
    /// order.
    #[target_feature(enable = "avx2")]
    unsafe fn dot_words_avx2(a: &[i32], b: &[i32]) -> i64 {
        debug_assert_eq!(a.len(), b.len());
        let mut even = _mm256_setzero_si256();
        let mut odd = _mm256_setzero_si256();
        let chunks = a.len() / 8;
        for c in 0..chunks {
            let va = _mm256_loadu_si256(a.as_ptr().add(c * 8).cast::<__m256i>());
            let vb = _mm256_loadu_si256(b.as_ptr().add(c * 8).cast::<__m256i>());
            even = _mm256_add_epi64(even, _mm256_mul_epi32(va, vb));
            // The logical 64-bit shift moves each odd 32-bit word into a
            // `mul_epi32` source position; the multiply sign-extends the low
            // halves, so the zero fill above them is irrelevant.
            let va_odd = _mm256_srli_epi64(va, 32);
            let vb_odd = _mm256_srli_epi64(vb, 32);
            odd = _mm256_add_epi64(odd, _mm256_mul_epi32(va_odd, vb_odd));
        }
        let mut lanes = [0i64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), _mm256_add_epi64(even, odd));
        let mut total = lanes.iter().fold(0i64, |s, &l| s.wrapping_add(l));
        for t in chunks * 8..a.len() {
            total = total.wrapping_add(i64::from(a[t]) * i64::from(b[t]));
        }
        total
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn gemm_i8_avx2(
        ctx: I8Affine,
        a: &[i8],
        bias: &[i8],
        m: usize,
        k: usize,
        b: &[i8],
        n: usize,
        c: &mut [i8],
    ) {
        if n == 1 {
            // One contiguous column: `k`-vectorized exact dots.
            for (i, out) in c.iter_mut().enumerate() {
                // SAFETY: the dispatcher verified AVX2.
                let dot = unsafe { dot_bytes_avx2(&a[i * k..(i + 1) * k], b) };
                let acc = <i8 as Element>::acc_init(bias[i], ctx).wrapping_add(dot);
                *out = <i8 as Element>::finish(acc, ctx);
            }
            return;
        }
        const NR: usize = 16;
        let kpairs = k.div_ceil(2);
        PAIR_PANEL.with(|panel| {
            let mut bt = panel.borrow_mut();
            if bt.len() < kpairs * 2 * NR {
                bt.resize(kpairs * 2 * NR, 0);
            }
            let bt = &mut bt[..kpairs * 2 * NR];
            let mut n0 = 0;
            while n0 < n {
                let width = NR.min(n - n0);
                // SAFETY: the dispatcher verified AVX2; `gemm_bias` checked
                // the panel and result lengths, and the pair panel holds
                // exactly kpairs × 32 lanes.
                unsafe {
                    pack_byte_pairs(bt, b, n, n0, width, k);
                    rows_i8_avx2(ctx, a, bias, m, k, bt, n, n0, width, c);
                }
                n0 += width;
            }
        });
    }

    /// Packs columns `n0..n0 + width` (`width <= 16`) of the K-major byte
    /// panel for [`rows_i8_avx2`], widened to `i16` and interleaved in
    /// `(2p, 2p + 1)` reduction pairs: pair block `p` holds `[b(2p, j),
    /// b(2p+1, j)]` at lanes `2j, 2j + 1`, so one 256-bit load feeds
    /// `madd_epi16` for eight columns. An odd trailing `k` step is padded
    /// with a zero partner (`a · 0` contributes nothing), and so are the
    /// columns past `width`. Each pair row interleaves two 16-byte panel
    /// row segments with one unpack pair and sign-extends each half; a
    /// narrower trailing block first stages its segments in zero-padded
    /// buffers.
    #[target_feature(enable = "avx2")]
    unsafe fn pack_byte_pairs(
        bt: &mut [i16],
        b: &[i8],
        n: usize,
        n0: usize,
        width: usize,
        k: usize,
    ) {
        let kpairs = k.div_ceil(2);
        debug_assert!(bt.len() == kpairs * 32 && b.len() == k * n && n0 + width <= n);
        const ZERO: [i8; 16] = [0; 16];
        let mut stage = [[0i8; 16]; 2];
        for p in 0..kpairs {
            let mut rows = [ZERO.as_ptr(); 2];
            for (h, row) in rows.iter_mut().enumerate() {
                let kk = 2 * p + h;
                if kk < k {
                    let segment = &b[kk * n + n0..][..width];
                    *row = if width == 16 {
                        segment.as_ptr()
                    } else {
                        stage[h][..width].copy_from_slice(segment);
                        stage[h].as_ptr()
                    };
                }
            }
            let x0 = _mm_loadu_si128(rows[0].cast::<__m128i>());
            let x1 = _mm_loadu_si128(rows[1].cast::<__m128i>());
            let dst = bt.as_mut_ptr().add(p * 32);
            _mm256_storeu_si256(
                dst.cast::<__m256i>(),
                _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(x0, x1)),
            );
            _mm256_storeu_si256(
                dst.add(16).cast::<__m256i>(),
                _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(x0, x1)),
            );
        }
    }

    /// Sixteen-column lane-per-column kernel for affine bytes: each `i32`
    /// lane accumulates `acc_init(bias) + Σ_k a·b` with `madd_epi16`
    /// folding each ascending `(k, k+1)` product pair before the lane add —
    /// wrapping `i32` addition is associative, so the result equals the
    /// scalar tile's one-at-a-time chain exactly. Every product is exact in
    /// 16-bit-input arithmetic (`|a·b| ≤ 127²`, pair sums ≤ 2·127² — far
    /// from `madd`'s only saturation point) and `add_epi32` wraps like the
    /// scalar accumulator. Only the block's first `width` columns are
    /// stored.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn rows_i8_avx2(
        ctx: I8Affine,
        a: &[i8],
        bias: &[i8],
        m: usize,
        k: usize,
        bt: &[i16],
        n: usize,
        n0: usize,
        width: usize,
        c: &mut [i8],
    ) {
        let kpairs = k.div_ceil(2);
        debug_assert_eq!(bt.len(), kpairs * 32);
        // A block of at most eight real columns skips the padded upper half
        // of the pair panel.
        let wide = width > 8;
        for i in 0..m {
            let row = &a[i * k..(i + 1) * k];
            let init = <i8 as Element>::acc_init(bias[i], ctx);
            let mut lo = _mm256_set1_epi32(init);
            let mut hi = _mm256_set1_epi32(init);
            for p in 0..kpairs {
                // Sign-extend each byte into its 16-bit lane (`as i16`),
                // then reinterpret the bits for the shift-or pack.
                let a0 = u32::from(row[2 * p] as i16 as u16);
                let a1 = if 2 * p + 1 < k { u32::from(row[2 * p + 1] as i16 as u16) } else { 0 };
                let va = _mm256_set1_epi32((a0 | (a1 << 16)) as i32);
                let b_lo = _mm256_loadu_si256(bt.as_ptr().add(p * 32).cast::<__m256i>());
                lo = _mm256_add_epi32(lo, _mm256_madd_epi16(va, b_lo));
                if wide {
                    let b_hi = _mm256_loadu_si256(bt.as_ptr().add(p * 32 + 16).cast::<__m256i>());
                    hi = _mm256_add_epi32(hi, _mm256_madd_epi16(va, b_hi));
                }
            }
            let mut lanes = [0i32; 16];
            _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), lo);
            _mm256_storeu_si256(lanes.as_mut_ptr().add(8).cast::<__m256i>(), hi);
            let mut bytes = [0i8; 16];
            // SAFETY: still inside the AVX2 target-feature context.
            requantize_i8_avx2(ctx, &lanes, &mut bytes);
            c[i * n + n0..][..width].copy_from_slice(&bytes[..width]);
        }
    }

    /// [`super::transpose_words`] on raw 32-bit lanes: full 4 × 4 tiles
    /// through `unpack`/`movelh`/`movehl` shuffles (pure bit moves), the
    /// ragged right and bottom edges element by element.
    ///
    /// # Safety
    ///
    /// `src` and `dst` must each point to `rows · cols` readable
    /// (respectively writable) 4-byte elements, and must not overlap.
    #[target_feature(enable = "sse,sse2")]
    pub(super) unsafe fn transpose_words_sse2(
        src: *const f32,
        rows: usize,
        cols: usize,
        dst: *mut f32,
    ) {
        let (full_r, full_c) = (rows - rows % 4, cols - cols % 4);
        for r0 in (0..full_r).step_by(4) {
            for c0 in (0..full_c).step_by(4) {
                let at = |i: usize| _mm_loadu_ps(src.add((r0 + i) * cols + c0));
                let (a, b, c, d) = (at(0), at(1), at(2), at(3));
                let (ab_lo, cd_lo) = (_mm_unpacklo_ps(a, b), _mm_unpacklo_ps(c, d));
                let (ab_hi, cd_hi) = (_mm_unpackhi_ps(a, b), _mm_unpackhi_ps(c, d));
                let out = [
                    _mm_movelh_ps(ab_lo, cd_lo),
                    _mm_movehl_ps(cd_lo, ab_lo),
                    _mm_movelh_ps(ab_hi, cd_hi),
                    _mm_movehl_ps(cd_hi, ab_hi),
                ];
                for (j, &v) in out.iter().enumerate() {
                    _mm_storeu_ps(dst.add((c0 + j) * rows + r0), v);
                }
            }
        }
        for r in 0..rows {
            let from = if r < full_r { full_c } else { 0 };
            for c in from..cols {
                *dst.add(c * rows + r) = *src.add(r * cols + c);
            }
        }
    }

    /// `Σ a[t] · b[t]` over bytes in a widened `i32`, exactly: the bytes are
    /// sign-extended to 16 bits and pair-multiply-added (`|a·b| ≤ 127²`
    /// keeps every pair sum far from `madd`'s only saturation point,
    /// `i16::MIN · i16::MIN`).
    #[target_feature(enable = "avx2")]
    unsafe fn dot_bytes_avx2(a: &[i8], b: &[i8]) -> i32 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = _mm256_setzero_si256();
        let chunks = a.len() / 16;
        for c in 0..chunks {
            let va = _mm_loadu_si128(a.as_ptr().add(c * 16).cast::<__m128i>());
            let vb = _mm_loadu_si128(b.as_ptr().add(c * 16).cast::<__m128i>());
            let prod = _mm256_madd_epi16(_mm256_cvtepi8_epi16(va), _mm256_cvtepi8_epi16(vb));
            acc = _mm256_add_epi32(acc, prod);
        }
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), acc);
        let mut total = lanes.iter().fold(0i32, |s, &l| s.wrapping_add(l));
        for t in chunks * 16..a.len() {
            total = total.wrapping_add(i32::from(a[t]) * i32::from(b[t]));
        }
        total
    }

    /// Four-lane AVX2 Q requantize: the branchless scalar
    /// `requantize_product_sum` — `half`-biased round half away from zero
    /// with `i64` saturation, arithmetic shift by `frac_bits`, raw-range
    /// clamp — applied to whole `i64` registers. AVX2 has no 64-bit
    /// arithmetic shift, so it is rebuilt from the logical pair plus a sign
    /// fill (a shift count of 64 yields zero, which keeps `frac == 0`
    /// exact).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn requantize_q_avx2(ctx: QFormat, accs: &[i64], out: &mut [i32]) {
        debug_assert_eq!(accs.len(), out.len());
        let frac = i32::from(ctx.frac_bits());
        let half = (1i64 << frac) >> 1;
        let half_v = _mm256_set1_epi64x(half);
        // The negative-lane bias correction: `-1` (so negatives round with
        // `half - 1`) except in the `frac == 0` identity case.
        let neg_bias_v = _mm256_set1_epi64x(-i64::from(half != 0));
        let i64_max_v = _mm256_set1_epi64x(i64::MAX);
        let max_v = _mm256_set1_epi64x(i64::from(ctx.max_raw()));
        let min_v = _mm256_set1_epi64x(i64::from(ctx.min_raw()));
        let zero = _mm256_setzero_si256();
        let srl_count = _mm_cvtsi32_si128(frac);
        let sll_count = _mm_cvtsi32_si128(64 - frac);
        let low_dwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
        let mut i = 0;
        while i + 4 <= accs.len() {
            let x = _mm256_loadu_si256(accs.as_ptr().add(i).cast::<__m256i>());
            let sign_x = _mm256_cmpgt_epi64(zero, x);
            let adjust = _mm256_add_epi64(half_v, _mm256_and_si256(sign_x, neg_bias_v));
            let sum = _mm256_add_epi64(x, adjust);
            // `adjust >= 0`, so the only possible overflow is a non-negative
            // lane wrapping negative — exactly where `saturating_add` pins
            // the scalar chain at `i64::MAX`.
            let wrapped = _mm256_andnot_si256(sign_x, _mm256_cmpgt_epi64(zero, sum));
            let sat = _mm256_blendv_epi8(sum, i64_max_v, wrapped);
            let sign_sat = _mm256_cmpgt_epi64(zero, sat);
            let shifted = _mm256_or_si256(
                _mm256_srl_epi64(sat, srl_count),
                _mm256_sll_epi64(sign_sat, sll_count),
            );
            let clamped = _mm256_blendv_epi8(shifted, max_v, _mm256_cmpgt_epi64(shifted, max_v));
            let clamped = _mm256_blendv_epi8(clamped, min_v, _mm256_cmpgt_epi64(min_v, clamped));
            // Every clamped lane fits `i32`: gather the four low dwords into
            // the low half and store them in one go.
            let words = _mm256_permutevar8x32_epi32(clamped, low_dwords);
            _mm_storeu_si128(
                out.as_mut_ptr().add(i).cast::<__m128i>(),
                _mm256_castsi256_si128(words),
            );
            i += 4;
        }
        for t in i..accs.len() {
            out[t] = ctx.requantize_product_sum(accs[t]);
        }
    }

    /// Eight-lane AVX2 affine requantize: `cvtepi32_ps` and `mul_ps` round
    /// to nearest even exactly like the scalar `as f32` / `*`, and
    /// `round()`'s half-away-from-zero is rebuilt exactly as
    /// truncate + exact fraction + signed unit step (`x - trunc(x)` is
    /// always exact in IEEE arithmetic). The pre-clamp to ±1000.0 keeps the
    /// integer conversion in range and cannot change results: everything
    /// beyond ±127.5 saturates to the same byte.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn requantize_i8_avx2(ctx: I8Affine, accs: &[i32], out: &mut [i8]) {
        debug_assert_eq!(accs.len(), out.len());
        const TRUNC: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
        let scale = _mm256_set1_ps(ctx.scale);
        let limit = _mm256_set1_ps(1000.0);
        let neg_limit = _mm256_set1_ps(-1000.0);
        let sign_bit = _mm256_set1_ps(-0.0);
        let one = _mm256_set1_ps(1.0);
        let half = _mm256_set1_ps(0.5);
        let byte_max = _mm256_set1_ps(127.0);
        let byte_min = _mm256_set1_ps(-128.0);
        let mut i = 0;
        while i + 8 <= accs.len() {
            let v = _mm256_cvtepi32_ps(_mm256_loadu_si256(accs.as_ptr().add(i).cast::<__m256i>()));
            let x = _mm256_min_ps(_mm256_max_ps(_mm256_mul_ps(v, scale), neg_limit), limit);
            let t = _mm256_round_ps::<TRUNC>(x);
            let frac = _mm256_sub_ps(x, t);
            let away = _mm256_cmp_ps::<_CMP_GE_OQ>(_mm256_andnot_ps(sign_bit, frac), half);
            let step = _mm256_or_ps(_mm256_and_ps(x, sign_bit), one);
            let rounded = _mm256_add_ps(t, _mm256_and_ps(away, step));
            let clamped = _mm256_min_ps(_mm256_max_ps(rounded, byte_min), byte_max);
            let q = _mm256_cvtps_epi32(clamped);
            let mut lanes = [0i32; 8];
            _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), q);
            for (value, &lane) in out[i..i + 8].iter_mut().zip(lanes.iter()) {
                *value = lane as i8;
            }
            i += 8;
        }
        for t in i..accs.len() {
            out[t] = <i8 as Element>::finish(accs[t], ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn q_formats() -> Vec<QFormat> {
        vec![
            QFormat::Q4_11,
            QFormat::Q7_8,
            QFormat::Q10_5,
            QFormat::Q3_4,
            QFormat::Q2_5,
            QFormat::Q2_13,
            QFormat::new(6, 0).unwrap(),
            QFormat::new(31, 0).unwrap(),
            QFormat::new(0, 31).unwrap(),
            QFormat::new(15, 16).unwrap(),
        ]
    }

    /// Accumulator probes that hit every epilogue regime: zero, the `i64`
    /// extremes (saturating-add territory), the raw-range clamp edges, the
    /// round-half boundaries, and wide random values of varied magnitude.
    /// The vector length is deliberately not a lane-count multiple so the
    /// scalar remainder path runs too.
    fn q_probe_accs(fmt: QFormat, rng: &mut SmallRng) -> Vec<i64> {
        let frac = u32::from(fmt.frac_bits());
        let half = (1i64 << frac) >> 1;
        let mut accs = vec![
            0,
            1,
            -1,
            i64::MAX,
            i64::MAX - 1,
            i64::MIN,
            i64::MIN + 1,
            i64::from(fmt.max_raw()) << frac,
            i64::from(fmt.min_raw()) << frac,
        ];
        for k in -40i64..=40 {
            let base = k << frac;
            accs.extend([base, base + 1, base - 1, base + half, base - half]);
        }
        for _ in 0..200 {
            let wide = rng.next_u64() as i64;
            accs.push(wide >> (rng.next_u64() % 64));
        }
        accs
    }

    #[test]
    fn q_epilogue_tiers_match_scalar_requantize_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(0xE91);
        for fmt in q_formats() {
            let accs = q_probe_accs(fmt, &mut rng);
            let expected: Vec<i32> =
                accs.iter().map(|&acc| fmt.requantize_product_sum(acc)).collect();
            let mut dispatched = vec![0i32; accs.len()];
            requantize_q(fmt, &accs, &mut dispatched);
            assert_eq!(dispatched, expected, "{fmt} dispatched epilogue");
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    let mut out = vec![0i32; accs.len()];
                    // SAFETY: AVX2 verified above.
                    unsafe { x86::requantize_q_avx2(fmt, &accs, &mut out) };
                    assert_eq!(out, expected, "{fmt} avx2 tier");
                }
            }
        }
    }

    #[test]
    fn i8_epilogue_tiers_match_scalar_finish_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(0x18E9);
        // Power-of-two scales make exact `.5` products reachable, the rest
        // stress the nearest-even multiply; all are finite and positive like
        // every calibrated affine scale.
        for scale in [1.0f32 / 127.0, 0.007_812_5, 0.05, 1.0 / 3.0, 0.5, 1.0, 3.7] {
            let ctx = I8Affine { scale };
            let mut accs: Vec<i32> = vec![
                0,
                1,
                -1,
                i32::MAX,
                i32::MAX - 1,
                i32::MIN,
                i32::MIN + 1,
                127,
                -128,
                128,
                -129,
            ];
            accs.extend(-300..=300);
            for _ in 0..200 {
                accs.push(rng.gen_range(i32::MIN..=i32::MAX));
            }
            let expected: Vec<i8> =
                accs.iter().map(|&acc| <i8 as Element>::finish(acc, ctx)).collect();
            let mut dispatched = vec![0i8; accs.len()];
            requantize_i8(ctx, &accs, &mut dispatched);
            assert_eq!(dispatched, expected, "scale {scale} dispatched epilogue");
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    let mut out = vec![0i8; accs.len()];
                    // SAFETY: AVX2 verified above.
                    unsafe { x86::requantize_i8_avx2(ctx, &accs, &mut out) };
                    assert_eq!(out, expected, "scale {scale} avx2 tier");
                }
            }
        }
    }

    /// Runs one `[m, k] × [k, n]` sweep on the dispatched kernels and on
    /// the scalar tiles and checks they agree element for element.
    fn check_shape<E: Element>(ctx: E::Ctx, a: &[E], bias: &[E], m: usize, k: usize, b: &[E]) {
        let n = b.len() / k;
        let mut simd = vec![E::default(); m * n];
        let mut scalar = vec![E::default(); m * n];
        crate::gemm::gemm_bias(ctx, true, a, bias, m, k, b, n, &mut simd);
        crate::gemm::gemm_bias(ctx, false, a, bias, m, k, b, n, &mut scalar);
        assert_eq!(simd, scalar, "m {m} k {k} n {n}");
    }

    /// Every column remainder (`n` across the 8- and 16-lane block edges,
    /// every 1–7 column masked `f32` remainder, the drone evaluation width
    /// 20 and the one-column panel), odd and even `k`, and row counts around
    /// the 4-row blocks, on all three backends — plus Q panels with words
    /// that escape `i16` in full and in zero-padded trailing blocks, and a
    /// wide format that the Q kernel declines to the scalar tiles.
    #[test]
    fn dispatched_kernels_match_scalar_tiles_on_every_panel_shape() {
        let mut rng = SmallRng::seed_from_u64(0x9A4E1);
        for m in [1usize, 3, 4, 9] {
            for k in [1usize, 2, 7, 16, 33] {
                for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 12, 15, 16, 17, 20, 31, 40] {
                    let f = |rng: &mut SmallRng, len: usize| -> Vec<f32> {
                        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
                    };
                    let (a, bias, b) = (f(&mut rng, m * k), f(&mut rng, m), f(&mut rng, k * n));
                    check_shape((), &a, &bias, m, k, &b);
                    let bytes = |rng: &mut SmallRng, len: usize| -> Vec<i8> {
                        (0..len).map(|_| rng.next_u32() as i8).collect()
                    };
                    let (a, bias, b) =
                        (bytes(&mut rng, m * k), bytes(&mut rng, m), bytes(&mut rng, k * n));
                    check_shape(I8Affine { scale: 0.013 }, &a, &bias, m, k, &b);

                    for fmt in [QFormat::Q4_11, QFormat::Q3_4, QFormat::new(15, 16).unwrap()] {
                        // Wide words stay small enough that the scalar
                        // chain's `i64` sums cannot overflow.
                        let (lo, hi) = (fmt.min_raw().max(-(1 << 20)), fmt.max_raw().min(1 << 20));
                        let words = |rng: &mut SmallRng, len: usize| -> Vec<i32> {
                            (0..len).map(|_| rng.gen_range(lo..=hi)).collect()
                        };
                        let (a, bias, mut b) =
                            (words(&mut rng, m * k), words(&mut rng, m), words(&mut rng, k * n));
                        check_shape(fmt, &a, &bias, m, k, &b);
                        // A fault-widened panel word (outside `i16`) sends
                        // its block to the exact fallback.
                        let at = rng.gen_range(0..b.len());
                        b[at] = 1 << 20;
                        check_shape(fmt, &a, &bias, m, k, &b);
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_name_reports_a_known_tier() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(simd_kernel_name(), "avx2");
            return;
        }
        assert_eq!(simd_kernel_name(), "scalar");
    }

    /// A Q format wider than 16 bits has no kernel: `gemm_q` declines it
    /// and leaves the output untouched for the scalar tiles to fill.
    #[test]
    fn gemm_q_declines_formats_wider_than_16_bits() {
        let fmt = QFormat::new(15, 16).unwrap();
        let (m, k, n) = (3, 5, 9);
        let a: Vec<i32> = (0..m * k).map(|t| t as i32 - 7).collect();
        let bias = vec![1i32; m];
        let b: Vec<i32> = (0..k * n).map(|t| 3 - t as i32).collect();
        let mut c = vec![0x5A5A_5A5Ai32; m * n];
        assert!(!gemm_q(fmt, &a, &bias, m, k, &b, n, &mut c));
        assert!(c.iter().all(|&w| w == 0x5A5A_5A5A), "a declined sweep wrote its output");
    }
}
