//! Explicit `std::arch` SIMD microkernels behind the blocked GEMM, with
//! runtime dispatch and a force-scalar override.
//!
//! The GEMM module's `gemm_bias` first offers every sweep to the backend's
//! [`Element::gemm_simd`](crate::Element::gemm_simd) hook, which lands here;
//! when no kernel fits the running CPU — or the caller pins scalar
//! execution via [`Kernels::Scalar`] — the portable scalar
//! register tiles run instead. Every kernel honours the crate's
//! bit-exactness contract:
//!
//! * **`f32`** vectorizes across *output columns*: each vector lane owns one
//!   output's full `K` chain, fed in ascending `k` order through explicit
//!   multiply + add (never FMA, whose fused rounding would diverge from the
//!   scalar chain), so lane `j` reproduces the scalar accumulator bit for
//!   bit. AVX2 runs 8 columns across 4 row-blocked accumulator registers;
//!   the x86-64 SSE2 baseline runs 4 columns, also in 4-row blocks; AVX2
//!   runs a 4–7 column remainder's first four columns on the 4-lane kernel.
//!   The last `< 4` columns run the scalar chain (f32 summation order is
//!   load-bearing) as 8-row tiles of independent accumulators, so batches
//!   of one row are no longer bound by one add's latency per product.
//! * **`i32` (Q-format) and `i8` (affine)** also vectorize full column
//!   blocks lane-per-column, each lane fed in ascending `k` order — the
//!   scalar chain verbatim. Bytes run 16 `i32` lanes with `madd_epi16`
//!   folding `(k, k+1)` product pairs. Q formats whose total width fits
//!   `i16` (every preset) take the same 16-lane `madd` shape on narrowed
//!   words, guarded for exactness: a pre-pass profiles each left-hand row
//!   (words must fit `i16`, no aligned `(-32768, -32768)` pair, and a
//!   per-row chunk bound keeps `i32` pair sums from wrapping before they
//!   widen into `i64` lanes), and any row, word, or weight panel that
//!   fault injection pushed outside those bounds falls back to widened
//!   exact dots for that slice only. Wider formats keep the 8-lane
//!   `i64`-widened kernel. Remainder columns fall back to a `k`-vectorized
//!   dot with a horizontal reduction, which is still exact because integer
//!   addition is associative and commutative (also modulo 2ⁿ). Products
//!   stay exact in their widened lanes, and the single rounding requantize
//!   per output runs in the vectorized epilogues (`requantize_q` /
//!   `requantize_i8`) that back [`Element::finish_tile`] — bit-identical
//!   to the scalar `finish`, just over whole registers of accumulators.
//!   Both MAC kernels need AVX2; without it the scalar tiles run (the
//!   epilogues also carry an SSE2 tier for the tiled path).
//!
//! [`Element::finish_tile`]: crate::Element::finish_tile
//!
//! This is the only module in the crate that may use `unsafe` (the crate
//! root is `#![deny(unsafe_code)]`): every unsafe operation is a CPU
//! intrinsic gated by `is_x86_feature_detected!` or an in-bounds raw load
//! from a slice whose length the caller checked. Non-x86-64 targets compile
//! declining stubs and keep the scalar tiles.

#![allow(unsafe_code)]

#[allow(unused_imports)]
use crate::element::I8Affine;
#[allow(unused_imports)]
use crate::engine::Kernels;
#[allow(unused_imports)]
use navft_qformat::QFormat;

/// The kernel tier runtime dispatch selects on this CPU right now:
/// `"avx2"`, `"sse2"`, or `"scalar"` when no tier fits (non-x86-64
/// targets). Callers that pin [`Kernels::Scalar`] run the scalar tiles
/// regardless of the reported tier.
pub fn simd_kernel_name() -> &'static str {
    best_tier_name()
}

#[cfg(target_arch = "x86_64")]
fn best_tier_name() -> &'static str {
    if std::arch::is_x86_feature_detected!("avx2") {
        "avx2"
    } else {
        "sse2"
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn best_tier_name() -> &'static str {
    "scalar"
}

/// The `f32` column kernel: AVX2 where detected, SSE2 otherwise (always
/// present on x86-64). Never declines on x86-64.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_f32<F: FnMut(usize, usize, f32)>(
    a: &[f32],
    bias: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    write: &mut F,
) -> bool {
    if std::arch::is_x86_feature_detected!("avx2") {
        x86::gemm_f32_avx2(a, bias, m, k, b, n, write);
    } else {
        x86::gemm_f32_sse2(a, bias, m, k, b, n, write);
    }
    true
}

/// The raw Q-format word kernel: AVX2 only (the even/odd 32×32→64-bit
/// multiply needs it); declines to the scalar tiles otherwise.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_q<F: FnMut(usize, usize, i32)>(
    ctx: QFormat,
    a: &[i32],
    bias: &[i32],
    m: usize,
    k: usize,
    b: &[i32],
    n: usize,
    write: &mut F,
) -> bool {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return false;
    }
    x86::gemm_q_avx2(ctx, a, bias, m, k, b, n, write);
    true
}

/// The `i8` affine byte kernel: AVX2 only (`cvtepi8_epi16` + `madd_epi16`);
/// declines to the scalar tiles otherwise.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_i8<F: FnMut(usize, usize, i8)>(
    ctx: I8Affine,
    a: &[i8],
    bias: &[i8],
    m: usize,
    k: usize,
    b: &[i8],
    n: usize,
    write: &mut F,
) -> bool {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return false;
    }
    x86::gemm_i8_avx2(ctx, a, bias, m, k, b, n, write);
    true
}

/// Vectorized Q-format requantize epilogue over a slice of widened `i64`
/// accumulators — the batched [`Element::finish_tile`] seam for raw words.
/// AVX2 folds four lanes per step, the x86-64 SSE2 baseline two; both
/// reproduce the branchless scalar
/// [`QFormat::requantize_product_sum`] bit for bit (round half away from
/// zero with `i64` saturation, arithmetic shift, raw-range clamp), so
/// dispatch never changes results, only throughput.
///
/// [`Element::finish_tile`]: crate::Element::finish_tile
#[cfg(target_arch = "x86_64")]
pub(crate) fn requantize_q(ctx: QFormat, accs: &[i64], out: &mut [i32]) {
    assert_eq!(accs.len(), out.len(), "accumulator and output tiles must match");
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 verified above.
        unsafe { x86::requantize_q_avx2(ctx, accs, out) };
    } else {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { x86::requantize_q_sse2(ctx, accs, out) };
    }
}

/// Vectorized affine requantize epilogue over a slice of `i32` accumulators
/// — the batched [`Element::finish_tile`] seam for bytes. Both tiers run the
/// scalar chain `(acc as f32 * scale).round().clamp(-128.0, 127.0) as i8`
/// exactly: lane conversion and multiply round to nearest even like the
/// scalar code, and round-half-away is rebuilt from an exact
/// truncate / fraction-compare / signed-step sequence, so results stay bit
/// for bit identical for every accumulator (the affine scale is finite by
/// construction).
///
/// [`Element::finish_tile`]: crate::Element::finish_tile
#[cfg(target_arch = "x86_64")]
pub(crate) fn requantize_i8(ctx: I8Affine, accs: &[i32], out: &mut [i8]) {
    assert_eq!(accs.len(), out.len(), "accumulator and output tiles must match");
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 verified above.
        unsafe { x86::requantize_i8_avx2(ctx, accs, out) };
    } else {
        // SAFETY: SSE/SSE2 are part of the x86-64 baseline.
        unsafe { x86::requantize_i8_sse2(ctx, accs, out) };
    }
}

/// Portable fallback: the scalar epilogue loop, element by element.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn requantize_q(ctx: QFormat, accs: &[i64], out: &mut [i32]) {
    assert_eq!(accs.len(), out.len(), "accumulator and output tiles must match");
    for (value, &acc) in out.iter_mut().zip(accs.iter()) {
        *value = ctx.requantize_product_sum(acc);
    }
}

/// Portable fallback: the scalar epilogue loop, element by element.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn requantize_i8(ctx: I8Affine, accs: &[i32], out: &mut [i8]) {
    assert_eq!(accs.len(), out.len(), "accumulator and output tiles must match");
    for (value, &acc) in out.iter_mut().zip(accs.iter()) {
        *value = <i8 as crate::element::Element>::finish(acc, ctx);
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_f32<F: FnMut(usize, usize, f32)>(
    _a: &[f32],
    _bias: &[f32],
    _m: usize,
    _k: usize,
    _b: &[f32],
    _n: usize,
    _write: &mut F,
) -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_q<F: FnMut(usize, usize, i32)>(
    _ctx: QFormat,
    _a: &[i32],
    _bias: &[i32],
    _m: usize,
    _k: usize,
    _b: &[i32],
    _n: usize,
    _write: &mut F,
) -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_i8<F: FnMut(usize, usize, i8)>(
    _ctx: I8Affine,
    _a: &[i8],
    _bias: &[i8],
    _m: usize,
    _k: usize,
    _b: &[i8],
    _n: usize,
    _write: &mut F,
) -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m128, __m128i, __m256, __m256i, _mm256_add_epi32, _mm256_add_epi64, _mm256_add_ps,
        _mm256_and_ps, _mm256_and_si256, _mm256_andnot_ps, _mm256_andnot_si256, _mm256_blendv_epi8,
        _mm256_castsi256_si128, _mm256_cmp_ps, _mm256_cmpgt_epi64, _mm256_cvtepi32_epi64,
        _mm256_cvtepi32_ps, _mm256_cvtepi8_epi16, _mm256_cvtps_epi32, _mm256_extracti128_si256,
        _mm256_loadu_ps, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_max_ps, _mm256_min_ps,
        _mm256_mul_epi32, _mm256_mul_ps, _mm256_or_ps, _mm256_or_si256, _mm256_packs_epi32,
        _mm256_permutevar8x32_epi32, _mm256_round_ps, _mm256_set1_epi32, _mm256_set1_epi64x,
        _mm256_set1_ps, _mm256_setr_epi32, _mm256_setzero_si256, _mm256_sll_epi64,
        _mm256_srl_epi64, _mm256_srli_epi64, _mm256_storeu_ps, _mm256_storeu_si256, _mm256_sub_ps,
        _mm_add_epi64, _mm_add_ps, _mm_and_ps, _mm_and_si128, _mm_andnot_ps, _mm_andnot_si128,
        _mm_cmpge_ps, _mm_cvtepi32_ps, _mm_cvtsi32_si128, _mm_cvttps_epi32, _mm_loadu_ps,
        _mm_loadu_si128, _mm_max_ps, _mm_min_ps, _mm_mul_ps, _mm_or_ps, _mm_or_si128,
        _mm_set1_epi64x, _mm_set1_ps, _mm_setzero_si128, _mm_shuffle_epi32, _mm_sll_epi64,
        _mm_srai_epi32, _mm_srl_epi64, _mm_storeu_ps, _mm_storeu_si128, _mm_sub_ps,
        _mm_unpackhi_epi32, _mm_unpackhi_epi64, _mm_unpacklo_epi32, _mm_unpacklo_epi64, _CMP_GE_OQ,
        _MM_FROUND_NO_EXC, _MM_FROUND_TO_ZERO,
    };
    use std::cell::RefCell;

    use navft_qformat::QFormat;

    use crate::element::{Element, I8Affine};

    thread_local! {
        /// The transposed `K × NR` panel the f32 column kernels stream with
        /// one contiguous load per `k` step, reused across sweeps so warm
        /// passes stay allocation-free.
        static PANEL_F32: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
        /// The raw-word twin of [`PANEL_F32`] for the Q-format kernel.
        static PANEL_Q: RefCell<Vec<i32>> = const { RefCell::new(Vec::new()) };
        /// The `i8` kernel's panel: bytes widened to `i16` and interleaved
        /// in `(k, k+1)` pairs so `madd_epi16` consumes two `k` steps per
        /// instruction (see [`pack_byte_pairs`]).
        static PANEL_I8: RefCell<Vec<i16>> = const { RefCell::new(Vec::new()) };
        /// The narrow Q-format kernel's panel: raw words of formats that fit
        /// `i16` (every total width ≤ 16), narrowed and interleaved in the
        /// same `(k, k+1)` pair layout as [`PANEL_I8`].
        static PANEL_Q16: RefCell<Vec<i16>> = const { RefCell::new(Vec::new()) };
        /// Per-call row scratch for the narrow Q-format kernel: every
        /// left-hand row's `(2k, 2k+1)` word pairs pre-packed into one
        /// broadcast-ready `i32` each, plus the per-row widening chunk
        /// bound (`0` marks a row that must take the exact-dot fallback).
        /// Computed once per GEMM call and reused across all column blocks.
        static ROWS_Q16: RefCell<(Vec<i32>, Vec<u32>)> =
            const { RefCell::new((Vec::new(), Vec::new())) };
    }

    /// Packs `bt[kk · nr + j] = b[(n0 + j) · k + kk]` — `nr` consecutive
    /// columns of the reduction panel, transposed.
    fn pack_columns<T: Copy>(bt: &mut [T], b: &[T], n0: usize, k: usize, nr: usize) {
        for j in 0..nr {
            let col = &b[(n0 + j) * k..(n0 + j + 1) * k];
            for (kk, &v) in col.iter().enumerate() {
                bt[kk * nr + j] = v;
            }
        }
    }

    /// The `< NR` remainder columns: per column, blocks of 8 rows run as
    /// 8 independent scalar accumulators (then 4, 2 and 1 for the rows
    /// left over), each fed `bias + Σ_k b·a` in ascending `k` order — the
    /// same per-output chain the tile path's edge case performs, so the
    /// results are bit-identical, but the rows no longer wait on one
    /// another's add latency. This is the whole sweep for batches of 1–7
    /// rows (ε-greedy acts, traced training passes, small minibatches).
    #[allow(clippy::too_many_arguments)]
    fn scalar_columns<F: FnMut(usize, usize, f32)>(
        a: &[f32],
        bias: &[f32],
        m: usize,
        k: usize,
        b: &[f32],
        from: usize,
        n: usize,
        write: &mut F,
    ) {
        for j in from..n {
            let col = &b[j * k..(j + 1) * k];
            let mut i = 0;
            while i + 8 <= m {
                row_tile::<8, F>(a, bias, k, col, i, j, write);
                i += 8;
            }
            if m - i >= 4 {
                row_tile::<4, F>(a, bias, k, col, i, j, write);
                i += 4;
            }
            if m - i >= 2 {
                row_tile::<2, F>(a, bias, k, col, i, j, write);
                i += 2;
            }
            if m > i {
                row_tile::<1, F>(a, bias, k, col, i, j, write);
            }
        }
    }

    /// Rows `i0..i0 + R` of remainder column `j`: `R` independent
    /// accumulators, each `acc += b·a` in ascending `k` order.
    fn row_tile<const R: usize, F: FnMut(usize, usize, f32)>(
        a: &[f32],
        bias: &[f32],
        k: usize,
        col: &[f32],
        i0: usize,
        j: usize,
        write: &mut F,
    ) {
        // Every slice is cut to exactly `k` so the loop runs check-free.
        let col = &col[..k];
        let rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i0 + r) * k..][..k]);
        let mut acc: [f32; R] = std::array::from_fn(|r| bias[i0 + r]);
        for kk in 0..k {
            let bv = col[kk];
            for r in 0..R {
                acc[r] += bv * rows[r][kk];
            }
        }
        for (r, &v) in acc.iter().enumerate() {
            write(i0 + r, j, v);
        }
    }

    pub(super) fn gemm_f32_avx2<F: FnMut(usize, usize, f32)>(
        a: &[f32],
        bias: &[f32],
        m: usize,
        k: usize,
        b: &[f32],
        n: usize,
        write: &mut F,
    ) {
        const NR: usize = 8;
        PANEL_F32.with(|panel| {
            let mut bt = panel.borrow_mut();
            if bt.len() < k * NR {
                bt.resize(k * NR, 0.0);
            }
            let mut n0 = 0;
            while n0 + NR <= n {
                pack_columns(&mut bt[..k * NR], b, n0, k, NR);
                // SAFETY: the dispatcher verified AVX2; the panel slice holds
                // exactly k × 8 packed floats.
                unsafe { rows_avx2(a, bias, m, k, &bt[..k * NR], n0, write) };
                n0 += NR;
            }
            // A remainder of 4–7 columns (a minibatch of 4, say) runs its
            // first four on the 4-lane kernel.
            if n - n0 >= 4 {
                pack_columns(&mut bt[..k * 4], b, n0, k, 4);
                // SAFETY: SSE/SSE2 are part of the x86-64 baseline; the
                // panel slice holds exactly k × 4 packed floats.
                unsafe { rows_sse2(a, bias, m, k, &bt[..k * 4], n0, write) };
                n0 += 4;
            }
            scalar_columns(a, bias, m, k, b, n0, n, write);
        });
    }

    #[target_feature(enable = "avx2")]
    unsafe fn rows_avx2<F: FnMut(usize, usize, f32)>(
        a: &[f32],
        bias: &[f32],
        m: usize,
        k: usize,
        bt: &[f32],
        n0: usize,
        write: &mut F,
    ) {
        debug_assert_eq!(bt.len(), k * 8);
        // 4-row blocks: four independent accumulator registers share each
        // panel load and break the one-add-per-cycle dependency chain a
        // single register would impose. Lane `j` of register `r` still sums
        // `bias[i + r] + Σ_k a·b` in ascending `k` order — the scalar chain.
        const MR: usize = 4;
        let mut i = 0;
        while i + MR <= m {
            let rows: [&[f32]; MR] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
            let mut acc: [__m256; MR] = std::array::from_fn(|r| _mm256_set1_ps(bias[i + r]));
            #[allow(clippy::needless_range_loop)] // kk indexes `bt` and all MR rows
            for kk in 0..k {
                // Explicit multiply + add: FMA's fused rounding would break
                // bit-identity with the scalar chain.
                let bv = _mm256_loadu_ps(bt.as_ptr().add(kk * 8));
                for r in 0..MR {
                    acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(_mm256_set1_ps(rows[r][kk]), bv));
                }
            }
            for (r, &reg) in acc.iter().enumerate() {
                let mut lanes = [0.0f32; 8];
                _mm256_storeu_ps(lanes.as_mut_ptr(), reg);
                for (j, &v) in lanes.iter().enumerate() {
                    write(i + r, n0 + j, v);
                }
            }
            i += MR;
        }
        while i < m {
            let row = &a[i * k..(i + 1) * k];
            let mut acc = _mm256_set1_ps(bias[i]);
            for (kk, &av) in row.iter().enumerate() {
                let bv = _mm256_loadu_ps(bt.as_ptr().add(kk * 8));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(av), bv));
            }
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
            for (j, &v) in lanes.iter().enumerate() {
                write(i, n0 + j, v);
            }
            i += 1;
        }
    }

    pub(super) fn gemm_f32_sse2<F: FnMut(usize, usize, f32)>(
        a: &[f32],
        bias: &[f32],
        m: usize,
        k: usize,
        b: &[f32],
        n: usize,
        write: &mut F,
    ) {
        const NR: usize = 4;
        PANEL_F32.with(|panel| {
            let mut bt = panel.borrow_mut();
            if bt.len() < k * NR {
                bt.resize(k * NR, 0.0);
            }
            let mut n0 = 0;
            while n0 + NR <= n {
                pack_columns(&mut bt[..k * NR], b, n0, k, NR);
                // SAFETY: SSE/SSE2 are part of the x86-64 baseline; the
                // panel slice holds exactly k × 4 packed floats.
                unsafe { rows_sse2(a, bias, m, k, &bt[..k * NR], n0, write) };
                n0 += NR;
            }
            scalar_columns(a, bias, m, k, b, n0, n, write);
        });
    }

    #[target_feature(enable = "sse,sse2")]
    unsafe fn rows_sse2<F: FnMut(usize, usize, f32)>(
        a: &[f32],
        bias: &[f32],
        m: usize,
        k: usize,
        bt: &[f32],
        n0: usize,
        write: &mut F,
    ) {
        debug_assert_eq!(bt.len(), k * 4);
        // 4-row blocks, as in `rows_avx2`: independent accumulator registers
        // share each panel load, each lane still the scalar chain.
        const MR: usize = 4;
        let mut i = 0;
        while i + MR <= m {
            let rows: [&[f32]; MR] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
            let mut acc: [__m128; MR] = std::array::from_fn(|r| _mm_set1_ps(bias[i + r]));
            #[allow(clippy::needless_range_loop)] // kk indexes `bt` and all MR rows
            for kk in 0..k {
                let bv = _mm_loadu_ps(bt.as_ptr().add(kk * 4));
                for r in 0..MR {
                    acc[r] = _mm_add_ps(acc[r], _mm_mul_ps(_mm_set1_ps(rows[r][kk]), bv));
                }
            }
            for (r, &reg) in acc.iter().enumerate() {
                let mut lanes = [0.0f32; 4];
                _mm_storeu_ps(lanes.as_mut_ptr(), reg);
                for (j, &v) in lanes.iter().enumerate() {
                    write(i + r, n0 + j, v);
                }
            }
            i += MR;
        }
        while i < m {
            let row = &a[i * k..(i + 1) * k];
            let mut acc: __m128 = _mm_set1_ps(bias[i]);
            for (kk, &av) in row.iter().enumerate() {
                let bv = _mm_loadu_ps(bt.as_ptr().add(kk * 4));
                acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(av), bv));
            }
            let mut lanes = [0.0f32; 4];
            _mm_storeu_ps(lanes.as_mut_ptr(), acc);
            for (j, &v) in lanes.iter().enumerate() {
                write(i, n0 + j, v);
            }
            i += 1;
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn gemm_q_avx2<F: FnMut(usize, usize, i32)>(
        ctx: QFormat,
        a: &[i32],
        bias: &[i32],
        m: usize,
        k: usize,
        b: &[i32],
        n: usize,
        write: &mut F,
    ) {
        // Every format of total width ≤ 16 stores its raw words within
        // `i16`, where `madd_epi16` folds two reduction steps per
        // instruction — twice the lanes of the widened `mul_epi32` kernel.
        if ctx.total_bits() <= 16 {
            gemm_q16_avx2(ctx, a, bias, m, k, b, n, write);
            return;
        }
        const NR: usize = 8;
        PANEL_Q.with(|panel| {
            let mut bt = panel.borrow_mut();
            if bt.len() < k * NR {
                bt.resize(k * NR, 0);
            }
            let mut n0 = 0;
            while n0 + NR <= n {
                pack_columns(&mut bt[..k * NR], b, n0, k, NR);
                // SAFETY: the dispatcher verified AVX2; the panel slice
                // holds exactly k × 8 packed words.
                unsafe { rows_q_avx2(ctx, a, bias, m, k, &bt[..k * NR], n0, write) };
                n0 += NR;
            }
            // Tail columns: k-vectorized dots — a different summation order,
            // but wrapping integer addition is associative, so still exact.
            for ni in n0..n {
                let brow = &b[ni * k..(ni + 1) * k];
                for mi in 0..m {
                    let arow = &a[mi * k..(mi + 1) * k];
                    // SAFETY: the dispatcher verified AVX2.
                    let dot = unsafe { dot_words_avx2(arow, brow) };
                    let acc = <i32 as Element>::acc_init(bias[mi], ctx).wrapping_add(dot);
                    write(mi, ni, <i32 as Element>::finish(acc, ctx));
                }
            }
        });
    }

    /// Eight-column lane-per-column kernel for raw Q-format words: each
    /// `i64` lane accumulates `acc_init(bias) + Σ_k a·b` in ascending `k`
    /// order — the scalar tile's chain verbatim (`mul_epi32` sign-extends
    /// the low 32 bits of each lane, so every product is the exact widened
    /// `i64`).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn rows_q_avx2<F: FnMut(usize, usize, i32)>(
        ctx: QFormat,
        a: &[i32],
        bias: &[i32],
        m: usize,
        k: usize,
        bt: &[i32],
        n0: usize,
        write: &mut F,
    ) {
        debug_assert_eq!(bt.len(), k * 8);
        for i in 0..m {
            let row = &a[i * k..(i + 1) * k];
            let init = <i32 as Element>::acc_init(bias[i], ctx);
            let mut lo = _mm256_set1_epi64x(init);
            let mut hi = _mm256_set1_epi64x(init);
            for (kk, &av) in row.iter().enumerate() {
                let va = _mm256_set1_epi64x(i64::from(av));
                let b_lo = _mm256_cvtepi32_epi64(_mm_loadu_si128(
                    bt.as_ptr().add(kk * 8).cast::<__m128i>(),
                ));
                let b_hi = _mm256_cvtepi32_epi64(_mm_loadu_si128(
                    bt.as_ptr().add(kk * 8 + 4).cast::<__m128i>(),
                ));
                lo = _mm256_add_epi64(lo, _mm256_mul_epi32(va, b_lo));
                hi = _mm256_add_epi64(hi, _mm256_mul_epi32(va, b_hi));
            }
            let mut lanes = [0i64; 8];
            _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), lo);
            _mm256_storeu_si256(lanes.as_mut_ptr().add(4).cast::<__m256i>(), hi);
            let mut words = [0i32; 8];
            // SAFETY: still inside the AVX2 target-feature context.
            requantize_q_avx2(ctx, &lanes, &mut words);
            for (j, &word) in words.iter().enumerate() {
                write(i, n0 + j, word);
            }
        }
    }

    /// [`gemm_q_avx2`]'s narrow-format path: 16 columns per panel, raw
    /// words narrowed to `i16` and reduced with `madd_epi16` pairs exactly
    /// like the byte kernel. Blocks or rows that cannot be folded exactly —
    /// a fault-widened word outside `i16`, or the one `madd` pair pattern
    /// whose sum escapes `i32` — fall back to the widened per-column dots,
    /// so the kernel stays bit-identical to the scalar chain for *every*
    /// input, including corrupted ones.
    #[allow(clippy::too_many_arguments)]
    fn gemm_q16_avx2<F: FnMut(usize, usize, i32)>(
        ctx: QFormat,
        a: &[i32],
        bias: &[i32],
        m: usize,
        k: usize,
        b: &[i32],
        n: usize,
        write: &mut F,
    ) {
        const NR: usize = 16;
        let kpairs = k.div_ceil(2);
        let blocks = n / NR;
        if blocks > 0 {
            PANEL_Q16.with(|panel| {
                ROWS_Q16.with(|rows| {
                    let mut bt = panel.borrow_mut();
                    if bt.len() < kpairs * 2 * NR {
                        bt.resize(kpairs * 2 * NR, 0);
                    }
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
                    for block in 0..blocks {
                        let n0 = block * NR;
                        // SAFETY: [`gemm_q_avx2`] dispatched here only after
                        // verifying AVX2.
                        if unsafe { pack_q_pairs(&mut bt[..kpairs * 2 * NR], b, n0, k) } {
                            // SAFETY: the dispatcher verified AVX2; the panel
                            // slice holds exactly kpairs × 32 packed pair
                            // lanes.
                            unsafe {
                                rows_q16_avx2(
                                    ctx,
                                    a,
                                    bias,
                                    m,
                                    k,
                                    &bt[..kpairs * 2 * NR],
                                    &apairs[..m * kpairs],
                                    &chunks[..m],
                                    b,
                                    n0,
                                    write,
                                );
                            }
                        } else {
                            // A weight word escaped `i16` (fault injection
                            // widens words arbitrarily): serve the block via
                            // exact dots.
                            q_dot_columns_avx2(ctx, a, bias, m, k, b, n0, n0 + NR, write);
                        }
                    }
                });
            });
        }
        q_dot_columns_avx2(ctx, a, bias, m, k, b, blocks * NR, n, write);
    }

    /// Widened per-column dot products for columns `n0..n1` — the exact
    /// tail/fallback of the Q kernels (wrapping integer addition is
    /// associative, so any summation order matches the scalar chain).
    #[allow(clippy::too_many_arguments)]
    fn q_dot_columns_avx2<F: FnMut(usize, usize, i32)>(
        ctx: QFormat,
        a: &[i32],
        bias: &[i32],
        m: usize,
        k: usize,
        b: &[i32],
        n0: usize,
        n1: usize,
        write: &mut F,
    ) {
        for ni in n0..n1 {
            let brow = &b[ni * k..(ni + 1) * k];
            for mi in 0..m {
                let arow = &a[mi * k..(mi + 1) * k];
                // SAFETY: the dispatcher verified AVX2.
                let dot = unsafe { dot_words_avx2(arow, brow) };
                let acc = <i32 as Element>::acc_init(bias[mi], ctx).wrapping_add(dot);
                write(mi, ni, <i32 as Element>::finish(acc, ctx));
            }
        }
    }

    /// Packs 16 columns of the raw-word panel for [`rows_q16_avx2`] in the
    /// [`pack_byte_pairs`] pair layout, narrowing each word to `i16`.
    /// Returns `false` when any word falls outside `i16` — possible only
    /// through the fault-injection surface, since every format this path
    /// serves stores within `i16` — in which case the caller must not use
    /// the panel.
    #[target_feature(enable = "avx2")]
    unsafe fn pack_q_pairs(bt: &mut [i16], b: &[i32], n0: usize, k: usize) -> bool {
        let kpairs = k.div_ceil(2);
        debug_assert_eq!(bt.len(), kpairs * 32);
        // The 16 columns are contiguous in `b`; checking the whole slab in
        // one pure reduction pass keeps the check vectorizable, and the
        // transpose below can then narrow with the saturating pack — no
        // word is outside `i16`, so the saturation point is unreachable and
        // the pack is a plain truncation.
        let slab = &b[n0 * k..(n0 + 16) * k];
        if !slab.iter().fold(true, |fit, &w| fit & fits_i16(w)) {
            return false;
        }
        // Eight-wide tiles: for each half (8 columns) and each run of 8 `k`
        // steps, narrow each column's 8 words to its 4 broadcast pairs
        // (`packs_epi32` + dword gather), then transpose the 8 × 4 pair
        // matrix with `unpack` steps so each of the 4 pair rows stores its
        // 8 columns contiguously in the panel's `p * 32 + half * 16` slot.
        let ktiles = k / 8;
        let gather = _mm256_setr_epi32(0, 1, 4, 5, 0, 0, 0, 0);
        for h in 0..2 {
            for t in 0..ktiles {
                let k0 = t * 8;
                let mut c = [_mm_setzero_si128(); 8];
                for (jj, slot) in c.iter_mut().enumerate() {
                    let v = _mm256_loadu_si256(
                        b.as_ptr().add((n0 + h * 8 + jj) * k + k0).cast::<__m256i>(),
                    );
                    let narrowed = _mm256_packs_epi32(v, v);
                    *slot = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(narrowed, gather));
                }
                let t0 = _mm_unpacklo_epi32(c[0], c[1]);
                let t1 = _mm_unpackhi_epi32(c[0], c[1]);
                let t2 = _mm_unpacklo_epi32(c[2], c[3]);
                let t3 = _mm_unpackhi_epi32(c[2], c[3]);
                let t4 = _mm_unpacklo_epi32(c[4], c[5]);
                let t5 = _mm_unpackhi_epi32(c[4], c[5]);
                let t6 = _mm_unpacklo_epi32(c[6], c[7]);
                let t7 = _mm_unpackhi_epi32(c[6], c[7]);
                let rows = [
                    (_mm_unpacklo_epi64(t0, t2), _mm_unpacklo_epi64(t4, t6)),
                    (_mm_unpackhi_epi64(t0, t2), _mm_unpackhi_epi64(t4, t6)),
                    (_mm_unpacklo_epi64(t1, t3), _mm_unpacklo_epi64(t5, t7)),
                    (_mm_unpackhi_epi64(t1, t3), _mm_unpackhi_epi64(t5, t7)),
                ];
                for (pp, (cols03, cols47)) in rows.iter().enumerate() {
                    let dst = bt.as_mut_ptr().add((k0 / 2 + pp) * 32 + h * 16);
                    _mm_storeu_si128(dst.cast::<__m128i>(), *cols03);
                    _mm_storeu_si128(dst.add(8).cast::<__m128i>(), *cols47);
                }
            }
        }
        // Scalar remainder for the trailing `k % 8` steps (including the
        // odd-`k` zero partner).
        for j in 0..16 {
            let col = &b[(n0 + j) * k..(n0 + j + 1) * k];
            let base = (j / 8) * 16 + (j % 8) * 2;
            for p in ktiles * 4..kpairs {
                bt[p * 32 + base] = col[2 * p] as i16;
                bt[p * 32 + base + 1] = if 2 * p + 1 < k { col[2 * p + 1] as i16 } else { 0 };
            }
        }
        true
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
    /// precondition and take the widened per-column dots instead.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn rows_q16_avx2<F: FnMut(usize, usize, i32)>(
        ctx: QFormat,
        a: &[i32],
        bias: &[i32],
        m: usize,
        k: usize,
        bt: &[i16],
        apairs: &[i32],
        chunks: &[u32],
        b: &[i32],
        n0: usize,
        write: &mut F,
    ) {
        let kpairs = k.div_ceil(2);
        debug_assert_eq!(bt.len(), kpairs * 32);
        debug_assert_eq!(apairs.len(), m * kpairs);
        debug_assert_eq!(chunks.len(), m);
        for i in 0..m {
            let chunk = chunks[i] as usize;
            if chunk == 0 {
                let row = &a[i * k..(i + 1) * k];
                q_dot_columns_avx2(
                    ctx,
                    row,
                    &bias[i..i + 1],
                    1,
                    k,
                    b,
                    n0,
                    n0 + 16,
                    &mut |_, ni, word| {
                        write(i, ni, word);
                    },
                );
                continue;
            }
            let row_pairs = &apairs[i * kpairs..(i + 1) * kpairs];
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
                    let b23 = _mm256_loadu_si256(bt.as_ptr().add(q * 32 + 16).cast::<__m256i>());
                    s01 = _mm256_add_epi32(s01, _mm256_madd_epi16(pair, b01));
                    s23 = _mm256_add_epi32(s23, _mm256_madd_epi16(pair, b23));
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
            for (j, &word) in words.iter().enumerate() {
                write(i, n0 + j, word);
            }
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
    pub(super) fn gemm_i8_avx2<F: FnMut(usize, usize, i8)>(
        ctx: I8Affine,
        a: &[i8],
        bias: &[i8],
        m: usize,
        k: usize,
        b: &[i8],
        n: usize,
        write: &mut F,
    ) {
        const NR: usize = 16;
        let kpairs = k.div_ceil(2);
        PANEL_I8.with(|panel| {
            let mut bt = panel.borrow_mut();
            if bt.len() < kpairs * 2 * NR {
                bt.resize(kpairs * 2 * NR, 0);
            }
            let mut n0 = 0;
            while n0 + NR <= n {
                pack_byte_pairs(&mut bt[..kpairs * 2 * NR], b, n0, k);
                // SAFETY: the dispatcher verified AVX2; the panel slice
                // holds exactly kpairs × 32 packed pair lanes.
                unsafe { rows_i8_avx2(ctx, a, bias, m, k, &bt[..kpairs * 2 * NR], n0, write) };
                n0 += NR;
            }
            // Tail columns: k-vectorized dots — a different summation order,
            // but wrapping integer addition is associative, so still exact.
            for ni in n0..n {
                let brow = &b[ni * k..(ni + 1) * k];
                for mi in 0..m {
                    let arow = &a[mi * k..(mi + 1) * k];
                    // SAFETY: the dispatcher verified AVX2.
                    let dot = unsafe { dot_bytes_avx2(arow, brow) };
                    let acc = <i8 as Element>::acc_init(bias[mi], ctx).wrapping_add(dot);
                    write(mi, ni, <i8 as Element>::finish(acc, ctx));
                }
            }
        });
    }

    /// Packs 16 columns of the byte panel for [`rows_i8_avx2`], widened to
    /// `i16` and interleaved in `(2p, 2p + 1)` reduction pairs: pair block
    /// `p` holds `[b(2p, j), b(2p+1, j)]` for columns `j = 0..8` in its
    /// first 16 lanes and columns `8..16` in its next 16, so one 256-bit
    /// load feeds `madd_epi16` for eight columns. An odd trailing `k` step
    /// is padded with a zero partner (`a · 0` contributes nothing).
    fn pack_byte_pairs(bt: &mut [i16], b: &[i8], n0: usize, k: usize) {
        let kpairs = k.div_ceil(2);
        debug_assert_eq!(bt.len(), kpairs * 32);
        for j in 0..16 {
            let col = &b[(n0 + j) * k..(n0 + j + 1) * k];
            let base = (j / 8) * 16 + (j % 8) * 2;
            for p in 0..kpairs {
                bt[p * 32 + base] = i16::from(col[2 * p]);
                bt[p * 32 + base + 1] = if 2 * p + 1 < k { i16::from(col[2 * p + 1]) } else { 0 };
            }
        }
    }

    /// Sixteen-column lane-per-column kernel for affine bytes: each `i32`
    /// lane accumulates `acc_init(bias) + Σ_k a·b` with `madd_epi16`
    /// folding each ascending `(k, k+1)` product pair before the lane add —
    /// wrapping `i32` addition is associative, so the result equals the
    /// scalar tile's one-at-a-time chain exactly. Every product is exact in
    /// 16-bit-input arithmetic (`|a·b| ≤ 127²`, pair sums ≤ 2·127² — far
    /// from `madd`'s only saturation point) and `add_epi32` wraps like the
    /// scalar accumulator.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn rows_i8_avx2<F: FnMut(usize, usize, i8)>(
        ctx: I8Affine,
        a: &[i8],
        bias: &[i8],
        m: usize,
        k: usize,
        bt: &[i16],
        n0: usize,
        write: &mut F,
    ) {
        let kpairs = k.div_ceil(2);
        debug_assert_eq!(bt.len(), kpairs * 32);
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
                let b_hi = _mm256_loadu_si256(bt.as_ptr().add(p * 32 + 16).cast::<__m256i>());
                lo = _mm256_add_epi32(lo, _mm256_madd_epi16(va, b_lo));
                hi = _mm256_add_epi32(hi, _mm256_madd_epi16(va, b_hi));
            }
            let mut lanes = [0i32; 16];
            _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), lo);
            _mm256_storeu_si256(lanes.as_mut_ptr().add(8).cast::<__m256i>(), hi);
            let mut bytes = [0i8; 16];
            // SAFETY: still inside the AVX2 target-feature context.
            requantize_i8_avx2(ctx, &lanes, &mut bytes);
            for (j, &byte) in bytes.iter().enumerate() {
                write(i, n0 + j, byte);
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
            let mut lanes = [0i64; 4];
            _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), clamped);
            for (value, &lane) in out[i..i + 4].iter_mut().zip(lanes.iter()) {
                *value = lane as i32;
            }
            i += 4;
        }
        for t in i..accs.len() {
            out[t] = ctx.requantize_product_sum(accs[t]);
        }
    }

    /// Two-lane SSE2 Q requantize. SSE2 has no 64-bit compare, so per-lane
    /// sign masks come from broadcasting each lane's high-word sign
    /// (`srai` + `shuffle`), selects are `and`/`andnot`/`or`, and the final
    /// raw-range clamp (a 64-bit ordered compare) stays scalar per lane.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn requantize_q_sse2(ctx: QFormat, accs: &[i64], out: &mut [i32]) {
        debug_assert_eq!(accs.len(), out.len());
        let frac = i32::from(ctx.frac_bits());
        let half = (1i64 << frac) >> 1;
        let half_v = _mm_set1_epi64x(half);
        let neg_bias_v = _mm_set1_epi64x(-i64::from(half != 0));
        let i64_max_v = _mm_set1_epi64x(i64::MAX);
        let srl_count = _mm_cvtsi32_si128(frac);
        let sll_count = _mm_cvtsi32_si128(64 - frac);
        // `0xF5` copies each lane's high 32-bit word (1 and 3) over both its
        // words, turning `srai(x, 31)` into a full 64-bit sign mask.
        const SIGN_SPREAD: i32 = 0xF5;
        let mut i = 0;
        while i + 2 <= accs.len() {
            let x = _mm_loadu_si128(accs.as_ptr().add(i).cast::<__m128i>());
            let sign_x = _mm_shuffle_epi32::<SIGN_SPREAD>(_mm_srai_epi32::<31>(x));
            let adjust = _mm_add_epi64(half_v, _mm_and_si128(sign_x, neg_bias_v));
            let sum = _mm_add_epi64(x, adjust);
            let sign_sum = _mm_shuffle_epi32::<SIGN_SPREAD>(_mm_srai_epi32::<31>(sum));
            let wrapped = _mm_andnot_si128(sign_x, sign_sum);
            let sat =
                _mm_or_si128(_mm_and_si128(wrapped, i64_max_v), _mm_andnot_si128(wrapped, sum));
            let sign_sat = _mm_shuffle_epi32::<SIGN_SPREAD>(_mm_srai_epi32::<31>(sat));
            let shifted =
                _mm_or_si128(_mm_srl_epi64(sat, srl_count), _mm_sll_epi64(sign_sat, sll_count));
            let mut lanes = [0i64; 2];
            _mm_storeu_si128(lanes.as_mut_ptr().cast::<__m128i>(), shifted);
            out[i] = ctx.saturate_raw(lanes[0]);
            out[i + 1] = ctx.saturate_raw(lanes[1]);
            i += 2;
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

    /// Four-lane SSE2 affine requantize — [`requantize_i8_avx2`] on the
    /// baseline ISA, with truncation via the `cvttps`/`cvtepi32` round trip
    /// (exact: the pre-clamp bounds every value well inside `i32`).
    #[target_feature(enable = "sse,sse2")]
    pub(super) unsafe fn requantize_i8_sse2(ctx: I8Affine, accs: &[i32], out: &mut [i8]) {
        debug_assert_eq!(accs.len(), out.len());
        let scale = _mm_set1_ps(ctx.scale);
        let limit = _mm_set1_ps(1000.0);
        let neg_limit = _mm_set1_ps(-1000.0);
        let sign_bit = _mm_set1_ps(-0.0);
        let one = _mm_set1_ps(1.0);
        let half = _mm_set1_ps(0.5);
        let byte_max = _mm_set1_ps(127.0);
        let byte_min = _mm_set1_ps(-128.0);
        let mut i = 0;
        while i + 4 <= accs.len() {
            let v = _mm_cvtepi32_ps(_mm_loadu_si128(accs.as_ptr().add(i).cast::<__m128i>()));
            let x = _mm_min_ps(_mm_max_ps(_mm_mul_ps(v, scale), neg_limit), limit);
            let t = _mm_cvtepi32_ps(_mm_cvttps_epi32(x));
            let frac = _mm_sub_ps(x, t);
            let away = _mm_cmpge_ps(_mm_andnot_ps(sign_bit, frac), half);
            let step = _mm_or_ps(_mm_and_ps(x, sign_bit), one);
            let rounded = _mm_add_ps(t, _mm_and_ps(away, step));
            let clamped = _mm_min_ps(_mm_max_ps(rounded, byte_min), byte_max);
            let q = _mm_cvttps_epi32(clamped);
            let mut lanes = [0i32; 4];
            _mm_storeu_si128(lanes.as_mut_ptr().cast::<__m128i>(), q);
            for (value, &lane) in out[i..i + 4].iter_mut().zip(lanes.iter()) {
                *value = lane as i8;
            }
            i += 4;
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
                let mut out = vec![0i32; accs.len()];
                // SAFETY: SSE2 is part of the x86-64 baseline.
                unsafe { x86::requantize_q_sse2(fmt, &accs, &mut out) };
                assert_eq!(out, expected, "{fmt} sse2 tier");
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
                let mut out = vec![0i8; accs.len()];
                // SAFETY: SSE/SSE2 are part of the x86-64 baseline.
                unsafe { x86::requantize_i8_sse2(ctx, &accs, &mut out) };
                assert_eq!(out, expected, "scale {scale} sse2 tier");
            }
        }
    }

    #[test]
    fn kernel_name_reports_a_known_tier() {
        let name = simd_kernel_name();
        assert!(["avx2", "sse2", "scalar"].contains(&name), "unknown tier {name}");
    }
}
