//! The element trait behind the crate's single generic inference core.
//!
//! All numeric backends — `f32` values, raw two's-complement Q-format words
//! and `i8` affine bytes — run the *same* network, layer and kernel code;
//! everything that actually differs between them is collected in
//! [`Element`]: the widened accumulator a MAC sweep uses, how a bias enters
//! it, how an accumulator is folded back into a storable element, what ReLU
//! means, and what metadata a network and a tensor carry (nothing for
//! `f32`, the storage format for raw words, the affine scale for `i8`).
//!
//! Adding a further backend (say, a `bf16` software model) is one
//! `impl Element for NewType` — the generic [`Network`](crate::Network)
//! stack, the batched engine, the blocked GEMM path, fault injection and the
//! evaluators in `navft-rl` all follow from it, exactly as the `i8` backend
//! here demonstrates.

use std::fmt;

use navft_qformat::{round_half_away, QFormat, QValue};

/// Per-element arithmetic and metadata of one numeric backend.
///
/// The three shipped implementations:
///
/// * **`f32`** — plain float arithmetic (`Acc = f32`), no kernel context and
///   no network metadata.
/// * **`i32`** — raw Q-format words. Kernels accumulate word products in a
///   widened `i64` (products carry `2 × frac_bits` fractional bits) and
///   perform one saturating round-to-nearest requantize per output element;
///   networks and tensors carry their storage [`QFormat`].
/// * **`i8`** — per-network symmetric affine bytes (`value = word · scale`,
///   [`I8Affine`]). Kernels accumulate exact byte products in a widened
///   `i32` and perform one rounding, saturating requantize per output
///   element — the serving-style Int8 scheme of inference runtimes.
pub trait Element:
    Copy + Default + PartialEq + PartialOrd + fmt::Debug + Send + Sync + 'static
{
    /// The widened accumulator of MAC kernels (`f32` for floats, `i64` for
    /// raw words).
    type Acc: Copy;

    /// Register-tile shape `(MR, NR)` of the blocked GEMM path: how many
    /// output rows × panel columns accumulate concurrently. Backends tune it
    /// to their accumulator — `f32` tiles read `NR` contiguous panel
    /// elements per `k` step, which the compiler turns into one vector load
    /// feeding vector multiplies (a 4×4 tile), while the integer backends'
    /// widening multiplies have no baseline x86-64 vector form, so they take
    /// one panel column against eight weight rows (an 8×1 tile of scalar
    /// multiplies) instead. The GEMM monomorphizes one kernel per supported
    /// shape — currently `(4, 4)` and `(8, 1)`; any other value falls back
    /// to the `(4, 4)` kernel. Tiling never changes results: each output's
    /// accumulation order is fixed regardless of the tile shape.
    const GEMM_TILE: (usize, usize) = (4, 4);

    /// Context the MAC kernels need: nothing for `f32`, the [`QFormat`] for
    /// raw words.
    type Ctx: Copy + fmt::Debug + Send + Sync;

    /// Metadata a network of this element type carries: nothing for `f32`,
    /// the storage format for raw words, the affine scale for `i8`.
    type NetMeta: Copy + fmt::Debug + PartialEq + Send + Sync;

    /// Metadata a tensor of this element type carries: nothing for `f32`,
    /// the storage format for raw words.
    type Meta: Copy + fmt::Debug + PartialEq + Send + Sync;

    /// Derives the kernel context from a network's metadata.
    fn kernel_ctx(net: &Self::NetMeta) -> Self::Ctx;

    /// Derives the metadata of tensors a network of this backend produces.
    fn tensor_meta(net: &Self::NetMeta) -> Self::Meta;

    /// Validates an input tensor's metadata against a network's.
    ///
    /// # Panics
    ///
    /// Panics if the input cannot feed the network (a raw-word tensor in a
    /// different format).
    fn check_input(input: &Self::Meta, net: &Self::NetMeta);

    /// Seeds an accumulator with a bias element.
    fn acc_init(bias: Self, ctx: Self::Ctx) -> Self::Acc;

    /// One multiply-accumulate step.
    fn mac(acc: Self::Acc, a: Self, b: Self) -> Self::Acc;

    /// Folds an accumulator back into a storable element (the saturating
    /// requantize of the fixed-point backend; the identity for `f32`).
    fn finish(acc: Self::Acc, ctx: Self::Ctx) -> Self;

    /// Folds a whole slice of accumulators — the batched **epilogue seam**
    /// of the GEMM path. `out[i]` must equal `Self::finish(accs[i], ctx)`
    /// bit for bit, for *every* accumulator value (including the widened
    /// type's extremes); the default is exactly that scalar loop.
    ///
    /// A backend should override this only when its `finish` is expensive
    /// enough to dominate the MAC sweep and admits a data-parallel
    /// formulation — the integer backends here vectorize their per-output
    /// requantize (round-half-away shift-and-saturate over `i64` lanes for
    /// raw Q-format words, the affine scale-round-clamp over `i32` lanes
    /// for `i8`) because the widened MAC itself is cheap and the epilogue
    /// is the bottleneck. `f32`'s `finish` is the identity, so it keeps the
    /// default. Overrides must still dispatch on runtime CPU detection and
    /// fall back to the scalar loop, because the engine calls this on the
    /// SIMD path only (the force-scalar pin routes through per-element
    /// [`Element::finish`]).
    ///
    /// # Panics
    ///
    /// Implementations may assume `accs.len() == out.len()`; the provided
    /// default panics if the lengths differ.
    fn finish_tile(ctx: Self::Ctx, accs: &[Self::Acc], out: &mut [Self]) {
        assert_eq!(accs.len(), out.len(), "accumulator and output tiles must match");
        for (value, &acc) in out.iter_mut().zip(accs.iter()) {
            *value = Self::finish(acc, ctx);
        }
    }

    /// The rectified linear unit on one element.
    fn relu(self) -> Self;

    /// Clamps an element into its metadata's representable range (raw words
    /// saturate at the format's raw extremes; `f32` is unconstrained).
    fn sanitize(self, meta: &Self::Meta) -> Self;

    /// The element's numeric value as `f32` (dequantization for raw words),
    /// used for range instrumentation.
    fn value_to_f32(self, net: &Self::NetMeta) -> f32;

    /// Offers a whole `M × N` GEMM sweep to an explicit SIMD microkernel:
    /// `c` (`[M, N]` row-major) receives `bias[m] + Σ_k a[m][k] · b[k][n]`
    /// for every output, with `a` the `[M, K]` weights and `b` the K-major
    /// `[K, N]` panel (see [`crate::simd`]).
    ///
    /// Returns `false` when the backend has no kernel for the running CPU;
    /// the caller then falls back to the portable scalar register tiles.
    /// Kernels must honour the crate's bit-exactness contract: every output
    /// accumulates its `K` products in ascending `k` order with exactly the
    /// scalar chain's arithmetic (see [`crate::simd`]), so the naive,
    /// tiled-scalar and SIMD paths agree bit for bit. The default
    /// implementation declines, which keeps third-party backends working
    /// without SIMD support.
    #[allow(clippy::too_many_arguments)]
    fn gemm_simd(
        ctx: Self::Ctx,
        a: &[Self],
        bias: &[Self],
        m: usize,
        k: usize,
        b: &[Self],
        n: usize,
        c: &mut [Self],
    ) -> bool {
        let _ = (ctx, a, bias, m, k, b, n, c);
        false
    }
}

/// Per-network symmetric affine metadata of the `i8` backend: a stored byte
/// `w` represents the value `w · scale`.
///
/// One scale covers every parameter buffer and every activation of a network
/// (`scale = max |value| / 127` at quantization time), so kernels can
/// accumulate raw byte products exactly in a widened `i32` — the accumulator
/// carries `scale²` units — and fold each output back to bytes with a single
/// rounding, saturating requantize.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct I8Affine {
    /// The value of one least-significant step: `value = word · scale`.
    pub scale: f32,
}

impl I8Affine {
    /// The affine whose range `[-128·scale, 127·scale]` covers
    /// `[-max_abs, max_abs]`; a degenerate `max_abs` of zero (or anything
    /// non-positive) falls back to a unit range so the scale stays usable.
    pub fn from_max_abs(max_abs: f32) -> I8Affine {
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 / 127.0 };
        I8Affine { scale }
    }

    /// Quantizes a value to the nearest representable byte (ties away from
    /// zero), saturating at the `i8` extremes: infinities map to the
    /// matching extreme and **NaN maps to `0`** — unlike
    /// [`QValue::quantize`], which sends NaN to the format maximum.
    #[inline]
    pub fn quantize(self, value: f32) -> i8 {
        // Clamp first (`round(clamp(x)) == clamp(round(x))`, the bounds
        // being integral), then round without the libm call. `f32::clamp`
        // keeps NaN, which `round_half_away` maps to 0.
        round_half_away((value / self.scale).clamp(-128.0, 127.0)) as i8
    }

    /// The value a stored byte represents.
    pub fn dequantize(self, word: i8) -> f32 {
        f32::from(word) * self.scale
    }
}

impl Element for f32 {
    type Acc = f32;
    type Ctx = ();
    type NetMeta = ();
    type Meta = ();

    #[inline]
    fn kernel_ctx(_net: &()) {}

    #[inline]
    fn tensor_meta(_net: &()) {}

    #[inline]
    fn check_input(_input: &(), _net: &()) {}

    #[inline]
    fn acc_init(bias: f32, _ctx: ()) -> f32 {
        bias
    }

    #[inline]
    fn mac(acc: f32, a: f32, b: f32) -> f32 {
        acc + a * b
    }

    #[inline]
    fn finish(acc: f32, _ctx: ()) -> f32 {
        acc
    }

    #[inline]
    fn relu(self) -> f32 {
        self.max(0.0)
    }

    #[inline]
    fn sanitize(self, _meta: &()) -> f32 {
        self
    }

    #[inline]
    fn value_to_f32(self, _net: &()) -> f32 {
        self
    }

    fn gemm_simd(
        _ctx: (),
        a: &[f32],
        bias: &[f32],
        m: usize,
        k: usize,
        b: &[f32],
        n: usize,
        c: &mut [f32],
    ) -> bool {
        crate::simd::gemm_f32(a, bias, m, k, b, n, c)
    }
}

impl Element for i32 {
    type Acc = i64;
    type Ctx = QFormat;
    type NetMeta = QFormat;
    type Meta = QFormat;

    const GEMM_TILE: (usize, usize) = (8, 1);

    #[inline]
    fn kernel_ctx(net: &QFormat) -> QFormat {
        *net
    }

    #[inline]
    fn tensor_meta(net: &QFormat) -> QFormat {
        *net
    }

    #[inline]
    fn check_input(input: &QFormat, net: &QFormat) {
        assert_eq!(input, net, "input format does not match network format");
    }

    #[inline]
    fn acc_init(bias: i32, ctx: QFormat) -> i64 {
        i64::from(bias) << u32::from(ctx.frac_bits())
    }

    #[inline]
    fn mac(acc: i64, a: i32, b: i32) -> i64 {
        acc + i64::from(a) * i64::from(b)
    }

    #[inline]
    fn finish(acc: i64, ctx: QFormat) -> i32 {
        ctx.requantize_product_sum(acc)
    }

    #[inline]
    fn finish_tile(ctx: QFormat, accs: &[i64], out: &mut [i32]) {
        crate::simd::requantize_q(ctx, accs, out);
    }

    #[inline]
    fn relu(self) -> i32 {
        self.max(0)
    }

    #[inline]
    fn sanitize(self, meta: &QFormat) -> i32 {
        QValue::from_raw(self, *meta).raw()
    }

    #[inline]
    fn value_to_f32(self, net: &QFormat) -> f32 {
        self as f32 * net.resolution()
    }

    fn gemm_simd(
        ctx: QFormat,
        a: &[i32],
        bias: &[i32],
        m: usize,
        k: usize,
        b: &[i32],
        n: usize,
        c: &mut [i32],
    ) -> bool {
        crate::simd::gemm_q(ctx, a, bias, m, k, b, n, c)
    }
}

impl Element for i8 {
    type Acc = i32;

    const GEMM_TILE: (usize, usize) = (8, 1);
    type Ctx = I8Affine;
    type NetMeta = I8Affine;
    type Meta = I8Affine;

    #[inline]
    fn kernel_ctx(net: &I8Affine) -> I8Affine {
        *net
    }

    #[inline]
    fn tensor_meta(net: &I8Affine) -> I8Affine {
        *net
    }

    #[inline]
    fn check_input(input: &I8Affine, net: &I8Affine) {
        assert_eq!(input, net, "input scale does not match network scale");
    }

    #[inline]
    fn acc_init(bias: i8, ctx: I8Affine) -> i32 {
        // The accumulator carries scale² units (products of two stored
        // bytes); the bias byte carries scale¹ units, so it enters divided
        // by the scale, rounded once.
        (f32::from(bias) / ctx.scale).round() as i32
    }

    #[inline]
    fn mac(acc: i32, a: i8, b: i8) -> i32 {
        acc + i32::from(a) * i32::from(b)
    }

    #[inline]
    fn finish(acc: i32, ctx: I8Affine) -> i8 {
        (acc as f32 * ctx.scale).round().clamp(-128.0, 127.0) as i8
    }

    #[inline]
    fn finish_tile(ctx: I8Affine, accs: &[i32], out: &mut [i8]) {
        crate::simd::requantize_i8(ctx, accs, out);
    }

    #[inline]
    fn relu(self) -> i8 {
        self.max(0)
    }

    #[inline]
    fn sanitize(self, _meta: &I8Affine) -> i8 {
        self
    }

    #[inline]
    fn value_to_f32(self, net: &I8Affine) -> f32 {
        f32::from(self) * net.scale
    }

    fn gemm_simd(
        ctx: I8Affine,
        a: &[i8],
        bias: &[i8],
        m: usize,
        k: usize,
        b: &[i8],
        n: usize,
        c: &mut [i8],
    ) -> bool {
        crate::simd::gemm_i8(ctx, a, bias, m, k, b, n, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_mac_chain_matches_plain_arithmetic() {
        let mut acc = f32::acc_init(0.5, ());
        acc = f32::mac(acc, 2.0, 3.0);
        acc = f32::mac(acc, -1.0, 4.0);
        assert_eq!(f32::finish(acc, ()), 0.5 + 6.0 - 4.0);
    }

    #[test]
    fn raw_word_mac_requantizes_like_the_native_kernels() {
        let fmt = QFormat::Q3_4;
        // 1.5 * 2.0 + bias 0.5: raw 24 * raw 32 = 768, bias raw 8 << 4 = 128.
        let mut acc = i32::acc_init(8, fmt);
        acc = i32::mac(acc, 24, 32);
        assert_eq!(i32::finish(acc, fmt), fmt.requantize_product_sum(768 + 128));
    }

    #[test]
    fn relu_matches_each_backend() {
        assert_eq!((-1.5f32).relu(), 0.0);
        assert_eq!(2.5f32.relu(), 2.5);
        assert_eq!((-3i32).relu(), 0);
        assert_eq!(7i32.relu(), 7);
    }

    #[test]
    fn sanitize_clamps_raw_words_only() {
        assert_eq!(1e9f32.sanitize(&()), 1e9);
        assert_eq!(500i32.sanitize(&QFormat::Q3_4), 127);
        assert_eq!((-500i32).sanitize(&QFormat::Q3_4), -128);
    }

    #[test]
    fn value_to_f32_dequantizes_raw_words() {
        assert_eq!(24i32.value_to_f32(&QFormat::Q3_4), 1.5);
        assert_eq!(1.5f32.value_to_f32(&()), 1.5);
    }

    #[test]
    #[should_panic(expected = "format does not match")]
    fn check_input_rejects_mismatched_formats() {
        i32::check_input(&QFormat::Q3_4, &QFormat::Q4_11);
    }

    #[test]
    fn i8_affine_round_trips_grid_values() {
        let affine = I8Affine::from_max_abs(1.27);
        assert!((affine.scale - 0.01).abs() < 1e-7);
        for word in [-128i8, -3, 0, 1, 127] {
            assert_eq!(affine.quantize(affine.dequantize(word)), word);
        }
        assert_eq!(affine.quantize(10.0), 127, "saturates high");
        assert_eq!(affine.quantize(-10.0), -128, "saturates low");
    }

    /// The libm formula [`I8Affine::quantize`] used before its rounding was
    /// made libm-free: the oracle the rewrite is pinned to.
    fn affine_quantize_reference(affine: I8Affine, value: f32) -> i8 {
        (value / affine.scale).round().clamp(-128.0, 127.0) as i8
    }

    /// Calibrated-style scales plus power-of-two ones, which make exact
    /// `.5` quotients reachable.
    const AFFINE_SCALES: [f32; 6] = [1.0 / 127.0, 0.007_812_5, 0.05, 1.0 / 3.0, 0.5, 3.7];

    #[test]
    fn i8_affine_maps_nan_to_zero_and_infinities_to_the_extremes() {
        for scale in AFFINE_SCALES {
            let affine = I8Affine { scale };
            assert_eq!(affine.quantize(f32::NAN), 0, "NaN -> 0 at scale {scale}");
            assert_eq!(affine.quantize(-f32::NAN), 0, "-NaN -> 0 at scale {scale}");
            assert_eq!(affine.quantize(f32::INFINITY), 127);
            assert_eq!(affine.quantize(f32::NEG_INFINITY), -128);
        }
    }

    #[test]
    fn i8_affine_quantize_matches_the_reference_on_ties_and_edges() {
        for scale in AFFINE_SCALES {
            let affine = I8Affine { scale };
            for step in -260i32..=260 {
                for offset in [0.0f32, 0.5, -0.5, 0.499_999_97, -0.499_999_97] {
                    let value = (step as f32 + offset) * scale;
                    for probe in [
                        value,
                        f32::from_bits(value.to_bits().wrapping_add(1)),
                        f32::from_bits(value.to_bits().wrapping_sub(1)),
                    ] {
                        assert_eq!(
                            affine.quantize(probe),
                            affine_quantize_reference(affine, probe),
                            "scale {scale} value {probe:e}"
                        );
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn i8_affine_quantize_matches_the_reference_formula(
            bits in 0u32..=u32::MAX,
            index in 0usize..6,
        ) {
            let affine = I8Affine { scale: AFFINE_SCALES[index] };
            // Any bit pattern, the same pattern squeezed into the subnormal
            // range, and one scaled into the byte range.
            let any = f32::from_bits(bits);
            let subnormal = f32::from_bits(bits & 0x807f_ffff);
            let in_range = f32::from_bits((bits & 0x807f_ffff) | 0x4200_0000) * affine.scale;
            for value in [any, subnormal, in_range] {
                proptest::prop_assert_eq!(
                    affine.quantize(value),
                    affine_quantize_reference(affine, value),
                    "scale {} value {:e}",
                    affine.scale,
                    value
                );
            }
        }
    }

    #[test]
    fn i8_affine_degenerate_max_abs_stays_usable() {
        let affine = I8Affine::from_max_abs(0.0);
        assert!(affine.scale > 0.0);
        assert_eq!(affine.quantize(1.0), 127);
    }

    #[test]
    fn i8_mac_chain_requantizes_once_per_output() {
        let ctx = I8Affine { scale: 0.01 };
        // bias 0.05 (byte 5) enters as 500 scale² steps; 0.5 * 0.5 adds
        // 50 * 50 = 2500; the single requantize maps 3000 * 1e-4 = 0.3 to
        // byte 30.
        let mut acc = i8::acc_init(5, ctx);
        assert_eq!(acc, 500);
        acc = <i8 as Element>::mac(acc, 50, 50);
        assert_eq!(acc, 3000);
        assert_eq!(<i8 as Element>::finish(acc, ctx), 30);
    }

    #[test]
    fn i8_relu_and_sanitize_operate_on_bytes() {
        assert_eq!((-7i8).relu(), 0);
        assert_eq!(7i8.relu(), 7);
        let meta = I8Affine { scale: 0.01 };
        assert_eq!((-128i8).sanitize(&meta), -128);
        assert!((5i8.value_to_f32(&meta) - 0.05).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "scale does not match")]
    fn i8_check_input_rejects_mismatched_scales() {
        i8::check_input(&I8Affine { scale: 0.01 }, &I8Affine { scale: 0.02 });
    }
}
