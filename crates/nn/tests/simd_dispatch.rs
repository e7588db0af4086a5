//! Integration tests for the runtime kernel dispatch: the dispatched
//! (best-available SIMD) kernels are **bit-identical** to the portable
//! scalar tiles ([`Kernels::Scalar`]) on all three backends, at batch sizes
//! covering the panel remainder paths, under fault-widened words, and in the
//! vectorized requantize epilogues.
//!
//! The kernel choice is carried by an explicit per-call [`EngineConfig`], so
//! the tests need no process-global serialization.

use navft_nn::{
    c3f2_scaled, mlp, simd_kernel_name, Element, EngineConfig, I8Affine, I8Network, I8Scratch,
    I8Tensor, Kernels, NoHooks, QNetwork, QScratch, QTensor, Scratch, Tensor,
};
use navft_qformat::QFormat;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const BATCHES: [usize; 3] = [1, 7, 64];

fn models(seed: u64) -> Vec<(&'static str, navft_nn::Network, Vec<usize>)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    vec![
        ("grid-mlp", mlp(&[100, 32, 4], &mut rng), vec![100]),
        ("c3f2-scaled", c3f2_scaled(&mut rng), vec![1, 31, 31]),
    ]
}

fn inputs(shape: &[usize], batch: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..batch).map(|_| Tensor::uniform(shape, 1.0, &mut rng)).collect()
}

#[test]
fn dispatched_kernels_match_forced_scalar_bit_for_bit_on_all_backends() {
    let scalar_cfg = EngineConfig { kernels: Kernels::Scalar };
    let simd_cfg = EngineConfig::default();
    for (name, net, shape) in models(0x51D) {
        let qnet = QNetwork::quantize(&net, QFormat::Q4_11);
        let inet = I8Network::quantize(&net);
        for &batch in &BATCHES {
            let batch_f32 = inputs(&shape, batch, 0xBA5E ^ batch as u64);
            let batch_q: Vec<QTensor> =
                batch_f32.iter().map(|t| QTensor::quantize(t, QFormat::Q4_11)).collect();
            let batch_i8: Vec<I8Tensor> =
                batch_f32.iter().map(|t| I8Tensor::quantize(t, inet.affine())).collect();

            let mut scalar_f32 = Scratch::new();
            net.forward_batch_into_cfg(&batch_f32, &mut scalar_f32, &mut NoHooks, scalar_cfg);
            let mut scalar_q = QScratch::new();
            qnet.forward_batch_into_cfg(&batch_q, &mut scalar_q, &mut NoHooks, scalar_cfg);
            let mut scalar_i8 = I8Scratch::new();
            inet.forward_batch_into_cfg(&batch_i8, &mut scalar_i8, &mut NoHooks, scalar_cfg);

            let mut simd_f32 = Scratch::new();
            net.forward_batch_into_cfg(&batch_f32, &mut simd_f32, &mut NoHooks, simd_cfg);
            let mut simd_q = QScratch::new();
            qnet.forward_batch_into_cfg(&batch_q, &mut simd_q, &mut NoHooks, simd_cfg);
            let mut simd_i8 = I8Scratch::new();
            inet.forward_batch_into_cfg(&batch_i8, &mut simd_i8, &mut NoHooks, simd_cfg);

            for b in 0..batch {
                assert_eq!(
                    scalar_f32.row(b),
                    simd_f32.row(b),
                    "{name} f32 batch {batch} row {b} ({})",
                    simd_kernel_name()
                );
                assert_eq!(
                    scalar_q.row(b),
                    simd_q.row(b),
                    "{name} q4.11 batch {batch} row {b} ({})",
                    simd_kernel_name()
                );
                assert_eq!(
                    scalar_i8.row(b),
                    simd_i8.row(b),
                    "{name} i8 batch {batch} row {b} ({})",
                    simd_kernel_name()
                );
            }
        }
    }
}

/// The batched [`Element::finish_tile`] epilogue must be bit-identical to a
/// scalar [`Element::finish`] loop for *arbitrary* accumulator tiles on
/// every backend — the contract the engine's SIMD path relies on when it
/// hands whole register tiles to the epilogue. On an AVX2 host (and in the
/// CI `+avx2` codegen-equivalence leg) this pins the vectorized AVX2 tiers;
/// without AVX2 the epilogues run the scalar loop. Tile lengths
/// deliberately straddle the lane counts so the vector body and the scalar
/// remainder both run.
mod finish_tile_epilogue {
    use super::*;
    use rand::RngCore;

    fn q_format(index: usize) -> QFormat {
        [
            QFormat::Q4_11,
            QFormat::Q7_8,
            QFormat::Q10_5,
            QFormat::Q3_4,
            QFormat::Q2_5,
            QFormat::Q2_13,
            QFormat::new(6, 0).unwrap(),
            QFormat::new(31, 0).unwrap(),
            QFormat::new(0, 31).unwrap(),
        ][index]
    }

    proptest::proptest! {
        #[test]
        fn q_finish_tile_matches_scalar_finish(
            seed in 0u64..u64::MAX,
            len in 1usize..97,
            format_index in 0usize..9,
        ) {
            let fmt = q_format(format_index);
            let mut rng = SmallRng::seed_from_u64(seed);
            // Right-shifting a full-width draw by a random amount spreads
            // probes across every accumulator magnitude, extremes included.
            let accs: Vec<i64> = (0..len)
                .map(|_| (rng.next_u64() as i64) >> (rng.next_u64() % 64))
                .collect();
            let expected: Vec<i32> =
                accs.iter().map(|&acc| <i32 as Element>::finish(acc, fmt)).collect();
            let mut tiled = vec![0i32; len];
            <i32 as Element>::finish_tile(fmt, &accs, &mut tiled);
            proptest::prop_assert_eq!(tiled, expected);
        }

        #[test]
        fn i8_finish_tile_matches_scalar_finish(
            seed in 0u64..u64::MAX,
            len in 1usize..97,
            scale_ten_thousandths in 1u32..40_000,
        ) {
            let ctx = I8Affine { scale: scale_ten_thousandths as f32 / 10_000.0 };
            let mut rng = SmallRng::seed_from_u64(seed);
            let accs: Vec<i32> = (0..len).map(|_| rng.next_u64() as i32).collect();
            let expected: Vec<i8> =
                accs.iter().map(|&acc| <i8 as Element>::finish(acc, ctx)).collect();
            let mut tiled = vec![0i8; len];
            <i8 as Element>::finish_tile(ctx, &accs, &mut tiled);
            proptest::prop_assert_eq!(tiled, expected);
        }

        #[test]
        fn f32_default_finish_tile_is_the_identity_bitwise(
            seed in 0u64..u64::MAX,
            len in 1usize..97,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            // Raw bit patterns, so NaNs and infinities ride along; compare
            // bits because NaN != NaN under float equality.
            let accs: Vec<f32> = (0..len).map(|_| f32::from_bits(rng.next_u32())).collect();
            let expected: Vec<u32> =
                accs.iter().map(|&acc| <f32 as Element>::finish(acc, ()).to_bits()).collect();
            let mut tiled = vec![0.0f32; len];
            <f32 as Element>::finish_tile((), &accs, &mut tiled);
            let tiled_bits: Vec<u32> = tiled.iter().map(|v| v.to_bits()).collect();
            proptest::prop_assert_eq!(tiled_bits, expected);
        }
    }
}

/// The narrow-format Q kernel (total width ≤ 16) folds raw words to `i16`
/// `madd_epi16` pairs, which is only exact while every word fits `i16` and
/// no aligned activation pair is `(-32768, -32768)` — the one pair whose
/// `madd` sum escapes `i32`. Fault injection can violate both through the
/// raw-word surface, so this pins the fallback seams bit-for-bit against
/// forced scalar: a weight word widened beyond `i16` (per-row exact-dot
/// fallback), an aligned minimum pair (same fallback via the profile scan),
/// a corrupted *input* word (whole-panel fallback), and a wide format whose
/// total width exceeds 16 (declined by the kernel, so the scalar tiles run).
#[test]
fn q_madd_kernel_fallbacks_stay_bit_identical_under_fault_widened_words() {
    let scalar_cfg = EngineConfig { kernels: Kernels::Scalar };
    let simd_cfg = EngineConfig::default();
    let mut rng = SmallRng::seed_from_u64(0xFA17);
    let net = mlp(&[100, 32, 4], &mut rng);
    let wide = QFormat::new(18, 13).unwrap();
    for fmt in [QFormat::Q4_11, wide] {
        let mut qnet = QNetwork::quantize(&net, fmt);
        {
            let weights = qnet.layer_weights_mut(0).unwrap();
            // One weight row with a word far outside `i16`, another with an
            // aligned `(-32768, -32768)` pair (a legal Q4.11 raw minimum).
            weights[7] = 1 << 20;
            weights[100 + 2] = -32768;
            weights[100 + 3] = -32768;
        }
        // Batch 17 = one full 16-column panel plus a remainder column.
        let batch_f32 = inputs(&[100], 17, 0xB17F);
        let mut batch_q: Vec<QTensor> =
            batch_f32.iter().map(|t| QTensor::quantize(t, fmt)).collect();
        // A fault-widened observation word forces the panel fallback for
        // the block holding that column.
        batch_q[3].words_mut()[11] = -(1 << 18);

        let mut scalar = QScratch::new();
        qnet.forward_batch_into_cfg(&batch_q, &mut scalar, &mut NoHooks, scalar_cfg);
        let mut simd = QScratch::new();
        qnet.forward_batch_into_cfg(&batch_q, &mut simd, &mut NoHooks, simd_cfg);
        for b in 0..batch_q.len() {
            assert_eq!(scalar.row(b), simd.row(b), "fmt {fmt:?} row {b} ({})", simd_kernel_name());
        }
    }
}

/// The plain single-sample entry point — the serial oracle on the naive
/// kernels — agrees bit for bit with every row of a default-config batched
/// pass.
#[test]
fn plain_entry_points_match_default_config() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE);
    let net = mlp(&[48, 32, 4], &mut rng);
    let batch = inputs(&[48], 16, 0xFACE);

    let mut batched = Scratch::new();
    net.forward_batch_into_cfg(&batch, &mut batched, &mut NoHooks, EngineConfig::default());

    for (b, input) in batch.iter().enumerate() {
        assert_eq!(batched.row(b), net.forward(input).data(), "row {b}");
    }
}
