//! Integration test: fault-injection campaigns over quantized policies, from
//! BER sampling to summary statistics.

use navft_fault::campaign::{run_cells, CellPlan, Summary};
use navft_fault::{FaultKind, FaultMap, FaultSite, FaultTarget, Injector};
use navft_qformat::{bitstats::BitStats, QFormat, QValue};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runs `repetitions` trials of `experiment` seeded from `base_seed` on
/// `threads` workers and returns the per-repetition values in order.
fn campaign(
    repetitions: usize,
    base_seed: u64,
    threads: usize,
    experiment: impl Fn(u64) -> f64 + Sync,
) -> Vec<f64> {
    let mut values = Vec::new();
    run_cells(
        &[CellPlan { repetitions, base_seed }],
        threads,
        (),
        |_, seed, _, ()| vec![experiment(seed)],
        |_, per_rep| values = per_rep.into_iter().map(|metrics| metrics[0]).collect(),
    );
    values
}

#[test]
fn campaign_over_fault_maps_reports_tight_statistics_for_fixed_ber() {
    let summary = Summary::from_samples(campaign(50, 123, 1, |seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        FaultMap::sample(256, QFormat::Q4_11, 0.01, FaultKind::BitFlip, &mut rng).len() as f64
    }));
    // The fault count is deterministic for a fixed BER (round(0.01 * 4096)).
    assert_eq!(summary.mean(), 41.0);
    assert_eq!(summary.std_dev(), 0.0);
}

#[test]
fn parallel_and_serial_campaigns_agree_on_corruption_magnitude() {
    let weights: Vec<f32> = (0..512).map(|i| ((i % 31) as f32 - 15.0) * 0.01).collect();
    let experiment = |seed: u64| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let injector = Injector::sample(
            FaultTarget::new(FaultSite::WeightBuffer),
            weights.len(),
            QFormat::Q4_11,
            0.005,
            FaultKind::BitFlip,
            &mut rng,
        );
        let mut corrupted = weights.clone();
        injector.corrupt(&mut corrupted);
        corrupted.iter().zip(weights.iter()).map(|(a, b)| f64::from((a - b).abs())).sum::<f64>()
    };
    let serial = campaign(32, 9, 1, experiment);
    let parallel = campaign(32, 9, 4, experiment);
    assert_eq!(serial, parallel);
    assert!(Summary::from_samples(serial).mean() > 0.0);
}

#[test]
fn stuck_at_one_corrupts_more_than_stuck_at_zero_on_sparse_data() {
    // The asymmetry behind Fig. 2: near-zero (mostly 0-bit) data is immune to
    // stuck-at-0 but heavily corrupted by stuck-at-1.
    let sparse: Vec<f32> = (0..256).map(|i| (i % 8) as f32 * 0.01).collect();
    let stats = BitStats::from_f32(sparse.iter().copied(), QFormat::Q4_11);
    assert!(stats.zero_to_one_ratio() > 3.0);

    let corruption = |kind: FaultKind| {
        let values = campaign(20, 5, 1, |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let map = FaultMap::sample(sparse.len(), QFormat::Q4_11, 0.02, kind, &mut rng);
            let mut buf = sparse.clone();
            map.corrupt(&mut buf, QFormat::Q4_11);
            buf.iter().zip(sparse.iter()).map(|(a, b)| f64::from((a - b).abs())).sum::<f64>()
        });
        Summary::from_samples(values).mean()
    };
    assert!(corruption(FaultKind::StuckAt1) > corruption(FaultKind::StuckAt0) * 5.0);
}

#[test]
fn quantize_corrupt_dequantize_roundtrip_is_consistent_across_formats() {
    for format in [QFormat::Q3_4, QFormat::Q4_11, QFormat::Q7_8, QFormat::Q10_5] {
        let value = 1.25f32;
        let word = QValue::quantize(value, format);
        let flipped = word.with_flipped_bit(format.sign_bit()).expect("valid bit");
        assert!(flipped.to_f32() < 0.0, "{format}: sign flip must negate");
        let back = flipped.with_flipped_bit(format.sign_bit()).expect("valid bit");
        assert_eq!(back, word);
    }
}
