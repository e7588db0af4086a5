//! Runtime-overhead measurement for the inference mitigation.
//!
//! The paper reports that range-based anomaly detection adds less than 3 %
//! runtime overhead and, unlike ECC, needs no redundant storage bits. This
//! module measures the relative cost of a guarded inference versus a plain
//! one on this implementation.

use std::time::Instant;

use navft_nn::{EngineConfig, Network, NoHooks, Scratch, Tensor};

use crate::RangeGuard;

/// The measured cost of running inference with and without the anomaly
/// detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadReport {
    /// Mean latency of an unprotected forward pass, in seconds.
    pub baseline_seconds: f64,
    /// Mean latency of a protected forward pass (scrub amortised over
    /// `scrub_interval` inferences), in seconds.
    pub protected_seconds: f64,
    /// Number of forward passes measured per variant.
    pub iterations: usize,
}

impl OverheadReport {
    /// The relative overhead, e.g. `0.03` for 3 %.
    pub fn relative_overhead(&self) -> f64 {
        if self.baseline_seconds <= 0.0 {
            return 0.0;
        }
        (self.protected_seconds - self.baseline_seconds) / self.baseline_seconds
    }
}

/// Measures the runtime overhead of the range guard on `network`.
///
/// The guard's scrub is amortised over `scrub_interval` inferences, matching a
/// deployment where weight memory is scanned periodically rather than before
/// every single frame.
///
/// # Panics
///
/// Panics if `iterations` or `scrub_interval` is zero.
pub fn measure_overhead(
    network: &Network,
    guard: &RangeGuard,
    input: &Tensor,
    iterations: usize,
    scrub_interval: usize,
) -> OverheadReport {
    assert!(iterations > 0, "iterations must be non-zero");
    assert!(scrub_interval > 0, "scrub interval must be non-zero");

    // Both variants run on the batched engine's zero-allocation scratch path
    // (a batch of one), so the measured difference is the mitigation, not
    // allocator noise. Two warm-up passes take slab growth out of the timed
    // region (the slabs swap roles per layer sweep, so both reach their
    // high-water mark only on the second pass when the sweep count is odd).
    fn pass(network: &Network, input: &Tensor, scratch: &mut Scratch) {
        let input = std::hint::black_box(input);
        network.forward_batch_into_cfg(&[input], scratch, &mut NoHooks, EngineConfig::default());
        std::hint::black_box(scratch.row(0));
    }
    let mut scratch = Scratch::new();
    pass(network, input, &mut scratch);
    pass(network, input, &mut scratch);

    // Baseline: plain forward passes.
    let start = Instant::now();
    for _ in 0..iterations {
        pass(network, input, &mut scratch);
    }
    let baseline = start.elapsed().as_secs_f64() / iterations as f64;

    // Protected: periodic weight scrub plus the same forward passes.
    let mut protected_net = network.clone();
    let start = Instant::now();
    for i in 0..iterations {
        if i % scrub_interval == 0 {
            guard.scrub(&mut protected_net);
        }
        pass(&protected_net, input, &mut scratch);
    }
    let protected = start.elapsed().as_secs_f64() / iterations as f64;

    OverheadReport { baseline_seconds: baseline, protected_seconds: protected, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RangeGuardConfig;
    use navft_nn::mlp;
    use navft_qformat::QFormat;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn overhead_report_is_populated_and_small_for_amortised_scrubs() {
        let mut rng = SmallRng::seed_from_u64(0);
        let net = mlp(&[64, 64, 8], &mut rng);
        let guard = RangeGuard::from_network(&net, QFormat::Q4_11, RangeGuardConfig::paper());
        let input = Tensor::full(&[64], 0.3);
        // Enough iterations that timing noise and the two amortised scrubs
        // don't swamp the per-inference cost in an optimized build.
        let report = measure_overhead(&net, &guard, &input, 500, 250);
        assert_eq!(report.iterations, 500);
        assert!(report.baseline_seconds > 0.0);
        assert!(report.protected_seconds > 0.0);
        // Timing noise makes a hard bound flaky, but the overhead must not be
        // catastrophic (the paper reports < 3 %; we allow a generous slack in
        // a debug-build unit test).
        assert!(report.relative_overhead() < 2.0, "overhead {}", report.relative_overhead());
    }

    #[test]
    fn relative_overhead_handles_zero_baseline() {
        let report =
            OverheadReport { baseline_seconds: 0.0, protected_seconds: 1.0, iterations: 1 };
        assert_eq!(report.relative_overhead(), 0.0);
    }

    #[test]
    #[should_panic(expected = "iterations must be non-zero")]
    fn zero_iterations_are_rejected() {
        let mut rng = SmallRng::seed_from_u64(1);
        let net = mlp(&[4, 2], &mut rng);
        let guard = RangeGuard::from_network(&net, QFormat::Q4_11, RangeGuardConfig::paper());
        let _ = measure_overhead(&net, &guard, &Tensor::zeros(&[4]), 0, 1);
    }
}
