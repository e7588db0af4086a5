//! Hardened flight: protect the drone policy with range-based anomaly
//! detection and compare flight quality against the unprotected policy under
//! increasing weight bit-error rates (a small version of Fig. 10b).
//!
//! ```text
//! cargo run --release --example hardened_flight
//! ```

use navft_core::drone_policy::train_drone_policy;
use navft_core::Scale;
use navft_dronesim::{DepthCamera, DroneSim, DroneWorld};
use navft_fault::{FaultKind, FaultSite, FaultTarget, Injector};
use navft_mitigation::{measure_overhead, RangeGuard, RangeGuardConfig};
use navft_nn::Tensor;
use navft_qformat::QFormat;
use navft_rl::{corrupt_network_weights, evaluate_policy_vision, InferenceFaultMode};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let params = Scale::Quick.drone();
    let world = DroneWorld::indoor_long();
    println!("pre-training the C3F2 drone policy (behaviour cloning)...");
    let policy = train_drone_policy(&world, &params, 11);
    let guard = RangeGuard::from_network(&policy, QFormat::Q4_11, RangeGuardConfig::paper());
    let mut rng = SmallRng::seed_from_u64(11);

    println!("\n{:>8} {:>16} {:>16}", "BER", "unprotected (m)", "protected (m)");
    for &ber in &params.bit_error_rates {
        let mut unprotected = 0.0;
        let mut protected = 0.0;
        let reps = 3;
        for rep in 0..reps {
            let injector = Injector::sample(
                FaultTarget::new(FaultSite::WeightBuffer),
                policy.weight_count(),
                QFormat::Q4_11,
                ber,
                FaultKind::BitFlip,
                &mut SmallRng::seed_from_u64(100 + rep),
            );
            let corrupted = corrupt_network_weights(
                &policy,
                &InferenceFaultMode::TransientWholeEpisode(injector),
            );
            let mut scrubbed = corrupted.clone();
            guard.scrub(&mut scrubbed);
            let mut sim = DroneSim::new(world.clone(), DepthCamera::scaled(), params.max_steps);
            unprotected += evaluate_policy_vision(
                &mut sim,
                &corrupted,
                params.eval_episodes,
                params.max_steps,
                &InferenceFaultMode::None,
                &mut rng,
            )
            .mean_distance;
            protected += evaluate_policy_vision(
                &mut sim,
                &scrubbed,
                params.eval_episodes,
                params.max_steps,
                &InferenceFaultMode::None,
                &mut rng,
            )
            .mean_distance;
        }
        println!(
            "{:>8.0e} {:>16.1} {:>16.1}",
            ber,
            unprotected / reps as f64,
            protected / reps as f64
        );
    }

    let frame = Tensor::zeros(&DepthCamera::scaled().frame_shape());
    let overhead = measure_overhead(&policy, &guard, &frame, 50, 25);
    println!(
        "\nrange-guard runtime overhead (scrub amortised over 25 inferences): {:.2}%",
        overhead.relative_overhead() * 100.0
    );
}
