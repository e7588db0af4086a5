//! Fig. 10 — the effectiveness of range-based anomaly detection during
//! inference: success rate (Grid World) and flight distance (drone) with and
//! without the mitigation, plus the headline improvement factors and the
//! guard's cost.
//!
//! The cost is counted, not timed: the guarded weight words the scrub checks
//! per inference (amortised over [`SCRUB_INTERVAL`] inferences) and that
//! count as a share of the inference's multiply-accumulates, both functions
//! of the policy's topology alone. Like every fold, this one is a pure
//! function of its cell summaries.

use std::sync::Arc;

use navft_dronesim::{DepthCamera, DroneSim, DroneWorld};
use navft_fault::{FaultKind, FaultSite, FaultTarget, Injector};
use navft_gridworld::{GridWorld, ObstacleDensity};
use navft_mitigation::{RangeGuard, RangeGuardConfig};
use navft_nn::{EngineConfig, Network};
use navft_qformat::QFormat;
use navft_rl::{
    corrupt_network_weights, evaluate_policy_discrete_batched, evaluate_policy_vision_batched,
    DummyVecEnv, DummyVisionVecEnv, InferenceFaultMode,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::drone_policy::train_drone_policy;
use crate::grid_policies::{train_clean_policy, PolicyKind};
use crate::sweep::{CellSpec, Lazy, Sweep};
use crate::{FigureData, GridParams, Scale, Series};

/// Success rate (%) of the NN Grid World policy under weight bit flips, with
/// or without the range guard scrubbing the corrupted weights first. The
/// evaluation episodes run as one vectorized rollout under `engine`.
pub fn grid_success_with_guard(
    ber: f64,
    mitigated: bool,
    params: &GridParams,
    seed: u64,
    engine: EngineConfig,
) -> f64 {
    let run =
        train_clean_policy(PolicyKind::Network, ObstacleDensity::Middle, params, seed, engine);
    let agent = run.network.as_ref().expect("network policy");
    let clean = agent.network();
    let guard = RangeGuard::from_network(clean, QFormat::Q3_4, RangeGuardConfig::paper());
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x10A);
    let injector = Injector::sample(
        FaultTarget::new(FaultSite::WeightBuffer),
        clean.weight_count(),
        QFormat::Q3_4,
        ber,
        FaultKind::BitFlip,
        &mut rng,
    );
    let mut corrupted =
        corrupt_network_weights(clean, &InferenceFaultMode::TransientWholeEpisode(injector));
    if mitigated {
        guard.scrub(&mut corrupted);
    }
    let world = GridWorld::with_density(ObstacleDensity::Middle);
    let mut venv = DummyVecEnv::from_prototype(&world, params.eval_episodes.clamp(1, 64));
    evaluate_policy_discrete_batched(
        &mut venv,
        &corrupted,
        params.eval_episodes,
        params.max_steps,
        &InferenceFaultMode::None,
        &mut rng,
        engine,
    )
    .success_rate
        * 100.0
}

/// Mean safe flight distance of the drone policy under weight bit flips, with
/// or without the range guard.
fn drone_distance_with_guard(
    policy: &Network,
    world: &DroneWorld,
    ber: f64,
    mitigated: bool,
    params: &crate::DroneParams,
    seed: u64,
    engine: EngineConfig,
) -> f64 {
    let guard = RangeGuard::from_network(policy, QFormat::Q4_11, RangeGuardConfig::paper());
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x10B);
    let injector = Injector::sample(
        FaultTarget::new(FaultSite::WeightBuffer),
        policy.weight_count(),
        QFormat::Q4_11,
        ber,
        FaultKind::BitFlip,
        &mut rng,
    );
    let mut corrupted =
        corrupt_network_weights(policy, &InferenceFaultMode::TransientWholeEpisode(injector));
    if mitigated {
        guard.scrub(&mut corrupted);
    }
    let sim = DroneSim::new(world.clone(), DepthCamera::scaled(), params.max_steps);
    let mut venv = DummyVisionVecEnv::from_prototype(&sim, params.eval_episodes.clamp(1, 64));
    evaluate_policy_vision_batched(
        &mut venv,
        &corrupted,
        params.eval_episodes,
        params.max_steps,
        &InferenceFaultMode::None,
        &mut rng,
        engine,
    )
    .mean_distance
}

const ARMS: [(bool, &str); 2] = [(false, "base"), (true, "guarded")];

/// Inferences one weight scrub is amortised over: a deployment scans weight
/// memory periodically rather than before every frame.
pub const SCRUB_INTERVAL: usize = 50;

/// The guard's cost on `network` for inputs of `input_shape`:
/// `(guarded weight words one scrub checks, multiply-accumulates of one
/// inference)`. A parametric layer's MACs are its weight count times its
/// output positions (`H × W` for a convolution, 1 for a linear layer).
pub fn guard_cost(network: &Network, input_shape: &[usize], guard: &RangeGuard) -> (usize, usize) {
    let words = guard
        .bounds()
        .iter()
        .filter_map(|&(layer, _, _)| network.layer_weights(layer).map(<[f32]>::len))
        .sum();
    let (mut macs, mut shape, mut out) = (0, input_shape.to_vec(), Vec::new());
    for layer in network.layers() {
        layer.output_shape(&shape, &mut out);
        if let Some(weights) = layer.weights() {
            macs += weights.len() * out[1..].iter().product::<usize>();
        }
        std::mem::swap(&mut shape, &mut out);
    }
    (words, macs)
}

fn grid_id(arm: &str, ber: f64) -> String {
    format!("grid/{arm}/ber={ber}")
}

fn drone_id(arm: &str, ber: f64) -> String {
    format!("drone/{arm}/ber={ber}")
}

/// Fig. 10 as a declarative sweep: (task × mitigation arm × BER) cells; the
/// improvement factors and the guard's cost are computed in the fold.
pub fn sweep(scale: Scale) -> Sweep {
    let grid_params = Arc::new(scale.grid());
    let drone_params = Arc::new(scale.drone());
    let world = Arc::new(DroneWorld::indoor_long());
    let policy = {
        let world = Arc::clone(&world);
        let params = Arc::clone(&drone_params);
        Lazy::new(move || train_drone_policy(&world, &params, 0x0D0E))
    };

    let mut sweep = Sweep::new("fig10", scale);
    for (mitigated, arm) in ARMS {
        for &ber in &grid_params.bit_error_rates {
            let spec = CellSpec::new(grid_id(arm, ber), grid_params.repetitions)
                .with_label("figure", "fig10a")
                .with_label("arm", arm)
                .with_label("ber", ber.to_string());
            let params = Arc::clone(&grid_params);
            sweep.cell(spec, move |seed, _rep, cfg| {
                grid_success_with_guard(ber, mitigated, &params, seed, cfg)
            });
        }
        for &ber in &drone_params.bit_error_rates {
            let spec = CellSpec::new(drone_id(arm, ber), drone_params.repetitions)
                .with_label("figure", "fig10b")
                .with_label("arm", arm)
                .with_label("ber", ber.to_string());
            let (policy, world, params) =
                (policy.clone(), Arc::clone(&world), Arc::clone(&drone_params));
            sweep.cell(spec, move |seed, _rep, cfg| {
                drone_distance_with_guard(policy.get(), &world, ber, mitigated, &params, seed, cfg)
            });
        }
    }
    sweep.fold(move |results| {
        let collect =
            |id: &dyn Fn(&str, f64) -> String, bers: &[f64], arm: &str| -> Vec<(f64, f64)> {
                bers.iter().map(|&ber| (ber, results.mean(&id(arm, ber)))).collect()
            };
        let unmitigated = collect(&grid_id, &grid_params.bit_error_rates, "base");
        let mitigated = collect(&grid_id, &grid_params.bit_error_rates, "guarded");
        let drone_unmitigated = collect(&drone_id, &drone_params.bit_error_rates, "base");
        let drone_mitigated = collect(&drone_id, &drone_params.bit_error_rates, "guarded");

        let mut figures = vec![
            FigureData::lines(
                "fig10a",
                "Grid World NN inference with range-based anomaly detection",
                "success rate (%) vs BER (weight bit flips)",
                vec![
                    Series::new("no mitigation", unmitigated.clone()),
                    Series::new("mitigation", mitigated.clone()),
                ],
            ),
            FigureData::lines(
                "fig10b",
                "drone inference with range-based anomaly detection",
                "mean safe flight distance (m) vs BER (weight bit flips)",
                vec![
                    Series::new("no mitigation", drone_unmitigated.clone()),
                    Series::new("mitigation", drone_mitigated.clone()),
                ],
            ),
        ];

        // Headline facts: improvement factors at the highest BER and the
        // guard's cost per inference.
        let improvement = |base: &[(f64, f64)], guarded: &[(f64, f64)]| -> f64 {
            let (mut best, mut found) = (1.0f64, false);
            for ((_, b), (_, g)) in base.iter().zip(guarded.iter()) {
                if *b > 1e-9 {
                    best = best.max(*g / *b);
                    found = true;
                }
            }
            if found {
                best
            } else {
                1.0
            }
        };
        // The cost is a function of the topology and the guard's layers, not
        // of the learned weights, so it is counted on an untrained probe of
        // the same architecture — a fully resumed run must not train the
        // policy just to count it.
        let probe = navft_nn::C3f2Config::scaled().build(&mut SmallRng::seed_from_u64(0x10C));
        let guard = RangeGuard::from_network(&probe, QFormat::Q4_11, RangeGuardConfig::paper());
        let (words, macs) = guard_cost(&probe, &DepthCamera::scaled().frame_shape(), &guard);
        let words_per_inference = words as f64 / SCRUB_INTERVAL as f64;
        figures.push(FigureData::facts(
            "fig10-headline",
            "headline mitigation results",
            vec![
                (
                    "Grid World success-rate improvement (x)".to_string(),
                    improvement(&unmitigated, &mitigated),
                ),
                (
                    "drone flight-distance improvement (x)".to_string(),
                    improvement(&drone_unmitigated, &drone_mitigated),
                ),
                ("range-guard words checked per inference".to_string(), words_per_inference),
                (
                    "range-guard checks per MAC (%)".to_string(),
                    words_per_inference / macs as f64 * 100.0,
                ),
            ],
        ));
        figures
    });
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;
    use navft_nn::{Conv2d, Layer, Linear};

    #[test]
    fn sweep_declares_both_arms_for_both_tasks() {
        let grid = Scale::Smoke.grid();
        let drone = Scale::Smoke.drone();
        let sweep = sweep(Scale::Smoke);
        assert_eq!(sweep.len(), 2 * (grid.bit_error_rates.len() + drone.bit_error_rates.len()));
    }

    #[test]
    fn guard_cost_counts_guarded_words_and_macs() {
        // 4·8 + 8·2 weights, each used once per inference by a linear layer.
        let net = navft_nn::mlp(&[4, 8, 2], &mut SmallRng::seed_from_u64(3));
        let guard = RangeGuard::from_network(&net, QFormat::Q4_11, RangeGuardConfig::paper());
        assert_eq!(guard_cost(&net, &[4], &guard), (48, 48));

        // A 3×3 conv (1 → 2 channels) over 4×4 has 2×2 output positions:
        // 18 weights, 72 MACs; the 8 → 3 linear head adds 24 of each.
        let rng = &mut SmallRng::seed_from_u64(4);
        let net = Network::new(vec![
            Layer::Conv2d(Conv2d::new(1, 2, 3, 1, rng)),
            Layer::Flatten,
            Layer::Linear(Linear::new(8, 3, rng)),
        ]);
        let guard = RangeGuard::from_network(&net, QFormat::Q4_11, RangeGuardConfig::paper());
        assert_eq!(guard_cost(&net, &[1, 4, 4], &guard), (42, 96));
    }
}
