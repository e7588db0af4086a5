//! Ablation studies over the design choices the paper fixes without sweeping:
//! the mitigation's detection threshold and adjustment coefficient, the
//! anomaly detector's margin and comparison precision, and an extended
//! data-type sweep.

use std::sync::Arc;

use navft_fault::{FaultKind, FaultSite, FaultTarget, InjectionSchedule, Injector};
use navft_gridworld::ObstacleDensity;
use navft_mitigation::{
    ExplorationAdjuster, ExplorationAdjusterConfig, RangeGuard, RangeGuardConfig,
};
use navft_nn::EngineConfig;
use navft_qformat::QFormat;
use navft_rl::FaultPlan;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::experiments::fig2::policy_words;
use crate::experiments::fig7;
use crate::grid_policies::{train_clean_policy, train_grid_policy, PolicyKind};
use crate::sweep::{CellSpec, Sweep};
use crate::{FigureData, GridParams, Scale, Series};

/// Final success rate (%) of tabular training under a late transient fault
/// with a custom mitigation configuration.
fn mitigated_success_with(
    config: ExplorationAdjusterConfig,
    ber: f64,
    params: &GridParams,
    seed: u64,
    engine: EngineConfig,
) -> f64 {
    let injection = (params.training_episodes as f64 * 0.9) as usize;
    let mut rng = SmallRng::seed_from_u64(seed);
    let injector = Injector::sample(
        FaultTarget::new(FaultSite::TabularBuffer),
        policy_words(PolicyKind::Tabular),
        QFormat::Q3_4,
        ber,
        FaultKind::BitFlip,
        &mut rng,
    );
    let plan = FaultPlan::new(injector, InjectionSchedule::at_episode(injection));
    let mut adjuster = ExplorationAdjuster::new(config);
    let run = train_grid_policy(
        PolicyKind::Tabular,
        ObstacleDensity::Middle,
        params,
        &plan,
        seed ^ 0xAB1,
        |episode, trace, epsilon| adjuster.observe(episode, trace, epsilon),
        engine,
    );
    run.final_success_rate * 100.0
}

const ALPHAS: [f64; 5] = [0.0, 0.2, 0.4, 0.8, 1.0];
const THRESHOLDS: [f64; 4] = [0.1, 0.25, 0.5, 0.75];
const MARGINS: [f64; 5] = [0.0, 0.05, 0.1, 0.25, 0.5];
const PRECISIONS: [(&str, bool); 2] = [("sign+integer bits", true), ("full precision", false)];

/// The extended data-type sweep: the extra-narrow 8-bit Q(1,2,5) and the
/// 16-bit Q(1,2,13) in addition to the Fig. 7e formats, each executed
/// natively on the quantized backend.
const DATA_TYPE_FORMATS: [QFormat; 5] =
    [QFormat::Q2_5, QFormat::Q2_13, QFormat::Q4_11, QFormat::Q7_8, QFormat::Q10_5];

const DATA_TYPE_PREFIX: &str = "ablation-data-types";

/// The ablations as one declarative sweep: adjustment coefficient, detection
/// threshold, anomaly-detection margin/precision, and the extended data-type
/// cells (shared with Fig. 7e's builder).
pub fn sweep(scale: Scale) -> Sweep {
    let params = Arc::new(scale.grid());
    let reps = (params.repetitions / 2).max(1);
    let ber = *params.bit_error_rates.last().expect("non-empty BER sweep");
    let mut sweep = Sweep::new("ablation", scale);

    // Ablation 1: the adjustment coefficient α.
    for alpha in ALPHAS {
        let spec = CellSpec::new(format!("alpha={alpha}"), reps)
            .with_label("figure", "ablation-alpha")
            .with_label("alpha", alpha.to_string());
        let params = Arc::clone(&params);
        sweep.cell(spec, move |seed, _rep, cfg| {
            let config =
                ExplorationAdjusterConfig { alpha, ..ExplorationAdjusterConfig::tabular() };
            mitigated_success_with(config, ber, &params, seed, cfg)
        });
    }

    // Ablation 2: the detection threshold x (reward-drop fraction).
    for threshold in THRESHOLDS {
        let spec = CellSpec::new(format!("threshold={threshold}"), reps)
            .with_label("figure", "ablation-detection-threshold")
            .with_label("threshold", threshold.to_string());
        let params = Arc::clone(&params);
        sweep.cell(spec, move |seed, _rep, cfg| {
            let config = ExplorationAdjusterConfig {
                reward_drop_fraction: threshold,
                ..ExplorationAdjusterConfig::tabular()
            };
            mitigated_success_with(config, ber, &params, seed, cfg)
        });
    }

    // Ablation 3: the anomaly-detection margin and comparison precision.
    for (label, integer_only) in PRECISIONS {
        for margin in MARGINS {
            let spec = CellSpec::new(format!("margin/{label}/m={margin}"), reps)
                .with_label("figure", "ablation-margin")
                .with_label("precision", label)
                .with_label("margin", margin.to_string());
            let params = Arc::clone(&params);
            sweep.cell(spec, move |seed, _rep, cfg| {
                guarded_success_with_margin(margin, integer_only, ber, &params, seed, cfg)
            });
        }
    }

    // Ablation 4: the extended data-type sweep, natively executed.
    fig7::add_data_type_cells(&mut sweep, scale, &DATA_TYPE_FORMATS, DATA_TYPE_PREFIX);

    sweep.fold(move |results| {
        let mut figures = Vec::new();
        let alpha_points =
            ALPHAS.iter().map(|&a| (a, results.mean(&format!("alpha={a}")))).collect();
        figures.push(FigureData::lines(
            "ablation-alpha",
            "mitigated tabular training vs adjustment coefficient alpha",
            "final success rate (%) vs alpha (late transient fault at the highest BER)",
            vec![Series::new("alpha sweep", alpha_points)],
        ));

        let threshold_points =
            THRESHOLDS.iter().map(|&t| (t, results.mean(&format!("threshold={t}")))).collect();
        figures.push(FigureData::lines(
            "ablation-detection-threshold",
            "mitigated tabular training vs reward-drop detection threshold",
            "final success rate (%) vs detection threshold x",
            vec![Series::new("threshold sweep", threshold_points)],
        ));

        let margin_series = PRECISIONS
            .iter()
            .map(|&(label, _)| {
                let points = MARGINS
                    .iter()
                    .map(|&m| (m, results.mean(&format!("margin/{label}/m={m}"))))
                    .collect();
                Series::new(label, points)
            })
            .collect();
        figures.push(FigureData::lines(
            "ablation-margin",
            "anomaly-detection margin and comparison precision",
            "Grid World NN success rate (%) vs detection margin (weight bit flips at the highest BER)",
            margin_series,
        ));

        figures.extend(fig7::data_type_figures(
            results,
            scale,
            &DATA_TYPE_FORMATS,
            DATA_TYPE_PREFIX,
        ));
        figures
    });
    sweep
}

/// Success rate (%) of the guarded Grid World NN policy with a custom
/// anomaly-detection configuration.
fn guarded_success_with_margin(
    margin: f64,
    integer_only: bool,
    ber: f64,
    params: &GridParams,
    seed: u64,
    engine: EngineConfig,
) -> f64 {
    use navft_rl::{
        corrupt_policy_weights, evaluate_policy_discrete_batched, DummyVecEnv, InferenceFaultMode,
    };

    let run =
        train_clean_policy(PolicyKind::Network, ObstacleDensity::Middle, params, seed, engine);
    let clean = run.network.as_ref().expect("network policy").network();
    let config = RangeGuardConfig { margin, integer_bits_only: integer_only };
    let guard = RangeGuard::from_network(clean, QFormat::Q3_4, config);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xAB3);
    let injector = Injector::sample(
        FaultTarget::new(FaultSite::WeightBuffer),
        clean.weight_count(),
        QFormat::Q3_4,
        ber,
        FaultKind::BitFlip,
        &mut rng,
    );
    let mut corrupted =
        corrupt_policy_weights(clean, &InferenceFaultMode::TransientWholeEpisode(injector));
    guard.scrub(&mut corrupted);
    let world = navft_gridworld::GridWorld::with_density(ObstacleDensity::Middle);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_declares_every_ablation_cell() {
        let drone = Scale::Smoke.drone();
        let sweep = sweep(Scale::Smoke);
        // Every Q-format plus the i8 affine column, each with one bit-ratio
        // cell and one flight cell per BER.
        let data_type_cells = (DATA_TYPE_FORMATS.len() + 1) * (1 + drone.bit_error_rates.len());
        assert_eq!(
            sweep.len(),
            ALPHAS.len() + THRESHOLDS.len() + PRECISIONS.len() * MARGINS.len() + data_type_cells
        );
    }
}
