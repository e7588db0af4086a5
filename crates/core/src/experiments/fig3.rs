//! Fig. 3 — example cumulative-return curves during training under transient
//! and permanent faults, showing the reward collapse at the injection episode
//! and the (faster NN / slower tabular) recovery.

use std::sync::Arc;

use navft_fault::{FaultKind, FaultSite, FaultTarget, InjectionSchedule, Injector};
use navft_gridworld::ObstacleDensity;
use navft_nn::EngineConfig;
use navft_qformat::QFormat;
use navft_rl::{trainer, FaultPlan};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::experiments::fig2::policy_words;
use crate::grid_policies::{train_grid_policy, PolicyKind};
use crate::sweep::{CellSpec, Sweep};
use crate::{FigureData, Scale, Series};

const PANELS: [(PolicyKind, &str); 2] =
    [(PolicyKind::Tabular, "fig3a"), (PolicyKind::Network, "fig3b")];

/// One fault configuration shown in Fig. 3.
struct CurveSpec {
    label: &'static str,
    kind: FaultKind,
    ber: f64,
    injection_fraction: f64,
}

const CURVES: [CurveSpec; 4] = [
    CurveSpec {
        label: "transient, BER=0.6%, early",
        kind: FaultKind::BitFlip,
        ber: 0.006,
        injection_fraction: 0.25,
    },
    CurveSpec {
        label: "transient, BER=0.6%, late",
        kind: FaultKind::BitFlip,
        ber: 0.006,
        injection_fraction: 0.85,
    },
    CurveSpec {
        label: "stuck-at-0, BER=0.3%",
        kind: FaultKind::StuckAt0,
        ber: 0.003,
        injection_fraction: 0.0,
    },
    CurveSpec {
        label: "stuck-at-1, BER=0.2%",
        kind: FaultKind::StuckAt1,
        ber: 0.002,
        injection_fraction: 0.0,
    },
];

/// Trains one exemplar run and returns its smoothed reward curve (the y
/// values; the x positions are a pure function of the scale).
fn curve_metrics(
    kind: PolicyKind,
    spec: &CurveSpec,
    params: &crate::GridParams,
    seed: u64,
    engine: EngineConfig,
) -> Vec<f64> {
    let episode = ((spec.injection_fraction * params.training_episodes as f64) as usize)
        .min(params.training_episodes - 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let injector = Injector::sample(
        FaultTarget::new(match kind {
            PolicyKind::Tabular => FaultSite::TabularBuffer,
            PolicyKind::Network => FaultSite::WeightBuffer,
        }),
        policy_words(kind),
        QFormat::Q3_4,
        spec.ber,
        spec.kind,
        &mut rng,
    );
    let schedule = if spec.kind.is_permanent() {
        InjectionSchedule::from_start()
    } else {
        InjectionSchedule::at_episode(episode)
    };
    let plan = FaultPlan::new(injector, schedule);
    let run = train_grid_policy(
        kind,
        ObstacleDensity::Middle,
        params,
        &plan,
        seed ^ 0x316_5EED,
        trainer::no_mitigation(),
        engine,
    );
    smoothed_rewards(&run.trace.rewards, 10).into_iter().map(|(_, y)| y).collect()
}

fn cell_id(panel: &str, curve: usize) -> String {
    format!("{panel}/curve{curve}")
}

/// Fig. 3 as a declarative sweep: one single-repetition cell per exemplar
/// training run, whose metrics are the smoothed reward curve.
pub fn sweep(scale: Scale) -> Sweep {
    let params = Arc::new(scale.grid());
    let mut sweep = Sweep::new("fig3", scale);
    for (kind, panel) in PANELS {
        for (index, curve) in CURVES.iter().enumerate() {
            let spec = CellSpec::new(cell_id(panel, index), 1)
                .with_label("figure", panel)
                .with_label("curve", curve.label);
            let params = Arc::clone(&params);
            sweep.cell_metrics(spec, move |seed, _rep, cfg| {
                curve_metrics(kind, &CURVES[index], &params, seed, cfg)
            });
        }
    }
    sweep.fold(move |results| {
        let sample_episodes = smoothing_episodes(params.training_episodes);
        let mut figures = Vec::new();
        for (kind, panel) in PANELS {
            let series = CURVES
                .iter()
                .enumerate()
                .map(|(index, curve)| {
                    let metrics = results.metrics(&cell_id(panel, index));
                    assert_eq!(
                        metrics.len(),
                        sample_episodes.len(),
                        "curve length must match the smoothing grid"
                    );
                    let points = sample_episodes
                        .iter()
                        .zip(metrics)
                        .map(|(&x, summary)| (x, summary.mean()))
                        .collect();
                    Series::new(curve.label, points)
                })
                .collect();
            figures.push(FigureData::lines(
                panel,
                format!(
                    "{} cumulative return during training under faults",
                    match kind {
                        PolicyKind::Tabular => "tabular",
                        PolicyKind::Network => "NN",
                    }
                ),
                "cumulative return (10-episode moving average) vs training episode",
                series,
            ));
        }
        figures
    });
    sweep
}

/// The episode indices the smoothed curve samples for a training run of
/// `episodes` episodes (shared by the trial and the fold).
fn smoothing_episodes(episodes: usize) -> Vec<f64> {
    let stride = (episodes / 100).max(1);
    (0..episodes).step_by(stride).map(|i| i as f64).collect()
}

/// A moving average of the episode rewards, sampled every few episodes to
/// keep the series compact.
fn smoothed_rewards(rewards: &[f32], window: usize) -> Vec<(f64, f64)> {
    let stride = (rewards.len() / 100).max(1);
    (0..rewards.len())
        .step_by(stride)
        .map(|i| {
            let start = i.saturating_sub(window);
            let slice = &rewards[start..=i];
            let mean = slice.iter().map(|&r| f64::from(r)).sum::<f64>() / slice.len() as f64;
            (i as f64, mean)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoothing_preserves_length_scale_and_bounds() {
        let rewards = vec![1.0f32; 250];
        let smooth = smoothed_rewards(&rewards, 10);
        assert!(smooth.len() >= 100 && smooth.len() <= 130);
        assert!(smooth.iter().all(|&(_, y)| (y - 1.0).abs() < 1e-9));
    }

    #[test]
    fn smoothing_grid_matches_smoothed_sample_positions() {
        for episodes in [60, 150, 250, 1000] {
            let rewards = vec![0.5f32; episodes];
            let xs: Vec<f64> = smoothed_rewards(&rewards, 10).into_iter().map(|(x, _)| x).collect();
            assert_eq!(xs, smoothing_episodes(episodes));
        }
    }

    #[test]
    fn sweep_declares_one_cell_per_exemplar_run() {
        let sweep = sweep(Scale::Smoke);
        assert_eq!(sweep.len(), 2 * CURVES.len());
        assert!(sweep.cell_specs().all(|s| s.repetitions() == 1));
    }
}
