//! Fig. 8 — Grid World training heatmaps with the adaptive exploration-rate
//! adjustment (the training-time mitigation) enabled, for direct comparison
//! against Fig. 2.

use std::sync::Arc;

use navft_fault::{FaultKind, FaultSite, FaultTarget, InjectionSchedule, Injector};
use navft_gridworld::ObstacleDensity;
use navft_mitigation::ExplorationAdjuster;
use navft_nn::EngineConfig;
use navft_qformat::QFormat;
use navft_rl::FaultPlan;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::experiments::ber_label;
use crate::experiments::fig2::{policy_words, stuck_id, transient_id};
use crate::grid_policies::{train_grid_policy, PolicyKind};
use crate::sweep::{CellSpec, Sweep};
use crate::{FigureData, GridParams, Heatmap, Scale, Series};

const PANELS: [(PolicyKind, &str); 2] =
    [(PolicyKind::Tabular, "fig8a"), (PolicyKind::Network, "fig8b")];

/// Trains a policy of `kind` under a fault, with the exploration-rate
/// mitigation attached, and returns the final success rate in percent.
/// `engine` runs the final policy evaluation.
pub fn mitigated_training_success(
    kind: PolicyKind,
    fault_kind: FaultKind,
    ber: f64,
    episode: usize,
    params: &GridParams,
    seed: u64,
    engine: EngineConfig,
) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let injector = Injector::sample(
        FaultTarget::new(match kind {
            PolicyKind::Tabular => FaultSite::TabularBuffer,
            PolicyKind::Network => FaultSite::WeightBuffer,
        }),
        policy_words(kind),
        QFormat::Q3_4,
        ber,
        fault_kind,
        &mut rng,
    );
    let schedule = if fault_kind.is_permanent() {
        InjectionSchedule::from_start()
    } else {
        InjectionSchedule::at_episode(episode)
    };
    let plan = FaultPlan::new(injector, schedule);
    let mut adjuster = match kind {
        PolicyKind::Tabular => ExplorationAdjuster::for_tabular(),
        PolicyKind::Network => ExplorationAdjuster::for_network(),
    };
    let run = train_grid_policy(
        kind,
        ObstacleDensity::Middle,
        params,
        &plan,
        seed ^ 0xF18,
        |episode, trace, epsilon| adjuster.observe(episode, trace, epsilon),
        engine,
    );
    run.final_success_rate * 100.0
}

/// Fig. 8 as a declarative sweep: the Fig. 2 grid (same cell-id scheme,
/// shared helpers) with the mitigation attached to every training run.
pub fn sweep(scale: Scale) -> Sweep {
    let params = Arc::new(scale.grid());
    let episodes = params.injection_episodes();
    let mut sweep = Sweep::new("fig8", scale);
    for (kind, panel) in PANELS {
        for &ber in &params.bit_error_rates {
            for &episode in &episodes {
                let spec = CellSpec::new(transient_id(panel, ber, episode), params.repetitions)
                    .with_label("figure", format!("{panel}-transient"))
                    .with_label("ber", ber.to_string())
                    .with_label("episode", episode.to_string());
                let params = Arc::clone(&params);
                sweep.cell(spec, move |seed, _rep, cfg| {
                    mitigated_training_success(
                        kind,
                        FaultKind::BitFlip,
                        ber,
                        episode,
                        &params,
                        seed,
                        cfg,
                    )
                });
            }
            for fault_kind in [FaultKind::StuckAt0, FaultKind::StuckAt1] {
                let spec = CellSpec::new(stuck_id(panel, fault_kind, ber), params.repetitions)
                    .with_label("figure", format!("{panel}-{fault_kind}"))
                    .with_label("ber", ber.to_string());
                let params = Arc::clone(&params);
                sweep.cell(spec, move |seed, _rep, cfg| {
                    mitigated_training_success(kind, fault_kind, ber, 0, &params, seed, cfg)
                });
            }
        }
    }
    sweep.fold(move |results| {
        let mut figures = Vec::new();
        for (kind, panel) in PANELS {
            let rows = params
                .bit_error_rates
                .iter()
                .map(|&ber| {
                    episodes
                        .iter()
                        .map(|&episode| results.mean(&transient_id(panel, ber, episode)))
                        .collect()
                })
                .collect();
            figures.push(FigureData::heatmap(
                format!("{panel}-transient"),
                format!("{kind} training under transient faults with exploration-rate mitigation"),
                "final success rate (%) vs (BER, fault-injection episode)",
                Heatmap::new(
                    params.bit_error_rates.iter().map(|&b| ber_label(b)).collect(),
                    episodes.iter().map(|e| e.to_string()).collect(),
                    rows,
                ),
            ));
            for fault_kind in [FaultKind::StuckAt0, FaultKind::StuckAt1] {
                let points = params
                    .bit_error_rates
                    .iter()
                    .map(|&ber| (ber, results.mean(&stuck_id(panel, fault_kind, ber))))
                    .collect();
                figures.push(FigureData::lines(
                    format!("{panel}-{fault_kind}"),
                    format!("{kind} training under {fault_kind} faults with mitigation"),
                    "final success rate (%) vs BER",
                    vec![Series::new(fault_kind.to_string(), points)],
                ));
            }
        }
        figures
    });
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_mirrors_the_fig2_cell_grid() {
        let fig2 = crate::experiments::fig2::training_sweep(Scale::Smoke);
        let fig8 = sweep(Scale::Smoke);
        assert_eq!(fig2.len(), fig8.len());
    }
}
