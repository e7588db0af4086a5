//! Fig. 9 — the behaviour of the exploration-rate mitigation: how far the
//! exploration ratio is raised, how long the agent takes to return to steady
//! exploitation, and the trade-off between adjusted exploration and recovery
//! speed.
//!
//! One mitigated training run yields all three observables, so each cell's
//! trial returns them as three metrics of a single run — the sweep rewrite
//! cut the per-cell training cost to a third of the old driver, which ran
//! the same configuration once per observable.

use std::sync::Arc;

use navft_fault::FaultKind;
use navft_nn::EngineConfig;
use navft_rl::episodes_to_converge;

use crate::grid_policies::{train_under_fault, PolicyKind};
use crate::sweep::{CellSpec, Sweep};
use crate::{FigureData, GridParams, Scale, Series};

const PANELS: [(PolicyKind, &str); 2] =
    [(PolicyKind::Tabular, "fig9a"), (PolicyKind::Network, "fig9b")];

const FAULT_KINDS: [FaultKind; 3] = [FaultKind::BitFlip, FaultKind::StuckAt0, FaultKind::StuckAt1];

/// Metric indices within a cell's trial result.
const PEAK_EXPLORATION: usize = 0;
const EPISODES_TO_STEADY: usize = 1;
const RECOVERY_EPISODES: usize = 2;

/// Runs one mitigated training and returns `[peak exploration ratio (%),
/// episodes to steady exploitation, episodes to recover >95% success]`.
fn run_mitigated(
    kind: PolicyKind,
    fault_kind: FaultKind,
    ber: f64,
    params: &GridParams,
    seed: u64,
    engine: EngineConfig,
) -> Vec<f64> {
    let mut extended = params.clone();
    extended.training_episodes = params.training_episodes * 2;
    let injection = if fault_kind.is_permanent() {
        0
    } else {
        (params.training_episodes as f64 * 0.9) as usize
    };
    let mut adjuster = kind.exploration_adjuster();
    let observer = |episode, trace: &_, epsilon: &mut _| adjuster.observe(episode, trace, epsilon);
    let run = train_under_fault(
        kind, &extended, fault_kind, ber, injection, seed, 0xF19, observer, engine,
    );

    let post_fault =
        &run.trace.epsilons[injection.min(run.trace.epsilons.len().saturating_sub(1))..];
    let peak_exploration = post_fault.iter().copied().fold(0.0f64, f64::max) * 100.0;
    let floor = 0.05 + 1e-9;
    let episodes_to_steady = post_fault
        .iter()
        .position(|&e| e <= floor)
        .map(|p| {
            // Find the first return to the floor *after* any boost.
            post_fault[p..].iter().position(|&e| e <= floor).map(|q| p + q).unwrap_or(p)
        })
        .unwrap_or(post_fault.len()) as f64;
    let window = 20.min(params.training_episodes / 4).max(5);
    let recovery_episodes = episodes_to_converge(&run.trace, injection, window, 0.95)
        .unwrap_or(extended.training_episodes - injection) as f64;
    vec![peak_exploration, episodes_to_steady, recovery_episodes]
}

fn cell_id(panel: &str, fault_kind: FaultKind, ber: f64) -> String {
    format!("{panel}/{fault_kind}/ber={ber}")
}

/// Fig. 9 as a declarative sweep: one cell per (policy, fault kind, BER)
/// whose single training run yields all three observables as metrics.
pub fn sweep(scale: Scale) -> Sweep {
    let params = Arc::new(scale.grid());
    let reps = (params.repetitions / 2).max(1);
    let mut sweep = Sweep::new("fig9", scale);
    for (kind, panel) in PANELS {
        for fault_kind in FAULT_KINDS {
            for &ber in &params.bit_error_rates {
                let spec = CellSpec::new(cell_id(panel, fault_kind, ber), reps)
                    .with_label("figure", panel)
                    .with_label("fault", fault_kind.to_string())
                    .with_label("ber", ber.to_string());
                let params = Arc::clone(&params);
                sweep.cell_metrics(spec, move |seed, _rep, cfg| {
                    run_mitigated(kind, fault_kind, ber, &params, seed, cfg)
                });
            }
        }
    }
    sweep.fold(move |results| {
        let mut figures = Vec::new();
        let mut tradeoff_series = Vec::new();
        for (kind, panel) in PANELS {
            let mut ratio_series = Vec::new();
            let mut steady_series = Vec::new();
            let mut tradeoff_points = Vec::new();
            for fault_kind in FAULT_KINDS {
                let mut ratio_points = Vec::new();
                let mut steady_points = Vec::new();
                for &ber in &params.bit_error_rates {
                    let id = cell_id(panel, fault_kind, ber);
                    let peak = results.metric_mean(&id, PEAK_EXPLORATION);
                    ratio_points.push((ber, peak));
                    steady_points.push((ber, results.metric_mean(&id, EPISODES_TO_STEADY)));
                    if fault_kind == FaultKind::BitFlip {
                        tradeoff_points.push((peak, results.metric_mean(&id, RECOVERY_EPISODES)));
                    }
                }
                ratio_series.push(Series::new(format!("{fault_kind}"), ratio_points));
                steady_series.push(Series::new(format!("{fault_kind}"), steady_points));
            }
            figures.push(FigureData::lines(
                format!("{panel}-exploration-ratio"),
                format!("{kind} adjusted exploration ratio vs BER"),
                "peak exploration ratio after the fault (%) vs BER",
                ratio_series,
            ));
            figures.push(FigureData::lines(
                format!("{panel}-episodes-to-steady"),
                format!("{kind} episodes to steady exploitation vs BER"),
                "episodes from fault to steady exploitation vs BER",
                steady_series,
            ));
            tradeoff_points
                .sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            tradeoff_series.push(Series::new(kind.to_string(), tradeoff_points));
        }
        figures.push(FigureData::lines(
            "fig9c",
            "recovery time vs adjusted exploration ratio",
            "episodes to recover >95% success vs peak exploration ratio (%)",
            tradeoff_series,
        ));
        figures
    });
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_trial_yields_all_three_observables() {
        let params = Scale::Smoke.grid();
        let engine = EngineConfig::default();
        let metrics =
            run_mitigated(PolicyKind::Tabular, FaultKind::BitFlip, 0.005, &params, 0x99, engine);
        assert_eq!(metrics.len(), 3);
        assert!(metrics[PEAK_EXPLORATION] >= 0.0 && metrics[PEAK_EXPLORATION] <= 100.0);
        assert!(metrics[EPISODES_TO_STEADY] >= 0.0);
        assert!(metrics[RECOVERY_EPISODES] >= 0.0);
    }

    #[test]
    fn sweep_declares_one_cell_per_configuration() {
        let params = Scale::Smoke.grid();
        let sweep = sweep(Scale::Smoke);
        assert_eq!(sweep.len(), 2 * FAULT_KINDS.len() * params.bit_error_rates.len());
    }
}
