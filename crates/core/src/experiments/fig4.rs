//! Fig. 4 — convergence analysis: how many episodes training needs to
//! re-converge after a late transient fault, and whether extra training
//! recovers policies afflicted by permanent faults.

use std::sync::Arc;

use navft_fault::FaultKind;
use navft_nn::EngineConfig;
use navft_rl::{episodes_to_converge, trainer};

use crate::experiments::ber_label;
use crate::grid_policies::{train_under_fault, PolicyKind};
use crate::sweep::{CellSpec, Sweep};
use crate::{FigureData, GridParams, Scale, Series};

const PANELS: [(PolicyKind, &str, &str); 2] =
    [(PolicyKind::Tabular, "fig4a", "fig4b"), (PolicyKind::Network, "fig4c", "fig4d")];

const EI_MULTIPLIERS: [(usize, &str); 2] = [(1, "EI=1x"), (2, "EI=2x")];

/// Trains with a late transient fault and reports how many episodes after the
/// injection the sliding-window success rate returns above 95 % (the
/// full remaining training length if it never does).
fn recovery_episodes(
    kind: PolicyKind,
    ber: f64,
    params: &GridParams,
    seed: u64,
    engine: EngineConfig,
) -> f64 {
    // Train longer than the base schedule so there is room to re-converge.
    let mut extended = params.clone();
    extended.training_episodes = params.training_episodes * 2;
    let injection = (params.training_episodes as f64 * 0.9) as usize;
    let observer = trainer::no_mitigation();
    let run = train_under_fault(
        kind,
        &extended,
        FaultKind::BitFlip,
        ber,
        injection,
        seed,
        0x41,
        observer,
        engine,
    );
    let window = 20.min(params.training_episodes / 4).max(5);
    episodes_to_converge(&run.trace, injection, window, 0.95)
        .unwrap_or(extended.training_episodes - injection) as f64
}

/// Trains with permanent faults present from the start for `ei` episodes plus
/// one extra base-length block, and reports the final success rate (%).
fn permanent_success_after_extra_training(
    kind: PolicyKind,
    fault_kind: FaultKind,
    ber: f64,
    ei_multiplier: usize,
    params: &GridParams,
    seed: u64,
    engine: EngineConfig,
) -> f64 {
    let mut extended = params.clone();
    extended.training_episodes = params.training_episodes * (ei_multiplier + 1);
    let observer = trainer::no_mitigation();
    let run = train_under_fault(kind, &extended, fault_kind, ber, 0, seed, 0x4B, observer, engine);
    run.final_success_rate * 100.0
}

fn convergence_id(panel: &str, ber: f64) -> String {
    format!("{panel}/ber={ber}")
}

fn permanent_id(panel: &str, fault_kind: FaultKind, ei_label: &str, ber: f64) -> String {
    format!("{panel}/{fault_kind}/{ei_label}/ber={ber}")
}

/// Fig. 4 as a declarative sweep: re-convergence cells per BER plus
/// extra-training cells per (fault kind, EI multiplier, BER).
pub fn sweep(scale: Scale) -> Sweep {
    let params = Arc::new(scale.grid());
    // Use a trimmed repetition count: each cell trains for 2-3x the base
    // episode budget.
    let reps = (params.repetitions / 2).max(1);
    let mut sweep = Sweep::new("fig4", scale);
    for (kind, panel_conv, panel_perm) in PANELS {
        for &ber in &params.bit_error_rates {
            let spec = CellSpec::new(convergence_id(panel_conv, ber), reps)
                .with_label("figure", panel_conv)
                .with_label("ber", ber.to_string());
            let params_cell = Arc::clone(&params);
            sweep.cell(spec, move |seed, _rep, cfg| {
                recovery_episodes(kind, ber, &params_cell, seed, cfg)
            });
            for fault_kind in [FaultKind::StuckAt0, FaultKind::StuckAt1] {
                for (ei_multiplier, ei_label) in EI_MULTIPLIERS {
                    let spec =
                        CellSpec::new(permanent_id(panel_perm, fault_kind, ei_label, ber), reps)
                            .with_label("figure", panel_perm)
                            .with_label("fault", fault_kind.to_string())
                            .with_label("ei", ei_label)
                            .with_label("ber", ber.to_string());
                    let params_cell = Arc::clone(&params);
                    sweep.cell(spec, move |seed, _rep, cfg| {
                        permanent_success_after_extra_training(
                            kind,
                            fault_kind,
                            ber,
                            ei_multiplier,
                            &params_cell,
                            seed,
                            cfg,
                        )
                    });
                }
            }
        }
    }
    sweep.fold(move |results| {
        let mut figures = Vec::new();
        for (kind, panel_conv, panel_perm) in PANELS {
            let points: Vec<(f64, f64)> = params
                .bit_error_rates
                .iter()
                .map(|&ber| (ber, results.mean(&convergence_id(panel_conv, ber))))
                .collect();
            figures.push(FigureData::lines(
                panel_conv,
                format!("{kind} episodes to re-converge after a late transient fault"),
                "episodes to >95% success after injection vs BER",
                vec![Series::new("transient faults", points)],
            ));

            let mut series = Vec::new();
            for fault_kind in [FaultKind::StuckAt0, FaultKind::StuckAt1] {
                for (_, ei_label) in EI_MULTIPLIERS {
                    let points: Vec<(f64, f64)> = params
                        .bit_error_rates
                        .iter()
                        .map(|&ber| {
                            (
                                ber,
                                results.mean(&permanent_id(panel_perm, fault_kind, ei_label, ber)),
                            )
                        })
                        .collect();
                    series.push(Series::new(format!("{fault_kind} ({ei_label})"), points));
                }
            }
            figures.push(FigureData::lines(
                panel_perm,
                format!("{kind} success rate after extra training under permanent faults"),
                format!(
                    "final success rate (%) vs BER (labels: {})",
                    params
                        .bit_error_rates
                        .iter()
                        .map(|&b| ber_label(b))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                series,
            ));
        }
        figures
    });
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_uses_the_trimmed_repetition_count() {
        let params = Scale::Smoke.grid();
        let sweep = sweep(Scale::Smoke);
        assert_eq!(sweep.len(), 2 * (params.bit_error_rates.len() * (1 + 4)));
        let reps = (params.repetitions / 2).max(1);
        assert!(sweep.cell_specs().all(|s| s.repetitions() == reps));
    }
}
