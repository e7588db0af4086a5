//! Fig. 5 — Grid World *inference* sensitivity: success rate of trained
//! policies evaluated under Transient-1, Transient-M, stuck-at-0 and
//! stuck-at-1 faults across a BER sweep.

use std::sync::Arc;

use navft_fault::{FaultKind, Injector};
use navft_gridworld::ObstacleDensity;
use navft_nn::EngineConfig;
use navft_qformat::QFormat;
use navft_rl::InferenceFaultMode;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::grid_policies::{evaluate_grid_policy, train_clean_policy, PolicyKind};
use crate::sweep::{CellSpec, Sweep};
use crate::{FigureData, Scale, Series};

/// The two policy families and their figure panel ids.
const PANELS: [(PolicyKind, &str); 2] =
    [(PolicyKind::Tabular, "fig5a"), (PolicyKind::Network, "fig5b")];

/// The four inference fault modes swept by Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferenceMode {
    /// Transient fault affecting a single decision step.
    Transient1,
    /// Transient fault in memory affecting the whole episode.
    TransientM,
    /// Permanent stuck-at-0 faults.
    StuckAt0,
    /// Permanent stuck-at-1 faults.
    StuckAt1,
}

impl InferenceMode {
    /// All modes in the order the figure's legend lists them.
    pub const ALL: [InferenceMode; 4] = [
        InferenceMode::TransientM,
        InferenceMode::Transient1,
        InferenceMode::StuckAt0,
        InferenceMode::StuckAt1,
    ];

    /// The legend label.
    pub fn label(&self) -> &'static str {
        match self {
            InferenceMode::Transient1 => "Transient-1",
            InferenceMode::TransientM => "Transient-M",
            InferenceMode::StuckAt0 => "Stuck-at-0",
            InferenceMode::StuckAt1 => "Stuck-at-1",
        }
    }

    fn to_fault(self, injector: Injector) -> InferenceFaultMode {
        match self {
            InferenceMode::Transient1 => InferenceFaultMode::TransientSingleStep(injector),
            InferenceMode::TransientM => InferenceFaultMode::TransientWholeEpisode(injector),
            InferenceMode::StuckAt0 | InferenceMode::StuckAt1 => {
                InferenceFaultMode::Permanent(injector)
            }
        }
    }

    fn fault_kind(&self) -> FaultKind {
        match self {
            InferenceMode::Transient1 | InferenceMode::TransientM => FaultKind::BitFlip,
            InferenceMode::StuckAt0 => FaultKind::StuckAt0,
            InferenceMode::StuckAt1 => FaultKind::StuckAt1,
        }
    }
}

/// Evaluates a freshly trained policy of `kind` under the given mode and BER,
/// returning the success rate in percent. The evaluation episodes run as one
/// vectorized rollout under `engine`.
pub fn inference_success(
    kind: PolicyKind,
    mode: InferenceMode,
    ber: f64,
    params: &crate::GridParams,
    seed: u64,
    engine: EngineConfig,
) -> f64 {
    let run = train_clean_policy(kind, ObstacleDensity::Middle, params, seed, engine);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x515);
    let (target, words) = (kind.fault_target(), kind.stored_words());
    let injector = Injector::sample(target, words, QFormat::Q3_4, ber, mode.fault_kind(), &mut rng);
    let fault = mode.to_fault(injector);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xE7A1);
    evaluate_grid_policy(&run, ObstacleDensity::Middle, params, &fault, &mut rng, engine)
        .success_rate
        * 100.0
}

fn cell_id(panel: &str, mode: InferenceMode, ber: f64) -> String {
    format!("{panel}/{}/ber={ber}", mode.label())
}

/// Fig. 5 as a declarative sweep: one cell per (policy, mode, BER).
pub fn sweep(scale: Scale) -> Sweep {
    let params = Arc::new(scale.grid());
    let mut sweep = Sweep::new("fig5", scale);
    for (kind, panel) in PANELS {
        for mode in InferenceMode::ALL {
            for &ber in &params.bit_error_rates {
                let spec = CellSpec::new(cell_id(panel, mode, ber), params.repetitions)
                    .with_label("figure", panel)
                    .with_label("mode", mode.label())
                    .with_label("ber", ber.to_string());
                let params = Arc::clone(&params);
                sweep.cell(spec, move |seed, _rep, cfg| {
                    inference_success(kind, mode, ber, &params, seed, cfg)
                });
            }
        }
    }
    sweep.fold(move |results| {
        let mut figures = Vec::new();
        for (kind, panel) in PANELS {
            let series = InferenceMode::ALL
                .iter()
                .map(|&mode| {
                    let points = params
                        .bit_error_rates
                        .iter()
                        .map(|&ber| (ber, results.mean(&cell_id(panel, mode, ber))))
                        .collect();
                    Series::new(mode.label(), points)
                })
                .collect();
            figures.push(FigureData::lines(
                panel,
                format!("{kind} inference under faults"),
                "success rate (%) vs BER",
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
    fn mode_labels_and_kinds_match() {
        assert_eq!(InferenceMode::Transient1.label(), "Transient-1");
        assert_eq!(InferenceMode::StuckAt1.fault_kind(), FaultKind::StuckAt1);
        assert_eq!(InferenceMode::TransientM.fault_kind(), FaultKind::BitFlip);
        assert_eq!(InferenceMode::ALL.len(), 4);
    }

    #[test]
    fn sweep_declares_a_cell_per_policy_mode_and_ber() {
        let sweep = sweep(Scale::Smoke);
        let bers = Scale::Smoke.grid().bit_error_rates.len();
        assert_eq!(sweep.len(), 2 * 4 * bers);
        assert!(sweep.cell_specs().all(|s| s.repetitions() == Scale::Smoke.grid().repetitions));
    }
}
