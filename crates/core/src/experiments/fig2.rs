//! Fig. 2 — the impact of transient and permanent faults on Grid World
//! *training* (heatmaps of final success rate), plus the trained-policy value
//! histograms and bit statistics (Fig. 2b/2d) that explain the stuck-at
//! asymmetry.

use std::sync::Arc;

use navft_fault::{FaultKind, FaultSite, FaultTarget, InjectionSchedule, Injector};
use navft_gridworld::ObstacleDensity;
use navft_nn::EngineConfig;
use navft_qformat::bitstats::{BitStats, ValueHistogram};
use navft_qformat::{QFormat, QValue};
use navft_rl::{trainer, FaultPlan};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::experiments::ber_label;
use crate::grid_policies::{train_clean_policy, train_grid_policy, PolicyKind};
use crate::sweep::{CellSpec, Sweep};
use crate::{FigureData, Heatmap, Scale, Series};

/// The two policy families and their figure panel ids.
const PANELS: [(PolicyKind, &str); 2] =
    [(PolicyKind::Tabular, "fig2a"), (PolicyKind::Network, "fig2c")];

/// The number of policy-storage words for a Grid World policy of `kind`
/// (before training, which is when campaign fault maps are sized).
pub fn policy_words(kind: PolicyKind) -> usize {
    match kind {
        PolicyKind::Tabular => 10 * 10 * 4,
        PolicyKind::Network => crate::grid_policies::grid_mlp(100, 4, 0).weight_count(),
    }
}

/// Trains a Grid World policy of `kind` under a fault of `fault_kind` at
/// `ber`, injected at `episode`, and returns the final success rate in
/// percent. `engine` runs the final policy evaluation.
pub fn faulty_training_success(
    kind: PolicyKind,
    fault_kind: FaultKind,
    ber: f64,
    episode: usize,
    params: &crate::GridParams,
    seed: u64,
    engine: EngineConfig,
) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let words = policy_words(kind);
    let injector = Injector::sample(
        FaultTarget::new(match kind {
            PolicyKind::Tabular => FaultSite::TabularBuffer,
            PolicyKind::Network => FaultSite::WeightBuffer,
        }),
        words,
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
    let run = train_grid_policy(
        kind,
        ObstacleDensity::Middle,
        params,
        &plan,
        seed ^ 0xF162,
        trainer::no_mitigation(),
        engine,
    );
    run.final_success_rate * 100.0
}

/// Cell id of a transient-heatmap cell (shared with the mirrored Fig. 8
/// grid so the two figures can never diverge on their id scheme).
pub(crate) fn transient_id(panel: &str, ber: f64, episode: usize) -> String {
    format!("{panel}/transient/ber={ber}/ep={episode}")
}

/// Cell id of a stuck-at sweep cell (shared with Fig. 8, see
/// [`transient_id`]).
pub(crate) fn stuck_id(panel: &str, fault_kind: FaultKind, ber: f64) -> String {
    format!("{panel}/{fault_kind}/ber={ber}")
}

/// Fig. 2a / 2c as a declarative sweep: transient (BER × injection episode)
/// heatmap cells plus stuck-at BER rows, for both policy families.
pub fn training_sweep(scale: Scale) -> Sweep {
    let params = Arc::new(scale.grid());
    let episodes = params.injection_episodes();
    let mut sweep = Sweep::new("fig2", scale);
    for (kind, panel) in PANELS {
        for &ber in &params.bit_error_rates {
            for &episode in &episodes {
                let spec = CellSpec::new(transient_id(panel, ber, episode), params.repetitions)
                    .with_label("figure", format!("{panel}-transient"))
                    .with_label("ber", ber.to_string())
                    .with_label("episode", episode.to_string());
                let params = Arc::clone(&params);
                sweep.cell(spec, move |seed, _rep, cfg| {
                    let fault = FaultKind::BitFlip;
                    faulty_training_success(kind, fault, ber, episode, &params, seed, cfg)
                });
            }
            for fault_kind in [FaultKind::StuckAt0, FaultKind::StuckAt1] {
                let spec = CellSpec::new(stuck_id(panel, fault_kind, ber), params.repetitions)
                    .with_label("figure", format!("{panel}-{fault_kind}"))
                    .with_label("ber", ber.to_string());
                let params = Arc::clone(&params);
                sweep.cell(spec, move |seed, _rep, cfg| {
                    faulty_training_success(kind, fault_kind, ber, 0, &params, seed, cfg)
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
                format!("{kind} training under transient bit flips"),
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
                    format!("{kind} training under {fault_kind} faults"),
                    "final success rate (%) vs BER",
                    vec![Series::new(fault_kind.to_string(), points)],
                ));
            }
        }
        figures
    });
    sweep
}

/// The fixed value-histogram shape shared by the trial and the fold.
fn histogram_shape() -> ValueHistogram {
    ValueHistogram::new(-8.0, 8.0, 16)
}

const HISTOGRAM_PANELS: [(PolicyKind, &str, &str); 2] = [
    (PolicyKind::Tabular, "fig2b", "trained tabular value distribution"),
    (PolicyKind::Network, "fig2d", "trained NN weight distribution"),
];

/// Fig. 2b / 2d as a declarative sweep: one single-repetition cell per
/// panel whose metrics are the bit statistics followed by the histogram bin
/// counts.
pub fn histogram_sweep(scale: Scale) -> Sweep {
    let params = Arc::new(scale.grid());
    let mut sweep = Sweep::new("fig2hist", scale);
    for (kind, panel, _) in HISTOGRAM_PANELS {
        let spec = CellSpec::new(format!("{panel}/histogram"), 1).with_label("figure", panel);
        let params = Arc::clone(&params);
        sweep.cell_metrics(spec, move |seed, _rep, cfg| {
            let run = train_clean_policy(kind, ObstacleDensity::Middle, &params, seed, cfg);
            let values: Vec<f32> = match kind {
                PolicyKind::Tabular => {
                    run.tabular.as_ref().expect("tabular run").table.values().to_vec()
                }
                PolicyKind::Network => {
                    run.network.as_ref().expect("network run").network().flat_weights()
                }
            };
            let words: Vec<QValue> =
                values.iter().map(|&v| QValue::quantize(v, QFormat::Q3_4)).collect();
            let stats = BitStats::from_values(&words);
            let mut histogram = histogram_shape();
            histogram.record_all(values.iter().copied());
            let mut metrics = vec![
                stats.zero_fraction() * 100.0,
                stats.one_fraction() * 100.0,
                stats.zero_to_one_ratio(),
                f64::from(histogram.max().unwrap_or(0.0)),
                f64::from(histogram.min().unwrap_or(0.0)),
            ];
            metrics.extend(histogram.counts().iter().map(|&c| c as f64));
            metrics
        });
    }
    sweep.fold(|results| {
        let mut figures = Vec::new();
        for (_, panel, title) in HISTOGRAM_PANELS {
            let metrics = results.metrics(&format!("{panel}/histogram"));
            let histogram = histogram_shape();
            let mut facts = vec![
                ("'0' bits (%)".to_string(), metrics[0].mean()),
                ("'1' bits (%)".to_string(), metrics[1].mean()),
                ("0-to-1 bit ratio".to_string(), metrics[2].mean()),
                ("max value".to_string(), metrics[3].mean()),
                ("min value".to_string(), metrics[4].mean()),
            ];
            for (bin, summary) in metrics[5..].iter().enumerate() {
                facts.push((
                    format!("histogram bin centred at {:+.1}", histogram.bin_center(bin)),
                    summary.mean(),
                ));
            }
            figures.push(FigureData::facts(panel, title, facts));
        }
        figures
    });
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_word_counts_are_plausible() {
        assert_eq!(policy_words(PolicyKind::Tabular), 400);
        assert!(policy_words(PolicyKind::Network) > 3000);
    }

    #[test]
    fn training_sweep_covers_transient_and_stuck_at_cells() {
        let params = Scale::Smoke.grid();
        let sweep = training_sweep(Scale::Smoke);
        let expected = 2
            * (params.bit_error_rates.len() * params.injection_points.len()
                + params.bit_error_rates.len() * 2);
        assert_eq!(sweep.len(), expected);
    }
}
