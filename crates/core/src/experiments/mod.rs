//! Experiment drivers: one module per figure of the paper's evaluation.
//!
//! Every driver declares its figure as a [`Sweep`]: a set of campaign cells
//! (stable id, axis labels, repetitions, trial closure) plus a fold from the
//! per-cell summaries to [`crate::FigureData`]. [`sweep_builders`] is the
//! one registry. The `figures` binary in `navft-bench` executes all
//! requested sweeps on one shared work-stealing scheduler
//! ([`crate::sweep::run_sweeps`]) with resumable JSONL artifacts; to run one
//! figure standalone, collect its sweep
//! (`fig5::sweep(scale).collect(scale.threads())`, see [`Sweep::collect`]).

pub mod ablation;
pub mod fig10;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fig9;

use crate::sweep::Sweep;
use crate::Scale;

/// Formats a bit error rate the way the paper labels its axes.
pub(crate) fn ber_label(ber: f64) -> String {
    if ber == 0.0 {
        "0".to_string()
    } else if ber >= 0.001 {
        format!("{:.1}%", ber * 100.0)
    } else {
        format!("{ber:.0e}")
    }
}

/// A sweep builder: maps a campaign scale to the figure's declarative sweep.
pub type SweepBuilder = fn(Scale) -> Sweep;

/// Every figure's sweep builder, keyed by figure id, in evaluation order.
///
/// This is the complete per-experiment index used by the `figures` binary:
/// `figures all` schedules every entry's cells on one shared work queue,
/// `figures <id>` a single figure's.
pub fn sweep_builders() -> Vec<(&'static str, SweepBuilder)> {
    vec![
        ("fig2", fig2::training_sweep as SweepBuilder),
        ("fig2hist", fig2::histogram_sweep),
        ("fig3", fig3::sweep),
        ("fig4", fig4::sweep),
        ("fig5", fig5::sweep),
        ("fig7a", fig7::training_faults_sweep),
        ("fig7b", fig7::environment_sweep),
        ("fig7c", fig7::location_sweep),
        ("fig7d", fig7::layer_sweep),
        ("fig7e", fig7::data_type_sweep),
        ("fig8", fig8::sweep),
        ("fig9", fig9::sweep),
        ("fig10", fig10::sweep),
        ("ablation", ablation::sweep),
    ]
}

/// Builds every figure's sweep at the given scale.
pub fn all_sweeps(scale: Scale) -> Vec<Sweep> {
    sweep_builders().into_iter().map(|(_, build)| build(scale)).collect()
}

/// The list of valid figure identifiers.
pub fn figure_ids() -> Vec<&'static str> {
    sweep_builders().into_iter().map(|(id, _)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ber_labels_match_paper_axis_style() {
        assert_eq!(ber_label(0.0), "0");
        assert_eq!(ber_label(0.001), "0.1%");
        assert_eq!(ber_label(0.01), "1.0%");
        assert_eq!(ber_label(1e-4), "1e-4");
        assert_eq!(ber_label(1e-5), "1e-5");
    }

    #[test]
    fn figure_index_covers_every_evaluation_figure() {
        let ids = figure_ids();
        for expected in [
            "fig2", "fig3", "fig4", "fig5", "fig7a", "fig7b", "fig7c", "fig7d", "fig7e", "fig8",
            "fig9", "fig10",
        ] {
            assert!(ids.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn built_sweeps_carry_their_figure_ids() {
        let sweeps = all_sweeps(Scale::Smoke);
        let ids: Vec<&str> = sweeps.iter().map(|s| s.id()).collect();
        assert_eq!(ids, figure_ids());
        // Every sweep (bar none) declares at least one campaign cell.
        for sweep in &sweeps {
            assert!(!sweep.is_empty(), "{} has no cells", sweep.id());
            assert_eq!(sweep.scale(), Scale::Smoke);
        }
    }
}
