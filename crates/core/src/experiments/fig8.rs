//! Fig. 8 — Grid World training heatmaps with the adaptive exploration-rate
//! adjustment (the training-time mitigation) enabled, for direct comparison
//! against Fig. 2: the cells are Fig. 2's, declared by the same
//! `fig2::heatmap_sweep`, with this module's mitigated trial.

use navft_fault::FaultKind;
use navft_nn::EngineConfig;

use crate::experiments::fig2;
use crate::grid_policies::{train_under_fault, PolicyKind};
use crate::sweep::Sweep;
use crate::{GridParams, Scale};

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
    let mut adjuster = kind.exploration_adjuster();
    let observer = |episode, trace: &_, epsilon: &mut _| adjuster.observe(episode, trace, epsilon);
    let run =
        train_under_fault(kind, params, fault_kind, ber, episode, seed, 0xF18, observer, engine);
    run.final_success_rate * 100.0
}

/// Fig. 8 as a declarative sweep: the Fig. 2 grid with the mitigation
/// attached to every training run.
pub fn sweep(scale: Scale) -> Sweep {
    fig2::heatmap_sweep(
        scale,
        "fig8",
        PANELS,
        mitigated_training_success,
        "transient faults with exploration-rate mitigation",
        " with mitigation",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_mirrors_the_fig2_cell_grid() {
        // Fig. 8 declares exactly Fig. 2's cells, ids and labels in the same
        // order, with only the panel prefix and the sweep id changed — the
        // contract that lets the two figures compare cell for cell.
        let fig2 = fig2::training_sweep(Scale::Smoke);
        let fig8 = sweep(Scale::Smoke);
        assert_eq!((fig2.id(), fig8.id()), ("fig2", "fig8"));
        assert_eq!(fig2.len(), fig8.len());
        let renamed = |text: &str| text.replace("fig2a", "fig8a").replace("fig2c", "fig8b");
        for (ours, theirs) in fig8.cell_specs().zip(fig2.cell_specs()) {
            assert_ne!(ours.id(), theirs.id());
            assert_eq!(ours.id(), renamed(theirs.id()));
            let expected: Vec<(String, String)> =
                theirs.labels().iter().map(|(key, value)| (key.clone(), renamed(value))).collect();
            assert_eq!(ours.labels(), expected.as_slice());
            assert_eq!(ours.repetitions(), theirs.repetitions());
        }
    }
}
