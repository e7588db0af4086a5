//! `grid-campaign`: the paper's Grid World training-side study as a closed
//! batch job. Each trial trains a tabular or NN policy — clean, or under a
//! training-time [`FaultPlan`], with or without the exploration-rate
//! mitigation — and then evaluates it under an inference fault (the cells
//! mirror Fig. 5 and Fig. 8).

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use navft_core::grid_policies::{grid_dqn_config, grid_mlp, PolicyKind};
use navft_core::sweep::{CellSpec, Sweep};
use navft_core::{GridParams, Scale};
use navft_fault::{FaultKind, FaultSite, FaultTarget, InjectionSchedule, Injector};
use navft_gridworld::{GridWorld, ObstacleDensity};
use navft_mitigation::ExplorationAdjuster;
use navft_nn::EngineConfig;
use navft_qformat::QFormat;
use navft_rl::{
    evaluate_policy_discrete_batched, evaluate_tabular, trainer, DqnAgent, DummyVecEnv,
    EpsilonSchedule, FaultPlan, InferenceFaultMode, QTable, TabularAgent, TrainingTrace,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::campaign::{add_cell, facts_fold, Counters};
use crate::shims::{Role, TimedEnv, TimedVecEnv};
use crate::trace;

/// The fault a policy is trained under.
#[derive(Debug, Clone, Copy)]
enum TrainFault {
    Clean,
    /// A bit flip at `ber`, injected at `at` × the training length.
    Transient {
        ber: f64,
        at: f64,
    },
    /// Stuck-at faults at `ber` from the first episode.
    Stuck {
        kind: FaultKind,
        ber: f64,
    },
}

/// The inference fault modes of Fig. 5.
#[derive(Debug, Clone, Copy)]
enum InferFault {
    Transient1,
    TransientM,
    Stuck(FaultKind),
}

#[derive(Debug, Clone, Copy)]
struct GridCell {
    id: &'static str,
    train: TrainFault,
    mitigate: bool,
    infer: InferFault,
    infer_ber: f64,
}

/// Per policy kind: clean training (Fig. 5), then transient and stuck-at
/// training faults with and without the mitigation (Fig. 2 / Fig. 8).
const CELLS: [GridCell; 6] = [
    GridCell {
        id: "clean/transient-m",
        train: TrainFault::Clean,
        mitigate: false,
        infer: InferFault::TransientM,
        infer_ber: 0.005,
    },
    GridCell {
        id: "clean/stuck-at-1",
        train: TrainFault::Clean,
        mitigate: false,
        infer: InferFault::Stuck(FaultKind::StuckAt1),
        infer_ber: 0.002,
    },
    GridCell {
        id: "transient/unmitigated/transient-1",
        train: TrainFault::Transient { ber: 0.01, at: 0.3 },
        mitigate: false,
        infer: InferFault::Transient1,
        infer_ber: 0.005,
    },
    GridCell {
        id: "transient/mitigated/transient-1",
        train: TrainFault::Transient { ber: 0.01, at: 0.3 },
        mitigate: true,
        infer: InferFault::Transient1,
        infer_ber: 0.005,
    },
    GridCell {
        id: "stuck-at-0/mitigated/transient-m",
        train: TrainFault::Stuck { kind: FaultKind::StuckAt0, ber: 0.005 },
        mitigate: true,
        infer: InferFault::TransientM,
        infer_ber: 0.002,
    },
    GridCell {
        id: "stuck-at-1/unmitigated/stuck-at-0",
        train: TrainFault::Stuck { kind: FaultKind::StuckAt1, ber: 0.005 },
        mitigate: false,
        infer: InferFault::Stuck(FaultKind::StuckAt0),
        infer_ber: 0.002,
    },
];

const KINDS: [(PolicyKind, &str); 2] =
    [(PolicyKind::Tabular, "tabular"), (PolicyKind::Network, "nn")];

/// Repetitions per cell in one round.
const REPETITIONS: usize = 2;

/// Metrics per trial: eval success %, late training success %, mitigation
/// detections.
const ARITY: usize = 3;

/// Smoke-sized Grid World runs (150 episodes of ≤ 60 steps) with the smoke
/// evaluation of 30 episodes, one batch row each, as the figure experiments run
/// it.
fn params() -> GridParams {
    Scale::Smoke.grid()
}

fn sample(
    site: FaultSite,
    words: usize,
    ber: f64,
    kind: FaultKind,
    rng: &mut SmallRng,
    id: u64,
) -> Injector {
    let injector = trace::timed("fault.sample", id, || {
        Injector::sample(FaultTarget::new(site), words, QFormat::Q3_4, ber, kind, rng)
    });
    trace::count("fault.faults", injector.fault_count() as u64);
    injector
}

fn training_plan(
    cell: &GridCell,
    site: FaultSite,
    words: usize,
    params: &GridParams,
    rng: &mut SmallRng,
    id: u64,
) -> FaultPlan {
    match cell.train {
        TrainFault::Clean => FaultPlan::none(),
        TrainFault::Transient { ber, at } => {
            let episode =
                ((at * params.training_episodes as f64) as usize).min(params.training_episodes - 1);
            let injector = sample(site, words, ber, FaultKind::BitFlip, rng, id);
            FaultPlan::new(injector, InjectionSchedule::at_episode(episode))
        }
        TrainFault::Stuck { kind, ber } => {
            let injector = sample(site, words, ber, kind, rng, id);
            FaultPlan::new(injector, InjectionSchedule::from_start())
        }
    }
}

fn inference_fault(
    cell: &GridCell,
    site: FaultSite,
    words: usize,
    rng: &mut SmallRng,
    id: u64,
) -> InferenceFaultMode {
    let kind = match cell.infer {
        InferFault::Stuck(kind) => kind,
        InferFault::Transient1 | InferFault::TransientM => FaultKind::BitFlip,
    };
    let injector = sample(site, words, cell.infer_ber, kind, rng, id);
    match cell.infer {
        InferFault::Transient1 => InferenceFaultMode::TransientSingleStep(injector),
        InferFault::TransientM => InferenceFaultMode::TransientWholeEpisode(injector),
        InferFault::Stuck(_) => InferenceFaultMode::Permanent(injector),
    }
}

/// One trial: train under the cell's plan, then evaluate under its
/// inference fault.
fn trial(
    kind: PolicyKind,
    cell: &GridCell,
    params: &GridParams,
    seed: u64,
    engine: EngineConfig,
) -> Vec<f64> {
    let density = ObstacleDensity::Middle;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut eval_rng = SmallRng::seed_from_u64(seed ^ 0xE7A1);
    let mut world = TimedEnv::new(
        GridWorld::with_density(density).with_exploring_starts(seed ^ 0xE5),
        Role::Train,
    );
    // The NN policies' training steps are nearly all of a trial's time:
    // their decision ticks are the campaign's latency.
    if matches!(kind, PolicyKind::Network) {
        world = world.with_ticks();
    }
    let (states, actions) = (100, 4);
    let config = trainer::TrainingConfig::new(params.training_episodes, params.max_steps);
    let epsilon = EpsilonSchedule::for_training(params.epsilon_steady_episodes);
    let mut adjuster = cell.mitigate.then(|| match kind {
        PolicyKind::Tabular => ExplorationAdjuster::for_tabular(),
        PolicyKind::Network => ExplorationAdjuster::for_network(),
    });
    let observer = |episode: usize, history: &TrainingTrace, schedule: &mut EpsilonSchedule| {
        if let Some(adjuster) = adjuster.as_mut() {
            trace::leaf("mitigation.observe", || adjuster.observe(episode, history, schedule));
        }
    };
    let (history, success) = match kind {
        PolicyKind::Tabular => {
            let table =
                QTable::new(states, actions, QFormat::Q3_4).with_stochastic_rounding(seed ^ 0x51);
            let mut agent = TabularAgent::new(table, epsilon, 0.2, 0.95);
            let site = FaultSite::TabularBuffer;
            let plan = training_plan(cell, site, agent.table.len(), params, &mut rng, seed);
            let history = trace::timed("rl.train", seed, || {
                trainer::train_tabular(&mut world, &mut agent, config, &plan, &mut rng, observer)
            });
            let fault = inference_fault(cell, site, agent.table.len(), &mut rng, seed);
            let mut eval_world = TimedEnv::new(GridWorld::with_density(density), Role::Eval);
            let result = trace::timed("rl.eval", seed, || {
                evaluate_tabular(
                    &mut eval_world,
                    &agent.table,
                    params.eval_episodes,
                    params.max_steps,
                    &fault,
                    &mut eval_rng,
                )
            });
            (history, result.success_rate)
        }
        PolicyKind::Network => {
            let network = grid_mlp(states, actions, seed ^ 0x5EED);
            let mut agent = DqnAgent::new(network, &[states], epsilon, grid_dqn_config());
            let site = FaultSite::WeightBuffer;
            let words = agent.network().weight_count();
            let plan = training_plan(cell, site, words, params, &mut rng, seed);
            let history = trace::timed("rl.train", seed, || {
                trainer::train_dqn_discrete(
                    &mut world, &mut agent, config, &plan, &mut rng, observer,
                )
            });
            let fault = inference_fault(cell, site, words, &mut rng, seed);
            let width = params.eval_episodes.clamp(1, 64);
            let mut venv = TimedVecEnv::new(
                DummyVecEnv::from_prototype(&GridWorld::with_density(density), width),
                "gridworld.step",
                "gridworld.reset",
                "rl.eval_rows",
            );
            let result = trace::timed("rl.eval", seed, || {
                evaluate_policy_discrete_batched(
                    &mut venv,
                    agent.network(),
                    params.eval_episodes,
                    params.max_steps,
                    &fault,
                    &mut eval_rng,
                    engine,
                )
            });
            (history, result.success_rate)
        }
    };
    let detections = adjuster.map_or(0, |a| a.transient_detections() + a.permanent_detections());
    vec![success * 100.0, history.recent_success_rate(30) * 100.0, detections as f64]
}

/// The campaign: one sweep of 2 kinds × 6 cells × 2 repetitions.
pub fn build(
    round_seed: u64,
    keep: Option<&BTreeSet<String>>,
    counters: &Arc<Counters>,
) -> Vec<Sweep> {
    let params = Arc::new(params());
    let mut sweep = Sweep::new("grid-campaign", Scale::Smoke);
    for (kind, kind_id) in KINDS {
        for cell in CELLS {
            let spec = CellSpec::new(format!("{kind_id}/{}", cell.id), REPETITIONS)
                .with_seed(round_seed)
                .with_label("policy", kind_id)
                .with_label("mitigation", if cell.mitigate { "exploration" } else { "none" });
            let params = Arc::clone(&params);
            add_cell(&mut sweep, spec, keep, counters, ARITY, move |seed, engine| {
                trial(kind, &cell, &params, seed, engine)
            });
        }
    }
    facts_fold(&mut sweep, "grid campaign: evaluation success rate (%) per cell");
    vec![sweep]
}

/// Set-up: build a sweep and run one warm-up trial per policy kind
/// (first-touch allocations and page faults land here, outside the clock).
/// Its seed is fixed, so set-up work does not change with the run seed.
/// Returns its wall time in seconds.
pub fn setup() -> f64 {
    const WARMUP_SEED: u64 = 0xA11;
    let started = Instant::now();
    let counters = Arc::new(Counters::default());
    let sweeps = build(WARMUP_SEED, None, &counters);
    assert_eq!(sweeps[0].len(), KINDS.len() * CELLS.len());
    let params = params();
    for (kind, _) in KINDS {
        let warm = trial(kind, &CELLS[0], &params, WARMUP_SEED, EngineConfig::default());
        assert!(warm.iter().all(|m| m.is_finite()), "warm-up trial produced {warm:?}");
    }
    started.elapsed().as_secs_f64()
}
