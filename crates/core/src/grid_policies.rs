//! Helpers for training Grid World policies (tabular and NN-based) under a
//! fault plan, and for measuring the resulting success rates.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use navft_gridworld::{GridWorld, ObstacleDensity};
use navft_nn::{mlp, EngineConfig, Network};
use navft_rl::{
    evaluate_policy_discrete_batched, evaluate_tabular, trainer, DiscreteEnvironment, DqnAgent,
    DqnConfig, DummyVecEnv, EpsilonSchedule, EvalResult, FaultPlan, InferenceFaultMode,
    TabularAgent, TrainingTrace,
};

use crate::GridParams;

/// Which Grid World policy family an experiment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Tabular Q-learning over a quantized Q-table.
    Tabular,
    /// Neural-network Q-function approximation (a small MLP).
    Network,
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PolicyKind::Tabular => "tabular",
            PolicyKind::Network => "NN",
        })
    }
}

/// The result of one Grid World training run.
#[derive(Debug, Clone)]
pub struct GridTrainingRun {
    /// The per-episode training trace.
    pub trace: TrainingTrace,
    /// The trained tabular agent, when [`PolicyKind::Tabular`] was used.
    pub tabular: Option<TabularAgent>,
    /// The trained DQN agent, when [`PolicyKind::Network`] was used.
    pub network: Option<DqnAgent>,
    /// Greedy success rate of the final policy, measured over
    /// [`GridParams::eval_episodes`] fault-free evaluation episodes.
    pub final_success_rate: f64,
}

/// The MLP topology used for the NN-based Grid World policy
/// (one-hot state → 32 hidden units → 4 action values), quantized to the
/// 8-bit Grid World format.
pub fn grid_mlp(num_states: usize, num_actions: usize, seed: u64) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut network = mlp(&[num_states, 32, num_actions], &mut rng);
    network.quantize_weights(navft_qformat::QFormat::Q3_4);
    network
}

/// The DQN configuration used for the Grid World NN policy.
pub fn grid_dqn_config() -> DqnConfig {
    DqnConfig {
        gamma: 0.95,
        learning_rate: 0.1,
        batch_size: 4,
        replay_capacity: 2048,
        target_sync_every: 10,
        double_dqn: false,
        trainable_from: 0,
    }
}

/// The rollout batch width used for Grid World policy evaluation: enough rows
/// to amortize the per-sweep engine overhead, capped so scratch buffers stay
/// small, and never wider than the episode count.
///
/// The width is derived from the experiment parameters alone (never from the
/// engine config), so artifacts are byte-identical at any thread count.
fn eval_batch_width(params: &GridParams) -> usize {
    params.eval_episodes.clamp(1, 64)
}

/// Trains a Grid World policy of the given kind under `plan` and returns the
/// trace, the trained agent and its final fault-free success rate.
///
/// `observer` is the per-episode mitigation hook (use
/// [`navft_rl::trainer::no_mitigation`] for unmitigated training). `engine`
/// runs the final policy evaluation, a vectorized rollout
/// ([`navft_rl::evaluate_policy_discrete_batched`]) whose result is the same
/// at any config.
pub fn train_grid_policy<O>(
    kind: PolicyKind,
    density: ObstacleDensity,
    params: &GridParams,
    plan: &FaultPlan,
    seed: u64,
    observer: O,
    engine: EngineConfig,
) -> GridTrainingRun
where
    O: FnMut(usize, &TrainingTrace, &mut EpsilonSchedule),
{
    // Training uses exploring starts so Q-learning reliably covers the grid;
    // evaluation always starts from the source cell.
    let mut world = GridWorld::with_density(density).with_exploring_starts(seed ^ 0xE5);
    let mut eval_world = GridWorld::with_density(density);
    let mut rng = SmallRng::seed_from_u64(seed);
    let config = trainer::TrainingConfig::new(params.training_episodes, params.max_steps);
    match kind {
        PolicyKind::Tabular => {
            let mut agent = TabularAgent::new(
                navft_rl::QTable::new(
                    world.num_states(),
                    world.num_actions(),
                    navft_qformat::QFormat::Q3_4,
                )
                .with_stochastic_rounding(seed ^ 0x51),
                EpsilonSchedule::for_training(params.epsilon_steady_episodes),
                0.2,
                0.95,
            );
            let trace =
                trainer::train_tabular(&mut world, &mut agent, config, plan, &mut rng, observer);
            let result = evaluate_tabular(
                &mut eval_world,
                &agent.table,
                params.eval_episodes,
                params.max_steps,
                &InferenceFaultMode::None,
                &mut rng,
            );
            GridTrainingRun {
                trace,
                tabular: Some(agent),
                network: None,
                final_success_rate: result.success_rate,
            }
        }
        PolicyKind::Network => {
            let network = grid_mlp(world.num_states(), world.num_actions(), seed ^ 0x5EED);
            let mut agent = DqnAgent::new(
                network,
                &[world.num_states()],
                EpsilonSchedule::for_training(params.epsilon_steady_episodes),
                grid_dqn_config(),
            );
            let trace = trainer::train_dqn_discrete(
                &mut world, &mut agent, config, plan, &mut rng, observer,
            );
            let mut venv = DummyVecEnv::from_prototype(&eval_world, eval_batch_width(params));
            let result = evaluate_policy_discrete_batched(
                &mut venv,
                agent.network(),
                params.eval_episodes,
                params.max_steps,
                &InferenceFaultMode::None,
                &mut rng,
                engine,
            );
            GridTrainingRun {
                trace,
                tabular: None,
                network: Some(agent),
                final_success_rate: result.success_rate,
            }
        }
    }
}

/// Trains a *clean* (fault-free) policy — the starting point of every
/// inference-time experiment. `engine` runs the final policy evaluation.
pub fn train_clean_policy(
    kind: PolicyKind,
    density: ObstacleDensity,
    params: &GridParams,
    seed: u64,
    engine: EngineConfig,
) -> GridTrainingRun {
    let observer = trainer::no_mitigation();
    train_grid_policy(kind, density, params, &FaultPlan::none(), seed, observer, engine)
}

/// Evaluates a trained run's policy under an inference fault mode.
///
/// Network policies are evaluated as a vectorized rollout: the episode
/// repetitions become batch rows of a [`DummyVecEnv`], so every decision step
/// is one [`navft_nn::NetworkBase::forward_batch_into_cfg`] sweep under
/// `engine`. The result is the same at any batch width or config.
pub fn evaluate_grid_policy(
    run: &GridTrainingRun,
    density: ObstacleDensity,
    params: &GridParams,
    fault: &InferenceFaultMode,
    seed: u64,
    engine: EngineConfig,
) -> EvalResult {
    let mut world = GridWorld::with_density(density);
    let mut rng = SmallRng::seed_from_u64(seed);
    if let Some(agent) = &run.tabular {
        evaluate_tabular(
            &mut world,
            &agent.table,
            params.eval_episodes,
            params.max_steps,
            fault,
            &mut rng,
        )
    } else if let Some(agent) = &run.network {
        let mut venv = DummyVecEnv::from_prototype(&world, eval_batch_width(params));
        evaluate_policy_discrete_batched(
            &mut venv,
            agent.network(),
            params.eval_episodes,
            params.max_steps,
            fault,
            &mut rng,
            engine,
        )
    } else {
        EvalResult::default()
    }
}

/// The number of policy-storage words of a trained run (Q-table entries or
/// network weights) — the population faults are sampled over.
pub fn policy_word_count(run: &GridTrainingRun) -> usize {
    if let Some(agent) = &run.tabular {
        agent.table.len()
    } else if let Some(agent) = &run.network {
        agent.network().weight_count()
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn tabular_smoke_training_produces_a_trace_and_policy() {
        let params = Scale::Smoke.grid();
        let run = train_clean_policy(
            PolicyKind::Tabular,
            ObstacleDensity::Low,
            &params,
            1,
            EngineConfig::default(),
        );
        assert_eq!(run.trace.len(), params.training_episodes);
        assert!(run.tabular.is_some());
        assert!((0.0..=1.0).contains(&run.final_success_rate));
        assert_eq!(policy_word_count(&run), 400);
    }

    #[test]
    #[ignore = "expensive: full-length Grid World training (run with --ignored)"]
    fn tabular_quick_training_converges() {
        let params = Scale::Quick.grid();
        let run = train_clean_policy(
            PolicyKind::Tabular,
            ObstacleDensity::Middle,
            &params,
            1,
            EngineConfig::default(),
        );
        assert!(run.final_success_rate > 0.9, "success {}", run.final_success_rate);
    }

    #[test]
    fn network_smoke_training_produces_a_policy() {
        let params = Scale::Smoke.grid();
        let run = train_clean_policy(
            PolicyKind::Network,
            ObstacleDensity::Low,
            &params,
            2,
            EngineConfig::default(),
        );
        assert!(run.network.is_some());
        assert!(policy_word_count(&run) > 1000);
    }

    #[test]
    fn policy_kind_display() {
        assert_eq!(PolicyKind::Tabular.to_string(), "tabular");
        assert_eq!(PolicyKind::Network.to_string(), "NN");
    }
}
