//! Helpers for training Grid World policies (tabular and NN-based) under a
//! fault plan, and for measuring the resulting success rates.
//!
//! [`train_under_fault`] is the one training-fault recipe of the figure
//! trials, and [`evaluate_grid_policy`] / [`evaluate_grid_network`] the one
//! evaluator every Grid World success rate goes through.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use navft_fault::{FaultKind, FaultSite, FaultTarget, InjectionSchedule, Injector};
use navft_gridworld::{GridWorld, ObstacleDensity};
use navft_mitigation::ExplorationAdjuster;
use navft_nn::{mlp, EngineConfig, Network};
use navft_qformat::QFormat;
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

impl PolicyKind {
    /// The buffer a fault in this policy's storage strikes: the Q-table of a
    /// tabular policy, the weight buffer of an NN policy.
    pub fn fault_target(self) -> FaultTarget {
        FaultTarget::new(match self {
            PolicyKind::Tabular => FaultSite::TabularBuffer,
            PolicyKind::Network => FaultSite::WeightBuffer,
        })
    }

    /// The number of policy-storage words (Q-table entries or MLP weights)
    /// of a Grid World policy of this kind — the population faults are
    /// sampled over. It depends on the topology alone, so fault maps can be
    /// sized before training.
    pub fn stored_words(self) -> usize {
        match self {
            PolicyKind::Tabular => 10 * 10 * 4,
            PolicyKind::Network => grid_mlp(100, 4, 0).weight_count(),
        }
    }

    /// The exploration-rate mitigation tuned for this policy family.
    pub fn exploration_adjuster(self) -> ExplorationAdjuster {
        match self {
            PolicyKind::Tabular => ExplorationAdjuster::for_tabular(),
            PolicyKind::Network => ExplorationAdjuster::for_network(),
        }
    }
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
    let mut rng = SmallRng::seed_from_u64(seed);
    let config = trainer::TrainingConfig::new(params.training_episodes, params.max_steps);
    let epsilon = EpsilonSchedule::for_training(params.epsilon_steady_episodes);
    let mut run = match kind {
        PolicyKind::Tabular => {
            let table =
                navft_rl::QTable::new(world.num_states(), world.num_actions(), QFormat::Q3_4)
                    .with_stochastic_rounding(seed ^ 0x51);
            let mut agent = TabularAgent::new(table, epsilon, 0.2, 0.95);
            let trace =
                trainer::train_tabular(&mut world, &mut agent, config, plan, &mut rng, observer);
            GridTrainingRun { trace, tabular: Some(agent), network: None, final_success_rate: 0.0 }
        }
        PolicyKind::Network => {
            let network = grid_mlp(world.num_states(), world.num_actions(), seed ^ 0x5EED);
            let mut agent =
                DqnAgent::new(network, &[world.num_states()], epsilon, grid_dqn_config());
            let trace = trainer::train_dqn_discrete(
                &mut world, &mut agent, config, plan, &mut rng, observer,
            );
            GridTrainingRun { trace, tabular: None, network: Some(agent), final_success_rate: 0.0 }
        }
    };
    let clean = InferenceFaultMode::None;
    run.final_success_rate =
        evaluate_grid_policy(&run, density, params, &clean, &mut rng, engine).success_rate;
    run
}

/// Trains a policy of `kind` in the middle-density world under one
/// training-time fault: the recipe every Grid World training-fault trial
/// (Figs. 2, 3, 4, 8 and 9 and the mitigation ablations) shares.
///
/// The fault map holds `fault_kind` faults at `ber` over the policy's
/// [`PolicyKind::stored_words`] `Q(1,3,4)` words in its
/// [`PolicyKind::fault_target`], drawn from a generator seeded with `seed`;
/// [`InjectionSchedule::for_fault`] strikes a transient flip at `episode`
/// and a permanent defect from the start. Training and the final evaluation
/// are seeded with `seed ^ salt`, the caller's figure constant. `observer`
/// is the per-episode mitigation hook, as in [`train_grid_policy`].
#[allow(clippy::too_many_arguments)]
pub fn train_under_fault<O>(
    kind: PolicyKind,
    params: &GridParams,
    fault_kind: FaultKind,
    ber: f64,
    episode: usize,
    seed: u64,
    salt: u64,
    observer: O,
    engine: EngineConfig,
) -> GridTrainingRun
where
    O: FnMut(usize, &TrainingTrace, &mut EpsilonSchedule),
{
    let plan =
        training_fault_plan(kind, fault_kind, ber, episode, &mut SmallRng::seed_from_u64(seed));
    let density = ObstacleDensity::Middle;
    train_grid_policy(kind, density, params, &plan, seed ^ salt, observer, engine)
}

/// The fault plan of [`train_under_fault`], sampled from `rng`.
fn training_fault_plan(
    kind: PolicyKind,
    fault_kind: FaultKind,
    ber: f64,
    episode: usize,
    rng: &mut SmallRng,
) -> FaultPlan {
    let words = kind.stored_words();
    let injector =
        Injector::sample(kind.fault_target(), words, QFormat::Q3_4, ber, fault_kind, rng);
    FaultPlan::new(injector, InjectionSchedule::for_fault(fault_kind, episode))
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

/// Evaluates a trained run's policy under an inference fault mode, drawing
/// the episodes' randomness from `rng`: a tabular policy episode by episode,
/// a network policy through [`evaluate_grid_network`].
pub fn evaluate_grid_policy(
    run: &GridTrainingRun,
    density: ObstacleDensity,
    params: &GridParams,
    fault: &InferenceFaultMode,
    rng: &mut SmallRng,
    engine: EngineConfig,
) -> EvalResult {
    if let Some(agent) = &run.tabular {
        let mut world = GridWorld::with_density(density);
        let (episodes, max_steps) = (params.eval_episodes, params.max_steps);
        evaluate_tabular(&mut world, &agent.table, episodes, max_steps, fault, rng)
    } else if let Some(agent) = &run.network {
        evaluate_grid_network(agent.network(), density, params, fault, rng, engine)
    } else {
        EvalResult::default()
    }
}

/// Evaluates a Grid World network policy from the source cell over
/// [`GridParams::eval_episodes`] episodes as one vectorized rollout: the
/// episodes become batch rows of a [`DummyVecEnv`], so every decision step
/// is one [`navft_nn::NetworkBase::forward_batch_into_cfg`] sweep under
/// `engine`.
///
/// The batch width — enough rows to amortize the per-sweep engine overhead,
/// at most 64 so scratch buffers stay small — is derived from the
/// parameters alone, never from `engine`, and the result is the same at any
/// width or config, so artifacts are byte-identical at any thread count.
pub fn evaluate_grid_network(
    network: &Network,
    density: ObstacleDensity,
    params: &GridParams,
    fault: &InferenceFaultMode,
    rng: &mut SmallRng,
    engine: EngineConfig,
) -> EvalResult {
    let world = GridWorld::with_density(density);
    let mut venv = DummyVecEnv::from_prototype(&world, params.eval_episodes.clamp(1, 64));
    let (episodes, max_steps) = (params.eval_episodes, params.max_steps);
    evaluate_policy_discrete_batched(&mut venv, network, episodes, max_steps, fault, rng, engine)
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
        assert_eq!(run.tabular.as_ref().expect("tabular run").table.len(), 400);
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
        let agent = run.network.as_ref().expect("network run");
        assert_eq!(agent.network().weight_count(), PolicyKind::Network.stored_words());
    }

    #[test]
    fn fault_sites_follow_policy_kind() {
        assert_eq!(PolicyKind::Tabular.fault_target().site(), FaultSite::TabularBuffer);
        assert_eq!(PolicyKind::Network.fault_target().site(), FaultSite::WeightBuffer);
    }

    #[test]
    fn training_fault_recipe_samples_the_policy_words_and_schedules_by_kind() {
        let mlp_weights = grid_mlp(100, 4, 7).weight_count();
        assert!(mlp_weights > 3000);
        for (kind, words) in [(PolicyKind::Tabular, 400), (PolicyKind::Network, mlp_weights)] {
            // At BER 1 every bit of every stored word is faulty, so the map
            // spells out the word count the recipe sampled over.
            let mut rng = SmallRng::seed_from_u64(1);
            let plan = training_fault_plan(kind, FaultKind::BitFlip, 1.0, 3, &mut rng);
            let injector = plan.injector().expect("a faulty plan");
            assert_eq!(injector.target(), kind.fault_target());
            assert_eq!(injector.format(), QFormat::Q3_4);
            assert_eq!(injector.fault_count(), words * 8);
            let last = injector.map().faults().iter().map(|f| f.word).max();
            assert_eq!(last, Some(words - 1));

            // A permanent kind ignores the episode: its faults are in place
            // from episode 0 and re-enforced after every update before the
            // episode it was given.
            for (fault_kind, value) in [(FaultKind::StuckAt0, -1.0f32), (FaultKind::StuckAt1, 0.0)]
            {
                let plan = training_fault_plan(kind, fault_kind, 0.01, 9, &mut rng);
                let clean = vec![value; words];
                let mut buffer = clean.clone();
                plan.on_episode_start(0, &mut buffer);
                assert_ne!(buffer, clean, "{fault_kind} at episode 0");
                let mut buffer = clean.clone();
                plan.after_update(3, &mut buffer);
                assert_ne!(buffer, clean, "{fault_kind} after an update at episode 3");
            }

            // A transient kind strikes at its episode and at no other.
            let plan = training_fault_plan(kind, FaultKind::BitFlip, 0.01, 9, &mut rng);
            let clean = vec![0.5f32; words];
            for episode in 0..20 {
                let mut buffer = clean.clone();
                plan.on_episode_start(episode, &mut buffer);
                plan.after_update(episode, &mut buffer);
                assert_eq!(buffer != clean, episode == 9, "episode {episode}");
            }
        }
    }

    #[test]
    fn policy_kind_display() {
        assert_eq!(PolicyKind::Tabular.to_string(), "tabular");
        assert_eq!(PolicyKind::Network.to_string(), "NN");
    }
}
