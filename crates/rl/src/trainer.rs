//! Training loops that weave together an agent, an environment and a
//! [`FaultPlan`], producing a [`TrainingTrace`].
//!
//! Every loop exposes an *episode observer* callback that runs at the end of
//! each episode with the trace so far and mutable access to the exploration
//! schedule. The paper's training-time mitigation (adaptive exploration-rate
//! adjustment, §5.1) plugs in through this observer without the trainer
//! knowing anything about mitigation.

use navft_nn::{Scratch, Tensor};
use rand::Rng;

use crate::{
    one_hot_into, DiscreteEnvironment, DqnAgent, EpisodeOutcome, EpsilonSchedule, FaultPlan,
    TabularAgent, TrainingTrace, VisionEnvironment,
};

/// An episode observer that does nothing — training without mitigation.
pub fn no_mitigation() -> impl FnMut(usize, &TrainingTrace, &mut EpsilonSchedule) {
    |_, _, _| {}
}

/// How long to train and how long each episode may run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainingConfig {
    /// Number of training episodes.
    pub episodes: usize,
    /// Maximum steps per episode before it is cut off.
    pub max_steps: usize,
}

impl TrainingConfig {
    /// Creates a configuration.
    pub fn new(episodes: usize, max_steps: usize) -> TrainingConfig {
        TrainingConfig { episodes, max_steps }
    }
}

impl Default for TrainingConfig {
    /// The Grid World default: 1000 episodes of at most 100 steps.
    fn default() -> Self {
        TrainingConfig { episodes: 1000, max_steps: 100 }
    }
}

/// Trains a tabular Q-learning agent under a fault plan.
///
/// The observer is called at the end of every episode with `(episode index,
/// trace so far, exploration schedule)`.
pub fn train_tabular<E, R, O>(
    env: &mut E,
    agent: &mut TabularAgent,
    config: TrainingConfig,
    plan: &FaultPlan,
    rng: &mut R,
    mut observer: O,
) -> TrainingTrace
where
    E: DiscreteEnvironment,
    R: Rng + ?Sized,
    O: FnMut(usize, &TrainingTrace, &mut EpsilonSchedule),
{
    let mut trace = TrainingTrace::new();
    for episode in 0..config.episodes {
        plan.on_episode_start(episode, agent.table.values_mut());
        let epsilon_at_start = agent.epsilon.epsilon();

        let mut state = env.reset();
        let mut outcome = EpisodeOutcome::empty();
        let (alpha, gamma) = (agent.alpha(), agent.gamma());
        let mut episode_transitions = Vec::with_capacity(config.max_steps);
        for _ in 0..config.max_steps {
            let action = agent.act(state, rng);
            let transition = env.step(action);
            agent.table.update(
                state,
                action,
                transition.reward,
                transition.next_state,
                transition.terminal,
                alpha,
                gamma,
            );
            plan.after_update(episode, agent.table.values_mut());
            episode_transitions.push((state, action, transition));
            outcome.cumulative_reward += transition.reward;
            outcome.steps += 1;
            state = transition.next_state;
            if transition.terminal {
                outcome.reached_goal = transition.reached_goal;
                break;
            }
        }
        // Backward replay: re-apply the episode's Bellman backups in reverse
        // order so that a goal discovery propagates its value down the whole
        // visited path within one episode (a standard tabular speed-up; the
        // stored table stays 8-bit quantized throughout).
        for (s, a, t) in episode_transitions.iter().rev() {
            agent.table.update(*s, *a, t.reward, t.next_state, t.terminal, alpha, gamma);
            plan.after_update(episode, agent.table.values_mut());
        }

        trace.push(outcome, epsilon_at_start);
        agent.epsilon.advance_episode();
        observer(episode, &trace, &mut agent.epsilon);
    }
    trace
}

/// Trains a DQN agent on a discrete-state environment (states are one-hot
/// encoded) under a fault plan.
pub fn train_dqn_discrete<E, R, O>(
    env: &mut E,
    agent: &mut DqnAgent,
    config: TrainingConfig,
    plan: &FaultPlan,
    rng: &mut R,
    mut observer: O,
) -> TrainingTrace
where
    E: DiscreteEnvironment,
    R: Rng + ?Sized,
    O: FnMut(usize, &TrainingTrace, &mut EpsilonSchedule),
{
    let num_states = env.num_states();
    let mut trace = TrainingTrace::new();
    // One scratch and two encoding buffers serve the whole training run; the
    // per-step action selection allocates nothing once they are warm.
    let mut scratch = Scratch::new();
    let mut encoded = Tensor::zeros(&[num_states]);
    let mut next_encoded = Tensor::zeros(&[num_states]);
    for episode in 0..config.episodes {
        plan.on_episode_start_network(episode, agent.network_mut());
        let epsilon_at_start = agent.epsilon.epsilon();

        let mut state = env.reset();
        let mut outcome = EpisodeOutcome::empty();
        for _ in 0..config.max_steps {
            one_hot_into(state, num_states, &mut encoded);
            let action = agent.act(&encoded, rng, &mut scratch);
            let transition = env.step(action);
            one_hot_into(transition.next_state, num_states, &mut next_encoded);
            agent.observe(&encoded, action, transition.reward, &next_encoded, transition.terminal);
            agent.learn(rng);
            plan.after_update_network(episode, agent.network_mut());
            outcome.cumulative_reward += transition.reward;
            outcome.steps += 1;
            state = transition.next_state;
            if transition.terminal {
                outcome.reached_goal = transition.reached_goal;
                break;
            }
        }

        trace.push(outcome, epsilon_at_start);
        agent.end_episode();
        observer(episode, &trace, &mut agent.epsilon);
    }
    trace
}

/// Fine-tunes a DQN agent on a vision environment (the drone's online
/// transfer-learning stage) under a fault plan.
///
/// Distances travelled per episode land in [`TrainingTrace::distances`]; a
/// collision terminates the episode.
pub fn train_dqn_vision<E, R, O>(
    env: &mut E,
    agent: &mut DqnAgent,
    config: TrainingConfig,
    plan: &FaultPlan,
    rng: &mut R,
    mut observer: O,
) -> TrainingTrace
where
    E: VisionEnvironment,
    R: Rng + ?Sized,
    O: FnMut(usize, &TrainingTrace, &mut EpsilonSchedule),
{
    let mut trace = TrainingTrace::new();
    // One scratch serves the action selection of the whole fine-tuning run.
    let mut scratch = Scratch::new();
    for episode in 0..config.episodes {
        plan.on_episode_start_network(episode, agent.network_mut());
        let epsilon_at_start = agent.epsilon.epsilon();

        let mut observation = env.reset();
        let mut outcome = EpisodeOutcome::empty();
        for _ in 0..config.max_steps {
            let action = agent.act(&observation, rng, &mut scratch);
            let transition = env.step(action);
            agent.observe(
                &observation,
                action,
                transition.reward,
                &transition.observation,
                transition.terminal,
            );
            agent.learn(rng);
            plan.after_update_network(episode, agent.network_mut());
            outcome.cumulative_reward += transition.reward;
            outcome.distance += transition.distance;
            outcome.steps += 1;
            observation = transition.observation;
            if transition.terminal {
                break;
            }
        }

        trace.push(outcome, epsilon_at_start);
        agent.end_episode();
        observer(episode, &trace, &mut agent.epsilon);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiscreteTransition, DqnConfig, VisionTransition};
    use navft_nn::{mlp, Tensor};
    use navft_qformat::QFormat;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A 1-D corridor of `n` cells; the goal is the right-most cell and a
    /// pit (failure) is the left-most cell.
    struct Corridor {
        n: usize,
        position: usize,
    }

    impl Corridor {
        fn new(n: usize) -> Corridor {
            Corridor { n, position: n / 2 }
        }
    }

    impl DiscreteEnvironment for Corridor {
        fn num_states(&self) -> usize {
            self.n
        }
        fn num_actions(&self) -> usize {
            2
        }
        fn reset(&mut self) -> usize {
            self.position = self.n / 2;
            self.position
        }
        fn step(&mut self, action: usize) -> DiscreteTransition {
            if action == 0 {
                self.position = (self.position + 1).min(self.n - 1);
            } else {
                self.position = self.position.saturating_sub(1);
            }
            let reached_goal = self.position == self.n - 1;
            let fell = self.position == 0;
            DiscreteTransition {
                next_state: self.position,
                reward: if reached_goal {
                    1.0
                } else if fell {
                    -1.0
                } else {
                    0.0
                },
                terminal: reached_goal || fell,
                reached_goal,
            }
        }
    }

    /// A trivially simple vision environment: a 1×4×4 observation whose mean
    /// brightness encodes the distance to a wall; action 0 flies forward.
    struct Hallway {
        steps_left: usize,
    }

    impl VisionEnvironment for Hallway {
        fn observation_shape(&self) -> [usize; 3] {
            [1, 4, 4]
        }
        fn num_actions(&self) -> usize {
            3
        }
        fn reset(&mut self) -> Tensor {
            self.steps_left = 6;
            Tensor::full(&[1, 4, 4], 1.0)
        }
        fn step(&mut self, action: usize) -> VisionTransition {
            let progress = if action == 0 { 1.0 } else { 0.2 };
            self.steps_left = self.steps_left.saturating_sub(1);
            VisionTransition {
                observation: Tensor::full(&[1, 4, 4], self.steps_left as f32 / 6.0),
                reward: progress,
                terminal: self.steps_left == 0,
                distance: progress,
            }
        }
    }

    #[test]
    fn tabular_training_learns_the_corridor() {
        let mut env = Corridor::new(7);
        let mut agent = TabularAgent::for_grid_world(7, 2);
        let mut rng = SmallRng::seed_from_u64(0);
        let trace = train_tabular(
            &mut env,
            &mut agent,
            TrainingConfig::new(300, 50),
            &FaultPlan::none(),
            &mut rng,
            no_mitigation(),
        );
        assert_eq!(trace.len(), 300);
        assert!(trace.recent_success_rate(50) > 0.9, "late success rate too low");
        // Greedy policy should walk right from the middle.
        assert_eq!(agent.table.best_action(3), 0);
    }

    #[test]
    fn epsilon_history_is_recorded_and_decays() {
        let mut env = Corridor::new(5);
        let mut agent = TabularAgent::for_grid_world(5, 2);
        let mut rng = SmallRng::seed_from_u64(1);
        let trace = train_tabular(
            &mut env,
            &mut agent,
            TrainingConfig::new(50, 20),
            &FaultPlan::none(),
            &mut rng,
            no_mitigation(),
        );
        assert_eq!(trace.epsilons.len(), 50);
        assert!(trace.epsilons[0] > trace.epsilons[49]);
    }

    #[test]
    fn observer_can_boost_exploration() {
        let mut env = Corridor::new(5);
        let mut agent = TabularAgent::for_grid_world(5, 2);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut calls = 0usize;
        train_tabular(
            &mut env,
            &mut agent,
            TrainingConfig::new(10, 20),
            &FaultPlan::none(),
            &mut rng,
            |_, _, eps| {
                calls += 1;
                eps.boost(1.0);
            },
        );
        assert_eq!(calls, 10);
        assert_eq!(agent.epsilon.epsilon(), 1.0);
    }

    #[test]
    fn stuck_at_fault_keeps_the_table_cell_pinned() {
        use navft_fault::{
            BitFault, FaultKind, FaultMap, FaultSite, FaultTarget, InjectionSchedule, Injector,
        };

        let mut env = Corridor::new(5);
        let mut agent = TabularAgent::for_grid_world(5, 2);
        // Stick the sign bit of the very first table word to 1: it must stay
        // negative throughout training.
        let map =
            FaultMap::from_faults(vec![BitFault { word: 0, bit: 7, kind: FaultKind::StuckAt1 }]);
        let injector =
            Injector::new(FaultTarget::new(FaultSite::TabularBuffer), QFormat::Q3_4, map);
        let plan = FaultPlan::new(injector, InjectionSchedule::from_start());
        let mut rng = SmallRng::seed_from_u64(3);
        train_tabular(
            &mut env,
            &mut agent,
            TrainingConfig::new(100, 20),
            &plan,
            &mut rng,
            no_mitigation(),
        );
        assert!(agent.table.values()[0] < 0.0, "stuck-at-1 sign bit must keep the cell negative");
    }

    #[test]
    fn dqn_training_on_the_corridor_improves_success() {
        let mut env = Corridor::new(5);
        let mut rng = SmallRng::seed_from_u64(4);
        let net = mlp(&[5, 32, 2], &mut rng);
        let mut agent = DqnAgent::new(
            net,
            &[5],
            EpsilonSchedule::for_training(40),
            DqnConfig { learning_rate: 0.1, ..DqnConfig::default() },
        );
        let trace = train_dqn_discrete(
            &mut env,
            &mut agent,
            TrainingConfig::new(150, 30),
            &FaultPlan::none(),
            &mut rng,
            no_mitigation(),
        );
        assert!(trace.recent_success_rate(30) > 0.8, "DQN should learn the corridor");
    }

    #[test]
    fn vision_training_records_distances() {
        let mut env = Hallway { steps_left: 6 };
        let mut rng = SmallRng::seed_from_u64(5);
        let net = mlp(&[16, 16, 3], &mut rng);
        let mut agent =
            DqnAgent::new(net, &[16], EpsilonSchedule::for_training(10), DqnConfig::default());
        let trace = train_dqn_vision(
            &mut env,
            &mut agent,
            TrainingConfig::new(8, 10),
            &FaultPlan::none(),
            &mut rng,
            no_mitigation(),
        );
        assert_eq!(trace.distances.len(), 8);
        assert!(trace.distances.iter().all(|&d| d > 0.0));
    }
}
