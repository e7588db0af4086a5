//! Reinforcement-learning algorithms with fault-injection hooks.
//!
//! The paper studies how hardware faults affect *learning-based* navigation in
//! both training and inference. This crate provides the learning machinery:
//!
//! * Environments — the [`DiscreteEnvironment`] trait (Grid World, §4.1) and
//!   the [`VisionEnvironment`] trait (drone navigation, §4.2), implemented by
//!   the `navft-gridworld` and `navft-dronesim` crates.
//! * Policies — a quantized [`QTable`] with tabular Q-learning
//!   ([`TabularAgent`]) and a (Double) DQN agent ([`DqnAgent`]) over
//!   `navft-nn` networks with experience replay ([`ReplayBuffer`]). The
//!   buffer is struct-of-arrays: actions, rewards and terminal flags in
//!   parallel columns, and both observations of a transition in one
//!   lossless encoding that elides runs of `+0.0` (a one-hot Grid World
//!   state is three words). A learning step samples slot indices into a
//!   reused vector and decodes each observation straight into the tensor
//!   that stages it, so a warm [`DqnAgent::learn`] allocates nothing.
//! * Exploration — the decaying ε-greedy [`EpsilonSchedule`], deliberately
//!   adjustable at run time because the training-time mitigation of §5.1
//!   steers it.
//! * Fault wiring — [`FaultPlan`] binds a `navft-fault` injector and schedule
//!   to the training loops in [`trainer`]; [`eval`] defines the inference
//!   fault modes of the paper (Transient-1, Transient-M, permanent stuck-at)
//!   and evaluates tabular policies under them.
//! * Vectorized rollouts — the one network-policy evaluator. [`VecEnv`]
//!   steps B environment rows in lockstep and the [`rollout()`] driver
//!   evaluates every active row with **one** batched forward sweep per
//!   decision tick; the `*_batched` evaluators are bit-identical to a serial
//!   per-episode loop on every backend.
//! * Analysis — [`TrainingTrace`], [`EvalResult`] and the convergence helpers
//!   of [`convergence`].
//!
//! # Examples
//!
//! Train a tabular agent on a toy corridor and evaluate it fault-free:
//!
//! ```
//! use navft_rl::{
//!     evaluate_tabular, trainer, DiscreteEnvironment, DiscreteTransition, FaultPlan,
//!     InferenceFaultMode, TabularAgent,
//! };
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! struct Chain { position: usize }
//! impl DiscreteEnvironment for Chain {
//!     fn num_states(&self) -> usize { 4 }
//!     fn num_actions(&self) -> usize { 2 }
//!     fn reset(&mut self) -> usize { self.position = 0; 0 }
//!     fn step(&mut self, action: usize) -> DiscreteTransition {
//!         if action == 0 { self.position += 1 } else { self.position = self.position.saturating_sub(1) }
//!         let goal = self.position == 3;
//!         DiscreteTransition {
//!             next_state: self.position,
//!             reward: if goal { 1.0 } else { 0.0 },
//!             terminal: goal,
//!             reached_goal: goal,
//!         }
//!     }
//! }
//!
//! let mut env = Chain { position: 0 };
//! let mut agent = TabularAgent::for_grid_world(4, 2);
//! let mut rng = SmallRng::seed_from_u64(0);
//! trainer::train_tabular(
//!     &mut env,
//!     &mut agent,
//!     trainer::TrainingConfig::new(200, 20),
//!     &FaultPlan::none(),
//!     &mut rng,
//!     trainer::no_mitigation(),
//! );
//! let result = evaluate_tabular(&mut env, &agent.table, 20, 20, &InferenceFaultMode::None, &mut rng);
//! assert_eq!(result.success_rate, 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convergence;
pub mod eval;
pub mod rollout;
pub mod trainer;
pub mod vecenv;

mod dqn;
mod env;
mod exploration;
mod faultplan;
mod metrics;
mod replay;
mod tabular;

pub use convergence::episodes_to_converge;
pub use dqn::{DqnAgent, DqnConfig};
pub use env::{
    one_hot, one_hot_into, DiscreteEnvironment, DiscreteTransition, VisionEnvironment,
    VisionTransition,
};
pub use eval::{
    corrupt_network_weights, corrupt_policy_weights, evaluate_tabular, trace_policy_discrete,
    EvalElement, InferenceFaultMode,
};
pub use exploration::EpsilonSchedule;
pub use faultplan::FaultPlan;
pub use metrics::{EpisodeOutcome, EvalResult, TrainingTrace};
pub use replay::ReplayBuffer;
pub use rollout::{
    evaluate_policy_discrete_batched, evaluate_policy_vision_batched,
    evaluate_policy_vision_hooked_batched, rollout, EpisodeTape, RolloutObs,
};
pub use tabular::{QTable, TabularAgent};
pub use vecenv::{DummyVecEnv, DummyVisionVecEnv, RowStep, VecEnv};
