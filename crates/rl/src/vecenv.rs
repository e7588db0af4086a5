//! Vectorized environments: B environment instances stepped in lockstep so
//! rollouts can drive the batched inference engine at full width.
//!
//! A [`VecEnv`] owns `width` independent episode rows. The rollout driver
//! ([`crate::rollout::rollout`]) resets and steps rows individually — rows
//! advance through *different* episodes at the same time, finished rows are
//! reassigned or drained raggedly — while every decision of every active row
//! comes from one shared batched forward pass per tick.
//!
//! [`DummyVecEnv`] and [`DummyVisionVecEnv`] are the in-process adapters
//! (the `dummy_vec_env` shape of RL libraries): a `Vec` of cloned
//! single-environment instances, one per row, stepped serially. They exist
//! to batch the *policy evaluation*, not the environment physics — the
//! environments here are cheap; the forward pass of each *distinct* row is
//! the cost. Rows whose hooks observe nothing and whose staged inputs are
//! bit-identical share one sweep row (see the [`rollout`](mod@crate::rollout)
//! module), so when every row flies the same trajectory — a static fault,
//! or none, on a reset-deterministic environment — a tick costs one forward
//! row plus `width` environment steps, and the steps dominate.
//!
//! # Reset determinism
//!
//! The bit-exactness contract of the vectorized evaluators requires the
//! prototype environment to be **reset-deterministic**: `reset()` must put
//! every clone into the same initial state and consume no shared randomness,
//! so that episode `e` unfolds identically whether it runs on a serial
//! loop's single instance or on any row of a vectorized batch. The
//! evaluation-time Grid World (no exploring starts) and the drone simulator
//! both qualify. A Grid World with exploring starts does not: each clone
//! would advance its own RNG copy. Evaluate it at width 1, where the one row
//! replays the serial loop on a single instance.

use navft_nn::Tensor;

use crate::{DiscreteEnvironment, VisionEnvironment};

/// The outcome of stepping one row of a [`VecEnv`].
#[derive(Debug, Clone)]
pub struct RowStep<O> {
    /// The row's next observation.
    pub observation: O,
    /// Reward obtained for the transition.
    pub reward: f32,
    /// Distance travelled during this step (vision tasks; `0.0` otherwise).
    pub distance: f32,
    /// Whether the row's episode terminated.
    pub terminal: bool,
    /// Whether a terminal transition reached the goal (discrete tasks;
    /// always `false` for vision tasks, which have no goal state).
    pub reached_goal: bool,
}

/// A batch of `width` environment instances stepped row by row.
///
/// Rows are independent: resetting or stepping one row never affects
/// another. See the module docs for the reset-determinism contract the
/// vectorized evaluators rely on.
pub trait VecEnv {
    /// The per-row observation type (`usize` state indices for discrete
    /// tasks, [`Tensor`] frames for vision tasks).
    type Obs;

    /// Number of rows (parallel episode slots).
    fn width(&self) -> usize;

    /// Number of discrete actions, shared by every row.
    fn num_actions(&self) -> usize;

    /// Shape of the policy input one row's observation encodes into.
    fn obs_shape(&self) -> Vec<usize>;

    /// Resets row `row` and returns its initial observation.
    fn reset_row(&mut self, row: usize) -> Self::Obs;

    /// Applies `action` to row `row` and returns the resulting transition.
    fn step_row(&mut self, row: usize, action: usize) -> RowStep<Self::Obs>;
}

/// A [`VecEnv`] over `width` clones of a [`DiscreteEnvironment`].
pub struct DummyVecEnv<E: DiscreteEnvironment> {
    envs: Vec<E>,
}

impl<E: DiscreteEnvironment> DummyVecEnv<E> {
    /// Wraps the given instances, one per row.
    ///
    /// # Panics
    ///
    /// Panics if `envs` is empty.
    pub fn new(envs: Vec<E>) -> DummyVecEnv<E> {
        assert!(!envs.is_empty(), "a vectorized environment needs at least one row");
        DummyVecEnv { envs }
    }

    /// `width` clones of a prototype environment, one per row.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn from_prototype(prototype: &E, width: usize) -> DummyVecEnv<E>
    where
        E: Clone,
    {
        assert!(width > 0, "a vectorized environment needs at least one row");
        DummyVecEnv::new((0..width).map(|_| prototype.clone()).collect())
    }
}

impl<E: DiscreteEnvironment> VecEnv for DummyVecEnv<E> {
    type Obs = usize;

    fn width(&self) -> usize {
        self.envs.len()
    }

    fn num_actions(&self) -> usize {
        self.envs[0].num_actions()
    }

    fn obs_shape(&self) -> Vec<usize> {
        vec![self.envs[0].num_states()]
    }

    fn reset_row(&mut self, row: usize) -> usize {
        self.envs[row].reset()
    }

    fn step_row(&mut self, row: usize, action: usize) -> RowStep<usize> {
        let transition = self.envs[row].step(action);
        RowStep {
            observation: transition.next_state,
            reward: transition.reward,
            distance: 0.0,
            terminal: transition.terminal,
            reached_goal: transition.reached_goal,
        }
    }
}

/// A [`VecEnv`] over `width` clones of a [`VisionEnvironment`].
pub struct DummyVisionVecEnv<E: VisionEnvironment> {
    envs: Vec<E>,
}

impl<E: VisionEnvironment> DummyVisionVecEnv<E> {
    /// Wraps the given instances, one per row.
    ///
    /// # Panics
    ///
    /// Panics if `envs` is empty.
    pub fn new(envs: Vec<E>) -> DummyVisionVecEnv<E> {
        assert!(!envs.is_empty(), "a vectorized environment needs at least one row");
        DummyVisionVecEnv { envs }
    }

    /// `width` clones of a prototype environment, one per row.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn from_prototype(prototype: &E, width: usize) -> DummyVisionVecEnv<E>
    where
        E: Clone,
    {
        assert!(width > 0, "a vectorized environment needs at least one row");
        DummyVisionVecEnv::new((0..width).map(|_| prototype.clone()).collect())
    }
}

impl<E: VisionEnvironment> VecEnv for DummyVisionVecEnv<E> {
    type Obs = Tensor;

    fn width(&self) -> usize {
        self.envs.len()
    }

    fn num_actions(&self) -> usize {
        self.envs[0].num_actions()
    }

    fn obs_shape(&self) -> Vec<usize> {
        self.envs[0].observation_shape().to_vec()
    }

    fn reset_row(&mut self, row: usize) -> Tensor {
        self.envs[row].reset()
    }

    fn step_row(&mut self, row: usize, action: usize) -> RowStep<Tensor> {
        let transition = self.envs[row].step(action);
        RowStep {
            observation: transition.observation,
            reward: transition.reward,
            distance: transition.distance,
            terminal: transition.terminal,
            // Vision tasks have no goal state: quality of flight is the
            // distance covered before the collision.
            reached_goal: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiscreteTransition;

    /// Two states; action 0 reaches the goal immediately.
    #[derive(Clone)]
    struct Hop {
        done: bool,
    }

    impl DiscreteEnvironment for Hop {
        fn num_states(&self) -> usize {
            2
        }
        fn num_actions(&self) -> usize {
            1
        }
        fn reset(&mut self) -> usize {
            self.done = false;
            0
        }
        fn step(&mut self, _action: usize) -> DiscreteTransition {
            self.done = true;
            DiscreteTransition { next_state: 1, reward: 1.0, terminal: true, reached_goal: true }
        }
    }

    #[test]
    fn rows_are_independent() {
        let mut venv = DummyVecEnv::from_prototype(&Hop { done: false }, 3);
        assert_eq!(venv.width(), 3);
        assert_eq!(venv.obs_shape(), vec![2]);
        assert_eq!(venv.reset_row(0), 0);
        assert_eq!(venv.reset_row(1), 0);
        let step = venv.step_row(1, 0);
        assert!(step.terminal && step.reached_goal);
        assert_eq!(step.distance, 0.0);
        // Row 0 is untouched by row 1's step.
        assert!(!venv.envs[0].done);
        assert!(venv.envs[1].done);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_width_is_rejected() {
        let _ = DummyVecEnv::from_prototype(&Hop { done: false }, 0);
    }
}
