use rand::Rng;

use navft_qformat::{QFormat, QValue};

use crate::EpsilonSchedule;

/// A quantized Q-table of `|S| × |A|` action values.
///
/// Every write is snapped to the table's fixed-point format, so the stored
/// buffer is bit-exact with what an 8-bit accelerator memory would hold — the
/// precondition for meaningful bit-level fault injection.
///
/// # Examples
///
/// ```
/// use navft_qformat::QFormat;
/// use navft_rl::QTable;
///
/// let mut table = QTable::new(100, 4, QFormat::Q3_4);
/// table.set(3, 1, 0.7);
/// assert_eq!(table.q(3, 1), 0.6875); // snapped to the Q(1,3,4) grid
/// assert_eq!(table.best_action(3), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QTable {
    num_states: usize,
    num_actions: usize,
    format: QFormat,
    values: Vec<f32>,
    rounding: Option<u64>,
}

impl QTable {
    /// Creates a zero-initialised table.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(num_states: usize, num_actions: usize, format: QFormat) -> QTable {
        assert!(num_states > 0 && num_actions > 0, "Q-table dimensions must be non-zero");
        QTable {
            num_states,
            num_actions,
            format,
            values: vec![0.0; num_states * num_actions],
            rounding: None,
        }
    }

    /// Switches writes to *stochastic rounding* seeded by `seed`.
    ///
    /// Low-precision training needs it: with round-to-nearest, Bellman
    /// increments smaller than half the 8-bit resolution are silently lost
    /// and Q-values can never propagate along long paths. Stochastic rounding
    /// preserves the update in expectation while the stored words remain
    /// bit-exact 8-bit values, which is the standard low-precision training
    /// practice the paper's quantized policies rely on.
    pub fn with_stochastic_rounding(mut self, seed: u64) -> QTable {
        self.rounding = Some(seed | 1);
        self
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of actions.
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// The fixed-point format the table is stored in.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Number of stored words (`|S| × |A|`).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The Q-value of `(state, action)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn q(&self, state: usize, action: usize) -> f32 {
        self.values[self.index(state, action)]
    }

    /// Sets the Q-value of `(state, action)`, quantized to the table format.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set(&mut self, state: usize, action: usize, value: f32) {
        let i = self.index(state, action);
        self.values[i] = match self.rounding.as_mut() {
            None => QValue::quantize(value, self.format).to_f32(),
            Some(state) => {
                // xorshift64* pseudo-random draw for the rounding decision.
                *state ^= *state << 13;
                *state ^= *state >> 7;
                *state ^= *state << 17;
                let draw = (*state >> 40) as f32 / (1u64 << 24) as f32;
                let scaled = value * (2.0f32).powi(i32::from(self.format.frac_bits()));
                let floor = scaled.floor();
                let raw = if (scaled - floor) > draw { floor as i32 + 1 } else { floor as i32 };
                QValue::from_raw(raw, self.format).to_f32()
            }
        };
    }

    /// The greedy action in `state` (ties resolve to the lowest index).
    pub fn best_action(&self, state: usize) -> usize {
        let row = &self.values[state * self.num_actions..(state + 1) * self.num_actions];
        let mut best = 0;
        for (a, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = a;
            }
        }
        best
    }

    /// The maximum Q-value in `state`.
    pub fn max_q(&self, state: usize) -> f32 {
        let row = &self.values[state * self.num_actions..(state + 1) * self.num_actions];
        row.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Applies one Q-learning Bellman backup (Eq. 4 of the paper):
    /// `Q(s,a) ← Q(s,a) + α (r + γ maxₐ' Q(s',a') − Q(s,a))`.
    ///
    /// For terminal transitions the bootstrap term is dropped.
    // The arguments mirror the terms of the paper's update equation.
    #[allow(clippy::too_many_arguments)]
    pub fn update(
        &mut self,
        state: usize,
        action: usize,
        reward: f32,
        next_state: usize,
        terminal: bool,
        alpha: f32,
        gamma: f32,
    ) {
        let bootstrap = if terminal { 0.0 } else { gamma * self.max_q(next_state) };
        let target = reward + bootstrap;
        let current = self.q(state, action);
        self.set(state, action, current + alpha * (target - current));
    }

    /// The raw value buffer — the fault-injection surface of the tabular
    /// policy.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The raw value buffer, mutably.
    ///
    /// Values written here are *not* re-quantized; fault injectors write
    /// exact dequantized faulty words, which are representable by
    /// construction.
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }

    fn index(&self, state: usize, action: usize) -> usize {
        assert!(state < self.num_states, "state {state} out of range");
        assert!(action < self.num_actions, "action {action} out of range");
        state * self.num_actions + action
    }
}

/// A tabular Q-learning agent with a decaying ε-greedy behaviour policy.
#[derive(Debug, Clone, PartialEq)]
pub struct TabularAgent {
    /// The learned Q-table.
    pub table: QTable,
    /// The exploration schedule.
    pub epsilon: EpsilonSchedule,
    alpha: f32,
    gamma: f32,
}

impl TabularAgent {
    /// Creates an agent with the given learning rate `alpha` and discount
    /// `gamma`.
    pub fn new(table: QTable, epsilon: EpsilonSchedule, alpha: f32, gamma: f32) -> TabularAgent {
        TabularAgent { table, epsilon, alpha, gamma }
    }

    /// The agent configured as in the Grid World experiments: 8-bit Q-table
    /// written with stochastic rounding, α = 0.2, γ = 0.95, steady
    /// exploitation after 100 episodes.
    pub fn for_grid_world(num_states: usize, num_actions: usize) -> TabularAgent {
        TabularAgent::new(
            QTable::new(num_states, num_actions, QFormat::Q3_4).with_stochastic_rounding(0x9_7AB1E),
            EpsilonSchedule::for_training(100),
            0.2,
            0.95,
        )
    }

    /// The learning rate.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// The discount factor.
    pub fn gamma(&self) -> f32 {
        self.gamma
    }

    /// Chooses an action ε-greedily, breaking ties among equal-valued greedy
    /// actions uniformly at random (otherwise unvisited states would always
    /// pick action 0 once exploitation starts).
    pub fn act<R: Rng + ?Sized>(&self, state: usize, rng: &mut R) -> usize {
        if rng.gen_bool(self.epsilon.epsilon().clamp(0.0, 1.0)) {
            return rng.gen_range(0..self.table.num_actions());
        }
        let best = self.table.max_q(state);
        let ties: Vec<usize> = (0..self.table.num_actions())
            .filter(|&a| (self.table.q(state, a) - best).abs() < f32::EPSILON)
            .collect();
        ties[rng.gen_range(0..ties.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{no_mitigation, train_tabular, TrainingConfig};
    use crate::{DiscreteEnvironment, DiscreteTransition, FaultPlan};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    struct TwoStep {
        state: usize,
    }

    /// A two-state chain: action 1 in state 0 reaches the goal (state 1).
    impl DiscreteEnvironment for TwoStep {
        fn num_states(&self) -> usize {
            2
        }
        fn num_actions(&self) -> usize {
            2
        }
        fn reset(&mut self) -> usize {
            self.state = 0;
            0
        }
        fn step(&mut self, action: usize) -> DiscreteTransition {
            if action == 1 {
                self.state = 1;
                DiscreteTransition {
                    next_state: 1,
                    reward: 1.0,
                    terminal: true,
                    reached_goal: true,
                }
            } else {
                DiscreteTransition {
                    next_state: 0,
                    reward: 0.0,
                    terminal: false,
                    reached_goal: false,
                }
            }
        }
    }

    #[test]
    fn q_values_are_quantized_on_write() {
        let mut table = QTable::new(4, 2, QFormat::Q3_4);
        table.set(0, 0, 0.33);
        assert_eq!(table.q(0, 0), 0.3125);
        table.set(0, 1, 100.0);
        assert_eq!(table.q(0, 1), QFormat::Q3_4.max_value());
    }

    #[test]
    fn best_action_and_max_q() {
        let mut table = QTable::new(2, 3, QFormat::Q4_11);
        table.set(1, 0, 0.5);
        table.set(1, 2, 0.875);
        assert_eq!(table.best_action(1), 2);
        assert_eq!(table.max_q(1), 0.875);
        assert_eq!(table.best_action(0), 0);
    }

    #[test]
    fn bellman_update_moves_toward_target() {
        let mut table = QTable::new(2, 2, QFormat::Q4_11);
        table.set(1, 0, 1.0);
        table.update(0, 0, 0.0, 1, false, 0.5, 0.9);
        // target = 0 + 0.9 * 1.0 = 0.9; new Q = 0 + 0.5 * 0.9 = 0.45
        assert!((table.q(0, 0) - 0.45).abs() < 0.01);

        let mut terminal = QTable::new(2, 2, QFormat::Q4_11);
        terminal.update(0, 1, 1.0, 1, true, 0.5, 0.9);
        assert!((terminal.q(0, 1) - 0.5).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_state_panics() {
        let table = QTable::new(2, 2, QFormat::Q3_4);
        let _ = table.q(2, 0);
    }

    #[test]
    fn values_mut_exposes_the_raw_buffer() {
        let mut table = QTable::new(2, 2, QFormat::Q3_4);
        table.values_mut()[3] = -8.0;
        assert_eq!(table.q(1, 1), -8.0);
        assert_eq!(table.values().len(), 4);
    }

    #[test]
    fn agent_learns_the_two_step_task() {
        let mut env = TwoStep { state: 0 };
        let mut agent = TabularAgent::for_grid_world(2, 2);
        let mut rng = SmallRng::seed_from_u64(0);
        let config = TrainingConfig::new(200, 20);
        train_tabular(&mut env, &mut agent, config, &FaultPlan::none(), &mut rng, no_mitigation());
        assert_eq!(agent.table.best_action(0), 1);
        assert!(agent.table.q(0, 1) > 0.5);
    }

    #[test]
    fn greedy_agent_with_zero_epsilon_is_deterministic() {
        let mut agent = TabularAgent::new(
            QTable::new(2, 2, QFormat::Q3_4),
            EpsilonSchedule::new(0.0, 0.0, 1.0),
            0.1,
            0.9,
        );
        agent.table.set(0, 1, 1.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(agent.act(0, &mut rng), 1);
        }
        assert_eq!(agent.alpha(), 0.1);
        assert_eq!(agent.gamma(), 0.9);
    }
}
