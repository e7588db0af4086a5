use std::fmt;

/// A decaying ε-greedy exploration schedule.
///
/// The agent starts exploring with probability `initial`, multiplies ε by a
/// decay factor after every episode, and settles at `floor` — the "steady
/// exploitation" state the paper refers to. The schedule is deliberately
/// mutable at run time because the paper's training-time mitigation
/// (§5.1) *adjusts* it when faults are detected: boosting ε after transient
/// faults and reverting/slowing the decay after permanent faults.
///
/// # Examples
///
/// ```
/// use navft_rl::EpsilonSchedule;
///
/// let mut eps = EpsilonSchedule::new(1.0, 0.05, 0.95);
/// assert_eq!(eps.epsilon(), 1.0);
/// for _ in 0..200 {
///     eps.advance_episode();
/// }
/// assert!(eps.is_steady());
/// eps.boost(0.4);
/// assert!(!eps.is_steady());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EpsilonSchedule {
    initial: f64,
    floor: f64,
    decay: f64,
    decay_slowdown: f64,
    current: f64,
}

impl EpsilonSchedule {
    /// Creates a schedule that starts at `initial`, never drops below
    /// `floor`, and multiplies ε by `decay` each episode.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are outside `[0, 1]` or `floor > initial`.
    pub fn new(initial: f64, floor: f64, decay: f64) -> EpsilonSchedule {
        assert!((0.0..=1.0).contains(&initial), "initial epsilon must be in [0, 1]");
        assert!((0.0..=1.0).contains(&floor), "floor epsilon must be in [0, 1]");
        assert!((0.0..=1.0).contains(&decay), "decay must be in [0, 1]");
        assert!(floor <= initial, "floor must not exceed the initial epsilon");
        EpsilonSchedule { initial, floor, decay, decay_slowdown: 1.0, current: initial }
    }

    /// The schedule used by the Grid World experiments: ε starts at 1.0,
    /// decays to a 0.05 floor and reaches steady exploitation after roughly
    /// `episodes_to_steady` episodes.
    pub fn for_training(episodes_to_steady: usize) -> EpsilonSchedule {
        // Solve 1.0 * d^T = floor for d.
        let floor = 0.05f64;
        let decay = floor.powf(1.0 / episodes_to_steady.max(1) as f64);
        EpsilonSchedule::new(1.0, floor, decay)
    }

    /// The current exploration probability.
    pub fn epsilon(&self) -> f64 {
        self.current
    }

    /// The initial exploration probability.
    pub fn initial(&self) -> f64 {
        self.initial
    }

    /// The steady-state exploration probability.
    pub fn floor(&self) -> f64 {
        self.floor
    }

    /// Whether the schedule has (re-)reached its steady exploitation state.
    pub fn is_steady(&self) -> bool {
        self.current <= self.floor + 1e-9
    }

    /// Advances the schedule by one episode (applies the decay).
    pub fn advance_episode(&mut self) {
        let effective = 1.0 - (1.0 - self.decay) / self.decay_slowdown;
        self.current = (self.current * effective).max(self.floor);
    }

    /// Increases ε by `delta`, clamped to 1.0 — the transient-fault recovery
    /// action of Eq. 6.
    pub fn boost(&mut self, delta: f64) {
        self.current = (self.current + delta.max(0.0)).clamp(self.floor, 1.0);
    }

    /// Resets ε to its initial value — the permanent-fault recovery action.
    pub fn reset_to_initial(&mut self) {
        self.current = self.initial;
    }

    /// Slows the decay by `factor` (≥ 1): after a slow-down of `2ⁿ` the
    /// schedule takes roughly `2ⁿ`× longer to return to steady exploitation.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0`.
    pub fn slow_decay(&mut self, factor: f64) {
        assert!(factor >= 1.0, "decay slow-down factor must be at least 1");
        self.decay_slowdown *= factor;
    }

    /// The accumulated decay slow-down factor.
    pub fn decay_slowdown(&self) -> f64 {
        self.decay_slowdown
    }
}

impl Default for EpsilonSchedule {
    /// The paper's Grid World default: steady exploitation after ~100
    /// episodes.
    fn default() -> Self {
        EpsilonSchedule::for_training(100)
    }
}

impl fmt::Display for EpsilonSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epsilon {:.3} (floor {:.3}, initial {:.3})",
            self.current, self.floor, self.initial
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decays_towards_floor() {
        let mut eps = EpsilonSchedule::new(1.0, 0.1, 0.9);
        let mut previous = eps.epsilon();
        for _ in 0..100 {
            eps.advance_episode();
            assert!(eps.epsilon() <= previous);
            previous = eps.epsilon();
        }
        assert!(eps.is_steady());
        assert_eq!(eps.epsilon(), 0.1);
    }

    #[test]
    fn for_training_reaches_steady_near_target_episode() {
        let mut eps = EpsilonSchedule::for_training(100);
        let mut episodes = 0;
        while !eps.is_steady() && episodes < 1000 {
            eps.advance_episode();
            episodes += 1;
        }
        assert!((95..=105).contains(&episodes), "steady after {episodes} episodes");
    }

    #[test]
    fn boost_raises_and_clamps() {
        let mut eps = EpsilonSchedule::new(1.0, 0.05, 0.5);
        for _ in 0..20 {
            eps.advance_episode();
        }
        assert!(eps.is_steady());
        eps.boost(0.3);
        assert!((eps.epsilon() - 0.35).abs() < 1e-9);
        eps.boost(10.0);
        assert_eq!(eps.epsilon(), 1.0);
        eps.boost(-5.0);
        assert_eq!(eps.epsilon(), 1.0);
    }

    #[test]
    fn reset_and_slow_decay_extend_exploration() {
        let mut fast = EpsilonSchedule::for_training(50);
        let mut slow = EpsilonSchedule::for_training(50);
        slow.slow_decay(4.0);
        assert_eq!(slow.decay_slowdown(), 4.0);
        let steps = |eps: &mut EpsilonSchedule| {
            let mut n = 0;
            while !eps.is_steady() && n < 10_000 {
                eps.advance_episode();
                n += 1;
            }
            n
        };
        let fast_steps = steps(&mut fast);
        let slow_steps = steps(&mut slow);
        assert!(slow_steps > fast_steps * 3, "{slow_steps} vs {fast_steps}");

        slow.reset_to_initial();
        assert_eq!(slow.epsilon(), slow.initial());
    }

    #[test]
    #[should_panic(expected = "floor must not exceed")]
    fn floor_above_initial_is_rejected() {
        let _ = EpsilonSchedule::new(0.1, 0.5, 0.9);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn slow_decay_rejects_speedups() {
        let mut eps = EpsilonSchedule::default();
        eps.slow_decay(0.5);
    }

    #[test]
    fn display_shows_current_epsilon() {
        let eps = EpsilonSchedule::new(0.8, 0.1, 0.9);
        assert!(eps.to_string().contains("0.800"));
    }
}
