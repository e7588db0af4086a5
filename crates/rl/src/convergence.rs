//! Convergence analysis over training traces (Fig. 4 of the paper).

use crate::TrainingTrace;

/// Returns the number of episodes, counted from `start`, until the sliding
/// `window` success rate first reaches `threshold`, or `None` if it never
/// does within the trace.
///
/// This reproduces the paper's "episodes taken to converge (>95 % success
/// rate) after faults are injected" metric (Fig. 4a/4c): call it with `start`
/// set to the fault-injection episode.
///
/// # Examples
///
/// ```
/// use navft_rl::{episodes_to_converge, EpisodeOutcome, TrainingTrace};
///
/// let mut trace = TrainingTrace::new();
/// for i in 0..100 {
///     let outcome = EpisodeOutcome { reached_goal: i >= 40, ..EpisodeOutcome::empty() };
///     trace.push(outcome, 0.1);
/// }
/// let episodes = episodes_to_converge(&trace, 20, 10, 0.95).expect("converges");
/// assert!(episodes >= 20 && episodes <= 40);
/// ```
pub fn episodes_to_converge(
    trace: &TrainingTrace,
    start: usize,
    window: usize,
    threshold: f64,
) -> Option<usize> {
    let window = window.max(1);
    if start >= trace.successes.len() {
        return None;
    }
    for end in (start + window)..=trace.successes.len() {
        let slice = &trace.successes[end - window..end];
        let rate = slice.iter().filter(|&&s| s).count() as f64 / window as f64;
        if rate >= threshold {
            return Some(end - start);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EpisodeOutcome;

    fn trace_with_success_from(total: usize, from: usize) -> TrainingTrace {
        let mut trace = TrainingTrace::new();
        for i in 0..total {
            let outcome = EpisodeOutcome { reached_goal: i >= from, ..EpisodeOutcome::empty() };
            trace.push(outcome, if i < 50 { 0.5 } else { 0.05 });
        }
        trace
    }

    #[test]
    fn converged_trace_reports_episode_count() {
        let trace = trace_with_success_from(200, 100);
        let episodes = episodes_to_converge(&trace, 90, 20, 0.95).expect("converges");
        // A 20-episode window reaches 95% success by episode 119-120.
        assert!((29..=30).contains(&episodes), "episodes = {episodes}");
    }

    #[test]
    fn never_converging_trace_reports_none() {
        let trace = trace_with_success_from(100, 100);
        assert_eq!(episodes_to_converge(&trace, 0, 10, 0.95), None);
    }

    #[test]
    fn start_beyond_trace_is_none() {
        let trace = trace_with_success_from(10, 0);
        assert_eq!(episodes_to_converge(&trace, 50, 10, 0.9), None);
    }

    #[test]
    fn zero_window_is_treated_as_one() {
        let trace = trace_with_success_from(10, 0);
        assert_eq!(episodes_to_converge(&trace, 0, 0, 1.0), Some(1));
    }
}
