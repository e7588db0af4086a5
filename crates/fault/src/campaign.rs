//! Fault-injection campaign machinery: repetitions, seeding, scheduling and
//! statistics.
//!
//! The paper repeats every fault-injection configuration many times (1000
//! repetitions for Grid World, 100 for the drone task) and reports the mean
//! outcome. A [`CellPlan`] captures one configuration's repetition count and
//! base seed, [`run_cells`] executes every repetition of every cell with a
//! derived deterministic seed, and [`summarize_metrics`] folds the results
//! into [`Summary`] statistics (mean, standard deviation, 95 % confidence
//! interval) accumulated in one pass (Welford), so paper-scale campaigns
//! never hold every sample in memory.
//!
//! [`run_cells`] is a single work-stealing scheduler over *all* (cell,
//! repetition) trials: workers pull the next global trial off one shared
//! atomic counter, so a run saturates every core end to end instead of
//! hitting a fork-join barrier per cell. Results are bit-identical to serial
//! execution by construction: every trial's seed is derived only from its
//! cell's base seed and repetition index, and each cell's values are handed
//! back in repetition order once the cell completes.
//!
//! # Examples
//!
//! ```
//! use navft_fault::campaign::{run_cells, summarize_metrics, CellPlan};
//!
//! let cells = [CellPlan { repetitions: 100, base_seed: 42 }];
//! let mut summaries = Vec::new();
//! run_cells(&cells, 2, (), |_cell, seed, _rep, ()| vec![(seed % 7) as f64], |_cell, per_rep| {
//!     summaries = summarize_metrics(&per_rep);
//! });
//! assert_eq!(summaries[0].count(), 100);
//! assert!(summaries[0].mean() >= 0.0 && summaries[0].max() <= 6.0);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Summary statistics of a campaign metric, accumulated in one pass.
///
/// Mean and variance use Welford's online algorithm, so summarizing a
/// 1000-repetition cell costs O(1) memory. [`Summary::default`] is the
/// empty summary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Summary {
    count: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Builds a summary from an iterator of samples.
    pub fn from_samples(values: impl IntoIterator<Item = f64>) -> Summary {
        let mut summary = Summary::default();
        for v in values {
            summary.push(v);
        }
        summary
    }

    /// Reconstructs a summary from its stored moments (the artifact
    /// deserialization path).
    pub fn from_moments(count: usize, mean: f64, m2: f64, min: f64, max: f64) -> Summary {
        Summary { count, mean, m2, min, max }
    }

    /// Folds one more observation into the summary.
    pub fn push(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Number of repetitions summarized.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Mean of the metric (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// The accumulated sum of squared deviations from the mean (Welford's
    /// `M2`). Exposed so artifacts can round-trip a summary exactly; use
    /// [`Summary::std_dev`] for the statistic.
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Sample standard deviation (0 for fewer than two repetitions).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        (self.m2 / (self.count - 1) as f64).sqrt()
    }

    /// Minimum observed value (0 for an empty summary).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum observed value (0 for an empty summary).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Half-width of the 95 % confidence interval of the mean (normal
    /// approximation, as used by the paper's 1000-repetition campaigns).
    pub fn confidence_95(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        1.96 * self.std_dev() / (self.count as f64).sqrt()
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean {:.4} ± {:.4} (n = {}, σ = {:.4})",
            self.mean(),
            self.confidence_95(),
            self.count(),
            self.std_dev()
        )
    }
}

/// One schedulable campaign cell: how many repetitions to run and the base
/// seed its per-repetition seeds are derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellPlan {
    /// Number of repetitions of this cell.
    pub repetitions: usize,
    /// Base seed; repetition `rep` runs with [`CellPlan::seed_for`]`(rep)`.
    pub base_seed: u64,
}

impl CellPlan {
    /// The deterministic seed for repetition `rep`.
    ///
    /// Seeds are spread with a SplitMix64-style mix so that neighbouring
    /// repetitions do not share correlated random streams.
    pub fn seed_for(&self, rep: usize) -> u64 {
        let mut z =
            self.base_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(rep as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Executes every (cell, repetition) trial of `cells` across `threads`
/// work-stealing workers and hands each completed cell's per-repetition
/// metric vectors — in repetition order — to `on_cell_done`.
///
/// * `trial(cell_index, seed, rep, ctx)` must be a pure function of its
///   arguments (plus whatever immutable state it captures): the scheduler
///   guarantees the same seeds regardless of thread count, so results are
///   bit-identical to a serial run by construction.
/// * `ctx` is handed to every trial verbatim — the campaign layer treats it
///   as an opaque `Copy` value. Callers use it to thread configuration that
///   must reach every trial (e.g. an engine config) through the scheduler
///   without smuggling it through process-wide state. It must not influence
///   trial results (it may only steer *how* they are computed), or
///   thread-count invariance is lost.
/// * `on_cell_done(cell_index, per_rep)` runs on the calling thread, in cell
///   *completion* order (nondeterministic when `threads > 1`); callers that
///   need deterministic output must order by `cell_index` themselves.
/// * A trial may return several metrics; all repetitions of a cell must
///   return the same number.
///
/// Unlike a per-cell fork-join, one shared atomic counter spans the whole
/// run, so slow high-BER cells cannot straggle while other cores sit idle.
/// Memory is bounded: only the in-flight cells' per-repetition buffers are
/// alive at any moment.
pub fn run_cells<X, F, C>(cells: &[CellPlan], threads: usize, ctx: X, trial: F, mut on_cell_done: C)
where
    X: Copy + Send + Sync,
    F: Fn(usize, u64, usize, X) -> Vec<f64> + Sync,
    C: FnMut(usize, Vec<Vec<f64>>),
{
    let total: usize = cells.iter().map(|c| c.repetitions).sum();
    if threads <= 1 || total <= 1 {
        for (index, cell) in cells.iter().enumerate() {
            let per_rep: Vec<Vec<f64>> = (0..cell.repetitions)
                .map(|rep| trial(index, cell.seed_for(rep), rep, ctx))
                .collect();
            on_cell_done(index, per_rep);
        }
        return;
    }

    // starts[i] is the first global trial index of cell i; starts[n] == total.
    let mut starts = Vec::with_capacity(cells.len() + 1);
    let mut acc = 0usize;
    for cell in cells {
        starts.push(acc);
        acc += cell.repetitions;
    }
    starts.push(acc);

    let next = AtomicUsize::new(0);
    let (sender, receiver) = mpsc::channel::<(usize, usize, Vec<f64>)>();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(total) {
            let sender = sender.clone();
            let starts = &starts;
            let next = &next;
            let trial = &trial;
            scope.spawn(move || loop {
                let t = next.fetch_add(1, Ordering::Relaxed);
                if t >= total {
                    break;
                }
                // The last cell whose start is <= t owns this trial (cells
                // with zero repetitions contribute duplicate starts and are
                // skipped over by taking the last).
                let cell = starts.partition_point(|&s| s <= t) - 1;
                let rep = t - starts[cell];
                let seed = cells[cell].seed_for(rep);
                let value = trial(cell, seed, rep, ctx);
                if sender.send((cell, rep, value)).is_err() {
                    break;
                }
            });
        }
        drop(sender);

        // Collect on the calling thread; a cell is done once all its
        // repetitions arrived, and its buffer is released immediately.
        let mut slots: Vec<Vec<Option<Vec<f64>>>> =
            cells.iter().map(|c| vec![None; c.repetitions]).collect();
        let mut remaining: Vec<usize> = cells.iter().map(|c| c.repetitions).collect();
        for (index, cell) in cells.iter().enumerate() {
            if cell.repetitions == 0 {
                on_cell_done(index, Vec::new());
            }
        }
        for (cell, rep, value) in receiver {
            slots[cell][rep] = Some(value);
            remaining[cell] -= 1;
            if remaining[cell] == 0 {
                let per_rep =
                    slots[cell].drain(..).map(|v| v.expect("every repetition arrived")).collect();
                on_cell_done(cell, per_rep);
            }
        }
    });
}

/// Folds per-repetition metric vectors (as delivered by [`run_cells`]) into
/// one streaming [`Summary`] per metric, accumulating in repetition order so
/// the statistics are independent of scheduling.
///
/// # Panics
///
/// Panics if repetitions disagree on the number of metrics.
pub fn summarize_metrics(per_rep: &[Vec<f64>]) -> Vec<Summary> {
    let metrics = per_rep.first().map(|v| v.len()).unwrap_or(0);
    let mut summaries = vec![Summary::default(); metrics];
    for rep in per_rep {
        assert_eq!(rep.len(), metrics, "every repetition must return the same metric count");
        for (summary, &value) in summaries.iter_mut().zip(rep) {
            summary.push(value);
        }
    }
    summaries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let c = CellPlan { repetitions: 10, base_seed: 99 };
        assert_eq!(c.seed_for(3), c.seed_for(3));
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|r| c.seed_for(r)).collect();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    fn different_base_seeds_give_different_streams() {
        let a = CellPlan { repetitions: 10, base_seed: 1 };
        let b = CellPlan { repetitions: 10, base_seed: 2 };
        assert_ne!(a.seed_for(0), b.seed_for(0));
    }

    #[test]
    fn summary_statistics() {
        let s = Summary::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert!((s.std_dev() - 1.290_994_4).abs() < 1e-6);
        assert!(s.confidence_95() > 0.0);
        assert_eq!(s.count(), 4);
    }

    #[test]
    fn streaming_summary_matches_recorded_statistics() {
        // The one-pass statistics agree with the two-pass formulas over the
        // recorded values.
        let values = [3.5, -1.0, 0.25, 8.0, 8.0, -2.5];
        let streamed = Summary::from_samples(values);
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let variance = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
        assert_eq!(streamed.count(), values.len());
        assert!((streamed.mean() - mean).abs() < 1e-12);
        assert!((streamed.std_dev() - variance.sqrt()).abs() < 1e-12);
        assert_eq!(streamed.min(), -2.5);
        assert_eq!(streamed.max(), 8.0);
    }

    #[test]
    fn moments_round_trip_reconstructs_statistics() {
        let s = Summary::from_samples([1.0, 4.0, 9.0]);
        let back = Summary::from_moments(s.count(), s.mean(), s.m2(), s.min(), s.max());
        assert_eq!(back.mean(), s.mean());
        assert_eq!(back.std_dev(), s.std_dev());
        assert_eq!(back.min(), s.min());
        assert_eq!(back.max(), s.max());
        assert_eq!(back, s);
    }

    #[test]
    fn empty_and_singleton_summaries_are_well_behaved() {
        let empty = Summary::default();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.std_dev(), 0.0);
        assert_eq!(empty.confidence_95(), 0.0);
        assert_eq!(empty.min(), 0.0);
        assert_eq!(empty.max(), 0.0);
        let one = Summary::from_samples([5.0]);
        assert_eq!(one.mean(), 5.0);
        assert_eq!(one.std_dev(), 0.0);
    }

    #[test]
    fn display_shows_mean_and_count() {
        let s = Summary::from_samples([1.0, 1.0]);
        let text = s.to_string();
        assert!(text.contains("mean 1.0000"));
        assert!(text.contains("n = 2"));
    }

    /// Runs `cells` and returns each cell's per-repetition metrics in cell
    /// order: the trial's seed split into two exactly representable halves,
    /// then `cell + rep`.
    fn collect_cells(cells: &[CellPlan], threads: usize) -> Vec<(usize, Vec<Vec<f64>>)> {
        let mut out = Vec::new();
        run_cells(
            cells,
            threads,
            (),
            |cell, seed, rep, ()| {
                vec![(seed >> 32) as f64, (seed as u32) as f64, (cell + rep) as f64]
            },
            |cell, per_rep| out.push((cell, per_rep)),
        );
        out.sort_by_key(|(cell, _)| *cell);
        out
    }

    #[test]
    fn run_cells_is_thread_count_invariant() {
        let cells = [
            CellPlan { repetitions: 7, base_seed: 1 },
            CellPlan { repetitions: 1, base_seed: 2 },
            CellPlan { repetitions: 13, base_seed: 3 },
            CellPlan { repetitions: 4, base_seed: 1 },
        ];
        let serial = collect_cells(&cells, 1);
        for threads in [2, 3, 8] {
            assert_eq!(collect_cells(&cells, threads), serial, "threads = {threads}");
        }
        // Every cell completed with its full repetition count, in rep order,
        // and every repetition ran with its derived seed.
        assert_eq!(serial.len(), cells.len());
        for ((index, per_rep), cell) in serial.iter().zip(&cells) {
            assert_eq!(per_rep.len(), cell.repetitions);
            for (rep, metrics) in per_rep.iter().enumerate() {
                let seed = ((metrics[0] as u64) << 32) | metrics[1] as u64;
                assert_eq!(seed, cell.seed_for(rep));
                assert_eq!(metrics[2], (index + rep) as f64);
            }
        }
    }

    #[test]
    fn run_cells_with_hands_the_context_to_every_trial() {
        let cells =
            [CellPlan { repetitions: 5, base_seed: 4 }, CellPlan { repetitions: 9, base_seed: 5 }];
        let collect = |threads: usize| {
            let mut out = Vec::new();
            run_cells(
                &cells,
                threads,
                7usize,
                |cell, seed, rep, ctx| {
                    assert_eq!(ctx, 7);
                    vec![(seed % 991) as f64 + (cell * 100 + rep) as f64]
                },
                |cell, per_rep| out.push((cell, per_rep)),
            );
            out.sort_by_key(|(cell, _)| *cell);
            out
        };
        let serial = collect(1);
        assert_eq!(serial[0].1.len(), 5);
        assert_eq!(serial[1].1.len(), 9);
        for threads in [2, 8] {
            assert_eq!(collect(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn run_cells_handles_empty_and_zero_rep_cells() {
        let mut done = Vec::new();
        run_cells(&[], 4, (), |_, _, _, ()| vec![0.0], |cell, _| done.push(cell));
        assert!(done.is_empty());

        let cells = [
            CellPlan { repetitions: 0, base_seed: 0 },
            CellPlan { repetitions: 3, base_seed: 9 },
            CellPlan { repetitions: 0, base_seed: 0 },
        ];
        let mut outcomes = Vec::new();
        run_cells(
            &cells,
            4,
            (),
            |_, _, rep, ()| vec![rep as f64],
            |cell, per_rep| {
                outcomes.push((cell, per_rep.len()));
            },
        );
        outcomes.sort_unstable();
        assert_eq!(outcomes, vec![(0, 0), (1, 3), (2, 0)]);
    }

    #[test]
    fn summarize_metrics_folds_in_repetition_order() {
        let per_rep = vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]];
        let summaries = summarize_metrics(&per_rep);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].mean(), 2.0);
        assert_eq!(summaries[1].mean(), 20.0);
        assert_eq!(summaries[0].count(), 3);
        assert_eq!(summaries[1].max(), 30.0);
        assert!(summarize_metrics(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "same metric count")]
    fn summarize_metrics_rejects_ragged_repetitions() {
        let _ = summarize_metrics(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
