//! The closed-loop campaign runner shared by `grid-campaign` and
//! `drone-inference`: rounds of [`run_sweeps`] on two trial workers until
//! the time budget is spent, with failure accounting per trial and the
//! artifact checks (byte-identical rounds, serial recomputation).

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use navft_core::sweep::{artifact, run_sweeps, CellSpec, RunOptions, Sweep};
use navft_core::FigureData;
use navft_nn::EngineConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{calib, shims, trace};

/// Trial workers of the closed loop (the box has two vCPUs).
pub const WORKERS: usize = 2;

/// Trials attempted and failed (panicked or returned a non-finite value).
#[derive(Debug, Default)]
pub struct Counters {
    attempted: AtomicUsize,
    failed: AtomicUsize,
}

impl Counters {
    /// `(attempted, failed)` so far.
    pub fn snapshot(&self) -> (usize, usize) {
        (self.attempted.load(Ordering::Relaxed), self.failed.load(Ordering::Relaxed))
    }
}

/// Builds one round's sweeps with every cell seeded by the round seed,
/// keeping only the `sweep/cell` ids in the filter when one is given.
pub type BuildFn = dyn Fn(u64, Option<&BTreeSet<String>>, &Arc<Counters>) -> Vec<Sweep>;

/// Adds a cell whose trial is `body(seed, engine)` returning `arity`
/// metrics, run inside a `core.trial` span with its failures counted. A
/// panicking trial yields `arity` NaNs instead of aborting the campaign.
pub fn add_cell<F>(
    sweep: &mut Sweep,
    spec: CellSpec,
    keep: Option<&BTreeSet<String>>,
    counters: &Arc<Counters>,
    arity: usize,
    body: F,
) where
    F: Fn(u64, EngineConfig) -> Vec<f64> + Send + Sync + 'static,
{
    if keep.is_some_and(|keep| !keep.contains(&format!("{}/{}", sweep.id(), spec.id()))) {
        return;
    }
    let counters = Arc::clone(counters);
    sweep.cell_metrics(spec, move |seed, _rep, engine| {
        counters.attempted.fetch_add(1, Ordering::Relaxed);
        // A trial without decision ticks (tabular training) still samples
        // the host speed, at most once per probe interval.
        calib::tick_scale();
        let _span = trace::span("core.trial", seed);
        match catch_unwind(AssertUnwindSafe(|| body(seed, engine))) {
            Ok(metrics) if metrics.len() == arity && metrics.iter().all(|m| m.is_finite()) => {
                metrics
            }
            _ => {
                counters.failed.fetch_add(1, Ordering::Relaxed);
                vec![f64::NAN; arity]
            }
        }
    });
}

/// A fold listing every cell's first-metric mean, so each round also
/// exercises the fold and the rendered `.txt` artifact.
pub fn facts_fold(sweep: &mut Sweep, title: &'static str) {
    let id = sweep.id().to_string();
    let cells: Vec<String> = sweep.cell_specs().map(|spec| spec.id().to_string()).collect();
    sweep.fold(move |results| {
        let facts = cells.iter().map(|cell| (cell.clone(), results.mean(cell))).collect();
        vec![FigureData::facts(id, title, facts)]
    });
}

/// The seed of round `round` of a run seeded `seed` (SplitMix64 mix).
pub fn round_seed(seed: u64, round: u64) -> u64 {
    let mut z = seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one timed pass of rounds measured.
#[derive(Default)]
pub struct Pass {
    /// Trials completed.
    pub trials: usize,
    /// Wall time of the rounds.
    pub wall: Duration,
    /// FNV-1a digest of each round's artifact directory, by round.
    pub digests: Vec<u64>,
    /// Round 0's `journal.jsonl`.
    pub journal0: String,
    /// Decision rows stepped.
    pub rows: u64,
    /// Decision-tick latencies (ns at the reference host speed), unsorted.
    pub ticks: Vec<u32>,
    /// The host's slowdown over the rounds ([`calib::take_slowdown`]).
    pub slowdown: f64,
}

impl Pass {
    /// Trials per second, as timed.
    pub fn trials_per_s(&self) -> f64 {
        self.trials as f64 / self.wall.as_secs_f64()
    }

    /// Trials per second at the reference host speed.
    pub fn scaled_trials_per_s(&self) -> f64 {
        self.trials_per_s() * self.slowdown
    }

    /// Decision rows per second at the reference host speed.
    pub fn scaled_rows_per_s(&self) -> f64 {
        self.rows as f64 / self.wall.as_secs_f64() * self.slowdown
    }
}

/// Runs rounds `0, 1, …` of the campaign until `budget` of round time has
/// elapsed (at least one round), writing each round's artifacts to `dir`.
/// With `traced`, every round runs twice — untraced, then with tracing on —
/// and the traced runs are returned as a second pass, so both passes see
/// the same rounds equally warm and their difference is the tracing
/// overhead. Between rounds, `interlude` runs `interludes` times, spread
/// evenly over the budget (the rest after the last round); its time counts
/// toward neither the budget nor a pass.
pub fn run_pass(
    build: &BuildFn,
    counters: &Arc<Counters>,
    seed: u64,
    budget: Duration,
    dir: &Path,
    traced: bool,
    (interludes, interlude): (usize, &mut dyn FnMut()),
) -> (Pass, Option<Pass>) {
    let _ = shims::take_decisions();
    let _ = calib::take_samples();
    let mut passes = [Pass::default(), Pass::default()];
    let mut elapsed = Duration::ZERO;
    let mut done = 0;
    let mut round = 0u64;
    while round == 0 || elapsed < budget {
        let started = Instant::now();
        for (pass, tracing) in passes.iter_mut().zip([false, true]).take(1 + usize::from(traced)) {
            trace::set_enabled(tracing);
            run_round(build, counters, seed, round, dir, pass);
            trace::set_enabled(false);
        }
        elapsed += started.elapsed();
        round += 1;
        if done < interludes && elapsed >= budget * (done as u32 + 1) / (interludes as u32 + 1) {
            interlude();
            // Decisions an interlude stepped belong to no round.
            let _ = shims::take_decisions();
            done += 1;
        }
    }
    for _ in done..interludes {
        interlude();
    }
    let slowdown = calib::take_slowdown().unwrap_or(1.0);
    let [mut untraced, mut traced_pass] = passes;
    untraced.slowdown = slowdown;
    traced_pass.slowdown = slowdown;
    (untraced, traced.then_some(traced_pass))
}

fn run_round(
    build: &BuildFn,
    counters: &Arc<Counters>,
    seed: u64,
    round: u64,
    dir: &Path,
    pass: &mut Pass,
) {
    let sweeps = build(round_seed(seed, round), None, counters);
    pass.trials +=
        sweeps.iter().flat_map(|s| s.cell_specs()).map(|c| c.repetitions()).sum::<usize>();
    let options = RunOptions {
        threads: WORKERS,
        out_dir: Some(dir.to_path_buf()),
        resume: false,
        progress: false,
        engine: EngineConfig::default(),
    };
    let t0 = Instant::now();
    {
        let _span = trace::span("core.round", round);
        run_sweeps(sweeps, &options).expect("campaign artifacts are writable");
    }
    pass.wall += t0.elapsed();
    pass.digests.push(digest_dir(dir));
    if round == 0 {
        pass.journal0 =
            std::fs::read_to_string(dir.join(artifact::JOURNAL_FILE)).unwrap_or_default();
    }
    let (rows, ticks) = shims::take_decisions();
    pass.rows += rows;
    pass.ticks.extend(ticks);
}

/// FNV-1a over the names and bytes of every file in `dir`, in name order.
pub fn digest_dir(dir: &Path) -> u64 {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| entries.flatten().map(|e| e.path()).filter(|p| p.is_file()).collect())
        .unwrap_or_default();
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let name = file.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        for byte in name.bytes().chain(std::fs::read(&file).unwrap_or_default()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Checks each round's digest against the digest an earlier run with the
/// same workload and seed stored under `store`, storing it when none
/// exists. Returns the rounds that disagreed.
pub fn check_stored_digests(store: &Path, key: &str, digests: &[u64]) -> Vec<usize> {
    let _ = std::fs::create_dir_all(store);
    let mut mismatched = Vec::new();
    for (round, digest) in digests.iter().enumerate() {
        let path = store.join(format!("{key}-r{round}.digest"));
        let text = format!("{digest:016x}\n");
        match std::fs::read_to_string(&path) {
            Ok(stored) if stored != text => mismatched.push(round),
            Ok(_) => {}
            Err(_) => {
                let _ = std::fs::write(&path, text);
            }
        }
    }
    mismatched
}

/// Recomputes `samples` seeded-random cells of round 0 serially (one
/// worker, fresh artifact directory `dir`) and returns whether each
/// recomputed journal record equals the parallel run's record.
pub fn serial_recompute_matches(
    build: &BuildFn,
    seed: u64,
    samples: usize,
    journal0: &str,
    dir: &Path,
) -> bool {
    let scratch_counters = Arc::new(Counters::default());
    let all: Vec<String> = build(round_seed(seed, 0), None, &scratch_counters)
        .iter()
        .flat_map(|sweep| sweep.cell_specs().map(move |c| format!("{}/{}", sweep.id(), c.id())))
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E71A1);
    let mut keep = BTreeSet::new();
    while keep.len() < samples.min(all.len()) {
        keep.insert(all[rng.gen_range(0..all.len())].clone());
    }
    let sweeps = build(round_seed(seed, 0), Some(&keep), &scratch_counters);
    let options = RunOptions {
        threads: 1,
        out_dir: Some(dir.to_path_buf()),
        resume: false,
        progress: false,
        engine: EngineConfig::default(),
    };
    if run_sweeps(sweeps, &options).is_err() {
        return false;
    }
    let recomputed = std::fs::read_to_string(dir.join(artifact::JOURNAL_FILE)).unwrap_or_default();
    let parallel: BTreeSet<&str> = journal0.lines().collect();
    let lines: Vec<&str> = recomputed.lines().collect();
    lines.len() == keep.len() && lines.iter().all(|line| parallel.contains(line))
}

#[cfg(test)]
mod tests {
    use super::*;
    use navft_core::Scale;

    fn synthetic(
        round_seed: u64,
        keep: Option<&BTreeSet<String>>,
        counters: &Arc<Counters>,
    ) -> Vec<Sweep> {
        let mut sweep = Sweep::new("synthetic", Scale::Smoke);
        for cell in 0..4u64 {
            let spec = CellSpec::new(format!("c{cell}"), 3).with_seed(round_seed);
            add_cell(&mut sweep, spec, keep, counters, 1, move |seed, _| {
                if cell == 3 && seed % 3 == 0 {
                    panic!("injected trial failure");
                }
                vec![(seed % 97) as f64 + cell as f64]
            });
        }
        facts_fold(&mut sweep, "synthetic");
        vec![sweep]
    }

    #[test]
    fn rounds_are_byte_identical_and_serial_recompute_matches() {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        let counters = Arc::new(Counters::default());
        let mut interludes = 0;
        let (first, second) = run_pass(
            &synthetic,
            &counters,
            7,
            Duration::ZERO,
            &dir.join("a"),
            true,
            (2, &mut || interludes += 1),
        );
        assert_eq!(interludes, 2, "interludes left over run after the last round");
        let second = second.expect("traced pass");
        assert_eq!(first.digests, second.digests);
        assert_eq!(first.trials, 12);
        assert!(serial_recompute_matches(&synthetic, 7, 2, &first.journal0, &dir.join("s")));
        let (attempted, failed) = counters.snapshot();
        assert_eq!(attempted, 24);
        assert_eq!(failed % 2, 0, "both passes see the same failures");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
