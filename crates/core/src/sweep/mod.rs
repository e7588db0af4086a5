//! Declarative campaign orchestration: sweeps, cells, and a resumable
//! work-stealing runner.
//!
//! The paper's evaluation is a grid of campaigns — (figure × BER × injection
//! point × format × model) cells, each repeated up to 1000×. This module
//! turns every figure into data instead of hand-rolled loops:
//!
//! * [`CellSpec`] names one campaign cell: a stable id, human-readable axis
//!   labels, a repetition count and a base seed.
//! * [`Sweep`] is a figure: a set of cells (each with the trial closure that
//!   computes one repetition's metrics from a seed) plus a *fold* from the
//!   per-cell [`Summary`] statistics to the figure's [`FigureData`].
//! * [`run_sweeps`] executes *all* cells of *all* requested figures on one
//!   shared work-stealing scheduler ([`navft_fault::campaign::run_cells`]),
//!   so a whole-evaluation run saturates every core end to end instead of
//!   fork-joining per cell.
//!
//! # Determinism
//!
//! Every trial's seed derives only from its cell's [fingerprint] and
//! repetition index, and each cell's metrics are folded in repetition order,
//! so results are bit-identical to serial execution regardless of thread
//! count. Trials must be pure functions of `(seed, rep)` and their captured
//! immutable state, and folds are pure too: a fold is a function of its
//! cell summaries (plus captured immutable state) and reads no clock, so
//! the rendered `<figure>.txt` tables are as reproducible as the JSONL
//! artifacts, at any thread count and after `--resume`.
//!
//! # Artifacts and resume
//!
//! With [`RunOptions::out_dir`] set, every completed cell is appended to
//! `journal.jsonl` in cell-declaration order (see [`artifact`]): finished
//! cells buffer until every earlier-declared cell has completed, so the
//! journal is byte-identical at any thread count. Per-figure
//! `<figure>.jsonl` + `<figure>.txt` files are written at the end. With
//! [`RunOptions::resume`], cells whose fingerprint already has a journal
//! record are skipped entirely — their trained inputs (wrapped in [`Lazy`])
//! are never even built — which makes paper-scale runs interruptible:
//! kill the process, re-run with `--resume`, and only unfinished cells
//! execute.
//!
//! [fingerprint]: CellSpec#fingerprints

pub mod artifact;
pub mod json;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use navft_fault::campaign::{run_cells, summarize_metrics, CellPlan, Summary};
use navft_nn::EngineConfig;

use crate::{FigureData, Scale};

/// The declarative description of one campaign cell.
///
/// # Fingerprints
///
/// A cell's *fingerprint* — the key of its artifact records and the root of
/// its seed derivation — is an FNV-1a hash of (scale, sweep id, cell id,
/// repetitions, base seed). Two cells of the same run must never collide
/// (the runner enforces this), and changing the scale or repetition count
/// invalidates old journal records automatically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    id: String,
    labels: Vec<(String, String)>,
    repetitions: usize,
    base_seed: u64,
}

impl CellSpec {
    /// A cell named `id` (unique within its sweep) running `repetitions`
    /// trials, with base seed 0 and no labels.
    pub fn new(id: impl Into<String>, repetitions: usize) -> CellSpec {
        CellSpec { id: id.into(), labels: Vec::new(), repetitions, base_seed: 0 }
    }

    /// Sets the base seed mixed into the cell's fingerprint.
    pub fn with_seed(mut self, base_seed: u64) -> CellSpec {
        self.base_seed = base_seed;
        self
    }

    /// Attaches one axis label (e.g. `("ber", "0.002")`) for the artifacts.
    pub fn with_label(mut self, key: impl Into<String>, value: impl Into<String>) -> CellSpec {
        self.labels.push((key.into(), value.into()));
        self
    }

    /// The cell's stable identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The axis labels.
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }

    /// The repetition count.
    pub fn repetitions(&self) -> usize {
        self.repetitions
    }

    /// The base seed.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }
}

type TrialFn = Box<dyn Fn(u64, usize, EngineConfig) -> Vec<f64> + Send + Sync>;
type FoldFn = Box<dyn FnOnce(&SweepResults) -> Vec<FigureData>>;

struct Cell {
    spec: CellSpec,
    trial: TrialFn,
}

/// A figure expressed declaratively: cells plus a fold to [`FigureData`].
///
/// # Examples
///
/// ```
/// use navft_core::sweep::{CellSpec, Sweep};
/// use navft_core::{FigureData, Scale, Series};
///
/// let mut sweep = Sweep::new("demo", Scale::Smoke);
/// for ber in [0.001, 0.01] {
///     sweep.cell(CellSpec::new(format!("ber={ber}"), 10).with_label("ber", ber.to_string()),
///         move |seed, _rep, _cfg| (seed % 100) as f64 * ber);
/// }
/// sweep.fold(move |results| {
///     let points = [0.001, 0.01]
///         .iter()
///         .map(|&ber| (ber, results.mean(&format!("ber={ber}"))))
///         .collect();
///     vec![FigureData::lines("demo", "demo", "y vs BER", vec![Series::new("demo", points)])]
/// });
/// let figures = sweep.collect(2);
/// assert_eq!(figures.len(), 1);
/// ```
pub struct Sweep {
    id: String,
    scale: Scale,
    cells: Vec<Cell>,
    fold: Option<FoldFn>,
}

impl Sweep {
    /// An empty sweep named `id` (the figure id) at the given scale.
    pub fn new(id: impl Into<String>, scale: Scale) -> Sweep {
        Sweep { id: id.into(), scale, cells: Vec::new(), fold: None }
    }

    /// The sweep's figure id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The scale the sweep was built for.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the sweep has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The declared cell specs, in declaration order.
    pub fn cell_specs(&self) -> impl Iterator<Item = &CellSpec> {
        self.cells.iter().map(|c| &c.spec)
    }

    /// Adds a single-metric cell. The trial receives `(seed, rep, engine)`
    /// and must be a deterministic function of the first two (plus captured
    /// immutable state): the [`EngineConfig`] comes from
    /// [`RunOptions::engine`] and only steers *how* forward passes execute
    /// (the kernel choice) — the engine contract keeps results
    /// bit-identical at any config, so trials stay thread-count invariant.
    pub fn cell<F>(&mut self, spec: CellSpec, trial: F)
    where
        F: Fn(u64, usize, EngineConfig) -> f64 + Send + Sync + 'static,
    {
        self.cell_metrics(spec, move |seed, rep, cfg| vec![trial(seed, rep, cfg)]);
    }

    /// Adds a multi-metric cell: one trial computes several metrics at once
    /// (e.g. Fig. 9 extracts peak exploration, episodes-to-steady and
    /// recovery time from a single training run). Every repetition must
    /// return the same number of metrics.
    pub fn cell_metrics<F>(&mut self, spec: CellSpec, trial: F)
    where
        F: Fn(u64, usize, EngineConfig) -> Vec<f64> + Send + Sync + 'static,
    {
        self.cells.push(Cell { spec, trial: Box::new(trial) });
    }

    /// Sets the fold from cell summaries to figure data. Runs on the calling
    /// thread after every cell completed, and must be a deterministic
    /// function of the summaries (plus captured immutable state).
    pub fn fold<F>(&mut self, fold: F)
    where
        F: FnOnce(&SweepResults) -> Vec<FigureData> + 'static,
    {
        self.fold = Some(Box::new(fold));
    }

    /// Runs this sweep alone on `threads` workers (no artifacts, no resume)
    /// and returns its figures — how tests and examples run one figure
    /// standalone.
    pub fn collect(self, threads: usize) -> Vec<FigureData> {
        let options = RunOptions::new(threads);
        let report = run_sweeps(vec![self], &options).expect("in-memory run cannot fail on IO");
        report.figures.into_iter().flat_map(|(_, figures)| figures).collect()
    }
}

/// The per-cell summaries of one sweep, keyed by cell id.
pub struct SweepResults {
    cells: BTreeMap<String, Vec<Summary>>,
}

impl SweepResults {
    /// The summaries of cell `id`'s metrics, in metric order.
    ///
    /// # Panics
    ///
    /// Panics if the sweep declared no such cell — that is a driver bug
    /// (fold and builder disagree on an id), not a runtime condition.
    pub fn metrics(&self, id: &str) -> &[Summary] {
        self.cells.get(id).unwrap_or_else(|| panic!("sweep fold asked for undeclared cell {id:?}"))
    }

    /// The summary of cell `id`'s single (first) metric.
    pub fn summary(&self, id: &str) -> &Summary {
        &self.metrics(id)[0]
    }

    /// The mean of cell `id`'s first metric.
    pub fn mean(&self, id: &str) -> f64 {
        self.summary(id).mean()
    }

    /// The mean of cell `id`'s `metric`-th metric.
    pub fn metric_mean(&self, id: &str, metric: usize) -> f64 {
        self.metrics(id)[metric].mean()
    }

    /// The number of cells with results.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cell has results.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// A lazily built, shareable input (e.g. a trained base policy) for trial
/// closures.
///
/// Sweep builders run *before* the scheduler, so expensive shared inputs
/// must not be built eagerly: a fully resumed figure would otherwise train
/// its policies just to skip every cell. `Lazy` defers the build to the
/// first trial that needs it (thread-safe, built exactly once) and clones
/// cheaply into every cell closure.
pub struct Lazy<T> {
    cell: Arc<OnceLock<T>>,
    init: Arc<dyn Fn() -> T + Send + Sync>,
}

impl<T> Lazy<T> {
    /// Wraps `init`, deferring it until [`Lazy::get`] is first called.
    pub fn new(init: impl Fn() -> T + Send + Sync + 'static) -> Lazy<T> {
        Lazy { cell: Arc::new(OnceLock::new()), init: Arc::new(init) }
    }

    /// The value, building it on first use.
    pub fn get(&self) -> &T {
        self.cell.get_or_init(|| (self.init)())
    }
}

impl<T> Clone for Lazy<T> {
    fn clone(&self) -> Self {
        Lazy { cell: Arc::clone(&self.cell), init: Arc::clone(&self.init) }
    }
}

/// How to execute a set of sweeps.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads for the shared scheduler.
    pub threads: usize,
    /// Artifact directory: enables the journal and per-figure files.
    pub out_dir: Option<PathBuf>,
    /// Skip cells whose fingerprint already has a journal record
    /// (requires `out_dir`).
    pub resume: bool,
    /// Emit a progress line to stderr as cells complete.
    pub progress: bool,
    /// The engine configuration handed to every trial. Engine sweeps run on
    /// the trial's own thread, so `threads` is the total worker count.
    /// Results are bit-identical at any engine config (the engine
    /// contract), so this never affects artifacts.
    pub engine: EngineConfig,
}

impl RunOptions {
    /// In-memory execution on `threads` workers: no artifacts, no resume,
    /// no progress output, default (best-kernel) engine config.
    pub fn new(threads: usize) -> RunOptions {
        RunOptions {
            threads,
            out_dir: None,
            resume: false,
            progress: false,
            engine: EngineConfig::default(),
        }
    }
}

/// The outcome of [`run_sweeps`].
pub struct RunReport {
    /// `(figure id, figures)` for every sweep, in request order.
    pub figures: Vec<(String, Vec<FigureData>)>,
    /// Cells actually executed by this run.
    pub executed_cells: usize,
    /// Cells skipped because the journal already had their record.
    pub resumed_cells: usize,
    /// Total cells across all sweeps.
    pub total_cells: usize,
}

/// FNV-1a 64-bit, the artifact fingerprint hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The fingerprint of `spec` within sweep `sweep_id` at `scale`.
pub fn fingerprint(scale: Scale, sweep_id: &str, spec: &CellSpec) -> u64 {
    let key = format!(
        "{scale:?}\u{1f}{sweep_id}\u{1f}{}\u{1f}{}\u{1f}{}",
        spec.id, spec.repetitions, spec.base_seed
    );
    fnv1a(key.as_bytes())
}

/// Executes every cell of `sweeps` on one shared work-stealing scheduler,
/// folds each sweep into its figures, and (with an `out_dir`) writes the
/// journal and per-figure artifacts. See the [module docs](self) for the
/// determinism and resume contracts.
///
/// # Errors
///
/// Returns any artifact-directory IO error. In-memory runs cannot fail.
///
/// # Panics
///
/// Panics on duplicate cell ids within a sweep or fingerprint collisions
/// across the run — both are driver bugs.
pub fn run_sweeps(sweeps: Vec<Sweep>, options: &RunOptions) -> std::io::Result<RunReport> {
    // Decompose the sweeps: specs and trials feed the scheduler, folds run
    // afterwards on this thread.
    struct Parts {
        id: String,
        specs: Vec<CellSpec>,
        fingerprints: Vec<u64>,
        fold: Option<FoldFn>,
    }
    let mut parts: Vec<Parts> = Vec::with_capacity(sweeps.len());
    let mut trials: Vec<Vec<TrialFn>> = Vec::with_capacity(sweeps.len());
    let mut seen_fingerprints: HashMap<u64, String> = HashMap::new();
    for sweep in sweeps {
        let mut ids = HashSet::new();
        let mut specs = Vec::with_capacity(sweep.cells.len());
        let mut fingerprints = Vec::with_capacity(sweep.cells.len());
        let mut sweep_trials = Vec::with_capacity(sweep.cells.len());
        for cell in sweep.cells {
            assert!(
                ids.insert(cell.spec.id.clone()),
                "sweep {:?} declares cell {:?} twice",
                sweep.id,
                cell.spec.id
            );
            let fp = fingerprint(sweep.scale, &sweep.id, &cell.spec);
            if let Some(other) =
                seen_fingerprints.insert(fp, format!("{}/{}", sweep.id, cell.spec.id))
            {
                panic!("fingerprint collision between {other:?} and {}/{}", sweep.id, cell.spec.id);
            }
            fingerprints.push(fp);
            specs.push(cell.spec);
            sweep_trials.push(cell.trial);
        }
        parts.push(Parts { id: sweep.id, specs, fingerprints, fold: sweep.fold });
        trials.push(sweep_trials);
    }

    // Load the journal and split cells into resumed and pending. The loaded
    // lines are kept so the resume path can rewrite the journal cleanly
    // (dropping any torn tail a killed run left behind, deduplicating
    // fingerprints) before appending new records to it.
    let journal_path = options.out_dir.as_ref().map(|dir| dir.join(artifact::JOURNAL_FILE));
    let mut journal: HashMap<u64, Vec<Summary>> = HashMap::new();
    let mut journal_lines: Vec<String> = Vec::new();
    if options.resume {
        if let Some(path) = &journal_path {
            if let Ok(text) = std::fs::read_to_string(path) {
                (journal, journal_lines) = artifact::sanitize_journal(&text);
            }
        }
    }

    let mut results: Vec<BTreeMap<String, Vec<Summary>>> =
        parts.iter().map(|_| BTreeMap::new()).collect();
    let mut pending: Vec<(usize, usize)> = Vec::new();
    let mut plans: Vec<CellPlan> = Vec::new();
    let mut resumed_cells = 0usize;
    let mut total_cells = 0usize;
    for (sweep_index, part) in parts.iter().enumerate() {
        for (cell_index, spec) in part.specs.iter().enumerate() {
            total_cells += 1;
            let fp = part.fingerprints[cell_index];
            if let Some(summaries) = journal.get(&fp) {
                results[sweep_index].insert(spec.id.clone(), summaries.clone());
                resumed_cells += 1;
            } else {
                pending.push((sweep_index, cell_index));
                plans.push(CellPlan {
                    repetitions: spec.repetitions,
                    // The per-repetition seed stream is rooted at the
                    // fingerprint, as the cell's stable identity.
                    base_seed: fp,
                });
            }
        }
    }

    // (Re-)create the journal: a fresh run starts it empty (no stale records
    // from earlier runs), a resume rewrites only the sanitized surviving
    // records so a torn tail can never fuse with the next appended line.
    let mut appender = match (&options.out_dir, &journal_path) {
        (Some(dir), Some(path)) => {
            std::fs::create_dir_all(dir)?;
            let mut file = std::fs::File::create(path)?;
            for line in &journal_lines {
                writeln!(file, "{line}")?;
            }
            file.flush()?;
            Some(file)
        }
        _ => None,
    };

    let executed_cells = pending.len();
    let started = std::time::Instant::now();
    let mut done = 0usize;
    let mut io_error: Option<std::io::Error> = None;
    // Completed cells whose record is not yet written: the journal appends
    // strictly in declaration order (cells that finish early buffer here
    // until every earlier-declared cell has completed), so its bytes are
    // identical at any thread count. A killed run loses at most the cells
    // behind an in-flight predecessor.
    let mut journal_buffer: Vec<Option<String>> = vec![None; pending.len()];
    let mut flushed = 0usize;
    {
        let trial = |k: usize, seed: u64, rep: usize, engine: EngineConfig| {
            let (sweep_index, cell_index) = pending[k];
            (trials[sweep_index][cell_index])(seed, rep, engine)
        };
        let on_cell_done = |k: usize, per_rep: Vec<Vec<f64>>| {
            let (sweep_index, cell_index) = pending[k];
            let part = &parts[sweep_index];
            let spec = &part.specs[cell_index];
            let summaries = summarize_metrics(&per_rep);
            if appender.is_some() {
                journal_buffer[k] = Some(artifact::record_line(
                    part.fingerprints[cell_index],
                    &part.id,
                    &spec.id,
                    &spec.labels,
                    spec.repetitions,
                    &summaries,
                ));
            }
            if let Some(file) = &mut appender {
                // Drain the longest completed prefix, then flush once so the
                // written records survive a kill; remember the first error,
                // keep computing.
                let mut wrote = false;
                while let Some(slot) = journal_buffer.get_mut(flushed) {
                    let Some(line) = slot.take() else { break };
                    if let Err(e) = writeln!(file, "{line}") {
                        io_error.get_or_insert(e);
                    }
                    flushed += 1;
                    wrote = true;
                }
                if wrote {
                    if let Err(e) = file.flush() {
                        io_error.get_or_insert(e);
                    }
                }
            }
            results[sweep_index].insert(spec.id.clone(), summaries);
            done += 1;
            if options.progress {
                eprint!(
                    "\r[figures] {done}/{executed_cells} cells ({resumed_cells} resumed, {:.0} s)   ",
                    started.elapsed().as_secs_f64()
                );
            }
        };
        run_cells(&plans, options.threads.max(1), options.engine, trial, on_cell_done);
    }
    if options.progress && executed_cells > 0 {
        eprintln!();
    }
    if let Some(e) = io_error {
        return Err(e);
    }

    // Fold each sweep and write its artifacts in declaration order, so the
    // per-figure files are deterministic regardless of completion order.
    let mut figures = Vec::with_capacity(parts.len());
    for (sweep_index, part) in parts.into_iter().enumerate() {
        let cells = std::mem::take(&mut results[sweep_index]);
        if let Some(dir) = &options.out_dir {
            let mut jsonl = String::new();
            for (cell_index, spec) in part.specs.iter().enumerate() {
                let summaries = &cells[&spec.id];
                jsonl.push_str(&artifact::record_line(
                    part.fingerprints[cell_index],
                    &part.id,
                    &spec.id,
                    &spec.labels,
                    spec.repetitions,
                    summaries,
                ));
                jsonl.push('\n');
            }
            std::fs::write(dir.join(format!("{}.jsonl", part.id)), jsonl)?;
        }
        let sweep_results = SweepResults { cells };
        let data = match part.fold {
            Some(fold) => fold(&sweep_results),
            None => Vec::new(),
        };
        if let Some(dir) = &options.out_dir {
            let rendered: String = data.iter().map(FigureData::render).collect();
            std::fs::write(dir.join(format!("{}.txt", part.id)), rendered)?;
        }
        figures.push((part.id, data));
    }

    Ok(RunReport { figures, executed_cells, resumed_cells, total_cells })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_sweep(scale: Scale) -> Sweep {
        let mut sweep = Sweep::new("synthetic", scale);
        for cell in 0..4 {
            sweep.cell_metrics(
                CellSpec::new(format!("cell{cell}"), 3 + cell)
                    .with_seed(cell as u64)
                    .with_label("cell", cell.to_string()),
                move |seed, rep, _cfg| vec![(seed % 1000) as f64, (cell * 100 + rep) as f64],
            );
        }
        sweep.fold(|results| {
            let points =
                (0..4).map(|c| (c as f64, results.metric_mean(&format!("cell{c}"), 1))).collect();
            vec![FigureData::lines(
                "synthetic",
                "synthetic",
                "metric vs cell",
                vec![crate::Series::new("mean", points)],
            )]
        });
        sweep
    }

    #[test]
    fn collect_is_thread_count_invariant() {
        let one = synthetic_sweep(Scale::Smoke).collect(1);
        let four = synthetic_sweep(Scale::Smoke).collect(4);
        assert_eq!(one, four);
    }

    #[test]
    fn fingerprints_depend_on_scale_sweep_id_and_spec() {
        let spec = CellSpec::new("a", 5).with_seed(9);
        let base = fingerprint(Scale::Smoke, "fig5", &spec);
        assert_eq!(base, fingerprint(Scale::Smoke, "fig5", &spec));
        assert_ne!(base, fingerprint(Scale::Quick, "fig5", &spec));
        assert_ne!(base, fingerprint(Scale::Smoke, "fig4", &spec));
        assert_ne!(base, fingerprint(Scale::Smoke, "fig5", &CellSpec::new("b", 5).with_seed(9)));
        assert_ne!(base, fingerprint(Scale::Smoke, "fig5", &CellSpec::new("a", 6).with_seed(9)));
        assert_ne!(base, fingerprint(Scale::Smoke, "fig5", &CellSpec::new("a", 5).with_seed(8)));
        // Labels are presentation only and do not change identity.
        assert_eq!(
            base,
            fingerprint(
                Scale::Smoke,
                "fig5",
                &CellSpec::new("a", 5).with_seed(9).with_label("k", "v")
            )
        );
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn duplicate_cell_ids_are_rejected() {
        let mut sweep = Sweep::new("dup", Scale::Smoke);
        sweep.cell(CellSpec::new("same", 1), |_, _, _| 0.0);
        sweep.cell(CellSpec::new("same", 1), |_, _, _| 1.0);
        let _ = sweep.collect(1);
    }

    #[test]
    fn lazy_builds_once_and_shares() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let builds = Arc::new(AtomicUsize::new(0));
        let lazy = {
            let builds = builds.clone();
            Lazy::new(move || {
                builds.fetch_add(1, Ordering::SeqCst);
                42usize
            })
        };
        let clone = lazy.clone();
        assert_eq!(builds.load(Ordering::SeqCst), 0);
        assert_eq!(*lazy.get(), 42);
        assert_eq!(*clone.get(), 42);
        assert_eq!(builds.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn zero_metric_fold_access_panics_with_cell_name() {
        let mut sweep = Sweep::new("empty", Scale::Smoke);
        sweep.cell(CellSpec::new("present", 1), |_, _, _| 1.0);
        sweep.fold(|results| {
            assert_eq!(results.len(), 1);
            assert!(!results.is_empty());
            assert_eq!(results.mean("present"), results.summary("present").mean());
            vec![]
        });
        assert!(sweep.collect(1).is_empty());
    }
}
