//! The traced run's in-memory span recorder.
//!
//! Spans are recorded only from the benchmark's own code, around calls into
//! the navft crates' public functions and inside the timing shims the
//! benchmark wraps around caller-supplied environments and hooks. Each
//! thread appends to its own log (registered once in a global list, so logs
//! of library-spawned worker threads survive those threads); nothing is
//! written until the run ends.
//!
//! Three record kinds:
//!
//! * **spans** — name, start, end, parent span (same thread), and the trial
//!   or request id they belong to;
//! * **leaves** — fine-grained calls (an environment step, one hook call)
//!   aggregated as count + total nanoseconds per name, and charged to the
//!   innermost open span as child time, so a span's self time excludes them
//!   without storing millions of spans;
//! * **counts** — plain named counters (rows, bits struck, values scrubbed).
//!
//! A layer's self time is its span's duration minus the union of its child
//! spans' intervals and minus the leaf time charged to it ([`self_times`]).
//! With tracing off every entry point is one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static LOGS: Mutex<Vec<Arc<Mutex<ThreadLog>>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Option<Arc<Mutex<ThreadLog>>>> = const { RefCell::new(None) };
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `rl.train`.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace epoch.
    pub start: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end: u64,
    /// Index of the enclosing span in the same [`Trace::spans`] list.
    pub parent: Option<usize>,
    /// The trial or request this span belongs to.
    pub id: u64,
    /// Recording thread (registration order).
    pub thread: usize,
    /// Leaf time charged to this span (see the module docs).
    pub leaf_ns: u64,
}

#[derive(Default)]
struct ThreadLog {
    thread: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
    leaves: Vec<(&'static str, u64, u64)>,
    counts: Vec<(&'static str, u64)>,
}

/// Everything recorded since the last [`take`].
#[derive(Debug, Default)]
pub struct Trace {
    /// All spans; `parent` indices point into this list.
    pub spans: Vec<Span>,
    /// `name -> (calls, total ns)` of the leaf records.
    pub leaves: BTreeMap<&'static str, (u64, u64)>,
    /// `name -> total` of the counters.
    pub counts: BTreeMap<&'static str, u64>,
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recording is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The trace-epoch timestamp of `instant`.
pub fn ns_of(instant: Instant) -> u64 {
    instant.saturating_duration_since(*EPOCH.get_or_init(Instant::now)).as_nanos() as u64
}

fn with_log<R>(f: impl FnOnce(&mut ThreadLog) -> R) -> R {
    LOCAL.with(|local| {
        let mut slot = local.borrow_mut();
        let log = slot.get_or_insert_with(|| {
            let mut logs = LOGS.lock().expect("trace registry lock");
            let log =
                Arc::new(Mutex::new(ThreadLog { thread: logs.len(), ..ThreadLog::default() }));
            logs.push(Arc::clone(&log));
            log
        });
        let mut guard = log.lock().expect("thread log lock");
        f(&mut guard)
    })
}

/// An open span; closes when dropped.
#[must_use = "a span closes when the guard drops"]
pub struct SpanGuard {
    open: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.open {
            let end = now_ns();
            with_log(|log| {
                if let Some(index) = log.open.pop() {
                    log.spans[index].end = end;
                }
            });
        }
    }
}

/// Opens a span named `name` for trial or request `id`, nested in the
/// thread's innermost open span. Inert while tracing is off.
pub fn span(name: &'static str, id: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: false };
    }
    let start = now_ns();
    with_log(|log| {
        let parent = log.open.last().copied();
        let thread = log.thread;
        log.spans.push(Span { name, start, end: start, parent, id, thread, leaf_ns: 0 });
        let index = log.spans.len() - 1;
        log.open.push(index);
    });
    SpanGuard { open: true }
}

/// Runs `f` inside a span named `name`.
pub fn timed<R>(name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
    let _span = span(name, id);
    f()
}

/// Records a closed span with explicit timestamps (an interval the
/// benchmark observed rather than a call it made), nested in `parent` if
/// given, else in the thread's innermost open span. Returns its index in
/// this thread's log, or `None` while tracing is off.
pub fn record(
    name: &'static str,
    id: u64,
    start: u64,
    end: u64,
    parent: Option<usize>,
) -> Option<usize> {
    if !enabled() {
        return None;
    }
    Some(with_log(|log| {
        let parent = parent.or_else(|| log.open.last().copied());
        let thread = log.thread;
        log.spans.push(Span { name, start, end, parent, id, thread, leaf_ns: 0 });
        log.spans.len() - 1
    }))
}

/// Runs `f` as a leaf call named `name`: its duration is aggregated under
/// the name and charged to the innermost open span.
#[inline]
pub fn leaf<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let result = f();
    let ns = start.elapsed().as_nanos() as u64;
    with_log(|log| {
        if let Some(&index) = log.open.last() {
            log.spans[index].leaf_ns += ns;
        }
        match log.leaves.iter_mut().find(|(n, _, _)| *n == name) {
            Some(entry) => {
                entry.1 += 1;
                entry.2 += ns;
            }
            None => log.leaves.push((name, 1, ns)),
        }
    });
    result
}

/// Adds `n` to the counter `name`.
pub fn count(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    with_log(|log| match log.counts.iter_mut().find(|(c, _)| *c == name) {
        Some(entry) => entry.1 += n,
        None => log.counts.push((name, n)),
    });
}

/// Drains every thread's log into one [`Trace`]. Call after every thread
/// that recorded has finished its work.
pub fn take() -> Trace {
    let logs = LOGS.lock().expect("trace registry lock");
    let mut trace = Trace::default();
    for log in logs.iter() {
        let mut log = log.lock().expect("thread log lock");
        let offset = trace.spans.len();
        for mut span in log.spans.drain(..) {
            span.parent = span.parent.map(|p| p + offset);
            trace.spans.push(span);
        }
        log.open.clear();
        for (name, calls, ns) in log.leaves.drain(..) {
            let entry = trace.leaves.entry(name).or_default();
            entry.0 += calls;
            entry.1 += ns;
        }
        for (name, n) in log.counts.drain(..) {
            *trace.counts.entry(name).or_default() += n;
        }
    }
    trace
}

/// Each span's self time: its duration minus the union of its children's
/// intervals (clipped to the span) minus its charged leaf time.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(span.end));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.end - span.start).saturating_sub(covered).saturating_sub(span.leaf_ns)
        })
        .collect()
}

impl Trace {
    /// Total self time (ns) and span count per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            let entry = totals.entry(span.name).or_default();
            entry.0 += own;
            entry.1 += 1;
        }
        totals
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).collect()
    }

    /// Mean nanoseconds per call of leaf `name` (0 when never called).
    pub fn leaf_mean_ns(&self, name: &str) -> f64 {
        match self.leaves.get(name) {
            Some(&(calls, ns)) if calls > 0 => ns as f64 / calls as f64,
            _ => 0.0,
        }
    }

    /// Counter `name` (0 when never counted).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Writes one JSON line per span (with its self time), then the leaf
    /// and counter totals.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{},\"thread\":{},\"self_ns\":{own}}}",
                span.name, span.start, span.end, span.id, span.thread
            )?;
        }
        for (name, (calls, ns)) in &self.leaves {
            writeln!(out, "{{\"leaf\":\"{name}\",\"calls\":{calls},\"ns\":{ns}}}")?;
        }
        for (name, n) in &self.counts {
            writeln!(out, "{{\"count\":\"{name}\",\"value\":{n}}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, leaf_ns: u64) -> Span {
        Span { name, start, end, parent, id: 0, thread: 0, leaf_ns }
    }

    #[test]
    fn self_time_subtracts_nested_children_and_leaves() {
        // trial [0, 100) contains train [10, 60) and eval [70, 90);
        // train contains a nested sample span [20, 30) and 5 ns of leaves.
        let spans = vec![
            span("trial", 0, 100, None, 0),
            span("train", 10, 60, Some(0), 5),
            span("eval", 70, 90, Some(0), 0),
            span("sample", 20, 30, Some(1), 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 35, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        // Children [10, 50) and [40, 80) overlap on [40, 50); a third
        // child [90, 130) overhangs the parent's end at 100.
        let spans = vec![
            span("parent", 0, 100, None, 0),
            span("a", 10, 50, Some(0), 0),
            span("b", 40, 80, Some(0), 0),
            span("c", 90, 130, Some(0), 0),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn self_time_never_underflows() {
        let spans = vec![span("p", 0, 10, None, 50), span("c", 0, 10, Some(0), 0)];
        assert_eq!(self_times(&spans)[0], 0);
    }
}
