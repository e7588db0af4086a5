//! The navft benchmark: one command per workload and seed.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid-campaign --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `grid-campaign`, `drone-inference`, `serve-open-loop` (see
//! `perfbench/README.md`). Run from the repository root; artifacts, span
//! dumps and a results log go to `.bench_out/`. The last stdout line is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics (from a
//! traced pass that follows an untraced one) with `--trace 1`.

mod calib;
mod campaign;
mod drone;
mod grid;
mod host;
mod openloop;
mod serve;
mod shims;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use campaign::{BuildFn, Counters, Pass};
use stats::{median, percentile};

/// Set-up runs per benchmark run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Cells of round 0 recomputed serially and compared.
const RECOMPUTE_CELLS: usize = 2;

/// End-to-end metrics and units, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("max_rate_rows_per_s", "rows/s"),
    ("p50_ms.low", "ms"),
    ("p99_ms.low", "ms"),
    ("p50_ms.high", "ms"),
    ("p99_ms.high", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and units, printed with `--trace 1`; a layer a
/// workload never runs reports 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("rl.train_ms", "ms"),
    ("rl.train_steps", "count"),
    ("rl.eval_ms", "ms"),
    ("rl.rollout_ns_per_row.f32", "ns"),
    ("rl.rollout_ns_per_row.q4_11", "ns"),
    ("rl.rollout_ns_per_row.q7_8", "ns"),
    ("rl.rollout_ns_per_row.i8", "ns"),
    ("rl.rollout_rows", "count"),
    ("rl.train_frac", "fraction"),
    ("rl.rollout_frac", "fraction"),
    ("gridworld.step_ns", "ns"),
    ("dronesim.step_us", "us"),
    ("dronesim.reset_us", "us"),
    ("fault.sample_us", "us"),
    ("fault.hook_ns", "ns"),
    ("fault.strike_ns", "ns"),
    ("fault.faults", "count"),
    ("mitigation.observe_ns", "ns"),
    ("mitigation.scrub_us", "us"),
    ("mitigation.scrub_row_ns", "ns"),
    ("mitigation.scrubbed", "count"),
    ("core.trial_ms.p50", "ms"),
    ("core.trial_ms.p90", "ms"),
    ("core.idle_frac", "fraction"),
    ("core.artifact_ms", "ms"),
    ("core.policy_train_s", "s"),
    ("nn.quantize_ms", "ms"),
    ("serve.open_ms", "ms"),
    ("serve.submit_us.p50", "us"),
    ("serve.submit_us.p99", "us"),
    ("serve.resolve_ms.p50", "ms"),
    ("serve.resolve_ms.p99", "ms"),
    ("serve.rows_per_batch.low", "rows"),
    ("serve.rows_per_batch.high", "rows"),
    ("serve.rejected", "count"),
    ("bench.gen_late_ms.p99", "ms"),
    ("bench.trace_overhead_frac", "fraction"),
];

const USAGE: &str = "usage: perfbench --workload <grid-campaign|drone-inference|serve-open-loop> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// The benchmarked sources' digest ([`host::source_digest`]).
    source: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        source: String::new(),
    })
}

/// What a workload reports.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: BTreeMap<&'static str, f64>,
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("current directory");
    args.source = host::source_digest(&root);
    let out = root.join(".bench_out");
    if let Err(error) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {error}", out.display());
        return ExitCode::FAILURE;
    }
    let mut outcome = match args.workload.as_str() {
        "grid-campaign" | "drone-inference" => run_campaign(&args, &out),
        "serve-open-loop" => run_serve(&args, &out),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    outcome.metrics.insert("peak_rss_mb", host::peak_rss_mb());
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(value))
        })
        .collect();
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    let (cpu, cpus, kernel) = host::fingerprint();
    let context = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"revision\": \"{}\", \
         \"cpu\": \"{}\", \"nproc\": {cpus}, \"simd_kernel\": \"{kernel}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        host::revision(&root, &args.source),
        cpu.replace('"', "'"),
    );
    let record = format!("{{\"context\": {context}, \"result\": {result}}}\n");
    if let Err(error) = append(&out.join("results.jsonl"), &record) {
        eprintln!("perfbench: cannot append the results log: {error}");
    }
    println!("{context}");
    println!("{result}");
    ExitCode::SUCCESS
}

fn append(path: &Path, line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    std::fs::OpenOptions::new().create(true).append(true).open(path)?.write_all(line.as_bytes())
}

/// A finite JSON number (non-finite values print as 0).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn ms(ns: u32) -> f64 {
    f64::from(ns) / 1e6
}

/// The median of set-up wall times, scaled to the reference host speed by
/// the slowdown over every probe of the run: the set-up code is the
/// program's own, mostly with no shim to probe from.
fn scaled_setup(times: &[f64]) -> f64 {
    let slowdown = calib::run_slowdown().unwrap_or(1.0);
    let timed: Vec<String> = times.iter().map(|s| format!("{s:.3}")).collect();
    eprintln!(
        "perfbench: set-up runs (s as timed) {}, run host slowdown {slowdown:.3}",
        timed.join(" ")
    );
    median(times).expect("set-up times") / slowdown
}

fn run_campaign(args: &Args, out: &Path) -> Outcome {
    let mut metrics = BTreeMap::new();
    let drone = args.workload == "drone-inference";
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut set_up = |metrics: &mut BTreeMap<&'static str, f64>| -> Box<BuildFn> {
        if drone {
            let (policies, times) = drone::setup();
            metrics.insert("core.policy_train_s", times.train);
            metrics.insert("nn.quantize_ms", times.quantize * 1e3);
            setup_times.push(times.total);
            Box::new(drone::builder(Arc::new(policies)))
        } else {
            setup_times.push(grid::setup());
            Box::new(grid::build)
        }
    };
    let build = set_up(&mut metrics);
    // A traced run alternates untraced and traced rounds, so it gets twice
    // the budget: each pass still measures `seconds` of rounds.
    let budget = Duration::from_secs_f64(args.seconds * if args.trace { 2.0 } else { 1.0 });
    let dir = out.join(&args.workload);
    let counters = Arc::new(Counters::default());
    // The other set-up runs are spread between the rounds: the host's speed
    // holds for seconds at a time, and set-up runs in one spell would all
    // see that spell's speed rather than the run's.
    let (mut untraced, traced) = campaign::run_pass(
        &*build,
        &counters,
        args.seed,
        budget,
        &dir.join("rounds"),
        args.trace,
        (SETUP_REPEATS - 1, &mut || drop(set_up(&mut metrics))),
    );
    let (attempted, failed) = counters.snapshot();
    metrics.insert("setup_s", scaled_setup(&setup_times));
    let mut digests_agree = true;
    if let Some(traced) = traced {
        digests_agree = untraced.digests == traced.digests;
        let overhead = 1.0 - traced.trials_per_s() / untraced.trials_per_s();
        let spans = trace::take();
        campaign_layers(&spans, &traced, overhead, &mut metrics);
        let dump = out.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(error) = spans.write_jsonl(&dump) {
            eprintln!("perfbench: cannot write {}: {error}", dump.display());
        }
    } else {
        // Every figure is at the reference host speed (see `calib`); the
        // timed ones go to stderr.
        metrics.insert("trials_per_s", untraced.scaled_trials_per_s());
        metrics.insert("max_rate_rows_per_s", untraced.scaled_rows_per_s());
        eprintln!(
            "perfbench: {} trials, {} rows in {:.2} s as timed ({:.3} trials/s), host slowdown {:.3}",
            untraced.trials,
            untraced.rows,
            untraced.wall.as_secs_f64(),
            untraced.trials_per_s(),
            untraced.slowdown
        );
        // A closed batch job runs at one load level: both rate labels
        // report the same decision-tick latency, of the work that fills its
        // trials (grid: an NN training step; drone: a batched rollout tick).
        untraced.ticks.sort_unstable();
        for (name, p) in [
            ("p50_ms.low", 50.0),
            ("p99_ms.low", 99.0),
            ("p50_ms.high", 50.0),
            ("p99_ms.high", 99.0),
        ] {
            if let Some(ns) = percentile(&untraced.ticks, p) {
                metrics.insert(name, ms(ns));
            }
        }
    }
    // Digests are compared only between runs of the same sources: a change
    // to the benchmarked code may legitimately change artifacts.
    let key = format!("{}-{}-{}", args.workload, args.seed, args.source);
    let mismatched = campaign::check_stored_digests(&out.join("digests"), &key, &untraced.digests);
    let recomputed = campaign::serial_recompute_matches(
        &*build,
        args.seed,
        RECOMPUTE_CELLS,
        &untraced.journal0,
        &dir.join("serial"),
    );
    if !mismatched.is_empty() {
        eprintln!("perfbench: rounds {mismatched:?} differ from an earlier run with this seed");
    }
    if !digests_agree {
        eprintln!("perfbench: traced rounds differ from untraced rounds");
    }
    if !recomputed {
        eprintln!("perfbench: serially recomputed cells differ from the parallel run");
    }
    Outcome {
        correct: mismatched.is_empty() && digests_agree && recomputed && failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// Per-layer metrics of a traced campaign pass.
fn campaign_layers(
    spans: &trace::Trace,
    pass: &Pass,
    overhead: f64,
    metrics: &mut BTreeMap<&'static str, f64>,
) {
    let own = spans.self_by_name();
    let self_ns = |name: &str| own.get(name).map_or(0.0, |&(ns, _)| ns as f64);
    let per_call =
        |name: &str| own.get(name).map_or(0.0, |&(ns, calls)| ns as f64 / calls.max(1) as f64);
    let mut trials = spans.durations("core.trial");
    let trial_total: f64 = trials.iter().map(|&ns| ns as f64).sum();
    trials.sort_unstable();

    metrics.insert("rl.train_ms", per_call("rl.train") / 1e6);
    metrics.insert("rl.train_steps", spans.count("rl.train_steps") as f64);
    metrics.insert("rl.eval_ms", per_call("rl.eval") / 1e6);
    let mut rollout_self = 0.0;
    let mut rollout_rows = 0u64;
    for (backend, metric, rows) in [
        ("rl.rollout.f32", "rl.rollout_ns_per_row.f32", "rl.rollout_rows.f32"),
        ("rl.rollout.q4_11", "rl.rollout_ns_per_row.q4_11", "rl.rollout_rows.q4_11"),
        ("rl.rollout.q7_8", "rl.rollout_ns_per_row.q7_8", "rl.rollout_rows.q7_8"),
        ("rl.rollout.i8", "rl.rollout_ns_per_row.i8", "rl.rollout_rows.i8"),
    ] {
        let n = spans.count(rows);
        rollout_self += self_ns(backend);
        rollout_rows += n;
        metrics.insert(metric, if n > 0 { self_ns(backend) / n as f64 } else { 0.0 });
    }
    metrics.insert("rl.rollout_rows", rollout_rows as f64);
    if trial_total > 0.0 {
        metrics.insert("rl.train_frac", self_ns("rl.train") / trial_total);
        metrics.insert("rl.rollout_frac", rollout_self / trial_total);
    }
    metrics.insert("gridworld.step_ns", spans.leaf_mean_ns("gridworld.step"));
    metrics.insert("dronesim.step_us", spans.leaf_mean_ns("dronesim.step") / 1e3);
    metrics.insert("dronesim.reset_us", spans.leaf_mean_ns("dronesim.reset") / 1e3);
    metrics.insert("fault.sample_us", per_call("fault.sample") / 1e3);
    metrics.insert("fault.hook_ns", spans.leaf_mean_ns("fault.hook"));
    metrics.insert("fault.faults", spans.count("fault.faults") as f64);
    metrics.insert("mitigation.observe_ns", spans.leaf_mean_ns("mitigation.observe"));
    metrics.insert("mitigation.scrub_us", per_call("mitigation.scrub") / 1e3);
    metrics.insert("mitigation.scrubbed", spans.count("mitigation.scrubbed") as f64);
    if let Some(p50) = percentile(&trials, 50.0) {
        metrics.insert("core.trial_ms.p50", p50 as f64 / 1e6);
    }
    if let Some(p90) = percentile(&trials, 90.0) {
        metrics.insert("core.trial_ms.p90", p90 as f64 / 1e6);
    }
    // Idle share: worker-time with no trial running over workers × wall.
    let rounds: Vec<&trace::Span> = spans.spans.iter().filter(|s| s.name == "core.round").collect();
    let round_total: f64 = rounds.iter().map(|r| (r.end - r.start) as f64).sum();
    if round_total > 0.0 {
        metrics
            .insert("core.idle_frac", 1.0 - trial_total / (campaign::WORKERS as f64 * round_total));
    }
    // Artifact tail: from a round's last trial end to the round's end (the
    // fold plus the per-figure JSONL writing).
    let tails: Vec<f64> = rounds
        .iter()
        .map(|round| {
            let last = spans
                .spans
                .iter()
                .filter(|s| s.name == "core.trial" && s.start >= round.start && s.end <= round.end)
                .map(|s| s.end)
                .max()
                .unwrap_or(round.start);
            (round.end - last) as f64 / 1e6
        })
        .collect();
    if !tails.is_empty() {
        metrics.insert("core.artifact_ms", tails.iter().sum::<f64>() / tails.len() as f64);
    }
    metrics.insert("bench.trace_overhead_frac", overhead);
    eprintln!(
        "perfbench: traced pass {} trials, {} decision rows, trace overhead {:.3}",
        pass.trials, pass.rows, overhead
    );
}

fn run_serve(args: &Args, out: &Path) -> Outcome {
    let mut metrics = BTreeMap::new();
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut served = None;
    for _ in 0..SETUP_REPEATS {
        let (fresh, times) = serve::setup(args.seed);
        metrics.insert("core.policy_train_s", times.train);
        metrics.insert("serve.open_ms", times.open * 1e3);
        setup_times.push(times.total);
        if let Some(stale) = served.replace(fresh) {
            serve::shutdown(stale);
        }
    }
    let served = served.expect("at least one set-up");
    metrics.insert("setup_s", scaled_setup(&setup_times));
    let mut replay = serve::replay_slots(&served, args.seed);
    let untraced = serve::run_schedule(&served, args.seconds, args.seed, &mut replay);
    let (mut attempted, mut failed) = untraced.attempted_failed();
    if args.trace {
        trace::set_enabled(true);
        let traced = serve::run_schedule(&served, args.seconds, args.seed, &mut replay);
        trace::set_enabled(false);
        let (traced_attempted, traced_failed) = traced.attempted_failed();
        attempted += traced_attempted;
        failed += traced_failed;
        serve_layers(&traced, &untraced, &mut metrics);
    } else {
        metrics.insert("trials_per_s", untraced.high.achieved());
        metrics.insert("max_rate_rows_per_s", untraced.max_rate());
        for (phase, p50, p99) in [
            (&untraced.low, "p50_ms.low", "p99_ms.low"),
            (&untraced.high, "p50_ms.high", "p99_ms.high"),
        ] {
            if let Some(v) = phase.p50_ms() {
                metrics.insert(p50, v);
            }
            if let Some(v) = phase.p99_ms() {
                metrics.insert(p99, v);
            }
        }
        eprintln!(
            "perfbench: saturated blocks served {:.0} rows/s, {:.1} rows per batch",
            untraced.max_rate(),
            untraced.saturated.rows as f64 / untraced.saturated.batches.max(1) as f64
        );
    }
    let replayed = serve::replay_matches(&served, &replay);
    serve::shutdown(served);
    let spans = trace::take();
    if args.trace {
        let dump = out.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(error) = spans.write_jsonl(&dump) {
            eprintln!("perfbench: cannot write {}: {error}", dump.display());
        }
        metrics.insert("fault.strike_ns", spans.leaf_mean_ns("fault.strike"));
        metrics.insert("fault.faults", spans.count("fault.faults") as f64);
        metrics.insert("mitigation.scrub_row_ns", spans.leaf_mean_ns("mitigation.scrub_row"));
        metrics.insert("mitigation.scrubbed", spans.count("mitigation.scrubbed") as f64);
    }
    if !replayed {
        eprintln!("perfbench: replayed sessions differ from the served decisions");
    }
    Outcome { correct: replayed && failed == 0, attempted, failed, metrics }
}

/// Per-layer metrics of a traced serve pass (`untraced` gives the overhead
/// baseline).
fn serve_layers(
    traced: &serve::Schedule,
    untraced: &serve::Schedule,
    metrics: &mut BTreeMap<&'static str, f64>,
) {
    let pooled = |pick: fn(&serve::Phase) -> &Vec<u32>| {
        let mut all: Vec<u32> =
            traced.phases().into_iter().flat_map(|p| pick(p).iter().copied()).collect();
        all.sort_unstable();
        all
    };
    let submit = pooled(|p| &p.submit_ns);
    let resolve = pooled(|p| &p.resolve_ns);
    let late = pooled(|p| &p.late_ns);
    for (name, samples, p, scale) in [
        ("serve.submit_us.p50", &submit, 50.0, 1e3),
        ("serve.submit_us.p99", &submit, 99.0, 1e3),
        ("serve.resolve_ms.p50", &resolve, 50.0, 1e6),
        ("serve.resolve_ms.p99", &resolve, 99.0, 1e6),
        ("bench.gen_late_ms.p99", &late, 99.0, 1e6),
    ] {
        if let Some(v) = percentile(samples, p) {
            metrics.insert(name, f64::from(v) / scale);
        }
    }
    for (name, phase) in
        [("serve.rows_per_batch.low", &traced.low), ("serve.rows_per_batch.high", &traced.high)]
    {
        metrics.insert(name, phase.rows as f64 / phase.batches.max(1) as f64);
    }
    metrics.insert("serve.rejected", traced.phases().iter().map(|p| p.rejected as f64).sum());
    if let (Some(on), Some(off)) = (traced.high.p50_ms(), untraced.high.p50_ms()) {
        metrics.insert("bench.trace_overhead_frac", on / off - 1.0);
    }
}
