//! CI perf gate: diffs a fresh `BENCH_<rev>.json` snapshot against the
//! checked-in baseline and fails on throughput regressions.
//!
//! Usage:
//!
//! ```text
//! perf_gate --baseline BENCH_abc1234.json --fresh /tmp/fresh.json
//! perf_gate --history BENCH_*.json --fresh /tmp/fresh.json
//! perf_gate --history ... --fresh ... --tolerance 0.25
//! ```
//!
//! `--history` takes every checked-in snapshot (it consumes all following
//! paths, so a shell glob works), orders them oldest → newest by their
//! `unix_time` stamp (legacy snapshots without one sort first, in the order
//! given), prints the per-key throughput trajectory across the whole
//! history plus the fresh snapshot, and gates the fresh snapshot against
//! the **newest** history entry only — older snapshots inform the printed
//! trend, never the pass/fail verdict. `--baseline` is the single-snapshot
//! form of the same gate.
//!
//! The comparison itself lives in [`navft_bench::perf_regressions`], driven
//! by the [`navft_bench::GATED`] section table (`results`, `serve_scale`,
//! `training`, `campaign`, `requantize`). A fresh value more
//! than `--tolerance` (default `0.10`, i.e. 10 %) below baseline, a
//! baseline row missing from the fresh snapshot, or a non-finite fresh
//! throughput all fail the gate.

use std::process::ExitCode;

use navft_bench::{order_snapshots, perf_regressions, trend_report};
use navft_core::sweep::json::Json;

const USAGE: &str = "usage: perf_gate (--baseline PATH | --history PATH...) --fresh PATH \
                     [--tolerance FRAC]";

fn main() -> ExitCode {
    let mut baseline: Option<String> = None;
    let mut history: Vec<String> = Vec::new();
    let mut fresh: Option<String> = None;
    let mut tolerance = 0.10f64;
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--baseline" => baseline = argv.next(),
            "--history" => {
                while let Some(path) = argv.peek() {
                    if path.starts_with("--") {
                        break;
                    }
                    history.push(argv.next().expect("peeked"));
                }
                if history.is_empty() {
                    eprintln!("--history needs at least one snapshot path");
                    return ExitCode::FAILURE;
                }
            }
            "--fresh" => fresh = argv.next(),
            "--tolerance" => {
                let parsed = argv.next().and_then(|t| t.parse::<f64>().ok());
                let Some(t) = parsed.filter(|t| t.is_finite() && (0.0..1.0).contains(t)) else {
                    eprintln!("--tolerance needs a fraction in [0, 1)");
                    return ExitCode::FAILURE;
                };
                tolerance = t;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown option {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    if baseline.is_some() && !history.is_empty() {
        eprintln!("--baseline and --history are mutually exclusive\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let Some(fresh) = fresh else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some(fresh_json) = load(&fresh) else {
        return ExitCode::FAILURE;
    };

    // Resolve the baseline: either the one given path, or the newest
    // snapshot of the ordered history (printing the trajectory on the way).
    let (baseline_label, baseline_json) = if let Some(path) = baseline {
        let Some(json) = load(&path) else {
            return ExitCode::FAILURE;
        };
        (path, json)
    } else if !history.is_empty() {
        let mut snapshots = Vec::with_capacity(history.len());
        for path in history {
            let Some(json) = load(&path) else {
                return ExitCode::FAILURE;
            };
            snapshots.push((path, json));
        }
        let mut ordered = order_snapshots(snapshots);
        let newest = ordered.last().expect("--history is non-empty").clone();
        ordered.push((format!("{fresh} (fresh)"), fresh_json.clone()));
        for line in trend_report(&ordered).lines() {
            eprintln!("[perf_gate] {line}");
        }
        newest
    } else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };

    let failures = perf_regressions(&baseline_json, &fresh_json, tolerance);
    if failures.is_empty() {
        eprintln!(
            "[perf_gate] ok: {fresh} holds every throughput of {baseline_label} within {:.0}%",
            tolerance * 100.0
        );
        return ExitCode::SUCCESS;
    }
    eprintln!("[perf_gate] {} regression(s) against {baseline_label}:", failures.len());
    for failure in &failures {
        eprintln!("[perf_gate]   {failure}");
    }
    ExitCode::FAILURE
}

/// Reads and parses one snapshot, reporting failures on stderr.
fn load(path: &str) -> Option<Json> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("[perf_gate] cannot read {path}: {error}");
            return None;
        }
    };
    match Json::parse(&text) {
        Ok(json) => Some(json),
        Err(error) => {
            eprintln!("[perf_gate] {path} is not valid snapshot JSON: {error:?}");
            None
        }
    }
}
