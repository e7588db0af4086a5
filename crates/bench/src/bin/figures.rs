//! Regenerates the paper's figures as plain-text tables and machine-readable
//! JSONL artifacts on the shared work-stealing campaign scheduler.
//!
//! Usage:
//!
//! ```text
//! figures all                        # every figure at the default (quick) scale
//! figures fig5 fig10                 # selected figures
//! figures --scale smoke all          # smoke-sized campaign (seconds)
//! figures --scale paper --jobs 32 \
//!         --out artifacts all        # paper-sized campaign with artifacts
//! figures --out artifacts --resume all  # skip cells already in the journal
//! figures --validate artifacts       # check every emitted artifact parses
//! figures --list                     # list available figure ids
//! ```
//!
//! `--out <dir>` streams every completed cell to `<dir>/journal.jsonl` and
//! writes per-figure `<figure>.jsonl` + `<figure>.txt` files; `--resume`
//! skips cells whose fingerprint already has a journal record, so an
//! interrupted paper-scale run picks up where it left off. `--jobs N`
//! overrides the scale's worker-thread default; it controls *trial-level*
//! parallelism, and each trial's inference engine sweeps on its own thread,
//! so `--jobs` is the number of live worker threads. The JSONL artifacts are
//! bit-identical for any `--jobs` value and any engine config.

use std::path::PathBuf;
use std::process::ExitCode;

use navft_bench::{parse_jobs, parse_scale};
use navft_core::sweep::{artifact, run_sweeps, RunOptions};
use navft_core::{experiments, Scale};
use navft_nn::EngineConfig;

struct Args {
    scale: Scale,
    jobs: Option<usize>,
    out_dir: Option<PathBuf>,
    resume: bool,
    requested: Vec<String>,
}

const USAGE: &str = "usage: figures [--scale smoke|quick|paper] [--jobs N] [--out DIR] \
                     [--resume] [--list] [--validate DIR] <figure-id>... | all";

fn main() -> ExitCode {
    let mut args = Args {
        scale: Scale::Quick,
        jobs: None,
        out_dir: None,
        resume: false,
        requested: Vec::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--scale" => {
                let Some(value) = argv.next() else {
                    eprintln!("--scale needs a value (smoke | quick | paper)");
                    return ExitCode::FAILURE;
                };
                let Some(parsed) = parse_scale(&value) else {
                    eprintln!("unknown scale {value:?} (expected smoke | quick | paper)");
                    return ExitCode::FAILURE;
                };
                args.scale = parsed;
            }
            "--jobs" => {
                let Some(jobs) = argv.next().as_deref().and_then(parse_jobs) else {
                    eprintln!("--jobs needs a positive integer");
                    return ExitCode::FAILURE;
                };
                args.jobs = Some(jobs);
            }
            "--out" => {
                let Some(dir) = argv.next() else {
                    eprintln!("--out needs a directory");
                    return ExitCode::FAILURE;
                };
                args.out_dir = Some(PathBuf::from(dir));
            }
            "--resume" => args.resume = true,
            "--validate" => {
                let Some(dir) = argv.next() else {
                    eprintln!("--validate needs a directory");
                    return ExitCode::FAILURE;
                };
                return validate(&PathBuf::from(dir));
            }
            "--list" => {
                for id in experiments::figure_ids() {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown option {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
            other => args.requested.push(other.to_string()),
        }
    }
    run(args)
}

fn validate(dir: &std::path::Path) -> ExitCode {
    match artifact::validate_dir(dir) {
        Ok(records) => {
            println!("[figures] {records} artifact records in {} parse cleanly", dir.display());
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("[figures] artifact validation failed: {error}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Args) -> ExitCode {
    if args.requested.is_empty() {
        eprintln!("nothing to do: pass figure ids or `all` (see --list)");
        return ExitCode::FAILURE;
    }
    let valid_ids = experiments::figure_ids();
    let unknown: Vec<&String> = args
        .requested
        .iter()
        .filter(|r| r.as_str() != "all" && !valid_ids.contains(&r.as_str()))
        .collect();
    if !unknown.is_empty() {
        eprintln!("unknown figure id(s) {unknown:?}; valid ids are: all, {}", valid_ids.join(", "));
        return ExitCode::FAILURE;
    }
    if args.resume && args.out_dir.is_none() {
        eprintln!("--resume needs --out DIR (the journal lives in the artifact directory)");
        return ExitCode::FAILURE;
    }

    let run_all = args.requested.iter().any(|r| r == "all");
    let sweeps: Vec<_> = experiments::all_sweeps(args.scale)
        .into_iter()
        .filter(|sweep| run_all || args.requested.iter().any(|r| r == sweep.id()))
        .collect();

    let threads = args.scale.threads_or(args.jobs);
    // Trial-level parallelism only: each trial's rollouts run with the default
    // single-threaded engine, so artifacts stay byte-identical at any --jobs.
    let options = RunOptions {
        threads,
        engine: EngineConfig::default(),
        out_dir: args.out_dir.clone(),
        resume: args.resume,
        progress: true,
    };
    let total_cells: usize = sweeps.iter().map(|s| s.len()).sum();
    eprintln!(
        "[figures] running {} figure(s), {total_cells} cells at {:?} scale on {threads} thread(s)...",
        sweeps.len(),
        args.scale
    );
    let start = std::time::Instant::now();
    let report = match run_sweeps(sweeps, &options) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("[figures] artifact IO failed: {error}");
            return ExitCode::FAILURE;
        }
    };
    for (_, figures) in &report.figures {
        for figure in figures {
            println!("{figure}");
        }
    }
    eprintln!(
        "[figures] cells: executed {}, resumed {}, total {} in {:.1} s",
        report.executed_cells,
        report.resumed_cells,
        report.total_cells,
        start.elapsed().as_secs_f64()
    );
    if let Some(dir) = &args.out_dir {
        eprintln!("[figures] artifacts written to {}", dir.display());
    }
    ExitCode::SUCCESS
}
