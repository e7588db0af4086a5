//! Emits a machine-readable perf snapshot, `BENCH_<rev>.json`, for the
//! batched GEMM forward path and the `navft-serve` batcher (ROADMAP item 5:
//! perf trajectory as data).
//!
//! Usage:
//!
//! ```text
//! perf                       # writes BENCH_<rev>.json to the current dir
//! perf --out perf.json       # explicit output path
//! perf --repeats 15          # more timing repeats (default 9, median kept)
//! perf --scale-sessions 65536 # serve_scale session count (default 32768)
//! ```
//!
//! For each model of the campaigns (the Grid World MLP and the scaled C3F2
//! drone policy) and each numeric backend (`f32`, native Q(1,4,11), `i8`
//! affine), the tool times batch-64 `forward_batch_into_cfg` twice: once
//! with the portable scalar tiles forced and once with runtime kernel
//! dispatch enabled. The scalar/dispatched split is an explicit
//! [`EngineConfig`] per pass — no process-wide toggle is flipped, so a
//! panicking closure cannot leak a scalar-forced engine into later
//! sections. Both passes produce bit-identical outputs (pinned by the
//! equivalence suites); the JSON records the throughput of each and their
//! ratio.
//!
//! A second, `campaign` section measures the vectorized rollout layer the
//! figure campaigns run on: environment steps per second at batch widths 1,
//! 16 and 64 for each backend (every step is one row of a batched engine
//! sweep).
//!
//! A third, `requantize` section micro-times the GEMM epilogue seam on the
//! raw-word backends: elements per second of the scalar per-element
//! [`Element::finish`] loop against the batched, runtime-dispatched
//! [`Element::finish_tile`] — the vectorized requantize that folds widened
//! accumulators back into storable words.
//!
//! A fourth, `serve_scale` section stresses the daemon's one batcher at
//! `--scale-sessions` concurrent sessions (default 32 768) under two
//! open-loop regimes driven by the bursty load generator: `saturated` (zero
//! think time — every session re-arrives the instant its response lands,
//! measuring capacity in rows/s) and `bursty` (Poisson-ish think times with
//! ramp and spike phases, measuring the coordinated-omission-aware
//! p50/p99/p99.9 tail).
//!
//! A fifth, `training` section times the DQN learning loop itself: `learn`
//! steps per second on the Grid World MLP at minibatch 32 and 128. Training
//! runs on `f32` only (the agent's online and target networks), so every
//! row's backend is `f32`.
//!
//! The JSON is rendered with `navft_core::sweep::json` — the same
//! deterministic writer the campaign artifacts use — so snapshots diff
//! cleanly across revisions, and `perf_gate` can diff a fresh snapshot
//! against the checked-in baseline. End-to-end campaign trials/s and
//! open-loop serve latency are the `perfbench` package's workloads
//! (`grid-campaign`, `serve-open-loop`), so this tool does not repeat them.

use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use navft_bench::parse_jobs;
use navft_core::sweep::json::Json;
use navft_gridworld::GridWorld;
use navft_nn::{
    c3f2_scaled, mlp, simd_kernel_name, Element, EngineConfig, ForwardHooks, I8Network, I8Scratch,
    I8Tensor, Kernels, Network, NetworkBase, NoHooks, QNetwork, QScratch, QTensor, Scratch, Tensor,
};
use navft_qformat::QFormat;
use navft_rl::{
    rollout, DiscreteEnvironment, DqnAgent, DqnConfig, DummyVecEnv, EpsilonSchedule, EvalElement,
    InferenceFaultMode, RolloutObs,
};
use navft_serve::{drive_bursty_load, BurstyConfig, LatencyWindow, ServeConfig, Server};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// The batch size the throughput contract is pinned at (the campaign's
/// episode batch and the README table's column).
const BATCH: usize = 64;

const USAGE: &str = "usage: perf [--out PATH] [--repeats N] [--scale-sessions N]";

fn main() -> ExitCode {
    let mut out: Option<String> = None;
    let mut repeats = 9usize;
    let mut scale_sessions = 32_768usize;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--out" => {
                let Some(path) = argv.next() else {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                };
                out = Some(path);
            }
            "--repeats" => {
                let Some(n) = argv.next().as_deref().and_then(parse_jobs) else {
                    eprintln!("--repeats needs a positive integer");
                    return ExitCode::FAILURE;
                };
                repeats = n;
            }
            "--scale-sessions" => {
                let Some(n) = argv.next().as_deref().and_then(parse_jobs) else {
                    eprintln!("--scale-sessions needs a positive integer");
                    return ExitCode::FAILURE;
                };
                scale_sessions = n;
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

    let rev = git_rev();
    let path = out.unwrap_or_else(|| format!("BENCH_{rev}.json"));
    let snapshot = run_benchmarks(&rev, repeats, scale_sessions);
    if let Err(error) = std::fs::write(&path, snapshot.render() + "\n") {
        eprintln!("[perf] failed to write {path}: {error}");
        return ExitCode::FAILURE;
    }
    eprintln!("[perf] wrote {path}");
    ExitCode::SUCCESS
}

/// The short git revision, or `"local"` outside a repository.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "local".to_string())
}

/// Median wall-clock seconds of `op` over `repeats` timed runs (after two
/// untimed warmups that fault in the scratch buffers and warm the caches).
fn median_secs(repeats: usize, mut op: impl FnMut()) -> f64 {
    op();
    op();
    let mut samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            op();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times one backend's batch-64 GEMM forward, scalar-forced then
/// dispatched, and returns the JSON row. `forward` runs one full batched
/// pass under the given engine config; the scalar/dispatched split lives
/// entirely in the per-call [`EngineConfig`], so a panic mid-measurement
/// cannot leave a process-wide scalar override behind.
fn bench_backend(
    model: &str,
    backend: &str,
    repeats: usize,
    rows_per_pass: usize,
    mut forward: impl FnMut(EngineConfig),
) -> Json {
    let scalar = median_secs(repeats, || forward(EngineConfig { kernels: Kernels::Scalar }));
    let dispatched = median_secs(repeats, || forward(EngineConfig::default()));
    let scalar_rows = rows_per_pass as f64 / scalar;
    let dispatched_rows = rows_per_pass as f64 / dispatched;
    let speedup = scalar / dispatched;
    eprintln!(
        "[perf] {model}/{backend}: scalar {scalar_rows:.0} rows/s, \
         {} {dispatched_rows:.0} rows/s ({speedup:.2}x)",
        simd_kernel_name()
    );
    Json::obj([
        ("model", Json::Str(model.to_string())),
        ("backend", Json::Str(backend.to_string())),
        ("scalar_rows_per_s", Json::num(scalar_rows)),
        ("dispatched_rows_per_s", Json::num(dispatched_rows)),
        ("dispatched_speedup", Json::num(speedup)),
    ])
}

/// Open-loop requests each session issues per `serve_scale` regime. Four is
/// the minimum that exercises all three arrival phases (ramp, steady,
/// spike) of the bursty generator.
const SCALE_REQUESTS: usize = 4;

/// One `serve_scale` measurement cell: the session count plus the arrival
/// regime.
struct ScaleCell<'a> {
    model: &'a str,
    backend: &'a str,
    sessions: usize,
    /// Zero selects the `saturated` regime; non-zero the `bursty` one.
    mean_think: Duration,
}

/// Drives the daemon with one [`ScaleCell`]'s worth of concurrent
/// open-loop sessions and returns the JSON row.
///
/// `mean_think == 0` is the `saturated` regime: every session's next
/// arrival is due the instant its response lands, so the run measures
/// aggregate serving capacity (rows/s) and the percentiles record queueing
/// delay under permanent overload. A non-zero think time is the `bursty`
/// regime: arrivals follow the seeded per-session exponential schedule with
/// ramp and spike phases, and the latency window records the
/// coordinated-omission-aware tail (p50/p99/p99.9 measured from each
/// request's *scheduled* arrival).
fn bench_serve_scale<W>(cell: &ScaleCell, network: &NetworkBase<W>, states: usize) -> Json
where
    W: EvalElement,
{
    let &ScaleCell { model, backend, sessions, mean_think } = cell;
    let load = if mean_think.is_zero() { "saturated" } else { "bursty" };
    let config =
        ServeConfig::default().with_max_batch(BATCH).with_queue_capacity(sessions.max(BATCH));
    let server = Server::start(network.clone(), &[states], config);
    let ids: Vec<_> = (0..sessions).map(|_| server.open_clean_session()).collect();
    let bursty = BurstyConfig {
        requests_per_session: SCALE_REQUESTS,
        mean_think,
        spike_factor: 8.0,
        seed: 0x5CA1E,
    };
    let mut latency = LatencyWindow::new();
    let outcome = drive_bursty_load(&server, &ids, states, &bursty, &mut latency);
    server.shutdown();
    let secs = outcome.elapsed.as_secs_f64();
    let rows_per_s = if secs > 0.0 { outcome.rows as f64 / secs } else { f64::NAN };
    eprintln!(
        "[perf] serve_scale {model}/{backend} {load}: {sessions} sessions, \
         p50 {:.0}us, p99 {:.0}us, p99.9 {:.0}us, {rows_per_s:.0} rows/s, {} retries",
        latency.p50(),
        latency.p99(),
        latency.p999(),
        outcome.retries
    );
    Json::obj([
        ("model", Json::Str(model.to_string())),
        ("backend", Json::Str(backend.to_string())),
        ("load", Json::Str(load.to_string())),
        ("sessions", Json::num(sessions as f64)),
        ("requests", Json::num(latency.len() as f64)),
        ("retries", Json::num(outcome.retries as f64)),
        ("p50_us", Json::num(latency.p50())),
        ("p99_us", Json::num(latency.p99())),
        ("p999_us", Json::num(latency.p999())),
        ("rows_per_s", Json::num(rows_per_s)),
    ])
}

/// Minibatch sizes the `training` section times `DqnAgent::learn` at.
const TRAIN_MINIBATCHES: [usize; 2] = [32, 128];

/// `learn` calls per timed sample — enough to stretch one measurement past
/// scheduler noise at the small minibatch.
const TRAIN_STEPS_PER_PASS: usize = 32;

/// Times the DQN learning loop on the Grid World MLP: `learn` steps per
/// second at one minibatch size.
fn bench_training(model: &str, minibatch: usize, repeats: usize) -> Json {
    let states = 100usize;
    let network = mlp(&[states, 32, 4], &mut SmallRng::seed_from_u64(0xD92));
    let config = DqnConfig { batch_size: minibatch, ..DqnConfig::default() };
    let mut agent =
        DqnAgent::new(network, &[states], EpsilonSchedule::new(1.0, 0.05, 0.99), config);

    // Fill the replay buffer with random transitions so every timed `learn`
    // call samples a full minibatch.
    let mut fill_rng = SmallRng::seed_from_u64(0xF111);
    for _ in 0..minibatch.max(512) {
        let state = Tensor::uniform(&[states], 1.0, &mut fill_rng);
        let next = Tensor::uniform(&[states], 1.0, &mut fill_rng);
        let action = (fill_rng.next_u64() % 4) as usize;
        let reward = fill_rng.gen_range(-1.0..1.0);
        let terminal = fill_rng.gen_bool(0.1);
        agent.observe(&state, action, reward, &next, terminal);
    }

    let mut learn_rng = SmallRng::seed_from_u64(0x1EA2);
    let secs = median_secs(repeats, || {
        for _ in 0..TRAIN_STEPS_PER_PASS {
            agent.learn(&mut learn_rng);
        }
    });
    let steps_per_s = TRAIN_STEPS_PER_PASS as f64 / secs;
    eprintln!("[perf] training {model}/f32 minibatch {minibatch}: {steps_per_s:.0} learn steps/s");
    Json::obj([
        ("model", Json::Str(model.to_string())),
        ("backend", Json::Str("f32".to_string())),
        ("minibatch", Json::num(minibatch as f64)),
        ("learn_steps_per_s", Json::num(steps_per_s)),
    ])
}

/// The rollout batch widths the campaign section is pinned at: serial, a
/// mid-size wave and the campaign's episode batch.
const ROLLOUT_BATCHES: [usize; 3] = [1, 16, 64];

/// Episodes and step limit of each timed rollout pass (identical across
/// batch widths, so steps/s rows are directly comparable).
const ROLLOUT_EPISODES: usize = 64;
const ROLLOUT_MAX_STEPS: usize = 32;

/// A hook that does nothing yet keeps the default
/// [`ForwardHooks::observes`] `== true`, so the rollout gives every row its
/// own sweep row instead of sharing one among bit-identical inputs.
struct OwnSweepRow;

impl<E: Element> ForwardHooks<E> for OwnSweepRow {}

/// Times vectorized rollouts of `network` over Grid World rows at one batch
/// width and returns the campaign JSON row. Throughput is environment steps
/// per second — every step is one row of a `forward_batch_into_cfg` sweep.
/// All rows start from the fixed source and fly the same path, so each row
/// carries an [`OwnSweepRow`] hook: with [`NoHooks`] the rollout would sweep
/// one row per tick and the row would measure that sharing, not the width.
fn bench_rollout<W>(
    model: &str,
    backend: &str,
    network: &NetworkBase<W>,
    world: &GridWorld,
    batch: usize,
    repeats: usize,
) -> Json
where
    W: EvalElement,
    usize: RolloutObs<W>,
{
    let mut steps = 0usize;
    let secs = median_secs(repeats, || {
        let mut venv = DummyVecEnv::from_prototype(world, batch);
        let mut rng = SmallRng::seed_from_u64(0xCA4);
        let tapes = rollout(
            &mut venv,
            network,
            ROLLOUT_EPISODES,
            ROLLOUT_MAX_STEPS,
            &InferenceFaultMode::None,
            &mut rng,
            |_| OwnSweepRow,
            EngineConfig::default(),
        );
        steps = tapes.iter().map(|tape| tape.rewards.len()).sum();
    });
    let steps_per_s = steps as f64 / secs;
    eprintln!("[perf] rollout {model}/{backend} batch {batch}: {steps_per_s:.0} steps/s");
    Json::obj([
        ("model", Json::Str(model.to_string())),
        ("backend", Json::Str(backend.to_string())),
        ("batch", Json::num(batch as f64)),
        ("episodes", Json::num(ROLLOUT_EPISODES as f64)),
        ("steps_per_s", Json::num(steps_per_s)),
    ])
}

/// Accumulators per requantize pass, and inner rounds per timed sample —
/// together they stretch one epilogue measurement to a stable ~1 ms.
const REQUANT_ELEMS: usize = 1 << 14;
const REQUANT_ROUNDS: usize = 64;

/// Micro-times one backend's GEMM requantize epilogue over a fixed block of
/// accumulators: the scalar per-element [`Element::finish`] loop against the
/// batched [`Element::finish_tile`] seam (runtime-dispatched SIMD). The two
/// are bit-identical by contract; the row records each in elements/s.
fn bench_requantize<E: Element>(
    backend: &str,
    ctx: E::Meta,
    accs: &[E::Acc],
    repeats: usize,
) -> Json {
    let mut out = vec![E::default(); accs.len()];
    let scalar = median_secs(repeats, || {
        for _ in 0..REQUANT_ROUNDS {
            for (value, &acc) in out.iter_mut().zip(accs.iter()) {
                *value = E::finish(acc, ctx);
            }
            std::hint::black_box(&mut out);
        }
    });
    let dispatched = median_secs(repeats, || {
        for _ in 0..REQUANT_ROUNDS {
            E::finish_tile(ctx, accs, &mut out);
            std::hint::black_box(&mut out);
        }
    });
    let elems = (accs.len() * REQUANT_ROUNDS) as f64;
    let scalar_elems = elems / scalar;
    let dispatched_elems = elems / dispatched;
    let speedup = scalar / dispatched;
    eprintln!(
        "[perf] requantize {backend}: scalar {scalar_elems:.0} elems/s,          {} {dispatched_elems:.0} elems/s ({speedup:.2}x)",
        simd_kernel_name()
    );
    Json::obj([
        ("backend", Json::Str(backend.to_string())),
        ("elems", Json::num(accs.len() as f64)),
        ("scalar_elems_per_s", Json::num(scalar_elems)),
        ("dispatched_elems_per_s", Json::num(dispatched_elems)),
        ("dispatched_speedup", Json::num(speedup)),
    ])
}

fn run_benchmarks(rev: &str, repeats: usize, scale_sessions: usize) -> Json {
    let mut rng = SmallRng::seed_from_u64(0);
    let models: Vec<(&str, Network, Vec<usize>)> = vec![
        ("grid-mlp", mlp(&[100, 32, 4], &mut rng), vec![100]),
        ("c3f2-scaled", c3f2_scaled(&mut rng), vec![1, 31, 31]),
    ];

    let format = QFormat::Q4_11;
    let mut results = Vec::new();
    for (name, network, shape) in &models {
        let mut input_rng = SmallRng::seed_from_u64(0xBE7C);
        let inputs: Vec<Tensor> =
            (0..BATCH).map(|_| Tensor::uniform(shape, 1.0, &mut input_rng)).collect();

        let mut scratch = Scratch::new();
        results.push(bench_backend(name, "f32", repeats, BATCH, |config| {
            network.forward_batch_into_cfg(&inputs, &mut scratch, &mut NoHooks, config);
        }));

        let qnet = QNetwork::quantize(network, format);
        let qinputs: Vec<QTensor> = inputs.iter().map(|t| QTensor::quantize(t, format)).collect();
        let mut qscratch = QScratch::new();
        results.push(bench_backend(name, &format!("{format}"), repeats, BATCH, |config| {
            qnet.forward_batch_into_cfg(&qinputs, &mut qscratch, &mut NoHooks, config);
        }));

        let inet = I8Network::quantize(network);
        let iinputs: Vec<I8Tensor> =
            inputs.iter().map(|t| I8Tensor::quantize(t, inet.affine())).collect();
        let mut iscratch = I8Scratch::new();
        results.push(bench_backend(name, "i8", repeats, BATCH, |config| {
            inet.forward_batch_into_cfg(&iinputs, &mut iscratch, &mut NoHooks, config);
        }));
    }

    // The Grid World policy the rollout and serve-scale sections run, on
    // every backend the campaigns use.
    let mut world_rng = SmallRng::seed_from_u64(0x5EED);
    let world = GridWorld::random(10, 0.2, &mut world_rng);
    let policy = mlp(&[world.num_states(), 32, 4], &mut SmallRng::seed_from_u64(1));
    let qpolicy = QNetwork::quantize(&policy, format);
    let ipolicy = I8Network::quantize(&policy);
    // Serve-scale section: the daemon at `--scale-sessions` concurrent
    // open-loop sessions, in the saturated (capacity) and bursty (tail
    // latency) regimes.
    let states = world.num_states();
    let serve_scale: Vec<Json> = [Duration::ZERO, Duration::from_millis(100)]
        .into_iter()
        .map(|mean_think| {
            let cell = ScaleCell {
                model: "grid-mlp",
                backend: "f32",
                sessions: scale_sessions,
                mean_think,
            };
            bench_serve_scale(&cell, &policy, states)
        })
        .collect();

    // Training section: DQN `learn` steps/s on the Grid World MLP at both
    // minibatch sizes.
    let training = TRAIN_MINIBATCHES
        .iter()
        .map(|&minibatch| bench_training("grid-mlp", minibatch, repeats))
        .collect();

    // Campaign section: vectorized environment rollouts (steps/s per backend
    // and batch width).
    let mut campaign = Vec::new();
    for &batch in &ROLLOUT_BATCHES {
        campaign.push(bench_rollout("grid-mlp", "f32", &policy, &world, batch, repeats));
        campaign.push(bench_rollout(
            "grid-mlp",
            &format!("{format}"),
            &qpolicy,
            &world,
            batch,
            repeats,
        ));
        campaign.push(bench_rollout("grid-mlp", "i8", &ipolicy, &world, batch, repeats));
    }

    // Requantize epilogue micro-section: accumulator magnitudes spread over
    // the full widened range (random shift of a full-width draw), fixed per
    // backend so the scalar and dispatched passes fold identical blocks.
    let mut acc_rng = SmallRng::seed_from_u64(0xACC5);
    let q_accs: Vec<i64> = (0..REQUANT_ELEMS)
        .map(|_| (acc_rng.next_u64() as i64) >> (acc_rng.next_u64() % 64))
        .collect();
    let i8_accs: Vec<i32> = (0..REQUANT_ELEMS).map(|_| acc_rng.next_u64() as i32).collect();
    let requantize = vec![
        bench_requantize::<i32>(&format!("{}", QFormat::Q4_11), QFormat::Q4_11, &q_accs, repeats),
        bench_requantize::<i32>(&format!("{}", QFormat::Q7_8), QFormat::Q7_8, &q_accs, repeats),
        bench_requantize::<i8>("i8", navft_nn::I8Affine { scale: 1.0 / 127.0 }, &i8_accs, repeats),
    ];

    // Snapshot creation time: how `perf_gate --history` orders checked-in
    // snapshots from oldest to newest without trusting filenames.
    let unix_time = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|since| since.as_secs() as f64)
        .unwrap_or(0.0);

    Json::obj([
        ("rev", Json::Str(rev.to_string())),
        ("bench", Json::Str("gemm_forward".to_string())),
        ("unix_time", Json::num(unix_time)),
        ("batch", Json::num(BATCH as f64)),
        ("repeats", Json::num(repeats as f64)),
        ("kernel", Json::Str(simd_kernel_name().to_string())),
        ("results", Json::Arr(results)),
        ("serve_scale", Json::Arr(serve_scale)),
        ("training", Json::Arr(training)),
        ("campaign", Json::Arr(campaign)),
        ("requantize", Json::Arr(requantize)),
    ])
}
