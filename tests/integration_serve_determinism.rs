//! Serving-path determinism suite: episodes served through the
//! `navft-serve` dynamic batchers must be **bit-identical** to the
//! library-only evaluation path, for every batch coalescing schedule ×
//! sharded worker count.
//!
//! Each shard's batcher flushes whatever requests happen to be pending — a
//! session's forward pass may share a sweep with any mix of same-shard
//! neighbours, at any batch size from 1 to `max_batch` — and the shard a
//! session lands on depends on the worker count. None of that may leak into
//! the result: the per-row hook routing gives each served row the exact
//! hook call sequence of a single-sample forward, the blocked GEMM engine
//! is bit-exact across batch sizes (pinned by the equivalence suites), each
//! session's fault RNG advances only when its own requests are served, and
//! a session never migrates off its shard. So a greedy episode trace served
//! under `max_batch` 1, 7 or 64 on 1, 2, 4 or 8 workers must equal the
//! trace the library evaluator produces with the same hooks — faults and
//! all — on both the `f32` and the native fixed-point backends.

use navft_fault::{FaultKind, FaultSpec};
use navft_gridworld::GridWorld;
use navft_nn::{mlp, ForwardHooks, QNetwork};
use navft_qformat::QFormat;
use navft_rl::{trace_policy_discrete, DiscreteEnvironment, EvalElement};
use navft_serve::{drive_discrete_episodes, LatencyWindow, ServeConfig, Server, SessionHook};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Duration;

/// Coalescing schedules under test: serial, ragged, and the default
/// max-batch (larger than the session count, so deadline flushes dominate).
const MAX_BATCHES: [usize; 3] = [1, 7, 64];

/// Sharded worker counts under test: the degenerate single-worker daemon
/// through more shards than the host has cores.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

const SESSIONS: usize = 12;
const MAX_STEPS: usize = 25;

/// The per-session observation fault model: a BER high enough that faults
/// fire every few steps, low enough that episodes still make progress.
fn fault_spec() -> FaultSpec {
    FaultSpec::new(0.01, FaultKind::BitFlip, QFormat::Q4_11)
}

fn world() -> GridWorld {
    let mut rng = SmallRng::seed_from_u64(0x6E1D);
    GridWorld::random(6, 0.2, &mut rng)
}

/// Serves `SESSIONS` fault-injected episodes of `network` on `world` at
/// every coalescing schedule × worker count and asserts each session's
/// action trace equals the library evaluator's under an identically-seeded
/// hook.
fn assert_served_traces_match_library<W>(backend: &str, network: navft_nn::NetworkBase<W>)
where
    W: EvalElement,
    SessionHook<W>: ForwardHooks<W>,
{
    let world = world();
    let meta = *network.net_meta();

    // Library reference: one greedy episode per session, each under its own
    // seeded fault hook — the exact hook construction the server gets.
    let expected: Vec<Vec<usize>> = (0..SESSIONS)
        .map(|seed| {
            let mut hook = SessionHook::<W>::new(meta, seed as u64).with_faults(fault_spec());
            let mut env = world.clone();
            trace_policy_discrete(&mut env, &network, MAX_STEPS, &mut hook)
        })
        .collect();
    assert!(
        expected.iter().any(|trace| !trace.is_empty()),
        "the reference episodes must actually step"
    );

    for workers in WORKERS {
        for max_batch in MAX_BATCHES {
            let config = ServeConfig::default()
                .with_workers(workers)
                .with_max_batch(max_batch)
                .with_queue_capacity(SESSIONS.max(max_batch))
                .with_flush_after(Duration::from_millis(1));
            let server = Server::start(network.clone(), &[world.num_states()], config);
            let sessions: Vec<_> = (0..SESSIONS)
                .map(|seed| {
                    server.open_session(Box::new(
                        SessionHook::<W>::new(meta, seed as u64).with_faults(fault_spec()),
                    ))
                })
                .collect();
            let mut envs: Vec<GridWorld> = (0..SESSIONS).map(|_| world.clone()).collect();
            let mut latency = LatencyWindow::new();
            let outcome =
                drive_discrete_episodes(&server, &sessions, &mut envs, MAX_STEPS, &mut latency);

            assert_eq!(
                outcome.traces, expected,
                "{backend} traces diverged from the library path at \
                 workers {workers} × max_batch {max_batch}"
            );
            let stats = server.stats();
            assert!(stats.max_rows_per_batch <= max_batch, "batcher overfilled a sweep");
            if max_batch == 1 {
                assert_eq!(stats.max_rows_per_batch, 1, "max_batch 1 must serve serially");
            }
            let per_shard = server.shard_rows();
            assert_eq!(per_shard.len(), workers);
            assert_eq!(
                per_shard.iter().sum::<usize>(),
                stats.rows,
                "every served row is accounted to exactly one shard"
            );
        }
    }
}

#[test]
fn served_f32_episode_traces_are_bit_identical_at_every_coalescing_schedule() {
    let policy = mlp(&[world().num_states(), 24, 4], &mut SmallRng::seed_from_u64(0xF32));
    assert_served_traces_match_library("f32", policy);
}

#[test]
fn served_native_episode_traces_are_bit_identical_at_every_coalescing_schedule() {
    let policy = mlp(&[world().num_states(), 24, 4], &mut SmallRng::seed_from_u64(0xF32));
    let qpolicy = QNetwork::quantize(&policy, QFormat::Q4_11);
    assert_served_traces_match_library("Q(1,4,11)", qpolicy);
}
