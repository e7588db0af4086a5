//! Serving-path determinism suite: episodes served through the
//! `navft-serve` dynamic batcher must be **bit-identical** to the
//! library-only evaluation path, for every batch coalescing schedule.
//!
//! The batcher flushes whatever requests happen to be pending — a session's
//! forward pass may share a sweep with any mix of neighbours, at any batch
//! size from 1 to `max_batch`. None of that may leak into the result: the
//! per-row hook routing gives each served row the exact hook call sequence
//! of a single-sample forward, the blocked GEMM engine is bit-exact across
//! batch sizes (pinned by the equivalence suites), and each session's fault
//! RNG advances only when its own requests are served. So a greedy episode
//! trace served under `max_batch` 1, 7 or 64 must equal the trace the
//! library evaluator produces with the same hooks — faults and all — on
//! both the `f32` and the native fixed-point backends. Vision policies are
//! held to the same bar one request at a time: a served scaled-C3F2
//! decision under a faulted session hook equals `forward_with` on the same
//! encoded drone frame, on `f32`, Q(1,4,11) and `i8`.

mod common;

use common::within_timeout;
use navft_dronesim::DroneSim;
use navft_fault::{FaultKind, FaultSpec};
use navft_gridworld::GridWorld;
use navft_nn::{argmax, c3f2_scaled, mlp, ForwardHooks, I8Network, NetworkBase, QNetwork, Tensor};
use navft_qformat::QFormat;
use navft_rl::{trace_policy_discrete, DiscreteEnvironment, EvalElement, VisionEnvironment};
use navft_serve::{
    drive_discrete_episodes, Decision, LatencyWindow, ServeConfig, Server, SessionHook, Ticket,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Duration;

/// Coalescing schedules under test: serial, ragged, and the default
/// max-batch (larger than the session count, so deadline flushes dominate).
const MAX_BATCHES: [usize; 3] = [1, 7, 64];

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
/// every coalescing schedule and asserts each session's action trace equals
/// the library evaluator's under an identically-seeded hook.
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

    for max_batch in MAX_BATCHES {
        let config = ServeConfig::default()
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
            "{backend} traces diverged from the library path at max_batch {max_batch}"
        );
        let stats = server.stats();
        assert!(stats.max_rows_per_batch <= max_batch, "batcher overfilled a sweep");
        if max_batch == 1 {
            assert_eq!(stats.max_rows_per_batch, 1, "max_batch 1 must serve serially");
        }
    }
}

#[test]
fn served_f32_episode_traces_are_bit_identical_at_every_coalescing_schedule() {
    within_timeout(|| {
        let policy = mlp(&[world().num_states(), 24, 4], &mut SmallRng::seed_from_u64(0xF32));
        assert_served_traces_match_library("f32", policy);
    });
}

#[test]
fn served_native_episode_traces_are_bit_identical_at_every_coalescing_schedule() {
    within_timeout(|| {
        let policy = mlp(&[world().num_states(), 24, 4], &mut SmallRng::seed_from_u64(0xF32));
        let qpolicy = QNetwork::quantize(&policy, QFormat::Q4_11);
        assert_served_traces_match_library("Q(1,4,11)", qpolicy);
    });
}

/// Drone frames the vision test serves: the reset frame plus the frames of
/// a short scripted flight, so rows differ in depth content.
const FRAMES: usize = 6;

/// Sessions of the vision test; each walks the frames from its own offset.
const VISION_SESSIONS: usize = 4;

/// A storage word's bit pattern, so decisions compare bit for bit (`f32`
/// equality would let `-0.0` stand in for `0.0`).
trait Bits {
    fn bits(&self) -> u32;
}

impl Bits for f32 {
    fn bits(&self) -> u32 {
        self.to_bits()
    }
}

impl Bits for i32 {
    fn bits(&self) -> u32 {
        *self as u32
    }
}

impl Bits for i8 {
    fn bits(&self) -> u32 {
        u32::from(*self as u8)
    }
}

fn drone_frames() -> Vec<Tensor> {
    let mut sim = DroneSim::indoor_long();
    let mut frames = vec![sim.reset()];
    while frames.len() < FRAMES {
        let transition = sim.step(frames.len() % sim.num_actions());
        frames.push(if transition.terminal { sim.reset() } else { transition.observation });
    }
    frames
}

/// Serves every session's frames at each coalescing schedule, each request
/// encoded with [`EvalElement::encode_into`] and sent with
/// [`Server::submit`], and asserts every decision is bit-identical to
/// `forward_with` under an identically seeded hook.
fn assert_served_vision_decisions_match_library<W>(backend: &str, network: NetworkBase<W>)
where
    W: EvalElement + Bits,
    SessionHook<W>: ForwardHooks<W>,
{
    let frames = drone_frames();
    let shape = frames[0].shape().to_vec();
    let meta = *network.net_meta();
    let encode = |frame: &Tensor| {
        let mut input = W::input_buffer(&shape, &network);
        W::encode_into(frame, &mut input);
        input
    };
    let frame_of = |session: usize, step: usize| &frames[(session + step) % FRAMES];
    let hook = |session: usize| {
        SessionHook::<W>::new(meta, 0xC3F2 ^ session as u64).with_faults(fault_spec())
    };

    // Library reference: each session's frames in order under its own hook.
    let mut struck = 0;
    let expected: Vec<Vec<Decision<W>>> = (0..VISION_SESSIONS)
        .map(|session| {
            let mut hook = hook(session);
            let decisions = (0..FRAMES)
                .map(|step| {
                    let output = network.forward_with(&encode(frame_of(session, step)), &mut hook);
                    Decision { action: argmax(output.data()), values: output.data().to_vec() }
                })
                .collect();
            struck += hook.struck();
            decisions
        })
        .collect();
    assert!(struck > 0, "{backend}: the session hooks must actually strike");

    for max_batch in MAX_BATCHES {
        let config = ServeConfig::default()
            .with_max_batch(max_batch)
            .with_queue_capacity(VISION_SESSIONS)
            .with_flush_after(Duration::from_millis(1));
        let server = Server::start(network.clone(), &shape, config);
        let sessions: Vec<_> = (0..VISION_SESSIONS)
            .map(|session| server.open_session(Box::new(hook(session))))
            .collect();
        let mut served = vec![Vec::new(); VISION_SESSIONS];
        for step in 0..FRAMES {
            // Submit every session before waiting on any, so rows coalesce.
            let tickets: Vec<Ticket<W>> = sessions
                .iter()
                .enumerate()
                .map(|(session, &id)| {
                    server
                        .submit(id, encode(frame_of(session, step)))
                        .map_err(|(error, _)| error)
                        .expect("request queued")
                })
                .collect();
            for (session, ticket) in tickets.into_iter().enumerate() {
                served[session].push(ticket.wait().expect("served decision"));
            }
        }

        for (session, (served, expected)) in served.iter().zip(&expected).enumerate() {
            for (step, (got, want)) in served.iter().zip(expected).enumerate() {
                let bits = |d: &Decision<W>| d.values.iter().map(Bits::bits).collect::<Vec<_>>();
                assert_eq!(
                    (got.action, bits(got)),
                    (want.action, bits(want)),
                    "{backend} session {session} step {step} diverged at max_batch {max_batch}"
                );
            }
        }
        assert!(server.stats().max_rows_per_batch <= max_batch, "batcher overfilled a sweep");
    }
}

#[test]
fn served_vision_decisions_are_bit_identical_to_the_library_forward_on_every_backend() {
    within_timeout(|| {
        let policy = c3f2_scaled(&mut SmallRng::seed_from_u64(0xC3F2));
        assert_served_vision_decisions_match_library("f32", policy.clone());
        assert_served_vision_decisions_match_library(
            "Q(1,4,11)",
            QNetwork::quantize(&policy, QFormat::Q4_11),
        );
        assert_served_vision_decisions_match_library("i8", I8Network::quantize(&policy));
    });
}
