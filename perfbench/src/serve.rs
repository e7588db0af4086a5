//! `serve-open-loop`: seeded Poisson arrivals from one generator thread
//! against a [`Server`] with the default [`ServeConfig`] (one batcher
//! worker) serving the Grid World MLP, at two fixed rates, alternating with
//! saturated blocks that measure its capacity. Each of [`SESSIONS`]
//! sessions has at most one request in flight; an arrival for a busy
//! session waits for its reply, and every latency runs from the arrival's
//! due time. A seeded quarter of the sessions carry a [`SessionHook`] that
//! strikes the observation with transient faults and range-guards the
//! activations.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use navft_core::grid_policies::{grid_dqn_config, grid_mlp};
use navft_core::Scale;
use navft_fault::{FaultKind, FaultSpec};
use navft_gridworld::{GridWorld, ObstacleDensity};
use navft_mitigation::{RangeGuard, RangeGuardConfig};
use navft_nn::{argmax, DynRowHooks, EngineConfig, HooksFor, Network, NoHooks, Scratch};
use navft_qformat::QFormat;
use navft_rl::{trainer, DqnAgent, EpsilonSchedule, EvalElement, FaultPlan};
use navft_serve::{ServeConfig, ServeStats, Server, SessionHook, SessionId, Ticket};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::openloop::{account, exp_gap_ns};
use crate::shims::{Role, TimedEnv, TimedSessionHook};
use crate::stats::{percentile, pool_trimmed};
use crate::trace;

/// Concurrent sessions — at most the default queue capacity, so a session
/// mix with one request in flight each can never be refused as `Busy`.
pub const SESSIONS: usize = 256;
/// The `low` fixed arrival rate (rows/s).
pub const LOW_RATE: f64 = 50_000.0;
/// The `high` fixed arrival rate (rows/s). Saturated, the server served
/// 400–550k rows/s on a 2-vCPU Xeon host, and the host's slow spells run
/// up to 1.9× slower (see `calib`); at a fifth of that it keeps up in
/// both, so a slow spell does not turn into a growing queue.
pub const HIGH_RATE: f64 = 100_000.0;
/// Latency window length. A phase's percentiles pool every request of its
/// windows but the worst `TRIMMED_WINDOWS` share by p99: on a 2-vCPU host
/// up to a third of the windows carry 1–10 ms batcher scheduling stalls,
/// varying from run to run, and a smaller trim lets them decide the p99; a
/// stall that recurs in more windows than that stays in the figure.
const WINDOW: Duration = Duration::from_millis(20);
const TRIMMED_WINDOWS: f64 = 0.25;
/// Rounds of one `low`, one `high` and one saturated block each.
const BLOCKS: usize = 5;
/// Share of sessions carrying fault and guard hooks.
const HOOKED_SHARE: f64 = 0.25;
/// Bit error rate of the per-request observation strikes.
const SESSION_BER: f64 = 0.01;
/// Sessions whose every decision is replayed through the library.
const REPLAY_SESSIONS: usize = 8;
/// One request in this many records a traced request span.
const SPAN_EVERY: u64 = 64;

/// The served policy and its open sessions.
pub struct Served {
    server: Server<f32>,
    network: Network,
    guard: Arc<RangeGuard>,
    sessions: Vec<SessionId>,
    /// The hook seed of each session, `None` for clean sessions.
    hook_seeds: Vec<Option<u64>>,
    states: usize,
}

/// Set-up timings (seconds).
pub struct SetupTimes {
    /// Whole set-up.
    pub total: f64,
    /// Training the served policy.
    pub train: f64,
    /// `Server::start` plus opening every session.
    pub open: f64,
}

fn fault_spec() -> FaultSpec {
    FaultSpec::new(SESSION_BER, FaultKind::BitFlip, QFormat::Q3_4)
}

fn session_hook(network: &Network, guard: &Arc<RangeGuard>, seed: u64) -> SessionHook<f32> {
    SessionHook::new(*network.net_meta(), seed)
        .with_faults(fault_spec())
        .with_guard(Arc::clone(guard))
}

/// Trains the Grid World MLP (smoke-sized DQN with a fixed seed, so
/// set-up work does not change with the run seed), builds its range guard,
/// starts the server and opens the session mix drawn from `seed`.
pub fn setup(seed: u64) -> (Served, SetupTimes) {
    const POLICY_SEED: u64 = 0x5EED;
    let started = Instant::now();
    let params = Scale::Smoke.grid();
    // The shim only keeps this thread's host-speed probes fresh for `setup_s`.
    let mut world = TimedEnv::new(
        GridWorld::with_density(ObstacleDensity::Middle).with_exploring_starts(POLICY_SEED ^ 0xE5),
        Role::Train,
    );
    let states = 100;
    let mut agent = DqnAgent::new(
        grid_mlp(states, ACTIONS, POLICY_SEED),
        &[states],
        EpsilonSchedule::for_training(params.epsilon_steady_episodes),
        grid_dqn_config(),
    );
    let mut rng = SmallRng::seed_from_u64(POLICY_SEED);
    trainer::train_dqn_discrete(
        &mut world,
        &mut agent,
        trainer::TrainingConfig::new(params.training_episodes, params.max_steps),
        &FaultPlan::none(),
        &mut rng,
        trainer::no_mitigation(),
    );
    let network = agent.network().clone();
    let guard =
        Arc::new(RangeGuard::from_network(&network, QFormat::Q3_4, RangeGuardConfig::paper()));
    let train = started.elapsed().as_secs_f64();

    let opened = Instant::now();
    let server = Server::start(network.clone(), &[states], ServeConfig::default());
    let mut mix = SmallRng::seed_from_u64(seed ^ 0x5E55);
    let mut sessions = Vec::with_capacity(SESSIONS);
    let mut hook_seeds = Vec::with_capacity(SESSIONS);
    for _ in 0..SESSIONS {
        let hooked = mix.gen_bool(HOOKED_SHARE);
        let hook_seed = mix.next_u64();
        let hooks: Box<dyn HooksFor<f32> + Send> = if hooked {
            Box::new(TimedSessionHook(session_hook(&network, &guard, hook_seed)))
        } else {
            Box::new(NoHooks)
        };
        sessions.push(server.open_session(hooks));
        hook_seeds.push(hooked.then_some(hook_seed));
    }
    let open = opened.elapsed().as_secs_f64();
    let served = Served { server, network, guard, sessions, hook_seeds, states };
    (served, SetupTimes { total: started.elapsed().as_secs_f64(), train, open })
}

/// What one constant-rate phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Arrivals scheduled.
    pub attempted: usize,
    /// Requests refused or resolved with an error.
    pub failed: usize,
    /// Decisions served.
    pub completed: usize,
    /// Wall time from the first arrival to the last reply.
    pub wall: Duration,
    /// Latency from due time (ns) per window of due times, until the phase
    /// is settled; failures count as `u32::MAX`.
    windows: Vec<Vec<u32>>,
    /// Length of one window (ns).
    window_ns: u64,
    /// The latencies of the kept windows, sorted ([`Phase::settle`]).
    latency_ns: Vec<u32>,
    /// `submit_one_hot` call time (ns); recorded while tracing.
    pub submit_ns: Vec<u32>,
    /// From submit return to the ticket resolving (ns); recorded while
    /// tracing.
    pub resolve_ns: Vec<u32>,
    /// Generator lateness (ns); recorded while tracing.
    pub late_ns: Vec<u32>,
    /// Server rows and batches swept during the phase.
    pub rows: usize,
    /// Engine sweeps during the phase.
    pub batches: usize,
    /// `Busy` rejections during the phase.
    pub rejected: usize,
}

impl Phase {
    /// The settled phase's p50 latency, in ms.
    pub fn p50_ms(&self) -> Option<f64> {
        percentile(&self.latency_ns, 50.0).map(|ns| f64::from(ns) / 1e6)
    }

    /// The settled phase's p99 latency, in ms (`None` with fewer than ten
    /// samples beyond it).
    pub fn p99_ms(&self) -> Option<f64> {
        percentile(&self.latency_ns, 99.0).map(|ns| f64::from(ns) / 1e6)
    }

    /// Pools the latency windows, minus the worst `TRIMMED_WINDOWS` share,
    /// into the sorted sample the percentiles read.
    fn settle(mut self) -> Phase {
        self.latency_ns = pool_trimmed(std::mem::take(&mut self.windows), TRIMMED_WINDOWS);
        self
    }

    /// Adds another block of the same rate to this phase.
    fn absorb(&mut self, block: Phase) {
        self.attempted += block.attempted;
        self.failed += block.failed;
        self.completed += block.completed;
        self.wall += block.wall;
        self.windows.extend(block.windows);
        self.submit_ns.extend(block.submit_ns);
        self.resolve_ns.extend(block.resolve_ns);
        self.late_ns.extend(block.late_ns);
        self.rows += block.rows;
        self.batches += block.batches;
        self.rejected += block.rejected;
    }

    /// Records a latency in its window of due time; a saturated block has
    /// no latency windows and records none.
    fn record_latency(&mut self, due: u64, ns: u32) {
        if let Some(last) = self.windows.len().checked_sub(1) {
            let window = ((due / self.window_ns) as usize).min(last);
            self.windows[window].push(ns);
        }
    }

    /// Decisions served per second.
    pub fn achieved(&self) -> f64 {
        self.completed as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// The served policy's action count.
const ACTIONS: usize = 4;

/// The decisions of one replayed session: every state it submitted, in
/// order, and an FNV-1a digest over every served action and output value
/// bits — one byte per decision, so the log's size barely moves the
/// process's peak memory.
#[derive(Debug, Clone)]
pub struct Replayed {
    states: Vec<u8>,
    digest: u64,
}

impl Replayed {
    fn new() -> Replayed {
        Replayed { states: Vec::new(), digest: 0xcbf2_9ce4_8422_2325 }
    }

    fn absorb(&mut self, action: usize, values: &[f32]) {
        let words = std::iter::once(action as u32).chain(values.iter().map(|v| v.to_bits()));
        for byte in words.flat_map(u32::to_le_bytes) {
            self.digest ^= u64::from(byte);
            self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

struct InFlight {
    ticket: Ticket<f32>,
    due: u64,
    free_at: Option<u64>,
    submitted: u64,
    returned: u64,
    state: usize,
    request: u64,
}

#[derive(Default)]
struct SessionLoad {
    in_flight: Option<InFlight>,
    waiting: VecDeque<(u64, usize)>,
}

fn clamp_ns(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// The open-loop generator: one constant-rate Poisson phase.
struct Generator<'a> {
    served: &'a Served,
    origin: Instant,
    loads: Vec<SessionLoad>,
    active: Vec<usize>,
    waiting: usize,
    next_request: u64,
    replay: &'a mut [Option<Replayed>],
    phase: Phase,
}

impl Generator<'_> {
    fn clock(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Submits `state` for session `s` (due at `due`), and on refusal keeps
    /// submitting the session's waiting arrivals.
    fn submit(&mut self, s: usize, mut due: u64, mut free_at: Option<u64>, mut state: usize) {
        loop {
            let request = self.next_request;
            self.next_request += 1;
            let submitted = self.clock();
            match self.served.server.submit_one_hot(self.served.sessions[s], state) {
                Ok(ticket) => {
                    let returned = self.clock();
                    if trace::enabled() {
                        self.phase.submit_ns.push(clamp_ns(returned - submitted));
                    }
                    self.loads[s].in_flight = Some(InFlight {
                        ticket,
                        due,
                        free_at,
                        submitted,
                        returned,
                        state,
                        request,
                    });
                    self.active.push(s);
                    return;
                }
                Err(_) => {
                    self.phase.failed += 1;
                    self.phase.record_latency(due, u32::MAX);
                    match self.loads[s].waiting.pop_front() {
                        Some((next_due, next_state)) => {
                            self.waiting -= 1;
                            (due, state) = (next_due, next_state);
                            free_at = Some(self.clock());
                        }
                        None => return,
                    }
                }
            }
        }
    }

    /// Polls every in-flight ticket once; returns whether any resolved.
    fn poll(&mut self) -> bool {
        let mut progressed = false;
        let mut i = 0;
        while i < self.active.len() {
            let s = self.active[i];
            let result =
                match self.loads[s].in_flight.as_ref().expect("active session").ticket.poll() {
                    None => {
                        i += 1;
                        continue;
                    }
                    Some(result) => result,
                };
            progressed = true;
            let resolved = self.clock();
            self.active.swap_remove(i);
            let done = self.loads[s].in_flight.take().expect("active session");
            match result {
                Ok(decision) => {
                    let timing = account(done.due, done.free_at, done.submitted, resolved);
                    self.phase.completed += 1;
                    self.phase.record_latency(done.due, clamp_ns(timing.latency_ns));
                    if trace::enabled() {
                        self.phase.late_ns.push(clamp_ns(timing.gen_late_ns));
                        self.phase.resolve_ns.push(clamp_ns(resolved - done.returned));
                    }
                    if let Some(log) = self.replay[s].as_mut() {
                        log.states.push(u8::try_from(done.state).expect("grid states fit a byte"));
                        log.absorb(decision.action, &decision.values);
                    }
                    if trace::enabled() && done.request.is_multiple_of(SPAN_EVERY) {
                        let base = trace::ns_of(self.origin);
                        let parent = trace::record(
                            "serve.request",
                            done.request,
                            base + done.due,
                            base + resolved,
                            None,
                        );
                        trace::record(
                            "serve.submit",
                            done.request,
                            base + done.submitted,
                            base + done.returned,
                            parent,
                        );
                        trace::record(
                            "serve.resolve",
                            done.request,
                            base + done.returned,
                            base + resolved,
                            parent,
                        );
                    }
                }
                Err(_) => {
                    self.phase.failed += 1;
                    self.phase.record_latency(done.due, u32::MAX);
                }
            }
            if let Some((due, state)) = self.loads[s].waiting.pop_front() {
                self.waiting -= 1;
                self.submit(s, due, Some(resolved), state);
            }
        }
        progressed
    }
}

/// An empty phase of `duration` split into latency windows of `WINDOW`,
/// with every sample buffer sized for `rate` up front: growing a
/// multi-megabyte vector mid-phase would stall the generator and show up as
/// latency.
fn new_phase(rate: f64, duration: Duration) -> Phase {
    let expected = (rate * duration.as_secs_f64() * 1.25) as usize + 1024;
    let windows = ((duration.as_nanos() / WINDOW.as_nanos()) as usize).max(1);
    let traced = if trace::enabled() { expected } else { 0 };
    Phase {
        windows: (0..windows).map(|_| Vec::with_capacity(expected / windows)).collect(),
        window_ns: (duration.as_nanos() as u64 / windows as u64).max(1),
        submit_ns: Vec::with_capacity(traced),
        resolve_ns: Vec::with_capacity(traced),
        late_ns: Vec::with_capacity(traced),
        ..Phase::default()
    }
}

impl<'a> Generator<'a> {
    fn new(served: &'a Served, phase: Phase, replay: &'a mut [Option<Replayed>]) -> Generator<'a> {
        Generator {
            served,
            origin: Instant::now(),
            loads: (0..served.sessions.len()).map(|_| SessionLoad::default()).collect(),
            active: Vec::with_capacity(served.sessions.len()),
            waiting: 0,
            next_request: 0,
            replay,
            phase,
        }
    }

    /// The finished phase, with its wall time and the server's counters
    /// since `before`.
    fn finish(self, before: ServeStats) -> Phase {
        let mut phase = self.phase;
        phase.wall = Duration::from_nanos(self.origin.elapsed().as_nanos() as u64);
        let after = self.served.server.stats();
        phase.rows = after.rows - before.rows;
        phase.batches = after.batches - before.batches;
        phase.rejected = after.rejected - before.rejected;
        phase
    }
}

/// Runs one constant-rate phase of `duration`, then drains it.
fn run_phase(
    served: &Served,
    rate: f64,
    duration: Duration,
    seed: u64,
    replay: &mut [Option<Replayed>],
) -> Phase {
    let before = served.server.stats();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut gen = Generator::new(served, new_phase(rate, duration), replay);
    let end = duration.as_nanos() as u64;
    let mut next_due = exp_gap_ns(rate, unit(&mut rng));
    loop {
        let now = gen.clock();
        let mut progressed = false;
        while next_due <= now && next_due < end {
            let s = rng.gen_range(0..served.sessions.len());
            let state = rng.gen_range(0..served.states);
            gen.phase.attempted += 1;
            if gen.loads[s].in_flight.is_some() {
                gen.loads[s].waiting.push_back((next_due, state));
                gen.waiting += 1;
            } else {
                gen.submit(s, next_due, None, state);
            }
            next_due += exp_gap_ns(rate, unit(&mut rng));
            progressed = true;
        }
        progressed |= gen.poll();
        if now >= end && gen.active.is_empty() && gen.waiting == 0 {
            break;
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    gen.finish(before)
}

/// Runs one saturated block of `duration`: every session resubmits as soon
/// as its reply arrives — a closed loop of `SESSIONS` clients that keeps the
/// queue full — so the server runs at its capacity, the highest rate it
/// sustains; any higher arrival rate grows its backlog.
fn run_saturated(
    served: &Served,
    duration: Duration,
    seed: u64,
    replay: &mut [Option<Replayed>],
) -> Phase {
    let before = served.server.stats();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut gen = Generator::new(served, Phase::default(), replay);
    let end = duration.as_nanos() as u64;
    loop {
        let now = gen.clock();
        if now < end {
            for s in 0..served.sessions.len() {
                if gen.loads[s].in_flight.is_none() {
                    let state = rng.gen_range(0..served.states);
                    gen.phase.attempted += 1;
                    gen.submit(s, now, None, state);
                }
            }
        } else if gen.active.is_empty() {
            break;
        }
        // With the queue full the generator only waits for replies: a
        // pause hint, not a yield system call, leaves the core it may share
        // with the serving thread to that thread.
        if !gen.poll() {
            std::hint::spin_loop();
        }
    }
    gen.finish(before)
}

fn unit(rng: &mut SmallRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Every phase of one pass of the load schedule.
pub struct Schedule {
    /// The `low` fixed-rate phase.
    pub low: Phase,
    /// The `high` fixed-rate phase.
    pub high: Phase,
    /// The saturated blocks.
    pub saturated: Phase,
}

impl Schedule {
    /// The server's capacity (rows/s): the rate served over the saturated
    /// blocks, as timed. It is not scaled to the reference host speed (see
    /// `calib`): the probes on either serving thread swung up to twice as
    /// far between runs as this rate did, so scaling widened its spread.
    pub fn max_rate(&self) -> f64 {
        self.saturated.achieved()
    }

    /// The fixed-rate phases.
    pub fn phases(&self) -> [&Phase; 2] {
        [&self.low, &self.high]
    }

    /// Arrivals scheduled and requests failed over the whole schedule.
    pub fn attempted_failed(&self) -> (usize, usize) {
        let all = [&self.low, &self.high, &self.saturated];
        (all.iter().map(|p| p.attempted).sum(), all.iter().map(|p| p.failed).sum())
    }
}

/// Runs `BLOCKS` rounds of a `low`, a `high` and a saturated block, each a
/// third of a round of `seconds`, so a spell of host contention hits every
/// phase alike and no phase's windows are contiguous; logs every decision
/// of the replayed sessions into `replay`.
pub fn run_schedule(
    served: &Served,
    seconds: f64,
    seed: u64,
    replay: &mut [Option<Replayed>],
) -> Schedule {
    let block = Duration::from_secs_f64(seconds / (3 * BLOCKS) as f64);
    let (mut low, mut high, mut saturated) = (Phase::default(), Phase::default(), Phase::default());
    for b in 0..BLOCKS as u64 {
        low.absorb(run_phase(served, LOW_RATE, block, seed ^ (0x10 + b), replay));
        high.absorb(run_phase(served, HIGH_RATE, block, seed ^ (0x20 + b), replay));
        saturated.absorb(run_saturated(served, block, seed ^ (0x30 + b), replay));
    }
    Schedule { low: low.settle(), high: high.settle(), saturated }
}

/// Picks the replayed sessions: a seeded sample that always includes
/// hooked sessions when there are any.
pub fn replay_slots(served: &Served, seed: u64) -> Vec<Option<Replayed>> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4E91);
    let mut slots: Vec<Option<Replayed>> = vec![None; served.sessions.len()];
    let hooked: Vec<usize> =
        (0..served.sessions.len()).filter(|&s| served.hook_seeds[s].is_some()).collect();
    for k in 0..REPLAY_SESSIONS {
        let s = if k % 2 == 0 && !hooked.is_empty() {
            hooked[rng.gen_range(0..hooked.len())]
        } else {
            rng.gen_range(0..served.sessions.len())
        };
        slots[s] = Some(Replayed::new());
    }
    slots
}

/// Replays every logged decision through the library forward with a fresh,
/// identically seeded hook per session; true when every session's digest
/// of actions and output value bits matches the served one.
pub fn replay_matches(served: &Served, replay: &[Option<Replayed>]) -> bool {
    let mut scratch = Scratch::new();
    let mut input = f32::input_buffer(&[served.states], &served.network);
    replay.iter().enumerate().all(|(s, log)| {
        let Some(log) = log else { return true };
        let mut hook: Box<dyn HooksFor<f32>> = match served.hook_seeds[s] {
            Some(seed) => Box::new(session_hook(&served.network, &served.guard, seed)),
            None => Box::new(NoHooks),
        };
        let mut replayed = Replayed::new();
        for &state in &log.states {
            f32::one_hot(usize::from(state), &mut input);
            let mut rows = DynRowHooks::new(vec![&mut *hook]);
            served.network.forward_batch_into_cfg(
                std::slice::from_ref(&input),
                &mut scratch,
                &mut rows,
                EngineConfig::default(),
            );
            replayed.absorb(argmax(scratch.row(0)), scratch.row(0));
        }
        !log.states.is_empty() && replayed.digest == log.digest
    })
}

/// Stops the server and joins its batcher.
pub fn shutdown(served: Served) {
    served.server.shutdown();
}
