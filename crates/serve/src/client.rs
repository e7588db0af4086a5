//! Episode clients: load generators that drive many concurrent sessions
//! through a [`Server`].
//!
//! Two traffic shapes:
//!
//! * The **lockstep episode driver** ([`drive_discrete_episodes`]) steps
//!   its grid-world sessions in rounds — submit every live session's
//!   one-hot state (retrying with a scheduler yield on [`ServeError::Busy`]
//!   backpressure), then wait for every decision. The returned per-session
//!   action traces are what the determinism suite compares bit-for-bit
//!   against the library-only path.
//! * The **bursty open-loop driver** ([`drive_bursty_load`]) schedules each
//!   session's arrivals independently from a seeded per-session RNG
//!   (exponential think times with ramp and spike phases), submits
//!   non-blockingly as arrivals come due, and measures every latency from
//!   the request's *scheduled* arrival — so queueing delay a saturated
//!   server inflicts is charged to the latency distribution instead of
//!   silently stretching the schedule (no coordinated omission).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use navft_rl::{DiscreteEnvironment, EvalElement};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::{LatencyWindow, ServeError, Server, SessionId, Ticket};

/// What a load-generation run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Per-session greedy action traces, in session order (empty for the
    /// bursty driver, which measures load rather than traces).
    pub traces: Vec<Vec<usize>>,
    /// Total requests served (batch rows).
    pub rows: usize,
    /// Submissions that hit [`ServeError::Busy`] backpressure and retried.
    pub retries: usize,
    /// Wall-clock span of the run.
    pub elapsed: Duration,
}

/// Drives one greedy episode per session on a discrete environment (one-hot
/// observations), recording per-request latency into `latency`.
///
/// `sessions[i]` plays `envs[i]`; an episode ends at its first terminal
/// transition or after `max_steps` steps.
///
/// # Panics
///
/// Panics if `sessions` and `envs` differ in length, or on any submit error
/// other than [`ServeError::Busy`] (a mis-built harness, not load).
pub fn drive_discrete_episodes<W, E>(
    server: &Server<W>,
    sessions: &[SessionId],
    envs: &mut [E],
    max_steps: usize,
    latency: &mut LatencyWindow,
) -> LoadOutcome
where
    W: EvalElement,
    E: DiscreteEnvironment,
{
    assert_eq!(sessions.len(), envs.len(), "one environment per session");
    let n = sessions.len();
    let mut states: Vec<usize> = envs.iter_mut().map(|env| env.reset()).collect();
    let mut alive = vec![true; n];
    let mut traces = vec![Vec::new(); n];
    if envs.is_empty() {
        return LoadOutcome { traces, rows: 0, retries: 0, elapsed: Duration::ZERO };
    }

    let mut rows = 0usize;
    let mut retries = 0usize;
    let started = Instant::now();
    for _ in 0..max_steps {
        let mut round: Vec<(usize, Ticket<W>, Instant)> = Vec::new();
        for i in 0..n {
            if !alive[i] {
                continue;
            }
            let (ticket, submitted) =
                submit_one_hot_with_backoff(server, sessions[i], states[i], &mut retries);
            round.push((i, ticket, submitted));
        }
        if round.is_empty() {
            break;
        }
        for (i, ticket, submitted) in round {
            let decision = ticket.wait().expect("served decision");
            latency.record(submitted.elapsed());
            rows += 1;
            traces[i].push(decision.action);
            let transition = envs[i].step(decision.action);
            states[i] = transition.next_state;
            if transition.terminal {
                alive[i] = false;
            }
        }
    }
    LoadOutcome { traces, rows, retries, elapsed: started.elapsed() }
}

/// Traffic shape of the bursty open-loop driver ([`drive_bursty_load`]).
///
/// Each session runs `requests_per_session` requests whose inter-arrival
/// gaps are exponential draws around [`BurstyConfig::mean_think`], scaled by
/// the request's phase: the first quarter of a session's requests arrive at
/// a gentle 2× think (ramp), the middle half at 1× (steady state), and the
/// final quarter at `1 / spike_factor` (spike) — so every run ends in a
/// burst that stresses the tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstyConfig {
    /// Requests each session issues over the run.
    pub requests_per_session: usize,
    /// Mean inter-arrival gap per session in the steady phase.
    pub mean_think: Duration,
    /// How much denser arrivals become in the spike phase (clamped to ≥ 1).
    pub spike_factor: f64,
    /// Seed of the per-session arrival/state RNGs; one seed reproduces the
    /// whole arrival schedule.
    pub seed: u64,
}

impl Default for BurstyConfig {
    /// Four requests per session, 200 µs mean think, a 4× spike.
    fn default() -> Self {
        BurstyConfig {
            requests_per_session: 4,
            mean_think: Duration::from_micros(200),
            spike_factor: 4.0,
            seed: 0xB0B5,
        }
    }
}

/// Per-session run state of the bursty driver.
struct BurstySession<W: navft_nn::Element> {
    rng: SmallRng,
    /// Requests already resolved.
    done: usize,
    /// The in-flight request's scheduled arrival — the latency anchor.
    anchor: Instant,
    ticket: Option<Ticket<W>>,
}

/// An exponential inter-arrival draw around `mean × mult`, capped at 8× so
/// one unlucky draw cannot idle a session for the whole run.
fn exp_gap(rng: &mut SmallRng, mean: Duration, mult: f64) -> Duration {
    // 53 uniform bits in [0, 1); `1 - u` keeps ln away from zero.
    let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let sample = (-(1.0 - unit).ln()).min(8.0);
    mean.mul_f64((mult * sample).max(1e-9))
}

/// The arrival-density multiplier of a session's `done`-th request: ramp,
/// steady, then spike, by request-index fraction.
fn phase_multiplier(done: usize, total: usize, spike_factor: f64) -> f64 {
    let frac = done as f64 / total.max(1) as f64;
    if frac < 0.25 {
        2.0
    } else if frac < 0.75 {
        1.0
    } else {
        1.0 / spike_factor.max(1.0)
    }
}

/// Drives bursty, non-lockstep open-loop load: every session issues
/// [`BurstyConfig::requests_per_session`] one-hot requests (states drawn
/// from `0..states` by the session's seeded RNG) on its own jittered
/// arrival schedule, and each latency is measured from the request's
/// *scheduled* arrival to its decision.
///
/// Arrivals that come due while the session's previous request is still in
/// flight, or that hit [`ServeError::Busy`] backpressure, keep their
/// original schedule anchor — the extra wait is charged to that request's
/// latency. The driver never blocks on a single ticket (tickets resolve via
/// [`Ticket::poll`]), so one slow request cannot stall arrivals due for
/// other sessions. The returned outcome's `traces` are empty: this driver
/// measures load behaviour, the lockstep episode driver pins determinism.
///
/// # Panics
///
/// Panics if `states` is zero or on any submit error other than
/// [`ServeError::Busy`].
pub fn drive_bursty_load<W: EvalElement>(
    server: &Server<W>,
    sessions: &[SessionId],
    states: usize,
    config: &BurstyConfig,
    latency: &mut LatencyWindow,
) -> LoadOutcome {
    assert!(states > 0, "need at least one observable state");
    let total = config.requests_per_session;
    if sessions.is_empty() || total == 0 {
        return LoadOutcome { traces: Vec::new(), rows: 0, retries: 0, elapsed: Duration::ZERO };
    }

    let started = Instant::now();
    let mut runs: Vec<BurstySession<W>> = Vec::with_capacity(sessions.len());
    // Arrival events: (fire-at, session index). The session's `anchor` holds
    // the scheduled arrival the latency is measured from, which never moves
    // on Busy retries.
    let mut arrivals: BinaryHeap<Reverse<(Instant, usize)>> = BinaryHeap::new();
    for i in 0..sessions.len() {
        let mut rng =
            SmallRng::seed_from_u64(config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let first = started + exp_gap(&mut rng, config.mean_think, 2.0);
        runs.push(BurstySession { rng, done: 0, anchor: first, ticket: None });
        arrivals.push(Reverse((first, i)));
    }
    // Busy backoff: short enough to retry within a flush window, long
    // enough not to hammer the queue lock.
    let backoff = (config.mean_think / 8).max(Duration::from_micros(10));

    let mut in_flight: Vec<usize> = Vec::with_capacity(sessions.len());
    let mut rows = 0usize;
    let mut retries = 0usize;
    let mut remaining_sessions = sessions.len();
    while remaining_sessions > 0 {
        let now = Instant::now();
        // Fire every arrival that has come due.
        while let Some(&Reverse((at, i))) = arrivals.peek() {
            if at > now {
                break;
            }
            arrivals.pop();
            let run = &mut runs[i];
            if run.ticket.is_some() {
                // Previous request still in flight (one per session): the
                // arrival re-fires right after it resolves, anchor intact.
                arrivals.push(Reverse((now + backoff, i)));
                continue;
            }
            let state = (run.rng.next_u64() % states as u64) as usize;
            match server.submit_one_hot(sessions[i], state) {
                Ok(ticket) => {
                    run.ticket = Some(ticket);
                    in_flight.push(i);
                }
                Err(ServeError::Busy) => {
                    retries += 1;
                    arrivals.push(Reverse((now + backoff, i)));
                }
                Err(error) => panic!("bursty load generator submit failed: {error}"),
            }
        }

        // Poll every in-flight ticket; resolved requests schedule the
        // session's next arrival from the *previous* scheduled arrival
        // (open loop).
        let mut progressed = false;
        in_flight.retain(|&i| {
            let run = &mut runs[i];
            let resolved = match run.ticket.as_ref().expect("in-flight ticket").poll() {
                None => return true,
                Some(result) => result,
            };
            resolved.expect("served decision");
            run.ticket = None;
            progressed = true;
            latency.record(run.anchor.elapsed());
            rows += 1;
            run.done += 1;
            if run.done < total {
                let mult = phase_multiplier(run.done, total, config.spike_factor);
                let next = run.anchor + exp_gap(&mut run.rng, config.mean_think, mult);
                run.anchor = next;
                arrivals.push(Reverse((next.max(Instant::now()), i)));
            } else {
                remaining_sessions -= 1;
            }
            false
        });

        if !progressed {
            // Nothing resolved this pass: sleep to the next arrival (capped
            // so ticket polls stay frequent) instead of spinning.
            let until_next = arrivals
                .peek()
                .map(|&Reverse((at, _))| at.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_micros(50));
            if until_next > Duration::ZERO && in_flight.is_empty() {
                std::thread::sleep(until_next.min(Duration::from_micros(200)));
            } else {
                std::thread::yield_now();
            }
        }
    }
    LoadOutcome { traces: Vec::new(), rows, retries, elapsed: started.elapsed() }
}

/// Submits a one-hot state, yielding and retrying while the queue pushes
/// back. Returns the ticket and the instant of the *first* attempt, so
/// recorded latencies include the backpressure wait the request actually
/// experienced.
fn submit_one_hot_with_backoff<W: EvalElement>(
    server: &Server<W>,
    session: SessionId,
    state: usize,
    retries: &mut usize,
) -> (Ticket<W>, Instant) {
    let started = Instant::now();
    loop {
        match server.submit_one_hot(session, state) {
            Ok(ticket) => return (ticket, started),
            Err(ServeError::Busy) => {
                *retries += 1;
                std::thread::yield_now();
            }
            Err(error) => panic!("load generator submit failed: {error}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::within_timeout;
    use crate::{ServeConfig, SessionHook};
    use navft_gridworld::GridWorld;
    use navft_nn::mlp;
    use navft_rl::trace_policy_discrete;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::time::Duration;

    #[test]
    fn gridworld_load_generator_matches_the_library_traces() {
        within_timeout(|| {
            let mut rng = SmallRng::seed_from_u64(3);
            let world = GridWorld::random(6, 0.2, &mut rng);
            let states = world.num_states();
            let policy = mlp(&[states, 24, 4], &mut SmallRng::seed_from_u64(4));

            // Library reference: one greedy episode per environment copy.
            let expected: Vec<Vec<usize>> = (0..5)
                .map(|_| {
                    let mut env = world.clone();
                    trace_policy_discrete(&mut env, &policy, 30, &mut navft_nn::NoHooks)
                })
                .collect();

            let config =
                ServeConfig::default().with_max_batch(3).with_flush_after(Duration::from_millis(1));
            let server = Server::start(policy, &[states], config);
            let sessions: Vec<_> = (0..5)
                .map(|i| server.open_session(Box::new(SessionHook::<f32>::new((), i))))
                .collect();
            let mut envs: Vec<GridWorld> = (0..5).map(|_| world.clone()).collect();
            let mut latency = LatencyWindow::new();
            let outcome = drive_discrete_episodes(&server, &sessions, &mut envs, 30, &mut latency);

            assert_eq!(outcome.traces, expected, "served traces must match the library path");
            assert_eq!(latency.len(), outcome.rows);
            assert!(outcome.rows >= 5, "each session took at least one step");
            assert!(server.stats().max_rows_per_batch > 1, "requests coalesced");
        });
    }

    #[test]
    fn bursty_driver_serves_every_scheduled_request() {
        within_timeout(|| {
            let states = 6;
            let policy = mlp(&[states, 16, 4], &mut SmallRng::seed_from_u64(9));
            let config = ServeConfig::default()
                .with_max_batch(8)
                .with_flush_after(Duration::from_micros(100));
            let server = Server::start(policy, &[states], config);
            let sessions: Vec<_> = (0..16).map(|_| server.open_clean_session()).collect();
            let bursty = BurstyConfig {
                requests_per_session: 5,
                mean_think: Duration::from_micros(100),
                spike_factor: 4.0,
                seed: 17,
            };
            let mut latency = LatencyWindow::new();
            let outcome = drive_bursty_load(&server, &sessions, states, &bursty, &mut latency);
            // Open-loop accounting: every scheduled request resolved, none lost.
            assert_eq!(outcome.rows, 16 * 5);
            assert_eq!(latency.len(), outcome.rows);
            assert!(latency.p999() >= latency.p50(), "percentiles are ordered");
            server.shutdown();
        });
    }
}
