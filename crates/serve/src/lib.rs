//! A multi-tenant policy-serving daemon over the generic inference engine.
//!
//! The paper evaluates fault-injected navigation policies offline, episode by
//! episode; the north star is serving those policies to many concurrent
//! users. This crate is that serving layer:
//!
//! * [`Server`] owns one policy of any numeric backend, one session table,
//!   one bounded request queue and one ingest buffer pool, all behind **one
//!   lock**, and **one dynamic-batcher thread** with its scratch arena. A
//!   session's trace depends only on its own request order, so per-session
//!   determinism holds by construction. To use more cores, run several
//!   servers.
//! * Each open session carries its own forward hooks (fault injection,
//!   range-guard scrubbing — see [`SessionHook`]) and at most one in-flight
//!   request.
//! * The **dynamic batcher** coalesces pending [`Server::submit`] requests
//!   — up to [`ServeConfig::max_batch`], or whatever arrived within
//!   [`ServeConfig::flush_after`] of the oldest pending request — into one
//!   zero-alloc `forward_batch_into_cfg` sweep. Per-session hooks are routed
//!   to their batch row through [`navft_nn::DynRowHooks`], so a served
//!   request observes the *exact* hook call sequence of a single-sample
//!   library forward: action traces are bit-identical to the library-only
//!   path under any coalescing schedule.
//! * The **bounded queue** provides backpressure: beyond
//!   [`ServeConfig::queue_capacity`] pending requests, [`Server::submit`]
//!   rejects with [`ServeError::Busy`] and hands the input back for the
//!   caller to retry. Dropping or shutting the server down drains the
//!   queued requests before joining the batcher. If a session hook panics,
//!   the batcher fails the server closed: every queued and in-sweep ticket
//!   resolves `Err(ServeError::ShuttingDown)` and later submissions are
//!   refused the same way, so no caller hangs.
//! * **Two ways in, one way out.** [`Server::submit`] takes an input
//!   already in the backend's storage representation (a vision client
//!   encodes its frame with [`navft_rl::EvalElement::encode_into`]);
//!   [`Server::submit_one_hot`] writes a discrete state's one-hot row
//!   straight into a pooled buffer recycled from served requests, so
//!   integer backends never round-trip through `f32` and steady-state
//!   ingest performs no allocation. Either returns a [`Ticket`], whose
//!   [`Ticket::wait`] blocks and [`Ticket::poll`] does not.
//! * **One reply cell per session slot.** A ticket reads the reply cell its
//!   session got at open, tagged with the request's generation, so a
//!   request allocates no channel: `poll` is one atomic load until the
//!   reply is ready, and after warm-up a served request allocates only its
//!   [`Decision::values`]. Every accepted ticket resolves exactly once; a
//!   reply the batcher drops unsent resolves `Err(ServeError::ShuttingDown)`.
//!   The cell holds the session's newest reply only, so a ticket left
//!   untaken until the session's next request is served resolves
//!   `ShuttingDown`, never the newer decision.
//!
//! [`client`] ships the lockstep grid-world episode driver the determinism
//! suite uses, plus a bursty open-loop generator
//! ([`client::drive_bursty_load`]) with per-session Poisson-style arrival
//! jitter and ramp/spike phases; [`LatencyWindow`] aggregates request
//! latencies into the p50/p99/p99.9 + rows/s summaries the bench harness
//! writes to `BENCH_<rev>.json`.
//!
//! # Examples
//!
//! ```
//! use navft_nn::mlp;
//! use navft_serve::{ServeConfig, Server, SessionHook};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(0);
//! let policy = mlp(&[4, 8, 2], &mut rng);
//! let server = Server::start(policy, &[4], ServeConfig::default());
//! let session = server.open_session(Box::new(SessionHook::new((), 7)));
//! let ticket = server
//!     .submit(session, navft_nn::Tensor::full(&[4], 0.25))
//!     .expect("request queued");
//! let decision = ticket.wait().expect("served decision");
//! assert!(decision.action < 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;

mod metrics;
mod server;
mod session;

pub use client::{drive_bursty_load, drive_discrete_episodes, BurstyConfig, LoadOutcome};
pub use metrics::LatencyWindow;
pub use server::{Decision, ServeConfig, ServeError, ServeStats, Server, SessionId, Ticket};
pub use session::SessionHook;

#[cfg(test)]
mod testing {
    use std::sync::mpsc;
    use std::time::Duration;

    /// Upper bound on one serve unit test's run time.
    const TIMEOUT: Duration = Duration::from_secs(60);

    /// Runs `test` on a helper thread and fails if it has not finished
    /// within [`TIMEOUT`], so a hung serve path fails the suite instead of
    /// stalling it. A panic inside `test` is re-raised here.
    pub(crate) fn within_timeout(test: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            test();
            let _ = done.send(());
        });
        match finished.recv_timeout(TIMEOUT) {
            Ok(()) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(runner.join().expect_err("the test thread panicked"))
            }
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("test still running after {TIMEOUT:?}"),
        }
    }
}
