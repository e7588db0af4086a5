//! The serving daemon: one session table and one bounded request queue
//! behind one lock, served by one dynamic-batcher thread that answers each
//! request through its session slot's reply cell.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use navft_nn::{argmax, DynRowHooks, Element, EngineConfig, ForwardHooks, NetworkBase, NoHooks};
use navft_nn::{Scratch, TensorBase};
use navft_rl::EvalElement;

/// Configuration of a [`Server`]'s dynamic batcher and request queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Largest number of requests coalesced into one engine sweep.
    pub max_batch: usize,
    /// Pending-request bound beyond which [`Server::submit`] rejects with
    /// [`ServeError::Busy`].
    pub queue_capacity: usize,
    /// How long the batcher waits for more requests after the oldest
    /// pending one before flushing a partial batch.
    pub flush_after: Duration,
}

impl Default for ServeConfig {
    /// Batches of up to 64 rows, a 256-request queue and a 200 µs flush
    /// deadline.
    fn default() -> Self {
        ServeConfig { max_batch: 64, queue_capacity: 256, flush_after: Duration::from_micros(200) }
    }
}

impl ServeConfig {
    /// Returns the config with the coalescing bound set (clamped to ≥ 1).
    pub fn with_max_batch(mut self, max_batch: usize) -> ServeConfig {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Returns the config with the queue bound set (clamped to ≥ 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> ServeConfig {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Returns the config with the partial-batch flush deadline set.
    pub fn with_flush_after(mut self, flush_after: Duration) -> ServeConfig {
        self.flush_after = flush_after;
        self
    }
}

/// Why the server declined a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The request queue is full — back off and retry.
    Busy,
    /// The server is draining towards shutdown (or its batcher died); no
    /// new requests.
    ShuttingDown,
    /// The session does not exist (never opened, or already closed).
    UnknownSession,
    /// The session already has a request in flight (one per session).
    InFlight,
    /// The observation's shape does not match the served policy's input.
    BadShape,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            ServeError::Busy => "request queue is full",
            ServeError::ShuttingDown => "server is shutting down",
            ServeError::UnknownSession => "unknown session",
            ServeError::InFlight => "session already has a request in flight",
            ServeError::BadShape => "observation shape does not match the policy input",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ServeError {}

/// The served outcome of one request, as its [`Ticket`] resolves: the
/// greedy action plus the policy's output row in the backend's storage
/// representation.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision<W: Element> {
    /// Argmax over the policy's final layer.
    pub action: usize,
    /// The final layer's values for this request's batch row.
    pub values: Vec<W>,
}

/// Handle to an open session of a [`Server`]: the index of the session's
/// slot in the server's session table. A closed session's slot (and so its
/// id) is reused by a later open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(usize);

/// What a request resolves to.
type Outcome<W> = Result<Decision<W>, ServeError>;

/// A session slot's reply cell, created when the session opens and shared
/// by every request of the session and their tickets. Each request carries
/// the slot's next generation; the batcher stores its reply tagged with that
/// generation, replacing any older reply still untaken.
struct ReplyCell<W: Element> {
    /// Generation of the newest stored reply (0 before the first). Written
    /// under `slot`'s lock, so a ticket can check for its reply with one
    /// load.
    ready: AtomicU64,
    slot: Mutex<CellSlot<W>>,
    /// Wakes [`Ticket::wait`] callers blocked on this cell.
    resolved: Condvar,
}

struct CellSlot<W: Element> {
    /// The newest reply and its generation, until its ticket takes it.
    reply: Option<(u64, Outcome<W>)>,
    /// Whether a [`Ticket::wait`] may be blocked on the cell; a reply skips
    /// the wake-up otherwise.
    waiting: bool,
}

impl<W: Element> ReplyCell<W> {
    fn new() -> Arc<ReplyCell<W>> {
        Arc::new(ReplyCell {
            ready: AtomicU64::new(0),
            slot: Mutex::new(CellSlot { reply: None, waiting: false }),
            resolved: Condvar::new(),
        })
    }

    /// Locks the cell. No code panics while holding it, and the drop path of
    /// [`Reply`] must not panic, so a poisoned cell is used as it is.
    fn lock(&self) -> MutexGuard<'_, CellSlot<W>> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stores the reply for `generation` and wakes blocked waiters. The one
    /// batcher stores a slot's replies in generation order.
    fn store(&self, generation: u64, outcome: Outcome<W>) {
        let mut slot = self.lock();
        slot.reply = Some((generation, outcome));
        self.ready.store(generation, Ordering::Release);
        if std::mem::take(&mut slot.waiting) {
            self.resolved.notify_all();
        }
    }
}

/// The batcher's half of a request's reply. Dropped unsent (a request the
/// fail-closed drain discards, or a row of an unwinding sweep), it resolves
/// its ticket `Err(ServeError::ShuttingDown)`, so every accepted ticket
/// resolves exactly once.
struct Reply<W: Element> {
    cell: Arc<ReplyCell<W>>,
    generation: u64,
    sent: bool,
}

impl<W: Element> Reply<W> {
    fn send(mut self, outcome: Outcome<W>) {
        self.cell.store(self.generation, outcome);
        self.sent = true;
    }
}

impl<W: Element> Drop for Reply<W> {
    fn drop(&mut self) {
        if !self.sent {
            self.cell.store(self.generation, Err(ServeError::ShuttingDown));
        }
    }
}

/// A pending reply to a submitted request; resolves via [`Ticket::wait`] or
/// non-blocking [`Ticket::poll`].
///
/// A ticket reads its session slot's reply cell, which holds one reply: the
/// session's newest. Take a decision before the session's next request is
/// served. A ticket whose reply a newer request's reply has replaced
/// resolves `Err(ServeError::ShuttingDown)`, never the newer decision.
pub struct Ticket<W: Element> {
    cell: Arc<ReplyCell<W>>,
    generation: u64,
}

impl<W: Element> std::fmt::Debug for Ticket<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl<W: Element> Ticket<W> {
    /// Blocks until the batcher serves this request (or refuses it).
    pub fn wait(self) -> Result<Decision<W>, ServeError> {
        let mut slot = self.cell.lock();
        while self.cell.ready.load(Ordering::Acquire) < self.generation {
            slot.waiting = true;
            slot = self.cell.resolved.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
        self.take(&mut slot)
    }

    /// Checks for the decision without blocking: `None` while the request is
    /// still queued or sweeping (one atomic load), `Some(result)` exactly
    /// once when it has resolved. The reply is consumed here: the cell
    /// keeps no copy, so a later [`Ticket::wait`] (or poll) returns
    /// `Err(ServeError::ShuttingDown)`.
    pub fn poll(&self) -> Option<Result<Decision<W>, ServeError>> {
        if self.cell.ready.load(Ordering::Acquire) < self.generation {
            return None;
        }
        Some(self.take(&mut self.cell.lock()))
    }

    /// Takes this ticket's reply from the locked cell; a reply already taken
    /// or replaced by a newer one resolves `Err(ServeError::ShuttingDown)`.
    fn take(&self, slot: &mut CellSlot<W>) -> Outcome<W> {
        match slot.reply.take_if(|(generation, _)| *generation == self.generation) {
            Some((_, outcome)) => outcome,
            None => Err(ServeError::ShuttingDown),
        }
    }
}

/// Counters of a server's lifetime activity (see [`Server::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests served (batch rows swept through the engine).
    pub rows: usize,
    /// Engine sweeps run (batches flushed).
    pub batches: usize,
    /// Submissions rejected with [`ServeError::Busy`].
    pub rejected: usize,
    /// Largest batch coalesced so far.
    pub max_rows_per_batch: usize,
}

/// A session's forward hooks; every request of the session runs under them.
type SessionHooks<W> = Box<dyn ForwardHooks<W> + Send>;

struct SessionState<W: Element> {
    /// The session's forward hooks. `None` only while the batcher borrows
    /// them for a sweep (the slot's `in_flight` flag is set for that span).
    hooks: Option<SessionHooks<W>>,
    in_flight: bool,
    /// The reply cell every request of this session answers through.
    cell: Arc<ReplyCell<W>>,
    /// Generation of the session's newest accepted request.
    generation: u64,
}

struct Request<W: Element> {
    session: SessionId,
    input: TensorBase<W>,
    reply: Reply<W>,
}

/// Everything the submitters and the batcher share, guarded by one lock.
struct State<W: Element> {
    /// Session slots, indexed by [`SessionId`].
    slots: Vec<Option<SessionState<W>>>,
    /// Closed slots, reused by the next open so opening stays O(1) however
    /// many sessions came and went (the scale bench opens 32k+).
    free: Vec<usize>,
    pending: VecDeque<Request<W>>,
    /// When the oldest pending request was enqueued — the flush deadline's
    /// anchor. `None` while the queue is empty.
    oldest: Option<Instant>,
    shutdown: bool,
    /// Recycled input buffers for [`Server::submit_one_hot`]: served
    /// requests return their tensors here, so steady-state one-hot ingest
    /// allocates nothing. Bounded by `queue_capacity` — the most inputs the
    /// server can have in flight.
    pool: Vec<TensorBase<W>>,
    stats: ServeStats,
}

impl<W: Element> State<W> {
    /// Returns `input` to the ingest pool unless the pool is full.
    fn recycle(&mut self, input: TensorBase<W>, capacity: usize) {
        if self.pool.len() < capacity {
            self.pool.push(input);
        }
    }
}

struct Shared<W: Element> {
    network: NetworkBase<W>,
    input_shape: Vec<usize>,
    config: ServeConfig,
    state: Mutex<State<W>>,
    /// Wakes the batcher on every submission and on shutdown.
    wake: Condvar,
}

impl<W: Element> Shared<W> {
    /// Locks the server state. Hooks run outside the lock, so only a bug
    /// in a critical section can poison it.
    fn lock(&self) -> MutexGuard<'_, State<W>> {
        self.state.lock().expect("server state lock poisoned")
    }

    /// [`Shared::lock`] for the drop paths, which must not panic: a
    /// poisoned state is still good enough to mark shut down.
    fn lock_for_drop(&self) -> MutexGuard<'_, State<W>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The one critical section of a submission: checks the session,
    /// shutdown and the queue bound, then marks the session in flight, bumps
    /// its generation and queues the request. A refused input is handed
    /// back.
    fn enqueue(
        &self,
        state: &mut State<W>,
        session: SessionId,
        input: TensorBase<W>,
    ) -> Result<Ticket<W>, (ServeError, TensorBase<W>)> {
        let error = match state.slots.get_mut(session.0) {
            None | Some(None) => ServeError::UnknownSession,
            Some(Some(_)) if state.shutdown => ServeError::ShuttingDown,
            Some(Some(slot)) if slot.in_flight => ServeError::InFlight,
            Some(Some(_)) if state.pending.len() >= self.config.queue_capacity => {
                state.stats.rejected += 1;
                ServeError::Busy
            }
            Some(Some(slot)) => {
                slot.in_flight = true;
                slot.generation += 1;
                let generation = slot.generation;
                let ticket = Ticket { cell: Arc::clone(&slot.cell), generation };
                let reply = Reply { cell: Arc::clone(&slot.cell), generation, sent: false };
                if state.pending.is_empty() {
                    state.oldest = Some(Instant::now());
                }
                state.pending.push_back(Request { session, input, reply });
                self.wake.notify_one();
                return Ok(ticket);
            }
        };
        Err((error, input))
    }
}

/// A policy-serving daemon: one policy, many sessions, and one
/// dynamic-batcher thread coalescing concurrent requests into batched
/// engine sweeps.
///
/// All server state — the session table, the bounded queue, the ingest
/// buffer pool and the counters — sits behind one lock. A session's episode
/// trace depends only on its own request order, never on which other
/// sessions exist or how their requests coalesce. See the
/// [crate docs](crate) for the architecture. To use more cores, run several
/// servers. Dropping the server drains the queued requests, then joins the
/// batcher.
pub struct Server<W: Element> {
    shared: Arc<Shared<W>>,
    batcher: Option<JoinHandle<()>>,
}

impl<W: Element> Server<W> {
    /// Starts a server for `network`, whose sessions submit observations of
    /// `input_shape`, and spawns its batcher thread.
    pub fn start(network: NetworkBase<W>, input_shape: &[usize], config: ServeConfig) -> Server<W> {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(config.queue_capacity >= 1, "queue_capacity must be at least 1");
        let shared = Arc::new(Shared {
            network,
            input_shape: input_shape.to_vec(),
            config,
            state: Mutex::new(State {
                slots: Vec::new(),
                free: Vec::new(),
                pending: VecDeque::new(),
                oldest: None,
                shutdown: false,
                pool: Vec::new(),
                stats: ServeStats::default(),
            }),
            wake: Condvar::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let batcher = std::thread::Builder::new()
            .name("navft-serve-batcher".to_string())
            .spawn(move || worker_loop(&worker_shared))
            .expect("spawn batcher");
        Server { shared, batcher: Some(batcher) }
    }

    /// The served policy.
    pub fn network(&self) -> &NetworkBase<W> {
        &self.shared.network
    }

    /// The observation shape every submission must match.
    pub fn input_shape(&self) -> &[usize] {
        &self.shared.input_shape
    }

    /// Opens a session carrying `hooks`, which observe (and may corrupt or
    /// scrub) every forward pass this session's requests ride in — the
    /// per-tenant fault-injection and mitigation surface.
    pub fn open_session(&self, hooks: Box<dyn ForwardHooks<W> + Send>) -> SessionId {
        let session = SessionState {
            hooks: Some(hooks),
            in_flight: false,
            cell: ReplyCell::new(),
            generation: 0,
        };
        let mut state = self.shared.lock();
        let slot = match state.free.pop() {
            Some(slot) => {
                state.slots[slot] = Some(session);
                slot
            }
            None => {
                state.slots.push(Some(session));
                state.slots.len() - 1
            }
        };
        SessionId(slot)
    }

    /// Opens a session with no hooks (a clean tenant).
    pub fn open_clean_session(&self) -> SessionId {
        self.open_session(Box::new(NoHooks))
    }

    /// Closes a session. Fails with [`ServeError::InFlight`] while the
    /// session has an unserved request.
    pub fn close_session(&self, session: SessionId) -> Result<(), ServeError> {
        let mut state = self.shared.lock();
        match state.slots.get(session.0) {
            Some(Some(slot)) if slot.in_flight => Err(ServeError::InFlight),
            Some(Some(_)) => {
                state.slots[session.0] = None;
                state.free.push(session.0);
                Ok(())
            }
            _ => Err(ServeError::UnknownSession),
        }
    }

    /// Number of currently open sessions.
    pub fn session_count(&self) -> usize {
        let state = self.shared.lock();
        state.slots.len() - state.free.len()
    }

    /// Enqueues one observation for `session` and returns a [`Ticket`] that
    /// resolves when the batcher serves it.
    ///
    /// On rejection the observation is handed back alongside the error, so a
    /// [`ServeError::Busy`] caller can retry without re-building it. Each
    /// session may have at most one request in flight.
    pub fn submit(
        &self,
        session: SessionId,
        input: TensorBase<W>,
    ) -> Result<Ticket<W>, (ServeError, TensorBase<W>)> {
        if input.shape() != self.shared.input_shape.as_slice() {
            return Err((ServeError::BadShape, input));
        }
        let mut state = self.shared.lock();
        self.shared.enqueue(&mut state, session, input)
    }

    /// Number of requests waiting in the queue right now.
    pub fn pending(&self) -> usize {
        self.shared.lock().pending.len()
    }

    /// Lifetime activity counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.lock().stats
    }

    /// Stops accepting new requests, drains the queued requests, and joins
    /// the batcher. (Dropping the server does the same.)
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.lock_for_drop().shutdown = true;
        self.shared.wake.notify_all();
        if let Some(batcher) = self.batcher.take() {
            // A batcher that died of a panicking hook has already failed
            // the server closed; there is nothing left to drain.
            let _ = batcher.join();
        }
    }
}

impl<W: EvalElement> Server<W> {
    /// Pops a recycled input buffer from the ingest pool, or allocates one
    /// on a cold pool.
    fn ingest_buffer(&self) -> TensorBase<W> {
        let recycled = self.shared.lock().pool.pop();
        recycled.unwrap_or_else(|| W::input_buffer(&self.shared.input_shape, &self.shared.network))
    }

    /// [`Server::submit`] for a pooled ingest buffer: a refused buffer goes
    /// back to the pool in the same critical section.
    fn submit_staged(
        &self,
        session: SessionId,
        input: TensorBase<W>,
    ) -> Result<Ticket<W>, ServeError> {
        let mut state = self.shared.lock();
        self.shared.enqueue(&mut state, session, input).map_err(|(error, returned)| {
            state.recycle(returned, self.shared.config.queue_capacity);
            error
        })
    }

    /// Enqueues a one-hot observation of `state` for `session`, written
    /// directly in the backend's storage representation — discrete clients
    /// never build (or clone) an `f32` tensor at all.
    pub fn submit_one_hot(
        &self,
        session: SessionId,
        state: usize,
    ) -> Result<Ticket<W>, ServeError> {
        let input = self.one_hot_input(state)?;
        self.submit_staged(session, input)
    }

    /// A pooled buffer holding the one-hot encoding of `state`.
    fn one_hot_input(&self, state: usize) -> Result<TensorBase<W>, ServeError> {
        let mut input = self.ingest_buffer();
        if state >= input.len() {
            self.shared.lock().recycle(input, self.shared.config.queue_capacity);
            return Err(ServeError::BadShape);
        }
        W::one_hot(state, &mut input);
        Ok(input)
    }
}

impl<W: Element> Drop for Server<W> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The requests of one engine sweep, row by row, with their sessions'
/// hooks. Its vectors are reused across sweeps.
struct Batch<W: Element> {
    inputs: Vec<TensorBase<W>>,
    hooks: Vec<SessionHooks<W>>,
    replies: Vec<(SessionId, Reply<W>)>,
}

/// Fails the server closed when the batcher exits. After a normal drain
/// this changes nothing; when a panicking session hook unwinds the batcher,
/// it marks the server shut down, so later submissions are refused, and
/// drops the queued requests, whose unsent replies then resolve their
/// tickets `Err(ServeError::ShuttingDown)` instead of leaving them waiting
/// forever.
struct FailClosed<'a, W: Element>(&'a Shared<W>);

impl<W: Element> Drop for FailClosed<'_, W> {
    fn drop(&mut self) {
        let mut state = self.0.lock_for_drop();
        state.shutdown = true;
        state.pending.clear();
        state.oldest = None;
        // Nothing can be in flight without a batcher; a session whose hooks
        // died with the sweep can still be closed.
        for session in state.slots.iter_mut().flatten() {
            session.in_flight = false;
        }
    }
}

/// The batcher: wait for a full batch or a flush deadline, take up to
/// `max_batch` requests, sweep them through the engine, reply per row.
fn worker_loop<W: Element>(shared: &Shared<W>) {
    let mut scratch = Scratch::new();
    let mut batch = Batch { inputs: Vec::new(), hooks: Vec::new(), replies: Vec::new() };
    // Declared after `batch`, so an unwinding sweep drops it first: the
    // server is already shut down by the time the unsent replies held in
    // `batch` drop and wake their callers.
    let _fail_closed = FailClosed(shared);
    while take_batch(shared, &mut batch) {
        serve_batch(shared, &mut scratch, &mut batch);
    }
}

/// Waits until a batch is due, then moves up to `max_batch` pending
/// requests into `batch` and takes their sessions' hooks, in one critical
/// section. Returns `false` once the server is shut down and drained.
fn take_batch<W: Element>(shared: &Shared<W>, batch: &mut Batch<W>) -> bool {
    let config = &shared.config;
    let mut state = shared.lock();
    loop {
        let full = state.pending.len() >= config.max_batch;
        // On shutdown, flush whatever is queued (graceful drain) and exit
        // once the queue is empty.
        if full || (state.shutdown && !state.pending.is_empty()) {
            break;
        }
        if state.shutdown {
            return false;
        }
        if state.pending.is_empty() {
            state = shared.wake.wait(state).expect("server state lock poisoned");
            continue;
        }
        let waited = state.oldest.map_or(Duration::ZERO, |t| t.elapsed());
        if waited >= config.flush_after {
            break;
        }
        let timeout = config.flush_after - waited;
        state = shared.wake.wait_timeout(state, timeout).expect("server state lock poisoned").0;
    }
    let take = state.pending.len().min(config.max_batch);
    let State { slots, pending, oldest, .. } = &mut *state;
    // The in-flight flag set at submit keeps each slot open and its hooks
    // in place until the sweep returns them.
    for request in pending.drain(..take) {
        let hooks = slots[request.session.0]
            .as_mut()
            .and_then(|session| session.hooks.take())
            .expect("an in-flight session keeps its slot and hooks");
        batch.inputs.push(request.input);
        batch.hooks.push(hooks);
        batch.replies.push((request.session, request.reply));
    }
    *oldest = if pending.is_empty() { None } else { Some(Instant::now()) };
    true
}

/// Sweeps `batch` through the engine with each row under its session's
/// hooks, then settles the batch and replies.
///
/// Lock order: the state lock is taken before a reply cell's lock (the
/// `FailClosed` drain drops unsent replies while it holds the state lock),
/// and no cell lock is ever held while taking the state lock.
fn serve_batch<W: Element>(shared: &Shared<W>, scratch: &mut Scratch<W>, batch: &mut Batch<W>) {
    let rows = batch.inputs.len();
    let row_hooks: Vec<&mut dyn ForwardHooks<W>> =
        batch.hooks.iter_mut().map(|hook| &mut **hook as &mut dyn ForwardHooks<W>).collect();
    shared.network.forward_batch_into_cfg(
        &batch.inputs,
        scratch,
        &mut DynRowHooks::new(row_hooks),
        EngineConfig::default(),
    );

    // Return the hooks, release the in-flight slots, recycle the inputs
    // into the ingest pool and count the sweep *before* replying: once a
    // client sees its decision it may immediately resubmit, so its slot
    // must already be free by then. The scratch rows stay untouched until
    // the replies read them.
    {
        let mut state = shared.lock();
        let state = &mut *state;
        for ((session, _), hooks) in batch.replies.iter().zip(batch.hooks.drain(..)) {
            let slot =
                state.slots[session.0].as_mut().expect("an in-flight session keeps its slot");
            slot.hooks = Some(hooks);
            slot.in_flight = false;
        }
        let room = shared.config.queue_capacity.saturating_sub(state.pool.len());
        state.pool.extend(batch.inputs.drain(..).take(room));
        state.stats.rows += rows;
        state.stats.batches += 1;
        state.stats.max_rows_per_batch = state.stats.max_rows_per_batch.max(rows);
    }
    for (row, (_, reply)) in batch.replies.drain(..).enumerate() {
        let values = scratch.row(row);
        reply.send(Ok(Decision { action: argmax(values), values: values.to_vec() }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::within_timeout;
    use navft_nn::{mlp, Tensor};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn policy() -> navft_nn::Network {
        let mut rng = SmallRng::seed_from_u64(0);
        mlp(&[4, 8, 3], &mut rng)
    }

    fn obs(v: f32) -> Tensor {
        Tensor::full(&[4], v)
    }

    #[test]
    fn served_decision_matches_the_library_forward() {
        within_timeout(|| {
            let net = policy();
            let expected = net.forward(&obs(0.3)).argmax();
            let server = Server::start(net, &[4], ServeConfig::default());
            let session = server.open_clean_session();
            let decision =
                server.submit(session, obs(0.3)).expect("submit").wait().expect("decision");
            assert_eq!(decision.action, expected);
            assert_eq!(decision.values.len(), 3);
        });
    }

    #[test]
    fn unknown_sessions_bad_shapes_and_double_submits_are_refused() {
        within_timeout(|| {
            let server = Server::start(policy(), &[4], ServeConfig::default());
            let (err, _) = server.submit(SessionId(3), obs(0.0)).expect_err("no session");
            assert_eq!(err, ServeError::UnknownSession);

            let session = server.open_clean_session();
            let (err, _) =
                server.submit(session, Tensor::full(&[5], 0.0)).expect_err("wrong shape");
            assert_eq!(err, ServeError::BadShape);

            // Stall the batcher with a long flush deadline so the first
            // request stays in flight while the second arrives.
            let server = Server::start(
                policy(),
                &[4],
                ServeConfig::default().with_flush_after(Duration::from_secs(5)),
            );
            let session = server.open_clean_session();
            let ticket = server.submit(session, obs(0.1)).expect("first submit");
            let (err, _) = server.submit(session, obs(0.2)).expect_err("in flight");
            assert_eq!(err, ServeError::InFlight);
            assert_eq!(server.close_session(session).expect_err("busy"), ServeError::InFlight);
            drop(server); // graceful drain resolves the ticket
            assert!(ticket.wait().is_ok());
        });
    }

    #[test]
    fn full_queue_rejects_with_busy_and_drains_on_shutdown() {
        within_timeout(|| {
            let config = ServeConfig::default()
                .with_max_batch(64)
                .with_queue_capacity(2)
                .with_flush_after(Duration::from_secs(5));
            let server = Server::start(policy(), &[4], config);
            let a = server.open_clean_session();
            let b = server.open_clean_session();
            let c = server.open_clean_session();
            let ta = server.submit(a, obs(0.1)).expect("first");
            let tb = server.submit(b, obs(0.2)).expect("second");
            let (err, returned) = server.submit(c, obs(0.3)).expect_err("queue full");
            assert_eq!(err, ServeError::Busy);
            assert_eq!(returned.data(), obs(0.3).data(), "rejected input is handed back");
            assert_eq!(server.stats().rejected, 1);
            // The rejected session is immediately usable again after drain.
            server.shutdown();
            assert!(ta.wait().is_ok());
            assert!(tb.wait().is_ok());
        });
    }

    #[test]
    fn batcher_coalesces_full_batches_immediately() {
        within_timeout(|| {
            let config = ServeConfig::default()
                .with_max_batch(4)
                .with_queue_capacity(64)
                .with_flush_after(Duration::from_secs(5));
            let net = policy();
            let expected: Vec<usize> =
                (0..8).map(|i| net.forward(&obs(i as f32 * 0.1)).argmax()).collect();
            let server = Server::start(net, &[4], config);
            let sessions: Vec<SessionId> = (0..8).map(|_| server.open_clean_session()).collect();
            // 8 pending requests with a 5 s deadline: only full batches of 4
            // can have flushed them.
            let tickets: Vec<Ticket<f32>> = sessions
                .iter()
                .enumerate()
                .map(|(i, &s)| server.submit(s, obs(i as f32 * 0.1)).expect("submit"))
                .collect();
            for (ticket, want) in tickets.into_iter().zip(expected) {
                assert_eq!(ticket.wait().expect("decision").action, want);
            }
            let stats = server.stats();
            assert_eq!(stats.rows, 8);
            assert_eq!(stats.max_rows_per_batch, 4);
            assert_eq!(stats.batches, 2);
        });
    }

    #[test]
    fn partial_batches_flush_after_the_deadline() {
        within_timeout(|| {
            let config = ServeConfig::default()
                .with_max_batch(64)
                .with_flush_after(Duration::from_millis(1));
            let server = Server::start(policy(), &[4], config);
            let session = server.open_clean_session();
            let decision =
                server.submit(session, obs(0.4)).expect("submit").wait().expect("decision");
            assert_eq!(decision.values.len(), 3);
            assert_eq!(server.stats().max_rows_per_batch, 1);
        });
    }

    #[test]
    fn sessions_reuse_freed_slots() {
        within_timeout(|| {
            let server = Server::start(policy(), &[4], ServeConfig::default());
            let a = server.open_clean_session();
            let _b = server.open_clean_session();
            server.close_session(a).expect("close");
            assert_eq!(server.session_count(), 1);
            let c = server.open_clean_session();
            assert_eq!(c, a, "freed slot is reused");
            assert_eq!(server.session_count(), 2);
            assert_eq!(server.close_session(a), Ok(()));
            assert_eq!(server.close_session(a), Err(ServeError::UnknownSession));
        });
    }

    #[test]
    fn tickets_poll_without_blocking() {
        within_timeout(|| {
            let config = ServeConfig::default().with_flush_after(Duration::from_secs(5));
            let server = Server::start(policy(), &[4], config);
            let session = server.open_clean_session();
            let ticket = server.submit(session, obs(0.2)).expect("submit");
            // The batcher is stalled on the 5 s deadline: poll sees nothing.
            assert!(ticket.poll().is_none());
            server.shutdown(); // graceful drain serves the request
            let polled = loop {
                if let Some(result) = ticket.poll() {
                    break result;
                }
                std::thread::yield_now();
            };
            assert!(polled.is_ok());
            // The poll took the reply out of the cell: every later poll or
            // wait resolves ShuttingDown.
            assert_eq!(ticket.poll(), Some(Err(ServeError::ShuttingDown)));
            assert_eq!(ticket.wait().expect_err("reply already taken"), ServeError::ShuttingDown);
        });
    }

    /// The decision the library forward gives for `input`.
    fn library_decision(net: &navft_nn::Network, input: &Tensor) -> Decision<f32> {
        let values = net.forward(input).data().to_vec();
        Decision { action: argmax(&values), values }
    }

    #[test]
    fn requests_the_fail_closed_drain_drops_resolve_shutting_down() {
        within_timeout(|| {
            let config = ServeConfig::default().with_flush_after(Duration::from_secs(5));
            let server = Server::start(policy(), &[4], config);
            let polled = server.open_clean_session();
            let waited = server.open_clean_session();
            let polled_ticket = server.submit(polled, obs(0.1)).expect("submit");
            let waited_ticket = server.submit(waited, obs(0.2)).expect("submit");
            let cell =
                Arc::clone(&server.shared.lock().slots[waited.0].as_ref().expect("open").cell);
            let waiter = std::thread::spawn(move || waited_ticket.wait());
            while !cell.lock().waiting {
                std::thread::yield_now();
            }
            // The batcher is stalled on the 5 s deadline; the drain a dying
            // batcher runs discards both queued requests, and the unsent
            // replies wake the blocked waiter.
            drop(FailClosed(&*server.shared));
            assert_eq!(polled_ticket.poll(), Some(Err(ServeError::ShuttingDown)));
            assert_eq!(waiter.join().expect("waiter"), Err(ServeError::ShuttingDown));
            assert_eq!(polled_ticket.poll(), Some(Err(ServeError::ShuttingDown)));
        });
    }

    #[test]
    fn a_stale_ticket_never_gets_its_sessions_newer_decision() {
        within_timeout(|| {
            let net = policy();
            let (a, b) = (obs(0.1), obs(0.9));
            let (want_a, want_b) = (library_decision(&net, &a), library_decision(&net, &b));
            assert_ne!(want_a, want_b, "a leaked decision must be visible");
            // Batches flush only when full, so the batcher serves a
            // session's request exactly when the helper session fills its
            // batch. Rows reply in submission order, so the helper's
            // resolved ticket shows the session's reply is stored.
            let config =
                ServeConfig::default().with_max_batch(2).with_flush_after(Duration::from_secs(5));
            let server = Server::start(net, &[4], config);
            let session = server.open_clean_session();
            let helper = server.open_clean_session();
            let serve_with_helper = || {
                let ticket = server.submit(helper, obs(0.5)).expect("helper submit");
                ticket.wait().expect("helper decision");
            };

            // Served, then kept unpolled while the session's next request is
            // accepted: the ticket still takes its own decision.
            let first = server.submit(session, a.clone()).expect("submit");
            serve_with_helper();
            let second = server.submit(session, b).expect("resubmit after the reply");
            assert_eq!(first.wait(), Ok(want_a.clone()));

            // Kept unpolled until the next request's reply replaced its own:
            // it resolves ShuttingDown, never the newer decision.
            serve_with_helper();
            let third = server.submit(session, a).expect("resubmit after the reply");
            serve_with_helper();
            assert_eq!(second.poll(), Some(Err(ServeError::ShuttingDown)));
            assert_eq!(third.wait(), Ok(want_a));
            assert_eq!(second.wait(), Err(ServeError::ShuttingDown));
        });
    }

    #[test]
    fn a_reopened_slot_does_not_share_replies_with_the_closed_session() {
        within_timeout(|| {
            let net = policy();
            let (a, b) = (obs(0.1), obs(0.9));
            let (want_a, want_b) = (library_decision(&net, &a), library_decision(&net, &b));
            let server = Server::start(net, &[4], ServeConfig::default().with_max_batch(1));
            let old = server.open_clean_session();
            let old_ticket = server.submit(old, a).expect("submit");
            // Closing succeeds once the request is served; its reply stays
            // with the old session's ticket.
            while server.close_session(old) == Err(ServeError::InFlight) {
                std::thread::yield_now();
            }
            let new = server.open_clean_session();
            assert_eq!(new, old, "the freed slot is reused");
            let new_ticket = server.submit(new, b).expect("submit");
            assert_eq!(new_ticket.wait(), Ok(want_b));
            assert_eq!(old_ticket.wait(), Ok(want_a));
        });
    }

    #[test]
    fn ingest_entry_points_match_explicit_submission_and_reject_bad_inputs() {
        use navft_nn::{QNetwork, QTensor};
        use navft_qformat::QFormat;

        within_timeout(|| {
            let qnet = QNetwork::quantize(&policy(), QFormat::Q4_11);
            let server = Server::start(qnet, &[4], ServeConfig::default());
            let session = server.open_clean_session();

            // One-hot ingest writes backend-native words directly.
            let one_hot = server
                .submit_one_hot(session, 2)
                .expect("one-hot submit")
                .wait()
                .expect("one-hot decision");
            let staged = {
                let mut buf = QTensor::zeros(&[4], QFormat::Q4_11);
                buf.words_mut()[2] = navft_qformat::QValue::quantize(1.0, QFormat::Q4_11).raw();
                buf
            };
            assert_eq!(one_hot.action, argmax(server.network().forward(&staged).data()));

            assert_eq!(
                server
                    .submit_one_hot(session, 4)
                    .and_then(Ticket::wait)
                    .expect_err("state out of range"),
                ServeError::BadShape
            );
            assert_eq!(
                server.submit_one_hot(SessionId(9), 0).expect_err("no session"),
                ServeError::UnknownSession
            );

            // Served buffers were recycled into the ingest pool.
            assert!(!server.shared.lock().pool.is_empty());
        });
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        within_timeout(|| {
            let server = Server::start(policy(), &[4], ServeConfig::default());
            let session = server.open_clean_session();
            server.shared.lock().shutdown = true;
            let (err, _) = server.submit(session, obs(0.0)).expect_err("shutting down");
            assert_eq!(err, ServeError::ShuttingDown);
        });
    }

    #[test]
    fn a_panicking_hook_fails_the_server_closed_instead_of_hanging_callers() {
        struct PanicOnInput;
        impl ForwardHooks<f32> for PanicOnInput {
            fn on_input(&mut self, _values: &mut [f32]) {
                panic!("injected session hook panic");
            }
        }

        within_timeout(|| {
            // Two requests fill a batch and flush at once, so the healthy
            // request rides in the sweep the faulty hook kills.
            let config =
                ServeConfig::default().with_max_batch(2).with_flush_after(Duration::from_secs(5));
            let server = Server::start(policy(), &[4], config);
            let healthy = server.open_clean_session();
            let faulty = server.open_session(Box::new(PanicOnInput));
            let bystander = server.open_clean_session();
            let in_flight = server.submit(healthy, obs(0.1)).expect("healthy submit");
            let doomed = server.submit(faulty, obs(0.2)).expect("faulty submit");
            // Queued behind the dying sweep, or refused once it has died.
            let queued = server.submit(bystander, obs(0.3));

            assert_eq!(in_flight.wait().expect_err("sweep died"), ServeError::ShuttingDown);
            assert_eq!(doomed.wait().expect_err("sweep died"), ServeError::ShuttingDown);
            match queued {
                Ok(ticket) => {
                    assert_eq!(ticket.wait().expect_err("drained"), ServeError::ShuttingDown);
                }
                Err((err, _)) => assert_eq!(err, ServeError::ShuttingDown),
            }

            // The dead batcher takes no new work.
            let (err, _) = server.submit(healthy, obs(0.4)).expect_err("no batcher");
            assert_eq!(err, ServeError::ShuttingDown);
            let refused = server
                .submit(bystander, obs(0.5))
                .map_err(|(err, _)| err)
                .and_then(Ticket::wait)
                .expect_err("no batcher");
            assert_eq!(refused, ServeError::ShuttingDown);
            assert_eq!(server.pending(), 0);
            // Its sessions are no longer in flight, so they can be closed.
            assert_eq!(server.close_session(healthy), Ok(()));
            server.shutdown();
        });
    }
}
