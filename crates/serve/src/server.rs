//! The serving daemon: sharded session registries, bounded per-shard request
//! queues, and one dynamic-batcher worker per shard.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use navft_nn::{argmax, DynRowHooks, Element, EngineConfig, ForwardHooks, NetworkBase, NoHooks};
use navft_nn::{Scratch, TensorBase};
use navft_rl::EvalElement;

/// Configuration of a [`Server`]'s shard layout, dynamic batchers and queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of sharded batcher workers. Sessions are pinned to one shard
    /// at open (stable session-id hash) and never migrate, so each shard is
    /// an independent service domain: its own bounded queue, batcher thread,
    /// scratch arena and ingest pool.
    pub workers: usize,
    /// Largest number of requests coalesced into one engine sweep (per
    /// shard).
    pub max_batch: usize,
    /// Per-shard pending-request bound beyond which [`Server::submit`]
    /// rejects with [`ServeError::Busy`].
    pub queue_capacity: usize,
    /// How long a batcher waits for more requests after the oldest pending
    /// one before flushing a partial batch.
    pub flush_after: Duration,
}

impl Default for ServeConfig {
    /// One worker, batches of up to 64 rows, a 256-request queue and a
    /// 200 µs flush deadline.
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            max_batch: 64,
            queue_capacity: 256,
            flush_after: Duration::from_micros(200),
        }
    }
}

impl ServeConfig {
    /// Returns the config with the sharded worker count set (clamped to
    /// ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> ServeConfig {
        self.workers = workers.max(1);
        self
    }

    /// Returns the config with the coalescing bound set (clamped to ≥ 1).
    pub fn with_max_batch(mut self, max_batch: usize) -> ServeConfig {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Returns the config with the per-shard queue bound set (clamped to
    /// ≥ 1).
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
    /// The session's shard queue is full — back off and retry.
    Busy,
    /// The server is draining towards shutdown; no new requests.
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

/// The served outcome of one `act()` request: the greedy action plus the
/// policy's output row in the backend's storage representation.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision<W: Element> {
    /// Argmax over the policy's final layer.
    pub action: usize,
    /// The final layer's values for this request's batch row.
    pub values: Vec<W>,
}

/// Handle to an open session of a [`Server`].
///
/// The id encodes the session's shard (`id % workers`) and its slot within
/// that shard's registry (`id / workers`); a session stays on its shard for
/// its whole lifetime, which is what makes per-session traces independent of
/// every other shard's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(usize);

/// A pending reply to a submitted request; resolves via [`Ticket::wait`] or
/// non-blocking [`Ticket::poll`].
pub struct Ticket<W: Element> {
    rx: mpsc::Receiver<Result<Decision<W>, ServeError>>,
}

impl<W: Element> std::fmt::Debug for Ticket<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl<W: Element> Ticket<W> {
    /// Blocks until the batcher serves this request (or refuses it).
    pub fn wait(self) -> Result<Decision<W>, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Checks for the decision without blocking: `None` while the request is
    /// still queued or sweeping, `Some(result)` exactly once when it has
    /// resolved (a later [`Ticket::wait`] would then block forever — the
    /// reply is consumed here).
    pub fn poll(&self) -> Option<Result<Decision<W>, ServeError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::ShuttingDown)),
        }
    }
}

/// Counters of a server's lifetime activity (see [`Server::stats`]),
/// aggregated across all shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests served (batch rows swept through the engine).
    pub rows: usize,
    /// Engine sweeps run (batches flushed), across all shards.
    pub batches: usize,
    /// Submissions rejected with [`ServeError::Busy`].
    pub rejected: usize,
    /// Largest batch coalesced so far on any shard.
    pub max_rows_per_batch: usize,
}

/// The channel half a batcher sweep answers a request on.
type ReplySender<W> = mpsc::Sender<Result<Decision<W>, ServeError>>;

struct SessionState<W: Element> {
    /// The session's forward hooks. `None` only while the batcher borrows
    /// them for a sweep (the slot's `in_flight` flag is set for that span).
    hooks: Option<Box<dyn ForwardHooks<W> + Send>>,
    in_flight: bool,
}

struct Request<W: Element> {
    session: SessionId,
    input: TensorBase<W>,
    reply: ReplySender<W>,
}

struct QueueState<W: Element> {
    pending: VecDeque<Request<W>>,
    /// When the oldest pending request was enqueued — the flush deadline's
    /// anchor. `None` while the queue is empty.
    oldest: Option<Instant>,
    shutdown: bool,
}

/// A shard's session slots plus the free-list of closed ones, so opening a
/// session is O(1) even after hundreds of thousands of opens (the scale
/// bench opens 32k+) — no linear scan for a free slot.
struct Registry<W: Element> {
    slots: Vec<Option<SessionState<W>>>,
    free: Vec<usize>,
}

impl<W: Element> Registry<W> {
    fn open(&mut self, state: SessionState<W>) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(state);
                slot
            }
            None => {
                self.slots.push(Some(state));
                self.slots.len() - 1
            }
        }
    }
}

/// One independent service domain: a shard owns its session registry, its
/// bounded queue, its ingest pool and the condvar its batcher worker sleeps
/// on. Nothing here is shared between shards, so enqueue/dequeue contention
/// and engine sweeps parallelize across workers.
struct Shard<W: Element> {
    registry: Mutex<Registry<W>>,
    queue: Mutex<QueueState<W>>,
    /// Recycled input buffers for the quantize-on-ingest entry points
    /// ([`Server::submit_obs`] and friends): served requests return their
    /// tensors here, so steady-state ingest allocates nothing. Bounded by
    /// `queue_capacity` — the most inputs this shard can have in flight.
    pool: Mutex<Vec<TensorBase<W>>>,
    wake: Condvar,
    /// Rows served by this shard alone (see [`Server::shard_rows`]).
    rows: AtomicUsize,
}

impl<W: Element> Shard<W> {
    fn new() -> Shard<W> {
        Shard {
            registry: Mutex::new(Registry { slots: Vec::new(), free: Vec::new() }),
            queue: Mutex::new(QueueState {
                pending: VecDeque::new(),
                oldest: None,
                shutdown: false,
            }),
            pool: Mutex::new(Vec::new()),
            wake: Condvar::new(),
            rows: AtomicUsize::new(0),
        }
    }
}

struct Shared<W: Element> {
    network: NetworkBase<W>,
    input_shape: Vec<usize>,
    config: ServeConfig,
    shards: Vec<Shard<W>>,
    /// Monotonic session-open counter; its hash picks the opening session's
    /// shard.
    next_ordinal: AtomicUsize,
    rows: AtomicUsize,
    batches: AtomicUsize,
    rejected: AtomicUsize,
    max_rows_per_batch: AtomicUsize,
}

/// The stable shard assignment: FNV-1a over the session-open ordinal,
/// reduced modulo the worker count. Hash-based (rather than round-robin
/// modulo alone) so the spread does not correlate with any open-order
/// pattern in the client.
fn shard_of(ordinal: usize, workers: usize) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in (ordinal as u64).to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % workers as u64) as usize
}

/// A policy-serving daemon: one policy, many sessions, N sharded
/// dynamic-batcher worker threads coalescing concurrent requests into
/// batched engine sweeps.
///
/// Sessions are pinned to a shard when opened and never migrate, so a
/// session's episode trace depends only on its own request order — never on
/// which other sessions exist or how traffic interleaves across shards. See
/// the [crate docs](crate) for the architecture. Dropping the server drains
/// every shard's queued requests, then joins all workers.
pub struct Server<W: Element> {
    shared: Arc<Shared<W>>,
    workers: Vec<JoinHandle<()>>,
}

impl<W: Element> Server<W> {
    /// Starts a server for `network`, whose sessions submit observations of
    /// `input_shape`, and spawns `config.workers` batcher workers.
    pub fn start(network: NetworkBase<W>, input_shape: &[usize], config: ServeConfig) -> Server<W> {
        assert!(config.workers >= 1, "workers must be at least 1");
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(config.queue_capacity >= 1, "queue_capacity must be at least 1");
        let shared = Arc::new(Shared {
            network,
            input_shape: input_shape.to_vec(),
            config,
            shards: (0..config.workers).map(|_| Shard::new()).collect(),
            next_ordinal: AtomicUsize::new(0),
            rows: AtomicUsize::new(0),
            batches: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
            max_rows_per_batch: AtomicUsize::new(0),
        });
        let workers = (0..config.workers)
            .map(|shard| {
                let worker_shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("navft-serve-batcher-{shard}"))
                    .spawn(move || worker_loop(worker_shared, shard))
                    .expect("spawn batcher worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// The served policy.
    pub fn network(&self) -> &NetworkBase<W> {
        &self.shared.network
    }

    /// The observation shape every submission must match.
    pub fn input_shape(&self) -> &[usize] {
        &self.shared.input_shape
    }

    /// The number of sharded batcher workers.
    pub fn workers(&self) -> usize {
        self.shared.config.workers
    }

    /// The shard a session is pinned to (stable for the session's lifetime).
    pub fn session_shard(&self, session: SessionId) -> usize {
        session.0 % self.shared.config.workers
    }

    fn shard_slot(&self, session: SessionId) -> (&Shard<W>, usize) {
        let workers = self.shared.config.workers;
        (&self.shared.shards[session.0 % workers], session.0 / workers)
    }

    /// Opens a session carrying `hooks`, which observe (and may corrupt or
    /// scrub) every forward pass this session's requests ride in — the
    /// per-tenant fault-injection and mitigation surface. The session is
    /// pinned to a shard here and stays on it until closed.
    pub fn open_session(&self, hooks: Box<dyn ForwardHooks<W> + Send>) -> SessionId {
        let workers = self.shared.config.workers;
        let ordinal = self.shared.next_ordinal.fetch_add(1, Ordering::Relaxed);
        let shard_index = shard_of(ordinal, workers);
        let shard = &self.shared.shards[shard_index];
        let mut registry = shard.registry.lock().expect("registry lock");
        let slot = registry.open(SessionState { hooks: Some(hooks), in_flight: false });
        SessionId(slot * workers + shard_index)
    }

    /// Opens a session with no hooks (a clean tenant).
    pub fn open_clean_session(&self) -> SessionId {
        self.open_session(Box::new(NoHooks))
    }

    /// Closes a session. Fails with [`ServeError::InFlight`] while the
    /// session has an unserved request.
    pub fn close_session(&self, session: SessionId) -> Result<(), ServeError> {
        let (shard, slot) = self.shard_slot(session);
        let mut registry = shard.registry.lock().expect("registry lock");
        match registry.slots.get_mut(slot) {
            Some(entry) => match entry {
                Some(state) if state.in_flight => Err(ServeError::InFlight),
                Some(_) => {
                    *entry = None;
                    registry.free.push(slot);
                    Ok(())
                }
                None => Err(ServeError::UnknownSession),
            },
            None => Err(ServeError::UnknownSession),
        }
    }

    /// Number of currently open sessions, across all shards.
    pub fn session_count(&self) -> usize {
        self.shared
            .shards
            .iter()
            .map(|shard| {
                shard.registry.lock().expect("registry lock").slots.iter().flatten().count()
            })
            .sum()
    }

    /// Enqueues one observation for `session` on its shard's queue and
    /// returns a [`Ticket`] that resolves when the shard's batcher serves
    /// it.
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
        let (shard, slot) = self.shard_slot(session);
        {
            let mut registry = shard.registry.lock().expect("registry lock");
            match registry.slots.get_mut(slot).and_then(|entry| entry.as_mut()) {
                None => return Err((ServeError::UnknownSession, input)),
                Some(state) if state.in_flight => return Err((ServeError::InFlight, input)),
                Some(state) => state.in_flight = true,
            }
        }
        let (reply, rx) = mpsc::channel();
        let mut queue = shard.queue.lock().expect("queue lock");
        if queue.shutdown {
            drop(queue);
            self.clear_in_flight(session);
            return Err((ServeError::ShuttingDown, input));
        }
        if queue.pending.len() >= self.shared.config.queue_capacity {
            drop(queue);
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            self.clear_in_flight(session);
            return Err((ServeError::Busy, input));
        }
        if queue.pending.is_empty() {
            queue.oldest = Some(Instant::now());
        }
        queue.pending.push_back(Request { session, input, reply });
        shard.wake.notify_one();
        drop(queue);
        Ok(Ticket { rx })
    }

    /// Submits one observation and blocks for the decision, retrying
    /// (with a scheduler yield) while the shard's queue is full.
    pub fn act(&self, session: SessionId, input: TensorBase<W>) -> Result<Decision<W>, ServeError> {
        let mut input = input;
        loop {
            match self.submit(session, input) {
                Ok(ticket) => return ticket.wait(),
                Err((ServeError::Busy, returned)) => {
                    input = returned;
                    std::thread::yield_now();
                }
                Err((error, _)) => return Err(error),
            }
        }
    }

    /// Number of requests waiting in the queues right now, across all
    /// shards.
    pub fn pending(&self) -> usize {
        self.shared
            .shards
            .iter()
            .map(|shard| shard.queue.lock().expect("queue lock").pending.len())
            .sum()
    }

    /// Lifetime activity counters, aggregated across shards.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            rows: self.shared.rows.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            max_rows_per_batch: self.shared.max_rows_per_batch.load(Ordering::Relaxed),
        }
    }

    /// Rows served by each shard (index = shard = worker). The skew
    /// diagnostics: a uniform session mix serves roughly `rows / workers`
    /// per entry, while adversarial pinning shows up as one hot entry.
    pub fn shard_rows(&self) -> Vec<usize> {
        self.shared.shards.iter().map(|shard| shard.rows.load(Ordering::Relaxed)).collect()
    }

    /// Stops accepting new requests, drains every shard's queued requests,
    /// and joins all workers. (Dropping the server does the same.)
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn clear_in_flight(&self, session: SessionId) {
        let (shard, slot) = self.shard_slot(session);
        let mut registry = shard.registry.lock().expect("registry lock");
        if let Some(Some(state)) = registry.slots.get_mut(slot).map(|entry| entry.as_mut()) {
            state.in_flight = false;
        }
    }

    fn stop(&mut self) {
        for shard in &self.shared.shards {
            let mut queue = shard.queue.lock().expect("queue lock");
            queue.shutdown = true;
            drop(queue);
            shard.wake.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl<W: EvalElement> Server<W> {
    /// Pops a recycled input buffer from `shard`'s pool, or allocates one on
    /// a cold pool.
    fn ingest_buffer(&self, shard: &Shard<W>) -> TensorBase<W> {
        let recycled = shard.pool.lock().expect("pool lock").pop();
        recycled.unwrap_or_else(|| W::input_buffer(&self.shared.input_shape, &self.shared.network))
    }

    fn recycle(&self, shard: &Shard<W>, input: TensorBase<W>) {
        let mut pool = shard.pool.lock().expect("pool lock");
        if pool.len() < self.shared.config.queue_capacity {
            pool.push(input);
        }
    }

    /// Enqueues an `f32` observation for `session`, quantizing it into the
    /// backend's storage representation **once, here at ingest** — the
    /// batcher sweep then reads the staged words directly. Buffers come
    /// from (and return to) the session's shard pool, so the steady state
    /// neither allocates nor re-encodes.
    pub fn submit_obs(
        &self,
        session: SessionId,
        observation: &navft_nn::Tensor,
    ) -> Result<Ticket<W>, ServeError> {
        if observation.shape() != self.shared.input_shape.as_slice() {
            return Err(ServeError::BadShape);
        }
        let (shard, _) = self.shard_slot(session);
        let mut input = self.ingest_buffer(shard);
        W::encode_into(observation, &mut input);
        match self.submit(session, input) {
            Ok(ticket) => Ok(ticket),
            Err((error, returned)) => {
                self.recycle(shard, returned);
                Err(error)
            }
        }
    }

    /// Enqueues a one-hot observation of `state` for `session`, written
    /// directly in the backend's storage representation — discrete clients
    /// never build (or clone) an `f32` tensor at all.
    pub fn submit_one_hot(
        &self,
        session: SessionId,
        state: usize,
    ) -> Result<Ticket<W>, ServeError> {
        let (shard, _) = self.shard_slot(session);
        let mut input = self.ingest_buffer(shard);
        if state >= input.len() {
            self.recycle(shard, input);
            return Err(ServeError::BadShape);
        }
        W::one_hot(state, &mut input);
        match self.submit(session, input) {
            Ok(ticket) => Ok(ticket),
            Err((error, returned)) => {
                self.recycle(shard, returned);
                Err(error)
            }
        }
    }

    /// [`Server::submit_obs`] + blocking wait, retrying (with a scheduler
    /// yield) while the queue is full. The observation is quantized once up
    /// front; Busy retries resubmit the already-encoded buffer.
    pub fn act_obs(
        &self,
        session: SessionId,
        observation: &navft_nn::Tensor,
    ) -> Result<Decision<W>, ServeError> {
        if observation.shape() != self.shared.input_shape.as_slice() {
            return Err(ServeError::BadShape);
        }
        let (shard, _) = self.shard_slot(session);
        let mut input = self.ingest_buffer(shard);
        W::encode_into(observation, &mut input);
        self.act_staged(session, input)
    }

    /// [`Server::submit_one_hot`] + blocking wait, retrying while the queue
    /// is full.
    pub fn act_one_hot(&self, session: SessionId, state: usize) -> Result<Decision<W>, ServeError> {
        let (shard, _) = self.shard_slot(session);
        let mut input = self.ingest_buffer(shard);
        if state >= input.len() {
            self.recycle(shard, input);
            return Err(ServeError::BadShape);
        }
        W::one_hot(state, &mut input);
        self.act_staged(session, input)
    }

    fn act_staged(
        &self,
        session: SessionId,
        input: TensorBase<W>,
    ) -> Result<Decision<W>, ServeError> {
        let mut input = input;
        loop {
            match self.submit(session, input) {
                Ok(ticket) => return ticket.wait(),
                Err((ServeError::Busy, returned)) => {
                    input = returned;
                    std::thread::yield_now();
                }
                Err((error, returned)) => {
                    let (shard, _) = self.shard_slot(session);
                    self.recycle(shard, returned);
                    return Err(error);
                }
            }
        }
    }
}

impl<W: Element> Drop for Server<W> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One shard's batcher worker: wait for a full batch or a flush deadline on
/// the shard's own queue, drain up to `max_batch` requests, sweep them
/// through the engine against the shard-private scratch, reply per row.
fn worker_loop<W: Element>(shared: Arc<Shared<W>>, shard_index: usize) {
    let shard = &shared.shards[shard_index];
    let mut scratch = Scratch::new();
    loop {
        let batch: Vec<Request<W>> = {
            let mut queue = shard.queue.lock().expect("queue lock");
            loop {
                let full = queue.pending.len() >= shared.config.max_batch;
                // On shutdown, flush whatever is queued (graceful drain)
                // and exit once the queue is empty.
                if full || (queue.shutdown && !queue.pending.is_empty()) {
                    break;
                }
                if queue.shutdown {
                    return;
                }
                if queue.pending.is_empty() {
                    queue = shard.wake.wait(queue).expect("queue lock");
                    continue;
                }
                let waited = queue.oldest.map(|t| t.elapsed()).unwrap_or(Duration::ZERO);
                if waited >= shared.config.flush_after {
                    break;
                }
                let remaining = shared.config.flush_after - waited;
                let (guard, _) = shard.wake.wait_timeout(queue, remaining).expect("queue lock");
                queue = guard;
            }
            let take = queue.pending.len().min(shared.config.max_batch);
            let batch: Vec<Request<W>> = queue.pending.drain(..take).collect();
            queue.oldest = if queue.pending.is_empty() { None } else { Some(Instant::now()) };
            batch
        };
        process_batch(&shared, shard, &mut scratch, batch);
    }
}

fn process_batch<W: Element>(
    shared: &Shared<W>,
    shard: &Shard<W>,
    scratch: &mut Scratch<W>,
    batch: Vec<Request<W>>,
) {
    let workers = shared.config.workers;
    // Take each session's hook box out of the shard registry for the sweep;
    // the in-flight flag (set at submit) keeps the slot reserved meanwhile,
    // so no aliasing is possible. A session can only vanish here if the
    // registry raced a close — refuse its request rather than serving it
    // hookless.
    let mut inputs: Vec<TensorBase<W>> = Vec::with_capacity(batch.len());
    let mut rows: Vec<(SessionId, ReplySender<W>)> = Vec::with_capacity(batch.len());
    let mut hooks: Vec<Box<dyn ForwardHooks<W> + Send>> = Vec::with_capacity(batch.len());
    {
        let mut registry = shard.registry.lock().expect("registry lock");
        for request in batch {
            let slot = request.session.0 / workers;
            let taken = registry
                .slots
                .get_mut(slot)
                .and_then(|entry| entry.as_mut())
                .and_then(|state| state.hooks.take());
            match taken {
                Some(hook) => {
                    inputs.push(request.input);
                    rows.push((request.session, request.reply));
                    hooks.push(hook);
                }
                None => {
                    let _ = request.reply.send(Err(ServeError::UnknownSession));
                }
            }
        }
    }

    let mut decisions: Vec<Decision<W>> = Vec::with_capacity(inputs.len());
    if !inputs.is_empty() {
        {
            let row_refs: Vec<&mut dyn ForwardHooks<W>> =
                hooks.iter_mut().map(|hook| &mut **hook as &mut dyn ForwardHooks<W>).collect();
            let mut per_row = DynRowHooks::new(row_refs);
            shared.network.forward_batch_into_cfg(
                &inputs,
                scratch,
                &mut per_row,
                EngineConfig::default(),
            );
        }
        for row in 0..rows.len() {
            let values = scratch.row(row);
            decisions.push(Decision { action: argmax(values), values: values.to_vec() });
        }
        shard.rows.fetch_add(inputs.len(), Ordering::Relaxed);
        shared.rows.fetch_add(inputs.len(), Ordering::Relaxed);
        shared.batches.fetch_add(1, Ordering::Relaxed);
        shared.max_rows_per_batch.fetch_max(inputs.len(), Ordering::Relaxed);
    }

    // Recycle the served input tensors so the shard's ingest entry points
    // can reuse them instead of allocating. Bounded by the queue capacity —
    // the most buffers this shard can ever have in flight concurrently.
    {
        let mut pool = shard.pool.lock().expect("pool lock");
        for input in inputs {
            if pool.len() >= shared.config.queue_capacity {
                break;
            }
            pool.push(input);
        }
    }

    // Return the hook boxes and release the per-session in-flight slots
    // *before* replying: once a client sees its decision it may immediately
    // resubmit, so the slot must already be free by then.
    {
        let mut registry = shard.registry.lock().expect("registry lock");
        for ((session, _), hook) in rows.iter().zip(hooks) {
            let slot = session.0 / workers;
            if let Some(Some(state)) = registry.slots.get_mut(slot).map(|entry| entry.as_mut()) {
                state.hooks = Some(hook);
                state.in_flight = false;
            }
        }
    }
    for ((_, reply), decision) in rows.into_iter().zip(decisions) {
        let _ = reply.send(Ok(decision));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let net = policy();
        let expected = net.forward(&obs(0.3)).argmax();
        let server = Server::start(net, &[4], ServeConfig::default());
        let session = server.open_clean_session();
        let decision = server.act(session, obs(0.3)).expect("decision");
        assert_eq!(decision.action, expected);
        assert_eq!(decision.values.len(), 3);
    }

    #[test]
    fn unknown_sessions_bad_shapes_and_double_submits_are_refused() {
        let server = Server::start(policy(), &[4], ServeConfig::default());
        let (err, _) = server.submit(SessionId(3), obs(0.0)).expect_err("no session");
        assert_eq!(err, ServeError::UnknownSession);

        let session = server.open_clean_session();
        let (err, _) = server.submit(session, Tensor::full(&[5], 0.0)).expect_err("wrong shape");
        assert_eq!(err, ServeError::BadShape);

        // Stall the batcher with a long flush deadline so the first request
        // stays in flight while the second arrives.
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
    }

    #[test]
    fn full_queue_rejects_with_busy_and_drains_on_shutdown() {
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
    }

    #[test]
    fn batcher_coalesces_full_batches_immediately() {
        let config = ServeConfig::default()
            .with_max_batch(4)
            .with_queue_capacity(64)
            .with_flush_after(Duration::from_secs(5));
        let net = policy();
        let expected: Vec<usize> =
            (0..8).map(|i| net.forward(&obs(i as f32 * 0.1)).argmax()).collect();
        let server = Server::start(net, &[4], config);
        let sessions: Vec<SessionId> = (0..8).map(|_| server.open_clean_session()).collect();
        // 8 pending requests with a 5 s deadline: only full batches of 4 can
        // have flushed them.
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
    }

    #[test]
    fn partial_batches_flush_after_the_deadline() {
        let config =
            ServeConfig::default().with_max_batch(64).with_flush_after(Duration::from_millis(1));
        let server = Server::start(policy(), &[4], config);
        let session = server.open_clean_session();
        let decision = server.act(session, obs(0.4)).expect("decision");
        assert_eq!(decision.values.len(), 3);
        assert_eq!(server.stats().max_rows_per_batch, 1);
    }

    #[test]
    fn sessions_reuse_freed_slots() {
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
    }

    #[test]
    fn sessions_are_pinned_to_shards_and_served_on_them() {
        let config = ServeConfig::default().with_workers(4);
        let server = Server::start(policy(), &[4], config);
        let sessions: Vec<SessionId> = (0..32).map(|_| server.open_clean_session()).collect();
        assert_eq!(server.workers(), 4);
        assert_eq!(server.session_count(), 32);
        // Every shard id is in range and stable across calls.
        let shards: Vec<usize> = sessions.iter().map(|&s| server.session_shard(s)).collect();
        assert!(shards.iter().all(|&s| s < 4));
        for (&session, &shard) in sessions.iter().zip(&shards) {
            assert_eq!(server.session_shard(session), shard);
        }
        // The hash spreads 32 ordinals over more than one shard.
        let mut counts = [0usize; 4];
        for &s in &shards {
            counts[s] += 1;
        }
        assert!(counts.iter().filter(|&&c| c > 0).count() > 1, "all on one shard: {counts:?}");
        // Decisions land regardless of which shard serves them, and the
        // per-shard row counters account for every request.
        for (i, &session) in sessions.iter().enumerate() {
            let decision = server.act(session, obs(i as f32 * 0.05)).expect("decision");
            assert_eq!(decision.values.len(), 3);
        }
        let per_shard = server.shard_rows();
        assert_eq!(per_shard.iter().sum::<usize>(), 32);
        assert_eq!(server.stats().rows, 32);
        for (shard, &rows) in per_shard.iter().enumerate() {
            assert_eq!(rows, counts[shard], "shard {shard} row count");
        }
    }

    #[test]
    fn tickets_poll_without_blocking() {
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
    }

    #[test]
    fn ingest_entry_points_match_explicit_submission_and_reject_bad_inputs() {
        use navft_nn::{QNetwork, QTensor};
        use navft_qformat::QFormat;

        let qnet = QNetwork::quantize(&policy(), QFormat::Q4_11);
        let expected_action = {
            let staged = QTensor::quantize(&obs(0.3), QFormat::Q4_11);
            argmax(qnet.forward(&staged).data())
        };
        let server = Server::start(qnet, &[4], ServeConfig::default());
        let session = server.open_clean_session();

        // Quantize-on-ingest serves the same decision as pre-quantized
        // submission (same encode, relocated to enqueue).
        let decision = server.act_obs(session, &obs(0.3)).expect("served decision");
        assert_eq!(decision.action, expected_action);

        // One-hot ingest writes backend-native words directly.
        let one_hot = server.act_one_hot(session, 2).expect("one-hot decision");
        let staged = {
            let mut buf = navft_nn::QTensor::zeros(&[4], QFormat::Q4_11);
            buf.words_mut()[2] = navft_qformat::QValue::quantize(1.0, QFormat::Q4_11).raw();
            buf
        };
        assert_eq!(one_hot.action, argmax(server.network().forward(&staged).data()));

        assert_eq!(
            server.act_obs(session, &obs(0.0).reshape(&[2, 2])).expect_err("shape"),
            ServeError::BadShape
        );
        assert_eq!(
            server.act_one_hot(session, 4).expect_err("state out of range"),
            ServeError::BadShape
        );
        assert_eq!(
            server.submit_one_hot(SessionId(9), 0).expect_err("no session"),
            ServeError::UnknownSession
        );

        // Served buffers were recycled into the shard's ingest pool.
        assert!(!server.shared.shards[0].pool.lock().expect("pool lock").is_empty());
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let server = Server::start(policy(), &[4], ServeConfig::default());
        let session = server.open_clean_session();
        {
            let mut queue = server.shared.shards[0].queue.lock().expect("queue lock");
            queue.shutdown = true;
        }
        let (err, _) = server.submit(session, obs(0.0)).expect_err("shutting down");
        assert_eq!(err, ServeError::ShuttingDown);
    }
}
