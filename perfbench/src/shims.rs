//! Timing shims around the caller-supplied trait objects the navft crates
//! accept: environments ([`DiscreteEnvironment`], [`VecEnv`]) and forward
//! hooks. Every shim delegates exactly, so results are unchanged; it adds
//! leaf timings and counters while tracing is on (see [`crate::trace`]) and,
//! always, the decision-row count and — where a campaign asks for them — the
//! decision-tick latencies it reports end to end.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use navft_core::BufferFaultHook;
use navft_nn::{ForwardHooks, LayerKind};
use navft_rl::{DiscreteEnvironment, DiscreteTransition, RowStep, VecEnv};
use navft_serve::SessionHook;

use crate::{calib, trace};

static ROWS: AtomicU64 = AtomicU64::new(0);
static TICKS: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Drains the decision rows and decision-tick latencies (ns) every shim
/// dropped since the last call.
pub fn take_decisions() -> (u64, Vec<u32>) {
    let ticks = std::mem::take(&mut *TICKS.lock().expect("tick log lock"));
    (ROWS.swap(0, Ordering::Relaxed), ticks)
}

fn elapsed_ns(since: Instant, now: Instant) -> u32 {
    u32::try_from(now.saturating_duration_since(since).as_nanos()).unwrap_or(u32::MAX)
}

/// Decision-tick latencies: each tick lasts from its start to the next
/// tick's start, scaled to the reference host speed by the thread's latest
/// probe ([`calib::tick_scale`]); a probe falls between two ticks, outside
/// both.
#[derive(Default)]
struct TickLog {
    start: Option<Instant>,
    ticks: Vec<u32>,
}

impl TickLog {
    fn tick(&mut self) {
        let now = Instant::now();
        if let Some(start) = self.start {
            let scale = calib::tick_scale();
            self.ticks.push((f64::from(elapsed_ns(start, now)) * scale) as u32);
        }
        self.start = Some(Instant::now());
    }

    fn flush(log: Option<TickLog>) {
        if let Some(mut log) = log {
            TICKS.lock().expect("tick log lock").append(&mut log.ticks);
        }
    }
}

/// What a serial Grid World environment is used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Inside a trainer: steps count as training steps.
    Train,
    /// Inside a serial evaluator.
    Eval,
}

/// A serial [`DiscreteEnvironment`] with step timing; every step is one
/// decision row and keeps the thread's host-speed probes fresh.
pub struct TimedEnv<E> {
    inner: E,
    role: Role,
    steps: u64,
    ticks: Option<TickLog>,
}

impl<E> TimedEnv<E> {
    /// Wraps `inner` for `role`.
    pub fn new(inner: E, role: Role) -> TimedEnv<E> {
        TimedEnv { inner, role, steps: 0, ticks: None }
    }

    /// Also logs decision-tick latencies: from one step call to the next
    /// (inside a trainer: act, observe, learn and the environment step).
    pub fn with_ticks(mut self) -> TimedEnv<E> {
        self.ticks = Some(TickLog::default());
        self
    }
}

impl<E: DiscreteEnvironment> DiscreteEnvironment for TimedEnv<E> {
    fn num_states(&self) -> usize {
        self.inner.num_states()
    }

    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }

    fn reset(&mut self) -> usize {
        self.inner.reset()
    }

    fn step(&mut self, action: usize) -> DiscreteTransition {
        self.steps += 1;
        match self.ticks.as_mut() {
            Some(log) => log.tick(),
            None => {
                calib::tick_scale();
            }
        }
        trace::leaf("gridworld.step", || self.inner.step(action))
    }
}

impl<E> Drop for TimedEnv<E> {
    fn drop(&mut self) {
        if self.role == Role::Train {
            trace::count("rl.train_steps", self.steps);
        }
        ROWS.fetch_add(self.steps, Ordering::Relaxed);
        TickLog::flush(self.ticks.take());
    }
}

/// A [`VecEnv`] with step/reset timing and, optionally, per-tick decision
/// latency: a tick starts whenever the rollout steps a row at or below the
/// previously stepped row, and lasts until the next tick's start (one
/// batched forward sweep plus the tick's environment steps).
pub struct TimedVecEnv<V> {
    inner: V,
    step_leaf: &'static str,
    reset_leaf: &'static str,
    rows_count: &'static str,
    last_row: Option<usize>,
    rows: u64,
    ticks: Option<TickLog>,
}

impl<V> TimedVecEnv<V> {
    /// Wraps `inner`; environment steps and resets are recorded as the
    /// leaves `step_leaf` and `reset_leaf`, decision rows under the counter
    /// `rows_count`.
    pub fn new(
        inner: V,
        step_leaf: &'static str,
        reset_leaf: &'static str,
        rows_count: &'static str,
    ) -> TimedVecEnv<V> {
        TimedVecEnv {
            inner,
            step_leaf,
            reset_leaf,
            rows_count,
            last_row: None,
            rows: 0,
            ticks: None,
        }
    }

    /// Also logs decision-tick latencies.
    pub fn with_ticks(mut self) -> TimedVecEnv<V> {
        self.ticks = Some(TickLog::default());
        self
    }
}

impl<V: VecEnv> VecEnv for TimedVecEnv<V> {
    type Obs = V::Obs;

    fn width(&self) -> usize {
        self.inner.width()
    }

    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }

    fn obs_shape(&self) -> Vec<usize> {
        self.inner.obs_shape()
    }

    fn reset_row(&mut self, row: usize) -> V::Obs {
        trace::leaf(self.reset_leaf, || self.inner.reset_row(row))
    }

    fn step_row(&mut self, row: usize, action: usize) -> RowStep<V::Obs> {
        if self.last_row.is_none_or(|last| row <= last) {
            if let Some(log) = self.ticks.as_mut() {
                log.tick();
            }
        }
        self.last_row = Some(row);
        self.rows += 1;
        trace::leaf(self.step_leaf, || self.inner.step_row(row, action))
    }
}

impl<V> Drop for TimedVecEnv<V> {
    fn drop(&mut self) {
        trace::count(self.rows_count, self.rows);
        ROWS.fetch_add(self.rows, Ordering::Relaxed);
        TickLog::flush(self.ticks.take());
    }
}

/// A [`BufferFaultHook`] whose calls are timed as `fault.hook` leaves and
/// whose injected bits are counted as `fault.faults`.
pub struct TimedBufferHook(pub BufferFaultHook);

impl TimedBufferHook {
    fn call(&mut self, f: impl FnOnce(&mut BufferFaultHook)) {
        let before = self.0.faults_injected();
        trace::leaf("fault.hook", || f(&mut self.0));
        trace::count("fault.faults", (self.0.faults_injected() - before) as u64);
    }
}

impl ForwardHooks for TimedBufferHook {
    fn on_input(&mut self, values: &mut [f32]) {
        self.call(|hook| hook.on_input(values));
    }

    fn on_activation(&mut self, layer_index: usize, kind: LayerKind, values: &mut [f32]) {
        self.call(|hook| hook.on_activation(layer_index, kind, values));
    }
}

/// A served [`SessionHook`] whose input strikes are timed as `fault.strike`
/// leaves and whose activation scrubs as `mitigation.scrub_row` leaves,
/// with bits struck and values scrubbed counted.
pub struct TimedSessionHook(pub SessionHook<f32>);

impl ForwardHooks for TimedSessionHook {
    fn on_input(&mut self, values: &mut [f32]) {
        let before = self.0.struck();
        trace::leaf("fault.strike", || self.0.on_input(values));
        trace::count("fault.faults", (self.0.struck() - before) as u64);
    }

    fn on_activation(&mut self, layer_index: usize, kind: LayerKind, values: &mut [f32]) {
        let before = self.0.scrubbed();
        trace::leaf("mitigation.scrub_row", || self.0.on_activation(layer_index, kind, values));
        trace::count("mitigation.scrubbed", (self.0.scrubbed() - before) as u64);
    }
}
