//! Host-speed calibration.
//!
//! On a shared 2-vCPU host the benchmark's CPUs change speed with other
//! tenants' load: a fixed loop of arithmetic takes anywhere from 1× to about
//! 1.9× its quiet time, switching every few hundred milliseconds, and the
//! share of slow spells drifts over minutes. None of it shows as steal time,
//! so CPU time does not help. The benchmark therefore scales its timings to
//! a reference host speed: a fixed reference kernel — the benchmark's own
//! code, which never calls into the navft crates, so a change to the program
//! cannot move it — is timed again and again through a run, interleaved
//! with the measured work on the same threads, and a timing is multiplied by
//! [`NOMINAL_NS`] over the reference kernel's time (its *slowdown*).
//!
//! * A campaign pass's throughput uses the slowdown of the probes taken
//!   during it ([`take_slowdown`], a harmonic mean); a set-up time that of
//!   its own probes or, without any, of the whole run ([`run_slowdown`]).
//! * A decision tick uses its thread's latest probe, at most
//!   [`PROBE_EVERY`] old ([`tick_scale`]).
//! * Serve figures are not scaled: the server's 200 µs flush deadline, not
//!   its arithmetic, sets most of its latency, and its saturated rate moved
//!   less than the probes on either of its threads.

use std::cell::Cell;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The reference speed, as the reference kernel's time (ns): a round
/// figure near its mean on a 2-vCPU Xeon host over a quiet run. Reported
/// timings are expressed at this speed.
pub const NOMINAL_NS: f64 = 25_000.0;

/// The longest a thread inside a campaign trial or the serve generator goes
/// without a fresh probe.
pub const PROBE_EVERY: Duration = Duration::from_millis(5);

/// Share of the probes dropped at each end before averaging: one probe that
/// caught a preemption must not decide a run's scale.
const TRIM: f64 = 0.05;

/// Side of the reference kernel's square weight matrix.
const SIDE: usize = 64;
/// Matrix–vector products per probe.
const PRODUCTS: usize = 12;

static SAMPLES: Mutex<Vec<f64>> = Mutex::new(Vec::new());
static RUN: Mutex<Vec<f64>> = Mutex::new(Vec::new());

thread_local! {
    /// This thread's latest probe: when it ended and its slowdown.
    static LATEST: Cell<Option<(Instant, f64)>> = const { Cell::new(None) };
}

/// One run of the reference kernel: a chain of dense 64×64 f32
/// matrix–vector products with a ReLU, the arithmetic of a small policy
/// layer. Returns a value the optimizer cannot drop.
fn reference_kernel() -> f32 {
    let mut weights = [0f32; SIDE * SIDE];
    for (i, w) in weights.iter_mut().enumerate() {
        *w = ((i * 7 + 3) % 17) as f32 / 17.0 - 0.45;
    }
    let weights = black_box(weights);
    let mut x = [0.5f32; SIDE];
    let mut y = [0f32; SIDE];
    for _ in 0..PRODUCTS {
        for (row, out) in weights.chunks_exact(SIDE).zip(y.iter_mut()) {
            *out = row.iter().zip(&x).map(|(w, v)| w * v).sum::<f32>();
        }
        for (v, out) in x.iter_mut().zip(&y) {
            *v = out.max(0.0) * 0.25 + 0.01;
        }
    }
    x.iter().sum()
}

/// Times the reference kernel now, records the sample, makes it this
/// thread's latest, and returns the slowdown (kernel time over
/// [`NOMINAL_NS`]).
pub fn probe() -> f64 {
    let started = Instant::now();
    black_box(reference_kernel());
    let ended = Instant::now();
    let slowdown = (ended - started).as_nanos() as f64 / NOMINAL_NS;
    SAMPLES.lock().expect("calibration samples lock").push(slowdown);
    RUN.lock().expect("calibration samples lock").push(slowdown);
    LATEST.with(|latest| latest.set(Some((ended, slowdown))));
    slowdown
}

/// The factor that scales a tick timed on this thread to the reference
/// speed: `1 / slowdown` of its latest probe, probing first when that is
/// older than [`PROBE_EVERY`] (or missing).
pub fn tick_scale() -> f64 {
    let fresh = LATEST.with(|latest| {
        latest.get().filter(|(at, _)| at.elapsed() < PROBE_EVERY).map(|(_, slowdown)| slowdown)
    });
    1.0 / fresh.unwrap_or_else(probe)
}

/// The slowdown over every probe of the run so far, including those
/// [`take_samples`] handed out.
pub fn run_slowdown() -> Option<f64> {
    slowdown(RUN.lock().expect("calibration samples lock").clone())
}

/// The slowdowns of every probe since the last call, and forgets them.
pub fn take_samples() -> Vec<f64> {
    std::mem::take(&mut *SAMPLES.lock().expect("calibration samples lock"))
}

/// The slowdown of every probe since the last call (`None` without
/// probes), and forgets them.
pub fn take_slowdown() -> Option<f64> {
    slowdown(take_samples())
}

/// The slowdown of a span of work from probes spread evenly over it: work
/// advances at the host's speed, `1 / slowdown`, so a span's work is the
/// mean speed times its length, and the span's slowdown is the reciprocal
/// of the (trimmed) mean speed — a harmonic mean of the probes. With half
/// the probes at 1 and half at 2 it is 1.33, not 1.5.
pub fn slowdown(samples: Vec<f64>) -> Option<f64> {
    trimmed_mean(samples.into_iter().map(|s| 1.0 / s).collect(), TRIM).map(|speed| 1.0 / speed)
}

/// The mean of `values` without the `share` lowest and highest of them
/// (rounded down), or `None` when empty.
pub fn trimmed_mean(mut values: Vec<f64>, share: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let cut = (values.len() as f64 * share).floor() as usize;
    let kept = &values[cut..values.len() - cut];
    Some(kept.iter().sum::<f64>() / kept.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let mut values: Vec<f64> = vec![1.0; 18];
        values.push(50.0);
        values.push(0.0);
        assert_eq!(trimmed_mean(values, 0.05), Some(1.0));
        assert_eq!(trimmed_mean(vec![2.0, 4.0], 0.05), Some(3.0));
        assert_eq!(trimmed_mean(Vec::new(), 0.05), None);
    }

    #[test]
    fn a_span_slowdown_is_the_harmonic_mean() {
        let slowdown = slowdown(vec![1.0, 2.0, 1.0, 2.0]).expect("probes");
        assert!((slowdown - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(super::slowdown(Vec::new()), None);
    }

    #[test]
    fn ticks_reuse_a_fresh_probe() {
        let first = tick_scale();
        let second = tick_scale();
        assert!(first > 0.0 && first.is_finite());
        // The second tick came within PROBE_EVERY of the first probe.
        assert_eq!(first, second);
        // Other tests drain the pass samples; the run's are never drained.
        assert!(run_slowdown().is_some());
    }
}
