//! The accounting rules of the open-loop serve workload, kept free of
//! clocks and threads so they can be tested directly.

/// Latency and generator lateness of one open-loop request, in ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTiming {
    /// From the scheduled arrival to the resolved decision: the wait a
    /// stall imposes on later arrivals counts here (no coordinated
    /// omission).
    pub latency_ns: u64,
    /// How late the generator submitted: from the moment the request could
    /// first be sent — its arrival, or its session's previous reply if that
    /// came later — until the submit call.
    pub gen_late_ns: u64,
}

/// Accounts one request. `due` is its scheduled arrival, `session_free_at`
/// the reply time of its session's previous request when that request was
/// still in flight at `due` (each session has at most one request in
/// flight), `submitted` when it was handed to the server and `resolved`
/// when its ticket resolved.
pub fn account(
    due: u64,
    session_free_at: Option<u64>,
    submitted: u64,
    resolved: u64,
) -> RequestTiming {
    let ready = session_free_at.map_or(due, |free| free.max(due));
    RequestTiming {
        latency_ns: resolved.saturating_sub(due),
        gen_late_ns: submitted.saturating_sub(ready),
    }
}

/// An exponential inter-arrival gap (ns) for a Poisson process of `rate`
/// arrivals per second, from a uniform draw `unit` in `[0, 1)`.
pub fn exp_gap_ns(rate: f64, unit: f64) -> u64 {
    (-(1.0 - unit).ln() / rate * 1e9) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_runs_from_the_due_time_and_lateness_from_readiness() {
        // Idle session: ready at its due time; the generator was 5 ns late.
        let idle = account(100, None, 105, 300);
        assert_eq!(idle, RequestTiming { latency_ns: 200, gen_late_ns: 5 });
        // Busy session: the previous reply at 150 made the request ready;
        // the 50 ns spent waiting on it are latency, not generator lag.
        let busy = account(100, Some(150), 155, 300);
        assert_eq!(busy, RequestTiming { latency_ns: 200, gen_late_ns: 5 });
        // A reply that landed before the due time does not move readiness.
        assert_eq!(account(100, Some(90), 100, 120).gen_late_ns, 0);
    }

    #[test]
    fn exponential_gaps_have_the_requested_mean() {
        let n = 10_000;
        let total: u64 = (0..n).map(|i| exp_gap_ns(1e6, (i as f64 + 0.5) / n as f64)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1000.0).abs() < 20.0, "mean gap {mean} ns");
    }
}
