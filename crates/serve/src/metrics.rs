//! Request-latency aggregation for the serving harness.

use std::time::Duration;

use navft_core::sweep::json::Json;

/// A window of request latencies with percentile queries and a JSON summary
/// — what the latency/throughput harness writes into `BENCH_<rev>.json`.
///
/// Percentiles of an empty window are `NaN`; [`LatencyWindow::summary`]
/// renders them through [`Json::num`], which maps every non-finite value to
/// JSON `null` (the round trip back parses as `NaN`), so an idle server
/// produces valid JSON rather than bare `NaN` tokens.
#[derive(Debug, Clone, Default)]
pub struct LatencyWindow {
    samples_us: Vec<f64>,
}

impl LatencyWindow {
    /// An empty window.
    pub fn new() -> LatencyWindow {
        LatencyWindow::default()
    }

    /// Records one request's latency.
    pub fn record(&mut self, latency: Duration) {
        self.samples_us.push(latency.as_secs_f64() * 1e6);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples_us.len()
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples_us.is_empty()
    }

    /// The `p`-th percentile latency in microseconds (nearest-rank over the
    /// sorted samples), or `NaN` for an empty window.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples_us.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.samples_us.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Median latency in microseconds (`NaN` when empty).
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 99th-percentile latency in microseconds (`NaN` when empty).
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// 99.9th-percentile latency in microseconds (`NaN` when empty) — the
    /// tail the bursty-load harness tracks, since spikes that barely move
    /// p99 still show up here.
    pub fn p999(&self) -> f64 {
        self.percentile(99.9)
    }

    /// Summarizes the window plus a row count and wall-clock span as a JSON
    /// object: `requests`, `rows`, `p50_us`, `p99_us`, `p999_us`,
    /// `rows_per_s`. Non-finite entries (empty window, zero elapsed time)
    /// render as `null`.
    pub fn summary(&self, rows: usize, elapsed: Duration) -> Json {
        let secs = elapsed.as_secs_f64();
        let rows_per_s = if secs > 0.0 { rows as f64 / secs } else { f64::NAN };
        Json::obj([
            ("requests", Json::num(self.len() as f64)),
            ("rows", Json::num(rows as f64)),
            ("p50_us", Json::num(self.p50())),
            ("p99_us", Json::num(self.p99())),
            ("p999_us", Json::num(self.p999())),
            ("rows_per_s", Json::num(rows_per_s)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank_over_the_sorted_window() {
        let mut window = LatencyWindow::new();
        for us in [300u64, 100, 200, 400, 10_000] {
            window.record(Duration::from_micros(us));
        }
        assert_eq!(window.len(), 5);
        assert_eq!(window.p50(), 300.0);
        assert_eq!(window.p99(), 10_000.0);
        assert_eq!(window.p999(), 10_000.0);
        assert_eq!(window.percentile(0.0), 100.0);
    }

    #[test]
    fn merge_folds_samples_and_p999_tracks_the_extreme_tail() {
        // 299 fast samples and one slow outlier: p99's nearest rank stays in
        // the fast cluster while p999's lands on the outlier.
        let mut fast = LatencyWindow::new();
        for _ in 0..299 {
            fast.record(Duration::from_micros(100));
        }
        fast.record(Duration::from_micros(50_000));
        assert_eq!(fast.len(), 300);
        assert_eq!(fast.p99(), 100.0);
        assert_eq!(fast.p999(), 50_000.0);
    }

    #[test]
    fn empty_window_percentiles_are_nan_and_render_as_null() {
        // The serve-metrics extension of the sweep::json non-finite
        // contract: an idle window's p50/p99 are NaN, the summary renders
        // them as JSON null, and the rendered text round-trips.
        let window = LatencyWindow::new();
        assert!(window.p50().is_nan());
        assert!(window.p99().is_nan());

        let summary = window.summary(0, Duration::ZERO);
        let text = summary.render();
        assert!(text.contains("\"p50_us\":null"), "NaN must render as null: {text}");
        assert!(text.contains("\"p99_us\":null"), "NaN must render as null: {text}");
        assert!(text.contains("\"rows_per_s\":null"), "0/0 must render as null: {text}");
        assert!(!text.contains("NaN"), "no bare NaN tokens in JSON: {text}");

        // The null entries parse back as NaN (`as_f64` maps Null to NaN).
        let parsed = Json::parse(&text).expect("summary round-trips");
        assert!(parsed.get("p50_us").and_then(Json::as_f64).expect("present").is_nan());
        assert!(parsed.get("p99_us").and_then(Json::as_f64).expect("present").is_nan());
        assert!(parsed.get("rows_per_s").and_then(Json::as_f64).expect("present").is_nan());
        assert_eq!(parsed.get("requests").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn populated_summary_reports_throughput() {
        let mut window = LatencyWindow::new();
        window.record(Duration::from_micros(500));
        window.record(Duration::from_micros(1000));
        window.record(Duration::from_micros(1500));
        let summary = window.summary(20, Duration::from_secs(2));
        assert_eq!(summary.get("rows").and_then(Json::as_f64), Some(20.0));
        assert_eq!(summary.get("rows_per_s").and_then(Json::as_f64), Some(10.0));
        assert_eq!(summary.get("requests").and_then(Json::as_f64), Some(3.0));
        let round_trip = Json::parse(&summary.render()).expect("parses");
        assert_eq!(round_trip.get("p50_us").and_then(Json::as_f64), Some(1000.0));
    }
}
