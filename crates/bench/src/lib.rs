//! Benchmark and figure-regeneration harness for the navft workspace.
//!
//! * The `figures` binary regenerates every figure of the paper's evaluation
//!   as plain-text tables and JSONL artifacts: `cargo run --release -p
//!   navft-bench --bin figures -- all` (or a single figure id, e.g. `fig5`;
//!   add `--scale smoke|quick|paper`, `--jobs N`, `--out DIR` and
//!   `--resume`). All requested figures' campaign cells run on one shared
//!   work-stealing scheduler; see `navft_core::sweep`.
//! * The `perf` binary writes a `BENCH_<rev>.json` snapshot of the engine,
//!   rollout, requantize, training and serve-scale throughput rows, and
//!   `perf_gate` compares a fresh snapshot against the checked-in history.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use navft_core::sweep::json::Json;
use navft_core::Scale;

/// Parses a `--scale` argument value.
///
/// # Examples
///
/// ```
/// use navft_bench::parse_scale;
/// use navft_core::Scale;
///
/// assert_eq!(parse_scale("smoke"), Some(Scale::Smoke));
/// assert_eq!(parse_scale("quick"), Some(Scale::Quick));
/// assert_eq!(parse_scale("paper"), Some(Scale::Paper));
/// assert_eq!(parse_scale("huge"), None);
/// ```
pub fn parse_scale(text: &str) -> Option<Scale> {
    match text.to_ascii_lowercase().as_str() {
        "smoke" => Some(Scale::Smoke),
        "quick" => Some(Scale::Quick),
        "paper" => Some(Scale::Paper),
        _ => None,
    }
}

/// Parses a `--jobs` argument value: a *positive* worker-thread count.
///
/// `0` is rejected rather than silently falling back to the scale default —
/// [`Scale::threads_or`] treats `Some(0)` as "unset", so accepting it at the
/// CLI would turn an explicit (likely erroneous) request into a surprise
/// thread count.
///
/// # Examples
///
/// ```
/// use navft_bench::parse_jobs;
///
/// assert_eq!(parse_jobs("4"), Some(4));
/// assert_eq!(parse_jobs("0"), None);
/// assert_eq!(parse_jobs("-1"), None);
/// assert_eq!(parse_jobs("many"), None);
/// ```
pub fn parse_jobs(text: &str) -> Option<usize> {
    text.parse::<usize>().ok().filter(|&n| n > 0)
}

/// One gated snapshot comparison: which section array to diff, the fields
/// that form a row's identity, and the throughput metric the gate floors.
///
/// The same table drives both the regression gate ([`perf_regressions`])
/// and the trend report ([`trend_report`]), so adding a section here gives
/// it a floor *and* a trajectory line at once.
pub struct GateSpec {
    /// Top-level snapshot key holding an array of JSON object rows.
    pub section: &'static str,
    /// Fields whose values (joined with `/`) identify a row across
    /// snapshots.
    pub key_fields: &'static [&'static str],
    /// The metric compared against the baseline floor.
    pub metric: &'static str,
}

/// Every gated section/metric pair of a `BENCH_<rev>.json` snapshot.
///
/// * `results` — the batched GEMM forward path, per `(model, backend)`;
/// * `serve_scale` — the daemon under ≥32k open-loop sessions, per
///   `(model, backend, load, sessions)`;
/// * `training` — DQN `learn` steps/s, per `(model, backend, minibatch)`;
/// * `campaign` — rollout rows per `(model, backend, batch)` on
///   `steps_per_s`. Rows that never recorded the metric (the figure
///   trials/s rows of older snapshots) are skipped;
/// * `requantize` — the GEMM requantize epilogue micro-benchmark, per
///   `backend`.
pub const GATED: &[GateSpec] = &[
    GateSpec {
        section: "results",
        key_fields: &["model", "backend"],
        metric: "dispatched_rows_per_s",
    },
    GateSpec {
        section: "serve_scale",
        key_fields: &["model", "backend", "load", "sessions"],
        metric: "rows_per_s",
    },
    GateSpec {
        section: "training",
        key_fields: &["model", "backend", "minibatch"],
        metric: "learn_steps_per_s",
    },
    GateSpec {
        section: "campaign",
        key_fields: &["model", "backend", "batch"],
        metric: "steps_per_s",
    },
    GateSpec { section: "requantize", key_fields: &["backend"], metric: "dispatched_elems_per_s" },
];

/// Compares a fresh `BENCH_<rev>.json` snapshot against a checked-in
/// baseline and returns one message per regression (empty = gate passes).
///
/// Every [`GATED`] section is diffed on its metric. A baseline row that is
/// absent from the fresh snapshot is a failure (a silently dropped
/// benchmark would otherwise pass the gate forever), as is a non-finite
/// fresh throughput (JSON `null` parses back as NaN, and every NaN
/// comparison would otherwise read as "no regression"). Rows that exist
/// only in the fresh snapshot are new coverage, not failures. `tolerance`
/// is the allowed fractional drop: `0.10` fails anything more than 10 %
/// below baseline.
pub fn perf_regressions(baseline: &Json, fresh: &Json, tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for spec in GATED {
        gate_section(baseline, fresh, spec, tolerance, &mut failures);
    }
    failures
}

/// Rows of one snapshot section (missing or non-array sections are empty).
fn section_rows(snapshot: &Json, section: &str) -> Vec<Json> {
    match snapshot.get(section) {
        Some(Json::Arr(rows)) => rows.clone(),
        _ => Vec::new(),
    }
}

/// A row's identity under `spec`: its key-field values joined with `/`.
fn row_key(row: &Json, spec: &GateSpec) -> String {
    spec.key_fields
        .iter()
        .map(|field| match row.get(field) {
            Some(Json::Str(s)) => s.clone(),
            Some(Json::Num(n)) => format!("{n}"),
            _ => "?".to_string(),
        })
        .collect::<Vec<_>>()
        .join("/")
}

/// Diffs one snapshot section (an array of JSON object rows) on `spec`'s
/// metric.
fn gate_section(
    baseline: &Json,
    fresh: &Json,
    spec: &GateSpec,
    tolerance: f64,
    failures: &mut Vec<String>,
) {
    let GateSpec { section, metric, .. } = *spec;
    let fresh_rows = section_rows(fresh, section);
    for base_row in section_rows(baseline, section) {
        let key = row_key(&base_row, spec);
        let Some(base_metric) = base_row.get(metric).and_then(Json::as_f64) else {
            continue; // baseline row never recorded this metric: nothing to gate
        };
        if !base_metric.is_finite() {
            continue;
        }
        let Some(fresh_row) = fresh_rows.iter().find(|row| row_key(row, spec) == key) else {
            failures.push(format!("{section} {key}: row missing from the fresh snapshot"));
            continue;
        };
        let fresh_metric = fresh_row.get(metric).and_then(Json::as_f64).unwrap_or(f64::NAN);
        if !fresh_metric.is_finite() {
            failures.push(format!("{section} {key}: {metric} is non-finite in the fresh snapshot"));
            continue;
        }
        let floor = base_metric * (1.0 - tolerance);
        if fresh_metric < floor {
            failures.push(format!(
                "{section} {key}: {metric} regressed {:.1}% ({fresh_metric:.0} vs baseline {base_metric:.0}, floor {floor:.0})",
                100.0 * (1.0 - fresh_metric / base_metric)
            ));
        }
    }
}

/// Orders `(label, snapshot)` pairs oldest → newest by each snapshot's
/// `unix_time` field. Snapshots predating the field (no `unix_time`) sort
/// before every stamped one, keeping their given relative order — so a
/// shell-glob's alphabetical order breaks ties among legacy files, and the
/// newest stamped snapshot always lands last (the baseline position).
pub fn order_snapshots(mut snapshots: Vec<(String, Json)>) -> Vec<(String, Json)> {
    snapshots.sort_by(|(_, a), (_, b)| {
        let stamp = |snapshot: &Json| {
            snapshot
                .get("unix_time")
                .and_then(Json::as_f64)
                .filter(|time| time.is_finite())
                .unwrap_or(f64::NEG_INFINITY)
        };
        stamp(a).total_cmp(&stamp(b))
    });
    snapshots
}

/// Renders the per-key throughput trajectory across `snapshots` (ordered
/// oldest → newest, e.g. by [`order_snapshots`]): one line per [`GATED`]
/// row key, with the metric's value in each snapshot left to right. Keys
/// appear in the order they first show up; snapshots missing a key render
/// `-` in its column, non-finite values render `nan`. Sections no snapshot
/// recorded are omitted.
pub fn trend_report(snapshots: &[(String, Json)]) -> String {
    let mut out = String::new();
    let labels: Vec<&str> = snapshots.iter().map(|(label, _)| label.as_str()).collect();
    out.push_str(&format!("trend across {} snapshot(s): {}\n", labels.len(), labels.join(" -> ")));
    for spec in GATED {
        let mut keys: Vec<String> = Vec::new();
        for (_, snapshot) in snapshots {
            for row in section_rows(snapshot, spec.section) {
                if row.get(spec.metric).is_none() {
                    continue; // not this pass's row kind (e.g. figure rows)
                }
                let key = row_key(&row, spec);
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
        }
        if keys.is_empty() {
            continue;
        }
        out.push_str(&format!("{} {}\n", spec.section, spec.metric));
        for key in keys {
            let values: Vec<String> = snapshots
                .iter()
                .map(|(_, snapshot)| {
                    let value = section_rows(snapshot, spec.section)
                        .iter()
                        .find(|row| row_key(row, spec) == key)
                        .and_then(|row| row.get(spec.metric).and_then(Json::as_f64));
                    match value {
                        Some(metric) if metric.is_finite() => format!("{metric:.0}"),
                        Some(_) => "nan".to_string(),
                        None => "-".to_string(),
                    }
                })
                .collect();
            out.push_str(&format!("  {key}: {}\n", values.join(" -> ")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_is_case_insensitive() {
        assert_eq!(parse_scale("SMOKE"), Some(Scale::Smoke));
        assert_eq!(parse_scale("Quick"), Some(Scale::Quick));
        assert_eq!(parse_scale(""), None);
    }

    fn snapshot(text: &str) -> Json {
        Json::parse(text).expect("test snapshot parses")
    }

    #[test]
    fn matching_snapshots_pass_the_gate() {
        let base = snapshot(
            r#"{"results":[{"model":"m","backend":"f32","dispatched_rows_per_s":1000.0}],
                "serve_scale":[{"model":"m","backend":"f32","load":"saturated",
                                "sessions":1024,"rows_per_s":500.0}]}"#,
        );
        assert_eq!(perf_regressions(&base, &base, 0.10), Vec::<String>::new());
    }

    #[test]
    fn drops_beyond_tolerance_fail_and_small_jitter_passes() {
        let base = snapshot(
            r#"{"results":[{"model":"m","backend":"f32","dispatched_rows_per_s":1000.0}]}"#,
        );
        let jitter = snapshot(
            r#"{"results":[{"model":"m","backend":"f32","dispatched_rows_per_s":905.0}]}"#,
        );
        assert!(perf_regressions(&base, &jitter, 0.10).is_empty(), "9.5% down is within 10%");
        let slow = snapshot(
            r#"{"results":[{"model":"m","backend":"f32","dispatched_rows_per_s":850.0}]}"#,
        );
        let failures = perf_regressions(&base, &slow, 0.10);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("results m/f32"), "{failures:?}");
        assert!(perf_regressions(&base, &slow, 0.20).is_empty(), "a looser gate admits it");
    }

    #[test]
    fn missing_rows_and_non_finite_throughput_fail() {
        let base = snapshot(
            r#"{"results":[{"model":"m","backend":"f32","dispatched_rows_per_s":1000.0}],
                "serve_scale":[{"model":"m","backend":"f32","load":"saturated",
                                "sessions":1024,"rows_per_s":500.0}]}"#,
        );
        let empty = snapshot(r#"{"results":[],"serve_scale":[]}"#);
        let failures = perf_regressions(&base, &empty, 0.10);
        assert_eq!(failures.len(), 2, "both sections report the missing row: {failures:?}");
        assert!(failures.iter().all(|f| f.contains("missing")));

        // `null` throughput parses back as NaN; the gate must fail it, not
        // let the NaN comparison read as "fine".
        let nan = snapshot(
            r#"{"results":[{"model":"m","backend":"f32","dispatched_rows_per_s":null}],
                "serve_scale":[{"model":"m","backend":"f32","load":"saturated",
                                "sessions":1024,"rows_per_s":500.0}]}"#,
        );
        let failures = perf_regressions(&base, &nan, 0.10);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("non-finite"), "{failures:?}");
    }

    #[test]
    fn serve_rows_key_on_session_count_and_new_rows_are_not_failures() {
        let base = snapshot(
            r#"{"serve_scale":[{"model":"m","backend":"f32","load":"saturated",
                                "sessions":1024,"rows_per_s":500.0}]}"#,
        );
        // Fresh snapshot serves a different session count: the baseline row
        // is missing, and the new row is not itself a failure.
        let other = snapshot(
            r#"{"serve_scale":[{"model":"m","backend":"f32","load":"saturated",
                                "sessions":2048,"rows_per_s":900.0}]}"#,
        );
        let failures = perf_regressions(&base, &other, 0.10);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("m/f32/saturated/1024"), "{failures:?}");
        // Same count again: passes, and extra fresh rows are ignored.
        let grown = snapshot(
            r#"{"serve_scale":[{"model":"m","backend":"f32","load":"saturated",
                                "sessions":1024,"rows_per_s":495.0},
                               {"model":"m","backend":"i8","load":"saturated",
                                "sessions":1024,"rows_per_s":100.0}]}"#,
        );
        assert!(perf_regressions(&base, &grown, 0.10).is_empty());
    }

    #[test]
    fn old_baselines_without_a_serve_section_still_gate_results() {
        let base =
            snapshot(r#"{"results":[{"model":"m","backend":"i8","dispatched_rows_per_s":10.0}]}"#);
        let fresh = snapshot(
            r#"{"results":[{"model":"m","backend":"i8","dispatched_rows_per_s":4.0}],
                "serve_scale":[{"model":"m","backend":"f32","load":"saturated",
                                "sessions":1024,"rows_per_s":1.0}]}"#,
        );
        let failures = perf_regressions(&base, &fresh, 0.10);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("regressed"), "{failures:?}");
    }

    #[test]
    fn campaign_rows_gate_rollout_steps_and_sweep_trials_independently() {
        let base = snapshot(
            r#"{"campaign":[{"model":"m","backend":"f32","batch":64,"steps_per_s":1000.0}]}"#,
        );
        assert_eq!(perf_regressions(&base, &base, 0.10), Vec::<String>::new());

        // A rollout regression is caught on steps/s.
        let slow_rollout = snapshot(
            r#"{"campaign":[{"model":"m","backend":"f32","batch":64,"steps_per_s":500.0}]}"#,
        );
        let failures = perf_regressions(&base, &slow_rollout, 0.10);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("m/f32/64"), "{failures:?}");
        assert!(failures[0].contains("steps_per_s"), "{failures:?}");

        // Pre-campaign baselines gate nothing new.
        let old = snapshot(r#"{"results":[]}"#);
        assert!(perf_regressions(&old, &base, 0.10).is_empty());
    }

    #[test]
    fn requantize_rows_gate_the_dispatched_epilogue_throughput() {
        let base =
            snapshot(r#"{"requantize":[{"backend":"q4.11","dispatched_elems_per_s":1000.0}]}"#);
        assert_eq!(perf_regressions(&base, &base, 0.10), Vec::<String>::new());
        let slow =
            snapshot(r#"{"requantize":[{"backend":"q4.11","dispatched_elems_per_s":500.0}]}"#);
        let failures = perf_regressions(&base, &slow, 0.10);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("requantize q4.11"), "{failures:?}");
        // Baselines predating the section gate nothing new.
        let old = snapshot(r#"{"results":[]}"#);
        assert!(perf_regressions(&old, &base, 0.10).is_empty());
    }

    #[test]
    fn serve_scale_and_training_rows_are_gated() {
        let base = snapshot(
            r#"{"serve_scale":[{"model":"m","backend":"f32","load":"saturated","sessions":32768,
                                "rows_per_s":1000.0}],
                "training":[{"model":"m","backend":"i8","minibatch":128,"learn_steps_per_s":800.0}]}"#,
        );
        assert_eq!(perf_regressions(&base, &base, 0.10), Vec::<String>::new());

        let slow = snapshot(
            r#"{"serve_scale":[{"model":"m","backend":"f32","load":"saturated","sessions":32768,
                                "rows_per_s":500.0}],
                "training":[{"model":"m","backend":"i8","minibatch":128,"learn_steps_per_s":300.0}]}"#,
        );
        let failures = perf_regressions(&base, &slow, 0.10);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("serve_scale m/f32/saturated/32768"), "{failures:?}");
        assert!(failures[1].contains("training m/i8/128"), "{failures:?}");
        assert!(failures[1].contains("learn_steps_per_s"), "{failures:?}");

        // A regime dropped from the sweep is a missing row, not a pass.
        let dropped = snapshot(r#"{"serve_scale":[],"training":[]}"#);
        let failures = perf_regressions(&base, &dropped, 0.10);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures.iter().all(|f| f.contains("missing")), "{failures:?}");

        // Baselines predating both sections gate nothing new.
        let old = snapshot(r#"{"results":[]}"#);
        assert!(perf_regressions(&old, &base, 0.10).is_empty());
    }

    #[test]
    fn snapshots_order_by_unix_time_with_legacy_files_first() {
        let legacy = snapshot(r#"{"rev":"aaa"}"#);
        let older = snapshot(r#"{"rev":"bbb","unix_time":100.0}"#);
        let newer = snapshot(r#"{"rev":"ccc","unix_time":200.0}"#);
        let ordered = order_snapshots(vec![
            ("ccc".to_string(), newer),
            ("aaa".to_string(), legacy),
            ("bbb".to_string(), older),
        ]);
        let labels: Vec<&str> = ordered.iter().map(|(label, _)| label.as_str()).collect();
        assert_eq!(labels, ["aaa", "bbb", "ccc"], "legacy first, then by stamp");
    }

    #[test]
    fn trend_report_tracks_each_key_across_snapshots() {
        let old = snapshot(
            r#"{"results":[{"model":"m","backend":"f32","dispatched_rows_per_s":1000.0}]}"#,
        );
        let new = snapshot(
            r#"{"results":[{"model":"m","backend":"f32","dispatched_rows_per_s":1200.0}],
                "training":[{"model":"m","backend":"f32","minibatch":32,"learn_steps_per_s":900.0}]}"#,
        );
        let report = trend_report(&[("a1".to_string(), old), ("b2".to_string(), new)]);
        assert!(report.contains("2 snapshot(s): a1 -> b2"), "{report}");
        assert!(report.contains("m/f32: 1000 -> 1200"), "{report}");
        // A key absent from the older snapshot renders `-` there.
        assert!(report.contains("m/f32/32: - -> 900"), "{report}");
        // Sections no snapshot recorded leave no header behind.
        assert!(!report.contains("requantize"), "{report}");
    }

    #[test]
    fn jobs_parsing_rejects_zero_and_garbage() {
        assert_eq!(parse_jobs("1"), Some(1));
        assert_eq!(parse_jobs("32"), Some(32));
        assert_eq!(parse_jobs("0"), None, "`--jobs 0` must fail loudly, not fall back");
        assert_eq!(parse_jobs("-4"), None);
        assert_eq!(parse_jobs("4.5"), None);
        assert_eq!(parse_jobs(""), None);
    }
}
