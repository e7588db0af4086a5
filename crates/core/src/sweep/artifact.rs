//! Machine-readable campaign artifacts: the resume journal and per-figure
//! JSONL records.
//!
//! Two kinds of files live in an `--out` directory:
//!
//! * **`journal.jsonl`** — one record per *completed* cell, appended (and
//!   flushed) the moment the cell finishes, in completion order. This is the
//!   resume log: a later `--resume` run skips every cell whose fingerprint
//!   already has a record. A record stores the cell's summaries as exact
//!   moments (`count`/`mean`/`m2`/`min`/`max`), so a resumed run reproduces
//!   the uninterrupted run's figures bit-for-bit. On load, a resuming run
//!   drops any torn final line (the run was killed mid-write) and rewrites
//!   the journal from the surviving records before appending; a fresh
//!   (non-resume) run starts the journal empty.
//! * **`<figure>.jsonl`** — one record per cell of that figure, written
//!   after the run in *declaration* order with deterministic rendering, so
//!   two runs of the same campaign produce byte-identical files regardless
//!   of thread count. Alongside it, `<figure>.txt` holds the rendered
//!   plain-text tables; folds read no clock, so these are byte-identical
//!   across runs too.
//!
//! Record schema (`metrics[k]` is the summary of the cell's `k`-th metric):
//!
//! ```json
//! {"fp":"89abcdef01234567","sweep":"fig5","cell":"fig5a/Transient-M/ber=0.002",
//!  "labels":{"figure":"fig5a","mode":"Transient-M","ber":"0.002"},"reps":5,
//!  "metrics":[{"count":5,"mean":61.2,"m2":10.5,"min":55.0,"max":66.0}]}
//! ```

use std::collections::HashMap;
use std::path::Path;

use navft_fault::campaign::Summary;

use super::json::Json;

/// File name of the resume journal inside an artifact directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// Serializes a summary as its exact moments.
pub fn summary_to_json(summary: &Summary) -> Json {
    Json::obj([
        ("count", Json::num(summary.count() as f64)),
        ("mean", Json::num(summary.mean())),
        ("m2", Json::num(summary.m2())),
        ("min", Json::num(summary.min())),
        ("max", Json::num(summary.max())),
    ])
}

/// Reconstructs a summary from its serialized moments.
pub fn summary_from_json(json: &Json) -> Option<Summary> {
    let field = |key: &str| json.get(key)?.as_f64();
    Some(Summary::from_moments(
        field("count")? as usize,
        field("mean")?,
        field("m2")?,
        field("min")?,
        field("max")?,
    ))
}

/// Renders one artifact record (shared by the journal and the per-figure
/// files; the journal omits `labels`/`reps` readers don't need, but carrying
/// them keeps the two formats identical and the journal greppable).
#[allow(clippy::too_many_arguments)]
pub fn record_line(
    fingerprint: u64,
    sweep: &str,
    cell: &str,
    labels: &[(String, String)],
    repetitions: usize,
    metrics: &[Summary],
) -> String {
    Json::obj([
        ("fp", Json::Str(format!("{fingerprint:016x}"))),
        ("sweep", Json::Str(sweep.to_string())),
        ("cell", Json::Str(cell.to_string())),
        (
            "labels",
            Json::Obj(labels.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect()),
        ),
        ("reps", Json::num(repetitions as f64)),
        ("metrics", Json::Arr(metrics.iter().map(summary_to_json).collect())),
    ])
    .render()
}

/// Parses journal text into a fingerprint → per-metric-summaries map.
///
/// Lines that fail to parse are skipped: a run killed mid-append leaves a
/// torn final line, and resume must still honor every complete record.
pub fn parse_journal(text: &str) -> HashMap<u64, Vec<Summary>> {
    sanitize_journal(text).0
}

/// Parses journal text into the fingerprint → summaries map *plus* the
/// sanitized record lines that produced it: torn/junk lines are dropped and
/// duplicate fingerprints keep only the newest record.
///
/// A resuming run rewrites the journal from these lines before appending,
/// so a torn tail left by a kill can never fuse with the next record and
/// the journal stays strictly line-parseable.
pub fn sanitize_journal(text: &str) -> (HashMap<u64, Vec<Summary>>, Vec<String>) {
    let mut records = HashMap::new();
    let mut lines: Vec<String> = Vec::new();
    let mut line_of: HashMap<u64, usize> = HashMap::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(json) = Json::parse(line) else { continue };
        let Some(fp) = json.get("fp").and_then(Json::as_str) else { continue };
        let Ok(fp) = u64::from_str_radix(fp, 16) else { continue };
        let Some(metrics) = json.get("metrics").and_then(Json::as_arr) else { continue };
        let Some(summaries) =
            metrics.iter().map(summary_from_json).collect::<Option<Vec<Summary>>>()
        else {
            continue;
        };
        records.insert(fp, summaries);
        match line_of.get(&fp) {
            Some(&index) => lines[index] = line.to_string(),
            None => {
                line_of.insert(fp, lines.len());
                lines.push(line.to_string());
            }
        }
    }
    (records, lines)
}

/// Parses every `*.jsonl` artifact in `dir`, returning the total record
/// count or a description of the first malformed record.
///
/// The journal's final line is exempt from strict validation (it may be torn
/// by a kill); everything else must parse.
pub fn validate_dir(dir: &Path) -> Result<usize, String> {
    let mut records = 0usize;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read {dir:?}: {e}"))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .jsonl artifacts in {dir:?}"));
    }
    for path in paths {
        let is_journal = path.file_name().is_some_and(|n| n == JOURNAL_FILE);
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path:?}: {e}"))?;
        let lines: Vec<&str> = text.lines().collect();
        for (index, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match Json::parse(line) {
                Ok(json) => {
                    for key in ["fp", "cell", "metrics"] {
                        if json.get(key).is_none() {
                            return Err(format!(
                                "{path:?} line {}: record is missing {key:?}",
                                index + 1
                            ));
                        }
                    }
                    records += 1;
                }
                Err(e) if is_journal && index + 1 == lines.len() => {
                    // Torn tail from an interrupted run; resume skips it too.
                    let _ = e;
                }
                Err(e) => return Err(format!("{path:?} line {}: {e}", index + 1)),
            }
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_summaries() -> Vec<Summary> {
        vec![Summary::from_samples([1.0, 2.0, 4.5]), Summary::from_samples([-3.0])]
    }

    #[test]
    fn record_round_trips_through_the_journal_parser() {
        let metrics = sample_summaries();
        let labels = vec![("ber".to_string(), "0.002".to_string())];
        let line = record_line(0xDEAD_BEEF, "fig5", "fig5a/ber=0.002", &labels, 3, &metrics);
        let journal = parse_journal(&line);
        let back = &journal[&0xDEAD_BEEF];
        assert_eq!(back.len(), 2);
        for (a, b) in back.iter().zip(&metrics) {
            assert_eq!(a.count(), b.count());
            assert_eq!(a.mean().to_bits(), b.mean().to_bits());
            assert_eq!(a.m2().to_bits(), b.m2().to_bits());
            assert_eq!(a.min(), b.min());
            assert_eq!(a.max(), b.max());
        }
    }

    #[test]
    fn journal_parser_skips_torn_and_junk_lines() {
        let good = record_line(7, "s", "c", &[], 1, &sample_summaries());
        let text = format!("{good}\nnot json at all\n{{\"fp\":\"zz\"}}\n{{\"fp\":\"08\",\"tru");
        let journal = parse_journal(&text);
        assert_eq!(journal.len(), 1);
        assert!(journal.contains_key(&7));
    }

    #[test]
    fn validate_dir_accepts_good_artifacts_and_rejects_bad_ones() {
        let dir = std::env::temp_dir().join(format!("navft-artifact-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let line = record_line(1, "figx", "a", &[], 2, &sample_summaries());
        std::fs::write(dir.join("figx.jsonl"), format!("{line}\n{line}\n")).unwrap();
        // A torn journal tail is tolerated.
        std::fs::write(dir.join(JOURNAL_FILE), format!("{line}\n{{\"fp\":\"01\",\"tr")).unwrap();
        assert_eq!(validate_dir(&dir), Ok(3));

        // A torn line in a figure artifact is not.
        std::fs::write(dir.join("figy.jsonl"), "{\"fp\":").unwrap();
        assert!(validate_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validate_dir_requires_artifacts() {
        let dir = std::env::temp_dir().join(format!("navft-artifact-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(validate_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
