//! Longitudinal run-history ledger (`experiments history` / `trend`).
//!
//! The ledger is the fourth tier of the content-addressed experiment
//! store (`history/` under the [`ExpStore`] root): one versioned
//! [`RunRecord`] per labelled sweep, appended with `experiments history
//! add` (or a sweep's `--run-label`), never overwritten, and excluded
//! from LRU eviction unless `store gc --include-history` asks. It is the
//! across-run memory `experiments diff` lacks: `diff` gates one
//! candidate against one frozen baseline, while `experiments trend`
//! gates the *recent window* of the ledger against its own history
//! ([`rfp_stats::detect_trend`]).
//!
//! # Deterministic records
//!
//! A record holds only what is a pure function of the sweep's inputs:
//! label, caller-supplied timestamp, trace length, per-workload IPC /
//! coverage / cycles and CPI-stack shares, and the sampling-error
//! summary. So [`RunRecord::canonical_text`] (`history show`) and the
//! `trend` series are byte-identical across thread counts and store
//! states. Host timings and hit rates are not recorded.
//!
//! Timestamps are caller-supplied strings, never generated here:
//! recording a run twice with the same arguments writes byte-identical
//! payloads.
//!
//! # Failure semantics
//!
//! Ledger entries ride the store's wire format (magic, schema, tier
//! byte, key, checksum): any truncated, bit-flipped or version-skewed
//! entry is *skipped and counted*, never a crash — the surviving history
//! still renders and gates.

use std::sync::Arc;

use rfp_stats::{detect_trend, Direction, TextTable, TrendParams, TrendVerdict};
use rfp_types::codec::{ByteReader, ByteWriter, Codec, CodecError};
use rfp_types::json_escape;

use crate::diff::{parse_json, Json};
use crate::store::{decode_entry_unkeyed, ExpStore, Tier};

/// Ledger payload schema. Bump whenever [`RunRecord`]'s codec layout
/// changes: old entries then read as skipped (counted) rather than
/// misdecoded.
pub const HISTORY_SCHEMA_VERSION: u32 = 2;

/// One workload's deterministic results inside a [`RunRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRow {
    /// Workload name.
    pub workload: String,
    /// Instructions (uops) per cycle.
    pub ipc: f64,
    /// RFP coverage (useful prefetches / retired loads).
    pub coverage: f64,
    /// Measured cycles.
    pub cycles: u64,
    /// CPI-stack shares, sorted by bucket label at construction so the
    /// codec bytes and canonical text are order-independent.
    pub cpi: Vec<(String, f64)>,
}

impl Codec for WorkloadRow {
    fn encode(&self, w: &mut ByteWriter) {
        self.workload.encode(w);
        self.ipc.encode(w);
        self.coverage.encode(w);
        self.cycles.encode(w);
        self.cpi.encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(WorkloadRow {
            workload: String::decode(r)?,
            ipc: f64::decode(r)?,
            coverage: f64::decode(r)?,
            cycles: u64::decode(r)?,
            cpi: Vec::decode(r)?,
        })
    }
}

/// Condensed sampling-error bounds (`experiments sampling-error`).
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingErrorSummary {
    /// Workloads compared.
    pub workloads: u64,
    /// Metric with the largest relative error.
    pub worst_metric: String,
    /// That largest relative error.
    pub worst_rel_error: f64,
}

impl Codec for SamplingErrorSummary {
    fn encode(&self, w: &mut ByteWriter) {
        self.workloads.encode(w);
        self.worst_metric.encode(w);
        self.worst_rel_error.encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(SamplingErrorSummary {
            workloads: u64::decode(r)?,
            worst_metric: String::decode(r)?,
            worst_rel_error: f64::decode(r)?,
        })
    }
}

/// One labelled sweep in the ledger. See the module docs for why it
/// holds no host data.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Payload schema ([`HISTORY_SCHEMA_VERSION`] at write time).
    pub schema: u32,
    /// Ledger sequence number (assigned by [`HistoryLedger::add`]).
    pub seq: u64,
    /// Unique human-chosen run label (`--run-label`).
    pub label: String,
    /// Caller-supplied timestamp string (`--timestamp`, `-` if omitted).
    pub timestamp: String,
    /// Measured uops per workload for the sweep.
    pub trace_len: u64,
    /// Per-workload deterministic results, in document order.
    pub workloads: Vec<WorkloadRow>,
    /// Sampling-error summary, when the sweep produced one.
    pub sampling_error: Option<SamplingErrorSummary>,
}

impl Codec for RunRecord {
    fn encode(&self, w: &mut ByteWriter) {
        self.schema.encode(w);
        self.seq.encode(w);
        self.label.encode(w);
        self.timestamp.encode(w);
        self.trace_len.encode(w);
        self.workloads.encode(w);
        self.sampling_error.encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(RunRecord {
            schema: u32::decode(r)?,
            seq: u64::decode(r)?,
            label: String::decode(r)?,
            timestamp: String::decode(r)?,
            trace_len: u64::decode(r)?,
            workloads: Vec::decode(r)?,
            sampling_error: Option::decode(r)?,
        })
    }
}

impl RunRecord {
    /// Builds a record from the pipeline's JSON documents: a
    /// `--sampling-report` (required — it carries the per-workload
    /// IPC/coverage/cycles/CPI core), plus an optional `sampling-error`
    /// document. `seq` is assigned later by
    /// [`HistoryLedger::add`].
    ///
    /// # Errors
    ///
    /// An empty label, an unparseable document, or a sampling report
    /// without a `workloads` array.
    pub fn from_documents(
        label: &str,
        timestamp: &str,
        sampling_report: &str,
        sampling_error: Option<&str>,
    ) -> Result<RunRecord, String> {
        if label.trim().is_empty() {
            return Err("run label must be non-empty".to_string());
        }
        let report = parse_json(sampling_report).map_err(|e| format!("sampling-report: {e}"))?;
        let get = |v: &Json, key: &str| -> Option<Json> {
            match v {
                Json::Obj(members) => members
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone()),
                _ => None,
            }
        };
        let num = |v: &Json| -> Option<f64> {
            match v {
                Json::Num(n) => Some(*n),
                _ => None,
            }
        };
        let trace_len = get(&report, "len").as_ref().and_then(num).unwrap_or(0.0) as u64;
        let Some(Json::Arr(rows)) = get(&report, "workloads") else {
            return Err("sampling-report: missing workloads array".to_string());
        };
        let mut workloads = Vec::with_capacity(rows.len());
        for row in &rows {
            let Some(Json::Str(workload)) = get(row, "workload") else {
                return Err("sampling-report: workload row without a name".to_string());
            };
            let mut cpi: Vec<(String, f64)> = match get(row, "cpi") {
                Some(Json::Obj(members)) => members
                    .iter()
                    .filter_map(|(k, v)| num(v).map(|n| (k.clone(), n)))
                    .collect(),
                _ => Vec::new(),
            };
            cpi.sort_by(|a, b| a.0.cmp(&b.0));
            workloads.push(WorkloadRow {
                workload,
                ipc: get(row, "ipc").as_ref().and_then(num).unwrap_or(0.0),
                coverage: get(row, "coverage").as_ref().and_then(num).unwrap_or(0.0),
                cycles: get(row, "cycles").as_ref().and_then(num).unwrap_or(0.0) as u64,
                cpi,
            });
        }
        let sampling_error = match sampling_error {
            None => None,
            Some(text) => {
                let doc = parse_json(text).map_err(|e| format!("sampling-error: {e}"))?;
                Some(SamplingErrorSummary {
                    workloads: get(&doc, "workloads").as_ref().and_then(num).unwrap_or(0.0) as u64,
                    worst_metric: match get(&doc, "worst_metric") {
                        Some(Json::Str(s)) => s,
                        _ => "?".to_string(),
                    },
                    worst_rel_error: get(&doc, "worst_rel_error")
                        .as_ref()
                        .and_then(num)
                        .unwrap_or(0.0),
                })
            }
        };
        Ok(RunRecord {
            schema: HISTORY_SCHEMA_VERSION,
            seq: 0,
            label: label.trim().to_string(),
            timestamp: if timestamp.trim().is_empty() {
                "-".to_string()
            } else {
                timestamp.trim().to_string()
            },
            trace_len,
            workloads,
            sampling_error,
        })
    }

    /// The record as stable text (`history show`). These bytes must be
    /// identical whether the sweep that produced the record ran on 1 or
    /// 8 threads, store off, cold or warm.
    pub fn canonical_text(&self) -> String {
        let mut out = format!(
            "run seq={} label={} timestamp={} trace_len={} workloads={}\n",
            self.seq,
            self.label,
            self.timestamp,
            self.trace_len,
            self.workloads.len()
        );
        for w in &self.workloads {
            out.push_str(&format!(
                "  {} ipc={:.6} coverage={:.6} cycles={}\n",
                w.workload, w.ipc, w.coverage, w.cycles
            ));
            if !w.cpi.is_empty() {
                out.push_str("    cpi");
                for (k, v) in &w.cpi {
                    out.push_str(&format!(" {k}={v:.6}"));
                }
                out.push('\n');
            }
        }
        if let Some(se) = &self.sampling_error {
            out.push_str(&format!(
                "  sampling-error workloads={} worst={} rel={:.6}\n",
                se.workloads, se.worst_metric, se.worst_rel_error
            ));
        }
        out
    }
}

/// Everything the ledger currently holds: records ordered by sequence
/// number (ties by label, which cannot collide through
/// [`HistoryLedger::add`]), plus the count of entries that failed
/// verification and were skipped.
#[derive(Debug, Clone, Default)]
pub struct LedgerView {
    /// Verified records, oldest first.
    pub runs: Vec<RunRecord>,
    /// Entries skipped for corruption or schema skew (never a crash).
    pub corrupt_skipped: u64,
}

/// The append-only ledger over a store's `history/` tier.
#[derive(Debug)]
pub struct HistoryLedger {
    store: Arc<ExpStore>,
}

/// Canonical ledger key for one record.
fn history_key(seq: u64, label: &str) -> String {
    format!("history|schema={HISTORY_SCHEMA_VERSION}|seq={seq}|label={label}")
}

impl HistoryLedger {
    /// Wraps a store (its `history/` tier already exists —
    /// [`ExpStore::open`] creates all tiers).
    pub fn new(store: Arc<ExpStore>) -> HistoryLedger {
        HistoryLedger { store }
    }

    /// Appends `record`, assigning the next sequence number. Labels are
    /// unique keys: re-recording an existing label is an error, not an
    /// overwrite (the ledger is append-only).
    ///
    /// # Errors
    ///
    /// A duplicate label, or a store that failed to publish the entry.
    pub fn add(&self, mut record: RunRecord) -> Result<u64, String> {
        let view = self.load();
        if view.runs.iter().any(|r| r.label == record.label) {
            return Err(format!(
                "run label {:?} already recorded (the ledger is append-only; pick a new label)",
                record.label
            ));
        }
        let seq = view.runs.last().map_or(1, |r| r.seq + 1);
        record.seq = seq;
        record.schema = HISTORY_SCHEMA_VERSION;
        let key = history_key(seq, &record.label);
        if self.store.put(Tier::History, &key, &record) == 0 {
            return Err("failed to publish the ledger entry (store unwritable?)".to_string());
        }
        Ok(seq)
    }

    /// Reads every verified record. Corruption degrades to skip-entry:
    /// unreadable files, failed checksums, wrong tiers and payload
    /// schema skew are all counted in [`LedgerView::corrupt_skipped`].
    pub fn load(&self) -> LedgerView {
        let dir = self.store.root().join(Tier::History.dir());
        let mut runs = Vec::new();
        let mut corrupt = 0u64;
        if let Ok(rd) = std::fs::read_dir(&dir) {
            for e in rd.flatten() {
                let path = e.path();
                if path.extension().is_none_or(|x| x != "bin") {
                    continue;
                }
                let Ok(bytes) = std::fs::read(&path) else {
                    corrupt += 1;
                    continue;
                };
                match decode_entry_unkeyed::<RunRecord>(&bytes, Tier::History) {
                    Some((_, rec)) if rec.schema == HISTORY_SCHEMA_VERSION => runs.push(rec),
                    _ => corrupt += 1,
                }
            }
        }
        runs.sort_by(|a, b| a.seq.cmp(&b.seq).then_with(|| a.label.cmp(&b.label)));
        LedgerView {
            runs,
            corrupt_skipped: corrupt,
        }
    }
}

/// Renders `experiments history list`: one row per record plus a
/// deterministic summary line.
pub fn render_history_list(view: &LedgerView) -> String {
    let mut t = TextTable::new(&[
        "seq",
        "label",
        "timestamp",
        "trace_len",
        "workloads",
        "sampling_error",
    ]);
    for r in &view.runs {
        t.row(&[
            &r.seq.to_string(),
            &r.label,
            &r.timestamp,
            &r.trace_len.to_string(),
            &r.workloads.len().to_string(),
            if r.sampling_error.is_some() {
                "yes"
            } else {
                "-"
            },
        ]);
    }
    format!(
        "{}\n{} run(s) in the ledger, {} corrupt entr{} skipped\n",
        t.render(),
        view.runs.len(),
        view.corrupt_skipped,
        if view.corrupt_skipped == 1 {
            "y"
        } else {
            "ies"
        },
    )
}

/// Renders `experiments history show`: each record's canonical text,
/// oldest first. Byte-identical across thread counts and store states.
pub fn render_history_show(view: &LedgerView) -> String {
    let mut out = String::new();
    for r in &view.runs {
        out.push_str(&r.canonical_text());
    }
    out.push_str(&format!(
        "{} run(s), {} corrupt skipped\n",
        view.runs.len(),
        view.corrupt_skipped
    ));
    out
}

/// Renders `experiments history export`: every record as one JSON
/// document — the input format of the
/// dashboard's trend panels (`experiments report --history`).
pub fn history_export_json(view: &LedgerView) -> String {
    let mut out = format!(
        "{{\"schema\":{HISTORY_SCHEMA_VERSION},\"corrupt_skipped\":{},\"runs\":[",
        view.corrupt_skipped
    );
    for (i, r) in view.runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"seq\":{},\"label\":\"{}\",\"timestamp\":\"{}\",\"trace_len\":{},\"workloads\":[",
            r.seq,
            json_escape(&r.label),
            json_escape(&r.timestamp),
            r.trace_len
        ));
        for (j, w) in r.workloads.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"workload\":\"{}\",\"ipc\":{:.6},\"coverage\":{:.6},\"cycles\":{},\"cpi\":{{",
                json_escape(&w.workload),
                w.ipc,
                w.coverage,
                w.cycles
            ));
            for (k, (bucket, share)) in w.cpi.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{share:.6}", json_escape(bucket)));
            }
            out.push_str("}}");
        }
        out.push(']');
        match &r.sampling_error {
            Some(se) => out.push_str(&format!(
                ",\"sampling_error\":{{\"workloads\":{},\"worst_metric\":\"{}\",\
                 \"worst_rel_error\":{:.6}}}}}",
                se.workloads,
                json_escape(&se.worst_metric),
                se.worst_rel_error
            )),
            None => out.push_str(",\"sampling_error\":null}"),
        }
    }
    out.push_str("]}\n");
    out
}

/// The gated metrics per workload, in fixed order: `(suffix, direction)`.
pub const TREND_METRICS: [(&str, Direction); 3] = [
    ("ipc", Direction::HigherIsBetter),
    ("coverage", Direction::HigherIsBetter),
    ("cycles", Direction::LowerIsBetter),
];

/// Parses `baselines/trend_tolerances.json`: a bare `{pattern: tol}`
/// object or one under a top-level `"tolerances"` member (same contract
/// as the diff sentinel's overlay). Non-numeric entries are skipped.
///
/// # Errors
///
/// An unparseable document or a non-object top level.
pub fn parse_trend_tolerances(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = parse_json(text).map_err(|e| format!("trend tolerances: {e}"))?;
    let Json::Obj(members) = doc else {
        return Err("trend tolerances: document must be a JSON object".to_string());
    };
    let entries = match members.iter().find(|(k, _)| k == "tolerances") {
        Some((_, Json::Obj(inner))) => inner.clone(),
        _ => members,
    };
    Ok(entries
        .into_iter()
        .filter_map(|(k, v)| match v {
            Json::Num(t) => Some((k, t)),
            _ => None,
        })
        .collect())
}

/// The tolerance override governing `path`: longest substring match
/// wins, then a `"default"` entry, then `None` (caller falls back to
/// [`TrendParams::rel_tolerance`]). Negative values exclude the metric.
fn tolerance_override(path: &str, tolerances: &[(String, f64)]) -> Option<f64> {
    let mut best: Option<(usize, f64)> = None;
    let mut default = None;
    for (pat, tol) in tolerances {
        if pat == "default" {
            default = Some(*tol);
        } else if path.contains(pat.as_str()) && best.is_none_or(|(n, _)| pat.len() >= n) {
            best = Some((pat.len(), *tol));
        }
    }
    best.map(|(_, t)| t).or(default)
}

/// Builds the `(metric path, verdict)` rows for `experiments trend`:
/// for every workload seen anywhere in the ledger (sorted by name) and
/// every [`TREND_METRICS`] entry, the per-run series in ledger order is
/// gated through [`detect_trend`]. Metrics with a negative tolerance
/// override are excluded. Deterministic: sorted workloads, fixed metric
/// order, series from the seq-ordered view.
pub fn trend_rows(
    view: &LedgerView,
    tolerances: &[(String, f64)],
    params: &TrendParams,
) -> Vec<(String, TrendVerdict)> {
    let mut names: Vec<&str> = view
        .runs
        .iter()
        .flat_map(|r| r.workloads.iter().map(|w| w.workload.as_str()))
        .collect();
    names.sort_unstable();
    names.dedup();
    let mut rows = Vec::new();
    for name in names {
        for (metric, dir) in TREND_METRICS {
            let path = format!("{name}.{metric}");
            let tol = tolerance_override(&path, tolerances);
            if tol.is_some_and(|t| t < 0.0) {
                continue; // explicitly excluded
            }
            let series: Vec<f64> = view
                .runs
                .iter()
                .filter_map(|r| r.workloads.iter().find(|w| w.workload == name))
                .map(|w| match metric {
                    "ipc" => w.ipc,
                    "coverage" => w.coverage,
                    _ => w.cycles as f64,
                })
                .collect();
            let p = TrendParams {
                rel_tolerance: tol.unwrap_or(params.rel_tolerance),
                ..*params
            };
            rows.push((path, detect_trend(&series, dir, &p)));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Scratch ledger in a unique temp directory (no tempfile crate —
    /// offline build), removed on drop.
    struct Scratch(HistoryLedger, PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let root = std::env::temp_dir().join(format!(
                "rfp-history-test-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let store = ExpStore::open(&root).expect("open store");
            Scratch(HistoryLedger::new(Arc::new(store)), root)
        }

        fn entry_paths(&self) -> Vec<PathBuf> {
            let mut out: Vec<PathBuf> = std::fs::read_dir(self.1.join(Tier::History.dir()))
                .expect("dir")
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "bin"))
                .collect();
            out.sort();
            out
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.1);
        }
    }

    const REPORT: &str = r#"{"config_key":"00ff","len":1000,"workloads":[
        {"workload":"b","ipc":1.5,"coverage":0.25,"cycles":400,"cpi":{"base":0.7,"mem-dram":0.3}},
        {"workload":"a","ipc":2.0,"coverage":0.5,"cycles":300,"cpi":{"base":0.9,"mem-dram":0.1}}]}"#;

    const ERROR_DOC: &str =
        r#"{"workloads":2,"worst_metric":"ipc","worst_rel_error":0.012,"metrics":{}}"#;

    fn record(label: &str) -> RunRecord {
        RunRecord::from_documents(label, "2026-08-09", REPORT, Some(ERROR_DOC)).expect("valid docs")
    }

    #[test]
    fn add_assigns_sequence_numbers_and_round_trips() {
        let s = Scratch::new("roundtrip");
        assert_eq!(s.0.add(record("r1")).expect("first add"), 1);
        assert_eq!(s.0.add(record("r2")).expect("second add"), 2);
        let view = s.0.load();
        assert_eq!(view.corrupt_skipped, 0);
        assert_eq!(view.runs.len(), 2);
        assert_eq!(view.runs[0].label, "r1");
        assert_eq!(view.runs[1].seq, 2);
        assert_eq!(view.runs[0].trace_len, 1000);
        assert_eq!(view.runs[0].workloads.len(), 2);
        assert_eq!(
            view.runs[0].sampling_error.as_ref().map(|s| s.workloads),
            Some(2)
        );
        // The record round-trips field-for-field (seq/schema aside).
        let mut expected = record("r1");
        expected.seq = 1;
        assert_eq!(view.runs[0], expected);
    }

    #[test]
    fn duplicate_labels_are_rejected() {
        let s = Scratch::new("dup");
        s.0.add(record("r1")).expect("first");
        let err = s.0.add(record("r1")).expect_err("duplicate");
        assert!(err.contains("already recorded"), "{err}");
        assert_eq!(s.0.load().runs.len(), 1);
    }

    #[test]
    fn labels_and_timestamps_are_normalized() {
        let err = RunRecord::from_documents("  ", "t", REPORT, None);
        assert!(err.is_err());
        let r = RunRecord::from_documents("x", "  ", REPORT, None).expect("ok");
        assert_eq!(r.timestamp, "-");
    }

    #[test]
    fn corruption_skips_entries_never_crashes() {
        let s = Scratch::new("corrupt");
        s.0.add(record("keep")).expect("add");
        s.0.add(record("damage")).expect("add");
        let paths = s.entry_paths();
        assert_eq!(paths.len(), 2);
        // Truncate one entry: one survivor, one skip.
        let pristine = std::fs::read(&paths[0]).expect("read");
        std::fs::write(&paths[0], &pristine[..pristine.len() / 2]).expect("truncate");
        let view = s.0.load();
        assert_eq!((view.runs.len(), view.corrupt_skipped), (1, 1));
        // Bit flip instead: same degradation.
        let mut bad = pristine.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x20;
        std::fs::write(&paths[0], &bad).expect("flip");
        let view = s.0.load();
        assert_eq!((view.runs.len(), view.corrupt_skipped), (1, 1));
        // Heal it back: both records again.
        std::fs::write(&paths[0], &pristine).expect("heal");
        assert_eq!(s.0.load().runs.len(), 2);
    }

    #[test]
    fn payload_schema_skew_is_skipped_not_misread() {
        let s = Scratch::new("skew");
        s.0.add(record("current")).expect("add");
        // A future writer's record: valid container, newer payload schema.
        let mut future = record("future");
        future.schema = HISTORY_SCHEMA_VERSION + 1;
        future.seq = 99;
        s.0.store
            .put(Tier::History, &history_key(99, "future"), &future);
        // A schema-1 writer's record: the same fields followed by the
        // host and bench leaf lists that schema 2 dropped.
        let mut old = record("old");
        old.schema = 1;
        old.seq = 98;
        let host = vec![("engineMetrics.timing.steals".to_string(), 3.0)];
        let bench = vec![("engine.wall_s".to_string(), 1.25)];
        s.0.store.put(
            Tier::History,
            "history|schema=1|seq=98|label=old",
            &(old, host, bench),
        );
        let view = s.0.load();
        assert_eq!((view.runs.len(), view.corrupt_skipped), (1, 2));
        assert_eq!(view.runs[0].label, "current");
        assert!(render_history_list(&view).contains("current"));
        assert!(render_history_show(&view).contains("run seq=1 label=current"));
    }

    #[test]
    fn canonical_text_is_deterministic_and_quarantines_host_data() {
        let build = || RunRecord::from_documents("r", "t", REPORT, None).expect("ok");
        let text = build().canonical_text();
        assert_eq!(text, build().canonical_text());
        assert!(text.contains("ipc=2.000000"), "{text}");
        assert!(
            text.contains("cpi base=0.900000 mem-dram=0.100000"),
            "{text}"
        );
        assert!(!text.contains("wall"), "{text}");
    }

    #[test]
    fn renders_and_export_are_deterministic() {
        let s = Scratch::new("render");
        s.0.add(record("r1")).expect("add");
        s.0.add(record("r2")).expect("add");
        let view = s.0.load();
        assert_eq!(render_history_list(&view), render_history_list(&view));
        assert_eq!(render_history_show(&view), render_history_show(&view));
        let json = history_export_json(&view);
        assert_eq!(json, history_export_json(&view));
        let doc = parse_json(&json).expect("export parses");
        let Json::Obj(members) = &doc else {
            panic!("object")
        };
        assert!(members.iter().any(|(k, _)| k == "runs"));
        assert!(render_history_list(&view).contains("2 run(s)"));
        assert!(render_history_show(&view).contains("run seq=1 label=r1"));
    }

    #[test]
    fn trend_rows_gate_an_injected_cycle_step() {
        let s = Scratch::new("trend");
        for (i, cycles) in [300u64, 300, 300, 360].iter().enumerate() {
            let mut r = record(&format!("r{i}"));
            for w in &mut r.workloads {
                if w.workload == "a" {
                    w.cycles = *cycles;
                }
            }
            s.0.add(r).expect("add");
        }
        let view = s.0.load();
        let rows = trend_rows(&view, &[], &TrendParams::default());
        // 2 workloads x 3 metrics, sorted a before b, fixed metric order.
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].0, "a.ipc");
        let cyc = rows.iter().find(|(p, _)| p == "a.cycles").expect("row");
        assert!(cyc.1.regressed, "{:?}", cyc.1);
        let ipc = rows.iter().find(|(p, _)| p == "a.ipc").expect("row");
        assert!(!ipc.1.regressed, "{:?}", ipc.1);
        // A huge tolerance or an exclusion silences the gate.
        let tols = vec![("a.cycles".to_string(), 0.5)];
        let rows = trend_rows(&view, &tols, &TrendParams::default());
        assert!(
            !rows
                .iter()
                .find(|(p, _)| p == "a.cycles")
                .unwrap()
                .1
                .regressed
        );
        let tols = vec![("a.cycles".to_string(), -1.0)];
        let rows = trend_rows(&view, &tols, &TrendParams::default());
        assert!(!rows.iter().any(|(p, _)| p == "a.cycles"));
    }

    #[test]
    fn tolerance_overrides_match_longest_then_default() {
        let tols = vec![
            ("default".to_string(), 0.2),
            ("cycles".to_string(), 0.05),
            ("a.cycles".to_string(), 0.1),
        ];
        assert_eq!(tolerance_override("a.cycles", &tols), Some(0.1));
        assert_eq!(tolerance_override("b.cycles", &tols), Some(0.05));
        assert_eq!(tolerance_override("b.ipc", &tols), Some(0.2));
        assert_eq!(tolerance_override("b.ipc", &tols[1..]), None);
        assert!(parse_trend_tolerances("{\"tolerances\":{\"x\":0.1}}")
            .is_ok_and(|t| t == vec![("x".to_string(), 0.1)]));
        assert!(parse_trend_tolerances("[1]").is_err());
    }
}
