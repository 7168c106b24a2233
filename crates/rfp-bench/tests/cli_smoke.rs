//! End-to-end checks of the `experiments` binary at the length the
//! committed baselines were written at: side outputs must not change
//! stdout, one invocation must plan every row into one grid (each trace
//! compiled once, every warm snapshot freed), and the side documents must
//! match `baselines/`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rfp_bench::{flatten, parse_json, Json};

/// A fresh output directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("rfp-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn file(&self, name: &str) -> String {
        self.0.join(name).display().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `experiments args` at `RFP_TRACE_LEN=2000 RFP_THREADS=2`, every
/// other `RFP_*` knob cleared, and returns its output.
fn experiments(args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    for (var, _) in std::env::vars() {
        if var.starts_with("RFP_") {
            cmd.env_remove(var);
        }
    }
    cmd.env("RFP_TRACE_LEN", "2000")
        .env("RFP_THREADS", "2")
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .args(args)
        .output()
        .expect("experiments runs")
}

/// `experiments args`' stdout, after checking it exited 0.
fn stdout_of(args: &[&str]) -> String {
    let out = experiments(args);
    assert!(
        out.status.success(),
        "experiments {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The flattened `warm_pool` line of a `--telemetry-out` file.
fn warm_pool(telemetry: &str) -> BTreeMap<String, Json> {
    let text = std::fs::read_to_string(telemetry).expect("telemetry written");
    let line = text
        .lines()
        .find(|l| l.starts_with("{\"warm_pool\""))
        .expect("a warm_pool line");
    flatten(&parse_json(line).expect("warm_pool line parses"))
}

fn num(doc: &BTreeMap<String, Json>, path: &str) -> f64 {
    match doc.get(path) {
        Some(Json::Num(n)) => *n,
        other => panic!("{path}: not a number: {other:?}"),
    }
}

/// Asserts that one invocation compiled each trace once and released
/// every warm snapshot.
fn assert_one_grid(pool: &BTreeMap<String, Json>) {
    let workloads = rfp_trace::suite().len() as f64;
    assert_eq!(num(pool, "warm_pool.trace_builds"), workloads, "{pool:?}");
    assert_eq!(num(pool, "warm_pool.live_snapshots"), 0.0, "{pool:?}");
    assert_eq!(num(pool, "warm_pool.live_snapshot_bytes"), 0.0, "{pool:?}");
}

#[test]
fn all_with_side_outputs_matches_plain_all_and_the_baselines() {
    let dir = Scratch::new("all");
    let (metrics, profile) = (dir.file("metrics.json"), dir.file("profile.json"));
    let (collapsed, telemetry) = (dir.file("collapsed.txt"), dir.file("telemetry.jsonl"));
    let plain = stdout_of(&["all"]);
    let with_side = stdout_of(&[
        "all",
        "--metrics-out",
        &metrics,
        "--profile-out",
        &profile,
        "--collapsed-out",
        &collapsed,
        "--telemetry-out",
        &telemetry,
    ]);
    assert!(plain == with_side, "side outputs changed stdout");
    let pool = warm_pool(&telemetry);
    assert_one_grid(&pool);
    // The side documents' instrumented RFP row forks the snapshots of
    // the sweep's plain RFP row.
    assert!(num(&pool, "warm_pool.snapshot_hits") > 0.0, "{pool:?}");
    for (baseline, candidate) in [
        ("baselines/metrics.json", &metrics),
        ("baselines/profile.json", &profile),
    ] {
        let out = experiments(&["diff", baseline, candidate]);
        assert!(
            out.status.success(),
            "{candidate} drifted from {baseline}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn timeliness_compiles_each_trace_once() {
    let dir = Scratch::new("timeliness");
    let telemetry = dir.file("telemetry.jsonl");
    let report = stdout_of(&["timeliness", "--telemetry-out", &telemetry]);
    assert!(report.contains("fully hidden"));
    assert_one_grid(&warm_pool(&telemetry));
}

#[test]
fn engine_trace_of_a_forking_run_holds_every_stage() {
    let dir = Scratch::new("engine-trace");
    let (metrics, trace) = (dir.file("metrics.json"), dir.file("engine-trace.json"));
    let plain = stdout_of(&["fig10", "tab1"]);
    let traced = stdout_of(&[
        "fig10",
        "tab1",
        "--metrics-out",
        &metrics,
        "--engine-trace-out",
        &trace,
    ]);
    assert!(plain == traced, "the tracer changed stdout");
    let text = std::fs::read_to_string(&trace).expect("engine trace written");
    let doc = flatten(&parse_json(&text).expect("engine trace parses"));
    // Event names are `kind: key`.
    let kinds: BTreeSet<&str> = doc
        .iter()
        .filter(|(k, _)| k.starts_with("traceEvents[") && k.ends_with("].name"))
        .filter_map(|(_, v)| match v {
            Json::Str(name) => name.split(": ").next(),
            _ => None,
        })
        .collect();
    for kind in ["claim", "simulate", "reduce"] {
        assert!(kinds.contains(kind), "no {kind} event in {kinds:?}");
    }
    let em = "otherData.engineMetrics";
    assert_eq!(num(&doc, &format!("{em}.schema")), 1.0);
    assert!(num(&doc, &format!("{em}.jobs")) > 0.0);
    assert!(num(&doc, &format!("{em}.warm_pool.snapshot_hits")) > 0.0);
}
