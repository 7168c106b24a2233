//! End-to-end checks of the `experiments` binary at the length the
//! committed baselines were written at: side outputs must not change
//! stdout, one invocation must plan every row into one grid (each trace
//! compiled once, every warm snapshot freed), the side documents must
//! match `baselines/`, the dashboard over them must render
//! deterministically, and a persistent store must be invisible in
//! stdout.

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
    experiments_with(&[], args)
}

/// [`experiments`] with the `RFP_*` variables of `env` set on top (and
/// over) the defaults.
fn experiments_with(env: &[(&str, &str)], args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    for (var, _) in std::env::vars() {
        if var.starts_with("RFP_") {
            cmd.env_remove(var);
        }
    }
    cmd.env("RFP_TRACE_LEN", "2000").env("RFP_THREADS", "2");
    for (var, value) in env {
        cmd.env(var, value);
    }
    cmd.current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .args(args)
        .output()
        .expect("experiments runs")
}

/// `experiments args`' stdout, after checking it exited 0.
fn stdout_of(args: &[&str]) -> String {
    stdout_with(&[], args)
}

/// [`stdout_of`] under [`experiments_with`]'s `env`.
fn stdout_with(env: &[(&str, &str)], args: &[&str]) -> String {
    let out = experiments_with(env, args);
    assert!(
        out.status.success(),
        "experiments {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The flattened `{"<name>":{…}}` summary line (`warm_pool`, `store`)
/// of a `--telemetry-out` file.
fn summary(telemetry: &str, name: &str) -> BTreeMap<String, Json> {
    let text = std::fs::read_to_string(telemetry).expect("telemetry written");
    let head = format!("{{\"{name}\":{{");
    let line = text.lines().find(|l| l.starts_with(&head)).expect(name);
    flatten(&parse_json(line).expect("summary line parses"))
}

/// The `(warm, store)` tags of each job row of a `--telemetry-out` file.
fn job_tags(telemetry: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(telemetry).expect("telemetry written");
    let tags = |line: &str| {
        let row = flatten(&parse_json(line).expect("job row parses"));
        match (&row["warm"], &row["store"]) {
            (Json::Str(w), Json::Str(s)) => (w.clone(), s.clone()),
            other => panic!("untagged job row: {other:?}"),
        }
    };
    text.lines()
        .filter(|l| l.contains("\"job\":"))
        .map(tags)
        .collect()
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
    let traces = dir.file("traces");
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
        "--trace-out",
        &traces,
        "--trace-workload",
        "spec06_libquantum",
    ]);
    assert!(plain == with_side, "side outputs changed stdout");
    // The Perfetto pipeline trace parses and holds prefetch lifetimes.
    let text = std::fs::read_to_string(dir.0.join("traces/spec06_libquantum.trace.json"))
        .expect("pipeline trace written");
    let trace = flatten(&parse_json(&text).expect("pipeline trace parses"));
    assert!(
        trace.iter().any(|(k, v)| k.starts_with("traceEvents[")
            && k.ends_with("].name")
            && matches!(v, Json::Str(name) if name == "rfp-useful")),
        "no rfp-useful event in the pipeline trace"
    );
    let pool = summary(&telemetry, "warm_pool");
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
    assert_one_grid(&summary(&telemetry, "warm_pool"));
}

#[test]
fn engine_trace_of_a_forking_run_holds_every_stage() {
    let dir = Scratch::new("engine-trace");
    let (metrics, trace) = (dir.file("metrics.json"), dir.file("engine-trace.json"));
    let telemetry = dir.file("telemetry.jsonl");
    let plain = stdout_of(&["fig10", "tab1"]);
    let traced = stdout_of(&[
        "fig10",
        "tab1",
        "--metrics-out",
        &metrics,
        "--engine-trace-out",
        &trace,
        "--telemetry-out",
        &telemetry,
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
    assert_eq!(num(&doc, &format!("{em}.schema")), 2.0);
    assert!(num(&doc, &format!("{em}.jobs")) > 0.0);
    assert!(num(&doc, &format!("{em}.warm_pool.snapshot_hits")) > 0.0);
    // The dashboard over the three documents: byte-deterministic, every
    // section present, tags balanced, the metrics document rendered.
    let render = |name: &str| {
        let html = dir.file(name);
        stdout_of(&[
            "report",
            "--report-out",
            &html,
            "--metrics",
            &metrics,
            "--engine-trace",
            &trace,
            "--telemetry",
            &telemetry,
        ]);
        std::fs::read_to_string(&html).expect("report written")
    };
    let html = render("report.html");
    assert!(
        html == render("report-again.html"),
        "report is not deterministic"
    );
    let anchors = [
        "overview",
        "workloads",
        "cpi",
        "funnel",
        "profile",
        "sampling",
        "engine",
    ];
    for anchor in anchors {
        assert!(
            html.contains(&format!("<section id=\"{anchor}\">")),
            "no {anchor}"
        );
    }
    assert!(
        !html.contains("<section id=\"trend\">"),
        "the trend section is retired"
    );
    for tag in ["section", "table", "svg", "main", "html"] {
        let opens =
            html.matches(&format!("<{tag} ")).count() + html.matches(&format!("<{tag}>")).count();
        assert_eq!(
            opens,
            html.matches(&format!("</{tag}>")).count(),
            "unbalanced <{tag}>"
        );
    }
    assert!(!html.contains("no metrics document provided"));
}

#[test]
fn store_runs_match_the_store_off_run_and_read_only_results() {
    let dir = Scratch::new("store");
    let store = dir.file("store");
    let sweep = |phase: &str| {
        let telemetry = dir.file(&format!("{phase}.jsonl"));
        let out = stdout_of(&[
            "fig2",
            "tab1",
            "--store",
            &store,
            "--telemetry-out",
            &telemetry,
        ]);
        (out, job_tags(&telemetry), summary(&telemetry, "store"))
    };
    let off = stdout_of(&["fig2", "tab1"]);
    let cold = sweep("cold");
    let warm = sweep("warm");
    for e in std::fs::read_dir(dir.0.join("store").join("results")).expect("results tier") {
        std::fs::remove_file(e.expect("entry").path()).expect("entry removed");
    }
    let inval = sweep("invalidated");
    let n = cold.1.len();
    assert!(n > 0);
    // Per phase: every job's store tag, the warm tag of a hit, and the
    // store hits the summary counts.
    for (phase, (out, jobs, sum), tag, hits) in [
        ("cold", &cold, "miss", 0),
        ("warm", &warm, "hit", n),
        ("invalidated", &inval, "miss", 0),
    ] {
        assert!(&off == out, "the {phase} store run changed stdout");
        assert_eq!(jobs.len(), n, "{phase}");
        let served = |(w, s): &(String, String)| s == tag && (w == "store") == (tag == "hit");
        assert!(jobs.iter().all(served), "{phase}: {jobs:?}");
        assert_eq!(num(sum, "store.hits"), hits as f64, "{phase}: {sum:?}");
        assert_eq!(num(sum, "store.corrupt"), 0.0, "{phase}: {sum:?}");
    }
    // With the results gone, nothing on disk serves the re-run.
    assert_eq!(num(&inval.2, "store.bytes_read"), 0.0, "{:?}", inval.2);
    let stats = stdout_of(&["store", "stats", "--store", &store]);
    for tier in ["results", "warm", "traces", "total"] {
        assert!(stats.contains(tier), "{stats}");
    }
    let gc = stdout_of(&["store", "gc", "--max-bytes", "4096", "--store", &store]);
    assert!(gc.starts_with("evicted "), "{gc}");
    let clear = stdout_of(&["store", "clear", "--store", &store]);
    assert!(clear.starts_with("removed "), "{clear}");
}

#[test]
fn inspect_is_thread_invariant_and_writes_well_formed_side_files() {
    // Two CPI intervals of 8,192 uops at least, so the recorder has
    // windows to pick.
    let dir = Scratch::new("inspect");
    let env = |threads| {
        [
            ("RFP_TRACE_LEN", "24576"),
            ("RFP_THREADS", threads),
            ("RFP_INSPECT_WINDOWS", "2"),
        ]
    };
    let kanata_kinds = ["C=", "C", "I", "L", "S", "E", "R", "W"];
    for w in ["spec17_mcf", "spec06_libquantum"] {
        let (json, kanata) = (
            dir.file(&format!("{w}.json")),
            dir.file(&format!("{w}.kanata")),
        );
        let two = stdout_with(
            &env("2"),
            &[
                "inspect",
                "--inspect-out",
                &json,
                "--konata-out",
                &kanata,
                w,
            ],
        );
        let eight = stdout_with(&env("8"), &["inspect", w]);
        assert!(two == eight, "{w}: stdout depends on the thread count");
        let text = std::fs::read_to_string(&json).expect("inspect windows written");
        // Flattened keys read `windows[i].uops[j].alloc`.
        let doc = flatten(&parse_json(&text).expect("inspect windows parse"));
        assert!(
            matches!(&doc["workload"], Json::Str(name) if name == w),
            "{w}"
        );
        let window = |i: usize| format!("windows[{i}]");
        let windows = (0..)
            .take_while(|&i| doc.contains_key(&format!("{}.rank", window(i))))
            .count();
        assert!(windows > 0, "{w}: no anomalous windows captured");
        for win in (0..windows).map(window) {
            assert!(
                doc.contains_key(&format!("{win}.uops[0].seq")),
                "{w}: {win} empty"
            );
            let slots = |name| num(&doc, &format!("{win}.{name}"));
            assert!(slots("stall_slots") <= slots("total_slots"), "{w}: {win}");
        }
        for key in doc.keys().filter(|k| k.ends_with("].alloc")) {
            let fetch = format!("{}fetch", key.trim_end_matches("alloc"));
            assert!(num(&doc, key) >= num(&doc, &fetch), "{w}: {key}");
        }
        let log = std::fs::read_to_string(&kanata).expect("Konata log written");
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines[0], "Kanata\t0004", "{w}");
        assert!(lines[1].starts_with("C=\t"), "{w}: {}", lines[1]);
        fn kind(line: &str) -> &str {
            line.split('\t').next().unwrap_or_default()
        }
        let bad: Vec<&&str> = lines[1..]
            .iter()
            .filter(|l| !kanata_kinds.contains(&kind(l)))
            .take(3)
            .collect();
        assert!(bad.is_empty(), "{w}: bad Konata records {bad:?}");
        assert!(
            lines.iter().any(|l| kind(l) == "R"),
            "{w}: no retire record"
        );
    }
}
