//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p rfp-bench --bin experiments -- [--threads N] <id>... | all
//! ```
//!
//! Ids: fig1 fig2 tab1 tab2 fig10 fig11 fig12 fig13 fig14 s522 fig15 fig16
//! fig17 fig18 s552 s553 s554 s555 ext1 ext2, or `all`, plus the
//! observability extras `timeliness`, `cpi` and `profile` (not part of
//! `all`). Set
//! `RFP_TRACE_LEN` to change the measured micro-ops per workload (default
//! 120000). `--threads N` (or `RFP_THREADS`) sizes the work-stealing pool;
//! the default is the machine's available parallelism. `RFP_WARM_MODE`
//! (`off` | `exact`, default `exact`) controls warm-state sharing across
//! the grid; the two are byte-identical. Output
//! is byte-identical at any thread count. `RFP_SIM_MODE` (`full` | `sample`,
//! default `full`) switches on phase-sampled simulation: intervals are
//! clustered by basic-block vector, one representative per phase is
//! simulated, and per-phase integer weights extrapolate the rest. Sampled
//! output is also byte-identical at any thread count, but is an
//! approximation of full-fidelity output; `experiments sampling-error`
//! quantifies the gap.
//!
//! Observability outputs (all side files; stdout stays byte-identical).
//! The instrumented RFP row behind `--metrics-out`, `--profile-out`,
//! `--collapsed-out` and `--sampling-report` runs in the
//! same grid as the experiments' own rows, so it forks their warm
//! snapshots and each trace is compiled once per invocation:
//!
//! - `--trace-out <dir>`: write a Perfetto/`chrome://tracing` pipeline +
//!   prefetch-lifetime trace of one workload under the RFP config to
//!   `<dir>/<workload>.trace.json`.
//! - `--trace-workload <name>`: which workload to trace (default
//!   `spec17_mcf`).
//! - `--metrics-out <file>`: write per-workload latency histograms (JSON)
//!   for the RFP config over the whole suite.
//! - `--profile-out <file>`: write the per-load-PC attribution profile
//!   (JSON) for the RFP config over the whole suite.
//! - `--collapsed-out <file>`: write the same profile as collapsed stacks
//!   (`pc;outcome count` lines) for flamegraph tooling.
//! - `--telemetry-out <file>`: write per-job engine telemetry (JSONL):
//!   worker, queue depth at grab time, wall nanos.
//! - `--sampling-report <file>`: write per-workload IPC / coverage /
//!   cycles / CPI-bucket summaries (JSON) for the RFP config. Produce one
//!   under `RFP_SIM_MODE=full` and one under `=sample`, then feed both to
//!   `diff` or `sampling-error`.
//!
//! Regression sentinel: `experiments diff [--tolerances FILE]
//! <baseline.json> <candidate.json>` compares two `--metrics-out` (or
//! `--profile-out`, or `--sampling-report`) documents leaf by leaf under
//! the tolerances embedded in the baseline, optionally extended/overridden
//! by a standalone tolerances file, printing a violations table. Exit code
//! 0 = within tolerance, 1 = regression, 2 = bad input.
//!
//! `experiments sampling-error <full.json> <sampled.json>` condenses two
//! `--sampling-report` documents into per-metric p50/p95/max relative
//! error bounds (JSON on stdout) using the same relative-error formula as
//! `diff`, so the report predicts the gate outcome.
//!
//! Persistent store: with `RFP_STORE=<dir>` (or `--store DIR`;
//! `--no-store` disables), finished job results are cached on disk
//! content-addressed by their full inputs, so an unchanged job is a file
//! read instead of a simulation; traces and warm snapshots are rebuilt in
//! memory by every run. Stdout is byte-identical with the store off, cold,
//! warm or invalidated. `experiments store stats | gc --max-bytes N |
//! clear` maintains the directory; `gc` also removes every warm-snapshot
//! and trace entry that earlier versions wrote.
//!
//! `experiments inspect [--inspect-out FILE] [--konata-out FILE]
//! <workload>` runs the two-pass anomaly → flight-recorder flow on one
//! workload: the CPI interval series picks anomalous windows
//! (`RFP_INSPECT_WINDOWS` budget, default 4), a second fork of the same
//! warm snapshot records full per-uop lifecycles inside them, and the
//! worst window is rendered as a pipeline table. `--konata-out` writes a
//! `Kanata 0004` log loadable in the Konata O3 viewer.
//!
//! Every `RFP_*` variable is parsed once, before anything else runs
//! ([`RunEnv`]): a malformed value, or a store directory that cannot be
//! opened, exits 2 naming the variable.
//!
//! Run `experiments --help` for the generated subcommand/flag/env tables.

use std::sync::Arc;

use rfp_bench::{
    die, diff_metrics_with, inspect_workload, read_or_die, render_report, render_store_stats,
    sampling_error_report_json, take_bare, take_count, take_flag, telemetry_jsonl,
    trace_workload_json, write_engine_trace, write_or_die, ExpStore, Harness, NonEmptyPath,
    ReportInputs, RunEnv, WarmPool, DEFAULT_TRACE_LEN, KNOBS,
};
use rfp_core::CoreConfig;
use rfp_obs::EngineTracer;

/// Extra experiment ids accepted by `run` but excluded from `all` (their
/// stdout carries probe-derived numbers, which `all` keeps out so its
/// bytes stay invariant under instrumentation).
const EXTRA_IDS: &[&str] = &["timeliness", "cpi", "profile"];

/// Subcommand table for the generated usage text. Adding a subcommand
/// here is the whole help-text change — the table renders aligned.
const SUBCOMMANDS: &[(&str, &str)] = &[
    (
        "<id>... | all",
        "regenerate the paper's tables/figures (ids below)",
    ),
    (
        "inspect [--inspect-out FILE] [--konata-out FILE] <workload>",
        "anomaly-window flight-recorder drill-down of one workload",
    ),
    (
        "diff [--tolerances FILE] <baseline.json> <candidate.json>",
        "regression sentinel over two metrics docs (exit 1 on violation)",
    ),
    (
        "sampling-error <full.json> <sampled.json>",
        "condense two --sampling-report docs into p50/p95/max error bounds",
    ),
    (
        "store stats | gc --max-bytes N | clear",
        "inspect / LRU-evict / empty the persistent experiment store",
    ),
    (
        "report --report-out FILE [--metrics F] [--profile F] ...",
        "fold the pipeline's JSON docs into one static HTML dashboard",
    ),
];

/// Side-output flag table for the generated usage text (stdout of the
/// experiment ids stays byte-identical when any of these are set).
const SIDE_FLAGS: &[(&str, &str)] = &[
    (
        "--threads N",
        "work-stealing worker count (default: RFP_THREADS or all cores)",
    ),
    (
        "--trace-out DIR",
        "Perfetto pipeline trace of --trace-workload",
    ),
    (
        "--trace-workload W",
        "workload for --trace-out (default spec17_mcf)",
    ),
    (
        "--metrics-out FILE",
        "per-workload latency histograms (JSON)",
    ),
    (
        "--profile-out FILE",
        "per-load-PC attribution profile (JSON)",
    ),
    (
        "--collapsed-out FILE",
        "profile as collapsed stacks for flamegraph tooling",
    ),
    ("--telemetry-out FILE", "per-job engine telemetry (JSONL)"),
    (
        "--store DIR",
        "persistent experiment store root (overrides RFP_STORE)",
    ),
    (
        "--no-store",
        "disable the persistent store even when RFP_STORE is set",
    ),
    (
        "--sampling-report FILE",
        "per-workload IPC/coverage/CPI sampling summary (JSON)",
    ),
    (
        "--inspect-out FILE",
        "inspect only: windows + uop lifecycles (JSON)",
    ),
    (
        "--konata-out FILE",
        "inspect only: Kanata 0004 pipeline log",
    ),
    (
        "--engine-trace-out FILE",
        "engine self-trace (Chrome JSON + engineMetrics summary)",
    ),
];

/// Renders one aligned two-column table.
fn push_table(out: &mut String, rows: &[(String, String)]) {
    let w = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    for (n, d) in rows {
        out.push_str(&format!("  {n:<w$}  {d}\n"));
    }
}

/// The full usage text, generated from [`SUBCOMMANDS`], [`SIDE_FLAGS`],
/// the harness's id list and the env-knob table ([`KNOBS`]) — nothing
/// hand-drifted.
fn usage() -> String {
    let own = |rows: &[(&str, &str)]| -> Vec<(String, String)> {
        rows.iter()
            .map(|&(n, d)| (n.to_string(), d.to_string()))
            .collect()
    };
    let env_rows: Vec<(&str, &str)> = KNOBS.iter().map(|k| (k.var, k.help)).collect();
    let mut out = String::from("usage: experiments [flags] <subcommand>\n\nsubcommands:\n");
    push_table(&mut out, &own(SUBCOMMANDS));
    out.push_str(&format!(
        "\nids: {}\nextras (not in `all`): {}\n\nside-output flags:\n",
        Harness::ALL_IDS.join(" "),
        EXTRA_IDS.join(" ")
    ));
    push_table(&mut out, &own(SIDE_FLAGS));
    out.push_str("\nenv:\n");
    push_table(&mut out, &own(&env_rows));
    out
}

/// Resolves the persistent store from flags and environment: `--no-store`
/// wins, then `--store DIR`, then `RFP_STORE` (`env_store`). An
/// unwritable `--store` exits 2 with a contextual message.
fn resolve_store(
    env_store: &Option<Arc<ExpStore>>,
    store_flag: Option<&str>,
    no_store: bool,
) -> Option<Arc<ExpStore>> {
    if no_store {
        return None;
    }
    match store_flag {
        Some(dir) => Some(ExpStore::open_named(dir.as_ref(), "--store").unwrap_or_else(|e| die(e))),
        None => env_store.clone(),
    }
}

fn main() {
    // Parse every env knob up front so a malformed value fails the
    // pipeline at its first command instead of mid-sweep. The store
    // directory is opened (and created) here too: an unwritable store
    // path must fail the sweep's first command, not its last.
    let env = RunEnv::from_process().unwrap_or_else(|e| die(e));
    let env_store = env.open_store().unwrap_or_else(|e| die(e));
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // The report generator is pure file folding — dispatch before any
    // simulation setup.
    if args.first().map(String::as_str) == Some("report") {
        let out = take_flag(&mut args, "--report-out").unwrap_or_else(|| {
            eprintln!(
                "usage: experiments report --report-out FILE [--metrics F] [--profile F] \
                 [--sampling-report F] [--sampling-error F] [--engine-trace F] \
                 [--telemetry F]"
            );
            std::process::exit(2);
        });
        let NonEmptyPath(out) = out
            .parse()
            .unwrap_or_else(|e| die(format!("--report-out {out:?} is not a valid value: {e}")));
        let inputs = ReportInputs {
            metrics: take_flag(&mut args, "--metrics").map(|p| read_or_die(&p)),
            profile: take_flag(&mut args, "--profile").map(|p| read_or_die(&p)),
            sampling_report: take_flag(&mut args, "--sampling-report").map(|p| read_or_die(&p)),
            sampling_error: take_flag(&mut args, "--sampling-error").map(|p| read_or_die(&p)),
            engine_trace: take_flag(&mut args, "--engine-trace").map(|p| read_or_die(&p)),
            telemetry: take_flag(&mut args, "--telemetry").map(|p| read_or_die(&p)),
        };
        if args.len() != 1 {
            die(format!("unexpected report argument(s): {:?}", &args[1..]));
        }
        match render_report(&inputs) {
            Err(e) => die(e),
            Ok(html) => {
                write_or_die(&out.display().to_string(), &html);
                eprintln!("wrote dashboard to {}", out.display());
                std::process::exit(0);
            }
        }
    }
    // Store maintenance is pure filesystem work — dispatch before any
    // simulation setup.
    if args.first().map(String::as_str) == Some("store") {
        let store_flag = take_flag(&mut args, "--store");
        let no_store = take_bare(&mut args, "--no-store");
        let Some(store) = resolve_store(&env_store, store_flag.as_deref(), no_store) else {
            die("no store configured (set RFP_STORE or pass --store DIR)")
        };
        match args.get(1).map(String::as_str) {
            Some("stats") if args.len() == 2 => {
                print!("{}", render_store_stats(&store));
                std::process::exit(0);
            }
            Some("gc") => {
                let max = take_flag(&mut args, "--max-bytes").unwrap_or_else(|| {
                    eprintln!("usage: experiments store gc --max-bytes N");
                    std::process::exit(2);
                });
                let max: u64 = max.parse().unwrap_or_else(|e| {
                    die(format!("--max-bytes {max:?} is not a valid value: {e}"))
                });
                if args.len() != 2 {
                    eprintln!("usage: experiments store gc --max-bytes N");
                    std::process::exit(2);
                }
                let (entries, bytes) = store.gc(max);
                println!("evicted {entries} entries ({bytes} bytes)");
                print!("{}", render_store_stats(&store));
                std::process::exit(0);
            }
            Some("clear") if args.len() == 2 => {
                let removed = store.clear();
                println!("removed {removed} entries");
                std::process::exit(0);
            }
            _ => {
                eprintln!("usage: experiments store stats | gc --max-bytes N | clear");
                std::process::exit(2);
            }
        }
    }
    // The sentinel subcommands are pure file comparison — dispatch
    // before any simulation setup.
    if args.first().map(String::as_str) == Some("diff") {
        let tolerances = take_flag(&mut args, "--tolerances").map(|p| read_or_die(&p));
        if args.len() != 3 {
            eprintln!(
                "usage: experiments diff [--tolerances FILE] <baseline.json> <candidate.json>"
            );
            std::process::exit(2);
        }
        let baseline = read_or_die(&args[1]);
        let candidate = read_or_die(&args[2]);
        match diff_metrics_with(&baseline, &candidate, tolerances.as_deref()) {
            Err(e) => die(e),
            Ok(out) => {
                println!("{}", out.render());
                std::process::exit(if out.clean() { 0 } else { 1 });
            }
        }
    }
    if args.first().map(String::as_str) == Some("sampling-error") {
        if args.len() != 3 {
            eprintln!("usage: experiments sampling-error <full.json> <sampled.json>");
            std::process::exit(2);
        }
        let full = read_or_die(&args[1]);
        let sampled = read_or_die(&args[2]);
        match sampling_error_report_json(&full, &sampled) {
            Err(e) => die(e),
            Ok(report) => {
                print!("{report}");
                std::process::exit(0);
            }
        }
    }
    if args.first().map(String::as_str) == Some("inspect") {
        let inspect_out = take_flag(&mut args, "--inspect-out");
        let konata_out = take_flag(&mut args, "--konata-out");
        if args.len() != 2 {
            eprintln!(
                "usage: experiments inspect [--inspect-out FILE] [--konata-out FILE] <workload>"
            );
            std::process::exit(2);
        }
        let len = env.trace_len.unwrap_or(DEFAULT_TRACE_LEN);
        let cfg = CoreConfig::tiger_lake().with_rfp();
        match inspect_workload(&args[1], &cfg, len, env.inspect_windows) {
            Err(e) => die(e),
            Ok(o) => {
                print!("{}", o.render());
                if let Some(file) = &inspect_out {
                    write_or_die(file, &o.to_json());
                    eprintln!("wrote inspect windows to {file}");
                }
                if let Some(file) = &konata_out {
                    write_or_die(file, &o.to_konata());
                    eprintln!("wrote Kanata 0004 log to {file} (load in the Konata viewer)");
                }
                std::process::exit(0);
            }
        }
    }
    let threads = take_count(&mut args, "--threads").unwrap_or(env.threads);
    let store_flag = take_flag(&mut args, "--store");
    let no_store = take_bare(&mut args, "--no-store");
    let trace_out = take_flag(&mut args, "--trace-out");
    let trace_workload =
        take_flag(&mut args, "--trace-workload").unwrap_or_else(|| "spec17_mcf".to_string());
    let metrics_out = take_flag(&mut args, "--metrics-out");
    let profile_out = take_flag(&mut args, "--profile-out");
    let collapsed_out = take_flag(&mut args, "--collapsed-out");
    let telemetry_out = take_flag(&mut args, "--telemetry-out");
    let sampling_out = take_flag(&mut args, "--sampling-report");
    // `--engine-trace-out FILE` overrides `RFP_ENGINE_TRACE`; both are
    // validated strictly (empty value exits 2).
    let engine_trace_out = match take_flag(&mut args, "--engine-trace-out") {
        Some(v) => {
            let NonEmptyPath(p) = v.parse().unwrap_or_else(|e| {
                die(format!(
                    "--engine-trace-out {v:?} is not a valid value: {e}"
                ))
            });
            Some(p)
        }
        None => env.engine_trace.clone(),
    };
    let side_outputs = trace_out.is_some()
        || metrics_out.is_some()
        || profile_out.is_some()
        || collapsed_out.is_some()
        || telemetry_out.is_some()
        || sampling_out.is_some()
        || engine_trace_out.is_some();
    if (args.is_empty() && !side_outputs) || args.iter().any(|a| a == "--help" || a == "-h") {
        eprint!("{}", usage());
        std::process::exit(if args.is_empty() && !side_outputs {
            2
        } else {
            0
        });
    }
    let len = env.trace_len.unwrap_or(DEFAULT_TRACE_LEN);
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        Harness::ALL_IDS.to_vec()
    } else {
        let mut ids = Vec::new();
        for a in &args {
            if Harness::ALL_IDS.contains(&a.as_str()) || EXTRA_IDS.contains(&a.as_str()) {
                ids.push(a.as_str());
            } else {
                die(format!("unknown experiment id: {a} (try --help)"));
            }
        }
        ids
    };

    // Arm the engine self-tracer only when an output was requested: a
    // disarmed pool costs one branch per span site and stdout stays
    // byte-identical either way.
    let tracer = engine_trace_out
        .as_ref()
        .map(|_| Arc::new(EngineTracer::new()));
    let pool = WarmPool::with_sim(env.warm, env.sim, len)
        .with_store(resolve_store(&env_store, store_flag.as_deref(), no_store))
        .with_tracer(tracer.clone());
    let mut h = Harness::with_pool(len, threads, pool);
    let t0 = std::time::Instant::now();
    // Fill the cache with every row the requested experiments and side
    // documents need in one work-stealing grid, so the whole machine
    // stays busy and the side documents' instrumented RFP row forks the
    // warm snapshots of the sweep's plain one.
    let rfp_cfg = CoreConfig::tiger_lake().with_rfp();
    let side_docs = metrics_out.is_some()
        || profile_out.is_some()
        || collapsed_out.is_some()
        || sampling_out.is_some();
    let side_obs: &[CoreConfig] = if side_docs {
        std::slice::from_ref(&rfp_cfg)
    } else {
        &[]
    };
    h.prefetch_with_obs(&ids, side_obs);
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            println!("{}", "=".repeat(78));
        }
        println!("[{id}]");
        println!("{}", h.run(id));
    }

    if let Some(file) = &metrics_out {
        write_or_die(file, &h.metrics_json(&rfp_cfg));
        eprintln!("wrote metrics histograms to {file}");
    }
    if let Some(file) = &profile_out {
        write_or_die(file, &h.profile_json(&rfp_cfg));
        eprintln!("wrote per-load-PC profile to {file}");
    }
    if let Some(file) = &collapsed_out {
        write_or_die(file, &h.profile_collapsed(&rfp_cfg));
        eprintln!("wrote collapsed stacks to {file} (feed to flamegraph.pl)");
    }
    if let Some(file) = &sampling_out {
        write_or_die(file, &h.sampling_json(&rfp_cfg));
        eprintln!("wrote per-workload sampling summary to {file}");
    }
    if let Some(dir) = &trace_out {
        let w = rfp_trace::by_name(&trace_workload)
            .unwrap_or_else(|| die(format!("unknown --trace-workload '{trace_workload}'")));
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(format!("mkdir {dir}: {e}")));
        let path = format!("{dir}/{}.trace.json", w.name);
        write_or_die(&path, &trace_workload_json(&rfp_cfg, &w, len));
        eprintln!("wrote pipeline trace to {path} (load in Perfetto or chrome://tracing)");
    }
    if let Some(file) = &telemetry_out {
        // Per-job rows plus one warm-pool summary line (and one store
        // summary when a store is configured), so CI can assert the
        // snapshot cache and the persistent store actually got hit.
        let mut out = telemetry_jsonl(h.job_telemetry());
        out.push_str(&h.warm_pool().stats().jsonl_line());
        if let Some(store) = h.warm_pool().store() {
            out.push_str(&store.stats().jsonl_line());
        }
        write_or_die(file, &out);
        eprintln!("wrote {} telemetry rows to {file}", h.job_telemetry().len());
    }
    if let (Some(path), Some(tracer)) = (&engine_trace_out, &tracer) {
        let pool_stats = h.warm_pool().stats();
        let store_stats = h.warm_pool().store().map(|s| s.stats());
        write_engine_trace(
            path,
            tracer,
            h.job_telemetry(),
            &pool_stats,
            store_stats.as_ref(),
        )
        .unwrap_or_else(|e| die(e));
        eprintln!(
            "wrote engine trace ({} spans) to {} (load in Perfetto or chrome://tracing)",
            tracer.spans().len(),
            path.display()
        );
    }

    let (uops, sim_secs) = h.simulated_totals();
    let wall = t0.elapsed().as_secs_f64();
    eprintln!(
        "ran {} experiment(s) at {} uops/workload on {} thread(s) in {:.1}s \
         ({:.1}M retired uops, {:.2}M uops/s wall, {:.1}x core-parallelism)",
        ids.len(),
        len,
        threads,
        wall,
        uops as f64 / 1e6,
        uops as f64 / wall / 1e6,
        if wall > 0.0 { sim_secs / wall } else { 0.0 },
    );
}
