//! Prints the composition of the 65-workload synthetic suite: static
//! program sizes, memory-pattern mixes and working-set classes — the
//! knobs that calibrate the reproduction (see DESIGN.md §8).
//!
//! ```text
//! cargo run --release -p rfp-bench --bin workloads [name]
//! ```
//!
//! With a workload name, `--trace-out DIR` additionally simulates it
//! under the RFP configuration (`RFP_TRACE_LEN` micro-ops, default
//! 120000) and writes a Perfetto/`chrome://tracing` pipeline +
//! prefetch-lifetime trace to `DIR/<name>.trace.json`; `--metrics-out
//! FILE` writes its latency histograms as JSON and `--profile-out FILE`
//! its per-load-PC attribution profile. The stdout description is
//! unchanged.
//!
//! Env: `RFP_TRACE_LEN=<uops>`. Every other `RFP_*` knob is parsed too
//! ([`RunEnv`]) and the store directory is opened, though
//! this bin runs no grid: a malformed value exits 2 so scripts that
//! export one for a whole pipeline can't half work.

use rfp_bench::{die, take_flag, write_or_die, RunEnv};
use rfp_stats::TextTable;
use rfp_trace::{AddrPattern, StaticKind, WorkingSetClass, Workload};

fn pattern_label(p: &AddrPattern) -> &'static str {
    match p {
        AddrPattern::Stride { .. } => "stride",
        AddrPattern::PhasedStride { .. } => "phased",
        AddrPattern::Pattern2D { .. } => "2d",
        AddrPattern::Constant => "const",
        AddrPattern::Chase => "chase",
        AddrPattern::Gather => "gather",
    }
}

fn ws_label(ws: WorkingSetClass) -> &'static str {
    match ws {
        WorkingSetClass::L1 => "L1",
        WorkingSetClass::L2 => "L2",
        WorkingSetClass::Llc => "LLC",
        WorkingSetClass::Dram => "DRAM",
    }
}

fn describe(w: &Workload) {
    let prog = w.program();
    println!(
        "{} ({}) — {} static uops, {} loads, {} stores, {} patterns",
        w.name,
        w.category.label(),
        prog.insts.len(),
        prog.static_loads(),
        prog.static_stores(),
        prog.patterns.len()
    );
    let mut by: std::collections::BTreeMap<(&str, &str), usize> = Default::default();
    for p in &prog.patterns {
        *by.entry((ws_label(p.ws), pattern_label(&p.addr)))
            .or_default() += 1;
    }
    for ((ws, pat), n) in by {
        println!("  {n:>3} x {ws:>4} {pat}");
    }
}

/// Simulates `w` for `len` uops under the RFP config with every
/// observability sink attached and writes whichever outputs were
/// requested.
fn observe(
    w: &Workload,
    len: u64,
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
    profile_out: Option<&str>,
) {
    use rfp_obs::{ChromeTraceSink, MetricsSink, ProfileSink, TeeProbe};
    let cfg = rfp_core::CoreConfig::tiger_lake().with_rfp();
    let tee = TeeProbe::new(
        TeeProbe::new(ChromeTraceSink::new(cfg.rob_entries), MetricsSink::new()),
        ProfileSink::new(),
    );
    let (_report, tee) =
        rfp_core::simulate_workload_probed(&cfg, w, len, tee).expect("valid config");
    if let Some(dir) = trace_out {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(format!("mkdir {dir}: {e}")));
        let path = format!("{dir}/{}.trace.json", w.name);
        write_or_die(&path, &tee.a.a.into_json());
        eprintln!("wrote pipeline trace to {path} (load in Perfetto or chrome://tracing)");
    }
    if let Some(file) = metrics_out {
        let json = format!(
            "{{\"workload\":\"{}\",\"len\":{len},\"metrics\":{}}}\n",
            rfp_types::json_escape(w.name),
            tee.a.b.into_metrics().to_json()
        );
        write_or_die(file, &json);
        eprintln!("wrote metrics histograms to {file}");
    }
    if let Some(file) = profile_out {
        let json = format!(
            "{{\"workload\":\"{}\",\"len\":{len},\"profile\":{}}}\n",
            rfp_types::json_escape(w.name),
            tee.b.into_report().to_json()
        );
        write_or_die(file, &json);
        eprintln!("wrote per-load-PC profile to {file}");
    }
}

fn main() {
    let env = RunEnv::from_process().unwrap_or_else(|e| die(e));
    env.open_store().unwrap_or_else(|e| die(e));
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = take_flag(&mut args, "--trace-out");
    let metrics_out = take_flag(&mut args, "--metrics-out");
    let profile_out = take_flag(&mut args, "--profile-out");
    let side_outputs = trace_out.is_some() || metrics_out.is_some() || profile_out.is_some();
    if let Some(name) = args.first() {
        match rfp_trace::by_name(name) {
            Some(w) => {
                describe(&w);
                if side_outputs {
                    observe(
                        &w,
                        env.trace_len.unwrap_or(rfp_bench::DEFAULT_TRACE_LEN),
                        trace_out.as_deref(),
                        metrics_out.as_deref(),
                        profile_out.as_deref(),
                    );
                }
            }
            None => die(format!("unknown workload '{name}'")),
        }
        return;
    }
    if side_outputs {
        die("--trace-out/--metrics-out/--profile-out need a workload name");
    }
    let mut t = TextTable::new(&[
        "workload",
        "category",
        "static uops",
        "loads",
        "stores",
        "patterns",
        "mispredict rate",
    ]);
    for w in rfp_trace::suite() {
        let prog = w.program();
        // Count memory instructions, not just patterns, so aliased loads
        // (which share a store's pattern) are visible.
        let loads = prog
            .insts
            .iter()
            .filter(|i| matches!(i.kind, StaticKind::Load { .. }))
            .count();
        t.row(&[
            w.name,
            w.category.label(),
            &prog.insts.len().to_string(),
            &loads.to_string(),
            &prog.static_stores().to_string(),
            &prog.patterns.len().to_string(),
            &format!("{:.3}", w.params.mispredict_rate),
        ]);
    }
    println!("{}", t.render());
    println!("(pass a workload name for its per-pattern breakdown)");
}
