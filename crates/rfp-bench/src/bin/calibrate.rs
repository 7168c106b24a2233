//! Prints the headline calibration aggregates against the paper's values —
//! the quickest way to see whether a change to the workload generator or
//! the core model drifted the reproduction.
//!
//! ```text
//! cargo run --release -p rfp-bench --bin calibrate [len] [--threads N]
//! ```
//!
//! Observability outputs (side files; stdout is unchanged):
//! `--metrics-out FILE` writes the RFP row's per-workload latency
//! histograms (JSON), `--profile-out FILE` its per-load-PC attribution
//! profile (JSON), `--trace-out DIR` (with `--trace-workload W`,
//! default `spec17_mcf`) writes a Perfetto pipeline trace,
//! `--telemetry-out FILE` writes per-job engine telemetry (JSONL), and
//! `--engine-trace-out FILE` (or `RFP_ENGINE_TRACE=<path>`) writes the
//! engine's own span trace (Chrome JSON with an `engineMetrics`
//! summary).
//!
//! Env: `RFP_TRACE_LEN=<uops>` (the positional `len` wins, under the
//! same rule: an integer >= 1), `RFP_THREADS=<n>`,
//! `RFP_WARM_MODE=off|exact`, `RFP_SIM_MODE=full|sample` (phase-sampled
//! simulation — approximate, see `experiments sampling-error`),
//! `RFP_STORE=<dir>` and `RFP_ENGINE_TRACE=<path>`. Every `RFP_*` knob is
//! parsed up front ([`RunEnv`]), the ones this bin does not use included:
//! a malformed value exits 2 instead of silently falling back to the
//! default, so a typo'd pipeline fails at its first command.

use std::sync::Arc;

use rfp_bench::{
    die, metrics_reports_json, profile_reports_json, run_grid, take_count, take_flag,
    telemetry_jsonl, trace_workload_json, write_engine_trace, write_or_die, NonEmptyPath, RunEnv,
    WarmPool,
};
use rfp_core::{CoreConfig, OracleMode};
use rfp_obs::EngineTracer;
use rfp_stats::{geomean_speedup, mean_frac};

fn main() {
    let env = RunEnv::from_process().unwrap_or_else(|e| die(e));
    let store = env.open_store().unwrap_or_else(|e| die(e));
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = take_count(&mut args, "--threads").unwrap_or(env.threads);
    let trace_out = take_flag(&mut args, "--trace-out");
    let trace_workload =
        take_flag(&mut args, "--trace-workload").unwrap_or_else(|| "spec17_mcf".to_string());
    let metrics_out = take_flag(&mut args, "--metrics-out");
    let profile_out = take_flag(&mut args, "--profile-out");
    let telemetry_out = take_flag(&mut args, "--telemetry-out");
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
    // Positional length, under the `RFP_TRACE_LEN` rule — a typo like
    // `100_000`, or a zero-length sweep, must not run. `RFP_TRACE_LEN`
    // applies when no positional length is given.
    let len: u64 = match args.first() {
        Some(s) => RunEnv::len_arg(s).unwrap_or_else(|e| die(e)),
        None => env.trace_len.unwrap_or(100_000),
    };
    let t0 = std::time::Instant::now();
    // All four configurations go into one work-stealing grid so the
    // slowest (oracle) rows don't serialise behind the cheap baseline.
    // Metrics sinks are attached only when histograms were asked for —
    // the aggregates printed below come from the same counters either way.
    let rfp_cfg = CoreConfig::tiger_lake().with_rfp();
    let obs = metrics_out.is_some() || profile_out.is_some();
    let configs = [
        CoreConfig::tiger_lake(),
        rfp_cfg.clone(),
        CoreConfig::tiger_lake().with_oracle(OracleMode::L1ToRf),
        CoreConfig::tiger_lake().with_oracle(OracleMode::MemToLlc),
    ]
    .map(|c| (c, obs));
    // The engine self-tracer is armed only when a trace was requested.
    let tracer = engine_trace_out
        .as_ref()
        .map(|_| Arc::new(EngineTracer::new()));
    let pool = WarmPool::with_sim(env.warm, env.sim, len)
        .with_store(store)
        .with_tracer(tracer.clone());
    let outcome = run_grid(&pool, &configs, threads);
    let mut rows = outcome.reports.into_iter();
    let (base, rfp, o_l1, o_mem) = (
        rows.next().expect("base row"),
        rows.next().expect("rfp row"),
        rows.next().expect("oracle L1 row"),
        rows.next().expect("oracle mem row"),
    );
    eprintln!(
        "4 configs x {} workloads on {} thread(s) in {:.1}s",
        base.len(),
        threads,
        t0.elapsed().as_secs_f32()
    );

    if let Some(file) = &metrics_out {
        write_or_die(file, &metrics_reports_json(&rfp_cfg, len, &rfp));
        eprintln!("wrote metrics histograms to {file}");
    }
    if let Some(file) = &profile_out {
        write_or_die(file, &profile_reports_json(&rfp_cfg, len, &rfp));
        eprintln!("wrote per-load-PC profile to {file}");
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
        write_or_die(file, &telemetry_jsonl(&outcome.telemetry));
        eprintln!("wrote {} telemetry rows to {file}", outcome.telemetry.len());
    }
    if let (Some(path), Some(tracer)) = (&engine_trace_out, &tracer) {
        let pool_stats = pool.stats();
        let store_stats = pool.store().map(|s| s.stats());
        write_engine_trace(
            path,
            tracer,
            &outcome.telemetry,
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

    let gs = |n: &[rfp_stats::SimReport]| geomean_speedup(&base, n).unwrap_or(1.0);
    println!(
        "mean L1 hit      = {:.3} (paper 0.928)",
        mean_frac(&base, |r| r.l1_hit_frac())
    );
    println!(
        "mean ready@alloc = {:.3} (paper 0.37)",
        mean_frac(&base, |r| r.ready_at_alloc_frac())
    );
    println!(
        "mean base IPC    = {:.3}",
        base.iter().map(|r| r.ipc()).sum::<f64>() / base.len().max(1) as f64
    );
    println!("oracle L1->RF    = {:.4} (paper 1.090)", gs(&o_l1));
    println!("oracle Mem->LLC  = {:.4} (paper 1.133)", gs(&o_mem));
    println!("RFP speedup      = {:.4} (paper 1.031)", gs(&rfp));
    println!(
        "RFP injected     = {:.3} (paper 0.72)",
        mean_frac(&rfp, |r| r.injected_frac())
    );
    println!(
        "RFP executed     = {:.3} (paper 0.48)",
        mean_frac(&rfp, |r| r.executed_frac())
    );
    println!(
        "RFP coverage     = {:.3} (paper 0.434)",
        mean_frac(&rfp, |r| r.coverage())
    );
    println!(
        "RFP wrong        = {:.3} (paper 0.05)",
        mean_frac(&rfp, |r| r.wrong_frac())
    );
    println!(
        "RFP fully hidden = {:.3} (paper 0.342)",
        mean_frac(&rfp, |r| r.fully_hidden_frac())
    );
}
