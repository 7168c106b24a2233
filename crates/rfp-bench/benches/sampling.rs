//! Economics of phase-sampled simulation: what a compiled trace costs to
//! build (vs. regenerating uops from the pattern program), what the arena
//! weighs, and the headline end-to-end number — wall time of the full
//! `experiments all` config inventory under `RFP_SIM_MODE=full` vs.
//! `=sample` at equal thread count — merged into `BENCH_engine.json`
//! under the `sampling` section together with the measured per-metric
//! extrapolation error bounds.

use std::collections::HashSet;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rfp_bench::{
    config_key, default_threads, run_grid, sampling_error_report_json, sampling_report_json,
    update_bench_json, Harness, SimMode, WarmMode, WarmPool, SAMPLE_INTERVAL_UOPS,
};
use rfp_core::CoreConfig;

/// Trace length for the end-to-end sweep. Twenty full sampling
/// intervals with zero ragged tail: long enough that re-simulating one
/// representative window per phase (plus its warm prefix) is a small
/// fraction of the measured region, short enough that the full-fidelity
/// reference sweep stays benchable.
const GRID_LEN: u64 = 20 * SAMPLE_INTERVAL_UOPS;

/// Every distinct config the `experiments all` sweep runs, in plan order.
fn all_plan_configs() -> Vec<CoreConfig> {
    let mut seen = HashSet::new();
    Harness::ALL_IDS
        .iter()
        .flat_map(|id| Harness::plan(id))
        .filter(|c| seen.insert(config_key(c)))
        .collect()
}

fn bench_compiled_trace(c: &mut Criterion) {
    let w = rfp_trace::by_name("spec17_mcf").expect("in suite");
    let warmup = GRID_LEN / 2;
    let total = GRID_LEN + warmup;
    let mut g = c.benchmark_group("compiled_trace");
    g.sample_size(10);
    g.bench_function("compile_20_intervals", |b| {
        b.iter(|| black_box(w.compiled(total, warmup, SAMPLE_INTERVAL_UOPS)))
    });
    g.bench_function("generate_20_intervals", |b| {
        b.iter(|| black_box(w.trace_vec(total)))
    });
    g.finish();
}

/// One-shot measurements written into `BENCH_engine.json`: compiled-trace
/// build cost per uop (vs. the pattern generator it replaces) and arena
/// weight, then the headline `sampling` numbers — wall time of the full
/// config inventory under full vs. sampled fidelity on this machine's
/// worker count, and the per-metric extrapolation error bounds measured
/// against the full-fidelity reference. Sampled rows are asserted to
/// extrapolate to exactly the measured length before anything is written.
fn bench_sampling_json(_c: &mut Criterion) {
    // Compiled-trace micro-costs for one representative workload.
    let w = rfp_trace::by_name("spec17_mcf").expect("in suite");
    let warmup = GRID_LEN / 2;
    let total = GRID_LEN + warmup;
    const BUILDS: u32 = 10;
    let t0 = Instant::now();
    for _ in 0..BUILDS {
        black_box(w.compiled(total, warmup, SAMPLE_INTERVAL_UOPS));
    }
    let build_ns = t0.elapsed().as_nanos() as f64 / f64::from(BUILDS);
    let t1 = Instant::now();
    for _ in 0..BUILDS {
        black_box(w.trace_vec(total));
    }
    let generate_ns = t1.elapsed().as_nanos() as f64 / f64::from(BUILDS);
    let compiled = w.compiled(total, warmup, SAMPLE_INTERVAL_UOPS);

    // End-to-end: the deduped `experiments all` inventory, one round per
    // fidelity at the same thread count. The margin the sampler wins by
    // dwarfs single-shot wall-time drift, so interleaved min-of-N rounds
    // (as in the warm_fork bench) would only slow the reference sweep.
    let configs = all_plan_configs();
    let threads = default_threads();
    let run_mode = |sim: SimMode| {
        let pool = WarmPool::with_sim(WarmMode::Exact, sim, GRID_LEN);
        let t = Instant::now();
        let out = run_grid(&pool, &configs, threads, false);
        (t.elapsed().as_secs_f64(), out, pool.stats())
    };
    let (full_secs, _full_out, _) = run_mode(SimMode::Full);
    let (sample_secs, sample_out, sample_stats) = run_mode(SimMode::Sample);

    // Phase weights partition the interval grid, so every sampled row
    // must extrapolate to exactly the measured length.
    for row in &sample_out.reports {
        for r in row {
            assert_eq!(r.stats.retired_uops, GRID_LEN, "bad extrapolation");
        }
    }
    let arm_count = |out: &rfp_bench::GridOutcome, arm: &str| {
        out.telemetry.iter().filter(|t| t.warm == arm).count()
    };

    // Per-metric extrapolation error for the RFP config over the whole
    // suite: full vs. sampled observability runs condensed by the same
    // relative-error formula the `experiments diff` gate uses.
    let rfp_cfg = CoreConfig::tiger_lake().with_rfp();
    let obs_mode = |sim: SimMode| {
        let pool = WarmPool::with_sim(WarmMode::Exact, sim, GRID_LEN);
        let mut out = run_grid(&pool, std::slice::from_ref(&rfp_cfg), threads, true);
        out.reports.pop().expect("one config in, one row out")
    };
    let full_doc = sampling_report_json(&rfp_cfg, GRID_LEN, &obs_mode(SimMode::Full));
    let sample_doc = sampling_report_json(&rfp_cfg, GRID_LEN, &obs_mode(SimMode::Sample));
    let error_bounds =
        sampling_error_report_json(&full_doc, &sample_doc).expect("well-formed reports");

    let jobs = sample_out.telemetry.len();
    let sampling = format!(
        "{{\n    \"trace_len\": {GRID_LEN},\n    \"interval_uops\": {SAMPLE_INTERVAL_UOPS},\n    \"configs\": {},\n    \"workloads\": {},\n    \"jobs\": {jobs},\n    \"threads\": {threads},\n    \"timing\": \"1 round per fidelity, exact warm mode, equal threads\",\n    \"full_secs\": {full_secs:.3},\n    \"sample_secs\": {sample_secs:.3},\n    \"speedup\": {:.3},\n    \"compiled_build_ns_per_uop\": {:.2},\n    \"generator_ns_per_uop\": {:.2},\n    \"arena_bytes_per_workload\": {},\n    \"sample\": {{ \"forks\": {}, \"transplants\": {}, \"degenerate_full\": {}, \"snapshot_misses\": {} }},\n    \"error_bounds\": {}\n  }}",
        configs.len(),
        sample_out.reports.first().map_or(0, Vec::len),
        full_secs / sample_secs,
        build_ns / total as f64,
        generate_ns / total as f64,
        compiled.arena_bytes(),
        arm_count(&sample_out, "sample-fork"),
        arm_count(&sample_out, "sample-transplant"),
        arm_count(&sample_out, "sample-full"),
        sample_stats.snapshot_misses,
        error_bounds.trim_end(),
    );

    let path = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_engine.json"
    ));
    update_bench_json(path, &[("sampling", sampling)]).unwrap_or_else(|e| {
        eprintln!("error: write {}: {e}", path.display());
        std::process::exit(2);
    });
    println!(
        "merged sampling section into {} (full {full_secs:.1}s, sample {sample_secs:.1}s, speedup {:.2}x)",
        path.display(),
        full_secs / sample_secs,
    );
}

criterion_group!(benches, bench_compiled_trace, bench_sampling_json);
criterion_main!(benches);
