//! Economics of the warm-state snapshot/fork engine: what a snapshot
//! costs to capture, what a fork costs to clone, and what the pool buys
//! end-to-end across the full `experiments all` config inventory —
//! merged into `BENCH_engine.json` under the `warm_state` and
//! `warm_fork` sections.

use std::collections::HashSet;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rfp_bench::{
    config_key, default_threads, run_grid, update_bench_json, Harness, WarmMode, WarmPool,
};
use rfp_core::{warm_up_workload, CoreConfig};

/// Trace length for the snapshot micro-costs (matches the simulator
/// bench's kernel length; warmup is the engine's len/2 rule).
const CAPTURE_LEN: u64 = 8_000;

/// Trace length for the end-to-end two-mode sweep. Long enough that the
/// warmup a fork skips dwarfs the fixed cost of cloning the warm
/// structures, short enough that four full-grid sweeps stay benchable.
const GRID_LEN: u64 = 32_000;

fn capture_inputs() -> (
    CoreConfig,
    rfp_trace::Workload,
    u64,
    Vec<rfp_trace::MicroOp>,
) {
    let w = rfp_trace::by_name("spec17_mcf").expect("in suite");
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let warmup = CAPTURE_LEN / 2;
    let trace = w.trace_vec(CAPTURE_LEN + warmup);
    (cfg, w, warmup, trace)
}

fn bench_warm_state(c: &mut Criterion) {
    let (cfg, w, warmup, trace) = capture_inputs();
    let mut g = c.benchmark_group("warm_state");
    g.sample_size(10);
    g.bench_function("capture_4k_warmup", |b| {
        b.iter(|| {
            black_box(
                warm_up_workload(&cfg, &w, warmup, trace.iter().cloned()).expect("valid config"),
            )
        })
    });
    let snap = warm_up_workload(&cfg, &w, warmup, trace.iter().cloned()).expect("valid config");
    g.bench_function("fork_clone", |b| b.iter(|| black_box(snap.clone())));
    g.finish();
}

/// Every distinct config the `experiments all` sweep runs, in plan order.
fn all_plan_configs() -> Vec<CoreConfig> {
    let mut seen = HashSet::new();
    Harness::ALL_IDS
        .iter()
        .flat_map(|id| Harness::plan(id))
        .filter(|c| seen.insert(config_key(c)))
        .collect()
}

/// One-shot measurements written into `BENCH_engine.json`: per-snapshot
/// capture/clone cost and bytes, then the headline `warm_fork` number —
/// wall time of the full config inventory under the `off` and `exact`
/// warm modes on this machine's worker count. The exact rows are
/// asserted byte-identical to the straight-through reference before
/// anything is written.
fn bench_warm_fork_json(_c: &mut Criterion) {
    // Snapshot micro-costs.
    let (cfg, w, warmup, trace) = capture_inputs();
    const CAPTURES: u32 = 10;
    let t0 = Instant::now();
    for _ in 0..CAPTURES {
        black_box(warm_up_workload(&cfg, &w, warmup, trace.iter().cloned()).expect("valid config"));
    }
    let capture_ns = t0.elapsed().as_nanos() as f64 / f64::from(CAPTURES);
    let snap = warm_up_workload(&cfg, &w, warmup, trace.iter().cloned()).expect("valid config");
    const CLONES: u32 = 100;
    let t1 = Instant::now();
    for _ in 0..CLONES {
        black_box(snap.clone());
    }
    let clone_ns = t1.elapsed().as_nanos() as f64 / f64::from(CLONES);
    let warm_state = format!(
        "{{\n    \"warmup_uops\": {warmup},\n    \"capture_ns\": {capture_ns:.0},\n    \"fork_clone_ns\": {clone_ns:.0},\n    \"snapshot_bytes\": {}\n  }}",
        snap.approx_bytes(),
    );

    // End-to-end: the deduped `experiments all` inventory, both modes.
    let configs = all_plan_configs();
    let threads = default_threads();
    let run_mode = |mode: WarmMode| {
        let pool = WarmPool::new(mode, GRID_LEN);
        let t = Instant::now();
        let out = run_grid(&pool, &configs, threads, false);
        (t.elapsed().as_secs_f64(), out, pool.stats())
    };
    // Two interleaved rounds per mode, min per mode — single-shot wall
    // times on a shared host drift by a few percent over the minutes
    // these sweeps take, and interleaving keeps that drift from landing
    // on one mode.
    let (off_a, off_out, _) = run_mode(WarmMode::Off);
    let (exact_a, exact_out, exact_stats) = run_mode(WarmMode::Exact);
    let (off_b, _, _) = run_mode(WarmMode::Off);
    let (exact_b, _, _) = run_mode(WarmMode::Exact);
    let off_secs = off_a.min(off_b);
    let exact_secs = exact_a.min(exact_b);

    // Exact mode is a pure performance feature: byte-identical output.
    for (off_row, exact_row) in off_out.reports.iter().zip(&exact_out.reports) {
        for (a, b) in off_row.iter().zip(exact_row) {
            assert_eq!(
                a.canonical_text(),
                b.canonical_text(),
                "exact fork diverged"
            );
            assert_eq!(a.stats, b.stats, "exact fork diverged");
        }
    }
    let arm_count = |out: &rfp_bench::GridOutcome, arm: &str| {
        out.telemetry.iter().filter(|t| t.warm == arm).count()
    };
    let jobs = off_out.telemetry.len();
    let warm_fork = format!(
        "{{\n    \"trace_len\": {GRID_LEN},\n    \"configs\": {},\n    \"workloads\": {},\n    \"jobs\": {jobs},\n    \"threads\": {threads},\n    \"timing\": \"min of 2 interleaved rounds (off, exact)\",\n    \"off_secs\": {off_secs:.3},\n    \"exact_secs\": {exact_secs:.3},\n    \"exact_speedup\": {:.3},\n    \"exact\": {{ \"forks\": {}, \"straight\": {}, \"snapshot_hits\": {}, \"snapshot_misses\": {} }}\n  }}",
        configs.len(),
        off_out.reports.first().map_or(0, Vec::len),
        off_secs / exact_secs,
        arm_count(&exact_out, "fork"),
        arm_count(&exact_out, "straight"),
        exact_stats.snapshot_hits,
        exact_stats.snapshot_misses,
    );

    let path = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_engine.json"
    ));
    update_bench_json(
        path,
        &[("warm_state", warm_state), ("warm_fork", warm_fork)],
    )
    .unwrap_or_else(|e| {
        eprintln!("error: write {}: {e}", path.display());
        std::process::exit(2);
    });
    println!(
        "merged warm_state/warm_fork sections into {} (off {off_secs:.1}s, exact {exact_secs:.1}s, speedup {:.2}x)",
        path.display(),
        off_secs / exact_secs,
    );
}

criterion_group!(benches, bench_warm_state, bench_warm_fork_json);
criterion_main!(benches);
