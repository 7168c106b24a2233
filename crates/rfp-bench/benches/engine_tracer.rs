//! Cost of the engine self-tracer: per-span record/instant micro-costs,
//! and the end-to-end overhead of running a full grid sweep with the
//! tracer disarmed (the default — one branch per span site) and armed.
//! Merged into `BENCH_engine.json` under the `engine_tracer` section.
//! Byte-identity of the armed sweep against the disarmed reference is
//! asserted before anything is written: tracing is observation, never
//! perturbation.

use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rfp_bench::{
    default_threads, engine_metrics, engine_trace_json, run_grid, update_bench_json, GridOutcome,
    WarmMode, WarmPool,
};
use rfp_core::CoreConfig;
use rfp_obs::EngineTracer;

/// Trace length for the end-to-end sweeps (matches the store bench).
const GRID_LEN: u64 = 32_000;

/// Per-span micro-costs through the mutex + vec push path.
fn bench_span_record(c: &mut Criterion) {
    let tracer = EngineTracer::new();
    c.bench_function("tracer_instant", |b| {
        b.iter(|| {
            tracer.instant(
                "store-get",
                black_box("result|spec17_mcf|cfg0".to_string()),
                "hit",
                vec![("bytes", 512)],
                1,
            );
        });
    });
    let t0 = tracer.now_nanos();
    c.bench_function("tracer_record", |b| {
        b.iter(|| {
            tracer.record(
                "simulate",
                black_box("spec17_mcf|cfg0".to_string()),
                "fork",
                vec![("obs", 0)],
                1,
                t0,
            );
        });
    });
    c.bench_function("tracer_deterministic_text_10k", |b| {
        let t = EngineTracer::new();
        for i in 0..10_000u64 {
            t.instant(
                "claim",
                format!("w{}|cfg{}", i % 65, i % 4),
                "claimed",
                vec![("claim", i)],
                1,
            );
        }
        b.iter(|| black_box(t.deterministic_text().len()));
    });
}

/// End-to-end: the same two-config grid disarmed and armed, three
/// interleaved rounds each so thermal drift doesn't land on one arm.
fn bench_tracer_sweep(_c: &mut Criterion) {
    let configs = [
        CoreConfig::tiger_lake(),
        CoreConfig::tiger_lake().with_rfp(),
    ];
    let threads = default_threads();
    let run = |tracer: Option<Arc<EngineTracer>>| -> (f64, GridOutcome, WarmPool) {
        let pool = WarmPool::new(WarmMode::Exact, GRID_LEN).with_tracer(tracer);
        let t0 = Instant::now();
        let out = run_grid(&pool, &configs, threads, false);
        (t0.elapsed().as_secs_f64(), out, pool)
    };
    let (off_a, off_out, _) = run(None);
    let tracer = Arc::new(EngineTracer::new());
    let (on_a, on_out, on_pool) = run(Some(tracer.clone()));
    let (off_b, _, _) = run(None);
    let (on_b, _, _) = run(Some(Arc::new(EngineTracer::new())));
    let (off_c, _, _) = run(None);
    let (on_c, _, _) = run(Some(Arc::new(EngineTracer::new())));
    let off_secs = off_a.min(off_b).min(off_c);
    let on_secs = on_a.min(on_b).min(on_c);

    // Tracing must be a pure observer: byte-identical reports.
    for (off_row, row) in off_out.reports.iter().zip(&on_out.reports) {
        for (a, b) in off_row.iter().zip(row) {
            assert_eq!(a.canonical_text(), b.canonical_text(), "tracer perturbed");
            assert_eq!(a.stats, b.stats, "tracer perturbed");
        }
    }
    let spans = tracer.spans().len();
    assert!(spans > 0, "armed sweep must record spans");
    let metrics = engine_metrics(&tracer, &on_out.telemetry, &on_pool.stats(), None);
    let doc = engine_trace_json(&tracer, &metrics);

    let section = format!(
        "{{\n    \"trace_len\": {GRID_LEN},\n    \"configs\": {},\n    \"jobs\": {},\n    \"threads\": {threads},\n    \"timing\": \"min of 3 interleaved rounds\",\n    \"off_secs\": {off_secs:.3},\n    \"on_secs\": {on_secs:.3},\n    \"armed_overhead_frac\": {:.4},\n    \"spans\": {spans},\n    \"trace_doc_bytes\": {}\n  }}",
        configs.len(),
        on_out.telemetry.len(),
        (on_secs - off_secs) / off_secs,
        doc.len(),
    );
    let path = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_engine.json"
    ));
    update_bench_json(path, &[("engine_tracer", section)]).unwrap_or_else(|e| {
        eprintln!("error: write {}: {e}", path.display());
        std::process::exit(2);
    });
    println!(
        "merged engine_tracer section into {} (off {off_secs:.2}s, armed {on_secs:.2}s, overhead {:.1}%, {spans} spans)",
        path.display(),
        100.0 * (on_secs - off_secs) / off_secs,
    );
}

criterion_group!(benches, bench_span_record, bench_tracer_sweep);
criterion_main!(benches);
