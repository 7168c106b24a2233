//! End-to-end simulator throughput under each of the paper's feature
//! configurations (baseline, RFP, value prediction, oracle) — one bench
//! per headline experiment family, so `cargo bench` exercises every
//! table/figure code path — plus the engine benches: the calendar queue
//! against the old `BinaryHeap` event queue, and end-to-end uops/sec
//! through the work-stealing grid, written to `BENCH_engine.json`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rfp_bench::{default_threads, run_grid, update_bench_json, WarmMode, WarmPool};
use rfp_core::{
    simulate_workload, simulate_workload_probed, CalendarQueue, CoreConfig, OracleMode, VpMode,
};
use rfp_obs::{ChromeTraceSink, FlightRecorder, MetricsSink, NoopProbe, ProfileSink};
use rfp_predictors::{DlvpConfig, ValuePredictorConfig};

const LEN: u64 = 8_000;

fn configs() -> Vec<(&'static str, CoreConfig)> {
    let mut composite = CoreConfig::tiger_lake();
    composite.vp = VpMode::Composite(ValuePredictorConfig::default(), DlvpConfig::default());
    let mut fused = CoreConfig::tiger_lake().with_rfp();
    fused.vp = VpMode::Eves(ValuePredictorConfig::default());
    vec![
        ("baseline_fig2", CoreConfig::tiger_lake()),
        ("rfp_fig10", CoreConfig::tiger_lake().with_rfp()),
        (
            "oracle_l1_fig1",
            CoreConfig::tiger_lake().with_oracle(OracleMode::L1ToRf),
        ),
        ("baseline2x_fig12", CoreConfig::baseline_2x()),
        ("composite_vp_fig15", composite),
        ("vp_plus_rfp_fig15", fused),
    ]
}

fn bench_simulation(c: &mut Criterion) {
    let workload = rfp_trace::by_name("spec17_mcf").expect("in suite");
    let mut g = c.benchmark_group("simulate_8k_uops");
    g.sample_size(10);
    for (name, cfg) in configs() {
        g.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| black_box(simulate_workload(cfg, &workload, LEN).expect("valid")))
        });
    }
    g.finish();
}

fn bench_sensitivity_kernels(c: &mut Criterion) {
    // The Fig. 17/18 sweeps re-run the same kernel with different PT
    // shapes; benchmark the two extremes.
    let workload = rfp_trace::by_name("spec06_gcc").expect("in suite");
    let mut g = c.benchmark_group("pt_sweep_fig17_fig18");
    g.sample_size(10);
    for (name, entries, bits) in [("pt1k_conf1", 1024usize, 1u8), ("pt16k_conf4", 16384, 4)] {
        let mut cfg = CoreConfig::tiger_lake().with_rfp();
        if let Some(r) = cfg.rfp.as_mut() {
            r.table.entries = entries;
            r.table.confidence_bits = bits;
        }
        g.bench_function(name, |b| {
            b.iter(|| black_box(simulate_workload(&cfg, &workload, LEN).expect("valid")))
        });
    }
    g.finish();
}

/// Synthetic event stream shaped like the simulator's: mostly near-future
/// wakeups (1–8 cycles out), occasional far DRAM fills. Returns a
/// checksum so the work can't be optimised away.
fn drive_calendar(ops: u64) -> u64 {
    let mut q: CalendarQueue<u64> = CalendarQueue::new();
    let mut sum = 0u64;
    let mut now = 0u64;
    for i in 0..ops {
        let delta = if i % 97 == 0 { 300 } else { 1 + (i % 8) };
        q.push(now + delta, i);
        if i % 2 == 0 {
            now += 1;
            while let Some((_, v)) = q.pop_due(now) {
                sum = sum.wrapping_add(v);
            }
        }
    }
    while !q.is_empty() {
        now += 1;
        while let Some((_, v)) = q.pop_due(now) {
            sum = sum.wrapping_add(v);
        }
    }
    sum
}

/// The pre-calendar event queue: a min-`BinaryHeap` with an insertion
/// counter for FIFO tie-breaks — kept here as the bench reference.
fn drive_heap(ops: u64) -> u64 {
    let mut q: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
    let mut sum = 0u64;
    let mut now = 0u64;
    for i in 0..ops {
        let delta = if i % 97 == 0 { 300 } else { 1 + (i % 8) };
        // `i` doubles as the FIFO insertion counter (it's monotone).
        q.push(Reverse((now + delta, i, i)));
        if i % 2 == 0 {
            now += 1;
            while let Some(&Reverse((at, _, v))) = q.peek() {
                if at > now {
                    break;
                }
                q.pop();
                sum = sum.wrapping_add(v);
            }
        }
    }
    while let Some(Reverse((_, _, v))) = q.pop() {
        sum = sum.wrapping_add(v);
    }
    sum
}

/// The observability layer's cost contract: a `NoopProbe` run must match
/// the plain `simulate_workload` path (the probe monomorphizes away), and
/// the real sinks pay only for what they record.
fn bench_probe_overhead(c: &mut Criterion) {
    let workload = rfp_trace::by_name("spec17_mcf").expect("in suite");
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let mut g = c.benchmark_group("probe_overhead_8k_uops");
    g.sample_size(10);
    g.bench_function("uninstrumented", |b| {
        b.iter(|| black_box(simulate_workload(&cfg, &workload, LEN).expect("valid")))
    });
    g.bench_function("noop_probe", |b| {
        b.iter(|| {
            black_box(simulate_workload_probed(&cfg, &workload, LEN, NoopProbe).expect("valid"))
        })
    });
    g.bench_function("metrics_sink", |b| {
        b.iter(|| {
            black_box(
                simulate_workload_probed(&cfg, &workload, LEN, MetricsSink::new()).expect("valid"),
            )
        })
    });
    g.bench_function("profile_sink", |b| {
        b.iter(|| {
            black_box(
                simulate_workload_probed(&cfg, &workload, LEN, ProfileSink::new()).expect("valid"),
            )
        })
    });
    g.bench_function("chrome_trace_sink", |b| {
        b.iter(|| {
            black_box(
                simulate_workload_probed(
                    &cfg,
                    &workload,
                    LEN,
                    ChromeTraceSink::new(cfg.rob_entries),
                )
                .expect("valid"),
            )
        })
    });
    // Disarmed: the capture window sits past the end of the run, so the
    // recorder pays only its clock/cursor compares and the rename-writer
    // table — the steady-state cost `experiments inspect` rides on.
    g.bench_function("flight_recorder_disarmed", |b| {
        b.iter(|| {
            black_box(
                simulate_workload_probed(
                    &cfg,
                    &workload,
                    LEN,
                    FlightRecorder::new(&[(LEN * 10, LEN * 10 + 1)], 64),
                )
                .expect("valid"),
            )
        })
    });
    // Armed over the whole measured region: the worst case.
    g.bench_function("flight_recorder_armed", |b| {
        b.iter(|| {
            black_box(
                simulate_workload_probed(
                    &cfg,
                    &workload,
                    LEN,
                    FlightRecorder::new(&[(0, LEN)], LEN as usize + 64),
                )
                .expect("valid"),
            )
        })
    });
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    assert_eq!(drive_calendar(10_000), drive_heap(10_000));
    let mut g = c.benchmark_group("event_queue_20k_events");
    g.bench_function("binary_heap", |b| b.iter(|| black_box(drive_heap(20_000))));
    g.bench_function("calendar_queue", |b| {
        b.iter(|| black_box(drive_calendar(20_000)))
    });
    g.finish();
}

fn time_ns(f: impl Fn() -> u64) -> (f64, u64) {
    let t0 = Instant::now();
    let sum = f();
    (t0.elapsed().as_nanos() as f64, sum)
}

/// One-shot engine measurements merged into `BENCH_engine.json` at the
/// workspace root: event-queue ns/op for both implementations and
/// end-to-end uops/sec through the work-stealing grid at 1 thread vs
/// the machine's parallelism (skipped when the machine has one core —
/// comparing a 1-thread grid against itself says nothing).
fn bench_engine_json(_c: &mut Criterion) {
    const OPS: u64 = 200_000;
    let (heap_ns, a) = time_ns(|| drive_heap(OPS));
    let (cal_ns, b) = time_ns(|| drive_calendar(OPS));
    assert_eq!(a, b);

    let grid_len = 4_000;
    let cfg = [CoreConfig::tiger_lake().with_rfp()];
    let uops_of = |rows: &[Vec<rfp_stats::SimReport>]| -> u64 {
        rows.iter()
            .flatten()
            .map(|r| r.stats.total_retired_uops)
            .sum()
    };
    let threads = default_threads();
    let t0 = Instant::now();
    let grid = |threads| {
        run_grid(
            &WarmPool::new(WarmMode::Exact, grid_len),
            &cfg,
            threads,
            false,
        )
        .reports
    };
    let serial = grid(1);
    let serial_secs = t0.elapsed().as_secs_f64();
    let uops = uops_of(&serial);
    // The serial-vs-parallel comparison only means something with real
    // parallel hardware behind it.
    let parallel = (threads > 1).then(|| {
        let t1 = Instant::now();
        let parallel = grid(threads);
        let parallel_secs = t1.elapsed().as_secs_f64();
        assert_eq!(uops, uops_of(&parallel));
        parallel_secs
    });

    // Probe-overhead spot check: one-shot timings of the same workload
    // with no probe, the noop probe, and the two real sinks.
    let w = rfp_trace::by_name("spec17_mcf").expect("in suite");
    let probe_len = 20_000u64;
    let probe_cfg = CoreConfig::tiger_lake().with_rfp();
    let time_run = |f: &dyn Fn()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let plain_secs = time_run(&|| {
        simulate_workload(&probe_cfg, &w, probe_len).expect("valid");
    });
    let noop_secs = time_run(&|| {
        simulate_workload_probed(&probe_cfg, &w, probe_len, NoopProbe).expect("valid");
    });
    let metrics_secs = time_run(&|| {
        simulate_workload_probed(&probe_cfg, &w, probe_len, MetricsSink::new()).expect("valid");
    });
    let profile_secs = time_run(&|| {
        simulate_workload_probed(&probe_cfg, &w, probe_len, ProfileSink::new()).expect("valid");
    });
    let chrome_secs = time_run(&|| {
        simulate_workload_probed(
            &probe_cfg,
            &w,
            probe_len,
            ChromeTraceSink::new(probe_cfg.rob_entries),
        )
        .expect("valid");
    });
    // Flight recorder: re-measure the plain/noop pair alongside so the
    // "noop cost unchanged" claim in this section is apples-to-apples
    // within one run, then time the disarmed and fully-armed recorder.
    let fr_plain_secs = time_run(&|| {
        simulate_workload(&probe_cfg, &w, probe_len).expect("valid");
    });
    let fr_noop_secs = time_run(&|| {
        simulate_workload_probed(&probe_cfg, &w, probe_len, NoopProbe).expect("valid");
    });
    let fr_disarmed_secs = time_run(&|| {
        simulate_workload_probed(
            &probe_cfg,
            &w,
            probe_len,
            FlightRecorder::new(&[(probe_len * 10, probe_len * 10 + 1)], 64),
        )
        .expect("valid");
    });
    let fr_armed_secs = time_run(&|| {
        simulate_workload_probed(
            &probe_cfg,
            &w,
            probe_len,
            FlightRecorder::new(&[(0, probe_len)], probe_len as usize + 64),
        )
        .expect("valid");
    });

    let event_queue = format!(
        "{{\n    \"ops\": {OPS},\n    \"binary_heap_ns_per_op\": {:.2},\n    \"calendar_ns_per_op\": {:.2},\n    \"speedup\": {:.3}\n  }}",
        heap_ns / OPS as f64,
        cal_ns / OPS as f64,
        heap_ns / cal_ns,
    );
    let parallel_fields = match parallel {
        Some(parallel_secs) => format!(
            "\"parallel_uops_per_sec\": {:.0},\n    \"parallel_speedup\": {:.3}",
            uops as f64 / parallel_secs,
            serial_secs / parallel_secs,
        ),
        None => {
            "\"parallel_uops_per_sec\": null,\n    \"parallel_speedup\": null,\n    \"parallel_comparison\": \"n/a: one hardware thread available\"".to_string()
        }
    };
    let engine = format!(
        "{{\n    \"workloads\": {},\n    \"measured_uops\": {uops},\n    \"threads\": {threads},\n    \"serial_uops_per_sec\": {:.0},\n    {parallel_fields}\n  }}",
        serial.first().map_or(0, Vec::len),
        uops as f64 / serial_secs,
    );
    let probe = format!(
        "{{\n    \"uops\": {probe_len},\n    \"uninstrumented_secs\": {plain_secs:.6},\n    \"noop_probe_secs\": {noop_secs:.6},\n    \"metrics_sink_secs\": {metrics_secs:.6},\n    \"profile_sink_secs\": {profile_secs:.6},\n    \"chrome_trace_sink_secs\": {chrome_secs:.6}\n  }}",
    );
    let flight_recorder = format!(
        "{{\n    \"uops\": {probe_len},\n    \"uninstrumented_secs\": {fr_plain_secs:.6},\n    \"noop_probe_secs\": {fr_noop_secs:.6},\n    \"disarmed_secs\": {fr_disarmed_secs:.6},\n    \"armed_secs\": {fr_armed_secs:.6}\n  }}",
    );
    let path = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_engine.json"
    ));
    update_bench_json(
        path,
        &[
            ("event_queue", event_queue),
            ("engine", engine),
            ("probe", probe),
            ("flight_recorder", flight_recorder),
        ],
    )
    .unwrap_or_else(|e| {
        eprintln!("error: write {}: {e}", path.display());
        std::process::exit(2);
    });
    println!(
        "merged event_queue/engine/probe/flight_recorder sections into {}",
        path.display()
    );
}

criterion_group!(
    benches,
    bench_simulation,
    bench_sensitivity_kernels,
    bench_probe_overhead,
    bench_event_queue,
    bench_engine_json
);
criterion_main!(benches);
