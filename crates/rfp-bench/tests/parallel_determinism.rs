//! The work-stealing engine must be a pure performance feature: running
//! the suite on any number of threads yields *byte-identical* reports,
//! in the same order, as a plain serial loop over the suite.

use rfp_bench::{
    run_grid, run_suite_with_threads, warm_key, warm_projection, SimMode, WarmMode, WarmPool,
    SAMPLE_INTERVAL_UOPS,
};
use rfp_core::{simulate_workload, CoreConfig};
use rfp_stats::{CpiBucket, CpiReport, ObsMetrics, ProfileReport, SimReport};

const LEN: u64 = 3_000;

/// One grid row per config, every row with the same obs flag.
fn rows(configs: &[CoreConfig], obs: bool) -> Vec<(CoreConfig, bool)> {
    configs.iter().map(|c| (c.clone(), obs)).collect()
}

fn serial_reference(cfg: &CoreConfig) -> Vec<SimReport> {
    rfp_trace::suite()
        .iter()
        .map(|w| simulate_workload(cfg, w, LEN).expect("valid config"))
        .collect()
}

/// `configs`' suite rows through a fresh default pool (exact warm
/// sharing, full fidelity, no store), probed when `obs`.
fn grid(configs: &[CoreConfig], len: u64, threads: usize, obs: bool) -> Vec<Vec<SimReport>> {
    run_grid(
        &WarmPool::new(WarmMode::Exact, len),
        &rows(configs, obs),
        threads,
    )
    .reports
}

fn canonical_bytes(reports: &[SimReport]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in reports {
        out.extend_from_slice(r.canonical_text().as_bytes());
        out.push(b'\n');
    }
    out
}

#[test]
fn run_suite_is_byte_identical_at_any_thread_count() {
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let reference = serial_reference(&cfg);
    let reference_bytes = canonical_bytes(&reference);
    for threads in [1, 2, 5, 8] {
        let got = run_suite_with_threads(&cfg, LEN, threads);
        // Structural equality first (wall time is equality-transparent)…
        assert_eq!(got, reference, "threads={threads} diverged");
        // …then the stronger claim: the canonical serialisation is
        // byte-for-byte what the serial loop produces.
        assert_eq!(
            canonical_bytes(&got),
            reference_bytes,
            "threads={threads} canonical bytes diverged"
        );
    }
}

#[test]
fn obs_runs_are_byte_identical_at_any_thread_count() {
    // The instrumented grid must be as deterministic as the plain one:
    // histograms are per-job state, reduced into slots by grid position,
    // so canonical bytes (which include the obs JSON) cannot depend on
    // the thread count or on which worker ran which job.
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let reference = grid(std::slice::from_ref(&cfg), LEN, 1, true)
        .pop()
        .expect("one row");
    assert!(reference.iter().all(|r| r.obs.is_some()));
    // Canonical bytes include the CPI stack too, so the loop below also
    // proves probed CPI runs are thread-count invariant byte-for-byte.
    assert!(reference.iter().all(|r| r.cpi.is_some()));
    assert!(
        reference.iter().any(|r| r
            .obs
            .as_ref()
            .is_some_and(|m| m.rfp_complete_rel_issue.total() > 0)),
        "the suite must produce timeliness samples"
    );
    let reference_bytes = canonical_bytes(&reference);
    for threads in [2, 5, 8] {
        let got = grid(std::slice::from_ref(&cfg), LEN, threads, true)
            .pop()
            .expect("one row");
        assert_eq!(
            canonical_bytes(&got),
            reference_bytes,
            "threads={threads} obs canonical bytes diverged"
        );
    }
}

#[test]
fn merged_histograms_are_order_independent() {
    // Aggregating per-workload sinks must give byte-identical JSON no
    // matter the merge order — the property the work-stealing engine
    // relies on when per-thread results interleave arbitrarily.
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let reports = grid(std::slice::from_ref(&cfg), LEN, 4, true)
        .pop()
        .expect("one row");
    let mut forward = ObsMetrics::default();
    for r in &reports {
        forward.merge(r.obs.as_ref().expect("obs attached"));
    }
    let mut reverse = ObsMetrics::default();
    for r in reports.iter().rev() {
        reverse.merge(r.obs.as_ref().expect("obs attached"));
    }
    assert!(forward.load_use_latency.total() > 0);
    assert_eq!(forward.to_json(), reverse.to_json());
}

#[test]
fn cpi_stacks_conserve_and_merge_order_independently() {
    // The one-bucket-per-slot rule over the real tier-1 grid: for every
    // workload under both headline configs, the stack's slot total is
    // *exactly* `cycles * retire_width` and the retiring buckets count
    // exactly the retired uops. Then the engine's correctness property:
    // per-workload reports merge into the same aggregate in any order.
    let configs = [
        CoreConfig::tiger_lake(),
        CoreConfig::tiger_lake().with_rfp(),
    ];
    let rows = grid(&configs, LEN, 4, true);
    for (cfg, reports) in configs.iter().zip(&rows) {
        let width = cfg.retire_width as u64;
        for r in reports {
            let c = r.cpi.as_ref().expect("cpi attached");
            assert_eq!(
                c.stack.total(),
                r.stats.cycles * width,
                "{}: slots leaked or double-charged",
                r.workload
            );
            assert!(c.intervals_consistent(), "{}: interval drift", r.workload);
            // One retiring slot per retired uop — up to the warmup
            // boundary: uops retiring after the mid-cycle stats reset
            // count toward `retired_uops`, but the reset cycle itself
            // belongs to the discarded window, so at most `width - 1`
            // retires go unslotted.
            let retiring =
                c.stack.get(CpiBucket::Retiring) + c.stack.get(CpiBucket::RetiringRfpHidden);
            assert!(
                retiring <= r.stats.retired_uops && r.stats.retired_uops - retiring < width,
                "{}: retiring slots {retiring} vs retired uops {}",
                r.workload,
                r.stats.retired_uops
            );
        }
        let mut forward = CpiReport::default();
        for r in reports {
            forward.merge(r.cpi.as_ref().expect("cpi attached"));
        }
        let mut reverse = CpiReport::default();
        for r in reports.iter().rev() {
            reverse.merge(r.cpi.as_ref().expect("cpi attached"));
        }
        assert!(forward.stack.total() > 0);
        assert_eq!(forward, reverse);
        assert_eq!(forward.to_json(), reverse.to_json());
    }
}

#[test]
fn profiles_merge_order_independently_and_reconcile() {
    // The per-site profiler inherits the engine's merge contract: the
    // per-workload reports combine into one suite profile whose JSON and
    // collapsed stacks are byte-identical in any merge order, and whose
    // sums reconcile exactly with the aggregate counters (the tentpole
    // cross-check, here exercised over the real grid).
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let reports = grid(std::slice::from_ref(&cfg), LEN, 4, true)
        .pop()
        .expect("one row");
    assert!(reports.iter().all(|r| r.profile.is_some()));
    let mut forward = ProfileReport::default();
    for r in &reports {
        forward.merge(r.profile.as_ref().expect("profile attached"));
    }
    let mut reverse = ProfileReport::default();
    for r in reports.iter().rev() {
        reverse.merge(r.profile.as_ref().expect("profile attached"));
    }
    assert!(forward.site_count() > 0);
    assert_eq!(forward, reverse);
    assert_eq!(forward.to_json(), reverse.to_json());
    assert_eq!(forward.collapsed(), reverse.collapsed());
    // Reconciliation over the merged suite (panics on mismatch).
    let reconciled = rfp_bench::Harness::reconcile_profile(&reports);
    assert_eq!(reconciled, forward);
}

#[test]
fn profiles_are_identical_at_any_thread_count() {
    // Structural thread invariance of the profiler, at the counts the CI
    // matrix uses.
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let reference = grid(std::slice::from_ref(&cfg), LEN, 1, true)
        .pop()
        .expect("one row");
    for threads in [2, 8] {
        let got = grid(std::slice::from_ref(&cfg), LEN, threads, true)
            .pop()
            .expect("one row");
        for (a, b) in reference.iter().zip(&got) {
            assert_eq!(
                a.profile, b.profile,
                "{}: profile diverged at {threads} threads",
                a.workload
            );
        }
    }
}

#[test]
fn cpi_reports_are_identical_at_any_thread_count() {
    // Structural (not just textual) thread invariance of the CPI layer,
    // at the counts the CI matrix uses.
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let reference = grid(std::slice::from_ref(&cfg), LEN, 1, true)
        .pop()
        .expect("one row");
    for threads in [2, 8] {
        let got = grid(std::slice::from_ref(&cfg), LEN, threads, true)
            .pop()
            .expect("one row");
        for (a, b) in reference.iter().zip(&got) {
            assert_eq!(
                a.cpi, b.cpi,
                "{}: cpi diverged at {threads} threads",
                a.workload
            );
        }
    }
}

#[test]
fn obs_instrumentation_does_not_perturb_the_simulation() {
    // Same grid with and without sinks: every deterministic counter must
    // match exactly (the probe is observation, never back-pressure).
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let plain = grid(std::slice::from_ref(&cfg), LEN, 4, false)
        .pop()
        .expect("one row");
    let probed = grid(std::slice::from_ref(&cfg), LEN, 4, true)
        .pop()
        .expect("one row");
    for (p, o) in plain.iter().zip(&probed) {
        assert_eq!(
            p.stats, o.stats,
            "{} diverged under instrumentation",
            p.workload
        );
    }
}

#[test]
fn grid_rows_are_independent_of_sibling_configs() {
    // A config's row must not change because it shared a grid with other
    // configs (no cross-job state leaks through the engine).
    let base = CoreConfig::tiger_lake();
    let rfp = CoreConfig::tiger_lake().with_rfp();
    let alone = grid(std::slice::from_ref(&base), LEN, 4, false)
        .pop()
        .expect("one row");
    let paired = grid(&[rfp, base.clone()], LEN, 3, false);
    assert_eq!(paired[1], alone);
}

#[test]
fn warm_forks_are_byte_identical_to_straight_through() {
    // The non-negotiable invariant of the snapshot/fork engine: a run
    // forked from a shared warm snapshot is byte-identical to paying the
    // warmup itself — at every thread count, with and without probes.
    // The two configs differ only in a warmup-inert field (the seed is
    // unused without EPP), so they share one projection and the exact
    // pool serves both columns from a single snapshot per workload.
    let a = CoreConfig::tiger_lake().with_rfp();
    let mut b = a.clone();
    b.seed ^= 0x5eed;
    assert_eq!(warm_key(&a), warm_key(&b), "must share a projection");
    let configs = [a, b];
    let len = 1_500;
    for collect_obs in [false, true] {
        let reference = run_grid(
            &WarmPool::new(WarmMode::Off, len),
            &rows(&configs, collect_obs),
            1,
        );
        let reference_bytes: Vec<Vec<u8>> = reference
            .reports
            .iter()
            .map(|r| canonical_bytes(r))
            .collect();
        for threads in [1, 2, 8] {
            let pool = WarmPool::new(WarmMode::Exact, len);
            let got = run_grid(&pool, &rows(&configs, collect_obs), threads);
            assert!(
                got.telemetry.iter().all(|t| t.warm == "fork"),
                "threads={threads} obs={collect_obs}: every job must fork"
            );
            for (row, (g, r)) in got.reports.iter().zip(&reference_bytes).enumerate() {
                assert_eq!(
                    &canonical_bytes(g),
                    r,
                    "threads={threads} obs={collect_obs} row={row}: fork diverged"
                );
            }
            let stats = pool.stats();
            assert!(
                stats.snapshot_hits > 0 && stats.snapshot_misses > 0,
                "the pool must actually have shared snapshots"
            );
        }
    }
}

#[test]
fn sampled_runs_are_byte_identical_at_any_thread_count_and_probe_setting() {
    // Phase sampling is an approximation of full fidelity, but it must be
    // a *deterministic* approximation: the sampled grid's canonical bytes
    // cannot depend on the thread count, and attaching probes cannot
    // perturb the extrapolated counters. Two configs sharing one warm
    // twin exercise the transplant path; the ragged tail keeps the exact
    // tail-interval machinery in play.
    let configs = [
        CoreConfig::tiger_lake(),
        CoreConfig::tiger_lake().with_rfp(),
    ];
    let len = 2 * SAMPLE_INTERVAL_UOPS + 1024;
    let reference = run_grid(
        &WarmPool::with_sim(WarmMode::Exact, SimMode::Sample, len),
        &rows(&configs, false),
        1,
    );
    // The baseline is its own warm twin (resume path); the RFP config
    // transplants the twin's caches into a fresh core. Both sampled
    // paths are in play in this grid.
    for t in &reference.telemetry {
        assert!(
            t.warm == "sample-fork" || t.warm == "sample-transplant",
            "unexpected warm path {:?}",
            t.warm
        );
    }
    assert!(reference.telemetry.iter().any(|t| t.warm == "sample-fork"));
    assert!(reference
        .telemetry
        .iter()
        .any(|t| t.warm == "sample-transplant"));
    let reference_bytes: Vec<Vec<u8>> = reference
        .reports
        .iter()
        .map(|r| canonical_bytes(r))
        .collect();
    for threads in [2, 8] {
        for collect_obs in [false, true] {
            let got = run_grid(
                &WarmPool::with_sim(WarmMode::Exact, SimMode::Sample, len),
                &rows(&configs, collect_obs),
                threads,
            );
            for (row, (g, r)) in got.reports.iter().zip(&reference_bytes).enumerate() {
                if collect_obs {
                    // Probed reports carry extra payloads, so compare the
                    // deterministic counters structurally instead.
                    for (a, b) in g.iter().zip(&reference.reports[row]) {
                        assert_eq!(
                            a.stats, b.stats,
                            "threads={threads} row={row}: probes perturbed sampling"
                        );
                    }
                } else {
                    assert_eq!(
                        &canonical_bytes(g),
                        r,
                        "threads={threads} row={row}: sampled run diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn sampled_single_config_grid_forks_its_own_twin() {
    // The baseline config *is* its own warm twin, so the sampler resumes
    // its snapshot in place instead of transplanting — and that path must
    // be just as thread-invariant as the transplant path.
    let cfg = CoreConfig::tiger_lake();
    let len = 3 * SAMPLE_INTERVAL_UOPS;
    let reference = run_grid(
        &WarmPool::with_sim(WarmMode::Exact, SimMode::Sample, len),
        &rows(std::slice::from_ref(&cfg), false),
        1,
    );
    assert!(
        reference.telemetry.iter().all(|t| t.warm == "sample-fork"),
        "a config that is its own twin must stay on the in-place resume path"
    );
    let reference_bytes = canonical_bytes(&reference.reports[0]);
    for threads in [2, 8] {
        let got = run_grid(
            &WarmPool::with_sim(WarmMode::Exact, SimMode::Sample, len),
            &rows(std::slice::from_ref(&cfg), false),
            threads,
        );
        assert_eq!(
            canonical_bytes(&got.reports[0]),
            reference_bytes,
            "threads={threads}: sampled fork run diverged"
        );
    }
}

#[test]
fn engine_spans_are_deterministic_across_threads_and_warm_modes() {
    // The engine self-tracer's deterministic stratum — the sorted
    // (kind, key, outcome, fields) multiset — must be byte-identical at
    // every thread count, in every warm mode. Timing and lanes are
    // excluded by construction, so this holds even though span arrival
    // order and durations differ wildly between runs.
    use rfp_obs::EngineTracer;
    use std::sync::Arc;
    let a = CoreConfig::tiger_lake().with_rfp();
    let mut b = a.clone();
    b.seed ^= 0x5eed;
    let configs = [a, b];
    let len = 1_500;
    for mode in [WarmMode::Off, WarmMode::Exact] {
        let mut reference: Option<String> = None;
        for threads in [1, 2, 8] {
            let tracer = Arc::new(EngineTracer::new());
            let pool = WarmPool::new(mode, len).with_tracer(Some(tracer.clone()));
            let _ = run_grid(&pool, &rows(&configs, false), threads);
            assert_eq!(tracer.dropped(), 0);
            let text = tracer.deterministic_text();
            assert!(text.contains("claim "), "{mode:?}: no claim spans");
            assert!(text.contains("simulate "), "{mode:?}: no simulate spans");
            assert!(text.contains("reduce grid ok"), "{mode:?}: no reduce span");
            if mode != WarmMode::Off {
                assert!(
                    text.contains("trace-compile ") && text.contains("warm-capture "),
                    "{mode:?}: pool spans missing"
                );
            }
            match &reference {
                None => reference = Some(text),
                Some(r) => assert_eq!(&text, r, "{mode:?} threads={threads}: span text diverged"),
            }
        }
    }
}

#[test]
fn engine_trace_json_parses_and_report_renders_deterministically() {
    // End-to-end over a real grid: the Chrome-trace document must parse
    // under the repo's own JSON parser with the engineMetrics summary
    // embedded, and the HTML dashboard folding it must be
    // byte-deterministic with balanced structure.
    use rfp_bench::{engine_metrics, engine_trace_json, parse_json, render_report, ReportInputs};
    use rfp_obs::EngineTracer;
    use std::sync::Arc;
    // Two configs sharing warm projections: with a single config no
    // snapshot key repeats, so the planner sends every job down the
    // straight path and nothing is ever captured.
    let a = CoreConfig::tiger_lake().with_rfp();
    let mut b = a.clone();
    b.seed ^= 0x5eed;
    let configs = [a, b];
    let tracer = Arc::new(EngineTracer::new());
    let pool = WarmPool::new(WarmMode::Exact, LEN).with_tracer(Some(tracer.clone()));
    let outcome = run_grid(&pool, &rows(&configs, false), 4);
    let metrics = engine_metrics(&tracer, &outcome.telemetry, &pool.stats(), None);
    assert_eq!(metrics.jobs, outcome.telemetry.len() as u64);
    assert!(metrics.snapshot_misses > 0);
    let doc = engine_trace_json(&tracer, &metrics);
    let parsed = parse_json(&doc).expect("engine trace must be valid JSON");
    let flat = rfp_bench::flatten(&parsed);
    assert!(flat.keys().any(|k| k.starts_with("traceEvents")));
    assert!(flat.contains_key("otherData.engineMetrics.jobs"));
    assert!(flat.contains_key("otherData.engineMetrics.timing.workers"));
    let inputs = ReportInputs {
        engine_trace: Some(doc),
        telemetry: Some(rfp_bench::telemetry_jsonl(&outcome.telemetry)),
        ..Default::default()
    };
    let html = render_report(&inputs).expect("report renders");
    assert_eq!(html, render_report(&inputs).expect("report renders"));
    assert!(html.contains("<section id=\"engine\">"));
    assert_eq!(
        html.matches("<section").count(),
        html.matches("</section>").count()
    );
    assert!(html.contains(&format!("{} telemetry rows.", outcome.telemetry.len())));
}

mod persistent_store {
    //! The persistent experiment store must be invisible in the output:
    //! a sweep with the store off, cold (publishing) or warm (serving
    //! every job from disk) produces byte-identical canonical reports at
    //! every thread count and probe setting — and a vandalised store
    //! degrades to misses, never to wrong answers.

    use super::*;
    use rfp_bench::{ExpStore, Tier};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Unique scratch store root, removed on drop (pass or fail).
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            Scratch(std::env::temp_dir().join(format!(
                "rfp-store-it-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            )))
        }

        /// A fresh handle onto the same directory — zeroed in-memory
        /// counters, exactly like a new process reopening the store.
        fn open(&self) -> Arc<ExpStore> {
            Arc::new(ExpStore::open(&self.0).expect("scratch store opens"))
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn store_off_cold_and_warm_runs_are_byte_identical() {
        let scratch = Scratch::new("matrix");
        let configs = [
            CoreConfig::tiger_lake(),
            CoreConfig::tiger_lake().with_rfp(),
        ];
        let len = 1_500;
        for collect_obs in [false, true] {
            let reference = run_grid(
                &WarmPool::new(WarmMode::Exact, len),
                &rows(&configs, collect_obs),
                1,
            );
            assert!(
                reference.telemetry.iter().all(|t| t.store == "off"),
                "a pool without a store must tag jobs store=off"
            );
            let reference_bytes: Vec<Vec<u8>> = reference
                .reports
                .iter()
                .map(|r| canonical_bytes(r))
                .collect();
            let check = |reports: &[Vec<SimReport>], tag: &str| {
                for (row, (g, r)) in reports.iter().zip(&reference_bytes).enumerate() {
                    assert_eq!(
                        &canonical_bytes(g),
                        r,
                        "{tag} obs={collect_obs} row={row}: store changed the output"
                    );
                }
            };
            // Cold: every result is a miss, simulated and published.
            let pool = WarmPool::new(WarmMode::Exact, len).with_store(Some(scratch.open()));
            let cold = run_grid(&pool, &rows(&configs, collect_obs), 2);
            assert!(
                cold.telemetry
                    .iter()
                    .all(|t| t.store == "miss" && t.store_bytes_written > 0),
                "obs={collect_obs}: a cold run must publish every result"
            );
            check(&cold.reports, "cold");
            // Warm: every job is a disk read; nothing simulates, no
            // arena recompiles — at every thread count the CI matrix uses.
            for threads in [1, 2, 8] {
                let pool = WarmPool::new(WarmMode::Exact, len).with_store(Some(scratch.open()));
                let warm = run_grid(&pool, &rows(&configs, collect_obs), threads);
                assert!(
                    warm.telemetry
                        .iter()
                        .all(|t| t.store == "hit" && t.warm == "store"),
                    "threads={threads} obs={collect_obs}: warm run must serve from disk"
                );
                assert_eq!(pool.stats().trace_builds, 0, "no arena rebuilds on hits");
                check(&warm.reports, &format!("warm t{threads}"));
            }
            // Drop the result tier only: jobs re-simulate, but forked
            // from warm snapshots and compiled arenas *deserialized from
            // disk* — the end-to-end proof that a persisted snapshot
            // resumes bit-equal to the in-memory fork it was built from.
            let store = scratch.open();
            assert!(store.clear_tier(Tier::Result) > 0);
            let pool = WarmPool::new(WarmMode::Exact, len).with_store(Some(store.clone()));
            let resnap = run_grid(&pool, &rows(&configs, collect_obs), 2);
            assert!(
                resnap
                    .telemetry
                    .iter()
                    .all(|t| t.store == "miss" && t.warm == "fork"),
                "obs={collect_obs}: cleared results must re-simulate via forks"
            );
            let s = store.stats();
            assert!(s.hits > 0, "snapshot/arena tiers must serve the re-run");
            assert_eq!(s.corrupt, 0);
            assert_eq!(
                pool.stats().trace_builds,
                0,
                "compiled arenas must come from disk, not recompilation"
            );
            check(&resnap.reports, "persisted-snapshot");
        }
    }

    #[test]
    fn store_round_trips_unwarmed_and_sampled_grids() {
        // The result key embeds the warm and sim modes, so one directory
        // serves all four runs here without cross-talk — and the
        // byte-identity contract holds per mode.
        let scratch = Scratch::new("modes");
        let configs = [
            CoreConfig::tiger_lake(),
            CoreConfig::tiger_lake().with_rfp(),
        ];
        for (mode, sim, len) in [
            (WarmMode::Off, SimMode::Full, 1_500),
            (
                WarmMode::Exact,
                SimMode::Sample,
                2 * SAMPLE_INTERVAL_UOPS + 1024,
            ),
        ] {
            let reference = run_grid(
                &WarmPool::with_sim(mode, sim, len),
                &rows(&configs, false),
                1,
            );
            let reference_bytes: Vec<Vec<u8>> = reference
                .reports
                .iter()
                .map(|r| canonical_bytes(r))
                .collect();
            let cold_pool = WarmPool::with_sim(mode, sim, len).with_store(Some(scratch.open()));
            let cold = run_grid(&cold_pool, &rows(&configs, false), 2);
            assert!(cold.telemetry.iter().all(|t| t.store == "miss"));
            let warm_pool = WarmPool::with_sim(mode, sim, len).with_store(Some(scratch.open()));
            let warm = run_grid(&warm_pool, &rows(&configs, false), 8);
            assert!(
                warm.telemetry
                    .iter()
                    .all(|t| t.store == "hit" && t.warm == "store"),
                "{mode:?}/{sim:?}: second run must be all hits"
            );
            for (tag, outcome) in [("cold", &cold), ("warm", &warm)] {
                for (row, (g, r)) in outcome.reports.iter().zip(&reference_bytes).enumerate() {
                    assert_eq!(
                        &canonical_bytes(g),
                        r,
                        "{mode:?}/{sim:?} {tag} row={row} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn corrupted_store_entries_degrade_to_misses_with_identical_results() {
        let scratch = Scratch::new("corrupt");
        let configs = [CoreConfig::tiger_lake().with_rfp()];
        let len = 1_500;
        let reference = run_grid(
            &WarmPool::new(WarmMode::Exact, len),
            &rows(&configs, false),
            1,
        );
        let reference_bytes: Vec<Vec<u8>> = reference
            .reports
            .iter()
            .map(|r| canonical_bytes(r))
            .collect();
        let fill = WarmPool::new(WarmMode::Exact, len).with_store(Some(scratch.open()));
        let _ = run_grid(&fill, &rows(&configs, false), 2);
        // Vandalise three quarters of every tier — truncation, a body
        // bit-flip, and a version-byte flip — leaving every fourth entry
        // intact so hits and misses coexist in one run.
        let mut damaged = 0u64;
        for tier in Tier::ALL {
            let mut files: Vec<PathBuf> = std::fs::read_dir(scratch.0.join(tier.dir()))
                .expect("tier dir")
                .map(|e| e.expect("dir entry").path())
                .collect();
            files.sort();
            for (i, path) in files.iter().enumerate() {
                let mut bytes = std::fs::read(path).expect("entry readable");
                match i % 4 {
                    0 => continue, // intact → must still hit
                    1 => bytes.truncate(bytes.len() / 2),
                    2 => bytes[MAGIC_LEN] ^= 0xff, // version skew, stale checksum
                    _ => {
                        let mid = bytes.len() / 2;
                        bytes[mid] ^= 0x40;
                    }
                }
                std::fs::write(path, bytes).expect("vandalism writable");
                damaged += 1;
            }
        }
        assert!(damaged > 0, "the fill run must have populated the store");
        let store = scratch.open();
        let pool = WarmPool::new(WarmMode::Exact, len).with_store(Some(store.clone()));
        let got = run_grid(&pool, &rows(&configs, false), 8);
        for (row, (g, r)) in got.reports.iter().zip(&reference_bytes).enumerate() {
            assert_eq!(
                &canonical_bytes(g),
                r,
                "row={row}: corruption leaked into the results"
            );
        }
        let s = store.stats();
        assert!(s.corrupt > 0, "vandalised entries must be counted corrupt");
        assert!(s.hits > 0, "intact entries must still hit");
        assert!(got.telemetry.iter().any(|t| t.store == "hit"));
        assert!(got.telemetry.iter().any(|t| t.store == "miss"));
        // Misses republished over the vandalism, so the store healed: a
        // fresh pass is all hits again and clean of corruption.
        let healed_store = scratch.open();
        let healed_pool =
            WarmPool::new(WarmMode::Exact, len).with_store(Some(healed_store.clone()));
        let healed = run_grid(&healed_pool, &rows(&configs, false), 2);
        assert!(healed.telemetry.iter().all(|t| t.store == "hit"));
        assert_eq!(healed_store.stats().corrupt, 0);
        for (row, (g, r)) in healed.reports.iter().zip(&reference_bytes).enumerate() {
            assert_eq!(&canonical_bytes(g), r, "row={row}: healed run diverged");
        }
    }

    #[test]
    fn history_show_and_trend_are_byte_identical_across_threads_and_store_states() {
        // The run-history ledger records only the deterministic stratum
        // of a sweep, so `history show` and `trend` over records produced
        // at any thread count, with the store off, cold or warm, must
        // render byte-identical text. Host timings ride along in the
        // records but are quarantined out of everything rendered here.
        use rfp_bench::{render_history_show, Harness, HistoryLedger, RunRecord};
        use rfp_stats::{render_trend_table, TrendParams};
        let len = 1_500;
        let cfg = CoreConfig::tiger_lake().with_rfp();
        let record_text = |pool: WarmPool, threads: usize| -> (String, String) {
            let mut h = Harness::with_pool(len, threads, pool);
            let report = h.sampling_json(&cfg);
            // Two records from the same sweep in a fresh ledger: `show`
            // exercises the full canonical text, `trend` the gating math
            // (a flat two-point series must come out clean).
            let scratch = Scratch::new("hist-ledger");
            let ledger = HistoryLedger::new(scratch.open());
            for (label, ts) in [("run-a", "-"), ("run-b", "2026-08-09")] {
                let r = RunRecord::from_documents(label, ts, &report, None)
                    .expect("sweep report parses");
                ledger.add(r).expect("ledger append");
            }
            let view = ledger.load();
            let show = render_history_show(&view);
            let trend =
                render_trend_table(&rfp_bench::trend_rows(&view, &[], &TrendParams::default()));
            (show, trend)
        };
        // One shared store, pre-filled so the "warm" arm is all hits.
        let warm_scratch = Scratch::new("hist-warm");
        {
            let pool = WarmPool::new(WarmMode::Exact, len).with_store(Some(warm_scratch.open()));
            let mut h = Harness::with_pool(len, 2, pool);
            let _ = h.sampling_json(&cfg);
        }
        let mut reference: Option<(String, String)> = None;
        for threads in [1, 2, 8] {
            for state in ["off", "cold", "warm"] {
                let cold_scratch = Scratch::new("hist-cold");
                let pool = match state {
                    "off" => WarmPool::new(WarmMode::Exact, len),
                    "cold" => {
                        WarmPool::new(WarmMode::Exact, len).with_store(Some(cold_scratch.open()))
                    }
                    _ => WarmPool::new(WarmMode::Exact, len).with_store(Some(warm_scratch.open())),
                };
                let got = record_text(pool, threads);
                assert!(
                    got.0.contains("2 run(s)"),
                    "{state} t{threads}: both records must land"
                );
                assert!(
                    got.1.ends_with("no regressions\n"),
                    "{state} t{threads}: a flat series must gate clean"
                );
                match &reference {
                    None => reference = Some(got),
                    Some(r) => {
                        assert_eq!(&got, r, "{state} t{threads}: ledger rendering diverged")
                    }
                }
            }
        }
    }

    #[test]
    fn engine_spans_are_deterministic_across_store_states_and_threads() {
        // Store traffic spans key on content addresses, so their
        // deterministic stratum is thread-invariant for a fixed store
        // state: cold runs (fresh directory per thread count) agree with
        // each other, warm runs (one shared fill) agree with each other,
        // and the two strata differ (miss/publish vs hit).
        use rfp_obs::EngineTracer;
        let configs = [
            CoreConfig::tiger_lake(),
            CoreConfig::tiger_lake().with_rfp(),
        ];
        let len = 1_500;
        let run = |store: Arc<ExpStore>, threads: usize| -> String {
            let tracer = Arc::new(EngineTracer::new());
            let pool = WarmPool::new(WarmMode::Exact, len)
                .with_store(Some(store))
                .with_tracer(Some(tracer.clone()));
            let _ = run_grid(&pool, &rows(&configs, false), threads);
            tracer.deterministic_text()
        };
        let mut cold_ref: Option<String> = None;
        for threads in [1, 2, 8] {
            let scratch = Scratch::new(&format!("span-cold-t{threads}"));
            let text = run(scratch.open(), threads);
            assert!(text.contains("store-get result|"));
            assert!(text.contains("store-put result|"));
            assert!(text.contains("store-get warm|"));
            assert!(text.contains("store-get trace|"));
            match &cold_ref {
                None => cold_ref = Some(text),
                Some(r) => assert_eq!(&text, r, "cold threads={threads} diverged"),
            }
        }
        let scratch = Scratch::new("span-warm");
        {
            let pool = WarmPool::new(WarmMode::Exact, len).with_store(Some(scratch.open()));
            let _ = run_grid(&pool, &rows(&configs, false), 2);
        }
        let mut warm_ref: Option<String> = None;
        for threads in [1, 2, 8] {
            let text = run(scratch.open(), threads);
            assert!(text.contains(" hit "), "warm run must hit the store");
            match &warm_ref {
                None => warm_ref = Some(text),
                Some(r) => assert_eq!(&text, r, "warm threads={threads} diverged"),
            }
        }
        assert_ne!(cold_ref, warm_ref, "cold and warm strata must differ");
    }

    /// Byte offset of the schema-version word in an entry (after the
    /// magic), for the version-skew vandalism arm.
    const MAGIC_LEN: usize = 8;
}

mod compiled_trace_fidelity {
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The compiled arena is a pure pre-resolution of the pattern
        /// generator: for any workload in the suite, any seed override
        /// and any length, the uop stream must be identical op for op.
        #[test]
        fn compiled_arena_matches_the_generator(
            wi in 0usize..65,
            seed in any::<u64>(),
            len in 1u64..6000,
        ) {
            let suite = rfp_trace::suite();
            prop_assume!(wi < suite.len());
            let mut w = suite[wi].clone();
            w.seed = seed;
            let compiled = w.compiled(len, len / 2, 1024);
            prop_assert_eq!(compiled.ops(), &w.trace_vec(len)[..]);
        }
    }
}

#[test]
fn compiled_arena_matches_the_generator_for_every_suite_workload() {
    // The proptest above samples; this nails the exact shipped suite at
    // its shipped seeds, every family, byte for byte.
    for w in rfp_trace::suite() {
        let len = 4096;
        let compiled = w.compiled(len, len / 2, SAMPLE_INTERVAL_UOPS);
        assert_eq!(
            compiled.ops(),
            &w.trace_vec(len)[..],
            "{}: compiled arena diverged from the generator",
            w.name
        );
    }
}

#[test]
fn warmup_relevant_fields_change_the_snapshot_key() {
    // Negative guard on the projection rule: any field that can shape
    // warm state must survive into the snapshot key. If a refactor
    // accidentally normalizes one of these, two configs that warm up
    // differently would silently share a snapshot.
    let base = CoreConfig::tiger_lake().with_rfp();
    let key = warm_key(&base);
    let mut l1 = base.clone();
    l1.mem.l1.size_bytes *= 2;
    let mut lat = base.clone();
    lat.mem.l1.latency += 1;
    let mut rob = base.clone();
    rob.rob_entries += 16;
    let mut bm = base.clone();
    bm.branch_mode = rfp_core::BranchMode::Gshare;
    let mut pf = base.clone();
    pf.l1_ip_prefetcher = false;
    let mut pt = base.clone();
    if let Some(r) = pt.rfp.as_mut() {
        r.table.entries *= 2;
    }
    for (name, cfg) in [
        ("L1 size", &l1),
        ("L1 latency", &lat),
        ("ROB entries", &rob),
        ("branch mode", &bm),
        ("L1 IP prefetcher", &pf),
        ("PT entries", &pt),
    ] {
        assert_ne!(warm_key(cfg), key, "{name} shapes warmup and must re-key");
    }
}

#[test]
fn projection_normalizes_only_provably_inert_fields() {
    let base = CoreConfig::tiger_lake().with_rfp();
    let key = warm_key(&base);
    // Inert under the base config (VP off, critical_only off): the EPP
    // false-positive rate, the criticality threshold, and the VP filter.
    let mut fp = base.clone();
    fp.epp_false_positive_rate = 0.5;
    let mut th = base.clone();
    if let Some(r) = th.rfp.as_mut() {
        r.criticality_threshold = 7;
    }
    let mut vf = base.clone();
    if let Some(r) = vf.rfp.as_mut() {
        r.vp_filter = false;
    }
    for (name, cfg) in [
        ("EPP fp rate", &fp),
        ("crit threshold", &th),
        ("vp filter", &vf),
    ] {
        assert_eq!(
            warm_key(cfg),
            key,
            "{name} is inert here and must not re-key"
        );
    }
    // …but live as soon as the gating feature is on.
    let mut crit = base.clone();
    if let Some(r) = crit.rfp.as_mut() {
        r.critical_only = true;
        r.criticality_threshold = 3;
    }
    let mut crit7 = crit.clone();
    if let Some(r) = crit7.rfp.as_mut() {
        r.criticality_threshold = 7;
    }
    assert_ne!(
        warm_key(&crit),
        warm_key(&crit7),
        "threshold is live under critical-only targeting"
    );
    // Projection is idempotent and otherwise lossless.
    let p = warm_projection(&base);
    assert_eq!(warm_projection(&p), p);
    assert_eq!(p.rob_entries, base.rob_entries);
    assert_eq!(p.mem, base.mem);
}

#[test]
fn anomaly_window_selection_is_identical_across_threads_and_probes() {
    // The flight recorder is armed by windows picked from the CPI
    // interval series; that selection must be byte-identical no matter
    // how many threads produced the series or which probe configuration
    // ran alongside it — otherwise `experiments inspect` would record
    // different uops on different machines.
    // The detector needs >= 2 active 8192-uop intervals, so this test
    // runs longer traces than the rest of the file.
    const INSPECT_LEN: u64 = 20_000;
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let suite = rfp_trace::suite();
    let select = |reports: &[SimReport]| -> String {
        reports
            .iter()
            .map(|r| {
                let cpi = r.cpi.as_ref().expect("cpi attached");
                format!(
                    "{}: {:?}\n",
                    r.workload,
                    rfp_stats::detect_anomalies(cpi, r.stats.retired_uops, 4)
                )
            })
            .collect()
    };
    let reference = select(
        &grid(std::slice::from_ref(&cfg), INSPECT_LEN, 1, true)
            .pop()
            .expect("one row"),
    );
    assert!(
        reference.contains("AnomalyWindow"),
        "the suite must yield at least one anomalous window:\n{reference}"
    );
    for threads in [2, 8] {
        let got = select(
            &grid(std::slice::from_ref(&cfg), INSPECT_LEN, threads, true)
                .pop()
                .expect("one row"),
        );
        assert_eq!(got, reference, "threads={threads} selection diverged");
    }
    // Probe-configuration independence: the same windows fall out of a
    // bare CpiStackSink fork (the `inspect` pass-1 path, no tee'd
    // metrics/profile sinks) as out of the full obs grid.
    let pool = WarmPool::new(WarmMode::Exact, INSPECT_LEN);
    let lone: String = suite
        .iter()
        .enumerate()
        .map(|(wi, w)| {
            let (stats, sink) = pool.fork_probed(&cfg, &suite, wi, rfp_obs::CpiStackSink::new());
            format!(
                "{}: {:?}\n",
                w.name,
                rfp_stats::detect_anomalies(&sink.into_report(), stats.retired_uops, 4)
            )
        })
        .collect();
    assert_eq!(lone, reference, "probe configuration changed the selection");
}

#[test]
fn flight_recorder_does_not_perturb_the_simulation() {
    // Recorder armed over the whole measured region vs no probe at all:
    // every deterministic counter must match (the recorder is a sink,
    // never back-pressure), and the capture itself must be intact.
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let suite = rfp_trace::suite();
    let pool = WarmPool::new(WarmMode::Exact, LEN);
    for wi in [0, 17, 42] {
        let w = &suite[wi];
        let plain = simulate_workload(&cfg, w, LEN).expect("valid config");
        let rec = rfp_obs::FlightRecorder::new(&[(0, LEN)], LEN as usize + 64);
        let (stats, rec) = pool.fork_probed(&cfg, &suite, wi, rec);
        assert_eq!(
            stats, plain.stats,
            "{} diverged under the flight recorder",
            w.name
        );
        assert_eq!(rec.evicted(), 0, "ring sized for the whole region");
        let records = rec.into_records();
        assert!(!records.is_empty(), "{} captured nothing", w.name);
        assert!(
            records.windows(2).all(|p| p[0].seq < p[1].seq),
            "records must stay in sequence order"
        );
    }
}

#[test]
fn flight_recorder_ring_wraps_without_corruption_on_a_real_run() {
    // Tiny ring on a full workload: old records evict, survivors keep
    // coherent lifecycles (alloc <= issue <= complete <= retire), and the
    // simulation still doesn't notice the recorder.
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let suite = rfp_trace::suite();
    let pool = WarmPool::new(WarmMode::Exact, LEN);
    let cap = 64;
    let rec = rfp_obs::FlightRecorder::new(&[(0, LEN)], cap);
    let plain = simulate_workload(&cfg, &suite[0], LEN).expect("valid config");
    let (stats, rec) = pool.fork_probed(&cfg, &suite, 0, rec);
    assert_eq!(stats, plain.stats, "tiny ring perturbed the run");
    assert!(
        rec.evicted() > 0,
        "the window must overflow a 64-entry ring"
    );
    let records = rec.into_records();
    assert_eq!(records.len(), cap, "ring stays exactly at capacity");
    for r in &records {
        assert!(r.fetch <= r.alloc, "fetch after alloc: {r:?}");
        if let (Some(i), Some(c)) = (r.issue, r.complete) {
            assert!(r.alloc <= i && i <= c, "stage order corrupted: {r:?}");
        }
        if let (Some(c), Some(ret)) = (r.complete, r.retire) {
            assert!(c <= ret, "retire before complete: {r:?}");
        }
    }
}
