//! The accuracy contract of phase-sampled simulation: for **every**
//! workload in the suite, the sampled IPC, prefetch coverage, cycle
//! count and CPI-bucket totals must stay within the tolerances committed
//! in `baselines/sampling_tolerances.json` of the full-fidelity run —
//! the same overlay file the CI sampling gate feeds to
//! `experiments diff`, so this test and the gate cannot drift apart.

use rfp_bench::{
    diff_metrics_with, run_grid, sampling_error_report_json, sampling_report_json, SimMode,
    WarmMode, WarmPool, SAMPLE_INTERVAL_UOPS,
};
use rfp_core::CoreConfig;
use rfp_stats::SimReport;

/// Three full sampling intervals: enough for the clusterer to have real
/// choices to make, small enough that the full-fidelity reference stays
/// test-sized.
const LEN: u64 = 3 * SAMPLE_INTERVAL_UOPS;

const TOLERANCES_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../baselines/sampling_tolerances.json"
);

fn rfp_row(sim: SimMode) -> Vec<SimReport> {
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let pool = WarmPool::with_sim(WarmMode::Exact, sim, LEN);
    run_grid(&pool, &[(cfg, true)], 4)
        .reports
        .pop()
        .expect("one config in, one row out")
}

#[test]
fn sampled_metrics_stay_within_committed_tolerances_for_every_workload() {
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let full = sampling_report_json(&cfg, LEN, &rfp_row(SimMode::Full));
    let sampled = sampling_report_json(&cfg, LEN, &rfp_row(SimMode::Sample));

    // Whole-suite coverage: one row per workload in both documents.
    let n = rfp_trace::suite().len();
    assert_eq!(full.matches("\"workload\":").count(), n);
    assert_eq!(sampled.matches("\"workload\":").count(), n);

    // The committed tolerance overlay is the single source of truth for
    // "close enough" — shared verbatim with the CI sampling gate.
    let tolerances = std::fs::read_to_string(TOLERANCES_PATH)
        .unwrap_or_else(|e| panic!("read {TOLERANCES_PATH}: {e}"));
    let outcome =
        diff_metrics_with(&full, &sampled, Some(&tolerances)).expect("well-formed reports");
    assert!(
        outcome.clean(),
        "sampled metrics breached the committed tolerances:\n{}",
        outcome.render()
    );

    // The condensed error report (what CI uploads as an artifact) must
    // agree with the gate: it uses the same relative-error formula, so a
    // clean diff implies its worst-case error is within the loosest
    // committed bound.
    let report = sampling_error_report_json(&full, &sampled).expect("well-formed reports");
    assert!(report.contains("\"worst_metric\""));
    assert!(report.contains("\"p95\""));
}
