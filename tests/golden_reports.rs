//! Golden reports: the simulated behaviour of a fixed set of workloads
//! under every major mode is pinned by the FNV-1a digest of each
//! `SimReport::canonical_text`. `determinism.rs` only compares a run with
//! itself; this file catches any change to the timing model, so a pure
//! speed refactor of the core must leave every digest as it is.
//!
//! After an intended model change, update the pins: each failure prints
//! the digests the current model gives.

use rfp::core::{
    report_for, simulate_workload, warm_up_workload, BranchMode, CoreConfig, OracleMode, VpMode,
    WarmState,
};
use rfp::predictors::{DlvpConfig, ValuePredictorConfig};
use rfp::stats::{CoreStats, SimReport};
use rfp::trace::MicroOp;
use rfp::types::codec::{decode_from_slice, encode_to_vec};
use rfp::types::fnv1a_64;

/// Measured micro-ops per run (after a warmup of half as many).
const LEN: u64 = 12_000;

/// Two SPEC06 (integer, FP), two SPEC17 integer and two cloud workloads.
const WORKLOADS: [&str; 6] = [
    "spec06_mcf",
    "spec06_milc",
    "spec17_gcc",
    "spec17_x264",
    "spark",
    "tpcc",
];

fn digest(report: &SimReport) -> u64 {
    fnv1a_64(report.canonical_text().as_bytes())
}

fn config(name: &str) -> CoreConfig {
    let base = CoreConfig::tiger_lake();
    let eves = ValuePredictorConfig::default();
    let dlvp = DlvpConfig::default();
    match name {
        "baseline" => base,
        "rfp" => base.with_rfp(),
        "vp_rfp" => CoreConfig {
            vp: VpMode::Eves(eves),
            ..base.with_rfp()
        },
        "baseline_2x" => CoreConfig::baseline_2x(),
        "eves" => CoreConfig {
            vp: VpMode::Eves(eves),
            ..base
        },
        "dlvp" => CoreConfig {
            vp: VpMode::Dlvp(dlvp),
            ..base
        },
        "epp" => CoreConfig {
            vp: VpMode::Epp(dlvp),
            ..base
        },
        "composite" => CoreConfig {
            vp: VpMode::Composite(eves, dlvp),
            ..base
        },
        "gshare" => CoreConfig {
            branch_mode: BranchMode::Gshare,
            ..base
        },
        "rfp_critical" => {
            let mut c = base.with_rfp();
            if let Some(r) = c.rfp.as_mut() {
                r.critical_only = true;
            }
            c
        }
        "oracle_l1_to_rf" => base.with_oracle(OracleMode::L1ToRf),
        other => panic!("unknown config {other}"),
    }
}

/// Pinned digests, one row per config, in `WORKLOADS` order.
const GOLDEN: &[(&str, [u64; 6])] = &[
    (
        "baseline",
        [
            0x58dbadb9637af76a,
            0xf0fba2f70d17c6f0,
            0xfb383f09f309216d,
            0xc612d5812067b423,
            0x5a269b6c5a172734,
            0xb90b63f0f01f64a8,
        ],
    ),
    (
        "rfp",
        [
            0x4b9117319fe1cc0b,
            0xf88084212be975f4,
            0x568404960f5bb021,
            0x746262b790a6ef56,
            0xb8bce7c014a36d6f,
            0x90eb57e3d4d820c3,
        ],
    ),
    (
        "vp_rfp",
        [
            0x298c7f41323e483f,
            0x39e1d206e45241d2,
            0x17975fafafc7a18d,
            0x752e1c5c23d67e88,
            0xf20e2fc7e41f7d44,
            0x410d3274a53472c1,
        ],
    ),
    (
        "baseline_2x",
        [
            0xee78c8d78b0c2831,
            0x1ed55a23ebf28685,
            0x828ca70b8634adc8,
            0x9f96a4dd756ae0f9,
            0xf6d5840259565f80,
            0xf04eb0bdcda92143,
        ],
    ),
    (
        "eves",
        [
            0xd9133e3b977ad558,
            0x0eb2c4269ff1e4a4,
            0x5292f4e2ab0423c3,
            0xcc59e43f0c67cde9,
            0xec926a537472a2a5,
            0xbf44545b6bf6843c,
        ],
    ),
    (
        "dlvp",
        [
            0xd8dbd9c4b411a8ef,
            0x31d26d8fff7ff8ff,
            0xcb85ea8d810ad70c,
            0x8a79ed144670e7dc,
            0xd378333f21a4ca03,
            0x9a488b8f18a8cf7a,
        ],
    ),
    (
        "epp",
        [
            0x15dbef598c6af5c7,
            0x96867f7389c1a484,
            0x4f82320b8c465ca9,
            0x2cca18650c756312,
            0x8d7db60d4a7ba4cf,
            0xc9531001e4deeff7,
        ],
    ),
    (
        "composite",
        [
            0x7cb0f43ea6e12d26,
            0xf1a467151f1f5b86,
            0x476fc23cd6eafdb7,
            0xf4a492c7214a9791,
            0x2a6beba8a11b501b,
            0x5c5ab8e9eaabf804,
        ],
    ),
    (
        "gshare",
        [
            0x36b4441bcee91000,
            0xb7984867dc688817,
            0xc905860eea7da26d,
            0x10bf72cf302fa287,
            0x77009ad23df920e2,
            0x1896d1ac4f81528f,
        ],
    ),
    (
        "rfp_critical",
        [
            0x057802b1544ec5b3,
            0xdc52917eb8126003,
            0x20bf564c0aa62674,
            0xb3c5201547a6b899,
            0x9b7fd7169f2de305,
            0xa236342b8193f5a8,
        ],
    ),
    (
        "oracle_l1_to_rf",
        [
            0x76721d699efda18e,
            0x1dbb049daa26f7e9,
            0xfb2ea58aa48401f4,
            0x8811b83e67503c57,
            0x989f2e557d98b2f0,
            0xf21d42bef27174b4,
        ],
    ),
];

fn golden(name: &str) -> &'static [u64; 6] {
    GOLDEN
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, h)| h)
        .expect("pinned")
}

/// Runs every workload under `name`, checks the digests against the pins
/// and returns the reports.
fn check_config(name: &str) -> Vec<SimReport> {
    let cfg = config(name);
    let reports: Vec<SimReport> = WORKLOADS
        .iter()
        .map(|w| {
            let w = rfp::trace::by_name(w).expect("in the suite");
            simulate_workload(&cfg, &w, LEN).expect("valid config")
        })
        .collect();
    let actual: Vec<u64> = reports.iter().map(digest).collect();
    let rendered: Vec<String> = actual.iter().map(|h| format!("0x{h:016x}")).collect();
    assert_eq!(
        &actual[..],
        &golden(name)[..],
        "{name}: digests changed; current model gives [{}]",
        rendered.join(", ")
    );
    reports
}

#[test]
fn baseline_reports_are_pinned() {
    let reports = check_config("baseline");
    // Stores resolving after younger loads executed must flush them.
    assert!(reports
        .iter()
        .any(|r| r.stats.md_violations > 0 && r.stats.load_forwarded > 0));
    check_config("baseline_2x");
    check_config("gshare");
    check_config("oracle_l1_to_rf");
}

#[test]
fn rfp_reports_are_pinned() {
    let reports: Vec<SimReport> = ["rfp", "vp_rfp", "rfp_critical"]
        .into_iter()
        .flat_map(check_config)
        .collect();
    // The pinned set must reach the RFP paths a refactor could break.
    assert!(reports.iter().any(|r| r.stats.rfp_useful > 0));
    assert!(reports.iter().any(|r| r.stats.rfp_wrong_addr > 0));
    assert!(reports.iter().any(|r| r.stats.sched_reissues > 0));
}

#[test]
fn value_prediction_reports_are_pinned() {
    let reports: Vec<SimReport> = ["eves", "dlvp", "epp", "composite"]
        .into_iter()
        .flat_map(check_config)
        .collect();
    // Value/address flushes squash younger work and re-enter it into the
    // scheduler: the pinned set must actually take that path.
    assert!(reports.iter().any(|r| r.stats.vp_flushes > 0));
    assert!(reports.iter().any(|r| r.stats.ap_mispredicted > 0));
}

/// Warm up, round-trip the snapshot through bytes, and resume: the
/// decoded core (whose derived state is rebuilt on decode) must produce
/// the pinned straight-through report.
#[test]
fn decoded_warm_snapshot_resumes_to_the_pinned_report() {
    let workload = "spec17_gcc";
    let column = WORKLOADS
        .iter()
        .position(|w| *w == workload)
        .expect("pinned");
    for name in ["rfp", "composite"] {
        let cfg = config(name);
        let w = rfp::trace::by_name(workload).expect("in the suite");
        let warmup = LEN / 2;
        let trace: Vec<_> = w.trace(LEN + warmup).collect();
        let warm = warm_up_workload(&cfg, &w, warmup, trace.iter().copied()).expect("valid");
        let bytes = encode_to_vec(&warm);
        let revived: WarmState = decode_from_slice(&bytes).expect("decodes");
        assert_eq!(encode_to_vec(&revived), bytes, "re-encoding is stable");
        let rest = trace[revived.consumed_uops() as usize..].iter().copied();
        let report = report_for(&w, revived.resume(rest));
        assert_eq!(
            digest(&report),
            golden(name)[column],
            "{name}: resumed fork diverged; it gives 0x{:016x}",
            digest(&report)
        );
    }
}

/// Warms `donor` over `LEN / 2` ops of `workload`, then measures the
/// interior window `[start, start + LEN / 4)` after a warm prefix of
/// `PREFIX` ops, the way the phase sampler does.
fn sampled_window(
    workload: &str,
    donor: &str,
    run: impl FnOnce(&WarmState, Vec<MicroOp>, u64) -> CoreStats,
) -> SimReport {
    const PREFIX: u64 = 2_048;
    let w = rfp::trace::by_name(workload).expect("in the suite");
    let warmup = LEN / 2;
    let trace: Vec<MicroOp> = w.trace(LEN + warmup).collect();
    let warm = warm_up_workload(&config(donor), &w, warmup, trace.iter().copied()).expect("valid");
    let start = warmup + LEN / 2;
    let window = trace[(start - PREFIX) as usize..(start + LEN / 4) as usize].to_vec();
    report_for(&w, run(&warm, window, PREFIX))
}

/// The phase sampler's two window paths: a fork of the config's own
/// snapshot (`resume_window`) and a transplant of another config's warm
/// structures into a fresh core (`transplant_window`).
#[test]
fn sampled_windows_are_pinned() {
    let resumed = sampled_window("spec06_mcf", "rfp", |warm, window, prefix| {
        warm.resume_window(window, prefix)
    });
    let transplanted = sampled_window("spark", "baseline", |warm, window, prefix| {
        warm.transplant_window(&config("vp_rfp"), window, prefix)
            .expect("valid")
    });
    for report in [&resumed, &transplanted] {
        assert_eq!(
            report.stats.retired_uops,
            LEN / 4,
            "the window alone is measured"
        );
    }
    let actual = [digest(&resumed), digest(&transplanted)];
    assert_eq!(
        actual,
        [0x0273ce3682602a58, 0x75f3559b80ab9743],
        "sampled windows diverged; they give [0x{:016x}, 0x{:016x}]",
        actual[0],
        actual[1]
    );
}
