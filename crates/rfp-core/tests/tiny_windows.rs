//! Stress test of the scheduler's wakeup state on tiny windows.
//!
//! A 37- or 70-entry ROB with a 2–8-entry RS and a 1–2-wide front end
//! keeps the RS full: a squash (value flush or store-ordering violation)
//! sends back far more entries than `rs_entries`, so select's cutoff and
//! the re-parking of squashed entries run constantly. Debug builds check
//! the RS bitsets and waiter lists against a ROB scan after every cycle;
//! every build checks that each run retires its whole trace and that the
//! RFP funnel balances.

use rfp_core::{simulate, CoreConfig, VpMode};
use rfp_predictors::ValuePredictorConfig;

const UOPS: u64 = 6_000;

fn tiny(rob_entries: usize, rs_entries: usize, width: usize, vp: bool) -> CoreConfig {
    let mut c = CoreConfig::tiger_lake().with_rfp();
    c.width = width;
    c.retire_width = width;
    c.rob_entries = rob_entries;
    c.rs_entries = rs_entries;
    c.ldq_entries = rob_entries / 3;
    c.stq_entries = rob_entries / 4;
    if vp {
        // An eager EVES: it predicts after one correct training, so its
        // mispredictions (value flushes) are frequent.
        c.vp = VpMode::Eves(ValuePredictorConfig {
            confidence_max: 1,
            increment_prob: 1.0,
            ..ValuePredictorConfig::default()
        });
    }
    c
}

#[test]
fn tiny_windows_retire_everything_under_rfp_and_value_prediction() {
    let (mut flushes, mut violations, mut runs) = (0, 0, 0);
    // Workloads whose short traces have both value flushes and store
    // ordering violations on tiny windows.
    for name in ["bigbench", "tpce", "spec06_soplex"] {
        let workload = rfp_trace::by_name(name).expect("suite workload");
        for rob in [37, 70] {
            for rs in [2, 5, 8] {
                for width in [1, 2] {
                    for vp in [false, true] {
                        let cfg = tiny(rob, rs, width, vp);
                        let stats = simulate(&cfg, workload.trace(UOPS)).expect("valid config");
                        let at = format!("{name} rob={rob} rs={rs} width={width} vp={vp}");
                        assert_eq!(stats.retired_uops, UOPS, "{at}: lost uops");
                        assert!(
                            stats.funnel_consistent(),
                            "{at}: RFP funnel leak: injected={} terminal={}",
                            stats.rfp_injected,
                            stats.rfp_terminal_total()
                        );
                        flushes += stats.vp_flushes;
                        violations += stats.md_violations;
                        runs += 1;
                    }
                }
            }
        }
    }
    eprintln!("{runs} runs: {flushes} value flushes, {violations} ordering violations");
    // Both squash sources must actually fire, or the test proves little.
    assert!(flushes > 0 && violations > 0);
}
