//! Config fuzzing: every `CoreConfig` that `validate` accepts must run
//! without a panic, keep the RFP funnel balanced and survive its wire
//! codec; every other one must be refused with a named `ConfigError`, by
//! `validate` and by `decode`.

use proptest::prelude::*;
use rfp_core::{simulate_workload, CoreConfig};
use rfp_types::codec::{decode_from_slice, encode_to_vec};

/// Measured uops per run (plus half as many of warmup).
const LEN: u64 = 300;

/// An FP-heavy and a memory-bound workload: the first stresses the FP
/// ports, the second the load queue and the memory hierarchy.
const WORKLOADS: [&str; 2] = ["spec06_milc", "spec17_mcf"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_config_is_refused_or_runs(
        sizes in (0usize..=6, 0usize..=6, 0usize..=48, 0usize..=48, 0usize..=16, 0usize..=16),
        ports in (0usize..=3, 0usize..=3, 0usize..=3, 0usize..=2, 0usize..=3, 0usize..=2),
        rfp in any::<bool>(),
    ) {
        let mut c = if rfp {
            CoreConfig::tiger_lake().with_rfp()
        } else {
            CoreConfig::tiger_lake()
        };
        (c.width, c.retire_width, c.rob_entries, c.rs_entries, c.ldq_entries, c.stq_entries) =
            sizes;
        (
            c.alu_ports,
            c.fp_ports,
            c.load_agu_ports,
            c.store_agu_ports,
            c.ports.load_ports,
            c.ports.dedicated_rfp,
        ) = ports;
        let bytes = encode_to_vec(&c);
        if c.validate().is_err() {
            prop_assert!(decode_from_slice::<CoreConfig>(&bytes).is_err());
            return Ok(());
        }
        prop_assert_eq!(decode_from_slice::<CoreConfig>(&bytes).ok(), Some(c.clone()));
        for name in WORKLOADS {
            let w = rfp_trace::by_name(name).expect("in the suite");
            let run = std::panic::catch_unwind(|| simulate_workload(&c, &w, LEN));
            let Ok(report) = run else {
                return Err(TestCaseError::fail(format!("{name} panicked under {c:?}")));
            };
            let stats = report.expect("validated").stats;
            prop_assert_eq!(stats.retired_uops, LEN);
            prop_assert!(stats.funnel_consistent(), "{name}: RFP funnel leaks under {c:?}");
        }
    }
}

#[test]
fn widths_beyond_a_retire_slot_byte_are_refused() {
    // Retire slots reach probes as a `u8`.
    for (width, retire_width) in [(256, 5), (5, 256)] {
        let mut c = CoreConfig::tiger_lake();
        c.rob_entries = 1024;
        (c.width, c.retire_width) = (width, retire_width);
        assert!(c.validate().is_err(), "{width}/{retire_width} accepted");
    }
    let mut c = CoreConfig::tiger_lake();
    (c.width, c.retire_width, c.rob_entries) = (255, 255, 1024);
    c.validate().unwrap();
}
