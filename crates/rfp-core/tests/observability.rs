//! End-to-end tests of the probe layer: a probed core must behave
//! identically to an unprobed one, sinks must see the whole prefetch
//! funnel, and the funnel itself must balance on real runs.

use rfp_core::{simulate, simulate_workload, simulate_workload_probed, Core, CoreConfig};
use rfp_obs::{
    ChromeTraceSink, CpiStackSink, MetricsSink, NoopProbe, Probe, ProbeEvent, ProfileSink, TeeProbe,
};
use rfp_stats::CpiBucket;
use rfp_trace::{MemRef, MicroOp};
use rfp_types::{Addr, ArchReg, Cycle, Pc};

fn r(i: u8) -> ArchReg {
    ArchReg::new(i)
}

fn mem(addr: u64, value: u64) -> MemRef {
    MemRef::new(Addr::new(addr), 8, value)
}

/// A strided load chain RFP covers well, with a dependent ALU per load.
fn strided_chain(n: u64) -> Vec<MicroOp> {
    let mut ops = Vec::new();
    for i in 0..n {
        ops.push(MicroOp::load(
            Pc::new(0x400),
            &[r(8)],
            r(10),
            mem(0x1000 + (i % 64) * 8, i),
        ));
        ops.push(MicroOp::alu(Pc::new(0x404), 1, &[r(10)], Some(r(8))));
    }
    ops
}

/// Loads interleaved with stores to the same region plus mispredicted
/// branches — exercises forwarding, squashes and drops.
fn messy_trace(n: u64) -> Vec<MicroOp> {
    let mut ops = Vec::new();
    for i in 0..n {
        let a = 0x2000 + (i % 32) * 8;
        ops.push(MicroOp::store(Pc::new(0x500), &[r(4)], mem(a, i)));
        ops.push(MicroOp::load(Pc::new(0x508), &[r(8)], r(10), mem(a, i)));
        ops.push(MicroOp::alu(Pc::new(0x50c), 1, &[r(10)], Some(r(8))));
        if i % 7 == 0 {
            ops.push(MicroOp::branch(
                Pc::new(0x510),
                &[r(8)],
                i % 14 == 0,
                i % 21 == 0,
            ));
        }
    }
    ops
}

#[test]
fn probed_run_matches_unprobed_run_exactly() {
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let plain = simulate(&cfg, strided_chain(3_000)).unwrap();
    let (probed, _sink) = Core::with_probe(cfg, MetricsSink::new())
        .unwrap()
        .run_with_warmup_probed(strided_chain(3_000), 0);
    assert_eq!(plain.cycles, probed.cycles);
    assert_eq!(plain.retired_uops, probed.retired_uops);
    assert_eq!(plain.rfp_injected, probed.rfp_injected);
    assert_eq!(plain.rfp_useful, probed.rfp_useful);
    assert_eq!(plain.rfp_fully_hidden, probed.rfp_fully_hidden);
    assert_eq!(plain.load_hit_levels, probed.load_hit_levels);
}

#[test]
fn metrics_sink_mirrors_core_counters() {
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let (stats, sink) = Core::with_probe(cfg, MetricsSink::new())
        .unwrap()
        .run_with_warmup_probed(strided_chain(3_000), 0);
    let m = sink.into_metrics();
    assert!(stats.rfp_useful > 0, "RFP must fire on a strided chain");
    assert_eq!(
        m.rfp_complete_rel_issue.total(),
        stats.rfp_useful,
        "one timeliness sample per useful prefetch"
    );
    assert_eq!(
        m.rfp_complete_rel_issue.count_le(1),
        stats.rfp_fully_hidden,
        "fully-hidden = completion no later than issue + 1 (§5.2.2)"
    );
    assert!(m.load_use_latency.total() > 0);
    let dropped: u64 = m.drops_by_reason().iter().sum();
    let stat_drops = stats.rfp_dropped_load_first
        + stats.rfp_dropped_tlb
        + stats.rfp_dropped_queue_full
        + stats.rfp_dropped_l1_miss
        + stats.rfp_dropped_squashed;
    assert_eq!(dropped, stat_drops);
}

#[test]
fn funnel_balances_on_warmup_free_runs() {
    for (name, ops) in [
        ("strided", strided_chain(4_000)),
        ("messy", messy_trace(2_000)),
    ] {
        let stats = simulate(&CoreConfig::tiger_lake().with_rfp(), ops).unwrap();
        assert!(
            stats.funnel_consistent(),
            "{name}: injected={} terminal={}",
            stats.rfp_injected,
            stats.rfp_terminal_total()
        );
    }
}

#[test]
fn funnel_balances_under_value_prediction_flushes() {
    // VP flushes squash younger instructions — live packets of squashed
    // loads must land in the squashed bucket, not leak.
    let mut cfg = CoreConfig::tiger_lake().with_rfp();
    cfg.vp = rfp_core::VpMode::Eves(Default::default());
    let stats = simulate(&cfg, messy_trace(2_000)).unwrap();
    assert!(
        stats.funnel_consistent(),
        "injected={} terminal={}",
        stats.rfp_injected,
        stats.rfp_terminal_total()
    );
}

#[test]
fn chrome_sink_captures_complete_prefetch_lifetimes() {
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let lanes = cfg.rob_entries;
    let (stats, sink) = Core::with_probe(cfg, ChromeTraceSink::new(lanes))
        .unwrap()
        .run_with_warmup_probed(strided_chain(2_000), 0);
    assert!(stats.rfp_useful > 0);
    let json = sink.into_json();
    assert!(json.contains("\"rfp-useful\""), "useful lifetime spans");
    assert!(json.contains("\"name\":\"load\""), "pipeline slices");
    assert!(json.contains("\"fully_hidden\":true"));
    assert!(json.starts_with("{\"traceEvents\":["));
}

#[test]
fn tee_probe_feeds_trace_and_metrics_in_one_run() {
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let lanes = cfg.rob_entries;
    let tee = TeeProbe::new(ChromeTraceSink::new(lanes), MetricsSink::new());
    let (stats, tee) = Core::with_probe(cfg, tee)
        .unwrap()
        .run_with_warmup_probed(strided_chain(1_000), 0);
    assert_eq!(
        tee.b.metrics().rfp_complete_rel_issue.total(),
        stats.rfp_useful
    );
    assert!(!tee.a.is_empty());
}

#[test]
fn workload_probe_respects_the_warmup_window() {
    let w = rfp_trace::by_name("spec06_libquantum").expect("in the suite");
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let plain = simulate_workload(&cfg, &w, 6_000).unwrap();
    let (probed, sink) = simulate_workload_probed(&cfg, &w, 6_000, MetricsSink::new()).unwrap();
    assert_eq!(plain.canonical_text(), probed.canonical_text());
    let m = sink.into_metrics();
    // The sink reset at the warmup boundary, so its totals describe the
    // measured window exactly — same as the stats counters.
    assert_eq!(m.rfp_complete_rel_issue.total(), probed.stats.rfp_useful);
    assert_eq!(
        m.rfp_complete_rel_issue.count_le(1),
        probed.stats.rfp_fully_hidden
    );
}

#[test]
fn cpi_stack_conserves_every_retire_slot() {
    // The one-bucket-per-slot charging rule (DESIGN §9.5): across
    // synthetic traces with very different stall profiles — and several
    // configs — the stack's slot total is *exactly*
    // `cycles * retire_width`, and the interval series re-sums to it.
    let configs = [
        ("base", CoreConfig::tiger_lake()),
        ("rfp", CoreConfig::tiger_lake().with_rfp()),
        ("wide", CoreConfig::baseline_2x()),
    ];
    for (cname, cfg) in configs {
        for (tname, ops) in [
            ("strided", strided_chain(2_000)),
            ("messy", messy_trace(1_500)),
        ] {
            let width = cfg.retire_width as u64;
            let (stats, sink) = Core::with_probe(cfg.clone(), CpiStackSink::new())
                .unwrap()
                .run_with_warmup_probed(ops, 0);
            let r = sink.into_report();
            assert_eq!(
                r.stack.total(),
                stats.cycles * width,
                "{cname}/{tname}: slots leaked or double-charged"
            );
            assert!(r.intervals_consistent(), "{cname}/{tname}: interval drift");
            assert_eq!(
                r.stack.get(CpiBucket::Retiring) + r.stack.get(CpiBucket::RetiringRfpHidden),
                stats.retired_uops,
                "{cname}/{tname}: one retiring slot per retired uop"
            );
            // Warmup-free, so the issue-side counter and the retire-side
            // slots describe the same load population exactly.
            assert_eq!(
                r.stack.get(CpiBucket::RetiringRfpHidden),
                stats.rfp_fully_hidden,
                "{cname}/{tname}: hidden slots mirror the fully-hidden counter"
            );
        }
    }
}

#[test]
fn cpi_stack_conserves_across_the_warmup_reset() {
    // With a warmup window the sink resets mid-run; the reset cycle
    // belongs to the discarded window, so conservation must still hold
    // with equality on the measured window.
    let w = rfp_trace::by_name("spec06_libquantum").expect("in the suite");
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let width = cfg.retire_width as u64;
    let (report, sink) = simulate_workload_probed(&cfg, &w, 6_000, CpiStackSink::new()).unwrap();
    let r = sink.into_report();
    assert_eq!(r.stack.total(), report.stats.cycles * width);
    assert!(r.intervals_consistent());
    // Uops retiring after the mid-cycle reset but within the reset cycle
    // count toward `retired_uops` while the cycle itself is discarded, so
    // up to `width - 1` retires go unslotted at the boundary.
    let retiring = r.stack.get(CpiBucket::Retiring) + r.stack.get(CpiBucket::RetiringRfpHidden);
    assert!(
        retiring <= report.stats.retired_uops && report.stats.retired_uops - retiring < width,
        "retiring slots {retiring} vs retired uops {}",
        report.stats.retired_uops
    );
    // The hidden-slot count can exceed the issue-side counter by the
    // boundary population: loads that consumed their prefetch *before*
    // the reset (counter discarded) but retired after it. Same reason
    // the RFP funnel only balances on warmup-free runs.
    assert!(
        r.stack.get(CpiBucket::RetiringRfpHidden) >= report.stats.rfp_fully_hidden,
        "hidden slots can only gain the warmup-boundary loads"
    );
    // A probed CPI run must not perturb the simulation.
    let plain = simulate_workload(&cfg, &w, 6_000).unwrap();
    assert_eq!(plain.canonical_text(), report.canonical_text());
}

#[test]
fn profile_sink_decomposes_the_aggregate_funnel_per_site() {
    // The per-load-PC profiler must be an exact decomposition of the
    // aggregate counters: summed over sites, every outcome class equals
    // the CoreStats counter for the same run, with the refined drop
    // reasons folded the way MetricsSink folds them (mshr-starve ->
    // l1-miss, no-port -> load-first).
    for (name, ops) in [
        ("strided", strided_chain(4_000)),
        ("messy", messy_trace(2_000)),
    ] {
        let cfg = CoreConfig::tiger_lake().with_rfp();
        let (stats, sink) = Core::with_probe(cfg, ProfileSink::new())
            .unwrap()
            .run_with_warmup_probed(ops, 0);
        let prof = sink.into_report();
        let t = prof.totals();
        assert_eq!(t.useful(), stats.rfp_useful, "{name}: useful");
        assert_eq!(
            t.useful_fully_hidden, stats.rfp_fully_hidden,
            "{name}: fully hidden"
        );
        assert_eq!(t.injected, stats.rfp_injected, "{name}: injected");
        assert_eq!(t.wrong_addr, stats.rfp_wrong_addr, "{name}: wrong addr");
        assert_eq!(
            t.drops[0] + t.drops[6],
            stats.rfp_dropped_load_first,
            "{name}: load-first + no-port"
        );
        assert_eq!(t.drops[1], stats.rfp_dropped_tlb, "{name}: tlb");
        assert_eq!(t.drops[2], stats.rfp_dropped_queue_full, "{name}: queue");
        assert_eq!(
            t.drops[3] + t.drops[5],
            stats.rfp_dropped_l1_miss,
            "{name}: l1-miss + mshr-starve"
        );
        assert_eq!(t.drops[4], stats.rfp_dropped_squashed, "{name}: squashed");
        // Warmup-free, so the funnel balances site by site, not just in
        // aggregate: every injected packet died exactly once at its PC.
        for (pc, s) in &prof.sites {
            assert_eq!(
                s.terminal_total(),
                s.injected,
                "{name}: site {pc:#x} leaked a packet"
            );
        }
    }
}

#[test]
fn profile_sink_attributes_outcomes_to_the_right_sites() {
    // Both synthetic traces put all their loads at one known PC; every
    // prefetch outcome must land there and nowhere else.
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let (stats, sink) = Core::with_probe(cfg, ProfileSink::new())
        .unwrap()
        .run_with_warmup_probed(strided_chain(3_000), 0);
    let prof = sink.into_report();
    assert!(stats.rfp_useful > 0);
    let site = prof.sites.get(&0x400).expect("the strided load site");
    assert_eq!(site.useful(), stats.rfp_useful);
    assert!(site.loads > 0);
    // The dependent-ALU PC never executes a load or spawns a prefetch.
    assert!(!prof.sites.contains_key(&0x404));
}

#[test]
fn profile_probed_run_matches_unprobed_run_exactly() {
    // The `denied` port-starvation bookkeeping is maintained whether or
    // not a probe is attached, so profiling must not perturb the
    // simulation by a single cycle.
    let w = rfp_trace::by_name("spec06_libquantum").expect("in the suite");
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let plain = simulate_workload(&cfg, &w, 6_000).unwrap();
    let (probed, sink) = simulate_workload_probed(&cfg, &w, 6_000, ProfileSink::new()).unwrap();
    assert_eq!(plain.canonical_text(), probed.canonical_text());
    // And the sink respected the warmup reset: its measured-window sums
    // mirror the (reset) stats counters.
    let t = sink.into_report().totals();
    assert_eq!(t.useful(), probed.stats.rfp_useful);
    assert_eq!(t.injected, probed.stats.rfp_injected);
}

#[test]
fn noop_probe_run_signature_still_returns_probe() {
    // The probed entry point is usable with the zero-cost default too.
    let (stats, NoopProbe) = Core::with_probe(CoreConfig::tiger_lake(), NoopProbe)
        .unwrap()
        .run_with_warmup_probed(strided_chain(100), 0);
    assert!(stats.retired_uops > 0);
}

#[test]
fn event_stream_is_deterministic_across_runs() {
    struct Fingerprint(u64);
    impl Probe for Fingerprint {
        const ENABLED: bool = true;
        fn emit(&mut self, cycle: Cycle, event: ProbeEvent) {
            // FNV-1a over the debug rendering: cheap structural hash.
            let s = format!("{cycle}:{event:?}");
            for b in s.bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    let run = || {
        let cfg = CoreConfig::tiger_lake().with_rfp();
        Core::with_probe(cfg, Fingerprint(0xcbf2_9ce4_8422_2325))
            .unwrap()
            .run_with_warmup_probed(messy_trace(1_500), 0)
            .1
             .0
    };
    assert_eq!(run(), run());
}
