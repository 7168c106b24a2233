//! Behavioural tests of individual pipeline mechanisms, driven by
//! hand-crafted micro-op sequences rather than the workload generator.

use rfp_core::{simulate, Core, CoreConfig};
use rfp_trace::{MemRef, MicroOp};
use rfp_types::{Addr, ArchReg, Pc};

fn r(i: u8) -> ArchReg {
    ArchReg::new(i)
}

fn mem(addr: u64, value: u64) -> MemRef {
    MemRef::new(Addr::new(addr), 8, value)
}

/// N iterations of: load r10 <- [0x1000 + i*8]; r8 = alu(r10)  — a serial
/// chain where every hop goes through a load.
fn serial_load_chain(n: u64) -> Vec<MicroOp> {
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

/// N iterations of 8 independent ALU ops (pure width-bound work).
fn parallel_alus(n: u64) -> Vec<MicroOp> {
    let mut ops = Vec::new();
    for _ in 0..n {
        for k in 0..8u8 {
            ops.push(MicroOp::alu(
                Pc::new(0x500 + k as u64 * 4),
                1,
                &[r(0)],
                Some(r(16 + k)),
            ));
        }
    }
    ops
}

#[test]
fn serial_load_chain_is_latency_bound() {
    let n = 2_000;
    let stats = simulate(&CoreConfig::tiger_lake(), serial_load_chain(n)).unwrap();
    // Each hop needs at least AGU + L1 hit latency + the ALU.
    let cycles_per_iter = stats.cycles as f64 / n as f64;
    assert!(
        cycles_per_iter > 5.0,
        "chain must pay L1 latency per hop, got {cycles_per_iter}"
    );
}

#[test]
fn parallel_work_is_width_bound() {
    let n = 2_000;
    let stats = simulate(&CoreConfig::tiger_lake(), parallel_alus(n)).unwrap();
    let ipc = stats.retired_uops as f64 / stats.cycles as f64;
    // 8 independent ALUs per "iteration", 4 ALU ports, width 5 -> IPC ~4.
    assert!(
        ipc > 3.0,
        "independent ALUs should saturate ports, ipc {ipc}"
    );
}

#[test]
fn store_to_load_forwarding_is_detected() {
    let mut ops = Vec::new();
    for i in 0..500u64 {
        let a = 0x2000 + (i % 16) * 8;
        ops.push(MicroOp::store(Pc::new(0x600), &[r(0), r(1)], mem(a, i)));
        ops.push(MicroOp::load(Pc::new(0x604), &[r(0)], r(12), mem(a, i)));
        ops.push(MicroOp::alu(Pc::new(0x608), 1, &[r(12)], Some(r(13))));
    }
    let stats = simulate(&CoreConfig::tiger_lake(), ops).unwrap();
    assert!(
        stats.load_forwarded > 100,
        "same-address store->load pairs must forward, got {}",
        stats.load_forwarded
    );
}

#[test]
fn mispredicted_branches_cost_cycles() {
    let mk = |mispredict: bool| {
        let mut ops = Vec::new();
        for i in 0..2_000u64 {
            ops.push(MicroOp::alu(Pc::new(0x700), 1, &[r(0)], Some(r(9))));
            ops.push(MicroOp::branch(
                Pc::new(0x704),
                &[r(9)],
                true,
                mispredict && i % 10 == 0,
            ));
        }
        ops
    };
    let clean = simulate(&CoreConfig::tiger_lake(), mk(false)).unwrap();
    let noisy = simulate(&CoreConfig::tiger_lake(), mk(true)).unwrap();
    assert!(
        noisy.cycles > clean.cycles + 1_000,
        "mispredicts must cost redirects: {} vs {}",
        noisy.cycles,
        clean.cycles
    );
    assert_eq!(noisy.branch_mispredicts, 200);
}

#[test]
fn rfp_covers_a_strided_serial_chain_and_speeds_it_up() {
    // Like serial_load_chain but with a perfectly strided address stream
    // over an L1-resident buffer: the canonical RFP win.
    let n = 3_000;
    let mk = || {
        let mut ops = Vec::new();
        for i in 0..n {
            ops.push(MicroOp::load(
                Pc::new(0x800),
                &[r(8)],
                r(10),
                mem(0x4000 + (i % 256) * 8, i),
            ));
            ops.push(MicroOp::alu(Pc::new(0x804), 1, &[r(10)], Some(r(8))));
            // Filler keeps the loop body realistic: with a 2-uop body the
            // 352-entry window holds >127 instances of the same load PC and
            // the PT's 7-bit in-flight counter (paper Table 1) saturates,
            // making every extrapolated prefetch address short.
            for k in 0..6u64 {
                ops.push(MicroOp::alu(
                    Pc::new(0x808 + k * 4),
                    1,
                    &[r(0)],
                    Some(r(20 + k as u8)),
                ));
            }
        }
        ops
    };
    let base = simulate(&CoreConfig::tiger_lake(), mk()).unwrap();
    let rfp = simulate(&CoreConfig::tiger_lake().with_rfp(), mk()).unwrap();
    assert!(
        rfp.rfp_useful > n / 4,
        "strided chain should be covered, useful = {}",
        rfp.rfp_useful
    );
    assert!(
        rfp.cycles < base.cycles,
        "RFP must shorten the chain: {} vs {}",
        rfp.cycles,
        base.cycles
    );
}

#[test]
fn rfp_never_fires_on_random_addresses() {
    let mut ops = Vec::new();
    let mut a = 0x9000u64;
    for i in 0..3_000u64 {
        a = a.wrapping_mul(6364136223846793005).wrapping_add(1);
        let addr = (0x10_0000 + (a % 0x8000)) & !7;
        ops.push(MicroOp::load(Pc::new(0x900), &[r(0)], r(10), mem(addr, i)));
    }
    let stats = simulate(&CoreConfig::tiger_lake().with_rfp(), ops).unwrap();
    assert!(
        stats.rfp_useful < 50,
        "random addresses are unpredictable, useful = {}",
        stats.rfp_useful
    );
}

#[test]
fn wrong_prefetches_are_counted_not_crashed() {
    // A stride that flips sign every 24 instances: the PT keeps firing
    // stale predictions right after each flip.
    let mut ops = Vec::new();
    for i in 0..8_000u64 {
        let phase = (i / 24) % 2;
        let idx = i % 24;
        let addr = if phase == 0 {
            0x6000 + idx * 8
        } else {
            0x6800 - idx * 8
        };
        ops.push(MicroOp::load(Pc::new(0xa00), &[r(0)], r(10), mem(addr, i)));
        ops.push(MicroOp::alu(Pc::new(0xa04), 1, &[r(10)], Some(r(11))));
    }
    let stats = simulate(&CoreConfig::tiger_lake().with_rfp(), ops).unwrap();
    assert_eq!(stats.retired_uops, 16_000);
    // Either the PT stays unarmed (no useful, no wrong) or it fires and
    // sometimes misses; it must never fire with 100% accuracy here.
    if stats.rfp_useful > 200 {
        assert!(stats.rfp_wrong_addr > 0, "phase flips must cause misses");
    }
}

#[test]
fn rfp_respects_inflight_stores() {
    // Store and load alternate on the same strided stream: the prefetch
    // must deliver the *store's* data (forward) or wait — never stale
    // memory. Correctness here = the run completes with full retirement
    // and no unexplained violations.
    let mut ops = Vec::new();
    for i in 0..4_000u64 {
        let a = 0x7000 + (i % 128) * 8;
        ops.push(MicroOp::store(Pc::new(0xb00), &[r(0), r(1)], mem(a, i * 3)));
        ops.push(MicroOp::load(Pc::new(0xb04), &[r(0)], r(10), mem(a, i * 3)));
        ops.push(MicroOp::alu(Pc::new(0xb08), 1, &[r(10)], Some(r(11))));
    }
    let stats = simulate(&CoreConfig::tiger_lake().with_rfp(), ops).unwrap();
    assert_eq!(stats.retired_uops, 12_000);
}

#[test]
fn deeper_l1_makes_the_chain_slower() {
    let mut slow = CoreConfig::tiger_lake();
    slow.mem.l1.latency = 9;
    let base = simulate(&CoreConfig::tiger_lake(), serial_load_chain(2_000)).unwrap();
    let slower = simulate(&slow, serial_load_chain(2_000)).unwrap();
    assert!(
        slower.cycles > base.cycles,
        "L1 latency must show on a load chain: {} vs {}",
        slower.cycles,
        base.cycles
    );
}

#[test]
fn prewarm_prevents_cold_start_misses() {
    let mk = || {
        let mut ops = Vec::new();
        for i in 0..2_000u64 {
            ops.push(MicroOp::load(
                Pc::new(0xc00),
                &[r(0)],
                r(10),
                mem(0x8000 + (i % 512) * 8, i),
            ));
        }
        ops
    };
    let cold = Core::new(CoreConfig::tiger_lake()).unwrap().run(mk());
    let mut warm_core = Core::new(CoreConfig::tiger_lake()).unwrap();
    warm_core.prewarm_from([(Addr::new(0x8000), 4096u64, rfp_mem::HitLevel::L1)]);
    let warm = warm_core.run(mk());
    assert!(
        warm.load_hit_levels[0] > cold.load_hit_levels[0],
        "prewarmed L1 hits {} must exceed cold {}",
        warm.load_hit_levels[0],
        cold.load_hit_levels[0]
    );
}

#[test]
fn gshare_mode_decides_mispredicts_from_outcomes() {
    use rfp_core::BranchMode;
    // Alternating branch outcomes with NO oracle markers: the trace-oracle
    // core sees zero mispredicts, the gshare core must learn (few misses
    // after warmup) but still take some early ones.
    let mk = || {
        let mut ops = Vec::new();
        for i in 0..3_000u64 {
            ops.push(MicroOp::alu(Pc::new(0xd00), 1, &[r(0)], Some(r(9))));
            ops.push(MicroOp::branch(Pc::new(0xd04), &[r(9)], i % 2 == 0, false));
        }
        ops
    };
    let oracle = simulate(&CoreConfig::tiger_lake(), mk()).unwrap();
    assert_eq!(oracle.branch_mispredicts, 0);

    let mut cfg = CoreConfig::tiger_lake();
    cfg.branch_mode = BranchMode::Gshare;
    let gshare = simulate(&cfg, mk()).unwrap();
    assert!(gshare.branch_mispredicts > 0, "cold predictor must miss");
    assert!(
        gshare.branch_mispredicts < 300,
        "alternation must be learned, got {}",
        gshare.branch_mispredicts
    );
}

#[test]
fn critical_only_rfp_prefetches_fewer_loads() {
    // A strided chain (critical) plus strided bulk loads (non-critical):
    // criticality filtering should keep the chain coverage and drop much
    // of the bulk.
    let mk = || {
        let mut ops = Vec::new();
        for i in 0..6_000u64 {
            ops.push(MicroOp::load(
                Pc::new(0xe00),
                &[r(8)],
                r(10),
                mem(0x4000 + (i % 256) * 8, i),
            ));
            ops.push(MicroOp::alu(Pc::new(0xe04), 1, &[r(10)], Some(r(8))));
            for k in 0..3u64 {
                // Bulk loads off the critical path.
                ops.push(MicroOp::load(
                    Pc::new(0xe10 + k * 4),
                    &[r(0)],
                    r(20 + k as u8),
                    mem(0x20_0000 + k * 0x10000 + (i % 128) * 8, i),
                ));
            }
        }
        ops
    };
    let full = simulate(&CoreConfig::tiger_lake().with_rfp(), mk()).unwrap();
    let mut cfg = CoreConfig::tiger_lake().with_rfp();
    if let Some(rc) = cfg.rfp.as_mut() {
        rc.critical_only = true;
    }
    let crit = simulate(&cfg, mk()).unwrap();
    assert!(
        crit.rfp_injected < full.rfp_injected,
        "criticality filter must shrink traffic: {} vs {}",
        crit.rfp_injected,
        full.rfp_injected
    );
}
