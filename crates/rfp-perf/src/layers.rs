//! Layer probes: each simulator layer timed on its own, from outside,
//! over a workload's inputs — the trace generator and compiler, the core
//! on a pre-built trace, the memory hierarchy and the predictors on the
//! trace's own references, and the store's put/get on real payloads.

use std::hint::black_box;
use std::time::Instant;

use rfp_bench::{build_sample_plan, ExpStore, Tier, SAMPLE_INTERVAL_UOPS};
use rfp_core::{simulate_workload_probed_from_trace, warm_up_workload, CoreConfig, WarmState};
use rfp_mem::{HitLevel, MemoryHierarchy};
use rfp_predictors::{
    PrefetchTable, PrefetchTableConfig, PtDecision, ValuePredictor, ValuePredictorConfig,
};
use rfp_stats::{ratio, SimReport};
use rfp_trace::{CompiledTrace, WorkingSetClass, Workload};
use rfp_types::codec::{ByteWriter, Codec};

use crate::{Checks, Metrics, Scratch};

/// Measured micro-ops per probe simulation (after a warmup of half as
/// many): four sampling intervals, long enough for steady ns/uop.
pub const PROBE_LEN: u64 = 4 * SAMPLE_INTERVAL_UOPS;

/// The three configurations every workload reports per-config core
/// numbers for: the baseline, RFP, and RFP fused with EVES value
/// prediction (Fig. 15's `VP + RFP`). They use the core differently, so
/// a specialisation that helps one and slows another shows.
pub fn configs() -> [(&'static str, CoreConfig); 3] {
    let mut fused = CoreConfig::tiger_lake().with_rfp();
    fused.vp = rfp_core::VpMode::Eves(ValuePredictorConfig::default());
    [
        ("baseline", CoreConfig::tiger_lake()),
        ("rfp", CoreConfig::tiger_lake().with_rfp()),
        ("vp_rfp", fused),
    ]
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Running totals for one store tier of the probe.
#[derive(Default)]
struct TierTimes {
    put_ns: f64,
    get_ns: f64,
    bytes: u64,
    entries: u64,
}

impl TierTimes {
    /// Puts `value` under `key`, reads it back, and checks that the copy
    /// read back encodes to the same bytes.
    fn round_trip<T: Codec>(
        &mut self,
        store: &ExpStore,
        tier: Tier,
        key: &str,
        value: &T,
        checks: &mut Checks,
    ) {
        let t = Instant::now();
        let written = store.put(tier, key, value);
        self.put_ns += ns(t);
        let t = Instant::now();
        let back = store.get::<T>(tier, key);
        self.get_ns += ns(t);
        let bytes = |v: &T| {
            let mut w = ByteWriter::new();
            v.encode(&mut w);
            w.into_bytes()
        };
        checks.check(
            written > 0 && back.is_some_and(|(v, _)| bytes(&v) == bytes(value)),
            || format!("store round trip of {key} in tier {}", tier.dir()),
        );
        self.bytes += written;
        self.entries += 1;
    }

    fn report(&self, m: &mut Metrics, put: &'static str, get: &'static str, kb: &'static str) {
        m.insert(put, per(self.put_ns, self.entries) / 1e6);
        m.insert(get, per(self.get_ns, self.entries) / 1e6);
        m.insert(kb, per(self.bytes as f64, self.entries) / 1024.0);
    }
}

/// Runs every layer probe over `workloads` and records the per-layer
/// metrics they own. The store probe writes into a fresh directory under
/// `scratch`, removed before returning.
pub fn probe(workloads: &[Workload], scratch: &Scratch, m: &mut Metrics, checks: &mut Checks) {
    let configs = configs();
    let warmup = PROBE_LEN / 2;
    let total = PROBE_LEN + warmup;
    let dir = scratch.fresh("probe-store");
    let store = ExpStore::open(dir.path()).expect("scratch store opens");

    let (mut gen_ns, mut compile_ns) = (0.0, 0.0);
    let mut core_ns = [0.0; 3];
    let mut core_stats: [Vec<SimReport>; 3] = Default::default();
    let (mut mem_ns, mut accesses, mut l1_hits) = (0.0, 0u64, 0u64);
    let (mut pt_ns, mut vp_ns, mut loads, mut predicted) = (0.0, 0.0, 0u64, 0u64);
    let (mut phases, mut sampled_uops) = (0u64, 0u64);
    let mut tiers: [TierTimes; 3] = Default::default();

    for w in workloads {
        let t = Instant::now();
        let ops = w.trace_vec(total);
        gen_ns += ns(t);
        let t = Instant::now();
        let compiled: CompiledTrace = w.compiled(total, warmup, SAMPLE_INTERVAL_UOPS);
        compile_ns += ns(t);
        checks.check(compiled.ops() == &ops[..], || {
            format!("{}: compiled arena differs from the generator", w.name)
        });
        let plan = build_sample_plan(&compiled);
        phases += plan.phases.len() as u64;
        sampled_uops += plan.simulated_uops(compiled.interval_len());

        for (i, (name, cfg)) in configs.iter().enumerate() {
            let t = Instant::now();
            let (r, _) = simulate_workload_probed_from_trace(
                cfg,
                w,
                warmup,
                ops.iter().copied(),
                rfp_obs::NoopProbe,
            )
            .expect("probe configs are valid");
            core_ns[i] += ns(t);
            checks.check(r.stats.retired_uops == PROBE_LEN, || {
                format!(
                    "{}/{name}: retired {} of {PROBE_LEN}",
                    w.name, r.stats.retired_uops
                )
            });
            tiers[0].round_trip(
                &store,
                Tier::Result,
                &format!("{}|{name}", w.name),
                &r,
                checks,
            );
            core_stats[i].push(r);
        }

        let mut mem = MemoryHierarchy::new(configs[0].1.mem).expect("baseline hierarchy");
        for p in &w.program().patterns {
            let level = match p.ws {
                WorkingSetClass::L1 => HitLevel::L1,
                WorkingSetClass::L2 => HitLevel::L2,
                WorkingSetClass::Llc => HitLevel::Llc,
                WorkingSetClass::Dram => continue,
            };
            mem.prewarm_region(p.base, p.region_bytes, level);
        }
        let t = Instant::now();
        for (cycle, op) in ops.iter().enumerate() {
            if let Some(r) = op.mem {
                let a = mem.access(r.addr, cycle as u64, op.kind.is_store());
                l1_hits += u64::from(a.level == HitLevel::L1);
                accesses += 1;
            }
        }
        mem_ns += ns(t);

        let load_refs: Vec<_> = ops
            .iter()
            .filter(|op| op.kind.is_load())
            .filter_map(|op| op.mem.map(|r| (op.pc, r)))
            .collect();
        let mut pt = PrefetchTable::new(PrefetchTableConfig::default()).expect("default PT");
        let t = Instant::now();
        for &(pc, r) in &load_refs {
            predicted += u64::from(matches!(pt.on_allocate(pc), PtDecision::Prefetch(_)));
            pt.on_retire(pc, r.addr);
        }
        pt_ns += ns(t);
        let mut vp = ValuePredictor::new(ValuePredictorConfig::default()).expect("default VP");
        let t = Instant::now();
        for &(pc, r) in &load_refs {
            black_box(vp.on_allocate(pc));
            vp.train(pc, r.value);
        }
        vp_ns += ns(t);
        loads += load_refs.len() as u64;

        let warm: WarmState = warm_up_workload(&configs[0].1, w, warmup, ops.iter().copied())
            .expect("baseline config is valid");
        tiers[1].round_trip(&store, Tier::Warm, w.name, &warm, checks);
        tiers[2].round_trip(&store, Tier::Trace, w.name, &compiled, checks);
    }
    drop(store);
    drop(dir);

    let uops = total * workloads.len() as u64;
    m.insert("trace.gen_ns_per_uop", per(gen_ns, uops));
    m.insert("trace.compile_ns_per_uop", per(compile_ns, uops));
    for (i, (name, _)) in configs.iter().enumerate() {
        let (cycles, retired) = core_stats[i].iter().fold((0, 0), |(c, u), r| {
            (c + r.stats.cycles, u + r.stats.retired_uops)
        });
        let (ns_key, ipc_key) = match *name {
            "baseline" => ("core.ns_per_uop.baseline", "core.ipc.baseline"),
            "rfp" => ("core.ns_per_uop.rfp", "core.ipc.rfp"),
            _ => ("core.ns_per_uop.vp_rfp", "core.ipc.vp_rfp"),
        };
        m.insert(ns_key, per(core_ns[i], uops));
        m.insert(ipc_key, ratio(retired, cycles));
    }
    let all = core_stats.iter().flatten();
    let sum = |f: fn(&SimReport) -> u64| all.clone().map(f).sum::<u64>();
    m.insert(
        "core.reissues_per_kuop",
        1000.0
            * ratio(
                sum(|r| r.stats.sched_reissues),
                sum(|r| r.stats.retired_uops),
            ),
    );
    m.insert("sim.cycles", sum(|r| r.stats.cycles) as f64);
    let rfp = &core_stats[1];
    let rsum = |f: fn(&SimReport) -> u64| rfp.iter().map(f).sum::<u64>();
    m.insert(
        "rfp.coverage",
        ratio(
            rsum(|r| r.stats.rfp_useful),
            rsum(|r| r.stats.retired_loads),
        ),
    );
    m.insert(
        "rfp.useful_per_executed",
        ratio(rsum(|r| r.stats.rfp_useful), rsum(|r| r.stats.rfp_executed)),
    );
    m.insert(
        "rfp.dropped_per_injected",
        ratio(
            rsum(|r| {
                r.stats.rfp_dropped_load_first
                    + r.stats.rfp_dropped_tlb
                    + r.stats.rfp_dropped_l1_miss
                    + r.stats.rfp_dropped_squashed
            }),
            rsum(|r| r.stats.rfp_injected),
        ),
    );
    m.insert("mem.ns_per_access", per(mem_ns, accesses));
    m.insert("mem.l1_hit_frac", ratio(l1_hits, accesses));
    m.insert("pred.pt_ns_per_load", per(pt_ns, loads));
    m.insert("pred.pt_predict_frac", ratio(predicted, loads));
    m.insert("pred.vp_ns_per_load", per(vp_ns, loads));
    m.insert("sample.phases", phases as f64);
    m.insert(
        "sample.simulated_frac",
        ratio(sampled_uops, PROBE_LEN * workloads.len() as u64),
    );
    tiers[0].report(
        m,
        "store.put_ms.result",
        "store.get_ms.result",
        "store.entry_kb.result",
    );
    tiers[1].report(
        m,
        "store.put_ms.warm",
        "store.get_ms.warm",
        "store.entry_kb.warm",
    );
    tiers[2].report(
        m,
        "store.put_ms.trace",
        "store.get_ms.trace",
        "store.entry_kb.trace",
    );
}
