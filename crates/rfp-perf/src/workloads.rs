//! The four workloads. Each has a set-up, timed on its own, and a
//! repeatable measured unit whose deterministic output the runner
//! compares across units, seeds and the traced run. Units time their work
//! in laps of a [`Clock`], so every time they report is in nominal
//! seconds.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;

use rfp_bench::{
    config_key, diff_metrics_with, flatten, parse_json, result_key, sampling_error_report_json,
    ExpStore, Harness, Json, SimMode, StoreStats, Tier, WarmMode, WarmPool,
};
use rfp_core::{simulate_workload_probed_from_trace, CoreConfig};
use rfp_obs::EngineTracer;
use rfp_stats::{geomean, SimReport};
use rfp_trace::{splitmix64, MicroOp, TraceGen, Workload};

use crate::speed::{Clock, Lap};
use crate::{layers, Checks, Metrics, Scratch};

/// Display lane of the spans the benchmark itself records around
/// `Harness::run`: apart from lane 0 (engine internals) and the worker
/// lanes, so render time never nests engine spans by lane.
const RENDER_LANE: u32 = u32::MAX;

/// The committed per-metric bounds of sampled against full simulation.
const SAMPLING_TOLERANCES: &str = include_str!("../../../baselines/sampling_tolerances.json");

/// The paper's headline: +3.1% geomean speedup at 43.4% coverage (Fig. 10).
const PAPER_SPEEDUP_PCT: f64 = 3.1;
const PAPER_COVERAGE_PCT: f64 = 43.4;

/// One measured unit of a workload.
pub struct Unit {
    /// Nominal seconds of the measured work, checks excluded.
    pub wall_s: f64,
    /// Host seconds of the same work.
    pub host_s: f64,
    /// Deterministic rendering of everything the unit produced.
    pub output: String,
    /// Nominal milliseconds of every simulation job.
    pub job_ms: Vec<f64>,
    /// Measured micro-ops in the results the unit delivered.
    pub result_uops: u64,
    /// Per-layer values only this workload can observe.
    pub layer: Metrics,
}

/// A workload after set-up.
pub trait Bench {
    /// Worker threads its measured unit uses.
    fn threads(&self) -> usize;
    /// Runs measured unit `rep` (0-based within a run), timed on `clock`.
    /// With `tracer` armed, engine and benchmark spans land in it.
    fn unit(
        &self,
        rep: u64,
        tracer: Option<&Arc<EngineTracer>>,
        clock: &mut Clock,
        checks: &mut Checks,
    ) -> Unit;
    /// Untimed work after the measured units: extra output checks, and
    /// the per-layer metrics they yield.
    fn finish(&self, _m: &mut Metrics, _checks: &mut Checks) {}
}

/// The workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = ["core", "paper-full", "paper-sample", "store"];

/// Builds workload `name` for `seed`. This is the timed set-up.
pub fn setup(name: &str, seed: u64, threads: usize, scratch: &Scratch) -> Box<dyn Bench> {
    match name {
        "core" => Box::new(CoreBench::setup(seed)),
        "paper-full" => Box::new(PaperBench::setup(SimMode::Full, seed, threads)),
        "paper-sample" => Box::new(PaperBench::setup(SimMode::Sample, seed, threads)),
        "store" => Box::new(StoreBench::setup(seed, threads, scratch)),
        other => unreachable!("unvalidated workload {other}"),
    }
}

/// `ids` shuffled by `seed` (Fisher–Yates over splitmix64); seed 0 keeps
/// the given order.
pub fn permuted<'a>(ids: &[&'a str], seed: u64) -> Vec<&'a str> {
    let mut out = ids.to_vec();
    if seed == 0 {
        return out;
    }
    let mut state = seed;
    for i in (1..out.len()).rev() {
        state = splitmix64(state);
        out.swap(i, (state % (i as u64 + 1)) as usize);
    }
    out
}

/// The workload suite with every program synthesized once: the sweeps'
/// set-up checks all their inputs before the first job.
fn checked_suite() -> Vec<Workload> {
    let suite = rfp_trace::suite();
    for w in &suite {
        black_box(w.program());
    }
    suite
}

/// Distinct configurations the experiments `ids` need, validated.
fn planned_configs(ids: &[&str]) -> Vec<CoreConfig> {
    let mut seen = HashSet::new();
    let configs: Vec<CoreConfig> = ids
        .iter()
        .flat_map(|id| Harness::plan(id))
        .filter(|c| seen.insert(config_key(c)))
        .collect();
    for c in &configs {
        c.validate().expect("planned configs are valid");
    }
    configs
}

/// `Harness::run` for every id, after the prefetch: the rendered
/// reports by id, each call in a `render` span when traced.
fn render<'a>(
    h: &mut Harness,
    ids: &[&'a str],
    tracer: Option<&Arc<EngineTracer>>,
) -> BTreeMap<&'a str, String> {
    let mut rendered = BTreeMap::new();
    for id in ids {
        let r0 = tracer.map(|tr| tr.now_nanos());
        let text = h.run(id);
        if let (Some(tr), Some(r0)) = (tracer, r0) {
            tr.record("render", id.to_string(), "ok", vec![], RENDER_LANE, r0);
        }
        rendered.insert(*id, text);
    }
    rendered
}

/// Nominal milliseconds of `h`'s jobs, which ran within `lap`.
fn job_ms(h: &Harness, lap: Lap, skip_store_hits: bool) -> Vec<f64> {
    let scale = lap.nominal_s / lap.host_s;
    h.job_telemetry()
        .iter()
        .filter(|t| !(skip_store_hits && t.store == "hit"))
        .map(|t| t.wall_nanos as f64 / 1e6 * scale)
        .collect()
}

/// Snapshot hits and misses, and traces built, of `h`'s warm pool.
fn pool_counts(h: &Harness) -> [u64; 3] {
    let s = h.warm_pool().stats();
    [s.snapshot_hits, s.snapshot_misses, s.trace_builds]
}

fn record_pool(m: &mut Metrics, [hits, misses, builds]: [u64; 3]) {
    m.insert(
        "engine.snapshot_hit_frac",
        rfp_stats::ratio(hits, hits + misses),
    );
    m.insert("engine.trace_builds", builds as f64);
}

// --- core -------------------------------------------------------------------

/// One workload per generator tweak class of the suite.
pub const CORE_WORKLOADS: [&str; 8] = [
    "spec17_mcf",
    "spec06_libquantum",
    "spec17_gcc",
    "spec17_wrf",
    "hadoop",
    "spec06_milc",
    "spec17_x264",
    "spec17_xz",
];

/// The suite workloads named by [`CORE_WORKLOADS`], in that order: the
/// `core` workloads, and the inputs every workload's layer probes replay.
pub fn core_workloads() -> Vec<Workload> {
    let suite = rfp_trace::suite();
    CORE_WORKLOADS
        .iter()
        .map(|name| {
            suite
                .iter()
                .find(|w| w.name == *name)
                .expect("core workloads are in the suite")
                .clone()
        })
        .collect()
}

/// Measured micro-ops per `core` job (plus half as many warmup).
pub const CORE_LEN: u64 = 32_768;

/// Traces per `core` workload. With 8 workloads and 3 configs a unit runs
/// 120 jobs, so each unit has a p90 with 12 jobs beyond it.
pub const CORE_DRAWS: u64 = 5;

/// `core`: the simulator alone — eight workloads, each on
/// [`CORE_DRAWS`] traces, under three configs through direct `rfp_core`
/// calls on one thread. Set-up generates the traces; the measured unit
/// simulates them. Draw `k` under seed `s` adds `s * CORE_DRAWS + k` to the
/// workload's trace-generator seed, which draws the random addresses and
/// branch outcomes; the static programs stay the suite's. Shifting the
/// synthesis seed instead would simulate other programs, whose job times
/// fall in another order under each seed, so the job percentiles would
/// jump from one workload's time to another's.
pub struct CoreBench {
    workloads: Vec<Workload>,
    /// Every trace, with the index of its workload.
    traces: Vec<(usize, Vec<MicroOp>)>,
    configs: [(&'static str, CoreConfig); 3],
}

impl CoreBench {
    pub fn setup(seed: u64) -> Self {
        let workloads = core_workloads();
        let mut traces = Vec::new();
        for (i, w) in workloads.iter().enumerate() {
            for k in 0..CORE_DRAWS {
                let draw = w.seed.wrapping_add(seed.wrapping_mul(CORE_DRAWS) + k);
                let trace = TraceGen::new(w.program(), draw, CORE_LEN + CORE_LEN / 2).collect();
                traces.push((i, trace));
            }
        }
        let configs = layers::configs();
        for (_, c) in &configs {
            c.validate().expect("core configs are valid");
        }
        CoreBench {
            workloads,
            traces,
            configs,
        }
    }
}

impl Bench for CoreBench {
    fn threads(&self) -> usize {
        1
    }

    /// Each job is a lap of its own, so the host's speed is sampled on
    /// this thread between every two jobs.
    fn unit(
        &self,
        _rep: u64,
        tracer: Option<&Arc<EngineTracer>>,
        clock: &mut Clock,
        checks: &mut Checks,
    ) -> Unit {
        let mut reports: Vec<SimReport> = Vec::new();
        let mut laps = Vec::new();
        clock.start();
        for (i, trace) in &self.traces {
            let w = &self.workloads[*i];
            for (name, cfg) in &self.configs {
                let s = tracer.map(|tr| tr.now_nanos());
                let (r, _) = simulate_workload_probed_from_trace(
                    cfg,
                    w,
                    CORE_LEN / 2,
                    trace.iter().copied(),
                    rfp_obs::NoopProbe,
                )
                .expect("valid config");
                if let (Some(tr), Some(s)) = (tracer, s) {
                    tr.record("simulate", format!("{}|{name}", w.name), "ok", vec![], 1, s);
                }
                laps.push(clock.lap());
                reports.push(r);
            }
        }
        for r in &reports {
            checks.check(r.stats.retired_uops == CORE_LEN, || {
                format!(
                    "{}: retired {} of {CORE_LEN}",
                    r.workload, r.stats.retired_uops
                )
            });
        }
        let mut layer = Metrics::new();
        record_pool(&mut layer, [0, 0, 0]);
        Unit {
            wall_s: laps.iter().map(|l| l.nominal_s).sum(),
            host_s: laps.iter().map(|l| l.host_s).sum(),
            output: canonical(&reports),
            job_ms: laps.iter().map(|l| l.nominal_s * 1e3).collect(),
            result_uops: reports.len() as u64 * CORE_LEN,
            layer,
        }
    }
}

fn canonical(reports: &[SimReport]) -> String {
    let texts: Vec<String> = reports.iter().map(SimReport::canonical_text).collect();
    texts.join("\n")
}

// --- paper-full / paper-sample ----------------------------------------------

/// Experiments of `paper-full`: the paper's headline results (Fig. 10
/// speedup and coverage, Fig. 11 gain against coverage, Fig. 13
/// timeliness, Section 5.2.2 hidden latency), the numbers users check
/// against +3.1% at 43.4%. They share two configs, baseline and RFP: 130
/// jobs, few enough to run at a length where the per-job fixed cost
/// (about 3 ms of core construction, pre-warm and trace compile) is 4% of
/// a job, against 2% at the harness default of 120,000 uops and 53% at
/// 2,048.
pub const PAPER_FULL_IDS: [&str; 4] = ["fig10", "fig11", "fig13", "s522"];
/// Measured micro-ops per job of `paper-full`.
pub const PAPER_FULL_LEN: u64 = 65_536;
/// Measured micro-ops per job of `paper-sample`: three sampling
/// intervals, the length the committed sampling tolerances are gated at
/// (at four, one workload's sampled RFP coverage breaches them).
pub const PAPER_SAMPLE_LEN: u64 = 3 * rfp_bench::SAMPLE_INTERVAL_UOPS;

/// The accuracy pass of `paper-sample` at [`PAPER_SAMPLE_LEN`]: each error
/// as this revision of the model and sampler measures it, and how far it
/// may grow before the run fails a check. A change that moves the model
/// or the sampler away from the paper fails the benchmark; one that moves
/// it closer passes, and then commits the new values here.
const FIDELITY: [(&str, f64, f64); 4] = [
    ("fidelity.sample_ipc_err_max", 0.101942, 0.005),
    ("fidelity.sample_speedup_err_pp", 0.943833, 0.1),
    ("fidelity.paper_speedup_err_pp", 1.364834, 0.25),
    ("fidelity.paper_coverage_err_pp", 7.83886, 0.5),
];

/// `paper-full` and `paper-sample`: experiments as library calls —
/// `Harness::prefetch` over the ids, then `Harness::run` for each.
/// `paper-full` runs [`PAPER_FULL_IDS`] at full fidelity; `paper-sample`
/// runs every id, `experiments all`, sampled. Unit `rep` of a run with
/// seed `s` visits the ids in the order of seed `s + rep` (seed 0 is
/// paper order), so a run of two or more units, and every traced run,
/// compares the outputs of two orders.
pub struct PaperBench {
    sim: SimMode,
    ids: &'static [&'static str],
    len: u64,
    threads: usize,
    seed: u64,
    jobs: usize,
}

impl PaperBench {
    pub fn setup(sim: SimMode, seed: u64, threads: usize) -> Self {
        let (ids, len): (&'static [&'static str], u64) = match sim {
            SimMode::Full => (&PAPER_FULL_IDS, PAPER_FULL_LEN),
            SimMode::Sample => (&Harness::ALL_IDS, PAPER_SAMPLE_LEN),
        };
        let jobs = planned_configs(ids).len() * checked_suite().len();
        PaperBench {
            sim,
            ids,
            len,
            threads,
            seed,
            jobs,
        }
    }

    fn harness(&self, sim: SimMode, tracer: Option<&Arc<EngineTracer>>) -> Harness {
        let pool = WarmPool::with_sim(WarmMode::Exact, sim, self.len).with_tracer(tracer.cloned());
        Harness::with_pool(self.len, self.threads, pool)
    }
}

impl Bench for PaperBench {
    fn threads(&self) -> usize {
        self.threads
    }

    fn unit(
        &self,
        rep: u64,
        tracer: Option<&Arc<EngineTracer>>,
        clock: &mut Clock,
        checks: &mut Checks,
    ) -> Unit {
        let ids = permuted(self.ids, self.seed.wrapping_add(rep));
        let ((h, rendered), lap) = clock.sampled(|| {
            let mut h = self.harness(self.sim, tracer);
            h.prefetch(&ids);
            let rendered = render(&mut h, &ids, tracer);
            (h, rendered)
        });

        let jobs = h.job_telemetry().len();
        checks.check(jobs == self.jobs, || {
            format!("ran {jobs} jobs, the inventory has {}", self.jobs)
        });
        if self.sim == SimMode::Full {
            // Every run retires its whole trace, warmup included, and no
            // run can retire more, so the sum pins every report.
            let want = self.jobs as u64 * (self.len + self.len / 2);
            let (got, _) = h.simulated_totals();
            checks.check(got == want, || {
                format!("retired {got} uops over the inventory, want {want}")
            });
        }
        let output: Vec<&str> = self.ids.iter().map(|id| rendered[id].as_str()).collect();
        let mut layer = Metrics::new();
        record_pool(&mut layer, pool_counts(&h));
        Unit {
            wall_s: lap.nominal_s,
            host_s: lap.host_s,
            output: output.join("\n"),
            job_ms: job_ms(&h, lap, false),
            result_uops: jobs as u64 * self.len,
            layer,
        }
    }

    /// `paper-sample` only: the accuracy pass. Baseline and RFP are run
    /// obs-instrumented at full fidelity and sampled; the sampled
    /// documents must stay within the committed tolerances, and every
    /// report must retire exactly the measured length.
    fn finish(&self, m: &mut Metrics, checks: &mut Checks) {
        if self.sim != SimMode::Sample {
            return;
        }
        let mut full = self.harness(SimMode::Full, None);
        let mut sampled = self.harness(SimMode::Sample, None);
        let base = CoreConfig::tiger_lake();
        let rfp = CoreConfig::tiger_lake().with_rfp();
        let mut ipc_err_max: f64 = 0.0;
        let mut ipc = BTreeMap::new();
        let mut coverage = Vec::new();
        for (name, cfg) in [("baseline", &base), ("rfp", &rfp)] {
            let f = full.sampling_json(cfg);
            let s = sampled.sampling_json(cfg);
            let gate = diff_metrics_with(&f, &s, Some(SAMPLING_TOLERANCES))
                .expect("sampling documents parse");
            checks.attempted += gate.checked as u64;
            checks.failed += gate.violations.len() as u64;
            if !gate.clean() {
                eprintln!(
                    "{name}: sampled metrics breach the tolerances:\n{}",
                    gate.render()
                );
            }
            let err = sampling_error_report_json(&f, &s).expect("sampling documents parse");
            ipc_err_max = ipc_err_max.max(leaf(&err, "metrics.ipc.max"));
            for (mode, doc) in [("full", &f), ("sample", &s)] {
                // The documents print IPC to six decimals; at these
                // lengths IPC x cycles recovers the retired count to
                // well under half a uop.
                let retired = column(doc, "ipc").into_iter().zip(column(doc, "cycles"));
                for (i, (ipc, cycles)) in retired.enumerate() {
                    let n = (ipc * cycles).round();
                    checks.check(n == self.len as f64, || {
                        format!("{name}/{mode} workload {i}: retired {n} of {}", self.len)
                    });
                }
            }
            ipc.insert((name, "full"), column(&f, "ipc"));
            ipc.insert((name, "sample"), column(&s, "ipc"));
            if name == "rfp" {
                coverage = column(&f, "coverage");
            }
        }
        let speedup = |mode| {
            let r: Vec<f64> = ipc[&("rfp", mode)]
                .iter()
                .zip(&ipc[&("baseline", mode)])
                .map(|(r, b)| r / b)
                .collect();
            (geomean(&r).expect("positive IPCs") - 1.0) * 100.0
        };
        let (full_pct, sampled_pct) = (speedup("full"), speedup("sample"));
        let cov_pct = 100.0 * coverage.iter().sum::<f64>() / coverage.len().max(1) as f64;
        m.insert("fidelity.sample_ipc_err_max", ipc_err_max);
        m.insert(
            "fidelity.sample_speedup_err_pp",
            (sampled_pct - full_pct).abs(),
        );
        m.insert(
            "fidelity.paper_speedup_err_pp",
            (full_pct - PAPER_SPEEDUP_PCT).abs(),
        );
        m.insert(
            "fidelity.paper_coverage_err_pp",
            (cov_pct - PAPER_COVERAGE_PCT).abs(),
        );
        for (name, committed, tolerance) in FIDELITY {
            let v = m[name];
            checks.check(v <= committed + tolerance, || {
                format!("{name} is {v}, more than {committed} + {tolerance}")
            });
        }
    }
}

fn leaf(doc: &str, path: &str) -> f64 {
    let flat = flatten(&parse_json(doc).expect("engine documents parse"));
    match flat.get(path) {
        Some(Json::Num(v)) => *v,
        _ => panic!("no number at {path}"),
    }
}

/// Field `field` of every element of a document's `workloads` array.
fn column(doc: &str, field: &str) -> Vec<f64> {
    let flat = flatten(&parse_json(doc).expect("engine documents parse"));
    (0..)
        .map_while(|i| match flat.get(&format!("workloads[{i}].{field}")) {
            Some(Json::Num(v)) => Some(*v),
            _ => None,
        })
        .collect()
}

// --- store ------------------------------------------------------------------

/// Measured micro-ops per `store` job.
pub const STORE_LEN: u64 = 2_048;

/// Disk use of the store after the cold phase, in MiB, as this revision
/// of the codec writes it, and the share by which it may grow before the
/// run fails a check.
const STORE_DISK_MB: (f64, f64) = (1262.668, 0.02);

/// Experiments of the `store` workload: together, the five configs of
/// the Fig. 15 inventory (fig10 and fig13 are subsets of it, so they add
/// orderings, not jobs).
const STORE_IDS: [&str; 3] = ["fig10", "fig13", "fig15"];

/// `store`: the Fig. 15 inventory against a fresh `ExpStore` in three
/// phases — cold (everything simulated and written), warm (every result
/// read back) and invalidated (the result tier cleared, then a re-run on
/// the warm and trace tiers). The seed permutes the order the ids reach
/// the harness.
pub struct StoreBench {
    threads: usize,
    seed: u64,
    configs: Vec<CoreConfig>,
    suite: Vec<Workload>,
    root: std::path::PathBuf,
}

impl StoreBench {
    pub fn setup(seed: u64, threads: usize, scratch: &Scratch) -> Self {
        StoreBench {
            threads,
            seed,
            configs: planned_configs(&STORE_IDS),
            suite: checked_suite(),
            root: scratch.path().to_path_buf(),
        }
    }

    /// One harness pass over `ids` against `store`: the rendered outputs
    /// in id order, the harness, and the store traffic of the pass.
    fn pass(
        &self,
        ids: &[&str],
        store: &Arc<ExpStore>,
        tracer: Option<&Arc<EngineTracer>>,
    ) -> (String, Harness, StoreStats) {
        let before = store.stats();
        let pool = WarmPool::with_sim(WarmMode::Exact, SimMode::Full, STORE_LEN)
            .with_store(Some(Arc::clone(store)))
            .with_tracer(tracer.cloned());
        let mut h = Harness::with_pool(STORE_LEN, self.threads, pool);
        h.prefetch(ids);
        let rendered = render(&mut h, ids, tracer);
        let after = store.stats();
        let traffic = StoreStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            corrupt: after.corrupt - before.corrupt,
            bytes_read: after.bytes_read - before.bytes_read,
            bytes_written: after.bytes_written - before.bytes_written,
        };
        let text: Vec<&str> = STORE_IDS.iter().map(|id| rendered[id].as_str()).collect();
        (text.join("\n"), h, traffic)
    }

    /// Every job's report as the result tier holds it.
    fn stored_results(&self, store: &ExpStore) -> Vec<Option<SimReport>> {
        let warmup = STORE_LEN / 2;
        self.configs
            .iter()
            .flat_map(|cfg| self.suite.iter().map(move |w| (cfg, w)))
            .map(|(cfg, w)| {
                let key = result_key(
                    STORE_LEN,
                    warmup,
                    SimMode::Full,
                    WarmMode::Exact,
                    false,
                    w.name,
                    cfg,
                );
                store.get::<SimReport>(Tier::Result, &key).map(|(r, _)| r)
            })
            .collect()
    }
}

impl Bench for StoreBench {
    fn threads(&self) -> usize {
        self.threads
    }

    /// Each phase is a lap of its own.
    fn unit(
        &self,
        rep: u64,
        tracer: Option<&Arc<EngineTracer>>,
        clock: &mut Clock,
        checks: &mut Checks,
    ) -> Unit {
        let ids = permuted(&STORE_IDS, self.seed.wrapping_add(rep));
        let dir = Scratch::fresh_in(&self.root, &format!("store-{rep}"));

        let ((store, (cold_text, cold_h, cold_io)), cold) = clock.sampled(|| {
            let store = Arc::new(ExpStore::open(dir.path()).expect("scratch store opens"));
            let pass = self.pass(&ids, &store, tracer);
            (store, pass)
        });
        let disk: u64 = store.disk_stats().iter().map(|u| u.bytes).sum();
        let disk_mb = disk as f64 / (1024.0 * 1024.0);
        let (committed, growth) = STORE_DISK_MB;
        checks.check(disk_mb <= committed * (1.0 + growth), || {
            format!(
                "the cold phase left {disk_mb} MiB on disk, over {committed} MiB by more than {}%",
                growth * 100.0
            )
        });
        let cold_results = self.stored_results(&store);

        let ((warm_text, warm_h, warm_io), warm) =
            clock.sampled(|| self.pass(&ids, &store, tracer));

        let ((inv_text, inv_h, inv_io), inv) = clock.sampled(|| {
            store.clear_tier(Tier::Result);
            self.pass(&ids, &store, tracer)
        });
        let inv_results = self.stored_results(&store);
        let laps = [cold, warm, inv];
        let wall_s: f64 = laps.iter().map(|l| l.nominal_s).sum();

        checks.check(warm_text == cold_text, || {
            "warm-phase output differs from the cold phase".into()
        });
        checks.check(inv_text == cold_text, || {
            "invalidated-phase output differs from the cold phase".into()
        });
        for (i, (c, v)) in cold_results.iter().zip(&inv_results).enumerate() {
            let (Some(c), Some(v)) = (c, v) else {
                checks.check(false, || format!("result {i} missing from the store"));
                continue;
            };
            checks.check(c.canonical_text() == v.canonical_text(), || {
                format!("{}: invalidated report differs from cold", c.workload)
            });
            checks.check(c.stats.retired_uops == STORE_LEN, || {
                format!(
                    "{}: retired {} of {STORE_LEN}",
                    c.workload, c.stats.retired_uops
                )
            });
        }
        let warm_hits = warm_h
            .job_telemetry()
            .iter()
            .filter(|t| t.store == "hit")
            .count();
        checks.check(warm_hits == warm_h.job_telemetry().len(), || {
            format!(
                "warm phase served {warm_hits} of {} jobs from the store",
                warm_h.job_telemetry().len()
            )
        });

        let phases = [&cold_h, &warm_h, &inv_h];
        let jobs: usize = phases.iter().map(|h| h.job_telemetry().len()).sum();
        let result_hits: usize = phases
            .iter()
            .flat_map(|h| h.job_telemetry())
            .filter(|t| t.store == "hit")
            .count();
        let mut layer = Metrics::new();
        let mut counts = [0u64; 3];
        for h in phases {
            for (c, n) in counts.iter_mut().zip(pool_counts(h)) {
                *c += n;
            }
        }
        record_pool(&mut layer, counts);
        let io = [&cold_io, &warm_io, &inv_io];
        let mib = |n: u64| n as f64 / (1024.0 * 1024.0);
        layer.insert(
            "store.written_mb",
            mib(io.iter().map(|s| s.bytes_written).sum()),
        );
        layer.insert("store.read_mb", mib(io.iter().map(|s| s.bytes_read).sum()));
        layer.insert(
            "store.corrupt",
            io.iter().map(|s| s.corrupt).sum::<u64>() as f64,
        );
        layer.insert("store.disk_mb", disk_mb);
        layer.insert(
            "store.hit_frac.result",
            rfp_stats::ratio(result_hits as u64, jobs as u64),
        );
        if let Some(tr) = tracer {
            let warm_gets: Vec<_> = tr
                .spans()
                .into_iter()
                .filter(|s| s.kind == "store-get" && s.key.starts_with("warm|"))
                .collect();
            let hits = warm_gets.iter().filter(|s| s.outcome == "hit").count();
            layer.insert(
                "store.hit_frac.warm",
                rfp_stats::ratio(hits as u64, warm_gets.len() as u64),
            );
        }
        layer.insert("store.phase_frac.cold", cold.nominal_s / wall_s);
        layer.insert("store.phase_frac.warm", warm.nominal_s / wall_s);
        layer.insert("store.phase_frac.invalidated", inv.nominal_s / wall_s);

        // Store hits are reads, not simulation jobs; the warm phase's
        // cost shows in `store.phase_frac.warm`.
        let mut job_times = job_ms(&cold_h, cold, true);
        job_times.extend(job_ms(&inv_h, inv, true));
        Unit {
            wall_s,
            host_s: laps.iter().map(|l| l.host_s).sum(),
            output: format!("{cold_text}\n{}", canonical_opt(&cold_results)),
            job_ms: job_times,
            result_uops: jobs as u64 * STORE_LEN,
            layer,
        }
    }
}

fn canonical_opt(reports: &[Option<SimReport>]) -> String {
    let texts: Vec<String> = reports
        .iter()
        .map(|r| {
            r.as_ref()
                .map_or_else(|| "missing".into(), SimReport::canonical_text)
        })
        .collect();
    texts.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_suite_and_paper_order() {
        assert_eq!(permuted(&Harness::ALL_IDS, 0), Harness::ALL_IDS.to_vec());
        assert_eq!(permuted(&PAPER_FULL_IDS, 0), PAPER_FULL_IDS.to_vec());
        assert_eq!(permuted(&STORE_IDS, 0), STORE_IDS.to_vec());
        let suite = rfp_trace::suite();
        let core = CoreBench::setup(0);
        assert_eq!(
            core.workloads.iter().map(|w| w.name).collect::<Vec<_>>(),
            CORE_WORKLOADS.to_vec()
        );
        for (w, (i, trace)) in core
            .workloads
            .iter()
            .zip(core.traces.iter().step_by(CORE_DRAWS as usize))
        {
            let s = suite.iter().find(|s| s.name == w.name).expect("in suite");
            assert_eq!(w, s, "the core workloads are the suite's");
            assert_eq!(core.workloads[*i].name, w.name);
            assert_eq!(
                trace,
                &s.trace_vec(CORE_LEN + CORE_LEN / 2),
                "draw 0 of seed 0 is the suite workload's own trace"
            );
        }
    }

    #[test]
    fn other_seeds_shift_traces_and_permute_ids() {
        let base = CoreBench::setup(0);
        let shifted = CoreBench::setup(7);
        assert_eq!(base.workloads, shifted.workloads, "same programs");
        let draws: Vec<&[MicroOp]> = base
            .traces
            .iter()
            .chain(&shifted.traces)
            .map(|(_, t)| t.as_slice())
            .collect();
        for (n, a) in draws.iter().enumerate() {
            assert!(
                draws[..n].iter().all(|b| b != a),
                "trace {n}: every draw of both seeds is distinct"
            );
        }
        for ((i, a), (j, b)) in base.traces.iter().zip(&shifted.traces) {
            assert_eq!(i, j);
            let pcs = |t: &[MicroOp]| t.iter().map(|op| op.pc).collect::<HashSet<_>>();
            assert_eq!(
                pcs(a),
                pcs(b),
                "{}: over the same static code",
                base.workloads[*i].name
            );
        }
        let p = permuted(&Harness::ALL_IDS, 1);
        assert_ne!(p, Harness::ALL_IDS.to_vec(), "seed 1 reorders the ids");
        let mut sorted = p.clone();
        sorted.sort_unstable();
        let mut want = Harness::ALL_IDS.to_vec();
        want.sort_unstable();
        assert_eq!(sorted, want, "a permutation, nothing lost or repeated");
        assert_eq!(p, permuted(&Harness::ALL_IDS, 1), "same seed, same order");
    }

    #[test]
    fn store_ids_add_orderings_not_jobs() {
        assert_eq!(
            planned_configs(&STORE_IDS).len(),
            planned_configs(&["fig15"]).len()
        );
    }
}
