//! Work-stealing parallel experiment engine.
//!
//! Every experiment ultimately needs the same thing: the full workload
//! suite simulated under one or more [`CoreConfig`]s. The engine
//! flattens all `(config, workload)` pairs into one global job grid and
//! lets a pool of scoped threads *steal* jobs off a shared atomic index —
//! so a long-running workload never leaves the rest of a static chunk's
//! cores idle, and multiple configurations fill the machine together
//! instead of running one after another.
//!
//! Results are reduced into per-job slots indexed by grid position, so
//! the output order is identical no matter how many threads ran or how
//! the jobs interleaved. Each simulation is seeded and single-threaded,
//! which makes the whole grid bit-deterministic (see
//! `tests/parallel_determinism.rs`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use rfp_core::{
    report_for, simulate_workload, simulate_workload_probed, simulate_workload_probed_from_trace,
    warm_up_workload, CoreConfig, VpMode, WarmState,
};
use rfp_obs::{CpiStackSink, EngineTracer, MetricsSink, ProfileSink, TeeProbe};
use rfp_stats::{CoreStats, CpiReport, ObsMetrics, ProfileReport, SimReport, CPI_INTERVAL_SHIFT};
use rfp_trace::{CompiledTrace, MicroOp, Workload};
use rfp_types::{fnv1a_64, json_escape};

use crate::store::{self, ExpStore, Tier};

/// Worker-thread count to use when the caller doesn't name one: the
/// machine's available parallelism (`RFP_THREADS` overrides it through
/// [`RunEnv`](crate::RunEnv) in the bins).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Content hash of a configuration (FNV-1a over its `Debug` rendering).
///
/// Two configs that would simulate identically hash identically, so a
/// cache keyed by this value dedupes the same configuration reached via
/// different experiments — `fig10`'s RFP run and `fig13`'s are one run.
///
/// # Examples
///
/// ```
/// use rfp_bench::config_key;
/// use rfp_core::CoreConfig;
///
/// let a = config_key(&CoreConfig::tiger_lake());
/// assert_eq!(a, config_key(&CoreConfig::tiger_lake()));
/// assert_ne!(a, config_key(&CoreConfig::tiger_lake().with_rfp()));
/// ```
pub fn config_key(cfg: &CoreConfig) -> u64 {
    fnv1a_64(format!("{cfg:?}").as_bytes())
}

/// How the engine reuses warmup work across the grid (`RFP_WARM_MODE`).
/// Both modes give byte-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmMode {
    /// No snapshotting at all: every job re-runs its own warmup through
    /// the legacy per-job path. Useful as the byte-identity reference.
    Off,
    /// The default. Jobs with equal configurations ([`config_key`]) fork
    /// one shared [`WarmState`], built under that very configuration, so
    /// results are byte-identical to straight-through runs.
    #[default]
    Exact,
}

impl WarmMode {
    /// The mode's name, as `RFP_WARM_MODE` spells it.
    pub fn label(self) -> &'static str {
        match self {
            WarmMode::Off => "off",
            WarmMode::Exact => "exact",
        }
    }
}

impl std::str::FromStr for WarmMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "" | "exact" => Ok(WarmMode::Exact),
            "off" => Ok(WarmMode::Off),
            other => Err(format!("expected off or exact, got {other:?}")),
        }
    }
}

/// Simulation fidelity for grid jobs (`RFP_SIM_MODE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// Simulate every job's full measured region. The accuracy
    /// reference, and the default.
    #[default]
    Full,
    /// Phase-sampled simulation: cluster each workload's interval BBVs
    /// (computed by the trace compiler), simulate one representative
    /// interval per phase plus the ragged tail, and extrapolate every
    /// counter by integer phase weights. Several times faster than
    /// `Full`; per-metric error bounds are committed in
    /// `baselines/sampling_tolerances.json` and enforced by CI.
    Sample,
}

impl SimMode {
    /// The mode's name, as `RFP_SIM_MODE` spells it.
    pub fn label(self) -> &'static str {
        match self {
            SimMode::Full => "full",
            SimMode::Sample => "sample",
        }
    }
}

impl std::str::FromStr for SimMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "" | "full" => Ok(SimMode::Full),
            "sample" => Ok(SimMode::Sample),
            other => Err(format!("expected full or sample, got {other:?}")),
        }
    }
}

/// Interval size of the sampler's BBV grid, in micro-ops. Deliberately
/// equal to the CPI-stack epoch size, so a phase member's interval index
/// doubles as its CPI epoch during extrapolation.
pub const SAMPLE_INTERVAL_UOPS: u64 = 1 << CPI_INTERVAL_SHIFT;

/// Detailed-warming prefix re-simulated in front of every sampled
/// window: the ops immediately before a representative interval rebuild
/// the short-lived state (ROB contents, queue occupancy, MSHR fill) that
/// the long-lived warm snapshot cannot carry across the jump.
pub const SAMPLE_WARM_PREFIX: u64 = 2048;

/// One phase of a [`SamplePlan`]: a cluster of behaviourally-equivalent
/// intervals and the representative simulated on their behalf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplePhase {
    /// Interval index of the representative (the cluster medoid, ties
    /// broken toward the lowest index).
    pub rep: usize,
    /// Member interval indices, ascending (`rep` included).
    pub members: Vec<usize>,
}

/// A workload's phase-sampling plan: which intervals to simulate and the
/// integer weight each result is extrapolated by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplePlan {
    /// Phases in discovery order (ascending first-member index).
    pub phases: Vec<SamplePhase>,
    /// Measured ops past the interval grid, simulated exactly with
    /// weight 1.
    pub tail: u64,
}

impl SamplePlan {
    /// Measured uops the plan actually simulates (one interval per phase
    /// plus the tail) — the numerator of the sampler's speedup estimate.
    pub fn simulated_uops(&self, interval_len: u64) -> u64 {
        self.phases.len() as u64 * interval_len + self.tail
    }
}

/// Clusters `trace`'s interval BBV signatures into phases.
///
/// Deterministic greedy leader clustering: intervals join the first
/// existing phase whose *leader* (first member) is within an L1 distance
/// of `interval_len / 16` op counts, else found a new phase. After
/// grouping, each phase's representative is re-picked as the medoid —
/// the member minimizing total L1 distance to the rest — so an atypical
/// leader doesn't get extrapolated across the whole cluster. No RNG, no
/// floating point: the plan is a pure function of the trace.
pub fn build_sample_plan(trace: &CompiledTrace) -> SamplePlan {
    let sigs = trace.intervals();
    let threshold = trace.interval_len() / 16;
    let mut phases: Vec<SamplePhase> = Vec::new();
    for (i, sig) in sigs.iter().enumerate() {
        match phases
            .iter_mut()
            .find(|p| sigs[p.members[0]].l1_distance(sig) <= threshold)
        {
            Some(p) => p.members.push(i),
            None => phases.push(SamplePhase {
                rep: i,
                members: vec![i],
            }),
        }
    }
    for p in &mut phases {
        let mut best = (u64::MAX, usize::MAX);
        for &a in &p.members {
            let d: u64 = p
                .members
                .iter()
                .map(|&b| sigs[a].l1_distance(&sigs[b]))
                .sum();
            if (d, a) < best {
                best = (d, a);
            }
        }
        p.rep = best.1;
    }
    SamplePlan {
        phases,
        tail: trace.tail_len(),
    }
}

/// The *twin* of a configuration for [`SimMode::Sample`]: the same
/// memory hierarchy, branch handling, and core sizing, but with the
/// measurement-phase features (RFP, value prediction, dedicated RFP
/// ports) stripped. Every config in a typical sweep that varies only
/// those features collapses onto one twin, whose warm caches and
/// predictors are transplanted into each sampled window.
pub fn warm_twin(cfg: &CoreConfig) -> CoreConfig {
    let mut c = cfg.clone();
    c.rfp = None;
    c.vp = VpMode::Off;
    c.ports.dedicated_rfp = 0;
    c
}

/// Counter snapshot of a [`WarmPool`] (see [`WarmPool::stats`]).
#[derive(Debug, Clone)]
pub struct WarmPoolStats {
    /// The pool's sharing mode.
    pub mode: WarmMode,
    /// Forks served from an already-built snapshot.
    pub snapshot_hits: u64,
    /// Snapshots built (first touch of a `(key, workload)` cell).
    pub snapshot_misses: u64,
    /// Sampled windows transplanted from a twin snapshot.
    pub transplants: u64,
    /// Workload traces synthesized (first touch + post-eviction rebuilds).
    pub trace_builds: u64,
    /// Snapshot cells currently held live.
    pub live_snapshots: usize,
    /// The most snapshot cells held at once over the pool's life.
    pub peak_live_snapshots: usize,
    /// Approximate host bytes held by live snapshots.
    pub live_snapshot_bytes: usize,
}

impl WarmPoolStats {
    /// Renders the stats as one JSONL line, appended to `--telemetry-out`
    /// streams so CI can assert the pool actually worked.
    pub fn jsonl_line(&self) -> String {
        let mode = self.mode.label();
        format!(
            "{{\"warm_pool\":{{\"schema\":{TELEMETRY_SCHEMA_VERSION},\
             \"mode\":\"{mode}\",\"snapshot_hits\":{},\
             \"snapshot_misses\":{},\"transplants\":{},\"trace_builds\":{},\
             \"live_snapshots\":{},\"peak_live_snapshots\":{},\
             \"live_snapshot_bytes\":{}}}}}\n",
            self.snapshot_hits,
            self.snapshot_misses,
            self.transplants,
            self.trace_builds,
            self.live_snapshots,
            self.peak_live_snapshots,
            self.live_snapshot_bytes,
        )
    }
}

/// Shared warm-state cache behind the grid runners: memoizes one
/// synthesized trace per workload and one [`WarmState`] per
/// `(warm key, workload)` cell, both `Arc`-shared across the
/// work-stealing workers. Both live in memory only; a configured store
/// serves finished job results and nothing else.
///
/// Snapshots are built lazily inside a per-cell `OnceLock`, so two
/// workers racing to the same cell build it exactly once and one of them
/// forks. A snapshot leaves the pool as soon as the last grid job that
/// forks it holds it (a full-fidelity last fork then runs the snapshot
/// itself, uncloned), and a workload's trace and sample plan as soon as
/// every row of the running grid has finished that workload. A caller
/// that wants plain and instrumented runs of one config to share a
/// warmup puts both rows in one grid ([`run_grid`]).
pub struct WarmPool {
    mode: WarmMode,
    sim: SimMode,
    /// Measured uops per run (the grid's `len`).
    measured: u64,
    /// Warmup uops per run (`len / 2`, matching `simulate_workload`).
    warmup: u64,
    /// Persistent content-addressed store ([`crate::ExpStore`]), when
    /// configured: the grid runner checks it for finished job results
    /// before simulating at all, and publishes each result it simulates.
    /// Traces and warm snapshots stay in memory.
    store: Option<Arc<ExpStore>>,
    /// Engine self-tracer ([`EngineTracer`]), when armed: the pool and
    /// the grid runner record spans for trace compiles, warm captures,
    /// store traffic and job lifecycle. `None` (the default) keeps the
    /// cost to one branch per site.
    tracer: Option<Arc<EngineTracer>>,
    traces: Mutex<HashMap<usize, Arc<CompiledTrace>>>,
    plans: Mutex<HashMap<usize, Arc<SamplePlan>>>,
    #[allow(clippy::type_complexity)]
    snapshots: Mutex<HashMap<(u64, usize), Arc<OnceLock<Arc<WarmState>>>>>,
    peak_snapshots: AtomicUsize,
    snapshot_hits: AtomicU64,
    snapshot_misses: AtomicU64,
    transplants: AtomicU64,
    trace_builds: AtomicU64,
}

impl std::fmt::Debug for WarmPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("WarmPool")
            .field("measured", &self.measured)
            .field("stats", &stats)
            .finish()
    }
}

impl WarmPool {
    /// A pool for grids measuring `len` uops per job, sharing warm state
    /// according to `mode`, at full simulation fidelity.
    pub fn new(mode: WarmMode, len: u64) -> Self {
        Self::with_sim(mode, SimMode::Full, len)
    }

    /// [`WarmPool::new`] with an explicit simulation fidelity. Under
    /// [`SimMode::Sample`] the warm mode is ignored by grid jobs — the
    /// sampler always snapshots under the config's [`warm_twin`] and
    /// jumps between representative intervals from there.
    pub fn with_sim(mode: WarmMode, sim: SimMode, len: u64) -> Self {
        WarmPool {
            mode,
            sim,
            measured: len,
            warmup: len / 2,
            store: None,
            tracer: None,
            traces: Mutex::new(HashMap::new()),
            plans: Mutex::new(HashMap::new()),
            snapshots: Mutex::new(HashMap::new()),
            peak_snapshots: AtomicUsize::new(0),
            snapshot_hits: AtomicU64::new(0),
            snapshot_misses: AtomicU64::new(0),
            transplants: AtomicU64::new(0),
            trace_builds: AtomicU64::new(0),
        }
    }

    /// Replaces the pool's persistent result store (`None`, the default,
    /// disables it).
    pub fn with_store(mut self, store: Option<Arc<ExpStore>>) -> Self {
        self.store = store;
        self
    }

    /// The pool's persistent store, when configured.
    pub fn store(&self) -> Option<&Arc<ExpStore>> {
        self.store.as_ref()
    }

    /// Arms (or disarms, with `None`) the engine self-tracer. Tracing
    /// never changes simulated results — spans carry only engine-side
    /// counters, and wall times stay in the spans' timing stratum — so
    /// `experiments all` output is byte-identical tracer on or off.
    pub fn with_tracer(mut self, tracer: Option<Arc<EngineTracer>>) -> Self {
        self.tracer = tracer;
        self
    }

    /// The pool's engine self-tracer, when armed.
    pub fn tracer(&self) -> Option<&Arc<EngineTracer>> {
        self.tracer.as_ref()
    }

    /// The pool's sharing mode.
    pub fn mode(&self) -> WarmMode {
        self.mode
    }

    /// The pool's simulation fidelity.
    pub fn sim(&self) -> SimMode {
        self.sim
    }

    /// Measured uops per job this pool was sized for.
    pub fn measured_len(&self) -> u64 {
        self.measured
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WarmPoolStats {
        let snaps = self.snapshots.lock().expect("snapshot lock");
        let live_snapshot_bytes = snaps
            .values()
            .filter_map(|cell| cell.get())
            .map(|s| s.approx_bytes())
            .sum();
        WarmPoolStats {
            mode: self.mode,
            snapshot_hits: self.snapshot_hits.load(Ordering::Relaxed),
            snapshot_misses: self.snapshot_misses.load(Ordering::Relaxed),
            transplants: self.transplants.load(Ordering::Relaxed),
            trace_builds: self.trace_builds.load(Ordering::Relaxed),
            live_snapshots: snaps.len(),
            peak_live_snapshots: self.peak_snapshots.load(Ordering::Relaxed),
            live_snapshot_bytes,
        }
    }

    /// The memoized compiled trace (warmup + measured, with interval BBV
    /// signatures over the measured region) for `suite[wi]`, built on
    /// first touch. The compiled op stream is byte-identical to the
    /// generator's, so full-fidelity jobs slice it directly. Spans land
    /// on tracer lane `lane`: the lane of the grid worker whose job asked
    /// for the trace, 0 outside a grid.
    fn trace(&self, suite: &[Workload], wi: usize, lane: u32) -> Arc<CompiledTrace> {
        let mut traces = self.traces.lock().expect("trace lock");
        if let Some(t) = traces.get(&wi) {
            return Arc::clone(t);
        }
        // Built while holding the lock: compilation is ~1% of a job's
        // simulation time, and building once beats racing builds. It is
        // never read from the store: decoding an arena costs more than
        // compiling it.
        let total = self.measured + self.warmup;
        let t0 = self.tracer.as_ref().map(|tr| tr.now_nanos());
        self.trace_builds.fetch_add(1, Ordering::Relaxed);
        let t = Arc::new(suite[wi].compiled(total, self.warmup, SAMPLE_INTERVAL_UOPS));
        if let (Some(tr), Some(t0)) = (&self.tracer, t0) {
            let (name, fields) = (suite[wi].name.to_string(), vec![("uops", total)]);
            tr.record("trace-compile", name, "built", fields, lane, t0);
        }
        traces.insert(wi, Arc::clone(&t));
        t
    }

    /// The memoized [`SamplePlan`] for `suite[wi]`, clustered on first
    /// touch from the compiled trace's BBV grid.
    fn sample_plan(&self, suite: &[Workload], wi: usize, lane: u32) -> Arc<SamplePlan> {
        if let Some(p) = self.plans.lock().expect("plan lock").get(&wi) {
            return Arc::clone(p);
        }
        let trace = self.trace(suite, wi, lane);
        let mut plans = self.plans.lock().expect("plan lock");
        Arc::clone(
            plans
                .entry(wi)
                .or_insert_with(|| Arc::new(build_sample_plan(&trace))),
        )
    }

    /// The shared snapshot for `(key, wi)`, warming `cfg` on first touch.
    /// Concurrent callers block on the cell's `OnceLock` and share the
    /// one build. Spans land on tracer lane `lane`, as in
    /// [`WarmPool::trace`].
    fn snapshot(
        &self,
        cfg: &CoreConfig,
        key: u64,
        suite: &[Workload],
        wi: usize,
        lane: u32,
    ) -> Arc<WarmState> {
        let cell = {
            let mut snaps = self.snapshots.lock().expect("snapshot lock");
            let cell = Arc::clone(snaps.entry((key, wi)).or_default());
            self.peak_snapshots
                .fetch_max(snaps.len(), Ordering::Relaxed);
            cell
        };
        let mut built = false;
        let state = cell.get_or_init(|| {
            built = true;
            self.snapshot_misses.fetch_add(1, Ordering::Relaxed);
            let t0 = self.tracer.as_ref().map(|tr| tr.now_nanos());
            let trace = self.trace(suite, wi, lane);
            let ws = Arc::new(
                warm_up_workload(cfg, &suite[wi], self.warmup, trace.ops().iter().copied())
                    .expect("valid config"),
            );
            if let (Some(tr), Some(t0)) = (&self.tracer, t0) {
                let cell = format!("{}|{key:016x}", suite[wi].name);
                let fields = vec![("warmup", self.warmup)];
                tr.record("warm-capture", cell, "built", fields, lane, t0);
            }
            ws
        });
        if !built {
            self.snapshot_hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(state)
    }

    /// Forks the §9.4 warm snapshot for `suite[wi]` under `cfg` and runs
    /// the measured region with `probe` attached, returning the stats and
    /// the probe. Always the *exact* fork path (the probe observes the
    /// true trajectory) regardless of the pool's warm/sim mode — this is
    /// the `experiments inspect` two-pass entry point, where both passes
    /// must replay the identical measured stream.
    pub fn fork_probed<Q: rfp_obs::Probe>(
        &self,
        cfg: &CoreConfig,
        suite: &[Workload],
        wi: usize,
        probe: Q,
    ) -> (rfp_stats::CoreStats, Q) {
        let trace = self.trace(suite, wi, 0);
        let snap = Arc::unwrap_or_clone(self.snapshot(cfg, config_key(cfg), suite, wi, 0));
        let rest = trace.ops()[snap.consumed_uops() as usize..].iter().copied();
        snap.resume_probed(rest, probe)
    }

    /// Drops the `(key, wi)` snapshot — called once the last grid job
    /// that forks it holds its own reference (see
    /// [`GridJob::settle_fork`]), so a snapshot lives only as long as its
    /// forks.
    fn release_snapshot(&self, key: u64, wi: usize) {
        self.snapshots
            .lock()
            .expect("snapshot lock")
            .remove(&(key, wi));
    }

    /// Drops `suite[wi]`'s trace and sample plan — called when the last
    /// in-flight grid job for that workload finishes.
    fn evict_workload(&self, wi: usize) {
        self.traces.lock().expect("trace lock").remove(&wi);
        self.plans.lock().expect("plan lock").remove(&wi);
    }
}

/// Per-row fork plan for one pooled grid run.
struct JobPlan {
    /// [`config_key`] of the config.
    exact: u64,
    /// Sampled runs only: the twin's key and config, when
    /// the config is *not* its own twin.
    twin: Option<(u64, CoreConfig)>,
    /// Whether a snapshot is worth building: its sharing key occurs at
    /// least twice in the grid.
    worthy: bool,
    /// Index of the row's sharing key among the grid's distinct keys,
    /// numbered in order of first appearance.
    group: usize,
}

impl JobPlan {
    /// The key of the snapshot the job forks, if it forks one: the twin's
    /// under sampling, else its own.
    fn share(&self) -> u64 {
        self.twin.as_ref().map_or(self.exact, |(k, _)| *k)
    }
}

/// Per-row fork plans, and the number of rows in each sharing group
/// (indexed by [`JobPlan::group`]). A config's plain and instrumented
/// rows share a key, so they fall into one group and fork one snapshot.
fn plan_jobs(pool: &WarmPool, rows: &[(CoreConfig, bool)]) -> (Vec<JobPlan>, Vec<usize>) {
    let mut plans: Vec<JobPlan> = rows
        .iter()
        .map(|(cfg, _)| {
            let exact = config_key(cfg);
            let twin = if pool.sim == SimMode::Sample {
                let twin_cfg = warm_twin(cfg);
                let twin_key = config_key(&twin_cfg);
                (twin_key != exact).then_some((twin_key, twin_cfg))
            } else {
                None
            };
            JobPlan {
                exact,
                twin,
                worthy: false,
                group: 0,
            }
        })
        .collect();
    // A snapshot pays for itself when its sharing key serves >= 2 jobs,
    // store or no store: snapshots live only in memory, so one that
    // nothing forks twice is capture cost for nothing.
    let mut groups: HashMap<u64, usize> = HashMap::new();
    let mut sizes: Vec<usize> = Vec::new();
    for p in &mut plans {
        p.group = *groups.entry(p.share()).or_insert_with(|| {
            sizes.push(0);
            sizes.len() - 1
        });
        sizes[p.group] += 1;
    }
    for p in &mut plans {
        p.worthy = sizes[p.group] >= 2;
    }
    (plans, sizes)
}

/// One claimed grid job: everything [`pooled_job`] needs besides the
/// pool.
struct GridJob<'a> {
    cfg: &'a CoreConfig,
    plan: &'a JobPlan,
    suite: &'a [Workload],
    wi: usize,
    /// Tracer lane of the worker running the job: the pool records the
    /// job's trace compiles and warm captures there, inside its
    /// `simulate` span.
    lane: u32,
    /// The forks its `(workload, group)` snapshot still has to hand
    /// out, until this job settles its share (`None` once settled, or
    /// when the pool shares no warm state).
    forks_left: Option<&'a AtomicUsize>,
}

impl GridJob<'_> {
    /// Counts this job off its group's forks, once. A forking job
    /// settles right after it holds the snapshot; any other job (store
    /// hit, straight run) when it ends. So when the count reaches zero
    /// every fork already holds its own reference, and the job that
    /// brings it there releases the pool's, which lets the last fork
    /// take the snapshot instead of cloning it.
    fn settle_fork(&mut self, pool: &WarmPool) {
        if let Some(left) = self.forks_left.take() {
            if left.fetch_sub(1, Ordering::AcqRel) == 1 {
                pool.release_snapshot(self.plan.share(), self.wi);
            }
        }
    }
}

/// Runs one `(config, workload)` job through the pool, returning the
/// report and which warm path served it.
fn pooled_job(
    pool: &WarmPool,
    job: &mut GridJob<'_>,
    collect_obs: bool,
) -> (SimReport, &'static str) {
    if pool.sim == SimMode::Sample {
        return sampled_job(pool, job, collect_obs);
    }
    let (cfg, suite, wi, lane) = (job.cfg, job.suite, job.wi, job.lane);
    let w = &suite[wi];
    if pool.mode == WarmMode::Off {
        let report = if collect_obs {
            let (mut r, sink) =
                simulate_workload_probed(cfg, w, pool.measured, obs_sinks()).expect("valid config");
            attach_obs(&mut r, sink);
            r
        } else {
            simulate_workload(cfg, w, pool.measured).expect("valid config")
        };
        return (report, "off");
    }
    if !job.plan.worthy {
        let trace = pool.trace(suite, wi, lane);
        let report = if collect_obs {
            let (mut r, sink) = simulate_workload_probed_from_trace(
                cfg,
                w,
                pool.warmup,
                trace.ops().iter().copied(),
                obs_sinks(),
            )
            .expect("valid config");
            attach_obs(&mut r, sink);
            r
        } else {
            simulate_workload_probed_from_trace(
                cfg,
                w,
                pool.warmup,
                trace.ops().iter().copied(),
                rfp_obs::NoopProbe,
            )
            .expect("valid config")
            .0
        };
        return (report, "straight");
    }
    let snap = pool.snapshot(cfg, job.plan.exact, suite, wi, lane);
    job.settle_fork(pool);
    // Moves the snapshot out when no other fork still holds it.
    let snap = Arc::unwrap_or_clone(snap);
    let trace = pool.trace(suite, wi, lane);
    let rest = trace.ops()[snap.consumed_uops() as usize..].iter().copied();
    let report = if collect_obs {
        let (stats, sink) = snap.resume_probed(rest, obs_sinks());
        let mut r = report_for(w, stats);
        attach_obs(&mut r, sink);
        r
    } else {
        report_for(w, snap.resume(rest))
    };
    (report, "fork")
}

/// Simulates one sampled window: up to [`SAMPLE_WARM_PREFIX`] ops of
/// detailed warming before `start`, then `mlen` measured ops, riding the
/// shared twin snapshot. When `cfg` *is* its own twin the fork resumes
/// exactly; otherwise the snapshot's caches and predictors are
/// transplanted into a fresh `cfg` core first.
fn window_run<Q: rfp_obs::Probe>(
    snap: &WarmState,
    cfg: &CoreConfig,
    own_twin: bool,
    ops: &[MicroOp],
    start: u64,
    mlen: u64,
    probe: Q,
) -> (CoreStats, Q) {
    let prefix = SAMPLE_WARM_PREFIX.min(start);
    let window = ops[(start - prefix) as usize..(start + mlen) as usize]
        .iter()
        .copied();
    if own_twin {
        snap.resume_window_probed(window, prefix, probe)
    } else {
        snap.transplant_window_probed(cfg, window, prefix, probe)
            .expect("valid config")
    }
}

/// Runs one `(config, workload)` job in [`SimMode::Sample`].
///
/// One warm snapshot per workload (under the config's [`warm_twin`], so
/// every config in the sweep shares it), then one simulated window per
/// phase representative plus the exactly-simulated ragged tail. Every
/// counter is extrapolated by integer phase weights
/// ([`CoreStats::merge_scaled`]), which preserves the simulator's linear
/// invariants — funnel balance, profile reconciliation, CPI conservation
/// — exactly; the representative's CPI stack is placed at each member's
/// epoch so interval time-series keep their shape. Host wall time is
/// summed unscaled (it measures real work done). With fewer than two
/// full intervals sampling cannot skip anything, so the job runs the
/// whole measured region straight from the compiled arena
/// (`"sample-full"`), which is bit-equal to full fidelity.
fn sampled_job(
    pool: &WarmPool,
    job: &mut GridJob<'_>,
    collect_obs: bool,
) -> (SimReport, &'static str) {
    let (cfg, suite, wi, lane) = (job.cfg, job.suite, job.wi, job.lane);
    let w = &suite[wi];
    let compiled = pool.trace(suite, wi, lane);
    if compiled.intervals().len() < 2 {
        let report = if collect_obs {
            let (mut r, sink) = simulate_workload_probed_from_trace(
                cfg,
                w,
                pool.warmup,
                compiled.ops().iter().copied(),
                obs_sinks(),
            )
            .expect("valid config");
            attach_obs(&mut r, sink);
            r
        } else {
            simulate_workload_probed_from_trace(
                cfg,
                w,
                pool.warmup,
                compiled.ops().iter().copied(),
                rfp_obs::NoopProbe,
            )
            .expect("valid config")
            .0
        };
        return (report, "sample-full");
    }
    let splan = pool.sample_plan(suite, wi, lane);
    let (key, warm_cfg, own_twin) = match &job.plan.twin {
        None => (job.plan.exact, cfg, true),
        Some((k, c)) => (*k, c, false),
    };
    // Every window forks the snapshot by reference, so the job keeps
    // its `Arc` to the end and never takes the snapshot.
    let snap = pool.snapshot(warm_cfg, key, suite, wi, lane);
    job.settle_fork(pool);
    // Windows to simulate: `(start, measured len, member epochs)`. The
    // weight of a window is its member count; members double as CPI
    // epoch indices because the interval size equals the epoch size.
    let interval = compiled.interval_len();
    let n_full = compiled.intervals().len();
    let mut windows: Vec<(u64, u64, &[usize])> = splan
        .phases
        .iter()
        .map(|p| (compiled.intervals()[p.rep].start, interval, &p.members[..]))
        .collect();
    let tail_epoch = [n_full];
    if splan.tail > 0 {
        let tail_start = compiled.measured_from() + n_full as u64 * interval;
        windows.push((tail_start, splan.tail, &tail_epoch[..]));
    }
    if !own_twin {
        pool.transplants
            .fetch_add(windows.len() as u64, Ordering::Relaxed);
    }
    let ops = compiled.ops();
    let mut stats = CoreStats::default();
    let report = if collect_obs {
        let mut obs = ObsMetrics::default();
        let mut cpi = CpiReport::default();
        let mut profile = ProfileReport::default();
        for &(start, mlen, epochs) in &windows {
            let (s, sink) = window_run(&snap, cfg, own_twin, ops, start, mlen, obs_sinks());
            let weight = epochs.len() as u64;
            stats.merge_scaled(&s, weight);
            obs.merge_scaled(&sink.a.a.into_metrics(), weight);
            let c = sink.a.b.into_report();
            for &e in epochs {
                cpi.merge_scaled_at(&c, 1, e);
            }
            profile.merge_scaled(&sink.b.into_report(), weight);
        }
        let mut r = report_for(w, stats);
        r.obs = Some(Box::new(obs));
        r.cpi = Some(Box::new(cpi));
        r.profile = Some(Box::new(profile));
        r
    } else {
        for &(start, mlen, epochs) in &windows {
            let (s, _) = window_run(&snap, cfg, own_twin, ops, start, mlen, rfp_obs::NoopProbe);
            stats.merge_scaled(&s, epochs.len() as u64);
        }
        report_for(w, stats)
    };
    let warm = if own_twin {
        "sample-fork"
    } else {
        "sample-transplant"
    };
    (report, warm)
}

/// The sink trio every instrumented grid job carries: latency metrics,
/// the CPI stack, and the per-load-PC profile, fanned out from one
/// event stream.
type ObsSinks = TeeProbe<TeeProbe<MetricsSink, CpiStackSink>, ProfileSink>;

fn obs_sinks() -> ObsSinks {
    TeeProbe::new(
        TeeProbe::new(MetricsSink::new(), CpiStackSink::new()),
        ProfileSink::new(),
    )
}

/// Moves a drained sink trio into the report's `obs`/`cpi`/`profile`
/// slots.
fn attach_obs(r: &mut SimReport, sink: ObsSinks) {
    r.obs = Some(Box::new(sink.a.a.into_metrics()));
    r.cpi = Some(Box::new(sink.a.b.into_report()));
    r.profile = Some(Box::new(sink.b.into_report()));
}

/// Per-job scheduling and wall-time telemetry from one grid run.
///
/// Everything here describes the *host-side* execution of a job —
/// which worker ran it, how deep the unclaimed queue was when it was
/// grabbed, how long it took — and is therefore host- and
/// schedule-dependent. It is deliberately kept out of [`SimReport`]
/// so the simulated results stay byte-deterministic; telemetry is a
/// side channel for engine tuning (see `--telemetry-out`).
#[derive(Debug, Clone)]
pub struct JobTelemetry {
    /// Grid position (`row_index * n_workloads + workload_index`).
    pub job: usize,
    /// Index of the job's row within the grid's row list.
    pub config: usize,
    /// Workload name.
    pub workload: &'static str,
    /// Worker thread (0-based) that claimed the job.
    pub worker: usize,
    /// Jobs not yet claimed at grab time, this one included — a proxy
    /// for how much stealing headroom remained.
    pub queue_depth: usize,
    /// Host wall time the simulation took.
    pub wall_nanos: u64,
    /// Warm path that served the job: `"off"` (legacy, pool disabled),
    /// `"straight"` (memoized trace, own warmup), or `"fork"` (resumed a
    /// shared snapshot). Under [`SimMode::Sample`]: `"sample-fork"` /
    /// `"sample-transplant"` (phase-sampled windows off the twin
    /// snapshot) or `"sample-full"` (degenerate short run, simulated in
    /// full). `"store"` means the
    /// whole job was served from the persistent result store and nothing
    /// was simulated.
    pub warm: &'static str,
    /// Result-store outcome for this job: `"off"` (no store configured),
    /// `"hit"` (report read from disk, nothing simulated) or `"miss"`
    /// (simulated, then published).
    pub store: &'static str,
    /// Result-entry bytes read on a store hit (0 otherwise).
    pub store_bytes_read: u64,
    /// Result-entry bytes published on a store miss (0 otherwise, and 0
    /// when the best-effort publish failed).
    pub store_bytes_written: u64,
}

/// Everything one work-stealing grid run produces: one suite-ordered
/// report vector per config plus per-job telemetry sorted by grid
/// position.
#[derive(Debug)]
pub struct GridOutcome {
    /// One suite-ordered report vector per config, in config order.
    pub reports: Vec<Vec<SimReport>>,
    /// Per-job host telemetry, sorted by grid position.
    pub telemetry: Vec<JobTelemetry>,
}

/// Simulates the whole workload suite under every row of `rows` on
/// `threads` work-stealing workers, through `pool` (which fixes the
/// measured length, the warm and sim modes, the store and the tracer).
/// A row is a config and its obs flag: with the flag set every
/// simulation of the row carries the latency-metrics, CPI-stack and
/// profile sinks. A config may appear twice, plain and instrumented;
/// both rows then fork one snapshot per workload.
///
/// The job grid is `(row, workload)` pairs; a shared atomic index
/// hands the next job to whichever worker frees up first. Jobs are
/// claimed in *workload-major* order — all rows of workload 0, then
/// workload 1 — and within a workload grouped by sharing key (groups in
/// order of first appearance, row order within a group), so the forks
/// of one snapshot run back to back. The pool lets go of each snapshot
/// when its last fork takes hold of it, and of a workload's trace when
/// its last job finishes, so a sweep holds about one snapshot per worker.
/// Every span a job causes, trace compiles and warm captures included,
/// lands on its worker's tracer lane (`worker + 1`). Reports land in
/// row-major grid positions and each
/// simulation is internally seeded, so output is byte-identical at every
/// thread count (see `tests/parallel_determinism.rs`).
///
/// # Panics
///
/// Panics if a config is invalid or a worker thread panics.
pub fn run_grid(pool: &WarmPool, rows: &[(CoreConfig, bool)], threads: usize) -> GridOutcome {
    let suite = rfp_trace::suite();
    let n_workloads = suite.len();
    let n_rows = rows.len();
    let n_jobs = n_rows * n_workloads;
    if n_jobs == 0 {
        return GridOutcome {
            reports: rows.iter().map(|_| Vec::new()).collect(),
            telemetry: Vec::new(),
        };
    }
    let (plans, group_sizes) = plan_jobs(pool, rows);
    let n_groups = group_sizes.len();
    // Claim order within a workload; `sort_by_key` is stable, so rows
    // keep their order within a group.
    let mut order: Vec<usize> = (0..n_rows).collect();
    order.sort_by_key(|&ci| plans[ci].group);
    let threads = threads.clamp(1, n_jobs);
    let next = AtomicUsize::new(0);
    let remaining: Vec<AtomicUsize> = (0..n_workloads).map(|_| AtomicUsize::new(n_rows)).collect();
    // Jobs left per `(workload, group)` cell: the forks its snapshot
    // still has to hand out (see `GridJob::settle_fork`).
    let forks_left: Vec<AtomicUsize> = (0..n_workloads)
        .flat_map(|_| group_sizes.iter().map(|&n| AtomicUsize::new(n)))
        .collect();
    // Whether jobs share warm state at all: the counts above and the
    // pool's trace/snapshot eviction apply only then.
    let shares = pool.mode() != WarmMode::Off || pool.sim() == SimMode::Sample;

    let per_worker: Vec<Vec<(SimReport, JobTelemetry)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let next = &next;
                let suite = &suite;
                let plans = &plans;
                let order = &order;
                let remaining = &remaining;
                let forks_left = &forks_left;
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let claim = next.fetch_add(1, Ordering::Relaxed);
                        if claim >= n_jobs {
                            break;
                        }
                        // Workload-major, group-ordered claim order;
                        // row-major grid position (what slot reduction
                        // and telemetry sorting key on).
                        let (wi, ci) = (claim / n_rows, order[claim % n_rows]);
                        let (cfg, collect_obs) = (&rows[ci].0, rows[ci].1);
                        let job = ci * n_workloads + wi;
                        let t0 = Instant::now();
                        let lane = worker as u32 + 1;
                        let mut grid_job = GridJob {
                            cfg,
                            plan: &plans[ci],
                            suite,
                            wi,
                            lane,
                            forks_left: shares
                                .then(|| &forks_left[wi * n_groups + plans[ci].group]),
                        };
                        let cell = || format!("{}|cfg{}", suite[wi].name, ci);
                        if let Some(tr) = pool.tracer() {
                            tr.instant(
                                "claim",
                                cell(),
                                "claimed",
                                vec![
                                    ("claim", claim as u64),
                                    ("queue_depth", (n_jobs - claim) as u64),
                                ],
                                lane,
                            );
                        }
                        let sim_start = pool.tracer().map(|tr| tr.now_nanos());
                        // Persistent-store fast path: a verified result
                        // entry replaces the whole simulation. On a miss
                        // the freshly simulated report is published so
                        // the next sweep (or process) hits.
                        let (report, warm, store_tag, s_read, s_written) = match pool.store() {
                            Some(s) => {
                                let key = store::result_key(
                                    pool.measured,
                                    pool.warmup,
                                    pool.sim,
                                    pool.mode,
                                    collect_obs,
                                    suite[wi].name,
                                    cfg,
                                );
                                match s.get::<SimReport>(Tier::Result, &key) {
                                    Some((r, n)) => {
                                        if let Some(tr) = pool.tracer() {
                                            tr.instant(
                                                "store-get",
                                                format!("result|{}", cell()),
                                                "hit",
                                                vec![("bytes", n)],
                                                lane,
                                            );
                                        }
                                        (r, "store", "hit", n, 0)
                                    }
                                    None => {
                                        if let Some(tr) = pool.tracer() {
                                            tr.instant(
                                                "store-get",
                                                format!("result|{}", cell()),
                                                "miss",
                                                vec![],
                                                lane,
                                            );
                                        }
                                        let (r, warm) =
                                            pooled_job(pool, &mut grid_job, collect_obs);
                                        let written = s.put(Tier::Result, &key, &r);
                                        if let Some(tr) = pool.tracer() {
                                            tr.instant(
                                                "store-put",
                                                format!("result|{}", cell()),
                                                "published",
                                                vec![("bytes", written)],
                                                lane,
                                            );
                                        }
                                        (r, warm, "miss", 0, written)
                                    }
                                }
                            }
                            None => {
                                let (r, warm) = pooled_job(pool, &mut grid_job, collect_obs);
                                (r, warm, "off", 0, 0)
                            }
                        };
                        if let (Some(tr), Some(s0)) = (pool.tracer(), sim_start) {
                            tr.record(
                                "simulate",
                                cell(),
                                warm,
                                vec![("obs", u64::from(collect_obs))],
                                lane,
                                s0,
                            );
                        }
                        if shares {
                            // A job that forked nothing settles here.
                            grid_job.settle_fork(pool);
                            if remaining[wi].fetch_sub(1, Ordering::AcqRel) == 1 {
                                pool.evict_workload(wi);
                            }
                        }
                        done.push((
                            report,
                            JobTelemetry {
                                job,
                                config: ci,
                                workload: suite[wi].name,
                                worker,
                                queue_depth: n_jobs - claim,
                                wall_nanos: t0.elapsed().as_nanos() as u64,
                                warm,
                                store: store_tag,
                                store_bytes_read: s_read,
                                store_bytes_written: s_written,
                            },
                        ));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    // Order-stable reduction: each job index is produced exactly once.
    let reduce_start = pool.tracer().map(|tr| tr.now_nanos());
    let mut slots: Vec<Option<SimReport>> = vec![None; n_jobs];
    let mut telemetry = Vec::with_capacity(n_jobs);
    for (report, tel) in per_worker.into_iter().flatten() {
        debug_assert!(slots[tel.job].is_none(), "job {} produced twice", tel.job);
        slots[tel.job] = Some(report);
        telemetry.push(tel);
    }
    telemetry.sort_by_key(|t| t.job);
    let mut slots = slots.into_iter();
    let reports = rows
        .iter()
        .map(|_| {
            (&mut slots)
                .take(n_workloads)
                .map(|r| r.expect("every job ran"))
                .collect()
        })
        .collect();
    if let (Some(tr), Some(r0)) = (pool.tracer(), reduce_start) {
        tr.record(
            "reduce",
            "grid".to_string(),
            "ok",
            vec![
                ("jobs", n_jobs as u64),
                ("configs", n_rows as u64),
                ("workloads", n_workloads as u64),
            ],
            0,
            r0,
        );
        // Host-dependent schedule facts go to the quarantined timing
        // counters, never into span fields: worker count, claim-order
        // worker handoffs ("steals"), and summed job wall time.
        tr.timing_max("workers", threads as u64);
        tr.timing_counter(
            "wall_nanos",
            telemetry.iter().map(|t| t.wall_nanos).sum::<u64>(),
        );
        let mut by_claim: Vec<(usize, usize)> = telemetry
            .iter()
            .map(|t| (n_jobs - t.queue_depth, t.worker))
            .collect();
        by_claim.sort_unstable();
        let steals = by_claim.windows(2).filter(|w| w[0].1 != w[1].1).count() as u64;
        tr.timing_counter("steals", steals);
    }
    GridOutcome { reports, telemetry }
}

/// Schema version of the engine's JSONL side channels: the per-job
/// telemetry lines and the `warm_pool`/`store` summary blocks appended
/// to `--telemetry-out` streams. Bump whenever a field is added,
/// removed or reinterpreted.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 2;

/// Renders job telemetry as JSONL (one object per line), ready for
/// `--telemetry-out` or ad-hoc analysis with `jq`. Workload names pass
/// through [`json_escape`], so names with quotes or backslashes stay
/// valid JSON.
pub fn telemetry_jsonl(telemetry: &[JobTelemetry]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for t in telemetry {
        writeln!(
            out,
            "{{\"schema\":{TELEMETRY_SCHEMA_VERSION},\
             \"job\":{},\"config\":{},\"workload\":\"{}\",\"worker\":{},\
             \"queue_depth\":{},\"wall_nanos\":{},\"warm\":\"{}\",\
             \"store\":\"{}\",\"store_bytes_read\":{},\"store_bytes_written\":{}}}",
            t.job,
            t.config,
            json_escape(t.workload),
            t.worker,
            t.queue_depth,
            t.wall_nanos,
            t.warm,
            t.store,
            t.store_bytes_read,
            t.store_bytes_written,
        )
        .expect("write to String");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One grid row per config, every row with the same obs flag.
    fn rows(configs: &[CoreConfig], obs: bool) -> Vec<(CoreConfig, bool)> {
        configs.iter().map(|c| (c.clone(), obs)).collect()
    }

    /// A fresh store directory, removed on drop.
    struct Dir(std::path::PathBuf);

    impl Dir {
        fn new(tag: &str) -> Dir {
            Dir(std::env::temp_dir().join(format!("rfp-engine-{tag}-{}", std::process::id())))
        }

        fn store(&self) -> Option<Arc<ExpStore>> {
            Some(Arc::new(ExpStore::open(&self.0).expect("open store")))
        }
    }

    impl Drop for Dir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn config_key_is_content_based() {
        let a = CoreConfig::tiger_lake();
        let b = CoreConfig::tiger_lake();
        assert_eq!(config_key(&a), config_key(&b));
        let mut c = CoreConfig::tiger_lake();
        c.rob_entries += 1;
        assert_ne!(config_key(&a), config_key(&c));
    }

    #[test]
    fn empty_grid_returns_empty_per_config() {
        let out = run_grid(&WarmPool::new(WarmMode::Exact, 1_000), &[], 4);
        assert!(out.reports.is_empty() && out.telemetry.is_empty());
    }

    #[test]
    fn grid_rows_follow_config_order() {
        let configs = [
            CoreConfig::tiger_lake(),
            CoreConfig::tiger_lake().with_rfp(),
        ];
        let out = run_grid(
            &WarmPool::new(WarmMode::Exact, 400),
            &rows(&configs, false),
            3,
        )
        .reports;
        assert_eq!(out.len(), 2);
        let suite = rfp_trace::suite();
        for row in &out {
            assert_eq!(row.len(), suite.len());
            for (r, w) in row.iter().zip(&suite) {
                assert_eq!(r.workload, w.name);
            }
        }
        // The RFP row must actually have run the RFP config.
        assert!(out[1].iter().any(|r| r.stats.rfp_injected > 0));
        assert!(out[0].iter().all(|r| r.stats.rfp_injected == 0));
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn full_grid_reports_one_telemetry_row_per_job() {
        let configs = [CoreConfig::tiger_lake()];
        let out = run_grid(
            &WarmPool::new(WarmMode::Exact, 300),
            &rows(&configs, false),
            3,
        );
        let n = rfp_trace::suite().len();
        assert_eq!(out.telemetry.len(), n);
        for (i, t) in out.telemetry.iter().enumerate() {
            assert_eq!(t.job, i, "telemetry sorted by grid position");
            assert_eq!(t.config, 0);
            assert_eq!(t.queue_depth, n - i);
            assert!(t.worker < 3);
        }
        // Plain runs carry no obs payload.
        assert!(out.reports[0].iter().all(|r| r.obs.is_none()));
    }

    #[test]
    fn obs_grid_attaches_metrics_without_changing_stats() {
        let configs = [CoreConfig::tiger_lake().with_rfp()];
        let pool = WarmPool::new(WarmMode::Exact, 400);
        let plain = run_grid(&pool, &rows(&configs, false), 2).reports;
        let obs = run_grid(&pool, &rows(&configs, true), 2).reports;
        for (p, o) in plain[0].iter().zip(&obs[0]) {
            assert_eq!(
                p.stats, o.stats,
                "{}: probing changed the simulation",
                p.workload
            );
            let m = o.obs.as_ref().expect("obs attached");
            assert_eq!(
                m.rfp_complete_rel_issue.total(),
                o.stats.rfp_useful,
                "{}: one timeliness sample per useful prefetch",
                o.workload
            );
            let prof = o.profile.as_ref().expect("profile attached");
            let t = prof.totals();
            assert_eq!(
                t.useful(),
                o.stats.rfp_useful,
                "{}: per-site useful sums to the aggregate",
                o.workload
            );
            assert_eq!(
                t.injected, o.stats.rfp_injected,
                "{}: per-site injections sum to the aggregate",
                o.workload
            );
        }
    }

    #[test]
    fn telemetry_jsonl_is_line_per_job_json() {
        let rows = [JobTelemetry {
            job: 3,
            config: 1,
            workload: "w\"x",
            worker: 0,
            queue_depth: 7,
            wall_nanos: 42,
            warm: "fork",
            store: "hit",
            store_bytes_read: 9,
            store_bytes_written: 0,
        }];
        let s = telemetry_jsonl(&rows);
        assert_eq!(
            s,
            "{\"schema\":2,\"job\":3,\"config\":1,\"workload\":\"w\\\"x\",\"worker\":0,\
             \"queue_depth\":7,\"wall_nanos\":42,\"warm\":\"fork\",\
             \"store\":\"hit\",\"store_bytes_read\":9,\"store_bytes_written\":0}\n"
        );
    }

    #[test]
    fn warm_twin_collapses_measurement_features() {
        let base = CoreConfig::tiger_lake();
        let rfp = CoreConfig::tiger_lake().with_rfp();
        let mut dedicated = CoreConfig::tiger_lake().with_rfp();
        dedicated.ports.dedicated_rfp = 2;
        // All three warm up identically once RFP/VP/ports are stripped.
        let t = config_key(&warm_twin(&base));
        assert_eq!(t, config_key(&warm_twin(&rfp)));
        assert_eq!(t, config_key(&warm_twin(&dedicated)));
        // The baseline is its own twin.
        assert_eq!(t, config_key(&base));
        assert_ne!(t, config_key(&rfp));
        // Twins always validate (they must be runnable configs).
        warm_twin(&dedicated).validate().unwrap();
    }

    #[test]
    fn pooled_grid_matches_unpooled_at_any_mode() {
        // The plain and instrumented rows of one config share a snapshot
        // key: the exact pool forks one snapshot per workload; results
        // must be byte-identical to the pool-disabled engine.
        let cfg = CoreConfig::tiger_lake().with_rfp();
        let grid_rows = [(cfg.clone(), false), (cfg, true)];
        let off = run_grid(&WarmPool::new(WarmMode::Off, 400), &grid_rows, 2);
        let exact = run_grid(&WarmPool::new(WarmMode::Exact, 400), &grid_rows, 2);
        for (o, e) in off
            .reports
            .iter()
            .flatten()
            .zip(exact.reports.iter().flatten())
        {
            assert_eq!(o.stats, e.stats, "{}: exact fork diverged", o.workload);
        }
        assert!(exact.telemetry.iter().all(|t| t.warm == "fork"));
        assert!(off.telemetry.iter().all(|t| t.warm == "off"));
    }

    #[test]
    fn pool_counts_hits_and_evicts_bands() {
        let configs = [
            CoreConfig::tiger_lake(),
            CoreConfig::tiger_lake(), // duplicate: shares every snapshot
        ];
        let pool = WarmPool::new(WarmMode::Exact, 300);
        run_grid(&pool, &rows(&configs, false), 2);
        let stats = pool.stats();
        let n = rfp_trace::suite().len();
        assert_eq!(stats.snapshot_misses, n as u64, "one build per workload");
        assert_eq!(stats.snapshot_hits, n as u64, "one fork per workload");
        assert_eq!(stats.live_snapshots, 0, "bands evicted as they finish");
        assert!(stats.trace_builds >= n as u64);
    }

    #[test]
    fn a_snapshot_is_dropped_after_its_last_fork() {
        // A's plain and instrumented rows share a snapshot key, and so
        // do C's. Listed as [A, C, A obs, C obs], the grid still claims
        // both A rows, then both C rows per workload, so one worker holds
        // one snapshot at a time.
        let a = CoreConfig::tiger_lake();
        let c = CoreConfig::tiger_lake().with_rfp();
        let grid_rows = [(a.clone(), false), (c.clone(), false), (a, true), (c, true)];
        let pool = WarmPool::new(WarmMode::Exact, 300);
        let exact = run_grid(&pool, &grid_rows, 1);
        let stats = pool.stats();
        let n = rfp_trace::suite().len() as u64;
        assert_eq!((stats.snapshot_misses, stats.snapshot_hits), (2 * n, 2 * n));
        assert_eq!(
            stats.peak_live_snapshots, 1,
            "a snapshot outlived its forks"
        );
        assert_eq!(stats.live_snapshots, 0);
        assert!(exact.telemetry.iter().all(|t| t.warm == "fork"));
        let off = run_grid(&WarmPool::new(WarmMode::Off, 300), &grid_rows, 1);
        assert_eq!(exact.reports, off.reports);
    }

    #[test]
    fn plain_and_obs_rows_of_one_config_fork_one_snapshot() {
        let cfg = CoreConfig::tiger_lake().with_rfp();
        let pool = WarmPool::new(WarmMode::Exact, 300);
        let out = run_grid(&pool, &[(cfg.clone(), false), (cfg, true)], 2);
        let n = rfp_trace::suite().len();
        // Both rows form one sharing group, so every job forks, the obs
        // row's included.
        assert!(out.telemetry.iter().all(|t| t.warm == "fork"));
        let stats = pool.stats();
        assert_eq!(
            (stats.snapshot_misses, stats.snapshot_hits),
            (n as u64, n as u64)
        );
        assert_eq!(stats.live_snapshots, 0, "every snapshot released");
        assert_eq!(stats.trace_builds, n as u64, "one trace per workload");
        for (p, o) in out.reports[0].iter().zip(&out.reports[1]) {
            assert_eq!(p.stats, o.stats, "{}: probed fork diverged", p.workload);
            assert!(p.obs.is_none() && o.obs.is_some());
        }
    }

    #[test]
    fn pool_spans_nest_in_a_simulate_span_on_their_own_lane() {
        let dir = Dir::new("lanes");
        let tracer = Arc::new(EngineTracer::new());
        // The baseline's plain and instrumented rows share a snapshot key
        // and fork; the RFP config runs straight.
        let a = CoreConfig::tiger_lake();
        let grid_rows = [
            (a.clone(), false),
            (a, true),
            (CoreConfig::tiger_lake().with_rfp(), false),
        ];
        let pool = WarmPool::new(WarmMode::Exact, 300)
            .with_store(dir.store())
            .with_tracer(Some(Arc::clone(&tracer)));
        let out = run_grid(&pool, &grid_rows, 2);
        let spans = tracer.spans();
        let inside = |s: &rfp_obs::EngineSpan| {
            spans.iter().any(|p| {
                p.kind == "simulate"
                    && p.lane == s.lane
                    && p.start_nanos <= s.start_nanos
                    && p.start_nanos + p.dur_nanos >= s.start_nanos + s.dur_nanos
            })
        };
        let pooled: Vec<_> = spans
            .iter()
            .filter(|s| matches!(s.kind, "warm-capture" | "trace-compile") && s.dur_nanos > 0)
            .collect();
        let n = rfp_trace::suite().len();
        assert!(pooled.len() >= 2 * n, "{} timed pool spans", pooled.len());
        for s in pooled {
            assert!(
                inside(s),
                "{} {} on lane {} lies in no simulate span of that lane",
                s.kind,
                s.key,
                s.lane
            );
        }
        assert_eq!(pool.stats().live_snapshots, 0, "every snapshot released");
        let off = run_grid(&WarmPool::new(WarmMode::Off, 300), &grid_rows, 1);
        assert_eq!(out.reports, off.reports);
    }

    #[test]
    fn unshared_configs_run_straight_through() {
        let configs = [
            CoreConfig::tiger_lake(),
            CoreConfig::tiger_lake().with_rfp(),
        ];
        let pool = WarmPool::new(WarmMode::Exact, 300);
        let out = run_grid(&pool, &rows(&configs, false), 2);
        assert!(out.telemetry.iter().all(|t| t.warm == "straight"));
        assert_eq!(pool.stats().snapshot_misses, 0);
    }

    #[test]
    fn a_store_does_not_make_a_singleton_snapshot_worthy() {
        let dir = Dir::new("singletons");
        let configs = [
            CoreConfig::tiger_lake(),
            CoreConfig::tiger_lake().with_rfp(),
        ];
        assert_ne!(config_key(&configs[0]), config_key(&configs[1]));
        let pool = WarmPool::new(WarmMode::Exact, 300).with_store(dir.store());
        let out = run_grid(&pool, &rows(&configs, false), 2);
        assert_eq!(pool.stats().snapshot_misses, 0);
        assert!(out.telemetry.iter().all(|t| t.warm == "straight"));
        let off = WarmPool::new(WarmMode::Exact, 300);
        let off = run_grid(&off, &rows(&configs, false), 2).reports;
        for (s, o) in out.reports.iter().flatten().zip(off.iter().flatten()) {
            assert_eq!(s.canonical_text(), o.canonical_text(), "{}", s.workload);
        }
    }

    #[test]
    fn sim_mode_parses_strictly() {
        assert_eq!("full".parse::<SimMode>().unwrap(), SimMode::Full);
        assert_eq!("".parse::<SimMode>().unwrap(), SimMode::Full);
        assert_eq!("sample".parse::<SimMode>().unwrap(), SimMode::Sample);
        assert!("quick".parse::<SimMode>().is_err());
    }

    #[test]
    fn warm_mode_parses_strictly_and_round_trips_its_label() {
        for mode in [WarmMode::Off, WarmMode::Exact] {
            assert_eq!(mode.label().parse::<WarmMode>(), Ok(mode));
        }
        assert_eq!("".parse::<WarmMode>(), Ok(WarmMode::Exact));
        assert!("bogus".parse::<WarmMode>().is_err());
        for mode in [SimMode::Full, SimMode::Sample] {
            assert_eq!(mode.label().parse::<SimMode>(), Ok(mode));
        }
    }

    #[test]
    fn sample_plan_partitions_the_interval_grid() {
        let w = &rfp_trace::suite()[0];
        let ct = w.compiled(
            7 * SAMPLE_INTERVAL_UOPS,
            SAMPLE_INTERVAL_UOPS,
            SAMPLE_INTERVAL_UOPS,
        );
        let n = ct.intervals().len();
        assert_eq!(n, 6);
        let plan = build_sample_plan(&ct);
        // Every interval lands in exactly one phase, reps are members.
        let mut covered: Vec<usize> = plan
            .phases
            .iter()
            .flat_map(|p| p.members.iter().copied())
            .collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..n).collect::<Vec<_>>());
        for p in &plan.phases {
            assert!(p.members.contains(&p.rep));
        }
        assert_eq!(plan.tail, 0);
        assert_eq!(plan, build_sample_plan(&ct), "plan is deterministic");
        assert_eq!(
            plan.simulated_uops(SAMPLE_INTERVAL_UOPS),
            plan.phases.len() as u64 * SAMPLE_INTERVAL_UOPS
        );
    }

    #[test]
    fn sampled_grid_extrapolates_to_the_full_measured_length() {
        // Two full intervals plus a ragged tail: weights must cover the
        // whole measured region exactly — retired_uops is extrapolated,
        // not simulated, so an off-by-one-interval bug shows up here.
        let len = 2 * SAMPLE_INTERVAL_UOPS + 4096;
        let configs = [
            CoreConfig::tiger_lake(),
            CoreConfig::tiger_lake().with_rfp(),
        ];
        let pool = WarmPool::with_sim(WarmMode::Exact, SimMode::Sample, len);
        let out = run_grid(&pool, &rows(&configs, false), 2);
        for t in &out.telemetry {
            let expect = if t.config == 0 {
                "sample-fork" // the baseline is its own twin
            } else {
                "sample-transplant"
            };
            assert_eq!(t.warm, expect, "{}", t.workload);
        }
        for r in out.reports.iter().flatten() {
            assert_eq!(r.stats.retired_uops, len, "{}", r.workload);
            assert!(r.stats.cycles > 0, "{}", r.workload);
        }
        assert!(out.reports[1].iter().any(|r| r.stats.rfp_injected > 0));
    }

    #[test]
    fn sampled_degenerate_short_run_matches_full_fidelity() {
        // Under two full intervals the sampler cannot skip anything and
        // must fall back to a bit-exact full run of the compiled arena.
        let configs = [CoreConfig::tiger_lake().with_rfp()];
        let full = run_grid(
            &WarmPool::new(WarmMode::Off, 1_000),
            &rows(&configs, false),
            2,
        );
        let pool = WarmPool::with_sim(WarmMode::Exact, SimMode::Sample, 1_000);
        let samp = run_grid(&pool, &rows(&configs, false), 2);
        assert!(samp.telemetry.iter().all(|t| t.warm == "sample-full"));
        for (f, s) in full
            .reports
            .iter()
            .flatten()
            .zip(samp.reports.iter().flatten())
        {
            assert_eq!(f.stats, s.stats, "{}", f.workload);
        }
    }

    #[test]
    fn sampled_obs_grid_stays_consistent_with_its_stats() {
        let len = 3 * SAMPLE_INTERVAL_UOPS;
        let configs = [CoreConfig::tiger_lake().with_rfp()];
        let pool = WarmPool::with_sim(WarmMode::Exact, SimMode::Sample, len);
        let plain = run_grid(&pool, &rows(&configs, false), 2);
        let obs = run_grid(&pool, &rows(&configs, true), 2);
        for (p, o) in plain.reports[0].iter().zip(&obs.reports[0]) {
            assert_eq!(p.stats, o.stats, "{}: probing changed the run", p.workload);
            let m = o.obs.as_ref().expect("obs attached");
            assert_eq!(
                m.rfp_complete_rel_issue.total(),
                o.stats.rfp_useful,
                "{}: extrapolated timeliness tracks extrapolated useful",
                o.workload
            );
            let cpi = o.cpi.as_ref().expect("cpi attached");
            assert!(
                cpi.intervals_consistent(),
                "{}: epoch placement must conserve the stack",
                o.workload
            );
            let t = o.profile.as_ref().expect("profile attached").totals();
            assert_eq!(t.useful(), o.stats.rfp_useful, "{}", o.workload);
            assert_eq!(t.injected, o.stats.rfp_injected, "{}", o.workload);
        }
    }
}
