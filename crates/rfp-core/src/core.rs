//! The cycle-stepped out-of-order core model with Register File
//! Prefetching.
//!
//! # Timing model
//!
//! The scheduler follows Stark et al.'s 3-cycle wakeup/select/regread
//! pipeline (paper §3.3): an instruction dispatched at cycle `a` can start
//! executing no earlier than `a + SCHED_LATENCY`, and no earlier than the
//! *predicted* readiness of its sources. Producers publish two readiness
//! times per physical register: a *predicted* one (used for speculative
//! wakeup — e.g. a load predicted to hit publishes `issue + L1 latency`)
//! and an *actual* one (set when the real completion is known). An
//! instruction selected on a stale prediction fails the scoreboard check
//! and re-issues after a penalty — the cancel/re-dispatch path the paper
//! leans on for both hit/miss speculation and RFP address mismatches.
//!
//! # RFP (paper §3)
//!
//! Prefetch packets are injected right after rename, wait in a FIFO, bid
//! for L1 ports at the lowest priority, traverse the *same* store-scan /
//! memory-disambiguation path a demand load would, and write into the
//! load's already-renamed destination register. When the load issues and
//! the predicted address matches, the load consumes the prefetched data and
//! skips the cache entirely; otherwise it re-executes its own access and
//! its speculatively woken dependents are cancelled.
//!
//! # Wakeup-driven select and scan-free LSQ
//!
//! As in hardware, select and memory disambiguation read small age-ordered
//! structures, never the whole window:
//!
//! * the **reservation station** is two bitsets over ROB slots
//!   (`seq & (ring - 1)`, see `ring_bits.rs`): `Core::rs_wait` marks
//!   every un-issued entry (`phase == Waiting && issue_cycle.is_none()`),
//!   and `Core::rs_ready` the subset whose every source register has a
//!   published prediction (`preg_pred != NEVER`). An entry with an
//!   unpublished source is *parked* on that register's waiter list
//!   (`Core::pred_waiters`); the register's first prediction, written
//!   through `Core::publish_pred`, moves it to `rs_ready` or parks it on
//!   its next unpublished source. Select walks only `rs_ready`, in age
//!   order, up to the `rs_entries`-th `rs_wait` bit, and reads the few
//!   ready [`DynInst`]s from the ROB;
//! * the **load queue** and **store queue** (`Core::lq`, `Core::sq`) list
//!   the seqs of the loads and stores in the window. The store scan of a
//!   load or RFP packet, the ordering-violation check and the RFP-staleness
//!   sweep of a resolving store walk only these.
//!
//! All of these are derived state: a function of the ROB and the register
//! predictions, maintained incrementally at dispatch, publish, issue,
//! squash and retire, rebuilt from the ROB when a warm snapshot is decoded
//! (never encoded), and compared with a fresh ROB scan after every cycle
//! in debug builds.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rfp_mem::{HitLevel, LoadPorts, MemoryHierarchy, PortClient};
use rfp_obs::{DropReason, FlushKind, NoopProbe, PredictMiss, Probe, ProbeEvent, UopClass};
use rfp_predictors::{
    ContextPrefetcher, CriticalityTable, Dlvp, Gshare, HitMissPredictor, IpStridePrefetcher,
    PathHistory, PrefetchTable, PtDecision, PtMissKind, StoreSets, ValuePredictor,
};
use rfp_stats::{CoreStats, CpiBucket};
use rfp_trace::{MicroOp, UopKind};
use rfp_types::{Addr, ArchReg, ConfigError, Cycle, PhysReg, SeqNum};

use crate::config::{
    CoreConfig, VpMode, AP_PROBE_HOLD, AP_PROBE_OVERHEAD, CORE_SEED, CRITICALITY_THRESHOLD,
    EPP_FALSE_POSITIVE_RATE, FETCH_TO_ALLOC, FORWARD_LATENCY, MISPREDICT_REDIRECT, REISSUE_PENALTY,
    RFP_QUEUE_ENTRIES, VP_FLUSH_PENALTY,
};
use crate::event_queue::CalendarQueue;
use crate::inst::{DlvpInfo, DynInst, Phase, RfpState, VpSource};
use crate::ring_bits::RingBits;

/// Readiness value meaning "unknown / not ready".
const NEVER: Cycle = Cycle::MAX;
/// Cycles after load issue at which the hit/miss outcome corrects the
/// speculative wakeup (tag-check depth within the 5-cycle L1 pipeline).
const HIT_DETECT_LATENCY: Cycle = 3;
/// Cycles with zero retirement after which the core declares a deadlock.
const DEADLOCK_LIMIT: Cycle = 200_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// An instruction's result becomes available.
    Complete { seq: SeqNum, gen: u32 },
    /// Correct a speculatively published register readiness.
    PredCorrect { preg: PhysReg, actual: Cycle },
}

#[derive(Debug, Clone, Copy)]
struct RfpPacket {
    seq: SeqNum,
    gen: u32,
    addr: Addr,
    /// Cycle the packet entered the queue (queue-wait telemetry).
    injected_at: Cycle,
}

/// Renamed source registers of an instruction.
type Srcs = [Option<PhysReg>; rfp_trace::MAX_SRCS];

/// True when `inst` waits in the reservation station: dispatched (or sent
/// back by a squash) and not yet issued.
fn in_rs(inst: &DynInst) -> bool {
    inst.phase == Phase::Waiting && inst.issue_cycle.is_none()
}

fn uop_class(kind: UopKind) -> UopClass {
    match kind {
        UopKind::Load => UopClass::Load,
        UopKind::Store => UopClass::Store,
        UopKind::Branch { .. } => UopClass::Branch,
        UopKind::Alu { .. } => UopClass::Alu,
        UopKind::Fp { .. } => UopClass::Fp,
    }
}

/// Outcome of the LSQ scan for a load (or an RFP request acting for one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoreScan {
    /// Forward from an already-executed older store.
    Forward { store_seq: SeqNum },
    /// Memory disambiguation predicts a dependence on this unresolved
    /// older store: wait for it.
    WaitFor { store_seq: SeqNum },
    /// Proceed to the cache.
    NoConflict,
}

/// How [`Core::run_loop`] exited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunOutcome {
    /// The trace is exhausted and the ROB has drained.
    Finished,
    /// Paused just short of the warmup boundary (`pause_near_warmup`).
    Paused,
}

/// The core simulator. Drive it with [`Core::run`].
///
/// Generic over a [`Probe`] observability sink; the default
/// [`NoopProbe`] monomorphizes every instrumentation site away (each is
/// guarded by the `P::ENABLED` associated constant), so an unprobed core
/// pays nothing for the instrumentation. Build a probed core with
/// [`Core::with_probe`].
///
/// `Clone` snapshots the complete microarchitectural state — caches, TLBs,
/// MSHRs, predictor tables, in-flight window, RNG stream — which is what
/// makes [`WarmState`] forking possible.
#[derive(Clone)]
pub struct Core<P: Probe = NoopProbe> {
    cfg: CoreConfig,
    probe: P,
    cycle: Cycle,
    next_seq: u64,
    rob: VecDeque<DynInst>,
    rob_base: u64,
    /// Reservation station: the un-issued window entries, by ROB slot.
    rs_wait: RingBits,
    /// The `rs_wait` entries whose every source has a published
    /// prediction; the only ones select looks at.
    rs_ready: RingBits,
    /// Set bits in `rs_wait`.
    rs_len: usize,
    /// Per physical register, the seqs of RS entries parked on it until
    /// its first prediction is published. May hold stale seqs (issued,
    /// retired or already woken), which the wakeup skips.
    pred_waiters: Vec<Vec<SeqNum>>,
    /// Load queue: seqs of the loads in the window, oldest first.
    lq: VecDeque<SeqNum>,
    /// Store queue: seqs of the stores in the window, oldest first.
    sq: VecDeque<SeqNum>,

    rename_map: [PhysReg; ArchReg::COUNT],
    free_pregs: Vec<PhysReg>,
    preg_pred: Vec<Cycle>,
    preg_actual: Vec<Cycle>,

    mem: MemoryHierarchy,
    ports: LoadPorts,

    pt: Option<PrefetchTable>,
    ctx: Option<ContextPrefetcher>,
    ipp: Option<IpStridePrefetcher>,
    gshare: Option<Gshare>,
    criticality: Option<CriticalityTable>,
    hit_miss: HitMissPredictor,
    store_sets: StoreSets,
    eves: Option<ValuePredictor>,
    dlvp: Option<Dlvp>,

    path: PathHistory,
    fetch_stall_branch: Option<SeqNum>,
    dispatch_blocked_until: Cycle,
    retire_blocked_until: Cycle,
    /// Modelled fetch pipeline: timestamps at which queued uops were
    /// fetched. Fetch runs `width` uops/cycle ahead of dispatch into a
    /// bounded uop queue, so a backed-up dispatch widens the fetch-to-
    /// allocate window — which is what gives DLVP probes time to finish.
    fetch_queue: VecDeque<Cycle>,

    rfp_queue: VecDeque<RfpPacket>,
    events: CalendarQueue<EventKind>,
    l1_retry: VecDeque<(SeqNum, u32)>,
    store_waiters: HashMap<u64, Vec<(SeqNum, u32)>>,

    // Scratch buffers reused across cycles so the dispatch/issue hot path
    // never allocates in steady state.
    scratch_issue: Vec<SeqNum>,
    scratch_pregs: Vec<PhysReg>,
    scratch_lines: Vec<Addr>,

    /// Dispatches minus issues (saturating at zero); gates dispatch.
    /// Squashed entries re-enter the RS without a dispatch, so this is not
    /// `rs_len`.
    rs_used: usize,

    rng: SmallRng,
    stats: CoreStats,
    last_retire_cycle: Cycle,
    /// Retired-uop count at which statistics reset (cache/predictor warmup).
    warmup_uops: u64,
    warmup_done: bool,
    cycle_offset: Cycle,
}

impl<P: Probe> std::fmt::Debug for Core<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("cycle", &self.cycle)
            .field("rob_occupancy", &self.rob.len())
            .field("retired", &self.stats.retired_uops)
            .finish_non_exhaustive()
    }
}

impl Core<NoopProbe> {
    /// Builds a core from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configuration is invalid.
    pub fn new(cfg: CoreConfig) -> Result<Self, ConfigError> {
        Core::with_probe(cfg, NoopProbe)
    }

    /// Runs `trace` up to (just short of) the `warmup` retired-uop boundary
    /// and captures the complete microarchitectural state as a
    /// [`WarmState`]. The warm half of [`Core::run_with_warmup`], split out
    /// so one warmup can be paid once and forked across many measured runs.
    ///
    /// `trace` should be the *full* trace of the eventual run; the snapshot
    /// records how many uops it consumed ([`WarmState::consumed_uops`]) and
    /// each fork resumes with the remainder. Warmup happens under
    /// [`NoopProbe`]: the pause lands before the stats reset, so a probe
    /// attached at resume time still sees every event a straight-through
    /// probed run would keep (see [`Core::run_loop`]).
    ///
    /// # Panics
    ///
    /// Panics on a pipeline deadlock (a simulator bug).
    pub fn warm_up(mut self, trace: impl IntoIterator<Item = MicroOp>, warmup: u64) -> WarmState {
        self.warmup_uops = warmup;
        self.warmup_done = warmup == 0;
        let mut trace = trace.into_iter().peekable();
        let finished = matches!(self.run_loop(&mut trace, true), RunOutcome::Finished);
        WarmState {
            core: self,
            finished,
        }
    }
}

impl<P: Probe> Core<P> {
    /// Builds a core whose instrumentation sites report to `probe`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configuration is invalid.
    pub fn with_probe(cfg: CoreConfig, probe: P) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let mem = MemoryHierarchy::new(cfg.mem)?;
        Core::around(cfg, probe, mem)
    }

    /// Builds a core for the validated `cfg` around `mem`, a hierarchy of
    /// `cfg.mem`, so a caller with a warm hierarchy builds no cold one.
    fn around(cfg: CoreConfig, probe: P, mem: MemoryHierarchy) -> Result<Self, ConfigError> {
        let phys = cfg.phys_regs();
        let mut rename_map = [PhysReg::new(0); ArchReg::COUNT];
        for (i, m) in rename_map.iter_mut().enumerate() {
            *m = PhysReg::new(i as u16);
        }
        let free_pregs: Vec<PhysReg> = (64..phys as u16).map(PhysReg::new).collect();
        let mut preg_pred = vec![NEVER; phys];
        let mut preg_actual = vec![NEVER; phys];
        for i in 0..64 {
            preg_pred[i] = 0;
            preg_actual[i] = 0;
        }
        let (pt, ctx) = match &cfg.rfp {
            Some(r) => (
                Some(PrefetchTable::new(r.table)?),
                r.use_context.then(ContextPrefetcher::new),
            ),
            None => (None, None),
        };
        let (eves, dlvp) = match &cfg.vp {
            VpMode::Off => (None, None),
            VpMode::Eves(v) => (Some(ValuePredictor::new(*v)?), None),
            VpMode::Dlvp(d) | VpMode::Epp(d) => (None, Some(Dlvp::new(*d)?)),
            VpMode::Composite(v, d) => (Some(ValuePredictor::new(*v)?), Some(Dlvp::new(*d)?)),
        };
        Ok(Core {
            cycle: 0,
            next_seq: 0,
            rob: VecDeque::with_capacity(cfg.rob_entries),
            rob_base: 0,
            rs_wait: RingBits::for_window(cfg.rob_entries),
            rs_ready: RingBits::for_window(cfg.rob_entries),
            rs_len: 0,
            pred_waiters: vec![Vec::new(); phys],
            lq: VecDeque::with_capacity(cfg.ldq_entries),
            sq: VecDeque::with_capacity(cfg.stq_entries),
            rename_map,
            free_pregs,
            preg_pred,
            preg_actual,
            mem,
            ports: LoadPorts::new(cfg.ports)?,
            pt,
            ctx,
            ipp: cfg.l1_ip_prefetcher.then(IpStridePrefetcher::new),
            gshare: matches!(cfg.branch_mode, crate::config::BranchMode::Gshare).then(Gshare::new),
            criticality: cfg
                .rfp
                .as_ref()
                .is_some_and(|r| r.critical_only)
                .then(|| CriticalityTable::new(CRITICALITY_THRESHOLD)),
            hit_miss: HitMissPredictor::new(),
            store_sets: StoreSets::new(),
            eves,
            dlvp,
            path: PathHistory::default(),
            fetch_stall_branch: None,
            dispatch_blocked_until: 0,
            retire_blocked_until: 0,
            fetch_queue: VecDeque::new(),
            rfp_queue: VecDeque::new(),
            events: CalendarQueue::new(),
            l1_retry: VecDeque::new(),
            store_waiters: HashMap::new(),
            scratch_issue: Vec::new(),
            scratch_pregs: Vec::new(),
            scratch_lines: Vec::new(),
            rs_used: 0,
            rng: SmallRng::seed_from_u64(CORE_SEED),
            stats: CoreStats::default(),
            last_retire_cycle: 0,
            warmup_uops: 0,
            warmup_done: true,
            cycle_offset: 0,
            cfg,
            probe,
        })
    }

    /// Runs the whole `trace` to retirement and returns the counters.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline deadlocks (no retirement for an implausible
    /// number of cycles) — that indicates a simulator bug, not a workload
    /// property.
    pub fn run(self, trace: impl IntoIterator<Item = MicroOp>) -> CoreStats {
        self.run_with_warmup(trace, 0)
    }

    /// Runs `trace`, discarding all statistics gathered before the first
    /// `warmup` retired micro-ops — the standard warm-cache/warm-predictor
    /// measurement methodology. Caches, TLBs and predictor tables keep
    /// their warmed state; only the counters reset.
    ///
    /// # Panics
    ///
    /// Panics on a pipeline deadlock (a simulator bug).
    pub fn run_with_warmup(
        self,
        trace: impl IntoIterator<Item = MicroOp>,
        warmup: u64,
    ) -> CoreStats {
        self.run_with_warmup_probed(trace, warmup).0
    }

    /// [`Core::run_with_warmup`], but also returning the probe so sinks
    /// ([`rfp_obs::MetricsSink`], [`rfp_obs::ChromeTraceSink`]) can be
    /// drained after the run.
    ///
    /// # Panics
    ///
    /// Panics on a pipeline deadlock (a simulator bug).
    pub fn run_with_warmup_probed(
        mut self,
        trace: impl IntoIterator<Item = MicroOp>,
        warmup: u64,
    ) -> (CoreStats, P) {
        self.warmup_uops = warmup;
        self.warmup_done = warmup == 0;
        let wall_start = Instant::now();
        let mut trace = trace.into_iter().peekable();
        self.run_loop(&mut trace, false);
        self.finalize(wall_start)
    }

    /// The cycle loop shared by straight-through runs ([`Core::run`],
    /// [`Core::run_with_warmup`]) and the warm-state split
    /// ([`Core::warm_up`] / [`WarmState::resume`]). Both paths execute the
    /// exact same per-cycle statement sequence, which is what makes a
    /// forked run byte-identical to a straight-through one by construction.
    ///
    /// With `pause_near_warmup`, returns [`RunOutcome::Paused`] at the end
    /// of the first iteration from which the warmup boundary is reachable
    /// within one retire group (`retired + retire_width >= warmup`). The
    /// stats reset itself — and the [`ProbeEvent::StatsReset`] it emits —
    /// then happens on the *resumed* core, so a probe attached at resume
    /// time observes the identical event stream a straight-through probed
    /// run would (everything it sees before the reset is discarded by the
    /// reset in both cases).
    fn run_loop<I: Iterator<Item = MicroOp>>(
        &mut self,
        trace: &mut std::iter::Peekable<I>,
        pause_near_warmup: bool,
    ) -> RunOutcome {
        loop {
            self.cycle += 1;
            self.ports.begin_cycle(self.cycle);
            self.process_events();
            self.retire();
            self.issue();
            self.rfp_engine();
            self.dispatch(trace);
            #[cfg(debug_assertions)]
            self.check_derived_lists();
            if self.rob.is_empty() && trace.peek().is_none() {
                return RunOutcome::Finished;
            }
            assert!(
                self.cycle - self.last_retire_cycle < DEADLOCK_LIMIT,
                "pipeline deadlock at cycle {}: {:?}",
                self.cycle,
                self
            );
            if pause_near_warmup
                && (self.warmup_done
                    || self.stats.retired_uops + self.cfg.retire_width as u64 >= self.warmup_uops)
            {
                return RunOutcome::Paused;
            }
        }
    }

    /// Post-loop epilogue shared by all run paths.
    fn finalize(mut self, wall_start: Instant) -> (CoreStats, P) {
        self.stats.cycles = self.cycle - self.cycle_offset;
        self.stats.mem_hit_counts = self.mem.hit_counts();
        self.stats.tlb_walks = self.mem.tlb_counters().2;
        // Every injected prefetch must land in exactly one terminal funnel
        // bucket. A warmup reset zeroes counters mid-flight, so the
        // equation only holds for warmup-free runs (the ROB has drained by
        // here, so nothing is legitimately still in flight).
        debug_assert!(
            self.warmup_uops != 0 || self.stats.funnel_consistent(),
            "RFP funnel leak: injected={} terminal={}",
            self.stats.rfp_injected,
            self.stats.rfp_terminal_total(),
        );
        // Host-side throughput: measured over the whole run (warmup
        // included) so it reflects the simulator's real speed.
        self.stats.total_cycles = self.cycle;
        self.stats.throughput.host_nanos = wall_start.elapsed().as_nanos() as u64;
        (self.stats, self.probe)
    }

    /// Rebuilds this core with a different probe, preserving every other
    /// field. The exhaustive destructure is deliberate: adding a field to
    /// `Core` without deciding how it survives a warm-state fork becomes a
    /// compile error here instead of a silent bug.
    fn into_probed<Q: Probe>(self, probe: Q) -> Core<Q> {
        let Core {
            cfg,
            probe: _,
            cycle,
            next_seq,
            rob,
            rob_base,
            rs_wait,
            rs_ready,
            rs_len,
            pred_waiters,
            lq,
            sq,
            rename_map,
            free_pregs,
            preg_pred,
            preg_actual,
            mem,
            ports,
            pt,
            ctx,
            ipp,
            gshare,
            criticality,
            hit_miss,
            store_sets,
            eves,
            dlvp,
            path,
            fetch_stall_branch,
            dispatch_blocked_until,
            retire_blocked_until,
            fetch_queue,
            rfp_queue,
            events,
            l1_retry,
            store_waiters,
            scratch_issue,
            scratch_pregs,
            scratch_lines,
            rs_used,
            rng,
            stats,
            last_retire_cycle,
            warmup_uops,
            warmup_done,
            cycle_offset,
        } = self;
        Core {
            cfg,
            probe,
            cycle,
            next_seq,
            rob,
            rob_base,
            rs_wait,
            rs_ready,
            rs_len,
            pred_waiters,
            lq,
            sq,
            rename_map,
            free_pregs,
            preg_pred,
            preg_actual,
            mem,
            ports,
            pt,
            ctx,
            ipp,
            gshare,
            criticality,
            hit_miss,
            store_sets,
            eves,
            dlvp,
            path,
            fetch_stall_branch,
            dispatch_blocked_until,
            retire_blocked_until,
            fetch_queue,
            rfp_queue,
            events,
            l1_retry,
            store_waiters,
            scratch_issue,
            scratch_pregs,
            scratch_lines,
            rs_used,
            rng,
            stats,
            last_retire_cycle,
            warmup_uops,
            warmup_done,
            cycle_offset,
        }
    }

    /// Checkpoint-style functional-warmup transplant: a fresh core for
    /// `cfg` (which must share the donor's memory-hierarchy configuration)
    /// built around the donor's *position-independent* warm structures —
    /// the memory hierarchy (caches, TLBs, stream prefetcher, with
    /// in-flight MSHR fills cleared), the hit/miss predictor, store sets,
    /// the L1 IP prefetcher and gshare when both cores have them, and the
    /// branch path history. Config-specific tables the donor does not
    /// model faithfully for this core (PT, context, EVES/DLVP,
    /// criticality) start cold, and the RNG stream is this core's own.
    /// Approximate by design — byte-identity is the exact-fork path's job
    /// ([`WarmState::resume`]).
    fn transplanted<Q: Probe>(
        cfg: CoreConfig,
        probe: P,
        donor: &Core<Q>,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        debug_assert_eq!(
            cfg.mem, donor.cfg.mem,
            "transplant requires an identical memory hierarchy"
        );
        let mut mem = donor.mem.clone();
        mem.clear_in_flight();
        let mut core = Core::around(cfg, probe, mem)?;
        core.hit_miss = donor.hit_miss.clone();
        core.store_sets = donor.store_sets.clone();
        core.path = donor.path;
        if let (Some(dst), Some(src)) = (core.ipp.as_mut(), donor.ipp.as_ref()) {
            *dst = src.clone();
        }
        if let (Some(dst), Some(src)) = (core.gshare.as_mut(), donor.gshare.as_ref()) {
            *dst = src.clone();
        }
        Ok(core)
    }

    /// Approximate host-memory footprint of this core's state in bytes —
    /// what a [`WarmState`] snapshot costs to retain. Dominated by the
    /// cache tag stores; a lower bound (small predictor tables and hash-map
    /// overheads are not itemized).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.mem.approx_bytes()
            + self.pt.as_ref().map_or(0, |pt| pt.approx_bytes())
            + self.rob.capacity() * size_of::<DynInst>()
            + self.rs_wait.heap_bytes()
            + self.rs_ready.heap_bytes()
            + self.pred_waiters.capacity() * size_of::<Vec<SeqNum>>()
            + (self.pred_waiters.iter())
                .map(|w| w.capacity() * size_of::<SeqNum>())
                .sum::<usize>()
            + (self.lq.capacity() + self.sq.capacity()) * size_of::<SeqNum>()
            + self.free_pregs.capacity() * size_of::<PhysReg>()
            + (self.preg_pred.capacity() + self.preg_actual.capacity()) * size_of::<Cycle>()
            + self.fetch_queue.capacity() * size_of::<Cycle>()
            + self.rfp_queue.capacity() * size_of::<RfpPacket>()
    }

    /// Rebuilds the RS bitsets, the waiter lists, the load queue and the
    /// store queue from the ROB and the register predictions — how a
    /// decoded warm snapshot gets its derived state back.
    fn rebuild_derived_lists(&mut self) {
        let rob = &self.rob;
        let seqs = |kind: fn(UopKind) -> bool| -> VecDeque<SeqNum> {
            rob.iter()
                .filter(|i| kind(i.uop.kind))
                .map(|i| i.seq)
                .collect()
        };
        self.lq = seqs(UopKind::is_load);
        self.sq = seqs(UopKind::is_store);
        self.rs_wait = RingBits::for_window(self.cfg.rob_entries);
        self.rs_ready = RingBits::for_window(self.cfg.rob_entries);
        self.rs_len = 0;
        self.pred_waiters = vec![Vec::new(); self.preg_pred.len()];
        for at in 0..self.rob.len() {
            let inst = &self.rob[at];
            if in_rs(inst) {
                let (seq, srcs) = (inst.seq, inst.src_phys);
                self.rs_wait.insert(seq.raw());
                self.rs_len += 1;
                self.park_or_ready(seq, srcs);
            }
        }
    }

    /// Debug-build invariant: the incrementally maintained RS bitsets,
    /// waiter lists, load queue and store queue agree with a scan of the
    /// ROB.
    ///
    /// # Panics
    ///
    /// Panics naming the structure and the first seq at which it differs.
    #[cfg(debug_assertions)]
    fn check_derived_lists(&self) {
        use std::fmt::Debug;
        // One pass with plain loops: this runs every cycle of every
        // debug-build simulation.
        #[cold]
        fn diverged(name: &str, seq: SeqNum, scan: impl Debug, list: impl Debug) -> ! {
            panic!(
                "{name} diverges from the ROB at seq {seq}: \
                 ROB scan gives {scan:?}, it holds {list:?}"
            );
        }
        let (mut waiting, mut ready, mut lq, mut sq) = (0, 0, 0, 0);
        for inst in &self.rob {
            let seq = inst.seq;
            let wait = in_rs(inst);
            let unpublished = |p: &&PhysReg| self.preg_pred[p.index()] == NEVER;
            let woken = wait && !inst.src_phys.iter().flatten().any(|p| unpublished(&p));
            if self.rs_wait.contains(seq.raw()) != wait {
                diverged("RS wait bitset", seq, wait, !wait);
            }
            if self.rs_ready.contains(seq.raw()) != woken {
                diverged("RS ready bitset", seq, woken, !woken);
            }
            waiting += wait as usize;
            ready += woken as usize;
            // A parked entry must be on the waiter list of one of its
            // unpublished sources, or nothing will ever wake it.
            if wait
                && !woken
                && !(inst.src_phys.iter().flatten())
                    .filter(unpublished)
                    .any(|p| self.pred_waiters[p.index()].contains(&seq))
            {
                panic!(
                    "lost wakeup: RS entry seq {seq} is parked on none of its \
                     unpublished sources {:?}",
                    inst.src_phys
                );
            }
            let (queue, at, name) = match inst.uop.kind {
                UopKind::Load => (&self.lq, &mut lq, "load queue"),
                UopKind::Store => (&self.sq, &mut sq, "store queue"),
                _ => continue,
            };
            match queue.get(*at) {
                Some(&s) if s == seq => {}
                s => diverged(name, seq.min(*s.unwrap_or(&seq)), seq, s),
            }
            *at += 1;
        }
        // Every in-window bit matched, so any surplus lies outside it.
        assert_eq!(
            (self.rs_wait.count(), self.rs_ready.count()),
            (waiting, ready),
            "RS bitsets have bits set outside the window [{}, {})",
            self.rob_base,
            self.next_seq
        );
        assert_eq!(self.rs_len, waiting, "RS length diverges from the ROB");
        if let Some(l) = self.lq.get(lq) {
            diverged("load queue", *l, None::<SeqNum>, l);
        }
        if let Some(s) = self.sq.get(sq) {
            diverged("store queue", *s, None::<SeqNum>, s);
        }
    }

    // ----- helpers ---------------------------------------------------------

    fn inst(&self, seq: SeqNum) -> Option<&DynInst> {
        let i = seq.raw().checked_sub(self.rob_base)? as usize;
        self.rob.get(i)
    }

    fn inst_mut(&mut self, seq: SeqNum) -> Option<&mut DynInst> {
        let i = seq.raw().checked_sub(self.rob_base)? as usize;
        self.rob.get_mut(i)
    }

    fn push_event(&mut self, at: Cycle, kind: EventKind) {
        self.events.push(at, kind);
    }

    fn set_dst_timing(&mut self, seq: SeqNum, pred: Cycle, actual: Cycle) {
        if let Some(dst) = self.inst(seq).and_then(|i| i.dst_phys) {
            self.publish_pred(dst, pred);
            self.preg_actual[dst.index()] = actual;
        }
    }

    // ----- wakeup ----------------------------------------------------------

    /// Sets register `preg`'s predicted readiness. Every prediction is
    /// written here, so the first one (`NEVER` to a cycle) cannot skip
    /// waking the RS entries parked on `preg`.
    fn publish_pred(&mut self, preg: PhysReg, at: Cycle) {
        debug_assert_ne!(at, NEVER, "`unpublish` resets a register");
        let was = std::mem::replace(&mut self.preg_pred[preg.index()], at);
        if was == NEVER {
            self.wake_waiters(preg);
        }
    }

    /// Resets `preg` to unknown readiness (freed, re-allocated or
    /// squashed) and drops its waiters. Readers of a register are younger
    /// than its producer, so a freed or re-allocated one has none in the
    /// window, and a squash re-parks its readers afterwards.
    fn unpublish(&mut self, preg: PhysReg) {
        self.preg_pred[preg.index()] = NEVER;
        self.preg_actual[preg.index()] = NEVER;
        self.pred_waiters[preg.index()].clear();
    }

    /// Re-examines every RS entry parked on the just-published `preg`.
    fn wake_waiters(&mut self, preg: PhysReg) {
        let mut waiters = std::mem::take(&mut self.pred_waiters[preg.index()]);
        for &seq in &waiters {
            // Skip stale seqs: retired, issued, or already woken.
            let Some(inst) = self.inst(seq) else { continue };
            if !self.rs_wait.contains(seq.raw()) || self.rs_ready.contains(seq.raw()) {
                continue;
            }
            let srcs = inst.src_phys;
            self.park_or_ready(seq, srcs);
        }
        // Nothing parks on a published register, so the list is still
        // empty: hand its capacity back.
        waiters.clear();
        self.pred_waiters[preg.index()] = waiters;
    }

    /// Marks RS entry `seq` ready when every source in `srcs` has a
    /// published prediction, or parks it on the first that has none.
    fn park_or_ready(&mut self, seq: SeqNum, srcs: Srcs) {
        match srcs
            .iter()
            .flatten()
            .find(|p| self.preg_pred[p.index()] == NEVER)
        {
            Some(p) => self.pred_waiters[p.index()].push(seq),
            None => self.rs_ready.insert(seq.raw()),
        }
    }

    // ----- events ----------------------------------------------------------

    fn process_events(&mut self) {
        while let Some((_, kind)) = self.events.pop_due(self.cycle) {
            match kind {
                EventKind::PredCorrect { preg, actual } => {
                    // Only correct if the register still carries the stale
                    // speculative value (a flush may have reset it to NEVER
                    // and the re-execution owns it now).
                    if self.preg_pred[preg.index()] != NEVER
                        && self.preg_actual[preg.index()] == actual
                    {
                        self.publish_pred(preg, actual);
                    }
                }
                EventKind::Complete { seq, gen } => self.complete_inst(seq, gen),
            }
        }
    }

    fn complete_inst(&mut self, seq: SeqNum, gen: u32) {
        let Some(inst) = self.inst_mut(seq) else {
            return; // already retired (can't happen) or squashed away
        };
        if inst.gen != gen {
            return; // squashed and re-executing: stale event
        }
        inst.phase = Phase::Done;
        let uop = inst.uop;
        let mispredicted_branch = inst.branch_mispredicted;
        let vp_source = inst.vp_source;
        let predicted = inst.predicted_value;
        let forwarded = inst.forwarded;

        if mispredicted_branch && self.fetch_stall_branch == Some(seq) {
            self.fetch_stall_branch = None;
            self.dispatch_blocked_until = self
                .dispatch_blocked_until
                .max(self.cycle + MISPREDICT_REDIRECT);
            // Everything in the uop queue was wrong-path; refetch.
            self.fetch_queue.clear();
        }

        // Value-prediction validation at data return.
        if uop.kind.is_load() {
            if let Some(pv) = predicted {
                let actual = uop.mem_ref().value;
                let wrong = match vp_source {
                    Some(VpSource::Eves) => pv != actual,
                    // A DLVP probe returns stale data whenever the load was
                    // actually fed by an in-flight store.
                    Some(VpSource::Dlvp) => pv != actual || forwarded,
                    None => false,
                };
                if wrong {
                    match vp_source {
                        Some(VpSource::Eves) => {
                            self.stats.vp_mispredicted += 1;
                            if let Some(e) = self.eves.as_mut() {
                                e.on_mispredict(uop.pc);
                            }
                        }
                        Some(VpSource::Dlvp) => {
                            self.stats.ap_mispredicted += 1;
                            let path = self
                                .inst(seq)
                                .and_then(|i| i.dlvp)
                                .map(|d| d.path)
                                .unwrap_or_default();
                            if let Some(d) = self.dlvp.as_mut() {
                                d.on_mispredict(uop.pc, path);
                            }
                        }
                        None => {}
                    }
                    self.value_flush(seq);
                } else {
                    self.stats.vp_predicted += 1;
                }
            }
        }
    }

    /// Flush for a wrong value/address prediction: younger instructions
    /// re-execute after the refetch penalty; the load's own destination is
    /// repaired with its true completion time.
    fn value_flush(&mut self, load_seq: SeqNum) {
        self.stats.vp_flushes += 1;
        if P::ENABLED {
            self.probe.emit(
                self.cycle,
                ProbeEvent::Flush {
                    seq: load_seq,
                    kind: FlushKind::ValueMispredict,
                },
            );
        }
        let penalty_end = self.cycle + VP_FLUSH_PENALTY;
        self.dispatch_blocked_until = self.dispatch_blocked_until.max(penalty_end);
        // Repair the load's destination: data is correct now (validation
        // read the true value), dependents just re-execute against it.
        let complete = self
            .inst(load_seq)
            .and_then(|i| i.complete_cycle)
            .unwrap_or(self.cycle);
        if let Some(i) = self.inst_mut(load_seq) {
            i.predicted_value = None;
            i.vp_source = None;
        }
        self.set_dst_timing(load_seq, complete, complete);
        self.squash_from(load_seq.next(), penalty_end);
    }

    /// Squash execution (not allocation) of `first` and everything
    /// younger: each goes back to the RS to re-execute.
    fn squash_from(&mut self, first: SeqNum, not_before: Cycle) {
        let now = self.cycle;
        let start = first.raw().saturating_sub(self.rob_base) as usize;
        let mut dsts = std::mem::take(&mut self.scratch_pregs);
        dsts.clear();
        let mut squashed_rfp = 0u64;
        for inst in self.rob.iter_mut().skip(start) {
            // A live packet dies with its squashed load: account for it
            // here, *before* squash_execution folds it into Dropped, so
            // the injection funnel stays balanced.
            if inst.rfp.is_queued() || inst.rfp.is_inflight() {
                squashed_rfp += 1;
                if P::ENABLED {
                    self.probe.emit(
                        now,
                        ProbeEvent::RfpDrop {
                            seq: inst.seq,
                            pc: inst.uop.pc,
                            reason: DropReason::Squashed,
                        },
                    );
                }
            }
            // Every squashed entry re-enters the RS.
            if !in_rs(inst) {
                self.rs_wait.insert(inst.seq.raw());
                self.rs_len += 1;
            }
            self.rs_ready.remove(inst.seq.raw());
            inst.squash_execution(not_before);
            if let Some(d) = inst.dst_phys {
                dsts.push(d);
            }
        }
        self.stats.rfp_dropped_squashed += squashed_rfp;
        for &d in &dsts {
            self.unpublish(d);
        }
        self.scratch_pregs = dsts;
        // Only now that the squashed destinations are unpublished: park
        // each squashed entry again (an entry still parked on an older
        // producer may be listed there twice; the wakeup skips repeats).
        for at in start..self.rob.len() {
            let inst = &self.rob[at];
            let (seq, srcs) = (inst.seq, inst.src_phys);
            self.park_or_ready(seq, srcs);
        }
        // Queued prefetch packets of squashed loads die with them (their
        // RfpState became Dropped inside squash_execution; the queue is
        // cleaned lazily by the engine's state check).
    }

    // ----- retire ----------------------------------------------------------

    fn retire(&mut self) {
        if self.cycle < self.retire_blocked_until {
            // An EPP re-execution at the head blocks the whole retire
            // group: recovery from (value) mis-speculation.
            if P::ENABLED {
                self.emit_retire_slots(0, 0, CpiBucket::BadSpec);
            }
            return;
        }
        // Diagnostic: if nothing will retire this cycle, classify why.
        match self.rob.front() {
            None => self.stats.stall_head_kind[5] += 1,
            Some(head) if !head.done_by(self.cycle) => {
                let k = match head.uop.kind {
                    UopKind::Load => 0,
                    UopKind::Store => 1,
                    UopKind::Branch { .. } => 2,
                    UopKind::Alu { .. } => 3,
                    UopKind::Fp { .. } => 4,
                };
                self.stats.stall_head_kind[k] += 1;
                // Criticality training for targeted RFP (§5.1 future work):
                // a load blocking retirement is, by definition, critical.
                if k == 0 {
                    let pc = head.uop.pc;
                    if let Some(ct) = self.criticality.as_mut() {
                        ct.record_head_stall(pc);
                    }
                }
            }
            _ => {}
        }
        let mut retired = 0;
        let mut rfp_hidden = 0;
        let mut reset_this_cycle = false;
        while retired < self.cfg.retire_width {
            let Some(head) = self.rob.front() else { break };
            if !head.done_by(self.cycle) {
                break;
            }
            retired += 1;
            if head.uop.kind.is_load() && head.rfp_fully_hid {
                rfp_hidden += 1;
            }
            self.last_retire_cycle = self.cycle;
            self.retire_head();
            if !self.warmup_done && self.stats.retired_uops >= self.warmup_uops {
                self.warmup_done = true;
                // `total_retired_uops` tracks the whole run (it feeds the
                // host-throughput numbers, which cover warmup too).
                let total = self.stats.total_retired_uops;
                self.stats = CoreStats::default();
                self.stats.total_retired_uops = total;
                self.cycle_offset = self.cycle;
                if P::ENABLED {
                    self.probe.emit(self.cycle, ProbeEvent::StatsReset);
                }
                reset_this_cycle = true;
            }
        }
        // CPI-stack attribution: every slot of this cycle is charged to
        // exactly one bucket. The reset cycle itself belongs to the
        // discarded warmup window (`stats.cycles = cycle - cycle_offset`
        // with `cycle_offset` = the reset cycle), so it emits nothing —
        // that is what makes the sink's slot total exactly
        // `cycles * retire_width`.
        if P::ENABLED && !reset_this_cycle {
            let stall = if retired < self.cfg.retire_width {
                self.classify_stall_head()
            } else {
                CpiBucket::Retiring // no empty slots; field is inert
            };
            self.emit_retire_slots(retired, rfp_hidden, stall);
        }
    }

    /// Emits this cycle's [`ProbeEvent::RetireSlots`]: `retired` filled
    /// slots (`rfp_hidden` of them RFP-fully-hidden loads) and
    /// `retire_width - retired` empty slots charged to `stall`.
    fn emit_retire_slots(&mut self, retired: usize, rfp_hidden: usize, stall: CpiBucket) {
        let head_pc = self.rob.front().map(|h| h.uop.pc);
        self.probe.emit(
            self.cycle,
            ProbeEvent::RetireSlots {
                width: self.cfg.retire_width as u8,
                retired: retired as u8,
                rfp_hidden: rfp_hidden as u8,
                stall,
                head_pc,
            },
        );
    }

    /// Charges this cycle's empty retire slots to one [`CpiBucket`] by
    /// inspecting the ROB head — the oldest instruction is by definition
    /// what retirement is waiting on. Strictly read-only: attribution
    /// must never perturb the simulation (`obs_instrumentation_does_not_
    /// perturb_the_simulation` guards this).
    fn classify_stall_head(&self) -> CpiBucket {
        let now = self.cycle;
        let Some(head) = self.rob.front() else {
            // Empty window: the frontend starved the backend (fetch
            // redirect after a mispredict, or trace drain).
            return CpiBucket::Frontend;
        };
        if head.issue_cycle.is_some() {
            if head.uop.kind.is_load() {
                // An executing load pays its serving memory tier. A
                // consumed-but-late prefetch is its own class: RFP
                // helped, the stack still pays the remainder (§5.2.2's
                // partially-hidden loads).
                if matches!(head.rfp, RfpState::Consumed) {
                    return CpiBucket::RfpLate;
                }
                if head.forwarded {
                    return CpiBucket::MemL1;
                }
                return match head.hit_level {
                    Some(level) => CpiBucket::mem_tier(level.index()),
                    // Issued but no access yet: parked for an L1 port
                    // (charged to the L1) or deferred on an older
                    // store's unresolved address (a dependency).
                    None => {
                        if self.l1_retry.iter().any(|&(seq, _)| seq == head.seq) {
                            CpiBucket::MemL1
                        } else {
                            CpiBucket::DepChain
                        }
                    }
                };
            }
            // A non-load still executing: ALU/FP/branch latency chain.
            return CpiBucket::DepChain;
        }
        if head.not_before > now {
            // Inside a flush/cancel penalty window: bad speculation.
            return CpiBucket::BadSpec;
        }
        let sources_ready = head
            .src_phys
            .iter()
            .flatten()
            .all(|p| self.preg_actual[p.index()] <= now);
        if !sources_ready {
            return CpiBucket::DepChain;
        }
        // Sources ready but never selected: a structural resource is the
        // bottleneck. Pick the full structure; default to the RS (select
        // or issue-port bandwidth lives there).
        if self.rs_used >= self.cfg.rs_entries {
            CpiBucket::StructRs
        } else if self.rob.len() >= self.cfg.rob_entries {
            CpiBucket::StructRob
        } else if self.lq.len() >= self.cfg.ldq_entries {
            CpiBucket::StructLq
        } else if self.sq.len() >= self.cfg.stq_entries {
            CpiBucket::StructSq
        } else {
            CpiBucket::StructRs
        }
    }

    /// Retires the ROB head. Copies out only the fields retirement needs
    /// and drops the entry in place: moving the whole [`DynInst`] out of
    /// the ROB would copy all of it for every retired uop.
    fn retire_head(&mut self) {
        let head = self.rob.front().expect("retiring from an empty ROB");
        let (seq, uop, prev_phys) = (head.seq, head.uop, head.prev_phys);
        let (forwarded, ready_at_alloc) = (head.forwarded, head.ready_at_alloc);
        let mispredicted = head.branch_mispredicted;
        let dlvp_path = head.dlvp.map(|i| i.path).unwrap_or_default();
        self.rob.pop_front();
        self.rob_base += 1;
        self.stats.retired_uops += 1;
        self.stats.total_retired_uops += 1;
        match uop.kind {
            UopKind::Load => {
                self.stats.retired_loads += 1;
                let addr = uop.mem_ref().addr;
                if let Some(pt) = self.pt.as_mut() {
                    pt.on_retire(uop.pc, addr);
                }
                if let Some(ctx) = self.ctx.as_mut() {
                    ctx.train(uop.pc, addr);
                }
                if let Some(e) = self.eves.as_mut() {
                    e.train(uop.pc, uop.mem_ref().value);
                }
                if let Some(d) = self.dlvp.as_mut() {
                    d.train(uop.pc, dlvp_path, addr);
                    d.record_forwarding(uop.pc, forwarded);
                }
                if forwarded {
                    self.stats.load_forwarded += 1;
                }
                if ready_at_alloc {
                    self.stats.loads_ready_at_alloc += 1;
                }
                // EPP: SSBF false positives force a re-execution at
                // retirement — costs retire bandwidth and an L1 access.
                if matches!(self.cfg.vp, VpMode::Epp(_))
                    && self.rng.gen_bool(EPP_FALSE_POSITIVE_RATE)
                {
                    self.stats.epp_reexecutions += 1;
                    self.retire_blocked_until = self.cycle + 2;
                    let _ = self
                        .mem
                        .access_with(addr, self.cycle, false, &mut self.probe);
                }
            }
            UopKind::Store => {
                self.stats.retired_stores += 1;
                let m = uop.mem_ref();
                // Commit the store to the memory system.
                let _ = self
                    .mem
                    .access_with(m.addr, self.cycle, true, &mut self.probe);
                let oldest = self.sq.pop_front();
                debug_assert_eq!(oldest, Some(seq), "store queue out of order");
            }
            UopKind::Branch { .. } => {
                self.stats.retired_branches += 1;
                self.stats.branch_mispredicts += mispredicted as u64;
            }
            _ => {}
        }
        if uop.kind.is_load() {
            let oldest = self.lq.pop_front();
            debug_assert_eq!(oldest, Some(seq), "load queue out of order");
        }
        if P::ENABLED {
            self.probe.emit(self.cycle, ProbeEvent::Retire { seq });
        }
        // Free the previous mapping of the destination register.
        if let Some(prev) = prev_phys {
            self.unpublish(prev);
            self.free_pregs.push(prev);
        }
    }

    // ----- issue -----------------------------------------------------------

    fn issue(&mut self) {
        // Loads parked on L1 port contention get first claim on ports.
        self.drain_l1_retry();

        let mut alu = self.cfg.alu_ports;
        let mut fp = self.cfg.fp_ports;
        let mut load_agu = self.cfg.load_agu_ports;
        let mut store_agu = self.cfg.store_agu_ports;

        let now = self.cycle;
        let mut to_issue = std::mem::take(&mut self.scratch_issue);
        to_issue.clear();
        // Select examines the oldest `rs_entries` RS entries (squashed
        // re-executions can push the RS past the allocation limit), and of
        // those only the ready ones: a parked entry has a `NEVER` source,
        // which no cycle satisfies.
        let window = self.rob.len();
        let limit = if self.rs_len > self.cfg.rs_entries {
            (self.rs_wait)
                .nth_one(self.rob_base, window, self.cfg.rs_entries)
                .unwrap_or(window)
        } else {
            window
        };
        for at in self.rs_ready.ones(self.rob_base, limit) {
            if alu == 0 && fp == 0 && load_agu == 0 && store_agu == 0 {
                break;
            }
            let inst = &self.rob[at];
            if inst.not_before > now {
                continue;
            }
            // Speculative wakeup: all sources *predicted* ready.
            let woken = inst
                .src_phys
                .iter()
                .flatten()
                .all(|p| self.preg_pred[p.index()] <= now);
            if !woken {
                continue;
            }
            let port = match inst.uop.kind {
                UopKind::Alu { .. } | UopKind::Branch { .. } => &mut alu,
                UopKind::Fp { .. } => &mut fp,
                UopKind::Load => &mut load_agu,
                UopKind::Store => &mut store_agu,
            };
            if *port == 0 {
                continue;
            }
            *port -= 1;
            to_issue.push(inst.seq);
        }

        // Issue oldest first. A squash inside `issue_one` sends back only
        // entries younger than the one issuing; a selected one among them
        // is still in the RS, so its own `issue_one` below stays valid.
        for &seq in &to_issue {
            self.issue_one(seq);
        }
        self.scratch_issue = to_issue;
    }

    /// Issues a selected RS entry, or — when the scoreboard shows a
    /// mis-speculated wakeup — leaves it in the RS for a later retry.
    fn issue_one(&mut self, seq: SeqNum) {
        let now = self.cycle;
        let inst = self.inst(seq).expect("selected inst is in the window");
        // Scoreboard check: sources must be *actually* ready, or this was a
        // mis-speculated wakeup — cancel and re-dispatch later.
        let actual_ok = inst
            .src_phys
            .iter()
            .flatten()
            .all(|p| self.preg_actual[p.index()] <= now);
        if !actual_ok {
            self.stats.sched_reissues += 1;
            if P::ENABLED {
                self.probe.emit(now, ProbeEvent::SchedReissue { seq });
            }
            let not_before = now + REISSUE_PENALTY;
            if let Some(i) = self.inst_mut(seq) {
                i.not_before = not_before;
            }
            return;
        }
        let uop = self.inst(seq).expect("in window").uop;
        if let Some(i) = self.inst_mut(seq) {
            i.issue_cycle = Some(now);
        }
        self.rs_wait.remove(seq.raw());
        self.rs_ready.remove(seq.raw());
        self.rs_len -= 1;
        self.rs_used = self.rs_used.saturating_sub(1);
        match uop.kind {
            UopKind::Alu { latency } | UopKind::Fp { latency } => {
                let done = now + latency as Cycle;
                self.finish_simple(seq, done);
            }
            UopKind::Branch { .. } => {
                let done = now + 1;
                self.finish_simple(seq, done);
            }
            UopKind::Load => self.execute_load(seq),
            UopKind::Store => self.execute_store(seq),
        }
    }

    fn finish_simple(&mut self, seq: SeqNum, done: Cycle) {
        self.set_dst_timing(seq, done, done);
        let gen = self.inst(seq).expect("in window").gen;
        if let Some(i) = self.inst_mut(seq) {
            i.complete_cycle = Some(done);
        }
        if P::ENABLED {
            let now = self.cycle;
            let uop = self.inst(seq).expect("in window").uop;
            self.probe.emit(
                now,
                ProbeEvent::Execute {
                    seq,
                    pc: uop.pc,
                    class: uop_class(uop.kind),
                    issue: now,
                    complete: done,
                    level: None,
                    forwarded: false,
                },
            );
        }
        self.push_event(done, EventKind::Complete { seq, gen });
    }

    // ----- loads -----------------------------------------------------------

    fn execute_load(&mut self, seq: SeqNum) {
        let now = self.cycle;
        let inst = self.inst(seq).expect("in window");
        let uop = inst.uop;
        let addr = uop.mem_ref().addr;
        let rfp_state = inst.rfp;
        let dlvp_info = inst.dlvp;
        let vp_source = inst.vp_source;

        // The baseline L1 IP prefetcher trains on every load's real address
        // at AGU — a table update, not a cache access — so its behaviour is
        // identical whether or not the load's data ends up coming from an
        // RFP prefetch.
        if self.ipp.is_some() {
            let mut lines = std::mem::take(&mut self.scratch_lines);
            lines.clear();
            if let Some(ipp) = self.ipp.as_mut() {
                ipp.train_into(uop.pc, addr, &mut lines);
            }
            for &line in &lines {
                self.mem.prefetch_fill(line, now);
            }
            self.scratch_lines = lines;
        }

        // DLVP address validation happens at AGU: a wrong predicted
        // address is detectable as soon as the real one exists.
        if let (Some(VpSource::Dlvp), Some(info)) = (vp_source, dlvp_info) {
            if info.predicted_addr.is_some_and(|p| p != addr) {
                self.stats.ap_mispredicted += 1;
                let path = info.path;
                if let Some(d) = self.dlvp.as_mut() {
                    d.on_mispredict(uop.pc, path);
                }
                // Record a completion now so the flush can repair timing.
                if let Some(i) = self.inst_mut(seq) {
                    i.vp_source = None;
                    i.predicted_value = None;
                }
                self.value_flush(seq);
            }
        }
        // Re-read after the DLVP check may have cleared the prediction —
        // the timing below must treat this load as unpredicted then.
        let vp_active = self.inst(seq).is_some_and(|i| i.predicted_value.is_some());

        match rfp_state {
            RfpState::Queued { denied, .. } => {
                // The load beat its own prefetch: drop the packet. For
                // attribution, a packet that lost at least one port
                // arbitration died of port starvation; one that never
                // got a turn is a plain scheduling race. Both bump the
                // same coarse load-first counter.
                self.stats.rfp_dropped_load_first += 1;
                if P::ENABLED {
                    self.probe.emit(
                        now,
                        ProbeEvent::RfpDrop {
                            seq,
                            pc: uop.pc,
                            reason: if denied {
                                DropReason::NoPort
                            } else {
                                DropReason::LoadFirst
                            },
                        },
                    );
                }
                if let Some(i) = self.inst_mut(seq) {
                    i.rfp = RfpState::Dropped;
                }
            }
            RfpState::InFlight {
                addr: paddr,
                complete,
                level,
                stale,
                ..
            } => {
                if paddr == addr && !stale {
                    // Useful prefetch: the load consumes the register-file
                    // data and skips the caches entirely.
                    let done = complete.max(now + 1);
                    self.stats.rfp_useful += 1;
                    let fully_hidden = complete <= now + 1;
                    if fully_hidden {
                        self.stats.rfp_fully_hidden += 1;
                    }
                    if let Some(i) = self.inst_mut(seq) {
                        i.rfp_fully_hid = fully_hidden;
                        // Terminal state: a later flush of this load must
                        // not re-count the packet as a squashed drop.
                        i.rfp = RfpState::Consumed;
                    }
                    if P::ENABLED {
                        self.probe.emit(
                            now,
                            ProbeEvent::RfpResolve {
                                seq,
                                pc: uop.pc,
                                useful: true,
                                fully_hidden,
                                rfp_complete: complete,
                                load_issue: now,
                            },
                        );
                    }
                    let idx = HitLevel::ALL
                        .iter()
                        .position(|&l| l == level)
                        .expect("in ALL");
                    self.stats.load_hit_levels[idx] += 1;
                    self.finish_load(seq, done, Some(level), vp_active);
                    return;
                }
                // Address mismatch (or data gone stale behind a store):
                // count the wasted bandwidth, repair the PT/PAT, and take
                // the ordinary path below. Dependents woken against the
                // prefetch timing get cancelled by the scoreboard.
                self.stats.rfp_wrong_addr += 1;
                if P::ENABLED {
                    self.probe.emit(
                        now,
                        ProbeEvent::RfpResolve {
                            seq,
                            pc: uop.pc,
                            useful: false,
                            fully_hidden: false,
                            rfp_complete: complete,
                            load_issue: now,
                        },
                    );
                }
                if let Some(pt) = self.pt.as_mut() {
                    pt.on_mispredict(uop.pc, addr);
                }
                if let Some(i) = self.inst_mut(seq) {
                    i.rfp = RfpState::Dropped;
                }
            }
            _ => {}
        }

        match self.scan_stores(seq, addr) {
            StoreScan::Forward { store_seq } => {
                let store_done = self
                    .inst(store_seq)
                    .and_then(|s| s.complete_cycle)
                    .unwrap_or(now);
                let done = store_done.max(now) + FORWARD_LATENCY;
                if let Some(i) = self.inst_mut(seq) {
                    i.forwarded = true;
                    i.forward_from = Some(store_seq);
                }
                self.finish_load(seq, done, None, vp_active);
            }
            StoreScan::WaitFor { store_seq } => {
                let gen = self.inst(seq).expect("in window").gen;
                if let Some(i) = self.inst_mut(seq) {
                    i.phase = Phase::MemWait;
                }
                self.store_waiters
                    .entry(store_seq.raw())
                    .or_default()
                    .push((seq, gen));
            }
            StoreScan::NoConflict => {
                if self
                    .ports
                    .try_acquire_with(PortClient::DemandLoad, now, &mut self.probe)
                {
                    self.access_memory_for_load(seq, addr);
                } else {
                    let gen = self.inst(seq).expect("in window").gen;
                    if let Some(i) = self.inst_mut(seq) {
                        i.phase = Phase::MemWait;
                    }
                    self.l1_retry.push_back((seq, gen));
                }
            }
        }
    }

    fn drain_l1_retry(&mut self) {
        let mut n = self.l1_retry.len();
        while n > 0 {
            n -= 1;
            let (seq, gen) = self.l1_retry.pop_front().expect("counted");
            let Some(inst) = self.inst(seq) else { continue };
            if inst.gen != gen || inst.phase != Phase::MemWait {
                continue;
            }
            let addr = inst.uop.mem_ref().addr;
            let now = self.cycle;
            if !self
                .ports
                .try_acquire_with(PortClient::DemandLoad, now, &mut self.probe)
            {
                self.l1_retry.push_front((seq, gen));
                break;
            }
            self.access_memory_for_load(seq, addr);
        }
    }

    fn access_memory_for_load(&mut self, seq: SeqNum, addr: Addr) {
        let now = self.cycle;
        let result = self.mem.access_with(addr, now, false, &mut self.probe);
        let level = result.level;
        let idx = HitLevel::ALL
            .iter()
            .position(|&l| l == level)
            .expect("in ALL");
        self.stats.load_hit_levels[idx] += 1;
        let pc = self.inst(seq).expect("in window").uop.pc;
        let predicted_hit = self.hit_miss.predict_hit(pc);
        self.hit_miss.train(pc, level == HitLevel::L1);
        if let Some(i) = self.inst_mut(seq) {
            i.hit_level = Some(level);
        }
        let vp_active = self.inst(seq).expect("in window").predicted_value.is_some();
        let done = result.complete_at;
        let l1_lat = self.cfg.mem.l1.latency;
        // Speculative wakeup publication: dependents of a predicted-hit
        // load are woken for `now + L1 latency`; the hit/miss outcome
        // corrects a wrong guess a few cycles later.
        let published_pred = if predicted_hit { now + l1_lat } else { done };
        self.finish_load_with_pred(seq, done, published_pred, Some(level), vp_active);
    }

    fn finish_load(&mut self, seq: SeqNum, done: Cycle, level: Option<HitLevel>, vp_active: bool) {
        self.finish_load_with_pred(seq, done, done, level, vp_active);
    }

    fn finish_load_with_pred(
        &mut self,
        seq: SeqNum,
        done: Cycle,
        published_pred: Cycle,
        level: Option<HitLevel>,
        vp_active: bool,
    ) {
        let now = self.cycle;
        if !vp_active {
            self.set_dst_timing(seq, published_pred, done);
            if published_pred != done {
                if let Some(dst) = self.inst(seq).and_then(|i| i.dst_phys) {
                    self.push_event(
                        now + HIT_DETECT_LATENCY,
                        EventKind::PredCorrect {
                            preg: dst,
                            actual: done,
                        },
                    );
                }
            }
        }
        let gen = self.inst(seq).expect("in window").gen;
        if let Some(i) = self.inst_mut(seq) {
            i.complete_cycle = Some(done);
            i.mem_executed = true;
            if let Some(l) = level {
                i.hit_level = Some(l);
            }
        }
        if P::ENABLED {
            let inst = self.inst(seq).expect("in window");
            let issue = inst.issue_cycle.unwrap_or(now);
            let forwarded = inst.forwarded;
            let pc = inst.uop.pc;
            self.probe.emit(
                now,
                ProbeEvent::Execute {
                    seq,
                    pc,
                    class: UopClass::Load,
                    issue,
                    complete: done,
                    level: level.map(HitLevel::index),
                    forwarded,
                },
            );
        }
        self.push_event(done, EventKind::Complete { seq, gen });
    }

    /// LSQ scan for a load at `seq` accessing `addr` (used identically by
    /// demand loads and RFP requests — the paper's correctness guarantee).
    fn scan_stores(&mut self, seq: SeqNum, addr: Addr) -> StoreScan {
        let pc = match self.inst(seq) {
            Some(i) => i.uop.pc,
            None => return StoreScan::NoConflict,
        };
        let older = self.sq.partition_point(|&s| s < seq);
        let mut has_unresolved_older_store = false;
        // Youngest-first scan of older stores.
        for &s in self.sq.range(..older).rev() {
            let inst = self.inst(s).expect("store-queue entries are in the window");
            if inst.mem_executed {
                if inst.uop.mem_ref().addr == addr {
                    return StoreScan::Forward {
                        store_seq: inst.seq,
                    };
                }
            } else {
                has_unresolved_older_store = true;
            }
        }
        if has_unresolved_older_store {
            if let Some(dep) = self.store_sets.predicted_store_dependence(pc) {
                // Only meaningful if that store is still in flight, older,
                // and unresolved.
                if dep.is_older_than(seq) {
                    if let Some(s) = self.inst(dep) {
                        if s.uop.kind.is_store() && !s.mem_executed {
                            return StoreScan::WaitFor { store_seq: dep };
                        }
                    }
                }
            }
        }
        StoreScan::NoConflict
    }

    // ----- stores ----------------------------------------------------------

    fn execute_store(&mut self, seq: SeqNum) {
        let now = self.cycle;
        let done = now + 1;
        let inst = self.inst(seq).expect("in window");
        let pc = inst.uop.pc;
        let addr = inst.uop.mem_ref().addr;
        if let Some(i) = self.inst_mut(seq) {
            i.mem_executed = true;
            i.complete_cycle = Some(done);
        }
        let gen = self.inst(seq).expect("in window").gen;
        if P::ENABLED {
            self.probe.emit(
                now,
                ProbeEvent::Execute {
                    seq,
                    pc,
                    class: UopClass::Store,
                    issue: now,
                    complete: done,
                    level: None,
                    forwarded: false,
                },
            );
        }
        self.push_event(done, EventKind::Complete { seq, gen });
        self.store_sets.store_completed(pc, seq);

        // Wake loads deferred on this store by memory disambiguation.
        if let Some(waiters) = self.store_waiters.remove(&seq.raw()) {
            for (lseq, lgen) in waiters {
                let Some(l) = self.inst(lseq) else { continue };
                if l.gen != lgen || l.phase != Phase::MemWait {
                    continue;
                }
                let laddr = l.uop.mem_ref().addr;
                let vp_active = l.predicted_value.is_some();
                if laddr == addr {
                    let fdone = done + FORWARD_LATENCY;
                    if let Some(li) = self.inst_mut(lseq) {
                        li.forwarded = true;
                        li.forward_from = Some(seq);
                    }
                    self.finish_load(lseq, fdone, None, vp_active);
                } else {
                    // Predicted dependence didn't materialise: go to cache.
                    if self
                        .ports
                        .try_acquire_with(PortClient::DemandLoad, now, &mut self.probe)
                    {
                        self.access_memory_for_load(lseq, laddr);
                    } else {
                        let g = self.inst(lseq).expect("in window").gen;
                        self.l1_retry.push_back((lseq, g));
                    }
                }
            }
        }

        // Memory-ordering violation check: younger loads that already
        // obtained data from the wrong place.
        self.check_violations(seq, pc, addr);

        // RFP staleness: in-flight prefetched data for younger loads at
        // this address is now stale (paper §3.2.1 — when the load has not
        // yet dispatched, no flush is needed; it simply re-looks-up).
        let younger = self.lq.partition_point(|&l| l < seq);
        for &l in self.lq.range(younger..) {
            let l = &mut self.rob[(l.raw() - self.rob_base) as usize];
            if let RfpState::InFlight {
                addr: paddr, stale, ..
            } = &mut l.rfp
            {
                if *paddr == addr && l.issue_cycle.is_none() {
                    *stale = true;
                }
            }
        }
    }

    fn check_violations(&mut self, store_seq: SeqNum, store_pc: rfp_types::Pc, addr: Addr) {
        let younger = self.lq.partition_point(|&l| l < store_seq);
        let mut victim: Option<(SeqNum, rfp_types::Pc)> = None;
        for &l in self.lq.range(younger..) {
            let l = self.inst(l).expect("load-queue entries are in the window");
            if !l.mem_executed {
                continue;
            }
            if l.uop.mem_ref().addr != addr {
                continue;
            }
            // The load already executed. If it forwarded from this store or
            // a younger one, its data is fine; if it read the cache or an
            // older store, it has stale data.
            let fine = l
                .forward_from
                .is_some_and(|src| !src.is_older_than(store_seq));
            if !fine {
                victim = Some((l.seq, l.uop.pc));
                break; // oldest violating load
            }
        }
        if let Some((lseq, lpc)) = victim {
            self.stats.md_violations += 1;
            self.store_sets.record_violation(lpc, store_pc);
            self.violation_flush(lseq);
        }
    }

    /// Memory-ordering flush: the load itself and everything younger
    /// re-execute after the penalty.
    fn violation_flush(&mut self, load_seq: SeqNum) {
        let penalty_end = self.cycle + VP_FLUSH_PENALTY;
        self.dispatch_blocked_until = self.dispatch_blocked_until.max(penalty_end);
        if P::ENABLED {
            self.probe.emit(
                self.cycle,
                ProbeEvent::Flush {
                    seq: load_seq,
                    kind: FlushKind::MemOrder,
                },
            );
        }
        // The load's own RFP packet cannot still be live: the load has
        // executed, which resolved the packet one way or the other — so
        // squashing it adds nothing to the funnel's squashed-drop bucket.
        debug_assert!(self
            .inst(load_seq)
            .is_some_and(|i| !i.rfp.is_queued() && !i.rfp.is_inflight()));
        self.squash_from(load_seq, penalty_end);
    }

    // ----- RFP engine ------------------------------------------------------

    fn rfp_engine(&mut self) {
        // Copy out the two flags the loop needs instead of cloning the
        // whole RFP config every cycle.
        let (drop_on_tlb_miss, continue_on_l1_miss) = match self.cfg.rfp.as_ref() {
            Some(r) => (r.drop_on_tlb_miss, r.continue_on_l1_miss),
            None => return,
        };
        // FIFO: only the front packets can bid this cycle; older wins.
        while let Some(&pkt) = self.rfp_queue.front() {
            // Stale or superseded packet?
            let state = self
                .inst(pkt.seq)
                .map(|i| (i.gen, i.rfp, i.issue_cycle.is_some(), i.uop.pc));
            let Some((gen, state, issued, pc)) = state else {
                self.rfp_queue.pop_front();
                continue;
            };
            if gen != pkt.gen || !state.is_queued() || issued {
                // Load issued first / squashed: packet dies silently (the
                // drop stat was counted where it happened).
                self.rfp_queue.pop_front();
                continue;
            }
            // DTLB check: prefetching across a TLB miss has no run-ahead
            // left; drop (§3.2.2).
            if drop_on_tlb_miss && !self.mem.rfp_dtlb_hit(pkt.addr) {
                self.stats.rfp_dropped_tlb += 1;
                if P::ENABLED {
                    self.probe.emit(
                        self.cycle,
                        ProbeEvent::RfpDrop {
                            seq: pkt.seq,
                            pc,
                            reason: DropReason::TlbMiss,
                        },
                    );
                }
                if let Some(i) = self.inst_mut(pkt.seq) {
                    i.rfp = RfpState::Dropped;
                }
                self.rfp_queue.pop_front();
                continue;
            }
            // Store interactions, with the *predicted* address.
            match self.scan_stores(pkt.seq, pkt.addr) {
                StoreScan::Forward { store_seq } => {
                    // Take the data straight from the store queue.
                    let now = self.cycle;
                    if !self
                        .ports
                        .try_acquire_with(PortClient::Rfp, now, &mut self.probe)
                    {
                        self.mark_rfp_denied(pkt.seq);
                        break;
                    }
                    let store_done = self
                        .inst(store_seq)
                        .and_then(|s| s.complete_cycle)
                        .unwrap_or(now);
                    let complete = store_done.max(now) + FORWARD_LATENCY;
                    self.stats.rfp_executed += 1;
                    if let Some(i) = self.inst_mut(pkt.seq) {
                        i.rfp = RfpState::InFlight {
                            addr: pkt.addr,
                            lookup_start: now,
                            complete,
                            level: HitLevel::L1,
                            stale: false,
                        };
                    }
                    if P::ENABLED {
                        self.probe.emit(
                            now,
                            ProbeEvent::RfpExecute {
                                seq: pkt.seq,
                                pc,
                                addr: pkt.addr,
                                complete,
                                level: HitLevel::L1.index(),
                                queued_for: now.saturating_sub(pkt.injected_at),
                            },
                        );
                    }
                    self.publish_rfp_timing(pkt.seq, complete);
                    self.rfp_queue.pop_front();
                }
                StoreScan::WaitFor { .. } => {
                    // Wait at the head for the store to resolve, exactly as
                    // the load would (paper §3.2.1). Re-bid next cycle.
                    break;
                }
                StoreScan::NoConflict => {
                    // Lowest priority everywhere: never let a prefetch take
                    // one of the last L2 miss slots from demand loads.
                    if self.mem.prefetch_would_starve_demand(pkt.addr, self.cycle) {
                        self.stats.rfp_dropped_l1_miss += 1;
                        if P::ENABLED {
                            self.probe.emit(
                                self.cycle,
                                ProbeEvent::RfpDrop {
                                    seq: pkt.seq,
                                    pc,
                                    reason: DropReason::MshrStarve,
                                },
                            );
                        }
                        if let Some(i) = self.inst_mut(pkt.seq) {
                            i.rfp = RfpState::Dropped;
                        }
                        self.rfp_queue.pop_front();
                        continue;
                    }
                    let now = self.cycle;
                    if !self
                        .ports
                        .try_acquire_with(PortClient::Rfp, now, &mut self.probe)
                    {
                        self.mark_rfp_denied(pkt.seq);
                        break;
                    }
                    let result = self.mem.access_with(pkt.addr, now, false, &mut self.probe);
                    if result.level != HitLevel::L1 && !continue_on_l1_miss {
                        self.stats.rfp_dropped_l1_miss += 1;
                        if P::ENABLED {
                            self.probe.emit(
                                now,
                                ProbeEvent::RfpDrop {
                                    seq: pkt.seq,
                                    pc,
                                    reason: DropReason::L1Miss,
                                },
                            );
                        }
                        if let Some(i) = self.inst_mut(pkt.seq) {
                            i.rfp = RfpState::Dropped;
                        }
                        self.rfp_queue.pop_front();
                        continue;
                    }
                    self.stats.rfp_executed += 1;
                    if let Some(i) = self.inst_mut(pkt.seq) {
                        i.rfp = RfpState::InFlight {
                            addr: pkt.addr,
                            lookup_start: now,
                            complete: result.complete_at,
                            level: result.level,
                            stale: false,
                        };
                    }
                    if P::ENABLED {
                        self.probe.emit(
                            now,
                            ProbeEvent::RfpExecute {
                                seq: pkt.seq,
                                pc,
                                addr: pkt.addr,
                                complete: result.complete_at,
                                level: result.level.index(),
                                queued_for: now.saturating_sub(pkt.injected_at),
                            },
                        );
                    }
                    self.publish_rfp_timing(pkt.seq, result.complete_at);
                    self.rfp_queue.pop_front();
                }
            }
        }
    }

    /// Records that a queued packet lost an L1 port arbitration. Pure
    /// drop-attribution bookkeeping: the flag is only ever read when
    /// the load later beats its own prefetch (NoPort vs LoadFirst), so
    /// setting it unconditionally — probes on or not — keeps probed and
    /// unprobed runs on the exact same state trajectory.
    fn mark_rfp_denied(&mut self, seq: SeqNum) {
        if let Some(i) = self.inst_mut(seq) {
            if let RfpState::Queued { denied, .. } = &mut i.rfp {
                *denied = true;
            }
        }
    }

    /// Once `RFP-inflight` is set, the load's dependents are woken against
    /// the prefetch's completion instead of the full load latency. The
    /// load itself still has to issue (AGU + address check), so the
    /// published prediction is bounded below by the load's own earliest
    /// execution.
    fn publish_rfp_timing(&mut self, seq: SeqNum, rfp_complete: Cycle) {
        let Some(inst) = self.inst(seq) else { return };
        if inst.predicted_value.is_some() {
            return; // VP already freed the dependents
        }
        let Some(dst) = inst.dst_phys else { return };
        // Estimate when the load itself can reach execution: its own
        // sources' predicted readiness gates the wakeup chain. If a source
        // has no prediction yet, dependents must not be woken early — the
        // benefit still lands when the load issues and uses the prefetch.
        let mut src_ready = inst.not_before.max(self.cycle + 1);
        for p in inst.src_phys.iter().flatten() {
            let pr = self.preg_pred[p.index()];
            if pr == NEVER {
                return;
            }
            src_ready = src_ready.max(pr);
        }
        let pred = rfp_complete.max(src_ready + 1);
        self.publish_pred(dst, pred);
        // `actual` stays NEVER until the load issues and verifies the
        // address; dependents selected before that fail the scoreboard and
        // re-issue — the cancel path the paper reuses.
    }

    // ----- dispatch --------------------------------------------------------

    /// Uop-queue capacity of the modelled front-end (Tiger-Lake-like).
    const FETCH_QUEUE_DEPTH: usize = 70;

    fn dispatch(&mut self, trace: &mut std::iter::Peekable<impl Iterator<Item = MicroOp>>) {
        // Fetch stage: stamp up to `width` new queue slots per cycle unless
        // the front-end is squashed behind a mispredicted branch.
        if self.fetch_stall_branch.is_none() {
            for _ in 0..self.cfg.width {
                if self.fetch_queue.len() >= Self::FETCH_QUEUE_DEPTH {
                    break;
                }
                self.fetch_queue.push_back(self.cycle);
            }
        }
        if self.cycle < self.dispatch_blocked_until {
            return;
        }
        for _ in 0..self.cfg.width {
            if self.fetch_stall_branch.is_some() {
                break;
            }
            let Some(&uop) = trace.peek() else { break };
            // Structural stalls.
            if self.rob.len() >= self.cfg.rob_entries
                || self.rs_used >= self.cfg.rs_entries
                || (uop.kind.is_load() && self.lq.len() >= self.cfg.ldq_entries)
                || (uop.kind.is_store() && self.sq.len() >= self.cfg.stq_entries)
                || self.free_pregs.is_empty()
            {
                break;
            }
            // The uop was fetched `fetch_to_alloc` before the front of the
            // queue says (pipeline depth), or earlier if dispatch lagged.
            let fetch_cycle = self
                .fetch_queue
                .pop_front()
                .unwrap_or(self.cycle)
                .saturating_sub(FETCH_TO_ALLOC)
                .min(self.cycle.saturating_sub(FETCH_TO_ALLOC));
            let uop = trace.next().expect("peeked");
            self.dispatch_one(uop, fetch_cycle);
        }
    }

    fn dispatch_one(&mut self, uop: MicroOp, fetch_cycle: Cycle) {
        let now = self.cycle;
        let seq = SeqNum::new(self.next_seq);
        self.next_seq += 1;
        if P::ENABLED {
            self.probe.emit(
                now,
                ProbeEvent::Alloc {
                    seq,
                    pc: uop.pc,
                    class: uop_class(uop.kind),
                },
            );
        }
        let mut inst = DynInst::new(seq, uop, now);

        // Rename: snapshot source mappings, allocate a destination.
        for (slot, src) in inst.src_phys.iter_mut().zip(uop.src_regs.iter()) {
            if let Some(a) = src {
                *slot = Some(self.rename_map[a.index()]);
            }
        }
        if let Some(d) = uop.dst {
            let preg = self.free_pregs.pop().expect("checked non-empty");
            inst.prev_phys = Some(self.rename_map[d.index()]);
            self.rename_map[d.index()] = preg;
            self.unpublish(preg);
            inst.dst_phys = Some(preg);
        }
        inst.ready_at_alloc = inst
            .src_phys
            .iter()
            .flatten()
            .all(|p| self.preg_actual[p.index()] <= now);
        if P::ENABLED {
            // Rename detail for the flight recorder: the renamed operand
            // mappings let a sink reconstruct exact producer→consumer
            // edges without the core carrying any extra state.
            self.probe.emit(
                now,
                ProbeEvent::Dispatch {
                    seq,
                    fetch: fetch_cycle,
                    src_phys: inst.src_phys,
                    dst_phys: inst.dst_phys,
                },
            );
        }

        self.rs_used += 1;
        match uop.kind {
            UopKind::Load => {
                self.lq.push_back(seq);
                self.dispatch_load_extras(&mut inst, fetch_cycle);
            }
            UopKind::Store => {
                self.sq.push_back(seq);
                self.store_sets.store_dispatched(uop.pc, seq);
            }
            UopKind::Branch {
                taken,
                mispredicted,
            } => {
                self.path.push(uop.pc);
                // Either trust the trace's oracle marker, or let the
                // modelled gshare decide from the actual outcome stream.
                let missed = match self.gshare.as_mut() {
                    Some(bp) => bp.predict_and_train(uop.pc, taken),
                    None => mispredicted,
                };
                if missed {
                    inst.branch_mispredicted = true;
                    self.fetch_stall_branch = Some(seq);
                }
            }
            _ => {}
        }
        self.rs_wait.insert(seq.raw());
        self.rs_len += 1;
        self.park_or_ready(seq, inst.src_phys);
        self.rob.push_back(inst);
    }

    /// Value prediction, DLVP and RFP injection for a freshly renamed load.
    fn dispatch_load_extras(&mut self, inst: &mut DynInst, fetch_cycle: Cycle) {
        let now = self.cycle;
        let pc = inst.uop.pc;
        let path = self.path;

        // EVES value prediction (Eves / Composite modes).
        if let Some(e) = self.eves.as_mut() {
            if let Some(v) = e.on_allocate(pc) {
                inst.predicted_value = Some(v);
                inst.vp_source = Some(VpSource::Eves);
            }
        }

        // DLVP early address prediction + probe (Dlvp / Composite / Epp).
        if let Some(d) = self.dlvp.as_mut() {
            let knows = d.knows(pc, path);
            let predicted = d.on_allocate(pc, path);
            let mut info = DlvpInfo {
                path,
                predicted_addr: predicted,
                probe_success: false,
            };
            if knows {
                self.stats.ap_known += 1;
            }
            if let Some(paddr) = predicted {
                self.stats.ap_high_confidence += 1;
                let fwd_likely = d.forwarding_likely(pc);
                if !fwd_likely {
                    self.stats.ap_no_fwd += 1;
                    if self
                        .ports
                        .try_acquire_with(PortClient::ApProbe, now, &mut self.probe)
                    {
                        self.stats.ap_probe_launched += 1;
                        let probe_done = fetch_cycle + self.cfg.mem.l1.latency + AP_PROBE_OVERHEAD;
                        let held_too_long = now.saturating_sub(fetch_cycle) > AP_PROBE_HOLD;
                        if probe_done <= now && !held_too_long && inst.predicted_value.is_none() {
                            self.stats.ap_probe_success += 1;
                            info.probe_success = true;
                            // The probe's data is a value prediction; its
                            // correctness is checked at execution (address
                            // match and no store interference).
                            let value = if paddr == inst.uop.mem_ref().addr {
                                inst.uop.mem_ref().value
                            } else {
                                // Wrong address: the probe returned *some*
                                // bytes; any value will fail validation.
                                inst.uop.mem_ref().value ^ 0xbad
                            };
                            inst.predicted_value = Some(value);
                            inst.vp_source = Some(VpSource::Dlvp);
                        }
                    }
                }
            }
            inst.dlvp = Some(info);
        }

        // Value-predicted loads break their dependence right here.
        if inst.predicted_value.is_some() {
            if let Some(dst) = inst.dst_phys {
                self.publish_pred(dst, now);
                self.preg_actual[dst.index()] = now;
            }
        }

        // RFP injection (paper §3.2): look up the PT, mark eligibility,
        // send a packet with the predicted address and the prfid.
        let Some(rfp_cfg) = self.cfg.rfp.as_ref() else {
            return;
        };
        // VP+RFP fusion (§5.3): a load the VP already covers needs no
        // prefetch.
        if inst.predicted_value.is_some() {
            return;
        }
        if rfp_cfg.critical_only
            && !self
                .criticality
                .as_ref()
                .is_some_and(|ct| ct.is_critical(pc))
        {
            return;
        }
        let decision = self
            .pt
            .as_mut()
            .map(|pt| pt.on_allocate(pc))
            .unwrap_or(PtDecision::NoPrefetch);
        // The context prefetcher tracks its own in-flight instances, so it
        // must see every allocation even when the stride table already
        // fired.
        let ctx_pred = self.ctx.as_mut().and_then(|c| c.on_allocate(pc));
        let predicted_addr = match decision {
            PtDecision::Prefetch(a) => Some(a),
            PtDecision::NoPrefetch => ctx_pred,
        };
        let Some(addr) = predicted_addr else {
            // The predictors declined: per-site attribution wants to
            // know why. `miss_kind` is read-only, so querying it only
            // under probes cannot perturb the simulation.
            if P::ENABLED {
                let kind = match self.pt.as_ref().map(|pt| pt.miss_kind(pc)) {
                    None | Some(PtMissKind::Cold) => PredictMiss::Cold,
                    Some(PtMissKind::LowConfidence) => PredictMiss::LowConfidence,
                    Some(PtMissKind::NoAddress) => PredictMiss::NoAddress,
                };
                self.probe.emit(
                    now,
                    ProbeEvent::RfpNotPredicted {
                        seq: inst.seq,
                        pc,
                        kind,
                    },
                );
            }
            return;
        };
        if self.rfp_queue.len() >= RFP_QUEUE_ENTRIES {
            // Rejected before entering the funnel: `rfp_injected` is not
            // incremented, so queue-full drops sit outside the terminal-
            // bucket equation (see `CoreStats::funnel_consistent`).
            self.stats.rfp_dropped_queue_full += 1;
            if P::ENABLED {
                self.probe.emit(
                    now,
                    ProbeEvent::RfpDrop {
                        seq: inst.seq,
                        pc,
                        reason: DropReason::QueueFull,
                    },
                );
            }
            return;
        }
        self.stats.rfp_injected += 1;
        inst.rfp = RfpState::Queued {
            addr,
            denied: false,
        };
        if P::ENABLED {
            self.probe.emit(
                now,
                ProbeEvent::RfpInject {
                    seq: inst.seq,
                    pc,
                    addr,
                },
            );
        }
        self.rfp_queue.push_back(RfpPacket {
            seq: inst.seq,
            gen: inst.gen,
            addr,
            injected_at: now,
        });
    }

    /// Pre-installs memory regions into the cache hierarchy (checkpoint
    /// warmup). Each item is `(base, bytes, deepest resident level)`.
    pub fn prewarm_from(&mut self, regions: impl IntoIterator<Item = (Addr, u64, HitLevel)>) {
        for (base, bytes, level) in regions {
            self.mem.prewarm_region(base, bytes, level);
        }
    }

    /// Read-only access to the accumulated statistics (useful in tests).
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }
}

/// Everything one warmup produces, captured once and forked many times:
/// the complete state of a [`Core`] paused just short of its warmup
/// boundary — cache/TLB/MSHR contents, predictor tables, branch and
/// store-set history, the RNG stream, and the trace cursor
/// ([`WarmState::consumed_uops`]).
///
/// Produced by [`Core::warm_up`]. [`WarmState::resume`] runs the
/// snapshot itself for an exact byte-identical fork, so a caller that
/// forks it again resumes a clone (`Arc::unwrap_or_clone` clones only
/// while another holder remains). The window forks
/// ([`WarmState::resume_window`], [`WarmState::transplant_window`]) take
/// it by reference, any number of times, from any thread via `Arc`.
#[derive(Clone)]
pub struct WarmState {
    core: Core<NoopProbe>,
    finished: bool,
}

impl std::fmt::Debug for WarmState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmState")
            .field("consumed_uops", &self.consumed_uops())
            .field("finished", &self.finished)
            .field("approx_bytes", &self.approx_bytes())
            .finish()
    }
}

impl WarmState {
    /// Number of trace uops the warmup consumed — the cursor at which
    /// [`WarmState::resume`] expects the remainder of the trace to start.
    pub fn consumed_uops(&self) -> u64 {
        self.core.next_seq
    }

    /// True when the warmup trace ran to completion before reaching the
    /// warmup boundary (trace shorter than the warmup window). Resuming is
    /// still valid: it just finalizes immediately.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Approximate host-memory footprint of the snapshot in bytes (see
    /// [`Core::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        self.core.approx_bytes()
    }

    /// The configuration the snapshot was warmed under.
    pub fn config(&self) -> &CoreConfig {
        &self.core.cfg
    }

    /// Runs the snapshot to completion over `rest` — the original trace
    /// minus its first [`WarmState::consumed_uops`] entries.
    /// Byte-identical to `Core::run_with_warmup` over the whole trace.
    pub fn resume(self, rest: impl IntoIterator<Item = MicroOp>) -> CoreStats {
        self.resume_probed(rest, NoopProbe).0
    }

    /// [`WarmState::resume`] with a probe attached to the fork. The probe
    /// observes the same event stream a straight-through probed run would
    /// retain (see [`Core::run_loop`] on pause placement).
    pub fn resume_probed<Q: Probe>(
        self,
        rest: impl IntoIterator<Item = MicroOp>,
        probe: Q,
    ) -> (CoreStats, Q) {
        let mut core = self.core.into_probed(probe);
        let wall_start = Instant::now();
        if self.finished {
            return core.finalize(wall_start);
        }
        let mut rest = rest.into_iter().peekable();
        core.run_loop(&mut rest, false);
        core.finalize(wall_start)
    }

    /// Forks the snapshot to measure one trace *window*: runs `rest` (a
    /// slice of the original trace starting anywhere at or after the
    /// snapshot's cursor position is resolvable) and discards statistics
    /// until `warm_uops` of the fed stream have retired — the snapshot's
    /// in-flight uops drain first and are always excluded. Used by the
    /// phase sampler: `rest` is a warm prefix plus one representative
    /// interval, `warm_uops` is the prefix length, and the returned stats
    /// cover exactly the interval.
    pub fn resume_window(
        &self,
        rest: impl IntoIterator<Item = MicroOp>,
        warm_uops: u64,
    ) -> CoreStats {
        self.resume_window_probed(rest, warm_uops, NoopProbe).0
    }

    /// [`WarmState::resume_window`] with a probe attached to the fork.
    /// The probe sees the warm prefix too (its `StatsReset` event marks
    /// the window start, exactly like a straight-through warmup run).
    pub fn resume_window_probed<Q: Probe>(
        &self,
        rest: impl IntoIterator<Item = MicroOp>,
        warm_uops: u64,
        probe: Q,
    ) -> (CoreStats, Q) {
        let mut core = self.core.clone().into_probed(probe);
        // Everything dispatched before the fork (`next_seq` uops, some
        // still in flight) plus the first `warm_uops` of `rest` retire
        // before the stats reset, so the measured region is exactly the
        // remainder of `rest`.
        core.warmup_uops = self.core.next_seq + warm_uops;
        core.warmup_done = false;
        let wall_start = Instant::now();
        if self.finished {
            return core.finalize(wall_start);
        }
        let mut rest = rest.into_iter().peekable();
        core.run_loop(&mut rest, false);
        core.finalize(wall_start)
    }

    /// Functional warmup across configs, for one sampled window: builds
    /// a fresh core for `cfg` (which must share the donor's
    /// memory-hierarchy configuration), adopts the donor's
    /// position-independent warm structures (see
    /// `Core::transplanted`), then treats the first `warm_uops`
    /// of `measured` as detailed warmup (re-filling the config-specific
    /// structures the donor leaves cold) before the stats reset. With
    /// `warm_uops == 0` every op of `measured` is measured. Approximate by
    /// design: config-specific predictor tables start cold and in-flight
    /// donor state is dropped.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `cfg` is invalid.
    pub fn transplant_window(
        &self,
        cfg: &CoreConfig,
        measured: impl IntoIterator<Item = MicroOp>,
        warm_uops: u64,
    ) -> Result<CoreStats, ConfigError> {
        self.transplant_window_probed(cfg, measured, warm_uops, NoopProbe)
            .map(|(stats, _)| stats)
    }

    /// [`WarmState::transplant_window`] with a probe attached.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `cfg` is invalid.
    pub fn transplant_window_probed<Q: Probe>(
        &self,
        cfg: &CoreConfig,
        measured: impl IntoIterator<Item = MicroOp>,
        warm_uops: u64,
        probe: Q,
    ) -> Result<(CoreStats, Q), ConfigError> {
        let core = Core::transplanted(cfg.clone(), probe, &self.core)?;
        Ok(core.run_with_warmup_probed(measured, warm_uops))
    }
}

impl WarmState {
    /// Serializes the snapshot for the on-disk experiment store.
    pub fn to_bytes(&self) -> Vec<u8> {
        rfp_types::codec::encode_to_vec(self)
    }

    /// Deserializes a snapshot previously produced by
    /// [`WarmState::to_bytes`]. A resumed fork is byte-identical to a fork
    /// of the original in-memory snapshot.
    ///
    /// # Errors
    ///
    /// Returns a [`rfp_types::codec::CodecError`] on truncated, corrupt,
    /// or structurally inconsistent bytes — never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, rfp_types::codec::CodecError> {
        rfp_types::codec::decode_from_slice(bytes)
    }
}

mod codec_impls {
    //! Binary codec for warm-state persistence. The complete
    //! microarchitectural state of a paused [`Core`] round-trips through
    //! bytes so one warmup can be paid once *per store lifetime* rather
    //! than once per process.

    use super::{Core, EventKind, RfpPacket, RingBits, WarmState};
    use rand::rngs::SmallRng;
    use rfp_obs::NoopProbe;
    use rfp_types::codec::{ByteReader, ByteWriter, Codec, CodecError};
    use std::collections::VecDeque;

    impl Codec for EventKind {
        fn encode(&self, w: &mut ByteWriter) {
            match self {
                EventKind::Complete { seq, gen } => {
                    w.put_u8(0);
                    seq.encode(w);
                    gen.encode(w);
                }
                EventKind::PredCorrect { preg, actual } => {
                    w.put_u8(1);
                    preg.encode(w);
                    actual.encode(w);
                }
            }
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            match r.get_u8()? {
                0 => Ok(EventKind::Complete {
                    seq: Codec::decode(r)?,
                    gen: Codec::decode(r)?,
                }),
                1 => Ok(EventKind::PredCorrect {
                    preg: Codec::decode(r)?,
                    actual: Codec::decode(r)?,
                }),
                _ => Err(CodecError::Invalid("event kind tag")),
            }
        }
    }

    impl Codec for RfpPacket {
        fn encode(&self, w: &mut ByteWriter) {
            let RfpPacket {
                seq,
                gen,
                addr,
                injected_at,
            } = *self;
            seq.encode(w);
            gen.encode(w);
            addr.encode(w);
            injected_at.encode(w);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            Ok(RfpPacket {
                seq: Codec::decode(r)?,
                gen: Codec::decode(r)?,
                addr: Codec::decode(r)?,
                injected_at: Codec::decode(r)?,
            })
        }
    }

    impl Codec for Core<NoopProbe> {
        fn encode(&self, w: &mut ByteWriter) {
            let Core {
                cfg,
                probe: NoopProbe,
                cycle,
                next_seq,
                rob,
                rob_base,
                // Derived from the ROB and the register predictions:
                // rebuilt on decode. The queues' lengths stand in for the
                // occupancy counters earlier snapshots carried, so the
                // bytes are unchanged.
                rs_wait: _,
                rs_ready: _,
                rs_len: _,
                pred_waiters: _,
                lq,
                sq,
                rename_map,
                free_pregs,
                preg_pred,
                preg_actual,
                mem,
                ports,
                pt,
                ctx,
                ipp,
                gshare,
                criticality,
                hit_miss,
                store_sets,
                eves,
                dlvp,
                path,
                fetch_stall_branch,
                dispatch_blocked_until,
                retire_blocked_until,
                fetch_queue,
                rfp_queue,
                events,
                l1_retry,
                store_waiters,
                // Cleared before every use; carry no cross-cycle state.
                scratch_issue: _,
                scratch_pregs: _,
                scratch_lines: _,
                rs_used,
                rng,
                stats,
                last_retire_cycle,
                warmup_uops,
                warmup_done,
                cycle_offset,
            } = self;
            cfg.encode(w);
            cycle.encode(w);
            next_seq.encode(w);
            rob.encode(w);
            rob_base.encode(w);
            rename_map.encode(w);
            free_pregs.encode(w);
            preg_pred.encode(w);
            preg_actual.encode(w);
            mem.encode(w);
            ports.encode(w);
            pt.encode(w);
            ctx.encode(w);
            ipp.encode(w);
            gshare.encode(w);
            criticality.encode(w);
            hit_miss.encode(w);
            store_sets.encode(w);
            eves.encode(w);
            dlvp.encode(w);
            path.encode(w);
            fetch_stall_branch.encode(w);
            dispatch_blocked_until.encode(w);
            retire_blocked_until.encode(w);
            fetch_queue.encode(w);
            rfp_queue.encode(w);
            events.encode(w);
            l1_retry.encode(w);
            store_waiters.encode(w);
            lq.len().encode(w);
            sq.len().encode(w);
            rs_used.encode(w);
            rng.state().encode(w);
            stats.encode(w);
            last_retire_cycle.encode(w);
            warmup_uops.encode(w);
            warmup_done.encode(w);
            cycle_offset.encode(w);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            // Queue occupancies, checked against the rebuilt queues below.
            let (ldq_used, stq_used): (usize, usize);
            let mut core = Core {
                cfg: Codec::decode(r)?,
                probe: NoopProbe,
                cycle: Codec::decode(r)?,
                next_seq: Codec::decode(r)?,
                rob: Codec::decode(r)?,
                rob_base: Codec::decode(r)?,
                rs_wait: RingBits::for_window(0),
                rs_ready: RingBits::for_window(0),
                rs_len: 0,
                pred_waiters: Vec::new(),
                lq: VecDeque::new(),
                sq: VecDeque::new(),
                rename_map: Codec::decode(r)?,
                free_pregs: Codec::decode(r)?,
                preg_pred: Codec::decode(r)?,
                preg_actual: Codec::decode(r)?,
                mem: Codec::decode(r)?,
                ports: Codec::decode(r)?,
                pt: Codec::decode(r)?,
                ctx: Codec::decode(r)?,
                ipp: Codec::decode(r)?,
                gshare: Codec::decode(r)?,
                criticality: Codec::decode(r)?,
                hit_miss: Codec::decode(r)?,
                store_sets: Codec::decode(r)?,
                eves: Codec::decode(r)?,
                dlvp: Codec::decode(r)?,
                path: Codec::decode(r)?,
                fetch_stall_branch: Codec::decode(r)?,
                dispatch_blocked_until: Codec::decode(r)?,
                retire_blocked_until: Codec::decode(r)?,
                fetch_queue: Codec::decode(r)?,
                rfp_queue: Codec::decode(r)?,
                events: Codec::decode(r)?,
                l1_retry: Codec::decode(r)?,
                store_waiters: Codec::decode(r)?,
                scratch_issue: Vec::new(),
                scratch_pregs: Vec::new(),
                scratch_lines: Vec::new(),
                rs_used: {
                    ldq_used = Codec::decode(r)?;
                    stq_used = Codec::decode(r)?;
                    Codec::decode(r)?
                },
                rng: SmallRng::from_state(Codec::decode(r)?),
                stats: Codec::decode(r)?,
                last_retire_cycle: Codec::decode(r)?,
                warmup_uops: Codec::decode(r)?,
                warmup_done: Codec::decode(r)?,
                cycle_offset: Codec::decode(r)?,
            };
            let phys = core.cfg.phys_regs();
            if core.preg_pred.len() != phys
                || core.preg_actual.len() != phys
                || core.rob.len() > core.cfg.rob_entries
                || core.free_pregs.len() > phys
                || core
                    .rename_map
                    .iter()
                    .chain(core.free_pregs.iter())
                    .any(|p| p.index() >= phys)
            {
                return Err(CodecError::Invalid("core register state"));
            }
            // The optional structures must agree with the configuration:
            // the cycle loop branches on the config and unwraps the state.
            let cfg = &core.cfg;
            let rfp_on = cfg.rfp.is_some();
            let ctx_on = cfg.rfp.as_ref().is_some_and(|r| r.use_context);
            let crit_on = cfg.rfp.as_ref().is_some_and(|r| r.critical_only);
            let gshare_on = matches!(cfg.branch_mode, crate::config::BranchMode::Gshare);
            let (eves_on, dlvp_on) = match &cfg.vp {
                crate::config::VpMode::Off => (false, false),
                crate::config::VpMode::Eves(_) => (true, false),
                crate::config::VpMode::Dlvp(_) | crate::config::VpMode::Epp(_) => (false, true),
                crate::config::VpMode::Composite(..) => (true, true),
            };
            if core.pt.is_some() != rfp_on
                || core.ctx.is_some() != ctx_on
                || core.criticality.is_some() != crit_on
                || core.ipp.is_some() != cfg.l1_ip_prefetcher
                || core.gshare.is_some() != gshare_on
                || core.eves.is_some() != eves_on
                || core.dlvp.is_some() != dlvp_on
            {
                return Err(CodecError::Invalid("core predictor presence"));
            }
            // The window holds consecutive seqs from `rob_base` up to
            // `next_seq`; the derived lists rely on that order.
            let window_ok = core.rob_base.checked_add(core.rob.len() as u64) == Some(core.next_seq)
                && (core.rob.iter())
                    .zip(core.rob_base..)
                    .all(|(inst, seq)| inst.seq.raw() == seq);
            if !window_ok {
                return Err(CodecError::Invalid("core window sequence"));
            }
            // Rebuilding the RS reads the predictions of every renamed
            // register in the window.
            let in_file = |p: &Option<rfp_types::PhysReg>| p.is_none_or(|p| p.index() < phys);
            if !(core.rob.iter()).all(|i| {
                i.src_phys
                    .iter()
                    .chain([&i.dst_phys, &i.prev_phys])
                    .all(in_file)
            }) {
                return Err(CodecError::Invalid("core window registers"));
            }
            core.rebuild_derived_lists();
            if core.lq.len() != ldq_used || core.sq.len() != stq_used {
                return Err(CodecError::Invalid("core LSQ occupancy"));
            }
            #[cfg(debug_assertions)]
            core.check_derived_lists();
            Ok(core)
        }
    }

    impl Codec for WarmState {
        fn encode(&self, w: &mut ByteWriter) {
            let WarmState { core, finished } = self;
            core.encode(w);
            finished.encode(w);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            Ok(WarmState {
                core: Codec::decode(r)?,
                finished: Codec::decode(r)?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_trace::MicroOp;
    use rfp_types::{ArchReg, Pc};

    #[test]
    fn timed_events_pop_earliest_first_with_fifo_ties() {
        let mut q: CalendarQueue<EventKind> = CalendarQueue::new();
        let ev = |actual| EventKind::PredCorrect {
            preg: PhysReg::new(0),
            actual,
        };
        q.push(30, ev(1));
        q.push(10, ev(2));
        q.push(10, ev(3));
        q.push(20, ev(4));
        let mut order: Vec<(Cycle, EventKind)> = Vec::new();
        for now in 0..=30 {
            while let Some(e) = q.pop_due(now) {
                order.push(e);
            }
        }
        assert_eq!(
            order,
            vec![(10, ev(2)), (10, ev(3)), (20, ev(4)), (30, ev(1))]
        );
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let mut cfg = CoreConfig::tiger_lake();
        cfg.width = 0;
        assert!(Core::new(cfg).is_err());
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let stats = Core::new(CoreConfig::tiger_lake())
            .unwrap()
            .run(Vec::<MicroOp>::new());
        assert_eq!(stats.retired_uops, 0);
    }

    #[test]
    fn debug_format_shows_progress() {
        let core = Core::new(CoreConfig::tiger_lake()).unwrap();
        let s = format!("{core:?}");
        assert!(s.contains("cycle"));
        assert!(s.contains("rob_occupancy"));
    }

    #[test]
    fn single_alu_retires_with_small_latency() {
        let op = MicroOp::alu(Pc::new(0x400), 1, &[ArchReg::new(0)], Some(ArchReg::new(8)));
        let stats = Core::new(CoreConfig::tiger_lake()).unwrap().run(vec![op]);
        assert_eq!(stats.retired_uops, 1);
        assert!(stats.cycles < 20, "one ALU op took {} cycles", stats.cycles);
    }

    #[test]
    fn warmup_resets_counters_but_keeps_running() {
        let ops: Vec<MicroOp> = (0..200)
            .map(|i| MicroOp::alu(Pc::new(0x400 + i * 4), 1, &[], Some(ArchReg::new(8))))
            .collect();
        let stats = Core::new(CoreConfig::tiger_lake())
            .unwrap()
            .run_with_warmup(ops, 100);
        assert_eq!(stats.retired_uops, 100, "only post-warmup uops counted");
        assert!(stats.cycles > 0 && stats.cycles < 200);
    }

    /// A realistic mixed trace for the fork tests (loads/stores/branches so
    /// the window actually carries in-flight state at the pause point).
    fn fork_trace(len: u64) -> Vec<MicroOp> {
        rfp_trace::by_name("spec17_mcf")
            .expect("in the suite")
            .trace(len)
            .collect()
    }

    #[test]
    fn fork_is_byte_identical_to_straight_through() {
        for cfg in [
            CoreConfig::tiger_lake(),
            CoreConfig::tiger_lake().with_rfp(),
        ] {
            let trace = fork_trace(6_000);
            let warmup = 2_000;
            let straight = Core::new(cfg.clone())
                .unwrap()
                .run_with_warmup(trace.clone(), warmup);
            let warm = Core::new(cfg.clone())
                .unwrap()
                .warm_up(trace.clone(), warmup);
            assert!(!warm.finished());
            assert!(warm.consumed_uops() > 0 && warm.consumed_uops() < trace.len() as u64);
            let rest = trace[warm.consumed_uops() as usize..].to_vec();
            // Two forks from one snapshot: both identical to the straight run.
            for _ in 0..2 {
                let forked = warm.clone().resume(rest.clone());
                assert_eq!(forked, straight);
            }
        }
    }

    #[test]
    fn fork_handles_trace_shorter_than_warmup() {
        let trace = fork_trace(300);
        let straight = Core::new(CoreConfig::tiger_lake())
            .unwrap()
            .run_with_warmup(trace.clone(), 10_000);
        let warm = Core::new(CoreConfig::tiger_lake())
            .unwrap()
            .warm_up(trace.clone(), 10_000);
        assert!(warm.finished());
        let forked = warm.resume(Vec::new());
        assert_eq!(forked, straight);
    }

    #[test]
    fn zero_warmup_fork_matches_plain_run() {
        let trace = fork_trace(2_000);
        let straight = Core::new(CoreConfig::tiger_lake())
            .unwrap()
            .run(trace.clone());
        let warm = Core::new(CoreConfig::tiger_lake())
            .unwrap()
            .warm_up(trace.clone(), 0);
        let rest = trace[warm.consumed_uops() as usize..].to_vec();
        let forked = warm.resume(rest);
        assert_eq!(forked, straight);
    }

    #[test]
    fn window_fork_is_byte_identical_to_straight_through() {
        // A windowed fork with boundary `consumed + P` over the remainder
        // must equal a straight-through run whose warmup is that boundary:
        // the in-flight uops drain into the discarded prefix either way.
        for cfg in [
            CoreConfig::tiger_lake(),
            CoreConfig::tiger_lake().with_rfp(),
        ] {
            let trace = fork_trace(6_000);
            let warm = Core::new(cfg.clone())
                .unwrap()
                .warm_up(trace.clone(), 2_000);
            let consumed = warm.consumed_uops();
            let prefix = 512u64;
            let windowed = warm.resume_window(trace[consumed as usize..].to_vec(), prefix);
            let straight = Core::new(cfg)
                .unwrap()
                .run_with_warmup(trace.clone(), consumed + prefix);
            assert_eq!(windowed, straight);
            assert_eq!(
                windowed.retired_uops,
                trace.len() as u64 - consumed - prefix
            );
        }
    }

    #[test]
    fn window_fork_measures_an_interior_interval() {
        // Jumping the fork past trace positions it never replays still
        // measures exactly the requested window length.
        let trace = fork_trace(8_000);
        let warm = Core::new(CoreConfig::tiger_lake())
            .unwrap()
            .warm_up(trace.clone(), 2_000);
        let (start, prefix, interval) = (5_000usize, 512u64, 2_000u64);
        let window = trace[start - prefix as usize..start + interval as usize].to_vec();
        let stats = warm.resume_window(window, prefix);
        assert_eq!(stats.retired_uops, interval);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn transplant_window_discards_its_warm_prefix() {
        let trace = fork_trace(6_000);
        let warmup = 2_000usize;
        let warm = Core::new(CoreConfig::tiger_lake())
            .unwrap()
            .warm_up(trace.clone(), warmup as u64);
        let rfp = CoreConfig::tiger_lake().with_rfp();
        // With no prefix every fed op is measured.
        let zero = warm
            .transplant_window(&rfp, trace[warmup..].to_vec(), 0)
            .unwrap();
        assert_eq!(zero.retired_uops, (trace.len() - warmup) as u64);
        // A nonzero prefix is excluded from the measured counters.
        let prefix = 512u64;
        let stats = warm
            .transplant_window(&rfp, trace[warmup..].to_vec(), prefix)
            .unwrap();
        assert_eq!(stats.retired_uops, (trace.len() - warmup) as u64 - prefix);
    }

    #[test]
    fn warm_snapshot_round_trips_through_bytes_bit_identically() {
        // Serialize → deserialize → resume must be byte-identical to a
        // fork of the in-memory snapshot, including under RFP and VP modes
        // whose predictors carry live RNG streams.
        let mut vp_cfg = CoreConfig::tiger_lake().with_rfp();
        vp_cfg.vp = VpMode::Composite(
            rfp_predictors::ValuePredictorConfig::default(),
            rfp_predictors::DlvpConfig::default(),
        );
        for cfg in [
            CoreConfig::tiger_lake(),
            CoreConfig::tiger_lake().with_rfp(),
            vp_cfg,
        ] {
            let trace = fork_trace(6_000);
            let warm = Core::new(cfg).unwrap().warm_up(trace.clone(), 2_000);
            let bytes = warm.to_bytes();
            let revived = WarmState::from_bytes(&bytes).expect("decode");
            assert_eq!(revived.consumed_uops(), warm.consumed_uops());
            assert_eq!(revived.finished(), warm.finished());
            // Re-encoding is byte-stable (canonical wire form).
            assert_eq!(revived.to_bytes(), bytes);
            let rest = trace[warm.consumed_uops() as usize..].to_vec();
            assert_eq!(revived.resume(rest.clone()), warm.resume(rest));
        }
    }

    #[test]
    fn corrupt_warm_snapshot_bytes_never_panic() {
        let trace = fork_trace(1_500);
        let warm = Core::new(CoreConfig::tiger_lake().with_rfp())
            .unwrap()
            .warm_up(trace, 500);
        let bytes = warm.to_bytes();
        // Truncations at every power-of-two prefix and a few bit flips:
        // all must come back as Err, none may panic.
        let mut cut = 1;
        while cut < bytes.len() {
            assert!(WarmState::from_bytes(&bytes[..cut]).is_err());
            cut *= 2;
        }
        for pos in [0, bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            // A flip may survive decode (counter bits), but must not panic.
            let _ = WarmState::from_bytes(&bad);
        }
        // Rebuilding the RS reads the prediction of every register a
        // window entry names, so one outside the register file is an error.
        let mut bad = warm.clone();
        let phys = bad.core.cfg.phys_regs() as u16;
        bad.core.rob.back_mut().expect("a warm window").src_phys[0] = Some(PhysReg::new(phys));
        assert!(WarmState::from_bytes(&bad.to_bytes()).is_err());
    }

    #[test]
    fn transplant_runs_measured_segment_with_adopted_caches() {
        let trace = fork_trace(6_000);
        let warmup = 2_000usize;
        let base = CoreConfig::tiger_lake();
        let warm = Core::new(base.clone())
            .unwrap()
            .warm_up(trace.clone(), warmup as u64);
        let rfp = CoreConfig::tiger_lake().with_rfp();
        let stats = warm
            .transplant_window(&rfp, trace[warmup..].to_vec(), 0)
            .unwrap();
        assert_eq!(stats.retired_uops, (trace.len() - warmup) as u64);
        assert!(stats.rfp_injected > 0, "RFP engine ran on the transplant");
        // Adopted caches mean the measured segment starts warm: it runs in
        // fewer cycles than a fully cold core over the same segment.
        let cold = Core::new(rfp).unwrap().run(trace[warmup..].to_vec());
        assert!(
            stats.cycles < cold.cycles,
            "warm transplant ({}) not faster than cold ({})",
            stats.cycles,
            cold.cycles
        );
    }
}
