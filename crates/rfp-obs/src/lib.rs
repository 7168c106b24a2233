//! Observability layer for the RFP simulator.
//!
//! The core and memory hierarchy are generic over a [`Probe`] — a sink
//! for micro-op lifecycle and memory-system events. Instrumentation call
//! sites are guarded by the associated constant [`Probe::ENABLED`], so
//! the default [`NoopProbe`] monomorphizes to *nothing*: no dynamic
//! dispatch, no branch, no event construction on the hot path.
//!
//! Two real sinks ship with the crate:
//!
//! * [`ChromeTraceSink`] — a Chrome-trace-event/Perfetto JSON writer
//!   rendering a per-uop pipeline timeline and per-prefetch lifetime
//!   spans (inject → L1 pipe → register-file writeback).
//! * [`MetricsSink`] — log2-bucketed latency histograms
//!   ([`rfp_stats::ObsMetrics`]): load-to-use latency per hit level,
//!   prefetch completion relative to load issue, queue wait, and drop
//!   reasons over time. Merges deterministically across the
//!   work-stealing engine.
//!
//! # Examples
//!
//! ```
//! use rfp_obs::{MetricsSink, Probe, ProbeEvent, UopClass};
//! use rfp_types::{Pc, SeqNum};
//!
//! let mut sink = MetricsSink::new();
//! sink.emit(10, ProbeEvent::Execute {
//!     seq: SeqNum::new(0),
//!     pc: Pc::new(0x400100),
//!     class: UopClass::Load,
//!     issue: 10,
//!     complete: 15,
//!     level: Some(0),
//!     forwarded: false,
//! });
//! assert_eq!(sink.metrics().load_use_latency.total(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod cpi_sink;
mod engine_tracer;
mod flight;
mod metrics;
mod profile_sink;

pub use chrome::ChromeTraceSink;
pub use cpi_sink::CpiStackSink;
pub use engine_tracer::{EngineSpan, EngineTracer, DEFAULT_MAX_SPANS};
pub use flight::{FlightRecorder, RfpOutcome, UopRecord};
pub use metrics::MetricsSink;
pub use profile_sink::ProfileSink;

use rfp_stats::CpiBucket;
use rfp_types::{Addr, Cycle, Pc, PhysReg, SeqNum};

/// Source-operand slots carried by [`ProbeEvent::Dispatch`]. Mirrors
/// `rfp_trace::MAX_SRCS` (this crate sits below `rfp-trace`, so it
/// cannot name the constant); `rfp-core` asserts the two stay equal.
pub const PROBE_MAX_SRCS: usize = 3;

/// Broad micro-op class carried by lifecycle events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UopClass {
    /// A load.
    Load,
    /// A store.
    Store,
    /// A branch.
    Branch,
    /// An integer ALU op.
    Alu,
    /// A floating-point op.
    Fp,
}

impl UopClass {
    /// Short label, used as the Chrome-trace slice name.
    pub fn label(self) -> &'static str {
        match self {
            UopClass::Load => "load",
            UopClass::Store => "store",
            UopClass::Branch => "branch",
            UopClass::Alu => "alu",
            UopClass::Fp => "fp",
        }
    }
}

/// Why a prefetch packet died.
///
/// The discriminant doubles as the per-site drop index in
/// [`rfp_stats::SiteProfile::drops`]. The funnel kept by
/// [`rfp_stats::ObsMetrics::rfp_drops_over_time`] and `CoreStats` is
/// coarser (5 reasons): [`DropReason::funnel_index`] maps the refined
/// reasons onto it — `MshrStarve` folds into the `l1-miss` counter and
/// `NoPort` into `load-first`, exactly mirroring which `rfp_dropped_*`
/// counter the core bumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The load issued before its own prefetch won a port — and the
    /// packet was never actually denied a port (it simply never got a
    /// turn before the load's own AGU slot arrived).
    LoadFirst = 0,
    /// The predicted address missed the DTLB.
    TlbMiss = 1,
    /// The RFP queue was full at injection (never entered the funnel).
    QueueFull = 2,
    /// The lookup missed the L1.
    L1Miss = 3,
    /// A pipeline flush squashed the load while its packet was live.
    Squashed = 4,
    /// The lookup would have allocated the last MSHR and starved a
    /// demand miss (counted as `l1-miss` in the coarse funnel).
    MshrStarve = 5,
    /// The load issued first *after* the packet lost at least one L1
    /// port arbitration — port starvation (counted as `load-first` in
    /// the coarse funnel).
    NoPort = 6,
}

/// Refined drop reasons, one slot per [`DropReason`] discriminant.
pub const PROFILE_DROP_REASONS: usize = 7;

impl DropReason {
    /// Short label for trace and profile output.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::LoadFirst => "load-first",
            DropReason::TlbMiss => "tlb-miss",
            DropReason::QueueFull => "queue-full",
            DropReason::L1Miss => "l1-miss",
            DropReason::Squashed => "squashed",
            DropReason::MshrStarve => "mshr-starve",
            DropReason::NoPort => "no-port",
        }
    }

    /// Index into the coarse 5-reason funnel
    /// ([`rfp_stats::ObsMetrics::rfp_drops_over_time`], the
    /// `rfp_dropped_*` counters): the refined reasons fold onto the
    /// counter the core actually bumps.
    pub fn funnel_index(self) -> usize {
        match self {
            DropReason::MshrStarve => DropReason::L1Miss as usize,
            DropReason::NoPort => DropReason::LoadFirst as usize,
            r => r as usize,
        }
    }
}

/// Why the predictors produced no address for a load (the
/// [`ProbeEvent::RfpNotPredicted`] payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictMiss {
    /// No trained prefetch-table entry for this PC (cold or evicted).
    Cold = 0,
    /// The entry exists but its confidence counter is not saturated.
    LowConfidence = 1,
    /// The entry is confident but no base address could be formed
    /// (stale Page Address Table pointer).
    NoAddress = 2,
}

/// Number of [`PredictMiss`] kinds, one slot per discriminant.
pub const PREDICT_MISS_KINDS: usize = 3;

impl PredictMiss {
    /// Short label for profile output.
    pub fn label(self) -> &'static str {
        match self {
            PredictMiss::Cold => "cold",
            PredictMiss::LowConfidence => "low-confidence",
            PredictMiss::NoAddress => "no-address",
        }
    }
}

/// What kind of pipeline flush hit an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushKind {
    /// Value (or DLVP address) misprediction.
    ValueMispredict,
    /// Memory-ordering violation.
    MemOrder,
}

/// One instrumentation event. Every event is emitted with the cycle it
/// happened at (the first argument of [`Probe::emit`]); cycles quoted
/// inside the payload are absolute simulated cycles too.
///
/// Memory tiers travel as an index into `[L1, MSHR, L2, LLC, DRAM]`
/// (this crate sits below `rfp-mem`, so it cannot name `HitLevel`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// A micro-op entered the window (rename/allocate).
    Alloc {
        /// Program-order sequence number.
        seq: SeqNum,
        /// Program counter.
        pc: Pc,
        /// Micro-op class.
        class: UopClass,
    },
    /// Rename/dispatch detail for a micro-op, emitted in the same cycle
    /// as its [`ProbeEvent::Alloc`] (rename and dispatch share a cycle in
    /// this model): the fetch timestamp and the renamed operand mappings.
    /// A sink that remembers which sequence number last wrote each
    /// physical register (the [`FlightRecorder`] does) can turn
    /// `src_phys` into exact producer→consumer dependency edges without
    /// the core carrying any extra state.
    Dispatch {
        /// Sequence number (same as the adjacent `Alloc`).
        seq: SeqNum,
        /// Cycle the micro-op was fetched (alloc minus the front-end
        /// pipeline depth, earlier if dispatch lagged behind fetch).
        fetch: Cycle,
        /// Renamed source operands, `None` in unused slots.
        src_phys: [Option<PhysReg>; PROBE_MAX_SRCS],
        /// Renamed destination, `None` for stores/branches.
        dst_phys: Option<PhysReg>,
    },
    /// A micro-op's execution was scheduled: issue and completion times
    /// are known (emitted at issue for simple ops, at data-return
    /// scheduling for loads).
    Execute {
        /// Sequence number.
        seq: SeqNum,
        /// Program counter (per-site attribution key).
        pc: Pc,
        /// Micro-op class.
        class: UopClass,
        /// Cycle execution (AGU for memory ops) started.
        issue: Cycle,
        /// Cycle the result is available.
        complete: Cycle,
        /// Serving tier index for loads (`None`: forwarded or non-load).
        level: Option<u8>,
        /// The load was served by store-to-load forwarding.
        forwarded: bool,
    },
    /// A micro-op retired.
    Retire {
        /// Sequence number.
        seq: SeqNum,
    },
    /// A flush squashed execution younger than (and for ordering
    /// violations, including) this instruction.
    Flush {
        /// Sequence number of the instruction at the flush point.
        seq: SeqNum,
        /// What triggered the flush.
        kind: FlushKind,
    },
    /// A speculatively woken micro-op failed the scoreboard check and
    /// will re-issue.
    SchedReissue {
        /// Sequence number.
        seq: SeqNum,
    },
    /// A prefetch packet entered the RFP queue.
    RfpInject {
        /// The load's sequence number.
        seq: SeqNum,
        /// The load's program counter.
        pc: Pc,
        /// Predicted address carried by the packet.
        addr: Addr,
    },
    /// A prefetch won L1 arbitration and is fetching data.
    RfpExecute {
        /// The load's sequence number.
        seq: SeqNum,
        /// The load's program counter.
        pc: Pc,
        /// Predicted address.
        addr: Addr,
        /// Cycle the data lands in the physical register.
        complete: Cycle,
        /// Serving tier index.
        level: u8,
        /// Cycles the packet waited in the RFP queue.
        queued_for: Cycle,
    },
    /// The load issued and judged its prefetch: consumed it (useful) or
    /// rejected it (wrong address / stale data).
    RfpResolve {
        /// The load's sequence number.
        seq: SeqNum,
        /// The load's program counter.
        pc: Pc,
        /// The load consumed the prefetched data.
        useful: bool,
        /// The data was ready by load issue + 1 (§5.2.2 fully hidden).
        fully_hidden: bool,
        /// Cycle the prefetched data was (or would be) available.
        rfp_complete: Cycle,
        /// Cycle the load issued.
        load_issue: Cycle,
    },
    /// A prefetch packet died without the load judging it.
    RfpDrop {
        /// The load's sequence number.
        seq: SeqNum,
        /// The load's program counter.
        pc: Pc,
        /// Why the packet died.
        reason: DropReason,
    },
    /// A load reached the prefetch decision point and the predictors
    /// produced no address (the "not-predicted" leg of the per-site
    /// outcome taxonomy — loads filtered out *before* prediction, e.g.
    /// by the VP filter, do not emit this).
    RfpNotPredicted {
        /// The load's sequence number.
        seq: SeqNum,
        /// The load's program counter.
        pc: Pc,
        /// Why no address was produced.
        kind: PredictMiss,
    },
    /// The memory hierarchy served an access (demand, store commit, or
    /// RFP lookup).
    MemAccess {
        /// Accessed address.
        addr: Addr,
        /// Serving tier index (1 = merged into an in-flight MSHR).
        level: u8,
        /// Cycle the data is available.
        complete: Cycle,
        /// The DTLB/STLB missed and a page walk was performed.
        tlb_walk: bool,
        /// The access was a store commit.
        is_store: bool,
    },
    /// An L1 port request was denied this cycle (port contention).
    PortDenied {
        /// Requesting client index: 0 demand load, 1 RFP, 2 AP probe.
        client: u8,
    },
    /// Retire-slot attribution for one cycle: `retired` of the `width`
    /// slots retired a micro-op (`rfp_hidden` of those were loads whose
    /// latency RFP fully hid); the remaining `width - retired` empty
    /// slots are all charged to `stall`. Emitted once per cycle, so the
    /// per-run slot total is exactly `cycles * retire_width`.
    RetireSlots {
        /// Retire width — total slots this cycle.
        width: u8,
        /// Slots that retired a micro-op.
        retired: u8,
        /// Of the retired slots, loads fully hidden by RFP.
        rfp_hidden: u8,
        /// Bucket charged for the empty slots (only meaningful when
        /// `retired < width`).
        stall: CpiBucket,
        /// PC of the ROB head blocking retirement (`None`: empty ROB).
        /// Lets the profile sink attribute stall slots to the load at
        /// the head.
        head_pc: Option<Pc>,
    },
    /// The core reset its statistics (end of the warmup window). Sinks
    /// that mirror `CoreStats` semantics reset here too.
    StatsReset,
}

/// A sink for [`ProbeEvent`]s, threaded through the core and memory
/// hierarchy as a generic parameter.
///
/// Implementations with `ENABLED = false` cost nothing: every call site
/// is guarded by `if P::ENABLED`, a constant the compiler folds away.
pub trait Probe {
    /// Whether call sites should construct and emit events at all.
    const ENABLED: bool;

    /// Receives one event at `cycle`.
    fn emit(&mut self, cycle: Cycle, event: ProbeEvent);
}

/// The default probe: compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _cycle: Cycle, _event: ProbeEvent) {}
}

impl<P: Probe> Probe for &mut P {
    const ENABLED: bool = P::ENABLED;

    #[inline(always)]
    fn emit(&mut self, cycle: Cycle, event: ProbeEvent) {
        (**self).emit(cycle, event);
    }
}

/// A probe that fans one event stream out to two sinks (trace + metrics
/// in one run).
#[derive(Debug, Default)]
pub struct TeeProbe<A, B> {
    /// First sink.
    pub a: A,
    /// Second sink.
    pub b: B,
}

impl<A: Probe, B: Probe> TeeProbe<A, B> {
    /// Wraps two sinks.
    pub fn new(a: A, b: B) -> Self {
        TeeProbe { a, b }
    }
}

impl<A: Probe, B: Probe> Probe for TeeProbe<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn emit(&mut self, cycle: Cycle, event: ProbeEvent) {
        if A::ENABLED {
            self.a.emit(cycle, event);
        }
        if B::ENABLED {
            self.b.emit(cycle, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct CountProbe(u64);
    impl Probe for CountProbe {
        const ENABLED: bool = true;
        fn emit(&mut self, _cycle: Cycle, _event: ProbeEvent) {
            self.0 += 1;
        }
    }

    #[test]
    fn noop_probe_is_disabled_at_compile_time() {
        // Const blocks make these compile-time proofs, which is the claim.
        const {
            assert!(!NoopProbe::ENABLED);
            assert!(!<&mut NoopProbe as Probe>::ENABLED);
            assert!(!TeeProbe::<NoopProbe, NoopProbe>::ENABLED);
        }
    }

    #[test]
    fn tee_probe_fans_out_to_both_sinks() {
        const { assert!(TeeProbe::<CountProbe, NoopProbe>::ENABLED) };
        let mut tee = TeeProbe::new(CountProbe::default(), CountProbe::default());
        tee.emit(1, ProbeEvent::StatsReset);
        tee.emit(
            2,
            ProbeEvent::Retire {
                seq: SeqNum::new(0),
            },
        );
        assert_eq!(tee.a.0, 2);
        assert_eq!(tee.b.0, 2);
    }

    #[test]
    fn mut_ref_probe_forwards() {
        fn feed<P: Probe>(mut p: P) {
            p.emit(5, ProbeEvent::StatsReset);
        }
        let mut c = CountProbe::default();
        feed(&mut c);
        assert_eq!(c.0, 1);
    }

    #[test]
    fn drop_reason_indices_match_stats_layout() {
        // rfp_stats::ObsMetrics::rfp_drops_over_time documents the reason
        // order; the enum discriminants are that index. The refined
        // reasons (MshrStarve, NoPort) sit past the coarse funnel and
        // fold onto the counter the core actually bumps.
        assert_eq!(DropReason::LoadFirst as usize, 0);
        assert_eq!(DropReason::TlbMiss as usize, 1);
        assert_eq!(DropReason::QueueFull as usize, 2);
        assert_eq!(DropReason::L1Miss as usize, 3);
        assert_eq!(DropReason::Squashed as usize, 4);
        assert_eq!(DropReason::MshrStarve as usize, 5);
        assert_eq!(DropReason::NoPort as usize, 6);
        assert_eq!(rfp_stats::DROP_REASONS, 5);
        assert_eq!(rfp_stats::PROFILE_DROP_REASONS, PROFILE_DROP_REASONS);
        for r in [
            DropReason::LoadFirst,
            DropReason::TlbMiss,
            DropReason::QueueFull,
            DropReason::L1Miss,
            DropReason::Squashed,
        ] {
            assert_eq!(r.funnel_index(), r as usize, "coarse reasons map to self");
        }
        assert_eq!(DropReason::MshrStarve.funnel_index(), 3, "-> l1-miss");
        assert_eq!(DropReason::NoPort.funnel_index(), 0, "-> load-first");
    }
}
