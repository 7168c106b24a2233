//! Per-dynamic-instruction state tracked by the core.

use rfp_mem::HitLevel;
use rfp_predictors::PathHistory;
use rfp_trace::MicroOp;
use rfp_types::{Addr, Cycle, PhysReg, SeqNum};

use crate::config::SCHED_LATENCY;

/// Lifecycle phase of an in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Dispatched into the window, waiting to be selected.
    Waiting,
    /// A load deferred on an older store with an unresolved address, or
    /// waiting for an L1 port.
    MemWait,
    /// Result computed; `complete_cycle` says when the data is available.
    Done,
}

/// State of the register-file prefetch attached to a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RfpState {
    /// No prefetch for this load.
    #[default]
    None,
    /// A prefetch packet sits in the RFP queue for this load.
    Queued {
        /// Predicted address carried by the packet.
        addr: Addr,
        /// The packet lost at least one L1 port arbitration while
        /// queued. Pure bookkeeping for drop attribution (a load
        /// issuing over a denied packet is *port starvation*, not a
        /// scheduling race); never read by the simulation proper.
        denied: bool,
    },
    /// The prefetch won L1 arbitration and is fetching data
    /// (`RFP-inflight` is set).
    InFlight {
        /// Predicted (prefetched) address.
        addr: Addr,
        /// Cycle the L1 lookup began.
        lookup_start: Cycle,
        /// Cycle the prefetched data lands in the physical register.
        complete: Cycle,
        /// Which tier served the prefetch (recorded for Fig. 2 accounting
        /// when the load consumes it).
        level: HitLevel,
        /// Set when a later-resolving older store overlapped the prefetched
        /// address: the data in the register is stale and must not be used.
        stale: bool,
    },
    /// The load issued and consumed the prefetched data (counted useful).
    /// Distinct from [`RfpState::Dropped`] so a later flush of an
    /// already-satisfied load cannot re-enter a drop bucket — every
    /// injected packet lands in exactly one terminal funnel bucket (see
    /// `CoreStats::funnel_consistent`).
    Consumed,
    /// The packet was dropped (load issued first, TLB miss, queue full...).
    Dropped,
}

impl RfpState {
    /// True when a packet is still queued.
    pub fn is_queued(&self) -> bool {
        matches!(self, RfpState::Queued { .. })
    }

    /// True when the prefetch is fetching or has fetched data.
    pub fn is_inflight(&self) -> bool {
        matches!(self, RfpState::InFlight { .. })
    }
}

/// Which mechanism produced a value prediction for a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VpSource {
    /// The EVES-style value predictor.
    Eves,
    /// A DLVP early probe whose data returned in time.
    Dlvp,
}

/// DLVP bookkeeping attached to a load at dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DlvpInfo {
    /// Path history captured at (modelled) fetch.
    pub path: PathHistory,
    /// The address the path predictor produced, if it fired.
    pub predicted_addr: Option<Addr>,
    /// Whether the early probe's data returned before allocation.
    pub probe_success: bool,
}

// `ProbeEvent::Dispatch` carries `src_phys` verbatim; `rfp-obs` sits below
// `rfp-trace` and mirrors the width, so keep the two constants in lockstep.
const _: () = assert!(rfp_trace::MAX_SRCS == rfp_obs::PROBE_MAX_SRCS);

/// A dynamic instruction in the window.
#[derive(Debug, Clone)]
pub struct DynInst {
    /// Program-order sequence number.
    pub seq: SeqNum,
    /// The micro-op from the trace.
    pub uop: MicroOp,
    /// Renamed destination.
    pub dst_phys: Option<PhysReg>,
    /// Previous mapping of the destination's architectural register (freed
    /// at retirement).
    pub prev_phys: Option<PhysReg>,
    /// Renamed sources.
    pub src_phys: [Option<PhysReg>; rfp_trace::MAX_SRCS],
    /// Lifecycle phase.
    pub phase: Phase,
    /// Cycle the instruction entered the window.
    pub alloc_cycle: Cycle,
    /// Earliest cycle the scheduler may select it (alloc + scheduling
    /// pipeline, pushed back by cancels and flushes).
    pub not_before: Cycle,
    /// Cycle execution (AGU for memory ops) started, once issued.
    pub issue_cycle: Option<Cycle>,
    /// Cycle the result is/was available.
    pub complete_cycle: Option<Cycle>,
    /// Generation counter; bumped on squash so stale events are ignored.
    pub gen: u32,
    /// Whether all sources were ready at allocation (paper's 37% stat).
    pub ready_at_alloc: bool,
    /// This branch was mispredicted by the front-end (decided at dispatch,
    /// either from the trace's oracle marker or the modelled predictor).
    pub branch_mispredicted: bool,

    /// RFP state (loads only).
    pub rfp: RfpState,
    /// Value predicted for this load at dispatch.
    pub predicted_value: Option<u64>,
    /// Which predictor produced `predicted_value`.
    pub vp_source: Option<VpSource>,
    /// DLVP bookkeeping (loads under a DLVP-family mode).
    pub dlvp: Option<DlvpInfo>,
    /// The load received its data via store-to-load forwarding.
    pub forwarded: bool,
    /// Sequence number of the store that forwarded the data, when
    /// `forwarded` is set (used by ordering-violation checks).
    pub forward_from: Option<SeqNum>,
    /// Tier that served the load's own access (if it accessed).
    pub hit_level: Option<HitLevel>,
    /// The executed address has been recorded in the LSQ (for violation
    /// checks by later-issuing stores).
    pub mem_executed: bool,
    /// The RFP attached to this load completed before the load issued
    /// (fully hidden latency, §5.2.2).
    pub rfp_fully_hid: bool,
}

impl DynInst {
    /// Creates an instruction dispatched at `alloc_cycle`, selectable
    /// [`SCHED_LATENCY`] cycles later.
    pub fn new(seq: SeqNum, uop: MicroOp, alloc_cycle: Cycle) -> Self {
        DynInst {
            seq,
            uop,
            dst_phys: None,
            prev_phys: None,
            src_phys: [None; rfp_trace::MAX_SRCS],
            phase: Phase::Waiting,
            alloc_cycle,
            not_before: alloc_cycle + SCHED_LATENCY,
            issue_cycle: None,
            complete_cycle: None,
            gen: 0,
            ready_at_alloc: false,
            branch_mispredicted: false,
            rfp: RfpState::None,
            predicted_value: None,
            vp_source: None,
            dlvp: None,
            forwarded: false,
            forward_from: None,
            hit_level: None,
            mem_executed: false,
            rfp_fully_hid: false,
        }
    }

    /// True when the instruction has finished and its data is available at
    /// or before `now`.
    pub fn done_by(&self, now: Cycle) -> bool {
        self.phase == Phase::Done && self.complete_cycle.is_some_and(|c| c <= now)
    }

    /// Squash execution progress (value-misprediction flush): the
    /// instruction stays in the window but must re-execute.
    pub fn squash_execution(&mut self, not_before: Cycle) {
        self.phase = Phase::Waiting;
        self.issue_cycle = None;
        self.complete_cycle = None;
        self.gen = self.gen.wrapping_add(1);
        self.not_before = self.not_before.max(not_before);
        self.forwarded = false;
        self.forward_from = None;
        self.hit_level = None;
        self.mem_executed = false;
        // A queued/in-flight prefetch for a squashed load is dropped; the
        // re-execution takes the plain path.
        if self.rfp.is_queued() || self.rfp.is_inflight() {
            self.rfp = RfpState::Dropped;
        }
        self.predicted_value = None;
        self.vp_source = None;
    }
}

mod codec_impls {
    //! Binary codec for warm-state persistence: the in-flight window
    //! (every [`DynInst`] in the ROB) is part of a warm snapshot.

    use super::{DlvpInfo, DynInst, Phase, RfpState, VpSource};
    use rfp_types::codec::{ByteReader, ByteWriter, Codec, CodecError};

    impl Codec for Phase {
        fn encode(&self, w: &mut ByteWriter) {
            w.put_u8(match self {
                Phase::Waiting => 0,
                Phase::MemWait => 1,
                Phase::Done => 2,
            });
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            match r.get_u8()? {
                0 => Ok(Phase::Waiting),
                1 => Ok(Phase::MemWait),
                2 => Ok(Phase::Done),
                _ => Err(CodecError::Invalid("phase tag")),
            }
        }
    }

    impl Codec for RfpState {
        fn encode(&self, w: &mut ByteWriter) {
            match self {
                RfpState::None => w.put_u8(0),
                RfpState::Queued { addr, denied } => {
                    w.put_u8(1);
                    addr.encode(w);
                    denied.encode(w);
                }
                RfpState::InFlight {
                    addr,
                    lookup_start,
                    complete,
                    level,
                    stale,
                } => {
                    w.put_u8(2);
                    addr.encode(w);
                    lookup_start.encode(w);
                    complete.encode(w);
                    level.encode(w);
                    stale.encode(w);
                }
                RfpState::Consumed => w.put_u8(3),
                RfpState::Dropped => w.put_u8(4),
            }
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            match r.get_u8()? {
                0 => Ok(RfpState::None),
                1 => Ok(RfpState::Queued {
                    addr: Codec::decode(r)?,
                    denied: Codec::decode(r)?,
                }),
                2 => Ok(RfpState::InFlight {
                    addr: Codec::decode(r)?,
                    lookup_start: Codec::decode(r)?,
                    complete: Codec::decode(r)?,
                    level: Codec::decode(r)?,
                    stale: Codec::decode(r)?,
                }),
                3 => Ok(RfpState::Consumed),
                4 => Ok(RfpState::Dropped),
                _ => Err(CodecError::Invalid("rfp state tag")),
            }
        }
    }

    impl Codec for VpSource {
        fn encode(&self, w: &mut ByteWriter) {
            w.put_u8(match self {
                VpSource::Eves => 0,
                VpSource::Dlvp => 1,
            });
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            match r.get_u8()? {
                0 => Ok(VpSource::Eves),
                1 => Ok(VpSource::Dlvp),
                _ => Err(CodecError::Invalid("vp source tag")),
            }
        }
    }

    impl Codec for DlvpInfo {
        fn encode(&self, w: &mut ByteWriter) {
            let DlvpInfo {
                path,
                predicted_addr,
                probe_success,
            } = self;
            path.encode(w);
            predicted_addr.encode(w);
            probe_success.encode(w);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            Ok(DlvpInfo {
                path: Codec::decode(r)?,
                predicted_addr: Codec::decode(r)?,
                probe_success: Codec::decode(r)?,
            })
        }
    }

    impl Codec for DynInst {
        fn encode(&self, w: &mut ByteWriter) {
            let DynInst {
                seq,
                uop,
                dst_phys,
                prev_phys,
                src_phys,
                phase,
                alloc_cycle,
                not_before,
                issue_cycle,
                complete_cycle,
                gen,
                ready_at_alloc,
                branch_mispredicted,
                rfp,
                predicted_value,
                vp_source,
                dlvp,
                forwarded,
                forward_from,
                hit_level,
                mem_executed,
                rfp_fully_hid,
            } = self;
            seq.encode(w);
            uop.encode(w);
            dst_phys.encode(w);
            prev_phys.encode(w);
            src_phys.encode(w);
            phase.encode(w);
            alloc_cycle.encode(w);
            not_before.encode(w);
            issue_cycle.encode(w);
            complete_cycle.encode(w);
            gen.encode(w);
            ready_at_alloc.encode(w);
            branch_mispredicted.encode(w);
            rfp.encode(w);
            predicted_value.encode(w);
            vp_source.encode(w);
            dlvp.encode(w);
            forwarded.encode(w);
            forward_from.encode(w);
            hit_level.encode(w);
            mem_executed.encode(w);
            rfp_fully_hid.encode(w);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            Ok(DynInst {
                seq: Codec::decode(r)?,
                uop: Codec::decode(r)?,
                dst_phys: Codec::decode(r)?,
                prev_phys: Codec::decode(r)?,
                src_phys: Codec::decode(r)?,
                phase: Codec::decode(r)?,
                alloc_cycle: Codec::decode(r)?,
                not_before: Codec::decode(r)?,
                issue_cycle: Codec::decode(r)?,
                complete_cycle: Codec::decode(r)?,
                gen: Codec::decode(r)?,
                ready_at_alloc: Codec::decode(r)?,
                branch_mispredicted: Codec::decode(r)?,
                rfp: Codec::decode(r)?,
                predicted_value: Codec::decode(r)?,
                vp_source: Codec::decode(r)?,
                dlvp: Codec::decode(r)?,
                forwarded: Codec::decode(r)?,
                forward_from: Codec::decode(r)?,
                hit_level: Codec::decode(r)?,
                mem_executed: Codec::decode(r)?,
                rfp_fully_hid: Codec::decode(r)?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_types::Pc;

    fn inst() -> DynInst {
        let uop = MicroOp::alu(Pc::new(0x400), 1, &[], None);
        DynInst::new(SeqNum::new(3), uop, 100)
    }

    #[test]
    fn new_inst_waits_out_the_scheduling_pipeline() {
        let i = inst();
        assert_eq!(i.phase, Phase::Waiting);
        assert_eq!(i.not_before, 103);
        assert!(!i.done_by(1000));
    }

    #[test]
    fn done_by_requires_completion_in_the_past() {
        let mut i = inst();
        i.phase = Phase::Done;
        i.complete_cycle = Some(200);
        assert!(!i.done_by(199));
        assert!(i.done_by(200));
    }

    #[test]
    fn squash_resets_execution_but_keeps_identity() {
        let mut i = inst();
        i.phase = Phase::Done;
        i.complete_cycle = Some(150);
        i.rfp = RfpState::Queued {
            addr: Addr::new(0x1000),
            denied: false,
        };
        let g = i.gen;
        i.squash_execution(400);
        assert_eq!(i.phase, Phase::Waiting);
        assert_eq!(i.complete_cycle, None);
        assert_eq!(i.not_before, 400);
        assert_eq!(i.rfp, RfpState::Dropped);
        assert_ne!(i.gen, g);
        assert_eq!(i.seq, SeqNum::new(3));
    }

    #[test]
    fn rfp_state_predicates() {
        assert!(RfpState::Queued {
            addr: Addr::new(0),
            denied: false,
        }
        .is_queued());
        assert!(RfpState::InFlight {
            addr: Addr::new(0),
            lookup_start: 0,
            complete: 5,
            level: HitLevel::L1,
            stale: false,
        }
        .is_inflight());
        assert!(!RfpState::None.is_queued());
    }
}
