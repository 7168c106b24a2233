//! Cycle-level out-of-order core model with **Register File Prefetching**
//! (Shukla et al., ISCA 2022).
//!
//! This crate is the paper's primary contribution plus the OOO substrate it
//! needs: a 5-wide Tiger-Lake-like core with a 3-cycle scheduling pipeline,
//! speculative wakeup with scoreboard cancel/re-issue, a load/store queue
//! with store-to-load forwarding and store-set memory disambiguation, value
//! prediction (EVES / DLVP / Composite / EPP models) and the RFP engine
//! itself — prefetch packets injected after rename, arbitrating for spare
//! L1 ports at the lowest priority, writing straight into the load's
//! physical destination register.
//!
//! Select and memory disambiguation read age-ordered index structures —
//! a reservation station of un-issued entries, and load and store queues
//! — rather than walking the reorder buffer. They are derived from the ROB:
//! rebuilt when a warm snapshot is decoded, and checked against a ROB scan
//! after every cycle in debug builds.
//!
//! # Examples
//!
//! ```
//! use rfp_core::{simulate_workload, CoreConfig};
//!
//! let w = rfp_trace::by_name("spec06_libquantum").expect("in the suite");
//! let base = simulate_workload(&CoreConfig::tiger_lake(), &w, 20_000)?;
//! let rfp = simulate_workload(&CoreConfig::tiger_lake().with_rfp(), &w, 20_000)?;
//! assert!(rfp.ipc() > 0.0 && base.ipc() > 0.0);
//! # Ok::<(), rfp_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod core;
mod event_queue;
mod inst;
mod ring_bits;

pub use crate::core::{Core, WarmState};
pub use config::{
    BranchMode, CoreConfig, RfpConfig, VpMode, AP_PROBE_HOLD, AP_PROBE_OVERHEAD, CORE_SEED,
    CRITICALITY_THRESHOLD, EPP_FALSE_POSITIVE_RATE, FETCH_TO_ALLOC, FORWARD_LATENCY,
    MISPREDICT_REDIRECT, REISSUE_PENALTY, RFP_QUEUE_ENTRIES, SCHED_LATENCY, VP_FLUSH_PENALTY,
};
pub use event_queue::CalendarQueue;
pub use inst::{DlvpInfo, DynInst, Phase, RfpState, VpSource};
pub use rfp_mem::OracleMode;

use rfp_stats::{CoreStats, SimReport};
use rfp_trace::{MicroOp, Workload};
use rfp_types::ConfigError;

/// Installs `workload`'s pre-warm memory regions (its declared working
/// sets, minus DRAM-class ones) into the core's caches — the shared
/// prologue of every workload-simulation entry point.
fn install_prewarm<P: rfp_obs::Probe>(core: &mut Core<P>, workload: &Workload) {
    core.prewarm_from(workload.program().patterns.iter().filter_map(|p| {
        use rfp_trace::WorkingSetClass as W;
        let level = match p.ws {
            W::L1 => rfp_mem::HitLevel::L1,
            W::L2 => rfp_mem::HitLevel::L2,
            W::Llc => rfp_mem::HitLevel::Llc,
            W::Dram => return None,
        };
        Some((p.base, p.region_bytes, level))
    }));
}

/// Runs `trace` through a core built from `config` and returns the raw
/// counters.
///
/// # Errors
///
/// Returns a [`ConfigError`] when `config` is invalid.
pub fn simulate(
    config: &CoreConfig,
    trace: impl IntoIterator<Item = MicroOp>,
) -> Result<CoreStats, ConfigError> {
    Ok(Core::new(config.clone())?.run(trace))
}

/// Simulates `workload` with warmed caches and predictors: runs `len / 2`
/// micro-ops of warmup (statistics discarded) followed by `len` measured
/// micro-ops.
///
/// # Errors
///
/// Returns a [`ConfigError`] when `config` is invalid.
pub fn simulate_workload(
    config: &CoreConfig,
    workload: &Workload,
    len: u64,
) -> Result<SimReport, ConfigError> {
    let (report, rfp_obs::NoopProbe) =
        simulate_workload_probed(config, workload, len, rfp_obs::NoopProbe)?;
    Ok(report)
}

/// [`simulate_workload`] with an observability sink attached: the probe
/// receives every pipeline/RFP/memory event and is returned alongside the
/// report so its contents (histograms, trace events) can be drained.
///
/// The warmup boundary is reported to the probe as
/// [`rfp_obs::ProbeEvent::StatsReset`], so sinks that mirror `CoreStats`
/// semantics cover the measured window only.
///
/// # Errors
///
/// Returns a [`ConfigError`] when `config` is invalid.
pub fn simulate_workload_probed<P: rfp_obs::Probe>(
    config: &CoreConfig,
    workload: &Workload,
    len: u64,
    probe: P,
) -> Result<(SimReport, P), ConfigError> {
    let warmup = len / 2;
    simulate_workload_probed_from_trace(
        config,
        workload,
        warmup,
        workload.trace(len + warmup),
        probe,
    )
}

/// [`simulate_workload_probed`], but driven by a caller-supplied `trace`
/// (the first `warmup` uops are the warmup window) — lets the bench engine
/// memoize one synthesized trace per workload instead of regenerating it
/// for every grid job. The trace must be exactly what
/// `workload.trace(total)` would yield.
///
/// # Errors
///
/// Returns a [`ConfigError`] when `config` is invalid.
pub fn simulate_workload_probed_from_trace<P: rfp_obs::Probe>(
    config: &CoreConfig,
    workload: &Workload,
    warmup: u64,
    trace: impl IntoIterator<Item = MicroOp>,
    probe: P,
) -> Result<(SimReport, P), ConfigError> {
    let mut core = Core::with_probe(config.clone(), probe)?;
    install_prewarm(&mut core, workload);
    let (stats, probe) = core.run_with_warmup_probed(trace, warmup);
    Ok((
        SimReport::new(workload.name, workload.category.label(), stats),
        probe,
    ))
}

/// Pays `workload`'s warmup once: builds a core for `config`, installs the
/// workload's pre-warm regions, and runs `trace` (the full trace of the
/// eventual run) up to the `warmup` boundary, returning the captured
/// [`WarmState`]. Forks of the snapshot ([`WarmState::resume`] with the
/// trace remainder) are byte-identical to [`simulate_workload`].
///
/// # Errors
///
/// Returns a [`ConfigError`] when `config` is invalid.
pub fn warm_up_workload(
    config: &CoreConfig,
    workload: &Workload,
    warmup: u64,
    trace: impl IntoIterator<Item = MicroOp>,
) -> Result<WarmState, ConfigError> {
    let mut core = Core::new(config.clone())?;
    install_prewarm(&mut core, workload);
    Ok(core.warm_up(trace, warmup))
}

/// Wraps a [`WarmState`] fork's stats into the same [`SimReport`] that
/// [`simulate_workload_probed`] produces.
pub fn report_for(workload: &Workload, stats: CoreStats) -> SimReport {
    SimReport::new(workload.name, workload.category.label(), stats)
}
