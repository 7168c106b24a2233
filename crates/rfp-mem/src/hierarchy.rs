//! The three-level cache hierarchy with TLBs, MSHRs and the baseline L2
//! stream prefetcher.
//!
//! This is the substrate behind both Figure 1 (oracle prefetch headroom per
//! level) and Figure 2 (demand-load hit distribution). Oracle modes replace
//! a level's hit latency with the next-closer level's latency — "an oracle
//! prefetching from level N to level N−1 will ensure all hits at level N
//! will be served at the latency of level N−1".

use rfp_obs::{Probe, ProbeEvent};
use rfp_types::{Addr, ConfigError, Cycle};

use crate::cache::{Cache, CacheConfig};
use crate::mshr::MshrFile;
use crate::prefetch::StreamPrefetcher;
use crate::tlb::{DataTlb, TlbConfig, TlbOutcome};

/// Which tier served a demand access (Fig. 2 categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// L1 data cache hit.
    L1,
    /// Merged with an in-flight fill (prior demand miss or prefetch).
    Mshr,
    /// L2 hit.
    L2,
    /// Last-level cache hit.
    Llc,
    /// Served from DRAM.
    Dram,
}

impl HitLevel {
    /// All levels in Fig. 2 order.
    pub const ALL: [HitLevel; 5] = [
        HitLevel::L1,
        HitLevel::Mshr,
        HitLevel::L2,
        HitLevel::Llc,
        HitLevel::Dram,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            HitLevel::L1 => "L1",
            HitLevel::Mshr => "MSHR",
            HitLevel::L2 => "L2",
            HitLevel::Llc => "LLC",
            HitLevel::Dram => "DRAM",
        }
    }

    /// Position in [`HitLevel::ALL`] — the tier index probe events carry
    /// (`rfp-obs` sits below this crate and cannot name `HitLevel`).
    pub fn index(self) -> u8 {
        match self {
            HitLevel::L1 => 0,
            HitLevel::Mshr => 1,
            HitLevel::L2 => 2,
            HitLevel::Llc => 3,
            HitLevel::Dram => 4,
        }
    }
}

/// Oracle prefetching mode for the Figure 1 headroom study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OracleMode {
    /// No oracle: normal latencies.
    #[default]
    None,
    /// L1 hits served at register-file speed (1 cycle).
    L1ToRf,
    /// L2 hits served at L1 latency.
    L2ToL1,
    /// LLC hits served at L2 latency.
    LlcToL2,
    /// DRAM accesses served at LLC latency.
    MemToLlc,
}

/// Full hierarchy configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Last-level cache.
    pub llc: CacheConfig,
    /// Fixed DRAM access latency (cycles).
    pub dram_latency: Cycle,
    /// L1 MSHR entries.
    pub l1_mshrs: usize,
    /// L2 MSHR entries.
    pub l2_mshrs: usize,
    /// First-level data TLB.
    pub dtlb: TlbConfig,
    /// Second-level TLB.
    pub stlb: TlbConfig,
    /// Page-walk latency on a full TLB miss.
    pub walk_latency: Cycle,
    /// Enable the baseline L2 stream prefetcher.
    pub l2_prefetcher: bool,
    /// Lines prefetched ahead per trained access.
    pub prefetch_degree: usize,
    /// Oracle latency mode (Fig. 1).
    pub oracle: OracleMode,
}

impl HierarchyConfig {
    /// Tiger-Lake-like parameters used by the paper's baseline (Table 2):
    /// 48 KiB / 12-way / 5-cycle L1D, 1.25 MiB / 20-way / 14-cycle L2,
    /// 12 MiB / 12-way / ~40-cycle LLC, 200-cycle DRAM.
    pub fn tiger_lake() -> Self {
        HierarchyConfig {
            l1: CacheConfig {
                size_bytes: 48 << 10,
                ways: 12,
                latency: 5,
            },
            l2: CacheConfig {
                size_bytes: 1280 << 10,
                ways: 20,
                latency: 14,
            },
            llc: CacheConfig {
                size_bytes: 12 << 20,
                ways: 12,
                latency: 40,
            },
            dram_latency: 200,
            l1_mshrs: 16,
            l2_mshrs: 32,
            dtlb: TlbConfig {
                entries: 64,
                ways: 4,
                latency: 0,
            },
            stlb: TlbConfig {
                entries: 1536,
                ways: 12,
                latency: 7,
            },
            walk_latency: 60,
            l2_prefetcher: true,
            prefetch_degree: 4,
            oracle: OracleMode::None,
        }
    }

    /// Validates all sub-configurations.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.l1.validate("l1")?;
        self.l2.validate("l2")?;
        self.llc.validate("llc")?;
        self.dtlb.validate("dtlb")?;
        self.stlb.validate("stlb")?;
        if self.dram_latency <= self.llc.latency {
            return Err(ConfigError::new(
                "dram_latency",
                "must exceed the LLC latency",
            ));
        }
        if self.l1_mshrs == 0 || self.l2_mshrs == 0 {
            return Err(ConfigError::new("mshrs", "must be nonzero"));
        }
        Ok(())
    }
}

/// Result of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Which tier served the access.
    pub level: HitLevel,
    /// Cycle at which the data is available to the core (includes address
    /// translation and lookup latency).
    pub complete_at: Cycle,
    /// How address translation resolved.
    pub tlb: TlbOutcome,
}

/// The memory hierarchy.
///
/// # Examples
///
/// ```
/// use rfp_mem::{HierarchyConfig, HitLevel, MemoryHierarchy};
/// use rfp_types::Addr;
///
/// let mut mem = MemoryHierarchy::new(HierarchyConfig::tiger_lake()).unwrap();
/// let first = mem.access(Addr::new(0x10000), 0, false);
/// assert_eq!(first.level, HitLevel::Dram);
/// let again = mem.access(Addr::new(0x10000), first.complete_at + 1, false);
/// assert_eq!(again.level, HitLevel::L1);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    llc: Cache,
    l1_mshr: MshrFile,
    l2_mshr: MshrFile,
    tlb: DataTlb,
    prefetcher: StreamPrefetcher,
    hit_counts: [u64; 5],
}

impl MemoryHierarchy {
    /// Builds the hierarchy.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid configuration.
    pub fn new(config: HierarchyConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(MemoryHierarchy {
            l1: Cache::new(config.l1)?,
            l2: Cache::new(config.l2)?,
            llc: Cache::new(config.llc)?,
            l1_mshr: MshrFile::new(config.l1_mshrs),
            l2_mshr: MshrFile::new(config.l2_mshrs),
            tlb: DataTlb::new(config.dtlb, config.stlb, config.walk_latency)?,
            prefetcher: StreamPrefetcher::new(config.prefetch_degree),
            hit_counts: [0; 5],
            config,
        })
    }

    /// Returns the configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// [`MemoryHierarchy::access`], but reporting the access to `probe`
    /// as a [`ProbeEvent::MemAccess`].
    pub fn access_with<P: Probe>(
        &mut self,
        addr: Addr,
        now: Cycle,
        is_store: bool,
        probe: &mut P,
    ) -> AccessResult {
        let result = self.access(addr, now, is_store);
        if P::ENABLED {
            probe.emit(
                now,
                ProbeEvent::MemAccess {
                    addr,
                    level: result.level.index(),
                    complete: result.complete_at,
                    tlb_walk: matches!(result.tlb, TlbOutcome::Walk),
                    is_store,
                },
            );
        }
        result
    }

    /// Performs a demand access (load, store-commit, or RFP request — RFP
    /// requests flow through the exact same path as the load would have,
    /// which is what guarantees their data correctness in §3.2.1).
    ///
    /// `now` is the cycle the access starts its lookup; `is_store` only
    /// affects prefetcher training intent (both train).
    pub fn access(&mut self, addr: Addr, now: Cycle, is_store: bool) -> AccessResult {
        let tlb = self.tlb.translate(addr);
        let t0 = now + self.tlb.latency(tlb);
        let cfg = self.config;

        // L1 lookup.
        if self.l1.access(addr) {
            // An L1 "hit" whose line is still in flight counts as MSHR.
            if let Some(done) = self.l1_mshr.lookup(addr, t0) {
                let complete = done.max(t0 + cfg.l1.latency);
                return self.finish(HitLevel::Mshr, complete, tlb);
            }
            let lat = match cfg.oracle {
                OracleMode::L1ToRf => 1,
                _ => cfg.l1.latency,
            };
            return self.finish(HitLevel::L1, t0 + lat, tlb);
        }

        // L1 miss: train the L2 prefetcher on the miss stream.
        let _ = is_store;
        if cfg.l2_prefetcher {
            for line in self.prefetcher.train(addr) {
                self.issue_l2_prefetch(line, t0);
            }
        }

        // L2 lookup.
        if self.l2.access(addr) {
            // Line may still be in flight from a prefetch.
            if let Some(done) = self.l2_mshr.lookup(addr, t0) {
                let complete = done.max(t0 + cfg.l2.latency);
                self.fill_l1(addr, complete);
                return self.finish(HitLevel::Mshr, complete, tlb);
            }
            let lat = match cfg.oracle {
                OracleMode::L2ToL1 => cfg.l1.latency,
                _ => cfg.l2.latency,
            };
            let complete = t0 + lat;
            self.fill_l1(addr, complete);
            return self.finish(HitLevel::L2, complete, tlb);
        }

        // LLC lookup.
        if self.llc.access(addr) {
            let lat = match cfg.oracle {
                OracleMode::LlcToL2 => cfg.l2.latency,
                _ => cfg.llc.latency,
            };
            let complete = t0 + lat;
            self.l2.fill(addr);
            self.fill_l1(addr, complete);
            let _ = self.l2_mshr.request(addr, t0, lat);
            return self.finish(HitLevel::Llc, complete, tlb);
        }

        // DRAM.
        let lat = match cfg.oracle {
            OracleMode::MemToLlc => cfg.llc.latency,
            _ => cfg.dram_latency,
        };
        let outcome = self.l2_mshr.request(addr, t0, lat);
        let complete = outcome.complete_at();
        self.llc.fill(addr);
        self.l2.fill(addr);
        self.fill_l1(addr, complete);
        let level = if outcome.is_merge() {
            HitLevel::Mshr
        } else {
            HitLevel::Dram
        };
        self.finish(level, complete, tlb)
    }

    /// Issues a hardware-prefetch fill of `addr`'s line into the L1: the
    /// line is brought in along the normal miss path with MSHR timing, but
    /// the access is not counted in the demand hit distribution. Returns
    /// the fill-completion cycle (immediately if already L1-resident).
    pub fn prefetch_fill(&mut self, addr: Addr, now: Cycle) -> Cycle {
        if self.l1.probe(addr) {
            return now;
        }
        let cfg = self.config;
        let lat = if self.l2.probe(addr) {
            cfg.l2.latency
        } else if self.llc.probe(addr) {
            let _ = self.l2_mshr.request(addr, now, cfg.llc.latency);
            self.l2.fill(addr);
            cfg.llc.latency
        } else {
            let outcome = self.l2_mshr.request(addr, now, cfg.dram_latency);
            self.llc.fill(addr);
            self.l2.fill(addr);
            return {
                let complete = outcome.complete_at();
                self.fill_l1(addr, complete);
                complete
            };
        };
        let complete = now + lat;
        self.fill_l1(addr, complete);
        complete
    }

    /// Pre-installs the lines of `[base, base + bytes)` into the caches
    /// down to `level` — checkpoint-style cache warmup, so measurement
    /// starts from a steady state instead of an artificial cold start.
    pub fn prewarm_region(&mut self, base: Addr, bytes: u64, level: HitLevel) {
        let mut line = base.line();
        let end = base.offset(bytes as i64);
        while line.raw() < end.raw() {
            match level {
                HitLevel::L1 => {
                    self.l1.fill(line);
                    self.l2.fill(line);
                    self.llc.fill(line);
                }
                HitLevel::L2 => {
                    self.l2.fill(line);
                    self.llc.fill(line);
                }
                HitLevel::Llc => {
                    self.llc.fill(line);
                }
                HitLevel::Mshr | HitLevel::Dram => {}
            }
            line = line.offset(rfp_types::CACHE_LINE_BYTES as i64);
        }
    }

    /// True when an access to `addr` would miss the L1 *and* the L2 MSHR
    /// file is nearly full — a prefetch issued now would steal a scarce
    /// miss slot from demand traffic. The RFP engine throttles on this
    /// (prefetches are the lowest-priority clients of every shared
    /// resource, not just the L1 ports).
    pub fn prefetch_would_starve_demand(&mut self, addr: Addr, now: Cycle) -> bool {
        if self.l1.probe(addr) {
            return false;
        }
        let cap = self.config.l2_mshrs;
        self.l2_mshr.occupancy(now) * 2 >= cap
    }

    /// Probes the DTLB without filling — the RFP engine drops prefetches
    /// that would page-walk (§3.2.2).
    pub fn rfp_dtlb_hit(&mut self, addr: Addr) -> bool {
        self.tlb.probe_dtlb(addr)
    }

    /// Returns whether `addr`'s line is currently present in the L1
    /// (no LRU update).
    pub fn l1_has(&self, addr: Addr) -> bool {
        self.l1.probe(addr)
    }

    /// Per-level demand hit counts in [`HitLevel::ALL`] order.
    pub fn hit_counts(&self) -> [u64; 5] {
        self.hit_counts
    }

    /// (DTLB hits, STLB hits, walks).
    pub fn tlb_counters(&self) -> (u64, u64, u64) {
        self.tlb.counters()
    }

    /// Discards in-flight MSHR fills at every level. Used by checkpoint-
    /// style warm-state transplants (`rfp-core`): caches, TLBs and the
    /// stream prefetcher carry position-independent state, but MSHR entries
    /// hold absolute completion cycles that are meaningless under a
    /// restarted clock.
    pub fn clear_in_flight(&mut self) {
        self.l1_mshr.clear_in_flight();
        self.l2_mshr.clear_in_flight();
    }

    /// Approximate host-memory footprint in bytes — what a warm-state
    /// snapshot of this hierarchy costs to retain: the struct plus the
    /// flat tag-store arrays of the three caches and both TLB levels,
    /// dominated by the LLC's. A lower bound: the MSHR files, the
    /// prefetcher's page tracker and allocator overhead are not counted.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.l1.approx_bytes()
            + self.l2.approx_bytes()
            + self.llc.approx_bytes()
            + self.tlb.heap_bytes()
    }

    fn issue_l2_prefetch(&mut self, line: Addr, now: Cycle) {
        if self.l2.probe(line) || self.l1.probe(line) {
            return;
        }
        let lat = if self.llc.probe(line) {
            self.config.llc.latency
        } else {
            self.config.dram_latency
        };
        let outcome = self.l2_mshr.request(line, now, lat);
        if !outcome.is_merge() {
            self.llc.fill(line);
            self.l2.fill(line);
        }
    }

    fn fill_l1(&mut self, addr: Addr, complete: Cycle) {
        self.l1.fill(addr);
        // Record the fill in flight so near-term re-accesses are MSHR hits.
        let _ = self.l1_mshr.request(addr, complete.saturating_sub(1), 1);
    }

    fn finish(&mut self, level: HitLevel, complete: Cycle, tlb: TlbOutcome) -> AccessResult {
        let idx = HitLevel::ALL
            .iter()
            .position(|&l| l == level)
            .expect("level in ALL");
        self.hit_counts[idx] += 1;
        AccessResult {
            level,
            complete_at: complete,
            tlb,
        }
    }
}

mod codec_impls {
    //! Binary codec for warm-state persistence of the whole hierarchy.

    use super::{HierarchyConfig, HitLevel, MemoryHierarchy, OracleMode};
    use rfp_types::codec::{ByteReader, ByteWriter, Codec, CodecError};

    impl Codec for HitLevel {
        fn encode(&self, w: &mut ByteWriter) {
            w.put_u8(self.index());
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            let idx = r.get_u8()? as usize;
            HitLevel::ALL
                .get(idx)
                .copied()
                .ok_or(CodecError::Invalid("HitLevel tag"))
        }
    }

    impl Codec for OracleMode {
        fn encode(&self, w: &mut ByteWriter) {
            w.put_u8(match self {
                OracleMode::None => 0,
                OracleMode::L1ToRf => 1,
                OracleMode::L2ToL1 => 2,
                OracleMode::LlcToL2 => 3,
                OracleMode::MemToLlc => 4,
            });
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            Ok(match r.get_u8()? {
                0 => OracleMode::None,
                1 => OracleMode::L1ToRf,
                2 => OracleMode::L2ToL1,
                3 => OracleMode::LlcToL2,
                4 => OracleMode::MemToLlc,
                _ => return Err(CodecError::Invalid("OracleMode tag")),
            })
        }
    }

    impl Codec for HierarchyConfig {
        fn encode(&self, w: &mut ByteWriter) {
            let HierarchyConfig {
                l1,
                l2,
                llc,
                dram_latency,
                l1_mshrs,
                l2_mshrs,
                dtlb,
                stlb,
                walk_latency,
                l2_prefetcher,
                prefetch_degree,
                oracle,
            } = *self;
            l1.encode(w);
            l2.encode(w);
            llc.encode(w);
            dram_latency.encode(w);
            l1_mshrs.encode(w);
            l2_mshrs.encode(w);
            dtlb.encode(w);
            stlb.encode(w);
            walk_latency.encode(w);
            l2_prefetcher.encode(w);
            prefetch_degree.encode(w);
            oracle.encode(w);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            let cfg = HierarchyConfig {
                l1: Codec::decode(r)?,
                l2: Codec::decode(r)?,
                llc: Codec::decode(r)?,
                dram_latency: Codec::decode(r)?,
                l1_mshrs: Codec::decode(r)?,
                l2_mshrs: Codec::decode(r)?,
                dtlb: Codec::decode(r)?,
                stlb: Codec::decode(r)?,
                walk_latency: Codec::decode(r)?,
                l2_prefetcher: Codec::decode(r)?,
                prefetch_degree: Codec::decode(r)?,
                oracle: Codec::decode(r)?,
            };
            cfg.validate()
                .map_err(|_| CodecError::Invalid("hierarchy config"))?;
            Ok(cfg)
        }
    }

    impl Codec for MemoryHierarchy {
        fn encode(&self, w: &mut ByteWriter) {
            let MemoryHierarchy {
                config,
                l1,
                l2,
                llc,
                l1_mshr,
                l2_mshr,
                tlb,
                prefetcher,
                hit_counts,
            } = self;
            config.encode(w);
            l1.encode(w);
            l2.encode(w);
            llc.encode(w);
            l1_mshr.encode(w);
            l2_mshr.encode(w);
            tlb.encode(w);
            prefetcher.encode(w);
            hit_counts.encode(w);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            Ok(MemoryHierarchy {
                config: Codec::decode(r)?,
                l1: Codec::decode(r)?,
                l2: Codec::decode(r)?,
                llc: Codec::decode(r)?,
                l1_mshr: Codec::decode(r)?,
                l2_mshr: Codec::decode(r)?,
                tlb: Codec::decode(r)?,
                prefetcher: Codec::decode(r)?,
                hit_counts: Codec::decode(r)?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::tiger_lake()).unwrap()
    }

    #[test]
    fn cold_miss_goes_to_dram_then_hits_l1() {
        let mut m = mem();
        let a = Addr::new(0x4_0000);
        let r1 = m.access(a, 0, false);
        assert_eq!(r1.level, HitLevel::Dram);
        assert!(r1.complete_at >= 200);
        let r2 = m.access(a, r1.complete_at + 1, false);
        assert_eq!(r2.level, HitLevel::L1);
        assert_eq!(r2.complete_at, r1.complete_at + 1 + 5);
    }

    #[test]
    fn access_before_fill_completes_is_mshr_hit() {
        let mut m = mem();
        let a = Addr::new(0x8_0000);
        let r1 = m.access(a, 0, false);
        let r2 = m.access(a.offset(8), 10, false);
        assert_eq!(r2.level, HitLevel::Mshr);
        assert!(r2.complete_at >= r1.complete_at);
    }

    #[test]
    fn oracle_l1_to_rf_serves_hits_in_one_cycle() {
        let mut cfg = HierarchyConfig::tiger_lake();
        cfg.oracle = OracleMode::L1ToRf;
        let mut m = MemoryHierarchy::new(cfg).unwrap();
        let a = Addr::new(0x1000);
        let r1 = m.access(a, 0, false);
        let r2 = m.access(a, r1.complete_at + 10, false);
        assert_eq!(r2.level, HitLevel::L1);
        assert_eq!(r2.complete_at, r1.complete_at + 10 + 1);
    }

    #[test]
    fn oracle_mem_to_llc_shrinks_dram_latency() {
        let mut cfg = HierarchyConfig::tiger_lake();
        cfg.oracle = OracleMode::MemToLlc;
        let mut m = MemoryHierarchy::new(cfg).unwrap();
        let r = m.access(Addr::new(0x9_0000), 0, false);
        assert_eq!(r.level, HitLevel::Dram);
        assert!(r.complete_at <= 40 + 60 + 1, "got {}", r.complete_at);
    }

    #[test]
    fn stream_prefetcher_turns_misses_into_mshr_or_l2_hits() {
        let mut m = mem();
        let base = 0x40_0000u64;
        let mut levels = Vec::new();
        let mut t = 0;
        for i in 0..32u64 {
            let r = m.access(Addr::new(base + i * 64), t, false);
            levels.push(r.level);
            t = r.complete_at + 5;
        }
        let late = &levels[4..];
        assert!(
            late.iter()
                .any(|&l| l == HitLevel::L2 || l == HitLevel::Mshr),
            "prefetcher never helped: {levels:?}"
        );
    }

    #[test]
    fn l2_resident_set_hits_l2_after_warmup() {
        let mut m = mem();
        // 256 KiB working set: too big for L1, fits L2.
        let lines: Vec<Addr> = (0..4096u64)
            .map(|i| Addr::new(0x100_0000 + i * 64))
            .collect();
        let mut t = 0;
        for &a in &lines {
            t = m.access(a, t, false).complete_at + 1;
        }
        // Second pass with a large stride ordering to defeat the stream
        // prefetcher's sequential pattern — skip around pages.
        let r = m.access(lines[17], t + 10_000, false);
        assert!(
            matches!(r.level, HitLevel::L2 | HitLevel::L1 | HitLevel::Mshr),
            "got {:?}",
            r.level
        );
    }

    #[test]
    fn hit_counts_accumulate_per_level() {
        let mut m = mem();
        let a = Addr::new(0x2000);
        let r = m.access(a, 0, false);
        m.access(a, r.complete_at + 1, false);
        let counts = m.hit_counts();
        assert_eq!(counts.iter().sum::<u64>(), 2);
    }

    #[test]
    fn dram_latency_must_exceed_llc() {
        let mut cfg = HierarchyConfig::tiger_lake();
        cfg.dram_latency = 10;
        assert!(MemoryHierarchy::new(cfg).is_err());
    }

    #[test]
    fn prefetch_fill_installs_without_counting_demand() {
        let mut m = mem();
        let a = Addr::new(0x5_0000);
        let done = m.prefetch_fill(a, 0);
        assert!(done >= 200, "cold prefetch comes from DRAM");
        assert_eq!(m.hit_counts().iter().sum::<u64>(), 0, "not a demand access");
        let r = m.access(a, done + 1, false);
        assert_eq!(r.level, HitLevel::L1);
    }

    #[test]
    fn prefetch_fill_of_resident_line_is_free() {
        let mut m = mem();
        let a = Addr::new(0x6_0000);
        let first = m.access(a, 0, false);
        let done = m.prefetch_fill(a, first.complete_at + 5);
        assert_eq!(done, first.complete_at + 5, "already resident: no work");
    }

    #[test]
    fn prewarm_region_makes_lines_resident_at_the_right_level() {
        let mut m = mem();
        m.prewarm_region(Addr::new(0x10_0000), 4096, HitLevel::L1);
        m.prewarm_region(Addr::new(0x20_0000), 4096, HitLevel::Llc);
        let r1 = m.access(Addr::new(0x10_0040), 0, false);
        assert_eq!(r1.level, HitLevel::L1);
        let r2 = m.access(Addr::new(0x20_0040), 100, false);
        assert_eq!(r2.level, HitLevel::Llc);
    }

    #[test]
    fn tlb_walk_adds_latency_on_first_touch_of_page() {
        let mut m = mem();
        let a = Addr::new(0x77_0000);
        let r1 = m.access(a, 0, false);
        // Same line, same page, after fill: pure L1 hit without walk.
        let r2 = m.access(a, r1.complete_at + 1, false);
        assert!(r1.complete_at > r2.complete_at - (r1.complete_at + 1));
        assert_eq!(r2.complete_at - (r1.complete_at + 1), 5);
    }

    #[test]
    fn hit_level_index_matches_all_order() {
        for (i, level) in HitLevel::ALL.iter().enumerate() {
            assert_eq!(level.index() as usize, i);
        }
    }

    #[test]
    fn codec_round_trip_resumes_bit_identically() {
        let mut m = mem();
        let mut t = 0;
        for i in 0..512u64 {
            // A mix of streams and strides to warm caches, TLBs, MSHRs
            // and the prefetcher tracker.
            let a = Addr::new(0x10_0000 + (i % 7) * 4096 + i * 72);
            t = m.access(a, t, i % 3 == 0).complete_at + 1;
        }
        let bytes = rfp_types::codec::encode_to_vec(&m);
        let mut back: MemoryHierarchy = rfp_types::codec::decode_from_slice(&bytes).unwrap();
        assert_eq!(back.hit_counts(), m.hit_counts());
        assert_eq!(back.tlb_counters(), m.tlb_counters());
        // The decoded hierarchy must continue exactly like the original.
        for i in 0..256u64 {
            let a = Addr::new(0x10_0000 + (i % 11) * 640);
            let ra = m.access(a, t + i * 3, false);
            let rb = back.access(a, t + i * 3, false);
            assert_eq!(ra, rb, "divergence at access {i}");
        }
        assert_eq!(back.hit_counts(), m.hit_counts());
        // Re-encoding the continued twins stays identical too.
        assert_eq!(
            rfp_types::codec::encode_to_vec(&m),
            rfp_types::codec::encode_to_vec(&back)
        );
    }

    #[test]
    fn codec_rejects_corrupt_geometry() {
        let m = mem();
        let bytes = rfp_types::codec::encode_to_vec(&m);
        // Zero out the L1 way count (second field of the leading config).
        let mut bad = bytes.clone();
        bad[8..16].copy_from_slice(&0u64.to_le_bytes());
        assert!(rfp_types::codec::decode_from_slice::<MemoryHierarchy>(&bad).is_err());
        // Truncations fail cleanly: every eighth offset through the leading
        // config and the trailing 4 KiB (MSHRs, TLBs, prefetcher, counters),
        // and a fixed, evenly spaced set of cuts through the cache arrays in
        // between. Each decode is linear in the prefix, so cutting at every
        // eighth offset of the 138 KiB of set counts would be quadratic.
        let head = rfp_types::codec::encode_to_vec(&m.config).len() + 64;
        let tail = bytes.len() - 4096;
        let spread = 512;
        let cuts = (0..head)
            .step_by(8)
            .chain((0..spread).map(|i| head + i * (tail - head) / spread))
            .chain((tail..bytes.len()).step_by(8));
        for cut in cuts {
            assert!(rfp_types::codec::decode_from_slice::<MemoryHierarchy>(&bytes[..cut]).is_err());
        }
    }

    /// A hierarchy after a fixed mix of streams, random lines, prefetch
    /// fills and prewarmed regions.
    fn after_fixed_traffic(cfg: HierarchyConfig) -> MemoryHierarchy {
        let mut m = MemoryHierarchy::new(cfg).unwrap();
        m.prewarm_region(Addr::new(0x300_0000), 8192, HitLevel::L1);
        m.prewarm_region(Addr::new(0x400_0000), 64 << 10, HitLevel::Llc);
        let mut t = 0;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = match i % 4 {
                0 => 0x10_0000 + (i / 4) * 64,
                1 => 0x300_0000 + x % 8192,
                2 => x % (64 << 20),
                _ => 0x400_0000 + x % (64 << 10),
            };
            if i % 97 == 0 {
                t = m.prefetch_fill(Addr::new(a), t);
            } else {
                t = m
                    .access(Addr::new(a), t, i % 5 == 0)
                    .complete_at
                    .min(t + 40);
            }
        }
        m
    }

    /// FNV-1a of the encoding of [`after_fixed_traffic`].
    fn encoded_digest_after_fixed_traffic(cfg: HierarchyConfig) -> u64 {
        rfp_types::fnv1a_64(&rfp_types::codec::encode_to_vec(&after_fixed_traffic(cfg)))
    }

    /// The encoding of [`after_fixed_traffic`] on the baseline, built once.
    fn fixed_snapshot() -> &'static [u8] {
        static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        BYTES.get_or_init(|| {
            rfp_types::codec::encode_to_vec(&after_fixed_traffic(HierarchyConfig::tiger_lake()))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Damaged snapshot bytes decode to an error or to a consistent
        /// hierarchy, never a panic: every cut is short, and a single bit
        /// flip either fails or leaves every tag store's sets valid. No
        /// tag store allocates before its geometry passes the decode
        /// ceiling and its bytes are in hand.
        #[test]
        fn damaged_snapshot_bytes_never_panic(
            cut in any::<u64>(),
            bit in any::<u64>(),
        ) {
            let bytes = fixed_snapshot();
            let cut = (cut % bytes.len() as u64) as usize;
            let short = rfp_types::codec::decode_from_slice::<MemoryHierarchy>(&bytes[..cut]);
            prop_assert!(short.is_err(), "cut at {} decoded", cut);
            let mut flipped = bytes.to_vec();
            let bit = (bit % (8 * bytes.len() as u64)) as usize;
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(m) = rfp_types::codec::decode_from_slice::<MemoryHierarchy>(&flipped) {
                let [dtlb, stlb] = m.tlb.tag_stores();
                for tags in [m.l1.tags(), m.l2.tags(), m.llc.tags(), dtlb, stlb] {
                    prop_assert_eq!(tags.check(), Ok(()), "bit {}", bit);
                }
            }
        }
    }

    #[test]
    fn wire_format_is_pinned() {
        // Digests of the encoding in which each tag store writes only its
        // valid ways. The second geometry has 96 L1 and STLB sets and 768
        // L2 sets: the modulo path, not the mask.
        assert_eq!(
            encoded_digest_after_fixed_traffic(HierarchyConfig::tiger_lake()),
            0xb96a_a7a7_e4b3_19b5
        );
        let mut odd = HierarchyConfig::tiger_lake();
        odd.l1.size_bytes = 72 << 10;
        odd.l2.size_bytes = 960 << 10;
        odd.stlb.entries = 1152;
        assert_eq!(
            encoded_digest_after_fixed_traffic(odd),
            0xff3a_5fd0_e1b8_fe79
        );
    }

    #[test]
    fn access_with_mirrors_access_and_reports_it() {
        struct Last(Option<ProbeEvent>);
        impl Probe for Last {
            const ENABLED: bool = true;
            fn emit(&mut self, _cycle: Cycle, event: ProbeEvent) {
                self.0 = Some(event);
            }
        }
        let mut m = mem();
        let mut probe = Last(None);
        let a = Addr::new(0x99_0000);
        let r = m.access_with(a, 0, false, &mut probe);
        match probe.0 {
            Some(ProbeEvent::MemAccess {
                addr,
                level,
                complete,
                tlb_walk,
                is_store,
            }) => {
                assert_eq!(addr, a);
                assert_eq!(level, r.level.index());
                assert_eq!(complete, r.complete_at);
                assert!(tlb_walk, "first touch of a page walks");
                assert!(!is_store);
            }
            other => panic!("expected MemAccess, got {other:?}"),
        }
        // A disabled probe costs nothing and still returns the result.
        let r2 = m.access_with(a, r.complete_at + 1, false, &mut rfp_obs::NoopProbe);
        assert_eq!(r2.level, HitLevel::L1);
    }
}
