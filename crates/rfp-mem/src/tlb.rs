//! Data TLBs.
//!
//! A two-level TLB (DTLB backed by a shared STLB) with a fixed page-walk
//! latency on a full miss. RFP drops prefetches that miss the DTLB (paper
//! §3.2.2): a TLB miss burns the run-ahead window, so the prefetch would be
//! useless anyway.

use rfp_types::{Addr, ConfigError, Cycle};

use crate::tag_store::TagStore;

/// Geometry of one TLB level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
    /// Added latency when the lookup is satisfied at this level.
    pub latency: Cycle,
}

impl TlbConfig {
    fn sets(&self) -> usize {
        self.entries / self.ways.max(1)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when entries are zero or not divisible by
    /// the associativity.
    pub fn validate(&self, name: &str) -> Result<(), ConfigError> {
        if self.entries == 0 || self.ways == 0 {
            return Err(ConfigError::new(name, "entries and ways must be nonzero"));
        }
        if !self.entries.is_multiple_of(self.ways) {
            return Err(ConfigError::new(name, "entries must divide by ways"));
        }
        Ok(())
    }
}

/// Where a translation was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbOutcome {
    /// First-level (DTLB) hit: no added latency.
    DtlbHit,
    /// Second-level (STLB) hit: small added latency.
    StlbHit,
    /// Full miss: page-walk latency added.
    Walk,
}

/// One TLB level: its geometry and a tag store keyed by VPN.
#[derive(Debug, Clone)]
struct TlbLevel {
    config: TlbConfig,
    tags: TagStore,
}

impl TlbLevel {
    fn new(config: TlbConfig) -> Self {
        TlbLevel {
            tags: TagStore::new(config.sets(), config.ways),
            config,
        }
    }
}

/// A two-level data TLB with page-walk modelling.
///
/// # Examples
///
/// ```
/// use rfp_mem::{DataTlb, TlbConfig, TlbOutcome};
/// use rfp_types::Addr;
///
/// let mut tlb = DataTlb::new(
///     TlbConfig { entries: 64, ways: 4, latency: 0 },
///     TlbConfig { entries: 1536, ways: 12, latency: 7 },
///     50,
/// ).unwrap();
/// assert_eq!(tlb.translate(Addr::new(0x5000)), TlbOutcome::Walk);
/// assert_eq!(tlb.translate(Addr::new(0x5008)), TlbOutcome::DtlbHit);
/// ```
#[derive(Debug, Clone)]
pub struct DataTlb {
    dtlb: TlbLevel,
    stlb: TlbLevel,
    walk_latency: Cycle,
    dtlb_hits: u64,
    stlb_hits: u64,
    walks: u64,
}

impl DataTlb {
    /// Creates a two-level TLB with the given page-walk latency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid level geometry.
    pub fn new(dtlb: TlbConfig, stlb: TlbConfig, walk_latency: Cycle) -> Result<Self, ConfigError> {
        dtlb.validate("dtlb")?;
        stlb.validate("stlb")?;
        Ok(DataTlb {
            dtlb: TlbLevel::new(dtlb),
            stlb: TlbLevel::new(stlb),
            walk_latency,
            dtlb_hits: 0,
            stlb_hits: 0,
            walks: 0,
        })
    }

    /// Translates `addr`, filling both levels on a miss.
    pub fn translate(&mut self, addr: Addr) -> TlbOutcome {
        let vpn = addr.page_frame();
        if self.dtlb.tags.access(vpn) {
            self.dtlb_hits += 1;
            TlbOutcome::DtlbHit
        } else if self.stlb.tags.access(vpn) {
            self.stlb_hits += 1;
            self.dtlb.tags.fill(vpn);
            TlbOutcome::StlbHit
        } else {
            self.walks += 1;
            self.stlb.tags.fill(vpn);
            self.dtlb.tags.fill(vpn);
            TlbOutcome::Walk
        }
    }

    /// Checks whether `addr` would hit the DTLB, without filling anything —
    /// used by the RFP engine to decide to drop a prefetch.
    pub fn probe_dtlb(&mut self, addr: Addr) -> bool {
        self.dtlb.tags.access(addr.page_frame())
    }

    /// Added latency of outcome `o`.
    pub fn latency(&self, o: TlbOutcome) -> Cycle {
        match o {
            TlbOutcome::DtlbHit => self.dtlb.config.latency,
            TlbOutcome::StlbHit => self.stlb.config.latency,
            TlbOutcome::Walk => self.walk_latency,
        }
    }

    /// (DTLB hits, STLB hits, page walks) since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.dtlb_hits, self.stlb_hits, self.walks)
    }

    /// Host bytes of both levels' tag-store arrays.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.dtlb.tags.heap_bytes() + self.stlb.tags.heap_bytes()
    }

    #[cfg(test)]
    pub(crate) fn tag_stores(&self) -> [&TagStore; 2] {
        [&self.dtlb.tags, &self.stlb.tags]
    }
}

mod codec_impls {
    //! Binary codec for warm-state persistence.

    use super::{DataTlb, TlbConfig, TlbLevel};
    use crate::tag_store::{TagStore, WireTag};
    use rfp_types::codec::{ByteReader, ByteWriter, Codec, CodecError};

    impl Codec for TlbConfig {
        fn encode(&self, w: &mut ByteWriter) {
            let TlbConfig {
                entries,
                ways,
                latency,
            } = *self;
            entries.encode(w);
            ways.encode(w);
            latency.encode(w);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            Ok(TlbConfig {
                entries: Codec::decode(r)?,
                ways: Codec::decode(r)?,
                latency: Codec::decode(r)?,
            })
        }
    }

    impl Codec for TlbLevel {
        fn encode(&self, w: &mut ByteWriter) {
            let TlbLevel { config, tags } = self;
            config.encode(w);
            tags.encode(w, WireTag::Key);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            let config = TlbConfig::decode(r)?;
            config
                .validate("tlb")
                .map_err(|_| CodecError::Invalid("tlb geometry"))?;
            Ok(TlbLevel {
                tags: TagStore::decode(r, config.sets(), config.ways, WireTag::Key)?,
                config,
            })
        }
    }

    impl Codec for DataTlb {
        fn encode(&self, w: &mut ByteWriter) {
            let DataTlb {
                dtlb,
                stlb,
                walk_latency,
                dtlb_hits,
                stlb_hits,
                walks,
            } = self;
            dtlb.encode(w);
            stlb.encode(w);
            walk_latency.encode(w);
            dtlb_hits.encode(w);
            stlb_hits.encode(w);
            walks.encode(w);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            Ok(DataTlb {
                dtlb: Codec::decode(r)?,
                stlb: Codec::decode(r)?,
                walk_latency: Codec::decode(r)?,
                dtlb_hits: Codec::decode(r)?,
                stlb_hits: Codec::decode(r)?,
                walks: Codec::decode(r)?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> DataTlb {
        DataTlb::new(
            TlbConfig {
                entries: 4,
                ways: 2,
                latency: 0,
            },
            TlbConfig {
                entries: 16,
                ways: 4,
                latency: 7,
            },
            50,
        )
        .unwrap()
    }

    #[test]
    fn walk_then_dtlb_hit_then_stlb_hit() {
        let mut t = tlb();
        assert_eq!(t.translate(Addr::new(0x1000)), TlbOutcome::Walk);
        assert_eq!(t.translate(Addr::new(0x1fff)), TlbOutcome::DtlbHit);
        // Evict vpn 1 from the 2-way DTLB set it lives in (set = vpn % 2)
        // without also overflowing its 4-way STLB set (set = vpn % 4):
        // three pages with vpn % 4 == 1.
        for i in 0..3u64 {
            t.translate(Addr::new((0x11 + i * 4) << 12));
        }
        // 0x1000's page fell out of the 4-entry DTLB but lives in the STLB.
        assert_eq!(t.translate(Addr::new(0x1000)), TlbOutcome::StlbHit);
    }

    #[test]
    fn latency_reflects_outcome() {
        let t = tlb();
        assert_eq!(t.latency(TlbOutcome::DtlbHit), 0);
        assert_eq!(t.latency(TlbOutcome::StlbHit), 7);
        assert_eq!(t.latency(TlbOutcome::Walk), 50);
    }

    #[test]
    fn probe_does_not_fill() {
        let mut t = tlb();
        assert!(!t.probe_dtlb(Addr::new(0x9000)));
        assert!(!t.probe_dtlb(Addr::new(0x9000)), "probe must not install");
        t.translate(Addr::new(0x9000));
        assert!(t.probe_dtlb(Addr::new(0x9000)));
    }

    #[test]
    fn counters_accumulate() {
        let mut t = tlb();
        t.translate(Addr::new(0x1000));
        t.translate(Addr::new(0x1000));
        let (d, s, w) = t.counters();
        assert_eq!((d, s, w), (1, 0, 1));
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        assert!(DataTlb::new(
            TlbConfig {
                entries: 5,
                ways: 2,
                latency: 0
            },
            TlbConfig {
                entries: 16,
                ways: 4,
                latency: 7
            },
            50,
        )
        .is_err());
    }
}
