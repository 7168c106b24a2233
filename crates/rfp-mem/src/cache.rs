//! A set-associative cache tag store with true-LRU replacement.
//!
//! The simulator is trace driven, so caches only track *which lines are
//! present*, not their data — load values travel with the trace. Latency is
//! carried in the config and applied by the hierarchy.

use rfp_types::{Addr, ConfigError, Cycle};

use crate::tag_store::TagStore;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Load-to-use latency of a hit at this level, in cycles.
    pub latency: Cycle,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.size_bytes / rfp_types::CACHE_LINE_BYTES) as usize / self.ways.max(1)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the capacity is not an exact multiple
    /// of `ways * line_size`, or any field is zero.
    pub fn validate(&self, name: &str) -> Result<(), ConfigError> {
        if self.size_bytes == 0 || self.ways == 0 || self.latency == 0 {
            return Err(ConfigError::new(
                name,
                "size, ways and latency must be nonzero",
            ));
        }
        let lines = self.size_bytes / rfp_types::CACHE_LINE_BYTES;
        if lines * rfp_types::CACHE_LINE_BYTES != self.size_bytes {
            return Err(ConfigError::new(
                name,
                "size must be a multiple of the line size",
            ));
        }
        if !lines.is_multiple_of(self.ways as u64) {
            return Err(ConfigError::new(
                name,
                "line count must be divisible by associativity",
            ));
        }
        Ok(())
    }
}

/// A set-associative cache: one [`CacheConfig`] level's tag store, keyed
/// by line number, plus its hit and miss counters.
///
/// # Examples
///
/// ```
/// use rfp_mem::{Cache, CacheConfig};
/// use rfp_types::Addr;
///
/// let mut c = Cache::new(CacheConfig { size_bytes: 4096, ways: 4, latency: 5 }).unwrap();
/// let a = Addr::new(0x1000);
/// assert!(!c.access(a));     // cold miss
/// c.fill(a);
/// assert!(c.access(a));      // now a hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    tags: TagStore,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid geometry (see
    /// [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Result<Self, ConfigError> {
        config.validate("cache")?;
        Ok(Cache {
            config,
            tags: TagStore::new(config.sets(), config.ways),
            hits: 0,
            misses: 0,
        })
    }

    /// Returns the configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Looks up the line containing `addr`, updating LRU on a hit.
    /// Returns true on a hit. Does not allocate on a miss.
    pub fn access(&mut self, addr: Addr) -> bool {
        let hit = self.tags.access(addr.line_number());
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Checks presence without updating LRU or counters (used by prefetch
    /// filters and oracle probes).
    pub fn probe(&self, addr: Addr) -> bool {
        self.tags.probe(addr.line_number())
    }

    /// Installs the line containing `addr`, evicting the LRU way if needed.
    /// Returns the evicted line's address, if any.
    pub fn fill(&mut self, addr: Addr) -> Option<Addr> {
        self.tags
            .fill(addr.line_number())
            .map(|line| Addr::new(line << rfp_types::CACHE_LINE_SHIFT))
    }

    /// Hit count since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Host-memory footprint in bytes — what a warm-state snapshot of
    /// this cache costs to retain: the struct plus its two flat tag-store
    /// arrays (allocator overhead is not counted).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.tags.heap_bytes()
    }

    #[cfg(test)]
    pub(crate) fn tags(&self) -> &TagStore {
        &self.tags
    }
}

mod codec_impls {
    //! Binary codec for warm-state persistence. Exhaustive destructuring
    //! makes new fields a compile error; decode re-validates geometry so
    //! corrupt bytes surface as a miss, never a later panic.

    use super::{Cache, CacheConfig};
    use crate::tag_store::{TagStore, WireTag};
    use rfp_types::codec::{ByteReader, ByteWriter, Codec, CodecError};

    impl Codec for CacheConfig {
        fn encode(&self, w: &mut ByteWriter) {
            let CacheConfig {
                size_bytes,
                ways,
                latency,
            } = *self;
            size_bytes.encode(w);
            ways.encode(w);
            latency.encode(w);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            Ok(CacheConfig {
                size_bytes: Codec::decode(r)?,
                ways: Codec::decode(r)?,
                latency: Codec::decode(r)?,
            })
        }
    }

    impl Codec for Cache {
        fn encode(&self, w: &mut ByteWriter) {
            let Cache {
                config,
                tags,
                hits,
                misses,
            } = self;
            config.encode(w);
            tags.encode(w, WireTag::Quotient);
            hits.encode(w);
            misses.encode(w);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            let config = CacheConfig::decode(r)?;
            config
                .validate("cache")
                .map_err(|_| CodecError::Invalid("cache geometry"))?;
            Ok(Cache {
                config,
                tags: TagStore::decode(r, config.sets(), config.ways, WireTag::Quotient)?,
                hits: Codec::decode(r)?,
                misses: Codec::decode(r)?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(size: u64, ways: usize) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: size,
            ways,
            latency: 5,
        })
        .unwrap()
    }

    #[test]
    fn geometry_is_validated() {
        assert!(CacheConfig {
            size_bytes: 100,
            ways: 2,
            latency: 1
        }
        .validate("x")
        .is_err());
        assert!(CacheConfig {
            size_bytes: 4096,
            ways: 0,
            latency: 1
        }
        .validate("x")
        .is_err());
        assert!(CacheConfig {
            size_bytes: 48 << 10,
            ways: 12,
            latency: 5
        }
        .validate("l1")
        .is_ok());
    }

    #[test]
    fn fill_then_access_hits_same_line_only() {
        let mut c = cache(4096, 4);
        c.fill(Addr::new(0x40));
        assert!(c.access(Addr::new(0x7f))); // same line
        assert!(!c.access(Addr::new(0x80))); // next line
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 2-way, line 64 B, 4 sets => lines 0, 256, 512... map to set 0.
        let mut c = cache(512, 2);
        let a = Addr::new(0);
        let b = Addr::new(256);
        let d = Addr::new(512);
        c.fill(a);
        c.fill(b);
        assert!(c.access(a)); // a now MRU
        let evicted = c.fill(d); // must evict b
        assert_eq!(evicted, Some(Addr::new(256)));
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = cache(512, 2);
        let a = Addr::new(0);
        let b = Addr::new(256);
        let d = Addr::new(512);
        c.fill(a);
        c.fill(b); // b MRU
        assert!(c.probe(a)); // probe must not promote a
        c.fill(d); // evicts a (LRU)
        assert!(!c.probe(a));
        assert!(c.probe(b));
    }

    #[test]
    fn working_set_within_capacity_stops_missing() {
        let mut c = cache(4096, 4);
        let lines: Vec<Addr> = (0..32).map(|i| Addr::new(i * 64)).collect();
        for &l in &lines {
            if !c.access(l) {
                c.fill(l);
            }
        }
        for &l in &lines {
            assert!(c.access(l), "line {l} should be resident");
        }
    }

    #[test]
    fn codec_refuses_a_terabyte_geometry_before_allocating() {
        use rfp_types::codec::{decode_from_slice, encode_to_vec, CodecError};
        let mut c = cache(4096, 4);
        c.fill(Addr::new(0x40));
        let mut bytes = encode_to_vec(&c);
        assert_eq!(bytes[..8], 4096u64.to_le_bytes());
        // 1 TiB, 4-way: a valid geometry of 2^32 sets, above the tag
        // store's decode ceiling of 2^26 ways.
        bytes[..8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert_eq!(
            decode_from_slice::<Cache>(&bytes).err(),
            Some(CodecError::Invalid("tag store above the decode ceiling"))
        );
        // 4 GiB, 4-way: 2^24 sets, at the ceiling, whose valid-way counts
        // alone the bytes that follow cannot hold.
        bytes[..8].copy_from_slice(&(1u64 << 32).to_le_bytes());
        match decode_from_slice::<Cache>(&bytes) {
            Err(CodecError::ShortRead { wanted, available }) => {
                assert!(wanted > 1 << 27, "wanted {wanted}");
                assert_eq!(available, bytes.len() - 24);
            }
            other => panic!("expected a short read, got {other:?}"),
        }
    }

    #[test]
    fn hit_miss_counters_track_accesses() {
        let mut c = cache(4096, 4);
        assert!(!c.access(Addr::new(0)));
        c.fill(Addr::new(0));
        assert!(c.access(Addr::new(0)));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }
}
