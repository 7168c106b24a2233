//! Miss Status Holding Registers.
//!
//! An MSHR file tracks in-flight line fills. A load that misses a cache but
//! finds its line already being fetched merges with the outstanding request
//! — the paper's Fig. 2 reports these as "MSHR hits". A full MSHR file adds
//! back-pressure: new misses queue behind the oldest outstanding fill.
//!
//! The file is a flat vector of `(line, done)` pairs: it holds a few dozen
//! entries at most, and every access first expires completed fills, so a
//! linear scan beats hashing.

use rfp_types::{Addr, Cycle};

/// Outcome of registering a miss with an [`MshrFile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// The line was already being fetched; data arrives at the given cycle.
    Merged(Cycle),
    /// A new entry was allocated; the fill completes at the given cycle.
    Allocated(Cycle),
    /// The file was full; the request was delayed behind the oldest entry
    /// and completes at the given cycle.
    Delayed(Cycle),
}

impl MshrOutcome {
    /// The cycle at which the requested data is available.
    pub fn complete_at(self) -> Cycle {
        match self {
            MshrOutcome::Merged(c) | MshrOutcome::Allocated(c) | MshrOutcome::Delayed(c) => c,
        }
    }

    /// True when the request merged with an existing in-flight fill.
    pub fn is_merge(self) -> bool {
        matches!(self, MshrOutcome::Merged(_))
    }
}

/// A bounded file of in-flight line fills, keyed by line address.
///
/// # Examples
///
/// ```
/// use rfp_mem::{MshrFile, MshrOutcome};
/// use rfp_types::Addr;
///
/// let mut m = MshrFile::new(2);
/// let a = m.request(Addr::new(0x40), 10, 100);
/// assert_eq!(a, MshrOutcome::Allocated(110));
/// // Same line while in flight: merge, same completion.
/// assert_eq!(m.request(Addr::new(0x44), 20, 100), MshrOutcome::Merged(110));
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// `(line number, completion cycle)` of each in-flight fill; at most
    /// one entry per line, in no particular order.
    inflight: Vec<(u64, Cycle)>,
    merges: u64,
    delays: u64,
}

impl MshrFile {
    /// Creates a file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be nonzero");
        MshrFile {
            capacity,
            inflight: Vec::new(),
            merges: 0,
            delays: 0,
        }
    }

    /// Registers a miss for the line containing `addr` at cycle `now`, with
    /// a fill that would otherwise take `fill_latency` cycles.
    pub fn request(&mut self, addr: Addr, now: Cycle, fill_latency: Cycle) -> MshrOutcome {
        self.expire(now);
        let line = addr.line_number();
        if let Some(done) = self.find(line) {
            self.merges += 1;
            return MshrOutcome::Merged(done);
        }
        if self.inflight.len() >= self.capacity {
            // Queue behind the oldest outstanding fill.
            let oldest = self
                .inflight
                .iter()
                .map(|&(_, done)| done)
                .min()
                .expect("file is non-empty when full");
            let done = oldest + fill_latency;
            self.inflight.push((line, done));
            self.delays += 1;
            return MshrOutcome::Delayed(done);
        }
        let done = now + fill_latency;
        self.inflight.push((line, done));
        MshrOutcome::Allocated(done)
    }

    /// Returns the completion cycle of an in-flight fill of `addr`'s line,
    /// if one exists at cycle `now`.
    pub fn lookup(&mut self, addr: Addr, now: Cycle) -> Option<Cycle> {
        self.expire(now);
        self.find(addr.line_number())
    }

    /// Number of live entries at cycle `now`.
    pub fn occupancy(&mut self, now: Cycle) -> usize {
        self.expire(now);
        self.inflight.len()
    }

    /// Total merged (secondary-miss) requests.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Total requests delayed by a full file.
    pub fn delays(&self) -> u64 {
        self.delays
    }

    /// Discards every in-flight fill. Entry completion times are absolute
    /// cycles, so a warmed file transplanted into a core whose clock
    /// restarts at zero would otherwise report its entries "in flight" for
    /// the donor's entire elapsed time — checkpoint-style warmup
    /// (`rfp-core`'s transplant path) clears them instead.
    pub fn clear_in_flight(&mut self) {
        self.inflight.clear();
    }

    fn find(&self, line: u64) -> Option<Cycle> {
        self.inflight
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, done)| done)
    }

    fn expire(&mut self, now: Cycle) {
        self.inflight.retain(|&(_, done)| done > now);
    }
}

mod codec_impls {
    //! Binary codec for warm-state persistence. The in-flight entries are
    //! encoded as a vector of `(line, done)` pairs sorted by line, which
    //! is also the wire form of a map (see `rfp_types::codec`). Every consumer
    //! looks entries up by line or reduces them order-independently, so
    //! the decoded file behaves identically whatever its entry order.

    use super::MshrFile;
    use rfp_types::codec::{ByteReader, ByteWriter, Codec, CodecError};
    use rfp_types::Cycle;

    impl Codec for MshrFile {
        fn encode(&self, w: &mut ByteWriter) {
            let MshrFile {
                capacity,
                inflight,
                merges,
                delays,
            } = self;
            capacity.encode(w);
            let mut sorted = inflight.clone();
            sorted.sort_unstable();
            sorted.encode(w);
            merges.encode(w);
            delays.encode(w);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            let capacity: usize = Codec::decode(r)?;
            if capacity == 0 {
                return Err(CodecError::Invalid("MSHR capacity"));
            }
            let inflight: Vec<(u64, Cycle)> = Codec::decode(r)?;
            // The canonical form lists each line once, in ascending order.
            if inflight.windows(2).any(|p| p[0].0 >= p[1].0) {
                return Err(CodecError::Invalid("MSHR duplicate or unsorted line"));
            }
            Ok(MshrFile {
                capacity,
                inflight,
                merges: Codec::decode(r)?,
                delays: Codec::decode(r)?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_expire_after_completion() {
        let mut m = MshrFile::new(4);
        m.request(Addr::new(0), 0, 50);
        assert!(m.lookup(Addr::new(0), 10).is_some());
        assert!(m.lookup(Addr::new(0), 50).is_none());
    }

    #[test]
    fn full_file_delays_new_misses() {
        let mut m = MshrFile::new(1);
        let a = m.request(Addr::new(0), 0, 100);
        assert_eq!(a, MshrOutcome::Allocated(100));
        let b = m.request(Addr::new(0x1000), 0, 100);
        assert_eq!(b, MshrOutcome::Delayed(200));
        assert_eq!(m.delays(), 1);
    }

    #[test]
    fn merge_counts_and_shares_completion() {
        let mut m = MshrFile::new(4);
        let a = m.request(Addr::new(0x80), 5, 40);
        let b = m.request(Addr::new(0xbf), 9, 40); // same line
        assert_eq!(b.complete_at(), a.complete_at());
        assert!(b.is_merge());
        assert_eq!(m.merges(), 1);
    }

    #[test]
    fn occupancy_tracks_live_entries() {
        let mut m = MshrFile::new(8);
        m.request(Addr::new(0), 0, 10);
        m.request(Addr::new(0x40), 0, 20);
        assert_eq!(m.occupancy(5), 2);
        assert_eq!(m.occupancy(15), 1);
        assert_eq!(m.occupancy(25), 0);
    }

    #[test]
    fn expired_entries_do_not_set_the_delay_base() {
        // Fills done at 30 and 60; at cycle 40 the first has expired, so a
        // miss into the full file queues behind the live one: 60 + 100.
        let mut m = MshrFile::new(2);
        m.request(Addr::new(0), 0, 30);
        m.request(Addr::new(0x40), 0, 60);
        m.request(Addr::new(0x80), 40, 100);
        assert_eq!(m.occupancy(40), 2);
        assert_eq!(
            m.request(Addr::new(0xc0), 40, 100),
            MshrOutcome::Delayed(160)
        );
        assert_eq!(m.delays(), 1);
    }

    fn populated() -> MshrFile {
        let mut m = MshrFile::new(4);
        for (i, line) in [9u64, 3, 7, 1, 5, 3].into_iter().enumerate() {
            m.request(Addr::new(line << 6), i as Cycle, 50 + i as Cycle);
        }
        m
    }

    #[test]
    fn codec_matches_the_sorted_map_encoding() {
        use rfp_types::codec::{decode_from_slice, encode_to_vec, ByteWriter, Codec};
        let m = populated();
        assert!(m.inflight.len() > m.capacity, "delayed entries overfill");
        // The encoding a `HashMap<line, done>` file wrote: its entries are
        // emitted sorted by key.
        let map: std::collections::HashMap<u64, Cycle> = m.inflight.iter().copied().collect();
        let mut w = ByteWriter::new();
        m.capacity.encode(&mut w);
        map.encode(&mut w);
        m.merges.encode(&mut w);
        m.delays.encode(&mut w);
        let bytes = encode_to_vec(&m);
        assert_eq!(bytes, w.into_bytes());
        let back: MshrFile = decode_from_slice(&bytes).expect("decodes");
        assert_eq!(encode_to_vec(&back), bytes);
        for line in [1u64, 3, 5, 7, 9, 11] {
            assert_eq!(back.find(line), m.find(line));
        }
    }

    #[test]
    fn codec_rejects_a_duplicate_line() {
        use rfp_types::codec::{decode_from_slice, ByteWriter, Codec, CodecError};
        let mut w = ByteWriter::new();
        4usize.encode(&mut w);
        w.put_u64(2);
        for (line, done) in [(7u64, 50u64), (7, 60)] {
            line.encode(&mut w);
            done.encode(&mut w);
        }
        0u64.encode(&mut w);
        0u64.encode(&mut w);
        assert_eq!(
            decode_from_slice::<MshrFile>(&w.into_bytes()).unwrap_err(),
            CodecError::Invalid("MSHR duplicate or unsorted line")
        );
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }
}
