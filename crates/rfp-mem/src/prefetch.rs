//! Baseline L2 hardware stream prefetcher.
//!
//! The paper's baseline core (Table 2, Tiger-Lake-like) includes ordinary
//! memory prefetching — Fig. 2's "MSHR hits" class is mostly demand loads
//! catching up with in-flight prefetches. This is a classic per-page stream
//! detector: two sequential line misses within a 4 KiB page arm a stream,
//! after which each access prefetches `degree` lines ahead in the detected
//! direction.

use rfp_types::{Addr, PAGE_SHIFT};

/// Maximum tracked pages (LRU-replaced).
const TRACKER_CAPACITY: usize = 64;

/// Cache lines in a 4 KiB page.
const LINES_PER_PAGE: i64 = 1 << (PAGE_SHIFT - rfp_types::CACHE_LINE_SHIFT);

#[derive(Debug, Clone, Copy)]
struct PageEntry {
    page: u64,
    last_line: i64,
    direction: i64,
    confident: bool,
    lru: u64,
}

/// A per-page stream detector emitting line prefetch candidates.
///
/// # Examples
///
/// ```
/// use rfp_mem::StreamPrefetcher;
/// use rfp_types::Addr;
///
/// let mut p = StreamPrefetcher::new(2);
/// assert_eq!(p.train(Addr::new(0x1000)).len(), 0);  // first touch
/// let out: Vec<Addr> = p.train(Addr::new(0x1040)).collect(); // +1 line: stream armed
/// assert_eq!(out, vec![Addr::new(0x1080), Addr::new(0x10c0)]);
/// ```
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    degree: usize,
    entries: Vec<PageEntry>,
    stamp: u64,
    issued: u64,
}

impl StreamPrefetcher {
    /// Creates a prefetcher issuing `degree` line prefetches per trained
    /// access once a stream is armed.
    pub fn new(degree: usize) -> Self {
        StreamPrefetcher {
            degree,
            entries: Vec::with_capacity(TRACKER_CAPACITY),
            stamp: 0,
            issued: 0,
        }
    }

    /// Trains on a miss/access reaching the L2 and returns the line
    /// addresses to prefetch (none until a stream is armed). The iterator
    /// borrows nothing, so the caller can act on each line as it comes.
    pub fn train(&mut self, addr: Addr) -> impl ExactSizeIterator<Item = Addr> {
        let direction = self.track(addr);
        // Stay within the page: stream prefetchers do not cross 4 KiB
        // boundaries (physical-address ambiguity). The targets move one
        // line at a time, so the ones inside the page are a prefix.
        let line_in_page = Self::line_in_page(addr);
        let room = match direction {
            1 => LINES_PER_PAGE - 1 - line_in_page,
            -1 => line_in_page,
            _ => 0,
        };
        let count = (room as usize).min(self.degree);
        self.issued += count as u64;
        let (line, step) = (addr.line(), direction * rfp_types::CACHE_LINE_BYTES as i64);
        (1..count + 1).map(move |i| line.offset(step * i as i64))
    }

    /// Updates the tracker with `addr` and returns the armed stream's
    /// direction (±1), or 0 when no prefetch should issue.
    fn track(&mut self, addr: Addr) -> i64 {
        self.stamp += 1;
        let stamp = self.stamp;
        let page = addr.page_frame();
        let line_in_page = Self::line_in_page(addr);

        let Some(e) = self.entries.iter_mut().find(|e| e.page == page) else {
            let e = PageEntry {
                page,
                last_line: line_in_page,
                direction: 1,
                confident: false,
                lru: stamp,
            };
            if self.entries.len() < TRACKER_CAPACITY {
                self.entries.push(e);
            } else {
                let victim = self
                    .entries
                    .iter_mut()
                    .min_by_key(|e| e.lru)
                    .expect("non-empty");
                *victim = e;
            }
            return 0;
        };
        e.lru = stamp;
        let delta = line_in_page - e.last_line;
        if delta == e.direction && delta != 0 {
            e.confident = true;
        } else if delta != 0 {
            e.direction = delta.signum();
            e.confident = delta.abs() == 1;
        }
        e.last_line = line_in_page;
        if e.confident {
            e.direction
        } else {
            0
        }
    }

    fn line_in_page(addr: Addr) -> i64 {
        ((addr.raw() >> rfp_types::CACHE_LINE_SHIFT) & (LINES_PER_PAGE as u64 - 1)) as i64
    }

    /// Lines issued since construction.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

mod codec_impls {
    //! Binary codec for warm-state persistence.

    use super::{PageEntry, StreamPrefetcher, TRACKER_CAPACITY};
    use rfp_types::codec::{ByteReader, ByteWriter, Codec, CodecError};

    impl Codec for PageEntry {
        fn encode(&self, w: &mut ByteWriter) {
            let PageEntry {
                page,
                last_line,
                direction,
                confident,
                lru,
            } = *self;
            page.encode(w);
            last_line.encode(w);
            direction.encode(w);
            confident.encode(w);
            lru.encode(w);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            Ok(PageEntry {
                page: Codec::decode(r)?,
                last_line: Codec::decode(r)?,
                direction: Codec::decode(r)?,
                confident: Codec::decode(r)?,
                lru: Codec::decode(r)?,
            })
        }
    }

    impl Codec for StreamPrefetcher {
        fn encode(&self, w: &mut ByteWriter) {
            let StreamPrefetcher {
                degree,
                entries,
                stamp,
                issued,
            } = self;
            degree.encode(w);
            entries.encode(w);
            stamp.encode(w);
            issued.encode(w);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            let degree: usize = Codec::decode(r)?;
            let entries: Vec<PageEntry> = Codec::decode(r)?;
            if entries.len() > TRACKER_CAPACITY {
                return Err(CodecError::Invalid("prefetcher tracker size"));
            }
            Ok(StreamPrefetcher {
                degree,
                entries,
                stamp: Codec::decode(r)?,
                issued: Codec::decode(r)?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_stream_arms_after_two_touches() {
        let mut p = StreamPrefetcher::new(2);
        assert!(p.train(Addr::new(0x2000)).next().is_none());
        let out: Vec<Addr> = p.train(Addr::new(0x2040)).collect();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], Addr::new(0x2080));
    }

    #[test]
    fn descending_stream_is_detected() {
        let mut p = StreamPrefetcher::new(1);
        let _ = p.train(Addr::new(0x3fc0));
        let out: Vec<Addr> = p.train(Addr::new(0x3f80)).collect();
        assert_eq!(out, vec![Addr::new(0x3f40)]);
    }

    #[test]
    fn random_touches_do_not_arm() {
        let mut p = StreamPrefetcher::new(2);
        let _ = p.train(Addr::new(0x4000));
        assert_eq!(p.train(Addr::new(0x4400)).len(), 0); // +16 lines, not sequential
    }

    #[test]
    fn prefetches_do_not_cross_page_boundary() {
        let mut p = StreamPrefetcher::new(4);
        let _ = p.train(Addr::new(0x1f40));
        let out: Vec<Addr> = p.train(Addr::new(0x1f80)).collect();
        // Only 0x1fc0 is still inside the page.
        assert_eq!(out, vec![Addr::new(0x1fc0)]);
    }

    #[test]
    fn tracker_replaces_lru_page() {
        let mut p = StreamPrefetcher::new(1);
        for i in 0..(TRACKER_CAPACITY as u64 + 8) {
            let _ = p.train(Addr::new(i << 12));
        }
        // Re-training the evicted first page starts from scratch.
        assert!(p.train(Addr::new(0x0)).next().is_none());
    }

    #[test]
    fn repeated_same_line_does_not_arm() {
        let mut p = StreamPrefetcher::new(2);
        let _ = p.train(Addr::new(0x8000));
        assert!(p.train(Addr::new(0x8000)).next().is_none());
        assert!(p.train(Addr::new(0x8010)).next().is_none()); // same line
    }
}
