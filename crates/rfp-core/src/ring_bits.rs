//! Bitsets over the ROB's ring of slots, for the reservation station.
//!
//! The window always holds consecutive seqs `rob_base .. rob_base + len`
//! with `len <= rob_entries`, so `seq & (ring - 1)` with `ring` a power of
//! two at least `rob_entries` gives every in-window seq its own slot. A
//! [`RingBits`] keeps one bit per slot; its scans take the window's first
//! seq and length and report *offsets* from that seq, which are also the
//! instructions' ROB indices. The ring is at least one 64-bit word, so no
//! word straddles the ring's end.
//!
//! Select walks [`RingBits::ones`] every cycle, so the iterator's `next`
//! and the word fetch under it are `#[inline]`: the walk compiles into the
//! issue loop instead of making a call per set bit and per word.

/// Number of slots in the ring for a window of `rob_entries`: the next
/// power of two, and at least 64.
pub(crate) fn ring_slots(rob_entries: usize) -> usize {
    rob_entries.next_power_of_two().max(64)
}

/// One bit per ROB slot, addressed by seq.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RingBits {
    words: Vec<u64>,
}

impl RingBits {
    /// An empty bitset for a window of up to `rob_entries` instructions.
    pub(crate) fn for_window(rob_entries: usize) -> Self {
        RingBits {
            words: vec![0; ring_slots(rob_entries) / 64],
        }
    }

    fn mask(&self) -> usize {
        self.words.len() * 64 - 1
    }

    fn slot(&self, seq: u64) -> (usize, u64) {
        let slot = seq as usize & self.mask();
        (slot / 64, 1 << (slot % 64))
    }

    pub(crate) fn insert(&mut self, seq: u64) {
        let (w, bit) = self.slot(seq);
        self.words[w] |= bit;
    }

    pub(crate) fn remove(&mut self, seq: u64) {
        let (w, bit) = self.slot(seq);
        self.words[w] &= !bit;
    }

    pub(crate) fn contains(&self, seq: u64) -> bool {
        let (w, bit) = self.slot(seq);
        self.words[w] & bit != 0
    }

    /// Set bits in the whole ring.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Heap bytes held.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// The bits of seqs `first + off ..` up to the end of `off`'s word or
    /// `len`, whichever is first, shifted so bit 0 is `off`; and how many
    /// offsets that chunk covers.
    #[inline]
    fn chunk(&self, first: u64, off: usize, len: usize) -> (u64, usize) {
        let slot = (first as usize).wrapping_add(off) & self.mask();
        let bit = slot % 64;
        let take = (64 - bit).min(len - off);
        let mut word = self.words[slot / 64] >> bit;
        if take < 64 {
            word &= (1 << take) - 1;
        }
        (word, take)
    }

    /// Offsets, ascending, of the set bits among seqs `first ..
    /// first + len` (`len` at most the ring size).
    pub(crate) fn ones(&self, first: u64, len: usize) -> Ones<'_> {
        debug_assert!(len <= self.words.len() * 64);
        Ones {
            bits: self,
            first,
            len,
            next: 0,
            base: 0,
            word: 0,
        }
    }

    /// Offset of the `k`-th (from 0) set bit among seqs `first ..
    /// first + len`, or `None` if at most `k` of them are set.
    pub(crate) fn nth_one(&self, first: u64, len: usize, mut k: usize) -> Option<usize> {
        debug_assert!(len <= self.words.len() * 64);
        let mut off = 0;
        while off < len {
            let (mut word, take) = self.chunk(first, off, len);
            let set = word.count_ones() as usize;
            if k < set {
                for _ in 0..k {
                    word &= word - 1;
                }
                return Some(off + word.trailing_zeros() as usize);
            }
            k -= set;
            off += take;
        }
        None
    }
}

/// Iterator of [`RingBits::ones`].
#[derive(Debug)]
pub(crate) struct Ones<'a> {
    bits: &'a RingBits,
    first: u64,
    len: usize,
    /// Offset where the next chunk starts.
    next: usize,
    /// Offset of bit 0 of `word`.
    base: usize,
    /// Unreported set bits of the current chunk.
    word: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            if self.next >= self.len {
                return None;
            }
            let (word, take) = self.bits.chunk(self.first, self.next, self.len);
            self.base = self.next;
            self.word = word;
            self.next += take;
        }
        let at = self.base + self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with(rob_entries: usize, seqs: &[u64]) -> RingBits {
        let mut b = RingBits::for_window(rob_entries);
        for &s in seqs {
            b.insert(s);
        }
        b
    }

    #[test]
    fn ring_is_the_next_power_of_two_and_at_least_one_word() {
        assert_eq!(ring_slots(352), 512);
        assert_eq!(ring_slots(704), 1024);
        assert_eq!(ring_slots(512), 512);
        assert_eq!(ring_slots(70), 128);
        assert_eq!(ring_slots(37), 64);
        assert_eq!(ring_slots(4), 64);
        assert_eq!(RingBits::for_window(352).words.len(), 8);
        assert_eq!(RingBits::for_window(704).words.len(), 16);
    }

    #[test]
    fn insert_remove_contains_and_count_alias_modulo_the_ring() {
        let mut b = with(352, &[3, 511, 512 + 64]);
        assert!(b.contains(3) && b.contains(511) && b.contains(64));
        assert!(b.contains(512 + 3), "seqs a ring apart share a slot");
        assert!(!b.contains(4));
        assert_eq!(b.count(), 3);
        b.remove(1024 + 511);
        assert!(!b.contains(511));
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn ones_wrap_at_the_ring_end_in_age_order() {
        // A 352-entry window starting 10 slots before the end of a
        // 512-slot ring: offsets keep counting across the wrap.
        let first = 5 * 512 + 502;
        let b = with(
            352,
            &[first, first + 9, first + 10, first + 11, first + 351],
        );
        let got: Vec<usize> = b.ones(first, 352).collect();
        assert_eq!(got, vec![0, 9, 10, 11, 351]);
        // The slot just past the window's end is not reported.
        let b = with(352, &[first + 352]);
        assert_eq!(b.ones(first, 352).count(), 0);
    }

    #[test]
    fn ones_cross_word_boundaries() {
        // Slot 1000 of 1024 is bit 40 of word 15; offset 24 wraps to slot
        // 0 and offsets 87/88 straddle the word-0/word-1 boundary.
        let first = 1000;
        let seqs: Vec<u64> = [0, 23, 24, 87, 88, 150, 151, 700]
            .iter()
            .map(|o| first + o)
            .collect();
        let b = with(704, &seqs);
        let got: Vec<usize> = b.ones(first, 704).collect();
        assert_eq!(got, vec![0, 23, 24, 87, 88, 150, 151, 700]);
        let dense = with(352, &(64..64 + 200).collect::<Vec<u64>>());
        assert!(dense.ones(64, 352).eq(0..200));
    }

    #[test]
    fn ones_and_nth_one_stop_at_the_limit() {
        let first = 500;
        let b = with(
            352,
            &[first + 1, first + 20, first + 63, first + 64, first + 300],
        );
        let got: Vec<usize> = b.ones(first, 64).collect();
        assert_eq!(got, vec![1, 20, 63], "len is exclusive");
        assert_eq!(b.ones(first, 0).count(), 0);
        assert_eq!(b.nth_one(first, 64, 2), Some(63));
        assert_eq!(b.nth_one(first, 64, 3), None);
        assert_eq!(b.nth_one(first, 65, 3), Some(64));
    }

    #[test]
    fn nth_one_counts_across_words_and_the_wrap() {
        let first = 3 * 1024 + 1000; // 24 slots before the end of 1024
        let offs = [0usize, 5, 23, 24, 25, 90, 200, 600, 703];
        let b = with(
            704,
            &offs.iter().map(|&o| first + o as u64).collect::<Vec<_>>(),
        );
        for (k, &o) in offs.iter().enumerate() {
            assert_eq!(b.nth_one(first, 704, k), Some(o), "k = {k}");
        }
        // k at or beyond the number of set bits.
        assert_eq!(b.nth_one(first, 704, offs.len()), None);
        assert_eq!(b.nth_one(first, 704, 10_000), None);
        assert_eq!(RingBits::for_window(704).nth_one(first, 704, 0), None);
    }

    #[test]
    fn scans_agree_with_a_naive_model() {
        // Deterministic pseudo-random fill over several window positions.
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for &rob in &[37usize, 70, 352, 704] {
            let ring = ring_slots(rob) as u64;
            for round in 0..20u64 {
                let first = round * (ring / 3 + 7);
                let len = rob;
                let mut b = RingBits::for_window(rob);
                let mut want = Vec::new();
                for off in 0..len {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x.is_multiple_of(3) {
                        b.insert(first + off as u64);
                        want.push(off);
                    }
                }
                assert_eq!(b.count(), want.len());
                assert_eq!(b.ones(first, len).collect::<Vec<_>>(), want);
                for limit in [0, 1, len / 2, len] {
                    let cut: Vec<usize> = want.iter().copied().filter(|&o| o < limit).collect();
                    assert_eq!(b.ones(first, limit).collect::<Vec<_>>(), cut);
                }
                for k in 0..want.len() + 2 {
                    assert_eq!(b.nth_one(first, len, k), want.get(k).copied());
                }
            }
        }
    }
}
