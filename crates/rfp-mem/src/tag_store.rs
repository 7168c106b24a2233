//! The set-associative tag store behind every cache and TLB level.
//!
//! Two flat arrays, `keys` and `lru`, each `sets × ways` long and
//! row-major: set `s` owns `[s * ways, (s + 1) * ways)`. A way holds its
//! whole key (a cache's line number, a TLB's VPN), not the key's quotient
//! by the set count. Within the key's own set the two compare equal
//! exactly together, so lookups need only the set index, and an eviction
//! returns the victim's key as it stands.
//!
//! An invalid way holds [`INVALID`], which no key reaches (line numbers
//! and VPNs are addresses shifted right), and an LRU stamp of 0. A valid
//! way's stamp is at least 1 and at most the store's `stamp`, which counts
//! every access and fill. Replacement is exact LRU: the victim is the
//! first way with the smallest stamp, so the first invalid way when there
//! is one.
//!
//! Nothing invalidates a way, and a fill only ever takes the first
//! invalid way, so in every set the valid ways are a prefix. Scans rest
//! on that: a lookup stops at the first invalid way, since no key lies
//! beyond it, and a fill that reaches one takes it as its victim and
//! stops. A fill into a full set scans it once, tracking the LRU victim
//! as it looks for the key. The wire format rests on it too: a set is its
//! valid-way count and one `(tag, lru)` pair per valid way, and a
//! snapshot costs what it holds.

use rfp_types::codec::{ByteReader, ByteWriter, CodecError};

/// Key of an invalid way.
const INVALID: u64 = u64::MAX;

/// The most ways (`sets × ways`) a decode will allocate: 2^26 ways, a
/// 4 GiB cache of 64-byte lines, 1 GiB of tag arrays. The encoding no
/// longer spends bytes on invalid ways, so its length cannot bound the
/// allocation; this does.
const MAX_DECODED_WAYS: usize = 1 << 26;

/// How the wire format spells a valid way's tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WireTag {
    /// The whole key (TLB levels).
    Key,
    /// The key divided by the set count (caches).
    Quotient,
}

/// A set-associative tag store with exact LRU replacement.
#[derive(Debug, Clone)]
pub(crate) struct TagStore {
    sets: usize,
    ways: usize,
    /// `sets - 1` when `sets` is a power of two.
    set_mask: Option<u64>,
    keys: Vec<u64>,
    lru: Vec<u64>,
    stamp: u64,
}

impl TagStore {
    /// An empty store; `sets` and `ways` must be nonzero.
    pub(crate) fn new(sets: usize, ways: usize) -> Self {
        TagStore {
            sets,
            ways,
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            keys: vec![INVALID; sets * ways],
            lru: vec![0; sets * ways],
            stamp: 0,
        }
    }

    /// Looks `key` up, refreshing its LRU stamp on a hit.
    pub(crate) fn access(&mut self, key: u64) -> bool {
        let row = self.row(key);
        self.stamp += 1;
        match self.find(row, key) {
            Some(i) => {
                self.lru[i] = self.stamp;
                true
            }
            None => false,
        }
    }

    /// Checks presence without touching LRU state.
    pub(crate) fn probe(&self, key: u64) -> bool {
        self.find(self.row(key), key).is_some()
    }

    /// Installs `key`, evicting its set's LRU way if needed; returns the
    /// evicted key. A present key only has its stamp refreshed.
    pub(crate) fn fill(&mut self, key: u64) -> Option<u64> {
        let row = self.row(key);
        self.stamp += 1;
        // One scan finds the key or, failing that, the victim: the first
        // invalid way, which ends the valid prefix, or else the first way
        // with the smallest stamp (strict `<` keeps the earliest).
        let now = self.stamp;
        let keys = &self.keys[row..row + self.ways];
        let lru = &mut self.lru[row..row + self.ways];
        let mut victim = 0;
        for (i, &k) in keys.iter().enumerate() {
            if k == key {
                lru[i] = now;
                return None;
            }
            if k == INVALID {
                victim = i;
                break;
            }
            if lru[i] < lru[victim] {
                victim = i;
            }
        }
        let slot = row + victim;
        let evicted = std::mem::replace(&mut self.keys[slot], key);
        self.lru[slot] = now;
        debug_assert_eq!(
            self.check_set(row / self.ways, &mut Vec::with_capacity(self.ways)),
            Ok(()),
            "tag store set {} after filling key {key:#x}",
            row / self.ways
        );
        (evicted != INVALID).then_some(evicted)
    }

    /// Every set's [`TagStore::check_set`].
    #[cfg(test)]
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        let mut scratch = Vec::with_capacity(self.ways);
        (0..self.sets).try_for_each(|set| self.check_set(set, &mut scratch))
    }

    /// Host bytes of the two arrays.
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.keys.capacity() + self.lru.capacity()) * std::mem::size_of::<u64>()
    }

    /// Index of `key`'s set's first way.
    fn row(&self, key: u64) -> usize {
        debug_assert_ne!(key, INVALID, "key collides with the invalid-way sentinel");
        let set = match self.set_mask {
            Some(mask) => key & mask,
            None => key % self.sets as u64,
        };
        set as usize * self.ways
    }

    /// The slot holding `key` in the set starting at `row`. The scan
    /// ends at the first invalid way: the valid ways are a prefix.
    fn find(&self, row: usize, key: u64) -> Option<usize> {
        let i = row
            + self.keys[row..row + self.ways]
                .iter()
                .position(|&k| k == key || k == INVALID)?;
        (self.keys[i] == key).then_some(i)
    }

    /// The per-set invariants: the valid ways are a prefix of the set; an
    /// invalid way has stamp 0; a valid way has a stamp in `1..=stamp`,
    /// belongs to this set and is the only way holding its key. `scratch`
    /// is reused across calls.
    fn check_set(&self, set: usize, scratch: &mut Vec<u64>) -> Result<(), &'static str> {
        let row = set * self.ways;
        scratch.clear();
        let mut invalid_seen = false;
        for (&key, &lru) in self.keys[row..row + self.ways]
            .iter()
            .zip(&self.lru[row..row + self.ways])
        {
            if key == INVALID {
                if lru != 0 {
                    return Err("tag store: invalid way with a nonzero tag or lru");
                }
                invalid_seen = true;
                continue;
            }
            if invalid_seen {
                return Err("tag store: invalid way before a valid one");
            }
            if lru == 0 {
                return Err("tag store: valid way with lru 0");
            }
            if lru > self.stamp {
                return Err("tag store: lru ahead of the stamp");
            }
            if self.row(key) != row {
                return Err("tag store: tag outside its set");
            }
            scratch.push(key);
        }
        scratch.sort_unstable();
        if scratch.windows(2).any(|w| w[0] == w[1]) {
            return Err("tag store: tag repeated in a set");
        }
        Ok(())
    }

    /// Writes the set count, one valid-way count per set, a `(wire tag,
    /// lru)` pair for each valid way in slot order, then the stamp.
    /// Invalid ways cost nothing: they are the tail of their set, which
    /// the count alone describes. Counts and pairs are laid out in one
    /// buffer and appended whole.
    pub(crate) fn encode(&self, w: &mut ByteWriter, tag: WireTag) {
        w.put_u64(self.sets as u64);
        let count = |keys: &[u64]| keys.iter().take_while(|&&k| k != INVALID).count();
        let valid: usize = self.keys.chunks_exact(self.ways).map(count).sum();
        let mut buf = vec![0u8; 8 * self.sets + 16 * valid];
        let (counts, pairs) = buf.split_at_mut(8 * self.sets);
        let mut pairs = pairs.chunks_exact_mut(16);
        // The quotient by a power-of-two set count is a shift.
        let shift = self.set_mask.map(|mask| mask.count_ones());
        let rows = self
            .keys
            .chunks_exact(self.ways)
            .zip(self.lru.chunks_exact(self.ways));
        for ((keys, lru), count_bytes) in rows.zip(counts.chunks_exact_mut(8)) {
            let n = count(keys);
            count_bytes.copy_from_slice(&(n as u64).to_le_bytes());
            for ((&key, &lru), pair) in keys[..n].iter().zip(&lru[..n]).zip(&mut pairs) {
                let wire = match (tag, shift) {
                    (WireTag::Key, _) => key,
                    (WireTag::Quotient, Some(shift)) => key >> shift,
                    (WireTag::Quotient, None) => key / self.sets as u64,
                };
                pair[..8].copy_from_slice(&wire.to_le_bytes());
                pair[8..].copy_from_slice(&lru.to_le_bytes());
            }
        }
        w.put_bytes(&buf);
        w.put_u64(self.stamp);
    }

    /// Reads what [`TagStore::encode`] wrote for a `sets × ways` store
    /// (both already validated nonzero). A geometry above
    /// [`MAX_DECODED_WAYS`] is refused first; then the counts and the
    /// pairs they announce are each taken in one bounds check, all before
    /// anything is allocated. Every way state the store cannot reach is
    /// rejected: a count above `ways`, and through [`TagStore::check_set`]
    /// every per-set invariant. Valid ways fill each set from slot 0, so
    /// the prefix rule holds by construction.
    pub(crate) fn decode(
        r: &mut ByteReader<'_>,
        sets: usize,
        ways: usize,
        tag: WireTag,
    ) -> Result<Self, CodecError> {
        if sets.checked_mul(ways).is_none_or(|n| n > MAX_DECODED_WAYS) {
            return Err(CodecError::Invalid("tag store above the decode ceiling"));
        }
        let (head, counts) = r.take(8 * (sets + 1))?.split_at(8);
        if le_u64(head) != sets as u64 {
            return Err(CodecError::Invalid("tag store set shape"));
        }
        let mut valid = 0;
        for count in counts.chunks_exact(8) {
            let count = le_u64(count);
            if count > ways as u64 {
                return Err(CodecError::Invalid("tag store set shape"));
            }
            valid += count as usize;
        }
        let (pairs, stamp) = r.take(16 * valid + 8)?.split_at(16 * valid);
        let mut store = TagStore::new(sets, ways);
        store.stamp = le_u64(stamp);
        let mut pairs = pairs.chunks_exact(16);
        let mut scratch = Vec::with_capacity(ways);
        for (set, count) in counts.chunks_exact(8).enumerate() {
            let row = set * ways;
            for (slot, pair) in (row..row + le_u64(count) as usize).zip(&mut pairs) {
                let (wire, lru) = (le_u64(&pair[..8]), le_u64(&pair[8..]));
                let key = match tag {
                    WireTag::Key => wire,
                    WireTag::Quotient => wire
                        .checked_mul(sets as u64)
                        .and_then(|k| k.checked_add(set as u64))
                        .ok_or(CodecError::Invalid("tag store: tag outside its set"))?,
                };
                if key == INVALID {
                    return Err(CodecError::Invalid(
                        "tag store: valid way with the sentinel tag",
                    ));
                }
                store.keys[slot] = key;
                store.lru[slot] = lru;
            }
            store
                .check_set(set, &mut scratch)
                .map_err(CodecError::Invalid)?;
        }
        Ok(store)
    }
}

/// Reads an 8-byte little-endian word from a slice of exactly 8 bytes.
fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte word"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The nested-vector store the flat one replaced, kept as the
    /// reference model: one `Vec` of ways per set, a way's tag being the
    /// wire tag, and the victim the first way with the smallest key.
    #[derive(Clone, Copy, Default)]
    struct Way {
        tag: u64,
        valid: bool,
        lru: u64,
    }

    struct Reference {
        sets: Vec<Vec<Way>>,
        stamp: u64,
        wire: WireTag,
    }

    impl Reference {
        fn new(sets: usize, ways: usize, wire: WireTag) -> Self {
            Reference {
                sets: vec![vec![Way::default(); ways]; sets],
                stamp: 0,
                wire,
            }
        }

        fn locate(&self, key: u64) -> (usize, u64) {
            let n = self.sets.len() as u64;
            let tag = match self.wire {
                WireTag::Key => key,
                WireTag::Quotient => key / n,
            };
            ((key % n) as usize, tag)
        }

        fn access(&mut self, key: u64) -> bool {
            let (set, tag) = self.locate(key);
            self.stamp += 1;
            let stamp = self.stamp;
            match self.sets[set].iter_mut().find(|w| w.valid && w.tag == tag) {
                Some(w) => {
                    w.lru = stamp;
                    true
                }
                None => false,
            }
        }

        fn probe(&self, key: u64) -> bool {
            let (set, tag) = self.locate(key);
            self.sets[set].iter().any(|w| w.valid && w.tag == tag)
        }

        fn fill(&mut self, key: u64) -> Option<u64> {
            let (set, tag) = self.locate(key);
            self.stamp += 1;
            let stamp = self.stamp;
            let (n, wire) = (self.sets.len() as u64, self.wire);
            let ways = &mut self.sets[set];
            if let Some(w) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
                w.lru = stamp;
                return None;
            }
            let victim = ways
                .iter_mut()
                .min_by_key(|w| if w.valid { w.lru } else { 0 })
                .unwrap();
            let evicted = victim.valid.then(|| match wire {
                WireTag::Key => victim.tag,
                WireTag::Quotient => victim.tag * n + set as u64,
            });
            *victim = Way {
                tag,
                valid: true,
                lru: stamp,
            };
            evicted
        }

        /// The valid ways' count per set, then their `(tag, lru)` pairs
        /// in slot order: the layout [`TagStore::encode`] must match.
        fn encode(&self) -> Vec<u8> {
            let mut w = ByteWriter::new();
            w.put_u64(self.sets.len() as u64);
            for set in &self.sets {
                w.put_u64(set.iter().filter(|way| way.valid).count() as u64);
            }
            for way in self.sets.iter().flatten().filter(|way| way.valid) {
                w.put_u64(way.tag);
                w.put_u64(way.lru);
            }
            w.put_u64(self.stamp);
            w.into_bytes()
        }
    }

    fn encode(store: &TagStore, wire: WireTag) -> Vec<u8> {
        let mut w = ByteWriter::new();
        store.encode(&mut w, wire);
        w.into_bytes()
    }

    fn decode(
        bytes: &[u8],
        sets: usize,
        ways: usize,
        wire: WireTag,
    ) -> Result<TagStore, CodecError> {
        let mut r = ByteReader::new(bytes);
        let store = TagStore::decode(&mut r, sets, ways, wire)?;
        assert!(r.is_empty(), "decode must consume exactly the encoding");
        Ok(store)
    }

    /// Cache-shaped (quotient tags) and TLB-shaped (whole-VPN tags)
    /// geometries, power-of-two set counts and not.
    const GEOMETRIES: [(usize, usize, WireTag); 9] = [
        (1, 1, WireTag::Quotient),
        (4, 2, WireTag::Quotient),
        (64, 12, WireTag::Quotient),
        (96, 12, WireTag::Quotient),
        (3, 5, WireTag::Quotient),
        (16, 4, WireTag::Key),
        (128, 12, WireTag::Key),
        (96, 12, WireTag::Key),
        (7, 3, WireTag::Key),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn flat_store_matches_the_nested_reference(
            geometry in 0usize..GEOMETRIES.len(),
            ops in proptest::collection::vec((0u8..3, any::<u64>()), 1..300),
        ) {
            let (sets, ways, wire) = GEOMETRIES[geometry];
            let mut flat = TagStore::new(sets, ways);
            let mut reference = Reference::new(sets, ways, wire);
            // Keys crowd a few times the capacity, so sets overflow and
            // keys recur; the top two bits spread them over far regions.
            let span = 3 * (sets * ways) as u64;
            for (step, &(op, raw)) in ops.iter().enumerate() {
                let key = (raw % span) | ((raw >> 62) << 60);
                match op {
                    0 => prop_assert_eq!(flat.access(key), reference.access(key), "access at step {}", step),
                    1 => prop_assert_eq!(flat.probe(key), reference.probe(key), "probe at step {}", step),
                    _ => prop_assert_eq!(flat.fill(key), reference.fill(key), "fill at step {}", step),
                }
                prop_assert!(encode(&flat, wire) == reference.encode(), "bytes differ after step {}", step);
            }
            let bytes = encode(&flat, wire);
            let back = decode(&bytes, sets, ways, wire).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert!(encode(&back, wire) == bytes, "decode does not round-trip");
        }
    }

    const SETS: usize = 4;
    const WAYS: usize = 2;

    /// Offset of set `set`'s valid-way count in a 4-set encoding.
    fn count_at(set: usize) -> usize {
        8 + 8 * set
    }

    /// Offset of the `n`th `(tag, lru)` pair in a 4-set encoding.
    fn pair_at(n: usize) -> usize {
        8 + 8 * SETS + 16 * n
    }

    /// A 4 × 2 store with set 1 full (keys 1, 5: pairs 0 and 1), set 2
    /// half full (key 2: pair 2) and sets 0 and 3 empty; stamp 3.
    fn sample(wire: WireTag) -> Vec<u8> {
        let mut store = TagStore::new(SETS, WAYS);
        for key in [1, 5, 2] {
            store.fill(key);
        }
        let bytes = encode(&store, wire);
        assert_eq!(bytes.len(), pair_at(3) + 8);
        assert!(decode(&bytes, SETS, WAYS, wire).is_ok());
        bytes
    }

    fn patch(bytes: &mut [u8], at: usize, v: u64) {
        bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    fn rejects(bytes: &[u8], wire: WireTag, why: &'static str) {
        assert_eq!(
            decode(bytes, SETS, WAYS, wire).err(),
            Some(CodecError::Invalid(why))
        );
    }

    #[test]
    fn decode_rejects_a_valid_way_with_lru_zero() {
        let mut bytes = sample(WireTag::Quotient);
        patch(&mut bytes, pair_at(0) + 8, 0);
        rejects(&bytes, WireTag::Quotient, "tag store: valid way with lru 0");
    }

    #[test]
    fn decode_rejects_an_lru_ahead_of_the_stamp() {
        let mut bytes = sample(WireTag::Quotient);
        patch(&mut bytes, pair_at(2) + 8, 4);
        rejects(
            &bytes,
            WireTag::Quotient,
            "tag store: lru ahead of the stamp",
        );
    }

    #[test]
    fn decode_rejects_a_valid_way_with_the_sentinel_tag() {
        let mut bytes = sample(WireTag::Key);
        patch(&mut bytes, pair_at(0), INVALID);
        rejects(
            &bytes,
            WireTag::Key,
            "tag store: valid way with the sentinel tag",
        );
        // A quotient tag that lands on the sentinel: (MAX - 3) / 4 in set
        // 3, given one valid way there.
        let mut bytes = sample(WireTag::Quotient);
        patch(&mut bytes, count_at(3), 1);
        let mut pair = ((INVALID - 3) / 4).to_le_bytes().to_vec();
        pair.extend_from_slice(&1u64.to_le_bytes());
        bytes.splice(pair_at(3)..pair_at(3), pair);
        rejects(
            &bytes,
            WireTag::Quotient,
            "tag store: valid way with the sentinel tag",
        );
    }

    #[test]
    fn decode_rejects_a_count_above_ways() {
        for wire in [WireTag::Quotient, WireTag::Key] {
            let mut bytes = sample(wire);
            patch(&mut bytes, count_at(2), WAYS as u64 + 1);
            rejects(&bytes, wire, "tag store set shape");
        }
    }

    #[test]
    fn check_set_rejects_an_invalid_way_before_a_valid_one() {
        // Decode fills each set from slot 0, so no bytes can say this;
        // the rule guards the fills instead.
        let mut store = TagStore::new(SETS, WAYS);
        store.fill(2);
        let row = 2 * WAYS;
        store.keys.swap(row, row + 1);
        store.lru.swap(row, row + 1);
        assert_eq!(
            store.check_set(2, &mut Vec::new()),
            Err("tag store: invalid way before a valid one")
        );
    }

    #[test]
    fn decode_rejects_a_tag_repeated_in_a_set() {
        for wire in [WireTag::Quotient, WireTag::Key] {
            let mut bytes = sample(wire);
            let first = bytes[pair_at(0)..pair_at(0) + 8].to_vec();
            bytes[pair_at(1)..pair_at(1) + 8].copy_from_slice(&first);
            rejects(&bytes, wire, "tag store: tag repeated in a set");
        }
    }

    #[test]
    fn decode_rejects_a_tag_outside_its_set() {
        // A whole VPN that belongs to set 0, written in set 1.
        let mut bytes = sample(WireTag::Key);
        patch(&mut bytes, pair_at(0), 8);
        rejects(&bytes, WireTag::Key, "tag store: tag outside its set");
        // A quotient tag whose key overflows u64.
        let mut bytes = sample(WireTag::Quotient);
        patch(&mut bytes, pair_at(0), u64::MAX / 2);
        rejects(&bytes, WireTag::Quotient, "tag store: tag outside its set");
    }

    #[test]
    fn decode_rejects_a_wrong_set_count() {
        let mut bytes = sample(WireTag::Key);
        patch(&mut bytes, 0, SETS as u64 + 1);
        rejects(&bytes, WireTag::Key, "tag store set shape");
    }

    #[test]
    fn decode_checks_the_byte_count_before_allocating() {
        let bytes = sample(WireTag::Quotient);
        // Cut inside the set count or the counts: the first take (40
        // bytes) comes up short. Cut inside the pairs or the stamp: the
        // second (three pairs and the stamp, 56 bytes) does.
        let counts = pair_at(0);
        for cut in [0, 8, counts - 1] {
            assert_eq!(
                decode(&bytes[..cut], SETS, WAYS, WireTag::Quotient).err(),
                Some(CodecError::ShortRead {
                    wanted: counts,
                    available: cut
                })
            );
        }
        for cut in [counts, pair_at(1) + 3, bytes.len() - 1] {
            assert_eq!(
                decode(&bytes[..cut], SETS, WAYS, WireTag::Quotient).err(),
                Some(CodecError::ShortRead {
                    wanted: bytes.len() - counts,
                    available: cut - counts
                })
            );
        }
        // Counts that announce more pairs than follow: the pair span is
        // taken whole, so the shortfall shows before any way is read.
        let mut inflated = bytes.clone();
        patch(&mut inflated, count_at(0), 2);
        assert_eq!(
            decode(&inflated, SETS, WAYS, WireTag::Quotient).err(),
            Some(CodecError::ShortRead {
                wanted: 5 * 16 + 8,
                available: bytes.len() - counts
            })
        );
        // 2^26 sets, at the ceiling, need 512 MiB of counts alone; the
        // count check refuses before anything is allocated.
        let huge = decode(&bytes, MAX_DECODED_WAYS, 1, WireTag::Key).err();
        assert!(
            matches!(huge, Some(CodecError::ShortRead { wanted, .. }) if wanted > 1 << 29),
            "{huge:?}"
        );
        // Above the ceiling, and past usize, the geometry alone refuses.
        for (sets, ways) in [
            (MAX_DECODED_WAYS + 1, 1),
            (1, MAX_DECODED_WAYS + 1),
            (usize::MAX, 2),
        ] {
            assert_eq!(
                decode(&bytes, sets, ways, WireTag::Key).err(),
                Some(CodecError::Invalid("tag store above the decode ceiling"))
            );
        }
    }

    #[test]
    fn eviction_prefers_the_first_invalid_way_then_the_oldest() {
        let mut store = TagStore::new(1, 3);
        assert_eq!(store.fill(10), None);
        assert_eq!(store.fill(11), None);
        assert!(store.access(10));
        assert_eq!(store.fill(12), None, "third way was still invalid");
        assert_eq!(store.fill(13), Some(11), "11 is least recently used");
        assert!(store.probe(10) && store.probe(12) && store.probe(13));
    }
}
