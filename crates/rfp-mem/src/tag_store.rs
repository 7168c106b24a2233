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
//! is one. A fill scans its set once, tracking that victim as it looks
//! for the key, and stops early only when the key is already present.

use rfp_types::codec::{ByteReader, ByteWriter, CodecError};

/// Key of an invalid way.
const INVALID: u64 = u64::MAX;

/// Encoded size of one way: tag (8), valid flag (1), LRU stamp (8).
const WAY_BYTES: usize = 17;

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
        // way with the smallest stamp (strict `<` keeps the earliest).
        let now = self.stamp;
        let keys = &self.keys[row..row + self.ways];
        let lru = &mut self.lru[row..row + self.ways];
        let mut victim = 0;
        for (i, &k) in keys.iter().enumerate() {
            if k == key {
                lru[i] = now;
                return None;
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

    fn find(&self, row: usize, key: u64) -> Option<usize> {
        self.keys[row..row + self.ways]
            .iter()
            .position(|&k| k == key)
            .map(|i| row + i)
    }

    /// The per-set invariants: an invalid way has stamp 0; a valid way has
    /// a stamp in `1..=stamp`, belongs to this set and is the only way
    /// holding its key. `scratch` is reused across calls.
    fn check_set(&self, set: usize, scratch: &mut Vec<u64>) -> Result<(), &'static str> {
        let row = set * self.ways;
        scratch.clear();
        for (&key, &lru) in self.keys[row..row + self.ways]
            .iter()
            .zip(&self.lru[row..row + self.ways])
        {
            if key == INVALID {
                if lru != 0 {
                    return Err("tag store: invalid way with a nonzero tag or lru");
                }
                continue;
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

    /// Writes the ways in the encoding of a `Vec<Vec<{tag, valid, lru}>>`
    /// (an invalid way as `(0, false, 0)`), then the stamp. Warm snapshots
    /// stored before the arrays were flat decode unchanged. Each set's
    /// row is built in one scratch buffer and appended whole.
    pub(crate) fn encode(&self, w: &mut ByteWriter, tag: WireTag) {
        w.put_u64(self.sets as u64);
        let mut row = vec![0u8; 8 + self.ways * WAY_BYTES];
        row[..8].copy_from_slice(&(self.ways as u64).to_le_bytes());
        let rows = self
            .keys
            .chunks_exact(self.ways)
            .zip(self.lru.chunks_exact(self.ways));
        for (keys, lru) in rows {
            for ((way, &key), &lru) in row[8..].chunks_exact_mut(WAY_BYTES).zip(keys).zip(lru) {
                let (wire, valid, lru) = match (key, tag) {
                    (INVALID, _) => (0, 0, 0),
                    (_, WireTag::Key) => (key, 1, lru),
                    (_, WireTag::Quotient) => (key / self.sets as u64, 1, lru),
                };
                way[..8].copy_from_slice(&wire.to_le_bytes());
                way[8] = valid;
                way[9..].copy_from_slice(&lru.to_le_bytes());
            }
            w.put_bytes(&row);
        }
        w.put_u64(self.stamp);
    }

    /// Reads what [`TagStore::encode`] wrote for a `sets × ways` store
    /// (both already validated nonzero). The whole encoding is taken in
    /// one bounds check before anything is allocated, then parsed set by
    /// set; every way state the store cannot reach is rejected.
    pub(crate) fn decode(
        r: &mut ByteReader<'_>,
        sets: usize,
        ways: usize,
        tag: WireTag,
    ) -> Result<Self, CodecError> {
        let row_bytes = ways
            .checked_mul(WAY_BYTES)
            .and_then(|row| row.checked_add(8))
            .ok_or(CodecError::Invalid("tag store size overflows usize"))?;
        let wanted = row_bytes
            .checked_mul(sets)
            .and_then(|rows| rows.checked_add(16))
            .ok_or(CodecError::Invalid("tag store size overflows usize"))?;
        let bytes = r.take(wanted)?;
        let (head, rest) = bytes.split_at(8);
        let (rows, stamp) = rest.split_at(rest.len() - 8);
        if le_u64(head) != sets as u64 {
            return Err(CodecError::Invalid("tag store set shape"));
        }
        let mut store = TagStore::new(sets, ways);
        for (set, row) in rows.chunks_exact(row_bytes).enumerate() {
            if le_u64(&row[..8]) != ways as u64 {
                return Err(CodecError::Invalid("tag store set shape"));
            }
            for (slot, way) in (set * ways..).zip(row[8..].chunks_exact(WAY_BYTES)) {
                let (wire, lru) = (le_u64(&way[..8]), le_u64(&way[9..]));
                match way[8] {
                    0 if wire != 0 || lru != 0 => {
                        return Err(CodecError::Invalid(
                            "tag store: invalid way with a nonzero tag or lru",
                        ))
                    }
                    0 => continue,
                    1 => {}
                    _ => return Err(CodecError::Invalid("bool")),
                }
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
        }
        store.stamp = le_u64(stamp);
        let mut scratch = Vec::with_capacity(ways);
        for set in 0..sets {
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

        fn encode(&self) -> Vec<u8> {
            let mut w = ByteWriter::new();
            w.put_u64(self.sets.len() as u64);
            for set in &self.sets {
                w.put_u64(set.len() as u64);
                for way in set {
                    w.put_u64(way.tag);
                    w.put_u8(way.valid as u8);
                    w.put_u64(way.lru);
                }
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

    /// Offset of way `way` of set `set` in a 4-set, 2-way encoding.
    fn way_at(set: usize, way: usize) -> usize {
        8 + set * (8 + WAYS * WAY_BYTES) + 8 + way * WAY_BYTES
    }

    /// A 4 × 2 store with set 1 full (keys 1, 5), set 2 half full (key 2)
    /// and sets 0 and 3 empty.
    fn sample(wire: WireTag) -> Vec<u8> {
        let mut store = TagStore::new(SETS, WAYS);
        for key in [1, 5, 2] {
            store.fill(key);
        }
        let bytes = encode(&store, wire);
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
        patch(&mut bytes, way_at(1, 0) + 9, 0);
        rejects(&bytes, WireTag::Quotient, "tag store: valid way with lru 0");
    }

    #[test]
    fn decode_rejects_an_lru_ahead_of_the_stamp() {
        let mut bytes = sample(WireTag::Quotient);
        patch(&mut bytes, way_at(2, 0) + 9, 4);
        rejects(
            &bytes,
            WireTag::Quotient,
            "tag store: lru ahead of the stamp",
        );
    }

    #[test]
    fn decode_rejects_a_valid_way_with_the_sentinel_tag() {
        let mut bytes = sample(WireTag::Key);
        patch(&mut bytes, way_at(1, 0), INVALID);
        rejects(
            &bytes,
            WireTag::Key,
            "tag store: valid way with the sentinel tag",
        );
        // A quotient tag that lands on the sentinel: (MAX - 3) / 4 in set 3.
        let mut bytes = sample(WireTag::Quotient);
        patch(&mut bytes, way_at(3, 0), (INVALID - 3) / 4);
        bytes[way_at(3, 0) + 8] = 1;
        patch(&mut bytes, way_at(3, 0) + 9, 1);
        rejects(
            &bytes,
            WireTag::Quotient,
            "tag store: valid way with the sentinel tag",
        );
    }

    #[test]
    fn decode_rejects_an_invalid_way_that_is_not_zeroed() {
        for (offset, wire) in [(0, WireTag::Quotient), (9, WireTag::Key)] {
            let mut bytes = sample(wire);
            patch(&mut bytes, way_at(2, 1) + offset, 7);
            rejects(
                &bytes,
                wire,
                "tag store: invalid way with a nonzero tag or lru",
            );
        }
    }

    #[test]
    fn decode_rejects_a_tag_repeated_in_a_set() {
        for wire in [WireTag::Quotient, WireTag::Key] {
            let mut bytes = sample(wire);
            let first = bytes[way_at(1, 0)..way_at(1, 0) + 8].to_vec();
            bytes[way_at(1, 1)..way_at(1, 1) + 8].copy_from_slice(&first);
            rejects(&bytes, wire, "tag store: tag repeated in a set");
        }
    }

    #[test]
    fn decode_rejects_a_tag_outside_its_set() {
        // A whole VPN that belongs to set 0, written in set 1.
        let mut bytes = sample(WireTag::Key);
        patch(&mut bytes, way_at(1, 0), 8);
        rejects(&bytes, WireTag::Key, "tag store: tag outside its set");
        // A quotient tag whose key overflows u64.
        let mut bytes = sample(WireTag::Quotient);
        patch(&mut bytes, way_at(1, 0), u64::MAX / 2);
        rejects(&bytes, WireTag::Quotient, "tag store: tag outside its set");
    }

    #[test]
    fn decode_rejects_a_wrong_shape_and_a_bad_valid_flag() {
        let mut bytes = sample(WireTag::Key);
        patch(&mut bytes, 8 + (8 + WAYS * WAY_BYTES), 1);
        rejects(&bytes, WireTag::Key, "tag store set shape");
        let mut bytes = sample(WireTag::Key);
        bytes[way_at(0, 0) + 8] = 2;
        rejects(&bytes, WireTag::Key, "bool");
    }

    #[test]
    fn decode_checks_the_byte_count_before_allocating() {
        let bytes = sample(WireTag::Quotient);
        for cut in [0, 8, bytes.len() / 2, bytes.len() - 1] {
            assert_eq!(
                decode(&bytes[..cut], SETS, WAYS, WireTag::Quotient).err(),
                Some(CodecError::ShortRead {
                    wanted: bytes.len(),
                    available: cut
                })
            );
        }
        // 2^34 sets would need terabytes of keys; the count check refuses
        // before anything is allocated.
        let huge = decode(&bytes, 1 << 34, 1, WireTag::Key).err();
        assert!(
            matches!(huge, Some(CodecError::ShortRead { wanted, .. }) if wanted > 1 << 38),
            "{huge:?}"
        );
        assert_eq!(
            decode(&bytes, usize::MAX, 2, WireTag::Key).err(),
            Some(CodecError::Invalid("tag store size overflows usize"))
        );
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
