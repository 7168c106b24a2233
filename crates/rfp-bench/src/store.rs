//! Content-addressed on-disk experiment store (`RFP_STORE`).
//!
//! Sweeps are pure functions of their inputs: a job result is fully
//! determined by the workload, the trace parameters, the configuration
//! and the engine modes. The store persists that work under a root
//! directory so the *next* sweep — same process or next week's CI run —
//! pays only for what actually changed:
//!
//! - `results/` — the one cache tier: one
//!   [`SimReport`](rfp_stats::SimReport) per `(schema, trace params,
//!   config, sim mode, warm mode, probe arm, workload)` job.
//! - `warm/` and `traces/` — warm snapshots and compiled trace arenas,
//!   which earlier versions cached. No run reads or writes them; `gc`
//!   empties them whatever its budget, and `store stats` still lists
//!   them.
//!
//! Entries are content-addressed: the file name is the FNV-1a digest of
//! a canonical key string, and the full key is stored *inside* the entry
//! and verified on read, so a digest collision degrades to a miss rather
//! than serving the wrong payload. The wire format is the workspace's
//! own versioned codec (magic, schema version, tier byte, key, payload,
//! word-wise FNV-1a content checksum) — no serde, the build is offline.
//!
//! The store is strictly an *optimization layer*: any short read, bad
//! magic, version skew, key mismatch, checksum failure or decode error
//! is silently a cache miss (counted in [`StoreStats::corrupt`] when the
//! file existed), never an error — the job simply re-simulates and the
//! fresh result overwrites the bad entry. Writes go through a unique
//! `.tmp` file and an atomic rename, so concurrent writers (including
//! separate processes sharing one store) race idempotently: every writer
//! of a given key produces byte-identical content. A `.tmp` file is named
//! `<digest>.tmp.<pid>.<seq>` after its writer; one whose writer died
//! before the rename is an orphan, which [`ExpStore::gc`] removes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

use rfp_types::codec::{ByteReader, ByteWriter, Codec};
use rfp_types::{fnv1a_64, FNV1A_OFFSET, FNV1A_PRIME};

use crate::engine::{SimMode, WarmMode};

/// Magic prefix of every store entry.
const MAGIC: &[u8; 8] = b"RFPSTORE";

/// Store schema version. Bump whenever the envelope or the wire format
/// of any persisted payload changes (a codec layout change in any crate
/// counts): old entries then read as misses and are overwritten by fresh
/// results. Schema 2 seals entries with the word-wise `entry_checksum`.
pub const STORE_SCHEMA_VERSION: u32 = 2;

/// The three content tiers of an [`ExpStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Finished per-job [`SimReport`](rfp_stats::SimReport)s.
    Result,
    /// Per-`(config, workload)` warm snapshots: written by earlier
    /// versions only, and emptied by [`ExpStore::gc`].
    Warm,
    /// Compiled trace arenas: written by earlier versions only, and
    /// emptied by [`ExpStore::gc`].
    Trace,
}

impl Tier {
    /// All tiers, in directory-listing order.
    pub const ALL: [Tier; 3] = [Tier::Result, Tier::Warm, Tier::Trace];

    /// Subdirectory name under the store root.
    pub fn dir(self) -> &'static str {
        match self {
            Tier::Result => "results",
            Tier::Warm => "warm",
            Tier::Trace => "traces",
        }
    }

    fn tag(self) -> u8 {
        match self {
            Tier::Result => 0,
            Tier::Warm => 1,
            Tier::Trace => 2,
        }
    }
}

/// Counter snapshot of an [`ExpStore`] (see [`ExpStore::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served from disk (entry present, verified and decoded).
    pub hits: u64,
    /// Lookups that found nothing usable (absent, corrupt or mismatched
    /// entries all count — the job re-simulates either way).
    pub misses: u64,
    /// The subset of misses where a file *existed* but failed
    /// verification or decoding (truncation, bit rot, version skew).
    /// A checksum-valid entry stored under a different key — a digest
    /// collision with someone else's entry — is a plain miss, not rot.
    pub corrupt: u64,
    /// Payload-file bytes read by hits.
    pub bytes_read: u64,
    /// Entry bytes written (publishes that completed their rename).
    pub bytes_written: u64,
}

impl StoreStats {
    /// Renders the stats as one JSONL line, appended to `--telemetry-out`
    /// streams after the warm-pool summary so CI can assert the store
    /// actually served (mirrors `WarmPoolStats::jsonl_line`).
    pub fn jsonl_line(&self) -> String {
        format!(
            "{{\"store\":{{\"schema\":{},\"hits\":{},\"misses\":{},\"corrupt\":{},\
             \"bytes_read\":{},\"bytes_written\":{}}}}}\n",
            crate::engine::TELEMETRY_SCHEMA_VERSION,
            self.hits,
            self.misses,
            self.corrupt,
            self.bytes_read,
            self.bytes_written,
        )
    }
}

/// On-disk usage of one tier (see [`ExpStore::disk_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierUsage {
    /// Number of `.bin` entries.
    pub entries: u64,
    /// Total bytes across those entries.
    pub bytes: u64,
    /// `.tmp.*` files: writes in flight, or orphans of killed writers.
    /// Their bytes are not in `bytes`.
    pub tmp_files: u64,
}

/// A content-addressed on-disk store rooted at a directory (usually
/// `RFP_STORE`). See the module docs for the tier layout and failure
/// semantics. All methods are lock-free for readers and safe under
/// concurrent writers.
pub struct ExpStore {
    root: PathBuf,
    /// Uniquifies `.tmp` names across this process's threads.
    tmp_seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl std::fmt::Debug for ExpStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExpStore")
            .field("root", &self.root)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ExpStore {
    /// Opens (creating if needed) a store rooted at `root`, probing that
    /// the directory is actually writable so a misconfigured path fails
    /// here and not silently mid-sweep.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the tier directories or writing the probe
    /// file.
    pub fn open(root: &Path) -> std::io::Result<ExpStore> {
        for tier in Tier::ALL {
            std::fs::create_dir_all(root.join(tier.dir()))?;
        }
        let probe = root.join(format!(".probe.{}", std::process::id()));
        std::fs::write(&probe, b"rfp")?;
        std::fs::remove_file(&probe)?;
        Ok(ExpStore {
            root: root.to_path_buf(),
            tmp_seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        })
    }

    /// [`ExpStore::open`] behind an `Arc`, with the error naming where
    /// the path came from (`origin`: `RFP_STORE`, `--store`, ...) — the
    /// message a bin prints before exiting 2.
    ///
    /// # Errors
    ///
    /// As [`ExpStore::open`], rendered with `origin` and the path.
    pub fn open_named(root: &Path, origin: &str) -> Result<Arc<ExpStore>, String> {
        ExpStore::open(root).map(Arc::new).map_err(|e| {
            format!(
                "{origin}={:?} is not a usable store directory: {e}",
                root.display().to_string()
            )
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Counter snapshot (process-lifetime, not persisted).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Entry path for `key` in `tier`.
    fn entry_path(&self, tier: Tier, key: &str) -> PathBuf {
        self.root
            .join(tier.dir())
            .join(format!("{:016x}.bin", fnv1a_64(key.as_bytes())))
    }

    /// Serializes `value` as a store entry for `key` and publishes it
    /// atomically (unique `.tmp` + rename). Best-effort: I/O failures are
    /// swallowed — a store that cannot write degrades to a cache that
    /// never hits, it must not fail the sweep. Returns the entry bytes
    /// written (0 when the publish failed).
    pub fn put<T: Codec>(&self, tier: Tier, key: &str, value: &T) -> u64 {
        let mut w = ByteWriter::new();
        w.put_bytes(MAGIC);
        STORE_SCHEMA_VERSION.encode(&mut w);
        w.put_u8(tier.tag());
        w.put_u64(key.len() as u64);
        w.put_bytes(key.as_bytes());
        // The payload is encoded in place behind its length word, which
        // is filled in once the payload's size is known.
        let len_at = w.len();
        w.put_u64(0);
        value.encode(&mut w);
        w.patch_u64(len_at, (w.len() - len_at - 8) as u64);
        w.put_u64(entry_checksum(w.as_bytes()));
        let bytes = w.into_bytes();
        let path = self.entry_path(tier, key);
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        match std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, &path)) {
            Ok(()) => {
                let n = bytes.len() as u64;
                self.bytes_written.fetch_add(n, Ordering::Relaxed);
                n
            }
            Err(_) => {
                // A write that failed partway leaves a partial file too.
                let _ = std::fs::remove_file(&tmp);
                0
            }
        }
    }

    /// Looks `key` up in `tier`, verifying and decoding the entry.
    ///
    /// Returns `Some((value, entry_bytes_read))` only when every check
    /// passes: magic, schema version, tier tag, stored-key equality
    /// (digest-collision guard), content checksum, full payload decode
    /// with no trailing bytes. Everything else — absent file, short read,
    /// bit rot, version skew — is a counted miss.
    pub fn get<T: Codec>(&self, tier: Tier, key: &str) -> Option<(T, u64)> {
        let path = self.entry_path(tier, key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_entry::<T>(&bytes, tier, key) {
            Decoded::Value(v) => {
                let n = bytes.len() as u64;
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.bytes_read.fetch_add(n, Ordering::Relaxed);
                // Best-effort LRU touch so `gc` evicts genuinely cold
                // entries first; failure changes eviction order only.
                if let Ok(f) = std::fs::File::open(&path) {
                    let _ = f.set_modified(SystemTime::now());
                }
                Some((v, n))
            }
            Decoded::Foreign => {
                // An intact entry under another key's digest: the file is
                // healthy, it just isn't ours. Plain miss.
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Decoded::Corrupt => {
                // The file existed but failed verification: corrupt, and
                // (like every unusable entry) a miss for the caller.
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Every `.bin` entry currently on disk: `(tier, path, bytes, mtime)`.
    /// Unreadable entries are skipped (they are unreadable for `gc` too).
    fn entries(&self) -> Vec<(Tier, PathBuf, u64, SystemTime)> {
        let mut out = Vec::new();
        for tier in Tier::ALL {
            let Ok(dir) = std::fs::read_dir(self.root.join(tier.dir())) else {
                continue;
            };
            for e in dir.flatten() {
                let path = e.path();
                if path.extension().is_none_or(|x| x != "bin") {
                    continue;
                }
                let Ok(md) = e.metadata() else { continue };
                let mtime = md.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                out.push((tier, path, md.len(), mtime));
            }
        }
        out
    }

    /// Per-tier on-disk usage, in [`Tier::ALL`] order.
    pub fn disk_stats(&self) -> [TierUsage; 3] {
        let mut usage = [TierUsage::default(); 3];
        for (i, tier) in Tier::ALL.iter().enumerate() {
            let Ok(dir) = std::fs::read_dir(self.root.join(tier.dir())) else {
                continue;
            };
            for e in dir.flatten() {
                if is_tmp(&e.file_name().to_string_lossy()) {
                    usage[i].tmp_files += 1;
                    continue;
                }
                if e.path().extension().is_none_or(|x| x != "bin") {
                    continue;
                }
                if let Ok(md) = e.metadata() {
                    usage[i].entries += 1;
                    usage[i].bytes += md.len();
                }
            }
        }
        usage
    }

    /// Removes every tier's orphaned `.tmp` files (see [`orphaned`]) and
    /// every `warm/` and `traces/` entry (no run reads them), then evicts
    /// least-recently-used entries (by mtime, which hits refresh) until
    /// total usage is at most `max_bytes`. Returns
    /// `(entries_evicted, bytes_evicted)`.
    pub fn gc(&self, max_bytes: u64) -> (u64, u64) {
        for tier in Tier::ALL {
            let Ok(dir) = std::fs::read_dir(self.root.join(tier.dir())) else {
                continue;
            };
            for e in dir.flatten() {
                if orphaned(&e.file_name().to_string_lossy()) {
                    let _ = std::fs::remove_file(e.path());
                }
            }
        }
        let unread = |tier: Tier| matches!(tier, Tier::Warm | Tier::Trace);
        let mut entries = self.entries();
        let mut total: u64 = entries.iter().map(|(_, _, n, _)| n).sum();
        // Unread entries first, whatever their age.
        entries.sort_by_key(|&(tier, _, _, mtime)| (!unread(tier), mtime));
        let (mut evicted, mut evicted_bytes) = (0u64, 0u64);
        for (tier, path, n, _) in entries {
            if total <= max_bytes && !unread(tier) {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                total -= n;
                evicted += 1;
                evicted_bytes += n;
            }
        }
        (evicted, evicted_bytes)
    }

    /// Removes every entry in `tier`, and every `.tmp` file a writer left
    /// behind (killed before its rename). Returns the number of entries
    /// removed.
    pub fn clear_tier(&self, tier: Tier) -> u64 {
        let mut removed = 0;
        let Ok(dir) = std::fs::read_dir(self.root.join(tier.dir())) else {
            return 0;
        };
        for e in dir.flatten() {
            let name = e.file_name();
            let name = name.to_string_lossy();
            let entry = name.ends_with(".bin");
            if !entry && !is_tmp(&name) {
                continue;
            }
            if std::fs::remove_file(e.path()).is_ok() && entry {
                removed += 1;
            }
        }
        removed
    }

    /// Removes every entry in every tier. Returns the number removed.
    pub fn clear(&self) -> u64 {
        Tier::ALL.iter().map(|&t| self.clear_tier(t)).sum()
    }
}

/// Whether `name` is a writer's `.tmp` file (`<digest>.tmp.<pid>.<seq>`).
fn is_tmp(name: &str) -> bool {
    name.contains(".tmp.")
}

/// Whether `name` is a `.tmp` file whose writer is gone: `/proc` exists
/// and has no entry for the pid in the name. Without `/proc` nothing
/// counts as orphaned, so a live writer's file is never removed.
fn orphaned(name: &str) -> bool {
    let Some((pid, seq)) = name
        .split_once(".tmp.")
        .and_then(|(_, rest)| rest.split_once('.'))
    else {
        return false;
    };
    let proc = Path::new("/proc");
    pid.parse::<u32>().is_ok()
        && seq.parse::<u64>().is_ok()
        && proc.is_dir()
        && !proc.join(pid).exists()
}

/// Outcome of verifying one on-disk entry against a lookup key.
enum Decoded<T> {
    /// Verified, decoded, and keyed to this lookup.
    Value(T),
    /// Checksum-valid entry whose stored key differs from the lookup
    /// key: a digest collision with someone else's entry, not damage.
    Foreign,
    /// Failed verification or decoding (truncation, bit rot, skew).
    Corrupt,
}

/// The entry's content checksum: FNV-1a's step `h = (h ^ w) * prime`
/// over `body` read as little-endian 8-byte words, then over the bytes
/// after the last whole word one at a time. The prime is odd, so for a
/// fixed `h` each step is a bijection of `w` and for a fixed `w` one of
/// `h`: a change confined to one word always changes the sum. A change
/// of length is caught before the sum, by [`open_envelope`].
fn entry_checksum(body: &[u8]) -> u64 {
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(FNV1A_PRIME);
    let words = body.chunks_exact(8);
    let tail = words.remainder();
    let h = words.fold(FNV1A_OFFSET, |h, w| {
        step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
    });
    tail.iter().fold(h, |h, &b| step(h, u64::from(b)))
}

/// Parses an entry's envelope — magic, schema version, tier tag, stored
/// key and payload length — and returns `(stored key, payload)`. Checks
/// run in this order: the header fields, then that the buffer is exactly
/// header + payload + checksum long, then the checksum. `None` on any
/// failure. Callers compare the stored key only after this returns, so a
/// damaged key byte fails the checksum and never reads as someone else's
/// entry.
fn open_envelope(bytes: &[u8], tier: Tier) -> Option<(&[u8], &[u8])> {
    let mut r = ByteReader::new(bytes);
    if r.take(MAGIC.len()).ok()? != MAGIC
        || r.get_u32().ok()? != STORE_SCHEMA_VERSION
        || r.get_u8().ok()? != tier.tag()
    {
        return None;
    }
    let key_len = r.get_len().ok()?;
    let key = r.take(key_len).ok()?;
    let payload_len = usize::try_from(r.get_u64().ok()?).ok()?;
    if payload_len.checked_add(8)? != r.remaining() {
        return None;
    }
    let payload = r.take(payload_len).ok()?;
    let (body, sum) = bytes.split_at(bytes.len() - 8);
    (sum == entry_checksum(body).to_le_bytes()).then_some((key, payload))
}

/// Verifies and decodes one entry.
fn decode_entry<T: Codec>(bytes: &[u8], tier: Tier, key: &str) -> Decoded<T> {
    let Some((stored, payload)) = open_envelope(bytes, tier) else {
        return Decoded::Corrupt;
    };
    if stored != key.as_bytes() {
        return Decoded::Foreign;
    }
    match rfp_types::codec::decode_from_slice(payload) {
        Ok(v) => Decoded::Value(v),
        Err(_) => Decoded::Corrupt,
    }
}

/// Canonical result-tier key for one grid job. Everything that can
/// change the report is spelled into the string: the store schema (so a
/// codec change re-keys), the trace parameters, the *full* configuration
/// `Debug` rendering, both engine modes, and the probe arm (instrumented
/// reports carry extra payloads and must never alias plain ones).
pub fn result_key(
    measured: u64,
    warmup: u64,
    sim: SimMode,
    warm: WarmMode,
    collect_obs: bool,
    workload: &str,
    cfg: &rfp_core::CoreConfig,
) -> String {
    format!(
        "result|schema={STORE_SCHEMA_VERSION}|measured={measured}|warmup={warmup}\
         |interval={}|sim={}|warm={}|obs={}|workload={workload}|cfg={cfg:?}",
        crate::engine::SAMPLE_INTERVAL_UOPS,
        sim.label(),
        warm.label(),
        u8::from(collect_obs),
    )
}

/// Renders `experiments store stats` for `store`: per-tier entry counts,
/// bytes and `.tmp` files, deterministic layout.
pub fn render_store_stats(store: &ExpStore) -> String {
    let row = |name: &str, u: &TierUsage| {
        format!(
            "  {name:<8} {:>8} entries  {:>12} bytes  {:>6} tmp\n",
            u.entries, u.bytes, u.tmp_files
        )
    };
    let mut out = format!("store root: {}\n", store.root().display());
    let mut total = TierUsage::default();
    for (tier, u) in Tier::ALL.iter().zip(store.disk_stats()) {
        out.push_str(&row(tier.dir(), &u));
        total.entries += u.entries;
        total.bytes += u.bytes;
        total.tmp_files += u.tmp_files;
    }
    out.push_str(&row("total", &total));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A scratch store rooted in a unique temp directory, removed on
    /// drop (the workspace has no tempfile crate — offline build).
    struct Scratch(Arc<ExpStore>, PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let root = std::env::temp_dir().join(format!(
                "rfp-store-test-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            Scratch(Arc::new(ExpStore::open(&root).expect("open store")), root)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.1);
        }
    }

    #[test]
    fn round_trips_a_payload_and_counts_hits() {
        let s = Scratch::new("roundtrip");
        let store = &s.0;
        let key = result_key(
            1000,
            500,
            SimMode::Full,
            WarmMode::Exact,
            false,
            "w0",
            &rfp_core::CoreConfig::tiger_lake(),
        );
        assert!(store.get::<Vec<u64>>(Tier::Result, &key).is_none());
        let value: Vec<u64> = vec![1, 2, 3, u64::MAX];
        let written = store.put(Tier::Result, &key, &value);
        assert!(written > 0);
        let (back, read) = store.get::<Vec<u64>>(Tier::Result, &key).expect("hit");
        assert_eq!(back, value);
        assert_eq!(read, written, "one entry in, one entry out");
        let st = store.stats();
        assert_eq!((st.hits, st.misses, st.corrupt), (1, 1, 0));
        assert_eq!((st.bytes_read, st.bytes_written), (read, written));
    }

    #[test]
    fn tiers_and_keys_do_not_alias() {
        let s = Scratch::new("alias");
        let store = &s.0;
        store.put(Tier::Warm, "k1", &7u64);
        assert!(store.get::<u64>(Tier::Trace, "k1").is_none(), "tier");
        assert!(store.get::<u64>(Tier::Warm, "k2").is_none(), "key");
        assert_eq!(store.get::<u64>(Tier::Warm, "k1").expect("hit").0, 7);
    }

    #[test]
    fn stored_key_guards_against_digest_collisions() {
        let s = Scratch::new("collision");
        let store = &s.0;
        store.put(Tier::Result, "the-real-key", &1u64);
        // Forge a collision: copy the entry onto another key's digest
        // path. The stored key string no longer matches the lookup key,
        // so the entry must read as a miss, not as 1.
        let src = store.entry_path(Tier::Result, "the-real-key");
        let dst = store.entry_path(Tier::Result, "some-other-key");
        std::fs::copy(&src, &dst).expect("copy entry");
        assert!(store.get::<u64>(Tier::Result, "some-other-key").is_none());
        assert_eq!(store.stats().corrupt, 0, "a foreign key is not bit rot");
    }

    #[test]
    fn every_corruption_is_a_miss_never_a_panic() {
        let s = Scratch::new("corrupt");
        let store = &s.0;
        let value: Vec<u64> = (0..64).collect();
        store.put(Tier::Trace, "k", &value);
        let path = store.entry_path(Tier::Trace, "k");
        let pristine = std::fs::read(&path).expect("entry");

        // Truncations at every interesting boundary.
        for cut in [0, 1, 7, 8, pristine.len() / 2, pristine.len() - 1] {
            std::fs::write(&path, &pristine[..cut]).expect("truncate");
            assert!(
                store.get::<Vec<u64>>(Tier::Trace, "k").is_none(),
                "truncated to {cut} bytes must miss"
            );
        }
        // Bit flips across the entry (header, key, payload, checksum).
        for i in [0, 9, 12, pristine.len() / 2, pristine.len() - 1] {
            let mut bad = pristine.clone();
            bad[i] ^= 0x40;
            std::fs::write(&path, &bad).expect("flip");
            assert!(
                store.get::<Vec<u64>>(Tier::Trace, "k").is_none(),
                "bit flip at {i} must miss"
            );
        }
        let st = store.stats();
        assert_eq!(st.corrupt, 11, "every bad read counted as corrupt");
        assert_eq!(st.hits, 0);

        // A fresh publish heals the slot.
        store.put(Tier::Trace, "k", &value);
        assert_eq!(
            store.get::<Vec<u64>>(Tier::Trace, "k").expect("hit").0,
            value
        );
    }

    #[test]
    fn a_buffer_of_the_wrong_length_is_corrupt() {
        let s = Scratch::new("length");
        let store = &s.0;
        let value: Vec<u64> = (0..64).collect();
        store.put(Tier::Warm, "k", &value);
        let path = store.entry_path(Tier::Warm, "k");
        let pristine = std::fs::read(&path).expect("entry");
        // Magic, version, tier, key length, key, payload length.
        let header = 8 + 4 + 1 + 8 + 1 + 8;
        let payload = (header + 1..pristine.len()).step_by(37);
        let mut bad = 0;
        for cut in (0..=header).chain(payload) {
            std::fs::write(&path, &pristine[..cut]).expect("truncate");
            assert!(
                store.get::<Vec<u64>>(Tier::Warm, "k").is_none(),
                "truncated to {cut} bytes must miss"
            );
            bad += 1;
        }
        let mut longer = pristine.clone();
        longer.push(0);
        std::fs::write(&path, &longer).expect("extend");
        assert!(store.get::<Vec<u64>>(Tier::Warm, "k").is_none());
        bad += 1;
        let st = store.stats();
        assert_eq!(
            (st.corrupt, st.hits),
            (bad, 0),
            "every cut counted as corrupt"
        );
    }

    #[test]
    fn a_damaged_key_is_corrupt_not_foreign() {
        let s = Scratch::new("key-flip");
        let store = &s.0;
        store.put(Tier::Result, "key", &1u64);
        let path = store.entry_path(Tier::Result, "key");
        let mut bytes = std::fs::read(&path).expect("entry");
        // The key's first byte follows magic, version, tier and length.
        bytes[8 + 4 + 1 + 8] ^= 0x01;
        std::fs::write(&path, &bytes).expect("flip");
        assert!(store.get::<u64>(Tier::Result, "key").is_none());
        assert_eq!(store.stats().corrupt, 1);
    }

    #[test]
    fn entry_checksum_is_pinned() {
        assert_eq!(entry_checksum(b""), FNV1A_OFFSET);
        // One word of zeros steps like one zero byte of FNV-1a.
        assert_eq!(entry_checksum(&[0; 8]), 0xaf63_bd4c_8601_b7df);
        assert_eq!(entry_checksum(&[0; 8]), fnv1a_64(&[0]));
        // One whole word, then five tail bytes.
        assert_eq!(entry_checksum(b"hello, world!"), 0x160d_b91c_522a_c6a5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Bodies of 0 to 199 bytes: most end in a partial word, so the
        /// byte-wise tail is flipped as well as whole words.
        #[test]
        fn entry_checksum_catches_every_single_bit_flip(
            body in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            let sum = entry_checksum(&body);
            let mut flipped = body.clone();
            for bit in 0..body.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(entry_checksum(&flipped) != sum, "bit {} of {} bytes", bit, body.len());
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn version_skew_reads_as_a_miss() {
        let s = Scratch::new("version");
        let store = &s.0;
        store.put(Tier::Result, "k", &3u64);
        let path = store.entry_path(Tier::Result, "k");
        let mut bytes = std::fs::read(&path).expect("entry");
        // Bump the schema version in place and re-seal the checksum, as
        // a future writer would: a structurally-valid entry from another
        // schema must still miss.
        let v = STORE_SCHEMA_VERSION + 1;
        bytes[8..12].copy_from_slice(&v.to_le_bytes());
        let split = bytes.len() - 8;
        let tail = entry_checksum(&bytes[..split]).to_le_bytes();
        bytes[split..].copy_from_slice(&tail);
        std::fs::write(&path, &bytes).expect("rewrite");
        assert!(store.get::<u64>(Tier::Result, "k").is_none());
        assert_eq!(store.stats().corrupt, 1);
    }

    #[test]
    fn gc_evicts_oldest_first_and_clear_empties() {
        let s = Scratch::new("gc");
        let store = &s.0;
        for i in 0u64..8 {
            let key = format!("k{i}");
            store.put(Tier::Result, &key, &vec![i; 64]);
            // Strictly order mtimes without sleeping.
            let path = store.entry_path(Tier::Result, &key);
            let f = std::fs::File::open(&path).expect("entry");
            f.set_modified(SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1000 + i))
                .expect("set mtime");
        }
        let total: u64 = store.disk_stats().iter().map(|u| u.bytes).sum();
        let per_entry = total / 8;
        let (evicted, evicted_bytes) = store.gc(total - 3 * per_entry);
        assert_eq!(evicted, 3, "evicts just enough entries");
        assert_eq!(evicted_bytes, 3 * per_entry);
        // The survivors are the *newest* five.
        for i in 0..3u64 {
            assert!(store
                .get::<Vec<u64>>(Tier::Result, &format!("k{i}"))
                .is_none());
        }
        for i in 3..8u64 {
            assert_eq!(
                store
                    .get::<Vec<u64>>(Tier::Result, &format!("k{i}"))
                    .expect("survivor")
                    .0,
                vec![i; 64]
            );
        }
        assert_eq!(store.clear(), 5);
        assert_eq!(store.disk_stats().iter().map(|u| u.entries).sum::<u64>(), 0);
    }

    #[test]
    fn clear_removes_orphaned_tmp_files() {
        let s = Scratch::new("orphans");
        let store = &s.0;
        store.put(Tier::Warm, "k", &1u64);
        // What a writer killed before its rename leaves behind.
        let orphan = store
            .entry_path(Tier::Warm, "k")
            .with_extension("tmp.4242.0");
        std::fs::write(&orphan, b"partial").expect("plant");
        assert_eq!(store.clear(), 1, "the orphan is not an entry");
        let left: Vec<_> = std::fs::read_dir(store.root().join(Tier::Warm.dir()))
            .expect("dir")
            .flatten()
            .map(|e| e.file_name())
            .collect();
        assert!(left.is_empty(), "left behind: {left:?}");
    }

    #[test]
    fn gc_reaps_the_tmp_files_of_dead_writers_only() {
        let s = Scratch::new("gc-orphans");
        let store = &s.0;
        store.put(Tier::Result, "k", &1u64);
        let entry = store.entry_path(Tier::Result, "k");
        // Linux caps pid_max at 2^22, so no process has this pid.
        let dead = entry.with_extension(format!("tmp.{}.0", 1u32 << 23));
        let live = entry.with_extension(format!("tmp.{}.0", std::process::id()));
        std::fs::write(&dead, b"partial").expect("plant");
        std::fs::write(&live, b"in flight").expect("plant");
        let counts = |st: &ExpStore| {
            let usage = st.disk_stats();
            let sum = |f: fn(&TierUsage) -> u64| usage.iter().map(f).sum::<u64>();
            (sum(|u| u.entries), sum(|u| u.tmp_files))
        };
        assert_eq!(counts(store), (1, 2));
        assert!(render_store_stats(store).contains("2 tmp"));
        assert_eq!(store.gc(u64::MAX), (0, 0), "no entry is over budget");
        assert!(live.exists(), "a live writer's file survives");
        // Without /proc no writer can be shown dead, so nothing goes.
        let reaped = Path::new("/proc").is_dir();
        assert_eq!(dead.exists(), !reaped);
        assert_eq!(counts(store), (1, if reaped { 1 } else { 2 }));
    }

    #[test]
    fn a_failed_publish_leaves_no_tmp_file() {
        let s = Scratch::new("failed-publish");
        let store = &s.0;
        // A non-empty directory where the entry goes: the rename fails.
        let blocker = store.entry_path(Tier::Result, "k");
        std::fs::create_dir_all(blocker.join("x")).expect("block");
        assert_eq!(store.put(Tier::Result, "k", &1u64), 0);
        let names: Vec<_> = std::fs::read_dir(store.root().join(Tier::Result.dir()))
            .expect("dir")
            .flatten()
            .map(|e| e.file_name())
            .collect();
        assert_eq!(names, [blocker.file_name().expect("name")]);
    }

    #[test]
    fn gc_empties_the_unread_tiers_whatever_the_budget() {
        let s = Scratch::new("gc-unread");
        let store = &s.0;
        for tier in Tier::ALL {
            store.put(tier, "k", &vec![0u64; 64]);
        }
        // The unread entries are the newest: age does not spare them.
        let old = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1000);
        let f = std::fs::File::open(store.entry_path(Tier::Result, "k")).expect("entry");
        f.set_modified(old).expect("set mtime");
        let before = store.disk_stats();
        let unread = before[1].bytes + before[2].bytes;
        assert_eq!(store.gc(u64::MAX), (2, unread));
        let after = store.disk_stats();
        let entries: Vec<u64> = after.iter().map(|u| u.entries).collect();
        assert_eq!(entries, [1, 0, 0], "results stay");
        assert!(render_store_stats(store).contains("warm"));
        assert!(render_store_stats(store).contains("traces"));
    }

    #[test]
    fn concurrent_writers_race_idempotently() {
        let s = Scratch::new("race");
        let store = Arc::clone(&s.0);
        let value: Vec<u64> = (0..256).collect();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let store = Arc::clone(&store);
                let value = value.clone();
                scope.spawn(move || {
                    for _ in 0..20 {
                        store.put(Tier::Warm, "contended", &value);
                        if let Some((v, _)) = store.get::<Vec<u64>>(Tier::Warm, "contended") {
                            assert_eq!(v, value, "reader saw a torn write");
                        }
                    }
                });
            }
        });
        assert_eq!(store.stats().corrupt, 0, "no torn entries under contention");
        // No stray .tmp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(s.0.root().join(Tier::Warm.dir()))
            .expect("dir")
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x != "bin"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files leaked: {leftovers:?}");
    }

    #[test]
    fn result_keys_of_existing_modes_are_unchanged() {
        // Entries already on disk must keep hitting: the key spells each
        // mode exactly as those entries were keyed.
        let cfg = rfp_core::CoreConfig::tiger_lake();
        let key = |sim, warm| result_key(2000, 1000, sim, warm, false, "w", &cfg);
        let prefix = "result|schema=2|measured=2000|warmup=1000|interval=8192";
        assert_eq!(
            key(SimMode::Full, WarmMode::Exact),
            format!("{prefix}|sim=full|warm=exact|obs=0|workload=w|cfg={cfg:?}")
        );
        assert_eq!(
            key(SimMode::Sample, WarmMode::Off),
            format!("{prefix}|sim=sample|warm=off|obs=0|workload=w|cfg={cfg:?}")
        );
    }

    #[test]
    fn stats_render_is_deterministic() {
        let s = Scratch::new("render");
        s.0.put(Tier::Result, "k", &1u64);
        let text = render_store_stats(&s.0);
        assert!(text.contains("results"), "{text}");
        assert!(text.contains("total"), "{text}");
        assert_eq!(text, render_store_stats(&s.0));
    }
}
