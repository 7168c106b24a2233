//! Versioned binary codec for the on-disk experiment store.
//!
//! The workspace builds fully offline (no serde), so persistent state —
//! warm-pool snapshots, compiled trace arenas, per-job result documents —
//! is serialized with this small hand-rolled codec. The design goals, in
//! order:
//!
//! 1. **Bit-exactness.** A decoded simulator snapshot must resume to the
//!    same cycle-for-cycle behaviour as the in-memory original, so every
//!    field is written verbatim (floats as IEEE-754 bit patterns, enums as
//!    explicit discriminants).
//! 2. **Corruption tolerance.** Decoding never panics and never reads out
//!    of bounds; any malformed input surfaces as a [`CodecError`], which
//!    store readers translate into a cache miss.
//! 3. **Evolvability.** Containers are length-prefixed and the store wraps
//!    every entry in a schema-versioned envelope, so incompatible layout
//!    changes invalidate old entries instead of misparsing them.
//!
//! All integers are little-endian. Collections are prefixed with a `u64`
//! element count. `Option` is a presence byte followed by the payload.
//!
//! # Examples
//!
//! ```
//! use rfp_types::codec::{Codec, ByteReader, ByteWriter};
//!
//! let mut w = ByteWriter::new();
//! (42u64, Some("hi".to_string())).encode(&mut w);
//! let bytes = w.into_bytes();
//! let mut r = ByteReader::new(&bytes);
//! let (n, s) = <(u64, Option<String>)>::decode(&mut r).unwrap();
//! assert_eq!((n, s.as_deref()), (42, Some("hi")));
//! assert!(r.is_empty());
//! ```

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;

use crate::{Addr, ArchReg, Pc, PhysReg, SeqNum};

/// Why a decode failed. Store readers treat every variant as a cache miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the requested number of bytes.
    ShortRead {
        /// Bytes the decoder asked for.
        wanted: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A value was structurally invalid (bad discriminant, non-UTF-8
    /// string, out-of-range length...). The message names the field class.
    Invalid(&'static str),
    /// The payload decoded cleanly but left unconsumed bytes behind.
    Trailing(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::ShortRead { wanted, available } => {
                write!(
                    f,
                    "short read: wanted {wanted} bytes, {available} available"
                )
            }
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes after decode"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only little-endian byte sink.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Creates a writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Overwrites the 8 bytes at `at` with `v` little-endian: fills in a
    /// length that is only known once the bytes after it are written.
    ///
    /// # Panics
    ///
    /// If `at + 8` exceeds the bytes written so far.
    pub fn patch_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// A bounds-checked little-endian byte cursor over a borrowed slice.
#[derive(Debug, Clone, Copy)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes and returns `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::ShortRead {
                wanted: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consumes a single byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Consumes a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Consumes a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Consumes a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Consumes a collection length prefix, rejecting counts that could
    /// not possibly fit in the remaining input (every element encodes to
    /// at least one byte), so corrupted prefixes cannot trigger huge
    /// allocations.
    pub fn get_len(&mut self) -> Result<usize, CodecError> {
        let n = self.get_u64()?;
        let n = usize::try_from(n).map_err(|_| CodecError::Invalid("length overflows usize"))?;
        if n > self.remaining() {
            return Err(CodecError::ShortRead {
                wanted: n,
                available: self.remaining(),
            });
        }
        Ok(n)
    }
}

/// Binary encode/decode, implemented by every persisted type.
///
/// Implementations for structs destructure `self` exhaustively so that
/// adding a field without updating the codec is a compile error, not a
/// silent corruption.
pub trait Codec: Sized {
    /// Appends the encoding of `self` to `w`.
    fn encode(&self, w: &mut ByteWriter);
    /// Decodes a value from `r`, consuming exactly the encoded bytes.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;
}

/// Encodes `value` into a fresh byte vector.
pub fn encode_to_vec<T: Codec>(value: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a `T` from `bytes`, requiring the value to consume the whole
/// slice.
pub fn decode_from_slice<T: Codec>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = ByteReader::new(bytes);
    let v = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(CodecError::Trailing(r.remaining()));
    }
    Ok(v)
}

impl Codec for u8 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_u8()
    }
}

impl Codec for u16 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u16(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_u16()
    }
}

impl Codec for u32 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_u32()
    }
}

impl Codec for u64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_u64()
    }
}

impl Codec for i64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(*self as u64);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(r.get_u64()? as i64)
    }
}

impl Codec for usize {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(*self as u64);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        usize::try_from(r.get_u64()?).map_err(|_| CodecError::Invalid("usize overflow"))
    }
}

impl Codec for bool {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(*self as u8);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool")),
        }
    }
}

impl Codec for f64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.to_bits());
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(r.get_u64()?))
    }
}

impl Codec for String {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.len() as u64);
        w.put_bytes(self.as_bytes());
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.get_len()?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("utf-8 string"))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }
}

impl<T: Codec> Codec for Box<T> {
    fn encode(&self, w: &mut ByteWriter) {
        (**self).encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Box::new(T::decode(r)?))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.get_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for VecDeque<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.get_len()?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn encode(&self, w: &mut ByteWriter) {
        // No length prefix: the arity is part of the type.
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::decode(r)?);
        }
        out.try_into()
            .map_err(|_| CodecError::Invalid("array arity"))
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

// HashMaps are encoded sorted by key so the byte stream is a pure function
// of the map's *contents*, independent of hasher seeds and insertion
// order. Every persisted map in the simulator is either accessed by key or
// reduced order-independently, so rebuilding with a different internal
// layout cannot change simulation behaviour.
impl<K: Codec + Ord + Eq + Hash, V: Codec> Codec for HashMap<K, V> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.len() as u64);
        let mut keys: Vec<&K> = self.keys().collect();
        keys.sort();
        for k in keys {
            k.encode(w);
            self[k].encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.get_len()?;
        let mut out = HashMap::with_capacity(n);
        for _ in 0..n {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.len() as u64);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.get_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl Codec for Addr {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.raw());
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Addr::new(r.get_u64()?))
    }
}

impl Codec for Pc {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.raw());
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Pc::new(r.get_u64()?))
    }
}

impl Codec for SeqNum {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.raw());
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(SeqNum::new(r.get_u64()?))
    }
}

impl Codec for ArchReg {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(self.index() as u8);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(ArchReg::new(r.get_u8()?))
    }
}

impl Codec for PhysReg {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u16(self.index() as u16);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(PhysReg::new(r.get_u16()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        let back: T = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(true);
        round_trip(3.75f64);
        round_trip(f64::NAN.to_bits()); // NaN itself is not PartialEq
        round_trip(String::from("hello"));
        round_trip(Some(7u32));
        round_trip(Option::<u32>::None);
        round_trip(vec![1u64, 2, 3]);
        round_trip(VecDeque::from([1u8, 2, 3]));
        round_trip([5u16, 6, 7]);
        round_trip((1u8, 2u64, String::from("x")));
    }

    #[test]
    fn nan_bits_survive() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let bytes = encode_to_vec(&weird);
        let back: f64 = decode_from_slice(&bytes).unwrap();
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn newtypes_round_trip() {
        round_trip(Addr::new(0xdead_beef));
        round_trip(Pc::new(0x40_1000));
        round_trip(SeqNum::new(99));
        round_trip(ArchReg::new(63));
        round_trip(PhysReg::new(280));
    }

    #[test]
    fn hashmap_encoding_is_order_independent() {
        let mut a = HashMap::new();
        let mut b = HashMap::new();
        for k in 0..32u64 {
            a.insert(k, k * 3);
        }
        for k in (0..32u64).rev() {
            b.insert(k, k * 3);
        }
        assert_eq!(encode_to_vec(&a), encode_to_vec(&b));
        round_trip(a);
    }

    #[test]
    fn btreemap_round_trips() {
        let m: BTreeMap<u64, String> = [(3, "c".into()), (1, "a".into())].into_iter().collect();
        round_trip(m);
    }

    #[test]
    fn short_read_is_an_error_not_a_panic() {
        let bytes = encode_to_vec(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            let r: Result<Vec<u64>, _> = decode_from_slice(&bytes[..cut]);
            assert!(r.is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn corrupt_length_prefix_cannot_allocate_huge() {
        let mut bytes = encode_to_vec(&vec![1u64; 4]);
        bytes[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        let r: Result<Vec<u64>, _> = decode_from_slice(&bytes);
        assert!(matches!(r, Err(CodecError::ShortRead { .. })));
    }

    #[test]
    fn invalid_discriminants_are_errors() {
        let r: Result<bool, _> = decode_from_slice(&[2]);
        assert_eq!(r, Err(CodecError::Invalid("bool")));
        let r: Result<Option<u8>, _> = decode_from_slice(&[7, 0]);
        assert_eq!(r, Err(CodecError::Invalid("option tag")));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_to_vec(&5u32);
        bytes.push(0);
        let r: Result<u32, _> = decode_from_slice(&bytes);
        assert_eq!(r, Err(CodecError::Trailing(1)));
    }

    #[test]
    fn patch_u64_overwrites_in_place() {
        let mut w = ByteWriter::new();
        w.put_u8(0xaa);
        w.put_u64(0);
        w.put_u8(0xbb);
        w.patch_u64(1, 0x0102_0304_0506_0708);
        let mut expected = ByteWriter::new();
        expected.put_u8(0xaa);
        expected.put_u64(0x0102_0304_0506_0708);
        expected.put_u8(0xbb);
        assert_eq!(w.as_bytes(), expected.as_bytes());
    }

    #[test]
    fn non_utf8_string_is_invalid() {
        let mut w = ByteWriter::new();
        w.put_u64(2);
        w.put_bytes(&[0xff, 0xfe]);
        let r: Result<String, _> = decode_from_slice(&w.into_bytes());
        assert_eq!(r, Err(CodecError::Invalid("utf-8 string")));
    }
}
