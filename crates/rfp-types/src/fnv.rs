//! FNV-1a 64-bit hashing.
//!
//! One implementation shared by every consumer in the workspace: the
//! experiment engine's config/warm keys, the on-disk store's entry
//! digests and the benchmark's output digest. The store's content
//! checksum runs the same step over 8-byte words instead of bytes, with
//! [`FNV1A_OFFSET`] and [`FNV1A_PRIME`]. FNV-1a is not cryptographic —
//! collision resistance comes from callers storing the full canonical
//! key next to the digest and verifying it on read — but it is fast,
//! allocation-free and trivially reproducible across platforms.
//!
//! # Examples
//!
//! ```
//! use rfp_types::fnv1a_64;
//!
//! assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
//! assert_ne!(fnv1a_64(b"foo"), fnv1a_64(b"bar"));
//! ```

/// FNV-1a 64-bit offset basis.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes `bytes` with FNV-1a 64.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV1A_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV1A_PRIME)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Known vectors from the reference FNV test suite (Noll's fnv32a/64a
    // tables): the empty string hashes to the offset basis, and the
    // single-character and longer vectors pin byte order and the prime.
    #[test]
    fn known_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"b"), 0xaf63_df4c_8601_f1a5);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
