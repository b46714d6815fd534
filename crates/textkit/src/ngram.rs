//! Feature hashing for n-gram features.
//!
//! FastText-style models represent a word by the bag of its character
//! n-grams, hashed into a fixed-size bucket table. The hash is FNV-1a —
//! simple, fast, and deterministic across runs, which the reproduction
//! relies on for stable results. [`Fnv1a`] hashes an n-gram from the
//! slices it spans, so callers never build the n-gram string.

/// Streaming FNV-1a 64-bit hasher: writing parts one after another
/// hashes exactly like [`hash_token`] of their concatenation, so callers
/// can hash joined or formatted text without building the `String`.
/// `write!` into it formats numbers without allocating.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher over the empty string.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x1000_0000_01b3;
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a 64-bit hash of a string.
pub fn hash_token(token: &str) -> u64 {
    hash_bytes(token.as_bytes())
}

/// FNV-1a 64-bit hash of a byte string.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Maps a token to a bucket index in `0..buckets`.
pub fn bucket_of(token: &str, buckets: usize) -> usize {
    bucket_of_hash(hash_token(token), buckets)
}

/// Maps a token's [`hash_token`] value to a bucket index in `0..buckets`.
pub fn bucket_of_hash(hash: u64, buckets: usize) -> usize {
    debug_assert!(buckets > 0, "bucket count must be positive");
    (hash % buckets as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_deterministic_and_spreads() {
        assert_eq!(hash_token("abc"), hash_token("abc"));
        assert_ne!(hash_token("abc"), hash_token("abd"));
        assert_ne!(hash_token(""), hash_token("a"));
    }

    #[test]
    fn streamed_fnv_equals_hash_of_concatenation() {
        use std::fmt::Write;
        let mut h = Fnv1a::new();
        h.write(b"udp");
        h.write(b"_");
        write!(h, "{}|{}", 42u64, 7usize).unwrap();
        assert_eq!(h.finish(), hash_token("udp_42|7"));
        assert_eq!(Fnv1a::new().finish(), hash_token(""));
    }

    #[test]
    fn buckets_are_in_range() {
        for tok in ["a", "b", "winsock", "system.io"] {
            assert!(bucket_of(tok, 97) < 97);
        }
    }
}
