//! The in-memory table hasher: word-at-a-time multiply mixing with a
//! splitmix64 finish.
//!
//! Every key the workspace's LRUs and lookup maps hash is either a
//! server-computed graph hash, an allocation address or a registry name,
//! so a keyed SipHash buys no flooding resistance that the (public,
//! unkeyed) graph hash has not already given up. What matters is cost per
//! probe and spread: each 64-bit word costs one rotate, one xor and one
//! multiply, and the bijective splitmix64 finalizer spreads the state over
//! all 64 output bits — low bits for a table's bucket, high bits for a
//! shard — even when the words themselves are 16-byte-aligned addresses
//! or small batch sizes.

use crate::fnv::mix64;
use std::hash::{BuildHasher, Hasher};

/// An odd multiplier with well-mixed bits (2^64 / φ).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Word-at-a-time multiply hasher; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher {
    state: u64,
}

impl WordHasher {
    #[inline]
    fn add(&mut self, w: u64) {
        self.state = (self.state.rotate_left(5) ^ w).wrapping_mul(K);
    }
}

impl Hasher for WordHasher {
    /// Eight little-endian bytes per step. A tail shorter than a word is
    /// read as one last word overlapping the bytes before it (or, below
    /// eight bytes in all, as two overlapping halves), which costs no copy;
    /// the length, folded in first, keeps inputs whose words coincide
    /// (`"aaaa"` and `"aaaaa"`) apart.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let n = bytes.len();
        self.state ^= n as u64;
        let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8 bytes"));
        let half = |at: usize| {
            u64::from(u32::from_le_bytes(
                bytes[at..at + 4].try_into().expect("4 bytes"),
            ))
        };
        if n >= 8 {
            let mut words = bytes.chunks_exact(8);
            for w in &mut words {
                self.add(word(w));
            }
            if !words.remainder().is_empty() {
                self.add(word(&bytes[n - 8..]));
            }
        } else if n >= 4 {
            self.add(half(0) | half(n - 4) << 32);
        } else if n > 0 {
            let b = |at: usize| u64::from(bytes[at]);
            self.add(b(0) | b(n / 2) << 8 | b(n - 1) << 16);
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.add(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.add(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.add(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.state)
    }
}

/// [`BuildHasher`] of [`WordHasher`]s: unkeyed, so every map and every
/// process hashes a key to the same value.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildWordHasher;

impl BuildHasher for BuildWordHasher {
    type Hasher = WordHasher;

    #[inline]
    fn build_hasher(&self) -> WordHasher {
        WordHasher::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equal_keys_hash_equal_and_differences_show() {
        let h = |k: &(u64, &str, u32)| BuildWordHasher.hash_one(k);
        let base = (7u64, "gpu-T4-trt7.1-fp32", 1u32);
        assert_eq!(h(&base), h(&(7, "gpu-T4-trt7.1-fp32", 1)));
        assert_ne!(h(&base), h(&(8, "gpu-T4-trt7.1-fp32", 1)));
        assert_ne!(h(&base), h(&(7, "gpu-T4-trt7.1-fp16", 1)));
        assert_ne!(h(&base), h(&(7, "gpu-T4-trt7.1-fp32", 8)));
        // Overlapping tail words coincide here; the length keeps them apart.
        let h = |s: &str| BuildWordHasher.hash_one(s);
        assert_ne!(h("aaaa"), h("aaaaa"));
        assert_ne!(h("abcdefghX"), h("abcdefghbcdefghX"));
        assert_ne!(
            BuildWordHasher.hash_one(("ab", "c")),
            BuildWordHasher.hash_one(("a", "bc"))
        );
    }

    #[test]
    fn every_byte_of_every_length_reaches_the_hash() {
        // Flip each byte of strings of 1 to 24 bytes: the short, the
        // two-halves and the overlapping-tail reads must each cover it.
        let mut seen = HashSet::new();
        for n in 1..=24usize {
            let base = vec![b'a'; n];
            assert!(seen.insert(BuildWordHasher.hash_one(&base[..])));
            for i in 0..n {
                let mut flipped = base.clone();
                flipped[i] = b'b';
                assert!(
                    seen.insert(BuildWordHasher.hash_one(&flipped[..])),
                    "byte {i} of {n}"
                );
            }
        }
    }

    #[test]
    fn aligned_addresses_fill_every_low_and_high_bucket() {
        // 16-byte-aligned addresses × batch sizes: the words' low bits are
        // constant, the finish must not leave them so.
        let mut low = HashSet::new();
        let mut high = HashSet::new();
        for i in 0..512usize {
            for batch in [1u32, 8] {
                let h = BuildWordHasher.hash_one((0x5555_0000_0000 + 16 * i, batch));
                low.insert(h & 63);
                high.insert(h >> 58);
            }
        }
        assert_eq!((low.len(), high.len()), (64, 64));
    }
}
