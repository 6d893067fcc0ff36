//! The 64-bit streaming hash behind the graph hash: FNV-1a over
//! little-endian words. `tests/hash_pinning.rs` pins its values.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
// A zero byte only multiplies (`(s ^ 0) * P == s * P`), so a run of k zero
// bytes is one multiplication by `P^k`.
const FNV_PRIME_POW4: u64 = FNV_PRIME.wrapping_pow(4);
const FNV_PRIME_POW8: u64 = FNV_PRIME.wrapping_pow(8);

/// Incremental FNV-1a hasher over little-endian words.
#[derive(Debug, Clone)]
pub struct StreamHasher {
    state: u64,
}

/// The splitmix64 finalizer: `WordHasher` avalanches its state with it.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl StreamHasher {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StreamHasher { state: FNV_OFFSET }
    }

    /// Absorb one 64-bit word: byte-at-a-time FNV-1a over its eight
    /// little-endian bytes, with the zero high bytes folded. Most words
    /// hashed here are small integers (op codes, ranks, counts) or `f32`
    /// bit patterns and dims (below 2^32). Two fixed thresholds, not a
    /// per-word trip count, so each arm is straight-line.
    #[inline]
    pub fn write_u64(&mut self, w: u64) {
        if w < 1 << 8 {
            self.state = (self.state ^ w).wrapping_mul(FNV_PRIME_POW8);
        } else if w < 1 << 32 {
            for b in (w as u32).to_le_bytes() {
                self.state = (self.state ^ b as u64).wrapping_mul(FNV_PRIME);
            }
            self.state = self.state.wrapping_mul(FNV_PRIME_POW4);
        } else {
            for b in w.to_le_bytes() {
                self.state = (self.state ^ b as u64).wrapping_mul(FNV_PRIME);
            }
        }
    }

    /// Absorb an `f32` by its bit pattern (NaN-free inputs by construction).
    #[inline]
    pub fn write_f32(&mut self, x: f32) {
        self.write_u64(x.to_bits() as u64);
    }

    /// Absorb a slice of words.
    pub fn write_all(&mut self, ws: &[u64]) {
        for &w in ws {
            self.write_u64(w);
        }
    }

    /// Final 64-bit digest.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for StreamHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot hash of a word sequence.
pub fn hash_words(ws: &[u64]) -> u64 {
    let mut h = StreamHasher::new();
    h.write_all(ws);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_ir::Rng64;

    /// FNV-1a as specified, one byte at a time: the reference the folded
    /// `write_u64` must equal on every word.
    fn write_u64_bytewise(state: u64, w: u64) -> u64 {
        w.to_le_bytes()
            .iter()
            .fold(state, |s, &b| (s ^ b as u64).wrapping_mul(FNV_PRIME))
    }

    #[test]
    fn folded_fnv_equals_the_bytewise_reference() {
        // The fold's two thresholds from both sides, every `f32` an
        // attribute vector holds in the corpus (kernel, stride, pad,
        // dilation, groups, channels up to 4096, axis, and the 6.0 / 0.0
        // clip range: all integers as f32), then random words of every
        // width. Chained through one state, so a wrong word also shows in
        // everything hashed after it.
        let mut words: Vec<u64> = vec![
            0,
            1,
            0xff,
            0x100,
            0xffff,
            0x1_0000,
            u32::MAX as u64,
            1 << 32,
            (1 << 32) + 1,
            0xff << 56,
            u64::MAX,
        ];
        words.extend((0..=8192u32).map(|k| (k as f32).to_bits() as u64));
        words.extend([0.5f32, -1.0, 6.0, f32::MAX].map(|x| x.to_bits() as u64));
        let mut r = Rng64::new(0xF01D);
        for _ in 0..10_000 {
            let w = r.next_u64();
            // Uniform words are almost all above 2^32; shift a share of
            // them down into the two folded ranges.
            words.push(w >> (8 * r.below(8)));
        }
        let mut folded = StreamHasher::new();
        let mut reference = FNV_OFFSET;
        for (i, &w) in words.iter().enumerate() {
            folded.write_u64(w);
            reference = write_u64_bytewise(reference, w);
            assert_eq!(folded.finish(), reference, "word {i} = {w:#x}");
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_words(&[1, 2, 3]), hash_words(&[1, 2, 3]));
    }

    #[test]
    fn order_sensitive() {
        assert_ne!(hash_words(&[1, 2]), hash_words(&[2, 1]));
    }

    #[test]
    fn no_trivial_collisions_in_small_domain() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for a in 0u64..64 {
            for b in 0u64..64 {
                assert!(seen.insert(hash_words(&[a, b])), "collision {a},{b}");
            }
        }
    }

    #[test]
    fn f32_bit_pattern_hashing() {
        let mut a = StreamHasher::new();
        a.write_f32(1.5);
        let mut b = StreamHasher::new();
        b.write_f32(1.5000001);
        assert_ne!(a.finish(), b.finish());
    }
}
