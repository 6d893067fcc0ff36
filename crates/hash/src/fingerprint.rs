//! Fast in-process graph fingerprint for cache keys.
//!
//! [`graph_fingerprint`] is NOT the paper's Merkle graph hash and is never
//! persisted: the database / retrieval contract stays on
//! [`crate::graph_hash`]. This exists for the embedding cache on the query
//! hot path, where the key is recomputed for every single prediction and
//! the Merkle walk (successor CSR, per-node sorts, one hasher restart per
//! node) costs more than the rest of feature extraction combined.
//!
//! Differences from the Merkle hash, all acceptable for an in-process key:
//!
//! * **Order-dependent.** Nodes are absorbed in stored (topological
//!   insertion) order, so two isomorphic graphs built with branches in a
//!   different order get distinct fingerprints. For a cache that is only a
//!   spurious miss, never a wrong hit.
//! * **Word-packed, four-lane.** Records are packed two 32-bit values per
//!   word and absorbed round-robin into four independent
//!   multiply-xor lanes, breaking the sequential multiply dependency chain
//!   that bounds a single-lane stream hash. Lanes are folded through the
//!   splitmix finalizer at the end.
//!
//! Collision odds stay at the 64-bit birthday bound of the stream hashes;
//! each lane's `s = (s ^ w) * odd` step is invertible, so no word is
//! silently dropped.

use crate::fnv::mix64;
use nnlqp_ir::Graph;

/// Distinct odd multipliers per lane (golden-ratio based, as in splitmix
/// and wyhash families).
const LANE_MUL: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0xD6E8_FEB8_6659_FD93,
];

/// Four-lane absorber; see module docs.
struct Lanes {
    s: [u64; 4],
    i: usize,
}

impl Lanes {
    fn new() -> Lanes {
        Lanes {
            s: [
                0x243F_6A88_85A3_08D3,
                0x1319_8A2E_0370_7344,
                0xA409_3822_299F_31D0,
                0x082E_FA98_EC4E_6C89,
            ],
            i: 0,
        }
    }

    #[inline]
    fn put(&mut self, w: u64) {
        let k = self.i & 3;
        self.s[k] = (self.s[k] ^ w).wrapping_mul(LANE_MUL[k]);
        self.i += 1;
    }

    /// Pack two 32-bit halves into one absorbed word.
    #[inline]
    fn put_pair(&mut self, hi: u32, lo: u32) {
        self.put(((hi as u64) << 32) | lo as u64);
    }

    fn finish(self) -> u64 {
        let mut h = mix64(self.s[0] ^ self.i as u64);
        h = mix64(h ^ self.s[1]);
        h = mix64(h ^ self.s[2]);
        mix64(h ^ self.s[3])
    }
}

/// Absorb a shape as `rank` then dimension pairs (odd tail zero-padded;
/// the rank word disambiguates).
#[inline]
fn put_shape(l: &mut Lanes, dims: &[usize]) {
    for pair in dims.chunks(2) {
        let hi = pair[0] as u32;
        let lo = pair.get(1).copied().unwrap_or(0) as u32;
        l.put_pair(hi, lo);
    }
}

/// Order-dependent fingerprint of a graph's stored representation:
/// input shape, then per node the op code, attribute vector, output shape
/// and input edges. Suitable only as an in-process cache key.
pub fn graph_fingerprint(g: &Graph) -> u64 {
    let mut l = Lanes::new();
    l.put(g.input_shape.rank() as u64);
    put_shape(&mut l, g.input_shape.dims());
    l.put(g.len() as u64);
    for (_, node) in g.iter() {
        // op code | input count | rank, all small, in one word.
        l.put(
            ((node.op.code() as u64) << 32)
                | ((node.inputs.len() as u64) << 16)
                | node.out_shape.rank() as u64,
        );
        let attrs = node.attrs.to_vec();
        for pair in attrs.chunks(2) {
            let hi = pair[0].to_bits();
            let lo = pair.get(1).map(|v| v.to_bits()).unwrap_or(0);
            l.put_pair(hi, lo);
        }
        put_shape(&mut l, node.out_shape.dims());
        for pair in node.inputs.chunks(2) {
            let hi = pair[0].0;
            let lo = pair.get(1).map(|id| id.0).unwrap_or(u32::MAX);
            l.put_pair(hi, lo);
        }
    }
    l.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_ir::{GraphBuilder, Shape};

    fn chain(channels: u32, res: u32) -> Graph {
        let mut b = GraphBuilder::new("c", Shape::nchw(1, 3, res as usize, res as usize));
        let c = b.conv(None, channels, 3, 1, 1, 1).unwrap();
        let r = b.relu(c).unwrap();
        let c2 = b.conv(Some(r), channels, 3, 1, 1, 1).unwrap();
        b.add(r, c2).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            graph_fingerprint(&chain(8, 16)),
            graph_fingerprint(&chain(8, 16))
        );
    }

    #[test]
    fn sensitive_to_attrs_and_input_shape() {
        let base = graph_fingerprint(&chain(8, 16));
        assert_ne!(base, graph_fingerprint(&chain(16, 16)), "channel change");
        assert_ne!(base, graph_fingerprint(&chain(8, 32)), "resolution change");
    }

    #[test]
    fn sensitive_to_topology() {
        let mut b = GraphBuilder::new("t", Shape::nchw(1, 3, 16, 16));
        let c = b.conv(None, 8, 3, 1, 1, 1).unwrap();
        let r = b.relu(c).unwrap();
        let c2 = b.conv(Some(r), 8, 3, 1, 1, 1).unwrap();
        // add(c, c2) instead of add(r, c2): same node set, one edge moved.
        b.add(c, c2).unwrap();
        let rewired = b.finish().unwrap();
        assert_ne!(
            graph_fingerprint(&chain(8, 16)),
            graph_fingerprint(&rewired)
        );
    }

    #[test]
    fn distinct_from_merkle_hash() {
        let g = chain(8, 16);
        // Not a hard requirement, but catches accidentally delegating to
        // the persisted hash.
        assert_ne!(graph_fingerprint(&g), crate::graph_hash(&g));
    }
}
