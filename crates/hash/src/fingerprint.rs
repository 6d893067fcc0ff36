//! Fast in-process graph fingerprint for cache keys.
//!
//! [`graph_fingerprint`] is NOT the paper's Merkle graph hash and is never
//! persisted: the database / retrieval contract stays on
//! [`crate::graph_hash()`]. This exists for the embedding cache on the
//! prediction path, where the key is asked for on every single prediction
//! and the Merkle walk (successor CSR, per-node sorts, one hasher restart
//! per node) costs more than the rest of feature extraction combined.
//!
//! **Memoised in the graph.** The node stream is digested by
//! [`nnlqp_ir::Nodes::digest`]: a four-lane packed stream hash, computed on
//! a node list's first fingerprint and memoised in the list, which every
//! clone carries. The only way to edit the nodes,
//! [`nnlqp_ir::Nodes::make_mut`], drops the memo, so the next fingerprint
//! walks the edited nodes; nothing else can set it. The `pub` input shape
//! is folded into the digest on every call, so replacing it needs no
//! invalidation. A graph value predicted before therefore costs a memo read
//! and one short word hash.
//!
//! Differences from the Merkle hash, all acceptable for an in-process key:
//!
//! * **Order-dependent.** Nodes are absorbed in stored (topological
//!   insertion) order, so two isomorphic graphs built with branches in a
//!   different order get distinct fingerprints. For a cache that is only a
//!   spurious miss, never a wrong hit.
//! * **Values are not pinned.** They are in-process keys, never stored;
//!   they moved when the node digest moved into `nnlqp-ir` to be memoised.
//!
//! Collision odds stay at the 64-bit birthday bound of the stream hashes:
//! every absorbing step, in the lanes and in the fold, is invertible, so no
//! word is silently dropped.

use crate::word::BuildWordHasher;
use nnlqp_ir::Graph;
use std::hash::BuildHasher;

/// Order-dependent fingerprint of a graph's stored representation: the
/// memoised digest of its nodes (op code, attribute vector, output shape
/// and input edges per node) with the input shape folded in. Suitable only
/// as an in-process cache key.
pub fn graph_fingerprint(g: &Graph) -> u64 {
    BuildWordHasher.hash_one((g.nodes.digest(), g.input_shape))
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
    fn replacing_the_input_shape_of_a_memoised_graph_moves_the_fingerprint() {
        let mut g = chain(8, 16);
        let before = graph_fingerprint(&g);
        g.input_shape = Shape::nchw(2, 3, 16, 16);
        assert_ne!(graph_fingerprint(&g), before);
        assert_eq!(graph_fingerprint(&g), graph_fingerprint(&g.clone()));
        g.input_shape = Shape::nchw(1, 3, 16, 16);
        assert_eq!(graph_fingerprint(&g), before);
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
