//! A graph's node list, which memoises a digest of its contents.
//!
//! The digest is what `nnlqp_hash::graph_fingerprint` keys the embed cache
//! with: an order-dependent, four-lane stream hash of every node's op code,
//! attribute vector, output shape and input edges. A prediction of a graph
//! value seen before reads the memo instead of walking the nodes.

use crate::node::Node;
use crate::rng::mix64;
use std::cell::Cell;
use std::fmt;
use std::ops::Deref;
use std::sync::OnceLock;

/// The operator nodes of a [`crate::Graph`], in topological order, with a
/// memoised digest of them.
///
/// Invariant: a digest, once set, is the digest of the nodes held. Reads go
/// through `Deref<Target = [Node]>`. The only write path is
/// [`Nodes::make_mut`], which drops the digest before it hands out the
/// vector, and only [`Nodes::digest`] sets it, from the nodes themselves. A
/// clone carries the digest; equality, `Debug` and the codecs see the nodes
/// alone.
#[derive(Clone)]
pub struct Nodes {
    list: Vec<Node>,
    digest: OnceLock<u64>,
}

thread_local! {
    /// Digests computed on this thread. Const-initialised and without a
    /// destructor, so counting allocates nothing.
    static DIGESTS: Cell<u64> = const { Cell::new(0) };
}

/// Node digests computed on the calling thread so far: one for the first
/// [`Nodes::digest`] of a list, none for a memo read. Per thread, so tests
/// running side by side do not see each other's graph walks.
pub fn digests_computed() -> u64 {
    DIGESTS.with(Cell::get)
}

impl Nodes {
    /// The node vector, for editing. Drops the digest first, so the next
    /// [`Nodes::digest`] walks the edited nodes.
    pub fn make_mut(&mut self) -> &mut Vec<Node> {
        self.digest.take();
        &mut self.list
    }

    /// Order-dependent 64-bit digest of the node stream: node count, then
    /// per node the op code, attribute vector, output shape and input
    /// edges. Computed on first call and memoised; suitable only as an
    /// in-process cache key.
    pub fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            DIGESTS.with(|n| n.set(n.get() + 1));
            digest_of(&self.list)
        })
    }
}

impl From<Vec<Node>> for Nodes {
    fn from(list: Vec<Node>) -> Self {
        Nodes {
            list,
            digest: OnceLock::new(),
        }
    }
}

impl Deref for Nodes {
    type Target = [Node];

    #[inline]
    fn deref(&self) -> &[Node] {
        &self.list
    }
}

impl<'a> IntoIterator for &'a Nodes {
    type Item = &'a Node;
    type IntoIter = std::slice::Iter<'a, Node>;

    fn into_iter(self) -> Self::IntoIter {
        self.list.iter()
    }
}

impl PartialEq for Nodes {
    fn eq(&self, other: &Self) -> bool {
        self.list == other.list
    }
}

impl fmt::Debug for Nodes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.list.fmt(f)
    }
}

/// Distinct odd multipliers per lane (golden-ratio based, as in splitmix
/// and wyhash families).
const LANE_MUL: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0xD6E8_FEB8_6659_FD93,
];

/// Four-lane absorber. Records are packed two 32-bit values per word and
/// absorbed round-robin into four independent multiply-xor lanes, which
/// breaks the sequential multiply dependency chain that bounds a
/// single-lane stream hash; the lanes are folded through the splitmix
/// finalizer at the end. Each lane's `s = (s ^ w) * odd` step is
/// invertible, so no word is silently dropped, and collision odds stay at
/// the 64-bit birthday bound.
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

fn digest_of(nodes: &[Node]) -> u64 {
    let mut l = Lanes::new();
    l.put(nodes.len() as u64);
    for node in nodes {
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
        // Dimension pairs, an odd tail zero-padded: the rank in the op
        // word disambiguates.
        for pair in node.out_shape.dims().chunks(2) {
            let lo = pair.get(1).copied().unwrap_or(0) as u32;
            l.put_pair(pair[0] as u32, lo);
        }
        for pair in node.inputs.chunks(2) {
            let lo = pair.get(1).map(|id| id.0).unwrap_or(u32::MAX);
            l.put_pair(pair[0].0, lo);
        }
    }
    l.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, GraphBuilder, NodeId, Shape};

    fn tiny() -> Graph {
        let mut b = GraphBuilder::new("tiny", Shape::nchw(1, 3, 8, 8));
        let c = b.conv(None, 8, 3, 1, 1, 1).unwrap();
        let r = b.relu(c).unwrap();
        let c2 = b.conv(Some(r), 8, 3, 1, 1, 1).unwrap();
        b.add(r, c2).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn a_clone_carries_the_digest_and_compares_equal() {
        let g = tiny();
        let digest = g.nodes.digest();
        let walks = digests_computed();
        let copy = g.clone();
        assert_eq!(copy, g);
        assert_eq!(copy.nodes.digest(), digest);
        assert_eq!(digests_computed(), walks, "the clone read the memo");
        // A list built afresh from the same nodes walks them once.
        assert_eq!(Nodes::from(g.nodes.to_vec()).digest(), digest);
        assert_eq!(digests_computed(), walks + 1);
    }

    #[test]
    fn every_edit_through_make_mut_moves_the_digest_to_the_edited_nodes() {
        type Edit = fn(&mut Vec<Node>);
        let edits: [(&str, Edit); 5] = [
            ("attribute", |n| n[2].attrs.out_channels = 16),
            ("input edge", |n| {
                n[3].inputs = vec![NodeId(0), NodeId(2)].into();
            }),
            ("out shape", |n| n[1].out_shape = Shape::nchw(1, 8, 4, 4)),
            ("push", |n| n.push(n[1].clone())),
            ("truncate", |n| n.truncate(2)),
        ];
        for (what, edit) in edits {
            let mut g = tiny();
            let before = g.nodes.digest();
            edit(g.nodes.make_mut());
            let after = g.nodes.digest();
            assert_ne!(after, before, "{what}");
            assert_eq!(after, Nodes::from(g.nodes.to_vec()).digest(), "{what}");
        }
    }

    #[test]
    fn debug_and_equality_see_the_nodes_alone() {
        let g = tiny();
        let fresh = format!("{:?}", g.nodes);
        g.nodes.digest();
        assert_eq!(format!("{:?}", g.nodes), fresh);
        assert_eq!(fresh, format!("{:?}", g.nodes.to_vec()));
        assert_eq!(g, tiny());
    }
}
