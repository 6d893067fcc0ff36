//! Graph nodes.

use crate::attrs::Attrs;
use crate::op::OpType;
use crate::shape::Shape;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Index of a node within its graph's node vector.
///
/// Because graphs keep their nodes in topological order, `NodeId` ordering
/// is also a (one of possibly many) topological ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// As a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Ids a [`NodeIds`] holds before it moves to the heap. Every operator but
/// `Concat` takes at most two inputs and a fused kernel has at most three
/// members; four covers the inception concats too.
const INLINE_IDS: usize = 4;

/// A short list of node ids — a node's inputs, a kernel's members — stored
/// inline up to four entries, so cloning or building a typical
/// graph allocates nothing per node. Longer lists (a wide `Concat`) spill
/// to a `Vec`. Reads go through `Deref<Target = [NodeId]>`.
#[derive(Clone)]
pub struct NodeIds(Repr);

#[derive(Clone)]
enum Repr {
    /// `ids[len..]` is unused.
    Inline {
        len: u8,
        ids: [NodeId; INLINE_IDS],
    },
    Heap(Vec<NodeId>),
}

impl NodeIds {
    /// The empty list.
    pub const fn new() -> Self {
        NodeIds(Repr::Inline {
            len: 0,
            ids: [NodeId(0); INLINE_IDS],
        })
    }

    /// Append one id, moving to the heap when the inline storage is full.
    pub fn push(&mut self, id: NodeId) {
        match &mut self.0 {
            Repr::Inline { len, ids } if (*len as usize) < INLINE_IDS => {
                ids[*len as usize] = id;
                *len += 1;
            }
            Repr::Inline { ids, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE_IDS);
                v.extend_from_slice(ids);
                v.push(id);
                self.0 = Repr::Heap(v);
            }
            Repr::Heap(v) => v.push(id),
        }
    }
}

impl Default for NodeIds {
    fn default() -> Self {
        NodeIds::new()
    }
}

impl Deref for NodeIds {
    type Target = [NodeId];

    #[inline]
    fn deref(&self) -> &[NodeId] {
        match &self.0 {
            Repr::Inline { len, ids } => &ids[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl DerefMut for NodeIds {
    #[inline]
    fn deref_mut(&mut self) -> &mut [NodeId] {
        match &mut self.0 {
            Repr::Inline { len, ids } => &mut ids[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl From<&[NodeId]> for NodeIds {
    fn from(ids: &[NodeId]) -> Self {
        if ids.len() <= INLINE_IDS {
            let mut inline = [NodeId(0); INLINE_IDS];
            inline[..ids.len()].copy_from_slice(ids);
            NodeIds(Repr::Inline {
                len: ids.len() as u8,
                ids: inline,
            })
        } else {
            NodeIds(Repr::Heap(ids.to_vec()))
        }
    }
}

impl From<Vec<NodeId>> for NodeIds {
    fn from(ids: Vec<NodeId>) -> Self {
        if ids.len() <= INLINE_IDS {
            NodeIds::from(ids.as_slice())
        } else {
            NodeIds(Repr::Heap(ids))
        }
    }
}

impl<'a> IntoIterator for &'a NodeIds {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Equality is by contents: an inline list equals a spilled one holding
/// the same ids.
impl PartialEq for NodeIds {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for NodeIds {}

impl fmt::Debug for NodeIds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One operator node of a model DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Operator type.
    pub op: OpType,
    /// Operator attributes.
    pub attrs: Attrs,
    /// Predecessor nodes, in argument order. Empty means the node reads the
    /// graph input tensor.
    pub inputs: NodeIds,
    /// Inferred output shape.
    pub out_shape: Shape,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_ordering_matches_index() {
        assert!(NodeId(2) < NodeId(5));
        assert_eq!(NodeId(7).index(), 7);
        assert_eq!(NodeId(3).to_string(), "n3");
    }

    fn ids(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn node_ids_read_like_a_slice_inline_and_spilled() {
        for n in [0, 1, 4, 5, 9] {
            let want = ids(n);
            let from_slice = NodeIds::from(want.as_slice());
            let from_vec = NodeIds::from(want.clone());
            let mut pushed = NodeIds::new();
            for &id in &want {
                pushed.push(id);
            }
            for list in [&from_slice, &from_vec, &pushed] {
                assert_eq!(**list, want[..]);
                assert_eq!(list.len(), n as usize);
                assert_eq!(list.into_iter().copied().collect::<Vec<_>>(), want);
            }
            assert_eq!(format!("{from_slice:?}"), format!("{want:?}"));
        }
    }

    #[test]
    fn node_ids_equality_is_by_contents_across_representations() {
        // Five pushes spill; a list built from four ids stays inline. Grow
        // the inline one through the spill and they must still compare by
        // what they hold.
        let mut grown = NodeIds::from(ids(4));
        grown.push(NodeId(4));
        assert_eq!(grown, NodeIds::from(ids(5)));
        assert_ne!(grown, NodeIds::from(ids(4)));
        assert_ne!(
            NodeIds::from(ids(2)),
            NodeIds::from(vec![NodeId(0), NodeId(7)])
        );
        assert_eq!(NodeIds::new(), NodeIds::default());
    }

    #[test]
    fn node_ids_are_writable_in_place() {
        let mut list = NodeIds::from(ids(3));
        list[1] = NodeId(42);
        assert_eq!(*list, [NodeId(0), NodeId(42), NodeId(2)]);
    }
}
