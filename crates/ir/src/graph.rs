//! The model graph: a DAG of operator nodes kept in topological order.

use crate::error::{IrError, IrResult};
use crate::infer;
use crate::node::{Node, NodeId};
use crate::nodes::Nodes;
use crate::shape::Shape;

/// A neural network model, as the paper treats ONNX files: a directed
/// acyclic graph of operator nodes plus the shape of the single graph input.
///
/// Invariant: `nodes` is a topological order — every node's inputs have
/// smaller indices. [`crate::GraphBuilder`] maintains this by construction
/// and [`crate::validate::validate`] checks it for deserialized graphs.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    /// Human-readable model name (e.g. `"resnet18-v0042"`).
    pub name: String,
    /// Shape of the graph input tensor (NCHW).
    pub input_shape: Shape,
    /// Operator nodes in topological order; edited through
    /// [`Nodes::make_mut`].
    pub nodes: Nodes,
}

impl Graph {
    /// Number of operator nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Iterate `(NodeId, &Node)` in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Successor lists: `succ[i]` holds the ids of nodes consuming node `i`.
    pub fn successors(&self) -> Vec<Vec<NodeId>> {
        let mut succ = vec![Vec::new(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            for &inp in &n.inputs {
                succ[inp.index()].push(NodeId(i as u32));
            }
        }
        succ
    }

    /// Nodes with no predecessors (they read the graph input).
    pub fn sources(&self) -> Vec<NodeId> {
        self.iter()
            .filter(|(_, n)| n.inputs.is_empty())
            .map(|(id, _)| id)
            .collect()
    }

    /// Nodes whose output nobody consumes (the graph outputs).
    pub fn sinks(&self) -> Vec<NodeId> {
        let mut consumed = vec![false; self.nodes.len()];
        for n in &self.nodes {
            for &inp in &n.inputs {
                consumed[inp.index()] = true;
            }
        }
        consumed
            .iter()
            .enumerate()
            .filter(|(_, &c)| !c)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Number of edges in the DAG.
    pub fn num_edges(&self) -> usize {
        self.nodes.iter().map(|n| n.inputs.len()).sum()
    }

    /// Shape of the (single) model output — the out shape of the last sink.
    pub fn output_shape(&self) -> IrResult<&Shape> {
        let sinks = self.sinks();
        sinks
            .last()
            .map(|id| &self.node(*id).out_shape)
            .ok_or(IrError::Empty)
    }

    /// Produce an identical graph with a different batch size; all node
    /// output shapes are re-inferred.
    pub fn rebatch(&self, batch: usize) -> IrResult<Graph> {
        let input_shape = self.input_shape.with_batch(batch);
        let mut nodes: Vec<Node> = Vec::with_capacity(self.nodes.len());
        for (i, n) in self.nodes.iter().enumerate() {
            let out_shape = infer::infer_shape(
                i as u32,
                n.op,
                &n.attrs,
                &n.inputs,
                |id| nodes[id.index()].out_shape,
                &input_shape,
            )?;
            nodes.push(Node {
                op: n.op,
                attrs: n.attrs.clone(),
                inputs: n.inputs.clone(),
                out_shape,
            });
        }
        Ok(Graph {
            name: self.name.clone(),
            input_shape,
            nodes: nodes.into(),
        })
    }

    /// Maximum depth (longest path, in nodes) of the DAG.
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.nodes.len()];
        let mut max = 0;
        for (i, n) in self.nodes.iter().enumerate() {
            let d = n
                .inputs
                .iter()
                .map(|id| depth[id.index()])
                .max()
                .unwrap_or(0)
                + 1;
            depth[i] = d;
            max = max.max(d);
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn tiny() -> Graph {
        let mut b = GraphBuilder::new("tiny", Shape::nchw(1, 3, 8, 8));
        let c = b.conv(None, 8, 3, 1, 1, 1).unwrap();
        let r = b.relu(c).unwrap();
        let c2 = b.conv(Some(r), 8, 3, 1, 1, 1).unwrap();
        let a = b.add(r, c2).unwrap();
        b.finish().unwrap();
        let mut b2 = GraphBuilder::new("tiny", Shape::nchw(1, 3, 8, 8));
        let c = b2.conv(None, 8, 3, 1, 1, 1).unwrap();
        let r = b2.relu(c).unwrap();
        let c2 = b2.conv(Some(r), 8, 3, 1, 1, 1).unwrap();
        let _a2 = b2.add(r, c2).unwrap();
        let _ = a;
        b2.finish().unwrap()
    }

    #[test]
    fn topology_queries() {
        let g = tiny();
        assert_eq!(g.len(), 4);
        assert_eq!(g.sources(), vec![NodeId(0)]);
        assert_eq!(g.sinks(), vec![NodeId(3)]);
        assert_eq!(g.num_edges(), 4); // conv->relu, relu->conv2, relu->add, conv2->add
        assert_eq!(g.depth(), 4);
    }

    #[test]
    fn successors_consistent_with_inputs() {
        let g = tiny();
        let succ = g.successors();
        // relu (node 1) feeds conv2 and add.
        assert_eq!(succ[1], vec![NodeId(2), NodeId(3)]);
        assert!(succ[3].is_empty());
    }

    #[test]
    fn rebatch_scales_all_shapes() {
        let g = tiny();
        let g8 = g.rebatch(8).unwrap();
        assert_eq!(g8.input_shape.batch(), 8);
        for n in &g8.nodes {
            assert_eq!(n.out_shape.batch(), 8);
        }
        // Other dims untouched.
        assert_eq!(g8.nodes[0].out_shape.channels(), 8);
    }

    #[test]
    fn output_shape_is_last_sink() {
        let g = tiny();
        assert_eq!(*g.output_shape().unwrap(), Shape::nchw(1, 8, 8, 8));
    }
}
