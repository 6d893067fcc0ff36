//! Structural validation of deserialized or hand-built graphs.
//!
//! The one place a graph's structural rules are written: inputs precede
//! their users, each op gets an input count it accepts, and every stored
//! output shape is the inferred one. [`walk`] reports every breach in
//! node order; [`validate`] stops at the first, and `nnlqp-analyze` words
//! them all as its `NNL001`–`NNL004` diagnostics.

use crate::error::{IrError, IrResult};
use crate::graph::Graph;
use crate::infer::infer_shape;
use crate::node::NodeId;
use crate::op::OpType;
use crate::shape::Shape;
use std::ops::ControlFlow;

/// One breach of a structural rule: the node and the rule it breaks.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The offending node (0 for [`Rule::Empty`]).
    pub node: u32,
    /// The rule it breaks.
    pub rule: Rule,
}

/// The rules a graph can break, each with what it takes to word it.
#[derive(Debug, Clone, PartialEq)]
pub enum Rule {
    /// The graph has no nodes.
    Empty,
    /// The input names no node of the graph.
    Orphan(u32),
    /// The input names a node that does not precede this one.
    NotEarlier(u32),
    /// `got` inputs where `op` takes `min..=max`.
    Arity {
        op: OpType,
        min: usize,
        max: usize,
        got: usize,
    },
    /// The stored output shape is not the inferred one.
    Shape { stored: Shape, inferred: Shape },
    /// Shape inference itself failed.
    Inference(IrError),
}

impl From<Violation> for IrError {
    fn from(Violation { node, rule }: Violation) -> IrError {
        match rule {
            Rule::Empty => IrError::Empty,
            Rule::Orphan(input) | Rule::NotEarlier(input) => IrError::BadTopology { node, input },
            Rule::Arity { op, got, .. } => IrError::Arity {
                node,
                op: op.name(),
                expected: "per-op arity",
                got,
            },
            Rule::Shape { stored, inferred } => IrError::ShapeMismatch {
                node,
                detail: format!("stored {stored} != inferred {inferred}"),
            },
            Rule::Inference(error) => error,
        }
    }
}

/// Hand every violation in `g` to `visit`, in order: an empty graph is
/// one [`Rule::Empty`]; otherwise, per node, each bad input, then its
/// arity, then its shape, which is not inferred over broken inputs or
/// arity. Stops when `visit` breaks; allocates nothing on a valid graph.
pub fn walk<B>(g: &Graph, mut visit: impl FnMut(Violation) -> ControlFlow<B>) -> ControlFlow<B> {
    if g.nodes.is_empty() {
        let rule = Rule::Empty;
        return visit(Violation { node: 0, rule });
    }
    for (i, n) in g.nodes.iter().enumerate() {
        let node = i as u32;
        let mut breach = |rule| visit(Violation { node, rule });
        let mut inputs_ok = true;
        for &inp in &n.inputs {
            let rule = if inp.index() >= g.len() {
                Rule::Orphan(inp.0)
            } else if inp.index() >= i {
                Rule::NotEarlier(inp.0)
            } else {
                continue;
            };
            inputs_ok = false;
            breach(rule)?;
        }
        let (min, max) = n.op.arity();
        let got = n.inputs.len();
        // Zero inputs means the node reads the graph input — legal exactly
        // when the op's minimum arity is zero; otherwise at least one and
        // within the op's range.
        let arity_ok = if got == 0 {
            min == 0
        } else {
            got >= min.max(1) && got <= max
        };
        if !arity_ok {
            let op = n.op;
            breach(Rule::Arity { op, min, max, got })?;
        } else if inputs_ok {
            let shape_of = |x: NodeId| g.nodes[x.index()].out_shape;
            match infer_shape(node, n.op, &n.attrs, &n.inputs, shape_of, &g.input_shape) {
                Ok(inferred) if inferred == n.out_shape => {}
                Ok(inferred) => breach(Rule::Shape {
                    stored: n.out_shape,
                    inferred,
                })?,
                Err(error) => breach(Rule::Inference(error))?,
            }
        }
    }
    ControlFlow::Continue(())
}

/// Check the graph invariants, failing at the first [`Violation`]:
///
/// 1. non-empty,
/// 2. the node vector is a topological order (all inputs precede users),
/// 3. input arity matches the operator,
/// 4. every stored output shape matches re-run shape inference.
pub fn validate(g: &Graph) -> IrResult<()> {
    match walk(g, ControlFlow::Break) {
        ControlFlow::Break(v) => Err(v.into()),
        ControlFlow::Continue(()) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Attrs;
    use crate::builder::GraphBuilder;
    use crate::node::{Node, NodeId, NodeIds};
    use crate::op::OpType;
    use crate::shape::Shape;

    fn ok_graph() -> Graph {
        let mut b = GraphBuilder::new("g", Shape::nchw(1, 3, 8, 8));
        let c = b.conv(None, 8, 3, 1, 1, 1).unwrap();
        b.relu(c).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn valid_graph_passes() {
        assert!(validate(&ok_graph()).is_ok());
    }

    #[test]
    fn empty_graph_rejected() {
        let g = Graph {
            name: "e".into(),
            input_shape: Shape::nchw(1, 3, 8, 8),
            nodes: Vec::new().into(),
        };
        assert_eq!(validate(&g), Err(IrError::Empty));
    }

    #[test]
    fn forward_edge_rejected() {
        let mut g = ok_graph();
        g.nodes.make_mut()[0].inputs = vec![NodeId(1)].into();
        assert!(matches!(validate(&g), Err(IrError::BadTopology { .. })));
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = ok_graph();
        g.nodes.make_mut()[1].inputs = vec![NodeId(1)].into();
        assert!(matches!(validate(&g), Err(IrError::BadTopology { .. })));
    }

    #[test]
    fn tampered_shape_rejected() {
        let mut g = ok_graph();
        g.nodes.make_mut()[1].out_shape = Shape::nchw(1, 99, 8, 8);
        assert!(matches!(validate(&g), Err(IrError::ShapeMismatch { .. })));
    }

    #[test]
    fn bad_arity_rejected() {
        let mut g = ok_graph();
        g.nodes.make_mut().push(Node {
            op: OpType::Add,
            attrs: Attrs::default(),
            inputs: vec![NodeId(1)].into(),
            out_shape: Shape::nchw(1, 8, 8, 8),
        });
        assert!(validate(&g).is_err());
    }

    #[test]
    fn zero_input_unary_reads_graph_input() {
        // A 0-input unary op is legal: it consumes the graph input.
        let g = Graph {
            name: "u".into(),
            input_shape: Shape::nchw(1, 3, 8, 8),
            nodes: vec![Node {
                op: OpType::Relu,
                attrs: Attrs::default(),
                inputs: NodeIds::new(),
                out_shape: Shape::nchw(1, 3, 8, 8),
            }]
            .into(),
        };
        assert!(validate(&g).is_ok());
    }

    #[test]
    fn zero_input_binary_rejected() {
        // Binary ops (min arity 2) may not fall back to the graph input.
        let g = Graph {
            name: "b".into(),
            input_shape: Shape::nchw(1, 3, 8, 8),
            nodes: vec![Node {
                op: OpType::Add,
                attrs: Attrs::default(),
                inputs: NodeIds::new(),
                out_shape: Shape::nchw(1, 3, 8, 8),
            }]
            .into(),
        };
        assert!(matches!(
            validate(&g),
            Err(IrError::Arity {
                op: "Add",
                got: 0,
                ..
            })
        ));
    }

    #[test]
    fn unary_with_one_explicit_input_still_valid() {
        // The other leg of the 0-or-1 unary rule: one explicit input.
        assert!(validate(&ok_graph()).is_ok());
        let mut g = ok_graph();
        // Two inputs to a unary op is too many.
        g.nodes.make_mut()[1].inputs = vec![NodeId(0), NodeId(0)].into();
        assert!(matches!(validate(&g), Err(IrError::Arity { got: 2, .. })));
    }
}
