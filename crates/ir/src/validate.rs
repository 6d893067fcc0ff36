//! Structural validation of deserialized or hand-built graphs.

use crate::error::{IrError, IrResult};
use crate::graph::Graph;
use crate::infer::infer_shape;

/// Check the graph invariants:
///
/// 1. non-empty,
/// 2. the node vector is a topological order (all inputs precede users),
/// 3. input arity matches the operator,
/// 4. every stored output shape matches re-run shape inference.
pub fn validate(g: &Graph) -> IrResult<()> {
    if g.nodes.is_empty() {
        return Err(IrError::Empty);
    }
    for (i, n) in g.nodes.iter().enumerate() {
        let id = i as u32;
        for &inp in &n.inputs {
            if inp.index() >= i {
                return Err(IrError::BadTopology {
                    node: id,
                    input: inp.0,
                });
            }
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
            return Err(IrError::Arity {
                node: id,
                op: n.op.name(),
                expected: "per-op arity",
                got,
            });
        }
        let expect = infer_shape(
            id,
            n.op,
            &n.attrs,
            &n.inputs,
            |x| g.nodes[x.index()].out_shape,
            &g.input_shape,
        )?;
        if expect != n.out_shape {
            return Err(IrError::ShapeMismatch {
                node: id,
                detail: format!("stored {} != inferred {}", n.out_shape, expect),
            });
        }
    }
    Ok(())
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
