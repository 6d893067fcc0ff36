//! Fluent construction of model graphs.
//!
//! The builder appends nodes one at a time, inferring each output shape
//! immediately, so the resulting node vector is a topological order by
//! construction and shape errors surface at the faulty layer.

use crate::attrs::Attrs;
use crate::error::{IrError, IrResult};
use crate::graph::Graph;
use crate::infer::infer_shape;
use crate::node::{Node, NodeId};
use crate::op::OpType;
use crate::shape::Shape;

/// Incrementally builds a [`Graph`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    name: String,
    input_shape: Shape,
    nodes: Vec<Node>,
}

impl GraphBuilder {
    /// Start a new graph with the given input tensor shape.
    pub fn new(name: impl Into<String>, input_shape: Shape) -> Self {
        GraphBuilder {
            name: name.into(),
            input_shape,
            nodes: Vec::new(),
        }
    }

    /// Shape produced by an already-added node.
    pub fn out_shape(&self, id: NodeId) -> &Shape {
        &self.nodes[id.index()].out_shape
    }

    /// Channels produced by an already-added node.
    pub fn channels(&self, id: NodeId) -> usize {
        self.out_shape(id).channels()
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes have been added yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Append an arbitrary node. All convenience methods funnel here.
    pub fn push(&mut self, op: OpType, attrs: Attrs, inputs: &[NodeId]) -> IrResult<NodeId> {
        let id = NodeId(self.nodes.len() as u32);
        for &inp in inputs {
            if inp.index() >= self.nodes.len() {
                return Err(IrError::BadTopology {
                    node: id.0,
                    input: inp.0,
                });
            }
        }
        let out_shape = infer_shape(
            id.0,
            op,
            &attrs,
            inputs,
            |i| self.nodes[i.index()].out_shape,
            &self.input_shape,
        )?;
        self.nodes.push(Node {
            op,
            attrs,
            inputs: inputs.into(),
            out_shape,
        });
        Ok(id)
    }

    /// Convolution. `input == None` reads the graph input tensor.
    pub fn conv(
        &mut self,
        input: Option<NodeId>,
        out_channels: u32,
        kernel: u32,
        stride: u32,
        pad: u32,
        groups: u32,
    ) -> IrResult<NodeId> {
        let attrs = Attrs::conv(out_channels, kernel, stride, pad, groups);
        match input {
            Some(i) => self.push(OpType::Conv, attrs, &[i]),
            None => self.push(OpType::Conv, attrs, &[]),
        }
    }

    /// Depthwise convolution: groups == channels of `input`.
    pub fn dwconv(
        &mut self,
        input: NodeId,
        kernel: u32,
        stride: u32,
        pad: u32,
    ) -> IrResult<NodeId> {
        let c = self.channels(input) as u32;
        self.conv(Some(input), c, kernel, stride, pad, c)
    }

    /// ReLU activation.
    pub fn relu(&mut self, input: NodeId) -> IrResult<NodeId> {
        self.push(OpType::Relu, Attrs::default(), &[input])
    }

    /// Clip (ReLU6 with the default bounds).
    pub fn relu6(&mut self, input: NodeId) -> IrResult<NodeId> {
        self.push(OpType::Clip, Attrs::clip(0.0, 6.0), &[input])
    }

    /// Sigmoid activation.
    pub fn sigmoid(&mut self, input: NodeId) -> IrResult<NodeId> {
        self.push(OpType::Sigmoid, Attrs::default(), &[input])
    }

    /// Swish activation: `x * sigmoid(x)` — two nodes that the fusion pass
    /// recognises as the Sigmoid+Mul kernel family.
    pub fn swish(&mut self, input: NodeId) -> IrResult<NodeId> {
        let s = self.sigmoid(input)?;
        self.mul(input, s)
    }

    /// Element-wise addition.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> IrResult<NodeId> {
        self.push(OpType::Add, Attrs::default(), &[a, b])
    }

    /// Element-wise multiplication (broadcasting NC11 gates).
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> IrResult<NodeId> {
        self.push(OpType::Mul, Attrs::default(), &[a, b])
    }

    /// Channel concatenation.
    pub fn concat(&mut self, inputs: &[NodeId]) -> IrResult<NodeId> {
        self.push(OpType::Concat, Attrs::default(), inputs)
    }

    /// Max pooling.
    pub fn maxpool(
        &mut self,
        input: NodeId,
        kernel: u32,
        stride: u32,
        pad: u32,
    ) -> IrResult<NodeId> {
        self.push(OpType::MaxPool, Attrs::pool(kernel, stride, pad), &[input])
    }

    /// Average pooling.
    pub fn avgpool(
        &mut self,
        input: NodeId,
        kernel: u32,
        stride: u32,
        pad: u32,
    ) -> IrResult<NodeId> {
        self.push(
            OpType::AveragePool,
            Attrs::pool(kernel, stride, pad),
            &[input],
        )
    }

    /// Global average pooling.
    pub fn global_avgpool(&mut self, input: NodeId) -> IrResult<NodeId> {
        self.push(OpType::GlobalAveragePool, Attrs::default(), &[input])
    }

    /// Spatial mean with keepdims (squeeze-and-excite pooling).
    pub fn reduce_mean(&mut self, input: NodeId) -> IrResult<NodeId> {
        self.push(OpType::ReduceMean, Attrs::default(), &[input])
    }

    /// Fully-connected layer.
    pub fn gemm(&mut self, input: NodeId, out_features: u32) -> IrResult<NodeId> {
        self.push(OpType::Gemm, Attrs::gemm(out_features), &[input])
    }

    /// Flatten CHW to a single axis.
    pub fn flatten(&mut self, input: NodeId) -> IrResult<NodeId> {
        self.push(OpType::Flatten, Attrs::default(), &[input])
    }

    /// Squeeze-and-excite block: pool -> fc(reduce) -> relu -> fc(expand) ->
    /// sigmoid -> scale. Returns the scaled activation. `reduction` is the
    /// channel reduction ratio (e.g. 4).
    pub fn squeeze_excite(&mut self, input: NodeId, reduction: u32) -> IrResult<NodeId> {
        let c = self.channels(input) as u32;
        let hidden = (c / reduction).max(1);
        let pooled = self.reduce_mean(input)?;
        let fc1 = self.conv(Some(pooled), hidden, 1, 1, 0, 1)?;
        let a1 = self.relu(fc1)?;
        let fc2 = self.conv(Some(a1), c, 1, 1, 0, 1)?;
        let gate = self.sigmoid(fc2)?;
        self.mul(input, gate)
    }

    /// Finish the graph, validating it.
    pub fn finish(&self) -> IrResult<Graph> {
        let g = Graph {
            name: self.name.clone(),
            input_shape: self.input_shape,
            nodes: self.nodes.clone().into(),
        };
        crate::validate::validate(&g)?;
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_chain_builds() {
        let mut b = GraphBuilder::new("chain", Shape::nchw(1, 3, 32, 32));
        let c = b.conv(None, 16, 3, 1, 1, 1).unwrap();
        let r = b.relu(c).unwrap();
        let p = b.maxpool(r, 2, 2, 0).unwrap();
        let g = b.global_avgpool(p).unwrap();
        let f = b.flatten(g).unwrap();
        let _out = b.gemm(f, 10).unwrap();
        let graph = b.finish().unwrap();
        assert_eq!(graph.len(), 6);
        assert_eq!(*graph.output_shape().unwrap(), Shape::nc(1, 10));
    }

    #[test]
    fn forward_reference_rejected() {
        let mut b = GraphBuilder::new("bad", Shape::nchw(1, 3, 8, 8));
        let err = b.relu(NodeId(5)).unwrap_err();
        assert!(matches!(err, IrError::BadTopology { .. }));
    }

    #[test]
    fn swish_emits_sigmoid_mul_pair() {
        let mut b = GraphBuilder::new("swish", Shape::nchw(1, 4, 4, 4));
        let c = b.conv(None, 4, 1, 1, 0, 1).unwrap();
        let s = b.swish(c).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(g.node(s).op, OpType::Mul);
        assert_eq!(g.nodes[1].op, OpType::Sigmoid);
        assert_eq!(g.node(s).inputs, vec![c, NodeId(1)].into());
    }

    #[test]
    fn squeeze_excite_shapes() {
        let mut b = GraphBuilder::new("se", Shape::nchw(1, 64, 14, 14));
        let c = b.conv(None, 64, 3, 1, 1, 1).unwrap();
        let se = b.squeeze_excite(c, 4).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(g.node(se).out_shape, Shape::nchw(1, 64, 14, 14));
        // pool, fc1, relu, fc2, sigmoid, mul = 6 extra nodes
        assert_eq!(g.len(), 7);
    }

    #[test]
    fn dwconv_uses_group_count() {
        let mut b = GraphBuilder::new("dw", Shape::nchw(1, 3, 16, 16));
        let c = b.conv(None, 24, 1, 1, 0, 1).unwrap();
        let d = b.dwconv(c, 3, 2, 1).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(g.node(d).attrs.groups, 24);
        assert_eq!(g.node(d).out_shape, Shape::nchw(1, 24, 8, 8));
    }

    #[test]
    fn shape_error_reports_layer() {
        let mut b = GraphBuilder::new("bad", Shape::nchw(1, 3, 4, 4));
        // 11x11 conv cannot fit a 4x4 input without padding.
        let err = b.conv(None, 8, 11, 4, 0, 1).unwrap_err();
        assert!(matches!(err, IrError::ShapeMismatch { .. }));
    }
}
