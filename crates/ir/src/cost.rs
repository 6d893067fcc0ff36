//! Static cost accounting: FLOPs, parameters and memory access.
//!
//! These are the classic proxies the paper's baselines regress on (FLOPs,
//! FLOPs+MAC) and the four graph-level static features of Eq. 5
//! (batch size, FLOPs, params, memory access). Conventions:
//!
//! * one multiply-accumulate = 2 FLOPs,
//! * memory access = bytes read (inputs + weights) + bytes written (output)
//!   at the given precision,
//! * `Flatten` is a pure copy (no FLOPs), `Concat` moves its inputs.

use crate::graph::Graph;
use crate::node::NodeId;
use crate::op::OpType;
use crate::shape::{DType, Shape};

/// Static cost of a single node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCost {
    /// Floating-point operations (MAC = 2).
    pub flops: f64,
    /// Learned parameter count.
    pub params: f64,
    /// Bytes read: all input tensors plus weights.
    pub read_bytes: f64,
    /// Bytes written: the output tensor.
    pub write_bytes: f64,
}

impl NodeCost {
    /// Total memory access (read + write).
    #[inline]
    pub fn mem_bytes(&self) -> f64 {
        self.read_bytes + self.write_bytes
    }

    const ZERO: NodeCost = NodeCost {
        flops: 0.0,
        params: 0.0,
        read_bytes: 0.0,
        write_bytes: 0.0,
    };
}

/// Aggregate cost of a whole graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphCost {
    /// Total FLOPs.
    pub flops: f64,
    /// Total parameters.
    pub params: f64,
    /// Total memory access in bytes.
    pub mem_bytes: f64,
    /// Per-node breakdown, indexed by node id.
    pub per_node: Vec<NodeCost>,
}

/// Parameter count of a node given its input channel/feature width.
#[inline]
fn params_of(op: OpType, attrs: &crate::attrs::Attrs, input: &Shape) -> f64 {
    match op {
        OpType::Conv => {
            let cin = input.channels() as f64;
            let cout = attrs.out_channels as f64;
            let g = attrs.groups as f64;
            let k = attrs.kernel[0] as f64 * attrs.kernel[1] as f64;
            cout * (cin / g) * k + cout // weights + bias
        }
        OpType::Gemm => {
            let fin = crate::infer::gemm_in_features(input) as f64;
            let fout = attrs.out_channels as f64;
            fin * fout + fout
        }
        _ => 0.0,
    }
}

/// Cost of node `id` of graph `g` at precision `dt`.
///
/// `#[inline]` because the simulator's `describe` keeps only `flops` and
/// `params` of it, per node per measurement: inlined across the crate
/// boundary the byte sums it discards are never computed (a third of a
/// `model_latency_ms` call otherwise).
#[inline]
pub fn node_cost(g: &Graph, id: NodeId, dt: DType) -> NodeCost {
    let n = g.node(id);
    // The first input (the graph input for a source node) sizes the weights.
    let first = match n.inputs.first() {
        Some(&i) => &g.node(i).out_shape,
        None => &g.input_shape,
    };
    let out = &n.out_shape;
    let out_elems = out.numel() as f64;
    // Summed in input order: the f64 rounding is part of every simulated
    // latency.
    let in_bytes: f64 = if n.inputs.is_empty() {
        g.input_shape.bytes(dt) as f64
    } else {
        n.inputs
            .iter()
            .map(|&i| g.node(i).out_shape.bytes(dt) as f64)
            .sum()
    };
    let out_bytes = out.bytes(dt) as f64;
    let params = params_of(n.op, &n.attrs, first);
    let weight_bytes = params * dt.bytes() as f64;
    let flops = match n.op {
        OpType::Conv => {
            let cin = first.channels() as f64;
            let gpr = n.attrs.groups as f64;
            let k = n.attrs.kernel[0] as f64 * n.attrs.kernel[1] as f64;
            2.0 * out_elems * (cin / gpr) * k
        }
        OpType::Gemm => {
            let fin = crate::infer::gemm_in_features(first) as f64;
            2.0 * out_elems * fin
        }
        OpType::Relu | OpType::Clip | OpType::Add | OpType::Mul => out_elems,
        OpType::Sigmoid => 4.0 * out_elems,
        OpType::MaxPool | OpType::AveragePool => {
            out_elems * n.attrs.kernel[0] as f64 * n.attrs.kernel[1] as f64
        }
        OpType::GlobalAveragePool | OpType::ReduceMean => first.numel() as f64,
        OpType::Concat | OpType::Flatten => 0.0,
    };

    NodeCost {
        flops,
        params,
        read_bytes: in_bytes + weight_bytes,
        write_bytes: out_bytes,
    }
}

/// Every field of `costs` summed in order, from zero.
fn sum(costs: impl Iterator<Item = NodeCost>) -> NodeCost {
    costs.fold(NodeCost::ZERO, |t, c| NodeCost {
        flops: t.flops + c.flops,
        params: t.params + c.params,
        read_bytes: t.read_bytes + c.read_bytes,
        write_bytes: t.write_bytes + c.write_bytes,
    })
}

/// The totals of [`graph_cost`] without its per-node breakdown, summed in
/// the same order (feature extraction reads nothing else, per prediction).
pub fn graph_totals(g: &Graph, dt: DType) -> NodeCost {
    sum(g.iter().map(|(id, _)| node_cost(g, id, dt)))
}

/// Cost of every node plus totals.
pub fn graph_cost(g: &Graph, dt: DType) -> GraphCost {
    let per_node: Vec<NodeCost> = g.iter().map(|(id, _)| node_cost(g, id, dt)).collect();
    let total = sum(per_node.iter().copied());
    GraphCost {
        flops: total.flops,
        params: total.params,
        mem_bytes: total.mem_bytes(),
        per_node,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn conv_flops_match_formula() {
        let mut b = GraphBuilder::new("c", Shape::nchw(1, 16, 32, 32));
        b.conv(None, 32, 3, 1, 1, 1).unwrap();
        let g = b.finish().unwrap();
        let c = node_cost(&g, NodeId(0), DType::F32);
        // 2 * (1*32*32*32) * 16 * 9
        assert_eq!(c.flops, 2.0 * 32.0 * 32.0 * 32.0 * 16.0 * 9.0);
        assert_eq!(c.params, 32.0 * 16.0 * 9.0 + 32.0);
    }

    #[test]
    fn depthwise_divides_by_groups() {
        let mut b = GraphBuilder::new("dw", Shape::nchw(1, 32, 16, 16));
        let c0 = b.conv(None, 32, 1, 1, 0, 1).unwrap();
        b.dwconv(c0, 3, 1, 1).unwrap();
        let g = b.finish().unwrap();
        let dw = node_cost(&g, NodeId(1), DType::F32);
        // out elems * (32/32) * 9 * 2
        assert_eq!(dw.flops, 2.0 * (32.0 * 16.0 * 16.0) * 1.0 * 9.0);
        assert_eq!(dw.params, 32.0 * 1.0 * 9.0 + 32.0);
    }

    #[test]
    fn gemm_cost_real() {
        let mut b = GraphBuilder::new("g", Shape::nchw(2, 3, 28, 28));
        let c0 = b.conv(None, 512, 3, 1, 1, 1).unwrap();
        let p = b.global_avgpool(c0).unwrap();
        let f = b.flatten(p).unwrap();
        b.gemm(f, 1000).unwrap();
        let g = b.finish().unwrap();
        let c = node_cost(&g, NodeId(3), DType::F32);
        assert_eq!(c.flops, 2.0 * 2.0 * 1000.0 * 512.0);
        assert_eq!(c.params, 512.0 * 1000.0 + 1000.0);
    }

    #[test]
    fn dtype_scales_memory_not_flops() {
        let mut b = GraphBuilder::new("c", Shape::nchw(1, 8, 8, 8));
        b.conv(None, 8, 3, 1, 1, 1).unwrap();
        let g = b.finish().unwrap();
        let f32c = node_cost(&g, NodeId(0), DType::F32);
        let i8c = node_cost(&g, NodeId(0), DType::I8);
        assert_eq!(f32c.flops, i8c.flops);
        assert!((f32c.mem_bytes() / i8c.mem_bytes() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn graph_cost_totals_are_sums() {
        let mut b = GraphBuilder::new("net", Shape::nchw(1, 3, 32, 32));
        let c = b.conv(None, 16, 3, 1, 1, 1).unwrap();
        let r = b.relu(c).unwrap();
        let p = b.global_avgpool(r).unwrap();
        let f = b.flatten(p).unwrap();
        b.gemm(f, 10).unwrap();
        let g = b.finish().unwrap();
        let gc = graph_cost(&g, DType::F32);
        let sum_flops: f64 = gc.per_node.iter().map(|c| c.flops).sum();
        assert_eq!(gc.flops, sum_flops);
        assert_eq!(gc.per_node.len(), 5);
        assert!(gc.params > 0.0);
        assert!(gc.mem_bytes > 0.0);
    }

    #[test]
    fn flatten_has_no_flops_but_moves_bytes() {
        let mut b = GraphBuilder::new("f", Shape::nchw(1, 4, 4, 4));
        let c = b.conv(None, 4, 1, 1, 0, 1).unwrap();
        b.flatten(c).unwrap();
        let g = b.finish().unwrap();
        let f = node_cost(&g, NodeId(1), DType::F32);
        assert_eq!(f.flops, 0.0);
        assert_eq!(f.read_bytes, 4.0 * 64.0);
        assert_eq!(f.write_bytes, 4.0 * 64.0);
    }
}
