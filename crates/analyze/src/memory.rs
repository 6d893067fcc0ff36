//! Tensor liveness and peak-activation-memory feasibility (`NNL301`,
//! `NNL302`).
//!
//! The canonical node vector is the execution schedule, so tensor lifetime
//! is a classic backward liveness problem over that straight-line program:
//! a value is live from its definition until its last consumer (or until
//! the end of the model, for the output). The peak resident set — live
//! activations plus the executing node's output, plus all weights — is a
//! static lower bound on the memory a device needs to run the graph at
//! all. A graph whose peak exceeds the platform's memory capacity can
//! never produce a valid latency measurement, so strict-mode admission
//! rejects it before the farm or database see it.

use crate::dataflow::{self, BitSet, DataflowAnalysis, DepStructure, Direction};
use crate::diagnostic::{Anchor, Code, Diagnostic};
use nnlqp_ir::{cost, DType, Graph, NodeId};

/// Footprint fraction of capacity above which `NNL302` warns that the
/// graph leaves too little headroom for the runtime's own allocations.
pub const HIGH_WATERMARK: f64 = 0.80;

/// Backward liveness over the execution order. The fact at node `i` is
/// the set of values that must be resident immediately before `i`
/// executes: bits `0..len` are node outputs, bit `len` is the graph input
/// tensor.
pub struct LivenessAnalysis {
    len: usize,
    output: usize,
}

impl LivenessAnalysis {
    /// `None` on an empty graph.
    pub fn new(g: &Graph) -> Option<Self> {
        g.sinks().last().map(|out| LivenessAnalysis {
            len: g.len(),
            output: out.index(),
        })
    }

    /// The bit representing the graph input tensor.
    pub fn graph_input_bit(&self) -> usize {
        self.len
    }
}

impl DataflowAnalysis for LivenessAnalysis {
    type Fact = BitSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn structure(&self) -> DepStructure {
        DepStructure::ExecutionOrder
    }

    fn bottom(&self, _g: &Graph, _id: NodeId) -> BitSet {
        BitSet::with_capacity(self.len + 1)
    }

    /// Past the last node only the model output remains live.
    fn boundary(&self, _g: &Graph, _id: NodeId) -> BitSet {
        let mut b = BitSet::with_capacity(self.len + 1);
        b.insert(self.output);
        b
    }

    /// May-liveness: union.
    fn join(&self, mut acc: BitSet, dep: &BitSet) -> BitSet {
        acc.union_with(dep);
        acc
    }

    /// `live_in(i) = (live_out(i) \ {i}) ∪ uses(i)` — the textbook
    /// equation with `def(i) = {i}` (every node defines exactly its own
    /// output tensor).
    fn transfer(&self, g: &Graph, id: NodeId, deps: &[BitSet]) -> BitSet {
        let mut live = self.joined(g, id, deps);
        live.remove(id.index());
        let node = g.node(id);
        if node.inputs.is_empty() {
            live.insert(self.graph_input_bit());
        } else {
            for inp in &node.inputs {
                live.insert(inp.index());
            }
        }
        live
    }
}

/// Static memory requirement of a graph at a given precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryEstimate {
    /// Peak resident activation bytes (live tensors plus the executing
    /// node's output; includes the graph input while it is live).
    pub peak_activation_bytes: u64,
    /// Total parameter bytes (resident for the whole run).
    pub weight_bytes: u64,
    /// Node at whose execution point the activation peak occurs.
    pub peak_node: u32,
    /// Tensors resident at the peak (including the output being written).
    pub live_at_peak: usize,
    /// False only if the liveness solve hit its iteration cap (malformed
    /// edges); the estimate is then a best effort.
    pub converged: bool,
}

impl MemoryEstimate {
    /// Activations at peak plus weights: the least memory that can run
    /// the graph.
    pub fn footprint_bytes(&self) -> u64 {
        self.peak_activation_bytes + self.weight_bytes
    }
}

/// Solve liveness and fold the facts into a peak-memory estimate.
pub fn estimate_peak_memory(g: &Graph, dt: DType) -> Option<MemoryEstimate> {
    let analysis = LivenessAnalysis::new(g)?;
    let fix = dataflow::solve(g, &analysis);
    let bytes_of = |bit: usize| -> u64 {
        if bit == analysis.graph_input_bit() {
            g.input_shape.bytes(dt) as u64
        } else {
            g.nodes[bit].out_shape.bytes(dt) as u64
        }
    };
    let mut peak = 0u64;
    let mut peak_node = 0u32;
    let mut live_at_peak = 0usize;
    for (i, live_in) in fix.facts.iter().enumerate() {
        // While node i executes, its inputs (and everything needed later)
        // are resident *and* its output buffer is being written.
        let mut resident = g.nodes[i].out_shape.bytes(dt) as u64;
        let mut count = 1;
        for bit in live_in.iter() {
            resident += bytes_of(bit);
            count += 1;
        }
        if resident > peak {
            peak = resident;
            peak_node = i as u32;
            live_at_peak = count;
        }
    }
    let weight_bytes: f64 = g
        .iter()
        .map(|(id, _)| cost::node_cost(g, id, dt).params * dt.bytes() as f64)
        .sum();
    Some(MemoryEstimate {
        peak_activation_bytes: peak,
        weight_bytes: weight_bytes as u64,
        peak_node,
        live_at_peak,
        converged: fix.converged,
    })
}

/// `1.50 GiB` / `12.0 MiB` / `980 KiB` style rendering.
fn fmt_bytes(b: u64) -> String {
    const KIB: f64 = 1024.0;
    let b = b as f64;
    if b >= KIB * KIB * KIB {
        format!("{:.2} GiB", b / (KIB * KIB * KIB))
    } else if b >= KIB * KIB {
        format!("{:.1} MiB", b / (KIB * KIB))
    } else {
        format!("{:.0} KiB", b / KIB)
    }
}

/// The `memory-feasibility` check: the graph's static footprint at `dt`
/// against a capacity in bytes. `NNL301` (error) when the graph cannot
/// fit, `NNL302` (warning) when it leaves less than `1 - HIGH_WATERMARK`
/// headroom. A capacity of zero means "unknown" and disables the check.
pub fn check_memory_feasibility(g: &Graph, dt: DType, capacity_bytes: u64) -> Vec<Diagnostic> {
    if capacity_bytes == 0 {
        return Vec::new();
    }
    let Some(est) = estimate_peak_memory(g, dt) else {
        return Vec::new();
    };
    let footprint = est.footprint_bytes();
    let detail = format!(
        "peak activations {} (at n{}, {} tensors resident) + weights {} = {} vs capacity {}",
        fmt_bytes(est.peak_activation_bytes),
        est.peak_node,
        est.live_at_peak,
        fmt_bytes(est.weight_bytes),
        fmt_bytes(footprint),
        fmt_bytes(capacity_bytes),
    );
    if footprint > capacity_bytes {
        vec![Diagnostic::new(
            Code::MemoryInfeasible,
            Anchor::Node(est.peak_node),
            format!("graph cannot fit on the platform: {detail}"),
        )]
    } else if footprint as f64 > HIGH_WATERMARK * capacity_bytes as f64 {
        vec![Diagnostic::new(
            Code::MemoryHighWater,
            Anchor::Node(est.peak_node),
            format!(
                "footprint above {:.0}% of platform memory: {detail}",
                HIGH_WATERMARK * 100.0
            ),
        )]
    } else {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_ir::{GraphBuilder, Shape};

    /// n0 conv -> (n1 relu, n2 sigmoid) -> n3 add, input (1,1,4,4).
    fn diamond() -> Graph {
        let mut b = GraphBuilder::new("d", Shape::nchw(1, 1, 4, 4));
        let c = b.conv(None, 2, 1, 1, 0, 1).unwrap();
        let r = b.relu(c).unwrap();
        let s = b.sigmoid(c).unwrap();
        b.add(r, s).unwrap();
        b.finish().unwrap()
    }

    fn set(bits: &[usize]) -> BitSet {
        let mut b = BitSet::with_capacity(8);
        for &i in bits {
            b.insert(i);
        }
        b
    }

    #[test]
    fn liveness_fixpoint_matches_hand_computation() {
        // Backward over the schedule (output = n3, graph input = bit 4):
        //   live_in(3) = ({3} \ {3}) ∪ {1,2}   = {1,2}
        //   live_in(2) = ({1,2} \ {2}) ∪ {0}   = {0,1}
        //   live_in(1) = ({0,1} \ {1}) ∪ {0}   = {0}
        //   live_in(0) = ({0} \ {0}) ∪ {input} = {4}
        let g = diamond();
        let a = LivenessAnalysis::new(&g).unwrap();
        assert_eq!(a.graph_input_bit(), 4);
        let fix = dataflow::solve(&g, &a);
        assert!(fix.converged);
        assert_eq!(fix.sweeps, 2);
        assert_eq!(
            fix.facts,
            vec![set(&[4]), set(&[0]), set(&[0, 1]), set(&[1, 2])]
        );
    }

    #[test]
    fn peak_memory_matches_hand_computation() {
        // f32 tensor bytes: input 16*4 = 64, every node output 32*4 = 128.
        // Resident at each execution point (live_in + own output):
        //   n0: 64 + 128 = 192    n1: 128 + 128 = 256
        //   n2: 256 + 128 = 384   n3: 256 + 128 = 384
        // Peak 384 first reached at n2. Conv weights: 2*1*1 + 2 = 4
        // params * 4 bytes = 16.
        let g = diamond();
        let est = estimate_peak_memory(&g, DType::F32).unwrap();
        assert!(est.converged);
        assert_eq!(est.peak_activation_bytes, 384);
        assert_eq!(est.peak_node, 2);
        assert_eq!(est.live_at_peak, 3);
        assert_eq!(est.weight_bytes, 16);
        assert_eq!(est.footprint_bytes(), 400);
    }

    #[test]
    fn int8_footprint_is_quarter_of_f32() {
        let g = diamond();
        let f = estimate_peak_memory(&g, DType::F32).unwrap();
        let q = estimate_peak_memory(&g, DType::I8).unwrap();
        assert_eq!(q.peak_activation_bytes * 4, f.peak_activation_bytes);
        assert_eq!(q.weight_bytes * 4, f.weight_bytes);
    }

    #[test]
    fn dead_value_is_freed_after_definition() {
        // A dead sigmoid's output is live only while it is computed, so it
        // does not raise the peak of later nodes.
        let mut b = GraphBuilder::new("dead", Shape::nchw(1, 1, 4, 4));
        let c = b.conv(None, 2, 1, 1, 0, 1).unwrap();
        b.sigmoid(c).unwrap(); // dead
        let r = b.relu(c).unwrap();
        b.relu(r).unwrap();
        let g = b.finish().unwrap();
        let a = LivenessAnalysis::new(&g).unwrap();
        let fix = dataflow::solve(&g, &a);
        // Before n2 executes, only n0 is needed: the dead n1 is gone.
        assert_eq!(fix.facts[2], set(&[0]));
    }

    #[test]
    fn feasibility_thresholds() {
        let g = diamond();
        let foot = estimate_peak_memory(&g, DType::F32)
            .unwrap()
            .footprint_bytes();
        // Comfortable capacity: clean.
        assert!(check_memory_feasibility(&g, DType::F32, foot * 2).is_empty());
        // Exactly at capacity: fits, but above the high watermark.
        let warn = check_memory_feasibility(&g, DType::F32, foot);
        assert_eq!(warn.len(), 1);
        assert_eq!(warn[0].code, Code::MemoryHighWater);
        // One byte short: infeasible.
        let err = check_memory_feasibility(&g, DType::F32, foot - 1);
        assert_eq!(err.len(), 1);
        assert_eq!(err[0].code, Code::MemoryInfeasible);
        assert_eq!(err[0].anchor, Anchor::Node(2));
        assert!(err[0].severity == crate::Severity::Error);
        // Unknown capacity disables the check.
        assert!(check_memory_feasibility(&g, DType::F32, 0).is_empty());
    }

    #[test]
    fn corpus_model_fits_on_t4() {
        let g = nnlqp_models::ModelFamily::ResNet.canonical().unwrap();
        let p = nnlqp_sim::PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
        let out = check_memory_feasibility(&g, p.dtype, p.mem_capacity_bytes);
        assert!(out.is_empty(), "{out:?}");
        let est = estimate_peak_memory(&g, p.dtype).unwrap();
        assert!(est.footprint_bytes() > 1 << 20, "ResNet is at least a MiB");
    }
}
