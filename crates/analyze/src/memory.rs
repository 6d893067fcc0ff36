//! Tensor liveness and peak-activation-memory feasibility (`NNL301`,
//! `NNL302`).
//!
//! The canonical node vector is the execution schedule, and on a sound
//! graph every consumer follows its inputs, so a tensor's lifetime is
//! closed-form: a value is resident from its definition through its last
//! consumer, the graph input through the last node that reads it. One
//! pass finds the last uses and a running sum in node order gives the
//! resident bytes at every execution point. The peak resident set — live
//! activations plus the executing node's output, plus all weights — is a
//! static lower bound on the memory a device needs to run the graph at
//! all. A graph whose peak exceeds the platform's memory capacity can
//! never produce a valid latency measurement, so strict-mode admission
//! rejects it before the farm or database see it.

use crate::diagnostic::{Anchor, Code, Diagnostic};
use nnlqp_ir::{cost, DType, Graph};

/// Footprint fraction of capacity above which `NNL302` warns that the
/// graph leaves too little headroom for the runtime's own allocations.
pub const HIGH_WATERMARK: f64 = 0.80;

/// Static memory requirement of a graph at a given precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MemoryEstimate {
    /// Peak resident activation bytes (live tensors plus the executing
    /// node's output; includes the graph input while it is live).
    pub peak_activation_bytes: u64,
    /// Total parameter bytes (resident for the whole run).
    pub weight_bytes: u64,
    /// Node at whose execution point the activation peak occurs.
    pub peak_node: u32,
    /// Tensors resident at the peak (including the output being written).
    pub live_at_peak: usize,
}

impl MemoryEstimate {
    /// Activations at peak plus weights: the least memory that can run
    /// the graph.
    pub fn footprint_bytes(&self) -> u64 {
        self.peak_activation_bytes + self.weight_bytes
    }
}

/// Activation bytes and tensor count resident while each node of a sound,
/// non-empty graph executes, in node order. Node `j`'s output is resident
/// from its definition through its last consumer (only while it is
/// written, if nothing consumes it: the model output, the last node, and
/// dead values); the graph input from the start through the last node
/// that reads it. One pass finds the last uses, a second keeps the
/// running sum.
fn resident_per_node(g: &Graph, dt: DType) -> Vec<(u64, usize)> {
    let n = g.len();
    // `last_use[j] == j`: nothing consumes node j's output.
    let mut last_use: Vec<usize> = (0..n).collect();
    let mut last_source = 0;
    for (k, node) in g.nodes.iter().enumerate() {
        if node.inputs.is_empty() {
            last_source = k;
        }
        for inp in &node.inputs {
            last_use[inp.index()] = k;
        }
    }
    // Bytes and count of the tensors freed once each node has run.
    let mut freed = vec![(0u64, 0usize); n];
    freed[last_source] = (g.input_shape.bytes(dt) as u64, 1);
    let (mut live, mut count) = freed[last_source];
    let mut out = Vec::with_capacity(n);
    for (i, node) in g.nodes.iter().enumerate() {
        let own = node.out_shape.bytes(dt) as u64;
        out.push((live + own, count + 1));
        if last_use[i] > i {
            live += own;
            count += 1;
            let f = &mut freed[last_use[i]];
            f.0 += own;
            f.1 += 1;
        }
        live -= freed[i].0;
        count -= freed[i].1;
    }
    out
}

/// Fold the per-node resident sets into a peak-memory estimate: the first
/// node at which the resident bytes reach their maximum. `None` on an
/// empty graph.
pub(crate) fn estimate_peak_memory(g: &Graph, dt: DType) -> Option<MemoryEstimate> {
    if g.nodes.is_empty() {
        return None;
    }
    let mut peak = 0u64;
    let mut peak_node = 0u32;
    let mut live_at_peak = 0usize;
    for (i, (resident, count)) in resident_per_node(g, dt).into_iter().enumerate() {
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
pub(crate) fn check_memory_feasibility(
    g: &Graph,
    dt: DType,
    capacity_bytes: u64,
) -> Vec<Diagnostic> {
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

    #[test]
    fn resident_bytes_match_hand_computation() {
        // f32 tensor bytes: input 16*4 = 64, every node output 32*4 = 128.
        // n0 reads the input; n1 and n2 read n0, n3 reads n1 and n2.
        let g = diamond();
        assert_eq!(
            resident_per_node(&g, DType::F32),
            vec![(192, 2), (256, 2), (384, 3), (384, 3)]
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
        // A dead sigmoid's output is resident only while it is computed,
        // so it does not raise the peak of later nodes: n2 and n3 each
        // hold one live tensor (n0, then n2) plus their own output.
        let mut b = GraphBuilder::new("dead", Shape::nchw(1, 1, 4, 4));
        let c = b.conv(None, 2, 1, 1, 0, 1).unwrap();
        b.sigmoid(c).unwrap(); // dead
        let r = b.relu(c).unwrap();
        b.relu(r).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(
            resident_per_node(&g, DType::F32),
            vec![(192, 2), (256, 2), (256, 2), (256, 2)]
        );
    }

    #[test]
    fn graph_input_stays_resident_until_the_last_source_runs() {
        // n0, n2 and n4 read the graph input (64 bytes), so it is resident
        // through n4; every node output is 128 bytes.
        //   n0: in + n0 = 192              n1: in + n0 + n1 = 320
        //   n2: in + n1 + n2 = 320         n3: in + n1 + n2 + n3 = 448
        //   n4: in + n3 + n4 = 320         n5: n3 + n4 + n5 = 384
        let mut b = GraphBuilder::new("sources", Shape::nchw(1, 1, 4, 4));
        let a = b.conv(None, 2, 1, 1, 0, 1).unwrap();
        let r = b.relu(a).unwrap();
        let c = b.conv(None, 2, 1, 1, 0, 1).unwrap();
        let s = b.add(r, c).unwrap();
        let d = b.conv(None, 2, 3, 1, 1, 1).unwrap();
        b.add(s, d).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(
            resident_per_node(&g, DType::F32),
            vec![(192, 2), (320, 3), (320, 3), (448, 4), (320, 3), (384, 3)]
        );
        let est = estimate_peak_memory(&g, DType::F32).unwrap();
        assert_eq!((est.peak_node, est.live_at_peak), (3, 4));
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
