//! Operator fusion: grouping graph nodes into execution kernels.
//!
//! Mirrors the rule set behind Appendix D: convolutions absorb a following
//! residual `Add` and/or activation when they are the sole consumer, and
//! `Sigmoid+Mul` pairs fuse into the Swish kernel. Every other node runs as
//! a single-op kernel. Fusing an element-wise epilogue means its
//! intermediate tensor is never materialized — the kernel's external memory
//! traffic shrinks, which is one of the reasons kernel-latency additivity
//! fails (§3.2).

use nnlqp_ir::{cost, DType, Graph, NodeId, NodeIds, OpType};
use std::collections::BTreeMap;
use std::fmt;

/// Kernel families (Appendix D, Table 8) plus standalone element-wise
/// leftovers that the greedy rules could not fuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelFamily {
    AveragePool,
    Concat,
    ConvAddRelu,
    ConvAdd,
    ConvClip,
    ConvRelu,
    Conv,
    Flatten,
    Gemm,
    GlobalAveragePool,
    MaxPool,
    ReduceMean,
    Relu,
    SigmoidMul,
    /// Residual adds whose producer is not a fusable convolution.
    Add,
    /// Unfused element-wise leftovers.
    Clip,
    Sigmoid,
    Mul,
}

impl KernelFamily {
    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            KernelFamily::AveragePool => "AveragePool",
            KernelFamily::Concat => "Concat",
            KernelFamily::ConvAddRelu => "Conv+Add+Relu",
            KernelFamily::ConvAdd => "Conv+Add",
            KernelFamily::ConvClip => "Conv+Clip",
            KernelFamily::ConvRelu => "Conv+Relu",
            KernelFamily::Conv => "Conv",
            KernelFamily::Flatten => "Flatten",
            KernelFamily::Gemm => "Gemm",
            KernelFamily::GlobalAveragePool => "GlobalAveragePool",
            KernelFamily::MaxPool => "MaxPool",
            KernelFamily::ReduceMean => "ReduceMean",
            KernelFamily::Relu => "Relu",
            KernelFamily::SigmoidMul => "Sigmoid+Mul",
            KernelFamily::Add => "Add",
            KernelFamily::Clip => "Clip",
            KernelFamily::Sigmoid => "Sigmoid",
            KernelFamily::Mul => "Mul",
        }
    }

    /// The 14 families of Table 8, in its row order.
    pub const TABLE8: [KernelFamily; 14] = [
        KernelFamily::AveragePool,
        KernelFamily::Concat,
        KernelFamily::ConvAddRelu,
        KernelFamily::ConvAdd,
        KernelFamily::ConvClip,
        KernelFamily::ConvRelu,
        KernelFamily::Conv,
        KernelFamily::Flatten,
        KernelFamily::Gemm,
        KernelFamily::GlobalAveragePool,
        KernelFamily::MaxPool,
        KernelFamily::ReduceMean,
        KernelFamily::Relu,
        KernelFamily::SigmoidMul,
    ];

    fn single(op: OpType) -> KernelFamily {
        match op {
            OpType::Conv => KernelFamily::Conv,
            OpType::Relu => KernelFamily::Relu,
            OpType::Clip => KernelFamily::Clip,
            OpType::Sigmoid => KernelFamily::Sigmoid,
            OpType::Mul => KernelFamily::Mul,
            OpType::Add => KernelFamily::Add,
            OpType::Concat => KernelFamily::Concat,
            OpType::MaxPool => KernelFamily::MaxPool,
            OpType::AveragePool => KernelFamily::AveragePool,
            OpType::GlobalAveragePool => KernelFamily::GlobalAveragePool,
            OpType::Gemm => KernelFamily::Gemm,
            OpType::Flatten => KernelFamily::Flatten,
            OpType::ReduceMean => KernelFamily::ReduceMean,
        }
    }
}

impl fmt::Display for KernelFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One fused kernel: an ordered list of node ids from the parent graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel {
    /// Family after fusion.
    pub family: KernelFamily,
    /// Member nodes in topological order; the last node produces the
    /// kernel output. At most three by the fusion rules, so held inline.
    pub nodes: NodeIds,
}

/// Numeric description of a kernel — everything the cost model (and the
/// kernel-feature baselines) need.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Family after fusion.
    pub family: KernelFamily,
    /// Total FLOPs of all member nodes.
    pub flops: f64,
    /// External bytes read (kernel inputs + weights; fused intermediates
    /// excluded).
    pub read_bytes: f64,
    /// Bytes written (final output only).
    pub write_bytes: f64,
    /// Elements of the output tensor.
    pub out_elems: f64,
    /// Channels of the output tensor.
    pub out_channels: u32,
    /// Spatial height of the output.
    pub out_h: u32,
    /// Conv/pool kernel size (0 when not applicable).
    pub kernel_hw: u32,
    /// Conv groups (1 when not applicable).
    pub groups: u32,
    /// Stride of the conv/pool member (1 otherwise).
    pub stride: u32,
    /// Batch size.
    pub batch: u32,
}

/// Fuse a graph into kernels (greedy, deterministic).
pub fn fuse(g: &Graph) -> Vec<Kernel> {
    // The rules only ever ask for "the sole consumer of node i, if it has
    // exactly one": an edge count and the last consumer seen, per node. A
    // duplicate edge counts twice, so `add(x, x)` is two consumers of `x`.
    let mut consumers = vec![(0u32, NodeId(0)); g.len()];
    for (id, n) in g.iter() {
        for &inp in &n.inputs {
            let c = &mut consumers[inp.index()];
            *c = (c.0 + 1, id);
        }
    }
    let sole_consumer = |id: NodeId| -> Option<NodeId> {
        let (count, last) = consumers[id.index()];
        (count == 1).then_some(last)
    };
    let mut assigned = vec![false; g.len()];
    let mut kernels = Vec::with_capacity(g.len());

    for (id, n) in g.iter() {
        if assigned[id.index()] {
            continue;
        }
        let mut nodes = NodeIds::new();
        nodes.push(id);
        let mut family = KernelFamily::single(n.op);
        // A consumer may already belong to an earlier kernel (e.g. the
        // main-path conv of a projection residual absorbed the Add before
        // the shortcut conv is visited); such consumers must not be fused
        // twice.
        match n.op {
            OpType::Conv => {
                if let Some(next) = sole_consumer(id).filter(|c| !assigned[c.index()]) {
                    match g.node(next).op {
                        OpType::Relu => {
                            nodes.push(next);
                            family = KernelFamily::ConvRelu;
                        }
                        OpType::Clip => {
                            nodes.push(next);
                            family = KernelFamily::ConvClip;
                        }
                        OpType::Add => {
                            nodes.push(next);
                            family = KernelFamily::ConvAdd;
                            if let Some(after) =
                                sole_consumer(next).filter(|c| !assigned[c.index()])
                            {
                                if g.node(after).op == OpType::Relu {
                                    nodes.push(after);
                                    family = KernelFamily::ConvAddRelu;
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
            OpType::Sigmoid => {
                if let Some(next) = sole_consumer(id).filter(|c| !assigned[c.index()]) {
                    if g.node(next).op == OpType::Mul {
                        nodes.push(next);
                        family = KernelFamily::SigmoidMul;
                    }
                }
            }
            _ => {}
        }
        for m in &nodes {
            assigned[m.index()] = true;
        }
        kernels.push(Kernel { family, nodes });
    }
    kernels
}

/// Describe a kernel numerically at a given precision.
pub fn describe(g: &Graph, k: &Kernel, dt: DType) -> KernelDesc {
    let member = |id: NodeId| k.nodes.contains(&id);
    let mut flops = 0.0;
    let mut read = 0.0;
    let mut kernel_hw = 0u32;
    let mut groups = 1u32;
    let mut stride = 1u32;
    for &id in &k.nodes {
        let n = g.node(id);
        let c = cost::node_cost(g, id, dt);
        flops += c.flops;
        // External reads: inputs produced outside the kernel, plus weights.
        let weight_bytes = c.params * dt.bytes() as f64;
        let ext_input_bytes: f64 = if n.inputs.is_empty() {
            g.input_shape.bytes(dt) as f64
        } else {
            n.inputs
                .iter()
                .filter(|i| !member(**i))
                .map(|i| g.node(*i).out_shape.bytes(dt) as f64)
                .sum()
        };
        read += ext_input_bytes + weight_bytes;
        if matches!(n.op, OpType::Conv | OpType::MaxPool | OpType::AveragePool) {
            kernel_hw = kernel_hw.max(n.attrs.kernel[0]);
            stride = stride.max(n.attrs.stride[0]);
        }
        if n.op == OpType::Conv {
            groups = groups.max(n.attrs.groups);
        }
    }
    let last = g.node(*k.nodes.last().expect("kernel has nodes"));
    let out = &last.out_shape;
    KernelDesc {
        family: k.family,
        flops,
        read_bytes: read,
        write_bytes: out.bytes(dt) as f64,
        out_elems: out.numel() as f64,
        out_channels: out.channels() as u32,
        out_h: out.height() as u32,
        kernel_hw,
        groups,
        stride,
        batch: out.batch() as u32,
    }
}

/// Kernel-count statistics over a corpus (Table 8).
pub fn fusion_stats<'a>(
    graphs: impl IntoIterator<Item = &'a Graph>,
) -> BTreeMap<KernelFamily, usize> {
    let mut stats = BTreeMap::new();
    for g in graphs {
        for k in fuse(g) {
            *stats.entry(k.family).or_insert(0) += 1;
        }
    }
    stats
}

/// Dependency lists between kernels in CSR form (offsets into one flat
/// buffer): `deps[i]` holds the indices of kernels that must finish before
/// kernel `i` starts, de-duplicated and ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelDeps {
    /// `flat[offsets[i]..offsets[i + 1]]` are kernel `i`'s producers.
    offsets: Vec<usize>,
    flat: Vec<usize>,
}

impl KernelDeps {
    /// Number of kernels.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True for the dependency lists of no kernels.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every kernel's producer list, in kernel order.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.offsets.windows(2).map(|w| &self.flat[w[0]..w[1]])
    }
}

impl std::ops::Index<usize> for KernelDeps {
    type Output = [usize];

    fn index(&self, i: usize) -> &[usize] {
        &self.flat[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Lists taken as given (a test's hand-built, possibly cyclic plan).
impl<L: AsRef<[usize]>> FromIterator<L> for KernelDeps {
    fn from_iter<I: IntoIterator<Item = L>>(lists: I) -> Self {
        let mut deps = KernelDeps {
            offsets: vec![0],
            flat: Vec::new(),
        };
        for l in lists {
            deps.flat.extend_from_slice(l.as_ref());
            deps.offsets.push(deps.flat.len());
        }
        deps
    }
}

/// Dependency lists between kernels, from the data flow of `g`.
pub fn kernel_deps(g: &Graph, kernels: &[Kernel]) -> KernelDeps {
    // Map node -> kernel index.
    let mut owner = vec![usize::MAX; g.len()];
    for (ki, k) in kernels.iter().enumerate() {
        for &n in &k.nodes {
            owner[n.index()] = ki;
        }
    }
    let mut offsets = Vec::with_capacity(kernels.len() + 1);
    offsets.push(0);
    // One dependency per edge at the most.
    let mut flat: Vec<usize> = Vec::with_capacity(g.num_edges());
    for (ki, k) in kernels.iter().enumerate() {
        let start = flat.len();
        for &nid in &k.nodes {
            for &inp in &g.node(nid).inputs {
                let producer = owner[inp.index()];
                if producer != ki && !flat[start..].contains(&producer) {
                    flat.push(producer);
                }
            }
        }
        flat[start..].sort_unstable();
        offsets.push(flat.len());
    }
    KernelDeps { offsets, flat }
}

/// Topological order of the kernel DAG (Kahn's algorithm). Needed because
/// fusion can create a kernel (e.g. `Conv+Add`) whose skip-branch producer
/// appears later in creation order.
pub fn topo_order(deps: &KernelDeps) -> Vec<usize> {
    let n = deps.len();
    let mut indegree: Vec<usize> = deps.iter().map(<[usize]>::len).collect();
    // Consumer lists, CSR again: count, prefix-sum, then scatter in kernel
    // order so each kernel's consumers come out ascending.
    let mut offsets = vec![0usize; n + 1];
    for &p in &deps.flat {
        offsets[p + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut consumers = vec![0usize; deps.flat.len()];
    let mut cursor = offsets.clone();
    for (i, d) in deps.iter().enumerate() {
        for &p in d {
            consumers[cursor[p]] = i;
            cursor[p] += 1;
        }
    }
    // Min-index-first queue keeps the order deterministic and close to
    // creation order.
    let mut ready = std::collections::BinaryHeap::with_capacity(n);
    ready.extend(
        indegree
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| std::cmp::Reverse(i)),
    );
    let mut order = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse(i)) = ready.pop() {
        order.push(i);
        for &c in &consumers[offsets[i]..offsets[i + 1]] {
            indegree[c] -= 1;
            if indegree[c] == 0 {
                ready.push(std::cmp::Reverse(c));
            }
        }
    }
    debug_assert_eq!(order.len(), n, "kernel DAG has a cycle");
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_ir::{GraphBuilder, Shape};

    fn residual_block() -> Graph {
        // conv -> relu -> conv -> add(skip) -> relu
        let mut b = GraphBuilder::new("rb", Shape::nchw(1, 16, 16, 16));
        let c1 = b.conv(None, 16, 3, 1, 1, 1).unwrap();
        let r1 = b.relu(c1).unwrap();
        let c2 = b.conv(Some(r1), 16, 3, 1, 1, 1).unwrap();
        let a = b.add(c2, r1).unwrap();
        b.relu(a).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn residual_block_fuses_to_two_kernels() {
        let g = residual_block();
        let ks = fuse(&g);
        // conv+relu is NOT fusable for c1 (relu output feeds both c2 and
        // add -> c1's relu has 2 consumers, but fusion looks at c1's sole
        // consumer which IS the relu). Check actual families:
        let fams: Vec<KernelFamily> = ks.iter().map(|k| k.family).collect();
        assert_eq!(
            fams,
            vec![KernelFamily::ConvRelu, KernelFamily::ConvAddRelu]
        );
        assert_eq!(ks[1].nodes.len(), 3);
    }

    #[test]
    fn swish_fuses() {
        let mut b = GraphBuilder::new("s", Shape::nchw(1, 8, 8, 8));
        let c = b.conv(None, 8, 1, 1, 0, 1).unwrap();
        b.swish(c).unwrap();
        let g = b.finish().unwrap();
        let ks = fuse(&g);
        // conv cannot fuse: its output feeds both sigmoid and mul.
        assert_eq!(ks.len(), 2);
        assert_eq!(ks[0].family, KernelFamily::Conv);
        assert_eq!(ks[1].family, KernelFamily::SigmoidMul);
    }

    #[test]
    fn multi_consumer_conv_stays_unfused() {
        // conv output feeding two branches must not absorb either.
        let mut b = GraphBuilder::new("mc", Shape::nchw(1, 8, 8, 8));
        let c = b.conv(None, 8, 3, 1, 1, 1).unwrap();
        let r1 = b.relu(c).unwrap();
        let r2 = b.sigmoid(c).unwrap();
        b.add(r1, r2).unwrap();
        let g = b.finish().unwrap();
        let ks = fuse(&g);
        assert_eq!(ks[0].family, KernelFamily::Conv);
        assert_eq!(ks[0].nodes.len(), 1);
    }

    #[test]
    fn every_node_in_exactly_one_kernel() {
        let g = residual_block();
        let ks = fuse(&g);
        let mut seen = vec![0; g.len()];
        for k in &ks {
            for n in &k.nodes {
                seen[n.index()] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn fused_kernel_hides_intermediate_traffic() {
        let g = residual_block();
        let ks = fuse(&g);
        let fused = describe(&g, &ks[1], DType::F32);
        // The fused conv+add+relu reads: relu output (conv input), relu
        // output again (skip), weights. It does NOT read/write the
        // intermediate conv output or add output.
        let tensor = 16.0 * 16.0 * 16.0 * 4.0;
        let weights = (16.0 * 16.0 * 9.0 + 16.0) * 4.0;
        assert_eq!(fused.read_bytes, 2.0 * tensor + weights);
        assert_eq!(fused.write_bytes, tensor);
    }

    #[test]
    fn deps_follow_data_flow() {
        let g = residual_block();
        let ks = fuse(&g);
        let deps = kernel_deps(&g, &ks);
        assert!(deps[0].is_empty());
        assert_eq!(deps[1], [0]);
    }

    #[test]
    fn stats_cover_corpus() {
        let g = residual_block();
        let stats = fusion_stats([&g]);
        assert_eq!(stats[&KernelFamily::ConvRelu], 1);
        assert_eq!(stats[&KernelFamily::ConvAddRelu], 1);
    }

    #[test]
    fn mobilenet_produces_conv_clip_kernels() {
        let g = nnlqp_models::mobilenet_v2::build(
            "m",
            &nnlqp_models::mobilenet_v2::MobileNetV2Config::default(),
        )
        .unwrap();
        let stats = fusion_stats([&g]);
        assert!(stats.get(&KernelFamily::ConvClip).copied().unwrap_or(0) > 10);
    }

    #[test]
    fn table8_families_emerge_from_real_corpus() {
        use nnlqp_models::ModelFamily;
        let graphs: Vec<Graph> = nnlqp_models::family::CORPUS_FAMILIES
            .iter()
            .map(|f| f.canonical().unwrap())
            .collect();
        let _ = ModelFamily::ResNet;
        let stats = fusion_stats(graphs.iter());
        for fam in [
            KernelFamily::ConvRelu,
            KernelFamily::Conv,
            KernelFamily::ConvAddRelu,
            KernelFamily::ConvClip,
            KernelFamily::Concat,
            KernelFamily::Gemm,
            KernelFamily::MaxPool,
            KernelFamily::GlobalAveragePool,
            KernelFamily::Flatten,
            KernelFamily::SigmoidMul,
            KernelFamily::ReduceMean,
        ] {
            assert!(
                stats.get(&fam).copied().unwrap_or(0) > 0,
                "family {fam} missing from corpus"
            );
        }
    }
}
