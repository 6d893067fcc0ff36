//! Feature extraction — the unified graph embedding inputs (Eqs. 3 & 5).
//!
//! Per node (Eq. 3): `F_v^0 = onehot(op) ⊕ attrs ⊕ shape`. Per graph
//! (Eq. 5): four static features — batch size, FLOPs, parameters, memory
//! access. Attribute, shape and static features are standardized by a
//! [`Normalizer`] fitted on the training set ("we calculate F_attr,
//! F_shape by applying the mean and variance for normalization", §6.1);
//! magnitude-like quantities pass through `ln(1+x)` first.

use nnlqp_ir::attrs::ATTR_VEC_LEN;
use nnlqp_ir::op::NUM_OP_TYPES;
use nnlqp_ir::{cost, DType, Graph, Node, OpType};
use nnlqp_nn::{Csr, Matrix, Scratch};
use nnlqp_sim::fusion::Kernel;
use std::sync::LazyLock;

/// Shape block width: log-scaled (batch, channels, height, width).
pub const SHAPE_DIM: usize = 4;

/// Width of a node row's attribute and shape columns: the row less its
/// one-hot block, and all of it that a [`Normalizer`] fits.
pub const DENSE_DIM: usize = ATTR_VEC_LEN + SHAPE_DIM;

/// Full node feature width.
pub const NODE_FEAT_DIM: usize = NUM_OP_TYPES + DENSE_DIM;

/// Static graph-feature width: batch, FLOPs, params, memory access.
pub const STATIC_DIM: usize = 4;

/// Raw (un-normalized) features of one graph, its node rows in form `N`.
#[derive(Debug, Clone)]
pub struct Features<N> {
    /// Node features, one row per node.
    pub nodes: N,
    /// Undirected adjacency.
    pub adj: Csr,
    /// Static features (raw scale).
    pub stat: [f64; STATIC_DIM],
}

/// A graph's features with dense node rows, `[n, NODE_FEAT_DIM]`: the
/// per-query form the encoders read.
pub type GraphFeatures = Features<Matrix>;

/// A graph's features with [`NodeRows`]: the form a training set holds.
pub type CompactFeatures = Features<NodeRows>;

/// A form of a graph's node rows: built from the nodes themselves, and
/// read by [`Normalizer::fit`] through each row's attribute and shape
/// columns (the one-hot block is never fitted).
pub trait NodeRowForm {
    /// One raw row per node of `nodes`, which yields `len` of them.
    fn from_nodes<'a>(len: usize, nodes: impl Iterator<Item = &'a Node>) -> Self;

    /// Each row's [`DENSE_DIM`] attribute and shape columns, in row order.
    fn dense_rows(&self) -> impl Iterator<Item = &[f32]>;
}

/// Node rows held compactly: each node's operator and its [`DENSE_DIM`]
/// attribute and shape columns, 65 bytes a node where a dense row takes
/// 116. The one-hot block of Eq. 3 says only which operator a node is;
/// [`NodeRows::densify`] writes it out when an encoder reads the rows.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRows {
    /// Number of nodes.
    pub rows: usize,
    ops: Vec<OpType>,
    dense: Vec<f32>,
}

impl NodeRows {
    /// The dense `[rows, NODE_FEAT_DIM]` form, in a matrix drawn from
    /// `scratch` and written whole (the caller puts it back): per row the
    /// operator's one-hot block, then the stored columns. Normalized rows
    /// densify to exactly what [`Normalizer::normalize_nodes_into`] makes
    /// of the dense raw rows, because the one-hot block's fitted mean is 0
    /// and its deviation 1.
    pub fn densify(&self, scratch: &mut Scratch) -> Matrix {
        let mut out = scratch.take_overwritten(self.rows, NODE_FEAT_DIM);
        let dense = self.dense.chunks_exact(DENSE_DIM);
        let rows = out.data.chunks_exact_mut(NODE_FEAT_DIM).zip(&self.ops);
        for ((row, op), cols) in rows.zip(dense) {
            let (one_hot, rest) = row.split_at_mut(NUM_OP_TYPES);
            one_hot.fill(0.0);
            one_hot[op.code()] = 1.0;
            rest.copy_from_slice(cols);
        }
        out
    }

    /// [`NodeRows::densify`] into a matrix of its own.
    pub fn to_matrix(&self) -> Matrix {
        self.densify(&mut Scratch::new())
    }
}

fn log1p(x: f64) -> f32 {
    (x.max(0.0)).ln_1p() as f32
}

/// Shape dimensions below this take their [`log1p`] from a table.
const LOG1P_TABLE_LEN: usize = 4096;

/// [`log1p`] of a shape dimension: a table lookup below
/// [`LOG1P_TABLE_LEN`] (filled by the same expression), the call above.
/// The table lives in the static itself, not on the heap: the allocation
/// tests count a process's first featurization too.
fn log1p_dim(v: usize) -> f32 {
    static TABLE: LazyLock<[f32; LOG1P_TABLE_LEN]> =
        LazyLock::new(|| std::array::from_fn(|v| log1p(v as f64)));
    match TABLE.get(v) {
        Some(&y) => y,
        None => log1p(v as f64),
    }
}

/// Write one node's attribute and shape columns: the raw attribute vector
/// (normalized later) and the log-scaled output shape.
fn dense_cols(cols: &mut [f32], node: &Node) {
    let (attrs, shape) = cols.split_at_mut(ATTR_VEC_LEN);
    attrs.copy_from_slice(&node.attrs.to_vec());
    let s = &node.out_shape;
    let dims = [s.batch(), s.channels(), s.height(), s.width()];
    for (y, d) in shape.iter_mut().zip(dims) {
        *y = log1p_dim(d);
    }
}

impl NodeRowForm for Matrix {
    fn from_nodes<'a>(len: usize, nodes: impl Iterator<Item = &'a Node>) -> Matrix {
        let mut m = Matrix::zeros(len, NODE_FEAT_DIM);
        for (row, node) in m.data.chunks_exact_mut(NODE_FEAT_DIM).zip(nodes) {
            row[node.op.code()] = 1.0;
            dense_cols(&mut row[NUM_OP_TYPES..], node);
        }
        m
    }

    fn dense_rows(&self) -> impl Iterator<Item = &[f32]> {
        (self.data.chunks_exact(NODE_FEAT_DIM)).map(|row| &row[NUM_OP_TYPES..])
    }
}

impl NodeRowForm for NodeRows {
    fn from_nodes<'a>(len: usize, nodes: impl Iterator<Item = &'a Node>) -> NodeRows {
        let mut ops = Vec::with_capacity(len);
        let mut dense = vec![0.0; len * DENSE_DIM];
        for (cols, node) in dense.chunks_exact_mut(DENSE_DIM).zip(nodes) {
            ops.push(node.op);
            dense_cols(cols, node);
        }
        NodeRows {
            rows: len,
            ops,
            dense,
        }
    }

    fn dense_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.dense.chunks_exact(DENSE_DIM)
    }
}

/// The features of a whole model, node rows in form `N`.
fn graph_features<N: NodeRowForm>(g: &Graph) -> Features<N> {
    let total = cost::graph_totals(g, DType::F32);
    Features {
        nodes: N::from_nodes(g.len(), g.nodes.iter()),
        adj: Csr::from_graph(g),
        stat: [
            g.input_shape.batch() as f64,
            total.flops,
            total.params,
            total.mem_bytes(),
        ],
    }
}

/// Extract features for a whole model.
pub fn extract_features(g: &Graph) -> GraphFeatures {
    graph_features(g)
}

/// [`extract_features`] with compact node rows, built from the nodes.
pub fn extract_compact_features(g: &Graph) -> CompactFeatures {
    graph_features(g)
}

/// Extract features for one fused kernel of a graph: the member nodes form
/// a miniature graph (NNLP "can be applied to different levels of neural
/// networks, such as ops, sub-graphs and whole networks", §8.5).
pub fn extract_kernel_features(g: &Graph, k: &Kernel) -> GraphFeatures {
    kernel_features(g, k)
}

/// [`extract_kernel_features`] with compact node rows, for a training set
/// of kernels.
pub(crate) fn extract_compact_kernel_features(g: &Graph, k: &Kernel) -> CompactFeatures {
    kernel_features(g, k)
}

fn kernel_features<N: NodeRowForm>(g: &Graph, k: &Kernel) -> Features<N> {
    let mut flops = 0.0;
    let mut params = 0.0;
    let mut mem = 0.0;
    for &id in &k.nodes {
        let c = cost::node_cost(g, id, DType::F32);
        flops += c.flops;
        params += c.params;
        mem += c.mem_bytes();
    }
    // Local adjacency: edges among member nodes only.
    let local: std::collections::HashMap<u32, u32> = k
        .nodes
        .iter()
        .enumerate()
        .map(|(i, id)| (id.0, i as u32))
        .collect();
    let mut edges = Vec::new();
    for &id in &k.nodes {
        for &inp in &g.node(id).inputs {
            if let (Some(&a), Some(&b)) = (local.get(&inp.0), local.get(&id.0)) {
                edges.push((a, b));
            }
        }
    }
    Features {
        nodes: N::from_nodes(k.nodes.len(), k.nodes.iter().map(|&id| g.node(id))),
        adj: Csr::from_edges(k.nodes.len(), &edges),
        stat: [g.input_shape.batch() as f64, flops, params, mem],
    }
}

/// Standardization statistics fitted on a training corpus.
#[derive(Debug, Clone)]
pub struct Normalizer {
    node_mu: Vec<f32>,
    node_sd: Vec<f32>,
    stat_mu: [f32; STATIC_DIM],
    stat_sd: [f32; STATIC_DIM],
}

impl Normalizer {
    /// JSON value form (checkpointing).
    pub(crate) fn to_value(&self) -> nnlqp_ir::json::Value {
        nnlqp_ir::json!({
            "node_mu": self.node_mu,
            "node_sd": self.node_sd,
            "stat_mu": self.stat_mu,
            "stat_sd": self.stat_sd,
        })
    }

    /// Inverse of [`Normalizer::to_value`].
    pub(crate) fn from_value(v: &nnlqp_ir::json::Value) -> Result<Self, String> {
        fn f32s(v: &nnlqp_ir::json::Value, what: &str) -> Result<Vec<f32>, String> {
            v.as_array()
                .and_then(|a| {
                    a.iter()
                        .map(|x| x.as_f64().map(|f| f as f32))
                        .collect::<Option<Vec<f32>>>()
                })
                .ok_or_else(|| format!("normalizer {what} missing"))
        }
        fn stat(v: &nnlqp_ir::json::Value, what: &str) -> Result<[f32; STATIC_DIM], String> {
            f32s(v, what)?
                .try_into()
                .map_err(|_| format!("normalizer {what} has wrong length"))
        }
        Ok(Normalizer {
            node_mu: f32s(&v["node_mu"], "node_mu")?,
            node_sd: f32s(&v["node_sd"], "node_sd")?,
            stat_mu: stat(&v["stat_mu"], "stat_mu")?,
            stat_sd: stat(&v["stat_sd"], "stat_sd")?,
        })
    }

    /// Fit per-dimension mean/std over all nodes of all training graphs,
    /// in either row form, and over the log-scaled static features. Only
    /// the attribute and shape columns are fitted: the one-hot block keeps
    /// mean 0 and deviation 1, so standardizing leaves it as it is.
    pub fn fit<N: NodeRowForm>(feats: &[&Features<N>]) -> Normalizer {
        assert!(!feats.is_empty(), "cannot fit normalizer on empty corpus");
        let mut mu = [0.0f64; DENSE_DIM];
        let mut sq = [0.0f64; DENSE_DIM];
        let mut count = 0.0f64;
        for f in feats {
            for row in f.nodes.dense_rows() {
                for (j, &v) in row.iter().enumerate() {
                    mu[j] += v as f64;
                    sq[j] += (v as f64) * (v as f64);
                }
                count += 1.0;
            }
        }
        let mut node_mu = vec![0.0f32; NODE_FEAT_DIM];
        let mut node_sd = vec![1.0f32; NODE_FEAT_DIM];
        for j in 0..DENSE_DIM {
            let m = mu[j] / count;
            let var = (sq[j] / count - m * m).max(0.0);
            node_mu[NUM_OP_TYPES + j] = m as f32;
            node_sd[NUM_OP_TYPES + j] = (var.sqrt() as f32).max(1e-4);
        }
        let mut smu = [0.0f64; STATIC_DIM];
        let mut ssq = [0.0f64; STATIC_DIM];
        for f in feats {
            for j in 0..STATIC_DIM {
                let v = log1p(f.stat[j]) as f64;
                smu[j] += v;
                ssq[j] += v * v;
            }
        }
        let n = feats.len() as f64;
        let mut stat_mu = [0.0f32; STATIC_DIM];
        let mut stat_sd = [1.0f32; STATIC_DIM];
        for j in 0..STATIC_DIM {
            let m = smu[j] / n;
            let var = (ssq[j] / n - m * m).max(0.0);
            stat_mu[j] = m as f32;
            stat_sd[j] = (var.sqrt() as f32).max(1e-4);
        }
        Normalizer {
            node_mu,
            node_sd,
            stat_mu,
            stat_sd,
        }
    }

    /// Standardized node-feature matrix.
    pub fn normalize_nodes(&self, nodes: &Matrix) -> Matrix {
        let mut out = nodes.clone();
        self.normalize_nodes_into(nodes, &mut out);
        out
    }

    /// [`Normalizer::normalize_nodes`] into a caller-provided matrix of
    /// the same shape (the inference path hands in a scratch buffer), in
    /// one pass.
    pub fn normalize_nodes_into(&self, nodes: &Matrix, out: &mut Matrix) {
        assert_eq!((out.rows, out.cols), (nodes.rows, nodes.cols));
        let rows = out.data.chunks_exact_mut(out.cols.max(1));
        for (out, raw) in rows.zip(nodes.data.chunks_exact(nodes.cols.max(1))) {
            for (((o, &v), &mu), &sd) in out
                .iter_mut()
                .zip(raw)
                .zip(&self.node_mu)
                .zip(&self.node_sd)
            {
                *o = (v - mu) / sd;
            }
        }
    }

    /// Standardize compact node rows where they lie (training keeps one
    /// set of rows per structure, not a raw and a normalized copy).
    pub fn normalize_rows_in_place(&self, nodes: &mut NodeRows) {
        let mu = &self.node_mu[NUM_OP_TYPES..];
        let sd = &self.node_sd[NUM_OP_TYPES..];
        for row in nodes.dense.chunks_exact_mut(DENSE_DIM) {
            for ((v, &mu), &sd) in row.iter_mut().zip(mu).zip(sd) {
                *v = (*v - mu) / sd;
            }
        }
    }

    /// Standardized static-feature vector.
    pub fn normalize_stat(&self, stat: &[f64; STATIC_DIM]) -> [f32; STATIC_DIM] {
        let mut out = [0.0f32; STATIC_DIM];
        for j in 0..STATIC_DIM {
            out[j] = (log1p(stat[j]) - self.stat_mu[j]) / self.stat_sd[j];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_ir::{GraphBuilder, OpType, Shape};
    use nnlqp_sim::fusion;

    fn sample_graph() -> Graph {
        let mut b = GraphBuilder::new("f", Shape::nchw(2, 3, 32, 32));
        let c = b.conv(None, 16, 3, 2, 1, 1).unwrap();
        let r = b.relu(c).unwrap();
        let g = b.global_avgpool(r).unwrap();
        let f = b.flatten(g).unwrap();
        b.gemm(f, 10).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn node_feature_dimensions() {
        let g = sample_graph();
        let f = extract_features(&g);
        assert_eq!(f.nodes.rows, g.len());
        assert_eq!(f.nodes.cols, NODE_FEAT_DIM);
        assert_eq!(f.adj.n(), g.len());
    }

    #[test]
    fn shape_log1p_table_is_the_call_bit_for_bit() {
        let edges = [LOG1P_TABLE_LEN - 1, LOG1P_TABLE_LEN, usize::MAX];
        for v in (0..LOG1P_TABLE_LEN + 64).chain(edges) {
            assert_eq!(log1p_dim(v).to_bits(), log1p(v as f64).to_bits(), "{v}");
        }
    }

    #[test]
    fn one_hot_block_is_exclusive() {
        let g = sample_graph();
        let f = extract_features(&g);
        for (i, (_, node)) in g.iter().enumerate() {
            let row = f.nodes.row(i);
            let ones: Vec<usize> = (0..NUM_OP_TYPES).filter(|&j| row[j] == 1.0).collect();
            assert_eq!(ones, vec![node.op.code()]);
        }
    }

    #[test]
    fn static_features_are_batch_flops_params_mac() {
        let g = sample_graph();
        let f = extract_features(&g);
        let gc = cost::graph_cost(&g, DType::F32);
        assert_eq!(f.stat[0], 2.0);
        assert_eq!(f.stat[1], gc.flops);
        assert_eq!(f.stat[2], gc.params);
        assert_eq!(f.stat[3], gc.mem_bytes);
    }

    #[test]
    fn normalizer_standardizes_attr_and_shape_blocks() {
        let g = sample_graph();
        let f = extract_features(&g);
        let norm = Normalizer::fit(&[&f]);
        let nn = norm.normalize_nodes(&f.nodes);
        // One-hot block untouched.
        for i in 0..nn.rows {
            for j in 0..NUM_OP_TYPES {
                assert_eq!(nn.get(i, j), f.nodes.get(i, j));
            }
        }
        // Attr/shape columns have ~zero mean over this corpus.
        for j in NUM_OP_TYPES..NODE_FEAT_DIM {
            let mean: f32 = (0..nn.rows).map(|i| nn.get(i, j)).sum::<f32>() / nn.rows as f32;
            assert!(mean.abs() < 1e-4, "col {j} mean {mean}");
        }
    }

    #[test]
    fn normalizer_static_zero_mean() {
        let g = sample_graph();
        let f = extract_features(&g);
        let g2 = g.rebatch(8).unwrap();
        let f2 = extract_features(&g2);
        let norm = Normalizer::fit(&[&f, &f2]);
        let a = norm.normalize_stat(&f.stat);
        let b = norm.normalize_stat(&f2.stat);
        for j in 0..STATIC_DIM {
            assert!((a[j] + b[j]).abs() < 1e-3, "dim {j}: {} {}", a[j], b[j]);
        }
    }

    #[test]
    fn kernel_features_are_subgraphs() {
        let g = sample_graph();
        let kernels = fusion::fuse(&g);
        // First kernel: Conv+Relu (2 nodes).
        let k = &kernels[0];
        assert_eq!(k.nodes.len(), 2);
        let f = extract_kernel_features(&g, k);
        assert_eq!(f.nodes.rows, 2);
        // Internal edge conv->relu present.
        assert_eq!(f.adj.neighbors(0), &[1]);
        assert_eq!(f.adj.neighbors(1), &[0]);
        // Op one-hots match member nodes.
        assert_eq!(f.nodes.get(0, OpType::Conv.code()), 1.0);
        assert_eq!(f.nodes.get(1, OpType::Relu.code()), 1.0);
        assert!(f.stat[1] > 0.0);
    }

    #[test]
    fn single_node_kernel_has_no_edges() {
        let g = sample_graph();
        let kernels = fusion::fuse(&g);
        let single = kernels.iter().find(|k| k.nodes.len() == 1).unwrap();
        let f = extract_kernel_features(&g, single);
        assert_eq!(f.adj.neighbors(0), &[] as &[u32]);
    }

    /// Compact rows are the dense rows less their one-hot block: over the
    /// generated corpus both forms fit the same normalizer, and a
    /// normalized compact row densifies to `normalize_nodes_into` of the
    /// dense row, bit for bit.
    #[test]
    fn densified_compact_rows_are_the_normalized_dense_rows_bit_for_bit() {
        let spec = nnlqp_models::DatasetSpec {
            per_family: 3,
            seed: 5,
        };
        let graphs: Vec<Graph> = (nnlqp_models::generate_dataset(&spec).into_iter())
            .map(|m| m.graph)
            .collect();
        let dense: Vec<GraphFeatures> = graphs.iter().map(extract_features).collect();
        let compact: Vec<CompactFeatures> = graphs.iter().map(extract_compact_features).collect();
        let norm = Normalizer::fit(&compact.iter().collect::<Vec<_>>());
        let dense_norm = Normalizer::fit(&dense.iter().collect::<Vec<_>>());
        assert_eq!(format!("{norm:?}"), format!("{dense_norm:?}"));

        let bits = |m: &Matrix| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (i, (d, mut c)) in dense.iter().zip(compact).enumerate() {
            assert_eq!(bits(&c.nodes.to_matrix()), bits(&d.nodes), "graph {i}, raw");
            let mut want = Matrix::zeros(d.nodes.rows, NODE_FEAT_DIM);
            norm.normalize_nodes_into(&d.nodes, &mut want);
            norm.normalize_rows_in_place(&mut c.nodes);
            // Densified into a buffer that held NaNs: every element is written.
            let mut scratch = Scratch::new();
            let mut dirty = scratch.take(want.rows, want.cols);
            dirty.data.fill(f32::NAN);
            scratch.put(dirty);
            let got = c.nodes.densify(&mut scratch);
            assert_eq!((got.rows, got.cols), (want.rows, want.cols));
            assert_eq!(bits(&got), bits(&want), "graph {i}, normalized");
        }
    }
}
