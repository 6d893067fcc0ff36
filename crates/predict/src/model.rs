//! The NNLP predictor: shared GNN backbone + per-platform MLP heads.
//!
//! One configurable model covers the whole experimental matrix:
//!
//! * full NNLP (Table 3 winner): SAGE backbone, sum pooling, static
//!   features;
//! * `wo/F0`, `wo/gnn`, `wo/static` (Table 4 ablations);
//! * BRP-NAS (Appendix E): same node features, GNN backbone, but *no*
//!   static features and mean pooling — the configuration that "can not
//!   extract useful graph embedding of the entire model".

use crate::features::{GraphFeatures, Normalizer, NODE_FEAT_DIM, STATIC_DIM};
use crate::predictor::Predictor;
use crate::train::{adam_linears, Gradient, Grads, Sample, Trainable};
use nnlqp_ir::json::Value;
use nnlqp_ir::Rng64;
use nnlqp_nn::{
    layers::mse_loss, relu_backward_inplace, relu_inplace, sage::SageCache, Activation, Adam, Csr,
    Dropout, Linear, LinearGrad, Matrix, SageGrad, SageLayer, Scratch,
};

/// Conditioning factor applied to the sum-pooled graph embedding; see the
/// comment at the pooling site. Shared with the transformer encoder so
/// both architectures pool into comparably conditioned embeddings.
pub(crate) const SUM_POOL_SCALE: f32 = 1.0 / 32.0;

/// Model hyper-parameters and ablation switches.
#[derive(Debug, Clone, Copy)]
pub struct NnlpConfig {
    /// Node feature width (normally [`NODE_FEAT_DIM`]).
    pub node_feat_dim: usize,
    /// GNN hidden width.
    pub hidden: usize,
    /// Number of SAGEConv layers (`d` in Eq. 4).
    pub gnn_layers: usize,
    /// Head hidden width.
    pub head_hidden: usize,
    /// Number of prediction heads (platforms).
    pub n_heads: usize,
    /// Dropout probability in the heads.
    pub dropout: f64,
    /// Use node features at all (`false` = wo/F0: static features only).
    pub use_node_feats: bool,
    /// Run the GNN (`false` = wo/gnn: raw node features pooled directly).
    pub use_gnn: bool,
    /// Concatenate the four static features (`false` = wo/static).
    pub use_static: bool,
    /// Mean pooling instead of the paper's sum (BRP-NAS emulation).
    pub mean_pool: bool,
}

impl Default for NnlpConfig {
    fn default() -> Self {
        NnlpConfig {
            node_feat_dim: NODE_FEAT_DIM,
            hidden: 64,
            gnn_layers: 3,
            head_hidden: 64,
            n_heads: 1,
            dropout: 0.05,
            use_node_feats: true,
            use_gnn: true,
            use_static: true,
            mean_pool: false,
        }
    }
}

impl NnlpConfig {
    /// Table 4's `wo/F0`: static features only.
    pub fn without_node_features() -> Self {
        NnlpConfig {
            use_node_feats: false,
            use_gnn: false,
            ..Default::default()
        }
    }

    /// Table 4's `wo/gnn`: raw node features pooled without convolution.
    pub fn without_gnn() -> Self {
        NnlpConfig {
            use_gnn: false,
            ..Default::default()
        }
    }

    /// Table 4's `wo/static`.
    pub fn without_static() -> Self {
        NnlpConfig {
            use_static: false,
            ..Default::default()
        }
    }

    /// BRP-NAS configuration (Appendix E).
    pub fn brp_nas() -> Self {
        NnlpConfig {
            use_static: false,
            mean_pool: true,
            gnn_layers: 4,
            ..Default::default()
        }
    }

    /// Width of the pooled graph embedding entering a head.
    pub fn embedding_dim(&self) -> usize {
        let graph_part = if !self.use_node_feats {
            0
        } else if self.use_gnn {
            self.hidden
        } else {
            self.node_feat_dim
        };
        graph_part + if self.use_static { STATIC_DIM } else { 0 }
    }
}

/// A head's log-space output (`ln(1 + y)`, the training target) mapped
/// back to output units, clamped positive.
pub(crate) fn log_to_units(pred: f32) -> f64 {
    (pred as f64).exp_m1().max(1e-6)
}

/// One platform head: FC -> ReLU -> Dropout -> FC -> ReLU -> FC(1)
/// ("the prediction head is composed of Fully Connected (FC) layers, Relu
/// layers, and Dropout layers", §6.2).
#[derive(Debug, Clone)]
pub struct Head {
    /// First FC.
    pub l1: Linear,
    /// Second FC.
    pub l2: Linear,
    /// Output FC.
    pub l3: Linear,
}

/// Head activations cached for backward.
#[derive(Debug, Clone)]
pub struct HeadCache {
    x: Matrix,
    z1: Matrix,
    a1_drop: Matrix,
    mask: Option<Vec<bool>>,
    z2: Matrix,
    a2: Matrix,
}

impl HeadCache {
    /// Return every matrix to the arena the forward drew them from.
    pub(crate) fn recycle(self, scratch: &mut Scratch) {
        for m in [self.x, self.z1, self.a1_drop, self.z2, self.a2] {
            scratch.put(m);
        }
    }
}

/// Head gradients.
#[derive(Debug, Clone)]
pub struct HeadGrad {
    /// dL/d(l1).
    pub d1: LinearGrad,
    /// dL/d(l2).
    pub d2: LinearGrad,
    /// dL/d(l3).
    pub d3: LinearGrad,
}

impl Gradient for HeadGrad {
    fn add_assign(&mut self, o: &HeadGrad) {
        self.d1.add_assign(&o.d1);
        self.d2.add_assign(&o.d2);
        self.d3.add_assign(&o.d3);
    }

    fn scale(&mut self, s: f32) {
        self.d1.scale(s);
        self.d2.scale(s);
        self.d3.scale(s);
    }

    fn recycle(self, scratch: &mut Scratch) {
        self.d1.recycle(scratch);
        self.d2.recycle(scratch);
        self.d3.recycle(scratch);
    }
}

/// The SAGE backbone's gradient: one per layer.
impl Gradient for Vec<SageGrad> {
    fn add_assign(&mut self, other: &Self) {
        for (a, g) in self.iter_mut().zip(other) {
            a.add_assign(g);
        }
    }

    fn scale(&mut self, s: f32) {
        for g in self {
            g.scale(s);
        }
    }

    fn recycle(self, scratch: &mut Scratch) {
        for g in self {
            g.recycle(scratch);
        }
    }
}

impl Head {
    pub(crate) fn new(in_dim: usize, hidden: usize, rng: &mut Rng64) -> Head {
        Head {
            l1: Linear::new(in_dim, hidden, rng),
            l2: Linear::new(hidden, hidden, rng),
            l3: Linear::new(hidden, 1, rng),
        }
    }

    /// Training forward over the embedding `x` (a `scratch` buffer the
    /// cache takes over), every intermediate drawn from `scratch`.
    pub(crate) fn forward(
        &self,
        x: Matrix,
        dropout: f64,
        rng: Option<&mut Rng64>,
        scratch: &mut Scratch,
    ) -> (f32, HeadCache) {
        // A pre-activation on the fused GEMM+bias kernel, and its ReLU on
        // a copy: the backward pass needs both.
        let mut layer = |l: &Linear, x: &Matrix| {
            let mut z = scratch.take(x.rows, l.w.cols);
            l.forward_into(x, Activation::Identity, &mut z, scratch.pack_buf());
            let mut a = scratch.take(z.rows, z.cols);
            a.data.copy_from_slice(&z.data);
            relu_inplace(&mut a);
            (z, a)
        };
        let (z1, mut a1_drop) = layer(&self.l1, &x);
        let mask = match rng {
            Some(r) if dropout > 0.0 => Some(Dropout { p: dropout }.forward_train(&mut a1_drop, r)),
            _ => None,
        };
        let (z2, a2) = layer(&self.l2, &a1_drop);
        let mut out = scratch.take(a2.rows, 1);
        self.l3
            .forward_into(&a2, Activation::Identity, &mut out, scratch.pack_buf());
        let pred = out.get(0, 0);
        scratch.put(out);
        (
            pred,
            HeadCache {
                x,
                z1,
                a1_drop,
                mask,
                z2,
                a2,
            },
        )
    }

    /// Inference-only forward on the fused GEMM+bias+activation kernels
    /// over a matrix of embeddings, one per row; `out[i]` is row `i`'s
    /// prediction in output units ([`log_to_units`]). Three GEMMs whatever
    /// the height, every intermediate drawn from `scratch`. Each output
    /// element accumulates its k-terms in ascending order from `+0.0`
    /// whatever the row count and the epilogue is row-wise, so a row's
    /// answer does not depend on which rows it is stacked with, and is
    /// identical, bit for bit, to [`Head::forward`] with dropout
    /// disabled.
    pub(crate) fn eval(&self, x: &Matrix, scratch: &mut Scratch, out: &mut [f64]) {
        assert_eq!(out.len(), x.rows, "one output per embedding row");
        let mut a1 = scratch.take(x.rows, self.l1.w.cols);
        self.l1
            .forward_into(x, Activation::Relu, &mut a1, scratch.pack_buf());
        let mut a2 = scratch.take(a1.rows, self.l2.w.cols);
        self.l2
            .forward_into(&a1, Activation::Relu, &mut a2, scratch.pack_buf());
        let mut y = scratch.take(a2.rows, 1);
        self.l3
            .forward_into(&a2, Activation::Identity, &mut y, scratch.pack_buf());
        for (o, &pred) in out.iter_mut().zip(&y.data) {
            *o = log_to_units(pred);
        }
        scratch.put(a1);
        scratch.put(a2);
        scratch.put(y);
    }

    /// Apply a gradient with Adam, as platform head `idx`. Heads own the
    /// optimizer keys from 10,000 up, eight per head, clear of every
    /// backbone's, so no two tensors ever share Adam state.
    pub fn apply_grads(&mut self, idx: usize, g: &HeadGrad, opt: &mut Adam) {
        let layers = [
            (&mut self.l1, &g.d1),
            (&mut self.l2, &g.d2),
            (&mut self.l3, &g.d3),
        ];
        adam_linears(opt, 10_000 + (idx as u64) * 8, layers);
    }

    /// Backward from the loss gradient `d_pred`; returns the embedding
    /// gradient and the head's parameter gradients, all in `scratch`
    /// buffers.
    pub(crate) fn backward(
        &self,
        cache: &HeadCache,
        d_pred: f32,
        dropout: f64,
        scratch: &mut Scratch,
    ) -> (Matrix, HeadGrad) {
        let mut dy = scratch.take(1, 1);
        dy.set(0, 0, d_pred);
        // Both halves of one linear layer's backward; `dy` is spent.
        let mut through = |l: &Linear, x: &Matrix, dy: Matrix| {
            let mut dx = scratch.take(dy.rows, l.w.rows);
            l.input_grad_into(&dy, &mut dx);
            let grad = Linear::param_grad(x, &dy, scratch);
            scratch.put(dy);
            (dx, grad)
        };
        let (mut d_z2, d3) = through(&self.l3, &cache.a2, dy);
        relu_backward_inplace(&cache.z2, &mut d_z2);
        let (mut d_z1, d2) = through(&self.l2, &cache.a1_drop, d_z2);
        if let Some(m) = &cache.mask {
            Dropout { p: dropout }.backward(m, &mut d_z1);
        }
        relu_backward_inplace(&cache.z1, &mut d_z1);
        let (d_x, d1) = through(&self.l1, &cache.x, d_z1);
        (d_x, HeadGrad { d1, d2, d3 })
    }
}

/// The full predictor.
#[derive(Debug, Clone)]
pub struct NnlpModel {
    /// Configuration (immutable after construction).
    pub cfg: NnlpConfig,
    /// SAGE backbone (`f(;alpha)` in the paper).
    pub sage: Vec<SageLayer>,
    /// Per-platform heads (`g(;beta_P)`).
    pub heads: Vec<Head>,
    /// Feature normalizer fitted on the training corpus.
    pub norm: Normalizer,
}

impl NnlpConfig {
    fn to_value(self) -> Value {
        nnlqp_ir::json!({
            "node_feat_dim": self.node_feat_dim,
            "hidden": self.hidden,
            "gnn_layers": self.gnn_layers,
            "head_hidden": self.head_hidden,
            "n_heads": self.n_heads,
            "dropout": self.dropout,
            "use_node_feats": self.use_node_feats,
            "use_gnn": self.use_gnn,
            "use_static": self.use_static,
            "mean_pool": self.mean_pool,
        })
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let dim = |key: &str| {
            v[key]
                .as_u64()
                .map(|x| x as usize)
                .ok_or_else(|| format!("config {key} missing"))
        };
        let flag = |key: &str| {
            v[key]
                .as_bool()
                .ok_or_else(|| format!("config {key} missing"))
        };
        Ok(NnlpConfig {
            node_feat_dim: dim("node_feat_dim")?,
            hidden: dim("hidden")?,
            gnn_layers: dim("gnn_layers")?,
            head_hidden: dim("head_hidden")?,
            n_heads: dim("n_heads")?,
            dropout: v["dropout"].as_f64().ok_or("config dropout missing")?,
            use_node_feats: flag("use_node_feats")?,
            use_gnn: flag("use_gnn")?,
            use_static: flag("use_static")?,
            mean_pool: flag("mean_pool")?,
        })
    }
}

impl Head {
    pub(crate) fn to_value(&self) -> Value {
        nnlqp_ir::json!({
            "l1": self.l1.to_value(),
            "l2": self.l2.to_value(),
            "l3": self.l3.to_value(),
        })
    }

    pub(crate) fn from_value(v: &Value) -> Result<Self, String> {
        Ok(Head {
            l1: Linear::from_value(&v["l1"])?,
            l2: Linear::from_value(&v["l2"])?,
            l3: Linear::from_value(&v["l3"])?,
        })
    }
}

impl NnlpModel {
    /// JSON value form (checkpointing).
    pub fn to_value(&self) -> Value {
        let sage: Vec<Value> = self.sage.iter().map(SageLayer::to_value).collect();
        let heads: Vec<Value> = self.heads.iter().map(Head::to_value).collect();
        nnlqp_ir::json!({
            "cfg": self.cfg.to_value(),
            "sage": sage,
            "heads": heads,
            "norm": self.norm.to_value(),
        })
    }

    /// Inverse of [`NnlpModel::to_value`].
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let seq = |key: &str| {
            v[key]
                .as_array()
                .ok_or_else(|| format!("model {key} missing"))
        };
        Ok(NnlpModel {
            cfg: NnlpConfig::from_value(&v["cfg"])?,
            sage: seq("sage")?
                .iter()
                .map(SageLayer::from_value)
                .collect::<Result<_, _>>()?,
            heads: seq("heads")?
                .iter()
                .map(Head::from_value)
                .collect::<Result<_, _>>()?,
            norm: Normalizer::from_value(&v["norm"])?,
        })
    }
}

/// Per-sample caches for the backward pass.
pub struct ForwardCache {
    sage: Vec<SageCache>,
    head: HeadCache,
    head_idx: usize,
}

impl NnlpModel {
    /// Fresh model with `cfg.n_heads` heads.
    pub fn new(cfg: NnlpConfig, norm: Normalizer, rng: &mut Rng64) -> Self {
        let mut sage = Vec::new();
        if cfg.use_node_feats && cfg.use_gnn {
            let mut d_in = cfg.node_feat_dim;
            for _ in 0..cfg.gnn_layers {
                sage.push(SageLayer::new(d_in, cfg.hidden, rng));
                d_in = cfg.hidden;
            }
        }
        let heads = (0..cfg.n_heads)
            .map(|_| Head::new(cfg.embedding_dim(), cfg.head_hidden, rng))
            .collect();
        NnlpModel {
            cfg,
            sage,
            heads,
            norm,
        }
    }

    /// Add a head for a new (unseen) platform; returns its index.
    pub fn add_head(&mut self, rng: &mut Rng64) -> usize {
        self.heads.push(Head::new(
            self.cfg.embedding_dim(),
            self.cfg.head_hidden,
            rng,
        ));
        self.cfg.n_heads = self.heads.len();
        self.heads.len() - 1
    }

    /// Add a head warm-started as a copy of an existing platform's head.
    /// For platform transfer (Fig. 7) this puts the new head at a
    /// calibrated output scale, so few-sample fine-tuning only has to
    /// learn the platform *difference*.
    pub fn add_head_from(&mut self, src: usize) -> usize {
        let head = self.heads[src].clone();
        self.heads.push(head);
        self.cfg.n_heads = self.heads.len();
        self.heads.len() - 1
    }

    /// Factor applied to the pooled node embeddings. Sum pooling (Eq. 5)
    /// keeps graph-size information, but its magnitude grows with node
    /// count, which mis-conditions the Kaiming-initialized head; a fixed
    /// scale restores unit-order inputs without losing the size signal.
    fn pool_scale(&self, n_nodes: usize) -> f32 {
        if self.cfg.mean_pool {
            1.0 / n_nodes.max(1) as f32
        } else {
            SUM_POOL_SCALE
        }
    }

    /// Width of the graph (non-static) part of the embedding.
    fn graph_dim(&self) -> usize {
        self.cfg.embedding_dim() - if self.cfg.use_static { STATIC_DIM } else { 0 }
    }

    /// Forward pass on *normalized* inputs. `rng` enables dropout
    /// (training mode). Returns the prediction in `ln(1+ms)` space.
    /// [`Trainable::loss_and_grads`]'s forward over a private arena.
    pub fn forward(
        &self,
        nodes: &Matrix,
        adj: &Csr,
        stat: &[f32; STATIC_DIM],
        head_idx: usize,
        rng: Option<&mut Rng64>,
    ) -> (f32, ForwardCache) {
        self.forward_in(nodes, adj, stat, head_idx, rng, &mut Scratch::new())
    }

    /// [`NnlpModel::forward`] with every intermediate, and the cache,
    /// drawn from `scratch`. Layer `i`'s input is layer `i - 1`'s cached
    /// output (or `nodes`), borrowed rather than copied.
    fn forward_in(
        &self,
        nodes: &Matrix,
        adj: &Csr,
        stat: &[f32; STATIC_DIM],
        head_idx: usize,
        rng: Option<&mut Rng64>,
        scratch: &mut Scratch,
    ) -> (f32, ForwardCache) {
        let mut caches: Vec<SageCache> = Vec::with_capacity(self.sage.len());
        let graph_dim = self.graph_dim();
        let mut x = scratch.take(1, self.cfg.embedding_dim());
        if self.cfg.use_node_feats {
            if self.cfg.use_gnn {
                for layer in &self.sage {
                    let input = caches.last().map_or(nodes, SageCache::output);
                    let cache = layer.forward(input, adj, scratch);
                    caches.push(cache);
                }
            }
            let h = caches.last().map_or(nodes, SageCache::output);
            let pooled = &mut x.data[..graph_dim];
            h.col_sums_into(pooled);
            let inv = self.pool_scale(h.rows);
            for v in pooled {
                *v *= inv;
            }
        }
        if self.cfg.use_static {
            x.data[graph_dim..].copy_from_slice(stat);
        }
        let (pred, head) = self.heads[head_idx].forward(x, self.cfg.dropout, rng, scratch);
        let cache = ForwardCache {
            sage: caches,
            head,
            head_idx,
        };
        (pred, cache)
    }

    /// Backward pass; `d_pred` is the loss gradient wrt the scalar output,
    /// `nodes` and `adj` what the forward saw. The cache's buffers go back
    /// to `scratch`; the gradients' come out of it ([`Grads::recycle`]).
    pub fn backward(
        &self,
        cache: ForwardCache,
        d_pred: f32,
        nodes: &Matrix,
        adj: &Csr,
        scratch: &mut Scratch,
    ) -> Grads<Vec<SageGrad>> {
        let head_idx = cache.head_idx;
        let (d_emb, head_grad) =
            self.heads[head_idx].backward(&cache.head, d_pred, self.cfg.dropout, scratch);
        cache.head.recycle(scratch);
        let mut caches = cache.sage;
        let mut sage_grads: Vec<SageGrad> = Vec::with_capacity(caches.len());
        if !caches.is_empty() {
            // Un-pool: sum pooling broadcasts the gradient to every node
            // (the static part of `d_emb` has no parameters behind it).
            let n = nodes.rows;
            let graph_dim = self.graph_dim();
            let scale = self.pool_scale(n);
            let mut d_h = scratch.take(n, graph_dim);
            for row in d_h.data.chunks_exact_mut(graph_dim.max(1)) {
                for (d, &e) in row.iter_mut().zip(&d_emb.data) {
                    *d = e * scale;
                }
            }
            // Walk the SAGE stack backwards. The first layer's input is
            // the node features: nothing upstream wants its gradient.
            while let Some(c) = caches.pop() {
                let i = caches.len();
                let layer = &self.sage[i];
                let input = caches.last().map_or(nodes, SageCache::output);
                let (d_pre, g) = layer.param_grads(input, &c, d_h, scratch);
                sage_grads.push(g);
                c.recycle(scratch);
                d_h = if i > 0 {
                    let dx = layer.input_grad(&d_pre, adj, scratch);
                    scratch.put(d_pre);
                    dx
                } else {
                    d_pre
                };
            }
            scratch.put(d_h);
            sage_grads.reverse();
        }
        scratch.put(d_emb);
        Grads {
            backbone: sage_grads,
            head: head_grad,
            head_idx,
        }
    }

    /// Backbone and pooling on the inference kernels over already
    /// *normalized* inputs: the shared graph embedding (`f(;alpha)` in the
    /// paper, static features appended), every intermediate drawn from
    /// `scratch`.
    fn embed_normalized(
        &self,
        nodes: &Matrix,
        adj: &Csr,
        stat: &[f32; STATIC_DIM],
        scratch: &mut Scratch,
    ) -> Vec<f32> {
        // Sized once for the pooled part and the static features after it.
        let mut emb = Vec::with_capacity(self.cfg.embedding_dim());
        if self.cfg.use_node_feats {
            let mut h: Option<Matrix> = None;
            if self.cfg.use_gnn {
                for layer in &self.sage {
                    let next = layer.forward_eval(h.as_ref().unwrap_or(nodes), adj, scratch);
                    if let Some(prev) = h.replace(next) {
                        scratch.put(prev);
                    }
                }
            }
            let last = h.as_ref().unwrap_or(nodes);
            emb.resize(last.cols, 0.0);
            last.col_sums_into(&mut emb);
            let inv = self.pool_scale(last.rows);
            for v in &mut emb {
                *v *= inv;
            }
            if let Some(h) = h {
                scratch.put(h);
            }
        }
        if self.cfg.use_static {
            emb.extend_from_slice(stat);
        }
        emb
    }

    /// Latency in milliseconds for one already *normalized* sample, on
    /// the inference kernels — what evaluation loops over a dataset run.
    pub(crate) fn predict_normalized_ms(
        &self,
        nodes: &Matrix,
        adj: &Csr,
        stat: &[f32; STATIC_DIM],
        head_idx: usize,
        scratch: &mut Scratch,
    ) -> f64 {
        let emb = self.embed_normalized(nodes, adj, stat, scratch);
        let mut ms = [0.0];
        self.heads[head_idx].eval(&Matrix::from_rows(1, emb.len(), emb), scratch, &mut ms);
        ms[0]
    }

    /// The expensive half of a prediction: normalize the raw features, run
    /// the GNN backbone and pool into the shared graph embedding, drawing
    /// every intermediate from `scratch`. The cheap half is
    /// [`Predictor::head_eval_rows`]; composed they reproduce the training
    /// path's forward bit for bit.
    pub fn embed_with(&self, feats: &GraphFeatures, scratch: &mut Scratch) -> Vec<f32> {
        let stat = self.norm.normalize_stat(&feats.stat);
        if !self.cfg.use_node_feats {
            // The node features go unread: nothing to normalize.
            return self.embed_normalized(&feats.nodes, &feats.adj, &stat, scratch);
        }
        let mut nodes = scratch.take(feats.nodes.rows, feats.nodes.cols);
        self.norm.normalize_nodes_into(&feats.nodes, &mut nodes);
        let emb = self.embed_normalized(&nodes, &feats.adj, &stat, scratch);
        scratch.put(nodes);
        emb
    }

    /// [`NnlpModel::embed_with`] over a private scratch arena.
    pub fn embed(&self, feats: &GraphFeatures) -> Vec<f32> {
        self.embed_with(feats, &mut Scratch::new())
    }

    /// Predict latency in milliseconds for raw (un-normalized) features.
    pub fn predict_ms(&self, feats: &GraphFeatures, head_idx: usize) -> f64 {
        Predictor::predict_ms(self, feats, head_idx)
    }

    /// Predict latency on *every* platform head from a single backbone
    /// pass — the §8.5 efficiency of the multi-head design (the shared
    /// embedding is computed once; heads are cheap).
    pub fn predict_all_heads_ms(&self, feats: &GraphFeatures) -> Vec<f64> {
        let heads: Vec<usize> = (0..self.heads.len()).collect();
        Predictor::predict_batch(self, std::slice::from_ref(feats), &heads).remove(0)
    }

    /// Serialize to JSON (model checkpointing for transfer learning).
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self, String> {
        Self::from_value(&s.parse::<Value>().map_err(|e| e.to_string())?)
    }
}

impl Trainable for NnlpModel {
    type Backbone = Vec<SageGrad>;

    fn loss_and_grads(
        &self,
        s: &Sample,
        rng: &mut Rng64,
        scratch: &mut Scratch,
    ) -> (f64, Grads<Vec<SageGrad>>) {
        let nodes = s.nodes.densify(scratch);
        let (pred, cache) = self.forward_in(&nodes, &s.adj, &s.stat, s.head, Some(rng), scratch);
        let (loss, d_pred) = mse_loss(pred, s.target_log);
        let grads = self.backward(cache, d_pred, &nodes, &s.adj, scratch);
        scratch.put(nodes);
        (loss, grads)
    }

    /// Layer `i`'s keys start at `100 + 8i`.
    fn apply_backbone(&mut self, grads: &Vec<SageGrad>, opt: &mut Adam) {
        for (i, (layer, g)) in self.sage.iter_mut().zip(grads).enumerate() {
            let layers = [(&mut layer.w1, &g.d_w1), (&mut layer.w2, &g.d_w2)];
            adam_linears(opt, 100 + (i as u64) * 8, layers);
        }
    }

    fn heads_mut(&mut self) -> &mut [Head] {
        &mut self.heads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{extract_compact_features, extract_features};
    use crate::train::{make_sample, Structure};
    use nnlqp_ir::{Graph, GraphBuilder, Shape};

    fn tiny_graph() -> Graph {
        let mut b = GraphBuilder::new("t", Shape::nchw(1, 3, 16, 16));
        let c = b.conv(None, 8, 3, 1, 1, 1).unwrap();
        let r = b.relu(c).unwrap();
        let g = b.global_avgpool(r).unwrap();
        let f = b.flatten(g).unwrap();
        b.gemm(f, 10).unwrap();
        b.finish().unwrap()
    }

    fn tiny_feats() -> GraphFeatures {
        extract_features(&tiny_graph())
    }

    /// The tiny graph as a training structure, normalized by `norm`.
    fn tiny_structure(norm: &Normalizer) -> Structure {
        Structure::normalize(extract_compact_features(&tiny_graph()), norm)
    }

    fn make_model(cfg: NnlpConfig) -> (NnlpModel, GraphFeatures) {
        let feats = tiny_feats();
        let norm = Normalizer::fit(&[&feats]);
        let mut rng = Rng64::new(80);
        (NnlpModel::new(cfg, norm, &mut rng), feats)
    }

    #[test]
    fn forward_produces_finite_prediction() {
        let (m, feats) = make_model(NnlpConfig::default());
        let p = m.predict_ms(&feats, 0);
        assert!(p.is_finite() && p > 0.0);
    }

    #[test]
    fn embed_and_head_eval_match_forward_bitwise() {
        for cfg in [
            NnlpConfig::default(),
            NnlpConfig::without_node_features(),
            NnlpConfig::without_gnn(),
            NnlpConfig::without_static(),
            NnlpConfig::brp_nas(),
        ] {
            let (m, feats) = make_model(cfg);
            // Slow path: the training-kernel forward.
            let nodes = m.norm.normalize_nodes(&feats.nodes);
            let stat = m.norm.normalize_stat(&feats.stat);
            let (pred_log, _) = m.forward(&nodes, &feats.adj, &stat, 0, None);
            let want = (pred_log as f64).exp_m1().max(1e-6);
            // Fast path: split embed + head_eval on fused kernels.
            let emb = m.embed(&feats);
            assert_eq!(emb.len(), m.cfg.embedding_dim());
            assert_eq!(m.head_eval(&emb, 0), want);
            assert_eq!(m.predict_ms(&feats, 0), want);
        }
    }

    #[test]
    fn predict_batch_matches_per_sample_bitwise() {
        let (mut m, feats) = make_model(NnlpConfig::default());
        m.add_head(&mut Rng64::new(85));
        let feats2 = {
            let mut b = GraphBuilder::new("t2", Shape::nchw(1, 3, 8, 8));
            let c = b.conv(None, 4, 3, 1, 1, 1).unwrap();
            b.relu(c).unwrap();
            extract_features(&b.finish().unwrap())
        };
        let batch = m.predict_batch(&[feats.clone(), feats2.clone()], &[0, 1]);
        assert_eq!(batch.len(), 2);
        for (f, row) in [&feats, &feats2].into_iter().zip(&batch) {
            assert_eq!(row[0], m.predict_ms(f, 0));
            assert_eq!(row[1], m.predict_ms(f, 1));
        }
        assert_eq!(batch[0], m.predict_all_heads_ms(&feats));
    }

    #[test]
    fn ablation_configs_have_expected_dims() {
        assert_eq!(NnlpConfig::default().embedding_dim(), 64 + 4);
        assert_eq!(NnlpConfig::without_node_features().embedding_dim(), 4);
        assert_eq!(NnlpConfig::without_gnn().embedding_dim(), NODE_FEAT_DIM + 4);
        assert_eq!(NnlpConfig::without_static().embedding_dim(), 64);
        assert_eq!(NnlpConfig::brp_nas().embedding_dim(), 64);
    }

    #[test]
    fn all_configs_forward_and_backward() {
        for cfg in [
            NnlpConfig::default(),
            NnlpConfig::without_node_features(),
            NnlpConfig::without_gnn(),
            NnlpConfig::without_static(),
            NnlpConfig::brp_nas(),
        ] {
            let (m, _) = make_model(cfg);
            let s = Sample {
                target_log: 1.0,
                ..make_sample(&tiny_structure(&m.norm), 0.0, 0)
            };
            let mut rng = Rng64::new(81);
            let (loss, grads) = m.loss_and_grads(&s, &mut rng, &mut Scratch::new());
            assert!(loss.is_finite());
            assert_eq!(grads.backbone.len(), m.sage.len());
        }
    }

    #[test]
    fn training_single_sample_reduces_loss() {
        let (mut m, _) = make_model(NnlpConfig {
            dropout: 0.0,
            ..Default::default()
        });
        let s = Sample {
            target_log: 2.5,
            ..make_sample(&tiny_structure(&m.norm), 0.0, 0)
        };
        let mut opt = Adam::new(0.01);
        let mut rng = Rng64::new(82);
        let mut scratch = Scratch::new();
        let mut step = |m: &NnlpModel| m.loss_and_grads(&s, &mut rng, &mut scratch);
        let (first, _) = step(&m);
        for _ in 0..100 {
            let (_, g) = step(&m);
            opt.begin_step();
            m.apply_backbone(&g.backbone, &mut opt);
            m.heads[0].apply_grads(0, &g.head, &mut opt);
        }
        let (last, _) = step(&m);
        assert!(last < first * 0.05, "loss {first} -> {last}");
    }

    #[test]
    fn end_to_end_gradcheck_backbone() {
        // Finite-difference check through the whole model (no dropout).
        let (m, feats) = make_model(NnlpConfig {
            dropout: 0.0,
            gnn_layers: 2,
            hidden: 8,
            head_hidden: 8,
            ..Default::default()
        });
        let target = 1.0f32;
        let s = Sample {
            target_log: target,
            ..make_sample(&tiny_structure(&m.norm), 0.0, 0)
        };
        let (nodes, stat) = (&s.nodes.to_matrix(), &s.stat);
        let mut rng = Rng64::new(83);
        let (_, grads) = m.loss_and_grads(&s, &mut rng, &mut Scratch::new());

        // `backward` runs out of an arena and never computes the first
        // layer's input gradient. The parameter gradients must not notice:
        // walk the stack again with the full, allocating per-layer
        // backward and compare bit for bit.
        let (pred, cache) = m.forward(nodes, &feats.adj, stat, 0, None);
        let d_pred = mse_loss(pred, target).1;
        let (d_emb, _) = m.heads[0].backward(&cache.head, d_pred, 0.0, &mut Scratch::new());
        let mut d_h = Matrix::from_fn(nodes.rows, m.cfg.hidden, |_, j| {
            d_emb.get(0, j) * SUM_POOL_SCALE
        });
        for (i, (layer, c)) in m.sage.iter().zip(&cache.sage).enumerate().rev() {
            let input = if i == 0 {
                nodes
            } else {
                cache.sage[i - 1].output()
            };
            let (dx, full) = layer.backward(input, c, &d_h, &feats.adj);
            assert_eq!(dx.rows, nodes.rows);
            for (got, want) in [
                (&grads.backbone[i].d_w1, &full.d_w1),
                (&grads.backbone[i].d_w2, &full.d_w2),
            ] {
                assert_eq!(got.dw, want.dw, "sage{i} dw");
                assert_eq!(got.db, want.db, "sage{i} db");
            }
            d_h = dx;
        }

        let h = 1e-2f32;
        let loss_of = |mm: &NnlpModel| {
            let (p, _) = mm.forward(nodes, &feats.adj, stat, 0, None);
            ((p - target) as f64).powi(2)
        };
        for &(i, j) in &[(0usize, 0usize), (3, 5)] {
            let mut mp = m.clone();
            let mut mm2 = m.clone();
            let base = m.sage[0].w1.w.get(i, j);
            mp.sage[0].w1.w.set(i, j, base + h);
            mm2.sage[0].w1.w.set(i, j, base - h);
            let num = (loss_of(&mp) - loss_of(&mm2)) / (2.0 * h as f64);
            let analytic = grads.backbone[0].d_w1.dw.get(i, j) as f64;
            assert!(
                (num - analytic).abs() < 5e-2 * (1.0 + num.abs()),
                "sage0.w1[{i},{j}] num {num} vs {analytic}"
            );
        }
    }

    #[test]
    fn add_head_extends_model() {
        let (mut m, feats) = make_model(NnlpConfig::default());
        let idx = m.add_head(&mut Rng64::new(84));
        assert_eq!(idx, 1);
        assert!(m.predict_ms(&feats, 1).is_finite());
    }

    #[test]
    fn json_roundtrip_preserves_predictions() {
        let (m, feats) = make_model(NnlpConfig::default());
        let m2 = NnlpModel::from_json(&m.to_json()).unwrap();
        assert_eq!(m.predict_ms(&feats, 0), m2.predict_ms(&feats, 0));
    }
}
