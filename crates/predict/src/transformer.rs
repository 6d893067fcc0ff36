//! The transformer-style graph encoder: the second [`Predictor`]
//! implementation (NAR-Former-V2 direction).
//!
//! Node feature vectors are treated as a token sequence: a linear
//! embedding lifts them to `d_model`, a stack of multi-head self-attention
//! blocks ([`AttnLayer`]) mixes them under an adjacency-derived attention
//! bias, and sum pooling (same `SUM_POOL_SCALE` conditioning as the SAGE
//! path) plus the static features produces the shared graph embedding.
//! The per-platform heads are literally the same [`Head`] MLPs as
//! [`NnlpModel`](crate::model::NnlpModel) — only the backbone differs,
//! which is exactly what the [`Predictor`] embed/head split promises.

use crate::features::{GraphFeatures, Normalizer, NODE_FEAT_DIM, STATIC_DIM};
use crate::model::{Head, HeadCache, HeadGrad, SUM_POOL_SCALE};
use crate::predictor::{Predictor, PredictorKind};
use crate::train::{Sample, TrainConfig, TrainReport};
use nnlqp_ir::Rng64;
use nnlqp_nn::layers::mse_loss;
use nnlqp_nn::{
    attention_bias, Activation, Adam, AttnGrad, AttnLayer, Csr, Linear, LinearGrad, Matrix, Scratch,
};
use rayon::prelude::*;

/// Transformer hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TransformerConfig {
    /// Node feature width (normally [`NODE_FEAT_DIM`]).
    pub node_feat_dim: usize,
    /// Token width inside the attention stack.
    pub d_model: usize,
    /// Number of attention blocks.
    pub layers: usize,
    /// Attention heads per block (`d_model` must divide evenly).
    pub attn_heads: usize,
    /// Head hidden width.
    pub head_hidden: usize,
    /// Number of prediction heads (platforms).
    pub n_heads: usize,
    /// Dropout probability in the heads.
    pub dropout: f64,
}

impl Default for TransformerConfig {
    fn default() -> Self {
        TransformerConfig {
            node_feat_dim: NODE_FEAT_DIM,
            d_model: 32,
            layers: 2,
            attn_heads: 4,
            head_hidden: 32,
            n_heads: 1,
            dropout: 0.05,
        }
    }
}

impl TransformerConfig {
    /// Width of the pooled graph embedding entering a head (static
    /// features always appended).
    pub fn embedding_dim(&self) -> usize {
        self.d_model + STATIC_DIM
    }

    fn to_value(self) -> serde_json::Value {
        serde_json::json!({
            "node_feat_dim": self.node_feat_dim,
            "d_model": self.d_model,
            "layers": self.layers,
            "attn_heads": self.attn_heads,
            "head_hidden": self.head_hidden,
            "n_heads": self.n_heads,
            "dropout": self.dropout,
        })
    }

    fn from_value(v: &serde_json::Value) -> Result<Self, String> {
        let dim = |key: &str| {
            v[key]
                .as_u64()
                .map(|x| x as usize)
                .ok_or_else(|| format!("transformer config {key} missing"))
        };
        Ok(TransformerConfig {
            node_feat_dim: dim("node_feat_dim")?,
            d_model: dim("d_model")?,
            layers: dim("layers")?,
            attn_heads: dim("attn_heads")?,
            head_hidden: dim("head_hidden")?,
            n_heads: dim("n_heads")?,
            dropout: v["dropout"]
                .as_f64()
                .ok_or("transformer config dropout missing")?,
        })
    }
}

/// The transformer predictor: token embedding, attention stack,
/// per-platform heads.
#[derive(Debug, Clone)]
pub struct TransformerModel {
    /// Configuration (immutable after construction).
    pub cfg: TransformerConfig,
    /// Token embedding `node_feat_dim -> d_model`.
    pub embed_in: Linear,
    /// The attention stack.
    pub blocks: Vec<AttnLayer>,
    /// Per-platform heads (same MLPs as the SAGE predictor).
    pub heads: Vec<Head>,
    /// Feature normalizer fitted on the training corpus.
    pub norm: Normalizer,
}

/// Per-sample caches for the backward pass.
pub struct TfCache {
    x0: Matrix,
    bias: Matrix,
    blocks: Vec<nnlqp_nn::attention::AttnCache>,
    n_rows: usize,
    head: HeadCache,
    head_idx: usize,
}

/// Per-sample gradients.
pub struct TfGrads {
    /// Token-embedding gradient.
    pub embed_in: LinearGrad,
    /// Attention-block gradients, first block first.
    pub blocks: Vec<AttnGrad>,
    /// Head gradient.
    pub head: HeadGrad,
    /// Which head the gradient belongs to.
    pub head_idx: usize,
}

impl TransformerModel {
    /// Fresh model with `cfg.n_heads` heads.
    pub fn new(cfg: TransformerConfig, norm: Normalizer, rng: &mut Rng64) -> Self {
        let embed_in = Linear::new(cfg.node_feat_dim, cfg.d_model, rng);
        let blocks = (0..cfg.layers)
            .map(|_| AttnLayer::new(cfg.d_model, cfg.attn_heads, rng))
            .collect();
        let heads = (0..cfg.n_heads)
            .map(|_| Head::new(cfg.embedding_dim(), cfg.head_hidden, rng))
            .collect();
        TransformerModel {
            cfg,
            embed_in,
            blocks,
            heads,
            norm,
        }
    }

    /// Forward pass on *normalized* inputs. `rng` enables dropout
    /// (training mode). Returns the prediction in `ln(1+target)` space.
    pub fn forward(
        &self,
        nodes: &Matrix,
        adj: &Csr,
        stat: &[f32; STATIC_DIM],
        head_idx: usize,
        rng: Option<&mut Rng64>,
    ) -> (f32, TfCache) {
        let bias = attention_bias(adj);
        let mut h = self.embed_in.forward(nodes);
        let mut caches = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let (out, cache) = block.forward(&h, &bias);
            caches.push(cache);
            h = out;
        }
        let mut pooled = h.col_sums();
        for v in &mut pooled {
            *v *= SUM_POOL_SCALE;
        }
        let mut emb = pooled;
        emb.extend_from_slice(stat);
        let x = Matrix::from_rows(1, emb.len(), emb);
        let (pred, head_cache) =
            self.heads[head_idx].forward(x, self.cfg.dropout, rng, &mut Scratch::new());
        (
            pred,
            TfCache {
                x0: nodes.clone(),
                bias,
                blocks: caches,
                n_rows: nodes.rows,
                head: head_cache,
                head_idx,
            },
        )
    }

    /// Backward pass; `d_pred` is the loss gradient wrt the scalar output.
    pub fn backward(&self, cache: &TfCache, d_pred: f32) -> TfGrads {
        // This encoder's training step allocates; only the head it shares
        // with the SAGE predictor speaks arena.
        let mut scratch = Scratch::new();
        let (d_emb, head_grad) = self.heads[cache.head_idx].backward(
            &cache.head,
            d_pred,
            self.cfg.dropout,
            &mut scratch,
        );
        // Un-pool: sum pooling broadcasts the gradient to every token; the
        // static tail has no parameters behind it.
        let n = cache.n_rows;
        let mut d_h = Matrix::from_fn(n, self.cfg.d_model, |_, j| d_emb.get(0, j) * SUM_POOL_SCALE);
        let mut block_grads: Vec<AttnGrad> = Vec::with_capacity(self.blocks.len());
        for (block, c) in self.blocks.iter().zip(&cache.blocks).rev() {
            let (dx, g) = block.backward(c, &d_h, &cache.bias);
            block_grads.push(g);
            d_h = dx;
        }
        block_grads.reverse();
        TfGrads {
            embed_in: Linear::param_grad(&cache.x0, &d_h, &mut scratch),
            blocks: block_grads,
            head: head_grad,
            head_idx: cache.head_idx,
        }
    }

    /// The expensive half on fused kernels and scratch buffers —
    /// bit-identical to [`TransformerModel::forward`]'s embedding.
    pub fn embed_with(&self, feats: &GraphFeatures, scratch: &mut Scratch) -> Vec<f32> {
        let stat = self.norm.normalize_stat(&feats.stat);
        let mut nodes = scratch.take(feats.nodes.rows, feats.nodes.cols);
        self.norm.normalize_nodes_into(&feats.nodes, &mut nodes);
        let bias = attention_bias(&feats.adj);
        let mut h = scratch.take(nodes.rows, self.embed_in.w.cols);
        self.embed_in
            .forward_into(&nodes, Activation::Identity, &mut h, scratch.pack_buf());
        scratch.put(nodes);
        for block in &self.blocks {
            let next = block.forward_eval(&h, &bias, scratch);
            scratch.put(h);
            h = next;
        }
        let mut pooled = h.col_sums();
        scratch.put(h);
        for v in &mut pooled {
            *v *= SUM_POOL_SCALE;
        }
        let mut emb = pooled;
        emb.extend_from_slice(&stat);
        emb
    }

    /// One training loss evaluation (log-space MSE) with gradients.
    pub fn loss_and_grads(
        &self,
        nodes: &Matrix,
        adj: &Csr,
        stat: &[f32; STATIC_DIM],
        target_log: f32,
        head_idx: usize,
        rng: &mut Rng64,
    ) -> (f64, TfGrads) {
        let (pred, cache) = self.forward(nodes, adj, stat, head_idx, Some(rng));
        let (loss, grad) = mse_loss(&[pred], &[target_log]);
        let grads = self.backward(&cache, grad[0]);
        (loss, grads)
    }

    /// Serialize to JSON with the `"kind"` dispatch tag.
    pub fn to_json(&self) -> String {
        let blocks: Vec<serde_json::Value> = self.blocks.iter().map(AttnLayer::to_value).collect();
        let heads: Vec<serde_json::Value> = self.heads.iter().map(Head::to_value).collect();
        serde_json::json!({
            "kind": "transformer",
            "cfg": self.cfg.to_value(),
            "embed_in": self.embed_in.to_value(),
            "blocks": blocks,
            "heads": heads,
            "norm": self.norm.to_value(),
        })
        .to_string()
    }

    /// Inverse of [`TransformerModel::to_json`].
    pub fn from_json(s: &str) -> Result<Self, String> {
        let v: serde_json::Value = serde_json::from_str(s).map_err(|e| e.to_string())?;
        if v["kind"].as_str() != Some("transformer") {
            return Err("not a transformer checkpoint".to_string());
        }
        let seq = |key: &str| {
            v[key]
                .as_array()
                .ok_or_else(|| format!("transformer {key} missing"))
        };
        Ok(TransformerModel {
            cfg: TransformerConfig::from_value(&v["cfg"])?,
            embed_in: Linear::from_value(&v["embed_in"])?,
            blocks: seq("blocks")?
                .iter()
                .map(AttnLayer::from_value)
                .collect::<Result<_, _>>()?,
            heads: seq("heads")?
                .iter()
                .map(Head::from_value)
                .collect::<Result<_, _>>()?,
            norm: Normalizer::from_value(&v["norm"])?,
        })
    }
}

/// Adam key layout: the token embedding at 50/51, block `i` at
/// `200 + 16i` (five linears, weight+bias each), heads on the shared
/// `10_000 + 8h` base — all disjoint from the SAGE layout so a future
/// joint optimizer cannot alias state.
fn apply_backbone(model: &mut TransformerModel, grads: &TfGrads, opt: &mut Adam) {
    opt.update(50, &mut model.embed_in.w.data, &grads.embed_in.dw.data);
    opt.update(51, &mut model.embed_in.b, &grads.embed_in.db);
    for (i, (block, g)) in model.blocks.iter_mut().zip(&grads.blocks).enumerate() {
        let base = 200 + (i as u64) * 16;
        opt.update(base, &mut block.wq.w.data, &g.d_wq.dw.data);
        opt.update(base + 1, &mut block.wq.b, &g.d_wq.db);
        opt.update(base + 2, &mut block.wk.w.data, &g.d_wk.dw.data);
        opt.update(base + 3, &mut block.wk.b, &g.d_wk.db);
        opt.update(base + 4, &mut block.wv.w.data, &g.d_wv.dw.data);
        opt.update(base + 5, &mut block.wv.b, &g.d_wv.db);
        opt.update(base + 6, &mut block.wo.w.data, &g.d_wo.dw.data);
        opt.update(base + 7, &mut block.wo.b, &g.d_wo.db);
        opt.update(base + 8, &mut block.w1.w.data, &g.d_w1.dw.data);
        opt.update(base + 9, &mut block.w1.b, &g.d_w1.db);
    }
}

fn apply_head(model: &mut TransformerModel, head_idx: usize, hg: &HeadGrad, opt: &mut Adam) {
    let head = &mut model.heads[head_idx];
    let base = 10_000 + (head_idx as u64) * 8;
    opt.update(base, &mut head.l1.w.data, &hg.d1.dw.data);
    opt.update(base + 1, &mut head.l1.b, &hg.d1.db);
    opt.update(base + 2, &mut head.l2.w.data, &hg.d2.dw.data);
    opt.update(base + 3, &mut head.l2.b, &hg.d2.db);
    opt.update(base + 4, &mut head.l3.w.data, &hg.d3.dw.data);
    opt.update(base + 5, &mut head.l3.b, &hg.d3.db);
}

/// Train a transformer in place — the same mini-batch Adam loop as the
/// SAGE `train` (shuffled batches, rayon per-sample gradients, shared
/// backbone averaged over the batch, heads routed per platform).
pub fn train_transformer(
    model: &mut TransformerModel,
    samples: &[Sample],
    cfg: TrainConfig,
) -> TrainReport {
    assert!(!samples.is_empty(), "empty training set");
    let mut opt = Adam::new(cfg.lr);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut rng = Rng64::new(cfg.seed);
    let mut epoch_loss = Vec::with_capacity(cfg.epochs);

    for epoch in 0..cfg.epochs {
        rng.shuffle(&mut order);
        let mut total = 0.0f64;
        for (bi, batch) in order.chunks(cfg.batch_size).enumerate() {
            let results: Vec<(f64, TfGrads)> = batch
                .par_iter()
                .map(|&si| {
                    let s = &samples[si];
                    let mut srng = Rng64::new(
                        cfg.seed ^ ((epoch as u64) << 40) ^ ((bi as u64) << 20) ^ si as u64,
                    );
                    model.loss_and_grads(&s.nodes, &s.adj, &s.stat, s.target_log, s.head, &mut srng)
                })
                .collect();

            let inv = 1.0 / batch.len() as f32;
            let mut acc: Option<TfGrads> = None;
            let mut head_acc: std::collections::HashMap<usize, HeadGrad> =
                std::collections::HashMap::new();
            for (loss, g) in results {
                total += loss;
                head_acc
                    .entry(g.head_idx)
                    .and_modify(|hg| hg.add_assign(&g.head))
                    .or_insert_with(|| g.head.clone());
                match &mut acc {
                    None => acc = Some(g),
                    Some(a) => {
                        a.embed_in.add_assign(&g.embed_in);
                        for (ba, bg) in a.blocks.iter_mut().zip(&g.blocks) {
                            ba.add_assign(bg);
                        }
                    }
                }
            }
            let Some(mut a) = acc else { continue };
            a.embed_in.scale(inv);
            for bg in &mut a.blocks {
                bg.scale(inv);
            }
            opt.begin_step();
            apply_backbone(model, &a, &mut opt);
            for (head_idx, mut hg) in head_acc {
                hg.scale(inv);
                apply_head(model, head_idx, &hg, &mut opt);
            }
        }
        epoch_loss.push(total / samples.len() as f64);
    }
    TrainReport { epoch_loss }
}

impl Predictor for TransformerModel {
    fn kind(&self) -> PredictorKind {
        PredictorKind::Transformer
    }

    fn embedding_dim(&self) -> usize {
        self.cfg.embedding_dim()
    }

    fn n_heads(&self) -> usize {
        self.heads.len()
    }

    fn embed_with(&self, feats: &GraphFeatures, scratch: &mut Scratch) -> Vec<f32> {
        TransformerModel::embed_with(self, feats, scratch)
    }

    fn head_eval_rows(
        &self,
        embs: &Matrix,
        head_idx: usize,
        scratch: &mut Scratch,
        out: &mut [f64],
    ) {
        self.heads[head_idx].eval(embs, scratch, out);
    }

    fn train_in_place(&mut self, samples: &[Sample], cfg: TrainConfig) -> TrainReport {
        train_transformer(self, samples, cfg)
    }

    fn to_json(&self) -> String {
        TransformerModel::to_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract_features;
    use crate::predictor::predictor_from_json;
    use nnlqp_ir::{GraphBuilder, Shape};

    fn tiny_feats() -> GraphFeatures {
        let mut b = GraphBuilder::new("t", Shape::nchw(1, 3, 16, 16));
        let c = b.conv(None, 8, 3, 1, 1, 1).unwrap();
        let r = b.relu(c).unwrap();
        let g = b.global_avgpool(r).unwrap();
        let f = b.flatten(g).unwrap();
        b.gemm(f, 10).unwrap();
        extract_features(&b.finish().unwrap())
    }

    fn make_model(cfg: TransformerConfig) -> (TransformerModel, GraphFeatures) {
        let feats = tiny_feats();
        let norm = Normalizer::fit(&[&feats]);
        let mut rng = Rng64::new(60);
        (TransformerModel::new(cfg, norm, &mut rng), feats)
    }

    #[test]
    fn forward_produces_finite_prediction() {
        let (m, feats) = make_model(TransformerConfig::default());
        let p = Predictor::predict_ms(&m, &feats, 0);
        assert!(p.is_finite() && p > 0.0);
    }

    #[test]
    fn embed_and_head_eval_match_forward_bitwise() {
        let (m, feats) = make_model(TransformerConfig::default());
        // Slow path: the training-kernel forward.
        let nodes = m.norm.normalize_nodes(&feats.nodes);
        let stat = m.norm.normalize_stat(&feats.stat);
        let (pred_log, _) = m.forward(&nodes, &feats.adj, &stat, 0, None);
        let want = (pred_log as f64).exp_m1().max(1e-6);
        // Fast path: split embed + head_eval on fused kernels.
        let emb = Predictor::embed(&m, &feats);
        assert_eq!(emb.len(), m.cfg.embedding_dim());
        assert_eq!(Predictor::head_eval(&m, &emb, 0), want);
        assert_eq!(Predictor::predict_ms(&m, &feats, 0), want);
    }

    #[test]
    fn predict_batch_matches_per_sample_bitwise() {
        let (m, feats) = make_model(TransformerConfig {
            n_heads: 2,
            ..Default::default()
        });
        let feats2 = {
            let mut b = GraphBuilder::new("t2", Shape::nchw(1, 3, 8, 8));
            let c = b.conv(None, 4, 3, 1, 1, 1).unwrap();
            b.relu(c).unwrap();
            extract_features(&b.finish().unwrap())
        };
        let batch = Predictor::predict_batch(&m, &[feats.clone(), feats2.clone()], &[0, 1]);
        assert_eq!(batch.len(), 2);
        for (f, row) in [&feats, &feats2].into_iter().zip(&batch) {
            assert_eq!(row[0], Predictor::predict_ms(&m, f, 0));
            assert_eq!(row[1], Predictor::predict_ms(&m, f, 1));
        }
    }

    #[test]
    fn end_to_end_gradcheck_backbone() {
        // Finite-difference check through the whole model (no dropout).
        let (m, feats) = make_model(TransformerConfig {
            dropout: 0.0,
            d_model: 8,
            layers: 2,
            attn_heads: 2,
            head_hidden: 8,
            ..Default::default()
        });
        let nodes = m.norm.normalize_nodes(&feats.nodes);
        let stat = m.norm.normalize_stat(&feats.stat);
        let target = 1.0f32;
        let mut rng = Rng64::new(61);
        let (_, grads) = m.loss_and_grads(&nodes, &feats.adj, &stat, target, 0, &mut rng);
        let h = 1e-2f32;
        let loss_of = |mm: &TransformerModel| {
            let (p, _) = mm.forward(&nodes, &feats.adj, &stat, 0, None);
            ((p - target) as f64).powi(2)
        };
        // Token embedding and first-block query weights.
        for &(i, j) in &[(0usize, 0usize), (3, 5)] {
            let mut mp = m.clone();
            let mut mm2 = m.clone();
            let base = m.embed_in.w.get(i, j);
            mp.embed_in.w.set(i, j, base + h);
            mm2.embed_in.w.set(i, j, base - h);
            let num = (loss_of(&mp) - loss_of(&mm2)) / (2.0 * h as f64);
            let analytic = grads.embed_in.dw.get(i, j) as f64;
            assert!(
                (num - analytic).abs() < 5e-2 * (1.0 + num.abs()),
                "embed_in[{i},{j}] num {num} vs {analytic}"
            );
        }
        for &(i, j) in &[(0usize, 0usize), (2, 4)] {
            let mut mp = m.clone();
            let mut mm2 = m.clone();
            let base = m.blocks[0].wq.w.get(i, j);
            mp.blocks[0].wq.w.set(i, j, base + h);
            mm2.blocks[0].wq.w.set(i, j, base - h);
            let num = (loss_of(&mp) - loss_of(&mm2)) / (2.0 * h as f64);
            let analytic = grads.blocks[0].d_wq.dw.get(i, j) as f64;
            assert!(
                (num - analytic).abs() < 5e-2 * (1.0 + num.abs()),
                "blocks0.wq[{i},{j}] num {num} vs {analytic}"
            );
        }
    }

    #[test]
    fn training_single_sample_reduces_loss() {
        let (mut m, feats) = make_model(TransformerConfig {
            dropout: 0.0,
            ..Default::default()
        });
        let nodes = m.norm.normalize_nodes(&feats.nodes);
        let stat = m.norm.normalize_stat(&feats.stat);
        let target = 2.5f32;
        let mut opt = Adam::new(0.01);
        let mut rng = Rng64::new(62);
        let (first, _) = m.loss_and_grads(&nodes, &feats.adj, &stat, target, 0, &mut rng);
        for _ in 0..100 {
            let (_, g) = m.loss_and_grads(&nodes, &feats.adj, &stat, target, 0, &mut rng);
            opt.begin_step();
            apply_backbone(&mut m, &g, &mut opt);
            apply_head(&mut m, 0, &g.head, &mut opt);
        }
        let (last, _) = m.loss_and_grads(&nodes, &feats.adj, &stat, target, 0, &mut rng);
        assert!(last < first * 0.05, "loss {first} -> {last}");
    }

    #[test]
    fn json_roundtrip_preserves_predictions() {
        let (m, feats) = make_model(TransformerConfig::default());
        let back = predictor_from_json(&Predictor::to_json(&m)).unwrap();
        assert_eq!(back.kind(), PredictorKind::Transformer);
        assert_eq!(
            back.predict_ms(&feats, 0),
            Predictor::predict_ms(&m, &feats, 0)
        );
    }
}
