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
use crate::model::{Head, HeadCache, SUM_POOL_SCALE};
use crate::predictor::{Predictor, PredictorKind};
use crate::train::{
    adam_linears, train, Gradient, Grads, Sample, TrainConfig, TrainReport, Trainable,
};
use nnlqp_ir::json::Value;
use nnlqp_ir::Rng64;
use nnlqp_nn::attention::AttnCache;
use nnlqp_nn::layers::mse_loss;
use nnlqp_nn::{
    attention_bias, Activation, Adam, AttnGrad, AttnLayer, Csr, Linear, LinearGrad, Matrix, Scratch,
};

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

    fn to_value(self) -> Value {
        nnlqp_ir::json!({
            "node_feat_dim": self.node_feat_dim,
            "d_model": self.d_model,
            "layers": self.layers,
            "attn_heads": self.attn_heads,
            "head_hidden": self.head_hidden,
            "n_heads": self.n_heads,
            "dropout": self.dropout,
        })
    }

    fn from_value(v: &Value) -> Result<Self, String> {
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

/// Per-sample caches for the backward pass, every buffer drawn from the
/// arena.
pub struct TfCache {
    /// The token embedding: the first block's input.
    tokens: Matrix,
    blocks: Vec<AttnCache>,
    head: HeadCache,
    head_idx: usize,
}

/// Backbone gradients.
pub struct TfGrads {
    /// Token-embedding gradient.
    pub embed_in: LinearGrad,
    /// Attention-block gradients, first block first.
    pub blocks: Vec<AttnGrad>,
}

impl Gradient for TfGrads {
    fn add_assign(&mut self, other: &TfGrads) {
        self.embed_in.add_assign(&other.embed_in);
        for (a, g) in self.blocks.iter_mut().zip(&other.blocks) {
            a.add_assign(g);
        }
    }

    fn scale(&mut self, s: f32) {
        self.embed_in.scale(s);
        for g in &mut self.blocks {
            g.scale(s);
        }
    }

    fn recycle(self, scratch: &mut Scratch) {
        self.embed_in.recycle(scratch);
        for g in self.blocks {
            g.recycle(scratch);
        }
    }
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

    /// Forward pass on *normalized* inputs, every intermediate and the
    /// cache drawn from `scratch`. `rng` enables dropout (training mode).
    /// Returns the prediction in `ln(1+target)` space. Block `i`'s input is
    /// block `i - 1`'s cached output (or the token embedding), borrowed
    /// rather than copied.
    pub fn forward(
        &self,
        nodes: &Matrix,
        adj: &Csr,
        stat: &[f32; STATIC_DIM],
        head_idx: usize,
        rng: Option<&mut Rng64>,
        scratch: &mut Scratch,
    ) -> (f32, TfCache) {
        let bias = attention_bias(adj, scratch);
        let mut tokens = scratch.take(nodes.rows, self.embed_in.w.cols);
        self.embed_in
            .forward_into(nodes, Activation::Identity, &mut tokens, scratch.pack_buf());
        let mut blocks: Vec<AttnCache> = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let input = blocks.last().map_or(&tokens, AttnCache::output);
            let cache = block.forward(input, &bias, scratch);
            blocks.push(cache);
        }
        scratch.put(bias);
        let h = blocks.last().map_or(&tokens, AttnCache::output);
        let mut x = scratch.take(1, h.cols + STATIC_DIM);
        let (pooled, tail) = x.data.split_at_mut(h.cols);
        h.col_sums_into(pooled);
        for v in pooled {
            *v *= SUM_POOL_SCALE;
        }
        tail.copy_from_slice(stat);
        let (pred, head) = self.heads[head_idx].forward(x, self.cfg.dropout, rng, scratch);
        let cache = TfCache {
            tokens,
            blocks,
            head,
            head_idx,
        };
        (pred, cache)
    }

    /// Backward pass; `d_pred` is the loss gradient wrt the scalar output,
    /// `nodes` what the forward saw. The cache's buffers go back to
    /// `scratch`; the gradients' come out of it ([`Grads::recycle`]).
    pub fn backward(
        &self,
        cache: TfCache,
        d_pred: f32,
        nodes: &Matrix,
        scratch: &mut Scratch,
    ) -> Grads<TfGrads> {
        let TfCache {
            tokens,
            mut blocks,
            head,
            head_idx,
        } = cache;
        let (d_emb, head_grad) =
            self.heads[head_idx].backward(&head, d_pred, self.cfg.dropout, scratch);
        head.recycle(scratch);
        // Un-pool: sum pooling broadcasts the gradient to every token; the
        // static tail has no parameters behind it.
        let mut d_h = scratch.take(tokens.rows, tokens.cols);
        for i in 0..d_h.rows {
            for (d, &e) in d_h.row_mut(i).iter_mut().zip(&d_emb.data) {
                *d = e * SUM_POOL_SCALE;
            }
        }
        scratch.put(d_emb);
        // Walk the stack backwards, down to the token embedding's output.
        let mut block_grads: Vec<AttnGrad> = Vec::with_capacity(blocks.len());
        while let Some(c) = blocks.pop() {
            let input = blocks.last().map_or(&tokens, AttnCache::output);
            let (dx, g) = self.blocks[blocks.len()].backward(input, &c, d_h, scratch);
            c.recycle(scratch);
            block_grads.push(g);
            d_h = dx;
        }
        block_grads.reverse();
        let embed_in = Linear::param_grad(nodes, &d_h, scratch);
        scratch.put(d_h);
        scratch.put(tokens);
        Grads {
            backbone: TfGrads {
                embed_in,
                blocks: block_grads,
            },
            head: head_grad,
            head_idx,
        }
    }

    /// The expensive half on fused kernels and scratch buffers —
    /// bit-identical to [`TransformerModel::forward`]'s embedding.
    pub fn embed_with(&self, feats: &GraphFeatures, scratch: &mut Scratch) -> Vec<f32> {
        let stat = self.norm.normalize_stat(&feats.stat);
        let mut nodes = scratch.take(feats.nodes.rows, feats.nodes.cols);
        self.norm.normalize_nodes_into(&feats.nodes, &mut nodes);
        let bias = attention_bias(&feats.adj, scratch);
        let mut h = scratch.take(nodes.rows, self.embed_in.w.cols);
        self.embed_in
            .forward_into(&nodes, Activation::Identity, &mut h, scratch.pack_buf());
        scratch.put(nodes);
        for block in &self.blocks {
            let next = block.forward_eval(&h, &bias, scratch);
            scratch.put(h);
            h = next;
        }
        // Sized once for the pooled part and the static features after it.
        let mut emb = Vec::with_capacity(self.cfg.embedding_dim());
        emb.resize(h.cols, 0.0);
        h.col_sums_into(&mut emb);
        scratch.put(h);
        scratch.put(bias);
        for v in &mut emb {
            *v *= SUM_POOL_SCALE;
        }
        emb.extend_from_slice(&stat);
        emb
    }

    /// Serialize to JSON with the `"kind"` dispatch tag.
    pub fn to_json(&self) -> String {
        let blocks: Vec<Value> = self.blocks.iter().map(AttnLayer::to_value).collect();
        let heads: Vec<Value> = self.heads.iter().map(Head::to_value).collect();
        nnlqp_ir::json!({
            "kind": "transformer",
            "cfg": self.cfg.to_value(),
            "embed_in": self.embed_in.to_value(),
            "blocks": blocks,
            "heads": heads,
            "norm": self.norm.to_value(),
        })
        .to_string()
    }

    /// Inverse of [`TransformerModel::to_json`], from the parsed value;
    /// [`crate::predictor_from_json`] reads a checkpoint of either kind.
    pub fn from_value(v: &Value) -> Result<Self, String> {
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

impl Trainable for TransformerModel {
    type Backbone = TfGrads;

    fn loss_and_grads(
        &self,
        s: &Sample,
        rng: &mut Rng64,
        scratch: &mut Scratch,
    ) -> (f64, Grads<TfGrads>) {
        let (pred, cache) = self.forward(&s.nodes, &s.adj, &s.stat, s.head, Some(rng), scratch);
        let (loss, d_pred) = mse_loss(pred, s.target_log);
        let grads = self.backward(cache, d_pred, &s.nodes, scratch);
        (loss, grads)
    }

    /// The token embedding's keys are 50 and 51, block `i`'s (five
    /// linears) start at `200 + 16i`: clear of the SAGE layout and of the
    /// heads', so a joint optimizer could not alias state.
    fn apply_backbone(&mut self, g: &TfGrads, opt: &mut Adam) {
        adam_linears(opt, 50, [(&mut self.embed_in, &g.embed_in)]);
        for (i, (block, g)) in self.blocks.iter_mut().zip(&g.blocks).enumerate() {
            let layers = [
                (&mut block.wq, &g.d_wq),
                (&mut block.wk, &g.d_wk),
                (&mut block.wv, &g.d_wv),
                (&mut block.wo, &g.d_wo),
                (&mut block.w1, &g.d_w1),
            ];
            adam_linears(opt, 200 + (i as u64) * 16, layers);
        }
    }

    fn heads_mut(&mut self) -> &mut [Head] {
        &mut self.heads
    }
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
        train(self, samples, cfg)
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
    use crate::train::{make_sample, Structure};
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
        let (pred_log, _) = m.forward(&nodes, &feats.adj, &stat, 0, None, &mut Scratch::new());
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
        let target = 1.0f32;
        let s = Sample {
            target_log: target,
            ..make_sample(&Structure::normalize(feats.clone(), &m.norm), 0.0, 0)
        };
        let mut rng = Rng64::new(61);
        let (_, grads) = m.loss_and_grads(&s, &mut rng, &mut Scratch::new());
        let grads = grads.backbone;
        let h = 1e-2f32;
        let loss_of = |mm: &TransformerModel| {
            let (p, _) = mm.forward(&s.nodes, &s.adj, &s.stat, 0, None, &mut Scratch::new());
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
        let s = Sample {
            target_log: 2.5,
            ..make_sample(&Structure::normalize(feats.clone(), &m.norm), 0.0, 0)
        };
        let mut opt = Adam::new(0.01);
        let mut rng = Rng64::new(62);
        let mut scratch = Scratch::new();
        let (first, _) = m.loss_and_grads(&s, &mut rng, &mut scratch);
        for _ in 0..100 {
            let (_, g) = m.loss_and_grads(&s, &mut rng, &mut scratch);
            opt.begin_step();
            m.apply_backbone(&g.backbone, &mut opt);
            m.heads[0].apply_grads(0, &g.head, &mut opt);
        }
        let (last, _) = m.loss_and_grads(&s, &mut rng, &mut scratch);
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
