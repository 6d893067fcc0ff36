//! The int8 quantized inference path: a [`QuantizedPredictor`] freezes a
//! trained f32 champion's `Linear` layers into [`QuantLinear`] (symmetric
//! per-output-channel weights, per-row dynamic activations — see
//! `nnlqp_nn::quant`) while every structurally sensitive op — mean
//! aggregation, the attention core (scores, bias, softmax, value mixing),
//! ReLU, row L2 normalization, pooling — stays f32. This is weight-only
//! dynamic quantization: the GEMMs that dominate inference run i8×i8→i32,
//! everything else is untouched, so accuracy degrades only through weight
//! and activation rounding.
//!
//! Training never sees int8. The serve layer quantizes a champion at
//! publish time and only installs it after an accuracy parity check
//! (`quantize_on_publish` in the serve config); [`QuantizedPredictor`]
//! itself refuses [`Predictor::train_in_place`].
//!
//! Serialization: `{"kind": "quantized", "inner": <f32 checkpoint>}`.
//! The f32 weights are the checkpoint of record; quantization is
//! deterministic, so reloading re-derives bit-identical int8 tables.

use crate::features::{GraphFeatures, Normalizer};
use crate::model::{log_to_units, Head, NnlpConfig, NnlpModel, SUM_POOL_SCALE};
use crate::predictor::{Predictor, PredictorKind};
use crate::train::{Sample, TrainConfig, TrainReport};
use crate::transformer::{TransformerConfig, TransformerModel};
use nnlqp_nn::attention::attend_eval;
use nnlqp_nn::{
    attention_bias, l2_normalize_rows_inplace, relu_inplace, Activation, AttnLayer, Matrix,
    QuantLinear, QuantRow, SageLayer, Scratch,
};

/// Offset added to the inner architecture's [`PredictorKind::id`] to form
/// a quantized predictor's [`Predictor::identity`]. Part of the
/// embed-cache key contract: a quantized sage (101) or transformer (102)
/// can never resolve an f32 embedding, and vice versa. Never reuse or
/// renumber.
pub const QUANT_IDENTITY_OFFSET: u64 = 100;

/// One platform head with all three FC layers quantized; the eval sweep
/// mirrors `Head::eval` (FC→ReLU→FC→ReLU→FC) on the int8 kernels.
struct QuantHead {
    l1: QuantLinear,
    l2: QuantLinear,
    l3: QuantLinear,
}

impl QuantHead {
    fn from_head(h: &Head) -> Self {
        QuantHead {
            l1: QuantLinear::from_linear(&h.l1),
            l2: QuantLinear::from_linear(&h.l2),
            l3: QuantLinear::from_linear(&h.l3),
        }
    }

    /// `forward_quant` quantizes its input a row at a time through the one
    /// `qrow`, so every row keeps its own activation scales and its answer
    /// is the one it gets alone.
    fn eval(&self, x: &Matrix, scratch: &mut Scratch, qrow: &mut QuantRow, out: &mut [f64]) {
        assert_eq!(out.len(), x.rows, "one output per embedding row");
        let mut a1 = scratch.take(x.rows, self.l1.out_dim());
        self.l1.forward_quant(x, &mut a1, Activation::Relu, qrow);
        let mut a2 = scratch.take(a1.rows, self.l2.out_dim());
        self.l2.forward_quant(&a1, &mut a2, Activation::Relu, qrow);
        let mut y = scratch.take(a2.rows, 1);
        self.l3
            .forward_quant(&a2, &mut y, Activation::Identity, qrow);
        for (o, &pred) in out.iter_mut().zip(&y.data) {
            *o = log_to_units(pred);
        }
        scratch.put(a1);
        scratch.put(a2);
        scratch.put(y);
    }
}

/// A SAGE convolution with quantized self/neighbor transforms; the mean
/// aggregation, ReLU and L2 normalization mirror `SageLayer::forward_eval`
/// in f32.
struct QuantSageLayer {
    w1: QuantLinear,
    w2: QuantLinear,
    relu: bool,
}

impl QuantSageLayer {
    fn from_layer(l: &SageLayer) -> Self {
        QuantSageLayer {
            w1: QuantLinear::from_linear(&l.w1),
            w2: QuantLinear::from_linear(&l.w2),
            relu: l.relu,
        }
    }

    fn forward_eval(
        &self,
        x: &Matrix,
        adj: &nnlqp_nn::Csr,
        scratch: &mut Scratch,
        qrow: &mut QuantRow,
    ) -> Matrix {
        let mut agg = scratch.take(x.rows, x.cols);
        adj.mean_agg_into(x, &mut agg);
        let mut out = scratch.take(x.rows, self.w1.out_dim());
        self.w1
            .forward_quant(x, &mut out, Activation::Identity, qrow);
        let mut y2 = scratch.take(x.rows, self.w2.out_dim());
        self.w2
            .forward_quant(&agg, &mut y2, Activation::Identity, qrow);
        out.add_assign(&y2);
        scratch.put(agg);
        scratch.put(y2);
        if self.relu {
            relu_inplace(&mut out);
        }
        l2_normalize_rows_inplace(&mut out, None);
        out
    }
}

/// An attention block with all five projections quantized. The attention
/// core itself — scores, bias, softmax, value mixing — runs the shared
/// f32 [`attend_eval`]: activation×activation products have no frozen
/// weight tensor to pre-quantize, and the softmax is the numerically
/// delicate part of the whole model.
struct QuantAttnLayer {
    wq: QuantLinear,
    wk: QuantLinear,
    wv: QuantLinear,
    wo: QuantLinear,
    w1: QuantLinear,
    n_heads: usize,
    relu: bool,
}

impl QuantAttnLayer {
    fn from_layer(l: &AttnLayer) -> Self {
        QuantAttnLayer {
            wq: QuantLinear::from_linear(&l.wq),
            wk: QuantLinear::from_linear(&l.wk),
            wv: QuantLinear::from_linear(&l.wv),
            wo: QuantLinear::from_linear(&l.wo),
            w1: QuantLinear::from_linear(&l.w1),
            n_heads: l.n_heads,
            relu: l.relu,
        }
    }

    fn forward_eval(
        &self,
        x: &Matrix,
        bias: &Matrix,
        scratch: &mut Scratch,
        qrow: &mut QuantRow,
    ) -> Matrix {
        let mut q = scratch.take(x.rows, self.wq.out_dim());
        self.wq.forward_quant(x, &mut q, Activation::Identity, qrow);
        let mut k = scratch.take(x.rows, self.wk.out_dim());
        self.wk.forward_quant(x, &mut k, Activation::Identity, qrow);
        let mut v = scratch.take(x.rows, self.wv.out_dim());
        self.wv.forward_quant(x, &mut v, Activation::Identity, qrow);
        let o = attend_eval(&q, &k, &v, bias, self.n_heads, scratch);
        scratch.put(q);
        scratch.put(k);
        scratch.put(v);
        let mut out = scratch.take(x.rows, self.w1.out_dim());
        self.w1
            .forward_quant(x, &mut out, Activation::Identity, qrow);
        let mut mixed = scratch.take(o.rows, self.wo.out_dim());
        self.wo
            .forward_quant(&o, &mut mixed, Activation::Identity, qrow);
        scratch.put(o);
        out.add_assign(&mixed);
        scratch.put(mixed);
        if self.relu {
            relu_inplace(&mut out);
        }
        l2_normalize_rows_inplace(&mut out, None);
        out
    }
}

/// Quantized mirror of the SAGE backbone + heads.
struct QuantSageModel {
    cfg: NnlpConfig,
    sage: Vec<QuantSageLayer>,
    heads: Vec<QuantHead>,
    norm: Normalizer,
}

impl QuantSageModel {
    fn from_model(m: &NnlpModel) -> Self {
        QuantSageModel {
            cfg: m.cfg,
            sage: m.sage.iter().map(QuantSageLayer::from_layer).collect(),
            heads: m.heads.iter().map(QuantHead::from_head).collect(),
            norm: m.norm.clone(),
        }
    }

    /// Mirror of `NnlpModel::embed_with`, including every ablation switch,
    /// with the SAGE transforms on the int8 path.
    fn embed_with(
        &self,
        feats: &GraphFeatures,
        scratch: &mut Scratch,
        qrow: &mut QuantRow,
    ) -> Vec<f32> {
        let stat = self.norm.normalize_stat(&feats.stat);
        let mut emb: Vec<f32> = if !self.cfg.use_node_feats {
            Vec::new()
        } else {
            let mut h = scratch.take(feats.nodes.rows, feats.nodes.cols);
            self.norm.normalize_nodes_into(&feats.nodes, &mut h);
            if self.cfg.use_gnn {
                for layer in &self.sage {
                    let next = layer.forward_eval(&h, &feats.adj, scratch, qrow);
                    scratch.put(h);
                    h = next;
                }
            }
            let mut pooled = h.col_sums();
            let inv = if self.cfg.mean_pool {
                1.0 / h.rows.max(1) as f32
            } else {
                SUM_POOL_SCALE
            };
            scratch.put(h);
            for v in &mut pooled {
                *v *= inv;
            }
            pooled
        };
        if self.cfg.use_static {
            emb.extend_from_slice(&stat);
        }
        emb
    }
}

/// Quantized mirror of the transformer backbone + heads.
struct QuantTransformerModel {
    cfg: TransformerConfig,
    embed_in: QuantLinear,
    blocks: Vec<QuantAttnLayer>,
    heads: Vec<QuantHead>,
    norm: Normalizer,
}

impl QuantTransformerModel {
    fn from_model(m: &TransformerModel) -> Self {
        QuantTransformerModel {
            cfg: m.cfg,
            embed_in: QuantLinear::from_linear(&m.embed_in),
            blocks: m.blocks.iter().map(QuantAttnLayer::from_layer).collect(),
            heads: m.heads.iter().map(QuantHead::from_head).collect(),
            norm: m.norm.clone(),
        }
    }

    /// Mirror of `TransformerModel::embed_with` with the token embedding
    /// and block projections on the int8 path.
    fn embed_with(
        &self,
        feats: &GraphFeatures,
        scratch: &mut Scratch,
        qrow: &mut QuantRow,
    ) -> Vec<f32> {
        let stat = self.norm.normalize_stat(&feats.stat);
        let mut nodes = scratch.take(feats.nodes.rows, feats.nodes.cols);
        self.norm.normalize_nodes_into(&feats.nodes, &mut nodes);
        let bias = attention_bias(&feats.adj);
        let mut h = scratch.take(nodes.rows, self.embed_in.out_dim());
        self.embed_in
            .forward_quant(&nodes, &mut h, Activation::Identity, qrow);
        scratch.put(nodes);
        for block in &self.blocks {
            let next = block.forward_eval(&h, &bias, scratch, qrow);
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
}

enum QuantBackbone {
    Sage(QuantSageModel),
    Transformer(QuantTransformerModel),
}

/// An inference-only int8 wrapper around a trained f32 predictor. Built
/// by [`quantize_predictor`]; installed by the serve layer only after the
/// accuracy parity gate passes.
pub struct QuantizedPredictor {
    inner_kind: PredictorKind,
    backbone: QuantBackbone,
    /// The f32 checkpoint of record — quantization re-derives the int8
    /// tables deterministically from it on every load.
    inner_json: String,
}

/// Quantize a trained predictor into its int8 inference form. Goes
/// through the checkpoint JSON, so it works on any `dyn Predictor` and is
/// byte-for-byte the same operation as reloading a serialized quantized
/// checkpoint. Idempotent: quantizing an already-quantized predictor
/// re-quantizes the same inner f32 weights.
pub fn quantize_predictor(p: &dyn Predictor) -> Result<QuantizedPredictor, String> {
    QuantizedPredictor::from_inner_json(&p.to_json())
}

impl QuantizedPredictor {
    /// Build from an f32 checkpoint document (or a `"quantized"` document,
    /// whose inner checkpoint is unwrapped).
    pub fn from_inner_json(s: &str) -> Result<Self, String> {
        let v: serde_json::Value = serde_json::from_str(s).map_err(|e| e.to_string())?;
        match v["kind"].as_str() {
            Some("quantized") => {
                let inner = &v["inner"];
                if inner.is_null() {
                    return Err("quantized checkpoint missing inner model".to_string());
                }
                Self::from_inner_json(&inner.to_string())
            }
            Some("transformer") => {
                let m = TransformerModel::from_json(s)?;
                Ok(QuantizedPredictor {
                    inner_kind: PredictorKind::Transformer,
                    backbone: QuantBackbone::Transformer(QuantTransformerModel::from_model(&m)),
                    inner_json: s.to_string(),
                })
            }
            Some(other) => Err(format!("cannot quantize predictor kind '{other}'")),
            None => {
                let m = NnlpModel::from_json(s).map_err(|e| e.to_string())?;
                Ok(QuantizedPredictor {
                    inner_kind: PredictorKind::Sage,
                    backbone: QuantBackbone::Sage(QuantSageModel::from_model(&m)),
                    inner_json: s.to_string(),
                })
            }
        }
    }
}

impl Predictor for QuantizedPredictor {
    /// The *inner* architecture: routing, fresh-model construction and
    /// `--arch` vocabulary stay unaware of quantization.
    fn kind(&self) -> PredictorKind {
        self.inner_kind
    }

    /// `QUANT_IDENTITY_OFFSET + inner id` — distinct from every f32
    /// identity so cached embeddings never cross the precision boundary.
    fn identity(&self) -> u64 {
        QUANT_IDENTITY_OFFSET + self.inner_kind.id()
    }

    fn embedding_dim(&self) -> usize {
        match &self.backbone {
            QuantBackbone::Sage(m) => m.cfg.embedding_dim(),
            QuantBackbone::Transformer(m) => m.cfg.embedding_dim(),
        }
    }

    fn n_heads(&self) -> usize {
        match &self.backbone {
            QuantBackbone::Sage(m) => m.heads.len(),
            QuantBackbone::Transformer(m) => m.heads.len(),
        }
    }

    fn embed_with(&self, feats: &GraphFeatures, scratch: &mut Scratch) -> Vec<f32> {
        let mut qrow = QuantRow::new();
        match &self.backbone {
            QuantBackbone::Sage(m) => m.embed_with(feats, scratch, &mut qrow),
            QuantBackbone::Transformer(m) => m.embed_with(feats, scratch, &mut qrow),
        }
    }

    fn head_eval_rows(
        &self,
        embs: &Matrix,
        head_idx: usize,
        scratch: &mut Scratch,
        out: &mut [f64],
    ) {
        let heads = match &self.backbone {
            QuantBackbone::Sage(m) => &m.heads,
            QuantBackbone::Transformer(m) => &m.heads,
        };
        heads[head_idx].eval(embs, scratch, &mut QuantRow::new(), out);
    }

    /// Quantized predictors are frozen deployment artifacts: retraining
    /// happens on the f32 champion, which is then re-quantized.
    fn train_in_place(&mut self, _samples: &[Sample], _cfg: TrainConfig) -> TrainReport {
        panic!("QuantizedPredictor is inference-only: retrain the f32 champion and re-quantize");
    }

    fn to_json(&self) -> String {
        let inner: serde_json::Value =
            serde_json::from_str(&self.inner_json).expect("inner checkpoint reparses");
        serde_json::json!({
            "kind": "quantized",
            "inner": inner,
        })
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract_features;
    use crate::model::NnlpConfig;
    use crate::predictor::predictor_from_json;
    use nnlqp_ir::{GraphBuilder, Rng64, Shape};

    fn tiny_feats() -> GraphFeatures {
        let mut b = GraphBuilder::new("t", Shape::nchw(1, 3, 16, 16));
        let c = b.conv(None, 8, 3, 1, 1, 1).unwrap();
        let r = b.relu(c).unwrap();
        let g = b.global_avgpool(r).unwrap();
        let f = b.flatten(g).unwrap();
        b.gemm(f, 10).unwrap();
        extract_features(&b.finish().unwrap())
    }

    fn sage_model() -> (NnlpModel, GraphFeatures) {
        let feats = tiny_feats();
        let norm = Normalizer::fit(&[&feats]);
        let mut rng = Rng64::new(90);
        (NnlpModel::new(NnlpConfig::default(), norm, &mut rng), feats)
    }

    fn transformer_model() -> (TransformerModel, GraphFeatures) {
        let feats = tiny_feats();
        let norm = Normalizer::fit(&[&feats]);
        let mut rng = Rng64::new(91);
        (
            TransformerModel::new(TransformerConfig::default(), norm, &mut rng),
            feats,
        )
    }

    /// One arena serves a whole batch only if a pass returns exactly the
    /// buffers it drew: from the second graph on the arena must not grow,
    /// on any architecture, f32 or int8.
    #[test]
    fn a_reused_arena_stops_growing_after_the_first_graph() {
        let small = {
            let mut b = GraphBuilder::new("s", Shape::nchw(1, 3, 8, 8));
            let c = b.conv(None, 4, 3, 1, 1, 1).unwrap();
            b.relu(c).unwrap();
            extract_features(&b.finish().unwrap())
        };
        let (sage, big) = sage_model();
        let (tf, _) = transformer_model();
        let predictors: [Box<dyn Predictor>; 4] = [
            Box::new(quantize_predictor(&sage).unwrap()),
            Box::new(quantize_predictor(&tf).unwrap()),
            Box::new(sage),
            Box::new(tf),
        ];
        for p in &predictors {
            let mut scratch = Scratch::new();
            let mut warm = None;
            for feats in [&big, &small, &big, &big, &small] {
                let emb = p.embed_with(feats, &mut scratch);
                let x = Matrix::from_rows(1, emb.len(), emb);
                p.head_eval_rows(&x, 0, &mut scratch, &mut [0.0]);
                let idle = scratch.idle_buffers();
                assert!(idle > 0, "{}: arena unused", p.kind());
                assert_eq!(*warm.get_or_insert(idle), idle, "{}: arena grew", p.kind());
            }
        }
    }

    #[test]
    fn quantized_sage_tracks_f32_in_log_space() {
        let (m, feats) = sage_model();
        let q = quantize_predictor(&m).unwrap();
        assert_eq!(q.kind(), PredictorKind::Sage);
        assert_eq!(q.identity(), 101);
        assert_eq!(q.embedding_dim(), m.cfg.embedding_dim());
        assert_eq!(q.n_heads(), 1);
        let pf = Predictor::predict_ms(&m, &feats, 0);
        let pq = Predictor::predict_ms(&q, &feats, 0);
        assert!(pq.is_finite() && pq > 0.0);
        assert!(
            (pf.ln_1p() - pq.ln_1p()).abs() < 0.25,
            "f32 {pf} vs quant {pq}"
        );
    }

    #[test]
    fn quantized_transformer_tracks_f32_in_log_space() {
        let (m, feats) = transformer_model();
        let q = quantize_predictor(&m).unwrap();
        assert_eq!(q.kind(), PredictorKind::Transformer);
        assert_eq!(q.identity(), 102);
        let pf = Predictor::predict_ms(&m, &feats, 0);
        let pq = Predictor::predict_ms(&q, &feats, 0);
        assert!(pq.is_finite() && pq > 0.0);
        assert!(
            (pf.ln_1p() - pq.ln_1p()).abs() < 0.25,
            "f32 {pf} vs quant {pq}"
        );
    }

    #[test]
    fn quantized_json_roundtrip_is_bitwise_stable() {
        for build in [
            || -> Box<dyn Predictor> { Box::new(sage_model().0) },
            || -> Box<dyn Predictor> { Box::new(transformer_model().0) },
        ] {
            let m = build();
            let feats = tiny_feats();
            let q = quantize_predictor(m.as_ref()).unwrap();
            let back = predictor_from_json(&Predictor::to_json(&q)).unwrap();
            // Quantization is deterministic: the reloaded predictor is the
            // same int8 tables, so predictions match bit for bit.
            assert_eq!(back.identity(), q.identity());
            assert_eq!(back.kind(), q.kind());
            assert_eq!(
                back.predict_ms(&feats, 0),
                Predictor::predict_ms(&q, &feats, 0)
            );
        }
    }

    #[test]
    fn quantizing_a_quantized_predictor_is_idempotent() {
        let (m, feats) = sage_model();
        let q1 = quantize_predictor(&m).unwrap();
        let q2 = quantize_predictor(&q1).unwrap();
        assert_eq!(q2.identity(), q1.identity());
        assert_eq!(
            Predictor::predict_ms(&q2, &feats, 0),
            Predictor::predict_ms(&q1, &feats, 0)
        );
    }

    #[test]
    fn quantized_ablation_configs_embed() {
        // Every ablation switch flows through the quantized sage mirror.
        let feats = tiny_feats();
        let norm = Normalizer::fit(&[&feats]);
        for cfg in [
            NnlpConfig::without_node_features(),
            NnlpConfig::without_gnn(),
            NnlpConfig::without_static(),
            NnlpConfig::brp_nas(),
        ] {
            let mut rng = Rng64::new(92);
            let m = NnlpModel::new(cfg, norm.clone(), &mut rng);
            let q = quantize_predictor(&m).unwrap();
            let emb = Predictor::embed(&q, &feats);
            assert_eq!(emb.len(), m.cfg.embedding_dim());
            assert!(Predictor::predict_ms(&q, &feats, 0).is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "inference-only")]
    fn quantized_predictor_refuses_training() {
        let (m, _) = sage_model();
        let mut q = quantize_predictor(&m).unwrap();
        q.train_in_place(&[], TrainConfig::default());
    }

    #[test]
    fn unknown_kind_is_rejected() {
        assert!(QuantizedPredictor::from_inner_json("{\"kind\":\"marsprobe\"}").is_err());
        assert!(QuantizedPredictor::from_inner_json("{\"kind\":\"quantized\"}").is_err());
    }
}
