//! The [`Predictor`] trait: the embed/head split that has always lived
//! inside [`NnlpModel`], formalized so every future model — transformer
//! encoders, platform-transfer pools — is a drop-in behind one object-safe
//! API.
//!
//! The split is the contract the whole serving stack is built on:
//!
//! * [`Predictor::embed_with`] is the expensive half (backbone + pooling)
//!   whose output the facade's `EmbedCache` stores;
//! * [`Predictor::head_eval_rows`] is the cheap per-platform half run on
//!   cache hits. It is a function of a *matrix* of embeddings: B rows in,
//!   one head, B answers out, three GEMMs whatever B is, and a row's
//!   answer never depends on the rows beside it. A batch therefore costs
//!   one call per platform, and the one-embedding [`Predictor::head_eval`]
//!   is the same path with B = 1;
//! * [`Predictor::kind`] names the architecture for cache keying, so a
//!   `set_predictor` swap from one architecture to the other can never
//!   resolve a stale cross-architecture embedding;
//! * [`Predictor::train_in_place`] / [`Predictor::to_json`] are the
//!   serializable train/eval entry points the retrain loop and model
//!   checkpointing use.

use crate::features::GraphFeatures;
use crate::model::NnlpModel;
use crate::train::{train, Sample, TrainConfig, TrainReport};
use crate::transformer::TransformerModel;
use nnlqp_nn::{Matrix, Scratch};
use std::fmt;
use std::str::FromStr;

/// The predictor architectures this workspace ships. `#[non_exhaustive]`:
/// future PRs add variants (platform-transfer, ...) without a
/// breaking change, so downstream `match`es need a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PredictorKind {
    /// GraphSAGE backbone + per-platform MLP heads (the paper's NNLP).
    #[default]
    Sage,
    /// Multi-head self-attention encoder with an adjacency-derived
    /// attention bias (NAR-Former-V2 direction).
    Transformer,
}

impl PredictorKind {
    /// Stable architecture discriminant for embed-cache keying. These
    /// values are part of the cache-key contract: never reuse or renumber.
    pub fn id(self) -> u64 {
        match self {
            PredictorKind::Sage => 1,
            PredictorKind::Transformer => 2,
        }
    }

    /// Canonical lowercase name (the `--arch` flag vocabulary).
    pub fn as_str(self) -> &'static str {
        match self {
            PredictorKind::Sage => "sage",
            PredictorKind::Transformer => "transformer",
        }
    }

    /// Every kind, for "run all architectures" loops (`repro encoders`).
    pub fn all() -> &'static [PredictorKind] {
        &[PredictorKind::Sage, PredictorKind::Transformer]
    }
}

impl fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for PredictorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "sage" | "graphsage" | "gnn" => Ok(PredictorKind::Sage),
            "transformer" | "attn" | "attention" => Ok(PredictorKind::Transformer),
            other => Err(format!(
                "unknown predictor architecture '{other}' (expected sage|transformer)"
            )),
        }
    }
}

/// A latency/accuracy predictor split into an expensive graph-embedding
/// half and cheap per-platform heads. Object-safe: the facade stores
/// `Arc<dyn Predictor>` and hot-swaps implementations at runtime.
pub trait Predictor: Send + Sync {
    /// Which architecture this is. Its [`PredictorKind::id`] keys the
    /// embed cache: embeddings from different kinds are never
    /// interchangeable.
    fn kind(&self) -> PredictorKind;

    /// Width of the pooled graph embedding entering a head.
    fn embedding_dim(&self) -> usize;

    /// Number of per-platform heads.
    fn n_heads(&self) -> usize;

    /// The expensive half: normalize raw features, run the backbone and
    /// pool into the shared graph embedding, drawing every intermediate
    /// from `scratch`.
    fn embed_with(&self, feats: &GraphFeatures, scratch: &mut Scratch) -> Vec<f32>;

    /// [`Predictor::embed_with`] over a private scratch arena.
    fn embed(&self, feats: &GraphFeatures) -> Vec<f32> {
        self.embed_with(feats, &mut Scratch::new())
    }

    /// The cheap half, over a matrix of embeddings (one per row, each from
    /// this exact predictor's [`Predictor::embed_with`]): one platform
    /// head evaluated on all of them at once, `out[i]` receiving row `i`'s
    /// answer in output units (ms for latency, percent for accuracy). A
    /// row's answer does not depend on the rows it is stacked with: a
    /// batch is bit-identical to its rows evaluated one at a time.
    fn head_eval_rows(
        &self,
        embs: &Matrix,
        head_idx: usize,
        scratch: &mut Scratch,
        out: &mut [f64],
    );

    /// [`Predictor::head_eval_rows`] on one embedding, over a private
    /// scratch arena.
    fn head_eval(&self, emb: &[f32], head_idx: usize) -> f64 {
        let x = Matrix::from_rows(1, emb.len(), emb.to_vec());
        let mut out = [0.0];
        self.head_eval_rows(&x, head_idx, &mut Scratch::new(), &mut out);
        out[0]
    }

    /// Every row of `embs` against every head in `head_idxs`, one
    /// [`Predictor::head_eval_rows`] call per head: `[row][head]`.
    fn head_eval_grid(
        &self,
        embs: &Matrix,
        head_idxs: &[usize],
        scratch: &mut Scratch,
    ) -> Vec<Vec<f64>> {
        let mut grid: Vec<Vec<f64>> = (0..embs.rows)
            .map(|_| Vec::with_capacity(head_idxs.len()))
            .collect();
        let mut column = vec![0.0; embs.rows];
        for &h in head_idxs {
            self.head_eval_rows(embs, h, scratch, &mut column);
            for (row, &v) in grid.iter_mut().zip(&column) {
                row.push(v);
            }
        }
        grid
    }

    /// Embed + head in one call.
    fn predict_ms(&self, feats: &GraphFeatures, head_idx: usize) -> f64 {
        self.predict_batch(std::slice::from_ref(feats), &[head_idx])[0][0]
    }

    /// Batched prediction: one backbone pass per graph, every graph on the
    /// one scratch arena (warm from the second graph on), the embeddings
    /// stacked and each head in `head_idxs` run once over the stack.
    /// Bit-identical to per-(graph, head) [`Predictor::predict_ms`] calls.
    fn predict_batch(&self, feats: &[GraphFeatures], head_idxs: &[usize]) -> Vec<Vec<f64>> {
        let mut scratch = Scratch::new();
        let mut embs = scratch.take(feats.len(), self.embedding_dim());
        for (i, f) in feats.iter().enumerate() {
            embs.row_mut(i)
                .copy_from_slice(&self.embed_with(f, &mut scratch));
        }
        self.head_eval_grid(&embs, head_idxs, &mut scratch)
    }

    /// Train on pre-normalized samples (mini-batch Adam; Algorithm 1).
    fn train_in_place(&mut self, samples: &[Sample], cfg: TrainConfig) -> TrainReport;

    /// Serialize to JSON (checkpointing / transfer). The inverse is
    /// [`predictor_from_json`], which dispatches on the architecture tag.
    fn to_json(&self) -> String;
}

impl Predictor for NnlpModel {
    fn kind(&self) -> PredictorKind {
        PredictorKind::Sage
    }

    fn embedding_dim(&self) -> usize {
        self.cfg.embedding_dim()
    }

    fn n_heads(&self) -> usize {
        self.heads.len()
    }

    fn embed_with(&self, feats: &GraphFeatures, scratch: &mut Scratch) -> Vec<f32> {
        NnlpModel::embed_with(self, feats, scratch)
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
        NnlpModel::to_json(self)
    }
}

/// Deserialize any [`Predictor`] from its [`Predictor::to_json`] form.
/// Transformer checkpoints carry a `"kind"` tag; untagged documents are the
/// legacy GraphSAGE format, kept readable for existing checkpoints. Any
/// other tag is an error naming it.
pub fn predictor_from_json(s: &str) -> Result<Box<dyn Predictor>, String> {
    let v = s
        .parse::<nnlqp_ir::json::Value>()
        .map_err(|e| e.to_string())?;
    match v["kind"].as_str() {
        Some("transformer") => Ok(Box::new(TransformerModel::from_value(&v)?)),
        Some(other) => Err(format!("unknown predictor kind '{other}'")),
        None => Ok(Box::new(NnlpModel::from_value(&v)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{extract_features, Normalizer};
    use crate::model::NnlpConfig;
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

    #[test]
    fn kind_roundtrips_through_strings() {
        for &k in PredictorKind::all() {
            assert_eq!(k.to_string().parse::<PredictorKind>().unwrap(), k);
        }
        assert_eq!(
            "SAGE".parse::<PredictorKind>().unwrap(),
            PredictorKind::Sage
        );
        assert!("resnet".parse::<PredictorKind>().is_err());
    }

    #[test]
    fn kind_ids_are_distinct_and_stable() {
        assert_eq!(PredictorKind::Sage.id(), 1);
        assert_eq!(PredictorKind::Transformer.id(), 2);
    }

    #[test]
    fn sage_trait_path_is_bitwise_identical_to_direct_calls() {
        let feats = tiny_feats();
        let norm = Normalizer::fit(&[&feats]);
        let mut rng = Rng64::new(70);
        let m = NnlpModel::new(NnlpConfig::default(), norm, &mut rng);
        let dynref: &dyn Predictor = &m;
        assert_eq!(dynref.kind(), PredictorKind::Sage);
        assert_eq!(dynref.embedding_dim(), m.cfg.embedding_dim());
        // Single prediction, embed/head split and batch all agree with the
        // legacy direct path — bit for bit.
        assert_eq!(dynref.predict_ms(&feats, 0), m.predict_ms(&feats, 0));
        let emb = dynref.embed(&feats);
        assert_eq!(emb, m.embed(&feats));
        assert_eq!(dynref.head_eval(&emb, 0), m.head_eval(&emb, 0));
        assert_eq!(
            dynref.predict_batch(std::slice::from_ref(&feats), &[0]),
            vec![vec![m.predict_ms(&feats, 0)]]
        );
    }

    #[test]
    fn json_dispatch_restores_the_right_architecture() {
        let feats = tiny_feats();
        let norm = Normalizer::fit(&[&feats]);
        let mut rng = Rng64::new(71);
        let sage = NnlpModel::new(NnlpConfig::default(), norm, &mut rng);
        let back = predictor_from_json(&Predictor::to_json(&sage)).unwrap();
        assert_eq!(back.kind(), PredictorKind::Sage);
        assert_eq!(back.predict_ms(&feats, 0), sage.predict_ms(&feats, 0));
        // Unknown tags are refused by name, including the int8 checkpoints
        // earlier builds wrote around an f32 inner model.
        let quantized = format!(
            "{{\"kind\": \"quantized\", \"inner\": {}}}",
            Predictor::to_json(&sage)
        );
        for (doc, kind) in [
            ("{\"kind\": \"marsprobe\"}", "marsprobe"),
            (&quantized[..], "quantized"),
        ] {
            let err = predictor_from_json(doc)
                .err()
                .expect("unknown kind must not load");
            assert!(err.contains(kind), "{err}");
        }
    }

    /// `predictor_from_json` refuses `doc`, naming `field`.
    fn assert_refused(doc: &str, field: &str) {
        let err = predictor_from_json(doc)
            .err()
            .expect("a hostile checkpoint loaded");
        assert!(err.contains(field), "{err}");
    }

    /// A checkpoint of a default transformer (`d_model` 32, four attention
    /// heads), altered by `edit` before it is written.
    fn transformer_checkpoint(edit: impl FnOnce(&mut TransformerModel)) -> String {
        let norm = Normalizer::fit(&[&tiny_feats()]);
        let cfg = crate::TransformerConfig::default();
        let mut m = TransformerModel::new(cfg, norm, &mut Rng64::new(72));
        edit(&mut m);
        Predictor::to_json(&m)
    }

    #[test]
    fn a_checkpoint_with_zero_attention_heads_is_refused() {
        let doc = transformer_checkpoint(|m| m.blocks[1].n_heads = 0);
        assert_refused(&doc, "n_heads");
    }

    #[test]
    fn a_checkpoint_whose_attention_heads_do_not_divide_the_width_is_refused() {
        let doc = transformer_checkpoint(|m| m.blocks[0].n_heads = 3);
        assert_refused(&doc, "n_heads");
    }

    #[test]
    fn a_checkpoint_with_a_bias_of_the_wrong_length_is_refused() {
        let norm = Normalizer::fit(&[&tiny_feats()]);
        let mut sage = NnlpModel::new(NnlpConfig::default(), norm, &mut Rng64::new(73));
        sage.sage[1].w2.b.pop();
        assert_refused(&Predictor::to_json(&sage), "bias");
    }
}
