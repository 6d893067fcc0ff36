//! `NNLQP.predict` — the prediction path, trained from the evolving
//! database.
//!
//! The facade holds the model as `Arc<dyn Predictor>`: any architecture
//! implementing `nnlqp_predict::Predictor` (GraphSAGE, the transformer
//! encoder, future variants) can be trained, installed and hot-swapped
//! behind the same `predict` / `predict_effective` / `predict_batch`
//! entry points. Embed-cache keys carry both the install stamp and the
//! architecture id, so a swap — same architecture or cross —
//! can never serve a stale embedding.

use crate::embed_cache::EmbedKey;
use crate::interface::{metric_names, Nnlqp, QueryError, QueryParams};
use nnlqp_hash::graph_fingerprint;
use nnlqp_ir::Rng64;
use nnlqp_obs::Recover;
use nnlqp_predict::train::{Dataset, TrainConfig};
use nnlqp_predict::{
    extract_features, NnlpConfig, NnlpModel, Predictor, PredictorKind, TransformerConfig,
    TransformerModel,
};
use nnlqp_sim::PlatformSpec;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Simulated wall-clock cost of one prediction (feature extraction + GNN
/// inference; §8.2 measures ~0.10 s per model).
pub const PREDICT_COST_S: f64 = 0.100;

/// Simulated wall-clock cost of a prediction whose graph embedding was
/// already cached: only the graph hash and the per-platform MLP head run.
pub const CACHED_PREDICT_COST_S: f64 = 0.002;

/// Simulated wall-clock cost of one FLOPs+MAC prediction (§8.2: ~0.094 s).
pub const FLOPS_MAC_COST_S: f64 = 0.094;

/// Attention heads used when the facade trains a transformer predictor.
const TRANSFORMER_ATTN_HEADS: usize = 4;

/// A trained multi-platform predictor bound to its platform→head map.
#[derive(Clone)]
pub struct PredictorHandle {
    /// The model, behind the architecture-agnostic trait.
    pub model: Arc<dyn Predictor>,
    /// Platform name → head index.
    pub head_of: HashMap<String, usize>,
    /// Unique generation stamp (embed-cache key component). Assigned from
    /// the system's generation counter at train/install time; re-stamped
    /// on every install so hot-swapping the same handle still invalidates.
    pub(crate) stamp: u64,
}

impl PredictorHandle {
    /// Handle over any [`Predictor`]. The stamp is assigned when the
    /// handle is trained by or installed into a system.
    pub fn new(model: Arc<dyn Predictor>, head_of: HashMap<String, usize>) -> Self {
        PredictorHandle {
            model,
            head_of,
            stamp: 0,
        }
    }

    /// Architecture of the wrapped model.
    pub fn kind(&self) -> PredictorKind {
        self.model.kind()
    }

    /// The head serving `platform_name` (canonical name or paper alias).
    /// Heads are keyed by canonical name, so the name is all that is
    /// resolved: no spec is constructed.
    fn head_for(&self, platform_name: &str) -> Result<usize, QueryError> {
        let name = PlatformSpec::canonical_name(platform_name)
            .ok_or_else(|| QueryError::UnknownPlatform(platform_name.to_string()))?;
        self.head_of
            .get(name)
            .copied()
            .ok_or_else(|| QueryError::UnknownPlatform(format!("no head for {name}")))
    }
}

/// Training options for [`Nnlqp::train_predictor`].
#[derive(Debug, Clone, Copy)]
pub struct TrainPredictorConfig {
    /// Epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f64,
    /// Seed.
    pub seed: u64,
    /// Backbone hidden width (GNN hidden / transformer `d_model`, the
    /// latter rounded up to a multiple of the attention head count).
    pub hidden: usize,
    /// Backbone depth (SAGE layers / attention blocks).
    pub gnn_layers: usize,
    /// Architecture to train (GraphSAGE by default).
    pub arch: PredictorKind,
}

impl Default for TrainPredictorConfig {
    fn default() -> Self {
        TrainPredictorConfig {
            epochs: 30,
            batch_size: 16,
            lr: 1e-3,
            seed: 7,
            hidden: 48,
            gnn_layers: 3,
            arch: PredictorKind::Sage,
        }
    }
}

/// Outcome of `predict`.
#[derive(Debug, Clone)]
pub struct PredictResult {
    /// Predicted latency in milliseconds.
    pub latency_ms: f64,
    /// Wall-clock cost of answering, in (simulated) seconds.
    pub cost_s: f64,
}

/// Outcome of [`Nnlqp::predict_batch`].
#[derive(Debug, Clone)]
pub struct BatchPredictResult {
    /// `latencies_ms[g][p]` is the prediction for `graphs[g]` on
    /// `platform_names[p]`, in milliseconds.
    pub latencies_ms: Vec<Vec<f64>>,
    /// Total simulated wall-clock cost: one full-backbone prediction per
    /// embed miss, one cheap head-only prediction for everything else.
    pub cost_s: f64,
    /// Graphs whose embedding was served from the cache.
    pub embed_hits: u64,
    /// Graphs whose embedding had to be computed.
    pub embed_misses: u64,
}

impl Nnlqp {
    /// Train the multi-platform predictor from everything currently in
    /// the database for the given platforms (the evolving-database loop:
    /// re-run this as queries accumulate) and install it. Returns the
    /// number of training samples used.
    pub fn train_predictor(
        &self,
        platform_names: &[&str],
        cfg: TrainPredictorConfig,
    ) -> Result<usize, QueryError> {
        let Some((handle, samples)) = self.train_predictor_handle(platform_names, cfg)? else {
            return Ok(0);
        };
        self.install_predictor(handle);
        Ok(samples)
    }

    /// Train a predictor from the database *without* installing it — for
    /// callers that score or compare a model before (or instead of)
    /// [`Nnlqp::set_predictor`]. Returns `None` when the database holds
    /// no samples for the platforms.
    pub fn train_predictor_handle(
        &self,
        platform_names: &[&str],
        cfg: TrainPredictorConfig,
    ) -> Result<Option<(PredictorHandle, usize)>, QueryError> {
        // Each stored `(model, batch)` is decoded once; its rows, one per
        // platform that measured it, borrow that one graph. A row whose
        // graph does not decode or rebatch (one stored before the store
        // checked what it was given) is skipped and counted: it must not
        // stop the evolving database from learning from the rest.
        let mut graphs: Vec<nnlqp_ir::Graph> = Vec::new();
        let mut graph_of = HashMap::new();
        let mut rows: Vec<(usize, f64, usize)> = Vec::new();
        let mut head_of = HashMap::new();
        for (head, name) in platform_names.iter().enumerate() {
            let spec = PlatformSpec::by_name(name)
                .ok_or_else(|| QueryError::UnknownPlatform(name.to_string()))?;
            head_of.insert(spec.name.clone(), head);
            let pid =
                self.db
                    .get_or_create_platform(&spec.hardware, &spec.software, spec.dtype.name());
            for rec in self.db.latencies_for_platform(pid) {
                let batch = rec.batch_size as usize;
                let key = (rec.model_id, batch);
                let slot = match graph_of.get(&key) {
                    Some(&slot) => slot,
                    None => {
                        let Some(g) = self.stored_graph(rec.model_id, batch) else {
                            self.registry()
                                .counter(metric_names::RETRAIN_ROWS_SKIPPED)
                                .inc();
                            continue;
                        };
                        graphs.push(g);
                        graph_of.insert(key, graphs.len() - 1);
                        graphs.len() - 1
                    }
                };
                rows.push((slot, rec.cost_ms, head));
            }
        }
        if rows.is_empty() {
            return Ok(None);
        }
        let entries: Vec<(&nnlqp_ir::Graph, f64, usize)> = (rows.iter())
            .map(|&(slot, ms, head)| (&graphs[slot], ms, head))
            .collect();
        let ds = Dataset::build(&entries);
        // The samples hold what training reads: free the graphs first.
        drop(entries);
        drop(graphs);
        let mut rng = Rng64::new(cfg.seed);
        let mut model = fresh_model(&cfg, platform_names.len(), ds.norm.clone(), &mut rng);
        model.train_in_place(
            &ds.samples,
            TrainConfig {
                epochs: cfg.epochs,
                batch_size: cfg.batch_size,
                lr: cfg.lr,
                seed: cfg.seed,
            },
        );
        let handle = PredictorHandle {
            model: Arc::from(model),
            head_of,
            stamp: self.next_stamp(),
        };
        Ok(Some((handle, rows.len())))
    }

    /// Stored model `id` at batch `batch`, or `None` when its bytes do not
    /// decode or it does not rebatch.
    fn stored_graph(&self, id: nnlqp_db::ModelId, batch: usize) -> Option<nnlqp_ir::Graph> {
        let g = self.db.load_graph(id).ok()?;
        if g.input_shape.batch() == batch {
            Some(g)
        } else {
            g.rebatch(batch).ok()
        }
    }

    /// Install an externally trained predictor.
    pub fn set_predictor(&self, handle: PredictorHandle) {
        self.install_predictor(handle);
    }

    /// Swap in a predictor and re-stamp it from the generation counter
    /// while still holding the write lock, so any reader that observes
    /// the new model also observes its fresh stamp — embeddings computed
    /// by an older install (even of the very same handle) can never be
    /// served against the new heads.
    fn install_predictor(&self, mut handle: PredictorHandle) {
        let mut guard = self.predictor.write().recover();
        handle.stamp = self.next_stamp();
        *guard = Some(handle);
    }

    /// Draw a fresh generation stamp.
    fn next_stamp(&self) -> u64 {
        self.predictor_version.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Current value of the generation counter (0 = no predictor ever
    /// trained); advanced by every [`Nnlqp::train_predictor`] /
    /// [`Nnlqp::set_predictor`] hot-swap and every
    /// [`Nnlqp::train_predictor_handle`] stamp.
    pub fn predictor_version(&self) -> u64 {
        self.predictor_version.load(Ordering::Acquire)
    }

    /// A clone of the installed predictor, if any — lets callers move a
    /// trained model between systems (e.g. into a cache-disabled baseline
    /// for benchmarking) via [`Nnlqp::set_predictor`].
    pub fn predictor_handle(&self) -> Option<PredictorHandle> {
        self.predictor.read().recover().clone()
    }

    /// The paper's `NNLQP.predict`: estimate latency without touching
    /// hardware. Requires a trained predictor covering the platform.
    pub fn predict(&self, params: &QueryParams) -> Result<PredictResult, QueryError> {
        if params.model.input_shape.batch() == params.batch_size as usize {
            self.predict_effective(&params.model, params.platform.name())
        } else {
            let graph = params
                .model
                .rebatch(params.batch_size as usize)
                .map_err(|e| QueryError::BadBatch(e.to_string()))?;
            self.predict_effective(&graph, params.platform.name())
        }
    }

    /// `predict` over a graph that is already at the effective batch size
    /// — the zero-copy entry point for serving layers that resolved the
    /// graph once up front.
    ///
    /// The expensive half of a prediction (feature extraction + backbone)
    /// is cached by `(graph_hash, batch, stamp, architecture)`; a repeat
    /// prediction of the same graph — on any platform — only runs the
    /// per-platform MLP head and reports the much smaller
    /// [`CACHED_PREDICT_COST_S`].
    pub fn predict_effective(
        &self,
        graph: &nnlqp_ir::Graph,
        platform_name: &str,
    ) -> Result<PredictResult, QueryError> {
        let guard = self.predictor.read().recover();
        let handle = guard.as_ref().ok_or(QueryError::NoPredictor)?;
        self.predict_effective_with(handle, graph, platform_name)
    }

    /// [`Nnlqp::predict_effective`] through an explicit handle instead of
    /// the installed predictor — e.g. one from
    /// [`Nnlqp::train_predictor_handle`]. Each handle keeps its own
    /// cache-key identity, so handles share the embed cache without ever
    /// sharing embeddings.
    pub fn predict_effective_with(
        &self,
        handle: &PredictorHandle,
        graph: &nnlqp_ir::Graph,
        platform_name: &str,
    ) -> Result<PredictResult, QueryError> {
        self.predict_staged_inner(handle, graph, platform_name, &mut |_| {})
    }

    /// [`Nnlqp::predict_effective`], marking its stages as they end:
    /// `mark("embed_cache")` once the embedding is in hand (cache probe,
    /// plus feature extraction and backbone on a miss) and
    /// `mark("predict_head")` once the platform head has answered, so a
    /// serving trace can tile the degraded path exactly.
    pub fn predict_effective_staged(
        &self,
        graph: &nnlqp_ir::Graph,
        platform_name: &str,
        mark: &mut dyn FnMut(&'static str),
    ) -> Result<PredictResult, QueryError> {
        let guard = self.predictor.read().recover();
        let handle = guard.as_ref().ok_or(QueryError::NoPredictor)?;
        self.predict_staged_inner(handle, graph, platform_name, mark)
    }

    fn predict_staged_inner(
        &self,
        handle: &PredictorHandle,
        graph: &nnlqp_ir::Graph,
        platform_name: &str,
        mark: &mut dyn FnMut(&'static str),
    ) -> Result<PredictResult, QueryError> {
        let head = handle.head_for(platform_name)?;
        let key = embed_key(graph, handle);
        let (emb, cost_s) = match self.embed_cache.get(&key) {
            Some(emb) => {
                self.m_embed_hits.inc();
                (emb, CACHED_PREDICT_COST_S)
            }
            None => {
                self.m_embed_misses.inc();
                let emb = Arc::new(handle.model.embed(&extract_features(graph)));
                self.embed_cache.insert(key, Arc::clone(&emb));
                self.g_embed_len.set(self.embed_cache.len() as f64);
                (emb, PREDICT_COST_S)
            }
        };
        mark("embed_cache");
        let latency_ms = handle.model.head_eval(&emb, head);
        mark("predict_head");
        Ok(PredictResult { latency_ms, cost_s })
    }

    /// Batched multi-platform prediction: hash and cache-probe every
    /// graph, compute the missing embeddings (each runs the backbone
    /// exactly once), then run each requested platform's head once over
    /// all of them. Numerically identical to calling
    /// [`Nnlqp::predict`] per `(graph, platform)` pair — see the
    /// `predict_fastpath` parity suite — while paying the backbone cost
    /// per *graph* instead of per *pair*.
    pub fn predict_batch(
        &self,
        graphs: &[nnlqp_ir::Graph],
        platform_names: &[&str],
    ) -> Result<BatchPredictResult, QueryError> {
        let guard = self.predictor.read().recover();
        let handle = guard.as_ref().ok_or(QueryError::NoPredictor)?;
        let heads = platform_names
            .iter()
            .map(|name| handle.head_for(name))
            .collect::<Result<Vec<usize>, _>>()?;

        // Serial probe pass: fingerprint each graph (a memo read for a
        // graph value seen before) and consult the cache.
        let keys: Vec<EmbedKey> = graphs.iter().map(|g| embed_key(g, handle)).collect();
        let mut embeddings: Vec<Option<crate::embed_cache::SharedEmbedding>> =
            keys.iter().map(|k| self.embed_cache.get(k)).collect();
        let hits = embeddings.iter().flatten().count() as u64;
        self.m_embed_hits.add(hits);

        // Backbone pass over the misses only, all on one scratch arena:
        // from the second graph on it allocates nothing but the embedding.
        let missing: Vec<usize> = (0..graphs.len())
            .filter(|&i| embeddings[i].is_none())
            .collect();
        self.m_embed_misses.add(missing.len() as u64);
        let mut scratch = nnlqp_predict::Scratch::new();
        let fresh: Vec<crate::embed_cache::SharedEmbedding> = missing
            .iter()
            .map(|&i| {
                let feats = extract_features(&graphs[i]);
                Arc::new(handle.model.embed_with(&feats, &mut scratch))
            })
            .collect();
        for (&i, emb) in missing.iter().zip(&fresh) {
            self.embed_cache.insert(keys[i].clone(), Arc::clone(emb));
            embeddings[i] = Some(Arc::clone(emb));
        }
        self.g_embed_len.set(self.embed_cache.len() as f64);

        // Head fan-out: the embeddings stacked once, then each requested
        // platform's head run once over the whole stack.
        let mut stacked = scratch.take(graphs.len(), handle.model.embedding_dim());
        for (i, emb) in embeddings.iter().enumerate() {
            let emb = emb.as_ref().expect("all embeddings resolved");
            stacked.row_mut(i).copy_from_slice(emb);
        }
        let latencies_ms = handle.model.head_eval_grid(&stacked, &heads, &mut scratch);

        let misses = missing.len() as u64;
        let total = (graphs.len() * platform_names.len()) as u64;
        Ok(BatchPredictResult {
            latencies_ms,
            cost_s: misses as f64 * PREDICT_COST_S
                + total.saturating_sub(misses) as f64 * CACHED_PREDICT_COST_S,
            embed_hits: hits,
            embed_misses: misses,
        })
    }
}

/// Cache key of a graph under a specific predictor handle: graph + batch
/// + generation stamp + architecture id.
///
/// Keyed with [`nnlqp_hash::graph_fingerprint`] rather than the Merkle
/// graph hash: the embed cache is in-process only (never persisted, so the
/// database's hash contract doesn't apply) and the key is asked for on
/// every single prediction, where the fingerprint is a digest memoised in
/// the graph's node list — a graph value predicted before is not walked
/// again. The fingerprint is order-dependent, so isomorphic graphs built
/// in different branch order may miss the cache — a spurious recompute,
/// never a wrong hit.
fn embed_key(graph: &nnlqp_ir::Graph, handle: &PredictorHandle) -> EmbedKey {
    EmbedKey {
        graph_hash: graph_fingerprint(graph),
        batch: graph.input_shape.batch() as u32,
        version: handle.stamp,
        arch: handle.kind().id(),
    }
}

/// Fresh, untrained model of the configured architecture, sized from the
/// facade-level training config.
fn fresh_model(
    cfg: &TrainPredictorConfig,
    n_heads: usize,
    norm: nnlqp_predict::Normalizer,
    rng: &mut Rng64,
) -> Box<dyn Predictor> {
    match cfg.arch {
        PredictorKind::Sage => Box::new(NnlpModel::new(
            NnlpConfig {
                hidden: cfg.hidden,
                head_hidden: cfg.hidden,
                gnn_layers: cfg.gnn_layers,
                n_heads,
                dropout: 0.05,
                ..Default::default()
            },
            norm,
            rng,
        )),
        PredictorKind::Transformer => {
            let d_model =
                cfg.hidden.div_ceil(TRANSFORMER_ATTN_HEADS).max(1) * TRANSFORMER_ATTN_HEADS;
            Box::new(TransformerModel::new(
                TransformerConfig {
                    d_model,
                    layers: cfg.gnn_layers,
                    attn_heads: TRANSFORMER_ATTN_HEADS,
                    head_hidden: cfg.hidden,
                    n_heads,
                    dropout: 0.05,
                    ..Default::default()
                },
                norm,
                rng,
            ))
        }
        // `PredictorKind` is #[non_exhaustive]; new variants must be
        // wired up here explicitly.
        other => unimplemented!("no facade constructor for architecture {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_models::ModelFamily;
    use nnlqp_sim::{DeviceFarm, Platform};

    #[test]
    fn evolving_loop_query_train_predict() {
        let s = Nnlqp::builder()
            .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
            .reps(5)
            .build();
        let t4 = Platform::by_name("gpu-T4-trt7.1-fp32").unwrap();
        let models: Vec<nnlqp_ir::Graph> =
            nnlqp_models::generate_family(ModelFamily::SqueezeNet, 24, 3)
                .into_iter()
                .map(|m| m.graph)
                .collect();
        s.warm_cache(&models, &t4, 1).unwrap();
        let n = s
            .train_predictor(
                &["gpu-T4-trt7.1-fp32"],
                TrainPredictorConfig {
                    epochs: 40,
                    hidden: 32,
                    gnn_layers: 2,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(n, 24);
        // Prediction on a *fresh* variant is in the right regime.
        let fresh = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 30, 99)
            .pop()
            .unwrap()
            .graph;
        let p = QueryParams::by_name(fresh.clone(), 1, "gpu-T4-trt7.1-fp32").unwrap();
        let pred = s.predict(&p).unwrap();
        let truth = s.query(&p).unwrap();
        let rel = (pred.latency_ms - truth.latency_ms).abs() / truth.latency_ms;
        assert!(
            rel < 0.6,
            "pred {} truth {}",
            pred.latency_ms,
            truth.latency_ms
        );
        assert!(pred.cost_s < 1.0);
    }

    #[test]
    fn predict_without_training_errors() {
        let s = Nnlqp::builder()
            .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
            .build();
        let p = QueryParams::by_name(
            ModelFamily::SqueezeNet.canonical().unwrap(),
            1,
            "gpu-T4-trt7.1-fp32",
        )
        .unwrap();
        let g = &p.model;
        let name = "gpu-T4-trt7.1-fp32";
        assert!(matches!(s.predict(&p), Err(QueryError::NoPredictor)));
        assert!(matches!(
            s.predict_effective(g, name),
            Err(QueryError::NoPredictor)
        ));
        assert!(matches!(
            s.predict_effective_staged(g, name, &mut |_| {}),
            Err(QueryError::NoPredictor)
        ));
        assert!(matches!(
            s.predict_batch(std::slice::from_ref(g), &[name]),
            Err(QueryError::NoPredictor)
        ));
    }

    #[test]
    fn train_with_empty_db_is_zero() {
        let s = Nnlqp::builder()
            .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
            .build();
        let n = s
            .train_predictor(&["gpu-T4-trt7.1-fp32"], Default::default())
            .unwrap();
        assert_eq!(n, 0);
        assert!(s
            .train_predictor_handle(&["gpu-T4-trt7.1-fp32"], Default::default())
            .unwrap()
            .is_none());
    }

    /// A tiny trained system plus a disjoint probe graph.
    fn trained_system() -> (Nnlqp, nnlqp_ir::Graph) {
        let s = Nnlqp::builder()
            .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
            .reps(3)
            .build();
        let t4 = Platform::by_name("gpu-T4-trt7.1-fp32").unwrap();
        let models: Vec<nnlqp_ir::Graph> =
            nnlqp_models::generate_family(ModelFamily::SqueezeNet, 8, 3)
                .into_iter()
                .map(|m| m.graph)
                .collect();
        s.warm_cache(&models, &t4, 1).unwrap();
        s.train_predictor(
            &["gpu-T4-trt7.1-fp32", "cpu-openppl-fp32"],
            TrainPredictorConfig {
                epochs: 3,
                hidden: 16,
                gnn_layers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let probe = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 20, 77)
            .pop()
            .unwrap()
            .graph;
        (s, probe)
    }

    #[test]
    fn repeat_prediction_hits_embed_cache_and_is_identical() {
        let (s, probe) = trained_system();
        let p = QueryParams::by_name(probe, 1, "gpu-T4-trt7.1-fp32").unwrap();
        let first = s.predict(&p).unwrap();
        assert_eq!(first.cost_s, PREDICT_COST_S);
        let second = s.predict(&p).unwrap();
        assert_eq!(
            second.latency_ms, first.latency_ms,
            "hit must be bit-identical"
        );
        assert_eq!(second.cost_s, CACHED_PREDICT_COST_S);
        // Same graph, other platform: backbone shared, head differs.
        let cross = s.predict_effective(&p.model, "cpu-openppl-fp32").unwrap();
        assert_eq!(cross.cost_s, CACHED_PREDICT_COST_S);
        let snap = s.registry().snapshot();
        assert_eq!(
            snap.counter(crate::metric_names::EMBED_HITS),
            2,
            "repeat + cross-platform both hit"
        );
        assert_eq!(snap.counter(crate::metric_names::EMBED_MISSES), 1);
    }

    #[test]
    fn hot_swap_invalidates_embed_cache() {
        let (s, probe) = trained_system();
        let p = QueryParams::by_name(probe, 1, "gpu-T4-trt7.1-fp32").unwrap();
        let v0 = s.predictor_version();
        s.predict(&p).unwrap(); // populate the cache
                                // Hot-swap the same handle back in: the re-stamp alone must
                                // force the next prediction down the full-backbone path.
        let handle = s.predictor.read().recover().clone().unwrap();
        s.set_predictor(handle);
        assert_eq!(s.predictor_version(), v0 + 1);
        let after = s.predict(&p).unwrap();
        assert_eq!(
            after.cost_s, PREDICT_COST_S,
            "stale embedding must not serve"
        );
        let snap = s.registry().snapshot();
        assert_eq!(snap.counter(crate::metric_names::EMBED_MISSES), 2);
    }

    #[test]
    fn trains_transformer_architecture_on_request() {
        let (s, probe) = trained_system();
        assert_eq!(
            s.predictor_handle().unwrap().kind(),
            PredictorKind::Sage,
            "default architecture is GraphSAGE"
        );
        let n = s
            .train_predictor(
                &["gpu-T4-trt7.1-fp32"],
                TrainPredictorConfig {
                    epochs: 2,
                    hidden: 16,
                    gnn_layers: 2,
                    arch: PredictorKind::Transformer,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(n, 8);
        let handle = s.predictor_handle().unwrap();
        assert_eq!(handle.kind(), PredictorKind::Transformer);
        let p = QueryParams::by_name(probe, 1, "gpu-T4-trt7.1-fp32").unwrap();
        let pred = s.predict(&p).unwrap();
        assert!(pred.latency_ms.is_finite() && pred.latency_ms > 0.0);
        // Checkpoint round-trips through the kind-tagged JSON form.
        let json = handle.model.to_json();
        let back = nnlqp_predict::predictor_from_json(&json).unwrap();
        assert_eq!(back.kind(), PredictorKind::Transformer);
    }

    #[test]
    fn cross_architecture_handles_never_share_embeddings() {
        let (s, probe) = trained_system();
        let sage = s.predictor_handle().unwrap();
        let (transformer, _) = s
            .train_predictor_handle(
                &["gpu-T4-trt7.1-fp32", "cpu-openppl-fp32"],
                TrainPredictorConfig {
                    epochs: 2,
                    hidden: 16,
                    gnn_layers: 2,
                    arch: PredictorKind::Transformer,
                    ..Default::default()
                },
            )
            .unwrap()
            .unwrap();
        assert_ne!(sage.kind().id(), transformer.kind().id());
        // Warm the cache through the sage handle, then predict through
        // the transformer handle: it must pay the full backbone cost and
        // produce its own (different) answer, never the cached sage
        // embedding.
        let a = s
            .predict_effective_with(&sage, &probe, "gpu-T4-trt7.1-fp32")
            .unwrap();
        assert_eq!(a.cost_s, PREDICT_COST_S);
        let b = s
            .predict_effective_with(&transformer, &probe, "gpu-T4-trt7.1-fp32")
            .unwrap();
        assert_eq!(b.cost_s, PREDICT_COST_S, "cross-arch must be a miss");
        assert!(a.latency_ms > 0.0 && b.latency_ms > 0.0);
        // Each handle's repeat prediction is a hit on its own entry.
        assert_eq!(
            s.predict_effective_with(&sage, &probe, "gpu-T4-trt7.1-fp32")
                .unwrap()
                .cost_s,
            CACHED_PREDICT_COST_S
        );
        assert_eq!(
            s.predict_effective_with(&transformer, &probe, "gpu-T4-trt7.1-fp32")
                .unwrap()
                .cost_s,
            CACHED_PREDICT_COST_S
        );
    }

    #[test]
    fn zero_capacity_cache_always_misses() {
        let s = Nnlqp::builder()
            .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
            .reps(3)
            .embed_cache(0)
            .build();
        let t4 = Platform::by_name("gpu-T4-trt7.1-fp32").unwrap();
        let models: Vec<nnlqp_ir::Graph> =
            nnlqp_models::generate_family(ModelFamily::SqueezeNet, 6, 3)
                .into_iter()
                .map(|m| m.graph)
                .collect();
        s.warm_cache(&models, &t4, 1).unwrap();
        s.train_predictor(
            &["gpu-T4-trt7.1-fp32"],
            TrainPredictorConfig {
                epochs: 2,
                hidden: 16,
                gnn_layers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let p = QueryParams::by_name(models[0].clone(), 1, "gpu-T4-trt7.1-fp32").unwrap();
        let a = s.predict(&p).unwrap();
        let b = s.predict(&p).unwrap();
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(b.cost_s, PREDICT_COST_S, "caching disabled");
        assert_eq!(
            s.registry()
                .snapshot()
                .counter(crate::metric_names::EMBED_MISSES),
            2
        );
    }

    #[test]
    fn predict_batch_shares_backbone_across_heads() {
        let (s, probe) = trained_system();
        let more = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 21, 78)
            .pop()
            .unwrap()
            .graph;
        let graphs = vec![probe, more];
        let platforms = ["gpu-T4-trt7.1-fp32", "cpu-openppl-fp32"];
        let batch = s.predict_batch(&graphs, &platforms).unwrap();
        assert_eq!(batch.latencies_ms.len(), 2);
        assert_eq!(batch.embed_misses, 2, "one backbone run per graph");
        assert_eq!(batch.embed_hits, 0);
        // Bit-for-bit equal to the per-call path served from the cache
        // the batch populated.
        for (g, row) in graphs.iter().zip(&batch.latencies_ms) {
            for (name, &want) in platforms.iter().zip(row) {
                let got = s.predict_effective(g, name).unwrap();
                assert_eq!(got.latency_ms, want);
                assert_eq!(got.cost_s, CACHED_PREDICT_COST_S);
            }
        }
        // Re-batching the same graphs is all hits and cheaper.
        let again = s.predict_batch(&graphs, &platforms).unwrap();
        assert_eq!(again.embed_hits, 2);
        assert_eq!(again.latencies_ms, batch.latencies_ms);
        assert!(again.cost_s < batch.cost_s);
        // No graphs: no rows to stack, an empty answer.
        let none = s.predict_batch(&[], &platforms).unwrap();
        assert!(none.latencies_ms.is_empty());
    }

    #[test]
    fn predict_batch_rejects_unknown_platform() {
        let (s, probe) = trained_system();
        assert!(s.predict_batch(&[probe], &["quantum-coprocessor"]).is_err());
    }
}
