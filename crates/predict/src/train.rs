//! Dataset assembly and the training loop (Algorithm 1).
//!
//! Mini-batch training per §8.1: batch size 16, Adam at lr 1e-3, average
//! batch loss backpropagated. One loop, [`train`], serves every encoder
//! that implements [`Trainable`]. Per-sample gradients are computed one
//! after another on the calling thread (the model is borrowed immutably),
//! each forward and backward out of one [`Scratch`] arena held for the
//! whole call, summed in sample order, then applied in one optimizer step.

use crate::features::{
    extract_compact_features, CompactFeatures, NodeRows, Normalizer, STATIC_DIM,
};
use crate::model::{Head, HeadGrad, NnlpModel};
use nnlqp_ir::{Graph, Rng64};
use nnlqp_nn::{Adam, Csr, Linear, LinearGrad, Scratch};
use std::collections::HashMap;
use std::sync::Arc;

/// One training/evaluation sample with pre-normalized features.
///
/// A sample is a label on a structure: samples of one structure (in a
/// multi-platform dataset, one per head that measured it) share its node
/// rows and adjacency, and [`Dataset::from_features`] normalizes each
/// structure once. The rows are compact; a training step or
/// [`predict_samples`] densifies them into its arena, one sample at a
/// time.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Normalized node features, shared by the structure's samples.
    pub nodes: Arc<NodeRows>,
    /// Adjacency, shared by the structure's samples.
    pub adj: Arc<Csr>,
    /// Normalized static features.
    pub stat: [f32; STATIC_DIM],
    /// Ground-truth latency in ms.
    pub target_ms: f64,
    /// Target in `ln(1+ms)` space.
    pub target_log: f32,
    /// Head (platform) index.
    pub head: usize,
}

/// A normalized dataset bound to the normalizer that produced it.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Samples.
    pub samples: Vec<Sample>,
    /// The normalizer (needed to featurize unseen graphs consistently).
    pub norm: Normalizer,
}

impl Dataset {
    /// Build from `(graph, latency_ms, head)` triples. The normalizer is
    /// fitted on exactly these graphs — fit on *training* data only, then
    /// use [`Dataset::extend_with`] for evaluation sets.
    ///
    /// Entries that borrow the same `&Graph` (the same address) are one
    /// structure: it is featurized once, and the dataset is
    /// [`Dataset::from_features`] over those structures.
    pub fn build(entries: &[(&Graph, f64, usize)]) -> Dataset {
        let mut slot_of: HashMap<*const Graph, usize> = HashMap::new();
        let mut feats: Vec<CompactFeatures> = Vec::new();
        let rows: Vec<(usize, f64, usize)> = entries
            .iter()
            .map(|&(g, ms, head)| {
                let slot = *slot_of.entry(std::ptr::from_ref(g)).or_insert_with(|| {
                    feats.push(extract_compact_features(g));
                    feats.len() - 1
                });
                (slot, ms, head)
            })
            .collect();
        Dataset::from_features(feats, &rows)
    }

    /// Build from each structure's raw features and `(structure,
    /// latency_ms, head)` rows, where `structure` indexes `feats`. The
    /// normalizer sees every row's structure, in row order; each structure
    /// is then normalized once, in place, and its rows share the result.
    /// A caller that featurizes each graph as it decodes it holds the
    /// features, never the graphs.
    pub fn from_features(feats: Vec<CompactFeatures>, rows: &[(usize, f64, usize)]) -> Dataset {
        let norm = Normalizer::fit(&rows.iter().map(|&(i, _, _)| &feats[i]).collect::<Vec<_>>());
        let structures: Vec<Structure> = feats
            .into_iter()
            .map(|f| Structure::normalize(f, &norm))
            .collect();
        let samples = rows
            .iter()
            .map(|&(i, ms, head)| make_sample(&structures[i], ms, head))
            .collect();
        Dataset { samples, norm }
    }

    /// Featurize additional graphs with this dataset's normalizer, one
    /// structure per entry.
    pub fn extend_with(&self, entries: &[(&Graph, f64, usize)]) -> Vec<Sample> {
        entries
            .iter()
            .map(|&(g, ms, head)| {
                let structure = Structure::normalize(extract_compact_features(g), &self.norm);
                make_sample(&structure, ms, head)
            })
            .collect()
    }
}

/// A graph's features, normalized once for every sample of it to share.
pub(crate) struct Structure {
    nodes: Arc<NodeRows>,
    adj: Arc<Csr>,
    stat: [f32; STATIC_DIM],
}

impl Structure {
    /// Take over raw features, standardizing the node rows in place.
    pub(crate) fn normalize(mut f: CompactFeatures, norm: &Normalizer) -> Structure {
        norm.normalize_rows_in_place(&mut f.nodes);
        Structure {
            nodes: Arc::new(f.nodes),
            adj: Arc::new(f.adj),
            stat: norm.normalize_stat(&f.stat),
        }
    }
}

/// The one sample constructor: a latency on `head`, labelling a structure.
pub(crate) fn make_sample(s: &Structure, ms: f64, head: usize) -> Sample {
    Sample {
        nodes: Arc::clone(&s.nodes),
        adj: Arc::clone(&s.adj),
        stat: s.stat,
        target_ms: ms,
        target_log: (ms.max(0.0)).ln_1p() as f32,
        head,
    }
}

/// Training hyper-parameters (§8.1 defaults).
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Passes over the data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// RNG seed (shuffling, dropout).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 16,
            lr: 1e-3,
            seed: 1,
        }
    }
}

/// Loss trajectory of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean log-space MSE per epoch.
    pub epoch_loss: Vec<f64>,
}

/// A gradient the training loop sums over a mini-batch, in sample order,
/// and hands back to the arena once applied.
pub trait Gradient {
    /// Accumulate another sample's gradient.
    fn add_assign(&mut self, other: &Self);
    /// Scale (by 1/batch).
    fn scale(&mut self, s: f32);
    /// Return every buffer to an arena.
    fn recycle(self, scratch: &mut Scratch);
}

/// One sample's gradients: the shared backbone's, and its platform head's.
pub struct Grads<B> {
    /// Backbone gradient.
    pub backbone: B,
    /// Head gradient.
    pub head: HeadGrad,
    /// Which head the gradient belongs to.
    pub head_idx: usize,
}

impl<B: Gradient> Grads<B> {
    /// Return every buffer to an arena.
    pub fn recycle(self, scratch: &mut Scratch) {
        self.backbone.recycle(scratch);
        self.head.recycle(scratch);
    }
}

/// An encoder [`train`] can train: a shared backbone (`f(;alpha)` in the
/// paper) under per-platform [`Head`]s (`g(;beta_P)`).
pub trait Trainable {
    /// The backbone's gradient.
    type Backbone: Gradient;

    /// One sample's log-space MSE loss and gradients: a forward and a
    /// backward whose every intermediate comes out of `scratch` and goes
    /// back into it, as do the gradients' buffers once the caller is done
    /// with them ([`Grads::recycle`]). `rng` drives dropout.
    fn loss_and_grads(
        &self,
        s: &Sample,
        rng: &mut Rng64,
        scratch: &mut Scratch,
    ) -> (f64, Grads<Self::Backbone>);

    /// Apply a backbone gradient with Adam, each tensor under its own key
    /// below the heads' (see [`Head::apply_grads`]).
    fn apply_backbone(&mut self, g: &Self::Backbone, opt: &mut Adam);

    /// The per-platform heads.
    fn heads_mut(&mut self) -> &mut [Head];
}

/// Adam over a run of linear layers keyed from `base`: layer `j`'s weight
/// under `base + 2j`, its bias under `base + 2j + 1`. Every backbone and
/// head lays its tensors out this way.
pub(crate) fn adam_linears<'a>(
    opt: &mut Adam,
    base: u64,
    layers: impl IntoIterator<Item = (&'a mut Linear, &'a LinearGrad)>,
) {
    for (key, (l, g)) in (base..).step_by(2).zip(layers) {
        opt.update(key, &mut l.w.data, &g.dw.data);
        opt.update(key + 1, &mut l.b, &g.db);
    }
}

/// Train a model in place on `samples` (multi-platform capable: each
/// sample routes its gradient to its own head while the backbone is shared
/// — Algorithm 1 with mini-batching).
pub fn train<M: Trainable>(model: &mut M, samples: &[Sample], cfg: TrainConfig) -> TrainReport {
    train_in(model, samples, cfg, &mut Scratch::new())
}

/// [`train`] out of a caller's arena, which holds every buffer the run
/// drew when it returns.
pub fn train_in<M: Trainable>(
    model: &mut M,
    samples: &[Sample],
    cfg: TrainConfig,
    scratch: &mut Scratch,
) -> TrainReport {
    assert!(!samples.is_empty(), "empty training set");
    let mut opt = Adam::new(cfg.lr);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut rng = Rng64::new(cfg.seed);
    let mut epoch_loss = Vec::with_capacity(cfg.epochs);

    // One arena for the whole call: after the first few samples a step
    // allocates nothing. A parallel-for would hold one per worker; the
    // sums below are ordered by this loop, not by who computed a sample.
    let mut head_acc: Vec<Option<HeadGrad>> = model.heads_mut().iter().map(|_| None).collect();

    for epoch in 0..cfg.epochs {
        rng.shuffle(&mut order);
        let mut total = 0.0f64;
        for (bi, batch) in order.chunks(cfg.batch_size).enumerate() {
            // Accumulate in sample order: the shared backbone over the
            // whole batch, heads per platform.
            let mut backbone: Option<M::Backbone> = None;
            for &si in batch {
                let mut srng =
                    Rng64::new(cfg.seed ^ ((epoch as u64) << 40) ^ ((bi as u64) << 20) ^ si as u64);
                let (loss, g) = model.loss_and_grads(&samples[si], &mut srng, scratch);
                total += loss;
                accumulate(&mut head_acc[g.head_idx], g.head, scratch);
                accumulate(&mut backbone, g.backbone, scratch);
            }
            let Some(mut backbone) = backbone else {
                continue;
            };
            let inv = 1.0 / batch.len() as f32;
            backbone.scale(inv);
            opt.begin_step();
            model.apply_backbone(&backbone, &mut opt);
            backbone.recycle(scratch);
            let heads = model.heads_mut().iter_mut().zip(&mut head_acc);
            for (head_idx, (head, slot)) in heads.enumerate() {
                if let Some(mut hg) = slot.take() {
                    hg.scale(inv);
                    head.apply_grads(head_idx, &hg, &mut opt);
                    hg.recycle(scratch);
                }
            }
        }
        epoch_loss.push(total / samples.len() as f64);
    }
    TrainReport { epoch_loss }
}

/// Add `g` into `acc`; the first gradient *is* the accumulator
/// (`acc = g0; acc += g1; ..`), every later one goes back to the arena.
fn accumulate<G: Gradient>(acc: &mut Option<G>, g: G, scratch: &mut Scratch) {
    match acc {
        Some(acc) => {
            acc.add_assign(&g);
            g.recycle(scratch);
        }
        None => *acc = Some(g),
    }
}

/// Predict latencies (ms) for a slice of samples, on the inference
/// kernels out of one arena.
pub fn predict_samples(model: &NnlpModel, samples: &[Sample]) -> Vec<f64> {
    let mut scratch = Scratch::new();
    samples
        .iter()
        .map(|s| {
            let nodes = s.nodes.densify(&mut scratch);
            let ms = model.predict_normalized_ms(&nodes, &s.adj, &s.stat, s.head, &mut scratch);
            scratch.put(nodes);
            ms
        })
        .collect()
}

/// Ground-truth latencies (ms) of a slice of samples.
pub fn truths(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.target_ms).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{extract_features, GraphFeatures};
    use crate::metrics::mape;
    use crate::model::NnlpConfig;
    use nnlqp_models::ModelFamily;
    use nnlqp_sim::{measure, PlatformSpec};

    /// Small real corpus: canonical + sampled variants across 3 families.
    fn corpus(n_per_family: usize, seed: u64) -> Vec<(Graph, f64)> {
        let platform = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
        let mut out = Vec::new();
        for f in [
            ModelFamily::ResNet,
            ModelFamily::MobileNetV2,
            ModelFamily::SqueezeNet,
        ] {
            for m in nnlqp_models::generate_family(f, n_per_family, seed) {
                let lat = measure(&m.graph, &platform, 5, seed).mean_ms;
                out.push((m.graph, lat));
            }
        }
        out
    }

    #[test]
    fn training_converges_and_beats_mean_predictor() {
        let data = corpus(12, 7);
        let entries: Vec<(&Graph, f64, usize)> =
            data.iter().map(|(g, l)| (g, *l, 0usize)).collect();
        let ds = Dataset::build(&entries);
        // Shuffled split so train and test cover all three families.
        let mut idx: Vec<usize> = (0..ds.samples.len()).collect();
        Rng64::new(89).shuffle(&mut idx);
        let train_s: Vec<Sample> = idx[..30].iter().map(|&i| ds.samples[i].clone()).collect();
        let test_s: Vec<Sample> = idx[30..].iter().map(|&i| ds.samples[i].clone()).collect();
        let (train_s, test_s) = (&train_s[..], &test_s[..]);
        let mut rng = Rng64::new(90);
        let mut model = NnlpModel::new(
            NnlpConfig {
                hidden: 32,
                head_hidden: 32,
                gnn_layers: 2,
                dropout: 0.0,
                ..Default::default()
            },
            ds.norm.clone(),
            &mut rng,
        );
        let report = train(
            &mut model,
            train_s,
            TrainConfig {
                epochs: 60,
                batch_size: 8,
                lr: 2e-3,
                seed: 3,
            },
        );
        assert!(
            report.epoch_loss.last().unwrap() < &(report.epoch_loss[0] * 0.2),
            "loss {:?} -> {:?}",
            report.epoch_loss[0],
            report.epoch_loss.last().unwrap()
        );
        let preds = predict_samples(&model, test_s);
        let t = truths(test_s);
        let model_mape = mape(&preds, &t);
        // Mean predictor baseline.
        let mean = t.iter().sum::<f64>() / t.len() as f64;
        let mean_mape = mape(&vec![mean; t.len()], &t);
        assert!(
            model_mape < mean_mape,
            "model {model_mape}% vs mean-predictor {mean_mape}%"
        );
    }

    #[test]
    fn multi_head_training_routes_gradients() {
        // Two synthetic platforms: head 1 sees 3x the latency of head 0.
        let data = corpus(8, 11);
        let mut entries: Vec<(&Graph, f64, usize)> = Vec::new();
        for (g, l) in &data {
            entries.push((g, *l, 0usize));
        }
        for (g, l) in &data {
            entries.push((g, *l * 3.0, 1usize));
        }
        let ds = Dataset::build(&entries);
        let mut rng = Rng64::new(91);
        let mut model = NnlpModel::new(
            NnlpConfig {
                hidden: 32,
                head_hidden: 32,
                gnn_layers: 2,
                n_heads: 2,
                dropout: 0.0,
                ..Default::default()
            },
            ds.norm.clone(),
            &mut rng,
        );
        train(
            &mut model,
            &ds.samples,
            TrainConfig {
                epochs: 50,
                batch_size: 8,
                lr: 2e-3,
                seed: 5,
            },
        );
        // The two heads must diverge: same graph, ~3x ratio.
        let s0 = &ds.samples[0];
        let nodes = s0.nodes.to_matrix();
        let (p0, _) = model.forward(&nodes, &s0.adj, &s0.stat, 0, None);
        let (p1, _) = model.forward(&nodes, &s0.adj, &s0.stat, 1, None);
        let r = (p1 as f64).exp_m1() / (p0 as f64).exp_m1();
        assert!(r > 1.8, "head ratio {r}, p0 {p0} p1 {p1}");
    }

    /// Every bit of a sample: shape, targets, head, node and static
    /// features, and its adjacency.
    fn bits(s: &Sample) -> (Vec<u64>, &Csr) {
        let m = s.nodes.to_matrix();
        let ints = [m.rows, m.cols, s.head].map(|n| n as u64);
        let targets = [s.target_ms.to_bits(), u64::from(s.target_log.to_bits())];
        let floats = m.data.iter().chain(&s.stat).map(|v| u64::from(v.to_bits()));
        let all = ints.into_iter().chain(targets).chain(floats).collect();
        (all, &s.adj)
    }

    /// Every graph on four heads, and the first on a fifth as well: the
    /// uneven count is what makes a normalizer fitted per structure
    /// instead of per entry differ.
    #[test]
    fn samples_of_one_graph_share_its_structure_and_equal_per_row_samples() {
        let data = corpus(2, 17);
        let keys: Vec<(usize, usize)> = (0..4)
            .flat_map(|head| (0..data.len()).map(move |i| (i, head)))
            .chain([(0, 4)])
            .collect();
        let entries: Vec<(&Graph, f64, usize)> = (keys.iter())
            .map(|&(i, head)| (&data[i].0, data[i].1 * (1.0 + head as f64), head))
            .collect();
        let ds = Dataset::build(&entries);

        let per_row: Vec<GraphFeatures> = entries
            .iter()
            .map(|(g, _, _)| extract_features(g))
            .collect();
        let norm = Normalizer::fit(&per_row.iter().collect::<Vec<_>>());
        assert_eq!(format!("{:?}", ds.norm), format!("{norm:?}"));

        let alone = ds.extend_with(&entries);
        assert_eq!(ds.samples.len(), alone.len());
        for (a, (s, want)) in ds.samples.iter().zip(&alone).enumerate() {
            assert_eq!(bits(s), bits(want), "sample {a}");
            for (b, t) in ds.samples.iter().enumerate() {
                let same = keys[a].0 == keys[b].0;
                let shared = (Arc::ptr_eq(&s.nodes, &t.nodes), Arc::ptr_eq(&s.adj, &t.adj));
                assert_eq!(shared, (same, same), "samples {a} and {b}");
            }
        }
    }

    #[test]
    fn dataset_extend_uses_train_normalizer() {
        let data = corpus(4, 13);
        let entries: Vec<(&Graph, f64, usize)> =
            data.iter().map(|(g, l)| (g, *l, 0usize)).collect();
        let ds = Dataset::build(&entries[..8]);
        let extra = ds.extend_with(&entries[8..]);
        assert_eq!(extra.len(), entries.len() - 8);
        for s in &extra {
            assert!(s.target_log > 0.0);
        }
    }
}
