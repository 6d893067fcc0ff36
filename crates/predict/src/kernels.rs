//! Kernel-level predictors: the nn-Meter and TPU baselines (Appendix E)
//! and NNLP-on-kernels (Table 5).
//!
//! Both baselines follow the paper's protocol: predict each fused kernel's
//! *isolated* latency, sum over the model's kernels, then correct the sum
//! with a linear regression fitted against true model latencies (the
//! correction is needed because additivity does not hold — Fig. 2).

use crate::features::{extract_compact_kernel_features, extract_kernel_features, CompactFeatures};
use crate::model::{NnlpConfig, NnlpModel};
use crate::train::{train, Dataset, TrainConfig};
use nnlqp_ir::{Graph, Rng64};
use nnlqp_nn::{LinearRegression, RandomForest, RandomForestConfig};
use nnlqp_sim::fusion::{self, Kernel, KernelDesc, KernelFamily};
use nnlqp_sim::{kernel_latency_isolated_ms, PlatformSpec};
use std::collections::HashMap;

/// Measured (kernel, isolated latency) dataset entry.
#[derive(Debug, Clone)]
pub struct KernelSample {
    /// Index of the parent graph in the corpus.
    pub graph_idx: usize,
    /// The fused kernel.
    pub kernel: Kernel,
    /// Numeric description.
    pub desc: KernelDesc,
    /// Isolated latency with measurement jitter (the kernel benchmark).
    pub latency_ms: f64,
}

/// Split a corpus into kernels and measure each in isolation (with the
/// same jitter model as whole-model measurements).
pub fn build_kernel_dataset(
    graphs: &[&Graph],
    platform: &PlatformSpec,
    seed: u64,
) -> Vec<KernelSample> {
    let mut rng = Rng64::new(seed ^ 0x4B45_524E);
    let mut out = Vec::new();
    for (gi, g) in graphs.iter().enumerate() {
        for k in fusion::fuse(g) {
            let desc = fusion::describe(g, &k, platform.dtype);
            let base = kernel_latency_isolated_ms(&desc, platform);
            let noisy = base * (1.0 + rng.normal(0.0, 0.012));
            out.push(KernelSample {
                graph_idx: gi,
                kernel: k,
                desc,
                latency_ms: noisy.max(base * 0.5),
            });
        }
    }
    out
}

/// Hand-crafted kernel features for the random-forest regressor, in the
/// spirit of nn-Meter's per-kernel feature vectors.
pub fn kernel_feature_vector(d: &KernelDesc) -> Vec<f64> {
    vec![
        (d.flops / 1e6).ln_1p(),
        (d.read_bytes / 1e3).ln_1p(),
        (d.write_bytes / 1e3).ln_1p(),
        (d.out_elems).ln_1p(),
        d.out_channels as f64,
        d.out_h as f64,
        d.kernel_hw as f64,
        (d.groups as f64).ln_1p(),
        d.stride as f64,
        d.batch as f64,
    ]
}

/// nn-Meter baseline: one random forest per kernel family + linear
/// correction of the kernel-latency sum.
#[derive(Debug)]
pub struct NnMeter {
    forests: HashMap<KernelFamily, RandomForest>,
    correction: LinearRegression,
}

impl NnMeter {
    /// Train from a kernel dataset plus `(graph, true latency)` pairs for
    /// the correction fit.
    pub fn fit(
        kernel_data: &[KernelSample],
        model_data: &[(&Graph, f64)],
        platform: &PlatformSpec,
        seed: u64,
    ) -> NnMeter {
        // Group kernels by family.
        let mut by_family: HashMap<KernelFamily, (Vec<Vec<f64>>, Vec<f64>)> = HashMap::new();
        for ks in kernel_data {
            let e = by_family.entry(ks.desc.family).or_default();
            e.0.push(kernel_feature_vector(&ks.desc));
            e.1.push(ks.latency_ms.ln_1p());
        }
        let forests: HashMap<KernelFamily, RandomForest> = by_family
            .into_iter()
            .map(|(fam, (x, y))| {
                let cfg = RandomForestConfig {
                    n_trees: 30,
                    ..Default::default()
                };
                (fam, RandomForest::fit(&x, &y, cfg, seed ^ fam as u64))
            })
            .collect();
        // Correction: predicted kernel-sum -> true model latency.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (g, true_ms) in model_data {
            let sum = Self::raw_sum(&forests, g, platform);
            xs.push(vec![sum]);
            ys.push(*true_ms);
        }
        let correction = LinearRegression::fit(&xs, &ys, 1e-9);
        NnMeter {
            forests,
            correction,
        }
    }

    fn raw_sum(
        forests: &HashMap<KernelFamily, RandomForest>,
        g: &Graph,
        platform: &PlatformSpec,
    ) -> f64 {
        fusion::fuse(g)
            .iter()
            .map(|k| {
                let d = fusion::describe(g, k, platform.dtype);
                match forests.get(&d.family) {
                    Some(f) => f.predict(&kernel_feature_vector(&d)).exp_m1().max(0.0),
                    // Unseen family: fall back to the analytic roofline.
                    None => kernel_latency_isolated_ms(&d, platform),
                }
            })
            .sum()
    }

    /// Predict a kernel's isolated latency in ms.
    pub fn predict_kernel(&self, d: &KernelDesc, platform: &PlatformSpec) -> f64 {
        match self.forests.get(&d.family) {
            Some(f) => f.predict(&kernel_feature_vector(d)).exp_m1().max(1e-6),
            None => kernel_latency_isolated_ms(d, platform),
        }
    }

    /// Predict a whole model's latency (corrected kernel sum).
    pub fn predict_model(&self, g: &Graph, platform: &PlatformSpec) -> f64 {
        let sum = Self::raw_sum(&self.forests, g, platform);
        self.correction.predict(&[sum]).max(1e-6)
    }
}

/// Kernels as graphs, one head, under a normalizer fitted on them: the
/// training set of both kernel-level GNNs.
fn kernel_dataset(graphs: &[&Graph], kernel_data: &[KernelSample]) -> Dataset {
    let feats: Vec<CompactFeatures> = kernel_data
        .iter()
        .map(|ks| extract_compact_kernel_features(graphs[ks.graph_idx], &ks.kernel))
        .collect();
    let rows: Vec<(usize, f64, usize)> = (kernel_data.iter().enumerate())
        .map(|(i, ks)| (i, ks.latency_ms, 0))
        .collect();
    Dataset::from_features(feats, &rows)
}

/// TPU baseline: a GraphSAGE model over *kernels* (each kernel is a tiny
/// graph), summed and linearly corrected.
pub struct TpuPredictor {
    model: NnlpModel,
    correction: LinearRegression,
}

impl TpuPredictor {
    /// Train the kernel-level GNN then fit the correction.
    pub fn fit(
        graphs: &[&Graph],
        kernel_data: &[KernelSample],
        model_data: &[(&Graph, f64)],
        epochs: usize,
        seed: u64,
    ) -> TpuPredictor {
        let Dataset { samples, norm } = kernel_dataset(graphs, kernel_data);
        let mut rng = Rng64::new(seed);
        let mut model = NnlpModel::new(
            NnlpConfig {
                hidden: 32,
                head_hidden: 32,
                gnn_layers: 2,
                dropout: 0.0,
                ..Default::default()
            },
            norm,
            &mut rng,
        );
        train(
            &mut model,
            &samples,
            TrainConfig {
                epochs,
                seed,
                ..Default::default()
            },
        );
        // Correction over model latencies (identity when no model-level
        // data is supplied, e.g. kernel-only evaluation in Table 5).
        let correction = if model_data.is_empty() {
            LinearRegression {
                coef: vec![1.0],
                intercept: 0.0,
            }
        } else {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for (g, true_ms) in model_data {
                xs.push(vec![Self::raw_sum(&model, g)]);
                ys.push(*true_ms);
            }
            LinearRegression::fit(&xs, &ys, 1e-9)
        };
        TpuPredictor { model, correction }
    }

    fn raw_sum(model: &NnlpModel, g: &Graph) -> f64 {
        fusion::fuse(g)
            .iter()
            .map(|k| {
                let f = extract_kernel_features(g, k);
                model.predict_ms(&f, 0)
            })
            .sum()
    }

    /// Predict a kernel's isolated latency in ms.
    pub fn predict_kernel(&self, g: &Graph, k: &Kernel) -> f64 {
        let f = extract_kernel_features(g, k);
        self.model.predict_ms(&f, 0)
    }

    /// Predict a whole model's latency (corrected kernel sum).
    pub fn predict_model(&self, g: &Graph) -> f64 {
        self.correction
            .predict(&[Self::raw_sum(&self.model, g)])
            .max(1e-6)
    }
}

/// NNLP applied at kernel level (Table 5): the standard model trained on
/// kernels-as-graphs.
pub struct NnlpKernelPredictor {
    model: NnlpModel,
}

impl NnlpKernelPredictor {
    /// Train on a kernel dataset.
    pub fn fit(
        graphs: &[&Graph],
        kernel_data: &[KernelSample],
        epochs: usize,
        seed: u64,
    ) -> NnlpKernelPredictor {
        let Dataset { samples, norm } = kernel_dataset(graphs, kernel_data);
        let mut rng = Rng64::new(seed ^ 0x7A617);
        let mut model = NnlpModel::new(
            NnlpConfig {
                hidden: 32,
                head_hidden: 32,
                gnn_layers: 2,
                dropout: 0.0,
                ..Default::default()
            },
            norm,
            &mut rng,
        );
        train(
            &mut model,
            &samples,
            TrainConfig {
                epochs,
                seed,
                ..Default::default()
            },
        );
        NnlpKernelPredictor { model }
    }

    /// Predict a kernel's isolated latency in ms.
    pub fn predict_kernel(&self, g: &Graph, k: &Kernel) -> f64 {
        self.model.predict_ms(&extract_kernel_features(g, k), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mape;
    use nnlqp_models::ModelFamily;
    use nnlqp_sim::exec::model_latency_ms;

    fn small_corpus() -> (Vec<Graph>, Vec<f64>, PlatformSpec) {
        let p = PlatformSpec::by_name("gpu-gtx1660-trt7.1-fp32").unwrap();
        let mut graphs = Vec::new();
        let mut lats = Vec::new();
        for f in [ModelFamily::ResNet, ModelFamily::SqueezeNet] {
            for m in nnlqp_models::generate_family(f, 10, 17) {
                lats.push(model_latency_ms(&m.graph, &p));
                graphs.push(m.graph);
            }
        }
        (graphs, lats, p)
    }

    #[test]
    fn kernel_dataset_covers_models() {
        let (graphs, _, p) = small_corpus();
        let refs: Vec<&Graph> = graphs.iter().collect();
        let ks = build_kernel_dataset(&refs, &p, 1);
        assert!(ks.len() > graphs.len() * 5, "kernels {}", ks.len());
        assert!(ks.iter().all(|k| k.latency_ms > 0.0));
        // Every graph contributed.
        let covered: std::collections::HashSet<usize> = ks.iter().map(|k| k.graph_idx).collect();
        assert_eq!(covered.len(), graphs.len());
    }

    #[test]
    fn nn_meter_learns_kernels_and_models() {
        let (graphs, lats, p) = small_corpus();
        let refs: Vec<&Graph> = graphs.iter().collect();
        let kd = build_kernel_dataset(&refs, &p, 2);
        let md: Vec<(&Graph, f64)> = refs.iter().zip(&lats).map(|(g, l)| (*g, *l)).collect();
        let nm = NnMeter::fit(&kd, &md, &p, 3);
        // Kernel-level predictions close to isolated truth on train set.
        let preds: Vec<f64> = kd.iter().map(|k| nm.predict_kernel(&k.desc, &p)).collect();
        let truth: Vec<f64> = kd.iter().map(|k| k.latency_ms).collect();
        let m = mape(&preds, &truth);
        assert!(m < 25.0, "kernel MAPE {m}%");
        // Model predictions in the right ballpark.
        let mp: Vec<f64> = refs.iter().map(|g| nm.predict_model(g, &p)).collect();
        let mm = mape(&mp, &lats);
        assert!(mm < 40.0, "model MAPE {mm}%");
    }

    #[test]
    fn corrected_sum_beats_raw_sum() {
        // The linear correction must improve on the naive kernel sum
        // (which systematically over-estimates, Fig. 2).
        let (graphs, lats, p) = small_corpus();
        let refs: Vec<&Graph> = graphs.iter().collect();
        let kd = build_kernel_dataset(&refs, &p, 4);
        let md: Vec<(&Graph, f64)> = refs.iter().zip(&lats).map(|(g, l)| (*g, *l)).collect();
        let nm = NnMeter::fit(&kd, &md, &p, 5);
        let corrected: Vec<f64> = refs.iter().map(|g| nm.predict_model(g, &p)).collect();
        let raw: Vec<f64> = refs
            .iter()
            .map(|g| nnlqp_sim::exec::sum_kernel_latencies_ms(g, &p))
            .collect();
        assert!(mape(&corrected, &lats) < mape(&raw, &lats));
    }
}
