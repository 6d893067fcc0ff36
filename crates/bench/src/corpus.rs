//! Corpus construction with measured ground-truth labels.

use nnlqp_ir::Graph;
use nnlqp_models::{generate_family, ModelFamily};
use nnlqp_sim::{measure, PlatformSpec};

/// One labelled, measured model.
#[derive(Debug, Clone)]
pub struct MeasuredModel {
    /// Family label.
    pub family: ModelFamily,
    /// The graph.
    pub graph: Graph,
    /// Measured mean latency (ms) on the corpus platform.
    pub latency_ms: f64,
}

/// Generate `per_family` variants of each family and measure them on
/// `platform` (`reps` runs averaged, like NNLQ).
pub fn measured_corpus(
    families: &[ModelFamily],
    per_family: usize,
    platform: &PlatformSpec,
    seed: u64,
    reps: usize,
) -> Vec<MeasuredModel> {
    let mut all: Vec<(ModelFamily, Graph)> = Vec::new();
    for &f in families {
        for m in generate_family(f, per_family, seed) {
            all.push((f, m.graph));
        }
    }
    all.into_iter()
        .enumerate()
        .map(|(i, (family, graph))| {
            let m = measure(&graph, platform, reps, seed ^ (i as u64) << 8);
            MeasuredModel {
                family,
                graph,
                latency_ms: m.mean_ms,
            }
        })
        .collect()
}

/// Split a measured corpus into (held-out family, rest).
pub fn leave_one_out(
    corpus: &[MeasuredModel],
    family: ModelFamily,
) -> (Vec<&MeasuredModel>, Vec<&MeasuredModel>) {
    let (test, train): (Vec<&MeasuredModel>, Vec<&MeasuredModel>) =
        corpus.iter().partition(|m| m.family == family);
    (test, train)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_labelled_and_measured() {
        let p = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
        let c = measured_corpus(&[ModelFamily::SqueezeNet, ModelFamily::ResNet], 3, &p, 1, 5);
        assert_eq!(c.len(), 6);
        assert!(c.iter().all(|m| m.latency_ms > 0.0));
    }

    #[test]
    fn leave_one_out_partitions() {
        let p = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
        let c = measured_corpus(&[ModelFamily::SqueezeNet, ModelFamily::ResNet], 3, &p, 1, 5);
        let (test, train) = leave_one_out(&c, ModelFamily::ResNet);
        assert_eq!(test.len(), 3);
        assert_eq!(train.len(), 3);
        assert!(test.iter().all(|m| m.family == ModelFamily::ResNet));
    }

    #[test]
    fn deterministic_for_seed() {
        let p = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
        let a = measured_corpus(&[ModelFamily::SqueezeNet], 2, &p, 5, 5);
        let b = measured_corpus(&[ModelFamily::SqueezeNet], 2, &p, 5, 5);
        assert_eq!(a[0].latency_ms, b[0].latency_ms);
    }
}
