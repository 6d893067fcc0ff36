//! Figure 6: transfer learning for unseen structures.
//!
//! For each displayed family: pre-train on the other nine families, then
//! fine-tune on a growing number of samples of the held-out family;
//! compare Acc(10%) against training from scratch on the same samples.

use crate::corpus::{measured_corpus, MeasuredModel};
use crate::opts::Opts;
use crate::report::{pct, print_table, save_json};
use nnlqp_ir::{Graph, Rng64};
use nnlqp_models::{family::CORPUS_FAMILIES, generate_family, ModelFamily};
use nnlqp_predict::train::{predict_samples, train, truths, Dataset, TrainConfig};
use nnlqp_predict::transfer::{fine_tune_structures, train_from_scratch};
use nnlqp_predict::{acc_at, NnlpConfig, NnlpModel};
use nnlqp_sim::{measure, PlatformSpec};

/// The five families displayed in the paper's Fig. 6.
pub const DISPLAY_FAMILIES: [ModelFamily; 5] = [
    ModelFamily::ResNet,
    ModelFamily::MobileNetV2,
    ModelFamily::EfficientNet,
    ModelFamily::GoogleNet,
    ModelFamily::NasBench201,
];

/// Fine-tuning sample counts (paper: 32, 100, 200, 300, ...).
pub const SAMPLE_COUNTS: [usize; 4] = [32, 100, 200, 300];

/// Size of the held-out evaluation set.
const TEST_COUNT: usize = 100;

/// Run the experiment.
pub fn run(opts: &Opts) {
    println!("Figure 6: transfer learning on unseen structures, Acc(10%)\n");
    let platform = PlatformSpec::by_name("gpu-gtx1660-trt7.1-fp32").expect("registry platform");
    let base_corpus = measured_corpus(
        &CORPUS_FAMILIES,
        opts.per_family,
        &platform,
        opts.seed,
        opts.reps,
    );
    let mut rows = Vec::new();
    let mut json_out = Vec::new();
    for fam in DISPLAY_FAMILIES {
        eprintln!("  family {}...", fam.name());
        // Pre-train on the other nine families.
        let pretrain: Vec<&MeasuredModel> =
            base_corpus.iter().filter(|m| m.family != fam).collect();
        let entries: Vec<(&Graph, f64, usize)> = pretrain
            .iter()
            .map(|m| (&m.graph, m.latency_ms, 0usize))
            .collect();
        let ds = Dataset::build(&entries);
        let mut rng = Rng64::new(opts.seed ^ fam as u64);
        let mut pre = NnlpModel::new(
            NnlpConfig {
                hidden: 48,
                head_hidden: 48,
                gnn_layers: 3,
                dropout: 0.05,
                ..Default::default()
            },
            ds.norm.clone(),
            &mut rng,
        );
        train(
            &mut pre,
            &ds.samples,
            TrainConfig {
                epochs: opts.epochs,
                batch_size: 16,
                lr: 1e-3,
                seed: opts.seed,
            },
        );
        // Fresh variants of the held-out family (disjoint seed).
        let max_n = *SAMPLE_COUNTS.last().unwrap();
        let fresh: Vec<(Graph, f64)> = generate_family(fam, max_n + TEST_COUNT, opts.seed ^ 0xF16)
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                let l =
                    measure(&m.graph, &platform, opts.reps, opts.seed ^ (i as u64) << 4).mean_ms;
                (m.graph, l)
            })
            .collect();
        let fresh_entries: Vec<(&Graph, f64, usize)> =
            fresh.iter().map(|(g, l)| (g, *l, 0usize)).collect();
        let samples = ds.extend_with(&fresh_entries);
        let (pool, test) = samples.split_at(max_n);
        let t = truths(test);

        let mut fam_json = Vec::new();
        for &n in &SAMPLE_COUNTS {
            let ft_cfg = TrainConfig {
                epochs: (opts.epochs / 2).max(10),
                batch_size: 16,
                lr: 1e-3,
                seed: opts.seed ^ n as u64,
            };
            let (tuned, _) = fine_tune_structures(&pre, &pool[..n], ft_cfg);
            let (scratch, _) = train_from_scratch(&pre, &pool[..n], ft_cfg);
            let acc_t = acc_at(&predict_samples(&tuned, test), &t, 0.10);
            let acc_s = acc_at(&predict_samples(&scratch, test), &t, 0.10);
            rows.push(vec![
                fam.name().to_string(),
                n.to_string(),
                pct(acc_s),
                pct(acc_t),
                pct(acc_t - acc_s),
            ]);
            fam_json.push(nnlqp_ir::json!({
                "samples": n, "scratch": acc_s, "pretrained": acc_t,
            }));
        }
        json_out.push(nnlqp_ir::json!({"family": fam.name(), "curve": fam_json}));
    }
    print_table(
        &[
            "Family",
            "Samples",
            "Scratch Acc(10%)",
            "Pre-trained Acc(10%)",
            "Gain",
        ],
        &rows,
    );
    println!("\nPaper: pre-trained curves lie above scratch at every sample count;");
    println!("the gain is largest at few samples (ResNet: +30.8% at 32 samples, +1.7% at 1000).");
    save_json(
        &opts.out_dir,
        "fig6",
        &nnlqp_ir::json!({"families": json_out}),
    );
}
