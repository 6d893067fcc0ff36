//! Figure 8: transfer from classification models to detection models.
//!
//! Pre-train the predictor on the classification corpus, then fine-tune
//! on RetinaNet-style detection models. The paper's three bars: MAPE with
//! 1,000 detection samples from scratch (0.038), 50 samples from scratch
//! (0.044), and 50 samples with the pre-trained embedding (0.040) — a
//! ~20x data-efficiency gain.

use crate::corpus::measured_corpus;
use crate::opts::Opts;
use crate::report::{num, print_table, save_json};
use nnlqp_ir::{Graph, Rng64};
use nnlqp_models::{family::CORPUS_FAMILIES, generate_family, ModelFamily};
use nnlqp_predict::train::{predict_samples, train, truths, Dataset, TrainConfig};
use nnlqp_predict::transfer::{fine_tune_structures, train_from_scratch};
use nnlqp_predict::{mape, NnlpConfig, NnlpModel};
use nnlqp_sim::{measure, PlatformSpec};

const TEST_COUNT: usize = 80;

/// Run the experiment.
pub fn run(opts: &Opts) {
    println!("Figure 8: classification -> detection transfer, test MAPE\n");
    let platform = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").expect("registry platform");
    // Pre-train on classification models.
    let cls = measured_corpus(
        &CORPUS_FAMILIES,
        (opts.per_family / 2).max(10),
        &platform,
        opts.seed,
        opts.reps,
    );
    let entries: Vec<(&Graph, f64, usize)> = cls
        .iter()
        .map(|m| (&m.graph, m.latency_ms, 0usize))
        .collect();
    let ds = Dataset::build(&entries);
    let mut rng = Rng64::new(opts.seed ^ 0xF8);
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
    eprintln!(
        "  pre-training on {} classification models...",
        ds.samples.len()
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
    // Detection pool.
    let big_n = (opts.per_family * 4).clamp(100, 1000);
    eprintln!("  generating {} detection models...", big_n + TEST_COUNT);
    let det: Vec<(Graph, f64)> = generate_family(
        ModelFamily::Detection,
        big_n + TEST_COUNT,
        opts.seed ^ 0xDE7,
    )
    .into_iter()
    .enumerate()
    .map(|(i, m)| {
        let l = measure(&m.graph, &platform, opts.reps, opts.seed ^ (i as u64) << 2).mean_ms;
        (m.graph, l)
    })
    .collect();
    let det_entries: Vec<(&Graph, f64, usize)> = det.iter().map(|(g, l)| (g, *l, 0usize)).collect();
    let samples = ds.extend_with(&det_entries);
    let (pool, test) = samples.split_at(big_n);
    let t = truths(test);

    let cfg = |seed: u64| TrainConfig {
        epochs: (opts.epochs / 2).max(15),
        batch_size: 16,
        lr: 1e-3,
        seed,
    };
    eprintln!("  scratch training with {big_n} samples...");
    let (scratch_big, _) = train_from_scratch(&pre, pool, cfg(1));
    eprintln!("  scratch training with 50 samples...");
    let (scratch_50, _) = train_from_scratch(&pre, &pool[..50.min(pool.len())], cfg(2));
    eprintln!("  fine-tuning with 50 samples...");
    let (tuned_50, _) = fine_tune_structures(&pre, &pool[..50.min(pool.len())], cfg(3));

    let m_big = mape(&predict_samples(&scratch_big, test), &t) / 100.0;
    let m_50 = mape(&predict_samples(&scratch_50, test), &t) / 100.0;
    let m_50p = mape(&predict_samples(&tuned_50, test), &t) / 100.0;
    print_table(
        &["Setting", "Detection samples", "Test MAPE"],
        &[
            vec!["scratch".into(), big_n.to_string(), num(m_big, 3)],
            vec!["scratch".into(), "50".into(), num(m_50, 3)],
            vec!["pre-trained".into(), "50".into(), num(m_50p, 3)],
        ],
    );
    println!("\nPaper: 0.038 (1000 scratch) / 0.044 (50 scratch) / 0.040 (50 + pre-trained)");
    println!("-> 50 pre-trained samples nearly match 1000 scratch samples (~20x data efficiency).");
    save_json(
        &opts.out_dir,
        "fig8",
        &nnlqp_ir::json!({
            "scratch_big": {"samples": big_n, "mape": m_big},
            "scratch_50": {"samples": 50, "mape": m_50},
            "pretrained_50": {"samples": 50, "mape": m_50p},
        }),
    );
}
