//! Figure 7: transfer learning for unseen platforms.
//!
//! For each target platform: pre-train a multi-head model on the other
//! eight platforms, then fine-tune (fresh head + shared backbone) on a
//! growing number of target-platform samples; compare against training
//! from scratch.

use crate::opts::Opts;
use crate::report::{pct, print_table, save_json};
use nnlqp_ir::{Graph, Rng64};
use nnlqp_models::{family::CORPUS_FAMILIES, generate_family};
use nnlqp_predict::train::{predict_samples, train, truths, Dataset, Sample, TrainConfig};
use nnlqp_predict::transfer::{fine_tune_platform, train_from_scratch};
use nnlqp_predict::{acc_at, NnlpConfig, NnlpModel};
use nnlqp_sim::{measure, PlatformSpec};

/// Fine-tuning sample counts.
pub const SAMPLE_COUNTS: [usize; 4] = [32, 100, 200, 300];

/// The four platforms the paper displays individually (7a-7d).
pub const DISPLAY_PLATFORMS: [&str; 4] = [
    "hi3519A-nnie12-int8",
    "cpu-openppl-fp32",
    "atlas300-acl-fp16",
    "gpu-T4-trt7.1-fp32",
];

const TEST_COUNT: usize = 100;

/// Run the experiment.
pub fn run(opts: &Opts) {
    println!("Figure 7: transfer learning on unseen platforms, Acc(10%)\n");
    let platforms = PlatformSpec::table2_platforms();
    // Shared graph pool.
    let per_fam = (opts.per_family / 2).max(5);
    let mut graphs: Vec<Graph> = Vec::new();
    for f in CORPUS_FAMILIES {
        for m in generate_family(f, per_fam, opts.seed) {
            graphs.push(m.graph);
        }
    }
    // Target-platform fresh pool (for fine-tuning + test).
    let max_n = *SAMPLE_COUNTS.last().unwrap();
    let mut target_graphs: Vec<Graph> = Vec::new();
    {
        let need = max_n + TEST_COUNT;
        let per = need / CORPUS_FAMILIES.len() + 1;
        for f in CORPUS_FAMILIES {
            for m in generate_family(f, per, opts.seed ^ 0xF17) {
                target_graphs.push(m.graph);
            }
        }
        let mut r = Rng64::new(opts.seed ^ 1);
        r.shuffle(&mut target_graphs);
        target_graphs.truncate(need);
    }

    let mut rows = Vec::new();
    let mut json_out = Vec::new();
    let mut averages = vec![(0.0f64, 0.0f64); SAMPLE_COUNTS.len()];
    for target_name in DISPLAY_PLATFORMS {
        eprintln!("  target platform {target_name}...");
        let target = PlatformSpec::by_name(target_name).expect("registry platform");
        // Pre-train on the 8 other platforms.
        let sources: Vec<&PlatformSpec> =
            platforms.iter().filter(|p| p.name != target.name).collect();
        let mut entries: Vec<(&Graph, f64, usize)> = Vec::new();
        let mut labels: Vec<Vec<f64>> = Vec::new();
        for p in &sources {
            let lab: Vec<f64> = graphs
                .iter()
                .enumerate()
                .map(|(i, g)| measure(g, p, opts.reps, opts.seed ^ (i as u64)).mean_ms)
                .collect();
            labels.push(lab);
        }
        for (h, lab) in labels.iter().enumerate() {
            for (g, l) in graphs.iter().zip(lab) {
                entries.push((g, *l, h));
            }
        }
        let ds = Dataset::build(&entries);
        let mut rng = Rng64::new(opts.seed ^ 0xF7);
        let mut pre = NnlpModel::new(
            NnlpConfig {
                hidden: 48,
                head_hidden: 48,
                gnn_layers: 3,
                n_heads: sources.len(),
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
                epochs: (opts.epochs / 2).max(10),
                batch_size: 16,
                lr: 1e-3,
                seed: opts.seed,
            },
        );
        // Target-platform samples.
        let target_entries: Vec<(&Graph, f64, usize)> = target_graphs
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let l = measure(g, &target, opts.reps, opts.seed ^ 0xFE ^ (i as u64)).mean_ms;
                (g, l, 0usize)
            })
            .collect();
        let samples: Vec<Sample> = ds.extend_with(&target_entries);
        let (pool, test) = samples.split_at(max_n);
        let t = truths(test);
        let mut curve = Vec::new();
        for (ci, &n) in SAMPLE_COUNTS.iter().enumerate() {
            let cfg = TrainConfig {
                epochs: (opts.epochs / 2).max(10),
                batch_size: 16,
                lr: 1e-3,
                seed: opts.seed ^ n as u64,
            };
            let (tuned, head, _) = fine_tune_platform(&pre, &pool[..n], cfg);
            let mut test_routed: Vec<Sample> = test.to_vec();
            for s in &mut test_routed {
                s.head = head;
            }
            let acc_t = acc_at(&predict_samples(&tuned, &test_routed), &t, 0.10);
            let (scratch, _) = train_from_scratch(&pre, &pool[..n], cfg);
            let acc_s = acc_at(&predict_samples(&scratch, test), &t, 0.10);
            averages[ci].0 += acc_s / DISPLAY_PLATFORMS.len() as f64;
            averages[ci].1 += acc_t / DISPLAY_PLATFORMS.len() as f64;
            rows.push(vec![
                target.name.clone(),
                n.to_string(),
                pct(acc_s),
                pct(acc_t),
                pct(acc_t - acc_s),
            ]);
            curve.push(nnlqp_ir::json!({"samples": n, "scratch": acc_s, "pretrained": acc_t}));
        }
        json_out.push(nnlqp_ir::json!({"platform": target.name, "curve": curve}));
    }
    for (ci, &n) in SAMPLE_COUNTS.iter().enumerate() {
        rows.push(vec![
            "Average".into(),
            n.to_string(),
            pct(averages[ci].0),
            pct(averages[ci].1),
            pct(averages[ci].1 - averages[ci].0),
        ]);
    }
    print_table(
        &[
            "Target Platform",
            "Samples",
            "Scratch Acc(10%)",
            "Pre-trained Acc(10%)",
            "Gain",
        ],
        &rows,
    );
    println!("\nPaper (Fig. 7e): the pre-trained average curve lies above scratch at");
    println!("every sample count — platform knowledge transfers to new hardware.");
    save_json(
        &opts.out_dir,
        "fig7",
        &nnlqp_ir::json!({"platforms": json_out}),
    );
}
