//! Encoder comparison: GraphSAGE vs transformer behind the `Predictor`
//! trait, on both tasks the trait serves — multi-platform latency
//! prediction (§6) and NAS-Bench-201 accuracy prediction (§7.3's "new
//! task" transfer). One table, two encoders, two tasks, all four cells
//! reached through the same object-safe API.

use crate::opts::Opts;
use crate::report::{pct, print_table, save_json};
use nnlqp_ir::{Graph, Rng64};
use nnlqp_models::{family::CORPUS_FAMILIES, generate_family};
use nnlqp_nas::accuracy_benchmark;
use nnlqp_predict::train::{Dataset, TrainConfig};
use nnlqp_predict::{
    acc_at, extract_features, mape, NnlpConfig, NnlpModel, Predictor, PredictorKind,
    TransformerConfig, TransformerModel,
};
use nnlqp_sim::{measure, PlatformSpec};

/// Fresh multi-head model of the requested encoder architecture, sized
/// to match across encoders so the comparison is capacity-fair.
fn fresh(
    arch: PredictorKind,
    n_heads: usize,
    norm: nnlqp_predict::Normalizer,
    seed: u64,
) -> Box<dyn Predictor> {
    let mut rng = Rng64::new(seed);
    match arch {
        PredictorKind::Sage => Box::new(NnlpModel::new(
            NnlpConfig {
                hidden: 32,
                head_hidden: 32,
                gnn_layers: 2,
                n_heads,
                dropout: 0.05,
                ..Default::default()
            },
            norm,
            &mut rng,
        )),
        PredictorKind::Transformer => Box::new(TransformerModel::new(
            TransformerConfig {
                d_model: 32,
                layers: 2,
                attn_heads: 4,
                head_hidden: 32,
                n_heads,
                dropout: 0.05,
                ..Default::default()
            },
            norm,
            &mut rng,
        )),
        other => unimplemented!("no bench constructor for architecture {other}"),
    }
}

/// Run the experiment.
pub fn run(opts: &Opts) {
    // Keep the latency side small: three platforms, a modest shared
    // corpus. The point is encoder-vs-encoder shape, not Table 3 scale.
    let platforms: Vec<PlatformSpec> = PlatformSpec::table2_platforms()
        .into_iter()
        .take(3)
        .collect();
    let per_fam = (opts.per_family / 2).max(4);
    println!(
        "Encoders: GraphSAGE vs transformer via the Predictor trait ({} models x {} platforms)\n",
        per_fam * CORPUS_FAMILIES.len(),
        platforms.len()
    );

    let mut graphs: Vec<Graph> = Vec::new();
    for f in CORPUS_FAMILIES {
        for m in generate_family(f, per_fam, opts.seed) {
            graphs.push(m.graph);
        }
    }
    let mut idx: Vec<usize> = (0..graphs.len()).collect();
    Rng64::new(opts.seed ^ 0xE7C).shuffle(&mut idx);
    let cut = idx.len() * 7 / 10;
    let (train_idx, test_idx) = idx.split_at(cut);

    let labels: Vec<Vec<f64>> = platforms
        .iter()
        .map(|p| {
            graphs
                .iter()
                .enumerate()
                .map(|(i, g)| measure(g, p, opts.reps, opts.seed ^ (i as u64)).mean_ms)
                .collect()
        })
        .collect();

    let mut union_entries: Vec<(&Graph, f64, usize)> = Vec::new();
    for (h, lab) in labels.iter().enumerate() {
        for &i in train_idx {
            union_entries.push((&graphs[i], lab[i], h));
        }
    }
    let ds = Dataset::build(&union_entries);

    let mut rows = Vec::new();
    let mut json_archs = std::collections::BTreeMap::new();
    for &arch in PredictorKind::all() {
        eprintln!(
            "  [{arch}] training the latency predictor ({} samples)...",
            ds.samples.len()
        );
        let mut model = fresh(arch, platforms.len(), ds.norm.clone(), opts.seed ^ 0x1A7);
        model.train_in_place(
            &ds.samples,
            TrainConfig {
                epochs: opts.epochs,
                batch_size: 16,
                lr: 1e-3,
                seed: opts.seed,
            },
        );
        let mut preds = Vec::new();
        let mut truths = Vec::new();
        for &i in test_idx {
            let feats = extract_features(&graphs[i]);
            for (h, lab) in labels.iter().enumerate() {
                preds.push(model.predict_ms(&feats, h));
                truths.push(lab[i]);
            }
        }
        let lat_mape = mape(&preds, &truths);
        let lat_acc10 = acc_at(&preds, &truths, 0.10);

        eprintln!("  [{arch}] training the NAS-Bench-201 accuracy predictor...");
        let acc = accuracy_benchmark(
            arch,
            3 * per_fam,
            per_fam.max(8),
            opts.epochs * 3,
            opts.seed,
        );

        rows.push(vec![
            arch.to_string(),
            pct(lat_acc10),
            format!("{lat_mape:.1}"),
            pct(acc.acc10_pct),
            format!("{:.1}", acc.mape_pct),
        ]);
        json_archs.insert(
            arch.to_string(),
            nnlqp_ir::json!({
                "latency": { "acc10_pct": lat_acc10, "mape_pct": lat_mape },
                "nas_accuracy": {
                    "acc10_pct": acc.acc10_pct,
                    "acc5_pct": acc.acc5_pct,
                    "mape_pct": acc.mape_pct,
                    "baseline_acc10_pct": acc.baseline_acc10_pct,
                    "baseline_mape_pct": acc.baseline_mape_pct,
                },
            }),
        );
    }
    print_table(
        &[
            "encoder",
            "latency Acc(10%)",
            "latency MAPE",
            "NAS-acc Acc(10%)",
            "NAS-acc MAPE",
        ],
        &rows,
    );
    save_json(
        &opts.out_dir,
        "encoders",
        &nnlqp_ir::json!({
            "platforms": platforms.iter().map(|p| p.name.clone()).collect::<Vec<_>>(),
            "models": graphs.len(),
            "epochs": opts.epochs,
            "architectures": nnlqp_ir::json::Value::Object(json_archs),
        }),
    );
}
