//! Table 6: multi-platform prediction — nine independent single-platform
//! models ("multi-models") vs one shared-backbone model with nine heads
//! ("single-model"), Acc(10%) per platform, plus the prediction-cost
//! comparison of §8.5.

use crate::opts::Opts;
use crate::report::{pct, print_table, save_json};
use nnlqp_ir::{Graph, Rng64};
use nnlqp_models::{family::CORPUS_FAMILIES, generate_family};
use nnlqp_predict::train::{predict_samples, train, truths, Dataset, Sample, TrainConfig};
use nnlqp_predict::{acc_at, NnlpConfig, NnlpModel};
use nnlqp_sim::{measure, PlatformSpec};
use std::time::Instant;

/// Run the experiment.
pub fn run(opts: &Opts) {
    let platforms = PlatformSpec::table2_platforms();
    let n_models = (opts.per_family * CORPUS_FAMILIES.len() / 3).max(60);
    println!(
        "Table 6: multi-models vs single multi-head model, Acc(10%) ({n_models} models/platform)\n"
    );
    // One shared pool of graphs measured on every platform.
    let mut graphs: Vec<Graph> = Vec::new();
    let per_fam = (n_models / CORPUS_FAMILIES.len()).max(2);
    for f in CORPUS_FAMILIES {
        for m in generate_family(f, per_fam, opts.seed) {
            graphs.push(m.graph);
        }
    }
    // Train/test split (7:3).
    let mut idx: Vec<usize> = (0..graphs.len()).collect();
    Rng64::new(opts.seed ^ 0x66).shuffle(&mut idx);
    let cut = idx.len() * 7 / 10;
    let (train_idx, test_idx) = idx.split_at(cut);

    // Measured labels per platform.
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

    let cfg = |heads: usize| NnlpConfig {
        hidden: 48,
        head_hidden: 48,
        gnn_layers: 3,
        n_heads: heads,
        dropout: 0.05,
        ..Default::default()
    };
    let tc = TrainConfig {
        epochs: opts.epochs,
        batch_size: 16,
        lr: 1e-3,
        seed: opts.seed,
    };

    // Single multi-head model over the union of all platforms.
    let mut union_entries: Vec<(&Graph, f64, usize)> = Vec::new();
    for (h, lab) in labels.iter().enumerate() {
        for &i in train_idx {
            union_entries.push((&graphs[i], lab[i], h));
        }
    }
    let union_ds = Dataset::build(&union_entries);
    let mut rng = Rng64::new(opts.seed ^ 0x600D);
    eprintln!(
        "  training the single multi-head model ({} samples)...",
        union_ds.samples.len()
    );
    let mut single = NnlpModel::new(cfg(platforms.len()), union_ds.norm.clone(), &mut rng);
    train(&mut single, &union_ds.samples, tc);

    // Nine independent single-head models.
    let mut multis: Vec<NnlpModel> = Vec::new();
    for (h, p) in platforms.iter().enumerate() {
        eprintln!("  training the per-platform model for {}...", p.name);
        let entries: Vec<(&Graph, f64, usize)> = train_idx
            .iter()
            .map(|&i| (&graphs[i], labels[h][i], 0usize))
            .collect();
        let ds = Dataset::build(&entries);
        let mut rng = Rng64::new(opts.seed ^ (h as u64) << 3);
        let mut m = NnlpModel::new(cfg(1), ds.norm.clone(), &mut rng);
        train(&mut m, &ds.samples, tc);
        multis.push(m);
    }

    // Evaluate Acc(10%) per platform.
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut avg = [0.0f64; 2];
    for (h, p) in platforms.iter().enumerate() {
        let test_entries: Vec<(&Graph, f64, usize)> = test_idx
            .iter()
            .map(|&i| (&graphs[i], labels[h][i], h))
            .collect();
        let test_union: Vec<Sample> = union_ds.extend_with(&test_entries);
        let t = truths(&test_union);
        let acc_single = acc_at(&predict_samples(&single, &test_union), &t, 0.10);
        // The per-platform model uses its own normalizer and head 0.
        let per_entries: Vec<(&Graph, f64, usize)> = test_idx
            .iter()
            .map(|&i| (&graphs[i], labels[h][i], 0usize))
            .collect();
        let per_ds_samples = {
            let train_entries: Vec<(&Graph, f64, usize)> = train_idx
                .iter()
                .map(|&i| (&graphs[i], labels[h][i], 0usize))
                .collect();
            Dataset::build(&train_entries).extend_with(&per_entries)
        };
        let acc_multi = acc_at(&predict_samples(&multis[h], &per_ds_samples), &t, 0.10);
        avg[0] += acc_multi / platforms.len() as f64;
        avg[1] += acc_single / platforms.len() as f64;
        rows.push(vec![p.name.clone(), pct(acc_multi), pct(acc_single)]);
        json_rows.push(nnlqp_ir::json!({
            "platform": p.name, "multi_models": acc_multi, "single_model": acc_single,
        }));
    }
    rows.push(vec!["Average".into(), pct(avg[0]), pct(avg[1])]);
    print_table(&["Platform", "Multi-models", "Single-model"], &rows);

    // Prediction-cost comparison: 100 models on all 9 platforms. The
    // single model runs its shared backbone once per model and evaluates
    // every head; the nine independent models each run their own full
    // pipeline (feature extraction + backbone) per platform.
    let probe_graphs: Vec<&Graph> = graphs.iter().take(100).collect();
    let t0 = Instant::now();
    for g in &probe_graphs {
        let f = nnlqp_predict::extract_features(g);
        let _ = single.predict_all_heads_ms(&f);
    }
    let single_cost = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    for g in &probe_graphs {
        for m in &multis {
            let f = nnlqp_predict::extract_features(g);
            let _ = m.predict_ms(&f, 0);
        }
    }
    let multi_cost = t1.elapsed().as_secs_f64();
    println!(
        "\nPrediction cost for {} models x {} platforms: multi-models {multi_cost:.3}s vs single-model {single_cost:.3}s ({:.1}x saving)",
        probe_graphs.len(),
        platforms.len(),
        multi_cost / single_cost.max(1e-9),
    );
    println!("Paper: 93.41s vs 10.59s (~9x saving); average Acc(10%) 80.6% vs 79.5%");
    save_json(
        &opts.out_dir,
        "table6",
        &nnlqp_ir::json!({
            "rows": json_rows,
            "average": {"multi_models": avg[0], "single_model": avg[1]},
            "cost_s": {"multi_models": multi_cost, "single_model": single_cost},
        }),
    );
}
