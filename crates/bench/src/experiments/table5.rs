//! Table 5: kernel-level latency prediction — nn-Meter vs TPU vs NNLP on
//! the 14 kernel families, 7:3 split per family.

use crate::methods::{cap_kernels_per_family, KERNELS_PER_FAMILY_CAP};
use crate::opts::Opts;
use crate::report::{pct, print_table, save_json};
use nnlqp_ir::{Graph, Rng64};
use nnlqp_models::{family::CORPUS_FAMILIES, generate_family};
use nnlqp_nn::{RandomForest, RandomForestConfig};
use nnlqp_predict::kernels::{
    build_kernel_dataset, kernel_feature_vector, KernelSample, NnlpKernelPredictor, TpuPredictor,
};
use nnlqp_predict::mape;
use nnlqp_sim::{KernelFamily, PlatformSpec};
use std::collections::BTreeMap;

/// Run the experiment.
pub fn run(opts: &Opts) {
    println!("Table 5: kernel latency prediction, MAPE per kernel family\n");
    let platform = PlatformSpec::by_name("gpu-gtx1660-trt7.1-fp32").expect("registry platform");
    // Corpus graphs (labels come from the kernel split, not families).
    let mut graphs: Vec<Graph> = Vec::new();
    for f in CORPUS_FAMILIES {
        for m in generate_family(f, (opts.per_family / 2).max(5), opts.seed) {
            graphs.push(m.graph);
        }
    }
    let refs: Vec<&Graph> = graphs.iter().collect();
    let kd = cap_kernels_per_family(
        build_kernel_dataset(&refs, &platform, opts.seed),
        KERNELS_PER_FAMILY_CAP,
    );
    // 7:3 split within each family.
    let mut rng = Rng64::new(opts.seed ^ 0x7531);
    let mut by_family: BTreeMap<KernelFamily, Vec<&KernelSample>> = BTreeMap::new();
    for k in &kd {
        by_family.entry(k.desc.family).or_default().push(k);
    }
    let mut train_ks: Vec<KernelSample> = Vec::new();
    let mut test_ks: Vec<KernelSample> = Vec::new();
    for (_, mut ks) in by_family {
        rng.shuffle(&mut ks);
        let cut = (ks.len() * 7) / 10;
        train_ks.extend(ks[..cut].iter().map(|k| (*k).clone()));
        test_ks.extend(ks[cut..].iter().map(|k| (*k).clone()));
    }

    // nn-Meter's per-family forests (kernel level only).
    let mut forests: BTreeMap<KernelFamily, RandomForest> = BTreeMap::new();
    {
        let mut grouped: BTreeMap<KernelFamily, (Vec<Vec<f64>>, Vec<f64>)> = BTreeMap::new();
        for k in &train_ks {
            let e = grouped.entry(k.desc.family).or_default();
            e.0.push(kernel_feature_vector(&k.desc));
            e.1.push(k.latency_ms.ln_1p());
        }
        for (fam, (x, y)) in grouped {
            forests.insert(
                fam,
                RandomForest::fit(
                    &x,
                    &y,
                    RandomForestConfig {
                        n_trees: 30,
                        ..Default::default()
                    },
                    opts.seed ^ fam as u64,
                ),
            );
        }
    }
    // TPU and NNLP kernel GNNs.
    let epochs = opts.epochs.max(15);
    eprintln!(
        "  training TPU kernel model ({} kernels)...",
        train_ks.len()
    );
    let tpu = TpuPredictor::fit(&refs, &train_ks, &[], epochs, opts.seed);
    eprintln!("  training NNLP kernel model...");
    let nnlp = NnlpKernelPredictor::fit(&refs, &train_ks, epochs, opts.seed + 1);

    // Evaluate per family: (truth, nn-Meter, TPU, NNLP) prediction columns.
    type FamilyColumns = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);
    let mut per_family: BTreeMap<KernelFamily, FamilyColumns> = BTreeMap::new();
    for k in &test_ks {
        let e = per_family.entry(k.desc.family).or_default();
        e.0.push(k.latency_ms);
        let nm = forests
            .get(&k.desc.family)
            .map(|f| {
                f.predict(&kernel_feature_vector(&k.desc))
                    .exp_m1()
                    .max(1e-6)
            })
            .unwrap_or(k.latency_ms);
        e.1.push(nm);
        e.2.push(tpu.predict_kernel(refs[k.graph_idx], &k.kernel));
        e.3.push(nnlp.predict_kernel(refs[k.graph_idx], &k.kernel));
    }
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut sums = [0.0f64; 3];
    let n_fams = per_family.len() as f64;
    for (fam, (truth, nm, tp, np)) in &per_family {
        let m = [mape(nm, truth), mape(tp, truth), mape(np, truth)];
        for (s, v) in sums.iter_mut().zip(m) {
            *s += v / n_fams;
        }
        rows.push(vec![
            fam.name().to_string(),
            pct(m[0]),
            pct(m[1]),
            pct(m[2]),
        ]);
        json_rows.push(nnlqp_ir::json!({
            "family": fam.name(), "nn_meter": m[0], "tpu": m[1], "nnlp": m[2],
            "test_kernels": truth.len(),
        }));
    }
    rows.push(vec![
        "Average".into(),
        pct(sums[0]),
        pct(sums[1]),
        pct(sums[2]),
    ]);
    print_table(&["Kernel Family", "nn-Meter", "TPU", "NNLP"], &rows);
    println!("\nPaper averages — nn-Meter 8.33%, TPU 8.01%, NNLP 7.67%");
    save_json(
        &opts.out_dir,
        "table5",
        &nnlqp_ir::json!({"rows": json_rows, "average": sums}),
    );
}
