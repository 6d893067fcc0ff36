//! Table 3: leave-one-family-out comparison of six prediction methods on
//! the gpu-gtx1660-trt7.1-fp32 platform.

use crate::corpus::{leave_one_out, measured_corpus};
use crate::methods::{fit, Method};
use crate::opts::Opts;
use crate::report::{pct, print_table, save_json};
use nnlqp_models::family::CORPUS_FAMILIES;
use nnlqp_predict::{acc_at, mape};
use nnlqp_sim::PlatformSpec;

/// Run the experiment.
pub fn run(opts: &Opts) {
    println!(
        "Table 3: leave-one-family-out comparison ({} models/family, {} epochs)\n",
        opts.per_family, opts.epochs
    );
    let platform = PlatformSpec::by_name("gpu-gtx1660-trt7.1-fp32").expect("registry platform");
    let corpus = measured_corpus(
        &CORPUS_FAMILIES,
        opts.per_family,
        &platform,
        opts.seed,
        opts.reps,
    );

    let methods = Method::TABLE3;
    // results[family][method] = (mape, acc10)
    let mut results = Vec::new();
    for fam in CORPUS_FAMILIES {
        let (test, train) = leave_one_out(&corpus, fam);
        eprintln!(
            "  fold {}: train {} models, test {}",
            fam.name(),
            train.len(),
            test.len()
        );
        let truth: Vec<f64> = test.iter().map(|m| m.latency_ms).collect();
        let mut row = Vec::new();
        for m in methods {
            let fitted = fit(m, &train, &platform, opts);
            let preds: Vec<f64> = test.iter().map(|x| fitted.predict(&x.graph)).collect();
            row.push((mape(&preds, &truth), acc_at(&preds, &truth, 0.10)));
        }
        results.push((fam, row));
    }

    let headers: Vec<&str> = std::iter::once("Model Family")
        .chain(methods.iter().map(|m| m.name()))
        .collect();
    for (metric_idx, metric_name) in [
        (0usize, "MAPE (lower is better)"),
        (1, "Acc(10%) (higher is better)"),
    ] {
        println!("\n{metric_name}:");
        let mut rows = Vec::new();
        let mut avg = vec![0.0f64; methods.len()];
        for (fam, row) in &results {
            let mut cells = vec![fam.name().to_string()];
            for (j, (mp, acc)) in row.iter().enumerate() {
                let v = if metric_idx == 0 { *mp } else { *acc };
                avg[j] += v / results.len() as f64;
                cells.push(pct(v));
            }
            rows.push(cells);
        }
        rows.push(
            std::iter::once("Average".to_string())
                .chain(avg.iter().map(|v| pct(*v)))
                .collect(),
        );
        print_table(&headers, &rows);
    }
    println!("\nPaper averages — MAPE: FLOPs 47.7%, FLOPs+MAC 37.3%, nn-Meter 15.4%, TPU 21.2%, BRP-NAS 30.8%, NNLP 10.7%");
    println!("Paper averages — Acc(10%): FLOPs 8.0%, FLOPs+MAC 13.2%, nn-Meter 47.4%, TPU 34.4%, BRP-NAS 21.3%, NNLP 59.7%");

    save_json(
        &opts.out_dir,
        "table3",
        &nnlqp_ir::json!({
            "methods": methods.iter().map(|m| m.name()).collect::<Vec<_>>(),
            "folds": results
                .iter()
                .map(|(fam, row)| nnlqp_ir::json!({
                    "family": fam.name(),
                    "mape": row.iter().map(|r| r.0).collect::<Vec<_>>(),
                    "acc10": row.iter().map(|r| r.1).collect::<Vec<_>>(),
                }))
                .collect::<Vec<_>>(),
        }),
    );
}
