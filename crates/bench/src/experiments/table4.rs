//! Table 4: ablation of the unified graph embedding (wo/F0, wo/gnn,
//! wo/static), same leave-one-family-out protocol as Table 3.

use crate::corpus::{leave_one_out, measured_corpus};
use crate::methods::{fit, Method};
use crate::opts::Opts;
use crate::report::{pct, print_table, save_json};
use nnlqp_models::family::CORPUS_FAMILIES;
use nnlqp_predict::mape;
use nnlqp_sim::PlatformSpec;

/// Run the experiment.
pub fn run(opts: &Opts) {
    println!(
        "Table 4: graph-embedding ablations, MAPE ({} models/family)\n",
        opts.per_family
    );
    let platform = PlatformSpec::by_name("gpu-gtx1660-trt7.1-fp32").expect("registry platform");
    let corpus = measured_corpus(
        &CORPUS_FAMILIES,
        opts.per_family,
        &platform,
        opts.seed,
        opts.reps,
    );
    let methods = Method::TABLE4;
    let mut rows = Vec::new();
    let mut avg = vec![0.0f64; methods.len()];
    let mut json_rows = Vec::new();
    for fam in CORPUS_FAMILIES {
        let (test, train) = leave_one_out(&corpus, fam);
        eprintln!("  fold {}", fam.name());
        let truth: Vec<f64> = test.iter().map(|m| m.latency_ms).collect();
        let mut cells = vec![fam.name().to_string()];
        let mut json_row = Vec::new();
        for (j, m) in methods.iter().enumerate() {
            let fitted = fit(*m, &train, &platform, opts);
            let preds: Vec<f64> = test.iter().map(|x| fitted.predict(&x.graph)).collect();
            let e = mape(&preds, &truth);
            avg[j] += e / CORPUS_FAMILIES.len() as f64;
            cells.push(pct(e));
            json_row.push(e);
        }
        rows.push(cells);
        json_rows.push(nnlqp_ir::json!({"family": fam.name(), "mape": json_row}));
    }
    rows.push(
        std::iter::once("Average".to_string())
            .chain(avg.iter().map(|v| pct(*v)))
            .collect(),
    );
    let headers: Vec<&str> = std::iter::once("Model Family")
        .chain(methods.iter().map(|m| m.name()))
        .collect();
    print_table(&headers, &rows);
    println!("\nPaper averages — NNLP 10.66%, wo/F0 31.61%, wo/gnn 25.15%, wo/static 23.59%");
    println!("(importance order: node features > GNN > static features)");
    save_json(
        &opts.out_dir,
        "table4",
        &nnlqp_ir::json!({
            "methods": methods.iter().map(|m| m.name()).collect::<Vec<_>>(),
            "rows": json_rows,
            "average": avg,
        }),
    );
}
