//! Table 7: total cost of latency acquisition strategies for NAS pools.

use crate::opts::Opts;
use crate::report::{num, print_table, save_json};
use nnlqp_nas::table7_rows;

/// Run the experiment (the paper's configuration: 1k measured baseline,
/// 10k predicted pool, 50 transfer samples).
pub fn run(opts: &Opts) {
    println!("Table 7: cost of measurement vs prediction vs transfer\n");
    let rows = table7_rows(1_000, 10_000, 50);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                r.measured.to_string(),
                r.predicted.to_string(),
                r.test_models.to_string(),
                format!("{} T", r.cost_t),
                format!("{}x", num(r.speedup, 2)),
            ]
        })
        .collect();
    print_table(
        &[
            "strategy",
            "measured",
            "predicted",
            "test models",
            "time cost",
            "speedup",
        ],
        &table,
    );
    println!("\nPaper: 1x / 0.99x / 16.7x (T = one prediction, 1000T = one true measurement)");
    save_json(
        &opts.out_dir,
        "table7",
        &nnlqp_ir::json!({
            "rows": rows.iter().map(|r| nnlqp_ir::json!({
                "label": r.label, "measured": r.measured, "predicted": r.predicted,
                "test_models": r.test_models, "cost_t": r.cost_t, "speedup": r.speedup,
            })).collect::<Vec<_>>(),
        }),
    );
}
