//! Table 8 (Appendix D): kernel-split statistics over the corpus.

use crate::opts::Opts;
use crate::report::{pct, print_table, save_json};
use nnlqp_ir::Graph;
use nnlqp_models::{family::CORPUS_FAMILIES, generate_family};
use nnlqp_sim::fusion::fusion_stats;

/// Run the experiment.
pub fn run(opts: &Opts) {
    println!(
        "Table 8: statistics of kernels split from the corpus ({} models/family)\n",
        opts.per_family
    );
    let mut graphs: Vec<Graph> = Vec::new();
    for f in CORPUS_FAMILIES {
        for m in generate_family(f, opts.per_family, opts.seed) {
            graphs.push(m.graph);
        }
    }
    let stats = fusion_stats(graphs.iter());
    let total: usize = stats.values().sum();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for (fam, count) in &stats {
        rows.push(vec![
            fam.name().to_string(),
            count.to_string(),
            pct(*count as f64 / total as f64 * 100.0),
        ]);
        json_rows.push(nnlqp_ir::json!({"family": fam.name(), "count": count}));
    }
    rows.push(vec!["All".into(), total.to_string(), pct(100.0)]);
    print_table(&["Kernel Family", "Number", "Percentage"], &rows);
    println!(
        "\nAverage kernels per model: {:.1} (paper: ~18; Conv+Relu dominates at 59.9%)",
        total as f64 / graphs.len() as f64
    );
    save_json(
        &opts.out_dir,
        "table8",
        &nnlqp_ir::json!({
            "rows": json_rows, "total": total, "models": graphs.len(),
        }),
    );
}
