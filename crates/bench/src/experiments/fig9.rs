//! Figure 9: NAS Pareto fronts under four latency metrics.
//!
//! Sample subnets from the OFA-style supernet, score accuracy with the
//! surrogate, and compare Pareto fronts / rank correlations of FLOPs,
//! lookup-table latency, NNLP-predicted latency and true latency — over
//! the full latency range and inside a tight compute-budget band.

use crate::opts::Opts;
use crate::report::{num, print_table, save_json};
use nnlqp_ir::{cost, DType, Graph, Rng64};
use nnlqp_nas::{accuracy_surrogate, pareto, LookupTable, SubnetConfig, Supernet};
use nnlqp_predict::train::{train, Dataset, TrainConfig};
use nnlqp_predict::{extract_features, kendall_tau, NnlpConfig, NnlpModel};
use nnlqp_sim::{exec::model_latency_ms, PlatformSpec};

/// Run the experiment.
pub fn run(opts: &Opts) {
    let n_eval = (opts.per_family * 5).clamp(150, 1000);
    let n_train = (opts.per_family * 8).clamp(240, 800);
    println!(
        "Figure 9: NAS Pareto fronts ({n_eval} subnets evaluated, predictor trained on {n_train})\n"
    );
    let platform = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").expect("registry platform");
    let sn = Supernet::default();
    let mut rng = Rng64::new(opts.seed ^ 0xF9);

    // Training pool for the NNLP predictor.
    eprintln!("  measuring {n_train} training subnets...");
    let train_pool: Vec<(Graph, f64)> = (0..n_train)
        .map(|i| {
            let cfg = SubnetConfig::sample(&mut rng);
            let g = sn
                .subnet_graph(&cfg, &format!("train-{i}"))
                .expect("valid subnet");
            let l = model_latency_ms(&g, &platform);
            (g, l)
        })
        .collect();
    let entries: Vec<(&Graph, f64, usize)> =
        train_pool.iter().map(|(g, l)| (g, *l, 0usize)).collect();
    let ds = Dataset::build(&entries);
    let mut mrng = Rng64::new(opts.seed ^ 0x99);
    let mut predictor = NnlpModel::new(
        NnlpConfig {
            hidden: 48,
            head_hidden: 48,
            gnn_layers: 3,
            dropout: 0.05,
            ..Default::default()
        },
        ds.norm.clone(),
        &mut mrng,
    );
    eprintln!("  training the latency predictor...");
    train(
        &mut predictor,
        &ds.samples,
        TrainConfig {
            // Ranking within the narrow OFA space needs a well-converged
            // predictor; train twice as long as the corpus experiments.
            epochs: opts.epochs * 2,
            batch_size: 16,
            lr: 1e-3,
            seed: opts.seed,
        },
    );
    eprintln!("  building the per-block lookup table...");
    let lut = LookupTable::build(&sn, &platform);

    // Evaluation population.
    eprintln!("  evaluating {n_eval} subnets under all four metrics...");
    let mut flops = Vec::with_capacity(n_eval);
    let mut lookup = Vec::with_capacity(n_eval);
    let mut predicted = Vec::with_capacity(n_eval);
    let mut true_lat = Vec::with_capacity(n_eval);
    let mut accuracy = Vec::with_capacity(n_eval);
    for i in 0..n_eval {
        let cfg = SubnetConfig::sample(&mut rng);
        let g = sn
            .subnet_graph(&cfg, &format!("eval-{i}"))
            .expect("valid subnet");
        let gf = cost::graph_cost(&g, DType::F32).flops;
        flops.push(gf);
        lookup.push(lut.estimate_ms(&cfg));
        predicted.push(predictor.predict_ms(&extract_features(&g), 0));
        true_lat.push(model_latency_ms(&g, &platform));
        accuracy.push(accuracy_surrogate(&cfg, gf / 1e9));
    }

    // Kendall tau, full range.
    let tau_full = [
        kendall_tau(&flops, &true_lat),
        kendall_tau(&lookup, &true_lat),
        kendall_tau(&predicted, &true_lat),
    ];
    // Budget band: subnets within +-15% of the median true latency
    // (the paper's "computation budget around 300M" slice).
    let mut sorted = true_lat.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = sorted[sorted.len() / 2];
    let band: Vec<usize> = (0..n_eval)
        .filter(|&i| (true_lat[i] - median).abs() <= 0.15 * median)
        .collect();
    let slice = |v: &[f64]| -> Vec<f64> { band.iter().map(|&i| v[i]).collect() };
    let (bf, bl, bp, bt) = (
        slice(&flops),
        slice(&lookup),
        slice(&predicted),
        slice(&true_lat),
    );
    let tau_band = [
        kendall_tau(&bf, &bt),
        kendall_tau(&bl, &bt),
        kendall_tau(&bp, &bt),
    ];

    print_table(
        &[
            "Metric vs true latency",
            "Kendall tau (full)",
            "Kendall tau (budget band)",
        ],
        &[
            vec!["FLOPs".into(), num(tau_full[0], 2), num(tau_band[0], 2)],
            vec![
                "Lookup table".into(),
                num(tau_full[1], 2),
                num(tau_band[1], 2),
            ],
            vec![
                "NNLP predicted".into(),
                num(tau_full[2], 2),
                num(tau_band[2], 2),
            ],
        ],
    );

    // Accuracy achievable under a latency budget by each front.
    let budget = median;
    let acc_true =
        pareto::best_accuracy_under_budget(&true_lat, &true_lat, &accuracy, budget).unwrap_or(0.0);
    let acc_pred =
        pareto::best_accuracy_under_budget(&predicted, &true_lat, &accuracy, budget).unwrap_or(0.0);
    let acc_lut =
        pareto::best_accuracy_under_budget(&lookup, &true_lat, &accuracy, budget).unwrap_or(0.0);
    let acc_flops =
        pareto::best_accuracy_under_budget(&flops, &true_lat, &accuracy, budget).unwrap_or(0.0);
    println!("\nBest accuracy within the {budget:.2} ms budget, by selection metric:");
    print_table(
        &[
            "Selection metric",
            "Best accuracy",
            "Gap to true-latency front",
        ],
        &[
            vec!["True latency".into(), num(acc_true, 2), num(0.0, 2)],
            vec![
                "NNLP predicted".into(),
                num(acc_pred, 2),
                num(acc_true - acc_pred, 2),
            ],
            vec![
                "Lookup table".into(),
                num(acc_lut, 2),
                num(acc_true - acc_lut, 2),
            ],
            vec![
                "FLOPs".into(),
                num(acc_flops, 2),
                num(acc_true - acc_flops, 2),
            ],
        ],
    );
    println!("\nPaper: taus 0.87/0.91/0.92 (full) -> 0.38/0.53/0.73 (300M budget);");
    println!(
        "the predictor front gains +1.2% accuracy over the FLOPs front and +0.6% over lookup."
    );
    save_json(
        &opts.out_dir,
        "fig9",
        &nnlqp_ir::json!({
            "tau_full": {"flops": tau_full[0], "lookup": tau_full[1], "predicted": tau_full[2]},
            "tau_band": {"flops": tau_band[0], "lookup": tau_band[1], "predicted": tau_band[2]},
            "band_size": band.len(),
            "budget_ms": budget,
            "best_accuracy": {
                "true": acc_true, "predicted": acc_pred, "lookup": acc_lut, "flops": acc_flops,
            },
        }),
    );
}
