//! Figure 2 / Appendix A: kernel additivity validation.
//!
//! 60 models of 6 types on the GTX1660+TensorRT-style platform; compare
//! each model's latency against the sum of its kernels' isolated
//! latencies. The paper's findings: (1) every point lies above `y = x`;
//! (2) per family the relationship is approximately linear with a
//! family-specific slope.

use crate::opts::Opts;
use crate::report::{num, print_table, save_json};
use nnlqp_models::{generate_family, ModelFamily};
use nnlqp_sim::{exec, PlatformSpec};

const FAMILIES: [ModelFamily; 6] = [
    ModelFamily::ResNet,
    ModelFamily::AlexNet,
    ModelFamily::NasBench201,
    ModelFamily::EfficientNet,
    ModelFamily::MobileNetV2,
    ModelFamily::MobileNetV3,
];

/// Run the experiment.
pub fn run(opts: &Opts) {
    println!("Figure 2: kernel additivity validation (GTX1660 + TensorRT style)\n");
    let p = PlatformSpec::by_name("gpu-gtx1660-trt7.1-fp32").expect("registry platform");
    let per_family = (opts.per_family / 6).clamp(5, 50).max(10);
    let mut rows = Vec::new();
    let mut all_points = Vec::new();
    let mut violations = 0usize;
    let mut total = 0usize;
    for fam in FAMILIES {
        let mut points: Vec<(f64, f64)> = Vec::new();
        for m in generate_family(fam, per_family, opts.seed) {
            let model = exec::model_latency_ms(&m.graph, &p);
            let sum = exec::sum_kernel_latencies_ms(&m.graph, &p);
            if sum <= model {
                violations += 1;
            }
            total += 1;
            points.push((model, sum));
        }
        // Least-squares slope through the origin: sum ~= slope * model.
        let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
        let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
        let slope = sxy / sxx;
        // Linearity: R^2 of the through-origin fit.
        let ymean = points.iter().map(|(_, y)| y).sum::<f64>() / points.len() as f64;
        let ss_tot: f64 = points.iter().map(|(_, y)| (y - ymean).powi(2)).sum();
        let ss_res: f64 = points.iter().map(|(x, y)| (y - slope * x).powi(2)).sum();
        let r2 = if ss_tot > 0.0 {
            1.0 - ss_res / ss_tot
        } else {
            1.0
        };
        rows.push(vec![
            fam.name().to_string(),
            points.len().to_string(),
            num(slope, 3),
            num(r2, 3),
        ]);
        all_points.push(nnlqp_ir::json!({
            "family": fam.name(),
            "points": points,
            "slope": slope,
        }));
    }
    print_table(
        &[
            "Model Family",
            "Models",
            "Slope sum/model",
            "R^2 (linear fit)",
        ],
        &rows,
    );
    println!(
        "\nPoints above y = x: {total_above}/{total} (paper: all points above the line)",
        total_above = total - violations
    );
    save_json(
        &opts.out_dir,
        "fig2",
        &nnlqp_ir::json!({
            "families": all_points,
            "points_above_line": total - violations,
            "points_total": total,
        }),
    );
}
