//! Table 2: time cost of querying vs predicting latency.
//!
//! 100 models × 9 platforms. Hit-a% means a% of the queries are already
//! stored in the database; the rest go to hardware. FLOPs+MAC and NNLP
//! columns are the per-prediction costs of the two predictors.

use crate::opts::Opts;
use crate::report::{num, print_table, save_json};
use nnlqp::interface::QueryParams;
use nnlqp::predictor::{FLOPS_MAC_COST_S, PREDICT_COST_S};
use nnlqp::{Nnlqp, Platform};
use nnlqp_ir::{Graph, Rng64};
use nnlqp_models::{family::CORPUS_FAMILIES, generate_family};
use nnlqp_sim::{DeviceFarm, PlatformSpec};

/// Number of query models (paper: 100, 10 per family).
const N_MODELS: usize = 100;

fn query_cost_at_hit_ratio(
    platform: &PlatformSpec,
    models: &[Graph],
    warm: usize,
    reps: usize,
) -> f64 {
    // Each platform deployment sees its own jitter stream.
    let mut h = 0xcbf29ce484222325u64;
    for b in platform.name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    let system = Nnlqp::builder()
        .farm(DeviceFarm::new(std::slice::from_ref(platform), 1))
        .reps(reps)
        .seed(h ^ warm as u64)
        .build();
    let target = Platform::from(platform.clone());
    system
        .warm_cache(&models[..warm], &target, 1)
        .expect("warm cache");
    let mut total = 0.0;
    for m in models {
        let r = system
            .query(&QueryParams::new(m.clone(), 1, target.clone()))
            .expect("query");
        total += r.cost_s;
    }
    total
}

/// Run the experiment.
pub fn run(opts: &Opts) {
    println!("Table 2: cost of querying vs predicting latency (100 models, 9 platforms)\n");
    // 10 models per family, as in the paper.
    let mut models = Vec::new();
    for f in CORPUS_FAMILIES {
        for m in generate_family(f, N_MODELS / CORPUS_FAMILIES.len(), opts.seed) {
            models.push(m.graph);
        }
    }
    let mut rng = Rng64::new(opts.seed ^ 0x7AB2);
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut avgs = [0.0f64; 9]; // h0 h50 h100 fm nnlp s50 s100 sfm snnlp
    let platforms = PlatformSpec::table2_platforms();
    for p in &platforms {
        let h0 = query_cost_at_hit_ratio(p, &models, 0, opts.reps);
        let h50 = query_cost_at_hit_ratio(p, &models, N_MODELS / 2, opts.reps);
        let h100 = query_cost_at_hit_ratio(p, &models, N_MODELS, opts.reps);
        let fm = N_MODELS as f64 * FLOPS_MAC_COST_S * (0.85 + 0.3 * rng.uniform());
        let nnlp = fm + N_MODELS as f64 * (PREDICT_COST_S - FLOPS_MAC_COST_S);
        let (s50, s100, sfm, snnlp) = (h0 / h50, h0 / h100, h0 / fm, h0 / nnlp);
        rows.push(vec![
            p.name.clone(),
            num(h0, 1),
            num(h50, 1),
            num(h100, 1),
            num(fm, 2),
            num(nnlp, 2),
            num(s50, 2),
            num(s100, 2),
            num(sfm, 2),
            num(snnlp, 2),
        ]);
        for (a, v) in avgs
            .iter_mut()
            .zip([h0, h50, h100, fm, nnlp, s50, s100, sfm, snnlp])
        {
            *a += v / platforms.len() as f64;
        }
        json_rows.push(nnlqp_ir::json!({
            "platform": p.name, "hit0_s": h0, "hit50_s": h50, "hit100_s": h100,
            "flops_mac_s": fm, "nnlp_s": nnlp,
            "speedup_hit50": s50, "speedup_hit100": s100,
            "speedup_flops_mac": sfm, "speedup_nnlp": snnlp,
        }));
    }
    rows.push(
        std::iter::once("Average".to_string())
            .chain(
                avgs.iter()
                    .enumerate()
                    .map(|(i, v)| num(*v, if i < 3 { 1 } else { 2 })),
            )
            .collect(),
    );
    print_table(
        &[
            "Platform",
            "Hit-0%",
            "Hit-50%",
            "Hit-100%",
            "FLOPs+MAC",
            "NNLP",
            "Spd-50%",
            "Spd-100%",
            "Spd-F+M",
            "Spd-NNLP",
        ],
        &rows,
    );
    println!(
        "\nPaper: average speedups 1.82x (Hit-50%), 52.7x (Hit-100%), 1084x (FLOPs+MAC), 1016x (NNLP);"
    );
    println!("at the observed ~53% production hit ratio the overall query speedup is ~1.8x.");
    save_json(
        &opts.out_dir,
        "table2",
        &nnlqp_ir::json!({ "rows": json_rows }),
    );
}
