//! Parity suite for the SIMD kernels against the scalar backend: the same
//! f32 arithmetic with a different instruction schedule. FMA fuses the
//! multiply-add, so GEMM and whole-pipeline comparisons are a *relative
//! tolerance* affair (≤ 1e-5), while the element-wise bias + activation
//! epilogue must agree **exactly**.

use nnlqp::{Nnlqp, QueryParams, TrainPredictorConfig};
use nnlqp_ir::{Graph, Rng64};
use nnlqp_models::ModelFamily;
use nnlqp_nn::{simd_available, Activation, Kernel, Matrix};
use nnlqp_sim::{DeviceFarm, Platform, PlatformSpec};
use proptest::prelude::*;

const PLATFORMS: [&str; 2] = ["gpu-T4-trt7.1-fp32", "cpu-openppl-fp32"];

fn rand_matrix(rows: usize, cols: usize, rng: &mut Rng64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| (rng.uniform() as f32) * 2.0 - 1.0)
}

/// Largest relative elementwise deviation between two same-shape matrices.
fn rel_dev(a: &Matrix, b: &Matrix) -> f32 {
    assert_eq!((a.rows, a.cols), (b.rows, b.cols));
    let mut worst = 0.0f32;
    for i in 0..a.rows {
        for (x, y) in a.row(i).iter().zip(b.row(i)) {
            let dev = (x - y).abs() / x.abs().max(y.abs()).max(1.0);
            worst = worst.max(dev);
        }
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// All three GEMM entry points agree between backends to ≤ 1e-5
    /// relative over random *ragged* shapes (nothing aligned to the
    /// 8-lane vector width).
    #[test]
    fn gemm_backends_agree_on_ragged_shapes(
        m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in any::<u64>(),
    ) {
        if !simd_available() { return Ok(()); }
        let mut rng = Rng64::new(seed);
        let a = rand_matrix(m, k, &mut rng);
        let b = rand_matrix(k, n, &mut rng);
        let bt = rand_matrix(n, k, &mut rng);
        let at = rand_matrix(k, m, &mut rng);

        let mut s = Matrix::zeros(m, n);
        let mut v = Matrix::zeros(m, n);
        let mut pack = Vec::new();
        a.matmul_into_with(Kernel::Scalar, &b, &mut s, &mut pack);
        a.matmul_into_with(Kernel::Avx2Fma, &b, &mut v, &mut pack);
        prop_assert!(rel_dev(&s, &v) <= 1e-5, "matmul dev {}", rel_dev(&s, &v));

        let mut st = Matrix::zeros(m, n);
        let mut vt = Matrix::zeros(m, n);
        a.matmul_t_into_with(Kernel::Scalar, &bt, &mut st);
        a.matmul_t_into_with(Kernel::Avx2Fma, &bt, &mut vt);
        prop_assert!(rel_dev(&st, &vt) <= 1e-5, "matmul_t dev {}", rel_dev(&st, &vt));

        let ts = at.t_matmul_with(Kernel::Scalar, &b);
        let tv = at.t_matmul_with(Kernel::Avx2Fma, &b);
        prop_assert!(rel_dev(&ts, &tv) <= 1e-5, "t_matmul dev {}", rel_dev(&ts, &tv));
    }

    /// The bias + activation epilogue is elementwise (no FMA re-association
    /// possible): backends must agree bitwise.
    #[test]
    fn bias_act_epilogue_is_bitwise_across_backends(
        m in 1usize..16, n in 1usize..40, seed in any::<u64>(), relu in any::<bool>(),
    ) {
        if !simd_available() { return Ok(()); }
        let mut rng = Rng64::new(seed);
        let base = rand_matrix(m, n, &mut rng);
        let bias: Vec<f32> = (0..n).map(|_| (rng.uniform() as f32) - 0.5).collect();
        let act = if relu { Activation::Relu } else { Activation::Identity };
        let mut s = base.clone();
        let mut v = base;
        s.bias_act_with(Kernel::Scalar, &bias, act);
        v.bias_act_with(Kernel::Avx2Fma, &bias, act);
        for i in 0..m {
            prop_assert_eq!(s.row(i), v.row(i));
        }
    }

}

/// Build a system, measure a tiny SqueezeNet corpus on both platforms and
/// train a small two-head predictor over it.
fn trained_system() -> Nnlqp {
    let s = Nnlqp::builder()
        .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
        .reps(3)
        .build();
    let models: Vec<Graph> = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 8, 3)
        .into_iter()
        .map(|m| m.graph)
        .collect();
    for name in PLATFORMS {
        s.warm_cache(&models, &Platform::by_name(name).unwrap(), 1)
            .unwrap();
    }
    s.train_predictor(
        &PLATFORMS,
        TrainPredictorConfig {
            epochs: 30,
            hidden: 16,
            gnn_layers: 2,
            ..Default::default()
        },
    )
    .unwrap();
    s
}

fn probes(n: usize) -> Vec<Graph> {
    nnlqp_models::generate_family(ModelFamily::SqueezeNet, 8 + n, 91)
        .into_iter()
        .rev()
        .take(n)
        .map(|m| m.graph)
        .collect()
}

/// End-to-end dual-mode parity: the full predict pipeline (features →
/// backbone → head) run with the SIMD backend pinned off, then on, agrees
/// to ≤ 1e-5 relative. This is the only test in the workspace that toggles
/// the process-global backend.
#[test]
fn full_pipeline_predictions_match_across_backends() {
    if !simd_available() {
        return;
    }
    let s = trained_system();
    let graphs = probes(4);
    let mut pairs = Vec::new();
    for g in &graphs {
        for name in PLATFORMS {
            let p = QueryParams::by_name(g.clone(), 1, name).unwrap();
            nnlqp_nn::set_simd_enabled(false);
            let scalar = s.predict(&p).unwrap().latency_ms;
            nnlqp_nn::set_simd_enabled(true);
            let simd = s.predict(&p).unwrap().latency_ms;
            pairs.push((scalar, simd));
        }
    }
    nnlqp_nn::set_simd_enabled(true);
    for (scalar, simd) in pairs {
        let dev = (scalar - simd).abs() / scalar.abs().max(simd.abs()).max(1.0);
        assert!(dev <= 1e-5, "scalar {scalar} vs simd {simd} (dev {dev})");
    }
}
