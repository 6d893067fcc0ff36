//! Property-based tests of the numeric substrate.

use nnlqp_ir::Rng64;
use nnlqp_nn::{
    l2_normalize_rows_inplace, Adam, Csr, LinearRegression, Matrix, RegressionTree, TreeConfig,
};
use proptest::prelude::*;

fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut r = Rng64::new(seed);
    Matrix::from_fn(rows, cols, |_, _| r.range_f64(-2.0, 2.0) as f32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// (A B) C == A (B C) within f32 tolerance.
    #[test]
    fn matmul_associative(seed in any::<u64>()) {
        let a = rand_matrix(5, 4, seed);
        let b = rand_matrix(4, 6, seed ^ 1);
        let c = rand_matrix(6, 3, seed ^ 2);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.data.iter().zip(&right.data) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// Distributivity: A(B + C) == AB + AC.
    #[test]
    fn matmul_distributive(seed in any::<u64>()) {
        let a = rand_matrix(4, 5, seed);
        let b = rand_matrix(5, 3, seed ^ 3);
        let c = rand_matrix(5, 3, seed ^ 4);
        let mut bc = b.clone();
        bc.add_assign(&c);
        let left = a.matmul(&bc);
        let mut right = a.matmul(&b);
        right.add_assign(&a.matmul(&c));
        for (x, y) in left.data.iter().zip(&right.data) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// L2 row normalization is idempotent.
    #[test]
    fn l2_norm_idempotent(seed in any::<u64>()) {
        let mut y1 = rand_matrix(6, 5, seed);
        l2_normalize_rows_inplace(&mut y1, None);
        let mut y2 = y1.clone();
        l2_normalize_rows_inplace(&mut y2, None);
        for (a, b) in y1.data.iter().zip(&y2.data) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    /// Mean aggregation over a complete graph equals the global mean of
    /// the other nodes (spot-check of the CSR machinery).
    #[test]
    fn complete_graph_mean_agg(seed in any::<u64>()) {
        let n = 5usize;
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                edges.push((i, j));
            }
        }
        let csr = Csr::from_edges(n, &edges);
        let x = rand_matrix(n, 3, seed);
        let mut agg = Matrix::zeros(n, 3);
        csr.mean_agg_into(&x, &mut agg);
        for i in 0..n {
            for c in 0..3 {
                let want: f32 = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| x.get(j, c))
                    .sum::<f32>()
                    / (n - 1) as f32;
                prop_assert!((agg.get(i, c) - want).abs() < 1e-5);
            }
        }
    }

    /// Adam converges on random strongly-convex quadratics.
    #[test]
    fn adam_minimizes_random_quadratic(seed in 0u64..1000) {
        let mut r = Rng64::new(seed);
        let target = [r.range_f64(-3.0, 3.0) as f32, r.range_f64(-3.0, 3.0) as f32];
        let scale = [r.range_f64(0.5, 4.0), r.range_f64(0.5, 4.0)];
        let mut x = [0.0f32, 0.0];
        let mut opt = Adam::new(0.05);
        for _ in 0..1500 {
            opt.begin_step();
            let g = [
                (2.0 * scale[0] * (x[0] - target[0]) as f64) as f32,
                (2.0 * scale[1] * (x[1] - target[1]) as f64) as f32,
            ];
            opt.update(1, &mut x, &g);
        }
        prop_assert!((x[0] - target[0]).abs() < 0.05, "{x:?} vs {target:?}");
        prop_assert!((x[1] - target[1]).abs() < 0.05);
    }

    /// Linear regression predictions are exact on the training points of
    /// a noiseless linear function.
    #[test]
    fn linreg_interpolates_linear_data(seed in any::<u64>()) {
        let mut r = Rng64::new(seed);
        let w = [r.range_f64(-2.0, 2.0), r.range_f64(-2.0, 2.0)];
        let b = r.range_f64(-1.0, 1.0);
        let x: Vec<Vec<f64>> = (0..40)
            .map(|_| vec![r.range_f64(-5.0, 5.0), r.range_f64(-5.0, 5.0)])
            .collect();
        let y: Vec<f64> = x.iter().map(|v| w[0] * v[0] + w[1] * v[1] + b).collect();
        let m = LinearRegression::fit(&x, &y, 1e-10);
        for (xi, yi) in x.iter().zip(&y) {
            prop_assert!((m.predict(xi) - yi).abs() < 1e-6);
        }
    }

    /// A regression tree's predictions always lie within the training
    /// target range.
    #[test]
    fn tree_predictions_bounded_by_targets(seed in any::<u64>()) {
        let mut r = Rng64::new(seed);
        let x: Vec<Vec<f64>> = (0..60).map(|_| vec![r.range_f64(0.0, 1.0)]).collect();
        let y: Vec<f64> = (0..60).map(|_| r.range_f64(-10.0, 10.0)).collect();
        let lo = y.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let t = RegressionTree::fit(&x, &y, TreeConfig::default(), &mut r);
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            let p = t.predict(&[q]);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} outside [{lo},{hi}]");
        }
    }
}
