//! Closed-form ridge linear regression — the FLOPs and FLOPs+MAC baselines
//! (Appendix E: "we directly use the FLOPs feature or FLOPs+MAC features to
//! predict latency by linear regression") and the kernel-sum correction
//! applied to nn-Meter / TPU.

/// Ridge regression `y ~ X w + b`, solved by normal equations with
/// Gaussian elimination (feature counts here are tiny: 1-2 columns).
#[derive(Debug, Clone)]
pub struct LinearRegression {
    /// Coefficients, one per feature.
    pub coef: Vec<f64>,
    /// Intercept.
    pub intercept: f64,
}

/// Solve the symmetric system `A x = b` by Gaussian elimination with
/// partial pivoting. `A` is row-major `n x n`.
fn solve(mut a: Vec<f64>, mut b: Vec<f64>, n: usize) -> Vec<f64> {
    for col in 0..n {
        // Pivot.
        let mut piv = col;
        for r in (col + 1)..n {
            if a[r * n + col].abs() > a[piv * n + col].abs() {
                piv = r;
            }
        }
        if piv != col {
            for c in 0..n {
                a.swap(col * n + c, piv * n + c);
            }
            b.swap(col, piv);
        }
        let d = a[col * n + col];
        if d.abs() < 1e-12 {
            continue; // singular direction; ridge term normally prevents this
        }
        for r in (col + 1)..n {
            let f = a[r * n + col] / d;
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                a[r * n + c] -= f * a[col * n + c];
            }
            b[r] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for c in (col + 1)..n {
            acc -= a[col * n + c] * x[c];
        }
        let d = a[col * n + col];
        x[col] = if d.abs() < 1e-12 { 0.0 } else { acc / d };
    }
    x
}

impl LinearRegression {
    /// Fit on rows of features `x` (each `d` long) against targets `y`,
    /// with ridge strength `lambda` (not applied to the intercept).
    pub fn fit(x: &[Vec<f64>], y: &[f64], lambda: f64) -> Self {
        assert_eq!(x.len(), y.len(), "sample count mismatch");
        assert!(!x.is_empty(), "empty training set");
        let d = x[0].len();
        let n = d + 1; // + intercept column
                       // Normal equations over the augmented design matrix [X | 1].
        let mut xtx = vec![0.0f64; n * n];
        let mut xty = vec![0.0f64; n];
        for (row, &target) in x.iter().zip(y) {
            assert_eq!(row.len(), d, "ragged feature row");
            for i in 0..n {
                let xi = if i < d { row[i] } else { 1.0 };
                xty[i] += xi * target;
                for j in 0..n {
                    let xj = if j < d { row[j] } else { 1.0 };
                    xtx[i * n + j] += xi * xj;
                }
            }
        }
        for i in 0..d {
            xtx[i * n + i] += lambda;
        }
        let w = solve(xtx, xty, n);
        LinearRegression {
            coef: w[..d].to_vec(),
            intercept: w[d],
        }
    }

    /// Predict one sample.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.coef.len());
        self.intercept + self.coef.iter().zip(x).map(|(c, v)| c * v).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_ir::Rng64;

    #[test]
    fn recovers_exact_line() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| 3.0 * i as f64 + 7.0).collect();
        let m = LinearRegression::fit(&x, &y, 0.0);
        assert!((m.coef[0] - 3.0).abs() < 1e-8);
        assert!((m.intercept - 7.0).abs() < 1e-6);
    }

    #[test]
    fn recovers_two_features_with_noise() {
        let mut r = Rng64::new(40);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..500 {
            let a = r.range_f64(0.0, 10.0);
            let b = r.range_f64(0.0, 5.0);
            x.push(vec![a, b]);
            y.push(2.0 * a - 1.5 * b + 4.0 + r.normal(0.0, 0.01));
        }
        let m = LinearRegression::fit(&x, &y, 1e-6);
        assert!((m.coef[0] - 2.0).abs() < 0.01, "{:?}", m.coef);
        assert!((m.coef[1] + 1.5).abs() < 0.01);
        assert!((m.intercept - 4.0).abs() < 0.05);
    }

    #[test]
    fn ridge_shrinks_collinear_coefficients() {
        // Two identical features: OLS is ill-posed; ridge splits the weight.
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, i as f64]).collect();
        let y: Vec<f64> = (0..50).map(|i| 2.0 * i as f64).collect();
        let m = LinearRegression::fit(&x, &y, 1.0);
        assert!((m.coef[0] + m.coef[1] - 2.0).abs() < 0.05, "{:?}", m.coef);
        assert!((m.coef[0] - m.coef[1]).abs() < 1e-6);
    }

    #[test]
    fn constant_target_yields_intercept_only() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![5.0; 10];
        let m = LinearRegression::fit(&x, &y, 1e-9);
        assert!(m.coef[0].abs() < 1e-6);
        assert!((m.intercept - 5.0).abs() < 1e-6);
    }
}
