//! Evaluation metrics (Appendix C) plus Kendall's tau for the NAS study.
//!
//! The MAPE / Acc(δ) formulas themselves live in `nnlqp-obs` and are
//! re-exported here: the serving layer's online shadow evaluator
//! (`nnlqp_obs::QualityMonitor`) and this crate's offline training/eval code
//! must be the *same* functions so that online and offline quality
//! numbers agree bitwise on the same pairs (pinned by
//! `tests/quality_monitor.rs` and the parity test below).

pub use nnlqp_obs::{acc_at, mape};

/// Kendall's tau-a rank correlation between two paired samples.
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    assert!(n >= 2, "kendall tau needs >= 2 samples");
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let da = a[i] - a[j];
            let db = b[i] - b[j];
            let s = da * db;
            if s > 0.0 {
                concordant += 1;
            } else if s < 0.0 {
                discordant += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    (concordant - discordant) as f64 / pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_formula_parity_with_obs() {
        // `mape`/`acc_at` here must be the exact `nnlqp-obs` functions —
        // re-exported, not reimplemented — so the online shadow evaluator
        // and offline evaluation can never drift apart.
        let p = [110.0, 95.5, 130.25];
        let t = [100.0, 100.0, 120.0];
        assert_eq!(mape(&p, &t).to_bits(), nnlqp_obs::mape(&p, &t).to_bits());
        assert_eq!(
            acc_at(&p, &t, 0.10).to_bits(),
            nnlqp_obs::acc_at(&p, &t, 0.10).to_bits()
        );
    }

    #[test]
    fn mape_known_values() {
        let m = mape(&[110.0, 90.0], &[100.0, 100.0]);
        assert!((m - 10.0).abs() < 1e-9);
        assert_eq!(mape(&[5.0], &[5.0]), 0.0);
    }

    #[test]
    fn acc_boundary_inclusive() {
        // Exactly 10% error counts as within Acc(10%).
        let a = acc_at(&[110.0, 130.0], &[100.0, 100.0], 0.10);
        assert!((a - 50.0).abs() < 1e-9);
    }

    #[test]
    fn acc_perfect_and_zero() {
        assert_eq!(acc_at(&[1.0, 2.0], &[1.0, 2.0], 0.1), 100.0);
        assert_eq!(acc_at(&[2.0, 4.0], &[1.0, 2.0], 0.1), 0.0);
    }

    #[test]
    fn kendall_perfect_and_inverted() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((kendall_tau(&a, &b) - 1.0).abs() < 1e-12);
        let c = [40.0, 30.0, 20.0, 10.0];
        assert!((kendall_tau(&a, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_uncorrelated_near_zero() {
        use nnlqp_ir::Rng64;
        let mut r = Rng64::new(70);
        let a: Vec<f64> = (0..500).map(|_| r.uniform()).collect();
        let b: Vec<f64> = (0..500).map(|_| r.uniform()).collect();
        assert!(kendall_tau(&a, &b).abs() < 0.08);
    }

    #[test]
    fn kendall_ties_reduce_magnitude() {
        let a = [1.0, 1.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0, 4.0];
        let t = kendall_tau(&a, &b);
        assert!(t > 0.0 && t < 1.0, "tau {t}");
    }
}
