//! Bootstrap-aggregated random forest regression — the estimator class the
//! nn-Meter official project uses for kernel latency (Appendix E).

use crate::tree::{RegressionTree, TreeConfig};
use nnlqp_ir::Rng64;

/// Forest parameters.
#[derive(Debug, Clone, Copy)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growth parameters.
    pub tree: TreeConfig,
    /// Bootstrap sample fraction (1.0 = classic bootstrap, with
    /// replacement).
    pub sample_frac: f64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            n_trees: 60,
            tree: TreeConfig {
                max_depth: 14,
                min_samples_split: 4,
                min_samples_leaf: 2,
                max_features: None, // set from data dimension at fit time
            },
            sample_frac: 1.0,
        }
    }
}

/// A fitted forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Fit `cfg.n_trees` trees on bootstrap resamples of `(x, y)`.
    pub fn fit(x: &[Vec<f64>], y: &[f64], cfg: RandomForestConfig, seed: u64) -> Self {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty(), "empty training set");
        let d = x[0].len();
        let mut tree_cfg = cfg.tree;
        if tree_cfg.max_features.is_none() {
            // sqrt-ish heuristic, at least 1, at most d.
            tree_cfg.max_features =
                Some(((d as f64).sqrt().ceil() as usize).clamp(1, d).max(d / 3));
        }
        let n = x.len();
        let take = ((n as f64) * cfg.sample_frac).round().max(1.0) as usize;
        let trees: Vec<RegressionTree> = (0..cfg.n_trees)
            .map(|t| {
                let mut rng = Rng64::new(seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                // Bootstrap with replacement.
                let mut bx = Vec::with_capacity(take);
                let mut by = Vec::with_capacity(take);
                for _ in 0..take {
                    let i = rng.below(n);
                    bx.push(x[i].clone());
                    by.push(y[i]);
                }
                RegressionTree::fit(&bx, &by, tree_cfg, &mut rng)
            })
            .collect();
        RandomForest { trees }
    }

    /// Mean prediction over all trees.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict(x)).sum::<f64>() / self.trees.len() as f64
    }

    /// Predict a batch.
    pub fn predict_many(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// True if the forest has no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_poly(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut r = Rng64::new(seed);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![r.range_f64(-2.0, 2.0), r.range_f64(-2.0, 2.0)])
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|v| v[0] * v[0] + 0.5 * v[1] + r.normal(0.0, 0.05))
            .collect();
        (x, y)
    }

    #[test]
    fn fits_nonlinear_function() {
        let (x, y) = noisy_poly(800, 60);
        let f = RandomForest::fit(&x, &y, RandomForestConfig::default(), 1);
        let (xt, yt) = noisy_poly(100, 61);
        let mse: f64 = xt
            .iter()
            .zip(&yt)
            .map(|(xi, yi)| (f.predict(xi) - yi).powi(2))
            .sum::<f64>()
            / 100.0;
        assert!(mse < 0.1, "test mse {mse}");
    }

    #[test]
    fn forest_beats_single_tree_on_noise() {
        let (x, y) = noisy_poly(400, 62);
        let (xt, yt) = noisy_poly(200, 63);
        let mut r = Rng64::new(2);
        let tree = crate::tree::RegressionTree::fit(&x, &y, TreeConfig::default(), &mut r);
        let forest = RandomForest::fit(&x, &y, RandomForestConfig::default(), 3);
        let err = |f: &dyn Fn(&[f64]) -> f64| {
            xt.iter()
                .zip(&yt)
                .map(|(xi, yi)| (f(xi) - yi).powi(2))
                .sum::<f64>()
                / xt.len() as f64
        };
        let te = err(&|x| tree.predict(x));
        let fe = err(&|x| forest.predict(x));
        assert!(fe <= te * 1.05, "forest {fe} vs tree {te}");
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = noisy_poly(200, 64);
        let a = RandomForest::fit(&x, &y, RandomForestConfig::default(), 9);
        let b = RandomForest::fit(&x, &y, RandomForestConfig::default(), 9);
        let p = vec![0.3, -1.0];
        assert_eq!(a.predict(&p), b.predict(&p));
    }

    #[test]
    fn predict_many_matches_predict() {
        let (x, y) = noisy_poly(100, 65);
        let f = RandomForest::fit(&x, &y, RandomForestConfig::default(), 4);
        let batch = f.predict_many(&x[..5]);
        for (b, xi) in batch.iter().zip(&x[..5]) {
            assert_eq!(*b, f.predict(xi));
        }
    }
}
