//! The GraphSAGE convolution of Eq. 4:
//!
//! ```text
//! F_v^i = L2( W1 . F_v^{i-1}  +  W2 . mean_{u in N(v)} F_u^{i-1} )
//! ```

use crate::csr::Csr;
use crate::layers::{
    l2_normalize_rows_backward_inplace, l2_normalize_rows_inplace, relu_backward_inplace,
    relu_inplace, Linear, LinearGrad,
};
use crate::tensor::{Activation, Matrix, Scratch};
use nnlqp_ir::Rng64;

/// One SAGEConv layer: self weight `w1`, neighbor weight `w2`. When
/// `relu` is set, the ReLU nonlinearity of GraphSAGE is applied between
/// the linear combination and the L2 normalization (Eq. 4 cites GraphSAGE,
/// whose layers are `norm(sigma(...))`).
#[derive(Debug, Clone, PartialEq)]
pub struct SageLayer {
    /// Transform of the node's own features.
    pub w1: Linear,
    /// Transform of the mean-aggregated neighborhood.
    pub w2: Linear,
    /// Apply ReLU before the L2 normalization.
    pub relu: bool,
}

impl SageLayer {
    /// JSON value form (checkpointing).
    pub fn to_value(&self) -> nnlqp_ir::json::Value {
        nnlqp_ir::json!({
            "w1": self.w1.to_value(),
            "w2": self.w2.to_value(),
            "relu": self.relu,
        })
    }

    /// Inverse of [`SageLayer::to_value`].
    pub fn from_value(v: &nnlqp_ir::json::Value) -> Result<Self, String> {
        Ok(SageLayer {
            w1: Linear::from_value(&v["w1"])?,
            w2: Linear::from_value(&v["w2"])?,
            relu: v["relu"].as_bool().ok_or("sage relu flag missing")?,
        })
    }
}

/// Activations cached by the forward pass for the backward pass. The
/// layer's input is not among them: it is the caller's (the sample's node
/// features, or the previous layer's [`SageCache::output`]) and is passed
/// to the backward again.
#[derive(Debug, Clone)]
pub struct SageCache {
    agg: Matrix,
    pre_act: Matrix,
    y_norm: Matrix,
    norms: Vec<f32>,
}

impl SageCache {
    /// The layer's output `[n, out]` — the next layer's input.
    pub fn output(&self) -> &Matrix {
        &self.y_norm
    }

    /// Return every buffer to the arena the forward drew them from.
    pub fn recycle(self, scratch: &mut Scratch) {
        scratch.put(self.agg);
        scratch.put(self.pre_act);
        scratch.put(self.y_norm);
        scratch.put_vec(self.norms);
    }
}

/// Gradients of a [`SageLayer`].
#[derive(Debug, Clone)]
pub struct SageGrad {
    /// Gradient of the self transform.
    pub d_w1: LinearGrad,
    /// Gradient of the neighbor transform.
    pub d_w2: LinearGrad,
}

impl SageGrad {
    /// Zero gradients matching a layer.
    pub fn zeros_like(l: &SageLayer) -> Self {
        SageGrad {
            d_w1: LinearGrad::zeros_like(&l.w1),
            d_w2: LinearGrad::zeros_like(&l.w2),
        }
    }

    /// Accumulate (batch summation).
    pub fn add_assign(&mut self, other: &SageGrad) {
        self.d_w1.add_assign(&other.d_w1);
        self.d_w2.add_assign(&other.d_w2);
    }

    /// Scale by a constant.
    pub fn scale(&mut self, s: f32) {
        self.d_w1.scale(s);
        self.d_w2.scale(s);
    }

    /// Return every buffer to an arena.
    pub fn recycle(self, scratch: &mut Scratch) {
        self.d_w1.recycle(scratch);
        self.d_w2.recycle(scratch);
    }
}

impl SageLayer {
    /// New layer `in_features -> out_features` with ReLU enabled.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng64) -> Self {
        SageLayer {
            w1: Linear::new(in_features, out_features, rng),
            w2: Linear::new(in_features, out_features, rng),
            relu: true,
        }
    }

    /// The linear half both forwards share: `(agg, pre)` with
    /// `agg = mean_agg(x)` and `pre = act((x W1 + b1) + (agg W2 + b2))` —
    /// the two paths computed separately, then summed, in that
    /// association, with both biases, the sum and the activation in one
    /// sweep after the two GEMMs.
    fn pre_activation(
        &self,
        x: &Matrix,
        adj: &Csr,
        act: Activation,
        scratch: &mut Scratch,
    ) -> (Matrix, Matrix) {
        let mut agg = scratch.take_overwritten(x.rows, x.cols);
        adj.mean_agg_into(x, &mut agg);
        let mut pre = scratch.take_overwritten(x.rows, self.w1.w.cols);
        x.matmul_into(&self.w1.w, &mut pre, scratch.pack_buf());
        let mut y2 = scratch.take_overwritten(x.rows, self.w2.w.cols);
        agg.matmul_into(&self.w2.w, &mut y2, scratch.pack_buf());
        pre.add_biased(&self.w1.b, &y2, &self.w2.b, act);
        scratch.put(y2);
        (agg, pre)
    }

    /// Training forward over all nodes at once, `x: [n, in]` -> `[n, out]`
    /// ([`SageCache::output`]), every intermediate drawn from `scratch`
    /// and kept in the cache until [`SageCache::recycle`].
    pub fn forward(&self, x: &Matrix, adj: &Csr, scratch: &mut Scratch) -> SageCache {
        let (agg, pre_act) = self.pre_activation(x, adj, Activation::Identity, scratch);
        let mut y_norm = scratch.take(pre_act.rows, pre_act.cols);
        y_norm.data.copy_from_slice(&pre_act.data);
        if self.relu {
            relu_inplace(&mut y_norm);
        }
        let mut norms = scratch.take_vec(y_norm.rows);
        l2_normalize_rows_inplace(&mut y_norm, Some(&mut norms));
        SageCache {
            agg,
            pre_act,
            y_norm,
            norms,
        }
    }

    /// Inference-only forward: [`SageLayer::forward`]'s arithmetic, bit for
    /// bit, without the backward cache.
    pub fn forward_eval(&self, x: &Matrix, adj: &Csr, scratch: &mut Scratch) -> Matrix {
        let act = if self.relu {
            Activation::Relu
        } else {
            Activation::Identity
        };
        let (agg, mut out) = self.pre_activation(x, adj, act, scratch);
        scratch.put(agg);
        l2_normalize_rows_inplace(&mut out, None);
        out
    }

    /// The parameter half of the backward pass: the upstream gradient `d`
    /// goes back, in place, through the normalization and the ReLU to the
    /// pre-activation gradient `d_pre`, and from there to both weight
    /// gradients. `x` is the input the forward saw. Returns
    /// `(d_pre, grads)`; [`SageLayer::input_grad`] continues from `d_pre`.
    pub fn param_grads(
        &self,
        x: &Matrix,
        cache: &SageCache,
        mut d: Matrix,
        scratch: &mut Scratch,
    ) -> (Matrix, SageGrad) {
        l2_normalize_rows_backward_inplace(&cache.y_norm, &cache.norms, &mut d);
        if self.relu {
            relu_backward_inplace(&cache.pre_act, &mut d);
        }
        // Both paths add the same bias gradient, `col_sums(d)`: sum once.
        let d_w1 = Linear::param_grad(x, &d, scratch);
        let mut dw = scratch.take(cache.agg.cols, d.cols);
        cache.agg.t_matmul_into(&d, &mut dw);
        let mut db = scratch.take_vec(d.cols);
        db.copy_from_slice(&d_w1.db);
        let d_w2 = LinearGrad { dw, db };
        (d, SageGrad { d_w1, d_w2 })
    }

    /// The input half of the backward pass: `d_pre` back through the two
    /// linear paths and the aggregation. The first layer of a stack, whose
    /// input is data, skips it.
    pub fn input_grad(&self, d_pre: &Matrix, adj: &Csr, scratch: &mut Scratch) -> Matrix {
        let mut path = scratch.take(d_pre.rows, self.w2.w.rows);
        self.w2.input_grad_into(d_pre, &mut path);
        let mut dx = scratch.take(path.rows, path.cols);
        adj.mean_agg_backward_into(&path, &mut dx);
        self.w1.input_grad_into(d_pre, &mut path);
        dx.add_assign(&path);
        scratch.put(path);
        dx
    }

    /// The whole backward, freshly allocated: `(dx, grads)` from the input
    /// `x` the forward saw, its cache and the upstream gradient `dy`.
    pub fn backward(
        &self,
        x: &Matrix,
        cache: &SageCache,
        dy: &Matrix,
        adj: &Csr,
    ) -> (Matrix, SageGrad) {
        let mut scratch = Scratch::new();
        let (d_pre, grads) = self.param_grads(x, cache, dy.clone(), &mut scratch);
        (self.input_grad(&d_pre, adj, &mut scratch), grads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SageLayer, Matrix, Csr) {
        let mut rng = Rng64::new(30);
        let layer = SageLayer::new(4, 3, &mut rng);
        let x = Matrix::from_fn(5, 4, |_, _| rng.range_f64(-1.0, 1.0) as f32);
        let adj = Csr::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]);
        (layer, x, adj)
    }

    #[test]
    fn forward_shape_and_unit_rows() {
        let (mut layer, x, adj) = setup();
        layer.relu = false; // with ReLU an all-negative row collapses to zero
        let cache = layer.forward(&x, &adj, &mut Scratch::new());
        let y = cache.output();
        assert_eq!((y.rows, y.cols), (5, 3));
        for i in 0..y.rows {
            let n: f32 = y.row(i).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn relu_rows_are_unit_or_zero() {
        let (layer, x, adj) = setup();
        assert!(layer.relu);
        let cache = layer.forward(&x, &adj, &mut Scratch::new());
        let y = cache.output();
        for i in 0..y.rows {
            let n: f32 = y.row(i).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4 || n < 1e-4, "row {i} norm {n}");
            assert!(y.row(i).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn forward_eval_matches_forward_bitwise() {
        let (layer, x, adj) = setup();
        let mut scratch = Scratch::new();
        let want = layer.forward(&x, &adj, &mut Scratch::new());
        let got = layer.forward_eval(&x, &adj, &mut scratch);
        assert_eq!(&got, want.output());
        // Second pass through the (now warm) scratch arena is identical.
        scratch.put(got);
        let again = layer.forward_eval(&x, &adj, &mut scratch);
        assert_eq!(&again, want.output());
        // And without the ReLU.
        let mut no_relu = layer;
        no_relu.relu = false;
        let want2 = no_relu.forward(&x, &adj, &mut Scratch::new());
        assert_eq!(
            &no_relu.forward_eval(&x, &adj, &mut scratch),
            want2.output()
        );
    }

    #[test]
    fn gradcheck_weights_and_input() {
        let (layer, x, adj) = setup();
        // Asymmetric scalar loss: sum(y * coeff).
        let mut rng = Rng64::new(31);
        let coeff = Matrix::from_fn(5, 3, |_, _| rng.range_f64(-1.0, 1.0) as f32);
        let loss = |l: &SageLayer, xx: &Matrix| -> f64 {
            let cache = l.forward(xx, &adj, &mut Scratch::new());
            (cache.output().data)
                .iter()
                .zip(&coeff.data)
                .map(|(&a, &c)| (a * c) as f64)
                .sum()
        };
        let cache = layer.forward(&x, &adj, &mut Scratch::new());
        let (dx, g) = layer.backward(&x, &cache, &coeff, &adj);

        let h = 1e-3f32;
        // w1, w2 spot checks.
        for &(i, j) in &[(0usize, 0usize), (3, 2)] {
            for which in 0..2 {
                let mut lp = layer.clone();
                let mut lm = layer.clone();
                let (wp, wm) = if which == 0 {
                    (&mut lp.w1.w, &mut lm.w1.w)
                } else {
                    (&mut lp.w2.w, &mut lm.w2.w)
                };
                let base = wp.get(i, j);
                wp.set(i, j, base + h);
                wm.set(i, j, base - h);
                let num = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h as f64);
                let analytic = if which == 0 {
                    g.d_w1.dw.get(i, j)
                } else {
                    g.d_w2.dw.get(i, j)
                } as f64;
                assert!(
                    (num - analytic).abs() < 2e-2,
                    "w{} [{i},{j}]: num {num} vs {analytic}",
                    which + 1
                );
            }
        }
        // Input gradient spot checks (flows through both paths and the
        // neighborhood aggregation).
        for &(i, j) in &[(0usize, 0usize), (2, 3), (4, 1)] {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp.set(i, j, x.get(i, j) + h);
            xm.set(i, j, x.get(i, j) - h);
            let num = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * h as f64);
            assert!(
                (num - dx.get(i, j) as f64).abs() < 2e-2,
                "dx[{i},{j}]: num {num} vs {}",
                dx.get(i, j)
            );
        }
    }

    #[test]
    fn grad_accumulation_api() {
        let (layer, x, adj) = setup();
        let cache = layer.forward(&x, &adj, &mut Scratch::new());
        let dy = Matrix::from_fn(5, 3, |_, _| 1.0);
        let (_, g1) = layer.backward(&x, &cache, &dy, &adj);
        let mut acc = SageGrad::zeros_like(&layer);
        acc.add_assign(&g1);
        acc.add_assign(&g1);
        acc.scale(0.5);
        for (a, b) in acc.d_w1.dw.data.iter().zip(&g1.d_w1.dw.data) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
