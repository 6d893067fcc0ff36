//! Purely-functional layers with hand-derived backward passes.
//!
//! Layers hold parameters only; activations needed by the backward pass are
//! returned to (and passed back by) the caller, so forward/backward borrow
//! the model immutably and per-sample gradients are summed afterwards, in
//! sample order. The element-wise and row-wise passes work in place (or
//! `_into` a caller's buffer) so a training step can run out of one
//! [`Scratch`] arena.

use crate::simd;
use crate::tensor::{Activation, Matrix, Scratch};
use nnlqp_ir::Rng64;

/// Fully-connected layer `y = x W + b` with `W: [in, out]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    /// Weight matrix, `[in_features, out_features]`.
    pub w: Matrix,
    /// Bias, `[out_features]`.
    pub b: Vec<f32>,
}

impl Linear {
    /// JSON value form (checkpointing).
    pub fn to_value(&self) -> nnlqp_ir::json::Value {
        nnlqp_ir::json!({ "w": self.w.to_value(), "b": self.b })
    }

    /// Inverse of [`Linear::to_value`]. A bias that is not one entry per
    /// output column is an error.
    pub fn from_value(v: &nnlqp_ir::json::Value) -> Result<Self, String> {
        let w = Matrix::from_value(&v["w"])?;
        let b = v["b"]
            .as_array()
            .and_then(|a| {
                a.iter()
                    .map(|x| x.as_f64().map(|f| f as f32))
                    .collect::<Option<Vec<f32>>>()
            })
            .ok_or("linear bias missing")?;
        if b.len() != w.cols {
            return Err(format!(
                "linear bias b has {} entries for {} output columns",
                b.len(),
                w.cols
            ));
        }
        Ok(Linear { w, b })
    }
}

/// Gradients of a [`Linear`] layer.
#[derive(Debug, Clone)]
pub struct LinearGrad {
    /// dL/dW.
    pub dw: Matrix,
    /// dL/db.
    pub db: Vec<f32>,
}

impl LinearGrad {
    /// Zero gradients matching a layer.
    pub fn zeros_like(l: &Linear) -> Self {
        LinearGrad {
            dw: Matrix::zeros(l.w.rows, l.w.cols),
            db: vec![0.0; l.b.len()],
        }
    }

    /// Accumulate another gradient (batch summation).
    pub fn add_assign(&mut self, other: &LinearGrad) {
        self.dw.add_assign(&other.dw);
        for (a, b) in self.db.iter_mut().zip(&other.db) {
            *a += b;
        }
    }

    /// Scale (e.g. by 1/batch).
    pub fn scale(&mut self, s: f32) {
        self.dw.scale(s);
        for a in &mut self.db {
            *a *= s;
        }
    }

    /// Return both buffers to an arena.
    pub fn recycle(self, scratch: &mut Scratch) {
        scratch.put(self.dw);
        scratch.put_vec(self.db);
    }
}

impl Linear {
    /// Kaiming-initialized layer.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng64) -> Self {
        Linear {
            w: Matrix::kaiming(in_features, out_features, in_features, rng),
            b: vec![0.0; out_features],
        }
    }

    /// Forward, `out = act(x W + b)`, with no intermediate matrices: the
    /// GEMM writes `out` in place (via `pack` for panel reuse) and the
    /// bias + activation run as one epilogue sweep. Arithmetic is
    /// bit-identical to a plain `x.matmul(W)`, `add_row_vector(b)`, then
    /// `relu_inplace`.
    pub fn forward_into(&self, x: &Matrix, act: Activation, out: &mut Matrix, pack: &mut Vec<f32>) {
        x.matmul_into(&self.w, out, pack);
        out.bias_act(&self.b, act);
    }

    /// The parameter half of the backward pass: gradients of `W` and `b`
    /// from the forward input `x` and the upstream gradient `dy`, in
    /// buffers drawn from `scratch` ([`LinearGrad::recycle`] returns them).
    pub fn param_grad(x: &Matrix, dy: &Matrix, scratch: &mut Scratch) -> LinearGrad {
        let mut dw = scratch.take(x.cols, dy.cols); // [in, out]
        x.t_matmul_into(dy, &mut dw);
        let mut db = scratch.take_vec(dy.cols);
        dy.col_sums_into(&mut db);
        LinearGrad { dw, db }
    }

    /// The input half of the backward pass: `dx = dy W^T`, `[rows, in]`,
    /// every element of `dx` overwritten. A layer whose input is data
    /// (nothing upstream to train) skips it.
    pub fn input_grad_into(&self, dy: &Matrix, dx: &mut Matrix) {
        dy.matmul_t_into(&self.w, dx);
    }
}

/// ReLU in place. The SIMD backend masks with a `v < 0.0` compare, so
/// `-0.0` survives exactly as in the scalar loop.
pub fn relu_inplace(x: &mut Matrix) {
    simd::relu_slice(simd::kernel(), &mut x.data);
}

/// ReLU backward in place on the upstream gradient `d`: zeroed wherever
/// the forward *input* `x` was `<= 0`.
pub fn relu_backward_inplace(x: &Matrix, d: &mut Matrix) {
    assert_eq!((x.rows, x.cols), (d.rows, d.cols));
    simd::relu_backward(simd::kernel(), &x.data, &mut d.data);
}

/// Inverted dropout: at train time zeroes activations with probability `p`
/// and rescales survivors by `1/(1-p)`; identity at eval time.
#[derive(Debug, Clone, Copy)]
pub struct Dropout {
    /// Drop probability.
    pub p: f64,
}

impl Dropout {
    /// Forward at train time, in place; returns the keep mask — pass it to
    /// [`Dropout::backward`].
    pub fn forward_train(&self, x: &mut Matrix, rng: &mut Rng64) -> Vec<bool> {
        let keep = 1.0 - self.p;
        let scale = (1.0 / keep) as f32;
        let mut mask = Vec::with_capacity(x.data.len());
        for v in &mut x.data {
            let k = rng.bernoulli(keep);
            mask.push(k);
            *v = if k { *v * scale } else { 0.0 };
        }
        mask
    }

    /// Forward at eval time (identity).
    pub fn forward_eval(&self, x: &Matrix) -> Matrix {
        x.clone()
    }

    /// Backward through the stored mask, in place on the upstream
    /// gradient.
    pub fn backward(&self, mask: &[bool], d: &mut Matrix) {
        let scale = (1.0 / (1.0 - self.p)) as f32;
        for (d, &k) in d.data.iter_mut().zip(mask) {
            *d = if k { *d * scale } else { 0.0 };
        }
    }
}

/// Row-wise L2 normalization in place, `x_i /= max(||x_i||, eps)` (the
/// `L2` of Eq. 4). The training forward passes `norms` (one slot per row)
/// and hands them, with the normalized rows, to
/// [`l2_normalize_rows_backward_inplace`]; inference passes `None`.
pub fn l2_normalize_rows_inplace(x: &mut Matrix, norms: Option<&mut [f32]>) {
    assert_eq!(x.rows.checked_mul(x.cols), Some(x.data.len()));
    simd::l2_normalize_rows(simd::kernel(), &mut x.data, x.cols, norms);
}

/// Backward of row-wise L2 normalization, in place on the upstream
/// gradient: `d_i = (d_i - y_i (y_i . d_i)) / n_i`.
pub fn l2_normalize_rows_backward_inplace(y: &Matrix, norms: &[f32], d: &mut Matrix) {
    assert_eq!((y.rows, y.cols), (d.rows, d.cols));
    simd::l2_normalize_rows_backward(simd::kernel(), &y.data, norms, &mut d.data, y.cols);
}

/// Mean-squared-error loss of one prediction (a head's scalar output);
/// returns `(loss, dloss/dpred)`.
pub fn mse_loss(pred: f32, target: f32) -> (f64, f32) {
    let e = (pred - target) as f64;
    (e * e, (2.0 * e) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite difference of a scalar loss wrt one parameter.
    fn numeric_grad(f: &mut dyn FnMut(f32) -> f64, x0: f32) -> f64 {
        let h = 1e-3f32;
        (f(x0 + h) - f(x0 - h)) / (2.0 * h as f64)
    }

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut r = Rng64::new(seed);
        Matrix::from_fn(rows, cols, |_, _| r.range_f64(-1.0, 1.0) as f32)
    }

    /// Scalar loss = sum(y) lets us check every gradient at once: the
    /// upstream gradient is all-ones.
    fn ones(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| 1.0)
    }

    /// `x W + b`, unfused: the reference the fused entry point matches.
    fn forward(l: &Linear, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&l.w);
        y.add_row_vector(&l.b);
        y
    }

    #[test]
    fn linear_forward_known() {
        let l = Linear {
            w: Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]),
            b: vec![0.5, -0.5],
        };
        let x = Matrix::from_rows(1, 2, vec![1.0, 1.0]);
        let mut y = Matrix::zeros(1, 2);
        l.forward_into(&x, Activation::Identity, &mut y, &mut Vec::new());
        assert_eq!(y.data, vec![4.5, 5.5]);
    }

    #[test]
    fn linear_gradcheck() {
        let mut rng = Rng64::new(10);
        let l = Linear::new(4, 3, &mut rng);
        let x = rand_mat(5, 4, 11);
        let dy = ones(5, 3);
        let mut dx = Matrix::zeros(5, 4);
        l.input_grad_into(&dy, &mut dx);
        let g = Linear::param_grad(&x, &dy, &mut Scratch::new());

        // Weight gradient check at a few positions.
        for &(i, j) in &[(0usize, 0usize), (3, 2), (1, 1)] {
            let mut f = |w: f32| {
                let mut l2 = l.clone();
                l2.w.set(i, j, w);
                forward(&l2, &x).data.iter().map(|&v| v as f64).sum()
            };
            let num = numeric_grad(&mut f, l.w.get(i, j));
            assert!(
                (num - g.dw.get(i, j) as f64).abs() < 1e-2,
                "dw[{i},{j}] num {num} vs {}",
                g.dw.get(i, j)
            );
        }
        // Bias gradient: sum over rows of dy = 5.
        assert!(g.db.iter().all(|&b| (b - 5.0).abs() < 1e-5));
        // Input gradient check.
        for &(i, j) in &[(0usize, 0usize), (4, 3)] {
            let mut f = |v: f32| {
                let mut x2 = x.clone();
                x2.set(i, j, v);
                forward(&l, &x2).data.iter().map(|&v| v as f64).sum()
            };
            let num = numeric_grad(&mut f, x.get(i, j));
            assert!((num - dx.get(i, j) as f64).abs() < 1e-2);
        }
    }

    #[test]
    fn fused_forward_matches_unfused_bitwise() {
        let mut rng = Rng64::new(17);
        let l = Linear::new(6, 5, &mut rng);
        let x = rand_mat(7, 6, 18);
        let mut unfused = forward(&l, &x);
        relu_inplace(&mut unfused);
        let mut pack = Vec::new();
        let mut out = Matrix::zeros(7, 5);
        l.forward_into(&x, Activation::Relu, &mut out, &mut pack);
        assert_eq!(out, unfused);
        l.forward_into(&x, Activation::Identity, &mut out, &mut pack);
        assert_eq!(out, forward(&l, &x));
    }

    /// Normalized copy of `x` and the norms the backward pass needs.
    fn l2_normalized(x: &Matrix) -> (Matrix, Vec<f32>) {
        let mut y = x.clone();
        let mut norms = vec![0.0; x.rows];
        l2_normalize_rows_inplace(&mut y, Some(&mut norms));
        (y, norms)
    }

    #[test]
    fn recording_the_norms_does_not_change_the_rows() {
        let x = rand_mat(5, 4, 19);
        let (with_norms, norms) = l2_normalized(&x);
        let mut without = x.clone();
        l2_normalize_rows_inplace(&mut without, None);
        assert_eq!(with_norms, without);
        for (i, n) in norms.into_iter().enumerate() {
            assert_eq!(n, x.row(i).iter().map(|v| v * v).sum::<f32>().sqrt());
        }
    }

    #[test]
    fn relu_gradcheck() {
        let x = Matrix::from_rows(1, 4, vec![-1.0, 2.0, -0.5, 3.0]);
        let mut dx = ones(1, 4);
        relu_backward_inplace(&x, &mut dx);
        assert_eq!(dx.data, vec![0.0, 1.0, 0.0, 1.0]);
        let mut y = x;
        relu_inplace(&mut y);
        assert_eq!(y.data, vec![0.0, 2.0, 0.0, 3.0]);
    }

    #[test]
    fn l2_norm_rows_unit_length() {
        let x = rand_mat(6, 5, 12);
        let (y, _) = l2_normalized(&x);
        for i in 0..y.rows {
            let n: f32 = y.row(i).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn l2_norm_gradcheck() {
        let x = rand_mat(3, 4, 13);
        let (y, norms) = l2_normalized(&x);
        // Loss = sum of y * coefficient matrix to make gradients asymmetric.
        let coeff = rand_mat(3, 4, 14);
        let mut dx = coeff.clone();
        l2_normalize_rows_backward_inplace(&y, &norms, &mut dx);
        for &(i, j) in &[(0usize, 0usize), (2, 3), (1, 2)] {
            let mut f = |v: f32| {
                let mut x2 = x.clone();
                x2.set(i, j, v);
                let (y2, _) = l2_normalized(&x2);
                y2.data
                    .iter()
                    .zip(&coeff.data)
                    .map(|(&a, &c)| (a * c) as f64)
                    .sum()
            };
            let num = numeric_grad(&mut f, x.get(i, j));
            assert!(
                (num - dx.get(i, j) as f64).abs() < 1e-2,
                "dx[{i},{j}] num {num} vs {}",
                dx.get(i, j)
            );
        }
    }

    #[test]
    fn dropout_train_scales_survivors() {
        let mut rng = Rng64::new(15);
        let d = Dropout { p: 0.5 };
        let mut y = ones(20, 20);
        let mask = d.forward_train(&mut y, &mut rng);
        let kept = mask.iter().filter(|&&k| k).count();
        assert!(kept > 100 && kept < 300, "kept {kept}");
        for (v, &k) in y.data.iter().zip(&mask) {
            if k {
                assert!((*v - 2.0).abs() < 1e-6);
            } else {
                assert_eq!(*v, 0.0);
            }
        }
        // Backward routes gradient only through kept units.
        let mut dx = ones(20, 20);
        d.backward(&mask, &mut dx);
        for (v, &k) in dx.data.iter().zip(&mask) {
            assert_eq!(*v, if k { 2.0 } else { 0.0 });
        }
    }

    #[test]
    fn dropout_eval_is_identity() {
        let d = Dropout { p: 0.5 };
        let x = rand_mat(4, 4, 16);
        assert_eq!(d.forward_eval(&x), x);
    }

    #[test]
    fn mse_loss_and_grad() {
        assert_eq!(mse_loss(2.0, 1.0), (1.0, 2.0));
        assert_eq!(mse_loss(0.5, 2.0), (2.25, -3.0));
        assert_eq!(mse_loss(0.0, 0.0), (0.0, 0.0));
    }
}
