//! Multi-head self-attention over node-feature tokens with an additive
//! attention bias — the transformer-encoder counterpart of the SAGE
//! convolution in `sage.rs` (NAR-Former-V2 direction):
//!
//! ```text
//! A_h = softmax( (X Wq)_h (X Wk)_h^T / sqrt(d_h)  +  B )
//! F_v = L2( W1 . X  +  Wo . concat_h(A_h (X Wv)_h) )
//! ```
//!
//! `B` is an adjacency-derived bias ([`attention_bias`]): zero on the
//! diagonal and on graph edges, a large negative constant elsewhere, so
//! attention stays global but strongly prefers structural neighbors. The
//! self path `W1 . X`, the optional ReLU and the row L2-normalization
//! mirror the SAGE layer exactly, which keeps the two encoders
//! interchangeable behind the same embed/head split.

use crate::csr::Csr;
use crate::layers::{
    l2_normalize_rows_backward_inplace, l2_normalize_rows_inplace, relu_backward_inplace,
    relu_inplace, Linear, LinearGrad,
};
use crate::tensor::{Activation, Matrix, Scratch};
use nnlqp_ir::Rng64;

/// Additive bias for non-edge, non-diagonal attention scores. Finite (not
/// `-inf`) so every pair keeps a gradient path, but large enough that
/// post-softmax mass concentrates on the graph neighborhood.
pub const ATTN_NONEDGE_BIAS: f32 = -8.0;

/// Build the `[n, n]` attention-bias matrix from an adjacency: `0` for
/// self-pairs and graph edges, [`ATTN_NONEDGE_BIAS`] everywhere else.
pub fn attention_bias(adj: &Csr) -> Matrix {
    let n = adj.n();
    let mut b = Matrix::from_fn(n, n, |i, j| if i == j { 0.0 } else { ATTN_NONEDGE_BIAS });
    for i in 0..n {
        for &j in adj.neighbors(i) {
            b.set(i, j as usize, 0.0);
        }
    }
    b
}

/// One attention block: query/key/value/output projections, a parallel
/// self transform `w1` (the SAGE `W1` analogue), optional ReLU, row L2
/// normalization. All projections are square (`d_model -> d_model`).
#[derive(Debug, Clone, PartialEq)]
pub struct AttnLayer {
    /// Query projection.
    pub wq: Linear,
    /// Key projection.
    pub wk: Linear,
    /// Value projection.
    pub wv: Linear,
    /// Output projection over the concatenated heads.
    pub wo: Linear,
    /// Self transform, added to the attention output.
    pub w1: Linear,
    /// Attention heads (`d_model` must divide evenly).
    pub n_heads: usize,
    /// Apply ReLU before the L2 normalization.
    pub relu: bool,
}

/// Activations cached by the forward pass for the backward pass.
#[derive(Debug, Clone)]
pub struct AttnCache {
    x: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Post-softmax attention, one `[n, n]` matrix per head.
    attn: Vec<Matrix>,
    o: Matrix,
    pre_act: Matrix,
    y_norm: Matrix,
    norms: Vec<f32>,
}

/// Gradients of an [`AttnLayer`].
#[derive(Debug, Clone)]
pub struct AttnGrad {
    /// Gradient of the query projection.
    pub d_wq: LinearGrad,
    /// Gradient of the key projection.
    pub d_wk: LinearGrad,
    /// Gradient of the value projection.
    pub d_wv: LinearGrad,
    /// Gradient of the output projection.
    pub d_wo: LinearGrad,
    /// Gradient of the self transform.
    pub d_w1: LinearGrad,
}

impl AttnGrad {
    /// Zero gradients matching a layer.
    pub fn zeros_like(l: &AttnLayer) -> Self {
        AttnGrad {
            d_wq: LinearGrad::zeros_like(&l.wq),
            d_wk: LinearGrad::zeros_like(&l.wk),
            d_wv: LinearGrad::zeros_like(&l.wv),
            d_wo: LinearGrad::zeros_like(&l.wo),
            d_w1: LinearGrad::zeros_like(&l.w1),
        }
    }

    /// Accumulate (batch summation).
    pub fn add_assign(&mut self, other: &AttnGrad) {
        self.d_wq.add_assign(&other.d_wq);
        self.d_wk.add_assign(&other.d_wk);
        self.d_wv.add_assign(&other.d_wv);
        self.d_wo.add_assign(&other.d_wo);
        self.d_w1.add_assign(&other.d_w1);
    }

    /// Scale by a constant.
    pub fn scale(&mut self, s: f32) {
        self.d_wq.scale(s);
        self.d_wk.scale(s);
        self.d_wv.scale(s);
        self.d_wo.scale(s);
        self.d_w1.scale(s);
    }
}

/// Copy columns `[start, start+width)` out of `m`.
fn col_block(m: &Matrix, start: usize, width: usize) -> Matrix {
    Matrix::from_fn(m.rows, width, |i, j| m.get(i, start + j))
}

/// [`col_block`] into a caller-provided (scratch) matrix — the inference
/// path extracts every head through reused buffers instead of allocating
/// a fresh matrix per head per layer per graph.
fn col_block_into(m: &Matrix, start: usize, dst: &mut Matrix) {
    debug_assert_eq!(dst.rows, m.rows);
    for i in 0..m.rows {
        let src = &m.row(i)[start..start + dst.cols];
        dst.row_mut(i).copy_from_slice(src);
    }
}

/// Write `src` into `dst` at column offset `start`.
fn set_col_block(dst: &mut Matrix, start: usize, src: &Matrix) {
    for i in 0..src.rows {
        for j in 0..src.cols {
            dst.set(i, start + j, src.get(i, j));
        }
    }
}

/// Numerically stable row softmax, in place. One implementation shared by
/// the training and inference paths keeps them bit-identical to each
/// other. Max reduction, the `exp` + sum, and the final `1/sum` multiply
/// all dispatch on the SIMD backend; the scalar arm of every step
/// reproduces the pre-SIMD results bit for bit, while the AVX2 `exp`
/// (polynomial, ~1e-8 relative) tracks scalar within the same ≤1e-5
/// cross-backend tolerance the FMA GEMMs set.
fn softmax_rows_inplace(s: &mut Matrix) {
    let kern = crate::simd::kernel();
    for i in 0..s.rows {
        let row = s.row_mut(i);
        let max = crate::simd::max_slice(kern, row);
        let sum = crate::simd::exp_sum_slice(kern, row, max);
        crate::simd::scale_slice(kern, row, 1.0 / sum);
    }
}

/// Backward through a row softmax: `dS = A .* (dA - rowsum(A .* dA))`.
fn softmax_rows_backward(a: &Matrix, da: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows, a.cols);
    for i in 0..a.rows {
        let ar = a.row(i);
        let dr = da.row(i);
        let dot: f32 = ar.iter().zip(dr).map(|(&av, &dv)| av * dv).sum();
        for j in 0..a.cols {
            out.set(i, j, ar[j] * (dr[j] - dot));
        }
    }
    out
}

/// The attention core shared — verbatim — by [`AttnLayer::forward`] and
/// [`AttnLayer::forward_eval`]: per-head scaled dot-product scores plus
/// bias, row softmax, value mixing, heads concatenated. Returns the
/// concatenated output and the per-head attention matrices.
fn attend(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    bias: &Matrix,
    n_heads: usize,
) -> (Matrix, Vec<Matrix>) {
    let d = q.cols;
    let dh = d / n_heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut o = Matrix::zeros(q.rows, d);
    let mut attn = Vec::with_capacity(n_heads);
    for h in 0..n_heads {
        let qh = col_block(q, h * dh, dh);
        let kh = col_block(k, h * dh, dh);
        let vh = col_block(v, h * dh, dh);
        let mut s = qh.matmul_t(&kh);
        s.scale_add_assign(scale, bias);
        softmax_rows_inplace(&mut s);
        let oh = s.matmul(&vh);
        set_col_block(&mut o, h * dh, &oh);
        attn.push(s);
    }
    (o, attn)
}

/// [`attend`] for the inference path: the same arithmetic — score scaling,
/// bias, softmax, value mixing, identical op order, so results are bitwise
/// equal — but every per-head intermediate (the head column blocks, the
/// `[n, n]` score matrix, the mixed output) is drawn from the shared
/// [`Scratch`] arena instead of freshly allocated, and the attention
/// matrices are returned to the arena rather than kept for a backward
/// pass. The attention core of [`AttnLayer::forward_eval`].
pub fn attend_eval(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    bias: &Matrix,
    n_heads: usize,
    scratch: &mut Scratch,
) -> Matrix {
    let d = q.cols;
    let n = q.rows;
    let dh = d / n_heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut o = scratch.take(n, d);
    let mut qh = scratch.take(n, dh);
    let mut kh = scratch.take(n, dh);
    let mut vh = scratch.take(n, dh);
    let mut s = scratch.take(n, n);
    let mut oh = scratch.take(n, dh);
    for h in 0..n_heads {
        col_block_into(q, h * dh, &mut qh);
        col_block_into(k, h * dh, &mut kh);
        col_block_into(v, h * dh, &mut vh);
        qh.matmul_t_into(&kh, &mut s);
        s.scale_add_assign(scale, bias);
        softmax_rows_inplace(&mut s);
        s.matmul_into(&vh, &mut oh, scratch.pack_buf());
        set_col_block(&mut o, h * dh, &oh);
    }
    scratch.put(qh);
    scratch.put(kh);
    scratch.put(vh);
    scratch.put(s);
    scratch.put(oh);
    o
}

impl AttnLayer {
    /// JSON value form (checkpointing).
    pub fn to_value(&self) -> serde_json::Value {
        serde_json::json!({
            "wq": self.wq.to_value(),
            "wk": self.wk.to_value(),
            "wv": self.wv.to_value(),
            "wo": self.wo.to_value(),
            "w1": self.w1.to_value(),
            "n_heads": self.n_heads,
            "relu": self.relu,
        })
    }

    /// Inverse of [`AttnLayer::to_value`].
    pub fn from_value(v: &serde_json::Value) -> Result<Self, String> {
        Ok(AttnLayer {
            wq: Linear::from_value(&v["wq"])?,
            wk: Linear::from_value(&v["wk"])?,
            wv: Linear::from_value(&v["wv"])?,
            wo: Linear::from_value(&v["wo"])?,
            w1: Linear::from_value(&v["w1"])?,
            n_heads: v["n_heads"]
                .as_u64()
                .map(|x| x as usize)
                .ok_or("attn n_heads missing")?,
            relu: v["relu"].as_bool().ok_or("attn relu flag missing")?,
        })
    }

    /// New square block `d_model -> d_model` with `n_heads` heads and
    /// ReLU enabled. `d_model` must be divisible by `n_heads`.
    pub fn new(d_model: usize, n_heads: usize, rng: &mut Rng64) -> Self {
        assert!(n_heads > 0, "attention needs at least one head");
        assert!(
            d_model.is_multiple_of(n_heads),
            "d_model {d_model} not divisible by n_heads {n_heads}"
        );
        AttnLayer {
            wq: Linear::new(d_model, d_model, rng),
            wk: Linear::new(d_model, d_model, rng),
            wv: Linear::new(d_model, d_model, rng),
            wo: Linear::new(d_model, d_model, rng),
            w1: Linear::new(d_model, d_model, rng),
            n_heads,
            relu: true,
        }
    }

    /// Forward over all node tokens at once; `x: [n, d]`, `bias: [n, n]`
    /// (from [`attention_bias`]) -> `[n, d]`.
    pub fn forward(&self, x: &Matrix, bias: &Matrix) -> (Matrix, AttnCache) {
        let q = self.wq.forward(x);
        let k = self.wk.forward(x);
        let v = self.wv.forward(x);
        let (o, attn) = attend(&q, &k, &v, bias, self.n_heads);
        let mut pre = self.w1.forward(x);
        let mixed = self.wo.forward(&o);
        pre.add_assign(&mixed);
        let mut y_norm = pre.clone();
        if self.relu {
            relu_inplace(&mut y_norm);
        }
        let mut norms = vec![0.0; y_norm.rows];
        l2_normalize_rows_inplace(&mut y_norm, Some(&mut norms));
        (
            y_norm.clone(),
            AttnCache {
                x: x.clone(),
                q,
                k,
                v,
                attn,
                o,
                pre_act: pre,
                y_norm,
                norms,
            },
        )
    }

    /// Inference-only forward: the same arithmetic as
    /// [`AttnLayer::forward`] — bit for bit — without the backward cache.
    /// The projections run on the fused GEMM+bias kernels into scratch
    /// buffers; the attention core is [`attend_eval`], op-for-op the same
    /// sweep as the training path's [`attend`] but with every per-head
    /// intermediate drawn from the arena, so parity is structural, not
    /// coincidental.
    pub fn forward_eval(&self, x: &Matrix, bias: &Matrix, scratch: &mut Scratch) -> Matrix {
        let mut q = scratch.take(x.rows, self.wq.w.cols);
        self.wq
            .forward_into(x, Activation::Identity, &mut q, scratch.pack_buf());
        let mut k = scratch.take(x.rows, self.wk.w.cols);
        self.wk
            .forward_into(x, Activation::Identity, &mut k, scratch.pack_buf());
        let mut v = scratch.take(x.rows, self.wv.w.cols);
        self.wv
            .forward_into(x, Activation::Identity, &mut v, scratch.pack_buf());
        let o = attend_eval(&q, &k, &v, bias, self.n_heads, scratch);
        scratch.put(q);
        scratch.put(k);
        scratch.put(v);
        let mut out = scratch.take(x.rows, self.w1.w.cols);
        self.w1
            .forward_into(x, Activation::Identity, &mut out, scratch.pack_buf());
        let mut mixed = scratch.take(o.rows, self.wo.w.cols);
        self.wo
            .forward_into(&o, Activation::Identity, &mut mixed, scratch.pack_buf());
        scratch.put(o);
        out.add_assign(&mixed);
        scratch.put(mixed);
        if self.relu {
            relu_inplace(&mut out);
        }
        l2_normalize_rows_inplace(&mut out, None);
        out
    }

    /// Backward; returns `(dx, grads)`.
    pub fn backward(&self, cache: &AttnCache, dy: &Matrix, bias: &Matrix) -> (Matrix, AttnGrad) {
        let _ = bias; // the bias is additive and constant: no gradient
        let d = cache.q.cols;
        let dh = d / self.n_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        // Through the normalization and the optional ReLU.
        let mut d_pre = dy.clone();
        l2_normalize_rows_backward_inplace(&cache.y_norm, &cache.norms, &mut d_pre);
        if self.relu {
            relu_backward_inplace(&cache.pre_act, &mut d_pre);
        }
        // The two summed paths: self transform and attention output.
        let (dx_self, d_w1) = self.w1.backward(&cache.x, &d_pre);
        let (d_o, d_wo) = self.wo.backward(&cache.o, &d_pre);
        // Per head, back through value mixing, softmax and the scores.
        let mut dq = Matrix::zeros(cache.q.rows, d);
        let mut dk = Matrix::zeros(cache.k.rows, d);
        let mut dv = Matrix::zeros(cache.v.rows, d);
        for h in 0..self.n_heads {
            let a = &cache.attn[h];
            let kh = col_block(&cache.k, h * dh, dh);
            let qh = col_block(&cache.q, h * dh, dh);
            let d_oh = col_block(&d_o, h * dh, dh);
            let d_a = d_oh.matmul_t(&col_block(&cache.v, h * dh, dh));
            let d_vh = a.t_matmul(&d_oh);
            let mut d_s = softmax_rows_backward(a, &d_a);
            d_s.scale(scale);
            let d_qh = d_s.matmul(&kh);
            let d_kh = d_s.t_matmul(&qh);
            set_col_block(&mut dq, h * dh, &d_qh);
            set_col_block(&mut dk, h * dh, &d_kh);
            set_col_block(&mut dv, h * dh, &d_vh);
        }
        // Through the three projections; all read the same input `x`.
        let (dx_q, d_wq) = self.wq.backward(&cache.x, &dq);
        let (dx_k, d_wk) = self.wk.backward(&cache.x, &dk);
        let (dx_v, d_wv) = self.wv.backward(&cache.x, &dv);
        let mut dx = dx_self;
        dx.add_assign(&dx_q);
        dx.add_assign(&dx_k);
        dx.add_assign(&dx_v);
        (
            dx,
            AttnGrad {
                d_wq,
                d_wk,
                d_wv,
                d_wo,
                d_w1,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AttnLayer, Matrix, Matrix) {
        let mut rng = Rng64::new(40);
        let layer = AttnLayer::new(4, 2, &mut rng);
        let x = Matrix::from_fn(5, 4, |_, _| rng.range_f64(-1.0, 1.0) as f32);
        let adj = Csr::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]);
        let bias = attention_bias(&adj);
        (layer, x, bias)
    }

    #[test]
    fn bias_is_zero_on_diagonal_and_edges() {
        let adj = Csr::from_edges(4, &[(0, 1), (2, 3)]);
        let b = attention_bias(&adj);
        for i in 0..4 {
            assert_eq!(b.get(i, i), 0.0);
        }
        // Edges are symmetric in the CSR (undirected neighborhoods).
        assert_eq!(b.get(0, 1), 0.0);
        assert_eq!(b.get(1, 0), 0.0);
        assert_eq!(b.get(0, 2), ATTN_NONEDGE_BIAS);
        assert_eq!(b.get(3, 1), ATTN_NONEDGE_BIAS);
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let (layer, x, bias) = setup();
        let q = layer.wq.forward(&x);
        let k = layer.wk.forward(&x);
        let v = layer.wv.forward(&x);
        let (_, attn) = attend(&q, &k, &v, &bias, layer.n_heads);
        assert_eq!(attn.len(), 2);
        for a in &attn {
            for i in 0..a.rows {
                let s: f32 = a.row(i).iter().sum();
                assert!((s - 1.0).abs() < 1e-5, "row {i} sums to {s}");
            }
        }
    }

    #[test]
    fn forward_shape_and_unit_rows() {
        let (mut layer, x, bias) = setup();
        layer.relu = false; // with ReLU an all-negative row collapses to zero
        let (y, _) = layer.forward(&x, &bias);
        assert_eq!((y.rows, y.cols), (5, 4));
        for i in 0..y.rows {
            let n: f32 = y.row(i).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn attend_eval_matches_attend_bitwise() {
        let (layer, x, bias) = setup();
        let q = layer.wq.forward(&x);
        let k = layer.wk.forward(&x);
        let v = layer.wv.forward(&x);
        let (want, _) = attend(&q, &k, &v, &bias, layer.n_heads);
        let mut scratch = Scratch::new();
        let got = attend_eval(&q, &k, &v, &bias, layer.n_heads, &mut scratch);
        assert_eq!(got, want);
        // Warm arena second pass: same buffers, same bits.
        scratch.put(got);
        let again = attend_eval(&q, &k, &v, &bias, layer.n_heads, &mut scratch);
        assert_eq!(again, want);
    }

    #[test]
    fn forward_eval_matches_forward_bitwise() {
        let (layer, x, bias) = setup();
        let (want, _) = layer.forward(&x, &bias);
        let mut scratch = Scratch::new();
        let got = layer.forward_eval(&x, &bias, &mut scratch);
        assert_eq!(got, want);
        // Second pass through the (now warm) scratch arena is identical.
        scratch.put(got);
        let again = layer.forward_eval(&x, &bias, &mut scratch);
        assert_eq!(again, want);
        // And without the ReLU.
        let mut no_relu = layer;
        no_relu.relu = false;
        let (want2, _) = no_relu.forward(&x, &bias);
        assert_eq!(no_relu.forward_eval(&x, &bias, &mut scratch), want2);
    }

    #[test]
    fn gradcheck_weights_and_input() {
        let (layer, x, bias) = setup();
        // Asymmetric scalar loss: sum(y * coeff).
        let mut rng = Rng64::new(41);
        let coeff = Matrix::from_fn(5, 4, |_, _| rng.range_f64(-1.0, 1.0) as f32);
        let loss = |l: &AttnLayer, xx: &Matrix| -> f64 {
            let (y, _) = l.forward(xx, &bias);
            y.data
                .iter()
                .zip(&coeff.data)
                .map(|(&a, &c)| (a * c) as f64)
                .sum()
        };
        let (_, cache) = layer.forward(&x, &bias);
        let (dx, g) = layer.backward(&cache, &coeff, &bias);

        let h = 1e-3f32;
        // Spot-check one entry of every projection.
        let picks: [(&str, usize, usize); 5] = [
            ("wq", 0, 0),
            ("wk", 1, 2),
            ("wv", 3, 1),
            ("wo", 2, 3),
            ("w1", 0, 2),
        ];
        for (which, i, j) in picks {
            let mut lp = layer.clone();
            let mut lm = layer.clone();
            fn pick<'a>(l: &'a mut AttnLayer, which: &str) -> &'a mut Matrix {
                match which {
                    "wq" => &mut l.wq.w,
                    "wk" => &mut l.wk.w,
                    "wv" => &mut l.wv.w,
                    "wo" => &mut l.wo.w,
                    _ => &mut l.w1.w,
                }
            }
            let base = pick(&mut lp, which).get(i, j);
            pick(&mut lp, which).set(i, j, base + h);
            pick(&mut lm, which).set(i, j, base - h);
            let num = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h as f64);
            let analytic = match which {
                "wq" => g.d_wq.dw.get(i, j),
                "wk" => g.d_wk.dw.get(i, j),
                "wv" => g.d_wv.dw.get(i, j),
                "wo" => g.d_wo.dw.get(i, j),
                _ => g.d_w1.dw.get(i, j),
            } as f64;
            assert!(
                (num - analytic).abs() < 2e-2,
                "{which}[{i},{j}]: num {num} vs {analytic}"
            );
        }
        // Input gradient spot checks (flows through all five paths and the
        // softmax coupling between tokens).
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
        let (layer, x, bias) = setup();
        let (_, cache) = layer.forward(&x, &bias);
        let dy = Matrix::from_fn(5, 4, |_, _| 1.0);
        let (_, g1) = layer.backward(&cache, &dy, &bias);
        let mut acc = AttnGrad::zeros_like(&layer);
        acc.add_assign(&g1);
        acc.add_assign(&g1);
        acc.scale(0.5);
        for (a, b) in acc.d_wq.dw.data.iter().zip(&g1.d_wq.dw.data) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn json_value_roundtrip() {
        let (layer, x, bias) = setup();
        let back = AttnLayer::from_value(&layer.to_value()).unwrap();
        assert_eq!(back, layer);
        let (want, _) = layer.forward(&x, &bias);
        let (got, _) = back.forward(&x, &bias);
        assert_eq!(got, want);
    }
}
