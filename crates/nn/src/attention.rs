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
//! interchangeable behind the same embed/head split. As in the SAGE layer,
//! both forwards and the backward draw every buffer from a [`Scratch`]
//! arena.

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

/// Build the `[n, n]` attention-bias matrix from an adjacency, in a buffer
/// drawn from `scratch`: `0` for self-pairs and graph edges,
/// [`ATTN_NONEDGE_BIAS`] everywhere else.
pub fn attention_bias(adj: &Csr, scratch: &mut Scratch) -> Matrix {
    let n = adj.n();
    let mut b = scratch.take(n, n);
    b.data.fill(ATTN_NONEDGE_BIAS);
    for i in 0..n {
        b.set(i, i, 0.0);
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

/// Activations cached by the training forward for the backward pass, every
/// buffer drawn from the arena. The layer's input is not among them: it is
/// the caller's (the token embedding, or the previous block's
/// [`AttnCache::output`]) and is passed to the backward again.
#[derive(Debug, Clone)]
pub struct AttnCache {
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

impl AttnCache {
    /// The layer's output `[n, d]` — the next layer's input.
    pub fn output(&self) -> &Matrix {
        &self.y_norm
    }

    /// Return every buffer to the arena the forward drew them from.
    pub fn recycle(self, scratch: &mut Scratch) {
        let own = [self.q, self.k, self.v, self.o, self.pre_act, self.y_norm];
        for m in own.into_iter().chain(self.attn) {
            scratch.put(m);
        }
        scratch.put_vec(self.norms);
    }
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

    /// Return every buffer to an arena.
    pub fn recycle(self, scratch: &mut Scratch) {
        for g in [self.d_wq, self.d_wk, self.d_wv, self.d_wo, self.d_w1] {
            g.recycle(scratch);
        }
    }
}

/// Copy columns `[start, start + dst.cols)` of `m` into `dst`, every
/// element overwritten.
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
        dst.row_mut(i)[start..start + src.cols].copy_from_slice(src.row(i));
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

/// Backward through a row softmax, in place on the upstream gradient:
/// `dS = A .* (dA - rowsum(A .* dA))`.
fn softmax_rows_backward_inplace(a: &Matrix, d: &mut Matrix) {
    for i in 0..a.rows {
        let ar = a.row(i);
        let dr = d.row_mut(i);
        let dot: f32 = ar.iter().zip(dr.iter()).map(|(&av, &dv)| av * dv).sum();
        for (dv, &av) in dr.iter_mut().zip(ar) {
            *dv = av * (*dv - dot);
        }
    }
}

/// The attention core of both forwards: per head, scaled dot-product
/// scores plus `bias`, row softmax and value mixing, the heads' outputs
/// concatenated into the returned `[n, d]` matrix. Every intermediate is
/// drawn from `scratch`. Each head's `[n, n]` attention matrix is pushed
/// onto `keep` when the caller wants it for a backward pass, and goes back
/// to the arena otherwise; that is the only difference between a training
/// and an inference forward, so the two agree bit for bit.
fn attend(
    (q, k, v): (&Matrix, &Matrix, &Matrix),
    bias: &Matrix,
    n_heads: usize,
    scratch: &mut Scratch,
    mut keep: Option<&mut Vec<Matrix>>,
) -> Matrix {
    let (n, d) = (q.rows, q.cols);
    let dh = d / n_heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut o = scratch.take(n, d);
    let [mut qh, mut kh, mut vh, mut oh] = [(); 4].map(|()| scratch.take(n, dh));
    for h in 0..n_heads {
        col_block_into(q, h * dh, &mut qh);
        col_block_into(k, h * dh, &mut kh);
        col_block_into(v, h * dh, &mut vh);
        let mut s = scratch.take(n, n);
        qh.matmul_t_into(&kh, &mut s);
        s.scale_add_assign(scale, bias);
        softmax_rows_inplace(&mut s);
        s.matmul_into(&vh, &mut oh, scratch.pack_buf());
        set_col_block(&mut o, h * dh, &oh);
        match keep.as_deref_mut() {
            Some(attn) => attn.push(s),
            None => scratch.put(s),
        }
    }
    for m in [qh, kh, vh, oh] {
        scratch.put(m);
    }
    o
}

/// `x W + b` on the fused GEMM+bias kernel, into an arena buffer.
fn project(l: &Linear, x: &Matrix, scratch: &mut Scratch) -> Matrix {
    let mut y = scratch.take(x.rows, l.w.cols);
    l.forward_into(x, Activation::Identity, &mut y, scratch.pack_buf());
    y
}

/// The head counts a block of width `d_model` can split into: at least
/// one, dividing the width evenly.
fn check_heads(d_model: usize, n_heads: usize) -> Result<(), String> {
    if n_heads == 0 {
        return Err("attn n_heads is 0: attention needs at least one head".to_string());
    }
    if !d_model.is_multiple_of(n_heads) {
        return Err(format!(
            "attn n_heads {n_heads} does not divide d_model {d_model}"
        ));
    }
    Ok(())
}

impl AttnLayer {
    /// JSON value form (checkpointing).
    pub fn to_value(&self) -> nnlqp_ir::json::Value {
        nnlqp_ir::json!({
            "wq": self.wq.to_value(),
            "wk": self.wk.to_value(),
            "wv": self.wv.to_value(),
            "wo": self.wo.to_value(),
            "w1": self.w1.to_value(),
            "n_heads": self.n_heads,
            "relu": self.relu,
        })
    }

    /// Inverse of [`AttnLayer::to_value`]. A head count that
    /// [`AttnLayer::new`] refuses is an error here.
    pub fn from_value(v: &nnlqp_ir::json::Value) -> Result<Self, String> {
        let layer = AttnLayer {
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
        };
        check_heads(layer.wq.w.cols, layer.n_heads)?;
        Ok(layer)
    }

    /// New square block `d_model -> d_model` with `n_heads` heads and
    /// ReLU enabled. `d_model` must be divisible by `n_heads`.
    pub fn new(d_model: usize, n_heads: usize, rng: &mut Rng64) -> Self {
        check_heads(d_model, n_heads).unwrap_or_else(|e| panic!("{e}"));
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

    /// The linear half both forwards share, on the fused GEMM+bias
    /// kernels: the projections, the attention output `o` (keeping the
    /// attention matrices on `attn` when given) and
    /// `pre = (x W1 + b1) + (o Wo + bo)`, returned as `[q, k, v, o, pre]`.
    fn pre_activation(
        &self,
        x: &Matrix,
        bias: &Matrix,
        attn: Option<&mut Vec<Matrix>>,
        scratch: &mut Scratch,
    ) -> [Matrix; 5] {
        let q = project(&self.wq, x, scratch);
        let k = project(&self.wk, x, scratch);
        let v = project(&self.wv, x, scratch);
        let o = attend((&q, &k, &v), bias, self.n_heads, scratch, attn);
        let mut pre = project(&self.w1, x, scratch);
        let mixed = project(&self.wo, &o, scratch);
        pre.add_assign(&mixed);
        scratch.put(mixed);
        [q, k, v, o, pre]
    }

    /// Training forward over all node tokens at once, `x: [n, d]`,
    /// `bias: [n, n]` (from [`attention_bias`]) -> `[n, d]`
    /// ([`AttnCache::output`]), every intermediate drawn from `scratch` and
    /// kept in the cache until [`AttnCache::recycle`].
    pub fn forward(&self, x: &Matrix, bias: &Matrix, scratch: &mut Scratch) -> AttnCache {
        let mut attn = Vec::with_capacity(self.n_heads);
        let [q, k, v, o, pre_act] = self.pre_activation(x, bias, Some(&mut attn), scratch);
        let mut y_norm = scratch.take(pre_act.rows, pre_act.cols);
        y_norm.data.copy_from_slice(&pre_act.data);
        if self.relu {
            relu_inplace(&mut y_norm);
        }
        let mut norms = scratch.take_vec(y_norm.rows);
        l2_normalize_rows_inplace(&mut y_norm, Some(&mut norms));
        AttnCache {
            q,
            k,
            v,
            attn,
            o,
            pre_act,
            y_norm,
            norms,
        }
    }

    /// Inference-only forward: [`AttnLayer::forward`]'s arithmetic, bit for
    /// bit, without the backward cache.
    pub fn forward_eval(&self, x: &Matrix, bias: &Matrix, scratch: &mut Scratch) -> Matrix {
        let [q, k, v, o, mut out] = self.pre_activation(x, bias, None, scratch);
        for m in [q, k, v, o] {
            scratch.put(m);
        }
        if self.relu {
            relu_inplace(&mut out);
        }
        l2_normalize_rows_inplace(&mut out, None);
        out
    }

    /// Backward from the upstream gradient `d` (spent in place, then given
    /// back to `scratch`), `x` being the input the forward saw. Returns
    /// `(dx, grads)`, every buffer drawn from `scratch`. The bias is
    /// additive and constant: it has no gradient.
    pub fn backward(
        &self,
        x: &Matrix,
        cache: &AttnCache,
        mut d: Matrix,
        scratch: &mut Scratch,
    ) -> (Matrix, AttnGrad) {
        let (n, width) = (cache.q.rows, cache.q.cols);
        let dh = width / self.n_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        // Through the normalization and the optional ReLU, to the
        // pre-activation gradient.
        l2_normalize_rows_backward_inplace(&cache.y_norm, &cache.norms, &mut d);
        if self.relu {
            relu_backward_inplace(&cache.pre_act, &mut d);
        }
        // The two summed paths: self transform and attention output.
        let d_w1 = Linear::param_grad(x, &d, scratch);
        let d_wo = Linear::param_grad(&cache.o, &d, scratch);
        let mut d_o = scratch.take(n, width);
        self.wo.input_grad_into(&d, &mut d_o);
        // Per head, back through value mixing, softmax and the scores.
        let [mut dq, mut dk, mut dv] = [(); 3].map(|()| scratch.take(n, width));
        let [mut qh, mut kh, mut vh, mut d_oh, mut d_qh, mut d_kh, mut d_vh] =
            [(); 7].map(|()| scratch.take(n, dh));
        let mut d_s = scratch.take(n, n);
        for (h, a) in cache.attn.iter().enumerate() {
            let c = h * dh;
            col_block_into(&cache.q, c, &mut qh);
            col_block_into(&cache.k, c, &mut kh);
            col_block_into(&cache.v, c, &mut vh);
            col_block_into(&d_o, c, &mut d_oh);
            d_oh.matmul_t_into(&vh, &mut d_s);
            a.t_matmul_into(&d_oh, &mut d_vh);
            softmax_rows_backward_inplace(a, &mut d_s);
            d_s.scale(scale);
            d_s.matmul_into(&kh, &mut d_qh, scratch.pack_buf());
            d_s.t_matmul_into(&qh, &mut d_kh);
            set_col_block(&mut dq, c, &d_qh);
            set_col_block(&mut dk, c, &d_kh);
            set_col_block(&mut dv, c, &d_vh);
        }
        for m in [qh, kh, vh, d_oh, d_qh, d_kh, d_vh, d_s, d_o] {
            scratch.put(m);
        }
        // Through the three projections, which all read `x`: `dx` is the
        // self path's input gradient plus theirs, added in that order.
        let mut dx = scratch.take(n, x.cols);
        self.w1.input_grad_into(&d, &mut dx);
        scratch.put(d);
        let mut path = scratch.take(n, x.cols);
        for (l, dp) in [(&self.wq, &dq), (&self.wk, &dk), (&self.wv, &dv)] {
            l.input_grad_into(dp, &mut path);
            dx.add_assign(&path);
        }
        scratch.put(path);
        let [d_wq, d_wk, d_wv] = [dq, dk, dv].map(|dp| {
            let g = Linear::param_grad(x, &dp, scratch);
            scratch.put(dp);
            g
        });
        let grads = AttnGrad {
            d_wq,
            d_wk,
            d_wv,
            d_wo,
            d_w1,
        };
        (dx, grads)
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
        let bias = attention_bias(&adj, &mut Scratch::new());
        (layer, x, bias)
    }

    /// The layer's output, through a private arena.
    fn forward(l: &AttnLayer, x: &Matrix, bias: &Matrix) -> Matrix {
        l.forward(x, bias, &mut Scratch::new()).output().clone()
    }

    #[test]
    fn bias_is_zero_on_diagonal_and_edges() {
        let adj = Csr::from_edges(4, &[(0, 1), (2, 3)]);
        let b = attention_bias(&adj, &mut Scratch::new());
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
        let mut scratch = Scratch::new();
        let mut attn = Vec::new();
        layer.pre_activation(&x, &bias, Some(&mut attn), &mut scratch);
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
        let y = forward(&layer, &x, &bias);
        assert_eq!((y.rows, y.cols), (5, 4));
        for i in 0..y.rows {
            let n: f32 = y.row(i).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn keeping_the_attention_matrices_does_not_change_the_output() {
        let (layer, x, bias) = setup();
        let mut scratch = Scratch::new();
        let mut attn = Vec::new();
        let [.., want] = layer.pre_activation(&x, &bias, Some(&mut attn), &mut scratch);
        let [.., got] = layer.pre_activation(&x, &bias, None, &mut scratch);
        assert_eq!(got, want);
        // Warm arena second pass: same buffers, same bits.
        let [.., again] = layer.pre_activation(&x, &bias, None, &mut scratch);
        assert_eq!(again, want);
    }

    #[test]
    fn forward_eval_matches_forward_bitwise() {
        let (layer, x, bias) = setup();
        let want = forward(&layer, &x, &bias);
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
        let want2 = forward(&no_relu, &x, &bias);
        assert_eq!(no_relu.forward_eval(&x, &bias, &mut scratch), want2);
    }

    #[test]
    fn gradcheck_weights_and_input() {
        let (layer, x, bias) = setup();
        // Asymmetric scalar loss: sum(y * coeff).
        let mut rng = Rng64::new(41);
        let coeff = Matrix::from_fn(5, 4, |_, _| rng.range_f64(-1.0, 1.0) as f32);
        let loss = |l: &AttnLayer, xx: &Matrix| -> f64 {
            let y = forward(l, xx, &bias);
            y.data
                .iter()
                .zip(&coeff.data)
                .map(|(&a, &c)| (a * c) as f64)
                .sum()
        };
        let mut scratch = Scratch::new();
        let cache = layer.forward(&x, &bias, &mut scratch);
        let (dx, g) = layer.backward(&x, &cache, coeff.clone(), &mut scratch);

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
        let mut scratch = Scratch::new();
        let cache = layer.forward(&x, &bias, &mut scratch);
        let dy = Matrix::from_fn(5, 4, |_, _| 1.0);
        let (_, g1) = layer.backward(&x, &cache, dy, &mut scratch);
        let mut acc = g1.clone();
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
        assert_eq!(forward(&back, &x, &bias), forward(&layer, &x, &bias));
    }
}
