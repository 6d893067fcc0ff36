//! Dense row-major f32 matrices.
//!
//! Sized for this workload — node-feature matrices of a few hundred rows
//! and a few dozen columns, whose operands sit in L1 — so `matmul` and
//! `t_matmul` are one register-tile micro-kernel (`simd::gemm`) run over
//! the whole product on the calling thread, with no cache blocking beyond
//! the packed panels of very wide outputs.

use crate::simd::{self, Kernel, Strided};
use nnlqp_ir::Rng64;

/// Row-major 2-D f32 matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: Vec<f32>,
}

/// Column-panel width of the packed-B matmul kernel. Panels keep the B
/// operand cache-resident across the k-loop once outputs grow wider than
/// one panel.
const PANEL: usize = 128;

/// Row count below which packing B costs more than it saves (the pack
/// sweep is O(k*n) — the same order as multiplying a single row).
const PACK_MIN_ROWS: usize = 4;

/// Element-wise nonlinearity fused into the GEMM epilogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// No nonlinearity.
    Identity,
    /// `max(0, x)` — bit-identical to `layers::relu_inplace` (negative zero is
    /// preserved, matching its `v < 0.0` test).
    Relu,
}

/// A reusable buffer arena for the allocation-free inference path and
/// training step: layers `take` correctly-shaped zeroed matrices and `put`
/// them back when done, so a batched forward — or an epoch of backprop —
/// touches the allocator only while warming up. One extra buffer backs the
/// matmul panel packing.
///
/// A request gets the smallest idle buffer that holds it. When none does,
/// the largest idle buffer grows to exactly the request, and a new buffer
/// is allocated only when none is idle. So the arena holds as many buffers
/// as were ever checked out at once, and each stays near the size of the
/// requests it serves rather than drifting up to the largest graph's.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Idle buffers, in ascending order of capacity.
    free: Vec<Vec<f32>>,
    pack: Vec<f32>,
}

impl Scratch {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An idle buffer with room for `len` elements (its contents are
    /// whatever it last held), or a new one if none is idle.
    fn buffer(&mut self, len: usize) -> Vec<f32> {
        let Some(last) = self.free.len().checked_sub(1) else {
            return Vec::with_capacity(len);
        };
        let fits = self.free.partition_point(|b| b.capacity() < len);
        let mut data = self.free.remove(fits.min(last));
        if data.capacity() < len {
            data.clear();
            data.reserve_exact(len);
        }
        data
    }

    /// A zeroed `rows x cols` matrix, reusing a returned buffer when one
    /// is available.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut data = self.buffer(rows * cols);
        data.clear();
        data.resize(rows * cols, 0.0);
        Matrix { rows, cols, data }
    }

    /// A `rows x cols` matrix for an output its producer writes whole (a
    /// GEMM, an aggregation, a densified feature matrix):
    /// [`Scratch::take`] without the zeroing, so its elements hold
    /// whatever the reused buffer held.
    pub fn take_overwritten(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut data = self.buffer(rows * cols);
        data.resize(rows * cols, 0.0);
        Matrix { rows, cols, data }
    }

    /// Return a matrix's allocation to the arena (the shape is forgotten;
    /// only the buffer is kept).
    pub fn put(&mut self, m: Matrix) {
        self.put_vec(m.data);
    }

    /// [`Scratch::take`] for a plain vector (bias gradients, row norms).
    pub fn take_vec(&mut self, len: usize) -> Vec<f32> {
        self.take(1, len).data
    }

    /// [`Scratch::put`] for a plain vector.
    pub fn put_vec(&mut self, v: Vec<f32>) {
        let at = self.free.partition_point(|b| b.capacity() < v.capacity());
        self.free.insert(at, v);
    }

    /// Buffers at rest in the arena. A forward pass that `put`s back
    /// exactly what it `take`s leaves this constant from the second pass
    /// on — the property that lets one arena serve a whole batch.
    pub fn idle_buffers(&self) -> usize {
        self.free.len()
    }

    /// Bytes the arena holds at rest: every idle buffer's capacity and the
    /// packing buffer's.
    pub fn idle_bytes(&self) -> usize {
        let floats: usize = self.free.iter().map(Vec::capacity).sum();
        (floats + self.pack.capacity()) * std::mem::size_of::<f32>()
    }

    /// The panel-packing buffer for [`Matrix::matmul_into`].
    pub fn pack_buf(&mut self) -> &mut Vec<f32> {
        &mut self.pack
    }
}

impl Matrix {
    /// JSON value form (checkpointing trained heads): a flat object of
    /// dims plus the row-major payload.
    pub fn to_value(&self) -> nnlqp_ir::json::Value {
        nnlqp_ir::json!({
            "rows": self.rows,
            "cols": self.cols,
            "data": self.data,
        })
    }

    /// Inverse of [`Matrix::to_value`].
    pub fn from_value(v: &nnlqp_ir::json::Value) -> Result<Self, String> {
        let dims = (v["rows"].as_u64(), v["cols"].as_u64());
        let (Some(rows), Some(cols)) = dims else {
            return Err("matrix dims missing".to_string());
        };
        let Some(data) = v["data"].as_array().and_then(|a| {
            a.iter()
                .map(|x| x.as_f64().map(|f| f as f32))
                .collect::<Option<Vec<f32>>>()
        }) else {
            return Err("matrix data missing".to_string());
        };
        if data.len() != (rows * cols) as usize {
            return Err("matrix shape/data mismatch".to_string());
        }
        Ok(Matrix {
            rows: rows as usize,
            cols: cols as usize,
            data,
        })
    }

    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Build from a row-major slice.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Kaiming-uniform initialization for a layer with `fan_in` inputs.
    pub fn kaiming(rows: usize, cols: usize, fan_in: usize, rng: &mut Rng64) -> Self {
        let bound = (6.0 / fan_in.max(1) as f64).sqrt();
        Matrix::from_fn(rows, cols, |_, _| rng.range_f64(-bound, bound) as f32)
    }

    /// Borrow one row.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow one row.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    /// Element mutation.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// `self @ b` — `[m,k] x [k,n] -> [m,n]`.
    pub fn matmul(&self, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, b.cols);
        let mut pack = Vec::new();
        self.matmul_into(b, &mut out, &mut pack);
        out
    }

    /// Panics unless `data` holds exactly `rows * cols` elements — the
    /// fields are public, and the kernels index by the dimensions.
    fn assert_dense(&self, what: &str) {
        assert_eq!(
            self.rows.checked_mul(self.cols),
            Some(self.data.len()),
            "{what}: data length is not rows * cols"
        );
    }

    /// `self @ b` written into `out` (every element overwritten), the
    /// allocation-free core of [`Matrix::matmul`], on the process-wide
    /// kernel backend. Per output element the k-terms accumulate in
    /// ascending order from `+0.0`, so results are bit-identical whichever
    /// path runs *within* a backend, and across the SIMD backends. Wide
    /// outputs go through packed B panels (`pack` holds them, reused
    /// across calls); narrow or few-row products read B in place.
    pub fn matmul_into(&self, b: &Matrix, out: &mut Matrix, pack: &mut Vec<f32>) {
        self.matmul_into_with(simd::kernel(), b, out, pack);
    }

    /// [`Matrix::matmul_into`] on an explicit kernel backend (parity
    /// tests compare backends without touching the global).
    pub fn matmul_into_with(
        &self,
        kern: Kernel,
        b: &Matrix,
        out: &mut Matrix,
        pack: &mut Vec<f32>,
    ) {
        assert_eq!(self.cols, b.rows, "matmul shape mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, b.cols),
            "matmul out shape mismatch"
        );
        self.assert_dense("matmul lhs");
        b.assert_dense("matmul rhs");
        out.assert_dense("matmul out");
        let (m, k, n) = (self.rows, self.cols, b.cols);
        let a = Strided {
            data: &self.data,
            row_stride: k,
            k_stride: 1,
        };
        if n <= PANEL || m < PACK_MIN_ROWS {
            simd::gemm(kern, (m, k, n), a, (&b.data, n), (&mut out.data, n));
            return;
        }
        // Panel-pack B once (panel `j0` starts at `j0 * k`, rows of width
        // `jw` contiguous), then run every panel into its column block of
        // `out`.
        pack.clear();
        pack.resize(k * n, 0.0);
        for j0 in (0..n).step_by(PANEL) {
            let jw = PANEL.min(n - j0);
            let base = j0 * k;
            for kk in 0..k {
                pack[base + kk * jw..base + kk * jw + jw]
                    .copy_from_slice(&b.data[kk * n + j0..kk * n + j0 + jw]);
            }
            let panel = &pack[base..base + k * jw];
            simd::gemm(kern, (m, k, jw), a, (panel, jw), (&mut out.data[j0..], n));
        }
    }

    /// `self^T @ b` — `[k,m]^T x [k,n] -> [m,n]` without materializing the
    /// transpose (gradient of weights).
    pub fn t_matmul(&self, b: &Matrix) -> Matrix {
        self.t_matmul_with(simd::kernel(), b)
    }

    /// [`Matrix::t_matmul`] written into `out` (every element overwritten):
    /// the training step's weight gradients land in arena buffers.
    pub fn t_matmul_into(&self, b: &Matrix, out: &mut Matrix) {
        self.t_matmul_kernel(simd::kernel(), b, out);
    }

    /// [`Matrix::t_matmul`] on an explicit kernel backend.
    pub fn t_matmul_with(&self, kern: Kernel, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, b.cols);
        self.t_matmul_kernel(kern, b, &mut out);
        out
    }

    /// The same kernel as [`Matrix::matmul_into_with`], reading `self`
    /// through swapped strides.
    fn t_matmul_kernel(&self, kern: Kernel, b: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, b.rows, "t_matmul shape mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, b.cols),
            "t_matmul out shape mismatch"
        );
        self.assert_dense("t_matmul lhs");
        b.assert_dense("t_matmul rhs");
        out.assert_dense("t_matmul out");
        let (k, m, n) = (self.rows, self.cols, b.cols);
        let a = Strided {
            data: &self.data,
            row_stride: 1,
            k_stride: m,
        };
        simd::gemm(kern, (m, k, n), a, (&b.data, n), (&mut out.data, n));
    }

    /// `self @ b^T` — `[m,k] x [n,k]^T -> [m,n]` (gradient of inputs).
    pub fn matmul_t(&self, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, b.rows);
        self.matmul_t_into_with(simd::kernel(), b, &mut out);
        out
    }

    /// [`Matrix::matmul_t`] written into `out`, every element overwritten
    /// (the backward pass and the attention score path run this over
    /// scratch buffers instead of allocating).
    pub fn matmul_t_into(&self, b: &Matrix, out: &mut Matrix) {
        self.matmul_t_into_with(simd::kernel(), b, out);
    }

    /// [`Matrix::matmul_t_into`] on an explicit kernel backend.
    pub fn matmul_t_into_with(&self, kern: Kernel, b: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, b.cols, "matmul_t shape mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, b.rows),
            "matmul_t out shape mismatch"
        );
        self.assert_dense("matmul_t lhs");
        b.assert_dense("matmul_t rhs");
        out.assert_dense("matmul_t out");
        let dims = (self.rows, self.cols, b.rows);
        simd::matmul_t(kern, dims, &self.data, &b.data, &mut out.data);
    }

    /// Element-wise in-place addition.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        simd::add_slice(simd::kernel(), &mut self.data, &other.data);
    }

    /// In-place scale.
    pub fn scale(&mut self, s: f32) {
        simd::scale_slice(simd::kernel(), &mut self.data, s);
    }

    /// Fused `self = self * s + other`, element-wise — one sweep instead
    /// of [`Matrix::scale`] then [`Matrix::add_assign`], with bit-identical
    /// results (the kernel performs a separate multiply then add, never an
    /// FMA). The attention score epilogue (`scores/sqrt(d) + bias`) is the
    /// customer.
    pub fn scale_add_assign(&mut self, s: f32, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        simd::scale_add_slice(simd::kernel(), &mut self.data, s, &other.data);
    }

    /// Add a row vector to every row (bias).
    pub fn add_row_vector(&mut self, v: &[f32]) {
        self.bias_act(v, Activation::Identity);
    }

    /// Fused bias + activation epilogue:
    /// `self[i][j] = act(self[i][j] + bias[j])` in one sweep — the tail of
    /// the fused GEMM entry points in `layers`.
    pub fn bias_act(&mut self, bias: &[f32], act: Activation) {
        self.bias_act_with(simd::kernel(), bias, act);
    }

    /// [`Matrix::bias_act`] on an explicit kernel backend.
    pub fn bias_act_with(&mut self, kern: Kernel, bias: &[f32], act: Activation) {
        assert_eq!(bias.len(), self.cols);
        self.assert_dense("bias_act");
        simd::bias_act(kern, &mut self.data, bias, act == Activation::Relu);
    }

    /// `self = act((self + bias[j]) + (other + other_bias[j]))` in one
    /// sweep, bit-identical to [`Matrix::bias_act`] on each (Identity),
    /// [`Matrix::add_assign`], then the activation: the epilogue of a SAGE
    /// layer's two GEMMs.
    pub(crate) fn add_biased(
        &mut self,
        bias: &[f32],
        other: &Matrix,
        other_bias: &[f32],
        act: Activation,
    ) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        assert_eq!(bias.len(), self.cols);
        self.assert_dense("add_biased");
        let relu = act == Activation::Relu;
        let a = (&mut self.data[..], bias);
        simd::add_biased(simd::kernel(), a, (&other.data, other_bias), relu);
    }

    /// Column-wise sums (bias gradient; also the sum-over-nodes pooling)
    /// written into `out`: each is zero plus the column's values in row
    /// order.
    pub fn col_sums_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols);
        self.assert_dense("col_sums");
        simd::col_sums(simd::kernel(), &self.data, self.cols, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, xs: &[f32]) -> Matrix {
        Matrix::from_rows(rows, cols, xs.to_vec())
    }

    #[test]
    fn matmul_small_known() {
        let a = mat(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = mat(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let mut r = Rng64::new(1);
        let a = Matrix::from_fn(7, 5, |_, _| r.range_f64(-1.0, 1.0) as f32);
        let b = Matrix::from_fn(7, 4, |_, _| r.range_f64(-1.0, 1.0) as f32);
        let at = Matrix::from_fn(5, 7, |i, j| a.get(j, i));
        let want = at.matmul(&b);
        let got = a.t_matmul(&b);
        for (x, y) in got.data.iter().zip(&want.data) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_t_equals_explicit_transpose() {
        let mut r = Rng64::new(2);
        let a = Matrix::from_fn(6, 5, |_, _| r.range_f64(-1.0, 1.0) as f32);
        let b = Matrix::from_fn(3, 5, |_, _| r.range_f64(-1.0, 1.0) as f32);
        let bt = Matrix::from_fn(5, 3, |i, j| b.get(j, i));
        let want = a.matmul(&bt);
        let got = a.matmul_t(&b);
        for (x, y) in got.data.iter().zip(&want.data) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn many_row_product_matches_reference() {
        let mut r = Rng64::new(3);
        // Twenty full row tiles.
        let a = Matrix::from_fn(80, 32, |_, _| r.range_f64(-1.0, 1.0) as f32);
        let b = Matrix::from_fn(32, 16, |_, _| r.range_f64(-1.0, 1.0) as f32);
        let c = a.matmul(&b);
        // Check a few entries against a scalar reference.
        for &(i, j) in &[(0, 0), (79, 15), (40, 7)] {
            let want: f32 = (0..32).map(|k| a.get(i, k) * b.get(k, j)).sum();
            assert!((c.get(i, j) - want).abs() < 1e-4);
        }
    }

    #[test]
    fn bias_and_col_sums() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_vector(&[1.0, 2.0]);
        let mut sums = [7.0; 2];
        a.col_sums_into(&mut sums);
        assert_eq!(sums, [3.0, 6.0]);
    }

    #[test]
    fn kaiming_bounds() {
        let mut r = Rng64::new(4);
        let m = Matrix::kaiming(10, 10, 50, &mut r);
        let bound = (6.0f64 / 50.0).sqrt() as f32;
        assert!(m.data.iter().all(|&x| x.abs() <= bound));
        assert!(m.data.iter().any(|&x| x != 0.0));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn packed_panel_kernel_matches_reference() {
        let mut r = Rng64::new(5);
        // n > PANEL and m >= PACK_MIN_ROWS triggers the packed path;
        // compare against a scalar reference and (bit-for-bit) against the
        // narrow unpacked kernel run column-block by column-block.
        let a = Matrix::from_fn(9, 37, |_, _| r.range_f64(-1.0, 1.0) as f32);
        let b = Matrix::from_fn(37, 200, |_, _| r.range_f64(-1.0, 1.0) as f32);
        let c = a.matmul(&b);
        for &(i, j) in &[(0, 0), (8, 199), (4, 127), (4, 128)] {
            let want: f64 = (0..37)
                .map(|k| a.get(i, k) as f64 * b.get(k, j) as f64)
                .sum();
            assert!((c.get(i, j) as f64 - want).abs() < 1e-4, "c[{i},{j}]");
        }
        // Single-row product (unpacked path) over the same B agrees bitwise.
        for i in 0..a.rows {
            let row = Matrix::from_rows(1, a.cols, a.row(i).to_vec());
            assert_eq!(row.matmul(&b).data, c.row(i), "row {i}");
        }
    }

    #[test]
    fn matmul_into_reuses_buffers() {
        let mut r = Rng64::new(6);
        let a = Matrix::from_fn(5, 7, |_, _| r.range_f64(-1.0, 1.0) as f32);
        let b = Matrix::from_fn(7, 3, |_, _| r.range_f64(-1.0, 1.0) as f32);
        let want = a.matmul(&b);
        let mut scratch = Scratch::new();
        let mut out = scratch.take(5, 3);
        // Dirty the buffer to prove matmul_into zeroes it.
        out.data.fill(f32::NAN);
        a.matmul_into(&b, &mut out, scratch.pack_buf());
        assert_eq!(out, want);
        let ptr = out.data.as_ptr();
        scratch.put(out);
        let again = scratch.take(5, 3);
        assert_eq!(again.data.as_ptr(), ptr, "allocation is reused");
        assert!(again.data.iter().all(|&v| v == 0.0), "take() zeroes");
    }

    #[test]
    fn bias_act_matches_unfused() {
        let mut r = Rng64::new(7);
        let x = Matrix::from_fn(4, 6, |_, _| r.range_f64(-1.0, 1.0) as f32);
        let bias: Vec<f32> = (0..6).map(|_| r.range_f64(-1.0, 1.0) as f32).collect();
        let mut with_bias = x.clone();
        with_bias.add_row_vector(&bias);
        let mut ident = x.clone();
        ident.bias_act(&bias, Activation::Identity);
        assert_eq!(ident, with_bias);
        let mut relued = with_bias.clone();
        crate::layers::relu_inplace(&mut relued);
        let mut fused = x.clone();
        fused.bias_act(&bias, Activation::Relu);
        assert_eq!(fused, relued);
    }

    #[test]
    fn json_roundtrip() {
        let m = mat(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let v: nnlqp_ir::json::Value = m.to_value().to_string().parse().unwrap();
        assert_eq!(Matrix::from_value(&v).unwrap(), m);
    }

    /// The arena hands out the smallest idle buffer that fits, grows the
    /// largest one exactly when none fits, and allocates only when empty.
    #[test]
    fn scratch_picks_the_smallest_fitting_buffer_and_grows_exactly() {
        let mut scratch = Scratch::new();
        let (small, large) = (scratch.take(1, 10), scratch.take(1, 100));
        let (small_ptr, large_ptr) = (small.data.as_ptr(), large.data.as_ptr());
        scratch.put(large);
        scratch.put(small);
        assert_eq!(scratch.idle_bytes(), 110 * 4);

        let fits_small = scratch.take(2, 4);
        assert_eq!(fits_small.data.as_ptr(), small_ptr);
        let fits_large = scratch.take(1, 11);
        assert_eq!(fits_large.data.as_ptr(), large_ptr);
        scratch.put(fits_small);
        scratch.put(fits_large);

        let grown = scratch.take_overwritten(1, 150);
        assert_eq!(grown.data.capacity(), 150, "grown exactly");
        assert_eq!(scratch.idle_buffers(), 1, "the largest buffer grew");
        let fresh = scratch.take_vec(3);
        assert_eq!(fresh.as_ptr(), small_ptr);
        let new = scratch.take(1, 7);
        assert_eq!(new.data.capacity(), 7, "allocated only once none is idle");
        scratch.put(grown);
        scratch.put_vec(fresh);
        scratch.put(new);
        assert_eq!(scratch.idle_buffers(), 3);
        assert_eq!(scratch.idle_bytes(), (150 + 10 + 7) * 4);
    }
}
