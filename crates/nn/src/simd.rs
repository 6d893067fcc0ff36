//! Runtime-dispatched SIMD micro-kernels for the f32 matrix hot paths.
//!
//! Three backends compile into every build:
//!
//! * [`Kernel::Scalar`] — the original scalar loops, kept as the
//!   always-available reference implementation (separate multiply and
//!   add, bit-identical to every release before the SIMD work landed);
//! * [`Kernel::Avx2Fma`] — 8-lane `std::arch` AVX2/FMA kernels;
//! * [`Kernel::Avx512`] — the GEMM register tile, `matmul_t` from 16
//!   rows up and the row kernels on 16-lane AVX-512 registers; the
//!   element-wise sweeps and the softmax keep their 256-bit bodies (see
//!   below).
//!
//! The SIMD backends sit behind `is_x86_feature_detected!`, so the binary
//! still runs (and non-x86 targets still build) without the features.
//! Dispatch happens once per process (cached in an atomic): the widest
//! backend the CPU has, unless the `NNLQP_SIMD` environment variable
//! (`off`/`0`/`scalar`/`false`/`no`) or [`set_simd_enabled`] (a test
//! hook: the parity suites flip it to compare backends in one process)
//! pins the scalar backend.
//!
//! `gemm` — `matmul` and `t_matmul` — runs a 3x3 ymm register tile on
//! `Avx2Fma` and a 4x4 zmm tile on `Avx512`. `matmul_t` computes four
//! output columns per pass on ymm registers, or, on `Avx512` with enough
//! rows to pay for transposing B, sixteen per zmm register. The softmax
//! exp/sum, the row max and the element-wise sweeps have one 256-bit body
//! that both SIMD backends run. The row kernels — one dispatch per matrix:
//! `relu_backward`, `l2_normalize_rows` and its backward, `mean_agg` and
//! its backward, `bias_act`, `add_biased` and `col_sums` — are one safe
//! loop each, compiled for the baseline target, for AVX2 and for
//! AVX-512F; `Avx512` runs the `l2_normalize_rows` forward on a body of
//! its own that puts sixteen rows in the lanes of a register.
//!
//! # Numerical contract
//!
//! Element-wise sweeps (bias+activation, add, scale, scale-then-add,
//! ReLU, row max) are **bit-identical** across backends: vector lanes
//! perform exactly the operations the scalar loop performs, and ReLU masks
//! with a `v < 0.0` compare (preserving `-0.0`, like the scalar test).
//!
//! `gemm` computes every output element as one ascending-`k` chain
//! starting from `+0.0`. On the SIMD backends each step is a single-rounded
//! FMA and a lane never sees another lane's data, so the element's value
//! does not depend on the register width, the tile shape, or where in a
//! vector the element sits: **`Avx512` ≡ `Avx2Fma` bit for bit**, and both
//! equal a scalar `f32::mul_add` loop. The scalar backend rounds the
//! multiply and the add separately, which makes scalar-vs-SIMD GEMM
//! comparisons a relative-tolerance affair (≤ ~1e-5).
//!
//! The kernels that reduce *across* lanes — the `matmul_t` dot product and
//! the softmax exp/sum — would change their summation order with the
//! vector width, so the order of the 256-bit body is the contract: the
//! softmax runs that body under `Avx512` too, and the zmm `matmul_t` keeps
//! the ymm dot product's sixteen partial sums apart (one vector of output
//! columns each) and adds them in the ymm order. A model trained on an
//! AVX-512 host is the model an AVX2 host trains. The row kernels perform
//! the scalar loop's operations in the scalar loop's order on every
//! backend (no FMA, no reciprocal, no reordered sum), so they are
//! bit-identical across all three. The parity suites in `tests/` pin all of
//! this.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which micro-kernel backend a matrix operation runs on, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kernel {
    /// Portable scalar reference loops (the pre-SIMD implementation).
    Scalar = 1,
    /// 8-lane AVX2 + FMA kernels (x86-64 with runtime feature detection).
    Avx2Fma = 2,
    /// [`Kernel::Avx2Fma`] with the GEMM tile, `matmul_t` and the row
    /// kernels on 16-lane AVX-512 registers.
    Avx512 = 3,
}

impl Kernel {
    /// Every backend, narrowest first.
    pub const ALL: [Kernel; 3] = [Kernel::Scalar, Kernel::Avx2Fma, Kernel::Avx512];

    /// Short name for logs.
    pub fn as_str(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2Fma => "avx2+fma",
            Kernel::Avx512 => "avx512f",
        }
    }

    /// Whether this CPU (and target) can run the backend.
    pub fn is_available(self) -> bool {
        self <= widest()
    }
}

/// The widest backend this CPU (and target) can run. `Avx512` implies
/// `Avx2Fma`, whose bodies it borrows for the element-wise sweeps and the
/// softmax.
fn widest() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        return if std::arch::is_x86_feature_detected!("avx512f") {
            Kernel::Avx512
        } else {
            Kernel::Avx2Fma
        };
    }
    Kernel::Scalar
}

/// Process-wide resolved backend (a `Kernel` discriminant); 0 until first use.
static KERNEL: AtomicU8 = AtomicU8::new(0);

/// Whether this CPU (and target) can run a SIMD backend at all.
pub fn simd_available() -> bool {
    Kernel::Avx2Fma.is_available()
}

fn env_enabled() -> bool {
    match std::env::var("NNLQP_SIMD") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "off" | "0" | "scalar" | "false" | "no"
        ),
        Err(_) => true,
    }
}

/// The active backend for dispatched entry points (`Matrix::matmul` and
/// friends). Resolved once from `NNLQP_SIMD` + CPU detection, then cached.
pub fn kernel() -> Kernel {
    match KERNEL.load(Ordering::Relaxed) {
        1 => Kernel::Scalar,
        2 => Kernel::Avx2Fma,
        3 => Kernel::Avx512,
        _ => {
            set_simd_enabled(env_enabled());
            kernel()
        }
    }
}

/// Force the backend: `false` pins the scalar reference kernels, `true`
/// re-enables the widest SIMD backend the CPU supports (no-op to `Scalar`
/// otherwise). Overrides whatever `NNLQP_SIMD` said.
pub fn set_simd_enabled(enabled: bool) {
    let k = if enabled { widest() } else { Kernel::Scalar };
    KERNEL.store(k as u8, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Dispatched slice kernels. Each scalar arm is the exact loop the matrix
// code ran before SIMD; each AVX2 arm is proven (tests + the parity suite)
// to match it bitwise unless noted.
// ---------------------------------------------------------------------------

/// Call an `avx2::` kernel on x86-64; unreachable elsewhere (no SIMD
/// variant is ever resolved off x86-64).
macro_rules! avx2_call {
    ($f:ident ( $($arg:expr),* )) => {{
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch resolves to `Kernel::Avx2Fma` / `Kernel::Avx512`
        // only after `is_x86_feature_detected!("avx2")` && `("fma")` both
        // passed (see `widest`), and the entry points that take a backend
        // from outside the crate assert `is_available` first.
        let out = unsafe { avx2::$f($($arg),*) };
        #[cfg(not(target_arch = "x86_64"))]
        let out = unreachable!("AVX2 kernel selected on non-x86_64");
        out
    }};
}

/// The A operand of [`gemm`]: element `(i, kk)` lives at
/// `data[i * row_stride + kk * k_stride]`. `(k, 1)` reads a row-major
/// `[m, k]` matrix as it is; `(1, m)` reads a row-major `[k, m]` matrix
/// transposed without materialising the transpose.
#[derive(Clone, Copy)]
pub(crate) struct Strided<'a> {
    pub data: &'a [f32],
    pub row_stride: usize,
    pub k_stride: usize,
}

/// `c[i * ldc + j] = sum_kk a(i, kk) * b[kk * ldb + j]` for `i < m`,
/// `j < n`: every output element is one ascending-`kk` chain starting from
/// `+0.0` and is overwritten, never read (`k == 0` writes zeros). `ldb` and
/// `ldc` are the row strides of B and C, so a packed panel (`ldb = n`) can
/// land in a column block of a wider output (`ldc > n`).
///
/// # Panics
/// If an operand is too short for its shape and strides, or `kern` is a
/// backend this CPU cannot run.
pub(crate) fn gemm(
    kern: Kernel,
    (m, k, n): (usize, usize, usize),
    a: Strided,
    (b, ldb): (&[f32], usize),
    (c, ldc): (&mut [f32], usize),
) {
    if m == 0 || n == 0 {
        return;
    }
    // One past the last element an operand's shape touches.
    let extent = |rows: usize, stride: usize, cols: usize| {
        ((rows - 1).checked_mul(stride))
            .and_then(|x| x.checked_add(cols))
            .expect("gemm operand extent overflows usize")
    };
    assert!(n <= ldb && n <= ldc, "gemm row stride below row width");
    assert!(extent(m, ldc, n) <= c.len(), "gemm output too short");
    if k > 0 {
        assert!(extent(k, ldb, n) <= b.len(), "gemm B operand too short");
        let a_cols = extent(k, a.k_stride, 1);
        assert!(
            extent(m, a.row_stride, a_cols) <= a.data.len(),
            "gemm A operand too short"
        );
    }
    assert!(kern.is_available(), "{kern:?} kernel on a CPU without it");
    // An empty sum forms no operand address; keep it off the pointer path.
    if kern == Kernel::Scalar || k == 0 {
        for i in 0..m {
            let out = &mut c[i * ldc..i * ldc + n];
            out.fill(0.0);
            for kk in 0..k {
                let av = a.data[i * a.row_stride + kk * a.k_stride];
                for (o, &bv) in out.iter_mut().zip(&b[kk * ldb..kk * ldb + n]) {
                    *o += av * bv;
                }
            }
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        let ops = tile::Operands {
            a: a.data.as_ptr(),
            a_row: a.row_stride,
            a_k: a.k_stride,
            b: b.as_ptr(),
            ldb,
            c: c.as_mut_ptr(),
            ldc,
        };
        // SAFETY: the asserts above bound every address the tile forms
        // (`i < m`, `kk < k`, `j < n` through these strides), and
        // `is_available` just confirmed the backend's target features.
        unsafe {
            if kern == Kernel::Avx512 {
                tile::gemm_avx512((m, k, n), ops);
            } else {
                tile::gemm_avx2((m, k, n), ops);
            }
        }
    }
}

/// Rows of A from which the `Avx512` backend transposes B for
/// `avx512::matmul_t` (the transposition costs about what 16 rows save).
const TRANSPOSE_MIN_ROWS: usize = 16;

/// B transposed for `avx512::matmul_t`, on its caller's stack: rows of a
/// multiple of 16 elements from a 64-byte boundary, so that no 16-lane load
/// of a row straddles a cache line (straddling loads cost that kernel a
/// third of its speed). 16 KiB: a 64 x 64 weight fits, and zeroing it is
/// a hundredth of the product it serves.
#[cfg(target_arch = "x86_64")]
#[repr(align(64))]
struct Transposed([f32; Transposed::LEN]);

#[cfg(target_arch = "x86_64")]
impl Transposed {
    const LEN: usize = 4096;

    /// Row-major `b: [n, kd]` as `kd` rows of `ld >= n`, zero beyond
    /// column `n`. The caller checks `kd * ld <= LEN`.
    fn of(b: &[f32], kd: usize, ld: usize) -> Self {
        let mut bt = Transposed([0.0; Self::LEN]);
        for (j, b_row) in b.chunks_exact(kd.max(1)).enumerate() {
            for (k, &v) in b_row.iter().enumerate() {
                bt.0[k * ld + j] = v;
            }
        }
        bt
    }
}

/// `A @ B^T` for row-major `a: [m, kd]` and `b: [n, kd]`:
/// `out[i * n + j] = dot(a[i * kd ..], b[j * kd ..])`, every element
/// overwritten. The SIMD dot product reduces across lanes in one pinned
/// order (see `avx2::dot`), however the outputs are blocked and whichever
/// body runs.
///
/// # Panics
/// If a slice is not exactly its shape long, or `kern` is a backend this
/// CPU cannot run.
pub(crate) fn matmul_t(
    kern: Kernel,
    (m, kd, n): (usize, usize, usize),
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    assert_eq!(Some(a.len()), m.checked_mul(kd), "matmul_t lhs extent");
    assert_eq!(Some(b.len()), n.checked_mul(kd), "matmul_t rhs extent");
    assert_eq!(Some(out.len()), m.checked_mul(n), "matmul_t out extent");
    assert!(kern.is_available(), "{kern:?} kernel on a CPU without it");
    #[cfg(target_arch = "x86_64")]
    if kern == Kernel::Avx512 && m >= TRANSPOSE_MIN_ROWS {
        let ld = n.next_multiple_of(avx512::LANES);
        if kd.saturating_mul(ld) <= Transposed::LEN {
            let bt = Transposed::of(b, kd, ld);
            let (a, bt, out) = (a.as_ptr(), (bt.0.as_ptr(), ld), out.as_mut_ptr());
            // SAFETY: `is_available` confirmed AVX-512F; `a` and `out` have
            // the extents asserted above; `bt` holds `kd` rows of `ld`, a
            // multiple of 16 no smaller than `n`.
            unsafe { avx512::matmul_t((m, kd, n), a, bt, out) };
            return;
        }
    }
    match kern {
        Kernel::Scalar => {
            for (i, out_row) in out.chunks_exact_mut(n.max(1)).enumerate() {
                let a_row = &a[i * kd..(i + 1) * kd];
                for (j, o) in out_row.iter_mut().enumerate() {
                    let b_row = &b[j * kd..(j + 1) * kd];
                    let mut acc = 0.0f32;
                    for kk in 0..kd {
                        acc += a_row[kk] * b_row[kk];
                    }
                    *o = acc;
                }
            }
        }
        Kernel::Avx2Fma | Kernel::Avx512 => {
            let (a, b, out) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
            avx2_call!(matmul_t((m, kd, n), a, b, out));
        }
    }
}

// ---------------------------------------------------------------------------
// Whole-matrix row kernels: one dispatch per matrix. Each is a safe loop
// (`mod rows`) that the scalar backend runs as the baseline build compiles
// it and the SIMD backends run compiled for AVX2 or AVX-512F — the same
// operations on every element in the same order, eight or sixteen lanes at
// a time where lanes map to columns, so all backends agree bit for bit.
// Nothing fuses: Rust never contracts a multiply and an add into an FMA, so
// a multiply followed by an add stays two roundings whatever the target.
// ---------------------------------------------------------------------------

/// Run `rows::$f` on the backend `$kern` names.
macro_rules! rows_call {
    ($kern:expr, $f:ident ( $($arg:expr),* )) => {{
        let kern: Kernel = $kern;
        assert!(kern.is_available(), "{kern:?} kernel on a CPU without it");
        match kern {
            Kernel::Scalar => rows::$f($($arg),*),
            Kernel::Avx2Fma => avx2_call!($f($($arg),*)),
            Kernel::Avx512 => {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `is_available` just confirmed AVX-512F.
                let out = unsafe { avx512::$f($($arg),*) };
                #[cfg(not(target_arch = "x86_64"))]
                let out = unreachable!("AVX-512 kernel selected on non-x86_64");
                out
            }
        }
    }};
}

/// ReLU backward in place: `d[i] = 0.0` wherever the forward *input*
/// `x[i] <= 0.0`, as a select rather than a branch on the sign.
pub fn relu_backward(kern: Kernel, x: &[f32], d: &mut [f32]) {
    assert_eq!(x.len(), d.len(), "relu_backward shape mismatch");
    rows_call!(kern, relu_backward(x, d));
}

/// Row-wise L2 normalization in place over a row-major `[rows, cols]`
/// matrix: `x_i /= max(||x_i||, 1e-8)`, the norm summed in ascending
/// column order. `norms`, when given, receives each row's clamped norm
/// (the backward pass needs them).
pub fn l2_normalize_rows(kern: Kernel, data: &mut [f32], cols: usize, norms: Option<&mut [f32]>) {
    if let Some(norms) = &norms {
        assert_eq!(
            Some(data.len()),
            norms.len().checked_mul(cols),
            "l2_normalize_rows shape mismatch"
        );
    }
    #[cfg(target_arch = "x86_64")]
    if kern == Kernel::Avx512 && cols > 0 {
        assert!(kern.is_available(), "{kern:?} kernel on a CPU without it");
        // SAFETY: `is_available` confirmed AVX-512F, and `norms` holds one
        // slot per whole row (asserted above).
        unsafe { avx512::l2_normalize_rows_in_lanes(data, cols, norms) };
        return;
    }
    rows_call!(kern, l2_normalize_rows(data, cols, norms));
}

/// Backward of [`l2_normalize_rows`] in place on the upstream gradient:
/// `d_i = (d_i - y_i (y_i . d_i)) / n_i`, with `y` the normalized output
/// and `norms` the clamped norms the forward recorded.
pub fn l2_normalize_rows_backward(
    kern: Kernel,
    y: &[f32],
    norms: &[f32],
    d: &mut [f32],
    cols: usize,
) {
    assert_eq!(
        y.len(),
        d.len(),
        "l2_normalize_rows_backward shape mismatch"
    );
    assert_eq!(
        Some(y.len()),
        norms.len().checked_mul(cols),
        "l2_normalize_rows_backward norms mismatch"
    );
    rows_call!(kern, l2_normalize_rows_backward(y, norms, d, cols));
}

/// CSR mean aggregation over row-major `x: [n, cols]`:
/// `out_i = (0 + x_j1 + x_j2 + ..) * (1 / |N(i)|)` in neighbor order, zero
/// for an isolated node. Every element of `out` is overwritten.
pub fn mean_agg(
    kern: Kernel,
    (row_ptr, col_idx): (&[u32], &[u32]),
    x: &[f32],
    cols: usize,
    out: &mut [f32],
) {
    assert_eq!(x.len(), out.len(), "mean_agg shape mismatch");
    assert_eq!(
        Some(out.len()),
        (row_ptr.len().saturating_sub(1)).checked_mul(cols),
        "mean_agg row count mismatch"
    );
    rows_call!(kern, mean_agg(row_ptr, col_idx, x, cols, out));
}

/// Backward of [`mean_agg`]: `dx` is zeroed, then for each node `i` in
/// ascending order `dx_j += d_out_i * (1 / |N(i)|)` for `j` in `N(i)` — a
/// multiply, then an add.
pub fn mean_agg_backward(
    kern: Kernel,
    (row_ptr, col_idx): (&[u32], &[u32]),
    d_out: &[f32],
    cols: usize,
    dx: &mut [f32],
) {
    assert_eq!(d_out.len(), dx.len(), "mean_agg_backward shape mismatch");
    assert_eq!(
        Some(dx.len()),
        (row_ptr.len().saturating_sub(1)).checked_mul(cols),
        "mean_agg_backward row count mismatch"
    );
    rows_call!(kern, mean_agg_backward(row_ptr, col_idx, d_out, cols, dx));
}

/// Bias and activation over a row-major `[rows, bias.len()]` matrix in
/// place: `x = x + bias[j]`, then, with `relu`, `0.0` where that sum is
/// `< 0.0` (a `-0.0` sum survives). Elements past the last whole row are
/// left alone: a head's one-row calls skip a shape check's division.
pub fn bias_act(kern: Kernel, data: &mut [f32], bias: &[f32], relu: bool) {
    rows_call!(kern, bias_act(data, bias, relu));
}

/// Two biased matrices summed into the first, then the activation:
/// `a = (a + a_bias[j]) + (b + b_bias[j])`, then, with `relu`, `0.0` where
/// that is `< 0.0` — [`bias_act`] on each, an element-wise add and a ReLU,
/// in one sweep with the same roundings.
pub fn add_biased(
    kern: Kernel,
    (a, a_bias): (&mut [f32], &[f32]),
    (b, b_bias): (&[f32], &[f32]),
    relu: bool,
) {
    assert_eq!(a.len(), b.len(), "add_biased shape mismatch");
    assert_eq!(a_bias.len(), b_bias.len(), "add_biased bias mismatch");
    assert_eq!(a.len() % a_bias.len().max(1), 0, "add_biased row width");
    rows_call!(kern, add_biased(a, a_bias, b, b_bias, relu));
}

/// Column sums of a row-major `[rows, cols]` matrix into `out`: each is
/// `+0.0` plus the column's values in ascending row order.
pub fn col_sums(kern: Kernel, data: &[f32], cols: usize, out: &mut [f32]) {
    assert_eq!(out.len(), cols, "col_sums out width");
    assert_eq!(data.len() % cols.max(1), 0, "col_sums shape mismatch");
    rows_call!(kern, col_sums(data, cols, out));
}

/// Lower clamp of a row norm in [`l2_normalize_rows`].
const L2_EPS: f32 = 1e-8;

/// The row kernels' one source, inlined into a baseline, an AVX2 and an
/// AVX-512F caller.
mod rows {
    use super::L2_EPS;

    #[inline(always)]
    pub fn relu_backward(x: &[f32], d: &mut [f32]) {
        for (d, &xv) in d.iter_mut().zip(x) {
            *d = if xv <= 0.0 { 0.0 } else { *d };
        }
    }

    /// `-0.0`, where `f32::sum` starts: the chains below replace
    /// `iter().sum()` calls and must agree with them on a lone `-0.0` term.
    const SUM_START: f32 = -0.0;

    /// Rows whose dot products run side by side.
    const INTERLEAVE: usize = 4;

    /// Row-wise `sum_j a[j] * b[j]` of the four rows of `cols` in each
    /// block: four independent ascending-`j` chains (a multiply, then an
    /// add), interleaved so one chain's add latency hides behind the other
    /// three. (Eight chains measured no faster: the scalar multiplies and
    /// adds are then the limit, not their latency.)
    #[inline(always)]
    fn dots(a: &[f32], b: &[f32], cols: usize) -> [f32; INTERLEAVE] {
        let [a0, a1, a2, a3] = rows_of(a, cols);
        let [b0, b1, b2, b3] = rows_of(b, cols);
        let rows01 = a0.iter().zip(b0).zip(a1.iter().zip(b1));
        let rows23 = a2.iter().zip(b2).zip(a3.iter().zip(b3));
        let mut s = [SUM_START; INTERLEAVE];
        for (((x0, y0), (x1, y1)), ((x2, y2), (x3, y3))) in rows01.zip(rows23) {
            s[0] += x0 * y0;
            s[1] += x1 * y1;
            s[2] += x2 * y2;
            s[3] += x3 * y3;
        }
        s
    }

    #[inline(always)]
    fn rows_of(block: &[f32], cols: usize) -> [&[f32]; INTERLEAVE] {
        let (r0, rest) = block.split_at(cols);
        let (r1, rest) = rest.split_at(cols);
        let (r2, r3) = rest.split_at(cols);
        [r0, r1, r2, r3]
    }

    #[inline(always)]
    fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut s = SUM_START;
        for (x, y) in a.iter().zip(b) {
            s += x * y;
        }
        s
    }

    #[inline(always)]
    fn clamped_norm(sum_sq: f32) -> f32 {
        sum_sq.sqrt().max(L2_EPS)
    }

    #[inline(always)]
    pub fn l2_normalize_rows(data: &mut [f32], cols: usize, mut norms: Option<&mut [f32]>) {
        if cols == 0 {
            if let Some(norms) = norms {
                norms.fill(clamped_norm(SUM_START));
            }
            return;
        }
        let mut divide = |i: usize, row: &mut [f32], n: f32| {
            // A division, never a multiply by the reciprocal.
            for v in row {
                *v /= n;
            }
            if let Some(norms) = norms.as_deref_mut() {
                norms[i] = n;
            }
        };
        let mut blocks = data.chunks_exact_mut(INTERLEAVE * cols);
        let mut i = 0;
        for block in &mut blocks {
            let n = dots(block, block, cols).map(clamped_norm);
            for (row, n) in block.chunks_exact_mut(cols).zip(n) {
                divide(i, row, n);
                i += 1;
            }
        }
        for row in blocks.into_remainder().chunks_exact_mut(cols) {
            let n = clamped_norm(dot(row, row));
            divide(i, row, n);
            i += 1;
        }
    }

    #[inline(always)]
    pub fn l2_normalize_rows_backward(y: &[f32], norms: &[f32], d: &mut [f32], cols: usize) {
        if cols == 0 {
            return;
        }
        #[inline(always)]
        fn through(d: &mut [f32], y: &[f32], dot: f32, n: f32) {
            for (d, &y) in d.iter_mut().zip(y) {
                *d = (*d - y * dot) / n;
            }
        }
        let mut d_blocks = d.chunks_exact_mut(INTERLEAVE * cols);
        let y_blocks = y.chunks_exact(INTERLEAVE * cols);
        let y_rest = y_blocks.remainder();
        let n_blocks = norms.chunks_exact(INTERLEAVE);
        let n_rest = n_blocks.remainder();
        for ((d_block, y_block), n) in (&mut d_blocks).zip(y_blocks).zip(n_blocks) {
            let dots = dots(y_block, d_block, cols);
            let rows = d_block
                .chunks_exact_mut(cols)
                .zip(y_block.chunks_exact(cols));
            for ((d_row, y_row), (dot, &n)) in rows.zip(dots.into_iter().zip(n)) {
                through(d_row, y_row, dot, n);
            }
        }
        let d_rest = d_blocks.into_remainder().chunks_exact_mut(cols);
        for ((d_row, y_row), &n) in d_rest.zip(y_rest.chunks_exact(cols)).zip(n_rest) {
            let dot = dot(y_row, d_row);
            through(d_row, y_row, dot, n);
        }
    }

    #[inline(always)]
    fn neighbors<'a>(row_ptr: &[u32], col_idx: &'a [u32], i: usize) -> &'a [u32] {
        &col_idx[row_ptr[i] as usize..row_ptr[i + 1] as usize]
    }

    /// `out[c..c + W] = scale * sum` over the rows `rows` lists, each
    /// column's sum zero plus the rows' values in list order (never
    /// started from the first row: `0.0 + -0.0` is `+0.0`), in registers.
    #[inline(always)]
    fn sum_block<const W: usize>(
        (x, cols): (&[f32], usize),
        c: usize,
        rows: impl Iterator<Item = usize>,
        scale: f32,
        out: &mut [f32],
    ) {
        let mut acc = [0.0f32; W];
        for j in rows {
            let src = &x[j * cols + c..][..W];
            for (a, &v) in acc.iter_mut().zip(src) {
                *a += v;
            }
        }
        for (o, a) in out[c..][..W].iter_mut().zip(acc) {
            *o = a * scale;
        }
    }

    /// [`sum_block`] over every column of `out`: blocks of 16, then one of
    /// 8 and one of 4, then one column at a time.
    #[inline(always)]
    fn sum_rows(
        x: (&[f32], usize),
        rows: impl Iterator<Item = usize> + Clone,
        scale: f32,
        out: &mut [f32],
    ) {
        let mut c = 0;
        while c + 32 <= out.len() {
            sum_block::<32>(x, c, rows.clone(), scale, out);
            c += 32;
        }
        if c + 16 <= out.len() {
            sum_block::<16>(x, c, rows.clone(), scale, out);
            c += 16;
        }
        if c + 8 <= out.len() {
            sum_block::<8>(x, c, rows.clone(), scale, out);
            c += 8;
        }
        if c + 4 <= out.len() {
            sum_block::<4>(x, c, rows.clone(), scale, out);
            c += 4;
        }
        while c < out.len() {
            sum_block::<1>(x, c, rows.clone(), scale, out);
            c += 1;
        }
    }

    #[inline(always)]
    pub fn mean_agg(row_ptr: &[u32], col_idx: &[u32], x: &[f32], cols: usize, out: &mut [f32]) {
        if cols == 0 {
            return;
        }
        for (i, out_row) in out.chunks_exact_mut(cols).enumerate() {
            let nb = neighbors(row_ptr, col_idx, i);
            if nb.is_empty() {
                out_row.fill(0.0);
                continue;
            }
            let inv = 1.0 / nb.len() as f32;
            sum_rows((x, cols), nb.iter().map(|&j| j as usize), inv, out_row);
        }
    }

    /// Column sums: [`sum_rows`] over every row, scaled by `1.0` (exact).
    #[inline(always)]
    pub fn col_sums(data: &[f32], cols: usize, out: &mut [f32]) {
        if cols == 0 {
            return;
        }
        sum_rows((data, cols), 0..data.len() / cols, 1.0, out);
    }

    #[inline(always)]
    pub fn add_biased(a: &mut [f32], a_bias: &[f32], b: &[f32], b_bias: &[f32], relu: bool) {
        let cols = a_bias.len();
        if cols == 0 {
            return;
        }
        for (ra, rb) in a.chunks_exact_mut(cols).zip(b.chunks_exact(cols)) {
            let biases = a_bias.iter().zip(b_bias);
            for ((x, &y), (&ab, &bb)) in ra.iter_mut().zip(rb).zip(biases) {
                let v = (*x + ab) + (y + bb);
                *x = if relu && v < 0.0 { 0.0 } else { v };
            }
        }
    }

    #[inline(always)]
    pub fn bias_act(data: &mut [f32], bias: &[f32], relu: bool) {
        if bias.is_empty() {
            return;
        }
        for row in data.chunks_exact_mut(bias.len()) {
            for (a, &b) in row.iter_mut().zip(bias) {
                let v = *a + b;
                *a = if relu && v < 0.0 { 0.0 } else { v };
            }
        }
    }

    #[inline(always)]
    pub fn mean_agg_backward(
        row_ptr: &[u32],
        col_idx: &[u32],
        d_out: &[f32],
        cols: usize,
        dx: &mut [f32],
    ) {
        dx.fill(0.0);
        if cols == 0 {
            return;
        }
        for (i, src) in d_out.chunks_exact(cols).enumerate() {
            let nb = neighbors(row_ptr, col_idx, i);
            if nb.is_empty() {
                continue;
            }
            let inv = 1.0 / nb.len() as f32;
            for &j in nb {
                let dst = &mut dx[j as usize * cols..][..cols];
                for (d, &v) in dst.iter_mut().zip(src) {
                    *d += v * inv;
                }
            }
        }
    }
}

/// `dst[i] += src[i]` (element-wise add; exact on both backends).
#[inline]
pub(crate) fn add_slice(kern: Kernel, dst: &mut [f32], src: &[f32]) {
    match kern {
        Kernel::Scalar => {
            for (a, b) in dst.iter_mut().zip(src) {
                *a += b;
            }
        }
        Kernel::Avx2Fma | Kernel::Avx512 => avx2_call!(add_slice(dst, src)),
    }
}

/// `dst[i] *= s` (exact on both backends).
#[inline]
pub(crate) fn scale_slice(kern: Kernel, dst: &mut [f32], s: f32) {
    match kern {
        Kernel::Scalar => {
            for a in dst.iter_mut() {
                *a *= s;
            }
        }
        Kernel::Avx2Fma | Kernel::Avx512 => avx2_call!(scale_slice(dst, s)),
    }
}

/// `dst[i] = dst[i] * s + src[i]` as a separate multiply then add (NOT
/// fused), so it is bit-identical to `scale_slice` followed by
/// `add_slice` on every backend — the attention score epilogue relies on
/// that to fuse two sweeps without moving a single bit.
#[inline]
pub(crate) fn scale_add_slice(kern: Kernel, dst: &mut [f32], s: f32, src: &[f32]) {
    match kern {
        Kernel::Scalar => {
            for (a, &b) in dst.iter_mut().zip(src) {
                *a = *a * s + b;
            }
        }
        Kernel::Avx2Fma | Kernel::Avx512 => avx2_call!(scale_add_slice(dst, s, src)),
    }
}

/// In-place ReLU (`v < 0.0` mask; exact on both backends).
#[inline]
pub(crate) fn relu_slice(kern: Kernel, xs: &mut [f32]) {
    match kern {
        Kernel::Scalar => {
            for v in xs.iter_mut() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
        Kernel::Avx2Fma | Kernel::Avx512 => avx2_call!(relu_slice(xs)),
    }
}

/// Row maximum, seeded with `-inf` (softmax stabilizer). Max selection is
/// order-independent for non-NaN input, so backends agree.
#[inline]
pub(crate) fn max_slice(kern: Kernel, xs: &[f32]) -> f32 {
    match kern {
        Kernel::Scalar => {
            let mut max = f32::NEG_INFINITY;
            for &v in xs {
                if v > max {
                    max = v;
                }
            }
            max
        }
        Kernel::Avx2Fma | Kernel::Avx512 => avx2_call!(max_slice(xs)),
    }
}

/// Softmax numerator: `xs[j] = exp(xs[j] - max)` in place, returning the
/// sum of the results. The scalar arm calls libm `exp` per element and is
/// bit-identical to the pre-SIMD code. The AVX2 arm evaluates a degree-6
/// polynomial `2^f * exp(r)` split (relative error ~1e-8, far inside the
/// ≤1e-5 cross-backend tolerance the FMA GEMMs already set) and sums in
/// lanes — like the GEMMs, numerically equivalent but not bitwise equal
/// to scalar. Each backend is fully deterministic.
#[inline]
pub(crate) fn exp_sum_slice(kern: Kernel, xs: &mut [f32], max: f32) -> f32 {
    match kern {
        Kernel::Scalar => {
            let mut sum = 0.0f32;
            for v in xs.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            sum
        }
        Kernel::Avx2Fma | Kernel::Avx512 => avx2_call!(exp_sum_slice(xs, max)),
    }
}

/// The GEMM register tile, written once over [`tile::Vector`] and
/// instantiated for 256-bit and 512-bit registers.
#[cfg(target_arch = "x86_64")]
mod tile {
    use std::arch::x86_64::*;

    /// The vector operations the tile needs. Lanes never interact, and
    /// `fmadd` rounds once per lane, so a lane computes what a scalar
    /// `f32::mul_add` chain computes whatever the register width.
    ///
    /// # Safety
    /// Every method requires the implementor's target features on the
    /// running CPU; the pointer methods additionally require the lanes they
    /// touch (`LANES`, or the first `n <= LANES` for the `_tail` pair) to be
    /// in bounds. Masked-off lanes are never accessed.
    pub(super) trait Vector: Copy {
        const LANES: usize;
        /// Widest tile, in vectors. With the `R` rows its `gemm_*` entry
        /// point picks, `R * MAX_VECS` accumulators, `MAX_VECS` vectors of
        /// B, two broadcasts of A in flight and (256-bit only) the tail
        /// mask must fit the register file: one spilled accumulator puts a
        /// store-to-load round trip on its FMA chain every step.
        const MAX_VECS: usize;
        unsafe fn splat(x: f32) -> Self;
        unsafe fn fmadd(a: Self, b: Self, acc: Self) -> Self;
        unsafe fn load(p: *const f32) -> Self;
        /// The first `n` lanes from `p`, the rest `+0.0`.
        unsafe fn load_tail(p: *const f32, n: usize) -> Self;
        unsafe fn store(self, p: *mut f32);
        /// The first `n` lanes to `p`.
        unsafe fn store_tail(self, p: *mut f32, n: usize);
    }

    /// Lane mask selecting the first `n` of 8 lanes (sign bit set).
    #[inline(always)]
    unsafe fn mask8(n: usize) -> __m256i {
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), lane)
    }

    impl Vector for __m256 {
        const LANES: usize = 8;
        const MAX_VECS: usize = 3;
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            _mm256_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn fmadd(a: Self, b: Self, acc: Self) -> Self {
            _mm256_fmadd_ps(a, b, acc)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn load_tail(p: *const f32, n: usize) -> Self {
            _mm256_maskload_ps(p, mask8(n))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self);
        }
        #[inline(always)]
        unsafe fn store_tail(self, p: *mut f32, n: usize) {
            _mm256_maskstore_ps(p, mask8(n), self);
        }
    }

    /// Lane mask selecting the first `n <= 16` of 16 lanes.
    #[inline(always)]
    fn mask16(n: usize) -> __mmask16 {
        ((1u32 << n) - 1) as __mmask16
    }

    impl Vector for __m512 {
        const LANES: usize = 16;
        const MAX_VECS: usize = 4;
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            _mm512_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn fmadd(a: Self, b: Self, acc: Self) -> Self {
            _mm512_fmadd_ps(a, b, acc)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm512_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn load_tail(p: *const f32, n: usize) -> Self {
            _mm512_maskz_loadu_ps(mask16(n), p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm512_storeu_ps(p, self);
        }
        #[inline(always)]
        unsafe fn store_tail(self, p: *mut f32, n: usize) {
            _mm512_mask_storeu_ps(p, mask16(n), self);
        }
    }

    /// Base pointers and row strides of the three operands; A is read as
    /// `a[i * a_row + kk * a_k]` (see [`super::Strided`]).
    #[derive(Clone, Copy)]
    pub(super) struct Operands {
        pub a: *const f32,
        pub a_row: usize,
        pub a_k: usize,
        pub b: *const f32,
        pub ldb: usize,
        pub c: *mut f32,
        pub ldc: usize,
    }

    impl Operands {
        /// The operands of the sub-product whose C starts at `(i, j)`.
        #[inline(always)]
        unsafe fn at(self, i: usize, j: usize) -> Self {
            Operands {
                a: self.a.add(i * self.a_row),
                b: self.b.add(j),
                c: self.c.add(i * self.ldc + j),
                ..self
            }
        }
    }

    /// One `R`-row x `VECS`-vector block of C, accumulated in registers
    /// across the whole `k` loop: each step loads `VECS` vectors of one B
    /// row once and feeds them to `R` broadcasts of A. The last vector is
    /// `tail` lanes wide; `MASKED` says whether that is fewer than `LANES`,
    /// so full-width blocks are compiled without a mask.
    ///
    /// # Safety
    /// `V`'s target features; `o` valid for `R` rows, `k` steps and
    /// `(VECS - 1) * LANES + tail` columns; `MASKED == (tail < LANES)`.
    #[inline(always)]
    unsafe fn tile<V: Vector, const R: usize, const VECS: usize, const MASKED: bool>(
        k: usize,
        o: Operands,
        tail: usize,
    ) {
        let last = (VECS - 1) * V::LANES;
        let mut acc = [[V::splat(0.0); VECS]; R];
        for kk in 0..k {
            let bp = o.b.add(kk * o.ldb);
            let b_last = if MASKED {
                V::load_tail(bp.add(last), tail)
            } else {
                V::load(bp.add(last))
            };
            let mut bv = [b_last; VECS];
            for (v, bvec) in bv.iter_mut().enumerate().take(VECS - 1) {
                *bvec = V::load(bp.add(v * V::LANES));
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let av = V::splat(*o.a.add(r * o.a_row + kk * o.a_k));
                for (x, &bvec) in row.iter_mut().zip(&bv) {
                    *x = V::fmadd(av, bvec, *x);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            let cp = o.c.add(r * o.ldc);
            for (v, x) in row.iter().enumerate().take(VECS - 1) {
                x.store(cp.add(v * V::LANES));
            }
            if MASKED {
                row[VECS - 1].store_tail(cp.add(last), tail);
            } else {
                row[VECS - 1].store(cp.add(last));
            }
        }
    }

    /// All `m` rows of one column block: `R`-row tiles, then single rows.
    #[inline(always)]
    unsafe fn rows<V: Vector, const R: usize, const VECS: usize, const MASKED: bool>(
        m: usize,
        k: usize,
        o: Operands,
        tail: usize,
    ) {
        let mut i = 0;
        while i + R <= m {
            tile::<V, R, VECS, MASKED>(k, o.at(i, 0), tail);
            i += R;
        }
        while i < m {
            tile::<V, 1, VECS, MASKED>(k, o.at(i, 0), tail);
            i += 1;
        }
    }

    /// The whole product in `R`-row tiles: C's columns are cut into blocks
    /// of at most `MAX_VECS` vectors, as evenly as the vector count allows
    /// (a lone narrow block would run too few FMA chains to hide their
    /// latency).
    ///
    /// # Safety
    /// `V`'s target features, and every `(i < m, kk < k, j < n)` address
    /// through `o`'s strides in bounds — what [`super::gemm`] asserts.
    #[inline(always)]
    unsafe fn gemm<V: Vector, const R: usize>((m, k, n): (usize, usize, usize), o: Operands) {
        let vecs = n.div_ceil(V::LANES);
        let blocks = vecs.div_ceil(V::MAX_VECS);
        let mut v0 = 0;
        for blk in 0..blocks {
            let nv = vecs / blocks + usize::from(blk < vecs % blocks);
            let j = v0 * V::LANES;
            v0 += nv;
            // Only C's last vector can be partial.
            let tail = (n - j).min(nv * V::LANES) - (nv - 1) * V::LANES;
            let oj = o.at(0, j);
            match (nv, tail < V::LANES) {
                (1, false) => rows::<V, R, 1, false>(m, k, oj, tail),
                (1, true) => rows::<V, R, 1, true>(m, k, oj, tail),
                (2, false) => rows::<V, R, 2, false>(m, k, oj, tail),
                (2, true) => rows::<V, R, 2, true>(m, k, oj, tail),
                (3, false) => rows::<V, R, 3, false>(m, k, oj, tail),
                (3, true) => rows::<V, R, 3, true>(m, k, oj, tail),
                (_, false) => rows::<V, R, 4, false>(m, k, oj, tail),
                (_, true) => rows::<V, R, 4, true>(m, k, oj, tail),
            }
        }
    }

    /// 3x3 ymm tiles: 9 accumulators + 3 B + 2 A + the mask = 15 of 16
    /// registers (a 4x3 tile spills).
    ///
    /// # Safety
    /// AVX2 and FMA on the running CPU, plus [`gemm`]'s bounds.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemm_avx2(dims: (usize, usize, usize), o: Operands) {
        gemm::<__m256, 3>(dims, o);
    }

    /// 4x4 zmm tiles: 16 accumulators + 4 B + 2 A = 22 of 32 registers.
    ///
    /// # Safety
    /// AVX-512F on the running CPU, plus [`gemm`]'s bounds.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn gemm_avx512(dims: (usize, usize, usize), o: Operands) {
        gemm::<__m512, 4>(dims, o);
    }
}

/// The `rows` loops compiled with `$feature` enabled, one entry point each
/// in the SIMD backends' modules (the AVX2 build enables no FMA; nothing
/// fuses either way).
#[cfg(target_arch = "x86_64")]
macro_rules! row_kernels {
    ($feature:literal) => {
        row_kernels! { $feature:
            relu_backward(x: &[f32], d: &mut [f32]);
            l2_normalize_rows(data: &mut [f32], cols: usize, norms: Option<&mut [f32]>);
            l2_normalize_rows_backward(y: &[f32], norms: &[f32], d: &mut [f32], cols: usize);
            mean_agg(row_ptr: &[u32], col_idx: &[u32], x: &[f32], cols: usize, out: &mut [f32]);
            mean_agg_backward(row_ptr: &[u32], col_idx: &[u32], d_out: &[f32], cols: usize, dx: &mut [f32]);
            col_sums(data: &[f32], cols: usize, out: &mut [f32]);
            bias_act(data: &mut [f32], bias: &[f32], relu: bool);
            add_biased(a: &mut [f32], a_bias: &[f32], b: &[f32], b_bias: &[f32], relu: bool);
        }
    };
    ($feature:literal: $($f:ident ( $($arg:ident : $ty:ty),* );)*) => {$(
        /// # Safety
        #[doc = concat!("`", $feature, "` on the running CPU.")]
        #[target_feature(enable = $feature)]
        pub unsafe fn $f($($arg: $ty),*) {
            super::rows::$f($($arg),*);
        }
    )*};
}

/// The AVX2/FMA bodies. Everything here is `unsafe fn` with
/// `#[target_feature]`: callers must have verified the CPU features
/// (enforced by the dispatch invariant above).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    const LANES: usize = 8;

    /// Horizontal sum of an 8-lane f32 vector.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let hi = _mm256_extractf128_ps(v, 1);
        let lo = _mm256_castps256_ps128(v);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_hadd_ps(s, s);
        let s = _mm_hadd_ps(s, s);
        _mm_cvtss_f32(s)
    }

    /// Vectorized `exp` for 8 lanes: `exp(x) = 2^f * exp(r)` with
    /// `f = round(x * log2 e)` and `r = x*ln2-split` in `[-ln2/2, ln2/2]`,
    /// where `exp(r)` is a degree-6 Taylor/Horner polynomial (max relative
    /// error ~1e-8 on the reduced range) and `2^f` is built by shifting
    /// `f + 127` into the float exponent field. Inputs are clamped to
    /// ±87 so the exponent reconstruction cannot wrap.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp8(x: __m256) -> __m256 {
        let x = _mm256_max_ps(
            _mm256_min_ps(x, _mm256_set1_ps(87.0)),
            _mm256_set1_ps(-87.0),
        );
        let t = _mm256_mul_ps(x, _mm256_set1_ps(std::f32::consts::LOG2_E));
        let f = _mm256_round_ps(t, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        // r = x - f*ln2, in two steps (hi/lo split) for extra precision.
        let r = _mm256_fnmadd_ps(f, _mm256_set1_ps(0.693_359_4), x);
        let r = _mm256_fnmadd_ps(f, _mm256_set1_ps(-2.121_944_4e-4), r);
        // exp(r) ~= 1 + r + r^2/2 + ... + r^6/720, Horner with FMAs.
        let mut p = _mm256_set1_ps(1.0 / 720.0);
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0 / 120.0));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0 / 24.0));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0 / 6.0));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(0.5));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0));
        let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvtps_epi32(f),
            _mm256_set1_epi32(127),
        )));
        _mm256_mul_ps(p, pow2)
    }

    /// `xs[j] = exp(xs[j] - max)` in place; returns the sum. The tail
    /// (< 8 lanes) runs through the same polynomial via a zero-padded
    /// stack buffer, so every element sees identical math.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn exp_sum_slice(xs: &mut [f32], max: f32) -> f32 {
        let n = xs.len();
        let vmax = _mm256_set1_ps(max);
        let mut vsum = _mm256_setzero_ps();
        let p = xs.as_mut_ptr();
        let mut j = 0;
        while j + LANES <= n {
            let e = exp8(_mm256_sub_ps(_mm256_loadu_ps(p.add(j)), vmax));
            _mm256_storeu_ps(p.add(j), e);
            vsum = _mm256_add_ps(vsum, e);
            j += LANES;
        }
        let mut sum = hsum(vsum);
        if j < n {
            let mut buf = [0.0f32; LANES]; // padding lanes are never read back
            buf[..n - j].copy_from_slice(&xs[j..]);
            let mut out = [0.0f32; LANES];
            _mm256_storeu_ps(
                out.as_mut_ptr(),
                exp8(_mm256_sub_ps(_mm256_loadu_ps(buf.as_ptr()), vmax)),
            );
            for (dst, &e) in xs[j..].iter_mut().zip(&out) {
                *dst = e;
                sum += e;
            }
        }
        sum
    }

    /// Multi-accumulator FMA dot product. The two vector accumulators and
    /// the lane reduction reassociate the sum relative to the scalar
    /// kernel — this is the one helper that is tolerance-compared, like
    /// the GEMM rows that call it.
    ///
    /// # Safety
    /// AVX2 and FMA; `ap` and `bp` valid for `n` reads.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot(ap: *const f32, bp: *const f32, n: usize) -> f32 {
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut j = 0;
        while j + 2 * LANES <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(j)), _mm256_loadu_ps(bp.add(j)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(j + LANES)),
                _mm256_loadu_ps(bp.add(j + LANES)),
                acc1,
            );
            j += 2 * LANES;
        }
        if j + LANES <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(j)), _mm256_loadu_ps(bp.add(j)), acc0);
            j += LANES;
        }
        let mut r = hsum(_mm256_add_ps(acc0, acc1));
        while j < n {
            r = (*ap.add(j)).mul_add(*bp.add(j), r);
            j += 1;
        }
        r
    }

    /// [`dot`] of one A row against four consecutive B rows at once: each
    /// output keeps `dot`'s own two-accumulator chain, but every load of A
    /// feeds four FMAs, and the four lane reductions share one `hadd` tree
    /// — `s_c = lo(v_c) + hi(v_c)`, then `hadd(hadd(s0, s1), hadd(s2, s3))`
    /// adds, per output, `(l0+l4 + l1+l5) + (l2+l6 + l3+l7)`, which is
    /// exactly [`hsum`]. Bit-identical to four `dot` calls.
    ///
    /// # Safety
    /// AVX2 and FMA; `a` valid for `kd` reads, `b` for `4 * kd`, `out` for
    /// four writes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot4(a: *const f32, b: *const f32, kd: usize, out: *mut f32) {
        let rows = [b, b.add(kd), b.add(2 * kd), b.add(3 * kd)];
        let mut acc0 = [_mm256_setzero_ps(); 4];
        let mut acc1 = [_mm256_setzero_ps(); 4];
        let mut j = 0;
        while j + 2 * LANES <= kd {
            let a0 = _mm256_loadu_ps(a.add(j));
            let a1 = _mm256_loadu_ps(a.add(j + LANES));
            for c in 0..4 {
                acc0[c] = _mm256_fmadd_ps(a0, _mm256_loadu_ps(rows[c].add(j)), acc0[c]);
                acc1[c] = _mm256_fmadd_ps(a1, _mm256_loadu_ps(rows[c].add(j + LANES)), acc1[c]);
            }
            j += 2 * LANES;
        }
        if j + LANES <= kd {
            let a0 = _mm256_loadu_ps(a.add(j));
            for c in 0..4 {
                acc0[c] = _mm256_fmadd_ps(a0, _mm256_loadu_ps(rows[c].add(j)), acc0[c]);
            }
            j += LANES;
        }
        let mut s = [_mm_setzero_ps(); 4];
        for c in 0..4 {
            let v = _mm256_add_ps(acc0[c], acc1[c]);
            s[c] = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
        }
        let sums = _mm_hadd_ps(_mm_hadd_ps(s[0], s[1]), _mm_hadd_ps(s[2], s[3]));
        let mut r = [0.0f32; 4];
        _mm_storeu_ps(r.as_mut_ptr(), sums);
        while j < kd {
            let av = *a.add(j);
            for c in 0..4 {
                r[c] = av.mul_add(*rows[c].add(j), r[c]);
            }
            j += 1;
        }
        _mm_storeu_ps(out, _mm_loadu_ps(r.as_ptr()));
    }

    /// `A @ B^T`, four output columns per pass ([`dot4`]); leftover
    /// columns, and products too short for one vector of `k` (nothing to
    /// share), take one [`dot`] each.
    ///
    /// # Safety
    /// AVX2 and FMA; `a`, `b` and `out` valid for `m * kd`, `n * kd` and
    /// `m * n` elements.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul_t(
        (m, kd, n): (usize, usize, usize),
        a: *const f32,
        b: *const f32,
        out: *mut f32,
    ) {
        let blocked = if kd < LANES { 0 } else { n - n % 4 };
        for i in 0..m {
            let a_row = a.add(i * kd);
            let out_row = out.add(i * n);
            for j in (0..blocked).step_by(4) {
                dot4(a_row, b.add(j * kd), kd, out_row.add(j));
            }
            for j in blocked..n {
                *out_row.add(j) = dot(a_row, b.add(j * kd), kd);
            }
        }
    }

    row_kernels!("avx2");

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn add_slice(dst: &mut [f32], src: &[f32]) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let mut j = 0;
        while j + LANES <= n {
            let d = _mm256_loadu_ps(dp.add(j));
            let s = _mm256_loadu_ps(sp.add(j));
            _mm256_storeu_ps(dp.add(j), _mm256_add_ps(d, s));
            j += LANES;
        }
        while j < n {
            *dp.add(j) += *sp.add(j);
            j += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scale_slice(dst: &mut [f32], s: f32) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let vs = _mm256_set1_ps(s);
        let mut j = 0;
        while j + LANES <= n {
            _mm256_storeu_ps(dp.add(j), _mm256_mul_ps(_mm256_loadu_ps(dp.add(j)), vs));
            j += LANES;
        }
        while j < n {
            *dp.add(j) *= s;
            j += 1;
        }
    }

    /// `dst = dst * s + src` as separate mul then add — deliberately NOT
    /// an FMA, to stay bit-identical to scale-then-add on every backend.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scale_add_slice(dst: &mut [f32], s: f32, src: &[f32]) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let vs = _mm256_set1_ps(s);
        let mut j = 0;
        while j + LANES <= n {
            let scaled = _mm256_mul_ps(_mm256_loadu_ps(dp.add(j)), vs);
            _mm256_storeu_ps(dp.add(j), _mm256_add_ps(scaled, _mm256_loadu_ps(sp.add(j))));
            j += LANES;
        }
        while j < n {
            *dp.add(j) = *dp.add(j) * s + *sp.add(j);
            j += 1;
        }
    }

    /// ReLU mask: keep `v` where `!(v < 0.0)`. `cmp_lt` + `andnot` (not
    /// `max_ps`) so `-0.0` is preserved exactly like the scalar branch.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn relu_vec(v: __m256) -> __m256 {
        let neg = _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_LT_OQ);
        _mm256_andnot_ps(neg, v)
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn relu_slice(xs: &mut [f32]) {
        let n = xs.len();
        let p = xs.as_mut_ptr();
        let mut j = 0;
        while j + LANES <= n {
            _mm256_storeu_ps(p.add(j), relu_vec(_mm256_loadu_ps(p.add(j))));
            j += LANES;
        }
        while j < n {
            if *p.add(j) < 0.0 {
                *p.add(j) = 0.0;
            }
            j += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn max_slice(xs: &[f32]) -> f32 {
        let n = xs.len();
        let p = xs.as_ptr();
        let mut vmax = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut j = 0;
        while j + LANES <= n {
            vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(p.add(j)));
            j += LANES;
        }
        // Reduce lanes.
        let hi = _mm256_extractf128_ps(vmax, 1);
        let lo = _mm256_castps256_ps128(vmax);
        let m = _mm_max_ps(lo, hi);
        let m = _mm_max_ps(m, _mm_movehl_ps(m, m));
        let m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 0b01));
        let mut max = _mm_cvtss_f32(m);
        while j < n {
            if *p.add(j) > max {
                max = *p.add(j);
            }
            j += 1;
        }
        max
    }
}

/// `matmul_t` with one output *column* per lane (what AVX-512's 32
/// registers buy a kernel that may not widen its reduction), the row
/// kernels compiled for AVX-512F, and `l2_normalize_rows` with one *row*
/// per lane.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    pub const LANES: usize = 16;

    /// `C` vectors (`16 * C` consecutive columns) of one output row, the
    /// last `tail` lanes wide. `avx2::dot` assigns `k` to lane `k % 8` of
    /// accumulator `k / 8 % 2`; here each of those sixteen partial sums is
    /// a vector over the columns, `half[k / 8 % 2][k % 8]`, fed by a
    /// broadcast of `a[k]` and row `k` of the transposed B (one broadcast
    /// serves all `C` vectors). The two halves are then added, and the
    /// eight sums folded, in `dot`'s order — `acc0 + acc1`, `lo + hi`,
    /// `hadd`, `hadd` — and the `k % 8` tail follows as FMAs on the result,
    /// so every lane holds what `dot` returns for its column, bit for bit.
    ///
    /// # Safety
    /// AVX-512F; `a_row` valid for `kd` reads, `col` for `16 * C` reads at
    /// each of `kd` row offsets `k * ld`, `out` for `16 * (C - 1) + tail`
    /// writes.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)] // `c` selects a column vector, not an element
    unsafe fn cols<const C: usize>(
        (a_row, kd): (*const f32, usize),
        (col, ld): (*const f32, usize),
        out: *mut f32,
        tail: usize,
    ) {
        let k16 = kd - kd % 16;
        let k8 = kd - kd % 8;
        let mut half = [[[_mm512_setzero_ps(); C]; 8]; 2];
        for (h, acc) in half.iter_mut().enumerate() {
            // A trailing 8-block belongs to the first accumulator alone.
            let end = if h == 0 { k8 } else { k16 };
            let mut k = 8 * h;
            while k < end {
                for (l, sums) in acc.iter_mut().enumerate() {
                    let av = _mm512_set1_ps(*a_row.add(k + l));
                    let b_row = col.add((k + l) * ld);
                    for (c, x) in sums.iter_mut().enumerate() {
                        *x = _mm512_fmadd_ps(av, _mm512_loadu_ps(b_row.add(LANES * c)), *x);
                    }
                }
                k += 16;
            }
        }
        for c in 0..C {
            let v: [__m512; 8] =
                std::array::from_fn(|l| _mm512_add_ps(half[0][l][c], half[1][l][c]));
            let s: [__m512; 4] = std::array::from_fn(|l| _mm512_add_ps(v[l], v[l + 4]));
            let mut r = _mm512_add_ps(_mm512_add_ps(s[0], s[1]), _mm512_add_ps(s[2], s[3]));
            for k in k8..kd {
                let av = _mm512_set1_ps(*a_row.add(k));
                r = _mm512_fmadd_ps(av, _mm512_loadu_ps(col.add(k * ld + LANES * c)), r);
            }
            let lanes = if c + 1 == C { tail } else { LANES };
            let mask = ((1u32 << lanes) - 1) as __mmask16;
            _mm512_mask_storeu_ps(out.add(LANES * c), mask, r);
        }
    }

    row_kernels!("avx512f");

    /// Columns `j .. j + width` (`1 <= width <= 16`) of the first `lanes`
    /// rows of a row-major block with row stride `cols`, transposed:
    /// vector `c` holds column `j + c`, row `r` in lane `r`; lanes of
    /// absent rows and vectors of absent columns are `+0.0`. Four rounds
    /// of sixteen shuffles: 32-bit pairs of two rows, 64-bit pairs of
    /// those, then 128-bit quarters twice.
    ///
    /// # Safety
    /// AVX-512F; row `r < lanes` of the block valid for reads at columns
    /// `j .. j + width`.
    #[inline(always)]
    unsafe fn transpose16(
        block: *const f32,
        cols: usize,
        lanes: usize,
        (j, width): (usize, usize),
    ) -> [__m512; LANES] {
        let m = ((1u32 << width) - 1) as __mmask16;
        let mut r = [_mm512_setzero_ps(); LANES];
        for (i, v) in r.iter_mut().enumerate().take(lanes) {
            *v = _mm512_maskz_loadu_ps(m, block.add(i * cols + j));
        }
        let pd = _mm512_castps_pd;
        let ps = _mm512_castpd_ps;
        // q[g][c], 128-bit lane l: rows 4g..4g+4 at column 4l + c.
        let mut q = [[_mm512_setzero_ps(); 4]; 4];
        for (g, q) in q.iter_mut().enumerate() {
            let (a, b, c, d) = (r[4 * g], r[4 * g + 1], r[4 * g + 2], r[4 * g + 3]);
            let (ab_lo, ab_hi) = (_mm512_unpacklo_ps(a, b), _mm512_unpackhi_ps(a, b));
            let (cd_lo, cd_hi) = (_mm512_unpacklo_ps(c, d), _mm512_unpackhi_ps(c, d));
            q[0] = ps(_mm512_unpacklo_pd(pd(ab_lo), pd(cd_lo)));
            q[1] = ps(_mm512_unpackhi_pd(pd(ab_lo), pd(cd_lo)));
            q[2] = ps(_mm512_unpacklo_pd(pd(ab_hi), pd(cd_hi)));
            q[3] = ps(_mm512_unpackhi_pd(pd(ab_hi), pd(cd_hi)));
        }
        let mut t = [_mm512_setzero_ps(); LANES];
        for c in 0..4 {
            // Quarters of rows 0..8 (`lo`) and 8..16 (`hi`): columns
            // (c, c + 8) and (c + 4, c + 12), then one column each.
            let lo_even = _mm512_shuffle_f32x4::<0x88>(q[0][c], q[1][c]);
            let lo_odd = _mm512_shuffle_f32x4::<0xdd>(q[0][c], q[1][c]);
            let hi_even = _mm512_shuffle_f32x4::<0x88>(q[2][c], q[3][c]);
            let hi_odd = _mm512_shuffle_f32x4::<0xdd>(q[2][c], q[3][c]);
            t[c] = _mm512_shuffle_f32x4::<0x88>(lo_even, hi_even);
            t[c + 8] = _mm512_shuffle_f32x4::<0xdd>(lo_even, hi_even);
            t[c + 4] = _mm512_shuffle_f32x4::<0x88>(lo_odd, hi_odd);
            t[c + 12] = _mm512_shuffle_f32x4::<0xdd>(lo_odd, hi_odd);
        }
        t
    }

    /// Row-wise L2 normalization with sixteen rows in the lanes of one
    /// register. Each block of rows is transposed sixteen columns at a
    /// time ([`transpose16`]), and lane `r` runs the steps of
    /// `rows::l2_normalize_rows` on its row: from `-0.0`, a multiply then
    /// an add per column in ascending order, then `sqrt` and
    /// `max(n, 1e-8)` (like `f32::max`, `max_ps` returns its second
    /// operand, the floor, for a NaN norm). Each row is then divided by its
    /// norm, sixteen columns per division. A last block of fewer rows
    /// leaves its other lanes at zero and discards them, so every row runs
    /// the same steps.
    ///
    /// # Safety
    /// AVX-512F on the running CPU; `cols > 0`, and `norms`, when given,
    /// has a slot for each of the `data.len() / cols` whole rows (elements
    /// past the last whole row are left alone).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn l2_normalize_rows_in_lanes(
        data: &mut [f32],
        cols: usize,
        mut norms: Option<&mut [f32]>,
    ) {
        let rows = data.len() / cols;
        let p = data.as_mut_ptr();
        let col_tail = cols % LANES;
        for i0 in (0..rows).step_by(LANES) {
            let lanes = (rows - i0).min(LANES);
            let block = p.add(i0 * cols);
            let mut sum = _mm512_set1_ps(-0.0);
            for j in (0..cols).step_by(LANES) {
                let width = (cols - j).min(LANES);
                let t = transpose16(block, cols, lanes, (j, width));
                for v in &t[..width] {
                    sum = _mm512_add_ps(sum, _mm512_mul_ps(*v, *v));
                }
            }
            let n = _mm512_max_ps(_mm512_sqrt_ps(sum), _mm512_set1_ps(super::L2_EPS));
            let mut ns = [0.0f32; LANES];
            _mm512_storeu_ps(ns.as_mut_ptr(), n);
            for (r, &n) in ns.iter().enumerate().take(lanes) {
                let row = block.add(r * cols);
                let vn = _mm512_set1_ps(n);
                let mut j = 0;
                while j + LANES <= cols {
                    _mm512_storeu_ps(row.add(j), _mm512_div_ps(_mm512_loadu_ps(row.add(j)), vn));
                    j += LANES;
                }
                if col_tail > 0 {
                    let m = ((1u32 << col_tail) - 1) as __mmask16;
                    let v = _mm512_maskz_loadu_ps(m, row.add(j));
                    _mm512_mask_storeu_ps(row.add(j), m, _mm512_div_ps(v, vn));
                }
            }
            if let Some(norms) = norms.as_deref_mut() {
                norms[i0..i0 + lanes].copy_from_slice(&ns[..lanes]);
            }
        }
    }

    /// `A @ B^T` over `bt`, B transposed: `[kd, ld]` with `ld >= n` a
    /// multiple of 16. Columns go three vectors at a time (24 accumulators
    /// and a broadcast in flight), then what is left.
    ///
    /// # Safety
    /// AVX-512F on the running CPU; `a`, `bt` and `out` valid for `m * kd`,
    /// `kd * ld` and `m * n` elements; `ld % 16 == 0` and `ld >= n`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn matmul_t(
        (m, kd, n): (usize, usize, usize),
        a: *const f32,
        (bt, ld): (*const f32, usize),
        out: *mut f32,
    ) {
        const GROUP: usize = 3 * LANES;
        for i in 0..m {
            let a_row = (a.add(i * kd), kd);
            for j in (0..n).step_by(GROUP) {
                let width = (n - j).min(GROUP);
                let vecs = width.div_ceil(LANES);
                let tail = width - (vecs - 1) * LANES;
                let (col, o) = ((bt.add(j), ld), out.add(i * n + j));
                match vecs {
                    1 => cols::<1>(a_row, col, o, tail),
                    2 => cols::<2>(a_row, col, o, tail),
                    _ => cols::<3>(a_row, col, o, tail),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_ir::Rng64;

    fn backends() -> Vec<Kernel> {
        Kernel::ALL
            .into_iter()
            .filter(|k| k.is_available())
            .collect()
    }

    fn rand_vec(n: usize, rng: &mut Rng64) -> Vec<f32> {
        (0..n).map(|_| rng.range_f64(-2.0, 2.0) as f32).collect()
    }

    #[test]
    fn elementwise_kernels_are_bitwise_equal_across_backends() {
        let mut rng = Rng64::new(90);
        // Ragged lengths around the 8-lane width, including 0.
        for n in [0usize, 1, 5, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
            let src = rand_vec(n, &mut rng);
            let bias = rand_vec(n, &mut rng);
            let base = rand_vec(n, &mut rng);
            for &kern in &backends()[1..] {
                let (mut a, mut b) = (base.clone(), base.clone());
                add_slice(Kernel::Scalar, &mut a, &src);
                add_slice(kern, &mut b, &src);
                assert_eq!(a, b, "add n={n}");
                let (mut a, mut b) = (base.clone(), base.clone());
                scale_slice(Kernel::Scalar, &mut a, 0.37);
                scale_slice(kern, &mut b, 0.37);
                assert_eq!(a, b, "scale n={n}");
                let (mut a, mut b) = (base.clone(), base.clone());
                scale_add_slice(Kernel::Scalar, &mut a, 0.37, &src);
                scale_add_slice(kern, &mut b, 0.37, &src);
                assert_eq!(a, b, "scale_add n={n}");
                for relu in [false, true] {
                    let (mut a, mut b) = (base.clone(), base.clone());
                    bias_act(Kernel::Scalar, &mut a, &bias, relu);
                    bias_act(kern, &mut b, &bias, relu);
                    assert_eq!(a, b, "bias_act relu={relu} n={n}");
                }
                let (mut a, mut b) = (base.clone(), base.clone());
                relu_slice(Kernel::Scalar, &mut a);
                relu_slice(kern, &mut b);
                assert_eq!(a, b, "relu n={n}");
                assert_eq!(
                    max_slice(Kernel::Scalar, &base).to_bits(),
                    max_slice(kern, &base).to_bits(),
                    "max n={n}"
                );
            }
        }
    }

    #[test]
    fn relu_kernel_preserves_negative_zero() {
        for kern in backends() {
            let mut xs = vec![-0.0f32, 0.0, -1.0, 2.0, -0.0, -0.0, -0.0, -0.0, -0.0];
            relu_slice(kern, &mut xs);
            assert_eq!(xs[0].to_bits(), (-0.0f32).to_bits(), "{kern:?}");
            assert_eq!(xs[2], 0.0);
            assert_eq!(xs[8].to_bits(), (-0.0f32).to_bits(), "{kern:?} tail");
        }
    }

    #[test]
    fn exp_sum_tracks_scalar_within_tolerance() {
        let mut rng = Rng64::new(95);
        // Ragged lengths; values span the post-max-subtraction softmax
        // range plus deep-negative and clamp-edge points.
        for n in [1usize, 5, 7, 8, 9, 16, 17, 60, 100] {
            let mut base: Vec<f32> = (0..n).map(|_| rng.range_f64(-30.0, 4.0) as f32).collect();
            base[0] = -90.0; // below the AVX2 clamp: both arms give ~0
            let max = max_slice(Kernel::Scalar, &base);
            let mut want = base.clone();
            let want_sum = exp_sum_slice(Kernel::Scalar, &mut want, max);
            for &kern in &backends()[1..] {
                let mut got = base.clone();
                let got_sum = exp_sum_slice(kern, &mut got, max);
                assert!(
                    (got_sum - want_sum).abs() / want_sum.max(1e-20) < 1e-6,
                    "{kern:?} n={n} sum {got_sum} vs {want_sum}"
                );
                for (j, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    let denom = w.abs().max(1e-20);
                    assert!(
                        (g - w).abs() / denom < 1e-6,
                        "{kern:?} n={n} elem {j}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn scalar_exp_sum_matches_libm_bitwise() {
        let mut rng = Rng64::new(96);
        let base: Vec<f32> = (0..33).map(|_| rng.range_f64(-10.0, 3.0) as f32).collect();
        let max = max_slice(Kernel::Scalar, &base);
        let mut got = base.clone();
        exp_sum_slice(Kernel::Scalar, &mut got, max);
        for (g, b) in got.iter().zip(&base) {
            assert_eq!(g.to_bits(), (b - max).exp().to_bits());
        }
    }

    #[test]
    fn matmul_t_rows_agree_within_tolerance_and_ignore_vector_width() {
        let mut rng = Rng64::new(92);
        for (k, w) in [(3usize, 5usize), (8, 8), (13, 17), (40, 33), (64, 128)] {
            let a_row = rand_vec(k, &mut rng);
            let b = rand_vec(k * w, &mut rng); // [w, k] row-major
            let mut want = vec![0.0f32; w];
            matmul_t(Kernel::Scalar, (1, k, w), &a_row, &b, &mut want);
            let mut simd: Vec<Vec<f32>> = Vec::new();
            for &kern in &backends()[1..] {
                let mut got = vec![0.0f32; w];
                matmul_t(kern, (1, k, w), &a_row, &b, &mut got);
                for (x, y) in got.iter().zip(&want) {
                    assert!((x - y).abs() <= 1e-5 * y.abs().max(1.0), "mmt {k}x{w}");
                }
                simd.push(got);
            }
            // The lane reduction has the 256-bit order on every SIMD backend.
            assert!(simd.windows(2).all(|p| p[0] == p[1]), "mmt {k}x{w}");
        }
    }

    #[test]
    fn dispatch_override_round_trips() {
        // Save, exercise both settings, restore the resolved state.
        let before = kernel();
        set_simd_enabled(false);
        assert_eq!(kernel(), Kernel::Scalar);
        set_simd_enabled(true);
        assert_eq!(kernel(), *backends().last().unwrap());
        set_simd_enabled(before != Kernel::Scalar);
    }
}
