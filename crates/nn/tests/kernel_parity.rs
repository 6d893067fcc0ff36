//! Bitwise parity of the training-step kernels with the loops they
//! replaced, on every backend this CPU has.
//!
//! * `matmul_t` — `Avx2Fma` blocks four output columns per pass and shares
//!   one horizontal add; `Avx512` does that below 16 rows and from there
//!   puts one output column in each lane over a transposed B. Each element
//!   must still be *the* dot product: a two-accumulator 8-lane FMA chain,
//!   `acc0 + acc1`, the `lo + hi` / `hadd` / `hadd` lane tree, then a
//!   scalar `mul_add` tail. [`simd_dot`] spells that out lane by lane;
//!   every SIMD backend must equal it bit for bit (hence each other), the
//!   scalar backend must equal the plain multiply-then-add loop, and the
//!   two families agree within the 1e-5 the GEMM suite uses.
//! * `relu_backward`, `l2_normalize_rows` forward and backward, `mean_agg`
//!   forward and backward, `bias_act`, `col_sums` — one safe loop each,
//!   compiled for the baseline target, for AVX2 and for AVX-512F (whose
//!   `l2` forward runs sixteen rows in a register's lanes instead). Every
//!   backend must equal the loop the repository
//!   ran before them (kept below as the references) bit for bit, on ragged
//!   shapes, isolated nodes, all-zero rows (the norm clamp) and `NaN` /
//!   `±inf` / `-0.0` / subnormal inputs.
//!
//! Results are compared by `to_bits`, except that any NaN equals any NaN:
//! which payload an operation on two NaNs propagates depends on operand
//! order, which the compiler may commute, and nothing downstream reads it.

use nnlqp_ir::Rng64;
use nnlqp_nn::{simd, Activation, Csr, Kernel, Matrix};
use proptest::prelude::*;

fn kernels() -> impl Iterator<Item = Kernel> {
    Kernel::ALL.into_iter().filter(|k| k.is_available())
}

fn rand_matrix(rows: usize, cols: usize, rng: &mut Rng64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| (rng.uniform() as f32) * 2.0 - 1.0)
}

/// Overwrite about one element in six with a value the fast paths of
/// floating-point code get wrong.
fn inject_specials(m: &mut Matrix, rng: &mut Rng64) {
    const SPECIALS: [f32; 8] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.0,
        1.0e-40,  // subnormal
        -1.0e-40, // subnormal
        f32::MIN_POSITIVE,
    ];
    for v in &mut m.data {
        if rng.uniform() < 1.0 / 6.0 {
            *v = SPECIALS[(rng.uniform() * SPECIALS.len() as f64) as usize % SPECIALS.len()];
        }
    }
}

#[track_caller]
fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {i} is {g:e} ({:#010x}), want {w:e} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

// ---------------------------------------------------------------------------
// matmul_t
// ---------------------------------------------------------------------------

/// The SIMD dot product, one lane at a time.
fn simd_dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    // Lanes 0..8 are the first accumulator, 8..16 the second.
    let mut acc = [0.0f32; 16];
    let mut j = 0;
    while j + 16 <= n {
        for (l, x) in acc.iter_mut().enumerate() {
            *x = a[j + l].mul_add(b[j + l], *x);
        }
        j += 16;
    }
    if j + 8 <= n {
        for (l, x) in acc.iter_mut().enumerate().take(8) {
            *x = a[j + l].mul_add(b[j + l], *x);
        }
        j += 8;
    }
    let v: [f32; 8] = std::array::from_fn(|l| acc[l] + acc[l + 8]);
    let s: [f32; 4] = std::array::from_fn(|l| v[l] + v[l + 4]);
    let mut r = (s[0] + s[1]) + (s[2] + s[3]);
    while j < n {
        r = a[j].mul_add(b[j], r);
        j += 1;
    }
    r
}

/// The scalar backend's dot product: a multiply, then an add.
fn scalar_dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

fn matmul_t_reference(a: &Matrix, b: &Matrix, dot: fn(&[f32], &[f32]) -> f32) -> Matrix {
    Matrix::from_fn(a.rows, b.rows, |i, j| dot(a.row(i), b.row(j)))
}

/// Largest relative elementwise deviation, floored at magnitude 1.
fn rel_dev(a: &Matrix, b: &Matrix) -> f32 {
    a.data
        .iter()
        .zip(&b.data)
        .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1.0))
        .fold(0.0, f32::max)
}

fn check_matmul_t(m: usize, kd: usize, n: usize, seed: u64) {
    let mut rng = Rng64::new(seed);
    let a = rand_matrix(m, kd, &mut rng);
    let b = rand_matrix(n, kd, &mut rng);
    let fused = matmul_t_reference(&a, &b, simd_dot);
    let unfused = matmul_t_reference(&a, &b, scalar_dot);
    assert!(
        rel_dev(&fused, &unfused) <= 1e-5,
        "{m}x{kd}x{n}: references"
    );
    for kern in kernels() {
        // Dirty output: the kernel must overwrite, not accumulate.
        let mut out = Matrix::from_fn(m, n, |_, _| f32::NAN);
        a.matmul_t_into_with(kern, &b, &mut out);
        let want = if kern == Kernel::Scalar {
            &unfused
        } else {
            &fused
        };
        assert_same_bits(&out.data, &want.data, &format!("{kern:?} {m}x{kd}x{n}"));
    }
}

#[test]
fn blocked_matmul_t_is_one_dot_per_element_bitwise() {
    let mut seed = 1;
    for m in [0, 1, 2, 3, 5, 9, 15, 16, 17, 106] {
        for kd in [0, 1, 7, 8, 9, 15, 16, 17, 29, 48, 50, 70] {
            for n in [0, 1, 2, 3, 4, 5, 7, 8, 29, 47, 48, 52, 97, 106] {
                check_matmul_t(m, kd, n, seed);
                seed += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The row kernels, against the loops they replaced.
// ---------------------------------------------------------------------------

fn relu_backward_reference(x: &Matrix, dy: &Matrix) -> Matrix {
    let mut dx = dy.clone();
    for (d, &xv) in dx.data.iter_mut().zip(&x.data) {
        if xv <= 0.0 {
            *d = 0.0;
        }
    }
    dx
}

const L2_EPS: f32 = 1e-8;

fn l2_normalize_rows_reference(x: &Matrix) -> (Matrix, Vec<f32>) {
    let mut y = x.clone();
    let mut norms = Vec::with_capacity(x.rows);
    for i in 0..x.rows {
        let n = y
            .row(i)
            .iter()
            .map(|v| v * v)
            .sum::<f32>()
            .sqrt()
            .max(L2_EPS);
        for v in y.row_mut(i) {
            *v /= n;
        }
        norms.push(n);
    }
    (y, norms)
}

fn l2_normalize_rows_backward_reference(y: &Matrix, norms: &[f32], dy: &Matrix) -> Matrix {
    let mut dx = Matrix::zeros(y.rows, y.cols);
    for (i, &n) in norms.iter().enumerate().take(y.rows) {
        let yr = y.row(i);
        let dyr = dy.row(i);
        let dot: f32 = yr.iter().zip(dyr).map(|(a, b)| a * b).sum();
        for ((d, &dy_j), &y_j) in dx.row_mut(i).iter_mut().zip(dyr).zip(yr) {
            *d = (dy_j - y_j * dot) / n;
        }
    }
    dx
}

fn mean_agg_reference(adj: &Csr, x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(adj.n(), x.cols);
    for i in 0..adj.n() {
        let nb = adj.neighbors(i);
        if nb.is_empty() {
            continue;
        }
        let inv = 1.0 / nb.len() as f32;
        for &j in nb {
            for (o, &v) in out.row_mut(i).iter_mut().zip(x.row(j as usize)) {
                *o += v;
            }
        }
        for o in out.row_mut(i) {
            *o *= inv;
        }
    }
    out
}

fn mean_agg_backward_reference(adj: &Csr, d_out: &Matrix) -> Matrix {
    let mut dx = Matrix::zeros(adj.n(), d_out.cols);
    for i in 0..adj.n() {
        let nb = adj.neighbors(i);
        if nb.is_empty() {
            continue;
        }
        let inv = 1.0 / nb.len() as f32;
        for &j in nb {
            for (d, &v) in dx.row_mut(j as usize).iter_mut().zip(d_out.row(i)) {
                *d += v * inv;
            }
        }
    }
    dx
}

/// A chain with skip edges over the first three quarters of the nodes; the
/// rest are isolated.
fn ragged_graph(n: usize, rng: &mut Rng64) -> Csr {
    let linked = n - n / 4;
    let mut edges = Vec::new();
    for i in 1..linked {
        edges.push((i as u32 - 1, i as u32));
        if rng.uniform() < 0.3 {
            edges.push(((rng.uniform() * i as f64) as u32 % i as u32, i as u32));
        }
    }
    Csr::from_edges(n, &edges)
}

/// All five row kernels on every backend over one `[rows, cols]` problem.
fn check_row_kernels(rows: usize, cols: usize, specials: bool, seed: u64) {
    let mut rng = Rng64::new(seed);
    let mut x = rand_matrix(rows, cols, &mut rng);
    let mut d = rand_matrix(rows, cols, &mut rng);
    // Whole rows of zeros, of either sign: their norm clamps to the floor.
    for i in (0..rows).step_by(3) {
        let zero = if i % 2 == 0 { 0.0 } else { -0.0 };
        x.row_mut(i).fill(zero);
    }
    if specials {
        inject_specials(&mut x, &mut rng);
        inject_specials(&mut d, &mut rng);
    }
    let adj = ragged_graph(rows, &mut rng);
    let graph = (&adj.row_ptr[..], &adj.col_idx[..]);

    let relu_want = relu_backward_reference(&x, &d);
    let (y_want, norms_want) = l2_normalize_rows_reference(&x);
    let l2_back_want = l2_normalize_rows_backward_reference(&y_want, &norms_want, &d);
    let agg_want = mean_agg_reference(&adj, &x);
    let agg_back_want = mean_agg_backward_reference(&adj, &d);

    for kern in kernels() {
        let what = |name: &str| format!("{name} {kern:?} {rows}x{cols} specials={specials}");

        let mut got = d.clone();
        simd::relu_backward(kern, &x.data, &mut got.data);
        assert_same_bits(&got.data, &relu_want.data, &what("relu_backward"));

        let mut y = x.clone();
        let mut norms = vec![f32::NAN; rows];
        simd::l2_normalize_rows(kern, &mut y.data, cols, Some(&mut norms));
        assert_same_bits(&y.data, &y_want.data, &what("l2"));
        assert_same_bits(&norms, &norms_want, &what("l2 norms"));
        let mut y = x.clone();
        simd::l2_normalize_rows(kern, &mut y.data, cols, None);
        assert_same_bits(&y.data, &y_want.data, &what("l2 without norms"));

        let mut got = d.clone();
        simd::l2_normalize_rows_backward(kern, &y_want.data, &norms_want, &mut got.data, cols);
        assert_same_bits(&got.data, &l2_back_want.data, &what("l2 backward"));

        // Dirty outputs: both aggregations must overwrite every element.
        let mut got = Matrix::from_fn(rows, cols, |_, _| f32::NAN);
        simd::mean_agg(kern, graph, &x.data, cols, &mut got.data);
        assert_same_bits(&got.data, &agg_want.data, &what("mean_agg"));
        let mut got = Matrix::from_fn(rows, cols, |_, _| f32::NAN);
        simd::mean_agg_backward(kern, graph, &d.data, cols, &mut got.data);
        assert_same_bits(&got.data, &agg_back_want.data, &what("mean_agg backward"));
    }
}

#[test]
fn row_kernels_match_the_loops_they_replaced_bitwise() {
    let mut seed = 1000;
    for rows in [0, 1, 2, 3, 4, 5, 7, 8, 9, 106] {
        for cols in [1, 7, 8, 9, 16, 17, 29, 48, 50] {
            for specials in [false, true] {
                check_row_kernels(rows, cols, specials, seed);
                seed += 1;
            }
        }
    }
}

/// `0.0 + -0.0` is `+0.0`: a row whose every neighbor holds `-0.0` must
/// aggregate to `+0.0`, as it does when the sum starts from zero rather
/// than from the first neighbor.
#[test]
fn mean_agg_of_negative_zeros_is_positive_zero() {
    let adj = Csr::from_edges(3, &[(0, 1), (0, 2)]);
    let x = Matrix::from_fn(3, 20, |_, _| -0.0);
    for kern in kernels() {
        let mut out = Matrix::from_fn(3, 20, |_, _| f32::NAN);
        let graph = (&adj.row_ptr[..], &adj.col_idx[..]);
        simd::mean_agg(kern, graph, &x.data, 20, &mut out.data);
        assert_same_bits(&out.data, &[0.0; 60], &format!("{kern:?}"));
    }
}

fn bias_act_reference(x: &Matrix, bias: &[f32], relu: bool) -> Matrix {
    let mut y = x.clone();
    for i in 0..y.rows {
        for (a, &b) in y.row_mut(i).iter_mut().zip(bias) {
            let v = *a + b;
            *a = if relu && v < 0.0 { 0.0 } else { v };
        }
    }
    y
}

fn col_sums_reference(x: &Matrix) -> Vec<f32> {
    let mut out = vec![0.0f32; x.cols];
    for i in 0..x.rows {
        for (o, &v) in out.iter_mut().zip(x.row(i)) {
            *o += v;
        }
    }
    out
}

/// The kernels whose bodies change at a row or column block edge (the
/// 16-row lanes of the `Avx512` `l2`, the 16/8/4-column register blocks
/// of `mean_agg` and the column sums, whole-matrix bias + activation), on
/// every backend against the loops they replaced, specials included.
fn check_block_edges(rows: usize, cols: usize, seed: u64) {
    let mut rng = Rng64::new(seed);
    let mut x = rand_matrix(rows, cols, &mut rng);
    for i in (0..rows).step_by(5) {
        let zero = if i % 2 == 0 { 0.0 } else { -0.0 };
        x.row_mut(i).fill(zero);
    }
    inject_specials(&mut x, &mut rng);
    let mut bias = rand_matrix(1, cols, &mut rng);
    inject_specials(&mut bias, &mut rng);
    let adj = ragged_graph(rows, &mut rng);
    let graph = (&adj.row_ptr[..], &adj.col_idx[..]);

    let (y_want, norms_want) = l2_normalize_rows_reference(&x);
    let agg_want = mean_agg_reference(&adj, &x);
    let sums_want = col_sums_reference(&x);
    for kern in kernels() {
        let what = |name: &str| format!("{name} {kern:?} {rows}x{cols}");

        let mut y = x.clone();
        let mut norms = vec![f32::NAN; rows];
        simd::l2_normalize_rows(kern, &mut y.data, cols, Some(&mut norms));
        assert_same_bits(&y.data, &y_want.data, &what("l2"));
        assert_same_bits(&norms, &norms_want, &what("l2 norms"));
        let mut y = x.clone();
        simd::l2_normalize_rows(kern, &mut y.data, cols, None);
        assert_same_bits(&y.data, &y_want.data, &what("l2 without norms"));

        let mut got = Matrix::from_fn(rows, cols, |_, _| f32::NAN);
        simd::mean_agg(kern, graph, &x.data, cols, &mut got.data);
        assert_same_bits(&got.data, &agg_want.data, &what("mean_agg"));

        for (act, relu) in [(Activation::Identity, false), (Activation::Relu, true)] {
            let want = bias_act_reference(&x, &bias.data, relu);
            let mut got = x.clone();
            got.bias_act_with(kern, &bias.data, act);
            assert_same_bits(&got.data, &want.data, &what(&format!("bias_act {act:?}")));
        }

        let mut got = vec![f32::NAN; cols];
        simd::col_sums(kern, &x.data, cols, &mut got);
        assert_same_bits(&got, &sums_want, &what("col_sums"));
    }
}

#[test]
fn row_kernels_match_their_loops_at_every_block_edge() {
    let mut seed = 5000;
    for rows in [15, 16, 17, 31, 32, 33, 106] {
        for cols in 1..=64 {
            check_block_edges(rows, cols, seed);
            seed += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn random_matmul_t_shapes_are_one_dot_per_element(
        m in 0usize..=40, kd in 0usize..=70, n in 0usize..=110, seed in any::<u64>(),
    ) {
        check_matmul_t(m, kd, n, seed);
    }

    #[test]
    fn random_row_kernel_shapes_match_the_loops_they_replaced(
        rows in 0usize..=40, cols in 1usize..=70, specials in any::<bool>(), seed in any::<u64>(),
    ) {
        check_row_kernels(rows, cols, specials, seed);
    }
}
