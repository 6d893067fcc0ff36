//! Bitwise parity of the GEMM register tile behind `matmul` and `t_matmul`.
//!
//! The tile's contract is that every output element is one ascending-`k`
//! chain of single-rounded FMAs starting from `+0.0`, whatever the register
//! width, tile shape or lane position. So every SIMD instantiation must
//! equal a scalar `f32::mul_add` loop **bit for bit** — and therefore each
//! other — on shapes chosen to hit every remainder path: 0- and 1-row
//! matrices, row counts that are not a multiple of the tile height, widths
//! that are not a multiple of 8 or 16 lanes, and widths past the packed
//! panel. The non-FMA scalar backend is a tolerance comparison.

use nnlqp_ir::Rng64;
use nnlqp_nn::{Kernel, Matrix};
use proptest::prelude::*;

fn rand_matrix(rows: usize, cols: usize, rng: &mut Rng64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| (rng.uniform() as f32) * 2.0 - 1.0)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data.iter().map(|v| v.to_bits()).collect()
}

/// `a @ b` as the contract states it. With `skip_zeros` it is the axpy
/// formulation `t_matmul` used before the tile: a zero in A leaves the
/// accumulator untouched instead of adding a zero product to it.
fn reference(a: &Matrix, b: &Matrix, fused: bool, skip_zeros: bool) -> Matrix {
    Matrix::from_fn(a.rows, b.cols, |i, j| {
        let mut acc = 0.0f32;
        for kk in 0..a.cols {
            let (x, y) = (a.get(i, kk), b.get(kk, j));
            if skip_zeros && x == 0.0 {
                continue;
            }
            acc = if fused {
                x.mul_add(y, acc)
            } else {
                acc + x * y
            };
        }
        acc
    })
}

fn transposed(a: &Matrix) -> Matrix {
    Matrix::from_fn(a.cols, a.rows, |i, j| a.get(j, i))
}

/// Largest relative elementwise deviation, floored at magnitude 1.
fn rel_dev(a: &Matrix, b: &Matrix) -> f32 {
    assert_eq!((a.rows, a.cols), (b.rows, b.cols));
    a.data
        .iter()
        .zip(&b.data)
        .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1.0))
        .fold(0.0, f32::max)
}

/// Both products on every backend this CPU has, against the references.
fn check_shape(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = Rng64::new(seed);
    let a = rand_matrix(m, k, &mut rng);
    let b = rand_matrix(k, n, &mut rng);
    let at = transposed(&a);
    let fused = reference(&a, &b, true, false);
    let unfused = reference(&a, &b, false, false);
    let mut pack = Vec::new();
    for kern in Kernel::ALL.into_iter().filter(|k| k.is_available()) {
        let what = format!("{kern:?} {m}x{k}x{n}");
        // Dirty output: the kernel must overwrite, not accumulate.
        let mut out = Matrix::from_fn(m, n, |_, _| f32::NAN);
        a.matmul_into_with(kern, &b, &mut out, &mut pack);
        let t_out = at.t_matmul_with(kern, &b);
        if kern == Kernel::Scalar {
            assert_eq!(bits(&out), bits(&unfused), "matmul {what}");
            assert_eq!(bits(&t_out), bits(&unfused), "t_matmul {what}");
            assert!(rel_dev(&out, &fused) <= 1e-5, "scalar vs fused {what}");
        } else {
            // Equal to the one reference, hence to each other.
            assert_eq!(bits(&out), bits(&fused), "matmul {what}");
            assert_eq!(bits(&t_out), bits(&fused), "t_matmul {what}");
        }
    }
}

#[test]
fn every_remainder_path_matches_the_mul_add_reference_bitwise() {
    let ns = [
        0, 1, 7, 8, 9, 12, 15, 16, 17, 24, 25, 29, 31, 32, 33, 47, 48, 49, 63, 64, 65, 127, 128,
        129, 200,
    ];
    let mut seed = 1;
    for m in [0, 1, 2, 3, 4, 5, 7, 8, 9] {
        for k in [0, 1, 2, 29, 70] {
            for n in ns {
                check_shape(m, k, n, seed);
                seed += 1;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn random_shapes_match_the_mul_add_reference_bitwise(
        m in 0usize..=9, k in 0usize..=70, n in 0usize..=200, seed in any::<u64>(),
    ) {
        check_shape(m, k, n, seed);
    }
}

/// `t_matmul` used to skip the zeros of A (post-ReLU activations are half
/// zeros); the dense tile adds their zero products instead. For finite
/// inputs the two are equal.
#[test]
fn dense_t_matmul_equals_the_zero_skipping_formulation() {
    let mut rng = Rng64::new(77);
    for (k, m, n) in [(106, 48, 48), (106, 29, 48), (9, 5, 17), (33, 1, 12)] {
        let mut a = rand_matrix(k, m, &mut rng);
        for v in &mut a.data {
            if rng.uniform() < 0.5 {
                *v = if rng.uniform() < 0.5 { 0.0 } else { -0.0 };
            }
        }
        let b = rand_matrix(k, n, &mut rng);
        let at = transposed(&a);
        for kern in Kernel::ALL.into_iter().filter(|k| k.is_available()) {
            let want = reference(&at, &b, kern != Kernel::Scalar, true);
            assert_eq!(a.t_matmul_with(kern, &b), want, "{kern:?} {k}x{m}x{n}");
        }
    }
}

/// Dispatch resolves to the widest backend the CPU advertises — read from
/// `/proc/cpuinfo`, independently of `is_x86_feature_detected!` — and to
/// `scalar` under `NNLQP_SIMD=off`: a silent fall-back to a narrower
/// kernel halves GEMM throughput and fails nothing else. Nothing in this
/// test binary calls `set_simd_enabled`, so `kernel()` is what the
/// environment resolved; CI runs the crate both ways.
#[test]
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn dispatch_picks_the_widest_kernel_cpuinfo_lists() {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap();
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, f)| f.split_whitespace().collect())
        .unwrap_or_default();
    let has = |f: &str| flags.contains(&f);
    let want = match std::env::var("NNLQP_SIMD").as_deref() {
        Err(_) if has("avx2") && has("fma") && has("avx512f") => "avx512f",
        Err(_) if has("avx2") && has("fma") => "avx2+fma",
        Err(_) | Ok("off") => "scalar",
        Ok(_) => return, // only the two settings CI runs are pinned
    };
    assert_eq!(nnlqp_nn::kernel().as_str(), want);
}

/// `Matrix`'s fields are public; the kernels index by `rows` and `cols`,
/// so a matrix whose `data` disagrees with them must be refused before any
/// pointer is formed.
mod inconsistent_matrices_are_refused {
    use super::*;

    fn short() -> Matrix {
        Matrix {
            rows: 4,
            cols: 8,
            data: vec![0.0; 31],
        }
    }

    #[test]
    #[should_panic(expected = "matmul lhs: data length is not rows * cols")]
    fn matmul_lhs() {
        let _ = short().matmul(&Matrix::zeros(8, 3));
    }

    #[test]
    #[should_panic(expected = "matmul rhs: data length is not rows * cols")]
    fn matmul_rhs() {
        let _ = Matrix::zeros(2, 4).matmul(&short());
    }

    #[test]
    #[should_panic(expected = "matmul out: data length is not rows * cols")]
    fn matmul_out() {
        let mut out = short();
        Matrix::zeros(4, 3).matmul_into(&Matrix::zeros(3, 8), &mut out, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "t_matmul lhs: data length is not rows * cols")]
    fn t_matmul_lhs() {
        let _ = short().t_matmul(&Matrix::zeros(4, 3));
    }

    #[test]
    #[should_panic(expected = "t_matmul rhs: data length is not rows * cols")]
    fn t_matmul_rhs() {
        let _ = Matrix::zeros(4, 2).t_matmul(&short());
    }

    #[test]
    #[should_panic(expected = "matmul_t rhs: data length is not rows * cols")]
    fn matmul_t_rhs() {
        let _ = Matrix::zeros(2, 8).matmul_t(&short());
    }
}
