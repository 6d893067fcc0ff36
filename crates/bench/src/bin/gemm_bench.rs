//! `gemm-bench` — micro-benchmark of the matrix kernels the inference
//! engine actually runs: portable scalar f32, the AVX2 and AVX-512
//! instantiations of the f32 register tile, and the int8 quantized path,
//! timed at the exact shapes the encoder backbones hit (node-feature
//! projections, SAGE layers, attention projections, head MLPs) plus the
//! transposed-A weight-gradient product of a training step.
//!
//! Unlike `predict-bench` (end-to-end: features + backbone + heads), this
//! isolates the GEMMs so kernel-level speedups are visible even when the
//! pipeline is dominated by feature extraction.
//!
//! ```text
//! gemm-bench [--quick] [--out PATH]
//! ```
//!
//! Output JSON: one entry per shape with the GFLOP/s of every backend
//! (a backend the CPU lacks reports the next narrower one's number, and
//! `backends` lists what actually ran) and speedups over scalar.

use nnlqp_ir::Rng64;
use nnlqp_nn::{simd_available, Activation, Kernel, Matrix, QuantLinear, QuantRow};
use std::hint::black_box;
use std::time::Instant;

/// A GEMM shape `[m x k] * [k x n]` with a label tying it back to the
/// layer that runs it.
struct GemmShape {
    label: &'static str,
    m: usize,
    k: usize,
    n: usize,
}

/// The shapes the deployed predictors actually execute: `m` is the node
/// count of a mid-sized corpus graph (or 1 for the pooled head), `k`/`n`
/// the layer widths of the benched configurations.
const SHAPES: [GemmShape; 8] = [
    GemmShape {
        label: "sage-layer (64 nodes, 32->32)",
        m: 64,
        k: 32,
        n: 32,
    },
    GemmShape {
        label: "encoder-in (64 nodes, feat 29 -> 64)",
        m: 64,
        k: 29,
        n: 64,
    },
    GemmShape {
        label: "attn-proj (64 nodes, 64->64)",
        m: 64,
        k: 64,
        n: 64,
    },
    GemmShape {
        label: "wide-layer (128 nodes, 64->64)",
        m: 128,
        k: 64,
        n: 64,
    },
    GemmShape {
        label: "head-mlp (1 row, 64->64)",
        m: 1,
        k: 64,
        n: 64,
    },
    // The served model (`TrainPredictorConfig::default`, hidden 48) on the
    // corpus' mean graph of 106 nodes.
    GemmShape {
        label: "served sage-in (106 nodes, feat 29 -> 48)",
        m: 106,
        k: 29,
        n: 48,
    },
    GemmShape {
        label: "served sage-layer (106 nodes, 48->48)",
        m: 106,
        k: 48,
        n: 48,
    },
    GemmShape {
        label: "served head-mlp (1 row, 52->48)",
        m: 1,
        k: 52,
        n: 48,
    },
];

/// The weight gradient of the served SAGE layer: `x^T @ dy` with both
/// operands `[nodes, hidden]`.
const T_MATMUL_NODES: usize = 106;
const T_MATMUL_HIDDEN: usize = 48;

fn usage() -> ! {
    eprintln!("usage: gemm-bench [--quick] [--out PATH]");
    std::process::exit(2);
}

fn rand_matrix(rows: usize, cols: usize, rng: &mut Rng64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| (rng.uniform() as f32) * 2.0 - 1.0)
}

/// Median of per-iteration wall times, in seconds.
fn median_s(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Time `iters` runs of `f`, returning the median per-iteration seconds.
fn time_it(iters: usize, mut f: impl FnMut()) -> f64 {
    // One untimed warmup to fault in buffers and settle the clock.
    f();
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median_s(samples)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => match it.next() {
                Some(v) => out = Some(v.into()),
                None => usage(),
            },
            _ => usage(),
        }
    }
    // Inner repeats amortize timer overhead on the microsecond shapes.
    let (iters, inner) = if quick { (30, 20) } else { (200, 50) };

    let mut rng = Rng64::new(0x6765_6d6d);
    let mut rows = Vec::new();
    eprintln!(
        "[gemm-bench] simd_available={} ({} timed iters x {} inner repeats)",
        simd_available(),
        iters,
        inner
    );
    let backends: Vec<&str> = Kernel::ALL
        .iter()
        .filter(|k| k.is_available())
        .map(|k| k.as_str())
        .collect();
    let gflops = |flops: f64, s: f64| flops / s.max(1e-12) / 1e9;
    // One timing per backend, narrowest first; a backend this CPU lacks
    // repeats the previous (narrower) one's number.
    let per_backend = |run: &mut dyn FnMut(Kernel)| -> Vec<f64> {
        let mut secs: Vec<f64> = Vec::new();
        for kern in Kernel::ALL {
            let s = if kern.is_available() {
                time_it(iters, || {
                    for _ in 0..inner {
                        run(kern);
                    }
                })
            } else {
                *secs.last().expect("scalar is always available")
            };
            secs.push(s);
        }
        secs
    };
    for shape in &SHAPES {
        let (m, k, n) = (shape.m, shape.k, shape.n);
        let a = rand_matrix(m, k, &mut rng);
        let b = rand_matrix(k, n, &mut rng);
        let bias: Vec<f32> = (0..n).map(|_| (rng.uniform() as f32) - 0.5).collect();
        let ql = QuantLinear::quantize(&b, &bias);
        let flops = 2.0 * (m * k * n) as f64 * inner as f64;

        let mut out_m = Matrix::zeros(m, n);
        let mut pack = Vec::new();
        let mut qrow = QuantRow::new();

        let secs = per_backend(&mut |kern| {
            black_box(&a).matmul_into_with(kern, black_box(&b), &mut out_m, &mut pack);
            out_m.bias_act_with(kern, &bias, Activation::Relu);
        });
        // The int8 path runs on the dispatched backend, like deployment.
        let int8_s = time_it(iters, || {
            for _ in 0..inner {
                ql.forward_quant(&a, &mut out_m, Activation::Relu, &mut qrow);
            }
        });

        eprintln!(
            "[gemm-bench] {:<42} scalar {:6.2}  avx2 {:6.2} ({:4.2}x)  avx512 {:6.2} ({:4.2}x)  int8 {:6.2} ({:4.2}x) GF/s",
            shape.label,
            gflops(flops, secs[0]),
            gflops(flops, secs[1]),
            secs[0] / secs[1],
            gflops(flops, secs[2]),
            secs[0] / secs[2],
            gflops(flops, int8_s),
            secs[0] / int8_s,
        );
        rows.push(serde_json::json!({
            "label": shape.label,
            "m": m, "k": k, "n": n,
            "scalar_gflops": gflops(flops, secs[0]),
            "avx2_gflops": gflops(flops, secs[1]),
            "avx512_gflops": gflops(flops, secs[2]),
            "int8_gflops": gflops(flops, int8_s),
            "avx2_speedup": secs[0] / secs[1],
            "avx512_speedup": secs[0] / secs[2],
            "int8_speedup": secs[0] / int8_s,
        }));
    }

    let (k, m) = (T_MATMUL_NODES, T_MATMUL_HIDDEN);
    let x = rand_matrix(k, m, &mut rng);
    let dy = rand_matrix(k, m, &mut rng);
    let flops = 2.0 * (m * k * m) as f64 * inner as f64;
    let secs = per_backend(&mut |kern| {
        black_box(black_box(&x).t_matmul_with(kern, black_box(&dy)));
    });
    eprintln!(
        "[gemm-bench] t_matmul ({k}x{m})^T . ({k}x{m}): scalar {:6.2}  avx2 {:6.2}  avx512 {:6.2} GF/s",
        gflops(flops, secs[0]),
        gflops(flops, secs[1]),
        gflops(flops, secs[2]),
    );
    let t_matmul = serde_json::json!({
        "k": k, "m": m, "n": m,
        "scalar_gflops": gflops(flops, secs[0]),
        "avx2_gflops": gflops(flops, secs[1]),
        "avx512_gflops": gflops(flops, secs[2]),
    });

    let report = serde_json::json!({
        "bench": "gemm",
        "quick": quick,
        "simd_available": simd_available(),
        "backends": backends,
        "shapes": rows,
        "t_matmul": t_matmul,
    });
    let text = serde_json::to_string_pretty(&report).expect("serialize");
    match out {
        Some(path) => {
            std::fs::write(&path, format!("{text}\n")).expect("write report");
            eprintln!("[gemm-bench] wrote {}", path.display());
        }
        None => println!("{text}"),
    }
}
