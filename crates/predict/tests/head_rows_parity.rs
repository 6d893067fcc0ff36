//! A head evaluated over a stack of embeddings answers each row exactly as
//! it answers that row alone: `Predictor::head_eval_rows` against the
//! one-embedding `Predictor::head_eval`, `assert_eq!` on `f64`, for every
//! predictor type at the width the facade trains (`hidden = head_hidden =
//! 48`) and at heights on both sides of the GEMM tile's 3-row (ymm) and
//! 4-row (zmm) remainders.
//!
//! One test function in its own binary: it switches the process-wide kernel
//! backend, which no other test may be running under.

use nnlqp_ir::{GraphBuilder, Rng64, Shape};
use nnlqp_nn::{kernel, set_simd_enabled, Activation, Kernel, Matrix, Scratch};
use nnlqp_predict::{
    extract_features, Head, NnlpConfig, NnlpModel, Normalizer, Predictor, TransformerConfig,
    TransformerModel,
};

const HEIGHTS: [usize; 8] = [1, 2, 3, 4, 5, 31, 32, 33];
const WIDTH: usize = 48;
const PLATFORM_HEADS: usize = 2;

fn models() -> (NnlpModel, TransformerModel) {
    let mut b = GraphBuilder::new("t", Shape::nchw(1, 3, 16, 16));
    let c = b.conv(None, 8, 3, 1, 1, 1).unwrap();
    b.relu(c).unwrap();
    let feats = extract_features(&b.finish().unwrap());
    let norm = Normalizer::fit(&[&feats]);
    let sage = NnlpModel::new(
        NnlpConfig {
            hidden: WIDTH,
            head_hidden: WIDTH,
            n_heads: PLATFORM_HEADS,
            ..Default::default()
        },
        norm.clone(),
        &mut Rng64::new(21),
    );
    let transformer = TransformerModel::new(
        TransformerConfig {
            d_model: WIDTH,
            head_hidden: WIDTH,
            n_heads: PLATFORM_HEADS,
            ..Default::default()
        },
        norm,
        &mut Rng64::new(22),
    );
    (sage, transformer)
}

/// `rows` embeddings with entries in [-1, 1); the second row is all zeros.
fn embeddings(rows: usize, cols: usize, rng: &mut Rng64) -> Matrix {
    let mut m = Matrix::from_fn(rows, cols, |_, _| (rng.uniform() as f32) * 2.0 - 1.0);
    if rows > 1 {
        m.row_mut(1).fill(0.0);
    }
    m
}

/// The head's three layers on an explicit backend: what `Head::eval` runs
/// on the process-wide one, before the map back to output units.
fn head_on(kern: Kernel, head: &Head, x: &Matrix) -> Vec<f32> {
    let mut pack = Vec::new();
    let mut cur = x.clone();
    for (layer, act) in [
        (&head.l1, Activation::Relu),
        (&head.l2, Activation::Relu),
        (&head.l3, Activation::Identity),
    ] {
        let mut out = Matrix::zeros(cur.rows, layer.w.cols);
        cur.matmul_into_with(kern, &layer.w, &mut out, &mut pack);
        out.bias_act_with(kern, &layer.b, act);
        cur = out;
    }
    cur.data
}

#[test]
fn a_stacked_head_call_answers_each_row_as_it_answers_it_alone() {
    let (sage, transformer) = models();
    let predictors: [(&str, Box<dyn Predictor>); 2] = [
        ("sage", Box::new(sage.clone())),
        ("transformer", Box::new(transformer.clone())),
    ];
    let mut rng = Rng64::new(23);

    // Through the trait, on the scalar backend and on the widest one.
    for simd in [false, true] {
        set_simd_enabled(simd);
        for (name, p) in &predictors {
            let mut scratch = Scratch::new();
            for head in 0..PLATFORM_HEADS {
                for b in HEIGHTS {
                    let embs = embeddings(b, p.embedding_dim(), &mut rng);
                    let mut stacked = vec![0.0; b];
                    p.head_eval_rows(&embs, head, &mut scratch, &mut stacked);
                    for (i, &got) in stacked.iter().enumerate() {
                        assert_eq!(
                            got,
                            p.head_eval(embs.row(i), head),
                            "{name} on {}: head {head}, row {i} of {b}",
                            kernel().as_str()
                        );
                    }
                }
            }
        }
    }

    // Every backend the host offers, the one between scalar and widest
    // included: the same three layers on an explicit backend, and that
    // chain tied back to the trait on the backend the process is on.
    for kern in Kernel::ALL.into_iter().filter(|k| k.is_available()) {
        for (model, head) in [
            ("sage", &sage.heads[1]),
            ("transformer", &transformer.heads[0]),
        ] {
            for b in HEIGHTS {
                let embs = embeddings(b, head.l1.w.rows, &mut rng);
                let stacked = head_on(kern, head, &embs);
                for (i, got) in stacked.iter().enumerate() {
                    let row = Matrix::from_rows(1, embs.cols, embs.row(i).to_vec());
                    assert_eq!(
                        got.to_bits(),
                        head_on(kern, head, &row)[0].to_bits(),
                        "{model} on {}: row {i} of {b}",
                        kern.as_str()
                    );
                }
            }
        }
    }
    let embs = embeddings(33, sage.cfg.embedding_dim(), &mut rng);
    let mut through_trait = vec![0.0; embs.rows];
    sage.head_eval_rows(&embs, 1, &mut Scratch::new(), &mut through_trait);
    let explicit: Vec<f64> = head_on(kernel(), &sage.heads[1], &embs)
        .into_iter()
        .map(|y| (y as f64).exp_m1().max(1e-6))
        .collect();
    assert_eq!(through_trait, explicit);
}
