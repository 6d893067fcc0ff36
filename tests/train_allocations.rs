//! The training step runs out of one arena, for both encoders: the
//! allocator is out of the loop, by count.
//!
//! This file is its own test binary so that it can install a counting
//! `#[global_allocator]`. The count is per thread (the harness runs tests
//! side by side), exact and repeatable, so it is asserted, not timed.
//!
//! Allocations in one and in three epochs of the digest corpus (12
//! samples, batch 4, seed 7), and per sample in a marginal epoch:
//!
//! | encoder     | allocating step        | shared arena loop | arena sized to the sample |
//! |-------------|------------------------|-------------------|---------------------------|
//! | SAGE        | 79 per sample          | 217 / 300, 3.46   | 174 / 262, 3.67           |
//! | transformer | 3,581 / 10,547, 290.25 | 438 / 613, 7.29   | 347 / 495, 6.17           |
//!
//! (SAGE moved onto the arena first, at 229 / 336, 4.46; both encoders
//! then lost the loss-gradient vector when `mse_loss` became scalar.)
//! What is left is
//! a handful of small vectors per sample: the cache and gradient lists,
//! one attention-matrix list per transformer block and the dropout mask,
//! plus arena buffers grown to the size of a request none of them held.
//! "Arena sized to the sample": a request gets the smallest idle buffer
//! that holds it, and a buffer grows exactly, not by doubling.
//!
//! The counter also keeps the bytes the thread holds live. High water of
//! a retrain through `Nnlqp::train_predictor_handle`, over where it
//! started, the same on every kernel backend:
//!
//! | retrain                          | own graph per row | each structure once | featurized as decoded | compact rows, sized arena |
//! |----------------------------------|-------------------|---------------------|-----------------------|---------------------------|
//! | 32 structures × 4 heads, 1 epoch | 4,094,206 B       | 2,293,558 B         | 2,293,558 B           | 1,440,117 B               |
//! | 385 × 2, no epoch                |                   | 6,234,374 B         | 3,213,314 B           | 2,038,416 B               |
//! | 385 × 2, 1 epoch                 |                   | 6,234,374 B         | 4,585,082 B           | 2,901,716 B               |
//!
//! "Own graph per row": every row decodes, featurizes and normalizes a
//! graph of its own, beside a raw copy of every feature matrix. "Each
//! structure once": each stored structure is decoded once and its rows
//! share it, but every decoded graph is held until the dataset is built.
//! "Featurized as decoded": each graph is featurized right after its
//! decode and dropped before the next, so the retrain holds features,
//! never graphs. At 32 structures training sets the peak, so the last
//! step leaves it where it was. "Compact rows, sized arena": a held node
//! row is its operator and 16 attribute and shape columns (65 B, not a
//! dense row's 116), densified into the arena one sample at a time, and
//! the arena picks buffers as above.

use nnlqp::{Nnlqp, TrainPredictorConfig};
use nnlqp_ir::{Graph, Rng64};
use nnlqp_models::ModelFamily;
use nnlqp_nn::{LinearGrad, SageGrad};
use nnlqp_predict::transformer::TfGrads;
use nnlqp_predict::{
    train, train_in, Dataset, NnlpConfig, NnlpModel, Scratch, TrainConfig, Trainable,
    TransformerConfig, TransformerModel,
};
use nnlqp_sim::{DeviceFarm, Platform, PlatformSpec};

mod counting_alloc;
use counting_alloc::{allocations, high_water_bytes, live_bytes, reset_high_water, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// High-water bytes of a four-platform retrain of 32 structures: the
/// 1,440,117 B measured, plus 2 % rounded up to 10 kB.
const RETRAIN_HIGH_WATER: i64 = 1_470_000;
/// High-water bytes of a two-platform retrain of 385 structures, with no
/// epoch and with one: 2,038,416 and 2,901,716 B measured, plus 2 %
/// rounded up to 10 kB.
const WIDE_RETRAIN_HIGH_WATER: [i64; 2] = [2_080_000, 2_960_000];

const FOUR_HEADS: [&str; 4] = [
    "gpu-T4-trt7.1-fp32",
    "cpu-openppl-fp32",
    "hi3559A-nnie11-int8",
    "atlas300-acl-fp16",
];

/// The 12-graph, two-head corpus of `tests/predict_fastpath.rs`'s epoch
/// digests: graphs of 39 to 74 nodes, so buffers are reused across sizes.
fn corpus() -> Dataset {
    let graphs: Vec<Graph> = [ModelFamily::SqueezeNet, ModelFamily::ResNet]
        .into_iter()
        .flat_map(|f| nnlqp_models::generate_family(f, 6, 5))
        .map(|m| m.graph)
        .collect();
    let entries: Vec<(&Graph, f64, usize)> = graphs
        .iter()
        .enumerate()
        .map(|(i, g)| (g, 0.8 + 0.37 * i as f64, i % 2))
        .collect();
    Dataset::build(&entries)
}

/// An encoder under test: how to build the digest's model, and every
/// gradient tensor of its backbone.
trait Encoder: Trainable + Sized {
    fn fresh(ds: &Dataset) -> Self;
    fn tensors(g: &Self::Backbone) -> Vec<&LinearGrad>;
}

impl Encoder for NnlpModel {
    fn fresh(ds: &Dataset) -> Self {
        let cfg = NnlpConfig {
            hidden: 48,
            head_hidden: 48,
            n_heads: 2,
            ..Default::default()
        };
        NnlpModel::new(cfg, ds.norm.clone(), &mut Rng64::new(7))
    }

    fn tensors(g: &Vec<SageGrad>) -> Vec<&LinearGrad> {
        g.iter().flat_map(|s| [&s.d_w1, &s.d_w2]).collect()
    }
}

impl Encoder for TransformerModel {
    fn fresh(ds: &Dataset) -> Self {
        let cfg = TransformerConfig {
            d_model: 48,
            layers: 3,
            attn_heads: 4,
            head_hidden: 48,
            n_heads: 2,
            dropout: 0.05,
            ..Default::default()
        };
        TransformerModel::new(cfg, ds.norm.clone(), &mut Rng64::new(7))
    }

    fn tensors(g: &TfGrads) -> Vec<&LinearGrad> {
        let blocks = g
            .blocks
            .iter()
            .flat_map(|b| [&b.d_wq, &b.d_wk, &b.d_wv, &b.d_wo, &b.d_w1]);
        std::iter::once(&g.embed_in).chain(blocks).collect()
    }
}

/// Allocations per sample in a marginal epoch: three epochs' count less
/// one epoch's, over two epochs of samples.
fn marginal_allocations_per_sample<M: Encoder>(ds: &Dataset) -> f64 {
    let epochs_cost = |epochs: usize| {
        let mut model = M::fresh(ds);
        let cfg = TrainConfig {
            epochs,
            batch_size: 4,
            seed: 7,
            ..Default::default()
        };
        let before = allocations();
        train(&mut model, &ds.samples, cfg);
        allocations() - before
    };
    let (one, three) = (epochs_cost(1), epochs_cost(3));
    assert_eq!(one, epochs_cost(1), "the count is not repeatable");
    let per_sample = (three - one) as f64 / 2.0 / ds.samples.len() as f64;
    println!("{per_sample} allocations per sample ({one} in one epoch, {three} in three)");
    per_sample
}

#[test]
fn a_marginal_training_epoch_makes_at_most_eight_allocations_per_sample() {
    let ds = corpus();
    nnlqp_nn::kernel(); // resolved once per process, from an environment string
    for (encoder, per_sample) in [
        ("sage", marginal_allocations_per_sample::<NnlpModel>(&ds)),
        (
            "transformer",
            marginal_allocations_per_sample::<TransformerModel>(&ds),
        ),
    ] {
        assert!(
            per_sample <= 8.0,
            "{encoder}: {per_sample} allocations per sample in a marginal epoch"
        );
    }
}

/// `loss_and_grads` over the whole corpus through one arena; per sample,
/// its loss and every gradient tensor as bits, and the arena's idle
/// buffers once the gradients are back in it.
fn run<M: Encoder>(model: &M, ds: &Dataset, scratch: &mut Scratch) -> Vec<(Vec<u64>, usize)> {
    (ds.samples.iter().enumerate())
        .map(|(i, s)| {
            let mut rng = Rng64::new(11 + i as u64);
            let (loss, g) = model.loss_and_grads(s, &mut rng, scratch);
            let head = [&g.head.d1, &g.head.d2, &g.head.d3];
            let values = (M::tensors(&g.backbone).into_iter().chain(head))
                .flat_map(|l| l.dw.data.iter().chain(&l.db))
                .map(|v| u64::from(v.to_bits()));
            let result = [loss.to_bits(), g.head_idx as u64]
                .into_iter()
                .chain(values)
                .collect();
            g.recycle(scratch);
            (result, scratch.idle_buffers())
        })
        .collect()
}

/// A step returns exactly the buffers it drew, so one arena serves a whole
/// training run: from the second sample on it holds the same number of
/// buffers, whatever the graph sizes.
#[test]
fn a_reused_training_arena_stops_growing_after_the_first_sample() {
    fn idle<M: Encoder>(ds: &Dataset) -> Vec<usize> {
        let run = run(&M::fresh(ds), ds, &mut Scratch::new());
        run.into_iter().map(|(_, idle)| idle).collect()
    }
    let ds = corpus();
    for (encoder, idle) in [
        ("sage", idle::<NnlpModel>(&ds)),
        ("transformer", idle::<TransformerModel>(&ds)),
    ] {
        assert!(idle[0] > 0, "{encoder}: arena unused");
        assert!(
            idle.iter().all(|&n| n == idle[0]),
            "{encoder}: arena grew: {idle:?}"
        );
    }
}

/// The arena is never read before it is written: a run through an arena
/// pre-seeded with more and larger buffers than any sample needs, all NaN,
/// reproduces every loss and gradient of a run through a fresh one. (It
/// passes trivially while `Scratch::take` zero-fills; it is the guard for
/// the day that memset is dropped for speed.)
#[test]
fn a_nan_seeded_arena_reproduces_every_loss_and_gradient() {
    fn check<M: Encoder>(ds: &Dataset) {
        let model = M::fresh(ds);
        let fresh = run(&model, ds, &mut Scratch::new());
        let buffers = 2 * fresh[0].1;
        // Wide enough for a transformer's `[n, n]` attention matrices.
        let largest = ds.samples.iter().map(|s| s.nodes.rows).max().unwrap();

        let mut seeded = Scratch::new();
        let taken: Vec<_> = (0..buffers).map(|_| seeded.take(2 * largest, 64)).collect();
        for mut m in taken {
            m.data.fill(f32::NAN);
            seeded.put(m);
        }
        assert_eq!(seeded.idle_buffers(), buffers);

        let dirty = run(&model, ds, &mut seeded);
        assert_eq!(seeded.idle_buffers(), buffers, "seeded arena grew");
        for (i, (want, got)) in fresh.iter().zip(&dirty).enumerate() {
            assert_eq!(want.0, got.0, "sample {i}");
        }
    }
    let ds = corpus();
    check::<NnlpModel>(&ds);
    check::<TransformerModel>(&ds);
}

/// Idle bytes of the arena after one epoch over [`wide_corpus`], for
/// SAGE and the transformer, while every buffer drifted up to the largest
/// graph's size (the arena handed out whichever buffer it got last).
const DRIFTED_IDLE_BYTES: [usize; 2] = [2_009_200, 21_484_240];

/// Graphs of 20 (AlexNet) to 318 (EfficientNet) nodes, on one head.
fn wide_corpus() -> Dataset {
    let graphs: Vec<Graph> = [
        ModelFamily::AlexNet,
        ModelFamily::ResNet,
        ModelFamily::MobileNetV2,
        ModelFamily::EfficientNet,
    ]
    .into_iter()
    .flat_map(|f| nnlqp_models::generate_family(f, 3, 5))
    .map(|m| m.graph)
    .collect();
    let entries: Vec<(&Graph, f64, usize)> = (graphs.iter().enumerate())
        .map(|(i, g)| (g, 0.5 + 0.29 * i as f64, 0))
        .collect();
    Dataset::build(&entries)
}

/// The arena hands each request the smallest idle buffer that holds it
/// and grows a buffer only to the size asked for, so after an epoch over
/// graphs of 20 to 318 nodes it holds at most half of what it held when
/// every buffer drifted up to the largest graph's size.
#[test]
fn a_training_arena_holds_buffers_sized_to_the_sample() {
    fn idle_bytes<M: Encoder>(ds: &Dataset) -> usize {
        let mut model = M::fresh(ds);
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 4,
            seed: 7,
            ..Default::default()
        };
        let mut scratch = Scratch::new();
        train_in(&mut model, &ds.samples, cfg, &mut scratch);
        scratch.idle_bytes()
    }
    let ds = wide_corpus();
    let sizes = ds.samples.iter().map(|s| s.nodes.rows);
    assert_eq!((sizes.clone().min(), sizes.max()), (Some(20), Some(318)));
    for (encoder, idle, drifted) in [
        ("sage", idle_bytes::<NnlpModel>(&ds), DRIFTED_IDLE_BYTES[0]),
        (
            "transformer",
            idle_bytes::<TransformerModel>(&ds),
            DRIFTED_IDLE_BYTES[1],
        ),
    ] {
        println!("{encoder}: {idle} idle bytes after one epoch");
        assert!(
            2 * idle <= drifted,
            "{encoder}: {idle} idle bytes, drifted arena {drifted}"
        );
    }
}

/// Bytes a retrain over the distinct structures of `per_family` models of
/// each of two families, measured on every platform of `heads`, holds at
/// its peak over what it held before the call.
fn retrain_high_water(heads: &[&str], per_family: usize, epochs: usize) -> i64 {
    let system = Nnlqp::builder()
        .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
        .reps(3)
        .build();
    let mut seen = std::collections::HashSet::new();
    let models: Vec<Graph> = [ModelFamily::SqueezeNet, ModelFamily::ResNet]
        .into_iter()
        .flat_map(|f| nnlqp_models::generate_family(f, per_family, 5))
        .map(|m| m.graph)
        .filter(|g| seen.insert(nnlqp_hash::graph_hash(g)))
        .collect();
    assert!(
        models.len() >= per_family * 2 * 49 / 50,
        "{} structures",
        models.len()
    );
    for name in heads {
        system
            .warm_cache(&models, &Platform::by_name(name).unwrap(), 1)
            .unwrap();
    }
    let cfg = TrainPredictorConfig {
        epochs,
        ..Default::default()
    };
    reset_high_water();
    let before = live_bytes();
    let (_, rows) = system.train_predictor_handle(heads, cfg).unwrap().unwrap();
    assert_eq!(rows, models.len() * heads.len());
    high_water_bytes() - before
}

/// A retrain holds each stored structure once, however many platforms
/// measured it: one decoded graph, one featurization, one normalized
/// matrix and adjacency that the structure's rows share.
#[test]
fn a_four_platform_retrain_holds_each_structure_once() {
    let retrain = || retrain_high_water(&FOUR_HEADS, 16, 1);
    let peak = retrain();
    println!("{peak} bytes at the high water of a four-platform retrain");
    assert_eq!(peak, retrain(), "the peak is not repeatable");
    assert!(peak <= RETRAIN_HIGH_WATER, "{peak} bytes at the high water");
}

/// A retrain featurizes each structure as it decodes it and drops the
/// graph before the next decode: at 385 structures its peak is the
/// features and, with an epoch, training's arena and model, never every
/// decoded graph beside every feature matrix.
#[test]
fn a_wide_retrain_holds_features_not_graphs() {
    for (epochs, bound) in WIDE_RETRAIN_HIGH_WATER.into_iter().enumerate() {
        let peak = retrain_high_water(&FOUR_HEADS[..2], 193, epochs);
        println!("{peak} bytes at the high water of a 385-structure retrain, {epochs} epochs");
        assert!(
            peak <= bound,
            "{epochs} epochs: {peak} bytes at the high water"
        );
    }
}
