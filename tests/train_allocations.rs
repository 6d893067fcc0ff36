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
//! | encoder     | allocating step        | shared arena loop |
//! |-------------|------------------------|-------------------|
//! | SAGE        | 79 per sample          | 217 / 300, 3.46   |
//! | transformer | 3,581 / 10,547, 290.25 | 438 / 613, 7.29   |
//!
//! (SAGE moved onto the arena first, at 229 / 336, 4.46; both encoders
//! then lost the loss-gradient vector when `mse_loss` became scalar.)
//! What is left is
//! a handful of small vectors per sample: the cache and gradient lists,
//! one attention-matrix list per transformer block and the dropout mask,
//! plus arena buffers still growing to the corpus's largest graph.
//!
//! The counter also keeps the bytes the thread holds live. A one-epoch
//! retrain through `Nnlqp::train_predictor_handle` on four platforms that
//! measured the same 32 graphs (128 rows) peaks 4,094,206 bytes above
//! where it started when every row decodes, featurizes and normalizes a
//! graph of its own (beside a raw copy of every feature matrix), and
//! 2,293,558 bytes when each stored structure is held once and its rows
//! share it. The figure is the same on every kernel backend.

use nnlqp::{Nnlqp, TrainPredictorConfig};
use nnlqp_ir::{Graph, Rng64};
use nnlqp_models::ModelFamily;
use nnlqp_nn::{LinearGrad, SageGrad};
use nnlqp_predict::transformer::TfGrads;
use nnlqp_predict::{
    train, Dataset, NnlpConfig, NnlpModel, Scratch, TrainConfig, Trainable, TransformerConfig,
    TransformerModel,
};
use nnlqp_sim::{DeviceFarm, Platform, PlatformSpec};

mod counting_alloc;
use counting_alloc::{allocations, high_water_bytes, live_bytes, reset_high_water, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// High-water bytes of [`retrain_high_water`]'s call.
const RETRAIN_HIGH_WATER: i64 = 2_293_558;

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

/// Bytes a four-platform retrain holds at its peak, over what it held
/// before the call.
fn retrain_high_water() -> i64 {
    const HEADS: [&str; 4] = [
        "gpu-T4-trt7.1-fp32",
        "cpu-openppl-fp32",
        "hi3559A-nnie11-int8",
        "atlas300-acl-fp16",
    ];
    let system = Nnlqp::builder()
        .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
        .reps(3)
        .build();
    let models: Vec<Graph> = [ModelFamily::SqueezeNet, ModelFamily::ResNet]
        .into_iter()
        .flat_map(|f| nnlqp_models::generate_family(f, 16, 5))
        .map(|m| m.graph)
        .collect();
    for name in HEADS {
        system
            .warm_cache(&models, &Platform::by_name(name).unwrap(), 1)
            .unwrap();
    }
    let cfg = TrainPredictorConfig {
        epochs: 1,
        ..Default::default()
    };
    reset_high_water();
    let before = live_bytes();
    let (_, rows) = system.train_predictor_handle(&HEADS, cfg).unwrap().unwrap();
    assert_eq!(rows, models.len() * HEADS.len());
    high_water_bytes() - before
}

/// A retrain holds each stored structure once, however many platforms
/// measured it: one decoded graph, one featurization, one normalized
/// matrix and adjacency that the structure's rows share.
#[test]
fn a_four_platform_retrain_holds_each_structure_once() {
    let peak = retrain_high_water();
    println!("{peak} bytes at the high water of a four-platform retrain");
    assert_eq!(peak, retrain_high_water(), "the peak is not repeatable");
    assert!(peak <= RETRAIN_HIGH_WATER, "{peak} bytes at the high water");
}
