//! The training step runs out of one arena: the allocator is out of the
//! loop, by count.
//!
//! This file is its own test binary so that it can install a counting
//! `#[global_allocator]`. The count is per thread (the harness runs tests
//! side by side), exact and repeatable, so it is asserted, not timed.

use nnlqp_ir::{Graph, Rng64};
use nnlqp_models::ModelFamily;
use nnlqp_predict::model::NnlpGrads;
use nnlqp_predict::{train, Dataset, NnlpConfig, NnlpModel, Scratch, TrainConfig};

mod counting_alloc;
use counting_alloc::{allocations, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The 12-graph, two-head corpus of `tests/predict_fastpath.rs`'s epoch
/// digest: graphs of 39 to 74 nodes, so buffers are reused across sizes.
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

fn fresh_model(ds: &Dataset) -> NnlpModel {
    let cfg = NnlpConfig {
        hidden: 48,
        head_hidden: 48,
        n_heads: 2,
        ..Default::default()
    };
    NnlpModel::new(cfg, ds.norm.clone(), &mut Rng64::new(7))
}

/// Before the arena a training sample made 79 allocations (472 KB
/// requested); what is left is a handful of small vectors per sample (the
/// cache and gradient lists, the dropout mask, the loss gradient).
#[test]
fn a_marginal_training_epoch_makes_at_most_eight_allocations_per_sample() {
    let ds = corpus();
    nnlqp_nn::kernel(); // resolved once per process, from an environment string
    let epochs_cost = |epochs: usize| {
        let mut model = fresh_model(&ds);
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
    assert!(
        per_sample <= 8.0,
        "{per_sample} allocations per sample in a marginal epoch ({one} in one epoch, {three} in three)"
    );
}

/// One sample's loss and every gradient tensor, flattened to bits.
fn bits(loss: f64, g: &NnlpGrads) -> Vec<u64> {
    let head = [&g.head.d1, &g.head.d2, &g.head.d3];
    let sage = g.sage.iter().flat_map(|s| [&s.d_w1, &s.d_w2]);
    let values = sage
        .chain(head)
        .flat_map(|l| l.dw.data.iter().chain(&l.db))
        .map(|v| u64::from(v.to_bits()));
    [loss.to_bits(), g.head_idx as u64]
        .into_iter()
        .chain(values)
        .collect()
}

/// `loss_and_grads` over the whole corpus through one arena; per sample,
/// its result as bits and the arena's idle buffers once the gradients are
/// back in it.
fn run(model: &NnlpModel, ds: &Dataset, scratch: &mut Scratch) -> Vec<(Vec<u64>, usize)> {
    (ds.samples.iter().enumerate())
        .map(|(i, s)| {
            let mut rng = Rng64::new(11 + i as u64);
            let (loss, g) = model.loss_and_grads(
                &s.nodes,
                &s.adj,
                &s.stat,
                s.target_log,
                s.head,
                &mut rng,
                scratch,
            );
            let result = bits(loss, &g);
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
    let ds = corpus();
    let model = fresh_model(&ds);
    let idle: Vec<usize> = run(&model, &ds, &mut Scratch::new())
        .into_iter()
        .map(|(_, idle)| idle)
        .collect();
    assert!(idle[0] > 0, "arena unused");
    assert!(idle.iter().all(|&n| n == idle[0]), "arena grew: {idle:?}");
}

/// The arena is never read before it is written: a run through an arena
/// pre-seeded with more and larger buffers than any sample needs, all NaN,
/// reproduces every loss and gradient of a run through a fresh one. (It
/// passes trivially while `Scratch::take` zero-fills; it is the guard for
/// the day that memset is dropped for speed.)
#[test]
fn a_nan_seeded_arena_reproduces_every_loss_and_gradient() {
    let ds = corpus();
    let model = fresh_model(&ds);
    let fresh = run(&model, &ds, &mut Scratch::new());
    let buffers = 2 * fresh[0].1;
    let largest = ds.samples.iter().map(|s| s.nodes.rows).max().unwrap();

    let mut seeded = Scratch::new();
    let taken: Vec<_> = (0..buffers).map(|_| seeded.take(2 * largest, 64)).collect();
    for mut m in taken {
        m.data.fill(f32::NAN);
        seeded.put(m);
    }
    assert_eq!(seeded.idle_buffers(), buffers);

    let dirty = run(&model, &ds, &mut seeded);
    assert_eq!(seeded.idle_buffers(), buffers, "seeded arena grew");
    for (i, (want, got)) in fresh.iter().zip(&dirty).enumerate() {
        assert_eq!(want.0, got.0, "sample {i}");
    }
}
