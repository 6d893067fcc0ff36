//! A cached prediction costs its lookup: a `predict_batch` whose embeddings
//! are all cached stacks them once and runs each platform's head once over
//! the stack, a graph seen before keys its embedding without being walked
//! again, and a platform name resolves against a registry built once per
//! process.
//!
//! This file is its own test binary so that it can install a counting
//! `#[global_allocator]`. The counts are per thread (the harness runs tests
//! side by side), exact and repeatable, so they are asserted, not timed.
//! Allocations, measured debug and release alike:
//!
//! | call                                                  |    before |       now |
//! |-------------------------------------------------------|----------:|----------:|
//! | cached `predict_batch`, 32 graphs × 4 platforms       |       442 |        43 |
//! | cached `predict_batch`, 32 graphs × 1 platform        |       142 |        42 |
//! | `PlatformSpec::by_name`                               |       100 |       3–4 |
//! | `PlatformSpec::canonical_name`                        |         — |         0 |
//! | cached `predict_effective`                            |       105 |         5 |
//! | cold `predict_batch`, 32 × 4, GraphSAGE / transformer | 306 / 318 | 274 / 286 |
//!
//! "Before" is `7593170` for the first five rows and `e74246b` for the
//! cold one. 33 of the cached batch's 43 are the `Vec<Vec<f64>>` it
//! returns. At `7593170` a batch made one three-GEMM head evaluation per
//! (graph, platform) pair and every `by_name` rebuilt the 19-row registry
//! to find one row; at `e74246b` every embedding grew once when the static
//! features were appended to its pooled part.
//!
//! Graph walks (`nnlqp_ir::digests_computed`, node digests computed for the
//! embed-cache key): a cached 32 × 4 `predict_batch` over graph values seen
//! before walks 0 graphs (32 at `e74246b`, where every key re-walked its
//! graph); a graph built afresh walks once at first sight and 0 times after,
//! at 38 nodes as at 158.

use nnlqp::{Nnlqp, PredictorKind, TrainPredictorConfig};
use nnlqp_ir::{digests_computed, Graph};
use nnlqp_models::ModelFamily;
use nnlqp_sim::{DeviceFarm, Platform, PlatformSpec};
use std::hint::black_box;

mod counting_alloc;
use counting_alloc::{allocations, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const PLATFORMS: [&str; 4] = [
    "gpu-T4-trt7.1-fp32",
    "cpu-openppl-fp32",
    "hi3559A-nnie11-int8",
    "atlas300-acl-fp16",
];

/// Allocations `pass` makes on this thread, read twice and required to
/// repeat; each result is kept alive across its reading so freeing it is
/// not part of the pass.
fn allocations_of<T>(mut pass: impl FnMut() -> T) -> u64 {
    let mut read = || {
        let before = allocations();
        let out = black_box(pass());
        let made = allocations() - before;
        drop(out);
        made
    };
    let first = read();
    assert_eq!(read(), first, "an allocation count must repeat exactly");
    first
}

/// A system with a four-head `arch` predictor (default width) trained on a
/// tiny corpus, and 32 graphs whose embeddings it has cached.
fn warmed_system(arch: PredictorKind) -> (Nnlqp, Vec<Graph>) {
    let s = Nnlqp::builder()
        .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
        .reps(3)
        .build();
    let mut graphs: Vec<Graph> = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 36, 3)
        .into_iter()
        .map(|m| m.graph)
        .collect();
    let corpus = graphs.split_off(32);
    for name in PLATFORMS {
        s.warm_cache(&corpus, &Platform::by_name(name).unwrap(), 1)
            .unwrap();
    }
    let cfg = TrainPredictorConfig {
        epochs: 1,
        arch,
        ..Default::default()
    };
    s.train_predictor(&PLATFORMS, cfg).unwrap();
    let filled = s.predict_batch(&graphs, &PLATFORMS).unwrap();
    assert_eq!(filled.embed_misses, 32);
    (s, graphs)
}

/// Node digests (graph walks) `pass` computes on this thread.
fn digests_of<T>(pass: impl FnOnce() -> T) -> u64 {
    let before = digests_computed();
    black_box(pass());
    digests_computed() - before
}

#[test]
fn a_cached_batch_allocates_for_its_answer_and_little_else() {
    let (s, graphs) = warmed_system(PredictorKind::Sage);
    let cached = |platforms: &[&str]| {
        allocations_of(|| {
            let r = s.predict_batch(&graphs, platforms).unwrap();
            assert_eq!((r.embed_hits, r.embed_misses), (32, 0));
            r
        })
    };
    let four = cached(&PLATFORMS);
    let one = cached(&PLATFORMS[..1]);
    // 33 are the answer: 32 rows and the vector of them.
    assert!((33..=64).contains(&four), "32 × 4 cached batch: {four}");
    // One head call per platform over the stack, not one per pair: the
    // platform count adds no per-graph work to the allocator.
    assert!(four <= one + 8, "1 platform {one}, 4 platforms {four}");
}

#[test]
fn a_platform_name_resolves_without_rebuilding_the_registry() {
    for name in PLATFORMS.into_iter().chain(["cpu-ppl2-fp32"]) {
        // The clone of the row found: three strings and, where the
        // toolchain lacks an operator, the list of them.
        let by_name = allocations_of(|| PlatformSpec::by_name(name).unwrap());
        assert!(by_name <= 4, "by_name({name}): {by_name}");
        let canonical = allocations_of(|| PlatformSpec::canonical_name(name).unwrap());
        assert_eq!(canonical, 0, "canonical_name({name})");
    }
}

#[test]
fn a_cached_single_prediction_makes_at_most_eight_allocations() {
    let (s, graphs) = warmed_system(PredictorKind::Sage);
    for name in PLATFORMS {
        let hit = allocations_of(|| s.predict_effective(&graphs[7], name).unwrap());
        assert!(hit <= 8, "cached predict_effective on {name}: {hit}");
    }
}

#[test]
fn a_cold_batch_allocates_each_embedding_once() {
    for arch in [PredictorKind::Sage, PredictorKind::Transformer] {
        let (s, graphs) = warmed_system(arch);
        let handle = s.predictor_handle().expect("a trained predictor");
        let cold = || {
            // A fresh stamp makes every embedding miss, as in `predict-cold`.
            s.set_predictor(handle.clone());
            let before = allocations();
            let r = black_box(s.predict_batch(&graphs, &PLATFORMS).unwrap());
            let made = allocations() - before;
            assert_eq!((r.embed_hits, r.embed_misses), (0, 32));
            made
        };
        let made = cold();
        assert_eq!(
            cold(),
            made,
            "{arch}: an allocation count must repeat exactly"
        );
        // One embedding vector per graph, reserved at its final width: the
        // static features no longer grow it (306 / 318 at `e74246b`).
        let bound = match arch {
            PredictorKind::Sage => 274,
            _ => 286,
        };
        assert!(made <= bound, "{arch}: cold 32 × 4 batch made {made}");
    }
}

#[test]
fn a_graph_seen_before_is_not_walked_again() {
    let (s, graphs) = warmed_system(PredictorKind::Sage);
    let cached = digests_of(|| s.predict_batch(&graphs, &PLATFORMS).unwrap());
    assert_eq!(cached, 0, "cached 32 × 4 batch over graphs seen before");
    // 38 and 158 nodes, each built afresh: one walk at first sight, none
    // after, whatever the size.
    let counts: Vec<(u64, u64)> = [ModelFamily::Vgg, ModelFamily::MobileNetV3]
        .into_iter()
        .map(|family| {
            let g = family.canonical().unwrap();
            let one = std::slice::from_ref(&g);
            let first = digests_of(|| s.predict_batch(one, &PLATFORMS).unwrap());
            let again = digests_of(|| s.predict_batch(one, &PLATFORMS).unwrap());
            (first, again)
        })
        .collect();
    assert_eq!(counts, [(1, 0), (1, 0)]);
}
