//! A cached prediction costs its lookup: a `predict_batch` whose embeddings
//! are all cached stacks them once and runs each platform's head once over
//! the stack, and a platform name resolves against a registry built once
//! per process.
//!
//! This file is its own test binary so that it can install a counting
//! `#[global_allocator]`. The count is per thread (the harness runs tests
//! side by side), exact and repeatable, so it is asserted, not timed.
//! Measured, debug and release alike:
//!
//! | call                                            | at `7593170` | now |
//! |-------------------------------------------------|-------------:|----:|
//! | cached `predict_batch`, 32 graphs × 4 platforms |          442 |  43 |
//! | cached `predict_batch`, 32 graphs × 1 platform  |          142 |  42 |
//! | `PlatformSpec::by_name`                         |          100 | 3–4 |
//! | `PlatformSpec::canonical_name`                  |            — |   0 |
//! | cached `predict_effective`                      |          105 |   5 |
//!
//! 33 of the batch's 43 are the `Vec<Vec<f64>>` it returns. At `7593170`
//! a batch made one three-GEMM head evaluation per (graph, platform) pair
//! and every `by_name` rebuilt the 19-row registry to find one row.

use nnlqp::{Nnlqp, TrainPredictorConfig};
use nnlqp_ir::Graph;
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

/// A system with a four-head predictor (default width) trained on a tiny
/// corpus, and 32 graphs whose embeddings it has cached.
fn warmed_system() -> (Nnlqp, Vec<Graph>) {
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
        ..Default::default()
    };
    s.train_predictor(&PLATFORMS, cfg).unwrap();
    let filled = s.predict_batch(&graphs, &PLATFORMS).unwrap();
    assert_eq!(filled.embed_misses, 32);
    (s, graphs)
}

#[test]
fn a_cached_batch_allocates_for_its_answer_and_little_else() {
    let (s, graphs) = warmed_system();
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
    let (s, graphs) = warmed_system();
    for name in PLATFORMS {
        let hit = allocations_of(|| s.predict_effective(&graphs[7], name).unwrap());
        assert!(hit <= 8, "cached predict_effective on {name}: {hit}");
    }
}
