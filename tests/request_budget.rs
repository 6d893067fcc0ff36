//! A hit costs its probes: a hot-cache or database hit on `LatencyService`
//! makes no allocation, tracing, histograms, exemplars and the event log
//! included.
//!
//! This file is its own test binary so that it can install a counting
//! `#[global_allocator]`. The count is per thread (the harness runs tests
//! side by side), exact and repeatable, so it is asserted, not timed. The
//! service runs with a small event log, filled during warm-up, so every
//! request measured here refills a slot of a full ring. Measured, debug and
//! release alike:
//!
//! | request (caller thread)  | at `1a9da6c` | now |
//! |--------------------------|-------------:|----:|
//! | hot hit                  |           15 |   0 |
//! | database hit             |           15 |   0 |
//! | measured miss, memo hit  |           17 | 1–2 |
//!
//! At `1a9da6c` every request paid one `Vec` for its trace's marks, one for
//! the finished trace's stages and 13 for its `query` event (the field
//! `Vec` twice, the kind, eight keys, the platform and source values); a
//! hit retained as an exemplar paid one more. A miss now allocates its
//! flight, and grows an exemplar's stage buffer when it displaces a
//! shorter trace.

use nnlqp::Nnlqp;
use nnlqp_ir::Graph;
use nnlqp_models::ModelFamily;
use nnlqp_serve::{LatencyService, ServeConfig, Source};
use nnlqp_sim::{DeviceFarm, PlatformSpec};
use std::sync::Arc;

mod counting_alloc;
use counting_alloc::{allocations, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const PLATFORM: &str = "gpu-T4-trt7.1-fp32";
/// Platforms the memo-hit misses are measured on (bound during warm-up).
const OTHERS: [&str; 3] = [
    "cpu-openppl-fp32",
    "gpu-P4-trt7.1-fp32",
    "atlas300-acl-fp16",
];
/// Graphs cycled over the 4-entry cache: every visit misses it.
const GRAPHS: usize = 5;
/// Requests per reading.
const REQUESTS: u64 = 64;
/// Allocations a measured miss with a memo hit makes on the caller's
/// thread (the worker's measurement is not counted).
const MEMO_HIT_MISS: u64 = 2;

/// A service with a one-shard, four-entry hot cache and a 16-event log,
/// `GRAPHS` graphs stored, and every platform bound.
fn warmed() -> (LatencyService, Vec<Arc<Graph>>) {
    let system = Arc::new(
        Nnlqp::builder()
            .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
            .reps(3)
            .build(),
    );
    let svc = LatencyService::start(
        system,
        ServeConfig {
            workers: 1,
            cache_capacity: 4,
            cache_shards: 1,
            degrade_backlog: usize::MAX,
            event_log_capacity: 16,
            ..Default::default()
        },
    );
    let graphs: Vec<Arc<Graph>> = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 6, 9)
        .into_iter()
        .map(|m| Arc::new(m.graph))
        .collect();
    let (graphs, spare) = graphs.split_at(GRAPHS);
    for g in graphs {
        assert_eq!(svc.query(g, PLATFORM, 1).unwrap().source, Source::Measured);
    }
    for platform in OTHERS {
        svc.query(&spare[0], platform, 1).unwrap();
    }
    // Fill the event ring and every class's exemplars: hot hits on one
    // key, database hits cycling all of them.
    for i in 0..64 {
        svc.query(&graphs[0], PLATFORM, 1).unwrap();
        svc.query(&graphs[i % GRAPHS], PLATFORM, 1).unwrap();
    }
    assert!(svc.events().unwrap().dropped() > 0, "the ring is full");
    (svc, graphs.to_vec())
}

/// Allocations per request over [`REQUESTS`] calls of `request`, read twice
/// and required to repeat.
fn per_request(mut request: impl FnMut()) -> f64 {
    let mut read = || {
        let before = allocations();
        for _ in 0..REQUESTS {
            request();
        }
        allocations() - before
    };
    let first = read();
    assert_eq!(read(), first, "an allocation count must repeat exactly");
    first as f64 / REQUESTS as f64
}

#[test]
fn hot_and_database_hits_allocate_nothing() {
    let (svc, graphs) = warmed();
    // One pass in order leaves the last four resident, least recent
    // first: from here on the cycle always asks for the missing one.
    let mut next = (0..GRAPHS).cycle();
    for _ in 0..GRAPHS {
        svc.query(&graphs[next.next().unwrap()], PLATFORM, 1)
            .unwrap();
    }
    let db = per_request(|| {
        let g = &graphs[next.next().unwrap()];
        let served = svc.query(g, PLATFORM, 1).unwrap();
        assert_eq!(served.source, Source::Database);
    });
    svc.query(&graphs[0], PLATFORM, 1).unwrap();
    let hot = per_request(|| {
        let served = svc.query(&graphs[0], PLATFORM, 1).unwrap();
        assert_eq!(served.source, Source::HotCache);
    });
    assert_eq!((hot, db), (0.0, 0.0), "allocations per hot / db hit");
}

#[test]
fn a_memo_hit_miss_allocates_only_for_its_flight() {
    let (svc, graphs) = warmed();
    let mut counts = Vec::new();
    for platform in OTHERS {
        for g in &graphs {
            let before = allocations();
            let served = svc.query(g, platform, 1).unwrap();
            counts.push(allocations() - before);
            assert_eq!(served.source, Source::Measured);
        }
    }
    let m = svc.metrics();
    assert_eq!(
        m.measured,
        (GRAPHS + OTHERS.len() + OTHERS.len() * GRAPHS) as u64
    );
    let worst = *counts.iter().max().unwrap();
    assert!(
        worst <= MEMO_HIT_MISS,
        "allocations per memo-hit miss: {counts:?}"
    );
}
