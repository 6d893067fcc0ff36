//! Integration: the serving layer's resolve memo — `(Arc identity, batch)`
//! → effective-graph hash — must be invisible except in speed.
//!
//! The memo lets a repeat submitter skip the rebatch and the Merkle pass,
//! so everything here attacks the one way that could go wrong: a request
//! served under a hash that is not `graph_hash(its effective graph)`.
//! Addresses are reused by the allocator, graphs are mutable through
//! `Arc::make_mut`, and failures must never be memoised.

use nnlqp::Nnlqp;
use nnlqp_db::Database;
use nnlqp_hash::graph_hash;
use nnlqp_ir::{serialize, Graph, GraphBuilder, Rng64, Shape};
use nnlqp_serve::{metric_names, LatencyService, ServeConfig, ServeError, Served, Source};
use nnlqp_sim::{DeviceFarm, Platform, PlatformSpec};
use std::sync::Arc;

/// 128 MiB of device memory: strict mode rejects [`oversized`] here.
const EDGE: &str = "rv1109-rknn-int8";
const GPU: &str = "gpu-T4-trt7.1-fp32";

/// A small valid graph, distinct (in hash) for every `channels`.
fn conv_relu(channels: u32) -> Graph {
    let mut b = GraphBuilder::new(format!("conv{channels}"), Shape::nchw(1, 3, 8, 8));
    let c = b.conv(None, channels, 3, 1, 1, 1).unwrap();
    b.relu(c).unwrap();
    b.finish().unwrap()
}

/// One conv output is the whole edge device: NNL301 under strict mode.
fn oversized() -> Graph {
    let mut b = GraphBuilder::new("vram-hog", Shape::nchw(1, 3, 512, 512));
    let c = b.conv(None, 512, 1, 1, 0, 1).unwrap();
    b.relu(c).unwrap();
    b.finish().unwrap()
}

fn system(strict: bool) -> Arc<Nnlqp> {
    let platforms = [
        PlatformSpec::by_name(EDGE).unwrap(),
        PlatformSpec::by_name(GPU).unwrap(),
    ];
    Arc::new(
        Nnlqp::builder()
            .farm(DeviceFarm::new(&platforms, 2))
            .reps(3)
            .strict(strict)
            .build(),
    )
}

fn service(system: &Arc<Nnlqp>, cache_capacity: usize) -> LatencyService {
    LatencyService::start(
        Arc::clone(system),
        ServeConfig {
            workers: 2,
            queue_depth: 8,
            cache_capacity,
            cache_shards: 1,
            degrade_backlog: usize::MAX,
            ..Default::default()
        },
    )
}

/// `(hits, misses)` of the resolve memo so far.
fn memo_counters(system: &Nnlqp) -> (u64, u64) {
    let snap = system.registry().snapshot();
    (
        snap.counter(metric_names::RESOLVE_MEMO_HITS),
        snap.counter(metric_names::RESOLVE_MEMO_MISSES),
    )
}

#[test]
fn a_reused_address_never_serves_another_graphs_key() {
    // Build → `Arc::new` → query → drop, 2 000 times: the allocator hands
    // the freed `ArcInner` straight back, so an address-only memo would
    // answer graph i+1 with graph i's hash (a hot hit). Every answer must
    // instead be a fresh measurement filed under the graph's own hash.
    const ROUNDS: u32 = 2_000;
    let sys = system(false);
    let svc = service(&sys, 64);
    let gpu = Platform::by_name(GPU).unwrap();
    let spec = gpu.spec();
    let pid = sys
        .db
        .get_or_create_platform(&spec.hardware, &spec.software, spec.dtype.name());
    for i in 0..ROUNDS {
        let graph = Arc::new(conv_relu(i + 1));
        let hash = graph_hash(&graph);
        let served = svc.query(&graph, GPU, 1).unwrap();
        assert_eq!(served.source, Source::Measured, "round {i}");
        let stored = sys
            .db
            .lookup_latency(hash, pid, 1)
            .unwrap_or_else(|| panic!("round {i}: nothing stored under the graph's own hash"));
        assert_eq!(stored.cost_ms, served.latency_ms, "round {i}");
    }
    assert_eq!(sys.stats().models, ROUNDS as usize);
    assert_eq!(sys.stats().latencies, ROUNDS as usize);
    let m = svc.metrics();
    assert_eq!((m.misses, m.hot_hits, m.db_hits), (u64::from(ROUNDS), 0, 0));
    assert!(m.balanced(), "{m:?}");
    assert_eq!(memo_counters(&sys), (0, u64::from(ROUNDS)));
}

#[test]
fn make_mut_on_a_queried_graph_is_a_new_key() {
    let sys = system(false);
    let svc = service(&sys, 64);
    let mut graph = Arc::new(conv_relu(8));
    let before = graph_hash(&graph);
    let first = svc.query(&graph, GPU, 1).unwrap();
    assert_eq!(first.source, Source::Measured);
    assert_eq!(svc.query(&graph, GPU, 1).unwrap().source, Source::HotCache);
    assert_eq!(memo_counters(&sys), (1, 1));

    // The only strong reference mutates the graph it just queried: a 3x3
    // pad-1 conv becomes a 1x1 pad-0 one (same shapes, still valid).
    let edited = Arc::make_mut(&mut graph);
    edited.nodes.make_mut()[0].attrs.kernel = [1, 1];
    edited.nodes.make_mut()[0].attrs.pad = [0, 0];
    let after = graph_hash(&graph);
    assert_ne!(after, before);

    let second = svc.query(&graph, GPU, 1).unwrap();
    assert_eq!(second.source, Source::Measured, "stale hash served");
    assert_eq!(memo_counters(&sys), (1, 2));
    assert!(sys.db.model_by_hash(before).is_some());
    assert!(sys.db.model_by_hash(after).is_some());
    assert_eq!(sys.stats().models, 2);
    assert!(svc.metrics().balanced());
}

/// One request of the differential schedule: indices into the graph
/// pool and the platform list, and a batch size.
type Request = (usize, usize, u32);

/// A fresh strict service with three graphs' keys already in the
/// database, replaying `schedule`; `submit` turns a pool graph into the
/// `Arc` actually submitted.
fn replay(
    pool: &[Arc<Graph>],
    schedule: &[Request],
    submit: impl Fn(&Arc<Graph>) -> Arc<Graph>,
) -> (Vec<Result<Served, ServeError>>, Arc<Nnlqp>, LatencyService) {
    let sys = system(true);
    for graph in &pool[..3] {
        for batch in [1, 2] {
            let params = nnlqp::QueryParams::by_name((**graph).clone(), batch, GPU).unwrap();
            sys.query(&params).unwrap();
        }
    }
    // Four hot entries against ~40 live keys: answers keep moving between
    // the hot cache and the database.
    let svc = service(&sys, 4);
    let answers = schedule
        .iter()
        .map(|&(graph, platform, batch)| {
            svc.query(&submit(&pool[graph]), [GPU, EDGE][platform], batch)
        })
        .collect();
    (answers, sys, svc)
}

#[test]
fn shared_and_fresh_arcs_are_served_identically() {
    // Pool: 0..3 stored (db/hot tiers), 3..8 fresh (measured once, then
    // hot/db), 8 rejected by strict admission on the edge device.
    let mut pool: Vec<Arc<Graph>> = (0..8).map(|i| Arc::new(conv_relu(4 + i))).collect();
    pool.push(Arc::new(oversized()));
    let mut rng = Rng64::new(0x5EED_0015);
    let schedule: Vec<Request> = (0..400)
        .map(|_| {
            let graph = rng.below(pool.len());
            // The oversized graph only ever goes to the device it cannot
            // fit: one key is enough for the rejected class.
            if graph == 8 {
                (graph, 1, 1)
            } else {
                (graph, rng.below(2), [1, 2, 4][rng.below(3)])
            }
        })
        .collect();

    let (shared, shared_sys, shared_svc) = replay(&pool, &schedule, Arc::clone);
    let (fresh, fresh_sys, fresh_svc) = replay(&pool, &schedule, |g| Arc::new((**g).clone()));

    // Same answers from the same tiers, same errors, in the same order.
    assert_eq!(shared, fresh);
    for source in [Source::HotCache, Source::Database, Source::Measured] {
        assert!(
            shared.iter().flatten().any(|s| s.source == source),
            "schedule never reached {source:?}"
        );
    }
    assert!(shared
        .iter()
        .any(|r| matches!(r, Err(ServeError::LintRejected(_)))));
    assert_eq!(shared_svc.metrics(), fresh_svc.metrics());
    assert!(shared_svc.metrics().balanced());
    // ... and the same evolving database: every row of every table (a
    // model's hash, name, bytes and sequence, each platform, every latency
    // column) and the sequence counter.
    assert!(shared_sys.db == fresh_sys.db, "the two stores differ");

    // The shared run resolved each distinct (graph, batch) once; the
    // fresh run never saw an `Arc` twice.
    let mut pairs: Vec<(usize, u32)> = schedule.iter().map(|&(g, _, b)| (g, b)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let requests = schedule.len() as u64;
    let distinct = pairs.len() as u64;
    assert_eq!(memo_counters(&shared_sys), (requests - distinct, distinct));
    assert_eq!(memo_counters(&fresh_sys), (0, requests));

    // Warm hot hits on a rebatched key leave `misses` where it is: no
    // rebatch and no Merkle pass ran for any of them.
    let warm = &pool[1];
    shared_svc.query(warm, GPU, 2).unwrap();
    let (hits, misses) = memo_counters(&shared_sys);
    for _ in 0..100 {
        assert_eq!(
            shared_svc.query(warm, GPU, 2).unwrap().source,
            Source::HotCache
        );
    }
    assert_eq!(memo_counters(&shared_sys), (hits + 100, misses));
}

#[test]
fn failures_are_never_memoised() {
    let sys = system(false);
    let svc = service(&sys, 64);
    let fine = Arc::new(conv_relu(8));
    // Valid at its native batch, but a conv with zero groups cannot have
    // its shapes re-inferred at any other.
    let mut broken = conv_relu(8);
    broken.nodes.make_mut()[0].attrs.groups = 0;
    let broken = Arc::new(broken);

    let zero: Vec<_> = (0..10).map(|_| svc.query(&fine, GPU, 0)).collect();
    let rebatch: Vec<_> = (0..10).map(|_| svc.query(&broken, GPU, 2)).collect();
    for calls in [&zero, &rebatch] {
        assert!(matches!(calls[0], Err(ServeError::BadBatch(_))));
        assert_eq!(calls[0], calls[9]);
    }
    assert_ne!(zero[0], rebatch[0]);
    let m = svc.metrics();
    assert_eq!((m.requests, m.errors), (20, 20));
    assert!(m.balanced(), "{m:?}");
    // Every one of them took the full path.
    assert_eq!(memo_counters(&sys), (0, 20));
    assert_eq!(sys.stats().models, 0);
}

#[test]
fn insert_model_and_insert_model_encoded_dedupe_against_each_other() {
    let db = Database::new();
    let (a, b) = (conv_relu(8), conv_relu(16));
    let encoded = |g: &Graph| (g.name.clone(), graph_hash(g), serialize::encode(g).unwrap());
    let (id_a, fresh) = db.insert_model(&a);
    assert!(fresh);
    let (name, hash, bytes) = encoded(&a);
    assert_eq!(db.insert_model_encoded(name, hash, bytes), (id_a, false));
    let (name, hash, bytes) = encoded(&b);
    let (id_b, fresh) = db.insert_model_encoded(name, hash, bytes);
    assert!(fresh);
    assert_eq!(db.insert_model(&b), (id_b, false));
    assert_eq!(db.stats().models, 2);
    assert_eq!(db.model_by_hash(graph_hash(&b)).unwrap().id, id_b);
    assert_eq!(db.load_graph(id_b).unwrap(), b);
}
