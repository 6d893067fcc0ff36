//! The traced run: every layer's rung timed from outside through the
//! crates' public functions on the workload's own requests, then the
//! workload replayed in alternating plain and traced chunks for the serve
//! stages, the tier shares and the cost of tracing itself.

use crate::spans::{SpanId, Trace};
use crate::stats::{median, median_us, throughput_ops_s};
use crate::workloads::{drive, Budget, Timed, Workload, PREDICT_BATCH};
use crate::world::{
    miss_keys, platforms, Corpus, Key, TempDir, World, PREDICT_PLATFORMS, REPS, STORE_GRAPHS,
    TRAIN_PLATFORM,
};
use nnlqp::{Nnlqp, QueryParams, TrainPredictorConfig};
use nnlqp_db::{DurableOptions, FsyncPolicy};
use nnlqp_hash::{graph_fingerprint, graph_hash};
use nnlqp_ir::Graph;
use nnlqp_nn::{Csr, Matrix};
use nnlqp_obs::trace::{TraceClock, TraceContext};
use nnlqp_predict::{extract_features, mape, Dataset};
use nnlqp_serve::{CacheKey, ShardedLru};
use nnlqp_sim::{measure, model_latency_ms, Platform, PlatformSpec, QueryJob};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Every per-layer metric, with its unit; `BENCHMARK.json` lists the same
/// names (checked by a test).
pub const PER_LAYER: [(&str, &str); 49] = [
    ("ir.rebatch_us", "us"),
    ("hash.graph_hash_us", "us"),
    ("hash.graph_fingerprint_us", "us"),
    ("serve.cache_get_us", "us"),
    ("serve.cache_insert_us", "us"),
    ("serve.cache_evictions", "count"),
    ("serve.hot_hit_share", "ratio"),
    ("serve.db_hit_share", "ratio"),
    ("serve.measured_share", "ratio"),
    ("serve.stage.resolve_us", "us"),
    ("serve.stage.hot_cache_us", "us"),
    ("serve.stage.db_lookup_us", "us"),
    ("serve.stage.enqueue_us", "us"),
    ("serve.stage.queue_wait_us", "us"),
    ("serve.stage.measure_us", "us"),
    ("serve.stage.db_write_us", "us"),
    ("serve.stage.publish_us", "us"),
    ("serve.stage.response_us", "us"),
    ("db.lookup_latency_us", "us"),
    ("db.insert_model_us", "us"),
    ("db.get_or_insert_latency_us", "us"),
    ("db.load_graph_us", "us"),
    ("db.wal_bytes_per_measurement", "B"),
    ("db.wal_appends", "count"),
    ("db.compactions", "count"),
    ("db.store_bytes_per_record", "B"),
    ("db.reopen_ms", "ms"),
    ("sim.measure_us", "us"),
    ("sim.farm_measure_us", "us"),
    ("core.query_hit_us", "us"),
    ("core.query_measured_us", "us"),
    ("core.predict_uncached_us", "us"),
    ("core.predict_cached_us", "us"),
    ("core.embed_hit_share", "ratio"),
    ("core.embed_cache_len", "count"),
    ("predict.extract_features_us", "us"),
    ("predict.embed_us", "us"),
    ("predict.head_eval_us", "us"),
    ("predict.dataset_build_ms", "ms"),
    ("predict.train_epoch_ms", "ms"),
    ("predict.heldout_mape_pct", "%"),
    ("nn.csr_from_graph_us", "us"),
    ("nn.gemm_us.64x32x32", "us"),
    ("nn.gemm_us.64x29x64", "us"),
    ("nn.gemm_us.128x64x64", "us"),
    ("nn.gemm_us.1x64x64", "us"),
    ("obs.trace_context_us", "us"),
    ("obs.trace_overhead_pct", "%"),
    ("ladder.unaccounted_pct", "%"),
];

/// Serve stages of a `RequestTrace` and the metric each is reported as.
const STAGES: [(&str, &str); 9] = [
    ("resolve", "serve.stage.resolve_us"),
    ("hot_cache", "serve.stage.hot_cache_us"),
    ("db_lookup", "serve.stage.db_lookup_us"),
    ("enqueue", "serve.stage.enqueue_us"),
    ("queue_wait", "serve.stage.queue_wait_us"),
    ("measure", "serve.stage.measure_us"),
    ("db_write", "serve.stage.db_write_us"),
    ("publish", "serve.stage.publish_us"),
    ("response", "serve.stage.response_us"),
];

/// Calls behind every rung median.
const RUNG_CALLS: usize = 2_048;
/// Distinct graphs the `core.predict_*` rungs cycle over: half the embed
/// cache's capacity.
const EMBED_RUNG_GRAPHS: usize = 1_024;
/// Share of `--seconds` the replay takes; the rungs take about the rest.
const REPLAY_SHARE: f64 = 0.5;
/// Plain/traced chunk pairs the replay aims for.
const REPLAY_PAIRS: usize = 10;

/// One request of the workload with everything a rung may need resolved.
struct Request {
    /// As submitted.
    native: Arc<Graph>,
    /// At the requested batch.
    effective: Arc<Graph>,
    platform: Platform,
    batch: u32,
}

fn resolve(corpus: &Corpus, platforms: &[Platform], key: Key) -> Request {
    let batch = u32::from(key.batch);
    Request {
        native: Arc::clone(&corpus.graphs[key.graph as usize]),
        effective: corpus.effective(key.graph as usize, batch),
        platform: platforms[key.platform as usize].clone(),
        batch,
    }
}

/// Rung values by metric name, and the log their spans go to.
struct Rungs<'t> {
    trace: &'t mut Trace,
    clock: Arc<TraceClock>,
    parent: SpanId,
    values: BTreeMap<&'static str, f64>,
}

impl Rungs<'_> {
    /// Median microseconds of `f` over [`RUNG_CALLS`] inputs, cycling.
    fn time<T>(&mut self, name: &'static str, inputs: &[T], mut f: impl FnMut(usize, &T)) {
        let span = self.trace.open(name, Some(self.parent));
        let mut ns = Vec::with_capacity(RUNG_CALLS);
        for (i, input) in inputs.iter().cycle().take(RUNG_CALLS).enumerate() {
            let start = self.clock.now_ns();
            f(i, input);
            ns.push(self.clock.now_ns() - start);
        }
        self.trace.close(span);
        self.set(name, median_us(&ns));
    }

    /// As [`Rungs::time`] for sub-microsecond calls: each sample times
    /// `inner` calls back to back, so the clock reads do not dominate.
    fn time_tight(&mut self, name: &'static str, inner: usize, mut f: impl FnMut(usize)) {
        let span = self.trace.open(name, Some(self.parent));
        let mut ns = Vec::with_capacity(RUNG_CALLS / inner);
        for sample in 0..RUNG_CALLS / inner {
            let start = self.clock.now_ns();
            for i in 0..inner {
                f(sample * inner + i);
            }
            ns.push((self.clock.now_ns() - start) / inner as u64);
        }
        self.trace.close(span);
        self.set(name, median_us(&ns));
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// `ir`, `hash`, `nn`, `obs`: pure functions of a request's graph.
fn graph_rungs(r: &mut Rungs, requests: &[Request]) {
    r.time("ir.rebatch_us", requests, |_, q| {
        // A request already at its batch is re-batched to 8, so the rung
        // exists on workloads that never re-batch.
        let to = if q.batch as usize == q.native.input_shape.batch() {
            8
        } else {
            q.batch
        };
        black_box(
            q.native
                .rebatch(to as usize)
                .expect("corpus graphs rebatch"),
        );
    });
    r.time("hash.graph_hash_us", requests, |_, q| {
        black_box(graph_hash(&q.effective));
    });
    r.time("hash.graph_fingerprint_us", requests, |_, q| {
        black_box(graph_fingerprint(&q.effective));
    });
    r.time("nn.csr_from_graph_us", requests, |_, q| {
        black_box(Csr::from_graph(&q.effective));
    });
    for (name, m, k, n) in [
        ("nn.gemm_us.64x32x32", 64, 32, 32),
        ("nn.gemm_us.64x29x64", 64, 29, 64),
        ("nn.gemm_us.128x64x64", 128, 64, 64),
        ("nn.gemm_us.1x64x64", 1, 64, 64),
    ] {
        let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 13) as f32 * 0.1 - 0.6);
        let b = Matrix::from_fn(k, n, |i, j| ((i * 7 + j * 29) % 11) as f32 * 0.1 - 0.5);
        let mut out = Matrix::zeros(m, n);
        let mut pack = Vec::new();
        r.time_tight(name, 8, |_| {
            black_box(&a).matmul_into(black_box(&b), &mut out, &mut pack);
            black_box(&out);
        });
    }
    let clock = Arc::clone(&r.clock);
    r.time_tight("obs.trace_context_us", 8, |_| {
        let mut ctx = TraceContext::begin(&clock);
        ctx.stage("resolve", &clock);
        ctx.stage("hot_cache", &clock);
        ctx.stage("db_lookup", &clock);
        black_box(ctx.finish("db_hit"));
    });
}

/// `serve`: a standalone hot cache of the service's size, fed the
/// workload's keys in the workload's order.
fn cache_rungs(r: &mut Rungs, requests: &[Request]) {
    let defaults = nnlqp_serve::ServeConfig::default();
    let cache = ShardedLru::new(defaults.cache_capacity, defaults.cache_shards);
    let keys: Vec<CacheKey> = requests
        .iter()
        .map(|q| CacheKey {
            graph_hash: graph_hash(&q.effective),
            platform: Arc::from(q.platform.name()),
            batch: q.batch,
        })
        .collect();
    r.time_tight("serve.cache_insert_us", 8, |i| {
        cache.insert(keys[i % keys.len()].clone(), 1.0);
    });
    r.time_tight("serve.cache_get_us", 8, |i| {
        black_box(cache.get(&keys[i % keys.len()]));
    });
}

/// `db`, `sim` and the `core` query rungs, on a scratch system opened
/// like the workload's own (durable, never flushed) so that nothing the
/// workload reads is written to. The keys are fresh ones drawn the way
/// `query-miss` draws them, whatever the workload.
fn store_rungs(
    r: &mut Rungs,
    corpus: &Corpus,
    requests: &[Request],
    fresh: &[Request],
    tmp_root: &Path,
) {
    let dir = TempDir::new(tmp_root, "rungs");
    let system = Nnlqp::builder()
        .durable(DurableOptions::new(dir.path()).fsync(FsyncPolicy::Never))
        .reps(REPS)
        .try_build()
        .expect("open scratch store");

    // Facade first, while every key is still fresh: a measured miss each,
    // then the same keys again as database hits.
    r.time("core.query_measured_us", fresh, |_, q| {
        let measured = system
            .query_measured(&q.effective, &q.platform, q.batch, None)
            .expect("facade measurement");
        assert!(!measured.cache_hit);
    });
    let params: Vec<QueryParams> = fresh
        .iter()
        .map(|q| QueryParams::new((*q.native).clone(), q.batch, q.platform.clone()))
        .collect();
    r.time("core.query_hit_us", &params, |_, p| {
        assert!(system.query(p).expect("facade query").cache_hit);
    });

    r.time("sim.measure_us", requests, |i, q| {
        black_box(measure(&q.effective, q.platform.spec(), REPS, i as u64));
    });
    r.time("sim.farm_measure_us", requests, |i, q| {
        let job = QueryJob {
            graph: Arc::clone(&q.effective),
            platform: q.platform.name().to_string(),
            reps: REPS,
            seed: i as u64,
        };
        black_box(
            system
                .farm()
                .measure_blocking(&job)
                .expect("farm measurement"),
        );
    });

    // The store underneath, on a platform row of the rungs' own, with
    // models the facade rungs have not inserted (batch sizes beyond
    // `MISS_BATCHES`).
    let db = &system.db;
    let platform = db.get_or_create_platform("bench", "rung", "fp32");
    let models: Vec<(Graph, u32)> = corpus
        .graphs
        .iter()
        .flat_map(|g| {
            [17u32, 18, 19, 20].map(|b| (g.rebatch(b as usize).expect("corpus graphs rebatch"), b))
        })
        .take(RUNG_CALLS)
        .collect();
    assert_eq!(models.len(), RUNG_CALLS);
    let hashes: Vec<u64> = models.iter().map(|(g, _)| graph_hash(g)).collect();
    // The lifetime counter: the pending-bytes mark resets whenever the
    // scratch system's background compactor runs.
    let wal_bytes = system.registry().counter(nnlqp::metric_names::DB_WAL_BYTES);
    let wal_before = wal_bytes.get();
    let mut ids = Vec::with_capacity(models.len());
    r.time("db.insert_model_us", &models, |_, (g, _)| {
        let (id, fresh) = db.insert_model(g);
        assert!(fresh, "rung model was not fresh");
        ids.push(id);
    });
    r.time("db.get_or_insert_latency_us", &models, |i, (_, batch)| {
        let fresh = db
            .get_or_insert_latency(
                ids[i],
                platform,
                *batch,
                1.0 + i as f64,
                1.0e6,
                1 << 20,
                1 << 20,
            )
            .expect("valid foreign keys")
            .1;
        assert!(fresh, "rung key was not fresh");
    });
    r.set(
        "db.wal_bytes_per_measurement",
        (wal_bytes.get() - wal_before) as f64 / RUNG_CALLS as f64,
    );
    r.time("db.lookup_latency_us", &models, |i, (_, batch)| {
        black_box(
            db.lookup_latency(hashes[i], platform, *batch)
                .expect("stored"),
        );
    });
    r.time("db.load_graph_us", &ids, |_, id| {
        black_box(db.load_graph(*id).expect("stored graphs decode"));
    });
}

/// `predict` and the `core` predict rungs, through the installed handle.
fn predict_rungs(r: &mut Rungs, world: &World, corpus: &Corpus, requests: &[Request]) {
    let system = world.system();
    let handle = system.predictor_handle().expect("bootstrap predictor");
    let feats: Vec<_> = requests
        .iter()
        .map(|q| extract_features(&q.effective))
        .collect();
    let embeddings: Vec<Vec<f32>> = feats.iter().map(|f| handle.model.embed(f)).collect();
    r.time("predict.extract_features_us", requests, |_, q| {
        black_box(extract_features(&q.effective));
    });
    r.time("predict.embed_us", &feats, |_, f| {
        black_box(handle.model.embed(f));
    });
    r.time("predict.head_eval_us", &embeddings, |i, e| {
        black_box(handle.model.head_eval(e, i % PREDICT_PLATFORMS.len()));
    });
    // The facade, one pair at a time: every graph once per stamp (the
    // re-stamp falls inside one call in a thousand; the median ignores it)
    // is all misses, then the same graphs again are all hits — as long as
    // they fit the embed cache with room to spare.
    let distinct: Vec<&Request> = {
        let mut seen = std::collections::HashSet::new();
        requests
            .iter()
            .filter(|q| seen.insert(graph_fingerprint(&q.effective)))
            .take(EMBED_RUNG_GRAPHS)
            .collect()
    };
    let hits_before = hit_miss(world).0;
    r.time("core.predict_uncached_us", &distinct, |i, q| {
        if i % distinct.len() == 0 {
            system.set_predictor(handle.clone());
        }
        black_box(
            system
                .predict_effective(&q.effective, PREDICT_PLATFORMS[0])
                .expect("predict"),
        );
    });
    assert_eq!(
        hit_miss(world).0,
        hits_before,
        "an uncached prediction hit the embed cache"
    );
    // The last pass may have stopped short: embed the rest, untimed.
    for q in &distinct {
        let _ = system.predict_effective(&q.effective, PREDICT_PLATFORMS[0]);
    }
    let uncached = hit_miss(world);
    r.time("core.predict_cached_us", &distinct, |_, q| {
        black_box(
            system
                .predict_effective(&q.effective, PREDICT_PLATFORMS[0])
                .expect("predict"),
        );
    });
    assert_eq!(
        hit_miss(world).1,
        uncached.1,
        "a cached prediction missed the embed cache"
    );

    // Retraining, on the store's training column.
    let spec = PlatformSpec::by_name(TRAIN_PLATFORM).expect("registry platform");
    let entries: Vec<(&Graph, f64, usize)> = corpus
        .store()
        .iter()
        .map(|g| (&**g, model_latency_ms(g, &spec), 0))
        .collect();
    let build_ms: Vec<f64> = (0..3)
        .map(|_| {
            let start = r.clock.now_ns();
            black_box(Dataset::build(&entries));
            (r.clock.now_ns() - start) as f64 / 1.0e6
        })
        .collect();
    r.set("predict.dataset_build_ms", median(&build_ms));
    let train_ms = |epochs: usize| {
        let start = r.clock.now_ns();
        let trained = system.train_predictor_handle(
            &[TRAIN_PLATFORM],
            TrainPredictorConfig {
                epochs,
                ..Default::default()
            },
        );
        assert!(matches!(trained, Ok(Some(_))), "retraining failed");
        (r.clock.now_ns() - start) as f64 / 1.0e6
    };
    let (one, three) = (train_ms(1), train_ms(3));
    r.set("predict.train_epoch_ms", (three - one) / 2.0);

    // Accuracy of the installed predictor on the held-out graphs.
    let (predicted, truth) = corpus.held_out_pairs(&PREDICT_PLATFORMS, |graphs| {
        system
            .predict_batch(graphs, &PREDICT_PLATFORMS)
            .expect("predict the held-out graphs")
            .latencies_ms
    });
    r.set("predict.heldout_mape_pct", mape(&predicted, &truth));
}

/// Embed-cache `(hits, misses)` so far.
fn hit_miss(world: &World) -> (u64, u64) {
    let registry = world.system().registry();
    (
        registry.counter(nnlqp::metric_names::EMBED_HITS).get(),
        registry.counter(nnlqp::metric_names::EMBED_MISSES).get(),
    )
}

/// The counters a replay is bracketed by.
struct Counters {
    hot: u64,
    db: u64,
    measured: u64,
    requests: u64,
    cache_len: usize,
    embed: (u64, u64),
    wal_appends: u64,
    compactions: u64,
}

fn counters(world: &World) -> Counters {
    let m = world.service.metrics();
    let registry = world.system().registry();
    Counters {
        hot: m.hot_hits,
        db: m.db_hits,
        measured: m.misses - m.coalesced,
        requests: m.requests,
        cache_len: world.service.cache_len(),
        embed: hit_miss(world),
        wal_appends: registry.counter(nnlqp::metric_names::DB_WAL_APPENDS).get(),
        compactions: registry.counter(nnlqp::metric_names::DB_COMPACTIONS).get(),
    }
}

/// What the replay found.
pub struct Replay {
    pub attempted: u64,
    pub failed: u64,
}

/// The whole traced run of workload `w`. Returns the per-layer metrics and
/// the operation counts of the replay; the Chrome trace goes to
/// `out/trace-<name>.json`.
pub fn run<W: Workload>(
    mut w: W,
    name: &str,
    world: &World,
    corpus: &Corpus,
    seed: u64,
    seconds: f64,
    out: &Path,
) -> (BTreeMap<&'static str, f64>, Replay) {
    let clock = Arc::clone(world.service.trace_clock());
    let mut trace = Trace::new(Arc::clone(&clock));
    let names = platforms();
    let handles: Vec<Platform> = names
        .iter()
        .map(|n| Platform::by_name(n).expect("registry platform"))
        .collect();
    let resolve_all = |keys: &[Key]| -> Vec<Request> {
        keys.iter().map(|&k| resolve(corpus, &handles, k)).collect()
    };
    let requests = resolve_all(&w.requests());
    let fresh = resolve_all(&miss_keys(corpus, &names, seed)[..RUNG_CALLS]);

    let ladder = trace.open("ladder", None);
    let mut r = Rungs {
        trace: &mut trace,
        clock: Arc::clone(&clock),
        parent: ladder,
        values: BTreeMap::new(),
    };
    graph_rungs(&mut r, &requests);
    cache_rungs(&mut r, &requests);
    store_rungs(&mut r, corpus, &requests, &fresh, out);
    predict_rungs(&mut r, world, corpus, &requests);
    let mut values = r.values;
    trace.close(ladder);

    // Replay: the rungs above disturbed the caches, so settle afterwards.
    w.settle();
    let warm = w.warm_ops();
    let warmed = drive(&mut w, 0, Budget::Ops(warm), &clock, None);
    let before = counters(world);
    let replay = trace.open("replay", None);
    let chunk = Budget::Seconds(seconds * REPLAY_SHARE / (2 * REPLAY_PAIRS) as f64);
    let (mut plain, mut traced) = (Timed::default(), Timed::default());
    let (mut plain_rate, mut traced_rate) = (Vec::new(), Vec::new());
    let mut next = warm;
    let began = clock.now_ns();
    while plain_rate.len() < 2 || ((clock.now_ns() - began) as f64) < seconds * REPLAY_SHARE * 1.0e9
    {
        let p = drive(&mut w, next, chunk, &clock, None);
        next += p.ops.len();
        let span = trace.open("traced-chunk", Some(replay));
        let t = drive(&mut w, next, chunk, &clock, Some((&mut trace, span)));
        trace.close(span);
        next += t.ops.len();
        if p.ops.is_empty() || t.ops.is_empty() {
            break;
        }
        plain_rate.push(throughput_ops_s(&p.ops));
        traced_rate.push(throughput_ops_s(&t.ops));
        plain.append(p);
        traced.append(t);
    }
    trace.close(replay);
    let after = counters(world);
    let (_, audit_failed) = w.accuracy();

    for (stage, metric) in STAGES {
        values.insert(metric, median_us(trace.stage(stage)));
    }
    let served = (after.requests - before.requests).max(1) as f64;
    values.insert(
        "serve.hot_hit_share",
        (after.hot - before.hot) as f64 / served,
    );
    values.insert("serve.db_hit_share", (after.db - before.db) as f64 / served);
    values.insert(
        "serve.measured_share",
        (after.measured - before.measured) as f64 / served,
    );
    // Both database hits and measurements insert into the hot cache; what
    // did not grow it evicted.
    let inserted = (after.db - before.db) + (after.measured - before.measured);
    let grown = after.cache_len as i64 - before.cache_len as i64;
    values.insert("serve.cache_evictions", inserted as f64 - grown as f64);
    let (hits, misses) = (
        after.embed.0 - before.embed.0,
        after.embed.1 - before.embed.1,
    );
    values.insert(
        "core.embed_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    values.insert(
        "core.embed_cache_len",
        world.system().embed_cache_len() as f64,
    );
    values.insert(
        "db.wal_appends",
        (after.wal_appends - before.wal_appends) as f64,
    );
    values.insert(
        "db.compactions",
        (after.compactions - before.compactions) as f64,
    );
    let stats = world.system().stats();
    values.insert(
        "db.store_bytes_per_record",
        stats.total_bytes as f64 / stats.latencies.max(1) as f64,
    );
    values.insert("db.reopen_ms", world.reopen_ms);
    values.insert(
        "obs.trace_overhead_pct",
        (median(&plain_rate) / median(&traced_rate) - 1.0) * 100.0,
    );

    let p50_us = {
        let ns: Vec<u64> = plain.ops.iter().map(|o| o.end_ns - o.start_ns).collect();
        median_us(&ns)
    };
    let rebatched = requests
        .iter()
        .filter(|q| !Arc::ptr_eq(&q.native, &q.effective))
        .count() as f64
        / requests.len() as f64;
    let explained = path_us(name, &values, rebatched);
    values.insert(
        "ladder.unaccounted_pct",
        (p50_us - explained) / p50_us * 100.0,
    );

    std::fs::create_dir_all(out).expect("create the output directory");
    std::fs::write(
        out.join(format!("trace-{name}.json")),
        trace.to_chrome_json(),
    )
    .expect("write the Chrome trace");
    let attempted = (plain.ops.len() + traced.ops.len()) as u64;
    let failed = warmed.failed + plain.failed + traced.failed + audit_failed;
    (values, Replay { attempted, failed })
}

/// Sum of the rung medians on the path one operation of workload `name`
/// takes, microseconds. `rebatched` is the share of its requests that are
/// re-batched.
fn path_us(name: &str, v: &BTreeMap<&'static str, f64>, rebatched: f64) -> f64 {
    let resolve = rebatched * v["ir.rebatch_us"] + v["hash.graph_hash_us"];
    let hot = resolve + v["serve.cache_get_us"] + v["obs.trace_context_us"];
    let per_graph_cached =
        v["hash.graph_fingerprint_us"] + PREDICT_PLATFORMS.len() as f64 * v["predict.head_eval_us"];
    match name {
        "query-hot" => hot,
        "query-db" => hot + v["db.lookup_latency_us"] + v["serve.cache_insert_us"],
        "query-miss" => {
            hot + v["db.lookup_latency_us"]
                + v["core.query_measured_us"]
                + v["serve.cache_insert_us"]
        }
        "predict-cached" => PREDICT_BATCH as f64 * per_graph_cached,
        "predict-cold" => {
            PREDICT_BATCH as f64
                * (per_graph_cached + v["predict.extract_features_us"] + v["predict.embed_us"])
        }
        "train" => {
            STORE_GRAPHS as f64 * v["db.load_graph_us"]
                + (v["predict.dataset_build_ms"] + v["predict.train_epoch_ms"]) * 1.0e3
        }
        other => panic!("no ladder path for workload {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            PER_LAYER.len() + crate::END_TO_END.len()
        );
    }
}
