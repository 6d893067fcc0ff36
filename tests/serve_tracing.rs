//! Integration: request-scoped tracing through the serving layer.
//!
//! The contract under test is the tiling invariant — every served
//! response's stage durations sum **exactly** to its end-to-end latency
//! (integer nanoseconds, no float drift) — across all four response
//! paths: hot-cache hit, measured miss (leader), coalesced follower, and
//! the degraded prediction tier. Plus the surrounding observability:
//! monotone request ids, the exemplar reservoir, Chrome-trace export,
//! and the wall-time histograms the traces feed. And the order a measured
//! flight settles in: published first, shadow-evaluated after, and a
//! worker that outlives a panic in either.

use nnlqp::{
    MonitorConfig, Nnlqp, Platform, Predictor, PredictorHandle, PredictorKind, TrainPredictorConfig,
};
use nnlqp_ir::{Graph, Rng64};
use nnlqp_models::ModelFamily;
use nnlqp_obs::{tail_attribution, timeline_of, to_chrome_json, Event, FieldValue, RequestTrace};
use nnlqp_predict::{GraphFeatures, Sample, Scratch, TrainConfig, TrainReport};
use nnlqp_serve::{metric_names, LatencyService, ServeConfig, ServeError, Served, Source};
use nnlqp_sim::{DeviceFarm, PlatformSpec};
use std::collections::HashMap;
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

const PLATFORM: &str = "gpu-T4-trt7.1-fp32";
const SEED: u64 = 77;

fn system() -> Arc<Nnlqp> {
    Arc::new(
        Nnlqp::builder()
            .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 2))
            .reps(3)
            .seed(SEED)
            .build(),
    )
}

fn service_over(system: Arc<Nnlqp>, degrade_backlog: usize) -> LatencyService {
    LatencyService::start(
        system,
        ServeConfig {
            workers: 2,
            queue_depth: 16,
            cache_capacity: 128,
            cache_shards: 2,
            degrade_backlog,
            ..Default::default()
        },
    )
}

fn models(count: usize, seed: u64) -> Vec<Arc<Graph>> {
    nnlqp_models::generate_family(ModelFamily::SqueezeNet, count, seed)
        .into_iter()
        .map(|m| Arc::new(m.graph))
        .collect()
}

fn stage_names(t: &RequestTrace) -> Vec<&'static str> {
    t.stages.iter().map(|s| s.name).collect()
}

#[test]
fn measured_hot_and_db_paths_tile_exactly() {
    let sys = system();
    let svc = service_over(Arc::clone(&sys), usize::MAX);
    let model = &models(1, 3)[0];

    // Measured miss: the leader's trace splices the worker's boundaries.
    let (res, trace) = svc.query_traced(model, PLATFORM, 1);
    assert_eq!(res.unwrap().source, Source::Measured);
    assert_eq!(trace.class, "measured");
    assert!(trace.tiles_exactly(), "measured: {trace:?}");
    for want in [
        "resolve",
        "hot_cache",
        "db_lookup",
        "enqueue",
        "queue_wait",
        "measure",
        "db_write",
        "publish",
        "response",
    ] {
        assert!(
            trace.stage_ns(want).is_some(),
            "measured trace missing stage {want}: {:?}",
            stage_names(&trace)
        );
    }
    assert!(trace.total_ns > 0);

    // Hot-cache hit: short path, still tiles.
    let (res, hot) = svc.query_traced(model, PLATFORM, 1);
    assert_eq!(res.unwrap().source, Source::HotCache);
    assert_eq!(hot.class, "hot_cache");
    assert!(hot.tiles_exactly());
    assert_eq!(stage_names(&hot), vec!["resolve", "hot_cache"]);
    assert!(hot.request_id > trace.request_id, "ids are monotone");

    // Database hit: a fresh service over the same (now warmed) system
    // misses its own hot cache and promotes from the db.
    let svc2 = service_over(Arc::clone(&sys), usize::MAX);
    let (res, db) = svc2.query_traced(model, PLATFORM, 1);
    assert_eq!(res.unwrap().source, Source::Database);
    assert_eq!(db.class, "db_hit");
    assert!(db.tiles_exactly());
    assert_eq!(stage_names(&db), vec!["resolve", "hot_cache", "db_lookup"]);

    // The traces fed the wall-time histograms: one observation per
    // request, and the worker recorded the enqueue→dequeue wait.
    let snap = sys.registry().snapshot();
    let wall = &snap.histograms[metric_names::REQUEST_WALL_MS];
    assert_eq!(wall.count, 3);
    assert!(snap.histograms[metric_names::QUEUE_WAIT_MS].count >= 1);
    let queue_stage = format!("{}queue_wait", metric_names::STAGE_MS_PREFIX);
    assert_eq!(snap.histograms[&queue_stage].count, 1);
}

#[test]
fn coalesced_followers_tile_with_a_single_wait_stage() {
    const CLIENTS: usize = 6;
    const ATTEMPTS: u64 = 25;
    let svc = service_over(system(), usize::MAX);

    // Whether a thread coalesces is a race against the leader's
    // measurement, so drive fresh keys until one flight has followers.
    for attempt in 0..ATTEMPTS {
        let model = &models(1, 11 + attempt)[0];
        let barrier = Barrier::new(CLIENTS);
        let traces: Vec<RequestTrace> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let (svc, model, barrier) = (&svc, Arc::clone(model), &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        let (res, trace) = svc.query_traced(&model, PLATFORM, 1);
                        res.expect("query succeeds");
                        trace
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for t in &traces {
            assert!(t.tiles_exactly(), "every path tiles: {t:?}");
        }
        let coalesced: Vec<&RequestTrace> =
            traces.iter().filter(|t| t.class == "coalesced").collect();
        if coalesced.is_empty() {
            continue;
        }
        for t in &coalesced {
            // A follower's wait is one undecomposable stage — no spliced
            // worker boundaries, which could predate its join.
            assert!(t.stage_ns("coalesce_wait").is_some());
            assert!(t.stage_ns("queue_wait").is_none());
            assert!(t.stage_ns("measure").is_none());
        }
        // Exactly one request led the flight and owns the worker's
        // stages; late arrivals hit the freshly published hot cache.
        let leaders = traces
            .iter()
            .filter(|t| t.class == "measured" && t.stage_ns("measure").is_some())
            .count();
        assert_eq!(leaders, 1);
        return;
    }
    panic!("no flight coalesced across {ATTEMPTS} attempts × {CLIENTS} clients");
}

#[test]
fn degraded_path_splits_embed_and_head_stages() {
    let sys = system();
    // Ground truth + a trained head, so the degrade tier can serve.
    let warm: Vec<Graph> = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 8, 21)
        .into_iter()
        .map(|m| m.graph)
        .collect();
    sys.warm_cache(&warm, &Platform::by_name(PLATFORM).unwrap(), 1)
        .unwrap();
    sys.train_predictor(
        &[PLATFORM],
        TrainPredictorConfig {
            epochs: 4,
            hidden: 16,
            gnn_layers: 2,
            ..Default::default()
        },
    )
    .unwrap();

    // degrade_backlog 0: every would-be measurement degrades instead.
    let svc = service_over(Arc::clone(&sys), 0);
    let fresh = &models(1, 99)[0];
    let (res, trace) = svc.query_traced(fresh, PLATFORM, 1);
    let served = res.unwrap();
    assert_eq!(served.source, Source::Predicted);
    assert!(served.approximate);
    assert_eq!(trace.class, "degraded");
    assert!(trace.tiles_exactly(), "degraded: {trace:?}");
    assert!(trace.stage_ns("embed_cache").is_some());
    assert!(trace.stage_ns("predict_head").is_some());
    assert!(trace.stage_ns("queue_wait").is_none());
    // A degraded answer is the facade's prediction, bit for bit.
    let facade = sys.predict_effective(fresh, PLATFORM).unwrap();
    assert_eq!(served.latency_ms.to_bits(), facade.latency_ms.to_bits());
}

#[test]
fn exemplar_reservoir_retains_slowest_and_exports_chrome_json() {
    let svc = service_over(system(), usize::MAX);
    let ms = models(3, 31);
    let mut traces = Vec::new();
    for m in &ms {
        traces.push(svc.query_traced(m, PLATFORM, 1).1); // measured
        traces.push(svc.query_traced(m, PLATFORM, 1).1); // hot hit
    }
    let snap = svc.exemplars().snapshot();
    assert!(snap.contains_key("measured"));
    assert!(snap.contains_key("hot_cache"));
    for class_traces in snap.values() {
        // Slowest-first within each class, every one tiling.
        for w in class_traces.windows(2) {
            assert!(w[0].total_ns >= w[1].total_ns);
        }
        assert!(class_traces.iter().all(RequestTrace::tiles_exactly));
    }
    // The slowest class exports through the existing Chrome-trace
    // writer, and the JSON is well-formed.
    let slowest = svc.exemplars().slowest_class().unwrap();
    assert_eq!(slowest, "measured", "measuring dwarfs cache hits");
    let json = to_chrome_json(&timeline_of(&snap[slowest]));
    let doc: nnlqp_ir::json::Value = json.parse().expect("chrome trace is valid JSON");
    let events = doc["traceEvents"].as_array().expect("trace events");
    assert!(events.iter().any(|e| e["name"].as_str() == Some("request")));
    assert!(events.iter().any(|e| e["name"].as_str() == Some("measure")));

    // Tail attribution over the mixed workload: shares tile the tail.
    let shares = tail_attribution(&traces, 0.5);
    assert!(!shares.is_empty());
    let sum: f64 = shares.iter().map(|s| s.share_pct).sum();
    assert!((sum - 100.0).abs() < 1e-6, "shares sum to 100%: {sum}");
}

/// A test-only predictor with one head and a constant answer, whose
/// `embed_with` runs `on_embed` first: the only place a shadow evaluation
/// can be slow or fail.
struct Probe {
    on_embed: fn(),
}

impl Predictor for Probe {
    fn kind(&self) -> PredictorKind {
        PredictorKind::Sage
    }

    fn embedding_dim(&self) -> usize {
        1
    }

    fn n_heads(&self) -> usize {
        1
    }

    fn embed_with(&self, _: &GraphFeatures, _: &mut Scratch) -> Vec<f32> {
        (self.on_embed)();
        vec![0.0]
    }

    fn head_eval_rows(&self, _: &nnlqp_nn::Matrix, _: usize, _: &mut Scratch, out: &mut [f64]) {
        out.fill(1.0);
    }

    fn train_in_place(&mut self, _: &[Sample], _: TrainConfig) -> TrainReport {
        unreachable!("these services run no retrain loop")
    }

    fn to_json(&self) -> String {
        unreachable!("never checkpointed")
    }
}

/// One worker, `probe` installed as the predictor for [`PLATFORM`], and a
/// monitor that shadow-evaluates every measurement.
fn monitored_service(probe: Probe) -> LatencyService {
    let sys = system();
    sys.set_predictor(PredictorHandle::new(
        Arc::new(probe),
        HashMap::from([(PLATFORM.to_string(), 0)]),
    ));
    LatencyService::start(
        sys,
        ServeConfig {
            workers: 1,
            monitor: Some(MonitorConfig {
                sample_every: 1,
                ..Default::default()
            }),
            ..Default::default()
        },
    )
}

#[test]
fn a_slow_shadow_prediction_does_not_delay_the_measured_answer() {
    const SHADOW: Duration = Duration::from_millis(300);
    let svc = monitored_service(Probe {
        on_embed: || std::thread::sleep(SHADOW),
    });
    let start = Instant::now();
    let (res, trace) = svc.query_traced(&models(1, 41)[0], PLATFORM, 1);
    let elapsed = start.elapsed();
    assert_eq!(res.unwrap().source, Source::Measured);
    assert!(trace.tiles_exactly(), "{trace:?}");
    let publish = Duration::from_nanos(trace.stage_ns("publish").expect("leader publishes"));
    assert!(
        publish < SHADOW / 3,
        "publish waited on the shadow: {publish:?}"
    );
    assert!(
        elapsed < SHADOW,
        "the caller waited on the shadow: {elapsed:?}"
    );
    // The shadow evaluation still ran, on the worker, after the flight.
    let deadline = Instant::now() + Duration::from_secs(10);
    let shadowed = || {
        svc.quality()
            .and_then(|r| r.platforms.get(PLATFORM).map(|q| q.samples))
            .unwrap_or(0)
    };
    while shadowed() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(shadowed(), 1);
}

/// `svc.query` on a thread of its own, failing the test if the caller is
/// still waiting after ten seconds.
fn query_within_10s(
    svc: &Arc<LatencyService>,
    model: &Arc<Graph>,
    platform: &'static str,
) -> Result<Served, ServeError> {
    let (tx, rx) = mpsc::channel();
    let (client, model) = (Arc::clone(svc), Arc::clone(model));
    std::thread::spawn(move || {
        let _ = tx.send(client.query(&model, platform, 1));
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the caller is still waiting on its flight")
}

#[test]
fn a_panicking_shadow_prediction_does_not_strand_the_caller() {
    let svc = Arc::new(monitored_service(Probe {
        on_embed: || panic!("shadow predictor failed"),
    }));
    for model in &models(2, 43) {
        // The one worker survives the first panic and measures the second
        // key, whose shadow panics too.
        let served = query_within_10s(&svc, model, PLATFORM).unwrap();
        assert_eq!(served.source, Source::Measured);
    }
    // Joining the worker waits out the second shadow, then counts both.
    svc.shutdown().unwrap();
    let registry = svc.system().registry().snapshot();
    assert_eq!(registry.counter(metric_names::WORKER_PANICS), 2);
}

#[test]
fn a_panicking_measurement_fails_its_flight_and_the_worker_carries_on() {
    // A NaN launch cost makes the T4 pool's scheduler panic mid-measurement;
    // the registry's T4 row, which admission and hashing see, stays sound.
    let specs: Vec<PlatformSpec> = PlatformSpec::table2_platforms()
        .into_iter()
        .map(|mut spec| {
            if spec.name == PLATFORM {
                spec.launch_us = f64::NAN;
            }
            spec
        })
        .collect();
    let sys = Nnlqp::builder()
        .farm(DeviceFarm::new(&specs, 1))
        .reps(3)
        .seed(SEED)
        .build();
    let svc = Arc::new(LatencyService::start(
        Arc::new(sys),
        ServeConfig {
            workers: 1,
            ..Default::default()
        },
    ));
    let model = &models(1, 45)[0];
    let failed = query_within_10s(&svc, model, PLATFORM);
    assert!(
        matches!(failed, Err(ServeError::Measurement(_))),
        "{failed:?}"
    );
    let served = query_within_10s(&svc, model, "cpu-openppl-fp32").unwrap();
    assert_eq!(served.source, Source::Measured);
    let registry = svc.system().registry().snapshot();
    assert_eq!(registry.counter(metric_names::WORKER_PANICS), 1);
    assert!(svc.metrics().balanced(), "{:?}", svc.metrics());
    assert_eq!(svc.system().farm().idle_devices(PLATFORM), 1);
}

#[test]
fn a_registry_platform_the_farm_does_not_serve_errs_at_resolve() {
    // The registry knows `cpu-openppl-fp32`; this farm has only T4s.
    let sys = Nnlqp::builder()
        .farm(DeviceFarm::new(
            &[PlatformSpec::by_name(PLATFORM).unwrap()],
            1,
        ))
        .reps(3)
        .build();
    let svc = service_over(Arc::new(sys), usize::MAX);
    let model = &models(1, 47)[0];
    let (res, trace) = svc.query_traced(model, "cpu-openppl-fp32", 1);
    assert!(
        matches!(res, Err(ServeError::UnknownPlatform(_))),
        "{res:?}"
    );
    assert_eq!(trace.class, "unknown_platform");
    assert_eq!(stage_names(&trace), ["resolve"], "no flight, no queue slot");
    let m = svc.metrics();
    assert_eq!((m.requests, m.errors, m.rejected), (1, 1, 0), "{m:?}");
    assert_eq!(svc.system().farm_measurements(), 0);
    // The farm's own platform is still served.
    assert_eq!(
        svc.query(model, PLATFORM, 1).unwrap().source,
        Source::Measured
    );
}

/// The `query` event's `source` and `error` fields.
fn source_and_error(e: &Event) -> (String, Option<String>) {
    let text = |key| match e.field(key) {
        Some(FieldValue::Str(s)) => Some(s.to_string()),
        None => None,
        other => panic!("{key} is not a string: {other:?}"),
    };
    (
        text("source").expect("a query event has a source"),
        text("error"),
    )
}

#[test]
fn counters_traces_and_events_agree_per_class() {
    const OTHER: &str = "cpu-openppl-fp32";
    const FARMLESS: &str = "rv1109-rknn-int8";
    let sys = system();
    // Stored graphs answer from the database first, the hot cache after;
    // the predictor covers PLATFORM only, so with `degrade_backlog` 0 a
    // fresh graph degrades there and is measured on OTHER.
    let stored = models(6, 51);
    let stored_graphs: Vec<Graph> = stored.iter().map(|g| g.as_ref().clone()).collect();
    sys.warm_cache(&stored_graphs, &Platform::by_name(PLATFORM).unwrap(), 1)
        .unwrap();
    sys.train_predictor(
        &[PLATFORM],
        TrainPredictorConfig {
            epochs: 2,
            hidden: 16,
            gnn_layers: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let fresh = models(6, 53);
    let svc = service_over(Arc::clone(&sys), 0);

    let before = svc.metrics();
    let registry_before = sys.registry().snapshot();
    let mut rng = Rng64::new(SEED);
    let mut traces = Vec::new();
    for _ in 0..96 {
        let (model, platform, batch) = match rng.below(5) {
            0 => (rng.choice(&stored), PLATFORM, 1),
            1 => (rng.choice(&fresh), PLATFORM, 1),
            2 => (rng.choice(&fresh), OTHER, 1),
            3 => (rng.choice(&fresh), PLATFORM, 0),
            _ => (
                rng.choice(&stored),
                *rng.choice(&["quantum-coprocessor", FARMLESS]),
                1,
            ),
        };
        traces.push(svc.query_traced(model, platform, batch).1);
    }
    let after = svc.metrics();

    let count =
        |classes: &[&str]| traces.iter().filter(|t| classes.contains(&t.class)).count() as u64;
    for class in [
        "hot_cache",
        "db_hit",
        "measured",
        "degraded",
        "bad_batch",
        "unknown_platform",
    ] {
        assert!(count(&[class]) > 0, "the sequence never ended in {class}");
    }
    assert_eq!(count(&["coalesced"]), 0, "one client never coalesces");
    assert_eq!(after.requests - before.requests, traces.len() as u64);
    assert_eq!(after.hot_hits - before.hot_hits, count(&["hot_cache"]));
    assert_eq!(after.db_hits - before.db_hits, count(&["db_hit"]));
    assert_eq!(after.misses - before.misses, count(&["measured"]));
    assert_eq!(after.degraded - before.degraded, count(&["degraded"]));
    assert_eq!(
        after.errors - before.errors,
        count(&["bad_batch", "unknown_platform"])
    );
    assert_eq!(after.rejected, before.rejected);
    assert_eq!(after.lint_rejected, before.lint_rejected);
    assert!(after.balanced(), "{after:?}");

    // Each request was observed once: its wall time always, its served
    // latency when it was served.
    let registry = sys.registry().snapshot();
    let observed = |name: &str| {
        registry.histograms[name].count
            - registry_before.histograms.get(name).map_or(0, |h| h.count)
    };
    assert_eq!(observed(metric_names::REQUEST_WALL_MS), traces.len() as u64);
    assert_eq!(
        observed(metric_names::LATENCY_MS),
        count(&["hot_cache", "db_hit", "measured", "degraded"])
    );

    // One `query` event per request, in order, naming the same outcome.
    let events: Vec<(String, Option<String>)> = svc
        .events()
        .unwrap()
        .snapshot()
        .iter()
        .filter(|e| e.kind == "query")
        .map(source_and_error)
        .collect();
    assert_eq!(events.len(), traces.len());
    for (trace, (source, error)) in traces.iter().zip(&events) {
        let want = match trace.class {
            "hot_cache" => "hot_cache",
            "db_hit" => "database",
            "measured" => "measured",
            "degraded" => "predicted",
            _ => "error",
        };
        assert_eq!(source, want, "{}", trace.class);
        let want_error = (want == "error").then(|| trace.class.to_string());
        assert_eq!(error, &want_error, "{}", trace.class);
    }
}
