//! Integration: the full NNLQ query path across ir, hash, db, sim and
//! core — measure, cache, persist, reopen, re-hit.

use nnlqp::{Nnlqp, QueryError, QueryParams, TrainPredictorConfig};
use nnlqp_db::{open_read_only, DurableOptions, ModelId};
use nnlqp_hash::graph_hash;
use nnlqp_ir::{GraphBuilder, Shape};
use nnlqp_models::ModelFamily;
use nnlqp_serve::{LatencyService, ServeConfig, ServeError};
use nnlqp_sim::{DeviceFarm, PlatformSpec};

/// Every model a test feeds into the system must be clean under the
/// static analyzer — the same bar `--strict` queries enforce.
fn assert_lints_clean(g: &nnlqp_ir::Graph, platform: &str) {
    let spec = PlatformSpec::by_name(platform).unwrap();
    let report = nnlqp_analyze::analyze(g, Some(&spec));
    assert!(
        !report.has_errors(),
        "{} should lint clean:\n{}",
        g.name,
        report.render_text()
    );
}

fn system() -> Nnlqp {
    Nnlqp::builder()
        .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 2))
        .reps(5)
        .build()
}

#[test]
fn query_cache_persist_reload_cycle() {
    let dir = std::env::temp_dir().join(format!("nnlqp-e2e-reload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let s = Nnlqp::builder()
        .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 2))
        .reps(5)
        .durable(DurableOptions::new(&dir))
        .try_build()
        .expect("open durable store");
    let models: Vec<_> = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 5, 1)
        .into_iter()
        .map(|m| m.graph)
        .collect();
    // Measure all on two platforms.
    for platform in ["gpu-T4-trt7.1-fp32", "cpu-openppl-fp32"] {
        for m in &models {
            assert_lints_clean(m, platform);
            let r = s
                .query(&QueryParams::by_name(m.clone(), 1, platform).unwrap())
                .unwrap();
            assert!(!r.cache_hit);
        }
    }
    assert_eq!(s.stats().models, 5);
    assert_eq!(s.stats().latencies, 10);

    // Reopen the store as a second deployment would: the same rows, and
    // cache hits with the latencies the first one measured.
    let (db2, rec) = open_read_only(&dir).expect("store reopens");
    assert!(rec.clean(), "{rec:?}");
    assert!(db2 == *s.db, "the reopened store differs from the live one");
    for m in &models {
        let hash = graph_hash(m);
        let spec = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
        let pid = db2.get_or_create_platform(&spec.hardware, &spec.software, spec.dtype.name());
        let hit = db2
            .lookup_latency(hash, pid, 1)
            .expect("reloaded cache hit");
        assert!(hit.cost_ms > 0.0);
    }
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_is_keyed_on_structure_not_name() {
    let s = system();
    let mut a = ModelFamily::ResNet.canonical().unwrap();
    let r1 = s
        .query(&QueryParams::by_name(a.clone(), 1, "gpu-T4-trt7.1-fp32").unwrap())
        .unwrap();
    // Rename: structurally identical model must hit.
    a.name = "some-other-name".into();
    let r2 = s
        .query(&QueryParams::by_name(a, 1, "gpu-T4-trt7.1-fp32").unwrap())
        .unwrap();
    assert!(r2.cache_hit);
    assert_eq!(r1.latency_ms, r2.latency_ms);
}

#[test]
fn measured_latencies_match_simulator_ground_truth() {
    // The whole stack must preserve the simulator's values within
    // measurement noise.
    let s = Nnlqp::builder()
        .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 2))
        .reps(5)
        .strict(true)
        .build();
    let g = ModelFamily::MobileNetV2.canonical().unwrap();
    let spec = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
    assert_lints_clean(&g, &spec.name);
    let truth = nnlqp_sim::exec::model_latency_ms(&g, &spec);
    // Strict mode runs the analyzer inside `query` and rejects models
    // with errors; a clean canonical model must pass unimpeded.
    let r = s
        .query(&QueryParams::by_name(g, 1, &spec.name).unwrap())
        .unwrap();
    assert!(
        (r.latency_ms - truth).abs() / truth < 0.05,
        "measured {} vs truth {truth}",
        r.latency_ms
    );
}

#[test]
fn hit_ratio_improves_aggregate_cost() {
    // The Table 2 effect at integration level: a warm cache answers the
    // same workload dramatically faster.
    let s = system();
    let models: Vec<_> = nnlqp_models::generate_family(ModelFamily::AlexNet, 6, 9)
        .into_iter()
        .map(|m| m.graph)
        .collect();
    let run_cost = |sys: &Nnlqp| -> f64 {
        models
            .iter()
            .map(|m| {
                sys.query(&QueryParams::by_name(m.clone(), 1, "gpu-T4-trt7.1-fp32").unwrap())
                    .unwrap()
                    .cost_s
            })
            .sum()
    };
    let cold = run_cost(&s);
    let warm = run_cost(&s);
    assert!(
        cold > 10.0 * warm,
        "cold {cold:.1}s should dwarf warm {warm:.1}s"
    );
}

#[test]
fn batch_size_is_part_of_the_key_and_scales_latency() {
    let s = system();
    let g = ModelFamily::SqueezeNet.canonical().unwrap();
    let lat = |batch: u32| {
        s.query(&QueryParams::by_name(g.clone(), batch, "gpu-T4-trt7.1-fp32").unwrap())
            .unwrap()
            .latency_ms
    };
    let l1 = lat(1);
    let l8 = lat(8);
    assert!(l8 > l1, "batch 8 {l8} should exceed batch 1 {l1}");
    assert!(l8 < 8.0 * l1, "batch scaling should be sublinear");
}

/// Query `g` on T4 in the default (non-strict) mode and check that the
/// store kept nothing it cannot read back.
fn query_unstorable(g: nnlqp_ir::Graph) -> (Nnlqp, Result<nnlqp::QueryResult, QueryError>) {
    let s = system();
    let res = s.query(&QueryParams::by_name(g, 1, "gpu-T4-trt7.1-fp32").unwrap());
    (s, res)
}

#[test]
fn a_stride_the_store_cannot_hold_is_refused_before_the_farm() {
    // The wire keeps a stride in one byte: 256 used to be written as 0,
    // stored, and panic the next retrain when its row failed to decode.
    let mut b = GraphBuilder::new("stride-256", Shape::nchw(1, 3, 512, 512));
    let c = b.conv(None, 8, 1, 256, 0, 1).unwrap();
    b.relu(c).unwrap();
    let (s, res) = query_unstorable(b.finish().unwrap());
    let cfg = TrainPredictorConfig {
        epochs: 1,
        ..Default::default()
    };
    assert_eq!(s.train_predictor(&["gpu-T4-trt7.1-fp32"], cfg).unwrap(), 0);
    match res {
        Err(QueryError::BadGraph(e)) => assert!(e.contains("stride"), "{e}"),
        other => panic!("expected BadGraph, got {other:?}"),
    }
    assert_eq!(s.farm_measurements(), 0);
    assert_eq!(s.stats().models, 0);
}

#[test]
fn the_service_answers_a_graph_the_store_cannot_hold_as_bad_graph() {
    let system = std::sync::Arc::new(system());
    let svc = LatencyService::start(std::sync::Arc::clone(&system), ServeConfig::default());
    let mut b = GraphBuilder::new("stride-256", Shape::nchw(1, 3, 512, 512));
    let c = b.conv(None, 8, 1, 256, 0, 1).unwrap();
    b.relu(c).unwrap();
    let g = std::sync::Arc::new(b.finish().unwrap());
    match svc.query(&g, "gpu-T4-trt7.1-fp32", 1) {
        Err(ServeError::BadGraph(e)) => assert!(e.contains("stride"), "{e}"),
        other => panic!("expected BadGraph, got {other:?}"),
    }
    let m = svc.metrics();
    assert_eq!((m.errors, m.measured, m.misses), (1, 0, 0), "{m:?}");
    assert!(m.balanced(), "{m:?}");
    assert_eq!(system.farm_measurements(), 0);
    assert_eq!(system.stats().models, 0);
    svc.shutdown().unwrap();
}

#[test]
fn a_name_longer_than_the_store_holds_is_refused_before_the_farm() {
    // The wire keeps a name's length in two bytes: 65,537 used to wrap to
    // 1 and leave the rest of the name where the input shape belongs.
    let mut b = GraphBuilder::new("x".repeat(65_537), Shape::nchw(1, 3, 16, 16));
    let c = b.conv(None, 8, 3, 1, 1, 1).unwrap();
    b.relu(c).unwrap();
    let (s, res) = query_unstorable(b.finish().unwrap());
    for id in 0..s.stats().models {
        s.db.load_graph(ModelId(id as u32)).unwrap();
    }
    match res {
        Err(QueryError::BadGraph(e)) => assert!(e.contains("name"), "{e}"),
        other => panic!("expected BadGraph, got {other:?}"),
    }
    assert_eq!(s.farm_measurements(), 0);
    assert_eq!(s.stats().models, 0);
}
