//! Integration: golden Chrome-trace export for a seeded query.
//!
//! The simulator is fully deterministic under a fixed seed, so the trace
//! a query produces is goldenable byte-for-byte. Beyond the golden
//! comparison the trace must satisfy two structural invariants:
//!
//! - spans on one track (one device stream, the query stages, the farm
//!   pipeline) never overlap in time;
//! - the query-track stage spans tile `cost_s` exactly — observability
//!   must account for all the time the query reports spending.
//!
//! Regenerate the golden after an intentional trace-format change with
//! `NNLQP_BLESS=1 cargo test --test trace_export`.

use nnlqp::{Nnlqp, Platform, QueryParams};
use nnlqp_models::ModelFamily;
use nnlqp_obs::{to_chrome_json, Recorder, Track};
use nnlqp_sim::{DeviceFarm, PlatformSpec};
use std::path::Path;

const SEED: u64 = 0x600D_7ACE;
const GOLDEN: &str = "tests/golden/resnet_t4_trace.json";

fn traced_resnet_query() -> (nnlqp::QueryResult, nnlqp_obs::Timeline) {
    let system = Nnlqp::builder()
        .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
        .reps(5)
        .seed(SEED)
        .build();
    let model = ModelFamily::ResNet.canonical().expect("generator is valid");
    let t4 = Platform::by_name("gpu-T4-trt7.1-fp32").unwrap();
    let rec = Recorder::new();
    let result = system
        .query_traced(&QueryParams::new(model, 1, t4), &rec)
        .expect("traced query succeeds");
    (result, rec.timeline())
}

#[test]
fn spans_never_overlap_and_stages_tile_cost() {
    let (result, timeline) = traced_resnet_query();
    assert!(!result.cache_hit);
    if let Some((a, b)) = timeline.first_overlap() {
        panic!("overlapping spans on {:?}: {a:?} vs {b:?}", a.track);
    }
    let stage_ms: f64 = timeline
        .on_track(&Track::new("query", 0))
        .iter()
        .map(|s| s.dur_ms)
        .sum();
    let cost_ms = result.cost_s * 1.0e3;
    assert!(
        (stage_ms - cost_ms).abs() / cost_ms < 1e-9,
        "query stages sum to {stage_ms} ms but cost_s says {cost_ms} ms"
    );
}

#[test]
fn chrome_export_matches_golden() {
    let (_, timeline) = traced_resnet_query();
    let json = to_chrome_json(&timeline);

    // The export must be well-formed JSON with one complete event per
    // span (the rest are track-naming metadata).
    let v: nnlqp_ir::json::Value = json.parse().expect("chrome trace parses as JSON");
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    let complete = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("X"))
        .count();
    assert_eq!(complete, timeline.spans.len());
    for e in events.iter().filter(|e| e["ph"].as_str() == Some("X")) {
        assert!(e["ts"].as_f64().expect("ts") >= 0.0);
        assert!(e["dur"].as_f64().expect("dur") >= 0.0);
    }

    // Determinism: the same seed must reproduce the trace byte-for-byte.
    let (_, again) = traced_resnet_query();
    assert_eq!(json, to_chrome_json(&again));

    // Golden comparison (set NNLQP_BLESS=1 to re-bless after intentional
    // trace-format changes).
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("NNLQP_BLESS").is_some() {
        std::fs::write(&path, &json).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read golden {}: {e}", path.display()));
    assert_eq!(
        json, golden,
        "chrome trace drifted from {GOLDEN}; re-bless with NNLQP_BLESS=1 if intentional"
    );
}

#[test]
fn cache_hit_trace_has_only_lookup_stages() {
    let system = Nnlqp::builder()
        .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
        .reps(5)
        .seed(SEED)
        .build();
    let model = ModelFamily::ResNet.canonical().unwrap();
    let params = QueryParams::by_name(model, 1, "gpu-T4-trt7.1-fp32").unwrap();
    system.query(&params).unwrap();

    let rec = Recorder::new();
    let hit = system.query_traced(&params, &rec).unwrap();
    assert!(hit.cache_hit);
    let timeline = rec.timeline();
    let names: Vec<&str> = timeline.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["hash", "db-lookup"]);
    let stage_ms: f64 = timeline.spans.iter().map(|s| s.dur_ms).sum();
    let cost_ms = hit.cost_s * 1.0e3;
    assert!((stage_ms - cost_ms).abs() / cost_ms < 1e-9);
}
