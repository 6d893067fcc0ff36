//! Strict-mode admission gating, end to end: a graph whose static memory
//! footprint cannot fit the target platform is rejected by the analyzer
//! BEFORE any farm measurement or database write, the rejection is its
//! own terminal metrics class, and the analyzer runs exactly once per
//! miss (`query.lint_runs`): never on a hit, again on a repeated
//! rejection, and once, not twice, for a miss served through
//! `LatencyService` (its worker does not re-admit).

use nnlqp::{metric_names, Nnlqp, QueryError, QueryParams};
use nnlqp_ir::{Graph, GraphBuilder, Shape};
use nnlqp_serve::Source;
use nnlqp_serve::{metric_names as serve_metric_names, LatencyService, ServeConfig, ServeError};
use nnlqp_sim::{DeviceFarm, Platform, PlatformSpec};
use std::sync::Arc;

/// 128 MiB of device memory (the smallest capacity in the registry).
const EDGE: &str = "rv1109-rknn-int8";
const GPU: &str = "gpu-T4-trt7.1-fp32";

/// A structurally valid graph that cannot run on the edge NPU: one conv
/// output alone is 512 * 512 * 512 = 128 MiB at int8, already the whole
/// device — with its input and successor live, the peak is far past it.
fn oversized() -> Graph {
    let mut b = GraphBuilder::new("vram-hog", Shape::nchw(1, 3, 512, 512));
    let c = b.conv(None, 512, 1, 1, 0, 1).unwrap();
    b.relu(c).unwrap();
    b.finish().unwrap()
}

/// A graph any platform fits.
fn small() -> Graph {
    let mut b = GraphBuilder::new("small", Shape::nchw(1, 3, 16, 16));
    let c = b.conv(None, 8, 3, 1, 1, 1).unwrap();
    b.relu(c).unwrap();
    b.finish().unwrap()
}

fn lint_runs(system: &Nnlqp) -> u64 {
    system
        .registry()
        .snapshot()
        .counter(metric_names::LINT_RUNS)
}

fn strict_system() -> Arc<Nnlqp> {
    let platforms = [
        PlatformSpec::by_name(EDGE).unwrap(),
        PlatformSpec::by_name(GPU).unwrap(),
    ];
    Arc::new(
        Nnlqp::builder()
            .farm(DeviceFarm::new(&platforms, 2))
            .reps(3)
            .strict(true)
            .build(),
    )
}

#[test]
fn facade_rejects_infeasible_graph_before_measurement() {
    let system = strict_system();
    let params = QueryParams::by_name(oversized(), 1, EDGE).unwrap();
    match system.query(&params).unwrap_err() {
        QueryError::Lint(report) => {
            assert!(report.contains("NNL301"), "{report}");
            assert!(report.contains("capacity"), "{report}");
        }
        other => panic!("expected Lint rejection, got {other:?}"),
    }
    // Nothing reached the farm or the evolving database.
    assert_eq!(system.farm_measurements(), 0);
    assert_eq!(system.stats().models, 0);
    assert_eq!(system.stats().latencies, 0);
    // The repeat rejection runs the analyzer again.
    assert_eq!(lint_runs(&system), 1);
    assert!(matches!(system.query(&params), Err(QueryError::Lint(_))));
    assert_eq!(lint_runs(&system), 2);
    // The same graph is admissible where the memory exists: the miss
    // admits once, the hit after it not at all.
    let on_gpu = QueryParams::by_name(oversized(), 1, GPU).unwrap();
    let miss = system.query(&on_gpu).unwrap();
    assert!(!miss.cache_hit && miss.latency_ms > 0.0);
    assert_eq!(lint_runs(&system), 3);
    assert!(system.query(&on_gpu).unwrap().cache_hit);
    assert_eq!(lint_runs(&system), 3);
}

#[test]
fn serve_counts_lint_rejections_as_their_own_terminal_class() {
    let system = strict_system();
    let svc = LatencyService::start(
        Arc::clone(&system),
        ServeConfig {
            workers: 2,
            queue_depth: 8,
            ..Default::default()
        },
    );
    let hog = Arc::new(oversized());

    match svc.query(&hog, EDGE, 1).unwrap_err() {
        ServeError::LintRejected(report) => assert!(report.contains("NNL301"), "{report}"),
        other => panic!("expected LintRejected, got {other:?}"),
    }
    // Rejected pre-measurement: no farm call, no db write, no cache fill.
    assert_eq!(system.farm_measurements(), 0);
    assert_eq!(system.stats().models, 0);
    assert_eq!(system.stats().latencies, 0);
    assert_eq!(svc.cache_len(), 0);
    let m = svc.metrics();
    assert_eq!(m.lint_rejected, 1);
    assert_eq!(m.measured, 0);
    assert!(m.balanced(), "{m:?}");

    // The repeat query is rejected by a second analysis.
    assert!(matches!(
        svc.query(&hog, EDGE, 1),
        Err(ServeError::LintRejected(_))
    ));
    let snap = system.registry().snapshot();
    assert_eq!(snap.counter(metric_names::LINT_RUNS), 2);
    assert_eq!(snap.counter(serve_metric_names::LINT_REJECTED), 2);

    // Clean traffic still serves, on both platforms: each miss is
    // admitted once, at the front door, and each hit not at all.
    let ok = Arc::new(small());
    assert_eq!(svc.query(&ok, EDGE, 1).unwrap().source, Source::Measured);
    assert_eq!(lint_runs(&system), 3);
    assert_eq!(svc.query(&ok, GPU, 1).unwrap().source, Source::Measured);
    assert_eq!(lint_runs(&system), 4);
    assert_eq!(svc.query(&ok, GPU, 1).unwrap().source, Source::HotCache);
    assert_eq!(lint_runs(&system), 4);
    let m = svc.metrics();
    assert_eq!(m.misses, 2);
    assert_eq!(m.lint_rejected, 2);
    assert!(m.balanced(), "{m:?}");
    svc.shutdown().unwrap();
}

#[test]
fn non_strict_serve_does_not_gate() {
    // Without strict mode the same graph measures fine — the gate is an
    // opt-in admission policy, not a hard limit of the simulator.
    let platforms = [PlatformSpec::by_name(EDGE).unwrap()];
    let system = Arc::new(
        Nnlqp::builder()
            .farm(DeviceFarm::new(&platforms, 1))
            .reps(2)
            .build(),
    );
    let svc = LatencyService::start(Arc::clone(&system), ServeConfig::default());
    let served = svc.query(&Arc::new(oversized()), EDGE, 1).unwrap();
    assert!(served.latency_ms > 0.0);
    assert_eq!(svc.metrics().lint_rejected, 0);
    assert_eq!(
        system
            .registry()
            .snapshot()
            .counter(metric_names::LINT_RUNS),
        0
    );
    svc.shutdown().unwrap();
}

#[test]
fn admission_report_is_queryable_without_a_query() {
    // Serving layers can pre-screen: the public analyze_admission entry
    // returns the full report.
    let system = strict_system();
    let g = oversized();
    let spec = Platform::by_name(EDGE).unwrap();
    let report = system.analyze_admission(&g, spec.spec());
    assert!(report.has_errors());
    assert!(report.has_code(nnlqp_analyze::Code::MemoryInfeasible));
    assert_eq!(lint_runs(&system), 1);
    // Nothing is memoised: the strict query path analyzes afresh.
    let params = QueryParams::by_name(g, 1, EDGE).unwrap();
    assert!(matches!(system.query(&params), Err(QueryError::Lint(_))));
    assert_eq!(lint_runs(&system), 2);
}
