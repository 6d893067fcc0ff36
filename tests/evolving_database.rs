//! Integration: the *evolving* database claim — as queries accumulate,
//! retraining the predictor on the grown database improves accuracy on
//! unseen models (the feedback loop of Fig. 1's thin black arrows).

use nnlqp::{metric_names, Nnlqp, Platform, QueryParams, TrainPredictorConfig};
use nnlqp_ir::{Graph, GraphBuilder, NodeId, NodeIds, Shape};
use nnlqp_models::ModelFamily;
use nnlqp_predict::mape;
use nnlqp_serve::{LatencyService, ServeConfig};
use nnlqp_sim::{DeviceFarm, PlatformSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

const T4: &str = "gpu-T4-trt7.1-fp32";

fn quick_system() -> Nnlqp {
    Nnlqp::builder()
        .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
        .reps(3)
        .build()
}

fn quick_train() -> TrainPredictorConfig {
    TrainPredictorConfig {
        epochs: 2,
        hidden: 16,
        gnn_layers: 2,
        ..Default::default()
    }
}

/// conv(8) → relu on 1×3×16×16, edited by `edit` after the builder
/// checked it.
fn conv_relu(name: &str, edit: impl FnOnce(&mut Vec<nnlqp_ir::Node>)) -> Graph {
    let mut b = GraphBuilder::new(name, Shape::nchw(1, 3, 16, 16));
    let conv = b.conv(None, 8, 3, 1, 1, 1).unwrap();
    b.relu(conv).unwrap();
    let mut g = b.finish().unwrap();
    edit(g.nodes.make_mut());
    g
}

/// The default mode measures and stores a graph whose relu claims a
/// 1×9×16×16 output (inference says 1×8×16×16); its row then does not
/// decode. A retrain leaves that row out, counts it, and trains on the
/// rest instead of panicking.
#[test]
fn a_retrain_skips_a_stored_row_that_does_not_decode() {
    let system = quick_system();
    let t4 = Platform::by_name(T4).unwrap();
    let misshapen = conv_relu("misshapen", |nodes| {
        nodes[1].out_shape = Shape::nchw(1, 9, 16, 16);
    });
    system
        .query(&QueryParams::new(misshapen, 1, t4.clone()))
        .unwrap();
    let good: Vec<Graph> = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 4, 5)
        .into_iter()
        .map(|m| m.graph)
        .collect();
    for g in &good {
        system
            .query(&QueryParams::new(g.clone(), 1, t4.clone()))
            .unwrap();
    }
    assert_eq!(system.db.stats().models, good.len() + 1);
    let samples = system.train_predictor(&[T4], quick_train()).unwrap();
    assert_eq!(samples, good.len(), "trained over the good rows only");
    let skipped = system.registry().snapshot();
    assert_eq!(skipped.counter(metric_names::RETRAIN_ROWS_SKIPPED), 1);
}

/// A two-node cycle is measured and stored in the default mode. The
/// service's background retrain must outlive its row: after it and 12
/// fresh keys on a two-measurement cadence, the loop has retrained.
#[test]
fn a_stored_cycle_does_not_stop_the_retrain_loop() {
    let cycle = conv_relu("cycle", |nodes| {
        nodes[0].inputs = NodeIds::from(&[NodeId(1)][..]);
        nodes[1].inputs = NodeIds::from(&[NodeId(0)][..]);
    });
    let svc = LatencyService::start(
        Arc::new(quick_system()),
        ServeConfig {
            workers: 1,
            retrain_after: 2,
            retrain_platforms: vec![T4.to_string()],
            train: quick_train(),
            ..Default::default()
        },
    );
    svc.query(&Arc::new(cycle), T4, 1).unwrap();
    for m in nnlqp_models::generate_family(ModelFamily::SqueezeNet, 12, 7) {
        svc.query(&Arc::new(m.graph), T4, 1).unwrap();
    }
    // Shutdown joins the retrain loop, which runs a due retrain first.
    svc.shutdown().unwrap();
    let m = svc.metrics();
    assert!(m.retrains >= 1, "the retrain loop died: {m:?}");
}

/// A retrain that panics (a zero batch size: `chunks(0)` in the training
/// loop) is counted and logged, and the loop lives on to run the next
/// cadence; no thread died, so shutdown has nothing to report.
#[test]
fn a_panicking_retrain_is_counted_and_the_loop_carries_on() {
    let svc = LatencyService::start(
        Arc::new(quick_system()),
        ServeConfig {
            workers: 1,
            retrain_after: 2,
            retrain_platforms: vec![T4.to_string()],
            train: TrainPredictorConfig {
                batch_size: 0,
                ..quick_train()
            },
            ..Default::default()
        },
    );
    let count = |kind: &str| {
        let events = svc.events().expect("event log on").snapshot();
        events.iter().filter(|e| e.kind == kind).count()
    };
    let models = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 4, 11);
    let deadline = Instant::now() + Duration::from_secs(60);
    for (i, m) in models.into_iter().enumerate() {
        svc.query(&Arc::new(m.graph), T4, 1).unwrap();
        // The first cadence falls due after two fresh keys: let it start
        // before the next two make the second one due.
        while i == 1 && count("retrain_start") == 0 {
            assert!(Instant::now() < deadline, "the first retrain never ran");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    // Shutdown joins the retrain loop, which runs a due retrain first.
    svc.shutdown().unwrap();
    assert_eq!(
        count("retrain_start"),
        2,
        "the loop died at its first panic"
    );
    assert_eq!(count("retrain_panic"), 2);
    let panics = svc.system().registry().snapshot();
    assert_eq!(panics.counter(nnlqp_serve::metric_names::RETRAIN_PANICS), 2);
    assert_eq!(svc.metrics().retrains, 0);
}

#[test]
fn predictor_improves_as_database_grows() {
    let system = Nnlqp::builder()
        .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
        .reps(5)
        .build();
    let platform = "gpu-T4-trt7.1-fp32";
    let handle = Platform::by_name(platform).unwrap();

    // A stream of arriving models (what production queries look like).
    let stream: Vec<_> = nnlqp_models::generate_family(ModelFamily::MobileNetV2, 60, 13)
        .into_iter()
        .map(|m| m.graph)
        .collect();
    // A fixed evaluation set from a different seed.
    let eval: Vec<_> = nnlqp_models::generate_family(ModelFamily::MobileNetV2, 20, 99)
        .into_iter()
        .map(|m| m.graph)
        .collect();

    // Everything entering the database must be clean under the analyzer;
    // a polluted training stream would invalidate the learning claim.
    let spec = PlatformSpec::by_name(platform).unwrap();
    for g in stream.iter().chain(&eval) {
        assert!(
            !nnlqp_analyze::analyze(g, Some(&spec)).has_errors(),
            "{} failed static analysis",
            g.name
        );
    }

    let cfg = TrainPredictorConfig {
        epochs: 30,
        hidden: 32,
        gnn_layers: 2,
        ..Default::default()
    };

    let eval_mape = |system: &Nnlqp| -> f64 {
        let mut preds = Vec::new();
        let mut truths = Vec::new();
        for g in &eval {
            let p = QueryParams::by_name(g.clone(), 1, platform).unwrap();
            preds.push(system.predict(&p).unwrap().latency_ms);
            // Ground truth from the simulator directly (not via query, to
            // keep the database containing only the training stream).
            let spec = PlatformSpec::by_name(platform).unwrap();
            truths.push(nnlqp_sim::exec::model_latency_ms(g, &spec));
        }
        mape(&preds, &truths)
    };

    // Phase 1: a young database with 10 records.
    system.warm_cache(&stream[..10], &handle, 1).unwrap();
    let n1 = system.train_predictor(&[platform], cfg).unwrap();
    assert_eq!(n1, 10);
    let young = eval_mape(&system);

    // Phase 2: the database evolves to 60 records; same architecture,
    // retrained.
    system.warm_cache(&stream, &handle, 1).unwrap();
    let n2 = system.train_predictor(&[platform], cfg).unwrap();
    assert_eq!(n2, 60);
    let grown = eval_mape(&system);

    assert!(
        grown < young,
        "grown-database predictor ({grown:.1}% MAPE) should beat the young one ({young:.1}%)"
    );
    // And it must be genuinely useful, not just "less bad".
    assert!(grown < 30.0, "grown MAPE {grown:.1}% implausibly high");
}
