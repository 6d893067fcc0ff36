//! Parity suite for the batched/cached prediction fast path.
//!
//! The optimization contract of the inference engine is *bit-for-bit*
//! equality: splitting `forward` into `embed` + `head_eval`, fanning one
//! embedding across heads, and serving embeddings from the cache must all
//! be pure refactorings of the arithmetic. Every assertion here is
//! `assert_eq!` on `f64` — no tolerances.

use nnlqp::{
    predictor_from_json, Nnlqp, PredictorHandle, QueryParams, TrainPredictorConfig,
    CACHED_PREDICT_COST_S, PREDICT_COST_S,
};
use nnlqp_ir::{Graph, OpType, Rng64};
use nnlqp_models::ModelFamily;
use nnlqp_predict::{
    train, Dataset, NnlpConfig, NnlpModel, Predictor, TrainConfig, TransformerConfig,
    TransformerModel,
};
use nnlqp_sim::{DeviceFarm, Platform, PlatformSpec};
use std::sync::Arc;

const PLATFORMS: [&str; 2] = ["gpu-T4-trt7.1-fp32", "cpu-openppl-fp32"];

fn system(embed_cache_capacity: usize) -> Nnlqp {
    Nnlqp::builder()
        .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
        .reps(3)
        .embed_cache(embed_cache_capacity)
        .build()
}

/// Build a system, measure a tiny SqueezeNet corpus on `platforms` and
/// train a predictor with one head per platform over it.
fn trained_on(platforms: &[&str], cfg: TrainPredictorConfig, embed_cache_capacity: usize) -> Nnlqp {
    let s = system(embed_cache_capacity);
    let models: Vec<Graph> = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 8, 3)
        .into_iter()
        .map(|m| m.graph)
        .collect();
    for name in platforms {
        s.warm_cache(&models, &Platform::by_name(name).unwrap(), 1)
            .unwrap();
    }
    s.train_predictor(platforms, cfg).unwrap();
    s
}

/// [`trained_on`] both of [`PLATFORMS`], with a small two-head predictor.
fn trained_system(embed_cache_capacity: usize) -> Nnlqp {
    trained_on(
        &PLATFORMS,
        TrainPredictorConfig {
            epochs: 30,
            hidden: 16,
            gnn_layers: 2,
            ..Default::default()
        },
        embed_cache_capacity,
    )
}

/// Fresh graphs the trained corpus has never seen.
fn probes(n: usize) -> Vec<Graph> {
    nnlqp_models::generate_family(ModelFamily::SqueezeNet, 8 + n, 91)
        .into_iter()
        .rev()
        .take(n)
        .map(|m| m.graph)
        .collect()
}

#[test]
fn batch_matches_per_sample_predict_bitwise() {
    let s = trained_system(0); // cache off: both paths run the backbone
    let graphs = probes(3);
    let batch = s.predict_batch(&graphs, &PLATFORMS).unwrap();
    assert_eq!(batch.latencies_ms.len(), graphs.len());
    for (g, row) in graphs.iter().zip(&batch.latencies_ms) {
        assert_eq!(row.len(), PLATFORMS.len());
        for (name, &want) in PLATFORMS.iter().zip(row) {
            let p = QueryParams::by_name(g.clone(), 1, name).unwrap();
            let got = s.predict(&p).unwrap();
            assert_eq!(got.latency_ms, want, "batch != per-sample on {name}");
            assert_eq!(got.cost_s, PREDICT_COST_S);
        }
    }
}

/// The serving shape: 32 graphs against four platform heads at the default
/// width (48), where each head is one GEMM chain over all 32 embeddings.
/// Every pair must equal its own per-sample prediction, whether the batch
/// computed its embeddings or found all of them cached.
#[test]
fn a_32_by_4_batch_matches_per_sample_predict_cold_and_cached() {
    const FOUR: [&str; 4] = [
        "gpu-T4-trt7.1-fp32",
        "cpu-openppl-fp32",
        "hi3559A-nnie11-int8",
        "atlas300-acl-fp16",
    ];
    let cfg = TrainPredictorConfig {
        epochs: 20,
        ..Default::default()
    };
    let cold = trained_on(&FOUR, cfg, 0); // cache off: per-sample runs the backbone
    let warm = system(2048);
    warm.set_predictor(cold.predictor_handle().unwrap());
    let graphs = probes(32);
    let first = warm.predict_batch(&graphs, &FOUR).unwrap();
    let second = warm.predict_batch(&graphs, &FOUR).unwrap();
    assert_eq!(first.embed_hits + first.embed_misses, 32);
    assert_eq!((second.embed_hits, second.embed_misses), (32, 0));
    assert_eq!(second.latencies_ms.len(), 32);
    let mut clamped = 0;
    for ((g, computed), cached) in graphs
        .iter()
        .zip(&first.latencies_ms)
        .zip(&second.latencies_ms)
    {
        assert_eq!(cached.len(), FOUR.len());
        for (i, name) in FOUR.iter().enumerate() {
            let p = QueryParams::by_name(g.clone(), 1, name).unwrap();
            let alone = cold.predict(&p).unwrap().latency_ms;
            clamped += usize::from(alone <= 1e-6);
            assert_eq!(computed[i], alone, "computed batch != per-sample on {name}");
            assert_eq!(cached[i], alone, "cached batch != per-sample on {name}");
        }
    }
    assert!(clamped <= 4, "{clamped} of 128 predictions are the clamp");
}

#[test]
fn cached_and_uncached_predictions_are_identical() {
    // Two systems, one trained handle: `cold` never caches, `warm` does.
    let cold = trained_system(0);
    let warm = trained_system(2048);
    let handle = cold.predictor_handle().unwrap();
    warm.set_predictor(handle);
    for g in probes(3) {
        for (i, name) in PLATFORMS.iter().enumerate() {
            let p = QueryParams::by_name(g.clone(), 1, name).unwrap();
            let uncached = cold.predict(&p).unwrap();
            assert!(uncached.latency_ms > 1e-6, "degenerate prediction");
            let first = warm.predict(&p).unwrap();
            let second = warm.predict(&p).unwrap(); // always a hit
            assert_eq!(first.latency_ms, uncached.latency_ms);
            assert_eq!(second.latency_ms, uncached.latency_ms);
            assert_eq!(uncached.cost_s, PREDICT_COST_S, "cache-off never hits");
            // The embedding is platform-independent: only the first
            // platform of each graph pays the backbone on `warm`.
            let expect = if i == 0 {
                PREDICT_COST_S
            } else {
                CACHED_PREDICT_COST_S
            };
            assert_eq!(first.cost_s, expect);
            assert_eq!(second.cost_s, CACHED_PREDICT_COST_S);
        }
    }
}

#[test]
fn retrain_hot_swap_invalidates_the_embed_cache() {
    let s = trained_system(2048);
    let g = probes(1).pop().unwrap();
    let p = QueryParams::by_name(g, 1, PLATFORMS[0]).unwrap();
    let before = s.predict(&p).unwrap();
    assert!(before.latency_ms > 1e-6, "degenerate prediction");
    assert_eq!(s.predict(&p).unwrap().cost_s, CACHED_PREDICT_COST_S);
    let v_before = s.predictor_version();

    // Retrain with a different seed: new weights, new generation.
    s.train_predictor(
        &PLATFORMS,
        TrainPredictorConfig {
            epochs: 30,
            hidden: 16,
            gnn_layers: 2,
            seed: 1234,
            ..Default::default()
        },
    )
    .unwrap();
    // Train draws one generation stamp and the install re-stamp another;
    // what matters for cache safety is that the generation advanced.
    assert!(s.predictor_version() > v_before);

    // The first post-swap prediction must pay the full backbone cost
    // (no stale embedding served) …
    let after = s.predict(&p).unwrap();
    assert_eq!(after.cost_s, PREDICT_COST_S, "stale embedding served");
    // … and must equal a from-scratch prediction of the new model.
    let reference = trained_system(0);
    let handle = s.predictor_handle().unwrap();
    reference.set_predictor(handle);
    assert_eq!(reference.predict(&p).unwrap().latency_ms, after.latency_ms);
    // Different weights ⇒ (almost surely) a different value than before.
    assert_ne!(after.latency_ms, before.latency_ms);
}

#[test]
fn reinstalling_the_same_kind_never_serves_a_stale_embedding() {
    // Installing a predictor of the same kind (here the champion's own
    // checkpoint, reloaded into a fresh model) re-stamps the generation,
    // so the embed cache must miss once. The reloaded weights then answer
    // exactly as before, and the cached path replays that answer bitwise.
    let s = trained_system(2048);
    let g = probes(1).pop().unwrap();
    let p = QueryParams::by_name(g, 1, PLATFORMS[0]).unwrap();
    let before = s.predict(&p).unwrap();
    assert_eq!(s.predict(&p).unwrap().cost_s, CACHED_PREDICT_COST_S);

    let champion = s.predictor_handle().unwrap();
    let reloaded = predictor_from_json(&champion.model.to_json()).unwrap();
    s.set_predictor(PredictorHandle::new(
        Arc::from(reloaded),
        champion.head_of.clone(),
    ));
    let first = s.predict(&p).unwrap();
    assert_eq!(first.cost_s, PREDICT_COST_S, "stale embedding served");
    assert_eq!(first.latency_ms, before.latency_ms);
    let second = s.predict(&p).unwrap();
    assert_eq!(second.cost_s, CACHED_PREDICT_COST_S);
    assert_eq!(second.latency_ms, first.latency_ms);
}

/// The embed-cache key is memoised in the graph's node list. An edit
/// through `make_mut` drops the memo, so the edited graph misses the cache
/// and answers exactly what a system that never saw the original answers.
#[test]
fn an_edited_graph_misses_the_embed_cache_and_answers_afresh() {
    let s = trained_system(2048);
    let mut graphs = probes(1);
    let before = s.predict_batch(&graphs, &PLATFORMS).unwrap();
    assert_eq!(s.predict_batch(&graphs, &PLATFORMS).unwrap().embed_hits, 1);

    let relu = graphs[0].nodes.iter().position(|n| n.op == OpType::Relu);
    graphs[0].nodes.make_mut()[relu.expect("SqueezeNet has a Relu")].op = OpType::Sigmoid;
    let edited = s.predict_batch(&graphs, &PLATFORMS).unwrap();
    assert_eq!(
        (edited.embed_hits, edited.embed_misses),
        (0, 1),
        "stale embedding served"
    );

    let fresh = system(0);
    fresh.set_predictor(s.predictor_handle().unwrap());
    let rebuilt = Graph {
        name: graphs[0].name.clone(),
        input_shape: graphs[0].input_shape,
        nodes: graphs[0].nodes.to_vec().into(),
    };
    let reference = fresh.predict_batch(&[rebuilt], &PLATFORMS).unwrap();
    assert_eq!(edited.latencies_ms, reference.latencies_ms);
    assert_ne!(edited.latencies_ms, before.latencies_ms);
}

/// FNV-1a digests of the checkpoint one epoch of `train` produces from a
/// fixed seed, recorded before the GEMM register tile replaced the
/// hand-unrolled kernels: on the FMA (SIMD) backends and on the non-FMA
/// scalar backend that `NNLQP_SIMD=off` selects.
const EPOCH_DIGEST_SIMD: u64 = 0x8956_1837_8f92_c1cb;
const EPOCH_DIGEST_SCALAR: u64 = 0xee99_f25f_df4b_b4f5;

/// The 12-graph, two-head corpus both epoch digests train on.
fn digest_corpus() -> Dataset {
    let graphs: Vec<Graph> = [ModelFamily::SqueezeNet, ModelFamily::ResNet]
        .into_iter()
        .flat_map(|f| nnlqp_models::generate_family(f, 6, 5))
        .map(|m| m.graph)
        .collect();
    let entries: Vec<(&Graph, f64, usize)> = graphs
        .iter()
        .enumerate()
        .map(|(i, g)| (g, 0.8 + 0.37 * i as f64, i % 2))
        .collect();
    Dataset::build(&entries)
}

/// The digests' one epoch: batch 4, seed 7.
const DIGEST_EPOCH: TrainConfig = TrainConfig {
    epochs: 1,
    batch_size: 4,
    lr: 1e-3,
    seed: 7,
};

/// FNV-1a over a checkpoint's JSON bytes.
fn checkpoint_digest(json: &str) -> u64 {
    json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The guard that training numerics did not move: forward, backward
/// (`t_matmul`, `matmul_t`), dropout streams and Adam must reproduce the
/// recorded weights to the last bit, whatever the register width.
#[test]
fn one_training_epoch_reproduces_the_recorded_checkpoint() {
    let graphs: Vec<Graph> = [ModelFamily::SqueezeNet, ModelFamily::ResNet]
        .into_iter()
        .flat_map(|f| nnlqp_models::generate_family(f, 6, 5))
        .map(|m| m.graph)
        .collect();
    let entries: Vec<(&Graph, f64, usize)> = graphs
        .iter()
        .enumerate()
        .map(|(i, g)| (g, 0.8 + 0.37 * i as f64, i % 2))
        .collect();
    let ds = Dataset::build(&entries);
    let cfg = NnlpConfig {
        hidden: 48,
        head_hidden: 48,
        n_heads: 2,
        ..Default::default()
    };
    let mut model = NnlpModel::new(cfg, ds.norm.clone(), &mut Rng64::new(7));
    let report = train(
        &mut model,
        &ds.samples,
        TrainConfig {
            epochs: 1,
            batch_size: 4,
            seed: 7,
            ..Default::default()
        },
    );
    assert!(report.epoch_loss[0].is_finite());
    let digest = (model.to_json().bytes()).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let want = if nnlqp_nn::kernel() == nnlqp_nn::Kernel::Scalar {
        EPOCH_DIGEST_SCALAR
    } else {
        EPOCH_DIGEST_SIMD
    };
    assert_eq!(digest, want, "training numerics moved: {digest:#018x}");
}

/// FNV-1a digests of the checkpoint one epoch of transformer training
/// produces from a fixed seed, on the FMA (SIMD) backends and on the
/// scalar backend `NNLQP_SIMD=off` selects.
const TRANSFORMER_EPOCH_DIGEST_SIMD: u64 = 0x2174_1e61_7330_b61b;
const TRANSFORMER_EPOCH_DIGEST_SCALAR: u64 = 0x0ff1_4bee_ce52_6b61;

/// The same guard for the transformer encoder: attention forward and
/// backward, dropout streams and Adam reproduce the recorded weights to
/// the last bit.
#[test]
fn one_transformer_training_epoch_reproduces_the_recorded_checkpoint() {
    let ds = digest_corpus();
    let cfg = TransformerConfig {
        d_model: 48,
        layers: 3,
        attn_heads: 4,
        head_hidden: 48,
        n_heads: 2,
        dropout: 0.05,
        ..Default::default()
    };
    let mut model = TransformerModel::new(cfg, ds.norm.clone(), &mut Rng64::new(7));
    let report = Predictor::train_in_place(&mut model, &ds.samples, DIGEST_EPOCH);
    assert!(report.epoch_loss[0].is_finite());
    let digest = checkpoint_digest(&model.to_json());
    let want = if nnlqp_nn::kernel() == nnlqp_nn::Kernel::Scalar {
        TRANSFORMER_EPOCH_DIGEST_SCALAR
    } else {
        TRANSFORMER_EPOCH_DIGEST_SIMD
    };
    assert_eq!(digest, want, "transformer numerics moved: {digest:#018x}");
}

/// FNV-1a digests of the checkpoint two epochs of
/// [`Nnlqp::train_predictor_handle`] produce over a database whose graphs
/// are stored once and measured on several platforms, on the FMA (SIMD)
/// backends and on the scalar backend `NNLQP_SIMD=off` selects.
const FACADE_DIGEST_SIMD: u64 = 0xdbf0_1a27_5256_7679;
const FACADE_DIGEST_SCALAR: u64 = 0x3194_0f20_3cf1_3b00;

/// The facade's retrain end to end: rows read back from the store, graphs
/// decoded and rebatched, the dataset built and two epochs trained. Three
/// platforms measure the same graphs at batch 1 and a fourth at batch 4,
/// so one stored model feeds rows of several heads and of two batches.
#[test]
fn a_multi_platform_retrain_reproduces_the_recorded_checkpoint() {
    const HEADS: [(&str, u32); 4] = [
        ("gpu-T4-trt7.1-fp32", 1),
        ("cpu-openppl-fp32", 1),
        ("hi3559A-nnie11-int8", 1),
        ("atlas300-acl-fp16", 4),
    ];
    let s = system(0);
    let models: Vec<Graph> = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 6, 3)
        .into_iter()
        .map(|m| m.graph)
        .collect();
    for (name, batch) in HEADS {
        s.warm_cache(&models, &Platform::by_name(name).unwrap(), batch)
            .unwrap();
    }
    let names = HEADS.map(|(name, _)| name);
    let cfg = TrainPredictorConfig {
        epochs: 2,
        batch_size: 8,
        hidden: 16,
        gnn_layers: 2,
        ..Default::default()
    };
    let (handle, rows) = s.train_predictor_handle(&names, cfg).unwrap().unwrap();
    assert_eq!(rows, models.len() * HEADS.len());
    let digest = checkpoint_digest(&handle.model.to_json());
    let want = if nnlqp_nn::kernel() == nnlqp_nn::Kernel::Scalar {
        FACADE_DIGEST_SCALAR
    } else {
        FACADE_DIGEST_SIMD
    };
    assert_eq!(digest, want, "retrain numerics moved: {digest:#018x}");
}

/// FNV-1a digests of what a cold prediction computes: every bit of
/// `extract_features` over the canonicals, Detection and a seeded corpus,
/// then the `f64` bits of a cold four-platform `predict_batch` of both
/// encoders, on the FMA (SIMD) backends and on the scalar backend
/// `NNLQP_SIMD=off` selects. Recorded at commit `fa77a2a`, before feature
/// extraction and the row kernels were rewritten for speed.
const COLD_PREDICTION_DIGEST_SIMD: u64 = 0xb3b4_c0f7_8e47_b2f7;
const COLD_PREDICTION_DIGEST_SCALAR: u64 = 0x3c25_bc09_5f5d_9e78;

/// FNV-1a, folding `bytes` into `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The corpus the cold digest featurizes and predicts: the ten canonical
/// families, Detection, the canonicals again at batch 64, and two seeded
/// samples of every family.
fn cold_corpus() -> Vec<Graph> {
    use nnlqp_models::family::CORPUS_FAMILIES;
    let canonicals: Vec<Graph> = CORPUS_FAMILIES
        .into_iter()
        .chain([ModelFamily::Detection])
        .map(|f| f.canonical().unwrap())
        .collect();
    let rebatched: Vec<Graph> = canonicals.iter().map(|g| g.rebatch(64).unwrap()).collect();
    let sampled = CORPUS_FAMILIES
        .into_iter()
        .flat_map(|f| nnlqp_models::generate_family(f, 2, 43))
        .map(|m| m.graph);
    canonicals
        .into_iter()
        .chain(rebatched)
        .chain(sampled)
        .collect()
}

/// The guard that a cold prediction did not move: the raw features
/// (node rows, CSR and static features) of every graph of
/// [`cold_corpus`], then a cold `predict_batch` of it on the four
/// platforms of the retrain digest, for a GraphSAGE and a transformer
/// predictor at the default width.
#[test]
fn cold_predictions_reproduce_the_recorded_digest() {
    const HEADS: [(&str, u32); 4] = [
        ("gpu-T4-trt7.1-fp32", 1),
        ("cpu-openppl-fp32", 1),
        ("hi3559A-nnie11-int8", 1),
        ("atlas300-acl-fp16", 4),
    ];
    let graphs = cold_corpus();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for g in &graphs {
        let f = nnlqp_predict::extract_features(g);
        for v in &f.nodes.data {
            h = fnv(h, &v.to_bits().to_le_bytes());
        }
        for &i in f.adj.row_ptr.iter().chain(&f.adj.col_idx) {
            h = fnv(h, &i.to_le_bytes());
        }
        for v in f.stat {
            h = fnv(h, &v.to_bits().to_le_bytes());
        }
    }

    let trainer = system(0);
    let models: Vec<Graph> = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 6, 3)
        .into_iter()
        .map(|m| m.graph)
        .collect();
    for (name, batch) in HEADS {
        trainer
            .warm_cache(&models, &Platform::by_name(name).unwrap(), batch)
            .unwrap();
    }
    let names = HEADS.map(|(name, _)| name);
    for arch in [
        nnlqp::PredictorKind::Sage,
        nnlqp::PredictorKind::Transformer,
    ] {
        let cfg = TrainPredictorConfig {
            epochs: 2,
            batch_size: 8,
            arch,
            ..Default::default()
        };
        let (handle, _) = trainer
            .train_predictor_handle(&names, cfg)
            .unwrap()
            .unwrap();
        let cold = system(0); // cache off: every embedding is computed
        cold.set_predictor(handle);
        let batch = cold.predict_batch(&graphs, &names).unwrap();
        assert_eq!(batch.embed_misses, graphs.len() as u64);
        for v in batch.latencies_ms.iter().flatten() {
            h = fnv(h, &v.to_bits().to_le_bytes());
        }
    }
    let want = if nnlqp_nn::kernel() == nnlqp_nn::Kernel::Scalar {
        COLD_PREDICTION_DIGEST_SCALAR
    } else {
        COLD_PREDICTION_DIGEST_SIMD
    };
    assert_eq!(h, want, "cold prediction moved: {h:#018x}");
}
