//! Property-based integration tests: invariants that must hold across
//! crate boundaries for randomly generated corpus models.

use nnlqp_hash::graph_hash;
use nnlqp_ir::{serialize, Rng64};
use nnlqp_models::{family::CORPUS_FAMILIES, ModelFamily};
use nnlqp_sim::{exec, fusion, PlatformSpec};
use proptest::prelude::*;

fn arbitrary_corpus_model() -> impl Strategy<Value = nnlqp_ir::Graph> {
    (0usize..CORPUS_FAMILIES.len(), any::<u64>()).prop_map(|(fi, seed)| {
        let fam: ModelFamily = CORPUS_FAMILIES[fi];
        let mut r = Rng64::new(seed);
        fam.sample("prop", &mut r).expect("generators are valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Serialization must preserve the graph hash — otherwise the database
    /// cache would miss after a round trip through storage.
    #[test]
    fn hash_stable_across_serialization(g in arbitrary_corpus_model()) {
        let h1 = graph_hash(&g);
        let g2 = serialize::decode(&serialize::encode(&g)).unwrap();
        prop_assert_eq!(h1, graph_hash(&g2));
    }

    /// Fusion must assign every node to exactly one kernel for every
    /// generator output.
    #[test]
    fn fusion_partitions_all_corpus_models(g in arbitrary_corpus_model()) {
        let kernels = fusion::fuse(&g);
        let mut seen = vec![0u8; g.len()];
        for k in &kernels {
            for n in &k.nodes {
                seen[n.index()] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    /// Kernel additivity is violated in the expected direction on every
    /// platform for every model (Fig. 2 generalized).
    #[test]
    fn additivity_violation_holds_on_all_platforms(g in arbitrary_corpus_model()) {
        for p in [
            "gpu-T4-trt7.1-fp32",
            "cpu-openppl-fp32",
            "hi3559A-nnie11-int8",
            "rv1109-rknn-int8",
        ] {
            let spec = PlatformSpec::by_name(p).unwrap();
            let model = exec::model_latency_ms(&g, &spec);
            let sum = exec::sum_kernel_latencies_ms(&g, &spec);
            prop_assert!(model.is_finite() && model > 0.0);
            prop_assert!(sum >= model, "{p}: sum {sum} < model {model}");
        }
    }

    /// Latency is monotone in precision on the same silicon: fp32 is
    /// never faster than int8 on the T4 (same bandwidth, higher compute
    /// and bytes).
    #[test]
    fn int8_not_slower_than_fp32(g in arbitrary_corpus_model()) {
        let f32p = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
        let i8p = PlatformSpec::by_name("gpu-T4-trt7.1-int8").unwrap();
        let lf = exec::model_latency_ms(&g, &f32p);
        let li = exec::model_latency_ms(&g, &i8p);
        prop_assert!(li <= lf * 1.05, "int8 {li} vs fp32 {lf}");
    }

    /// Feature extraction is total over the corpus and dimensions agree
    /// with the graph.
    #[test]
    fn features_extract_for_all_corpus_models(g in arbitrary_corpus_model()) {
        let f = nnlqp_predict::extract_features(&g);
        prop_assert_eq!(f.nodes.rows, g.len());
        prop_assert_eq!(f.adj.n(), g.len());
        prop_assert!(f.stat.iter().all(|v| v.is_finite() && *v >= 0.0));
        prop_assert!(f.nodes.data.iter().all(|v| v.is_finite()));
    }

    /// Every generated corpus model survives the full static-analysis
    /// pipeline — IR lints, memory feasibility, fusion legality, cost
    /// sanity, and schedule hazards — with zero errors on a multi-stream
    /// platform.
    #[test]
    fn corpus_models_analyze_without_errors(g in arbitrary_corpus_model()) {
        let spec = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
        let report = nnlqp_analyze::analyze(&g, Some(&spec));
        prop_assert!(
            !report.has_errors(),
            "analyzer found errors:\n{}",
            report.render_text()
        );
        // All five pass families must actually have run.
        prop_assert_eq!(report.passes_run.len(), 5);
    }

    /// The analyzer is deterministic: the same graph produces a
    /// byte-identical JSON report on every run, including when the
    /// analyses execute concurrently from many threads. The admission
    /// cache and the golden-file tests both depend on this.
    #[test]
    fn analysis_reports_are_byte_identical_across_runs_and_threads(
        g in arbitrary_corpus_model(),
        threads in 2usize..6,
    ) {
        let spec = PlatformSpec::by_name("rv1109-rknn-int8").unwrap();
        let reference = nnlqp_analyze::analyze(&g, Some(&spec)).render_json();
        // Repeated sequential runs.
        for _ in 0..3 {
            prop_assert_eq!(
                nnlqp_analyze::analyze(&g, Some(&spec)).render_json(),
                reference.clone()
            );
        }
        // Concurrent runs over shared references.
        let renders = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| s.spawn(|| nnlqp_analyze::analyze(&g, Some(&spec)).render_json()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("analysis thread panicked"))
                .collect::<Vec<String>>()
        });
        for r in renders {
            prop_assert_eq!(r, reference.clone());
        }
    }

    /// The database cache key (hash, platform, batch) is sound: inserting
    /// then looking up through an independently deserialized copy of the
    /// graph hits.
    #[test]
    fn db_cache_key_roundtrip(g in arbitrary_corpus_model()) {
        let db = nnlqp_db::Database::new();
        let (mid, _) = db.insert_model(&g);
        let pid = db.get_or_create_platform("T4", "trt7.1", "fp32");
        db.insert_latency(mid, pid, 1, 2.5, 0.0, 0, 0).unwrap();
        let g2 = serialize::decode(&serialize::encode(&g)).unwrap();
        let hit = db.lookup_latency(graph_hash(&g2), pid, 1);
        prop_assert!(hit.is_some());
    }
}
