//! Property-based integration tests: invariants that must hold across
//! crate boundaries for randomly generated corpus models.
//!
//! The simulator is the ground truth of every stored latency, so its own
//! invariants live here as tests, not as checks on the request path:
//! fusion partitions the graph into convex kernels with acyclic
//! dependencies, and every schedule on every registry platform respects
//! its dependencies and streams, reports its makespan, reproduces bit for
//! bit and stays inside the static roofline window. Each invariant is one
//! assertion helper, and each helper is shown to fail on a seeded defect.

use nnlqp_hash::graph_hash;
use nnlqp_ir::{cost, serialize, Graph, GraphBuilder, NodeId, Rng64, Shape};
use nnlqp_models::{family::CORPUS_FAMILIES, ModelFamily};
use nnlqp_sim::exec::ExecutionTrace;
use nnlqp_sim::fusion::{Kernel, KernelDeps, KernelFamily};
use nnlqp_sim::{exec, fusion, PlatformSpec};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn arbitrary_corpus_model() -> impl Strategy<Value = nnlqp_ir::Graph> {
    (0usize..CORPUS_FAMILIES.len(), any::<u64>()).prop_map(|(fi, seed)| {
        let fam: ModelFamily = CORPUS_FAMILIES[fi];
        let mut r = Rng64::new(seed);
        fam.sample("prop", &mut r).expect("generators are valid")
    })
}

/// Fusion covers every node of `g` exactly once, with nodes of `g` only.
fn assert_covers_each_node_once(g: &Graph, kernels: &[Kernel]) {
    let mut cover = vec![0u32; g.len()];
    for k in kernels {
        assert!(!k.nodes.is_empty(), "a {} kernel has no nodes", k.family);
        for n in &k.nodes {
            assert!(n.index() < g.len(), "kernel member {n:?} is not a node");
            cover[n.index()] += 1;
        }
    }
    assert!(cover.iter().all(|&c| c == 1), "node cover counts {cover:?}");
}

/// The kernel dependency graph is acyclic: Kahn's algorithm orders every
/// kernel.
fn assert_kernel_deps_acyclic(deps: &KernelDeps) {
    let mut waiting: Vec<usize> = deps.iter().map(<[usize]>::len).collect();
    let mut ready: Vec<usize> = (0..deps.len()).filter(|&i| waiting[i] == 0).collect();
    let mut ordered = 0;
    while let Some(done) = ready.pop() {
        ordered += 1;
        for (i, d) in deps.iter().enumerate() {
            if d.contains(&done) {
                waiting[i] -= 1;
                if waiting[i] == 0 {
                    ready.push(i);
                }
            }
        }
    }
    assert_eq!(ordered, deps.len(), "the kernel dependencies have a cycle");
}

/// Every kernel is convex: no data path leaves a kernel and re-enters it,
/// or no launch order runs the kernel as one unit.
fn assert_kernels_convex(g: &Graph, kernels: &[Kernel]) {
    let succ = g.successors();
    for k in kernels.iter().filter(|k| k.nodes.len() > 1) {
        let member = |v: usize| k.nodes.iter().any(|m| m.index() == v);
        let mut outside: Vec<usize> = k
            .nodes
            .iter()
            .flat_map(|m| &succ[m.index()])
            .map(|s| s.index())
            .filter(|&s| !member(s))
            .collect();
        let mut seen = vec![false; g.len()];
        while let Some(v) = outside.pop() {
            assert!(!member(v), "{} kernel re-entered at n{v}", k.family);
            if !std::mem::replace(&mut seen[v], true) {
                outside.extend(succ[v].iter().map(|s| s.index()));
            }
        }
    }
}

/// Every kernel starts after each of its producers finishes.
fn assert_producers_finish_first(trace: &ExecutionTrace, deps: &KernelDeps) {
    assert_eq!(trace.kernels.len(), deps.len(), "one record per kernel");
    for (i, k) in trace.kernels.iter().enumerate() {
        assert!(
            k.start_ms <= k.finish_ms,
            "kernel {i} ends before it starts"
        );
        for &p in &deps[i] {
            let producer = trace.kernels[p].finish_ms;
            assert!(
                producer <= k.start_ms,
                "kernel {i} starts before kernel {p} ends"
            );
        }
    }
}

/// No two kernels overlap on one stream, and every stream exists.
fn assert_streams_exclusive(trace: &ExecutionTrace, streams: usize) {
    let mut runs: Vec<(usize, f64, f64)> = trace
        .kernels
        .iter()
        .map(|k| (k.stream, k.start_ms, k.finish_ms))
        .collect();
    runs.sort_by(|a, b| a.partial_cmp(b).expect("finite schedule times"));
    for (stream, ..) in &runs {
        assert!(*stream < streams, "stream {stream} of {streams}");
    }
    for w in runs.windows(2) {
        let same = w[0].0 == w[1].0;
        assert!(!same || w[0].2 <= w[1].1, "overlap on stream {}", w[0].0);
    }
}

/// The reported latency is the makespan.
fn assert_latency_is_makespan(trace: &ExecutionTrace) {
    let makespan = trace
        .kernels
        .iter()
        .map(|k| k.finish_ms)
        .fold(0.0, f64::max);
    assert_eq!(trace.latency_ms, makespan);
}

/// Two executions are bit-identical: a nondeterministic schedule would
/// store irreproducible ground truth.
fn assert_bit_identical(a: &ExecutionTrace, b: &ExecutionTrace) {
    let bits = |t: &ExecutionTrace| {
        let kernels: Vec<_> = t
            .kernels
            .iter()
            .map(|k| (k.stream, k.start_ms.to_bits(), k.finish_ms.to_bits()))
            .collect();
        (t.latency_ms.to_bits(), kernels)
    };
    assert_eq!(bits(a), bits(b), "re-execution moved the schedule");
}

/// The static window, from `nnlqp_ir::cost` alone, that kernel `k`'s
/// interval must land in on `p`, in ms. Floor: no kernel beats
/// `max(flops / peak, output_bytes / bw)`. Ceiling: twice its launch,
/// its FLOPs at the cost model's least utilization (0.005) and all its
/// bytes cold, plus 1 µs.
fn roofline_window(g: &Graph, k: &Kernel, p: &PlatformSpec) -> (f64, f64) {
    let (mut flops, mut read) = (0.0, 0.0);
    for &n in &k.nodes {
        let c = cost::node_cost(g, n, p.dtype);
        flops += c.flops;
        read += c.read_bytes;
    }
    let last = *k.nodes.last().expect("a kernel has nodes");
    let write = g.node(last).out_shape.bytes(p.dtype) as f64;
    let (peak, bw) = (p.peak_gflops * 1.0e9, p.mem_bw_gbps * 1.0e9);
    let floor = (flops / peak).max(write / bw) * 1.0e3;
    let ceiling =
        2.0 * (p.launch_us * 1.0e-3 + flops / (peak * 0.005) * 1.0e3 + (read + write) / bw * 1.0e3);
    (floor, ceiling + 1.0e-3)
}

/// Every kernel interval lies inside its roofline window (1e-9 ms and a
/// relative 1e-6 of slack below the floor).
fn assert_inside_roofline(g: &Graph, kernels: &[Kernel], trace: &ExecutionTrace, p: &PlatformSpec) {
    assert_eq!(trace.kernels.len(), kernels.len(), "one record per kernel");
    for (k, run) in kernels.iter().zip(&trace.kernels) {
        let (floor, ceiling) = roofline_window(g, k, p);
        let span = run.finish_ms - run.start_ms;
        assert!(
            span + 1.0e-9 >= floor * (1.0 - 1.0e-6),
            "{} beats its floor",
            k.family
        );
        assert!(span <= ceiling, "{} exceeds its ceiling", k.family);
    }
}

/// Every simulator invariant over `g`: its fusion, then its schedule on
/// each registry platform.
fn assert_simulator_invariants(g: &Graph) {
    let kernels = fusion::fuse(g);
    assert_covers_each_node_once(g, &kernels);
    let deps = fusion::kernel_deps(g, &kernels);
    assert_kernel_deps_acyclic(&deps);
    assert_kernels_convex(g, &kernels);
    for p in PlatformSpec::registry() {
        let trace = exec::execute(g, &p);
        assert_producers_finish_first(&trace, &deps);
        assert_streams_exclusive(&trace, p.streams);
        assert_latency_is_makespan(&trace);
        assert_bit_identical(&trace, &exec::execute(g, &p));
        assert_inside_roofline(g, &kernels, &trace, &p);
    }
}

/// True when `check` panics: a seeded defect must fail its helper.
fn fails(check: impl FnOnce()) -> bool {
    catch_unwind(AssertUnwindSafe(check)).is_err()
}

/// A canonical graph, its kernels, their dependencies and its T4 trace.
fn traced(family: ModelFamily) -> (Graph, Vec<Kernel>, KernelDeps, ExecutionTrace, PlatformSpec) {
    let g = family.canonical().unwrap();
    let p = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
    let kernels = fusion::fuse(&g);
    let deps = fusion::kernel_deps(&g, &kernels);
    let trace = exec::execute(&g, &p);
    (g, kernels, deps, trace, p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Serialization must give back the graph, and so its hash —
    /// otherwise the database cache would miss after a round trip
    /// through storage.
    #[test]
    fn hash_stable_across_serialization(g in arbitrary_corpus_model()) {
        let h1 = graph_hash(&g);
        let g2 = serialize::decode(&serialize::encode(&g).unwrap()).unwrap();
        prop_assert_eq!(h1, graph_hash(&g2));
        prop_assert_eq!(g2, g);
    }

    /// Fusion partitions every generator output into convex kernels with
    /// acyclic dependencies, and its schedule keeps every invariant on
    /// every registry platform.
    #[test]
    fn fusion_partitions_all_corpus_models(g in arbitrary_corpus_model()) {
        assert_simulator_invariants(&g);
    }

    /// The same invariants over NAS-Bench-201 cells.
    #[test]
    fn nas_bench_201_cells_keep_the_simulator_invariants(seed in any::<u64>()) {
        for m in nnlqp_models::generate_family(ModelFamily::NasBench201, 2, seed) {
            assert_simulator_invariants(&m.graph);
        }
    }

    /// And over detection models, whose several heads are several sinks:
    /// the kernel issued last need not be the one that finishes last.
    #[test]
    fn detection_models_keep_the_simulator_invariants(seed in any::<u64>()) {
        for m in nnlqp_models::generate_family(ModelFamily::Detection, 1, seed) {
            assert_simulator_invariants(&m.graph);
        }
    }

    /// A kernel that starts before its producer finishes fails the
    /// happens-before check.
    #[test]
    fn an_early_start_fails_the_producer_check(seed in any::<u64>()) {
        let family = CORPUS_FAMILIES[seed as usize % CORPUS_FAMILIES.len()];
        let (_, _, deps, mut trace, _) = traced(family);
        let dependents: Vec<usize> =
            (0..deps.len()).filter(|&i| !deps[i].is_empty()).collect();
        let v = dependents[Rng64::new(seed).below(dependents.len())];
        trace.kernels[v].start_ms = trace.kernels[deps[v][0]].finish_ms - 0.5;
        prop_assert!(fails(|| assert_producers_finish_first(&trace, &deps)));
    }

    /// Collapsing a parallel schedule onto one stream makes its intervals
    /// overlap; a stream past the platform's count does not exist.
    #[test]
    fn an_overlap_or_a_ghost_stream_fails_the_stream_check(seed in any::<u64>()) {
        // GoogleNet's inception branches guarantee true multi-stream
        // parallelism in the trace.
        let (_, _, _, trace, p) = traced(ModelFamily::GoogleNet);
        assert_streams_exclusive(&trace, p.streams);
        prop_assert!(trace.kernels.iter().any(|k| k.stream != trace.kernels[0].stream));
        let mut collapsed = trace.clone();
        for k in &mut collapsed.kernels {
            k.stream = seed as usize % p.streams;
        }
        prop_assert!(fails(|| assert_streams_exclusive(&collapsed, p.streams)));
        let mut ghost = trace;
        let v = Rng64::new(seed).below(ghost.kernels.len());
        ghost.kernels[v].stream = p.streams + 3;
        prop_assert!(fails(|| assert_streams_exclusive(&ghost, p.streams)));
    }

    /// Any tampering with the reported latency fails the makespan check,
    /// and a single bit of drift between two runs fails the determinism
    /// check.
    #[test]
    fn a_tampered_latency_or_a_drifted_bit_fails_its_check(seed in any::<u64>()) {
        let (g, _, _, trace, p) = traced(CORPUS_FAMILIES[seed as usize % CORPUS_FAMILIES.len()]);
        let mut late = trace.clone();
        late.latency_ms += 0.125;
        prop_assert!(fails(|| assert_latency_is_makespan(&late)));
        let mut drift = exec::execute(&g, &p);
        assert_bit_identical(&trace, &drift);
        let v = Rng64::new(seed).below(drift.kernels.len());
        drift.kernels[v].finish_ms = f64::from_bits(drift.kernels[v].finish_ms.to_bits() ^ 1);
        prop_assert!(fails(|| assert_bit_identical(&trace, &drift)));
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

    /// Every generated corpus model passes the admission analysis — IR
    /// lints and memory feasibility — with zero errors on a multi-stream
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
        // Both passes must actually have run.
        prop_assert_eq!(report.passes_run.len(), 2);
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
        let g2 = serialize::decode(&serialize::encode(&g).unwrap()).unwrap();
        let hit = db.lookup_latency(graph_hash(&g2), pid, 1);
        prop_assert!(hit.is_some());
    }
}

/// A fusion plan that drops a kernel leaves nodes uncovered, and one that
/// repeats a kernel covers nodes twice.
#[test]
fn a_dropped_or_repeated_kernel_fails_the_coverage_check() {
    let (g, mut kernels, ..) = traced(ModelFamily::SqueezeNet);
    assert_covers_each_node_once(&g, &kernels);
    let dropped = kernels.remove(kernels.len() / 2);
    assert!(fails(|| assert_covers_each_node_once(&g, &kernels)));
    kernels.push(dropped.clone());
    kernels.push(dropped);
    assert!(fails(|| assert_covers_each_node_once(&g, &kernels)));
}

/// Merging two dependent kernels while leaving the node between them
/// outside makes the plan cyclic and the merged kernel non-convex.
#[test]
fn an_illegal_grouping_fails_the_acyclicity_and_convexity_checks() {
    let mut b = GraphBuilder::new("chain3", Shape::nchw(1, 8, 8, 8));
    let c1 = b.conv(None, 8, 3, 1, 1, 1).unwrap();
    let s = b.sigmoid(c1).unwrap();
    b.conv(Some(s), 8, 3, 1, 1, 1).unwrap();
    let g = b.finish().unwrap();
    let kernels = vec![
        Kernel {
            family: KernelFamily::Conv,
            nodes: vec![NodeId(0), NodeId(2)].into(),
        },
        Kernel {
            family: KernelFamily::Sigmoid,
            nodes: vec![NodeId(1)].into(),
        },
    ];
    assert_covers_each_node_once(&g, &kernels);
    let deps = fusion::kernel_deps(&g, &kernels);
    assert!(fails(|| assert_kernel_deps_acyclic(&deps)));
    assert!(fails(|| assert_kernels_convex(&g, &kernels)));
    let direct: KernelDeps = [vec![1], vec![0], vec![]].into_iter().collect();
    assert!(fails(|| assert_kernel_deps_acyclic(&direct)));
}

/// A kernel squashed to a tenth of its roofline floor, or stretched to
/// ten times its ceiling, fails the roofline check.
#[test]
fn a_kernel_outside_its_roofline_window_fails_the_roofline_check() {
    let (g, kernels, _, trace, p) = traced(ModelFamily::ResNet);
    assert_inside_roofline(&g, &kernels, &trace, &p);
    let window = |i: usize| roofline_window(&g, &kernels[i], &p);
    let fat = (0..kernels.len())
        .max_by(|&a, &b| window(a).0.total_cmp(&window(b).0))
        .unwrap();
    let mut fast = trace.clone();
    fast.kernels[fat].finish_ms = fast.kernels[fat].start_ms + window(fat).0 * 0.1;
    assert!(fails(|| assert_inside_roofline(&g, &kernels, &fast, &p)));
    let mut stalled = trace;
    stalled.kernels[0].finish_ms = stalled.kernels[0].start_ms + window(0).1 * 10.0;
    assert!(fails(|| assert_inside_roofline(&g, &kernels, &stalled, &p)));
}
