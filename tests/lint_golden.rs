//! Integration: golden JSON lint report.
//!
//! The analyzer is a pure function of (graph, platform): the whole-graph
//! passes, check order, diagnostic ordering and the hand-rolled JSON
//! renderer are all deterministic, so a fixed workload's machine-readable
//! report is goldenable byte-for-byte. The workload exercises a clean
//! canonical model, a graph carrying both whole-graph warnings
//! (dead region, redundant computation) and a platform-conditioned
//! memory-infeasibility error on the smallest device in the registry.
//!
//! Regenerate the golden after an intentional schema change with
//! `NNLQP_BLESS=1 cargo test --test lint_golden` — and bump
//! `REPORT_SCHEMA_VERSION` if the shape (not just the content) changed.

use nnlqp_ir::{Graph, GraphBuilder, Shape};
use nnlqp_models::{family::CORPUS_FAMILIES, ModelFamily};
use nnlqp_sim::PlatformSpec;
use std::collections::HashMap;
use std::path::Path;

const GOLDEN: &str = "tests/golden/lint_report.json";

/// A graph with one dead branch (NNL006) and one duplicated subgraph
/// (NNL007), found by the reachability and value-numbering passes.
fn warny() -> Graph {
    let mut b = GraphBuilder::new("warny", Shape::nchw(1, 3, 8, 8));
    let c = b.conv(None, 8, 3, 1, 1, 1).unwrap();
    b.sigmoid(c).unwrap(); // never reaches the output: dead region
    let r1 = b.relu(c).unwrap();
    let r2 = b.relu(c).unwrap(); // same op, same input: redundant
    b.add(r1, r2).unwrap();
    b.finish().unwrap()
}

/// A graph whose peak activation memory exceeds the 128 MiB rv1109:
/// the conv output alone is 512*512*512 bytes at int8.
fn oversized() -> Graph {
    let mut b = GraphBuilder::new("vram-hog", Shape::nchw(1, 3, 512, 512));
    let c = b.conv(None, 512, 1, 1, 0, 1).unwrap();
    b.relu(c).unwrap();
    b.finish().unwrap()
}

/// The fixed workload: three reports as one JSON array, exactly how the
/// CLI's `lint --json` composes multi-model output.
fn rendered_reports() -> String {
    let t4 = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
    let edge = PlatformSpec::by_name("rv1109-rknn-int8").unwrap();
    let reports = [
        nnlqp_analyze::analyze(&ModelFamily::SqueezeNet.canonical().unwrap(), Some(&t4)),
        nnlqp_analyze::analyze(&warny(), Some(&t4)),
        nnlqp_analyze::analyze(&oversized(), Some(&edge)),
    ];
    let body: Vec<String> = reports
        .iter()
        .map(nnlqp_analyze::Report::render_json)
        .collect();
    format!("[{}]\n", body.join(","))
}

#[test]
fn lint_json_matches_golden() {
    let text = rendered_reports();

    // Determinism: a second evaluation reproduces the bytes.
    assert_eq!(text, rendered_reports());

    // Shape guarantees consumers rely on, independent of the golden.
    assert_eq!(
        text.matches("\"schema_version\":2").count(),
        3,
        "every report leads with the stable schema version"
    );
    assert!(text.contains("\"NNL006\""), "dead region surfaced");
    assert!(
        text.contains("\"NNL007\""),
        "redundant computation surfaced"
    );
    assert!(text.contains("\"NNL301\""), "memory infeasibility surfaced");

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("NNLQP_BLESS").is_some() {
        std::fs::write(&path, &text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read golden {}: {e}", path.display()));
    assert_eq!(
        text, golden,
        "lint JSON drifted from {GOLDEN}; re-bless with NNLQP_BLESS=1 if intentional"
    );
}

/// FNV-1a digest of every report [`corpus_digest`] renders.
const CORPUS_DIGEST: u64 = 0xaf9e_9c09_2be3_8ff8;

/// Three nodes read the graph input (n0, n2 and n5), so it stays resident
/// until the last of them runs; at int8 the three 64 MiB conv outputs
/// overflow the 128 MiB rv1109.
fn three_sources() -> Graph {
    let mut b = GraphBuilder::new("three-sources", Shape::nchw(1, 3, 512, 512));
    let a = b.conv(None, 256, 1, 1, 0, 1).unwrap();
    let r = b.relu(a).unwrap();
    let c = b.conv(None, 256, 3, 1, 1, 1).unwrap();
    let s = b.add(r, c).unwrap();
    let t = b.sigmoid(s).unwrap();
    let d = b.conv(None, 256, 5, 1, 2, 1).unwrap();
    b.add(t, d).unwrap();
    b.finish().unwrap()
}

/// FNV-1a over `render_json()` of [`nnlqp_analyze::analyze`] on every
/// registry platform, for the corpus canonicals and Detection at batch
/// 1, 16 and 128 plus [`three_sources`], and the number of diagnostics
/// carrying each code.
fn corpus_digest() -> (u64, HashMap<&'static str, usize>) {
    let mut graphs: Vec<Graph> = Vec::new();
    for family in CORPUS_FAMILIES.into_iter().chain([ModelFamily::Detection]) {
        let g = family.canonical().unwrap();
        for batch in [1, 16, 128] {
            graphs.push(g.rebatch(batch).unwrap());
        }
    }
    graphs.push(three_sources());
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut hits: HashMap<&'static str, usize> = HashMap::new();
    for p in PlatformSpec::registry() {
        for g in &graphs {
            let report = nnlqp_analyze::analyze(g, Some(&p));
            for d in &report.diagnostics {
                *hits.entry(d.code.as_str()).or_insert(0) += 1;
            }
            digest = report.render_json().bytes().fold(digest, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        }
    }
    (digest, hits)
}

/// Every report byte the whole-graph facts feed (dead regions, value
/// numbers, peak memory) is pinned across the corpus and every platform.
#[test]
fn the_analyzer_reproduces_the_recorded_corpus_digest() {
    let (digest, hits) = corpus_digest();
    for code in ["NNL006", "NNL007", "NNL301", "NNL302"] {
        assert!(
            hits.get(code).is_some_and(|&n| n > 0),
            "{code} never fired: {hits:?}"
        );
    }
    assert_eq!(
        digest, CORPUS_DIGEST,
        "analyzer reports moved: {digest:#018x}"
    );
}
