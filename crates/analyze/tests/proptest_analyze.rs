//! Property tests for the analyzer: every built-in model family lints
//! clean, and seeded mutations each trigger their specific diagnostic code.

use nnlqp_analyze::{analyze, Anchor, Code, Severity, ALL_CODES};
use nnlqp_ir::op::ALL_OPS;
use nnlqp_ir::validate::{validate, walk, Rule};
use nnlqp_ir::{Attrs, Graph, GraphBuilder, IrError, Node, NodeId, Rng64, Shape, MAX_RANK};
use nnlqp_models::family::CORPUS_FAMILIES;
use nnlqp_models::ModelFamily;
use nnlqp_sim::platform::PlatformSpec;
use proptest::prelude::*;
use std::ops::ControlFlow;

fn t4() -> PlatformSpec {
    PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap()
}

/// A canonical family graph picked by seed.
fn family_graph(seed: u64) -> Graph {
    let f = CORPUS_FAMILIES[(seed as usize) % CORPUS_FAMILIES.len()];
    f.canonical().unwrap()
}

#[test]
fn every_builtin_family_lints_clean() {
    let p = t4();
    for f in CORPUS_FAMILIES {
        let g = f.canonical().unwrap();
        let report = analyze(&g, Some(&p));
        assert!(!report.has_errors(), "{f}:\n{}", report.render_text());
        assert_eq!(report.passes_run.len(), 2, "{f} skipped a pass");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sampled (randomized) family variants lint without errors too — the
    /// strict query path must never reject a graph our own generators made.
    #[test]
    fn sampled_family_variants_lint_clean(seed in 0u64..1_000) {
        let f = CORPUS_FAMILIES[(seed as usize) % CORPUS_FAMILIES.len()];
        let mut r = Rng64::new(seed);
        let g = f.sample(&format!("prop-{seed}"), &mut r).unwrap();
        let report = analyze(&g, Some(&t4()));
        prop_assert!(!report.has_errors(), "{}", report.render_text());
    }

    /// NNL001: retargeting an edge at a nonexistent node.
    #[test]
    fn dangling_input_triggers_nnl001(seed in 0u64..64) {
        let mut g = family_graph(seed);
        let mut r = Rng64::new(seed);
        // Pick a non-source node and point one input out of range.
        let victims: Vec<usize> =
            (0..g.len()).filter(|&i| !g.nodes[i].inputs.is_empty()).collect();
        let v = victims[r.below(victims.len())];
        g.nodes.make_mut()[v].inputs[0] = NodeId(g.len() as u32 + 7);
        let report = analyze(&g, None);
        prop_assert!(report.has_code(Code::OrphanInput), "{}", report.render_text());
        prop_assert!(report.has_errors());
    }

    /// NNL002: shuffling the node vector of a sequential model breaks
    /// canonical topological order.
    #[test]
    fn shuffled_node_order_triggers_nnl002(seed in 0u64..64) {
        // VGG is a chain: every non-identity permutation breaks order.
        let mut g = ModelFamily::Vgg.canonical().unwrap();
        let mut r = Rng64::new(seed ^ 0xabcd);
        // Seeded Fisher-Yates, retried until the permutation moves something.
        let before = g.nodes.clone();
        loop {
            for i in (1..g.nodes.len()).rev() {
                g.nodes.make_mut().swap(i, r.below(i + 1));
            }
            if g.nodes != before {
                break;
            }
        }
        let report = analyze(&g, None);
        prop_assert!(report.has_code(Code::NonCanonicalOrder), "{}", report.render_text());
    }

    /// NNL003: adding a surplus input to a unary op.
    #[test]
    fn surplus_input_triggers_nnl003(seed in 0u64..64) {
        let mut g = family_graph(seed);
        let v = g
            .iter()
            .find(|(_, n)| n.op.arity().1 == 1 && !n.inputs.is_empty())
            .map(|(id, _)| id)
            .unwrap();
        let extra = g.nodes[v.index()].inputs[0];
        g.nodes.make_mut()[v.index()].inputs.push(extra);
        let report = analyze(&g, None);
        prop_assert!(report.has_code(Code::ArityMismatch), "{}", report.render_text());
    }

    /// NNL004: tampering with a stored output shape.
    #[test]
    fn tampered_shape_triggers_nnl004(seed in 0u64..64) {
        let mut g = family_graph(seed);
        let mut r = Rng64::new(seed);
        let v = r.below(g.len());
        g.nodes.make_mut()[v].out_shape = Shape::nchw(3, 5, 7, 11);
        let report = analyze(&g, None);
        prop_assert!(report.has_code(Code::ShapeMismatch), "{}", report.render_text());
    }

    /// NNL005: a zero dimension anywhere is degenerate.
    #[test]
    fn zero_dim_triggers_nnl005(seed in 0u64..64) {
        let mut g = family_graph(seed);
        let mut r = Rng64::new(seed);
        let v = r.below(g.len());
        g.nodes.make_mut()[v].out_shape = Shape::from_dims(&vec![0; g.nodes[v].out_shape.rank()]).unwrap();
        let report = analyze(&g, None);
        prop_assert!(report.has_code(Code::DegenerateShape), "{}", report.render_text());
    }
}

/// Small attributes, zeros included: a conv's, which every op reads.
fn random_attrs(r: &mut Rng64) -> Attrs {
    let (k, s, p) = (r.below(4) as u32, r.below(3) as u32, r.below(2) as u32);
    Attrs::conv(r.below(17) as u32, k, s, p, r.below(3) as u32)
}

/// A rank 1–4 shape with dimensions in `0..=8`.
fn random_shape(r: &mut Rng64) -> Shape {
    let dims: Vec<usize> = (0..r.range(1, MAX_RANK + 1)).map(|_| r.below(9)).collect();
    Shape::from_dims(&dims).unwrap()
}

/// An arbitrary vector of 0–8 nodes: ops from `ALL_OPS`, 0–3 inputs in
/// `[0, 2n)`, random attributes and shapes, a random input shape.
fn arbitrary_nodes(seed: u64) -> Graph {
    let mut r = Rng64::new(seed);
    let n = r.below(9);
    let nodes: Vec<Node> = (0..n)
        .map(|_| Node {
            op: *r.choice(&ALL_OPS),
            attrs: random_attrs(&mut r),
            inputs: (0..r.below(4))
                .map(|_| NodeId(r.below(2 * n) as u32))
                .collect::<Vec<_>>()
                .into(),
            out_shape: random_shape(&mut r),
        })
        .collect();
    let input_shape = random_shape(&mut r);
    Graph {
        name: format!("arbitrary-{seed}"),
        input_shape,
        nodes: nodes.into(),
    }
}

/// A valid graph grown through `GraphBuilder` from random ops on random
/// earlier nodes, then given one random mutation (or none).
fn mutated_builder_graph(seed: u64) -> Graph {
    let mut r = Rng64::new(seed);
    let input = Shape::nchw(1, r.range(1, 9), r.range(1, 17), r.range(1, 17));
    let mut b = GraphBuilder::new(format!("built-{seed}"), input);
    b.conv(None, 8, 3, 1, 1, 1).unwrap();
    for _ in 0..r.below(16) {
        let op = *r.choice(&ALL_OPS);
        let mut a = random_attrs(&mut r);
        (a.kernel, a.stride, a.groups) = ([a.kernel[0].max(1); 2], [a.stride[0].max(1); 2], 1);
        let last = NodeId(b.len() as u32 - 1);
        let width = match op.arity() {
            (0, _) => usize::from(!r.bernoulli(0.1)),
            (min, _) => min + r.below(2),
        };
        let inputs: Vec<NodeId> = (0..width)
            .map(|k| {
                if k == 0 || r.bernoulli(0.5) {
                    last
                } else {
                    NodeId(r.below(b.len()) as u32)
                }
            })
            .collect();
        let _ = b.push(op, a, &inputs); // the shapes may not admit it
    }
    let mut g = b.finish().unwrap();
    let (len, v) = (g.len(), r.below(g.len()));
    let nodes = g.nodes.make_mut();
    match r.below(8) {
        0 => {}
        1 => nodes[v].inputs = vec![NodeId((len + r.below(len)) as u32)].into(),
        2 => nodes[v].inputs = vec![NodeId(r.range(v, len) as u32)].into(),
        3 => nodes[v].inputs.push(NodeId(r.below(len) as u32)),
        4 => nodes[v].inputs = Vec::new().into(),
        5 => nodes[v].out_shape = random_shape(&mut r),
        6 => nodes[v].attrs.out_channels += 1,
        _ => nodes.swap(v, r.below(len)),
    }
    g
}

/// `validate` and the analyzer read one rulebook: `validate` errs exactly
/// when the report has an `NNL001`–`NNL004` error (on an empty vector,
/// exactly when it says "graph has no nodes"), the first such error is
/// anchored where `validate` stops, and no platform makes `analyze` panic.
fn rulebook_and_analyzer_agree(g: &Graph) -> Result<(), TestCaseError> {
    let report = analyze(g, None);
    // `ALL_CODES` runs in numbering order: its first four are NNL001–NNL004.
    let structural: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error && ALL_CODES[..4].contains(&d.code))
        .collect();
    let no_nodes = report
        .diagnostics
        .iter()
        .any(|d| d.code == Code::DegenerateShape && d.message == "graph has no nodes");
    prop_assert_eq!(no_nodes, g.nodes.is_empty());
    prop_assert_eq!(validate(g).is_err(), no_nodes || !structural.is_empty());
    if let ControlFlow::Break(first) = walk(g, ControlFlow::Break) {
        prop_assert_eq!(validate(g), Err(IrError::from(first.clone())));
        if first.rule != Rule::Empty {
            prop_assert_eq!(structural[0].anchor, Anchor::Node(first.node));
        }
    }
    for p in PlatformSpec::registry() {
        analyze(g, Some(&p));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Arbitrary node vectors: almost all invalid, one in nine empty.
    #[test]
    fn arbitrary_node_vectors_agree_with_validate(seed in 0u64..1 << 40) {
        rulebook_and_analyzer_agree(&arbitrary_nodes(seed))?;
    }

    /// Builder graphs with one mutation: about a third stay valid.
    #[test]
    fn mutated_builder_graphs_agree_with_validate(seed in 0u64..1 << 40) {
        rulebook_and_analyzer_agree(&mutated_builder_graph(seed))?;
    }
}

#[test]
fn dead_branch_triggers_nnl006() {
    // Graft a sigmoid onto an interior node; nothing consumes it, so it
    // never reaches the model output. A trailing relu keeps the original
    // classifier head as the last sink (= the model output).
    let mut g = ModelFamily::ResNet.canonical().unwrap();
    let mid = NodeId((g.len() / 2) as u32);
    let head = NodeId((g.len() - 1) as u32);
    let dead_id = g.len() as u32;
    let (mid_shape, head_shape) = (g.node(mid).out_shape, g.node(head).out_shape);
    g.nodes.make_mut().push(nnlqp_ir::Node {
        op: nnlqp_ir::OpType::Sigmoid,
        attrs: nnlqp_ir::Attrs::default(),
        inputs: vec![mid].into(),
        out_shape: mid_shape,
    });
    g.nodes.make_mut().push(nnlqp_ir::Node {
        op: nnlqp_ir::OpType::Relu,
        attrs: nnlqp_ir::Attrs::default(),
        inputs: vec![head].into(),
        out_shape: head_shape,
    });
    let report = analyze(&g, None);
    let dead = report.with_code(Code::DeadNode);
    assert_eq!(dead.len(), 1, "{}", report.render_text());
    assert_eq!(dead[0].anchor, nnlqp_analyze::Anchor::Node(dead_id));
    // A dead node is a warning, not an error: the graph still executes.
    assert!(!report.has_errors(), "{}", report.render_text());
}

#[test]
fn duplicate_branch_triggers_nnl007() {
    // Clone an interior unary node so two nodes compute the same value.
    // Appending keeps the node vector topologically ordered.
    let mut g = ModelFamily::ResNet.canonical().unwrap();
    let twin = g
        .iter()
        .find(|(_, n)| n.op.arity().1 == 1 && !n.inputs.is_empty())
        .map(|(_, n)| n.clone())
        .unwrap();
    g.nodes.make_mut().push(twin);
    let report = analyze(&g, None);
    assert!(
        report.has_code(Code::DuplicateSubgraph),
        "{}",
        report.render_text()
    );
}

#[test]
fn inverted_clip_triggers_nnl008() {
    let mut g = ModelFamily::MobileNetV2.canonical().unwrap();
    let clip = g
        .iter()
        .find(|(_, n)| n.op == nnlqp_ir::OpType::Clip)
        .map(|(id, _)| id)
        .unwrap();
    let a = &mut g.nodes.make_mut()[clip.index()].attrs;
    std::mem::swap(&mut a.clip_min, &mut a.clip_max);
    let report = analyze(&g, None);
    assert!(
        report.has_code(Code::SuspiciousAttrs),
        "{}",
        report.render_text()
    );
}

#[test]
fn u16_truncation_triggers_nnl009() {
    // out_channels wider than the u16 the binary format stores: the graph
    // is self-consistent (no NNL004) yet changes under a round trip.
    let mut b = nnlqp_ir::GraphBuilder::new("wide", Shape::nchw(1, 3, 8, 8));
    let c = b.conv(None, 65_536 + 16, 1, 1, 0, 1).unwrap();
    b.relu(c).unwrap();
    let g = b.finish().unwrap();
    let report = analyze(&g, None);
    assert!(
        report.has_code(Code::HashNotCanonical),
        "{}",
        report.render_text()
    );
    assert!(!report.has_code(Code::ShapeMismatch));
}
