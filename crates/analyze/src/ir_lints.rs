//! IR lints (`NNL001`–`NNL009`).
//!
//! The structural rules are written once, in [`nnlqp_ir::validate`]:
//! validation stops at the first violation, while [`check_structure`]
//! words every one its [`walk`] reports with a stable code. The other
//! lints layer on facts validation does not track. Reachability and value
//! numbers run only on a sound graph, whose node vector is a topological
//! order, so each whole-graph fact is one pass over it: dead-region
//! detection walks the nodes in reverse marking what the output reads,
//! duplicate-subgraph detection numbers the values in node order.
//! Whether the store can hold the graph (`NNL009`) is the codec's own
//! [`serialize::check_fits`], a field-width check that needs no edges.

use crate::diagnostic::{Anchor, Code, Diagnostic};
use nnlqp_hash::StreamHasher;
use nnlqp_ir::validate::{walk, Rule, Violation};
use nnlqp_ir::{serialize, Graph, OpType};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// Every IR lint over `g`, in report order, and whether its structure is
/// sound (no `NNL001`–`NNL004`): only a sound graph can be walked by
/// edge, fused or executed.
pub fn check_ir(g: &Graph) -> (Vec<Diagnostic>, bool) {
    let mut out = check_structure(g);
    let sound = !out.iter().any(|d| {
        matches!(
            d.code,
            Code::OrphanInput | Code::NonCanonicalOrder | Code::ArityMismatch | Code::ShapeMismatch
        )
    });
    out.extend(check_degenerate_shapes(g));
    if sound {
        out.extend(check_dead_nodes(g));
        out.extend(check_duplicate_subgraphs(g));
    }
    out.extend(check_cache_canonical(g));
    out.extend(check_suspicious_attrs(g));
    (out, sound)
}

/// `NNL001`–`NNL004`: orphan inputs, non-canonical order, arity and shape
/// violations, one diagnostic per [`Violation`] of the graph; an empty
/// graph is one `NNL005` error.
pub fn check_structure(g: &Graph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let _ = walk(g, |Violation { node, rule }| {
        let at = Anchor::Node(node);
        out.push(match rule {
            Rule::Empty => {
                Diagnostic::error(Code::DegenerateShape, Anchor::Graph, "graph has no nodes")
            }
            Rule::Orphan(input) => Diagnostic::new(
                Code::OrphanInput,
                at,
                format!(
                    "input n{input} does not exist (graph has {} nodes)",
                    g.len()
                ),
            ),
            Rule::NotEarlier(input) => Diagnostic::new(
                Code::NonCanonicalOrder,
                at,
                format!(
                    "input n{input} does not precede its consumer; the node vector is not a \
                     topological order, so the graph hash is not a canonical cache key"
                ),
            ),
            Rule::Arity { op, min, max, got } => Diagnostic::new(
                Code::ArityMismatch,
                at,
                format!("{} expects {min}..={max} inputs, got {got}", op.name()),
            ),
            Rule::Shape { stored, inferred } => Diagnostic::new(
                Code::ShapeMismatch,
                at,
                format!("stored shape {stored} but inference yields {inferred}"),
            ),
            Rule::Inference(e) => Diagnostic::new(
                Code::ShapeMismatch,
                at,
                format!("shape inference failed: {e}"),
            ),
        });
        ControlFlow::<()>::Continue(())
    });
    out
}

/// `NNL005`: zero-element tensors anywhere in the graph. These execute as
/// no-ops but corrupt FLOPs/memory accounting and latency records.
pub fn check_degenerate_shapes(g: &Graph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if g.input_shape.numel() == 0 {
        out.push(Diagnostic::new(
            Code::DegenerateShape,
            Anchor::Graph,
            format!("graph input shape {} has zero elements", g.input_shape),
        ));
    }
    for (i, n) in g.nodes.iter().enumerate() {
        if n.out_shape.numel() == 0 {
            out.push(Diagnostic::new(
                Code::DegenerateShape,
                Anchor::Node(i as u32),
                format!(
                    "{} output shape {} has zero elements",
                    n.op.name(),
                    n.out_shape
                ),
            ));
        }
    }
    out
}

/// `NNL006`: nodes of a sound graph whose value never reaches the model
/// output (the last sink, which is what [`Graph::output_shape`] reports
/// and what the simulator's makespan is measured against; in a
/// topological node vector it is the last node). Walking the nodes in
/// reverse sees every consumer before its inputs, so one pass marks all
/// the output reads. Dead nodes are then grouped into weakly connected
/// dead *regions*, so a whole orphaned branch reads as one region rather
/// than a scatter of unrelated nodes.
pub(crate) fn check_dead_nodes(g: &Graph) -> Vec<Diagnostic> {
    let Some(output) = g.len().checked_sub(1) else {
        return Vec::new();
    };
    let mut live = vec![false; g.len()];
    live[output] = true;
    for (i, n) in g.nodes.iter().enumerate().rev() {
        if live[i] {
            for inp in &n.inputs {
                live[inp.index()] = true;
            }
        }
    }
    // Union-find over edges whose endpoints are both dead: connected
    // components of the dead subgraph are the dead regions.
    let mut parent: Vec<usize> = (0..g.len()).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for (i, n) in g.nodes.iter().enumerate() {
        if live[i] {
            continue;
        }
        for inp in &n.inputs {
            if !live[inp.index()] {
                let (a, b) = (find(&mut parent, i), find(&mut parent, inp.index()));
                parent[a.max(b)] = a.min(b);
            }
        }
    }
    let mut region_size: HashMap<usize, usize> = HashMap::new();
    for i in (0..g.len()).filter(|&i| !live[i]) {
        *region_size.entry(find(&mut parent, i)).or_insert(0) += 1;
    }
    (0..g.len())
        .filter(|&i| !live[i])
        .map(|i| {
            let root = find(&mut parent, i);
            Diagnostic::new(
                Code::DeadNode,
                Anchor::Node(i as u32),
                format!(
                    "{} output never reaches the model output n{} \
                     (dead region of {} node(s) rooted at n{})",
                    g.nodes[i].op.name(),
                    output,
                    region_size[&root],
                    root
                ),
            )
        })
        .collect()
}

/// Sentinel value number for "reads the graph input".
const GRAPH_INPUT: u64 = 0x6e6e_6c71_7069_6e00;

/// Value number of every node of a sound graph, in node order: a hash of
/// op code, attributes and the input numbers in argument order (sorted
/// for commutative ops, so `add(a, b)` and `add(b, a)` match), or the
/// [`GRAPH_INPUT`] sentinel for a source. Every input precedes its
/// consumer, so its number is already known. Two nodes with equal value
/// numbers compute the same value from the same sources.
fn value_numbers(g: &Graph) -> Vec<u64> {
    let mut vn: Vec<u64> = Vec::with_capacity(g.len());
    let mut ins: Vec<u64> = Vec::new();
    for n in g.nodes.iter() {
        let mut h = StreamHasher::new();
        h.write_u64(n.op.code() as u64);
        for a in n.attrs.to_vec() {
            h.write_f32(a);
        }
        ins.clear();
        if n.inputs.is_empty() {
            ins.push(GRAPH_INPUT);
        } else {
            ins.extend(n.inputs.iter().map(|i| vn[i.index()]));
        }
        if matches!(n.op, OpType::Add | OpType::Mul) {
            ins.sort_unstable();
        }
        h.write_all(&ins);
        vn.push(h.finish());
    }
    vn
}

/// `NNL007`: duplicate subgraphs. A node whose value number collides with
/// an earlier node recomputes an identical subgraph — a common
/// subexpression elimination candidate (and a latency the database pays
/// twice for). Needs a sound graph.
pub(crate) fn check_duplicate_subgraphs(g: &Graph) -> Vec<Diagnostic> {
    let vn = value_numbers(g);
    let mut first: HashMap<u64, usize> = HashMap::new();
    let mut out = Vec::new();
    for (i, &h) in vn.iter().enumerate() {
        if let Some(&earlier) = first.get(&h) {
            out.push(Diagnostic::new(
                Code::DuplicateSubgraph,
                Anchor::Node(i as u32),
                format!(
                    "recomputes the same value as n{earlier} ({}); CSE candidate",
                    g.nodes[earlier].op.name()
                ),
            ));
        } else {
            first.insert(h, i);
        }
    }
    out
}

/// `NNL008`: attribute combinations that type-check but cannot mean what
/// the author intended.
pub fn check_suspicious_attrs(g: &Graph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, n) in g.nodes.iter().enumerate() {
        let id = i as u32;
        let a = &n.attrs;
        match n.op {
            OpType::Clip if a.clip_min > a.clip_max => out.push(Diagnostic::new(
                Code::SuspiciousAttrs,
                Anchor::Node(id),
                format!(
                    "clip_min {} > clip_max {}: output is constant",
                    a.clip_min, a.clip_max
                ),
            )),
            OpType::Conv | OpType::MaxPool | OpType::AveragePool => {
                if a.kernel[0] == 0 || a.kernel[1] == 0 {
                    out.push(Diagnostic::new(
                        Code::SuspiciousAttrs,
                        Anchor::Node(id),
                        format!("{} with zero kernel size {:?}", n.op.name(), a.kernel),
                    ));
                }
                if a.stride[0] == 0 || a.stride[1] == 0 {
                    out.push(Diagnostic::new(
                        Code::SuspiciousAttrs,
                        Anchor::Node(id),
                        format!("{} with zero stride {:?}", n.op.name(), a.stride),
                    ));
                }
                if n.op == OpType::Conv {
                    if a.groups == 0 {
                        out.push(Diagnostic::new(
                            Code::SuspiciousAttrs,
                            Anchor::Node(id),
                            "conv with zero groups",
                        ));
                    } else if a.out_channels % a.groups != 0 {
                        out.push(Diagnostic::new(
                            Code::SuspiciousAttrs,
                            Anchor::Node(id),
                            format!(
                                "groups {} does not divide out_channels {}",
                                a.groups, a.out_channels
                            ),
                        ));
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// `NNL009`: the store refuses a graph with a field too wide for its
/// record ([`serialize::check_fits`]), since a truncated copy would come
/// back out of `nnlqp-db` as another graph under another key.
pub(crate) fn check_cache_canonical(g: &Graph) -> Vec<Diagnostic> {
    let Err(e) = serialize::check_fits(g) else {
        return Vec::new();
    };
    let msg = format!("the store cannot hold this graph: {e}");
    vec![Diagnostic::new(Code::HashNotCanonical, Anchor::Graph, msg)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_ir::{GraphBuilder, NodeId, Shape};

    fn chain() -> Graph {
        let mut b = GraphBuilder::new("chain", Shape::nchw(1, 3, 16, 16));
        let c = b.conv(None, 8, 3, 1, 1, 1).unwrap();
        let r = b.relu(c).unwrap();
        let p = b.global_avgpool(r).unwrap();
        let f = b.flatten(p).unwrap();
        b.gemm(f, 10).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn clean_chain_has_no_findings() {
        let g = chain();
        assert!(check_structure(&g).is_empty());
        assert!(check_degenerate_shapes(&g).is_empty());
        assert!(check_dead_nodes(&g).is_empty());
        assert!(check_duplicate_subgraphs(&g).is_empty());
        assert!(check_suspicious_attrs(&g).is_empty());
        assert!(check_cache_canonical(&g).is_empty());
    }

    #[test]
    fn orphan_input_is_nnl001() {
        let mut g = chain();
        g.nodes.make_mut()[1].inputs = vec![NodeId(99)].into();
        let out = check_structure(&g);
        assert!(out.iter().any(|d| d.code == Code::OrphanInput));
    }

    #[test]
    fn forward_edge_is_nnl002() {
        let mut g = chain();
        g.nodes.make_mut()[0].inputs = vec![NodeId(1)].into();
        let out = check_structure(&g);
        assert!(out.iter().any(|d| d.code == Code::NonCanonicalOrder));
    }

    #[test]
    fn extra_input_is_nnl003() {
        let mut g = chain();
        g.nodes.make_mut()[1].inputs = vec![NodeId(0), NodeId(0)].into();
        let out = check_structure(&g);
        assert!(out.iter().any(|d| d.code == Code::ArityMismatch));
    }

    #[test]
    fn tampered_shape_is_nnl004() {
        let mut g = chain();
        g.nodes.make_mut()[1].out_shape = Shape::nchw(1, 99, 16, 16);
        let out = check_structure(&g);
        assert!(out.iter().any(|d| d.code == Code::ShapeMismatch));
    }

    #[test]
    fn reports_every_violation_not_just_first() {
        let mut g = chain();
        g.nodes.make_mut()[1].inputs = vec![NodeId(99)].into();
        g.nodes.make_mut()[2].inputs = vec![NodeId(50)].into();
        let out = check_structure(&g);
        assert_eq!(
            out.iter().filter(|d| d.code == Code::OrphanInput).count(),
            2
        );

        // One of each rule (NNL001–NNL004), pinned in walk order: per
        // node its inputs (orphan, then not-earlier), then arity; shape
        // only on a node whose inputs and arity are sound.
        let mut g = chain();
        let nodes = g.nodes.make_mut();
        nodes[1].inputs = vec![NodeId(99), NodeId(3)].into(); // orphan, not earlier, 2 > 1
        nodes[3].out_shape = Shape::nchw(1, 99, 1, 1); // tampered
        nodes[4].inputs = vec![NodeId(4)].into(); // self loop
        let found: Vec<_> = check_structure(&g)
            .iter()
            .map(|d| (d.code, d.anchor))
            .collect();
        assert_eq!(
            found,
            vec![
                (Code::OrphanInput, Anchor::Node(1)),
                (Code::NonCanonicalOrder, Anchor::Node(1)),
                (Code::ArityMismatch, Anchor::Node(1)),
                (Code::ShapeMismatch, Anchor::Node(3)),
                (Code::NonCanonicalOrder, Anchor::Node(4)),
            ]
        );
    }

    #[test]
    fn dead_branch_is_nnl006() {
        // A second sink that never reaches the model output.
        let mut b = GraphBuilder::new("dead", Shape::nchw(1, 3, 16, 16));
        let c = b.conv(None, 8, 3, 1, 1, 1).unwrap();
        b.sigmoid(c).unwrap(); // dead: nothing consumes it, not the output
        let r = b.relu(c).unwrap();
        let p = b.global_avgpool(r).unwrap();
        let f = b.flatten(p).unwrap();
        b.gemm(f, 10).unwrap();
        let g = b.finish().unwrap();
        let out = check_dead_nodes(&g);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, Code::DeadNode);
        assert_eq!(out[0].anchor, Anchor::Node(1));
    }

    #[test]
    fn duplicate_branches_are_nnl007() {
        let mut b = GraphBuilder::new("dup", Shape::nchw(1, 8, 8, 8));
        let stem = b.conv(None, 8, 1, 1, 0, 1).unwrap();
        let x = b.conv(Some(stem), 8, 3, 1, 1, 1).unwrap();
        let y = b.conv(Some(stem), 8, 3, 1, 1, 1).unwrap(); // identical twin
        b.add(x, y).unwrap();
        let g = b.finish().unwrap();
        let out = check_duplicate_subgraphs(&g);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].anchor, Anchor::Node(y.0));
    }

    #[test]
    fn commutative_inputs_value_number_equal() {
        // add(x, y) and add(y, x) are the same value.
        let mut b = GraphBuilder::new("comm", Shape::nchw(1, 8, 8, 8));
        let stem = b.conv(None, 8, 1, 1, 0, 1).unwrap();
        let x = b.conv(Some(stem), 8, 3, 1, 1, 1).unwrap();
        let y = b.conv(Some(stem), 8, 5, 1, 2, 1).unwrap();
        let a1 = b.add(x, y).unwrap();
        let a2 = b.add(y, x).unwrap();
        b.mul(a1, a2).unwrap();
        let g = b.finish().unwrap();
        let out = check_duplicate_subgraphs(&g);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].anchor, Anchor::Node(a2.0));
    }

    #[test]
    fn bad_clip_range_is_nnl008() {
        let mut b = GraphBuilder::new("clip", Shape::nchw(1, 8, 8, 8));
        let c = b.conv(None, 8, 3, 1, 1, 1).unwrap();
        b.relu6(c).unwrap();
        let mut g = b.finish().unwrap();
        g.nodes.make_mut()[1].attrs.clip_min = 9.0;
        let out = check_suspicious_attrs(&g);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, Code::SuspiciousAttrs);
    }

    #[test]
    fn group_mismatch_is_nnl008() {
        let mut g = chain();
        g.nodes.make_mut()[0].attrs.groups = 3; // 3 does not divide 8
        let out = check_suspicious_attrs(&g);
        assert!(out.iter().any(|d| d.code == Code::SuspiciousAttrs));
    }

    #[test]
    fn truncating_serialization_is_nnl009() {
        // The binary format stores out_channels as u16: a conv with
        // 65536 + 8 output channels is internally consistent (no NNL004)
        // but round-trips to out_channels = 8, so the decoded graph is a
        // different cache key.
        let mut b = GraphBuilder::new("wide", Shape::nchw(1, 3, 8, 8));
        let c = b.conv(None, 65_544, 3, 1, 1, 1).unwrap();
        b.relu(c).unwrap();
        let g = b.finish().unwrap();
        assert!(check_structure(&g).is_empty());
        let out = check_cache_canonical(&g);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, Code::HashNotCanonical);
    }

    #[test]
    fn degenerate_node_is_detected() {
        let mut g = chain();
        g.nodes.make_mut()[1].out_shape = Shape::nchw(1, 0, 16, 16);
        let out = check_degenerate_shapes(&g);
        assert!(out.iter().any(|d| d.code == Code::DegenerateShape));
    }

    #[test]
    fn full_pass_on_builder_output_is_clean() {
        assert_eq!(check_ir(&chain()), (Vec::new(), true));
    }

    #[test]
    fn attrs_defaults_do_not_trip_nnl008() {
        // Non-conv ops carry kernel [0, 0] in their default attrs; only
        // conv/pool ops may be flagged for it.
        let mut b = GraphBuilder::new("d", Shape::nchw(1, 4, 8, 8));
        let c = b.conv(None, 4, 1, 1, 0, 1).unwrap();
        b.relu(c).unwrap();
        let g = b.finish().unwrap();
        assert!(check_suspicious_attrs(&g).is_empty());
    }
}
