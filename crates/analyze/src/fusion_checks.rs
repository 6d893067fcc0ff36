//! Fusion-legality verification (`NNL101`–`NNL103`).
//!
//! [`nnlqp_sim::fusion::fuse`] must produce a legal kernel plan: the
//! kernels partition the node set (`NNL101`), the kernel dependency graph
//! is acyclic (`NNL102`), and every kernel is convex (`NNL103`) — no data
//! path may leave a kernel and re-enter it, because then no launch order
//! exists in which the kernel runs as one unit.
//!
//! The check functions take the kernel list as a parameter (rather than
//! calling `fuse` themselves) so that seeded-mutation tests can hand them
//! deliberately illegal plans; [`crate::analyze`] hands them the real
//! fusion output.

use crate::diagnostic::{Anchor, Code, Diagnostic};
use nnlqp_ir::Graph;
use nnlqp_sim::fusion::{self, Kernel, KernelDeps};

/// Run every fusion check against an arbitrary kernel plan. Dependency and
/// convexity checks only run on a full partition — `kernel_deps` is
/// undefined over uncovered nodes.
pub fn verify_kernels(g: &Graph, kernels: &[Kernel]) -> Vec<Diagnostic> {
    let mut out = verify_partition(g, kernels);
    if out.is_empty() {
        let deps = fusion::kernel_deps(g, kernels);
        out.extend(verify_deps_acyclic(&deps));
        out.extend(verify_convexity(g, kernels));
    }
    out
}

/// `NNL101`: every graph node must belong to exactly one kernel, and every
/// kernel member must be a real node.
pub fn verify_partition(g: &Graph, kernels: &[Kernel]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut coverage = vec![0usize; g.len()];
    for (ki, k) in kernels.iter().enumerate() {
        if k.nodes.is_empty() {
            out.push(Diagnostic::new(
                Code::KernelCoverage,
                Anchor::Kernel(ki),
                format!("{} kernel has no member nodes", k.family),
            ));
        }
        for &n in &k.nodes {
            if n.index() >= g.len() {
                out.push(Diagnostic::new(
                    Code::KernelCoverage,
                    Anchor::Kernel(ki),
                    format!(
                        "member n{} does not exist (graph has {} nodes)",
                        n.0,
                        g.len()
                    ),
                ));
            } else {
                coverage[n.index()] += 1;
            }
        }
    }
    for (i, &c) in coverage.iter().enumerate() {
        match c {
            1 => {}
            0 => out.push(Diagnostic::new(
                Code::KernelCoverage,
                Anchor::Node(i as u32),
                format!("{} is not covered by any kernel", g.nodes[i].op.name()),
            )),
            n => out.push(Diagnostic::new(
                Code::KernelCoverage,
                Anchor::Node(i as u32),
                format!("{} is covered by {n} kernels", g.nodes[i].op.name()),
            )),
        }
    }
    out
}

/// `NNL102`: the kernel dependency graph must be acyclic, or no launch
/// order exists. `deps[i]` lists kernels that must finish before `i`.
pub fn verify_deps_acyclic(deps: &KernelDeps) -> Vec<Diagnostic> {
    // Kahn's algorithm; whatever survives with nonzero in-degree is on (or
    // downstream of) a cycle.
    let n = deps.len();
    let mut indegree = vec![0usize; n];
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, d) in deps.iter().enumerate() {
        indegree[i] = d.len();
        for &p in d {
            consumers[p].push(i);
        }
    }
    let mut ready: Vec<usize> = indegree
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| i)
        .collect();
    let mut done = 0usize;
    while let Some(i) = ready.pop() {
        done += 1;
        for &c in &consumers[i] {
            indegree[c] -= 1;
            if indegree[c] == 0 {
                ready.push(c);
            }
        }
    }
    if done == n {
        return Vec::new();
    }
    indegree
        .iter()
        .enumerate()
        .filter(|(_, &d)| d > 0)
        .map(|(i, _)| {
            Diagnostic::new(
                Code::KernelCycle,
                Anchor::Kernel(i),
                "kernel is part of (or blocked by) a dependency cycle; no launch order exists",
            )
        })
        .collect()
}

/// `NNL103`: every kernel's node set must be convex — if a path leaves the
/// kernel through an outside node and comes back, the outside node both
/// needs the kernel's partial results and must finish before the kernel
/// does, which is impossible for a single launch.
pub fn verify_convexity(g: &Graph, kernels: &[Kernel]) -> Vec<Diagnostic> {
    let succ = g.successors();
    let mut out = Vec::new();
    let mut member = vec![false; g.len()];
    for (ki, k) in kernels.iter().enumerate() {
        if k.nodes.len() < 2 {
            continue; // singletons are trivially convex
        }
        for &n in &k.nodes {
            member[n.index()] = true;
        }
        // From every outside successor of a member, walk forward; reaching
        // another member means a path exits and re-enters the kernel.
        let mut visited = vec![false; g.len()];
        let mut stack: Vec<usize> = Vec::new();
        for &m in &k.nodes {
            for &s in &succ[m.index()] {
                if !member[s.index()] && !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push(s.index());
                }
            }
        }
        let mut breached = false;
        while let Some(v) = stack.pop() {
            if breached {
                break;
            }
            for &s in &succ[v] {
                if member[s.index()] {
                    out.push(Diagnostic::new(
                        Code::KernelNotConvex,
                        Anchor::Kernel(ki),
                        format!(
                            "{} kernel is not convex: a data path leaves it through n{} and \
                             re-enters at n{}",
                            k.family, v, s.0
                        ),
                    ));
                    breached = true;
                    break;
                }
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push(s.index());
                }
            }
        }
        for &n in &k.nodes {
            member[n.index()] = false;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_ir::{GraphBuilder, NodeId, Shape};
    use nnlqp_sim::fusion::KernelFamily;

    /// conv -> relu -> conv chain.
    fn chain() -> Graph {
        let mut b = GraphBuilder::new("chain", Shape::nchw(1, 8, 8, 8));
        let c1 = b.conv(None, 8, 3, 1, 1, 1).unwrap();
        let r = b.relu(c1).unwrap();
        b.conv(Some(r), 8, 3, 1, 1, 1).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn real_fusion_is_legal() {
        let g = chain();
        assert!(verify_kernels(&g, &fusion::fuse(&g)).is_empty());
    }

    #[test]
    fn uncovered_node_is_nnl101() {
        let g = chain();
        let mut ks = fusion::fuse(&g);
        let dropped = ks.pop().unwrap();
        let out = verify_partition(&g, &ks);
        assert!(
            out.iter().any(|d| d.code == Code::KernelCoverage),
            "{out:?}"
        );
        ks.push(dropped);
        ks.push(ks[0].clone()); // now double-covered
        let out = verify_partition(&g, &ks);
        assert!(out.iter().any(|d| d.message.contains("covered by 2")));
    }

    #[test]
    fn phantom_member_is_nnl101() {
        let g = chain();
        let ks = vec![Kernel {
            family: KernelFamily::Conv,
            nodes: vec![NodeId(42)].into(),
        }];
        let out = verify_partition(&g, &ks);
        assert!(out.iter().any(|d| d.message.contains("does not exist")));
    }

    #[test]
    fn illegal_grouping_is_cyclic_and_non_convex() {
        // Grouping {conv1, conv2} with relu outside: the relu needs conv1
        // (inside) and feeds conv2 (inside) — a cycle between the two
        // kernels, and a non-convex kernel 0.
        let g = chain();
        let ks = vec![
            Kernel {
                family: KernelFamily::Conv,
                nodes: vec![NodeId(0), NodeId(2)].into(),
            },
            Kernel {
                family: KernelFamily::Relu,
                nodes: vec![NodeId(1)].into(),
            },
        ];
        let out = verify_kernels(&g, &ks);
        assert!(out.iter().any(|d| d.code == Code::KernelCycle), "{out:?}");
        assert!(
            out.iter().any(|d| d.code == Code::KernelNotConvex),
            "{out:?}"
        );
        let nc = out
            .iter()
            .find(|d| d.code == Code::KernelNotConvex)
            .unwrap();
        assert_eq!(nc.anchor, Anchor::Kernel(0));
    }

    #[test]
    fn direct_cycle_in_deps_detected() {
        let deps: KernelDeps = [vec![1], vec![0], vec![]].into_iter().collect();
        let out = verify_deps_acyclic(&deps);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.code == Code::KernelCycle));
    }

    #[test]
    fn corpus_fusion_is_legal_everywhere() {
        for f in nnlqp_models::family::CORPUS_FAMILIES {
            let g = f.canonical().unwrap();
            let out = verify_kernels(&g, &fusion::fuse(&g));
            assert!(out.is_empty(), "{f}: {out:?}");
        }
    }
}
