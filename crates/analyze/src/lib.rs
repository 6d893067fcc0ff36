//! # nnlqp-analyze
//!
//! Static analysis for NNLQP graphs, fusion plans and execution schedules.
//!
//! NNLQP's premise is that query results are trustworthy ground truth for
//! the evolving database and the GNN predictor. A silently malformed graph,
//! an illegal fusion, or a scheduler hazard poisons both the cache (keyed
//! by graph hash) and the training set. This crate is the guard: one fixed
//! pipeline, [`analyze`], producing [`Diagnostic`]s with stable `NNLxxx`
//! codes, rendered as text or JSON.
//!
//! Whole-graph facts (reachability, value numbers, tensor lifetimes) are
//! read only off graphs the structural lints found sound, whose node
//! vector is a topological order; each is one pass over that vector, in
//! reverse or in node order. The pipeline runs five checks, in this
//! order:
//!
//! * **IR lints** ([`ir_lints`], `NNL0xx`) over [`nnlqp_ir::Graph`]:
//!   the structural rules of [`nnlqp_ir::validate`] worded as diagnostics
//!   (orphan inputs, non-canonical node order — a graph-hash cache-miss
//!   source — arity and shape violations), then degenerate shapes, dead
//!   regions (what the output reads, marked in reverse node order),
//!   duplicate subgraphs (CSE candidates, by value numbers computed in
//!   node order), suspicious attributes, and database cache-key
//!   canonicalization (serialize round trip preserves the graph hash).
//! * **Memory feasibility** ([`memory`], `NNL3xx` low range): each
//!   tensor is resident from its definition through its last consumer,
//!   so a running sum in node order gives the peak activation
//!   footprint; adding weights, the graph either fits the platform's
//!   memory capacity (`NNL301` error when it cannot, `NNL302` warning
//!   near the high watermark) or is rejected before any measurement.
//! * **Fusion legality** ([`fusion_checks`], `NNL1xx`): the kernels from
//!   [`nnlqp_sim::fusion::fuse`] must partition the node set, their
//!   dependency graph must be acyclic, and every kernel must be convex.
//! * **Cost sanity** ([`cost_sanity`], `NNL3xx` high range): every
//!   scheduled kernel interval must land inside the static roofline
//!   window derived from [`nnlqp_ir::cost`] (`NNL303` impossibly fast,
//!   `NNL304` implausibly slow).
//! * **Schedule hazards** ([`schedule_checks`], `NNL2xx`) over
//!   [`nnlqp_sim::exec::ExecutionTrace`]: happens-before, no same-stream
//!   overlap, reported latency equals the makespan, deterministic
//!   re-execution.
//!
//! ```
//! use nnlqp_analyze::analyze;
//! use nnlqp_models::ModelFamily;
//! use nnlqp_sim::platform::PlatformSpec;
//!
//! let g = ModelFamily::SqueezeNet.canonical().unwrap();
//! let p = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
//! let report = analyze(&g, Some(&p));
//! assert!(!report.has_errors());
//! ```

pub mod cost_sanity;
pub mod diagnostic;
pub mod fusion_checks;
pub mod ir_lints;
pub mod memory;
pub mod schedule_checks;

pub use diagnostic::{
    Anchor, Code, Diagnostic, Report, Severity, ALL_CODES, REPORT_SCHEMA_VERSION,
};

use nnlqp_ir::Graph;
use nnlqp_sim::platform::PlatformSpec;
use nnlqp_sim::{exec, fusion};

/// Run the five checks over `g` and collect a [`Report`]: IR lints,
/// memory feasibility, fusion legality, cost sanity, schedule hazards.
///
/// The last four walk the graph's edges, fuse or execute it, so they are
/// skipped (and recorded as skipped) when the IR lints find a structural
/// error (`NNL001`–`NNL004`); the three that need a platform are skipped
/// without one. The graph is fused once and executed twice: cost sanity
/// reads the first trace, `NNL204` compares it with the second.
pub fn analyze(g: &Graph, platform: Option<&PlatformSpec>) -> Report {
    let mut report = Report {
        graph_name: g.name.clone(),
        ..Report::default()
    };
    let (lints, sound) = ir_lints::check_ir(g);
    record(&mut report, "ir-lints", Some(lints));
    let on_platform = platform.filter(|_| sound);
    let kernels = if sound { fusion::fuse(g) } else { Vec::new() };
    let traced = on_platform.map(|p| (p, exec::execute(g, p)));
    let memory =
        on_platform.map(|p| memory::check_memory_feasibility(g, p.dtype, p.mem_capacity_bytes));
    record(&mut report, "memory-feasibility", memory);
    let legality = sound.then(|| fusion_checks::verify_kernels(g, &kernels));
    record(&mut report, "fusion-legality", legality);
    let costs = traced
        .as_ref()
        .map(|(p, trace)| cost_sanity::verify_kernel_costs(g, &kernels, trace, p));
    record(&mut report, "cost-sanity", costs);
    let hazards = traced.map(|(p, first)| {
        let deps = fusion::kernel_deps(g, &kernels);
        let second = exec::execute(g, p);
        let mut out = schedule_checks::verify_trace(&first, &deps, p.streams);
        out.extend(schedule_checks::compare_traces(&first, &second));
        out
    });
    record(&mut report, "schedule-hazards", hazards);
    report
}

/// Append one check's findings under its pass name, or note it skipped.
fn record(report: &mut Report, pass: &'static str, findings: Option<Vec<Diagnostic>>) {
    match findings {
        Some(found) => {
            report.passes_run.push(pass);
            report.diagnostics.extend(found);
        }
        None => report.passes_skipped.push(pass),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_ir::{GraphBuilder, NodeId, Shape};

    fn small() -> Graph {
        let mut b = GraphBuilder::new("small", Shape::nchw(1, 3, 8, 8));
        let c = b.conv(None, 8, 3, 1, 1, 1).unwrap();
        b.relu(c).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn clean_graph_runs_all_passes() {
        let p = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
        let r = analyze(&small(), Some(&p));
        assert!(r.is_clean(), "{}", r.render_text());
        assert_eq!(r.passes_run.len(), 5);
        assert!(r.passes_skipped.is_empty());
    }

    #[test]
    fn no_platform_skips_platform_passes() {
        let r = analyze(&small(), None);
        assert!(r.is_clean());
        assert_eq!(r.passes_run.len(), 2);
        assert_eq!(
            r.passes_skipped,
            vec!["memory-feasibility", "cost-sanity", "schedule-hazards"]
        );
    }

    #[test]
    fn structural_error_gates_downstream_passes() {
        let mut g = small();
        g.nodes.make_mut()[1].inputs = vec![NodeId(77)].into(); // orphan input
        let p = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
        let r = analyze(&g, Some(&p));
        assert!(r.has_code(Code::OrphanInput));
        assert_eq!(r.passes_run, vec!["ir-lints"]);
        assert_eq!(
            r.passes_skipped,
            vec![
                "memory-feasibility",
                "fusion-legality",
                "cost-sanity",
                "schedule-hazards"
            ]
        );
    }
}
