//! # nnlqp-analyze
//!
//! Static analysis of a user's NNLQP graph before any device sees it.
//!
//! NNLQP's premise is that query results are trustworthy ground truth for
//! the evolving database and the GNN predictor. A silently malformed
//! graph poisons both the cache (keyed by graph hash) and the training
//! set, and a graph that cannot fit the target device can never produce
//! a measurement. This crate is the guard: one fixed pipeline,
//! [`analyze`], producing [`Diagnostic`]s with stable `NNLxxx` codes,
//! rendered as text or JSON.
//!
//! Whole-graph facts (reachability, value numbers, tensor lifetimes) are
//! read only off graphs the structural lints found sound, whose node
//! vector is a topological order; each is one pass over that vector, in
//! reverse or in node order. The pipeline runs two checks, in this
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
//! * **Memory feasibility** ([`memory`], `NNL301`/`NNL302`): each
//!   tensor is resident from its definition through its last consumer,
//!   so a running sum in node order gives the peak activation
//!   footprint; adding weights, the graph either fits the platform's
//!   memory capacity (`NNL301` error when it cannot, `NNL302` warning
//!   near the high watermark) or is rejected before any measurement.
//!
//! The analyzer fuses and executes nothing. The simulator is the ground
//! truth, so the invariants of its fusion, schedule and costs are
//! property tests of the simulator (`tests/cross_crate_properties.rs`),
//! not checks on the request path.
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

pub mod diagnostic;
pub mod ir_lints;
pub mod memory;

pub use diagnostic::{
    Anchor, Code, Diagnostic, Report, Severity, ALL_CODES, REPORT_SCHEMA_VERSION,
};

use nnlqp_ir::Graph;
use nnlqp_sim::platform::PlatformSpec;

/// Run the two checks over `g` and collect a [`Report`]: IR lints, then
/// memory feasibility.
///
/// Memory feasibility walks the graph's edges and needs a platform, so it
/// is skipped (and recorded as skipped) when the IR lints find a
/// structural error (`NNL001`–`NNL004`) or no platform is given.
pub fn analyze(g: &Graph, platform: Option<&PlatformSpec>) -> Report {
    let mut report = Report {
        graph_name: g.name.clone(),
        ..Report::default()
    };
    let (lints, sound) = ir_lints::check_ir(g);
    record(&mut report, "ir-lints", Some(lints));
    let memory = platform
        .filter(|_| sound)
        .map(|p| memory::check_memory_feasibility(g, p.dtype, p.mem_capacity_bytes));
    record(&mut report, "memory-feasibility", memory);
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
        assert_eq!(r.passes_run, vec!["ir-lints", "memory-feasibility"]);
        assert!(r.passes_skipped.is_empty());
    }

    #[test]
    fn no_platform_skips_platform_passes() {
        let r = analyze(&small(), None);
        assert!(r.is_clean());
        assert_eq!(r.passes_run, vec!["ir-lints"]);
        assert_eq!(r.passes_skipped, vec!["memory-feasibility"]);
    }

    /// A clean report skips a pass for want of a platform, not after
    /// errors, and its note says no more than that.
    #[test]
    fn a_clean_report_without_a_platform_claims_no_errors() {
        let text = analyze(&small(), None).render_text();
        assert!(text.contains("0 error(s)"), "{text}");
        assert!(
            text.contains("note: skipped passes: memory-feasibility"),
            "{text}"
        );
        assert!(!text.contains("after errors"), "{text}");
    }

    #[test]
    fn structural_error_gates_downstream_passes() {
        let mut g = small();
        g.nodes.make_mut()[1].inputs = vec![NodeId(77)].into(); // orphan input
        let p = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
        let r = analyze(&g, Some(&p));
        assert!(r.has_code(Code::OrphanInput));
        assert_eq!(r.passes_run, vec!["ir-lints"]);
        assert_eq!(r.passes_skipped, vec!["memory-feasibility"]);
    }
}
