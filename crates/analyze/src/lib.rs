//! # nnlqp-analyze
//!
//! Multi-pass static analysis for NNLQP graphs, fusion plans and execution
//! schedules.
//!
//! NNLQP's premise is that query results are trustworthy ground truth for
//! the evolving database and the GNN predictor. A silently malformed graph,
//! an illegal fusion, or a scheduler hazard poisons both the cache (keyed
//! by graph hash) and the training set. This crate is the guard: a pass
//! framework producing [`Diagnostic`]s with stable `NNLxxx` codes, rendered
//! as text or JSON.
//!
//! Whole-graph facts (reachability, liveness, value numbers) come from a
//! shared fixed-point engine ([`dataflow`]): analyses declare a lattice
//! and a transfer function, the engine sweeps the topological node order
//! to convergence. Five pass families sit on top:
//!
//! * **IR dataflow lints** ([`ir_lints`], `NNL0xx`) over [`nnlqp_ir::Graph`]:
//!   orphan inputs, non-canonical node order (a graph-hash cache-miss
//!   source), arity/shape violations, degenerate shapes, dead regions
//!   (backward reachability), duplicate subgraphs (CSE candidates, via
//!   forward value numbering), suspicious attributes, and database
//!   cache-key canonicalization (serialize round trip preserves the graph
//!   hash).
//! * **Memory feasibility** ([`memory`], `NNL3xx` low range): backward
//!   tensor liveness over the execution order gives the peak activation
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
//! use nnlqp_analyze::Analyzer;
//! use nnlqp_models::ModelFamily;
//! use nnlqp_sim::platform::PlatformSpec;
//!
//! let g = ModelFamily::SqueezeNet.canonical().unwrap();
//! let p = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
//! let report = Analyzer::full().analyze(&g, Some(&p));
//! assert!(!report.has_errors());
//! ```

pub mod cost_sanity;
pub mod dataflow;
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

/// Everything a pass may look at.
pub struct AnalysisContext<'a> {
    /// The graph under analysis.
    pub graph: &'a Graph,
    /// Target platform, when known. Passes that need one (the schedule
    /// checker) are skipped without it.
    pub platform: Option<&'a PlatformSpec>,
}

/// One analysis pass.
pub trait Pass {
    /// Stable pass name (shown in reports).
    fn name(&self) -> &'static str;
    /// True when the pass walks structures derived from the graph
    /// (fusion, schedules) and therefore requires a structurally sound IR.
    /// Such passes are skipped once a structural error is on record.
    fn needs_sound_ir(&self) -> bool {
        false
    }
    /// True when the pass needs a platform in the context.
    fn needs_platform(&self) -> bool {
        false
    }
    /// Run the pass, returning its findings.
    fn run(&self, ctx: &AnalysisContext<'_>) -> Vec<Diagnostic>;
}

/// True for codes that make the graph unsafe to even feed into fusion or
/// the simulator (out-of-range ids, broken topology, bad arity/shapes).
pub fn is_structural(code: Code) -> bool {
    matches!(
        code,
        Code::OrphanInput | Code::NonCanonicalOrder | Code::ArityMismatch | Code::ShapeMismatch
    )
}

/// A configured pipeline of passes.
pub struct Analyzer {
    passes: Vec<Box<dyn Pass>>,
}

impl Analyzer {
    /// The full pipeline: IR lints, memory feasibility, fusion legality,
    /// cost sanity, schedule hazards.
    pub fn full() -> Self {
        Analyzer {
            passes: vec![
                Box::new(ir_lints::IrLintPass),
                Box::new(memory::MemoryFeasibilityPass),
                Box::new(fusion_checks::FusionLegalityPass),
                Box::new(cost_sanity::CostSanityPass),
                Box::new(schedule_checks::ScheduleHazardPass),
            ],
        }
    }

    /// IR lints only (no simulator involvement).
    pub fn ir_only() -> Self {
        Analyzer {
            passes: vec![Box::new(ir_lints::IrLintPass)],
        }
    }

    /// A custom pipeline.
    pub fn with_passes(passes: Vec<Box<dyn Pass>>) -> Self {
        Analyzer { passes }
    }

    /// Run every applicable pass over `g` and collect a [`Report`].
    ///
    /// Passes that require a sound IR are skipped (and recorded as skipped)
    /// as soon as any structural error is found, so downstream passes never
    /// index out of range on a malformed graph.
    pub fn analyze(&self, g: &Graph, platform: Option<&PlatformSpec>) -> Report {
        let ctx = AnalysisContext { graph: g, platform };
        let mut report = Report {
            graph_name: g.name.clone(),
            ..Report::default()
        };
        for pass in &self.passes {
            let structurally_broken = report
                .diagnostics
                .iter()
                .any(|d| d.severity == Severity::Error && is_structural(d.code));
            if (pass.needs_sound_ir() && structurally_broken)
                || (pass.needs_platform() && ctx.platform.is_none())
            {
                report.passes_skipped.push(pass.name());
                continue;
            }
            report.passes_run.push(pass.name());
            report.diagnostics.extend(pass.run(&ctx));
        }
        report
    }
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer::full()
    }
}

/// Convenience: run the full pipeline (IR + fusion; memory, cost and
/// schedule checks too when a platform is given).
pub fn analyze(g: &Graph, platform: Option<&PlatformSpec>) -> Report {
    Analyzer::full().analyze(g, platform)
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
        let r = Analyzer::full().analyze(&small(), Some(&p));
        assert!(r.is_clean(), "{}", r.render_text());
        assert_eq!(r.passes_run.len(), 5);
        assert!(r.passes_skipped.is_empty());
    }

    #[test]
    fn no_platform_skips_platform_passes() {
        let r = Analyzer::full().analyze(&small(), None);
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
        let r = Analyzer::full().analyze(&g, Some(&p));
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
