//! The shared diagnostic vocabulary: stable codes, severities, anchors and
//! human/JSON rendering.
//!
//! Every pass in this crate reports through [`Diagnostic`]. Codes are
//! stable API: tools (and the seeded-mutation property tests) match on them,
//! so a code is never renumbered or reused once released.

use nnlqp_ir::json::escape_into;
use std::fmt;

/// How bad a finding is.
///
/// `Error` findings make a graph untrustworthy as ground truth: a strict
/// query refuses to measure it and `nnlqp lint` exits non-zero. `Warn`
/// findings are almost certainly mistakes but do not corrupt results.
/// `Lint` findings are optimization opportunities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Correctness violation; rejects the graph in strict mode.
    Error,
    /// Suspicious construct; reported but not fatal.
    Warn,
    /// Improvement opportunity (e.g. a CSE candidate).
    Lint,
}

impl Severity {
    /// Lowercase display name.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Lint => "lint",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Stable diagnostic codes.
///
/// Numbering scheme: `NNL0xx` are IR lints, `NNL3xx` are platform
/// resource findings (memory feasibility). `NNL101`–`NNL103`,
/// `NNL201`–`NNL205`, `NNL303` and `NNL304` checked the simulator's own
/// fusion, schedule and costs; they are retired and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// NNL001 — a node references an input id that is not a node.
    OrphanInput,
    /// NNL002 — the node vector is not in (canonical) topological order;
    /// consumers must follow their producers or graph-hash canonicalization
    /// and every downstream pass break.
    NonCanonicalOrder,
    /// NNL003 — input arity does not match the operator.
    ArityMismatch,
    /// NNL004 — stored output shape disagrees with re-run shape inference.
    ShapeMismatch,
    /// NNL005 — a tensor shape has zero elements.
    DegenerateShape,
    /// NNL006 — dead node: its value never reaches the model output.
    DeadNode,
    /// NNL007 — duplicate subgraph: the node recomputes a value an earlier
    /// node already produces (common-subexpression-elimination candidate).
    DuplicateSubgraph,
    /// NNL008 — suspicious attribute combination for the operator.
    SuspiciousAttrs,
    /// NNL009 — a field is too wide for the store's binary record
    /// (`nnlqp_ir::serialize::check_fits`): the store refuses the graph,
    /// since a truncated copy would come back under a different hash.
    HashNotCanonical,
    /// NNL301 — the graph's static peak memory footprint (live
    /// activations + weights, from tensor lifetimes) exceeds the
    /// platform's memory capacity; it can never run there.
    MemoryInfeasible,
    /// NNL302 — the footprint fits but leaves less headroom than the
    /// high watermark allows; the runtime's own allocations may tip it.
    MemoryHighWater,
}

/// All codes, in numbering order (for documentation and exhaustive tests).
pub const ALL_CODES: [Code; 11] = [
    Code::OrphanInput,
    Code::NonCanonicalOrder,
    Code::ArityMismatch,
    Code::ShapeMismatch,
    Code::DegenerateShape,
    Code::DeadNode,
    Code::DuplicateSubgraph,
    Code::SuspiciousAttrs,
    Code::HashNotCanonical,
    Code::MemoryInfeasible,
    Code::MemoryHighWater,
];

impl Code {
    /// The stable `NNLxxx` identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::OrphanInput => "NNL001",
            Code::NonCanonicalOrder => "NNL002",
            Code::ArityMismatch => "NNL003",
            Code::ShapeMismatch => "NNL004",
            Code::DegenerateShape => "NNL005",
            Code::DeadNode => "NNL006",
            Code::DuplicateSubgraph => "NNL007",
            Code::SuspiciousAttrs => "NNL008",
            Code::HashNotCanonical => "NNL009",
            Code::MemoryInfeasible => "NNL301",
            Code::MemoryHighWater => "NNL302",
        }
    }

    /// Default severity of findings with this code.
    pub fn severity(self) -> Severity {
        match self {
            Code::OrphanInput
            | Code::NonCanonicalOrder
            | Code::ArityMismatch
            | Code::ShapeMismatch
            | Code::HashNotCanonical
            | Code::MemoryInfeasible => Severity::Error,
            Code::DegenerateShape
            | Code::DeadNode
            | Code::SuspiciousAttrs
            | Code::MemoryHighWater => Severity::Warn,
            Code::DuplicateSubgraph => Severity::Lint,
        }
    }

    /// One-line description used in documentation and `nnlqp lint --help`.
    pub fn title(self) -> &'static str {
        match self {
            Code::OrphanInput => "input id does not name a node",
            Code::NonCanonicalOrder => "node vector is not topologically ordered",
            Code::ArityMismatch => "input arity does not match the operator",
            Code::ShapeMismatch => "stored shape disagrees with shape inference",
            Code::DegenerateShape => "tensor shape has zero elements",
            Code::DeadNode => "node output never reaches the model output",
            Code::DuplicateSubgraph => "duplicate subgraph (CSE candidate)",
            Code::SuspiciousAttrs => "suspicious operator attributes",
            Code::HashNotCanonical => "graph hash not stable across serialization",
            Code::MemoryInfeasible => "peak memory footprint exceeds platform capacity",
            Code::MemoryHighWater => "peak memory footprint near platform capacity",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a diagnostic points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Anchor {
    /// The graph as a whole.
    Graph,
    /// A node, by id.
    Node(u32),
}

impl fmt::Display for Anchor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Anchor::Graph => write!(f, "graph"),
            Anchor::Node(n) => write!(f, "n{n}"),
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (defaults to `code.severity()`, occasionally escalated).
    pub severity: Severity,
    /// What the finding points at.
    pub anchor: Anchor,
    /// Human-readable detail.
    pub message: String,
}

impl Diagnostic {
    /// A finding at the code's default severity.
    pub fn new(code: Code, anchor: Anchor, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            anchor,
            message: message.into(),
        }
    }

    /// A finding escalated to `Error` regardless of the code's default.
    pub fn error(code: Code, anchor: Anchor, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            anchor,
            message: message.into(),
        }
    }

    /// `error[NNL001] n3: message` style single-line rendering.
    pub fn render(&self) -> String {
        format!(
            "{}[{}] {}: {}",
            self.severity, self.code, self.anchor, self.message
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Version of the JSON report layout emitted by [`Report::render_json`].
/// Bumped on any field addition, removal or reordering so downstream
/// tooling can gate on it. History: 1 = initial layout (implicit, not
/// emitted); 2 = added `schema_version` itself and the `NNL3xx` codes.
pub const REPORT_SCHEMA_VERSION: u32 = 2;

/// The result of running [`crate::analyze`] over one graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Name of the analyzed graph.
    pub graph_name: String,
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// Passes that ran, in order.
    pub passes_run: Vec<&'static str>,
    /// Passes skipped, because a structural error left nothing sound to
    /// read or because they need a platform and none was given.
    pub passes_skipped: Vec<&'static str>,
}

impl Report {
    /// True when any finding is `Severity::Error`.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// True when nothing at all was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Findings at a given severity.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// All findings with a given code.
    pub fn with_code(&self, code: Code) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// True if at least one finding carries `code`.
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// `2 errors, 1 warning, 0 lints` style one-liner.
    pub fn summary(&self) -> String {
        format!(
            "{} error(s), {} warning(s), {} lint(s)",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Lint)
        )
    }

    /// Multi-line human-readable rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}: {}\n", self.graph_name, self.summary()));
        for d in &self.diagnostics {
            out.push_str("  ");
            out.push_str(&d.render());
            out.push('\n');
        }
        if !self.passes_skipped.is_empty() {
            out.push_str(&format!(
                "  note: skipped passes: {}\n",
                self.passes_skipped.join(", ")
            ));
        }
        out
    }

    /// Machine-readable JSON rendering, written by hand because a JSON
    /// value sorts its keys and this layout leads with `schema_version`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"schema_version\":{REPORT_SCHEMA_VERSION},"));
        out.push_str("\"graph\":");
        escape_into(&self.graph_name, &mut out);
        out.push(',');
        out.push_str(&format!(
            "\"errors\":{},\"warnings\":{},\"lints\":{},",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Lint)
        ));
        out.push_str("\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"anchor\":\"{}\",\"message\":",
                d.code, d.severity, d.anchor
            ));
            escape_into(&d.message, &mut out);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        // Retired: they checked the simulator, which now checks itself in
        // tests. A retired code is never given a new meaning.
        let mut seen: std::collections::HashSet<&str> = [
            "NNL101", "NNL102", "NNL103", "NNL201", "NNL202", "NNL203", "NNL204", "NNL205",
            "NNL303", "NNL304",
        ]
        .into();
        for c in ALL_CODES {
            assert!(seen.insert(c.as_str()), "duplicate or retired code {c}");
            assert!(c.as_str().starts_with("NNL"));
            assert_eq!(c.as_str().len(), 6);
        }
    }

    /// Position of every `Code` variant in `ALL_CODES`. The match is
    /// exhaustive, so adding a variant without registering it here — and
    /// therefore in the registry itself — fails to compile.
    fn registry_index(c: Code) -> usize {
        match c {
            Code::OrphanInput => 0,
            Code::NonCanonicalOrder => 1,
            Code::ArityMismatch => 2,
            Code::ShapeMismatch => 3,
            Code::DegenerateShape => 4,
            Code::DeadNode => 5,
            Code::DuplicateSubgraph => 6,
            Code::SuspiciousAttrs => 7,
            Code::HashNotCanonical => 8,
            Code::MemoryInfeasible => 9,
            Code::MemoryHighWater => 10,
        }
    }

    #[test]
    fn registry_is_exhaustive_sorted_and_described() {
        // Every variant appears exactly once, at its expected position.
        for (i, c) in ALL_CODES.iter().enumerate() {
            assert_eq!(registry_index(*c), i, "{c} registered out of place");
        }
        // Codes are sorted ascending (numbering order == lexical order).
        for w in ALL_CODES.windows(2) {
            assert!(
                w[0].as_str() < w[1].as_str(),
                "{} must precede {}",
                w[0],
                w[1]
            );
        }
        // Every code carries a non-empty description.
        for c in ALL_CODES {
            assert!(!c.title().is_empty(), "{c} has no description");
        }
    }

    #[test]
    fn rendering_shapes() {
        let d = Diagnostic::new(Code::DeadNode, Anchor::Node(3), "unused");
        assert_eq!(d.render(), "warn[NNL006] n3: unused");
        let e = Diagnostic::error(Code::DegenerateShape, Anchor::Graph, "empty");
        assert_eq!(e.severity, Severity::Error);
    }

    #[test]
    fn report_counts_and_json() {
        let mut r = Report {
            graph_name: "g\"x".into(),
            ..Default::default()
        };
        r.diagnostics
            .push(Diagnostic::new(Code::OrphanInput, Anchor::Node(0), "bad"));
        r.diagnostics.push(Diagnostic::new(
            Code::DuplicateSubgraph,
            Anchor::Node(1),
            "dup",
        ));
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Lint), 1);
        let j = r.render_json();
        assert!(j.contains("\"errors\":1"));
        assert!(j.contains("NNL007"));
        assert!(j.contains("g\\\"x"));
    }
}
