//! Schedule hazard checking (`NNL201`–`NNL205`).
//!
//! The multi-stream list scheduler in [`nnlqp_sim::exec::execute`] feeds
//! latencies straight into the evolving database, so its traces must be
//! internally consistent: every kernel starts after its producers finish
//! (`NNL201`), no two kernels overlap on one stream (`NNL202`), the
//! reported latency is the makespan (`NNL203`), re-running the same graph
//! yields a bit-identical schedule (`NNL204`), and no kernel lands on a
//! stream the platform does not have (`NNL205`).
//!
//! As in [`crate::fusion_checks`], the verifiers take the trace and
//! dependency lists as parameters so seeded-mutation tests can feed them
//! hazardous schedules the real scheduler never emits;
//! [`crate::analyze`] hands them two `execute()` runs.

use crate::diagnostic::{Anchor, Code, Diagnostic};
use nnlqp_sim::exec::ExecutionTrace;
use nnlqp_sim::fusion::KernelDeps;

/// Tolerance for floating-point schedule arithmetic (milliseconds).
pub const EPS_MS: f64 = 1e-9;

/// Verify one trace against the kernel dependency lists and the platform's
/// stream count. Covers `NNL201`, `NNL202`, `NNL203` and `NNL205`.
pub fn verify_trace(trace: &ExecutionTrace, deps: &KernelDeps, streams: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if trace.kernels.len() != deps.len() {
        out.push(Diagnostic::new(
            Code::HazardHappensBefore,
            Anchor::Graph,
            format!(
                "trace schedules {} kernels but the dependency graph has {}",
                trace.kernels.len(),
                deps.len()
            ),
        ));
        return out;
    }

    // NNL201: happens-before — no kernel starts before all producers finish.
    for (i, d) in deps.iter().enumerate() {
        let k = &trace.kernels[i];
        if k.finish_ms + EPS_MS < k.start_ms {
            out.push(Diagnostic::new(
                Code::HazardHappensBefore,
                Anchor::Kernel(i),
                format!(
                    "kernel finishes at {} before it starts at {}",
                    k.finish_ms, k.start_ms
                ),
            ));
        }
        for &producer in d {
            if trace.kernels[producer].finish_ms > k.start_ms + EPS_MS {
                out.push(Diagnostic::new(
                    Code::HazardHappensBefore,
                    Anchor::Kernel(i),
                    format!(
                        "starts at {} ms before producer kernel {} finishes at {} ms",
                        k.start_ms, producer, trace.kernels[producer].finish_ms
                    ),
                ));
            }
        }
    }

    // NNL202: kernels sharing a stream must not overlap in time.
    // NNL205: streams must exist on the platform.
    let mut by_stream: Vec<Vec<usize>> = Vec::new();
    for (i, k) in trace.kernels.iter().enumerate() {
        if k.stream >= streams.max(1) {
            out.push(Diagnostic::new(
                Code::StreamOutOfRange,
                Anchor::Kernel(i),
                format!(
                    "scheduled on stream {} but the platform has {}",
                    k.stream, streams
                ),
            ));
        }
        if k.stream >= by_stream.len() {
            by_stream.resize(k.stream + 1, Vec::new());
        }
        by_stream[k.stream].push(i);
    }
    for (s, members) in by_stream.iter().enumerate() {
        let mut sorted = members.clone();
        sorted.sort_by(|&a, &b| {
            trace.kernels[a]
                .start_ms
                .partial_cmp(&trace.kernels[b].start_ms)
                .expect("finite schedule times")
        });
        for w in sorted.windows(2) {
            let (a, b) = (&trace.kernels[w[0]], &trace.kernels[w[1]]);
            if a.finish_ms > b.start_ms + EPS_MS {
                out.push(Diagnostic::new(
                    Code::HazardStreamOverlap,
                    Anchor::Stream(s),
                    format!(
                        "kernels {} and {} overlap: [{}, {}] vs [{}, {}]",
                        w[0], w[1], a.start_ms, a.finish_ms, b.start_ms, b.finish_ms
                    ),
                ));
            }
        }
    }

    // NNL203: the reported latency is the makespan.
    let makespan = trace
        .kernels
        .iter()
        .map(|k| k.finish_ms)
        .fold(0.0f64, f64::max);
    if (trace.latency_ms - makespan).abs() > EPS_MS * makespan.max(1.0) {
        out.push(Diagnostic::new(
            Code::LatencyMismatch,
            Anchor::Graph,
            format!(
                "trace reports {} ms but the max finish time is {} ms",
                trace.latency_ms, makespan
            ),
        ));
    }
    out
}

/// `NNL204`: two executions of the same graph on the same platform must be
/// bit-identical — a nondeterministic scheduler poisons the evolving
/// database with irreproducible ground truth. Times are compared on their
/// bit patterns, not within a tolerance.
pub fn compare_traces(a: &ExecutionTrace, b: &ExecutionTrace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if a.kernels.len() != b.kernels.len() {
        out.push(Diagnostic::new(
            Code::NonDeterministic,
            Anchor::Graph,
            format!(
                "re-execution scheduled {} kernels instead of {}",
                b.kernels.len(),
                a.kernels.len()
            ),
        ));
        return out;
    }
    if a.latency_ms.to_bits() != b.latency_ms.to_bits() {
        out.push(Diagnostic::new(
            Code::NonDeterministic,
            Anchor::Graph,
            format!(
                "re-execution latency {} ms differs from {} ms",
                b.latency_ms, a.latency_ms
            ),
        ));
    }
    for (i, (ka, kb)) in a.kernels.iter().zip(&b.kernels).enumerate() {
        if ka.stream != kb.stream
            || ka.start_ms.to_bits() != kb.start_ms.to_bits()
            || ka.finish_ms.to_bits() != kb.finish_ms.to_bits()
        {
            out.push(Diagnostic::new(
                Code::NonDeterministic,
                Anchor::Kernel(i),
                format!(
                    "re-execution moved the kernel: stream {} [{}, {}] vs stream {} [{}, {}]",
                    ka.stream, ka.start_ms, ka.finish_ms, kb.stream, kb.start_ms, kb.finish_ms
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_ir::Graph;
    use nnlqp_sim::platform::PlatformSpec;
    use nnlqp_sim::{exec, fusion};

    fn t4() -> PlatformSpec {
        PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap()
    }

    fn traced() -> (Graph, ExecutionTrace, KernelDeps, PlatformSpec) {
        let p = t4();
        let g = nnlqp_models::ModelFamily::GoogleNet.canonical().unwrap();
        let kernels = fusion::fuse(&g);
        let deps = fusion::kernel_deps(&g, &kernels);
        let trace = exec::execute(&g, &p);
        (g, trace, deps, p)
    }

    #[test]
    fn real_trace_is_hazard_free() {
        let (_, trace, deps, p) = traced();
        assert!(verify_trace(&trace, &deps, p.streams).is_empty());
    }

    #[test]
    fn real_execution_is_deterministic() {
        let (g, trace, _, p) = traced();
        let again = exec::execute(&g, &p);
        assert!(compare_traces(&trace, &again).is_empty());
    }

    #[test]
    fn early_start_is_nnl201() {
        let (_, mut trace, deps, p) = traced();
        // Find a kernel with a producer and pull its start before the
        // producer's finish.
        let victim = deps.iter().position(|d| !d.is_empty()).unwrap();
        trace.kernels[victim].start_ms = -1.0;
        let out = verify_trace(&trace, &deps, p.streams);
        assert!(
            out.iter().any(|d| d.code == Code::HazardHappensBefore),
            "{out:?}"
        );
    }

    #[test]
    fn stream_overlap_is_nnl202() {
        let (_, mut trace, deps, p) = traced();
        // Force every kernel onto stream 0 while keeping the original
        // overlapping times from the multi-stream schedule.
        let parallel = trace.kernels.iter().any(|k| k.stream != 0);
        assert!(parallel, "GoogleNet should use more than one stream");
        for k in &mut trace.kernels {
            k.stream = 0;
        }
        let out = verify_trace(&trace, &deps, p.streams);
        assert!(
            out.iter().any(|d| d.code == Code::HazardStreamOverlap),
            "{out:?}"
        );
    }

    #[test]
    fn tampered_latency_is_nnl203() {
        let (_, mut trace, deps, p) = traced();
        trace.latency_ms *= 0.5;
        let out = verify_trace(&trace, &deps, p.streams);
        assert!(
            out.iter().any(|d| d.code == Code::LatencyMismatch),
            "{out:?}"
        );
    }

    #[test]
    fn differing_traces_are_nnl204() {
        let (_, trace, _, _) = traced();
        let mut other = trace.clone();
        other.kernels[0].finish_ms += 1e-6;
        let out = compare_traces(&trace, &other);
        assert!(out.iter().any(|d| d.code == Code::NonDeterministic));
        // Even a sub-EPS change is nondeterminism: comparison is bitwise.
        let mut tiny = trace.clone();
        tiny.kernels[0].start_ms = f64::from_bits(tiny.kernels[0].start_ms.to_bits() ^ 1);
        assert!(!compare_traces(&trace, &tiny).is_empty());
    }

    #[test]
    fn ghost_stream_is_nnl205() {
        let (_, mut trace, deps, p) = traced();
        trace.kernels[0].stream = 99;
        let out = verify_trace(&trace, &deps, p.streams);
        assert!(
            out.iter().any(|d| d.code == Code::StreamOutOfRange),
            "{out:?}"
        );
    }

    #[test]
    fn kernel_count_mismatch_is_reported() {
        let (_, mut trace, deps, p) = traced();
        trace.kernels.pop();
        let out = verify_trace(&trace, &deps, p.streams);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, Code::HazardHappensBefore);
    }
}
