//! Cost sanity (`NNL303`, `NNL304`): static roofline bounds on simulated
//! kernel latencies.
//!
//! The static FLOPs/bytes accounting in [`nnlqp_ir::cost`] and the
//! simulator's scheduled kernel times are independent derivations from the
//! same graph, so each kernel's scheduled interval must land inside a
//! physics window:
//!
//! * **floor** — no kernel beats `max(flops / peak, output_bytes / bw)`:
//!   utilization cannot exceed 1.0 and output bytes are always written at
//!   DRAM bandwidth. A faster interval means the simulator (or a tampered
//!   trace headed for the evolving database) is claiming impossible
//!   throughput, which poisons ground truth — an error.
//! * **ceiling** — the cost model's utilization is clamped at 0.005 and
//!   reads are at worst cold, so `launch + flops / (peak * 0.005) +
//!   all_bytes / bw`, doubled for slack, bounds any plausible interval.
//!   Slower is suspicious (a stalled or mis-accounted schedule) — a
//!   warning.
//!
//! As in [`crate::schedule_checks`], the verifier takes the trace as a
//! parameter so seeded-mutation tests can feed it tampered schedules;
//! [`crate::analyze`] hands it the pipeline's one `execute()` trace.

use crate::diagnostic::{Anchor, Code, Diagnostic};
use crate::schedule_checks::EPS_MS;
use nnlqp_ir::{cost, DType, Graph};
use nnlqp_sim::exec::ExecutionTrace;
use nnlqp_sim::fusion::Kernel;
use nnlqp_sim::platform::PlatformSpec;

/// The cost model's utilization clamp floor (see
/// `nnlqp_sim::kernel_cost::utilization`); the ceiling assumes no kernel
/// runs below it.
pub const MIN_UTILIZATION: f64 = 0.005;

/// Multiplier on the summed worst-case ceiling, absorbing scheduling
/// residue (a kernel's interval also covers unpipelined launch slack).
const CEILING_SLACK: f64 = 2.0;

/// Static per-kernel bounds, derived from the IR only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelBounds {
    /// Fastest physically possible interval (ms).
    pub floor_ms: f64,
    /// Slowest plausible interval (ms).
    pub ceiling_ms: f64,
}

/// Roofline window for one kernel from the IR's static cost accounting.
pub fn kernel_bounds(g: &Graph, k: &Kernel, dt: DType, p: &PlatformSpec) -> KernelBounds {
    let mut flops = 0.0f64;
    let mut read_bytes = 0.0f64;
    for &id in &k.nodes {
        let c = cost::node_cost(g, id, dt);
        flops += c.flops;
        // Over-counts fused intermediates vs. the kernel's true external
        // traffic; harmless, it only widens the ceiling.
        read_bytes += c.read_bytes;
    }
    let write_bytes = g
        .node(*k.nodes.last().expect("kernel has nodes"))
        .out_shape
        .bytes(dt) as f64;
    let peak = p.peak_gflops * 1.0e9;
    let bw = p.mem_bw_gbps * 1.0e9;
    let floor_ms = (flops / peak).max(write_bytes / bw) * 1.0e3;
    let ceiling_ms = CEILING_SLACK
        * (p.launch_us * 1.0e-3
            + flops / (peak * MIN_UTILIZATION) * 1.0e3
            + (read_bytes + write_bytes) / bw * 1.0e3)
        + 1.0e-3;
    KernelBounds {
        floor_ms,
        ceiling_ms,
    }
}

/// Check every scheduled kernel interval against its static roofline
/// window. Covers `NNL303` (implausibly fast) and `NNL304` (implausibly
/// slow).
pub fn verify_kernel_costs(
    g: &Graph,
    kernels: &[Kernel],
    trace: &ExecutionTrace,
    p: &PlatformSpec,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if trace.kernels.len() != kernels.len() {
        out.push(Diagnostic::new(
            Code::CostUnderRoofline,
            Anchor::Graph,
            format!(
                "trace schedules {} kernels but fusion produced {}",
                trace.kernels.len(),
                kernels.len()
            ),
        ));
        return out;
    }
    for (i, (k, sched)) in kernels.iter().zip(&trace.kernels).enumerate() {
        let bounds = kernel_bounds(g, k, p.dtype, p);
        let span_ms = sched.finish_ms - sched.start_ms;
        if span_ms + EPS_MS < bounds.floor_ms * (1.0 - 1.0e-6) {
            out.push(Diagnostic::new(
                Code::CostUnderRoofline,
                Anchor::Kernel(i),
                format!(
                    "{} interval {:.6} ms beats the roofline floor {:.6} ms \
                     (peak {} GFLOP/s, bw {} GB/s cannot go faster)",
                    k.family, span_ms, bounds.floor_ms, p.peak_gflops, p.mem_bw_gbps
                ),
            ));
        } else if span_ms > bounds.ceiling_ms {
            out.push(Diagnostic::new(
                Code::CostOverRoofline,
                Anchor::Kernel(i),
                format!(
                    "{} interval {:.6} ms exceeds the worst-case ceiling {:.6} ms \
                     even at minimum utilization",
                    k.family, span_ms, bounds.ceiling_ms
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_models::ModelFamily;
    use nnlqp_sim::{exec, fusion};

    fn t4() -> PlatformSpec {
        PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap()
    }

    fn traced() -> (Graph, Vec<Kernel>, ExecutionTrace, PlatformSpec) {
        let p = t4();
        let g = ModelFamily::ResNet.canonical().unwrap();
        let kernels = fusion::fuse(&g);
        let trace = exec::execute(&g, &p);
        (g, kernels, trace, p)
    }

    #[test]
    fn real_traces_sit_inside_the_window_on_every_platform() {
        for f in nnlqp_models::family::CORPUS_FAMILIES {
            let g = f.canonical().unwrap();
            let kernels = fusion::fuse(&g);
            for p in PlatformSpec::table2_platforms() {
                let trace = exec::execute(&g, &p);
                let out = verify_kernel_costs(&g, &kernels, &trace, &p);
                assert!(out.is_empty(), "{f} on {}: {out:?}", p.name);
            }
        }
    }

    #[test]
    fn bounds_are_ordered_and_positive() {
        let (g, kernels, _, p) = traced();
        for k in &kernels {
            let b = kernel_bounds(&g, k, p.dtype, &p);
            assert!(b.floor_ms >= 0.0);
            assert!(b.ceiling_ms > b.floor_ms);
        }
    }

    #[test]
    fn impossibly_fast_kernel_is_nnl303() {
        let (g, kernels, mut trace, p) = traced();
        // Pick the biggest kernel so the floor is comfortably nonzero and
        // squash its interval to a tenth of it.
        let fat = (0..kernels.len())
            .max_by(|&a, &b| {
                let fa = kernel_bounds(&g, &kernels[a], p.dtype, &p).floor_ms;
                let fb = kernel_bounds(&g, &kernels[b], p.dtype, &p).floor_ms;
                fa.partial_cmp(&fb).unwrap()
            })
            .unwrap();
        let floor = kernel_bounds(&g, &kernels[fat], p.dtype, &p).floor_ms;
        trace.kernels[fat].finish_ms = trace.kernels[fat].start_ms + floor * 0.1;
        let out = verify_kernel_costs(&g, &kernels, &trace, &p);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, Code::CostUnderRoofline);
        assert_eq!(out[0].anchor, Anchor::Kernel(fat));
        assert_eq!(out[0].severity, crate::Severity::Error);
    }

    #[test]
    fn stalled_kernel_is_nnl304() {
        let (g, kernels, mut trace, p) = traced();
        let ceiling = kernel_bounds(&g, &kernels[0], p.dtype, &p).ceiling_ms;
        trace.kernels[0].finish_ms = trace.kernels[0].start_ms + ceiling * 10.0;
        let out = verify_kernel_costs(&g, &kernels, &trace, &p);
        assert!(
            out.iter()
                .any(|d| d.code == Code::CostOverRoofline && d.anchor == Anchor::Kernel(0)),
            "{out:?}"
        );
        assert!(!out.iter().any(|d| d.severity == crate::Severity::Error));
    }

    #[test]
    fn kernel_count_mismatch_is_reported_once() {
        let (g, kernels, mut trace, p) = traced();
        trace.kernels.pop();
        let out = verify_kernel_costs(&g, &kernels, &trace, &p);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].anchor, Anchor::Graph);
    }

    #[test]
    fn pass_is_clean_on_a_real_model() {
        let p = t4();
        let g = ModelFamily::MobileNetV2.canonical().unwrap();
        let trace = exec::execute(&g, &p);
        assert!(verify_kernel_costs(&g, &fusion::fuse(&g), &trace, &p).is_empty());
    }
}
