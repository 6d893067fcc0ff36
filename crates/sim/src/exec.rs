//! Whole-model execution: multi-stream list scheduling of the kernel DAG.
//!
//! Inside a model, kernels are cheaper than in isolation for three
//! mechanistic reasons (§3.2 of the paper):
//!
//! 1. **launch pipelining** — back-to-back enqueues hide most of the
//!    dispatch overhead behind the previous kernel's execution;
//! 2. **cache reuse** — a consumer reads its producer's output from cache,
//!    not DRAM;
//! 3. **stream parallelism** — independent branches (inception modules,
//!    squeeze-excite gates) overlap on multi-stream hardware.
//!
//! The resulting makespan is the model latency; summing the isolated
//! kernel latencies instead over-estimates it by a family-dependent factor,
//! reproducing Fig. 2.

use crate::fusion::{self, Kernel, KernelDesc};
use crate::kernel_cost;
use crate::platform::PlatformSpec;
use nnlqp_ir::Graph;
use nnlqp_obs::{Recorder, Span, Track};

/// Per-kernel scheduling record, for inspection and tests.
#[derive(Debug, Clone)]
pub struct ScheduledKernel {
    /// Kernel description.
    pub desc: KernelDesc,
    /// Stream the kernel executed on.
    pub stream: usize,
    /// Start time (ms since model start).
    pub start_ms: f64,
    /// Finish time (ms).
    pub finish_ms: f64,
    /// Launch-phase share of the interval: dispatch overhead actually
    /// paid (after pipelining hid what it could).
    pub launch_ms: f64,
    /// Compute-side roofline time of the execution phase.
    pub compute_ms: f64,
    /// Memory-IO-side roofline time of the execution phase (the phase
    /// itself lasts `max(compute_ms, memory_ms)`).
    pub memory_ms: f64,
}

/// Full execution trace of one model on one platform.
#[derive(Debug, Clone)]
pub struct ExecutionTrace {
    /// Scheduled kernels, indexed like [`fusion::fuse`]'s kernel list.
    pub kernels: Vec<ScheduledKernel>,
    /// Model latency: the makespan.
    pub latency_ms: f64,
}

impl ExecutionTrace {
    /// Fraction of the makespan each stream spent busy. Values near 1.0
    /// on stream 0 with low other-stream utilization indicate a mostly
    /// sequential model; branchy models spread the load.
    pub fn stream_utilization(&self, streams: usize) -> Vec<f64> {
        let mut busy = vec![0.0f64; streams.max(1)];
        for k in &self.kernels {
            if k.stream < busy.len() {
                busy[k.stream] += k.finish_ms - k.start_ms;
            }
        }
        busy.iter()
            .map(|b| {
                if self.latency_ms > 0.0 {
                    b / self.latency_ms
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Total busy time summed over kernels (ms).
    pub fn total_busy_ms(&self) -> f64 {
        self.kernels.iter().map(|k| k.finish_ms - k.start_ms).sum()
    }
}

/// The scheduler: fuse `g`, list-schedule the kernel DAG onto `p`'s streams
/// and return the makespan. `sink` receives each kernel's index (in
/// [`fusion::fuse`] order) and its record as it is issued; a sink that
/// ignores them compiles away, which is what makes a bare latency cheap.
fn schedule(g: &Graph, p: &PlatformSpec, mut sink: impl FnMut(usize, ScheduledKernel)) -> f64 {
    let kernels: Vec<Kernel> = fusion::fuse(g);
    let deps = fusion::kernel_deps(g, &kernels);

    let mut stream_free = vec![0.0f64; p.streams.max(1)];
    // Execution time of the kernel that last ran on each stream: a launch
    // can only hide behind it if it was long enough.
    let mut stream_last_exec = vec![0.0f64; p.streams.max(1)];
    let mut finish = vec![0.0f64; kernels.len()];

    // Fusion can produce a kernel whose skip-branch producer was created
    // later; schedule in kernel-DAG topological order.
    for i in fusion::topo_order(&deps) {
        // Ready when all producers are done.
        let ready = deps[i].iter().map(|&d| finish[d]).fold(0.0f64, f64::max);
        // Pick the stream that lets us start earliest; among ties prefer
        // the stream with the *latest* free time (smallest idle gap) —
        // real runtimes keep a dependent chain on its producer's stream,
        // which is what makes back-to-back launch pipelining possible.
        let (stream, free) = stream_free
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| {
                let start_a = ready.max(a.1);
                let start_b = ready.max(b.1);
                start_a
                    .partial_cmp(&start_b)
                    .expect("finite times")
                    .then(b.1.partial_cmp(&a.1).expect("finite times"))
            })
            .expect("at least one stream");
        let start = ready.max(free);

        // Launch cost: if the stream is busy right up to our start, the
        // enqueue was pipelined behind the previous kernel — but a launch
        // can only hide behind as much execution as actually preceded it,
        // so chains of tiny kernels keep paying their dispatch overhead
        // (the dominant cost of narrow-group architectures).
        let pipelined = start <= free + f64::EPSILON && free > 0.0;
        let full_launch = p.launch_us * 1.0e-3;
        let launch_ms = if pipelined {
            let coverage = (stream_last_exec[stream] / full_launch).min(1.0);
            full_launch * (1.0 - p.launch_pipelining * coverage)
        } else {
            full_launch
        };

        // Cache reuse: inputs coming from producer kernels are warm. The
        // fraction of read bytes that are producer outputs (vs weights or
        // the graph input) is approximated by the external-input share.
        let cached_frac = if deps[i].is_empty() {
            0.0
        } else {
            p.cache_overlap
        };
        let desc: KernelDesc = fusion::describe(g, &kernels[i], p.dtype);
        let compute = kernel_cost::compute_ms(&desc, p);
        let memory = kernel_cost::memory_ms(&desc, p, cached_frac);
        let exec = compute.max(memory);

        let end = start + launch_ms + exec;
        stream_free[stream] = end;
        stream_last_exec[stream] = exec;
        finish[i] = end;
        sink(
            i,
            ScheduledKernel {
                desc,
                stream,
                start_ms: start,
                finish_ms: end,
                launch_ms,
                compute_ms: compute,
                memory_ms: memory,
            },
        );
    }

    finish.iter().copied().fold(0.0f64, f64::max)
}

/// Execute a graph on a platform and return the full trace.
pub fn execute(g: &Graph, p: &PlatformSpec) -> ExecutionTrace {
    let mut issued: Vec<(usize, ScheduledKernel)> = Vec::new();
    let latency_ms = schedule(g, p, |i, k| issued.push((i, k)));
    issued.sort_unstable_by_key(|&(i, _)| i);
    ExecutionTrace {
        kernels: issued.into_iter().map(|(_, k)| k).collect(),
        latency_ms,
    }
}

/// Track group used for kernel spans (`stream N` lanes under it).
pub const KERNEL_TRACK_GROUP: &str = "device";

impl ExecutionTrace {
    /// Publish the schedule into a recorder: one `kernel`-category span
    /// per formed kernel, on the `device` track group with one lane per
    /// stream, shifted by `base_ms` (the position of this model run on
    /// the caller's timeline). Each span carries the fusion family and
    /// its launch / compute / memory-IO phase split as args.
    pub fn record_into(&self, rec: &Recorder, base_ms: f64) {
        if !rec.is_enabled() {
            return;
        }
        for k in &self.kernels {
            rec.record(
                Span::new(
                    k.desc.family.name(),
                    "kernel",
                    Track::new(KERNEL_TRACK_GROUP, k.stream as u32),
                    base_ms + k.start_ms,
                    k.finish_ms - k.start_ms,
                )
                .arg("stream", k.stream)
                .arg("fusion_group", k.desc.family.name())
                .arg("launch_ms", k.launch_ms)
                .arg("compute_ms", k.compute_ms)
                .arg("memory_io_ms", k.memory_ms)
                .arg("flops", k.desc.flops),
            );
        }
    }
}

/// Execute a graph and publish the kernel timeline into `rec` at offset
/// `base_ms` — the tracing entry point behind `nnlqp trace`.
pub fn execute_recorded(
    g: &Graph,
    p: &PlatformSpec,
    rec: &Recorder,
    base_ms: f64,
) -> ExecutionTrace {
    let trace = execute(g, p);
    trace.record_into(rec, base_ms);
    trace
}

/// Noise-free model latency in milliseconds: the schedule of [`execute`]
/// with nothing recorded.
pub fn model_latency_ms(g: &Graph, p: &PlatformSpec) -> f64 {
    schedule(g, p, |_, _| {})
}

/// Sum of the *isolated* latencies of the model's kernels — the quantity
/// kernel-additive predictors estimate (Fig. 2's y-axis).
pub fn sum_kernel_latencies_ms(g: &Graph, p: &PlatformSpec) -> f64 {
    fusion::fuse(g)
        .iter()
        .map(|k| {
            let d = fusion::describe(g, k, p.dtype);
            kernel_cost::kernel_latency_isolated_ms(&d, p)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_ir::{GraphBuilder, Shape};
    use nnlqp_models::family::CORPUS_FAMILIES;

    fn t4() -> PlatformSpec {
        PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap()
    }

    #[test]
    fn latency_positive_and_finite_for_all_canonicals() {
        let p = t4();
        for f in CORPUS_FAMILIES {
            let g = f.canonical().unwrap();
            let lat = model_latency_ms(&g, &p);
            assert!(lat.is_finite() && lat > 0.0, "{f}: {lat}");
            assert!(lat < 1000.0, "{f}: implausible {lat} ms");
        }
    }

    #[test]
    fn additivity_violation_sum_exceeds_model() {
        // Fig. 2: every tested model lies above y = x.
        let p = t4();
        for f in CORPUS_FAMILIES {
            let g = f.canonical().unwrap();
            let model = model_latency_ms(&g, &p);
            let sum = sum_kernel_latencies_ms(&g, &p);
            assert!(sum > model, "{f}: sum {sum} !> model {model}");
        }
    }

    #[test]
    fn additivity_gap_is_family_dependent() {
        let p = t4();
        let ratio = |f: nnlqp_models::ModelFamily| {
            let g = f.canonical().unwrap();
            sum_kernel_latencies_ms(&g, &p) / model_latency_ms(&g, &p)
        };
        // Branchy / many-small-kernel families overlap more than chunky
        // sequential ones.
        let vgg = ratio(nnlqp_models::ModelFamily::Vgg);
        let mbv3 = ratio(nnlqp_models::ModelFamily::MobileNetV3);
        assert!(
            mbv3 > vgg,
            "expected MobileNetV3 ratio {mbv3} > VGG ratio {vgg}"
        );
    }

    #[test]
    fn parallel_branches_faster_on_multi_stream() {
        // A wide graph with independent branches should speed up with
        // streams; build one by hand.
        let mut b = GraphBuilder::new("wide", Shape::nchw(1, 64, 56, 56));
        let stem = b.conv(None, 64, 1, 1, 0, 1).unwrap();
        let mut outs = Vec::new();
        for _ in 0..4 {
            let c = b.conv(Some(stem), 64, 3, 1, 1, 1).unwrap();
            outs.push(b.relu(c).unwrap());
        }
        b.concat(&outs).unwrap();
        let g = b.finish().unwrap();

        let mut p1 = t4();
        p1.streams = 1;
        let mut p2 = t4();
        p2.streams = 2;
        let l1 = model_latency_ms(&g, &p1);
        let l2 = model_latency_ms(&g, &p2);
        assert!(l2 < l1 * 0.85, "streams=2 {l2} vs streams=1 {l1}");
    }

    #[test]
    fn schedule_respects_dependencies() {
        let g = nnlqp_models::ModelFamily::ResNet.canonical().unwrap();
        let p = t4();
        let trace = execute(&g, &p);
        let kernels = fusion::fuse(&g);
        let deps = fusion::kernel_deps(&g, &kernels);
        for (i, d) in deps.iter().enumerate() {
            for &producer in d {
                assert!(
                    trace.kernels[producer].finish_ms <= trace.kernels[i].start_ms + 1e-12,
                    "kernel {i} started before producer {producer} finished"
                );
            }
        }
    }

    #[test]
    fn stream_utilization_reflects_topology() {
        let p = t4();
        // Sequential VGG: almost everything on stream 0.
        let vgg = nnlqp_models::ModelFamily::Vgg.canonical().unwrap();
        let tv = execute(&vgg, &p);
        let uv = tv.stream_utilization(p.streams);
        assert!(uv[0] > 0.8, "vgg stream0 {uv:?}");
        assert!(uv[1] < 0.2, "vgg stream1 {uv:?}");
        // Branchy GoogleNet: real work lands on the second stream.
        let goog = nnlqp_models::ModelFamily::GoogleNet.canonical().unwrap();
        let tg = execute(&goog, &p);
        let ug = tg.stream_utilization(p.streams);
        assert!(ug[1] > uv[1], "googlenet {ug:?} vs vgg {uv:?}");
        // Busy time never exceeds streams * makespan.
        assert!(tg.total_busy_ms() <= p.streams as f64 * tg.latency_ms + 1e-9);
    }

    #[test]
    fn batch_scaling_is_sublinear_then_linear() {
        let p = t4();
        let g1 = nnlqp_models::ModelFamily::ResNet.canonical().unwrap();
        let g8 = g1.rebatch(8).unwrap();
        let l1 = model_latency_ms(&g1, &p);
        let l8 = model_latency_ms(&g8, &p);
        // Larger batch amortizes launch overhead and fills the machine:
        // latency grows, but by less than 8x.
        assert!(l8 > l1, "batch 8 {l8} vs batch 1 {l1}");
        assert!(l8 < 8.0 * l1, "batch 8 should be sublinear: {l8} vs {l1}");
    }

    #[test]
    fn mobilenet_flops_latency_mismatch() {
        // MobileNetV2 has ~4x fewer FLOPs than ResNet18 but nowhere near 4x
        // lower latency on GPU — the core motivation for latency predictors.
        let p = t4();
        let rn = nnlqp_models::ModelFamily::ResNet.canonical().unwrap();
        let mb = nnlqp_models::ModelFamily::MobileNetV2.canonical().unwrap();
        let (fr, fm) = (
            nnlqp_ir::cost::graph_cost(&rn, p.dtype).flops,
            nnlqp_ir::cost::graph_cost(&mb, p.dtype).flops,
        );
        let (lr, lm) = (model_latency_ms(&rn, &p), model_latency_ms(&mb, &p));
        let flop_ratio = fr / fm;
        let lat_ratio = lr / lm;
        assert!(
            lat_ratio < flop_ratio * 0.7,
            "latency ratio {lat_ratio} should lag flop ratio {flop_ratio}"
        );
    }

    #[test]
    fn different_platforms_rank_models_differently_sometimes() {
        // Latency is platform-dependent beyond a scale factor: correlation
        // of per-model latencies across two very different platforms is
        // positive but not perfect.
        let gpu = t4();
        let asic = PlatformSpec::by_name("rv1109-rknn-int8").unwrap();
        let mut ratios = Vec::new();
        for f in CORPUS_FAMILIES {
            let g = f.canonical().unwrap();
            ratios.push(model_latency_ms(&g, &asic) / model_latency_ms(&g, &gpu));
        }
        let min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().copied().fold(0.0f64, f64::max);
        assert!(max / min > 1.5, "ratios too uniform: {min}..{max}");
    }
}
