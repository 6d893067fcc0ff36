//! Platform descriptors — the simulator's stand-in for Table 1.
//!
//! Each spec captures the first-order determinants of inference latency on
//! a device class: peak arithmetic throughput at the executed precision,
//! memory bandwidth, kernel launch overhead, stream parallelism and the
//! non-linear utilization knobs (alignment quantum, occupancy saturation,
//! depthwise / Winograd factors). Values are order-of-magnitude realistic
//! for the named silicon but are *not* claimed to match it — the
//! experiments compare predictors against this simulator's ground truth.

use crate::farm::{DeviceFarm, FarmError};
use nnlqp_ir::{DType, OpType};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Grouped-convolution fallback multiplier by precision: the fast
/// quantized/half kernels of vendor runtimes do not support grouping, so
/// grouped layers drop to generic kernels and lose most of the dtype's
/// throughput advantage.
pub fn dtype_group_penalty(dt: DType) -> f64 {
    match dt {
        DType::F32 => 0.75,
        DType::F16 | DType::I16 | DType::I8 => 0.40,
    }
}

/// Broad hardware category (Table 1's "Type" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HardwareClass {
    Gpu,
    Cpu,
    Asic,
}

/// Simulated wall-clock costs of the deployment pipeline stages (§5.1),
/// in seconds. These drive Table 2; the measurement itself adds
/// `reps * model_latency` on top.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeployCosts {
    /// Step 1: ONNX -> platform graph conversion.
    pub transform_s: f64,
    /// Step 1: compilation by the inference toolkit (TensorRT build etc.).
    pub compile_s: f64,
    /// Step 3: upload of executable + dependencies to the board.
    pub upload_s: f64,
    /// Fixed harness overhead around the timed runs.
    pub harness_s: f64,
}

impl DeployCosts {
    /// Total fixed pipeline cost excluding the timed runs.
    pub fn fixed_total_s(&self) -> f64 {
        self.transform_s + self.compile_s + self.upload_s + self.harness_s
    }
}

/// A target platform: hardware + inference software + data type.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    /// Canonical identifier, e.g. `"gpu-T4-trt7.1-fp32"`.
    pub name: String,
    /// Hardware name (Table 1 column 2).
    pub hardware: String,
    /// Inference library (Table 1 column 3).
    pub software: String,
    /// Executed precision.
    pub dtype: DType,
    /// Hardware category.
    pub class: HardwareClass,
    /// Peak arithmetic throughput at `dtype`, in GFLOP/s.
    pub peak_gflops: f64,
    /// Memory bandwidth in GB/s.
    pub mem_bw_gbps: f64,
    /// Kernel launch overhead in microseconds.
    pub launch_us: f64,
    /// Concurrent execution streams (1 = strictly sequential kernels).
    pub streams: usize,
    /// Channel alignment quantum for full throughput (tensor cores /
    /// vector lanes); misaligned widths pay `misalign_penalty`.
    pub align: u32,
    /// Peak efficiency loss at worst-case misalignment, 0..1.
    pub misalign_penalty: f64,
    /// Output-element count at which a kernel reaches half of peak
    /// utilization (occupancy saturation scale).
    pub sat_elems: f64,
    /// Relative efficiency of depthwise/grouped convolutions.
    pub dw_efficiency: f64,
    /// Throughput multiplier for 3x3 dense convolutions (Winograd et al.).
    pub winograd_boost: f64,
    /// Fraction of producer-to-consumer bytes served from cache when a
    /// kernel runs inside a model (vs. cold from DRAM when isolated).
    pub cache_overlap: f64,
    /// Bandwidth multiplier for cache-resident bytes.
    pub cache_speedup: f64,
    /// Fraction of the launch overhead hidden by pipelining when the
    /// stream is busy (back-to-back enqueue).
    pub launch_pipelining: f64,
    /// Device memory available to a single inference session, in bytes
    /// (Table 1's memory column, order-of-magnitude). The analyzer's
    /// memory-feasibility pass rejects graphs whose static footprint
    /// (weights + peak live activations) cannot fit. `0` means unknown
    /// and disables the check.
    pub mem_capacity_bytes: u64,
    /// Deployment-stage costs for the query pipeline.
    pub deploy: DeployCosts,
    /// Operators this platform's toolchain cannot compile (§9: "which
    /// operators are not suitable — for example, hard swish is not
    /// supported on openppl and therefore should be avoided"). The
    /// advisory [`PlatformSpec::unsupported_in`] check surfaces these at
    /// design time.
    pub unsupported: Vec<OpType>,
}

impl PlatformSpec {
    /// Best-case utilization ceiling used by the cost model.
    pub const BASE_EFFICIENCY: f64 = 0.62;

    #[allow(clippy::too_many_arguments)] // positional registry table rows
    fn mk(
        hardware: &str,
        software: &str,
        dtype: DType,
        class: HardwareClass,
        peak_gflops: f64,
        mem_bw_gbps: f64,
        launch_us: f64,
        streams: usize,
        align: u32,
        deploy_fixed: f64,
    ) -> PlatformSpec {
        let prefix = match class {
            HardwareClass::Gpu => "gpu-",
            HardwareClass::Cpu => "",
            HardwareClass::Asic => "",
        };
        let (dw, wino, cache, misalign) = match class {
            HardwareClass::Gpu => (0.35, 1.45, 0.60, 0.30),
            HardwareClass::Cpu => (0.60, 1.15, 0.75, 0.15),
            HardwareClass::Asic => (0.50, 1.00, 0.45, 0.40),
        };
        PlatformSpec {
            name: format!("{prefix}{hardware}-{software}-{}", dtype.name()),
            hardware: hardware.to_string(),
            software: software.to_string(),
            dtype,
            class,
            peak_gflops,
            mem_bw_gbps,
            launch_us,
            streams,
            align,
            misalign_penalty: misalign,
            sat_elems: match class {
                HardwareClass::Gpu => 2.0e5,
                HardwareClass::Cpu => 2.0e4,
                HardwareClass::Asic => 8.0e4,
            },
            dw_efficiency: dw,
            winograd_boost: wino,
            cache_overlap: cache,
            cache_speedup: 4.0,
            launch_pipelining: match class {
                HardwareClass::Gpu => 0.85,
                HardwareClass::Cpu => 0.45,
                HardwareClass::Asic => 0.65,
            },
            mem_capacity_bytes: {
                const GIB: u64 = 1 << 30;
                const MIB: u64 = 1 << 20;
                match hardware {
                    "cpu" => 64 * GIB,
                    "T4" => 16 * GIB,
                    "P4" => 8 * GIB,
                    "gtx1660" => 6 * GIB,
                    "atlas300" => 32 * GIB,
                    "mlu270" => 16 * GIB,
                    "hi3559A" => 2 * GIB,
                    "hi3519A" => GIB,
                    "rv1109" => 128 * MIB,
                    _ => 4 * GIB,
                }
            },
            deploy: DeployCosts {
                transform_s: 0.08 * deploy_fixed,
                compile_s: 0.72 * deploy_fixed,
                upload_s: 0.08 * deploy_fixed,
                harness_s: 0.12 * deploy_fixed,
            },
            unsupported: match (hardware, software) {
                // NNIE NPUs route smooth sigmoids to the host CPU.
                ("hi3559A", _) | ("hi3519A", _) => vec![OpType::Sigmoid],
                // The rknn toolchain has no keepdims spatial mean.
                ("rv1109", _) => vec![OpType::ReduceMean],
                _ => Vec::new(),
            },
        }
    }

    /// Operators of `g` this platform cannot compile (advisory design-time
    /// check; the simulator still prices them, as vendor stacks fall back
    /// to slow host kernels).
    pub fn unsupported_in(&self, g: &nnlqp_ir::Graph) -> Vec<OpType> {
        let mut found: Vec<OpType> = g
            .nodes
            .iter()
            .map(|n| n.op)
            .filter(|op| self.unsupported.contains(op))
            .collect();
        found.sort_unstable_by_key(|op| op.code());
        found.dedup();
        found
    }

    /// All platforms the simulated NNLQ supports (superset of Table 1).
    pub fn registry() -> Vec<PlatformSpec> {
        Self::table().to_vec()
    }

    /// The registry, built once per process; name lookups scan it in place.
    fn table() -> &'static [PlatformSpec] {
        static TABLE: OnceLock<Vec<PlatformSpec>> = OnceLock::new();
        TABLE.get_or_init(Self::build_table)
    }

    fn build_table() -> Vec<PlatformSpec> {
        use DType::*;
        use HardwareClass::*;
        vec![
            // CPU
            Self::mk("cpu", "openppl", F32, Cpu, 1100.0, 95.0, 0.8, 1, 16, 150.0),
            // Datacenter GPUs
            Self::mk("T4", "trt7.1", F32, Gpu, 8100.0, 320.0, 10.0, 2, 8, 80.0),
            Self::mk("T4", "trt7.1", F16, Gpu, 21000.0, 320.0, 10.0, 2, 8, 82.0),
            Self::mk("T4", "trt7.1", I8, Gpu, 26000.0, 320.0, 10.0, 2, 16, 78.0),
            Self::mk("P4", "trt7.1", F32, Gpu, 5500.0, 192.0, 12.0, 2, 8, 85.0),
            Self::mk("P4", "trt7.1", I8, Gpu, 12000.0, 192.0, 12.0, 2, 16, 86.0),
            Self::mk("T4", "trt5.0", F32, Gpu, 7700.0, 320.0, 12.0, 2, 8, 84.0),
            Self::mk("P4", "trt5.0", F32, Gpu, 5200.0, 192.0, 14.0, 2, 8, 88.0),
            Self::mk(
                "gtx1660", "trt7.1", F32, Gpu, 5000.0, 192.0, 10.0, 2, 8, 76.0,
            ),
            // ASICs
            Self::mk(
                "hi3559A", "nnie11", I8, Asic, 2000.0, 25.0, 40.0, 1, 16, 88.0,
            ),
            Self::mk(
                "hi3559A", "nnie11", I16, Asic, 1000.0, 25.0, 40.0, 1, 8, 88.0,
            ),
            Self::mk(
                "hi3519A", "nnie12", I8, Asic, 1200.0, 18.0, 50.0, 1, 16, 86.0,
            ),
            Self::mk(
                "hi3519A", "nnie12", I16, Asic, 600.0, 18.0, 50.0, 1, 8, 86.0,
            ),
            Self::mk(
                "atlas300", "acl", F16, Asic, 8000.0, 204.0, 22.0, 2, 16, 112.0,
            ),
            Self::mk(
                "atlas300", "acl", I8, Asic, 16000.0, 204.0, 22.0, 2, 32, 112.0,
            ),
            Self::mk(
                "mlu270", "neuware", I8, Asic, 12000.0, 102.0, 26.0, 4, 32, 106.0,
            ),
            Self::mk(
                "mlu270", "neuware", I16, Asic, 6000.0, 102.0, 26.0, 4, 16, 106.0,
            ),
            Self::mk("rv1109", "rknn", I8, Asic, 800.0, 8.5, 60.0, 1, 8, 92.0),
            Self::mk("rv1109", "rknn", I16, Asic, 400.0, 8.5, 60.0, 1, 4, 92.0),
        ]
    }

    /// The registry row a canonical name or paper alias names.
    fn find(name: &str) -> Option<&'static PlatformSpec> {
        let canonical = (PAPER_ALIASES.iter())
            .find(|&&(alias, _)| alias == name)
            .map_or(name, |&(_, canonical)| canonical);
        Self::table().iter().find(|p| p.name == canonical)
    }

    /// Every name [`PlatformSpec::by_name`] accepts, with the registry row
    /// it resolves to: each registry name, then each of [`PAPER_ALIASES`].
    pub fn names() -> impl Iterator<Item = (&'static str, &'static PlatformSpec)> {
        let rows = Self::table().iter().map(|p| (p.name.as_str(), p));
        let aliases = (PAPER_ALIASES.iter())
            .filter_map(|&(alias, canonical)| Some((alias, Self::find(canonical)?)));
        rows.chain(aliases)
    }

    /// Look up a platform by its canonical name or paper alias.
    pub fn by_name(name: &str) -> Option<PlatformSpec> {
        Self::find(name).cloned()
    }

    /// The canonical name `name` resolves to, without constructing a spec
    /// — all a caller that keys by platform name needs.
    pub fn canonical_name(name: &str) -> Option<&'static str> {
        Self::find(name).map(|p| p.name.as_str())
    }

    /// The nine platforms of the Table 2 / Table 6 experiments, in row
    /// order.
    pub fn table2_platforms() -> Vec<PlatformSpec> {
        [
            "cpu-openppl-fp32",
            "hi3559A-nnie11-int8",
            "gpu-T4-trt7.1-fp32",
            "gpu-T4-trt7.1-int8",
            "gpu-P4-trt7.1-fp32",
            "gpu-P4-trt7.1-int8",
            "hi3519A-nnie12-int8",
            "atlas300-acl-fp16",
            "mlu270-neuware-int8",
        ]
        .iter()
        .map(|n| Self::by_name(n).expect("registry platform"))
        .collect()
    }
}

/// The paper's occasional aliases, `(alias, canonical registry name)`.
pub const PAPER_ALIASES: [(&str, &str); 2] = [
    ("cpu-ppl2-fp32", "cpu-openppl-fp32"),
    ("mul270-neuware-int8", "mlu270-neuware-int8"),
];

/// A validated platform handle: proof that a requested name resolved to a
/// spec some farm (or the registry) actually serves. APIs that previously
/// took stringly platform names take this instead, moving the
/// unknown-platform failure to construction time. Cheap to clone (the
/// spec is shared behind an `Arc`); equality and hashing go by canonical
/// name.
#[derive(Debug, Clone)]
pub struct Platform {
    spec: Arc<PlatformSpec>,
}

impl Platform {
    /// Resolve a canonical registry name or paper alias.
    pub fn by_name(name: &str) -> Option<Platform> {
        PlatformSpec::by_name(name).map(Platform::from)
    }

    /// Resolve a user-supplied platform string against a farm.
    ///
    /// Resolution order:
    /// 1. canonical name or paper alias, if the farm serves it (this also
    ///    finds custom non-registry specs the farm was built with);
    /// 2. otherwise a case-insensitive abbreviation match over the farm's
    ///    platforms: every `-`-separated token of the query must appear,
    ///    in order, among the candidate's tokens (substring per token) —
    ///    so `"atlas"` finds `atlas300-acl-fp16` and `"T4-fp32"` finds
    ///    `gpu-T4-trt7.1-fp32` on a Table 2 farm. Unique hits resolve;
    ///    multiple hits are [`FarmError::AmbiguousPlatform`] listing the
    ///    candidates.
    pub fn parse(farm: &DeviceFarm, query: &str) -> Result<Platform, FarmError> {
        if let Some(spec) = PlatformSpec::by_name(query) {
            if let Some(served) = farm.spec_of(&spec.name) {
                return Ok(Platform::from(served));
            }
        }
        if let Some(spec) = farm.spec_of(query) {
            return Ok(Platform::from(spec));
        }
        let needle = query.to_ascii_lowercase();
        let hits: Vec<String> = farm
            .platforms()
            .into_iter()
            .filter(|p| abbreviates(&needle, &p.to_ascii_lowercase()))
            .collect();
        match hits.as_slice() {
            [] => Err(FarmError::UnknownPlatform(query.to_string())),
            [only] => Ok(Platform::from(
                farm.spec_of(only).expect("listed platform has a pool"),
            )),
            many => Err(FarmError::AmbiguousPlatform(format!(
                "\"{query}\" matches {}",
                many.join(", ")
            ))),
        }
    }

    /// Canonical platform name, e.g. `"gpu-T4-trt7.1-fp32"`.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// The underlying spec.
    pub fn spec(&self) -> &PlatformSpec {
        &self.spec
    }
}

/// Does lowercase `query` abbreviate lowercase `name`? Each `-`-separated
/// query token must substring-match a distinct `name` token, in order.
fn abbreviates(query: &str, name: &str) -> bool {
    let mut name_tokens = name.split('-');
    query.split('-').all(|q| name_tokens.any(|n| n.contains(q)))
}

impl From<PlatformSpec> for Platform {
    fn from(spec: PlatformSpec) -> Self {
        Platform {
            spec: Arc::new(spec),
        }
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl PartialEq for Platform {
    fn eq(&self, other: &Self) -> bool {
        self.spec.name == other.spec.name
    }
}

impl Eq for Platform {}

impl Hash for Platform {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.spec.name.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_table1_coverage() {
        let reg = PlatformSpec::registry();
        assert!(reg.len() >= 12);
        for needed in [
            "cpu-openppl-fp32",
            "gpu-T4-trt7.1-fp32",
            "gpu-T4-trt7.1-int8",
            "gpu-P4-trt7.1-fp32",
            "hi3559A-nnie11-int8",
            "hi3519A-nnie12-int8",
            "atlas300-acl-fp16",
            "mlu270-neuware-int8",
            "rv1109-rknn-int8",
            "gpu-gtx1660-trt7.1-fp32",
        ] {
            assert!(
                PlatformSpec::by_name(needed).is_some(),
                "missing platform {needed}"
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let reg = PlatformSpec::registry();
        let mut names: Vec<&str> = reg.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn aliases_resolve() {
        assert_eq!(
            PlatformSpec::by_name("cpu-ppl2-fp32").unwrap().name,
            "cpu-openppl-fp32"
        );
        assert_eq!(
            PlatformSpec::by_name("mul270-neuware-int8").unwrap().name,
            "mlu270-neuware-int8"
        );
    }

    #[test]
    fn lookups_agree_with_the_registry_row_for_row() {
        let reg = PlatformSpec::registry();
        assert_eq!(reg.len(), 19);
        for row in &reg {
            assert_eq!(PlatformSpec::by_name(&row.name).as_ref(), Some(row));
            assert_eq!(
                PlatformSpec::canonical_name(&row.name),
                Some(row.name.as_str())
            );
        }
        for (alias, canonical) in [
            ("cpu-ppl2-fp32", "cpu-openppl-fp32"),
            ("mul270-neuware-int8", "mlu270-neuware-int8"),
        ] {
            let row = reg.iter().find(|p| p.name == canonical);
            assert!(row.is_some());
            assert_eq!(PlatformSpec::by_name(alias).as_ref(), row);
            assert_eq!(PlatformSpec::canonical_name(alias), Some(canonical));
        }
        assert_eq!(PlatformSpec::by_name("tpu-v4-bf16"), None);
        assert_eq!(PlatformSpec::canonical_name("tpu-v4-bf16"), None);
        // `names` lists exactly what the lookups accept.
        let names: Vec<_> = PlatformSpec::names().collect();
        assert_eq!(names.len(), reg.len() + PAPER_ALIASES.len());
        for (name, row) in names {
            assert_eq!(PlatformSpec::by_name(name).as_ref(), Some(row));
        }
    }

    #[test]
    fn table2_has_nine_rows() {
        assert_eq!(PlatformSpec::table2_platforms().len(), 9);
    }

    #[test]
    fn deploy_costs_total_matches_scale() {
        let p = PlatformSpec::by_name("cpu-openppl-fp32").unwrap();
        let t = p.deploy.fixed_total_s();
        assert!((140.0..160.0).contains(&t), "cpu fixed deploy {t}");
    }

    #[test]
    fn memory_capacities_track_device_scale() {
        let t4 = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
        let rv = PlatformSpec::by_name("rv1109-rknn-int8").unwrap();
        assert_eq!(t4.mem_capacity_bytes, 16 << 30);
        assert_eq!(rv.mem_capacity_bytes, 128 << 20);
        assert!(rv.mem_capacity_bytes < t4.mem_capacity_bytes);
        for p in PlatformSpec::registry() {
            assert!(p.mem_capacity_bytes > 0, "{} has no capacity", p.name);
        }
    }

    #[test]
    fn unknown_platform_is_none() {
        assert!(PlatformSpec::by_name("tpu-v4-bf16").is_none());
    }

    #[test]
    fn platform_handle_by_name_and_alias() {
        let p = Platform::by_name("cpu-ppl2-fp32").unwrap();
        assert_eq!(p.name(), "cpu-openppl-fp32");
        assert_eq!(p.to_string(), "cpu-openppl-fp32");
        assert_eq!(p, Platform::by_name("cpu-openppl-fp32").unwrap());
        assert!(Platform::by_name("tpu-v4-bf16").is_none());
    }

    #[test]
    fn platform_parse_exact_alias_and_substring() {
        let farm = DeviceFarm::new(&PlatformSpec::table2_platforms(), 1);
        // Exact and alias hits.
        assert_eq!(
            Platform::parse(&farm, "gpu-T4-trt7.1-fp32").unwrap().name(),
            "gpu-T4-trt7.1-fp32"
        );
        assert_eq!(
            Platform::parse(&farm, "cpu-ppl2-fp32").unwrap().name(),
            "cpu-openppl-fp32"
        );
        // Unique case-insensitive abbreviations: single token and
        // hyphenated token subsequence.
        assert_eq!(
            Platform::parse(&farm, "ATLAS").unwrap().name(),
            "atlas300-acl-fp16"
        );
        assert_eq!(
            Platform::parse(&farm, "T4-fp32").unwrap().name(),
            "gpu-T4-trt7.1-fp32"
        );
        // Multiple hits name the candidates; misses are unknown.
        match Platform::parse(&farm, "T4").unwrap_err() {
            FarmError::AmbiguousPlatform(msg) => {
                assert!(msg.contains("gpu-T4-trt7.1-fp32"), "{msg}");
                assert!(msg.contains("gpu-T4-trt7.1-int8"), "{msg}");
            }
            other => panic!("expected ambiguous, got {other:?}"),
        }
        assert_eq!(
            Platform::parse(&farm, "tpu-v9").unwrap_err(),
            FarmError::UnknownPlatform("tpu-v9".into())
        );
    }

    #[test]
    fn platform_parse_sees_custom_farm_specs() {
        let mut spec = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
        spec.name = "lab-fpga-fp32".to_string();
        let farm = DeviceFarm::new(&[spec], 1);
        assert_eq!(
            Platform::parse(&farm, "lab-fpga-fp32").unwrap().name(),
            "lab-fpga-fp32"
        );
        assert_eq!(
            Platform::parse(&farm, "fpga").unwrap().name(),
            "lab-fpga-fp32"
        );
    }

    #[test]
    fn unsupported_op_check() {
        use nnlqp_ir::{GraphBuilder, Shape};
        let mut b = GraphBuilder::new("se", Shape::nchw(1, 16, 8, 8));
        let c = b.conv(None, 16, 3, 1, 1, 1).unwrap();
        b.squeeze_excite(c, 4).unwrap();
        let g = b.finish().unwrap();
        let nnie = PlatformSpec::by_name("hi3559A-nnie11-int8").unwrap();
        assert_eq!(nnie.unsupported_in(&g), vec![nnlqp_ir::OpType::Sigmoid]);
        let rknn = PlatformSpec::by_name("rv1109-rknn-int8").unwrap();
        assert_eq!(rknn.unsupported_in(&g), vec![nnlqp_ir::OpType::ReduceMean]);
        let gpu = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
        assert!(gpu.unsupported_in(&g).is_empty());
    }
}
