//! The device farm: concurrent, lease-based latency measurement.
//!
//! Reproduces §5.1's three-step query pipeline against simulated devices:
//!
//! 1. *model transformation* — charged on the simulated clock per platform;
//! 2. *device acquisition* — a bounded pool of device leases per platform,
//!    handed out through a queue of idle device ids (the RPC stand-in);
//!    callers block until a device is idle, exactly like the real farm;
//! 3. *latency measurement* — the run itself plus release of the lease.
//!
//! Real threads contend for real leases; only the *deployment wall-clock*
//! (compile/upload times that would take minutes on real toolchains) is
//! simulated.

use crate::measure::{measure, Measurement};
use crate::platform::PlatformSpec;
use nnlqp_ir::{Graph, Rng64};
use nnlqp_obs::Queue;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A measurement request. The graph is shared, not owned: callers on the
/// query hot path hand the farm the same `Arc` they hash and store, so a
/// miss never deep-copies the model.
#[derive(Debug, Clone)]
pub struct QueryJob {
    /// Model to measure (shared with the caller; never deep-copied).
    pub graph: Arc<Graph>,
    /// Target platform name (registry canonical or paper alias).
    pub platform: String,
    /// Timed repetitions (paper default 50).
    pub reps: usize,
    /// Seed for measurement jitter and deployment-cost jitter.
    pub seed: u64,
}

/// Per-stage wall-clock split of one fulfilled deployment pipeline (§5.1),
/// in simulated seconds, jitter included. [`FarmResult::pipeline_cost_s`]
/// is exactly [`PipelineBreakdown::total_s`], so stage spans derived from
/// this struct tile the pipeline interval with no gap or overlap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineBreakdown {
    /// Step 1: ONNX -> platform graph conversion.
    pub transform_s: f64,
    /// Step 1: compilation by the inference toolkit.
    pub compile_s: f64,
    /// Step 3: upload of executable + dependencies to the board.
    pub upload_s: f64,
    /// Fixed harness overhead around the timed runs.
    pub harness_s: f64,
    /// The timed repetitions themselves.
    pub runs_s: f64,
}

impl PipelineBreakdown {
    /// Total pipeline wall-clock, the sum of all five stages.
    pub fn total_s(&self) -> f64 {
        self.transform_s + self.compile_s + self.upload_s + self.harness_s + self.runs_s
    }

    /// Stage `(name, seconds)` pairs in pipeline order, for span export.
    pub fn stages(&self) -> [(&'static str, f64); 5] {
        [
            ("transform", self.transform_s),
            ("compile", self.compile_s),
            ("upload", self.upload_s),
            ("harness", self.harness_s),
            ("runs", self.runs_s),
        ]
    }
}

/// Outcome of a fulfilled query.
#[derive(Debug, Clone)]
pub struct FarmResult {
    /// Canonical platform name.
    pub platform: String,
    /// The measurement session (mean is the ground-truth latency).
    pub measurement: Measurement,
    /// Simulated wall-clock cost of the full pipeline, in seconds:
    /// transform + compile + upload + harness + timed runs. Always equal
    /// to `breakdown.total_s()`.
    pub pipeline_cost_s: f64,
    /// Per-stage split of `pipeline_cost_s`.
    pub breakdown: PipelineBreakdown,
    /// Device that served the job.
    pub device_id: usize,
}

/// Farm errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FarmError {
    /// The requested platform is not in the registry.
    UnknownPlatform(String),
    /// The requested platform abbreviation matches several platforms; the
    /// payload lists the candidates.
    AmbiguousPlatform(String),
    /// All devices for the platform stayed leased past the caller's
    /// acquisition timeout.
    Busy(String),
}

impl fmt::Display for FarmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FarmError::UnknownPlatform(p) => write!(f, "unknown platform: {p}"),
            FarmError::AmbiguousPlatform(p) => write!(f, "ambiguous platform: {p}"),
            FarmError::Busy(p) => write!(f, "all devices busy for platform: {p}"),
        }
    }
}

impl std::error::Error for FarmError {}

struct DevicePool {
    spec: PlatformSpec,
    /// Idle device ids; `pop` waits while all devices are leased. It has a
    /// slot for every device and is never closed, so a device always has
    /// a place to come back to.
    idle: Queue<usize>,
}

/// A device taken from its pool; dropping it, on return or unwind, puts
/// the device back.
struct Lease<'a> {
    pool: &'a DevicePool,
    device_id: usize,
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        // Cannot be refused: see `DevicePool::idle`.
        let _ = self.pool.idle.try_push(self.device_id);
    }
}

/// A farm of simulated devices grouped by platform.
pub struct DeviceFarm {
    pools: HashMap<String, Arc<DevicePool>>,
    /// Total measurements performed over the farm's lifetime (all
    /// platforms). Serving layers use this to prove coalescing: the farm,
    /// not the caller, is the authority on how often hardware actually ran.
    measurements: AtomicU64,
}

impl DeviceFarm {
    /// Build a farm with `devices_per_platform` boards for each platform.
    pub fn new(platforms: &[PlatformSpec], devices_per_platform: usize) -> Self {
        let mut pools = HashMap::new();
        for spec in platforms {
            let n = devices_per_platform.max(1);
            let idle = Queue::new(n);
            for id in 0..n {
                idle.try_push(id)
                    .expect("fresh queue has a slot per device");
            }
            pools.insert(
                spec.name.clone(),
                Arc::new(DevicePool {
                    spec: spec.clone(),
                    idle,
                }),
            );
        }
        DeviceFarm {
            pools,
            measurements: AtomicU64::new(0),
        }
    }

    /// Farm over the full registry, one device per platform.
    pub fn full_registry() -> Self {
        Self::new(&PlatformSpec::registry(), 1)
    }

    /// Platforms this farm serves.
    pub fn platforms(&self) -> Vec<String> {
        let mut v: Vec<String> = self.pools.keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of currently idle devices for a platform.
    pub fn idle_devices(&self, platform: &str) -> usize {
        self.pools.get(platform).map_or(0, |p| p.idle.len())
    }

    /// Spec of a platform this farm serves, by canonical name. Unlike
    /// [`PlatformSpec::by_name`] this also sees custom (non-registry)
    /// specs the farm was built with.
    pub fn spec_of(&self, canonical: &str) -> Option<PlatformSpec> {
        self.pools.get(canonical).map(|p| p.spec.clone())
    }

    fn resolve(&self, name: &str) -> Result<Arc<DevicePool>, FarmError> {
        // Accept aliases by canonicalizing through the registry.
        if let Some(pool) = self.pools.get(name) {
            return Ok(pool.clone());
        }
        let spec = PlatformSpec::by_name(name)
            .ok_or_else(|| FarmError::UnknownPlatform(name.to_string()))?;
        self.pools
            .get(&spec.name)
            .cloned()
            .ok_or(FarmError::UnknownPlatform(name.to_string()))
    }

    /// Lifetime count of measurements this farm has performed.
    pub fn measurements_performed(&self) -> u64 {
        self.measurements.load(Ordering::Relaxed)
    }

    /// Execute one query, blocking until a device for the platform is
    /// idle. This is the farm's RPC entry point.
    pub fn measure_blocking(&self, job: &QueryJob) -> Result<FarmResult, FarmError> {
        self.measure_by(job, None)
    }

    /// Bounded-wait acquisition: block up to `timeout` for an idle device,
    /// then return [`FarmError::Busy`]. A zero `timeout` measures only if
    /// a device is idle right now.
    pub fn measure_timeout(
        &self,
        job: &QueryJob,
        timeout: Duration,
    ) -> Result<FarmResult, FarmError> {
        // A timeout past the end of the clock waits like no timeout.
        self.measure_by(job, Instant::now().checked_add(timeout))
    }

    fn measure_by(
        &self,
        job: &QueryJob,
        deadline: Option<Instant>,
    ) -> Result<FarmResult, FarmError> {
        let pool = self.resolve(&job.platform)?;
        // Step 2: device acquisition. The pool is never closed, so it comes
        // back empty only when the deadline passed.
        let lease = Lease {
            device_id: pool
                .idle
                .pop(deadline)
                .ok_or_else(|| FarmError::Busy(pool.spec.name.clone()))?,
            pool: &pool,
        };
        // Steps 1 & 3 on the simulated clock.
        let result = Self::run_on_device(&pool.spec, job, lease.device_id);
        self.measurements.fetch_add(1, Ordering::Relaxed);
        Ok(result)
    }

    fn run_on_device(spec: &PlatformSpec, job: &QueryJob, device_id: usize) -> FarmResult {
        let measurement = measure(&job.graph, spec, job.reps, job.seed);
        // Deployment stages vary run to run (compiler caches, board load).
        let mut r = Rng64::new(job.seed ^ 0x00DE_B10F_u64);
        let jitter = 0.9 + 0.2 * r.uniform();
        let runs_s = measurement.runs.iter().sum::<f64>() / 1.0e3 + job.reps as f64 * 0.01;
        let breakdown = PipelineBreakdown {
            transform_s: spec.deploy.transform_s * jitter,
            compile_s: spec.deploy.compile_s * jitter,
            upload_s: spec.deploy.upload_s * jitter,
            harness_s: spec.deploy.harness_s * jitter,
            runs_s,
        };
        FarmResult {
            platform: spec.name.clone(),
            measurement,
            pipeline_cost_s: breakdown.total_s(),
            breakdown,
            device_id,
        }
    }

    /// Process a batch of jobs concurrently (one OS thread per job wave,
    /// bounded by device availability through the lease channels). Results
    /// come back in job order.
    pub fn submit_many(&self, jobs: &[QueryJob]) -> Vec<Result<FarmResult, FarmError>> {
        std::thread::scope(|s| {
            let handles: Vec<_> = jobs
                .iter()
                .map(|job| s.spawn(move || self.measure_blocking(job)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panics"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_models::ModelFamily;

    fn job(platform: &str, seed: u64) -> QueryJob {
        QueryJob {
            graph: Arc::new(ModelFamily::SqueezeNet.canonical().unwrap()),
            platform: platform.to_string(),
            reps: 10,
            seed,
        }
    }

    #[test]
    fn basic_measurement_roundtrip() {
        let farm = DeviceFarm::new(&PlatformSpec::table2_platforms(), 1);
        let r = farm
            .measure_blocking(&job("gpu-T4-trt7.1-fp32", 1))
            .unwrap();
        assert!(r.measurement.mean_ms > 0.0);
        assert!(r.pipeline_cost_s > 10.0, "pipeline {}", r.pipeline_cost_s);
    }

    #[test]
    fn unknown_platform_rejected() {
        let farm = DeviceFarm::new(&PlatformSpec::table2_platforms(), 1);
        let err = farm.measure_blocking(&job("tpu-v9", 1)).unwrap_err();
        assert_eq!(err, FarmError::UnknownPlatform("tpu-v9".into()));
    }

    #[test]
    fn aliases_route_to_canonical_pool() {
        let farm = DeviceFarm::new(&PlatformSpec::table2_platforms(), 1);
        let r = farm.measure_blocking(&job("cpu-ppl2-fp32", 1)).unwrap();
        assert_eq!(r.platform, "cpu-openppl-fp32");
    }

    #[test]
    fn leases_are_returned() {
        let farm = DeviceFarm::new(&PlatformSpec::table2_platforms(), 2);
        assert_eq!(farm.idle_devices("gpu-T4-trt7.1-fp32"), 2);
        let _ = farm
            .measure_blocking(&job("gpu-T4-trt7.1-fp32", 1))
            .unwrap();
        assert_eq!(farm.idle_devices("gpu-T4-trt7.1-fp32"), 2);
    }

    #[test]
    fn concurrent_jobs_share_devices_without_deadlock() {
        let farm = DeviceFarm::new(&PlatformSpec::table2_platforms(), 2);
        let jobs: Vec<QueryJob> = (0..8).map(|i| job("gpu-T4-trt7.1-fp32", i)).collect();
        let results = farm.submit_many(&jobs);
        assert_eq!(results.len(), 8);
        for r in results {
            let r = r.unwrap();
            assert!(r.device_id < 2);
            assert!(r.measurement.mean_ms > 0.0);
        }
    }

    #[test]
    fn mixed_platform_batch() {
        let farm = DeviceFarm::new(&PlatformSpec::table2_platforms(), 1);
        let jobs: Vec<QueryJob> = ["cpu-openppl-fp32", "gpu-T4-trt7.1-fp32", "rv1109-rknn-int8"]
            .iter()
            .enumerate()
            .filter(|(_, p)| PlatformSpec::by_name(p).is_some())
            .map(|(i, p)| job(p, i as u64))
            .collect();
        // rv1109 is not in the table2 farm; expect one error.
        let results = farm.submit_many(&jobs);
        let ok = results.iter().filter(|r| r.is_ok()).count();
        let err = results.iter().filter(|r| r.is_err()).count();
        assert_eq!((ok, err), (2, 1));
    }

    #[test]
    fn a_timeout_is_busy_while_all_devices_are_leased() {
        let farm = DeviceFarm::new(&PlatformSpec::table2_platforms(), 1);
        let pool = farm.resolve("gpu-T4-trt7.1-fp32").unwrap();
        // Take the only lease by hand: a zero and a short timeout refuse.
        let id = pool.idle.pop(None).unwrap();
        for wait in [Duration::ZERO, Duration::from_millis(5)] {
            let err = farm
                .measure_timeout(&job("gpu-T4-trt7.1-fp32", 1), wait)
                .unwrap_err();
            assert_eq!(err, FarmError::Busy("gpu-T4-trt7.1-fp32".into()));
        }
        // Return the lease: a zero timeout now measures.
        pool.idle.try_push(id).unwrap();
        assert!(farm
            .measure_timeout(&job("gpu-T4-trt7.1-fp32", 1), Duration::ZERO)
            .is_ok());
    }

    #[test]
    fn a_lease_comes_back_when_its_measurement_unwinds() {
        // A NaN launch cost makes the scheduler's time comparison panic.
        let mut spec = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
        spec.launch_us = f64::NAN;
        let farm = DeviceFarm::new(&[spec], 1);
        let run = std::panic::catch_unwind(|| farm.measure_blocking(&job("gpu-T4-trt7.1-fp32", 1)));
        assert!(run.is_err());
        assert_eq!(farm.idle_devices("gpu-T4-trt7.1-fp32"), 1);
        assert_eq!(farm.measurements_performed(), 0);
    }

    #[test]
    fn measurement_counter_tracks_runs() {
        let farm = DeviceFarm::new(&PlatformSpec::table2_platforms(), 2);
        assert_eq!(farm.measurements_performed(), 0);
        farm.measure_blocking(&job("gpu-T4-trt7.1-fp32", 1))
            .unwrap();
        farm.measure_timeout(&job("cpu-openppl-fp32", 2), Duration::ZERO)
            .unwrap();
        farm.measure_timeout(&job("gpu-T4-trt7.1-fp32", 3), Duration::from_secs(1))
            .unwrap();
        assert_eq!(farm.measurements_performed(), 3);
        // Failed acquisitions don't count.
        let _ = farm.measure_timeout(&job("tpu-v9", 4), Duration::ZERO);
        assert_eq!(farm.measurements_performed(), 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let farm = DeviceFarm::new(&PlatformSpec::table2_platforms(), 1);
        let a = farm
            .measure_blocking(&job("gpu-T4-trt7.1-fp32", 5))
            .unwrap();
        let b = farm
            .measure_blocking(&job("gpu-T4-trt7.1-fp32", 5))
            .unwrap();
        assert_eq!(a.measurement.mean_ms, b.measurement.mean_ms);
        assert_eq!(a.pipeline_cost_s, b.pipeline_cost_s);
    }
}
