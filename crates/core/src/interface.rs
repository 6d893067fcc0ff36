//! `NNLQP.query` — the cached latency-query path (§5.2).

use nnlqp_analyze::Report;
use nnlqp_db::{CompactorHandle, Database, DbMetrics, DurableOptions, PlatformId};
use nnlqp_hash::graph_hash;
use nnlqp_ir::{cost, serialize, Graph, Rng64};
use nnlqp_obs::{
    Counter, Gauge, Histogram, MetricsRegistry, Recorder, Recover, SimClock, Span, Track,
    STAGE_SECONDS_BOUNDS,
};
use nnlqp_sim::{DeviceFarm, FarmError, Platform, PlatformSpec, QueryJob};
use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Parameters of a query or prediction — the paper's
/// `{model_path, batch_size, platform_name}` with the model passed as a
/// graph (use `nnlqp_ir::serialize::from_json` to load one from disk) and
/// the platform as a validated [`Platform`] handle, so an unknown name
/// fails at construction rather than deep inside the query path.
#[derive(Debug, Clone)]
pub struct QueryParams {
    /// The model.
    pub model: Graph,
    /// Batch size to run at.
    pub batch_size: u32,
    /// Target platform.
    pub platform: Platform,
}

impl QueryParams {
    /// Params over an already-resolved platform handle.
    pub fn new(model: Graph, batch_size: u32, platform: Platform) -> Self {
        QueryParams {
            model,
            batch_size,
            platform,
        }
    }

    /// Convenience constructor from a platform string (registry canonical
    /// name or paper alias) — the stringly entry point for CLI and config
    /// call sites.
    pub fn by_name(model: Graph, batch_size: u32, platform: &str) -> Result<Self, QueryError> {
        let platform = Platform::by_name(platform)
            .ok_or_else(|| QueryError::UnknownPlatform(platform.to_string()))?;
        Ok(QueryParams {
            model,
            batch_size,
            platform,
        })
    }
}

/// Outcome of `query`.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Ground-truth latency in milliseconds.
    pub latency_ms: f64,
    /// True when the database served the request without touching
    /// hardware.
    pub cache_hit: bool,
    /// Wall-clock cost of answering, in (simulated) seconds.
    pub cost_s: f64,
}

/// Query errors.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QueryError {
    /// The platform is not registered.
    UnknownPlatform(String),
    /// Rebatching the model failed (invalid batch).
    BadBatch(String),
    /// Strict mode: the analyzer found errors, so the graph was rejected
    /// before touching the farm (the payload is the rendered report).
    Lint(String),
    /// The farm could not serve the measurement (busy past the caller's
    /// deadline, or shutting down).
    Farm(FarmError),
    /// No predictor is installed yet: nothing has been trained since the
    /// system started.
    NoPredictor,
    /// The graph cannot be accepted as given (a field too wide for the
    /// store's record); refused before the farm or the database saw it.
    BadGraph(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownPlatform(p) => write!(f, "unknown platform: {p}"),
            QueryError::BadBatch(d) => write!(f, "bad batch size: {d}"),
            QueryError::Lint(r) => write!(f, "model rejected by static analysis:\n{r}"),
            QueryError::Farm(e) => write!(f, "farm error: {e}"),
            QueryError::NoPredictor => write!(f, "no predictor trained"),
            QueryError::BadGraph(d) => write!(f, "bad graph: {d}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<FarmError> for QueryError {
    fn from(e: FarmError) -> Self {
        match e {
            FarmError::UnknownPlatform(p) | FarmError::AmbiguousPlatform(p) => {
                QueryError::UnknownPlatform(p)
            }
            other => QueryError::Farm(other),
        }
    }
}

/// A point-in-time copy of the facade's query counters, derived from the
/// shared [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CountersSnapshot {
    /// `query` calls answered (hit or miss).
    pub queries: u64,
    /// Queries served straight from the database.
    pub cache_hits: u64,
    /// Farm measurements performed (query misses + direct
    /// [`Nnlqp::query_measured`] calls).
    pub measurements: u64,
}

/// Simulated round-trip cost of a cache-hit query: graph hashing on the
/// CPU plus the remote database access (§8.2 measures ~1.9 s per hit).
pub const CACHE_HIT_COST_S: f64 = 1.75;

/// Registry names of the facade's metrics (all registered by
/// [`NnlqpBuilder::build`]).
pub mod metric_names {
    /// Counter: `query` calls answered (hit or miss).
    pub const QUERIES: &str = "query.queries";
    /// Counter: queries served straight from the database.
    pub const CACHE_HITS: &str = "query.cache_hits";
    /// Counter: farm measurements performed.
    pub const MEASUREMENTS: &str = "query.measurements";
    /// Counter: admission analyses run (one per strict-mode miss, and one
    /// per direct [`crate::Nnlqp::analyze_admission`] call).
    pub const LINT_RUNS: &str = "query.lint_runs";
    /// Histogram: simulated seconds spent hashing + looking up.
    pub const STAGE_LOOKUP_S: &str = "query.stage.lookup_s";
    /// Histogram: simulated seconds spent in the deployment pipeline.
    pub const STAGE_MEASURE_S: &str = "query.stage.measure_s";
    /// Counter: predictions served from a cached graph embedding (only
    /// the MLP head ran).
    pub const EMBED_HITS: &str = "predict.embed_cache_hits";
    /// Counter: predictions that paid the full feature-extraction + GNN
    /// backbone cost.
    pub const EMBED_MISSES: &str = "predict.embed_cache_misses";
    /// Gauge: graph embeddings currently cached.
    pub const EMBED_LEN: &str = "predict.embed_cache_len";
    /// Counter: stored latency rows a retrain left out because their graph
    /// would not decode or rebatch. Registered on the first skip.
    pub const RETRAIN_ROWS_SKIPPED: &str = "predict.retrain_rows_skipped";
    /// Counter: WAL frames appended by the storage engine.
    pub const DB_WAL_APPENDS: &str = nnlqp_db::db_metric_names::WAL_APPENDS;
    /// Counter: WAL bytes appended by the storage engine.
    pub const DB_WAL_BYTES: &str = nnlqp_db::db_metric_names::WAL_BYTES;
    /// Counter: storage-engine compaction passes.
    pub const DB_COMPACTIONS: &str = nnlqp_db::db_metric_names::COMPACTIONS;
    /// Counter: WAL frames replayed during crash recovery.
    pub const DB_RECOVERY_REPLAYED_FRAMES: &str =
        nnlqp_db::db_metric_names::RECOVERY_REPLAYED_FRAMES;
    /// Counter: torn WAL tail bytes refused during crash recovery.
    pub const DB_RECOVERY_TRUNCATED_BYTES: &str =
        nnlqp_db::db_metric_names::RECOVERY_TRUNCATED_BYTES;
}

/// The NNLQP system object. Construct with [`Nnlqp::builder`].
pub struct Nnlqp {
    /// The evolving database. Shared (`Arc`) so the background compactor
    /// of a durable store can own a handle; deref keeps `system.db.…`
    /// call sites unchanged.
    pub db: Arc<Database>,
    /// Background compactor of a durable store (`None` when in-memory).
    /// Held so its thread is stopped and joined when the system drops;
    /// serving layers stop it earlier via [`Nnlqp::stop_compactor`].
    compactor: Mutex<Option<CompactorHandle>>,
    farm: DeviceFarm,
    reps: usize,
    strict: bool,
    /// Base seed folded into every measurement's per-key seed: a
    /// measurement is a deterministic function of (graph hash, platform,
    /// batch, base seed), independent of arrival order — so concurrent
    /// serving layers stay reproducible.
    base_seed: u64,
    seed: Mutex<Rng64>,
    registry: Arc<MetricsRegistry>,
    m_queries: Arc<Counter>,
    m_cache_hits: Arc<Counter>,
    m_measurements: Arc<Counter>,
    m_lint_runs: Arc<Counter>,
    h_lookup_s: Arc<Histogram>,
    h_measure_s: Arc<Histogram>,
    pub(crate) predictor: RwLock<Option<crate::predictor::PredictorHandle>>,
    /// Generation counter for the installed predictor; bumped under the
    /// `predictor` write lock on every hot-swap so embed-cache keys from
    /// an older model can never resolve.
    pub(crate) predictor_version: std::sync::atomic::AtomicU64,
    pub(crate) embed_cache: crate::embed_cache::EmbedCache,
    pub(crate) m_embed_hits: Arc<Counter>,
    pub(crate) m_embed_misses: Arc<Counter>,
    pub(crate) g_embed_len: Arc<Gauge>,
}

/// Default base seed (`b"NNLQP!"` as a integer tag).
const DEFAULT_SEED: u64 = 0x4e4e_4c51_5021;

/// Fold the query key into a measurement seed (FNV-1a over the platform
/// name, mixed with the graph hash, batch and base seed).
fn measurement_seed(base: u64, graph_hash: u64, platform: &str, batch: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in platform.as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
    }
    h ^ base ^ graph_hash.rotate_left(17) ^ u64::from(batch).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Configures and builds an [`Nnlqp`] system. Every knob has the paper's
/// default; override only what the deployment needs:
///
/// ```
/// use nnlqp::Nnlqp;
///
/// let system = Nnlqp::builder().reps(10).strict(true).seed(42).build();
/// assert_eq!(system.reps(), 10);
/// ```
#[derive(Default)]
pub struct NnlqpBuilder {
    farm: Option<DeviceFarm>,
    reps: Option<usize>,
    strict: bool,
    seed: Option<u64>,
    registry: Option<Arc<MetricsRegistry>>,
    embed_cache_capacity: Option<usize>,
    durable: Option<DurableOptions>,
}

/// Background compaction triggers when this many WAL bytes are pending.
const DB_COMPACT_THRESHOLD_BYTES: u64 = 8 * 1024 * 1024;
/// How often the background compactor checks the pending-bytes mark.
const DB_COMPACT_INTERVAL: Duration = Duration::from_millis(500);

/// Default number of cached graph embeddings.
const DEFAULT_EMBED_CACHE_CAPACITY: usize = 2048;
/// Shard count of the embed cache (rounded to a power of two inside).
const EMBED_CACHE_SHARDS: usize = 8;

impl NnlqpBuilder {
    /// The device farm to measure on (default: the full platform
    /// registry, one device each).
    #[must_use]
    pub fn farm(mut self, farm: DeviceFarm) -> Self {
        self.farm = Some(farm);
        self
    }

    /// Measurement repetitions per query (paper default: 50).
    #[must_use]
    pub fn reps(mut self, reps: usize) -> Self {
        self.reps = Some(reps);
        self
    }

    /// When set, every query first runs the `nnlqp-analyze` pipeline over
    /// the effective graph and refuses to measure (or cache) anything the
    /// analyzer flags with an error — keeping poisoned ground truth out of
    /// the evolving database.
    #[must_use]
    pub fn strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Base seed for measurement and jitter streams (distinct deployments
    /// of the system observe distinct noise).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Share an existing metrics registry (e.g. one the serving layer
    /// also registers into) instead of creating a private one.
    #[must_use]
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Capacity of the graph-embedding cache behind `predict` (default
    /// 2048 entries). `0` disables embedding reuse entirely — every
    /// prediction pays the full backbone cost; useful as a benchmarking
    /// baseline.
    #[must_use]
    pub fn embed_cache(mut self, capacity: usize) -> Self {
        self.embed_cache_capacity = Some(capacity);
        self
    }

    /// Mount the evolving database on the sharded durable storage engine
    /// at `opts.dir` (WAL + snapshot segments) instead of keeping it
    /// purely in memory. Opening replays and, if needed, repairs the
    /// store; a background compactor folds the WALs once they grow past
    /// an internal threshold.
    #[must_use]
    pub fn durable(mut self, opts: DurableOptions) -> Self {
        self.durable = Some(opts);
        self
    }

    /// Build the system.
    ///
    /// # Panics
    /// When a durable store was requested ([`NnlqpBuilder::durable`]) and
    /// opening it fails — use [`NnlqpBuilder::try_build`] to handle that.
    pub fn build(self) -> Nnlqp {
        self.try_build().expect("failed to open durable store")
    }

    /// Build the system, surfacing durable-store open errors.
    pub fn try_build(self) -> std::io::Result<Nnlqp> {
        let farm = self.farm.unwrap_or_else(DeviceFarm::full_registry);
        let seed = self.seed.unwrap_or(DEFAULT_SEED);
        let registry = self
            .registry
            .unwrap_or_else(|| Arc::new(MetricsRegistry::new()));
        let m_queries = registry.counter(metric_names::QUERIES);
        let m_cache_hits = registry.counter(metric_names::CACHE_HITS);
        let m_measurements = registry.counter(metric_names::MEASUREMENTS);
        let m_lint_runs = registry.counter(metric_names::LINT_RUNS);
        let h_lookup_s = registry.histogram(metric_names::STAGE_LOOKUP_S, &STAGE_SECONDS_BOUNDS);
        let h_measure_s = registry.histogram(metric_names::STAGE_MEASURE_S, &STAGE_SECONDS_BOUNDS);
        let m_embed_hits = registry.counter(metric_names::EMBED_HITS);
        let m_embed_misses = registry.counter(metric_names::EMBED_MISSES);
        let g_embed_len = registry.gauge(metric_names::EMBED_LEN);
        let embed_capacity = self
            .embed_cache_capacity
            .unwrap_or(DEFAULT_EMBED_CACHE_CAPACITY);
        // Registered unconditionally so the exported metric set is stable
        // across in-memory and durable deployments (zeros when in-memory).
        let db_metrics = DbMetrics::registered(&registry);
        let db = match &self.durable {
            Some(opts) => Arc::new(Database::open_durable_with_metrics(
                opts.clone(),
                db_metrics,
            )?),
            None => Arc::new(Database::new()),
        };
        let compactor = db.is_durable().then(|| {
            CompactorHandle::spawn(
                Arc::clone(&db),
                DB_COMPACT_THRESHOLD_BYTES,
                DB_COMPACT_INTERVAL,
            )
        });
        Ok(Nnlqp {
            db,
            compactor: Mutex::new(compactor),
            farm,
            reps: self.reps.unwrap_or(nnlqp_sim::DEFAULT_REPS),
            strict: self.strict,
            base_seed: seed,
            seed: Mutex::new(Rng64::new(seed)),
            registry,
            m_queries,
            m_cache_hits,
            m_measurements,
            m_lint_runs,
            h_lookup_s,
            h_measure_s,
            predictor: RwLock::new(None),
            predictor_version: std::sync::atomic::AtomicU64::new(0),
            embed_cache: crate::embed_cache::EmbedCache::new(embed_capacity, EMBED_CACHE_SHARDS),
            m_embed_hits,
            m_embed_misses,
            g_embed_len,
        })
    }
}

impl Nnlqp {
    /// Start configuring a system.
    pub fn builder() -> NnlqpBuilder {
        NnlqpBuilder::default()
    }

    /// Measurement repetitions per query (paper: 50).
    pub fn reps(&self) -> usize {
        self.reps
    }

    /// Whether strict (analyze-before-measure) mode is on.
    pub fn strict(&self) -> bool {
        self.strict
    }

    /// The device farm this system measures on — exposed so callers can
    /// resolve user-supplied platform strings against what is actually
    /// served (`Platform::parse(system.farm(), name)`).
    pub fn farm(&self) -> &DeviceFarm {
        &self.farm
    }

    /// The metrics registry behind [`Nnlqp::counters`] — shared with any
    /// layer built via [`NnlqpBuilder::metrics`].
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Stop and join the background compactor of a durable store (no-op
    /// when in-memory or already stopped). Serving layers call this at
    /// shutdown before the final seal + compact, so the closing fold
    /// cannot race a background pass.
    pub fn stop_compactor(&self) {
        drop(self.compactor.lock().recover().take());
    }

    /// Traffic counters (queries, cache hits, farm measurements).
    pub fn counters(&self) -> CountersSnapshot {
        CountersSnapshot {
            queries: self.m_queries.get(),
            cache_hits: self.m_cache_hits.get(),
            measurements: self.m_measurements.get(),
        }
    }

    /// The farm's lifetime measurement count — the hardware-side view of
    /// [`CountersSnapshot::measurements`].
    pub fn farm_measurements(&self) -> u64 {
        self.farm.measurements_performed()
    }

    /// Graph embeddings currently cached (also published as the
    /// `predict.embed_cache_len` gauge).
    pub fn embed_cache_len(&self) -> usize {
        self.embed_cache.len()
    }

    /// Run the admission analysis over `graph`: the IR lints and memory
    /// feasibility on `spec`. It fuses and executes nothing; the
    /// simulator's own invariants are tests, not admission checks.
    ///
    /// This is what strict mode consults on a miss, right before the farm
    /// measurement or database write; serving layers call it to screen a
    /// graph at their own front door, or to surface the full report behind
    /// a rejection. Each call runs the analyzer and bumps
    /// `query.lint_runs`; nothing is memoised.
    pub fn analyze_admission(&self, graph: &Graph, spec: &PlatformSpec) -> Report {
        self.m_lint_runs.inc();
        nnlqp_analyze::analyze(graph, Some(spec))
    }

    /// Strict-mode gate: reject `graph` when the admission report carries
    /// errors, before the farm or database are touched.
    fn admit(&self, graph: &Graph, spec: &PlatformSpec) -> Result<(), QueryError> {
        if !self.strict {
            return Ok(());
        }
        let report = self.analyze_admission(graph, spec);
        if report.has_errors() {
            return Err(QueryError::Lint(report.render_text()));
        }
        Ok(())
    }

    /// Resolve the effective graph at the requested batch size: the
    /// caller's own graph, borrowed, unless it has to be rebatched.
    fn effective_graph<'a>(&self, params: &'a QueryParams) -> Result<Cow<'a, Graph>, QueryError> {
        if params.model.input_shape.batch() == params.batch_size as usize {
            Ok(Cow::Borrowed(&params.model))
        } else {
            params
                .model
                .rebatch(params.batch_size as usize)
                .map(Cow::Owned)
                .map_err(|e| QueryError::BadBatch(e.to_string()))
        }
    }

    /// The paper's `NNLQP.query`: return the true latency, from cache if
    /// the graph hash + platform + batch is already stored, otherwise by
    /// measuring on the farm and recording the result.
    pub fn query(&self, params: &QueryParams) -> Result<QueryResult, QueryError> {
        self.query_inner(params, &Recorder::disabled())
    }

    /// [`Nnlqp::query`], publishing a span timeline into `rec`: hash /
    /// db-lookup / measure stages on the `query` track, deployment stages
    /// on the `farm` track, and (on a miss) one span per formed kernel on
    /// the per-stream `device` lanes. Stage spans on the `query` track
    /// tile `[0, cost_s]` exactly. Timestamps are simulated milliseconds.
    pub fn query_traced(
        &self,
        params: &QueryParams,
        rec: &Recorder,
    ) -> Result<QueryResult, QueryError> {
        self.query_inner(params, rec)
    }

    fn query_inner(&self, params: &QueryParams, rec: &Recorder) -> Result<QueryResult, QueryError> {
        self.m_queries.inc();
        let spec = params.platform.spec();
        let graph = self.effective_graph(params)?;
        let hash = graph_hash(&graph);
        let platform_id =
            self.db
                .get_or_create_platform(&spec.hardware, &spec.software, spec.dtype.name());
        let mut clock = SimClock::new();

        if let Some(hit) = self.db.lookup_latency(hash, platform_id, params.batch_size) {
            self.m_cache_hits.inc();
            let jitter = {
                let mut s = self.seed.lock().recover();
                s.uniform()
            };
            let cost_s = CACHE_HIT_COST_S * (0.9 + 0.2 * jitter);
            self.h_lookup_s.observe(cost_s);
            record_lookup_spans(rec, &mut clock, cost_s, true);
            return Ok(QueryResult {
                latency_ms: hit.cost_ms,
                cache_hit: true,
                cost_s,
            });
        }

        // Miss: admit, deploy + measure on the farm, then record. Only
        // here does the graph move (or, when borrowed, get copied once)
        // into an `Arc` shared with the farm job; a hit never copies it.
        self.admit(&graph, spec)?;
        self.measure_and_record(
            &Arc::new(graph.into_owned()),
            spec,
            platform_id,
            hash,
            params.batch_size,
            None,
            rec,
            &mut clock,
            &mut |_| {},
        )
    }

    /// The miss path as a standalone entry point: admit (in strict mode),
    /// measure `graph` on the farm and record the result, skipping the
    /// cache lookup (the caller has already established the miss).
    ///
    /// `graph` must already be at the effective batch size. `farm_wait`
    /// bounds device acquisition: `None` blocks until a device frees up,
    /// `Some(d)` gives up with [`QueryError::Farm`]`(`[`FarmError::Busy`]`)`
    /// after `d`.
    pub fn query_measured(
        &self,
        graph: &Arc<Graph>,
        platform: &Platform,
        batch_size: u32,
        farm_wait: Option<Duration>,
    ) -> Result<QueryResult, QueryError> {
        self.admit(graph, platform.spec())?;
        self.query_measured_traced(
            graph,
            graph_hash(graph),
            platform,
            batch_size,
            farm_wait,
            &mut |_| {},
        )
    }

    /// [`Self::query_measured`] for the serving layer, which already
    /// admitted the graph at its front door and holds `hash =
    /// graph_hash(graph)` (so the miss path analyzes and hashes once;
    /// the hash is checked in debug builds only). It does not admit
    /// again. It marks its stages as they end: `mark("measure")` right
    /// after the farm measurement and `mark("db_write")` right after the
    /// db/WAL write, so a serving-layer trace can tile the miss path
    /// exactly.
    pub fn query_measured_traced(
        &self,
        graph: &Arc<Graph>,
        hash: u64,
        platform: &Platform,
        batch_size: u32,
        farm_wait: Option<Duration>,
        mark: &mut dyn FnMut(&'static str),
    ) -> Result<QueryResult, QueryError> {
        debug_assert_eq!(hash, graph_hash(graph), "hash must be graph_hash(graph)");
        let spec = platform.spec();
        let platform_id =
            self.db
                .get_or_create_platform(&spec.hardware, &spec.software, spec.dtype.name());
        self.measure_and_record(
            graph,
            spec,
            platform_id,
            hash,
            batch_size,
            farm_wait,
            &Recorder::disabled(),
            &mut SimClock::new(),
            mark,
        )
    }

    #[allow(clippy::too_many_arguments)] // private plumbing behind query/query_measured
    fn measure_and_record(
        &self,
        graph: &Arc<Graph>,
        spec: &PlatformSpec,
        platform_id: PlatformId,
        hash: u64,
        batch_size: u32,
        farm_wait: Option<Duration>,
        rec: &Recorder,
        clock: &mut SimClock,
        mark: &mut dyn FnMut(&'static str),
    ) -> Result<QueryResult, QueryError> {
        // Only a structure the store does not hold yet is encoded, once,
        // before any device sees it: a graph the store cannot hold is
        // refused here, and the bytes wait for the measurement. `Ok` is the
        // stored row, `Err` the record still to store.
        debug_assert_eq!(hash, graph_hash(graph), "hash must be graph_hash(graph)");
        let stored = match self.db.model_id(hash) {
            Some(id) => Ok(id),
            None => Err(serialize::encode(graph).map_err(|e| QueryError::BadGraph(e.to_string()))?),
        };
        let job = QueryJob {
            graph: Arc::clone(graph),
            platform: spec.name.clone(),
            reps: self.reps,
            seed: measurement_seed(self.base_seed, hash, &spec.name, batch_size),
        };
        let result = match farm_wait {
            None => self.farm.measure_blocking(&job)?,
            Some(d) => self.farm.measure_timeout(&job, d)?,
        };
        mark("measure");
        self.m_measurements.inc();
        let lookup_s = CACHE_HIT_COST_S * 0.5; // miss still pays the lookup
        self.h_lookup_s.observe(lookup_s);
        self.h_measure_s.observe(result.pipeline_cost_s);
        record_lookup_spans(rec, clock, lookup_s, false);
        if rec.is_enabled() {
            // The whole pipeline as one stage on the query track, its
            // per-stage split on the farm track, and one representative
            // model execution (kernel spans) inside the runs stage.
            let (start, dur) = clock.advance(result.pipeline_cost_s * 1.0e3);
            rec.record(
                Span::new("measure", "stage", Track::new("query", 0), start, dur)
                    .arg("platform", &spec.name)
                    .arg("device_id", result.device_id)
                    .arg("reps", self.reps),
            );
            let mut at = start;
            for (stage, secs) in result.breakdown.stages() {
                let stage_ms = secs * 1.0e3;
                rec.record(Span::new(
                    stage,
                    "deploy",
                    Track::new("farm", 0),
                    at,
                    stage_ms,
                ));
                if stage == "runs" {
                    nnlqp_sim::execute_recorded(graph, spec, rec, at);
                }
                at += stage_ms;
            }
        }
        let model_id = stored.unwrap_or_else(|graph_bytes| {
            let name = graph.name.clone();
            self.db.insert_model_encoded(name, hash, graph_bytes).0
        });
        let mem = cost::graph_cost(graph, spec.dtype).mem_bytes;
        // Atomic check-then-insert: when two threads miss on the same key
        // concurrently, both return the first writer's measurement — the
        // value every later cache hit will serve.
        let (record, _) = self
            .db
            .get_or_insert_latency(
                model_id,
                platform_id,
                batch_size,
                result.measurement.mean_ms,
                mem,
                (mem * 1.3) as u64,
                mem as u64,
            )
            .expect("fresh foreign keys are valid");
        mark("db_write");
        Ok(QueryResult {
            latency_ms: record.cost_ms,
            cache_hit: false,
            cost_s: result.pipeline_cost_s + lookup_s,
        })
    }

    /// Pre-populate the database (the "evolving" loop: every served query
    /// enriches later ones). Returns the number of fresh measurements.
    pub fn warm_cache(
        &self,
        models: &[Graph],
        platform: &Platform,
        batch: u32,
    ) -> Result<usize, QueryError> {
        let mut fresh = 0;
        for m in models {
            let r = self.query(&QueryParams::new(m.clone(), batch, platform.clone()))?;
            if !r.cache_hit {
                fresh += 1;
            }
        }
        Ok(fresh)
    }

    /// Database statistics passthrough.
    pub fn stats(&self) -> nnlqp_db::DbStats {
        self.db.stats()
    }
}

/// Lookup-phase spans on the query track: hashing the graph, then the
/// remote database round trip, together tiling exactly `lookup_s`.
fn record_lookup_spans(rec: &Recorder, clock: &mut SimClock, lookup_s: f64, hit: bool) {
    if !rec.is_enabled() {
        return;
    }
    let hash_ms = lookup_s * 1.0e3 * 0.25;
    let db_ms = lookup_s * 1.0e3 - hash_ms;
    let (start, dur) = clock.advance(hash_ms);
    rec.record(Span::new(
        "hash",
        "stage",
        Track::new("query", 0),
        start,
        dur,
    ));
    let (start, dur) = clock.advance(db_ms);
    rec.record(
        Span::new("db-lookup", "stage", Track::new("query", 0), start, dur).arg("cache_hit", hit),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_models::ModelFamily;

    fn system() -> Nnlqp {
        Nnlqp::builder()
            .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
            .build()
    }

    fn params(platform: &str) -> QueryParams {
        QueryParams::by_name(ModelFamily::SqueezeNet.canonical().unwrap(), 1, platform).unwrap()
    }

    fn t4() -> Platform {
        Platform::by_name("gpu-T4-trt7.1-fp32").unwrap()
    }

    #[test]
    fn miss_then_hit() {
        let s = system();
        let p = params("gpu-T4-trt7.1-fp32");
        let first = s.query(&p).unwrap();
        assert!(!first.cache_hit);
        assert!(first.cost_s > 10.0);
        let second = s.query(&p).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.latency_ms, first.latency_ms);
        assert!(second.cost_s < 3.0);
        assert_eq!(s.stats().models, 1);
        assert_eq!(s.stats().latencies, 1);
    }

    #[test]
    fn counters_track_traffic() {
        let s = system();
        let p = params("gpu-T4-trt7.1-fp32");
        s.query(&p).unwrap();
        s.query(&p).unwrap();
        s.query(&p).unwrap();
        let c = s.counters();
        assert_eq!(c.queries, 3);
        assert_eq!(c.cache_hits, 2);
        assert_eq!(c.measurements, 1);
        assert_eq!(s.farm_measurements(), 1);
    }

    #[test]
    fn registry_observes_stage_histograms() {
        let s = system();
        let p = params("gpu-T4-trt7.1-fp32");
        s.query(&p).unwrap(); // miss: lookup + measure observed
        s.query(&p).unwrap(); // hit: lookup observed
        let snap = s.registry().snapshot();
        assert_eq!(snap.counter(metric_names::QUERIES), 2);
        assert_eq!(snap.counter(metric_names::CACHE_HITS), 1);
        let lookup = &snap.histograms[metric_names::STAGE_LOOKUP_S];
        assert_eq!(lookup.count, 2);
        let measure = &snap.histograms[metric_names::STAGE_MEASURE_S];
        assert_eq!(measure.count, 1);
        assert!(measure.sum > 10.0, "pipeline seconds {}", measure.sum);
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let s = Nnlqp::builder()
            .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
            .reps(7)
            .strict(true)
            .seed(99)
            .build();
        assert_eq!(s.reps(), 7);
        assert!(s.strict());
        assert!(!system().strict());
        assert_eq!(system().reps(), nnlqp_sim::DEFAULT_REPS);
    }

    #[test]
    fn builder_shares_injected_registry() {
        let shared = Arc::new(MetricsRegistry::new());
        let s = Nnlqp::builder()
            .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
            .metrics(Arc::clone(&shared))
            .build();
        s.query(&params("gpu-T4-trt7.1-fp32")).unwrap();
        assert_eq!(shared.snapshot().counter(metric_names::QUERIES), 1);
    }

    #[test]
    fn query_measured_bypasses_cache_but_records() {
        let s = system();
        let g = Arc::new(ModelFamily::SqueezeNet.canonical().unwrap());
        let a = s.query_measured(&g, &t4(), 1, None).unwrap();
        assert!(!a.cache_hit);
        // Key-derived seeds: re-measuring the same key reproduces the
        // same ground truth, and the recorded row wins either way.
        let b = s
            .query_measured(&g, &t4(), 1, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(s.counters().measurements, 2);
        // The normal query path now hits.
        assert!(s.query(&params("gpu-T4-trt7.1-fp32")).unwrap().cache_hit);
    }

    #[test]
    fn distinct_batch_is_a_miss() {
        let s = system();
        let mut p = params("gpu-T4-trt7.1-fp32");
        s.query(&p).unwrap();
        p.batch_size = 8;
        let r = s.query(&p).unwrap();
        assert!(!r.cache_hit);
        // Larger batch has larger latency.
        let r1 = s.query(&params("gpu-T4-trt7.1-fp32")).unwrap();
        assert!(r.latency_ms > r1.latency_ms);
    }

    #[test]
    fn distinct_platform_is_a_miss() {
        let s = system();
        s.query(&params("gpu-T4-trt7.1-fp32")).unwrap();
        let r = s.query(&params("cpu-openppl-fp32")).unwrap();
        assert!(!r.cache_hit);
        assert_eq!(s.stats().models, 1); // model deduplicated
        assert_eq!(s.stats().latencies, 2);
    }

    #[test]
    fn unknown_platform_rejected_at_construction() {
        let err = QueryParams::by_name(
            ModelFamily::SqueezeNet.canonical().unwrap(),
            1,
            "quantum-coprocessor",
        )
        .unwrap_err();
        assert_eq!(
            err,
            QueryError::UnknownPlatform("quantum-coprocessor".into())
        );
    }

    #[test]
    fn warm_cache_counts_fresh() {
        let s = system();
        let models: Vec<Graph> = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 3, 1)
            .into_iter()
            .map(|m| m.graph)
            .collect();
        let fresh = s.warm_cache(&models, &t4(), 1).unwrap();
        assert_eq!(fresh, 3);
        let again = s.warm_cache(&models, &t4(), 1).unwrap();
        assert_eq!(again, 0);
    }

    #[test]
    fn strict_mode_rejects_malformed_graph() {
        let s = Nnlqp::builder()
            .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
            .strict(true)
            .build();
        let mut p = params("gpu-T4-trt7.1-fp32");
        // Tamper a stored shape: validate() would also catch this, but the
        // analyzer reports it with a stable code instead of panicking the
        // farm pipeline — and nothing must be cached.
        p.model.nodes.make_mut()[1].out_shape = nnlqp_ir::Shape::nchw(1, 999, 1, 1);
        let err = s.query(&p).unwrap_err();
        match err {
            QueryError::Lint(report) => assert!(report.contains("NNL004"), "{report}"),
            other => panic!("expected Lint error, got {other:?}"),
        }
        assert_eq!(s.stats().models, 0);
        assert_eq!(s.stats().latencies, 0);
    }

    #[test]
    fn strict_mode_passes_clean_graph() {
        let s = Nnlqp::builder()
            .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
            .strict(true)
            .build();
        let p = params("gpu-T4-trt7.1-fp32");
        let first = s.query(&p).unwrap();
        assert!(!first.cache_hit);
        assert!(s.query(&p).unwrap().cache_hit);
        assert_eq!(first.latency_ms, s.query(&p).unwrap().latency_ms);
    }

    #[test]
    fn non_strict_mode_does_not_analyze() {
        // Default mode keeps the historical behavior: a graph the linter
        // would warn about is still measured.
        let s = system();
        assert!(!s.strict());
        let r = s.query(&params("gpu-T4-trt7.1-fp32")).unwrap();
        assert!(r.latency_ms > 0.0);
    }

    #[test]
    fn paper_alias_accepted() {
        let s = system();
        let r = s.query(&params("mul270-neuware-int8")).unwrap();
        assert!(r.latency_ms > 0.0);
    }

    #[test]
    fn traced_query_stages_tile_cost() {
        let s = system();
        let p = params("gpu-T4-trt7.1-fp32");

        let rec = Recorder::new();
        let miss = s.query_traced(&p, &rec).unwrap();
        let t = rec.timeline();
        assert!(
            t.first_overlap().is_none(),
            "per-lane spans must not overlap"
        );
        let query_track = Track::new("query", 0);
        let stage_sum_ms: f64 = t.on_track(&query_track).iter().map(|s| s.dur_ms).sum();
        let rel = (stage_sum_ms - miss.cost_s * 1.0e3).abs() / (miss.cost_s * 1.0e3);
        assert!(
            rel < 1.0e-9,
            "stage sum {stage_sum_ms} vs cost {}",
            miss.cost_s
        );
        // Deployment stages and kernels appear on their own tracks.
        assert!(
            t.on_track(&Track::new("farm", 0)).len() == 5,
            "5 deploy stages"
        );
        assert!(t.total_ms("kernel") > 0.0, "kernel spans recorded");

        let rec2 = Recorder::new();
        let hit = s.query_traced(&p, &rec2).unwrap();
        assert!(hit.cache_hit);
        let t2 = rec2.timeline();
        let sum2: f64 = t2.on_track(&query_track).iter().map(|s| s.dur_ms).sum();
        let rel2 = (sum2 - hit.cost_s * 1.0e3).abs() / (hit.cost_s * 1.0e3);
        assert!(rel2 < 1.0e-9, "hit stage sum {sum2} vs cost {}", hit.cost_s);
        assert_eq!(t2.spans.len(), 2, "hit path: hash + db-lookup only");
    }

    #[test]
    fn untraced_query_records_nothing() {
        let s = system();
        let rec = Recorder::disabled();
        s.query_traced(&params("gpu-T4-trt7.1-fp32"), &rec).unwrap();
        assert!(rec.is_empty());
    }

    #[test]
    fn durable_system_round_trips_through_restart() {
        let dir = std::env::temp_dir().join(format!("nnlqp-core-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DurableOptions::new(&dir).shards(2);
        let first = {
            let s = Nnlqp::builder()
                .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
                .durable(opts.clone())
                .build();
            assert!(s.db.is_durable());
            let r = s.query(&params("gpu-T4-trt7.1-fp32")).unwrap();
            assert!(!r.cache_hit);
            // Registered counters observed the appends.
            assert!(
                s.registry()
                    .snapshot()
                    .counter(metric_names::DB_WAL_APPENDS)
                    >= 3
            );
            r.latency_ms
        };
        // A restarted system recovers the store and serves the same
        // ground truth from cache without touching the farm.
        let s = Nnlqp::builder()
            .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
            .durable(opts)
            .build();
        assert_eq!(s.stats().models, 1);
        let r = s.query(&params("gpu-T4-trt7.1-fp32")).unwrap();
        assert!(r.cache_hit);
        assert_eq!(r.latency_ms, first);
        assert_eq!(s.farm_measurements(), 0);
        drop(s);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_memory_build_registers_zeroed_db_counters() {
        let s = system();
        assert!(!s.db.is_durable());
        let snap = s.registry().snapshot();
        assert_eq!(snap.counter(metric_names::DB_WAL_APPENDS), 0);
        assert_eq!(snap.counter(metric_names::DB_COMPACTIONS), 0);
    }

    #[test]
    fn concurrent_queries_consistent() {
        use std::sync::Arc;
        let s = Arc::new(system());
        let models: Vec<Graph> = nnlqp_models::generate_family(ModelFamily::ResNet, 4, 2)
            .into_iter()
            .map(|m| m.graph)
            .collect();
        std::thread::scope(|sc| {
            for m in &models {
                let s = s.clone();
                sc.spawn(move || {
                    let p = QueryParams::by_name(m.clone(), 1, "gpu-T4-trt7.1-fp32").unwrap();
                    let a = s.query(&p).unwrap();
                    let b = s.query(&p).unwrap();
                    assert_eq!(a.latency_ms, b.latency_ms);
                });
            }
        });
        assert_eq!(s.stats().models, 4);
    }
}
