//! The latency-query service: admission control, worker pool, degrade
//! path and the evolving-database retraining loop, wired around the
//! `Nnlqp` facade.
//!
//! Request flow (fast to slow):
//!
//! 1. resolve the platform in the table `start` built (canonical name +
//!    db id; a name the registry knows but the farm has no devices for
//!    errs here) and the key's graph hash — from the identity memo when this
//!    very `Arc<Graph>` was seen at this batch before (see `resolve.rs`),
//!    otherwise by rebatching and hashing, once;
//! 2. sharded-LRU hot cache — O(1), no db lock;
//! 3. evolving database — hit fills the LRU; only past this point is the
//!    effective (rebatched) graph itself needed, so only here is it built;
//! 4. strict-mode admission — the analyzer runs once per miss and
//!    rejects error-severity graphs *here*, before any farm measurement
//!    or database write (the worker's facade entry does not admit
//!    again);
//! 5. degrade check — backlog over threshold: serve the facade's
//!    `Nnlqp::predict_effective` answer tagged `approximate`, or fall
//!    through when no predictor head covers the platform;
//! 6. singleflight — join the key's flight, or lead it by enqueueing one
//!    measurement on the bounded worker queue (`try_push`: a full queue
//!    rejects instead of blocking the caller — backpressure, not pileup).
//!
//! Workers drain the queue, measure through `Nnlqp::query_measured_traced`
//! (key-seeded, so results are order-independent), fill db + cache, then
//! publish to the flight. The facade marks each stage it ends (`measure`,
//! `db_write`) through the worker's stage sink; the worker ships its marks
//! on the stack with the outcome, and the flight's leader splices them
//! into its trace without knowing their names. A job that panics fails
//! its flight with [`ServeError::Measurement`], counts one
//! `serve.worker_panics`, and the worker takes the next job. A background
//! loop retrains the predictor, hot-swapping the heads through the
//! facade's `RwLock`; a retrain that panics counts `serve.retrain_panics`,
//! logs a `retrain_panic` event, and the loop waits for its next trigger.
//! Shutdown closes the queue, lets the workers drain it, joins every
//! thread and, on a durable store, seals the WAL tail into segments; a
//! thread that died is its error.
//!
//! # Quality monitoring
//!
//! With [`ServeConfig::monitor`] set, measurement-backed answers (db hits
//! and fresh measurements) are shadow-evaluated: every `sample_every`-th
//! answer per platform is also run through the NNLP predictor and the
//! `(predicted, measured)` pair feeds the platform's rolling
//! [`QualityMonitor`] window. When windowed MAPE crosses the configured
//! threshold (with enough samples behind it) a drift alert fires and the
//! retrain loop runs *on evidence* instead of the blind
//! `retrain_after` cadence; after training it re-predicts the replay
//! buffer under the new model and resets the window, so recovery is
//! visible immediately. Query lifecycle, shadow evals, drift alerts and
//! retrains are recorded in a bounded JSONL [`EventLog`], and the whole
//! registry can be written periodically in Prometheus text format via
//! [`ServeConfig::metrics_path`].
//!
//! # One exit
//!
//! The tiers only answer and mark their stages. Every request leaves
//! through `serve`, which looks its outcome up in one table (`outcome`:
//! trace class, terminal counter, event `source` / `error`) and records
//! it once: the terminal counter, the served latency, the trace
//! histograms, the exemplar offer and the `query` event. Only the
//! overlays are counted where they happen: `coalesced` at the join,
//! `measured` and `worker_panics` on the worker, `resolve_memo_*` at the
//! front door.
//!
//! # One predictor
//!
//! The degrade tier, the shadow evaluator and the retrain loop's re-score
//! all predict through `Nnlqp::predict_effective` (the degrade tier through
//! `predict_effective_staged`, whose sink marks `embed_cache` and
//! `predict_head` on the request's trace): the facade's one installed
//! predictor, whose architecture the retrain loop takes from
//! [`ServeConfig::train`]. A degraded answer is therefore bit for bit the
//! answer the facade gives for the same graph and platform.

use crate::cache::{CacheKey, ShardedLru};
use crate::metrics::{metric_names, MetricsSnapshot, ServeMetrics, Terminal};
use crate::resolve::{effective_graph, ResolveMemo};
use crate::singleflight::{Role, SingleFlight};
use nnlqp::{Nnlqp, QueryError, TrainPredictorConfig};
use nnlqp_db::PlatformId;
use nnlqp_hash::{graph_hash, BuildWordHasher};
use nnlqp_ir::Graph;
use nnlqp_obs::{
    panic_message, to_prometheus, EventLog, ExemplarReservoir, MetricsRegistry, MonitorConfig,
    PushError, QualityMonitor, QualityReport, QueryEvent, QueryOutcome, Queue, Recover,
    RequestTrace, TraceClock, TraceContext,
};
use nnlqp_sim::{FarmError, Platform, PlatformSpec};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Slowest full traces retained per terminal class by the exemplar
/// reservoir — enough to see *why* a class's tail looks the way it does
/// without unbounded memory.
const EXEMPLARS_PER_CLASS: usize = 4;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Measurement worker threads.
    pub workers: usize,
    /// Bounded submission-queue depth; a full queue rejects new leaders.
    pub queue_depth: usize,
    /// Total hot-cache entries.
    pub cache_capacity: usize,
    /// Hot-cache shards (rounded up to a power of two).
    pub cache_shards: usize,
    /// Queue backlog at which requests degrade to an approximate
    /// prediction (when a predictor head covers the platform).
    pub degrade_backlog: usize,
    /// Bound on device acquisition inside a worker; `None` blocks.
    pub farm_wait: Option<Duration>,
    /// Retrain the predictor after this many fresh measurements
    /// (0 disables the cadence; with a monitor configured the retrain
    /// loop still runs, fired by drift alerts alone).
    pub retrain_after: usize,
    /// Platforms the retrained predictor covers.
    pub retrain_platforms: Vec<String>,
    /// Training hyperparameters for each retrain, the architecture
    /// ([`TrainPredictorConfig::arch`]) included.
    pub train: TrainPredictorConfig,
    /// Shadow-evaluation and drift-detection tuning; `None` disables
    /// quality monitoring entirely.
    pub monitor: Option<MonitorConfig>,
    /// Structured event-log ring capacity (0 disables the log).
    pub event_log_capacity: usize,
    /// Where shutdown writes the event log, one JSON object per line.
    pub events_path: Option<PathBuf>,
    /// Where the registry is written in Prometheus text format — updated
    /// every [`ServeConfig::metrics_every`] by a background thread
    /// (atomic temp-file + rename) and once more at shutdown, after all
    /// workers drained.
    pub metrics_path: Option<PathBuf>,
    /// Interval between Prometheus snapshots of the registry.
    pub metrics_every: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_depth: 64,
            cache_capacity: 1024,
            cache_shards: 8,
            degrade_backlog: 32,
            farm_wait: None,
            retrain_after: 0,
            retrain_platforms: Vec::new(),
            train: TrainPredictorConfig::default(),
            monitor: None,
            event_log_capacity: 4096,
            events_path: None,
            metrics_path: None,
            metrics_every: Duration::from_secs(1),
        }
    }
}

/// Service-level failures. All variants are cheap to clone — a flight
/// publishes one error to every coalesced waiter.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// Platform unknown to the registry, or one the farm has no devices
    /// for.
    UnknownPlatform(String),
    /// The model cannot run at the requested batch.
    BadBatch(String),
    /// Submission queue full — backpressure, retry later.
    Overloaded,
    /// The service no longer accepts work.
    ShuttingDown,
    /// Strict mode: the admission analyzer found error-severity findings,
    /// so the graph was rejected before any farm measurement or database
    /// write (the payload is the rendered report).
    LintRejected(String),
    /// The measurement itself failed (farm busy past the deadline, ...).
    Measurement(String),
    /// The graph cannot be accepted as given (a field too wide for the
    /// store's record); nothing was measured or stored.
    BadGraph(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownPlatform(p) => write!(f, "unknown platform: {p}"),
            ServeError::BadBatch(d) => write!(f, "bad batch: {d}"),
            ServeError::Overloaded => write!(f, "measurement queue full"),
            ServeError::ShuttingDown => write!(f, "service shutting down"),
            ServeError::LintRejected(r) => write!(f, "rejected by static analysis:\n{r}"),
            ServeError::Measurement(e) => write!(f, "measurement failed: {e}"),
            ServeError::BadGraph(d) => write!(f, "bad graph: {d}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<FarmError> for ServeError {
    fn from(e: FarmError) -> Self {
        match e {
            FarmError::UnknownPlatform(p) | FarmError::AmbiguousPlatform(p) => {
                ServeError::UnknownPlatform(p)
            }
            other => ServeError::Measurement(other.to_string()),
        }
    }
}

impl From<QueryError> for ServeError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::UnknownPlatform(p) => ServeError::UnknownPlatform(p),
            QueryError::BadBatch(d) => ServeError::BadBatch(d),
            QueryError::Lint(r) => ServeError::LintRejected(r),
            QueryError::Farm(f) => f.into(),
            QueryError::BadGraph(d) => ServeError::BadGraph(d),
            other => ServeError::Measurement(other.to_string()),
        }
    }
}

/// Where a served latency came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Sharded in-memory LRU.
    HotCache,
    /// The evolving database.
    Database,
    /// A farm measurement (own or shared through a flight).
    Measured,
    /// The NNLP predictor (degraded path).
    Predicted,
}

/// The one table of terminal classes: a request's outcome → its class
/// (the trace's class and the exemplar reservoir's key), the one terminal
/// counter it bumps, and the `query` event's `source`. A failure's
/// `source` is `"error"` and its event's `error` field is its class.
fn outcome(res: &Result<Served, ServeError>) -> (&'static str, Terminal, &'static str) {
    use Terminal::*;
    match res {
        Ok(s) if s.coalesced => ("coalesced", Misses, "measured"),
        Ok(s) => match s.source {
            Source::HotCache => ("hot_cache", HotHits, "hot_cache"),
            Source::Database => ("db_hit", DbHits, "database"),
            Source::Measured => ("measured", Misses, "measured"),
            Source::Predicted => ("degraded", Degraded, "predicted"),
        },
        Err(e) => {
            let (class, counter) = match e {
                ServeError::UnknownPlatform(_) => ("unknown_platform", Errors),
                ServeError::BadBatch(_) => ("bad_batch", Errors),
                ServeError::Overloaded => ("overloaded", Rejected),
                ServeError::ShuttingDown => ("shutting_down", Rejected),
                ServeError::LintRejected(_) => ("lint_rejected", LintRejected),
                ServeError::Measurement(_) => ("measurement", Rejected),
                ServeError::BadGraph(_) => ("bad_graph", Errors),
            };
            (class, counter, "error")
        }
    }
}

/// A served latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Served {
    /// Latency in milliseconds.
    pub latency_ms: f64,
    /// Which tier answered.
    pub source: Source,
    /// True when this is a prediction, not ground truth.
    pub approximate: bool,
    /// True when the request shared another request's measurement.
    pub coalesced: bool,
}

struct PlatformBinding {
    platform: Platform,
    /// The canonical name as the hot cache's key shares it.
    canonical: Arc<str>,
    /// The same name, borrowed from the registry: what the `query` event
    /// records, without a copy, when the caller passed it.
    name: &'static str,
    /// The platform's db row, created on its first request, so rows, ids
    /// and WAL bytes come in request order.
    id: OnceLock<PlatformId>,
}

/// Every registry name and paper alias the farm serves → its binding (an
/// alias shares its canonical name's). Names come from the program, never
/// from a request, so a keyed hasher would guard against nothing.
type PlatformTable = HashMap<&'static str, Arc<PlatformBinding>, BuildWordHasher>;

fn platform_table(system: &Nnlqp) -> PlatformTable {
    let mut table = PlatformTable::default();
    for (name, spec) in PlatformSpec::names() {
        let canonical = spec.name.as_str();
        let binding = match table.get(canonical) {
            Some(b) => Arc::clone(b),
            // A registry platform the farm has no devices for could never
            // be measured: it stays out, and a request for it errs at
            // `resolve`, before it takes a flight or a queue slot.
            None if system.farm().spec_of(canonical).is_none() => continue,
            None => Arc::new(PlatformBinding {
                platform: Platform::from(spec.clone()),
                canonical: Arc::from(canonical),
                name: canonical,
                id: OnceLock::new(),
            }),
        };
        table.insert(name, binding);
    }
    table
}

struct Job {
    key: CacheKey,
    platform: Platform,
    graph: Arc<Graph>,
    /// Tick on the service's [`TraceClock`] when the leader enqueued the
    /// job — workers derive enqueue→dequeue queue wait from it.
    enqueued_ns: u64,
}

/// Stage marks a worker makes per measurement: `queue_wait`, the
/// facade's two, and `publish`.
const WORKER_MARKS: usize = 4;

/// What a flight publishes to its leader and every coalesced follower.
#[derive(Debug, Clone, Copy)]
struct FlightOutcome {
    latency_ms: f64,
    /// The worker's stage marks, `(name, tick on the shared clock)` in
    /// order; all `None` when the flight was settled without a worker
    /// (leader double-check hit). Only the *leader* splices these into
    /// its trace — a follower may have joined after any of them.
    marks: [Option<(&'static str, u64)>; WORKER_MARKS],
}

#[derive(Default)]
struct RetrainState {
    fresh: usize,
    /// A drift alert fired since the last retrain.
    drift: bool,
    stop: bool,
}

struct RetrainShared {
    /// A retrain loop was spawned: without one, nothing reads `state`.
    runs: bool,
    state: Mutex<RetrainState>,
    wake: Condvar,
}

impl RetrainShared {
    /// Record a trigger in `state` and wake the loop; nothing when no loop
    /// runs.
    fn nudge(&self, trigger: impl FnOnce(&mut RetrainState)) {
        if self.runs {
            trigger(&mut self.state.lock().recover());
            self.wake.notify_one();
        }
    }
}

/// Bounded per-platform replay buffer of `(graph, measured_ms)` pairs.
type ReplayBuffer = HashMap<String, VecDeque<(Arc<Graph>, f64)>>;

/// The shadow evaluator: the quality monitor plus a replay buffer, so the
/// retrain loop can re-score the same workload under a freshly trained
/// model.
struct Shadow {
    monitor: QualityMonitor,
    replay: Mutex<ReplayBuffer>,
}

impl Shadow {
    fn new(cfg: MonitorConfig, registry: Arc<MetricsRegistry>) -> Self {
        Shadow {
            monitor: QualityMonitor::new(cfg, registry),
            replay: Mutex::new(HashMap::new()),
        }
    }

    /// Feed one measurement-backed answer through the shadow evaluator:
    /// remember it for replay, and — on the sampling cadence — predict it,
    /// record the pair and raise the retrain-on-drift signal.
    fn observe(
        &self,
        system: &Nnlqp,
        events: Option<&EventLog>,
        retrain: &RetrainShared,
        platform: &str,
        graph: &Arc<Graph>,
        measured_ms: f64,
    ) {
        {
            let mut replay = self.replay.lock().recover();
            let buf = replay.entry(platform.to_string()).or_default();
            if buf.len() == self.monitor.config().window {
                buf.pop_front();
            }
            buf.push_back((Arc::clone(graph), measured_ms));
        }
        if !self.monitor.sample(platform) {
            return;
        }
        // No predictor head yet (cold start) — nothing to shadow.
        let Ok(pred) = system.predict_effective(graph, platform) else {
            return;
        };
        let alert = self.monitor.record(platform, pred.latency_ms, measured_ms);
        if let Some(ev) = events {
            let mut fields = vec![
                ("platform", platform.to_owned().into()),
                ("predicted_ms", pred.latency_ms.into()),
                ("measured_ms", measured_ms.into()),
            ];
            if let Some(m) = self.monitor.windowed_mape(platform) {
                fields.push(("windowed_mape_pct", m.into()));
            }
            ev.emit("shadow_eval", fields);
        }
        if let Some(alert) = alert {
            if let Some(ev) = events {
                ev.emit(
                    "drift_alert",
                    [
                        ("platform", alert.platform.clone().into()),
                        ("windowed_mape_pct", alert.windowed_mape_pct.into()),
                        ("threshold_pct", alert.threshold_pct.into()),
                        ("samples", alert.samples.into()),
                    ],
                );
            }
            retrain.nudge(|st| st.drift = true);
        }
    }

    /// Snapshot the replay buffer for `platform`.
    fn replay_pairs(&self, platform: &str) -> Vec<(Arc<Graph>, f64)> {
        self.replay
            .lock()
            .recover()
            .get(platform)
            .map(|buf| buf.iter().cloned().collect())
            .unwrap_or_default()
    }
}

/// Shared state the worker pool needs.
struct WorkerCtx {
    system: Arc<Nnlqp>,
    cache: Arc<ShardedLru>,
    flights: Arc<SingleFlight<CacheKey, Result<FlightOutcome, ServeError>>>,
    metrics: Arc<ServeMetrics>,
    retrain: Arc<RetrainShared>,
    shadow: Option<Arc<Shadow>>,
    events: Option<Arc<EventLog>>,
    farm_wait: Option<Duration>,
    clock: Arc<TraceClock>,
}

struct WriterShared {
    stop: Mutex<bool>,
    wake: Condvar,
}

/// The concurrent query service. Share it across client threads with an
/// `Arc`; call [`LatencyService::shutdown`] (or drop it) to drain and
/// snapshot.
pub struct LatencyService {
    system: Arc<Nnlqp>,
    cfg: ServeConfig,
    memo: ResolveMemo,
    cache: Arc<ShardedLru>,
    flights: Arc<SingleFlight<CacheKey, Result<FlightOutcome, ServeError>>>,
    metrics: Arc<ServeMetrics>,
    clock: Arc<TraceClock>,
    exemplars: Arc<ExemplarReservoir>,
    /// Built once at start and only read after: `resolve` takes no lock.
    platforms: PlatformTable,
    queue: Arc<Queue<Job>>,
    retrain: Arc<RetrainShared>,
    shadow: Option<Arc<Shadow>>,
    events: Option<Arc<EventLog>>,
    writer: Option<Arc<WriterShared>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    stopped: AtomicBool,
    /// Last, so that it drops after every field above it.
    _release: ReleaseFreedHeap,
}

impl LatencyService {
    /// Spawn workers (and the retrain loop and metrics writer, when
    /// enabled) and start accepting queries.
    pub fn start(system: Arc<Nnlqp>, cfg: ServeConfig) -> Self {
        let cache = Arc::new(ShardedLru::new(cfg.cache_capacity, cfg.cache_shards));
        let flights = Arc::new(SingleFlight::new());
        // Serve-tier series live next to the facade's query-stage metrics
        // in the system's registry, so one snapshot covers the stack.
        let metrics = Arc::new(ServeMetrics::new(system.registry()));
        let shadow = cfg
            .monitor
            .map(|m| Arc::new(Shadow::new(m, Arc::clone(system.registry()))));
        // The retrain loop runs when there is any trigger for it: the
        // sample-count cadence, or drift alerts from the monitor.
        let retrains =
            (cfg.retrain_after > 0 || shadow.is_some()) && !cfg.retrain_platforms.is_empty();
        let retrain = Arc::new(RetrainShared {
            runs: retrains,
            state: Mutex::new(RetrainState::default()),
            wake: Condvar::new(),
        });
        let events =
            (cfg.event_log_capacity > 0).then(|| Arc::new(EventLog::new(cfg.event_log_capacity)));
        let clock = Arc::new(TraceClock::new());
        let exemplars = Arc::new(ExemplarReservoir::new(EXEMPLARS_PER_CLASS));
        let platforms = platform_table(&system);
        let queue = Arc::new(Queue::new(cfg.queue_depth.max(1)));
        let ctx = Arc::new(WorkerCtx {
            system: Arc::clone(&system),
            cache: Arc::clone(&cache),
            flights: Arc::clone(&flights),
            metrics: Arc::clone(&metrics),
            retrain: Arc::clone(&retrain),
            shadow: shadow.clone(),
            events: events.clone(),
            farm_wait: cfg.farm_wait,
            clock: Arc::clone(&clock),
        });
        let mut threads = Vec::new();
        for i in 0..cfg.workers.max(1) {
            threads.push(
                std::thread::Builder::new()
                    .name(format!("nnlqp-serve-worker-{i}"))
                    .spawn(worker_loop(Arc::clone(&queue), Arc::clone(&ctx)))
                    .expect("spawn worker"),
            );
        }
        if retrains {
            threads.push(
                std::thread::Builder::new()
                    .name("nnlqp-serve-retrain".to_string())
                    .spawn(retrain_loop(RetrainCtx {
                        system: Arc::clone(&system),
                        shared: Arc::clone(&retrain),
                        metrics: Arc::clone(&metrics),
                        shadow: shadow.clone(),
                        events: events.clone(),
                        threshold: cfg.retrain_after,
                        platforms: cfg.retrain_platforms.clone(),
                        train: cfg.train,
                    }))
                    .expect("spawn retrain loop"),
            );
        }
        let writer = cfg.metrics_path.as_ref().map(|path| {
            let shared = Arc::new(WriterShared {
                stop: Mutex::new(false),
                wake: Condvar::new(),
            });
            threads.push(
                std::thread::Builder::new()
                    .name("nnlqp-serve-metrics".to_string())
                    .spawn(metrics_writer_loop(
                        Arc::clone(system.registry()),
                        Arc::clone(&shared),
                        path.clone(),
                        cfg.metrics_every.max(Duration::from_millis(10)),
                    ))
                    .expect("spawn metrics writer"),
            );
            shared
        });
        LatencyService {
            system,
            cfg,
            memo: ResolveMemo::new(),
            cache,
            flights,
            metrics,
            clock,
            exemplars,
            platforms,
            queue,
            retrain,
            shadow,
            events,
            writer,
            threads: Mutex::new(threads),
            stopped: AtomicBool::new(false),
            _release: ReleaseFreedHeap,
        }
    }

    /// Serve one latency query. `model` is shared, never deep-copied
    /// (unless the batch size requires rebatching).
    ///
    /// Tracing is always on: the request's stage boundaries feed the
    /// wall-time histograms, the exemplar reservoir and the event log
    /// straight from its [`TraceContext`], which lives on the stack, so a
    /// hot or database hit allocates nothing.
    pub fn query(
        &self,
        model: &Arc<Graph>,
        platform: &str,
        batch: u32,
    ) -> Result<Served, ServeError> {
        let mut ctx = TraceContext::begin(&self.clock);
        self.serve(model, platform, batch, &mut ctx).0
    }

    /// [`LatencyService::query`] returning the request's full trace
    /// alongside the answer: the same bookkeeping, plus the one
    /// allocation that freezes the trace into a [`RequestTrace`].
    ///
    /// The trace's stage durations tile its end-to-end latency exactly
    /// (see `nnlqp_obs::trace`), and the request has already been fed to
    /// the wall-time histograms and the exemplar reservoir.
    pub fn query_traced(
        &self,
        model: &Arc<Graph>,
        platform: &str,
        batch: u32,
    ) -> (Result<Served, ServeError>, RequestTrace) {
        let mut ctx = TraceContext::begin(&self.clock);
        let (res, class) = self.serve(model, platform, batch, &mut ctx);
        (res, ctx.finish(class))
    }

    /// Answer one request into `ctx`, then record it — the one exit
    /// every request leaves by: its terminal counter, served-latency and
    /// trace histograms, exemplar offer and `query` event, each once.
    /// Returns the answer and its terminal class.
    fn serve(
        &self,
        model: &Arc<Graph>,
        platform: &str,
        batch: u32,
        ctx: &mut TraceContext,
    ) -> (Result<Served, ServeError>, &'static str) {
        self.metrics.requests();
        let (res, name) = match self.resolve(platform) {
            Ok((binding, id)) => (
                self.query_impl(model, binding, id, batch, ctx),
                Some(binding.name),
            ),
            Err(e) => {
                ctx.stage("resolve", &self.clock);
                (Err(e), None)
            }
        };
        let (class, counter, source) = outcome(&res);
        self.metrics.terminal(counter);
        if let Ok(s) = &res {
            self.metrics.observe_latency(s.latency_ms);
        }
        self.metrics.record_trace(ctx);
        self.exemplars.offer(ctx, class);
        if let Some(ev) = &self.events {
            // The caller's string, borrowed from the registry when it is
            // the canonical name; an alias or unknown name is copied.
            let platform = match name {
                Some(name) if name == platform => Cow::Borrowed(name),
                _ => Cow::Owned(platform.to_owned()),
            };
            let outcome = match &res {
                Ok(s) => QueryOutcome::Served {
                    latency_ms: s.latency_ms,
                    approximate: s.approximate,
                    coalesced: s.coalesced,
                },
                Err(_) => QueryOutcome::Failed { error: class },
            };
            ev.query(QueryEvent {
                platform,
                batch,
                source,
                outcome,
                request_id: ctx.request_id(),
                wall_ms: ctx.total_ns() as f64 / 1.0e6,
            });
        }
        (res, class)
    }

    /// The request's answer, its stages marked into `ctx`; [`Self::serve`]
    /// records it.
    fn query_impl(
        &self,
        model: &Arc<Graph>,
        binding: &PlatformBinding,
        platform_id: PlatformId,
        batch: u32,
        ctx: &mut TraceContext,
    ) -> Result<Served, ServeError> {
        // A repeat submitter's hash comes from the identity memo; anyone
        // else pays for one rebatch + Merkle pass here and keeps the graph
        // it built in case the request falls through both tiers.
        let (hash, built) = match self.memo.get(model, batch) {
            Some(hash) => {
                self.metrics.resolve_memo_hits();
                (hash, None)
            }
            None => {
                self.metrics.resolve_memo_misses();
                match effective_graph(model, batch) {
                    Ok(graph) => {
                        let hash = graph_hash(&graph);
                        self.memo.insert(model, batch, hash);
                        (hash, Some(graph))
                    }
                    Err(e) => {
                        ctx.stage("resolve", &self.clock);
                        return Err(e);
                    }
                }
            }
        };
        let key = CacheKey {
            graph_hash: hash,
            platform: Arc::clone(&binding.canonical),
            batch,
        };
        ctx.stage("resolve", &self.clock);

        // Tier 1: hot cache.
        let hot = self.cache.get(&key);
        ctx.stage("hot_cache", &self.clock);
        if let Some(ms) = hot {
            return Ok(Served {
                latency_ms: ms,
                source: Source::HotCache,
                approximate: false,
                coalesced: false,
            });
        }

        // Tier 2: the evolving database; promote hits into the LRU.
        let db_rec = self
            .system
            .db
            .lookup_latency(key.graph_hash, platform_id, batch);
        ctx.stage("db_lookup", &self.clock);
        if let Some(rec) = db_rec {
            self.cache.insert(key, rec.cost_ms);
            self.metrics.set_hot_cache_len(self.cache.len() as f64);
            // Database answers are measurement-backed: shadow-evaluate
            // them on the sampling cadence.
            if let Some(shadow) = &self.shadow {
                let graph = self.materialise(built, model, batch, ctx);
                shadow.observe(
                    &self.system,
                    self.events.as_deref(),
                    &self.retrain,
                    &binding.canonical,
                    &graph,
                    rec.cost_ms,
                );
                ctx.stage("shadow_eval", &self.clock);
            }
            return Ok(Served {
                latency_ms: rec.cost_ms,
                source: Source::Database,
                approximate: false,
                coalesced: false,
            });
        }

        // Neither tier answered: from here on the request needs the graph
        // itself, not just its hash.
        let graph = self.materialise(built, model, batch, ctx);

        // Strict-mode admission gate: serving this request means touching
        // the farm (or the predictor). Run the analyzer first — IR lints and
        // memory feasibility, no fusion or execution — once per miss, and
        // turn error-severity findings (a malformed graph, one the store
        // cannot hold, or one that cannot fit the device) away before any
        // measurement or database write. The worker measures through
        // `query_measured_traced`, which does not admit again. A hit never
        // reaches this point: strict is fixed at build time, so everything
        // cached or stored was admitted.
        if self.system.strict() {
            let report = self
                .system
                .analyze_admission(&graph, binding.platform.spec());
            ctx.stage("admission", &self.clock);
            if report.has_errors() {
                return Err(ServeError::LintRejected(report.render_text()));
            }
        }

        // Tier 3: graceful degradation under measurement backlog. The
        // facade errs when no predictor head covers the platform, and the
        // request falls through to measurement.
        if self.backlog() >= self.cfg.degrade_backlog {
            let mut mark = |stage| ctx.stage(stage, &self.clock);
            let predicted =
                self.system
                    .predict_effective_staged(&graph, &binding.canonical, &mut mark);
            if let Ok(p) = predicted {
                return Ok(Served {
                    latency_ms: p.latency_ms,
                    source: Source::Predicted,
                    approximate: true,
                    coalesced: false,
                });
            }
        }

        // Tier 4: measure, coalescing concurrent misses on the key.
        match self.flights.begin(&key) {
            Role::Follower(flight) => {
                self.metrics.coalesced();
                self.settle(flight.wait(), true, ctx)
            }
            Role::Leader(flight) => {
                // Double-check: the previous flight for this key may have
                // completed between our cache miss and begin(). Workers
                // fill the cache BEFORE completing, so a re-check here
                // makes "one measurement per cached key" airtight.
                if let Some(ms) = self.cache.get(&key) {
                    self.flights.complete(
                        &key,
                        Ok(FlightOutcome {
                            latency_ms: ms,
                            marks: [None; WORKER_MARKS],
                        }),
                    );
                    ctx.stage("hot_cache", &self.clock);
                    return Ok(Served {
                        latency_ms: ms,
                        source: Source::HotCache,
                        approximate: false,
                        coalesced: false,
                    });
                }
                let enqueued = self
                    .queue
                    .try_push(Job {
                        key: key.clone(),
                        platform: binding.platform.clone(),
                        graph,
                        enqueued_ns: self.clock.now_ns(),
                    })
                    .map_err(|e| match e {
                        PushError::Full(_) => ServeError::Overloaded,
                        PushError::Closed(_) => ServeError::ShuttingDown,
                    });
                ctx.stage("enqueue", &self.clock);
                if let Err(e) = enqueued {
                    // Publish the rejection so coalesced followers settle
                    // the same way instead of hanging.
                    self.flights.complete(&key, Err(e.clone()));
                    return Err(e);
                }
                self.settle(flight.wait(), false, ctx)
            }
        }
    }

    /// The effective graph of a request past the point where its hash
    /// alone would do: the one the front door built on a memo miss, else
    /// built now — the rebatch a memo hit skipped, charged to `resolve`.
    fn materialise(
        &self,
        built: Option<Arc<Graph>>,
        model: &Arc<Graph>,
        batch: u32,
        ctx: &mut TraceContext,
    ) -> Arc<Graph> {
        built.unwrap_or_else(|| {
            // Only successes are memoised and a memoised graph cannot
            // change, so what rebatched before rebatches again.
            let graph = effective_graph(model, batch).expect("memoised (model, batch) resolves");
            ctx.stage("resolve", &self.clock);
            graph
        })
    }

    fn settle(
        &self,
        outcome: Result<FlightOutcome, ServeError>,
        coalesced: bool,
        ctx: &mut TraceContext,
    ) -> Result<Served, ServeError> {
        // A follower's whole wait is one undecomposable stage — the
        // worker's marks may predate its join, so splicing them would
        // mis-tile. The leader owns the flight end to end: its wait *is*
        // the worker's stages, spliced from their ticks on the shared
        // clock (clamped non-decreasing), with the wakeup remainder as
        // `response`.
        if coalesced {
            ctx.stage("coalesce_wait", &self.clock);
        } else {
            if let Ok(out) = &outcome {
                for (name, tick) in out.marks.into_iter().flatten() {
                    ctx.stage_at(name, tick);
                }
            }
            ctx.stage("response", &self.clock);
        }
        outcome.map(|out| Served {
            latency_ms: out.latency_ms,
            source: Source::Measured,
            approximate: false,
            coalesced,
        })
    }

    /// The binding of `platform` and its db row, which the platform's
    /// first request creates.
    fn resolve(&self, platform: &str) -> Result<(&PlatformBinding, PlatformId), ServeError> {
        let Some(binding) = self.platforms.get(platform) else {
            return Err(ServeError::UnknownPlatform(platform.to_string()));
        };
        let id = *binding.id.get_or_init(|| {
            let spec = binding.platform.spec();
            let db = &self.system.db;
            db.get_or_create_platform(&spec.hardware, &spec.software, spec.dtype.name())
        });
        Ok((binding, id))
    }

    /// Jobs waiting for a worker.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Current metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Hot-cache occupancy.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Per-platform shadow-evaluation quality (`None` when monitoring is
    /// disabled).
    pub fn quality(&self) -> Option<QualityReport> {
        self.shadow.as_ref().map(|s| s.monitor.report())
    }

    /// The structured event log (`None` when disabled).
    pub fn events(&self) -> Option<&Arc<EventLog>> {
        self.events.as_ref()
    }

    /// The exemplar reservoir: the K slowest full request traces per
    /// terminal class, for Chrome-trace export and tail forensics.
    pub fn exemplars(&self) -> &Arc<ExemplarReservoir> {
        &self.exemplars
    }

    /// The monotonic clock every trace in this service ticks on.
    pub fn trace_clock(&self) -> &Arc<TraceClock> {
        &self.clock
    }

    /// The wrapped facade (database, counters, predictor).
    pub fn system(&self) -> &Arc<Nnlqp> {
        &self.system
    }

    /// Stop intake, drain the queue, join every background thread and
    /// write the final metrics / event-log files when configured. Durable
    /// stores also get a final WAL seal + compaction. Then a thread that
    /// ended in a panic is an error naming it. Idempotent: a second call
    /// returns `Ok(())`.
    pub fn shutdown(&self) -> std::io::Result<()> {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return Ok(());
        }
        // Closing the queue lets workers drain remaining jobs, then exit —
        // every open flight still completes.
        self.queue.close();
        {
            let mut st = self.retrain.state.lock().recover();
            st.stop = true;
        }
        self.retrain.wake.notify_all();
        if let Some(w) = &self.writer {
            *w.stop.lock().recover() = true;
            w.wake.notify_all();
        }
        let threads: Vec<JoinHandle<()>> = self.threads.lock().recover().drain(..).collect();
        let mut died = Vec::new();
        for t in threads {
            let name = t.thread().name().unwrap_or("unnamed").to_string();
            if t.join().is_err() {
                died.push(name);
            }
        }
        // Final observability snapshots, after every thread has drained —
        // these see the complete run.
        if let Some(path) = &self.cfg.metrics_path {
            let text = to_prometheus(&self.system.registry().snapshot());
            write_atomic(path, text.as_bytes())?;
        }
        if let (Some(path), Some(events)) = (&self.cfg.events_path, &self.events) {
            write_atomic(path, events.to_jsonl().as_bytes())?;
        }
        // Durable stores get a closing fold: stop the background
        // compactor first so the final pass cannot race it, then seal the
        // WAL tail into segments. Reopening afterwards replays segments
        // only — no WAL tail to scan.
        if self.system.db.is_durable() {
            if self.system.stop_compactor().is_err() {
                died.push("nnlqp-db-compactor".to_string());
            }
            self.system.db.compact()?;
        }
        match died.as_slice() {
            [] => Ok(()),
            _ => Err(std::io::Error::other(format!(
                "background threads died: {}",
                died.join(", ")
            ))),
        }
    }
}

impl Drop for LatencyService {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Gives the heap a dropped service freed back to the OS. The store's
/// rows are allocated on the worker threads, so they live in the
/// workers' malloc arenas. glibc returns a freed arena top from `free`
/// only above a trim threshold that moves with the largest block freed
/// so far, so how much of the rows stays resident after the drop
/// depended on how the threads interleaved: 0 to 3.7 MiB in the
/// benchmark's bootstrap. `malloc_trim(0)` once every other field is
/// gone releases every free page inside every arena and the main heap's
/// top. It leaves a thread arena's top, 0 to 2.3 MiB there.
struct ReleaseFreedHeap;

impl Drop for ReleaseFreedHeap {
    fn drop(&mut self) {
        // Other allocators keep their own policy.
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        {
            extern "C" {
                fn malloc_trim(pad: usize) -> std::ffi::c_int;
            }
            // SAFETY: `malloc_trim` takes each arena's own lock and hands
            // only pages that no allocation holds back to the kernel; it
            // touches no memory the program owns and has no precondition
            // on its argument.
            unsafe {
                malloc_trim(0);
            }
        }
    }
}

/// Write `bytes` to `path` through a temp file + rename, so readers never
/// observe a torn snapshot.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

fn worker_loop(queue: Arc<Queue<Job>>, ctx: Arc<WorkerCtx>) -> impl FnOnce() {
    move || {
        while let Some(job) = queue.pop(None) {
            // Unwind safety: what a job shares with later jobs is the state
            // behind `ctx`. Its locks either recover from poisoning, every
            // update leaving their data whole, or `.expect`, so a later job
            // panics in turn and is failed here too, never hung. The farm
            // returns a leased device on unwind. What the unwind skips is
            // publishing the flight, done here; after a shadow panic the
            // flight has published and its key is stored, so no flight is
            // open under it and `complete` finds nothing.
            if let Err(panic) = catch_unwind(AssertUnwindSafe(|| run_job(&ctx, &queue, &job))) {
                ctx.metrics.worker_panics();
                let msg = panic_message(&*panic);
                ctx.flights.complete(
                    &job.key,
                    Err(ServeError::Measurement(format!("worker panicked: {msg}"))),
                );
            }
        }
    }
}

/// Measure one job, store and publish it, then shadow-evaluate it.
fn run_job(ctx: &WorkerCtx, queue: &Queue<Job>, job: &Job) {
    let dequeued_ns = ctx.clock.now_ns();
    ctx.metrics
        .observe_queue_wait(dequeued_ns.saturating_sub(job.enqueued_ns) as f64 / 1.0e6);
    ctx.metrics.set_queue_depth(queue.len() as f64);
    // The flight's stage marks, on the stack: a mark past the array's end
    // is dropped, its time joining the next stage, so the trace still
    // tiles.
    let mut marks = [None; WORKER_MARKS];
    marks[0] = Some(("queue_wait", dequeued_ns));
    let mut len = 1;
    let mut mark = |name| {
        if let Some(slot) = marks.get_mut(len) {
            *slot = Some((name, ctx.clock.now_ns()));
            len += 1;
        }
    };
    let outcome = match ctx.system.query_measured_traced(
        &job.graph,
        job.key.graph_hash,
        &job.platform,
        job.key.batch,
        ctx.farm_wait,
        &mut mark,
    ) {
        Ok(qr) => {
            ctx.cache.insert(job.key.clone(), qr.latency_ms);
            ctx.metrics.set_hot_cache_len(ctx.cache.len() as f64);
            ctx.metrics.measured();
            ctx.retrain.nudge(|st| st.fresh += 1);
            mark("publish");
            Ok(FlightOutcome {
                latency_ms: qr.latency_ms,
                marks,
            })
        }
        Err(e) => Err(e.into()),
    };
    let measured_ms = outcome.as_ref().ok().map(|o| o.latency_ms);
    // Database and cache are filled before the flight publishes:
    // anyone arriving after this resolves as a hit, so each key is
    // measured at most once per flight.
    ctx.flights.complete(&job.key, outcome);
    // Fresh ground truth: shadow-evaluate it on the sampling
    // cadence, after the flight published, so no caller waits on
    // a prediction it did not ask for and a predictor panic cannot
    // strand the flight.
    if let (Some(shadow), Some(ms)) = (&ctx.shadow, measured_ms) {
        shadow.observe(
            &ctx.system,
            ctx.events.as_deref(),
            &ctx.retrain,
            &job.key.platform,
            &job.graph,
            ms,
        );
    }
}

struct RetrainCtx {
    system: Arc<Nnlqp>,
    shared: Arc<RetrainShared>,
    metrics: Arc<ServeMetrics>,
    shadow: Option<Arc<Shadow>>,
    events: Option<Arc<EventLog>>,
    /// Fresh-sample cadence; 0 means drift alerts are the only trigger.
    threshold: usize,
    platforms: Vec<String>,
    train: TrainPredictorConfig,
}

fn retrain_loop(ctx: RetrainCtx) -> impl FnOnce() {
    move || {
        let names: Vec<&str> = ctx.platforms.iter().map(String::as_str).collect();
        // Monitor state is keyed by canonical platform names; resolve the
        // configured (possibly aliased) names once.
        let canonical: Vec<String> = ctx
            .platforms
            .iter()
            .map(|p| Platform::by_name(p).map_or_else(|| p.clone(), |h| h.name().to_string()))
            .collect();
        let mut st = ctx.shared.state.lock().recover();
        loop {
            let drift = st.drift;
            let cadence = ctx.threshold > 0 && st.fresh >= ctx.threshold;
            if drift || cadence {
                let pending = st.fresh;
                st.drift = false;
                st.fresh = 0;
                drop(st);
                let trigger = if drift { "drift" } else { "cadence" };
                if let Some(ev) = &ctx.events {
                    ev.emit(
                        "retrain_start",
                        [
                            ("trigger", trigger.into()),
                            ("pending_fresh", pending.into()),
                        ],
                    );
                }
                // The worker's job-boundary policy: a retrain that panics
                // is counted and logged, and the loop waits for its next
                // trigger. The retrain holds none of the loop's locks and
                // the facade's predictor lock recovers from poisoning, so
                // the predictor installed last keeps serving.
                let run = || retrain(&ctx, &names, &canonical, drift, trigger);
                if let Err(panic) = catch_unwind(AssertUnwindSafe(run)) {
                    let registry = ctx.system.registry();
                    registry.counter(metric_names::RETRAIN_PANICS).inc();
                    if let Some(ev) = &ctx.events {
                        let msg = panic_message(&*panic).to_string();
                        ev.emit(
                            "retrain_panic",
                            [("trigger", trigger.into()), ("panic", msg.into())],
                        );
                    }
                }
                st = ctx.shared.state.lock().recover();
                continue;
            }
            if st.stop {
                break;
            }
            let tick = Duration::from_millis(20);
            st = ctx.shared.wake.wait_timeout(st, tick).recover().0;
        }
    }
}

/// One retrain: train and hot-swap the heads, then re-score the shadow
/// replay buffers under them.
fn retrain(
    ctx: &RetrainCtx,
    names: &[&str],
    canonical: &[String],
    drift: bool,
    trigger: &'static str,
) {
    // Training runs outside the lock; the trained heads are
    // hot-swapped atomically inside the facade.
    let trained = match ctx.system.train_predictor(names, ctx.train) {
        Ok(n) => {
            if n > 0 {
                ctx.metrics.retrained(n as u64);
                if drift {
                    ctx.metrics.drift_retrains();
                }
            }
            n
        }
        Err(_) => 0,
    };
    // Re-score the replay buffers under the new model so the
    // windows (and gauges) reflect the predictor now serving,
    // and record before/after quality per platform.
    if let Some(shadow) = &ctx.shadow {
        for platform in canonical {
            let before = shadow.monitor.windowed_mape(platform);
            let pairs: Vec<(f64, f64)> = shadow
                .replay_pairs(platform)
                .iter()
                .filter_map(|(g, measured)| {
                    ctx.system
                        .predict_effective(g, platform)
                        .ok()
                        .map(|p| (p.latency_ms, *measured))
                })
                .collect();
            let after = shadow.monitor.reset_window(platform, &pairs);
            if let Some(ev) = &ctx.events {
                let mut fields = vec![
                    ("platform", platform.clone().into()),
                    ("trigger", trigger.into()),
                    ("samples", (trained as u64).into()),
                ];
                if let Some(m) = before {
                    fields.push(("windowed_mape_before_pct", m.into()));
                }
                if let Some(m) = after {
                    fields.push(("windowed_mape_after_pct", m.into()));
                }
                ev.emit("retrain_finish", fields);
            }
        }
    } else if let Some(ev) = &ctx.events {
        ev.emit(
            "retrain_finish",
            [
                ("trigger", trigger.into()),
                ("samples", (trained as u64).into()),
            ],
        );
    }
}

fn metrics_writer_loop(
    registry: Arc<MetricsRegistry>,
    shared: Arc<WriterShared>,
    path: PathBuf,
    every: Duration,
) -> impl FnOnce() {
    move || {
        let mut stop = shared.stop.lock().recover();
        while !*stop {
            stop = shared.wake.wait_timeout(stop, every).recover().0;
            let text = to_prometheus(&registry.snapshot());
            let _ = write_atomic(&path, text.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp::PredictorKind;
    use nnlqp_models::ModelFamily;
    use nnlqp_obs::FieldValue;
    use nnlqp_sim::{DeviceFarm, PlatformSpec};

    const PLATFORM: &str = "gpu-T4-trt7.1-fp32";

    fn quick_system() -> Arc<Nnlqp> {
        Arc::new(
            Nnlqp::builder()
                .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 2))
                .reps(3)
                .build(),
        )
    }

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_depth: 8,
            cache_capacity: 64,
            cache_shards: 2,
            degrade_backlog: usize::MAX,
            ..Default::default()
        }
    }

    /// Seed the db with a family and train a small real predictor.
    fn trained_system() -> Arc<Nnlqp> {
        let system = quick_system();
        let models: Vec<Graph> = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 8, 3)
            .into_iter()
            .map(|m| m.graph)
            .collect();
        system
            .warm_cache(&models, &Platform::by_name(PLATFORM).unwrap(), 1)
            .unwrap();
        system
            .train_predictor(
                &[PLATFORM],
                TrainPredictorConfig {
                    epochs: 4,
                    hidden: 16,
                    gnn_layers: 2,
                    ..Default::default()
                },
            )
            .unwrap();
        system
    }

    #[test]
    fn miss_then_db_hit_then_hot_hit() {
        let svc = LatencyService::start(quick_system(), small_cfg());
        let g = Arc::new(ModelFamily::SqueezeNet.canonical().unwrap());
        let first = svc.query(&g, PLATFORM, 1).unwrap();
        assert_eq!(first.source, Source::Measured);
        assert!(!first.approximate);
        // The measurement also filled the hot cache.
        let second = svc.query(&g, PLATFORM, 1).unwrap();
        assert_eq!(second.source, Source::HotCache);
        assert_eq!(second.latency_ms, first.latency_ms);
        let m = svc.metrics();
        assert_eq!((m.requests, m.misses, m.hot_hits, m.measured), (2, 1, 1, 1));
        assert!(m.balanced());
    }

    #[test]
    fn db_hits_promote_into_cache() {
        let system = quick_system();
        // Seed the database out-of-band: the service's own cache is cold.
        system
            .query(
                &nnlqp::QueryParams::by_name(
                    ModelFamily::SqueezeNet.canonical().unwrap(),
                    1,
                    PLATFORM,
                )
                .unwrap(),
            )
            .unwrap();
        let svc = LatencyService::start(system, small_cfg());
        let g = Arc::new(ModelFamily::SqueezeNet.canonical().unwrap());
        assert_eq!(svc.query(&g, PLATFORM, 1).unwrap().source, Source::Database);
        assert_eq!(svc.query(&g, PLATFORM, 1).unwrap().source, Source::HotCache);
        assert!(svc.metrics().balanced());
    }

    #[test]
    fn invalid_requests_count_as_errors() {
        let svc = LatencyService::start(quick_system(), small_cfg());
        let g = Arc::new(ModelFamily::SqueezeNet.canonical().unwrap());
        assert!(matches!(
            svc.query(&g, "quantum-coprocessor", 1),
            Err(ServeError::UnknownPlatform(_))
        ));
        assert!(matches!(
            svc.query(&g, PLATFORM, 0),
            Err(ServeError::BadBatch(_))
        ));
        let m = svc.metrics();
        assert_eq!((m.requests, m.errors), (2, 2));
        assert!(m.balanced());
    }

    #[test]
    fn shutdown_is_idempotent_and_rejects_new_work() {
        let svc = LatencyService::start(quick_system(), small_cfg());
        let g = Arc::new(ModelFamily::SqueezeNet.canonical().unwrap());
        svc.query(&g, PLATFORM, 1).unwrap();
        svc.shutdown().unwrap();
        svc.shutdown().unwrap(); // idempotent
        assert!(matches!(
            svc.query(&g, PLATFORM, 4),
            Err(ServeError::ShuttingDown)
        ));
        assert_eq!(svc.system().db.stats().latencies, 1);
    }

    #[test]
    fn shutdown_finishes_its_work_then_names_a_thread_that_died() {
        let dir = std::env::temp_dir().join(format!("nnlqp-serve-died-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (metrics_path, events_path) = (dir.join("metrics.prom"), dir.join("events.jsonl"));
        let cfg = ServeConfig {
            metrics_path: Some(metrics_path.clone()),
            events_path: Some(events_path.clone()),
            ..small_cfg()
        };
        let svc = LatencyService::start(quick_system(), cfg);
        let doomed = std::thread::Builder::new()
            .name("nnlqp-serve-doomed".into())
            .spawn(|| panic!("a background thread panics"))
            .unwrap();
        svc.threads.lock().recover().push(doomed);
        let err = svc.shutdown().unwrap_err();
        assert_eq!(
            err.to_string(),
            "background threads died: nnlqp-serve-doomed"
        );
        assert!(metrics_path.exists() && events_path.exists());
        svc.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degrade_serves_predictions_under_backlog() {
        // degrade_backlog = 0: every cache/db miss degrades immediately.
        let cfg = ServeConfig {
            degrade_backlog: 0,
            ..small_cfg()
        };
        let svc = LatencyService::start(trained_system(), cfg);
        let fresh = Arc::new(
            nnlqp_models::generate_family(ModelFamily::SqueezeNet, 30, 99)
                .pop()
                .unwrap()
                .graph,
        );
        let served = svc.query(&fresh, PLATFORM, 1).unwrap();
        assert_eq!(served.source, Source::Predicted);
        assert!(served.approximate);
        let m = svc.metrics();
        assert_eq!((m.degraded, m.measured), (1, 0));
        assert!(m.balanced());
    }

    #[test]
    fn degrade_repeat_keys_hit_embed_cache() {
        let system = trained_system();
        let cfg = ServeConfig {
            degrade_backlog: 0,
            ..small_cfg()
        };
        let svc = LatencyService::start(Arc::clone(&system), cfg);
        let fresh = Arc::new(
            nnlqp_models::generate_family(ModelFamily::SqueezeNet, 30, 99)
                .pop()
                .unwrap()
                .graph,
        );
        // Degraded answers are not stored in the hot cache or the db, so
        // every repeat re-enters the predictor — where the embed cache
        // turns all but the first into head-only evaluations.
        let first = svc.query(&fresh, PLATFORM, 1).unwrap();
        let second = svc.query(&fresh, PLATFORM, 1).unwrap();
        let third = svc.query(&fresh, PLATFORM, 1).unwrap();
        assert_eq!(first.source, Source::Predicted);
        assert_eq!(second.latency_ms, first.latency_ms);
        assert_eq!(third.latency_ms, first.latency_ms);
        let snap = system.registry().snapshot();
        assert_eq!(snap.counter("predict.embed_cache_misses"), 1);
        assert!(
            snap.counter("predict.embed_cache_hits") >= 2,
            "repeat degraded keys must be embed-cache hits"
        );
    }

    /// Measure six fresh SqueezeNets with a retrain of `arch` every four
    /// measurements, and wait (bounded) for the first hot-swap.
    fn retrain_after_four(arch: PredictorKind) -> (Arc<Nnlqp>, LatencyService) {
        let system = quick_system();
        assert!(system.predictor_handle().is_none());
        let cfg = ServeConfig {
            retrain_after: 4,
            retrain_platforms: vec![PLATFORM.to_string()],
            train: TrainPredictorConfig {
                epochs: 2,
                hidden: 16,
                gnn_layers: 2,
                arch,
                ..Default::default()
            },
            ..small_cfg()
        };
        let svc = LatencyService::start(Arc::clone(&system), cfg);
        for m in nnlqp_models::generate_family(ModelFamily::SqueezeNet, 6, 5) {
            svc.query(&Arc::new(m.graph), PLATFORM, 1).unwrap();
        }
        // Retraining happens in the background; give it a bounded moment.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while svc.metrics().retrains == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        (system, svc)
    }

    #[test]
    fn retrain_loop_hot_swaps_predictor() {
        let (system, svc) = retrain_after_four(PredictorKind::Sage);
        let m = svc.metrics();
        assert!(m.retrains >= 1, "retrain loop never fired: {m:?}");
        assert!(m.retrain_samples >= 4);
        assert!(system
            .predictor_handle()
            .is_some_and(|h| h.head_of.contains_key(PLATFORM)));
        assert!(m.balanced());
    }

    #[test]
    fn retrain_loop_trains_the_configured_architecture() {
        let (system, svc) = retrain_after_four(PredictorKind::Transformer);
        let m = svc.metrics();
        assert!(m.retrains >= 1, "retrain loop never fired: {m:?}");
        assert_eq!(
            system.predictor_handle().map(|h| h.kind()),
            Some(PredictorKind::Transformer)
        );
    }

    #[test]
    fn shadow_eval_feeds_quality_report_and_events() {
        let cfg = ServeConfig {
            monitor: Some(MonitorConfig {
                sample_every: 1, // 100% sampling
                ..Default::default()
            }),
            ..small_cfg()
        };
        let svc = LatencyService::start(trained_system(), cfg);
        for m in nnlqp_models::generate_family(ModelFamily::SqueezeNet, 6, 11) {
            svc.query(&Arc::new(m.graph), PLATFORM, 1).unwrap();
        }
        let report = svc.quality().expect("monitor enabled");
        let q = report.platforms.get(PLATFORM).expect("platform shadowed");
        assert!(q.samples >= 1, "no shadow pairs recorded: {report:?}");
        assert!(q.windowed_mape_pct.is_finite());
        let events = svc.events().expect("event log enabled").snapshot();
        assert!(events.iter().any(|e| e.kind == "query"));
        assert!(events.iter().any(|e| e.kind == "shadow_eval"));
        // Registry carries the labelled quality gauges.
        let snap = svc.system().registry().snapshot();
        let mape_key =
            nnlqp_obs::labelled(nnlqp_obs::monitor_metric_names::WINDOWED_MAPE, PLATFORM);
        assert!(
            snap.gauges.contains_key(&mape_key),
            "gauges: {:?}",
            snap.gauges.keys()
        );
    }

    #[test]
    fn query_lifecycle_events_cover_errors() {
        let svc = LatencyService::start(quick_system(), small_cfg());
        let g = Arc::new(ModelFamily::SqueezeNet.canonical().unwrap());
        let _ = svc.query(&g, "quantum-coprocessor", 1);
        svc.query(&g, PLATFORM, 1).unwrap();
        let events = svc.events().unwrap().snapshot();
        let sources: Vec<String> = events
            .iter()
            .filter(|e| e.kind == "query")
            .filter_map(|e| match e.field("source") {
                Some(FieldValue::Str(s)) => Some(s.to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(sources, ["error", "measured"]);
    }

    #[test]
    fn query_events_record_the_callers_platform_string() {
        // A canonical name is borrowed from the registry, an alias or an
        // unknown name copied: either way the event says what was asked.
        let svc = LatencyService::start(quick_system(), small_cfg());
        let g = Arc::new(ModelFamily::SqueezeNet.canonical().unwrap());
        svc.query(&g, "cpu-ppl2-fp32", 1).unwrap();
        svc.query(&g, "cpu-openppl-fp32", 1).unwrap();
        let _ = svc.query(&g, "quantum-coprocessor", 1);
        let platforms: Vec<(String, Option<FieldValue>)> = svc
            .events()
            .unwrap()
            .snapshot()
            .iter()
            .filter(|e| e.kind == "query")
            .map(|e| match e.field("platform") {
                Some(FieldValue::Str(s)) => (s.to_string(), e.field("error").cloned()),
                other => panic!("no platform string: {other:?}"),
            })
            .collect();
        assert_eq!(
            platforms,
            [
                ("cpu-ppl2-fp32".to_string(), None),
                ("cpu-openppl-fp32".to_string(), None),
                (
                    "quantum-coprocessor".to_string(),
                    Some("unknown_platform".into())
                ),
            ]
        );
        // The alias and its canonical name share one cache entry.
        assert_eq!(svc.metrics().hot_hits, 1);
    }

    #[test]
    fn the_deepest_path_tiles_and_lists_its_stages_in_order() {
        // A measured leader after a memo hit, strict admission on: the
        // most stage marks any request makes. Querying one `Arc` on a
        // second platform hits the memo and misses both tiers.
        let system = Arc::new(
            Nnlqp::builder()
                .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 2))
                .reps(3)
                .strict(true)
                .build(),
        );
        let svc = LatencyService::start(system, small_cfg());
        let g = Arc::new(ModelFamily::SqueezeNet.canonical().unwrap());
        svc.query(&g, PLATFORM, 1).unwrap();
        let (res, trace) = svc.query_traced(&g, "cpu-openppl-fp32", 1);
        assert_eq!(res.unwrap().source, Source::Measured);
        assert_eq!(svc.metrics().measured, 2);
        assert!(trace.tiles_exactly(), "{trace:?}");
        let stages: Vec<&str> = trace.stages.iter().map(|s| s.name).collect();
        assert_eq!(
            stages,
            [
                "resolve",
                "hot_cache",
                "db_lookup",
                "resolve",
                "admission",
                "enqueue",
                "queue_wait",
                "measure",
                "db_write",
                "publish",
                "response",
            ]
        );
        assert!(stages.len() <= nnlqp_obs::INLINE_MARKS);
    }

    #[test]
    fn gauges_track_queue_and_cache() {
        let svc = LatencyService::start(quick_system(), small_cfg());
        let g = Arc::new(ModelFamily::SqueezeNet.canonical().unwrap());
        svc.query(&g, PLATFORM, 1).unwrap();
        let snap = svc.system().registry().snapshot();
        assert_eq!(snap.gauge(crate::metrics::metric_names::HOT_CACHE_LEN), 1.0);
        // Queue fully drained by the time the flight settled.
        assert_eq!(snap.gauge(crate::metrics::metric_names::QUEUE_DEPTH), 0.0);
    }

    #[test]
    fn shutdown_writes_metrics_and_events_files() {
        let dir = std::env::temp_dir().join(format!("nnlqp-serve-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let metrics_path = dir.join("metrics.prom");
        let events_path = dir.join("events.jsonl");
        let cfg = ServeConfig {
            monitor: Some(MonitorConfig::default()),
            metrics_path: Some(metrics_path.clone()),
            events_path: Some(events_path.clone()),
            metrics_every: Duration::from_millis(20),
            ..small_cfg()
        };
        let svc = LatencyService::start(quick_system(), cfg);
        let g = Arc::new(ModelFamily::SqueezeNet.canonical().unwrap());
        svc.query(&g, PLATFORM, 1).unwrap();
        svc.shutdown().unwrap();
        let prom = std::fs::read_to_string(&metrics_path).unwrap();
        let samples = nnlqp_obs::parse_prometheus(&prom).unwrap();
        assert!(samples
            .iter()
            .any(|s| s.name == "nnlqp_serve_requests" && s.value == 1.0));
        let jsonl = std::fs::read_to_string(&events_path).unwrap();
        assert!(!jsonl.trim().is_empty());
        for line in jsonl.lines() {
            line.parse::<nnlqp_ir::json::Value>()
                .expect("event line parses as JSON");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drift_alert_fires_and_retrain_recovers() {
        // Degraded predictor: zero epochs leaves randomly initialised
        // heads, so shadow evals see garbage and drift must fire; the
        // drift-triggered retrain then trains properly and the windowed
        // MAPE measured over the replayed pairs must fall back under the
        // threshold.
        let system = quick_system();
        let models: Vec<Graph> = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 10, 3)
            .into_iter()
            .map(|m| m.graph)
            .collect();
        system
            .warm_cache(&models, &Platform::by_name(PLATFORM).unwrap(), 1)
            .unwrap();
        system
            .train_predictor(
                &[PLATFORM],
                TrainPredictorConfig {
                    epochs: 0,
                    ..Default::default()
                },
            )
            .unwrap();
        let monitor = MonitorConfig {
            sample_every: 1,
            min_samples: 4,
            mape_threshold_pct: 50.0,
            ..Default::default()
        };
        let cfg = ServeConfig {
            monitor: Some(monitor),
            retrain_after: 0, // drift is the ONLY trigger
            retrain_platforms: vec![PLATFORM.to_string()],
            train: TrainPredictorConfig {
                epochs: 40,
                hidden: 32,
                gnn_layers: 2,
                ..Default::default()
            },
            ..small_cfg()
        };
        let svc = LatencyService::start(Arc::clone(&system), cfg);
        // Serve the warmed models: db hits, each shadow-evaluated.
        for g in &models {
            svc.query(&Arc::new(g.clone()), PLATFORM, 1).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        let events = loop {
            let events = svc.events().unwrap().snapshot();
            if events.iter().any(|e| e.kind == "retrain_finish") {
                break events;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "drift never triggered a retrain: {:?}",
                svc.metrics()
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        assert!(svc.metrics().retrains >= 1);
        assert!(events.iter().any(|e| e.kind == "drift_alert"));
        let finish = events
            .iter()
            .rev()
            .find(|e| e.kind == "retrain_finish")
            .expect("retrain_finish event");
        match finish.field("trigger") {
            Some(FieldValue::Str(s)) => assert_eq!(s, "drift"),
            other => panic!("missing trigger field: {other:?}"),
        }
        // Recovery: replayed windowed MAPE under the new model is below
        // the drift threshold again.
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            let report = svc.quality().unwrap();
            let q = report.platforms.get(PLATFORM);
            if q.is_some_and(|q| !q.drifting && q.windowed_mape_pct <= monitor.mape_threshold_pct) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "windowed MAPE never recovered: {report:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}
