//! Service metrics: terminal-outcome counters and a latency histogram,
//! registered in the workspace-wide [`MetricsRegistry`].
//!
//! Every request ends in exactly one terminal class — hot-cache hit,
//! database hit, measured miss, degraded prediction, rejection, or
//! validation error — and bumps that class's `Terminal` counter once, at
//! the service's one exit, so the counters balance against `requests` at
//! any quiescent point. `coalesced`, `measured` and the retrain counters
//! are informational overlays, not terminal classes.
//!
//! [`ServeMetrics`] holds pre-resolved handles into a registry — usually
//! the facade's own ([`crate::LatencyService::start`] passes
//! `system.registry()`), so one snapshot shows the serving tiers next to
//! the query-stage histograms.

use nnlqp_obs::{log_bounds, Counter, Gauge, Histogram, MetricsRegistry, TraceContext};
use std::sync::Arc;

/// Upper bucket bounds for served latencies, in milliseconds. Values above
/// the last bound land in the overflow bucket.
pub const HISTOGRAM_BOUNDS_MS: [f64; 15] = [
    0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0,
];

/// Every stage name the request tracer can mark (see
/// `service.rs`): each gets its own log-bucketed duration histogram, held
/// at the same index.
pub const STAGE_NAMES: [&str; 14] = [
    "resolve",
    "hot_cache",
    "db_lookup",
    "shadow_eval",
    "admission",
    "embed_cache",
    "predict_head",
    "enqueue",
    "queue_wait",
    "measure",
    "db_write",
    "publish",
    "response",
    "coalesce_wait",
];

/// Log-spaced bucket bounds for wall-clock durations, in milliseconds:
/// 1 µs to ~11.8 s at a √2 ratio (≈ ±20% quantile resolution), so p999
/// stays readable across the whole range — the linear
/// [`HISTOGRAM_BOUNDS_MS`] can't resolve the tail.
pub fn wall_bounds_ms() -> Vec<f64> {
    log_bounds(0.001, std::f64::consts::SQRT_2, 48)
}

/// Registry names of the serving layer's metrics.
pub mod metric_names {
    /// Counter: requests submitted (valid or not).
    pub const REQUESTS: &str = "serve.requests";
    /// Counter: served from the in-memory LRU.
    pub const HOT_HITS: &str = "serve.hot_hits";
    /// Counter: served from the evolving database.
    pub const DB_HITS: &str = "serve.db_hits";
    /// Counter: served by a farm measurement.
    pub const MISSES: &str = "serve.misses";
    /// Counter: requests that joined an existing flight (an overlay:
    /// each also counts its flight's terminal class).
    pub const COALESCED: &str = "serve.coalesced";
    /// Counter: farm measurements executed by the worker pool.
    pub const MEASURED: &str = "serve.measured";
    /// Counter: served an approximate prediction under backlog.
    pub const DEGRADED: &str = "serve.degraded";
    /// Counter: turned away (queue full or shutting down).
    pub const REJECTED: &str = "serve.rejected";
    /// Counter: rejected by the strict-mode admission analyzer before any
    /// measurement or database write.
    pub const LINT_REJECTED: &str = "serve.lint_rejected";
    /// Counter: invalid requests.
    pub const ERRORS: &str = "serve.errors";
    /// Counter: predictor retrains completed.
    pub const RETRAINS: &str = "serve.retrains";
    /// Counter: training samples consumed across retrains.
    pub const RETRAIN_SAMPLES: &str = "serve.retrain_samples";
    /// Counter: retrains triggered by a drift alert (subset of
    /// `serve.retrains`; the rest fired on the sample-count cadence).
    pub const DRIFT_RETRAINS: &str = "serve.drift_retrains";
    /// Counter: requests whose graph hash came from the identity memo —
    /// no rebatch, no Merkle pass (see `crate::resolve`).
    pub const RESOLVE_MEMO_HITS: &str = "serve.resolve_memo_hits";
    /// Counter: requests that rebatched and hashed their graph at the
    /// front door (including the ones that failed to). Hits over
    /// hits + misses is the share of requests that skipped O(graph) work.
    pub const RESOLVE_MEMO_MISSES: &str = "serve.resolve_memo_misses";
    /// Counter: measurement jobs that panicked on a worker. Each failed
    /// its flight with a measurement error and the worker carried on.
    pub const WORKER_PANICS: &str = "serve.worker_panics";
    /// Counter: retrains that panicked. Each was logged as a
    /// `retrain_panic` event and the loop waited for its next trigger.
    /// Registered on the first panic, so a run without one exports no
    /// such series.
    pub const RETRAIN_PANICS: &str = "serve.retrain_panics";
    /// Histogram: served latencies in milliseconds.
    pub const LATENCY_MS: &str = "serve.latency_ms";
    /// Histogram (log buckets): end-to-end request wall time in
    /// milliseconds, from trace begin to last stage boundary.
    pub const REQUEST_WALL_MS: &str = "serve.request_wall_ms";
    /// Histogram (log buckets): enqueue→dequeue wait on the measurement
    /// queue, milliseconds.
    pub const QUEUE_WAIT_MS: &str = "serve.queue_wait_ms";
    /// Histogram-name prefix (log buckets): per-stage wall time in
    /// milliseconds; one series per [`super::STAGE_NAMES`] entry.
    pub const STAGE_MS_PREFIX: &str = "serve.stage_ms.";
    /// Gauge: jobs waiting on the measurement queue.
    pub const QUEUE_DEPTH: &str = "serve.queue_depth";
    /// Gauge: hot-cache entries.
    pub const HOT_CACHE_LEN: &str = "serve.hot_cache_len";
}

/// The terminal counters: every request bumps exactly one, once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Terminal {
    HotHits,
    DbHits,
    Misses,
    Degraded,
    Rejected,
    LintRejected,
    Errors,
}

/// Registry name of each [`Terminal`] counter, in declaration order.
const TERMINAL_NAMES: [&str; 7] = [
    metric_names::HOT_HITS,
    metric_names::DB_HITS,
    metric_names::MISSES,
    metric_names::DEGRADED,
    metric_names::REJECTED,
    metric_names::LINT_REJECTED,
    metric_names::ERRORS,
];

/// Live handles to the service's counters; cheap to bump from any thread.
pub struct ServeMetrics {
    requests: Arc<Counter>,
    /// `terminal[t as usize]` is the counter of [`Terminal`] `t`.
    terminal: [Arc<Counter>; TERMINAL_NAMES.len()],
    coalesced: Arc<Counter>,
    measured: Arc<Counter>,
    retrains: Arc<Counter>,
    retrain_samples: Arc<Counter>,
    drift_retrains: Arc<Counter>,
    resolve_memo_hits: Arc<Counter>,
    resolve_memo_misses: Arc<Counter>,
    worker_panics: Arc<Counter>,
    latency: Arc<Histogram>,
    request_wall: Arc<Histogram>,
    queue_wait: Arc<Histogram>,
    /// `stage[i]` is the histogram of `STAGE_NAMES[i]`.
    stage: [Arc<Histogram>; STAGE_NAMES.len()],
    queue_depth: Arc<Gauge>,
    hot_cache_len: Arc<Gauge>,
}

macro_rules! bump {
    ($($name:ident),* $(,)?) => {
        $(pub(crate) fn $name(&self) {
            self.$name.inc();
        })*
    };
}

impl Default for ServeMetrics {
    /// Metrics over a private registry (tests and standalone use).
    fn default() -> Self {
        Self::new(&MetricsRegistry::new())
    }
}

impl ServeMetrics {
    /// Register the service's counters and histogram in `registry`.
    /// Re-registering over the same registry resumes the existing series
    /// (handles are get-or-create).
    pub fn new(registry: &MetricsRegistry) -> Self {
        let wall = wall_bounds_ms();
        ServeMetrics {
            requests: registry.counter(metric_names::REQUESTS),
            terminal: TERMINAL_NAMES.map(|name| registry.counter(name)),
            coalesced: registry.counter(metric_names::COALESCED),
            measured: registry.counter(metric_names::MEASURED),
            retrains: registry.counter(metric_names::RETRAINS),
            retrain_samples: registry.counter(metric_names::RETRAIN_SAMPLES),
            drift_retrains: registry.counter(metric_names::DRIFT_RETRAINS),
            resolve_memo_hits: registry.counter(metric_names::RESOLVE_MEMO_HITS),
            resolve_memo_misses: registry.counter(metric_names::RESOLVE_MEMO_MISSES),
            worker_panics: registry.counter(metric_names::WORKER_PANICS),
            latency: registry.histogram(metric_names::LATENCY_MS, &HISTOGRAM_BOUNDS_MS),
            request_wall: registry.histogram(metric_names::REQUEST_WALL_MS, &wall),
            queue_wait: registry.histogram(metric_names::QUEUE_WAIT_MS, &wall),
            stage: STAGE_NAMES.map(|name| {
                registry.histogram(&format!("{}{name}", metric_names::STAGE_MS_PREFIX), &wall)
            }),
            queue_depth: registry.gauge(metric_names::QUEUE_DEPTH),
            hot_cache_len: registry.gauge(metric_names::HOT_CACHE_LEN),
        }
    }

    /// Feed a request's trace into the wall-time and per-stage
    /// histograms. Stage names outside [`STAGE_NAMES`] are ignored (the
    /// tracer only emits known names; this keeps the series set bounded).
    pub fn record_trace(&self, ctx: &TraceContext) {
        self.request_wall.observe(ctx.total_ns() as f64 / 1.0e6);
        for s in ctx.stages() {
            if let Some(i) = STAGE_NAMES.iter().position(|&name| name == s.name) {
                self.stage[i].observe(s.dur_ns as f64 / 1.0e6);
            }
        }
    }

    /// Record one enqueue→dequeue wait on the measurement queue.
    pub(crate) fn observe_queue_wait(&self, ms: f64) {
        self.queue_wait.observe(ms);
    }

    /// Count one request's terminal class.
    pub(crate) fn terminal(&self, t: Terminal) {
        self.terminal[t as usize].inc();
    }

    bump!(
        requests,
        coalesced,
        measured,
        drift_retrains,
        resolve_memo_hits,
        resolve_memo_misses,
        worker_panics,
    );

    pub(crate) fn retrained(&self, samples: u64) {
        self.retrains.inc();
        self.retrain_samples.add(samples);
    }

    pub(crate) fn set_queue_depth(&self, depth: f64) {
        self.queue_depth.set(depth);
    }

    pub(crate) fn set_hot_cache_len(&self, len: f64) {
        self.hot_cache_len.set(len);
    }

    pub(crate) fn observe_latency(&self, ms: f64) {
        self.latency.observe(ms);
    }

    /// Point-in-time copy of everything.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let h = self.latency.snapshot();
        let latency_histogram = h
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &count)| {
                let le = h.bounds.get(i).copied().unwrap_or(f64::INFINITY);
                (le, count)
            })
            .collect();
        let terminal = |t: Terminal| self.terminal[t as usize].get();
        MetricsSnapshot {
            requests: self.requests.get(),
            hot_hits: terminal(Terminal::HotHits),
            db_hits: terminal(Terminal::DbHits),
            misses: terminal(Terminal::Misses),
            coalesced: self.coalesced.get(),
            measured: self.measured.get(),
            degraded: terminal(Terminal::Degraded),
            rejected: terminal(Terminal::Rejected),
            lint_rejected: terminal(Terminal::LintRejected),
            errors: terminal(Terminal::Errors),
            retrains: self.retrains.get(),
            retrain_samples: self.retrain_samples.get(),
            latency_histogram,
        }
    }
}

/// A point-in-time copy of [`ServeMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests submitted (valid or not).
    pub requests: u64,
    /// Served from the in-memory LRU.
    pub hot_hits: u64,
    /// Served from the evolving database (and promoted into the LRU).
    pub db_hits: u64,
    /// Served by a farm measurement — fresh or shared through a flight.
    pub misses: u64,
    /// Requests that joined an existing flight instead of enqueueing
    /// their own measurement. Each also counts its flight's terminal
    /// class: `misses` when the flight measured, `rejected` (or
    /// `lint_rejected`) when it failed — so `coalesced` is not a subset of
    /// `misses`.
    pub coalesced: u64,
    /// Farm measurements actually executed by the worker pool.
    pub measured: u64,
    /// Served an approximate NNLP prediction because the measurement
    /// backlog was over the degrade threshold.
    pub degraded: u64,
    /// Turned away: queue full or service shutting down.
    pub rejected: u64,
    /// Rejected by the strict-mode admission analyzer (error-severity
    /// findings), before any farm measurement or database write.
    pub lint_rejected: u64,
    /// Invalid requests (unknown platform, bad batch).
    pub errors: u64,
    /// Predictor retrains completed by the evolving-database loop.
    pub retrains: u64,
    /// Total training samples consumed across retrains.
    pub retrain_samples: u64,
    /// `(upper_bound_ms, count)` pairs; the last bound is `+inf`.
    pub latency_histogram: Vec<(f64, u64)>,
}

impl MetricsSnapshot {
    /// Terminal classes partition the request stream: at any quiescent
    /// point the outcome counters must sum to `requests`.
    pub fn balanced(&self) -> bool {
        self.hot_hits
            + self.db_hits
            + self.misses
            + self.degraded
            + self.rejected
            + self.lint_rejected
            + self.errors
            == self.requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_partition_requests() {
        let m = ServeMetrics::default();
        for _ in 0..5 {
            m.requests();
        }
        for t in [
            Terminal::HotHits,
            Terminal::DbHits,
            Terminal::Misses,
            Terminal::Degraded,
            Terminal::LintRejected,
        ] {
            m.terminal(t);
        }
        let s = m.snapshot();
        assert!(s.balanced());
        m.requests();
        assert!(!m.snapshot().balanced());
    }

    #[test]
    fn histogram_buckets_by_bound() {
        let m = ServeMetrics::default();
        m.observe_latency(0.1); // <= 0.125
        m.observe_latency(3.0); // <= 4
        m.observe_latency(1.0e6); // overflow
        let h = m.snapshot().latency_histogram;
        assert_eq!(h[0], (0.125, 1));
        assert_eq!(h[5], (4.0, 1));
        let (last_bound, last_count) = h[h.len() - 1];
        assert!(last_bound.is_infinite());
        assert_eq!(last_count, 1);
        assert_eq!(h.iter().map(|(_, c)| c).sum::<u64>(), 3);
    }

    #[test]
    fn shared_registry_sees_serve_series() {
        let registry = MetricsRegistry::new();
        let m = ServeMetrics::new(&registry);
        m.requests();
        m.terminal(Terminal::HotHits);
        m.observe_latency(1.5);
        let snap = registry.snapshot();
        assert_eq!(snap.counter(metric_names::REQUESTS), 1);
        assert_eq!(snap.counter(metric_names::HOT_HITS), 1);
        assert_eq!(snap.histograms[metric_names::LATENCY_MS].count, 1);
    }
}
