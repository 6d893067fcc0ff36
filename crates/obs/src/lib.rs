//! # nnlqp-obs
//!
//! Structured observability for the NNLQP stack: the paper's central
//! claims (Fig. 2 kernel-additivity violation, §8.2 query cost) are
//! statements about *where time goes* inside a query, and this crate is
//! how the rest of the workspace answers that question.
//!
//! Three pieces, all std-only:
//!
//! * **Spans** ([`Recorder`], [`Span`], [`SimClock`]) — closed intervals
//!   on the deterministic simulated clock. `nnlqp-sim` records one span
//!   per formed kernel (stream, fusion family, compute/memory phases,
//!   launch overhead); the `nnlqp` facade wraps queries with
//!   hash / db-lookup / deployment-stage spans.
//! * **Exporters** — [`to_chrome_json`] renders a [`Timeline`] as
//!   Chrome-trace JSON (loadable in `chrome://tracing` and Perfetto);
//!   [`render_flamegraph`] draws a compact per-track text timeline.
//! * **Metrics** ([`MetricsRegistry`]) — named counters, gauges and
//!   histograms shared across the facade, farm and serving layer,
//!   snapshotted by the service and the CLI, and rendered in the
//!   Prometheus text format by [`to_prometheus`].
//! * **Quality monitoring** ([`QualityMonitor`]) — per-platform rolling
//!   windows over `(predicted, measured)` latency pairs maintaining the
//!   paper's MAPE / Acc(δ) **online**, with threshold-based drift
//!   detection that drives the serving layer's retrain loop. [`mape`] and
//!   [`acc_at`] are the single shared implementation of the error
//!   formulas (`nnlqp-predict` re-exports them), so online and offline
//!   numbers agree bitwise on the same pairs.
//! * **Events** ([`EventLog`]) — a bounded structured JSONL log of query
//!   lifecycle, shadow-eval, drift and retrain events with a
//!   deterministic total order.
//! * **Locks** ([`Recover`]) — the recover-from-poisoning policy of the
//!   std locks in `nnlqp`, `nnlqp-db` and `nnlqp-serve`, in one place.
//! * **Queue** ([`Queue`]) — the bounded multi-consumer FIFO behind the
//!   serve worker pool's job hand-off and the device farm's idle pool.

pub mod chrome;
pub mod events;
pub mod expose;
pub mod flame;
pub mod metrics;
pub mod monitor;
pub mod span;
pub mod sync;
pub mod trace;

pub use chrome::to_chrome_json;
pub use events::{Event, EventLog, FieldValue};
pub use expose::{parse_prometheus, to_prometheus, PromSample};
pub use flame::{render as render_flamegraph, top_spans};
pub use metrics::{
    log_bounds, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, RegistrySnapshot,
    STAGE_SECONDS_BOUNDS,
};
pub use monitor::{
    acc_at, labelled, mape, monitor_metric_names, DriftAlert, MonitorConfig, PlatformQuality,
    QualityMonitor, QualityReport, REL_ERR_PCT_BOUNDS,
};
pub use span::{Recorder, SimClock, Span, Timeline, Track};
pub use sync::{PushError, Queue, Recover};
pub use trace::{
    tail_attribution, timeline_of, ExemplarReservoir, RequestTrace, StageShare, TraceClock,
    TraceContext, TraceStage, INLINE_MARKS,
};
