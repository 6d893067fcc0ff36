//! nnlqp-serve: a long-running concurrent query service over the NNLQP
//! facade.
//!
//! The paper's system is a *service*: many clients query latencies for
//! `(model, platform, batch)` keys, the database keeps evolving with new
//! ground truth, and the predictor absorbs that growth. This crate
//! supplies the serving layer the library crates lack:
//!
//! - [`LatencyService`] — worker pool behind a bounded submission queue
//!   (admission control: a full queue rejects instead of queueing
//!   unboundedly);
//! - [`ShardedLru`] — in-memory hot cache in front of `nnlqp-db`;
//! - [`SingleFlight`] — concurrent misses on one key share a single farm
//!   measurement;
//! - degrade-to-predict — under measurement backlog, requests are served
//!   an NNLP prediction tagged approximate rather than waiting;
//! - an evolving-database loop that retrains predictor heads — on a
//!   fresh-sample cadence, or on *drift alerts* from the shadow
//!   evaluator (see below), hot-swapping them atomically;
//! - [`ServeMetrics`] — terminal-class counters (they partition the
//!   request stream) plus a served-latency histogram and live gauges for
//!   queue depth and hot-cache occupancy. A request is recorded at one
//!   exit: one table names its class, its counter and its event fields,
//!   and its counter, latency, trace, exemplar and `query` event are each
//!   recorded once;
//! - quality monitoring ([`ServeConfig::monitor`]) — a shadow evaluator
//!   re-predicts a sample of measurement-backed answers, maintains
//!   per-platform rolling MAPE / Acc(10%) / Acc(5%) windows, and raises
//!   retrain-on-drift signals; plus a bounded JSONL event log and a
//!   periodic Prometheus text-format metrics writer.
//!
//! Every prediction the service serves or scores — degraded answer,
//! shadow evaluation, post-retrain re-score — comes from the facade's one
//! installed predictor through `Nnlqp::predict_effective`; the retrain
//! loop trains the architecture [`ServeConfig::train`] names. Where the
//! facade does a traced request's work (a degraded prediction, a worker's
//! measurement) it marks the stages it ends through a sink the service
//! passes in, so the request's trace tiles without tick structs.
//!
//! A service in one screen — a miss is measured once, its repeat is
//! served from memory, and the terminal counters always add up:
//!
//! ```
//! use nnlqp_serve::{LatencyService, ServeConfig, Source};
//! use std::sync::Arc;
//!
//! let system = Arc::new(nnlqp::Nnlqp::builder().reps(3).build());
//! let svc = LatencyService::start(system, ServeConfig::default());
//! let model = Arc::new(nnlqp_models::ModelFamily::SqueezeNet.canonical().unwrap());
//! let first = svc.query(&model, "gpu-T4-trt7.1-fp32", 1).unwrap();
//! assert_eq!(first.source, Source::Measured);
//! let again = svc.query(&model, "gpu-T4-trt7.1-fp32", 1).unwrap();
//! assert_eq!(again.source, Source::HotCache);
//! assert_eq!(again.latency_ms, first.latency_ms);
//! assert!(svc.metrics().balanced());
//! svc.shutdown().unwrap();
//! ```

pub mod cache;
pub mod metrics;
mod resolve;
pub mod service;
pub mod singleflight;

pub use cache::{CacheKey, ShardedLru};
pub use metrics::{
    metric_names, wall_bounds_ms, MetricsSnapshot, ServeMetrics, HISTOGRAM_BOUNDS_MS, STAGE_NAMES,
};
pub use service::{LatencyService, ServeConfig, ServeError, Served, Source};
pub use singleflight::{Flight, Role, SingleFlight};
