//! # nnlqp
//!
//! The unified NNLQP facade (paper §7): one object that owns the evolving
//! database, the device farm and the latency predictor, exposing the two
//! calls of the paper's Python interface:
//!
//! ```text
//! true_latency = NNLQP.query(**params)
//! pred_latency = NNLQP.predict(**params)
//! ```
//!
//! ```
//! use nnlqp::{Nnlqp, QueryParams};
//! use nnlqp_models::ModelFamily;
//!
//! let system = Nnlqp::builder().build();
//! let params = QueryParams::by_name(
//!     ModelFamily::SqueezeNet.canonical().unwrap(),
//!     1,
//!     "gpu-T4-trt7.1-fp32",
//! )
//! .unwrap();
//! let first = system.query(&params).unwrap();   // measured on the farm
//! let second = system.query(&params).unwrap();  // served from the cache
//! assert!(!first.cache_hit && second.cache_hit);
//! assert!(second.cost_s < first.cost_s);
//! ```

pub mod embed_cache;
pub mod interface;
pub mod lru;
pub mod predictor;

pub use embed_cache::{EmbedCache, EmbedKey, SharedEmbedding};
pub use interface::{
    metric_names, CountersSnapshot, Nnlqp, NnlqpBuilder, QueryError, QueryParams, QueryResult,
};
pub use lru::ShardedLru;
pub use nnlqp_obs::{
    to_prometheus, DriftAlert, EventLog, MonitorConfig, QualityMonitor, QualityReport,
};
pub use nnlqp_predict::{predictor_from_json, Predictor, PredictorKind};
pub use nnlqp_sim::Platform;
pub use predictor::{
    BatchPredictResult, PredictResult, PredictorHandle, TrainPredictorConfig,
    CACHED_PREDICT_COST_S, PREDICT_COST_S,
};
