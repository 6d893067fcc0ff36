//! # nnlqp-db
//!
//! The evolving latency database — the embedded replacement for the
//! paper's MySQL deployment (§5.2, Fig. 4).
//!
//! Three tables mirror the ER diagram exactly:
//!
//! * **model** — weight-free serialized graphs keyed by the 8-byte graph
//!   hash (unique index; the fast-retrieval path),
//! * **platform** — hardware / software / data-type triples,
//! * **latency** — measurements with `model_id` and `platform_id` foreign
//!   keys plus batch size, cost and memory columns.
//!
//! The store is safe for concurrent readers and writers (one
//! `std::sync::RwLock` over the tables) and keeps per-record storage footprints in the
//! same regime the paper reports (8-byte hash key, 152-byte platform
//! records, 52-byte latency records, hundreds of bytes per model).
//!
//! ## Durability
//!
//! A store reaches disk one way, the sharded log-structured storage
//! engine ([`persist`] only exports it as JSON): records hash-partition
//! into N shards by graph hash, every mutation is appended to the owning
//! shard's checksummed write-ahead log before it becomes visible
//! ([`wal`]), and a compactor folds the logs into immutable indexed
//! snapshot segments under an atomically-swapped manifest ([`shard`],
//! [`compact`]). Recovery replays segments then the WAL tails, truncating at the first
//! torn frame and discarding past the first global-sequence gap, so a
//! crash always yields exactly the committed prefix ([`recover`]). Open a
//! durable store with [`Database::open_durable`]. Every stored byte is
//! written and read through `nnlqp_ir::codec`, the one checked codec that
//! graph blobs use too.

pub mod compact;
pub mod database;
pub mod engine;
pub mod persist;
pub mod records;
pub mod recover;
pub mod shard;
pub mod wal;

pub use compact::{CompactionStats, CompactorHandle, Manifest};
pub use database::{Database, DbError, DbStats};
pub use engine::{db_metric_names, DbMetrics, DurableOptions, CRASH_AT_BYTE_ENV};
pub use records::{LatencyId, LatencyRecord, ModelId, ModelRecord, PlatformId, PlatformRecord};
pub use recover::{open_read_only, verify_store, RecoveryStats, VerifyReport};
pub use wal::FsyncPolicy;
