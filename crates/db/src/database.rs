//! The concurrent, hash-indexed store.

use crate::compact::CompactionStats;
use crate::engine::{DbMetrics, DurableOptions, StorageEngine};
use crate::records::*;
use crate::recover::{self, corrupt};
use crate::wal::WalOp;
use nnlqp_hash::{graph_hash, BuildWordHasher};
use nnlqp_ir::{serialize, Graph};
use nnlqp_obs::Recover;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::RwLock;

/// Database errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// A foreign key referenced a missing row.
    ForeignKey(&'static str),
    /// Stored graph bytes failed to decode.
    Corrupt(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::ForeignKey(t) => write!(f, "foreign key violation into table {t}"),
            DbError::Corrupt(d) => write!(f, "corrupt record: {d}"),
        }
    }
}

impl std::error::Error for DbError {}

/// Aggregate statistics (the "Up to now, our NNLQ stores..." numbers of
/// §8.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbStats {
    /// Rows in the model table.
    pub models: usize,
    /// Rows in the platform table.
    pub platforms: usize,
    /// Rows in the latency table.
    pub latencies: usize,
    /// Estimated total storage in bytes.
    pub total_bytes: usize,
}

/// The indexes hash with the workspace's [`BuildWordHasher`]: their keys
/// are server-computed graph hashes, row ids and registry names, which a
/// keyed hasher would not protect any further (see `nnlqp_hash::word`).
#[derive(Default)]
pub(crate) struct Inner {
    pub(crate) models: Vec<ModelRecord>,
    pub(crate) platforms: Vec<PlatformRecord>,
    pub(crate) latencies: Vec<LatencyRecord>,
    /// Unique hash index over models.
    pub(crate) by_hash: HashMap<u64, ModelId, BuildWordHasher>,
    /// Unique (hardware, software, dtype) index over platforms.
    pub(crate) by_platform_key: HashMap<(String, String, String), PlatformId, BuildWordHasher>,
    /// Secondary index (model, platform, batch) -> latest latency row.
    pub(crate) by_query: HashMap<(ModelId, PlatformId, u32), LatencyId, BuildWordHasher>,
    pub(crate) seq: u64,
}

/// The evolving database. Cloneable handles are not provided; share via
/// `&Database` or `Arc<Database>`.
///
/// By default purely in-memory; [`Database::open_durable`] attaches the
/// sharded WAL storage engine so every mutation hits the disk before it
/// becomes visible, while reads keep being served from memory.
#[derive(Default)]
pub struct Database {
    pub(crate) inner: RwLock<Inner>,
    engine: Option<StorageEngine>,
}

/// Two stores are equal when their tables and sequence are: the indexes
/// are derived from the rows, and where the rows live is not compared.
impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        // A store equals itself without taking its lock twice.
        std::ptr::eq(self, other) || {
            let (a, b) = (self.inner.read().recover(), other.inner.read().recover());
            (&a.models, &a.platforms, &a.latencies, a.seq)
                == (&b.models, &b.platforms, &b.latencies, b.seq)
        }
    }
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open (or create) a durable store: replay the manifest's snapshot
    /// segments and the WAL tails into memory, then attach the engine so
    /// subsequent writes are logged. A lossy replay (torn tail, global
    /// sequence gap) is repaired on the spot by folding the recovered
    /// prefix into fresh segments, so the damage cannot compound.
    pub fn open_durable(opts: DurableOptions) -> io::Result<Database> {
        Self::open_durable_with_metrics(opts, DbMetrics::standalone())
    }

    /// [`Database::open_durable`] with engine counters shared through a
    /// metrics registry (see [`DbMetrics::registered`]).
    pub fn open_durable_with_metrics(
        opts: DurableOptions,
        metrics: DbMetrics,
    ) -> io::Result<Database> {
        let (engine, recovered) = StorageEngine::open_with_metrics(&opts, metrics)?;
        let mut db = match &recovered {
            Some(rec) => recover::build_database(rec)?,
            None => Database::new(),
        };
        db.engine = Some(engine);
        if let Some(rec) = &recovered {
            if !rec.stats.clean() {
                db.compact()?;
            }
        }
        Ok(db)
    }

    /// Whether a storage engine is attached.
    pub fn is_durable(&self) -> bool {
        self.engine.is_some()
    }

    /// The durable store directory, when one is attached.
    pub fn durable_dir(&self) -> Option<&Path> {
        self.engine.as_ref().map(StorageEngine::root)
    }

    /// WAL bytes appended since the last compaction (0 when in-memory).
    pub fn wal_bytes_pending(&self) -> u64 {
        self.engine.as_ref().map_or(0, StorageEngine::pending_bytes)
    }

    /// Fold the store into fresh snapshot segments and reset the WALs.
    /// A no-op returning zeroed stats for an in-memory database. Blocks
    /// writers for the duration (reads of the already-published state
    /// proceed until the lock is taken).
    pub fn compact(&self) -> io::Result<CompactionStats> {
        match &self.engine {
            Some(e) => {
                let inner = self.inner.write().recover();
                e.compact_from(&inner)
            }
            None => Ok(CompactionStats::default()),
        }
    }

    /// Log one op to the engine, if attached. Must run under the write
    /// lock, before the matching in-memory insert is published.
    fn log(&self, inner: &Inner, op: &WalOp) {
        if let Some(e) = &self.engine {
            e.append(e.route(op, inner), op);
        }
    }

    /// Insert a model (deduplicated by graph hash). Returns the id and
    /// whether the row was newly created.
    ///
    /// # Panics
    ///
    /// When `g` does not fit the stored record ([`serialize::check_fits`]).
    /// A caller holding a graph it has not checked encodes it itself and
    /// stores the bytes with [`Database::insert_model_encoded`], as the
    /// query miss path does.
    pub fn insert_model(&self, g: &Graph) -> (ModelId, bool) {
        let hash = graph_hash(g);
        if let Some(id) = self.model_id(hash) {
            return (id, false);
        }
        // The graph walk runs with no lock held; a racing insert of the
        // same hash is caught by the second probe, under the write lock.
        let graph_bytes = serialize::encode(g).unwrap_or_else(|e| panic!("insert_model: {e}"));
        self.insert_model_encoded(g.name.clone(), hash, graph_bytes)
    }

    /// The id of the model stored under graph hash `hash`, if any: the
    /// probe that tells a miss whether its structure still needs encoding.
    pub fn model_id(&self, hash: u64) -> Option<ModelId> {
        self.inner.read().recover().by_hash.get(&hash).copied()
    }

    /// Store a model the caller has already encoded: `graph_bytes` is
    /// `serialize::encode(g)`, `hash` is `graph_hash(g)` and `name` is
    /// `g.name`. Deduplicated by hash like [`Database::insert_model`], so
    /// a structure another caller stored in the meantime keeps its row.
    /// The query miss path encodes before the farm measures and hands the
    /// bytes over here, so the record is walked once.
    pub fn insert_model_encoded(
        &self,
        name: String,
        hash: u64,
        graph_bytes: Vec<u8>,
    ) -> (ModelId, bool) {
        let mut inner = self.inner.write().recover();
        if let Some(&id) = inner.by_hash.get(&hash) {
            return (id, false);
        }
        let id = ModelId(inner.models.len() as u32);
        let seq = inner.seq;
        inner.seq += 1;
        let op = WalOp::Model(ModelRecord {
            id,
            graph_hash: hash,
            name,
            graph_bytes,
            created_seq: seq,
        });
        self.log(&inner, &op);
        let WalOp::Model(rec) = op else {
            unreachable!("built as a model op two statements up")
        };
        inner.models.push(rec);
        inner.by_hash.insert(hash, id);
        (id, true)
    }

    /// Look up a model by its graph hash.
    pub fn model_by_hash(&self, hash: u64) -> Option<ModelRecord> {
        let inner = self.inner.read().recover();
        inner
            .by_hash
            .get(&hash)
            .map(|id| inner.models[id.0 as usize].clone())
    }

    /// Decode a stored model back into a graph.
    pub fn load_graph(&self, id: ModelId) -> Result<Graph, DbError> {
        // Copy the blob out and let go of the lock: decoding walks and
        // validates the whole graph.
        let blob = self
            .inner
            .read()
            .recover()
            .models
            .get(id.0 as usize)
            .ok_or(DbError::ForeignKey("model"))?
            .graph_bytes
            .clone();
        serialize::decode(&blob).map_err(|e| DbError::Corrupt(e.to_string()))
    }

    /// Get or create a platform row.
    pub fn get_or_create_platform(
        &self,
        hardware: &str,
        software: &str,
        data_type: &str,
    ) -> PlatformId {
        // Every measurement asks and the row exists after the first: answer
        // under the read lock, from the rows themselves (a handful; the
        // owned-key index would cost three `String`s to probe).
        let existing = self
            .inner
            .read()
            .recover()
            .platforms
            .iter()
            .find(|p| p.hardware == hardware && p.software == software && p.data_type == data_type)
            .map(|p| p.id);
        if let Some(id) = existing {
            return id;
        }
        let key = (
            hardware.to_string(),
            software.to_string(),
            data_type.to_string(),
        );
        let mut inner = self.inner.write().recover();
        if let Some(&id) = inner.by_platform_key.get(&key) {
            return id;
        }
        let id = PlatformId(inner.platforms.len() as u32);
        let rec = PlatformRecord {
            id,
            hardware: key.0.clone(),
            software: key.1.clone(),
            data_type: key.2.clone(),
        };
        self.log(&inner, &WalOp::Platform(rec.clone()));
        inner.platforms.push(rec);
        inner.by_platform_key.insert(key, id);
        id
    }

    /// Insert a latency measurement. Both foreign keys are checked.
    #[allow(clippy::too_many_arguments)]
    pub fn insert_latency(
        &self,
        model_id: ModelId,
        platform_id: PlatformId,
        batch_size: u32,
        cost_ms: f64,
        mem_access: f64,
        host_mem: u64,
        device_mem: u64,
    ) -> Result<LatencyId, DbError> {
        let mut inner = self.inner.write().recover();
        if model_id.0 as usize >= inner.models.len() {
            return Err(DbError::ForeignKey("model"));
        }
        if platform_id.0 as usize >= inner.platforms.len() {
            return Err(DbError::ForeignKey("platform"));
        }
        let id = LatencyId(inner.latencies.len() as u32);
        let seq = inner.seq;
        inner.seq += 1;
        let rec = LatencyRecord {
            id,
            model_id,
            platform_id,
            batch_size,
            cost_ms,
            mem_access,
            host_mem,
            device_mem,
            created_seq: seq,
        };
        self.log(&inner, &WalOp::Latency(rec));
        inner.latencies.push(rec);
        inner
            .by_query
            .insert((model_id, platform_id, batch_size), id);
        Ok(id)
    }

    /// Atomic check-then-insert for the query miss path. When two callers
    /// race on the same (model, platform, batch) key, the first insert
    /// wins and the loser is handed the winner's row — so every caller
    /// returns the same latency that later cache hits will serve.
    ///
    /// Returns the authoritative record and whether this call inserted it.
    #[allow(clippy::too_many_arguments)]
    pub fn get_or_insert_latency(
        &self,
        model_id: ModelId,
        platform_id: PlatformId,
        batch_size: u32,
        cost_ms: f64,
        mem_access: f64,
        host_mem: u64,
        device_mem: u64,
    ) -> Result<(LatencyRecord, bool), DbError> {
        let mut inner = self.inner.write().recover();
        if model_id.0 as usize >= inner.models.len() {
            return Err(DbError::ForeignKey("model"));
        }
        if platform_id.0 as usize >= inner.platforms.len() {
            return Err(DbError::ForeignKey("platform"));
        }
        if let Some(&lid) = inner.by_query.get(&(model_id, platform_id, batch_size)) {
            return Ok((inner.latencies[lid.0 as usize], false));
        }
        let id = LatencyId(inner.latencies.len() as u32);
        let seq = inner.seq;
        inner.seq += 1;
        let rec = LatencyRecord {
            id,
            model_id,
            platform_id,
            batch_size,
            cost_ms,
            mem_access,
            host_mem,
            device_mem,
            created_seq: seq,
        };
        self.log(&inner, &WalOp::Latency(rec));
        inner.latencies.push(rec);
        inner
            .by_query
            .insert((model_id, platform_id, batch_size), id);
        Ok((rec, true))
    }

    /// The cache-hit path of NNLQ: does the database already hold a
    /// latency for this graph hash + platform + batch?
    pub fn lookup_latency(
        &self,
        hash: u64,
        platform_id: PlatformId,
        batch_size: u32,
    ) -> Option<LatencyRecord> {
        let inner = self.inner.read().recover();
        let model_id = *inner.by_hash.get(&hash)?;
        let lid = *inner.by_query.get(&(model_id, platform_id, batch_size))?;
        Some(inner.latencies[lid.0 as usize])
    }

    /// All latency rows for a platform (training-set extraction).
    pub fn latencies_for_platform(&self, platform_id: PlatformId) -> Vec<LatencyRecord> {
        let inner = self.inner.read().recover();
        inner
            .latencies
            .iter()
            .filter(|l| l.platform_id == platform_id)
            .copied()
            .collect()
    }

    /// All platform rows.
    pub fn platforms(&self) -> Vec<PlatformRecord> {
        self.inner.read().recover().platforms.clone()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> DbStats {
        let inner = self.inner.read().recover();
        let model_bytes: usize = inner
            .models
            .iter()
            .map(super::records::ModelRecord::storage_bytes)
            .sum();
        DbStats {
            models: inner.models.len(),
            platforms: inner.platforms.len(),
            latencies: inner.latencies.len(),
            total_bytes: model_bytes
                + inner.platforms.len() * PlatformRecord::STORAGE_BYTES
                + inner.latencies.len() * LatencyRecord::STORAGE_BYTES,
        }
    }

    /// A database over rows whose ids are their positions, its indexes
    /// rebuilt under the invariants the write path keeps: unique graph
    /// hashes and platform keys, foreign keys that resolve. Rows in id
    /// order make the last latency of a (model, platform, batch) key win,
    /// as it does live. A violation is `InvalidData`.
    pub(crate) fn from_rows(
        models: Vec<ModelRecord>,
        platforms: Vec<PlatformRecord>,
        latencies: Vec<LatencyRecord>,
        seq: u64,
    ) -> io::Result<Database> {
        let mut inner = Inner::default();
        for m in &models {
            if inner.by_hash.insert(m.graph_hash, m.id).is_some() {
                return Err(corrupt(format!("duplicate graph hash {:#x}", m.graph_hash)));
            }
        }
        for p in &platforms {
            if inner.by_platform_key.insert(p.key(), p.id).is_some() {
                return Err(corrupt(format!("duplicate platform key {:?}", p.key())));
            }
        }
        for l in &latencies {
            if l.model_id.0 as usize >= models.len() {
                return Err(corrupt(format!("latency {} dangling model fk", l.id.0)));
            }
            if l.platform_id.0 as usize >= platforms.len() {
                return Err(corrupt(format!("latency {} dangling platform fk", l.id.0)));
            }
            inner
                .by_query
                .insert((l.model_id, l.platform_id, l.batch_size), l.id);
        }
        (inner.models, inner.platforms, inner.latencies) = (models, platforms, latencies);
        inner.seq = seq;
        Ok(Database {
            inner: RwLock::new(inner),
            engine: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_ir::{GraphBuilder, Shape};

    fn graph(c: u32) -> Graph {
        let mut b = GraphBuilder::new(format!("g{c}"), Shape::nchw(1, 3, 16, 16));
        let conv = b.conv(None, c, 3, 1, 1, 1).unwrap();
        b.relu(conv).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn insert_and_dedup_models() {
        let db = Database::new();
        let (id1, fresh1) = db.insert_model(&graph(8));
        let (id2, fresh2) = db.insert_model(&graph(8));
        let (id3, fresh3) = db.insert_model(&graph(16));
        assert!(fresh1 && !fresh2 && fresh3);
        assert_eq!(id1, id2);
        assert_ne!(id1, id3);
        assert_eq!(db.stats().models, 2);
    }

    #[test]
    fn load_graph_roundtrip() {
        let db = Database::new();
        let g = graph(24);
        let (id, _) = db.insert_model(&g);
        assert_eq!(db.load_graph(id).unwrap(), g);
    }

    #[test]
    fn platform_get_or_create_idempotent() {
        let db = Database::new();
        let a = db.get_or_create_platform("T4", "trt7.1", "fp32");
        let b = db.get_or_create_platform("T4", "trt7.1", "fp32");
        let c = db.get_or_create_platform("T4", "trt7.1", "int8");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(db.stats().platforms, 2);
    }

    #[test]
    fn latency_cache_hit_path() {
        let db = Database::new();
        let g = graph(32);
        let (mid, _) = db.insert_model(&g);
        let pid = db.get_or_create_platform("T4", "trt7.1", "fp32");
        db.insert_latency(mid, pid, 1, 1.25, 1e6, 0, 0).unwrap();
        let hash = graph_hash(&g);
        let hit = db.lookup_latency(hash, pid, 1).unwrap();
        assert_eq!(hit.cost_ms, 1.25);
        // Different batch misses.
        assert!(db.lookup_latency(hash, pid, 8).is_none());
        // Different platform misses.
        let pid2 = db.get_or_create_platform("P4", "trt7.1", "fp32");
        assert!(db.lookup_latency(hash, pid2, 1).is_none());
    }

    #[test]
    fn newest_latency_wins_on_requery() {
        let db = Database::new();
        let (mid, _) = db.insert_model(&graph(8));
        let pid = db.get_or_create_platform("cpu", "openppl", "fp32");
        db.insert_latency(mid, pid, 1, 5.0, 0.0, 0, 0).unwrap();
        db.insert_latency(mid, pid, 1, 4.2, 0.0, 0, 0).unwrap();
        let hash = graph_hash(&graph(8));
        assert_eq!(db.lookup_latency(hash, pid, 1).unwrap().cost_ms, 4.2);
        assert_eq!(db.stats().latencies, 2); // history preserved
    }

    #[test]
    fn get_or_insert_first_writer_wins() {
        let db = Database::new();
        let (mid, _) = db.insert_model(&graph(8));
        let pid = db.get_or_create_platform("T4", "trt7.1", "fp32");
        let (a, fresh_a) = db
            .get_or_insert_latency(mid, pid, 1, 5.0, 0.0, 0, 0)
            .unwrap();
        let (b, fresh_b) = db
            .get_or_insert_latency(mid, pid, 1, 4.2, 0.0, 0, 0)
            .unwrap();
        assert!(fresh_a && !fresh_b);
        assert_eq!(a.cost_ms, 5.0);
        assert_eq!(b.cost_ms, 5.0); // loser gets the winner's row
        assert_eq!(db.stats().latencies, 1);
        // The lookup path serves the same row.
        let hash = graph_hash(&graph(8));
        assert_eq!(db.lookup_latency(hash, pid, 1).unwrap().cost_ms, 5.0);
        // Foreign keys still enforced.
        assert!(db
            .get_or_insert_latency(ModelId(9), pid, 1, 1.0, 0.0, 0, 0)
            .is_err());
    }

    #[test]
    fn foreign_keys_enforced() {
        let db = Database::new();
        let err = db
            .insert_latency(ModelId(0), PlatformId(0), 1, 1.0, 0.0, 0, 0)
            .unwrap_err();
        assert_eq!(err, DbError::ForeignKey("model"));
        let (mid, _) = db.insert_model(&graph(8));
        let err = db
            .insert_latency(mid, PlatformId(5), 1, 1.0, 0.0, 0, 0)
            .unwrap_err();
        assert_eq!(err, DbError::ForeignKey("platform"));
    }

    #[test]
    fn concurrent_inserts_and_lookups() {
        use std::sync::Arc;
        let db = Arc::new(Database::new());
        let pid = db.get_or_create_platform("T4", "trt7.1", "fp32");
        std::thread::scope(|s| {
            for t in 0..8 {
                let db = db.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        let g = graph(8 + ((t * 50 + i) % 64) * 2);
                        let (mid, _) = db.insert_model(&g);
                        db.insert_latency(mid, pid, 1, 1.0, 0.0, 0, 0).unwrap();
                        let _ = db.lookup_latency(graph_hash(&g), pid, 1);
                    }
                });
            }
        });
        // 64 distinct graphs; all inserts deduplicated.
        assert_eq!(db.stats().models, 64);
        assert_eq!(db.stats().latencies, 400);
    }

    fn temp_store(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("nnlqp-db-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn populate(db: &Database) {
        let pid = db.get_or_create_platform("T4", "trt7.1", "fp32");
        let pid2 = db.get_or_create_platform("cpu", "openppl", "fp32");
        for c in [8u32, 16, 24, 32, 40] {
            let (mid, _) = db.insert_model(&graph(c));
            db.insert_latency(mid, pid, 1, f64::from(c) * 0.1, 1e5, 2, 3)
                .unwrap();
            db.insert_latency(mid, pid2, 8, f64::from(c) * 0.4, 2e5, 4, 5)
                .unwrap();
        }
    }

    #[test]
    fn durable_store_round_trips_identically() {
        let dir = temp_store("roundtrip");
        let opts = crate::DurableOptions::new(&dir).shards(3);
        let baseline = Database::new();
        populate(&baseline);
        {
            let db = Database::open_durable(opts.clone()).unwrap();
            assert!(db.is_durable());
            assert_eq!(db.durable_dir(), Some(dir.as_path()));
            populate(&db);
            assert!(db.wal_bytes_pending() > 0);
        }
        // Reopen from the WAL alone (no compaction ran).
        let db = Database::open_durable(opts.clone()).unwrap();
        assert_eq!(
            crate::persist::export_json(&db),
            crate::persist::export_json(&baseline)
        );
        // Compact, reopen from segments, still byte-identical.
        let stats = db.compact().unwrap();
        assert!(stats.frames > 0);
        assert_eq!(db.wal_bytes_pending(), 0);
        drop(db);
        let db = Database::open_durable(opts).unwrap();
        assert_eq!(
            crate::persist::export_json(&db),
            crate::persist::export_json(&baseline)
        );
        // The store stays writable after a segment-based recovery.
        let (mid, fresh) = db.insert_model(&graph(48));
        assert!(fresh);
        let pid = db.get_or_create_platform("T4", "trt7.1", "fp32");
        db.insert_latency(mid, pid, 1, 9.0, 0.0, 0, 0).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_repairs_on_open() {
        let dir = temp_store("torn");
        let opts = crate::DurableOptions::new(&dir).shards(2);
        {
            let db = Database::open_durable(opts.clone()).unwrap();
            populate(&db);
        }
        // Tear a few bytes off one shard's WAL.
        let mut torn = None;
        for i in 0..2 {
            let p = crate::shard::wal_path(&dir, i, 1);
            let raw = std::fs::read(&p).unwrap();
            if raw.len() > 8 {
                std::fs::write(&p, &raw[..raw.len() - 5]).unwrap();
                torn = Some(i);
                break;
            }
        }
        assert!(torn.is_some());
        let metrics = crate::DbMetrics::standalone();
        let db = Database::open_durable_with_metrics(opts.clone(), metrics.clone()).unwrap();
        assert!(metrics.recovery_truncated_bytes.get() > 0);
        // Repair compaction ran on open, so a reopen is clean.
        assert!(metrics.compactions.get() >= 1);
        let report = crate::verify_store(&dir).unwrap();
        assert!(report.clean(), "{report:?}");
        drop(db);
        let m2 = crate::DbMetrics::standalone();
        let _db = Database::open_durable_with_metrics(opts, m2.clone()).unwrap();
        assert_eq!(m2.recovery_truncated_bytes.get(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_storage_accounting() {
        let db = Database::new();
        let (mid, _) = db.insert_model(&graph(8));
        let pid = db.get_or_create_platform("T4", "trt7.1", "fp32");
        db.insert_latency(mid, pid, 1, 1.0, 0.0, 0, 0).unwrap();
        let s = db.stats();
        assert_eq!(
            s.total_bytes,
            db.model_by_hash(graph_hash(&graph(8)))
                .unwrap()
                .storage_bytes()
                + 152
                + 52
        );
    }
}
