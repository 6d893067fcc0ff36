//! The durable storage engine behind [`crate::Database`].
//!
//! The in-memory tables stay the authoritative read path — point lookups
//! never touch the disk. The engine adds durability underneath: every
//! mutation is encoded as a WAL frame and appended (fsync governed by
//! [`FsyncPolicy`]) to the owning shard's log *before* the in-memory
//! insert completes, and a compaction folds the whole store into
//! per-shard immutable snapshot segments, resetting the logs.
//!
//! Failure contract: a WAL append that cannot reach the disk panics.
//! The store has a single writer; continuing after a lost append would
//! silently break the durability promise every consumer relies on, so
//! the writer dies loudly instead. Compaction failures, by contrast, are
//! returned as errors — the WAL still holds everything, so a failed fold
//! is retryable.

use crate::compact::{sweep_unreferenced, CompactionStats, Manifest};
use crate::database::Inner;
use crate::recover::{self, Recovered};
use crate::shard::{seg_path, shard_dir, shard_of, wal_path, write_segment, META_SHARD};
use crate::wal::{self, Frame, FsyncPolicy, WalOp, WalWriter};
use nnlqp_obs::{Counter, MetricsRegistry};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Environment variable for the kill-mid-commit fault injection used by
/// the crash-recovery tests: when set to a byte offset, the WAL writer
/// tears the frame that crosses it and aborts the process before fsync.
pub const CRASH_AT_BYTE_ENV: &str = "NNLQP_WAL_CRASH_AT_BYTE";

/// Registry names of the storage-engine counters.
pub mod db_metric_names {
    /// Frames appended to shard WALs.
    pub const WAL_APPENDS: &str = "db.wal_appends";
    /// Bytes appended to shard WALs.
    pub const WAL_BYTES: &str = "db.wal_bytes";
    /// Completed compaction passes.
    pub const COMPACTIONS: &str = "db.compactions";
    /// WAL frames replayed during recovery.
    pub const RECOVERY_REPLAYED_FRAMES: &str = "db.recovery_replayed_frames";
    /// Torn/corrupt WAL tail bytes refused during recovery.
    pub const RECOVERY_TRUNCATED_BYTES: &str = "db.recovery_truncated_bytes";
}

/// The engine's counters, shared with the workspace metrics registry.
#[derive(Debug, Clone)]
pub struct DbMetrics {
    /// `db.wal_appends`.
    pub wal_appends: Arc<Counter>,
    /// `db.wal_bytes`.
    pub wal_bytes: Arc<Counter>,
    /// `db.compactions`.
    pub compactions: Arc<Counter>,
    /// `db.recovery_replayed_frames`.
    pub recovery_replayed_frames: Arc<Counter>,
    /// `db.recovery_truncated_bytes`.
    pub recovery_truncated_bytes: Arc<Counter>,
}

impl DbMetrics {
    /// Free-standing counters, not attached to any registry.
    pub fn standalone() -> Self {
        DbMetrics {
            wal_appends: Arc::new(Counter::default()),
            wal_bytes: Arc::new(Counter::default()),
            compactions: Arc::new(Counter::default()),
            recovery_replayed_frames: Arc::new(Counter::default()),
            recovery_truncated_bytes: Arc::new(Counter::default()),
        }
    }

    /// Counters registered under the `db.*` names in `registry`.
    pub fn registered(registry: &MetricsRegistry) -> Self {
        DbMetrics {
            wal_appends: registry.counter(db_metric_names::WAL_APPENDS),
            wal_bytes: registry.counter(db_metric_names::WAL_BYTES),
            compactions: registry.counter(db_metric_names::COMPACTIONS),
            recovery_replayed_frames: registry.counter(db_metric_names::RECOVERY_REPLAYED_FRAMES),
            recovery_truncated_bytes: registry.counter(db_metric_names::RECOVERY_TRUNCATED_BYTES),
        }
    }
}

impl Default for DbMetrics {
    fn default() -> Self {
        Self::standalone()
    }
}

/// How to open a durable store.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Store directory (created if absent).
    pub dir: PathBuf,
    /// Shard count for a *new* store. An existing store keeps the count
    /// it was created with (recorded in the manifest).
    pub shards: usize,
    /// WAL commit policy.
    pub fsync: FsyncPolicy,
}

impl DurableOptions {
    /// Defaults: 4 shards, fsync on every commit.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurableOptions {
            dir: dir.into(),
            shards: 4,
            fsync: FsyncPolicy::Always,
        }
    }

    /// Set the shard count used when creating a new store.
    #[must_use]
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Set the fsync policy.
    #[must_use]
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }
}

/// The per-database durable state: shard WAL writers, the manifest, and
/// the global sequence allocator.
pub(crate) struct StorageEngine {
    root: PathBuf,
    fsync: FsyncPolicy,
    writers: Vec<Mutex<WalWriter>>,
    manifest: Mutex<Manifest>,
    /// Next global WAL sequence number.
    next_wal_seq: AtomicU64,
    /// WAL bytes appended since the last compaction (compactor trigger).
    pending_bytes: AtomicU64,
    /// Total bytes appended through this handle (fault-injection budget).
    appended_bytes: AtomicU64,
    /// Fault injection: tear-and-abort once this many bytes have been
    /// appended. Read from [`CRASH_AT_BYTE_ENV`] at open.
    crash_at: Option<u64>,
    metrics: DbMetrics,
}

impl std::fmt::Debug for StorageEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageEngine")
            .field("root", &self.root)
            .field("shards", &self.writers.len())
            .field("fsync", &self.fsync)
            .finish_non_exhaustive()
    }
}

impl StorageEngine {
    /// Open (or create) the store at `opts.dir` and replay it. Returns
    /// the engine plus the recovery result (`None` for a new store); the
    /// caller rebuilds the in-memory tables from it and runs a repair
    /// compaction when the WAL replay was lossy.
    pub(crate) fn open_with_metrics(
        opts: &DurableOptions,
        metrics: DbMetrics,
    ) -> io::Result<(Self, Option<Recovered>)> {
        std::fs::create_dir_all(&opts.dir)?;
        let recovered = recover::recover(&opts.dir)?;
        let manifest = match &recovered {
            Some(r) => r.manifest.clone(),
            None => Manifest::fresh(opts.shards.max(1)),
        };
        for i in 0..manifest.n_shards {
            std::fs::create_dir_all(shard_dir(&opts.dir, i))?;
        }
        if recovered.is_none() {
            manifest.store(&opts.dir)?;
        }
        if let Some(r) = &recovered {
            metrics
                .recovery_replayed_frames
                .add(r.stats.wal_frames_replayed as u64);
            metrics
                .recovery_truncated_bytes
                .add(r.stats.wal_truncated_bytes);
        }
        let writers = (0..manifest.n_shards)
            .map(|i| {
                let w = WalWriter::open(
                    wal_path(&opts.dir, i, manifest.shards[i].wal_gen),
                    opts.fsync,
                )?;
                Ok(Mutex::new(w))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let pending: u64 = writers
            .iter()
            .map(|w| w.lock().expect("wal writer lock").bytes)
            .sum();
        let next_wal_seq = recovered.as_ref().map_or(0, |r| r.next_wal_seq);
        let crash_at = std::env::var(CRASH_AT_BYTE_ENV)
            .ok()
            .and_then(|v| v.parse().ok());
        Ok((
            StorageEngine {
                root: opts.dir.clone(),
                fsync: opts.fsync,
                writers,
                manifest: Mutex::new(manifest),
                next_wal_seq: AtomicU64::new(next_wal_seq),
                pending_bytes: AtomicU64::new(pending),
                appended_bytes: AtomicU64::new(0),
                crash_at,
                metrics,
            },
            recovered,
        ))
    }

    pub(crate) fn root(&self) -> &Path {
        &self.root
    }

    pub(crate) fn n_shards(&self) -> usize {
        self.writers.len()
    }

    /// WAL bytes appended since the last compaction.
    pub(crate) fn pending_bytes(&self) -> u64 {
        self.pending_bytes.load(Ordering::Relaxed)
    }

    /// Which shard an op routes to.
    pub(crate) fn route(&self, op: &WalOp, inner: &Inner) -> usize {
        match op {
            WalOp::Platform(_) => META_SHARD,
            WalOp::Model(m) => shard_of(m.graph_hash, self.n_shards()),
            WalOp::Latency(l) => {
                let hash = inner.models[l.model_id.0 as usize].graph_hash;
                shard_of(hash, self.n_shards())
            }
        }
    }

    /// Append one op to its shard's WAL. Called with the database write
    /// lock held (appends are serialized by construction). Panics if the
    /// bytes cannot reach the disk — see the module docs — or a field of
    /// `op` is longer than its length prefix holds.
    pub(crate) fn append(&self, shard: usize, op: &WalOp) {
        let wal_seq = self.next_wal_seq.fetch_add(1, Ordering::Relaxed);
        let encoded = wal::encode_op(wal_seq, op)
            .unwrap_or_else(|e| panic!("nnlqp-db: cannot frame a record for shard {shard}: {e}"));
        let crash_after = self
            .crash_at
            .map(|limit| limit.saturating_sub(self.appended_bytes.load(Ordering::Relaxed)));
        let mut w = self.writers[shard].lock().expect("wal writer lock");
        if let Err(e) = w.append(&encoded, crash_after) {
            panic!(
                "nnlqp-db: WAL append failed on shard {shard} ({}): {e}",
                w.path().display()
            );
        }
        drop(w);
        let len = encoded.len() as u64;
        self.appended_bytes.fetch_add(len, Ordering::Relaxed);
        self.pending_bytes.fetch_add(len, Ordering::Relaxed);
        self.metrics.wal_appends.inc();
        self.metrics.wal_bytes.add(len);
    }

    /// Fold the full store into fresh snapshot segments and reset the
    /// WALs. Called with the database write lock held, so the table
    /// snapshot is consistent and no append races the generation bump.
    pub(crate) fn compact_from(&self, inner: &Inner) -> io::Result<CompactionStats> {
        for w in &self.writers {
            w.lock().expect("wal writer lock").seal()?;
        }
        let n = self.n_shards();
        let mut per_shard: Vec<Vec<Frame>> = vec![Vec::new(); n];
        let mut seq = 0u64;
        let mut push = |shard: usize, op: WalOp, per_shard: &mut Vec<Vec<Frame>>| {
            per_shard[shard].push(Frame { wal_seq: seq, op });
            seq += 1;
        };
        for p in &inner.platforms {
            push(META_SHARD, WalOp::Platform(p.clone()), &mut per_shard);
        }
        for m in &inner.models {
            push(
                shard_of(m.graph_hash, n),
                WalOp::Model(m.clone()),
                &mut per_shard,
            );
        }
        for l in &inner.latencies {
            let hash = inner.models[l.model_id.0 as usize].graph_hash;
            push(shard_of(hash, n), WalOp::Latency(*l), &mut per_shard);
        }
        let frames_total = seq as usize;

        let mut manifest = self.manifest.lock().expect("manifest lock").clone();
        for (i, frames) in per_shard.iter().enumerate() {
            let gen = manifest.shards[i].wal_gen;
            write_segment(&seg_path(&self.root, i, gen), frames)?;
            manifest.shards[i].seg_gen = Some(gen);
            manifest.shards[i].wal_gen = gen + 1;
        }
        manifest.db_seq = inner.seq;
        manifest.next_wal_seq = self.next_wal_seq.load(Ordering::Relaxed);
        manifest.store(&self.root)?;
        // The swap is the commit point: from here the segments are the
        // store and the old WAL generations are garbage.
        for (i, w) in self.writers.iter().enumerate() {
            let fresh = WalWriter::open(
                wal_path(&self.root, i, manifest.shards[i].wal_gen),
                self.fsync,
            )?;
            *w.lock().expect("wal writer lock") = fresh;
        }
        let folded = self.pending_bytes.swap(0, Ordering::Relaxed);
        let removed = sweep_unreferenced(&self.root, &manifest)?;
        *self.manifest.lock().expect("manifest lock") = manifest;
        self.metrics.compactions.inc();
        Ok(CompactionStats {
            frames: frames_total,
            wal_bytes_folded: folded,
            files_removed: removed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nnlqp-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_open_lays_out_store() {
        let dir = temp_dir("fresh");
        let opts = DurableOptions::new(&dir).shards(3);
        let (engine, recovered) =
            StorageEngine::open_with_metrics(&opts, DbMetrics::standalone()).unwrap();
        assert!(recovered.is_none());
        assert_eq!(engine.n_shards(), 3);
        assert!(Manifest::path(&dir).exists());
        for i in 0..3 {
            assert!(wal_path(&dir, i, 1).exists());
        }
        // Reopen adopts the stored shard count, ignoring a different ask.
        drop(engine);
        let (engine, recovered) = StorageEngine::open_with_metrics(
            &DurableOptions::new(&dir).shards(8),
            DbMetrics::standalone(),
        )
        .unwrap();
        assert!(recovered.is_some());
        assert_eq!(engine.n_shards(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_survive_reopen() {
        use crate::records::{PlatformId, PlatformRecord};
        let dir = temp_dir("reopen");
        let opts = DurableOptions::new(&dir)
            .shards(2)
            .fsync(FsyncPolicy::Never);
        let (engine, _) = StorageEngine::open_with_metrics(&opts, DbMetrics::standalone()).unwrap();
        for i in 0..5u32 {
            engine.append(
                META_SHARD,
                &WalOp::Platform(PlatformRecord {
                    id: PlatformId(i),
                    hardware: format!("hw{i}"),
                    software: "sw".into(),
                    data_type: "fp32".into(),
                }),
            );
        }
        assert_eq!(engine.metrics.wal_appends.get(), 5);
        assert!(engine.pending_bytes() > 0);
        drop(engine);
        let (engine, recovered) =
            StorageEngine::open_with_metrics(&opts, DbMetrics::standalone()).unwrap();
        let rec = recovered.unwrap();
        assert_eq!(rec.stats.wal_frames_replayed, 5);
        assert!(rec.stats.clean());
        assert_eq!(engine.metrics.recovery_replayed_frames.get(), 5);
        assert_eq!(engine.next_wal_seq.load(Ordering::Relaxed), 5);
        std::fs::remove_dir_all(&dir).ok();
    }
}
