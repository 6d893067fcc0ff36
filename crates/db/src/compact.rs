//! Compaction: folding sealed WAL generations into immutable snapshot
//! segments, coordinated by a checksummed manifest that is swapped
//! atomically (write-temp + rename).
//!
//! The manifest is the single source of truth for what a durable store
//! consists of: per shard, the current WAL generation and (optionally)
//! the snapshot-segment generation. A compaction
//!
//! 1. seals every shard's WAL (flush + fsync),
//! 2. writes a fresh segment per shard holding *all* of the shard's
//!    records, streamed from the live rows one frame at a time (fsynced,
//!    renamed into place),
//! 3. swaps the manifest to point at the new segments and the next WAL
//!    generation,
//! 4. deletes the folded WAL files and superseded segments.
//!
//! A crash between any two steps leaves a store the recovery path reads
//! correctly: files not referenced by the manifest are ignored (and
//! cleaned up on the next open), and the manifest itself is either the
//! old or the new one, never a mix.

use crate::database::Database;
use crate::wal;
use nnlqp_ir::codec::Reader;
use nnlqp_obs::{panic_message, Recover};
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

const MAGIC: &[u8; 4] = b"NQMF";
const VERSION: u8 = 1;
/// Bytes before the payload: magic, version, payload checksum.
const HEADER: usize = 13;
/// The smallest shard entry: a WAL generation and an absent segment.
const MIN_SHARD_BYTES: usize = 9;

/// Per-shard bookkeeping inside the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMeta {
    /// Generation of the shard's *current* (appendable) WAL file.
    pub wal_gen: u64,
    /// Generation of the shard's snapshot segment, when one exists.
    pub seg_gen: Option<u64>,
}

/// The store manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Shard count the store was created with (fixed for its lifetime).
    pub n_shards: usize,
    /// The database sequence counter at the last compaction.
    pub db_seq: u64,
    /// First WAL sequence number expected in the current WAL generation —
    /// everything below it lives in the segments.
    pub next_wal_seq: u64,
    /// Per-shard state.
    pub shards: Vec<ShardMeta>,
}

impl Manifest {
    /// A brand-new store: empty segments, WAL generation 1.
    pub fn fresh(n_shards: usize) -> Self {
        Manifest {
            n_shards,
            db_seq: 0,
            next_wal_seq: 0,
            shards: vec![
                ShardMeta {
                    wal_gen: 1,
                    seg_gen: None,
                };
                n_shards
            ],
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER + 20 + self.shards.len() * 17);
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.extend_from_slice(&[0; 8]); // the payload checksum, written once it is known
        out.extend_from_slice(&(self.n_shards as u32).to_le_bytes());
        out.extend_from_slice(&self.db_seq.to_le_bytes());
        out.extend_from_slice(&self.next_wal_seq.to_le_bytes());
        for s in &self.shards {
            out.extend_from_slice(&s.wal_gen.to_le_bytes());
            match s.seg_gen {
                Some(g) => {
                    out.push(1);
                    out.extend_from_slice(&g.to_le_bytes());
                }
                None => out.push(0),
            }
        }
        let cks = wal::checksum(&out[HEADER..]);
        out[5..HEADER].copy_from_slice(&cks.to_le_bytes());
        out
    }

    fn decode(raw: &[u8]) -> io::Result<Self> {
        let mut r = Reader::new(raw, "manifest");
        r.header(MAGIC, VERSION)?;
        let want = r.u64()?;
        if wal::checksum(&raw[HEADER..]) != want {
            return Err(r.bad("checksum mismatch").into());
        }
        // The checksum is no signature: the count is refused before
        // anything reserves for it.
        let n_shards = r.count(MIN_SHARD_BYTES)?;
        let db_seq = r.u64()?;
        let next_wal_seq = r.u64()?;
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let wal_gen = r.u64()?;
            let seg_gen = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return Err(r.bad("bad segment flag").into()),
            };
            shards.push(ShardMeta { wal_gen, seg_gen });
        }
        r.finish()?;
        Ok(Manifest {
            n_shards,
            db_seq,
            next_wal_seq,
            shards,
        })
    }

    /// Manifest path inside a store directory.
    pub fn path(root: &Path) -> PathBuf {
        root.join("MANIFEST")
    }

    /// Load the manifest, `Ok(None)` when the store is brand new.
    pub fn load(root: &Path) -> io::Result<Option<Self>> {
        match std::fs::read(Self::path(root)) {
            Ok(raw) => Self::decode(&raw).map(Some),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Atomically publish this manifest: temp file, fsync, rename.
    pub fn store(&self, root: &Path) -> io::Result<()> {
        let tmp = root.join(format!(".MANIFEST.tmp-{}", std::process::id()));
        crate::shard::write_atomic(&tmp, &Self::path(root), |sink| {
            sink.write_all(&self.encode())
        })
    }
}

/// Delete shard files not referenced by the manifest (orphans from a
/// crashed compaction, stale WAL generations already folded away).
pub fn sweep_unreferenced(root: &Path, manifest: &Manifest) -> io::Result<usize> {
    let mut removed = 0;
    for (i, meta) in manifest.shards.iter().enumerate() {
        let dir = crate::shard::shard_dir(root, i);
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        let keep_wal = crate::shard::wal_path(root, i, meta.wal_gen);
        let keep_seg = meta.seg_gen.map(|g| crate::shard::seg_path(root, i, g));
        for entry in entries.filter_map(Result::ok) {
            let p = entry.path();
            if p == keep_wal || Some(&p) == keep_seg.as_ref() {
                continue;
            }
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("wal-") || name.starts_with("seg-") {
                std::fs::remove_file(&p)?;
                removed += 1;
            }
        }
    }
    Ok(removed)
}

/// Outcome of one compaction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionStats {
    /// Record frames folded into segments.
    pub frames: usize,
    /// WAL bytes retired by the pass.
    pub wal_bytes_folded: u64,
    /// Files deleted by the post-swap sweep.
    pub files_removed: usize,
}

/// Handle to the background compactor thread. The thread wakes every
/// `interval`, checks the engine's pending-WAL-bytes high-water mark
/// against `threshold_bytes`, and runs [`Database::compact`] when the log
/// has grown past it. A pass that returns an error or panics is counted in
/// `db.compaction_failures` and the loop carries on: the WAL still holds
/// everything, so the next tick retries. Dropping the handle stops and
/// joins the thread.
pub struct CompactorHandle {
    shared: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for CompactorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompactorHandle").finish_non_exhaustive()
    }
}

/// One background pass over a database.
type Pass = fn(&Database) -> io::Result<CompactionStats>;

impl CompactorHandle {
    /// Spawn the compactor over a shared database.
    pub fn spawn(db: Arc<Database>, threshold_bytes: u64, interval: Duration) -> Self {
        Self::start(db, threshold_bytes, interval, Database::compact)
    }

    /// [`CompactorHandle::spawn`] running `pass` for each due compaction;
    /// private, so that only this module's tests pass anything but
    /// [`Database::compact`].
    fn start(db: Arc<Database>, threshold_bytes: u64, interval: Duration, pass: Pass) -> Self {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("nnlqp-db-compactor".into())
            .spawn(move || {
                let (stop, cv) = &*thread_shared;
                let mut guard = stop.lock().recover();
                loop {
                    guard = cv.wait_timeout(guard, interval).recover().0;
                    if *guard {
                        return;
                    }
                    if db.wal_bytes_pending() >= threshold_bytes {
                        background_pass(&db, pass);
                    }
                }
            })
            .expect("spawn compactor thread");
        CompactorHandle {
            shared,
            thread: Some(thread),
        }
    }

    /// Stop and join the thread. `Err` holds the panic of a thread that
    /// died. Idempotent: a second call returns `Ok(())`.
    pub fn stop(&mut self) -> std::thread::Result<()> {
        *self.shared.0.lock().recover() = true;
        self.shared.1.notify_all();
        self.thread.take().map_or(Ok(()), JoinHandle::join)
    }
}

/// Run one background pass. A failed pass must not kill the writer or the
/// loop: the WAL still holds everything, so it is counted and reported,
/// and the next tick retries. Unwind safety: the tables' lock recovers from
/// poisoning, and a pass that stops before its manifest swap has published
/// nothing, so the store stays as the last good pass left it.
fn background_pass(db: &Database, pass: Pass) {
    let failure = match catch_unwind(AssertUnwindSafe(|| pass(db))) {
        Ok(Ok(_)) => return,
        Ok(Err(e)) => e.to_string(),
        Err(panic) => format!("panicked: {}", panic_message(&*panic)),
    };
    db.compaction_failed();
    eprintln!("nnlqp-db: background compaction failed: {failure}");
}

impl Drop for CompactorHandle {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::db_metric_names::{COMPACTIONS, COMPACTION_FAILURES, SWEEP_FAILURES};
    use crate::{DbMetrics, DurableOptions, FsyncPolicy};
    use nnlqp_obs::MetricsRegistry;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn three_shards() -> Manifest {
        Manifest {
            n_shards: 3,
            db_seq: 42,
            next_wal_seq: 17,
            shards: vec![
                ShardMeta {
                    wal_gen: 2,
                    seg_gen: Some(1),
                },
                ShardMeta {
                    wal_gen: 2,
                    seg_gen: None,
                },
                ShardMeta {
                    wal_gen: 5,
                    seg_gen: Some(4),
                },
            ],
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let m = three_shards();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn manifest_rejects_corruption() {
        for good in [Manifest::fresh(4).encode(), three_shards().encode()] {
            for cut in 0..good.len() {
                assert!(Manifest::decode(&good[..cut]).is_err(), "cut {cut}");
            }
            let mut flipped = good.clone();
            for at in 0..good.len() {
                for mask in (0..8).map(|b| 1u8 << b).chain([0xFF]) {
                    flipped[at] ^= mask;
                    let err = Manifest::decode(&flipped).unwrap_err();
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "byte {at}");
                    flipped[at] ^= mask;
                }
            }
        }
    }

    #[test]
    fn a_hostile_shard_count_is_refused_before_reserving() {
        // 33 bytes announcing u32::MAX shards under a correct checksum:
        // reserving for them would abort the process in the allocator.
        let mut raw = Manifest::fresh(0).encode();
        raw[HEADER..HEADER + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let cks = wal::checksum(&raw[HEADER..]);
        raw[5..HEADER].copy_from_slice(&cks.to_le_bytes());
        assert_eq!(raw.len(), 33);
        let err = Manifest::decode(&raw).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("announced"), "{err}");
    }

    #[test]
    fn manifest_store_load_atomic() {
        let dir = std::env::temp_dir().join(format!("nnlqp-manifest-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), None);
        let m = Manifest::fresh(2);
        m.store(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), Some(m.clone()));
        // Overwrite keeps the directory clean.
        let mut m2 = m;
        m2.db_seq = 9;
        m2.store(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap().unwrap().db_seq, 9);
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(litter.is_empty(), "{litter:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A durable two-shard store holding a platform and a model, its
    /// counters on `registry`, with a compactor due at every tick.
    fn due_store(tag: &str, registry: &Arc<MetricsRegistry>) -> (PathBuf, Arc<Database>) {
        let dir =
            std::env::temp_dir().join(format!("nnlqp-compactor-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DurableOptions::new(&dir)
            .shards(2)
            .fsync(FsyncPolicy::Never);
        let db =
            Database::open_durable_with_metrics(opts, DbMetrics::registered(registry)).unwrap();
        db.get_or_create_platform("T4", "trt7.1", "fp32");
        db.insert_model_encoded("m".into(), 7, vec![1; 16]);
        (dir, Arc::new(db))
    }

    /// Poll `registry`'s counter `name` until it reaches `at_least`.
    fn wait_for(registry: &MetricsRegistry, name: &str, at_least: u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while registry.snapshot().counter(name) < at_least {
            assert!(
                std::time::Instant::now() < deadline,
                "{name} never reached {at_least}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn a_failed_background_pass_is_counted_and_the_next_one_runs() {
        let registry = Arc::new(MetricsRegistry::new());
        let (dir, db) = due_store("failed", &registry);
        // A shard directory gone from under the store: the pass cannot
        // write that shard's segment.
        let shard = crate::shard::shard_dir(&dir, 1);
        std::fs::remove_dir_all(&shard).unwrap();
        let mut compactor = CompactorHandle::spawn(Arc::clone(&db), 1, Duration::from_millis(2));
        wait_for(&registry, COMPACTION_FAILURES, 1);
        assert_eq!(registry.snapshot().counter(COMPACTIONS), 0);
        std::fs::create_dir_all(&shard).unwrap();
        wait_for(&registry, COMPACTIONS, 1);
        compactor.stop().unwrap();
        let failures = registry.snapshot().counter(COMPACTION_FAILURES);
        drop(db);
        let reopened = Database::open_durable(DurableOptions::new(&dir)).unwrap();
        assert_eq!(reopened.stats().models, 1);
        assert_eq!(reopened.stats().platforms, 1);
        assert!(failures >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every `wal-`/`seg-` file under `dir` that `manifest` does not name.
    fn retired_files(dir: &Path, manifest: &Manifest) -> Vec<PathBuf> {
        let mut stale = Vec::new();
        for (i, meta) in manifest.shards.iter().enumerate() {
            let keep = [
                Some(crate::shard::wal_path(dir, i, meta.wal_gen)),
                meta.seg_gen.map(|g| crate::shard::seg_path(dir, i, g)),
            ];
            for entry in std::fs::read_dir(crate::shard::shard_dir(dir, i)).unwrap() {
                let p = entry.unwrap().path();
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                let retired = name.starts_with("wal-") || name.starts_with("seg-");
                if retired && !keep.contains(&Some(p.clone())) {
                    stale.push(p);
                }
            }
        }
        stale
    }

    #[test]
    fn a_committed_pass_whose_sweep_fails_is_a_compaction_not_a_failure() {
        let registry = Arc::new(MetricsRegistry::new());
        let (dir, db) = due_store("sweep", &registry);
        // A directory where the sweep expects a retired WAL file: it cannot
        // be removed as a file, so every sweep fails after its commit.
        let probe = crate::shard::shard_dir(&dir, 0).join("wal-000099.log");
        std::fs::create_dir_all(&probe).unwrap();
        let stats = db.compact().expect("a committed pass succeeds");
        assert_eq!(stats.files_removed, 0);
        let counter = |name| registry.snapshot().counter(name);
        assert_eq!((counter(COMPACTIONS), counter(SWEEP_FAILURES)), (1, 1));

        // The background loop counts the same pass once, as a compaction.
        db.insert_model_encoded("m2".into(), 8, vec![2; 16]);
        let mut compactor = CompactorHandle::spawn(Arc::clone(&db), 1, Duration::from_millis(2));
        wait_for(&registry, SWEEP_FAILURES, 2);
        compactor.stop().unwrap();
        assert!(counter(COMPACTIONS) >= 2);
        let snapshot = registry.snapshot();
        assert!(
            !snapshot.counters.contains_key(COMPACTION_FAILURES),
            "a committed pass counted as a failure"
        );

        // Once the obstacle is gone, the next pass's sweep retries.
        std::fs::remove_dir(&probe).unwrap();
        db.compact().unwrap();
        let manifest = Manifest::load(&dir).unwrap().unwrap();
        assert_eq!(retired_files(&dir, &manifest), Vec::<PathBuf>::new());
        drop(db);
        let reopened = Database::open_durable(DurableOptions::new(&dir)).unwrap();
        assert_eq!(reopened.stats().models, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_panicking_background_pass_is_counted_and_the_loop_carries_on() {
        static PANICKED: AtomicBool = AtomicBool::new(false);
        fn panics_once(db: &Database) -> io::Result<CompactionStats> {
            if !PANICKED.swap(true, Ordering::SeqCst) {
                panic!("a compaction pass panics");
            }
            db.compact()
        }
        let registry = Arc::new(MetricsRegistry::new());
        let (dir, db) = due_store("panic", &registry);
        assert!(!registry
            .snapshot()
            .counters
            .contains_key(COMPACTION_FAILURES));
        let mut compactor =
            CompactorHandle::start(Arc::clone(&db), 1, Duration::from_millis(2), panics_once);
        wait_for(&registry, COMPACTIONS, 1);
        assert_eq!(registry.snapshot().counter(COMPACTION_FAILURES), 1);
        assert!(compactor.stop().is_ok());
        assert!(compactor.stop().is_ok(), "a second stop is a no-op");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stop_returns_the_panic_of_a_thread_that_died() {
        let mut handle = CompactorHandle {
            shared: Arc::new((Mutex::new(false), Condvar::new())),
            thread: Some(std::thread::spawn(|| panic!("the compactor thread dies"))),
        };
        assert!(handle.stop().is_err());
        assert!(handle.stop().is_ok(), "a second stop is a no-op");
    }
}
