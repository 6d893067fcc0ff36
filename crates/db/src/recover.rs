//! Crash recovery: manifest → snapshot segments → WAL tail.
//!
//! Recovery replays the store in two layers. The snapshot segments hold
//! everything up to the last compaction and are loaded strictly — they
//! were published by fsync + atomic rename, so any inconsistency there is
//! hard corruption. The WAL tails are loaded leniently: a crash can tear
//! the end of a log, so each shard's scan stops at the first bad frame.
//!
//! Because shards are separate files, a crash can also lose a *suffix* of
//! one shard while a later write survives in another. Every frame carries
//! a dense global `wal_seq`; after the per-shard scans, recovery merges
//! the frames by sequence number and stops at the first gap. What remains
//! is a consistent global prefix of the commit order — no dangling
//! foreign keys, no record without its predecessors.

use crate::compact::Manifest;
use crate::database::Database;
use crate::records::{LatencyRecord, ModelRecord, PlatformRecord};
use crate::shard::{seg_path, wal_path, SnapshotSegment};
use crate::wal::{self, WalOp};
use std::io;
use std::path::Path;

pub(crate) fn corrupt(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Counters describing one recovery pass (feeds the
/// `db.recovery_replayed_frames` / `db.recovery_truncated_bytes` metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Frames restored from snapshot segments.
    pub seg_frames: usize,
    /// WAL frames replayed (the committed prefix).
    pub wal_frames_replayed: usize,
    /// Torn/corrupt tail bytes refused across all shard WALs.
    pub wal_truncated_bytes: u64,
    /// Intact frames discarded by the global-sequence gap rule.
    pub wal_frames_discarded: usize,
}

impl RecoveryStats {
    /// Whether the WALs replayed without losing anything.
    pub fn clean(&self) -> bool {
        self.wal_truncated_bytes == 0 && self.wal_frames_discarded == 0
    }
}

/// Everything recovery learned about a store.
#[derive(Debug)]
pub struct Recovered {
    /// The manifest the store was opened against.
    pub manifest: Manifest,
    /// All committed ops, segments first, then the WAL prefix in global
    /// sequence order.
    pub ops: Vec<WalOp>,
    /// Replay counters.
    pub stats: RecoveryStats,
    /// Restored database sequence counter.
    pub db_seq: u64,
    /// Where WAL appends resume.
    pub next_wal_seq: u64,
}

/// Replay a store directory. `Ok(None)` means no manifest — a brand-new
/// store. Segment corruption is a hard error; WAL damage is tolerated and
/// reported through [`RecoveryStats`].
pub fn recover(root: &Path) -> io::Result<Option<Recovered>> {
    let Some(manifest) = Manifest::load(root)? else {
        return Ok(None);
    };
    let mut ops = Vec::new();
    let mut stats = RecoveryStats::default();
    let mut max_created = None::<u64>;

    // Layer 1: snapshot segments, strict.
    for (i, meta) in manifest.shards.iter().enumerate() {
        let Some(gen) = meta.seg_gen else { continue };
        let seg = SnapshotSegment::load(&seg_path(root, i, gen))
            .map_err(|e| corrupt(format!("shard {i} segment gen {gen}: {e}")))?;
        for f in seg.frames()? {
            track_created(&f.op, &mut max_created);
            ops.push(f.op);
            stats.seg_frames += 1;
        }
    }

    // Layer 2: WAL tails, lenient per shard.
    let mut wal_frames = Vec::new();
    for (i, meta) in manifest.shards.iter().enumerate() {
        let scan = wal::read_wal(&wal_path(root, i, meta.wal_gen))?;
        stats.wal_truncated_bytes += scan.truncated_bytes;
        for f in scan.frames {
            if f.wal_seq < manifest.next_wal_seq {
                // Already folded into a segment — a stale duplicate from
                // a crashed compaction window. Skip it.
                stats.wal_frames_discarded += 1;
            } else {
                wal_frames.push(f);
            }
        }
    }

    // Merge by global sequence and stop at the first gap: everything
    // after a lost frame is discarded so the surviving state is a true
    // prefix of the commit order.
    wal_frames.sort_by_key(|f| f.wal_seq);
    let mut expect = manifest.next_wal_seq;
    let mut replayed = 0usize;
    for f in &wal_frames {
        if f.wal_seq != expect {
            break;
        }
        expect += 1;
        replayed += 1;
    }
    stats.wal_frames_discarded += wal_frames.len() - replayed;
    stats.wal_frames_replayed = replayed;
    for f in wal_frames.into_iter().take(replayed) {
        track_created(&f.op, &mut max_created);
        ops.push(f.op);
    }

    let db_seq = manifest.db_seq.max(max_created.map_or(0, |c| c + 1));
    Ok(Some(Recovered {
        manifest,
        ops,
        stats,
        db_seq,
        next_wal_seq: expect,
    }))
}

fn track_created(op: &WalOp, max: &mut Option<u64>) {
    let seq = match op {
        WalOp::Model(m) => m.created_seq,
        WalOp::Latency(l) => l.created_seq,
        WalOp::Platform(_) => return,
    };
    *max = Some(max.map_or(seq, |m| m.max(seq)));
}

/// Rebuild an in-memory [`Database`] from recovered ops, re-checking the
/// invariants the live write path enforces: dense primary keys, unique
/// hash/platform indexes, valid foreign keys. A violation means the store
/// files contradict each other and is reported as corruption.
///
/// The ops are moved into the tables, graph blobs and all: a reopen holds
/// the store once, not the recovered list beside a copy of it. Callers
/// take `ops` and `db_seq` out of a [`Recovered`] and keep its manifest
/// and stats.
pub fn build_database(ops: Vec<WalOp>, db_seq: u64) -> io::Result<Database> {
    let mut models: Vec<Option<ModelRecord>> = Vec::new();
    let mut platforms: Vec<Option<PlatformRecord>> = Vec::new();
    let mut latencies: Vec<Option<LatencyRecord>> = Vec::new();
    fn place<T>(table: &mut Vec<Option<T>>, id: u32, rec: T, what: &str) -> io::Result<()> {
        let at = id as usize;
        if table.len() <= at {
            table.resize_with(at + 1, || None);
        }
        if table[at].is_some() {
            return Err(corrupt(format!("duplicate {what} id {id}")));
        }
        table[at] = Some(rec);
        Ok(())
    }
    for op in ops {
        match op {
            WalOp::Model(m) => place(&mut models, m.id.0, m, "model")?,
            WalOp::Platform(p) => place(&mut platforms, p.id.0, p, "platform")?,
            WalOp::Latency(l) => place(&mut latencies, l.id.0, l, "latency")?,
        }
    }
    fn dense<T>(table: Vec<Option<T>>, what: &str) -> io::Result<Vec<T>> {
        table
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.ok_or_else(|| corrupt(format!("missing {what} id {i}"))))
            .collect()
    }
    Database::from_rows(
        dense(models, "model")?,
        dense(platforms, "platform")?,
        dense(latencies, "latency")?,
        db_seq,
    )
}

/// Open a durable store read-only: replay it into a plain in-memory
/// [`Database`] without creating files, WAL writers, or a compactor.
/// Used by `nnlqp db stats` and inspection tooling.
pub fn open_read_only(root: &Path) -> io::Result<(Database, RecoveryStats)> {
    match recover(root)? {
        Some(rec) => Ok((build_database(rec.ops, rec.db_seq)?, rec.stats)),
        None => Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no durable store at {}", root.display()),
        )),
    }
}

/// Verification report for `nnlqp db verify`.
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Shard count from the manifest.
    pub n_shards: usize,
    /// Frames held by snapshot segments.
    pub seg_frames: usize,
    /// Committed WAL frames.
    pub wal_frames: usize,
    /// Torn tail bytes across shard WALs.
    pub wal_truncated_bytes: u64,
    /// Intact frames dropped by the gap rule.
    pub wal_frames_discarded: usize,
    /// Row counts after replay (zero when replay failed).
    pub models: usize,
    /// Platform rows after replay.
    pub platforms: usize,
    /// Latency rows after replay.
    pub latencies: usize,
    /// Hard corruption findings, empty for a healthy store.
    pub errors: Vec<String>,
}

impl VerifyReport {
    /// A store is clean when nothing is corrupt and no WAL data was lost.
    pub fn clean(&self) -> bool {
        self.errors.is_empty() && self.wal_truncated_bytes == 0 && self.wal_frames_discarded == 0
    }
}

/// Check every checksum in a store: manifest, each segment (including its
/// hash index), each WAL, then a full structural replay. Collects
/// findings instead of stopping at the first, so the report covers the
/// whole store. `Err` only for I/O failures or a missing/corrupt manifest.
pub fn verify_store(root: &Path) -> io::Result<VerifyReport> {
    let manifest = Manifest::load(root)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("no durable store at {}", root.display()),
        )
    })?;
    let mut report = VerifyReport {
        n_shards: manifest.n_shards,
        ..VerifyReport::default()
    };
    for (i, meta) in manifest.shards.iter().enumerate() {
        if let Some(gen) = meta.seg_gen {
            match SnapshotSegment::load(&seg_path(root, i, gen)) {
                Ok(seg) => match seg.verify() {
                    Ok(()) => report.seg_frames += seg.len(),
                    Err(e) => report.errors.push(format!("shard {i} segment: {e}")),
                },
                Err(e) => report.errors.push(format!("shard {i} segment: {e}")),
            }
        }
        match wal::read_wal(&wal_path(root, i, meta.wal_gen)) {
            Ok(scan) => report.wal_truncated_bytes += scan.truncated_bytes,
            Err(e) => report.errors.push(format!("shard {i} wal: {e}")),
        }
    }
    match recover(root) {
        Ok(Some(rec)) => {
            report.wal_frames = rec.stats.wal_frames_replayed;
            report.wal_frames_discarded = rec.stats.wal_frames_discarded;
            match build_database(rec.ops, rec.db_seq) {
                Ok(db) => {
                    let s = db.stats();
                    report.models = s.models;
                    report.platforms = s.platforms;
                    report.latencies = s.latencies;
                }
                Err(e) => report.errors.push(format!("replay: {e}")),
            }
        }
        Ok(None) => report.errors.push("manifest vanished mid-verify".into()),
        Err(e) => report.errors.push(format!("recover: {e}")),
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{LatencyId, ModelId, PlatformId};
    use crate::shard::{shard_dir, shard_of};
    use crate::wal::{encode_frame, Frame, FsyncPolicy, WalWriter};

    fn model(i: u32, n_shards: usize, shard: usize) -> ModelRecord {
        // Pick a hash that routes to the requested shard.
        let mut h = u64::from(i) * 31 + 7;
        while shard_of(h, n_shards) != shard {
            h += 1;
        }
        ModelRecord {
            id: ModelId(i),
            graph_hash: h,
            name: format!("m{i}"),
            graph_bytes: vec![i as u8; 10],
            created_seq: u64::from(i),
        }
    }

    fn platform(i: u32) -> PlatformRecord {
        PlatformRecord {
            id: PlatformId(i),
            hardware: format!("hw{i}"),
            software: "sw".into(),
            data_type: "fp32".into(),
        }
    }

    fn latency(i: u32, model: u32, platform: u32, seq: u64) -> LatencyRecord {
        LatencyRecord {
            id: LatencyId(i),
            model_id: ModelId(model),
            platform_id: PlatformId(platform),
            batch_size: 1,
            cost_ms: f64::from(i) + 0.5,
            mem_access: 0.0,
            host_mem: 0,
            device_mem: 0,
            created_seq: seq,
        }
    }

    fn temp_store(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("nnlqp-recover-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for i in 0..2 {
            std::fs::create_dir_all(shard_dir(&dir, i)).unwrap();
        }
        dir
    }

    /// Hand-build a 2-shard store: platform + model 0 on shard 0's WAL,
    /// model 1 on shard 1's WAL.
    fn write_store(dir: &std::path::Path, frames_by_shard: [&[Frame]; 2]) {
        Manifest::fresh(2).store(dir).unwrap();
        for (i, frames) in frames_by_shard.iter().enumerate() {
            let mut w = WalWriter::open(wal_path(dir, i, 1), FsyncPolicy::Never).unwrap();
            for f in *frames {
                w.append(&encode_frame(f), None).unwrap();
            }
        }
    }

    #[test]
    fn fresh_directory_recovers_to_none() {
        let dir = temp_store("fresh");
        assert!(recover(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cross_shard_gap_discards_later_survivors() {
        // Shard 0: seq 0 (platform), seq 1 (model 0). Shard 1: seq 2
        // (model 1). Simulate losing shard 0's tail (seq 1): the intact
        // seq-2 frame on shard 1 must ALSO be discarded — otherwise the
        // store resurrects a record whose predecessor is gone.
        let dir = temp_store("gap");
        let f0 = Frame {
            wal_seq: 0,
            op: WalOp::Platform(platform(0)),
        };
        let f2 = Frame {
            wal_seq: 2,
            op: WalOp::Model(model(1, 2, 1)),
        };
        write_store(&dir, [std::slice::from_ref(&f0), std::slice::from_ref(&f2)]);
        let rec = recover(&dir).unwrap().unwrap();
        assert_eq!(rec.ops, vec![f0.op]);
        assert_eq!(rec.stats.wal_frames_replayed, 1);
        assert_eq!(rec.stats.wal_frames_discarded, 1);
        assert_eq!(rec.next_wal_seq, 1);
        let db = build_database(rec.ops, rec.db_seq).unwrap();
        assert_eq!(db.stats().platforms, 1);
        assert_eq!(db.stats().models, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_store_replays_and_rebuilds_indexes() {
        let dir = temp_store("full");
        let m0 = model(0, 2, 0);
        let m1 = model(1, 2, 1);
        let shard0 = vec![
            Frame {
                wal_seq: 0,
                op: WalOp::Platform(platform(0)),
            },
            Frame {
                wal_seq: 1,
                op: WalOp::Model(m0.clone()),
            },
            Frame {
                wal_seq: 3,
                op: WalOp::Latency(latency(0, 0, 0, 2)),
            },
            Frame {
                wal_seq: 4,
                op: WalOp::Latency(latency(1, 0, 0, 3)),
            },
        ];
        let shard1 = vec![Frame {
            wal_seq: 2,
            op: WalOp::Model(m1.clone()),
        }];
        write_store(&dir, [&shard0, &shard1]);
        let rec = recover(&dir).unwrap().unwrap();
        assert!(rec.stats.clean());
        assert_eq!(rec.stats.wal_frames_replayed, 5);
        assert_eq!(rec.db_seq, 4);
        assert_eq!(rec.next_wal_seq, 5);
        let db = build_database(rec.ops, rec.db_seq).unwrap();
        assert_eq!(db.stats().models, 2);
        assert_eq!(db.stats().latencies, 2);
        // Hash index rebuilt.
        assert_eq!(db.model_by_hash(m1.graph_hash).unwrap().id, m1.id);
        // by_query points at the LAST latency for the key.
        let hit = db.lookup_latency(m0.graph_hash, PlatformId(0), 1).unwrap();
        assert_eq!(hit.id, LatencyId(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_ids_are_corruption() {
        let dir = temp_store("dup");
        let frames = vec![
            Frame {
                wal_seq: 0,
                op: WalOp::Model(model(0, 2, 0)),
            },
            Frame {
                wal_seq: 1,
                op: WalOp::Model(model(0, 2, 0)),
            },
        ];
        write_store(&dir, [&frames, &[]]);
        let rec = recover(&dir).unwrap().unwrap();
        assert!(build_database(rec.ops, rec.db_seq).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_reports_clean_and_dirty_stores() {
        let dir = temp_store("verify");
        let frames = vec![
            Frame {
                wal_seq: 0,
                op: WalOp::Platform(platform(0)),
            },
            Frame {
                wal_seq: 1,
                op: WalOp::Model(model(0, 2, 0)),
            },
        ];
        write_store(&dir, [&frames, &[]]);
        let report = verify_store(&dir).unwrap();
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.wal_frames, 2);
        assert_eq!(report.models, 1);
        // Tear the WAL tail: verify flags it without erroring.
        let wal = wal_path(&dir, 0, 1);
        let raw = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &raw[..raw.len() - 3]).unwrap();
        let report = verify_store(&dir).unwrap();
        assert!(!report.clean());
        assert!(report.wal_truncated_bytes > 0);
        assert!(
            report.errors.is_empty(),
            "torn tail is damage, not corruption"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
