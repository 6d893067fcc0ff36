//! Hash partitioning and immutable snapshot segments.
//!
//! Records are partitioned by the 8-byte graph hash — the natural shard
//! key, since queries are point lookups on it. Model and latency rows
//! live on `shard_of(graph_hash)`; the tiny platform table lives on the
//! meta shard (shard 0). Each shard owns an append-only WAL plus at most
//! one *snapshot segment*: an immutable, checksummed file the compactor
//! folds sealed WAL frames into, carrying a graph-hash → byte-offset
//! index so a point lookup decodes exactly one frame instead of scanning
//! the log.

use crate::records::ModelRecord;
use crate::wal::{self, Frame, WalOp};
use nnlqp_ir::codec::Reader;
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The shard that owns the (global, tiny) platform table.
pub const META_SHARD: usize = 0;

/// Which shard owns a graph hash.
pub fn shard_of(graph_hash: u64, n_shards: usize) -> usize {
    debug_assert!(n_shards > 0);
    (graph_hash % n_shards as u64) as usize
}

/// `root/shard-NNN`.
pub fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard:03}"))
}

/// Current WAL file of a shard at generation `gen`.
pub fn wal_path(root: &Path, shard: usize, gen: u64) -> PathBuf {
    shard_dir(root, shard).join(format!("wal-{gen:06}.log"))
}

/// Snapshot segment of a shard at generation `gen`.
pub fn seg_path(root: &Path, shard: usize, gen: u64) -> PathBuf {
    shard_dir(root, shard).join(format!("seg-{gen:06}.snap"))
}

const MAGIC: &[u8; 4] = b"NQSG";
const VERSION: u8 = 1;
/// Bytes before the frames region: magic, version, frames length, count.
const HEADER: usize = 17;

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("segment: {what}"))
}

/// Serialize `frames` into the segment byte format:
///
/// ```text
/// [NQSG][u8 ver][u64 frames_len][u32 n_frames]
/// [frames: WAL frame encoding, back to back]
/// [u32 n_index][(u64 graph_hash, u64 offset) ...][u64 index checksum]
/// ```
///
/// Offsets are relative to the frames region and point at model frames —
/// the per-shard hash index that keeps point lookups O(1).
pub fn encode_segment(frames: &[Frame]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&[0; 8]); // the frames length, written once it is known
    out.extend_from_slice(&(frames.len() as u32).to_le_bytes());
    let mut index: Vec<(u64, u64)> = Vec::new();
    for f in frames {
        if let WalOp::Model(m) = &f.op {
            index.push((m.graph_hash, (out.len() - HEADER) as u64));
        }
        out.extend_from_slice(&wal::encode_frame(f));
    }
    let frames_len = (out.len() - HEADER) as u64;
    out[5..13].copy_from_slice(&frames_len.to_le_bytes());
    let idx_start = out.len();
    out.extend_from_slice(&(index.len() as u32).to_le_bytes());
    for &(hash, off) in &index {
        out.extend_from_slice(&hash.to_le_bytes());
        out.extend_from_slice(&off.to_le_bytes());
    }
    let cks = wal::checksum(&out[idx_start..]);
    out.extend_from_slice(&cks.to_le_bytes());
    out
}

/// Write a segment atomically: temp file in the same directory, flushed
/// and fsynced, then renamed over `path` — a crash mid-write leaves no
/// visible segment.
pub fn write_segment(path: &Path, frames: &[Frame]) -> io::Result<()> {
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    write_atomic(&tmp, path, &encode_segment(frames))
}

/// `bytes` into `tmp`, fsynced, then renamed over `path`; a failed write
/// removes `tmp`. The store publishes every segment and manifest this way.
pub(crate) fn write_atomic(tmp: &Path, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let write = (|| {
        let mut f = std::fs::File::create(tmp)?;
        f.write_all(bytes)?;
        f.sync_all()
    })();
    let result = write.and_then(|()| std::fs::rename(tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(tmp);
    }
    result
}

/// A loaded immutable segment: raw bytes plus the decoded hash index.
///
/// Frames are decoded lazily — `lookup_model` decodes exactly the one
/// frame its index entry points at, and `decoded_frames()` counts decodes
/// so tests can assert point lookups never degenerate into log scans.
#[derive(Debug)]
pub struct SnapshotSegment {
    raw: Vec<u8>,
    frames_len: usize,
    n_frames: u32,
    index: HashMap<u64, u64>,
    decoded: AtomicU64,
}

impl SnapshotSegment {
    /// Load and validate a segment file. Unlike a WAL tail, a segment is
    /// only ever published by an atomic rename after fsync — any
    /// inconsistency is hard corruption, not a torn write, so it errors.
    pub fn load(path: &Path) -> io::Result<Self> {
        Self::from_bytes(std::fs::read(path)?)
    }

    /// Validate an in-memory segment image.
    pub fn from_bytes(raw: Vec<u8>) -> io::Result<Self> {
        let mut r = Reader::new(&raw, "segment");
        r.header(MAGIC, VERSION)?;
        let frames_len = r.u64()? as usize;
        let n_frames = r.u32()?;
        r.take(frames_len)?;
        // The index, then its checksum in the last eight bytes.
        let index_raw = r.take(r.remaining().saturating_sub(8))?;
        if wal::checksum(index_raw) != r.u64()? {
            return Err(r.bad("index checksum mismatch").into());
        }
        let mut ix = Reader::new(index_raw, "segment index");
        let n_index = ix.u32()? as usize;
        if ix.remaining() != n_index * 16 {
            return Err(ix.bad("size mismatch").into());
        }
        let mut index = HashMap::with_capacity(n_index);
        for _ in 0..n_index {
            index.insert(ix.u64()?, ix.u64()?);
        }
        Ok(SnapshotSegment {
            raw,
            frames_len,
            n_frames,
            index,
            decoded: AtomicU64::new(0),
        })
    }

    /// Number of frames the segment claims to hold.
    pub fn len(&self) -> usize {
        self.n_frames as usize
    }

    /// Whether the segment holds no frames.
    pub fn is_empty(&self) -> bool {
        self.n_frames == 0
    }

    /// Model-index entries.
    pub fn indexed_models(&self) -> usize {
        self.index.len()
    }

    /// How many frames have been decoded through this handle — the
    /// observable cost of lookups (a point lookup must stay at 1).
    pub fn decoded_frames(&self) -> u64 {
        self.decoded.load(Ordering::Relaxed)
    }

    fn decode_at(&self, off: u64) -> io::Result<Frame> {
        let at = HEADER.saturating_add(off as usize);
        let (payload, want) =
            wal::frame_at(&self.raw, at).ok_or_else(|| bad("frame out of range"))?;
        if wal::checksum(payload) != want {
            return Err(bad("frame checksum mismatch"));
        }
        self.decoded.fetch_add(1, Ordering::Relaxed);
        wal::decode_payload(payload)
    }

    /// O(1) point lookup: hash → index probe → decode one frame.
    pub fn lookup_model(&self, graph_hash: u64) -> io::Result<Option<ModelRecord>> {
        let Some(&off) = self.index.get(&graph_hash) else {
            return Ok(None);
        };
        match self.decode_at(off)?.op {
            WalOp::Model(m) if m.graph_hash == graph_hash => Ok(Some(m)),
            _ => Err(bad("index entry does not point at its model")),
        }
    }

    /// Decode every frame (recovery and verification).
    pub fn frames(&self) -> io::Result<Vec<Frame>> {
        let body = &self.raw[HEADER..HEADER + self.frames_len];
        let scan = wal::scan_frames(body);
        if scan.truncated_bytes != 0 || scan.frames.len() != self.n_frames as usize {
            return Err(bad("frame body does not match header"));
        }
        self.decoded
            .fetch_add(scan.frames.len() as u64, Ordering::Relaxed);
        Ok(scan.frames)
    }

    /// Full consistency check: every frame decodes, every index entry
    /// points at the model it claims.
    pub fn verify(&self) -> io::Result<()> {
        let frames = self.frames()?;
        let mut models = 0usize;
        for f in &frames {
            if let WalOp::Model(m) = &f.op {
                models += 1;
                let hit = self
                    .lookup_model(m.graph_hash)?
                    .ok_or_else(|| bad("model missing from index"))?;
                if hit != *m {
                    return Err(bad("index resolves to a different model"));
                }
            }
        }
        if models != self.index.len() {
            return Err(bad("index cardinality mismatch"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::ModelId;

    fn model_frame(i: u32) -> Frame {
        Frame {
            wal_seq: u64::from(i),
            op: WalOp::Model(ModelRecord {
                id: ModelId(i),
                graph_hash: 0xAB00 + u64::from(i) * 7,
                name: format!("m{i}"),
                graph_bytes: vec![i as u8; 24],
                created_seq: u64::from(i),
            }),
        }
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        for n in [1usize, 2, 4, 8] {
            for h in [0u64, 1, 0xdead_beef, u64::MAX] {
                let s = shard_of(h, n);
                assert!(s < n);
                assert_eq!(s, shard_of(h, n));
            }
        }
    }

    #[test]
    fn segment_roundtrip_and_verify() {
        let frames: Vec<Frame> = (0..20).map(model_frame).collect();
        let seg = SnapshotSegment::from_bytes(encode_segment(&frames)).unwrap();
        assert_eq!(seg.len(), 20);
        assert_eq!(seg.indexed_models(), 20);
        assert_eq!(seg.frames().unwrap(), frames);
        seg.verify().unwrap();
    }

    #[test]
    fn point_lookup_decodes_exactly_one_frame_per_probe() {
        // The shard-local index demonstration: lookups stay O(1) no
        // matter how many records the compacted segment holds.
        let frames: Vec<Frame> = (0..500).map(model_frame).collect();
        let seg = SnapshotSegment::from_bytes(encode_segment(&frames)).unwrap();
        for i in [0u32, 123, 250, 499] {
            let hash = 0xAB00 + u64::from(i) * 7;
            let hit = seg.lookup_model(hash).unwrap().unwrap();
            assert_eq!(hit.id, ModelId(i));
        }
        assert_eq!(
            seg.decoded_frames(),
            4,
            "4 point lookups over 500 records must decode exactly 4 frames"
        );
        // A miss probes the index only — zero decodes.
        assert!(seg.lookup_model(0x1234_5678).unwrap().is_none());
        assert_eq!(seg.decoded_frames(), 4);
    }

    #[test]
    fn corrupt_segment_rejected() {
        let frames: Vec<Frame> = (0..4).map(model_frame).collect();
        let good = encode_segment(&frames);
        // Every truncation and every single-byte flip is detected at load
        // or at frame access: segments are atomic, no torn-tail tolerance.
        let refused =
            |raw: &[u8]| SnapshotSegment::from_bytes(raw.to_vec()).and_then(|s| s.verify());
        refused(&good).unwrap();
        for cut in 0..good.len() {
            assert!(refused(&good[..cut]).is_err(), "cut {cut}");
        }
        let mut flipped = good.clone();
        for at in 0..good.len() {
            for mask in (0..8).map(|b| 1u8 << b).chain([0xFF]) {
                flipped[at] ^= mask;
                assert!(refused(&flipped).is_err(), "byte {at} ^ {mask:#04x}");
                flipped[at] ^= mask;
            }
        }
    }

    #[test]
    fn atomic_write_then_load() {
        let dir = std::env::temp_dir().join(format!("nnlqp-seg-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-000001.snap");
        let frames: Vec<Frame> = (0..8).map(model_frame).collect();
        write_segment(&path, &frames).unwrap();
        // Overwrite is also atomic and leaves no temp litter.
        write_segment(&path, &frames).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let seg = SnapshotSegment::load(&path).unwrap();
        assert_eq!(seg.frames().unwrap(), frames);
        std::fs::remove_dir_all(&dir).ok();
    }
}
