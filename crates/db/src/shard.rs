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
use bytes::{BufMut, Bytes, BytesMut};
use std::collections::HashMap;
use std::io::{self, Read, Write};
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
pub fn encode_segment(frames: &[Frame]) -> Bytes {
    let mut body: Vec<u8> = Vec::new();
    let mut index: Vec<(u64, u64)> = Vec::new();
    for f in frames {
        if let WalOp::Model(m) = &f.op {
            index.push((m.graph_hash, body.len() as u64));
        }
        body.put_slice(&wal::encode_frame(f));
    }
    let mut idx: Vec<u8> = Vec::with_capacity(4 + index.len() * 16);
    idx.put_u32_le(index.len() as u32);
    for (hash, off) in &index {
        idx.put_u64_le(*hash);
        idx.put_u64_le(*off);
    }
    let mut out = BytesMut::with_capacity(17 + body.len() + idx.len() + 8);
    out.put_slice(MAGIC);
    out.put_u8(VERSION);
    out.put_u64_le(body.len() as u64);
    out.put_u32_le(frames.len() as u32);
    out.put_slice(&body);
    let cks = wal::checksum(&idx);
    out.put_slice(&idx);
    out.put_u64_le(cks);
    out.freeze()
}

/// Write a segment atomically: temp file in the same directory, flushed
/// and fsynced, then renamed over `path` — a crash mid-write leaves no
/// visible segment.
pub fn write_segment(path: &Path, frames: &[Frame]) -> io::Result<()> {
    let bytes = encode_segment(frames);
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    let write = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()
    })();
    let result = write.and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
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
    frames_start: usize,
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
        let mut raw = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut raw)?;
        Self::from_bytes(raw)
    }

    /// Validate an in-memory segment image.
    pub fn from_bytes(raw: Vec<u8>) -> io::Result<Self> {
        if raw.len() < 17 {
            return Err(bad("truncated header"));
        }
        if &raw[..4] != MAGIC {
            return Err(bad("bad magic"));
        }
        if raw[4] != VERSION {
            return Err(bad("unsupported version"));
        }
        let frames_len = u64::from_le_bytes(raw[5..13].try_into().unwrap()) as usize;
        let n_frames = u32::from_le_bytes(raw[13..17].try_into().unwrap());
        let frames_start = 17usize;
        let idx_start = frames_start
            .checked_add(frames_len)
            .ok_or_else(|| bad("frames length overflow"))?;
        if raw.len() < idx_start + 4 + 8 {
            return Err(bad("truncated index"));
        }
        let n_index =
            u32::from_le_bytes(raw[idx_start..idx_start + 4].try_into().unwrap()) as usize;
        let idx_end = idx_start + 4 + n_index * 16;
        if raw.len() != idx_end + 8 {
            return Err(bad("index size mismatch"));
        }
        let want = u64::from_le_bytes(raw[idx_end..idx_end + 8].try_into().unwrap());
        if wal::checksum(&raw[idx_start..idx_end]) != want {
            return Err(bad("index checksum mismatch"));
        }
        let mut index = HashMap::with_capacity(n_index);
        let mut at = idx_start + 4;
        for _ in 0..n_index {
            let hash = u64::from_le_bytes(raw[at..at + 8].try_into().unwrap());
            let off = u64::from_le_bytes(raw[at + 8..at + 16].try_into().unwrap());
            index.insert(hash, off);
            at += 16;
        }
        Ok(SnapshotSegment {
            raw,
            frames_start,
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
        let at = self.frames_start + off as usize;
        let header = self
            .raw
            .get(at..at + 12)
            .ok_or_else(|| bad("index offset out of range"))?;
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let want = u64::from_le_bytes(header[4..12].try_into().unwrap());
        let payload = self
            .raw
            .get(at + 12..at + 12 + len)
            .ok_or_else(|| bad("frame out of range"))?;
        if wal::checksum(payload) != want {
            return Err(bad("frame checksum mismatch"));
        }
        self.decoded.fetch_add(1, Ordering::Relaxed);
        wal::decode_payload(Bytes::from(payload.to_vec()))
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
        let body = &self.raw[self.frames_start..self.frames_start + self.frames_len];
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
        let seg = SnapshotSegment::from_bytes(encode_segment(&frames).to_vec()).unwrap();
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
        let seg = SnapshotSegment::from_bytes(encode_segment(&frames).to_vec()).unwrap();
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
        let good = encode_segment(&frames).to_vec();
        // Truncations and bit flips anywhere must be detected at load or
        // at frame access — segments are atomic, no torn-tail tolerance.
        assert!(SnapshotSegment::from_bytes(good[..good.len() - 3].to_vec()).is_err());
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        match SnapshotSegment::from_bytes(flipped) {
            Err(_) => {}
            Ok(seg) => assert!(seg.verify().is_err()),
        }
        let mut bad_magic = good;
        bad_magic[0] = b'Z';
        assert!(SnapshotSegment::from_bytes(bad_magic).is_err());
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
