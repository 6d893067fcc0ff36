//! Write-ahead log: length-prefixed, checksummed record frames.
//!
//! Every mutation of a durable [`crate::Database`] is encoded as one
//! [`WalOp`] and appended to the owning shard's log before the in-memory
//! state changes are visible to readers. A frame on disk is
//!
//! ```text
//! [u32 payload len][u64 FNV-1a checksum][payload bytes]
//! ```
//!
//! where the payload starts with the op's global `wal_seq` (dense across
//! all shards — recovery uses it to reconstruct a consistent prefix) and
//! the checksum is the FNV-1a core from `nnlqp-hash` run over the payload.
//! A crash can only ever tear the *tail* of a log: [`read_wal`] replays
//! frames until the first torn or corrupt one and reports how many bytes
//! it refused, instead of failing the whole store.

use crate::records::{LatencyId, LatencyRecord, ModelId, ModelRecord, PlatformId, PlatformRecord};
use nnlqp_hash::StreamHasher;
use nnlqp_ir::codec::{narrow, put_bytes, Reader};
use nnlqp_ir::IrResult;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// FNV-1a checksum of a byte slice: the length is folded in first so a
/// truncated payload can never collide with its own prefix.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = StreamHasher::new();
    h.write_u64(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h.write_u64(u64::from_le_bytes(w));
    }
    h.finish()
}

/// One logical database mutation, as logged. Ids are assigned by the
/// writer before logging, so replay reconstructs identical tables.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A new model row.
    Model(ModelRecord),
    /// A new platform row.
    Platform(PlatformRecord),
    /// A new latency row.
    Latency(LatencyRecord),
}

/// A decoded frame: the op plus its global sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Dense global sequence number (across all shards).
    pub wal_seq: u64,
    /// The logged mutation.
    pub op: WalOp,
}

/// A [`WalOp`] borrowed from where its record lives: the write path logs
/// a row, and a compaction folds the tables, without cloning a record
/// (graph blob included) into an owned op first.
#[derive(Debug, Clone, Copy)]
pub enum OpRef<'a> {
    /// A model row.
    Model(&'a ModelRecord),
    /// A platform row.
    Platform(&'a PlatformRecord),
    /// A latency row.
    Latency(&'a LatencyRecord),
}

impl WalOp {
    /// This op, borrowed.
    pub fn view(&self) -> OpRef<'_> {
        match self {
            WalOp::Model(m) => OpRef::Model(m),
            WalOp::Platform(p) => OpRef::Platform(p),
            WalOp::Latency(l) => OpRef::Latency(l),
        }
    }
}

const TAG_MODEL: u8 = 1;
const TAG_PLATFORM: u8 = 2;
const TAG_LATENCY: u8 = 3;

/// Bytes before a frame's payload: its length, then its checksum.
pub(crate) const FRAME_HEADER: usize = 12;

/// Payload bytes of `op`'s frame, exactly: a frame is one allocation, and
/// a segment's header knows its frames' length before it writes one.
pub(crate) fn payload_len(op: OpRef<'_>) -> usize {
    8 + 1
        + match op {
            OpRef::Model(m) => 4 + 8 + 4 + m.name.len() + 4 + m.graph_bytes.len() + 8,
            OpRef::Platform(p) => {
                4 + 3 * 4 + p.hardware.len() + p.software.len() + p.data_type.len()
            }
            OpRef::Latency(_) => 4 * 4 + 8 * 5,
        }
}

/// Encode one frame (length prefix + checksum + payload). Panics when a
/// string or blob is longer than its `u32` length prefix holds, which no
/// record a store keeps is: the store frames each record before keeping it.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    encode_op(frame.wal_seq, frame.op.view()).unwrap_or_else(|e| panic!("encode_frame: {e}"))
}

/// [`encode_frame`] over a borrowed op, into a buffer of its exact size.
/// A field longer than its length prefix is the codec's `DoesNotFit`.
pub(crate) fn encode_op(wal_seq: u64, op: OpRef<'_>) -> IrResult<Vec<u8>> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload_len(op));
    encode_op_into(&mut out, wal_seq, op)?;
    Ok(out)
}

/// Encode `op`'s frame into `out`, replacing what it held: a segment
/// writer reuses one buffer for all its frames. The payload is written
/// after a zeroed header, which is filled in last.
pub(crate) fn encode_op_into(out: &mut Vec<u8>, wal_seq: u64, op: OpRef<'_>) -> IrResult<()> {
    out.clear();
    out.reserve(FRAME_HEADER + payload_len(op));
    out.resize(FRAME_HEADER, 0);
    out.extend_from_slice(&wal_seq.to_le_bytes());
    match op {
        OpRef::Model(m) => {
            out.push(TAG_MODEL);
            out.extend_from_slice(&m.id.0.to_le_bytes());
            out.extend_from_slice(&m.graph_hash.to_le_bytes());
            put_bytes(out, "model name", m.name.as_bytes())?;
            put_bytes(out, "graph bytes", &m.graph_bytes)?;
            out.extend_from_slice(&m.created_seq.to_le_bytes());
        }
        OpRef::Platform(p) => {
            out.push(TAG_PLATFORM);
            out.extend_from_slice(&p.id.0.to_le_bytes());
            put_bytes(out, "hardware", p.hardware.as_bytes())?;
            put_bytes(out, "software", p.software.as_bytes())?;
            put_bytes(out, "data type", p.data_type.as_bytes())?;
        }
        OpRef::Latency(l) => {
            out.push(TAG_LATENCY);
            out.extend_from_slice(&l.id.0.to_le_bytes());
            out.extend_from_slice(&l.model_id.0.to_le_bytes());
            out.extend_from_slice(&l.platform_id.0.to_le_bytes());
            out.extend_from_slice(&l.batch_size.to_le_bytes());
            out.extend_from_slice(&l.cost_ms.to_le_bytes());
            out.extend_from_slice(&l.mem_access.to_le_bytes());
            out.extend_from_slice(&l.host_mem.to_le_bytes());
            out.extend_from_slice(&l.device_mem.to_le_bytes());
            out.extend_from_slice(&l.created_seq.to_le_bytes());
        }
    }
    debug_assert_eq!(out.len(), FRAME_HEADER + payload_len(op));
    let (header, payload) = out.split_at_mut(FRAME_HEADER);
    let len: u32 = narrow(None, "frame payload", payload.len() as u64)?;
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&checksum(payload).to_le_bytes());
    Ok(())
}

/// The frame starting at `at`: its payload and the checksum its header
/// records, `None` when the header or the payload runs past the end.
pub(crate) fn frame_at(raw: &[u8], at: usize) -> Option<(&[u8], u64)> {
    let mut r = Reader::new(raw.get(at..)?, "frame");
    let len = r.u32().ok()? as usize;
    let want = r.u64().ok()?;
    Some((r.take(len).ok()?, want))
}

/// Decode one payload (the bytes after the length + checksum header).
pub fn decode_payload(payload: &[u8]) -> io::Result<Frame> {
    let mut r = Reader::new(payload, "corrupt frame");
    let wal_seq = r.u64()?;
    let op = match r.u8()? {
        TAG_MODEL => WalOp::Model(ModelRecord {
            id: ModelId(r.u32()?),
            graph_hash: r.u64()?,
            name: r.string()?,
            graph_bytes: r.bytes()?.to_vec(),
            created_seq: r.u64()?,
        }),
        TAG_PLATFORM => WalOp::Platform(PlatformRecord {
            id: PlatformId(r.u32()?),
            hardware: r.string()?,
            software: r.string()?,
            data_type: r.string()?,
        }),
        TAG_LATENCY => WalOp::Latency(LatencyRecord {
            id: LatencyId(r.u32()?),
            model_id: ModelId(r.u32()?),
            platform_id: PlatformId(r.u32()?),
            batch_size: r.u32()?,
            cost_ms: r.f64()?,
            mem_access: r.f64()?,
            host_mem: r.u64()?,
            device_mem: r.u64()?,
            created_seq: r.u64()?,
        }),
        _ => return Err(r.bad("unknown op tag").into()),
    };
    r.finish()?;
    Ok(Frame { wal_seq, op })
}

/// Result of scanning one log file.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Frames that decoded cleanly, in file order.
    pub frames: Vec<Frame>,
    /// Bytes refused at the tail (a torn or corrupt trailing frame and
    /// everything after it). `0` for a cleanly closed log.
    pub truncated_bytes: u64,
    /// Byte offset at which the valid prefix ends.
    pub valid_bytes: u64,
}

/// Read a log, replaying frames until the first torn or corrupt one.
///
/// Corruption never fails the scan: the contract of crash recovery is
/// "yield exactly the committed prefix", so a bad frame ends the replay
/// and the remainder is reported as `truncated_bytes`.
pub fn read_wal(path: &Path) -> io::Result<WalScan> {
    match std::fs::read(path) {
        Ok(raw) => Ok(scan_frames(&raw)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(WalScan::default()),
        Err(e) => Err(e),
    }
}

/// Scan a raw byte buffer of concatenated frames (shared by WAL files and
/// snapshot-segment bodies).
pub fn scan_frames(raw: &[u8]) -> WalScan {
    let total = raw.len() as u64;
    let mut out = WalScan::default();
    let mut at = 0usize;
    // A frame cut short means a torn tail (or clean EOF): stop and report
    // everything beyond `at` as truncated.
    while let Some((payload, want)) = frame_at(raw, at) {
        if checksum(payload) != want {
            break; // corrupt frame: flipped bits or a mid-frame tear
        }
        let Ok(frame) = decode_payload(payload) else {
            break; // checksum ok but undecodable: treat as corruption
        };
        out.frames.push(frame);
        at += FRAME_HEADER + payload.len();
    }
    out.valid_bytes = at as u64;
    out.truncated_bytes = total - at as u64;
    out
}

/// How appends reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every append: a frame is durable (even across power
    /// loss) before the write returns. The default.
    #[default]
    Always,
    /// No explicit sync: frames survive a process kill (the kernel holds
    /// the bytes) but a power cut may lose the unsynced tail. Recovery
    /// still yields a consistent prefix.
    Never,
}

/// Appender for one shard's current log file.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// Bytes appended to this file so far.
    pub bytes: u64,
    fsync: FsyncPolicy,
}

impl WalWriter {
    /// Open (creating or appending) the log at `path`.
    pub fn open(path: PathBuf, fsync: FsyncPolicy) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let bytes = file.metadata()?.len();
        Ok(WalWriter {
            file,
            path,
            bytes,
            fsync,
        })
    }

    /// The file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one encoded frame. `crash_after` is the fault-injection
    /// hook used by the kill-mid-commit tests: when the cumulative engine
    /// byte count would cross it, only the bytes up to the boundary are
    /// written (a genuinely torn frame) and the process aborts before the
    /// fsync — exactly the window a real crash hits.
    pub fn append(&mut self, encoded: &[u8], crash_after: Option<u64>) -> io::Result<u64> {
        if let Some(budget) = crash_after {
            if budget < encoded.len() as u64 {
                self.file.write_all(&encoded[..budget as usize])?;
                self.file.flush()?;
                std::process::abort();
            }
        }
        self.file.write_all(encoded)?;
        self.bytes += encoded.len() as u64;
        if self.fsync == FsyncPolicy::Always {
            self.file.sync_data()?;
        }
        Ok(encoded.len() as u64)
    }

    /// Flush and (always) sync — the seal barrier before compaction.
    pub fn seal(&mut self) -> io::Result<()> {
        self.file.flush()?;
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_op(i: u32) -> WalOp {
        WalOp::Model(ModelRecord {
            id: ModelId(i),
            graph_hash: 0x1000 + u64::from(i),
            name: format!("m{i}"),
            graph_bytes: vec![i as u8; 16 + i as usize],
            created_seq: u64::from(i),
        })
    }

    fn latency_op(i: u32) -> WalOp {
        WalOp::Latency(LatencyRecord {
            id: LatencyId(i),
            model_id: ModelId(i),
            platform_id: PlatformId(0),
            batch_size: 1 + i,
            cost_ms: 1.5 * f64::from(i),
            mem_access: 1e5,
            host_mem: 7,
            device_mem: 9,
            created_seq: u64::from(i) + 100,
        })
    }

    fn platform_op() -> WalOp {
        WalOp::Platform(PlatformRecord {
            id: PlatformId(0),
            hardware: "T4".into(),
            software: "trt7.1".into(),
            data_type: "fp32".into(),
        })
    }

    fn frames() -> Vec<Frame> {
        vec![
            Frame {
                wal_seq: 0,
                op: platform_op(),
            },
            Frame {
                wal_seq: 1,
                op: model_op(0),
            },
            Frame {
                wal_seq: 2,
                op: latency_op(0),
            },
            Frame {
                wal_seq: 3,
                op: model_op(1),
            },
        ]
    }

    fn encoded() -> Vec<u8> {
        frames().iter().flat_map(encode_frame).collect()
    }

    #[test]
    fn frame_roundtrip_every_op_kind() {
        for f in frames() {
            let enc = encode_frame(&f);
            let scan = scan_frames(&enc);
            assert_eq!(scan.frames, vec![f]);
            assert_eq!(scan.truncated_bytes, 0);
            // Every cut of the payload is an error, never a panic.
            let payload = &enc[FRAME_HEADER..];
            for cut in 0..payload.len() {
                let err = decode_payload(&payload[..cut]).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut {cut}");
            }
        }
    }

    #[test]
    fn torn_tail_truncates_to_committed_prefix() {
        let raw = encoded();
        // Cut at every possible byte offset: the scan must never panic
        // and must always return a frame-aligned prefix.
        for cut in 0..raw.len() {
            let scan = scan_frames(&raw[..cut]);
            assert!(scan.frames.len() <= 4, "cut {cut}");
            let rebuilt: Vec<u8> = scan.frames.iter().flat_map(encode_frame).collect();
            assert_eq!(rebuilt, raw[..scan.valid_bytes as usize], "cut {cut}");
            assert_eq!(
                scan.truncated_bytes,
                cut as u64 - scan.valid_bytes,
                "cut {cut}"
            );
        }
        // The untouched log replays fully.
        assert_eq!(scan_frames(&raw).frames, frames());
    }

    #[test]
    fn flipped_bit_ends_replay_at_bad_frame() {
        let mut raw = encoded();
        // Flip one payload byte of the third frame.
        let f01: usize = frames()[..2].iter().map(|f| encode_frame(f).len()).sum();
        raw[f01 + 14] ^= 0x40;
        let scan = scan_frames(&raw);
        assert_eq!(scan.frames, frames()[..2].to_vec());
        assert!(scan.truncated_bytes > 0);
    }

    #[test]
    fn checksum_is_length_aware() {
        // A payload and its zero-extended version must not collide.
        assert_ne!(checksum(b"abc"), checksum(b"abc\0"));
        assert_ne!(checksum(b""), checksum(b"\0"));
    }

    #[test]
    fn writer_appends_and_scans_back() {
        let dir = std::env::temp_dir().join(format!("nnlqp-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-1.log");
        let mut w = WalWriter::open(path.clone(), FsyncPolicy::Always).unwrap();
        for f in frames() {
            w.append(&encode_frame(&f), None).unwrap();
        }
        w.seal().unwrap();
        assert_eq!(w.bytes, encoded().len() as u64);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.frames, frames());
        assert_eq!(scan.truncated_bytes, 0);
        // Missing file reads as an empty log.
        assert!(read_wal(&dir.join("absent.log")).unwrap().frames.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
