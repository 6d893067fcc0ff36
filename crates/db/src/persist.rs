//! Snapshot codec: the database serializes to a single binary blob (and
//! to JSON for inspection) and decodes with all indices rebuilt. It is
//! the byte/JSON oracle the durability tests compare stores with; the
//! durable engine is the only way a store reaches disk.

use crate::codec::{put_bytes, Reader};
use crate::database::Database;
use crate::records::*;
use nnlqp_obs::Recover;
use std::io;

const MAGIC: &[u8; 4] = b"NQDB";
const VERSION: u8 = 1;

/// Serialize the whole database to a binary snapshot.
pub fn to_bytes(db: &Database) -> Vec<u8> {
    let inner = db.inner.read().recover();
    let mut buf = Vec::with_capacity(1024);
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    buf.extend_from_slice(&inner.seq.to_le_bytes());

    buf.extend_from_slice(&(inner.models.len() as u32).to_le_bytes());
    for m in &inner.models {
        buf.extend_from_slice(&m.graph_hash.to_le_bytes());
        put_bytes(&mut buf, m.name.as_bytes());
        put_bytes(&mut buf, &m.graph_bytes);
        buf.extend_from_slice(&m.created_seq.to_le_bytes());
    }

    buf.extend_from_slice(&(inner.platforms.len() as u32).to_le_bytes());
    for p in &inner.platforms {
        put_bytes(&mut buf, p.hardware.as_bytes());
        put_bytes(&mut buf, p.software.as_bytes());
        put_bytes(&mut buf, p.data_type.as_bytes());
    }

    buf.extend_from_slice(&(inner.latencies.len() as u32).to_le_bytes());
    for l in &inner.latencies {
        buf.extend_from_slice(&l.model_id.0.to_le_bytes());
        buf.extend_from_slice(&l.platform_id.0.to_le_bytes());
        buf.extend_from_slice(&l.batch_size.to_le_bytes());
        buf.extend_from_slice(&l.cost_ms.to_le_bytes());
        buf.extend_from_slice(&l.mem_access.to_le_bytes());
        buf.extend_from_slice(&l.host_mem.to_le_bytes());
        buf.extend_from_slice(&l.device_mem.to_le_bytes());
        buf.extend_from_slice(&l.created_seq.to_le_bytes());
    }
    buf
}

/// Rebuild a database (and all its indices) from a snapshot.
pub fn from_bytes(raw: &[u8]) -> io::Result<Database> {
    let mut r = Reader::new(raw, "snapshot");
    r.header(MAGIC, VERSION)?;
    let seq = r.u64()?;

    let mut models = Vec::new();
    for i in 0..r.u32()? {
        models.push(ModelRecord {
            id: ModelId(i),
            graph_hash: r.u64()?,
            name: r.string()?,
            graph_bytes: r.bytes()?.to_vec(),
            created_seq: r.u64()?,
        });
    }
    let mut platforms = Vec::new();
    for i in 0..r.u32()? {
        platforms.push(PlatformRecord {
            id: PlatformId(i),
            hardware: r.string()?,
            software: r.string()?,
            data_type: r.string()?,
        });
    }
    let mut latencies = Vec::new();
    for i in 0..r.u32()? {
        latencies.push(LatencyRecord {
            id: LatencyId(i),
            model_id: ModelId(r.u32()?),
            platform_id: PlatformId(r.u32()?),
            batch_size: r.u32()?,
            cost_ms: r.f64()?,
            mem_access: r.f64()?,
            host_mem: r.u64()?,
            device_mem: r.u64()?,
            created_seq: r.u64()?,
        });
    }
    Database::from_rows(models, platforms, latencies, seq)
}

/// Human-readable JSON export of the whole database: every row, a model
/// by its hash, name and stored size (not its graph). Intended for
/// inspection and external tooling, not as the storage format.
pub fn export_json(db: &Database) -> nnlqp_ir::json::Value {
    let inner = db.inner.read().recover();
    nnlqp_ir::json!({
        "models": inner.models.iter().map(|m| nnlqp_ir::json!({
            "id": m.id.0,
            "graph_hash": format!("{:016x}", m.graph_hash),
            "name": m.name,
            "bytes": m.graph_bytes.len(),
        })).collect::<Vec<_>>(),
        "platforms": inner.platforms.iter().map(|p| nnlqp_ir::json!({
            "id": p.id.0,
            "hardware": p.hardware,
            "software": p.software,
            "data_type": p.data_type,
        })).collect::<Vec<_>>(),
        "latencies": inner.latencies.iter().map(|l| nnlqp_ir::json!({
            "id": l.id.0,
            "model_id": l.model_id.0,
            "platform_id": l.platform_id.0,
            "batch_size": l.batch_size,
            "cost_ms": l.cost_ms,
        })).collect::<Vec<_>>(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_hash::graph_hash;
    use nnlqp_ir::{Graph, GraphBuilder, Shape};

    fn graph(c: u32) -> Graph {
        let mut b = GraphBuilder::new(format!("g{c}"), Shape::nchw(1, 3, 16, 16));
        let conv = b.conv(None, c, 3, 1, 1, 1).unwrap();
        b.relu(conv).unwrap();
        b.finish().unwrap()
    }

    fn populated() -> Database {
        let db = Database::new();
        let pid = db.get_or_create_platform("T4", "trt7.1", "fp32");
        let pid2 = db.get_or_create_platform("cpu", "openppl", "fp32");
        for c in [8u32, 16, 32] {
            let (mid, _) = db.insert_model(&graph(c));
            db.insert_latency(mid, pid, 1, c as f64, 1e5, 10, 20)
                .unwrap();
            db.insert_latency(mid, pid2, 4, c as f64 * 3.0, 1e5, 10, 20)
                .unwrap();
        }
        db
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let db = populated();
        let db2 = from_bytes(&to_bytes(&db)).unwrap();
        assert_eq!(db.stats(), db2.stats());
        // Indices rebuilt: cache hits still work.
        let hash = graph_hash(&graph(16));
        let pid = db2.get_or_create_platform("T4", "trt7.1", "fp32");
        assert_eq!(db2.lookup_latency(hash, pid, 1).unwrap().cost_ms, 16.0);
        // Graphs decode.
        let m = db2.model_by_hash(hash).unwrap();
        assert_eq!(db2.load_graph(m.id).unwrap(), graph(16));
    }

    #[test]
    fn truncated_snapshots_rejected() {
        let raw = to_bytes(&populated());
        for cut in [0usize, 4, 12, 13, 14, 15, 16, raw.len() / 3, raw.len() - 3] {
            assert!(from_bytes(&raw[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut raw = to_bytes(&populated());
        raw[0] = b'Z';
        assert!(from_bytes(&raw).is_err());
    }

    #[test]
    fn json_export_lists_everything() {
        let db = populated();
        let v = export_json(&db);
        assert_eq!(v["models"].as_array().unwrap().len(), 3);
        assert_eq!(v["platforms"].as_array().unwrap().len(), 2);
        assert_eq!(v["latencies"].as_array().unwrap().len(), 6);
        assert_eq!(v["models"][0]["graph_hash"].as_str().unwrap().len(), 16);
    }

    #[test]
    fn empty_database_roundtrips() {
        let db = Database::new();
        let db2 = from_bytes(&to_bytes(&db)).unwrap();
        assert_eq!(db2.stats().models, 0);
    }
}
