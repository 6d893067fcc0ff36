//! Snapshot codec: the database serializes to a single binary blob (and
//! to JSON for inspection) and decodes with all indices rebuilt. It is
//! the byte/JSON oracle the durability tests compare stores with; the
//! durable engine is the only way a store reaches disk.

use crate::database::Database;
use crate::records::*;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io;

const MAGIC: &[u8; 4] = b"NQDB";
const VERSION: u8 = 1;

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> io::Result<String> {
    if buf.remaining() < 4 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "string len"));
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "string body"));
    }
    String::from_utf8(buf.copy_to_bytes(n).to_vec())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "utf8"))
}

/// Serialize the whole database to a binary snapshot.
pub fn to_bytes(db: &Database) -> Bytes {
    let inner = db.read_inner();
    let mut buf = BytesMut::with_capacity(1024);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u64_le(inner.seq);

    buf.put_u32_le(inner.models.len() as u32);
    for m in &inner.models {
        buf.put_u64_le(m.graph_hash);
        put_str(&mut buf, &m.name);
        buf.put_u32_le(m.graph_bytes.len() as u32);
        buf.put_slice(&m.graph_bytes);
        buf.put_u64_le(m.created_seq);
    }

    buf.put_u32_le(inner.platforms.len() as u32);
    for p in &inner.platforms {
        put_str(&mut buf, &p.hardware);
        put_str(&mut buf, &p.software);
        put_str(&mut buf, &p.data_type);
    }

    buf.put_u32_le(inner.latencies.len() as u32);
    for l in &inner.latencies {
        buf.put_u32_le(l.model_id.0);
        buf.put_u32_le(l.platform_id.0);
        buf.put_u32_le(l.batch_size);
        buf.put_f64_le(l.cost_ms);
        buf.put_f64_le(l.mem_access);
        buf.put_u64_le(l.host_mem);
        buf.put_u64_le(l.device_mem);
        buf.put_u64_le(l.created_seq);
    }
    buf.freeze()
}

/// Rebuild a database (and all its indices) from a snapshot.
pub fn from_bytes(mut buf: Bytes) -> io::Result<Database> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    if buf.remaining() < 13 {
        return Err(bad("truncated header"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(bad("bad magic"));
    }
    if buf.get_u8() != VERSION {
        return Err(bad("unsupported version"));
    }
    let seq = buf.get_u64_le();

    let db = Database::new();
    {
        let mut inner = db.write_inner();
        inner.seq = seq;

        let n_models = buf.get_u32_le() as usize;
        for i in 0..n_models {
            if buf.remaining() < 8 {
                return Err(bad("truncated model"));
            }
            let graph_hash = buf.get_u64_le();
            let name = get_str(&mut buf)?;
            if buf.remaining() < 4 {
                return Err(bad("truncated graph len"));
            }
            let blen = buf.get_u32_le() as usize;
            if buf.remaining() < blen + 8 {
                return Err(bad("truncated graph bytes"));
            }
            let graph_bytes = buf.copy_to_bytes(blen).to_vec();
            let created_seq = buf.get_u64_le();
            let id = ModelId(i as u32);
            inner.by_hash.insert(graph_hash, id);
            inner.models.push(ModelRecord {
                id,
                graph_hash,
                name,
                graph_bytes,
                created_seq,
            });
        }

        if buf.remaining() < 4 {
            return Err(bad("truncated platform count"));
        }
        let n_platforms = buf.get_u32_le() as usize;
        for i in 0..n_platforms {
            let hardware = get_str(&mut buf)?;
            let software = get_str(&mut buf)?;
            let data_type = get_str(&mut buf)?;
            let id = PlatformId(i as u32);
            inner
                .by_platform_key
                .insert((hardware.clone(), software.clone(), data_type.clone()), id);
            inner.platforms.push(PlatformRecord {
                id,
                hardware,
                software,
                data_type,
            });
        }

        if buf.remaining() < 4 {
            return Err(bad("truncated latency count"));
        }
        let n_lat = buf.get_u32_le() as usize;
        for i in 0..n_lat {
            if buf.remaining() < 4 * 3 + 8 * 5 {
                return Err(bad("truncated latency row"));
            }
            let model_id = ModelId(buf.get_u32_le());
            let platform_id = PlatformId(buf.get_u32_le());
            let batch_size = buf.get_u32_le();
            let rec = LatencyRecord {
                id: LatencyId(i as u32),
                model_id,
                platform_id,
                batch_size,
                cost_ms: buf.get_f64_le(),
                mem_access: buf.get_f64_le(),
                host_mem: buf.get_u64_le(),
                device_mem: buf.get_u64_le(),
                created_seq: buf.get_u64_le(),
            };
            if model_id.0 as usize >= inner.models.len()
                || platform_id.0 as usize >= inner.platforms.len()
            {
                return Err(bad("dangling foreign key"));
            }
            inner
                .by_query
                .insert((model_id, platform_id, batch_size), rec.id);
            inner.latencies.push(rec);
        }
    }
    Ok(db)
}

/// Human-readable JSON export of the whole database (graphs decoded back
/// to their JSON form). Intended for inspection and external tooling, not
/// as the storage format.
pub fn export_json(db: &Database) -> serde_json::Value {
    let inner = db.read_inner();
    serde_json::json!({
        "models": inner.models.iter().map(|m| serde_json::json!({
            "id": m.id.0,
            "graph_hash": format!("{:016x}", m.graph_hash),
            "name": m.name,
            "bytes": m.graph_bytes.len(),
        })).collect::<Vec<_>>(),
        "platforms": inner.platforms.iter().map(|p| serde_json::json!({
            "id": p.id.0,
            "hardware": p.hardware,
            "software": p.software,
            "data_type": p.data_type,
        })).collect::<Vec<_>>(),
        "latencies": inner.latencies.iter().map(|l| serde_json::json!({
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
        let db2 = from_bytes(to_bytes(&db)).unwrap();
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
        for cut in [0usize, 4, 12, raw.len() / 3, raw.len() - 3] {
            assert!(from_bytes(raw.slice(0..cut)).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut raw = to_bytes(&populated()).to_vec();
        raw[0] = b'Z';
        assert!(from_bytes(Bytes::from(raw)).is_err());
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
        let db2 = from_bytes(to_bytes(&db)).unwrap();
        assert_eq!(db2.stats().models, 0);
    }
}
