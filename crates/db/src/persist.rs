//! The database as JSON, for inspection, external tooling and the tests
//! that compare two stores row by row. It is not a storage format: the
//! durable engine ([`crate::wal`], [`crate::shard`], [`crate::compact`])
//! is the only way a store reaches disk.

use crate::database::Database;
use nnlqp_obs::Recover;

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
    fn json_export_lists_everything() {
        let db = populated();
        let v = export_json(&db);
        assert_eq!(v["models"].as_array().unwrap().len(), 3);
        assert_eq!(v["platforms"].as_array().unwrap().len(), 2);
        assert_eq!(v["latencies"].as_array().unwrap().len(), 6);
        assert_eq!(v["models"][0]["graph_hash"].as_str().unwrap().len(), 16);
    }
}
