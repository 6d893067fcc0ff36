//! Table row types, mirroring the ER diagram (Fig. 4).

/// Primary key of the model table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelId(pub u32);

/// Primary key of the platform table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlatformId(pub u32);

/// Primary key of the latency table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LatencyId(pub u32);

/// One stored model: the weight-free graph plus its hash key.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRecord {
    /// Primary key.
    pub id: ModelId,
    /// 8-byte graph hash (unique index).
    pub graph_hash: u64,
    /// Human-readable name.
    pub name: String,
    /// Compact binary graph encoding (`nnlqp_ir::serialize`).
    pub graph_bytes: Vec<u8>,
    /// Insertion sequence number (stands in for a timestamp; the store is
    /// deterministic).
    pub created_seq: u64,
}

impl ModelRecord {
    /// Approximate stored footprint in bytes.
    pub fn storage_bytes(&self) -> usize {
        8 + 8 + self.name.len() + self.graph_bytes.len() + 8 + 4
    }
}

/// One platform row: hardware + software + data type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlatformRecord {
    /// Primary key.
    pub id: PlatformId,
    /// Hardware name.
    pub hardware: String,
    /// Inference-library name.
    pub software: String,
    /// Data type name ("fp32", "int8", ...).
    pub data_type: String,
}

impl PlatformRecord {
    /// Canonical platform name, e.g. "gpu-T4-trt7.1-fp32" is stored as its
    /// components; this reassembles the lookup key.
    pub fn key(&self) -> (String, String, String) {
        (
            self.hardware.clone(),
            self.software.clone(),
            self.data_type.clone(),
        )
    }

    /// Fixed storage footprint — the paper stores each platform record in
    /// 152 bytes (fixed-width VARCHAR columns).
    pub const STORAGE_BYTES: usize = 152;
}

/// One latency measurement row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyRecord {
    /// Primary key.
    pub id: LatencyId,
    /// FK into the model table.
    pub model_id: ModelId,
    /// FK into the platform table.
    pub platform_id: PlatformId,
    /// Batch size the measurement ran at.
    pub batch_size: u32,
    /// Measured mean latency in milliseconds ("cost").
    pub cost_ms: f64,
    /// Static memory-access estimate in bytes.
    pub mem_access: f64,
    /// Host memory high-water mark (bytes; simulated).
    pub host_mem: u64,
    /// Device memory high-water mark (bytes; simulated).
    pub device_mem: u64,
    /// Insertion sequence number.
    pub created_seq: u64,
}

impl LatencyRecord {
    /// Fixed storage footprint — 52 bytes per the paper.
    pub const STORAGE_BYTES: usize = 52;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_storage_is_hundreds_of_bytes() {
        let g = nnlqp_models_sample();
        let bytes = nnlqp_ir::serialize::encode(&g).unwrap();
        let rec = ModelRecord {
            id: ModelId(1),
            graph_hash: 42,
            name: g.name.clone(),
            graph_bytes: bytes,
            created_seq: 0,
        };
        let n = rec.storage_bytes();
        assert!(n > 100 && n < 5000, "model record {n} bytes");
    }

    fn nnlqp_models_sample() -> nnlqp_ir::Graph {
        let mut b = nnlqp_ir::GraphBuilder::new("m", nnlqp_ir::Shape::nchw(1, 3, 32, 32));
        let c = b.conv(None, 16, 3, 1, 1, 1).unwrap();
        let r = b.relu(c).unwrap();
        let p = b.global_avgpool(r).unwrap();
        let f = b.flatten(p).unwrap();
        b.gemm(f, 10).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn fixed_footprints_match_paper() {
        assert_eq!(PlatformRecord::STORAGE_BYTES, 152);
        assert_eq!(LatencyRecord::STORAGE_BYTES, 52);
    }

    #[test]
    fn platform_key_roundtrip() {
        let p = PlatformRecord {
            id: PlatformId(0),
            hardware: "T4".into(),
            software: "trt7.1".into(),
            data_type: "fp32".into(),
        };
        assert_eq!(p.key(), ("T4".into(), "trt7.1".into(), "fp32".into()));
    }
}
