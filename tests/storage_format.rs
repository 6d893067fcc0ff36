//! What a codec rewrite of the store must not move: every byte it writes.
//! A stored graph over the canonical families, one WAL frame of each op
//! kind, a snapshot segment over those frames and the manifest; and the
//! JSON the tree writes: a model file per canonical family and the export
//! of a fixed database.
//!
//! The constants were computed at commit `bf8cecf`, before the store's
//! encoders and decoders moved from the vendored `bytes` buffers to std
//! ones. A digest that differs means a byte on disk changed, and every
//! store written before it no longer opens. The JSON digest was computed
//! at commit `fed2c6c`, before the JSON codec moved into `nnlqp-ir`: a
//! model file or export written before then must read back unchanged.

use nnlqp_db::compact::{Manifest, ShardMeta};
use nnlqp_db::shard::encode_segment;
use nnlqp_db::wal::{encode_frame, Frame, WalOp};
use nnlqp_db::{persist, Database};
use nnlqp_db::{LatencyId, LatencyRecord, ModelId, ModelRecord, PlatformId, PlatformRecord};
use nnlqp_ir::serialize;
use nnlqp_models::family::CORPUS_FAMILIES;
use nnlqp_models::ModelFamily;

const ENCODE_DIGEST: u64 = 0x74cb_d202_d8a1_e988;
/// Platform, model, latency.
const WAL_FRAME_DIGESTS: [u64; 3] = [
    0x31b0_a245_a65c_3835,
    0x29a1_94ad_9228_a112,
    0x7b46_509c_d569_f852,
];
const SEGMENT_DIGEST: u64 = 0xcece_efa9_25a2_40f4;
const MANIFEST_DIGEST: u64 = 0xc6a9_4ae9_f627_d4ce;
/// Model files of the canonicals and Detection, then the database export.
const JSON_DIGEST: u64 = 0x7d9a_18c0_9416_47ea;

/// Byte-at-a-time FNV-1a of a length-prefixed blob, local so the pin
/// shares no code with what it pins.
fn digest(blobs: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |bs: &[u8]| {
        for &b in bs {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for blob in blobs {
        eat(&(blob.len() as u64).to_le_bytes());
        eat(blob);
    }
    h
}

/// One frame of each op kind: a platform row, a model row holding a real
/// stored graph, a latency row against both.
fn frames() -> [Frame; 3] {
    let g = ModelFamily::ResNet.canonical().unwrap();
    [
        Frame {
            wal_seq: 0,
            op: WalOp::Platform(PlatformRecord {
                id: PlatformId(0),
                hardware: "T4".into(),
                software: "trt7.1".into(),
                data_type: "fp32".into(),
            }),
        },
        Frame {
            wal_seq: 1,
            op: WalOp::Model(ModelRecord {
                id: ModelId(0),
                graph_hash: nnlqp_hash::graph_hash(&g),
                name: g.name.clone(),
                graph_bytes: serialize::encode(&g).unwrap(),
                created_seq: 0,
            }),
        },
        Frame {
            wal_seq: 2,
            op: WalOp::Latency(LatencyRecord {
                id: LatencyId(0),
                model_id: ModelId(0),
                platform_id: PlatformId(0),
                batch_size: 8,
                cost_ms: 1.375,
                mem_access: 2.5e7,
                host_mem: 1 << 20,
                device_mem: 3 << 20,
                created_seq: 1,
            }),
        },
    ]
}

#[test]
fn stored_graphs_are_byte_identical_to_the_recorded_ones() {
    let blobs: Vec<Vec<u8>> = CORPUS_FAMILIES
        .iter()
        .map(|f| serialize::encode(&f.canonical().unwrap()).unwrap())
        .collect();
    let got = digest(&blobs.iter().map(Vec::as_slice).collect::<Vec<_>>());
    assert_eq!(got, ENCODE_DIGEST, "encode digest {got:#018x}");
}

#[test]
fn wal_frames_are_byte_identical_to_the_recorded_ones() {
    let got = frames().map(|f| digest(&[&encode_frame(&f)[..]]));
    assert_eq!(got, WAL_FRAME_DIGESTS, "frame digests {got:#018x?}");
}

#[test]
fn segments_are_byte_identical_to_the_recorded_ones() {
    let got = digest(&[&encode_segment(&frames())[..]]);
    assert_eq!(got, SEGMENT_DIGEST, "segment digest {got:#018x}");
}

#[test]
fn manifests_are_byte_identical_to_the_recorded_ones() {
    let dir = std::env::temp_dir().join(format!("nnlqp-storage-format-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
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
    .store(&dir)
    .unwrap();
    let raw = std::fs::read(Manifest::path(&dir)).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let got = digest(&[&raw]);
    assert_eq!(got, MANIFEST_DIGEST, "manifest digest {got:#018x}");
}

/// A database with two platforms, three models and six latency rows.
fn populated() -> Database {
    let db = Database::new();
    let t4 = db.get_or_create_platform("T4", "trt7.1", "fp32");
    let cpu = db.get_or_create_platform("cpu", "openppl", "fp32");
    for (i, f) in [
        ModelFamily::Vgg,
        ModelFamily::ResNet,
        ModelFamily::MobileNetV2,
    ]
    .into_iter()
    .enumerate()
    {
        let (mid, _) = db.insert_model(&f.canonical().unwrap());
        let x = i as f64;
        db.insert_latency(mid, t4, 1, 1.25 + x, 1e6 * x, 64, 128)
            .unwrap();
        db.insert_latency(mid, cpu, 8, 9.5 * (x + 1.0), 3e5, 7, 9)
            .unwrap();
    }
    db
}

#[test]
fn json_artifacts_are_byte_identical_to_the_recorded_ones() {
    let mut texts: Vec<String> = CORPUS_FAMILIES
        .into_iter()
        .chain([ModelFamily::Detection])
        .map(|f| serialize::to_json(&f.canonical().unwrap()))
        .collect();
    texts.push(persist::export_json(&populated()).to_string());
    let got = digest(&texts.iter().map(String::as_bytes).collect::<Vec<_>>());
    assert_eq!(got, JSON_DIGEST, "json digest {got:#018x}");
}
