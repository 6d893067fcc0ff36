//! Property tests for the durable storage engine: arbitrary record
//! sequences must survive the full life cycle — WAL encode, torn-tail
//! truncation, repair-on-open, compaction, recovery — with a JSON
//! export byte-identical to an in-memory database that applied the same
//! operations.

use nnlqp_db::wal::{encode_frame, Frame, WalOp};
use nnlqp_db::{persist, verify_store, Database, DurableOptions, FsyncPolicy, Manifest};
use nnlqp_ir::{Graph, Rng64};
use nnlqp_models::ModelFamily;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_store() -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("nnlqp-props-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic op sequence: `n_models` distinct graphs, a couple of
/// platforms, and a seeded interleaving of latency rows.
fn apply_ops(db: &Database, seed: u64, n_models: usize, n_latencies: usize) {
    let graphs: Vec<Graph> = nnlqp_models::generate_family(ModelFamily::SqueezeNet, n_models, seed)
        .into_iter()
        .map(|m| m.graph)
        .collect();
    let mut rng = Rng64::new(seed ^ 0xD15C);
    let p0 = db.get_or_create_platform("T4", "trt7.1", "fp32");
    let p1 = db.get_or_create_platform("hi3559A", "nnie11", "int8");
    let mids: Vec<_> = graphs.iter().map(|g| db.insert_model(g).0).collect();
    for i in 0..n_latencies {
        let mid = mids[(rng.next_u64() as usize) % mids.len()];
        let pid = if rng.next_u64() & 1 == 0 { p0 } else { p1 };
        let batch = (rng.next_u64() as u32 % 16) + 1;
        // Some (model, platform, batch) keys repeat: last-write-wins rows
        // must survive the round trip too.
        db.insert_latency(mid, pid, batch, 0.5 + i as f64, 0.25, 64, 128)
            .unwrap();
    }
}

fn export(db: &Database) -> String {
    persist::export_json(db).to_string()
}

/// Append a guaranteed-invalid partial frame (torn write) to one shard's
/// current WAL file: a real encoded frame with a payload bit flipped and
/// the tail cut off.
fn tear_one_wal(root: &std::path::Path, pick: u64, cut: u64) -> u64 {
    let manifest = Manifest::load(root).unwrap().expect("store has a manifest");
    let shard = (pick as usize) % manifest.n_shards;
    let mut bytes = encode_frame(&Frame {
        wal_seq: u64::MAX / 2,
        op: WalOp::Platform(nnlqp_db::PlatformRecord {
            id: nnlqp_db::PlatformId(9999),
            hardware: "torn".into(),
            software: "torn".into(),
            data_type: "torn".into(),
        }),
    });
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1; // checksum can never match
    let keep = 1 + (cut as usize) % (bytes.len() - 1);
    bytes.truncate(keep);
    let path = nnlqp_db::shard::wal_path(root, shard, manifest.shards[shard].wal_gen);
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap();
    f.write_all(&bytes).unwrap();
    keep as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// WAL replay, torn-tail repair, and compaction are all identity
    /// transformations on the committed record set.
    #[test]
    fn arbitrary_sequences_survive_the_full_lifecycle(
        seed in any::<u64>(),
        n_models in 1usize..8,
        n_latencies in 0usize..24,
        shards in 1usize..6,
        pick in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let dir = temp_store();
        let opts = DurableOptions::new(&dir).shards(shards).fsync(FsyncPolicy::Never);

        // The in-memory twin is the ground truth throughout.
        let mem = Database::new();
        apply_ops(&mem, seed, n_models, n_latencies);
        let baseline = export(&mem);

        let db = Database::open_durable(opts.clone()).unwrap();
        apply_ops(&db, seed, n_models, n_latencies);
        prop_assert_eq!(&export(&db), &baseline);
        drop(db);

        // Reopen #1: pure WAL replay (nothing compacted yet).
        let db = Database::open_durable(opts.clone()).unwrap();
        prop_assert_eq!(&export(&db), &baseline);
        drop(db);

        // Torn write at the tail of a random shard, then reopen: the
        // tail is truncated, repair compacts, content is unchanged.
        let torn = tear_one_wal(&dir, pick, cut);
        prop_assert!(torn > 0);
        let report = verify_store(&dir).unwrap();
        prop_assert_eq!(report.wal_truncated_bytes, torn);
        prop_assert!(!report.clean());
        let db = Database::open_durable(opts.clone()).unwrap();
        prop_assert_eq!(&export(&db), &baseline);
        drop(db);
        let report = verify_store(&dir).unwrap();
        prop_assert!(report.clean(), "repair left damage: {report:?}");

        // Explicit compaction is also an identity, and the compacted
        // store still accepts and persists new writes.
        let db = Database::open_durable(opts.clone()).unwrap();
        db.compact().unwrap();
        prop_assert_eq!(&export(&db), &baseline);
        let pid = db.get_or_create_platform("post", "compact", "fp16");
        let (mid, _) = db.insert_model(
            &nnlqp_models::generate_family(ModelFamily::ResNet, 1, seed)[0].graph,
        );
        db.insert_latency(mid, pid, 1, 3.25, 0.0, 0, 0).unwrap();
        let pid2 = mem.get_or_create_platform("post", "compact", "fp16");
        let (mid2, _) = mem.insert_model(
            &nnlqp_models::generate_family(ModelFamily::ResNet, 1, seed)[0].graph,
        );
        mem.insert_latency(mid2, pid2, 1, 3.25, 0.0, 0, 0).unwrap();
        let extended = export(&mem);
        prop_assert_eq!(&export(&db), &extended);
        drop(db);

        let db = Database::open_durable(opts).unwrap();
        prop_assert_eq!(&export(&db), &extended);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every op kind round-trips through the frame codec bit-exactly, and
    /// a damaged frame never replays.
    #[test]
    fn frames_roundtrip_for_arbitrary_ops(seed in any::<u64>(), wal_seq in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let graph = ModelFamily::SqueezeNet
            .sample("prop", &mut rng)
            .expect("generator is valid");
        let ops = [
            WalOp::Model(nnlqp_db::ModelRecord {
                id: nnlqp_db::ModelId(rng.next_u64() as u32),
                graph_hash: rng.next_u64(),
                name: graph.name.clone(),
                graph_bytes: nnlqp_ir::serialize::encode(&graph).unwrap(),
                created_seq: rng.next_u64(),
            }),
            WalOp::Platform(nnlqp_db::PlatformRecord {
                id: nnlqp_db::PlatformId(rng.next_u64() as u32),
                hardware: "hw".into(),
                software: "sw".into(),
                data_type: "dt".into(),
            }),
            WalOp::Latency(nnlqp_db::LatencyRecord {
                id: nnlqp_db::LatencyId(rng.next_u64() as u32),
                model_id: nnlqp_db::ModelId(rng.next_u64() as u32),
                platform_id: nnlqp_db::PlatformId(rng.next_u64() as u32),
                batch_size: rng.next_u64() as u32,
                cost_ms: f64::from_bits(0x3FF0_0000_0000_0000 | (rng.next_u64() >> 12)),
                mem_access: 0.5,
                host_mem: rng.next_u64(),
                device_mem: rng.next_u64(),
                created_seq: rng.next_u64(),
            }),
        ];
        for op in ops {
            let frame = Frame { wal_seq, op };
            let encoded = encode_frame(&frame);
            let scan = nnlqp_db::wal::scan_frames(encoded.as_ref());
            prop_assert_eq!(scan.truncated_bytes, 0);
            prop_assert_eq!(scan.frames.len(), 1);
            prop_assert_eq!(&scan.frames[0], &frame);
            // Every truncation and every single-byte flip stops the scan
            // before the frame: replay never yields a frame it was not given.
            for cut in 0..encoded.len() {
                let scan = nnlqp_db::wal::scan_frames(&encoded[..cut]);
                prop_assert!(scan.frames.is_empty(), "cut {cut}");
                prop_assert_eq!(scan.truncated_bytes, cut as u64);
            }
            let mut flipped = encoded.clone();
            for at in 0..encoded.len() {
                let mask = 1 + (rng.next_u64() % 255) as u8;
                flipped[at] ^= mask;
                let scan = nnlqp_db::wal::scan_frames(&flipped);
                prop_assert!(scan.frames.is_empty(), "byte {at} ^ {mask:#04x}");
                flipped[at] ^= mask;
            }
        }
    }
}
