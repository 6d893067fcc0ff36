//! The store's bulk passes hold one record at a time, by bytes.
//!
//! This file is its own test binary so that it can install a counting
//! `#[global_allocator]`; the counter keeps the bytes this thread holds
//! live and their high-water mark, exact and repeatable, so the peaks are
//! asserted, not sampled from the resident set.
//!
//! The store: models of 4,800-byte blobs, each measured at four batch
//! sizes on two platforms (8 latency rows), on four shards. High water
//! over what the thread held before the call:
//!
//! | pass                      | 64 models | 1,024 models                   |
//! |---------------------------|-----------|--------------------------------|
//! | `compact`, records cloned | 557,189 B | 8,909,183 B                    |
//! | `compact`, streamed       |  75,886 B |    81,652 B                    |
//! | reopen, ops cloned        |           | 12,502,004 B, 2.04 × 6,132,637 |
//! | reopen, ops moved         |           |  8,009,183 B, 1.31 ×           |
//!
//! A cloning compaction holds every record twice (its frames, then the
//! segment image it builds from them); a streaming one holds a write
//! buffer, one encoded frame and the shard's model index. A cloning reopen
//! holds the recovered ops beside the tables built from them; a moving one
//! holds the store once, plus one segment's bytes and the op list. The
//! reopen figures move by a few hundred bytes with the length of the
//! store's path.

use nnlqp_db::{Database, DurableOptions, FsyncPolicy, ModelId, PlatformId};
use std::path::PathBuf;

mod counting_alloc;
use counting_alloc::{high_water_bytes, live_bytes, reset_high_water, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes a compaction may hold at its peak, whatever the store's size.
const COMPACT_HIGH_WATER: i64 = 256 * 1024;
/// A reopen's peak over the bytes the reopened store holds.
const REOPEN_OVER_LIVE: f64 = 1.4;

/// A fresh store directory for `tag`.
fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nnlqp-store-alloc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options(dir: &PathBuf) -> DurableOptions {
    DurableOptions::new(dir).shards(4).fsync(FsyncPolicy::Never)
}

/// A durable store of `models` models, every one with 8 latency rows.
fn populated(dir: &PathBuf, models: u32) -> Database {
    let db = Database::open_durable(options(dir)).unwrap();
    let platforms: [PlatformId; 2] = [
        db.get_or_create_platform("T4", "trt7.1", "fp32"),
        db.get_or_create_platform("cpu", "openppl", "fp32"),
    ];
    for i in 0..models {
        let hash = u64::from(i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let blob: Vec<u8> = (0..4_800u32).map(|b| (b ^ i) as u8).collect();
        let (id, fresh): (ModelId, bool) = db.insert_model_encoded(format!("m{i}"), hash, blob);
        assert!(fresh);
        for &p in &platforms {
            for batch in [1, 2, 4, 8] {
                let ms = 0.5 + f64::from(i) * 0.01 + f64::from(batch);
                db.insert_latency(id, p, batch, ms, 1e6, 64, 128).unwrap();
            }
        }
    }
    db
}

/// High-water bytes of one compaction of a store of `models` models.
fn compact_high_water(models: u32) -> i64 {
    let dir = store_dir(&format!("compact-{models}"));
    let db = populated(&dir, models);
    reset_high_water();
    let before = live_bytes();
    let stats = db.compact().unwrap();
    let peak = high_water_bytes() - before;
    assert_eq!(stats.frames, 2 + 9 * models as usize);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
    peak
}

/// A compaction writes each frame from the record where it lives: its
/// peak is a write buffer and one frame, not a copy of the store.
#[test]
fn a_compaction_holds_one_frame_at_a_time() {
    for models in [64, 1_024] {
        let peak = compact_high_water(models);
        println!("{peak} bytes at the high water of compacting {models} models");
        assert!(
            peak <= COMPACT_HIGH_WATER,
            "{models} models: {peak} bytes at the high water"
        );
    }
}

/// A reopen moves what it recovered into the tables: at its peak it holds
/// the store once, plus one segment's bytes and the recovered op list.
#[test]
fn a_reopen_holds_the_store_about_once() {
    let dir = store_dir("reopen");
    let db = populated(&dir, 1_024);
    db.compact().unwrap();
    drop(db);
    reset_high_water();
    let before = live_bytes();
    let db = Database::open_durable(options(&dir)).unwrap();
    let live = live_bytes() - before;
    let peak = high_water_bytes() - before;
    assert_eq!(db.stats().models, 1_024);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
    let ratio = peak as f64 / live as f64;
    println!("reopen: {peak} bytes at the high water, {live} live after ({ratio:.2}x)");
    assert!(
        ratio <= REOPEN_OVER_LIVE,
        "{peak} bytes at the high water for {live} live ({ratio:.2}x)"
    );
}
