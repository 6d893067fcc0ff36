//! Durable-store acceptance: a serving stack backed by the sharded WAL
//! engine must, after its shutdown seal + compaction, reopen to a
//! database whose JSON export is byte-identical to an in-memory stack
//! that served the same deterministic workload — and a stack killed
//! mid-ingest must reopen to exactly the rows it had committed, then keep
//! serving and growing the same store.

use nnlqp::{Nnlqp, QueryParams};
use nnlqp_db::{
    open_read_only, persist, verify_store, Database, DurableOptions, CRASH_AT_BYTE_ENV,
};
use nnlqp_hash::graph_hash;
use nnlqp_ir::Graph;
use nnlqp_models::ModelFamily;
use nnlqp_serve::{LatencyService, ServeConfig, Source};
use nnlqp_sim::{DeviceFarm, PlatformSpec};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;

const PLATFORM: &str = "gpu-T4-trt7.1-fp32";
const SEED: u64 = 4242;
/// Store directory handed to the re-executed child; unset means "not a
/// child run" (the convention of `crates/db/tests/crash_recovery.rs`).
const DIR_ENV: &str = "NNLQP_CRASH_TEST_DIR";

fn system(durable: Option<&Path>) -> Arc<Nnlqp> {
    let mut b = Nnlqp::builder()
        .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 2))
        .reps(3)
        .seed(SEED);
    if let Some(dir) = durable {
        b = b.durable(DurableOptions::new(dir));
    }
    Arc::new(b.try_build().expect("open durable store"))
}

fn serve_cfg(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_depth: 32,
        cache_capacity: 128,
        cache_shards: 2,
        degrade_backlog: usize::MAX,
        ..Default::default()
    }
}

fn variants(seed: u64) -> Vec<Arc<Graph>> {
    nnlqp_models::generate_family(ModelFamily::SqueezeNet, 8, seed)
        .into_iter()
        .map(|m| Arc::new(m.graph))
        .collect()
}

/// One worker, one client, sequential queries: the ingest order (and so
/// every assigned row id) is deterministic across runs.
fn serve_workload(sys: &Arc<Nnlqp>) {
    let svc = LatencyService::start(Arc::clone(sys), serve_cfg(1));
    let models = variants(SEED);
    for (i, m) in models.iter().enumerate() {
        svc.query(m, PLATFORM, (i as u32 % 4) + 1)
            .expect("query succeeds");
    }
    // Re-querying hits the cache/db: no new rows, so the export below is
    // a function of the measured set alone.
    for m in &models {
        svc.query(m, PLATFORM, 1).expect("repeat query succeeds");
    }
    svc.shutdown().expect("shutdown seals the store");
}

#[test]
fn serve_ingest_survives_restart_byte_identically() {
    let dir = std::env::temp_dir().join(format!("nnlqp-durable-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Ground truth: identical workload against a purely in-memory stack.
    let mem = system(None);
    serve_workload(&mem);
    let baseline = persist::export_json(&mem.db).to_string();

    let durable = system(Some(&dir));
    serve_workload(&durable);
    assert_eq!(
        persist::export_json(&durable.db).to_string(),
        baseline,
        "durable serving stack diverged from the in-memory twin"
    );
    assert!(
        durable.db.stats().latencies > 0,
        "workload ingested nothing"
    );
    drop(durable);

    // Shutdown compacted: the store verifies clean and reopens to the
    // same bytes, with everything in segments (no WAL tail to replay).
    let report = verify_store(&dir).expect("store is verifiable");
    assert!(report.clean(), "store not clean after shutdown: {report:?}");
    let (reopened, rec) = open_read_only(&dir).expect("store reopens");
    assert!(rec.clean());
    assert_eq!(rec.wal_frames_replayed, 0, "shutdown left a WAL tail");
    assert!(rec.seg_frames > 0);
    assert_eq!(persist::export_json(&reopened).to_string(), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Four clients submit the same variants (rotated, so misses overlap and
/// coalesce) to a two-worker service; returns once all are answered.
fn concurrent_ingest(svc: &LatencyService, models: &[Arc<Graph>]) {
    std::thread::scope(|s| {
        for client in 0..4 {
            s.spawn(move || {
                for i in 0..models.len() {
                    let m = &models[(i + 2 * client) % models.len()];
                    svc.query(m, PLATFORM, 1).expect("query succeeds");
                }
            });
        }
    });
}

/// Child half of the kill test: re-executed by it with the store
/// directory and a WAL crash budget in the environment, so the engine
/// tears a frame and aborts mid-ingest. Exits 42 if the budget was never
/// reached.
#[test]
fn crash_child_server() {
    let Ok(dir) = std::env::var(DIR_ENV) else {
        return; // normal test run, not a re-execution
    };
    let svc = LatencyService::start(system(Some(Path::new(&dir))), serve_cfg(2));
    concurrent_ingest(&svc, &variants(SEED));
    svc.shutdown().expect("shutdown seals the store");
    std::process::exit(42);
}

#[test]
fn kill_mid_ingest_through_the_service_recovers_and_keeps_growing() {
    let exe = std::env::current_exe().unwrap();
    let base = std::env::temp_dir().join(format!("nnlqp-serve-crash-{}", std::process::id()));
    let old = variants(SEED);
    let fresh = variants(SEED + 1);

    // Measurement seeds are a function of (seed, hash, platform, batch),
    // so an in-memory system with the same seed is the oracle for every
    // row the killed server managed to commit, in whatever order.
    let mem = system(None);
    let expected: Vec<(&Arc<Graph>, u64, f64)> = old
        .iter()
        .map(|g| {
            let p = QueryParams::by_name(Graph::clone(g), 1, PLATFORM).unwrap();
            (g, graph_hash(g), mem.query(&p).unwrap().latency_ms)
        })
        .collect();
    let spec = PlatformSpec::by_name(PLATFORM).unwrap();

    // Two pinned WAL byte budgets: the first ends inside the first model
    // frame (the 49-byte platform row is shorter, every model frame is
    // 2.4-3.5 KB), the second mid-run (the eight variants log 25 KB).
    // Neither is a sum of whole frames of this corpus, so both tear; the
    // second leaves at least two committed rows for the oracle to check.
    for (budget, min_rows) in [(1_000u64, 0), (12_000, 2)] {
        let dir = base.join(format!("crash-at-{budget}"));
        let _ = std::fs::remove_dir_all(&dir);
        let status = Command::new(&exe)
            .args(["crash_child_server", "--exact", "--nocapture"])
            .env(DIR_ENV, &dir)
            .env(CRASH_AT_BYTE_ENV, budget.to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("spawn child server");
        assert!(
            !status.success() && status.code() != Some(42),
            "child survived a crash budget of {budget} bytes: {status}"
        );
        let torn = verify_store(&dir).expect("store is verifiable");
        assert!(
            torn.wal_truncated_bytes > 0,
            "budget {budget} tore no frame: {torn:?}"
        );

        // Repair-on-open, then the store verifies clean and holds only
        // rows the oracle agrees with.
        let db = Database::open_durable(DurableOptions::new(&dir)).expect("repair on open");
        let pid = db.get_or_create_platform(&spec.hardware, &spec.software, spec.dtype.name());
        let survived: Vec<bool> = expected
            .iter()
            .map(|&(_, hash, want)| {
                let row = db.lookup_latency(hash, pid, 1);
                if let Some(row) = row {
                    assert_eq!(row.cost_ms, want, "budget {budget}: row diverged");
                }
                row.is_some()
            })
            .collect();
        let rows = db.stats().latencies;
        assert_eq!(
            survived.iter().filter(|&&s| s).count(),
            rows,
            "budget {budget}: a surviving row belongs to no submitted key"
        );
        assert!(
            (min_rows..old.len()).contains(&rows),
            "budget {budget}: {rows} rows survived"
        );
        drop(db);
        let report = verify_store(&dir).unwrap();
        assert!(report.clean(), "repaired store not clean: {report:?}");

        // A second service on the same directory answers the old keys
        // (committed rows from the store, the lost ones re-measured to
        // the same value) plus fresh ones, and the store grows.
        let sys = system(Some(&dir));
        let svc = LatencyService::start(Arc::clone(&sys), serve_cfg(2));
        for (&(g, _, want), &kept) in expected.iter().zip(&survived) {
            let served = svc.query(g, PLATFORM, 1).expect("old key is served");
            assert_eq!(served.latency_ms, want);
            assert_eq!(served.source == Source::Database, kept);
        }
        concurrent_ingest(&svc, &fresh);
        assert!(svc.metrics().balanced());
        svc.shutdown().expect("shutdown seals the store");
        assert_eq!(sys.db.stats().latencies, old.len() + fresh.len());
        drop((svc, sys));
        let report = verify_store(&dir).unwrap();
        assert!(report.clean(), "store not clean after restart: {report:?}");
        assert_eq!(report.latencies, old.len() + fresh.len());
    }
    let _ = std::fs::remove_dir_all(&base);
}
