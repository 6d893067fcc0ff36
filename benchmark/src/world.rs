//! The inputs every workload shares: the seeded model corpus, the key
//! space over it, and the common bootstrap (`setup_s`) that leaves a
//! populated, recovered durable store behind a running service with a
//! trained predictor installed.

use nnlqp::{Nnlqp, TrainPredictorConfig};
use nnlqp_db::{DurableOptions, FsyncPolicy};
use nnlqp_hash::graph_hash;
use nnlqp_ir::{Graph, Rng64};
use nnlqp_models::{generate_dataset, DatasetSpec};
use nnlqp_serve::{LatencyService, ServeConfig, Source};
use nnlqp_sim::{model_latency_ms, PlatformSpec};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Variants generated per model family (ten families).
pub const PER_FAMILY: usize = 64;
/// Graphs measured into the store; the rest of the corpus is held out.
pub const STORE_GRAPHS: usize = 512;
/// The store's columns: six platforms at the graphs' native batch 1 and
/// two at batch 8, so a quarter of the stored keys force a `rebatch` on
/// every request.
pub const COLUMNS: [(&str, u32); 8] = [
    ("gpu-T4-trt7.1-fp32", 1),
    ("gpu-T4-trt7.1-int8", 1),
    ("gpu-P4-trt7.1-fp32", 1),
    ("hi3559A-nnie11-int8", 1),
    ("cpu-openppl-fp32", 1),
    ("atlas300-acl-fp16", 1),
    ("gpu-P4-trt7.1-int8", 8),
    ("mlu270-neuware-int8", 8),
];
/// Bootstrap keys: every store graph on every column.
pub const BOOT_KEYS: usize = STORE_GRAPHS * COLUMNS.len();
/// Platforms the installed predictor has heads for (batch-1 columns).
pub const PREDICT_PLATFORMS: [&str; 4] = [COLUMNS[0].0, COLUMNS[1].0, COLUMNS[2].0, COLUMNS[3].0];
/// Epochs of the bootstrap predictor.
pub const BOOT_EPOCHS: usize = 1;
/// The batch-1 column the `train` workload retrains from.
pub const TRAIN_PLATFORM: &str = COLUMNS[4].0;
/// Batch sizes fresh (`query-miss`) keys are drawn over: enough of them
/// that the keys outlast the longest timed region (about 9 000 a second).
pub const MISS_BATCHES: [u32; 16] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];
/// Farm repetitions per measurement.
pub const REPS: usize = 10;

/// The deduplicated, seeded corpus: `graphs[..STORE_GRAPHS]` go into the
/// store, the rest are held out for accuracy.
pub struct Corpus {
    pub graphs: Vec<Arc<Graph>>,
}

impl Corpus {
    /// Generate from `seed`, drop structural duplicates (a duplicate would
    /// silently turn a miss into a hit), shuffle.
    pub fn generate(seed: u64) -> Corpus {
        let mut rng = Rng64::new(seed);
        let spec = DatasetSpec {
            per_family: PER_FAMILY,
            seed: rng.next_u64(),
        };
        let mut seen = HashSet::new();
        let mut graphs: Vec<Arc<Graph>> = generate_dataset(&spec)
            .into_iter()
            .filter(|m| seen.insert(graph_hash(&m.graph)))
            .map(|m| Arc::new(m.graph))
            .collect();
        rng.shuffle(&mut graphs);
        assert!(
            graphs.len() > STORE_GRAPHS + 32,
            "corpus too small after dedup: {}",
            graphs.len()
        );
        Corpus { graphs }
    }

    pub fn store(&self) -> &[Arc<Graph>] {
        &self.graphs[..STORE_GRAPHS]
    }

    pub fn held_out(&self) -> &[Arc<Graph>] {
        &self.graphs[STORE_GRAPHS..]
    }

    /// Graph `graph` at batch size `batch`, shared when that is its own.
    pub fn effective(&self, graph: usize, batch: u32) -> Arc<Graph> {
        let native = &self.graphs[graph];
        if native.input_shape.batch() == batch as usize {
            Arc::clone(native)
        } else {
            Arc::new(
                native
                    .rebatch(batch as usize)
                    .expect("corpus graphs rebatch"),
            )
        }
    }

    /// The held-out graphs' predictions by `predict` on `platforms`,
    /// flattened, beside the simulator's noise-free latencies.
    pub fn held_out_pairs(
        &self,
        platforms: &[&str],
        predict: impl FnOnce(&[Graph]) -> Vec<Vec<f64>>,
    ) -> (Vec<f64>, Vec<f64>) {
        let graphs: Vec<Graph> = self.held_out().iter().map(|g| (**g).clone()).collect();
        let specs: Vec<PlatformSpec> = platforms
            .iter()
            .map(|p| PlatformSpec::by_name(p).expect("registry platform"))
            .collect();
        let truth = graphs
            .iter()
            .flat_map(|g| specs.iter().map(move |s| model_latency_ms(g, s)))
            .collect();
        (predict(&graphs).into_iter().flatten().collect(), truth)
    }
}

/// One query key: a corpus graph, a platform of `platforms()`, a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    pub graph: u16,
    pub platform: u8,
    pub batch: u8,
}

/// Canonical names of every registry platform, in registry order.
pub fn platforms() -> Vec<String> {
    PlatformSpec::registry()
        .into_iter()
        .map(|p| p.name)
        .collect()
}

pub fn platform_index(platforms: &[String], name: &str) -> u8 {
    platforms
        .iter()
        .position(|p| p == name)
        .unwrap_or_else(|| panic!("{name} is not a registry platform")) as u8
}

/// The bootstrap key of store graph `graph` on column `column`; its
/// ground truth is `World::truth[graph * COLUMNS.len() + column]`.
pub fn boot_key(platforms: &[String], graph: usize, column: usize) -> Key {
    let (name, batch) = COLUMNS[column];
    Key {
        graph: graph as u16,
        platform: platform_index(platforms, name),
        batch: batch as u8,
    }
}

/// Every key over corpus × registry × [`MISS_BATCHES`] that the bootstrap
/// did not store, in an order derived from `seed` alone.
pub fn miss_keys(corpus: &Corpus, platforms: &[String], seed: u64) -> Vec<Key> {
    let boot: HashSet<Key> = (0..STORE_GRAPHS)
        .flat_map(|g| (0..COLUMNS.len()).map(move |c| (g, c)))
        .map(|(g, c)| boot_key(platforms, g, c))
        .collect();
    assert_eq!(boot.len(), BOOT_KEYS, "bootstrap keys repeat");
    let mut keys = Vec::new();
    for graph in 0..corpus.graphs.len() as u16 {
        for platform in 0..platforms.len() as u8 {
            for batch in MISS_BATCHES {
                let key = Key {
                    graph,
                    platform,
                    batch: batch as u8,
                };
                if !boot.contains(&key) {
                    keys.push(key);
                }
            }
        }
    }
    Rng64::new(seed).shuffle(&mut keys);
    keys
}

/// Keys name graphs by corpus index, so two keys can only collide in the
/// service if two (graph, batch) pairs share an effective graph hash.
pub fn assert_effective_hashes_distinct(corpus: &Corpus) {
    let mut seen = HashSet::new();
    for graph in 0..corpus.graphs.len() {
        for batch in MISS_BATCHES {
            let hash = graph_hash(&corpus.effective(graph, batch));
            assert!(seen.insert(hash), "effective graph hash repeats");
        }
    }
}

/// A directory under `root` that is removed when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(root: &Path, label: &str) -> TempDir {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("tmp-{}-{label}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The bootstrapped system. Field order is drop order: the service shuts
/// down (final compaction) before its directory is removed.
pub struct World {
    pub service: LatencyService,
    /// Latency returned when each bootstrap key was first measured.
    pub truth: Vec<f64>,
    /// Wall time of reopening the populated store (WAL recovery).
    pub reopen_ms: f64,
    _dir: TempDir,
}

impl World {
    pub fn system(&self) -> &Arc<Nnlqp> {
        self.service.system()
    }
}

fn open(dir: &Path) -> LatencyService {
    // Flush policy is fixed at `Never`: a sandbox fsync is device noise.
    let system = Nnlqp::builder()
        .durable(DurableOptions::new(dir).fsync(FsyncPolicy::Never))
        .reps(REPS)
        .try_build()
        .expect("open durable store");
    LatencyService::start(
        Arc::new(system),
        ServeConfig {
            workers: 1,
            ..Default::default()
        },
    )
}

/// The common bootstrap, identical on every workload; its wall time is
/// `setup_s`. Populate a fresh durable store through the service, close
/// it, recover it from disk, train and install the predictor.
pub fn bootstrap(corpus: &Corpus, tmp_root: &Path) -> World {
    let dir = TempDir::new(tmp_root, "store");
    let service = open(dir.path());
    let mut truth = Vec::with_capacity(BOOT_KEYS);
    for graph in corpus.store() {
        for (platform, batch) in COLUMNS {
            let served = service
                .query(graph, platform, batch)
                .expect("bootstrap measurement");
            assert_eq!(
                served.source,
                Source::Measured,
                "bootstrap key was not fresh"
            );
            truth.push(served.latency_ms);
        }
    }
    service.shutdown().expect("close the populated store");
    drop(service);

    let reopen = Instant::now();
    let service = open(dir.path());
    let reopen_ms = reopen.elapsed().as_secs_f64() * 1.0e3;
    let stored = service.system().stats().latencies;
    assert_eq!(stored, BOOT_KEYS, "recovered store lost measurements");

    let samples = service
        .system()
        .train_predictor(
            &PREDICT_PLATFORMS,
            TrainPredictorConfig {
                epochs: BOOT_EPOCHS,
                ..Default::default()
            },
        )
        .expect("train the bootstrap predictor");
    assert_eq!(samples, STORE_GRAPHS * PREDICT_PLATFORMS.len());
    World {
        service,
        truth,
        reopen_ms,
        _dir: dir,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deduplicated_and_seeded() {
        let a = Corpus::generate(7);
        let b = Corpus::generate(7);
        let c = Corpus::generate(8);
        let hashes = |c: &Corpus| c.graphs.iter().map(|g| graph_hash(g)).collect::<Vec<_>>();
        assert_eq!(hashes(&a), hashes(&b));
        assert_ne!(hashes(&a), hashes(&c));
        let distinct: HashSet<u64> = hashes(&a).into_iter().collect();
        assert_eq!(distinct.len(), a.graphs.len());
        assert!(a.held_out().len() > 32);
    }

    #[test]
    fn miss_keys_are_distinct_disjoint_from_bootstrap_and_seeded() {
        let corpus = Corpus::generate(7);
        let platforms = platforms();
        let a = miss_keys(&corpus, &platforms, 1);
        let distinct: HashSet<Key> = a.iter().copied().collect();
        assert_eq!(distinct.len(), a.len());
        assert_eq!(
            a.len(),
            corpus.graphs.len() * platforms.len() * MISS_BATCHES.len() - BOOT_KEYS
        );
        for g in [0, STORE_GRAPHS - 1] {
            for c in 0..COLUMNS.len() {
                assert!(!distinct.contains(&boot_key(&platforms, g, c)));
            }
        }
        assert_eq!(a, miss_keys(&corpus, &platforms, 1));
        assert_ne!(a, miss_keys(&corpus, &platforms, 2));
        assert_effective_hashes_distinct(&corpus);
    }

    #[test]
    fn temp_dir_is_removed_on_drop() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let dir = TempDir::new(&root, "test");
        let path = dir.path().to_path_buf();
        assert!(path.is_dir());
        drop(dir);
        assert!(!path.exists());
    }
}
