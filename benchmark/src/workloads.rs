//! The six single-client closed-loop workloads and the loop that times
//! them. An operation is one public API call; every answer is checked,
//! outside the timed interval, against ground truth and against the tier
//! the workload exists to exercise.

use crate::spans::{SpanId, Trace};
use crate::stats::OpTime;
use crate::world::{
    boot_key, miss_keys, platform_index, platforms, Corpus, Key, World, BOOT_KEYS, COLUMNS,
    PREDICT_PLATFORMS, STORE_GRAPHS, TRAIN_PLATFORM,
};
use nnlqp::{BatchPredictResult, PredictorHandle, QueryError, TrainPredictorConfig};
use nnlqp_ir::{Graph, Rng64};
use nnlqp_obs::trace::{RequestTrace, TraceClock};
use nnlqp_predict::acc_at;
use nnlqp_serve::{ServeError, Served, Source};
use nnlqp_sim::{model_latency_ms, PlatformSpec};

/// Workload names, in the order the suite runs them.
pub const NAMES: [&str; 6] = [
    "query-hot",
    "query-db",
    "query-miss",
    "predict-cold",
    "predict-cached",
    "train",
];

/// Graphs per `predict_batch` call.
pub const PREDICT_BATCH: usize = 32;
/// Graphs of the `query-hot` working set: the first 64 store graphs on
/// all columns is 512 keys, half the hot cache's capacity.
const HOT_GRAPHS: usize = 64;
/// Requests of a workload handed to the traced run's rungs.
const RUNG_REQUESTS: usize = 4_096;
/// Every how-many-th `query-miss` answer is re-derived from the simulator
/// and re-queried after the timed region.
const MISS_AUDIT_STRIDE: usize = 16;

/// One workload: a deterministic sequence of operations plus their checks.
pub trait Workload {
    /// What one call returns.
    type Answer;

    /// Span name of one operation.
    const OP: &'static str;
    /// Percentile reported as `latency_tail_us`.
    const TAIL_Q: f64;
    /// Operations per window of the summary (`stats::summarize`): the
    /// fewest that leave a few samples beyond [`Self::TAIL_Q`], so that a
    /// window is as short as it can be and the host's calm gaps hold one.
    const WINDOW_OPS: usize;

    /// A stretch of the requests the workload sends, for the traced run's
    /// per-layer rungs to replay one layer at a time.
    fn requests(&self) -> Vec<Key>;
    /// Operations of the untimed warm-up pass.
    fn warm_ops(&self) -> usize;
    /// Operations the inputs can supply (fresh keys run out).
    fn limit(&self) -> usize {
        usize::MAX
    }
    /// Untimed: put the caches into the state the workload assumes.
    fn settle(&mut self) {}
    /// Untimed housekeeping before operation `i`.
    fn prepare(&mut self, _i: usize) {}
    /// Operation `i` — the timed call and nothing else.
    fn call(&mut self, i: usize, traced: bool) -> Self::Answer;
    /// Untimed: is the answer to operation `i` right, from the right tier?
    fn check(&mut self, i: usize, answer: Self::Answer) -> bool;
    /// The service's own trace of a traced call.
    fn served_trace(_answer: &Self::Answer) -> Option<&RequestTrace> {
        None
    }
    /// After the timed region: `acc10_pct`, plus failures found by checks
    /// too costly to run per operation.
    fn accuracy(&mut self) -> (f64, u64);
}

/// How long [`drive`] keeps going.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Ops(usize),
    Seconds(f64),
}

/// The timed operations of one [`drive`].
#[derive(Default)]
pub struct Timed {
    pub ops: Vec<OpTime>,
    pub failed: u64,
}

impl Timed {
    pub fn append(&mut self, mut other: Timed) {
        self.ops.append(&mut other.ops);
        self.failed += other.failed;
    }
}

/// Run operations `first..` back to back from one thread until `budget`
/// or the inputs run out. Only `call` sits between the two clock reads;
/// with `trace` set each operation is also recorded as a span.
pub fn drive<W: Workload>(
    w: &mut W,
    first: usize,
    budget: Budget,
    clock: &TraceClock,
    mut trace: Option<(&mut Trace, SpanId)>,
) -> Timed {
    let mut timed = Timed::default();
    let began = clock.now_ns();
    let limit = w.limit();
    let mut i = first;
    while i < limit {
        w.prepare(i);
        let start_ns = clock.now_ns();
        let answer = w.call(i, trace.is_some());
        let end_ns = clock.now_ns();
        if let Some((trace, parent)) = trace.as_mut() {
            let served = W::served_trace(&answer);
            trace.request(W::OP, start_ns, end_ns, Some(*parent), served);
        }
        if !w.check(i, answer) {
            timed.failed += 1;
        }
        timed.ops.push(OpTime { start_ns, end_ns });
        i += 1;
        let done = match budget {
            Budget::Ops(n) => timed.ops.len() >= n,
            Budget::Seconds(s) => (end_ns - began) as f64 >= s * 1.0e9,
        };
        if done {
            break;
        }
    }
    timed
}

fn within_10_pct(answer: f64, truth: f64) -> bool {
    ((answer - truth) / truth).abs() <= 0.10
}

/// A `LatencyService::query` answer, with the service's trace when asked.
pub struct QueryAnswer {
    served: Result<Served, ServeError>,
    trace: Option<RequestTrace>,
}

struct Querier<'a> {
    world: &'a World,
    corpus: &'a Corpus,
    platforms: Vec<String>,
}

impl Querier<'_> {
    fn ask(&self, key: Key, traced: bool) -> QueryAnswer {
        let graph = &self.corpus.graphs[key.graph as usize];
        let platform = &self.platforms[key.platform as usize];
        let batch = u32::from(key.batch);
        if traced {
            let (served, trace) = self.world.service.query_traced(graph, platform, batch);
            QueryAnswer {
                served,
                trace: Some(trace),
            }
        } else {
            QueryAnswer {
                served: self.world.service.query(graph, platform, batch),
                trace: None,
            }
        }
    }
}

/// A stored key with the latency its first measurement returned.
#[derive(Clone, Copy)]
struct StoredKey {
    key: Key,
    truth: f64,
}

fn stored_keys(world: &World, platforms: &[String], graphs: &[usize]) -> Vec<StoredKey> {
    graphs
        .iter()
        .flat_map(|&g| (0..COLUMNS.len()).map(move |c| (g, c)))
        .map(|(g, c)| StoredKey {
            key: boot_key(platforms, g, c),
            truth: world.truth[g * COLUMNS.len() + c],
        })
        .collect()
}

/// How a stored-key workload picks its next key.
enum Order {
    /// Uniformly at random.
    Uniform(Rng64),
    /// Cyclic scan in the order the keys are held.
    Scan,
}

/// The two workloads over stored keys: the same call, checked for an
/// exact answer from exactly one tier.
pub struct QueryStored<'a> {
    q: Querier<'a>,
    keys: Vec<StoredKey>,
    order: Order,
    tier: Source,
    warm_ops: usize,
    next: StoredKey,
    checked: u64,
    within: u64,
}

impl<'a> QueryStored<'a> {
    /// Every request is a hot-cache hit: `effective_graph`, the Merkle
    /// `graph_hash` and the LRU probe are nearly all the work.
    pub fn hot(world: &'a World, corpus: &'a Corpus, seed: u64) -> Self {
        let graphs: Vec<usize> = (0..HOT_GRAPHS).collect();
        let order = Order::Uniform(Rng64::new(seed));
        Self::over(world, corpus, &graphs, order, Source::HotCache, 20_000)
    }

    /// A cyclic scan, in seeded order, over four times the hot cache:
    /// every request misses it, hits the durable store, is promoted and
    /// evicts. The warm-up is one full cycle, after which the cache holds
    /// the 1024 keys the scan will reach last.
    pub fn db(world: &'a World, corpus: &'a Corpus, seed: u64) -> Self {
        let graphs: Vec<usize> = (0..STORE_GRAPHS).collect();
        let mut w = Self::over(
            world,
            corpus,
            &graphs,
            Order::Scan,
            Source::Database,
            BOOT_KEYS,
        );
        Rng64::new(seed).shuffle(&mut w.keys);
        w
    }

    fn over(
        world: &'a World,
        corpus: &'a Corpus,
        graphs: &[usize],
        order: Order,
        tier: Source,
        warm_ops: usize,
    ) -> Self {
        let platforms = platforms();
        let keys = stored_keys(world, &platforms, graphs);
        QueryStored {
            q: Querier {
                world,
                corpus,
                platforms,
            },
            next: keys[0],
            keys,
            order,
            tier,
            warm_ops,
            checked: 0,
            within: 0,
        }
    }
}

impl Workload for QueryStored<'_> {
    type Answer = QueryAnswer;
    const OP: &'static str = "LatencyService::query";
    const TAIL_Q: f64 = 0.99;
    const WINDOW_OPS: usize = 512;

    fn requests(&self) -> Vec<Key> {
        self.keys.iter().map(|k| k.key).collect()
    }

    fn warm_ops(&self) -> usize {
        self.warm_ops
    }

    /// The hot set's first touch promotes each key from the database into
    /// the hot cache.
    fn settle(&mut self) {
        if self.tier == Source::HotCache {
            for k in &self.keys {
                self.q.ask(k.key, false);
            }
        }
    }

    fn prepare(&mut self, i: usize) {
        self.next = match &mut self.order {
            Order::Uniform(rng) => *rng.choice(&self.keys),
            Order::Scan => self.keys[i % self.keys.len()],
        };
    }

    fn call(&mut self, _i: usize, traced: bool) -> QueryAnswer {
        self.q.ask(self.next.key, traced)
    }

    fn check(&mut self, _i: usize, answer: QueryAnswer) -> bool {
        self.checked += 1;
        let Ok(served) = &answer.served else {
            return false;
        };
        self.within += u64::from(within_10_pct(served.latency_ms, self.next.truth));
        served.source == self.tier
            && !served.approximate
            && !served.coalesced
            && served.latency_ms == self.next.truth
    }

    fn served_trace(answer: &QueryAnswer) -> Option<&RequestTrace> {
        answer.trace.as_ref()
    }

    fn accuracy(&mut self) -> (f64, u64) {
        (100.0 * self.within as f64 / self.checked.max(1) as f64, 0)
    }
}

/// Fresh keys only — the evolving database's write path: singleflight,
/// queue, the worker's farm measurement, `insert_model`, WAL append,
/// publish.
pub struct QueryMiss<'a> {
    q: Querier<'a>,
    keys: Vec<Key>,
    /// `(operation, latency)` of every audited answer.
    audited: Vec<(usize, f64)>,
}

impl<'a> QueryMiss<'a> {
    pub fn new(world: &'a World, corpus: &'a Corpus, seed: u64) -> Self {
        let platforms = platforms();
        crate::world::assert_effective_hashes_distinct(corpus);
        let keys = miss_keys(corpus, &platforms, seed);
        QueryMiss {
            q: Querier {
                world,
                corpus,
                platforms,
            },
            keys,
            audited: Vec::new(),
        }
    }
}

impl Workload for QueryMiss<'_> {
    type Answer = QueryAnswer;
    const OP: &'static str = "LatencyService::query";
    const TAIL_Q: f64 = 0.99;
    const WINDOW_OPS: usize = 512;

    fn requests(&self) -> Vec<Key> {
        self.keys[..RUNG_REQUESTS].to_vec()
    }

    fn warm_ops(&self) -> usize {
        2_000
    }

    fn limit(&self) -> usize {
        self.keys.len()
    }

    fn call(&mut self, i: usize, traced: bool) -> QueryAnswer {
        self.q.ask(self.keys[i], traced)
    }

    fn check(&mut self, i: usize, answer: QueryAnswer) -> bool {
        let Ok(served) = &answer.served else {
            return false;
        };
        if i.is_multiple_of(MISS_AUDIT_STRIDE) {
            self.audited.push((i, served.latency_ms));
        }
        served.source == Source::Measured && !served.approximate && !served.coalesced
    }

    fn served_trace(answer: &QueryAnswer) -> Option<&RequestTrace> {
        answer.trace.as_ref()
    }

    /// Audit: the measured latency is within 10 % of the simulator's
    /// noise-free latency, and asking again returns the identical value
    /// from a cache tier.
    fn accuracy(&mut self) -> (f64, u64) {
        let mut within = 0u64;
        let mut failed = 0u64;
        for &(i, latency_ms) in &self.audited {
            let key = self.keys[i];
            let graph = self
                .q
                .corpus
                .effective(key.graph as usize, u32::from(key.batch));
            let spec = PlatformSpec::by_name(&self.q.platforms[key.platform as usize])
                .expect("registry platform");
            let close = within_10_pct(latency_ms, model_latency_ms(&graph, &spec));
            within += u64::from(close);
            let again = self.q.ask(key, false).served;
            let stable =
                again.is_ok_and(|s| s.source != Source::Measured && s.latency_ms == latency_ms);
            failed += u64::from(!(close && stable));
        }
        (
            100.0 * within as f64 / self.audited.len().max(1) as f64,
            failed,
        )
    }
}

/// `graphs` at their native batch 1, cycling over `on`.
fn native_requests(platforms: &[String], graphs: &[usize], on: &[&str]) -> Vec<Key> {
    graphs
        .iter()
        .zip(on.iter().cycle())
        .map(|(&g, name)| Key {
            graph: g as u16,
            platform: platform_index(platforms, name),
            batch: 1,
        })
        .collect()
}

/// `acc10_pct` of `predict` over the held-out graphs.
fn held_out_acc10(
    corpus: &Corpus,
    platforms: &[&str],
    predict: impl FnOnce(&[Graph]) -> Vec<Vec<f64>>,
) -> f64 {
    let (predicted, truth) = corpus.held_out_pairs(platforms, predict);
    acc_at(&predicted, &truth, 0.10)
}

/// The two `predict_batch` workloads: the same call over batches drawn
/// afresh from the same graphs on every pass, with the embed cache either
/// always missing or always hitting.
pub struct Predict<'a> {
    world: &'a World,
    corpus: &'a Corpus,
    /// Deep copies of the graphs (the facade takes `&[Graph]`), and next
    /// to each its corpus index. A pass is `calls_per_pass` consecutive
    /// batches of [`PREDICT_BATCH`]; both are reshuffled between passes,
    /// so call times sample all batch compositions on every seed.
    graphs: Vec<Graph>,
    order: Vec<usize>,
    rng: Rng64,
    /// What each corpus graph predicted the first time; every later
    /// prediction must agree bit for bit, cached or not.
    reference: Vec<Option<Vec<f64>>>,
    /// `Some`: re-install this handle before every pass, so its new stamp
    /// makes every graph an embed-cache miss.
    restamp: Option<PredictorHandle>,
}

impl<'a> Predict<'a> {
    /// NAS-style bulk scoring of unseen candidates: passes over the whole
    /// corpus with every embedding computed afresh.
    pub fn cold(world: &'a World, corpus: &'a Corpus, seed: u64) -> Self {
        let handle = world
            .system()
            .predictor_handle()
            .expect("bootstrap predictor");
        Self::over(world, corpus, corpus.graphs.len(), seed, Some(handle))
    }

    /// Re-scoring known graphs: the 512 store graphs' embeddings fit the
    /// 2048-entry embed cache, so only fingerprint, cache probe and heads
    /// run.
    pub fn cached(world: &'a World, corpus: &'a Corpus, seed: u64) -> Self {
        Self::over(world, corpus, STORE_GRAPHS, seed, None)
    }

    fn over(
        world: &'a World,
        corpus: &'a Corpus,
        first_n: usize,
        seed: u64,
        restamp: Option<PredictorHandle>,
    ) -> Self {
        Predict {
            world,
            corpus,
            graphs: corpus.graphs[..first_n]
                .iter()
                .map(|g| (**g).clone())
                .collect(),
            order: (0..first_n).collect(),
            rng: Rng64::new(seed),
            reference: vec![None; first_n],
            restamp,
        }
    }

    /// Full batches per pass; the graphs left over sit the pass out.
    fn calls_per_pass(&self) -> usize {
        self.graphs.len() / PREDICT_BATCH
    }

    fn batch(&self, i: usize) -> std::ops::Range<usize> {
        let at = i % self.calls_per_pass() * PREDICT_BATCH;
        at..at + PREDICT_BATCH
    }
}

impl Workload for Predict<'_> {
    type Answer = Result<BatchPredictResult, QueryError>;
    const OP: &'static str = "Nnlqp::predict_batch";
    const TAIL_Q: f64 = 0.95;
    const WINDOW_OPS: usize = 64;

    fn requests(&self) -> Vec<Key> {
        native_requests(&platforms(), &self.order, &PREDICT_PLATFORMS)
    }

    fn warm_ops(&self) -> usize {
        self.calls_per_pass()
    }

    fn settle(&mut self) {
        if self.restamp.is_none() {
            let _ = self
                .world
                .system()
                .predict_batch(&self.graphs, &PREDICT_PLATFORMS);
        }
    }

    fn prepare(&mut self, i: usize) {
        if !i.is_multiple_of(self.calls_per_pass()) {
            return;
        }
        // Fisher–Yates over the graphs and their indices together.
        for at in (1..self.graphs.len()).rev() {
            let with = self.rng.below(at + 1);
            self.graphs.swap(at, with);
            self.order.swap(at, with);
        }
        if let Some(handle) = &self.restamp {
            self.world.system().set_predictor(handle.clone());
        }
    }

    fn call(&mut self, i: usize, _traced: bool) -> Self::Answer {
        let batch = &self.graphs[self.batch(i)];
        self.world.system().predict_batch(batch, &PREDICT_PLATFORMS)
    }

    fn check(&mut self, i: usize, answer: Self::Answer) -> bool {
        let Ok(result) = answer else { return false };
        let (hits, misses) = if self.restamp.is_some() {
            (0, PREDICT_BATCH as u64)
        } else {
            (PREDICT_BATCH as u64, 0)
        };
        let mut ok = result.embed_hits == hits
            && result.embed_misses == misses
            && result.latencies_ms.len() == PREDICT_BATCH;
        for (&graph, predicted) in self.order[self.batch(i)].iter().zip(result.latencies_ms) {
            ok &= predicted.iter().all(|ms| ms.is_finite() && *ms > 0.0);
            ok &= *self.reference[graph].get_or_insert_with(|| predicted.clone()) == predicted;
        }
        ok
    }

    fn accuracy(&mut self) -> (f64, u64) {
        let acc = held_out_acc10(self.corpus, &PREDICT_PLATFORMS, |graphs| {
            self.world
                .system()
                .predict_batch(graphs, &PREDICT_PLATFORMS)
                .expect("predict the held-out graphs")
                .latencies_ms
        });
        (acc, 0)
    }
}

/// The retrain loop: read one platform's rows back from the store, decode
/// the graphs, build the dataset, run one Adam epoch. The only workload
/// where backprop runs.
pub struct Train<'a> {
    world: &'a World,
    corpus: &'a Corpus,
    /// Prediction of the first trained handle for a probe graph; training
    /// is deterministic, so every later handle must reproduce it.
    reference: Option<f64>,
    last: Option<PredictorHandle>,
}

impl<'a> Train<'a> {
    pub fn new(world: &'a World, corpus: &'a Corpus) -> Self {
        Train {
            world,
            corpus,
            reference: None,
            last: None,
        }
    }

    /// The training call with `epochs` epochs.
    pub fn train(&self, epochs: usize) -> Result<Option<(PredictorHandle, usize)>, QueryError> {
        self.world.system().train_predictor_handle(
            &[TRAIN_PLATFORM],
            TrainPredictorConfig {
                epochs,
                ..Default::default()
            },
        )
    }

    fn predict(&self, handle: &PredictorHandle, graph: &Graph) -> Option<f64> {
        self.world
            .system()
            .predict_effective_with(handle, graph, TRAIN_PLATFORM)
            .ok()
            .map(|p| p.latency_ms)
    }
}

impl Workload for Train<'_> {
    type Answer = Result<Option<(PredictorHandle, usize)>, QueryError>;
    const OP: &'static str = "Nnlqp::train_predictor_handle";
    const TAIL_Q: f64 = 0.75;
    const WINDOW_OPS: usize = 4;

    fn requests(&self) -> Vec<Key> {
        let all: Vec<usize> = (0..STORE_GRAPHS).collect();
        native_requests(&platforms(), &all, &[TRAIN_PLATFORM])
    }

    fn warm_ops(&self) -> usize {
        1
    }

    fn call(&mut self, _i: usize, _traced: bool) -> Self::Answer {
        self.train(1)
    }

    fn check(&mut self, _i: usize, answer: Self::Answer) -> bool {
        let Ok(Some((handle, samples))) = answer else {
            return false;
        };
        let Some(probe) = self.predict(&handle, &self.corpus.held_out()[0]) else {
            return false;
        };
        let repeatable = *self.reference.get_or_insert(probe) == probe;
        self.last = Some(handle);
        samples == STORE_GRAPHS && repeatable
    }

    fn accuracy(&mut self) -> (f64, u64) {
        let Some(handle) = &self.last else {
            return (0.0, 1);
        };
        let acc = held_out_acc10(self.corpus, &[TRAIN_PLATFORM], |graphs| {
            graphs
                .iter()
                .map(|g| vec![self.predict(handle, g).unwrap_or(f64::NAN)])
                .collect()
        });
        (acc, 0)
    }
}
