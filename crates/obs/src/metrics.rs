//! The unified metrics registry: named counters and histograms shared by
//! every layer of the stack.
//!
//! The facade, the device farm and the serving layer all publish into one
//! [`MetricsRegistry`]; the service and the CLI snapshot it to report
//! where requests went *and* how long each stage took — replacing the
//! per-crate private counter structs. Handles are `Arc`s: register once,
//! then update without a lock.
//!
//! # Writer slots
//!
//! A [`Counter`] or [`Histogram`] keeps one cache-line-aligned set of
//! cells per *writer slot*. A thread claims one of the process's
//! `WRITER_SLOTS` (16) slots on its first update and gives it back when it
//! exits; while it holds the slot it is the only writer of that slot's
//! cells in every metric, so an update is a relaxed load and a store — no
//! locked read-modify-write, and no cache line bounced between threads.
//! A thread that finds every slot taken (or updates a metric while its
//! thread-locals are being torn down) writes the shared overflow set with
//! atomic read-modify-writes instead. A read sums the sets: counts are
//! exact at any quiescent point, and a histogram's sum is folded into
//! `+0.0` in slot order, so a series with one writer keeps the bits of
//! the sequential fold.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Writer slots per process. A constant, not a knob: it covers a service's
/// workers, its retrain and metrics-writer threads and a few client
/// threads; threads beyond it share the overflow set and stay exact.
pub(crate) const WRITER_SLOTS: usize = 16;

/// Cell sets per metric: one per writer slot, then the overflow set.
const CELL_SETS: usize = WRITER_SLOTS + 1;

/// The overflow set's index, shared by every thread without a slot.
const OVERFLOW: usize = WRITER_SLOTS;

/// `SLOT`'s value before the thread's first update.
const UNCLAIMED: usize = usize::MAX;

/// `CLAIMED[s]` is true while a live thread owns slot `s`.
static CLAIMED: [AtomicBool; WRITER_SLOTS] = [const { AtomicBool::new(false) }; WRITER_SLOTS];

thread_local! {
    /// The cell set this thread writes; `UNCLAIMED` until its first update.
    static SLOT: Cell<usize> = const { Cell::new(UNCLAIMED) };
    /// Owns the claimed slot and gives it back when the thread exits.
    static GUARD: SlotGuard = SlotGuard::claim();
}

struct SlotGuard(usize);

impl SlotGuard {
    fn claim() -> SlotGuard {
        // Acquire pairs with the previous owner's release in `drop`: its
        // last stores to the slot's cells are visible to the loads of
        // this thread's first updates.
        let free = |c: &AtomicBool| {
            c.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        };
        SlotGuard(CLAIMED.iter().position(free).unwrap_or(OVERFLOW))
    }
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        // Any update later in this thread's teardown goes to the overflow
        // set, never to a slot another thread may own by then.
        let _ = SLOT.try_with(|s| s.set(OVERFLOW));
        if let Some(claimed) = CLAIMED.get(self.0) {
            claimed.store(false, Ordering::Release);
        }
    }
}

/// The cell set the calling thread writes: its own slot, claimed on first
/// use, or [`OVERFLOW`].
#[inline]
fn writer_set() -> usize {
    let slot = SLOT.with(Cell::get);
    if slot != UNCLAIMED {
        return slot;
    }
    let slot = GUARD.try_with(|g| g.0).unwrap_or(OVERFLOW);
    SLOT.with(|s| s.set(slot));
    slot
}

/// Add `n` to `cell` of cell set `set`. A slot's cells have one writer,
/// its owner, so a relaxed load and store lose nothing; the overflow set
/// is shared and pays for an atomic add.
#[inline]
fn add_u64(cell: &AtomicU64, set: usize, n: u64) {
    if set < OVERFLOW {
        cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    } else {
        cell.fetch_add(n, Ordering::Relaxed);
    }
}

/// [`add_u64`] for a cell holding `f64` bits; the overflow set pays for a
/// compare-and-swap loop.
#[inline]
fn add_f64(cell: &AtomicU64, set: usize, x: f64) {
    let add = |bits| (f64::from_bits(bits) + x).to_bits();
    if set < OVERFLOW {
        cell.store(add(cell.load(Ordering::Relaxed)), Ordering::Relaxed);
    } else {
        let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| Some(add(bits)));
    }
}

/// Eight cells on a cache line of their own, so two slots' cells never
/// share one.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Line([AtomicU64; 8]);

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    /// `sets[s].0[0]` is cell set `s`'s count.
    sets: [Line; CELL_SETS],
}

impl Default for Counter {
    fn default() -> Self {
        Counter {
            sets: std::array::from_fn(|_| Line::default()),
        }
    }
}

/// A gauge: a value that can move both ways (queue depth, cache
/// occupancy, a windowed error rate). Stored as `f64` bits in an atomic,
/// so sets and reads are lock-free from any thread.
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(AtomicU64::new(0.0f64.to_bits()))
    }
}

impl Gauge {
    /// Set the current value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    pub fn add(&self, delta: f64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        let set = writer_set();
        add_u64(&self.sets[set].0[0], set, n);
    }

    /// Current value: the sum over every cell set.
    pub fn get(&self) -> u64 {
        self.sets
            .iter()
            .map(|line| line.0[0].load(Ordering::Relaxed))
            .sum()
    }

    /// What threads without a writer slot have added.
    #[cfg(test)]
    fn overflow(&self) -> u64 {
        self.sets[OVERFLOW].0[0].load(Ordering::Relaxed)
    }
}

/// A histogram over fixed upper bucket bounds plus an overflow bucket,
/// with a running sum for means. Unit-agnostic: the name carries the unit
/// by convention (`"...:ms"`, `"...:s"`). Its count is the sum of its
/// buckets.
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[f64]>,
    /// Cells per set, rounded up to whole lines: the sum's `f64` bits at
    /// 0, then one count per bucket.
    stride: usize,
    /// `CELL_SETS` sets of `stride` cells, set after set.
    lines: Box<[Line]>,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        let stride = (bounds.len() + 2).div_ceil(8) * 8;
        let lines = (0..CELL_SETS * stride / 8)
            .map(|_| Line::default())
            .collect();
        // `+0.0` is all zero bits, so a fresh sum cell already holds it.
        Histogram {
            bounds: bounds.into(),
            stride,
            lines,
        }
    }

    /// Cell `i` of cell set `set`.
    #[inline]
    fn cell(&self, set: usize, i: usize) -> &AtomicU64 {
        let at = set * self.stride + i;
        &self.lines[at / 8].0[at % 8]
    }

    /// Record one observation.
    pub fn observe(&self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        let set = writer_set();
        add_u64(self.cell(set, 1 + idx), set, 1);
        add_f64(self.cell(set, 0), set, value);
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let load = |set, i| self.cell(set, i).load(Ordering::Relaxed);
        let buckets: Vec<u64> = (1..=self.bounds.len() + 1)
            .map(|i| (0..CELL_SETS).map(|set| load(set, i)).sum())
            .collect();
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            count: buckets.iter().sum(),
            buckets,
            sum: (0..CELL_SETS).fold(0.0, |acc, set| acc + f64::from_bits(load(set, 0))),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds; the implicit final bucket is `+inf`.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (`bounds.len() + 1` entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Quantile `q` (0..=1) estimated by linear interpolation inside the
    /// containing bucket (the Prometheus `histogram_quantile` rule): the
    /// target rank `q * count` is located in the cumulative distribution
    /// and positioned proportionally between the bucket's lower and upper
    /// bound. A bucket-upper-bound estimate is biased upward by up to a
    /// full bucket width at every bucket edge — with the log-spaced
    /// bounds used for tail latencies that bias doubles the reported
    /// value; the interpolated estimate is exact for uniform in-bucket
    /// mass. Ranks landing in the overflow bucket return the largest
    /// finite bound (there is no upper edge to interpolate toward).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1e-12);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            let prev = seen;
            seen += c;
            if (seen as f64) < rank || c == 0 {
                continue;
            }
            let Some(&upper) = self.bounds.get(i) else {
                // Overflow bucket: clamp to the largest finite bound.
                return self.bounds.last().copied().unwrap_or(f64::INFINITY);
            };
            let lower = if i == 0 {
                // No lower edge below the first bucket; anchor at 0 for
                // non-negative series (latencies), at the bound otherwise.
                if upper > 0.0 {
                    0.0
                } else {
                    upper
                }
            } else {
                self.bounds[i - 1]
            };
            let frac = (rank - prev as f64) / c as f64;
            return lower + (upper - lower) * frac.clamp(0.0, 1.0);
        }
        self.bounds.last().copied().unwrap_or(f64::INFINITY)
    }
}

/// Default histogram bounds for stage durations in simulated seconds
/// (queries span ~1 s cache hits to ~200 s cold deployments).
pub const STAGE_SECONDS_BOUNDS: [f64; 12] = [
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
];

/// Geometric (log-spaced) bucket bounds: `count` bounds starting at
/// `start`, each `factor` times the previous. Linear bounds lose the tail
/// — everything past the last bound piles into one overflow bucket and
/// p999 becomes unreadable; log spacing keeps *relative* resolution
/// constant across decades, so a `factor` of √2 bounds the interpolated
/// quantile error at ~±20% from nanoseconds to seconds with ~50 buckets.
pub fn log_bounds(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(start > 0.0 && factor > 1.0, "log bounds must grow");
    let mut out = Vec::with_capacity(count);
    let mut b = start;
    for _ in 0..count {
        out.push(b);
        b *= factor;
    }
    out
}

/// The registry: name → counter / histogram. One per deployment; share
/// it with `Arc`.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`. The handle is lock-free to bump;
    /// keep it around instead of re-resolving per event.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counters
            .lock()
            .expect("registry lock")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the gauge `name`. Like counters, the handle is
    /// lock-free to set.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauges
            .lock()
            .expect("registry lock")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the histogram `name`. Bounds are fixed by the first
    /// registration; later calls reuse the existing instance.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.histograms
            .lock()
            .expect("registry lock")
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new(bounds)))
            .clone()
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Counter value (0 when absent — reading a metric nobody has
    /// published yet is not an error).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value (0 when absent, same convention as counters).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Recover;

    #[test]
    fn counters_are_shared_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        assert_eq!(reg.snapshot().counter("x"), 3);
        assert_eq!(reg.snapshot().counter("absent"), 0);
    }

    #[test]
    fn gauges_move_both_ways_and_are_shared() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        g.set(5.0);
        g.add(-2.0);
        reg.gauge("depth").add(0.5);
        assert_eq!(g.get(), 3.5);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("depth"), 3.5);
        assert_eq!(snap.gauge("absent"), 0.0);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.6, 3.0, 100.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![1, 2, 1, 1]);
        assert_eq!(s.count, 5);
        assert!((s.sum - 106.6).abs() < 1e-9);
        assert!((s.mean() - 21.32).abs() < 1e-9);
        // Interpolated: rank 2.5 of 5 sits halfway through the (1, 2]
        // bucket (cumulative 1 below it, 2 inside): 1 + 1 * 1.5/2 = 1.75.
        assert!((s.quantile(0.5) - 1.75).abs() < 1e-12);
        // Rank in the overflow bucket clamps to the largest finite bound.
        assert_eq!(s.quantile(0.99), 4.0);
    }

    #[test]
    fn interpolated_quantiles_on_hand_computed_distributions() {
        // 100 observations, one per integer 1..=100, bounds at 10-steps:
        // every bucket holds exactly 10, so the cumulative distribution is
        // piecewise linear and quantiles are exact to interpolation.
        let bounds: Vec<f64> = (1..=10).map(|i| f64::from(i) * 10.0).collect();
        let reg = MetricsRegistry::new();
        let h = reg.histogram("u", &bounds);
        for v in 1..=100 {
            h.observe(f64::from(v));
        }
        let s = h.snapshot();
        // p50: rank 50 is the upper edge of the (40, 50] bucket.
        assert!((s.quantile(0.50) - 50.0).abs() < 1e-9);
        // p99: rank 99 sits 9/10 into the (90, 100] bucket: 90 + 10*0.9.
        assert!((s.quantile(0.99) - 99.0).abs() < 1e-9);
        // p25 / p75 interpolate the same way.
        assert!((s.quantile(0.25) - 25.0).abs() < 1e-9);
        assert!((s.quantile(0.75) - 75.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_first_bucket_anchors_at_zero() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("f", &[8.0, 16.0]);
        for _ in 0..4 {
            h.observe(2.0);
        }
        let s = h.snapshot();
        // All mass in the first bucket: p50 = 0 + 8 * (2/4) = 4.
        assert!((s.quantile(0.5) - 4.0).abs() < 1e-12);
        assert!((s.quantile(1.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_empty_and_overflow_only() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("e", &[1.0]);
        assert_eq!(h.snapshot().quantile(0.5), 0.0);
        h.observe(100.0); // overflow only
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 1.0); // clamped to largest finite bound
    }

    #[test]
    fn log_bounds_grow_geometrically() {
        let b = log_bounds(0.001, 2.0, 12);
        assert_eq!(b.len(), 12);
        assert!((b[0] - 0.001).abs() < 1e-15);
        for w in b.windows(2) {
            assert!((w[1] / w[0] - 2.0).abs() < 1e-12);
        }
        // p999 of a heavy-tailed series is resolvable: observations
        // spanning four decades land in distinct buckets.
        let reg = MetricsRegistry::new();
        let h = reg.histogram("t", &log_bounds(0.001, 2.0, 24));
        for _ in 0..997 {
            h.observe(0.002);
        }
        for _ in 0..3 {
            h.observe(500.0); // three slow outliers
        }
        let s = h.snapshot();
        assert!(s.quantile(0.5) < 0.01);
        assert!(s.quantile(0.999) > 100.0, "p999 = {}", s.quantile(0.999));
    }

    #[test]
    fn histogram_bounds_fixed_by_first_registration() {
        let reg = MetricsRegistry::new();
        let a = reg.histogram("h", &[1.0]);
        let b = reg.histogram("h", &[5.0, 10.0]);
        a.observe(0.5);
        b.observe(0.6);
        assert_eq!(reg.histogram("h", &[]).snapshot().count, 2);
        assert_eq!(b.snapshot().bounds, vec![1.0]);
    }

    /// Serialises the tests that spawn metric-writing threads: slots are
    /// process-wide, and `short_lived_threads_hand_their_slots_on` needs
    /// one free at every claim.
    static THREADS: Mutex<()> = Mutex::new(());

    #[test]
    fn concurrent_bumps_are_lossless() {
        // More writers than slots, released together: some share the
        // overflow set, and every owned slot has a writer racing beside it.
        const WRITERS: usize = WRITER_SLOTS + 4;
        const OPS: u32 = 10_000;
        let _serial = THREADS.lock().recover();
        let reg = MetricsRegistry::new();
        let c = reg.counter("n");
        let bounds = log_bounds(1.0, 2.0, 12);
        let h = reg.histogram("v", &bounds);
        let start = std::sync::Barrier::new(WRITERS);
        std::thread::scope(|s| {
            for _ in 0..WRITERS {
                s.spawn(|| {
                    start.wait();
                    for i in 0..OPS {
                        c.inc();
                        h.observe(f64::from(i));
                    }
                });
            }
        });
        let writers = WRITERS as u64;
        assert_eq!(c.get(), writers * u64::from(OPS));
        let mut want = vec![0u64; bounds.len() + 1];
        for i in 0..OPS {
            let v = f64::from(i);
            want[bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len())] += writers;
        }
        let snap = h.snapshot();
        assert_eq!(snap.buckets, want);
        assert_eq!(snap.count, writers * u64::from(OPS));
        // Integer-valued terms below 2^53: every partial sum is exact.
        let per_writer = f64::from(OPS) * f64::from(OPS - 1) / 2.0;
        assert_eq!(snap.sum, writers as f64 * per_writer);
    }

    #[test]
    fn short_lived_threads_hand_their_slots_on() {
        let _serial = THREADS.lock().recover();
        let reg = MetricsRegistry::new();
        let c = reg.counter("n");
        for i in 0..3 * WRITER_SLOTS as u64 {
            // `join`, not a scope's end, waits for the thread's
            // thread-locals, and so its slot, to be given back.
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.add(i + 1))
                .join()
                .expect("writer thread");
        }
        let n = 3 * WRITER_SLOTS as u64;
        assert_eq!(c.get(), n * (n + 1) / 2);
        assert_eq!(c.overflow(), 0, "a thread found every slot taken");
    }

    #[test]
    fn one_writer_keeps_the_sequential_sum_bits() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("bits", &STAGE_SECONDS_BOUNDS);
        let values: Vec<f64> = (1..=1000)
            .map(|i| 1.0 / f64::from(i) + f64::from(i % 7) * 1.0e7 - 0.3)
            .collect();
        for &v in &values {
            h.observe(v);
        }
        let fold = values.iter().fold(0.0, |acc, v| acc + v);
        assert_eq!(h.snapshot().sum.to_bits(), fold.to_bits());
    }
}
