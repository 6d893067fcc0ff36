//! The unified metrics registry: named counters and histograms shared by
//! every layer of the stack.
//!
//! The facade, the device farm and the serving layer all publish into one
//! [`MetricsRegistry`]; the service and the CLI snapshot it to report
//! where requests went *and* how long each stage took — replacing the
//! per-crate private counter structs. Handles are `Arc`s: register once,
//! bump lock-free forever.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

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
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram over fixed upper bucket bounds plus an overflow bucket,
/// with a running sum for means. Unit-agnostic: the name carries the unit
/// by convention (`"...:ms"`, `"...:s"`).
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[f64]>,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    /// Sum of observed values, stored as f64 bits and updated by CAS.
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds: bounds.into(),
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// Record one observation.
    pub fn observe(&self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + value).to_bits())
            });
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
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

    #[test]
    fn concurrent_bumps_are_lossless() {
        let reg = Arc::new(MetricsRegistry::new());
        let c = reg.counter("n");
        let h = reg.histogram("v", &STAGE_SECONDS_BOUNDS);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.observe(f64::from(i % 100));
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        let s = h.snapshot();
        assert_eq!(s.count, 8000);
        assert!((s.sum - 8.0 * 1000.0 * 49.5).abs() < 1e-6);
    }
}
