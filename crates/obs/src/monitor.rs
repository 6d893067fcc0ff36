//! Online prediction-quality monitoring: rolling error windows, drift
//! detection, and the shared error formulas the offline evaluator uses.
//!
//! The paper evaluates NNLP only offline (§5.4, MAPE and Acc(10%)); a
//! production deployment needs the same numbers **online**, per platform,
//! so that the evolving-database retrain loop can fire from evidence of
//! quality loss instead of a blind sample-count cadence.
//!
//! [`mape`] and [`acc_at`] are the single source of truth for the error
//! formulas (Eq. 6 / Eq. 7): `nnlqp-predict` re-exports them for offline
//! evaluation and [`ErrorWindow`] recomputes over its stored pairs with
//! the very same functions — so online and offline numbers agree
//! *bitwise* on the same pairs.

use crate::metrics::{Counter, MetricsRegistry};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Mean Absolute Percentage Error (Eq. 6), in percent. Lower is better.
pub fn mape(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    assert!(!pred.is_empty(), "empty metric input");
    let s: f64 = pred
        .iter()
        .zip(truth)
        .map(|(p, t)| ((p - t) / t).abs())
        .sum();
    s / pred.len() as f64 * 100.0
}

/// Error-bound accuracy Acc(δ) (Eq. 7), in percent: the share of samples
/// whose relative error is within `delta` (e.g. 0.10). Higher is better.
pub fn acc_at(pred: &[f64], truth: &[f64], delta: f64) -> f64 {
    assert_eq!(pred.len(), truth.len());
    assert!(!pred.is_empty(), "empty metric input");
    let hit = pred
        .iter()
        .zip(truth)
        .filter(|(p, t)| ((*p - *t) / *t).abs() <= delta)
        .count();
    hit as f64 / pred.len() as f64 * 100.0
}

/// Upper bucket bounds for the per-platform relative-error histogram, in
/// percent (|pred - truth| / truth * 100).
pub const REL_ERR_PCT_BOUNDS: [f64; 10] =
    [1.0, 2.0, 5.0, 10.0, 15.0, 25.0, 50.0, 100.0, 200.0, 400.0];

/// Tuning of the [`QualityMonitor`].
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Rolling-window capacity per platform (oldest pairs evicted).
    pub window: usize,
    /// Shadow-evaluate every Nth measurement-backed answer per platform
    /// (1 = 100% sampling). Must be >= 1.
    pub sample_every: u64,
    /// Windowed-MAPE percentage above which drift is declared.
    pub mape_threshold_pct: f64,
    /// Minimum pairs in the window before drift can be declared.
    pub min_samples: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            window: 256,
            sample_every: 1,
            mape_threshold_pct: 25.0,
            min_samples: 16,
        }
    }
}

/// A bounded rolling window of `(predicted, measured)` latency pairs.
///
/// Statistics are recomputed over the stored pairs with the shared
/// [`mape`] / [`acc_at`] functions, so a window holding exactly the pairs
/// an offline evaluation used reports bit-identical numbers.
#[derive(Debug, Clone)]
pub struct ErrorWindow {
    cap: usize,
    pairs: VecDeque<(f64, f64)>,
}

impl ErrorWindow {
    /// An empty window holding at most `cap` pairs.
    pub fn new(cap: usize) -> Self {
        ErrorWindow {
            cap: cap.max(1),
            pairs: VecDeque::new(),
        }
    }

    /// Record one `(predicted, measured)` pair, evicting the oldest when
    /// full.
    pub fn push(&mut self, predicted_ms: f64, measured_ms: f64) {
        if self.pairs.len() == self.cap {
            self.pairs.pop_front();
        }
        self.pairs.push_back((predicted_ms, measured_ms));
    }

    /// Pairs currently held.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no pair has been recorded.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Drop every pair (used when a retrain invalidates the predictor the
    /// pairs were produced by).
    pub fn clear(&mut self) {
        self.pairs.clear();
    }

    fn split(&self) -> (Vec<f64>, Vec<f64>) {
        self.pairs.iter().copied().unzip()
    }

    /// Windowed MAPE in percent (`None` when empty).
    pub fn mape(&self) -> Option<f64> {
        if self.pairs.is_empty() {
            return None;
        }
        let (p, t) = self.split();
        Some(mape(&p, &t))
    }

    /// Windowed Acc(δ) in percent (`None` when empty).
    pub fn acc_at(&self, delta: f64) -> Option<f64> {
        if self.pairs.is_empty() {
            return None;
        }
        let (p, t) = self.split();
        Some(acc_at(&p, &t, delta))
    }
}

/// A raised drift signal: the platform's windowed MAPE crossed the
/// configured threshold with enough samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftAlert {
    /// Canonical platform name.
    pub platform: String,
    /// Windowed MAPE at the moment the alert fired, in percent.
    pub windowed_mape_pct: f64,
    /// The configured threshold, in percent.
    pub threshold_pct: f64,
    /// Pairs in the window when the alert fired.
    pub samples: usize,
}

#[derive(Debug)]
struct PlatformState {
    window: ErrorWindow,
    /// Measurement-backed answers seen (drives the sampling decision).
    seen: u64,
    /// A drift alert has fired and no retrain has cleared it yet — the
    /// latch stops one degradation from raising a retrain storm.
    drift_latched: bool,
}

impl PlatformState {
    fn new(window_cap: usize) -> Self {
        PlatformState {
            window: ErrorWindow::new(window_cap),
            seen: 0,
            drift_latched: false,
        }
    }
}

/// Registry names (and labelled name templates) of the monitor's metrics.
pub mod monitor_metric_names {
    /// Counter: shadow evaluations performed (pairs recorded).
    pub const SHADOW_EVALS: &str = "monitor.shadow_evals";
    /// Counter: drift alerts raised.
    pub const DRIFT_ALERTS: &str = "monitor.drift_alerts";
    /// Gauge (per platform): windowed MAPE, percent.
    pub const WINDOWED_MAPE: &str = "monitor.windowed_mape";
    /// Gauge (per platform): windowed Acc(10%), percent.
    pub const ACC10: &str = "monitor.acc10";
    /// Gauge (per platform): windowed Acc(5%), percent.
    pub const ACC5: &str = "monitor.acc5";
    /// Gauge (per platform): pairs currently in the window.
    pub const WINDOW_SAMPLES: &str = "monitor.window_samples";
    /// Histogram (per platform): relative error of each shadow eval, %.
    pub const REL_ERR_PCT: &str = "monitor.rel_err_pct";
}

/// Append a `{platform="..."}` label set to a metric name. Registry keys
/// are plain strings; the Prometheus exposition layer splits the label
/// set back out (see [`crate::expose`]).
pub fn labelled(name: &str, platform: &str) -> String {
    format!("{name}{{platform=\"{platform}\"}}")
}

/// Per-platform online quality monitor.
///
/// Feed it `(predicted, measured)` pairs from a shadow evaluator (see
/// `nnlqp-serve`); it maintains rolling MAPE / Acc(10%) / Acc(5%) and an
/// error histogram per platform, publishes them as gauges into the shared
/// [`MetricsRegistry`], and raises a [`DriftAlert`] when windowed MAPE
/// crosses the threshold.
pub struct QualityMonitor {
    cfg: MonitorConfig,
    registry: Arc<MetricsRegistry>,
    state: Mutex<BTreeMap<String, PlatformState>>,
    shadow_evals: Arc<Counter>,
    drift_alerts: Arc<Counter>,
}

impl QualityMonitor {
    /// A monitor publishing into `registry`.
    pub fn new(cfg: MonitorConfig, registry: Arc<MetricsRegistry>) -> Self {
        let shadow_evals = registry.counter(monitor_metric_names::SHADOW_EVALS);
        let drift_alerts = registry.counter(monitor_metric_names::DRIFT_ALERTS);
        QualityMonitor {
            cfg: MonitorConfig {
                sample_every: cfg.sample_every.max(1),
                ..cfg
            },
            registry,
            state: Mutex::new(BTreeMap::new()),
            shadow_evals,
            drift_alerts,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> MonitorConfig {
        self.cfg
    }

    /// Sampling decision for the next measurement-backed answer on
    /// `platform`: true every `sample_every`-th call (deterministic
    /// per-platform modular sampling, so a fixed request order always
    /// shadows the same requests).
    pub fn sample(&self, platform: &str) -> bool {
        let mut st = self.state.lock().expect("monitor lock");
        let entry = st
            .entry(platform.to_string())
            .or_insert_with(|| PlatformState::new(self.cfg.window));
        let pick = entry.seen.is_multiple_of(self.cfg.sample_every);
        entry.seen += 1;
        pick
    }

    /// Record one shadow-evaluated pair. Returns a [`DriftAlert`] when
    /// this pair pushes the platform's windowed MAPE over the threshold
    /// (once per degradation — the latch clears on
    /// [`QualityMonitor::reset_window`]).
    pub fn record(
        &self,
        platform: &str,
        predicted_ms: f64,
        measured_ms: f64,
    ) -> Option<DriftAlert> {
        self.shadow_evals.inc();
        let rel_err_pct = ((predicted_ms - measured_ms) / measured_ms).abs() * 100.0;
        self.registry
            .histogram(
                &labelled(monitor_metric_names::REL_ERR_PCT, platform),
                &REL_ERR_PCT_BOUNDS,
            )
            .observe(rel_err_pct);
        let mut st = self.state.lock().expect("monitor lock");
        let entry = st
            .entry(platform.to_string())
            .or_insert_with(|| PlatformState::new(self.cfg.window));
        entry.window.push(predicted_ms, measured_ms);
        let wmape = entry.window.mape().expect("window non-empty");
        self.publish_gauges(platform, &entry.window);
        let drifting =
            entry.window.len() >= self.cfg.min_samples && wmape > self.cfg.mape_threshold_pct;
        if drifting && !entry.drift_latched {
            entry.drift_latched = true;
            self.drift_alerts.inc();
            return Some(DriftAlert {
                platform: platform.to_string(),
                windowed_mape_pct: wmape,
                threshold_pct: self.cfg.mape_threshold_pct,
                samples: entry.window.len(),
            });
        }
        None
    }

    /// Replace the platform's window with freshly evaluated pairs (the
    /// retrain loop re-predicts its replay buffer under the new model) and
    /// clear the drift latch. Returns the new windowed MAPE.
    pub fn reset_window(&self, platform: &str, pairs: &[(f64, f64)]) -> Option<f64> {
        let mut st = self.state.lock().expect("monitor lock");
        let entry = st
            .entry(platform.to_string())
            .or_insert_with(|| PlatformState::new(self.cfg.window));
        entry.window = ErrorWindow::new(self.cfg.window);
        for &(p, t) in pairs {
            entry.window.push(p, t);
        }
        entry.drift_latched = false;
        self.publish_gauges(platform, &entry.window);
        entry.window.mape()
    }

    /// Current windowed MAPE for `platform`, in percent.
    pub fn windowed_mape(&self, platform: &str) -> Option<f64> {
        self.state
            .lock()
            .expect("monitor lock")
            .get(platform)
            .and_then(|e| e.window.mape())
    }

    /// Point-in-time per-platform quality report.
    pub fn report(&self) -> QualityReport {
        let st = self.state.lock().expect("monitor lock");
        QualityReport {
            platforms: st
                .iter()
                .filter(|(_, e)| !e.window.is_empty())
                .map(|(name, e)| {
                    (
                        name.clone(),
                        PlatformQuality {
                            samples: e.window.len(),
                            windowed_mape_pct: e.window.mape().unwrap_or(0.0),
                            acc10_pct: e.window.acc_at(0.10).unwrap_or(0.0),
                            acc5_pct: e.window.acc_at(0.05).unwrap_or(0.0),
                            drifting: e.drift_latched,
                        },
                    )
                })
                .collect(),
        }
    }

    fn publish_gauges(&self, platform: &str, window: &ErrorWindow) {
        let set = |name: &str, v: f64| {
            self.registry.gauge(&labelled(name, platform)).set(v);
        };
        if let Some(m) = window.mape() {
            set(monitor_metric_names::WINDOWED_MAPE, m);
        }
        if let Some(a) = window.acc_at(0.10) {
            set(monitor_metric_names::ACC10, a);
        }
        if let Some(a) = window.acc_at(0.05) {
            set(monitor_metric_names::ACC5, a);
        }
        set(monitor_metric_names::WINDOW_SAMPLES, window.len() as f64);
    }
}

/// Online quality of one platform's predictor, over the rolling window.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformQuality {
    /// Pairs in the window.
    pub samples: usize,
    /// Windowed MAPE, percent (Eq. 6 over the window).
    pub windowed_mape_pct: f64,
    /// Windowed Acc(10%), percent (Eq. 7).
    pub acc10_pct: f64,
    /// Windowed Acc(5%), percent.
    pub acc5_pct: f64,
    /// True while a drift alert is latched (raised, not yet retrained).
    pub drifting: bool,
}

/// Per-platform quality, as returned by the service's `quality()` call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QualityReport {
    /// Canonical platform name → quality.
    pub platforms: BTreeMap<String, PlatformQuality>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor(cfg: MonitorConfig) -> QualityMonitor {
        QualityMonitor::new(cfg, Arc::new(MetricsRegistry::new()))
    }

    #[test]
    fn window_evicts_oldest() {
        let mut w = ErrorWindow::new(3);
        // Errors: 10%, 20%, 30%, 40% — the first pair falls out.
        for p in [110.0, 120.0, 130.0, 140.0] {
            w.push(p, 100.0);
        }
        assert_eq!(w.len(), 3);
        let m = w.mape().unwrap();
        assert!((m - 30.0).abs() < 1e-9, "window MAPE {m}");
        assert!((w.acc_at(0.30).unwrap() - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn window_matches_offline_formulas_bitwise() {
        // The acceptance criterion: windowed numbers must be *bitwise*
        // equal to the slice evaluators over the same pairs.
        let preds = [12.5, 7.25, 101.0, 55.125, 9.875];
        let truths = [11.0, 8.0, 90.0, 60.0, 10.0];
        let mut w = ErrorWindow::new(preds.len());
        for (p, t) in preds.iter().zip(&truths) {
            w.push(*p, *t);
        }
        assert_eq!(w.mape().unwrap().to_bits(), mape(&preds, &truths).to_bits());
        assert_eq!(
            w.acc_at(0.10).unwrap().to_bits(),
            acc_at(&preds, &truths, 0.10).to_bits()
        );
        assert_eq!(
            w.acc_at(0.05).unwrap().to_bits(),
            acc_at(&preds, &truths, 0.05).to_bits()
        );
    }

    #[test]
    fn drift_requires_min_samples_and_threshold() {
        let m = monitor(MonitorConfig {
            window: 8,
            sample_every: 1,
            mape_threshold_pct: 25.0,
            min_samples: 3,
        });
        // Two wildly wrong pairs: over threshold, under min_samples.
        assert!(m.record("p", 200.0, 100.0).is_none());
        assert!(m.record("p", 200.0, 100.0).is_none());
        // Third pair crosses min_samples with MAPE 100% > 25%.
        let alert = m.record("p", 200.0, 100.0).expect("drift fires");
        assert_eq!(alert.samples, 3);
        assert!((alert.windowed_mape_pct - 100.0).abs() < 1e-9);
        // Latched: no storm of repeat alerts.
        assert!(m.record("p", 200.0, 100.0).is_none());
        // A retrain resets the window and clears the latch.
        let after = m.reset_window("p", &[(101.0, 100.0)]).unwrap();
        assert!((after - 1.0).abs() < 1e-9);
        assert!(!m.report().platforms["p"].drifting);
    }

    #[test]
    fn accurate_predictions_never_alert() {
        let m = monitor(MonitorConfig {
            window: 8,
            sample_every: 1,
            mape_threshold_pct: 25.0,
            min_samples: 1,
        });
        for _ in 0..10 {
            assert!(m.record("p", 102.0, 100.0).is_none());
        }
        let q = &m.report().platforms["p"];
        assert_eq!(q.samples, 8); // capped by the window
        assert_eq!(q.acc10_pct, 100.0);
        assert!(!q.drifting);
    }

    #[test]
    fn sampling_is_deterministic_modular() {
        let m = monitor(MonitorConfig {
            sample_every: 3,
            ..Default::default()
        });
        let picks: Vec<bool> = (0..7).map(|_| m.sample("p")).collect();
        assert_eq!(picks, [true, false, false, true, false, false, true]);
        // Platforms sample independently.
        assert!(m.sample("q"));
    }

    #[test]
    fn gauges_published_per_platform() {
        let reg = Arc::new(MetricsRegistry::new());
        let m = QualityMonitor::new(
            MonitorConfig {
                min_samples: 1,
                ..Default::default()
            },
            Arc::clone(&reg),
        );
        m.record("gpu", 110.0, 100.0);
        let snap = reg.snapshot();
        let key = labelled(monitor_metric_names::WINDOWED_MAPE, "gpu");
        assert!((snap.gauge(&key) - 10.0).abs() < 1e-9);
        assert_eq!(snap.counter(monitor_metric_names::SHADOW_EVALS), 1);
        let hist = &snap.histograms[&labelled(monitor_metric_names::REL_ERR_PCT, "gpu")];
        assert_eq!(hist.count, 1);
    }
}
