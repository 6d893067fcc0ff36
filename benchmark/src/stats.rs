//! Order statistics over per-operation timings: percentiles, the
//! best-window summary every reported value goes through, and the `VmHWM`
//! parser behind `peak_rss_mb`.

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice: the
/// smallest sample with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the two middle samples averaged on even counts.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples strictly beyond the `tail_q` percentile among `samples`.
pub fn samples_beyond(samples: usize, tail_q: f64) -> usize {
    samples - ((tail_q * samples as f64).ceil() as usize).clamp(1, samples)
}

/// One operation of the timed region, in nanoseconds from its start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTime {
    /// When the call began.
    pub start_ns: u64,
    /// When it returned.
    pub end_ns: u64,
}

/// Operations per second over consecutive `ops`: their count over the wall
/// time from the first call's start to the last call's return.
pub fn throughput_ops_s(ops: &[OpTime]) -> f64 {
    let wall_ns = ops[ops.len() - 1].end_ns - ops[0].start_ns;
    ops.len() as f64 / (wall_ns as f64 / 1.0e9)
}

/// What a timed region reports: each value is the best over the region's
/// windows of that window's own statistic.
///
/// Why the best window and not a median or a low quantile over windows:
/// the host disturbs this VM one-sidedly and in bursts. In a disturbed
/// minute about one stall a millisecond costs 60-100 us instead of a few,
/// which adds a fifth to a half to the upper percentiles of a 100 us
/// operation and a tenth to its median, and for some milliseconds at a
/// time the stalls are cheap again. Nothing makes a window faster than the
/// undisturbed machine, so the best window is the estimate a disturbed run
/// and a calm run agree on (why one takes the minimum of repeated timings),
/// as long as the run holds one undisturbed window. Measurements behind
/// this are in `benchmark/README.md`.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Operations per second of window wall time.
    pub throughput_ops_s: f64,
    /// Median per-operation time, microseconds.
    pub p50_us: f64,
    /// Tail per-operation time at the workload's percentile, microseconds.
    pub tail_us: f64,
    /// Windows the best was taken over.
    pub windows: usize,
    /// Operations in each window.
    pub per_window: usize,
    /// Samples beyond the tail percentile in one window.
    pub beyond: usize,
}

/// Cut `ops` into consecutive windows of `window_ops` operations (dropping
/// the remainder at the end; a run shorter than one window is one window)
/// and take the best of each per-window statistic: the highest throughput,
/// the lowest median, the lowest tail.
pub fn summarize(ops: &[OpTime], window_ops: usize, tail_q: f64) -> Summary {
    assert!(!ops.is_empty(), "no operations were timed");
    let per_window = window_ops.clamp(1, ops.len());
    let mut best = Summary {
        throughput_ops_s: 0.0,
        p50_us: f64::INFINITY,
        tail_us: f64::INFINITY,
        windows: ops.len() / per_window,
        per_window,
        beyond: samples_beyond(per_window, tail_q),
    };
    for window in ops.chunks_exact(per_window) {
        let mut us: Vec<f64> = window
            .iter()
            .map(|o| (o.end_ns - o.start_ns) as f64 / 1.0e3)
            .collect();
        us.sort_by(f64::total_cmp);
        best.throughput_ops_s = best.throughput_ops_s.max(throughput_ops_s(window));
        best.p50_us = best.p50_us.min(percentile(&us, 0.5));
        best.tail_us = best.tail_us.min(percentile(&us, tail_q));
    }
    best
}

/// Median of raw microsecond samples (the per-layer rungs).
pub fn median_us(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let us: Vec<f64> = ns.iter().map(|&n| n as f64 / 1.0e3).collect();
    median(&us)
}

/// `VmHWM` (peak resident set) in MiB from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kib / 1024.0)
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_mib(&status).expect("VmHWM line in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.75), 8.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// What each workload's window leaves beyond its tail percentile.
    #[test]
    fn windows_keep_samples_beyond_the_tail_percentile() {
        assert_eq!(samples_beyond(512, 0.99), 5);
        assert_eq!(samples_beyond(64, 0.95), 3);
        assert_eq!(samples_beyond(4, 0.75), 1);
        assert_eq!(samples_beyond(1, 0.99), 0);
    }

    fn back_to_back(durations_ns: impl IntoIterator<Item = u64>) -> Vec<OpTime> {
        let mut t = 0;
        durations_ns
            .into_iter()
            .map(|dur| {
                let op = OpTime {
                    start_ns: t,
                    end_ns: t + dur,
                };
                t += dur;
                op
            })
            .collect()
    }

    /// Windows of four: {1,1,1,9} {2,2,2,2} {3,1,1,1} and a dropped
    /// remainder. Each statistic takes its own best window.
    #[test]
    fn summarize_takes_the_best_window_of_each_statistic() {
        let us = [1, 1, 1, 9, 2, 2, 2, 2, 3, 1, 1, 1, 50, 50];
        let ops = back_to_back(us.map(|u| u * 1_000));
        let s = summarize(&ops, 4, 0.75);
        assert_eq!((s.windows, s.per_window, s.beyond), (3, 4, 1));
        assert_eq!(s.p50_us, 1.0);
        // p75 of four is the third: 1 in the first window, 2, then 1.
        assert_eq!(s.tail_us, 1.0);
        // Third window: four operations in 6 us.
        assert!((s.throughput_ops_s - 4.0 / 6.0e-6).abs() < 1e-3);
    }

    /// A run disturbed everywhere but in one window reads as a calm run.
    #[test]
    fn summarize_reads_through_slow_spells() {
        let calm = back_to_back((0..10_000u64).map(|_| 1_000));
        let disturbed = back_to_back((0..10_007u64).map(|i| {
            let spared = (5_120..5_632).contains(&i);
            // A fifth slower throughout, and every sixth operation stalls.
            match (spared, i % 6) {
                (true, _) => 1_000,
                (false, 0) => 1_800,
                (false, _) => 1_200,
            }
        }));
        let (c, d) = (
            summarize(&calm, 512, 0.99),
            summarize(&disturbed, 512, 0.99),
        );
        assert_eq!((d.windows, d.per_window, d.beyond), (19, 512, 5));
        assert_eq!((c.p50_us, c.tail_us), (1.0, 1.0));
        assert_eq!((d.p50_us, d.tail_us), (1.0, 1.0));
        assert!((c.throughput_ops_s - d.throughput_ops_s).abs() < 1e-6);
    }

    #[test]
    fn summarize_of_a_short_run_is_one_window() {
        let ops = back_to_back([1_000, 2_000, 3_000]);
        let s = summarize(&ops, 4, 0.75);
        assert_eq!((s.windows, s.per_window, s.beyond), (1, 3, 0));
        assert_eq!((s.p50_us, s.tail_us), (2.0, 3.0));
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t12 MB\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }
}
