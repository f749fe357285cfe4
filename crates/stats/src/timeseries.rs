//! Windowed time-series aggregation.
//!
//! The paper's figures are built from per-window aggregates:
//!
//! * Figure 4 plots received throughput in 100 ms and 20 ms windows;
//! * Figures 11–14 plot per-second throughput of each flow;
//! * Table 1 computes Jain's index over one-second windows and averages
//!   the per-window values.
//!
//! [`ThroughputSeries`] turns a stream of `(timestamp, bytes)` delivery
//! events into per-window bit rates; [`WindowedSeries`] is the generic
//! mean-per-window variant used for delay series.

use crate::jain::jain_index;
use serde::{Deserialize, Serialize};

/// Accumulates `(time, bytes)` events into fixed windows and reports the
/// per-window throughput in bits per second.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputSeries {
    window_s: f64,
    /// bytes accumulated per window index
    bytes: Vec<u64>,
}

impl ThroughputSeries {
    /// Creates a series with the given window length in seconds.
    #[must_use]
    pub fn new(window_s: f64) -> Self {
        assert!(window_s > 0.0, "window must be positive");
        Self {
            window_s,
            bytes: Vec::new(),
        }
    }

    /// Records `bytes` delivered at time `t_s`, in seconds from whatever
    /// origin the caller picks: window 0 starts there. The simulator
    /// passes absolute simulation time, so a late-starting flow's early
    /// windows stay empty; the transport's `ShardServer` passes seconds
    /// since its run started.
    pub fn record(&mut self, t_s: f64, bytes: u64) {
        assert!(t_s >= 0.0, "negative timestamp {t_s}");
        let idx = (t_s / self.window_s) as usize;
        if idx >= self.bytes.len() {
            self.bytes.resize(idx + 1, 0);
        }
        self.bytes[idx] += bytes;
    }

    /// Window length in seconds.
    #[must_use]
    pub fn window(&self) -> f64 {
        self.window_s
    }

    /// Per-window throughput as `(window start time, bits/s)`.
    #[must_use]
    pub fn series_bps(&self) -> Vec<(f64, f64)> {
        self.bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| (i as f64 * self.window_s, b as f64 * 8.0 / self.window_s))
            .collect()
    }

    /// Per-window throughput in Mbit/s.
    #[must_use]
    pub fn series_mbps(&self) -> Vec<(f64, f64)> {
        self.series_bps()
            .into_iter()
            .map(|(t, bps)| (t, bps / 1e6))
            .collect()
    }

    /// Mean throughput in bits/s over `[0, end_s)`.
    ///
    /// `end_s` rather than the last event time defines the denominator so
    /// that an idle tail counts against the flow (as the paper's averaged
    /// throughputs do).
    #[must_use]
    pub fn mean_bps(&self, end_s: f64) -> f64 {
        assert!(end_s > 0.0);
        let total: u64 = self.bytes.iter().sum();
        total as f64 * 8.0 / end_s
    }

    /// Total bytes recorded.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

/// Accumulates scalar samples into fixed windows and reports per-window
/// means (used for delay-over-time plots like Figure 11b).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WindowedSeries {
    window_s: f64,
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl WindowedSeries {
    /// Creates a series with the given window length in seconds.
    #[must_use]
    pub fn new(window_s: f64) -> Self {
        assert!(window_s > 0.0, "window must be positive");
        Self {
            window_s,
            sums: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Records `value` observed at time `t_s`.
    pub fn record(&mut self, t_s: f64, value: f64) {
        assert!(t_s >= 0.0, "negative timestamp {t_s}");
        let idx = (t_s / self.window_s) as usize;
        if idx >= self.sums.len() {
            self.sums.resize(idx + 1, 0.0);
            self.counts.resize(idx + 1, 0);
        }
        self.sums[idx] += value;
        self.counts[idx] += 1;
    }

    /// Per-window means as `(window start, mean)`; empty windows are skipped.
    #[must_use]
    pub fn series_mean(&self) -> Vec<(f64, f64)> {
        self.sums
            .iter()
            .zip(&self.counts)
            .enumerate()
            .filter(|(_, (_, &c))| c > 0)
            .map(|(i, (&s, &c))| (i as f64 * self.window_s, s / c as f64))
            .collect()
    }
}

/// Computes Table 1's fairness metric: Jain's index per window of
/// per-flow throughput, averaged over all windows in which at least one
/// flow received data.
///
/// `flows` holds one [`ThroughputSeries`] per flow; all must share the
/// same window length.
#[must_use]
pub fn windowed_jain_mean(flows: &[&ThroughputSeries]) -> Option<f64> {
    windowed_jain_mean_from(flows, 0)
}

/// [`windowed_jain_mean`] starting at window index `first_window`
/// (skipping a convergence warm-up, e.g. slow start).
#[must_use]
pub fn windowed_jain_mean_from(flows: &[&ThroughputSeries], first_window: usize) -> Option<f64> {
    if flows.is_empty() {
        return None;
    }
    let w = flows[0].window_s;
    assert!(
        flows.iter().all(|f| (f.window_s - w).abs() < 1e-12),
        "all flows must use the same window length"
    );
    let max_len = flows.iter().map(|f| f.bytes.len()).max().unwrap_or(0);
    let mut sum = 0.0;
    let mut n = 0u64;
    for win in first_window..max_len {
        let alloc: Vec<f64> = flows
            .iter()
            .map(|f| f.bytes.get(win).copied().unwrap_or(0) as f64)
            .collect();
        if let Some(idx) = jain_index(&alloc) {
            sum += idx;
            n += 1;
        }
    }
    (n > 0).then(|| sum / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_by_window() {
        let mut s = ThroughputSeries::new(1.0);
        s.record(0.1, 1000);
        s.record(0.9, 1000);
        s.record(1.5, 500);
        let series = s.series_bps();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0], (0.0, 16_000.0));
        assert_eq!(series[1], (1.0, 4_000.0));
    }

    #[test]
    fn mbps_conversion() {
        let mut s = ThroughputSeries::new(0.5);
        s.record(0.0, 125_000); // 1 Mbit in half a second = 2 Mbit/s
        assert_eq!(s.series_mbps()[0].1, 2.0);
    }

    #[test]
    fn mean_counts_idle_tail() {
        let mut s = ThroughputSeries::new(1.0);
        s.record(0.0, 1_250_000); // 10 Mbit
        assert_eq!(s.mean_bps(10.0), 1_000_000.0);
    }

    #[test]
    fn windowed_means_skip_empty_windows() {
        let mut s = WindowedSeries::new(1.0);
        s.record(0.2, 10.0);
        s.record(0.8, 20.0);
        s.record(3.0, 5.0);
        let m = s.series_mean();
        assert_eq!(m, vec![(0.0, 15.0), (3.0, 5.0)]);
    }

    #[test]
    fn windowed_jain_matches_hand_computation() {
        let mut a = ThroughputSeries::new(1.0);
        let mut b = ThroughputSeries::new(1.0);
        // window 0: equal → 1.0 ; window 1: one-sided → 0.5.
        a.record(0.0, 100);
        b.record(0.5, 100);
        a.record(1.1, 100);
        let avg = windowed_jain_mean(&[&a, &b]).unwrap();
        assert!((avg - 0.75).abs() < 1e-12);
    }

    #[test]
    fn windowed_jain_skips_all_idle_windows() {
        let mut a = ThroughputSeries::new(1.0);
        let mut b = ThroughputSeries::new(1.0);
        a.record(0.0, 100);
        b.record(0.0, 100);
        a.record(5.0, 100);
        b.record(5.0, 100);
        // windows 1..4 have zero traffic and must not dilute the average.
        let avg = windowed_jain_mean(&[&a, &b]).unwrap();
        assert!((avg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn total_bytes_accumulates() {
        let mut s = ThroughputSeries::new(1.0);
        s.record(0.0, 10);
        s.record(2.0, 20);
        assert_eq!(s.total_bytes(), 30);
    }
}
