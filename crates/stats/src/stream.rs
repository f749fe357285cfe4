//! Single-pass streaming summary: running moments, P² quantiles and a
//! fixed-width histogram, in O(1) memory per flow.
//!
//! The simulator used to buffer every per-packet delay of a run in RAM
//! (`delays_ms: Vec<f64>`) just to compute a mean and a few percentiles
//! at the end — hundreds of megabytes for a five-minute many-flow run.
//! [`StreamingStats`] replaces that buffer: [`crate::Running`] gives the
//! exact mean/variance/min/max, and a [`QuantileSketch`] — four
//! [`crate::quantile::P2Quantile`] markers estimating the quartiles and
//! the p95 the paper reports, plus a [`crate::Histogram`] keeping the
//! coarse shape for CDF plots — stands in for the percentiles.
//! Everything updates in O(1) per sample. The sketch is a type of its
//! own so a holder that already keeps exact samples (the simulator's
//! flow reports) can keep the moments alone and skip its cost.

use crate::histogram::Histogram;
use crate::quantile::{P2Quantile, Summary};
use crate::running::Running;
use serde::{Deserialize, Serialize};

/// P²-estimated quartiles and p95 plus a fixed-width histogram: the
/// approximate half of [`StreamingStats`], without the exact moments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantileSketch {
    p25: P2Quantile,
    p50: P2Quantile,
    p75: P2Quantile,
    p95: P2Quantile,
    hist: Histogram,
}

impl QuantileSketch {
    /// Creates a sketch whose histogram covers `[hist_lo, hist_hi)` with
    /// `bins` uniform bins (samples outside the range still feed the
    /// quantiles; the histogram tallies them as out-of-range).
    #[must_use]
    pub fn new(hist_lo: f64, hist_hi: f64, bins: usize) -> Self {
        Self {
            p25: P2Quantile::new(0.25),
            p50: P2Quantile::new(0.5),
            p75: P2Quantile::new(0.75),
            p95: P2Quantile::new(0.95),
            hist: Histogram::new(hist_lo, hist_hi, bins),
        }
    }

    /// The sketch used for per-packet one-way delays: 10 ms bins over
    /// `[0, 4000)` ms — four seconds of queueing covers everything short
    /// of a blackout, and out-of-range samples are still counted.
    #[must_use]
    pub fn for_delays_ms() -> Self {
        Self::new(0.0, 4000.0, 400)
    }

    /// Adds one sample.
    pub fn record(&mut self, x: f64) {
        self.p25.push(x);
        self.p50.push(x);
        self.p75.push(x);
        self.p95.push(x);
        self.hist.add(x);
    }

    /// Estimated quantile for the four tracked points (`0.25`, `0.5`,
    /// `0.75`, `0.95`); `None` when empty or for an untracked `q`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let est = [&self.p25, &self.p50, &self.p75, &self.p95]
            .into_iter()
            .find(|e| (e.quantile() - q).abs() < 1e-12)?;
        est.estimate()
    }

    /// The histogram of in-range samples.
    #[must_use]
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Merges another sketch into this one (see
    /// [`StreamingStats::merge`] for what stays exact).
    ///
    /// # Panics
    /// Panics if the histograms have different geometry.
    pub fn merge(&mut self, other: &QuantileSketch) {
        self.p25.merge(&other.p25);
        self.p50.merge(&other.p50);
        self.p75.merge(&other.p75);
        self.p95.merge(&other.p95);
        self.hist.merge(&other.hist);
    }

    /// A [`Summary`] of the stream this sketch saw, with `moments` the
    /// exact [`Running`] over the same samples: exact
    /// count/mean/std-dev/min/max, P²-estimated quartiles and p95 (exact
    /// below five samples). `None` when empty.
    #[must_use]
    pub fn summary(&self, moments: &Running) -> Option<Summary> {
        if moments.count() == 0 {
            return None;
        }
        Some(Summary {
            count: usize::try_from(moments.count()).unwrap_or(usize::MAX),
            mean: moments.mean(),
            std_dev: moments.std_dev(),
            min: moments.min().unwrap_or(0.0),
            p25: self.p25.estimate().unwrap_or(0.0),
            median: self.p50.estimate().unwrap_or(0.0),
            p75: self.p75.estimate().unwrap_or(0.0),
            p95: self.p95.estimate().unwrap_or(0.0),
            max: moments.max().unwrap_or(0.0),
        })
    }
}

/// O(1)-per-sample replacement for a buffered sample vector: exact
/// moments, P²-estimated quantiles, fixed-width histogram.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamingStats {
    running: Running,
    sketch: QuantileSketch,
}

impl StreamingStats {
    /// Creates a collector whose histogram covers `[hist_lo, hist_hi)`
    /// with `bins` uniform bins (samples outside the range still feed the
    /// moments and quantiles; the histogram tallies them as out-of-range).
    #[must_use]
    pub fn new(hist_lo: f64, hist_hi: f64, bins: usize) -> Self {
        Self {
            running: Running::new(),
            sketch: QuantileSketch::new(hist_lo, hist_hi, bins),
        }
    }

    /// The collector used for per-packet one-way delays, with the
    /// histogram geometry of [`QuantileSketch::for_delays_ms`].
    #[must_use]
    pub fn for_delays_ms() -> Self {
        Self {
            running: Running::new(),
            sketch: QuantileSketch::for_delays_ms(),
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, x: f64) {
        self.running.push(x);
        self.sketch.record(x);
    }

    /// Builds a collector from a slice (tests, fixtures).
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut s = Self::for_delays_ms();
        for &x in samples {
            s.record(x);
        }
        s
    }

    /// Number of samples seen.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.running.count()
    }

    /// Exact arithmetic mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.running.mean()
    }

    /// Exact population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.running.std_dev()
    }

    /// Exact minimum, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        self.running.min()
    }

    /// Exact maximum, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.running.max()
    }

    /// Estimated quantile for the four tracked points (`0.25`, `0.5`,
    /// `0.75`, `0.95`); `None` when empty or for an untracked `q`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.sketch.quantile(q)
    }

    /// The histogram of in-range samples.
    #[must_use]
    pub fn histogram(&self) -> &Histogram {
        self.sketch.histogram()
    }

    /// Merges another collector into this one, deterministically, so
    /// per-shard statistics fold into a single report.
    ///
    /// Exactness per component:
    ///
    /// * count, mean, variance, min, max — **exact** (parallel Welford
    ///   combine, see [`Running::merge`]): the merged moments equal the
    ///   sequential single-stream moments up to float associativity of
    ///   the combine formula itself, independent of arrival order;
    /// * histogram — **exact** (bin-wise addition over identical
    ///   geometry);
    /// * quantiles — **approximate** (count-weighted P² marker combine,
    ///   see [`P2Quantile::merge`]); exact only while either side still
    ///   holds < 5 raw samples.
    ///
    /// # Panics
    /// Panics if the histograms have different geometry (different
    /// `hist_lo`/`hist_hi`/`bins`).
    pub fn merge(&mut self, other: &StreamingStats) {
        self.running.merge(&other.running);
        self.sketch.merge(&other.sketch);
    }

    /// A [`Summary`] assembled from the streaming state: exact
    /// count/mean/std-dev/min/max, P²-estimated quartiles and p95 (exact
    /// below five samples). `None` when empty.
    #[must_use]
    pub fn summary(&self) -> Option<Summary> {
        self.sketch.summary(&self.running)
    }
}

impl Default for StreamingStats {
    fn default() -> Self {
        Self::for_delays_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::quantile;

    #[test]
    fn empty_stats() {
        let s = StreamingStats::for_delays_ms();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.summary().is_none());
        assert_eq!(s.quantile(0.5), None);
    }

    #[test]
    fn small_fixture_matches_exact_summary() {
        let samples = [10.0, 20.0, 30.0];
        let s = StreamingStats::from_samples(&samples);
        let exact = Summary::from_samples(&samples).unwrap();
        let streamed = s.summary().unwrap();
        assert_eq!(streamed.count, exact.count);
        assert_eq!(streamed.mean, exact.mean);
        assert_eq!(streamed.median, exact.median);
        assert_eq!(streamed.p25, exact.p25);
        assert_eq!(streamed.p75, exact.p75);
        assert_eq!(streamed.p95, exact.p95);
        assert_eq!(streamed.min, exact.min);
        assert_eq!(streamed.max, exact.max);
    }

    #[test]
    fn large_stream_tracks_exact_quantiles_closely() {
        // Deterministic LCG samples shaped like a delay distribution.
        let mut state: u64 = 7;
        let mut samples = Vec::new();
        let mut s = StreamingStats::for_delays_ms();
        for _ in 0..50_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let x = 20.0 + 200.0 * u * u; // right-skewed, 20..220 ms
            samples.push(x);
            s.record(x);
        }
        let mean_exact = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((s.mean() - mean_exact).abs() < 1e-9);
        for q in [0.25, 0.5, 0.75, 0.95] {
            let exact = quantile(&samples, q).unwrap();
            let est = s.quantile(q).unwrap();
            assert!(
                (est - exact).abs() < 0.02 * (exact.abs() + 1.0),
                "q={q}: {est} vs exact {exact}"
            );
        }
        assert_eq!(s.histogram().total(), 50_000);
    }

    #[test]
    fn histogram_counts_every_sample() {
        let mut s = StreamingStats::new(0.0, 10.0, 10);
        s.record(5.0);
        s.record(-1.0); // out of range: tallied, not binned
        s.record(100.0);
        assert_eq!(s.histogram().total(), 3);
        assert_eq!(s.histogram().out_of_range(), (1, 1));
        assert_eq!(s.count(), 3);
    }
}
