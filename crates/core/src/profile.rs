//! The Delay Profiler (paper §4 "Delay Profiler", §5.1, Figure 5).
//!
//! The profile is Verus' learned model of the channel: for each sending
//! window `W` it remembers the smoothed end-to-end delay observed when
//! packets were in flight under that window. Maintenance follows §5.1
//! exactly:
//!
//! * **per ACK**: "the delay value of the point that corresponds to the
//!   sending window of the acknowledged packet is updated with the new RTT
//!   delay … using an EWMA function";
//! * **per update interval (1 s)**: "due to the high computational effort
//!   of the cubic spline interpolation, this calculation is not performed
//!   after every acknowledgement" — the spline is re-fit from the point
//!   set at fixed intervals;
//! * **inverse lookup**: the window estimator finds `W_{i+1}` as the
//!   window whose profile delay equals `Dest,i+1` (Figure 5's arrows).
//!
//! Windows are quantized to whole packets (they are packet counts), and
//! delays are kept in milliseconds — the unit all of §4's equations use.

use crate::config::SplineKind;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use verus_nettypes::{SimDuration, SimTime};
use verus_spline::{Curve, MonotoneCubic, NaturalCubic};
use verus_stats::Ewma;

/// A fitted profile curve (either spline family).
#[derive(Debug, Clone, Serialize, Deserialize)]
enum ProfileCurve {
    Natural(NaturalCubic),
    Monotone(MonotoneCubic),
}

impl ProfileCurve {
    fn eval(&self, w: f64) -> f64 {
        match self {
            Self::Natural(s) => s.eval(w),
            Self::Monotone(s) => s.eval(w),
        }
    }
}

/// Number of grid points in the inverse-lookup table. At the profile
/// scales Verus runs (windows up to a few thousand packets) this keeps
/// cells well under one packet wide, so the refinement of the crossing
/// starts from a tight bracket.
const INV_LUT_SIZE: usize = 2048;

/// Bracket width at which a crossing counts as resolved: three orders of
/// magnitude below the 1e-6 packet tolerance the lookup guarantees, so
/// the returned midpoint cannot drift observably from the scan's answer.
const INV_TOL: f64 = 1e-9;

/// Iteration cap for the bracket refinement. Illinois false position
/// resolves a sub-packet LUT cell in ~10 evaluations; the periodic forced
/// bisection bounds the worst case well inside this cap.
const INV_MAX_REFINE: usize = 64;

/// Sampling of the fitted curve on a fixed grid over the full probe-able
/// window range. [`DelayProfiler::refit`] only records the grid; samples
/// are evaluated on demand, as a prefix that grows only when a lookup's
/// crossing lies beyond it. Lookups read their crossings off low on the
/// grid, so most of it is never evaluated.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct InvLut {
    lo: f64,
    hi: f64,
    step: f64,
    /// The filled prefix: `(curve value, running maximum)` per grid point.
    /// Interior mutability lets `&self` lookups extend it, as the splines
    /// keep their segment hint in a `Cell`.
    samples: RefCell<Vec<(f64, f64)>>,
}

impl InvLut {
    fn new(max_window_seen: f64) -> Self {
        let lo = 1.0;
        let hi = (max_window_seen * 1.5 + 10.0).max(lo + 1.0);
        let step = (hi - lo) / (INV_LUT_SIZE - 1) as f64;
        Self {
            lo,
            hi,
            step,
            samples: RefCell::new(Vec::new()),
        }
    }

    /// Grid abscissa of sample `i`.
    fn x(&self, i: usize) -> f64 {
        self.lo + (self.hi - self.lo) * i as f64 / (INV_LUT_SIZE - 1) as f64
    }

    /// Largest grid point at or below `w` (clamped to the grid).
    fn floor_x(&self, w: f64) -> f64 {
        self.x(self.first_index_above(w).saturating_sub(1)).min(w)
    }

    /// Index of the first grid point strictly above `w` (clamped).
    fn first_index_above(&self, w: f64) -> usize {
        if w < self.lo {
            return 0;
        }
        let i = ((w - self.lo) / self.step) as usize + 1;
        i.min(INV_LUT_SIZE)
    }

    /// Curve value at grid point `i`, filling the prefix up to it.
    fn sample(&self, samples: &mut Vec<(f64, f64)>, curve: &ProfileCurve, i: usize) -> f64 {
        while samples.len() <= i {
            let y = curve.eval(self.lo + self.step * samples.len() as f64);
            let max = samples.last().map_or(y, |&(_, m)| m.max(y));
            samples.push((y, max));
        }
        samples[i].0
    }

    /// Finds the first grid point in `(from_w, to_w]` whose sampled delay
    /// reaches `dest`, returning the enclosing cell `(x[i-1], x[i])` along
    /// with the sampled delays at both ends (exact curve values, so the
    /// refinement can start its secant without re-evaluating the spline).
    ///
    /// A binary search over the running maximum finds the first filled
    /// sample that reaches `dest`, or learns that none does. The scan
    /// starts there or at `from_w`, whichever is later, and fills the
    /// prefix only as it passes its end. Earlier lookups change how much
    /// is filled, never the index found.
    fn bracket(
        &self,
        curve: &ProfileCurve,
        dest: f64,
        from_w: f64,
        to_w: f64,
    ) -> Option<(f64, f64, f64, f64)> {
        let start = self.first_index_above(from_w);
        let end = self.first_index_above(to_w);
        let samples = &mut *self.samples.borrow_mut();
        // Negated so that a NaN never counts as reaching `dest`.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let first = samples.partition_point(|&(_, max)| !(max >= dest));
        let idx = (start.max(first)..end).find(|&i| self.sample(samples, curve, i) >= dest)?;
        let (a, ya) = if idx == 0 {
            (self.lo, samples[0].0)
        } else {
            (self.x(idx - 1), samples[idx - 1].0)
        };
        Some((a, self.x(idx), ya, samples[idx].0))
    }
}

/// One profile point: smoothed delay plus its freshness.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Point {
    ewma: Ewma,
    last_update: SimTime,
}

/// The delay profile: point set + fitted curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DelayProfiler {
    alpha: f64,
    kind: SplineKind,
    /// Points older than this at re-interpolation time are discarded:
    /// a window the protocol has not exercised for tens of seconds says
    /// nothing about today's channel (slow fading has long since moved
    /// on), and keeping it freezes the curve's shape in the stale
    /// region. `SimDuration::MAX` disables aging.
    max_age: SimDuration,
    /// Smoothed delay (ms) per integer window (packets).
    points: BTreeMap<u32, Point>,
    curve: Option<ProfileCurve>,
    /// Inverse-lookup table over the fitted curve, re-gridded alongside it.
    inv_lut: InvLut,
    /// Largest window among live points (sets the upward-probing
    /// headroom; recomputed when points age out).
    max_window_seen: f64,
}

impl DelayProfiler {
    /// Creates an empty profiler with per-point EWMA weight `alpha`.
    #[must_use]
    pub fn new(alpha: f64, kind: SplineKind) -> Self {
        Self::with_max_age(alpha, kind, SimDuration::MAX)
    }

    /// Creates a profiler whose points expire after `max_age` without an
    /// update (checked at [`Self::refit`] time).
    #[must_use]
    pub fn with_max_age(alpha: f64, kind: SplineKind, max_age: SimDuration) -> Self {
        Self {
            alpha,
            kind,
            max_age,
            points: BTreeMap::new(),
            curve: None,
            inv_lut: InvLut::new(0.0),
            max_window_seen: 0.0,
        }
    }

    /// Feeds one `(sending window, delay)` observation from an ACK.
    pub fn add_sample(&mut self, now: SimTime, window: f64, delay_ms: f64) {
        debug_assert!(window.is_finite() && delay_ms.is_finite());
        let key = (window.round().max(1.0)) as u32;
        self.max_window_seen = self.max_window_seen.max(window);
        let point = self.points.entry(key).or_insert_with(|| Point {
            ewma: Ewma::new(self.alpha),
            last_update: now,
        });
        point.ewma.update(delay_ms);
        point.last_update = now;
    }

    /// Number of distinct window points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no points have been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Whether a curve has been fitted and lookups will succeed.
    #[must_use]
    pub fn has_curve(&self) -> bool {
        self.curve.is_some()
    }

    /// The recorded points as `(window, delay_ms)` (Figure 5's green dots).
    #[must_use]
    pub fn points(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|(&w, p)| (f64::from(w), p.ewma.value_or(0.0)))
            .collect()
    }

    /// Re-interpolates the curve from the current point set (the once-per-
    /// second step of §5.1), first discarding points that have not been
    /// updated within `max_age`. Needs at least two distinct windows; with
    /// fewer the existing curve (if any) is kept and `false` is returned.
    pub fn refit(&mut self, now: SimTime) -> bool {
        if self.max_age != SimDuration::MAX {
            let max_age = self.max_age;
            self.points
                .retain(|_, p| now.saturating_since(p.last_update) <= max_age);
            self.max_window_seen = self
                .points
                .keys()
                .next_back()
                .map_or(0.0, |&w| f64::from(w));
        }
        let knots = self.points();
        if knots.len() < 2 {
            return false;
        }
        let curve = match self.kind {
            SplineKind::Natural => match NaturalCubic::fit(&knots) {
                Ok(s) => ProfileCurve::Natural(s),
                Err(_) => return false,
            },
            SplineKind::Monotone => match MonotoneCubic::fit(&knots) {
                Ok(s) => ProfileCurve::Monotone(s),
                Err(_) => return false,
            },
        };
        self.inv_lut = InvLut::new(self.max_window_seen);
        self.curve = Some(curve);
        true
    }

    /// Evaluates the fitted curve's delay (ms) at `window`, if a curve
    /// exists.
    #[must_use]
    pub fn delay_at(&self, window: f64) -> Option<f64> {
        self.curve.as_ref().map(|c| c.eval(window))
    }

    /// Inverse lookup (Figure 5's dashed arrows): the window whose profile
    /// delay is `dest_ms`, searched within `[min_window, max_window]`.
    ///
    /// Semantics are a **threshold scan**, not a root find: the smallest
    /// window at which the curve's delay reaches `dest_ms`. This matters
    /// because the fitted curve is not guaranteed monotone — fresh points
    /// seeded by a single sample can dent it — and Verus wants the most
    /// conservative window consistent with the target delay. Two
    /// boundary cases:
    ///
    /// * curve already at/above the target at the minimum window → the
    ///   minimum window (back off as far as allowed);
    /// * target above every curve value in range → the top of the range:
    ///   no window Verus knows about costs that much delay, so probe the
    ///   headroom (the "constant exploration mode" of §1). The range
    ///   extends 1.5× past the largest observed window for exactly this
    ///   upward probing.
    ///
    /// An empty search range (`max_window` below the effective minimum)
    /// degenerates to the minimum window — there is nothing to scan, and
    /// the minimum is the most conservative legal answer.
    ///
    /// Returns `None` until a curve is fitted.
    #[must_use]
    pub fn lookup_window(&self, dest_ms: f64, min_window: f64, max_window: f64) -> Option<f64> {
        let curve = self.curve.as_ref()?;
        let lo = min_window.max(1.0);
        let hi = (self.max_window_seen * 1.5 + 10.0).max(lo + 1.0);
        // Clamp to the caller's cap AFTER establishing the probe headroom;
        // if the cap sits at or below `lo` the range is empty and the scan
        // must not run backwards (it used to, returning a window below the
        // configured minimum).
        let hi = hi.min(max_window);
        if hi <= lo {
            return Some(lo);
        }
        let y_lo = curve.eval(lo);
        if y_lo >= dest_ms {
            return Some(lo);
        }
        // Bracket the first up-crossing from the table, then refine inside
        // the cell. The table may stop short of `hi` (samples added since
        // the last refit extend the headroom; beyond the knots the curve
        // is linear), so the tail past the last in-range grid point is
        // handled by the endpoint check.
        if let Some((a, b, ya, yb)) = self.inv_lut.bracket(curve, dest_ms, lo, hi) {
            // A cell straddling `lo` is re-anchored at `lo`, whose curve
            // value is already in hand.
            let (a, ya) = if a < lo { (lo, y_lo) } else { (a, ya) };
            return Some(Self::refine(curve, dest_ms, a, b, ya, yb));
        }
        let tail_start = self.inv_lut.floor_x(hi).max(lo);
        let y_hi = curve.eval(hi);
        if y_hi >= dest_ms {
            let y_tail = curve.eval(tail_start);
            return Some(Self::refine(curve, dest_ms, tail_start, hi, y_tail, y_hi));
        }
        Some(hi)
    }

    /// Collapses the bracket `[a, b]` — `curve(a) < dest_ms <= curve(b)`,
    /// with `ya`/`yb` the already-known curve values at the ends — onto
    /// the threshold crossing, preserving the scan's invariant that the
    /// returned window is the point where the curve first reaches
    /// `dest_ms` within the bracket.
    ///
    /// Uses Illinois false position: the secant through the bracket ends
    /// jumps nearly onto the crossing of the locally-cubic curve, and
    /// halving the retained endpoint's residual whenever the same side
    /// survives twice forces both ends to converge instead of one
    /// stagnating. A bisection step every eighth iteration bounds the
    /// worst case. Terminates once the bracket is [`INV_TOL`] wide —
    /// far below the 1e-6 packet agreement the equivalence tests check —
    /// in ~10 curve evaluations instead of the 40 blind bisections the
    /// original scan used.
    fn refine(curve: &ProfileCurve, dest_ms: f64, a: f64, b: f64, ya: f64, yb: f64) -> f64 {
        let (mut a, mut b) = (a, b);
        let mut fa = ya - dest_ms;
        let mut fb = yb - dest_ms;
        if fa >= 0.0 {
            // Degenerate bracket (caller guards make this unreachable in
            // practice); the left end already satisfies the threshold.
            return a;
        }
        let mut last_kept: i8 = 0;
        for i in 0..INV_MAX_REFINE {
            let width = b - a;
            if width <= INV_TOL {
                break;
            }
            let mut t = if (i + 1) % 8 == 0 {
                0.5 * (a + b)
            } else {
                a - fa * width / (fb - fa)
            };
            // Keep the trial strictly interior so a flat secant cannot
            // stall against an endpoint.
            t = t.clamp(a + 0.01 * width, b - 0.01 * width);
            let ft = curve.eval(t) - dest_ms;
            if ft >= 0.0 {
                b = t;
                fb = ft;
                if last_kept == -1 {
                    fa *= 0.5;
                }
                last_kept = -1;
            } else {
                a = t;
                fa = ft;
                if last_kept == 1 {
                    fb *= 0.5;
                }
                last_kept = 1;
            }
        }
        0.5 * (a + b)
    }

    /// Samples the fitted curve at `n` evenly spaced windows across
    /// `[1, max_window_seen]` (Figure 5's red line / Figure 7b's curves).
    #[must_use]
    pub fn curve_samples(&self, n: usize) -> Vec<(f64, f64)> {
        let Some(curve) = self.curve.as_ref() else {
            return Vec::new();
        };
        if n < 2 {
            return Vec::new();
        }
        let hi = self.max_window_seen.max(2.0);
        (0..n)
            .map(|i| {
                let w = 1.0 + (hi - 1.0) * i as f64 / (n - 1) as f64;
                (w, curve.eval(w))
            })
            .collect()
    }

    /// Largest window observed so far.
    #[must_use]
    pub fn max_window_seen(&self) -> f64 {
        self.max_window_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiler() -> DelayProfiler {
        DelayProfiler::new(0.875, SplineKind::Natural)
    }

    /// Feed a clean linear profile: delay = 20 + 2·W ms.
    fn feed_linear(p: &mut DelayProfiler) {
        for w in 1..=50u32 {
            p.add_sample(SimTime::ZERO, f64::from(w), 20.0 + 2.0 * f64::from(w));
        }
        assert!(p.refit(SimTime::ZERO));
    }

    #[test]
    fn no_lookup_before_fit() {
        let mut p = profiler();
        p.add_sample(SimTime::ZERO, 5.0, 30.0);
        assert!(p.lookup_window(30.0, 1.0, 100.0).is_none());
        assert!(!p.has_curve());
    }

    #[test]
    fn refit_requires_two_points() {
        let mut p = profiler();
        p.add_sample(SimTime::ZERO, 5.0, 30.0);
        p.add_sample(SimTime::ZERO, 5.2, 31.0); // same integer window
        assert_eq!(p.len(), 1);
        assert!(!p.refit(SimTime::ZERO));
        p.add_sample(SimTime::ZERO, 10.0, 40.0);
        assert!(p.refit(SimTime::ZERO));
    }

    #[test]
    fn lookup_inverts_linear_profile() {
        let mut p = profiler();
        feed_linear(&mut p);
        // delay 60 ms ↔ window 20
        let w = p.lookup_window(60.0, 1.0, 1000.0).unwrap();
        assert!((w - 20.0).abs() < 0.5, "got {w}");
    }

    #[test]
    fn lookup_extrapolates_above_observed_range() {
        let mut p = profiler();
        feed_linear(&mut p); // observed up to W=50 (delay 120)
        // Ask for delay 140 ms → extrapolated W = 60, within 1.5× headroom.
        let w = p.lookup_window(140.0, 1.0, 1000.0).unwrap();
        assert!(w > 50.0, "no upward probing: {w}");
        assert!((w - 60.0).abs() < 2.0, "got {w}");
    }

    #[test]
    fn lookup_clamps_to_bounds() {
        let mut p = profiler();
        feed_linear(&mut p);
        // Target below every profile delay → floor at min_window.
        assert_eq!(p.lookup_window(1.0, 4.0, 1000.0), Some(4.0));
        // Target astronomically high → capped by the headroom/max rule.
        let w = p.lookup_window(1e9, 1.0, 60.0).unwrap();
        assert!(w <= 60.0);
    }

    #[test]
    fn empty_range_returns_min_window() {
        // Regression: max_window below the effective minimum used to make
        // hi < lo, and the scan fell through to Some(hi) — a window BELOW
        // the configured minimum. The empty range must degenerate to lo.
        let mut p = profiler();
        feed_linear(&mut p);
        assert_eq!(p.lookup_window(1e9, 50.0, 10.0), Some(50.0));
        assert_eq!(p.lookup_window(1.0, 50.0, 10.0), Some(50.0));
        // hi == lo is likewise empty.
        assert_eq!(p.lookup_window(1e9, 42.0, 42.0), Some(42.0));
    }

    /// A copy of `p` whose lookup table is filled to all its grid points.
    fn fully_filled(p: &DelayProfiler) -> DelayProfiler {
        let full = p.clone();
        let curve = full.curve.as_ref().unwrap();
        let lut = &full.inv_lut;
        lut.sample(&mut lut.samples.borrow_mut(), curve, INV_LUT_SIZE - 1);
        full
    }

    /// Asserts that a lazily filled table answers every lookup in
    /// `queries` (in order, so the fill state evolves between them)
    /// bit-for-bit like the fully filled one, and that its crossing is
    /// the first in-range sample a linear scan of the full table finds.
    fn assert_lazy_matches_full(p: &DelayProfiler, queries: &[(f64, f64, f64)]) {
        let full = fully_filled(p);
        let lazy = p.clone();
        let (curve, lut) = (lazy.curve.as_ref().unwrap(), &lazy.inv_lut);
        for &(dest, min_w, max_w) in queries {
            let want = full.lookup_window(dest, min_w, max_w).unwrap();
            let got = lazy.lookup_window(dest, min_w, max_w).unwrap();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "dest={dest} range=[{min_w}, {max_w}]: lazy {got} vs full {want}"
            );
            let (start, end) = (lut.first_index_above(min_w), lut.first_index_above(max_w));
            let samples = full.inv_lut.samples.borrow();
            let scan = (start..end)
                .find(|&i| samples[i].0 >= dest)
                .map(|i| lut.x(i).to_bits());
            let crossing = lut
                .bracket(curve, dest, min_w, max_w)
                .map(|(_, b, _, _)| b.to_bits());
            assert_eq!(crossing, scan, "dest={dest} range=[{min_w}, {max_w}]");
        }
        assert!(lut.samples.borrow().len() < INV_LUT_SIZE);
    }

    #[test]
    fn lazy_table_answers_match_full_table_bit_for_bit() {
        // A dip after an early bump makes both curves non-monotone.
        let points = [
            (1.0, 20.0),
            (5.0, 80.0),
            (10.0, 30.0),
            (20.0, 40.0),
            (40.0, 100.0),
        ];
        let rising: Vec<f64> = (0..40).map(|i| 21.0 + 2.0 * f64::from(i)).collect();
        let falling: Vec<f64> = rising.iter().rev().copied().collect();
        let interleaved: Vec<f64> = rising
            .iter()
            .zip(&falling)
            .flat_map(|(&r, &f)| [r, f])
            .collect();
        for kind in [SplineKind::Natural, SplineKind::Monotone] {
            let mut p = DelayProfiler::new(0.875, kind);
            for &(w, d) in &points {
                p.add_sample(SimTime::ZERO, w, d);
            }
            assert!(p.refit(SimTime::ZERO));
            for dests in [&rising, &falling, &interleaved] {
                let queries: Vec<_> = dests.iter().map(|&d| (d, 1.0, 1000.0)).collect();
                assert_lazy_matches_full(&p, &queries);
            }
            // Past the bump: a sample below the minimum window already
            // reaches 60 ms, so the answer must be scanned for above it.
            let early = p.inv_lut.first_index_above(12.0);
            let full = fully_filled(&p);
            let samples = full.inv_lut.samples.borrow();
            let bump = samples.iter().position(|&(y, _)| y >= 60.0);
            assert!(bump.is_some_and(|i| i < early));
            let scans = [
                (60.0, 12.0, 1000.0),
                (35.0, 12.0, 1000.0),
                (60.0, 1.0, 1000.0),
            ];
            assert_lazy_matches_full(&p, &scans);
            let reversed: Vec<_> = scans.iter().rev().copied().collect();
            assert_lazy_matches_full(&p, &reversed);
        }
    }

    #[test]
    fn per_ack_updates_are_ewma() {
        let mut p = DelayProfiler::new(0.5, SplineKind::Natural);
        p.add_sample(SimTime::ZERO, 10.0, 100.0);
        p.add_sample(SimTime::ZERO, 10.0, 50.0);
        // 0.5·100 + 0.5·50 = 75
        let pts = p.points();
        assert_eq!(pts, vec![(10.0, 75.0)]);
    }

    #[test]
    fn curve_evolves_after_refit() {
        let mut p = profiler();
        feed_linear(&mut p);
        let before = p.delay_at(20.0).unwrap();
        // Channel degrades: same windows now see much higher delay.
        for _ in 0..40 {
            for w in 1..=50u32 {
                p.add_sample(SimTime::ZERO, f64::from(w), 100.0 + 4.0 * f64::from(w));
            }
        }
        // Not yet refit → curve unchanged.
        assert_eq!(p.delay_at(20.0).unwrap(), before);
        p.refit(SimTime::ZERO);
        let after = p.delay_at(20.0).unwrap();
        assert!(after > before + 50.0, "{before} → {after}");
    }

    #[test]
    fn monotone_kind_produces_monotone_curve() {
        let mut p = DelayProfiler::new(0.875, SplineKind::Monotone);
        // Noisy but increasing-ish profile.
        let delays = [20.0, 22.0, 21.0, 30.0, 29.0, 45.0, 44.0, 70.0];
        for (i, &d) in delays.iter().enumerate() {
            p.add_sample(SimTime::ZERO, (i as f64 + 1.0) * 5.0, d);
        }
        assert!(p.refit(SimTime::ZERO));
        let samples = p.curve_samples(100);
        for w in samples.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 3.0,
                "monotone curve dipped: {:?} → {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn curve_samples_cover_observed_range() {
        let mut p = profiler();
        feed_linear(&mut p);
        let s = p.curve_samples(11);
        assert_eq!(s.len(), 11);
        assert_eq!(s[0].0, 1.0);
        assert_eq!(s[10].0, 50.0);
    }

    #[test]
    fn empty_profile_reports_empty() {
        let p = profiler();
        assert!(p.is_empty());
        assert!(p.curve_samples(10).is_empty());
        assert_eq!(p.max_window_seen(), 0.0);
    }
}
