//! Cubic-spline interpolation for the Verus delay profile.
//!
//! The Verus prototype builds its delay profile — the mapping from sending
//! window `W` to expected end-to-end delay `D` (paper Figure 5) — with the
//! cubic-spline interpolation of the ALGLIB C++ library. This crate is the
//! from-scratch Rust substitute:
//!
//! * [`NaturalCubic`] — the classic natural cubic spline (zero second
//!   derivative at the boundary knots), the same family ALGLIB's
//!   `spline1dbuildcubic` defaults to;
//! * [`MonotoneCubic`] — the Fritsch–Carlson monotone cubic interpolant.
//!   A delay profile is physically monotone (more packets in flight can
//!   only add queueing delay), but a natural spline fit to noisy points can
//!   oscillate; the monotone variant never does. The paper does not say
//!   which behaviour ALGLIB gave them, so the choice is exposed as a
//!   config knob on the profiler and benchmarked as an ablation
//!   (`ablation_spline`);
//! * [`Curve::solve_x`] — a general inverse lookup: given a target delay
//!   `Dest`, find a window `W` with `f(W) = Dest`. Verus itself inverts
//!   its profile every ε epoch (paper Eq. 4 → Figure 5's dashed arrows)
//!   with `DelayProfiler::lookup_window` in `verus-core`, a table-driven
//!   threshold search over the same [`Curve::eval`].
//!
//! Both splines evaluate with linear extrapolation beyond the knot range:
//! the window estimator regularly asks for delays slightly above anything
//! observed yet, and clamping would stop the protocol from probing upward.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod monotone;
mod natural;

pub use monotone::MonotoneCubic;
pub use natural::NaturalCubic;

use serde::{Deserialize, Serialize};

/// Errors from spline construction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplineError {
    /// Fewer than two knots were supplied.
    TooFewKnots {
        /// Number of knots supplied.
        got: usize,
    },
    /// Knot x-values were not strictly increasing.
    NonIncreasingX {
        /// Index of the offending knot.
        index: usize,
    },
    /// A knot coordinate was NaN or infinite.
    NonFiniteKnot {
        /// Index of the offending knot.
        index: usize,
    },
}

impl std::fmt::Display for SplineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooFewKnots { got } => {
                write!(f, "spline needs at least 2 knots, got {got}")
            }
            Self::NonIncreasingX { index } => {
                write!(f, "knot x-values must be strictly increasing (knot {index})")
            }
            Self::NonFiniteKnot { index } => {
                write!(f, "knot {index} has a non-finite coordinate")
            }
        }
    }
}

impl std::error::Error for SplineError {}

/// Locates the segment index `i` with `xs[i] <= x < xs[i+1]` (clamped to
/// the valid segment range), trying `hint` and its right neighbour before
/// falling back to binary search. Callers store the returned index back
/// into `hint`, so sweeps over nearby x-values resolve in O(1) and cold
/// lookups stay O(log n).
pub(crate) fn segment_with_hint(xs: &[f64], x: f64, hint: &std::cell::Cell<usize>) -> usize {
    let last = xs.len() - 2;
    let h = hint.get().min(last);
    if xs[h] <= x {
        if x < xs[h + 1] {
            return h;
        }
        if h < last && x < xs[h + 2] {
            return h + 1;
        }
    }
    match xs.binary_search_by(|v| v.total_cmp(&x)) {
        Ok(i) => i.min(last),
        Err(ins) => ins.saturating_sub(1).min(last),
    }
}

/// Validates knots: at least two, finite, strictly increasing x.
pub(crate) fn validate(knots: &[(f64, f64)]) -> Result<(), SplineError> {
    if knots.len() < 2 {
        return Err(SplineError::TooFewKnots { got: knots.len() });
    }
    for (i, &(x, y)) in knots.iter().enumerate() {
        if !x.is_finite() || !y.is_finite() {
            return Err(SplineError::NonFiniteKnot { index: i });
        }
        if i > 0 && x <= knots[i - 1].0 {
            return Err(SplineError::NonIncreasingX { index: i });
        }
    }
    Ok(())
}

/// A fitted 1-D curve that can be evaluated and inverted.
pub trait Curve {
    /// Evaluates the curve at `x` (linear extrapolation outside the knots).
    fn eval(&self, x: f64) -> f64;

    /// Domain covered by the knots, `(x_first, x_last)`.
    fn domain(&self) -> (f64, f64);

    /// Finds an `x` with `f(x) = y` by scanning segments and bisecting.
    ///
    /// Intended for (near-)monotone curves like the delay profile. When
    /// `y` is below the curve's value over the whole search range the
    /// left edge is returned; when above, the right edge — exactly the
    /// clamping Verus wants (window floors/caps). If the curve crosses
    /// `y` several times the *smallest* crossing is returned, which keeps
    /// the window estimator conservative.
    fn solve_x(&self, y: f64, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "solve_x needs a non-empty range");
        const STEPS: usize = 256;
        const BISECTIONS: usize = 60;
        let f_lo = self.eval(lo);
        // Scan left→right for the first bracketing interval.
        let mut prev_x = lo;
        let mut prev_f = f_lo;
        for i in 1..=STEPS {
            let x = lo + (hi - lo) * i as f64 / STEPS as f64;
            let fx = self.eval(x);
            if (prev_f - y) * (fx - y) <= 0.0 {
                // Bisect inside [prev_x, x].
                let (mut a, mut b) = (prev_x, x);
                let mut fa = prev_f;
                for _ in 0..BISECTIONS {
                    let m = 0.5 * (a + b);
                    let fm = self.eval(m);
                    if (fa - y) * (fm - y) <= 0.0 {
                        b = m;
                    } else {
                        a = m;
                        fa = fm;
                    }
                }
                return 0.5 * (a + b);
            }
            prev_x = x;
            prev_f = fx;
        }
        // No crossing: clamp to the nearer edge by value.
        if (f_lo - y).abs() <= (prev_f - y).abs() {
            lo
        } else {
            hi
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_short_input() {
        assert_eq!(
            validate(&[(0.0, 0.0)]),
            Err(SplineError::TooFewKnots { got: 1 })
        );
    }

    #[test]
    fn validate_rejects_duplicate_x() {
        assert_eq!(
            validate(&[(0.0, 0.0), (0.0, 1.0)]),
            Err(SplineError::NonIncreasingX { index: 1 })
        );
    }

    #[test]
    fn validate_rejects_nan() {
        assert_eq!(
            validate(&[(0.0, f64::NAN), (1.0, 1.0)]),
            Err(SplineError::NonFiniteKnot { index: 0 })
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = SplineError::NonIncreasingX { index: 3 };
        assert!(e.to_string().contains("knot 3"));
    }
}
