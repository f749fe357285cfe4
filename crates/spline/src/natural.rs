//! Natural cubic spline.
//!
//! Standard construction: solve the tridiagonal system for the second
//! derivatives `M_i` at the knots with the natural boundary condition
//! `M_0 = M_{n-1} = 0`, then evaluate each segment's cubic in Hermite-like
//! form. This matches ALGLIB's default `spline1dbuildcubic` behaviour used
//! by the original Verus prototype.

use crate::{validate, Curve, SplineError};
use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// A fitted natural cubic spline.
///
/// # Example
///
/// ```
/// use verus_spline::{Curve, NaturalCubic};
///
/// let knots: Vec<(f64, f64)> = (0..=10).map(|i| (i as f64, (i * i) as f64)).collect();
/// let s = NaturalCubic::fit(&knots).unwrap();
/// assert!((s.eval(4.0) - 16.0).abs() < 1e-9);          // interpolates knots
/// let x = s.solve_x(25.0, 0.0, 10.0);                   // inverse lookup
/// assert!((x - 5.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NaturalCubic {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Second derivatives at the knots.
    m: Vec<f64>,
    /// Last segment served by [`Self::segment`]. Evaluation sweeps (LUT
    /// builds, curve sampling, bisection) hit the same or an adjacent
    /// segment almost every call, so checking the hint first makes those
    /// lookups O(1) amortized; a miss falls back to binary search.
    #[serde(skip)]
    hint: Cell<usize>,
}

impl NaturalCubic {
    /// Fits a natural cubic spline through `knots` (strictly increasing x).
    pub fn fit(knots: &[(f64, f64)]) -> Result<Self, SplineError> {
        validate(knots)?;
        let n = knots.len();
        let xs: Vec<f64> = knots.iter().map(|k| k.0).collect();
        let ys: Vec<f64> = knots.iter().map(|k| k.1).collect();

        if n == 2 {
            // Degenerate to a straight line.
            return Ok(Self {
                xs,
                ys,
                m: vec![0.0, 0.0],
                hint: Cell::new(0),
            });
        }

        // Tridiagonal system (Thomas algorithm) for interior second
        // derivatives. Row i (1..n-1):
        //   h[i-1]/6 * M[i-1] + (h[i-1]+h[i])/3 * M[i] + h[i]/6 * M[i+1]
        //     = (y[i+1]-y[i])/h[i] - (y[i]-y[i-1])/h[i-1]
        let h: Vec<f64> = xs.windows(2).map(|w| w[1] - w[0]).collect();
        let mut diag = vec![0.0; n];
        let mut upper = vec![0.0; n];
        let mut rhs = vec![0.0; n];
        for i in 1..n - 1 {
            diag[i] = (h[i - 1] + h[i]) / 3.0;
            upper[i] = h[i] / 6.0;
            rhs[i] = (ys[i + 1] - ys[i]) / h[i] - (ys[i] - ys[i - 1]) / h[i - 1];
        }
        // Forward elimination over interior rows; lower[i] = h[i-1]/6.
        for i in 2..n - 1 {
            let lower = h[i - 1] / 6.0;
            let w = lower / diag[i - 1];
            diag[i] -= w * upper[i - 1];
            rhs[i] -= w * rhs[i - 1];
        }
        let mut m = vec![0.0; n];
        if n >= 3 {
            m[n - 2] = rhs[n - 2] / diag[n - 2];
            for i in (1..n - 2).rev() {
                m[i] = (rhs[i] - upper[i] * m[i + 1]) / diag[i];
            }
        }
        Ok(Self {
            xs,
            ys,
            m,
            hint: Cell::new(0),
        })
    }

    /// Number of knots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the spline has no knots (never true for a fitted spline).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// First derivative at `x` (uses the segment polynomial; constant slope
    /// outside the knot range, matching linear extrapolation).
    #[must_use]
    pub fn derivative(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if x <= self.xs[0] {
            return self.edge_slope(0);
        }
        if x >= self.xs[n - 1] {
            return self.edge_slope(n - 1);
        }
        let i = self.segment(x);
        let h = self.xs[i + 1] - self.xs[i];
        let a = (self.xs[i + 1] - x) / h;
        let b = (x - self.xs[i]) / h;
        (self.ys[i + 1] - self.ys[i]) / h
            + h / 6.0 * ((3.0 * b * b - 1.0) * self.m[i + 1] - (3.0 * a * a - 1.0) * self.m[i])
    }

    fn segment(&self, x: f64) -> usize {
        let i = crate::segment_with_hint(&self.xs, x, &self.hint);
        self.hint.set(i);
        i
    }

    /// Slope used for linear extrapolation beyond knot `edge` (0 or last).
    fn edge_slope(&self, edge: usize) -> f64 {
        let n = self.xs.len();
        if edge == 0 {
            let h = self.xs[1] - self.xs[0];
            (self.ys[1] - self.ys[0]) / h - h / 6.0 * (2.0 * self.m[0] + self.m[1])
        } else {
            let h = self.xs[n - 1] - self.xs[n - 2];
            (self.ys[n - 1] - self.ys[n - 2]) / h + h / 6.0 * (self.m[n - 2] + 2.0 * self.m[n - 1])
        }
    }
}

impl Curve for NaturalCubic {
    fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if x < self.xs[0] {
            return self.ys[0] + self.edge_slope(0) * (x - self.xs[0]);
        }
        if x > self.xs[n - 1] {
            return self.ys[n - 1] + self.edge_slope(n - 1) * (x - self.xs[n - 1]);
        }
        let i = self.segment(x);
        let h = self.xs[i + 1] - self.xs[i];
        let a = (self.xs[i + 1] - x) / h;
        let b = (x - self.xs[i]) / h;
        a * self.ys[i]
            + b * self.ys[i + 1]
            + ((a * a * a - a) * self.m[i] + (b * b * b - b) * self.m[i + 1]) * h * h / 6.0
    }

    fn domain(&self) -> (f64, f64) {
        (self.xs[0], *self.xs.last().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knots_quadratic() -> Vec<(f64, f64)> {
        (0..=10).map(|i| (i as f64, (i * i) as f64)).collect()
    }

    #[test]
    fn interpolates_through_knots() {
        let s = NaturalCubic::fit(&knots_quadratic()).unwrap();
        for &(x, y) in &knots_quadratic() {
            assert!((s.eval(x) - y).abs() < 1e-9, "f({x}) = {} != {y}", s.eval(x));
        }
    }

    #[test]
    fn two_knots_is_a_line() {
        let s = NaturalCubic::fit(&[(0.0, 1.0), (2.0, 5.0)]).unwrap();
        assert!((s.eval(1.0) - 3.0).abs() < 1e-12);
        assert!((s.eval(-1.0) - (-1.0)).abs() < 1e-12); // extrapolation
        assert!((s.eval(3.0) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn close_to_smooth_function_between_knots() {
        // sin over a dense grid: interior error of a natural spline is tiny.
        let knots: Vec<(f64, f64)> = (0..=20)
            .map(|i| {
                let x = i as f64 * 0.3;
                (x, x.sin())
            })
            .collect();
        let s = NaturalCubic::fit(&knots).unwrap();
        for i in 0..200 {
            let x = 0.6 + i as f64 * 0.024; // stay away from the ends
            assert!((s.eval(x) - x.sin()).abs() < 1e-3, "at {x}");
        }
    }

    #[test]
    fn extrapolation_is_linear() {
        let s = NaturalCubic::fit(&knots_quadratic()).unwrap();
        let (lo, hi) = s.domain();
        let slope_hi = (s.eval(hi + 2.0) - s.eval(hi + 1.0)) / 1.0;
        let slope_hi2 = (s.eval(hi + 20.0) - s.eval(hi + 19.0)) / 1.0;
        assert!((slope_hi - slope_hi2).abs() < 1e-9);
        let slope_lo = (s.eval(lo - 1.0) - s.eval(lo - 2.0)) / 1.0;
        let slope_lo2 = (s.eval(lo - 19.0) - s.eval(lo - 20.0)) / 1.0;
        assert!((slope_lo - slope_lo2).abs() < 1e-9);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let s = NaturalCubic::fit(&knots_quadratic()).unwrap();
        for i in 1..40 {
            let x = 0.25 * i as f64;
            let eps = 1e-6;
            let fd = (s.eval(x + eps) - s.eval(x - eps)) / (2.0 * eps);
            assert!(
                (s.derivative(x) - fd).abs() < 1e-4,
                "x={x}: {} vs {fd}",
                s.derivative(x)
            );
        }
    }

    #[test]
    fn solve_x_inverts_monotone_curve() {
        let knots: Vec<(f64, f64)> = (0..=10).map(|i| (i as f64, (i as f64).powf(1.5))).collect();
        let s = NaturalCubic::fit(&knots).unwrap();
        let y = s.eval(4.3);
        let x = s.solve_x(y, 0.0, 10.0);
        assert!((x - 4.3).abs() < 1e-6, "got {x}");
    }

    #[test]
    fn solve_x_clamps_below_and_above() {
        let s = NaturalCubic::fit(&[(0.0, 10.0), (10.0, 20.0)]).unwrap();
        assert_eq!(s.solve_x(5.0, 0.0, 10.0), 0.0); // below curve → left edge
        assert_eq!(s.solve_x(25.0, 0.0, 10.0), 10.0); // above → right edge
    }

    #[test]
    fn hinted_segment_lookup_matches_cold_lookup() {
        let s = NaturalCubic::fit(&knots_quadratic()).unwrap();
        // A forward sweep, a backward sweep, and random-ish jumps must all
        // agree with a freshly fitted spline whose untouched hint forces
        // the binary-search path.
        let xs: Vec<f64> = (0..500)
            .map(|i| (i as f64 * 0.02) % 10.0)
            .chain((0..500).map(|i| 10.0 - (i as f64 * 0.02) % 10.0))
            .chain((0..100).map(|i| ((i * 37) % 101) as f64 / 10.0))
            .collect();
        for x in xs {
            let cold = NaturalCubic::fit(&knots_quadratic()).unwrap();
            assert_eq!(s.eval(x).to_bits(), cold.eval(x).to_bits(), "at {x}");
        }
    }

    #[test]
    fn natural_boundary_second_derivative_is_zero() {
        let s = NaturalCubic::fit(&knots_quadratic()).unwrap();
        assert_eq!(s.m[0], 0.0);
        assert_eq!(*s.m.last().unwrap(), 0.0);
    }
}
