//! Power-versus-utilization curves.
//!
//! A [`PowerCurve`] maps a utilization level `u ∈ [0, 1]` to the average
//! power drawn by a server or cluster, in watts. The paper's analytic model
//! yields [`LinearCurve`]s (busy time scales linearly with the job count);
//! measured systems are better captured by [`SampledCurve`]s, and Hsu &
//! Poole's observation that real servers trend quadratically is available as
//! [`QuadraticCurve`] for ablation studies.

use crate::REL_EPS;

/// Power as a function of utilization, in watts.
///
/// Implementations must be defined on all of `[0, 1]`; inputs are clamped.
pub trait PowerCurve {
    /// Average power at utilization `u` (clamped to `[0, 1]`), in watts.
    fn power(&self, u: f64) -> f64;

    /// Power at zero utilization, in watts.
    fn idle(&self) -> f64 {
        self.power(0.0)
    }

    /// Power at full utilization, in watts.
    fn peak(&self) -> f64 {
        self.power(1.0)
    }

    /// Power at `u` as a fraction of peak power (`0 ≤ · ≤ ~1`).
    ///
    /// This is the y-axis of the paper's Figures 5, 7, 9 and 10.
    fn normalized(&self, u: f64) -> f64 {
        let peak = self.peak();
        if peak.abs() < REL_EPS {
            0.0
        } else {
            self.power(u) / peak
        }
    }
}

impl<C: PowerCurve + ?Sized> PowerCurve for &C {
    fn power(&self, u: f64) -> f64 {
        (**self).power(u)
    }
}

/// The ideal energy-proportional curve: `P(u) = u · Ppeak`.
///
/// An ideal system consumes no power when idle and scales power linearly
/// with utilization (Fig. 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdealCurve {
    /// Peak power in watts.
    pub peak: f64,
}

impl IdealCurve {
    /// Ideal curve with the given peak power (watts).
    pub fn new(peak: f64) -> Self {
        assert!(peak >= 0.0, "peak power must be non-negative");
        IdealCurve { peak }
    }
}

impl PowerCurve for IdealCurve {
    fn power(&self, u: f64) -> f64 {
        self.peak * u.clamp(0.0, 1.0)
    }
}

/// The linear curve `P(u) = Pidle + (Ppeak − Pidle) · u` produced by the
/// paper's time-energy model: over an observation period the node is busy
/// for a fraction `u` of the time at `Ppeak` and idle at `Pidle` otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearCurve {
    /// Idle power in watts.
    pub idle: f64,
    /// Peak power in watts.
    pub peak: f64,
}

impl LinearCurve {
    /// Linear curve from idle to peak power (watts). `idle ≤ peak` required.
    pub fn new(idle: f64, peak: f64) -> Self {
        assert!(idle >= 0.0, "idle power must be non-negative");
        assert!(
            peak >= idle,
            "peak power ({peak}) must be at least idle power ({idle})"
        );
        LinearCurve { idle, peak }
    }
}

impl PowerCurve for LinearCurve {
    fn power(&self, u: f64) -> f64 {
        self.idle + (self.peak - self.idle) * u.clamp(0.0, 1.0)
    }
    fn idle(&self) -> f64 {
        self.idle
    }
    fn peak(&self) -> f64 {
        self.peak
    }
}

/// Quadratic power curve `P(u) = Pidle + a·u + b·u²` (Hsu & Poole, ICPP'13):
/// most modern servers deviate from linearity with a quadratic trend.
///
/// The curvature parameter selects the shape: `curvature = 0` degenerates to
/// [`LinearCurve`]; positive curvature bows the curve *below* the chord
/// (sub-linear mid-range, convex); negative curvature bows it above
/// (super-linear mid-range, concave).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadraticCurve {
    /// Idle power in watts.
    pub idle: f64,
    /// Peak power in watts.
    pub peak: f64,
    /// Dimensionless curvature in `[-1, 1]`; fraction of the dynamic range
    /// allocated to the `u²` term.
    pub curvature: f64,
}

impl QuadraticCurve {
    /// Build a quadratic curve; `curvature` is clamped to `[-1, 1]`.
    pub fn new(idle: f64, peak: f64, curvature: f64) -> Self {
        assert!(idle >= 0.0, "idle power must be non-negative");
        assert!(
            peak >= idle,
            "peak power ({peak}) must be at least idle power ({idle})"
        );
        QuadraticCurve {
            idle,
            peak,
            curvature: curvature.clamp(-1.0, 1.0),
        }
    }
}

impl PowerCurve for QuadraticCurve {
    fn power(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let dpr = self.peak - self.idle;
        let b = self.curvature * dpr;
        let a = dpr - b;
        self.idle + a * u + b * u * u
    }
    fn idle(&self) -> f64 {
        self.idle
    }
    fn peak(&self) -> f64 {
        self.peak
    }
}

/// A curve defined by `(utilization, watts)` samples with linear
/// interpolation between them; the natural representation for simulator
/// traces and physical measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledCurve {
    samples: Vec<(f64, f64)>,
}

impl SampledCurve {
    /// Build from samples. Samples are sorted by utilization; at least one
    /// sample is required and utilizations must lie in `[0, 1]`.
    ///
    /// # Panics
    /// Panics on an empty sample set, out-of-range utilization, or
    /// non-finite values.
    pub fn new(mut samples: Vec<(f64, f64)>) -> Self {
        assert!(!samples.is_empty(), "SampledCurve requires ≥ 1 sample");
        for &(u, p) in &samples {
            assert!(
                u.is_finite() && p.is_finite(),
                "non-finite sample ({u}, {p})"
            );
            assert!((0.0..=1.0).contains(&u), "utilization {u} out of [0,1]");
            assert!(p >= 0.0, "negative power {p}");
        }
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        SampledCurve { samples }
    }

    /// The underlying `(utilization, watts)` samples, sorted by utilization.
    pub fn samples(&self) -> &[(f64, f64)] {
        &self.samples
    }
}

impl PowerCurve for SampledCurve {
    fn power(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let s = &self.samples;
        if u <= s[0].0 {
            return s[0].1;
        }
        if u >= s[s.len() - 1].0 {
            return s[s.len() - 1].1;
        }
        // Binary search for the bracketing segment.
        let idx = s.partition_point(|&(x, _)| x <= u);
        let (x0, y0) = s[idx - 1];
        let (x1, y1) = s[idx];
        if (x1 - x0).abs() < REL_EPS {
            y1
        } else {
            y0 + (y1 - y0) * (u - x0) / (x1 - x0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_is_proportional() {
        let c = IdealCurve::new(100.0);
        assert_eq!(c.power(0.0), 0.0);
        assert_eq!(c.power(0.3), 30.0);
        assert_eq!(c.power(1.0), 100.0);
        assert_eq!(c.idle(), 0.0);
        assert_eq!(c.peak(), 100.0);
    }

    #[test]
    fn linear_interpolates_between_idle_and_peak() {
        let c = LinearCurve::new(45.0, 69.0);
        assert_eq!(c.power(0.0), 45.0);
        assert_eq!(c.power(1.0), 69.0);
        assert!((c.power(0.5) - 57.0).abs() < 1e-12);
    }

    #[test]
    fn curves_clamp_out_of_range_utilization() {
        let c = LinearCurve::new(10.0, 20.0);
        assert_eq!(c.power(-0.5), 10.0);
        assert_eq!(c.power(1.5), 20.0);
    }

    #[test]
    fn quadratic_degenerates_to_linear_at_zero_curvature() {
        let q = QuadraticCurve::new(10.0, 20.0, 0.0);
        let l = LinearCurve::new(10.0, 20.0);
        for i in 0..=10 {
            let u = i as f64 / 10.0;
            assert!((q.power(u) - l.power(u)).abs() < 1e-12);
        }
    }

    #[test]
    fn quadratic_endpoints_match_idle_and_peak_for_any_curvature() {
        for curv in [-1.0, -0.4, 0.0, 0.3, 1.0] {
            let q = QuadraticCurve::new(30.0, 90.0, curv);
            assert!((q.power(0.0) - 30.0).abs() < 1e-12);
            assert!((q.power(1.0) - 90.0).abs() < 1e-12);
        }
    }

    #[test]
    fn positive_curvature_bows_below_chord() {
        let q = QuadraticCurve::new(0.0, 100.0, 0.5);
        let l = LinearCurve::new(0.0, 100.0);
        assert!(q.power(0.5) < l.power(0.5));
    }

    #[test]
    fn sampled_interpolates_and_extrapolates_flat() {
        let c = SampledCurve::new(vec![(0.2, 10.0), (0.8, 40.0)]);
        assert_eq!(c.power(0.0), 10.0); // flat before first sample
        assert_eq!(c.power(1.0), 40.0); // flat after last sample
        assert!((c.power(0.5) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_is_fraction_of_peak() {
        let c = LinearCurve::new(50.0, 100.0);
        assert!((c.normalized(0.0) - 0.5).abs() < 1e-12);
        assert!((c.normalized(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "peak power")]
    fn rejects_peak_below_idle() {
        let _ = LinearCurve::new(10.0, 5.0);
    }

    #[test]
    #[should_panic(expected = "≥ 1 sample")]
    fn rejects_empty_samples() {
        let _ = SampledCurve::new(vec![]);
    }
}
