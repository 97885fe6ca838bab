//! Performance-to-Power Ratio (PPR) across utilization levels.
//!
//! `PPR(u) = Throughput(u) / Power(u)` — the metric the paper argues gives
//! better insight than the pure proportionality metrics because it factors
//! in the *work* a system delivers, not only how its power tracks load
//! (§II-B and §III-A). Also the basis of SPECpower.

use crate::curve::PowerCurve;

/// Throughput as a function of utilization, in workload-specific operations
/// per second.
///
/// Under the paper's M/D/1 utilization model the delivered throughput scales
/// linearly with utilization: at utilization `u` the system completes
/// `u · peak_ops_per_sec` useful operations per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputCurve {
    /// Throughput at full utilization, operations per second.
    pub peak_ops_per_sec: f64,
}

impl ThroughputCurve {
    /// Linear throughput curve with the given peak rate (ops/s).
    pub fn new(peak_ops_per_sec: f64) -> Self {
        assert!(
            peak_ops_per_sec >= 0.0 && peak_ops_per_sec.is_finite(),
            "peak throughput must be finite and non-negative"
        );
        ThroughputCurve { peak_ops_per_sec }
    }

    /// Delivered throughput at utilization `u` (clamped), ops/s.
    pub fn throughput(&self, u: f64) -> f64 {
        self.peak_ops_per_sec * u.clamp(0.0, 1.0)
    }
}

/// A throughput curve paired with a power curve: evaluates `PPR(u)`.
#[derive(Debug, Clone)]
pub struct PprCurve<C> {
    /// Throughput model.
    pub throughput: ThroughputCurve,
    /// Power model.
    pub power: C,
}

impl<C: PowerCurve> PprCurve<C> {
    /// Pair a throughput model with a power curve.
    pub fn new(throughput: ThroughputCurve, power: C) -> Self {
        PprCurve { throughput, power }
    }

    /// `PPR(u) = throughput(u) / power(u)` in (ops/s)/W.
    ///
    /// Returns 0 when the power is zero (an idle ideal system does no work).
    pub fn ppr(&self, u: f64) -> f64 {
        let p = self.power.power(u);
        if p.abs() < crate::REL_EPS {
            0.0
        } else {
            self.throughput.throughput(u) / p
        }
    }

    /// Sample `PPR(u)` on `n` evenly spaced utilization levels from
    /// `lo` to `1.0` inclusive (the paper plots 10%..100%).
    pub fn sample(&self, lo: f64, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2, "need at least two samples");
        let lo = lo.clamp(0.0, 1.0);
        (0..n)
            .map(|i| {
                let u = lo + (1.0 - lo) * i as f64 / (n - 1) as f64;
                (u, self.ppr(u))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::{IdealCurve, LinearCurve};

    #[test]
    fn ppr_at_peak_is_peak_throughput_over_peak_power() {
        let ppr = PprCurve::new(ThroughputCurve::new(1000.0), LinearCurve::new(40.0, 100.0));
        assert!((ppr.ppr(1.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn ppr_increases_with_utilization_when_idle_power_positive() {
        // With fixed idle power the energy cost per op falls as load rises.
        let ppr = PprCurve::new(ThroughputCurve::new(1000.0), LinearCurve::new(40.0, 100.0));
        let lo = ppr.ppr(0.2);
        let mid = ppr.ppr(0.5);
        let hi = ppr.ppr(1.0);
        assert!(lo < mid && mid < hi);
    }

    #[test]
    fn ppr_constant_for_ideal_systems() {
        // An ideal proportional system has utilization-independent PPR.
        let ppr = PprCurve::new(ThroughputCurve::new(500.0), IdealCurve::new(100.0));
        assert!((ppr.ppr(0.25) - 5.0).abs() < 1e-12);
        assert!((ppr.ppr(0.75) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn ppr_zero_at_zero_power() {
        let ppr = PprCurve::new(ThroughputCurve::new(500.0), IdealCurve::new(100.0));
        assert_eq!(ppr.ppr(0.0), 0.0);
    }

    #[test]
    fn sample_covers_requested_range() {
        let ppr = PprCurve::new(ThroughputCurve::new(100.0), LinearCurve::new(10.0, 20.0));
        let s = ppr.sample(0.1, 10);
        assert_eq!(s.len(), 10);
        assert!((s[0].0 - 0.1).abs() < 1e-12);
        assert!((s[9].0 - 1.0).abs() < 1e-12);
        // monotone utilization
        assert!(s.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn paper_a9_ep_ppr_reproduced() {
        // A9 on EP: peak 2.4315 W, PPR 6,048,057 (rand/s)/W at u = 1.
        let thru = ThroughputCurve::new(6_048_057.0 * 2.4315);
        let ppr = PprCurve::new(thru, LinearCurve::new(1.8, 2.4315));
        assert!((ppr.ppr(1.0) - 6_048_057.0).abs() / 6_048_057.0 < 1e-6);
    }
}
