#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! Property-based tests for the metric identities the paper relies on.

use enprop_metrics::{
    classify_against, dynamic_power_range, energy_proportionality_metric, idle_to_peak_ratio,
    linear_deviation_ratio, proportionality_gap, GridSpec, IdealCurve, LinearCurve, Linearity,
    PowerCurve, PprCurve, ProportionalityMetrics, QuadraticCurve, SampledCurve, ThroughputCurve,
};
use proptest::prelude::*;

const GRID: GridSpec = GridSpec { steps: 400 };

fn idle_peak() -> impl Strategy<Value = (f64, f64)> {
    (0.1f64..500.0, 1.0f64..2.0).prop_map(|(idle, ratio)| (idle, idle * ratio))
}

proptest! {
    /// The §III-B collapse: for any linear model curve the four single-value
    /// metrics are functions of IPR alone.
    #[test]
    fn linear_metrics_collapse((idle, peak) in idle_peak()) {
        let c = LinearCurve::new(idle, peak);
        let ipr = idle_to_peak_ratio(&c);
        prop_assert!((dynamic_power_range(&c) - (1.0 - ipr) * 100.0).abs() < 1e-9);
        prop_assert!((energy_proportionality_metric(&c, GRID) - (1.0 - ipr)).abs() < 1e-7);
        prop_assert!(linear_deviation_ratio(&c, GRID).abs() < 1e-9);
    }

    /// IPR is scale-invariant: multiplying the whole curve by a constant
    /// leaves every percentage metric unchanged (why the metrics hide the
    /// A9-vs-K10 absolute-power story).
    #[test]
    fn metrics_are_scale_invariant((idle, peak) in idle_peak(), k in 0.5f64..20.0) {
        let a = ProportionalityMetrics::with_grid(&LinearCurve::new(idle, peak), GRID);
        let b = ProportionalityMetrics::with_grid(&LinearCurve::new(idle * k, peak * k), GRID);
        prop_assert!((a.ipr - b.ipr).abs() < 1e-9);
        prop_assert!((a.dpr - b.dpr).abs() < 1e-7);
        prop_assert!((a.epm - b.epm).abs() < 1e-7);
    }

    /// PG of a linear curve is positive everywhere and decreasing in u.
    #[test]
    fn pg_positive_and_decreasing_for_linear((idle, peak) in idle_peak(), u in 0.05f64..0.95) {
        prop_assume!(peak > idle + 1e-6);
        let c = LinearCurve::new(idle, peak);
        let pg_u = proportionality_gap(&c, u).unwrap();
        let pg_next = proportionality_gap(&c, (u + 0.05).min(1.0)).unwrap();
        prop_assert!(pg_u > 0.0);
        prop_assert!(pg_next <= pg_u + 1e-12);
    }

    /// EPM of any monotone non-decreasing curve (so P(u) ≤ Ppeak holds,
    /// which physical load curves satisfy) lies in [0, 2].
    #[test]
    fn epm_bounded(mut samples in proptest::collection::vec(0.0f64..100.0, 3..20)) {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let pts: Vec<(f64, f64)> = samples
            .iter()
            .enumerate()
            .map(|(i, &p)| (i as f64 / (n - 1) as f64, p))
            .collect();
        let c = SampledCurve::new(pts);
        let epm = energy_proportionality_metric(&c, GRID);
        prop_assert!((-0.01..=2.01).contains(&epm), "epm = {epm}");
    }

    /// Quadratic curvature sign maps onto the literal LDR sign.
    #[test]
    fn quadratic_curvature_sets_ldr_sign(
        (idle, peak) in idle_peak(),
        curv in 0.05f64..1.0,
    ) {
        prop_assume!(peak > idle * 1.05);
        let sub = QuadraticCurve::new(idle, peak, curv);
        let sup = QuadraticCurve::new(idle, peak, -curv);
        prop_assert!(linear_deviation_ratio(&sub, GRID) < 0.0);
        prop_assert!(linear_deviation_ratio(&sup, GRID) > 0.0);
    }

    /// Any linear curve with positive idle power is super-linear; the ideal
    /// curve is ideal.
    #[test]
    fn classification_consistency((idle, peak) in idle_peak()) {
        prop_assume!(peak > idle * 1.01);
        let lin = LinearCurve::new(idle, peak);
        prop_assert_eq!(classify_against(&lin, lin.peak(), GRID, 1e-6), Linearity::SuperLinear);
        let ideal = IdealCurve::new(peak);
        prop_assert_eq!(classify_against(&ideal, ideal.peak(), GRID, 1e-6), Linearity::Ideal);
    }

    /// PPR is non-decreasing in utilization for linear power curves and
    /// peaks at u = 1 (why datacenters want high utilization).
    #[test]
    fn ppr_monotone_for_linear(
        (idle, peak) in idle_peak(),
        thru in 1.0f64..1e9,
        u in 0.0f64..0.99,
    ) {
        let ppr = PprCurve::new(ThroughputCurve::new(thru), LinearCurve::new(idle, peak));
        prop_assert!(ppr.ppr(u) <= ppr.ppr(u + 0.01) + 1e-12);
        prop_assert!(ppr.ppr(u) <= ppr.ppr(1.0) + 1e-12);
    }

    /// Sampling a curve and re-wrapping it preserves power values at the
    /// sample points (SampledCurve round-trip).
    #[test]
    fn sampled_roundtrip((idle, peak) in idle_peak(), steps in 2usize..50) {
        let c = LinearCurve::new(idle, peak);
        let s = SampledCurve::new(GridSpec::new(steps).points().map(|u| (u, c.power(u))).collect());
        for i in 0..=steps {
            let u = i as f64 / steps as f64;
            prop_assert!((s.power(u) - c.power(u)).abs() < 1e-9 * peak.max(1.0));
        }
    }
}
