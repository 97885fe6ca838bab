//! Classification of power curves relative to the ideal proportional line
//! (Fig. 2 of the paper): super-linear curves sit above the ideal, the
//! sub-linear region below it is where heterogeneity "scales the energy
//! proportionality wall" (§III-D).

use crate::curve::PowerCurve;
use crate::integrate::GridSpec;

/// Position of a curve relative to the ideal energy-proportionality line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linearity {
    /// Everywhere above the ideal line (PG > 0 wherever defined).
    SuperLinear,
    /// Everywhere below the ideal line (PG < 0 wherever defined).
    SubLinear,
    /// Within tolerance of the ideal line everywhere.
    Ideal,
    /// Above the ideal at some utilizations and below at others.
    Mixed,
}

/// Classify a curve against the ideal line `u · reference_peak`, with a
/// relative PG tolerance: `tol` is the |PG| below which a point counts as
/// "on the ideal line" (the paper's plots effectively use visual
/// tolerance — `1e-3` is a good programmatic default).
///
/// Against an *external* reference peak this is the Figs. 9–10 setting: every Pareto configuration is compared
/// to the ideal proportionality of the maximum configuration, so a mix
/// with fewer brawny nodes can genuinely sit below the ideal (§III-D's
/// "scaling the energy proportionality wall").
pub fn classify_against<C: PowerCurve>(
    curve: &C,
    reference_peak: f64,
    grid: GridSpec,
    tol: f64,
) -> Linearity {
    let mut above = false;
    let mut below = false;
    for u in grid.points() {
        let Some(pg) = gap_against(curve, reference_peak, u) else {
            continue;
        };
        if pg > tol {
            above = true;
        } else if pg < -tol {
            below = true;
        }
    }
    match (above, below) {
        (true, true) => Linearity::Mixed,
        (true, false) => Linearity::SuperLinear,
        (false, true) => Linearity::SubLinear,
        (false, false) => Linearity::Ideal,
    }
}

/// Proportionality gap of `curve` against the external ideal
/// `u · reference_peak`; `None` at `u = 0`.
pub fn gap_against<C: PowerCurve>(curve: &C, reference_peak: f64, u: f64) -> Option<f64> {
    let u = u.clamp(0.0, 1.0);
    let ideal = reference_peak * u;
    if ideal.abs() < crate::REL_EPS {
        None
    } else {
        Some((curve.power(u) - ideal) / ideal)
    }
}

/// Utilization levels at which the curve crosses its own ideal line.
///
/// Returns the (linearly interpolated) utilizations where the
/// proportionality gap changes sign — e.g. the `u = 50%` crossover of the
/// paper's `(25 A9, 7 K10)` EP configuration in Fig. 9.
pub fn crossovers<C: PowerCurve>(curve: &C, grid: GridSpec) -> Vec<f64> {
    crossovers_against(curve, curve.peak(), grid)
}

/// Crossings of `curve` against the external ideal `u · reference_peak`.
pub fn crossovers_against<C: PowerCurve>(
    curve: &C,
    reference_peak: f64,
    grid: GridSpec,
) -> Vec<f64> {
    let mut xs = Vec::new();
    // Last grid point with a *nonzero* gap: grid points landing exactly on
    // the ideal line (or the mandatory touch at u = 1) carry no sign
    // information and must not mask a genuine crossing around them.
    let mut prev: Option<(f64, f64)> = None;
    for u in grid.points() {
        let Some(pg) = gap_against(curve, reference_peak, u) else {
            continue;
        };
        if pg == 0.0 {
            continue;
        }
        if let Some((pu, ppg)) = prev {
            if (ppg > 0.0 && pg < 0.0) || (ppg < 0.0 && pg > 0.0) {
                // Linear interpolation of the zero crossing in PG.
                let t = ppg / (ppg - pg);
                xs.push(pu + t * (u - pu));
            }
        }
        prev = Some((u, pg));
    }
    xs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::{IdealCurve, LinearCurve, SampledCurve};

    const GRID: GridSpec = GridSpec { steps: 200 };
    const TOL: f64 = 1e-3;

    #[test]
    fn linear_curve_with_idle_power_is_super_linear() {
        let c = LinearCurve::new(45.0, 69.0);
        assert_eq!(
            classify_against(&c, c.peak(), GRID, TOL),
            Linearity::SuperLinear
        );
    }

    #[test]
    fn ideal_curve_is_ideal() {
        let c = IdealCurve::new(100.0);
        assert_eq!(classify_against(&c, c.peak(), GRID, TOL), Linearity::Ideal);
    }

    #[test]
    fn curve_below_ideal_is_sub_linear() {
        // Scaled-down cluster: peak below the reference peak at every u.
        let c = SampledCurve::new(vec![(0.0, 0.0), (0.5, 10.0), (1.0, 40.0)]);
        // Against its own peak (40 W) this dips below ideal mid-range.
        assert_eq!(
            classify_against(&c, c.peak(), GRID, TOL),
            Linearity::SubLinear
        );
    }

    #[test]
    fn s_shaped_curve_is_mixed_and_has_crossover() {
        let c = SampledCurve::new(vec![(0.0, 10.0), (0.5, 20.0), (1.0, 100.0)]);
        assert_eq!(classify_against(&c, c.peak(), GRID, TOL), Linearity::Mixed);
        let xs = crossovers(&c, GRID);
        assert_eq!(
            xs.len(),
            1,
            "enters the sub-linear region once; the u=1 endpoint touch is not a crossing"
        );
        assert!(xs[0] > 0.1 && xs[0] < 0.5);
    }

    #[test]
    fn super_linear_curve_has_no_crossover() {
        let c = LinearCurve::new(45.0, 69.0);
        assert!(crossovers(&c, GRID).is_empty());
    }

    #[test]
    fn crossover_location_is_accurate() {
        // P(u) = 100·u² crosses P_ideal(u) = 100·u only at the endpoints,
        // so use a shifted variant: P(u) = 50u + 50u² crosses 100u at u=1 —
        // instead craft a piecewise curve crossing exactly at u = 0.5:
        // below ideal for u < 0.5, above for u > 0.5.
        let c = SampledCurve::new(vec![(0.0, 0.0), (0.5, 25.0), (1.0, 100.0)]);
        // ideal(u) = 100u → at 0.25: ideal 25, curve 12.5 (below); at 0.75:
        // ideal 75, curve 62.5... still below. Adjust: make the late half
        // steeper than ideal.
        let c2 = SampledCurve::new(vec![(0.0, 0.0), (0.5, 25.0), (0.75, 90.0), (1.0, 100.0)]);
        let _ = c; // the first curve documents the construction
        let xs = crossovers(&c2, GRID);
        assert!(!xs.is_empty());
        // Crossing between u=0.5 (below: 25 < 50) and u=0.75 (above: 90 > 75).
        assert!(xs[0] > 0.5 && xs[0] < 0.75, "crossover at {}", xs[0]);
    }
}
