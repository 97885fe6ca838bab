//! Numeric integration utilities over the utilization axis `[0, 1]`.
//!
//! The EPM metric is defined through integrals of power curves over
//! utilization; all curves in this crate are cheap to evaluate, so composite
//! trapezoidal integration on a uniform grid is both simple and accurate
//! (exact for the piecewise-linear curves the paper's model produces).

/// A uniform evaluation grid over `[0, 1]`.
///
/// `steps` is the number of *intervals*; the grid has `steps + 1` points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSpec {
    /// Number of trapezoid intervals across `[0, 1]`.
    pub steps: usize,
}

impl Default for GridSpec {
    fn default() -> Self {
        // 1000 intervals keeps the EPM error of smooth curves below 1e-7.
        GridSpec { steps: 1000 }
    }
}

impl GridSpec {
    /// Create a grid with `steps` intervals (minimum 1).
    pub fn new(steps: usize) -> Self {
        GridSpec {
            steps: steps.max(1),
        }
    }

    /// Iterate the grid points `0, 1/steps, …, 1`.
    pub fn points(&self) -> impl Iterator<Item = f64> + '_ {
        let n = self.steps;
        (0..=n).map(move |i| i as f64 / n as f64)
    }
}

/// Composite trapezoidal integral of `f` over `[0, 1]`.
pub fn integrate<F: Fn(f64) -> f64>(f: F, grid: GridSpec) -> f64 {
    let n = grid.steps;
    let h = 1.0 / n as f64;
    let mut acc = 0.5 * (f(0.0) + f(1.0));
    for i in 1..n {
        acc += f(i as f64 * h);
    }
    acc * h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_constant() {
        let v = integrate(|_| 3.5, GridSpec::default());
        assert!((v - 3.5).abs() < 1e-12);
    }

    #[test]
    fn integrates_linear_exactly() {
        // Trapezoid rule is exact for linear functions even on coarse grids.
        let v = integrate(|u| 2.0 * u + 1.0, GridSpec::new(2));
        assert!((v - 2.0).abs() < 1e-12);
    }

    #[test]
    fn integrates_quadratic_accurately() {
        let v = integrate(|u| u * u, GridSpec::default());
        assert!((v - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn grid_points_cover_unit_interval() {
        let g = GridSpec::new(4);
        let pts: Vec<f64> = g.points().collect();
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0], 0.0);
        assert_eq!(pts[4], 1.0);
    }

    #[test]
    fn grid_never_degenerates_to_zero_steps() {
        assert_eq!(GridSpec::new(0).steps, 1);
    }
}
