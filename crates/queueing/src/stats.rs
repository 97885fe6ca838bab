//! Streaming statistics: a running mean with min/max, and exact quantiles
//! of buffered samples.

/// Numerically stable streaming mean (Welford's update) with min/max.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        self.mean += (other.mean - self.mean) * n2 / (n1 + n2);
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact `q`-quantile of a set of observations (linear interpolation between
/// order statistics, the "type 7" estimator used by R and NumPy).
///
/// Selects the two order statistics in a copy of the input (O(n), no full
/// sort), ordered by `f64::total_cmp`. Returns `None` for empty input or
/// `q` outside `[0, 1]`.
pub fn exact_quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut v: Vec<f64> = xs.to_vec();
    let h = q * (v.len() - 1) as f64;
    // enprop-lint: allow(float-int-cast) -- q ∈ [0,1] is checked above, so h ∈ [0, len-1] and floor/ceil are exact in-range indices
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    let (_, &mut x_lo, above) = v.select_nth_unstable_by(lo, f64::total_cmp);
    // Order statistic `lo + 1` is the least of those selected above `lo`.
    let x_hi = if hi == lo {
        x_lo
    } else {
        above
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .expect("hi = lo + 1 < len, so an element lies above lo")
    };
    Some(x_lo + (x_hi - x_lo) * (h - lo as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert_eq!(a.count(), 100);
    }

    #[test]
    fn exact_quantile_order_statistics() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(exact_quantile(&xs, 0.0), Some(1.0));
        assert_eq!(exact_quantile(&xs, 1.0), Some(5.0));
        assert_eq!(exact_quantile(&xs, 0.5), Some(3.0));
        assert_eq!(exact_quantile(&xs, 0.25), Some(2.0));
        assert!(exact_quantile(&[], 0.5).is_none());
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.count(), 0);
    }
}
