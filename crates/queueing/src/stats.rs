//! Streaming statistics: Welford mean/variance, the P² streaming quantile
//! estimator (Jain & Chlamtac, 1985), and exact quantiles of buffered
//! samples.

/// Numerically stable streaming mean/variance (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
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

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Half-width of the 95% confidence interval of the mean
    /// (normal approximation; adequate for the ≥10⁴-sample runs used here).
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            return f64::INFINITY;
        }
        1.96 * self.std_dev() / (self.n as f64).sqrt()
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
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
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

/// P² streaming quantile estimator: O(1) memory, no buffering.
///
/// Tracks five markers whose heights approximate the target quantile; the
/// classic choice for long-running simulations where storing every response
/// time is wasteful. Accuracy is typically within a fraction of a percent
/// for ≥10⁴ smooth-distributed samples.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    heights: [f64; 5],
    positions: [f64; 5],
    desired: [f64; 5],
    increments: [f64; 5],
    count: usize,
    initial: Vec<f64>,
}

impl P2Quantile {
    /// Estimator for the `q`-quantile, `0 < q < 1`.
    pub fn new(q: f64) -> Self {
        assert!((0.0..1.0).contains(&q) && q > 0.0, "q must be in (0, 1)");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
            initial: Vec::with_capacity(5),
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if self.initial.len() < 5 {
            self.initial.push(x);
            if self.initial.len() == 5 {
                self.initial.sort_by(f64::total_cmp);
                self.heights.copy_from_slice(&self.initial);
            }
            return;
        }

        // Locate the cell containing x and update the extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if self.heights[i] <= x && x < self.heights[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }

        // Adjust the three interior markers with the parabolic formula.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let new = self.parabolic(i, d);
                self.heights[i] = if self.heights[i - 1] < new && new < self.heights[i + 1] {
                    new
                } else {
                    self.linear(i, d)
                };
                self.positions[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (qm, q0, qp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (nm, n0, np) = (self.positions[i - 1], self.positions[i], self.positions[i + 1]);
        q0 + d / (np - nm)
            * ((n0 - nm + d) * (qp - q0) / (np - n0) + (np - n0 - d) * (q0 - qm) / (n0 - nm))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        // `d` is ±1 (a signum); step the marker index in integer space
        // instead of round-tripping through f64.
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current quantile estimate.
    ///
    /// Falls back to the exact quantile of the buffered observations while
    /// fewer than five have been seen; `None` when empty.
    pub fn estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.initial.len() < 5 {
            return exact_quantile(&self.initial, self.q);
        }
        Some(self.heights[2])
    }

    /// Number of observations seen.
    pub fn count(&self) -> usize {
        self.count
    }
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
        // two-pass sample variance
        let var: f64 = xs.iter().map(|x| (x - 5.0) * (x - 5.0)).sum::<f64>() / 7.0;
        assert!((s.variance() - var).abs() < 1e-12);
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
        assert!((a.variance() - all.variance()).abs() < 1e-10);
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
    fn p2_tracks_uniform_median() {
        // Deterministic low-discrepancy stream over (0,1).
        let mut est = P2Quantile::new(0.5);
        let mut x = 0.5f64;
        for _ in 0..100_000 {
            x = (x + 0.618_033_988_749_895) % 1.0;
            est.push(x);
        }
        let m = est.estimate().unwrap();
        assert!((m - 0.5).abs() < 0.01, "median estimate {m}");
    }

    #[test]
    fn p2_tracks_p95_of_exponential() {
        // Inverse-CDF sampling of Exp(1) from a low-discrepancy stream;
        // p95 of Exp(1) = ln 20 ≈ 2.9957.
        let mut est = P2Quantile::new(0.95);
        let mut u = 0.5f64;
        for _ in 0..200_000 {
            u = (u + 0.618_033_988_749_895) % 1.0;
            let x = -(1.0 - u).ln();
            est.push(x);
        }
        let p = est.estimate().unwrap();
        assert!((p - 2.9957).abs() < 0.1, "p95 estimate {p}");
    }

    #[test]
    fn p2_small_sample_fallback() {
        let mut est = P2Quantile::new(0.95);
        est.push(1.0);
        est.push(3.0);
        assert!(est.estimate().is_some());
        assert!(P2Quantile::new(0.5).estimate().is_none());
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.count(), 0);
        assert!(s.ci95_half_width().is_infinite());
    }
}
