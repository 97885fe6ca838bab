//! A fixed-bucket histogram: 64 power-of-two buckets spanning
//! `[2^-32, 2^32)` (units are whatever the caller observes — seconds,
//! events, watts). No allocation after construction, deterministic
//! aggregation order.

/// Number of buckets (one per power of two).
const BUCKETS: usize = 64;
/// Exponent of the lower bound of bucket 0.
const MIN_EXP: i32 = -32;

/// Fixed log₂-bucket histogram with exact count/sum/min/max sidecars.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_index(value: f64) -> usize {
        if value <= 0.0 || !value.is_finite() {
            return 0; // zero, negative and non-finite all underflow
        }
        // enprop-lint: allow(float-int-cast) -- log2 of a positive finite f64 lies in [-1075, 1024], well inside i32; the next line clamps into the bucket range
        let exp = value.log2().floor() as i32;
        (exp - MIN_EXP).clamp(0, BUCKETS as i32 - 1) as usize
    }

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate `q`-quantile (`0 ≤ q ≤ 1`): the upper bound of the
    /// bucket holding the `q`-th observation, clamped to the exact
    /// min/max. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        // enprop-lint: allow(float-int-cast) -- q is clamped to [0,1], so the product is in [0, count] and ceil is an exact in-range rank
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = (2.0f64).powi(MIN_EXP + i as i32 + 1);
                return Some(upper.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_count_sum_min_max() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 4.0, 0.5] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 7.5);
        assert_eq!(h.mean(), 1.875);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(4.0));
    }

    #[test]
    fn empty_is_well_behaved() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn buckets_partition_by_power_of_two() {
        let mut h = Histogram::new();
        h.observe(1.0); // bucket for [1, 2)
        h.observe(1.5);
        h.observe(2.0); // bucket for [2, 4)
        let b1 = Histogram::bucket_index(1.0);
        let b2 = Histogram::bucket_index(2.0);
        assert_eq!(b2, b1 + 1);
        assert_eq!(h.counts[b1], 2);
        assert_eq!(h.counts[b2], 1);
        assert_eq!(b1 as i32 + MIN_EXP, 0, "bucket b1 starts at 2^0");
    }

    #[test]
    fn pathological_values_underflow_without_panicking() {
        let mut h = Histogram::new();
        for v in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e300, 1e-300] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn quantile_brackets_the_distribution() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.observe(i as f64 / 100.0);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((0.25..=1.0).contains(&p50), "p50 {p50}");
        assert_eq!(h.quantile(1.0), Some(1.0));
    }
}
