//! A mergeable, bounded-memory quantile sketch with a documented
//! relative-error bound — the streaming replacement for buffering every
//! response time and calling `exact_quantile`.
//!
//! # Design
//!
//! Log-bucketed in the DDSketch family: positive values map to the key
//! `⌈ln v / ln γ⌉` where `γ = (1 + α) / (1 − α)` and `α` is the configured
//! relative accuracy. Every value in bucket `k` lies in `(γ^(k−1), γ^k]`,
//! so reporting the bucket midpoint `2 γ^k / (γ + 1)` is within relative
//! error `α` of any member. Buckets live in a `BTreeMap<i32, u64>`; when
//! the map would exceed [`QuantileSketch::max_buckets`], the two *lowest*
//! keys collapse into one, preserving the bound for upper quantiles (the
//! tail — p95/p99/p999 — is what the serving plane cares about).
//!
//! # Error bound (the documented contract, property-tested)
//!
//! Let `x_lo ≤ x_hi` be the order statistics bracketing the type-7
//! `q`-quantile of the observed stream (the estimator
//! `enprop_queueing::exact_quantile` interpolates between). Then, provided
//! no collapse touched the buckets those ranks occupy:
//!
//! ```text
//! (1 − α) · x_lo  ≤  quantile(q)  ≤  (1 + α) · x_hi
//! ```
//!
//! Zero, negative and non-finite observations land in a dedicated
//! low-side count (reported as the exact minimum side), mirroring the
//! [`crate::Histogram`] underflow convention.
//!
//! # Determinism
//!
//! Insertion order never changes bucket contents; [`QuantileSketch::merge`]
//! adds counts key-wise and re-applies the canonical lowest-first collapse,
//! so merging is deterministic, commutative, and — while every operand
//! stays under the bucket budget — associative (the property tests pin
//! this).

/// Default relative accuracy: 1 %.
pub const DEFAULT_SKETCH_ALPHA: f64 = 0.01;
/// Default bucket budget. At α = 1 % one decade of dynamic range costs
/// ~116 buckets, so 4096 buckets cover ~35 decades — collapse is a safety
/// valve, not a steady-state behaviour.
pub const DEFAULT_MAX_BUCKETS: usize = 4096;

/// The complete observable state of a [`QuantileSketch`] — the checkpoint
/// form the serve snapshot format serializes. Excludes the transient
/// search `hint` (behavior-neutral) and the derived `ln_gamma`.
/// Round-trip contract: `QuantileSketch::from_state(s.state()) == s`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SketchState {
    /// Relative accuracy α.
    pub alpha: f64,
    /// Bucket budget.
    pub max_buckets: usize,
    /// `(key, count)` pairs, ascending by key.
    pub buckets: Vec<(i32, u64)>,
    /// Low-side (≤ 0 / non-finite) observation count.
    pub low: u64,
    /// Total observations.
    pub count: u64,
    /// Sum of finite observations.
    pub sum: f64,
    /// Raw running minimum (`+∞` when no finite observation yet).
    pub min: f64,
    /// Raw running maximum (`−∞` when no finite observation yet).
    pub max: f64,
}

/// A mergeable log-bucketed quantile sketch (see the module docs for the
/// error bound). Memory is O(`max_buckets`), independent of the number of
/// observations.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    /// Relative accuracy α.
    alpha: f64,
    /// ln γ, cached (γ = (1+α)/(1−α)).
    ln_gamma: f64,
    /// Bucket budget before the low-end collapse engages.
    max_buckets: usize,
    /// `(key, count)` pairs sorted ascending by key; keys are
    /// `⌈ln v / ln γ⌉` for positive finite `v`. A sorted `Vec` beats a
    /// `BTreeMap` here: the serving plane inserts once per completion, and
    /// a binary search over ~10² contiguous entries is several times
    /// cheaper than chasing tree nodes (the `obs_window` gate measures
    /// this).
    buckets: Vec<(i32, u64)>,
    /// Observations ≤ 0 or non-finite (reported at the recorded minimum).
    low: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Index of the last-touched bucket — a one-entry cache for the
    /// serving plane, whose response times cluster into few buckets. A
    /// stale hint is always safe (the key is compared before use) and
    /// never observable, so it is excluded from equality.
    hint: usize,
}

impl PartialEq for QuantileSketch {
    /// Equality over the observable state; the transient search `hint`
    /// is excluded (`ln_gamma` is derived from `alpha`).
    fn eq(&self, other: &Self) -> bool {
        self.alpha == other.alpha
            && self.max_buckets == other.max_buckets
            && self.buckets == other.buckets
            && self.low == other.low
            && self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(DEFAULT_SKETCH_ALPHA)
    }
}

impl QuantileSketch {
    /// An empty sketch with relative accuracy `alpha` (clamped to a sane
    /// `[1e-4, 0.5)` range) and the default bucket budget.
    pub fn new(alpha: f64) -> Self {
        Self::with_max_buckets(alpha, DEFAULT_MAX_BUCKETS)
    }

    /// An empty sketch with an explicit bucket budget (≥ 8).
    pub fn with_max_buckets(alpha: f64, max_buckets: usize) -> Self {
        let alpha = if alpha.is_finite() {
            alpha.clamp(1e-4, 0.499)
        } else {
            DEFAULT_SKETCH_ALPHA
        };
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        QuantileSketch {
            alpha,
            ln_gamma: gamma.ln(),
            max_buckets: max_buckets.max(8),
            buckets: Vec::new(),
            low: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            hint: 0,
        }
    }

    /// The configured relative accuracy α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The bucket budget.
    pub fn max_buckets(&self) -> usize {
        self.max_buckets
    }

    /// Key for a positive finite value.
    fn key(&self, v: f64) -> i32 {
        (v.ln() / self.ln_gamma)
            .ceil()
            .clamp(i32::MIN as f64, i32::MAX as f64) as i32
    }

    /// Midpoint value represented by bucket `key` (within α of any member).
    fn value_of(&self, key: i32) -> f64 {
        let gamma = (1.0 + self.alpha) / (1.0 - self.alpha);
        2.0 * (f64::from(key) * self.ln_gamma).exp() / (gamma + 1.0)
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        let key = self.key_for(v);
        self.observe_keyed(v, key);
    }

    /// Bucket key for `v`, or `None` for the low-side path (zero,
    /// negative, non-finite). Keys are only meaningful between sketches
    /// of equal `alpha`.
    pub fn key_for(&self, v: f64) -> Option<i32> {
        (v > 0.0 && v.is_finite()).then(|| self.key(v))
    }

    /// [`observe`](Self::observe) with a [`key_for`](Self::key_for)
    /// precomputed by an *equal-geometry* sketch — the hot-path variant
    /// for fanning one value into several sketches (the serving plane
    /// computes one logarithm per completion, not three). A key from a
    /// different-`alpha` sketch corrupts the error bound.
    pub fn observe_keyed(&mut self, v: f64, key: Option<i32>) {
        self.count += 1;
        if v.is_finite() {
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        match key {
            Some(k) => match self.buckets.get_mut(self.hint) {
                // Hint hit: the bucket count grows in place, the vector
                // length doesn't, so no collapse check is needed.
                Some(b) if b.0 == k => b.1 += 1,
                _ => {
                    self.hint = bump(&mut self.buckets, k, 1);
                    self.collapse();
                }
            },
            None => self.low += 1,
        }
    }

    /// Canonical collapse: while over budget, fold the lowest key into the
    /// next-lowest. Upper-quantile accuracy is unaffected.
    fn collapse(&mut self) {
        while self.buckets.len() > self.max_buckets {
            let (_, n) = self.buckets.remove(0);
            let Some(next) = self.buckets.first_mut() else {
                return;
            };
            next.1 += n;
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of finite observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of finite observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0 && self.min.is_finite()).then_some(self.min)
    }

    /// Exact maximum observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0 && self.max.is_finite()).then_some(self.max)
    }

    /// The `q`-quantile estimate (`0 ≤ q ≤ 1`), `None` when empty. Walks
    /// buckets to the type-7 rank `⌊q·(n−1)⌋` and reports that bucket's
    /// midpoint, clamped to the exact observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // 0-indexed target rank of the lower bracketing order statistic.
        // enprop-lint: allow(float-int-cast) -- q ∈ [0,1] so the rank is in [0, n-1]; the product of finite non-negatives floors exactly
        let rank = (q * (self.count - 1) as f64).floor() as u64;
        if rank + 1 == self.count {
            // The max order statistic is tracked exactly.
            return Some(if self.max.is_finite() { self.max } else { 0.0 });
        }
        let mut seen = self.low; // low-side observations are the smallest
        if rank < seen {
            return Some(if self.min.is_finite() { self.min } else { 0.0 });
        }
        for &(k, n) in &self.buckets {
            seen += n;
            if rank < seen {
                let v = self.value_of(k);
                return Some(clamp_finite(v, self.min, self.max));
            }
        }
        self.max()
    }

    /// Merge `other` into `self` (deterministic and commutative on the
    /// aggregate view; associative while no collapse triggers — see the
    /// module docs). When the geometries differ, the merged sketch keeps
    /// the *coarser* (larger) α so the documented bound stays honest for
    /// both operands' data: the finer operand's buckets are re-keyed by
    /// their midpoint values, adding at most the coarser α of error.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 && other.low == 0 {
            return;
        }
        if other.alpha > self.alpha + 1e-12 {
            // Coarsen self to other's geometry first.
            let mut coarse = QuantileSketch::with_max_buckets(other.alpha, self.max_buckets);
            for &(k, n) in &self.buckets {
                let v = self.value_of(k);
                let ck = coarse.key(v);
                bump(&mut coarse.buckets, ck, n);
            }
            coarse.low = self.low;
            coarse.count = self.count;
            coarse.sum = self.sum;
            coarse.min = self.min;
            coarse.max = self.max;
            *self = coarse;
        }
        if (other.alpha - self.alpha).abs() <= 1e-12 {
            for &(k, n) in &other.buckets {
                bump(&mut self.buckets, k, n);
            }
        } else {
            for &(k, n) in &other.buckets {
                let v = other.value_of(k);
                let sk = self.key(v);
                bump(&mut self.buckets, sk, n);
            }
        }
        self.low += other.low;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.collapse();
    }

    /// Capture the observable state for checkpointing.
    pub fn state(&self) -> SketchState {
        SketchState {
            alpha: self.alpha,
            max_buckets: self.max_buckets,
            buckets: self.buckets.clone(),
            low: self.low,
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
        }
    }

    /// Rebuild a sketch from a [`SketchState`]. Geometry is re-derived the
    /// same way the constructor derives it, so a state captured from a
    /// live sketch restores to an *equal* sketch (the search hint resets,
    /// which is unobservable). Buckets are re-sorted defensively so a
    /// hand-edited snapshot cannot corrupt the binary-search invariant.
    pub fn from_state(s: SketchState) -> Self {
        let mut out = QuantileSketch::with_max_buckets(s.alpha, s.max_buckets);
        let mut buckets = s.buckets;
        buckets.sort_by_key(|&(k, _)| k);
        out.buckets = buckets;
        out.low = s.low;
        out.count = s.count;
        out.sum = s.sum;
        out.min = s.min;
        out.max = s.max;
        out.collapse();
        out
    }
}

/// Add `n` to `key`'s count in a key-sorted bucket vector; returns the
/// bucket's index.
fn bump(buckets: &mut Vec<(i32, u64)>, key: i32, n: u64) -> usize {
    match buckets.binary_search_by_key(&key, |&(k, _)| k) {
        Ok(i) => {
            buckets[i].1 += n;
            i
        }
        Err(i) => {
            buckets.insert(i, (key, n));
            i
        }
    }
}

/// Clamp `v` into `[lo, hi]` when those bounds are finite.
fn clamp_finite(v: f64, lo: f64, hi: f64) -> f64 {
    let v = if lo.is_finite() { v.max(lo) } else { v };
    if hi.is_finite() {
        v.min(hi)
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_q(xs: &mut [f64], q: f64) -> f64 {
        xs.sort_by(f64::total_cmp);
        let h = q * (xs.len() - 1) as f64;
        // enprop-lint: allow(float-int-cast) -- q ∈ [0,1] so h ∈ [0, len-1]; floor/ceil are exact in-range indices
        let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
        xs[lo] + (xs[hi] - xs[lo]) * (h - lo as f64)
    }

    #[test]
    fn empty_is_well_behaved() {
        let s = QuantileSketch::default();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn tracks_exact_sidecars() {
        let mut s = QuantileSketch::default();
        for v in [1.0, 2.0, 4.0, 0.5] {
            s.observe(v);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum(), 7.5);
        assert_eq!(s.min(), Some(0.5));
        assert_eq!(s.max(), Some(4.0));
    }

    #[test]
    fn quantiles_meet_the_relative_error_bound() {
        let alpha = 0.01;
        let mut s = QuantileSketch::new(alpha);
        let mut xs: Vec<f64> = (1..=10_000).map(|i| i as f64 / 100.0).collect();
        for &v in &xs {
            s.observe(v);
        }
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let exact = exact_q(&mut xs, q);
            let est = s.quantile(q).unwrap();
            let rel = (est - exact).abs() / exact;
            // Interpolation adds at most one bucket of slack on top of α.
            assert!(
                rel <= 2.5 * alpha,
                "q={q}: est {est} vs exact {exact} (rel {rel})"
            );
        }
    }

    #[test]
    fn pathological_values_are_counted_not_crashed() {
        let mut s = QuantileSketch::default();
        for v in [0.0, -3.0, f64::NAN, f64::INFINITY, 1e-300, 1e300] {
            s.observe(v);
        }
        assert_eq!(s.count(), 6);
        assert!(s.quantile(0.0).is_some());
        assert!(s.quantile(1.0).is_some());
    }

    #[test]
    fn merge_matches_single_stream() {
        let mut a = QuantileSketch::default();
        let mut b = QuantileSketch::default();
        let mut all = QuantileSketch::default();
        for i in 1..=500 {
            // Multiples of 0.25 keep every partial sum exact, so the merged
            // sidecars match the single stream bit-for-bit.
            let v = i as f64 * 0.25;
            if i % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
            all.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a, all, "same data, same buckets regardless of split");
    }

    #[test]
    fn merge_with_coarser_geometry_keeps_the_coarser_alpha() {
        let mut fine = QuantileSketch::new(0.005);
        let mut coarse = QuantileSketch::new(0.02);
        for i in 1..=100 {
            fine.observe(i as f64);
            coarse.observe(i as f64 * 2.0);
        }
        fine.merge(&coarse);
        assert_eq!(fine.alpha(), 0.02);
        assert_eq!(fine.count(), 200);
        let p50 = fine.quantile(0.5).unwrap();
        assert!((50.0..=160.0).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn collapse_bounds_memory_and_preserves_the_tail() {
        let mut s = QuantileSketch::with_max_buckets(0.01, 16);
        // 60 decades of dynamic range force constant collapsing.
        for i in 0..6000u32 {
            s.observe(10f64.powf(f64::from(i % 60) - 30.0));
        }
        assert!(s.buckets.len() <= 16, "{} buckets", s.buckets.len());
        assert_eq!(s.count(), 6000);
        // The top decade survives collapse: p100 is exact, p99+ is close.
        assert_eq!(s.quantile(1.0), Some(10f64.powf(29.0)));
    }

    #[test]
    fn single_value_stream_is_recovered_exactly_at_the_edges() {
        let mut s = QuantileSketch::default();
        for _ in 0..100 {
            s.observe(0.25);
        }
        assert_eq!(s.quantile(0.0), Some(0.25));
        assert_eq!(s.quantile(1.0), Some(0.25));
        let mid = s.quantile(0.5).unwrap();
        assert!((mid - 0.25).abs() / 0.25 <= 0.01, "mid {mid}");
    }
}
