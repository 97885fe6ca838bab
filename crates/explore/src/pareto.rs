//! Energy-deadline Pareto frontier (prior work [31]'s "sweet region"
//! machinery): among all configurations, those not dominated in
//! (execution time, energy).

use crate::space::EvaluatedConfig;

/// The energy-deadline Pareto frontier of an evaluated configuration
/// space: minimal (job time, job energy), found in one in-order pass
/// over a [`Frontier`]. Returned sorted by time ascending; configurations
/// equal in both keys are all kept, in index order.
pub fn pareto_front(evald: &[EvaluatedConfig]) -> Vec<&EvaluatedConfig> {
    let mut front = Frontier::new();
    for e in evald {
        let _ = front.insert(e.job_time, e.job_energy, e);
    }
    front.into_points().into_iter().map(|p| p.payload).collect()
}

/// One kept point of a [`Frontier`]: its two minimized keys plus a
/// caller-owned payload (the streaming evaluator stores the config's
/// enumeration index and evaluation).
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint<P> {
    /// First minimized key (job time for the streaming evaluator).
    pub t: f64,
    /// Second minimized key (job energy).
    pub e: f64,
    /// Caller data carried with the point.
    pub payload: P,
}

/// An incremental Pareto staircase over two minimized keys: the one
/// frontier algorithm, behind both [`pareto_front`] and the streaming
/// evaluator's dominance pruning.
///
/// **Invariant**: points are sorted by `t` ascending; across *distinct*
/// `t` values `e` is strictly decreasing; points exactly equal in both
/// keys are all kept, adjacent, in insertion order (equal points do not
/// dominate each other). So a staircase fed every item of a slice in
/// order holds the sequence a stable sort-then-sweep returns, duplicates
/// in index order — pinned against that sort-sweep oracle by the
/// streaming proptests.
///
/// Every query is a binary search: because `e` decreases as `t`
/// increases, the last point with `t' ≤ t` carries the *minimum* energy
/// over all kept points with `t' ≤ t`, so one probe answers both
/// [`Frontier::dominated`] and [`Frontier::min_energy_at`].
#[derive(Debug, Clone, Default)]
pub struct Frontier<P> {
    points: Vec<FrontierPoint<P>>,
}

impl<P> Frontier<P> {
    /// An empty frontier.
    pub fn new() -> Self {
        Frontier { points: Vec::new() }
    }

    /// Number of kept points (duplicates count separately).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the frontier holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The kept points, sorted by `t` ascending.
    pub fn points(&self) -> &[FrontierPoint<P>] {
        &self.points
    }

    /// Consume the frontier into its points (sorted by `t` ascending;
    /// duplicates in insertion order).
    pub fn into_points(self) -> Vec<FrontierPoint<P>> {
        self.points
    }

    /// Index of the first point with `t' > t` — the probe both queries
    /// share. The point just before it (if any) has the largest `t' ≤ t`
    /// and therefore the smallest `e` among all points with `t' ≤ t`.
    fn upper_bound(&self, t: f64) -> usize {
        self.points.partition_point(|p| p.t <= t)
    }

    /// The minimum energy of any kept point with `t' ≤ t`, or `None` when
    /// no such point exists. This is the pruning probe: a candidate whose
    /// energy *lower bound* is at or above this value is provably
    /// dominated before it is ever fully evaluated.
    pub fn min_energy_at(&self, t: f64) -> Option<f64> {
        let ub = self.upper_bound(t);
        (ub > 0).then(|| self.points[ub - 1].e)
    }

    /// Whether `(t, e)` is dominated by a kept point (strictly better in
    /// one key, no worse in the other). Points exactly equal to a kept
    /// point are *not* dominated — the frontier keeps them.
    pub fn dominated(&self, t: f64, e: f64) -> bool {
        let ub = self.upper_bound(t);
        if ub == 0 {
            return false;
        }
        let p = &self.points[ub - 1];
        p.e < e || (p.e == e && p.t < t)
    }

    /// Offer a point. Returns `true` when it was kept (not dominated); a
    /// kept point evicts the contiguous run of now-dominated points.
    pub fn insert(&mut self, t: f64, e: f64, payload: P) -> bool {
        if self.dominated(t, e) {
            return false;
        }
        // Points dominated by (t, e) form a contiguous run: they start at
        // the first point with t' ≥ t and extend while e' ≥ e, except a
        // run of exact duplicates of (t, e), which survives.
        let lo = self.points.partition_point(|p| p.t < t);
        let mut ins = lo;
        while ins < self.points.len() && self.points[ins].t == t && self.points[ins].e == e {
            ins += 1;
        }
        let mut hi = ins;
        while hi < self.points.len() && self.points[hi].e >= e {
            hi += 1;
        }
        self.points
            .splice(ins..hi, std::iter::once(FrontierPoint { t, e, payload }));
        true
    }

    /// Merge another frontier into this one. Merging staircases is
    /// order-independent up to duplicate ordering: the surviving *set* of
    /// points is the frontier of the union, whichever operand order or
    /// grouping produced it (pinned by the merge proptests) — which is
    /// what lets sharded per-worker frontiers combine deterministically.
    pub fn merge(&mut self, other: Frontier<P>) {
        for p in other.points {
            let _ = self.insert(p.t, p.e, p.payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The indices a staircase fed `pts` in order keeps, in its order.
    fn kept(pts: &[(f64, f64)]) -> Vec<usize> {
        let mut f = Frontier::new();
        for (i, &(t, e)) in pts.iter().enumerate() {
            let _ = f.insert(t, e, i);
        }
        f.into_points().into_iter().map(|p| p.payload).collect()
    }

    #[test]
    fn dominated_points_are_dropped() {
        let pts = [(1.0, 5.0), (2.0, 3.0), (3.0, 4.0), (4.0, 1.0)];
        // (3.0, 4.0) is dominated by (2.0, 3.0).
        assert_eq!(kept(&pts), vec![0, 1, 3]);
    }

    #[test]
    fn frontier_of_a_chain_is_everything() {
        let pts = [(1.0, 4.0), (2.0, 3.0), (3.0, 2.0), (4.0, 1.0)];
        assert_eq!(kept(&pts).len(), 4);
    }

    #[test]
    fn single_point_is_its_own_frontier() {
        assert_eq!(kept(&[(1.0, 1.0)]), vec![0]);
    }

    #[test]
    fn duplicates_are_both_kept() {
        let pts = [(2.0, 1.0), (1.0, 2.0), (1.0, 2.0)];
        // Sorted by time; the duplicates in index order.
        assert_eq!(kept(&pts), vec![1, 2, 0]);
    }

    fn xorshift_points(n: usize, mut s: u64, grid: u64) -> Vec<(f64, f64)> {
        let mut pts = Vec::with_capacity(n);
        for _ in 0..n {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            let a = (s % grid) as f64;
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            let b = (s % grid) as f64;
            pts.push((a, b));
        }
        pts
    }

    #[test]
    fn frontier_queries_answer_dominance() {
        let mut f = Frontier::new();
        assert!(!f.dominated(1.0, 1.0));
        assert!(f.min_energy_at(1.0).is_none());
        assert!(f.insert(2.0, 3.0, "a"));
        assert!(f.insert(4.0, 1.0, "b"));
        // Strictly inside the staircase.
        assert!(f.dominated(5.0, 2.0));
        assert!(f.dominated(2.0, 4.0));
        // Equal points are not dominated (the frontier keeps them)...
        assert!(!f.dominated(2.0, 3.0));
        // ...but strictly-one-key-worse points are.
        assert!(f.dominated(2.5, 3.0));
        assert!(f.dominated(4.0, 1.5));
        // Left of every point: nothing can dominate.
        assert!(!f.dominated(1.0, 100.0));
        assert_eq!(f.min_energy_at(3.9), Some(3.0));
        assert_eq!(f.min_energy_at(4.0), Some(1.0));
    }

    #[test]
    fn frontier_insert_evicts_the_dominated_run() {
        let mut f = Frontier::new();
        for (t, e) in [(1.0, 9.0), (2.0, 7.0), (3.0, 5.0), (4.0, 3.0)] {
            assert!(f.insert(t, e, ()));
        }
        // (1.5, 2.0) dominates the last three points.
        assert!(f.insert(1.5, 2.0, ()));
        let kept: Vec<(f64, f64)> = f.points().iter().map(|p| (p.t, p.e)).collect();
        assert_eq!(kept, vec![(1.0, 9.0), (1.5, 2.0)]);
        // A duplicate of a kept point joins it instead of evicting it.
        assert!(f.insert(1.5, 2.0, ()));
        assert_eq!(f.len(), 3);
        // Same t, lower e evicts the whole duplicate run.
        assert!(f.insert(1.5, 1.0, ()));
        let kept: Vec<(f64, f64)> = f.points().iter().map(|p| (p.t, p.e)).collect();
        assert_eq!(kept, vec![(1.0, 9.0), (1.5, 1.0)]);
    }

    #[test]
    fn merged_shards_equal_the_whole_regardless_of_split() {
        let pts = xorshift_points(300, 0xDEAD_BEEF, 25);
        let whole: std::collections::BTreeSet<usize> = kept(&pts).into_iter().collect();
        for shards in [2usize, 3, 7] {
            let mut frontiers: Vec<Frontier<usize>> =
                (0..shards).map(|_| Frontier::new()).collect();
            for (i, &(t, e)) in pts.iter().enumerate() {
                let _ = frontiers[i % shards].insert(t, e, i);
            }
            let mut merged = Frontier::new();
            for f in frontiers {
                merged.merge(f);
            }
            let got: std::collections::BTreeSet<usize> = merged
                .into_points()
                .into_iter()
                .map(|p| p.payload)
                .collect();
            assert_eq!(got, whole, "{shards} shards");
        }
    }

    #[test]
    fn no_frontier_point_is_dominated() {
        // Pseudo-random cloud; verify the frontier property directly.
        let mut pts = Vec::new();
        let mut s = 12345u64;
        for _ in 0..500 {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            let a = (s >> 40) as f64;
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            let b = (s >> 40) as f64;
            pts.push((a, b));
        }
        let idx = kept(&pts);
        for &i in &idx {
            for (j, q) in pts.iter().enumerate() {
                if i == j {
                    continue;
                }
                let p = pts[i];
                let dominates = q.0 <= p.0 && q.1 <= p.1 && (q.0 < p.0 || q.1 < p.1);
                assert!(!dominates, "{q:?} dominates frontier point {p:?}");
            }
        }
        // And every non-frontier point is dominated by someone.
        for (j, q) in pts.iter().enumerate() {
            if idx.contains(&j) {
                continue;
            }
            let dominated = pts
                .iter()
                .enumerate()
                .any(|(i, p)| i != j && p.0 <= q.0 && p.1 <= q.1 && (p.0 < q.0 || p.1 < q.1));
            assert!(dominated, "{q:?} should be dominated");
        }
    }
}

/// The frontier's *knee*: the point closest (in normalized time-energy
/// space) to the utopia point `(min time, min energy)` — the natural
/// single recommendation when the operator has no hard deadline.
///
/// Returns `None` for an empty frontier. A single-point frontier is its
/// own knee.
pub fn knee_point<'a>(front: &[&'a EvaluatedConfig]) -> Option<&'a EvaluatedConfig> {
    if front.is_empty() {
        return None;
    }
    let t_min = front
        .iter()
        .map(|e| e.job_time)
        .fold(f64::INFINITY, f64::min);
    let t_max = front.iter().map(|e| e.job_time).fold(0.0f64, f64::max);
    let e_min = front
        .iter()
        .map(|e| e.job_energy)
        .fold(f64::INFINITY, f64::min);
    let e_max = front.iter().map(|e| e.job_energy).fold(0.0f64, f64::max);
    let t_span = (t_max - t_min).max(f64::MIN_POSITIVE);
    let e_span = (e_max - e_min).max(f64::MIN_POSITIVE);
    front
        .iter()
        .min_by(|a, b| {
            let d = |e: &EvaluatedConfig| {
                let dt = (e.job_time - t_min) / t_span;
                let de = (e.job_energy - e_min) / e_span;
                dt * dt + de * de
            };
            d(a).total_cmp(&d(b))
        })
        .copied()
}

#[cfg(test)]
mod knee_tests {
    use super::*;
    use crate::space::{configurations, evaluate_space, TypeSpace};
    use enprop_workloads::catalog;

    #[test]
    fn knee_is_on_the_frontier_and_balanced() {
        let w = catalog::by_name("EP").unwrap();
        let types = [TypeSpace::a9(4), TypeSpace::k10(2)];
        let evald = evaluate_space(&w, configurations(&types));
        let front = pareto_front(&evald);
        let knee = knee_point(&front).unwrap();
        // The knee is neither the time extreme nor the energy extreme
        // (those sit at the normalized corners, distance 1 from utopia).
        assert!(knee.job_time > front[0].job_time);
        assert!(knee.job_energy > front.last().unwrap().job_energy);
    }

    #[test]
    fn degenerate_frontiers() {
        assert!(knee_point(&[]).is_none());
        let w = catalog::by_name("EP").unwrap();
        let types = [TypeSpace::k10(1)];
        let evald = evaluate_space(&w, configurations(&types));
        let front = pareto_front(&evald);
        assert!(knee_point(&front).is_some());
    }
}
