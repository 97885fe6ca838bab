//! The operating-point memo: the [`EvalCache`].
//!
//! Every configuration in the space reuses the same handful of per-type
//! operating points — a `(node type, cores, freq)` tuple has at most
//! `Σ_i c_max,i · |F_i|` distinct values (38 for the paper's A9+K10
//! space) while the space itself has tens of thousands of configurations.
//! The uncached path rebuilds a [`SingleNodeModel`](enprop_workloads::SingleNodeModel)
//! and re-derives the node rate and per-op energy for every group of
//! every configuration; the cache computes each operating point once.
//!
//! The cache stores points and composes nothing. `evaluate_config` with a
//! cache hands [`EvalCache::point`] to `WorkSplit::try_new` as its lookup,
//! one lookup per non-empty group, and the split composes the job time
//! and energy exactly as it does for `ClusterModel`. A memoized point is
//! the value [`Workload::try_operating_point`] returns, so cached and
//! uncached results are equal with `==`, not just within a tolerance
//! (asserted by the tests below and by the space-level proptests).

use enprop_workloads::{OperatingPoint, Workload};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Cache key. The frequency is keyed by its bit pattern: operating points
/// come from the spec's DVFS table, so equal frequencies are bit-equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PointKey {
    node: &'static str,
    cores: u32,
    freq_bits: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<PointKey, OperatingPoint>,
    hits: u64,
    misses: u64,
}

/// Hit/miss totals of an [`EvalCache`].
///
/// Both totals are deterministic for a given evaluation run regardless of
/// thread count or interleaving: lookups per configuration are fixed, and
/// each distinct key misses exactly once because the check-then-fill is
/// atomic under the cache lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that computed and stored a new operating point.
    pub misses: u64,
    /// Distinct operating points stored (equals `misses`).
    pub entries: u64,
}

/// Memo of per-`(node type, cores, freq)` operating points for **one**
/// workload. Shareable across threads: the pool's workers evaluate
/// configurations against one cache.
#[derive(Debug)]
pub struct EvalCache {
    /// Workload this cache is keyed to (operating points depend on the
    /// workload's demand profile, so a cache must never be reused across
    /// workloads).
    workload: &'static str,
    inner: Mutex<Inner>,
}

impl EvalCache {
    /// An empty cache for `workload`.
    pub fn new(workload: &Workload) -> Self {
        EvalCache {
            workload: workload.name,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Name of the workload this cache serves.
    pub fn workload(&self) -> &'static str {
        self.workload
    }

    /// Current hit/miss totals.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len() as u64,
        }
    }

    /// The memoized operating point for one group tuple. The miss path
    /// fills under the same lock as the lookup: the compute is tiny
    /// (closed-form model arithmetic, ≲ 40 distinct keys per space) and
    /// atomicity makes each key miss exactly once, keeping
    /// [`CacheStats`] deterministic under any thread interleaving.
    ///
    /// `pub(crate)`: `evaluate_config` builds its split from it, and the
    /// streamed evaluator ([`crate::stream`]) fills its per-type
    /// operating-point tables through the same memo — one model fill per
    /// distinct `(workload, type, cores, freq)` row.
    pub(crate) fn point(
        &self,
        workload: &Workload,
        node: &'static str,
        cores: u32,
        freq: f64,
    ) -> OperatingPoint {
        debug_assert_eq!(
            workload.name, self.workload,
            "EvalCache built for {} used with {}",
            self.workload, workload.name
        );
        let key = PointKey {
            node,
            cores,
            freq_bits: freq.to_bits(),
        };
        let mut inner = self.inner.lock();
        if let Some(p) = inner.map.get(&key).copied() {
            inner.hits += 1;
            return p;
        }
        let p = workload
            .try_operating_point(node, cores, freq)
            .unwrap_or_else(|e| panic!("{e}"));
        inner.misses += 1;
        inner.map.insert(key, p);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{configurations, evaluate_config, TypeSpace};
    use enprop_clustersim::ClusterSpec;
    use enprop_workloads::catalog;

    #[test]
    fn cached_results_are_bit_identical_to_uncached() {
        for name in ["EP", "blackscholes", "x264"] {
            let w = catalog::by_name(name).unwrap();
            let cache = EvalCache::new(&w);
            let types = [TypeSpace::a9(3), TypeSpace::k10(2)];
            for cluster in configurations(&types) {
                let plain = evaluate_config(&w, cluster.clone(), None);
                let cached = evaluate_config(&w, cluster, Some(&cache));
                assert_eq!(plain.job_time.to_bits(), cached.job_time.to_bits());
                assert_eq!(plain.job_energy.to_bits(), cached.job_energy.to_bits());
                assert_eq!(plain.busy_power_w.to_bits(), cached.busy_power_w.to_bits());
                assert_eq!(plain.idle_power_w.to_bits(), cached.idle_power_w.to_bits());
                assert_eq!(plain.nameplate_w.to_bits(), cached.nameplate_w.to_bits());
            }
        }
    }

    #[test]
    fn entries_are_bounded_by_distinct_operating_points() {
        let w = catalog::by_name("EP").unwrap();
        let cache = EvalCache::new(&w);
        let types = [TypeSpace::a9(3), TypeSpace::k10(2)];
        for cluster in configurations(&types) {
            let _ = evaluate_config(&w, cluster, Some(&cache));
        }
        let stats = cache.stats();
        // A9: 4 cores × 5 freqs; K10: 6 cores × 3 freqs → ≤ 38 points.
        assert_eq!(stats.entries, 38);
        assert_eq!(stats.misses, stats.entries);
        assert!(stats.hits > stats.misses * 10, "{stats:?}");
    }

    #[test]
    fn hit_miss_totals_account_for_every_lookup() {
        let w = catalog::by_name("EP").unwrap();
        let cache = EvalCache::new(&w);
        let types = [TypeSpace::a9(2), TypeSpace::k10(1)];
        // One lookup per non-empty group per config: the split stores the
        // point it looked up and composes both sums from it. The streaming
        // iterator is deterministic, so two passes see the same
        // configurations without materializing the space.
        let lookups: u64 = configurations(&types)
            .map(|c| c.groups.iter().filter(|g| g.count > 0).count() as u64)
            .sum();
        for cluster in configurations(&types) {
            let _ = evaluate_config(&w, cluster, Some(&cache));
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, lookups);
    }

    #[test]
    #[should_panic(expected = "no capacity")]
    fn empty_cluster_panics_like_the_model() {
        let w = catalog::by_name("EP").unwrap();
        let cache = EvalCache::new(&w);
        let _ = evaluate_config(&w, ClusterSpec { groups: Vec::new() }, Some(&cache));
    }
}
