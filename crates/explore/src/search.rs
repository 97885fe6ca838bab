//! **Extension beyond the paper**: heuristic configuration search.
//!
//! Footnote 4 shows the configuration space exploding combinatorially
//! (36,380 configurations for just 10+10 nodes) and the paper notes that
//! "an approach to reduce the configuration space is beyond the scope of
//! this paper". This module supplies one: random-restart hill climbing
//! over the per-type `(nodes, cores, frequency)` tuples, minimizing job
//! energy subject to a deadline. On spaces small enough to enumerate it
//! matches the exact sweet spot (asserted in tests); on large spaces it
//! needs orders of magnitude fewer model evaluations than enumeration.
//!
//! Evaluation goes through the shared cache-aware
//! [`evaluate_config`](crate::evaluate_config) (one [`EvalCache`] per
//! search), and whole states are additionally memoized: restarts and
//! neighbor sweeps revisit the same `(n, c, f)` tuples constantly, so a
//! revisited state costs a map lookup instead of a model evaluation.
//! [`SearchResult::evaluations`] still counts *model evaluations* only;
//! memo hits are reported separately in [`SearchResult::cache_hits`].
//! Memoization cannot change the search trajectory — cached results are
//! bit-identical to fresh ones (the [`crate::cache`] contract), so the
//! same neighbors win the same comparisons.

use crate::cache::EvalCache;
use crate::space::{evaluate_config, EvaluatedConfig, TypeSpace};
use enprop_clustersim::{ClusterSpec, NodeGroup};
use enprop_workloads::Workload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Search statistics alongside the best configuration found.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The best feasible configuration found, if any.
    pub best: Option<EvaluatedConfig>,
    /// Number of model evaluations spent (state-memo hits excluded).
    pub evaluations: u64,
    /// Number of state evaluations answered from the memo instead of the
    /// model.
    pub cache_hits: u64,
    /// Number of restarts performed.
    pub restarts: u32,
}

/// One point in the search space: per-type `(nodes, cores, freq index)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State(Vec<(u32, u32, usize)>);

fn materialize(types: &[TypeSpace], s: &State) -> Option<ClusterSpec> {
    let mut groups = Vec::new();
    for (t, &(n, c, fi)) in types.iter().zip(&s.0) {
        if n == 0 {
            continue;
        }
        groups.push(NodeGroup {
            spec: Arc::clone(&t.spec),
            count: n,
            cores: c,
            freq: t.spec.frequencies[fi],
            switch: t.switch,
        });
    }
    if groups.is_empty() {
        None
    } else {
        Some(ClusterSpec::new(groups))
    }
}

/// Per-search evaluation state: the operating-point cache, the whole-state
/// memo, and the two counters they feed.
struct Evaluator<'w> {
    workload: &'w Workload,
    cache: EvalCache,
    memo: HashMap<State, EvaluatedConfig>,
    evaluations: u64,
    cache_hits: u64,
}

impl<'w> Evaluator<'w> {
    fn new(workload: &'w Workload) -> Self {
        Evaluator {
            workload,
            cache: EvalCache::new(workload),
            memo: HashMap::new(),
            evaluations: 0,
            cache_hits: 0,
        }
    }

    /// Evaluate a state, from the memo when it was seen before. `None`
    /// for the empty (all-types-absent) state.
    fn eval(&mut self, types: &[TypeSpace], state: &State) -> Option<EvaluatedConfig> {
        if let Some(e) = self.memo.get(state) {
            self.cache_hits += 1;
            return Some(e.clone());
        }
        let cluster = materialize(types, state)?;
        let e = evaluate_config(self.workload, cluster, Some(&self.cache));
        self.evaluations += 1;
        self.memo.insert(state.clone(), e.clone());
        Some(e)
    }
}

/// Lexicographic objective: feasible beats infeasible; among feasible,
/// lower energy wins; among infeasible, lower time wins (march toward
/// feasibility).
fn better(a: &EvaluatedConfig, b: &EvaluatedConfig, deadline: f64) -> bool {
    let fa = a.job_time <= deadline;
    let fb = b.job_time <= deadline;
    match (fa, fb) {
        (true, false) => true,
        (false, true) => false,
        (true, true) => a.job_energy < b.job_energy,
        (false, false) => a.job_time < b.job_time,
    }
}

/// Random-restart hill climbing: from each random start, repeatedly move
/// to the best improving neighbor (±1 node / ±1 core / ±1 DVFS level on
/// one type) until a local optimum, keeping the global best.
pub fn local_search(
    workload: &Workload,
    types: &[TypeSpace],
    deadline: f64,
    restarts: u32,
    seed: u64,
) -> SearchResult {
    assert!(!types.is_empty(), "search needs at least one node type");
    assert!(restarts >= 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ev = Evaluator::new(workload);
    let mut best: Option<EvaluatedConfig> = None;

    for _ in 0..restarts {
        // Random start (retry until at least one type is present).
        let mut state = loop {
            let s = State(
                types
                    .iter()
                    .map(|t| {
                        (
                            rng.gen_range(0..=t.max_nodes),
                            rng.gen_range(1..=t.spec.cores),
                            rng.gen_range(0..t.spec.frequencies.len()),
                        )
                    })
                    .collect(),
            );
            if s.0.iter().any(|&(n, _, _)| n > 0) {
                break s;
            }
        };
        let mut current = ev.eval(types, &state).expect("non-empty start");

        // Climb until no neighbor improves on the current state.
        loop {
            let mut best_neighbor: Option<(State, EvaluatedConfig)> = None;
            for ti in 0..types.len() {
                let (n, c, fi) = state.0[ti];
                let t = &types[ti];
                let mut candidates: Vec<(u32, u32, usize)> = Vec::with_capacity(6);
                if n < t.max_nodes {
                    candidates.push((n + 1, c, fi));
                }
                if n > 0 {
                    candidates.push((n - 1, c, fi));
                }
                if c < t.spec.cores {
                    candidates.push((n, c + 1, fi));
                }
                if c > 1 {
                    candidates.push((n, c - 1, fi));
                }
                if fi + 1 < t.spec.frequencies.len() {
                    candidates.push((n, c, fi + 1));
                }
                if fi > 0 {
                    candidates.push((n, c, fi - 1));
                }
                for cand in candidates {
                    let mut next = state.clone();
                    next.0[ti] = cand;
                    let Some(e) = ev.eval(types, &next) else {
                        continue;
                    };
                    let reference = best_neighbor.as_ref().map_or(&current, |(_, e)| e);
                    if better(&e, reference, deadline) {
                        best_neighbor = Some((next, e));
                    }
                }
            }
            let Some((next, e)) = best_neighbor else {
                break;
            };
            state = next;
            current = e;
        }

        if current.job_time <= deadline
            && best.as_ref().is_none_or(|b| better(&current, b, deadline))
        {
            best = Some(current);
        }
    }

    SearchResult {
        best,
        evaluations: ev.evaluations,
        cache_hits: ev.cache_hits,
        restarts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{configurations, evaluate_space};
    use crate::sweet::sweet_spot;
    use enprop_workloads::catalog;

    #[test]
    fn matches_exact_optimum_on_enumerable_spaces() {
        let w = catalog::by_name("EP").unwrap();
        let types = [TypeSpace::a9(3), TypeSpace::k10(2)];
        let evald = evaluate_space(&w, configurations(&types));
        for deadline in [0.05, 0.2, 1.0] {
            let exact = sweet_spot(&evald, deadline);
            let found = local_search(&w, &types, deadline, 12, 42);
            match exact {
                Some(exact) => {
                    let best = found.best.expect("search missed a feasible deadline");
                    assert!(best.job_time <= deadline);
                    let gap = (best.job_energy - exact.job_energy) / exact.job_energy;
                    assert!(
                        gap <= 0.02,
                        "deadline {deadline}: search {} J vs exact {} J",
                        best.job_energy,
                        exact.job_energy
                    );
                }
                None => assert!(found.best.is_none()),
            }
        }
    }

    #[test]
    fn needs_far_fewer_evaluations_than_enumeration() {
        let w = catalog::by_name("blackscholes").unwrap();
        // The footnote-4 scale: 36,380 configurations.
        let types = [TypeSpace::a9(10), TypeSpace::k10(10)];
        let found = local_search(&w, &types, 0.5, 8, 7);
        assert!(found.best.is_some());
        assert!(
            found.evaluations < 36_380 / 4,
            "search spent {} evaluations",
            found.evaluations
        );
    }

    #[test]
    fn memo_absorbs_revisited_states() {
        let w = catalog::by_name("EP").unwrap();
        let types = [TypeSpace::a9(4), TypeSpace::k10(2)];
        let found = local_search(&w, &types, 0.1, 12, 42);
        // Restarts re-walk overlapping neighborhoods, so a healthy share
        // of state evaluations must come from the memo.
        assert!(
            found.cache_hits > found.evaluations / 4,
            "only {} hits for {} evaluations",
            found.cache_hits,
            found.evaluations
        );
    }

    #[test]
    fn infeasible_deadline_returns_none() {
        let w = catalog::by_name("x264").unwrap();
        let types = [TypeSpace::a9(2), TypeSpace::k10(1)];
        let found = local_search(&w, &types, 1e-9, 4, 1);
        assert!(found.best.is_none());
    }

    #[test]
    fn search_is_seed_deterministic() {
        let w = catalog::by_name("EP").unwrap();
        let types = [TypeSpace::a9(4), TypeSpace::k10(2)];
        let a = local_search(&w, &types, 0.1, 4, 9);
        let b = local_search(&w, &types, 0.1, 4, 9);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(
            a.best.map(|e| e.cluster.label()),
            b.best.map(|e| e.cluster.label())
        );
    }

    #[test]
    fn search_is_deterministic_under_the_pool() {
        // The search itself is sequential, but it runs against the same
        // cache-aware evaluator the pooled sweep uses; pinning different
        // global thread counts must not perturb it.
        let w = catalog::by_name("blackscholes").unwrap();
        let types = [TypeSpace::a9(3), TypeSpace::k10(2)];
        crate::set_eval_threads(1);
        let a = local_search(&w, &types, 5.0, 6, 11);
        crate::set_eval_threads(4);
        let b = local_search(&w, &types, 5.0, 6, 11);
        crate::set_eval_threads(0);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.cache_hits, b.cache_hits);
        let (ea, eb) = (a.best.unwrap(), b.best.unwrap());
        assert_eq!(ea.job_energy.to_bits(), eb.job_energy.to_bits());
        assert_eq!(ea.cluster, eb.cluster);
    }
}
