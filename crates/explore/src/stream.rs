//! Streaming, dominance-pruned Pareto evaluation of mega-scale
//! configuration spaces.
//!
//! The materializing pipeline (`evaluate_space` → `pareto_front`) holds
//! O(space) `EvaluatedConfig`s — fine at the paper's footnote-4 scale
//! (36,380 configs), dead at the 10^6–10^8 configs a DALEK-style type
//! catalog produces. [`stream_pareto_front`] evaluates the same space
//! holding only per-type operating-point tables, a few words of odometer
//! state per worker and the frontier, and returns the *identical*
//! frontier:
//!
//! 1. **One rank decode per chunk, then odometer steps.** A
//!    configuration's rank `r` in enumeration order is odometer combo
//!    `r + 1` over per-type digits, type 0 fastest (digit 0 = absent;
//!    combo 0, all absent, is the one skipped combo). A chunk `[r0, r1)`
//!    decodes `r0 + 1` once and steps the odometer from there, so any
//!    chunk can start mid-space with no seeking and no shared iterator.
//! 2. **Operating-point tables, per-run constants.** Per type, one row per
//!    `(cores, freq)` point of [`TypeSpace::points`] holds `rate_ops_s`
//!    and `j_per_op`, filled once through the same [`EvalCache`] memo the
//!    pooled path uses; a digit `d > 0` is `count = 1 + (d − 1) / P` nodes
//!    at point `(d − 1) mod P`, so the tables do not grow with
//!    `max_nodes`. Type 0 walks its points at one node count in the inner
//!    loop; every other type's group (`count·rate`, `rate`, `count`,
//!    `j_per_op`) and their minimum `j_per_op` are constants of the run,
//!    recomputed only when the carry reaches them. Each configuration then
//!    sums its cluster rate and energy over its present groups in type
//!    order with `WorkSplit`'s own multiplies, so the result is
//!    bit-for-bit the split's (the full argument is DESIGN.md §17).
//! 3. **Dominance pruning before evaluation, a run at a time.**
//!    `job_time` falls out of the rate sum exactly; `job_energy = ops ·
//!    Σ wᵢ·e_opᵢ` with weights summing to 1, so `ops · min(e_opᵢ) ·
//!    (1 − 1e-9)` is a strict lower bound on the *computed* energy (the
//!    slack dwarfs the accumulated rounding, which is ≲ 1e-14 relative).
//!    A config whose lower bound is already at or below the frontier's
//!    minimum energy at its time is strictly dominated and skips the
//!    energy sum — it provably cannot be a frontier member, so pruning
//!    cannot change the result (EXPERIMENTS.md). One probe per config
//!    serves the prune test and, for a survivor, the insert. Before a
//!    run of type 0's points at one node count, one test at the run's
//!    fastest time (type 0's largest rate) and lowest bound (type 0's
//!    smallest `j_per_op` with the fixed groups') prunes the whole run
//!    when it can: every f64 operation rounds monotonically, so each
//!    member's time and bound are at or above the run's, the probe does
//!    not increase as the time grows, and a pruned member inserts
//!    nothing, so the per-configuration test would prune each member in
//!    turn. Tables with a NaN-producing entry (a NaN rate, say, whose
//!    NaN time is never pruned) skip the run test.
//! 4. **Sharded frontiers.** Worker `w` of `T` owns chunks `k ≡ w
//!    (mod T)` in increasing `k`, keeps a thread-local [`Frontier`], and
//!    the shards merge in worker order at the end. Assignment is static,
//!    so the pruned/evaluated counts are deterministic for a fixed
//!    `(space, threads, chunk, max_configs)` — not just the frontier.
//!
//! The final points are sorted by `(job_time, job_energy, rank)`, which
//! is exactly the order `pareto_front` emits (its stable sort breaks
//! ties by materialized index = rank). Bit-identity with the
//! materialized path is pinned by this module's tests and the
//! `stream_props` proptests.

use crate::cache::EvalCache;
use crate::pareto::{Frontier, FrontierPoint};
use crate::space::{count_configurations, EvalStats, EvaluatedConfig, TypeSpace};
use enprop_clustersim::{ClusterSpec, NodeGroup};
use enprop_workloads::Workload;
use std::sync::Arc;

/// Knobs for [`stream_pareto_front`].
#[derive(Debug, Clone, Copy)]
pub struct StreamOptions {
    /// Worker threads; `None` resolves through the pool's global order
    /// (`set_eval_threads` → `RAYON_NUM_THREADS`/`ENPROP_THREADS` → host
    /// parallelism), matching [`crate::evaluate_space_with`].
    pub threads: Option<usize>,
    /// Configurations per chunk: the unit of worker interleaving (worker
    /// `w` of `T` takes chunks `k ≡ w (mod T)`). Each chunk decodes its
    /// first rank once; no buffer scales with it.
    pub chunk: usize,
    /// Evaluate only the first `n` configurations of the enumeration
    /// order (`None` = the whole space) — the `--max-configs` cap.
    pub max_configs: Option<u64>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            threads: None,
            chunk: 4096,
            max_configs: None,
        }
    }
}

/// One Pareto-optimal configuration found by [`stream_pareto_front`].
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// Rank of the configuration in enumeration order — the index it
    /// would occupy in `enumerate_configurations`' vector.
    pub index: u64,
    /// Its full evaluation (bit-identical to the materialized path's).
    pub eval: EvaluatedConfig,
}

/// One type's operating-point table: a row per `(cores, freq)` point of
/// [`TypeSpace::points`], in that order.
struct PointTable {
    /// Odometer base: digit 0 is the absent type, digits `1..base` its
    /// `max_nodes × points` tuples.
    base: u64,
    /// Single-node rate at each point.
    rate_ops_s: Vec<f64>,
    /// Per-op energy at each point.
    j_per_op: Vec<f64>,
}

impl PointTable {
    /// `(count, point)` of digit `d > 0`: node count slowest, as in
    /// [`TypeSpace::tuples`].
    fn choice(&self, d: u64) -> (u32, usize) {
        let points = self.rate_ops_s.len() as u64;
        let (count, point) = ((d - 1) / points, (d - 1) % points);
        (1 + count as u32, point as usize)
    }

    /// The group of `count` nodes at `point`.
    fn group(&self, count: u32, point: usize) -> Group {
        let rate_ops_s = self.rate_ops_s[point];
        Group {
            count_rate_ops_s: count as f64 * rate_ops_s,
            rate_ops_s,
            count: count as f64,
            j_per_op: self.j_per_op[point],
        }
    }
}

fn build_tables(workload: &Workload, types: &[TypeSpace], cache: &EvalCache) -> Vec<PointTable> {
    types
        .iter()
        .map(|t| {
            let (rate_ops_s, j_per_op) = t
                .points()
                .map(|(c, f)| {
                    let p = cache.point(workload, t.spec.name, c, f);
                    (p.rate_ops_s, p.j_per_op)
                })
                .unzip();
            PointTable {
                base: 1 + t.tuple_count(),
                rate_ops_s,
                j_per_op,
            }
        })
        .collect()
}

/// Type 0's fastest rate and cheapest per-op energy: the corner at which
/// a whole run of its points at one node count is tested for pruning.
#[derive(Clone, Copy)]
struct RunCorner {
    /// Largest `rate_ops_s` of type 0's table.
    max_rate_ops_s: f64,
    /// Smallest `j_per_op` of type 0's table.
    min_j_per_op: f64,
}

impl RunCorner {
    /// Type 0's corner, when the run test is exact for `tables`: every
    /// rate finite and positive and every `j_per_op` finite, so no time
    /// or energy is NaN and the frontier stays a staircase whose probe
    /// does not increase with `t`. (A NaN rate has a NaN time, which the
    /// per-configuration test never prunes, but `f64::max` would drop it
    /// from the corner.) Otherwise `None`: every run takes the
    /// per-configuration path.
    fn of(tables: &[PointTable]) -> Option<RunCorner> {
        let exact = tables.iter().all(|t| {
            t.rate_ops_s.iter().all(|r| r.is_finite() && *r > 0.0)
                && t.j_per_op.iter().all(|j| j.is_finite())
        });
        let head = tables.first().filter(|_| exact)?;
        Some(RunCorner {
            max_rate_ops_s: head.rate_ops_s.iter().copied().fold(0.0, f64::max),
            min_j_per_op: head.j_per_op.iter().copied().fold(f64::INFINITY, f64::min),
        })
    }
}

/// Set `digits` to the odometer digits of `combo`, type 0 fastest.
fn decode(tables: &[PointTable], mut combo: u64, digits: &mut [u64]) {
    for (tbl, d) in tables.iter().zip(digits) {
        *d = combo % tbl.base;
        combo /= tbl.base;
    }
}

/// Materialize the configuration of rank `rank` (groups in type order,
/// absent types omitted — exactly what the streaming iterator yields).
fn decode_config(types: &[TypeSpace], tables: &[PointTable], rank: u64) -> ClusterSpec {
    let mut digits = vec![0; tables.len()];
    decode(tables, rank + 1, &mut digits);
    let groups = types
        .iter()
        .zip(tables)
        .zip(digits)
        .filter(|&(_, d)| d > 0)
        .map(|((t, tbl), d)| {
            let (count, point) = tbl.choice(d);
            let (cores, freq) = t
                .points()
                .nth(point)
                .expect("a table row per operating point");
            NodeGroup {
                spec: Arc::clone(&t.spec),
                count,
                cores,
                freq,
                switch: t.switch,
            }
        })
        .collect();
    ClusterSpec::new(groups)
}

/// One present group's terms in a configuration's rate and energy sums.
#[derive(Clone, Copy)]
struct Group {
    /// `count as f64 * rate_ops_s` — the multiply `WorkSplit`
    /// performs per group.
    count_rate_ops_s: f64,
    /// Single-node rate.
    rate_ops_s: f64,
    /// `count as f64`.
    count: f64,
    /// Per-op energy.
    j_per_op: f64,
}

impl Group {
    /// An absent type 0: adds exact zeros to both sums (`x + 0.0 == x`
    /// for the finite non-negative values here).
    const ABSENT: Group = Group {
        count_rate_ops_s: 0.0,
        rate_ops_s: 0.0,
        count: 0.0,
        j_per_op: 0.0,
    };

    /// This group's term of the job energy, in `WorkSplit::job_energy`'s
    /// operation order.
    fn energy_j(&self, ops: f64, cluster_rate_ops_s: f64) -> f64 {
        let node_ops = (self.rate_ops_s / cluster_rate_ops_s) * ops;
        self.count * (node_ops * self.j_per_op)
    }
}

/// The cluster rate (type 0's term `head_count_rate_ops_s`, then the
/// `fixed` groups in type order, as `WorkSplit` sums it) and the job time
/// `ops` over it.
#[inline(always)]
fn rate_and_time(ops: f64, head_count_rate_ops_s: f64, fixed: &[Group]) -> (f64, f64) {
    let mut cluster_rate_ops_s = head_count_rate_ops_s;
    for g in fixed {
        cluster_rate_ops_s += g.count_rate_ops_s;
    }
    (cluster_rate_ops_s, ops / cluster_rate_ops_s)
}

/// A strict lower bound on the computed energy of a configuration whose
/// present groups' smallest per-op energy is `min_j_per_op`. The
/// (1 − 1e-9) slack keeps the bound *strictly* below the computed energy
/// despite floating-point rounding (≲ 1e-14 relative over the handful of
/// adds/muls per config — five orders of magnitude smaller than the
/// slack).
#[inline(always)]
fn energy_lower_bound(ops: f64, min_j_per_op: f64) -> f64 {
    (ops * min_j_per_op) * (1.0 - 1e-9)
}

struct Shard {
    frontier: Frontier<u64>,
    pruned: u64,
    survivors: u64,
}

impl Shard {
    /// The frontier's probe at `job_time_s`, and whether a kept point at
    /// or before that time already has energy at or below `lb_energy_j`,
    /// so that it strictly dominates every configuration the bound
    /// covers.
    #[inline(always)]
    fn probe(&self, job_time_s: f64, lb_energy_j: f64) -> (usize, bool) {
        let ub = self.frontier.upper_bound(job_time_s);
        let prunes = self
            .frontier
            .min_energy_before(ub)
            .is_some_and(|e_j| e_j <= lb_energy_j);
        (ub, prunes)
    }

    /// Prune or evaluate the configuration of `rank`: type 0's `head`
    /// group, then the run's `fixed` groups of the other types in type
    /// order; `min_j_per_op` is the minimum over every present group. One
    /// probe serves both the prune test and the insert.
    #[inline(always)]
    fn visit(&mut self, rank: u64, ops: f64, head: Group, fixed: &[Group], min_j_per_op: f64) {
        let (cluster_rate_ops_s, job_time_s) = rate_and_time(ops, head.count_rate_ops_s, fixed);
        let (ub, prunes) = self.probe(job_time_s, energy_lower_bound(ops, min_j_per_op));
        if prunes {
            self.pruned += 1;
            return;
        }
        let mut energy_j = head.energy_j(ops, cluster_rate_ops_s);
        for g in fixed {
            energy_j += g.energy_j(ops, cluster_rate_ops_s);
        }
        self.survivors += 1;
        let _ = self.frontier.insert_at(ub, job_time_s, energy_j, rank);
    }
}

fn run_shard(
    worker: usize,
    threads: usize,
    chunk: usize,
    cap: u64,
    ops: f64,
    tables: &[PointTable],
    corner: Option<RunCorner>,
) -> Shard {
    let mut shard = Shard {
        frontier: Frontier::new(),
        pruned: 0,
        survivors: 0,
    };
    let Some((head, rest)) = tables.split_first() else {
        return shard;
    };
    let head_points = head.rate_ops_s.len() as u64;
    let mut digits = vec![0u64; tables.len()];
    let mut fixed: Vec<Group> = Vec::with_capacity(rest.len());
    let chunk = chunk as u64;
    let n_chunks = cap.div_ceil(chunk);
    let mut k = worker as u64;
    while k < n_chunks {
        let start = k * chunk;
        let end = start.saturating_add(chunk).min(cap);
        decode(tables, start + 1, &mut digits);
        let mut rank = start;
        while rank < end {
            // One run: type 0's digits under fixed digits of the others.
            fixed.clear();
            for (tbl, &d) in rest.iter().zip(&digits[1..]) {
                if d > 0 {
                    let (count, point) = tbl.choice(d);
                    fixed.push(tbl.group(count, point));
                }
            }
            let fixed_min_j_per_op = fixed
                .iter()
                .map(|g| g.j_per_op)
                .fold(f64::INFINITY, f64::min);
            let mut d0 = digits[0];
            if d0 == 0 {
                shard.visit(rank, ops, Group::ABSENT, &fixed, fixed_min_j_per_op);
                rank += 1;
                d0 = 1;
            }
            // Type 0 walks its points at one node count at a time. Each
            // stretch of such a run (all of it unless a chunk edge cuts it)
            // is first tested once, at the run's fastest time (type 0 at
            // its largest rate) and lowest bound (type 0's smallest
            // `j_per_op` with the fixed groups'). Each f64 operation
            // rounds monotonically, so every member's time and bound are
            // at or above these; the probe does not increase as `t` grows;
            // and a pruned member inserts nothing. So when the run test
            // prunes, the per-configuration test prunes each member in
            // turn.
            let run_test = corner.map(|c| {
                let min_j_per_op = fixed_min_j_per_op.min(c.min_j_per_op);
                (c.max_rate_ops_s, energy_lower_bound(ops, min_j_per_op))
            });
            while d0 < head.base && rank < end {
                let (count, first) = head.choice(d0);
                let steps = (head_points - first as u64).min(end - rank);
                let run_pruned = run_test.is_some_and(|(max_rate_ops_s, lb_energy_j)| {
                    let (_, job_time_s) = rate_and_time(ops, count as f64 * max_rate_ops_s, &fixed);
                    shard.probe(job_time_s, lb_energy_j).1
                });
                if run_pruned {
                    shard.pruned += steps;
                    rank += steps;
                } else {
                    for point in first..first + steps as usize {
                        let g = head.group(count, point);
                        shard.visit(rank, ops, g, &fixed, fixed_min_j_per_op.min(g.j_per_op));
                        rank += 1;
                    }
                }
                d0 += steps;
            }
            // Unless the chunk ended mid-run, carry into the other types;
            // the next run rereads them.
            if d0 == head.base {
                digits[0] = 0;
                for (tbl, d) in rest.iter().zip(&mut digits[1..]) {
                    *d += 1;
                    if *d < tbl.base {
                        break;
                    }
                    *d = 0;
                }
            }
        }
        k += threads as u64;
    }
    shard
}

/// Evaluate the space's Pareto frontier by streaming — peak memory is
/// the operating-point tables, a few words per worker and the frontier —
/// bit-identical to
/// `pareto_front(evaluate_space(enumerate_configurations(types)))`
/// (restricted to the first `max_configs` configurations when capped),
/// including the result order.
///
/// [`EvalStats::pruned`] counts configurations rejected by the dominance
/// lower bound before their energy sum; `evaluated` counts the
/// survivors that were fully composed. Both are deterministic for a
/// fixed `(types, threads, chunk, max_configs)`.
pub fn stream_pareto_front(
    workload: &Workload,
    types: &[TypeSpace],
    opts: StreamOptions,
) -> (Vec<ParetoPoint>, EvalStats) {
    let total = count_configurations(types);
    let cap = opts.max_configs.map_or(total, |m| m.min(total));
    let chunk = opts.chunk.max(1);
    let threads = opts
        .threads
        .unwrap_or_else(rayon::current_num_threads)
        .max(1);
    let cache = EvalCache::new(workload);
    let tables = build_tables(workload, types, &cache);
    let corner = RunCorner::of(&tables);
    let ops = workload.ops_per_job;

    let results: Vec<Shard> = if threads == 1 {
        vec![run_shard(0, 1, chunk, cap, ops, &tables, corner)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let tables = &tables;
                    s.spawn(move || run_shard(w, threads, chunk, cap, ops, tables, corner))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        })
    };

    let mut pruned = 0u64;
    let mut survivors = 0u64;
    let mut merged: Frontier<u64> = Frontier::new();
    for r in results {
        pruned += r.pruned;
        survivors += r.survivors;
        merged.merge(r.frontier);
    }
    let frontier_len = merged.len();

    // Final order: (time, energy, rank) — `pareto_front`'s stable sort
    // emits exactly this sequence.
    let mut kept: Vec<(f64, f64, u64)> = merged
        .into_points()
        .into_iter()
        .map(|p| (p.t, p.e, p.payload))
        .collect();
    kept.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then(a.1.total_cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });
    let out: Vec<ParetoPoint> = kept
        .into_iter()
        .map(|(t_s, e_j, rank)| {
            let eval = EvaluatedConfig::new(decode_config(types, &tables, rank), t_s, e_j);
            ParetoPoint { index: rank, eval }
        })
        .collect();

    // Two f64s per point, plus type 0's run corner.
    let table_bytes: usize = tables
        .iter()
        .map(|t| 2 * t.rate_ops_s.len() * std::mem::size_of::<f64>())
        .sum::<usize>()
        + std::mem::size_of::<RunCorner>();
    // Per worker: one odometer digit and at most one fixed group per type.
    let per_worker_bytes =
        tables.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<Group>());
    let stats = EvalStats {
        evaluated: usize::try_from(survivors).unwrap_or(usize::MAX),
        threads,
        chunk_len: chunk,
        chunks: usize::try_from(cap.div_ceil(chunk as u64)).unwrap_or(usize::MAX),
        pruned,
        frontier_len,
        peak_buffer_bytes: table_bytes
            + threads * per_worker_bytes
            + frontier_len * std::mem::size_of::<FrontierPoint<u64>>(),
        cache: Some(cache.stats()),
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::pareto_front;
    use crate::space::{configurations, evaluate_space, EvalOptions};
    use enprop_workloads::catalog;

    fn assert_stream_matches_materialized(
        workload: &Workload,
        types: &[TypeSpace],
        opts: StreamOptions,
    ) {
        let cap = opts
            .max_configs
            .map_or(usize::MAX, |m| usize::try_from(m).unwrap());
        let evald = evaluate_space(workload, configurations(types).take(cap));
        let oracle = pareto_front(&evald);
        let (got, stats) = stream_pareto_front(workload, types, opts);
        assert_eq!(got.len(), oracle.len(), "frontier size");
        for (p, o) in got.iter().zip(&oracle) {
            let at = usize::try_from(p.index).unwrap();
            assert!(std::ptr::eq(&evald[at], *o), "frontier index");
            assert_eq!(p.eval.job_time.to_bits(), o.job_time.to_bits());
            assert_eq!(p.eval.job_energy.to_bits(), o.job_energy.to_bits());
            assert_eq!(p.eval.busy_power_w.to_bits(), o.busy_power_w.to_bits());
            assert_eq!(p.eval.idle_power_w.to_bits(), o.idle_power_w.to_bits());
            assert_eq!(p.eval.nameplate_w.to_bits(), o.nameplate_w.to_bits());
            assert_eq!(p.eval.cluster, o.cluster);
        }
        assert_eq!(stats.frontier_len, oracle.len());
        assert_eq!(
            stats.evaluated as u64 + stats.pruned,
            evald.len() as u64,
            "every config is either evaluated or pruned"
        );
    }

    #[test]
    fn streamed_frontier_is_bit_identical_to_materialized() {
        let w = catalog::by_name("EP").unwrap();
        let types = [TypeSpace::a9(3), TypeSpace::k10(2)];
        for threads in [1, 2, 7] {
            for chunk in [1, 17, 256, 100_000] {
                assert_stream_matches_materialized(
                    &w,
                    &types,
                    StreamOptions {
                        threads: Some(threads),
                        chunk,
                        max_configs: None,
                    },
                );
            }
        }
    }

    #[test]
    fn max_configs_cap_matches_a_truncated_materialization() {
        let w = catalog::by_name("x264").unwrap();
        let types = [TypeSpace::a9(2), TypeSpace::k10(2)];
        for cap in [1u64, 100, 777] {
            assert_stream_matches_materialized(
                &w,
                &types,
                StreamOptions {
                    threads: Some(3),
                    chunk: 64,
                    max_configs: Some(cap),
                },
            );
        }
    }

    #[test]
    fn dalek_types_stream_end_to_end() {
        let w = catalog::dalek("blackscholes").unwrap();
        let types = [TypeSpace::pi4(2), TypeSpace::opi5(2), TypeSpace::a9(1)];
        assert_stream_matches_materialized(
            &w,
            &types,
            StreamOptions {
                threads: Some(4),
                chunk: 128,
                max_configs: None,
            },
        );
    }

    #[test]
    fn pruning_does_real_work_and_is_deterministic() {
        let w = catalog::by_name("EP").unwrap();
        let types = [TypeSpace::a9(5), TypeSpace::k10(3)];
        let opts = StreamOptions {
            threads: Some(2),
            chunk: 512,
            max_configs: None,
        };
        let (_, s1) = stream_pareto_front(&w, &types, opts);
        let (_, s2) = stream_pareto_front(&w, &types, opts);
        assert_eq!(s1, s2, "stats must be deterministic");
        assert!(s1.pruned > 0, "pruning never fired: {s1:?}");
        let total = count_configurations(&types);
        assert_eq!(s1.evaluated as u64 + s1.pruned, total);
    }

    #[test]
    fn peak_buffer_is_chunk_scale_not_space_scale() {
        let w = catalog::by_name("EP").unwrap();
        let types = [TypeSpace::a9(6), TypeSpace::k10(4)];
        let opts = StreamOptions {
            threads: Some(2),
            chunk: 256,
            max_configs: None,
        };
        let (_, stream_stats) = stream_pareto_front(&w, &types, opts);
        let (_, pooled_stats) =
            crate::space::evaluate_space_with(&w, configurations(&types), EvalOptions::default());
        assert!(
            stream_stats.peak_buffer_bytes * 10 < pooled_stats.peak_buffer_bytes,
            "stream {} vs pooled {}",
            stream_stats.peak_buffer_bytes,
            pooled_stats.peak_buffer_bytes
        );
    }

    #[test]
    fn peak_buffer_does_not_depend_on_chunk() {
        let w = catalog::by_name("EP").unwrap();
        let types = [TypeSpace::a9(6), TypeSpace::k10(4)];
        let peak = |chunk| {
            let opts = StreamOptions {
                threads: Some(1),
                chunk,
                max_configs: None,
            };
            stream_pareto_front(&w, &types, opts).1.peak_buffer_bytes
        };
        assert_eq!(peak(1), peak(65_536));
    }

    /// A table of `max_nodes` nodes over the given points.
    fn table(max_nodes: u64, rate_ops_s: &[f64], j_per_op: &[f64]) -> PointTable {
        PointTable {
            base: 1 + max_nodes * rate_ops_s.len() as u64,
            rate_ops_s: rate_ops_s.to_vec(),
            j_per_op: j_per_op.to_vec(),
        }
    }

    /// One worker's prune count, survivor count and frontier over the
    /// first `cap` configurations, as bits.
    fn shard_result(
        tables: &[PointTable],
        ops: f64,
        chunk: usize,
        cap: u64,
        corner: Option<RunCorner>,
    ) -> (u64, u64, Vec<(u64, u64, u64)>) {
        let s = run_shard(0, 1, chunk, cap, ops, tables, corner);
        let front = s.frontier.points().iter();
        let front = front.map(|p| (p.t.to_bits(), p.e.to_bits(), p.payload));
        (s.pruned, s.survivors, front.collect())
    }

    #[test]
    fn a_nan_rate_keeps_every_run_on_the_per_configuration_path() {
        // Type 1's fast, cheap point puts a frontier point ahead of type
        // 0's runs under its slow point; type 0's second point has a NaN
        // rate, so a NaN time the per-configuration test never prunes.
        let tables = [
            table(1, &[1.0, f64::NAN], &[1.0, 1.0]),
            table(1, &[100.0, 0.5], &[0.1, 1.0]),
        ];
        assert!(RunCorner::of(&tables).is_none());
        let cap = 8;
        for chunk in [1, 3, 8] {
            let per_config = shard_result(&tables, 1.0, chunk, cap, None);
            assert_eq!(per_config.0 + per_config.1, cap);
            assert_eq!(
                shard_result(&tables, 1.0, chunk, cap, RunCorner::of(&tables)),
                per_config,
                "chunk {chunk}"
            );
        }
    }

    #[test]
    fn cache_fills_once_per_distinct_operating_point() {
        let w = catalog::by_name("EP").unwrap();
        let types = [TypeSpace::a9(4), TypeSpace::k10(4)];
        let (_, stats) = stream_pareto_front(&w, &types, StreamOptions::default());
        let cache = stats.cache.unwrap();
        // A9: 4 cores × 5 freqs; K10: 6 cores × 3 freqs → 38 points, each
        // looked up once whatever the node counts.
        assert_eq!(cache.entries, 38);
        assert_eq!(cache.misses, 38);
        assert_eq!(cache.hits, 0);
    }
}
