//! Streaming, dominance-pruned Pareto evaluation of mega-scale
//! configuration spaces.
//!
//! The materializing pipeline (`evaluate_space` → `pareto_front`) holds
//! O(space) `EvaluatedConfig`s — fine at the paper's footnote-4 scale
//! (36,380 configs), dead at the 10^6–10^8 configs a DALEK-style type
//! catalog produces. [`stream_pareto_front`] evaluates the same space in
//! O(frontier + chunk) memory and returns the *identical* frontier:
//!
//! 1. **Rank decode instead of iterator state.** A configuration's rank
//!    `r` in enumeration order maps to odometer combo `r + 1` over the
//!    per-type choice tables (combo 0 is the skipped all-absent case, and
//!    it is the only empty combo), so any chunk `[r0, r1)` of the space
//!    can be decoded independently — no seeking, no shared iterator.
//! 2. **Struct-of-arrays columns.** Per type, every choice (index 0 =
//!    absent) precomputes `count·rate`, `rate`, `count`, `e_op` once
//!    through the same [`EvalCache`] memo the pooled path uses; chunk
//!    passes then run column-at-a-time over flat `f64` buffers with no
//!    branching. Absent choices hold exact `0.0`s, and `x + 0.0 == x`
//!    for the finite non-negative values here, so the accumulation
//!    reproduces the reference path's float sequence bit-for-bit (the
//!    full argument is DESIGN.md §17).
//! 3. **Dominance pruning before evaluation.** `job_time` falls out of
//!    the cheap rate pass exactly; `job_energy = ops · Σ wᵢ·e_opᵢ` with
//!    weights summing to 1, so `ops · min(e_opᵢ) · (1 − 1e-9)` is a
//!    strict lower bound on the *computed* energy (the slack dwarfs the
//!    accumulated rounding, which is ≲ 1e-14 relative). A config whose
//!    lower bound is already at or below the frontier's
//!    [`Frontier::min_energy_at`] probe is strictly dominated and skips
//!    the energy pass — it provably cannot be a frontier member, so
//!    pruning cannot change the result (EXPERIMENTS.md).
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
    /// Configurations per evaluation chunk (the unit of buffer sizing
    /// and of worker interleaving).
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

/// Per-type struct-of-arrays choice tables. Index 0 is the absent
/// choice; its numeric columns hold exact `0.0` (and `+∞` in the
/// min-energy column) so chunk passes never branch on absence.
struct TypeTable {
    /// `(count, cores, freq)` per choice, for survivor materialization.
    tuples: Vec<(u32, u32, f64)>,
    /// `count as f64 * rate` — precomputed with the exact multiply the
    /// reference path performs per group.
    count_rate_ops_s: Vec<f64>,
    /// Single-node rate at the choice's operating point.
    rate_ops_s: Vec<f64>,
    /// `count as f64`.
    count: Vec<f64>,
    /// Per-op energy at the choice's operating point.
    j_per_op: Vec<f64>,
    /// Per-op energy for the lower-bound min-probe: `+∞` at index 0 so
    /// an absent type never wins the min.
    min_j_per_op: Vec<f64>,
}

fn build_tables(workload: &Workload, types: &[TypeSpace], cache: &EvalCache) -> Vec<TypeTable> {
    types
        .iter()
        .map(|t| {
            let n_choices = 1 + t.tuple_count() as usize;
            let mut tbl = TypeTable {
                tuples: Vec::with_capacity(n_choices),
                count_rate_ops_s: Vec::with_capacity(n_choices),
                rate_ops_s: Vec::with_capacity(n_choices),
                count: Vec::with_capacity(n_choices),
                j_per_op: Vec::with_capacity(n_choices),
                min_j_per_op: Vec::with_capacity(n_choices),
            };
            tbl.tuples.push((0, 0, 0.0));
            tbl.count_rate_ops_s.push(0.0);
            tbl.rate_ops_s.push(0.0);
            tbl.count.push(0.0);
            tbl.j_per_op.push(0.0);
            tbl.min_j_per_op.push(f64::INFINITY);
            for (n, c, f) in t.tuples() {
                let p = cache.point(workload, t.spec.name, c, f);
                tbl.tuples.push((n, c, f));
                tbl.count_rate_ops_s.push(n as f64 * p.rate_ops_s);
                tbl.rate_ops_s.push(p.rate_ops_s);
                tbl.count.push(n as f64);
                tbl.j_per_op.push(p.j_per_op);
                tbl.min_j_per_op.push(p.j_per_op);
            }
            tbl
        })
        .collect()
}

/// Materialize the configuration of rank `rank` (groups in type order,
/// absent types omitted — exactly what the streaming iterator yields).
fn decode_config(types: &[TypeSpace], tables: &[TypeTable], rank: u64) -> ClusterSpec {
    let mut combo = rank + 1;
    let mut groups = Vec::new();
    for (t, tbl) in tables.iter().enumerate() {
        let len = tbl.tuples.len() as u64;
        let d = (combo % len) as usize;
        combo /= len;
        if d > 0 {
            let (count, cores, freq) = tbl.tuples[d];
            groups.push(NodeGroup {
                spec: Arc::clone(&types[t].spec),
                count,
                cores,
                freq,
                switch: types[t].switch,
            });
        }
    }
    ClusterSpec::new(groups)
}

struct ShardResult {
    frontier: Frontier<u64>,
    pruned: u64,
    survivors: u64,
}

fn run_shard(
    worker: usize,
    threads: usize,
    chunk: usize,
    cap: u64,
    ops: f64,
    tables: &[TypeTable],
) -> ShardResult {
    let n_types = tables.len();
    let mut digits: Vec<u32> = vec![0; n_types * chunk];
    let mut cluster_rate_ops_s = vec![0.0f64; chunk];
    let mut job_time_s = vec![0.0f64; chunk];
    let mut min_j_per_op = vec![0.0f64; chunk];
    let mut lb_energy_j = vec![0.0f64; chunk];
    let mut frontier: Frontier<u64> = Frontier::new();
    let mut pruned = 0u64;
    let mut survivors = 0u64;
    let n_chunks = cap.div_ceil(chunk as u64);
    let mut k = worker as u64;
    while k < n_chunks {
        let start = k * chunk as u64;
        let end = (start + chunk as u64).min(cap);
        let n = (end - start) as usize;
        // Pass 1: rank → odometer digits, column-major per type.
        for i in 0..n {
            let mut combo = start + i as u64 + 1;
            for (t, tbl) in tables.iter().enumerate() {
                let len = tbl.tuples.len() as u64;
                digits[t * chunk + i] = (combo % len) as u32;
                combo /= len;
            }
        }
        // Pass 2: cluster rate, one type column at a time — the adds hit
        // each config in type order, the order the reference path uses,
        // and absent choices add exact 0.0.
        cluster_rate_ops_s[..n].fill(0.0);
        for (t, tbl) in tables.iter().enumerate() {
            let dcol = &digits[t * chunk..t * chunk + n];
            for (i, &d) in dcol.iter().enumerate() {
                cluster_rate_ops_s[i] += tbl.count_rate_ops_s[d as usize];
            }
        }
        // Pass 3: exact job time + energy lower bound.
        min_j_per_op[..n].fill(f64::INFINITY);
        for (t, tbl) in tables.iter().enumerate() {
            let dcol = &digits[t * chunk..t * chunk + n];
            for (i, &d) in dcol.iter().enumerate() {
                min_j_per_op[i] = min_j_per_op[i].min(tbl.min_j_per_op[d as usize]);
            }
        }
        for i in 0..n {
            job_time_s[i] = ops / cluster_rate_ops_s[i];
            // The (1 − 1e-9) slack keeps the bound *strictly* below the
            // computed energy despite floating-point rounding (≲ 1e-14
            // relative over the handful of adds/muls per config — five
            // orders of magnitude smaller than the slack).
            lb_energy_j[i] = (ops * min_j_per_op[i]) * (1.0 - 1e-9);
        }
        // Pass 4: prune or fully evaluate; survivors offer themselves to
        // the shard frontier.
        for i in 0..n {
            let t_s = job_time_s[i];
            if frontier
                .min_energy_at(t_s)
                .is_some_and(|e_j| e_j <= lb_energy_j[i])
            {
                pruned += 1;
                continue;
            }
            let mut energy_j = 0.0f64;
            for (t, tbl) in tables.iter().enumerate() {
                let d = digits[t * chunk + i] as usize;
                let node_ops = (tbl.rate_ops_s[d] / cluster_rate_ops_s[i]) * ops;
                energy_j += tbl.count[d] * (node_ops * tbl.j_per_op[d]);
            }
            survivors += 1;
            let _ = frontier.insert(t_s, energy_j, start + i as u64);
        }
        k += threads as u64;
    }
    ShardResult {
        frontier,
        pruned,
        survivors,
    }
}

/// Evaluate the space's Pareto frontier by streaming — O(frontier +
/// chunk) peak memory, bit-identical to
/// `pareto_front(evaluate_space(enumerate_configurations(types)))`
/// (restricted to the first `max_configs` configurations when capped),
/// including the result order.
///
/// [`EvalStats::pruned`] counts configurations rejected by the dominance
/// lower bound before their energy pass; `evaluated` counts the
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
    let ops = workload.ops_per_job;

    let results: Vec<ShardResult> = if threads == 1 {
        vec![run_shard(0, 1, chunk, cap, ops, &tables)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let tables = &tables;
                    s.spawn(move || run_shard(w, threads, chunk, cap, ops, tables))
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
            let cluster = decode_config(types, &tables, rank);
            let eval = EvaluatedConfig {
                job_time: t_s,
                job_energy: e_j,
                busy_power_w: e_j / t_s,
                idle_power_w: cluster.idle_w(),
                nameplate_w: cluster.nameplate_w(),
                cluster,
            };
            ParetoPoint { index: rank, eval }
        })
        .collect();

    let table_bytes: usize = tables
        .iter()
        .map(|t| {
            t.tuples.len()
                * (std::mem::size_of::<(u32, u32, f64)>() + 5 * std::mem::size_of::<f64>())
        })
        .sum();
    let per_worker_bytes = chunk
        * (tables.len() * std::mem::size_of::<u32>() + 4 * std::mem::size_of::<f64>());
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
    use crate::pareto::{pareto_front, pareto_indices};
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
        let oracle_idx = pareto_indices(&evald, |e| (e.job_time, e.job_energy));
        let oracle = pareto_front(&evald);
        let (got, stats) = stream_pareto_front(workload, types, opts);
        assert_eq!(got.len(), oracle.len(), "frontier size");
        for ((p, o), oi) in got.iter().zip(&oracle).zip(&oracle_idx) {
            assert_eq!(p.index, *oi as u64, "frontier index");
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
        let types = [
            TypeSpace::pi4(2),
            TypeSpace::opi5(2),
            TypeSpace::a9(1),
        ];
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
        let (_, pooled_stats) = crate::space::evaluate_space_with(
            &w,
            configurations(&types),
            EvalOptions::default(),
        );
        assert!(
            stream_stats.peak_buffer_bytes * 10 < pooled_stats.peak_buffer_bytes,
            "stream {} vs pooled {}",
            stream_stats.peak_buffer_bytes,
            pooled_stats.peak_buffer_bytes
        );
    }

    #[test]
    fn cache_fills_once_per_distinct_operating_point() {
        let w = catalog::by_name("EP").unwrap();
        let types = [TypeSpace::a9(4), TypeSpace::k10(4)];
        let (_, stats) = stream_pareto_front(&w, &types, StreamOptions::default());
        let cache = stats.cache.unwrap();
        // A9: 4 cores × 5 freqs; K10: 6 cores × 3 freqs → 38 points even
        // though the count dimension multiplies the choice tables.
        assert_eq!(cache.entries, 38);
        assert_eq!(cache.misses, 38);
    }
}
