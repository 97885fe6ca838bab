#![allow(clippy::unwrap_used)] // test code: panicking on a broken fixture is the desired failure mode

//! Property tests for the streaming evaluator's determinism contract
//! (DESIGN.md §17): for any bounded space, any workload, any pool size,
//! any chunk length and any `--max-configs` cap, the streamed, pruned,
//! sharded frontier is exactly — bit for bit — the frontier of the
//! materialized sweep, reached through the same prune decisions as a
//! reference walk over that sweep; and the frontier merge that stitches
//! worker shards together is order-independent.

use enprop_explore::{
    configurations, evaluate_space_with, pareto_indices, stream_pareto_front, EvalOptions,
    EvaluatedConfig, Frontier, StreamOptions, TypeSpace,
};
use enprop_workloads::{catalog, Workload};
use proptest::prelude::*;

/// [`pareto_indices`] computed through the incremental [`Frontier`]
/// staircase the streaming path prunes with: the same index set in the
/// same order, which the `staircase_twin_matches_the_quadratic_oracle`
/// property pins.
fn pareto_indices_staircase<T, F>(items: &[T], key: F) -> Vec<usize>
where
    F: Fn(&T) -> (f64, f64),
{
    let mut frontier = Frontier::new();
    for (i, item) in items.iter().enumerate() {
        let (t, e) = key(item);
        let _ = frontier.insert(t, e, i);
    }
    let mut out: Vec<(f64, f64, usize)> = frontier
        .into_points()
        .into_iter()
        .map(|p| (p.t, p.e, p.payload))
        .collect();
    // The oracle emits duplicates in original-index order (stable sort);
    // the staircase keeps them in insertion order, which for a single
    // in-order pass is the same — the sort makes it explicit.
    out.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then(a.1.total_cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });
    out.into_iter().map(|(_, _, i)| i).collect()
}

/// Deterministic pseudo-random (t, e) points; a coarse value grid forces
/// duplicate coordinates so tie-handling is exercised, not dodged.
fn xorshift_points(seed: u64, n: usize, grid: u64) -> Vec<(f64, f64)> {
    let mut s = seed | 1;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    (0..n)
        .map(|_| ((next() % grid) as f64 * 0.25, (next() % grid) as f64 * 0.25))
        .collect()
}

/// The prune decisions the streamed evaluator must make, replayed over the
/// materialized evaluations: worker `w` of `threads` walks its chunks
/// `k ≡ w (mod threads)` in order with a fresh [`Frontier`], prunes a
/// configuration when the frontier's minimum energy at its job time is at
/// or below `(ops · minᵢ j_per_opᵢ) · (1 − 1e-9)`, and otherwise inserts
/// it. Returns `(pruned, evaluated)`.
fn reference_walk(
    w: &Workload,
    evald: &[EvaluatedConfig],
    threads: usize,
    chunk: usize,
) -> (u64, u64) {
    let ops = w.ops_per_job;
    let n_chunks = evald.len().div_ceil(chunk);
    let (mut pruned, mut evaluated) = (0u64, 0u64);
    for worker in 0..threads {
        let mut frontier: Frontier<usize> = Frontier::new();
        for k in (worker..n_chunks).step_by(threads) {
            let end = ((k + 1) * chunk).min(evald.len());
            for (rank, e) in evald.iter().enumerate().take(end).skip(k * chunk) {
                let min_j_per_op = e
                    .cluster
                    .groups
                    .iter()
                    .map(|g| {
                        w.try_operating_point(g.spec.name, g.cores, g.freq)
                            .unwrap()
                            .j_per_op
                    })
                    .fold(f64::INFINITY, f64::min);
                let lb_energy_j = (ops * min_j_per_op) * (1.0 - 1e-9);
                if frontier
                    .min_energy_at(e.job_time)
                    .is_some_and(|e_j| e_j <= lb_energy_j)
                {
                    pruned += 1;
                } else {
                    evaluated += 1;
                    frontier.insert(e.job_time, e.job_energy, rank);
                }
            }
        }
    }
    (pruned, evaluated)
}

/// Streamed result must equal the materialized `pareto_front` exactly:
/// same config indices, every `f64` field bit-identical — and it must
/// reach it through the same prune decisions as [`reference_walk`].
fn assert_stream_equals_materialized(
    types: &[TypeSpace],
    wi: usize,
    opts: StreamOptions,
) -> Result<(), TestCaseError> {
    // DALEK-extended profiles so the small-node types (Pi4/OPi5) are
    // calibrated too; on A9/K10-only spaces they match the base catalog.
    let all = catalog::all();
    let name = all[wi % all.len()].name;
    let w = catalog::dalek(name).unwrap();
    let cap = opts.max_configs;
    let (front, stats) = stream_pareto_front(&w, types, opts);

    let configs: Vec<_> = match cap {
        Some(c) => configurations(types).take(c as usize).collect(),
        None => configurations(types).collect(),
    };
    let total = configs.len() as u64;
    let (evald, _) = evaluate_space_with(
        &w,
        configs,
        EvalOptions {
            threads: Some(1),
            cache: false,
        },
    );
    let oracle = pareto_indices(&evald, |e| (e.job_time, e.job_energy));
    let (pruned, evaluated) = reference_walk(&w, &evald, stats.threads, stats.chunk_len);

    prop_assert_eq!(stats.evaluated as u64 + stats.pruned, total);
    prop_assert_eq!(stats.pruned, pruned);
    prop_assert_eq!(stats.evaluated as u64, evaluated);
    prop_assert_eq!(stats.frontier_len, oracle.len());
    prop_assert_eq!(front.len(), oracle.len());
    for (p, &oi) in front.iter().zip(&oracle) {
        prop_assert_eq!(p.index, oi as u64);
        let m = &evald[oi];
        prop_assert_eq!(p.eval.job_time.to_bits(), m.job_time.to_bits());
        prop_assert_eq!(p.eval.job_energy.to_bits(), m.job_energy.to_bits());
        prop_assert_eq!(p.eval.busy_power_w.to_bits(), m.busy_power_w.to_bits());
        prop_assert_eq!(p.eval.idle_power_w.to_bits(), m.idle_power_w.to_bits());
        prop_assert_eq!(p.eval.nameplate_w.to_bits(), m.nameplate_w.to_bits());
        prop_assert_eq!(&p.eval.cluster, &m.cluster);
    }
    Ok(())
}

/// Build a frontier by inserting `points`, tagging each with its index.
fn frontier_of(points: &[(f64, f64)], base: usize) -> Frontier<usize> {
    let mut f = Frontier::new();
    for (i, &(t, e)) in points.iter().enumerate() {
        f.insert(t, e, base + i);
    }
    f
}

/// Order-independent fingerprint of a frontier's contents.
fn fingerprint(f: &Frontier<usize>) -> Vec<(u64, u64, usize)> {
    let mut v: Vec<_> = f
        .points()
        .iter()
        .map(|p| (p.t.to_bits(), p.e.to_bits(), p.payload))
        .collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn streamed_frontier_matches_materialized_for_any_shape(
        a9 in 0u32..4,
        k10 in 0u32..3,
        pi4 in 0u32..3,
        threads in 1usize..7,
        chunk in 1usize..400,
        wi in 0usize..64,
    ) {
        prop_assume!(a9 + k10 + pi4 > 0);
        let types = [TypeSpace::a9(a9), TypeSpace::k10(k10), TypeSpace::pi4(pi4)];
        let opts = StreamOptions {
            threads: Some(threads),
            chunk,
            max_configs: None,
        };
        assert_stream_equals_materialized(&types, wi, opts)?;
    }

    #[test]
    fn max_configs_cap_is_a_prefix_truncation(
        cap in 1u64..600,
        threads in 1usize..5,
        chunk in 1usize..64,
        wi in 0usize..64,
    ) {
        let types = [TypeSpace::a9(3), TypeSpace::k10(2)];
        let opts = StreamOptions {
            threads: Some(threads),
            chunk,
            max_configs: Some(cap),
        };
        assert_stream_equals_materialized(&types, wi, opts)?;
    }

    #[test]
    fn staircase_twin_matches_the_quadratic_oracle(
        seed in 1u64..u64::MAX,
        n in 0usize..150,
        grid in 1u64..40,
    ) {
        let pts = xorshift_points(seed, n, grid);
        let fast = pareto_indices_staircase(&pts, |&(t, e)| (t, e));
        let slow = pareto_indices(&pts, |&(t, e)| (t, e));
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn frontier_merge_is_commutative_and_associative(
        seed in 1u64..u64::MAX,
        n in 0usize..120,
        grid in 1u64..30,
        cut_a in 0usize..120,
        cut_b in 0usize..120,
    ) {
        let pts = xorshift_points(seed, n, grid);
        let (i, j) = (cut_a.min(n), cut_b.min(n));
        let (lo, hi) = (i.min(j), i.max(j));
        let a = frontier_of(&pts[..lo], 0);
        let b = frontier_of(&pts[lo..hi], lo);
        let c = frontier_of(&pts[hi..], hi);

        // ((a ∪ b) ∪ c)
        let mut left = a.clone();
        left.merge(b.clone());
        left.merge(c.clone());
        // (a ∪ (b ∪ c))
        let mut right = b.clone();
        right.merge(c.clone());
        let mut right_full = a.clone();
        right_full.merge(right);
        // (c ∪ b ∪ a): reversed order
        let mut rev = c;
        rev.merge(b);
        rev.merge(a);

        let whole = frontier_of(&pts, 0);
        prop_assert_eq!(fingerprint(&left), fingerprint(&whole));
        prop_assert_eq!(fingerprint(&right_full), fingerprint(&whole));
        prop_assert_eq!(fingerprint(&rev), fingerprint(&whole));
    }
}
