#![allow(clippy::unwrap_used)] // test code: panicking on a broken fixture is the desired failure mode

//! The streamed Pareto sweep on a DALEK space where whole runs of type
//! 0's points prune (x264 over A9, K10, Pi4 and OPi5): whether a run is
//! tested as a whole or each configuration on its own, the sweep must make
//! the per-configuration prune decisions and return the materialized
//! frontier bit for bit, at any chunk length (one that splits type 0's
//! 20-point runs included) and thread count.

use enprop::explore::{
    configurations, evaluate_space_with, pareto_front, stream_pareto_front, EvalOptions,
    EvaluatedConfig, Frontier, StreamOptions, TypeSpace,
};
use enprop::workloads::catalog;
use std::collections::HashMap;

/// Per configuration, whether the per-configuration test prunes it: worker
/// `w` of `threads` walks its chunks `k ≡ w (mod threads)` in order with a
/// fresh [`Frontier`], prunes a configuration when the frontier's minimum
/// energy at its job time is at or below its bound `lb_energy_j`, and
/// otherwise inserts it (the walk of `stream_props.rs`).
fn reference_walk(
    evald: &[EvaluatedConfig],
    lb_energy_j: &[f64],
    threads: usize,
    chunk: usize,
) -> Vec<bool> {
    let mut pruned = vec![false; evald.len()];
    let n_chunks = evald.len().div_ceil(chunk);
    for worker in 0..threads {
        let mut frontier: Frontier<usize> = Frontier::new();
        for k in (worker..n_chunks).step_by(threads) {
            for rank in k * chunk..((k + 1) * chunk).min(evald.len()) {
                let e = &evald[rank];
                if frontier
                    .min_energy_at(e.job_time)
                    .is_some_and(|e_j| e_j <= lb_energy_j[rank])
                {
                    pruned[rank] = true;
                } else {
                    frontier.insert(e.job_time, e.job_energy, rank);
                }
            }
        }
    }
    pruned
}

#[test]
fn whole_runs_prune_with_the_per_configuration_decisions() {
    let w = catalog::dalek("x264").unwrap();
    let types = [
        TypeSpace::a9(10),
        TypeSpace::k10(10),
        TypeSpace::pi4(16),
        TypeSpace::opi5(16),
    ];
    let cap = 30_000;
    let opts = EvalOptions {
        threads: Some(1),
        cache: true,
    };
    let (evald, _) = evaluate_space_with(&w, configurations(&types).take(cap), opts);
    let oracle = pareto_front(&evald);

    // Each configuration's bound: (ops · min j_per_op over its groups) ·
    // (1 − 1e-9), the operating points looked up once each.
    let mut j_per_op = HashMap::new();
    let lb_energy_j: Vec<f64> = evald
        .iter()
        .map(|e| {
            let min_j_per_op = e
                .cluster
                .groups
                .iter()
                .map(|g| {
                    *j_per_op
                        .entry((g.spec.name, g.cores, g.freq.to_bits()))
                        .or_insert_with(|| {
                            w.try_operating_point(g.spec.name, g.cores, g.freq)
                                .unwrap()
                                .j_per_op
                        })
                })
                .fold(f64::INFINITY, f64::min);
            (w.ops_per_job * min_j_per_op) * (1.0 - 1e-9)
        })
        .collect();

    // Type 0 (A9: 4 cores × 5 frequencies, up to 10 nodes) has digit base
    // 201; a run is its 20 points at one node count under fixed digits of
    // the other types. Whole runs must prune in this prefix, or the test
    // would not exercise the run test.
    let pruned = reference_walk(&evald, &lb_energy_j, 1, 4096);
    let mut runs: HashMap<usize, bool> = HashMap::new();
    for (rank, &p) in pruned.iter().enumerate() {
        let (fixed, d0) = ((rank + 1) / 201, (rank + 1) % 201);
        if d0 > 0 {
            *runs.entry(fixed * 10 + (d0 - 1) / 20).or_insert(true) &= p;
        }
    }
    let whole = runs.values().filter(|&&all| all).count();
    assert!(
        whole > runs.len() / 2,
        "{whole} of {} runs pruned whole",
        runs.len()
    );

    for threads in [1, 2] {
        for chunk in [7, 4096] {
            let opts = StreamOptions {
                threads: Some(threads),
                chunk,
                max_configs: Some(cap as u64),
            };
            let (front, stats) = stream_pareto_front(&w, &types, opts);
            let pruned = reference_walk(&evald, &lb_energy_j, threads, chunk);
            let n_pruned = pruned.iter().filter(|&&p| p).count() as u64;
            let at = format!("{threads} thread(s), chunk {chunk}");
            assert_eq!(stats.pruned, n_pruned, "{at}");
            assert_eq!(stats.evaluated as u64, cap as u64 - n_pruned, "{at}");
            assert_eq!(front.len(), oracle.len(), "{at}");
            for (p, o) in front.iter().zip(&oracle) {
                let m = &evald[usize::try_from(p.index).unwrap()];
                assert!(std::ptr::eq(m, *o), "{at}: rank {}", p.index);
                assert_eq!(p.eval.job_time.to_bits(), m.job_time.to_bits(), "{at}");
                assert_eq!(p.eval.job_energy.to_bits(), m.job_energy.to_bits(), "{at}");
                assert_eq!(p.eval.busy_power_w.to_bits(), m.busy_power_w.to_bits());
                assert_eq!(p.eval.idle_power_w.to_bits(), m.idle_power_w.to_bits());
                assert_eq!(p.eval.nameplate_w.to_bits(), m.nameplate_w.to_bits());
                assert_eq!(p.eval.cluster, m.cluster, "{at}");
            }
        }
    }
}
