#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! End-to-end reproduction checks: the full pipeline from calibrated
//! workloads through the time-energy model to the paper's headline
//! numbers and claims.

use enprop::prelude::*;

/// Table 7 + Table 8, all cells, against the published values.
#[test]
fn tables_7_and_8_reproduce_within_rounding() {
    // (workload, DPR A9, DPR K10, DPR 64A9:8K10)
    let rows = [
        ("EP", 25.97, 34.57, 32.66),
        ("memcached", 16.78, 11.05, 12.44),
        ("x264", 35.54, 38.41, 37.73),
        ("blackscholes", 32.11, 37.30, 36.10),
        ("Julius", 30.48, 38.10, 36.39),
        ("RSA-2048", 35.62, 41.19, 39.92),
    ];
    for (name, a9, k10, mix) in rows {
        let w = catalog::by_name(name).unwrap();
        let m_a9 = ClusterModel::single_node(w.clone(), "A9").metrics();
        let m_k10 = ClusterModel::single_node(w.clone(), "K10").metrics();
        let m_mix = ClusterModel::new(w, ClusterSpec::a9_k10(64, 8)).metrics();
        assert!(
            (m_a9.dpr - a9).abs() < 0.02,
            "{name} A9: {} vs {a9}",
            m_a9.dpr
        );
        assert!(
            (m_k10.dpr - k10).abs() < 0.02,
            "{name} K10: {} vs {k10}",
            m_k10.dpr
        );
        // Cluster mixes combine the single-node powers; the paper's printed
        // values carry rounding from its own intermediate precision.
        assert!(
            (m_mix.dpr - mix).abs() < 0.35,
            "{name} mix: {} vs {mix}",
            m_mix.dpr
        );
        // Heterogeneous DPR lies between the homogeneous extremes.
        let (lo, hi) = (a9.min(k10), a9.max(k10));
        assert!(
            m_mix.dpr > lo && m_mix.dpr < hi,
            "{name}: mix outside envelope"
        );
    }
}

/// §III-C's central contradiction for EP: energy-proportionality metrics
/// rank the all-K10 cluster best, while PPR ranks the all-A9 cluster best.
#[test]
fn proportionality_and_ppr_disagree_for_ep() {
    let w = catalog::by_name("EP").unwrap();
    let mixes = budget_mixes(1000.0, 4);
    assert_eq!(mixes.len(), 5);

    let models: Vec<ClusterModel> = mixes
        .iter()
        .map(|m| ClusterModel::new(w.clone(), m.clone()))
        .collect();

    // Least proportionality gap (largest DPR) → the K10-only mix.
    let best_dpr = models
        .iter()
        .max_by(|a, b| a.metrics().dpr.total_cmp(&b.metrics().dpr))
        .unwrap();
    assert_eq!(best_dpr.cluster().label(), "0 A9 : 16 K10");

    // Best PPR at full utilization → the A9-only mix.
    let best_ppr = models
        .iter()
        .max_by(|a, b| a.ppr_curve().ppr(1.0).total_cmp(&b.ppr_curve().ppr(1.0)))
        .unwrap();
    assert_eq!(best_ppr.cluster().label(), "128 A9 : 0 K10");

    // And the K10 cluster idles at ~3x the A9 cluster: proportionality
    // metrics hide absolute power.
    let k10_idle = models[0].idle_power_w();
    let a9_idle = models[4].idle_power_w();
    assert!(k10_idle / a9_idle > 3.0);
}

/// §III-D: the Fig. 9 crossover ladder — each brawny node removed pushes
/// the sub-linear crossover to lower utilization; (25 A9, 7 K10) crosses
/// at 50%, (25 A9, 8 K10) above 50%.
#[test]
fn fig9_crossover_ladder() {
    let w = catalog::by_name("EP").unwrap();
    let grid = GridSpec::new(400);
    let reference = ClusterModel::new(w.clone(), ClusterSpec::a9_k10(32, 12));
    let ref_peak = reference.busy_power_w();

    let mut crossings = Vec::new();
    for k10 in [10, 8, 7, 5] {
        let report = sublinear_report(&w, &ClusterSpec::a9_k10(25, k10), ref_peak, grid);
        assert_eq!(report.linearity, Linearity::Mixed, "25 A9 : {k10} K10");
        crossings.push(report.crossovers[0]);
    }
    // Monotone: fewer brawny nodes → earlier crossover.
    for pair in crossings.windows(2) {
        assert!(pair[1] < pair[0], "crossovers not monotone: {crossings:?}");
    }
    // The paper's 50% example.
    assert!(crossings[1] > 0.5, "(25,8) crossover {}", crossings[1]);
    assert!(crossings[2] <= 0.505, "(25,7) crossover {}", crossings[2]);
}

/// Table 4 regenerated end to end, all errors within 2x the paper's.
#[test]
fn table4_regenerates() {
    for row in table4(3, 11) {
        let (t, e) = row.paper_errors;
        assert!(
            row.report.time_error_pct <= 2.0 * t + 2.0,
            "{}",
            row.program
        );
        assert!(
            row.report.energy_error_pct <= 2.0 * e + 3.0,
            "{}",
            row.program
        );
    }
}

/// Table 6's PPR winners: A9 everywhere except x264 and RSA-2048.
#[test]
fn table6_ppr_winners() {
    for w in catalog::all() {
        let a9 = best_ppr_config(&w, "A9").ppr;
        let k10 = best_ppr_config(&w, "K10").ppr;
        match w.name {
            "x264" | "RSA-2048" => assert!(k10 > a9, "{}: K10 must win", w.name),
            _ => assert!(a9 > k10, "{}: A9 must win", w.name),
        }
    }
}

/// The workload characterization path used by the examples stays wired:
/// real kernels produce positive throughput that converts to demands.
#[test]
fn host_characterization_is_live() {
    use enprop::workloads::characterize::{measure, Kernel};
    let m = measure(Kernel::Blackscholes, 0.05);
    assert!(m.ops > 0 && m.ops_per_sec > 0.0);
    let d = m.to_demand(4, 3.0e9);
    assert!(d.cycles_per_op > 0.0);
}

/// §III-C, the heterogeneous-mix version of the contradiction: "While the
/// energy proportionality advocates the use of 32 A9 and 12 K10 node mix,
/// the PPR advocates the mix with 96 A9 and 4 K10 nodes."
#[test]
fn heterogeneous_mix_rankings_disagree_for_ep() {
    let w = catalog::by_name("EP").unwrap();
    let hetero = [(32u32, 12u32), (64, 8), (96, 4)];
    let models: Vec<(String, ClusterModel)> = hetero
        .iter()
        .map(|&(a, k)| {
            let c = ClusterSpec::a9_k10(a, k);
            (c.label(), ClusterModel::new(w.clone(), c))
        })
        .collect();
    let best_dpr = models
        .iter()
        .max_by(|a, b| a.1.metrics().dpr.total_cmp(&b.1.metrics().dpr))
        .unwrap();
    assert_eq!(best_dpr.0, "32 A9 : 12 K10");
    let best_ppr = models
        .iter()
        .max_by(|a, b| {
            a.1.ppr_curve()
                .ppr(1.0)
                .total_cmp(&b.1.ppr_curve().ppr(1.0))
        })
        .unwrap();
    assert_eq!(best_ppr.0, "96 A9 : 4 K10");
}

/// §III-A / Fig. 6 orderings across the whole utilization axis: the PPR
/// winner at peak is the winner at every utilization level (linear power
/// curves cannot cross in PPR when one dominates at both endpoints... but
/// verify rather than assume).
#[test]
fn fig6_ppr_orderings_hold_across_utilization() {
    for (name, a9_wins) in [("EP", true), ("blackscholes", true), ("x264", false)] {
        let w = catalog::by_name(name).unwrap();
        let a9 = ClusterModel::single_node(w.clone(), "A9").ppr_curve();
        let k10 = ClusterModel::single_node(w.clone(), "K10").ppr_curve();
        for i in 1..=10 {
            let u = i as f64 / 10.0;
            let (pa, pk) = (a9.ppr(u), k10.ppr(u));
            if a9_wins {
                assert!(pa > pk, "{name} at u={u}: A9 {pa} vs K10 {pk}");
            } else {
                assert!(pk > pa, "{name} at u={u}: K10 {pk} vs A9 {pa}");
            }
        }
    }
}
