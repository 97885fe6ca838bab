#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! Integration tests for configuration-space exploration against the
//! model: frontier properties, budget interactions, and the sweet-region
//! semantics of the prior-work methodology the paper builds on.

use enprop::prelude::*;

/// Degree of inter-node heterogeneity: node types with at least one node.
fn heterogeneity_degree(c: &ClusterSpec) -> usize {
    c.groups.iter().filter(|g| g.count > 0).count()
}

fn evaluated(a9: u32, k10: u32, workload: &str) -> Vec<enprop::explore::EvaluatedConfig> {
    let w = catalog::by_name(workload).unwrap();
    let types = [TypeSpace::a9(a9), TypeSpace::k10(k10)];
    evaluate_space(&w, enumerate_configurations(&types))
}

/// The frontier is internally consistent: sorted by time, strictly
/// decreasing in energy, and bounded by the space extremes.
#[test]
fn frontier_shape() {
    let evald = evaluated(6, 3, "EP");
    let front = pareto_front(&evald);
    assert!(!front.is_empty());
    for pair in front.windows(2) {
        assert!(pair[0].job_time <= pair[1].job_time);
        assert!(pair[0].job_energy >= pair[1].job_energy);
    }
    let min_time = evald.iter().map(|e| e.job_time).fold(f64::INFINITY, f64::min);
    assert!((front[0].job_time - min_time).abs() < 1e-15 + 1e-12 * min_time);
    let min_energy = evald.iter().map(|e| e.job_energy).fold(f64::INFINITY, f64::min);
    assert!((front.last().unwrap().job_energy - min_energy).abs() < 1e-9 * min_energy);
}

/// Heterogeneity enriches the frontier: the mixed-type space has frontier
/// points that neither homogeneous sub-space can offer (the paper's
/// "sweet region" argument for mixing node types).
#[test]
fn heterogeneity_extends_the_frontier() {
    let w = catalog::by_name("EP").unwrap();
    let both = evaluated(6, 3, "EP");
    let front = pareto_front(&both);
    let heterogeneous_on_front = front
        .iter()
        .filter(|e| heterogeneity_degree(&e.cluster) == 2)
        .count();
    assert!(
        heterogeneous_on_front > 0,
        "no mixed configuration on the EP frontier"
    );
    drop(w);
}

/// Budget filtering composes with the frontier: tightening the budget can
/// only remove options, never improve the energy floor.
#[test]
fn budget_monotonicity() {
    let evald = evaluated(8, 2, "blackscholes");
    let deadline = 10.0;
    let unconstrained = sweet_spot(&evald, deadline).unwrap().job_energy;
    for budget in [400.0, 250.0, 120.0] {
        let filtered: Vec<_> = evald
            .iter()
            .filter(|e| e.nameplate_w <= budget)
            .cloned()
            .collect();
        if let Some(best) = sweet_spot(&filtered, deadline) {
            assert!(
                best.job_energy >= unconstrained - 1e-9,
                "budget {budget}: better than unconstrained?"
            );
        }
    }
}

/// DVFS belongs in the space: for at least one workload the minimum-energy
/// configuration does not run everything at maximum frequency.
#[test]
fn energy_floor_uses_dvfs_or_fewer_resources() {
    let evald = evaluated(4, 2, "x264");
    let cheapest = sweet_spot(&evald, f64::INFINITY).unwrap();
    let all_max = cheapest.cluster.groups.iter().filter(|g| g.count > 0).all(|g| {
        g.freq == g.spec.fmax() && g.cores == g.spec.cores && g.count > 0
    });
    let minimal_hw = cheapest.cluster.node_count();
    assert!(
        !all_max || minimal_hw < 6,
        "energy floor should exploit DVFS or downsizing, got {} ({} nodes, all-max {all_max})",
        cheapest.cluster.label(),
        minimal_hw
    );
}

/// 95th-percentile response time versus utilization for one configuration
/// (one series of Figs. 11–12).
fn response_time_series(w: &Workload, config: &ClusterSpec, us: &[f64]) -> Vec<(f64, f64)> {
    let model = ClusterModel::new(w.clone(), config.clone());
    us.iter().map(|&u| (u, model.p95_response_time(u))).collect()
}

/// The response-time series pairs each utilization with the core model's
/// p95 there.
#[test]
fn response_series_consistent_with_model() {
    let w = catalog::by_name("x264").unwrap();
    let cluster = ClusterSpec::a9_k10(25, 7);
    let us = [0.3, 0.6, 0.9];
    let series = response_time_series(&w, &cluster, &us);
    let model = ClusterModel::new(w, cluster);
    for (i, &(u, p95)) in series.iter().enumerate() {
        assert_eq!(u, us[i]);
        assert!((p95 - model.p95_response_time(u)).abs() < 1e-12 * p95);
    }
}

/// §III-E: cutting brawny nodes costs EP milliseconds of p95 and x264
/// seconds.
#[test]
fn ep_response_times_are_ms_scale_and_x264_seconds_scale() {
    // §III-E's contrast: for EP the sub-linear configurations cost
    // little absolute response time; for x264 the cost is seconds.
    let us: Vec<f64> = (2..=9).map(|i| i as f64 / 10.0).collect();
    let ep = catalog::by_name("EP").unwrap();
    let x264 = catalog::by_name("x264").unwrap();
    let full = ClusterSpec::a9_k10(32, 12);
    let cut = ClusterSpec::a9_k10(25, 5);

    let ep_full = response_time_series(&ep, &full, &us);
    let ep_cut = response_time_series(&ep, &cut, &us);
    let x_full = response_time_series(&x264, &full, &us);
    let x_cut = response_time_series(&x264, &cut, &us);

    for i in 0..us.len() {
        let ep_gap = ep_cut[i].1 - ep_full[i].1;
        let x_gap = x_cut[i].1 - x_full[i].1;
        assert!(ep_gap >= 0.0 && x_gap >= 0.0);
        // Known deviation from the paper (see DESIGN.md): with
        // throughputs back-derived from Tables 6–7 the EP spread is
        // milliseconds-to-tenths rather than sub-millisecond, but the
        // contrast that carries §III-E — EP sub-second, x264 seconds,
        // two orders of magnitude apart — holds at every utilization.
        assert!(ep_gap < 0.5, "EP gap at u={}: {ep_gap} s", us[i]);
        assert!(x_gap > 1.0, "x264 gap at u={}: {x_gap} s", us[i]);
        assert!(
            x_gap > 20.0 * ep_gap,
            "contrast collapsed at u={}: EP {ep_gap} vs x264 {x_gap}",
            us[i]
        );
    }
}

/// The p95 series never falls as utilization rises.
#[test]
fn response_series_is_monotone_in_utilization() {
    let w = catalog::by_name("EP").unwrap();
    let us: Vec<f64> = (1..=19).map(|i| i as f64 / 20.0).collect();
    let series = response_time_series(&w, &ClusterSpec::a9_k10(25, 7), &us);
    for pair in series.windows(2) {
        assert!(pair[1].1 >= pair[0].1 - 1e-12);
    }
}

/// Footnote 4 at scale: closed form equals materialized count for the
/// paper's 10 + 10 example.
#[test]
fn footnote4_full_enumeration() {
    let types = [TypeSpace::a9(10), TypeSpace::k10(10)];
    assert_eq!(count_configurations(&types), 36_380);
    let configs = enumerate_configurations(&types);
    assert_eq!(configs.len(), 36_380);
}

/// Four-way heterogeneity (extension): the model, split and space
/// machinery are type-count agnostic.
#[test]
fn four_type_heterogeneity_works_end_to_end() {
    use enprop::clustersim::NodeGroup;
    use enprop::nodesim::NodeSpec;
    use enprop::workloads::catalog::extended;

    let w = extended("EP").unwrap();
    let cluster = ClusterSpec::new(vec![
        NodeGroup::full(NodeSpec::cortex_a9(), 8),
        NodeGroup::full(NodeSpec::opteron_k10(), 2),
        NodeGroup::full(NodeSpec::cortex_a15(), 4),
        NodeGroup::full(NodeSpec::xeon_e5(), 1),
    ]);
    assert_eq!(heterogeneity_degree(&cluster), 4);
    let model = ClusterModel::new(w.clone(), cluster);
    assert!(model.job_time() > 0.0);
    let m = model.metrics();
    assert!(m.dpr > 0.0 && m.dpr < 100.0);

    // The 4-type configuration space follows the same product formula.
    let types = [
        TypeSpace::a9(2),
        TypeSpace::k10(1),
        TypeSpace::a15(2),
        TypeSpace::xeon(1),
    ];
    let n = count_configurations(&types);
    // (1+2·4·5)(1+1·6·3)(1+2·4·4)(1+1·8·4) − 1 = 41·19·33·33 − 1
    assert_eq!(n, 41 * 19 * 33 * 33 - 1);
    let evald = evaluate_space(&w, enumerate_configurations(&types));
    assert_eq!(evald.len() as u64, n);
    let front = pareto_front(&evald);
    assert!(!front.is_empty());
    // The richer space should beat the A9+K10-only frontier's energy floor
    // at equal deadline (more efficient hardware available).
    let small_types = [TypeSpace::a9(2), TypeSpace::k10(1)];
    let small = evaluate_space(&w, enumerate_configurations(&small_types));
    let deadline = 1.0;
    let e4 = sweet_spot(&evald, deadline).unwrap().job_energy;
    let e2 = sweet_spot(&small, deadline).unwrap().job_energy;
    assert!(e4 <= e2 + 1e-9, "extended space energy {e4} vs {e2}");
}

/// The dynamic-switching extension composes with the integration surface.
#[test]
fn dynamic_envelope_scales_the_wall_further() {
    use enprop::explore::DynamicEnvelope;
    use enprop::metrics::energy_proportionality_metric;

    let w = catalog::by_name("EP").unwrap();
    let grid = GridSpec::new(100);
    let envelope = DynamicEnvelope::shed_brawny_ladder(&w, 32, 12);
    let dynamic_epm = energy_proportionality_metric(&envelope.power_curve(grid), grid);
    let static_epm = ClusterModel::new(w, ClusterSpec::a9_k10(32, 12)).metrics().epm;
    assert!(
        dynamic_epm > static_epm + 0.15,
        "dynamic {dynamic_epm} vs static {static_epm}"
    );
}
