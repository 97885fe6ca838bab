#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! Integration tests for the beyond-the-paper extensions, exercised
//! through the facade crate like a downstream user would.

use enprop::prelude::*;

/// Sleep modes vs heterogeneity: the quantitative version of the paper's
/// §I argument. Sleep wins on the power curve; heterogeneity wins on
/// spike latency.
#[test]
fn sleep_vs_heterogeneity_tradeoff() {
    use enprop::explore::{SleepManagedCluster, SleepPolicy};
    use enprop::metrics::energy_proportionality_metric;

    let w = catalog::by_name("EP").unwrap();
    let grid = GridSpec::new(100);

    let sleepers = SleepManagedCluster::homogeneous(&w, "K10", 16, SleepPolicy::barely_alive());
    let sleep_epm = energy_proportionality_metric(&sleepers.power_curve(grid), grid);

    let hetero = ClusterModel::new(w.clone(), ClusterSpec::a9_k10(25, 7));
    let hetero_epm = hetero.metrics().epm;

    // Sleep gives the better curve...
    assert!(
        sleep_epm > hetero_epm + 0.2,
        "sleep {sleep_epm} vs hetero {hetero_epm}"
    );
    // ...but under spiky traffic its p95 collapses while the
    // heterogeneous mix is unaffected (it never waits for wakeups).
    let sleep_p95 = sleepers.p95_response_time(0.3, 0.5);
    let hetero_p95 = hetero.p95_response_time(0.3);
    assert!(
        sleep_p95 > 10.0 * hetero_p95,
        "sleep p95 {sleep_p95} vs hetero {hetero_p95}"
    );
}

/// Heuristic search agrees with exhaustive exploration end to end.
#[test]
fn search_agrees_with_enumeration() {
    use enprop::explore::local_search;
    let w = catalog::by_name("Julius").unwrap();
    let types = [TypeSpace::a9(4), TypeSpace::k10(2)];
    let evald = evaluate_space(&w, enumerate_configurations(&types));
    let deadline = 0.5;
    let exact = sweet_spot(&evald, deadline).unwrap();
    let found = local_search(&w, &types, deadline, 10, 3).best.unwrap();
    assert!(found.job_time <= deadline);
    assert!((found.job_energy - exact.job_energy) / exact.job_energy <= 0.02);
}

/// Batch arrivals and multi-dispatcher queues compose with the model.
#[test]
fn batching_and_pooling_bracket_the_plain_dispatcher() {
    use enprop::queueing::{BatchMD1, MDc, Queue};
    let w = catalog::by_name("EP").unwrap();
    let m = ClusterModel::new(w, ClusterSpec::a9_k10(16, 4));
    let u = 0.7;
    let plain = m.md1(u).mean_response_time();
    // Batching (burstier) hurts; pooled dispatchers (smoother) help.
    let batched = BatchMD1::from_utilization(m.job_time(), 6, u).mean_response_time();
    let pooled = MDc::from_utilization(m.job_time(), 4, u).mean_response_time();
    assert!(batched > plain);
    assert!(pooled < plain);
}

/// The custom-workload builder output runs the full reproduction pipeline:
/// model, metrics, simulation validation, exploration.
#[test]
fn custom_workload_end_to_end() {
    use enprop::clustersim::validate;
    use enprop::nodesim::NodeSpec;
    use enprop::workloads::builder::WorkloadBuilder;
    use enprop::workloads::calibration::Shape;

    let w = WorkloadBuilder::new("user-service", "requests")
        .ops_per_job(2.0e5)
        .node_measured(
            NodeSpec::cortex_a9(),
            8.0e5,
            2.2,
            Shape::Compute { mem_ratio: 0.25 },
        )
        .node_measured(
            NodeSpec::opteron_k10(),
            5.0e6,
            58.0,
            Shape::Compute { mem_ratio: 0.25 },
        )
        .build();

    let model = ClusterModel::new(w.clone(), ClusterSpec::a9_k10(8, 2));
    let m = model.metrics();
    assert!(m.dpr > 0.0 && m.dpr < 100.0);

    // Friction-free by default → validation errors are tiny.
    let report = validate(&w, &ClusterSpec::a9_k10(4, 1), 3, 1);
    assert!(report.time_error_pct < 1.0);
    assert!(report.energy_error_pct < 1.0);

    // Exploration works over the custom workload.
    let types = [TypeSpace::a9(3), TypeSpace::k10(1)];
    let evald = evaluate_space(&w, enumerate_configurations(&types));
    assert!(pareto_front(&evald).len() > 1);
}

/// Thermal throttling composes with the node simulator from the facade.
#[test]
fn thermal_throttling_from_facade() {
    use enprop::nodesim::{run_with_thermal, NodeSim, NodeSpec, NodeWork, ThermalModel};
    let spec = NodeSpec::opteron_k10();
    let sim = NodeSim::new(spec.clone());
    let work = NodeWork {
        act_cycles: spec.cores as f64 * spec.fmax() * 8.0,
        ..Default::default()
    };
    let base = sim.run(&work, spec.cores, spec.fmax(), &Frictions::default(), 0);
    let (run, settled) = run_with_thermal(
        &sim,
        &work,
        spec.cores,
        spec.fmax(),
        &Frictions::default(),
        &ThermalModel {
            tdp_w: base.avg_power_w * 0.85,
            headroom_s: 1.0,
        },
        0,
    );
    assert!(settled < spec.fmax());
    assert!(run.duration > base.duration);
}
