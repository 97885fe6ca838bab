#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! Cross-validation between the analytic model and the discrete-event
//! simulation: power curves, utilization sweeps and tail latency.

use enprop::clustersim::{ClusterQueueSim, ClusterSim};
use enprop::metrics::SampledCurve;
use enprop::prelude::*;

/// Sweep utilization over `points` evenly spaced levels in `[0, 1]` and
/// return `(utilization, avg_power_w)` samples: the simulated counterpart
/// of the model's power curve. The observation period holds ~100 mean
/// jobs at full load, so utilization quantization stays below 1%.
fn power_samples(sim: &ClusterSim, points: usize, seed: u64) -> Vec<(f64, f64)> {
    let period = sim.sample_jobs(5, seed).duration * 100.0;
    (0..=points)
        .map(|i| {
            let o = sim.observe(i as f64 / points as f64, period, seed);
            (o.utilization, o.avg_power_w)
        })
        .collect()
}

/// Simulated power never falls as utilization rises: idle power at
/// u = 0, above idle at u = 1.
#[test]
fn power_grows_with_utilization() {
    let w = catalog::by_name("blackscholes").unwrap();
    let c = ClusterSpec::a9_k10(4, 2);
    let samples = power_samples(&ClusterSim::new(&w, &c), 10, 3);
    for pair in samples.windows(2) {
        assert!(pair[1].1 >= pair[0].1 - 1e-6, "power decreased: {pair:?}");
    }
    assert!((samples[0].1 - c.idle_w()).abs() < 1e-9);
    assert!(samples.last().unwrap().1 > c.idle_w() * 1.05);
}

/// The model's linear power curve tracks the simulator's measured power
/// samples across the whole utilization axis (within the friction gap).
#[test]
fn power_curves_agree_across_utilization() {
    for name in ["EP", "blackscholes"] {
        let w = catalog::by_name(name).unwrap();
        let cluster = ClusterSpec::a9_k10(6, 3);
        let model = ClusterModel::new(w.clone(), cluster.clone());
        let curve = model.power_curve();

        let sim = ClusterSim::new(&w, &cluster);
        let samples = SampledCurve::new(power_samples(&sim, 10, 3));

        for i in 0..=10 {
            let u = i as f64 / 10.0;
            let m = curve.power(u);
            let s = samples.power(u);
            let rel = (m - s).abs() / s.max(1.0);
            assert!(rel < 0.12, "{name} @ u={u}: model {m} W vs sim {s} W");
        }
        // Idle endpoints agree exactly: idle power is measured, not modeled.
        assert!((curve.power(0.0) - samples.power(0.0)).abs() < 1e-6);
    }
}

/// The M/D/1 closed form and the full cluster dispatcher simulation agree
/// on p95 response time (the justification for using the closed form in
/// Figs. 11-12).
#[test]
fn md1_p95_matches_cluster_dispatcher_sim() {
    let w = catalog::by_name("EP").unwrap();
    let cluster = ClusterSpec::a9_k10(8, 4);
    let sim = ClusterSim::new(&w, &cluster);
    let queue = ClusterQueueSim::new(&sim, 16, 5).unwrap();

    for u in [0.4, 0.7, 0.85] {
        let res = queue.queue(u).unwrap().run(40_000, 4_000, 9);
        let p95_sim = res.response_quantile(0.95).unwrap();
        // Feed the *simulated* mean service time to the analytic queue so
        // the comparison isolates the queueing model itself.
        let md1 = MD1::from_utilization(queue.mean_service(), u);
        let p95_analytic = md1.response_time_quantile(0.95);
        let rel = (p95_sim - p95_analytic).abs() / p95_analytic;
        assert!(
            rel < 0.12,
            "u={u}: sim p95 {p95_sim} vs analytic {p95_analytic} ({rel:.3})"
        );
    }
}

/// Simulated throughput at full load approaches the model's peak rate
/// (frictions only shave a few percent).
#[test]
fn peak_throughput_within_friction_gap() {
    let w = catalog::by_name("RSA-2048").unwrap();
    let cluster = ClusterSpec::a9_k10(4, 2);
    let model = ClusterModel::new(w.clone(), cluster.clone());
    let sim = ClusterSim::new(&w, &cluster);
    let mean = sim.sample_jobs(5, 3);
    let sim_rate = mean.ops / mean.duration;
    let ratio = sim_rate / model.peak_throughput();
    assert!(
        ratio < 1.0,
        "simulation cannot beat the friction-free model"
    );
    assert!(ratio > 0.90, "friction gap too large: {ratio}");
}

/// Single-node energy: friction-free simulation equals the model term by
/// term (the simulator *is* the model when frictions vanish).
#[test]
fn frictionless_node_energy_matches_model_components() {
    use enprop::nodesim::NodeSim;
    let w = catalog::by_name("blackscholes").unwrap();
    let profile = w.try_profile("K10").unwrap();
    let m = SingleNodeModel::new(&profile.spec, &profile.demand, w.io_rate);
    let ops = 10_000.0;
    let spec = &profile.spec;
    let model_energy = m.energy(ops, spec.cores, spec.fmax());
    let model_time = m.time(ops, spec.cores, spec.fmax());

    let sim = NodeSim::new(spec.clone());
    let run = sim.run(
        &w.node_work(profile, ops),
        spec.cores,
        spec.fmax(),
        &Frictions::default(),
        0,
    );
    assert!((run.duration - model_time.total).abs() < 1e-6 * model_time.total);
    let me = model_energy.total();
    assert!((run.energy.total() - me).abs() < 0.01 * me);
    // Component-level agreement.
    assert!((run.energy.idle - model_energy.idle).abs() < 0.01 * model_energy.idle);
    assert!((run.energy.cpu_act - model_energy.cpu_act).abs() < 0.02 * model_energy.cpu_act);
}
