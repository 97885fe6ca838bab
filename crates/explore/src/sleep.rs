//! **Extension beyond the paper**: active low-power (sleep) modes.
//!
//! The paper's introduction dismisses sleep/shutdown modes because of
//! "(i) longer response time during traffic spikes and (ii) the necessity
//! to execute many background tasks", and pursues heterogeneity instead.
//! This module makes that argument *quantitative*: a homogeneous cluster
//! whose idle nodes drop into a sleep state (Somniloquy / barely-alive
//! style) gets an excellent power curve — and pays for it with a wake
//! latency added to the response time whenever load rises into sleeping
//! capacity. Comparing [`SleepPolicy`] curves against the sub-linear
//! heterogeneous mixes of §III-D shows both strategies' trade-offs in one
//! framework.

use enprop_clustersim::ClusterSpec;
use enprop_core::ClusterModel;
use enprop_metrics::{GridSpec, SampledCurve};
use enprop_workloads::Workload;

/// A per-node sleep state and its wake cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SleepPolicy {
    /// Power of a sleeping node, watts (Somniloquy-class NIC-only
    /// operation is a few watts; shutdown is ~0).
    pub sleep_w: f64,
    /// Latency to wake a sleeping node, seconds.
    pub wake_latency_s: f64,
}

impl SleepPolicy {
    /// Barely-alive style: memory + NIC stay powered.
    pub fn barely_alive() -> Self {
        SleepPolicy {
            sleep_w: 5.0,
            wake_latency_s: 2.0,
        }
    }
}

/// A homogeneous cluster managed with per-node sleep: at offered load `u`
/// the smallest sufficient subset of nodes stays awake; the rest sleep.
#[derive(Debug, Clone)]
pub struct SleepManagedCluster {
    /// Full cluster (all nodes awake).
    pub model: ClusterModel,
    /// Number of nodes.
    pub nodes: u32,
    /// Sleep policy.
    pub policy: SleepPolicy,
}

impl SleepManagedCluster {
    /// Manage a homogeneous cluster of `nodes` nodes of the workload's
    /// node type `node_name` under `policy`.
    pub fn homogeneous(
        workload: &Workload,
        node_name: &str,
        nodes: u32,
        policy: SleepPolicy,
    ) -> Self {
        assert!(nodes >= 1);
        let (a9, k10) = match node_name {
            "A9" => (nodes, 0),
            "K10" => (0, nodes),
            other => panic!("homogeneous sleep cluster supports A9/K10, got {other}"),
        };
        SleepManagedCluster {
            model: ClusterModel::new(workload.clone(), ClusterSpec::a9_k10(a9, k10)),
            nodes,
            policy,
        }
    }

    /// Nodes that must be awake to serve load `u` (fraction of full
    /// capacity): `⌈u·n⌉`, at least one.
    pub fn awake_nodes(&self, u: f64) -> u32 {
        let u = u.clamp(0.0, 1.0);
        // enprop-lint: allow(float-int-cast) -- u ∈ [0,1] so ⌈u·n⌉ ≤ n fits u32 exactly; ceil is the spec
        ((u * self.nodes as f64).ceil() as u32).clamp(1, self.nodes)
    }

    /// Average power at load `u`: awake nodes run at their local
    /// utilization, sleeping nodes draw `sleep_w`.
    pub fn power_at(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let awake = self.awake_nodes(u) as f64;
        let per_node_idle = self.model.idle_power_w() / self.nodes as f64;
        let per_node_busy = self.model.busy_power_w() / self.nodes as f64;
        let local_u = (u * self.nodes as f64 / awake).min(1.0);
        let asleep = self.nodes as f64 - awake;
        awake * (per_node_idle + (per_node_busy - per_node_idle) * local_u)
            + asleep * self.policy.sleep_w
    }

    /// The sleep-managed power curve on `grid`.
    pub fn power_curve(&self, grid: GridSpec) -> SampledCurve {
        SampledCurve::new(grid.points().map(|u| (u, self.power_at(u))).collect())
    }

    /// p95 response time at load `u` including the wake penalty: jobs that
    /// arrive when the awake set must grow (any spike beyond `spike`
    /// fractional headroom) wait for a node to wake. The penalty term is
    /// `wake_latency · P(load growth exceeds the awake headroom)`, with
    /// the spike probability supplied by the caller's traffic model.
    pub fn p95_response_time(&self, u: f64, spike_probability: f64) -> f64 {
        assert!((0.0..=1.0).contains(&spike_probability));
        let awake = self.awake_nodes(u) as f64;
        // Queueing on the awake subset only: service time stretches by the
        // capacity ratio.
        let stretch = self.nodes as f64 / awake;
        let t_awake = self.model.job_time() * stretch;
        let md1 = enprop_queueing::MD1::from_utilization(
            t_awake,
            (u * stretch).min(0.95),
        );
        md1.response_time_quantile(0.95) + spike_probability * self.policy.wake_latency_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enprop_metrics::{energy_proportionality_metric, PowerCurve};
    use enprop_workloads::catalog;

    const GRID: GridSpec = GridSpec { steps: 100 };

    fn k10_sleepers() -> SleepManagedCluster {
        let w = catalog::by_name("EP").unwrap();
        SleepManagedCluster::homogeneous(&w, "K10", 16, SleepPolicy::barely_alive())
    }

    #[test]
    fn sleep_slashes_low_utilization_power() {
        let c = k10_sleepers();
        let all_awake = c.model.power_at(0.1);
        let managed = c.power_at(0.1);
        // 16 K10s idle at 45 W each vs 2 awake + 14 barely-alive at 5 W.
        assert!(managed < 0.35 * all_awake, "{managed} vs {all_awake}");
    }

    #[test]
    fn sleep_improves_epm_beyond_any_paper_mix() {
        let c = k10_sleepers();
        let static_epm = c.model.metrics().epm;
        let sleep_epm = energy_proportionality_metric(&c.power_curve(GRID), GRID);
        assert!(
            sleep_epm > static_epm + 0.3,
            "sleep {sleep_epm} vs static {static_epm}"
        );
    }

    #[test]
    fn full_load_power_matches_the_static_cluster() {
        let c = k10_sleepers();
        assert!((c.power_at(1.0) - c.model.busy_power_w()).abs() < 1e-6);
        assert_eq!(c.awake_nodes(1.0), 16);
        assert_eq!(c.awake_nodes(0.0), 1, "one node stays up for background work");
    }

    #[test]
    fn wake_latency_dominates_p95_under_spiky_traffic() {
        // The paper's §I claim, quantified: with spikes, the sleep
        // cluster's p95 blows past the always-on cluster by ~the wake
        // latency — exactly why the paper pursues heterogeneity instead.
        let c = k10_sleepers();
        let steady = c.p95_response_time(0.3, 0.0);
        let spiky = c.p95_response_time(0.3, 0.5);
        assert!(spiky > steady + 0.4 * c.policy.wake_latency_s);
        let always_on = c.model.p95_response_time(0.3);
        assert!(
            spiky > 5.0 * always_on,
            "spiky sleep p95 {spiky} vs always-on {always_on}"
        );
    }

    #[test]
    fn shutdown_saves_more_power_but_wakes_slower() {
        let w = catalog::by_name("EP").unwrap();
        let ba = SleepManagedCluster::homogeneous(&w, "K10", 16, SleepPolicy::barely_alive());
        // Full shutdown: no power, slow wake.
        let shutdown = SleepPolicy { sleep_w: 0.0, wake_latency_s: 30.0 };
        let sd = SleepManagedCluster::homogeneous(&w, "K10", 16, shutdown);
        assert!(sd.power_at(0.2) < ba.power_at(0.2));
        assert!(
            sd.p95_response_time(0.2, 0.3) > ba.p95_response_time(0.2, 0.3),
            "shutdown must pay more wake latency"
        );
    }

    #[test]
    fn sleep_curve_is_monotone_and_sane() {
        let c = k10_sleepers();
        let curve = c.power_curve(GRID);
        let mut prev = 0.0;
        for u in GRID.points() {
            let p = curve.power(u);
            assert!(p >= prev - 1e-6, "power dropped at u = {u}");
            prev = p;
        }
    }
}
