//! The cluster-level time-energy model (paper Table 2) with the energy
//! proportionality extensions of §II-B.
//!
//! Under the M/D/1 dispatcher model, a cluster at utilization `U` is busy
//! executing jobs a fraction `U` of the time (at its per-workload busy
//! power) and idle otherwise; peak and idle power derive from the model as
//! `P_peak = E(U=1)/T` and `P_idle = E(U=0)/T`, which makes the modeled
//! power curve linear in utilization — exactly why the paper's Table 7/8
//! metrics collapse to functions of IPR.

use enprop_clustersim::{try_rate_matched_split, ClusterSpec, WorkSplit};
use enprop_faults::EnpropError;
use enprop_metrics::{LinearCurve, PowerCurve, PprCurve, ProportionalityMetrics, ThroughputCurve};
use enprop_queueing::MD1;
use enprop_workloads::Workload;

/// The analytic model of one workload on one cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterModel {
    workload: Workload,
    cluster: ClusterSpec,
    split: WorkSplit,
}

impl ClusterModel {
    /// Bind a workload to a cluster configuration, reporting a typed error
    /// for an empty cluster or a missing calibration profile.
    pub fn try_new(workload: Workload, cluster: ClusterSpec) -> Result<Self, EnpropError> {
        let split = try_rate_matched_split(&workload, &cluster)?;
        Ok(ClusterModel {
            workload,
            cluster,
            split,
        })
    }

    /// Bind a workload to a cluster configuration.
    ///
    /// # Panics
    /// Panics when the cluster is empty or a profile is missing. Use
    /// [`ClusterModel::try_new`] for a typed error.
    pub fn new(workload: Workload, cluster: ClusterSpec) -> Self {
        Self::try_new(workload, cluster).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A single node of type `node_name` at full cores / max frequency,
    /// reporting a typed error when the node has no calibrated profile.
    pub fn try_single_node(workload: Workload, node_name: &str) -> Result<Self, EnpropError> {
        let spec = workload.try_profile(node_name)?.spec.clone();
        let group = enprop_clustersim::NodeGroup::full(spec, 1);
        Self::try_new(workload, ClusterSpec::try_new(vec![group])?)
    }

    /// A single node of type `node_name` at full cores / max frequency —
    /// the Table 7 / Fig. 5 setting.
    ///
    /// # Panics
    /// Panics when the node has no calibrated profile. Use
    /// [`ClusterModel::try_single_node`] for a typed error.
    pub fn single_node(workload: Workload, node_name: &str) -> Self {
        Self::try_single_node(workload, node_name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The workload being modeled.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The cluster configuration being modeled.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The rate-matched split.
    pub fn split(&self) -> &WorkSplit {
        &self.split
    }

    /// Cluster peak throughput, ops/second.
    pub fn peak_throughput(&self) -> f64 {
        self.split.cluster_rate
    }

    /// Modeled service time of one job (`T_P = max_i T_i`, all equal under
    /// rate matching), seconds.
    pub fn job_time(&self) -> f64 {
        self.split.service_time(self.workload.ops_per_job)
    }

    /// Modeled energy of one job (`E_P = Σ_i E_i · n_i`), joules.
    ///
    /// Computed in per-op form — `n_i · (ops_i · E_i(1 op))` — which is
    /// valid because every time term of
    /// [`SingleNodeModel`](enprop_workloads::SingleNodeModel) is linear
    /// through the origin in ops. The per-op factor comes from the shared
    /// [`Workload::try_operating_point`] accessor, the same call
    /// `enprop-explore`'s `EvalCache` memoizes and its streamed evaluator
    /// fills its point tables from — so all three paths compose the same
    /// floating-point values by construction (bit-identity is covered by
    /// explore's cache-consistency and streaming proptests).
    pub fn job_energy(&self) -> f64 {
        let ops = self.workload.ops_per_job;
        let mut energy = 0.0;
        for (gi, g) in self.cluster.groups.iter().enumerate() {
            if g.count == 0 {
                continue;
            }
            let point = self
                .workload
                .try_operating_point(g.spec.name, g.cores, g.freq)
                .expect("profiles validated at construction");
            let node_ops = self.split.ops_frac[gi] * ops;
            energy += g.count as f64 * (node_ops * point.j_per_op);
        }
        energy
    }

    /// Cluster power while executing (all nodes busy), watts:
    /// `P_peak,P = E(U=1)/T`.
    pub fn busy_power_w(&self) -> f64 {
        self.job_energy() / self.job_time()
    }

    /// Cluster idle power, watts: `P_idle,P = E(U=0)/T`.
    pub fn idle_power_w(&self) -> f64 {
        self.cluster.idle_w()
    }

    /// The modeled power-versus-utilization curve (linear: busy a fraction
    /// `u` of the interval, idle otherwise).
    pub fn power_curve(&self) -> LinearCurve {
        LinearCurve::new(self.idle_power_w(), self.busy_power_w())
    }

    /// Average power at utilization `u`, watts.
    pub fn power_at(&self, u: f64) -> f64 {
        self.power_curve().power(u)
    }

    /// Delivered throughput model (`u · peak`), ops/second.
    pub fn throughput_curve(&self) -> ThroughputCurve {
        ThroughputCurve::new(self.peak_throughput())
    }

    /// `PPR(u)` curve (paper Fig. 6/8).
    pub fn ppr_curve(&self) -> PprCurve<LinearCurve> {
        PprCurve::new(self.throughput_curve(), self.power_curve())
    }

    /// All Table-3 proportionality metrics of this configuration.
    pub fn metrics(&self) -> ProportionalityMetrics {
        ProportionalityMetrics::of(&self.power_curve())
    }

    /// The M/D/1 dispatcher at utilization `u` (Poisson arrivals,
    /// deterministic service `T_P`).
    pub fn md1(&self, u: f64) -> MD1 {
        MD1::from_utilization(self.job_time(), u)
    }

    /// 95th-percentile job response time at utilization `u`, seconds
    /// (paper Figs. 11–12).
    pub fn p95_response_time(&self, u: f64) -> f64 {
        self.md1(u).response_time_quantile(0.95)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enprop_clustersim::try_model_prediction;
    use enprop_workloads::catalog;

    fn ep() -> Workload {
        catalog::by_name("EP").unwrap()
    }

    #[test]
    fn single_node_reproduces_table7_exactly() {
        // Table 7, EP row: A9 DPR 25.97 / IPR 0.74 / EPM 0.26;
        //                  K10 DPR 34.57 / IPR 0.65 / EPM 0.34.
        let a9 = ClusterModel::single_node(ep(), "A9").metrics();
        assert!((a9.dpr - 25.97).abs() < 0.01, "A9 DPR {}", a9.dpr);
        assert!((a9.ipr - 0.74).abs() < 0.005);
        assert!((a9.epm - 0.26).abs() < 0.005);
        let k10 = ClusterModel::single_node(ep(), "K10").metrics();
        assert!((k10.dpr - 34.57).abs() < 0.01, "K10 DPR {}", k10.dpr);
        assert!((k10.ipr - 0.65).abs() < 0.005);
        // exact value 0.3457; the paper prints 0.34 (truncated)
        assert!((k10.epm - 0.3457).abs() < 0.001);
    }

    #[test]
    fn cluster_reproduces_table8_ep_row() {
        // Table 8, EP row: 128 A9 → DPR 25.97; 64 A9 + 8 K10 → 32.66;
        // 16 K10 → 34.57.
        let homo_a9 = ClusterModel::new(ep(), ClusterSpec::a9_k10(128, 0)).metrics();
        assert!((homo_a9.dpr - 25.97).abs() < 0.01, "got {}", homo_a9.dpr);
        let mix = ClusterModel::new(ep(), ClusterSpec::a9_k10(64, 8)).metrics();
        assert!((mix.dpr - 32.66).abs() < 0.25, "got {}", mix.dpr);
        let homo_k10 = ClusterModel::new(ep(), ClusterSpec::a9_k10(0, 16)).metrics();
        assert!((homo_k10.dpr - 34.57).abs() < 0.01, "got {}", homo_k10.dpr);
    }

    #[test]
    fn model_agrees_with_clustersim_prediction() {
        let w = ep();
        let cluster = ClusterSpec::a9_k10(8, 4);
        let model = ClusterModel::new(w.clone(), cluster.clone());
        let pred = try_model_prediction(&w, &cluster).unwrap();
        assert!((model.job_time() - pred.time).abs() < 1e-12 * pred.time);
        assert!((model.job_energy() - pred.energy).abs() < 1e-9 * pred.energy);
    }

    #[test]
    fn busy_power_sits_between_idle_and_sum_of_node_peaks() {
        let model = ClusterModel::new(ep(), ClusterSpec::a9_k10(32, 12));
        let p = model.busy_power_w();
        assert!(p > model.idle_power_w());
        // 32 A9 · 2.43 W + 12 K10 · 68.78 W ≈ 903 W
        assert!((p - 903.0).abs() < 5.0, "busy power {p}");
    }

    #[test]
    fn power_curve_is_linear_in_utilization() {
        let model = ClusterModel::new(ep(), ClusterSpec::a9_k10(16, 4));
        let c = model.power_curve();
        let mid = 0.5 * (c.power(0.0) + c.power(1.0));
        assert!((c.power(0.5) - mid).abs() < 1e-9);
    }

    #[test]
    fn p95_has_queueing_shape() {
        let model = ClusterModel::new(ep(), ClusterSpec::a9_k10(32, 12));
        let t = model.job_time();
        let lo = model.p95_response_time(0.2);
        let hi = model.p95_response_time(0.9);
        assert!(lo >= t);
        assert!(hi > 2.0 * lo, "p95 must blow up near saturation");
    }

    #[test]
    fn batching_inflates_response_time_at_equal_utilization() {
        use enprop_queueing::{BatchMD1, Queue as _};
        let model = ClusterModel::new(ep(), ClusterSpec::a9_k10(32, 12));
        let single = model.md1(0.6).mean_response_time();
        let k1 = BatchMD1::from_utilization(model.job_time(), 1, 0.6).mean_response_time();
        assert!((single - k1).abs() < 1e-12, "k = 1 must degenerate");
        let k8 = BatchMD1::from_utilization(model.job_time(), 8, 0.6).mean_response_time();
        assert!(k8 > 2.0 * single, "batch of 8: {k8} vs {single}");
    }

    #[test]
    fn removing_brawny_nodes_slows_jobs_but_cuts_power() {
        let full = ClusterModel::new(ep(), ClusterSpec::a9_k10(25, 10));
        let fewer = ClusterModel::new(ep(), ClusterSpec::a9_k10(25, 5));
        assert!(fewer.job_time() > full.job_time());
        assert!(fewer.busy_power_w() < full.busy_power_w());
        assert!(fewer.idle_power_w() < full.idle_power_w());
    }
}
