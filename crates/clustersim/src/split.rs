//! Rate-matched work splitting (paper §II-D): "the amount of workload
//! executed by nodes of different types is determined by matching the
//! execution rates among the different types of nodes, such that all nodes
//! finish executing at the same time".

use crate::cluster::ClusterSpec;
use enprop_faults::EnpropError;
use enprop_workloads::{SingleNodeModel, Workload};

/// How a job's operations are divided across the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkSplit {
    /// Fraction of the job's operations assigned to *each node* of group
    /// `i` (its rate's share of the cluster rate) — dimensionless.
    pub ops_frac: Vec<f64>,
    /// Modeled execution rate of one node of group `i`, ops/s.
    pub node_rate: Vec<f64>,
    /// Total cluster execution rate, ops/s.
    pub cluster_rate: f64,
}

impl WorkSplit {
    /// Modeled service time for a job of `ops` operations (all nodes
    /// finish together by construction).
    pub fn service_time(&self, ops: f64) -> f64 {
        ops / self.cluster_rate
    }
}

/// Compute the rate-matched split of `workload` over `cluster`, reporting
/// a typed error when the cluster is empty or a node type lacks a
/// calibrated profile for the workload.
pub fn try_rate_matched_split(
    workload: &Workload,
    cluster: &ClusterSpec,
) -> Result<WorkSplit, EnpropError> {
    let alive: Vec<u32> = cluster.groups.iter().map(|g| g.count).collect();
    try_rate_matched_split_surviving(workload, cluster, &alive)
}

/// The degraded-mode split: rate matching recomputed over the *surviving*
/// nodes only — `alive[i]` nodes of group `i` remain. Work is conserved:
/// the per-node fractions, weighted by survivor counts, still sum to 1, so
/// re-dispatching a failed node's shard under this split loses nothing.
///
/// `ops_frac[i]` is the fractional share for each **surviving** node of
/// group `i`; groups with zero survivors get a share of 0.
pub fn try_rate_matched_split_surviving(
    workload: &Workload,
    cluster: &ClusterSpec,
    alive: &[u32],
) -> Result<WorkSplit, EnpropError> {
    if alive.len() != cluster.groups.len() {
        return Err(EnpropError::invalid_config(format!(
            "survivor counts cover {} groups but the cluster has {}",
            alive.len(),
            cluster.groups.len()
        )));
    }
    let mut node_rate = Vec::with_capacity(cluster.groups.len());
    let mut cluster_rate = 0.0;
    for (g, &n_alive) in cluster.groups.iter().zip(alive) {
        if n_alive > g.count {
            return Err(EnpropError::invalid_config(format!(
                "group {} has {} survivors but only {} nodes",
                g.spec.name, n_alive, g.count
            )));
        }
        if n_alive == 0 {
            node_rate.push(0.0);
            continue;
        }
        let profile = workload.try_profile(g.spec.name)?;
        let model = SingleNodeModel::new(&profile.spec, &profile.demand, workload.io_rate);
        let rate = model.throughput(g.cores, g.freq);
        node_rate.push(rate);
        cluster_rate += n_alive as f64 * rate;
    }
    if cluster_rate <= 0.0 {
        return Err(EnpropError::EmptyCluster {
            workload: workload.name.to_string(),
        });
    }
    let ops_frac = node_rate.iter().map(|r| r / cluster_rate).collect();
    Ok(WorkSplit {
        ops_frac,
        node_rate,
        cluster_rate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use enprop_workloads::catalog;

    #[test]
    fn shares_sum_to_one_over_nodes() {
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(32, 12);
        let s = try_rate_matched_split(&w, &c).unwrap();
        let total: f64 = s
            .ops_frac
            .iter()
            .zip(&c.groups)
            .map(|(share, g)| share * g.count as f64)
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_node_types_finish_together() {
        let w = catalog::by_name("blackscholes").unwrap();
        let c = ClusterSpec::a9_k10(10, 5);
        let s = try_rate_matched_split(&w, &c).unwrap();
        let ops = w.ops_per_job;
        // time for a node of group i = assigned ops / its rate
        let times: Vec<f64> = s
            .ops_frac
            .iter()
            .zip(&s.node_rate)
            .filter(|(_, r)| **r > 0.0)
            .map(|(share, rate)| share * ops / rate)
            .collect();
        for t in &times {
            assert!((t - times[0]).abs() < 1e-12 * times[0]);
        }
        assert!((times[0] - s.service_time(ops)).abs() < 1e-12 * times[0]);
    }

    #[test]
    fn faster_nodes_get_more_work() {
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(1, 1);
        let s = try_rate_matched_split(&w, &c).unwrap();
        // K10 runs EP ~6.6× faster per node than A9 (Table 6 inversion).
        assert!(s.ops_frac[1] > 4.0 * s.ops_frac[0]);
    }

    #[test]
    fn homogeneous_split_is_even() {
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(8, 0);
        let s = try_rate_matched_split(&w, &c).unwrap();
        assert!((s.ops_frac[0] - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn try_split_reports_typed_errors() {
        let w = catalog::by_name("EP").unwrap();
        let empty = try_rate_matched_split(&w, &ClusterSpec::a9_k10(0, 0)).unwrap_err();
        assert_eq!(
            empty,
            enprop_faults::EnpropError::EmptyCluster {
                workload: "EP".into()
            }
        );
        assert!(try_rate_matched_split(&w, &ClusterSpec::a9_k10(4, 2)).is_ok());
    }

    #[test]
    fn surviving_split_with_all_alive_is_the_plain_split() {
        let w = catalog::by_name("blackscholes").unwrap();
        let c = ClusterSpec::a9_k10(10, 5);
        let full = try_rate_matched_split(&w, &c).unwrap();
        let surv = try_rate_matched_split_surviving(&w, &c, &[10, 5]).unwrap();
        assert_eq!(full, surv);
    }

    #[test]
    fn surviving_split_conserves_work_over_survivors() {
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(10, 5);
        let alive = [7u32, 2u32];
        let s = try_rate_matched_split_surviving(&w, &c, &alive).unwrap();
        let total: f64 = s
            .ops_frac
            .iter()
            .zip(&alive)
            .map(|(share, &n)| share * n as f64)
            .sum();
        assert!((total - 1.0).abs() < 1e-12, "shares sum to {total}");
        // Losing nodes lowers the aggregate rate.
        let full = try_rate_matched_split(&w, &c).unwrap();
        assert!(s.cluster_rate < full.cluster_rate);
    }

    #[test]
    fn surviving_split_rejects_bad_survivor_vectors() {
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(10, 5);
        // Wrong arity.
        assert!(try_rate_matched_split_surviving(&w, &c, &[10]).is_err());
        // More survivors than nodes.
        assert!(try_rate_matched_split_surviving(&w, &c, &[11, 5]).is_err());
        // No survivors at all.
        let dead = try_rate_matched_split_surviving(&w, &c, &[0, 0]).unwrap_err();
        assert!(matches!(
            dead,
            enprop_faults::EnpropError::EmptyCluster { .. }
        ));
    }
}
