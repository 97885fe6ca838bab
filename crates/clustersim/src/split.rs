//! Rate-matched work splitting (paper §II-D): "the amount of workload
//! executed by nodes of different types is determined by matching the
//! execution rates among the different types of nodes, such that all nodes
//! finish executing at the same time" — and the Table-2 composition over
//! it, `T_P = max_i T_i` and `E_P = Σ_i n_i·E_i`. Every path that models a
//! job's time or energy (`ClusterModel`, Table 4, `evaluate_config` with
//! an `EvalCache`, serving capacity) reads a [`WorkSplit`]; only the
//! streamed explorer's per-type tables repeat its multiplies, and its
//! tests pin them to the split bit for bit.

use crate::cluster::{ClusterSpec, NodeGroup};
use enprop_faults::EnpropError;
use enprop_workloads::{OperatingPoint, Workload};

/// One group's part of a [`WorkSplit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupShare {
    /// Nodes of the group that take work.
    pub live: u32,
    /// Rate and per-op energy of one node of the group (both 0 when no
    /// node is live).
    pub point: OperatingPoint,
    /// Fraction of the job's operations assigned to *each live node* of
    /// the group (its rate's share of the cluster rate) — dimensionless.
    pub ops_frac: f64,
}

/// How a job's operations are divided across the cluster, and the job
/// time and energy that division gives.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkSplit {
    /// One share per group, in the cluster's group order.
    pub groups: Vec<GroupShare>,
    /// Total cluster execution rate, ops/s.
    pub cluster_rate: f64,
}

impl WorkSplit {
    /// Rate-match a job over every node of `cluster`, taking each group's
    /// operating point from `point` — [`Workload::try_operating_point`]
    /// or a memo of it. `point` is asked once per non-empty group, in
    /// group order. A typed error reports an empty cluster, or whatever
    /// `point` reports (a missing profile).
    pub fn try_new(
        workload: &Workload,
        cluster: &ClusterSpec,
        point: impl FnMut(&NodeGroup) -> Result<OperatingPoint, EnpropError>,
    ) -> Result<Self, EnpropError> {
        rate_match(
            workload,
            cluster,
            cluster.groups.iter().map(|g| g.count),
            point,
        )
    }

    /// Modeled time of a job of `ops` operations (`T_P = max_i T_i`; all
    /// nodes finish together by construction), seconds.
    pub fn job_time(&self, ops: f64) -> f64 {
        ops / self.cluster_rate
    }

    /// Modeled energy of a job of `ops` operations (`E_P = Σ_i n_i·E_i`),
    /// joules, in per-op form: `n_i · (ops_i · E_i(1 op))`. Valid because
    /// every time term of [`SingleNodeModel`](enprop_workloads::SingleNodeModel)
    /// is linear through the origin in ops.
    pub fn job_energy(&self, ops: f64) -> f64 {
        let mut energy = 0.0;
        for g in &self.groups {
            if g.live == 0 {
                continue;
            }
            energy += g.live as f64 * ((g.ops_frac * ops) * g.point.j_per_op);
        }
        energy
    }
}

/// The one rate-matching pass: `live` yields each group's live node count
/// in group order.
fn rate_match(
    workload: &Workload,
    cluster: &ClusterSpec,
    live: impl Iterator<Item = u32>,
    mut point: impl FnMut(&NodeGroup) -> Result<OperatingPoint, EnpropError>,
) -> Result<WorkSplit, EnpropError> {
    let mut groups = Vec::with_capacity(cluster.groups.len());
    let mut cluster_rate_ops_s = 0.0;
    for (g, count) in cluster.groups.iter().zip(live) {
        if count > g.count {
            return Err(EnpropError::invalid_config(format!(
                "group {} has {} survivors but only {} nodes",
                g.spec.name, count, g.count
            )));
        }
        let point = if count == 0 {
            OperatingPoint {
                rate_ops_s: 0.0,
                j_per_op: 0.0,
            }
        } else {
            let p = point(g)?;
            cluster_rate_ops_s += count as f64 * p.rate_ops_s;
            p
        };
        groups.push(GroupShare {
            live: count,
            point,
            ops_frac: 0.0,
        });
    }
    if cluster_rate_ops_s <= 0.0 {
        return Err(EnpropError::EmptyCluster {
            workload: workload.name.to_string(),
        });
    }
    for g in &mut groups {
        g.ops_frac = g.point.rate_ops_s / cluster_rate_ops_s;
    }
    Ok(WorkSplit {
        groups,
        cluster_rate: cluster_rate_ops_s,
    })
}

/// Compute the rate-matched split of `workload` over `cluster`, reporting
/// a typed error when the cluster is empty or a node type lacks a
/// calibrated profile.
pub fn try_rate_matched_split(
    workload: &Workload,
    cluster: &ClusterSpec,
) -> Result<WorkSplit, EnpropError> {
    WorkSplit::try_new(workload, cluster, |g| {
        workload.try_operating_point(g.spec.name, g.cores, g.freq)
    })
}

/// The degraded-mode split: rate matching recomputed over the *surviving*
/// nodes only — `alive[i]` nodes of group `i` remain. Work is conserved:
/// the per-node fractions, weighted by survivor counts, still sum to 1, so
/// re-dispatching a failed node's shard under this split loses nothing.
///
/// `groups[i].ops_frac` is the fractional share for each **surviving**
/// node of group `i`; groups with zero survivors get a share of 0.
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
    rate_match(workload, cluster, alive.iter().copied(), |g| {
        workload.try_operating_point(g.spec.name, g.cores, g.freq)
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
        let total: f64 = s.groups.iter().map(|g| g.ops_frac * g.live as f64).sum();
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
            .groups
            .iter()
            .filter(|g| g.live > 0)
            .map(|g| g.ops_frac * ops / g.point.rate_ops_s)
            .collect();
        for t in &times {
            assert!((t - times[0]).abs() < 1e-12 * times[0]);
        }
        assert!((times[0] - s.job_time(ops)).abs() < 1e-12 * times[0]);
    }

    #[test]
    fn faster_nodes_get_more_work() {
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(1, 1);
        let s = try_rate_matched_split(&w, &c).unwrap();
        // K10 runs EP ~6.6× faster per node than A9 (Table 6 inversion).
        assert!(s.groups[1].ops_frac > 4.0 * s.groups[0].ops_frac);
    }

    #[test]
    fn homogeneous_split_is_even() {
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(8, 0);
        let s = try_rate_matched_split(&w, &c).unwrap();
        assert!((s.groups[0].ops_frac - 1.0 / 8.0).abs() < 1e-12);
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
            .groups
            .iter()
            .zip(&alive)
            .map(|(g, &n)| g.ops_frac * n as f64)
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
