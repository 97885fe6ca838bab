//! Workload service-demand representation (paper Table 1 workload
//! parameters).

use enprop_faults::EnpropError;
use enprop_nodesim::{Frictions, NodeSpec, NodeWork};

/// Per-operation service demand of a workload on one node type.
///
/// An "operation" is the workload's natural unit of work (a random number
/// for EP, a byte served for memcached, a frame for x264, …) — the unit the
/// paper's Table 6 PPR column is denominated in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpDemand {
    /// CPU work cycles per operation (summed over cores).
    pub cycles_per_op: f64,
    /// Memory-subsystem busy cycles per operation (node-wide; the UMA
    /// controller is shared, so these do not divide by core count).
    pub mem_cycles_per_op: f64,
    /// Bytes moved through the memory controller per operation.
    pub mem_bytes_per_op: f64,
    /// Network bytes per operation.
    pub io_bytes_per_op: f64,
    /// Network requests per operation.
    pub io_requests_per_op: f64,
    /// Instruction-mix power factor for active cycles (see
    /// [`NodeWork::act_power_scale`]).
    pub act_power_scale: f64,
}

impl OpDemand {
    /// A pure-compute demand with the given cycle cost (test helper and
    /// building block for synthetic studies).
    pub fn compute_only(cycles_per_op: f64) -> Self {
        OpDemand {
            cycles_per_op,
            mem_cycles_per_op: 0.0,
            mem_bytes_per_op: 0.0,
            io_bytes_per_op: 0.0,
            io_requests_per_op: 0.0,
            act_power_scale: 1.0,
        }
    }
}

/// One operating point of a workload on a node type: the two per-op
/// scalars the cluster-level composition needs. Computed in exactly one
/// place ([`Workload::try_operating_point`]). `enprop-clustersim`'s
/// `WorkSplit` stores one per group and composes job time and energy
/// from it, whether the point came straight from that function or from
/// `enprop-explore`'s `EvalCache` memo of it, and the streamed evaluator
/// fills its per-type tables from the same memo — so every path composes
/// **the same floating-point values** by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Modeled execution rate of one node at this point, ops/s.
    pub rate_ops_s: f64,
    /// Modeled energy of one operation on one node at this point, joules.
    pub j_per_op: f64,
}

/// A workload's demand, friction set and hardware binding for one node type.
#[derive(Debug, Clone)]
pub struct NodeProfile {
    /// The node this profile is calibrated for.
    pub spec: NodeSpec,
    /// Per-operation demand on this node.
    pub demand: OpDemand,
    /// Second-order effects of this workload on this node (what separates
    /// the simulator's "measurement" from the analytic model — Table 4).
    pub frictions: Frictions,
}

/// One of the paper's six datacenter workloads (or a user-defined one).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Program name as the paper uses it (e.g. "EP", "x264").
    pub name: &'static str,
    /// Application domain (paper Table 4 first column).
    pub domain: &'static str,
    /// Unit of work (denominator of Table 6's PPR).
    pub unit: &'static str,
    /// Operations constituting one job (each workload "constitutes a
    /// single job", §II-C; this sets the job's service time scale).
    pub ops_per_job: f64,
    /// Per-node request-processing ceiling `λ_I/O` in requests/second
    /// (0 = unconstrained); binds I/O time from below per Table 2.
    pub io_rate: f64,
    /// Per-node-type calibrated profiles.
    pub profiles: Vec<NodeProfile>,
}

impl Workload {
    /// Look up the profile for a node type by spec name ("A9", "K10", …).
    pub fn profile(&self, node_name: &str) -> Option<&NodeProfile> {
        self.profiles.iter().find(|p| p.spec.name == node_name)
    }

    /// Look up the profile for a node type, reporting a typed error when
    /// the calibration is missing — the fallible twin of
    /// [`Workload::profile`] for library code that propagates errors.
    pub fn try_profile(&self, node_name: &str) -> Result<&NodeProfile, EnpropError> {
        self.profile(node_name)
            .ok_or_else(|| EnpropError::MissingProfile {
                workload: self.name.to_string(),
                node: node_name.to_string(),
            })
    }

    /// The `(rate, energy-per-op)` operating point of one node of type
    /// `node_name` running `cores` active cores at `freq` Hz — the
    /// canonical per-op accessor behind every cluster composition (see
    /// [`OperatingPoint`]). Valid because every time term of
    /// [`SingleNodeModel`](crate::SingleNodeModel) is linear through the
    /// origin in ops, so one op's energy scales to any op count.
    pub fn try_operating_point(
        &self,
        node_name: &str,
        cores: u32,
        freq: f64,
    ) -> Result<OperatingPoint, EnpropError> {
        let profile = self.try_profile(node_name)?;
        let model =
            crate::model::SingleNodeModel::new(&profile.spec, &profile.demand, self.io_rate);
        Ok(OperatingPoint {
            rate_ops_s: model.throughput(cores, freq),
            j_per_op: model.energy(1.0, cores, freq).total(),
        })
    }

    /// Build the simulator work demand for executing `ops` operations of
    /// this workload on the node type of `profile`.
    pub fn node_work(&self, profile: &NodeProfile, ops: f64) -> NodeWork {
        let d = &profile.demand;
        NodeWork {
            act_cycles: d.cycles_per_op * ops,
            mem_cycles: d.mem_cycles_per_op * ops,
            mem_bytes: d.mem_bytes_per_op * ops,
            io_bytes: d.io_bytes_per_op * ops,
            io_requests: d.io_requests_per_op * ops,
            io_rate: self.io_rate,
            act_power_scale: d.act_power_scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_workload() -> Workload {
        Workload {
            name: "toy",
            domain: "test",
            unit: "ops",
            ops_per_job: 1000.0,
            io_rate: 0.0,
            profiles: vec![NodeProfile {
                spec: NodeSpec::cortex_a9(),
                demand: OpDemand::compute_only(1.0e6),
                frictions: Frictions::default(),
            }],
        }
    }

    #[test]
    fn profile_lookup_by_name() {
        let w = toy_workload();
        assert!(w.profile("A9").is_some());
        assert!(w.profile("K10").is_none());
    }

    #[test]
    fn try_profile_reports_typed_error() {
        let w = toy_workload();
        assert!(w.try_profile("A9").is_ok());
        let err = w.try_profile("K10").unwrap_err();
        assert_eq!(
            err,
            EnpropError::MissingProfile {
                workload: "toy".into(),
                node: "K10".into()
            }
        );
    }

    #[test]
    fn node_work_scales_with_ops() {
        let w = toy_workload();
        let p = w.profile("A9").unwrap();
        let work = w.node_work(p, 500.0);
        assert_eq!(work.act_cycles, 5.0e8);
        assert_eq!(work.io_bytes, 0.0);
        assert_eq!(work.act_power_scale, 1.0);
    }
}
