//! Building *custom* calibrated workloads — the user-facing face of the
//! paper's methodology.
//!
//! The six catalog workloads come from the paper's measurements; a
//! downstream user has their own application and their own measurements
//! (throughput and busy power per node type, exactly what SPECpower-style
//! runs produce). [`WorkloadBuilder`] turns those into a calibrated
//! [`Workload`] via the same inversion the catalog uses.
//!
//! ```
//! use enprop_workloads::builder::WorkloadBuilder;
//! use enprop_workloads::calibration::Shape;
//! use enprop_nodesim::NodeSpec;
//!
//! // "Measured": 2 Mops/s at 2.3 W busy on the A9; 9 Mops/s at 60 W on K10.
//! let workload = WorkloadBuilder::new("my-service", "ops")
//!     .ops_per_job(1.0e6)
//!     .node_measured(NodeSpec::cortex_a9(), 2.0e6, 2.3, Shape::Compute { mem_ratio: 0.2 })
//!     .node_measured(NodeSpec::opteron_k10(), 9.0e6, 60.0, Shape::Compute { mem_ratio: 0.2 })
//!     .build();
//! assert_eq!(workload.profiles.len(), 2);
//! ```

use crate::calibration::{fit_demand, NodeTargets, Shape};
use crate::demand::{NodeProfile, Workload};
use enprop_nodesim::{Frictions, NodeSpec};

/// Builder for custom calibrated workloads.
#[derive(Debug)]
pub struct WorkloadBuilder {
    name: &'static str,
    unit: &'static str,
    domain: &'static str,
    ops_per_job: f64,
    frictions: Frictions,
    entries: Vec<(NodeSpec, NodeTargets, Shape)>,
}

impl WorkloadBuilder {
    /// Start a workload with a name and unit of work.
    pub fn new(name: &'static str, unit: &'static str) -> Self {
        WorkloadBuilder {
            name,
            unit,
            domain: "custom",
            ops_per_job: 1.0e6,
            frictions: Frictions::default(),
            entries: Vec::new(),
        }
    }

    /// Application domain label.
    pub fn domain(mut self, domain: &'static str) -> Self {
        self.domain = domain;
        self
    }

    /// Operations per job (sets the service-time scale).
    pub fn ops_per_job(mut self, ops: f64) -> Self {
        assert!(ops > 0.0, "ops_per_job must be positive");
        self.ops_per_job = ops;
        self
    }

    /// Frictions for validation runs against the simulator.
    pub fn frictions(mut self, frictions: Frictions) -> Self {
        self.frictions = frictions;
        self
    }

    /// Add a node type from direct measurements: peak throughput (ops/s)
    /// and busy power (watts) at the node's full configuration, plus the
    /// qualitative bottleneck shape.
    pub fn node_measured(
        mut self,
        spec: NodeSpec,
        peak_throughput: f64,
        busy_power_w: f64,
        shape: Shape,
    ) -> Self {
        assert!(peak_throughput > 0.0, "throughput must be positive");
        assert!(
            busy_power_w > spec.power.sys_idle_w,
            "busy power must exceed the node's idle power ({} W)",
            spec.power.sys_idle_w
        );
        let ipr = spec.power.sys_idle_w / busy_power_w;
        let targets = NodeTargets {
            dpr_pct: (1.0 - ipr) * 100.0,
            ppr: peak_throughput / busy_power_w,
        };
        self.entries.push((spec, targets, shape));
        self
    }

    /// Calibrate and assemble the workload.
    ///
    /// # Panics
    /// Panics when no node was added, when two entries share a node type,
    /// or when a shape cannot reproduce its targets (see
    /// [`fit_demand`]).
    pub fn build(self) -> Workload {
        assert!(!self.entries.is_empty(), "add at least one node type");
        let mut io_rate = 0.0f64;
        let mut profiles = Vec::with_capacity(self.entries.len());
        for (spec, targets, shape) in self.entries {
            assert!(
                !profiles
                    .iter()
                    .any(|p: &NodeProfile| p.spec.name == spec.name),
                "duplicate node type {}",
                spec.name
            );
            let fit = fit_demand(&spec, &targets, shape);
            if fit.io_rate > 0.0 {
                assert!(io_rate == 0.0, "at most one node type may bind λ_I/O");
                io_rate = fit.io_rate;
            }
            profiles.push(NodeProfile {
                spec,
                demand: fit.demand,
                frictions: self.frictions,
            });
        }
        Workload {
            name: self.name,
            domain: self.domain,
            unit: self.unit,
            ops_per_job: self.ops_per_job,
            io_rate,
            profiles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SingleNodeModel;

    fn custom() -> Workload {
        WorkloadBuilder::new("custom-etl", "records")
            .domain("data engineering")
            .ops_per_job(5.0e5)
            .node_measured(
                NodeSpec::cortex_a9(),
                1.5e6,
                2.4,
                Shape::Compute { mem_ratio: 0.3 },
            )
            .node_measured(
                NodeSpec::opteron_k10(),
                8.0e6,
                62.0,
                Shape::Memory { core_frac: 0.8 },
            )
            .build()
    }

    #[test]
    fn measured_targets_are_reproduced() {
        let w = custom();
        let a9 = w.try_profile("A9").unwrap();
        let m = SingleNodeModel::new(&a9.spec, &a9.demand, w.io_rate);
        assert!((m.throughput(4, a9.spec.fmax()) - 1.5e6).abs() / 1.5e6 < 1e-9);
        assert!((m.busy_power(4, a9.spec.fmax()) - 2.4).abs() < 1e-9);
        let k10 = w.try_profile("K10").unwrap();
        let m = SingleNodeModel::new(&k10.spec, &k10.demand, w.io_rate);
        assert!((m.throughput(6, k10.spec.fmax()) - 8.0e6).abs() / 8.0e6 < 1e-9);
        assert!((m.busy_power(6, k10.spec.fmax()) - 62.0).abs() < 1e-9);
    }

    #[test]
    fn builder_output_flows_through_the_whole_pipeline() {
        // The custom workload must work end to end like catalog ones.
        use enprop_nodesim::NodeSim;
        let w = custom();
        let p = w.try_profile("K10").unwrap();
        let run = NodeSim::new(p.spec.clone()).run(
            &w.node_work(p, 1000.0),
            p.spec.cores,
            p.spec.fmax(),
            &p.frictions,
            1,
        );
        assert!(run.duration > 0.0 && run.energy.total() > 0.0);
    }

    #[test]
    #[should_panic(expected = "duplicate node type")]
    fn duplicate_node_types_rejected() {
        let _ = WorkloadBuilder::new("dup", "ops")
            .node_measured(
                NodeSpec::cortex_a9(),
                1.0e6,
                2.4,
                Shape::Compute { mem_ratio: 0.1 },
            )
            .node_measured(
                NodeSpec::cortex_a9(),
                2.0e6,
                2.5,
                Shape::Compute { mem_ratio: 0.1 },
            )
            .build();
    }

    #[test]
    #[should_panic(expected = "busy power must exceed")]
    fn sub_idle_busy_power_rejected() {
        let _ = WorkloadBuilder::new("bad", "ops").node_measured(
            NodeSpec::opteron_k10(),
            1.0e6,
            40.0, // below the K10's 45 W idle
            Shape::Compute { mem_ratio: 0.1 },
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_builder_rejected() {
        let _ = WorkloadBuilder::new("empty", "ops").build();
    }
}
