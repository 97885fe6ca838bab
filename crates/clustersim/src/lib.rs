//! # enprop-clustersim
//!
//! Discrete-event simulation of inter-node heterogeneous clusters
//! (paper §II-D, Fig. 3): a front-end dispatcher queues arriving jobs;
//! each job is a scale-out parallel program split across all leaf nodes by
//! **rate matching** (every node type receives work in proportion to its
//! execution rate, so all nodes finish together — Table 2's `T_P = max T_i`
//! with equal `T_i`).
//!
//! The simulator is the reproduction's stand-in for the paper's physical
//! testbed: it executes jobs on [`enprop_nodesim`] nodes *with* the
//! second-order frictions, while the analytic model (in `enprop-core`)
//! ignores them — the gap between the two is the validation error the
//! paper reports in Table 4.
//!
//! ```
//! use enprop_clustersim::{ClusterSpec, ClusterSim};
//! use enprop_workloads::catalog;
//!
//! let workload = catalog::by_name("EP").unwrap();
//! let cluster = ClusterSpec::a9_k10(4, 2);
//! let sim = ClusterSim::new(&workload, &cluster);
//! let job = sim.run_job(42);
//! assert!(job.duration > 0.0);
//! ```

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod cluster;
mod dispatch;
mod run;
mod split;
mod validate;

pub use cluster::{ClusterSpec, NodeGroup, SwitchOverhead};
pub use dispatch::ClusterQueueSim;
pub use enprop_faults::{
    EnpropError, FaultEvent, FaultKind, FaultPlan, GroupFaultProfile, MtbfModel, RetryPolicy,
};
pub use run::{ClusterJobRun, ClusterSim, FaultRecord, FaultedJobRun, Observation, PowerTrace};
pub use split::{try_rate_matched_split, try_rate_matched_split_surviving, WorkSplit};
pub use validate::{
    try_model_prediction, try_validate, validate, ModelPrediction, ValidationReport,
};
