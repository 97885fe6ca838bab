//! # enprop
//!
//! A complete Rust reproduction of *"On Energy Proportionality and
//! Time-Energy Performance of Heterogeneous Clusters"* (IEEE CLUSTER
//! 2016): a measurement-driven time-energy model of clusters mixing wimpy
//! (ARM Cortex-A9) and brawny (AMD Opteron K10) nodes, extended with
//! energy-proportionality metrics, plus every substrate the analysis
//! needs — a node/cluster simulator standing in for the paper's physical
//! testbed, M/D/1 queueing, calibrated workload demands with real
//! executable kernels, and configuration-space exploration.
//!
//! This facade crate re-exports the whole workspace; downstream users can
//! depend on `enprop` alone.
//!
//! ```
//! use enprop::prelude::*;
//!
//! // Table 8's middle column: 64 wimpy + 8 brawny nodes running NPB-EP.
//! let model = ClusterModel::new(
//!     catalog::by_name("EP").unwrap(),
//!     ClusterSpec::a9_k10(64, 8),
//! );
//! let metrics = model.metrics();
//! assert!((metrics.dpr - 32.66).abs() < 0.25);
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |-----------|-------|----------|
//! | [`metrics`] | `enprop-metrics` | DPR, IPR, EPM, LDR, PG(u), PPR(u), power curves |
//! | [`queueing`] | `enprop-queueing` | M/D/1, M/M/1, M/G/1, discrete-event queue |
//! | [`nodesim`] | `enprop-nodesim` | multicore node simulator + power model |
//! | [`workloads`] | `enprop-workloads` | six calibrated workloads + real kernels |
//! | [`clustersim`] | `enprop-clustersim` | cluster DES, dispatcher, validation |
//! | [`core`] | `enprop-core` | the paper's time-energy + proportionality model |
//! | [`explore`] | `enprop-explore` | config space, Pareto frontier, power budget |

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub use enprop_clustersim as clustersim;
pub use enprop_core as core;
pub use enprop_explore as explore;
pub use enprop_metrics as metrics;
pub use enprop_nodesim as nodesim;
pub use enprop_queueing as queueing;
pub use enprop_workloads as workloads;

/// The names you need for a typical analysis session.
pub mod prelude {
    pub use enprop_clustersim::{ClusterQueueSim, ClusterSim, ClusterSpec, NodeGroup};
    pub use enprop_core::{
        best_ppr_config, normalized_power_samples, single_node_row, table4, ClusterModel,
    };
    pub use enprop_explore::{
        budget_mixes, count_configurations, enumerate_configurations, evaluate_space,
        pareto_front, sublinear_report, sweet_spot, TypeSpace,
    };
    pub use enprop_metrics::{
        classify_against, GridSpec, LinearCurve, Linearity, PowerCurve, PprCurve,
        ProportionalityMetrics,
    };
    pub use enprop_nodesim::{Frictions, NodeSim, NodeSpec, NodeWork};
    pub use enprop_queueing::{Queue, QueueSim, MD1};
    pub use enprop_workloads::{catalog, SingleNodeModel, Workload};
}
