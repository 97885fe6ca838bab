//! # enprop-core
//!
//! The primary contribution of *"On Energy Proportionality and Time-Energy
//! Performance of Heterogeneous Clusters"* (CLUSTER 2016): a
//! measurement-driven time-energy model of heterogeneous clusters
//! (Table 2), extended with energy-proportionality analysis (Table 3,
//! §II-B) under an M/D/1 utilization model.
//!
//! The pipeline (paper Fig. 1):
//!
//! ```text
//! micro-benchmarks ──► power characterization ─┐
//! parallel workload ─► workload characterization ─┤
//!                                               ▼
//!                    execution-time model + energy model   (ClusterModel)
//!                                               ▼
//!                    energy-proportionality analysis        (this crate)
//!                                               ▼
//!                    energy-efficient configurations        (enprop-explore)
//! ```
//!
//! ## Quick start
//!
//! ```
//! use enprop_core::ClusterModel;
//! use enprop_clustersim::ClusterSpec;
//! use enprop_workloads::catalog;
//!
//! // The paper's Fig. 7 middle mix, running NPB-EP.
//! let model = ClusterModel::new(
//!     catalog::by_name("EP").unwrap(),
//!     ClusterSpec::a9_k10(64, 8),
//! );
//! let m = model.metrics();
//! assert!((m.ipr - 0.67).abs() < 0.01);       // Table 8's 64 A9 : 8 K10 column
//! assert!(model.p95_response_time(0.5) > model.job_time());
//! ```

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod analysis;
mod cluster_model;
mod validation;

pub use analysis::{
    best_ppr_config, normalized_power_samples, quadratic_ablation, single_node_row,
    try_best_ppr_config, try_single_node_model, try_single_node_row, BestPpr, NodeMetricsRow,
    QuadraticAblation,
};
pub use cluster_model::ClusterModel;
pub use enprop_faults::EnpropError;
pub use validation::{table4, table4_obs, Table4Row, REFERENCE_VALIDATION_CLUSTER};
