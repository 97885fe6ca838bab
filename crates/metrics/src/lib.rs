//! # enprop-metrics
//!
//! Energy-proportionality metrics for servers and clusters, as surveyed in
//! Section II-B (Table 3) of *"On Energy Proportionality and Time-Energy
//! Performance of Heterogeneous Clusters"* (CLUSTER 2016):
//!
//! * **DPR** — Dynamic Power Range, `100 − Pidle[%]`
//! * **IPR** — Idle-to-Peak power Ratio, `Pidle / Ppeak`
//! * **EPM** — Energy Proportionality Metric (Ryckbosch et al.), one minus
//!   the normalized area between the server curve and the ideal curve
//! * **LDR** — Linear Deviation Ratio (Varsamopoulos & Gupta), the maximum
//!   relative deviation from the line joining `Pidle` to `Ppeak`
//! * **PG(u)** — Proportionality Gap (Wong & Annavaram), defined at *each*
//!   utilization level
//! * **PPR(u)** — Performance-to-Power Ratio, throughput per watt
//!
//! The crate represents a server's (or cluster's) power-versus-utilization
//! behaviour as a [`PowerCurve`] and computes every metric from that single
//! abstraction, so analytic model curves, simulated traces and measured
//! samples are all first-class citizens.
//!
//! ## Quick example
//!
//! ```
//! use enprop_metrics::{LinearCurve, PowerCurve, ProportionalityMetrics};
//!
//! // A node idling at 45 W with a 69.23 W peak (the paper's K10 running EP).
//! let k10 = LinearCurve::new(45.0, 69.23);
//! let m = ProportionalityMetrics::of(&k10);
//! assert!((m.ipr - 0.65).abs() < 1e-2);
//! assert!((m.epm - (1.0 - m.ipr)).abs() < 1e-9); // linear curves collapse
//! ```

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod classify;
mod curve;
mod integrate;
mod ppr;
mod proportionality;

pub use classify::{classify_against, crossovers, crossovers_against, gap_against, Linearity};
pub use curve::{IdealCurve, LinearCurve, PowerCurve, QuadraticCurve, SampledCurve};
pub use integrate::{integrate, GridSpec};
pub use ppr::{PprCurve, ThroughputCurve};
pub use proportionality::{
    dynamic_power_range, energy_proportionality_metric, idle_to_peak_ratio, linear_deviation_ratio,
    proportionality_gap, ProportionalityMetrics,
};

/// Relative tolerance used throughout the crate when comparing power values.
pub const REL_EPS: f64 = 1e-9;
