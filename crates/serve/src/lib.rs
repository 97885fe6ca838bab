//! Online serving mode: a fault-tolerant cluster controller in virtual time.
//!
//! Everything else in the workspace scores *static* configurations offline;
//! this crate closes the loop the ROADMAP's serving item asks for. A
//! discrete-event [`controller::Controller`] ingests a streaming arrival
//! trace ([`arrivals`]: synthetic Poisson / diurnal generators, or JSONL
//! replay via [`trace`]), dispatches requests across the heterogeneous
//! groups of a [`enprop_clustersim::ClusterSpec`], and keeps serving while
//! an `enprop-faults` [`enprop_faults::FaultPlan`] injects crashes, stalls
//! and stragglers mid-flight.
//!
//! Robustness is by construction (DESIGN.md §13):
//!
//! - per-dispatch timeouts with [`enprop_faults::RetryPolicy`] backoff and
//!   re-route across surviving nodes;
//! - health-check-driven node deactivation and re-admission;
//! - SLO-aware graceful degradation: admission control / load shedding and
//!   DVFS brownout when the p95 latency or the power cap is breached;
//! - a reconfiguration state machine (activate / deactivate nodes, DVFS
//!   steps) whose every decision is exported through `enprop-obs` on
//!   [`enprop_obs::Track::Controller`].
//!
//! The determinism contract matches the rest of the workspace: a fixed
//! `(config, trace, fault plan, seed)` tuple produces a bit-identical
//! [`report::ServeReport`] and telemetry stream, for any `Recorder` and on
//! any host. The conservation invariant — `arrivals = completions + shed +
//! in-flight` — is checked by [`report::ServeReport::conservation_ok`] and
//! property-tested by the chaos harness ([`chaos`]).
//!
//! DESIGN.md §16 layers correlated blast-radius failures on top: an
//! optional [`enprop_faults::TopologyFaultPlan`] injects rack crashes, PDU
//! losses, network partitions and cluster-wide power emergencies; the
//! controller answers with a graceful-degradation ladder, per-group
//! circuit breakers and bounded-queue backpressure. The same section
//! specifies crash-consistent checkpoint/resume: [`snapshot`] serializes
//! the complete controller state at obs-window boundaries, and
//! [`controller::Controller::resume_full`] continues a killed run
//! event-for-event and joule-for-joule identically.

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod arrivals;
pub mod chaos;
pub mod config;
pub mod controller;
mod inflight;
pub mod plane;
pub mod report;
pub mod snapshot;
pub mod trace;

pub use arrivals::{Arrival, ArrivalModel, ArrivalSource, SyntheticArrivals};
pub use chaos::{
    chaos_sweep, spans_balanced, sweep_domain_plan, sweep_plan, ChaosOutcome, PlanOutcome,
};
pub use config::ServeConfig;
pub use controller::{
    cluster_capacity_ops_s, default_ops_per_request, Controller, RunHooks, RunOutcome,
};
pub use plane::{GroupWindow, ObsPlane, PlaneGroupState, WindowReport};
pub use report::ServeReport;
pub use snapshot::SNAPSHOT_VERSION;
pub use trace::{format_trace, parse_trace, ReplayCursor};
