//! # enprop-queueing
//!
//! Queueing-theoretic substrate for the CLUSTER'16 energy-proportionality
//! study. The paper models job arrivals at a cluster dispatcher as an
//! **M/D/1** queue: Poisson arrivals with rate `λ_job`, a deterministic
//! service time `T_P` (the modeled execution time of one job on the chosen
//! configuration), one dispatcher. Cluster utilization is `U = T_P · λ_job`
//! (§II-B), and the 95th-percentile response times of Figs. 11–12 are
//! quantiles of the M/D/1 response-time distribution.
//!
//! This crate provides:
//!
//! * exact M/D/1 analytics — Pollaczek–Khinchine means and the classical
//!   Erlang/Crommelin waiting-time distribution with a numerically stable
//!   exponential-tail fallback ([`MD1`]);
//! * M/M/1 ([`MM1`]) and M/G/1 ([`MG1`]) baselines with closed forms used to
//!   cross-validate the simulator;
//! * multi-server M/M/c and M/D/c ([`MMc`], [`MDc`], extension) for
//!   replicated front-end dispatchers, with an M/D/c simulation kept in
//!   the tests as the oracle for the M/D/c approximation;
//! * batch arrivals ([`BatchMD1`]) for the paper's jobs-per-batch
//!   utilization sweeps (§II-C);
//! * a discrete-event FIFO queue simulator ([`QueueSim`]) that produces
//!   empirical response-time quantiles. It is the workspace's one
//!   single-server FIFO loop: batches run in it as
//!   [`ArrivalProcess::PoissonBatches`], and the cluster dispatcher as an
//!   empirical pool of simulated job times ([`ServiceProcess::Empirical`]);
//! * streaming statistics ([`OnlineStats`], [`P2Quantile`]) shared by the
//!   cluster simulator.
//!
//! ```
//! use enprop_queueing::{Queue, MD1};
//!
//! // A 10 ms job stream at 80% utilization.
//! let q = MD1::from_utilization(0.010, 0.8);
//! let p95 = q.response_time_quantile(0.95);
//! assert!(p95 > q.mean_response_time());
//! ```

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod batch;
mod des;
mod md1;
mod mdc;
mod mg1;
mod mm1;
mod stats;

pub use batch::BatchMD1;
pub use des::{ArrivalProcess, QueueSim, ServiceProcess, SimResult};
pub use md1::MD1;
pub use mdc::{MDc, MMc};
pub use mg1::MG1;
pub use mm1::MM1;
pub use stats::{exact_quantile, OnlineStats, P2Quantile};

/// Common interface of the analytic single-server queues.
pub trait Queue {
    /// Offered load `ρ = λ · E[S]`; must be `< 1` for stability.
    fn rho(&self) -> f64;
    /// Mean waiting time in queue (excluding service), seconds.
    fn mean_wait(&self) -> f64;
    /// Mean response time `E[W] + E[S]`, seconds.
    fn mean_response_time(&self) -> f64;
    /// Mean number of jobs waiting in queue (Little's law `Lq = λ·Wq`).
    fn mean_queue_length(&self) -> f64;
}
