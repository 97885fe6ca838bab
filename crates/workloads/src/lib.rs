//! # enprop-workloads
//!
//! The six datacenter workloads of the CLUSTER'16 study (§II-C), in two
//! complementary forms:
//!
//! 1. **Calibrated service demands** ([`catalog`]): per-operation demand
//!    vectors (work cycles, memory cycles/bytes, network bytes/requests)
//!    for each node type, *inverted from the paper's published results* —
//!    Table 7's IPR column pins each workload's busy power on each node,
//!    Table 6's PPR column pins its peak throughput. The inversion is in
//!    [`calibration`], and tests assert the round trip reproduces the
//!    paper's tables.
//! 2. **Executable kernels** ([`kernels`]): real Rust implementations of
//!    each workload's computational core — an NPB-EP Monte-Carlo kernel, a
//!    sharded in-memory KV store with a memslap-style load generator, a
//!    SAD motion-estimation video kernel, a Black-Scholes pricer, a
//!    GMM/Viterbi speech-scoring kernel, and a from-scratch 2048-bit
//!    modular-exponentiation RSA verifier. These make the characterization
//!    pipeline runnable on a live host ([`characterize`]), exactly as the
//!    paper ran `perf` + a power meter on live boards.
//!
//! | Domain (§II-C)     | Program      | Unit of work   |
//! |--------------------|--------------|----------------|
//! | HPC                | EP (NPB)     | random numbers |
//! | Web server         | memcached    | bytes served   |
//! | Streaming video    | x264         | frames         |
//! | Financial          | blackscholes | options        |
//! | Speech recognition | Julius       | samples        |
//! | Web security       | RSA-2048     | verifies       |

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod builder;
pub mod cache;
pub mod calibration;
pub mod catalog;
pub mod characterize;
mod demand;
pub mod kernels;
pub mod loadgen;
mod model;

pub use demand::{NodeProfile, OpDemand, OperatingPoint, Workload};
pub use model::SingleNodeModel;
