//! Host workload characterization: the living analogue of the paper's
//! `perf`-based measurement step.
//!
//! The paper characterizes each workload by running it on real nodes and
//! reading hardware counters. This module runs the executable
//! [`kernels`] on the *current host*, measures their
//! throughput, and converts that into per-op cycle demands for a
//! hypothetical node of a given clock — so a user can calibrate the model
//! for their own workloads the same way the paper did for its six.

use crate::demand::OpDemand;
use crate::kernels;
use std::time::Instant;

/// Throughput measurement of one kernel on the current host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostMeasurement {
    /// Operations completed.
    pub ops: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Throughput, ops/second.
    pub ops_per_sec: f64,
}

impl HostMeasurement {
    fn from_run(ops: u64, seconds: f64) -> Self {
        HostMeasurement {
            ops,
            seconds,
            ops_per_sec: if seconds > 0.0 { ops as f64 / seconds } else { f64::INFINITY },
        }
    }

    /// Convert to a per-op cycle demand for a node with `cores` cores at
    /// `freq` Hz, assuming the host measurement used `host_threads` threads
    /// of a `host_freq` Hz machine (the paper's cycles-per-op inversion).
    pub fn to_demand(&self, host_threads: usize, host_freq: f64) -> OpDemand {
        // enprop-lint: allow(unit-opaque) -- cycles/op = threads × Hz ÷ (ops/s); thread and cycle counts sit outside the dimension lattice
        let cycles_per_op = host_threads as f64 * host_freq / self.ops_per_sec;
        OpDemand::compute_only(cycles_per_op)
    }
}

/// Which kernel to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// NPB EP Monte-Carlo.
    Ep,
    /// Black–Scholes pricing.
    Blackscholes,
    /// SAD motion estimation.
    X264,
    /// KV store request serving.
    Memcached,
    /// GMM/Viterbi speech scoring.
    Julius,
    /// RSA-2048 verification.
    Rsa2048,
}

/// Problem size scaled by the interactive `scale` knob.
fn scaled(base: f64, scale: f64) -> u64 {
    (base * scale) as u64
}

/// Run one kernel with a size small enough for interactive use and return
/// the measured throughput. Deterministic inputs; wall-clock timing.
pub fn measure(kernel: Kernel, scale: f64) -> HostMeasurement {
    let scale = scale.clamp(0.01, 100.0);
    let t0 = Instant::now();
    let ops = match kernel {
        Kernel::Ep => kernels::ep::kernel(scaled(500_000.0, scale), 271_828_183, true).ops,
        Kernel::Blackscholes => {
            let opts = kernels::blackscholes::portfolio(scaled(200_000.0, scale) as usize, 42);
            kernels::blackscholes::kernel(&opts, true).ops
        }
        Kernel::X264 => {
            // enprop-lint: allow(float-int-cast) -- ⌈4·scale⌉ ≤ 400 frames; ceil keeps at least one frame
            let frames = (4.0 * scale).ceil() as usize;
            kernels::x264::kernel(320, 192, frames, 8, true).ops
        }
        Kernel::Memcached => {
            kernels::kvstore::kernel(10_000, scaled(100_000.0, scale) as usize, 1024, 7).ops
        }
        Kernel::Julius => kernels::julius::kernel(scaled(160_000.0, scale), 5).ops,
        Kernel::Rsa2048 => {
            // enprop-lint: allow(float-int-cast) -- ⌈8·scale⌉ ≤ 800 signatures; ceil keeps at least one
            let sigs = (8.0 * scale).ceil() as u64;
            kernels::rsa::kernel(sigs, 42, true).ops
        }
    };
    HostMeasurement::from_run(ops, t0.elapsed().as_secs_f64())
}

/// All six kernels, in catalog order.
pub const ALL_KERNELS: [Kernel; 6] = [
    Kernel::Ep,
    Kernel::Memcached,
    Kernel::X264,
    Kernel::Blackscholes,
    Kernel::Julius,
    Kernel::Rsa2048,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurements_report_positive_throughput() {
        for k in [Kernel::Ep, Kernel::Blackscholes] {
            let m = measure(k, 0.05);
            assert!(m.ops > 0);
            assert!(m.ops_per_sec > 0.0 && m.ops_per_sec.is_finite());
        }
    }

    #[test]
    fn demand_inversion_is_consistent() {
        let m = HostMeasurement::from_run(1_000_000, 2.0); // 500k ops/s
        let d = m.to_demand(4, 3.0e9);
        // 4 threads · 3 GHz / 500k ops/s = 24k cycles/op
        assert!((d.cycles_per_op - 24_000.0).abs() < 1e-6);
    }

    #[test]
    fn scale_clamps_pathological_values() {
        let m = measure(Kernel::Rsa2048, 0.0);
        assert!(m.ops >= 1);
    }
}
