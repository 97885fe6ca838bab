//! Measurement-driven calibration: inverting the paper's published tables
//! into per-operation service demands.
//!
//! The paper measured its nodes with a WT210 power meter and `perf`; we
//! have the *results* of those measurements (Tables 6 and 7 plus the idle
//! powers quoted in §III-B) and invert them:
//!
//! * `P_idle` — 1.8 W (A9) and 45 W (K10), §III-B;
//! * `P_peak(workload, node) = P_idle / IPR` with IPR from Table 7's DPR
//!   column (`IPR = 1 − DPR/100`, exact to the printed precision);
//! * `peak throughput(workload, node) = PPR × P_peak` with PPR from
//!   Table 6.
//!
//! [`fit_demand`] then solves for a demand vector whose analytic model
//! evaluation reproduces those targets exactly, given a qualitative
//! bottleneck *shape* per workload/node (EP is compute-bound, x264
//! memory-bound, memcached network-bound, …) taken from the paper's §II-C
//! and §III-A discussion.

use crate::demand::OpDemand;
use crate::model::SingleNodeModel;
use enprop_nodesim::NodeSpec;

/// Calibration targets for one workload on one node type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeTargets {
    /// Dynamic power range from Table 7, percent.
    pub dpr_pct: f64,
    /// Performance-to-power ratio from Table 6, (ops/s)/W.
    pub ppr: f64,
}

impl NodeTargets {
    /// Idle-to-peak ratio implied by the DPR column.
    pub fn ipr(&self) -> f64 {
        1.0 - self.dpr_pct / 100.0
    }

    /// Busy (peak) power implied for a node with the given idle power, W.
    pub fn peak_power_w(&self, idle_w: f64) -> f64 {
        idle_w / self.ipr()
    }

    /// Peak throughput implied by PPR × peak power, ops/s.
    pub fn peak_throughput(&self, idle_w: f64) -> f64 {
        self.ppr * self.peak_power_w(idle_w)
    }
}

/// Paper calibration rows (Tables 6 and 7) for the A9/K10 pair.
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    /// Program name.
    pub name: &'static str,
    /// Targets on the ARM Cortex-A9.
    pub a9: NodeTargets,
    /// Targets on the AMD Opteron K10.
    pub k10: NodeTargets,
}

/// The full calibration table transcribed from the paper.
pub const PAPER_ROWS: [PaperRow; 6] = [
    PaperRow {
        name: "EP",
        a9: NodeTargets {
            dpr_pct: 25.97,
            ppr: 6_048_057.0,
        },
        k10: NodeTargets {
            dpr_pct: 34.57,
            ppr: 1_414_922.0,
        },
    },
    PaperRow {
        name: "memcached",
        a9: NodeTargets {
            dpr_pct: 16.78,
            ppr: 5_224_004.0,
        },
        k10: NodeTargets {
            dpr_pct: 11.05,
            ppr: 268_067.0,
        },
    },
    PaperRow {
        name: "x264",
        a9: NodeTargets {
            dpr_pct: 35.54,
            ppr: 0.7,
        },
        k10: NodeTargets {
            dpr_pct: 38.41,
            ppr: 1.0,
        },
    },
    PaperRow {
        name: "blackscholes",
        a9: NodeTargets {
            dpr_pct: 32.11,
            ppr: 11_413.0,
        },
        k10: NodeTargets {
            dpr_pct: 37.30,
            ppr: 2_902.0,
        },
    },
    PaperRow {
        name: "Julius",
        a9: NodeTargets {
            dpr_pct: 30.48,
            ppr: 69_654.0,
        },
        k10: NodeTargets {
            dpr_pct: 38.10,
            ppr: 21_390.0,
        },
    },
    PaperRow {
        name: "RSA-2048",
        a9: NodeTargets {
            dpr_pct: 35.62,
            ppr: 968.0,
        },
        k10: NodeTargets {
            dpr_pct: 41.19,
            ppr: 1_091.0,
        },
    },
];

/// Look up a paper calibration row by program name.
pub fn paper_row(name: &str) -> Option<&'static PaperRow> {
    PAPER_ROWS.iter().find(|r| r.name == name)
}

/// Qualitative bottleneck shape of a workload on a node (from §II-C/III-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Core-bound: `T_core` sets the pace; `mem_ratio = T_mem/T_core ≤ 1`.
    Compute {
        /// Memory time as a fraction of core time.
        mem_ratio: f64,
    },
    /// Memory-bound: `T_mem` sets the pace; `core_frac = T_core/T_mem ≤ 1`
    /// (x264 "is memory-bound", §III-A).
    Memory {
        /// Core time as a fraction of memory time.
        core_frac: f64,
    },
    /// Network-transfer-bound: the NIC line rate sets the pace
    /// (memcached on the A9's 100 Mbps NIC).
    IoBytes {
        /// CPU time as a fraction of I/O time.
        cpu_frac: f64,
        /// Memory time as a fraction of I/O time.
        mem_frac: f64,
        /// Bytes per network request (memslap uses fixed sizes, §II-C).
        request_bytes: f64,
    },
    /// Request-rate-bound: the per-node request ceiling `λ_I/O` sets the
    /// pace (memcached on the K10: plenty of NIC, bounded by the stack).
    IoRequests {
        /// CPU time as a fraction of I/O time.
        cpu_frac: f64,
        /// Memory time as a fraction of I/O time.
        mem_frac: f64,
        /// Bytes per network request.
        request_bytes: f64,
    },
}

/// Fraction of the cycle-implied memory bandwidth that the byte stream
/// actually uses, keeping the cycle term the binding one at `fmax` (the
/// byte floor exists so the simulator punishes sub-`fmax` fantasies).
const MEM_BYTE_HEADROOM: f64 = 0.8;

/// Result of a demand fit, with the solved power factor for transparency.
#[derive(Debug, Clone, Copy)]
pub struct FittedDemand {
    /// The calibrated per-op demand.
    pub demand: OpDemand,
    /// The `λ_I/O` the fit implies for the workload (0 when unbound);
    /// only `Shape::IoRequests` produces a binding value.
    pub io_rate: f64,
}

/// Solve for the per-op demand on `spec` that makes the analytic model hit
/// `targets` exactly at the node's full configuration (all cores, `fmax`).
///
/// # Panics
/// Panics when the shape is infeasible for the targets (e.g. the solved
/// instruction-mix power factor leaves (0.05, 2.0), which would mean the
/// qualitative shape contradicts the paper's measured power).
pub fn fit_demand(spec: &NodeSpec, targets: &NodeTargets, shape: Shape) -> FittedDemand {
    let idle = spec.power.sys_idle_w;
    let p_peak = targets.peak_power_w(idle);
    let theta_ops_s = targets.peak_throughput(idle);
    assert!(theta_ops_s > 0.0, "peak throughput must be positive");
    let s_per_op = 1.0 / theta_ops_s;
    let c = spec.cores as f64;
    let f = spec.fmax();

    let (cycles, mem_cycles, io_bytes_per_op, io_requests, io_rate) = match shape {
        Shape::Compute { mem_ratio } => {
            assert!((0.0..=1.0).contains(&mem_ratio), "mem_ratio in [0,1]");
            (c * f * s_per_op, mem_ratio * f * s_per_op, 0.0, 0.0, 0.0)
        }
        Shape::Memory { core_frac } => {
            assert!((0.0..=1.0).contains(&core_frac), "core_frac in [0,1]");
            (core_frac * c * f * s_per_op, f * s_per_op, 0.0, 0.0, 0.0)
        }
        Shape::IoBytes {
            cpu_frac,
            mem_frac,
            request_bytes,
        } => {
            // enprop-lint: allow(unit-opaque) -- NodeSpec::net_bandwidth is the NIC line rate in B/s, so line rate × s/op = B/op
            let bytes_per_op = spec.net_bandwidth * s_per_op;
            (
                cpu_frac * c * f * s_per_op,
                mem_frac * f * s_per_op,
                bytes_per_op,
                bytes_per_op / request_bytes,
                0.0,
            )
        }
        Shape::IoRequests {
            cpu_frac,
            mem_frac,
            request_bytes,
        } => {
            // λ binds: requests/op ÷ λ = s_per_op, with the byte transfer kept
            // strictly below the line rate so it never binds.
            // enprop-lint: allow(unit-assign) -- this shape defines one op as one payload byte, so reqs/op = (1 B/op) ÷ (request_bytes B/req); the op ≡ B identification is deliberate
            let reqs_per_op = 1.0 / request_bytes;
            let lambda = reqs_per_op / s_per_op;
            let bytes_per_op = 1.0; // one op = one byte of payload
            assert!(
                bytes_per_op / spec.net_bandwidth < s_per_op,
                "byte transfer must not bind for an IoRequests shape"
            );
            (
                cpu_frac * c * f * s_per_op,
                mem_frac * f * s_per_op,
                bytes_per_op,
                reqs_per_op,
                lambda,
            )
        }
    };

    let mut demand = OpDemand {
        cycles_per_op: cycles,
        mem_cycles_per_op: mem_cycles,
        mem_bytes_per_op: mem_cycles / f * spec.mem_bandwidth * MEM_BYTE_HEADROOM,
        io_bytes_per_op,
        io_requests_per_op: io_requests,
        act_power_scale: 1.0,
    };

    // Solve the instruction-mix power factor so busy power hits P_peak:
    // P_busy(scale) = P_rest + scale · P_act_unit.
    let model = SingleNodeModel::new(spec, &demand, io_rate);
    let t_total = model.time(1.0, spec.cores, f).total;
    assert!(
        (t_total - s_per_op).abs() < 1e-9 * s_per_op,
        "shape failed to reproduce the target throughput: {t_total} vs {s_per_op}"
    );
    let e_unit = model.energy(1.0, spec.cores, f);
    let p_act_unit = e_unit.cpu_act / t_total;
    let p_rest = (e_unit.total() - e_unit.cpu_act) / t_total;
    let scale = (p_peak - p_rest) / p_act_unit;
    assert!(
        (0.05..2.0).contains(&scale),
        "{}: solved power factor {scale} out of range — shape inconsistent \
         with measured power (P_peak {p_peak} W, non-CPU power {p_rest} W)",
        spec.name
    );
    demand.act_power_scale = scale;

    FittedDemand { demand, io_rate }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_invert_table7() {
        // EP on K10: DPR 34.57 → IPR 0.6543, P_peak = 45/0.6543 ≈ 68.78 W.
        let row = paper_row("EP").unwrap();
        assert!((row.k10.ipr() - 0.6543).abs() < 1e-9);
        let p = row.k10.peak_power_w(45.0);
        assert!((p - 68.78).abs() < 0.01, "got {p}");
        // A9: 1.8/0.7403 ≈ 2.431 W.
        let p = row.a9.peak_power_w(1.8);
        assert!((p - 2.431).abs() < 0.01, "got {p}");
    }

    #[test]
    fn throughputs_are_ppr_times_peak() {
        let row = paper_row("blackscholes").unwrap();
        let th = row.a9.peak_throughput(1.8);
        // 11,413 × 2.651 ≈ 30.3k options/s
        assert!((th - 30_260.0).abs() / 30_260.0 < 0.01, "got {th}");
    }

    #[test]
    fn all_six_rows_present() {
        for name in [
            "EP",
            "memcached",
            "x264",
            "blackscholes",
            "Julius",
            "RSA-2048",
        ] {
            assert!(paper_row(name).is_some(), "{name} missing");
        }
        assert!(paper_row("nginx").is_none());
    }

    #[test]
    fn fit_reproduces_targets_compute_shape() {
        let spec = NodeSpec::opteron_k10();
        let row = paper_row("EP").unwrap();
        let fit = fit_demand(&spec, &row.k10, Shape::Compute { mem_ratio: 0.05 });
        let m = SingleNodeModel::new(&spec, &fit.demand, fit.io_rate);
        let thru = m.throughput(6, spec.fmax());
        let want = row.k10.peak_throughput(45.0);
        assert!((thru - want).abs() / want < 1e-9, "thru {thru} vs {want}");
        let p = m.busy_power(6, spec.fmax());
        let want_p = row.k10.peak_power_w(45.0);
        assert!((p - want_p).abs() / want_p < 1e-9, "P {p} vs {want_p}");
    }

    #[test]
    fn fit_reproduces_targets_memory_shape() {
        let spec = NodeSpec::cortex_a9();
        let row = paper_row("x264").unwrap();
        let fit = fit_demand(&spec, &row.a9, Shape::Memory { core_frac: 0.85 });
        let m = SingleNodeModel::new(&spec, &fit.demand, fit.io_rate);
        let want = row.a9.peak_throughput(1.8);
        assert!((m.throughput(4, spec.fmax()) - want).abs() / want < 1e-9);
        let want_p = row.a9.peak_power_w(1.8);
        assert!((m.busy_power(4, spec.fmax()) - want_p).abs() / want_p < 1e-9);
    }

    #[test]
    fn fit_reproduces_targets_io_shapes() {
        // memcached: A9 transfer-bound, K10 request-bound.
        let row = paper_row("memcached").unwrap();
        let a9 = NodeSpec::cortex_a9();
        let fit = fit_demand(
            &a9,
            &row.a9,
            Shape::IoBytes {
                cpu_frac: 0.25,
                mem_frac: 0.2,
                request_bytes: 1024.0,
            },
        );
        let m = SingleNodeModel::new(&a9, &fit.demand, fit.io_rate);
        let want = row.a9.peak_throughput(1.8);
        assert!((m.throughput(4, a9.fmax()) - want).abs() / want < 1e-9);

        let k10 = NodeSpec::opteron_k10();
        let fit = fit_demand(
            &k10,
            &row.k10,
            Shape::IoRequests {
                cpu_frac: 0.2,
                mem_frac: 0.1,
                request_bytes: 1024.0,
            },
        );
        assert!(fit.io_rate > 0.0, "λ must bind for the K10");
        let m = SingleNodeModel::new(&k10, &fit.demand, fit.io_rate);
        let want = row.k10.peak_throughput(45.0);
        assert!((m.throughput(6, k10.fmax()) - want).abs() / want < 1e-9);
        let want_p = row.k10.peak_power_w(45.0);
        assert!((m.busy_power(6, k10.fmax()) - want_p).abs() / want_p < 1e-9);
    }

    #[test]
    fn memcached_a9_is_near_line_rate() {
        // Sanity check of the §III-A story: the A9 serves ~11.3 MB/s on a
        // 12.5 MB/s NIC — the wimpy node is transfer-bound.
        let row = paper_row("memcached").unwrap();
        let th = row.a9.peak_throughput(1.8);
        assert!(th > 0.85 * 12.5e6 && th < 12.5e6, "A9 memcached {th} B/s");
    }

    #[test]
    #[should_panic(expected = "power factor")]
    fn infeasible_shape_panics() {
        // RSA's high power on a shape with almost no active cycles.
        let spec = NodeSpec::opteron_k10();
        let row = paper_row("RSA-2048").unwrap();
        let _ = fit_demand(
            &spec,
            &row.k10,
            Shape::IoRequests {
                cpu_frac: 0.01,
                mem_frac: 0.0,
                request_bytes: 1.0e9,
            },
        );
    }
}
