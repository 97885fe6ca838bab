//! Node hardware specifications (paper Table 5).

use crate::power::PowerSpec;

/// Static description of one node type.
///
/// Frequencies are in Hz, bandwidths in bytes/second, cache sizes in bytes.
/// The built-in [`NodeSpec::cortex_a9`] and [`NodeSpec::opteron_k10`]
/// reproduce the paper's Table 5; the footnote-4 configuration count
/// depends on the DVFS level counts (5 for the ARM node, 3 for the AMD).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Human-readable node name (e.g. "A9").
    pub name: &'static str,
    /// Instruction-set architecture label (informational).
    pub isa: &'static str,
    /// Number of physical cores.
    pub cores: u32,
    /// Selectable core clock frequencies in Hz, ascending.
    pub frequencies: Vec<f64>,
    /// L1 data cache per core, bytes.
    pub l1d_per_core: u64,
    /// L2 cache (total), bytes.
    pub l2_total: u64,
    /// L3 cache (total), bytes; 0 when absent.
    pub l3_total: u64,
    /// Main memory, bytes.
    pub memory: u64,
    /// Sustainable memory bandwidth, bytes/second.
    pub mem_bandwidth: f64,
    /// Network I/O bandwidth, bytes/second.
    pub net_bandwidth: f64,
    /// Component power model.
    pub power: PowerSpec,
}

impl NodeSpec {
    /// The wimpy node: ARM Cortex-A9, ARMv7-A, 4 cores, 0.2–1.4 GHz,
    /// 32 KB L1d/core, 1 MB shared L2, 1 GB LP-DDR2, 100 Mbps NIC.
    ///
    /// Power calibration: 1.8 W idle (paper §III-B); dynamic parameters
    /// sized so per-workload busy power spans the 2.17–2.81 W range implied
    /// by Table 7's IPR column with nameplate headroom up to 5 W.
    pub fn cortex_a9() -> Self {
        NodeSpec {
            name: "A9",
            isa: "ARMv7-A",
            cores: 4,
            frequencies: vec![0.2e9, 0.5e9, 0.8e9, 1.1e9, 1.4e9],
            l1d_per_core: 32 << 10,
            l2_total: 1 << 20,
            l3_total: 0,
            memory: 1 << 30,
            mem_bandwidth: 1.5e9,         // LP-DDR2 sustainable
            net_bandwidth: 100.0e6 / 8.0, // 100 Mbps
            power: PowerSpec {
                sys_idle_w: 1.8,
                core_act_w: 0.32,
                core_stall_w: 0.11,
                mem_w: 0.20,
                net_w: 0.25,
                freq_exp: 1.9,
            },
        }
    }

    /// The brawny node: AMD Opteron K10, x86-64, 6 cores, 0.8–2.1 GHz,
    /// 64 KB L1d/core, 512 KB L2/core, 6 MB L3, 8 GB DDR3, 1 Gbps NIC.
    ///
    /// Power calibration: 45 W idle (paper §III-B); dynamic parameters
    /// sized for the 50.6–76.3 W per-workload busy-power range implied by
    /// Table 7 against the ~60 W nameplate.
    pub fn opteron_k10() -> Self {
        NodeSpec {
            name: "K10",
            isa: "x86_64",
            cores: 6,
            frequencies: vec![0.8e9, 1.45e9, 2.1e9],
            l1d_per_core: 64 << 10,
            l2_total: 6 * (512 << 10),
            l3_total: 6 << 20,
            memory: 8 << 30,
            mem_bandwidth: 8.0e9,          // DDR3 sustainable
            net_bandwidth: 1000.0e6 / 8.0, // 1 Gbps
            power: PowerSpec {
                sys_idle_w: 45.0,
                core_act_w: 5.6,
                core_stall_w: 2.1,
                mem_w: 3.5,
                net_w: 1.2,
                freq_exp: 1.9,
            },
        }
    }

    /// An ARM Cortex-A15 class node (extension beyond the paper's testbed,
    /// listed in §II-D as covered by the execution model).
    pub fn cortex_a15() -> Self {
        NodeSpec {
            name: "A15",
            isa: "ARMv7-A",
            cores: 4,
            frequencies: vec![0.6e9, 1.0e9, 1.4e9, 1.8e9],
            l1d_per_core: 32 << 10,
            l2_total: 2 << 20,
            l3_total: 0,
            memory: 2 << 30,
            mem_bandwidth: 3.0e9,
            net_bandwidth: 1000.0e6 / 8.0,
            power: PowerSpec {
                sys_idle_w: 3.2,
                core_act_w: 1.1,
                core_stall_w: 0.4,
                mem_w: 0.5,
                net_w: 0.4,
                freq_exp: 2.1,
            },
        }
    }

    /// An Intel Xeon class node (extension; §II-D lists Xeon as covered).
    pub fn xeon_e5() -> Self {
        NodeSpec {
            name: "XeonE5",
            isa: "x86_64",
            cores: 8,
            frequencies: vec![1.2e9, 1.8e9, 2.4e9, 2.9e9],
            l1d_per_core: 32 << 10,
            l2_total: 8 * (256 << 10),
            l3_total: 20 << 20,
            memory: 32u64 << 30,
            mem_bandwidth: 40.0e9,
            net_bandwidth: 10_000.0e6 / 8.0,
            power: PowerSpec {
                sys_idle_w: 60.0,
                core_act_w: 9.0,
                core_stall_w: 3.4,
                mem_w: 8.0,
                net_w: 4.0,
                freq_exp: 2.0,
            },
        }
    }

    /// A Raspberry Pi 4 class node (DALEK-style unconventional cluster
    /// building block): Cortex-A72, 4 cores, 0.6–1.5 GHz, 4 GB LPDDR4,
    /// gigabit NIC. Power calibration follows published board-level
    /// measurements: ~2.1 W idle, ~6 W package peak.
    pub fn raspberry_pi4() -> Self {
        NodeSpec {
            name: "Pi4",
            isa: "ARMv8-A",
            cores: 4,
            frequencies: vec![0.6e9, 1.0e9, 1.5e9],
            l1d_per_core: 32 << 10,
            l2_total: 1 << 20,
            l3_total: 0,
            memory: 4u64 << 30,
            mem_bandwidth: 4.0e9,          // LPDDR4 sustainable
            net_bandwidth: 1000.0e6 / 8.0, // 1 Gbps
            power: PowerSpec {
                sys_idle_w: 2.1,
                core_act_w: 0.55,
                core_stall_w: 0.18,
                mem_w: 0.30,
                net_w: 0.35,
                freq_exp: 2.0,
            },
        }
    }

    /// An Orange Pi 5 class node (RK3588-style big core cluster treated as
    /// 8 uniform cores): 0.8–2.4 GHz, 8 GB LPDDR4X, gigabit NIC. Idle
    /// ~3.4 W, peak ~10 W — the "wimpy but modern" point of a DALEK mix.
    pub fn orange_pi5() -> Self {
        NodeSpec {
            name: "OPi5",
            isa: "ARMv8.2-A",
            cores: 8,
            frequencies: vec![0.8e9, 1.4e9, 1.8e9, 2.4e9],
            l1d_per_core: 64 << 10,
            l2_total: 2 << 20,
            l3_total: 3 << 20,
            memory: 8u64 << 30,
            mem_bandwidth: 8.0e9,          // LPDDR4X sustainable
            net_bandwidth: 1000.0e6 / 8.0, // 1 Gbps
            power: PowerSpec {
                sys_idle_w: 3.4,
                core_act_w: 0.70,
                core_stall_w: 0.22,
                mem_w: 0.45,
                net_w: 0.35,
                freq_exp: 2.1,
            },
        }
    }

    /// Highest selectable core frequency, Hz.
    pub fn fmax(&self) -> f64 {
        *self
            .frequencies
            .last()
            .expect("NodeSpec must define at least one frequency")
    }

    /// Lowest selectable core frequency, Hz.
    pub fn fmin(&self) -> f64 {
        *self
            .frequencies
            .first()
            .expect("NodeSpec must define at least one frequency")
    }

    /// Validate a `(cores, frequency)` operating point against this spec.
    pub fn validate_operating_point(&self, cores: u32, freq: f64) -> Result<(), String> {
        if cores == 0 || cores > self.cores {
            return Err(format!(
                "{}: requested {cores} active cores, node has {}",
                self.name, self.cores
            ));
        }
        let ok = self
            .frequencies
            .iter()
            .any(|&f| (f - freq).abs() < 1e-6 * f.max(1.0));
        if !ok {
            return Err(format!(
                "{}: frequency {freq} Hz is not a DVFS level of this node",
                self.name
            ));
        }
        Ok(())
    }

    /// Nameplate peak power: everything active at `fmax` (used for power
    /// budgeting; the paper quotes ~5 W for A9, ~60 W for K10).
    pub fn nameplate_peak_w(&self) -> f64 {
        self.power
            .busy_power(self.cores, 1.0, self.fmax(), self.fmax())
            + self.power.mem_w
            + self.power.net_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a9_matches_table5() {
        let a9 = NodeSpec::cortex_a9();
        assert_eq!(a9.cores, 4);
        assert_eq!(a9.frequencies.len(), 5, "footnote 4: 5 ARM DVFS levels");
        assert_eq!(a9.fmin(), 0.2e9);
        assert_eq!(a9.fmax(), 1.4e9);
        assert_eq!(a9.l1d_per_core, 32 * 1024);
        assert_eq!(a9.l2_total, 1024 * 1024);
        assert_eq!(a9.l3_total, 0, "A9 has no L3");
        assert_eq!(a9.memory, 1 << 30);
    }

    #[test]
    fn k10_matches_table5() {
        let k10 = NodeSpec::opteron_k10();
        assert_eq!(k10.cores, 6);
        assert_eq!(k10.frequencies.len(), 3, "footnote 4: 3 AMD DVFS levels");
        assert_eq!(k10.fmin(), 0.8e9);
        assert_eq!(k10.fmax(), 2.1e9);
        assert_eq!(k10.l3_total, 6 << 20);
        assert_eq!(k10.memory, 8u64 << 30);
    }

    #[test]
    fn nameplate_powers_bracket_paper_quotes() {
        // Paper: A9 peak "only 5 W", K10 "about 60 W".
        let a9 = NodeSpec::cortex_a9().nameplate_peak_w();
        assert!(a9 > 2.5 && a9 < 5.5, "A9 nameplate {a9} W");
        let k10 = NodeSpec::opteron_k10().nameplate_peak_w();
        assert!(k10 > 55.0 && k10 < 85.0, "K10 nameplate {k10} W");
    }

    #[test]
    fn idle_powers_match_section_iii_b() {
        // "idle power of A9 (≈1.8 W) is at least 25 times lower than K10 (≈45 W)"
        let a9 = NodeSpec::cortex_a9();
        let k10 = NodeSpec::opteron_k10();
        assert_eq!(a9.power.sys_idle_w, 1.8);
        assert_eq!(k10.power.sys_idle_w, 45.0);
        assert!(k10.power.sys_idle_w / a9.power.sys_idle_w >= 25.0);
    }

    #[test]
    fn small_node_specs_are_wimpy_and_valid() {
        for spec in [NodeSpec::raspberry_pi4(), NodeSpec::orange_pi5()] {
            assert!(spec
                .validate_operating_point(spec.cores, spec.fmax())
                .is_ok());
            let nameplate = spec.nameplate_peak_w();
            assert!(
                nameplate > spec.power.sys_idle_w && nameplate < 15.0,
                "{}: nameplate {nameplate} W",
                spec.name
            );
        }
        // DALEK premise: board idle far below the brawny node's.
        assert!(NodeSpec::raspberry_pi4().power.sys_idle_w < 3.0);
        assert!(NodeSpec::orange_pi5().power.sys_idle_w < 5.0);
    }

    #[test]
    fn operating_point_validation() {
        let a9 = NodeSpec::cortex_a9();
        assert!(a9.validate_operating_point(4, 1.4e9).is_ok());
        assert!(a9.validate_operating_point(1, 0.2e9).is_ok());
        assert!(a9.validate_operating_point(5, 1.4e9).is_err());
        assert!(a9.validate_operating_point(0, 1.4e9).is_err());
        assert!(a9.validate_operating_point(4, 1.3e9).is_err());
    }

    #[test]
    fn io_bandwidth_asymmetry() {
        // Table 5: A9 100 Mbps vs K10 1 Gbps.
        let a9 = NodeSpec::cortex_a9();
        let k10 = NodeSpec::opteron_k10();
        assert!((k10.net_bandwidth / a9.net_bandwidth - 10.0).abs() < 1e-9);
    }
}

impl NodeSpec {
    /// Build a validated custom node type (for users modeling their own
    /// hardware alongside the built-ins).
    ///
    /// # Panics
    /// Panics on empty/unsorted frequency lists, zero cores, or
    /// non-positive bandwidths.
    #[allow(clippy::too_many_arguments)]
    pub fn custom(
        name: &'static str,
        isa: &'static str,
        cores: u32,
        frequencies: Vec<f64>,
        mem_bandwidth: f64,
        net_bandwidth: f64,
        power: PowerSpec,
    ) -> Self {
        assert!(cores >= 1, "a node needs at least one core");
        assert!(!frequencies.is_empty(), "at least one DVFS level required");
        assert!(
            frequencies.windows(2).all(|w| w[0] < w[1]),
            "frequencies must be strictly ascending"
        );
        assert!(frequencies[0] > 0.0, "frequencies must be positive");
        assert!(mem_bandwidth > 0.0 && net_bandwidth > 0.0);
        assert!(power.sys_idle_w >= 0.0 && power.core_act_w > 0.0);
        NodeSpec {
            name,
            isa,
            cores,
            frequencies,
            l1d_per_core: 32 << 10,
            l2_total: 1 << 20,
            l3_total: 0,
            memory: 4u64 << 30,
            mem_bandwidth,
            net_bandwidth,
            power,
        }
    }
}

#[cfg(test)]
mod custom_tests {
    use super::*;

    #[test]
    fn custom_node_is_usable_end_to_end() {
        let spec = NodeSpec::custom(
            "RISCV64",
            "rv64gc",
            8,
            vec![0.8e9, 1.2e9, 1.6e9],
            4.0e9,
            1.25e8,
            PowerSpec {
                sys_idle_w: 2.5,
                core_act_w: 0.6,
                core_stall_w: 0.2,
                mem_w: 0.4,
                net_w: 0.3,
                freq_exp: 2.0,
            },
        );
        assert!(spec.validate_operating_point(8, 1.6e9).is_ok());
        let sim = crate::NodeSim::new(spec.clone());
        let work = crate::NodeWork {
            act_cycles: 8.0 * 1.6e9,
            ..Default::default()
        };
        let run = sim.run(&work, 8, 1.6e9, &crate::Frictions::default(), 0);
        assert!((run.duration - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_frequencies_rejected() {
        let _ = NodeSpec::custom(
            "bad",
            "x",
            1,
            vec![2.0e9, 1.0e9],
            1.0e9,
            1.0e8,
            NodeSpec::cortex_a9().power,
        );
    }
}
