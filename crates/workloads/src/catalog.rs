//! The calibrated six-workload catalog (paper §II-C, Tables 4, 6, 7).
//!
//! Each workload combines:
//! * demand fits from [`crate::calibration`] (reproducing Tables 6–7);
//! * a bottleneck [`Shape`] per node type, from
//!   the paper's qualitative discussion (EP embarrassingly parallel and
//!   compute-bound; memcached exerting "complex service demands on core,
//!   memory and I/O"; x264 memory-bound; blackscholes/Julius compute-heavy;
//!   RSA-2048 accelerated by the K10's crypto-friendly ISA);
//! * per-workload [`Frictions`] — the real-system effects whose mismatch
//!   with the analytic model produces the validation errors of Table 4;
//! * a job size (`ops_per_job`) setting the service-time scale of the
//!   response-time experiments (Figs. 11–12).

use crate::calibration::{fit_demand, paper_row, Shape};
use crate::demand::{NodeProfile, Workload};
use enprop_faults::EnpropError;
use enprop_nodesim::{Frictions, NodeSpec};

/// Shapes and frictions for one workload (A9 shape, K10 shape, frictions).
struct Recipe {
    name: &'static str,
    domain: &'static str,
    unit: &'static str,
    ops_per_job: f64,
    a9_shape: Shape,
    k10_shape: Shape,
    frictions: Frictions,
}

fn recipes() -> Vec<Recipe> {
    vec![
        Recipe {
            // NPB EP: Monte-Carlo random number generation, embarrassingly
            // parallel, negligible memory traffic.
            name: "EP",
            domain: "HPC",
            unit: "random numbers",
            ops_per_job: 3.0e7,
            a9_shape: Shape::Compute { mem_ratio: 0.05 },
            k10_shape: Shape::Compute { mem_ratio: 0.05 },
            frictions: Frictions {
                sched_imbalance: 0.025,
                os_jitter: 0.004,
                ooo_overlap: 0.98,
                power_excess: 0.26,
                meter_noise: 0.005,
                ..Frictions::default()
            },
        },
        Recipe {
            // memcached: the A9 saturates its 100 Mbps NIC; the K10 is
            // bounded by the per-node request-processing ceiling.
            name: "memcached",
            domain: "Web Server",
            unit: "bytes",
            ops_per_job: 1.0e7,
            a9_shape: Shape::IoBytes {
                cpu_frac: 0.25,
                mem_frac: 0.20,
                request_bytes: 1024.0,
            },
            k10_shape: Shape::IoRequests {
                cpu_frac: 0.20,
                mem_frac: 0.10,
                request_bytes: 1024.0,
            },
            frictions: Frictions {
                io_efficiency: 0.90,
                sched_imbalance: 0.02,
                os_jitter: 0.010,
                ooo_overlap: 0.95,
                power_excess: 0.02,
                meter_noise: 0.005,
                ..Frictions::default()
            },
        },
        Recipe {
            // x264 encoding is memory-bound (§III-A) — frames stream
            // through the controller; cores wait on motion-search data.
            name: "x264",
            domain: "Streaming video",
            unit: "frames",
            ops_per_job: 1800.0,
            a9_shape: Shape::Memory { core_frac: 0.85 },
            k10_shape: Shape::Memory { core_frac: 0.85 },
            frictions: Frictions {
                mem_contention: 0.145,
                sched_imbalance: 0.02,
                os_jitter: 0.008,
                power_excess: 0.08,
                meter_noise: 0.005,
                ..Frictions::default()
            },
        },
        Recipe {
            // blackscholes: closed-form pricing, compute-dominated with a
            // modest working set.
            name: "blackscholes",
            domain: "Financial",
            unit: "options",
            ops_per_job: 1.0e6,
            a9_shape: Shape::Compute { mem_ratio: 0.15 },
            k10_shape: Shape::Compute { mem_ratio: 0.15 },
            frictions: Frictions {
                sched_imbalance: 0.035,
                ooo_overlap: 0.97,
                os_jitter: 0.004,
                power_excess: 0.16,
                meter_noise: 0.005,
                ..Frictions::default()
            },
        },
        Recipe {
            // Julius speech recognition: GMM scoring (compute) against
            // acoustic models streamed from memory.
            name: "Julius",
            domain: "Speech recognition",
            unit: "samples",
            ops_per_job: 1.0e6,
            a9_shape: Shape::Compute { mem_ratio: 0.40 },
            k10_shape: Shape::Compute { mem_ratio: 0.40 },
            frictions: Frictions {
                ooo_overlap: 0.80,
                sched_imbalance: 0.115,
                os_jitter: 0.010,
                power_excess: -0.28,
                meter_noise: 0.005,
                ..Frictions::default()
            },
        },
        Recipe {
            // openssl RSA-2048 verify: pure modular arithmetic, tiny
            // working set, K10 ISA acceleration shows in its PPR.
            name: "RSA-2048",
            domain: "Web security",
            unit: "verifies",
            ops_per_job: 2.0e4,
            a9_shape: Shape::Compute { mem_ratio: 0.02 },
            k10_shape: Shape::Compute { mem_ratio: 0.02 },
            frictions: Frictions {
                sched_imbalance: 0.015,
                ooo_overlap: 0.995,
                os_jitter: 0.003,
                power_excess: 0.20,
                meter_noise: 0.005,
                ..Frictions::default()
            },
        },
    ]
}

fn build(recipe: Recipe) -> Workload {
    let row = paper_row(recipe.name)
        .unwrap_or_else(|| panic!("no paper calibration row for {}", recipe.name));
    let a9 = NodeSpec::cortex_a9();
    let k10 = NodeSpec::opteron_k10();
    let a9_fit = fit_demand(&a9, &row.a9, recipe.a9_shape);
    let k10_fit = fit_demand(&k10, &row.k10, recipe.k10_shape);
    // λ_I/O is a workload property; at most one node shape binds it.
    let io_rate = if k10_fit.io_rate > 0.0 {
        k10_fit.io_rate
    } else {
        a9_fit.io_rate
    };
    Workload {
        name: recipe.name,
        domain: recipe.domain,
        unit: recipe.unit,
        ops_per_job: recipe.ops_per_job,
        io_rate,
        profiles: vec![
            NodeProfile {
                spec: a9,
                demand: a9_fit.demand,
                frictions: recipe.frictions,
            },
            NodeProfile {
                spec: k10,
                demand: k10_fit.demand,
                frictions: recipe.frictions,
            },
        ],
    }
}

/// All six paper workloads, calibrated for the A9/K10 pair.
pub fn all() -> Vec<Workload> {
    recipes().into_iter().map(build).collect()
}

/// Look up one calibrated workload by name ("EP", "memcached", "x264",
/// "blackscholes", "Julius", "RSA-2048").
pub fn by_name(name: &str) -> Option<Workload> {
    recipes()
        .into_iter()
        .find(|r| r.name.eq_ignore_ascii_case(name))
        .map(build)
}

/// [`by_name`], with the miss as a typed configuration error that lists
/// the catalog — so callers propagate one diagnostic instead of
/// hand-rolling an unwrap or an exit.
pub fn try_by_name(name: &str) -> Result<Workload, EnpropError> {
    by_name(name).ok_or_else(|| {
        let names: Vec<&'static str> = recipes().iter().map(|r| r.name).collect();
        EnpropError::invalid_config(format!(
            "unknown workload {name:?}; the catalog has: {}",
            names.join(", ")
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::PAPER_ROWS;
    use crate::model::SingleNodeModel;

    #[test]
    fn catalog_has_all_six_workloads() {
        let names: Vec<&str> = all().iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "EP",
                "memcached",
                "x264",
                "blackscholes",
                "Julius",
                "RSA-2048"
            ]
        );
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(by_name("ep").is_some());
        assert!(by_name("rsa-2048").is_some());
        assert!(by_name("doom").is_none());
        assert!(try_by_name("Memcached").is_ok());
        let err = try_by_name("doom").unwrap_err();
        assert_eq!(err.exit_code(), 2, "unknown workload is a config error");
        let msg = err.to_string();
        assert!(msg.contains("doom") && msg.contains("memcached"), "{msg}");
    }

    #[test]
    fn every_workload_reproduces_table6_ppr() {
        for w in all() {
            let row = paper_row(w.name).unwrap();
            for (profile, targets) in [
                (w.try_profile("A9").unwrap(), &row.a9),
                (w.try_profile("K10").unwrap(), &row.k10),
            ] {
                let m = SingleNodeModel::new(&profile.spec, &profile.demand, w.io_rate);
                let ppr = m.ppr(profile.spec.cores, profile.spec.fmax());
                let err = (ppr - targets.ppr).abs() / targets.ppr;
                assert!(
                    err < 1e-6,
                    "{} on {}: PPR {ppr} vs {}",
                    w.name,
                    profile.spec.name,
                    targets.ppr
                );
            }
        }
    }

    #[test]
    fn every_workload_reproduces_table7_ipr() {
        for w in all() {
            let row = paper_row(w.name).unwrap();
            for (profile, targets) in [
                (w.try_profile("A9").unwrap(), &row.a9),
                (w.try_profile("K10").unwrap(), &row.k10),
            ] {
                let m = SingleNodeModel::new(&profile.spec, &profile.demand, w.io_rate);
                let p_busy = m.busy_power(profile.spec.cores, profile.spec.fmax());
                let ipr = profile.spec.power.sys_idle_w / p_busy;
                assert!(
                    (ipr - targets.ipr()).abs() < 1e-6,
                    "{} on {}: IPR {ipr} vs {}",
                    w.name,
                    profile.spec.name,
                    targets.ipr()
                );
            }
        }
    }

    #[test]
    fn a9_wins_ppr_except_rsa_and_x264() {
        // The §III-A observation that motivates heterogeneity.
        for row in &PAPER_ROWS {
            let a9_better = row.a9.ppr > row.k10.ppr;
            match row.name {
                "x264" | "RSA-2048" => assert!(!a9_better, "{}: K10 should win", row.name),
                _ => assert!(a9_better, "{}: A9 should win", row.name),
            }
        }
    }

    #[test]
    fn memcached_lambda_binds_only_k10() {
        let w = by_name("memcached").unwrap();
        assert!(w.io_rate > 0.0);
        let k10 = w.try_profile("K10").unwrap();
        let m = SingleNodeModel::new(&k10.spec, &k10.demand, w.io_rate);
        let t = m.time(1.0e6, 6, k10.spec.fmax());
        assert!(t.io > t.cpu, "K10 memcached must be I/O-bound");
        let a9 = w.try_profile("A9").unwrap();
        let m = SingleNodeModel::new(&a9.spec, &a9.demand, w.io_rate);
        let t = m.time(1.0e6, 4, a9.spec.fmax());
        // transfer-bound, not λ-bound
        let transfer = a9.demand.io_bytes_per_op * 1.0e6 / a9.spec.net_bandwidth;
        assert!((t.io - transfer).abs() < 1e-12 * transfer);
    }

    #[test]
    fn job_service_times_are_in_expected_regimes() {
        // x264 jobs are seconds-scale, EP jobs are tens-of-ms scale on the
        // Fig. 9/10 reference cluster — the contrast behind Figs. 11–12.
        let ep = by_name("EP").unwrap();
        let x264 = by_name("x264").unwrap();
        let cluster_thru = |w: &Workload| {
            let a9 = w.try_profile("A9").unwrap();
            let k10 = w.try_profile("K10").unwrap();
            let ma = SingleNodeModel::new(&a9.spec, &a9.demand, w.io_rate);
            let mk = SingleNodeModel::new(&k10.spec, &k10.demand, w.io_rate);
            32.0 * ma.throughput(4, a9.spec.fmax()) + 12.0 * mk.throughput(6, k10.spec.fmax())
        };
        let t_ep = ep.ops_per_job / cluster_thru(&ep);
        let t_x264 = x264.ops_per_job / cluster_thru(&x264);
        assert!(t_ep > 0.005 && t_ep < 0.1, "EP job {t_ep} s");
        assert!(t_x264 > 0.5 && t_x264 < 10.0, "x264 job {t_x264} s");
    }

    #[test]
    fn power_factors_are_physically_plausible() {
        for w in all() {
            for p in &w.profiles {
                let s = p.demand.act_power_scale;
                assert!(
                    (0.05..1.6).contains(&s),
                    "{} on {}: act_power_scale {s}",
                    w.name,
                    p.spec.name
                );
            }
        }
    }
}

/// **Extension beyond the paper's testbed**: calibrate the same workload
/// for two additional node types the paper's execution model explicitly
/// covers (§II-D lists Cortex-A15 and Intel Xeon class systems).
///
/// The paper published no measurements for these parts, so their targets
/// are *synthesized* from documented rules rather than inverted from
/// tables (flagged in DESIGN.md):
///
/// * **A15**: ~2.6× the A9's per-node throughput (4 wider cores at
///   1.8 GHz vs 1.4 GHz) and a 12-point better DPR (newer-generation
///   power gating), on the A9's bottleneck shape.
/// * **Xeon E5**: ~3.2× the K10's per-node throughput (8 cores, higher
///   IPC) and a 12-point better DPR, on the K10's bottleneck shape.
///
/// memcached is calibrated compute-shaped on the extended nodes so the
/// workload-level `λ_I/O` (which pins the *K10*) does not contradict their
/// higher targets.
pub fn extended(name: &str) -> Option<Workload> {
    let mut workload = by_name(name)?;
    let row = paper_row(workload.name)?;
    let recipe = recipes().into_iter().find(|r| r.name == workload.name)?;

    let synth = |idle_w: f64,
                 base: &crate::calibration::NodeTargets,
                 base_idle: f64,
                 thru_scale: f64,
                 dpr_bonus: f64| {
        let dpr_pct = (base.dpr_pct + dpr_bonus).min(95.0);
        let thru = base.peak_throughput(base_idle) * thru_scale;
        let peak = idle_w / (1.0 - dpr_pct / 100.0);
        crate::calibration::NodeTargets {
            dpr_pct,
            ppr: thru / peak,
        }
    };

    // For the extended nodes, I/O-bound shapes become compute-bound (see
    // doc comment); other shapes carry over from the base recipe.
    let adapt = |shape: Shape| match shape {
        Shape::IoBytes {
            cpu_frac, mem_frac, ..
        }
        | Shape::IoRequests {
            cpu_frac, mem_frac, ..
        } => Shape::Compute {
            mem_ratio: (mem_frac / cpu_frac.max(0.05)).min(1.0),
        },
        other => other,
    };

    let a15 = NodeSpec::cortex_a15();
    let a15_targets = synth(a15.power.sys_idle_w, &row.a9, 1.8, 2.6, 12.0);
    let a15_fit = fit_demand(&a15, &a15_targets, adapt(recipe.a9_shape));

    let xeon = NodeSpec::xeon_e5();
    let xeon_targets = synth(xeon.power.sys_idle_w, &row.k10, 45.0, 3.2, 12.0);
    let xeon_fit = fit_demand(&xeon, &xeon_targets, adapt(recipe.k10_shape));

    workload.profiles.push(NodeProfile {
        spec: a15,
        demand: a15_fit.demand,
        frictions: recipe.frictions,
    });
    workload.profiles.push(NodeProfile {
        spec: xeon,
        demand: xeon_fit.demand,
        frictions: recipe.frictions,
    });
    Some(workload)
}

/// **DALEK-style catalog**: [`extended`] plus two small-node types
/// (Raspberry Pi 4, Orange Pi 5) so configuration spaces can mix wimpy,
/// modern-wimpy and brawny parts — the unconventional heterogeneity of
/// *DALEK: An Unconventional & Energy-aware Heterogeneous Cluster*
/// (PAPERS.md). Six node types with independent count/cores/freq choices
/// push `count_configurations` past 10^7, the scale the streaming
/// evaluator exists for.
///
/// Synthesis rules (same documented-rule approach as [`extended`], both
/// starting from the A9 row because all four boards are in-order-ish ARM
/// parts):
///
/// * **Pi4**: ~1.9× the A9's per-node throughput (A72 at 1.5 GHz vs A9 at
///   1.4 GHz) and an 8-point better DPR, on the A9's bottleneck shape.
/// * **OPi5**: ~4.2× the A9's throughput (8 wider cores at 2.4 GHz) and a
///   14-point better DPR.
///
/// I/O-bound shapes become compute-bound exactly as in [`extended`].
pub fn dalek(name: &str) -> Option<Workload> {
    let mut workload = extended(name)?;
    let row = paper_row(workload.name)?;
    let recipe = recipes().into_iter().find(|r| r.name == workload.name)?;

    let synth = |idle_w: f64,
                 base: &crate::calibration::NodeTargets,
                 base_idle: f64,
                 thru_scale: f64,
                 dpr_bonus: f64| {
        let dpr_pct = (base.dpr_pct + dpr_bonus).min(95.0);
        let thru = base.peak_throughput(base_idle) * thru_scale;
        let peak = idle_w / (1.0 - dpr_pct / 100.0);
        crate::calibration::NodeTargets {
            dpr_pct,
            ppr: thru / peak,
        }
    };
    let adapt = |shape: Shape| match shape {
        Shape::IoBytes {
            cpu_frac, mem_frac, ..
        }
        | Shape::IoRequests {
            cpu_frac, mem_frac, ..
        } => Shape::Compute {
            mem_ratio: (mem_frac / cpu_frac.max(0.05)).min(1.0),
        },
        other => other,
    };

    let pi4 = NodeSpec::raspberry_pi4();
    let pi4_targets = synth(pi4.power.sys_idle_w, &row.a9, 1.8, 1.9, 8.0);
    let pi4_fit = fit_demand(&pi4, &pi4_targets, adapt(recipe.a9_shape));

    let opi5 = NodeSpec::orange_pi5();
    let opi5_targets = synth(opi5.power.sys_idle_w, &row.a9, 1.8, 4.2, 14.0);
    let opi5_fit = fit_demand(&opi5, &opi5_targets, adapt(recipe.a9_shape));

    workload.profiles.push(NodeProfile {
        spec: pi4,
        demand: pi4_fit.demand,
        frictions: recipe.frictions,
    });
    workload.profiles.push(NodeProfile {
        spec: opi5,
        demand: opi5_fit.demand,
        frictions: recipe.frictions,
    });
    Some(workload)
}

#[cfg(test)]
mod dalek_tests {
    use super::*;
    use crate::model::SingleNodeModel;

    #[test]
    fn dalek_catalog_has_six_profiles() {
        for name in [
            "EP",
            "memcached",
            "x264",
            "blackscholes",
            "Julius",
            "RSA-2048",
        ] {
            let w = dalek(name).unwrap();
            let nodes: Vec<&str> = w.profiles.iter().map(|p| p.spec.name).collect();
            assert_eq!(
                nodes,
                ["A9", "K10", "A15", "XeonE5", "Pi4", "OPi5"],
                "{name}"
            );
        }
    }

    #[test]
    fn dalek_synthesis_rules_hold() {
        let w = dalek("EP").unwrap();
        let thru = |node: &str| {
            let p = w.try_profile(node).unwrap();
            SingleNodeModel::new(&p.spec, &p.demand, w.io_rate)
                .throughput(p.spec.cores, p.spec.fmax())
        };
        assert!((thru("Pi4") / thru("A9") - 1.9).abs() < 1e-6);
        assert!((thru("OPi5") / thru("A9") - 4.2).abs() < 1e-6);
    }

    #[test]
    fn small_nodes_beat_a9_on_proportionality() {
        let w = dalek("blackscholes").unwrap();
        let ipr = |node: &str| {
            let p = w.try_profile(node).unwrap();
            let m = SingleNodeModel::new(&p.spec, &p.demand, w.io_rate);
            p.spec.power.sys_idle_w / m.busy_power(p.spec.cores, p.spec.fmax())
        };
        assert!(ipr("Pi4") < ipr("A9"), "Pi4 should beat A9 on IPR");
        assert!(ipr("OPi5") < ipr("Pi4"), "OPi5 should beat Pi4 on IPR");
    }
}

#[cfg(test)]
mod extended_tests {
    use super::*;
    use crate::model::SingleNodeModel;

    #[test]
    fn extended_catalog_has_four_profiles() {
        for name in [
            "EP",
            "memcached",
            "x264",
            "blackscholes",
            "Julius",
            "RSA-2048",
        ] {
            let w = extended(name).unwrap();
            let nodes: Vec<&str> = w.profiles.iter().map(|p| p.spec.name).collect();
            assert_eq!(nodes, ["A9", "K10", "A15", "XeonE5"], "{name}");
        }
    }

    #[test]
    fn synthesis_rules_hold() {
        let w = extended("EP").unwrap();
        let thru = |node: &str| {
            let p = w.try_profile(node).unwrap();
            SingleNodeModel::new(&p.spec, &p.demand, w.io_rate)
                .throughput(p.spec.cores, p.spec.fmax())
        };
        assert!((thru("A15") / thru("A9") - 2.6).abs() < 1e-6);
        assert!((thru("XeonE5") / thru("K10") - 3.2).abs() < 1e-6);
    }

    #[test]
    fn newer_nodes_are_more_proportional() {
        let w = extended("blackscholes").unwrap();
        let ipr = |node: &str| {
            let p = w.try_profile(node).unwrap();
            let m = SingleNodeModel::new(&p.spec, &p.demand, w.io_rate);
            p.spec.power.sys_idle_w / m.busy_power(p.spec.cores, p.spec.fmax())
        };
        assert!(ipr("A15") < ipr("A9"), "A15 should beat A9 on IPR");
        assert!(ipr("XeonE5") < ipr("K10"), "Xeon should beat K10 on IPR");
    }

    #[test]
    fn extended_memcached_is_not_lambda_bound() {
        let w = extended("memcached").unwrap();
        for node in ["A15", "XeonE5"] {
            let p = w.try_profile(node).unwrap();
            assert_eq!(p.demand.io_requests_per_op, 0.0, "{node}");
        }
        // ...while the original K10 remains λ-bound.
        assert!(w.io_rate > 0.0);
        assert!(w.try_profile("K10").unwrap().demand.io_requests_per_op > 0.0);
    }
}
