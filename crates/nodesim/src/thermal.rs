//! **Extension beyond the paper**: thermal throttling.
//!
//! The paper's nodes are small enough (5 W / 60 W class) that sustained
//! operation at `fmax` is thermally safe, so its model has no thermal
//! term. Denser modern parts throttle: when sustained power exceeds the
//! cooling budget, the part drops to a lower DVFS state after the thermal
//! capacitance is exhausted. This wrapper composes two simulator runs —
//! a full-speed burst for the thermal headroom window, then the remainder
//! at the next-lower frequency — which is exactly the sustained/burst
//! behaviour datasheets describe.

use crate::node::{Frictions, NodeRun, NodeSim, NodeWork, TimeBreakdown};
use crate::power::EnergyBreakdown;

/// Thermal envelope of a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    /// Sustained (cooling-limited) power budget, watts.
    pub tdp_w: f64,
    /// How long the thermal mass absorbs above-TDP operation, seconds.
    pub headroom_s: f64,
}

/// Run `work` under a thermal envelope: start at the requested frequency;
/// if the run's average power exceeds the TDP, only the first
/// `headroom_s` proceeds at full speed and the remaining work re-runs at
/// the next-lower DVFS level (recursively, if still above budget).
///
/// Returns the composed run plus the frequency the node settled at.
pub fn run_with_thermal(
    sim: &NodeSim,
    work: &NodeWork,
    cores: u32,
    freq: f64,
    frictions: &Frictions,
    thermal: &ThermalModel,
    seed: u64,
) -> (NodeRun, f64) {
    let full = sim.run(work, cores, freq, frictions, seed);
    if full.avg_power_w <= thermal.tdp_w || full.duration <= thermal.headroom_s {
        return (full, freq);
    }
    // Find the next-lower DVFS level; at fmin the part simply runs hot at
    // its floor (real parts hard-limit here too).
    let spec = sim.spec();
    let lower = spec
        .frequencies
        .iter()
        .copied()
        .filter(|&f| f < freq)
        .fold(f64::NAN, f64::max);
    if lower.is_nan() {
        return (full, freq);
    }

    // Burst phase: the fraction of work completed inside the headroom.
    let burst_fraction = if full.duration > 0.0 {
        (thermal.headroom_s / full.duration).min(1.0)
    } else {
        1.0
    };
    let burst = sim.run(&work.scaled(burst_fraction), cores, freq, frictions, seed);
    let (rest, settled) = run_with_thermal(
        sim,
        &work.scaled(1.0 - burst_fraction),
        cores,
        lower,
        frictions,
        thermal,
        seed.wrapping_add(1),
    );

    let duration = burst.duration + rest.duration;
    let energy = EnergyBreakdown {
        cpu_act: burst.energy.cpu_act + rest.energy.cpu_act,
        cpu_stall: burst.energy.cpu_stall + rest.energy.cpu_stall,
        mem: burst.energy.mem + rest.energy.mem,
        net: burst.energy.net + rest.energy.net,
        idle: burst.energy.idle + rest.energy.idle,
    };
    (
        NodeRun {
            duration,
            avg_power_w: energy.total() / duration,
            energy,
            time: TimeBreakdown {
                cpu: burst.time.cpu + rest.time.cpu,
                mem: burst.time.mem + rest.time.mem,
                io: burst.time.io + rest.time.io,
            },
        },
        settled,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NodeSpec;

    fn compute_work(secs_at_fmax: f64, spec: &NodeSpec) -> NodeWork {
        NodeWork {
            act_cycles: spec.cores as f64 * spec.fmax() * secs_at_fmax,
            ..Default::default()
        }
    }

    #[test]
    fn unconstrained_model_never_throttles() {
        let spec = NodeSpec::opteron_k10();
        let sim = NodeSim::new(spec.clone());
        let work = compute_work(5.0, &spec);
        let base = sim.run(&work, spec.cores, spec.fmax(), &Frictions::default(), 0);
        let (run, f) = run_with_thermal(
            &sim,
            &work,
            spec.cores,
            spec.fmax(),
            &Frictions::default(),
            // An infinite budget: never throttles.
            &ThermalModel { tdp_w: f64::INFINITY, headroom_s: 0.0 },
            0,
        );
        assert_eq!(f, spec.fmax());
        assert_eq!(run.duration, base.duration);
        assert_eq!(run.energy.total(), base.energy.total());
    }

    #[test]
    fn tight_budget_throttles_down_and_slows_the_run() {
        let spec = NodeSpec::opteron_k10();
        let sim = NodeSim::new(spec.clone());
        let work = compute_work(10.0, &spec);
        let base = sim.run(&work, spec.cores, spec.fmax(), &Frictions::default(), 0);
        // Budget below the all-core fmax power, above the idle floor.
        let thermal = ThermalModel {
            tdp_w: base.avg_power_w * 0.8,
            headroom_s: 2.0,
        };
        let (run, f) = run_with_thermal(
            &sim,
            &work,
            spec.cores,
            spec.fmax(),
            &Frictions::default(),
            &thermal,
            0,
        );
        assert!(f < spec.fmax(), "should settle below fmax");
        assert!(run.duration > base.duration, "throttling must cost time");
        assert!(
            run.avg_power_w < base.avg_power_w,
            "sustained power must drop"
        );
    }

    #[test]
    fn short_bursts_fit_in_the_headroom() {
        let spec = NodeSpec::opteron_k10();
        let sim = NodeSim::new(spec.clone());
        let work = compute_work(1.0, &spec); // 1 s burst
        let thermal = ThermalModel {
            tdp_w: 50.0, // below fmax power
            headroom_s: 2.0,
        };
        let (run, f) = run_with_thermal(
            &sim,
            &work,
            spec.cores,
            spec.fmax(),
            &Frictions::default(),
            &thermal,
            0,
        );
        assert_eq!(f, spec.fmax(), "burst shorter than headroom keeps fmax");
        assert!((run.duration - 1.0).abs() < 1e-9);
    }

    #[test]
    fn floor_frequency_is_a_hard_limit() {
        let spec = NodeSpec::cortex_a9();
        let sim = NodeSim::new(spec.clone());
        let work = compute_work(5.0, &spec);
        // Impossible budget: even fmin exceeds it → settles at fmin.
        let thermal = ThermalModel {
            tdp_w: 0.1,
            headroom_s: 0.5,
        };
        let (_, f) = run_with_thermal(
            &sim,
            &work,
            spec.cores,
            spec.fmax(),
            &Frictions::default(),
            &thermal,
            0,
        );
        assert_eq!(f, spec.fmin());
    }

    #[test]
    fn energy_composes_across_phases() {
        let spec = NodeSpec::opteron_k10();
        let sim = NodeSim::new(spec.clone());
        let work = compute_work(6.0, &spec);
        let thermal = ThermalModel {
            tdp_w: 60.0,
            headroom_s: 1.0,
        };
        let (run, _) = run_with_thermal(
            &sim,
            &work,
            spec.cores,
            spec.fmax(),
            &Frictions::default(),
            &thermal,
            0,
        );
        assert!(
            (run.avg_power_w * run.duration - run.energy.total()).abs()
                < 1e-9 * run.energy.total()
        );
    }
}
