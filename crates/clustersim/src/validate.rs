//! Model-vs-simulation validation (paper Table 4): the analytic model's
//! predicted job time and energy against the simulator's "measured"
//! values, as percentage errors.

use crate::cluster::ClusterSpec;
use crate::run::ClusterSim;
use enprop_faults::EnpropError;
use enprop_obs::{NoopRecorder, Recorder};
use enprop_workloads::Workload;

/// Table-4 style validation row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationReport {
    /// Model-predicted job time, seconds.
    pub model_time: f64,
    /// Simulated ("measured") job time, seconds.
    pub sim_time: f64,
    /// Model-predicted job energy, joules.
    pub model_energy: f64,
    /// Simulated job energy, joules.
    pub sim_energy: f64,
    /// `|model − sim| / sim` time error, percent.
    pub time_error_pct: f64,
    /// `|model − sim| / sim` energy error, percent.
    pub energy_error_pct: f64,
}

/// Validate the model against `samples` simulated jobs on `cluster`,
/// reporting a typed error for an empty cluster or a missing profile. The
/// model columns are the Table-2 composition over the simulator's own
/// rate-matched split, the split `ClusterModel` composes too. The sampled
/// jobs land on `rec` back-to-back from sim-time zero with per-node spans
/// and power samples; the report is bit-identical for any `R`.
pub fn try_validate<R: Recorder>(
    workload: &Workload,
    cluster: &ClusterSpec,
    samples: usize,
    seed: u64,
    rec: &mut R,
) -> Result<ValidationReport, EnpropError> {
    let sim = ClusterSim::try_new(workload, cluster)?;
    let ops = workload.ops_per_job;
    let model_time = sim.split().job_time(ops);
    let model_energy = sim.split().job_energy(ops);
    let run = sim.sample_jobs_obs(samples, seed, 0.0, rec);
    Ok(ValidationReport {
        model_time,
        sim_time: run.duration,
        model_energy,
        sim_energy: run.energy,
        time_error_pct: 100.0 * (model_time - run.duration).abs() / run.duration,
        energy_error_pct: 100.0 * (model_energy - run.energy).abs() / run.energy,
    })
}

/// Validate the model against `samples` simulated jobs on `cluster`.
///
/// # Panics
/// Panics when the cluster is empty or a profile is missing. Use
/// [`try_validate`] for a typed error.
pub fn validate(
    workload: &Workload,
    cluster: &ClusterSpec,
    samples: usize,
    seed: u64,
) -> ValidationReport {
    try_validate(workload, cluster, samples, seed, &mut NoopRecorder)
        .unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use enprop_nodesim::Frictions;
    use enprop_workloads::catalog;

    /// Reference validation cluster (a small lab-scale mix, like the
    /// paper's testbed).
    fn reference() -> ClusterSpec {
        ClusterSpec::a9_k10(4, 2)
    }

    #[test]
    fn frictionless_simulation_matches_model_closely() {
        // With frictions removed the simulator *is* the model (up to chunk
        // scheduling granularity): errors must be well under 1%.
        let mut w = catalog::by_name("EP").unwrap();
        for p in &mut w.profiles {
            p.frictions = Frictions::default();
        }
        let r = validate(&w, &reference(), 3, 42);
        assert!(r.time_error_pct < 1.0, "time err {}", r.time_error_pct);
        assert!(
            r.energy_error_pct < 1.0,
            "energy err {}",
            r.energy_error_pct
        );
    }

    #[test]
    fn table4_errors_within_paper_bands() {
        // Paper Table 4 (model vs measured, %): generous 2× bands around
        // the published values — the simulator's frictions are calibrated,
        // not fitted per-run.
        let cases = [
            ("EP", 3.0, 10.0),
            ("memcached", 10.0, 8.0),
            ("x264", 11.0, 10.0),
            ("blackscholes", 4.0, 7.0),
            ("Julius", 13.0, 1.0),
            ("RSA-2048", 2.0, 8.0),
        ];
        for (name, t_paper, e_paper) in cases {
            let w = catalog::by_name(name).unwrap();
            let r = validate(&w, &reference(), 5, 7);
            assert!(
                r.time_error_pct <= 2.0 * t_paper + 2.0,
                "{name}: time error {:.1}% vs paper {t_paper}%",
                r.time_error_pct
            );
            assert!(
                r.energy_error_pct <= 2.0 * e_paper + 3.0,
                "{name}: energy error {:.1}% vs paper {e_paper}%",
                r.energy_error_pct
            );
            // The model must not be *perfect* either — the frictions exist.
            assert!(
                r.time_error_pct + r.energy_error_pct > 0.3,
                "{name}: suspiciously perfect validation"
            );
        }
    }

    #[test]
    fn model_time_is_never_above_sim_time() {
        // Frictions only ever slow the system down, so the friction-free
        // model is an optimistic bound.
        for name in ["EP", "x264", "blackscholes"] {
            let w = catalog::by_name(name).unwrap();
            let r = validate(&w, &reference(), 3, 1);
            assert!(
                r.model_time <= r.sim_time * 1.001,
                "{name}: model {} vs sim {}",
                r.model_time,
                r.sim_time
            );
        }
    }
}

#[cfg(test)]
mod scaling_tests {
    use super::*;
    use enprop_workloads::catalog;

    /// Validation errors must be stable across cluster sizes — the
    /// frictions are per-node effects, so scaling out the cluster should
    /// not blow up the model-vs-measured gap (calibration robustness).
    #[test]
    fn validation_errors_stable_across_cluster_sizes() {
        let w = catalog::by_name("EP").unwrap();
        let mut errors = Vec::new();
        for (a9, k10) in [(2u32, 1u32), (4, 2), (8, 4), (16, 8)] {
            let r = validate(&w, &ClusterSpec::a9_k10(a9, k10), 3, 11);
            errors.push(r.time_error_pct);
        }
        let min = errors.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = errors.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            max - min < 4.0,
            "time error drifts with cluster size: {errors:?}"
        );
        assert!(max < 8.0, "EP time errors out of band: {errors:?}");
    }
}
