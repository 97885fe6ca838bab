//! Sub-linear proportionality analysis of Pareto configurations
//! (paper §III-D).

use enprop_clustersim::ClusterSpec;
use enprop_core::{normalized_power_samples, ClusterModel};
use enprop_metrics::{classify_against, crossovers_against, GridSpec, Linearity};
use enprop_workloads::Workload;

/// Sub-linearity verdict for one configuration against a reference peak.
#[derive(Debug, Clone)]
pub struct SublinearReport {
    /// The configuration's label.
    pub label: String,
    /// Peak power as a percentage of the reference peak.
    pub peak_pct_of_reference: f64,
    /// Classification against the reference ideal line.
    pub linearity: Linearity,
    /// Utilizations where the curve crosses the reference ideal.
    pub crossovers: Vec<f64>,
    /// Modeled job service time, seconds.
    pub job_time: f64,
}

/// Classify `config` (running `workload`) against the ideal line of a
/// reference peak power (Figs. 9–10: the reference is the maximum
/// configuration, e.g. 32 A9 : 12 K10).
pub fn sublinear_report(
    workload: &Workload,
    config: &ClusterSpec,
    reference_peak_w: f64,
    grid: GridSpec,
) -> SublinearReport {
    let model = ClusterModel::new(workload.clone(), config.clone());
    let samples = normalized_power_samples(&model, reference_peak_w, grid);
    SublinearReport {
        label: config.label(),
        peak_pct_of_reference: 100.0 * model.busy_power_w() / reference_peak_w,
        linearity: classify_against(&samples, 100.0, grid, 1e-3),
        crossovers: crossovers_against(&samples, 100.0, grid),
        job_time: model.job_time(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enprop_workloads::catalog;

    const GRID: GridSpec = GridSpec { steps: 400 };

    fn reference_peak(workload: &Workload) -> f64 {
        ClusterModel::new(workload.clone(), ClusterSpec::a9_k10(32, 12)).busy_power_w()
    }

    #[test]
    fn fig9_crossover_structure_for_ep() {
        // §III-D: "(25 A9, 8 K10) is above the ideal proportionality, but
        // (25 A9, 7 K10) exhibits sub-linear proportionality for cluster
        // utilization of 50%".
        let w = catalog::by_name("EP").unwrap();
        let peak = reference_peak(&w);
        let r8 = sublinear_report(&w, &ClusterSpec::a9_k10(25, 8), peak, GRID);
        let r7 = sublinear_report(&w, &ClusterSpec::a9_k10(25, 7), peak, GRID);
        // (25,8) is still above ideal at u = 0.5; (25,7) is below.
        assert!(r8.crossovers.first().is_none_or(|&x| x > 0.5), "{:?}", r8.crossovers);
        assert_eq!(r7.linearity, Linearity::Mixed);
        assert!(
            r7.crossovers.first().is_some_and(|&x| x < 0.5),
            "(25,7) must be sub-linear by 50%: {:?}",
            r7.crossovers
        );
        // Fewer brawny nodes → lower peak percentage and slower jobs.
        assert!(r7.peak_pct_of_reference < r8.peak_pct_of_reference);
        assert!(r7.job_time > r8.job_time);
    }

    #[test]
    fn reference_config_never_goes_sublinear() {
        let w = catalog::by_name("EP").unwrap();
        let peak = reference_peak(&w);
        let r = sublinear_report(&w, &ClusterSpec::a9_k10(32, 12), peak, GRID);
        assert_eq!(r.linearity, Linearity::SuperLinear);
        assert!(r.crossovers.is_empty());
        assert!((r.peak_pct_of_reference - 100.0).abs() < 1e-9);
    }
}
