//! Analysis helpers behind the paper's tables and figures: per-node metric
//! rows (Table 7), best-PPR configuration sweeps (Table 6), cluster rows
//! (Table 8), and the reference-normalized power curves of Figs. 9–10.

use crate::cluster_model::ClusterModel;
use enprop_faults::EnpropError;
use enprop_metrics::{GridSpec, PowerCurve, ProportionalityMetrics, SampledCurve};
use enprop_workloads::{SingleNodeModel, Workload};

/// One row of the single-node proportionality table (Table 7).
#[derive(Debug, Clone)]
pub struct NodeMetricsRow {
    /// Workload name.
    pub workload: &'static str,
    /// Node type name.
    pub node: &'static str,
    /// The Table-3 metrics at full cores / fmax.
    pub metrics: ProportionalityMetrics,
}

/// Table-7 row for one workload on one node type, reporting a typed error
/// when the node has no calibrated profile.
pub fn try_single_node_row(
    workload: &Workload,
    node_name: &str,
) -> Result<NodeMetricsRow, EnpropError> {
    let node = workload.try_profile(node_name)?.spec.name;
    let model = ClusterModel::try_single_node(workload.clone(), node_name)?;
    Ok(NodeMetricsRow {
        workload: workload.name,
        node,
        metrics: model.metrics(),
    })
}

/// Table-7 row for one workload on one node type.
///
/// # Panics
/// Panics when the node has no calibrated profile. Use
/// [`try_single_node_row`] for a typed error.
pub fn single_node_row(workload: &Workload, node_name: &str) -> NodeMetricsRow {
    try_single_node_row(workload, node_name).unwrap_or_else(|e| panic!("{e}"))
}

/// The analytic single-node model for a workload/node pair at an arbitrary
/// operating point, reporting a typed error when the node has no
/// calibrated profile.
pub fn try_single_node_model<'a>(
    workload: &'a Workload,
    node_name: &str,
) -> Result<SingleNodeModel<'a>, EnpropError> {
    let profile = workload.try_profile(node_name)?;
    Ok(SingleNodeModel::new(
        &profile.spec,
        &profile.demand,
        workload.io_rate,
    ))
}

/// The most energy-efficient (highest-PPR) operating point of one node
/// type for one workload (Table 6's "most energy-efficient configuration
/// per type of node").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestPpr {
    /// Active cores of the winning configuration.
    pub cores: u32,
    /// Core frequency of the winning configuration, Hz.
    pub freq: f64,
    /// The winning PPR, (ops/s)/W.
    pub ppr: f64,
    /// Throughput at the winning configuration, ops/s.
    pub throughput: f64,
}

/// Sweep every `(cores, frequency)` pair of the node and return the
/// PPR-optimal one, reporting a typed error when the node has no
/// calibrated profile.
pub fn try_best_ppr_config(
    workload: &Workload,
    node_name: &str,
) -> Result<BestPpr, EnpropError> {
    let profile = workload.try_profile(node_name)?;
    let model = try_single_node_model(workload, node_name)?;
    let mut best: Option<BestPpr> = None;
    for c in 1..=profile.spec.cores {
        for &f in &profile.spec.frequencies {
            let ppr = model.ppr(c, f);
            if best.is_none_or(|b| ppr > b.ppr) {
                best = Some(BestPpr {
                    cores: c,
                    freq: f,
                    ppr,
                    throughput: model.throughput(c, f),
                });
            }
        }
    }
    Ok(best.expect("node spec has at least one operating point"))
}

/// Sweep every `(cores, frequency)` pair of the node and return the
/// PPR-optimal one.
///
/// # Panics
/// Panics when the node has no calibrated profile. Use
/// [`try_best_ppr_config`] for a typed error.
pub fn best_ppr_config(workload: &Workload, node_name: &str) -> BestPpr {
    try_best_ppr_config(workload, node_name).unwrap_or_else(|e| panic!("{e}"))
}

/// Power curve of `model` normalized against an external reference peak
/// (percent of `reference_peak_w`), sampled on `grid` — the y-axis of
/// Figs. 9 and 10, where every Pareto configuration is plotted against the
/// *maximum* configuration's peak so that smaller mixes can fall below the
/// ideal line (sub-linear proportionality, §III-D).
pub fn normalized_power_samples(
    model: &ClusterModel,
    reference_peak_w: f64,
    grid: GridSpec,
) -> SampledCurve {
    assert!(reference_peak_w > 0.0, "reference peak must be positive");
    let curve = model.power_curve();
    SampledCurve::new(
        grid.points()
            .map(|u| (u, 100.0 * curve.power(u) / reference_peak_w))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use enprop_clustersim::ClusterSpec;
    use enprop_metrics::{classify_against, crossovers_against, Linearity};
    use enprop_workloads::catalog;

    #[test]
    fn table7_rows_match_paper_for_all_workloads() {
        // (workload, A9 DPR, K10 DPR) from Table 7.
        let rows = [
            ("EP", 25.97, 34.57),
            ("memcached", 16.78, 11.05),
            ("x264", 35.54, 38.41),
            ("blackscholes", 32.11, 37.30),
            ("Julius", 30.48, 38.10),
            ("RSA-2048", 35.62, 41.19),
        ];
        for (name, a9_dpr, k10_dpr) in rows {
            let w = catalog::by_name(name).unwrap();
            let a9 = single_node_row(&w, "A9").metrics;
            let k10 = single_node_row(&w, "K10").metrics;
            assert!((a9.dpr - a9_dpr).abs() < 0.01, "{name} A9 DPR {}", a9.dpr);
            assert!((k10.dpr - k10_dpr).abs() < 0.01, "{name} K10 DPR {}", k10.dpr);
            // §III-B collapse: EPM = LDR = 1 − IPR.
            assert!((a9.epm - (1.0 - a9.ipr)).abs() < 1e-6);
            assert!((k10.ldr - k10.epm).abs() < 1e-9);
        }
    }

    #[test]
    fn k10_more_proportional_but_a9_lower_absolute_power() {
        // The §III-B tension the paper highlights.
        for name in ["EP", "x264", "blackscholes", "Julius", "RSA-2048"] {
            let w = catalog::by_name(name).unwrap();
            let a9 = single_node_row(&w, "A9").metrics;
            let k10 = single_node_row(&w, "K10").metrics;
            assert!(k10.dpr > a9.dpr, "{name}: K10 should have larger DPR");
            assert!(a9.idle_w * 25.0 <= k10.idle_w, "{name}: absolute gap");
        }
        // memcached is the one exception in Table 7 (A9 more proportional).
        let w = catalog::by_name("memcached").unwrap();
        assert!(single_node_row(&w, "A9").metrics.dpr > single_node_row(&w, "K10").metrics.dpr);
    }

    #[test]
    fn best_ppr_uses_full_configuration_for_these_workloads() {
        // With idle power dominating both nodes, the PPR-optimal operating
        // point is all cores at fmax — which is why calibrating Table 6 at
        // the full configuration is consistent.
        for name in ["EP", "blackscholes", "RSA-2048"] {
            let w = catalog::by_name(name).unwrap();
            for node in ["A9", "K10"] {
                let best = best_ppr_config(&w, node);
                let spec = &w.try_profile(node).unwrap().spec;
                assert_eq!(best.cores, spec.cores, "{name} on {node}");
                assert_eq!(best.freq, spec.fmax(), "{name} on {node}");
                // And therefore the best PPR matches Table 6.
                let m = try_single_node_model(&w, node).unwrap();
                assert!((best.ppr - m.ppr(spec.cores, spec.fmax())).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn normalized_curves_expose_sublinearity_of_reduced_mixes() {
        // Fig. 9: against the (32 A9, 12 K10) reference peak, the
        // (25 A9, 7 K10) mix crosses below the ideal line near u = 50%,
        // while (25 A9, 8 K10) stays above at that utilization.
        let w = catalog::by_name("EP").unwrap();
        let grid = GridSpec::new(200);
        let reference = ClusterModel::new(w.clone(), ClusterSpec::a9_k10(32, 12));
        let ref_peak = reference.busy_power_w();

        let below = ClusterModel::new(w.clone(), ClusterSpec::a9_k10(25, 7));
        let c_below = normalized_power_samples(&below, ref_peak, grid);
        // percent-of-peak at u=0.5 < 50% → sub-linear at that utilization
        assert!(
            c_below.power(0.5) < 50.0,
            "(25,7) at 50% load: {}%",
            c_below.power(0.5)
        );

        let above = ClusterModel::new(w.clone(), ClusterSpec::a9_k10(25, 8));
        let c_above = normalized_power_samples(&above, ref_peak, grid);
        assert!(
            c_above.power(0.5) > 50.0,
            "(25,8) at 50% load: {}%",
            c_above.power(0.5)
        );

        // The reference itself is super-linear everywhere (it has idle
        // power). All curves are in percent-of-reference-peak, so the
        // external ideal line is `100 · u`.
        let c_ref = normalized_power_samples(&reference, ref_peak, grid);
        assert_eq!(classify_against(&c_ref, 100.0, grid, 1e-3), Linearity::SuperLinear);
        // The reduced mix transitions: super-linear at low u, sub-linear later.
        assert_eq!(classify_against(&c_below, 100.0, grid, 1e-3), Linearity::Mixed);
        let xs = crossovers_against(&c_below, 100.0, grid);
        assert_eq!(xs.len(), 1);
        assert!(xs[0] > 0.3 && xs[0] < 0.55, "crossover at {}", xs[0]);
    }

    #[test]
    #[should_panic(expected = "reference peak")]
    fn zero_reference_peak_rejected() {
        let w = catalog::by_name("EP").unwrap();
        let m = ClusterModel::single_node(w, "A9");
        let _ = normalized_power_samples(&m, 0.0, GridSpec::new(10));
    }
}

/// Hsu & Poole ablation (paper §IV cites \[17]: "most modern servers follow
/// a quadratic trend"): the same workload/node endpoints, but with a
/// quadratic power curve between idle and peak. Returns the metrics under
/// the linear model and under the quadratic curve — showing which of the
/// Table-3 metrics are endpoint-only (DPR, IPR: identical) and which see
/// the curve's interior (EPM, literal LDR: diverge).
pub fn quadratic_ablation(
    workload: &Workload,
    node_name: &str,
    curvature: f64,
) -> QuadraticAblation {
    let model = ClusterModel::single_node(workload.clone(), node_name);
    let linear = model.power_curve();
    let quadratic = enprop_metrics::QuadraticCurve::new(linear.idle, linear.peak, curvature);
    QuadraticAblation {
        curvature,
        linear: ProportionalityMetrics::of(&linear),
        quadratic: ProportionalityMetrics::of(&quadratic),
    }
}

/// Result of [`quadratic_ablation`].
#[derive(Debug, Clone, Copy)]
pub struct QuadraticAblation {
    /// Curvature used for the quadratic curve (−1..1).
    pub curvature: f64,
    /// Metrics under the paper's linear model curve.
    pub linear: ProportionalityMetrics,
    /// Metrics under the Hsu & Poole quadratic curve.
    pub quadratic: ProportionalityMetrics,
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use enprop_workloads::catalog;

    #[test]
    fn endpoint_metrics_are_curve_blind() {
        let w = catalog::by_name("EP").unwrap();
        for curv in [-0.6, -0.2, 0.3, 0.8] {
            let a = quadratic_ablation(&w, "K10", curv);
            assert!((a.linear.dpr - a.quadratic.dpr).abs() < 1e-9);
            assert!((a.linear.ipr - a.quadratic.ipr).abs() < 1e-9);
        }
    }

    #[test]
    fn interior_metrics_see_the_curvature() {
        let w = catalog::by_name("EP").unwrap();
        // Positive curvature bows the curve below the chord: less energy
        // at mid-utilization → higher EPM; negative curvature the reverse.
        let convex = quadratic_ablation(&w, "K10", 0.5);
        assert!(convex.quadratic.epm > convex.linear.epm + 0.01);
        let concave = quadratic_ablation(&w, "K10", -0.5);
        assert!(concave.quadratic.epm < concave.linear.epm - 0.01);
        // The literal chord-LDR is zero for linear, nonzero for quadratic.
        assert!(convex.linear.ldr_literal.abs() < 1e-9);
        assert!(convex.quadratic.ldr_literal < -0.01);
    }

    #[test]
    fn zero_curvature_is_the_identity_ablation() {
        let w = catalog::by_name("x264").unwrap();
        let a = quadratic_ablation(&w, "A9", 0.0);
        assert!((a.linear.epm - a.quadratic.epm).abs() < 1e-9);
    }
}
