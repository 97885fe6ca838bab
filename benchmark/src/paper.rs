//! `paper_all`: one iteration regenerates the data behind `enprop all`
//! through the library — Table 4 (seeded simulation), Tables 6–8,
//! Figs. 5–12, the energy strategies, and an M/D/1 DES cross-check.
//!
//! Chosen because it is the paper's own path: the work sits in core,
//! queueing, nodesim and clustersim, and almost none in explore or serve.

use crate::golden::{self, Digest};
use crate::trace::{LayerTimes, Tracer};
use crate::{Bench, Layers};
use enprop_clustersim::ClusterSpec;
use enprop_core::{
    best_ppr_config, normalized_power_samples, quadratic_ablation, single_node_row, table4,
    ClusterModel,
};
use enprop_explore::{budget_mixes, DynamicEnvelope, SleepManagedCluster, SleepPolicy};
use enprop_metrics::{energy_proportionality_metric, GridSpec, PowerCurve, ProportionalityMetrics};
use enprop_queueing::{QueueSim, MD1};
use enprop_workloads::{catalog, Workload};

/// Simulated jobs per Table 4 cell, as `enprop all` runs it.
const TABLE4_SAMPLES: usize = 5;
/// Largest allowed |reproduced − paper| Table 4 error, percentage points.
/// Over seeds 0..200 000 the largest cell gap is 3.28 pp (median 2.09),
/// so a 3 pp band would fail about one seed in a thousand.
pub const TABLE4_TOL_PP: f64 = 4.0;
/// Measured jobs of the DES cross-check (plus a tenth as warm-up).
const DES_JOBS: usize = 20_000;
/// Utilization of the DES cross-check.
const DES_U: f64 = 0.5;
/// Largest allowed relative gap between the DES p95 and the Crommelin
/// closed form. Over seeds 0..100 000 at `DES_JOBS` jobs and `DES_U`, the
/// gap has median 1.3%, p99.99 7.3% and maximum 8.4%.
pub const DES_P95_TOL: f64 = 0.15;

/// The Figs. 9–12 Pareto mixes (≤ 32 A9, ≤ 12 K10).
fn pareto_mixes() -> Vec<ClusterSpec> {
    [(32, 12), (25, 10), (25, 8), (25, 7), (25, 5)]
        .into_iter()
        .map(|(a, k)| ClusterSpec::a9_k10(a, k))
        .collect()
}

fn utilization_grid() -> Vec<f64> {
    (1..=10).map(|i| f64::from(i) / 10.0).collect()
}

fn response_grid() -> Vec<f64> {
    (4..=19).map(|i| f64::from(i) / 20.0).collect()
}

fn metrics_digest(d: &mut Digest, m: &ProportionalityMetrics) {
    for v in [
        m.idle_w,
        m.peak_w,
        m.dpr,
        m.ipr,
        m.epm,
        m.ldr_literal,
        m.ldr,
    ] {
        d.f64(v);
    }
}

/// The seed-independent artifacts of one regeneration, in golden-file
/// order.
pub const ARTIFACTS: [&str; 12] = [
    "table6",
    "table7",
    "table8",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "strategies",
];

/// State of the `paper_all` workload.
pub struct PaperAll {
    seed: u64,
    workloads: Vec<Workload>,
    ep: Workload,
    x264: Workload,
    budget: Vec<ClusterSpec>,
    pareto: Vec<ClusterSpec>,
    ugrid: Vec<f64>,
    rgrid: Vec<f64>,
    des_service_s: f64,
    des_p95_closed_s: f64,
    /// Largest Table 4 gap of iteration 0 (the run's own seed).
    gap_pp: f64,
}

impl PaperAll {
    /// Build the inputs. Everything but the Table 4 and DES seeds is
    /// fixed by the paper.
    pub fn new(seed: u64) -> Self {
        let workloads = catalog::all();
        let find = |n: &str| {
            workloads
                .iter()
                .find(|w| w.name == n)
                .cloned()
                .expect("paper workload is in the catalog")
        };
        let ep = find("EP");
        let x264 = find("x264");
        let des_service_s = ClusterModel::new(ep.clone(), ClusterSpec::a9_k10(25, 7)).job_time();
        PaperAll {
            seed,
            des_p95_closed_s: MD1::from_utilization(des_service_s, DES_U)
                .response_time_quantile(0.95),
            des_service_s,
            budget: budget_mixes(1000.0, 4),
            pareto: pareto_mixes(),
            ugrid: utilization_grid(),
            rgrid: response_grid(),
            workloads,
            ep,
            x264,
            gap_pp: 0.0,
        }
    }

    /// Regenerate every seed-independent artifact once, returning its
    /// digests in [`ARTIFACTS`] order.
    pub fn artifacts(&self, t: &mut Tracer) -> [Digest; 12] {
        let mut d = [Digest::new(); 12];
        let [t6, t7, t8, f5, f6, f7, f8, f9, f10, f11, f12, strat] = &mut d;
        t.span("core.single_node", || {
            for w in &self.workloads {
                for node in ["A9", "K10"] {
                    let b = best_ppr_config(w, node);
                    t6.u64(u64::from(b.cores));
                    for v in [b.freq, b.ppr, b.throughput] {
                        t6.f64(v);
                    }
                    metrics_digest(t7, &single_node_row(w, node).metrics);
                }
            }
            for w in [&self.ep, &self.x264] {
                for node in ["K10", "A9"] {
                    let m = ClusterModel::single_node(w.clone(), node);
                    let curve = m.power_curve();
                    let ppr = m.ppr_curve();
                    for &u in &self.ugrid {
                        f5.f64(curve.normalized(u));
                        f6.f64(ppr.ppr(u));
                    }
                }
            }
        });
        t.span("core.cluster_metrics", || {
            for w in &self.workloads {
                for mix in &self.budget {
                    let m = ClusterModel::new(w.clone(), mix.clone());
                    metrics_digest(t8, &m.metrics());
                    if w.name == "EP" {
                        let curve = m.power_curve();
                        let ppr = m.ppr_curve();
                        for &u in &self.ugrid {
                            f7.f64(curve.normalized(u));
                            f8.f64(ppr.ppr(u));
                        }
                    }
                }
            }
        });
        t.span("core.power_samples", || {
            for (w, fig) in [(&self.ep, &mut *f9), (&self.x264, &mut *f10)] {
                let ref_peak = ClusterModel::new(w.clone(), self.pareto[0].clone()).busy_power_w();
                for mix in &self.pareto {
                    let m = ClusterModel::new(w.clone(), mix.clone());
                    let samples = normalized_power_samples(&m, ref_peak, GridSpec::new(100));
                    for &u in &self.ugrid {
                        fig.f64(samples.power(u));
                    }
                }
            }
        });
        t.span("queueing.md1_p95", || {
            for (w, fig) in [(&self.ep, &mut *f11), (&self.x264, &mut *f12)] {
                for mix in &self.pareto {
                    let m = ClusterModel::new(w.clone(), mix.clone());
                    for &u in &self.rgrid {
                        fig.f64(m.p95_response_time(u));
                    }
                }
            }
        });
        t.span("explore.strategies", || {
            let grid = GridSpec::new(100);
            let envelope = DynamicEnvelope::shed_brawny_ladder(&self.ep, 32, 12);
            strat.f64(energy_proportionality_metric(
                &envelope.power_curve(grid),
                grid,
            ));
            let sleepers =
                SleepManagedCluster::homogeneous(&self.ep, "K10", 16, SleepPolicy::barely_alive());
            strat.f64(energy_proportionality_metric(
                &sleepers.power_curve(grid),
                grid,
            ));
            for &u in &self.ugrid {
                strat.f64(envelope.serve(u).1);
                strat.f64(sleepers.power_at(u));
            }
            strat.f64(sleepers.p95_response_time(0.3, 0.0));
            strat.f64(sleepers.p95_response_time(0.3, 0.5));
            for node in ["A9", "K10"] {
                for curv in [-0.4, 0.0, 0.4] {
                    let a = quadratic_ablation(&self.ep, node, curv);
                    metrics_digest(strat, &a.linear);
                    metrics_digest(strat, &a.quadratic);
                }
            }
        });
        d
    }
}

impl Bench for PaperAll {
    fn iter(&mut self, i: u64, t: &mut Tracer) -> Result<f64, String> {
        let seed = self.seed.wrapping_add(i);
        let rows = t.span("core.table4", || table4(TABLE4_SAMPLES, seed));
        let digests = self.artifacts(t);
        let des_p95_s = t.span("queueing.des", || {
            QueueSim::md1(self.des_service_s, DES_U)
                .run(DES_JOBS, DES_JOBS / 10, seed)
                .response_quantile(0.95)
        });

        let mut gap_pp = 0.0f64;
        for r in &rows {
            for (got, paper) in [
                (r.report.time_error_pct, r.paper_errors.0),
                (r.report.energy_error_pct, r.paper_errors.1),
            ] {
                let gap = (got - paper).abs();
                gap_pp = gap_pp.max(gap);
                if gap > TABLE4_TOL_PP || !got.is_finite() {
                    return Err(format!(
                        "table4 seed {seed}: {} error {got:.2}% is more than {TABLE4_TOL_PP} pp from the paper's {paper}%",
                        r.program
                    ));
                }
            }
        }
        if i == 0 {
            self.gap_pp = gap_pp;
        }
        for (name, got) in ARTIFACTS.iter().zip(digests) {
            golden::check(golden::PAPER_ALL, name, got)?;
        }
        let p95 = des_p95_s.ok_or("DES produced no samples")?;
        let rel = (p95 - self.des_p95_closed_s).abs() / self.des_p95_closed_s;
        if rel.is_nan() || rel > DES_P95_TOL {
            return Err(format!(
                "DES seed {seed}: p95 {p95:.6} s is {:.1}% from the closed form {:.6} s",
                rel * 100.0,
                self.des_p95_closed_s
            ));
        }
        Ok(1.0)
    }

    fn layers(&mut self, lt: &LayerTimes) -> Layers {
        let des_ms = lt.median_ms("queueing.des");
        let jobs = (DES_JOBS + DES_JOBS / 10) as f64;
        vec![
            ("core.table4.ms", lt.median_ms("core.table4")),
            ("core.table4.paper_gap_pp", self.gap_pp),
            ("core.single_node.ms", lt.median_ms("core.single_node")),
            (
                "core.cluster_metrics.ms",
                lt.median_ms("core.cluster_metrics"),
            ),
            ("core.power_samples.ms", lt.median_ms("core.power_samples")),
            ("explore.strategies.ms", lt.median_ms("explore.strategies")),
            ("queueing.md1_p95.ms", lt.median_ms("queueing.md1_p95")),
            ("queueing.des.ms", des_ms),
            (
                "queueing.des.jobs_per_s",
                if des_ms > 0.0 {
                    jobs / (des_ms / 1e3)
                } else {
                    0.0
                },
            ),
        ]
    }

    fn golden(&mut self) -> Vec<(String, Digest)> {
        let digests = self.artifacts(&mut Tracer::new());
        ARTIFACTS
            .iter()
            .map(|k| k.to_string())
            .zip(digests)
            .collect()
    }
}
