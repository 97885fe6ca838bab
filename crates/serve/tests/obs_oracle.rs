#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! Sketch-vs-oracle property tests for the serving plane (DESIGN.md §14).
//!
//! The controller's report quantiles come from a bounded-memory
//! [`enprop_obs::QuantileSketch`]; `enprop_queueing::exact_quantile` over
//! the full buffered response stream stays in the tree as the *test
//! oracle*. These tests capture that stream through the `Recorder` hook
//! (`serve.response_s` — the exact values the run-level sketch sees) and
//! pin:
//!
//! - **oracle agreement**: every reported percentile lies within the
//!   sketch's documented relative-error bound of the bracketing order
//!   statistics that `exact_quantile` interpolates between,
//! - **windowed conservation**: summing the live `WindowReport` stream
//!   reproduces the run totals — arrivals, completions, sheds and joules
//!   are never lost to windowing, under randomized chaos.

use enprop_clustersim::ClusterSpec;
use enprop_faults::{FaultKind, FaultPlan, GroupFaultProfile, MtbfModel};
use enprop_obs::{PowerSample, Recorder, Track, DEFAULT_SKETCH_ALPHA};
use enprop_queueing::exact_quantile;
use enprop_serve::{
    ArrivalModel, ArrivalSource, Controller, RunHooks, RunOutcome, ServeConfig, ServeReport,
    SyntheticArrivals, WindowReport,
};
use enprop_workloads::catalog;
use proptest::prelude::*;

/// Captures every `serve.response_s` observation — bit-identical to the
/// stream feeding the controller's run-level sketch — and discards the
/// rest of the telemetry.
#[derive(Default)]
struct OracleRecorder {
    responses: Vec<f64>,
}

impl Recorder for OracleRecorder {
    const ACTIVE: bool = true;
    fn span_begin(&mut self, _t: f64, _track: Track, _name: &'static str, _id: u64) {}
    fn span_end(&mut self, _t: f64, _track: Track, _name: &'static str, _id: u64) {}
    fn instant(&mut self, _t: f64, _track: Track, _name: &'static str, _value: f64) {}
    fn counter(&mut self, _t: f64, _track: Track, _name: &'static str, _delta: u64) {}
    fn tally(&mut self, _name: &'static str, _delta: u64) {}
    fn gauge(&mut self, _t: f64, _track: Track, _name: &'static str, _value: f64) {}
    fn power(&mut self, _t: f64, _track: Track, _sample: PowerSample) {}
    fn observe(&mut self, name: &'static str, value: f64) {
        if name == "serve.response_s" {
            self.responses.push(value);
        }
    }
}

/// An aggressive mixed fault profile (same shape as the chaos tests).
fn fault_profile() -> impl Strategy<Value = GroupFaultProfile> {
    (2.0f64..40.0, 0.2f64..5.0, 1.5f64..8.0).prop_map(|(mtbf_s, stall_s, slowdown)| {
        GroupFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s },
            kinds: vec![
                (0.5, FaultKind::Crash),
                (
                    0.3,
                    FaultKind::Stall {
                        duration_s: stall_s,
                    },
                ),
                (0.2, FaultKind::Straggler { slowdown }),
            ],
        }
    })
}

fn run_chaos(
    a9: u32,
    k10: u32,
    profile: GroupFaultProfile,
    seed: u64,
    requests: u64,
    utilization: f64,
) -> (ServeReport, Vec<f64>, Vec<WindowReport>) {
    let workload = catalog::by_name("memcached").unwrap();
    let cluster = ClusterSpec::a9_k10(a9, k10);
    let plan = FaultPlan::uniform(seed, profile, cluster.groups.len());
    let cfg = ServeConfig::new(seed);
    let ops = enprop_serve::default_ops_per_request(&workload, &cluster).unwrap();
    let rate =
        utilization * enprop_serve::cluster_capacity_ops_s(&workload, &cluster).unwrap() / ops;
    let arrivals =
        SyntheticArrivals::new(ArrivalModel::Poisson { rate }, requests, ops, 0.3, seed).unwrap();
    let mut source = ArrivalSource::Synthetic(arrivals);
    let mut rec = OracleRecorder::default();
    let mut windows: Vec<WindowReport> = Vec::new();
    let mut live = |w: &WindowReport| windows.push(w.clone());
    let mut hooks = RunHooks {
        live: &mut live,
        checkpoint: None,
        kill_after_events: None,
    };
    let outcome = Controller::run_full(
        &workload,
        &cluster,
        &plan,
        None,
        &cfg,
        &mut source,
        &mut rec,
        &mut hooks,
    )
    .expect("a valid chaos scenario must terminate cleanly");
    let RunOutcome::Completed(report) = outcome else {
        panic!("no kill hook installed");
    };
    (*report, rec.responses, windows)
}

/// Check one reported percentile against the oracle stream: with
/// `x_lo ≤ x_hi` the order statistics bracketing the type-7 `q`-quantile
/// (the values `exact_quantile` interpolates between), the sketch-backed
/// report value must satisfy the documented bound
/// `(1 − α)·x_lo ≤ v ≤ (1 + α)·x_hi`.
fn check_percentile(
    sorted: &[f64],
    q: f64,
    reported: f64,
    alpha: f64,
) -> Result<(), TestCaseError> {
    let n = sorted.len();
    let rank = (q * (n - 1) as f64).floor() as usize;
    let x_lo = sorted[rank];
    let x_hi = sorted[(rank + 1).min(n - 1)];
    let lo = (1.0 - alpha) * x_lo * (1.0 - 1e-9);
    let hi = (1.0 + alpha) * x_hi * (1.0 + 1e-9);
    prop_assert!(
        lo <= reported && reported <= hi,
        "q={}: reported {} outside [{}, {}] (n={})",
        q,
        reported,
        lo,
        hi,
        n
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The report's sketch-backed percentiles agree with `exact_quantile`
    /// over the buffered response stream, within the documented bound,
    /// under randomized chaos.
    #[test]
    fn report_quantiles_match_the_exact_oracle(
        a9 in 1u32..4,
        k10 in 0u32..3,
        profile in fault_profile(),
        seed in 0u64..10_000,
        requests in 200u64..800,
        utilization in 0.3f64..1.5,
    ) {
        let (report, responses, _) =
            run_chaos(a9, k10, profile, seed, requests, utilization);
        prop_assume!(responses.len() >= 2);
        prop_assert_eq!(responses.len() as u64, report.completions);

        let alpha = DEFAULT_SKETCH_ALPHA;
        let mut sorted = responses.clone();
        sorted.sort_by(f64::total_cmp);
        for (q, reported) in [
            (0.50, report.p50_s),
            (0.95, report.p95_s),
            (0.99, report.p99_s),
            (0.999, report.p999_s),
        ] {
            // The interpolated exact value must sit inside the bracket the
            // bound is stated against — ties the sketch to the oracle.
            let exact = exact_quantile(&responses, q).unwrap();
            let rank = (q * (sorted.len() - 1) as f64).floor() as usize;
            let x_hi = sorted[(rank + 1).min(sorted.len() - 1)];
            prop_assert!(sorted[rank] <= exact && exact <= x_hi);
            check_percentile(&sorted, q, reported, alpha)?;
        }
    }

    /// Summing the live window stream reproduces the run totals: windowing
    /// conserves arrivals, completions, sheds and joules under chaos.
    #[test]
    fn windowed_totals_conserve_under_chaos(
        a9 in 1u32..4,
        k10 in 0u32..3,
        profile in fault_profile(),
        seed in 0u64..10_000,
        requests in 100u64..600,
        utilization in 0.3f64..2.0,
    ) {
        let (report, responses, windows) =
            run_chaos(a9, k10, profile, seed, requests, utilization);
        prop_assert!(report.conservation_ok(), "{}", report.conservation_line());
        prop_assert!(!windows.is_empty(), "plane on by default, must emit windows");

        let arrivals: u64 = windows.iter().map(|w| w.arrivals).sum();
        let completions: u64 = windows.iter().map(|w| w.completions).sum();
        let shed: u64 = windows.iter().map(|w| w.shed).sum();
        prop_assert_eq!(arrivals, report.arrivals);
        prop_assert_eq!(completions, report.completions);
        prop_assert_eq!(completions, responses.len() as u64);
        prop_assert_eq!(shed, report.shed());

        // Joules: the per-window group books partition exactly the energy
        // the controller integrates; only float summation order differs.
        let window_j: f64 = windows.iter().map(WindowReport::energy_j).sum();
        prop_assert!(
            (window_j - report.energy_j).abs() <= 1e-6 * report.energy_j.abs().max(1.0),
            "window energy {} vs report {}", window_j, report.energy_j
        );

        // Window indices strictly increase: each window closes once.
        for pair in windows.windows(2) {
            prop_assert!(pair[0].index < pair[1].index);
        }
    }
}
