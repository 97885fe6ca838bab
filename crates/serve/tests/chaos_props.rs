#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! Chaos property tests: the serving controller's robustness invariants
//! must hold under *randomized* fault plans, cluster shapes, loads and
//! control-loop settings — not just the hand-picked unit-test scenarios.
//!
//! Invariants checked per generated scenario:
//!
//! - **conservation**: `arrivals = completions + shed + in-flight`,
//! - **span balance**: every telemetry span opened during the run is
//!   closed by shutdown,
//! - **determinism**: the same scenario re-run gives a bit-identical
//!   report and event stream,
//! - **termination**: the run returns (no deadlock, no livelock) — a
//!   `Result::Err` other than a validated-input error fails the test.

use enprop_clustersim::ClusterSpec;
use enprop_faults::{FaultKind, FaultPlan, GroupFaultProfile, MtbfModel};
use enprop_obs::MemoryRecorder;
use enprop_serve::{
    spans_balanced, sweep_plan, ArrivalModel, ArrivalSource, Controller, ServeConfig,
    SyntheticArrivals,
};
use enprop_workloads::{catalog, Workload};
use proptest::prelude::*;

fn workload_name() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("EP"), Just("memcached"), Just("x264")]
}

/// An aggressive mixed fault profile: MTBFs short enough that a ~60 s
/// serving run sees many faults per node.
fn fault_profile() -> impl Strategy<Value = GroupFaultProfile> {
    (
        2.0f64..40.0, // mtbf_s
        0.2f64..5.0,  // stall duration
        1.5f64..8.0,  // straggler slowdown
        0.0f64..1.0,  // crash weight
        0.0f64..1.0,  // stall weight
        0.0f64..1.0,  // straggler weight
    )
        .prop_map(|(mtbf_s, stall_s, slowdown, wc, ws, wg)| {
            let kinds = if wc + ws + wg > 0.0 {
                vec![
                    (wc, FaultKind::Crash),
                    (
                        ws,
                        FaultKind::Stall {
                            duration_s: stall_s,
                        },
                    ),
                    (wg, FaultKind::Straggler { slowdown }),
                ]
            } else {
                vec![(1.0, FaultKind::Crash)]
            };
            GroupFaultProfile {
                mtbf: MtbfModel::Exponential { mtbf_s },
                kinds,
            }
        })
}

struct Scenario {
    workload: Workload,
    cluster: ClusterSpec,
    plan: FaultPlan,
    cfg: ServeConfig,
    requests: u64,
    utilization: f64,
}

fn run_once(s: &Scenario) -> (enprop_serve::ServeReport, MemoryRecorder) {
    let ops = enprop_serve::default_ops_per_request(&s.workload, &s.cluster).unwrap();
    let rate = s.utilization
        * enprop_serve::cluster_capacity_ops_s(&s.workload, &s.cluster).unwrap()
        / ops;
    let arrivals = SyntheticArrivals::new(
        ArrivalModel::Poisson { rate },
        s.requests,
        ops,
        0.3,
        s.cfg.seed,
    )
    .unwrap();
    let mut source = ArrivalSource::Synthetic(arrivals);
    let mut rec = MemoryRecorder::new();
    let report = Controller::run(
        &s.workload,
        &s.cluster,
        &s.plan,
        &s.cfg,
        &mut source,
        &mut rec,
    )
    .expect("a valid chaos scenario must terminate cleanly");
    (report, rec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conservation and span balance under fully randomized fault plans,
    /// cluster shapes and load levels.
    #[test]
    fn invariants_hold_under_randomized_chaos(
        name in workload_name(),
        a9 in 1u32..5,
        k10 in 0u32..3,
        profile in fault_profile(),
        seed in 0u64..10_000,
        requests in 200u64..1200,
        utilization in 0.2f64..2.5,
        repair_s in 1.0f64..20.0,
        max_inflight in 50usize..2000,
    ) {
        let workload = catalog::by_name(name).unwrap();
        let cluster = ClusterSpec::a9_k10(a9, k10);
        let plan = FaultPlan::uniform(seed, profile, cluster.groups.len());
        let mut cfg = ServeConfig::new(seed);
        cfg.repair_s = repair_s;
        cfg.max_inflight = max_inflight;
        let s = Scenario { workload, cluster, plan, cfg, requests, utilization };

        let (report, rec) = run_once(&s);
        prop_assert_eq!(report.arrivals, requests);
        prop_assert!(report.conservation_ok(), "{}", report.conservation_line());
        prop_assert!(spans_balanced(&rec), "unbalanced spans: {report:?}");
        // A forced stop is allowed under chaos, but it must still account
        // for every in-flight request.
        if !report.forced_stop {
            prop_assert_eq!(report.in_flight_at_stop, 0);
        }
    }

    /// The same scenario replayed from scratch is bit-identical: report
    /// AND the full telemetry event stream.
    #[test]
    fn chaos_runs_are_deterministic(
        name in workload_name(),
        a9 in 1u32..4,
        profile in fault_profile(),
        seed in 0u64..10_000,
        requests in 100u64..600,
    ) {
        let workload = catalog::by_name(name).unwrap();
        let cluster = ClusterSpec::a9_k10(a9, 1);
        let plan = FaultPlan::uniform(seed, profile, cluster.groups.len());
        let cfg = ServeConfig::new(seed);
        let s = Scenario {
            workload, cluster, plan, cfg, requests, utilization: 0.8,
        };

        let (a, rec_a) = run_once(&s);
        let (b, rec_b) = run_once(&s);
        prop_assert_eq!(a, b);
        prop_assert_eq!(rec_a.events(), rec_b.events());
        prop_assert_eq!(rec_a.counters(), rec_b.counters());
    }

    /// The sweep-plan generator itself: deterministic in its key and
    /// always valid, never inert (a chaos sweep that injects nothing
    /// tests nothing).
    #[test]
    fn sweep_plans_are_reproducible_and_never_inert(
        seed in 0u64..100_000,
        index in 0u32..64,
        groups in 1usize..4,
    ) {
        let a = sweep_plan(seed, index, groups);
        let b = sweep_plan(seed, index, groups);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.validate().is_ok());
        prop_assert!(!a.is_inert());
    }
}
