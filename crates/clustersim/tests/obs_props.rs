#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! Property-based tests for the telemetry layer: span balance, counter
//! monotonicity and trace determinism under randomized fault plans.

use enprop_clustersim::{
    ClusterSim, ClusterSpec, EnpropError, FaultKind, FaultPlan, GroupFaultProfile, MtbfModel,
    RetryPolicy,
};
use enprop_obs::{jsonl, EventKind, MemoryRecorder, MetricsSnapshot, Track};
use enprop_workloads::catalog;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn workload_name() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("EP"),
        Just("memcached"),
        Just("x264"),
        Just("blackscholes"),
        Just("Julius"),
        Just("RSA-2048"),
    ]
}

fn mixed_fault_profile() -> impl Strategy<Value = GroupFaultProfile> {
    (0.05f64..4.0, 0.0f64..3.0, 1.0f64..4.0).prop_map(|(mtbf_x, stall_x, slowdown)| {
        GroupFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s: mtbf_x },
            kinds: vec![
                (1.0, FaultKind::Crash),
                (
                    1.0,
                    FaultKind::Stall {
                        duration_s: stall_x,
                    },
                ),
                (1.0, FaultKind::Straggler { slowdown }),
            ],
        }
    })
}

/// Run one faulted job into a fresh recorder; exhaustion is a legal
/// outcome (the spans must still balance), other errors are test bugs.
fn record_faulted_job(
    name: &str,
    a9: u32,
    k10: u32,
    profile: GroupFaultProfile,
    seed: u64,
) -> MemoryRecorder {
    let w = catalog::by_name(name).unwrap();
    let c = ClusterSpec::a9_k10(a9, k10);
    let sim = ClusterSim::new(&w, &c);
    let plan = FaultPlan::uniform(seed, profile, c.groups.len());
    let policy = RetryPolicy {
        max_retries: 2,
        timeout_factor: 3.0,
        ..RetryPolicy::standard()
    };
    let mut rec = MemoryRecorder::new();
    match sim.run_job_under_plan_obs(&plan, &policy, seed, 0.5, &mut rec) {
        Ok(_) | Err(EnpropError::RetryBudgetExhausted { .. }) => {}
        Err(e) => panic!("unexpected error: {e}"),
    }
    rec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every span opened on the trace is closed, whatever faults hit and
    /// whether or not the retry budget survives.
    #[test]
    fn spans_balance_under_fault_plans(
        name in workload_name(),
        a9 in 1u32..8,
        k10 in 0u32..4,
        profile in mixed_fault_profile(),
        seed in 0u64..500,
    ) {
        let rec = record_faulted_job(name, a9, k10, profile, seed);
        let mut depth: BTreeMap<(Track, &str, u64), i64> = BTreeMap::new();
        for e in rec.events() {
            match e.kind {
                EventKind::SpanBegin => {
                    *depth.entry((e.track, e.name, e.id)).or_insert(0) += 1;
                }
                EventKind::SpanEnd => {
                    let d = depth.entry((e.track, e.name, e.id)).or_insert(0);
                    *d -= 1;
                    prop_assert!(*d >= 0, "span end without begin: {} id {}", e.name, e.id);
                }
                _ => {}
            }
        }
        for ((_, spot, id), d) in depth {
            prop_assert_eq!(d, 0, "unbalanced span {} id {}", spot, id);
        }
        // The snapshot's independent pairing agrees: nothing unclosed.
        let snap = MetricsSnapshot::from_recorder(&rec);
        for (name, s) in snap.spans() {
            prop_assert_eq!(s.unclosed, 0, "unclosed {}", name);
        }
    }

    /// Counter events carry running totals that never decrease, per name,
    /// in emission order; the aggregate total matches or exceeds the last
    /// emitted total (tallies bump the aggregate without an event).
    #[test]
    fn counters_are_monotone_under_fault_plans(
        name in workload_name(),
        a9 in 1u32..8,
        k10 in 0u32..4,
        profile in mixed_fault_profile(),
        seed in 0u64..500,
    ) {
        let rec = record_faulted_job(name, a9, k10, profile, seed);
        let mut last: BTreeMap<&str, u64> = BTreeMap::new();
        for e in rec.events() {
            if let EventKind::Counter { total } = e.kind {
                let prev = last.insert(e.name, total).unwrap_or(0);
                prop_assert!(total >= prev, "{}: {} < {}", e.name, total, prev);
            }
        }
        for (name, &seen) in &last {
            let aggregate = rec.counters().get(name).copied().unwrap_or(0);
            prop_assert!(aggregate >= seen, "{}: aggregate {} < last event {}", name, aggregate, seen);
        }
    }

    /// The recorded stream is deterministic: the same seed and plan yield
    /// byte-identical JSONL serializations.
    #[test]
    fn trace_jsonl_is_byte_deterministic(
        name in workload_name(),
        a9 in 1u32..6,
        k10 in 0u32..3,
        profile in mixed_fault_profile(),
        seed in 0u64..500,
    ) {
        let a = record_faulted_job(name, a9, k10, profile.clone(), seed);
        let b = record_faulted_job(name, a9, k10, profile, seed);
        prop_assert_eq!(jsonl(a.events()), jsonl(b.events()));
    }

    /// Instrumentation is free of observable effects: the faulted run's
    /// outputs are bit-identical with and without a recorder attached.
    #[test]
    fn obs_run_is_bit_identical_to_plain(
        name in workload_name(),
        a9 in 1u32..6,
        k10 in 0u32..3,
        profile in mixed_fault_profile(),
        seed in 0u64..500,
    ) {
        let w = catalog::by_name(name).unwrap();
        let c = ClusterSpec::a9_k10(a9, k10);
        let sim = ClusterSim::new(&w, &c);
        let plan = FaultPlan::uniform(seed, profile, c.groups.len());
        let policy = RetryPolicy {
            max_retries: 2,
            timeout_factor: 3.0,
            ..RetryPolicy::standard()
        };
        let mut rec = MemoryRecorder::new();
        let plain = sim.run_job_under_plan(&plan, &policy, seed);
        let traced = sim.run_job_under_plan_obs(&plan, &policy, seed, 0.0, &mut rec);
        match (plain, traced) {
            (Ok(p), Ok(t)) => {
                prop_assert_eq!(p.run.duration.to_bits(), t.run.duration.to_bits());
                prop_assert_eq!(p.run.energy.to_bits(), t.run.energy.to_bits());
                prop_assert_eq!(p.attempts, t.attempts);
                prop_assert_eq!(p.crashes, t.crashes);
            }
            (Err(EnpropError::RetryBudgetExhausted { .. }),
             Err(EnpropError::RetryBudgetExhausted { .. })) => {}
            (p, t) => prop_assert!(false, "outcomes diverge: {p:?} vs {t:?}"),
        }
    }
}
