#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! Property-based tests for the fault-injection and recovery subsystem.

use enprop_clustersim::{
    try_rate_matched_split_surviving, ClusterSim, ClusterSpec, FaultKind, FaultPlan,
    GroupFaultProfile, MtbfModel, RetryPolicy,
};
use enprop_workloads::catalog;
use proptest::prelude::*;

/// Nodes of a group left alive by a survival fraction.
fn surviving(count: u32, pct: f64) -> u32 {
    // enprop-lint: allow(float-int-cast) -- pct ∈ [0,1] and counts ≤ 64, so the rounded product is an exact in-range integer
    (count as f64 * pct).round() as u32
}

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
            // MTBF expressed in multiples of a ~0.1 s job keeps event counts
            // moderate across workloads.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A zero-fault plan leaves the job outputs bit-identical to the plain
    /// run — not approximately equal, identical.
    #[test]
    fn inert_plan_is_bit_identical(
        name in workload_name(),
        a9 in 1u32..12,
        k10 in 0u32..6,
        seed in 0u64..1000,
    ) {
        let w = catalog::by_name(name).unwrap();
        let c = ClusterSpec::a9_k10(a9, k10);
        let sim = ClusterSim::new(&w, &c);
        let plain = sim.run_job(seed);
        for plan in [
            FaultPlan::none(),
            FaultPlan::uniform(
                seed,
                GroupFaultProfile {
                    mtbf: MtbfModel::Disabled,
                    kinds: Vec::new(),
                },
                c.groups.len(),
            ),
        ] {
            let f = sim.run_job_under_plan(&plan, &RetryPolicy::standard(), seed).unwrap();
            prop_assert_eq!(f.run.duration.to_bits(), plain.duration.to_bits());
            prop_assert_eq!(f.run.energy.to_bits(), plain.energy.to_bits());
            prop_assert_eq!(f.attempts, 1);
            prop_assert!(f.trace.is_empty());
        }
    }

    /// The degraded re-split conserves work over any survivor vector: the
    /// per-node fractions, weighted by survivor counts, sum to 1.
    #[test]
    fn degraded_split_fractions_sum_to_one(
        name in workload_name(),
        a9 in 0u32..20,
        k10 in 0u32..8,
        alive_a9_pct in 0.0f64..=1.0,
        alive_k10_pct in 0.0f64..=1.0,
    ) {
        let w = catalog::by_name(name).unwrap();
        let c = ClusterSpec::a9_k10(a9, k10);
        let alive = [surviving(a9, alive_a9_pct), surviving(k10, alive_k10_pct)];
        prop_assume!(alive[0] + alive[1] > 0);
        let s = try_rate_matched_split_surviving(&w, &c, &alive).unwrap();
        let total: f64 = s
            .groups
            .iter()
            .zip(&alive)
            .map(|(share, &n)| share.ops_frac * n as f64)
            .sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "shares sum to {}", total);
        // Dead groups carry no share; the aggregate rate is additive.
        for (share, &n) in s.groups.iter().zip(&alive) {
            if n == 0 {
                prop_assert_eq!(share.ops_frac, 0.0);
            }
        }
        let want: f64 = s
            .groups
            .iter()
            .zip(&alive)
            .map(|(share, &n)| share.point.rate_ops_s * n as f64)
            .sum();
        prop_assert!((s.cluster_rate - want).abs() < 1e-9 * want.max(1.0));
    }

    /// Identical (plan, policy, seed) inputs yield identical failure traces
    /// and identical composed runs — the injection is fully deterministic.
    #[test]
    fn identical_seed_identical_trace(
        name in workload_name(),
        profile in mixed_fault_profile(),
        seed in 0u64..1000,
    ) {
        let w = catalog::by_name(name).unwrap();
        let c = ClusterSpec::a9_k10(6, 3);
        let sim = ClusterSim::new(&w, &c);
        let plan = FaultPlan::uniform(17, profile, c.groups.len());
        let policy = RetryPolicy::standard();
        let a = sim.run_job_under_plan(&plan, &policy, seed);
        let b = sim.run_job_under_plan(&plan, &policy, seed);
        prop_assert_eq!(a, b);
    }

    /// Faults never make a job cheaper: any completed faulted run takes at
    /// least as long as the fault-free run of the same seed.
    #[test]
    fn faults_never_speed_up_jobs(
        name in workload_name(),
        profile in mixed_fault_profile(),
        seed in 0u64..200,
    ) {
        let w = catalog::by_name(name).unwrap();
        let c = ClusterSpec::a9_k10(6, 3);
        let sim = ClusterSim::new(&w, &c);
        let plan = FaultPlan::uniform(23, profile, c.groups.len());
        let plain = sim.run_job(seed);
        if let Ok(f) = sim.run_job_under_plan(&plan, &RetryPolicy::standard(), seed) {
            prop_assert!(
                f.run.duration >= plain.duration * (1.0 - 1e-12),
                "faulted {} < fault-free {}",
                f.run.duration,
                plain.duration
            );
            prop_assert!(f.run.energy >= plain.energy * (1.0 - 1e-12));
        }
    }
}
