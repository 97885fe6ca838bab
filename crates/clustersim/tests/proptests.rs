#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! Property-based tests for the cluster simulator and work splitting.

use enprop_clustersim::{try_rate_matched_split, ClusterSim, ClusterSpec};
use enprop_workloads::catalog;
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The rate-matched split conserves work for any mix: per-node shares
    /// times node counts sum to exactly one job.
    #[test]
    fn split_conserves_work(name in workload_name(), a9 in 0u32..48, k10 in 0u32..12) {
        prop_assume!(a9 + k10 > 0);
        let w = catalog::by_name(name).unwrap();
        let c = ClusterSpec::a9_k10(a9, k10);
        let s = try_rate_matched_split(&w, &c).unwrap();
        let total: f64 = s
            .groups
            .iter()
            .zip(&c.groups)
            .map(|(share, g)| share.ops_frac * g.count as f64)
            .sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        // Cluster rate is additive over groups.
        let want: f64 = s
            .groups
            .iter()
            .zip(&c.groups)
            .map(|(share, g)| share.point.rate_ops_s * g.count as f64)
            .sum();
        prop_assert!((s.cluster_rate - want).abs() < 1e-9 * want);
    }

    /// Simulated job time is never faster than the friction-free model and
    /// never more than 25% slower (the frictions are few-percent effects).
    #[test]
    fn sim_brackets_model(name in workload_name(), seed in 0u64..32) {
        let w = catalog::by_name(name).unwrap();
        let c = ClusterSpec::a9_k10(4, 2);
        let sim = ClusterSim::new(&w, &c);
        let model_time = sim.split().job_time(w.ops_per_job);
        let run = sim.run_job(seed);
        prop_assert!(run.duration >= model_time * 0.999,
            "sim faster than model: {} vs {}", run.duration, model_time);
        prop_assert!(run.duration <= model_time * 1.25,
            "friction gap too large: {} vs {}", run.duration, model_time);
    }

    /// Observation energy decomposes: more utilization at the same period
    /// never uses less energy.
    #[test]
    fn observation_energy_monotone(name in workload_name(), u in 0.1f64..0.85) {
        let w = catalog::by_name(name).unwrap();
        let c = ClusterSpec::a9_k10(4, 2);
        let sim = ClusterSim::new(&w, &c);
        let mean = sim.sample_jobs(3, 5);
        let period = mean.duration * 120.0;
        let lo = sim.observe(u, period, 5);
        let hi = sim.observe(u + 0.1, period, 5);
        prop_assert!(hi.energy >= lo.energy - 1e-9);
        prop_assert!(hi.jobs >= lo.jobs);
    }

    /// Cluster labels are stable identifiers for any mix.
    #[test]
    fn labels_roundtrip(a9 in 0u32..200, k10 in 0u32..50) {
        let c = ClusterSpec::a9_k10(a9, k10);
        prop_assert_eq!(c.label(), format!("{a9} A9 : {k10} K10"));
        prop_assert_eq!(c.node_count(), a9 + k10);
    }

    /// Nameplate power accounting is monotone in both node counts.
    #[test]
    fn nameplate_monotone(a9 in 0u32..100, k10 in 0u32..20) {
        let base = ClusterSpec::a9_k10(a9, k10).nameplate_w();
        prop_assert!(ClusterSpec::a9_k10(a9 + 1, k10).nameplate_w() > base);
        prop_assert!(ClusterSpec::a9_k10(a9, k10 + 1).nameplate_w() > base);
    }
}
