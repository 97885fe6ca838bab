#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! Property-based tests of the cluster time-energy model.

use enprop_clustersim::ClusterSpec;
use enprop_core::ClusterModel;
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A heterogeneous mix's DPR always lies strictly between the two
    /// homogeneous extremes (convex combination of idle/busy powers).
    #[test]
    fn mix_dpr_is_bracketed(name in workload_name(), a9 in 1u32..64, k10 in 1u32..16) {
        let w = catalog::by_name(name).unwrap();
        let dpr = |a: u32, k: u32| {
            ClusterModel::new(w.clone(), ClusterSpec::a9_k10(a, k)).metrics().dpr
        };
        let homo_a9 = dpr(1, 0);
        let homo_k10 = dpr(0, 1);
        let mix = dpr(a9, k10);
        let lo = homo_a9.min(homo_k10) - 1e-9;
        let hi = homo_a9.max(homo_k10) + 1e-9;
        prop_assert!(mix >= lo && mix <= hi, "{name}: {mix} outside [{lo}, {hi}]");
    }

    /// Homogeneous clusters inherit single-node metrics exactly, at any
    /// scale — percentage metrics are size-blind (the §III-B trap).
    #[test]
    fn homogeneous_metrics_are_scale_free(name in workload_name(), n in 1u32..200) {
        let w = catalog::by_name(name).unwrap();
        let one = ClusterModel::new(w.clone(), ClusterSpec::a9_k10(1, 0)).metrics();
        let many = ClusterModel::new(w.clone(), ClusterSpec::a9_k10(n, 0)).metrics();
        prop_assert!((one.dpr - many.dpr).abs() < 1e-9);
        prop_assert!((one.epm - many.epm).abs() < 1e-9);
        // ...while absolute power scales linearly.
        prop_assert!((many.idle_w - n as f64 * one.idle_w).abs() < 1e-9 * many.idle_w);
    }

    /// Adding nodes increases throughput and peak power together, and
    /// never lengthens the job.
    #[test]
    fn more_nodes_help(name in workload_name(), a9 in 0u32..32, k10 in 0u32..8) {
        prop_assume!(a9 + k10 > 0);
        let w = catalog::by_name(name).unwrap();
        let base = ClusterModel::new(w.clone(), ClusterSpec::a9_k10(a9, k10));
        let bigger = ClusterModel::new(w.clone(), ClusterSpec::a9_k10(a9 + 1, k10));
        prop_assert!(bigger.peak_throughput() > base.peak_throughput());
        prop_assert!(bigger.job_time() < base.job_time());
        prop_assert!(bigger.busy_power_w() > base.busy_power_w());
    }

    /// Energy conservation: job energy equals busy power × job time, and
    /// power at utilization interpolates idle↔busy exactly.
    #[test]
    fn energy_identities(name in workload_name(), a9 in 1u32..32, k10 in 0u32..8, u in 0.0f64..1.0) {
        let w = catalog::by_name(name).unwrap();
        let m = ClusterModel::new(w, ClusterSpec::a9_k10(a9, k10));
        prop_assert!((m.job_energy() - m.busy_power_w() * m.job_time()).abs()
            < 1e-9 * m.job_energy());
        let expect = m.idle_power_w() + (m.busy_power_w() - m.idle_power_w()) * u;
        prop_assert!((m.power_at(u) - expect).abs() < 1e-9 * expect.max(1.0));
    }

    /// p95 response time is monotone in utilization and bounded below by
    /// the service time.
    #[test]
    fn p95_monotone(name in workload_name(), u in 0.05f64..0.90) {
        let w = catalog::by_name(name).unwrap();
        let m = ClusterModel::new(w, ClusterSpec::a9_k10(16, 4));
        let lo = m.p95_response_time(u);
        let hi = m.p95_response_time(u + 0.05);
        prop_assert!(lo >= m.job_time() - 1e-12);
        prop_assert!(hi >= lo - 1e-9 * lo);
    }

    /// Batch arrivals at equal utilization never reduce the mean response
    /// time, and k = 1 is exactly the plain dispatcher.
    #[test]
    fn batching_never_helps(name in workload_name(), u in 0.05f64..0.9, k in 1u32..16) {
        use enprop_queueing::Queue as _;
        let w = catalog::by_name(name).unwrap();
        let m = ClusterModel::new(w, ClusterSpec::a9_k10(8, 2));
        let single = m.md1(u).mean_response_time();
        let batched = enprop_queueing::BatchMD1::from_utilization(m.job_time(), k, u)
            .mean_response_time();
        if k == 1 {
            prop_assert!((batched - single).abs() < 1e-12 * single);
        } else {
            prop_assert!(batched > single);
        }
    }
}
