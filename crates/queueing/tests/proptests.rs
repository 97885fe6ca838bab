#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! Property-based tests for queueing invariants.

use enprop_queueing::{
    exact_quantile, ArrivalProcess, BatchMD1, OnlineStats, P2Quantile, Queue, QueueSim,
    ServiceProcess, SimResult, MD1, MG1, MM1,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

proptest! {
    /// PK waiting time is monotone in utilization for every queue family.
    #[test]
    fn wait_monotone_in_load(s in 0.001f64..10.0, u in 0.05f64..0.9) {
        let lo = MD1::from_utilization(s, u);
        let hi = MD1::from_utilization(s, u + 0.05);
        prop_assert!(hi.mean_wait() > lo.mean_wait());
        let lo = MM1::from_utilization(s, u);
        let hi = MM1::from_utilization(s, u + 0.05);
        prop_assert!(hi.mean_wait() > lo.mean_wait());
    }

    /// The M/G/1 mean interpolates between M/D/1 (scv 0) and beyond M/M/1.
    #[test]
    fn mg1_brackets(s in 0.001f64..10.0, u in 0.05f64..0.95, scv in 0.0f64..1.0) {
        let g = MG1::from_utilization(s, scv, u);
        let d = MD1::from_utilization(s, u);
        let m = MM1::from_utilization(s, u);
        prop_assert!(g.mean_wait() >= d.mean_wait() - 1e-12);
        prop_assert!(g.mean_wait() <= m.mean_wait() + 1e-12);
    }

    /// M/D/1 wait CDF is a valid CDF: within [0,1] and non-decreasing.
    #[test]
    fn md1_cdf_valid(s in 0.01f64..5.0, u in 0.05f64..0.95, t in 0.0f64..50.0) {
        let q = MD1::from_utilization(s, u);
        let f1 = q.wait_cdf(t * s);
        let f2 = q.wait_cdf((t + 0.5) * s);
        prop_assert!((0.0..=1.0).contains(&f1));
        // 1e-3 absorbs the series' cancellation noise near its limit.
        prop_assert!(f2 + 1e-3 >= f1);
    }

    /// Response quantiles are ordered in q.
    #[test]
    fn quantiles_ordered(s in 0.01f64..5.0, u in 0.05f64..0.95) {
        let q = MD1::from_utilization(s, u);
        let p50 = q.response_time_quantile(0.50);
        let p95 = q.response_time_quantile(0.95);
        let p99 = q.response_time_quantile(0.99);
        prop_assert!(s <= p50 + 1e-12);
        prop_assert!(p50 <= p95 && p95 <= p99);
    }

    /// Little's law links queue length and wait for all analytic queues.
    #[test]
    fn littles_law(s in 0.01f64..5.0, u in 0.05f64..0.95) {
        let q = MD1::from_utilization(s, u);
        prop_assert!((q.mean_queue_length() - q.lambda * q.mean_wait()).abs() < 1e-12);
    }

    /// The DES is deterministic under a fixed seed.
    #[test]
    fn des_reproducible(u in 0.1f64..0.9, seed in 0u64..1000) {
        let a = QueueSim::md1(0.01, u).run(500, 50, seed);
        let b = QueueSim::md1(0.01, u).run(500, 50, seed);
        prop_assert_eq!(a.response.mean(), b.response.mean());
        prop_assert_eq!(a.response_quantile(0.95), b.response_quantile(0.95));
    }

    /// P² estimates converge to the exact quantile on moderate streams.
    #[test]
    fn p2_close_to_exact(seed in 0u64..50) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let xs: Vec<f64> = (0..20_000).map(|_| {
            let v: f64 = rng.gen();
            -(1.0 - v).ln()
        }).collect();
        let mut p2 = P2Quantile::new(0.95);
        for &x in &xs {
            p2.push(x);
        }
        let exact = exact_quantile(&xs, 0.95).unwrap();
        let est = p2.estimate().unwrap();
        prop_assert!((est - exact).abs() / exact < 0.05, "p2 {est} vs exact {exact}");
    }
}

/// The sort-based `exact_quantile` that selection replaced, kept as its
/// oracle: sort a copy by `total_cmp`, interpolate between order
/// statistics `⌊h⌋` and `⌈h⌉`.
fn sorted_quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let h = q * (v.len() - 1) as f64;
    // enprop-lint: allow(float-int-cast) -- q ∈ [0,1] is checked above, so h ∈ [0, len-1] and floor/ceil are exact in-range indices
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (h - lo as f64))
}

/// Samples that stress the order: ±0.0, ±∞, NaNs of both signs, and
/// rounded values that repeat, among ordinary ones.
fn awkward_f64() -> impl Strategy<Value = f64> {
    (0u8..10, -4.0f64..4.0).prop_map(|(kind, x)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => f64::NAN,
        5 => -f64::NAN,
        6 | 7 => x.round(),
        _ => x,
    })
}

proptest! {
    /// Selecting the two order statistics gives the sort oracle's bits,
    /// NaN and signed zeros included, at q = 0, ½, 1 and a random q.
    #[test]
    fn exact_quantile_matches_sort_oracle(
        xs in proptest::collection::vec(awkward_f64(), 1..200),
        q in 0.0f64..=1.0,
    ) {
        for q in [0.0, 0.5, 1.0, q] {
            let got = exact_quantile(&xs, q).map(f64::to_bits);
            let want = sorted_quantile(&xs, q).map(f64::to_bits);
            prop_assert_eq!(got, want, "q = {}, n = {}", q, xs.len());
        }
    }
}

proptest! {
    /// Batch waiting decomposes and is monotone in batch size at equal
    /// utilization.
    #[test]
    fn batch_wait_monotone_in_k(s in 0.001f64..1.0, u in 0.05f64..0.9, k in 1u32..20) {
        let a = BatchMD1::from_utilization(s, k, u);
        let b = BatchMD1::from_utilization(s, k + 1, u);
        prop_assert!(b.mean_wait() > a.mean_wait());
        // Decomposition: total = batch delay + within-batch delay.
        prop_assert!((a.mean_wait() - a.mean_batch_wait() - a.mean_within_batch_wait()).abs()
            < 1e-12 * a.mean_wait().max(1e-12));
    }

    /// M/D/c waiting shrinks with pooling and stays non-negative.
    #[test]
    fn mdc_pooling_monotone(s in 0.001f64..1.0, u in 0.05f64..0.9, c in 1u32..12) {
        use enprop_queueing::MDc;
        let few = MDc::from_utilization(s, c, u);
        let more = MDc::from_utilization(s, c + 1, u);
        prop_assert!(few.mean_wait() >= 0.0);
        prop_assert!(more.mean_wait() < few.mean_wait());
    }

    /// Erlang-C is a probability and the M/D/c wait is below the M/M/c
    /// wait (deterministic service can only help).
    #[test]
    fn mdc_below_mmc(s in 0.001f64..1.0, u in 0.05f64..0.9, c in 1u32..12) {
        use enprop_queueing::{MDc, MMc};
        let md = MDc::from_utilization(s, c, u);
        let mm = MMc::from_utilization(s, c, u);
        prop_assert!((0.0..=1.0).contains(&mm.erlang_c()));
        prop_assert!(md.mean_wait() <= mm.mean_wait() + 1e-12);
    }
}

/// The M^\[k]/D/1 batch loop that `QueueSim`'s `PoissonBatches` arrivals
/// replaced, kept verbatim as their oracle.
fn simulate_batches(q: &BatchMD1, batches: usize, warmup_batches: usize, seed: u64) -> SimResult {
    assert!(batches > 0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut clock = 0.0f64;
    let mut server_free = 0.0f64;
    let mut wait = OnlineStats::new();
    let mut response = OnlineStats::new();
    let mut samples = Vec::with_capacity(batches * q.batch_size as usize);
    let mut busy = 0.0f64;
    let mut first = 0.0f64;

    for b in 0..batches + warmup_batches {
        clock += -(1.0 - rng.gen::<f64>()).ln() / q.batch_rate;
        if b == warmup_batches {
            first = clock;
        }
        for _ in 0..q.batch_size {
            let start = clock.max(server_free);
            server_free = start + q.service;
            if b >= warmup_batches {
                let w = start - clock;
                wait.push(w);
                response.push(w + q.service);
                samples.push(w + q.service);
                busy += q.service;
            }
        }
    }
    let horizon = (server_free - first).max(f64::MIN_POSITIVE);
    SimResult {
        wait,
        response,
        response_samples: samples,
        measured_utilization: (busy / horizon).min(1.0),
        horizon,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `PoissonBatches` arrivals reproduce the batch loop bit for bit:
    /// every sample, both means, the utilization and the horizon.
    #[test]
    fn poisson_batches_match_the_batch_loop(
        k in 1u32..14,
        u in 0.05f64..0.97,
        service in 0.001f64..2.0,
        batches in 1usize..300,
        warmup in 0usize..40,
        seed in 0u64..1_000_000,
    ) {
        let q = BatchMD1::from_utilization(service, k, u);
        let want = simulate_batches(&q, batches, warmup, seed);
        let size = k as usize;
        let got = QueueSim::new(
            ArrivalProcess::PoissonBatches { rate: q.batch_rate, size },
            ServiceProcess::Deterministic { time: q.service },
        )
        .run(batches * size, warmup * size, seed);
        let first_diff = got
            .response_samples
            .iter()
            .zip(&want.response_samples)
            .position(|(a, b)| a.to_bits() != b.to_bits());
        prop_assert_eq!(first_diff, None);
        prop_assert_eq!(got.response_samples.len(), want.response_samples.len());
        let summary = |r: &SimResult| {
            [r.wait.mean(), r.response.mean(), r.measured_utilization, r.horizon].map(f64::to_bits)
        };
        prop_assert_eq!(summary(&got), summary(&want));
    }
}
