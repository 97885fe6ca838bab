#![allow(clippy::unwrap_used)] // test code: panicking on a missing catalog entry is the desired failure mode

//! Bit-exact pins of the M/D/1 p95 path behind Figs. 11–12: the figure
//! values themselves, and `MD1::wait_quantile` against a bisection over
//! the public `wait_cdf` well beyond the figure grid.

use enprop::prelude::*;

/// FNV-1a-64 over the little-endian bytes of each value's bits: the
/// digest the benchmark's `golden/paper_all.txt` records for `fig11` and
/// `fig12`.
fn fnv1a(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Figs. 11 (EP) and 12 (x264): `p95_response_time(u)` for u = 0.20,
/// 0.25, …, 0.95 on the five Figs. 9–12 Pareto mixes, bit for bit.
#[test]
fn fig11_fig12_p95_bits_are_pinned() {
    let mixes = [(32, 12), (25, 10), (25, 8), (25, 7), (25, 5)];
    for (name, want) in [
        ("EP", 0x0bb6_bb95_f2e9_70c6_u64),
        ("x264", 0x7617_9079_c9a1_9964),
    ] {
        let w = catalog::by_name(name).unwrap();
        let p95 = mixes.iter().flat_map(|&(a9, k10)| {
            let m = ClusterModel::new(w.clone(), ClusterSpec::a9_k10(a9, k10));
            (4..=19).map(move |i| m.p95_response_time(f64::from(i) / 20.0))
        });
        let got = fnv1a(p95);
        assert_eq!(
            got, want,
            "{name}: p95 digest {got:016x}, pinned {want:016x}"
        );
    }
}

/// The smallest `t` with `wait_cdf(t) ≥ p`, found by the same bracket and
/// bisection `MD1::wait_quantile` documents, calling only `wait_cdf`.
fn bisect_quantile(q: &MD1, p: f64) -> f64 {
    if q.lambda == 0.0 || p <= 1.0 - q.rho() {
        return 0.0;
    }
    let mut hi = q.service;
    while q.wait_cdf(hi) < p {
        hi *= 2.0;
        assert!(hi.is_finite(), "failed to bracket quantile");
    }
    let mut lo = 0.0;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if q.wait_cdf(mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 * q.service.max(1e-300) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// `wait_quantile` is exactly the bisection over `wait_cdf`, bit for bit,
/// up to u = 0.99 and q = 0.999: deep in the exponential tail (steps
/// above `25/λ`) and where the series already gives up below it.
#[test]
fn wait_quantile_is_bisection_over_wait_cdf() {
    let us = [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.97, 0.99];
    let ps = [0.5, 0.9, 0.95, 0.99, 0.995, 0.999];
    for service in [1.0, 0.01, 3.7e-4] {
        for u in us {
            let q = MD1::from_utilization(service, u);
            for p in ps {
                let (got, want) = (q.wait_quantile(p), bisect_quantile(&q, p));
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "D = {service}, u = {u}, q = {p}: {got} vs {want}"
                );
            }
        }
    }
}
