#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! Property tests for the streaming observability primitives
//! (DESIGN.md §14):
//!
//! - **sketch accuracy**: [`QuantileSketch::quantile`] stays within the
//!   documented relative-error bound of the bracketing order statistics —
//!   and hence of `enprop_queueing::exact_quantile`, which interpolates
//!   between them — on uniform, exponential and heavy-tailed samples,
//! - **merge algebra**: merging sketches of equal geometry is commutative
//!   and associative on the aggregate view (count and every quantile),
//! - **windowing conservation**: [`WindowedSeries`] never loses an event —
//!   the retained windows' counts and sums plus the evicted ones equal the
//!   observed stream under arbitrary interleavings of observes at
//!   out-of-order times, idle advances and evictions.

use enprop_obs::{QuantileSketch, WindowedSeries};
use enprop_queueing::exact_quantile;
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// The tail quantiles the serving plane actually consumes.
const QS: [f64; 5] = [0.5, 0.9, 0.95, 0.99, 0.999];

/// Uniform samples over three decades.
fn uniform_samples() -> impl Strategy<Value = Vec<f64>> {
    pvec(1e-3f64..1e3, 32..400)
}

/// Exponential samples via inverse-CDF of uniforms: `-ln(u) · scale`.
fn exponential_samples() -> impl Strategy<Value = Vec<f64>> {
    (pvec(1e-9f64..1.0, 32..400), 1e-3f64..10.0)
        .prop_map(|(us, scale)| us.into_iter().map(|u| -u.ln() * scale).collect())
}

/// Heavy-tailed (Pareto, x_m = 1) samples: `u^(-1/shape)`. Shapes below 2
/// have infinite variance — the regime exact buffering handles poorly and
/// the log-bucketed sketch is built for.
fn heavy_tailed_samples() -> impl Strategy<Value = Vec<f64>> {
    (pvec(1e-6f64..1.0, 32..400), 0.5f64..3.0)
        .prop_map(|(us, shape)| us.into_iter().map(|u| u.powf(-1.0 / shape)).collect())
}

fn sketch_of(xs: &[f64], alpha: f64) -> QuantileSketch {
    let mut s = QuantileSketch::new(alpha);
    for &v in xs {
        s.observe(v);
    }
    s
}

/// Assert the documented contract on one sample set: for each probed `q`,
/// with `x_lo ≤ x_hi` the order statistics bracketing the type-7
/// `q`-quantile,
///
/// ```text
/// (1 − α) · x_lo  ≤  quantile(q)  ≤  (1 + α) · x_hi
/// ```
///
/// and `exact_quantile` itself lies in `[x_lo, x_hi]` — so the sketch is
/// within the documented bound of the exact estimator too.
fn check_bound(xs: &[f64], alpha: f64) -> Result<(), TestCaseError> {
    let s = sketch_of(xs, alpha);
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    for &q in &QS {
        // enprop-lint: allow(float-int-cast) -- q ∈ [0,1] so the rank is an exact in-range index in [0, n-1]
        let rank = (q * (n - 1) as f64).floor() as usize;
        let x_lo = sorted[rank];
        let x_hi = sorted[(rank + 1).min(n - 1)];
        let est = s.quantile(q).unwrap();
        let exact = exact_quantile(xs, q).unwrap();
        prop_assert!(
            x_lo <= exact && exact <= x_hi,
            "exact_quantile left its bracket: q={q} exact={exact} bracket=[{x_lo}, {x_hi}]"
        );
        // A hair of float slack on top of the documented α bound: the
        // bucket midpoint arithmetic (ln/exp round-trips) is not exact.
        let lo = (1.0 - alpha) * x_lo * (1.0 - 1e-9);
        let hi = (1.0 + alpha) * x_hi * (1.0 + 1e-9);
        prop_assert!(
            lo <= est && est <= hi,
            "q={q}: sketch {est} outside [{lo}, {hi}] (exact {exact}, n={n}, alpha={alpha})"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Accuracy contract on uniform samples, across sketch accuracies.
    #[test]
    fn uniform_quantiles_meet_the_bound(
        xs in uniform_samples(),
        alpha in 0.005f64..0.05,
    ) {
        check_bound(&xs, alpha)?;
    }

    /// Accuracy contract on exponential samples.
    #[test]
    fn exponential_quantiles_meet_the_bound(
        xs in exponential_samples(),
        alpha in 0.005f64..0.05,
    ) {
        check_bound(&xs, alpha)?;
    }

    /// Accuracy contract on heavy-tailed (Pareto) samples — the regime
    /// where the tail spans many decades.
    #[test]
    fn heavy_tailed_quantiles_meet_the_bound(
        xs in heavy_tailed_samples(),
        alpha in 0.005f64..0.05,
    ) {
        check_bound(&xs, alpha)?;
    }

    /// Merging equal-geometry sketches is associative and commutative on
    /// the aggregate view: `(a ⊕ b) ⊕ c` and `a ⊕ (b ⊕ c)` agree on the
    /// count and on every probed quantile, bit for bit. (The running sum
    /// is float-order-sensitive by nature and deliberately not compared.)
    #[test]
    fn merge_is_associative_and_commutative(
        a in uniform_samples(),
        b in exponential_samples(),
        c in heavy_tailed_samples(),
    ) {
        let alpha = 0.01;
        let (sa, sb, sc) = (sketch_of(&a, alpha), sketch_of(&b, alpha), sketch_of(&c, alpha));

        let mut ab_c = sa.clone();
        ab_c.merge(&sb);
        ab_c.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut a_bc = sa.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c.count(), a_bc.count());
        for &q in &QS {
            prop_assert_eq!(ab_c.quantile(q), a_bc.quantile(q), "assoc q={}", q);
        }

        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(ab.count(), ba.count());
        for &q in &QS {
            prop_assert_eq!(ab.quantile(q), ba.quantile(q), "comm q={}", q);
        }
    }

    /// A merged sketch answers for the union stream within the same
    /// documented bound as a single sketch over the concatenation.
    #[test]
    fn merge_answers_for_the_union_stream(
        a in uniform_samples(),
        b in exponential_samples(),
    ) {
        let alpha = 0.01;
        let mut m = sketch_of(&a, alpha);
        m.merge(&sketch_of(&b, alpha));
        let mut all = a.clone();
        all.extend_from_slice(&b);
        prop_assert_eq!(m.count(), all.len() as u64);
        // Same data, same geometry: the merged buckets equal the
        // single-stream buckets, so the single-stream bound applies.
        let single = sketch_of(&all, alpha);
        for &q in &QS {
            prop_assert_eq!(m.quantile(q), single.quantile(q), "q={}", q);
        }
    }

    /// Windowing conservation under chaos: arbitrary (time, value) streams,
    /// each value observed the way the serving plane does it (advance to
    /// its time, then observe into the current window, so a value whose
    /// time is out of order lands in the newest window), interleaved with
    /// idle `advance_to` calls, on tiny rings that force constant
    /// eviction, never lose an event or a joule.
    #[test]
    fn windowed_series_conserves_totals_under_chaos(
        window_s in 0.1f64..5.0,
        max_windows in 1usize..16,
        events in pvec((0.0f64..200.0, 0.01f64..100.0), 1..400),
        advances in pvec(0.0f64..400.0, 1..24),
    ) {
        let mut s = WindowedSeries::new(window_s, 0.01, max_windows);
        let keyer = QuantileSketch::new(0.01);
        let mut expect_sum = 0.0f64;
        for (i, &(t, v)) in events.iter().enumerate() {
            s.advance_to(t);
            s.observe_current_keyed(v, keyer.key_for(v));
            expect_sum += v;
            if i % 7 == 0 {
                s.advance_to(advances[i % advances.len()]);
            }
        }
        let total_count = s.evicted_count() + s.windows().map(|w| w.count).sum::<u64>();
        prop_assert_eq!(total_count, events.len() as u64);
        let total = s.evicted_sum() + s.windows().map(|w| w.sum).sum::<f64>();
        // Summation order differs between the windowed books and the
        // straight-line accumulator; allow rounding-level slack only.
        prop_assert!(
            (total - expect_sum).abs() <= 1e-9 * expect_sum.abs().max(1.0),
            "total_sum {} vs observed {}", total, expect_sum
        );
        prop_assert!(s.windows().count() <= max_windows);
    }
}
