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
//! - **recorded metrics**: a name observed through a [`MemoryRecorder`]
//!   exports a `p95` within the same bound, at the default α.

use enprop_obs::{MemoryRecorder, MetricsSnapshot, QuantileSketch, Recorder, DEFAULT_SKETCH_ALPHA};
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
/// the sketch's quantile meets [`check_estimate`].
fn check_bound(xs: &[f64], alpha: f64) -> Result<(), TestCaseError> {
    let s = sketch_of(xs, alpha);
    for &q in &QS {
        check_estimate(xs, q, s.quantile(q).unwrap(), alpha)?;
    }
    Ok(())
}

/// Assert that `est` meets the documented contract for the `q`-quantile
/// of `xs`: with `x_lo ≤ x_hi` the order statistics bracketing the type-7
/// `q`-quantile,
///
/// ```text
/// (1 − α) · x_lo  ≤  est  ≤  (1 + α) · x_hi
/// ```
///
/// and `exact_quantile` itself lies in `[x_lo, x_hi]` — so the estimate is
/// within the documented bound of the exact estimator too.
fn check_estimate(xs: &[f64], q: f64, est: f64, alpha: f64) -> Result<(), TestCaseError> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // enprop-lint: allow(float-int-cast) -- q ∈ [0,1] so the rank is an exact in-range index in [0, n-1]
    let rank = (q * (n - 1) as f64).floor() as usize;
    let x_lo = sorted[rank];
    let x_hi = sorted[(rank + 1).min(n - 1)];
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
        "q={q}: estimate {est} outside [{lo}, {hi}] (exact {exact}, n={n}, alpha={alpha})"
    );
    Ok(())
}

/// The `stat` number of `name`'s entry in a metrics JSON document.
fn json_stat(json: &str, name: &str, stat: &str) -> f64 {
    let entry = &json[json.find(&format!("\"{name}\":{{")).unwrap()..];
    let at = entry.find(&format!("\"{stat}\":")).unwrap() + stat.len() + 3;
    let end = at + entry[at..].find([',', '}']).unwrap();
    entry[at..end].parse().unwrap()
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

    /// A recorded name's metrics `p95` is its sketch's: within α of
    /// `exact_quantile` over the same samples. Queue waits have an atom at
    /// zero, so about half the draws are 0 (the sketch's low side).
    #[test]
    fn recorded_p95_meets_the_bound(
        xs in pvec(-10.0f64..10.0, 32..400)
            .prop_map(|xs| xs.into_iter().map(|v| v.max(0.0)).collect::<Vec<f64>>()),
    ) {
        let mut rec = MemoryRecorder::new();
        for &v in &xs {
            rec.observe("queue.wait_s", v);
        }
        let json = MetricsSnapshot::from_recorder(&rec).to_json();
        let p95 = json_stat(&json, "queue.wait_s", "p95");
        check_estimate(&xs, 0.95, p95, DEFAULT_SKETCH_ALPHA)?;
        prop_assert_eq!(json_stat(&json, "queue.wait_s", "count"), xs.len() as f64);
    }
}
