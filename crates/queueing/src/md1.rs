//! M/D/1: Poisson arrivals, deterministic service — the paper's dispatcher
//! model (§II-B). Jobs arrive with exponentially distributed inter-arrival
//! times (rate `λ_job`), each takes the fixed modeled time `T_P`, and the
//! cluster utilization is `U = T_P · λ_job`.
//!
//! Means come from Pollaczek–Khinchine; the full waiting-time distribution
//! uses Erlang's classical series (often attributed to Crommelin):
//!
//! ```text
//! P(W ≤ t) = (1 − ρ) · Σ_{k=0}^{⌊t/D⌋} e^{λ(t − kD)} · (−λ(t − kD))^k / k!
//! ```
//!
//! The series alternates, so its terms grow far larger than the sum: each
//! term is computed directly as `e^x·Π x/i` and the series gives up as soon
//! as one exceeds `e^{MAG_LIMIT}`. Beyond that a Cramér–Lundberg
//! exponential tail `P(W > t) ≈ α·e^{−θt}` (with `θ` the positive root of
//! `λ(e^{θD} − 1) = θ`) takes over, anchored where the series still holds.
//! For every `t ≥ MAG_LIMIT/λ` that anchor search starts at `MAG_LIMIT/λ`,
//! so `θ` and `α` are the same for all of them and
//! [`MD1::wait_quantile`] solves them once per call instead of once per
//! bisection step.

use crate::Queue;

/// `ln` of the largest series term magnitude we accept before declaring
/// the alternating series numerically unreliable: with compensated (Kahan)
/// summation, terms up to `e^{25} ≈ 7·10¹⁰` keep the cancellation error
/// around `e^{25}·ε_f64·√n ≈ 10⁻⁴`. Each term's magnitude is compared
/// with `e^{MAG_LIMIT}` as computed. The `k = 0` term is `e^{λt}`, so the
/// series always gives up for `λt > MAG_LIMIT`, and `MAG_LIMIT/λ` is where
/// the shared far tail is anchored.
const MAG_LIMIT: f64 = 25.0;

/// Hard cap on series length (protects pathological `t/D` ratios; the tail
/// approximation takes over beyond it).
const TERM_LIMIT: usize = 4096;

/// An M/D/1 queue with arrival rate `λ` and deterministic service time `D`.
///
/// ```
/// use enprop_queueing::{Queue, MD1};
/// // 10 ms jobs at 80% utilization: PK gives Wq = ρD/(2(1−ρ)) = 20 ms.
/// let q = MD1::from_utilization(0.010, 0.8);
/// assert!((q.mean_wait() - 0.020).abs() < 1e-12);
/// assert!(q.response_time_quantile(0.95) > q.mean_response_time());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MD1 {
    /// Arrival rate, jobs/second.
    pub lambda: f64,
    /// Deterministic service time, seconds.
    pub service: f64,
}

impl MD1 {
    /// Build from arrival rate and service time.
    ///
    /// # Panics
    /// Panics unless `λ ≥ 0`, `D > 0` and `ρ = λ·D < 1`.
    pub fn new(lambda: f64, service: f64) -> Self {
        assert!(lambda >= 0.0 && service > 0.0, "invalid rates");
        let q = MD1 { lambda, service };
        assert!(q.rho() < 1.0, "unstable: rho = {}", q.rho());
        q
    }

    /// Build from a target utilization `u ∈ [0, 1)`: `λ = u / D`.
    ///
    /// This is the paper's construction: the impact of utilization is
    /// simulated "by varying the arrival rate such that the utilization
    /// varies between 0 and 1".
    pub fn from_utilization(service: f64, u: f64) -> Self {
        assert!((0.0..1.0).contains(&u), "utilization must be in [0, 1)");
        Self::new(u / service, service)
    }

    /// CDF of the queueing *wait* `P(W ≤ t)`.
    pub fn wait_cdf(&self, t: f64) -> f64 {
        self.wait_cdf_with(t, &mut None)
    }

    /// [`MD1::wait_cdf`], taking the tail for `t ≥ MAG_LIMIT/λ` from `far`
    /// and filling `far` the first time one is needed.
    fn wait_cdf_with(&self, t: f64, far: &mut Option<Tail>) -> f64 {
        if t < 0.0 {
            return 0.0;
        }
        if self.lambda == 0.0 {
            return 1.0;
        }
        if let Some(v) = self.wait_cdf_series(t) {
            return v;
        }
        let far_t = MAG_LIMIT / self.lambda;
        let tail = if t >= far_t {
            *far.get_or_insert_with(|| self.tail_below(far_t))
        } else {
            self.tail_below(t)
        };
        (1.0 - tail.alpha * (-tail.theta * t).exp()).clamp(0.0, 1.0)
    }

    /// The exponential tail anchored at the largest `t̂ = start·0.8^j` where
    /// the series still converges cleanly AND the tail probability carries
    /// signal above the series noise floor (~1e-4); below one service time
    /// it falls back to the origin anchor `P(W > 0) = ρ`.
    fn tail_below(&self, start: f64) -> Tail {
        let theta = self.decay_rate();
        let mut t_hat = start;
        let alpha = loop {
            if t_hat < self.service {
                break self.rho();
            }
            if let Some(v) = self.wait_cdf_series(t_hat) {
                let tail = 1.0 - v;
                if tail >= 1e-3 {
                    break tail * (theta * t_hat).exp();
                }
            }
            t_hat *= 0.8;
        };
        Tail { theta, alpha }
    }

    /// Erlang's finite series: `Some(value)` while every term magnitude is
    /// small enough for f64 cancellation to stay below ~1e-4, else `None`.
    fn wait_cdf_series(&self, t: f64) -> Option<f64> {
        let d = self.service;
        // enprop-lint: allow(float-int-cast) -- an out-of-range t/d saturates to usize::MAX, which the TERM_LIMIT bail-out below rejects
        let n = (t / d).floor() as usize;
        if n > TERM_LIMIT {
            return None;
        }
        // Compensated (Kahan) summation of terms computed *directly*
        // (e^x · Π x/i): log-space evaluation would amplify the ~1e-14
        // rounding of `x + k·ln x − ln k!` by e^{mag} and wreck the sum.
        // The guard checks the very magnitude that is summed.
        let max_mag = MAG_LIMIT.exp();
        let mut sum = 0.0f64;
        let mut comp = 0.0f64;
        // term_k = e^{x_k} (−x_k)^k / k!,  x_k = λ(t − kD) ≥ 0
        for k in 0..=n {
            let x = self.lambda * (t - k as f64 * d);
            let mut mag = x.exp();
            for i in 1..=k {
                mag *= x / i as f64;
            }
            if mag > max_mag {
                return None;
            }
            let term = if k % 2 == 0 { mag } else { -mag };
            let y = term - comp;
            let t_new = sum + y;
            comp = (t_new - sum) - y;
            sum = t_new;
        }
        Some(((1.0 - self.rho()) * sum).clamp(0.0, 1.0))
    }

    /// Positive root `θ` of `λ(e^{θD} − 1) = θ` — the asymptotic decay rate
    /// of the waiting-time tail (Cramér–Lundberg adjustment coefficient).
    /// With no arrivals there is no positive root, and this returns 0.
    pub fn decay_rate(&self) -> f64 {
        let rho = self.rho();
        let d = self.service;
        if rho == 0.0 {
            return 0.0;
        }
        // f(θ) = λ(e^{θD} − 1) − θ is convex with its minimum at
        // θD = ln(1/ρ). At the seed θD = 2·ln(1/ρ), D·f = 1/ρ − ρ − 2·ln(1/ρ)
        // > 0 for every ρ in (0, 1), so the seed lies right of the positive
        // root and Newton descends to it monotonically. The heavy-traffic
        // estimate θD ≈ 2(1 − ρ) is no safe seed: for ρ < 0.206 it lies left
        // of the minimum, and Newton slides to the trivial root θ = 0. Far
        // right of the root each step lowers θD by about 1, so the 100-step
        // cap reaches the root for ρ down to ~1e-42.
        let mut theta = -2.0 * rho.ln() / d;
        for _ in 0..100 {
            let f = self.lambda * ((theta * d).exp() - 1.0) - theta;
            let fp = self.lambda * d * (theta * d).exp() - 1.0;
            let step = f / fp;
            theta -= step;
            if step.abs() < 1e-14 * theta.abs().max(1.0) {
                break;
            }
        }
        theta.max(0.0)
    }

    /// Quantile of the queueing wait: smallest `t` with `P(W ≤ t) ≥ q`,
    /// bracketed by doubling from `D` and bisected to `1e-12·D`. Every step
    /// reads exactly [`MD1::wait_cdf`]; only the far tail is shared.
    pub fn wait_quantile(&self, q: f64) -> f64 {
        assert!((0.0..1.0).contains(&q), "quantile must be in [0, 1)");
        if self.lambda == 0.0 || q <= 1.0 - self.rho() {
            // With probability 1 − ρ a job does not wait at all.
            return 0.0;
        }
        // Bracket then bisect; every step past MAG_LIMIT/λ shares one tail.
        let mut far = None;
        let mut hi = self.service;
        while self.wait_cdf_with(hi, &mut far) < q {
            hi *= 2.0;
            assert!(hi.is_finite(), "failed to bracket quantile");
        }
        let mut lo = 0.0;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.wait_cdf_with(mid, &mut far) < q {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-12 * self.service.max(1e-300) {
                break;
            }
        }
        0.5 * (lo + hi)
    }

    /// Quantile of the *response* time. With deterministic service the
    /// response time is exactly `W + D`, so quantiles shift by `D`.
    pub fn response_time_quantile(&self, q: f64) -> f64 {
        self.wait_quantile(q) + self.service
    }

    /// CDF of the response time `P(W + D ≤ t)`.
    pub fn response_time_cdf(&self, t: f64) -> f64 {
        self.wait_cdf(t - self.service)
    }
}

impl Queue for MD1 {
    fn rho(&self) -> f64 {
        self.lambda * self.service
    }
    fn mean_wait(&self) -> f64 {
        // Pollaczek–Khinchine with zero service variance.
        let rho = self.rho();
        rho * self.service / (2.0 * (1.0 - rho))
    }
    fn mean_response_time(&self) -> f64 {
        self.mean_wait() + self.service
    }
    fn mean_queue_length(&self) -> f64 {
        self.lambda * self.mean_wait()
    }
}

/// Exponential tail `P(W > t) ≈ α·e^{−θt}` of the waiting time.
#[derive(Debug, Clone, Copy)]
struct Tail {
    theta: f64,
    alpha: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pk_mean_wait() {
        // ρ = 0.8, D = 1 → Wq = 0.8/(2·0.2) = 2.0
        let q = MD1::from_utilization(1.0, 0.8);
        assert!((q.mean_wait() - 2.0).abs() < 1e-12);
        assert!((q.mean_response_time() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn md1_waits_half_of_mm1() {
        // Deterministic service halves the PK waiting time vs exponential.
        let md1 = MD1::from_utilization(0.01, 0.9);
        let mm1 = crate::MM1::from_utilization(0.01, 0.9);
        assert!((md1.mean_wait() - 0.5 * mm1.mean_wait()).abs() < 1e-12);
    }

    #[test]
    fn cdf_at_zero_is_one_minus_rho() {
        for u in [0.1, 0.5, 0.9] {
            let q = MD1::from_utilization(1.0, u);
            assert!((q.wait_cdf(0.0) - (1.0 - u)).abs() < 1e-10, "u = {u}");
        }
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        // At ρ = 0.1 the walk reaches t = 1000·D, deep in the exponential
        // tail: a decay rate of 0 there would hold the CDF at
        // 1 − α = 0.99821, below the series' own 1 at t = 100.
        for (u, steps) in [(0.85, 200), (0.1, 4001)] {
            let q = MD1::from_utilization(1.0, u);
            let mut prev = 0.0;
            for i in 0..steps {
                let t = i as f64 * 0.25;
                let f = q.wait_cdf(t);
                assert!((0.0..=1.0).contains(&f));
                // The alternating series carries ~1e-4 cancellation noise
                // near its reliability limit; monotone up to that tolerance.
                assert!(f + 1e-3 >= prev, "u = {u}: CDF decreased at t = {t}");
                prev = f;
            }
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let q = MD1::from_utilization(0.010, 0.8);
        for p in [0.5, 0.9, 0.95, 0.99] {
            let t = q.wait_quantile(p);
            assert!(
                (q.wait_cdf(t) - p).abs() < 1e-6,
                "p = {p}: cdf({t}) = {}",
                q.wait_cdf(t)
            );
        }
    }

    #[test]
    fn no_wait_below_one_minus_rho() {
        let q = MD1::from_utilization(1.0, 0.6);
        assert_eq!(q.wait_quantile(0.3), 0.0);
        assert_eq!(q.wait_quantile(0.39), 0.0);
        assert!(q.wait_quantile(0.5) > 0.0);
    }

    #[test]
    fn decay_rate_satisfies_adjustment_equation() {
        // Light traffic too, down to ρ = 1e-6, where a seed left of the
        // minimum of λ(e^{θD} − 1) − θ would slide to θ = 0.
        for u in [1e-6, 1e-4, 0.01, 0.1, 0.2, 0.206, 0.3, 0.6, 0.9, 0.97] {
            let q = MD1::from_utilization(2.0, u);
            let th = q.decay_rate();
            assert!(th > 0.0, "u = {u}: theta = {th}");
            let lhs = q.lambda * ((th * q.service).exp() - 1.0);
            assert!((lhs - th).abs() < 1e-8 * th, "u = {u}: theta = {th}");
        }
        assert_eq!(MD1::new(0.0, 1.0).decay_rate(), 0.0);
    }

    #[test]
    fn deep_quantiles_finite_under_heavy_load() {
        // λt at p999 exceeds the series limit → exercises the tail branch.
        let q = MD1::from_utilization(1.0, 0.97);
        let p999 = q.wait_quantile(0.999);
        assert!(p999.is_finite() && p999 > q.mean_wait());
        // Tail is exponential: p999 − p99 ≈ ln(10)/θ.
        let p99 = q.wait_quantile(0.99);
        let gap = p999 - p99;
        let expect = (10.0f64).ln() / q.decay_rate();
        assert!(
            (gap - expect).abs() / expect < 0.15,
            "gap {gap} vs {expect}"
        );
    }

    #[test]
    fn response_is_wait_plus_service() {
        let q = MD1::from_utilization(0.5, 0.7);
        assert!((q.response_time_quantile(0.95) - q.wait_quantile(0.95) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_load_never_waits() {
        let q = MD1::new(0.0, 1.0);
        assert_eq!(q.wait_cdf(0.0), 1.0);
        assert_eq!(q.wait_quantile(0.99), 0.0);
        assert_eq!(q.mean_wait(), 0.0);
    }
}
