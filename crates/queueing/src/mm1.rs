//! M/M/1: Poisson arrivals, exponential service. Used as a fully
//! closed-form baseline to validate the discrete-event simulator.

use crate::Queue;

/// An M/M/1 queue with arrival rate `λ` and mean service time `1/μ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MM1 {
    /// Arrival rate, jobs/second.
    pub lambda: f64,
    /// Service rate, jobs/second.
    pub mu: f64,
}

impl MM1 {
    /// Build from arrival rate and *mean service time* `s = 1/μ`.
    ///
    /// # Panics
    /// Panics unless `λ ≥ 0`, `s > 0` and `ρ = λ·s < 1`.
    pub fn new(lambda: f64, mean_service: f64) -> Self {
        assert!(lambda >= 0.0 && mean_service > 0.0, "invalid rates");
        let q = MM1 {
            lambda,
            mu: 1.0 / mean_service,
        };
        assert!(q.rho() < 1.0, "unstable: rho = {}", q.rho());
        q
    }

    /// Build from a target utilization: `λ = u / s`.
    pub fn from_utilization(mean_service: f64, u: f64) -> Self {
        assert!((0.0..1.0).contains(&u), "utilization must be in [0, 1)");
        Self::new(u / mean_service, mean_service)
    }

    /// Quantile of the response time: `T_q = −ln(1−q)/(μ(1−ρ))`.
    pub fn response_time_quantile(&self, q: f64) -> f64 {
        assert!((0.0..1.0).contains(&q), "quantile must be in [0, 1)");
        -(1.0 - q).ln() / (self.mu * (1.0 - self.rho()))
    }
}

impl Queue for MM1 {
    fn rho(&self) -> f64 {
        self.lambda / self.mu
    }
    fn mean_wait(&self) -> f64 {
        let rho = self.rho();
        rho / (self.mu * (1.0 - rho))
    }
    fn mean_response_time(&self) -> f64 {
        1.0 / (self.mu * (1.0 - self.rho()))
    }
    fn mean_queue_length(&self) -> f64 {
        self.lambda * self.mean_wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_values() {
        // λ = 8/s, s = 0.1 s → ρ = 0.8, W = ρ/(μ(1−ρ)) = 0.8/(10·0.2) = 0.4 s.
        let q = MM1::new(8.0, 0.1);
        assert!((q.rho() - 0.8).abs() < 1e-12);
        assert!((q.mean_wait() - 0.4).abs() < 1e-12);
        assert!((q.mean_response_time() - 0.5).abs() < 1e-12);
        assert!((q.mean_queue_length() - 3.2).abs() < 1e-12);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let q = MM1::from_utilization(0.01, 0.7);
        for p in [0.5, 0.9, 0.95, 0.99] {
            let t = q.response_time_quantile(p);
            // The response-time CDF, `P(T ≤ t) = 1 − e^{−μ(1−ρ)t}`.
            let cdf = 1.0 - (-(q.mu * (1.0 - q.rho()) * t)).exp();
            assert!((cdf - p).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_load_is_pure_service() {
        let q = MM1::new(0.0, 0.25);
        assert_eq!(q.mean_wait(), 0.0);
        assert!((q.mean_response_time() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn rejects_overload() {
        let _ = MM1::new(11.0, 0.1);
    }
}
