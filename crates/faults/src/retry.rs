//! Job-level recovery policy: timeout, retry budget, exponential backoff.

use crate::error::EnpropError;

/// How the dispatcher recovers a job that times out or loses its cluster.
///
/// An attempt is declared failed when it has not completed within
/// `timeout_factor ×` the fault-free job time, or when every node crashed.
/// Failed attempts are re-dispatched after an exponentially growing
/// backoff, up to `max_retries` retries (so `max_retries + 1` attempts in
/// total).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Attempt timeout as a multiple of the fault-free job duration
    /// (must be > 1: a timeout below the fault-free time can never pass).
    pub timeout_factor: f64,
    /// Backoff before the first retry, seconds.
    pub backoff_base_s: f64,
    /// Multiplier applied to the backoff for each further retry (≥ 1).
    pub backoff_multiplier: f64,
    /// Upper bound on any single backoff, seconds. The exponential curve
    /// saturates here instead of growing without bound — a serving
    /// controller must never park a request for longer than its SLO scale.
    /// Use `f64::INFINITY` for the classic uncapped curve.
    pub backoff_cap_s: f64,
}

impl RetryPolicy {
    /// The dispatcher default: 3 retries, 3× timeout, 1 s → 2× backoff,
    /// capped at 60 s.
    pub fn standard() -> Self {
        RetryPolicy {
            max_retries: 3,
            timeout_factor: 3.0,
            backoff_base_s: 1.0,
            backoff_multiplier: 2.0,
            backoff_cap_s: 60.0,
        }
    }

    /// Validate the policy's parameters.
    pub fn validate(&self) -> Result<(), EnpropError> {
        if self.timeout_factor.is_nan() || self.timeout_factor <= 1.0 {
            return Err(EnpropError::invalid_parameter(
                "timeout_factor",
                format!(
                    "must be > 1 (got {}); attempts could never succeed",
                    self.timeout_factor
                ),
            ));
        }
        if !self.backoff_base_s.is_finite() || self.backoff_base_s < 0.0 {
            return Err(EnpropError::invalid_parameter(
                "backoff_base_s",
                format!("must be finite and ≥ 0, got {}", self.backoff_base_s),
            ));
        }
        if !self.backoff_multiplier.is_finite() || self.backoff_multiplier < 1.0 {
            return Err(EnpropError::invalid_parameter(
                "backoff_multiplier",
                format!("must be finite and ≥ 1, got {}", self.backoff_multiplier),
            ));
        }
        if self.backoff_cap_s.is_nan() || self.backoff_cap_s < 0.0 {
            return Err(EnpropError::invalid_parameter(
                "backoff_cap_s",
                format!("must be ≥ 0 (∞ allowed), got {}", self.backoff_cap_s),
            ));
        }
        Ok(())
    }

    /// Backoff before retry number `retry` (0-based), seconds: the
    /// exponential curve `base × mult^retry`, saturated at
    /// [`RetryPolicy::backoff_cap_s`].
    pub fn backoff_s(&self, retry: u32) -> f64 {
        (self.backoff_base_s * self.backoff_multiplier.powi(retry as i32)).min(self.backoff_cap_s)
    }

    /// Total attempts this policy allows.
    pub fn max_attempts(&self) -> u32 {
        self.max_retries + 1
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy::standard();
        assert_eq!(p.backoff_s(0), 1.0);
        assert_eq!(p.backoff_s(1), 2.0);
        assert_eq!(p.backoff_s(2), 4.0);
        assert_eq!(p.max_attempts(), 4);
    }

    #[test]
    fn backoff_saturates_at_the_cap() {
        let mut p = RetryPolicy::standard();
        p.backoff_cap_s = 5.0;
        assert_eq!(p.backoff_s(2), 4.0);
        assert_eq!(p.backoff_s(3), 5.0);
        assert_eq!(p.backoff_s(30), 5.0);
    }

    #[test]
    fn validation_rejects_negative_or_nan_cap() {
        let mut p = RetryPolicy::standard();
        p.backoff_cap_s = -1.0;
        assert!(p.validate().is_err());
        p.backoff_cap_s = f64::NAN;
        assert!(p.validate().is_err());
        p.backoff_cap_s = f64::INFINITY;
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_rejects_unusable_policies() {
        let mut p = RetryPolicy::standard();
        p.timeout_factor = 1.0;
        assert!(p.validate().is_err());
        let mut p = RetryPolicy::standard();
        p.backoff_multiplier = 0.5;
        assert!(p.validate().is_err());
        let mut p = RetryPolicy::standard();
        p.backoff_base_s = f64::NAN;
        assert!(p.validate().is_err());
        assert!(RetryPolicy::standard().validate().is_ok());
    }
}
