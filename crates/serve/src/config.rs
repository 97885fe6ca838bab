//! Serving-controller configuration: SLO, power cap, plane geometry and
//! safety valves, all in one validated value. The control-loop cadences
//! and the burn-rate monitor's geometry are constants of the controller
//! and the plane.

use enprop_faults::{EnpropError, RetryPolicy};

/// Everything the [`crate::Controller`] needs besides the workload,
/// cluster, fault plan and arrival stream.
///
/// All times are virtual seconds. [`ServeConfig::validate`] is called by
/// the controller before the first event fires; an invalid config is a
/// usage error (exit code 2), never a panic.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Seed for every controller-side random stream (dispatch tie-breaks
    /// are deterministic and draw nothing; this keys the fault plan's
    /// per-window sampling).
    pub seed: u64,
    /// Timeout / retry / backoff policy for individual dispatches.
    pub retry: RetryPolicy,
    /// The p95 response-time objective, seconds. Breaching it triggers
    /// scale-up, then load shedding.
    pub slo_p95_s: f64,
    /// Cluster power budget, watts (`f64::INFINITY` = uncapped). Breaching
    /// it triggers DVFS brownout, then node deactivation.
    pub power_cap_w: f64,
    /// Repair time for a detected-down node, seconds (fail-stop crash →
    /// detected → repaired → re-admitted).
    pub repair_s: f64,
    /// Fault-sampling window, seconds: the plan's per-node event streams
    /// are materialized one window at a time for as long as serving runs.
    pub fault_window_s: f64,
    /// Admission-control bound on requests in flight (queued + executing).
    /// Arrivals beyond it are shed.
    pub max_inflight: usize,
    /// The controller never deactivates below this many admitted nodes.
    pub min_active_nodes: usize,
    /// At most this many request spans are exported (the obs layer's
    /// bounded-trace convention); accounting covers every request
    /// regardless.
    pub traced_requests: u64,
    /// Optional p999 response-time objective, seconds. When set, a
    /// breached p999 counts as an SLO breach in the control loop alongside
    /// the p95 objective.
    pub slo_p999_s: Option<f64>,
    /// Observability-plane window length, virtual seconds. `0.0` disables
    /// the plane entirely (no windowed gauges, burn monitor, or window
    /// energy; the shed policy falls back to its raw p95 threshold).
    pub obs_window_s: f64,
    /// Relative accuracy of the plane's quantile sketches.
    pub obs_alpha: f64,
    /// Windows the plane retains (memory is O(windows × sketch buckets)).
    pub obs_max_windows: usize,
    /// Bound on the dispatcher's pending queue (requests admitted but
    /// waiting for a dispatchable node). Arrivals beyond it are shed as
    /// backpressure instead of growing the queue without bound.
    pub max_pending: usize,
    /// Consecutive timeouts on one group before its circuit breaker
    /// opens (`0` disables breakers entirely).
    pub breaker_failures: u32,
    /// How long an open breaker blocks a group before the half-open
    /// probe, seconds. The actual re-probe delay is jittered by a seeded
    /// stream so repeatedly-failing groups don't thunder in lockstep.
    pub breaker_open_s: f64,
}

impl ServeConfig {
    /// Serving defaults: 250 ms p95 SLO, uncapped power, 1 s plane windows.
    pub fn new(seed: u64) -> Self {
        ServeConfig {
            seed,
            retry: RetryPolicy::standard(),
            slo_p95_s: 0.25,
            power_cap_w: f64::INFINITY,
            repair_s: 30.0,
            fault_window_s: 60.0,
            max_inflight: 10_000,
            min_active_nodes: 1,
            traced_requests: 512,
            slo_p999_s: None,
            obs_window_s: 1.0,
            obs_alpha: 0.01,
            obs_max_windows: 128,
            max_pending: 4096,
            breaker_failures: 8,
            breaker_open_s: 10.0,
        }
    }

    /// Validate every field (and the embedded retry policy).
    pub fn validate(&self) -> Result<(), EnpropError> {
        self.retry.validate()?;
        for (what, v) in [
            ("slo_p95_s", self.slo_p95_s),
            ("repair_s", self.repair_s),
            ("fault_window_s", self.fault_window_s),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(EnpropError::invalid_parameter(
                    what,
                    format!("must be finite and > 0, got {v}"),
                ));
            }
        }
        if self.power_cap_w.is_nan() || self.power_cap_w <= 0.0 {
            return Err(EnpropError::invalid_parameter(
                "power_cap_w",
                format!("must be > 0 (∞ = uncapped), got {}", self.power_cap_w),
            ));
        }
        if self.max_inflight == 0 {
            return Err(EnpropError::invalid_parameter(
                "max_inflight",
                "must be ≥ 1 (0 would shed every arrival)",
            ));
        }
        if self.min_active_nodes == 0 {
            return Err(EnpropError::invalid_parameter(
                "min_active_nodes",
                "must be ≥ 1 (the controller may never power off everything)",
            ));
        }
        if let Some(p999) = self.slo_p999_s {
            if !p999.is_finite() || p999 <= 0.0 {
                return Err(EnpropError::invalid_parameter(
                    "slo_p999_s",
                    format!("must be finite and > 0 when set, got {p999}"),
                ));
            }
        }
        if !self.obs_window_s.is_finite() || self.obs_window_s < 0.0 {
            return Err(EnpropError::invalid_parameter(
                "obs_window_s",
                format!(
                    "must be finite and ≥ 0 (0 = plane off), got {}",
                    self.obs_window_s
                ),
            ));
        }
        if !self.obs_alpha.is_finite() || self.obs_alpha <= 0.0 || self.obs_alpha >= 0.5 {
            return Err(EnpropError::invalid_parameter(
                "obs_alpha",
                format!("must be in (0, 0.5), got {}", self.obs_alpha),
            ));
        }
        if self.obs_max_windows == 0 {
            return Err(EnpropError::invalid_parameter(
                "obs_max_windows",
                "must be ≥ 1",
            ));
        }
        if self.max_pending == 0 {
            return Err(EnpropError::invalid_parameter(
                "max_pending",
                "must be ≥ 1 (0 would shed every queued request)",
            ));
        }
        if !self.breaker_open_s.is_finite() || self.breaker_open_s <= 0.0 {
            return Err(EnpropError::invalid_parameter(
                "breaker_open_s",
                format!("must be finite and > 0, got {}", self.breaker_open_s),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(ServeConfig::new(7).validate().is_ok());
    }

    #[test]
    fn bad_fields_are_rejected() {
        let mut c = ServeConfig::new(1);
        c.slo_p95_s = 0.0;
        assert!(c.validate().is_err());

        let mut c = ServeConfig::new(1);
        c.power_cap_w = -5.0;
        assert!(c.validate().is_err());
        c.power_cap_w = f64::INFINITY;
        assert!(c.validate().is_ok());

        let mut c = ServeConfig::new(1);
        c.max_inflight = 0;
        assert!(c.validate().is_err());

        let mut c = ServeConfig::new(1);
        c.min_active_nodes = 0;
        assert!(c.validate().is_err());

        let mut c = ServeConfig::new(1);
        c.retry.timeout_factor = 0.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn obs_fields_are_validated() {
        let mut c = ServeConfig::new(1);
        c.obs_window_s = 0.0; // plane off is legal
        assert!(c.validate().is_ok());
        c.obs_window_s = -1.0;
        assert!(c.validate().is_err());

        let mut c = ServeConfig::new(1);
        c.obs_alpha = 0.5;
        assert!(c.validate().is_err());

        let mut c = ServeConfig::new(1);
        c.slo_p999_s = Some(0.0);
        assert!(c.validate().is_err());
        c.slo_p999_s = Some(1.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn resilience_fields_are_validated() {
        let mut c = ServeConfig::new(1);
        c.max_pending = 0;
        assert!(c.validate().is_err());

        let mut c = ServeConfig::new(1);
        c.breaker_failures = 0; // breakers off is legal
        assert!(c.validate().is_ok());

        let mut c = ServeConfig::new(1);
        c.breaker_open_s = 0.0;
        assert!(c.validate().is_err());
        c.breaker_open_s = f64::INFINITY;
        assert!(c.validate().is_err());
    }
}
