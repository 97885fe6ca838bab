//! Streaming request arrivals: synthetic Poisson / diurnal generators and
//! the replay front end.
//!
//! All randomness flows through keyed [`FaultRng`] streams, so an arrival
//! sequence is a pure function of `(model, seed)` — the serving
//! controller's determinism contract starts here.

use enprop_faults::{EnpropError, FaultRng};

use crate::trace::ReplayCursor;

/// One request arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Arrival instant, virtual seconds from serve start.
    pub t_s: f64,
    /// Request size, operations (the unit [`enprop_workloads`] node models
    /// rate in).
    pub ops: f64,
    /// SLO class: 0 = latency-critical, ≥ 1 = best-effort. The emergency
    /// ladder sheds high classes first (DESIGN.md §16).
    pub class: u8,
}

/// The arrival-rate process of a synthetic open-loop load generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Homogeneous Poisson arrivals at `rate` requests/second.
    Poisson {
        /// Mean arrival rate, requests/second.
        rate: f64,
    },
    /// A diurnal (day/night) cycle: a non-homogeneous Poisson process whose
    /// rate swings sinusoidally between `base_rate` (start of each period)
    /// and `peak_rate` (mid-period), sampled by thinning.
    Diurnal {
        /// Trough arrival rate, requests/second.
        base_rate: f64,
        /// Peak arrival rate, requests/second.
        peak_rate: f64,
        /// Cycle length, seconds.
        period_s: f64,
    },
}

impl ArrivalModel {
    /// Validate rates and period.
    pub fn validate(&self) -> Result<(), EnpropError> {
        match *self {
            ArrivalModel::Poisson { rate } => {
                if !rate.is_finite() || rate <= 0.0 {
                    return Err(EnpropError::invalid_parameter(
                        "arrival rate",
                        format!("must be finite and > 0, got {rate}"),
                    ));
                }
            }
            ArrivalModel::Diurnal {
                base_rate,
                peak_rate,
                period_s,
            } => {
                if !base_rate.is_finite() || base_rate <= 0.0 {
                    return Err(EnpropError::invalid_parameter(
                        "base_rate",
                        format!("must be finite and > 0, got {base_rate}"),
                    ));
                }
                if !peak_rate.is_finite() || peak_rate < base_rate {
                    return Err(EnpropError::invalid_parameter(
                        "peak_rate",
                        format!("must be finite and ≥ base_rate, got {peak_rate}"),
                    ));
                }
                if !period_s.is_finite() || period_s <= 0.0 {
                    return Err(EnpropError::invalid_parameter(
                        "period_s",
                        format!("must be finite and > 0, got {period_s}"),
                    ));
                }
            }
        }
        Ok(())
    }

    /// The envelope rate the thinning sampler proposes at.
    fn peak(&self) -> f64 {
        match *self {
            ArrivalModel::Poisson { rate } => rate,
            ArrivalModel::Diurnal { peak_rate, .. } => peak_rate,
        }
    }

    /// Instantaneous arrival rate at virtual time `t`.
    pub fn rate_at(&self, t_s: f64) -> f64 {
        match *self {
            ArrivalModel::Poisson { rate } => rate,
            ArrivalModel::Diurnal {
                base_rate,
                peak_rate,
                period_s,
            } => {
                let phase = (t_s / period_s) * std::f64::consts::TAU;
                base_rate + (peak_rate - base_rate) * 0.5 * (1.0 - phase.cos())
            }
        }
    }
}

/// A finite, seeded synthetic arrival stream.
///
/// Inter-arrival gaps come from one keyed RNG stream, request sizes from a
/// second, so changing the size jitter never perturbs the arrival times.
/// The snapshot walks the cursor fields in place (DESIGN.md §16).
#[derive(Debug)]
pub struct SyntheticArrivals {
    pub(crate) model: ArrivalModel,
    pub(crate) gap_rng: FaultRng,
    pub(crate) size_rng: FaultRng,
    /// Dedicated class stream: drawing (or not drawing) request classes
    /// never perturbs gaps or sizes.
    pub(crate) class_rng: FaultRng,
    /// Virtual time of the last emitted arrival.
    pub(crate) t: f64,
    /// The configured stream length.
    pub(crate) requests: u64,
    /// Arrivals still to emit.
    pub(crate) remaining: u64,
    pub(crate) ops_per_request: f64,
    pub(crate) ops_jitter: f64,
    /// Probability an arrival is best-effort (class 1); 0 = all
    /// latency-critical, the default.
    pub(crate) best_effort: f64,
}

impl SyntheticArrivals {
    /// A stream of `requests` arrivals under `model`. Request sizes are
    /// `ops_per_request` scaled by a uniform factor in
    /// `[1 − ops_jitter, 1 + ops_jitter]` (`ops_jitter` in `[0, 1)`).
    pub fn new(
        model: ArrivalModel,
        requests: u64,
        ops_per_request: f64,
        ops_jitter: f64,
        seed: u64,
    ) -> Result<Self, EnpropError> {
        model.validate()?;
        if !ops_per_request.is_finite() || ops_per_request <= 0.0 {
            return Err(EnpropError::invalid_parameter(
                "ops_per_request",
                format!("must be finite and > 0, got {ops_per_request}"),
            ));
        }
        if !ops_jitter.is_finite() || !(0.0..1.0).contains(&ops_jitter) {
            return Err(EnpropError::invalid_parameter(
                "ops_jitter",
                format!("must be in [0, 1), got {ops_jitter}"),
            ));
        }
        Ok(SyntheticArrivals {
            model,
            gap_rng: FaultRng::from_key(&[seed, 0x61727269]),
            size_rng: FaultRng::from_key(&[seed, 0x73697a65]),
            class_rng: FaultRng::from_key(&[seed, 0x636c6173]),
            t: 0.0,
            requests,
            remaining: requests,
            ops_per_request,
            ops_jitter,
            best_effort: 0.0,
        })
    }

    /// Mark a fraction of arrivals best-effort (class 1), drawn from a
    /// dedicated stream so gaps and sizes are untouched. `frac` must be
    /// in `[0, 1]`.
    pub fn with_best_effort(mut self, frac: f64) -> Result<Self, EnpropError> {
        if !frac.is_finite() || !(0.0..=1.0).contains(&frac) {
            return Err(EnpropError::invalid_parameter(
                "best_effort",
                format!("must be in [0, 1], got {frac}"),
            ));
        }
        self.best_effort = frac;
        Ok(self)
    }

    /// Exponential gap at the envelope rate; `unit()` is in `[0, 1)`, so
    /// `1 − u` is in `(0, 1]` and the log is finite.
    fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.gap_rng.unit()).ln() / rate
    }

    /// Next arrival, or `None` when the stream is exhausted.
    pub fn next_arrival(&mut self) -> Option<Arrival> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let peak = self.model.peak();
        loop {
            self.t += self.exp_gap(peak);
            // Thinning: accept a candidate with probability λ(t)/λ_peak.
            // For the homogeneous model the ratio is 1 and the first
            // candidate always lands.
            if self.gap_rng.unit() * peak < self.model.rate_at(self.t) {
                break;
            }
        }
        let jitter = 1.0 + self.ops_jitter * (2.0 * self.size_rng.unit() - 1.0);
        // Always draw the class so the stream's cursor advances uniformly
        // whether or not best-effort traffic is enabled (checkpoint state
        // stays a pure function of arrivals emitted).
        let class = u8::from(self.class_rng.unit() < self.best_effort);
        Some(Arrival {
            t_s: self.t,
            ops: self.ops_per_request * jitter,
            class,
        })
    }
}

/// What feeds the controller: a live generator or a recorded trace.
#[derive(Debug)]
pub enum ArrivalSource {
    /// Synthetic open-loop generator ([`SyntheticArrivals`]).
    Synthetic(SyntheticArrivals),
    /// Replay of a parsed JSONL trace ([`ReplayCursor`]).
    Replay(ReplayCursor),
}

impl ArrivalSource {
    /// Pull the next arrival, or `None` at end of stream.
    pub fn next_arrival(&mut self) -> Option<Arrival> {
        match self {
            ArrivalSource::Synthetic(s) => s.next_arrival(),
            ArrivalSource::Replay(r) => r.next_arrival(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut s: SyntheticArrivals) -> Vec<Arrival> {
        let mut out = Vec::new();
        while let Some(a) = s.next_arrival() {
            out.push(a);
        }
        out
    }

    #[test]
    fn poisson_stream_is_finite_ordered_and_deterministic() {
        let m = ArrivalModel::Poisson { rate: 100.0 };
        let a = drain(SyntheticArrivals::new(m, 500, 1000.0, 0.2, 7).unwrap());
        let b = drain(SyntheticArrivals::new(m, 500, 1000.0, 0.2, 7).unwrap());
        assert_eq!(a.len(), 500);
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[1].t_s > w[0].t_s);
        }
        for x in &a {
            assert!(
                x.ops >= 800.0 - 1e-9 && x.ops <= 1200.0 + 1e-9,
                "ops {}",
                x.ops
            );
        }
    }

    #[test]
    fn poisson_mean_rate_is_close() {
        let m = ArrivalModel::Poisson { rate: 50.0 };
        let a = drain(SyntheticArrivals::new(m, 20_000, 1.0, 0.0, 3).unwrap());
        let horizon = a.last().map(|x| x.t_s).unwrap_or(0.0);
        let rate = a.len() as f64 / horizon;
        assert!((rate - 50.0).abs() < 2.0, "empirical rate {rate}");
    }

    #[test]
    fn diurnal_peaks_mid_period() {
        let m = ArrivalModel::Diurnal {
            base_rate: 10.0,
            peak_rate: 100.0,
            period_s: 100.0,
        };
        assert!((m.rate_at(0.0) - 10.0).abs() < 1e-9);
        assert!((m.rate_at(50.0) - 100.0).abs() < 1e-9);
        // Thinning concentrates arrivals mid-period.
        let a = drain(SyntheticArrivals::new(m, 10_000, 1.0, 0.0, 11).unwrap());
        let in_first_period: Vec<_> = a.iter().filter(|x| x.t_s < 100.0).collect();
        let mid = in_first_period
            .iter()
            .filter(|x| x.t_s > 25.0 && x.t_s < 75.0)
            .count();
        assert!(
            mid * 2 > in_first_period.len(),
            "mid-period arrivals {} of {}",
            mid,
            in_first_period.len()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let m = ArrivalModel::Poisson { rate: 10.0 };
        let a = drain(SyntheticArrivals::new(m, 50, 1.0, 0.0, 1).unwrap());
        let b = drain(SyntheticArrivals::new(m, 50, 1.0, 0.0, 2).unwrap());
        assert_ne!(a, b);
    }

    #[test]
    fn invalid_models_are_rejected() {
        assert!(ArrivalModel::Poisson { rate: 0.0 }.validate().is_err());
        assert!(ArrivalModel::Poisson { rate: f64::NAN }.validate().is_err());
        assert!(ArrivalModel::Diurnal {
            base_rate: 10.0,
            peak_rate: 5.0,
            period_s: 100.0
        }
        .validate()
        .is_err());
        let m = ArrivalModel::Poisson { rate: 1.0 };
        assert!(SyntheticArrivals::new(m, 1, 0.0, 0.0, 1).is_err());
        assert!(SyntheticArrivals::new(m, 1, 1.0, 1.0, 1).is_err());
    }
}
