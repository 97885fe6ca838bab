//! What a serving run reports: request accounting (the conservation
//! invariant), latency and energy aggregates, and every class of
//! fault-tolerance / reconfiguration action taken.

/// The outcome of one [`crate::Controller`] run.
///
/// The load-bearing invariant is conservation: every arrival is accounted
/// for exactly once — completed, shed (by admission control or retry
/// exhaustion), or still in flight at a forced stop. The chaos harness
/// asserts [`ServeReport::conservation_ok`] under randomized fault plans.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeReport {
    /// Requests that arrived.
    pub arrivals: u64,
    /// Requests that completed successfully.
    pub completions: u64,
    /// Requests shed at admission (shed mode or in-flight cap).
    pub shed_admission: u64,
    /// Requests dropped after exhausting their retry budget.
    pub shed_retry: u64,
    /// Requests still in flight when the run force-stopped (0 on a clean
    /// drain).
    pub in_flight_at_stop: u64,
    /// Dispatch timeouts observed.
    pub timeouts: u64,
    /// Retry dispatches (budget-consuming re-dispatches after a timeout).
    pub retries: u64,
    /// Re-routes of queued/running work off nodes detected down (these do
    /// not consume retry budget).
    pub reroutes: u64,
    /// Crash faults injected.
    pub crashes: u64,
    /// Stall faults injected.
    pub stalls: u64,
    /// Straggler faults injected.
    pub stragglers: u64,
    /// Down nodes repaired and re-admitted.
    pub repairs: u64,
    /// Controller decisions: nodes activated.
    pub activations: u64,
    /// Controller decisions: nodes drained / deactivated.
    pub deactivations: u64,
    /// Controller decisions: DVFS steps up.
    pub dvfs_up: u64,
    /// Controller decisions: DVFS steps down (brownout).
    pub dvfs_down: u64,
    /// Shed-mode entries + exits.
    pub shed_toggles: u64,
    /// Requests shed by bounded-queue backpressure (pending queue full).
    /// Counted inside [`ServeReport::shed`] alongside the admission sheds.
    pub shed_backpressure: u64,
    /// Correlated rack-crash events (each hits a whole rack atomically).
    pub rack_crashes: u64,
    /// Correlated PDU-loss events (crash + zero watts until repair).
    pub pdu_losses: u64,
    /// Correlated network partitions (domain-wide stalls).
    pub partitions: u64,
    /// Cluster-wide power emergencies entered.
    pub power_emergencies: u64,
    /// Emergency-ladder escalations taken (brownout / park / shed rungs).
    pub emergency_actions: u64,
    /// Circuit breakers opened (including half-open probes that failed).
    pub breaker_opens: u64,
    /// Circuit breakers closed by a successful half-open probe.
    pub breaker_closes: u64,
    /// Virtual time served, seconds.
    pub horizon_s: f64,
    /// Cluster energy over the run, joules.
    pub energy_j: f64,
    /// Mean cluster power, watts (`energy_j / horizon_s`).
    pub mean_power_w: f64,
    /// Mean response time of completed requests, seconds.
    pub mean_response_s: f64,
    /// Median response time, seconds (`NaN` when nothing completed).
    pub p50_s: f64,
    /// 95th-percentile response time, seconds (`NaN` when nothing
    /// completed).
    pub p95_s: f64,
    /// 99th-percentile response time, seconds (`NaN` when nothing
    /// completed).
    pub p99_s: f64,
    /// 99.9th-percentile response time, seconds (`NaN` when nothing
    /// completed). Sourced from the bounded-memory sketch, accurate to
    /// the documented relative-error bound (DESIGN.md §14).
    pub p999_s: f64,
    /// Discrete events processed (the livelock guard's measure).
    pub events: u64,
    /// True when the drain deadline force-stopped the run with work still
    /// in flight.
    pub forced_stop: bool,
}

impl ServeReport {
    /// Total shed requests (admission + backpressure + retry exhaustion).
    pub fn shed(&self) -> u64 {
        self.shed_admission + self.shed_backpressure + self.shed_retry
    }

    /// The conservation invariant: `arrivals = completions + shed +
    /// in-flight`.
    pub fn conservation_ok(&self) -> bool {
        self.arrivals == self.completions + self.shed() + self.in_flight_at_stop
    }

    /// One-line accounting summary (ends with `conservation: OK` /
    /// `conservation: VIOLATED` — the serve-smoke gate greps for it).
    pub fn conservation_line(&self) -> String {
        format!(
            "arrivals {} = completions {} + shed {} + in-flight {} … conservation: {}",
            self.arrivals,
            self.completions,
            self.shed(),
            self.in_flight_at_stop,
            if self.conservation_ok() { "OK" } else { "VIOLATED" }
        )
    }

    /// The counter table: every event counter the controller increments,
    /// as `(name, counter)` pairs in snapshot order. The snapshot's
    /// `ctl` section writes and reads each as `n_<name>`, and the CLI's
    /// `--csv` report prints one row per pair.
    ///
    /// The destructure has no `..`: a counter added to the struct without
    /// a table entry fails to compile here. Fields bound `_` are not
    /// counters; `finish` derives them when the run ends.
    pub fn counters_mut(&mut self) -> [(&'static str, &mut u64); 24] {
        let ServeReport {
            arrivals,
            completions,
            shed_admission,
            shed_retry,
            in_flight_at_stop: _, // derived: the requests left in flight
            timeouts,
            retries,
            reroutes,
            crashes,
            stalls,
            stragglers,
            repairs,
            activations,
            deactivations,
            dvfs_up,
            dvfs_down,
            shed_toggles,
            shed_backpressure,
            rack_crashes,
            pdu_losses,
            partitions,
            power_emergencies,
            emergency_actions,
            breaker_opens,
            breaker_closes,
            horizon_s: _,       // derived: the clock at the end
            energy_j: _,        // derived: summed over the nodes
            mean_power_w: _,    // derived: energy over horizon
            mean_response_s: _, // derived: response sum over completions
            p50_s: _,           // derived: from the run's sketch
            p95_s: _,           // likewise
            p99_s: _,           // likewise
            p999_s: _,          // likewise
            events: _,          // the event-loop cursor, kept by the controller
            forced_stop: _,     // derived: how the loop ended
        } = self;
        [
            ("arrivals", arrivals),
            ("completions", completions),
            ("shed_admission", shed_admission),
            ("shed_retry", shed_retry),
            ("shed_backpressure", shed_backpressure),
            ("timeouts", timeouts),
            ("retries", retries),
            ("reroutes", reroutes),
            ("crashes", crashes),
            ("stalls", stalls),
            ("stragglers", stragglers),
            ("repairs", repairs),
            ("activations", activations),
            ("deactivations", deactivations),
            ("dvfs_up", dvfs_up),
            ("dvfs_down", dvfs_down),
            ("shed_toggles", shed_toggles),
            ("rack_crashes", rack_crashes),
            ("pdu_losses", pdu_losses),
            ("partitions", partitions),
            ("power_emergencies", power_emergencies),
            ("emergency_actions", emergency_actions),
            ("breaker_opens", breaker_opens),
            ("breaker_closes", breaker_closes),
        ]
    }

    /// [`ServeReport::counters_mut`] read-only: `(name, value)` pairs.
    pub fn counters(&self) -> [(&'static str, u64); 24] {
        self.clone().counters_mut().map(|(name, v)| (name, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_balances() {
        let r = ServeReport {
            arrivals: 100,
            completions: 90,
            shed_admission: 4,
            shed_retry: 3,
            in_flight_at_stop: 3,
            ..ServeReport::default()
        };
        assert!(r.conservation_ok());
        assert_eq!(r.shed(), 7);
        assert!(r.conservation_line().ends_with("conservation: OK"));

        let bad = ServeReport {
            arrivals: 100,
            completions: 90,
            ..ServeReport::default()
        };
        assert!(!bad.conservation_ok());
        assert!(bad.conservation_line().ends_with("conservation: VIOLATED"));
    }
}
