//! The control tick and what it decides: the degradation ladder under a
//! power emergency, parking and re-admitting nodes, DVFS steps, shed mode,
//! and the per-group circuit breakers.

use enprop_faults::FaultRng;
use enprop_obs::{QuantileSketch, Recorder, Track};

use super::{Admin, Controller, EvKind, TICK_S};
use crate::plane::{ObsPlane, BURN_EXIT};

/// Fraction of the SLO below which the controller considers scaling down,
/// and the headroom margin capacity must keep over measured demand.
const SCALE_DOWN_P95_FRACTION: f64 = 0.3;
const CAPACITY_MARGIN: f64 = 1.3;
/// Shed mode exits when the window p95 recovers below this SLO fraction.
const SHED_EXIT_P95_FRACTION: f64 = 0.8;
/// Ticks to hold off further scale-*down* decisions after any
/// reconfiguration (hysteresis; scale-ups are never delayed).
const SCALE_COOLDOWN_TICKS: u32 = 5;

/// A per-group circuit breaker (DESIGN.md §16). Consecutive dispatch
/// timeouts open it; an open breaker blocks dispatch to the whole group
/// until a seeded-jitter hold expires, then a single half-open probe
/// decides between closing and re-opening.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Breaker {
    /// Dispatching normally; counts consecutive timeouts.
    Closed {
        /// Consecutive timeouts since the last success.
        fails: u32,
    },
    /// No dispatches until `until_s` (jittered by a seeded stream keyed
    /// on the reopen count so repeat offenders don't probe in lockstep).
    Open {
        /// Virtual time the hold expires.
        until_s: f64,
        /// How many times this breaker has re-opened.
        reopens: u32,
    },
    /// Admits exactly one probe request; its fate decides the next state.
    HalfOpen {
        /// The in-flight probe's request id, if one was dispatched.
        probe: Option<u64>,
        /// Reopen count carried for the next jitter draw.
        reopens: u32,
    },
}

impl Breaker {
    /// Whether the group may take a dispatch: an Open group takes nothing,
    /// and a HalfOpen group takes exactly one probe at a time.
    pub(super) fn admits(&self) -> bool {
        !matches!(
            self,
            Breaker::Open { .. } | Breaker::HalfOpen { probe: Some(_), .. }
        )
    }

    /// Request `req` was dispatched into the group: into a HalfOpen group,
    /// it becomes the probe.
    pub(super) fn on_dispatch(&mut self, req: u64) {
        if let Breaker::HalfOpen {
            probe: None,
            reopens,
        } = *self
        {
            *self = Breaker::HalfOpen {
                probe: Some(req),
                reopens,
            };
        }
    }
}

impl<'a> Controller<'a> {
    // ---- cluster power and capacity ------------------------------------

    /// Instantaneous cluster power, watts.
    fn power_now(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.draw_w(&self.groups[n.group], n.busy_at(self.now)))
            .sum()
    }

    /// Believed serving capacity, ops/s (Active nodes at their DVFS level;
    /// undetected crashes still count — the controller cannot see them).
    fn believed_capacity(&self) -> f64 {
        self.nodes
            .iter()
            .filter(|n| n.admin == Admin::Active)
            .map(|n| self.groups[n.group].rate())
            .sum()
    }

    fn admitted_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.admin, Admin::Active | Admin::Draining))
            .count()
    }

    // ---- power emergencies -----------------------------------------------

    pub(super) fn in_emergency(&self) -> bool {
        self.now < self.emergency_until_s
    }

    /// The power cap the control loop enforces right now: the configured
    /// cap, tightened by an active emergency.
    fn effective_cap_w(&self) -> f64 {
        if self.in_emergency() {
            self.cfg.power_cap_w.min(self.emergency_cap_w)
        } else {
            self.cfg.power_cap_w
        }
    }

    pub(super) fn on_emergency_end<R: Recorder>(&mut self, rec: &mut R) {
        if self.in_emergency() {
            return; // extended by a later emergency; its own end event follows
        }
        if self.emergency_cap_w.is_finite() {
            self.emergency_cap_w = f64::INFINITY;
            self.emergency_level = 0;
            self.shed_class_floor = u8::MAX;
            // Parked nodes and browned-out groups recover through the
            // normal control loop (SLO-breach scale-up), not instantly.
            rec.instant(self.now, Track::Controller, "ctl.emergency.end", 0.0);
        }
    }

    /// Take the next rung of the graceful-degradation ladder — one action
    /// per control tick while an emergency holds and power still exceeds
    /// the emergency cap. A rung repeats across ticks while it keeps
    /// helping (e.g. several DVFS steps), then the ladder advances:
    /// brownout → park the wimpiest node → shed best-effort classes →
    /// shed everything.
    fn emergency_escalate<R: Recorder>(&mut self, rec: &mut R) {
        loop {
            let rung = self.emergency_level;
            let acted = match rung {
                0 => self.dvfs_step_down(rec),
                1 => self.park_wimpy_one(rec),
                // Shed best-effort classes (floor 1), then everything (floor 0).
                _ => {
                    let floor = u8::from(rung == 2);
                    let lowered = self.shed_class_floor > floor;
                    self.shed_class_floor = self.shed_class_floor.min(floor);
                    lowered
                }
            };
            if acted {
                self.tally.emergency_actions += 1;
                rec.counter(self.now, Track::Controller, "ctl.emergency.action", 1);
                rec.instant(
                    self.now,
                    Track::Controller,
                    "ctl.emergency.rung",
                    f64::from(rung),
                );
                return;
            }
            if self.emergency_level >= 3 {
                return; // ladder exhausted; nothing left to cut
            }
            self.emergency_level += 1;
        }
    }

    /// Park the *wimpiest* Active node (lowest current rate): under an
    /// emergency the goal is watts per op shed, not idle-power ranking,
    /// so the paper's wimpy groups go dark first. Ties go to the lowest
    /// node index.
    fn park_wimpy_one<R: Recorder>(&mut self, rec: &mut R) -> bool {
        if self.admitted_count() <= self.cfg.min_active_nodes {
            return false;
        }
        let candidate = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.admin == Admin::Active)
            .min_by(|(ia, a), (ib, b)| {
                let (ra, rb) = (self.groups[a.group].rate(), self.groups[b.group].rate());
                ra.total_cmp(&rb).then(ia.cmp(ib))
            })
            .map(|(i, _)| i);
        let Some(i) = candidate else { return false };
        self.deactivate(i, "ctl.emergency.park", rec);
        true
    }

    // ---- circuit breakers ------------------------------------------------

    /// A dispatch timeout on group `gi`: count it, open the breaker after
    /// `breaker_failures` consecutive ones, and re-open on a failed
    /// half-open probe.
    ///
    /// This is the one gate on `breaker_failures == 0` (breakers off): the
    /// only way out of Closed is through here, so with breakers off every
    /// breaker stays Closed with no failures and the other transitions
    /// have nothing to do.
    pub(super) fn breaker_on_failure<R: Recorder>(&mut self, gi: usize, req: u64, rec: &mut R) {
        if self.cfg.breaker_failures == 0 {
            return;
        }
        match self.groups[gi].breaker {
            Breaker::Closed { fails } => {
                let fails = fails + 1;
                if fails >= self.cfg.breaker_failures {
                    self.open_breaker(gi, 0, rec);
                } else {
                    self.groups[gi].breaker = Breaker::Closed { fails };
                }
            }
            Breaker::HalfOpen { probe, reopens } => {
                if probe == Some(req) {
                    self.open_breaker(gi, reopens + 1, rec);
                }
            }
            Breaker::Open { .. } => {}
        }
    }

    /// A completion on group `gi`: reset the consecutive-failure count,
    /// and close the breaker when the completer was the half-open probe.
    pub(super) fn breaker_on_success<R: Recorder>(&mut self, gi: usize, req: u64, rec: &mut R) {
        match self.groups[gi].breaker {
            Breaker::Closed { fails: 0 } | Breaker::Open { .. } => {}
            Breaker::Closed { .. } => {
                self.groups[gi].breaker = Breaker::Closed { fails: 0 };
            }
            Breaker::HalfOpen { probe, .. } => {
                if probe == Some(req) {
                    self.groups[gi].breaker = Breaker::Closed { fails: 0 };
                    self.tally.breaker_closes += 1;
                    rec.instant(self.now, Track::Controller, "ctl.breaker.close", gi as f64);
                }
            }
        }
    }

    /// Open group `gi`'s breaker for a jittered hold. The jitter stream
    /// is keyed on `(seed, group, reopen count)` so repeatedly-failing
    /// groups don't re-probe in lockstep — and the draw is reproducible,
    /// keeping the determinism contract.
    fn open_breaker<R: Recorder>(&mut self, gi: usize, reopens: u32, rec: &mut R) {
        let jitter = FaultRng::from_key(&[
            self.cfg.seed,
            0x6272_6b72, // "brkr"
            gi as u64,
            u64::from(reopens),
        ])
        .unit();
        let until_s = self.now + self.cfg.breaker_open_s * (0.5 + jitter);
        self.groups[gi].breaker = Breaker::Open { until_s, reopens };
        self.tally.breaker_opens += 1;
        rec.counter(self.now, Track::Controller, "ctl.breaker.opens", 1);
        rec.instant(self.now, Track::Controller, "ctl.breaker.open", gi as f64);
    }

    /// Per-tick breaker maintenance: expire Open holds into HalfOpen, and
    /// clear a probe whose request resolved elsewhere (rerouted off the
    /// group, shed) so the group isn't stuck waiting on a ghost.
    fn breaker_tick<R: Recorder>(&mut self, rec: &mut R) {
        for gi in 0..self.groups.len() {
            match self.groups[gi].breaker {
                Breaker::Open { until_s, reopens } if self.now >= until_s => {
                    self.groups[gi].breaker = Breaker::HalfOpen {
                        probe: None,
                        reopens,
                    };
                    rec.instant(
                        self.now,
                        Track::Controller,
                        "ctl.breaker.half_open",
                        gi as f64,
                    );
                }
                Breaker::HalfOpen {
                    probe: Some(id),
                    reopens,
                } if !self.inflight.contains_key(id) => {
                    self.groups[gi].breaker = Breaker::HalfOpen {
                        probe: None,
                        reopens,
                    };
                }
                _ => {}
            }
        }
    }

    // ---- control loop ----------------------------------------------------

    pub(super) fn on_control_tick<R: Recorder>(&mut self, rec: &mut R) {
        self.breaker_tick(rec);
        let power = self.power_now();
        let p95 = self.tick_sketch.quantile(0.95);
        let p999 = self.tick_sketch.quantile(0.999);
        rec.gauge(self.now, Track::Controller, "ctl.power_w", power);
        if let Some(p) = p95 {
            rec.gauge(self.now, Track::Controller, "ctl.p95_s", p);
        }
        rec.gauge(
            self.now,
            Track::Controller,
            "ctl.inflight",
            self.inflight.len() as f64,
        );
        rec.gauge(
            self.now,
            Track::Controller,
            "ctl.pending",
            self.pending.len() as f64,
        );
        self.decide(power, p95, p999, rec);
        self.tick_sketch = QuantileSketch::new(self.cfg.obs_alpha);
        self.window_arrival_ops = 0.0;
        self.cooldown = self.cooldown.saturating_sub(1);
        self.flush_pending();
        self.push(self.now + TICK_S, EvKind::ControlTick);
    }

    /// One reconfiguration decision per tick, in priority order: power cap
    /// (brownout) > SLO breach (scale up, then shed) > energy
    /// proportionality (scale down under sustained headroom).
    fn decide<R: Recorder>(
        &mut self,
        power: f64,
        p95: Option<f64>,
        p999: Option<f64>,
        rec: &mut R,
    ) {
        // 0. Nothing admitted but work outstanding: re-admit a parked node
        // immediately (Down nodes come back via repair instead).
        if self.admitted_count() == 0 && !self.inflight.is_empty() {
            self.activate_one(rec);
            return;
        }
        // 1. Power-cap breach: under an emergency, climb the graceful-
        // degradation ladder; otherwise DVFS brownout, then forced
        // deactivation.
        if power > self.effective_cap_w() {
            if self.in_emergency() {
                self.emergency_escalate(rec);
                self.cooldown = SCALE_COOLDOWN_TICKS;
                return;
            }
            if self.dvfs_step_down(rec) || self.deactivate_one(rec) {
                self.cooldown = SCALE_COOLDOWN_TICKS;
            }
            return;
        }
        // 2. SLO breach: capacity first, shedding as the last resort.
        let over_p95 = p95.is_some_and(|p| p > self.cfg.slo_p95_s);
        let over_p999 = self
            .cfg
            .slo_p999_s
            .is_some_and(|slo| p999.is_some_and(|p| p > slo));
        if over_p95 || over_p999 {
            if self.activate_one(rec) || self.dvfs_step_up(power, rec) {
                self.cooldown = SCALE_COOLDOWN_TICKS;
                return;
            }
            // Capacity is exhausted. With the obs plane on, shedding is
            // gated on the multi-window burn-rate alert (a one-tick spike
            // no longer flips shed mode); without it, shed immediately as
            // the legacy controller did.
            let want_shed = self.plane.as_ref().is_none_or(ObsPlane::burn_alert);
            if !self.shed_mode && want_shed {
                self.set_shed(true, rec);
            }
            return;
        }
        // Exit shed mode once the burn rate (or, with the plane off, the
        // window p95) recovers — or everything drained with no samples
        // left to judge by.
        if self.shed_mode {
            let recovered = match &self.plane {
                Some(pl) => pl.burn_fast() < BURN_EXIT,
                None => match p95 {
                    Some(p) => p < SHED_EXIT_P95_FRACTION * self.cfg.slo_p95_s,
                    None => self.inflight.is_empty(),
                },
            };
            if recovered {
                self.set_shed(false, rec);
            }
            return;
        }
        // 3. Energy proportionality: under sustained latency headroom and
        // spare believed capacity, park a node or step DVFS down.
        if self.cooldown > 0 {
            return;
        }
        let headroom = p95.is_some_and(|p| p < SCALE_DOWN_P95_FRACTION * self.cfg.slo_p95_s);
        if !headroom {
            return;
        }
        let demand = self.window_arrival_ops / TICK_S;
        if self.capacity_after_parking_one() > demand * CAPACITY_MARGIN && self.deactivate_one(rec)
        {
            self.cooldown = SCALE_COOLDOWN_TICKS;
        }
    }

    fn set_shed<R: Recorder>(&mut self, on: bool, rec: &mut R) {
        self.shed_mode = on;
        self.tally.shed_toggles += 1;
        if on {
            self.shed_entries += 1;
            rec.span_begin(self.now, Track::Controller, "shed.mode", self.shed_entries);
            rec.counter(self.now, Track::Controller, "ctl.shed_on", 1);
        } else {
            rec.span_end(self.now, Track::Controller, "shed.mode", self.shed_entries);
            rec.counter(self.now, Track::Controller, "ctl.shed_off", 1);
        }
    }

    /// Believed capacity if the preferred park candidate were removed.
    fn capacity_after_parking_one(&self) -> f64 {
        match self.park_candidate() {
            None => f64::NEG_INFINITY,
            Some(i) => self.believed_capacity() - self.groups[self.nodes[i].group].rate(),
        }
    }

    /// Which Active node to park next: the one with the highest idle power
    /// (energy proportionality says park the idle-hungriest first), ties
    /// by index. Never drops the admitted count below `min_active_nodes`.
    fn park_candidate(&self) -> Option<usize> {
        if self.admitted_count() <= self.cfg.min_active_nodes {
            return None;
        }
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.admin == Admin::Active)
            .max_by(|(_, a), (_, b)| {
                self.groups[a.group]
                    .idle_w
                    .total_cmp(&self.groups[b.group].idle_w)
                    .then(b.in_group.cmp(&a.in_group)) // prefer the lowest index on ties
            })
            .map(|(i, _)| i)
    }

    fn deactivate_one<R: Recorder>(&mut self, rec: &mut R) -> bool {
        let Some(i) = self.park_candidate() else {
            return false;
        };
        self.deactivate(i, "ctl.park_node", rec);
        true
    }

    /// Take node `i` out of service: powered off at once when idle, else
    /// Draining until its backlog is done. `instant` names the decision
    /// that chose it in the trace.
    fn deactivate<R: Recorder>(&mut self, i: usize, instant: &'static str, rec: &mut R) {
        self.advance(i);
        let idle = self.nodes[i].current.is_none() && self.nodes[i].queue.is_empty();
        self.nodes[i].admin = if idle {
            Admin::Deactivated
        } else {
            Admin::Draining
        };
        self.tally.deactivations += 1;
        rec.counter(self.now, Track::Controller, "ctl.deactivate", 1);
        rec.instant(self.now, Track::Controller, instant, i as f64);
    }

    /// A Draining node finished its backlog: power it off.
    pub(super) fn park<R: Recorder>(&mut self, i: usize, rec: &mut R) {
        self.advance(i);
        self.nodes[i].admin = Admin::Deactivated;
        self.nodes[i].epoch += 1;
        rec.instant(self.now, Track::Controller, "ctl.parked", i as f64);
    }

    /// Re-admit the fastest Deactivated node, if any.
    fn activate_one<R: Recorder>(&mut self, rec: &mut R) -> bool {
        let candidate = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.admin == Admin::Deactivated)
            .max_by(|(_, a), (_, b)| {
                let (ra, rb) = (self.groups[a.group].rate(), self.groups[b.group].rate());
                ra.total_cmp(&rb).then(b.in_group.cmp(&a.in_group))
            })
            .map(|(i, _)| i);
        let Some(i) = candidate else { return false };
        self.advance(i);
        self.nodes[i].admin = Admin::Active;
        self.tally.activations += 1;
        rec.counter(self.now, Track::Controller, "ctl.activate", 1);
        rec.instant(self.now, Track::Controller, "ctl.admit_node", i as f64);
        self.flush_pending();
        true
    }

    /// Step the busiest-power group one DVFS level down (brownout).
    fn dvfs_step_down<R: Recorder>(&mut self, rec: &mut R) -> bool {
        let target = self
            .group_indices_with_admitted_nodes()
            .into_iter()
            .filter(|&gi| self.groups[gi].freq_idx > 0)
            .max_by(|&a, &b| self.groups[a].busy_w().total_cmp(&self.groups[b].busy_w()));
        let Some(gi) = target else { return false };
        self.apply_dvfs(gi, self.groups[gi].freq_idx - 1);
        self.tally.dvfs_down += 1;
        rec.counter(self.now, Track::Controller, "ctl.dvfs_down", 1);
        rec.instant(self.now, Track::Controller, "ctl.brownout_group", gi as f64);
        true
    }

    /// Step the group with the largest throughput gain one DVFS level up —
    /// only when under the power cap.
    fn dvfs_step_up<R: Recorder>(&mut self, power: f64, rec: &mut R) -> bool {
        if power > self.effective_cap_w() {
            return false;
        }
        let target = self
            .group_indices_with_admitted_nodes()
            .into_iter()
            .filter(|&gi| self.groups[gi].freq_idx + 1 < self.groups[gi].rate_at.len())
            .max_by(|&a, &b| {
                let gain = |gi: usize| {
                    let g = &self.groups[gi];
                    g.rate_at[g.freq_idx + 1] - g.rate()
                };
                gain(a).total_cmp(&gain(b))
            });
        let Some(gi) = target else { return false };
        self.apply_dvfs(gi, self.groups[gi].freq_idx + 1);
        self.tally.dvfs_up += 1;
        rec.counter(self.now, Track::Controller, "ctl.dvfs_up", 1);
        rec.instant(self.now, Track::Controller, "ctl.boost_group", gi as f64);
        true
    }

    fn group_indices_with_admitted_nodes(&self) -> Vec<usize> {
        let mut present = vec![false; self.groups.len()];
        for n in &self.nodes {
            if matches!(n.admin, Admin::Active | Admin::Draining) {
                present[n.group] = true;
            }
        }
        present
            .iter()
            .enumerate()
            .filter_map(|(gi, &p)| p.then_some(gi))
            .collect()
    }

    /// Retarget a whole group's DVFS level; running work is re-timed at
    /// the new rate.
    fn apply_dvfs(&mut self, gi: usize, new_idx: usize) {
        for i in 0..self.nodes.len() {
            if self.nodes[i].group == gi {
                self.advance(i);
            }
        }
        self.groups[gi].freq_idx = new_idx;
        for i in 0..self.nodes.len() {
            if self.nodes[i].group == gi && self.nodes[i].current.is_some() {
                self.reschedule_completion(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Breaker;

    #[test]
    fn a_breaker_admits_until_it_opens_and_seats_one_probe() {
        let mut closed = Breaker::Closed { fails: 3 };
        assert!(closed.admits());
        closed.on_dispatch(7);
        assert_eq!(
            closed,
            Breaker::Closed { fails: 3 },
            "a closed breaker takes no probe"
        );
        assert!(!Breaker::Open {
            until_s: 1.0,
            reopens: 0
        }
        .admits());
        let mut half = Breaker::HalfOpen {
            probe: None,
            reopens: 2,
        };
        assert!(half.admits());
        half.on_dispatch(7);
        assert_eq!(
            half,
            Breaker::HalfOpen {
                probe: Some(7),
                reopens: 2
            }
        );
        assert!(!half.admits(), "one probe at a time");
        half.on_dispatch(8);
        assert_eq!(
            half,
            Breaker::HalfOpen {
                probe: Some(7),
                reopens: 2
            },
            "the probe stays"
        );
    }
}
