//! Node and domain faults: per-node crashes, stalls and stragglers drawn
//! one fault window at a time, correlated rack, PDU, partition and power
//! emergency events, health checks, and repair.

use enprop_faults::{Domain, DomainEvent, DomainFaultKind, FaultKind};
use enprop_obs::{Recorder, Track};

use super::{window_start_s, Admin, Controller, EvKind, Loc, HEALTH_INTERVAL_S};

/// How long an injected straggler keeps a node slowed, seconds (the batch
/// simulator slows the *remainder of an attempt*; a long-running server
/// needs a recovery horizon instead).
const STRAGGLER_DURATION_S: f64 = 20.0;

impl<'a> Controller<'a> {
    // ---- fault path ------------------------------------------------------

    pub(super) fn on_fault_window(&mut self, i: usize, window: u32) {
        let w = self.cfg.fault_window_s;
        let base = f64::from(window) * w;
        let n = &self.nodes[i];
        let events =
            self.plan
                .events_for_node(self.cfg.seed, window, n.group, u32::from(n.in_group), w);
        for e in events {
            self.push(
                base + e.at_s,
                EvKind::Fault {
                    node: i,
                    kind: e.kind,
                },
            );
        }
        self.schedule_next_window(window, |window| EvKind::FaultWindow { node: i, window });
    }

    /// Schedule the window after `window` of a fault stream as the event
    /// `next` makes of its index, unless the run is draining down or the
    /// index is the last a `u32` holds.
    fn schedule_next_window(&mut self, window: u32, next: impl FnOnce(u32) -> EvKind) {
        if let Some(w) = window.checked_add(1).filter(|_| !self.arrivals_done()) {
            self.push(window_start_s(w, self.cfg.fault_window_s), next(w));
        }
    }

    pub(super) fn on_fault<R: Recorder>(&mut self, i: usize, kind: FaultKind, rec: &mut R) {
        let n = &self.nodes[i];
        // Powered-off nodes cannot fault; already-crashed nodes stay crashed.
        if n.admin == Admin::Deactivated || n.admin == Admin::Down || n.crashed {
            return;
        }
        let track = self.node_track(i);
        rec.instant(self.now, track, kind.label(), 1.0);
        rec.tally(kind.label(), 1);
        match kind {
            FaultKind::Crash => {
                self.tally.crashes += 1;
                self.crash_node(i);
            }
            FaultKind::Stall { duration_s } => {
                self.tally.stalls += 1;
                let until = self.now + duration_s;
                self.stall_node(i, until);
            }
            FaultKind::Straggler { slowdown } => {
                self.tally.stragglers += 1;
                self.advance(i);
                let until = self.now + STRAGGLER_DURATION_S;
                let n = &mut self.nodes[i];
                n.slowdown = n.slowdown.max(slowdown);
                if until > n.slow_until {
                    n.slow_until = until;
                    self.push(until, EvKind::StragglerEnd { node: i });
                }
                self.reschedule_completion(i);
            }
        }
    }

    /// Fail-stop crash of node `i` (shared by per-node crash faults and
    /// correlated rack/PDU events).
    fn crash_node(&mut self, i: usize) {
        self.advance(i);
        let n = &mut self.nodes[i];
        n.crashed = true;
        n.epoch += 1; // cancel any scheduled completion
    }

    /// Stall node `i` until `until` (shared by per-node stall faults and
    /// correlated network partitions). Extensions supersede; shortenings
    /// are ignored.
    fn stall_node(&mut self, i: usize, until: f64) {
        self.advance(i);
        let n = &mut self.nodes[i];
        if until > n.stalled_until {
            n.stalled_until = until;
            n.epoch += 1;
            self.push(until, EvKind::StallEnd { node: i });
        }
    }

    pub(super) fn on_stall_end(&mut self, i: usize) {
        self.advance(i);
        let n = &self.nodes[i];
        if self.now < n.stalled_until || n.crashed {
            return; // extended by a later stall, or superseded by a crash
        }
        self.reschedule_completion(i);
    }

    pub(super) fn on_straggler_end(&mut self, i: usize) {
        self.advance(i);
        let n = &mut self.nodes[i];
        if self.now < n.slow_until {
            return; // extended
        }
        n.slowdown = 1.0;
        if !n.crashed {
            self.reschedule_completion(i);
        }
    }

    pub(super) fn on_health_check<R: Recorder>(&mut self, rec: &mut R) {
        for i in 0..self.nodes.len() {
            self.detect_crash(i, rec);
        }
        self.push(self.now + HEALTH_INTERVAL_S, EvKind::HealthCheck);
    }

    /// Declare node `i` down if it crashed while still admitted (a health
    /// check or a timeout on it is the evidence).
    pub(super) fn detect_crash<R: Recorder>(&mut self, i: usize, rec: &mut R) {
        let n = &self.nodes[i];
        if n.crashed && matches!(n.admin, Admin::Active | Admin::Draining) {
            self.declare_down(i, rec);
        }
    }

    /// Detection: mark `i` Down, re-route its backlog (no retry budget
    /// consumed — the requests did nothing wrong), schedule repair.
    fn declare_down<R: Recorder>(&mut self, i: usize, rec: &mut R) {
        self.advance(i);
        let n = &mut self.nodes[i];
        n.admin = Admin::Down;
        n.epoch += 1;
        let mut work: Vec<u64> = Vec::with_capacity(n.queue.len() + 1);
        work.extend(n.current.take().map(|cur| cur.req));
        work.extend(n.queue.drain(..));
        n.queued_ops = 0.0;
        let track = self.node_track(i);
        rec.span_begin(self.now, track, "node.down", i as u64);
        rec.counter(self.now, Track::Controller, "ctl.node_down", 1);
        for req in work {
            if let Some(r) = self.inflight.get_mut(req) {
                r.loc = Loc::Pending;
                r.dispatch += 1; // invalidate outstanding timeouts
                self.tally.reroutes += 1;
                rec.tally("serve.reroutes", 1);
                self.pending.push_back(req);
            }
        }
        self.push(self.now + self.cfg.repair_s, EvKind::Repair { node: i });
        self.flush_pending();
    }

    pub(super) fn on_repair<R: Recorder>(&mut self, i: usize, rec: &mut R) {
        if self.nodes[i].admin != Admin::Down {
            return;
        }
        self.advance(i);
        let n = &mut self.nodes[i];
        n.crashed = false;
        n.unpowered = false; // power restored along with the node
        n.stalled_until = f64::NEG_INFINITY;
        n.slowdown = 1.0;
        n.slow_until = f64::NEG_INFINITY;
        n.admin = Admin::Active;
        self.tally.repairs += 1;
        let track = self.node_track(i);
        rec.span_end(self.now, track, "node.down", i as u64);
        rec.counter(self.now, Track::Controller, "ctl.node_up", 1);
        self.flush_pending();
    }

    // ---- correlated failure domains & power emergencies ------------------

    /// Materialize one window of correlated domain faults (mirrors
    /// [`Controller::on_fault_window`], but for the topology plan).
    pub(super) fn on_domain_window(&mut self, window: u32) {
        let Some(topo) = self.topo else { return };
        let w = self.cfg.fault_window_s;
        let base = f64::from(window) * w;
        for e in topo.events_for_window(self.cfg.seed, window, w) {
            self.push(base + e.at_s, EvKind::DomainFault { event: e });
        }
        self.schedule_next_window(window, |window| EvKind::DomainWindow { window });
    }

    /// Nodes of `domain` a blast-radius event can still hit: powered-off
    /// and already-down/crashed nodes are skipped (nothing to break).
    fn domain_members(&self, domain: Domain) -> Vec<usize> {
        let Some(topo) = self.topo else {
            return Vec::new();
        };
        topo.topology
            .domain_nodes(domain)
            .filter(|&i| i < self.nodes.len())
            .filter(|&i| {
                let n = &self.nodes[i];
                !matches!(n.admin, Admin::Deactivated | Admin::Down) && !n.crashed
            })
            .collect()
    }

    /// One correlated fault hits every eligible node of its domain
    /// atomically — same virtual instant, one event.
    pub(super) fn on_domain_fault<R: Recorder>(&mut self, event: DomainEvent, rec: &mut R) {
        rec.instant(self.now, Track::Controller, event.kind.label(), 1.0);
        rec.tally(event.kind.label(), 1);
        match event.kind {
            DomainFaultKind::RackCrash => {
                self.tally.rack_crashes += 1;
                for i in self.domain_members(event.domain) {
                    self.crash_node(i);
                }
            }
            DomainFaultKind::PduLoss => {
                self.tally.pdu_losses += 1;
                for i in self.domain_members(event.domain) {
                    self.crash_node(i);
                    self.nodes[i].unpowered = true;
                }
            }
            DomainFaultKind::NetworkPartition { duration_s } => {
                self.tally.partitions += 1;
                let until = self.now + duration_s;
                for i in self.domain_members(event.domain) {
                    self.stall_node(i, until);
                }
            }
            DomainFaultKind::PowerEmergency { cap_w, duration_s } => {
                self.tally.power_emergencies += 1;
                let until = self.now + duration_s;
                self.emergency_cap_w = if self.in_emergency() {
                    self.emergency_cap_w.min(cap_w) // overlapping: strictest cap wins
                } else {
                    cap_w
                };
                self.emergency_until_s = self.emergency_until_s.max(until);
                rec.instant(self.now, Track::Controller, "ctl.emergency.begin", cap_w);
                self.push(until, EvKind::EmergencyEnd);
            }
        }
    }
}
