//! The request path and node accounting: admission, dispatch by least
//! expected wait, completions, timeouts and retries, and the per-node
//! energy and progress integration that every state change runs first.

use enprop_obs::{Recorder, Track};

use super::{Admin, Controller, EvKind, GroupModel, Loc, Node, Req, Running};
use crate::arrivals::ArrivalSource;
use crate::report::ServeReport;

impl Node {
    /// Serving at time `t`: holding a request, neither crashed nor stalled.
    pub(super) fn busy_at(&self, t: f64) -> bool {
        let stalled = t < self.stalled_until;
        self.current.is_some() && !self.crashed && !stalled
    }

    /// The node's draw in group `g`, watts: none when parked or dark after
    /// a PDU loss (until repaired), else the busy or the idle draw.
    pub(super) fn draw_w(&self, g: &GroupModel, busy: bool) -> f64 {
        if self.unpowered || self.admin == Admin::Deactivated {
            0.0
        } else if busy {
            g.busy_w()
        } else {
            g.idle_w
        }
    }
}

impl<'a> Controller<'a> {
    // ---- node accounting -------------------------------------------------

    /// Integrate energy and work progress for node `i` up to `self.now`.
    /// Every state mutation calls this first, so each integration interval
    /// has constant state.
    pub(super) fn advance(&mut self, i: usize) {
        let now = self.now;
        let n = &mut self.nodes[i];
        let dt_s = now - n.acct_t;
        if dt_s <= 0.0 {
            n.acct_t = now;
            return;
        }
        let g = &self.groups[n.group];
        let busy = n.busy_at(n.acct_t);
        let joules = dt_s * n.draw_w(g, busy);
        let ideal_joules = if busy { dt_s * g.peak_busy_w } else { 0.0 };
        n.energy_j += joules;
        if busy {
            let rate = g.rate() / n.slowdown;
            if let Some(cur) = &mut n.current {
                cur.remaining_ops = (cur.remaining_ops - dt_s * rate).max(0.0);
            }
        }
        n.acct_t = now;
        if joules > 0.0 && self.plane.is_some() {
            if busy {
                n.win_busy_j += joules;
                n.win_ideal_j += ideal_joules;
            } else {
                n.win_idle_j += joules;
            }
        }
    }

    /// (Re-)schedule node `i`'s completion from its current state; bumps
    /// the epoch so any previously scheduled completion cancels.
    pub(super) fn reschedule_completion(&mut self, i: usize) {
        self.nodes[i].epoch += 1;
        let n = &self.nodes[i];
        if n.crashed {
            return;
        }
        let Some(cur) = &n.current else { return };
        let rate = self.groups[n.group].rate() / n.slowdown;
        let start = if n.stalled_until > self.now {
            n.stalled_until
        } else {
            self.now
        };
        let t = start + cur.remaining_ops / rate;
        let epoch = n.epoch;
        self.push(t, EvKind::Completion { node: i, epoch });
    }

    /// Start the next queued request on an idle node.
    fn start_next(&mut self, i: usize) {
        self.advance(i);
        let n = &mut self.nodes[i];
        if n.current.is_some() {
            return;
        }
        let Some(req) = n.queue.pop_front() else {
            return;
        };
        let ops = self.inflight.get(req).map_or(0.0, |r| r.ops);
        let n = &mut self.nodes[i];
        n.queued_ops = (n.queued_ops - ops).max(0.0);
        n.current = Some(Running {
            req,
            remaining_ops: ops,
        });
        self.reschedule_completion(i);
    }

    // ---- request path ----------------------------------------------------

    pub(super) fn on_arrival<R: Recorder>(
        &mut self,
        ops: f64,
        class: u8,
        source: &mut ArrivalSource,
        rec: &mut R,
    ) {
        self.tally.arrivals += 1;
        self.window_arrival_ops += ops;
        rec.tally("serve.arrivals", 1);
        if let Some(p) = &mut self.plane {
            p.on_arrival();
        }
        // Request ids are handed out in arrival order.
        let id = self.tally.arrivals - 1;
        // Admission control: shed mode, the emergency ladder's class
        // floor, and the in-flight cap all shed here.
        if self.shed_mode
            || class >= self.shed_class_floor
            || self.inflight.len() >= self.cfg.max_inflight
        {
            self.shed(id, |t| &mut t.shed_admission, rec);
        } else {
            let traced = id < self.cfg.traced_requests;
            if traced {
                rec.span_begin(self.now, Track::Dispatcher, "request", id);
            }
            self.inflight.insert(
                id,
                Req {
                    arrived: self.now,
                    ops,
                    class,
                    attempt: 0,
                    dispatch: 0,
                    loc: Loc::Pending,
                    exclude: None,
                    traced,
                },
            );
            if !self.dispatch(id) {
                // Bounded-queue backpressure: an admitted request that
                // cannot be placed and finds the pending queue full is
                // shed instead of growing the queue without bound.
                if self.pending.len() >= self.cfg.max_pending {
                    self.shed(id, |t| &mut t.shed_backpressure, rec);
                } else {
                    self.pending.push_back(id);
                }
            }
        }
        self.schedule_next_arrival(source);
    }

    /// Request `req` leaves unserved: count it under the tally field `why`
    /// picks and as `serve.shed`, close its span and free its slot. One
    /// shed at admission never had either.
    fn shed<R: Recorder>(&mut self, req: u64, why: fn(&mut ServeReport) -> &mut u64, rec: &mut R) {
        *why(&mut self.tally) += 1;
        rec.tally("serve.shed", 1);
        if let Some(p) = &mut self.plane {
            p.on_shed();
        }
        if self.inflight.remove(req).is_some_and(|r| r.traced) {
            rec.span_end(self.now, Track::Dispatcher, "request", req);
        }
    }

    /// Place `req` on the best Active node (least expected wait, ties by
    /// node index). Falls back to the excluded node when it is the only
    /// choice. Returns false (and marks the request Pending) when no
    /// Active node exists.
    fn dispatch(&mut self, req: u64) -> bool {
        let Some(r) = self.inflight.get(req) else {
            return true;
        };
        let ops = r.ops;
        let exclude = r.exclude;
        let mut best: Option<(f64, usize)> = None;
        let mut best_excluded: Option<(f64, usize)> = None;
        for (i, n) in self.nodes.iter().enumerate() {
            if n.admin != Admin::Active {
                continue;
            }
            let g = &self.groups[n.group];
            if !g.breaker.admits() {
                continue;
            }
            let backlog = n.queued_ops + n.current.as_ref().map_or(0.0, |c| c.remaining_ops) + ops;
            let score = backlog / g.rate();
            let slot = if Some(i) == exclude {
                &mut best_excluded
            } else {
                &mut best
            };
            let better = match *slot {
                Some((best_score, _)) => score < best_score,
                None => true,
            };
            if better {
                *slot = Some((score, i));
            }
        }
        let Some((expected, i)) = best.or(best_excluded) else {
            if let Some(r) = self.inflight.get_mut(req) {
                r.loc = Loc::Pending;
            }
            return false;
        };
        let dispatch_gen = {
            let Some(r) = self.inflight.get_mut(req) else {
                return true;
            };
            r.loc = Loc::OnNode(i);
            r.exclude = None;
            r.dispatch += 1;
            r.dispatch
        };
        self.groups[self.nodes[i].group].breaker.on_dispatch(req);
        let n = &mut self.nodes[i];
        n.queue.push_back(req);
        n.queued_ops += ops;
        let timeout = self.cfg.retry.timeout_factor * expected;
        if timeout.is_finite() {
            self.push(
                self.now + timeout,
                EvKind::Timeout {
                    req,
                    dispatch: dispatch_gen,
                },
            );
        }
        if self.nodes[i].current.is_none() {
            self.start_next(i);
        }
        true
    }

    /// Try to place every pending request (called whenever capacity may
    /// have appeared: completions, repairs, activations, control ticks).
    pub(super) fn flush_pending(&mut self) {
        let mut tries = self.pending.len();
        while tries > 0 {
            tries -= 1;
            let Some(req) = self.pending.pop_front() else {
                break;
            };
            let live = matches!(
                self.inflight.get(req),
                Some(Req {
                    loc: Loc::Pending,
                    ..
                })
            );
            if !live {
                continue;
            }
            if !self.dispatch(req) {
                self.pending.push_back(req);
            }
        }
    }

    pub(super) fn on_completion<R: Recorder>(&mut self, i: usize, epoch: u64, rec: &mut R) {
        if self.nodes[i].epoch != epoch {
            return; // superseded schedule
        }
        self.advance(i);
        let Some(cur) = self.nodes[i].current.take() else {
            return;
        };
        self.nodes[i].epoch += 1;
        if let Some(r) = self.inflight.remove(cur.req) {
            let resp = self.now - r.arrived;
            self.tally.completions += 1;
            self.resp_sum += resp;
            let key = self.run_sketch.key_for(resp);
            self.tick_sketch.observe_keyed(resp, key);
            self.run_sketch.observe_keyed(resp, key);
            rec.tally("serve.completions", 1);
            rec.observe("serve.response_s", resp);
            let group = u16::try_from(self.nodes[i].group).unwrap_or(u16::MAX);
            if let Some(p) = &mut self.plane {
                p.on_completion(resp, group, key);
            }
            if r.traced {
                rec.span_end(self.now, Track::Dispatcher, "request", cur.req);
            }
            self.breaker_on_success(self.nodes[i].group, cur.req, rec);
        }
        if self.nodes[i].queue.is_empty() && self.nodes[i].admin == Admin::Draining {
            self.park(i, rec);
        } else {
            self.start_next(i);
        }
        self.flush_pending();
    }

    pub(super) fn on_timeout<R: Recorder>(&mut self, req: u64, dispatch: u32, rec: &mut R) {
        let Some(r) = self.inflight.get(req) else {
            return;
        };
        if r.dispatch != dispatch {
            return; // stale: the request moved since this was scheduled
        }
        let Loc::OnNode(i) = r.loc else { return };
        let attempt = r.attempt;
        self.tally.timeouts += 1;
        rec.tally("serve.timeouts", 1);
        self.remove_from_node(i, req);
        self.breaker_on_failure(self.nodes[i].group, req, rec);
        // A timeout is evidence: if the node really is dead, declare it
        // down now instead of waiting for the next health sweep.
        self.detect_crash(i, rec);
        if attempt >= self.cfg.retry.max_retries {
            self.shed(req, |t| &mut t.shed_retry, rec);
            return;
        }
        if let Some(r) = self.inflight.get_mut(req) {
            r.attempt += 1;
            r.dispatch += 1;
            r.exclude = Some(i);
            r.loc = Loc::Backoff;
            let delay = self.cfg.retry.backoff_s(r.attempt - 1);
            self.tally.retries += 1;
            rec.tally("serve.retries", 1);
            self.push(self.now + delay, EvKind::Redispatch { req });
        }
    }

    pub(super) fn on_redispatch(&mut self, req: u64) {
        let live = matches!(
            self.inflight.get(req),
            Some(Req {
                loc: Loc::Backoff,
                ..
            })
        );
        if live && !self.dispatch(req) {
            self.pending.push_back(req);
        }
    }

    /// Take `req` off node `i`'s queue or current slot (no accounting of
    /// outcome — callers decide retry vs shed).
    fn remove_from_node(&mut self, i: usize, req: u64) {
        self.advance(i);
        let ops = self.inflight.get(req).map_or(0.0, |r| r.ops);
        let n = &mut self.nodes[i];
        if n.current.as_ref().is_some_and(|c| c.req == req) {
            n.current = None;
            n.epoch += 1;
            self.start_next(i);
            return;
        }
        if let Some(pos) = n.queue.iter().position(|&q| q == req) {
            n.queue.remove(pos);
            n.queued_ops = (n.queued_ops - ops).max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use enprop_clustersim::ClusterSpec;
    use enprop_faults::FaultPlan;
    use enprop_workloads::catalog;

    use super::*;
    use crate::config::ServeConfig;

    /// The one power-draw rule: dark when parked or unpowered, busy watts
    /// only while serving, neither crashed nor stalled, idle watts else.
    #[test]
    fn a_node_draws_busy_watts_only_while_serving() {
        let (w, c) = (
            catalog::by_name("memcached").unwrap(),
            ClusterSpec::a9_k10(1, 0),
        );
        let (plan, cfg) = (FaultPlan::none(), ServeConfig::new(1));
        let mut ctl = Controller::new(&w, &c, &plan, None, &cfg).unwrap();
        let g = &ctl.groups[0];
        let (busy_w, idle_w) = (g.busy_w(), g.idle_w);
        assert!(busy_w > idle_w && idle_w > 0.0);
        let n = &mut ctl.nodes[0];
        let draw = |n: &Node, t: f64| n.draw_w(g, n.busy_at(t));
        assert_eq!(draw(n, 0.0), idle_w, "no request: idle");
        n.current = Some(Running {
            req: 0,
            remaining_ops: 1.0,
        });
        assert_eq!(draw(n, 0.0), busy_w);
        n.stalled_until = 2.0;
        assert_eq!(draw(n, 1.0), idle_w, "stalled until 2 s");
        assert_eq!(draw(n, 2.0), busy_w, "the stall is over at 2 s");
        n.crashed = true;
        assert_eq!(draw(n, 2.0), idle_w, "a crashed node idles until detected");
        n.unpowered = true;
        assert_eq!(draw(n, 2.0), 0.0, "a PDU loss leaves it dark");
        (n.crashed, n.unpowered, n.admin) = (false, false, Admin::Deactivated);
        assert_eq!(draw(n, 2.0), 0.0, "parked");
    }
}
