//! The serving controller: a continuously running discrete-event loop that
//! dispatches arrivals across heterogeneous node groups and survives
//! mid-flight faults.
//!
//! # Event model
//!
//! Events fire in `(virtual time, sequence)` order. A binary heap holds
//! per-node completions (epoch-guarded so superseded schedules cancel
//! lazily), per-dispatch timeouts (dispatch-generation-guarded), retry
//! redispatches, fault injections (sampled one
//! [`ServeConfig::fault_window_s`] window at a time from the
//! [`FaultPlan`]), stall/straggler recoveries, node repairs, periodic
//! health sweeps and the control tick. Arrivals are pulled lazily from the
//! [`ArrivalSource`], one ahead: the pending arrival waits in a slot beside
//! the heap, and the loop takes it when it orders before the heap's top.
//! That is the order a heap holding it would give, without a push and a
//! pop per request.
//!
//! In-flight requests live in a ring of slots indexed by request id (ids
//! are handed out in order), one slot per id from the oldest live request
//! to the newest (DESIGN.md §13).
//!
//! # Robustness invariants
//!
//! - **Conservation**: every arrival ends exactly one way — completed,
//!   shed (admission or retry exhaustion), or in flight at a forced stop.
//! - **No deadlock**: pending work is re-flushed on every completion,
//!   repair, activation and control tick; a drain deadline bounds the
//!   post-arrival tail; an event-budget guard turns any scheduling bug
//!   into [`EnpropError::EventBudgetExceeded`] instead of a hang.
//! - **Determinism**: dispatch tie-breaks are by node index, all
//!   randomness is keyed ([`FaultPlan`] windows, arrival streams), and
//!   event ordering uses `total_cmp` plus a sequence number — the same
//!   inputs replay bit-identically on any host.
//!
//! # Correlated failures and emergencies (DESIGN.md §16)
//!
//! An optional [`TopologyFaultPlan`] layers *blast-radius* events on top
//! of the per-node plan: rack crashes, PDU losses (crash **and** zero
//! watts until repair), network partitions (correlated stalls) and
//! cluster-wide power emergencies. An emergency triggers the graceful
//! degradation ladder — DVFS brownout, then parking the wimpiest nodes,
//! then shedding by SLO class — one rung per control tick, every action
//! exported as a `ctl.emergency.*` event. Per-group circuit breakers
//! (Closed → Open → HalfOpen with a seeded-jitter probe) stop the
//! dispatcher from hammering a failing group, and the pending queue is
//! bounded (`max_pending`) with overflow shed as backpressure.
//!
//! # Checkpoint / resume
//!
//! [`Controller::run_full`] can invoke a checkpoint hook with a
//! crash-consistent serialized snapshot at every closed obs window, and
//! [`Controller::resume_full`] restores one and continues the event loop
//! — event-for-event and joule-for-joule identical to the uninterrupted
//! run (property-tested in `tests/resume_props.rs`).
//!
//! # Layout
//!
//! This file holds the types, the entry points, the event loop and
//! `finish`. The handlers live by decision: `dispatch.rs` has the request
//! path and node accounting, `faults.rs` the node and domain faults,
//! health checks and repair, and `ladder.rs` the control tick, the
//! degradation ladder, parking, DVFS and the circuit breakers.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use enprop_clustersim::ClusterSpec;
use enprop_faults::{DomainEvent, EnpropError, FaultKind, FaultPlan, TopologyFaultPlan};
use enprop_obs::{QuantileSketch, Recorder, Track};
use enprop_workloads::{SingleNodeModel, Workload};

use crate::arrivals::ArrivalSource;
use crate::config::ServeConfig;
use crate::inflight::Inflight;
use crate::plane::{ObsPlane, WindowReport};
use crate::report::ServeReport;

mod dispatch;
mod faults;
mod ladder;

pub(crate) use ladder::Breaker;

/// Controller-visible node admission state (the reconfiguration state
/// machine of DESIGN.md §13; the *actual* crash/stall/straggler overlay is
/// tracked separately and only becomes visible through timeouts and health
/// checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admin {
    /// Accepting dispatches.
    Active,
    /// Finishing its backlog, accepting nothing new; parks when empty.
    Draining,
    /// Powered off by the controller (0 W).
    Deactivated,
    /// Detected dead; queue re-routed, repair scheduled.
    Down,
}

/// Where a request currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Loc {
    /// Waiting at the dispatcher (no eligible node yet).
    #[default]
    Pending,
    /// Waiting out a retry backoff.
    Backoff,
    /// Queued or executing on a node.
    OnNode(usize),
}

#[derive(Debug, Clone, Default)]
pub(crate) struct Req {
    pub(crate) arrived: f64,
    pub(crate) ops: f64,
    /// SLO class (0 = latency-critical; the emergency ladder sheds high
    /// classes first).
    pub(crate) class: u8,
    /// Budget-consuming retries so far.
    pub(crate) attempt: u32,
    /// Placement generation: bumped on every (re-)placement so stale
    /// timeout events cancel lazily.
    pub(crate) dispatch: u32,
    pub(crate) loc: Loc,
    /// Node to avoid on the next dispatch (the one that just timed out).
    pub(crate) exclude: Option<usize>,
    pub(crate) traced: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct Running {
    pub(crate) req: u64,
    pub(crate) remaining_ops: f64,
}

#[derive(Debug)]
pub(crate) struct Node {
    pub(crate) group: usize,
    pub(crate) in_group: u16,
    pub(crate) admin: Admin,
    /// Fail-stop crash not yet detected/repaired.
    pub(crate) crashed: bool,
    /// PDU loss: the node draws zero watts until repaired (a crashed but
    /// powered node keeps burning idle watts; an unpowered one is dark).
    pub(crate) unpowered: bool,
    pub(crate) stalled_until: f64,
    pub(crate) slowdown: f64,
    pub(crate) slow_until: f64,
    pub(crate) queue: VecDeque<u64>,
    pub(crate) queued_ops: f64,
    pub(crate) current: Option<Running>,
    /// Completion-schedule epoch (lazy cancellation).
    pub(crate) epoch: u64,
    /// Accounting frontier: energy/progress integrated up to here.
    pub(crate) acct_t: f64,
    pub(crate) energy_j: f64,
    /// Joules accrued since the last plane flush (busy / ideal / idle) —
    /// the hot `advance` path adds to these plain fields and the plane
    /// sees them batched per window roll, not per advance.
    pub(crate) win_busy_j: f64,
    pub(crate) win_ideal_j: f64,
    pub(crate) win_idle_j: f64,
}

/// Per-group rate/power tables at every DVFS level, plus the group's
/// current level (DVFS decisions step whole groups, matching the paper's
/// per-type operating tuples).
#[derive(Debug)]
pub(crate) struct GroupModel {
    pub(crate) rate_at: Vec<f64>,
    pub(crate) busy_w_at: Vec<f64>,
    pub(crate) idle_w: f64,
    pub(crate) freq_idx: usize,
    /// Peak busy power across DVFS levels — the ideal-proportionality
    /// reference of the EP index (DESIGN.md §14).
    pub(crate) peak_busy_w: f64,
    pub(crate) breaker: Breaker,
}

impl GroupModel {
    /// Serving rate at the group's current DVFS level, ops/s.
    fn rate(&self) -> f64 {
        self.rate_at[self.freq_idx]
    }

    /// Busy power at the group's current DVFS level, watts.
    fn busy_w(&self) -> f64 {
        self.busy_w_at[self.freq_idx]
    }
}

#[derive(Debug, Clone)]
pub(crate) enum EvKind {
    Arrival {
        ops: f64,
        class: u8,
    },
    Completion {
        node: usize,
        epoch: u64,
    },
    Timeout {
        req: u64,
        dispatch: u32,
    },
    Redispatch {
        req: u64,
    },
    Fault {
        node: usize,
        kind: FaultKind,
    },
    FaultWindow {
        node: usize,
        window: u32,
    },
    StallEnd {
        node: usize,
    },
    StragglerEnd {
        node: usize,
    },
    Repair {
        node: usize,
    },
    HealthCheck,
    ControlTick,
    DrainDeadline,
    /// Materialize the next window of correlated domain faults.
    DomainWindow {
        window: u32,
    },
    /// A correlated fault fires (rack crash, PDU loss, partition,
    /// power emergency).
    DomainFault {
        event: DomainEvent,
    },
    /// A power emergency's hold expires.
    EmergencyEnd,
}

#[derive(Debug, Clone)]
pub(crate) struct Ev {
    pub(crate) t: f64,
    pub(crate) seq: u64,
    pub(crate) kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        self.t
            .total_cmp(&other.t)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Control-loop cadence, seconds: p95 and power are evaluated and at most
/// one reconfiguration decision is taken per tick.
const TICK_S: f64 = 1.0;
/// Health-check cadence, seconds: how often silent crashes are swept for
/// (timeouts usually find them first).
pub(crate) const HEALTH_INTERVAL_S: f64 = 0.5;
/// After the last arrival, how long the controller waits for in-flight
/// work before force-stopping, seconds.
pub(crate) const DRAIN_TIMEOUT_S: f64 = 120.0;

/// Side hooks of a [`Controller::run_full`] invocation: the live-report
/// callback, the checkpoint sink, and the simulated-crash switch.
pub struct RunHooks<'h> {
    /// Invoked with every closed [`WindowReport`] (`--live-report`).
    pub live: &'h mut dyn FnMut(&WindowReport),
    /// Invoked with the serialized crash-consistent snapshot at every
    /// closed obs window (`--checkpoint-out`). Requires the obs plane
    /// (`obs_window_s > 0`) — with the plane off no window ever closes
    /// and the hook never fires.
    pub checkpoint: Option<&'h mut dyn FnMut(&str)>,
    /// Abandon the run (as a crash would) after this many processed
    /// events — the chaos harness's kill switch.
    pub kill_after_events: Option<u64>,
}

/// How a [`Controller::run_full`] run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// Ran to completion (clean drain or drain-deadline force stop).
    /// Boxed: the report is ~40 fields wide and the variant would dwarf
    /// [`RunOutcome::Killed`] on the stack otherwise.
    Completed(Box<ServeReport>),
    /// Killed by [`RunHooks::kill_after_events`] — no report; the run
    /// "crashed" and its last checkpoint is the resume point.
    Killed {
        /// Events processed when the kill fired.
        events: u64,
        /// Virtual time of the kill.
        at_s: f64,
    },
}

/// The online serving controller. Construct-and-run via
/// [`Controller::run`]; all state is internal to one run.
#[derive(Debug)]
pub struct Controller<'a> {
    pub(crate) cfg: &'a ServeConfig,
    pub(crate) plan: &'a FaultPlan,
    pub(crate) topo: Option<&'a TopologyFaultPlan>,
    pub(crate) groups: Vec<GroupModel>,
    pub(crate) nodes: Vec<Node>,

    pub(crate) heap: BinaryHeap<Reverse<Ev>>,
    /// The arrival source's one look-ahead arrival, kept beside the heap:
    /// at most one arrival is ever pending, so it never enters the heap.
    pub(crate) next_arrival: Option<Ev>,
    pub(crate) seq: u64,
    pub(crate) now: f64,
    pub(crate) events: u64,

    pub(crate) inflight: Inflight,
    pub(crate) pending: VecDeque<u64>,

    pub(crate) shed_mode: bool,
    pub(crate) shed_entries: u64,
    pub(crate) cooldown: u32,

    // Per-tick measurement window (bounded-memory sketch, reset per tick).
    pub(crate) tick_sketch: QuantileSketch,
    pub(crate) window_arrival_ops: f64,

    // Run-level accounting (bounded-memory sketch; `exact_quantile` stays
    // as the test oracle, never as run state).
    pub(crate) run_sketch: QuantileSketch,
    pub(crate) resp_sum: f64,

    /// The windowed observability plane (`None` when `obs_window_s == 0`).
    pub(crate) plane: Option<ObsPlane>,
    /// Cached [`ObsPlane::next_close_s`] (`f64::INFINITY` with the plane
    /// off): the per-event roll guard is one float compare instead of an
    /// `Option` probe into the plane struct.
    pub(crate) plane_next_close_s: f64,

    /// Temporary cluster cap while a power emergency holds
    /// (`f64::INFINITY` = none).
    pub(crate) emergency_cap_w: f64,
    /// When the current emergency expires (`f64::NEG_INFINITY` = none).
    pub(crate) emergency_until_s: f64,
    /// Next degradation-ladder rung to try (0 = brownout).
    pub(crate) emergency_level: u32,
    /// Arrivals with `class >= floor` are shed (ladder rungs 2–3 lower
    /// it; `u8::MAX` = shed nothing by class).
    pub(crate) shed_class_floor: u8,

    /// The run's event counters, kept in the report `finish` returns
    /// (its derived fields stay at their defaults until then).
    pub(crate) tally: ServeReport,
}

impl<'a> Controller<'a> {
    /// Serve `source` to exhaustion on `cluster` under `plan`, exporting
    /// telemetry to `rec`. Returns the run's [`ServeReport`];
    /// deterministic in `(workload, cluster, plan, cfg, source)`.
    pub fn run<R: Recorder>(
        workload: &Workload,
        cluster: &ClusterSpec,
        plan: &'a FaultPlan,
        cfg: &'a ServeConfig,
        source: &mut ArrivalSource,
        rec: &mut R,
    ) -> Result<ServeReport, EnpropError> {
        let mut hooks = RunHooks {
            live: &mut |_| {},
            checkpoint: None,
            kill_after_events: None,
        };
        match Controller::run_full(workload, cluster, plan, None, cfg, source, rec, &mut hooks)? {
            RunOutcome::Completed(r) => Ok(*r),
            // Unreachable: no kill hook was installed.
            RunOutcome::Killed { events, at_s } => Err(EnpropError::invalid_config(format!(
                "run killed at event {events} (t={at_s}) without a kill hook"
            ))),
        }
    }

    /// The full-surface entry point: correlated domain faults (`topo`),
    /// the live window-report hook, checkpointing and the kill switch, on
    /// top of everything [`Controller::run`] does.
    #[allow(clippy::too_many_arguments)]
    pub fn run_full<R: Recorder>(
        workload: &Workload,
        cluster: &ClusterSpec,
        plan: &'a FaultPlan,
        topo: Option<&'a TopologyFaultPlan>,
        cfg: &'a ServeConfig,
        source: &mut ArrivalSource,
        rec: &mut R,
        hooks: &mut RunHooks<'_>,
    ) -> Result<RunOutcome, EnpropError> {
        cfg.validate()?;
        plan.validate()?;
        let mut c = Controller::new(workload, cluster, plan, topo, cfg)?;
        c.bootstrap(source, rec);
        c.event_loop(source, rec, hooks)
    }

    /// Restore `snapshot` (produced by the checkpoint hook) onto a fresh
    /// controller built from the *same* workload / cluster / plans /
    /// config, seat `source` (built from the same arrival flags) at the
    /// snapshotted cursor, and continue the event loop. The continuation
    /// is event-for-event and joule-for-joule identical to the
    /// uninterrupted run; any disagreement between the snapshot and the
    /// provided inputs is a typed configuration error (exit 2), never a
    /// silent divergence.
    #[allow(clippy::too_many_arguments)]
    pub fn resume_full<R: Recorder>(
        workload: &Workload,
        cluster: &ClusterSpec,
        plan: &'a FaultPlan,
        topo: Option<&'a TopologyFaultPlan>,
        cfg: &'a ServeConfig,
        source: &mut ArrivalSource,
        rec: &mut R,
        snapshot: &str,
        hooks: &mut RunHooks<'_>,
    ) -> Result<RunOutcome, EnpropError> {
        cfg.validate()?;
        plan.validate()?;
        let fresh = Controller::new(workload, cluster, plan, topo, cfg)?;
        let (mut c, counters) = crate::snapshot::restore(fresh, snapshot, source)?;
        // Counter names are `'static` literals at emission time but arrive
        // from the snapshot as parsed text, so intern each one. Bounded:
        // a few short strings, once per resume.
        for (name, total) in counters {
            rec.counter_restore(Box::leak(name.into_boxed_str()), total);
        }
        c.event_loop(source, rec, hooks)
    }

    pub(crate) fn new(
        workload: &Workload,
        cluster: &ClusterSpec,
        plan: &'a FaultPlan,
        topo: Option<&'a TopologyFaultPlan>,
        cfg: &'a ServeConfig,
    ) -> Result<Self, EnpropError> {
        let mut groups = Vec::with_capacity(cluster.groups.len());
        let mut nodes = Vec::new();
        for (gi, g) in cluster.groups.iter().enumerate() {
            let profile = workload.try_profile(g.spec.name)?;
            let model = SingleNodeModel::new(&profile.spec, &profile.demand, workload.io_rate);
            let mut rate_at = Vec::with_capacity(g.spec.frequencies.len());
            let mut busy_w_at = Vec::with_capacity(g.spec.frequencies.len());
            for &f in &g.spec.frequencies {
                let r = model.throughput(g.cores, f);
                if !r.is_finite() || r <= 0.0 {
                    return Err(EnpropError::invalid_config(format!(
                        "workload {} has unusable throughput {r} on {} at {f} Hz",
                        workload.name, g.spec.name
                    )));
                }
                rate_at.push(r);
                busy_w_at.push(model.busy_power(g.cores, f));
            }
            // The spec'd operating frequency selects the starting DVFS level.
            let freq_idx = g
                .spec
                .frequencies
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| (*a - g.freq).abs().total_cmp(&(*b - g.freq).abs()))
                .map(|(i, _)| i)
                .unwrap_or(0);
            if u16::try_from(gi).is_err() {
                return Err(EnpropError::invalid_config(
                    "more than 65535 node groups".to_string(),
                ));
            }
            for ni in 0..g.count {
                let in_group = u16::try_from(ni).map_err(|_| {
                    EnpropError::invalid_config("more than 65535 nodes in a group".to_string())
                })?;
                nodes.push(Node {
                    group: gi,
                    in_group,
                    admin: Admin::Active,
                    crashed: false,
                    unpowered: false,
                    stalled_until: f64::NEG_INFINITY,
                    slowdown: 1.0,
                    slow_until: f64::NEG_INFINITY,
                    queue: VecDeque::new(),
                    queued_ops: 0.0,
                    current: None,
                    epoch: 0,
                    acct_t: 0.0,
                    energy_j: 0.0,
                    win_busy_j: 0.0,
                    win_ideal_j: 0.0,
                    win_idle_j: 0.0,
                });
            }
            let peak_busy_w = busy_w_at.iter().copied().fold(0.0_f64, f64::max);
            groups.push(GroupModel {
                rate_at,
                busy_w_at,
                idle_w: g.spec.power.sys_idle_w,
                freq_idx,
                peak_busy_w,
                breaker: Breaker::Closed { fails: 0 },
            });
        }
        if nodes.is_empty() {
            return Err(EnpropError::EmptyCluster {
                workload: workload.name.to_string(),
            });
        }
        if let Some(t) = topo {
            t.validate()?;
            if t.topology.nodes != nodes.len() {
                return Err(EnpropError::invalid_config(format!(
                    "topology covers {} nodes but the cluster has {}",
                    t.topology.nodes,
                    nodes.len()
                )));
            }
        }
        let n_groups = groups.len();
        Ok(Controller {
            cfg,
            plan,
            topo,
            groups,
            nodes,
            heap: BinaryHeap::new(),
            next_arrival: None,
            seq: 0,
            now: 0.0,
            events: 0,
            inflight: Inflight::default(),
            pending: VecDeque::new(),
            shed_mode: false,
            shed_entries: 0,
            cooldown: 0,
            tick_sketch: QuantileSketch::new(cfg.obs_alpha),
            window_arrival_ops: 0.0,
            run_sketch: QuantileSketch::new(cfg.obs_alpha),
            resp_sum: 0.0,
            plane: (cfg.obs_window_s > 0.0).then(|| {
                ObsPlane::new(
                    cfg.obs_window_s,
                    cfg.obs_alpha,
                    cfg.obs_max_windows,
                    n_groups,
                    cfg.slo_p95_s,
                )
            }),
            plane_next_close_s: if cfg.obs_window_s > 0.0 {
                cfg.obs_window_s
            } else {
                f64::INFINITY
            },
            emergency_cap_w: f64::INFINITY,
            emergency_until_s: f64::NEG_INFINITY,
            emergency_level: 0,
            shed_class_floor: u8::MAX,
            tally: ServeReport::default(),
        })
    }

    /// An event at `t`, stamped with the next sequence number.
    fn stamp(&mut self, t: f64, kind: EvKind) -> Ev {
        let seq = self.seq;
        self.seq += 1;
        Ev { t, seq, kind }
    }

    fn push(&mut self, t: f64, kind: EvKind) {
        let ev = self.stamp(t, kind);
        self.heap.push(Reverse(ev));
    }

    /// The next event in `(t, seq)` order: the pending arrival when it
    /// orders before the heap's top, else the top.
    pub(crate) fn next_event(&mut self) -> Option<Ev> {
        let arrival_first = match (&self.next_arrival, self.heap.peek()) {
            (Some(a), Some(Reverse(top))) => a < top,
            (arrival, _) => arrival.is_some(),
        };
        if arrival_first {
            self.next_arrival.take()
        } else {
            self.heap.pop().map(|Reverse(ev)| ev)
        }
    }

    fn node_track(&self, i: usize) -> Track {
        let n = &self.nodes[i];
        Track::Node {
            group: u16::try_from(n.group).unwrap_or(u16::MAX),
            node: n.in_group,
        }
    }

    /// Pull the next arrival from the source into the look-ahead slot;
    /// arms the drain deadline once the stream is exhausted. Only an
    /// arrival calls this again, so the deadline is armed once.
    fn schedule_next_arrival(&mut self, source: &mut ArrivalSource) {
        match source.next_arrival() {
            Some(a) => {
                let t = if a.t_s > self.now { a.t_s } else { self.now };
                let ev = self.stamp(
                    t,
                    EvKind::Arrival {
                        ops: a.ops,
                        class: a.class,
                    },
                );
                self.next_arrival = Some(ev);
            }
            None => self.push(self.now + DRAIN_TIMEOUT_S, EvKind::DrainDeadline),
        }
    }

    /// Every arrival has been pulled from the source: none is pending.
    fn arrivals_done(&self) -> bool {
        self.next_arrival.is_none()
    }

    fn bootstrap<R: Recorder>(&mut self, source: &mut ArrivalSource, rec: &mut R) {
        rec.span_begin(0.0, Track::Controller, "serve.run", self.cfg.seed);
        self.schedule_next_arrival(source);
        self.push(TICK_S, EvKind::ControlTick);
        self.push(HEALTH_INTERVAL_S, EvKind::HealthCheck);
        let first = window_start_s(0, self.cfg.fault_window_s);
        for i in 0..self.nodes.len() {
            self.push(first, EvKind::FaultWindow { node: i, window: 0 });
        }
        if self.topo.is_some_and(|t| !t.is_inert()) {
            self.push(first, EvKind::DomainWindow { window: 0 });
        }
    }

    /// Livelock guard: generous, scales with work actually admitted so a
    /// 10^6-request replay is fine while a same-instant event loop trips.
    /// `None` when the budget does not fit in a `u64`, which takes a clock
    /// past ~10^18 virtual seconds: the loop stops there with
    /// [`EnpropError::EventBudgetExceeded`], and restore rejects a
    /// snapshot whose clock is that far out.
    pub(crate) fn event_budget(&self) -> Option<u64> {
        let cadence = TICK_S.min(HEALTH_INTERVAL_S);
        // Float-to-int casts saturate, so a far clock overflows the `+ 1`.
        let recurring = ((self.now / cadence) as u64).checked_add(1)?;
        let windows = ((self.now / self.cfg.fault_window_s) as u64).checked_add(1)?;
        let per_node = (self.nodes.len() as u64)
            .checked_mul(windows)?
            .checked_mul(80)?;
        self.tally
            .arrivals
            .checked_mul(300)?
            .checked_add(100_000)?
            .checked_add(recurring.checked_mul(8)?)?
            .checked_add(per_node)
    }

    fn done(&self) -> bool {
        self.arrivals_done() && self.inflight.is_empty()
    }

    fn event_loop<R: Recorder>(
        &mut self,
        source: &mut ArrivalSource,
        rec: &mut R,
        hooks: &mut RunHooks<'_>,
    ) -> Result<RunOutcome, EnpropError> {
        let mut forced = false;
        let mut encoder = crate::snapshot::Encoder::default();
        while !self.done() {
            let Some(ev) = self.next_event() else {
                // Unreachable by construction (recurring ticks always
                // exist while work is outstanding); treated as a forced
                // stop rather than a panic.
                forced = true;
                break;
            };
            debug_assert!(ev.t >= self.now, "time went backwards");
            self.now = ev.t;
            // Snapshot at window boundaries, after the roll: the plane
            // has already tumbled, so a resumed run never re-closes the
            // window; the just-popped event is serialized back into the
            // heap section and is the first thing the resume processes.
            if self.now >= self.plane_next_close_s {
                self.close_windows(rec, &mut *hooks.live);
                if let Some(cp) = hooks.checkpoint.as_mut() {
                    cp(encoder.encode(self, &ev, source, &rec.counter_snapshot()));
                }
            }
            self.events += 1;
            if self
                .event_budget()
                .is_none_or(|budget| self.events > budget)
            {
                return Err(EnpropError::EventBudgetExceeded {
                    events: self.events,
                    at_s: self.now,
                });
            }
            match ev.kind {
                EvKind::Arrival { ops, class } => self.on_arrival(ops, class, source, rec),
                EvKind::Completion { node, epoch } => self.on_completion(node, epoch, rec),
                EvKind::Timeout { req, dispatch } => self.on_timeout(req, dispatch, rec),
                EvKind::Redispatch { req } => self.on_redispatch(req),
                EvKind::Fault { node, kind } => self.on_fault(node, kind, rec),
                EvKind::FaultWindow { node, window } => self.on_fault_window(node, window),
                EvKind::StallEnd { node } => self.on_stall_end(node),
                EvKind::StragglerEnd { node } => self.on_straggler_end(node),
                EvKind::Repair { node } => self.on_repair(node, rec),
                EvKind::HealthCheck => self.on_health_check(rec),
                EvKind::ControlTick => self.on_control_tick(rec),
                EvKind::DrainDeadline => {
                    if !self.done() {
                        forced = true;
                    }
                    break;
                }
                EvKind::DomainWindow { window } => self.on_domain_window(window),
                EvKind::DomainFault { event } => self.on_domain_fault(event, rec),
                EvKind::EmergencyEnd => self.on_emergency_end(rec),
            }
            if hooks.kill_after_events.is_some_and(|k| self.events >= k) {
                // A simulated crash: walk away mid-flight. No finish(),
                // no report — exactly what a real kill leaves behind.
                return Ok(RunOutcome::Killed {
                    events: self.events,
                    at_s: self.now,
                });
            }
        }
        Ok(RunOutcome::Completed(Box::new(self.finish(
            forced,
            rec,
            &mut *hooks.live,
        ))))
    }

    /// Close every plane window that ended at or before `self.now`. All
    /// nodes are advanced first, and the joules each accrued since the
    /// last close land in the open window before it emits (per-window
    /// power is accurate to one inter-event gap).
    fn close_windows<R: Recorder>(&mut self, rec: &mut R, live: &mut dyn FnMut(&WindowReport)) {
        for i in 0..self.nodes.len() {
            self.advance(i);
        }
        let Some(p) = &mut self.plane else { return };
        for n in &mut self.nodes {
            let group = u16::try_from(n.group).unwrap_or(u16::MAX);
            if n.win_busy_j > 0.0 {
                p.busy_energy(group, n.win_busy_j, n.win_ideal_j);
                n.win_busy_j = 0.0;
                n.win_ideal_j = 0.0;
            }
            if n.win_idle_j > 0.0 {
                p.idle_energy(group, n.win_idle_j);
                n.win_idle_j = 0.0;
            }
        }
        p.roll_to(self.now, rec, live);
        self.plane_next_close_s = p.next_close_s();
    }

    // ---- shutdown --------------------------------------------------------

    fn finish<R: Recorder>(
        &mut self,
        forced: bool,
        rec: &mut R,
        live: &mut dyn FnMut(&WindowReport),
    ) -> ServeReport {
        self.close_windows(rec, live);
        if let Some(p) = &mut self.plane {
            p.finish(rec, live);
        }
        // Span balance at shutdown: every open span closes here.
        for (id, r) in self.inflight.iter() {
            if r.traced {
                rec.span_end(self.now, Track::Dispatcher, "request", id);
            }
        }
        // A Down node's `node.down` span is open until its repair.
        for i in 0..self.nodes.len() {
            if self.nodes[i].admin == Admin::Down {
                let track = self.node_track(i);
                rec.span_end(self.now, track, "node.down", i as u64);
            }
        }
        if self.shed_mode {
            rec.span_end(self.now, Track::Controller, "shed.mode", self.shed_entries);
        }
        rec.span_end(self.now, Track::Controller, "serve.run", self.cfg.seed);

        let energy_j: f64 = self.nodes.iter().map(|n| n.energy_j).sum();
        // enprop-lint: allow(unit-opaque) -- self.now is the controller's virtual clock, maintained in seconds throughout
        let horizon_s = self.now;
        let nan = f64::NAN;
        // The counters are already in the tally; fill in what derives from
        // the end state.
        ServeReport {
            in_flight_at_stop: self.inflight.len() as u64,
            horizon_s,
            energy_j,
            mean_power_w: if horizon_s > 0.0 {
                energy_j / horizon_s
            } else {
                0.0
            },
            mean_response_s: if self.tally.completions > 0 {
                self.resp_sum / self.tally.completions as f64
            } else {
                nan
            },
            p50_s: self.run_sketch.quantile(0.50).unwrap_or(nan),
            p95_s: self.run_sketch.quantile(0.95).unwrap_or(nan),
            p99_s: self.run_sketch.quantile(0.99).unwrap_or(nan),
            p999_s: self.run_sketch.quantile(0.999).unwrap_or(nan),
            events: self.events,
            forced_stop: forced,
            ..std::mem::take(&mut self.tally)
        }
    }
}

/// When the controller schedules fault (or domain) window `window` of
/// `window_s` seconds: the first at 0, each later one when the window
/// before it is materialized, at that window's base plus `window_s`.
/// Restore holds a snapshot's window events to the same times.
pub(crate) fn window_start_s(window: u32, window_s: f64) -> f64 {
    match window.checked_sub(1) {
        None => 0.0,
        Some(before) => f64::from(before) * window_s + window_s,
    }
}

/// A request size that runs ~20 ms on the cluster's mean node at its
/// spec'd operating point — a sensible serving-scale default the CLI and
/// tests share.
pub fn default_ops_per_request(
    workload: &Workload,
    cluster: &ClusterSpec,
) -> Result<f64, EnpropError> {
    let nodes: u32 = cluster.groups.iter().map(|g| g.count).sum();
    if nodes == 0 {
        return Err(EnpropError::EmptyCluster {
            workload: workload.name.to_string(),
        });
    }
    Ok(cluster_capacity_ops_s(workload, cluster)? / f64::from(nodes) * 0.02)
}

/// Total fault-free serving capacity at the spec'd operating points,
/// ops/s.
pub fn cluster_capacity_ops_s(
    workload: &Workload,
    cluster: &ClusterSpec,
) -> Result<f64, EnpropError> {
    let mut total = 0.0;
    for g in &cluster.groups {
        let profile = workload.try_profile(g.spec.name)?;
        let model = SingleNodeModel::new(&profile.spec, &profile.demand, workload.io_rate);
        total += f64::from(g.count) * model.throughput(g.cores, g.freq);
    }
    if !total.is_finite() || total <= 0.0 {
        return Err(EnpropError::EmptyCluster {
            workload: workload.name.to_string(),
        });
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::arrivals::{ArrivalModel, SyntheticArrivals};
    use enprop_faults::{
        DomainFaultKind, DomainFaultProfile, FaultPlan, GroupFaultProfile, MtbfModel, Topology,
    };
    use enprop_obs::{MemoryRecorder, NoopRecorder};
    use enprop_workloads::catalog;
    use std::collections::BTreeMap;

    fn setup() -> (Workload, ClusterSpec, f64) {
        let w = catalog::by_name("memcached").unwrap();
        let c = ClusterSpec::a9_k10(4, 2);
        let ops = default_ops_per_request(&w, &c).unwrap();
        (w, c, ops)
    }

    fn poisson_source(
        w: &Workload,
        c: &ClusterSpec,
        ops: f64,
        n: u64,
        util: f64,
        seed: u64,
    ) -> ArrivalSource {
        let cap = cluster_capacity_ops_s(w, c).unwrap();
        let rate = util * cap / ops;
        ArrivalSource::Synthetic(
            SyntheticArrivals::new(ArrivalModel::Poisson { rate }, n, ops, 0.2, seed).unwrap(),
        )
    }

    #[test]
    fn clean_run_completes_everything() {
        let (w, c, ops) = setup();
        let cfg = ServeConfig::new(7);
        let plan = FaultPlan::none();
        let mut src = poisson_source(&w, &c, ops, 2000, 0.5, 7);
        let r = Controller::run(&w, &c, &plan, &cfg, &mut src, &mut NoopRecorder).unwrap();
        assert_eq!(r.arrivals, 2000);
        assert_eq!(r.completions + r.shed(), 2000);
        assert_eq!(r.in_flight_at_stop, 0);
        assert!(r.conservation_ok(), "{}", r.conservation_line());
        assert!(!r.forced_stop);
        assert!(r.energy_j > 0.0);
        assert!(r.p95_s > 0.0);
    }

    #[test]
    fn runs_are_seed_deterministic() {
        let (w, c, ops) = setup();
        let cfg = ServeConfig::new(11);
        let profile = GroupFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s: 30.0 },
            kinds: vec![
                (0.5, FaultKind::Crash),
                (0.3, FaultKind::Stall { duration_s: 2.0 }),
                (0.2, FaultKind::Straggler { slowdown: 3.0 }),
            ],
        };
        let plan = FaultPlan::uniform(11, profile, c.groups.len());
        let run = |rec: &mut MemoryRecorder| {
            let mut src = poisson_source(&w, &c, ops, 1500, 0.6, 11);
            Controller::run(&w, &c, &plan, &cfg, &mut src, rec).unwrap()
        };
        let mut rec_a = MemoryRecorder::new();
        let mut rec_b = MemoryRecorder::new();
        let a = run(&mut rec_a);
        let b = run(&mut rec_b);
        assert_eq!(a, b);
        assert_eq!(rec_a.events(), rec_b.events());
    }

    #[test]
    fn crashes_recover_and_conserve() {
        let (w, c, ops) = setup();
        let mut cfg = ServeConfig::new(3);
        cfg.repair_s = 5.0;
        let profile = GroupFaultProfile::crashes(MtbfModel::Exponential { mtbf_s: 20.0 });
        let plan = FaultPlan::uniform(3, profile, c.groups.len());
        let mut src = poisson_source(&w, &c, ops, 3000, 0.5, 3);
        let mut rec = MemoryRecorder::new();
        let r = Controller::run(&w, &c, &plan, &cfg, &mut src, &mut rec).unwrap();
        assert!(r.conservation_ok(), "{}", r.conservation_line());
        assert!(r.crashes > 0, "plan should have injected crashes");
        assert!(r.repairs > 0, "downed nodes should repair");
        assert!(
            rec.counters().get("ctl.node_down").copied().unwrap_or(0) > 0,
            "detection decisions must be visible in telemetry"
        );
    }

    #[test]
    fn overload_triggers_shedding_and_recovers() {
        let (w, c, ops) = setup();
        let mut cfg = ServeConfig::new(5);
        cfg.slo_p95_s = 0.05;
        cfg.max_inflight = 200;
        let plan = FaultPlan::none();
        // 3× overload: shed mode (or the inflight cap) must engage.
        let mut src = poisson_source(&w, &c, ops, 4000, 3.0, 5);
        let r = Controller::run(&w, &c, &plan, &cfg, &mut src, &mut NoopRecorder).unwrap();
        assert!(r.conservation_ok(), "{}", r.conservation_line());
        assert!(r.shed() > 0, "3x overload must shed");
        assert!(r.completions > 0, "some requests must still complete");
    }

    #[test]
    fn power_cap_forces_brownout() {
        let (w, c, ops) = setup();
        let mut cfg = ServeConfig::new(9);
        // Cap below the all-busy draw: brownout or parking must follow.
        cfg.power_cap_w = 60.0;
        let plan = FaultPlan::none();
        let mut src = poisson_source(&w, &c, ops, 3000, 0.8, 9);
        let mut rec = MemoryRecorder::new();
        let r = Controller::run(&w, &c, &plan, &cfg, &mut src, &mut rec).unwrap();
        assert!(r.conservation_ok(), "{}", r.conservation_line());
        assert!(
            r.dvfs_down + r.deactivations > 0,
            "a breached power cap must trigger brownout/parking: {r:?}"
        );
    }

    #[test]
    fn span_balance_holds_with_faults() {
        let (w, c, ops) = setup();
        let cfg = ServeConfig::new(13);
        let profile = GroupFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s: 15.0 },
            kinds: vec![
                (0.6, FaultKind::Crash),
                (0.4, FaultKind::Stall { duration_s: 3.0 }),
            ],
        };
        let plan = FaultPlan::uniform(13, profile, c.groups.len());
        let mut src = poisson_source(&w, &c, ops, 1000, 0.7, 13);
        let mut rec = MemoryRecorder::new();
        let r = Controller::run(&w, &c, &plan, &cfg, &mut src, &mut rec).unwrap();
        assert!(r.conservation_ok(), "{}", r.conservation_line());
        let mut open: BTreeMap<(u64, &str, u64), i64> = BTreeMap::new();
        for e in rec.events() {
            match e.kind {
                enprop_obs::EventKind::SpanBegin => {
                    *open.entry((e.track.tid(), e.name, e.id)).or_insert(0) += 1;
                }
                enprop_obs::EventKind::SpanEnd => {
                    *open.entry((e.track.tid(), e.name, e.id)).or_insert(0) -= 1;
                }
                _ => {}
            }
        }
        for (k, v) in open {
            assert_eq!(v, 0, "unbalanced span {k:?}");
        }
    }

    #[test]
    fn schedule_plan_hits_exact_nodes() {
        let (w, c, ops) = setup();
        let mut cfg = ServeConfig::new(21);
        cfg.repair_s = 4.0;
        // Deterministic crash at t=2s on every node of group 0.
        let plan = FaultPlan {
            seed: 21,
            groups: vec![
                GroupFaultProfile {
                    mtbf: MtbfModel::Schedule(vec![2.0]),
                    kinds: vec![(1.0, FaultKind::Crash)],
                },
                GroupFaultProfile::none(),
            ],
        };
        let mut src = poisson_source(&w, &c, ops, 1500, 0.5, 21);
        let r = Controller::run(&w, &c, &plan, &cfg, &mut src, &mut NoopRecorder).unwrap();
        assert!(r.conservation_ok(), "{}", r.conservation_line());
        assert!(r.crashes >= 4, "all four A9 nodes crash at t=2: {r:?}");
        assert!(r.repairs >= 4);
        assert!(r.completions > 0);
    }

    #[test]
    fn empty_source_terminates_immediately() {
        let (w, c, _ops) = setup();
        let cfg = ServeConfig::new(1);
        let plan = FaultPlan::none();
        let mut src = ArrivalSource::Replay(crate::trace::ReplayCursor::new(Vec::new()));
        let r = Controller::run(&w, &c, &plan, &cfg, &mut src, &mut NoopRecorder).unwrap();
        assert_eq!(r.arrivals, 0);
        assert!(r.conservation_ok());
    }

    /// A domain plan whose every level is inert, over `nodes_per_rack = 2`
    /// and `racks_per_pdu` as given; tests switch individual levels on.
    fn quiet_topo(c: &ClusterSpec, racks_per_pdu: usize) -> TopologyFaultPlan {
        let n: usize = c.groups.iter().map(|g| g.count as usize).sum();
        TopologyFaultPlan::none(Topology::new(n, 2, racks_per_pdu).unwrap())
    }

    fn run_topo(
        cfg: &ServeConfig,
        plan: &FaultPlan,
        topo: &TopologyFaultPlan,
        n: u64,
        util: f64,
    ) -> (ServeReport, MemoryRecorder) {
        let (w, c, ops) = setup();
        let mut src = poisson_source(&w, &c, ops, n, util, cfg.seed);
        let mut rec = MemoryRecorder::new();
        let mut hooks = RunHooks {
            live: &mut |_| {},
            checkpoint: None,
            kill_after_events: None,
        };
        let out = Controller::run_full(
            &w,
            &c,
            plan,
            Some(topo),
            cfg,
            &mut src,
            &mut rec,
            &mut hooks,
        )
        .unwrap();
        match out {
            RunOutcome::Completed(r) => (*r, rec),
            RunOutcome::Killed { .. } => panic!("no kill hook installed"),
        }
    }

    #[test]
    fn rack_crash_downs_every_rack_member_atomically() {
        let (_, c, _) = setup();
        let mut cfg = ServeConfig::new(31);
        cfg.repair_s = 4.0;
        let mut topo = quiet_topo(&c, 2);
        // Every rack faults at t=2 — a full-cluster blast the per-node
        // chaos path can never produce in one virtual instant.
        topo.rack = DomainFaultProfile {
            mtbf: MtbfModel::Schedule(vec![2.0]),
            kinds: vec![(1.0, DomainFaultKind::RackCrash)],
        };
        let (r, rec) = run_topo(&cfg, &FaultPlan::none(), &topo, 1500, 0.5);
        assert!(r.conservation_ok(), "{}", r.conservation_line());
        assert!(r.rack_crashes >= 3, "three racks fault at t=2: {r:?}");
        // Atomic blast radius: every eligible member of every rack opens
        // its down-span at the same virtual instant. (A node the
        // autoscaler already parked is not an eligible member.)
        let blast = rec
            .events()
            .iter()
            .filter(|e| {
                e.name == "node.down"
                    // enprop-lint: allow(float-eq) -- Schedule faults fire at the exact listed instant, no arithmetic touches it
                    && e.t_s == 2.0
                    && matches!(e.kind, enprop_obs::EventKind::SpanBegin)
            })
            .count();
        assert!(
            blast >= 4,
            "the blast lands in one virtual instant: {blast} nodes"
        );
        assert!(r.repairs >= 4, "downed nodes repair and rejoin: {r:?}");
        assert!(r.completions > 0, "service survives the blast: {r:?}");
        assert!(rec.counters().get("fault.rack_crash").copied().unwrap_or(0) >= 3);
    }

    #[test]
    fn pdu_loss_cuts_power_that_a_plain_crash_still_draws() {
        // Same topology, same schedule, same blast radius (racks_per_pdu=1
        // makes PDU 0 and rack 0 the same node set): the only difference
        // is that a PDU loss de-energizes its nodes, while rack-crashed
        // nodes keep drawing idle power until repaired. The PDU run must
        // therefore consume strictly less energy.
        let (_, c, _) = setup();
        let mut cfg = ServeConfig::new(33);
        cfg.repair_s = 6.0;
        let mut rack_topo = quiet_topo(&c, 1);
        rack_topo.rack = DomainFaultProfile {
            mtbf: MtbfModel::Schedule(vec![2.0]),
            kinds: vec![(1.0, DomainFaultKind::RackCrash)],
        };
        let mut pdu_topo = quiet_topo(&c, 1);
        pdu_topo.pdu = DomainFaultProfile {
            mtbf: MtbfModel::Schedule(vec![2.0]),
            kinds: vec![(1.0, DomainFaultKind::PduLoss)],
        };
        let (rack_r, _) = run_topo(&cfg, &FaultPlan::none(), &rack_topo, 1500, 0.5);
        let (pdu_r, _) = run_topo(&cfg, &FaultPlan::none(), &pdu_topo, 1500, 0.5);
        assert!(rack_r.conservation_ok(), "{}", rack_r.conservation_line());
        assert!(pdu_r.conservation_ok(), "{}", pdu_r.conservation_line());
        assert!(rack_r.rack_crashes >= 1 && rack_r.pdu_losses == 0);
        assert!(pdu_r.pdu_losses >= 1 && pdu_r.rack_crashes == 0);
        assert!(
            pdu_r.energy_j < rack_r.energy_j,
            "unpowered downtime must cost less than idle downtime: pdu {} J vs rack {} J",
            pdu_r.energy_j,
            rack_r.energy_j
        );
    }

    #[test]
    fn power_emergency_walks_the_degradation_ladder() {
        let (_, c, _) = setup();
        let cfg = ServeConfig::new(35);
        let mut topo = quiet_topo(&c, 2);
        // A cap far below the working draw: the ladder must escalate past
        // DVFS brownout into parking and class shedding, then release.
        topo.cluster = DomainFaultProfile {
            mtbf: MtbfModel::Schedule(vec![1.5]),
            kinds: vec![(
                1.0,
                DomainFaultKind::PowerEmergency {
                    cap_w: 25.0,
                    duration_s: 6.0,
                },
            )],
        };
        let (r, rec) = run_topo(&cfg, &FaultPlan::none(), &topo, 3000, 0.8);
        assert!(r.conservation_ok(), "{}", r.conservation_line());
        assert!(r.power_emergencies >= 1, "{r:?}");
        assert!(
            r.emergency_actions > 0,
            "the ladder must act under the cap: {r:?}"
        );
        assert!(r.dvfs_down > 0, "rung 0 is DVFS brownout: {r:?}");
        assert!(r.completions > 0, "service continues degraded: {r:?}");
        assert!(
            rec.counters()
                .get("ctl.emergency.action")
                .copied()
                .unwrap_or(0)
                > 0
        );
        let ends = rec
            .events()
            .iter()
            .filter(|e| e.name == "ctl.emergency.end")
            .count();
        assert!(ends >= 1, "the emergency must end and reset the ladder");
    }

    #[test]
    fn breakers_open_on_consecutive_timeouts_and_close_after_probe() {
        let (_, c, _) = setup();
        let mut cfg = ServeConfig::new(37);
        cfg.breaker_failures = 2;
        cfg.breaker_open_s = 1.0;
        // Stall every group-0 node for 4 s: dispatches there time out back
        // to back, the group-0 breaker opens, half-open probes fail while
        // the stall lasts, and the first post-stall probe closes it.
        let plan = FaultPlan {
            seed: 37,
            groups: vec![
                GroupFaultProfile {
                    mtbf: MtbfModel::Schedule(vec![1.0]),
                    kinds: vec![(1.0, FaultKind::Stall { duration_s: 4.0 })],
                },
                GroupFaultProfile::none(),
            ],
        };
        let topo = quiet_topo(&c, 2);
        let (r, rec) = run_topo(&cfg, &plan, &topo, 3000, 0.6);
        assert!(r.conservation_ok(), "{}", r.conservation_line());
        assert!(r.timeouts > 0, "stalled dispatches must time out: {r:?}");
        assert!(
            r.breaker_opens >= 1,
            "consecutive timeouts must trip the breaker: {r:?}"
        );
        assert!(
            r.breaker_closes >= 1,
            "a successful probe must close it again: {r:?}"
        );
        let names: Vec<&str> = rec.events().iter().map(|e| e.name).collect();
        assert!(names.contains(&"ctl.breaker.open"));
        assert!(names.contains(&"ctl.breaker.half_open"));
    }

    #[test]
    fn bounded_pending_queue_sheds_backpressure() {
        let (_, c, _) = setup();
        let mut cfg = ServeConfig::new(39);
        cfg.max_pending = 4;
        cfg.repair_s = 4.0;
        cfg.slo_p95_s = 1e6; // keep SLO admission shedding out of the way
                             // A full-cluster blast: with no node dispatchable, admitted
                             // arrivals queue up, the tiny pending bound fills, and overflow
                             // is shed as backpressure — distinct from admission shedding.
        let mut topo = quiet_topo(&c, 2);
        topo.rack = DomainFaultProfile {
            mtbf: MtbfModel::Schedule(vec![1.0]),
            kinds: vec![(1.0, DomainFaultKind::RackCrash)],
        };
        let (r, _) = run_topo(&cfg, &FaultPlan::none(), &topo, 1500, 0.8);
        assert!(r.conservation_ok(), "{}", r.conservation_line());
        assert!(
            r.shed_backpressure > 0,
            "a full pending queue must shed: {r:?}"
        );
        assert!(r.completions > 0, "{r:?}");
    }

    #[test]
    fn helpers_reject_empty_clusters() {
        let (w, _, _) = setup();
        let empty = ClusterSpec::a9_k10(0, 0);
        assert!(default_ops_per_request(&w, &empty).is_err());
        assert!(matches!(
            Controller::run(
                &w,
                &empty,
                &FaultPlan::none(),
                &ServeConfig::new(1),
                &mut ArrivalSource::Replay(crate::trace::ReplayCursor::new(Vec::new())),
                &mut NoopRecorder,
            ),
            Err(EnpropError::EmptyCluster { .. })
        ));
    }
}
