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

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use enprop_clustersim::ClusterSpec;
use enprop_faults::{
    Domain, DomainEvent, DomainFaultKind, EnpropError, FaultKind, FaultPlan, FaultRng,
    TopologyFaultPlan,
};
use enprop_obs::{QuantileSketch, Recorder, Track};
use enprop_workloads::{SingleNodeModel, Workload};

use crate::arrivals::ArrivalSource;
use crate::config::ServeConfig;
use crate::inflight::Inflight;
use crate::plane::{ObsPlane, WindowReport, BURN_EXIT};
use crate::report::ServeReport;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Loc {
    /// Waiting at the dispatcher (no eligible node yet).
    Pending,
    /// Waiting out a retry backoff.
    Backoff,
    /// Queued or executing on a node.
    OnNode(usize),
}

#[derive(Debug, Clone)]
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
    /// An un-closed `node.down` span is open on this node's track.
    pub(crate) down_span_open: bool,
}

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

#[derive(Debug, Clone)]
pub(crate) enum EvKind {
    Arrival { ops: f64, class: u8 },
    Completion { node: usize, epoch: u64 },
    Timeout { req: u64, dispatch: u32 },
    Redispatch { req: u64 },
    Fault { node: usize, kind: FaultKind },
    FaultWindow { node: usize, window: u32 },
    StallEnd { node: usize },
    StragglerEnd { node: usize },
    Repair { node: usize },
    HealthCheck,
    ControlTick,
    DrainDeadline,
    /// Materialize the next window of correlated domain faults.
    DomainWindow { window: u32 },
    /// A correlated fault fires (rack crash, PDU loss, partition,
    /// power emergency).
    DomainFault { event: DomainEvent },
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
        self.t.total_cmp(&other.t).then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Fraction of the SLO below which the controller considers scaling down,
/// and the headroom margin capacity must keep over measured demand.
const SCALE_DOWN_P95_FRACTION: f64 = 0.3;
const CAPACITY_MARGIN: f64 = 1.3;
/// Shed mode exits when the window p95 recovers below this SLO fraction.
const SHED_EXIT_P95_FRACTION: f64 = 0.8;
/// Control-loop cadence, seconds: p95 and power are evaluated and at most
/// one reconfiguration decision is taken per tick.
const TICK_S: f64 = 1.0;
/// Health-check cadence, seconds: how often silent crashes are swept for
/// (timeouts usually find them first).
const HEALTH_INTERVAL_S: f64 = 0.5;
/// How long an injected straggler keeps a node slowed, seconds (the batch
/// simulator slows the *remainder of an attempt*; a long-running server
/// needs a recovery horizon instead).
const STRAGGLER_DURATION_S: f64 = 20.0;
/// After the last arrival, how long the controller waits for in-flight
/// work before force-stopping, seconds.
const DRAIN_TIMEOUT_S: f64 = 120.0;
/// Ticks to hold off further scale-*down* decisions after any
/// reconfiguration (hysteresis; scale-ups are never delayed).
const SCALE_COOLDOWN_TICKS: u32 = 5;

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
    pub(crate) next_req_id: u64,
    pub(crate) arrivals_done: bool,
    pub(crate) drain_armed: bool,

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
        let mut hooks = RunHooks { live: &mut |_| {}, checkpoint: None, kill_after_events: None };
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

    fn new(
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
                .min_by(|(_, a), (_, b)| {
                    (*a - g.freq).abs().total_cmp(&(*b - g.freq).abs())
                })
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
                    down_span_open: false,
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
            next_req_id: 0,
            arrivals_done: false,
            drain_armed: false,
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
    fn next_event(&mut self) -> Option<Ev> {
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
    /// arms the drain deadline once the stream is exhausted.
    fn schedule_next_arrival(&mut self, source: &mut ArrivalSource) {
        match source.next_arrival() {
            Some(a) => {
                let t = if a.t_s > self.now { a.t_s } else { self.now };
                let ev = self.stamp(t, EvKind::Arrival { ops: a.ops, class: a.class });
                self.next_arrival = Some(ev);
            }
            None => {
                self.arrivals_done = true;
                if !self.drain_armed {
                    self.drain_armed = true;
                    self.push(self.now + DRAIN_TIMEOUT_S, EvKind::DrainDeadline);
                }
            }
        }
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
        let per_node = (self.nodes.len() as u64).checked_mul(windows)?.checked_mul(80)?;
        self.tally
            .arrivals
            .checked_mul(300)?
            .checked_add(100_000)?
            .checked_add(recurring.checked_mul(8)?)?
            .checked_add(per_node)
    }

    fn done(&self) -> bool {
        self.arrivals_done && self.inflight.is_empty()
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
            let closing = self.now >= self.plane_next_close_s;
            self.roll_plane(rec, &mut *hooks.live);
            // Snapshot at window boundaries, after the roll: the plane
            // has already tumbled, so a resumed run never re-closes the
            // window; the just-popped event is serialized back into the
            // heap section and is the first thing the resume processes.
            if closing {
                if let Some(cp) = hooks.checkpoint.as_mut() {
                    cp(encoder.encode(self, &ev, &source.state(), &rec.counter_snapshot()));
                }
            }
            self.events += 1;
            if self.event_budget().is_none_or(|budget| self.events > budget) {
                return Err(EnpropError::EventBudgetExceeded {
                    events: self.events,
                    at_s: self.now,
                });
            }
            match ev.kind {
                EvKind::Arrival { ops, class } => self.on_arrival(ops, class, source, rec),
                EvKind::Completion { node, epoch } => self.on_completion(node, epoch, rec),
                EvKind::Timeout { req, dispatch } => self.on_timeout(req, dispatch, rec),
                EvKind::Redispatch { req } => self.on_redispatch(req, rec),
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
                return Ok(RunOutcome::Killed { events: self.events, at_s: self.now });
            }
        }
        Ok(RunOutcome::Completed(Box::new(self.finish(
            forced,
            rec,
            &mut *hooks.live,
        ))))
    }

    /// Close every plane window that ended at or before `self.now`. All
    /// nodes are advanced first so their energy deposits land before the
    /// window emits (per-window power is accurate to one inter-event gap).
    fn roll_plane<R: Recorder>(&mut self, rec: &mut R, live: &mut dyn FnMut(&WindowReport)) {
        if self.now < self.plane_next_close_s {
            return;
        }
        for i in 0..self.nodes.len() {
            self.advance(i);
        }
        self.flush_window_energy();
        if let Some(p) = &mut self.plane {
            p.roll_to(self.now, rec, live);
            self.plane_next_close_s = p.next_close_s();
        }
    }

    /// Drain every node's since-last-flush energy accumulators into the
    /// plane's current window. Called with all nodes advanced to `now`,
    /// immediately before windows close (and at shutdown).
    fn flush_window_energy(&mut self) {
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
    }

    // ---- node accounting -------------------------------------------------

    /// Integrate energy and work progress for node `i` up to `self.now`.
    /// Every state mutation calls this first, so each integration interval
    /// has constant state.
    fn advance(&mut self, i: usize) {
        let now = self.now;
        let n = &mut self.nodes[i];
        let dt_s = now - n.acct_t;
        if dt_s <= 0.0 {
            n.acct_t = now;
            return;
        }
        let g = &self.groups[n.group];
        let stalled = n.acct_t < n.stalled_until;
        let busy = n.current.is_some() && !n.crashed && !stalled;
        let power_w = if n.unpowered {
            0.0 // PDU loss: dark until repaired
        } else {
            match n.admin {
                Admin::Deactivated => 0.0,
                _ => {
                    if busy {
                        g.busy_w_at[g.freq_idx]
                    } else {
                        g.idle_w
                    }
                }
            }
        };
        let joules = dt_s * power_w;
        let ideal_joules = if busy { dt_s * g.peak_busy_w } else { 0.0 };
        n.energy_j += joules;
        if busy {
            let rate = g.rate_at[g.freq_idx] / n.slowdown;
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
    fn reschedule_completion(&mut self, i: usize) {
        self.nodes[i].epoch += 1;
        let n = &self.nodes[i];
        if n.crashed {
            return;
        }
        let Some(cur) = &n.current else { return };
        let g = &self.groups[n.group];
        let rate = g.rate_at[g.freq_idx] / n.slowdown;
        let start = if n.stalled_until > self.now { n.stalled_until } else { self.now };
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
        let Some(req) = n.queue.pop_front() else { return };
        let ops = self.inflight.get(req).map_or(0.0, |r| r.ops);
        let n = &mut self.nodes[i];
        n.queued_ops = (n.queued_ops - ops).max(0.0);
        n.current = Some(Running { req, remaining_ops: ops });
        self.reschedule_completion(i);
    }

    /// Instantaneous cluster power, watts.
    fn power_now(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| {
                let g = &self.groups[n.group];
                match n.admin {
                    _ if n.unpowered => 0.0,
                    Admin::Deactivated => 0.0,
                    _ => {
                        let stalled = self.now < n.stalled_until;
                        if n.current.is_some() && !n.crashed && !stalled {
                            g.busy_w_at[g.freq_idx]
                        } else {
                            g.idle_w
                        }
                    }
                }
            })
            .sum()
    }

    /// Believed serving capacity, ops/s (Active nodes at their DVFS level;
    /// undetected crashes still count — the controller cannot see them).
    fn believed_capacity(&self) -> f64 {
        self.nodes
            .iter()
            .filter(|n| n.admin == Admin::Active)
            .map(|n| {
                let g = &self.groups[n.group];
                g.rate_at[g.freq_idx]
            })
            .sum()
    }

    fn admitted_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.admin, Admin::Active | Admin::Draining))
            .count()
    }

    // ---- request path ----------------------------------------------------

    fn on_arrival<R: Recorder>(
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
        let id = self.next_req_id;
        self.next_req_id += 1;
        // Admission control: shed mode, the emergency ladder's class
        // floor, and the in-flight cap all shed here.
        if self.shed_mode || class >= self.shed_class_floor
            || self.inflight.len() >= self.cfg.max_inflight
        {
            self.tally.shed_admission += 1;
            rec.tally("serve.shed", 1);
            if let Some(p) = &mut self.plane {
                p.on_shed();
            }
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
                    self.tally.shed_backpressure += 1;
                    rec.tally("serve.shed", 1);
                    if let Some(p) = &mut self.plane {
                        p.on_shed();
                    }
                    if traced {
                        rec.span_end(self.now, Track::Dispatcher, "request", id);
                    }
                    self.inflight.remove(id);
                } else {
                    self.pending.push_back(id);
                }
            }
        }
        self.schedule_next_arrival(source);
    }

    /// Place `req` on the best Active node (least expected wait, ties by
    /// node index). Falls back to the excluded node when it is the only
    /// choice. Returns false (and marks the request Pending) when no
    /// Active node exists.
    fn dispatch(&mut self, req: u64) -> bool {
        let Some(r) = self.inflight.get(req) else { return true };
        let ops = r.ops;
        let exclude = r.exclude;
        let mut best: Option<(f64, usize)> = None;
        let mut best_excluded: Option<(f64, usize)> = None;
        for (i, n) in self.nodes.iter().enumerate() {
            if n.admin != Admin::Active {
                continue;
            }
            let g = &self.groups[n.group];
            // Circuit breaker: an Open group takes nothing; a HalfOpen
            // group takes exactly one probe at a time.
            if self.cfg.breaker_failures > 0 {
                match g.breaker {
                    Breaker::Open { .. } | Breaker::HalfOpen { probe: Some(_), .. } => continue,
                    _ => {}
                }
            }
            let rate = g.rate_at[g.freq_idx];
            let backlog =
                n.queued_ops + n.current.as_ref().map_or(0.0, |c| c.remaining_ops) + ops;
            let score = backlog / rate;
            let slot = if Some(i) == exclude { &mut best_excluded } else { &mut best };
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
            let Some(r) = self.inflight.get_mut(req) else { return true };
            r.loc = Loc::OnNode(i);
            r.exclude = None;
            r.dispatch += 1;
            r.dispatch
        };
        // Dispatching into a HalfOpen group makes this request its probe.
        let gi = self.nodes[i].group;
        if let Breaker::HalfOpen { probe: None, reopens } = self.groups[gi].breaker {
            self.groups[gi].breaker = Breaker::HalfOpen { probe: Some(req), reopens };
        }
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
    fn flush_pending(&mut self) {
        let mut tries = self.pending.len();
        while tries > 0 {
            tries -= 1;
            let Some(req) = self.pending.pop_front() else { break };
            let live = matches!(
                self.inflight.get(req),
                Some(Req { loc: Loc::Pending, .. })
            );
            if !live {
                continue;
            }
            if !self.dispatch(req) {
                self.pending.push_back(req);
            }
        }
    }

    fn on_completion<R: Recorder>(&mut self, i: usize, epoch: u64, rec: &mut R) {
        if self.nodes[i].epoch != epoch {
            return; // superseded schedule
        }
        self.advance(i);
        let Some(cur) = self.nodes[i].current.take() else { return };
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

    fn on_timeout<R: Recorder>(&mut self, req: u64, dispatch: u32, rec: &mut R) {
        let Some(r) = self.inflight.get(req) else { return };
        if r.dispatch != dispatch {
            return; // stale: the request moved since this was scheduled
        }
        let Loc::OnNode(i) = r.loc else { return };
        let (attempt, traced) = (r.attempt, r.traced);
        self.tally.timeouts += 1;
        rec.tally("serve.timeouts", 1);
        self.remove_from_node(i, req);
        self.breaker_on_failure(self.nodes[i].group, req, rec);
        // A timeout is evidence: if the node really is dead, declare it
        // down now instead of waiting for the next health sweep.
        if self.nodes[i].crashed && matches!(self.nodes[i].admin, Admin::Active | Admin::Draining)
        {
            self.declare_down(i, rec);
        }
        if attempt >= self.cfg.retry.max_retries {
            self.tally.shed_retry += 1;
            rec.tally("serve.shed", 1);
            if let Some(p) = &mut self.plane {
                p.on_shed();
            }
            if traced {
                rec.span_end(self.now, Track::Dispatcher, "request", req);
            }
            self.inflight.remove(req);
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

    fn on_redispatch<R: Recorder>(&mut self, req: u64, _rec: &mut R) {
        let live = matches!(
            self.inflight.get(req),
            Some(Req { loc: Loc::Backoff, .. })
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

    // ---- fault path ------------------------------------------------------

    fn on_fault_window(&mut self, i: usize, window: u32) {
        let w = self.cfg.fault_window_s;
        let base = f64::from(window) * w;
        let n = &self.nodes[i];
        let events = self.plan.events_for_node(
            self.cfg.seed,
            window,
            n.group,
            u32::from(n.in_group),
            w,
        );
        for e in events {
            self.push(base + e.at_s, EvKind::Fault { node: i, kind: e.kind });
        }
        // Next window, unless the run is draining down.
        if let Some(next) = window.checked_add(1).filter(|_| !self.arrivals_done) {
            self.push(window_start_s(next, w), EvKind::FaultWindow { node: i, window: next });
        }
    }

    fn on_fault<R: Recorder>(&mut self, i: usize, kind: FaultKind, rec: &mut R) {
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

    fn on_stall_end(&mut self, i: usize) {
        self.advance(i);
        let n = &self.nodes[i];
        if self.now < n.stalled_until || n.crashed {
            return; // extended by a later stall, or superseded by a crash
        }
        self.reschedule_completion(i);
    }

    fn on_straggler_end(&mut self, i: usize) {
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

    fn on_health_check<R: Recorder>(&mut self, rec: &mut R) {
        for i in 0..self.nodes.len() {
            if self.nodes[i].crashed
                && matches!(self.nodes[i].admin, Admin::Active | Admin::Draining)
            {
                self.declare_down(i, rec);
            }
        }
        self.push(self.now + HEALTH_INTERVAL_S, EvKind::HealthCheck);
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
        n.down_span_open = true;
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

    fn on_repair<R: Recorder>(&mut self, i: usize, rec: &mut R) {
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
        n.down_span_open = false;
        self.tally.repairs += 1;
        let track = self.node_track(i);
        rec.span_end(self.now, track, "node.down", i as u64);
        rec.counter(self.now, Track::Controller, "ctl.node_up", 1);
        self.flush_pending();
    }

    // ---- correlated failure domains & power emergencies ------------------

    /// Materialize one window of correlated domain faults (mirrors
    /// [`Controller::on_fault_window`], but for the topology plan).
    fn on_domain_window(&mut self, window: u32) {
        let Some(topo) = self.topo else { return };
        let w = self.cfg.fault_window_s;
        let base = f64::from(window) * w;
        for e in topo.events_for_window(self.cfg.seed, window, w) {
            self.push(base + e.at_s, EvKind::DomainFault { event: e });
        }
        if let Some(next) = window.checked_add(1).filter(|_| !self.arrivals_done) {
            self.push(window_start_s(next, w), EvKind::DomainWindow { window: next });
        }
    }

    /// Nodes of `domain` a blast-radius event can still hit: powered-off
    /// and already-down/crashed nodes are skipped (nothing to break).
    fn domain_members(&self, domain: Domain) -> Vec<usize> {
        let Some(topo) = self.topo else { return Vec::new() };
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
    fn on_domain_fault<R: Recorder>(&mut self, event: DomainEvent, rec: &mut R) {
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

    fn in_emergency(&self) -> bool {
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

    fn on_emergency_end<R: Recorder>(&mut self, rec: &mut R) {
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
                2 => {
                    if self.shed_class_floor > 1 {
                        self.shed_class_floor = 1;
                        true
                    } else {
                        false
                    }
                }
                _ => {
                    if self.shed_class_floor > 0 {
                        self.shed_class_floor = 0;
                        true
                    } else {
                        false
                    }
                }
            };
            if acted {
                self.tally.emergency_actions += 1;
                rec.counter(self.now, Track::Controller, "ctl.emergency.action", 1);
                rec.instant(self.now, Track::Controller, "ctl.emergency.rung", f64::from(rung));
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
                let ra = self.groups[a.group].rate_at[self.groups[a.group].freq_idx];
                let rb = self.groups[b.group].rate_at[self.groups[b.group].freq_idx];
                ra.total_cmp(&rb).then(ia.cmp(ib))
            })
            .map(|(i, _)| i);
        let Some(i) = candidate else { return false };
        self.advance(i);
        let idle = self.nodes[i].current.is_none() && self.nodes[i].queue.is_empty();
        self.nodes[i].admin = if idle { Admin::Deactivated } else { Admin::Draining };
        self.tally.deactivations += 1;
        rec.counter(self.now, Track::Controller, "ctl.deactivate", 1);
        rec.instant(self.now, Track::Controller, "ctl.emergency.park", i as f64);
        true
    }

    // ---- circuit breakers ------------------------------------------------

    /// A dispatch timeout on group `gi`: count it, open the breaker after
    /// `breaker_failures` consecutive ones, and re-open on a failed
    /// half-open probe.
    fn breaker_on_failure<R: Recorder>(&mut self, gi: usize, req: u64, rec: &mut R) {
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
    fn breaker_on_success<R: Recorder>(&mut self, gi: usize, req: u64, rec: &mut R) {
        if self.cfg.breaker_failures == 0 {
            return;
        }
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
        if self.cfg.breaker_failures == 0 {
            return;
        }
        for gi in 0..self.groups.len() {
            match self.groups[gi].breaker {
                Breaker::Open { until_s, reopens } if self.now >= until_s => {
                    self.groups[gi].breaker = Breaker::HalfOpen { probe: None, reopens };
                    rec.instant(self.now, Track::Controller, "ctl.breaker.half_open", gi as f64);
                }
                Breaker::HalfOpen { probe: Some(id), reopens }
                    if !self.inflight.contains_key(id) =>
                {
                    self.groups[gi].breaker = Breaker::HalfOpen { probe: None, reopens };
                }
                _ => {}
            }
        }
    }

    // ---- control loop ----------------------------------------------------

    fn on_control_tick<R: Recorder>(&mut self, rec: &mut R) {
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
        if self.capacity_after_parking_one() > demand * CAPACITY_MARGIN
            && self.deactivate_one(rec)
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
            Some(i) => {
                let g = &self.groups[self.nodes[i].group];
                self.believed_capacity() - g.rate_at[g.freq_idx]
            }
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
        let Some(i) = self.park_candidate() else { return false };
        self.advance(i);
        let idle = self.nodes[i].current.is_none() && self.nodes[i].queue.is_empty();
        self.nodes[i].admin = if idle { Admin::Deactivated } else { Admin::Draining };
        self.tally.deactivations += 1;
        rec.counter(self.now, Track::Controller, "ctl.deactivate", 1);
        rec.instant(self.now, Track::Controller, "ctl.park_node", i as f64);
        true
    }

    /// A Draining node finished its backlog: power it off.
    fn park<R: Recorder>(&mut self, i: usize, rec: &mut R) {
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
                let ra = self.groups[a.group].rate_at[self.groups[a.group].freq_idx];
                let rb = self.groups[b.group].rate_at[self.groups[b.group].freq_idx];
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
            .max_by(|&a, &b| {
                self.groups[a].busy_w_at[self.groups[a].freq_idx]
                    .total_cmp(&self.groups[b].busy_w_at[self.groups[b].freq_idx])
            });
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
                    g.rate_at[g.freq_idx + 1] - g.rate_at[g.freq_idx]
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

    // ---- shutdown --------------------------------------------------------

    fn finish<R: Recorder>(
        &mut self,
        forced: bool,
        rec: &mut R,
        live: &mut dyn FnMut(&WindowReport),
    ) -> ServeReport {
        for i in 0..self.nodes.len() {
            self.advance(i);
        }
        self.flush_window_energy();
        if let Some(mut p) = self.plane.take() {
            p.roll_to(self.now, rec, live);
            p.finish(rec, live);
            self.plane = Some(p);
        }
        // Span balance at shutdown: every open span closes here.
        for (id, r) in self.inflight.iter() {
            if r.traced {
                rec.span_end(self.now, Track::Dispatcher, "request", id);
            }
        }
        for i in 0..self.nodes.len() {
            if self.nodes[i].down_span_open {
                let track = self.node_track(i);
                rec.span_end(self.now, track, "node.down", i as u64);
                self.nodes[i].down_span_open = false;
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
            mean_power_w: if horizon_s > 0.0 { energy_j / horizon_s } else { 0.0 },
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
    Ok(mean_node_rate(workload, cluster)? * 0.02)
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

fn mean_node_rate(workload: &Workload, cluster: &ClusterSpec) -> Result<f64, EnpropError> {
    let nodes: u32 = cluster.groups.iter().map(|g| g.count).sum();
    if nodes == 0 {
        return Err(EnpropError::EmptyCluster {
            workload: workload.name.to_string(),
        });
    }
    Ok(cluster_capacity_ops_s(workload, cluster)? / f64::from(nodes))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::arrivals::{ArrivalModel, SyntheticArrivals};
    use enprop_faults::{DomainFaultProfile, FaultPlan, GroupFaultProfile, MtbfModel, Topology};
    use enprop_obs::{MemoryRecorder, NoopRecorder};
    use enprop_workloads::catalog;
    use std::collections::BTreeMap;

    fn setup() -> (Workload, ClusterSpec, f64) {
        let w = catalog::by_name("memcached").unwrap();
        let c = ClusterSpec::a9_k10(4, 2);
        let ops = default_ops_per_request(&w, &c).unwrap();
        (w, c, ops)
    }

    fn poisson_source(w: &Workload, c: &ClusterSpec, ops: f64, n: u64, util: f64, seed: u64) -> ArrivalSource {
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
        let r =
            Controller::run(&w, &c, &plan, &cfg, &mut src, &mut NoopRecorder).unwrap();
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
        let r =
            Controller::run(&w, &c, &plan, &cfg, &mut src, &mut NoopRecorder).unwrap();
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
            kinds: vec![(0.6, FaultKind::Crash), (0.4, FaultKind::Stall { duration_s: 3.0 })],
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
        let r =
            Controller::run(&w, &c, &plan, &cfg, &mut src, &mut NoopRecorder).unwrap();
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
        let r =
            Controller::run(&w, &c, &plan, &cfg, &mut src, &mut NoopRecorder).unwrap();
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
        let mut hooks = RunHooks { live: &mut |_| {}, checkpoint: None, kill_after_events: None };
        let out =
            Controller::run_full(&w, &c, plan, Some(topo), cfg, &mut src, &mut rec, &mut hooks)
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
        assert!(blast >= 4, "the blast lands in one virtual instant: {blast} nodes");
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
            kinds: vec![(1.0, DomainFaultKind::PowerEmergency { cap_w: 25.0, duration_s: 6.0 })],
        };
        let (r, rec) = run_topo(&cfg, &FaultPlan::none(), &topo, 3000, 0.8);
        assert!(r.conservation_ok(), "{}", r.conservation_line());
        assert!(r.power_emergencies >= 1, "{r:?}");
        assert!(r.emergency_actions > 0, "the ladder must act under the cap: {r:?}");
        assert!(r.dvfs_down > 0, "rung 0 is DVFS brownout: {r:?}");
        assert!(r.completions > 0, "service continues degraded: {r:?}");
        assert!(rec.counters().get("ctl.emergency.action").copied().unwrap_or(0) > 0);
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
        assert!(r.breaker_opens >= 1, "consecutive timeouts must trip the breaker: {r:?}");
        assert!(r.breaker_closes >= 1, "a successful probe must close it again: {r:?}");
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
        assert!(r.shed_backpressure > 0, "a full pending queue must shed: {r:?}");
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
