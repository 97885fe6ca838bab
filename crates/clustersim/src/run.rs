//! Executing jobs on a simulated cluster and observing utilization-driven
//! power (paper §II-B: utilization is varied by varying the number of jobs
//! in an observation interval `T`).

use crate::cluster::ClusterSpec;
use crate::split::{try_rate_matched_split, try_rate_matched_split_surviving, WorkSplit};
use enprop_faults::{EnpropError, FaultKind, FaultPlan, RetryPolicy};
use enprop_nodesim::NodeSim;
use enprop_obs::{EventKind, MemoryRecorder, NoopRecorder, Recorder, TraceEvent, Track};
use enprop_workloads::Workload;

/// Result of running one job across the whole cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterJobRun {
    /// Job wall-clock time (slowest node), seconds.
    pub duration: f64,
    /// Total energy across all nodes for the job window, joules
    /// (early-finishing nodes idle until the slowest node completes).
    pub energy: f64,
    /// Operations executed.
    pub ops: f64,
}

/// One point of an observation sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Requested utilization.
    pub target_utilization: f64,
    /// Achieved utilization (quantized by whole jobs).
    pub utilization: f64,
    /// Jobs executed in the interval.
    pub jobs: u64,
    /// Average cluster power over the interval, watts.
    pub avg_power_w: f64,
    /// Total energy over the interval, joules.
    pub energy: f64,
    /// Delivered throughput over the interval, ops/s.
    pub throughput: f64,
}

/// Simulator binding one workload to one cluster.
#[derive(Debug)]
pub struct ClusterSim<'a> {
    workload: &'a Workload,
    cluster: &'a ClusterSpec,
    split: WorkSplit,
}

/// Per-node outcome of a fault-free job wave (internal: shared by the
/// plain run and the fault-injected run so both see identical node data).
#[derive(Debug, Clone, Copy)]
struct NodeRunData {
    /// Group index of this node.
    group: usize,
    /// Node index within its group.
    node: u32,
    /// Node idle power, watts.
    idle_w: f64,
    /// Busy duration of this node's share, seconds.
    duration: f64,
    /// Busy energy of this node's share, joules.
    energy: f64,
}

impl<'a> ClusterSim<'a> {
    /// Build the simulator (computes the rate-matched split once),
    /// reporting a typed error for an empty cluster or a missing
    /// workload profile.
    pub fn try_new(workload: &'a Workload, cluster: &'a ClusterSpec) -> Result<Self, EnpropError> {
        let split = try_rate_matched_split(workload, cluster)?;
        Ok(ClusterSim {
            workload,
            cluster,
            split,
        })
    }

    /// Build the simulator (computes the rate-matched split once).
    ///
    /// # Panics
    /// Panics when the cluster is empty or a node type lacks a calibrated
    /// profile. Use [`ClusterSim::try_new`] for a typed error.
    pub fn new(workload: &'a Workload, cluster: &'a ClusterSpec) -> Self {
        Self::try_new(workload, cluster).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The rate-matched split in use.
    pub fn split(&self) -> &WorkSplit {
        &self.split
    }

    /// Simulate every node's share of one job individually (the common
    /// kernel of [`ClusterSim::run_job`] and the fault-injected runs),
    /// with every node placed at sim-time `t0` on its own `Track::Node`
    /// (spans, DVFS counters, power samples).
    fn node_runs<R: Recorder>(&self, seed: u64, t0: f64, rec: &mut R) -> Vec<NodeRunData> {
        let ops = self.workload.ops_per_job;
        let mut node_runs = Vec::new();
        for (gi, g) in self.cluster.groups.iter().enumerate() {
            if g.count == 0 {
                continue;
            }
            let profile = self
                .workload
                .try_profile(g.spec.name)
                .expect("profiles validated at construction");
            let sim = NodeSim::new(profile.spec.clone());
            let node_ops = self.split.ops_frac[gi] * ops;
            let work = self.workload.node_work(profile, node_ops);
            for ni in 0..g.count {
                let node_seed = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((gi as u64) << 32 | ni as u64);
                let run = sim.run_obs(
                    &work,
                    g.cores,
                    g.freq,
                    &profile.frictions,
                    node_seed,
                    t0,
                    Track::Node {
                        group: u16::try_from(gi).expect("group index fits u16"),
                        node: u16::try_from(ni).expect("node index fits u16"),
                    },
                    rec,
                );
                node_runs.push(NodeRunData {
                    group: gi,
                    node: ni,
                    idle_w: g.spec.power.sys_idle_w,
                    duration: run.duration,
                    energy: run.energy.total(),
                });
            }
        }
        node_runs
    }

    /// Compose per-node runs into the cluster-level job result (early
    /// finishers idle until the slowest node completes).
    fn compose(&self, node_runs: &[NodeRunData]) -> ClusterJobRun {
        let duration = node_runs.iter().map(|r| r.duration).fold(0.0f64, f64::max);
        // Early finishers idle until the job completes on the slowest node.
        let energy: f64 = node_runs
            .iter()
            .map(|r| r.energy + (duration - r.duration) * r.idle_w)
            .sum();
        ClusterJobRun {
            duration,
            energy,
            ops: self.workload.ops_per_job,
        }
    }

    /// Run one job of `ops_per_job` operations; every node simulated
    /// individually with its own seed.
    pub fn run_job(&self, seed: u64) -> ClusterJobRun {
        self.run_job_obs(seed, 0.0, &mut NoopRecorder)
    }

    /// [`ClusterSim::run_job`] plus telemetry: per-node `node_run` spans
    /// and power samples starting at sim-time `t0`, wrapped in a
    /// cluster-track `job` span. Bit-identical to `run_job` for any `R` —
    /// instrumentation draws no random numbers.
    pub fn run_job_obs<R: Recorder>(&self, seed: u64, t0: f64, rec: &mut R) -> ClusterJobRun {
        let run = self.compose(&self.node_runs(seed, t0, rec));
        if R::ACTIVE && run.duration > 0.0 {
            rec.span_begin(t0, Track::Cluster, "job", seed);
            rec.span_end(t0 + run.duration, Track::Cluster, "job", seed);
            rec.tally("cluster.jobs_completed", 1);
        }
        run
    }

    /// Average of `n` simulated jobs (distinct seeds).
    pub fn sample_jobs(&self, n: usize, seed: u64) -> ClusterJobRun {
        self.sample_jobs_obs(n, seed, 0.0, &mut NoopRecorder)
    }

    /// [`ClusterSim::sample_jobs`] plus telemetry: the `n` jobs are laid
    /// out back-to-back starting at sim-time `t0`.
    pub fn sample_jobs_obs<R: Recorder>(
        &self,
        n: usize,
        seed: u64,
        t0: f64,
        rec: &mut R,
    ) -> ClusterJobRun {
        assert!(n > 0);
        let mut dur = 0.0;
        let mut energy = 0.0;
        for i in 0..n {
            let r = self.run_job_obs(seed.wrapping_add(i as u64 * 7919), t0 + dur, rec);
            dur += r.duration;
            energy += r.energy;
        }
        ClusterJobRun {
            duration: dur / n as f64,
            energy: energy / n as f64,
            ops: self.workload.ops_per_job,
        }
    }

    /// Observe the cluster for `period` seconds at a target utilization:
    /// the dispatcher admits `⌊u·T / T_job⌋` jobs back-to-back and the
    /// cluster idles the rest of the interval (the paper's methodology for
    /// sweeping the x-axis of Figs. 5–10).
    pub fn observe(&self, target_utilization: f64, period: f64, seed: u64) -> Observation {
        assert!(
            (0.0..=1.0).contains(&target_utilization),
            "utilization must be in [0, 1]"
        );
        assert!(period > 0.0);
        let mean = self.sample_jobs(5, seed);
        // enprop-lint: allow(float-int-cast) -- ⌊u·T/T_job⌋ is the paper's admitted-job count; the busy ≤ period assert below bounds it
        let jobs = (target_utilization * period / mean.duration).floor() as u64;
        let busy = jobs as f64 * mean.duration;
        assert!(
            busy <= period * (1.0 + 1e-9),
            "observation interval too short for the requested load"
        );
        let idle_energy = (period - busy).max(0.0) * self.cluster.idle_w();
        let energy = jobs as f64 * mean.energy + idle_energy;
        Observation {
            target_utilization,
            utilization: busy / period,
            jobs,
            avg_power_w: energy / period,
            energy,
            throughput: jobs as f64 * mean.ops / period,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enprop_workloads::catalog;

    #[test]
    fn job_runs_are_deterministic_per_seed() {
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(4, 2);
        let sim = ClusterSim::new(&w, &c);
        let a = sim.run_job(1);
        let b = sim.run_job(1);
        assert_eq!(a, b);
        assert_ne!(a, sim.run_job(2));
    }

    #[test]
    fn zero_utilization_is_pure_idle() {
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(4, 2);
        let sim = ClusterSim::new(&w, &c);
        let o = sim.observe(0.0, 10.0, 1);
        assert_eq!(o.jobs, 0);
        assert!((o.avg_power_w - c.idle_w()).abs() < 1e-9);
        assert_eq!(o.throughput, 0.0);
    }

    #[test]
    fn throughput_scales_with_utilization() {
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(8, 2);
        let sim = ClusterSim::new(&w, &c);
        let mean = sim.sample_jobs(5, 1);
        let period = mean.duration * 200.0;
        let half = sim.observe(0.5, period, 1);
        let full = sim.observe(0.99, period, 1);
        let ratio = full.throughput / half.throughput;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn observation_respects_quantization() {
        let w = catalog::by_name("x264").unwrap();
        let c = ClusterSpec::a9_k10(4, 2);
        let sim = ClusterSim::new(&w, &c);
        let mean = sim.sample_jobs(3, 9);
        let period = mean.duration * 10.0; // small interval: coarse quanta
        let o = sim.observe(0.55, period, 9);
        assert!(o.utilization <= 0.55 + 1e-9);
        assert!(o.jobs == 5, "jobs {}", o.jobs);
    }

    #[test]
    fn homogeneous_cluster_energy_scales_with_node_count() {
        let w = catalog::by_name("EP").unwrap();
        let c1 = ClusterSpec::a9_k10(4, 0);
        let c2 = ClusterSpec::a9_k10(8, 0);
        let s1 = ClusterSim::new(&w, &c1).sample_jobs(5, 1);
        let s2 = ClusterSim::new(&w, &c2).sample_jobs(5, 1);
        // Twice the nodes: half the time, similar busy energy (same total
        // work, double idle-rate but half duration).
        assert!((s1.duration / s2.duration - 2.0).abs() < 0.1);
        assert!((s2.energy / s1.energy - 1.0).abs() < 0.1);
    }
}

/// A step-function power trace: `(start_time, watts)` segments covering an
/// observation interval (what a Yokogawa WT210 log of the simulated
/// cluster would look like).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    /// Segment starts and power levels; the last segment ends at `period`.
    pub segments: Vec<(f64, f64)>,
    /// Total interval length, seconds.
    pub period: f64,
}

impl PowerTrace {
    /// Energy as the integral of the trace, joules.
    pub fn energy(&self) -> f64 {
        let mut total = 0.0;
        for (i, &(t0, w)) in self.segments.iter().enumerate() {
            let t1 = self.segments.get(i + 1).map_or(self.period, |&(t, _)| t);
            total += w * (t1 - t0);
        }
        total
    }

    /// Mean power over the interval, watts.
    pub fn mean_power(&self) -> f64 {
        self.energy() / self.period
    }

    /// Rebuild a step-function trace from a recorded event stream: every
    /// `cluster.power_w` gauge becomes one `(start_time, watts)` segment.
    /// This is the *only* trace constructor — the recorder's power stream
    /// is the single source of truth for the trace shape.
    pub fn from_power_events(events: &[TraceEvent], period: f64) -> PowerTrace {
        let segments = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Gauge { value } if e.name == "cluster.power_w" => Some((e.t_s, value)),
                _ => None,
            })
            .collect();
        PowerTrace { segments, period }
    }
}

impl ClusterSim<'_> {
    /// A power trace of one observation interval at the target
    /// utilization: jobs run back-to-back from t = 0 (each a busy segment
    /// at its measured average power), then the cluster idles.
    pub fn power_trace(&self, target_utilization: f64, period: f64, seed: u64) -> PowerTrace {
        let mut rec = MemoryRecorder::new();
        self.power_trace_obs(target_utilization, period, seed, &mut rec)
    }

    /// [`ClusterSim::power_trace`] recording into `rec`: each job emits a
    /// `cluster.power_w` gauge (its average draw) plus the usual per-node
    /// spans and power samples, the idle tail emits one final gauge, and
    /// the returned trace is rebuilt from that gauge stream via
    /// [`PowerTrace::from_power_events`].
    pub fn power_trace_obs(
        &self,
        target_utilization: f64,
        period: f64,
        seed: u64,
        rec: &mut MemoryRecorder,
    ) -> PowerTrace {
        let o = self.observe(target_utilization, period, seed);
        let start = rec.events().len();
        let mut t = 0.0;
        for j in 0..o.jobs {
            let run = self.run_job_obs(seed.wrapping_add(j * 7919), t, rec);
            rec.gauge(
                t,
                Track::Cluster,
                "cluster.power_w",
                run.energy / run.duration,
            );
            t += run.duration;
        }
        if t < period {
            rec.gauge(t, Track::Cluster, "cluster.power_w", self.cluster.idle_w());
        }
        PowerTrace::from_power_events(&rec.events()[start..], period)
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use enprop_workloads::catalog;

    #[test]
    fn trace_integral_is_consistent_with_observation() {
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(4, 2);
        let sim = ClusterSim::new(&w, &c);
        let mean = sim.sample_jobs(5, 3);
        let period = mean.duration * 50.0;
        let o = sim.observe(0.6, period, 3);
        let trace = sim.power_trace(0.6, period, 3);
        // The observation uses the 5-job average; the trace simulates each
        // job individually — agreement within the job-to-job jitter.
        let rel = (trace.energy() - o.energy).abs() / o.energy;
        assert!(
            rel < 0.02,
            "trace {} vs observation {}",
            trace.energy(),
            o.energy
        );
        assert!((trace.mean_power() - o.avg_power_w).abs() / o.avg_power_w < 0.02);
    }

    #[test]
    fn idle_trace_is_one_flat_segment() {
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(2, 1);
        let sim = ClusterSim::new(&w, &c);
        let trace = sim.power_trace(0.0, 5.0, 1);
        assert_eq!(trace.segments.len(), 1);
        assert_eq!(trace.segments[0], (0.0, c.idle_w()));
        assert!((trace.energy() - 5.0 * c.idle_w()).abs() < 1e-9);
    }

    #[test]
    fn busy_segments_draw_more_than_idle() {
        let w = catalog::by_name("RSA-2048").unwrap();
        let c = ClusterSpec::a9_k10(4, 2);
        let sim = ClusterSim::new(&w, &c);
        let mean = sim.sample_jobs(3, 9);
        let trace = sim.power_trace(0.5, mean.duration * 20.0, 9);
        let idle = c.idle_w();
        let busy_segments = trace.segments.len() - 1;
        assert!(busy_segments >= 9, "got {busy_segments}");
        for &(_, w) in &trace.segments[..busy_segments] {
            assert!(w > idle, "busy segment at {w} W vs idle {idle} W");
        }
    }
}

/// One applied fault in a [`FaultedJobRun`] trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRecord {
    /// Attempt the fault fired in (0-based).
    pub attempt: u32,
    /// Group index of the struck node.
    pub group: usize,
    /// Node index within its group.
    pub node: u32,
    /// Fault instant, seconds from the start of the attempt.
    pub at_s: f64,
    /// What the fault did.
    pub kind: FaultKind,
}

/// Outcome of a job run under a [`FaultPlan`] with job-level recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultedJobRun {
    /// The composed run: `duration` is wall-clock from first dispatch to
    /// completion, including failed attempts and backoff; `energy` covers
    /// the whole window.
    pub run: ClusterJobRun,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Crash faults applied across all attempts.
    pub crashes: u32,
    /// Stall faults applied across all attempts.
    pub stalls: u32,
    /// Straggler faults applied across all attempts.
    pub stragglers: u32,
    /// Operations re-dispatched from crashed nodes to survivors.
    pub redispatched_ops: f64,
    /// Every applied fault, in (attempt, node, time) order.
    pub trace: Vec<FaultRecord>,
}

/// Sampling window multiplier used when the retry policy has no finite
/// timeout: faults are drawn within `16 ×` the fault-free job duration
/// (beyond that the attempt has long since ended or will complete
/// undisturbed).
const UNBOUNDED_SAMPLING_FACTOR: f64 = 16.0;

/// Per-node interpretation of one attempt (internal).
struct NodeOutcome {
    /// When this node stopped drawing busy power (finish or crash instant).
    busy_end: f64,
    /// Energy drawn while busy (stall time billed at idle power).
    busy_energy: f64,
    /// Node idle power, watts.
    idle_w: f64,
}

impl ClusterSim<'_> {
    /// Run one job under a deterministic [`FaultPlan`], recovering per the
    /// [`RetryPolicy`]:
    ///
    /// - **Crash**: the node dies at the fault instant; the undone part of
    ///   its shard is re-dispatched to the survivors after the main wave,
    ///   with the rate-matched split recomputed over the survivors (work is
    ///   conserved). Dead nodes keep drawing idle power (fail-stop).
    /// - **Stall**: the node freezes for the stall length at idle power,
    ///   then resumes.
    /// - **Straggler**: the node's whole share runs `slowdown`× slower.
    ///
    /// An attempt fails when it exceeds `timeout_factor ×` the fault-free
    /// duration or when every node crashed; failed attempts re-dispatch
    /// after exponential backoff until the retry budget is exhausted, which
    /// yields [`EnpropError::RetryBudgetExhausted`]. An inert plan returns
    /// a result bit-identical to [`ClusterSim::run_job`].
    ///
    /// Deterministic: same `(plan, policy, seed)` ⇒ same result and trace.
    pub fn run_job_under_plan(
        &self,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        seed: u64,
    ) -> Result<FaultedJobRun, EnpropError> {
        self.run_job_under_plan_obs(plan, policy, seed, 0.0, &mut NoopRecorder)
    }

    /// [`ClusterSim::run_job_under_plan`] plus telemetry, starting at
    /// sim-time `t0`: a cluster-track `job` span over the whole window,
    /// one `attempt` span per dispatch, fault instants on the struck
    /// node's track (named by [`FaultKind::label`]), `recovery` spans with
    /// the degraded-split rate fraction, `backoff` spans, and a
    /// `dispatch.retries` counter. Bit-identical to the plain variant for
    /// any `R` — instrumentation draws no random numbers.
    pub fn run_job_under_plan_obs<R: Recorder>(
        &self,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        seed: u64,
        t0: f64,
        rec: &mut R,
    ) -> Result<FaultedJobRun, EnpropError> {
        plan.validate()?;
        policy.validate()?;
        let nodes = self.node_runs(seed, t0, rec);
        let base = self.compose(&nodes);
        if plan.is_inert() {
            if R::ACTIVE && base.duration > 0.0 {
                rec.span_begin(t0, Track::Cluster, "job", seed);
                rec.span_end(t0 + base.duration, Track::Cluster, "job", seed);
                rec.tally("cluster.jobs_completed", 1);
            }
            return Ok(FaultedJobRun {
                run: base,
                attempts: 1,
                crashes: 0,
                stalls: 0,
                stragglers: 0,
                redispatched_ops: 0.0,
                trace: Vec::new(),
            });
        }
        if R::ACTIVE {
            rec.span_begin(t0, Track::Cluster, "job", seed);
        }
        let timeout_s = base.duration * policy.timeout_factor;
        let sample_horizon = if timeout_s.is_finite() {
            timeout_s
        } else {
            base.duration * UNBOUNDED_SAMPLING_FACTOR
        };
        let idle_w = self.cluster.idle_w();
        let busy_delta_w = base.energy / base.duration - idle_w;
        let ops = self.workload.ops_per_job;

        let mut total_time = 0.0;
        let mut total_energy = 0.0;
        let mut crashes = 0u32;
        let mut stalls = 0u32;
        let mut stragglers = 0u32;
        let mut redispatched_ops = 0.0;
        let mut trace = Vec::new();

        for attempt in 0..policy.max_attempts() {
            let attempt_start = t0 + total_time;
            if R::ACTIVE {
                rec.span_begin(attempt_start, Track::Cluster, "attempt", attempt as u64);
            }
            let mut alive: Vec<u32> = self.cluster.groups.iter().map(|g| g.count).collect();
            let mut lost_ops = 0.0;
            let mut outcomes = Vec::with_capacity(nodes.len());
            for r in &nodes {
                let events = plan.events_for_node(seed, attempt, r.group, r.node, sample_horizon);
                let mut slowdown = 1.0;
                let mut stall_s = 0.0;
                let mut crash_at = None;
                for e in &events {
                    trace.push(FaultRecord {
                        attempt,
                        group: r.group,
                        node: r.node,
                        at_s: e.at_s,
                        kind: e.kind,
                    });
                    if R::ACTIVE {
                        let magnitude = match e.kind {
                            FaultKind::Crash => 0.0,
                            FaultKind::Stall { duration_s } => duration_s,
                            FaultKind::Straggler { slowdown } => slowdown,
                        };
                        rec.instant(
                            attempt_start + e.at_s,
                            Track::Node {
                                group: u16::try_from(r.group).expect("group index fits u16"),
                                node: u16::try_from(r.node).expect("node index fits u16"),
                            },
                            e.kind.label(),
                            magnitude,
                        );
                        rec.tally(e.kind.label(), 1);
                    }
                    match e.kind {
                        FaultKind::Crash => {
                            crashes += 1;
                            crash_at = Some(e.at_s);
                            break; // a dead node takes no further faults
                        }
                        FaultKind::Stall { duration_s } => {
                            stalls += 1;
                            stall_s += duration_s;
                        }
                        FaultKind::Straggler { slowdown: s } => {
                            stragglers += 1;
                            slowdown *= s;
                        }
                    }
                }
                // Finish time of this node's shard absent a crash; progress
                // is modeled as linear over the stretched run.
                let nominal_finish = r.duration * slowdown + stall_s;
                let full_energy = r.energy * slowdown + stall_s * r.idle_w;
                match crash_at {
                    Some(t) => {
                        alive[r.group] -= 1;
                        let t = t.min(nominal_finish);
                        let frac = if nominal_finish > 0.0 {
                            t / nominal_finish
                        } else {
                            1.0
                        };
                        let share_ops = self.split.ops_frac[r.group] * ops;
                        lost_ops += share_ops * (1.0 - frac);
                        outcomes.push(NodeOutcome {
                            busy_end: t,
                            busy_energy: full_energy * frac,
                            idle_w: r.idle_w,
                        });
                    }
                    None => outcomes.push(NodeOutcome {
                        busy_end: nominal_finish,
                        busy_energy: full_energy,
                        idle_w: r.idle_w,
                    }),
                }
            }
            // The main wave ends when the last node stops (finish or death).
            let wave_end = outcomes.iter().map(|o| o.busy_end).fold(0.0f64, f64::max);
            let wave_energy: f64 = outcomes
                .iter()
                .map(|o| o.busy_energy + (wave_end - o.busy_end) * o.idle_w)
                .sum();

            let survivors: u32 = alive.iter().sum();
            let failed_attempt = if survivors == 0 {
                // Cluster dead: the attempt aborts when the last node dies.
                total_time += wave_end;
                total_energy += wave_energy;
                if R::ACTIVE {
                    rec.span_end(
                        attempt_start + wave_end,
                        Track::Cluster,
                        "attempt",
                        attempt as u64,
                    );
                }
                true
            } else {
                // Recovery wave: survivors re-execute the lost shards under
                // the degraded rate-matched split (work conserved).
                let (recovery_time, recovery_energy) = if lost_ops > 0.0 {
                    let degraded =
                        try_rate_matched_split_surviving(self.workload, self.cluster, &alive)?;
                    let t = lost_ops / degraded.cluster_rate;
                    let p =
                        idle_w + busy_delta_w * (degraded.cluster_rate / self.split.cluster_rate);
                    redispatched_ops += lost_ops;
                    if R::ACTIVE {
                        rec.span_begin(
                            attempt_start + wave_end,
                            Track::Cluster,
                            "recovery",
                            attempt as u64,
                        );
                        rec.span_end(
                            attempt_start + wave_end + t,
                            Track::Cluster,
                            "recovery",
                            attempt as u64,
                        );
                        rec.instant(
                            attempt_start + wave_end,
                            Track::Cluster,
                            "split.degraded_rate_fraction",
                            degraded.cluster_rate / self.split.cluster_rate,
                        );
                    }
                    (t, t * p)
                } else {
                    (0.0, 0.0)
                };
                let completion = wave_end + recovery_time;
                let attempt_energy = wave_energy + recovery_energy;
                if completion <= timeout_s {
                    if R::ACTIVE {
                        rec.span_end(
                            attempt_start + completion,
                            Track::Cluster,
                            "attempt",
                            attempt as u64,
                        );
                        rec.span_end(attempt_start + completion, Track::Cluster, "job", seed);
                        rec.tally("cluster.jobs_completed", 1);
                    }
                    return Ok(FaultedJobRun {
                        run: ClusterJobRun {
                            duration: total_time + completion,
                            energy: total_energy + attempt_energy,
                            ops,
                        },
                        attempts: attempt + 1,
                        crashes,
                        stalls,
                        stragglers,
                        redispatched_ops,
                        trace,
                    });
                }
                // Timed out: the attempt is killed at the deadline, having
                // burned energy in proportion to its progress.
                total_time += timeout_s;
                total_energy += attempt_energy * (timeout_s / completion);
                if R::ACTIVE {
                    rec.span_end(
                        attempt_start + timeout_s,
                        Track::Cluster,
                        "attempt",
                        attempt as u64,
                    );
                }
                true
            };
            if failed_attempt && attempt + 1 < policy.max_attempts() {
                // Backoff at cluster idle power before the retry.
                let backoff = policy.backoff_s(attempt);
                if R::ACTIVE {
                    let t = t0 + total_time;
                    rec.counter(t, Track::Cluster, "dispatch.retries", 1);
                    rec.span_begin(t, Track::Cluster, "backoff", attempt as u64);
                    rec.span_end(t + backoff, Track::Cluster, "backoff", attempt as u64);
                }
                total_time += backoff;
                total_energy += backoff * idle_w;
            }
        }
        if R::ACTIVE {
            rec.instant(
                t0 + total_time,
                Track::Cluster,
                "job.retry_exhausted",
                policy.max_attempts() as f64,
            );
            rec.span_end(t0 + total_time, Track::Cluster, "job", seed);
        }
        Err(EnpropError::RetryBudgetExhausted {
            job_seed: seed,
            attempts: policy.max_attempts(),
        })
    }
}

#[cfg(test)]
mod fault_plan_tests {
    use super::*;
    use enprop_faults::{GroupFaultProfile, MtbfModel};
    use enprop_workloads::catalog;

    fn sim_fixture() -> (&'static str, ClusterSpec) {
        ("EP", ClusterSpec::a9_k10(4, 2))
    }

    #[test]
    fn inert_plan_is_bit_identical_to_plain_run() {
        let (name, c) = sim_fixture();
        let w = catalog::by_name(name).unwrap();
        let sim = ClusterSim::new(&w, &c);
        for seed in [0u64, 1, 7, 99] {
            let f = sim
                .run_job_under_plan(&FaultPlan::none(), &RetryPolicy::standard(), seed)
                .unwrap();
            assert_eq!(f.run, sim.run_job(seed));
            assert_eq!(f.attempts, 1);
            assert!(f.trace.is_empty());
        }
    }

    #[test]
    fn scheduled_crash_redispatches_and_costs_time() {
        let (name, c) = sim_fixture();
        let w = catalog::by_name(name).unwrap();
        let sim = ClusterSim::new(&w, &c);
        let base = sim.run_job(5);
        // Crash one group's nodes halfway through the job.
        let plan = FaultPlan {
            seed: 0,
            groups: vec![GroupFaultProfile {
                mtbf: MtbfModel::Schedule(vec![base.duration * 0.5]),
                kinds: vec![(1.0, FaultKind::Crash)],
            }],
        };
        let f = sim
            .run_job_under_plan(&plan, &RetryPolicy::standard(), 5)
            .unwrap();
        assert_eq!(f.crashes, 4, "all four A9 nodes crash");
        assert!(f.redispatched_ops > 0.0);
        assert!(f.run.duration > base.duration);
        assert!(f.run.energy > base.energy);
        assert_eq!(f.attempts, 1, "survivors absorb the lost work in-attempt");
    }

    #[test]
    fn straggler_slows_and_stall_delays() {
        let (name, c) = sim_fixture();
        let w = catalog::by_name(name).unwrap();
        let sim = ClusterSim::new(&w, &c);
        let base = sim.run_job(2);
        let slow = FaultPlan {
            seed: 0,
            groups: vec![
                GroupFaultProfile::none(),
                GroupFaultProfile {
                    mtbf: MtbfModel::Schedule(vec![0.0]),
                    kinds: vec![(1.0, FaultKind::Straggler { slowdown: 2.0 })],
                },
            ],
        };
        // A 2× straggler on the K10s doubles their finish time; a generous
        // timeout lets the attempt complete.
        let mut policy = RetryPolicy::standard();
        policy.timeout_factor = 4.0;
        let f = sim.run_job_under_plan(&slow, &policy, 2).unwrap();
        assert_eq!(f.stragglers, 2);
        assert!(
            (f.run.duration / base.duration - 2.0).abs() < 0.05,
            "rate-matched nodes finish together, so a 2× straggler doubles the wave: {} vs {}",
            f.run.duration,
            base.duration
        );

        let stall_s = base.duration;
        let stall = FaultPlan {
            seed: 0,
            groups: vec![GroupFaultProfile {
                mtbf: MtbfModel::Schedule(vec![base.duration * 0.25]),
                kinds: vec![(
                    1.0,
                    FaultKind::Stall {
                        duration_s: stall_s,
                    },
                )],
            }],
        };
        let f = sim.run_job_under_plan(&stall, &policy, 2).unwrap();
        assert_eq!(f.stalls, 4);
        assert!(
            (f.run.duration - (base.duration + stall_s)).abs() < 1e-6,
            "stalled nodes finish one stall late: {} vs {}",
            f.run.duration,
            base.duration + stall_s
        );
    }

    #[test]
    fn all_nodes_dead_retries_then_succeeds_or_exhausts() {
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(2, 0);
        let sim = ClusterSim::new(&w, &c);
        let base = sim.run_job(1);
        // Every node crashes at t = 1 s on every attempt (schedules are
        // attempt-invariant): the budget must exhaust.
        let plan = FaultPlan {
            seed: 0,
            groups: vec![GroupFaultProfile {
                mtbf: MtbfModel::Schedule(vec![1.0]),
                kinds: vec![(1.0, FaultKind::Crash)],
            }],
        };
        let err = sim
            .run_job_under_plan(&plan, &RetryPolicy::standard(), 1)
            .unwrap_err();
        assert_eq!(
            err,
            EnpropError::RetryBudgetExhausted {
                job_seed: 1,
                attempts: 4
            }
        );
        assert!(base.duration > 1.0, "fixture sanity: the crash is mid-job");
    }

    #[test]
    fn timeout_triggers_retry_with_backoff() {
        let (name, c) = sim_fixture();
        let w = catalog::by_name(name).unwrap();
        let sim = ClusterSim::new(&w, &c);
        let base = sim.run_job(3);
        // A 10× straggler on every node pushes the attempt past a 3×
        // timeout every time: all attempts fail, budget exhausts.
        let plan = FaultPlan::uniform(
            0,
            GroupFaultProfile {
                mtbf: MtbfModel::Schedule(vec![0.0]),
                kinds: vec![(1.0, FaultKind::Straggler { slowdown: 10.0 })],
            },
            2,
        );
        let policy = RetryPolicy {
            max_retries: 1,
            timeout_factor: 3.0,
            backoff_base_s: 5.0,
            backoff_multiplier: 2.0,
            backoff_cap_s: f64::INFINITY,
        };
        let err = sim.run_job_under_plan(&plan, &policy, 3).unwrap_err();
        assert!(matches!(
            err,
            EnpropError::RetryBudgetExhausted { attempts: 2, .. }
        ));

        // One retry allowed and only the first attempt's schedule slows it
        // down? Schedules recur, so instead verify the accounting on a plan
        // that succeeds: a random straggler that hits attempt 0 but not
        // attempt 1.
        let flaky = FaultPlan::uniform(
            42,
            GroupFaultProfile {
                mtbf: MtbfModel::Exponential {
                    mtbf_s: base.duration * 2.0,
                },
                kinds: vec![(1.0, FaultKind::Straggler { slowdown: 20.0 })],
            },
            2,
        );
        let policy = RetryPolicy {
            max_retries: 6,
            timeout_factor: 2.0,
            backoff_base_s: 2.0,
            backoff_multiplier: 2.0,
            backoff_cap_s: f64::INFINITY,
        };
        if let Ok(f) = sim.run_job_under_plan(&flaky, &policy, 3) {
            if f.attempts > 1 {
                // Each failed attempt bills the full timeout plus backoff.
                let floor = (f.attempts - 1) as f64 * base.duration * 2.0;
                assert!(
                    f.run.duration > floor,
                    "duration {} must exceed failed-attempt floor {floor}",
                    f.run.duration
                );
            }
        }
    }

    #[test]
    fn identical_seeds_give_identical_traces() {
        let (name, c) = sim_fixture();
        let w = catalog::by_name(name).unwrap();
        let sim = ClusterSim::new(&w, &c);
        let plan = FaultPlan::uniform(
            9,
            GroupFaultProfile {
                mtbf: MtbfModel::Exponential { mtbf_s: 60.0 },
                kinds: vec![
                    (1.0, FaultKind::Crash),
                    (2.0, FaultKind::Stall { duration_s: 5.0 }),
                    (1.0, FaultKind::Straggler { slowdown: 1.5 }),
                ],
            },
            2,
        );
        let a = sim.run_job_under_plan(&plan, &RetryPolicy::standard(), 11);
        let b = sim.run_job_under_plan(&plan, &RetryPolicy::standard(), 11);
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_plans_and_policies_are_rejected() {
        let (name, c) = sim_fixture();
        let w = catalog::by_name(name).unwrap();
        let sim = ClusterSim::new(&w, &c);
        let bad_plan = FaultPlan::uniform(
            0,
            GroupFaultProfile::crashes(MtbfModel::Exponential { mtbf_s: -1.0 }),
            2,
        );
        assert!(matches!(
            sim.run_job_under_plan(&bad_plan, &RetryPolicy::standard(), 0),
            Err(EnpropError::InvalidParameter { .. })
        ));
        let mut bad_policy = RetryPolicy::standard();
        bad_policy.timeout_factor = 0.5;
        assert!(sim
            .run_job_under_plan(&FaultPlan::none(), &bad_policy, 0)
            .is_err());
    }
}
