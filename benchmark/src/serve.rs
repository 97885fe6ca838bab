//! The two serving workloads: memcached on 6 A9 : 2 K10 with open-loop
//! Poisson arrivals at 60% of capacity, in virtual time (a slow simulator
//! never lowers the simulated load).
//!
//! - `serve_steady`: faults off, obs plane on — the dispatch, event-heap
//!   and sketch hot path. Never touches faults or snapshots.
//! - `serve_chaos_ckpt`: node faults, rack crashes and power emergencies,
//!   with a checkpoint hook that keeps the latest snapshot in memory —
//!   the retry/reroute, breaker, degradation-ladder and snapshot paths.

use crate::trace::{LayerTimes, Tracer};
use crate::{stats, Bench, Layers, Size};
use enprop_clustersim::ClusterSpec;
use enprop_faults::{
    DomainFaultKind, DomainFaultProfile, FaultKind, FaultPlan, FaultRng, GroupFaultProfile,
    MtbfModel, Topology, TopologyFaultPlan,
};
use enprop_obs::NoopRecorder;
use enprop_serve::{
    cluster_capacity_ops_s, default_ops_per_request, ArrivalModel, ArrivalSource, Controller,
    RunHooks, RunOutcome, ServeConfig, ServeReport, SyntheticArrivals,
};
use enprop_workloads::{catalog, Workload};
use std::time::Instant;

/// Offered load as a share of cluster capacity.
const UTILIZATION: f64 = 0.6;
/// Request-size jitter (uniform ± share).
const OPS_JITTER: f64 = 0.2;
/// Seed-drawn kill/resume checks after the timed loop.
const KILL_CHECKS: u64 = 10;
/// Repetitions of each trace-only probe (median reported).
const PROBE_REPS: usize = 3;

/// Everything one serving run needs besides its seed.
struct Fixture {
    workload: Workload,
    cluster: ClusterSpec,
    ops: f64,
    rate: f64,
    requests: u64,
}

impl Fixture {
    fn new(requests: u64) -> Self {
        let workload = catalog::by_name("memcached").expect("memcached is in the catalog");
        let cluster = ClusterSpec::a9_k10(6, 2);
        let ops = default_ops_per_request(&workload, &cluster).expect("cluster has capacity");
        let capacity = cluster_capacity_ops_s(&workload, &cluster).expect("cluster has capacity");
        Fixture {
            workload,
            cluster,
            ops,
            rate: UTILIZATION * capacity / ops,
            requests,
        }
    }

    fn arrivals(&self, seed: u64) -> SyntheticArrivals {
        SyntheticArrivals::new(
            ArrivalModel::Poisson { rate: self.rate },
            self.requests,
            self.ops,
            OPS_JITTER,
            seed,
        )
        .expect("valid arrival model")
    }

    fn source(&self, seed: u64) -> ArrivalSource {
        ArrivalSource::Synthetic(self.arrivals(seed))
    }

    fn check(&self, r: &ServeReport, seed: u64) -> Result<(), String> {
        if r.arrivals != self.requests || !r.conservation_ok() {
            return Err(format!("seed {seed}: {}", r.conservation_line()));
        }
        Ok(())
    }

    /// Time a drain of one arrival stream on its own, ns per arrival.
    fn arrival_ns(&self, seed: u64) -> f64 {
        let runs: Vec<f64> = (0..PROBE_REPS)
            .map(|_| {
                let mut a = self.arrivals(seed);
                let t0 = Instant::now();
                while let Some(x) = a.next_arrival() {
                    std::hint::black_box(x);
                }
                t0.elapsed().as_secs_f64() * 1e9 / self.requests as f64
            })
            .collect();
        stats::median(&runs)
    }
}

/// Per-run counts the serve layer metrics are derived from.
#[derive(Debug, Clone, Copy)]
struct RunCounts {
    events: u64,
    arrivals: u64,
    retries: u64,
    shed: u64,
}

impl RunCounts {
    fn of(r: &ServeReport) -> Self {
        RunCounts {
            events: r.events,
            arrivals: r.arrivals,
            retries: r.retries,
            shed: r.shed(),
        }
    }
}

fn median_of(counts: &[RunCounts], f: impl Fn(&RunCounts) -> f64) -> f64 {
    stats::median(&counts.iter().map(f).collect::<Vec<_>>())
}

fn serve_layers(lt: &LayerTimes, counts: &[RunCounts]) -> Layers {
    let run_ms = lt.median_ms("serve.run");
    let events = median_of(counts, |c| c.events as f64);
    vec![
        ("serve.run.ms", run_ms),
        (
            "serve.events_per_req",
            median_of(counts, |c| c.events as f64 / c.arrivals as f64),
        ),
        (
            "serve.ns_per_event",
            if events > 0.0 {
                run_ms * 1e6 / events
            } else {
                0.0
            },
        ),
        (
            "serve.retries_per_kreq",
            median_of(counts, |c| 1e3 * c.retries as f64 / c.arrivals as f64),
        ),
        (
            "serve.shed_frac",
            median_of(counts, |c| c.shed as f64 / c.arrivals as f64),
        ),
    ]
}

/// State of the `serve_steady` workload.
pub struct ServeSteady {
    fx: Fixture,
    seed: u64,
    plan: FaultPlan,
    first_report: Option<String>,
    counts: Vec<RunCounts>,
}

impl ServeSteady {
    /// 100k requests per run at full size, 2k at tiny size.
    pub fn new(seed: u64, size: Size) -> Self {
        ServeSteady {
            fx: Fixture::new(match size {
                Size::Full => 100_000,
                Size::Tiny => 2_000,
            }),
            seed,
            plan: FaultPlan::none(),
            first_report: None,
            counts: Vec::new(),
        }
    }

    /// One fault-free run; `plane` keeps the obs plane at its default
    /// window, otherwise it is switched off.
    fn run(&self, seed: u64, plane: bool, t: &mut Tracer) -> Result<ServeReport, String> {
        let mut cfg = ServeConfig::new(seed);
        if !plane {
            cfg.obs_window_s = 0.0;
        }
        let mut source = self.fx.source(seed);
        let fx = &self.fx;
        t.span("serve.run", || {
            Controller::run(
                &fx.workload,
                &fx.cluster,
                &self.plan,
                &cfg,
                &mut source,
                &mut NoopRecorder,
            )
        })
        .map_err(|e| format!("seed {seed}: {e}"))
    }
}

impl Bench for ServeSteady {
    fn iter(&mut self, i: u64, t: &mut Tracer) -> Result<f64, String> {
        let seed = self.seed.wrapping_add(i);
        let report = self.run(seed, true, t)?;
        self.fx.check(&report, seed)?;
        if i == 0 {
            self.first_report = Some(format!("{report:?}"));
        }
        self.counts.push(RunCounts::of(&report));
        Ok(report.arrivals as f64)
    }

    fn checks(&mut self) -> Vec<Result<(), String>> {
        let seed = self.seed;
        let again = self
            .run(seed, true, &mut Tracer::new())
            .map(|r| format!("{r:?}"));
        vec![match (again, &self.first_report) {
            (Ok(a), Some(b)) if a == *b => Ok(()),
            (Err(e), _) => Err(e),
            _ => Err(format!(
                "seed {seed}: a re-run did not reproduce the report bit for bit"
            )),
        }]
    }

    fn layers(&mut self, lt: &LayerTimes) -> Layers {
        // Plane share: 1 − (plane-off time) / (plane-on time), same inputs.
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for k in 0..PROBE_REPS as u64 {
            let seed = self.seed.wrapping_add(k);
            for (plane, out) in [(true, &mut on), (false, &mut off)] {
                let t0 = Instant::now();
                let _ = std::hint::black_box(self.run(seed, plane, &mut Tracer::new()));
                out.push(t0.elapsed().as_secs_f64());
            }
        }
        let mut m = serve_layers(lt, &self.counts);
        m.push((
            "serve.arrivals.ns_per_arrival",
            self.fx.arrival_ns(self.seed),
        ));
        m.push((
            "obs.plane.share",
            1.0 - stats::median(&off) / stats::median(&on),
        ));
        m
    }
}

/// The fault scenario of `serve_chaos_ckpt`, keyed by the run seed.
struct Chaos {
    plan: FaultPlan,
    topo: TopologyFaultPlan,
    cfg: ServeConfig,
}

impl Chaos {
    fn new(seed: u64, cluster: &ClusterSpec) -> Self {
        let profile = GroupFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s: 120.0 },
            kinds: vec![
                (0.5, FaultKind::Crash),
                (0.3, FaultKind::Stall { duration_s: 2.0 }),
                (0.2, FaultKind::Straggler { slowdown: 3.0 }),
            ],
        };
        let nodes = cluster.groups.iter().map(|g| g.count as usize).sum();
        let topo = TopologyFaultPlan {
            seed,
            topology: Topology::new(nodes, 4, 2).expect("valid topology"),
            rack: DomainFaultProfile {
                mtbf: MtbfModel::Exponential { mtbf_s: 600.0 },
                kinds: vec![(1.0, DomainFaultKind::RackCrash)],
            },
            pdu: DomainFaultProfile::none(),
            cluster: DomainFaultProfile {
                mtbf: MtbfModel::Exponential { mtbf_s: 120.0 },
                kinds: vec![(
                    1.0,
                    DomainFaultKind::PowerEmergency {
                        cap_w: 60.0,
                        duration_s: 10.0,
                    },
                )],
            },
        };
        let mut cfg = ServeConfig::new(seed);
        cfg.repair_s = 15.0;
        Chaos {
            plan: FaultPlan::uniform(seed, profile, cluster.groups.len()),
            topo,
            cfg,
        }
    }
}

/// What one hooked chaos run produced.
struct ChaosRun {
    outcome: RunOutcome,
    latest_snapshot: String,
    snapshots: u64,
    snapshot_bytes: u64,
}

/// State of the `serve_chaos_ckpt` workload.
pub struct ServeChaos {
    fx: Fixture,
    seed: u64,
    /// Uninterrupted reports of the first iterations, for the re-run and
    /// kill/resume checks.
    reports: Vec<(String, u64)>,
    counts: Vec<RunCounts>,
    snapshots: Vec<(u64, u64)>,
    last: Option<(u64, String)>,
}

impl ServeChaos {
    /// 50k requests per run at full size, 5k at tiny size (enough obs
    /// windows that every kill point has a snapshot before it).
    pub fn new(seed: u64, size: Size) -> Self {
        ServeChaos {
            fx: Fixture::new(match size {
                Size::Full => 50_000,
                Size::Tiny => 5_000,
            }),
            seed,
            reports: Vec::new(),
            counts: Vec::new(),
            snapshots: Vec::new(),
            last: None,
        }
    }

    /// One run under the chaos scenario of `seed`; `hooked` installs the
    /// in-memory checkpoint sink.
    fn run(
        &self,
        seed: u64,
        hooked: bool,
        kill_after_events: Option<u64>,
        t: &mut Tracer,
    ) -> Result<ChaosRun, String> {
        let fx = &self.fx;
        let sc = Chaos::new(seed, &fx.cluster);
        let mut source = fx.source(seed);
        let (mut latest, mut snapshots, mut snapshot_bytes) = (String::new(), 0u64, 0u64);
        let mut sink = |snap: &str| {
            latest.clear();
            latest.push_str(snap);
            snapshots += 1;
            snapshot_bytes += snap.len() as u64;
        };
        let mut hooks = RunHooks {
            live: &mut |_| {},
            checkpoint: if hooked {
                Some(&mut sink as &mut dyn FnMut(&str))
            } else {
                None
            },
            kill_after_events,
        };
        let outcome = t
            .span("serve.run", || {
                Controller::run_full(
                    &fx.workload,
                    &fx.cluster,
                    &sc.plan,
                    Some(&sc.topo),
                    &sc.cfg,
                    &mut source,
                    &mut NoopRecorder,
                    &mut hooks,
                )
            })
            .map_err(|e| format!("seed {seed}: {e}"))?;
        Ok(ChaosRun {
            outcome,
            latest_snapshot: latest,
            snapshots,
            snapshot_bytes,
        })
    }

    fn resume(&self, seed: u64, snapshot: &str) -> Result<ServeReport, String> {
        let fx = &self.fx;
        let sc = Chaos::new(seed, &fx.cluster);
        let mut source = fx.source(seed);
        let mut hooks = RunHooks {
            live: &mut |_| {},
            checkpoint: None,
            kill_after_events: None,
        };
        match Controller::resume_full(
            &fx.workload,
            &fx.cluster,
            &sc.plan,
            Some(&sc.topo),
            &sc.cfg,
            &mut source,
            &mut NoopRecorder,
            snapshot,
            &mut hooks,
        ) {
            Ok(RunOutcome::Completed(r)) => Ok(*r),
            Ok(RunOutcome::Killed { .. }) => Err(format!("seed {seed}: resumed run was killed")),
            Err(e) => Err(format!("seed {seed}: resume failed: {e}")),
        }
    }

    fn completed(&self, run: &ChaosRun, seed: u64) -> Result<ServeReport, String> {
        match &run.outcome {
            RunOutcome::Completed(r) => {
                self.fx.check(r, seed)?;
                Ok((**r).clone())
            }
            RunOutcome::Killed { .. } => {
                Err(format!("seed {seed}: run killed without a kill hook"))
            }
        }
    }

    /// The uninterrupted report of iteration `k` and its event count.
    fn reference(&self, k: u64) -> Result<(String, u64), String> {
        if let Some(r) = self.reports.get(k as usize) {
            return Ok(r.clone());
        }
        let seed = self.seed.wrapping_add(k);
        let run = self.run(seed, true, None, &mut Tracer::new())?;
        let r = self.completed(&run, seed)?;
        Ok((format!("{r:?}"), r.events))
    }

    /// Kill iteration `k` at a seed-drawn event, resume from its last
    /// snapshot and compare with the uninterrupted run.
    fn kill_resume(&self, k: u64) -> Result<(), String> {
        let seed = self.seed.wrapping_add(k);
        let (want, events) = self.reference(k)?;
        let u = FaultRng::from_key(&[self.seed, 0x6b69_6c6c, k]).unit();
        let kill_at = ((0.1 + 0.8 * u) * events as f64) as u64;
        let killed = self.run(seed, true, Some(kill_at), &mut Tracer::new())?;
        if !matches!(killed.outcome, RunOutcome::Killed { .. }) {
            return Err(format!("seed {seed}: kill at event {kill_at} did not fire"));
        }
        if killed.latest_snapshot.is_empty() {
            return Err(format!("seed {seed}: no snapshot before event {kill_at}"));
        }
        let got = format!("{:?}", self.resume(seed, &killed.latest_snapshot)?);
        if got != want {
            return Err(format!(
                "seed {seed}: resume after a kill at event {kill_at} diverged from the uninterrupted run"
            ));
        }
        Ok(())
    }

    /// Host time to sample one fault window for every node plus the
    /// topology plan, microseconds.
    fn plan_us_per_window(&self) -> f64 {
        const WINDOWS: u32 = 200;
        let sc = Chaos::new(self.seed, &self.fx.cluster);
        let w_s = sc.cfg.fault_window_s;
        let runs: Vec<f64> = (0..PROBE_REPS)
            .map(|_| {
                let t0 = Instant::now();
                for window in 0..WINDOWS {
                    for (gi, g) in self.fx.cluster.groups.iter().enumerate() {
                        for node in 0..g.count {
                            std::hint::black_box(sc.plan.events_for_node(
                                sc.cfg.seed,
                                window,
                                gi,
                                node,
                                w_s,
                            ));
                        }
                    }
                    std::hint::black_box(sc.topo.events_for_window(sc.cfg.seed, window, w_s));
                }
                t0.elapsed().as_secs_f64() * 1e6 / f64::from(WINDOWS)
            })
            .collect();
        stats::median(&runs)
    }
}

impl Bench for ServeChaos {
    fn iter(&mut self, i: u64, t: &mut Tracer) -> Result<f64, String> {
        let seed = self.seed.wrapping_add(i);
        let run = self.run(seed, true, None, t)?;
        let report = self.completed(&run, seed)?;
        if i as usize == self.reports.len() && i < KILL_CHECKS {
            self.reports.push((format!("{report:?}"), report.events));
        }
        self.counts.push(RunCounts::of(&report));
        self.snapshots.push((run.snapshots, run.snapshot_bytes));
        self.last = Some((seed, run.latest_snapshot));
        Ok(report.arrivals as f64)
    }

    fn checks(&mut self) -> Vec<Result<(), String>> {
        let seed = self.seed;
        let rerun = self
            .run(seed, true, None, &mut Tracer::new())
            .and_then(|run| self.completed(&run, seed))
            .and_then(|r| match self.reference(0) {
                Ok((want, _)) if want == format!("{r:?}") => Ok(()),
                Ok(_) => Err(format!(
                    "seed {seed}: a re-run did not reproduce the report bit for bit"
                )),
                Err(e) => Err(e),
            });
        let mut out = vec![rerun];
        out.extend((0..KILL_CHECKS).map(|k| self.kill_resume(k)));
        out
    }

    fn layers(&mut self, lt: &LayerTimes) -> Layers {
        let seed = self.seed;
        // Snapshot cost: hooked minus unhooked time of the same run.
        let (mut hooked, mut bare) = (Vec::new(), Vec::new());
        for _ in 0..PROBE_REPS {
            for (hook, out) in [(true, &mut hooked), (false, &mut bare)] {
                let t0 = Instant::now();
                let _ = std::hint::black_box(self.run(seed, hook, None, &mut Tracer::new()));
                out.push(t0.elapsed().as_secs_f64());
            }
        }
        let (h, b) = (stats::median(&hooked), stats::median(&bare));
        let count = stats::median(
            &self
                .snapshots
                .iter()
                .map(|s| s.0 as f64)
                .collect::<Vec<_>>(),
        );
        let kb = stats::median(
            &self
                .snapshots
                .iter()
                .filter(|s| s.0 > 0)
                .map(|s| s.1 as f64 / s.0 as f64 / 1024.0)
                .collect::<Vec<_>>(),
        );
        let decode_ms = match &self.last {
            Some((seed, snap)) if !snap.is_empty() => stats::median(
                &(0..PROBE_REPS)
                    .map(|_| {
                        let t0 = Instant::now();
                        let _ = std::hint::black_box(self.resume(*seed, snap));
                        t0.elapsed().as_secs_f64() * 1e3
                    })
                    .collect::<Vec<_>>(),
            ),
            _ => 0.0,
        };
        let mut m = serve_layers(lt, &self.counts);
        m.extend([
            ("serve.snapshot.count", count),
            ("serve.snapshot.kb", kb),
            (
                "serve.snapshot.encode_us",
                if count > 0.0 {
                    (h - b).max(0.0) * 1e6 / count
                } else {
                    0.0
                },
            ),
            ("serve.snapshot.share", 1.0 - b / h),
            ("serve.resume.decode_ms", decode_ms),
            ("faults.plan.us_per_window", self.plan_us_per_window()),
        ]);
        m
    }
}
