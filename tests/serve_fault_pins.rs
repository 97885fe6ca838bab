#![allow(clippy::unwrap_used)] // test code: panicking on a missing catalog entry is the desired failure mode

//! Fault-heavy serving runs, each report pinned with its `events` count
//! zeroed: stalls, stragglers, crashes, rack and PDU blasts, power caps
//! and emergencies all change when requests time out, and every timeout
//! that fires must fire at the same virtual time whatever the event heap
//! holds. A change to how timeouts are scheduled may move `events` and
//! nothing else in these reports.

use enprop::prelude::*;
use enprop_faults::{
    DomainFaultKind, DomainFaultProfile, FaultKind, FaultPlan, GroupFaultProfile, MtbfModel,
    Topology, TopologyFaultPlan,
};
use enprop_obs::NoopRecorder;
use enprop_serve::{
    ArrivalModel, ArrivalSource, Controller, RunHooks, RunOutcome, ServeConfig, ServeReport,
    SyntheticArrivals,
};

/// One serving run: memcached on `a9` A9 and `k10` K10 nodes at
/// utilization `util`, under a node plan, an optional domain plan and a
/// config.
struct Scenario {
    name: &'static str,
    a9: u32,
    k10: u32,
    util: f64,
    requests: u64,
    plan: FaultPlan,
    topo: Option<TopologyFaultPlan>,
    cfg: ServeConfig,
}

impl Scenario {
    fn new(name: &'static str, seed: u64, util: f64, requests: u64) -> Self {
        Scenario {
            name,
            a9: 6,
            k10: 2,
            util,
            requests,
            plan: FaultPlan::none(),
            topo: None,
            cfg: ServeConfig::new(seed),
        }
    }

    /// Per-node faults of `kinds` every `mtbf_s` seconds on average.
    fn nodes(mut self, mtbf_s: f64, kinds: Vec<(f64, FaultKind)>) -> Self {
        let profile = GroupFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s },
            kinds,
        };
        self.plan = FaultPlan::uniform(self.cfg.seed, profile, 2);
        self
    }

    /// The domain plan `edit` makes of an inert one over 2 nodes per rack
    /// and `racks_per_pdu` racks per PDU.
    fn domains(mut self, racks_per_pdu: usize, edit: impl FnOnce(&mut TopologyFaultPlan)) -> Self {
        let nodes = (self.a9 + self.k10) as usize;
        let mut topo = TopologyFaultPlan::none(Topology::new(nodes, 2, racks_per_pdu).unwrap());
        topo.seed = self.cfg.seed;
        edit(&mut topo);
        self.topo = Some(topo);
        self
    }

    fn run(&self) -> ServeReport {
        let w = catalog::by_name("memcached").unwrap();
        let cluster = ClusterSpec::a9_k10(self.a9, self.k10);
        let ops = enprop_serve::default_ops_per_request(&w, &cluster).unwrap();
        let capacity = enprop_serve::cluster_capacity_ops_s(&w, &cluster).unwrap();
        let model = ArrivalModel::Poisson {
            rate: self.util * capacity / ops,
        };
        let arrivals =
            SyntheticArrivals::new(model, self.requests, ops, 0.2, self.cfg.seed).unwrap();
        let mut source = ArrivalSource::Synthetic(arrivals);
        let mut hooks = RunHooks {
            live: &mut |_| {},
            checkpoint: None,
            kill_after_events: None,
        };
        let out = Controller::run_full(
            &w,
            &cluster,
            &self.plan,
            self.topo.as_ref(),
            &self.cfg,
            &mut source,
            &mut NoopRecorder,
            &mut hooks,
        )
        .unwrap();
        let RunOutcome::Completed(report) = out else {
            panic!("{}: no kill hook was installed", self.name);
        };
        assert!(
            report.conservation_ok(),
            "{}: {}",
            self.name,
            report.conservation_line()
        );
        *report
    }
}

/// FNV-1a over `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn stall(duration_s: f64) -> FaultKind {
    FaultKind::Stall { duration_s }
}

fn straggler(slowdown: f64) -> FaultKind {
    FaultKind::Straggler { slowdown }
}

fn emergencies(mtbf_s: f64, cap_w: f64, duration_s: f64) -> DomainFaultProfile {
    DomainFaultProfile {
        mtbf: MtbfModel::Exponential { mtbf_s },
        kinds: vec![(1.0, DomainFaultKind::PowerEmergency { cap_w, duration_s })],
    }
}

/// The part of a scenario's report that shows it reached what it is for.
type Reached = fn(&ServeReport) -> bool;

/// The scenarios, each with its [`Reached`] test.
fn scenarios() -> Vec<(Scenario, Reached)> {
    // A timeout factor of 1.1: a request queued before a DVFS step down
    // finishes late enough to time out.
    let mut capped = Scenario::new("a 40 W power cap", 2, 0.6, 15_000);
    capped.cfg.power_cap_w = 40.0;
    capped.cfg.retry.timeout_factor = 1.1;
    let mut hot = Scenario::new(
        "u = 0.95, 3 s MTBF, 6x stragglers, 45 W cap",
        5,
        0.95,
        15_000,
    )
    .nodes(
        3.0,
        vec![
            (1.0, FaultKind::Crash),
            (1.0, stall(1.5)),
            (2.0, straggler(6.0)),
        ],
    );
    hot.cfg.power_cap_w = 45.0;
    let mut tight = Scenario::new("timeout factor 1 + 1e-9", 6, 0.7, 10_000)
        .nodes(4.0, vec![(1.0, stall(0.5)), (1.0, straggler(3.0))]);
    tight.cfg.retry.timeout_factor = 1.0 + 1e-9;
    let mut pdu = Scenario::new("PDU losses on 2 A9 : 2 K10", 4, 0.8, 15_000);
    (pdu.a9, pdu.k10) = (2, 2);
    pdu.cfg.repair_s = 10.0;
    let pdu = pdu.domains(1, |t| {
        t.pdu = DomainFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s: 15.0 },
            kinds: vec![(1.0, DomainFaultKind::PduLoss)],
        };
    });
    let mut racks = Scenario::new("rack crashes and power emergencies", 3, 0.7, 15_000);
    racks.cfg.repair_s = 8.0;
    let racks = racks.domains(2, |t| {
        t.rack = DomainFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s: 20.0 },
            kinds: vec![(1.0, DomainFaultKind::RackCrash)],
        };
        t.cluster = emergencies(15.0, 30.0, 5.0);
    });
    vec![
        (
            Scenario::new("stalls and 4x stragglers at u = 0.8", 1, 0.8, 15_000)
                .nodes(5.0, vec![(1.0, stall(1.0)), (1.0, straggler(4.0))]),
            |r| r.stalls > 0 && r.stragglers > 0 && r.timeouts > 0,
        ),
        (capped, |r| r.dvfs_down > 0 && r.timeouts > 0),
        (racks, |r| {
            r.rack_crashes > 0 && r.power_emergencies > 0 && r.timeouts > 0
        }),
        (pdu, |r| r.pdu_losses > 0 && r.timeouts > 0),
        (hot, |r| {
            r.stragglers > 0 && r.dvfs_down > 0 && r.timeouts > 0
        }),
        (tight, |r| r.timeouts > 0),
    ]
}

/// Every scenario's report, `events` aside, pinned as an FNV-1a digest of
/// its Debug text (shortest round-trip floats, so bit for bit).
#[test]
fn fault_heavy_reports_are_pinned_but_for_events() {
    let pins = [
        0xc166_86c9_e7d6_3edf_u64,
        0xf709_d0ff_0be3_eb71,
        0x7bee_58c8_baa0_6c1a,
        0x21f0_344a_c76a_cf36,
        0x9525_f69d_bf6a_271e,
        0x9bc9_a32b_0014_d6ff,
    ];
    let mut got = Vec::new();
    for ((s, reached), pin) in scenarios().iter().zip(pins) {
        let report = s.run();
        assert!(reached(&report), "{}: {report:?}", s.name);
        let digest = fnv1a(&format!(
            "{:?}",
            ServeReport {
                events: 0,
                ..report
            }
        ));
        got.push((s.name, digest, pin));
    }
    let moved: Vec<_> = got.iter().filter(|(_, d, p)| d != p).collect();
    assert!(moved.is_empty(), "(scenario, digest, pin): {moved:#x?}");
}

/// With faults off no node falls behind, so no timeout reaches the event
/// heap: a run pops each arrival and each completion once, plus its
/// recurring events (1 s control ticks, 0.5 s health checks, one
/// fault-window event per node per 60 s window) and the drain deadline.
#[test]
fn a_fault_free_run_pops_no_timeout() {
    for seed in [1, 2, 3] {
        let s = Scenario::new("fault-free", seed, 0.6, 20_000);
        let r = s.run();
        assert_eq!(r.completions, r.arrivals, "{r:?}");
        let nodes = u64::from(s.a9 + s.k10);
        let windows = nodes * ((r.horizon_s / 60.0).floor() as u64 + 1);
        let recurring = (r.horizon_s / 1.0) as u64 + (r.horizon_s / 0.5) as u64 + windows + 1;
        let bound = r.arrivals + r.completions + recurring;
        assert!(
            r.events <= bound,
            "seed {seed}: {} events, bound {bound}",
            r.events
        );
    }
}
