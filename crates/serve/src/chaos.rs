//! Chaos-mode harness: sweep randomized fault plans over a serving run
//! and assert the robustness invariants hold in every one.
//!
//! Each plan in the sweep is derived deterministically from the base
//! seed, so a red sweep reproduces exactly from its seed. Per plan the
//! harness checks:
//!
//! - **no deadlock**: the run returns (the event loop's drain deadline and
//!   event budget guarantee this structurally; an error here fails the
//!   plan),
//! - **no leaked or duplicated jobs**: [`ServeReport::conservation_ok`],
//! - **span balance**: every telemetry span opened during the run is
//!   closed by shutdown (checked on a [`MemoryRecorder`]).

use std::collections::BTreeMap;

use enprop_clustersim::ClusterSpec;
use enprop_faults::{
    DomainFaultKind, DomainFaultProfile, EnpropError, FaultKind, FaultPlan, FaultRng,
    GroupFaultProfile, MtbfModel, Topology, TopologyFaultPlan,
};
use enprop_obs::{EventKind, MemoryRecorder};
use enprop_workloads::Workload;

use crate::arrivals::{ArrivalModel, ArrivalSource, SyntheticArrivals};
use crate::config::ServeConfig;
use crate::controller::{
    cluster_capacity_ops_s, default_ops_per_request, Controller, RunHooks, RunOutcome,
};
use crate::report::ServeReport;

/// What one swept fault plan did to the invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOutcome {
    /// Sweep index of this plan (re-derivable from the sweep seed).
    pub plan: u32,
    /// The run's report (conservation fields included).
    pub report: ServeReport,
    /// `arrivals = completions + shed + in-flight` held.
    pub conservation_ok: bool,
    /// Every span begin had a matching end by shutdown.
    pub spans_balanced: bool,
}

impl PlanOutcome {
    /// All invariants held for this plan.
    pub fn ok(&self) -> bool {
        self.conservation_ok && self.spans_balanced
    }
}

/// Aggregate result of a chaos sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOutcome {
    /// Per-plan outcomes, in sweep order.
    pub plans: Vec<PlanOutcome>,
    /// Plans whose run returned an error (the error's display string).
    pub run_errors: Vec<(u32, String)>,
}

impl ChaosOutcome {
    /// True when every plan ran and every invariant held.
    pub fn all_ok(&self) -> bool {
        self.run_errors.is_empty() && self.plans.iter().all(PlanOutcome::ok)
    }

    /// Plans that violated conservation.
    pub fn conservation_violations(&self) -> usize {
        self.plans.iter().filter(|p| !p.conservation_ok).count()
    }

    /// Plans with unbalanced spans at shutdown.
    pub fn span_imbalances(&self) -> usize {
        self.plans.iter().filter(|p| !p.spans_balanced).count()
    }

    /// Plans that hit the drain deadline with work still in flight.
    pub fn forced_stops(&self) -> usize {
        self.plans.iter().filter(|p| p.report.forced_stop).count()
    }

    /// Total faults injected across the sweep.
    pub fn total_faults(&self) -> u64 {
        self.plans
            .iter()
            .map(|p| p.report.crashes + p.report.stalls + p.report.stragglers)
            .sum()
    }

    /// Circuit-breaker opens across the sweep.
    pub fn breaker_opens(&self) -> u64 {
        self.plans.iter().map(|p| p.report.breaker_opens).sum()
    }

    /// One-line verdict for smoke gates (ends with `chaos: OK` /
    /// `chaos: FAILED`).
    pub fn summary_line(&self) -> String {
        format!(
            "chaos sweep: {} plans, {} faults, {} forced stops, {} conservation violations, \
             {} span imbalances, {} run errors … chaos: {}",
            self.plans.len() + self.run_errors.len(),
            self.total_faults(),
            self.forced_stops(),
            self.conservation_violations(),
            self.span_imbalances(),
            self.run_errors.len(),
            if self.all_ok() { "OK" } else { "FAILED" }
        )
    }
}

/// Derive sweep plan `index` from `seed`: a randomized per-group mix of
/// crashes, stalls and stragglers under a randomized (but plausible)
/// MTBF. Deterministic in `(seed, index, group_count)`.
pub fn sweep_plan(seed: u64, index: u32, group_count: usize) -> FaultPlan {
    let mut groups = Vec::with_capacity(group_count);
    for g in 0..group_count {
        let mut rng = FaultRng::from_key(&[seed, 0x6368616f73, u64::from(index), g as u64]);
        // MTBF between 8 s and 58 s: frequent enough to exercise every
        // recovery path in a short run, rare enough to make progress.
        let mtbf_s = 8.0 + rng.unit() * 50.0;
        let mtbf = if rng.unit() < 0.25 {
            MtbfModel::Weibull {
                scale_s: mtbf_s,
                shape: 0.7 + rng.unit(),
            }
        } else {
            MtbfModel::Exponential { mtbf_s }
        };
        let kinds = vec![
            (rng.unit(), FaultKind::Crash),
            (
                rng.unit(),
                FaultKind::Stall {
                    duration_s: 0.5 + rng.unit() * 4.5,
                },
            ),
            (
                rng.unit(),
                FaultKind::Straggler {
                    slowdown: 1.5 + rng.unit() * 6.5,
                },
            ),
        ];
        // All three weights can be ~0; keep the profile valid by ensuring
        // at least one positive weight.
        let total: f64 = kinds.iter().map(|(w, _)| w).sum();
        let kinds = if total > 0.0 {
            kinds
        } else {
            vec![(1.0, FaultKind::Crash)]
        };
        groups.push(GroupFaultProfile { mtbf, kinds });
    }
    FaultPlan { seed: seed ^ u64::from(index).wrapping_mul(0x9e3779b97f4a7c15), groups }
}

/// Derive domain sweep plan `index` from `seed`: randomized rack / PDU /
/// cluster fault levels over a `nodes_per_rack = 2`, `racks_per_pdu = 2`
/// topology — rack crashes, partitions, PDU losses and cluster-wide power
/// emergencies with randomized caps. Deterministic in
/// `(seed, index, n_nodes)`.
pub fn sweep_domain_plan(
    seed: u64,
    index: u32,
    n_nodes: usize,
) -> Result<TopologyFaultPlan, EnpropError> {
    let topology = Topology::new(n_nodes, 2, 2)?;
    let mut rng = FaultRng::from_key(&[seed, 0x646f6d61696e, u64::from(index), n_nodes as u64]);
    // Rack-level MTBFs in the 6–36 s range: several correlated blasts per
    // short run; PDUs fault half as often, the cluster budget roughly as
    // often as a rack.
    let rack_mtbf_s = 6.0 + rng.unit() * 30.0;
    let rack = DomainFaultProfile {
        mtbf: MtbfModel::Exponential { mtbf_s: rack_mtbf_s },
        kinds: vec![
            (1.0 + rng.unit(), DomainFaultKind::RackCrash),
            (
                rng.unit(),
                DomainFaultKind::NetworkPartition { duration_s: 1.0 + rng.unit() * 3.0 },
            ),
        ],
    };
    let pdu = DomainFaultProfile {
        mtbf: MtbfModel::Exponential { mtbf_s: rack_mtbf_s * 2.0 },
        kinds: vec![(1.0, DomainFaultKind::PduLoss)],
    };
    let cluster = DomainFaultProfile {
        mtbf: MtbfModel::Exponential { mtbf_s: 8.0 + rng.unit() * 20.0 },
        kinds: vec![(
            1.0,
            DomainFaultKind::PowerEmergency {
                cap_w: 20.0 + rng.unit() * 120.0,
                duration_s: 2.0 + rng.unit() * 8.0,
            },
        )],
    };
    Ok(TopologyFaultPlan {
        seed: seed ^ u64::from(index).wrapping_mul(0x9e3779b97f4a7c15),
        topology,
        rack,
        pdu,
        cluster,
    })
}

/// Check span balance on a recorder: every `(track, name, id)` span begin
/// is matched by exactly one end.
pub fn spans_balanced(rec: &MemoryRecorder) -> bool {
    let mut open: BTreeMap<(u64, &str, u64), i64> = BTreeMap::new();
    for e in rec.events() {
        match e.kind {
            EventKind::SpanBegin => {
                *open.entry((e.track.tid(), e.name, e.id)).or_insert(0) += 1;
            }
            EventKind::SpanEnd => {
                *open.entry((e.track.tid(), e.name, e.id)).or_insert(0) -= 1;
            }
            _ => {}
        }
    }
    open.values().all(|&v| v == 0)
}

/// Run `plans` randomized fault plans of `requests` Poisson arrivals each
/// at `utilization` of the cluster's fault-free capacity, asserting the
/// robustness invariants per plan. With `domains`, a correlated
/// [`sweep_domain_plan`] is layered over each per-node plan: every run
/// then sees rack crashes, PDU losses, partitions and cluster-wide power
/// emergencies on top of its node-level chaos, and the same invariants
/// must hold.
///
/// The sweep never panics on an invariant violation — it reports, so the
/// CLI can print *which* plan failed and with what accounting.
pub fn chaos_sweep(
    workload: &Workload,
    cluster: &ClusterSpec,
    cfg: &ServeConfig,
    plans: u32,
    requests: u64,
    utilization: f64,
    domains: bool,
) -> Result<ChaosOutcome, EnpropError> {
    if !utilization.is_finite() || utilization <= 0.0 {
        return Err(EnpropError::invalid_parameter(
            "utilization",
            format!("must be finite and > 0, got {utilization}"),
        ));
    }
    let ops = default_ops_per_request(workload, cluster)?;
    let rate = utilization * cluster_capacity_ops_s(workload, cluster)? / ops;
    let n_nodes: usize = cluster.groups.iter().map(|g| g.count as usize).sum();
    let mut out = ChaosOutcome {
        plans: Vec::with_capacity(plans as usize),
        run_errors: Vec::new(),
    };
    for p in 0..plans {
        let plan = sweep_plan(cfg.seed, p, cluster.groups.len());
        let topo = domains.then(|| sweep_domain_plan(cfg.seed, p, n_nodes)).transpose()?;
        let mut plan_cfg = cfg.clone();
        plan_cfg.seed = cfg.seed.wrapping_add(u64::from(p));
        let arrivals = SyntheticArrivals::new(
            ArrivalModel::Poisson { rate },
            requests,
            ops,
            0.2,
            plan_cfg.seed,
        )?;
        let mut source = ArrivalSource::Synthetic(arrivals);
        let mut rec = MemoryRecorder::new();
        let mut hooks = RunHooks { live: &mut |_| {}, checkpoint: None, kill_after_events: None };
        let run = Controller::run_full(
            workload,
            cluster,
            &plan,
            topo.as_ref(),
            &plan_cfg,
            &mut source,
            &mut rec,
            &mut hooks,
        );
        match run {
            Ok(RunOutcome::Completed(report)) => {
                let conservation_ok = report.conservation_ok();
                out.plans.push(PlanOutcome {
                    plan: p,
                    report: *report,
                    conservation_ok,
                    spans_balanced: spans_balanced(&rec),
                });
            }
            // Unreachable: no kill hook was installed.
            Ok(RunOutcome::Killed { .. }) => {
                out.run_errors.push((p, "killed without a kill hook".to_string()));
            }
            Err(e) => out.run_errors.push((p, e.to_string())),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use enprop_workloads::catalog;

    #[test]
    fn sweep_plans_are_deterministic_and_valid() {
        let a = sweep_plan(42, 3, 2);
        let b = sweep_plan(42, 3, 2);
        assert_eq!(a, b);
        a.validate().unwrap();
        assert!(!a.is_inert(), "sweep plans must actually inject faults");
        // Different indices give different plans.
        assert_ne!(a, sweep_plan(42, 4, 2));
    }

    #[test]
    fn short_sweep_holds_every_invariant() {
        let w = catalog::by_name("memcached").unwrap();
        let c = ClusterSpec::a9_k10(3, 2);
        let cfg = ServeConfig::new(99);
        let out = chaos_sweep(&w, &c, &cfg, 4, 600, 0.6, false).unwrap();
        assert!(out.all_ok(), "{}", out.summary_line());
        assert!(out.total_faults() > 0, "chaos must inject faults");
        assert!(out.summary_line().ends_with("chaos: OK"));
    }

    #[test]
    fn utilization_is_validated() {
        let w = catalog::by_name("memcached").unwrap();
        let c = ClusterSpec::a9_k10(1, 1);
        let cfg = ServeConfig::new(1);
        assert!(chaos_sweep(&w, &c, &cfg, 1, 10, 0.0, false).is_err());
        assert!(chaos_sweep(&w, &c, &cfg, 1, 10, f64::NAN, false).is_err());
        assert!(chaos_sweep(&w, &c, &cfg, 1, 10, 0.0, true).is_err());
    }

    /// `domains` only layers the domain plans over the same node plans.
    #[test]
    fn only_the_domains_flag_adds_domain_faults() {
        let w = catalog::by_name("memcached").unwrap();
        let c = ClusterSpec::a9_k10(3, 2);
        let cfg = ServeConfig::new(7);
        let domain_faults = |domains: bool| -> u64 {
            let out = chaos_sweep(&w, &c, &cfg, 3, 400, 0.6, domains).unwrap();
            assert!(out.all_ok(), "{}", out.summary_line());
            out.plans
                .iter()
                .map(|p| p.report.rack_crashes + p.report.pdu_losses + p.report.partitions)
                .sum()
        };
        assert_eq!(domain_faults(false), 0);
        assert!(domain_faults(true) > 0);
    }

    #[test]
    fn domain_sweep_plans_are_deterministic() {
        let a = sweep_domain_plan(42, 3, 10).unwrap();
        let b = sweep_domain_plan(42, 3, 10).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, sweep_domain_plan(42, 4, 10).unwrap());
        assert!(!a.rack.is_inert() && !a.pdu.is_inert() && !a.cluster.is_inert());
    }

    /// The acceptance gate: a rack-loss + power-emergency sweep preserves
    /// conservation with circuit breakers engaged.
    #[test]
    fn domain_sweep_conserves_with_breakers_engaged() {
        let w = catalog::by_name("memcached").unwrap();
        let c = ClusterSpec::a9_k10(3, 2);
        let mut cfg = ServeConfig::new(101);
        cfg.repair_s = 5.0;
        cfg.breaker_failures = 2; // trip on short timeout bursts
        cfg.breaker_open_s = 1.0;
        let out = chaos_sweep(&w, &c, &cfg, 4, 600, 0.6, true).unwrap();
        assert!(out.all_ok(), "{}", out.summary_line());
        assert!(out.total_faults() > 0, "node-level chaos must still inject");
        let domain_faults: u64 = out
            .plans
            .iter()
            .map(|p| {
                let r = &p.report;
                r.rack_crashes + r.pdu_losses + r.partitions + r.power_emergencies
            })
            .sum();
        assert!(domain_faults > 0, "correlated domain events must fire: {}", out.summary_line());
        assert!(
            out.breaker_opens() > 0,
            "the sweep must engage circuit breakers at least once"
        );
        assert!(
            out.plans.iter().any(|p| p.report.power_emergencies > 0),
            "at least one plan must see a power emergency"
        );
    }
}
