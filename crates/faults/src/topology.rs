//! Correlated failure domains: a node → rack → PDU topology whose
//! *domains* fail as units, plus cluster-wide power emergencies.
//!
//! The per-node machinery in [`crate::FaultPlan`] models independent
//! failures; real heterogeneous clusters also lose whole racks (top-of-rack
//! switch dies), whole PDUs (breaker trips), and — per the subsystem-level
//! power-management literature — occasionally the *budget*: a facility
//! event forces the cluster under a temporary power cap. This module
//! samples those blast-radius events from the same seeded MTBF machinery,
//! keyed per *domain* rather than per node, so every member of a domain is
//! hit atomically at the same instant by construction (one draw, one
//! event, N victims).
//!
//! Determinism contract: [`TopologyFaultPlan::events_for_window`] is a pure
//! function of `(plan.seed, run_seed, window, profiles)`. It allocates its
//! own [`FaultRng`] streams per domain and never touches ambient state, so
//! calls are reproducible across runs, across call sites, and across
//! threads (the `topology_props` suite pins this).

use crate::error::EnpropError;
use crate::plan::MtbfModel;
use crate::rng::FaultRng;

/// Hard cap on correlated events sampled per domain per window — the same
/// safety valve [`crate::FaultPlan`] applies per node.
const MAX_EVENTS_PER_DOMAIN: usize = 64;

/// Stream-key tags separating the rack / PDU / cluster sampling domains.
const RACK_TAG: u64 = 0x7261_636b; // "rack"
const PDU_TAG: u64 = 0x7064_7530; // "pdu0"
const CLUSTER_TAG: u64 = 0x636c_7573; // "clus"

/// Physical placement of a flat node index into racks and PDUs.
///
/// Nodes are packed in index order: node `i` sits in rack
/// `i / nodes_per_rack`, and rack `r` hangs off PDU `r / racks_per_pdu`.
/// The last rack/PDU may be partially filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Total node count (must match the cluster the plan is applied to).
    pub nodes: usize,
    /// Nodes per rack (≥ 1).
    pub nodes_per_rack: usize,
    /// Racks per PDU (≥ 1).
    pub racks_per_pdu: usize,
}

impl Topology {
    /// Build and validate a topology.
    pub fn new(
        nodes: usize,
        nodes_per_rack: usize,
        racks_per_pdu: usize,
    ) -> Result<Self, EnpropError> {
        let t = Topology {
            nodes,
            nodes_per_rack,
            racks_per_pdu,
        };
        t.validate()?;
        Ok(t)
    }

    /// Validate the shape parameters.
    pub fn validate(&self) -> Result<(), EnpropError> {
        if self.nodes == 0 {
            return Err(EnpropError::invalid_parameter(
                "topology nodes",
                "must be ≥ 1",
            ));
        }
        if self.nodes_per_rack == 0 {
            return Err(EnpropError::invalid_parameter(
                "nodes_per_rack",
                "must be ≥ 1",
            ));
        }
        if self.racks_per_pdu == 0 {
            return Err(EnpropError::invalid_parameter(
                "racks_per_pdu",
                "must be ≥ 1",
            ));
        }
        Ok(())
    }

    /// Number of racks (last one possibly partial).
    pub fn racks(&self) -> usize {
        self.nodes.div_ceil(self.nodes_per_rack)
    }

    /// Number of PDUs (last one possibly partial).
    pub fn pdus(&self) -> usize {
        self.racks().div_ceil(self.racks_per_pdu)
    }

    /// Node indices housed in `rack` (clipped to the node count).
    pub fn rack_nodes(&self, rack: usize) -> std::ops::Range<usize> {
        let lo = (rack * self.nodes_per_rack).min(self.nodes);
        let hi = ((rack + 1) * self.nodes_per_rack).min(self.nodes);
        lo..hi
    }

    /// Node indices fed by `pdu` (clipped to the node count).
    pub fn pdu_nodes(&self, pdu: usize) -> std::ops::Range<usize> {
        let per_pdu = self.nodes_per_rack * self.racks_per_pdu;
        let lo = (pdu * per_pdu).min(self.nodes);
        let hi = ((pdu + 1) * per_pdu).min(self.nodes);
        lo..hi
    }

    /// Node indices in `domain`.
    pub fn domain_nodes(&self, domain: Domain) -> std::ops::Range<usize> {
        match domain {
            Domain::Rack(r) => self.rack_nodes(r),
            Domain::Pdu(p) => self.pdu_nodes(p),
            Domain::Cluster => 0..self.nodes,
        }
    }
}

/// A failure domain: one rack, one PDU, or the whole cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// One rack (index into `0..topology.racks()`).
    Rack(usize),
    /// One PDU (index into `0..topology.pdus()`).
    Pdu(usize),
    /// The entire cluster (power emergencies).
    Cluster,
}

/// What a correlated fault does to every node in its domain at once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DomainFaultKind {
    /// Fail-stop crash of every node in the domain (top-of-rack switch or
    /// rack controller death). Nodes keep drawing idle power until the
    /// health machinery declares them down.
    RackCrash,
    /// Power loss for every node in the domain: fail-stop *and* zero watts
    /// until repair (breaker trip — the node is dark, not wedged).
    PduLoss,
    /// The domain is unreachable for `duration_s` seconds, then resumes
    /// in place (spanning-tree reconvergence, link flap). Modeled as a
    /// correlated stall of every member.
    NetworkPartition {
        /// Partition length, seconds.
        duration_s: f64,
    },
    /// A facility-level budget emergency: the whole cluster must run under
    /// `cap_w` watts for `duration_s` seconds. No node fails; the
    /// controller's degradation ladder (DESIGN.md §16) absorbs the cut.
    PowerEmergency {
        /// Temporary cluster power cap, watts.
        cap_w: f64,
        /// Emergency length, seconds.
        duration_s: f64,
    },
}

impl DomainFaultKind {
    /// Stable event-stream name (trace event name / tally key).
    pub fn label(&self) -> &'static str {
        match self {
            DomainFaultKind::RackCrash => "fault.rack_crash",
            DomainFaultKind::PduLoss => "fault.pdu_loss",
            DomainFaultKind::NetworkPartition { .. } => "fault.partition",
            DomainFaultKind::PowerEmergency { .. } => "fault.power_emergency",
        }
    }
}

/// Fault behavior of one topology level: when its domains fail
/// ([`MtbfModel`], applied *per domain*) and what the failures do
/// (weighted [`DomainFaultKind`]s).
#[derive(Debug, Clone, PartialEq)]
pub struct DomainFaultProfile {
    /// Inter-arrival model for each domain at this level.
    pub mtbf: MtbfModel,
    /// Weighted fault kinds; each event draws one kind with probability
    /// proportional to its weight. Empty = crash-only.
    pub kinds: Vec<(f64, DomainFaultKind)>,
}

impl DomainFaultProfile {
    /// A level that never faults.
    pub fn none() -> Self {
        DomainFaultProfile {
            mtbf: MtbfModel::Disabled,
            kinds: Vec::new(),
        }
    }

    /// True when this level can never produce an event.
    pub fn is_inert(&self) -> bool {
        self.mtbf == MtbfModel::Disabled
    }

    /// Validate MTBF parameters, kind weights, and kind parameters.
    pub fn validate(&self) -> Result<(), EnpropError> {
        self.mtbf.validate()?;
        let mut total = 0.0;
        for (w, kind) in &self.kinds {
            if !w.is_finite() || *w < 0.0 {
                return Err(EnpropError::invalid_parameter(
                    "domain fault kind weight",
                    format!("must be finite and ≥ 0, got {w}"),
                ));
            }
            total += w;
            match kind {
                DomainFaultKind::RackCrash | DomainFaultKind::PduLoss => {}
                DomainFaultKind::NetworkPartition { duration_s } => {
                    if !duration_s.is_finite() || *duration_s <= 0.0 {
                        return Err(EnpropError::invalid_parameter(
                            "partition duration_s",
                            format!("must be finite and > 0, got {duration_s}"),
                        ));
                    }
                }
                DomainFaultKind::PowerEmergency { cap_w, duration_s } => {
                    if !cap_w.is_finite() || *cap_w <= 0.0 {
                        return Err(EnpropError::invalid_parameter(
                            "emergency cap_w",
                            format!("must be finite and > 0, got {cap_w}"),
                        ));
                    }
                    if !duration_s.is_finite() || *duration_s <= 0.0 {
                        return Err(EnpropError::invalid_parameter(
                            "emergency duration_s",
                            format!("must be finite and > 0, got {duration_s}"),
                        ));
                    }
                }
            }
        }
        if !self.kinds.is_empty() && total <= 0.0 {
            return Err(EnpropError::invalid_parameter(
                "domain fault kind weights",
                "at least one weight must be positive",
            ));
        }
        Ok(())
    }

    fn draw_kind(&self, rng: &mut FaultRng) -> DomainFaultKind {
        if self.kinds.is_empty() {
            return DomainFaultKind::RackCrash;
        }
        let total: f64 = self.kinds.iter().map(|(w, _)| w).sum();
        let mut x = rng.unit() * total;
        for (w, kind) in &self.kinds {
            x -= w;
            if x < 0.0 {
                return *kind;
            }
        }
        // Floating-point slack: the last positively-weighted kind.
        self.kinds
            .iter()
            .rev()
            .find(|(w, _)| *w > 0.0)
            .map_or(DomainFaultKind::RackCrash, |(_, k)| *k)
    }
}

/// One correlated fault hitting every node of one domain at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainEvent {
    /// Fault instant, seconds from the start of the sampling window.
    pub at_s: f64,
    /// The failing domain.
    pub domain: Domain,
    /// What the fault does to the domain.
    pub kind: DomainFaultKind,
}

/// A seeded, deterministic correlated-failure plan over a [`Topology`]:
/// one [`DomainFaultProfile`] per level (rack, PDU, cluster).
///
/// Sampling is keyed on `(plan.seed, run_seed, window, level, domain)` —
/// one RNG stream per domain, so a rack's failure times never depend on
/// how many other racks exist, and every member node of the domain shares
/// the single drawn instant by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyFaultPlan {
    /// Plan-level seed decorrelating whole experiments.
    pub seed: u64,
    /// The physical placement.
    pub topology: Topology,
    /// Rack-level failures (typically `RackCrash` / `NetworkPartition`).
    pub rack: DomainFaultProfile,
    /// PDU-level failures (typically `PduLoss`).
    pub pdu: DomainFaultProfile,
    /// Cluster-level events (typically `PowerEmergency`).
    pub cluster: DomainFaultProfile,
}

impl TopologyFaultPlan {
    /// The inert plan over a topology: no correlated faults anywhere.
    pub fn none(topology: Topology) -> Self {
        TopologyFaultPlan {
            seed: 0,
            topology,
            rack: DomainFaultProfile::none(),
            pdu: DomainFaultProfile::none(),
            cluster: DomainFaultProfile::none(),
        }
    }

    /// True when the plan can never produce an event.
    pub fn is_inert(&self) -> bool {
        self.rack.is_inert() && self.pdu.is_inert() && self.cluster.is_inert()
    }

    /// Validate the topology and every level profile.
    pub fn validate(&self) -> Result<(), EnpropError> {
        self.topology.validate()?;
        self.rack.validate()?;
        self.pdu.validate()?;
        self.cluster.validate()?;
        Ok(())
    }

    /// Sample every correlated event across all domains for sampling
    /// window `window` of the run identified by `run_seed`, over a window
    /// of `horizon_s` seconds. Deterministic in all arguments; events are
    /// returned ordered by `(at_s, level, domain)` so ties across domains
    /// resolve identically on every run.
    pub fn events_for_window(
        &self,
        run_seed: u64,
        window: u32,
        horizon_s: f64,
    ) -> Vec<DomainEvent> {
        if self.is_inert() || horizon_s <= 0.0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        if !self.rack.is_inert() {
            for r in 0..self.topology.racks() {
                self.sample_domain(
                    run_seed,
                    window,
                    RACK_TAG,
                    r,
                    Domain::Rack(r),
                    &self.rack,
                    horizon_s,
                    &mut out,
                );
            }
        }
        if !self.pdu.is_inert() {
            for p in 0..self.topology.pdus() {
                self.sample_domain(
                    run_seed,
                    window,
                    PDU_TAG,
                    p,
                    Domain::Pdu(p),
                    &self.pdu,
                    horizon_s,
                    &mut out,
                );
            }
        }
        if !self.cluster.is_inert() {
            self.sample_domain(
                run_seed,
                window,
                CLUSTER_TAG,
                0,
                Domain::Cluster,
                &self.cluster,
                horizon_s,
                &mut out,
            );
        }
        // Total order even under time ties: level tag then domain index.
        out.sort_by(|a, b| {
            a.at_s
                .total_cmp(&b.at_s)
                .then_with(|| domain_rank(a.domain).cmp(&domain_rank(b.domain)))
        });
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn sample_domain(
        &self,
        run_seed: u64,
        window: u32,
        tag: u64,
        index: usize,
        domain: Domain,
        profile: &DomainFaultProfile,
        horizon_s: f64,
        out: &mut Vec<DomainEvent>,
    ) {
        let mut rng =
            FaultRng::from_key(&[self.seed, run_seed, u64::from(window), tag, index as u64]);
        let times = profile.mtbf.sample_times(&mut rng, horizon_s);
        for at_s in times.into_iter().take(MAX_EVENTS_PER_DOMAIN) {
            out.push(DomainEvent {
                at_s,
                domain,
                kind: profile.draw_kind(&mut rng),
            });
        }
    }
}

/// Tie-break rank: (level, index) as a single sortable pair.
fn domain_rank(d: Domain) -> (u8, usize) {
    match d {
        Domain::Rack(r) => (0, r),
        Domain::Pdu(p) => (1, p),
        Domain::Cluster => (2, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::new(8, 4, 2).unwrap()
    }

    #[test]
    fn placement_arithmetic_packs_in_index_order() {
        let t = topo();
        assert_eq!(t.racks(), 2);
        assert_eq!(t.pdus(), 1);
        assert_eq!(t.rack_nodes(0), 0..4);
        assert_eq!(t.rack_nodes(1), 4..8);
        assert_eq!(t.pdu_nodes(0), 0..8);
        assert_eq!(t.domain_nodes(Domain::Cluster), 0..8);
    }

    #[test]
    fn partial_last_rack_is_clipped() {
        let t = Topology::new(10, 4, 2).unwrap();
        assert_eq!(t.racks(), 3);
        assert_eq!(t.pdus(), 2);
        assert_eq!(t.rack_nodes(2), 8..10);
        assert_eq!(t.pdu_nodes(1), 8..10);
    }

    #[test]
    fn degenerate_shapes_are_rejected() {
        assert!(Topology::new(0, 4, 2).is_err());
        assert!(Topology::new(4, 0, 2).is_err());
        assert!(Topology::new(4, 4, 0).is_err());
    }

    fn rack_crash_plan(mtbf_s: f64) -> TopologyFaultPlan {
        TopologyFaultPlan {
            seed: 11,
            topology: topo(),
            rack: DomainFaultProfile {
                mtbf: MtbfModel::Exponential { mtbf_s },
                kinds: vec![(1.0, DomainFaultKind::RackCrash)],
            },
            pdu: DomainFaultProfile::none(),
            cluster: DomainFaultProfile {
                mtbf: MtbfModel::Exponential {
                    mtbf_s: mtbf_s * 4.0,
                },
                kinds: vec![(
                    1.0,
                    DomainFaultKind::PowerEmergency {
                        cap_w: 80.0,
                        duration_s: 20.0,
                    },
                )],
            },
        }
    }

    #[test]
    fn inert_plans_yield_no_events() {
        let plan = TopologyFaultPlan::none(topo());
        assert!(plan.is_inert());
        assert!(plan.events_for_window(3, 0, 1e6).is_empty());
    }

    #[test]
    fn sampling_is_deterministic_and_keyed() {
        let plan = rack_crash_plan(40.0);
        let a = plan.events_for_window(7, 0, 1000.0);
        let b = plan.events_for_window(7, 0, 1000.0);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert_ne!(
            a,
            plan.events_for_window(8, 0, 1000.0),
            "run seed decorrelates"
        );
        assert_ne!(
            a,
            plan.events_for_window(7, 1, 1000.0),
            "window decorrelates"
        );
    }

    #[test]
    fn events_are_time_ordered_and_within_horizon() {
        let plan = rack_crash_plan(25.0);
        let events = plan.events_for_window(1, 0, 500.0);
        for w in events.windows(2) {
            assert!(w[0].at_s <= w[1].at_s);
        }
        for e in &events {
            assert!(e.at_s >= 0.0 && e.at_s < 500.0);
        }
    }

    #[test]
    fn every_domain_member_is_hit_atomically() {
        // Structural: a DomainEvent carries the whole domain, so "all
        // members at one instant" holds by construction — pin that the
        // domain expansion covers exactly the rack.
        let plan = rack_crash_plan(30.0);
        let events = plan.events_for_window(2, 0, 2000.0);
        let rack_events: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.domain, Domain::Rack(_)))
            .collect();
        assert!(!rack_events.is_empty());
        for e in rack_events {
            let members = plan.topology.domain_nodes(e.domain);
            assert_eq!(members.len(), 4, "full rack hit as one unit");
        }
    }

    #[test]
    fn validation_rejects_bad_kind_parameters() {
        let mut plan = rack_crash_plan(40.0);
        plan.cluster.kinds = vec![(
            1.0,
            DomainFaultKind::PowerEmergency {
                cap_w: 0.0,
                duration_s: 5.0,
            },
        )];
        assert!(plan.validate().is_err());
        plan.cluster.kinds = vec![(
            1.0,
            DomainFaultKind::PowerEmergency {
                cap_w: 50.0,
                duration_s: 0.0,
            },
        )];
        assert!(plan.validate().is_err());
        plan.rack.kinds = vec![(1.0, DomainFaultKind::NetworkPartition { duration_s: -1.0 })];
        assert!(plan.validate().is_err());
        assert!(rack_crash_plan(40.0).validate().is_ok());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(DomainFaultKind::RackCrash.label(), "fault.rack_crash");
        assert_eq!(DomainFaultKind::PduLoss.label(), "fault.pdu_loss");
        assert_eq!(
            DomainFaultKind::NetworkPartition { duration_s: 1.0 }.label(),
            "fault.partition"
        );
        assert_eq!(
            DomainFaultKind::PowerEmergency {
                cap_w: 1.0,
                duration_s: 1.0
            }
            .label(),
            "fault.power_emergency"
        );
    }
}
