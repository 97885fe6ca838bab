//! Deterministic fault-injection plans: per-group MTBF models and weighted
//! fault kinds, sampled into per-(job, attempt, group, node) event lists.

use crate::error::EnpropError;
use crate::rng::FaultRng;

/// What happens to a node when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fail-stop crash: the node dies at the fault instant; work it had not
    /// completed must be re-dispatched to survivors. The node keeps drawing
    /// idle power (fail-stop, not power-off).
    Crash,
    /// Transient stall: the node freezes for `duration_s` seconds, then
    /// resumes where it left off (e.g. a GC pause or kernel hiccup).
    Stall {
        /// Stall length, seconds.
        duration_s: f64,
    },
    /// Straggler: the node's remaining execution runs `slowdown`× slower
    /// (e.g. a thermally throttled or noisy-neighbor node). Must be > 1.
    Straggler {
        /// Multiplicative slowdown factor (> 1).
        slowdown: f64,
    },
}

impl FaultKind {
    /// Stable event-stream name for this fault kind (used as the trace
    /// event name and aggregate counter key by instrumented runs).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Crash => "fault.crash",
            FaultKind::Stall { .. } => "fault.stall",
            FaultKind::Straggler { .. } => "fault.straggler",
        }
    }
}

/// When faults fire on a node: the inter-arrival (MTBF) model.
#[derive(Debug, Clone, PartialEq)]
pub enum MtbfModel {
    /// No faults on this group.
    Disabled,
    /// Memoryless failures with the given mean time between failures.
    Exponential {
        /// Mean time between failures, seconds.
        mtbf_s: f64,
    },
    /// Weibull inter-arrival times `t = scale·(−ln(1−u))^(1/shape)`:
    /// `shape < 1` models infant mortality, `shape > 1` wear-out.
    Weibull {
        /// Scale parameter, seconds.
        scale_s: f64,
        /// Shape parameter (dimensionless, > 0).
        shape: f64,
    },
    /// Faults at fixed absolute times (seconds from job start) — for
    /// reproducible targeted experiments and tests.
    Schedule(Vec<f64>),
}

impl MtbfModel {
    /// Validate the model's parameters.
    pub fn validate(&self) -> Result<(), EnpropError> {
        match self {
            MtbfModel::Disabled => Ok(()),
            MtbfModel::Exponential { mtbf_s } => {
                if !mtbf_s.is_finite() || *mtbf_s <= 0.0 {
                    return Err(EnpropError::invalid_parameter(
                        "mtbf_s",
                        format!("must be finite and > 0, got {mtbf_s}"),
                    ));
                }
                Ok(())
            }
            MtbfModel::Weibull { scale_s, shape } => {
                if !scale_s.is_finite() || *scale_s <= 0.0 {
                    return Err(EnpropError::invalid_parameter(
                        "scale_s",
                        format!("must be finite and > 0, got {scale_s}"),
                    ));
                }
                if !shape.is_finite() || *shape <= 0.0 {
                    return Err(EnpropError::invalid_parameter(
                        "shape",
                        format!("must be finite and > 0, got {shape}"),
                    ));
                }
                Ok(())
            }
            MtbfModel::Schedule(times) => {
                for &t in times {
                    if !t.is_finite() || t < 0.0 {
                        return Err(EnpropError::invalid_parameter(
                            "schedule",
                            format!("fault times must be finite and ≥ 0, got {t}"),
                        ));
                    }
                }
                Ok(())
            }
        }
    }

    /// Sample the fault *times* within `[0, horizon_s)` for one node (or,
    /// for the topology plan, one failure domain — racks and PDUs fail on
    /// the same inter-arrival machinery nodes do).
    pub(crate) fn sample_times(&self, rng: &mut FaultRng, horizon_s: f64) -> Vec<f64> {
        match self {
            MtbfModel::Disabled => Vec::new(),
            MtbfModel::Exponential { mtbf_s } => {
                let mut times = Vec::new();
                let mut t = 0.0;
                loop {
                    t += -mtbf_s * (1.0 - rng.unit()).ln();
                    if t >= horizon_s || times.len() >= MAX_EVENTS_PER_NODE {
                        break;
                    }
                    times.push(t);
                }
                times
            }
            MtbfModel::Weibull { scale_s, shape } => {
                let mut times = Vec::new();
                let mut t = 0.0;
                loop {
                    t += scale_s * (-(1.0 - rng.unit()).ln()).powf(1.0 / shape);
                    if t >= horizon_s || times.len() >= MAX_EVENTS_PER_NODE {
                        break;
                    }
                    times.push(t);
                }
                times
            }
            MtbfModel::Schedule(times) => {
                let mut within: Vec<f64> =
                    times.iter().copied().filter(|&t| t < horizon_s).collect();
                within.sort_by(f64::total_cmp);
                within
            }
        }
    }
}

/// Safety valve: a pathological MTBF (e.g. nanoseconds against an
/// hours-long job) must not allocate unbounded event lists.
const MAX_EVENTS_PER_NODE: usize = 64;

/// Fault behavior of one node group: when faults fire ([`MtbfModel`]) and
/// what they do (weighted [`FaultKind`]s).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupFaultProfile {
    /// Inter-arrival model for this group's nodes.
    pub mtbf: MtbfModel,
    /// Weighted fault kinds; each event draws one kind with probability
    /// proportional to its weight. Empty = crash-only.
    pub kinds: Vec<(f64, FaultKind)>,
}

impl GroupFaultProfile {
    /// Validate MTBF parameters, kind weights, and kind parameters.
    pub fn validate(&self) -> Result<(), EnpropError> {
        self.mtbf.validate()?;
        check_weights(
            &self.kinds,
            ("fault kind weight", "fault kind weights"),
            |kind| match kind {
                FaultKind::Crash => Ok(()),
                FaultKind::Stall { duration_s } => {
                    if !duration_s.is_finite() || *duration_s < 0.0 {
                        return Err(EnpropError::invalid_parameter(
                            "stall duration_s",
                            format!("must be finite and ≥ 0, got {duration_s}"),
                        ));
                    }
                    Ok(())
                }
                FaultKind::Straggler { slowdown } => {
                    if !slowdown.is_finite() || *slowdown < 1.0 {
                        return Err(EnpropError::invalid_parameter(
                            "straggler slowdown",
                            format!("must be finite and ≥ 1, got {slowdown}"),
                        ));
                    }
                    Ok(())
                }
            },
        )
    }

    fn is_inert(&self) -> bool {
        self.mtbf == MtbfModel::Disabled
    }
}

/// Check a weighted kind list in order: each weight finite and ≥ 0, then
/// `check` on its kind's own parameters; and, when the list is not empty,
/// at least one weight positive. `names` are the singular and plural
/// parameter names the errors report.
pub(crate) fn check_weights<K>(
    kinds: &[(f64, K)],
    names: (&'static str, &'static str),
    mut check: impl FnMut(&K) -> Result<(), EnpropError>,
) -> Result<(), EnpropError> {
    let mut total = 0.0;
    for (w, kind) in kinds {
        if !w.is_finite() || *w < 0.0 {
            return Err(EnpropError::invalid_parameter(
                names.0,
                format!("must be finite and ≥ 0, got {w}"),
            ));
        }
        total += w;
        check(kind)?;
    }
    if !kinds.is_empty() && total <= 0.0 {
        return Err(EnpropError::invalid_parameter(
            names.1,
            "at least one weight must be positive",
        ));
    }
    Ok(())
}

/// Draw one kind with probability proportional to its weight; `empty` when
/// the list is empty.
pub(crate) fn draw_weighted<K: Copy>(kinds: &[(f64, K)], empty: K, rng: &mut FaultRng) -> K {
    if kinds.is_empty() {
        return empty;
    }
    let total: f64 = kinds.iter().map(|(w, _)| w).sum();
    let mut x = rng.unit() * total;
    for (w, kind) in kinds {
        x -= w;
        if x < 0.0 {
            return *kind;
        }
    }
    // Floating-point slack: the last positively-weighted kind.
    kinds
        .iter()
        .rev()
        .find(|(w, _)| *w > 0.0)
        .map_or(empty, |(_, k)| *k)
}

/// One injected fault on one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Fault instant, seconds from the start of the attempt.
    pub at_s: f64,
    /// What the fault does.
    pub kind: FaultKind,
}

/// A seeded, deterministic fault-injection plan for a whole cluster: one
/// [`GroupFaultProfile`] per node group (by group index).
///
/// Sampling is keyed on `(plan.seed, job_seed, attempt, group, node)`, so
/// the same plan replayed against the same job yields the same faults —
/// and each retry attempt of a job sees fresh, independent draws (except
/// [`MtbfModel::Schedule`], which is attempt-invariant by design).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Plan-level seed decorrelating whole experiments.
    pub seed: u64,
    /// Per-group fault behavior, indexed like `ClusterSpec::groups`.
    /// Groups beyond this list never fault.
    pub groups: Vec<GroupFaultProfile>,
}

impl FaultPlan {
    /// The inert plan: no faults anywhere. Running a job under it is
    /// bit-identical to running without a plan.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            groups: Vec::new(),
        }
    }

    /// A plan applying the same profile to every group (the common
    /// homogeneous-failure study).
    pub fn uniform(seed: u64, profile: GroupFaultProfile, group_count: usize) -> Self {
        FaultPlan {
            seed,
            groups: vec![profile; group_count],
        }
    }

    /// True when the plan can never produce a fault.
    pub fn is_inert(&self) -> bool {
        self.groups.iter().all(GroupFaultProfile::is_inert)
    }

    /// Validate every group profile.
    pub fn validate(&self) -> Result<(), EnpropError> {
        for g in &self.groups {
            g.validate()?;
        }
        Ok(())
    }

    /// Sample the fault events hitting node `(group, node)` during attempt
    /// `attempt` of the job identified by `job_seed`, over a window of
    /// `horizon_s` seconds. Deterministic in all arguments. Events are
    /// returned in time order.
    ///
    /// [`MtbfModel::Schedule`] ignores `attempt` (the schedule recurs every
    /// attempt); random models draw fresh per attempt.
    pub fn events_for_node(
        &self,
        job_seed: u64,
        attempt: u32,
        group: usize,
        node: u32,
        horizon_s: f64,
    ) -> Vec<FaultEvent> {
        let Some(profile) = self.groups.get(group) else {
            return Vec::new();
        };
        if profile.is_inert() || horizon_s <= 0.0 {
            return Vec::new();
        }
        let mut rng = FaultRng::from_key(&[
            self.seed,
            job_seed,
            attempt as u64,
            group as u64,
            node as u64,
        ]);
        profile
            .mtbf
            .sample_times(&mut rng, horizon_s)
            .into_iter()
            .map(|at_s| FaultEvent {
                at_s,
                kind: draw_weighted(&profile.kinds, FaultKind::Crash, &mut rng),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_kind_labels_are_stable() {
        assert_eq!(FaultKind::Crash.label(), "fault.crash");
        assert_eq!(FaultKind::Stall { duration_s: 1.0 }.label(), "fault.stall");
        assert_eq!(
            FaultKind::Straggler { slowdown: 2.0 }.label(),
            "fault.straggler"
        );
    }

    /// Crash-only faults with the given MTBF model.
    fn crashes(mtbf: MtbfModel) -> GroupFaultProfile {
        GroupFaultProfile {
            mtbf,
            kinds: vec![(1.0, FaultKind::Crash)],
        }
    }

    fn crash_plan(mtbf_s: f64) -> FaultPlan {
        FaultPlan::uniform(1, crashes(MtbfModel::Exponential { mtbf_s }), 2)
    }

    #[test]
    fn inert_plans_yield_no_events() {
        let plan = FaultPlan::none();
        assert!(plan.is_inert());
        assert!(plan.events_for_node(3, 0, 0, 0, 1e9).is_empty());

        let never = GroupFaultProfile {
            mtbf: MtbfModel::Disabled,
            kinds: Vec::new(),
        };
        let disabled = FaultPlan::uniform(9, never, 4);
        assert!(disabled.is_inert());
        assert!(disabled.events_for_node(3, 0, 2, 1, 1e9).is_empty());
    }

    #[test]
    fn sampling_is_deterministic_and_keyed() {
        let plan = crash_plan(50.0);
        let a = plan.events_for_node(7, 0, 1, 3, 1000.0);
        let b = plan.events_for_node(7, 0, 1, 3, 1000.0);
        assert_eq!(a, b);
        // Different node, attempt, or job ⇒ different stream.
        assert_ne!(a, plan.events_for_node(7, 0, 1, 4, 1000.0));
        assert_ne!(a, plan.events_for_node(7, 1, 1, 3, 1000.0));
        assert_ne!(a, plan.events_for_node(8, 0, 1, 3, 1000.0));
    }

    #[test]
    fn exponential_rate_is_roughly_one_over_mtbf() {
        let plan = crash_plan(100.0);
        let horizon = 10_000.0;
        let mut count = 0usize;
        for node in 0..50u32 {
            count += plan.events_for_node(0, 0, 0, node, horizon).len();
        }
        // 50 nodes × 10 000 s / 100 s MTBF = 5 000 expected events, but the
        // per-node cap (64) truncates at 100/node → expect exactly the cap
        // dominating. Use a gentler horizon instead.
        let _ = count;
        let mut gentle = 0usize;
        for node in 0..200u32 {
            gentle += plan.events_for_node(0, 0, 0, node, 1000.0).len();
        }
        let expected = 200.0 * 1000.0 / 100.0;
        let rel = (gentle as f64 - expected).abs() / expected;
        assert!(rel < 0.1, "got {gentle} events, expected ≈{expected}");
    }

    #[test]
    fn weibull_shape_one_matches_exponential_mean() {
        let w = FaultPlan::uniform(
            3,
            crashes(MtbfModel::Weibull {
                scale_s: 100.0,
                shape: 1.0,
            }),
            1,
        );
        let mut count = 0usize;
        for node in 0..200u32 {
            count += w.events_for_node(0, 0, 0, node, 1000.0).len();
        }
        let expected = 200.0 * 1000.0 / 100.0;
        let rel = (count as f64 - expected).abs() / expected;
        assert!(rel < 0.1, "got {count} events, expected ≈{expected}");
    }

    #[test]
    fn schedule_is_attempt_invariant_and_horizon_clipped() {
        let plan = FaultPlan::uniform(
            5,
            GroupFaultProfile {
                mtbf: MtbfModel::Schedule(vec![30.0, 10.0, 99.0]),
                kinds: vec![(1.0, FaultKind::Crash)],
            },
            1,
        );
        let a0 = plan.events_for_node(1, 0, 0, 0, 50.0);
        let a1 = plan.events_for_node(1, 7, 0, 0, 50.0);
        assert_eq!(
            a0.iter().map(|e| e.at_s).collect::<Vec<_>>(),
            vec![10.0, 30.0]
        );
        assert_eq!(
            a0.iter().map(|e| e.at_s).collect::<Vec<_>>(),
            a1.iter().map(|e| e.at_s).collect::<Vec<_>>(),
            "schedules recur identically every attempt"
        );
    }

    #[test]
    fn kind_weights_are_respected() {
        let plan = FaultPlan::uniform(
            11,
            GroupFaultProfile {
                mtbf: MtbfModel::Exponential { mtbf_s: 10.0 },
                kinds: vec![
                    (0.0, FaultKind::Crash),
                    (1.0, FaultKind::Stall { duration_s: 5.0 }),
                ],
            },
            1,
        );
        for node in 0..20u32 {
            for e in plan.events_for_node(0, 0, 0, node, 200.0) {
                assert_eq!(e.kind, FaultKind::Stall { duration_s: 5.0 });
            }
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(MtbfModel::Exponential { mtbf_s: 0.0 }.validate().is_err());
        assert!(MtbfModel::Weibull {
            scale_s: 10.0,
            shape: -1.0
        }
        .validate()
        .is_err());
        assert!(MtbfModel::Schedule(vec![-3.0]).validate().is_err());
        let bad_kind = GroupFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s: 5.0 },
            kinds: vec![(1.0, FaultKind::Straggler { slowdown: 0.5 })],
        };
        assert!(bad_kind.validate().is_err());
        let zero_weights = GroupFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s: 5.0 },
            kinds: vec![(0.0, FaultKind::Crash)],
        };
        assert!(zero_weights.validate().is_err());
        assert!(crash_plan(10.0).validate().is_ok());
    }

    #[test]
    fn pathological_mtbf_is_capped_not_unbounded() {
        let plan = crash_plan(1e-9);
        let events = plan.events_for_node(0, 0, 0, 0, 3600.0);
        assert_eq!(events.len(), MAX_EVENTS_PER_NODE);
    }
}
