#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! Property-based tests for [`TopologyFaultPlan`] correlated sampling:
//! a fixed seed must yield the identical domain-event sequence across
//! repeated calls, and the sequence must not depend on how many OS
//! threads sample it concurrently (the serve controller replays domain
//! windows inside runs that users parallelize with `--threads`, so any
//! thread-sensitivity here would break the bit-identical replay
//! contract).

use enprop_faults::{DomainFaultKind, DomainFaultProfile, MtbfModel, Topology, TopologyFaultPlan};
use proptest::prelude::*;

/// A valid, non-inert plan over a small random topology.
fn plan() -> impl Strategy<Value = TopologyFaultPlan> {
    (
        (
            0u64..u64::MAX, // plan seed
            2usize..24,     // nodes
            1usize..6,      // nodes_per_rack
            1usize..4,      // racks_per_pdu
        ),
        (
            5.0f64..120.0,  // rack mtbf
            10.0f64..240.0, // pdu mtbf
            20.0f64..400.0, // cluster mtbf
        ),
        (
            10.0f64..200.0, // emergency cap_w
            1.0f64..60.0,   // emergency duration
        ),
    )
        .prop_map(
            |((seed, nodes, npr, rpp), (rack_mtbf, pdu_mtbf, clu_mtbf), (cap_w, dur))| {
                TopologyFaultPlan {
                    seed,
                    topology: Topology::new(nodes, npr, rpp).unwrap(),
                    rack: DomainFaultProfile {
                        mtbf: MtbfModel::Exponential { mtbf_s: rack_mtbf },
                        kinds: vec![
                            (3.0, DomainFaultKind::RackCrash),
                            (1.0, DomainFaultKind::NetworkPartition { duration_s: dur }),
                        ],
                    },
                    pdu: DomainFaultProfile {
                        mtbf: MtbfModel::Exponential { mtbf_s: pdu_mtbf },
                        kinds: vec![(1.0, DomainFaultKind::PduLoss)],
                    },
                    cluster: DomainFaultProfile {
                        mtbf: MtbfModel::Exponential { mtbf_s: clu_mtbf },
                        kinds: vec![(
                            1.0,
                            DomainFaultKind::PowerEmergency {
                                cap_w,
                                duration_s: dur,
                            },
                        )],
                    },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same (plan, run seed, window, horizon) ⇒ bit-identical event list,
    /// call after call.
    #[test]
    fn fixed_seed_repeats_exactly(p in plan(), run_seed in 0u64..u64::MAX, window in 0u32..16) {
        prop_assert!(p.validate().is_ok());
        let a = p.events_for_window(run_seed, window, 600.0);
        let b = p.events_for_window(run_seed, window, 600.0);
        prop_assert_eq!(a, b);
    }

    /// Sampling from many concurrent threads — any thread count, any
    /// interleaving — agrees with the sequential answer. The sampler owns
    /// all of its state (per-domain keyed `FaultRng`s), so this is the
    /// `--threads`-independence pin for every pool size the CLI accepts.
    #[test]
    fn sampling_is_thread_count_independent(p in plan(), run_seed in 0u64..u64::MAX, threads in 1usize..9) {
        let sequential = p.events_for_window(run_seed, 0, 600.0);
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let p = &p;
                    scope.spawn(move || p.events_for_window(run_seed, 0, 600.0))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in results {
            prop_assert_eq!(&r, &sequential);
        }
    }

    /// Events stay ordered and inside the sampling horizon, and each
    /// domain index is valid for the topology.
    #[test]
    fn events_are_ordered_in_horizon_and_in_bounds(p in plan(), run_seed in 0u64..u64::MAX) {
        let events = p.events_for_window(run_seed, 3, 300.0);
        for w in events.windows(2) {
            prop_assert!(w[0].at_s <= w[1].at_s);
        }
        for e in &events {
            prop_assert!(e.at_s >= 0.0 && e.at_s < 300.0);
            let members = p.topology.domain_nodes(e.domain);
            prop_assert!(!members.is_empty(), "domain expands to at least one node");
            prop_assert!(members.end <= p.topology.nodes);
        }
    }

    /// Every window draws an independent stream: across a spread of
    /// windows at a hot rack MTBF, at least two windows must disagree
    /// (probability of collision across 8 windows is astronomically low).
    #[test]
    fn windows_decorrelate(p in plan(), run_seed in 0u64..u64::MAX) {
        let seqs: Vec<_> = (0..8u32).map(|w| p.events_for_window(run_seed, w, 600.0)).collect();
        let nonempty = seqs.iter().filter(|s| !s.is_empty()).count();
        if nonempty >= 2 {
            let first = &seqs[0];
            prop_assert!(seqs.iter().any(|s| s != first), "windows must not repeat the same stream");
        }
    }
}
