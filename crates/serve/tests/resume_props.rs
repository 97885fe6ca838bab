#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! Checkpoint/resume property tests (DESIGN.md §16): a serving run killed
//! at *any* event and resumed from its last crash-consistent snapshot
//! must be indistinguishable from the uninterrupted run —
//!
//! - **report identity**: the resumed run's [`enprop_serve::ServeReport`]
//!   is bit-for-bit the uninterrupted run's (joule-for-joule energy,
//!   identical counters and quantiles);
//! - **event identity**: the resumed run's telemetry stream is exactly
//!   the uninterrupted stream's suffix from the resume point on;
//! - **snapshot identity**: every checkpoint the killed run wrote equals
//!   the uninterrupted run's checkpoint of the same index — a snapshot
//!   never depends on the run's future.
//!
//! The scenarios layer correlated domain faults (rack crashes, PDU
//! losses, partitions, power emergencies) on top of per-node chaos, so
//! the snapshot round-trips the full §16 state surface: breakers,
//! emergency ladder, unpowered nodes and the domain event stream.

use enprop_clustersim::ClusterSpec;
use enprop_faults::{
    DomainFaultKind, DomainFaultProfile, EnpropError, FaultKind, FaultPlan, GroupFaultProfile,
    MtbfModel, Topology, TopologyFaultPlan,
};
use enprop_obs::{Line, MemoryRecorder, NoopRecorder};
use enprop_serve::{
    ArrivalModel, ArrivalSource, Controller, RunHooks, RunOutcome, ServeConfig, ServeReport,
    SyntheticArrivals, SNAPSHOT_VERSION,
};
use enprop_workloads::{catalog, Workload};
use proptest::prelude::*;

struct Scenario {
    workload: Workload,
    cluster: ClusterSpec,
    plan: FaultPlan,
    topo: TopologyFaultPlan,
    cfg: ServeConfig,
    requests: u64,
}

fn scenario(seed: u64, a9: u32, requests: u64, rack_mtbf_s: f64, em_cap_w: f64) -> Scenario {
    let workload = catalog::by_name("EP").unwrap();
    let cluster = ClusterSpec::a9_k10(a9, 1);
    let profile = GroupFaultProfile {
        mtbf: MtbfModel::Exponential { mtbf_s: 15.0 },
        kinds: vec![
            (1.0, FaultKind::Crash),
            (1.0, FaultKind::Stall { duration_s: 1.0 }),
            (1.0, FaultKind::Straggler { slowdown: 3.0 }),
        ],
    };
    let plan = FaultPlan::uniform(seed, profile, cluster.groups.len());
    let n_nodes: usize = cluster.groups.iter().map(|g| g.count as usize).sum();
    let topo = TopologyFaultPlan {
        seed,
        topology: Topology::new(n_nodes, 2, 2).unwrap(),
        rack: DomainFaultProfile {
            mtbf: MtbfModel::Exponential {
                mtbf_s: rack_mtbf_s,
            },
            kinds: vec![
                (1.0, DomainFaultKind::RackCrash),
                (1.0, DomainFaultKind::NetworkPartition { duration_s: 2.0 }),
            ],
        },
        pdu: DomainFaultProfile {
            mtbf: MtbfModel::Exponential {
                mtbf_s: rack_mtbf_s * 2.0,
            },
            kinds: vec![(1.0, DomainFaultKind::PduLoss)],
        },
        cluster: DomainFaultProfile {
            mtbf: MtbfModel::Exponential {
                mtbf_s: rack_mtbf_s,
            },
            kinds: vec![(
                1.0,
                DomainFaultKind::PowerEmergency {
                    cap_w: em_cap_w,
                    duration_s: 8.0,
                },
            )],
        },
    };
    let mut cfg = ServeConfig::new(seed);
    cfg.repair_s = 5.0;
    cfg.breaker_failures = 3; // aggressive: make breakers trip in-scenario
    cfg.breaker_open_s = 2.0;
    cfg.max_pending = 64; // small: exercise backpressure shedding
    cfg.obs_window_s = 0.25; // frequent window closes → many checkpoints per run
    Scenario {
        workload,
        cluster,
        plan,
        topo,
        cfg,
        requests,
    }
}

fn source_for(s: &Scenario) -> ArrivalSource {
    let ops = enprop_serve::default_ops_per_request(&s.workload, &s.cluster).unwrap();
    let rate = 0.9 * enprop_serve::cluster_capacity_ops_s(&s.workload, &s.cluster).unwrap() / ops;
    ArrivalSource::Synthetic(
        SyntheticArrivals::new(
            ArrivalModel::Poisson { rate },
            s.requests,
            ops,
            0.3,
            s.cfg.seed,
        )
        .unwrap()
        .with_best_effort(0.4)
        .unwrap(),
    )
}

struct Run {
    outcome: RunOutcome,
    rec: MemoryRecorder,
    checkpoints: Vec<String>,
}

fn run(s: &Scenario, kill_after_events: Option<u64>) -> Run {
    let mut source = source_for(s);
    let mut rec = MemoryRecorder::new();
    let mut checkpoints: Vec<String> = Vec::new();
    let mut sink = |snap: &str| checkpoints.push(snap.to_string());
    let mut hooks = RunHooks {
        live: &mut |_| {},
        checkpoint: Some(&mut sink),
        kill_after_events,
    };
    let outcome = Controller::run_full(
        &s.workload,
        &s.cluster,
        &s.plan,
        Some(&s.topo),
        &s.cfg,
        &mut source,
        &mut rec,
        &mut hooks,
    )
    .expect("a valid scenario must not error");
    Run {
        outcome,
        rec,
        checkpoints,
    }
}

/// Resume `snapshot` to the end: the report, the telemetry and the
/// checkpoints the resumed run wrote.
fn resume(s: &Scenario, snapshot: &str) -> (ServeReport, MemoryRecorder, Vec<String>) {
    let mut source = source_for(s);
    let mut rec = MemoryRecorder::new();
    let mut checkpoints: Vec<String> = Vec::new();
    let mut sink = |snap: &str| checkpoints.push(snap.to_string());
    let mut hooks = RunHooks {
        live: &mut |_| {},
        checkpoint: Some(&mut sink),
        kill_after_events: None,
    };
    let outcome = Controller::resume_full(
        &s.workload,
        &s.cluster,
        &s.plan,
        Some(&s.topo),
        &s.cfg,
        &mut source,
        &mut rec,
        snapshot,
        &mut hooks,
    )
    .expect("resume from a good snapshot must not error");
    match outcome {
        RunOutcome::Completed(r) => (*r, rec, checkpoints),
        RunOutcome::Killed { .. } => panic!("no kill hook installed"),
    }
}

/// `ServeReport` equality through Debug text: identical runs can both
/// report `NaN` quantiles (nothing completed in a window), which `==`
/// would reject. Shortest-roundtrip float formatting keeps this
/// bit-exact for every non-NaN value.
fn same_report(a: &ServeReport, b: &ServeReport) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Kill at any event, resume from the last checkpoint: the combined
    /// run is event-for-event and joule-for-joule the uninterrupted run.
    #[test]
    fn kill_anywhere_resume_is_identical(
        seed in 0u64..10_000,
        a9 in 1u32..4,
        requests in 150u64..500,
        rack_mtbf_s in 8.0f64..40.0,
        em_cap_w in 20.0f64..200.0,
        kill_frac in 0.05f64..0.95,
    ) {
        let s = scenario(seed, a9, requests, rack_mtbf_s, em_cap_w);

        // The uninterrupted reference run.
        let full = run(&s, None);
        let RunOutcome::Completed(report_a) = &full.outcome else {
            panic!("uninterrupted run must complete");
        };
        prop_assert!(report_a.conservation_ok(), "{}", report_a.conservation_line());
        prop_assume!(!full.checkpoints.is_empty()); // needs ≥ 1 window close

        // Kill the same scenario mid-flight.
        let kill_at = 1 + (kill_frac * report_a.events as f64) as u64;
        let killed = run(&s, Some(kill_at));
        let RunOutcome::Killed { events, .. } = killed.outcome else {
            // The kill landed past the natural end; nothing to resume.
            return Ok(());
        };
        prop_assert!(events >= kill_at);
        prop_assume!(!killed.checkpoints.is_empty());

        // Snapshot identity: everything the killed run checkpointed is
        // what the uninterrupted run checkpointed at the same index.
        prop_assert!(killed.checkpoints.len() <= full.checkpoints.len());
        for (i, (k, f)) in killed.checkpoints.iter().zip(&full.checkpoints).enumerate() {
            prop_assert_eq!(k, f, "checkpoint {} diverged", i);
        }

        // Resume from the killed run's last checkpoint.
        let snap = killed.checkpoints.last().unwrap();
        let (report_r, rec_r, ckpt_r) = resume(&s, snap);
        prop_assert!(
            same_report(report_a, &report_r),
            "resumed report diverged:\n  full   {report_a:?}\n  resume {report_r:?}"
        );
        prop_assert_eq!(report_a.energy_j.to_bits(), report_r.energy_j.to_bits());

        // The resumed run's checkpoints are the uninterrupted run's from
        // the same index on.
        prop_assert!(ckpt_r[..] == full.checkpoints[killed.checkpoints.len()..]);

        // Event identity: the resumed telemetry is exactly the tail of
        // the uninterrupted stream.
        let full_events = full.rec.events();
        let resumed_events = rec_r.events();
        prop_assert!(resumed_events.len() <= full_events.len());
        prop_assert_eq!(
            &full_events[full_events.len() - resumed_events.len()..],
            resumed_events
        );

        // And resuming twice is deterministic.
        let (report_r2, rec_r2, _) = resume(&s, snap);
        prop_assert!(same_report(&report_r, &report_r2));
        prop_assert_eq!(rec_r.events(), rec_r2.events());
    }
}

/// A snapshot cut off mid-write (any prefix that loses the trailer) is a
/// typed configuration error — exit 2, never a silently-divergent resume.
#[test]
fn truncated_snapshot_is_a_typed_error() {
    let s = scenario(7, 2, 200, 10.0, 60.0);
    let full = run(&s, None);
    assert!(matches!(full.outcome, RunOutcome::Completed(_)));
    let snap = full.checkpoints.first().expect("at least one checkpoint");

    // Shear off the trailer and half a line.
    let cut = &snap[..snap.len() - snap.lines().last().unwrap().len() - 10];
    let mut source = source_for(&s);
    let mut rec = MemoryRecorder::new();
    let mut hooks = RunHooks {
        live: &mut |_| {},
        checkpoint: None,
        kill_after_events: None,
    };
    let err = Controller::resume_full(
        &s.workload,
        &s.cluster,
        &s.plan,
        Some(&s.topo),
        &s.cfg,
        &mut source,
        &mut rec,
        cut,
        &mut hooks,
    )
    .expect_err("truncated snapshot must not resume");
    assert_eq!(err.exit_code(), 2, "InvalidConfig → exit 2: {err}");
    let msg = err.to_string();
    assert!(msg.contains("truncated"), "must say truncated: {msg}");
}

/// A snapshot resumed against the wrong seed is rejected up front.
#[test]
fn wrong_seed_is_rejected() {
    let s = scenario(7, 2, 200, 10.0, 60.0);
    let full = run(&s, None);
    let snap = full.checkpoints.first().expect("at least one checkpoint");

    let mut wrong = scenario(8, 2, 200, 10.0, 60.0);
    wrong.topo.seed = 7; // isolate the cfg-seed check
    let mut source = source_for(&wrong);
    let mut rec = MemoryRecorder::new();
    let mut hooks = RunHooks {
        live: &mut |_| {},
        checkpoint: None,
        kill_after_events: None,
    };
    let err = Controller::resume_full(
        &wrong.workload,
        &wrong.cluster,
        &wrong.plan,
        Some(&wrong.topo),
        &wrong.cfg,
        &mut source,
        &mut rec,
        snap,
        &mut hooks,
    )
    .expect_err("wrong seed must not resume");
    assert_eq!(err.exit_code(), 2);
    assert!(err.to_string().contains("seed"), "{err}");
}

/// Regression: a resumed run must continue the recorder's running counter
/// totals. This pins a once-failing generated case where `ctl.node_down`
/// fired both before and after the kill point, so the resumed stream's
/// second `Counter` event read `total: 1` instead of `total: 2` until the
/// snapshot grew its `"cnt"` section. Sweeps every 5% kill point.
#[test]
fn counter_totals_survive_resume() {
    let s = scenario(9194, 1, 478, 13.943577447516066, 66.87684056696177);
    let full = run(&s, None);
    let RunOutcome::Completed(report_a) = &full.outcome else {
        panic!("uninterrupted run must complete");
    };
    for pct in 1..20 {
        let kill_at = 1 + report_a.events * pct / 20;
        let killed = run(&s, Some(kill_at));
        if !matches!(killed.outcome, RunOutcome::Killed { .. }) {
            continue;
        }
        for (i, (k, f)) in killed.checkpoints.iter().zip(&full.checkpoints).enumerate() {
            assert_eq!(k, f, "kill@{kill_at}: checkpoint {i} diverged");
        }
        let Some(snap) = killed.checkpoints.last() else {
            continue;
        };
        let (report_r, rec_r, ckpt_r) = resume(&s, snap);
        assert!(
            same_report(report_a, &report_r),
            "kill@{kill_at}: report diverged"
        );
        assert!(
            ckpt_r[..] == full.checkpoints[killed.checkpoints.len()..],
            "kill@{kill_at}: resumed checkpoints differ from the uninterrupted run's"
        );
        let fe = full.rec.events();
        let re = rec_r.events();
        assert_eq!(
            &fe[fe.len() - re.len()..],
            re,
            "kill@{kill_at}: resumed event tail diverged"
        );
    }
}

/// Resume `snapshot` with no checkpoint sink, killing the continuation
/// after `kill_after_events` total events so a corrupted clock or counter
/// cannot stretch the run without bound.
fn try_resume(
    s: &Scenario,
    snapshot: &str,
    kill_after_events: Option<u64>,
) -> Result<RunOutcome, EnpropError> {
    let mut source = source_for(s);
    let mut hooks = RunHooks {
        live: &mut |_| {},
        checkpoint: None,
        kill_after_events,
    };
    Controller::resume_full(
        &s.workload,
        &s.cluster,
        &s.plan,
        Some(&s.topo),
        &s.cfg,
        &mut source,
        &mut NoopRecorder,
        snapshot,
        &mut hooks,
    )
}

/// Snapshot line `l` with its `key` value replaced by `value`.
fn set_key(l: &str, key: &str, value: &str) -> String {
    let needle = ["\"", key, "\":"].concat();
    let at = l.find(&needle).unwrap() + needle.len();
    let end = at + l[at..].find([',', '}']).unwrap();
    format!("{}{value}{}", &l[..at], &l[end..])
}

/// The first checkpoint with a line matching `pick`, with that line's
/// `key` value replaced by `value`; plus the line's number.
fn corrupt_first(
    checkpoints: &[String],
    pick: impl Fn(&str) -> bool,
    key: &str,
    value: &str,
) -> (String, usize) {
    for snap in checkpoints {
        let Some(i) = snap.lines().position(&pick) else {
            continue;
        };
        let text = snap
            .lines()
            .enumerate()
            .map(|(j, l)| {
                if j == i {
                    set_key(l, key, value) + "\n"
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        return (text, i + 1);
    }
    panic!("no checkpoint has a line to corrupt");
}

/// Regression: a checkpoint of a 3-node cluster whose `ev` completion
/// line names node 92 used to restore cleanly and then panic with an
/// index out of bounds in the event loop. Every index and request id is
/// now checked on restore: a typed exit-2 error naming the line.
#[test]
fn dangling_indices_and_ids_are_typed_errors() {
    let s = scenario(7, 2, 300, 10.0, 60.0);
    let full = run(&s, None);
    let completion = |l: &str| l.contains("\"sec\":\"ev\"") && l.contains("\"k\":1,");
    let running = |l: &str| l.contains("\"sec\":\"node\"") && l.contains("\"cur\":1,");
    let (node_92, ev_line) = corrupt_first(&full.checkpoints, completion, "a", "92");
    let (no_req, node_line) = corrupt_first(&full.checkpoints, running, "cur_req", "999999");
    for (text, lineno, named) in [(node_92, ev_line, "92"), (no_req, node_line, "999999")] {
        let err = try_resume(&s, &text, None).expect_err("a dangling reference must not resume");
        assert_eq!(err.exit_code(), 2, "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("line {lineno}:")) && msg.contains(named),
            "{msg}"
        );
    }
}

/// Regression: a corrupt snapshot clock used to panic on resume in a
/// debug build. A header `now` of NaN restored and then tripped the event
/// loop's time assertion; a plane `cur_index` of `u64::MAX` overflowed in
/// the restore itself, and one of `u64::MAX - 1` restored and overflowed
/// at the first window close. Each is now a typed exit-2 error naming the
/// header or `plane` line.
#[test]
fn corrupt_clock_is_a_typed_error() {
    let s = scenario(7, 2, 200, 10.0, 60.0);
    let full = run(&s, None);
    for (sec, key, value) in [
        (SNAPSHOT_VERSION, "now", "9221120237041090560"), // NaN's bit pattern
        ("plane", "cur_index", "18446744073709551615"),
        ("plane", "cur_index", "18446744073709551614"),
    ] {
        let head = format!("{{\"sec\":\"{sec}\",");
        let (text, lineno) = corrupt_first(&full.checkpoints, |l| l.starts_with(&head), key, value);
        let err = try_resume(&s, &text, None).expect_err("a corrupt clock must not resume");
        assert_eq!(err.exit_code(), 2, "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("line {lineno}:")) && msg.contains(key),
            "{msg}"
        );
    }
}

/// Corruption sweep over real checkpoints: every strict prefix, every
/// digit incremented (9 wraps to 0), every line duplicated and every pair
/// of adjacent lines swapped. Resuming must return `Ok` or an exit-2
/// error, never panic, and every prefix must be an error. Swept: the last
/// checkpoint of a one-A9 run, and the golden fixture, whose requests all
/// hold a kept `deadline`.
#[test]
fn corrupted_snapshots_never_panic() {
    let last = scenario(11, 1, 150, 10.0, 60.0);
    let golden = scenario(7, 2, 200, 10.0, 60.0);
    let last_run = run(&last, None);
    let snap = last_run
        .checkpoints
        .last()
        .expect("at least one checkpoint");
    for (s, snap) in [(&last, snap.as_str()), (&golden, GOLDEN_CHECKPOINT)] {
        let RunOutcome::Completed(report) = run(s, None).outcome else {
            panic!("uninterrupted run must complete");
        };
        let bound = Some(2 * report.events);
        assert!(
            try_resume(s, snap, bound).is_ok(),
            "the pristine checkpoint resumes"
        );
        let bad = corruptions_that_misbehave(s, snap, bound);
        assert!(bad.is_empty(), "{}", bad.join("\n"));
    }
}

/// The corruptions of `snap` that panic, resume when they must not, or
/// fail with another exit code than 2: a summary line, then up to 20.
fn corruptions_that_misbehave(s: &Scenario, snap: &str, bound: Option<u64>) -> Vec<String> {
    let lines: Vec<&str> = snap.lines().collect();
    let join = |ls: &[&str]| ls.iter().map(|l| format!("{l}\n")).collect::<String>();
    let mut variants: Vec<(String, String, bool)> = Vec::new(); // (what, text, must fail)
    for (cut, _) in snap.char_indices() {
        variants.push((format!("cut at byte {cut}"), snap[..cut].to_string(), true));
    }
    for (at, ch) in snap.char_indices().filter(|(_, ch)| ch.is_ascii_digit()) {
        let up = char::from(b'0' + (ch as u8 - b'0' + 1) % 10);
        let text = format!("{}{up}{}", &snap[..at], &snap[at + 1..]);
        variants.push((format!("digit at byte {at} bumped to {up}"), text, false));
    }
    for i in 0..lines.len() {
        let mut dup = lines.clone();
        dup.insert(i, lines[i]);
        variants.push((format!("line {} duplicated", i + 1), join(&dup), false));
        if i + 1 < lines.len() {
            let mut swapped = lines.clone();
            swapped.swap(i, i + 1);
            let what = format!("lines {} and {} swapped", i + 1, i + 2);
            variants.push((what, join(&swapped), false));
        }
    }

    let mut bad: Vec<String> = Vec::new();
    for (what, text, must_fail) in &variants {
        let got =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| try_resume(s, text, bound)));
        match got {
            Err(_) => bad.push(format!("{what}: panicked")),
            Ok(Err(e)) if e.exit_code() != 2 => {
                bad.push(format!("{what}: exit {}: {e}", e.exit_code()))
            }
            Ok(Ok(_)) if *must_fail => bad.push(format!("{what}: resumed")),
            Ok(_) => {}
        }
    }
    if !bad.is_empty() {
        let n = bad.len();
        bad.truncate(20);
        let head = format!(
            "{n} of {} corrupted snapshots misbehaved, e.g.:",
            variants.len()
        );
        bad.insert(0, head);
    }
    bad
}

/// The v5 snapshot format, pinned: the first checkpoint of
/// `scenario(7, 2, 200, 10.0, 60.0)` as the `enprop-snapshot-v5` writer
/// first emitted it. A refactor that changes one byte of the format fails
/// here, and so does one that can no longer resume a stored v5 file.
const GOLDEN_CHECKPOINT: &str = include_str!("fixtures/checkpoint_v5.jsonl");

#[test]
fn golden_checkpoint_is_written_byte_for_byte_and_resumes() {
    let s = scenario(7, 2, 200, 10.0, 60.0);
    let full = run(&s, None);
    let RunOutcome::Completed(report) = &full.outcome else {
        panic!("uninterrupted run must complete");
    };
    let first = full.checkpoints.first().expect("at least one checkpoint");
    assert!(
        first == GOLDEN_CHECKPOINT,
        "the first checkpoint differs from the v5 fixture"
    );
    let (resumed, _, _) = resume(&s, GOLDEN_CHECKPOINT);
    assert!(
        same_report(report, &resumed),
        "resume from the fixture diverged:\n  full   {report:?}\n  resume {resumed:?}"
    );
}

/// A snapshot of an older format is refused on its header line: v4
/// dropped v3's `series` and `series_win` lines and its derived keys, v5
/// moved the timeouts of requests on nodes that keep pace from `ev` lines
/// to their `req` lines' `deadline`, and no reader translates either.
#[test]
fn an_older_snapshot_version_is_a_typed_error_on_the_header() {
    let s = scenario(7, 2, 200, 10.0, 60.0);
    let (head, body) = GOLDEN_CHECKPOINT.split_once('\n').unwrap();
    for old in ["enprop-snapshot-v3", "enprop-snapshot-v4"] {
        let text = format!("{}\n{body}", set_key(head, "sec", &format!("{old:?}")));
        let err = try_resume(&s, &text, None).expect_err("an older snapshot must not resume");
        assert_eq!(err.exit_code(), 2, "{err}");
        let msg = err.to_string();
        assert!(msg.contains("line 1:") && msg.contains(old), "{msg}");
    }
}

/// Every checkpoint of the golden scenario, pinned as one FNV-1a digest
/// over their concatenated bytes: the fixture above holds only the first.
#[test]
fn every_checkpoint_of_the_golden_scenario_is_pinned() {
    let s = scenario(7, 2, 200, 10.0, 60.0);
    let full = run(&s, None);
    assert!(matches!(full.outcome, RunOutcome::Completed(_)));
    let digest = full
        .checkpoints
        .iter()
        .flat_map(|c| c.bytes())
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    assert_eq!((full.checkpoints.len(), digest), (6, 0x6001_d56e_4be9_e5ba));
}

/// `req` line `l` of the golden fixture with its kept `deadline` as far
/// past clock `t` as it is past the fixture's clock.
fn deadline_past(l: &str, t: f64) -> String {
    let now = Line::parse(1, GOLDEN_CHECKPOINT.lines().next().unwrap());
    let now = now.unwrap().f64_bits("now").unwrap();
    let deadline = Line::parse(1, l).unwrap().f64_bits("deadline").unwrap();
    set_key(l, "deadline", &(t + (deadline - now)).to_bits().to_string())
}

/// The golden fixture moved to clock `t` as consistently as a hand edit
/// can: the header `now`, every node's accounting time `acct_t`, every
/// `ev` time, every kept request `deadline` (by as much as the clock), the
/// source cursor's `t` (the time of the pending arrival it issued) and the
/// plane's `cur_index` (`t / 0.25`, saturating as the plane's own index
/// does).
fn golden_at_clock(t: f64) -> String {
    let bits = t.to_bits().to_string();
    let index = ((t / 0.25).floor() as u64).to_string();
    GOLDEN_CHECKPOINT
        .lines()
        .map(|l| {
            let edited = if l.starts_with(&format!("{{\"sec\":\"{SNAPSHOT_VERSION}\",")) {
                set_key(l, "now", &bits)
            } else if l.starts_with("{\"sec\":\"node\",") {
                set_key(l, "acct_t", &bits)
            } else if l.starts_with("{\"sec\":\"req\",") {
                deadline_past(l, t)
            } else if l.starts_with("{\"sec\":\"ev\",") || l.starts_with("{\"sec\":\"source\",") {
                set_key(l, "t", &bits)
            } else if l.starts_with("{\"sec\":\"plane\",") {
                set_key(l, "cur_index", &index)
            } else {
                l.to_string()
            };
            edited + "\n"
        })
        .collect()
}

/// Regression: a clock the controller cannot run at used to restore. At
/// 1e20 and 1e300 s the event budget's `u64` sums overflowed (a debug
/// panic, a silent wrap in release); at 1e12 s the fixture's fault-window
/// events still named window 1, and the resumed loop scheduled that
/// window's faults far behind the clock. Both are exit-2 errors now: the
/// header's clock, and the window event's time.
#[test]
fn clocks_the_controller_cannot_reach_are_typed_errors() {
    let s = scenario(7, 2, 200, 10.0, 60.0);
    let first_window = GOLDEN_CHECKPOINT
        .lines()
        .position(|l| l.contains("\"k\":5,"))
        .unwrap();
    for (t, lineno, named) in [
        (1e20, 1, "event budget"),
        (1e300, 1, "event budget"),
        (1e12, first_window + 1, "window 1 event"),
    ] {
        let err =
            try_resume(&s, &golden_at_clock(t), None).expect_err("a far clock must not resume");
        assert_eq!(err.exit_code(), 2, "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("line {lineno}:")) && msg.contains(named),
            "{t}: {msg}"
        );
    }
}

/// At the last window index a `u32` holds, the controller stops
/// materializing fault and domain windows instead of overflowing the
/// index: the golden fixture moved to that window's start resumes.
#[test]
fn the_last_fault_window_ends_the_window_stream() {
    let s = scenario(7, 2, 200, 10.0, 60.0);
    // When the controller schedules window u32::MAX of 60 s.
    let last = f64::from(u32::MAX - 1) * 60.0 + 60.0;
    let text: String = golden_at_clock(last)
        .lines()
        .map(|l| match l {
            l if l.contains("\"k\":5,") => set_key(l, "b", &u32::MAX.to_string()) + "\n",
            l if l.contains("\"k\":12,") => set_key(l, "a", &u32::MAX.to_string()) + "\n",
            l => format!("{l}\n"),
        })
        .collect();
    assert!(text.contains("\"k\":5,") && text.contains("\"k\":12,"));
    let out = try_resume(&s, &text, None).expect("a snapshot at the last window resumes");
    assert!(matches!(out, RunOutcome::Completed(_)));
}

/// `text` without the lines `drop` picks, its trailer recounted.
fn without_lines(text: &str, drop: impl Fn(&str) -> bool) -> String {
    let body: Vec<&str> = text
        .lines()
        .filter(|l| !l.starts_with("{\"sec\":\"end\",") && !drop(l))
        .collect();
    let mut out: String = body.iter().map(|l| format!("{l}\n")).collect();
    out.push_str(&format!("{{\"sec\":\"end\",\"lines\":{}}}\n", body.len()));
    out
}

/// Regression: restore set no upper bound on event times. The golden
/// fixture with only its pending arrival moved to 1e12 s restored, and the
/// resumed run walked its recurring ticks toward it; moved to 2^53 s with
/// its window events dropped, it restored with a clock the 0.5 s health
/// interval cannot move, and the run spun at one instant. Each now stops
/// at restore with an exit-2 error naming the line: the arrival's, which
/// is not the one the source cursor last issued, and the header's. The
/// kill bound ends a run that resumes anyway.
#[test]
fn event_times_the_source_cursor_rules_out_are_typed_errors() {
    let s = scenario(7, 2, 200, 10.0, 60.0);
    let is_arrival = |l: &str| l.starts_with("{\"sec\":\"ev\",") && l.contains("\"k\":0,");
    let arrival = GOLDEN_CHECKPOINT.lines().position(is_arrival).unwrap();
    let far = 1e12f64.to_bits().to_string();
    let far_arrival: String = GOLDEN_CHECKPOINT
        .lines()
        .map(|l| {
            if is_arrival(l) {
                set_key(l, "t", &far) + "\n"
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    let windows = |l: &str| l.contains("\"k\":5,") || l.contains("\"k\":12,");
    let spinning = without_lines(&golden_at_clock(2f64.powi(53)), windows);
    for (text, lineno, named) in [
        (far_arrival, arrival + 1, "pending arrival"),
        (spinning, 1, "health interval"),
    ] {
        let err = try_resume(&s, &text, Some(100_000)).expect_err("the run must not resume");
        assert_eq!(err.exit_code(), 2, "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("line {lineno}:")) && msg.contains(named),
            "{msg}"
        );
    }
}

/// The number of the golden fixture's first `sec` line.
fn golden_line(sec: &str) -> usize {
    let head = format!("{{\"sec\":\"{sec}\",");
    GOLDEN_CHECKPOINT
        .lines()
        .position(|l| l.starts_with(&head))
        .unwrap()
        + 1
}

/// Each line of the golden fixture passed through `edit`, which gets the
/// line's section name.
fn edit_golden(edit: impl Fn(&str, &str) -> String) -> String {
    GOLDEN_CHECKPOINT
        .lines()
        .map(|l| {
            let sec = Line::parse(1, l).unwrap().str("sec").unwrap().into_owned();
            edit(&sec, l) + "\n"
        })
        .collect()
}

/// With no arrival pending, the run stops by the drain deadline armed at
/// the last arrival the source issued: the golden fixture with its
/// arrival dropped as if never issued, and its clock moved one second
/// past that deadline, is an exit-2 error naming the header.
#[test]
fn a_clock_past_the_drain_deadline_is_a_typed_error() {
    let s = scenario(7, 2, 200, 10.0, 60.0);
    let source = GOLDEN_CHECKPOINT
        .lines()
        .nth(golden_line("source") - 1)
        .unwrap();
    let source = Line::parse(1, source).unwrap();
    let t = source.f64_bits("t").unwrap() + 121.0;
    let (bits, index) = (
        t.to_bits().to_string(),
        ((t / 0.25).floor() as u64).to_string(),
    );
    let remaining = (source.u64("remaining").unwrap() + 1).to_string();
    let text = edit_golden(|sec, l| match sec {
        SNAPSHOT_VERSION => set_key(l, "now", &bits),
        "node" => set_key(l, "acct_t", &bits),
        "req" => deadline_past(l, t),
        "ev" => set_key(l, "t", &bits),
        "plane" => set_key(l, "cur_index", &index),
        "source" => set_key(l, "remaining", &remaining),
        _ => l.to_string(),
    });
    // Drop the pending arrival and the window events, which the
    // controller holds at their own times.
    let kinds = ["\"k\":0,", "\"k\":5,", "\"k\":12,"];
    let text = without_lines(&text, |l| kinds.iter().any(|k| l.contains(k)));
    let err = try_resume(&s, &text, Some(100_000)).expect_err("a clock past the deadline");
    assert_eq!(err.exit_code(), 2, "{err}");
    let msg = err.to_string();
    assert!(
        msg.contains("line 1:") && msg.contains("drain deadline"),
        "{msg}"
    );
}

/// With breakers off no timeout counts against a group, so no breaker
/// leaves Closed: a snapshot whose breaker did is an exit-2 error naming
/// the group line, as is a synthetic cursor time that is not a time.
#[test]
fn breaker_and_cursor_states_the_run_cannot_reach_are_typed_errors() {
    let on = scenario(7, 2, 200, 10.0, 60.0);
    let mut off = scenario(7, 2, 200, 10.0, 60.0);
    off.cfg.breaker_failures = 0;
    let with = |sec: &str, key: &str, value: &str| {
        edit_golden(|s, l| {
            if s == sec {
                set_key(l, key, value)
            } else {
                l.to_string()
            }
        })
    };
    let nan = f64::NAN.to_bits().to_string();
    for (s, text, lineno, named) in [
        (
            &off,
            with("group", "brk", "1"),
            golden_line("group"),
            "breakers are off",
        ),
        (
            &on,
            with("source", "t", &nan),
            golden_line("source"),
            "cursor time",
        ),
    ] {
        let err = try_resume(s, &text, Some(100_000)).expect_err("an unreachable state");
        assert_eq!(err.exit_code(), 2, "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("line {lineno}:")) && msg.contains(named),
            "{msg}"
        );
    }
}

/// A request id far past any the run issued is rejected before the
/// in-flight ring is sized from it: out of order as the first `req` line,
/// not below the `ctl` line's `n_arrivals` as the last. Either is exit 2
/// with no allocation that scales with the id.
#[test]
fn far_request_ids_are_typed_errors() {
    let s = scenario(7, 2, 200, 10.0, 60.0);
    let reqs: Vec<usize> = GOLDEN_CHECKPOINT
        .lines()
        .enumerate()
        .filter(|(_, l)| l.starts_with("{\"sec\":\"req\","))
        .map(|(i, _)| i)
        .collect();
    let far = (1u64 << 40).to_string();
    for (edit, lineno, named) in [
        (reqs[0], reqs[1] + 1, "does not ascend"),
        (
            reqs[reqs.len() - 1],
            reqs[reqs.len() - 1] + 1,
            "not below n_arrivals",
        ),
    ] {
        let text: String = GOLDEN_CHECKPOINT
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == edit {
                    set_key(l, "id", &far) + "\n"
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let err = try_resume(&s, &text, None).expect_err("a far request id must not resume");
        assert_eq!(err.exit_code(), 2, "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("line {lineno}:")) && msg.contains(named),
            "{msg}"
        );
    }
}

/// Resuming with arrival flags other than the snapshotted run's is a
/// typed error naming the `source` line: the configured stream must have
/// issued exactly the arrivals the snapshot processed, plus its one
/// pending arrival.
#[test]
fn mismatched_arrival_flags_are_typed_errors() {
    let source_line = GOLDEN_CHECKPOINT
        .lines()
        .position(|l| l.contains("\"sec\":\"source\""))
        .unwrap();
    for requests in [199, 201, 20] {
        let s = scenario(7, 2, requests, 10.0, 60.0);
        let err = try_resume(&s, GOLDEN_CHECKPOINT, None).expect_err("other flags must not resume");
        assert_eq!(err.exit_code(), 2, "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("line {}:", source_line + 1)),
            "{requests}: {msg}"
        );
    }
}

/// Regression: restore took any float a snapshot held. A node `slowdown`
/// of -1 or -inf on a node running a request panicked the resumed run
/// ("time went backwards"), and NaN or ±inf in a node's `energy` or
/// `acct_t`, a request's `arrived` or the `ctl` line's `resp_sum` resumed
/// to exit 0 with a NaN or infinite energy or mean response. Each is now
/// an exit-2 error naming the line and the key, as are an accounting time
/// other than the clock and window joules a checkpoint cannot hold: every
/// checkpoint follows the window close, which integrates each node up to
/// the clock. So is a request `deadline` kept off the heap that the
/// controller could not keep: NaN, before the request arrived, not past
/// the clock, or held on a request that is on no node or on a node that
/// is crashed, stalled or slowed, whose timeouts are on the heap.
#[test]
fn floats_the_controller_cannot_hold_are_typed_errors() {
    let s = scenario(7, 2, 200, 10.0, 60.0);
    let header = GOLDEN_CHECKPOINT.lines().next().unwrap();
    let now = Line::parse(1, header).unwrap().f64_bits("now").unwrap();
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    // The first request and the line of the node it is on.
    let first_req = golden_line("req");
    let req_line = GOLDEN_CHECKPOINT.lines().nth(first_req - 1).unwrap();
    let req_line = Line::parse(1, req_line).unwrap();
    let arrived = req_line.f64_bits("arrived").unwrap();
    let on = req_line.u64("loc_node").unwrap();
    let on_node = GOLDEN_CHECKPOINT
        .lines()
        .position(|l| l.starts_with(&format!("{{\"sec\":\"node\",\"i\":{on},")))
        .unwrap()
        + 1;
    // (section, key, value); "node*" is a node that runs a request.
    let mut cases = vec![("node*", "slowdown", -1.0), ("node*", "slowdown", -inf)];
    for bad in [nan, inf, -inf] {
        cases.push(("node", "energy", bad));
        cases.push(("node", "acct_t", bad));
        cases.push(("req", "arrived", bad));
        cases.push(("ctl", "resp_sum", bad));
    }
    cases.push(("node", "acct_t", now + 1.0));
    cases.push(("node", "acct_t", 0.0));
    cases.push(("node", "wb", 1.0));
    cases.push(("req", "deadline", nan));
    cases.push(("req", "deadline", arrived / 2.0));
    cases.push(("req", "deadline", now));
    // (line, key, value, the line and the key the error names).
    let mut rows: Vec<(usize, &str, String, usize, &str)> = cases
        .into_iter()
        .map(|(sec, key, value)| {
            let head = format!("{{\"sec\":\"{}\",", sec.trim_end_matches('*'));
            let pick =
                |l: &str| l.starts_with(&head) && (!sec.ends_with('*') || l.contains("\"cur\":1,"));
            let lineno = GOLDEN_CHECKPOINT.lines().position(pick).unwrap() + 1;
            (lineno, key, value.to_bits().to_string(), lineno, key)
        })
        .collect();
    // The first request's kept deadline with the request taken off its
    // node, or with that node crashed, stalled past the clock or slowed:
    // each names the request's line and its deadline.
    let bits = |v: f64| v.to_bits().to_string();
    rows.extend([
        (first_req, "loc", "0".to_string(), first_req, "deadline"),
        (on_node, "crashed", "1".to_string(), first_req, "deadline"),
        (
            on_node,
            "stalled_until",
            bits(now + 1.0),
            first_req,
            "deadline",
        ),
        (on_node, "slowdown", bits(2.0), first_req, "deadline"),
    ]);
    for (lineno, key, value, at, named) in rows {
        let text: String = GOLDEN_CHECKPOINT
            .lines()
            .enumerate()
            .map(|(i, l)| if i + 1 == lineno { set_key(l, key, &value) } else { l.to_string() } + "\n")
            .collect();
        let err = try_resume(&s, &text, Some(100_000)).expect_err("a float the run cannot hold");
        assert_eq!(err.exit_code(), 2, "{key} = {value}: {err}");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("line {at}:")) && msg.contains(named),
            "{key} = {value}: {msg}"
        );
    }
}

/// Regression: restore took any sketch geometry a snapshot held. An
/// `alpha` of 0.2, or a `maxb` of 0 or 1, on a `sketch` line resumed to
/// exit 0 and moved the reported quantiles. The controller builds every
/// sketch with one geometry, so each is now an exit-2 error naming the
/// line and the key, on all three sketch lines.
#[test]
fn sketch_geometry_other_than_the_controllers_is_a_typed_error() {
    let s = scenario(7, 2, 200, 10.0, 60.0);
    let alpha = 0.2f64.to_bits().to_string();
    for which in 0..3 {
        let head = format!("{{\"sec\":\"sketch\",\"which\":{which},");
        let lineno = GOLDEN_CHECKPOINT
            .lines()
            .position(|l| l.starts_with(&head))
            .unwrap()
            + 1;
        for (key, value) in [("alpha", alpha.as_str()), ("maxb", "0"), ("maxb", "1")] {
            let text: String = GOLDEN_CHECKPOINT
                .lines()
                .enumerate()
                .map(|(i, l)| if i + 1 == lineno { set_key(l, key, value) } else { l.to_string() } + "\n")
                .collect();
            let err = try_resume(&s, &text, Some(100_000)).expect_err("another sketch geometry");
            assert_eq!(err.exit_code(), 2, "{which} {key} = {value}: {err}");
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("line {lineno}:")) && msg.contains(key),
                "{which} {key} = {value}: {msg}"
            );
        }
    }
}
