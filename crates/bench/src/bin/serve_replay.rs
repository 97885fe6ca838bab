//! The serve smoke's perf leg in `scripts/verify.sh`: a throughput gate for the online serving
//! controller. Runs a large synthetic serving workload (with an active
//! mixed fault plan) best-of-3, appends the timing to
//! `BENCH_serve_replay.json` (JSONL, same record shape as
//! `BENCH_obs.json`), and checks it against the file's own trajectory.
//!
//! The best-of-3 wall time may be at most [`TRAJECTORY_FACTOR`]× the best
//! earlier `serve_replay.1m_chaos` row, and never over the 100k req/s
//! floor's 10 s, so the gate trips on algorithmic regressions (a
//! quadratic dispatch scan, a leaked event storm), not on machine noise.
//! Exits 1 over the limit, 2 when the BENCH file cannot be read or
//! written.

use enprop_bench::{serve_cluster, timed_serve, trajectory_limit_ms, TRAJECTORY_FACTOR};
use enprop_faults::{FaultKind, FaultPlan, GroupFaultProfile, MtbfModel};
use enprop_obs::{append_bench_record, peak_rss_kb, BenchRecord};
use enprop_serve::ServeConfig;
use std::path::Path;
use std::process::ExitCode;

/// Best-of-n repetitions.
const REPS: usize = 3;
/// Requests served per run.
const REQUESTS: u64 = 1_000_000;
/// Minimum acceptable throughput, requests per wall-second, whatever
/// the trajectory allows.
const FLOOR_REQ_PER_S: f64 = 100_000.0;
const SEED: u64 = 7;
const CMD: &str = "serve_replay.1m_chaos";

fn main() -> ExitCode {
    let path = Path::new("BENCH_serve_replay.json");
    let trajectory_ms = match trajectory_limit_ms(path, CMD) {
        Ok(limit) => limit,
        Err(e) => {
            eprintln!("serve-replay: {e}");
            return ExitCode::from(2);
        }
    };
    let ceiling_ms = REQUESTS as f64 / FLOOR_REQ_PER_S * 1e3;
    let limit_ms = trajectory_ms.map_or(ceiling_ms, |t| t.min(ceiling_ms));

    let cluster = serve_cluster();
    let profile = GroupFaultProfile {
        mtbf: MtbfModel::Exponential { mtbf_s: 120.0 },
        kinds: vec![
            (0.5, FaultKind::Crash),
            (0.3, FaultKind::Stall { duration_s: 2.0 }),
            (0.2, FaultKind::Straggler { slowdown: 3.0 }),
        ],
    };
    let plan = FaultPlan::uniform(SEED, profile, cluster.groups.len());
    let mut cfg = ServeConfig::new(SEED);
    cfg.repair_s = 15.0;
    println!(
        "serve-replay: {REQUESTS} requests on {} ({} nodes), active fault plan",
        cluster.label(),
        cluster.node_count()
    );

    let mut best_ms = f64::INFINITY;
    let mut last_events = 0;
    for _ in 0..REPS {
        let (ms, report) = timed_serve(&plan, &cfg, REQUESTS);
        best_ms = best_ms.min(ms);
        last_events = report.events;
    }
    let req_per_s = REQUESTS as f64 / (best_ms / 1e3);
    let rss = peak_rss_kb();
    println!(
        "  best of {REPS}: {best_ms:>9.1} ms   {req_per_s:>12.0} req/s   {last_events} events"
    );
    if let Some(kb) = rss {
        println!("  peak RSS: {kb} kB");
    }

    let mut record = BenchRecord::new(CMD, best_ms, SEED);
    record.req_per_s = Some(req_per_s);
    record.peak_rss_kb = rss;
    if let Err(e) = append_bench_record(path, &record) {
        eprintln!("serve-replay: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("  appended 1 record to {}", path.display());

    if best_ms > limit_ms {
        eprintln!(
            "serve-replay: FAIL — {best_ms:.1} ms is over the {limit_ms:.1} ms limit \
             (min of {ceiling_ms:.0} ms and {TRAJECTORY_FACTOR}x the best earlier {CMD} row)"
        );
        return ExitCode::FAILURE;
    }
    println!("serve-replay: OK ({best_ms:.1} ms <= {limit_ms:.1} ms)");
    ExitCode::SUCCESS
}
