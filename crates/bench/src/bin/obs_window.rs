//! The obs query smoke's perf leg in `scripts/verify.sh`: the
//! observability-plane overhead gate.
//!
//! Runs the same synthetic serving workload twice — once with the plane
//! disabled (`obs_window_s = 0`, the pre-plane fast path) and once with
//! the default windowed plane on — median over interleaved pairs, and asserts the
//! windowed path costs at most [`MAX_OVERHEAD`] over the baseline. The
//! plane's contract is bounded memory *and* bounded CPU: per-completion
//! work is one sketch insert plus O(1) accumulator updates, so a serving
//! run must not slow measurably when it's on.
//!
//! Appends both timings to `BENCH_serve_replay.json` (JSONL, same record
//! shape as `BENCH_obs.json`).

use enprop_bench::timed_serve;
use enprop_faults::FaultPlan;
use enprop_obs::{append_bench_record, peak_rss_kb, BenchRecord};
use enprop_serve::ServeConfig;
use std::path::Path;
use std::process::ExitCode;

/// Interleaved (off, on) measurement pairs; the gate uses the median
/// of the within-pair ratios.
const REPS: usize = 5;
/// Requests served per run.
const REQUESTS: u64 = 400_000;
/// Windowed path may cost at most this factor over the plane-off baseline.
const MAX_OVERHEAD: f64 = 1.10;
/// Full-measurement retries before the gate fails. Host noise can only
/// *inflate* a median-of-pairs estimate, so the minimum across attempts
/// is the faithful one; a genuine regression fails every attempt.
const ATTEMPTS: usize = 3;
const SEED: u64 = 7;

fn run_once(cfg: &ServeConfig) -> f64 {
    timed_serve(&FaultPlan::none(), cfg, REQUESTS).0
}

/// Overhead estimate robust to slowly-varying host noise (turbo decay,
/// thermal throttling, noisy neighbours): run the two configurations in
/// interleaved pairs, take the on/off ratio *within* each pair — the two
/// adjacent runs see the same noise regime — and report the median ratio
/// across `REPS` pairs. Best-of times per side ride along for the bench
/// records. One untimed warmup pair first: the run after a build pays
/// page-cache and branch-training costs neither side should be charged.
fn measure_overhead(off_cfg: &ServeConfig, on_cfg: &ServeConfig) -> (f64, f64, f64) {
    run_once(off_cfg);
    run_once(on_cfg);
    let mut off_ms = f64::INFINITY;
    let mut on_ms = f64::INFINITY;
    let mut ratios = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let off = run_once(off_cfg);
        let on = run_once(on_cfg);
        off_ms = off_ms.min(off);
        on_ms = on_ms.min(on);
        ratios.push(on / off);
    }
    ratios.sort_by(f64::total_cmp);
    (off_ms, on_ms, ratios[ratios.len() / 2])
}

fn main() -> ExitCode {
    println!("obs-window: {REQUESTS} requests, plane off vs on ({REPS} interleaved pairs)");
    let mut off_cfg = ServeConfig::new(SEED);
    off_cfg.obs_window_s = 0.0;
    let on_cfg = ServeConfig::new(SEED); // defaults: 1 s windows, α = 0.01

    let mut off_ms = f64::INFINITY;
    let mut on_ms = f64::INFINITY;
    let mut overhead = f64::INFINITY;
    for attempt in 1..=ATTEMPTS {
        let (off, on, ratio) = measure_overhead(&off_cfg, &on_cfg);
        off_ms = off_ms.min(off);
        on_ms = on_ms.min(on);
        overhead = overhead.min(ratio);
        if overhead <= MAX_OVERHEAD {
            break;
        }
        eprintln!("  attempt {attempt}/{ATTEMPTS}: {ratio:.3}x over the ceiling; remeasuring");
    }
    println!("  plane off: {off_ms:>9.1} ms (best)");
    println!("  plane on : {on_ms:>9.1} ms (best)   median pair ratio {overhead:.3}x");

    let path = Path::new("BENCH_serve_replay.json");
    for (cmd, wall_ms) in [
        ("obs_window.plane_off", off_ms),
        ("obs_window.plane_on", on_ms),
    ] {
        let mut record = BenchRecord::new(cmd, wall_ms, SEED);
        record.req_per_s = Some(REQUESTS as f64 / (wall_ms / 1e3));
        record.peak_rss_kb = peak_rss_kb();
        if let Err(e) = append_bench_record(path, &record) {
            eprintln!("obs-window: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("  appended 2 records to {}", path.display());

    if overhead > MAX_OVERHEAD {
        eprintln!(
            "obs-window: FAIL — windowed plane costs {overhead:.3}x the disabled baseline \
             (ceiling {MAX_OVERHEAD}x)"
        );
        return ExitCode::FAILURE;
    }
    println!("obs-window: OK");
    ExitCode::SUCCESS
}
