//! The perf smoke in `scripts/verify.sh`: a fast perf regression gate for the evaluation
//! pipeline. Runs a reduced configuration-space sweep (EP over ≤ 8 A9 +
//! ≤ 6 K10) four ways — sequential/uncached, sequential+memoized,
//! pooled/uncached and pooled+memoized — best-of-3 each, asserts the memo
//! still pays for itself, and appends the timings to
//! `BENCH_space_eval.json` (JSONL, same record shape as `BENCH_obs.json`)
//! to seed the perf trajectory.
//!
//! The memo check compares the two one-thread sweeps of the same run:
//! sequential+memoized × `MEMO_SPEEDUP` must not exceed
//! sequential/uncached. One thread is what the memo serves outside this
//! gate (`export`'s single pass and `local_search`), and it keeps pool
//! scheduling noise out of the ratio; on a 2-vCPU host the memo measured
//! 1.28–1.91× there over 20 runs. The pooled rows are recorded, not
//! gated.
//!
//! A second, mega-scale scenario covers the blind spot the small sweep
//! leaves: the first 10^6 configurations of a DALEK-style four-type
//! space, pooled/uncached (materializing) vs streaming/pruned
//! (`stream_pareto_front`, DESIGN.md §17). The streamed path must be at
//! least `STREAM_SPEEDUP`× faster — the win comes from the one-pass
//! kernel and dominance pruning, not parallelism, so it too holds on one
//! core.
//! Appends `space_eval.pooled_1m` and `space_eval.stream_pruned` rows.
//!
//! Its trajectory: the streamed time may be at most
//! [`TRAJECTORY_FACTOR`]× the best earlier `space_eval.stream_pruned` row
//! in the file; with no such row there is nothing to compare. Exits 1 when
//! a gate fails, 2 when the BENCH file cannot be read or written.

use enprop_bench::{trajectory_limit_ms, TRAJECTORY_FACTOR};
use enprop_explore::{
    configurations, count_configurations, evaluate_space_with, stream_pareto_front, EvalOptions,
    StreamOptions, TypeSpace,
};
use enprop_obs::{append_bench_record, BenchRecord};
use enprop_workloads::Workload;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Best-of-n repetitions per variant.
const REPS: usize = 3;
/// Required speedup of the memoized one-thread sweep over the uncached
/// one.
const MEMO_SPEEDUP: f64 = 1.2;
/// Mega-scale scenario size: enough configurations that materializing
/// the space visibly hurts, small enough to stay a smoke test.
const MEGA_CAP: u64 = 1_000_000;
/// Required speedup of streaming/pruned over pooled/uncached at
/// `MEGA_CAP` configurations (DESIGN.md §17).
const STREAM_SPEEDUP: f64 = 2.0;
/// The row the trajectory check reads and extends.
const STREAM_CMD: &str = "space_eval.stream_pruned";

/// Best wall-clock milliseconds over `REPS` runs of `f`.
fn best_of(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Best wall-clock milliseconds for a full sweep under `opts`.
fn best_ms(w: &Workload, types: &[TypeSpace], opts: EvalOptions) -> f64 {
    best_of(|| {
        let (evald, _) = evaluate_space_with(w, configurations(types), opts);
        assert_eq!(evald.len(), count_configurations(types) as usize);
    })
}

fn main() -> ExitCode {
    let path = Path::new("BENCH_space_eval.json");
    let stream_limit_ms = match trajectory_limit_ms(path, STREAM_CMD) {
        Ok(limit) => limit,
        Err(e) => {
            eprintln!("perf-smoke: {e}");
            return ExitCode::from(2);
        }
    };

    let types = [TypeSpace::a9(8), TypeSpace::k10(6)];
    let w = enprop_workloads::catalog::by_name("EP").expect("EP is in the catalog");
    let n = count_configurations(&types);
    let threads = enprop_explore::eval_threads();
    println!("perf-smoke: EP over {n} configurations, pool of {threads} thread(s)");

    let seq = best_ms(
        &w,
        &types,
        EvalOptions {
            threads: Some(1),
            cache: false,
        },
    );
    let seq_cached = best_ms(
        &w,
        &types,
        EvalOptions {
            threads: Some(1),
            cache: true,
        },
    );
    let pooled = best_ms(
        &w,
        &types,
        EvalOptions {
            threads: None,
            cache: false,
        },
    );
    let cached = best_ms(&w, &types, EvalOptions::default());
    println!("  sequential/uncached : {seq:>8.2} ms");
    println!(
        "  sequential+memoized : {seq_cached:>8.2} ms ({:.2}x)",
        seq / seq_cached
    );
    println!(
        "  pooled/uncached     : {pooled:>8.2} ms ({:.2}x)",
        seq / pooled
    );
    println!(
        "  pooled + memoized   : {cached:>8.2} ms ({:.2}x)",
        seq / cached
    );

    // Mega-scale scenario: the first MEGA_CAP configurations of a
    // DALEK-style four-type space. The pooled path materializes every
    // EvaluatedConfig; the streamed path keeps only the frontier.
    let mega_types = [
        TypeSpace::a9(10),
        TypeSpace::k10(10),
        TypeSpace::pi4(16),
        TypeSpace::opi5(16),
    ];
    let mega_w =
        enprop_workloads::catalog::dalek("EP").expect("EP has a DALEK-extended profile set");
    let mega_total = count_configurations(&mega_types);
    println!("perf-smoke: EP/DALEK over {MEGA_CAP} of {mega_total} configurations");

    let pooled_1m = best_of(|| {
        let iter = configurations(&mega_types).take(MEGA_CAP as usize);
        let (evald, _) = evaluate_space_with(
            &mega_w,
            iter,
            EvalOptions {
                threads: None,
                cache: false,
            },
        );
        assert_eq!(evald.len(), MEGA_CAP as usize);
    });
    let mut mega_stats = None;
    let stream = best_of(|| {
        let (front, stats) = stream_pareto_front(
            &mega_w,
            &mega_types,
            StreamOptions {
                max_configs: Some(MEGA_CAP),
                ..StreamOptions::default()
            },
        );
        assert!(!front.is_empty());
        assert_eq!(stats.evaluated as u64 + stats.pruned, MEGA_CAP);
        mega_stats = Some(stats);
    });
    let mega_stats = mega_stats.expect("at least one streamed rep ran");
    println!("  pooled/uncached     : {pooled_1m:>8.2} ms (materializes {MEGA_CAP} configs)");
    println!(
        "  streaming + pruned  : {stream:>8.2} ms ({:.2}x, {:.1}% pruned, frontier {}, peak {} KiB)",
        pooled_1m / stream,
        100.0 * mega_stats.pruned as f64 / MEGA_CAP as f64,
        mega_stats.frontier_len,
        mega_stats.peak_buffer_bytes / 1024,
    );

    // `seed` records the pool size: the sweep has no RNG, and the thread
    // count is the one knob that changes the timing's meaning.
    for (cmd, wall_ms) in [
        ("space_eval.seq1", seq),
        ("space_eval.seq1_cached", seq_cached),
        ("space_eval.pooled", pooled),
        ("space_eval.pooled_cached", cached),
        ("space_eval.pooled_1m", pooled_1m),
        (STREAM_CMD, stream),
    ] {
        let record = BenchRecord::new(cmd, wall_ms, threads as u64);
        if let Err(e) = append_bench_record(path, &record) {
            eprintln!("perf-smoke: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("  appended 6 records to {}", path.display());

    if seq_cached * MEMO_SPEEDUP > seq {
        eprintln!(
            "perf-smoke: FAIL — sequential+memoized sweep ({seq_cached:.2} ms) is not \
             {MEMO_SPEEDUP}x faster than sequential/uncached ({seq:.2} ms)"
        );
        return ExitCode::FAILURE;
    }
    if stream * STREAM_SPEEDUP > pooled_1m {
        eprintln!(
            "perf-smoke: FAIL — streaming/pruned sweep ({stream:.2} ms) is not \
             {STREAM_SPEEDUP}x faster than pooled/uncached ({pooled_1m:.2} ms) \
             at {MEGA_CAP} configurations"
        );
        return ExitCode::FAILURE;
    }
    if let Some(limit_ms) = stream_limit_ms {
        if stream > limit_ms {
            eprintln!(
                "perf-smoke: FAIL — streaming/pruned sweep ({stream:.2} ms) is over its \
                 {limit_ms:.2} ms limit ({TRAJECTORY_FACTOR}x the best earlier {STREAM_CMD} row)"
            );
            return ExitCode::FAILURE;
        }
        println!("  trajectory: streamed {stream:.2} ms <= {limit_ms:.2} ms");
    }
    println!("perf-smoke: OK (memoized >= {MEMO_SPEEDUP}x uncached at one thread; streaming >= {STREAM_SPEEDUP}x pooled at {MEGA_CAP})");
    ExitCode::SUCCESS
}
