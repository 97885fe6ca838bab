#![cfg_attr(test, allow(clippy::unwrap_used))]
//! `enprop` — regenerate every table and figure of the CLUSTER'16 paper
//! *"On Energy Proportionality and Time-Energy Performance of
//! Heterogeneous Clusters"* from the reproduction library.

mod commands;
mod diag;
mod output;

use commands::{
    characterize_cmd, explore_cmds, faults_cmd, figures, obs_cmd, serve_cmd, strategies, tables,
    ObsCtx, Opts,
};
use enprop_clustersim::EnpropError;
use enprop_obs::{
    append_bench_record, chrome_trace, jsonl, CommandTimer, MetricsSnapshot, SwitchRecorder,
};
use std::path::{Path, PathBuf};

const USAGE: &str = "\
enprop — energy proportionality of heterogeneous clusters (CLUSTER'16 reproduction)

USAGE: enprop <COMMAND> [OPTIONS]

Experiment commands (one per paper artifact):
  table4        Cluster validation errors (model vs simulated testbed)
  table5        Node type specifications
  table6        Performance-to-power ratios per node type
  table7        Single-node energy proportionality metrics
  table8        Cluster-wide energy proportionality (1 kW budget)
  fig2          Metric-relationship diagram data
  pg            Proportionality-gap PG(u) table per system
  fig5          Single-node proportionality curves (EP, x264, blackscholes)
  fig6          Single-node PPR curves
  fig7          Cluster-wide proportionality of the budget mixes
  fig8          Cluster-wide PPR of the budget mixes
  fig9          Proportionality of Pareto configurations (EP)
  fig10         Proportionality of Pareto configurations (x264)
  fig11         p95 response time of heterogeneous mixes (EP)
  fig12         p95 response time of heterogeneous mixes (x264)
  all           Run every table and figure in order

Robustness commands:
  faults        Extension: fault injection with recovery  [--mtbf SECS]
                [--stall SECS] [--slowdown X] [--retries N]
                [--timeout-factor F] [--utilization U] [--jobs N]

Serving commands (online mode, DESIGN.md \u{a7}13 and \u{a7}16):
  serve         Extension: online serving under a virtual-time controller
                [--requests N] [--utilization U | --rate R] [--arrival
                poisson|diurnal] [--period S] [--ops-per-request OPS]
                [--slo-p95 S] [--slo-p999 S] [--power-cap W] [--mtbf S]
                [--stall S] [--slowdown X] [--repair S] [--max-inflight N]
                [--emit-arrivals FILE] [--live-report SECS]
                [--best-effort FRAC]
                Correlated failure domains: [--rack-mtbf S] [--pdu-mtbf S]
                [--emergency-mtbf S --emergency-cap W (10 s emergencies)]
                [--nodes-per-rack N (4)] [--racks-per-pdu N (2)]
                Checkpoint/resume: [--checkpoint-out FILE (written
                tmp+rename at every closed obs window)] [--resume-from
                FILE (same flags as the killed run)] [--kill-after-events
                N (simulated crash: exit 0, no report)]
  replay        Replay a JSONL arrival trace through the serving
                controller  --trace FILE  (same options as serve)
  chaos         Sweep randomized fault plans over serving runs, checking
                conservation and span balance  [--plans N] [--requests N]
                [--domains  (correlated rack/PDU/power-emergency plans
                with circuit breakers, instead of per-node plans)]

Observability commands (DESIGN.md \u{a7}14):
  obs query     Filter a recorded JSONL trace  --trace FILE  [--track T]
                [--name N] [--from S] [--to S] [--limit N]
                [--quantiles METRIC]  (percentiles from bounded-memory
                sketches, \u{b1}1% relative error)
  obs report    Per-window serving table (req/s, p50/p99/p999, W, J/req,
                EP index, burn rate; per node group)  --trace FILE
  obs power     Simulated power-meter trace  [--utilization X]
                (formerly top-level `enprop trace`)

Exploration commands:
  footnote4     Configuration-space size (paper's 36,380 example)
  dynamic       Extension: dynamic configuration-switching envelope
  ablation      Extension: quadratic power-curve ablation (Hsu & Poole)
  pareto        Energy-deadline Pareto frontier  [--a9 N] [--k10 N]
  space         DALEK-style space exploration over any node-type mix
                [--types a9:10,k10:10,pi4:16 (NAME:MAX_NODES list; names
                a9, k10, a15, xeon, pi4, opi5)] [--max-configs N (first
                N configs of enumeration order)]; streamed with dominance
                pruning in O(frontier) memory, like pareto/sweet/export
  search        Extension: heuristic sweet-spot search  --deadline SECS
  export        Dump the evaluated configuration space as CSV  [--a9 N] [--k10 N]
  strategies    Extension: all energy strategies side by side
  sweet         Min-energy config under a deadline  --deadline SECS [--a9 N] [--k10 N]

Characterization commands:
  kernels       Run the real workload kernels on this host  [--scale X]
  power         Micro-benchmark power characterization of simulated nodes

Options:
  --workload W  Workload override (EP, memcached, x264, blackscholes, Julius, RSA-2048)
  --csv         Emit CSV instead of tables/ASCII plots
  --samples N   Simulation samples per measurement (default 5)
  --seed S      RNG seed (default 7)
  --a9 N        Max/count of A9 nodes for exploration commands (default 32)
  --k10 N       Max/count of K10 nodes for exploration commands (default 12)
  --deadline S  Deadline in seconds for `sweet`
  --scale X     Kernel size multiplier for `kernels` (default 0.2)
  --threads N   Worker threads for configuration-space evaluation
                (default: ENPROP_THREADS/RAYON_NUM_THREADS env, else all
                cores; results are bit-identical for any thread count)

Telemetry options (any command):
  --trace-out FILE    Write the sim-time trace: Chrome trace-event JSON
                      (open in Perfetto); a .jsonl suffix writes the raw
                      deterministic event stream instead
  --metrics-out FILE  Write an aggregate metrics snapshot: JSON, or flat
                      CSV with a .csv suffix
  --profile           Append this command's wall-clock time to BENCH_obs.json
  -v, --verbose       Informational diagnostics on stderr
  --quiet             Suppress explanatory notes (bare data only)

Fault options (for `faults`):
  --mtbf S          Per-node MTBF in seconds (default 4x the fault-free job time)
  --stall S         Also inject transient stalls of S seconds
  --slowdown X      Also inject stragglers running X times slower (X > 1)
  --retries N       Retry budget after the first attempt (default 3)
  --timeout-factor F  Attempt timeout as a multiple of the job time (default 3)
  --utilization U   Dispatcher load for the queue comparison (default 0.7)
  --jobs N          Jobs sampled under the plan (default 200)

Exit codes: 0 ok, 2 invalid configuration or parameter, 3 missing profile
or empty cluster, 4 cluster dead / retry budget exhausted.
(The companion `enprop-lint` binary uses 0 clean, 1 findings, 2 usage.)
";

fn parse_flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parse `--flag VALUE` as a number: `Ok(None)` when the flag is absent,
/// a typed [`EnpropError::InvalidParameter`] (exit code 2) when the value
/// is missing or malformed — never a panic.
fn parse_num<T: std::str::FromStr>(
    args: &[String],
    name: &'static str,
) -> Result<Option<T>, EnpropError> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let Some(raw) = args.get(i + 1) else {
        return Err(EnpropError::invalid_parameter(
            name,
            "flag given without a value",
        ));
    };
    raw.parse().map(Some).map_err(|_| {
        EnpropError::invalid_parameter(name, format!("expected a number, got {raw:?}"))
    })
}

/// [`parse_num`] for a flag whose value must be finite and positive.
fn parse_positive(args: &[String], name: &'static str) -> Result<Option<f64>, EnpropError> {
    match parse_num::<f64>(args, name)? {
        Some(v) if !(v.is_finite() && v > 0.0) => Err(EnpropError::invalid_parameter(
            name,
            format!("must be finite and > 0, got {v}"),
        )),
        v => Ok(v),
    }
}

/// [`parse_num`] for a count that must be at least 1: a run over none
/// would pass its own gate on no work.
fn parse_count<T>(args: &[String], name: &'static str) -> Result<Option<T>, EnpropError>
where
    T: std::str::FromStr + From<u8> + PartialEq,
{
    match parse_num::<T>(args, name)? {
        Some(v) if v == T::from(0) => Err(EnpropError::invalid_parameter(
            name,
            "must be at least 1, got 0",
        )),
        v => Ok(v),
    }
}

/// The power trace's `--utilization`: the busy fraction of one
/// observation interval, in [0, 1].
fn trace_utilization(args: &[String]) -> Result<f64, EnpropError> {
    let u: f64 = parse_num(args, "--utilization")?.unwrap_or(0.6);
    if !(0.0..=1.0).contains(&u) {
        return Err(EnpropError::invalid_parameter(
            "--utilization",
            format!("must be in [0, 1], got {u}"),
        ));
    }
    Ok(u)
}

/// The `--deadline` that `sweet` and `search` cannot run without: finite
/// and positive, since no configuration meets any other.
fn require_deadline(args: &[String], why: &'static str) -> Result<f64, EnpropError> {
    parse_positive(args, "--deadline")?
        .ok_or_else(|| EnpropError::invalid_parameter("--deadline", why))
}

/// Whether a panic is `print!`'s report that stdout's reader has gone
/// away (`enprop … | head -1`): a normal end for a command-line filter.
/// The standard library reports any failed write to stdout as a panic
/// with this message; its payload keeps only the text.
fn is_stdout_broken_pipe(payload: &(dyn std::any::Any + Send)) -> bool {
    payload
        .downcast_ref::<String>()
        .is_some_and(|m| m.starts_with("failed printing to stdout") && m.contains("Broken pipe"))
}

/// The flags that make a command write a file while or after it prints,
/// so that a closed stdout ends the command before the file is written
/// (or, for a checkpoint, brought up to date).
const FILE_OUTPUT_FLAGS: [&str; 4] = [
    "--trace-out",
    "--metrics-out",
    "--checkpoint-out",
    "--profile",
];

fn main() {
    // A closed stdout ends a command whose only output is stdout quietly
    // with status 0, as `head` expects, instead of a panic and a
    // backtrace on stderr. A command that was also asked for a file ends
    // with one stderr line naming it and status 2, as a failed write of
    // that file does.
    let unwritten: Vec<&str> = FILE_OUTPUT_FLAGS
        .into_iter()
        .filter(|flag| std::env::args().any(|a| a == *flag))
        .collect();
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if is_stdout_broken_pipe(info.payload()) {
            if unwritten.is_empty() {
                std::process::exit(0);
            }
            eprintln!(
                "error: stdout closed before the command finished; not written: {}",
                unwritten.join(", ")
            );
            std::process::exit(2);
        }
        default_hook(info);
    }));
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}

fn run() -> Result<(), EnpropError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };

    // Verbosity first, so every later diagnostic honors it.
    let quiet = args.iter().any(|a| a == "--quiet");
    let verbose = args.iter().any(|a| a == "-v" || a == "--verbose");
    diag::set_level(if quiet {
        diag::QUIET
    } else if verbose {
        diag::VERBOSE
    } else {
        diag::NORMAL
    });

    let mut opts = Opts {
        csv: args.iter().any(|a| a == "--csv"),
        ..Opts::default()
    };
    if let Some(n) = parse_num(&args, "--samples")? {
        opts.samples = n;
    }
    if opts.samples == 0 {
        return Err(EnpropError::invalid_parameter(
            "--samples",
            "must be at least 1, got 0",
        ));
    }
    if let Some(n) = parse_num(&args, "--seed")? {
        opts.seed = n;
    }
    opts.workload = parse_flag(&args, "--workload");
    let a9: u32 = parse_num(&args, "--a9")?.unwrap_or(32);
    let k10: u32 = parse_num(&args, "--k10")?.unwrap_or(12);
    let scale: f64 = parse_num(&args, "--scale")?.unwrap_or(0.2);
    if let Some(n) = parse_num::<usize>(&args, "--threads")? {
        enprop_explore::set_eval_threads(n);
    }
    diag::info(format!(
        "evaluation pool: {} worker thread(s)",
        enprop_explore::eval_threads()
    ));

    // Telemetry: recording turns on when any export is requested.
    let trace_out = parse_flag(&args, "--trace-out").map(PathBuf::from);
    let metrics_out = parse_flag(&args, "--metrics-out").map(PathBuf::from);
    let mut ctx = ObsCtx {
        rec: if trace_out.is_some() || metrics_out.is_some() {
            SwitchRecorder::on()
        } else {
            SwitchRecorder::Off
        },
        trace_out,
        metrics_out,
    };
    let timer = args
        .iter()
        .any(|a| a == "--profile")
        .then(|| CommandTimer::start(cmd.clone(), opts.seed));

    match cmd.as_str() {
        "table4" => tables::table4_cmd(&opts, &mut ctx),
        "table5" => tables::table5_cmd(&opts),
        "table6" => tables::table6_cmd(&opts),
        "table7" => tables::table7_cmd(&opts),
        "table8" => tables::table8_cmd(&opts),
        "fig2" => figures::fig2_cmd(&opts),
        "pg" => figures::pg_cmd(&opts),
        "fig5" => figures::fig5_cmd(&opts),
        "fig6" => figures::fig6_cmd(&opts),
        "fig7" => figures::fig7_cmd(&opts),
        "fig8" => figures::fig8_cmd(&opts),
        "fig9" => figures::fig9_cmd(&opts, "EP"),
        "fig10" => figures::fig9_cmd(&opts, "x264"),
        "fig11" => figures::fig11_cmd(&opts, "EP", &mut ctx),
        "fig12" => figures::fig11_cmd(&opts, "x264", &mut ctx),
        "footnote4" => explore_cmds::footnote4_cmd(&opts),
        "dynamic" => figures::dynamic_cmd(&opts),
        "ablation" => figures::ablation_cmd(&opts),
        "pareto" => explore_cmds::pareto_cmd(&opts, a9, k10, &mut ctx),
        "space" => {
            let so = explore_cmds::SpaceOpts {
                types: parse_flag(&args, "--types").unwrap_or_else(|| "a9:10,k10:10".into()),
                max_configs: parse_count(&args, "--max-configs")?,
            };
            explore_cmds::space_cmd(&opts, &so, &mut ctx)?;
        }
        "search" => {
            let deadline = require_deadline(&args, "search requires --deadline SECS")?;
            explore_cmds::search_cmd(&opts, a9, k10, deadline);
        }
        "strategies" => strategies::strategies_cmd(&opts),
        "export" => explore_cmds::export_cmd(&opts, a9, k10, &mut ctx),
        // `trace` is the hidden legacy spelling of `obs power`.
        "trace" => explore_cmds::trace_cmd(&opts, trace_utilization(&args)?, &mut ctx),
        "obs" => {
            let sub = args.get(1).cloned().unwrap_or_default();
            match sub.as_str() {
                "query" => {
                    let q = obs_cmd::ObsQueryOpts {
                        trace: parse_flag(&args, "--trace").map(PathBuf::from).ok_or_else(
                            || {
                                EnpropError::invalid_parameter(
                                    "--trace",
                                    "obs query requires --trace FILE (a --trace-out .jsonl export)",
                                )
                            },
                        )?,
                        track: parse_flag(&args, "--track"),
                        name: parse_flag(&args, "--name"),
                        from_s: parse_num(&args, "--from")?,
                        to_s: parse_num(&args, "--to")?,
                        quantiles: parse_flag(&args, "--quantiles"),
                        limit: parse_num(&args, "--limit")?.unwrap_or(50),
                    };
                    obs_cmd::query_cmd(&opts, &q)?;
                }
                "report" => {
                    let trace =
                        parse_flag(&args, "--trace")
                            .map(PathBuf::from)
                            .ok_or_else(|| {
                                EnpropError::invalid_parameter(
                                "--trace",
                                "obs report requires --trace FILE (a --trace-out .jsonl export)",
                            )
                            })?;
                    obs_cmd::report_cmd(&opts, &trace)?;
                }
                "power" => explore_cmds::trace_cmd(&opts, trace_utilization(&args)?, &mut ctx),
                other => {
                    return Err(EnpropError::invalid_parameter(
                        "obs",
                        format!("expected query, report or power, got {other:?}"),
                    ));
                }
            }
        }
        "sweet" => {
            let deadline = require_deadline(&args, "sweet requires --deadline SECS")?;
            explore_cmds::sweet_cmd(&opts, a9, k10, deadline, &mut ctx);
        }
        "kernels" => characterize_cmd::kernels_cmd(&opts, scale),
        "power" => characterize_cmd::power_cmd(&opts),
        "faults" => {
            let mut fo = faults_cmd::FaultOpts {
                mtbf_s: parse_num(&args, "--mtbf")?,
                stall_s: parse_num(&args, "--stall")?,
                slowdown: parse_num(&args, "--slowdown")?,
                ..faults_cmd::FaultOpts::default()
            };
            if let Some(n) = parse_num(&args, "--retries")? {
                fo.retries = n;
            }
            if let Some(f) = parse_num(&args, "--timeout-factor")? {
                fo.timeout_factor = f;
            }
            if let Some(u) = parse_num(&args, "--utilization")? {
                fo.utilization = u;
            }
            if let Some(n) = parse_num(&args, "--jobs")? {
                fo.jobs = n;
            }
            faults_cmd::faults_cmd(&opts, &fo, a9, k10, &mut ctx)?;
        }
        "serve" | "replay" | "chaos" => {
            let mut so = serve_cmd::ServeOpts {
                rate: parse_positive(&args, "--rate")?,
                ops_per_request: parse_positive(&args, "--ops-per-request")?,
                mtbf_s: parse_num(&args, "--mtbf")?,
                stall_s: parse_num(&args, "--stall")?,
                slowdown: parse_num(&args, "--slowdown")?,
                emit_arrivals: parse_flag(&args, "--emit-arrivals").map(PathBuf::from),
                ..serve_cmd::ServeOpts::new(opts.seed)
            };
            if let Some(n) = parse_count(&args, "--requests")? {
                so.requests = n;
            }
            if let Some(u) = parse_positive(&args, "--utilization")? {
                so.utilization = u;
            }
            if let Some(a) = parse_flag(&args, "--arrival") {
                so.arrival = a;
            }
            if let Some(p) = parse_num(&args, "--period")? {
                so.period_s = p;
            }
            if let Some(s) = parse_num(&args, "--slo-p95")? {
                so.cfg.slo_p95_s = s;
            }
            so.cfg.slo_p999_s = parse_num(&args, "--slo-p999")?;
            if let Some(w) = parse_num(&args, "--power-cap")? {
                so.cfg.power_cap_w = w;
            }
            so.live_report_s = parse_positive(&args, "--live-report")?;
            if let Some(w) = so.live_report_s {
                so.cfg.obs_window_s = w;
            }
            so.checkpoint_out = parse_flag(&args, "--checkpoint-out").map(PathBuf::from);
            so.resume_from = parse_flag(&args, "--resume-from").map(PathBuf::from);
            so.kill_after_events = parse_num(&args, "--kill-after-events")?;
            so.best_effort = parse_num(&args, "--best-effort")?;
            so.rack_mtbf_s = parse_num(&args, "--rack-mtbf")?;
            so.pdu_mtbf_s = parse_num(&args, "--pdu-mtbf")?;
            so.emergency_mtbf_s = parse_num(&args, "--emergency-mtbf")?;
            so.emergency_cap_w = parse_num(&args, "--emergency-cap")?;
            if let Some(n) = parse_num(&args, "--nodes-per-rack")? {
                so.nodes_per_rack = n;
            }
            if let Some(n) = parse_num(&args, "--racks-per-pdu")? {
                so.racks_per_pdu = n;
            }
            so.domains = args.iter().any(|a| a == "--domains");
            if let Some(r) = parse_num(&args, "--repair")? {
                so.cfg.repair_s = r;
            }
            if let Some(m) = parse_num(&args, "--max-inflight")? {
                so.cfg.max_inflight = m;
            }
            if let Some(p) = parse_count(&args, "--plans")? {
                so.plans = p;
            }
            // Serving defaults to a small always-on cluster, not the
            // exploration bound of 32+12 nodes.
            let a9_serve: u32 = parse_num(&args, "--a9")?.unwrap_or(6);
            let k10_serve: u32 = parse_num(&args, "--k10")?.unwrap_or(2);
            match cmd.as_str() {
                "serve" => serve_cmd::serve_cmd(&opts, &so, a9_serve, k10_serve, &mut ctx)?,
                "replay" => {
                    let trace =
                        parse_flag(&args, "--trace")
                            .map(PathBuf::from)
                            .ok_or_else(|| {
                                EnpropError::invalid_parameter(
                                    "--trace",
                                    "replay requires --trace FILE",
                                )
                            })?;
                    serve_cmd::replay_cmd(&opts, &so, &trace, a9_serve, k10_serve, &mut ctx)?;
                }
                _ => serve_cmd::chaos_cmd(&opts, &so, a9_serve, k10_serve)?,
            }
        }
        "all" => {
            tables::table4_cmd(&opts, &mut ctx);
            println!();
            tables::table5_cmd(&opts);
            println!();
            tables::table6_cmd(&opts);
            println!();
            tables::table7_cmd(&opts);
            println!();
            tables::table8_cmd(&opts);
            println!();
            figures::fig2_cmd(&opts);
            println!();
            figures::fig5_cmd(&opts);
            figures::fig6_cmd(&opts);
            figures::fig7_cmd(&opts);
            println!();
            figures::fig8_cmd(&opts);
            println!();
            figures::fig9_cmd(&opts, "EP");
            println!();
            figures::fig9_cmd(&opts, "x264");
            println!();
            figures::fig11_cmd(&opts, "EP", &mut ctx);
            println!();
            figures::fig11_cmd(&opts, "x264", &mut ctx);
            println!();
            explore_cmds::footnote4_cmd(&opts);
            println!();
            figures::dynamic_cmd(&opts);
            println!();
            figures::ablation_cmd(&opts);
            println!();
            strategies::strategies_cmd(&opts);
        }
        "--help" | "-h" | "help" => print!("{USAGE}"),
        other => {
            eprintln!("unknown command: {other}\n");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    }

    write_outputs(&ctx)?;
    if let Some(t) = timer {
        let record = t.finish();
        let path = Path::new("BENCH_obs.json");
        append_bench_record(path, &record).map_err(|e| {
            EnpropError::invalid_config(format!("cannot append {}: {e}", path.display()))
        })?;
        diag::info(format!(
            "profiled {}: {:.1} ms (appended to {})",
            record.cmd,
            record.wall_ms,
            path.display()
        ));
    }
    Ok(())
}

/// Write the requested telemetry exports. File-format selection is by
/// suffix: `--trace-out x.jsonl` writes the raw deterministic event
/// stream (the golden-test format), anything else a Chrome trace-event
/// document; `--metrics-out x.csv` writes flat CSV, anything else JSON.
fn write_outputs(ctx: &ObsCtx) -> Result<(), EnpropError> {
    let Some(mem) = ctx.rec.as_memory() else {
        return Ok(());
    };
    let write = |path: &Path, body: String| -> Result<(), EnpropError> {
        std::fs::write(path, body).map_err(|e| {
            EnpropError::invalid_config(format!("cannot write {}: {e}", path.display()))
        })
    };
    if let Some(path) = &ctx.trace_out {
        let body = if path.extension().is_some_and(|x| x == "jsonl") {
            jsonl(mem.events())
        } else {
            chrome_trace(mem.events())
        };
        write(path, body)?;
        diag::info(format!(
            "wrote {} trace events to {}",
            mem.len(),
            path.display()
        ));
    }
    if let Some(path) = &ctx.metrics_out {
        let snap = MetricsSnapshot::from_recorder(mem);
        let body = if path.extension().is_some_and(|x| x == "csv") {
            snap.to_csv()
        } else {
            snap.to_json()
        };
        write(path, body)?;
        diag::info(format!("wrote metrics snapshot to {}", path.display()));
    }
    Ok(())
}
