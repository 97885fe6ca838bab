//! Configuration-space commands: footnote-4 counting, the Pareto frontier,
//! sweet-spot queries and the CSV export. Every sweep goes through the
//! streamed, dominance-pruned `stream_pareto_front` (DESIGN.md §17).

use super::Opts;
use crate::diag;
use crate::output::{fmt_sig, render_csv, render_table};
use enprop_clustersim::EnpropError;
use enprop_explore::{
    configurations, count_configurations, evaluate_config, stream_pareto_front, sweet_spot,
    EvalCache, EvalStats, EvaluatedConfig, ParetoPoint, StreamOptions, TypeSpace,
};
use enprop_obs::{Recorder, Track};
use enprop_workloads::{catalog, Workload};

/// Stream the energy-deadline Pareto frontier of the first `max_configs`
/// configurations of a space (all of them when `None`), narrating what
/// the evaluator did: prune and evaluation counts and the peak buffer go
/// to `-v` diagnostics, and (when recording) to the `explore` telemetry
/// track as counters stamped at the number of configurations walked.
/// Everything emitted is deterministic for a given space, cap and thread
/// count (the prune count depends on the shard layout).
fn stream_front(
    w: &Workload,
    types: &[TypeSpace],
    max_configs: Option<u64>,
    ctx: &mut super::ObsCtx,
) -> (Vec<ParetoPoint>, EvalStats) {
    let stream_opts = StreamOptions {
        max_configs,
        ..StreamOptions::default()
    };
    let (front, stats) = stream_pareto_front(w, types, stream_opts);
    let walked = stats.evaluated as u64 + stats.pruned;
    diag::info(format!(
        "{} of {walked} configurations pruned before evaluation ({:.1}%), \
         {} fully evaluated on {} thread(s)",
        stats.pruned,
        100.0 * stats.pruned as f64 / walked.max(1) as f64,
        stats.evaluated,
        stats.threads
    ));
    diag::info(format!(
        "peak evaluation buffer: {} KiB; frontier {} point(s)",
        stats.peak_buffer_bytes / 1024,
        front.len()
    ));
    if let Some(rec) = ctx.rec.as_memory_mut() {
        let t_end = walked as f64;
        rec.counter(t_end, Track::Explore, "explore.configs", walked);
        rec.counter(t_end, Track::Explore, "explore.stream.pruned", stats.pruned);
        rec.counter(
            t_end,
            Track::Explore,
            "explore.stream.frontier_len",
            front.len() as u64,
        );
        rec.counter(
            t_end,
            Track::Explore,
            "explore.stream.peak_buffer_bytes",
            stats.peak_buffer_bytes as u64,
        );
        if let Some(c) = stats.cache {
            rec.counter(t_end, Track::Explore, "explore.cache.hits", c.hits);
            rec.counter(t_end, Track::Explore, "explore.cache.misses", c.misses);
        }
    }
    (front, stats)
}

/// Print the first 40 frontier points as a table (or CSV), plus a line
/// counting the points the table leaves out.
fn print_frontier(opts: &Opts, front: &[ParetoPoint]) {
    let mut rows = vec![vec![
        "Configuration".into(),
        "cores/freq".into(),
        "T_job [s]".into(),
        "E_job [J]".into(),
        "P_busy [W]".into(),
        "P_idle [W]".into(),
    ]];
    for p in front.iter().take(40) {
        let e = &p.eval;
        let cf: Vec<String> = e
            .cluster
            .groups
            .iter()
            .filter(|g| g.count > 0)
            .map(|g| format!("{}x{}c@{:.1}GHz", g.spec.name, g.cores, g.freq / 1e9))
            .collect();
        rows.push(vec![
            e.cluster.label(),
            cf.join(" "),
            fmt_sig(e.job_time),
            fmt_sig(e.job_energy),
            fmt_sig(e.busy_power_w),
            fmt_sig(e.idle_power_w),
        ]);
    }
    if opts.csv {
        print!("{}", render_csv(&rows));
    } else {
        print!("{}", render_table(&rows));
        if front.len() > 40 {
            println!("… {} more frontier points", front.len() - 40);
        }
    }
}

/// Footnote 4: the configuration count for 10 ARM + 10 AMD nodes.
pub fn footnote4_cmd(_opts: &Opts) {
    println!("Footnote 4: configuration-space size\n");
    let cases = [(10u32, 10u32), (32, 12), (4, 2)];
    for (a9, k10) in cases {
        let types = [TypeSpace::a9(a9), TypeSpace::k10(k10)];
        println!(
            "  {a9} A9 + {k10} K10  ->  {} configurations",
            count_configurations(&types)
        );
    }
    println!("\n(the paper's example: 10 + 10 nodes -> 36,380)");
}

/// Pareto frontier of a bounded configuration space for one workload.
pub fn pareto_cmd(opts: &Opts, a9_max: u32, k10_max: u32, ctx: &mut super::ObsCtx) {
    let name = opts.workload.clone().unwrap_or_else(|| "EP".into());
    let w = super::resolve_workload(&name);
    let types = [TypeSpace::a9(a9_max), TypeSpace::k10(k10_max)];
    let n = count_configurations(&types);
    println!(
        "Energy-deadline Pareto frontier: {name} over <= {a9_max} A9 + <= {k10_max} K10 \
         ({n} configurations)\n"
    );
    let (front, _) = stream_front(&w, &types, None, ctx);
    print_frontier(opts, &front);
    if !opts.csv {
        println!("\nfrontier size: {} of {n} configurations", front.len());
    }
}

/// Options of the `space` command.
#[derive(Debug, Clone)]
pub struct SpaceOpts {
    /// The `--types a9:10,k10:10,pi4:16` space description.
    pub types: String,
    /// Evaluate only the first N configurations of enumeration order.
    pub max_configs: Option<u64>,
}

fn parse_type_list(arg: &str) -> Result<Vec<TypeSpace>, EnpropError> {
    let mut types = Vec::new();
    for part in arg.split(',') {
        let (name, count) = part.split_once(':').ok_or_else(|| {
            EnpropError::invalid_parameter(
                "--types",
                format!("expected NAME:MAX_NODES entries, got {part:?}"),
            )
        })?;
        let max_nodes: u32 = count.trim().parse().map_err(|_| {
            EnpropError::invalid_parameter(
                "--types",
                format!("max nodes in {part:?} is not a number"),
            )
        })?;
        types.push(TypeSpace::try_named(name.trim(), max_nodes)?);
    }
    if types.is_empty() {
        return Err(EnpropError::invalid_parameter(
            "--types",
            "at least one NAME:MAX_NODES entry required",
        ));
    }
    Ok(types)
}

/// `enprop space`: DALEK-style configuration-space exploration over any
/// mix of catalog node types. The streamed evaluator holds one table row
/// per `(cores, freq)` point of each type, a few words per worker and the
/// frontier, so its memory grows with neither the space nor the per-type
/// node bounds.
pub fn space_cmd(opts: &Opts, so: &SpaceOpts, ctx: &mut super::ObsCtx) -> Result<(), EnpropError> {
    let name = opts.workload.clone().unwrap_or_else(|| "EP".into());
    // The DALEK catalog carries profiles for all six node types and keeps
    // the A9/K10 rows identical to the base catalog, so any --types mix
    // resolves against one workload object.
    let w = catalog::dalek(&name).unwrap_or_else(|| super::resolve_workload(&name));
    let types = parse_type_list(&so.types)?;
    let total = count_configurations(&types);

    println!("Configuration space: {name} over {}\n", so.types);
    let mut fleet = vec![vec![
        "Type".into(),
        "max nodes".into(),
        "tuples".into(),
        "fleet idle [W]".into(),
        "fleet switch [W]".into(),
    ]];
    for t in &types {
        fleet.push(vec![
            t.spec.name.to_string(),
            t.max_nodes.to_string(),
            t.tuple_count().to_string(),
            fmt_sig(t.fleet_idle_w()),
            fmt_sig(t.fleet_switch_w()),
        ]);
    }
    if opts.csv {
        print!("{}", render_csv(&fleet));
    } else {
        print!("{}", render_table(&fleet));
    }
    println!("\ntotal configurations: {total}");

    let (front, stats) = stream_front(&w, &types, so.max_configs, ctx);
    println!();
    print_frontier(opts, &front);
    if !opts.csv {
        println!(
            "\nfrontier: {} of {} configurations ({} pruned before evaluation)",
            front.len(),
            stats.evaluated as u64 + stats.pruned,
            stats.pruned
        );
    }
    Ok(())
}

/// The configuration `sweet` or `search` picked, under `label`: its
/// groups one per line, then its job time and energy.
fn print_pick(label: &str, e: &EvaluatedConfig) {
    println!("  {label:<13} : {}", e.cluster.label());
    for g in e.cluster.groups.iter().filter(|g| g.count > 0) {
        println!(
            "    {} x{}: {} cores @ {:.2} GHz",
            g.spec.name,
            g.count,
            g.cores,
            g.freq / 1e9
        );
    }
    println!("  job time      : {} s", fmt_sig(e.job_time));
    println!("  job energy    : {} J", fmt_sig(e.job_energy));
}

/// Sweet-spot query: minimum-energy configuration under a deadline.
pub fn sweet_cmd(opts: &Opts, a9_max: u32, k10_max: u32, deadline: f64, ctx: &mut super::ObsCtx) {
    let name = opts.workload.clone().unwrap_or_else(|| "EP".into());
    let w = super::resolve_workload(&name);
    let types = [TypeSpace::a9(a9_max), TypeSpace::k10(k10_max)];
    // The sweet spot is never dominated, so the frontier holds it.
    let (front, _) = stream_front(&w, &types, None, ctx);
    let evals: Vec<EvaluatedConfig> = front.into_iter().map(|p| p.eval).collect();
    println!("Sweet spot for {name} with deadline {deadline} s:\n");
    match sweet_spot(&evals, deadline) {
        Some(best) => {
            print_pick("configuration", best);
            println!("  nameplate     : {} W", fmt_sig(best.nameplate_w));
        }
        None => println!("  no configuration meets the deadline"),
    }
}

/// Power trace of one observation interval (simulated WT210 log). The
/// trace itself is derived from the recorder's power-sample stream; with
/// `--trace-out` the same samples land in the exported trace.
pub fn trace_cmd(opts: &Opts, utilization: f64, ctx: &mut super::ObsCtx) {
    use enprop_clustersim::{ClusterSim, ClusterSpec};
    let name = opts.workload.clone().unwrap_or_else(|| "EP".into());
    let w = super::resolve_workload(&name);
    let cluster = ClusterSpec::a9_k10(8, 2);
    let sim = ClusterSim::new(&w, &cluster);
    let mean = sim.sample_jobs(3, opts.seed);
    let period = mean.duration * 20.0;
    let trace = match ctx.rec.as_memory_mut() {
        Some(m) => sim.power_trace_obs(utilization, period, opts.seed, m),
        None => sim.power_trace(utilization, period, opts.seed),
    };
    println!(
        "Power trace: {name} on {} at {:.0}% load over {:.2} s\n",
        cluster.label(),
        utilization * 100.0,
        period
    );
    if opts.csv {
        println!("t_start,watts");
        for &(t, p) in &trace.segments {
            println!("{t},{p}");
        }
    } else {
        for &(t, p) in trace.segments.iter().take(24) {
            let bar = "#".repeat((p / trace.mean_power() * 24.0) as usize);
            println!("  {t:>8.3} s  {p:>8.1} W  {bar}");
        }
        if trace.segments.len() > 24 {
            println!("  … {} more segments", trace.segments.len() - 24);
        }
        println!(
            "\nmean power {:.1} W; energy {:.1} J (= integral of the trace)",
            trace.mean_power(),
            trace.energy()
        );
    }
}

/// Heuristic search demo: sweet spot without enumeration.
pub fn search_cmd(opts: &Opts, a9_max: u32, k10_max: u32, deadline: f64) {
    use enprop_explore::local_search;
    let name = opts.workload.clone().unwrap_or_else(|| "EP".into());
    let w = super::resolve_workload(&name);
    let types = [TypeSpace::a9(a9_max), TypeSpace::k10(k10_max)];
    let space = count_configurations(&types);
    let result = local_search(&w, &types, deadline, 12, opts.seed);
    println!(
        "Heuristic search: {name}, deadline {deadline} s over a {space}-configuration space\n"
    );
    match result.best {
        Some(best) => print_pick("found", &best),
        None => println!("  no feasible configuration found"),
    }
    println!(
        "  evaluations   : {} ({:.1}% of enumeration)",
        result.evaluations,
        100.0 * result.evaluations as f64 / space as f64
    );
    println!(
        "  memo hits     : {} revisited states answered without the model",
        result.cache_hits
    );
}

/// Export the evaluated configuration space as CSV (for external
/// analysis/plotting tools): one pass over the enumeration through one
/// operating-point memo, flagging the frontier's ranks.
pub fn export_cmd(opts: &Opts, a9_max: u32, k10_max: u32, ctx: &mut super::ObsCtx) {
    let name = opts.workload.clone().unwrap_or_else(|| "EP".into());
    let w = super::resolve_workload(&name);
    let types = [TypeSpace::a9(a9_max), TypeSpace::k10(k10_max)];
    let (front, _) = stream_front(&w, &types, None, ctx);
    let mut front_ranks: Vec<u64> = front.iter().map(|p| p.index).collect();
    front_ranks.sort_unstable();
    let cache = EvalCache::new(&w);
    println!("workload,a9,k10,a9_cores,a9_ghz,k10_cores,k10_ghz,job_time_s,job_energy_j,busy_w,idle_w,nameplate_w,on_pareto_front");
    for (rank, cluster) in (0u64..).zip(configurations(&types)) {
        let e = evaluate_config(&w, cluster, Some(&cache));
        // Absent types are omitted from the group list; look up by name.
        let g = |name: &str| e.cluster.groups.iter().find(|g| g.spec.name == name);
        let (a9n, a9c, a9f) = g("A9").map_or((0, 0, 0.0), |g| (g.count, g.cores, g.freq / 1e9));
        let (k10n, k10c, k10f) = g("K10").map_or((0, 0, 0.0), |g| (g.count, g.cores, g.freq / 1e9));
        println!(
            "{},{a9n},{k10n},{a9c},{a9f},{k10c},{k10f},{},{},{},{},{},{}",
            w.name,
            e.job_time,
            e.job_energy,
            e.busy_power_w,
            e.idle_power_w,
            e.nameplate_w,
            front_ranks.binary_search(&rank).is_ok()
        );
    }
}
