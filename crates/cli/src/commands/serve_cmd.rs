//! `enprop serve` / `enprop replay` / `enprop chaos` — the online serving
//! mode: a fault-tolerant virtual-time cluster controller fed by a
//! synthetic load generator, a recorded JSONL arrival trace, or a chaos
//! sweep of randomized fault plans.

use super::{ObsCtx, Opts};
use crate::output::render_csv;
use enprop_clustersim::{
    ClusterSpec, EnpropError, FaultKind, FaultPlan, GroupFaultProfile, MtbfModel,
};
use enprop_faults::{DomainFaultKind, DomainFaultProfile, Topology, TopologyFaultPlan};
use enprop_serve::{
    chaos_sweep, cluster_capacity_ops_s, default_ops_per_request, format_trace, parse_trace,
    Arrival, ArrivalModel, ArrivalSource, Controller, ReplayCursor, RunHooks, RunOutcome,
    ServeConfig, ServeReport, SyntheticArrivals, WindowReport,
};
use enprop_workloads::catalog;
use std::path::{Path, PathBuf};

/// How long a `--emergency-mtbf` power emergency holds its cap. A fixed
/// length keeps the flag surface to the two knobs that matter (how often,
/// how hard); sweeps that need varied lengths use the chaos harness.
const EMERGENCY_DURATION_S: f64 = 10.0;

/// Knobs of the serving commands (parsed from the command line in `main`).
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Requests to generate (`serve`) or sample per chaos plan.
    pub requests: u64,
    /// Offered load as a fraction of fault-free cluster capacity (used
    /// when `--rate` is absent).
    pub utilization: f64,
    /// Explicit mean arrival rate, requests/second (overrides
    /// `--utilization`).
    pub rate: Option<f64>,
    /// Arrival process: `"poisson"` or `"diurnal"`.
    pub arrival: String,
    /// Diurnal cycle length, seconds.
    pub period_s: f64,
    /// Request size override, operations.
    pub ops_per_request: Option<f64>,
    /// p95 response-time objective, seconds.
    pub slo_p95_s: f64,
    /// Cluster power cap, watts (absent = uncapped).
    pub power_cap_w: Option<f64>,
    /// Per-node MTBF, seconds (absent = no fault injection).
    pub mtbf_s: Option<f64>,
    /// Stall length, seconds (adds a stall fault kind).
    pub stall_s: Option<f64>,
    /// Straggler slowdown factor (adds a straggler fault kind).
    pub slowdown: Option<f64>,
    /// Repair time for detected-down nodes, seconds.
    pub repair_s: f64,
    /// Admission-control bound on in-flight requests.
    pub max_inflight: usize,
    /// Write the generated arrival stream to this JSONL file (replayable
    /// with `enprop replay --trace FILE`).
    pub emit_arrivals: Option<PathBuf>,
    /// Chaos sweep width (plans swept by `enprop chaos`).
    pub plans: u32,
    /// Optional p999 response-time objective, seconds (an additional SLO
    /// constraint in the control loop).
    pub slo_p999_s: Option<f64>,
    /// Print one observability-plane window row per this many virtual
    /// seconds as the run progresses (sets the plane's window length).
    pub live_report_s: Option<f64>,
    /// Write a crash-consistent snapshot here at every closed obs window
    /// (tmp-then-rename, so a kill mid-write never corrupts it).
    pub checkpoint_out: Option<PathBuf>,
    /// Resume a killed run from this snapshot instead of starting fresh.
    pub resume_from: Option<PathBuf>,
    /// Abandon the run (as a crash would) after this many events — pairs
    /// with `--checkpoint-out` to exercise resume end to end.
    pub kill_after_events: Option<u64>,
    /// Fraction of synthetic arrivals tagged best-effort (shed first by
    /// the degradation ladder).
    pub best_effort: Option<f64>,
    /// Rack MTBF, seconds: correlated rack crashes (absent = none).
    pub rack_mtbf_s: Option<f64>,
    /// PDU MTBF, seconds: correlated power losses (absent = none).
    pub pdu_mtbf_s: Option<f64>,
    /// Cluster-wide power-emergency MTBF, seconds (requires
    /// `--emergency-cap`).
    pub emergency_mtbf_s: Option<f64>,
    /// Power-emergency cap, watts (requires `--emergency-mtbf`).
    pub emergency_cap_w: Option<f64>,
    /// Physical placement: nodes per rack.
    pub nodes_per_rack: usize,
    /// Physical placement: racks per PDU.
    pub racks_per_pdu: usize,
    /// `enprop chaos --domains`: sweep correlated-failure plans
    /// (rack/PDU/emergency blasts) instead of independent per-node plans.
    pub domains: bool,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            requests: 10_000,
            utilization: 0.6,
            rate: None,
            arrival: "poisson".into(),
            period_s: 60.0,
            ops_per_request: None,
            slo_p95_s: 0.25,
            power_cap_w: None,
            mtbf_s: None,
            stall_s: None,
            slowdown: None,
            repair_s: 30.0,
            max_inflight: 10_000,
            emit_arrivals: None,
            plans: 8,
            slo_p999_s: None,
            live_report_s: None,
            checkpoint_out: None,
            resume_from: None,
            kill_after_events: None,
            best_effort: None,
            rack_mtbf_s: None,
            pdu_mtbf_s: None,
            emergency_mtbf_s: None,
            emergency_cap_w: None,
            nodes_per_rack: 4,
            racks_per_pdu: 2,
            domains: false,
        }
    }
}

/// The serving workload default: the paper's latency-sensitive service.
fn serving_workload(opts: &Opts) -> Result<enprop_workloads::Workload, EnpropError> {
    let name = opts.workload.clone().unwrap_or_else(|| "memcached".into());
    catalog::try_by_name(&name)
}

/// Build the controller config shared by `serve` and `replay`.
fn serve_config(opts: &Opts, so: &ServeOpts) -> ServeConfig {
    let mut cfg = ServeConfig::new(opts.seed);
    cfg.slo_p95_s = so.slo_p95_s;
    cfg.power_cap_w = so.power_cap_w.unwrap_or(f64::INFINITY);
    cfg.repair_s = so.repair_s;
    cfg.max_inflight = so.max_inflight;
    cfg.slo_p999_s = so.slo_p999_s;
    if let Some(w) = so.live_report_s {
        cfg.obs_window_s = w;
    }
    cfg
}

/// The `--live-report` sink: a header once, then one fixed-width row per
/// closed plane window, streamed as virtual time advances.
fn live_sink(enabled: bool) -> impl FnMut(&WindowReport) {
    let mut printed_header = false;
    move |w: &WindowReport| {
        if !enabled {
            return;
        }
        if !printed_header {
            println!("{}", WindowReport::header());
            printed_header = true;
        }
        println!("{}", w.row());
    }
}

/// Build the fault plan from the `--mtbf`/`--stall`/`--slowdown` flags
/// (inert when `--mtbf` is absent, matching `enprop faults` semantics).
fn serve_plan(opts: &Opts, so: &ServeOpts, groups: usize) -> FaultPlan {
    let Some(mtbf_s) = so.mtbf_s else {
        return FaultPlan::none();
    };
    let mut kinds = vec![(1.0, FaultKind::Crash)];
    if let Some(duration_s) = so.stall_s {
        kinds.push((1.0, FaultKind::Stall { duration_s }));
    }
    if let Some(slowdown) = so.slowdown {
        kinds.push((1.0, FaultKind::Straggler { slowdown }));
    }
    FaultPlan::uniform(
        opts.seed,
        GroupFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s },
            kinds,
        },
        groups,
    )
}

/// Build the correlated-failure plan from the topology flags. `None`
/// when no topology flag was given; the emergency flags must come as a
/// pair (a rate without a cap — or a cap without a rate — is a typed
/// parameter error, not a guess).
fn serve_topology(
    opts: &Opts,
    so: &ServeOpts,
    n_nodes: usize,
) -> Result<Option<TopologyFaultPlan>, EnpropError> {
    let any = so.rack_mtbf_s.is_some()
        || so.pdu_mtbf_s.is_some()
        || so.emergency_mtbf_s.is_some()
        || so.emergency_cap_w.is_some();
    if !any {
        return Ok(None);
    }
    match (so.emergency_mtbf_s, so.emergency_cap_w) {
        (Some(_), None) => {
            return Err(EnpropError::invalid_parameter(
                "--emergency-cap",
                "--emergency-mtbf needs --emergency-cap W (how hard to cap)",
            ));
        }
        (None, Some(_)) => {
            return Err(EnpropError::invalid_parameter(
                "--emergency-mtbf",
                "--emergency-cap needs --emergency-mtbf S (how often emergencies strike)",
            ));
        }
        _ => {}
    }
    let mut plan =
        TopologyFaultPlan::none(Topology::new(n_nodes, so.nodes_per_rack, so.racks_per_pdu)?);
    plan.seed = opts.seed;
    if let Some(mtbf_s) = so.rack_mtbf_s {
        plan.rack = DomainFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s },
            kinds: vec![(1.0, DomainFaultKind::RackCrash)],
        };
    }
    if let Some(mtbf_s) = so.pdu_mtbf_s {
        plan.pdu = DomainFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s },
            kinds: vec![(1.0, DomainFaultKind::PduLoss)],
        };
    }
    if let (Some(mtbf_s), Some(cap_w)) = (so.emergency_mtbf_s, so.emergency_cap_w) {
        plan.cluster = DomainFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s },
            kinds: vec![(
                1.0,
                DomainFaultKind::PowerEmergency {
                    cap_w,
                    duration_s: EMERGENCY_DURATION_S,
                },
            )],
        };
    }
    plan.validate()?;
    Ok(Some(plan))
}

/// Write one checkpoint crash-consistently: to `<path>.tmp`, then rename
/// over `path`. A kill mid-write leaves the previous snapshot intact; the
/// snapshot's own trailer line guards against torn renames on exotic
/// filesystems.
fn write_checkpoint(path: &Path, snapshot: &str) -> Result<(), EnpropError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, snapshot)
        .map_err(|e| EnpropError::invalid_config(format!("cannot write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        EnpropError::invalid_config(format!(
            "cannot rename {} over {}: {e}",
            tmp.display(),
            path.display()
        ))
    })
}

/// Shared tail of `serve` and `replay`: wire the hooks (live report,
/// checkpoint sink, kill switch), run or resume the controller, and print
/// the report — or the crash notice when `--kill-after-events` fired.
#[allow(clippy::too_many_arguments)]
fn run_serving(
    opts: &Opts,
    so: &ServeOpts,
    workload: &enprop_workloads::Workload,
    cluster: &ClusterSpec,
    plan: &FaultPlan,
    topo: Option<&TopologyFaultPlan>,
    cfg: &ServeConfig,
    source: &mut ArrivalSource,
    mode: &str,
    ctx: &mut ObsCtx,
) -> Result<(), EnpropError> {
    let mut live = live_sink(so.live_report_s.is_some());
    // The checkpoint sink cannot return an error through the hook, so it
    // parks the first failure here and the run surfaces it on exit.
    let mut cp_err: Option<EnpropError> = None;
    let cp_path = so.checkpoint_out.clone();
    let mut cp_sink = |snap: &str| {
        if let Some(path) = &cp_path {
            if cp_err.is_none() {
                cp_err = write_checkpoint(path, snap).err();
            }
        }
    };
    let mut hooks = RunHooks {
        live: &mut live,
        checkpoint: so
            .checkpoint_out
            .is_some()
            .then_some(&mut cp_sink as &mut dyn FnMut(&str)),
        kill_after_events: so.kill_after_events,
    };
    let outcome = if let Some(snap_path) = &so.resume_from {
        let snapshot = std::fs::read_to_string(snap_path).map_err(|e| {
            EnpropError::invalid_config(format!("cannot read {}: {e}", snap_path.display()))
        })?;
        Controller::resume_full(
            workload,
            cluster,
            plan,
            topo,
            cfg,
            source,
            &mut ctx.rec,
            &snapshot,
            &mut hooks,
        )?
    } else {
        Controller::run_full(
            workload,
            cluster,
            plan,
            topo,
            cfg,
            source,
            &mut ctx.rec,
            &mut hooks,
        )?
    };
    if let Some(e) = cp_err {
        return Err(e);
    }
    match outcome {
        RunOutcome::Completed(report) => {
            print_report(opts, workload.name, cluster, mode, &report);
        }
        RunOutcome::Killed { events, at_s } => {
            println!(
                "run killed after {events} events at t = {at_s:.3} virtual s (simulated crash; \
                 no report)"
            );
            if let Some(path) = &so.checkpoint_out {
                println!(
                    "resume with: enprop {mode} --resume-from {} <same flags>",
                    path.display()
                );
            }
        }
    }
    Ok(())
}

/// `enprop serve`: generate a synthetic arrival stream and run the online
/// controller over it, optionally writing the stream out for replay.
pub fn serve_cmd(
    opts: &Opts,
    so: &ServeOpts,
    a9: u32,
    k10: u32,
    ctx: &mut ObsCtx,
) -> Result<(), EnpropError> {
    let workload = serving_workload(opts)?;
    let cluster = ClusterSpec::a9_k10(a9, k10);
    let ops = match so.ops_per_request {
        Some(o) => o,
        None => default_ops_per_request(&workload, &cluster)?,
    };
    let rate = match so.rate {
        Some(r) => r,
        None => so.utilization * cluster_capacity_ops_s(&workload, &cluster)? / ops,
    };
    let model = match so.arrival.as_str() {
        "poisson" => ArrivalModel::Poisson { rate },
        "diurnal" => ArrivalModel::Diurnal {
            // The requested rate is the cycle mean; the sinusoid swings
            // symmetrically to half / one-and-a-half of it.
            base_rate: rate * 0.5,
            peak_rate: rate * 1.5,
            period_s: so.period_s,
        },
        other => {
            return Err(EnpropError::invalid_parameter(
                "--arrival",
                format!("expected poisson or diurnal, got {other}"),
            ));
        }
    };
    // Materialize the stream so `--emit-arrivals` and the run see the
    // exact same timeline.
    let mut generator = SyntheticArrivals::new(model, so.requests, ops, 0.2, opts.seed)?;
    if let Some(frac) = so.best_effort {
        generator = generator.with_best_effort(frac)?;
    }
    let mut arrivals: Vec<Arrival> = Vec::with_capacity(so.requests as usize);
    while let Some(a) = generator.next_arrival() {
        arrivals.push(a);
    }
    if let Some(path) = &so.emit_arrivals {
        std::fs::write(path, format_trace(&arrivals)).map_err(|e| {
            EnpropError::invalid_config(format!("cannot write {}: {e}", path.display()))
        })?;
        crate::diag::info(format!(
            "wrote {} arrivals to {}",
            arrivals.len(),
            path.display()
        ));
    }

    let plan = serve_plan(opts, so, cluster.groups.len());
    let topo = serve_topology(opts, so, cluster.node_count() as usize)?;
    let cfg = serve_config(opts, so);
    let mut source = ArrivalSource::Replay(ReplayCursor::new(arrivals));
    run_serving(
        opts,
        so,
        &workload,
        &cluster,
        &plan,
        topo.as_ref(),
        &cfg,
        &mut source,
        "serve",
        ctx,
    )
}

/// `enprop replay`: run the controller over a recorded JSONL arrival
/// trace.
pub fn replay_cmd(
    opts: &Opts,
    so: &ServeOpts,
    trace_path: &PathBuf,
    a9: u32,
    k10: u32,
    ctx: &mut ObsCtx,
) -> Result<(), EnpropError> {
    let workload = serving_workload(opts)?;
    let cluster = ClusterSpec::a9_k10(a9, k10);
    let default_ops = match so.ops_per_request {
        Some(o) => o,
        None => default_ops_per_request(&workload, &cluster)?,
    };
    let text = std::fs::read_to_string(trace_path).map_err(|e| {
        EnpropError::invalid_config(format!("cannot read {}: {e}", trace_path.display()))
    })?;
    let arrivals = parse_trace(&text, default_ops)?;
    crate::diag::info(format!(
        "replaying {} arrivals from {}",
        arrivals.len(),
        trace_path.display()
    ));

    let plan = serve_plan(opts, so, cluster.groups.len());
    let topo = serve_topology(opts, so, cluster.node_count() as usize)?;
    let cfg = serve_config(opts, so);
    let mut source = ArrivalSource::Replay(ReplayCursor::new(arrivals));
    run_serving(
        opts,
        so,
        &workload,
        &cluster,
        &plan,
        topo.as_ref(),
        &cfg,
        &mut source,
        "replay",
        ctx,
    )
}

/// `enprop chaos`: sweep randomized fault plans and verify the robustness
/// invariants (conservation, span balance, termination) hold in each.
pub fn chaos_cmd(opts: &Opts, so: &ServeOpts, a9: u32, k10: u32) -> Result<(), EnpropError> {
    let workload = serving_workload(opts)?;
    let cluster = ClusterSpec::a9_k10(a9, k10);
    let cfg = serve_config(opts, so);
    let out = chaos_sweep(
        &workload,
        &cluster,
        &cfg,
        so.plans,
        so.requests,
        so.utilization,
        so.domains,
    )?;

    if !opts.csv {
        println!(
            "Chaos sweep{}: {} on {} ({} nodes), {} plans x {} requests @ {:.0}% load\n",
            if so.domains {
                " (correlated failure domains)"
            } else {
                ""
            },
            workload.name,
            cluster.label(),
            cluster.node_count(),
            so.plans,
            so.requests,
            so.utilization * 100.0
        );
    }
    let mut rows = vec![vec![
        "plan".to_string(),
        "faults".to_string(),
        "domain_faults".to_string(),
        "breakers".to_string(),
        "repairs".to_string(),
        "completions".to_string(),
        "shed".to_string(),
        "p95_s".to_string(),
        "conservation".to_string(),
        "spans".to_string(),
    ]];
    for p in &out.plans {
        let r = &p.report;
        rows.push(vec![
            p.plan.to_string(),
            (r.crashes + r.stalls + r.stragglers).to_string(),
            (r.rack_crashes + r.pdu_losses + r.partitions + r.power_emergencies).to_string(),
            r.breaker_opens.to_string(),
            r.repairs.to_string(),
            r.completions.to_string(),
            r.shed().to_string(),
            format!("{:.4}", r.p95_s),
            if p.conservation_ok { "ok" } else { "VIOLATED" }.to_string(),
            if p.spans_balanced {
                "balanced"
            } else {
                "LEAKED"
            }
            .to_string(),
        ]);
    }
    if opts.csv {
        print!("{}", render_csv(&rows));
    } else {
        print!("{}", crate::output::render_table(&rows));
        println!();
    }
    for (plan, err) in &out.run_errors {
        crate::diag::error(format!("plan {plan} failed to run: {err}"));
    }
    println!("{}", out.summary_line());
    if !out.all_ok() {
        return Err(EnpropError::ClusterDead {
            detail: "chaos sweep violated a serving invariant (see report above)".into(),
        });
    }
    Ok(())
}

/// Print the serving report: accounting, latency/energy aggregates, and
/// every reconfiguration decision class — ending with the conservation
/// line the smoke gates grep.
fn print_report(opts: &Opts, workload: &str, cluster: &ClusterSpec, mode: &str, r: &ServeReport) {
    if opts.csv {
        let mut rows = vec![vec!["metric".to_string(), "value".to_string()]];
        rows.extend(
            r.counters()
                .map(|(name, n)| vec![name.to_string(), n.to_string()]),
        );
        rows.extend([
            vec!["in_flight_at_stop".into(), r.in_flight_at_stop.to_string()],
            vec!["horizon_s".into(), format!("{:.6}", r.horizon_s)],
            vec!["energy_j".into(), format!("{:.3}", r.energy_j)],
            vec!["mean_power_w".into(), format!("{:.3}", r.mean_power_w)],
            vec![
                "mean_response_s".into(),
                format!("{:.6}", r.mean_response_s),
            ],
            vec!["p50_s".into(), format!("{:.6}", r.p50_s)],
            vec!["p95_s".into(), format!("{:.6}", r.p95_s)],
            vec!["p99_s".into(), format!("{:.6}", r.p99_s)],
            vec!["p999_s".into(), format!("{:.6}", r.p999_s)],
            vec!["events".into(), r.events.to_string()],
            vec!["forced_stop".into(), r.forced_stop.to_string()],
        ]);
        print!("{}", render_csv(&rows));
    } else {
        println!(
            "Online {mode}: {workload} on {} ({} nodes)\n",
            cluster.label(),
            cluster.node_count()
        );
        println!(
            "  served {} of {} requests over {:.1} virtual s ({} events)",
            r.completions, r.arrivals, r.horizon_s, r.events
        );
        println!(
            "  latency: mean {:.4} s   p50 {:.4} s   p95 {:.4} s   p99 {:.4} s   p999 {:.4} s",
            r.mean_response_s, r.p50_s, r.p95_s, r.p99_s, r.p999_s
        );
        println!(
            "  energy:  {:.0} J over the run   mean power {:.1} W",
            r.energy_j, r.mean_power_w
        );
        println!(
            "  faults:  {} crashes, {} stalls, {} stragglers -> {} timeouts, {} retries, {} reroutes, {} repairs",
            r.crashes, r.stalls, r.stragglers, r.timeouts, r.retries, r.reroutes, r.repairs
        );
        println!(
            "  control: {} activations, {} deactivations, {} dvfs up, {} dvfs down, {} shed toggles{}",
            r.activations,
            r.deactivations,
            r.dvfs_up,
            r.dvfs_down,
            r.shed_toggles,
            if r.forced_stop { "   [FORCED STOP]" } else { "" }
        );
        let domain_events = r.rack_crashes + r.pdu_losses + r.partitions + r.power_emergencies;
        if domain_events + r.breaker_opens + r.shed_backpressure > 0 {
            println!(
                "  domains: {} rack crashes, {} PDU losses, {} partitions, {} power emergencies \
                 ({} ladder actions) -> {} breakers opened, {} closed, {} backpressure sheds",
                r.rack_crashes,
                r.pdu_losses,
                r.partitions,
                r.power_emergencies,
                r.emergency_actions,
                r.breaker_opens,
                r.breaker_closes,
                r.shed_backpressure
            );
        }
    }
    println!("{}", r.conservation_line());
}
