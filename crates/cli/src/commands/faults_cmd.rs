//! `enprop faults` — fault-injection study: job time/energy and dispatcher
//! tail latency under node crashes, stalls and stragglers, with recovery.

use super::{ObsCtx, Opts};
use crate::output::render_csv;
use enprop_clustersim::{
    ClusterQueueSim, ClusterSim, ClusterSpec, EnpropError, FaultKind, FaultPlan, GroupFaultProfile,
    MtbfModel, RetryPolicy,
};
use enprop_workloads::catalog;

/// Knobs of the fault study (parsed from the command line in `main`).
#[derive(Debug, Clone, Copy)]
pub struct FaultOpts {
    /// Per-node MTBF in seconds; `None` defaults to 4× the fault-free job
    /// duration.
    pub mtbf_s: Option<f64>,
    /// Stall length in seconds (adds a stall fault kind when set).
    pub stall_s: Option<f64>,
    /// Straggler slowdown factor (adds a straggler fault kind when set).
    pub slowdown: Option<f64>,
    /// Retry budget after the first attempt.
    pub retries: u32,
    /// Attempt timeout as a multiple of the fault-free job duration.
    pub timeout_factor: f64,
    /// Dispatcher utilization for the queue comparison.
    pub utilization: f64,
    /// Jobs to sample under the plan.
    pub jobs: usize,
}

impl Default for FaultOpts {
    fn default() -> Self {
        FaultOpts {
            mtbf_s: None,
            stall_s: None,
            slowdown: None,
            retries: 3,
            timeout_factor: 3.0,
            utilization: 0.7,
            jobs: 200,
        }
    }
}

/// Run the fault-injection study and print a report (or CSV rows). The
/// sampled jobs land back-to-back on the telemetry trace when recording
/// is on: attempt/recovery/backoff spans, fault instants, retry counters.
pub fn faults_cmd(
    opts: &Opts,
    fo: &FaultOpts,
    a9: u32,
    k10: u32,
    ctx: &mut ObsCtx,
) -> Result<(), EnpropError> {
    let name = opts.workload.clone().unwrap_or_else(|| "EP".into());
    let workload = catalog::try_by_name(&name)?;
    if fo.jobs == 0 {
        return Err(EnpropError::invalid_parameter(
            "jobs",
            "must sample at least one job",
        ));
    }
    let cluster = ClusterSpec::a9_k10(a9, k10);
    let sim = ClusterSim::try_new(&workload, &cluster)?;
    let base = sim.run_job(opts.seed);

    let mtbf_s = fo.mtbf_s.unwrap_or(base.duration * 4.0);
    let mut kinds = vec![(1.0, FaultKind::Crash)];
    if let Some(duration_s) = fo.stall_s {
        kinds.push((1.0, FaultKind::Stall { duration_s }));
    }
    if let Some(slowdown) = fo.slowdown {
        kinds.push((1.0, FaultKind::Straggler { slowdown }));
    }
    let plan = FaultPlan::uniform(
        opts.seed,
        GroupFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s },
            kinds,
        },
        cluster.groups.len(),
    );
    let policy = RetryPolicy {
        max_retries: fo.retries,
        timeout_factor: fo.timeout_factor,
        ..RetryPolicy::standard()
    };
    plan.validate()?;
    policy.validate()?;
    // The clean dispatcher queue, built before any output so that an
    // unstable `--utilization` fails in CSV mode too. Its pool records
    // nothing.
    let pool = 16;
    let clean = ClusterQueueSim::new(&sim, pool, opts.seed)?.queue(fo.utilization)?;

    if !opts.csv {
        println!(
            "Fault injection: {} on {} ({} nodes)\n",
            workload.name,
            cluster.label(),
            cluster.node_count()
        );
        println!(
            "  fault-free job:  T = {:.3} s   E = {:.0} J",
            base.duration, base.energy
        );
        let mut kind_desc = vec!["crash".to_string()];
        if let Some(s) = fo.stall_s {
            kind_desc.push(format!("stall {s} s"));
        }
        if let Some(x) = fo.slowdown {
            kind_desc.push(format!("straggler {x}x"));
        }
        println!(
            "  plan: exponential MTBF {mtbf_s:.3} s/node; kinds (equal weight): {}",
            kind_desc.join(", ")
        );
        println!(
            "  policy: {} retries, {:.1}x timeout, backoff {:.0} s x{:.0}\n",
            policy.max_retries,
            policy.timeout_factor,
            policy.backoff_base_s,
            policy.backoff_multiplier
        );
    }

    let mut csv_rows = vec![vec![
        "job".to_string(),
        "duration_s".into(),
        "energy_j".into(),
        "attempts".into(),
        "crashes".into(),
        "stalls".into(),
        "stragglers".into(),
        "redispatched_ops".into(),
    ]];
    let mut dur_sum = 0.0;
    let mut energy_sum = 0.0;
    let mut attempts_sum = 0u64;
    let mut attempts_max = 0u32;
    let (mut crashes, mut stalls, mut stragglers) = (0u64, 0u64, 0u64);
    let mut redispatched = 0.0;
    let mut exhausted = 0usize;
    let mut completed = 0usize;
    let mut t_cursor = 0.0;
    for j in 0..fo.jobs {
        let seed = opts.seed.wrapping_add(j as u64 * 104_729);
        match sim.run_job_under_plan_obs(&plan, &policy, seed, t_cursor, &mut ctx.rec) {
            Ok(f) => {
                t_cursor += f.run.duration;
                completed += 1;
                dur_sum += f.run.duration;
                energy_sum += f.run.energy;
                attempts_sum += u64::from(f.attempts);
                attempts_max = attempts_max.max(f.attempts);
                crashes += u64::from(f.crashes);
                stalls += u64::from(f.stalls);
                stragglers += u64::from(f.stragglers);
                redispatched += f.redispatched_ops;
                if opts.csv {
                    csv_rows.push(vec![
                        j.to_string(),
                        format!("{}", f.run.duration),
                        format!("{}", f.run.energy),
                        f.attempts.to_string(),
                        f.crashes.to_string(),
                        f.stalls.to_string(),
                        f.stragglers.to_string(),
                        format!("{}", f.redispatched_ops),
                    ]);
                }
            }
            Err(EnpropError::RetryBudgetExhausted { .. }) => {
                t_cursor += base.duration;
                exhausted += 1;
            }
            Err(e) => return Err(e),
        }
    }
    if opts.csv {
        print!("{}", render_csv(&csv_rows));
        return Ok(());
    }
    if completed == 0 {
        return Err(EnpropError::ClusterDead {
            detail: format!(
                "all {} sampled jobs exhausted their retry budget; raise --retries or --mtbf",
                fo.jobs
            ),
        });
    }
    let n = completed as f64;
    println!(
        "  {} jobs under faults ({} exhausted the retry budget):",
        fo.jobs, exhausted
    );
    println!(
        "    mean duration   {:.3} s  ({:+.1}% vs fault-free)",
        dur_sum / n,
        100.0 * (dur_sum / n / base.duration - 1.0)
    );
    println!(
        "    mean energy     {:.0} J  ({:+.1}%)",
        energy_sum / n,
        100.0 * (energy_sum / n / base.energy - 1.0)
    );
    println!(
        "    attempts        mean {:.2}  max {attempts_max}",
        attempts_sum as f64 / n
    );
    println!("    faults applied  {crashes} crashes, {stalls} stalls, {stragglers} stragglers");
    println!(
        "    re-dispatched   {:.1}% of job ops (mean)",
        100.0 * redispatched / n / workload.ops_per_job
    );

    // Dispatcher view: feed the failure-inflated service times into the
    // queue and compare against the clean pool at the same offered load.
    match ClusterQueueSim::with_faults(&sim, pool, opts.seed, &plan, &policy, &mut ctx.rec) {
        Ok(faulted) => {
            let jobs = 40_000;
            let warmup = 4_000;
            let c = clean.run(jobs, warmup, opts.seed);
            let f = faulted
                .queue(fo.utilization)?
                .run_obs(jobs, warmup, opts.seed, &mut ctx.rec);
            println!(
                "\n  dispatcher queue at u = {:.2} ({} pooled service times, {} retried):",
                fo.utilization,
                pool,
                faulted.retried_jobs()
            );
            let [(cm, cq), (fm, fq)] = [&c, &f].map(|r| {
                (
                    r.response.mean(),
                    r.response_quantile(0.95).unwrap_or(f64::NAN),
                )
            });
            println!("    clean    mean {cm:.3} s   p95 {cq:.3} s");
            println!("    faulted  mean {fm:.3} s   p95 {fq:.3} s");
            println!(
                "    inflation: mean {:+.1}%, p95 {:+.1}%",
                100.0 * (fm / cm - 1.0),
                100.0 * (fq / cq - 1.0)
            );
        }
        Err(e) => println!("\n  dispatcher queue skipped: {e}"),
    }
    Ok(())
}
