//! The front-end dispatcher (paper Fig. 3): Poisson job arrivals queue at
//! a dispatcher and the cluster serves them FIFO, one job at a time (each
//! job is a scale-out program occupying every leaf node).
//!
//! This realizes the M/D/1 assumption of §II-B against *simulated* service
//! times — which wobble with OS jitter, so the queue is really M/G/1 with
//! a small service variance. Tests confirm the M/D/1 closed forms stay
//! accurate, which is the paper's justification for using them. This
//! module builds the pool of simulated service times; the queue itself
//! runs in [`QueueSim`].

use crate::run::ClusterSim;
use enprop_faults::{EnpropError, FaultPlan, RetryPolicy};
use enprop_obs::{NoopRecorder, Recorder};
use enprop_queueing::{ArrivalProcess, QueueSim, ServiceProcess};

/// The dispatcher's service-time pool: simulated cluster jobs whose
/// durations its queue draws from.
#[derive(Debug)]
pub struct ClusterQueueSim {
    /// Always [`ServiceProcess::Empirical`].
    service: ServiceProcess,
    /// Jobs in the pool that needed at least one retry (0 when the pool
    /// was built without a fault plan).
    retried_jobs: usize,
}

impl ClusterQueueSim {
    /// Pre-simulate `pool` distinct jobs on the cluster to build an
    /// empirical service-time distribution. Rejects an empty pool with
    /// [`EnpropError::InvalidConfig`].
    pub fn new(sim: &ClusterSim<'_>, pool: usize, seed: u64) -> Result<Self, EnpropError> {
        Self::with_faults(
            sim,
            pool,
            seed,
            &FaultPlan::none(),
            &RetryPolicy::standard(),
            &mut NoopRecorder,
        )
    }

    /// Like [`ClusterQueueSim::new`], but every pooled job runs under the
    /// fault plan with recovery — the dispatcher then queues jobs whose
    /// service times are inflated by re-dispatch waves, timed-out attempts
    /// and backoff. A job that exhausts its retry budget propagates the
    /// error (size the budget for the plan's fault rate). The pooled jobs
    /// land on `rec` back-to-back from sim-time zero: node spans, power
    /// samples, attempts, fault instants, recovery waves and backoffs.
    /// Bit-identical for any `R`.
    pub fn with_faults<R: Recorder>(
        sim: &ClusterSim<'_>,
        pool: usize,
        seed: u64,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        rec: &mut R,
    ) -> Result<Self, EnpropError> {
        if pool == 0 {
            return Err(EnpropError::invalid_config(
                "service pool must hold at least one job",
            ));
        }
        let mut service_pool = Vec::with_capacity(pool);
        let mut retried_jobs = 0;
        let mut t0 = 0.0;
        for i in 0..pool {
            let f = sim.run_job_under_plan_obs(
                plan,
                policy,
                seed.wrapping_add(i as u64 * 104_729),
                t0,
                rec,
            )?;
            if f.attempts > 1 {
                retried_jobs += 1;
            }
            service_pool.push(f.run.duration);
            t0 += f.run.duration;
        }
        Ok(ClusterQueueSim {
            service: ServiceProcess::Empirical { pool: service_pool },
            retried_jobs,
        })
    }

    /// Mean simulated service time, seconds.
    pub fn mean_service(&self) -> f64 {
        self.service.mean()
    }

    /// Pooled jobs that needed at least one retry.
    pub fn retried_jobs(&self) -> usize {
        self.retried_jobs
    }

    /// The dispatcher queue over this pool: Poisson arrivals at the rate
    /// that offers `utilization`, which must lie strictly inside `(0, 1)`
    /// for the queue to be stable.
    pub fn queue(&self, utilization: f64) -> Result<QueueSim, EnpropError> {
        if !(utilization > 0.0 && utilization < 1.0) {
            return Err(EnpropError::invalid_parameter(
                "utilization",
                format!("must be in (0, 1) for a stable queue, got {utilization}"),
            ));
        }
        Ok(QueueSim::new(
            ArrivalProcess::Poisson {
                rate: utilization / self.mean_service(),
            },
            self.service.clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::run::ClusterSim;
    use enprop_queueing::{Queue, MD1};
    use enprop_workloads::catalog;

    #[test]
    fn dispatcher_matches_md1_closed_form() {
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(8, 4);
        let sim = ClusterSim::new(&w, &c);
        let q = ClusterQueueSim::new(&sim, 16, 7).unwrap();
        let res = q.queue(0.7).unwrap().run(60_000, 5_000, 11);
        let md1 = MD1::from_utilization(q.mean_service(), 0.7);
        let rel = (res.response.mean() - md1.mean_response_time()).abs() / md1.mean_response_time();
        assert!(rel < 0.08, "mean response off by {rel}");
        let p95_sim = res.response_quantile(0.95).unwrap();
        let p95_md1 = md1.response_time_quantile(0.95);
        let rel = (p95_sim - p95_md1).abs() / p95_md1;
        assert!(rel < 0.10, "p95 off by {rel}: {p95_sim} vs {p95_md1}");
    }

    #[test]
    fn response_time_explodes_toward_saturation() {
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(4, 2);
        let sim = ClusterSim::new(&w, &c);
        let q = ClusterQueueSim::new(&sim, 8, 3).unwrap();
        let lo = q.queue(0.3).unwrap().run(20_000, 2_000, 5);
        let hi = q.queue(0.95).unwrap().run(20_000, 2_000, 5);
        assert!(
            hi.response.mean() > 3.0 * lo.response.mean(),
            "queueing delay must dominate at high load"
        );
    }

    #[test]
    fn measured_utilization_tracks_target() {
        let w = catalog::by_name("blackscholes").unwrap();
        let c = ClusterSpec::a9_k10(4, 2);
        let sim = ClusterSim::new(&w, &c);
        let q = ClusterQueueSim::new(&sim, 8, 1).unwrap();
        let res = q.queue(0.6).unwrap().run(40_000, 4_000, 2);
        let u = res.measured_utilization;
        assert!((u - 0.6).abs() < 0.03, "u = {u}");
    }

    #[test]
    fn bad_pool_and_utilization_are_typed_errors() {
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(4, 2);
        let sim = ClusterSim::new(&w, &c);
        assert!(matches!(
            ClusterQueueSim::new(&sim, 0, 1),
            Err(enprop_faults::EnpropError::InvalidConfig(_))
        ));
        let q = ClusterQueueSim::new(&sim, 4, 1).unwrap();
        for u in [0.0, 1.0, f64::NAN] {
            assert!(matches!(
                q.queue(u),
                Err(enprop_faults::EnpropError::InvalidParameter { .. })
            ));
        }
    }

    #[test]
    fn faulted_pool_inflates_service_times() {
        use enprop_faults::{GroupFaultProfile, MtbfModel};
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(8, 4);
        let sim = ClusterSim::new(&w, &c);
        let clean = ClusterQueueSim::new(&sim, 8, 7).unwrap();
        let job = sim.run_job(7);
        // The clean pool is the fault-free jobs `run_job` simulates.
        let run_job_mean = (0..8u64)
            .map(|i| sim.run_job(7 + i * 104_729).duration)
            .sum::<f64>()
            / 8.0;
        assert_eq!(clean.mean_service(), run_job_mean);
        let plan = FaultPlan::uniform(
            1,
            GroupFaultProfile::crashes(MtbfModel::Exponential {
                mtbf_s: job.duration * 4.0,
            }),
            2,
        );
        let policy = RetryPolicy {
            max_retries: 8,
            timeout_factor: 10.0,
            backoff_base_s: 1.0,
            backoff_multiplier: 2.0,
            backoff_cap_s: f64::INFINITY,
        };
        let faulted =
            ClusterQueueSim::with_faults(&sim, 8, 7, &plan, &policy, &mut NoopRecorder).unwrap();
        assert!(
            faulted.mean_service() > clean.mean_service(),
            "faults must inflate service: {} vs {}",
            faulted.mean_service(),
            clean.mean_service()
        );
        // An inert plan reproduces the clean pool exactly.
        let inert = ClusterQueueSim::with_faults(
            &sim,
            8,
            7,
            &FaultPlan::none(),
            &policy,
            &mut NoopRecorder,
        )
        .unwrap();
        assert_eq!(inert.mean_service(), clean.mean_service());
        assert_eq!(inert.retried_jobs(), 0);
    }

    /// The dispatcher loop that `QueueSim` replaced, kept verbatim (less
    /// its telemetry) as the oracle. Returns each measured job's response
    /// `server_free − clock` with its departure time, and the measured
    /// utilization.
    fn dispatcher_loop(
        service_pool: &[f64],
        utilization: f64,
        jobs: usize,
        warmup: usize,
        seed: u64,
    ) -> (Vec<(f64, f64)>, f64) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mean_service = service_pool.iter().sum::<f64>() / service_pool.len() as f64;
        let lambda = utilization / mean_service;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut clock = 0.0f64;
        let mut server_free = 0.0f64;
        let mut samples = Vec::with_capacity(jobs);
        let mut busy = 0.0;
        let mut first = 0.0;
        for i in 0..jobs + warmup {
            clock += -(1.0 - rng.gen::<f64>()).ln() / lambda;
            let service = service_pool[rng.gen_range(0..service_pool.len())];
            let start = clock.max(server_free);
            server_free = start + service;
            if i >= warmup {
                if i == warmup {
                    first = clock;
                }
                let r = server_free - clock;
                samples.push((r, server_free));
                busy += service;
            }
        }
        let horizon = (server_free - first).max(f64::MIN_POSITIVE);
        (samples, (busy / horizon).min(1.0))
    }

    #[test]
    fn queue_sim_reproduces_the_dispatcher_loop() {
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(8, 4);
        let sim = ClusterSim::new(&w, &c);
        let q = ClusterQueueSim::new(&sim, 16, 7).unwrap();
        let ServiceProcess::Empirical { pool } = &q.service else {
            panic!("the dispatcher pool is empirical");
        };
        for (u, seed) in [(0.3, 1), (0.7, 11), (0.95, 5)] {
            let (want, want_u) = dispatcher_loop(pool, u, 20_000, 2_000, seed);
            let got = q.queue(u).unwrap().run(20_000, 2_000, seed);
            assert_eq!(got.response_samples.len(), want.len());
            assert_eq!(got.measured_utilization.to_bits(), want_u.to_bits());
            // `wait + service` and `departure − arrival` round differently,
            // by a few ulps of the departure time at most.
            for (i, (&r, &(r_old, departure))) in got.response_samples.iter().zip(&want).enumerate()
            {
                assert!(
                    (r - r_old).abs() <= 4.0 * f64::EPSILON * departure,
                    "u = {u}, job {i}: {r} vs {r_old} at {departure}"
                );
            }
        }
    }
}
