//! Multi-server queues: M/M/c (Erlang-C, exact) and M/D/c (Cosmetatos
//! approximation) — **extension beyond the paper**, which models a single
//! dispatcher. Fig. 3 draws "front-end node(s)"; with `c` dispatchers the
//! job stream becomes an M/D/c queue, and these closed forms quantify how
//! much front-end replication buys.

use crate::Queue;

/// M/M/c: Poisson arrivals, exponential service, `c` parallel servers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MMc {
    /// Arrival rate, jobs/second.
    pub lambda: f64,
    /// Mean service time per job, seconds.
    pub mean_service: f64,
    /// Number of servers.
    pub servers: u32,
}

impl MMc {
    /// Build an M/M/c queue.
    ///
    /// # Panics
    /// Panics unless parameters are positive and `ρ = λs/c < 1`.
    pub fn new(lambda: f64, mean_service: f64, servers: u32) -> Self {
        assert!(lambda >= 0.0 && mean_service > 0.0 && servers >= 1);
        let q = MMc {
            lambda,
            mean_service,
            servers,
        };
        assert!(q.rho() < 1.0, "unstable: rho = {}", q.rho());
        q
    }

    /// Build from per-server utilization.
    pub fn from_utilization(mean_service: f64, servers: u32, u: f64) -> Self {
        assert!((0.0..1.0).contains(&u));
        Self::new(u * servers as f64 / mean_service, mean_service, servers)
    }

    /// Offered load in Erlangs, `a = λ·s`.
    pub fn offered_load(&self) -> f64 {
        self.lambda * self.mean_service
    }

    /// Erlang-C: probability an arriving job must queue.
    pub fn erlang_c(&self) -> f64 {
        let a = self.offered_load();
        let c = self.servers as usize;
        // Iterative a^k/k! accumulation avoids overflow.
        let mut term = 1.0; // a^0/0!
        let mut sum = term;
        for k in 1..c {
            term *= a / k as f64;
            sum += term;
        }
        let top = term * a / c as f64; // a^c/c!
        let rho = self.rho();
        top / ((1.0 - rho) * sum + top)
    }
}

impl Queue for MMc {
    fn rho(&self) -> f64 {
        self.offered_load() / self.servers as f64
    }
    fn mean_wait(&self) -> f64 {
        let c = self.servers as f64;
        self.erlang_c() / (c / self.mean_service - self.lambda)
    }
    fn mean_response_time(&self) -> f64 {
        self.mean_wait() + self.mean_service
    }
    fn mean_queue_length(&self) -> f64 {
        self.lambda * self.mean_wait()
    }
}

/// M/D/c: Poisson arrivals, deterministic service, `c` servers.
///
/// Mean wait via the Cosmetatos approximation
/// `Wq ≈ ½·Wq(M/M/c)·[1 + (1−ρ)(c−1)·(√(4+5c)−2)/(16·ρ·c)]`,
/// exact at `c = 1` and within a few percent elsewhere (validated against
/// the discrete-event simulator in tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MDc {
    /// Arrival rate, jobs/second.
    pub lambda: f64,
    /// Deterministic service time, seconds.
    pub service: f64,
    /// Number of servers.
    pub servers: u32,
}

impl MDc {
    /// Build an M/D/c queue.
    ///
    /// # Panics
    /// Panics unless parameters are positive and `ρ < 1`.
    pub fn new(lambda: f64, service: f64, servers: u32) -> Self {
        assert!(lambda >= 0.0 && service > 0.0 && servers >= 1);
        let q = MDc {
            lambda,
            service,
            servers,
        };
        assert!(q.rho() < 1.0, "unstable: rho = {}", q.rho());
        q
    }

    /// Build from per-server utilization.
    pub fn from_utilization(service: f64, servers: u32, u: f64) -> Self {
        assert!((0.0..1.0).contains(&u));
        Self::new(u * servers as f64 / service, service, servers)
    }

    fn mmc(&self) -> MMc {
        MMc {
            lambda: self.lambda,
            mean_service: self.service,
            servers: self.servers,
        }
    }
}

impl Queue for MDc {
    fn rho(&self) -> f64 {
        self.lambda * self.service / self.servers as f64
    }
    fn mean_wait(&self) -> f64 {
        let rho = self.rho();
        let c = self.servers as f64;
        // The raw correction diverges as ρ → 0 (the approximation targets
        // moderate loads); clamp at 2 so the deterministic queue never
        // exceeds its exponential counterpart — the theoretical bound.
        let correction = (1.0
            + (1.0 - rho) * (c - 1.0) * ((4.0 + 5.0 * c).sqrt() - 2.0) / (16.0 * rho * c))
            .min(2.0);
        0.5 * self.mmc().mean_wait() * correction
    }
    fn mean_response_time(&self) -> f64 {
        self.mean_wait() + self.service
    }
    fn mean_queue_length(&self) -> f64 {
        self.lambda * self.mean_wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MD1, MM1};

    /// Discrete-event simulation of an M/D/c queue, the oracle for
    /// [`MDc`]'s Cosmetatos approximation. Returns the mean job wait.
    fn simulate_mdc(q: &MDc, jobs: usize, warmup: usize, seed: u64) -> f64 {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut free = vec![0.0f64; q.servers as usize];
        let mut clock = 0.0f64;
        let mut total_wait = 0.0;
        let mut measured = 0usize;
        for i in 0..jobs + warmup {
            clock += -(1.0 - rng.gen::<f64>()).ln() / q.lambda;
            // Earliest-free server (FIFO jobs, work-conserving assignment).
            let (idx, &earliest) = free
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .expect("MDc::new guarantees servers >= 1");
            let start = clock.max(earliest);
            free[idx] = start + q.service;
            if i >= warmup {
                total_wait += start - clock;
                measured += 1;
            }
        }
        total_wait / measured as f64
    }

    #[test]
    fn mmc_with_one_server_is_mm1() {
        let c = MMc::from_utilization(0.01, 1, 0.7);
        let one = MM1::from_utilization(0.01, 0.7);
        assert!((c.mean_wait() - one.mean_wait()).abs() < 1e-12);
        assert!((c.erlang_c() - 0.7).abs() < 1e-12, "Erlang-C(1, ρ) = ρ");
    }

    #[test]
    fn mdc_with_one_server_is_md1() {
        let c = MDc::from_utilization(0.01, 1, 0.8);
        let one = MD1::from_utilization(0.01, 0.8);
        assert!((c.mean_wait() - one.mean_wait()).abs() < 1e-12);
    }

    #[test]
    fn pooling_beats_splitting() {
        // c pooled servers at utilization u wait less than one server at u.
        let pooled = MDc::from_utilization(0.01, 4, 0.8);
        let single = MD1::from_utilization(0.01, 0.8);
        assert!(pooled.mean_wait() < 0.5 * single.mean_wait());
    }

    #[test]
    fn cosmetatos_matches_simulation() {
        for (servers, u) in [(2u32, 0.6), (4, 0.8), (8, 0.7)] {
            let q = MDc::from_utilization(0.01, servers, u);
            let sim = simulate_mdc(&q, 400_000, 40_000, 13);
            let rel = (q.mean_wait() - sim).abs() / sim.max(1e-9);
            assert!(
                rel < 0.08,
                "c={servers} u={u}: approx {} vs sim {sim}",
                q.mean_wait()
            );
        }
    }

    #[test]
    fn erlang_c_monotone_in_load() {
        let lo = MMc::from_utilization(1.0, 4, 0.3).erlang_c();
        let hi = MMc::from_utilization(1.0, 4, 0.9).erlang_c();
        assert!(lo < hi);
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
    }

    #[test]
    fn more_servers_less_waiting_at_equal_per_server_load() {
        let mut prev = f64::INFINITY;
        for c in [1u32, 2, 4, 8, 16] {
            let w = MDc::from_utilization(0.01, c, 0.8).mean_wait();
            assert!(w < prev, "c={c}: {w} vs {prev}");
            prev = w;
        }
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn overload_rejected() {
        let _ = MDc::new(500.0, 0.01, 4);
    }
}
