//! A web-serving scenario end to end: a memcached tier under a latency
//! SLO, sized across heterogeneous mixes, cross-checked by discrete-event
//! simulation.
//!
//! Shows both faces of the library: the *analytic* M/D/1 model (instant)
//! and the *simulated* dispatcher over simulated nodes (the validation
//! path) agreeing on tail latency.
//!
//! ```sh
//! cargo run --release --example memcached_latency
//! ```

use enprop::clustersim::{ClusterQueueSim, ClusterSim, ClusterSpec};
use enprop::prelude::*;

fn main() {
    let workload = catalog::by_name("memcached").expect("memcached is in the catalog");
    let slo_p95 = 0.250; // seconds
    let load = 0.7;

    println!(
        "memcached tier sizing: p95 SLO {:.0} ms at {:.0}% load\n",
        slo_p95 * 1e3,
        load * 100.0
    );
    println!(
        "{:>16} {:>12} {:>12} {:>14} {:>14} {:>8}",
        "mix", "T_job [ms]", "busy [W]", "p95 model [ms]", "p95 sim [ms]", "SLO"
    );

    for (a9, k10) in [(0u32, 16u32), (32, 12), (64, 8), (96, 4), (128, 0)] {
        let cluster = ClusterSpec::a9_k10(a9, k10);
        let model = ClusterModel::new(workload.clone(), cluster.clone());
        let p95_model = model.p95_response_time(load);

        // Cross-check with the discrete-event dispatcher over simulated
        // service times (includes OS jitter and protocol overheads).
        let sim = ClusterSim::new(&workload, &cluster);
        let queue = ClusterQueueSim::new(&sim, 12, 42).expect("non-empty pool");
        let res = queue
            .queue(load)
            .expect("stable load")
            .run(20_000, 2_000, 7);
        let p95_sim = res
            .response_quantile(0.95)
            .expect("simulation produced samples");

        println!(
            "{:>16} {:>12.1} {:>12.0} {:>14.1} {:>14.1} {:>8}",
            cluster.label(),
            model.job_time() * 1e3,
            model.busy_power_w(),
            p95_model * 1e3,
            p95_sim * 1e3,
            if p95_sim <= slo_p95 { "ok" } else { "MISS" }
        );
    }

    println!(
        "\nNote the wimpy-heavy mixes serve memcached within the SLO at a fraction\n\
         of the idle power — Table 7's memcached row is the one where the A9 is\n\
         *more* proportional than the K10, and Table 6 gives it ~19x the PPR."
    );
}
