//! Quickstart: model a heterogeneous cluster, read off its energy
//! proportionality, and check the latency cost of a greener configuration.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use enprop::prelude::*;

fn main() {
    // 1. Pick a workload from the paper's catalog (demands calibrated from
    //    the published measurements).
    let workload = catalog::by_name("EP").expect("catalog workload");

    // 2. Describe a cluster: 32 wimpy ARM A9 nodes + 12 brawny AMD K10s.
    let cluster = ClusterSpec::a9_k10(32, 12);

    // 3. The analytic time-energy model (paper Table 2).
    let model = ClusterModel::new(workload.clone(), cluster);
    println!("cluster            : {}", model.cluster().label());
    println!("job service time   : {:.1} ms", model.job_time() * 1e3);
    println!("job energy         : {:.1} J", model.job_energy());
    println!("busy power         : {:.0} W", model.busy_power_w());
    println!("idle power         : {:.0} W", model.idle_power_w());

    // 4. Energy-proportionality metrics (paper Table 3).
    let m = model.metrics();
    println!(
        "\nproportionality    : DPR {:.1}%  IPR {:.2}  EPM {:.2}",
        m.dpr, m.ipr, m.epm
    );

    // 5. Tail latency under the M/D/1 dispatcher model (paper §II-B).
    for u in [0.3, 0.5, 0.8] {
        println!(
            "p95 response @ {:>3.0}% load : {:.1} ms",
            u * 100.0,
            model.p95_response_time(u) * 1e3
        );
    }

    // 6. Trade brawny nodes for energy: the (25 A9, 7 K10) mix is
    //    sub-linearly proportional (below the ideal line) at 50% load.
    let greener = ClusterModel::new(workload, ClusterSpec::a9_k10(25, 7));
    let ref_peak = model.busy_power_w();
    let pct = 100.0 * greener.power_at(0.5) / ref_peak;
    println!(
        "\n(25 A9, 7 K10) at 50% load draws {pct:.1}% of the reference peak \
         (ideal would be 50%) — sub-linear!"
    );
    println!(
        "latency cost: p95 {:.1} ms vs {:.1} ms",
        greener.p95_response_time(0.5) * 1e3,
        model.p95_response_time(0.5) * 1e3
    );
}
