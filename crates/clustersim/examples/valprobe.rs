//! Scratch probe for friction tuning (not part of the deliverable surface).
use enprop_clustersim::{validate, ClusterSpec};
use enprop_workloads::catalog;
fn main() {
    let c = ClusterSpec::a9_k10(4, 2);
    for name in [
        "EP",
        "memcached",
        "x264",
        "blackscholes",
        "Julius",
        "RSA-2048",
    ] {
        let w = catalog::by_name(name).expect("workload is in the catalog");
        let r = validate(&w, &c, 5, 7);
        println!(
            "{name:12} time: model {:.4}s sim {:.4}s err {:.2}% | energy: model {:.1}J sim {:.1}J err {:.2}%",
            r.model_time, r.sim_time, r.time_error_pct, r.model_energy, r.sim_energy, r.energy_error_pct
        );
    }
}
