//! Workload characterization on the machine you are sitting at: run the
//! six real kernels (Monte-Carlo EP, KV store, SAD motion estimation,
//! Black-Scholes, GMM/Viterbi, RSA-2048 verify), measure throughput, and
//! derive per-op cycle demands — the paper's `perf`-based methodology with
//! your laptop standing in for the testbed.
//!
//! ```sh
//! cargo run --release --example characterize_host
//! ```

use enprop::workloads::characterize::{measure, Kernel, ALL_KERNELS};
use enprop::workloads::kernels;

fn kernel_name(k: Kernel) -> &'static str {
    match k {
        Kernel::Ep => "EP",
        Kernel::Memcached => "memcached",
        Kernel::X264 => "x264",
        Kernel::Blackscholes => "blackscholes",
        Kernel::Julius => "Julius",
        Kernel::Rsa2048 => "RSA-2048",
    }
}

fn main() {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host characterization on {threads} hardware threads\n");
    println!(
        "{:<14} {:>14} {:>9} {:>16}   cycles/op @3GHz",
        "kernel", "ops", "seconds", "ops/s"
    );
    for k in ALL_KERNELS {
        let m = measure(k, 0.2);
        let demand = m.to_demand(threads, 3.0e9);
        println!(
            "{:<14} {:>14} {:>9.3} {:>16.0} {:>16.0}",
            kernel_name(k),
            m.ops,
            m.seconds,
            m.ops_per_sec,
            demand.cycles_per_op
        );
    }

    // The kernels are real programs — show one actual result from each
    // domain to prove nothing is stubbed.
    println!("\nspot checks:");
    let price = kernels::blackscholes::price(&kernels::blackscholes::Option {
        spot: 100.0,
        strike: 100.0,
        rate: 0.05,
        volatility: 0.2,
        expiry: 1.0,
        is_call: true,
    });
    println!("  blackscholes: ATM call = {price:.4} (Hull's textbook 10.4506)");

    let reference = kernels::x264::Frame::synthetic(128, 64, 9);
    let current = reference.shifted(3, -2);
    let mv = kernels::x264::motion_estimate(&current, &reference, 6, true)[9];
    println!(
        "  x264: recovered motion vector ({}, {}) for a (3, -2) shift",
        mv.dx, mv.dy
    );

    let ep = kernels::ep::run_sequential(100_000, 271_828_183);
    let accept: u64 = ep.annuli.iter().sum();
    println!(
        "  EP: acceptance rate {:.4} (pi/4 = {:.4})",
        accept as f64 / ep.pairs as f64,
        std::f64::consts::FRAC_PI_4
    );
}
