//! What the perf gates share: the serving run that `serve_replay` and
//! `obs_window` time, and the trajectory limit that `perf_smoke` and
//! `serve_replay` read from their BENCH files.

use enprop_clustersim::ClusterSpec;
use enprop_faults::FaultPlan;
use enprop_obs::{parse_bench_records, NoopRecorder};
use enprop_serve::{
    cluster_capacity_ops_s, default_ops_per_request, ArrivalModel, ArrivalSource, Controller,
    ServeConfig, ServeReport, SyntheticArrivals,
};
use std::io;
use std::path::Path;
use std::time::Instant;

/// A gated row may take at most this multiple of the best earlier row
/// with the same `cmd`.
pub const TRAJECTORY_FACTOR: f64 = 3.0;

/// The serving gates' cluster: 6 A9 + 2 K10.
pub fn serve_cluster() -> ClusterSpec {
    ClusterSpec::a9_k10(6, 2)
}

/// Serve `requests` memcached requests on [`serve_cluster`] under `plan`
/// and `cfg`: Poisson arrivals at 60% of the cluster's capacity, request
/// sizes jittered ±20%, seeded by `cfg.seed`. Returns the wall
/// milliseconds of `Controller::run` alone and its report, after
/// asserting that every request arrived and conservation holds.
pub fn timed_serve(plan: &FaultPlan, cfg: &ServeConfig, requests: u64) -> (f64, ServeReport) {
    let workload =
        enprop_workloads::catalog::by_name("memcached").expect("memcached is in the catalog");
    let cluster = serve_cluster();
    let ops = default_ops_per_request(&workload, &cluster).expect("cluster has capacity");
    let rate =
        0.6 * cluster_capacity_ops_s(&workload, &cluster).expect("cluster has capacity") / ops;
    let arrivals =
        SyntheticArrivals::new(ArrivalModel::Poisson { rate }, requests, ops, 0.2, cfg.seed)
            .expect("valid arrival model");
    let mut source = ArrivalSource::Synthetic(arrivals);
    let start = Instant::now();
    let report = Controller::run(
        &workload,
        &cluster,
        plan,
        cfg,
        &mut source,
        &mut NoopRecorder,
    )
    .expect("serving run must terminate cleanly");
    let ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(report.arrivals, requests);
    assert!(
        report.conservation_ok(),
        "conservation violated: {}",
        report.conservation_line()
    );
    (ms, report)
}

/// [`TRAJECTORY_FACTOR`] times the best `wall_ms` of the rows named
/// `cmd` in the BENCH file at `path`; `None` while no such row (or no
/// file) exists. An unreadable file or a malformed row is an error that
/// names the file and the line.
pub fn trajectory_limit_ms(path: &Path, cmd: &str) -> Result<Option<f64>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let rows = parse_bench_records(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let best = rows
        .iter()
        .filter(|r| r.cmd == cmd)
        .map(|r| r.wall_ms)
        .reduce(f64::min);
    Ok(best.map(|ms| TRAJECTORY_FACTOR * ms))
}
