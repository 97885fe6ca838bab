#![allow(clippy::unwrap_used)] // test code: panicking on a missing catalog entry is the desired failure mode

//! The serving controller against the queue the paper judges it by
//! (§II-B): on one node, with faults off and every limit out of reach,
//! `enprop-serve` is an M/D/1 queue (M/G/1 once request sizes jitter).
//! Each response must then equal the Lindley recursion
//! `dep_k = max(a_k, dep_{k-1}) + ops_k / rate`, minus `a_k`, bit for bit.
//! Every request passes through the look-ahead arrival slot, the event
//! heap and the in-flight ring on the way.

use enprop::prelude::*;
use enprop_faults::FaultPlan;
use enprop_obs::{EventKind, MemoryRecorder};
use enprop_serve::{ArrivalModel, ArrivalSource, Controller, ServeConfig, SyntheticArrivals};

const REQUESTS: u64 = 20_000;
const SEED: u64 = 11;

/// Memcached on one A9 node at utilization `u`: the response of every
/// request, by id, as the controller's `request` spans measure it and as
/// the recursion over the same arrivals gives it.
fn responses(u: f64, ops_jitter: f64) -> (Vec<f64>, Vec<f64>) {
    let w = catalog::by_name("memcached").unwrap();
    let cluster = ClusterSpec::a9_k10(1, 0);
    let g = &cluster.groups[0];
    let profile = w.try_profile(g.spec.name).unwrap();
    let rate =
        SingleNodeModel::new(&profile.spec, &profile.demand, w.io_rate).throughput(g.cores, g.freq);
    let ops = enprop_serve::default_ops_per_request(&w, &cluster).unwrap();
    let model = ArrivalModel::Poisson {
        rate: u * rate / ops,
    };
    let arrivals = || SyntheticArrivals::new(model, REQUESTS, ops, ops_jitter, SEED).unwrap();

    let mut cfg = ServeConfig::new(SEED);
    cfg.breaker_failures = 0;
    cfg.slo_p95_s = 1e9;
    cfg.max_inflight = usize::MAX;
    cfg.max_pending = usize::MAX;
    cfg.traced_requests = u64::MAX;
    let mut source = ArrivalSource::Synthetic(arrivals());
    let mut rec = MemoryRecorder::new();
    let report = Controller::run(
        &w,
        &cluster,
        &FaultPlan::none(),
        &cfg,
        &mut source,
        &mut rec,
    )
    .unwrap();
    assert_eq!(report.completions, REQUESTS, "u = {u}: {report:?}");
    assert_eq!(report.retries + report.shed(), 0, "u = {u}: {report:?}");

    let mut served = vec![f64::NAN; REQUESTS as usize];
    for e in rec.events().iter().filter(|e| e.name == "request") {
        let r = &mut served[usize::try_from(e.id).unwrap()];
        match e.kind {
            EventKind::SpanBegin => *r = e.t_s,
            EventKind::SpanEnd => *r = e.t_s - *r,
            _ => {}
        }
    }
    let mut lindley = Vec::with_capacity(served.len());
    let mut dep = 0.0_f64;
    let mut source = arrivals();
    while let Some(a) = source.next_arrival() {
        dep = a.t_s.max(dep) + a.ops / rate;
        lindley.push(dep - a.t_s);
    }
    (served, lindley)
}

#[test]
fn one_node_serves_as_the_lindley_recursion() {
    for (u, ops_jitter) in [(0.5, 0.0), (0.9, 0.0), (0.99, 0.0), (0.9, 0.2)] {
        let (served, lindley) = responses(u, ops_jitter);
        assert_eq!(served.len(), lindley.len());
        let off = served
            .iter()
            .zip(&lindley)
            .position(|(s, l)| s.to_bits() != l.to_bits());
        if let Some(k) = off {
            panic!(
                "u = {u}, jitter {ops_jitter}: request {k} served in {} s, the recursion gives {} s",
                served[k], lindley[k]
            );
        }
    }
}
