//! The metric catalogue: every name the benchmark reports, with its unit,
//! direction and regression bound. `BENCHMARK.json` at the repository
//! root declares the same set; a test keeps the two equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and declared.
    pub name: &'static str,
    /// Unit as printed and declared.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` for
    /// per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by untraced runs of every workload. The
/// bounds are set by the run-to-run spread measured on a shared 2-vCPU
/// host (see README.md): host contention comes in episodes that move every
/// wall-time percentile of a run together, and the fastest iterations move
/// least, so iteration latency percentiles are reported per layer
/// (`bench.iter_ms_*`) rather than gated.
pub const END_TO_END: &[Metric] = &[
    // Median of nine set-ups (inputs plus one warm-up iteration), spread
    // over the run.
    e2e("setup_s", "s", Lower, 0.25),
    // Units of work per second over a pass through the input mix at each
    // input's fast-decile speed (`fast_pass_throughput`): regenerations
    // (paper_all), configurations (explore_paper_space, mega_stream) or
    // simulated requests (serve_steady, serve_chaos_ckpt).
    e2e("work_per_s", "1/s", Higher, 0.24),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

/// Per-layer metrics, reported by traced runs of every workload. A layer
/// the workload never calls is read from a short tiny-size run of the
/// workload that does.
pub const PER_LAYER: &[Metric] = &[
    layer("core.table4.ms", "ms", Lower),
    layer("core.table4.paper_gap_pp", "pp", Lower),
    layer("core.single_node.ms", "ms", Lower),
    layer("core.cluster_metrics.ms", "ms", Lower),
    layer("core.power_samples.ms", "ms", Lower),
    layer("explore.strategies.ms", "ms", Lower),
    layer("queueing.md1_p95.ms", "ms", Lower),
    layer("queueing.des.ms", "ms", Lower),
    layer("queueing.des.jobs_per_s", "1/s", Higher),
    layer("explore.evaluate_space.ms", "ms", Lower),
    layer("explore.evaluate_space.configs_per_s", "1/s", Higher),
    layer("explore.cache.hit_frac", "frac", Higher),
    layer("explore.cache.entries", "count", Lower),
    layer("explore.pareto_front.ms", "ms", Lower),
    layer("explore.sweet_spot.ms", "ms", Lower),
    layer("explore.peak_buffer_mb", "MB", Lower),
    layer("explore.stream.ms", "ms", Lower),
    layer("explore.stream.prune_frac", "frac", Higher),
    layer("explore.stream.frontier_len", "count", Lower),
    layer("explore.stream.peak_buffer_kb", "KB", Lower),
    layer("explore.stream.scaling_2t", "ratio", Higher),
    layer("serve.run.ms", "ms", Lower),
    layer("serve.events_per_req", "event/req", Lower),
    layer("serve.ns_per_event", "ns", Lower),
    layer("serve.arrivals.ns_per_arrival", "ns", Lower),
    layer("obs.plane.share", "frac", Lower),
    layer("serve.snapshot.count", "count", Lower),
    layer("serve.snapshot.kb", "KB", Lower),
    layer("serve.snapshot.encode_us", "us", Lower),
    layer("serve.snapshot.share", "frac", Lower),
    layer("serve.resume.decode_ms", "ms", Lower),
    layer("faults.plan.us_per_window", "us", Lower),
    layer("serve.retries_per_kreq", "1/kreq", Lower),
    layer("serve.shed_frac", "frac", Lower),
    layer("bench.unattributed_frac", "frac", Lower),
    layer("bench.trace_overhead", "ratio", Lower),
    // Iteration wall-time percentiles over every iteration of the traced
    // run; at least 100 iterations, so at least ten lie beyond the p90.
    layer("bench.iter_ms_p50", "ms", Lower),
    layer("bench.iter_ms_p90", "ms", Lower),
];

/// Look a metric up in either catalogue.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Is `name` a legal metric or workload name (`[A-Za-z0-9_.-]+`, at most
/// 64 characters, starting with a letter or digit)?
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
