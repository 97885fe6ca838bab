//! Harness tests: the percentile rule, metric naming, agreement with
//! `BENCHMARK.json`, and every workload run end to end at a tiny size so
//! a plain `cargo test` exercises every benchmark code path and check.

use enprop_benchmark::metrics::{valid_name, END_TO_END, PER_LAYER};
use enprop_benchmark::stats::{nearest_rank, percentile};
use enprop_benchmark::{
    fast_pass_throughput, human_line, run, summary_json, RunOpts, Size, WORKLOADS,
};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The raw text of `"key":` in one JSON object: a string's contents or a
/// number's digits.
fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = obj[obj.find(&pat)? + pat.len()..].trim_start();
    match rest.strip_prefix('"') {
        Some(s) => s.split('"').next(),
        None => rest.split([',', '}']).next().map(str::trim),
    }
}

/// The objects of one top-level array of `BENCHMARK.json`.
fn section(key: &str) -> Vec<&'static str> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split('{').skip(1).collect()
}

fn tiny(workload: &str, trace: bool) -> RunOpts {
    RunOpts {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.0,
        min_iters: 1,
        trace,
        size: Size::Tiny,
        setups: 1,
    }
}

#[test]
fn reported_p90_has_ten_samples_beyond_it() {
    // Every run has at least 100 iterations...
    assert!(RunOpts::new("paper_all", 1, 15.0, true).min_iters >= 100);
    // ...and at every count from there, at least ten lie beyond the p90.
    for n in 100..5000 {
        let idx = nearest_rank(n, 0.9).expect("non-empty");
        assert!(n - 1 - idx >= 10, "n = {n}");
    }
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 0.9), Some(90.0));
    assert_eq!(xs.iter().filter(|&&x| x > 90.0).count(), 10);
    // The sample count is printed with every metric (checked per workload
    // in `tiny_run`).
}

#[test]
fn throughput_uses_each_inputs_fastest_tenth() {
    // Input A: 20 iterations of 1..=20 s, 10 units each; its fastest tenth
    // (1 s and 2 s) averages 1.5 s. Input B: one 0.5 s iteration, 5 units.
    let a: Vec<(f64, f64)> = (1..=20).rev().map(|t| (f64::from(t), 10.0)).collect();
    assert_eq!(fast_pass_throughput(&[a, vec![(0.5, 5.0)]]), 15.0 / 2.0);
    assert_eq!(fast_pass_throughput(&[vec![], vec![(1.0, 1.0)]]), 0.0);
}

#[test]
fn names_and_units_are_well_formed() {
    for name in WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
    {
        assert!(valid_name(name), "{name}");
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{}: unit {}",
            m.name,
            m.unit
        );
    }
    for m in END_TO_END {
        let b = m.bound.expect("end-to-end metrics carry a bound");
        assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
}

#[test]
fn benchmark_json_declares_exactly_what_the_binary_emits() {
    let names = |key: &str| -> Vec<String> {
        section(key)
            .iter()
            .map(|o| {
                field(o, "name")
                    .expect("every entry has a name")
                    .to_string()
            })
            .collect()
    };
    assert_eq!(names("workloads"), WORKLOADS);
    let check = |key: &str, catalogue: &[enprop_benchmark::metrics::Metric]| {
        let objs = section(key);
        assert_eq!(objs.len(), catalogue.len(), "{key}");
        for (o, m) in objs.iter().zip(catalogue) {
            assert_eq!(field(o, "name"), Some(m.name));
            assert_eq!(field(o, "unit"), Some(m.unit), "{}", m.name);
            assert_eq!(field(o, "better"), Some(m.better.as_str()), "{}", m.name);
            let bound = field(o, "bound").map(|b| b.parse::<f64>().expect("numeric bound"));
            assert_eq!(bound, m.bound, "{}", m.name);
        }
    };
    check("end_to_end", END_TO_END);
    check("per_layer", PER_LAYER);
    assert!(BENCHMARK_JSON.contains("\"paths\": [\"benchmark\"]"));
}

/// Run `workload` at tiny size, untraced and traced, and check that every
/// output check passes and every declared metric is reported.
fn tiny_run(workload: &str) {
    for trace in [false, true] {
        let res = run(&tiny(workload, trace)).expect("known workload");
        assert_eq!(
            res.failed, 0,
            "{workload} (trace {trace}): {:?}",
            res.failures
        );
        assert!(res.attempted >= 2);
        let want: Vec<&str> = if trace { PER_LAYER } else { END_TO_END }
            .iter()
            .map(|m| m.name)
            .collect();
        let got: Vec<&str> = res.values.iter().map(|v| v.metric.name).collect();
        assert_eq!(got, want);
        assert!(res.values.iter().all(|v| v.value.is_finite()));
        let line = human_line(workload, &res.values[0]);
        assert!(line.starts_with(workload) && line.contains(" n="), "{line}");
        let summary = summary_json(&res);
        assert!(summary.starts_with("{\"correct\":true,"), "{summary}");
        assert_eq!(res.spans_jsonl.is_some(), trace);
    }
}

#[test]
fn paper_all_runs_at_tiny_size() {
    tiny_run("paper_all");
}

#[test]
fn explore_paper_space_runs_at_tiny_size() {
    tiny_run("explore_paper_space");
}

#[test]
fn mega_stream_runs_at_tiny_size() {
    tiny_run("mega_stream");
}

#[test]
fn serve_steady_runs_at_tiny_size() {
    tiny_run("serve_steady");
}

#[test]
fn serve_chaos_ckpt_runs_at_tiny_size() {
    tiny_run("serve_chaos_ckpt");
}
