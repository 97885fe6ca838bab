//! The enprop benchmark: five closed-loop workloads over the library
//! crates' public API, each timed end to end and, in a traced run, layer
//! by layer from the benchmark's own calls. See README.md.

pub mod compare;
pub mod explore;
pub mod golden;
pub mod metrics;
pub mod paper;
pub mod serve;
pub mod stats;
pub mod trace;

use golden::Digest;
use metrics::{Metric, PER_LAYER};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::{LayerTimes, Tracer};

/// The workloads, in the order `BENCHMARK.json` declares them.
pub const WORKLOADS: [&str; 5] = [
    "paper_all",
    "explore_paper_space",
    "mega_stream",
    "serve_steady",
    "serve_chaos_ckpt",
];

/// Input size: the benchmark's own, or a tiny one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Small enough for a debug-build test.
    Tiny,
}

/// Per-layer metric values by name.
pub type Layers = Vec<(&'static str, f64)>;

/// One workload: a closed loop with one caller, where each iteration
/// starts when the previous one returns.
pub trait Bench {
    /// Iterations in one pass over the workload's input mix. The timed
    /// loop stops only at pass boundaries, so every input weighs the same
    /// in every run.
    fn cycle(&self) -> u64 {
        1
    }

    /// Run iteration `i`, checking its outputs. Returns the units of work
    /// done, or why an output was wrong.
    fn iter(&mut self, i: u64, t: &mut Tracer) -> Result<f64, String>;

    /// Correctness checks run once after the timed loop.
    fn checks(&mut self) -> Vec<Result<(), String>> {
        Vec::new()
    }

    /// Per-layer metrics from the traced iterations, plus any trace-only
    /// probes.
    fn layers(&mut self, lt: &LayerTimes) -> Layers;

    /// Digests of the seed-independent outputs, for `--bless`.
    fn golden(&mut self) -> Vec<(String, Digest)> {
        Vec::new()
    }
}

/// Build workload `name`'s inputs from `seed`.
pub fn build(name: &str, seed: u64, size: Size) -> Option<Box<dyn Bench>> {
    Some(match name {
        "paper_all" => Box::new(paper::PaperAll::new(seed)),
        "explore_paper_space" => Box::new(explore::ExplorePaperSpace::new(seed, size)),
        "mega_stream" => Box::new(explore::MegaStream::new(size)),
        "serve_steady" => Box::new(serve::ServeSteady::new(seed, size)),
        "serve_chaos_ckpt" => Box::new(serve::ServeChaos::new(seed, size)),
        _ => return None,
    })
}

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Minimum length of the timed loop.
    pub seconds: f64,
    /// Minimum iterations of the timed loop.
    pub min_iters: u64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Set-ups measured for `setup_s`.
    pub setups: usize,
}

impl RunOpts {
    /// The benchmark's settings for `workload`.
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Self {
        RunOpts {
            workload: workload.to_string(),
            seed,
            seconds,
            min_iters: 100,
            trace,
            size: Size::Full,
            setups: 9,
        }
    }
}

/// One reported value.
#[derive(Debug, Clone)]
pub struct Value {
    /// Its catalogue entry.
    pub metric: &'static Metric,
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples behind it.
    pub n: usize,
}

/// What a run measured and checked.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Operations attempted: warm-ups, iterations and checks.
    pub attempted: u64,
    /// Operations whose outputs were wrong.
    pub failed: u64,
    /// Why, for the first few failures.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub values: Vec<Value>,
    /// The recorded spans as JSON lines (traced run only).
    pub spans_jsonl: Option<String>,
}

impl RunResult {
    fn record(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(e);
            }
        }
    }
}

/// A set-up's time in seconds, the bench it built, and its warm-up's check.
type Setup = (f64, Box<dyn Bench>, Result<(), String>);

/// Set up workload `opts.workload` once: build its inputs and run warm-up
/// iteration `k`.
fn timed_setup(opts: &RunOpts, k: u64) -> Result<Setup, String> {
    let t0 = Instant::now();
    let mut b = build(&opts.workload, opts.seed, opts.size)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    let warm = b.iter(k, &mut Tracer::new()).map(|_| ());
    Ok((t0.elapsed().as_secs_f64(), b, warm))
}

/// Run one workload: set it up, run the timed loop, check the outputs, and
/// derive the metrics.
pub fn run(opts: &RunOpts) -> Result<RunResult, String> {
    let mut res = RunResult {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        values: Vec::new(),
        spans_jsonl: None,
    };
    // The first set-up provides the bench the loop runs. The others are
    // spread over the timed loop, so their median sees the same host
    // conditions as the iterations; set-up k warms up with iteration k, so
    // the median does not hang on one input's cost.
    let setups = opts.setups.max(1);
    let setup_every_s = opts.seconds / setups as f64;
    let (first_s, mut b, warm) = timed_setup(opts, 0)?;
    let mut setup_s = vec![first_s];
    res.record(warm);

    // The timed loop. When tracing, passes alternate between traced and
    // untraced so both see the same inputs and the same host conditions.
    let cycle = b.cycle().max(1);
    let period = if opts.trace { 2 * cycle } else { cycle };
    let mut tracer = Tracer::new();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    // (seconds, work) of every correct untraced iteration, per input.
    let mut by_input: Vec<Vec<(f64, f64)>> = vec![Vec::new(); cycle as usize];
    let start = Instant::now();
    let mut i = 0u64;
    loop {
        let traced = opts.trace && (i / cycle) % 2 == 1;
        tracer.set_on(traced);
        tracer.begin_iter(i);
        let t0 = Instant::now();
        let out = b.iter(i, &mut tracer);
        let dt_s = t0.elapsed().as_secs_f64();
        tracer.end_iter();
        if traced {
            traced_ms.push(dt_s * 1e3);
        } else {
            plain_ms.push(dt_s * 1e3);
            if let Ok(work) = out {
                by_input[(i % cycle) as usize].push((dt_s, work));
            }
        }
        res.record(out.map(|_| ()));
        i += 1;
        if !i.is_multiple_of(period) {
            continue;
        }
        let now_s = start.elapsed().as_secs_f64();
        if setup_s.len() < setups && now_s >= setup_s.len() as f64 * setup_every_s {
            let (dt_s, spare, warm) = timed_setup(opts, setup_s.len() as u64)?;
            drop(spare);
            setup_s.push(dt_s);
            res.record(warm);
        } else if setup_s.len() >= setups && i >= opts.min_iters && now_s >= opts.seconds {
            break;
        }
    }
    let rss_mb = enprop_obs::peak_rss_kb().map_or(0.0, |kb| kb as f64 * 1024.0 / 1e6);

    for c in b.checks() {
        res.record(c);
    }

    if opts.trace {
        let lt = tracer.layer_times();
        let n = traced_ms.len();
        let mut measured: BTreeMap<&'static str, (f64, usize)> = b
            .layers(&lt)
            .into_iter()
            .map(|(k, v)| (k, (v, n)))
            .collect();
        measured.insert("bench.unattributed_frac", (lt.unattributed_frac(), n));
        let overhead = stats::median(&traced_ms) / stats::median(&plain_ms);
        measured.insert("bench.trace_overhead", (overhead, n));
        let all_ms: Vec<f64> = plain_ms.iter().chain(&traced_ms).copied().collect();
        let p = |q| stats::percentile(&all_ms, q).unwrap_or(0.0);
        measured.insert("bench.iter_ms_p50", (p(0.5), all_ms.len()));
        measured.insert("bench.iter_ms_p90", (p(0.9), all_ms.len()));
        // A layer this workload never calls is measured on a short traced
        // run, at tiny size, of the workload that does, so every layer
        // reads a measured value in every traced run.
        for other in WORKLOADS.iter().filter(|w| **w != opts.workload) {
            if PER_LAYER.iter().all(|m| measured.contains_key(m.name)) {
                break;
            }
            let (layers, n) = reference_layers(other, opts.seed, &mut res)?;
            for (k, v) in layers {
                measured.entry(k).or_insert((v, n));
            }
        }
        let vals: Vec<(&'static str, f64, usize)> = PER_LAYER
            .iter()
            .map(|m| {
                let (v, n) = measured.get(m.name).copied().unwrap_or((0.0, 0));
                (m.name, v, n)
            })
            .collect();
        res.values = values(&vals);
        res.spans_jsonl = Some(tracer.to_jsonl());
    } else {
        res.values = values(&[
            ("setup_s", stats::median(&setup_s), setup_s.len()),
            (
                "work_per_s",
                fast_pass_throughput(&by_input),
                plain_ms.len(),
            ),
            ("peak_rss_mb", rss_mb, 1),
        ]);
    }
    for v in &res.values {
        if !v.value.is_finite() {
            let msg = format!("{} is not finite", v.metric.name);
            res.failures.push(msg);
            res.failed += 1;
            res.attempted += 1;
        }
    }
    Ok(res)
}

/// Per-layer metrics of workload `name` from two traced passes at tiny
/// size, with the number of traced iterations behind them. Output checks
/// of those iterations count in `res`.
fn reference_layers(name: &str, seed: u64, res: &mut RunResult) -> Result<(Layers, usize), String> {
    let mut b =
        build(name, seed, Size::Tiny).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let mut t = Tracer::new();
    t.set_on(true);
    for i in 0..2 * b.cycle() {
        t.begin_iter(i);
        let out = b.iter(i, &mut t);
        t.end_iter();
        res.record(out.map(|_| ()));
    }
    let lt = t.layer_times();
    Ok((b.layers(&lt), lt.iters.len()))
}

/// Work per second over one pass through the input mix at each input's
/// fast-decile speed: Σ work / Σ mean time of the fastest ⌈n/10⌉
/// iterations of each input, from `(seconds, work)` samples per input.
/// Host contention comes in whole-run episodes that slow every percentile
/// together; the fastest iterations are the ones it disturbs least. 0 when
/// an input has no correct iteration.
pub fn fast_pass_throughput(by_input: &[Vec<(f64, f64)>]) -> f64 {
    let (mut time_s, mut work) = (0.0, 0.0);
    for samples in by_input {
        if samples.is_empty() {
            return 0.0;
        }
        let mut s = samples.clone();
        s.sort_by(|a, b| a.0.total_cmp(&b.0));
        let fast = &s[..s.len().div_ceil(10)];
        time_s += fast.iter().map(|x| x.0).sum::<f64>() / fast.len() as f64;
        work += fast.iter().map(|x| x.1).sum::<f64>() / fast.len() as f64;
    }
    work / time_s
}

fn values(triples: &[(&'static str, f64, usize)]) -> Vec<Value> {
    triples
        .iter()
        .map(|&(name, value, n)| Value {
            metric: metrics::find(name).expect("every reported metric is catalogued"),
            value,
            n,
        })
        .collect()
}

/// Where a run's numbers came from; attached to every output record.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub rev: String,
    /// Whether the checkout had uncommitted changes (`unknown` without git).
    pub dirty: String,
    /// Evaluation-pool threads the workloads use.
    pub threads: usize,
    /// Cargo build profile.
    pub profile: &'static str,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Provenance {
    /// Collect provenance for a run from the current directory, asking git
    /// only when the directory is the root of a git checkout.
    pub fn collect(seed: u64) -> Self {
        let git = |args: &[&str]| -> Option<String> {
            if !std::path::Path::new(".git").exists() {
                return None;
            }
            let out = std::process::Command::new("git").args(args).output().ok()?;
            out.status
                .success()
                .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        Provenance {
            rev: git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            dirty: git(&["status", "--porcelain"])
                .map_or_else(|| "unknown".into(), |s| (!s.is_empty()).to_string()),
            threads: 1,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            seed,
        }
    }
}

/// One metric as printed for people: `workload metric value unit n=<samples>`.
pub fn human_line(workload: &str, v: &Value) -> String {
    format!(
        "{workload} {} {} {} n={}",
        v.metric.name,
        json_num(v.value),
        v.metric.unit,
        v.n
    )
}

/// One metric as a JSON line with its provenance.
pub fn record_json(workload: &str, v: &Value, p: &Provenance) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"metric\":\"{}\",\"value\":{},\"unit\":\"{}\",\"n\":{},\
         \"rev\":\"{}\",\"dirty\":\"{}\",\"threads\":{},\"profile\":\"{}\",\"nproc\":{},\"seed\":{}}}",
        v.metric.name,
        json_num(v.value),
        v.metric.unit,
        v.n,
        p.rev,
        p.dirty,
        p.threads,
        p.profile,
        p.nproc,
        p.seed
    )
}

/// The machine-readable summary line, printed last: `correct`,
/// `attempted`, `failed` and every metric with its unit.
pub fn summary_json(res: &RunResult) -> String {
    let metrics: Vec<String> = res
        .values
        .iter()
        .map(|v| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                v.metric.name,
                json_num(v.value),
                v.metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        res.failed == 0,
        res.attempted.max(1),
        res.failed,
        metrics.join(",")
    )
}

/// A float as a JSON number with every digit (non-finite values, which
/// JSON cannot carry, print as 0 and are counted as failures by [`run`]).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}
