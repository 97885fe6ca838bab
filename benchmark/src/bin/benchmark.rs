//! `benchmark`: run the enprop benchmark.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--out FILE] [--trace-out DIR]
//! benchmark --bless
//! ```
//!
//! With `--workload`, runs that workload in this process and prints one
//! `workload metric value unit n=<samples>` line per metric, then a JSON
//! summary line (`correct`, `attempted`, `failed`, `metrics`). Without it,
//! runs every workload, each in its own child process so peak RSS is per
//! workload. `--trace 1` reports per-layer metrics instead of end-to-end
//! ones; `--trace-out DIR` also writes the spans to
//! `DIR/<workload>.spans.jsonl`. `--out FILE` appends every metric as a
//! JSON line with its provenance. `--bless` rewrites the golden digests
//! under `golden/` from the current code.
//!
//! Exit codes: 0 all outputs correct, 1 an output check failed, 2 bad
//! arguments or a debug build.

use enprop_benchmark::{
    build, golden, human_line, record_json, run, summary_json, Provenance, RunOpts, Size, WORKLOADS,
};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    bless: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        out: None,
        trace_out: None,
        bless: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            a.bless = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {val:?}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&val.as_str()) {
                    return Err(bad(&format!("expected one of {}", WORKLOADS.join(", "))));
                }
                a.workload = Some(val);
            }
            "--seed" => a.seed = val.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                a.seconds = val
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected seconds >= 0"))?;
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(val)),
            "--trace-out" => {
                a.trace = true;
                a.trace_out = Some(PathBuf::from(val));
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("benchmark: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    if args.bless {
        return bless();
    }
    match &args.workload {
        Some(w) => run_one(&args, w),
        None => run_all(&args),
    }
}

fn run_one(args: &Args, workload: &str) -> ExitCode {
    let opts = RunOpts::new(workload, args.seed, args.seconds, args.trace);
    let res = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &res.failures {
        eprintln!("benchmark: {workload}: check failed: {f}");
    }
    let prov = Provenance::collect(args.seed);
    for v in &res.values {
        println!("{}", human_line(workload, v));
    }
    if let Some(path) = &args.out {
        let lines: String = res
            .values
            .iter()
            .map(|v| record_json(workload, v, &prov) + "\n")
            .collect();
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(lines.as_bytes()));
        if let Err(e) = written {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let (Some(dir), Some(spans)) = (&args.trace_out, &res.spans_jsonl) {
        let path = dir.join(format!("{workload}.spans.jsonl"));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!(
        "# rev={} dirty={} threads={} profile={} nproc={} seed={}",
        prov.rev, prov.dirty, prov.threads, prov.profile, prov.nproc, prov.seed
    );
    println!("{}", summary_json(&res));
    if res.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload in its own child process, forwarding their metric
/// lines, and finish with one summary line over all of them.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut attempted, mut failed, mut all_ok) = (0u64, 0u64, true);
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if let Some(out) = &args.out {
            cmd.arg("--out").arg(out);
        }
        if let Some(dir) = &args.trace_out {
            cmd.arg("--trace-out").arg(dir);
        }
        let mut child = match cmd.spawn() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("benchmark: cannot start {w}: {e}");
                return ExitCode::from(2);
            }
        };
        let mut last = String::new();
        if let Some(stdout) = child.stdout.take() {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if line.starts_with('{') {
                    last = line;
                } else {
                    println!("{line}");
                }
            }
        }
        let ok = child.wait().is_ok_and(|s| s.success());
        all_ok &= ok && last.contains("\"correct\":true");
        attempted += field(&last, "attempted");
        failed += field(&last, "failed");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{}}}}",
        all_ok && failed == 0,
        attempted.max(1)
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The unsigned integer after `"key":` in a summary line, or 0.
fn field(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    line.find(&pat)
        .map(|i| &line[i + pat.len()..])
        .and_then(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        })
        .unwrap_or(0)
}

/// Rewrite the golden digests from the current code, at both sizes.
fn bless() -> ExitCode {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden"));
    let files = [
        ("paper_all", "paper_all.txt", vec![Size::Full]),
        (
            "explore_paper_space",
            "explore_paper_space.txt",
            vec![Size::Full, Size::Tiny],
        ),
        (
            "mega_stream",
            "mega_stream.txt",
            vec![Size::Full, Size::Tiny],
        ),
    ];
    for (workload, file, sizes) in files {
        let mut entries = Vec::new();
        for size in sizes {
            let mut b = build(workload, 1, size).expect("known workload");
            entries.extend(b.golden());
        }
        let header = format!(
            "Golden digests of `{workload}`: FNV-1a over the exact f64 bits of every\n\
             seed-independent output. Regenerate with `benchmark --bless`."
        );
        let path = dir.join(file);
        if let Err(e) = std::fs::write(&path, golden::render(&header, &entries)) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {} ({} digests)", path.display(), entries.len());
    }
    ExitCode::SUCCESS
}
