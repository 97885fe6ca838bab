//! `bench_compare PARENT.jsonl CHANGE.jsonl`: compare the `--out` records
//! of N parent runs with N change runs, pairing runs in file order, and
//! print per workload × metric the median and quartiles of each side, the
//! pairs the change won, and a verdict (improved / within bound / worse /
//! unresolved). Exits 1 when any metric is worse, 2 on bad input.

use enprop_benchmark::compare::{compare, parse_records, Verdict};
use std::process::ExitCode;

fn load(path: &str) -> Result<Vec<enprop_benchmark::compare::Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_records(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [parent, change] = args.as_slice() else {
        eprintln!("usage: bench_compare PARENT.jsonl CHANGE.jsonl");
        return ExitCode::from(2);
    };
    let (parent, change) = match (load(parent), load(change)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_compare: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = compare(&parent, &change);
    println!(
        "{:<20} {:<38} {:>5} {:>32} {:>32} {:>7}  verdict",
        "workload", "metric", "pairs", "parent median [q1, q3]", "change median [q1, q3]", "won"
    );
    for r in &rows {
        let side = |(m, q1, q3): (f64, f64, f64)| format!("{m:.4} [{q1:.4}, {q3:.4}]");
        println!(
            "{:<20} {:<38} {:>5} {:>32} {:>32} {:>7}  {}",
            r.workload,
            r.metric,
            r.pairs,
            side(r.parent),
            side(r.change),
            format!("{}/{}", r.won, r.pairs),
            r.verdict.as_str()
        );
    }
    if rows.iter().any(|r| r.verdict == Verdict::Worse) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
