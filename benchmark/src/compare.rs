//! A/B comparison of benchmark records: parent runs against change runs,
//! by the rule of the `choosing-metrics` method — a gain needs the change
//! to win at least 9 of 10 pairs and a median gap wider than the parent's
//! own interquartile range; a regression is a median worse than the
//! parent's by more than the metric's bound.

use crate::metrics::{self, Better};
use crate::stats;
use std::collections::BTreeMap;

/// One `--out` record: the fields the comparison needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Measured value.
    pub value: f64,
}

/// The raw text of `"key":` in a flat JSON object: a string's contents
/// or a number's digits.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    if let Some(s) = rest.strip_prefix('"') {
        s.split('"').next()
    } else {
        rest.split([',', '}']).next().map(str::trim)
    }
}

/// Parse the records of one JSONL file, with the line number of the first
/// malformed line as the error.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            let rec = (|| {
                Some(Record {
                    workload: field(l, "workload")?.to_string(),
                    metric: field(l, "metric")?.to_string(),
                    value: field(l, "value")?.parse().ok()?,
                })
            })();
            rec.ok_or_else(|| format!("line {}: not a benchmark record", i + 1))
        })
        .collect()
}

/// Verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Wins ≥ 9/10 of pairs and the median gap exceeds the parent's IQR.
    Improved,
    /// The median is within the bound (or, without a bound, no clear
    /// change either way).
    WithinBound,
    /// Worse than the parent's median by more than the bound, or (without
    /// a bound) loses ≥ 9/10 of pairs by more than the parent's IQR.
    Worse,
    /// The parent's own spread is wider than the bound, so "no worse"
    /// cannot be shown.
    Unresolved,
}

impl Verdict {
    /// Printed form.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Summary of one workload × metric.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Pairs compared (runs in order of appearance).
    pub pairs: usize,
    /// Parent median and quartiles.
    pub parent: (f64, f64, f64),
    /// Change median and quartiles.
    pub change: (f64, f64, f64),
    /// Pairs the change won (ties count for neither side).
    pub won: usize,
    /// The verdict.
    pub verdict: Verdict,
}

fn summary(xs: &[f64]) -> (f64, f64, f64) {
    let (q1, q3) = stats::quartiles(xs);
    (stats::median(xs), q1, q3)
}

/// Judge `change` against `parent` for a metric improving in direction
/// `better`, with regression bound `bound` (a share of the parent's
/// median). Returns the pairs the change won and the verdict.
pub fn judge(
    parent: &[f64],
    change: &[f64],
    better: Better,
    bound: Option<f64>,
) -> (usize, Verdict) {
    let sign = match better {
        Better::Lower => -1.0,
        Better::Higher => 1.0,
    };
    let pairs = parent.len().min(change.len());
    let gain = |p: f64, c: f64| (c - p) * sign;
    let won = (0..pairs)
        .filter(|&i| gain(parent[i], change[i]) > 0.0)
        .count();
    let lost = (0..pairs)
        .filter(|&i| gain(parent[i], change[i]) < 0.0)
        .count();
    let (pm, pq1, pq3) = summary(parent);
    let (cm, _, _) = summary(change);
    let iqr = pq3 - pq1;
    let gap = gain(pm, cm);
    let clear = |n: usize| pairs > 0 && n * 10 >= pairs * 9;
    let verdict = if clear(won) && gap > iqr {
        Verdict::Improved
    } else {
        match bound {
            Some(b) if -gap > b * pm.abs() => Verdict::Worse,
            Some(b) => {
                let all_better = parent
                    .iter()
                    .all(|&p| change.iter().all(|&c| gain(p, c) > 0.0));
                if iqr > b * pm.abs() && !all_better {
                    Verdict::Unresolved
                } else {
                    Verdict::WithinBound
                }
            }
            None if clear(lost) && -gap > iqr => Verdict::Worse,
            None => Verdict::WithinBound,
        }
    };
    (won, verdict)
}

/// Compare every workload × metric present on both sides.
pub fn compare(parent: &[Record], change: &[Record]) -> Vec<Row> {
    let group = |rs: &[Record]| {
        let mut m: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        for r in rs {
            m.entry((r.workload.clone(), r.metric.clone()))
                .or_default()
                .push(r.value);
        }
        m
    };
    let (p, c) = (group(parent), group(change));
    p.iter()
        .filter_map(|(key, pv)| {
            let cv = c.get(key)?;
            let m = metrics::find(&key.1)?;
            let (won, verdict) = judge(pv, cv, m.better, m.bound);
            Some(Row {
                workload: key.0.clone(),
                metric: key.1.clone(),
                pairs: pv.len().min(cv.len()),
                parent: summary(pv),
                change: summary(cv),
                won,
                verdict,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rule() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        // Clearly faster on every pair: improved.
        let fast: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        assert_eq!(
            judge(&parent, &fast, Better::Lower, Some(0.1)).1,
            Verdict::Improved
        );
        // 5% slower with a 10% bound: within bound.
        let slow: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
        assert_eq!(
            judge(&parent, &slow, Better::Lower, Some(0.1)).1,
            Verdict::WithinBound
        );
        // 20% slower: worse.
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(
            judge(&parent, &slower, Better::Lower, Some(0.1)).1,
            Verdict::Worse
        );
        // A parent spread wider than the bound: unresolved.
        let noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0];
        assert_eq!(
            judge(&noisy, &noisy, Better::Lower, Some(0.1)).1,
            Verdict::Unresolved
        );
        // Throughput: higher is better.
        assert_eq!(
            judge(&parent, &slower, Better::Higher, Some(0.1)).1,
            Verdict::Improved
        );
    }

    #[test]
    fn records_round_trip_through_the_writer() {
        let value = crate::Value {
            metric: metrics::find("work_per_s").expect("catalogued"),
            value: 21.5,
            n: 370,
        };
        let prov = crate::Provenance {
            rev: "unknown".into(),
            dirty: "unknown".into(),
            threads: 1,
            profile: "release",
            nproc: 2,
            seed: 3,
        };
        let line = crate::record_json("mega_stream", &value, &prov);
        let recs = parse_records(&format!("{line}\n\n{line}\n")).expect("valid records");
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].workload, "mega_stream");
        assert_eq!(recs[0].value, 21.5);
        assert!(parse_records("{\"workload\":\"x\"}").is_err());
        let rows = compare(&recs, &recs);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::WithinBound);
    }
}
