//! `enprop obs` — the trace-query family: filter recorded JSONL event
//! streams (`obs query`), reconstruct the serving plane's per-window
//! report from its `win.*` gauges (`obs report`), and the simulated
//! power-meter trace (`obs power`, formerly top-level `enprop trace`).
//!
//! Everything here consumes the deterministic `.jsonl` stream that any
//! command writes via `--trace-out FILE.jsonl`; percentile summaries come
//! from the bounded-memory [`QuantileSketch`], never from sorting the raw
//! samples (DESIGN.md §14).

use super::Opts;
use crate::output::render_csv;
use enprop_clustersim::EnpropError;
use enprop_obs::{parse_jsonl, ParsedEvent, ParsedKind, QuantileSketch, DEFAULT_SKETCH_ALPHA};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Knobs of `enprop obs query` (parsed from the command line in `main`).
#[derive(Debug, Clone, Default)]
pub struct ObsQueryOpts {
    /// JSONL trace file to query.
    pub trace: PathBuf,
    /// Track-label substring filter (e.g. `controller`, `g0`).
    pub track: Option<String>,
    /// Event-name substring filter (e.g. `win.`, `slo.burn`).
    pub name: Option<String>,
    /// Inclusive lower time bound, virtual seconds.
    pub from_s: Option<f64>,
    /// Inclusive upper time bound, virtual seconds.
    pub to_s: Option<f64>,
    /// Sketch the values of this exact metric name (instants + gauges)
    /// and print a percentile summary.
    pub quantiles: Option<String>,
    /// Cap on printed event lines (the summary always covers every match).
    pub limit: usize,
}

fn read_trace(path: &Path) -> Result<Vec<ParsedEvent>, EnpropError> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        EnpropError::invalid_config(format!("cannot read {}: {e}", path.display()))
    })?;
    let events = parse_jsonl(&text)
        .map_err(|e| EnpropError::invalid_config(format!("{}: {e}", path.display())))?;
    if events.is_empty() {
        return Err(EnpropError::invalid_config(format!(
            "{} holds no trace events (expected the --trace-out FILE.jsonl format)",
            path.display()
        )));
    }
    Ok(events)
}

fn matches(q: &ObsQueryOpts, e: &ParsedEvent) -> bool {
    if let Some(t) = &q.track {
        if !e.track.contains(t.as_str()) {
            return false;
        }
    }
    if let Some(n) = &q.name {
        if !e.name.contains(n.as_str()) {
            return false;
        }
    }
    if q.from_s.is_some_and(|t| e.t_s < t) || q.to_s.is_some_and(|t| e.t_s > t) {
        return false;
    }
    true
}

/// Render one event's kind + payload for the human listing.
fn kind_cell(kind: &ParsedKind) -> String {
    match kind {
        ParsedKind::Begin => "span begin".into(),
        ParsedKind::End => "span end".into(),
        ParsedKind::Instant(v) => format!("instant {v}"),
        ParsedKind::Counter(d) => format!("counter +{d}"),
        ParsedKind::Gauge(v) => format!("gauge {v}"),
        ParsedKind::Power {
            cpu_act_w,
            cpu_stall_w,
            mem_w,
            net_w,
            idle_w,
        } => format!(
            "power {:.3} W",
            cpu_act_w + cpu_stall_w + mem_w + net_w + idle_w
        ),
    }
}

/// The numeric value a quantile summary sketches, if the event has one.
fn numeric_value(e: &ParsedEvent) -> Option<f64> {
    match e.kind {
        ParsedKind::Instant(v) | ParsedKind::Gauge(v) => v.is_finite().then_some(v),
        _ => None,
    }
}

/// `enprop obs query`: filter a JSONL trace by track / name / time range;
/// optionally sketch a metric's values into a percentile summary.
pub fn query_cmd(opts: &Opts, q: &ObsQueryOpts) -> Result<(), EnpropError> {
    let events = read_trace(&q.trace)?;
    let total = events.len();
    let hits: Vec<&ParsedEvent> = events.iter().filter(|e| matches(q, e)).collect();

    if opts.csv {
        let mut rows = vec![vec![
            "t_s".to_string(),
            "track".to_string(),
            "name".to_string(),
            "id".to_string(),
            "kind".to_string(),
        ]];
        for e in &hits {
            rows.push(vec![
                format!("{}", e.t_s),
                e.track.clone(),
                e.name.clone(),
                e.id.to_string(),
                kind_cell(&e.kind),
            ]);
        }
        print!("{}", render_csv(&rows));
    } else {
        for e in hits.iter().take(q.limit) {
            println!(
                "  {:>12.6} s  {:<16} {:<22} {}",
                e.t_s,
                e.track,
                e.name,
                kind_cell(&e.kind)
            );
        }
        if hits.len() > q.limit {
            println!("  … {} more matching events (raise --limit)", hits.len() - q.limit);
        }
        println!("{} of {total} events matched", hits.len());
    }

    if let Some(metric) = &q.quantiles {
        let mut sketch = QuantileSketch::new(DEFAULT_SKETCH_ALPHA);
        for e in &hits {
            if e.name == *metric {
                if let Some(v) = numeric_value(e) {
                    sketch.observe(v);
                }
            }
        }
        if sketch.count() == 0 {
            return Err(EnpropError::invalid_parameter(
                "--quantiles",
                format!("no instant/gauge values named {metric:?} in the filtered events"),
            ));
        }
        let qs = [0.50, 0.90, 0.95, 0.99, 0.999];
        if opts.csv {
            let mut rows = vec![vec![
                "metric".to_string(),
                "count".to_string(),
                "min".to_string(),
                "mean".to_string(),
                "max".to_string(),
                "p50".to_string(),
                "p90".to_string(),
                "p95".to_string(),
                "p99".to_string(),
                "p999".to_string(),
            ]];
            let mut row = vec![
                metric.clone(),
                sketch.count().to_string(),
                format!("{}", sketch.min().unwrap_or(f64::NAN)),
                format!("{}", sketch.mean()),
                format!("{}", sketch.max().unwrap_or(f64::NAN)),
            ];
            for &p in &qs {
                row.push(format!("{}", sketch.quantile(p).unwrap_or(f64::NAN)));
            }
            rows.push(row);
            print!("{}", render_csv(&rows));
        } else {
            println!(
                "\n{metric}: {} samples, min {:.6}, mean {:.6}, max {:.6}",
                sketch.count(),
                sketch.min().unwrap_or(f64::NAN),
                sketch.mean(),
                sketch.max().unwrap_or(f64::NAN)
            );
            for &p in &qs {
                println!(
                    "  p{:<5} {:.6}",
                    p * 100.0,
                    sketch.quantile(p).unwrap_or(f64::NAN)
                );
            }
            println!(
                "  (sketch quantiles, ±{:.0}% relative error)",
                DEFAULT_SKETCH_ALPHA * 100.0
            );
        }
    }
    Ok(())
}

/// Cluster + per-group metrics of one reconstructed window.
#[derive(Default)]
struct WindowRow {
    cluster: BTreeMap<String, f64>,
    groups: BTreeMap<u16, BTreeMap<String, f64>>,
}

/// `enprop obs report`: rebuild the serving plane's per-window table from
/// the `win.*` gauges in a recorded JSONL trace (one row per window close,
/// with per-group energy / J/request / EP sub-rows).
pub fn report_cmd(opts: &Opts, trace: &Path) -> Result<(), EnpropError> {
    let events = read_trace(trace)?;
    // Window closes emit every gauge at the same end_s; key rows on the
    // time's bit pattern (all end times are non-negative, so bit order ==
    // numeric order).
    let mut rows: BTreeMap<u64, WindowRow> = BTreeMap::new();
    for e in &events {
        let ParsedKind::Gauge(v) = e.kind else {
            continue;
        };
        let Some(metric) = e.name.strip_prefix("win.") else {
            continue;
        };
        let row = rows.entry(e.t_s.to_bits()).or_default();
        if let Some(g) = metric.strip_prefix("group.") {
            let Some(gid) = e
                .track
                .strip_prefix("group g")
                .and_then(|s| s.parse::<u16>().ok())
            else {
                continue;
            };
            row.groups.entry(gid).or_default().insert(g.to_string(), v);
        } else if e.track == "controller" {
            row.cluster.insert(metric.to_string(), v);
        }
    }
    if rows.is_empty() {
        return Err(EnpropError::invalid_config(format!(
            "{} holds no win.* gauges — record one with `enprop serve|replay --trace-out FILE.jsonl` \
             (the plane is off when obs_window_s = 0)",
            trace.display()
        )));
    }

    let cell = |m: &BTreeMap<String, f64>, k: &str, prec: usize| -> String {
        m.get(k)
            .map_or_else(|| "-".to_string(), |v| format!("{v:.prec$}"))
    };
    let mut table = vec![vec![
        "window".to_string(),
        "t_end_s".to_string(),
        "scope".to_string(),
        "req_per_s".to_string(),
        "p50_s".to_string(),
        "p99_s".to_string(),
        "p999_s".to_string(),
        "power_w".to_string(),
        "energy_j".to_string(),
        "j_per_req".to_string(),
        "ep".to_string(),
        "burn_fast".to_string(),
        "burn_slow".to_string(),
    ]];
    for (i, (bits, row)) in rows.iter().enumerate() {
        let t_end = f64::from_bits(*bits);
        let c = &row.cluster;
        table.push(vec![
            i.to_string(),
            format!("{t_end:.1}"),
            "cluster".to_string(),
            cell(c, "req_per_s", 1),
            cell(c, "p50_s", 4),
            cell(c, "p99_s", 4),
            cell(c, "p999_s", 4),
            cell(c, "power_w", 1),
            String::new(),
            cell(c, "j_per_req", 4),
            cell(c, "ep", 3),
            cell(c, "burn_fast", 2),
            cell(c, "burn_slow", 2),
        ]);
        for (gid, gm) in &row.groups {
            table.push(vec![
                i.to_string(),
                format!("{t_end:.1}"),
                format!("g{gid}"),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                cell(gm, "energy_j", 1),
                cell(gm, "j_per_req", 4),
                cell(gm, "ep", 3),
                String::new(),
                String::new(),
            ]);
        }
    }
    if opts.csv {
        print!("{}", render_csv(&table));
    } else {
        println!(
            "Serving plane report: {} windows from {}\n",
            rows.len(),
            trace.display()
        );
        print!("{}", crate::output::render_table(&table));
        println!(
            "\n(p50/p99/p999 are sketch quantiles, ±{:.0}% relative error; \
             ep is the per-window energy-proportionality index)",
            DEFAULT_SKETCH_ALPHA * 100.0
        );
    }
    Ok(())
}
