//! Aggregate metrics snapshot: fold a recorded stream into per-name
//! summaries and serialize as JSON or CSV.

use crate::event::{EventKind, TraceEvent, Track};
use crate::recorder::MemoryRecorder;
use crate::sketch::QuantileSketch;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Schema identifier embedded in every JSON snapshot (the `obs-smoke` CI
/// gate greps for it).
pub const METRICS_SCHEMA: &str = "enprop-obs-metrics-v1";

/// Aggregated statistics for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    /// Completed spans (matched begin/end pairs).
    pub count: u64,
    /// Begins without a matching end.
    pub unclosed: u64,
    /// Sum of span durations, sim-seconds.
    pub total_s: f64,
    /// Longest span, sim-seconds.
    pub max_s: f64,
}

/// Aggregated statistics for one gauge name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct GaugeStats {
    count: u64,
    last: f64,
    min: f64,
    max: f64,
}

/// An aggregate view over everything a [`MemoryRecorder`] captured:
/// counters, observed-sample sketches (exported as `histograms`), span
/// durations, gauge ranges and power-sample means, each keyed by event
/// name (deterministic `BTreeMap` order).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, QuantileSketch>,
    spans: BTreeMap<&'static str, SpanStats>,
    gauges: BTreeMap<&'static str, GaugeStats>,
    /// Per-track power: (sample count, sum of total watts).
    power: BTreeMap<String, (u64, f64)>,
}

impl MetricsSnapshot {
    /// Fold a recorder's stream and aggregates into a snapshot.
    pub fn from_recorder(rec: &MemoryRecorder) -> Self {
        let mut snap = MetricsSnapshot {
            counters: rec.counters().clone(),
            hists: rec.histograms().clone(),
            ..Default::default()
        };
        let mut open: BTreeMap<(Track, &'static str, u64), Vec<f64>> = BTreeMap::new();
        for e in rec.events() {
            snap.fold_event(e, &mut open);
        }
        for ((_, name, _), begins) in open {
            snap.spans.entry(name).or_default().unclosed += begins.len() as u64;
        }
        snap
    }

    fn fold_event(
        &mut self,
        e: &TraceEvent,
        open: &mut BTreeMap<(Track, &'static str, u64), Vec<f64>>,
    ) {
        match e.kind {
            EventKind::SpanBegin => {
                open.entry((e.track, e.name, e.id)).or_default().push(e.t_s);
            }
            EventKind::SpanEnd => {
                if let Some(b) = open.get_mut(&(e.track, e.name, e.id)).and_then(Vec::pop) {
                    let s = self.spans.entry(e.name).or_default();
                    let dur_s = (e.t_s - b).max(0.0);
                    s.count += 1;
                    s.total_s += dur_s;
                    s.max_s = s.max_s.max(dur_s);
                }
            }
            EventKind::Gauge { value } => {
                let g = self.gauges.entry(e.name).or_default();
                if g.count == 0 {
                    g.min = value;
                    g.max = value;
                } else {
                    g.min = g.min.min(value);
                    g.max = g.max.max(value);
                }
                g.count += 1;
                g.last = value;
            }
            EventKind::Power { sample } => {
                let p = self.power.entry(e.track.label()).or_insert((0, 0.0));
                p.0 += 1;
                p.1 += sample.total_w();
            }
            EventKind::Counter { .. } | EventKind::Instant { .. } => {}
        }
    }

    /// Counter totals.
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// Span statistics by name.
    pub fn spans(&self) -> &BTreeMap<&'static str, SpanStats> {
        &self.spans
    }

    /// Serialize as a single JSON document.
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".into()
            }
        }
        let mut out = format!("{{\"schema\":\"{METRICS_SCHEMA}\"");
        out.push_str(",\"counters\":{");
        let items: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        out.push_str(&items.join(","));
        out.push_str("},\"spans\":{");
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|(k, s)| {
                format!(
                    "\"{k}\":{{\"count\":{},\"unclosed\":{},\"total_s\":{},\"mean_s\":{},\
                     \"max_s\":{}}}",
                    s.count,
                    s.unclosed,
                    num(s.total_s),
                    num(if s.count > 0 {
                        s.total_s / s.count as f64
                    } else {
                        0.0
                    }),
                    num(s.max_s)
                )
            })
            .collect();
        out.push_str(&items.join(","));
        out.push_str("},\"gauges\":{");
        let items: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, g)| {
                format!(
                    "\"{k}\":{{\"count\":{},\"last\":{},\"min\":{},\"max\":{}}}",
                    g.count,
                    num(g.last),
                    num(g.min),
                    num(g.max)
                )
            })
            .collect();
        out.push_str(&items.join(","));
        out.push_str("},\"histograms\":{");
        let items: Vec<String> = self
            .hists
            .iter()
            .map(|(k, h)| {
                format!(
                    "\"{k}\":{{\"count\":{},\"mean\":{},\"min\":{},\"max\":{},\"p95\":{}}}",
                    h.count(),
                    num(h.mean()),
                    num(h.min().unwrap_or(0.0)),
                    num(h.max().unwrap_or(0.0)),
                    num(h.quantile(0.95).unwrap_or(0.0))
                )
            })
            .collect();
        out.push_str(&items.join(","));
        out.push_str("},\"power\":{");
        let items: Vec<String> = self
            .power
            .iter()
            .map(|(k, &(n, sum))| {
                format!(
                    "\"{k}\":{{\"samples\":{n},\"mean_total_w\":{}}}",
                    num(if n > 0 { sum / n as f64 } else { 0.0 })
                )
            })
            .collect();
        out.push_str(&items.join(","));
        out.push_str("}}\n");
        out
    }

    /// Serialize as flat CSV rows: `section,name,stat,value`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("section,name,stat,value\n");
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter,{k},total,{v}");
        }
        for (k, s) in &self.spans {
            let _ = writeln!(out, "span,{k},count,{}", s.count);
            let _ = writeln!(out, "span,{k},total_s,{}", s.total_s);
            let _ = writeln!(out, "span,{k},max_s,{}", s.max_s);
        }
        for (k, g) in &self.gauges {
            let _ = writeln!(out, "gauge,{k},count,{}", g.count);
            let _ = writeln!(out, "gauge,{k},min,{}", g.min);
            let _ = writeln!(out, "gauge,{k},max,{}", g.max);
        }
        for (k, h) in &self.hists {
            let _ = writeln!(out, "histogram,{k},count,{}", h.count());
            let _ = writeln!(out, "histogram,{k},mean,{}", h.mean());
        }
        for (k, &(n, sum)) in &self.power {
            let _ = writeln!(out, "power,{k},samples,{n}");
            let _ = writeln!(
                out,
                "power,{k},mean_total_w,{}",
                if n > 0 { sum / n as f64 } else { 0.0 }
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PowerSample;
    use crate::recorder::Recorder;

    fn recorder() -> MemoryRecorder {
        let mut r = MemoryRecorder::new();
        r.span_begin(0.0, Track::Cluster, "job", 1);
        r.span_end(2.0, Track::Cluster, "job", 1);
        r.span_begin(2.0, Track::Cluster, "job", 2);
        r.span_end(3.0, Track::Cluster, "job", 2);
        r.span_begin(9.0, Track::Cluster, "attempt", 1); // unclosed
        r.counter(0.0, Track::Dispatcher, "dispatch.retries", 4);
        r.gauge(0.0, Track::Dispatcher, "dispatch.queue_depth", 2.0);
        r.gauge(1.0, Track::Dispatcher, "dispatch.queue_depth", 5.0);
        r.observe("queue.wait_s", 0.5);
        r.power(
            1.0,
            Track::Node { group: 0, node: 0 },
            PowerSample {
                cpu_act_w: 1.0,
                idle_w: 1.0,
                ..Default::default()
            },
        );
        r
    }

    #[test]
    fn folds_spans_gauges_and_power() {
        let snap = MetricsSnapshot::from_recorder(&recorder());
        let job = snap.spans()["job"];
        assert_eq!(job.count, 2);
        assert_eq!(job.total_s, 3.0);
        assert_eq!(job.max_s, 2.0);
        assert_eq!(snap.spans()["attempt"].unclosed, 1);
        assert_eq!(snap.counters()["dispatch.retries"], 4);
        assert!(snap.gauges.contains_key("dispatch.queue_depth"));
    }

    #[test]
    fn json_has_schema_and_all_sections() {
        let json = MetricsSnapshot::from_recorder(&recorder()).to_json();
        for needle in [
            METRICS_SCHEMA,
            "\"counters\"",
            "\"spans\"",
            "\"gauges\"",
            "\"histograms\"",
            "\"power\"",
            "\"dispatch.queue_depth\"",
            "\"max\":5",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn csv_is_flat_and_deterministic() {
        let r = recorder();
        let a = MetricsSnapshot::from_recorder(&r).to_csv();
        let b = MetricsSnapshot::from_recorder(&r).to_csv();
        assert_eq!(a, b);
        assert!(a.starts_with("section,name,stat,value\n"));
        assert!(a.contains("counter,dispatch.retries,total,4"));
        assert!(a.contains("gauge,dispatch.queue_depth,max,5"));
    }
}
