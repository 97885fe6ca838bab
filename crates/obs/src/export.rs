//! Deterministic trace exporters: a JSONL event stream and a Chrome
//! trace-event JSON document (loadable in Perfetto / `chrome://tracing`).
//!
//! Determinism contract: the same event slice always serializes to the
//! same bytes. Floats use Rust's shortest-roundtrip `Display`; no maps
//! with nondeterministic iteration order are involved.

use crate::event::{EventKind, TraceEvent, Track};
use crate::line::{Line, LineError};
use std::collections::BTreeMap;
use std::fmt::Write;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// JSON-safe float: `NaN`/`±inf` serialize as `null` (JSON has no float
/// specials); everything else uses shortest-roundtrip `Display`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Serialize events as one JSON object per line, in emission order — the
/// golden-test format (byte-identical across runs of the same seed).
pub fn jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let _ = write!(
            out,
            "{{\"t\":{},\"track\":\"{}\",\"name\":\"{}\",\"id\":{}",
            num(e.t_s),
            escape(&e.track.label()),
            escape(e.name),
            e.id
        );
        match e.kind {
            EventKind::SpanBegin => out.push_str(",\"kind\":\"begin\""),
            EventKind::SpanEnd => out.push_str(",\"kind\":\"end\""),
            EventKind::Instant { value } => {
                let _ = write!(out, ",\"kind\":\"instant\",\"value\":{}", num(value));
            }
            EventKind::Counter { total } => {
                let _ = write!(out, ",\"kind\":\"counter\",\"total\":{total}");
            }
            EventKind::Gauge { value } => {
                let _ = write!(out, ",\"kind\":\"gauge\",\"value\":{}", num(value));
            }
            EventKind::Power { sample } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"power\",\"cpu_act_w\":{},\"cpu_stall_w\":{},\"mem_w\":{},\
                     \"net_w\":{},\"idle_w\":{}",
                    num(sample.cpu_act_w),
                    num(sample.cpu_stall_w),
                    num(sample.mem_w),
                    num(sample.net_w),
                    num(sample.idle_w)
                );
            }
        }
        out.push_str("}\n");
    }
    out
}

/// Microseconds timestamp for the Chrome format (sim seconds × 10⁶).
fn ts(t_s: f64) -> String {
    num(t_s * 1e6)
}

/// Serialize events as a Chrome trace-event JSON document. Span begin/end
/// pairs are matched by `(track, name, id)` into complete (`"X"`) events
/// so overlapping dispatcher spans render correctly; counters, gauges and
/// power samples become counter (`"C"`) events; instants become `"i"`.
/// Each [`Track`] gets its own thread row with a name metadata record.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut records: Vec<String> = Vec::new();
    // One metadata record per distinct track, in Track order.
    let mut tracks: BTreeMap<Track, ()> = BTreeMap::new();
    for e in events {
        tracks.entry(e.track).or_insert(());
    }
    records.push(
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"enprop sim\"}}"
            .to_string(),
    );
    for t in tracks.keys() {
        records.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            t.tid(),
            escape(&t.label())
        ));
    }

    // Open spans: (track, name, id) -> begin time (a stack tolerates
    // re-used ids for sequential spans).
    let mut open: BTreeMap<(Track, &'static str, u64), Vec<f64>> = BTreeMap::new();
    for e in events {
        match e.kind {
            EventKind::SpanBegin => {
                open.entry((e.track, e.name, e.id)).or_default().push(e.t_s);
            }
            EventKind::SpanEnd => {
                let begin = open
                    .get_mut(&(e.track, e.name, e.id))
                    .and_then(Vec::pop);
                if let Some(b) = begin {
                    records.push(format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                         \"name\":\"{}\",\"args\":{{\"id\":{}}}}}",
                        e.track.tid(),
                        ts(b),
                        ts((e.t_s - b).max(0.0)),
                        escape(e.name),
                        e.id
                    ));
                }
            }
            EventKind::Instant { value } => records.push(format!(
                "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\"s\":\"t\",\"name\":\"{}\",\
                 \"args\":{{\"value\":{}}}}}",
                e.track.tid(),
                ts(e.t_s),
                escape(e.name),
                num(value)
            )),
            EventKind::Counter { total } => records.push(format!(
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"{}\",\
                 \"args\":{{\"total\":{}}}}}",
                e.track.tid(),
                ts(e.t_s),
                escape(e.name),
                total
            )),
            EventKind::Gauge { value } => records.push(format!(
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"{}\",\
                 \"args\":{{\"value\":{}}}}}",
                e.track.tid(),
                ts(e.t_s),
                escape(e.name),
                num(value)
            )),
            EventKind::Power { sample } => records.push(format!(
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"{} power [W]\",\
                 \"args\":{{\"cpu_act\":{},\"cpu_stall\":{},\"mem\":{},\"net\":{},\"idle\":{}}}}}",
                e.track.tid(),
                ts(e.t_s),
                escape(&e.track.label()),
                num(sample.cpu_act_w),
                num(sample.cpu_stall_w),
                num(sample.mem_w),
                num(sample.net_w),
                num(sample.idle_w)
            )),
        }
    }
    // Unclosed spans surface as instants so nothing silently disappears.
    for ((track, name, id), begins) in &open {
        for &b in begins {
            records.push(format!(
                "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\"s\":\"t\",\
                 \"name\":\"{} (unclosed)\",\"args\":{{\"id\":{}}}}}",
                track.tid(),
                ts(b),
                escape(name),
                id
            ));
        }
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&records.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Payload of a [`ParsedEvent`] — mirrors [`EventKind`] with owned data.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedKind {
    /// Span open.
    Begin,
    /// Span close.
    End,
    /// Point event with a value (a `null` value, written for a non-finite
    /// one, parses as NaN).
    Instant(f64),
    /// Monotonic counter running total.
    Counter(u64),
    /// Sampled level.
    Gauge(f64),
    /// Per-component power sample, watts.
    Power {
        /// Active-core power.
        cpu_act_w: f64,
        /// Stalled-core power.
        cpu_stall_w: f64,
        /// Memory-controller power.
        mem_w: f64,
        /// NIC power.
        net_w: f64,
        /// System idle power.
        idle_w: f64,
    },
}

/// One event re-read from a JSONL trace: the owned counterpart of
/// [`TraceEvent`] (track and name are strings because arbitrary traces
/// are not limited to this build's static names).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEvent {
    /// Simulated time, seconds.
    pub t_s: f64,
    /// Track label as emitted (e.g. `"controller"`, `"group g0"`).
    pub track: String,
    /// Event name.
    pub name: String,
    /// Correlation id.
    pub id: u64,
    /// Payload.
    pub kind: ParsedKind,
}

/// Parse a JSONL trace produced by [`jsonl`] back into events. Blank
/// lines are skipped; any other line that is not a well-formed event is a
/// [`LineError`] naming its line number. The happy path round-trips
/// exactly.
pub fn parse_jsonl(text: &str) -> Result<Vec<ParsedEvent>, LineError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        let l = Line::parse(i + 1, raw)?;
        let kind = match &*l.str("kind")? {
            "begin" => ParsedKind::Begin,
            "end" => ParsedKind::End,
            "instant" => ParsedKind::Instant(l.f64("value")?),
            "counter" => ParsedKind::Counter(l.u64("total")?),
            "gauge" => ParsedKind::Gauge(l.f64("value")?),
            "power" => ParsedKind::Power {
                cpu_act_w: l.f64("cpu_act_w")?,
                cpu_stall_w: l.f64("cpu_stall_w")?,
                mem_w: l.f64("mem_w")?,
                net_w: l.f64("net_w")?,
                idle_w: l.f64("idle_w")?,
            },
            other => return Err(l.error(format!("unknown event kind {other:?}"))),
        };
        out.push(ParsedEvent {
            t_s: l.f64("t")?,
            track: l.str("track")?.into_owned(),
            name: l.str("name")?.into_owned(),
            id: l.u64("id")?,
            kind,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PowerSample;
    use crate::recorder::{MemoryRecorder, Recorder};

    fn sample_events() -> MemoryRecorder {
        let mut r = MemoryRecorder::new();
        r.span_begin(0.0, Track::Cluster, "job", 7);
        r.counter(0.25, Track::Dispatcher, "dispatch.jobs", 1);
        r.instant(0.5, Track::Node { group: 0, node: 1 }, "fault.crash", 1.0);
        r.gauge(0.75, Track::Dispatcher, "dispatch.queue_depth", 3.0);
        r.power(
            1.0,
            Track::Node { group: 0, node: 1 },
            PowerSample {
                cpu_act_w: 2.0,
                cpu_stall_w: 0.5,
                mem_w: 0.7,
                net_w: 0.1,
                idle_w: 1.8,
            },
        );
        r.span_end(2.0, Track::Cluster, "job", 7);
        r
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let r = sample_events();
        let out = jsonl(r.events());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 6);
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "bad line: {l}");
        }
        assert!(lines[0].contains("\"kind\":\"begin\""));
        assert!(lines[5].contains("\"kind\":\"end\""));
        assert!(lines[4].contains("\"cpu_act_w\":2"));
    }

    #[test]
    fn jsonl_is_byte_deterministic() {
        let a = jsonl(sample_events().events());
        let b = jsonl(sample_events().events());
        assert_eq!(a, b);
    }

    #[test]
    fn chrome_trace_pairs_spans_into_complete_events() {
        let out = chrome_trace(sample_events().events());
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.contains("\"ph\":\"X\""), "no complete event:\n{out}");
        assert!(out.contains("\"dur\":2000000"), "2 s span = 2e6 µs:\n{out}");
        assert!(out.contains("\"thread_name\""));
        assert!(out.contains("node g0.n1"));
    }

    #[test]
    fn chrome_trace_flags_unclosed_spans() {
        let mut r = MemoryRecorder::new();
        r.span_begin(1.0, Track::Queue, "job", 3);
        let out = chrome_trace(r.events());
        assert!(out.contains("unclosed"), "{out}");
    }

    #[test]
    fn overlapping_same_name_spans_pair_by_id() {
        let mut r = MemoryRecorder::new();
        r.span_begin(0.0, Track::Dispatcher, "job", 1);
        r.span_begin(0.5, Track::Dispatcher, "job", 2);
        r.span_end(2.0, Track::Dispatcher, "job", 1);
        r.span_end(3.0, Track::Dispatcher, "job", 2);
        let out = chrome_trace(r.events());
        assert!(out.contains("\"dur\":2000000"));
        assert!(out.contains("\"dur\":2500000"));
        assert!(!out.contains("unclosed"));
    }

    #[test]
    fn non_finite_values_become_null() {
        let mut r = MemoryRecorder::new();
        r.gauge(0.0, Track::Queue, "g", f64::NAN);
        assert!(jsonl(r.events()).contains("\"value\":null"));
    }

    #[test]
    fn parse_jsonl_round_trips_every_kind() {
        let r = sample_events();
        let text = jsonl(r.events());
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed.len(), r.events().len());
        assert_eq!(parsed[0].kind, ParsedKind::Begin);
        assert_eq!(parsed[0].track, "cluster");
        assert_eq!(parsed[0].name, "job");
        assert_eq!(parsed[0].id, 7);
        assert_eq!(parsed[1].kind, ParsedKind::Counter(1));
        assert_eq!(parsed[2].kind, ParsedKind::Instant(1.0));
        assert_eq!(parsed[2].track, "node g0.n1");
        assert_eq!(parsed[3].kind, ParsedKind::Gauge(3.0));
        assert_eq!(
            parsed[4].kind,
            ParsedKind::Power {
                cpu_act_w: 2.0,
                cpu_stall_w: 0.5,
                mem_w: 0.7,
                net_w: 0.1,
                idle_w: 1.8,
            }
        );
        assert_eq!(parsed[5].kind, ParsedKind::End);
        assert_eq!(parsed[5].t_s, 2.0);
    }

    #[test]
    fn parse_jsonl_skips_blank_lines_and_reports_garbage_by_line() {
        let good =
            "{\"t\":1,\"track\":\"queue\",\"name\":\"x\",\"id\":0,\"kind\":\"gauge\",\"value\":2}";
        let parsed = parse_jsonl(&format!("\n  \n{good}\n")).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].kind, ParsedKind::Gauge(2.0));
        for (garbage, line) in [
            (format!("\nnot json\n{good}\n"), 2),
            (format!("{good}\n{{\"t\":oops}}\n"), 2),
            (format!("{good}\n\n{}", &good[..good.len() - 3]), 3),
            (format!("{}\n", good.replace("gauge", "bogus")), 1),
        ] {
            let e = parse_jsonl(&garbage).unwrap_err();
            assert_eq!(e.line, line, "{e}");
            assert!(e.to_string().starts_with(&format!("line {line}: ")), "{e}");
        }
    }

    #[test]
    fn parse_jsonl_unescapes_names() {
        let mut r = MemoryRecorder::new();
        r.instant(0.0, Track::Group { group: 3 }, "win.ep", 0.5);
        let parsed = parse_jsonl(&jsonl(r.events())).unwrap();
        assert_eq!(parsed[0].track, "group g3");
    }
}
