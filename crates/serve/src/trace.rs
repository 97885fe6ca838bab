//! JSONL arrival traces: the replay interchange format.
//!
//! One object per line, `{"t_s":<seconds>,"ops":<operations>}` with an
//! optional `"class":<0|1|…>` SLO-class column, read by the workspace's
//! one flat-line reader ([`enprop_obs::Line`]) and stable enough to diff.
//! [`format_trace`] and [`parse_trace`] round-trip bit-identically
//! through the shortest-roundtrip float formatting both sides share.
//!
//! Error posture: a line may *omit* `ops` (falls back to the caller's
//! default) or `class` (falls back to 0), but a key that is *present with
//! an unparseable value* — e.g. a truncated line — is a typed
//! [`EnpropError::InvalidConfig`] carrying the line number (CLI exit 2),
//! never a silent fallback. Conflating "absent" with "malformed" once
//! made a truncated tail replay as default-size requests; the fixture
//! tests pin the distinction.

use enprop_faults::EnpropError;
use enprop_obs::{Line, LineError};

use crate::arrivals::Arrival;

/// Serialize arrivals to the JSONL trace format (one object per line,
/// trailing newline). The `class` column is written only when non-zero,
/// so class-free workloads keep the historical two-key format.
pub fn format_trace(arrivals: &[Arrival]) -> String {
    let mut out = String::with_capacity(arrivals.len() * 32);
    for a in arrivals {
        if a.class == 0 {
            out.push_str(&format!("{{\"t_s\":{},\"ops\":{}}}\n", a.t_s, a.ops));
        } else {
            out.push_str(&format!(
                "{{\"t_s\":{},\"ops\":{},\"class\":{}}}\n",
                a.t_s, a.ops, a.class
            ));
        }
    }
    out
}

/// Parse a JSONL arrival trace. Every non-empty line must carry a finite
/// `t_s ≥ 0`; lines may omit `ops` (falls back to `default_ops`) and
/// `class` (falls back to 0, latency-critical). Arrival times must be
/// non-decreasing — a trace is a timeline, not a bag. Malformed values
/// are typed errors with the offending line number, never skipped.
pub fn parse_trace(text: &str, default_ops: f64) -> Result<Vec<Arrival>, EnpropError> {
    if !default_ops.is_finite() || default_ops <= 0.0 {
        return Err(EnpropError::invalid_parameter(
            "default_ops",
            format!("must be finite and > 0, got {default_ops}"),
        ));
    }
    let mut out = Vec::new();
    let mut prev = 0.0_f64;
    for (i, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        let lineno = i + 1;
        // A value that fails to read names its key; a line that is not a
        // flat object at all reports the reader's message.
        let bad = |e: LineError| match e.key {
            Some(key) => EnpropError::invalid_config(format!(
                "trace line {lineno}: malformed \"{key}\" value (truncated line?)"
            )),
            None => EnpropError::invalid_config(format!("trace {e}")),
        };
        let line = Line::parse(lineno, raw).map_err(bad)?;
        let t_s = line.opt_f64("t_s").map_err(bad)?.ok_or_else(|| {
            EnpropError::invalid_config(format!("trace line {lineno}: missing \"t_s\""))
        })?;
        if !t_s.is_finite() || t_s < 0.0 {
            return Err(EnpropError::invalid_config(format!(
                "trace line {lineno}: t_s must be finite and ≥ 0, got {t_s}"
            )));
        }
        if t_s < prev {
            return Err(EnpropError::invalid_config(format!(
                "trace line {lineno}: arrival times must be non-decreasing ({t_s} after {prev})"
            )));
        }
        prev = t_s;
        let ops = line.opt_f64("ops").map_err(bad)?.unwrap_or(default_ops);
        if !ops.is_finite() || ops <= 0.0 {
            return Err(EnpropError::invalid_config(format!(
                "trace line {lineno}: ops must be finite and > 0, got {ops}"
            )));
        }
        let class = match line.opt_f64("class").map_err(bad)? {
            None => 0,
            Some(v) => {
                if v.fract() != 0.0 || !(0.0..=255.0).contains(&v) {
                    return Err(EnpropError::invalid_config(format!(
                        "trace line {lineno}: class must be an integer in [0, 255], got {v}"
                    )));
                }
                v as u8
            }
        };
        out.push(Arrival { t_s, ops, class });
    }
    Ok(out)
}

/// A parsed trace being replayed front to back.
#[derive(Debug)]
pub struct ReplayCursor {
    pub(crate) arrivals: Vec<Arrival>,
    /// Index of the next arrival to emit: the checkpoint cursor.
    pub(crate) next: usize,
}

impl ReplayCursor {
    /// Replay `arrivals` (already time-ordered — [`parse_trace`] enforces
    /// this).
    pub fn new(arrivals: Vec<Arrival>) -> Self {
        ReplayCursor { arrivals, next: 0 }
    }

    /// Total arrivals in the trace.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Next arrival, or `None` past the end.
    pub fn next_arrival(&mut self) -> Option<Arrival> {
        let a = self.arrivals.get(self.next).copied()?;
        self.next += 1;
        Some(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A latency-critical (class-0) arrival.
    fn arrival(t_s: f64, ops: f64) -> Arrival {
        Arrival { t_s, ops, class: 0 }
    }

    #[test]
    fn round_trips_bit_identically() {
        let arrivals = vec![
            arrival(0.0, 1000.0),
            arrival(0.125, 512.5),
            Arrival {
                t_s: 2.25e3,
                ops: 1.0,
                class: 1,
            },
        ];
        let text = format_trace(&arrivals);
        let parsed = parse_trace(&text, 1.0).expect("round trip");
        assert_eq!(parsed, arrivals);
        // And formatting the parse reproduces the text exactly.
        assert_eq!(format_trace(&parsed), text);
    }

    #[test]
    fn missing_ops_falls_back_to_default() {
        let parsed = parse_trace("{\"t_s\":1.5}\n", 42.0).expect("parse");
        assert_eq!(parsed, vec![arrival(1.5, 42.0)]);
    }

    #[test]
    fn blank_lines_and_whitespace_are_tolerated() {
        let text = "\n  {\"t_s\": 1.0, \"ops\": 2.0}  \n\n{\"t_s\":3.0,\"ops\":4.0}\n";
        let parsed = parse_trace(text, 1.0).expect("parse");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], arrival(1.0, 2.0));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_trace("{\"ops\":1.0}\n", 1.0).is_err());
        assert!(parse_trace("{\"t_s\":-1.0}\n", 1.0).is_err());
        assert!(parse_trace("{\"t_s\":nope}\n", 1.0).is_err());
        assert!(parse_trace("{\"t_s\":2.0}\n{\"t_s\":1.0}\n", 1.0).is_err());
        assert!(parse_trace("{\"t_s\":1.0,\"ops\":0.0}\n", 1.0).is_err());
        assert!(parse_trace("{\"t_s\":1.0}\n", 0.0).is_err());
    }

    /// A present-but-malformed "ops" must be a typed error carrying the
    /// line number — never a silent fallback to `default_ops` (the old
    /// behavior, which replayed a truncated tail as default-size
    /// requests).
    #[test]
    fn malformed_ops_is_a_typed_error_not_a_fallback() {
        let err = parse_trace(
            "{\"t_s\":0.5,\"ops\":12.0}\n{\"t_s\":1.0,\"ops\":bogus}\n",
            7.0,
        )
        .expect_err("malformed ops must not parse");
        assert_eq!(err.exit_code(), 2, "InvalidConfig → exit 2");
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "must carry the line number: {msg}");
        assert!(msg.contains("ops"), "must name the field: {msg}");
    }

    /// A truncated final line — `"ops":` with the value sheared off —
    /// must fail the same way (this is the crash-mid-write shape a
    /// checkpointed emitter can leave behind).
    #[test]
    fn truncated_line_is_a_typed_error_with_line_number() {
        let err = parse_trace("{\"t_s\":0.5,\"ops\":12.0}\n{\"t_s\":1.0,\"ops\":", 7.0)
            .expect_err("truncated line must not parse");
        assert_eq!(err.exit_code(), 2);
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "must carry the line number: {msg}");
    }

    #[test]
    fn class_column_parses_validates_and_defaults() {
        let parsed = parse_trace("{\"t_s\":1.0,\"ops\":2.0,\"class\":1}\n", 1.0).expect("parse");
        assert_eq!(parsed[0].class, 1);
        let defaulted = parse_trace("{\"t_s\":1.0,\"ops\":2.0}\n", 1.0).expect("parse");
        assert_eq!(defaulted[0].class, 0);
        assert!(parse_trace("{\"t_s\":1.0,\"class\":1.5}\n", 1.0).is_err());
        assert!(parse_trace("{\"t_s\":1.0,\"class\":-1}\n", 1.0).is_err());
        assert!(parse_trace("{\"t_s\":1.0,\"class\":}\n", 1.0).is_err());
    }

    #[test]
    fn cursor_walks_front_to_back() {
        let mut c = ReplayCursor::new(vec![arrival(0.0, 1.0), arrival(1.0, 2.0)]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.next, 0);
        assert_eq!(c.next_arrival().map(|a| a.t_s), Some(0.0));
        assert_eq!(c.next, 1);
        assert_eq!(c.next_arrival().map(|a| a.t_s), Some(1.0));
        assert_eq!(c.next_arrival(), None);
        c.next = 1;
        assert_eq!(c.next_arrival().map(|a| a.t_s), Some(1.0));
    }
}
