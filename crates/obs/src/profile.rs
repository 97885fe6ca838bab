//! Wall-clock self-profiling for CLI commands. Unlike everything else in
//! this crate, these timestamps are *real* time — they seed the
//! `BENCH_obs.json` perf trajectory, they never enter simulated-time
//! traces. The BENCH row format is written and read here only.

use crate::line::{Line, LineError};
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// One finished command timing.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Command name (e.g. `table4`).
    pub cmd: String,
    /// Wall-clock duration, milliseconds.
    pub wall_ms: f64,
    /// RNG seed the command ran with.
    pub seed: u64,
    /// Requests (or configs, jobs, …) processed per wall second, when the
    /// command has a natural throughput unit.
    pub req_per_s: Option<f64>,
    /// Peak resident set size of the process, kibibytes (Linux VmHWM).
    pub peak_rss_kb: Option<u64>,
}

impl BenchRecord {
    /// A record with only the mandatory fields.
    pub fn new(cmd: impl Into<String>, wall_ms: f64, seed: u64) -> Self {
        BenchRecord {
            cmd: cmd.into(),
            wall_ms,
            seed,
            req_per_s: None,
            peak_rss_kb: None,
        }
    }

    /// One-line JSON form (JSONL append format). Optional fields are
    /// emitted only when present, so older consumers keep parsing.
    pub fn to_json(&self) -> String {
        let mut cmd = String::with_capacity(self.cmd.len());
        for c in self.cmd.chars() {
            if c == '"' || c == '\\' {
                cmd.push('\\');
            }
            cmd.push(c);
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"cmd\":\"{cmd}\",\"wall_ms\":{},\"seed\":{}",
            self.wall_ms, self.seed
        );
        if let Some(r) = self.req_per_s {
            let _ = write!(out, ",\"req_per_s\":{r}");
        }
        if let Some(k) = self.peak_rss_kb {
            let _ = write!(out, ",\"peak_rss_kb\":{k}");
        }
        out.push('}');
        out
    }
}

/// Peak resident set size of this process in kibibytes, read from
/// `/proc/self/status` (`VmHWM`). `None` off Linux or when unreadable.
pub fn peak_rss_kb() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                return rest
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse().ok());
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Times one command from construction to [`CommandTimer::finish`].
#[derive(Debug)]
pub struct CommandTimer {
    cmd: String,
    seed: u64,
    start: Instant,
}

impl CommandTimer {
    /// Start timing `cmd`.
    pub fn start(cmd: impl Into<String>, seed: u64) -> Self {
        CommandTimer {
            cmd: cmd.into(),
            seed,
            // enprop-lint: allow(wall-clock) -- the self-profiler measures host wall time by design; no sim time is derived from it
            start: Instant::now(),
        }
    }

    /// Stop and produce the record.
    pub fn finish(self) -> BenchRecord {
        BenchRecord::new(self.cmd, self.start.elapsed().as_secs_f64() * 1e3, self.seed)
    }
}

/// Append one record as a JSONL line to `path` (created if missing).
pub fn append_bench_record(path: &Path, record: &BenchRecord) -> io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", record.to_json())
}

/// Read BENCH rows as [`append_bench_record`] writes them. Blank lines
/// are skipped; any other line that is not a well-formed record is a
/// [`LineError`] naming its line number.
pub fn parse_bench_records(text: &str) -> Result<Vec<BenchRecord>, LineError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        let l = Line::parse(i + 1, raw)?;
        out.push(BenchRecord {
            cmd: l.str("cmd")?.into_owned(),
            wall_ms: l.f64("wall_ms")?,
            seed: l.u64("seed")?,
            req_per_s: l.opt_f64("req_per_s")?,
            peak_rss_kb: l.opt_u64("peak_rss_kb")?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_produces_a_positive_duration() {
        let t = CommandTimer::start("table4", 7);
        let r = t.finish();
        assert_eq!(r.cmd, "table4");
        assert_eq!(r.seed, 7);
        assert!(r.wall_ms >= 0.0);
    }

    #[test]
    fn record_json_is_one_object() {
        let r = BenchRecord::new("fig11", 12.5, 3);
        assert_eq!(r.to_json(), "{\"cmd\":\"fig11\",\"wall_ms\":12.5,\"seed\":3}");
    }

    #[test]
    fn optional_fields_serialize_only_when_present() {
        let mut r = BenchRecord::new("serve_replay.1m_chaos", 100.0, 7);
        r.req_per_s = Some(1e6);
        r.peak_rss_kb = Some(4096);
        assert_eq!(
            r.to_json(),
            "{\"cmd\":\"serve_replay.1m_chaos\",\"wall_ms\":100,\"seed\":7,\
             \"req_per_s\":1000000,\"peak_rss_kb\":4096}"
        );
    }

    #[test]
    fn records_read_back_as_written() {
        let plain = BenchRecord::new("a \"quoted\\ cmd\"", 12.5, 3);
        let mut full = BenchRecord::new("serve_replay.1m_chaos", 551.599185, 7);
        full.req_per_s = Some(1812910.5828900018);
        full.peak_rss_kb = Some(3144);
        let text = format!("{}\n\n{}\n", plain.to_json(), full.to_json());
        assert_eq!(parse_bench_records(&text).unwrap(), vec![plain, full]);
    }

    #[test]
    fn a_torn_row_names_its_line() {
        let good = BenchRecord::new("space_eval.stream_pruned", 28.0, 1).to_json();
        let text = format!("{good}\n{good}\n{{\"cmd\":\"space_eval.stream_pruned\",\"wall_m\n");
        let err = parse_bench_records(&text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().starts_with("line 3:"), "{err}");
        let missing = "{\"cmd\":\"x\",\"seed\":1}";
        let err = parse_bench_records(missing).unwrap_err();
        assert_eq!((err.line, err.key.as_deref()), (1, Some("wall_ms")));
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        if cfg!(target_os = "linux") {
            let kb = peak_rss_kb().expect("VmHWM readable");
            assert!(kb > 0);
        }
    }

    #[test]
    fn append_creates_and_extends_the_file() {
        let dir = std::env::temp_dir().join("enprop-obs-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("bench-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let r = BenchRecord::new("t", 1.0, 0);
        append_bench_record(&path, &r).unwrap();
        append_bench_record(&path, &r).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
