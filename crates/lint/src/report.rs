//! Rendering: human-readable text for terminals, and a stable JSON
//! document for CI (`--json`). JSON is hand-rolled like the obs
//! exporters — the build is offline, and the schema is four keys deep.

use crate::rules::{rule_by_id, Finding};
use crate::scan::Report;
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

/// `path:line:col: [CODE/rule-id] message`, one finding per line, then a
/// one-line summary.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let _ = writeln!(
            out,
            "{}:{}:{}: [{}/{}] {}",
            f.path, f.line, f.col, f.code, f.rule, f.message
        );
    }
    let _ = writeln!(
        out,
        "enprop-lint: {} finding(s), {} waived, {} file(s) scanned",
        report.findings.len(),
        report.waived,
        report.files_scanned
    );
    out
}

fn finding_json(f: &Finding) -> String {
    let dims = match &f.dims {
        Some((lhs, rhs)) => format!(
            ",\"dims\":{{\"lhs\":\"{}\",\"rhs\":\"{}\"}}",
            escape(lhs),
            escape(rhs)
        ),
        None => String::new(),
    };
    format!(
        "{{\"rule\":\"{}\",\"code\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"{}}}",
        escape(f.rule),
        escape(f.code),
        escape(&f.path),
        f.line,
        f.col,
        escape(&f.message),
        dims
    )
}

/// The machine format consumed by `scripts/verify.sh`. Schema marker
/// `enprop-lint-v2` (v1 plus per-finding `dims` annotations, the waiver
/// table, and scan timing) mirrors the obs metrics export convention.
pub fn render_json(report: &Report, scan_ms: u128) -> String {
    let findings: Vec<String> = report.findings.iter().map(finding_json).collect();
    let waivers: Vec<String> = report
        .waivers
        .iter()
        .map(|w| {
            format!(
                "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"reason\":\"{}\",\"used\":{}}}",
                escape(&w.rule),
                escape(&w.path),
                w.line,
                escape(&w.reason),
                w.used
            )
        })
        .collect();
    format!(
        "{{\"format\":\"enprop-lint-v2\",\"files_scanned\":{},\"waived\":{},\"scan_ms\":{},\"findings\":[{}],\"waivers\":[{}]}}\n",
        report.files_scanned,
        report.waived,
        scan_ms,
        findings.join(","),
        waivers.join(",")
    )
}

/// The `waivers` subcommand: every active waiver with rule, site, reason
/// and whether it still suppresses anything.
pub fn render_waivers(report: &Report) -> String {
    let mut out = String::new();
    for w in &report.waivers {
        let status = if w.used { "active" } else { "STALE" };
        let _ = writeln!(
            out,
            "{}:{}: allow({}) [{}] -- {}",
            w.path, w.line, w.rule, status, w.reason
        );
    }
    let stale = report.waivers.iter().filter(|w| !w.used).count();
    let _ = writeln!(
        out,
        "enprop-lint: {} waiver(s), {} stale",
        report.waivers.len(),
        stale
    );
    out
}

/// The `--explain <rule>` page: summary, scope, rationale, waiver recipe.
pub fn explain(id: &str) -> Option<String> {
    let r = rule_by_id(id)?;
    Some(format!(
        "{} ({})\n  {}\n\n  scope: {:?}\n\n  {}\n\n  waiver: append or precede the line with\n    \
         // enprop-lint: allow({}) -- <why this site is sound>\n",
        r.id, r.code, r.summary, r.scope, r.rationale, r.id
    ))
}

/// The `--list-rules` table.
pub fn list_rules() -> String {
    let mut out = String::new();
    for r in crate::rules::RULES {
        let _ = writeln!(
            out,
            "{:>5}  {:<16} {:?}: {}",
            r.code, r.id, r.scope, r.summary
        );
    }
    out
}
