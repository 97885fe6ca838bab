//! `enprop-lint` — scan the workspace for determinism and numeric-hygiene
//! violations the compiler cannot see.
//!
//! ```text
//! enprop-lint [waivers] [--json] [--root DIR] [--list-rules] [--explain RULE]
//! ```
//!
//! The `waivers` subcommand lists every active waiver with its rule, site,
//! reason, and whether it still suppresses anything.
//!
//! Exit codes (aligned with the `enprop` CLI's typed codes): **0** clean,
//! **1** findings reported, **2** invalid usage or I/O error.

use enprop_lint::{report, scan};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: enprop-lint [waivers] [--json] [--root DIR] [--list-rules] [--explain RULE]";

struct Args {
    json: bool,
    root: Option<PathBuf>,
    list_rules: bool,
    explain: Option<String>,
    waivers: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: false,
        root: None,
        list_rules: false,
        explain: None,
        waivers: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "waivers" => args.waivers = true,
            "--json" => args.json = true,
            "--root" => {
                let dir = it.next().ok_or("--root requires a directory")?;
                args.root = Some(PathBuf::from(dir));
            }
            "--list-rules" => args.list_rules = true,
            "--explain" => {
                let rule = it.next().ok_or("--explain requires a rule id")?;
                args.explain = Some(rule);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("enprop-lint: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        print!("{}", report::list_rules());
        return ExitCode::SUCCESS;
    }
    if let Some(rule) = &args.explain {
        return match report::explain(rule) {
            Some(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("enprop-lint: unknown rule `{rule}`; try --list-rules");
                ExitCode::from(2)
            }
        };
    }

    let root = match args.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match scan::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "enprop-lint: no workspace root found above {}",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    // Wall-clock here is CI telemetry for the lint-runtime budget, not sim
    // state; the `wall-clock` rule scopes to simulation crates only.
    let started = std::time::Instant::now();
    let rep = match scan::scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("enprop-lint: scan failed under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let scan_ms = started.elapsed().as_millis();

    if args.waivers {
        print!("{}", report::render_waivers(&rep));
        return ExitCode::SUCCESS;
    }
    if args.json {
        print!("{}", report::render_json(&rep, scan_ms));
    } else {
        print!("{}", report::render_text(&rep));
    }
    if rep.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
