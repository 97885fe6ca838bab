#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! The binary's contract with `scripts/verify.sh`: exit 0 on a clean tree,
//! 1 on findings (with machine-readable `--json` output), 2 on bad usage —
//! aligned with the `enprop` CLI's typed exit codes (DESIGN.md §9, §11).

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_enprop-lint"))
}

fn fixture(tag: &str, violating: bool) -> PathBuf {
    let root = std::env::temp_dir().join(format!("enprop-lint-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("crates/nodesim/src")).unwrap();
    fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
    let src = if violating {
        format!("fn f() {{ let mut r = {}(); }}\n", "thread_rng")
    } else {
        "fn f() -> u64 { 42 }\n".to_string()
    };
    fs::write(root.join("crates/nodesim/src/lib.rs"), src).unwrap();
    root
}

#[test]
fn clean_tree_exits_zero() {
    let root = fixture("clean", false);
    let out = bin().arg("--root").arg(&root).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn seeded_violation_exits_one_with_json() {
    let root = fixture("dirty", true);
    let out = bin()
        .args(["--json", "--root"])
        .arg(&root)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"format\":\"enprop-lint-v2\""), "{stdout}");
    assert!(stdout.contains("\"scan_ms\":"), "{stdout}");
    assert!(stdout.contains("\"rule\":\"unseeded-rng\""), "{stdout}");
    assert!(
        stdout.contains("\"path\":\"crates/nodesim/src/lib.rs\""),
        "{stdout}"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn waivers_subcommand_lists_sites() {
    let root = fixture("waivers", false);
    fs::write(
        root.join("crates/nodesim/src/extra.rs"),
        "// enprop-lint: allow(unseeded-rng) -- fixture waiver for CLI test\n\
         fn g() { let mut r = thread_rng(); }\n",
    )
    .unwrap();
    let out = bin()
        .args(["waivers", "--root"])
        .arg(&root)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let listing = String::from_utf8(out.stdout).unwrap();
    assert!(
        listing.contains("allow(unseeded-rng) [active] -- fixture waiver for CLI test"),
        "{listing}"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn bad_usage_exits_two() {
    let out = bin().arg("--no-such-flag").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = bin().args(["--explain", "no-such-rule"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn rule_docs_are_reachable() {
    let out = bin().arg("--list-rules").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let listing = String::from_utf8(out.stdout).unwrap();
    #[rustfmt::skip]
    let codes = [
        "D001", "D002", "D003", "D004",
        "N001", "N002", "N003", "N004",
        "U001", "U002", "U003", "U004",
        "C001", "C002",
        "W001", "W002",
    ];
    for code in codes {
        assert!(listing.contains(code), "missing {code} in --list-rules");
    }
    let out = bin()
        .args(["--explain", "float-int-cast"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let page = String::from_utf8(out.stdout).unwrap();
    assert!(page.contains("N001") && page.contains("waiver"), "{page}");
    // Every rule id in the catalogue has a working --explain page, the
    // new U/C/W rules included.
    for rule in enprop_lint::RULES {
        let out = bin().args(["--explain", rule.id]).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "--explain {} failed", rule.id);
        let page = String::from_utf8(out.stdout).unwrap();
        assert!(
            page.contains(rule.code),
            "--explain {} lacks {}",
            rule.id,
            rule.code
        );
        assert!(!rule.rationale.is_empty());
    }
}
