#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! Regression coverage for the parallel-evaluation PR: the new pipeline
//! code (the operating-point cache, its property tests, the perf-smoke
//! gate) must sit inside the lint scan's scope and stay clean, while the
//! real thread pool — which legitimately uses OS threads and wall-clock
//! primitives — stays outside it (`vendor/` is excluded by design).

use enprop_lint::{collect_rs_files, lint_source, scan_workspace};
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
}

/// The files this PR added, relative to the workspace root.
const NEW_FILES: &[&str] = &[
    "crates/explore/src/cache.rs",
    "crates/explore/tests/parallel_props.rs",
    "crates/bench/src/bin/perf_smoke.rs",
];

#[test]
fn new_pipeline_files_are_scanned_and_clean() {
    let root = workspace_root();
    let scanned = collect_rs_files(root).unwrap();
    for rel in NEW_FILES {
        let path = root.join(rel);
        assert!(
            scanned.contains(&path),
            "{rel} escaped the lint walker — exclusions are too broad"
        );
        let src = std::fs::read_to_string(&path).unwrap();
        let report = lint_source(rel, &src);
        assert!(
            report.findings.is_empty(),
            "{rel} has lint findings: {:?}",
            report.findings
        );
    }
}

#[test]
fn vendored_pool_sees_only_lock_rules() {
    // The rayon pool uses std::thread and blocking primitives by design;
    // the hygiene rules must not reach it. It *is* walked now — but only
    // for the lock-discipline rules (C001/C002), whose Locks scope names
    // vendor/rayon explicitly. Every other vendored crate stays excluded.
    let root = workspace_root();
    let pool = root.join("vendor/rayon/src/lib.rs");
    assert!(pool.is_file(), "the vendored pool moved");
    let scanned = collect_rs_files(root).unwrap();
    assert!(
        scanned.contains(&pool),
        "vendor/rayon must be walked for the lock rules"
    );
    assert!(
        !scanned.iter().any(
            |p| p.starts_with(root.join("vendor")) && !p.starts_with(root.join("vendor/rayon"))
        ),
        "a non-rayon vendor crate leaked into the lint scan"
    );
    // A determinism violation in the vendored pool must NOT report: only
    // lock rules apply there.
    let fixture = "fn f() { let t = Instant::now(); let mut r = thread_rng(); }\n";
    let rep = lint_source("vendor/rayon/src/lib.rs", fixture);
    assert!(
        rep.findings.is_empty(),
        "hygiene rules leaked into vendor/rayon: {:?}",
        rep.findings
    );
    // …while a lock-discipline violation does.
    let fixture = "fn f(&self) { let g = self.inner.lock(); self.inner.lock().push(1); }\n";
    let rep = lint_source("vendor/rayon/src/lib.rs", fixture);
    assert!(
        rep.findings.iter().any(|f| f.code == "C001"),
        "lock rules must reach vendor/rayon: {:?}",
        rep.findings
    );
}

#[test]
fn cache_hashmap_is_legal_in_a_model_crate() {
    // D002 (HashMap iteration-order hazards) is scoped to Sim crates;
    // the explore cache's HashMap is keyed lookup only and must not
    // require a waiver. Guard the scoping with a focused fixture.
    let fixture =
        "use std::collections::HashMap;\nfn f() { let _m: HashMap<u32, f64> = HashMap::new(); }\n";
    let in_explore = lint_source("crates/explore/src/cache.rs", fixture);
    assert!(
        in_explore.findings.is_empty(),
        "HashMap wrongly flagged in a model crate: {:?}",
        in_explore.findings
    );
    let in_sim = lint_source("crates/clustersim/src/cache.rs", fixture);
    assert!(
        in_sim.findings.iter().any(|f| f.rule == "map-iter"),
        "expected the same fixture to trip D002 in a sim crate"
    );
}

#[test]
fn workspace_stays_clean_with_the_new_subsystems() {
    let rep = scan_workspace(workspace_root()).unwrap();
    assert!(
        rep.findings.is_empty(),
        "lint findings after the pipeline rebuild: {:?}",
        rep.findings
    );
}
