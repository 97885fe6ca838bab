#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! U-rule audit of the streaming evaluator (DESIGN.md §17): the new
//! `_w`/`_j`/`_ops_s`-suffixed identifiers introduced by the mega-scale
//! path must parse to the dimensions they claim, and the files carrying
//! them must stay clean under the unit-coherence pass *without waivers*
//! — the one-pass kernel's hot loop is exactly where a silently-wrong
//! unit would do the most damage.

use enprop_lint::units::{dim_of_ident, Dim};
use enprop_lint::{lint_source, FileReport};
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
}

fn lint_file(rel: &str) -> FileReport {
    let src = std::fs::read_to_string(workspace_root().join(rel)).unwrap();
    lint_source(rel, &src)
}

#[test]
fn stream_identifiers_claim_the_dimensions_they_mean() {
    const ENERGY: Dim = Dim { j: 1, s: 0, ops: 0, b: 0 };
    const POWER: Dim = Dim { j: 1, s: -1, ops: 0, b: 0 };
    const TIME: Dim = Dim { j: 0, s: 1, ops: 0, b: 0 };
    const RATE: Dim = Dim { j: 0, s: -1, ops: 1, b: 0 };
    const PER_OP_ENERGY: Dim = Dim { j: 1, s: 0, ops: -1, b: 0 };
    const BYTES: Dim = Dim { j: 0, s: 0, ops: 0, b: 1 };
    const OPS: Dim = Dim { j: 0, s: 0, ops: 1, b: 0 };
    // (identifier introduced by the §17 path, dimension it must claim)
    let table = [
        ("lb_energy_j", ENERGY),
        ("j_per_op", PER_OP_ENERGY),
        ("min_j_per_op", PER_OP_ENERGY),
        ("cluster_rate_ops_s", RATE),
        ("count_rate_ops_s", RATE),
        ("rate_ops_s", RATE),
        ("job_time_s", TIME),
        ("fleet_idle_w", POWER),
        ("fleet_switch_w", POWER),
        ("peak_buffer_bytes", BYTES),
        // The one-pass kernel's run constants and per-group terms.
        ("fixed_min_j_per_op", PER_OP_ENERGY),
        ("energy_j", ENERGY),
        ("node_ops", OPS),
        ("table_bytes", BYTES),
        ("per_worker_bytes", BYTES),
    ];
    for (ident, want) in table {
        assert_eq!(
            dim_of_ident(ident),
            Some(want),
            "`{ident}` must claim `{want}` through the suffix grammar"
        );
    }
}

#[test]
fn streaming_path_is_unit_clean_without_waivers() {
    for rel in [
        "crates/explore/src/stream.rs",
        "crates/explore/src/space.rs",
        "crates/explore/src/pareto.rs",
        "crates/explore/src/cache.rs",
        "crates/bench/src/bin/perf_smoke.rs",
    ] {
        let rep = lint_file(rel);
        let unit_findings: Vec<_> = rep
            .findings
            .iter()
            .filter(|f| f.code.starts_with('U'))
            .collect();
        assert!(
            unit_findings.is_empty(),
            "{rel} has U-rule findings: {unit_findings:?}"
        );
        // Waivers are recorded by rule *name*; all four U rules are
        // `unit-*` (DESIGN.md §15).
        let unit_waivers: Vec<_> = rep
            .waivers
            .iter()
            .filter(|w| w.rule.starts_with("unit-") || w.rule.starts_with('U'))
            .collect();
        assert!(
            unit_waivers.is_empty(),
            "{rel} hides unit findings behind waivers: {unit_waivers:?}"
        );
    }
}
