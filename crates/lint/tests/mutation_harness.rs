#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! Mutation harness for the U-rules: seed realistic, dimensionally *clean*
//! energy-accounting fragments, then systematically inject the two bug
//! classes the rules exist to catch —
//!
//! * **suffix swaps**: one `_j` identifier becomes `_w` (or vice versa),
//!   the classic joules-for-watts confusion;
//! * **dropped conversions**: a `* dt_s` / `/ dt_s` factor disappears, the
//!   classic power-summed-as-energy bug;
//!
//! and assert the linter flags **every** mutant. Detection below 100% on
//! these shapes means the inference got weaker; extend the fragments when
//! new accounting idioms enter the model crates.

use enprop_lint::lint_source;

/// A model-crate path: the U-rules apply here.
const MODEL: &str = "crates/core/src/fixture.rs";

/// Clean fragments modeled on the workspace's real accounting code
/// (controller `advance`, metrics windows, eval-cache composition). Each
/// must lint clean before mutation, so every mutant's findings are caused
/// by the mutation alone.
const FRAGMENTS: &[&str] = &[
    // serve::controller::advance — the energy integration step.
    "fn f() { let energy_j = busy_power_w * dt_s; }",
    // Average power over a window.
    "fn f() { let avg_power_w = total_j / dt_s; }",
    // Accumulation into a suffixed field.
    "fn f() { acc.win_energy_j += node_power_w * dt_s; }",
    // Energy budget guard.
    "fn f() { if used_j > budget_j { trip() } }",
    // Rate derivation (ops axis).
    "fn f() { let rate_ops_s = done_ops / dt_s; }",
    // Energy from per-op cost.
    "fn f() { let job_j = cost_j_per_op * total_ops; }",
];

fn finding_codes(src: &str) -> Vec<&'static str> {
    lint_source(MODEL, src)
        .findings
        .iter()
        .map(|f| f.code)
        .collect()
}

/// Every mutant of `src` where exactly one occurrence of `from` is
/// replaced by `to`.
fn swap_mutants(src: &str, from: &str, to: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(at) = src[start..].find(from) {
        let at = start + at;
        // Whole-suffix occurrences only: the next char must not extend the
        // identifier (`_j` inside `_j_per_op` is a different suffix).
        let next = src[at + from.len()..].chars().next();
        if !next.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
            let mut m = String::with_capacity(src.len());
            m.push_str(&src[..at]);
            m.push_str(to);
            m.push_str(&src[at + from.len()..]);
            out.push(m);
        }
        start = at + from.len();
    }
    out
}

/// Every mutant of `src` with one ` * dt_s` or ` / dt_s` factor deleted.
fn drop_conversion_mutants(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    for needle in [" * dt_s", " / dt_s"] {
        let mut start = 0;
        while let Some(at) = src[start..].find(needle) {
            let at = start + at;
            let mut m = String::with_capacity(src.len());
            m.push_str(&src[..at]);
            m.push_str(&src[at + needle.len()..]);
            out.push(m);
            start = at + needle.len();
        }
    }
    out
}

#[test]
fn fragments_are_clean_before_mutation() {
    for src in FRAGMENTS {
        assert_eq!(finding_codes(src), Vec::<&str>::new(), "fragment {src:?}");
    }
}

#[test]
fn suffix_swap_mutants_are_all_detected() {
    let mut mutants = 0;
    for src in FRAGMENTS {
        for m in swap_mutants(src, "_j", "_w")
            .into_iter()
            .chain(swap_mutants(src, "_w", "_j"))
        {
            let codes = finding_codes(&m);
            assert!(
                codes.iter().any(|c| c.starts_with('U')),
                "undetected suffix-swap mutant {m:?} (codes: {codes:?})"
            );
            mutants += 1;
        }
    }
    // The census below is load-bearing: a refactor that silently stops
    // generating mutants would pass the loop vacuously.
    assert_eq!(mutants, 9, "suffix-swap mutant census changed");
}

#[test]
fn dropped_conversion_mutants_are_all_detected() {
    let mut mutants = 0;
    for src in FRAGMENTS {
        for m in drop_conversion_mutants(src) {
            let codes = finding_codes(&m);
            assert!(
                codes.iter().any(|c| c.starts_with('U')),
                "undetected dropped-conversion mutant {m:?} (codes: {codes:?})"
            );
            mutants += 1;
        }
    }
    assert_eq!(mutants, 4, "dropped-conversion mutant census changed");
}

/// The harness itself must produce real mutants: spot-check one of each
/// class end to end, including which rule catches it.
#[test]
fn harness_spot_checks() {
    // `let energy_j = busy_power_w * dt_s;` with `_j` → `_w`: the binding
    // now claims W but receives J.
    let m = &swap_mutants(FRAGMENTS[0], "_j", "_w")[0];
    assert_eq!(finding_codes(m), ["U002"], "{m:?}");
    // Same fragment with ` * dt_s` dropped: W flows into a J binding.
    let m = &drop_conversion_mutants(FRAGMENTS[0])[0];
    assert_eq!(finding_codes(m), ["U002"], "{m:?}");
    // The guard fragment mutates into a cross-dimension comparison.
    let m = &swap_mutants(FRAGMENTS[3], "_j", "_w")[0];
    assert_eq!(finding_codes(m), ["U003"], "{m:?}");
}
