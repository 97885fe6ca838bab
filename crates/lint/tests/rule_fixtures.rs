#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! Per-rule fixtures: every rule gets a positive case (fires), a negative
//! case (stays silent — wrong construct or out-of-scope crate), and a
//! waiver case (fires, then is suppressed by a justified waiver).
//!
//! Fixtures are inline string literals on purpose: the workspace self-scan
//! lexes this very file, and string literals are opaque to the rules, so
//! the violations spelled out here can never leak into the self-scan.

use enprop_lint::lint_source;

/// Paths used to pin each scope: `SIM` is a sim crate, `MODEL` a model
/// crate, `OUT` a crate where neither D- nor N-scoped rules apply.
const SIM: &str = "crates/nodesim/src/fixture.rs";
const MODEL: &str = "crates/core/src/fixture.rs";
const OUT: &str = "crates/cli/src/fixture.rs";

fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
    lint_source(path, src)
        .findings
        .iter()
        .map(|f| f.rule)
        .collect()
}

fn waived_count(path: &str, src: &str) -> (usize, usize) {
    let rep = lint_source(path, src);
    (rep.findings.len(), rep.waived)
}

// ---------------------------------------------------------------- wall-clock

#[test]
fn wall_clock_positive() {
    let src = "fn t() -> f64 { let s = Instant::now(); 0.0 }";
    assert_eq!(rules_hit(SIM, src), ["wall-clock"]);
    let src = "use std::time::SystemTime;";
    assert_eq!(rules_hit(SIM, src), ["wall-clock"]);
}

#[test]
fn wall_clock_negative() {
    // Out-of-scope crate: the CLI may time itself.
    let src = "fn t() -> f64 { let s = Instant::now(); 0.0 }";
    assert!(rules_hit(OUT, src).is_empty());
    // `Instant` as a type name alone (struct field) does not fire.
    let src = "struct Timer { start: Instant }";
    assert!(rules_hit(SIM, src).is_empty());
    // The forbidden name inside a string or comment is invisible.
    let src = "// Instant::now() is banned\nfn f() { let s = \"Instant::now()\"; }";
    assert!(rules_hit(SIM, src).is_empty());
}

#[test]
fn wall_clock_waiver() {
    let src = "fn t() {\n    // enprop-lint: allow(wall-clock) -- self-profiler measures host time by design\n    let s = Instant::now();\n}";
    assert_eq!(waived_count(SIM, src), (0, 1));
}

// ------------------------------------------------------------------ map-iter

#[test]
fn map_iter_positive() {
    let src = "use std::collections::HashMap;";
    assert_eq!(rules_hit(SIM, src), ["map-iter"]);
    let src = "fn f(s: HashSet<u64>) {}";
    assert_eq!(rules_hit(SIM, src), ["map-iter"]);
}

#[test]
fn map_iter_negative() {
    let src = "use std::collections::BTreeMap;\nfn f(s: BTreeSet<u64>) {}";
    assert!(rules_hit(SIM, src).is_empty());
    let src = "use std::collections::HashMap;";
    assert!(rules_hit(OUT, src).is_empty());
}

#[test]
fn map_iter_waiver() {
    let src = "// enprop-lint: allow(map-iter) -- keys are drained into a sorted Vec before any iteration\nuse std::collections::HashMap;";
    assert_eq!(waived_count(SIM, src), (0, 1));
}

// ------------------------------------------------------------- ambient-state

#[test]
fn ambient_state_positive() {
    let src = "static mut TICKS: u64 = 0;";
    assert_eq!(rules_hit(SIM, src), ["ambient-state"]);
    let src = "thread_local! { static SCRATCH: RefCell<Vec<f64>> = RefCell::new(Vec::new()); }";
    assert_eq!(rules_hit(SIM, src), ["ambient-state"]);
}

#[test]
fn ambient_state_negative() {
    // Immutable statics and `&'static` lifetimes are fine.
    let src = "static NAMES: [&'static str; 2] = [\"a\", \"b\"];";
    assert!(rules_hit(SIM, src).is_empty());
    let src = "static mut TICKS: u64 = 0;";
    assert!(rules_hit(OUT, src).is_empty());
}

#[test]
fn ambient_state_waiver() {
    let src = "// enprop-lint: allow(ambient-state) -- write-once cache installed before any sim runs\nstatic mut TICKS: u64 = 0;";
    assert_eq!(waived_count(SIM, src), (0, 1));
}

// -------------------------------------------------------------- unseeded-rng

#[test]
fn unseeded_rng_positive() {
    // Workspace-scoped: fires even outside sim/model crates.
    let src = "fn f() { let mut r = StdRng::from_entropy(); }";
    assert_eq!(rules_hit(OUT, src), ["unseeded-rng"]);
    let src = "fn f() { let mut r = thread_rng(); }";
    assert_eq!(rules_hit("src/lib.rs", src), ["unseeded-rng"]);
    let src = "use rand::rngs::OsRng;";
    assert_eq!(rules_hit(SIM, src), ["unseeded-rng"]);
}

#[test]
fn unseeded_rng_negative() {
    let src = "fn f(seed: u64) { let mut r = StdRng::seed_from_u64(seed); }";
    assert!(rules_hit(OUT, src).is_empty());
}

#[test]
fn unseeded_rng_waiver() {
    let src = "fn f() {\n    // enprop-lint: allow(unseeded-rng) -- interactive demo tool, results are not recorded\n    let mut r = thread_rng();\n}";
    assert_eq!(waived_count(OUT, src), (0, 1));
}

// ------------------------------------------------------------ float-int-cast

#[test]
fn float_int_cast_positive() {
    // Float-method call chain.
    let src = "fn f(h: f64) -> usize { h.floor() as usize }";
    assert_eq!(rules_hit(MODEL, src), ["float-int-cast"]);
    // Float literal.
    let src = "fn f() -> u32 { 1.5 as u32 }";
    assert_eq!(rules_hit(MODEL, src), ["float-int-cast"]);
    // Parenthesized float expression.
    let src = "fn f(x: u64) -> u64 { (x as f64 * 0.5) as u64 }";
    assert_eq!(rules_hit(MODEL, src), ["float-int-cast"]);
    // Double cast through f64.
    let src = "fn f(x: u64) -> usize { x as f64 as usize }";
    assert_eq!(rules_hit(MODEL, src), ["float-int-cast"]);
}

#[test]
fn float_int_cast_negative() {
    // int→float widening and int→int casts are not this rule's business.
    let src = "fn f(n: usize) -> f64 { n as f64 }";
    assert!(rules_hit(MODEL, src).is_empty());
    let src = "fn f(n: u64) -> u16 { n as u16 }";
    assert!(rules_hit(MODEL, src).is_empty());
    // A call that is not provably float-valued stays silent (lexical rule).
    let src = "fn f(v: &[u64]) -> u32 { v.len() as u32 }";
    assert!(rules_hit(MODEL, src).is_empty());
    // Out of scope.
    let src = "fn f(h: f64) -> usize { h.floor() as usize }";
    assert!(rules_hit(OUT, src).is_empty());
}

#[test]
fn float_int_cast_waiver() {
    let src = "fn f(h: f64) -> usize {\n    // enprop-lint: allow(float-int-cast) -- h is clamped to [0, len-1] above\n    h.floor() as usize\n}";
    assert_eq!(waived_count(MODEL, src), (0, 1));
}

// ------------------------------------------------------------------ f32-math

#[test]
fn f32_math_positive() {
    let src = "fn f(p: f32) -> f32 { p }";
    assert_eq!(rules_hit(MODEL, src), ["f32-math", "f32-math"]);
    let src = "fn f() -> f64 { 1.5f32 as f64 }";
    assert_eq!(rules_hit(MODEL, src), ["f32-math"]);
}

#[test]
fn f32_math_negative() {
    let src = "fn f(p: f64) -> f64 { p * 1.5 }";
    assert!(rules_hit(MODEL, src).is_empty());
    let src = "fn f(p: f32) -> f32 { p }";
    assert!(rules_hit(OUT, src).is_empty());
}

#[test]
fn f32_math_waiver() {
    let src = "// enprop-lint: allow(f32-math) -- GPU interop buffer, converted to f64 at the boundary\nfn f(p: f32) {}";
    assert_eq!(waived_count(MODEL, src), (0, 1));
}

// ------------------------------------------------------------------- nan-ord

#[test]
fn nan_ord_positive() {
    let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
    assert_eq!(rules_hit(OUT, src), ["nan-ord"]);
    // Function reference passed to a sort.
    let src = "fn f(v: &mut [f64]) { v.sort_by(f64::partial_cmp); }";
    assert_eq!(rules_hit(OUT, src), ["nan-ord"]);
}

#[test]
fn nan_ord_negative() {
    let src = "fn f(v: &mut [f64]) { v.sort_by(f64::total_cmp); }";
    assert!(rules_hit(OUT, src).is_empty());
    // A PartialOrd impl defines partial_cmp; that is not a call site.
    let src = "impl PartialOrd for P { fn partial_cmp(&self, o: &Self) -> Option<Ordering> { Some(self.t.total_cmp(&o.t)) } }";
    assert!(rules_hit(SIM, src).is_empty());
}

#[test]
fn nan_ord_waiver() {
    let src = "fn f(v: &mut Vec<f64>) {\n    // enprop-lint: allow(nan-ord) -- inputs proven finite by the validator above\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}";
    assert_eq!(waived_count(OUT, src), (0, 1));
}

// ------------------------------------------------------------------ float-eq

#[test]
fn float_eq_positive() {
    let src = "fn f(x: f64) -> bool { x == 1.5 }";
    assert_eq!(rules_hit(MODEL, src), ["float-eq"]);
    let src = "fn f(x: f64) -> bool { x != 0.25 }";
    assert_eq!(rules_hit(SIM, src), ["float-eq"]);
    let src = "fn f(x: f64) -> bool { 2.5 == x }";
    assert_eq!(rules_hit(MODEL, src), ["float-eq"]);
}

#[test]
fn float_eq_negative() {
    // Literal-zero sentinels are exempt by design.
    let src = "fn f(x: f64) -> bool { x == 0.0 }";
    assert!(rules_hit(MODEL, src).is_empty());
    // Ordering comparisons are fine.
    let src = "fn f(x: f64) -> bool { x <= 1.5 && x >= 0.5 }";
    assert!(rules_hit(MODEL, src).is_empty());
    // Integer equality is fine.
    let src = "fn f(x: u64) -> bool { x == 15 }";
    assert!(rules_hit(MODEL, src).is_empty());
    // Out of scope.
    let src = "fn f(x: f64) -> bool { x == 1.5 }";
    assert!(rules_hit(OUT, src).is_empty());
}

#[test]
fn float_eq_waiver() {
    let src = "fn f(x: f64) -> bool {\n    // enprop-lint: allow(float-eq) -- 1.5 is exactly representable and set by the same code path\n    x == 1.5\n}";
    assert_eq!(waived_count(MODEL, src), (0, 1));
}

// ------------------------------------------------------------- waiver-syntax

#[test]
fn waiver_syntax_positive() {
    // Unknown rule id.
    let src = "// enprop-lint: allow(no-such-rule) -- whatever\nfn f() {}";
    assert_eq!(rules_hit(OUT, src), ["waiver-syntax"]);
    // Missing reason.
    let src = "// enprop-lint: allow(wall-clock)\nfn f() {}";
    assert_eq!(rules_hit(OUT, src), ["waiver-syntax"]);
    // Not an allow(...) directive at all.
    let src = "// enprop-lint: disable everything\nfn f() {}";
    assert_eq!(rules_hit(OUT, src), ["waiver-syntax"]);
}

#[test]
fn waiver_syntax_negative() {
    // A well-formed waiver is syntactically fine, but if nothing fires
    // under it the stale-waiver pass (W002) names it dead weight.
    let src = "// enprop-lint: allow(wall-clock) -- documented example\nfn f() {}";
    let rep = lint_source(OUT, src);
    assert_eq!(rep.findings.len(), 1);
    assert_eq!(rep.findings[0].rule, "stale-waiver");
    assert_eq!(rep.waived, 0);
    // Ordinary comments never parse as waivers.
    let src = "// the linter (see crates/lint) checks this file\nfn f() {}";
    assert!(rules_hit(OUT, src).is_empty());
}

#[test]
fn waiver_only_suppresses_its_own_rule_and_line() {
    // A wall-clock waiver does not silence an unseeded-rng finding — and
    // having suppressed nothing, it is itself flagged stale.
    let src = "fn f() {\n    // enprop-lint: allow(wall-clock) -- wrong rule on purpose\n    let mut r = thread_rng();\n}";
    let mut hit = rules_hit(SIM, src);
    hit.sort_unstable();
    assert_eq!(hit, ["stale-waiver", "unseeded-rng"]);
    // A waiver two lines above the violation is out of range.
    let src = "fn f() {\n    // enprop-lint: allow(unseeded-rng) -- too far away\n\n    let mut r = thread_rng();\n}";
    let mut hit = rules_hit(SIM, src);
    hit.sort_unstable();
    assert_eq!(hit, ["stale-waiver", "unseeded-rng"]);
}

// ------------------------------------------------------------------ unit-add

#[test]
fn unit_add_positive() {
    let src = "fn f() { let x = energy_j + idle_w; }";
    assert_eq!(rules_hit(MODEL, src), ["unit-add"]);
    // Fires in sim crates too (SimOrModel scope), and on subtraction.
    let src = "fn f() { let x = budget_j - drain_w; }";
    assert_eq!(rules_hit(SIM, src), ["unit-add"]);
}

#[test]
fn unit_add_negative() {
    // Like dimensions add fine.
    let src = "fn f() { let x = busy_j + idle_j; }";
    assert!(rules_hit(MODEL, src).is_empty());
    // An unsuffixed operand unifies with anything (charitable inference).
    let src = "fn f() { let x = energy_j + overhead; }";
    assert!(rules_hit(MODEL, src).is_empty());
    // Out of scope.
    let src = "fn f() { let x = energy_j + idle_w; }";
    assert!(rules_hit(OUT, src).is_empty());
}

#[test]
fn unit_add_waiver() {
    let src = "fn f() {\n    // enprop-lint: allow(unit-add) -- fixture: deliberate unlike-dimension sum\n    let x = energy_j + idle_w;\n}";
    assert_eq!(waived_count(MODEL, src), (0, 1));
}

// --------------------------------------------------------------- unit-assign

#[test]
fn unit_assign_positive() {
    let src = "fn f() { let dt_s = power_w; }";
    assert_eq!(rules_hit(MODEL, src), ["unit-assign"]);
    // Compound assignment into a suffixed field.
    let src = "fn f() { n.energy_j += busy_power_w; }";
    assert_eq!(rules_hit(SIM, src), ["unit-assign"]);
}

#[test]
fn unit_assign_negative() {
    // Matching dimensions, including through arithmetic.
    let src = "fn f() { let energy_j = busy_power_w * dt_s; }";
    assert!(rules_hit(MODEL, src).is_empty());
    // `*=` rescales by design and is exempt.
    let src = "fn f() { total_j *= derate_frac; }";
    assert!(rules_hit(MODEL, src).is_empty());
    let src = "fn f() { let dt_s = power_w; }";
    assert!(rules_hit(OUT, src).is_empty());
}

#[test]
fn unit_assign_waiver() {
    let src = "fn f() {\n    // enprop-lint: allow(unit-assign) -- fixture: the op is defined as one watt-step here\n    let dt_s = power_w;\n}";
    assert_eq!(waived_count(MODEL, src), (0, 1));
}

// ------------------------------------------------------------------ unit-cmp

#[test]
fn unit_cmp_positive() {
    let src = "fn f() { if energy_j > idle_w { g() } }";
    assert_eq!(rules_hit(MODEL, src), ["unit-cmp"]);
    // min/max count as comparisons.
    let src = "fn f() { let x = peak_w.max(floor_j); }";
    assert_eq!(rules_hit(SIM, src), ["unit-cmp"]);
}

#[test]
fn unit_cmp_negative() {
    let src = "fn f() { if busy_j > idle_j { g() } }";
    assert!(rules_hit(MODEL, src).is_empty());
    // One unknown side unifies.
    let src = "fn f() { if energy_j > threshold { g() } }";
    assert!(rules_hit(MODEL, src).is_empty());
    let src = "fn f() { if energy_j > idle_w { g() } }";
    assert!(rules_hit(OUT, src).is_empty());
}

#[test]
fn unit_cmp_waiver() {
    let src = "fn f() {\n    // enprop-lint: allow(unit-cmp) -- fixture: threshold encodes J-per-1s window\n    if energy_j > idle_w { g() }\n}";
    assert_eq!(waived_count(MODEL, src), (0, 1));
}

// --------------------------------------------------------------- unit-opaque

#[test]
fn unit_opaque_positive() {
    // A suffixed binding built from a product of dimensionless unknowns
    // claims a unit inference cannot verify.
    let src = "fn f() { let energy_j = p * dt; }";
    assert_eq!(rules_hit(MODEL, src), ["unit-opaque"]);
    // Even one unknown factor voids the product's dimension.
    let src = "fn f() { let energy_j = p_w * dt; }";
    assert_eq!(rules_hit(MODEL, src), ["unit-opaque"]);
}

#[test]
fn unit_opaque_negative() {
    // Fully suffixed factors let inference verify the claim (U002 would
    // fire instead if they multiplied out to the wrong dimension).
    let src = "fn f() { let energy_j = p_w * dt_s; }";
    assert!(rules_hit(MODEL, src).is_empty());
    // Pure literal scaling adopts the context's dimension silently.
    let src = "fn f() { let cap_bytes = 256.0 * 1024.0; }";
    assert!(rules_hit(MODEL, src).is_empty());
    let src = "fn f() { let energy_j = p * dt; }";
    assert!(rules_hit(OUT, src).is_empty());
}

#[test]
fn unit_opaque_waiver() {
    let src = "fn f() {\n    // enprop-lint: allow(unit-opaque) -- fixture: p is W and dt is s by construction above\n    let energy_j = p * dt;\n}";
    assert_eq!(waived_count(MODEL, src), (0, 1));
}

// --------------------------------------------------------------- lock-reenter

/// A path inside the lock-rule scope (vendored rayon, obs, the eval cache).
const LOCKS: &str = "vendor/rayon/src/fixture.rs";

#[test]
fn lock_reenter_positive() {
    let src = "fn f(&self) { let g = self.inner.lock(); self.inner.lock().push(1); }";
    assert_eq!(rules_hit(LOCKS, src), ["lock-reenter"]);
}

#[test]
fn lock_reenter_negative() {
    // Dropping the guard first is the sanctioned shape.
    let src = "fn f(&self) { let g = self.inner.lock(); drop(g); self.inner.lock().push(1); }";
    assert!(rules_hit(LOCKS, src).is_empty());
    // Lock rules are scoped: the same code elsewhere is not checked.
    let src = "fn f(&self) { let g = self.inner.lock(); self.inner.lock().push(1); }";
    assert!(rules_hit(OUT, src).is_empty());
}

#[test]
fn lock_reenter_waiver() {
    let src = "fn f(&self) {\n    let g = self.inner.lock();\n    // enprop-lint: allow(lock-reenter) -- fixture: guard provably dropped on this branch\n    self.inner.lock().push(1);\n}";
    assert_eq!(waived_count(LOCKS, src), (0, 1));
}

// ----------------------------------------------------------------- lock-order

#[test]
fn lock_order_positive() {
    let src = "fn f(&self) { \
                 { let a = self.a.lock(); let b = self.b.lock(); } \
                 { let b = self.b.lock(); let a = self.a.lock(); } \
               }";
    assert_eq!(rules_hit(LOCKS, src), ["lock-order"]);
}

#[test]
fn lock_order_negative() {
    let src = "fn f(&self) { \
                 { let a = self.a.lock(); let b = self.b.lock(); } \
                 { let a = self.a.lock(); let b = self.b.lock(); } \
               }";
    assert!(rules_hit(LOCKS, src).is_empty());
    let src = "fn f(&self) { \
                 { let a = self.a.lock(); let b = self.b.lock(); } \
                 { let b = self.b.lock(); let a = self.a.lock(); } \
               }";
    assert!(rules_hit(OUT, src).is_empty());
}

#[test]
fn lock_order_waiver() {
    let src = "fn f(&self) {\n    { let a = self.a.lock(); let b = self.b.lock(); }\n    // enprop-lint: allow(lock-order) -- fixture: second block runs only after the pool quiesces\n    { let b = self.b.lock(); let a = self.a.lock(); }\n}";
    assert_eq!(waived_count(LOCKS, src), (0, 1));
}

// --------------------------------------------------------------- stale-waiver

#[test]
fn stale_waiver_positive() {
    let src = "// enprop-lint: allow(map-iter) -- the HashMap this excused is long gone\nfn f() {}";
    let rep = lint_source(SIM, src);
    assert_eq!(rep.findings.len(), 1);
    let f = &rep.findings[0];
    assert_eq!((f.rule, f.code), ("stale-waiver", "W002"));
    // W002 points at the waiver comment itself and quotes its reason.
    assert_eq!(f.line, 1);
    assert!(f.message.contains("map-iter"), "{}", f.message);
    assert!(f.message.contains("long gone"), "{}", f.message);
}

#[test]
fn stale_waiver_negative() {
    // A waiver that earns its keep is not stale.
    let src = "// enprop-lint: allow(map-iter) -- keys drained into a sorted Vec\nuse std::collections::HashMap;";
    assert_eq!(waived_count(SIM, src), (0, 1));
    // Malformed waivers are W001's business, never W002's.
    let src = "// enprop-lint: allow(no-such-rule) -- whatever\nfn f() {}";
    assert_eq!(rules_hit(SIM, src), ["waiver-syntax"]);
}

#[test]
fn stale_waiver_waiver() {
    // The escape hatch: a stale-waiver waiver keeps a conditional waiver
    // alive (e.g. one that only suppresses under a feature flag).
    let src = "// enprop-lint: allow(stale-waiver) -- fixture: inner waiver fires only under feature X\n// enprop-lint: allow(wall-clock) -- profiling path, compiled out by default\nfn f() {}";
    assert_eq!(waived_count(SIM, src), (0, 1));
}

#[test]
fn waiver_records_expose_usage() {
    let src = "// enprop-lint: allow(map-iter) -- keys drained into a sorted Vec\nuse std::collections::HashMap;\n// enprop-lint: allow(wall-clock) -- nothing under this one\nfn f() {}";
    let rep = lint_source(SIM, src);
    let used: Vec<(String, bool)> = rep
        .waivers
        .iter()
        .map(|w| (w.rule.clone(), w.used))
        .collect();
    assert_eq!(
        used,
        [
            ("map-iter".to_string(), true),
            ("wall-clock".to_string(), false)
        ]
    );
}

// -------------------------------------------------------- cross-rule behavior

#[test]
fn findings_carry_positions_and_codes() {
    let src = "fn t() {\n    let s = Instant::now();\n}";
    let rep = lint_source(SIM, src);
    assert_eq!(rep.findings.len(), 1);
    let f = &rep.findings[0];
    assert_eq!((f.rule, f.code), ("wall-clock", "D001"));
    assert_eq!(f.line, 2);
    assert!(f.col > 1);
    assert_eq!(f.path, SIM);
}

#[test]
fn multiple_rules_fire_in_one_file() {
    let src = "use std::collections::HashMap;\nfn f(x: f64) -> bool { x == 1.5 }";
    let mut hit = rules_hit(SIM, src);
    hit.sort_unstable();
    assert_eq!(hit, ["float-eq", "map-iter"]);
}
