//! The rule catalogue: determinism (D) and numeric-hygiene (N) rules, plus
//! the waiver-syntax (W) rule that keeps waivers themselves honest.
//!
//! Every rule is deliberately lexical. The simulators' two load-bearing
//! invariants — bit-identical replay of golden traces and the few-percent
//! model-error claim of Table 4 — are violated by *token-level* constructs
//! (`Instant::now`, `HashMap` iteration, `.floor() as usize`, float `==`),
//! so a comment/string-aware token scan catches them without a type
//! checker, keeps the pass dependency-free for the offline build, and runs
//! over the whole workspace in milliseconds.

use crate::lexer::{Comment, TokKind, Token};

/// Where a rule applies, expressed over crate short names (the `<name>` in
/// `crates/<name>`; files outside `crates/` belong to the `root` crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Discrete-event simulation state: replay determinism is the contract.
    Sim,
    /// Model/math code: numeric fidelity is the contract.
    Model,
    /// Union of [`Scope::Sim`] and [`Scope::Model`].
    SimOrModel,
    /// Every scanned file.
    Workspace,
    /// The lock-discipline surface: the vendored `rayon` stub (the one
    /// vendored crate we own the locking behavior of), the `obs` crate,
    /// and the explore result cache — the only places the workspace takes
    /// locks. Path-based, not crate-based, because `vendor/` is otherwise
    /// out of scope.
    Locks,
}

/// Is `rel_path` part of the lock-discipline surface ([`Scope::Locks`])?
pub fn lock_scope(rel_path: &str) -> bool {
    rel_path.starts_with("vendor/rayon/")
        || crate_of(rel_path) == "obs"
        || rel_path == "crates/explore/src/cache.rs"
}

/// Crates whose state drives discrete-event simulation: any
/// nondeterminism here breaks golden-trace replay.
pub const SIM_CRATES: &[&str] = &[
    "nodesim",
    "clustersim",
    "queueing",
    "faults",
    "obs",
    "serve",
];

/// Crates holding the paper's numeric models: silent precision loss here
/// corrupts the Table 4 error claim.
pub const MODEL_CRATES: &[&str] = &[
    "core",
    "metrics",
    "queueing",
    "nodesim",
    "clustersim",
    "workloads",
    "explore",
    "obs",
];

/// One lint rule: stable id (used in waivers and JSON), short code,
/// one-line summary, and the rationale shown by `--explain`.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    pub id: &'static str,
    pub code: &'static str,
    pub scope: Scope,
    pub summary: &'static str,
    pub rationale: &'static str,
}

/// The full catalogue, in display order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "wall-clock",
        code: "D001",
        scope: Scope::Sim,
        summary: "no `Instant::now()` / `SystemTime` in simulation crates",
        rationale: "Sim time is the f64 clock the event queues advance; reading the host \
                    clock makes runs irreproducible and breaks golden-trace bit-identity. \
                    Wall-clock self-profiling must be waived explicitly.",
    },
    Rule {
        id: "map-iter",
        code: "D002",
        scope: Scope::Sim,
        summary: "no `HashMap`/`HashSet` in simulation crates",
        rationale: "std hash maps iterate in RandomState order, so any fold, drain or \
                    event emission over one reorders floating-point reductions and trace \
                    events between runs. Use BTreeMap/BTreeSet or index-keyed Vecs.",
    },
    Rule {
        id: "ambient-state",
        code: "D003",
        scope: Scope::Sim,
        summary: "no `static mut` / `thread_local!` in simulation crates",
        rationale: "Ambient mutable state survives across runs within one process and \
                    differs across threads, so two simulations with the same seed can \
                    diverge. All sim state must live in the simulator structs.",
    },
    Rule {
        id: "unseeded-rng",
        code: "D004",
        scope: Scope::Workspace,
        summary: "no entropy-seeded RNG construction (`from_entropy`, `thread_rng`, `OsRng`)",
        rationale: "Every random stream in the reproduction must be derivable from an \
                    explicit u64 seed; OS entropy makes results unrepeatable. Construct \
                    RNGs with seed_from_u64/from_seed in seeded constructors only.",
    },
    Rule {
        id: "float-int-cast",
        code: "N001",
        scope: Scope::Model,
        summary: "no `as` float→int casts in model code",
        rationale: "`as` truncates toward zero and saturates silently (NaN becomes 0), \
                    turning model quantities into wrong indices or counts without a \
                    trace. Restructure in integer space, or waive with the bound that \
                    makes the cast exact.",
    },
    Rule {
        id: "f32-math",
        code: "N002",
        scope: Scope::Model,
        summary: "no `f32` in energy/power model code",
        rationale: "The paper's model error budget is a few percent; f32's 24-bit \
                    mantissa can eat that in long energy integrations. All model math \
                    is f64 end to end.",
    },
    Rule {
        id: "nan-ord",
        code: "N003",
        scope: Scope::Workspace,
        summary: "no `partial_cmp` call sites (NaN-unsafe ordering)",
        rationale: "`partial_cmp().unwrap()` panics on the first NaN a buggy model \
                    emits, and NaN-propagating sorts scramble quantile buffers \
                    silently. Use f64::total_cmp, which is total over all bit patterns.",
    },
    Rule {
        id: "float-eq",
        code: "N004",
        scope: Scope::SimOrModel,
        summary: "no `==`/`!=` against non-zero float literals",
        rationale: "Exact equality against a computed constant is representation \
                    roulette. Comparisons against literal 0.0 are exempt: IEEE-754 \
                    zero sentinels (`sigma == 0.0` guards) are exact by construction.",
    },
    Rule {
        id: "unit-add",
        code: "U001",
        scope: Scope::SimOrModel,
        summary: "`+`/`-` over operands of unlike physical dimensions",
        rationale: "Identifier suffixes (`_j`, `_w`, `_s`, `_ops`, `_j_per_op`, …) claim \
                    dimensions on the lattice over (J, s, ops, B); adding joules to watts \
                    is the energy-accounting bug the type system cannot see. Inference is \
                    charitable — unsuffixed names unify with anything — so every report \
                    is backed by two explicit unit claims.",
    },
    Rule {
        id: "unit-assign",
        code: "U002",
        scope: Scope::SimOrModel,
        summary: "value of one dimension assigned/returned into a binding suffixed as another",
        rationale: "`let dt_s = power_w;`, `n.energy_j += p_w` and `fn total_j` returning \
                    `W` each break the suffix contract readers and downstream math rely \
                    on. Either the name or the expression is wrong; fix whichever lies. \
                    `*=`/`/=` are exempt (scaling changes dimension by design).",
    },
    Rule {
        id: "unit-cmp",
        code: "U003",
        scope: Scope::SimOrModel,
        summary: "comparison (`<`, `==`, `min`/`max`/`clamp`) across unlike dimensions",
        rationale: "Ordering joules against watts type-checks and always returns *some* \
                    boolean, which is how threshold guards silently compare energy to \
                    power after a refactor. Both sides of a comparison must share a \
                    dimension or leave it unstated.",
    },
    Rule {
        id: "unit-opaque",
        code: "U004",
        scope: Scope::SimOrModel,
        summary: "suffixed binding initialized from a product of unsuffixed names",
        rationale: "`let energy_j = p * dt;` claims joules from factors that claim \
                    nothing — the single most common place a dropped `/ dt_s` or a \
                    W-for-J swap hides. Suffix the factors so inference can verify the \
                    claim, or waive with the conversion spelled out in the reason.",
    },
    Rule {
        id: "lock-reenter",
        code: "C001",
        scope: Scope::Locks,
        summary: "lock acquired while its own guard is still held",
        rationale: "parking_lot mutexes are not reentrant: re-locking on the same thread \
                    — directly, or through a same-file helper that locks — deadlocks at \
                    run time with no compiler diagnostic. Drop the guard first (or pass \
                    it down) before anything that takes the lock again.",
    },
    Rule {
        id: "lock-order",
        code: "C002",
        scope: Scope::Locks,
        summary: "two locks acquired in both orders within one function",
        rationale: "Acquiring `a` then `b` on one path and `b` then `a` on another is \
                    the canonical deadlock-by-interleaving. Pick one acquisition order \
                    per function and keep every path on it.",
    },
    Rule {
        id: "waiver-syntax",
        code: "W001",
        scope: Scope::Workspace,
        summary: "malformed `enprop-lint:` waiver comment",
        rationale: "A waiver must name a known rule and give a reason: \
                    `// enprop-lint: allow(rule-id) -- reason`. A typo'd waiver that \
                    silently fails to suppress (or suppresses nothing) hides intent.",
    },
    Rule {
        id: "stale-waiver",
        code: "W002",
        scope: Scope::Workspace,
        summary: "well-formed waiver that suppresses no finding",
        rationale: "Waivers are point-in-time justifications. When the code they \
                    excused is gone, the leftover comment licenses a *future* violation \
                    on that line unreviewed. Delete stale waivers; `enprop-lint waivers` \
                    lists every active one with its reason.",
    },
];

/// Look up a rule by its stable id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

fn scope_applies(scope: Scope, krate: &str, rel_path: &str) -> bool {
    // Vendored code is not ours to hold to sim/model hygiene — only the
    // lock rules (whose scope names vendor/rayon explicitly) apply there.
    if rel_path.starts_with("vendor/") {
        return scope == Scope::Locks && lock_scope(rel_path);
    }
    match scope {
        Scope::Sim => SIM_CRATES.contains(&krate),
        Scope::Model => MODEL_CRATES.contains(&krate),
        Scope::SimOrModel => SIM_CRATES.contains(&krate) || MODEL_CRATES.contains(&krate),
        Scope::Workspace => true,
        Scope::Locks => lock_scope(rel_path),
    }
}

/// One rule violation at a source position.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub code: &'static str,
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
    /// Dimension annotation for U-rule findings: `(lhs, rhs)` rendered
    /// through the lattice's canonical names (`"J"`, `"W"`, `"ops/s"`,
    /// `"?"` for unknown). `None` for non-dimensional rules.
    pub dims: Option<(String, String)>,
}

/// A parsed waiver comment (the grammar is spelled out in
/// [`RULES`]' `waiver-syntax` entry and in `--explain waiver-syntax`).
#[derive(Debug)]
struct Waiver {
    rule: String,
    line: u32,
    reason: String,
}

/// A waiver as reported outward: what it allows, where, why, and whether
/// it suppressed anything this scan (`used == false` ⇒ a W002 finding).
#[derive(Debug, Clone)]
pub struct WaiverRecord {
    pub rule: String,
    pub path: String,
    pub line: u32,
    pub reason: String,
    pub used: bool,
}

const WAIVER_MARKER: &str = "enprop-lint:";

/// Parse waivers out of the comment stream; malformed ones become
/// `waiver-syntax` findings instead of silently doing nothing.
fn parse_waivers(comments: &[Comment], path: &str, findings: &mut Vec<Finding>) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for c in comments {
        let body = c
            .text
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim();
        let Some(pos) = body.find(WAIVER_MARKER) else {
            continue;
        };
        let directive = body[pos + WAIVER_MARKER.len()..].trim();
        let malformed = |msg: &str, findings: &mut Vec<Finding>| {
            findings.push(Finding {
                rule: "waiver-syntax",
                code: "W001",
                path: path.to_string(),
                line: c.line,
                col: 1,
                message: format!("{msg}; expected `enprop-lint: allow(rule-id) -- reason`"),
                dims: None,
            });
        };
        let Some(rest) = directive.strip_prefix("allow(") else {
            malformed("waiver directive is not `allow(...)`", findings);
            continue;
        };
        let Some(close) = rest.find(')') else {
            malformed("unclosed `allow(`", findings);
            continue;
        };
        let rule = rest[..close].trim();
        if rule_by_id(rule).is_none() {
            malformed(&format!("unknown rule `{rule}` in waiver"), findings);
            continue;
        }
        let after = rest[close + 1..].trim();
        let reason = after.strip_prefix("--").map(str::trim).unwrap_or("");
        if reason.is_empty() {
            malformed(&format!("waiver for `{rule}` has no `-- reason`"), findings);
            continue;
        }
        waivers.push(Waiver {
            rule: rule.to_string(),
            line: c.line,
            reason: reason.to_string(),
        });
    }
    waivers
}

/// Outcome of linting one file.
#[derive(Debug, Default)]
pub struct FileReport {
    pub findings: Vec<Finding>,
    pub waived: usize,
    /// Every well-formed waiver in the file, used or not.
    pub waivers: Vec<WaiverRecord>,
}

/// Does waiver `w` suppress finding `f`? Same line, or the line directly
/// above.
fn suppresses(w: &Waiver, f: &Finding) -> bool {
    w.rule == f.rule && (w.line == f.line || w.line + 1 == f.line)
}

/// Lint one file's source. `rel_path` is workspace-relative with `/`
/// separators; the crate is inferred from it (`crates/<name>/…` → `<name>`,
/// anything else → `root`).
pub fn lint_source(rel_path: &str, src: &str) -> FileReport {
    let krate = crate_of(rel_path);
    let lexed = crate::lexer::lex(src);
    let mut findings = Vec::new();
    let waivers = parse_waivers(&lexed.comments, rel_path, &mut findings);

    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        for rule in RULES {
            if !scope_applies(rule.scope, krate, rel_path) {
                continue;
            }
            if let Some(message) = match_rule(rule.id, toks, i, t) {
                findings.push(Finding {
                    rule: rule.id,
                    code: rule.code,
                    path: rel_path.to_string(),
                    line: t.line,
                    col: t.col,
                    message,
                    dims: None,
                });
            }
        }
    }

    // The structural passes run over the token tree.
    let needs_dims = scope_applies(Scope::SimOrModel, krate, rel_path);
    let needs_locks = scope_applies(Scope::Locks, krate, rel_path);
    if needs_dims || needs_locks {
        let trees = crate::tree::build(toks);
        if needs_dims {
            findings.extend(crate::dims::check(rel_path, &trees));
        }
        if needs_locks {
            findings.extend(crate::locks::check(rel_path, src, &trees));
        }
    }

    // Waiver application, tracking which waivers earned their keep.
    let mut used = vec![false; waivers.len()];
    let mut kept = Vec::new();
    let mut waived = 0usize;
    for f in findings {
        let mut hit = false;
        for (wi, w) in waivers.iter().enumerate() {
            if suppresses(w, &f) {
                used[wi] = true;
                hit = true;
            }
        }
        if hit {
            waived += 1;
        } else {
            kept.push(f);
        }
    }

    // W002: a well-formed waiver that suppressed nothing is itself a
    // finding — waivable in turn by a `stale-waiver` waiver (a deliberate
    // "this fires only under feature X" escape hatch).
    let mut stale = Vec::new();
    for (wi, w) in waivers.iter().enumerate() {
        if used[wi] || w.rule == "stale-waiver" {
            continue;
        }
        stale.push(Finding {
            rule: "stale-waiver",
            code: "W002",
            path: rel_path.to_string(),
            line: w.line,
            col: 1,
            message: format!(
                "waiver for `{}` suppresses nothing; delete it (reason was: {})",
                w.rule, w.reason
            ),
            dims: None,
        });
    }
    for f in stale {
        let mut hit = false;
        for (wi, w) in waivers.iter().enumerate() {
            if w.rule == "stale-waiver" && suppresses(w, &f) {
                used[wi] = true;
                hit = true;
            }
        }
        if hit {
            waived += 1;
        } else {
            kept.push(f);
        }
    }

    let records = waivers
        .into_iter()
        .zip(used)
        .map(|(w, used)| WaiverRecord {
            rule: w.rule,
            path: rel_path.to_string(),
            line: w.line,
            reason: w.reason,
            used,
        })
        .collect();
    FileReport {
        findings: kept,
        waived,
        waivers: records,
    }
}

/// Crate short name for a workspace-relative path.
pub fn crate_of(rel_path: &str) -> &str {
    let mut parts = rel_path.split('/');
    if parts.next() == Some("crates") {
        parts.next().unwrap_or("root")
    } else {
        "root"
    }
}

fn ident_at(toks: &[Token], i: usize, text: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
}

fn punct_at(toks: &[Token], i: usize, text: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
}

/// `a :: b` — `a` at i, `b` expected two puncts later.
fn path_seg(toks: &[Token], i: usize, a: &str, b: &str) -> bool {
    ident_at(toks, i, a)
        && punct_at(toks, i + 1, ":")
        && punct_at(toks, i + 2, ":")
        && ident_at(toks, i + 3, b)
}

const INT_TYPES: &[&str] = &[
    "i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128", "usize",
];

/// Methods that exist (with these names) only on floats: a call chain
/// ending in one of these, cast to an int type, is a float→int cast.
const FLOAT_METHODS: &[&str] = &[
    "floor",
    "ceil",
    "round",
    "trunc",
    "fract",
    "sqrt",
    "cbrt",
    "exp",
    "exp2",
    "ln",
    "log2",
    "log10",
    "powf",
    "powi",
    "recip",
    "signum",
    "mul_add",
    "to_degrees",
    "to_radians",
];

fn float_literal_value(text: &str) -> Option<f64> {
    let cleaned: String = text.replace('_', "");
    let cleaned = cleaned
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .trim_end_matches('f');
    cleaned.parse::<f64>().ok()
}

/// Dispatch one rule against position `i`. Returns the finding message on
/// a match. Waiver-syntax findings are produced during waiver parsing, not
/// here.
fn match_rule(rule: &str, toks: &[Token], i: usize, t: &Token) -> Option<String> {
    match rule {
        "wall-clock" => match_wall_clock(toks, i, t),
        "map-iter" => match_map_iter(t),
        "ambient-state" => match_ambient_state(toks, i, t),
        "unseeded-rng" => match_unseeded_rng(t),
        "float-int-cast" => match_float_int_cast(toks, i, t),
        "f32-math" => match_f32(t),
        "nan-ord" => match_nan_ord(toks, i, t),
        "float-eq" => match_float_eq(toks, i, t),
        _ => None,
    }
}

fn match_wall_clock(toks: &[Token], i: usize, t: &Token) -> Option<String> {
    if t.kind != TokKind::Ident {
        return None;
    }
    if t.text == "SystemTime" {
        return Some(
            "`SystemTime` reads the host clock; simulation time is the f64 event clock".into(),
        );
    }
    if path_seg(toks, i, "Instant", "now") {
        return Some("`Instant::now()` reads the host clock; derive times from sim state".into());
    }
    None
}

fn match_map_iter(t: &Token) -> Option<String> {
    if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
        return Some(format!(
            "`{}` iterates in RandomState order; use BTreeMap/BTreeSet or an index-keyed Vec",
            t.text
        ));
    }
    None
}

fn match_ambient_state(toks: &[Token], i: usize, t: &Token) -> Option<String> {
    if t.kind != TokKind::Ident {
        return None;
    }
    if t.text == "static" && ident_at(toks, i + 1, "mut") {
        return Some(
            "`static mut` is ambient sim state; keep state in the simulator structs".into(),
        );
    }
    if t.text == "thread_local" {
        return Some(
            "`thread_local!` state differs per thread; keep state in the simulator structs".into(),
        );
    }
    None
}

fn match_unseeded_rng(t: &Token) -> Option<String> {
    if t.kind != TokKind::Ident {
        return None;
    }
    match t.text.as_str() {
        "from_entropy" | "thread_rng" | "OsRng" => Some(format!(
            "`{}` draws OS entropy; construct RNGs from an explicit u64 seed",
            t.text
        )),
        _ => None,
    }
}

fn match_f32(t: &Token) -> Option<String> {
    match t.kind {
        TokKind::Ident if t.text == "f32" => {
            Some("f32 in model code; the error budget requires f64 end to end".into())
        }
        TokKind::Float if t.text.ends_with("f32") => {
            Some("f32 literal in model code; the error budget requires f64 end to end".into())
        }
        _ => None,
    }
}

fn match_nan_ord(toks: &[Token], i: usize, t: &Token) -> Option<String> {
    if t.kind != TokKind::Ident || t.text != "partial_cmp" {
        return None;
    }
    // `fn partial_cmp` is a PartialOrd impl, not a call site.
    if i >= 1 && ident_at(toks, i - 1, "fn") {
        return None;
    }
    // Flag `.partial_cmp(` and `T::partial_cmp` (function reference passed
    // to a sort); a bare mention in a `use` list is harmless and rare.
    let after_dot = i >= 1 && punct_at(toks, i - 1, ".");
    let after_path = i >= 2 && punct_at(toks, i - 1, ":") && punct_at(toks, i - 2, ":");
    if after_dot || after_path {
        return Some("NaN-unsafe ordering via `partial_cmp`; use f64::total_cmp".into());
    }
    None
}

/// `==` / `!=` where either operand is a non-zero float literal. Only the
/// first `=` of the operator reports, and compound operators (`<=`, `>=`,
/// `+=` …) are excluded by inspecting the preceding token.
fn match_float_eq(toks: &[Token], i: usize, t: &Token) -> Option<String> {
    let first = &t.text;
    if t.kind != TokKind::Punct || !(first == "=" || first == "!") {
        return None;
    }
    if !punct_at(toks, i + 1, "=") {
        return None;
    }
    if first == "=" {
        // Exclude `<=` `>=` `!=` (handled at the `!`) `==`'s second char,
        // and fat arrows / compound assignment.
        if i >= 1
            && toks[i - 1].kind == TokKind::Punct
            && matches!(
                toks[i - 1].text.as_str(),
                "<" | ">" | "!" | "=" | "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^"
            )
        {
            return None;
        }
        // `== =` never occurs; `===` is not Rust. `a == b`: second `=` must
        // not itself begin another operator — i+2 may be anything.
    }
    let neighbor_float = |tok: Option<&Token>| {
        tok.and_then(|n| {
            if n.kind == TokKind::Float {
                float_literal_value(&n.text)
            } else {
                None
            }
        })
    };
    let lhs = neighbor_float(i.checked_sub(1).and_then(|j| toks.get(j)));
    let rhs = neighbor_float(toks.get(i + 2));
    for v in [lhs, rhs].into_iter().flatten() {
        if v != 0.0 {
            return Some(format!(
                "exact float comparison against {v}; compare with an epsilon or restructure \
                 (literal 0.0 sentinels are exempt)"
            ));
        }
    }
    None
}

/// Walk back from the token before `as` to decide whether the cast source
/// is float-valued; purely lexical, so only provably-float shapes report.
fn match_float_int_cast(toks: &[Token], i: usize, t: &Token) -> Option<String> {
    if t.kind != TokKind::Ident || t.text != "as" {
        return None;
    }
    let target = toks.get(i + 1)?;
    if target.kind != TokKind::Ident || !INT_TYPES.contains(&target.text.as_str()) {
        return None;
    }
    let prev = toks.get(i.checked_sub(1)?)?;
    let reason = match prev.kind {
        TokKind::Float => Some("a float literal".to_string()),
        TokKind::Ident if prev.text == "f64" || prev.text == "f32" => {
            // `x as f64 as usize`
            Some(format!("an `as {}` cast", prev.text))
        }
        TokKind::Punct if prev.text == ")" => {
            let open = matching_open_paren(toks, i - 1)?;
            // `.floor() as usize` — method call on the chain.
            if open >= 2 && punct_at(toks, open - 2, ".") {
                let m = &toks[open - 1];
                if m.kind == TokKind::Ident && FLOAT_METHODS.contains(&m.text.as_str()) {
                    Some(format!("a `.{}()` call", m.text))
                } else {
                    None
                }
            } else if open == 0 || toks[open - 1].kind == TokKind::Punct {
                // `( … ) as usize` — a parenthesized group (not a call):
                // float-valued if it mentions a float literal or f64/f32.
                let inner = &toks[open + 1..i - 1];
                let has_float = inner.iter().any(|x| {
                    x.kind == TokKind::Float
                        || (x.kind == TokKind::Ident && (x.text == "f64" || x.text == "f32"))
                });
                has_float.then(|| "a parenthesized float expression".to_string())
            } else {
                None
            }
        }
        _ => None,
    }?;
    Some(format!(
        "float→int `as {}` cast of {reason}: `as` truncates and saturates silently; \
         restructure in integer space or waive with the bound that makes it exact",
        target.text
    ))
}

/// Index of the `(` matching the `)` at `close`.
fn matching_open_paren(toks: &[Token], close: usize) -> Option<usize> {
    let mut depth = 0usize;
    for j in (0..=close).rev() {
        let t = &toks[j];
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            ")" => depth += 1,
            "(" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}
