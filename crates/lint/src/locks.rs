//! Lock-discipline rules C001/C002 over the workspace's locking surface
//! ([`Scope::Locks`](crate::rules::Scope)): the vendored `rayon` stub, the
//! `obs` crate, and the explore result cache.
//!
//! * **C001 `lock-reenter`** — a lock is acquired while a guard for the
//!   *same* lock path is still live in the function: directly
//!   (`let g = m.lock(); m.lock();`) or through a call to a same-file
//!   function that acquires it. parking_lot mutexes are not reentrant, so
//!   this is a guaranteed self-deadlock, not a style issue.
//! * **C002 `lock-order`** — two lock paths acquired in both orders within
//!   one function (`a` then `b` on one path, `b` then `a` on another).
//!
//! Locks are identified by the receiver path text of `.lock()` calls
//! (plus `.read()`/`.write()` in files that mention `RwLock`), e.g.
//! `self.inner` or `source`. Guard liveness is let-binding scoped: a
//! let-bound guard lives to the end of its enclosing block or an explicit
//! `drop(name)`; a temporary guard (`m.lock().push(x)`) is released at the
//! end of its statement and is never "held" here. Like the dimension pass,
//! the walk only reasons about shapes the spine recovered, so a parse
//! limitation can suppress a finding but never invent one.

use crate::rules::Finding;
use crate::spine::{self, Expr, Pos, Stmt};
use crate::tree::{Delim, Group, Tree};

/// A live guard: which lock path it protects and the binding name (if
/// let-bound; `None` never occurs for held entries today but keeps the
/// `drop()` handling honest).
struct Held {
    lock: String,
    guard: String,
}

struct Ctx<'a> {
    path: &'a str,
    has_rwlock: bool,
    out: Vec<Finding>,
    /// Ordered (first, second, pos) acquisition pairs for the current fn.
    pairs: Vec<(String, String, Pos)>,
}

/// Run the C-rules over one file.
pub fn check(path: &str, src: &str, trees: &[Tree]) -> Vec<Finding> {
    let mut fns: Vec<(String, &Group)> = Vec::new();
    collect_fns(trees, &mut fns);

    let has_rwlock = src.contains("RwLock");
    // Map fn name → lock paths it acquires anywhere in its body, for the
    // re-enter-through-helper case. Same-file only, by design: cross-file
    // call graphs are beyond a lexical pass.
    let fn_locks: Vec<(String, Vec<String>)> = fns
        .iter()
        .map(|(name, body)| {
            let mut acq = Vec::new();
            collect_acquisitions(&body.children, has_rwlock, &mut acq);
            let mut locks: Vec<String> = acq.into_iter().map(|(l, _)| l).collect();
            locks.sort();
            locks.dedup();
            (name.clone(), locks)
        })
        .collect();

    let mut ctx = Ctx {
        path,
        has_rwlock,
        out: Vec::new(),
        pairs: Vec::new(),
    };
    for (_, body) in &fns {
        ctx.pairs.clear();
        let mut held = Vec::new();
        walk_block(&body.children, &mut held, &fn_locks, &mut ctx);
        // C002: both orders present within this one function.
        for i in 0..ctx.pairs.len() {
            let (a, b, pos) = &ctx.pairs[i];
            let reversed = ctx.pairs.iter().find(|(x, y, _)| x == b && y == a);
            if let Some((_, _, rpos)) = reversed {
                // Report once per unordered pair, at the later site.
                if (a.as_str(), pos.line) > (b.as_str(), rpos.line) {
                    ctx.out.push(Finding {
                        rule: "lock-order",
                        code: "C002",
                        path: path.to_string(),
                        line: pos.line,
                        col: pos.col,
                        message: format!(
                            "locks `{a}` and `{b}` acquired in both orders in this \
                             function (`{b}` → `{a}` at line {}); pick one order",
                            rpos.line
                        ),
                        dims: None,
                    });
                }
            }
        }
    }

    let mut out = ctx.out;
    out.sort_by(|a, b| {
        (a.line, a.col, a.code, &a.message).cmp(&(b.line, b.col, b.code, &b.message))
    });
    out.dedup_by(|a, b| a.code == b.code && a.line == b.line && a.col == b.col);
    out
}

/// Collect `(name, body)` for every `fn` at any nesting depth.
fn collect_fns<'a>(trees: &'a [Tree], out: &mut Vec<(String, &'a Group)>) {
    let mut fn_bodies: Vec<u32> = Vec::new();
    for stmt in spine::statements(trees) {
        if let Stmt::FnSig {
            name,
            body: Some(body),
        } = stmt
        {
            fn_bodies.push(body.open.lo);
            out.push((name, body));
            collect_fns(&body.children, out);
        }
    }
    for tree in trees {
        if let Tree::Group(g) = tree {
            if g.delim == Delim::Brace && fn_bodies.contains(&g.open.lo) {
                continue;
            }
            collect_fns(&g.children, out);
        }
    }
}

/// All acquisition sites anywhere under `trees` (used for the per-fn
/// lock summary, so the statement walk is unnecessary here).
fn collect_acquisitions(trees: &[Tree], has_rwlock: bool, out: &mut Vec<(String, Pos)>) {
    for stmt in spine::statements(trees) {
        for e in stmt_exprs(&stmt) {
            expr_acquisitions(e, has_rwlock, out);
        }
    }
    for tree in trees {
        if let Tree::Group(g) = tree {
            collect_acquisitions(&g.children, has_rwlock, out);
        }
    }
}

/// The expressions a statement carries, for scanning.
fn stmt_exprs<'e>(stmt: &'e Stmt<'_>) -> Vec<&'e Expr> {
    match stmt {
        Stmt::Let { init: Some(e), .. } | Stmt::Field { value: e, .. } => vec![e],
        Stmt::Assign { target, value, .. } => vec![target, value],
        Stmt::Return { value: Some(e), .. } => vec![e],
        Stmt::Exprs(es) => es.iter().collect(),
        _ => Vec::new(),
    }
}

/// Is this method call a lock acquisition, and of which path?
fn acquisition_of(e: &Expr, has_rwlock: bool) -> Option<(String, Pos)> {
    if let Expr::Method {
        recv,
        method,
        args,
        pos,
    } = e
    {
        let is_acq = method == "lock" || (has_rwlock && (method == "read" || method == "write"));
        if is_acq && args.is_empty() {
            if let Expr::Path { text, .. } = recv.as_ref() {
                return Some((text.clone(), *pos));
            }
        }
    }
    None
}

/// Recursively collect acquisitions inside one expression.
fn expr_acquisitions(e: &Expr, has_rwlock: bool, out: &mut Vec<(String, Pos)>) {
    if let Some(acq) = acquisition_of(e, has_rwlock) {
        out.push(acq);
    }
    match e {
        Expr::Call { args, .. } => {
            for a in args {
                expr_acquisitions(a, has_rwlock, out);
            }
        }
        Expr::Method { recv, args, .. } => {
            expr_acquisitions(recv, has_rwlock, out);
            for a in args {
                expr_acquisitions(a, has_rwlock, out);
            }
        }
        Expr::Index { recv: inner, .. }
        | Expr::Paren { inner, .. }
        | Expr::Unary { inner, .. }
        | Expr::Cast { inner, .. } => expr_acquisitions(inner, has_rwlock, out),
        Expr::Binary { lhs, rhs, .. } => {
            expr_acquisitions(lhs, has_rwlock, out);
            expr_acquisitions(rhs, has_rwlock, out);
        }
        _ => {}
    }
}

/// Same-file callee names inside one expression (`f(…)` and `x.f(…)`).
fn expr_calls<'e>(e: &'e Expr, out: &mut Vec<(&'e str, Pos)>) {
    match e {
        Expr::Call { last, args, pos } => {
            out.push((last, *pos));
            for a in args {
                expr_calls(a, out);
            }
        }
        Expr::Method {
            recv,
            method,
            args,
            pos,
        } => {
            out.push((method, *pos));
            expr_calls(recv, out);
            for a in args {
                expr_calls(a, out);
            }
        }
        Expr::Index { recv: inner, .. }
        | Expr::Paren { inner, .. }
        | Expr::Unary { inner, .. }
        | Expr::Cast { inner, .. } => expr_calls(inner, out),
        Expr::Binary { lhs, rhs, .. } => {
            expr_calls(lhs, out);
            expr_calls(rhs, out);
        }
        _ => {}
    }
}

/// Process one expression under the current held-guard stack: flag C001
/// re-entry (direct or via same-file helper) and record C002 pairs.
fn scan_expr(e: &Expr, held: &[Held], fn_locks: &[(String, Vec<String>)], ctx: &mut Ctx<'_>) {
    let mut acqs = Vec::new();
    expr_acquisitions(e, ctx.has_rwlock, &mut acqs);
    for (lock, pos) in &acqs {
        if held.iter().any(|h| &h.lock == lock) {
            ctx.out.push(Finding {
                rule: "lock-reenter",
                code: "C001",
                path: ctx.path.to_string(),
                line: pos.line,
                col: pos.col,
                message: format!(
                    "`{lock}` locked while its guard is still held; parking_lot locks \
                     are not reentrant — drop the guard first"
                ),
                dims: None,
            });
        }
        for h in held {
            if &h.lock != lock {
                ctx.pairs.push((h.lock.clone(), lock.clone(), *pos));
            }
        }
    }
    let mut calls = Vec::new();
    expr_calls(e, &mut calls);
    for (callee, pos) in calls {
        let Some((_, locks)) = fn_locks.iter().find(|(n, _)| n == callee) else {
            continue;
        };
        for lock in locks {
            if held.iter().any(|h| &h.lock == lock) {
                ctx.out.push(Finding {
                    rule: "lock-reenter",
                    code: "C001",
                    path: ctx.path.to_string(),
                    line: pos.line,
                    col: pos.col,
                    message: format!(
                        "call to `{callee}` acquires `{lock}` while its guard is held \
                         here; parking_lot locks are not reentrant"
                    ),
                    dims: None,
                });
            }
        }
    }
}

/// Walk one block level in statement order, maintaining the held-guard
/// stack. Guards let-bound at this level die when the level ends.
fn walk_block(
    trees: &[Tree],
    held: &mut Vec<Held>,
    fn_locks: &[(String, Vec<String>)],
    ctx: &mut Ctx<'_>,
) {
    let entry = held.len();
    let mut fn_bodies: Vec<u32> = Vec::new();
    for stmt in spine::statements(trees) {
        match &stmt {
            // Nested fns get their own fresh walk from `check`.
            Stmt::FnSig {
                body: Some(body), ..
            } => {
                fn_bodies.push(body.open.lo);
                continue;
            }
            Stmt::Let {
                name: Some(name),
                init: Some(init),
                ..
            } => {
                scan_expr(init, held, fn_locks, ctx);
                // The binding holds whichever locks its initializer took.
                let mut acqs = Vec::new();
                expr_acquisitions(init, ctx.has_rwlock, &mut acqs);
                for (lock, _) in acqs {
                    held.push(Held {
                        lock,
                        guard: name.clone(),
                    });
                }
                continue;
            }
            _ => {}
        }
        for e in stmt_exprs(&stmt) {
            // `drop(guard)` releases before anything later in the block.
            if let Expr::Call { last, args, .. } = e {
                if last == "drop" && args.len() == 1 {
                    if let Expr::Path { text, .. } = &args[0] {
                        held.retain(|h| &h.guard != text);
                        continue;
                    }
                }
            }
            scan_expr(e, held, fn_locks, ctx);
        }
    }
    for tree in trees {
        if let Tree::Group(g) = tree {
            if g.delim == Delim::Brace && fn_bodies.contains(&g.open.lo) {
                continue;
            }
            walk_block(&g.children, held, fn_locks, ctx);
        }
    }
    held.truncate(entry);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::tree::build;

    fn codes(src: &str) -> Vec<&'static str> {
        check("vendor/rayon/src/lib.rs", src, &build(&lex(src).tokens))
            .into_iter()
            .map(|f| f.code)
            .collect()
    }

    #[test]
    fn c001_direct_reentry() {
        let src = "fn f(&self) { let g = self.inner.lock(); self.inner.lock().push(1); }";
        assert_eq!(codes(src), vec!["C001"]);
    }

    #[test]
    fn c001_respects_drop() {
        let src = "fn f(&self) { let g = self.inner.lock(); drop(g); self.inner.lock().push(1); }";
        assert_eq!(codes(src), Vec::<&str>::new());
    }

    #[test]
    fn c001_through_helper() {
        let src = "impl C { fn f(&self) { let g = self.inner.lock(); self.bump(); } \
                   fn bump(&self) { self.inner.lock().n += 1; } }";
        assert_eq!(codes(src), vec!["C001"]);
    }

    #[test]
    fn c001_different_locks_fine() {
        let src = "fn f(&self) { let g = self.a.lock(); self.b.lock().push(1); }";
        assert_eq!(codes(src), Vec::<&str>::new());
    }

    #[test]
    fn c002_both_orders() {
        let src = "fn f(&self) { \
                     { let a = self.a.lock(); let b = self.b.lock(); } \
                     { let b = self.b.lock(); let a = self.a.lock(); } \
                   }";
        assert_eq!(codes(src), vec!["C002"]);
    }

    #[test]
    fn c002_consistent_order_fine() {
        let src = "fn f(&self) { \
                     { let a = self.a.lock(); let b = self.b.lock(); } \
                     { let a = self.a.lock(); let b = self.b.lock(); } \
                   }";
        assert_eq!(codes(src), Vec::<&str>::new());
    }

    #[test]
    fn temporaries_are_not_held() {
        // A temporary guard dies at the end of its statement.
        let src = "fn f(&self) { self.inner.lock().push(1); self.inner.lock().push(2); }";
        assert_eq!(codes(src), Vec::<&str>::new());
    }

    #[test]
    fn rwlock_read_counts_when_file_mentions_rwlock() {
        let src = "struct S { m: RwLock<u8> } \
                   fn f(&self) { let g = self.m.read(); let h = self.m.write(); }";
        assert_eq!(codes(src), vec!["C001"]);
    }
}
