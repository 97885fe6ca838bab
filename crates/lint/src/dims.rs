//! The unit-dimension inference pass: U001–U004.
//!
//! Walks the [`spine`] statements of a file, assigns each
//! recognized expression a dimension from the [`units`](crate::units)
//! suffix grammar, and flags incoherent combinations:
//!
//! * **U001 `unit-add`** — `+`/`-` over operands of two *different known*
//!   dimensions (`energy_j + idle_w`);
//! * **U002 `unit-assign`** — a value of known dimension flowing into a
//!   suffixed binding of a different dimension (`let dt_s = power_w;`,
//!   `n.energy_j += p_w`, `return busy_w` from `fn energy_j()`);
//! * **U003 `unit-cmp`** — an ordering/equality comparison across two
//!   different known dimensions (also `min`/`max`/`clamp` arguments);
//! * **U004 `unit-opaque`** — a suffixed binding initialized from a bare
//!   product/quotient of unsuffixed names (`let energy_j = p * dt;`) — the
//!   claim is unverifiable, so name the factors or waive with the
//!   conversion spelled out.
//!
//! Inference is *charitable*: an unsuffixed name unifies with anything, a
//! literal is dimensionless only where that is safe (as a scale factor in
//! `*`/`/`), and any expression the spine does not model is unknown. A
//! parse limitation can therefore suppress a finding but never invent one.

use crate::rules::Finding;
use crate::spine::{self, AssignOp, BinOp, Expr, Pos, Stmt};
use crate::tree::{Delim, Tree};
use crate::units::{dim_of_ident, Dim, DIMLESS};

/// Methods that preserve the receiver's dimension.
const DIM_PRESERVING: &[&str] = &[
    "abs", "floor", "ceil", "round", "trunc", "copysign", "clone", "to_owned",
];

/// Methods that escape the lattice (fractional or data-dependent
/// exponents) or whose result has nothing to do with the receiver's
/// dimension: the result is unknown.
const DIM_ERASING: &[&str] = &[
    "sqrt",
    "cbrt",
    "powi",
    "powf",
    "exp",
    "exp2",
    "exp_m1",
    "ln",
    "ln_1p",
    "log",
    "log2",
    "log10",
    "hypot",
    "signum",
    "len",
    "iter",
    "into_iter",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "sum",
    "product",
    "collect",
    "map",
    "and_then",
    "get",
    "min_by",
    "max_by",
    "fold",
    "sin",
    "cos",
    "tan",
    "atan2",
    "mul_add",
];

struct Ctx<'a> {
    path: &'a str,
    out: Vec<Finding>,
}

impl Ctx<'_> {
    fn emit(
        &mut self,
        rule: &'static str,
        code: &'static str,
        pos: Pos,
        message: String,
        dims: Option<(String, String)>,
    ) {
        self.out.push(Finding {
            rule,
            code,
            path: self.path.to_string(),
            line: pos.line,
            col: pos.col,
            message,
            dims,
        });
    }

    fn u001(&mut self, pos: Pos, a: Dim, b: Dim) {
        self.emit(
            "unit-add",
            "U001",
            pos,
            format!("adding/subtracting unlike dimensions: `{a}` and `{b}`"),
            Some((a.to_string(), b.to_string())),
        );
    }

    fn u003(&mut self, pos: Pos, a: Dim, b: Dim, what: &str) {
        self.emit(
            "unit-cmp",
            "U003",
            pos,
            format!("{what} across unlike dimensions: `{a}` vs `{b}`"),
            Some((a.to_string(), b.to_string())),
        );
    }
}

/// Run the U-rules over a file's token tree. `path` is the workspace-
/// relative path carried into findings.
pub fn check(path: &str, trees: &[Tree]) -> Vec<Finding> {
    let mut ctx = Ctx {
        path,
        out: Vec::new(),
    };
    check_level(trees, None, false, &mut ctx);
    // Group recursion and expression parsing can visit the same source
    // region twice (a paren group is both an expression operand and a
    // recursion target); keep one finding per site.
    let mut out = ctx.out;
    out.sort_by(|a, b| {
        (a.line, a.col, a.code)
            .cmp(&(b.line, b.col, b.code))
            .then_with(|| a.message.cmp(&b.message))
    });
    out.dedup_by(|a, b| a.code == b.code && a.line == b.line && a.col == b.col);
    out
}

/// Walk one group level. `fn_dim` is the dimension claimed by the
/// enclosing function's name suffix (checked against `return` statements
/// everywhere in the body, and against the trailing expression when
/// `is_fn_body` marks the body's top level).
fn check_level(trees: &[Tree], fn_dim: Option<Dim>, is_fn_body: bool, ctx: &mut Ctx<'_>) {
    let stmts = spine::statements(trees);
    let n_stmts = stmts.len();
    let trailing = is_fn_body && spine::has_trailing_expr(trees);
    // Brace groups consumed as fn bodies — the generic group recursion
    // below must not revisit them under the *outer* fn's dimension.
    let mut fn_bodies: Vec<u32> = Vec::new();

    for (idx, stmt) in stmts.iter().enumerate() {
        match stmt {
            Stmt::FnSig { name, body } => {
                if let Some(body) = body {
                    fn_bodies.push(body.open.lo);
                    let fd = dim_of_ident(name);
                    check_level(&body.children, fd, true, ctx);
                }
            }
            Stmt::Let { name, pos, init } => {
                if let Some(init) = init {
                    let vd = infer(init, ctx);
                    if let Some(name) = name {
                        check_binding(name, *pos, init, vd, true, ctx);
                    }
                }
            }
            Stmt::Assign {
                target,
                op,
                value,
                pos,
            } => {
                let vd = infer(value, ctx);
                infer(target, ctx);
                let dim_relevant = matches!(
                    op,
                    AssignOp::Assign | AssignOp::AddAssign | AssignOp::SubAssign
                );
                if dim_relevant {
                    if let Some(name) = target_name(target) {
                        check_binding(&name, *pos, value, vd, true, ctx);
                    }
                }
            }
            Stmt::Field { name, pos, value } => {
                let vd = infer(value, ctx);
                // Struct-literal fields get U002 only: a field list mixes
                // many short initializers, and U004 there would punish
                // every plain `energy_j: e` rebinding.
                check_binding(name, *pos, value, vd, false, ctx);
            }
            Stmt::Return { value, pos } => {
                if let Some(value) = value {
                    let vd = infer(value, ctx);
                    if let (Some(fd), Some(vd)) = (fn_dim, vd) {
                        if fd != vd {
                            ctx.emit(
                                "unit-assign",
                                "U002",
                                *pos,
                                format!(
                                    "returning `{vd}` from a function whose name claims `{fd}`"
                                ),
                                Some((fd.to_string(), vd.to_string())),
                            );
                        }
                    }
                }
            }
            Stmt::Exprs(exprs) => {
                for (k, e) in exprs.iter().enumerate() {
                    let vd = infer(e, ctx);
                    // Trailing expression of a fn body: an implicit return.
                    if trailing && idx == n_stmts - 1 && k == exprs.len() - 1 {
                        if let (Some(fd), Some(vd)) = (fn_dim, vd) {
                            if fd != vd {
                                ctx.emit(
                                    "unit-assign",
                                    "U002",
                                    e.pos(),
                                    format!("function name claims `{fd}` but its result is `{vd}`"),
                                    Some((fd.to_string(), vd.to_string())),
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    for tree in trees {
        if let Tree::Group(g) = tree {
            if g.delim == Delim::Brace && fn_bodies.contains(&g.open.lo) {
                continue;
            }
            check_level(&g.children, fn_dim, false, ctx);
        }
    }
}

/// U002/U004 for a value flowing into a named binding.
fn check_binding(
    name: &str,
    pos: Pos,
    value: &Expr,
    vd: Option<Dim>,
    allow_u004: bool,
    ctx: &mut Ctx<'_>,
) {
    let Some(td) = dim_of_ident(name) else { return };
    match vd {
        Some(vd) if vd != td => {
            ctx.emit(
                "unit-assign",
                "U002",
                pos,
                format!("`{name}` is `{td}` but receives a value of dimension `{vd}`"),
                Some((td.to_string(), vd.to_string())),
            );
        }
        Some(_) => {}
        None if allow_u004 => {
            let mut unsuffixed = Vec::new();
            if opaque_product(value, &mut unsuffixed) && !unsuffixed.is_empty() {
                ctx.emit(
                    "unit-opaque",
                    "U004",
                    pos,
                    format!(
                        "`{name}` claims `{td}` from a product of unsuffixed names ({}); \
                         suffix the factors or waive with the conversion spelled out",
                        unsuffixed.join(", ")
                    ),
                    Some((td.to_string(), "?".to_string())),
                );
            }
        }
        None => {}
    }
}

/// The last path segment of an assignment target, if it is a plain
/// path/field chain (`n.energy_j`, `self.win_busy_j`, `buf[i].t_s`).
fn target_name(target: &Expr) -> Option<String> {
    match target {
        Expr::Path { last, .. } => Some(last.clone()),
        // `buf[i].t_s` parses as Method-less chains through Index; a field
        // access on a non-path receiver lands in Method with no args.
        Expr::Method { method, args, .. } if args.is_empty() => Some(method.clone()),
        Expr::Index { recv, .. } | Expr::Unary { inner: recv, .. } => target_name(recv),
        _ => None,
    }
}

/// Well-known numeric sentinel constants: they behave like literals for
/// U004 purposes (`f64::INFINITY` is not a unit claim gone missing).
const SENTINEL_CONSTS: &[&str] = &[
    "NAN",
    "INFINITY",
    "NEG_INFINITY",
    "EPSILON",
    "MAX",
    "MIN",
    "MIN_POSITIVE",
];

/// Is this expression a bare product/quotient over names and literals —
/// the U004 shape? Collects the unsuffixed names seen.
fn opaque_product(e: &Expr, unsuffixed: &mut Vec<String>) -> bool {
    match e {
        Expr::Path { last, .. } => {
            if dim_of_ident(last).is_none() && !SENTINEL_CONSTS.contains(&last.as_str()) {
                unsuffixed.push(last.clone());
            }
            true
        }
        Expr::Lit { .. } => true,
        Expr::Paren { inner, .. } | Expr::Unary { inner, .. } | Expr::Cast { inner, .. } => {
            opaque_product(inner, unsuffixed)
        }
        Expr::Index { recv, .. } => opaque_product(recv, unsuffixed),
        Expr::Binary {
            op: BinOp::Mul | BinOp::Div,
            lhs,
            rhs,
            ..
        } => opaque_product(lhs, unsuffixed) && opaque_product(rhs, unsuffixed),
        _ => false,
    }
}

/// A factor's dimension in `*`/`/` context: literals act as dimensionless
/// scale constants there (so `p_w * 3600.0` stays `W` — a literal that is
/// *really* a unit quantity should be a suffixed `const`).
fn factor_dim(e: &Expr, d: Option<Dim>) -> Option<Dim> {
    d.or_else(|| match strip(e) {
        Expr::Lit { .. } => Some(DIMLESS),
        _ => None,
    })
}

/// Peel dimension-transparent wrappers for shape inspection.
fn strip(e: &Expr) -> &Expr {
    match e {
        Expr::Paren { inner, .. } | Expr::Unary { inner, .. } | Expr::Cast { inner, .. } => {
            strip(inner)
        }
        _ => e,
    }
}

/// Infer an expression's dimension, emitting U001/U003 along the way.
/// `None` means unknown — it unifies with anything.
fn infer(e: &Expr, ctx: &mut Ctx<'_>) -> Option<Dim> {
    match e {
        Expr::Lit { .. } | Expr::Opaque { .. } => None,
        Expr::Path { last, .. } => dim_of_ident(last),
        Expr::Call { last, args, .. } => {
            for a in args {
                infer(a, ctx);
            }
            dim_of_ident(last)
        }
        Expr::Method {
            recv,
            method,
            args,
            pos,
        } => {
            let rd = infer(recv, ctx);
            let ads: Vec<Option<Dim>> = args.iter().map(|a| infer(a, ctx)).collect();
            match method.as_str() {
                m if DIM_PRESERVING.contains(&m) => rd,
                "recip" => rd.map(Dim::recip),
                "min" | "max" | "clamp" => {
                    // Comparison semantics: every argument must share the
                    // receiver's dimension.
                    let mut best = rd;
                    for ad in ads.into_iter().flatten() {
                        match best {
                            Some(b) if b != ad => {
                                let what = format!("`{method}`");
                                ctx.u003(*pos, b, ad, &what);
                            }
                            Some(_) => {}
                            None => best = Some(ad),
                        }
                    }
                    best
                }
                m if DIM_ERASING.contains(&m) => None,
                // Accessor convention: `node.busy_power_w(u)` claims `W`
                // through its own suffix, like a path would.
                m => dim_of_ident(m),
            }
        }
        Expr::Index { recv, .. } => infer(recv, ctx),
        Expr::Paren { inner, .. } | Expr::Unary { inner, .. } => infer(inner, ctx),
        Expr::Cast { inner, ty, .. } => {
            let d = infer(inner, ctx);
            if is_numeric_ty(ty) {
                d
            } else {
                None
            }
        }
        Expr::Binary { op, lhs, rhs, pos } => {
            let ld = infer(lhs, ctx);
            let rd = infer(rhs, ctx);
            match op {
                // A product with no known factor stays unknown: literals
                // only *scale* a known dimension (`256.0 * 1024.0` is a
                // byte count in context, not a dimensionless claim).
                BinOp::Mul if ld.is_none() && rd.is_none() => None,
                BinOp::Div if ld.is_none() && rd.is_none() => None,
                BinOp::Mul => Some(factor_dim(lhs, ld)? * factor_dim(rhs, rd)?),
                BinOp::Div => Some(factor_dim(lhs, ld)? / factor_dim(rhs, rd)?),
                BinOp::Rem => ld,
                BinOp::Add | BinOp::Sub => match (ld, rd) {
                    (Some(a), Some(b)) => {
                        if a != b {
                            ctx.u001(*pos, a, b);
                        }
                        Some(a)
                    }
                    // Charitable: a known operand propagates through an
                    // unknown one.
                    (Some(a), None) | (None, Some(a)) => Some(a),
                    (None, None) => None,
                },
                op if op.is_comparison() => {
                    if let (Some(a), Some(b)) = (ld, rd) {
                        if a != b {
                            ctx.u003(*pos, a, b, "comparison");
                        }
                    }
                    None
                }
                _ => None,
            }
        }
    }
}

fn is_numeric_ty(ty: &str) -> bool {
    matches!(
        ty,
        "f64"
            | "f32"
            | "u8"
            | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::tree::build;

    fn findings(src: &str) -> Vec<Finding> {
        check("test.rs", &build(&lex(src).tokens))
    }

    fn codes(src: &str) -> Vec<&'static str> {
        findings(src).into_iter().map(|f| f.code).collect()
    }

    #[test]
    fn u001_add_of_unlike_dims() {
        assert_eq!(codes("let x = energy_j + idle_w;"), vec!["U001"]);
        assert_eq!(codes("let x = energy_j - drain_j;"), Vec::<&str>::new());
        // Charitable: unknown operand unifies.
        assert_eq!(codes("let x = energy_j + leftover;"), Vec::<&str>::new());
    }

    #[test]
    fn u001_through_mul() {
        // W * s = J, J + J fine.
        assert_eq!(
            codes("let total_j = idle_w * dt_s + busy_j;"),
            Vec::<&str>::new()
        );
        // W * s = J, J + W fires.
        assert_eq!(codes("let x = idle_w * dt_s + busy_w;"), vec!["U001"]);
    }

    #[test]
    fn u002_let_and_assign() {
        assert_eq!(codes("let dt_s = total_power_w;"), vec!["U002"]);
        assert_eq!(codes("n.energy_j += busy_power_w;"), vec!["U002"]);
        assert_eq!(
            codes("n.energy_j += busy_power_w * dt_s;"),
            Vec::<&str>::new()
        );
        // `*=` by a plain factor is a scale, not a dimension change.
        assert_eq!(codes("n.energy_j *= derate_frac;"), Vec::<&str>::new());
    }

    #[test]
    fn u002_return_and_trailing() {
        assert_eq!(
            codes("fn total_j(&self) -> f64 { return self.busy_w; }"),
            vec!["U002"]
        );
        assert_eq!(
            codes("fn total_j(&self) -> f64 { self.busy_w * self.dt_s }"),
            Vec::<&str>::new()
        );
        assert_eq!(
            codes("fn total_j(&self) -> f64 { self.busy_w }"),
            vec!["U002"]
        );
    }

    #[test]
    fn u003_comparison() {
        assert_eq!(codes("if energy_j > idle_w { x() }"), vec!["U003"]);
        assert_eq!(codes("if energy_j > cap_j { x() }"), Vec::<&str>::new());
        assert_eq!(codes("let x = peak_w.max(floor_w);"), Vec::<&str>::new());
        assert_eq!(codes("let x = peak_w.max(floor_j);"), vec!["U003"]);
    }

    #[test]
    fn u004_opaque_product() {
        assert_eq!(codes("let energy_j = p * dt;"), vec!["U004"]);
        assert_eq!(codes("let energy_j = p_w * dt;"), vec!["U004"]);
        assert_eq!(codes("let energy_j = p_w * dt_s;"), Vec::<&str>::new());
        // A call is not the U004 shape: the value may well be right.
        assert_eq!(codes("let energy_j = node.drain(dt);"), Vec::<&str>::new());
        // A plain rebind of an unsuffixed name still counts.
        assert_eq!(codes("let energy_j = acc;"), vec!["U004"]);
    }

    #[test]
    fn literals_scale_in_products_only() {
        assert_eq!(codes("let p_kw = p_w / 1000.0;"), Vec::<&str>::new());
        // Addition with a literal stays unknown on that side.
        assert_eq!(codes("let p_w = idle_w + 0.5;"), Vec::<&str>::new());
        // A product of pure literals adopts its context's dimension: no
        // U002 on `working_set_bytes: 256.0 * 1024.0`.
        assert_eq!(
            codes("C { working_set_bytes: 256.0 * 1024.0, }"),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn misparse_shapes_stay_silent() {
        // Control-flow initializers, macros and turbofished methods must
        // not surface their scraps as U004 products.
        assert_eq!(
            codes("let ideal_j = if busy { dt_s * peak_w } else { 0.0 };"),
            Vec::<&str>::new()
        );
        assert_eq!(
            codes("let total_bytes = vec![0u8; 256];"),
            Vec::<&str>::new()
        );
        assert_eq!(
            codes("lost_ops += share_ops * rng.gen::<f64>();"),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn nested_fn_dims_do_not_leak() {
        // Inner fn's body is checked against the inner name only; the
        // outer trailing expression is checked against the outer name.
        let src = "fn outer_j() -> f64 { fn inner_w() -> f64 { self.p_w } inner_w() * self.dt_s }";
        assert_eq!(codes(src), Vec::<&str>::new());
        let bad = "fn outer_j() -> f64 { fn inner_w() -> f64 { self.p_w } inner_w() }";
        assert_eq!(codes(bad), vec!["U002"]);
    }

    #[test]
    fn struct_field_mismatch() {
        assert_eq!(codes("Node { energy_j: idle_w, }"), vec!["U002"]);
        assert_eq!(codes("Node { energy_j: acc, }"), Vec::<&str>::new());
    }

    #[test]
    fn findings_carry_dim_annotations() {
        let f = findings("let dt_s = total_power_w;");
        assert_eq!(f[0].dims, Some(("s".to_string(), "W".to_string())));
    }
}
