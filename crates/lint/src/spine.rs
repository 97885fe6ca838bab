//! The expression spine: a lightweight statement/expression recovery layer
//! over the token tree — binary-operator chains, call receivers, method
//! chains, `let` bindings, assignments and struct-literal fields — without
//! a full AST.
//!
//! The spine is deliberately partial. Anything it does not positively
//! recognize (closure headers, blocks in expression position, complex
//! patterns) becomes [`Expr::Opaque`], and rules built on the spine only
//! fire on shapes it *did* recognize — so a parse limitation can suppress
//! a finding but never invent one. Statement keywords (`if`, `while`,
//! `match`, …) are skipped so the controlling expression after them still
//! parses; the block they govern is visited by the checker's own group
//! recursion, not by this parser.

use crate::lexer::{TokKind, Token};
use crate::tree::{Delim, Group, Tree};

/// A 1-based source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    pub line: u32,
    pub col: u32,
}

/// Binary operators the spine recovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    Range,
}

impl BinOp {
    /// Larger binds tighter. Mirrors Rust's precedence for the operators
    /// the spine models.
    fn precedence(self) -> u8 {
        match self {
            BinOp::Mul | BinOp::Div | BinOp::Rem => 8,
            BinOp::Add | BinOp::Sub => 7,
            BinOp::Shl | BinOp::Shr => 6,
            BinOp::BitAnd => 5,
            BinOp::BitXor => 4,
            BinOp::BitOr => 3,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 2,
            BinOp::AndAnd | BinOp::OrOr => 1,
            BinOp::Range => 0,
        }
    }

    /// Is this `+`/`-` (dimension-preserving only across like operands)?
    pub fn is_add_sub(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub)
    }

    /// Is this an ordering or equality comparison?
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// Compound/plain assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    AddAssign,
    /// `-=`
    SubAssign,
    /// `*=`
    MulAssign,
    /// `/=`
    DivAssign,
    /// `%=` and the bit-ops (`&=`, `|=`, `^=`, `<<=`, `>>=`)
    Other,
}

/// A recovered expression. Spans point at the token that best identifies
/// the node (operator for binaries, first token otherwise).
#[derive(Debug, Clone)]
pub enum Expr {
    /// Numeric / string / char literal.
    Lit { kind: TokKind, pos: Pos },
    /// `a`, `a::b`, `self.x.y` — a pure identifier chain. `last` is the
    /// final segment (the one carrying any unit suffix).
    Path {
        text: String,
        last: String,
        pos: Pos,
    },
    /// `f(args)` or `a::b::f(args)`.
    Call {
        last: String,
        args: Vec<Expr>,
        pos: Pos,
    },
    /// `recv.method(args)`.
    Method {
        recv: Box<Expr>,
        method: String,
        args: Vec<Expr>,
        pos: Pos,
    },
    /// `recv[index]` — transparent for dimension purposes.
    Index { recv: Box<Expr>, pos: Pos },
    /// `(inner)` with exactly one expression inside.
    Paren { inner: Box<Expr>, pos: Pos },
    /// `-x`, `*x`, `&x` (transparent); `!x` is Opaque.
    Unary { inner: Box<Expr>, pos: Pos },
    /// `expr as ty`.
    Cast {
        inner: Box<Expr>,
        ty: String,
        pos: Pos,
    },
    /// `lhs op rhs`.
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        pos: Pos,
    },
    /// Anything the spine does not model.
    Opaque { pos: Pos },
}

impl Expr {
    /// Position of the node.
    pub fn pos(&self) -> Pos {
        match self {
            Expr::Lit { pos, .. }
            | Expr::Path { pos, .. }
            | Expr::Call { pos, .. }
            | Expr::Method { pos, .. }
            | Expr::Index { pos, .. }
            | Expr::Paren { pos, .. }
            | Expr::Unary { pos, .. }
            | Expr::Cast { pos, .. }
            | Expr::Binary { pos, .. }
            | Expr::Opaque { pos } => *pos,
        }
    }
}

/// A recovered statement (or statement-like segment).
#[derive(Debug)]
pub enum Stmt<'a> {
    /// `let name(: ty)? = init;` — `name` is `None` for non-trivial
    /// patterns (tuples, structs), in which case no binding is checked.
    Let {
        name: Option<String>,
        pos: Pos,
        init: Option<Expr>,
    },
    /// `target op value` for `=`, `+=`, `-=`, ….
    Assign {
        target: Expr,
        op: AssignOp,
        value: Expr,
        pos: Pos,
    },
    /// `name: value` inside a brace group — struct-literal field or
    /// struct-pattern field rename. Type ascriptions are filtered out.
    Field { name: String, pos: Pos, value: Expr },
    /// `return expr` (also `break expr`).
    Return { value: Option<Expr>, pos: Pos },
    /// `fn name(…) -> ty { body }` — the signature plus its body group.
    FnSig {
        name: String,
        body: Option<&'a Group>,
    },
    /// Bare expression(s): everything else that parsed.
    Exprs(Vec<Expr>),
}

/// One parser item: a leaf token, a joined multi-char operator, or a group.
enum Item<'a> {
    Tok(&'a Token),
    /// Joined operator (`==`, `+=`, `::`, `->`, …).
    Op(String, Pos),
    Group(&'a Group),
}

impl Item<'_> {
    fn pos(&self) -> Pos {
        match self {
            Item::Tok(t) => Pos {
                line: t.line,
                col: t.col,
            },
            Item::Op(_, p) => *p,
            Item::Group(g) => Pos {
                line: g.open.line,
                col: g.open.col,
            },
        }
    }

    fn is_punct(&self, s: &str) -> bool {
        match self {
            Item::Tok(t) => t.kind == TokKind::Punct && t.text == s,
            Item::Op(op, _) => op == s,
            Item::Group(_) => false,
        }
    }

    fn ident(&self) -> Option<&str> {
        match self {
            Item::Tok(t) if t.kind == TokKind::Ident => Some(&t.text),
            _ => None,
        }
    }
}

/// Multi-char operators, longest first so maximal munch wins.
const JOINED: &[&str] = &[
    "<<=", ">>=", "..=", "...", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=", "<<", ">>", "::", "->", "=>", "..",
];

/// Join adjacent single-char puncts into the operators of [`JOINED`],
/// using byte spans so `a = =b` never becomes `a == b`.
fn items<'a>(trees: &'a [Tree]) -> Vec<Item<'a>> {
    let mut out = Vec::with_capacity(trees.len());
    let mut i = 0;
    while i < trees.len() {
        let Tree::Leaf(t) = &trees[i] else {
            if let Tree::Group(g) = &trees[i] {
                out.push(Item::Group(g));
            }
            i += 1;
            continue;
        };
        if t.kind == TokKind::Punct {
            let mut joined = None;
            'ops: for op in JOINED {
                let n = op.len();
                if !t.text.starts_with(op.as_bytes()[0] as char) {
                    continue;
                }
                let mut text = String::new();
                let mut prev: Option<&Token> = None;
                for k in 0..n {
                    match trees.get(i + k) {
                        Some(Tree::Leaf(next)) if next.kind == TokKind::Punct => {
                            if let Some(p) = prev {
                                if !p.touches(next) {
                                    continue 'ops;
                                }
                            }
                            text.push_str(&next.text);
                            prev = Some(next);
                        }
                        _ => continue 'ops,
                    }
                }
                if text == *op {
                    joined = Some((op.to_string(), n));
                    break;
                }
            }
            if let Some((op, n)) = joined {
                out.push(Item::Op(
                    op,
                    Pos {
                        line: t.line,
                        col: t.col,
                    },
                ));
                i += n;
                continue;
            }
        }
        out.push(Item::Tok(t));
        i += 1;
    }
    out
}

/// Statement keywords skipped at segment/expression starts so the
/// expression they govern still parses.
const SKIP_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "in", "else", "loop", "unsafe", "mut", "ref", "move", "pub",
    "box", "await", "dyn", "crate", "super", "where", "const", "static",
];

/// Control keywords that *head a value expression* (`let x = if … {…}`,
/// `field: match … {…}`). The spine cannot model the branch values, and
/// treating the controlling condition as the bound value would invent
/// findings — the whole initializer is Opaque.
const CONTROL_HEADS: &[&str] = &["if", "match", "loop", "while", "for", "unsafe"];

/// Parse a value position (let initializer, assignment RHS, struct-literal
/// field value, return operand). A control-flow expression is Opaque as a
/// whole rather than degrading to its condition.
fn parse_value(seg: &[Item<'_>]) -> Expr {
    if let Some(head) = seg.first() {
        if head.ident().is_some_and(|id| CONTROL_HEADS.contains(&id)) {
            return Expr::Opaque { pos: head.pos() };
        }
    }
    first_expr(parse_expr_full(seg))
}

/// Primitive and common type heads: a `name: X` segment whose value starts
/// with one of these (or an uppercase ident, `&`, `[`, `(`, `*`) is a type
/// ascription, not a field initializer.
const TYPE_HEADS: &[&str] = &[
    "f64", "f32", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
    "isize", "bool", "char", "str", "fn", "dyn", "impl",
];

/// Split a group level's children into statement-like segments at
/// top-level `;`, `,` and `=>`, and after every top-level brace group
/// (blocks end statements in Rust, so `fn a() {} fn b() {}` inside an
/// `impl` become two segments, each owning its body). Returns the parsed
/// statements in order.
pub fn statements<'a>(trees: &'a [Tree]) -> Vec<Stmt<'a>> {
    let its = items(trees);
    let mut out = Vec::new();
    let mut start = 0;
    for (idx, it) in its.iter().enumerate() {
        if it.is_punct(";") || it.is_punct(",") || it.is_punct("=>") {
            if idx > start {
                out.push(parse_stmt(&its[start..idx]));
            }
            start = idx + 1;
        } else if matches!(it, Item::Group(g) if g.delim == Delim::Brace) {
            // Close the segment *including* the brace group — unless an
            // infix context follows (`else`, an operator, `.`), in which
            // case the block is mid-expression and the segment continues.
            let continues = match its.get(idx + 1) {
                Some(next) => {
                    next.ident() == Some("else") || next.is_punct(".") || bin_op_of(next).is_some()
                }
                None => false,
            };
            if !continues {
                out.push(parse_stmt(&its[start..=idx]));
                start = idx + 1;
            }
        }
    }
    if start < its.len() {
        out.push(parse_stmt(&its[start..]));
    }
    out
}

/// Whether the final segment of the level ends without `;` (a trailing
/// expression in Rust block position).
pub fn has_trailing_expr(trees: &[Tree]) -> bool {
    let its = items(trees);
    match its.last() {
        Some(it) => !it.is_punct(";"),
        None => false,
    }
}

fn parse_stmt<'a>(seg: &[Item<'a>]) -> Stmt<'a> {
    let mut i = 0;

    // `fn name(args) -> ty { body }` — possibly preceded by `pub` etc.
    {
        let mut j = 0;
        while seg.get(j).and_then(Item::ident).is_some_and(|id| {
            id == "pub" || id == "const" || id == "unsafe" || id == "extern" || id == "async"
        }) {
            j += 1;
        }
        // `pub(crate)` — a paren group after `pub`.
        if j > 0 {
            while matches!(seg.get(j), Some(Item::Group(g)) if g.delim == Delim::Paren) {
                j += 1;
            }
        }
        if seg.get(j).and_then(Item::ident) == Some("fn") {
            if let Some(name) = seg.get(j + 1).and_then(Item::ident) {
                let body = seg.iter().rev().find_map(|it| match it {
                    Item::Group(g) if g.delim == Delim::Brace => Some(*g),
                    _ => None,
                });
                return Stmt::FnSig {
                    name: name.to_string(),
                    body,
                };
            }
        }
    }

    // `let` binding.
    if seg.first().and_then(Item::ident) == Some("let") {
        let pos = seg[0].pos();
        let mut k = 1;
        while seg.get(k).and_then(Item::ident) == Some("mut") {
            k += 1;
        }
        // Simple-ident pattern only when followed by `:`/`=`/end; tuple
        // and struct patterns leave `name` as None (nothing to check).
        let name = match (seg.get(k).and_then(Item::ident), seg.get(k + 1)) {
            (Some(id), None) => Some(id.to_string()),
            (Some(id), Some(next)) if next.is_punct(":") || next.is_punct("=") => {
                Some(id.to_string())
            }
            _ => None,
        };
        // Find the top-level `=` (skipping any `: Type` annotation).
        let eq = seg.iter().position(|it| it.is_punct("="));
        let init = eq.map(|at| parse_value(&seg[at + 1..]));
        return Stmt::Let { name, pos, init };
    }

    // Skip leading statement keywords for the remaining forms.
    while seg
        .get(i)
        .and_then(Item::ident)
        .is_some_and(|id| SKIP_KEYWORDS.contains(&id))
    {
        i += 1;
    }
    let seg = &seg[i..];
    if seg.is_empty() {
        return Stmt::Exprs(Vec::new());
    }

    // `return expr` / `break expr`.
    if let Some(kw) = seg.first().and_then(Item::ident) {
        if kw == "return" || kw == "break" {
            let pos = seg[0].pos();
            let value = if seg.len() > 1 {
                Some(parse_value(&seg[1..]))
            } else {
                None
            };
            return Stmt::Return { value, pos };
        }
    }

    // Assignment: a top-level `=` / `+=` / … splits target from value.
    for (idx, it) in seg.iter().enumerate() {
        let op = match it {
            Item::Op(op, _) => match op.as_str() {
                "=" => Some(AssignOp::Assign),
                "+=" => Some(AssignOp::AddAssign),
                "-=" => Some(AssignOp::SubAssign),
                "*=" => Some(AssignOp::MulAssign),
                "/=" => Some(AssignOp::DivAssign),
                "%=" | "&=" | "|=" | "^=" | "<<=" | ">>=" => Some(AssignOp::Other),
                _ => None,
            },
            Item::Tok(t) if t.kind == TokKind::Punct && t.text == "=" => Some(AssignOp::Assign),
            _ => None,
        };
        if let Some(op) = op {
            if idx == 0 {
                break;
            }
            let pos = it.pos();
            let target = first_expr(parse_expr_full(&seg[..idx]));
            let value = parse_value(&seg[idx + 1..]);
            return Stmt::Assign {
                target,
                op,
                value,
                pos,
            };
        }
    }

    // `name: value` field binding (struct literal / pattern). Exclude type
    // ascriptions by inspecting the value's head.
    if seg.len() >= 3 && seg[1].is_punct(":") {
        if let Some(name) = seg[0].ident() {
            let val = &seg[2];
            let is_type = match val {
                Item::Tok(t) => match t.kind {
                    TokKind::Ident => {
                        t.text.starts_with(|c: char| c.is_uppercase())
                            || TYPE_HEADS.contains(&t.text.as_str())
                    }
                    TokKind::Punct => matches!(t.text.as_str(), "&" | "*" | "<"),
                    _ => false,
                },
                Item::Op(op, _) => op == "::",
                Item::Group(g) => g.delim != Delim::Paren,
            };
            if !is_type {
                let pos = seg[0].pos();
                return Stmt::Field {
                    name: name.to_string(),
                    pos,
                    value: parse_value(&seg[2..]),
                };
            }
        }
    }

    Stmt::Exprs(parse_expr_full(seg))
}

/// Parse as many expressions as the segment yields: the spine parses one
/// expression, and if tokens remain (statement keywords, closure pipes,
/// pattern scraps) it skips one item and tries again — so an embedded
/// binary chain is recovered no matter what surrounds it.
fn parse_expr_full(seg: &[Item<'_>]) -> Vec<Expr> {
    let mut out = Vec::new();
    let mut rest = seg;
    while !rest.is_empty() {
        // Skip keywords and stray items that cannot start an expression.
        if rest[0]
            .ident()
            .is_some_and(|id| SKIP_KEYWORDS.contains(&id))
        {
            rest = &rest[1..];
            continue;
        }
        let (expr, used) = parse_binary(rest, 0);
        if used == 0 {
            rest = &rest[1..];
            continue;
        }
        out.push(expr);
        rest = &rest[used..];
    }
    out
}

/// The first parsed expression of a segment, or Opaque if none.
fn first_expr(mut exprs: Vec<Expr>) -> Expr {
    if exprs.is_empty() {
        Expr::Opaque {
            pos: Pos { line: 0, col: 0 },
        }
    } else {
        exprs.swap_remove(0)
    }
}

fn bin_op_of(item: &Item<'_>) -> Option<BinOp> {
    match item {
        Item::Op(op, _) => match op.as_str() {
            "==" => Some(BinOp::Eq),
            "!=" => Some(BinOp::Ne),
            "<=" => Some(BinOp::Le),
            ">=" => Some(BinOp::Ge),
            "&&" => Some(BinOp::AndAnd),
            "||" => Some(BinOp::OrOr),
            "<<" => Some(BinOp::Shl),
            ">>" => Some(BinOp::Shr),
            ".." | "..=" | "..." => Some(BinOp::Range),
            _ => None,
        },
        Item::Tok(t) if t.kind == TokKind::Punct => match t.text.as_str() {
            "+" => Some(BinOp::Add),
            "-" => Some(BinOp::Sub),
            "*" => Some(BinOp::Mul),
            "/" => Some(BinOp::Div),
            "%" => Some(BinOp::Rem),
            "<" => Some(BinOp::Lt),
            ">" => Some(BinOp::Gt),
            "&" => Some(BinOp::BitAnd),
            "|" => Some(BinOp::BitOr),
            "^" => Some(BinOp::BitXor),
            _ => None,
        },
        _ => None,
    }
}

/// Pratt loop: parse a primary, then fold in binary operators of at least
/// `min_prec`. Returns the expression and the number of items consumed.
fn parse_binary(seg: &[Item<'_>], min_prec: u8) -> (Expr, usize) {
    let (mut lhs, mut used) = parse_primary(seg);
    if used == 0 {
        return (lhs, 0);
    }
    while let Some((op_item, op)) = seg.get(used).and_then(|it| Some((it, bin_op_of(it)?))) {
        let prec = op.precedence();
        if prec < min_prec {
            break;
        }
        let pos = op_item.pos();
        let (rhs, rhs_used) = parse_binary(&seg[used + 1..], prec + 1);
        if rhs_used == 0 {
            break;
        }
        used += 1 + rhs_used;
        lhs = Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
            pos,
        };
    }
    (lhs, used)
}

/// Parse one primary expression with its postfix chain (`.field`,
/// `.method(…)`, `(…)` call, `[…]` index, `?`, `as ty`).
fn parse_primary(seg: &[Item<'_>]) -> (Expr, usize) {
    let Some(first) = seg.first() else {
        return (
            Expr::Opaque {
                pos: Pos { line: 0, col: 0 },
            },
            0,
        );
    };
    let pos = first.pos();

    // Prefix operators: `-`, `*`, `&` are dimension-transparent; `!` is
    // not. `&mut x` needs the `mut` skipped too.
    if first.is_punct("-") || first.is_punct("*") || first.is_punct("&") || first.is_punct("!") {
        let transparent = !first.is_punct("!");
        let mut k = 1;
        while seg.get(k).and_then(Item::ident) == Some("mut") {
            k += 1;
        }
        let (inner, used) = parse_primary(&seg[k..]);
        if used == 0 {
            return (Expr::Opaque { pos }, 0);
        }
        let expr = if transparent {
            Expr::Unary {
                inner: Box::new(inner),
                pos,
            }
        } else {
            Expr::Opaque { pos }
        };
        return (expr, k + used);
    }

    let (mut expr, mut used) = match first {
        Item::Tok(t) => match t.kind {
            TokKind::Int | TokKind::Float | TokKind::Str | TokKind::Char => {
                (Expr::Lit { kind: t.kind, pos }, 1)
            }
            TokKind::Ident => {
                if SKIP_KEYWORDS.contains(&t.text.as_str()) || t.text == "as" {
                    return (Expr::Opaque { pos }, 0);
                }
                // Leading `::`-path: `a::b::c` (turbofish skipped).
                let mut text = t.text.clone();
                let mut last = t.text.clone();
                let mut k = 1;
                while seg.get(k).is_some_and(|it| it.is_punct("::")) {
                    // Turbofish `::<…>`: skip to the matching `>`.
                    if seg.get(k + 1).is_some_and(|it| it.is_punct("<")) {
                        let mut depth = 1usize;
                        let mut j = k + 2;
                        while depth > 0 {
                            match seg.get(j) {
                                Some(it) if it.is_punct("<") => depth += 1,
                                Some(it) if it.is_punct(">") => depth -= 1,
                                Some(_) => {}
                                None => break,
                            }
                            j += 1;
                        }
                        k = j;
                        continue;
                    }
                    match seg.get(k + 1).and_then(Item::ident) {
                        Some(id) => {
                            text.push_str("::");
                            text.push_str(id);
                            last = id.to_string();
                            k += 2;
                        }
                        None => break,
                    }
                }
                // Macro invocation `name!(…)` / `vec![…]`: the expansion
                // is unknowable here — the whole thing is Opaque.
                if seg.get(k).is_some_and(|it| it.is_punct("!"))
                    && matches!(seg.get(k + 1), Some(Item::Group(_)))
                {
                    return (Expr::Opaque { pos }, k + 2);
                }
                (Expr::Path { text, last, pos }, k)
            }
            TokKind::Lifetime | TokKind::Punct => return (Expr::Opaque { pos }, 0),
        },
        Item::Group(g) => match g.delim {
            Delim::Paren => {
                let inner = statements(&g.children);
                // A single parsed expression: transparent parentheses.
                match single_expr(inner) {
                    Some(e) => (
                        Expr::Paren {
                            inner: Box::new(e),
                            pos,
                        },
                        1,
                    ),
                    None => (Expr::Opaque { pos }, 1),
                }
            }
            Delim::Bracket | Delim::Brace => (Expr::Opaque { pos }, 1),
        },
        Item::Op(_, _) => return (Expr::Opaque { pos }, 0),
    };

    // Postfix chain.
    loop {
        match seg.get(used) {
            // `.method(args)` / `.field` / `.await` / `.0`
            Some(it) if it.is_punct(".") => {
                let Some(next) = seg.get(used + 1) else { break };
                match next {
                    Item::Tok(t) if t.kind == TokKind::Ident => {
                        let name = t.text.clone();
                        // Method turbofish `.gen::<f64>(…)`: skip the type
                        // arguments so the call still parses as a Method.
                        let after_tf = skip_turbofish(seg, used + 2).unwrap_or(used + 2);
                        if let Some(Item::Group(g)) = seg.get(after_tf) {
                            if g.delim == Delim::Paren {
                                expr = Expr::Method {
                                    recv: Box::new(expr),
                                    method: name,
                                    args: call_args(g),
                                    pos: next.pos(),
                                };
                                used = after_tf + 1;
                                continue;
                            }
                        }
                        // Plain field access: extend a path chain, or wrap.
                        expr = match expr {
                            Expr::Path { text, pos, .. } => Expr::Path {
                                text: format!("{text}.{name}"),
                                last: name,
                                pos,
                            },
                            other => Expr::Method {
                                recv: Box::new(other),
                                method: name,
                                args: Vec::new(),
                                pos: next.pos(),
                            },
                        };
                        used += 2;
                    }
                    // Tuple index `.0` — transparent.
                    Item::Tok(t) if t.kind == TokKind::Int => {
                        used += 2;
                    }
                    _ => break,
                }
            }
            // Call on a path: `f(args)`.
            Some(Item::Group(g)) if g.delim == Delim::Paren => match &expr {
                Expr::Path { last, pos, .. } => {
                    expr = Expr::Call {
                        last: last.clone(),
                        args: call_args(g),
                        pos: *pos,
                    };
                    used += 1;
                }
                _ => break,
            },
            // Index: `recv[i]` — transparent for dimensions.
            Some(Item::Group(g)) if g.delim == Delim::Bracket => {
                expr = Expr::Index {
                    recv: Box::new(expr),
                    pos,
                };
                used += 1;
            }
            // `?` — transparent.
            Some(it) if it.is_punct("?") => {
                used += 1;
            }
            // `as ty` cast.
            Some(it) if it.ident() == Some("as") => {
                let mut ty = String::new();
                let mut k = used + 1;
                while let Some(id) = seg.get(k).and_then(Item::ident) {
                    if !ty.is_empty() {
                        ty.push_str("::");
                    }
                    ty.push_str(id);
                    k += 1;
                    if seg.get(k).is_some_and(|it| it.is_punct("::")) {
                        k += 1;
                    } else {
                        break;
                    }
                }
                if ty.is_empty() {
                    break;
                }
                expr = Expr::Cast {
                    inner: Box::new(expr),
                    ty,
                    pos: it.pos(),
                };
                used = k;
            }
            _ => break,
        }
    }
    (expr, used)
}

/// If `seg[at]` starts a turbofish (`::` `<` … `>`), return the index just
/// past the closing `>`.
fn skip_turbofish(seg: &[Item<'_>], at: usize) -> Option<usize> {
    if !seg.get(at).is_some_and(|it| it.is_punct("::"))
        || !seg.get(at + 1).is_some_and(|it| it.is_punct("<"))
    {
        return None;
    }
    let mut depth = 1usize;
    let mut j = at + 2;
    while depth > 0 {
        match seg.get(j) {
            Some(it) if it.is_punct("<") => depth += 1,
            Some(it) if it.is_punct(">") => depth -= 1,
            Some(_) => {}
            None => return None,
        }
        j += 1;
    }
    Some(j)
}

/// Extract the lone expression from a parsed statement list, if that is
/// what the group held.
fn single_expr(mut stmts: Vec<Stmt<'_>>) -> Option<Expr> {
    if stmts.len() != 1 {
        return None;
    }
    match stmts.pop() {
        Some(Stmt::Exprs(mut es)) if es.len() == 1 => es.pop(),
        _ => None,
    }
}

/// Parse a call group's children into argument expressions (one per
/// comma-separated segment; non-expression segments are dropped).
fn call_args(g: &Group) -> Vec<Expr> {
    let mut args = Vec::new();
    for stmt in statements(&g.children) {
        if let Stmt::Exprs(es) = stmt {
            args.extend(es);
        }
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::tree::build;

    fn stmts_of(src: &str) -> usize {
        let toks = lex(src).tokens;
        let tree = build(&toks);
        statements(&tree).len()
    }

    fn parse_one(src: &str) -> Expr {
        let toks = lex(src).tokens;
        let tree = build(&toks);
        let mut stmts = statements(&tree);
        assert_eq!(stmts.len(), 1, "expected one statement in {src:?}");
        match stmts.pop() {
            Some(Stmt::Exprs(mut es)) => {
                assert_eq!(es.len(), 1, "expected one expr in {src:?}");
                es.pop().unwrap()
            }
            other => panic!("expected expr statement, got {other:?}"),
        }
    }

    #[test]
    fn binary_precedence() {
        let e = parse_one("a + b * c");
        match e {
            Expr::Binary {
                op: BinOp::Add,
                rhs,
                ..
            } => {
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("expected Add at the top, got {other:?}"),
        }
    }

    #[test]
    fn method_chain_and_call() {
        let e = parse_one("self.node.busy_power_w(u).max(floor_w)");
        match e {
            Expr::Method { method, recv, .. } => {
                assert_eq!(method, "max");
                assert!(
                    matches!(*recv, Expr::Method { ref method, .. } if method == "busy_power_w")
                );
            }
            other => panic!("expected method chain, got {other:?}"),
        }
    }

    #[test]
    fn let_binding_recovers_name_and_init() {
        let toks = lex("let energy_j = p_w * dt_s;").tokens;
        let tree = build(&toks);
        let stmts = statements(&tree);
        match &stmts[0] {
            Stmt::Let { name, init, .. } => {
                assert_eq!(name.as_deref(), Some("energy_j"));
                assert!(matches!(init, Some(Expr::Binary { op: BinOp::Mul, .. })));
            }
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn compound_assign() {
        let toks = lex("n.energy_j += joules;").tokens;
        let tree = build(&toks);
        let stmts = statements(&tree);
        match &stmts[0] {
            Stmt::Assign {
                target, op, value, ..
            } => {
                assert!(matches!(target, Expr::Path { last, .. } if last == "energy_j"));
                assert_eq!(*op, AssignOp::AddAssign);
                assert!(matches!(value, Expr::Path { last, .. } if last == "joules"));
            }
            other => panic!("expected assignment, got {other:?}"),
        }
    }

    #[test]
    fn eq_is_not_two_assigns() {
        let toks = lex("a == b;").tokens;
        let tree = build(&toks);
        let stmts = statements(&tree);
        assert!(
            matches!(&stmts[0], Stmt::Exprs(es) if matches!(es[0], Expr::Binary { op: BinOp::Eq, .. }))
        );
    }

    #[test]
    fn fn_sig_with_body() {
        let toks = lex("pub fn busy_power_w(&self, u: f64) -> f64 { self.peak_w * u }").tokens;
        let tree = build(&toks);
        let stmts = statements(&tree);
        match &stmts[0] {
            Stmt::FnSig { name, body } => {
                assert_eq!(name, "busy_power_w");
                assert!(body.is_some());
            }
            other => panic!("expected fn sig, got {other:?}"),
        }
    }

    #[test]
    fn type_ascription_is_not_a_field() {
        // Struct declaration fields must not parse as field initializers.
        let toks = lex("energy_j: f64").tokens;
        let tree = build(&toks);
        let stmts = statements(&tree);
        assert!(matches!(&stmts[0], Stmt::Exprs(_)));
    }

    #[test]
    fn struct_literal_field_parses() {
        let toks = lex("energy_j: watts * dt").tokens;
        let tree = build(&toks);
        let stmts = statements(&tree);
        assert!(matches!(&stmts[0], Stmt::Field { name, .. } if name == "energy_j"));
    }

    #[test]
    fn cast_is_transparent() {
        let e = parse_one("ops as f64");
        assert!(matches!(e, Expr::Cast { ty, .. } if ty == "f64"));
    }

    #[test]
    fn statement_splitting() {
        assert_eq!(stmts_of("a; b; c"), 3);
        assert_eq!(stmts_of("a, b"), 2);
    }

    #[test]
    fn control_flow_initializer_is_opaque() {
        // `let x = if cond { a } else { b };` must NOT degrade to `cond`
        // as the bound value — that would let rules fire on a misparse.
        let toks = lex("let ideal_j = if busy { dt_s * peak_w } else { 0.0 };").tokens;
        let tree = build(&toks);
        let stmts = statements(&tree);
        match &stmts[0] {
            Stmt::Let { name, init, .. } => {
                assert_eq!(name.as_deref(), Some("ideal_j"));
                assert!(matches!(init, Some(Expr::Opaque { .. })), "{init:?}");
            }
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn macro_invocation_is_opaque() {
        let toks = lex("let bytes = vec![0u8; 256];").tokens;
        let tree = build(&toks);
        let stmts = statements(&tree);
        match &stmts[0] {
            Stmt::Let { init, .. } => {
                assert!(matches!(init, Some(Expr::Opaque { .. })), "{init:?}");
            }
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn method_turbofish_parses_as_method() {
        let e = parse_one("rng.gen::<f64>()");
        assert!(
            matches!(e, Expr::Method { ref method, .. } if method == "gen"),
            "{e:?}"
        );
    }
}
