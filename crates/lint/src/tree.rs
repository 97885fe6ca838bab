//! Nested token trees: brace/paren/bracket groups over the flat [`Token`]
//! stream, with byte-accurate spans inherited from the lexer.
//!
//! The builder is forgiving by construction — a linter must never crash or
//! drop tokens on the code it scans. Unbalanced input degrades gracefully:
//! a stray closer that matches no open delimiter becomes a leaf, a closer
//! that matches an *outer* open delimiter implicitly closes the groups in
//! between, and groups still open at end of file are closed without a
//! closing token. In every case [`flatten`] returns exactly the original
//! token stream in order (the round-trip property pinned by
//! `tests/tree_props.rs`).

use crate::lexer::{TokKind, Token};

/// Delimiter class of a [`Group`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `( … )`
    Paren,
    /// `[ … ]`
    Bracket,
    /// `{ … }`
    Brace,
}

impl Delim {
    fn of_open(text: &str) -> Option<Delim> {
        match text {
            "(" => Some(Delim::Paren),
            "[" => Some(Delim::Bracket),
            "{" => Some(Delim::Brace),
            _ => None,
        }
    }

    fn of_close(text: &str) -> Option<Delim> {
        match text {
            ")" => Some(Delim::Paren),
            "]" => Some(Delim::Bracket),
            "}" => Some(Delim::Brace),
            _ => None,
        }
    }
}

/// One node of the token tree.
#[derive(Debug, Clone)]
pub enum Tree {
    /// A non-delimiter token.
    Leaf(Token),
    /// A delimited group and everything inside it.
    Group(Group),
}

impl Tree {
    /// The (line, col) where this node starts.
    pub fn pos(&self) -> (u32, u32) {
        match self {
            Tree::Leaf(t) => (t.line, t.col),
            Tree::Group(g) => (g.open.line, g.open.col),
        }
    }
}

/// A delimited group: `open` is the delimiter token, `close` is `None`
/// when the group was still open at end of file (or was implicitly closed
/// by an outer delimiter).
#[derive(Debug, Clone)]
pub struct Group {
    pub delim: Delim,
    pub open: Token,
    pub close: Option<Token>,
    pub children: Vec<Tree>,
}

struct Open {
    delim: Delim,
    open: Token,
    children: Vec<Tree>,
}

/// Build the token tree for a token stream.
pub fn build(tokens: &[Token]) -> Vec<Tree> {
    let mut stack: Vec<Open> = Vec::new();
    let mut top: Vec<Tree> = Vec::new();

    let push = |stack: &mut Vec<Open>, top: &mut Vec<Tree>, tree: Tree| match stack.last_mut() {
        Some(open) => open.children.push(tree),
        None => top.push(tree),
    };

    for tok in tokens {
        if tok.kind != TokKind::Punct {
            push(&mut stack, &mut top, Tree::Leaf(tok.clone()));
            continue;
        }
        if let Some(delim) = Delim::of_open(&tok.text) {
            stack.push(Open {
                delim,
                open: tok.clone(),
                children: Vec::new(),
            });
        } else if let Some(delim) = Delim::of_close(&tok.text) {
            // Find the innermost open group this closer matches.
            match stack.iter().rposition(|o| o.delim == delim) {
                Some(at) => {
                    // Implicitly close anything opened more recently.
                    while stack.len() > at + 1 {
                        let orphan = match stack.pop() {
                            Some(o) => o,
                            None => break,
                        };
                        push(
                            &mut stack,
                            &mut top,
                            Tree::Group(Group {
                                delim: orphan.delim,
                                open: orphan.open,
                                close: None,
                                children: orphan.children,
                            }),
                        );
                    }
                    if let Some(open) = stack.pop() {
                        push(
                            &mut stack,
                            &mut top,
                            Tree::Group(Group {
                                delim: open.delim,
                                open: open.open,
                                close: Some(tok.clone()),
                                children: open.children,
                            }),
                        );
                    }
                }
                // A closer with no matching open delimiter: keep it as a
                // leaf so nothing is lost.
                None => push(&mut stack, &mut top, Tree::Leaf(tok.clone())),
            }
        } else {
            push(&mut stack, &mut top, Tree::Leaf(tok.clone()));
        }
    }

    // Close anything still open at end of file.
    while let Some(open) = stack.pop() {
        push(
            &mut stack,
            &mut top,
            Tree::Group(Group {
                delim: open.delim,
                open: open.open,
                close: None,
                children: open.children,
            }),
        );
    }
    top
}

/// Flatten a token tree back into its token stream (the inverse of
/// [`build`]; exact for arbitrary input, balanced or not).
pub fn flatten(trees: &[Tree]) -> Vec<Token> {
    let mut out = Vec::new();
    flatten_into(trees, &mut out);
    out
}

fn flatten_into(trees: &[Tree], out: &mut Vec<Token>) {
    for tree in trees {
        match tree {
            Tree::Leaf(t) => out.push(t.clone()),
            Tree::Group(g) => {
                out.push(g.open.clone());
                flatten_into(&g.children, out);
                if let Some(close) = &g.close {
                    out.push(close.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn roundtrips(src: &str) {
        let toks = lex(src).tokens;
        let tree = build(&toks);
        let flat = flatten(&tree);
        assert_eq!(toks.len(), flat.len(), "token count changed for {src:?}");
        for (a, b) in toks.iter().zip(flat.iter()) {
            assert_eq!((a.kind, &a.text, a.lo, a.hi), (b.kind, &b.text, b.lo, b.hi));
        }
    }

    #[test]
    fn nests_groups() {
        let toks = lex("fn f(a: u8) { g([1, 2]); }").tokens;
        let tree = build(&toks);
        // fn, f, (…), {…}
        assert_eq!(tree.len(), 4);
        match &tree[3] {
            Tree::Group(g) => {
                assert_eq!(g.delim, Delim::Brace);
                assert!(g.close.is_some());
            }
            other => panic!("expected brace group, got {other:?}"),
        }
    }

    #[test]
    fn balanced_roundtrip() {
        roundtrips("fn f(a: u8) -> Vec<u8> { g([1, 2], (3, 4)); }");
    }

    #[test]
    fn unbalanced_roundtrip() {
        roundtrips("fn f( { ) } ]");
        roundtrips(") } ]");
        roundtrips("( [ {");
        roundtrips("a ( b [ c } d");
    }

    #[test]
    fn stray_closer_is_leaf() {
        let toks = lex(") a").tokens;
        let tree = build(&toks);
        assert!(matches!(&tree[0], Tree::Leaf(t) if t.text == ")"));
    }
}
