//! A minimal, dependency-free Rust lexer: just enough structure for the
//! lint rules to match identifier/punctuation sequences without being
//! fooled by comments, string literals, char literals, or lifetimes.
//!
//! Comments are not discarded — they are collected separately because the
//! waiver directives live in them (see `rules::parse_waivers`).
//! String and char literals become opaque single tokens, so a rule looking
//! for `Instant :: now` can never fire on `"Instant::now"` inside a test
//! fixture or a doc string.

/// Lexical class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`foo`, `as`, `fn`, `static`).
    Ident,
    /// Integer literal, suffix included (`42`, `0xFF`, `1u64`).
    Int,
    /// Float literal, suffix included (`1.0`, `2e-3`, `1.5f32`).
    Float,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Any other single character (`.`, `:`, `(`, `=` …).
    Punct,
}

/// One source token with its 1-based position and byte-accurate span.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    pub col: u32,
    /// Byte offset of the token's first byte in the source.
    pub lo: u32,
    /// Byte offset one past the token's last byte.
    pub hi: u32,
}

impl Token {
    /// True when `next` starts exactly where `self` ends — used to join
    /// multi-character operators (`==`, `+=`, `::` …) that the lexer
    /// emits as adjacent single-character puncts.
    pub fn touches(&self, next: &Token) -> bool {
        self.hi == next.lo
    }
}

/// One comment (line or block), keyed to the line it starts on.
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    pub line: u32,
}

/// Token stream plus the comments that were stripped from it.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
    byte: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        self.byte += c.len_utf8() as u32;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenize `src`. The lexer is intentionally forgiving: malformed input
/// (unterminated strings, stray bytes) degrades to opaque tokens rather
/// than an error, because a linter must never crash on the code it scans.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        col: 1,
        byte: 0,
    };
    let mut out = Lexed::default();

    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        let lo = cur.byte;
        let n_before = out.tokens.len();
        if c.is_whitespace() {
            cur.bump();
        } else if c == '/' && cur.peek(1) == Some('/') {
            line_comment(&mut cur, &mut out, line);
        } else if c == '/' && cur.peek(1) == Some('*') {
            block_comment(&mut cur, &mut out, line);
        } else if is_raw_string_start(&cur) {
            raw_string(&mut cur, &mut out, line, col);
        } else if c == 'b' && cur.peek(1) == Some('\'') {
            cur.bump(); // b
            char_literal(&mut cur, &mut out, line, col);
        } else if c == 'b' && cur.peek(1) == Some('"') {
            cur.bump(); // b
            string_literal(&mut cur, &mut out, line, col);
        } else if c == '"' {
            string_literal(&mut cur, &mut out, line, col);
        } else if c == '\'' {
            char_or_lifetime(&mut cur, &mut out, line, col);
        } else if c == 'r' && cur.peek(1) == Some('#') && cur.peek(2).is_some_and(is_ident_start) {
            cur.bump(); // r
            cur.bump(); // #
            ident(&mut cur, &mut out, line, col);
        } else if c.is_ascii_digit() {
            number(&mut cur, &mut out, line, col);
        } else if is_ident_start(c) {
            ident(&mut cur, &mut out, line, col);
        } else {
            cur.bump();
            out.tokens.push(Token {
                kind: TokKind::Punct,
                text: c.to_string(),
                line,
                col,
                lo: 0,
                hi: 0,
            });
        }
        // Every branch pushes at most one token; stamp its byte span from
        // the position captured before the branch consumed anything.
        if out.tokens.len() > n_before {
            if let Some(t) = out.tokens.last_mut() {
                t.lo = lo;
                t.hi = cur.byte;
            }
        }
    }
    out
}

fn is_raw_string_start(cur: &Cursor) -> bool {
    // r"…" | r#"…"# | br"…" | br#"…"#
    let (r_at, _) = match cur.peek(0) {
        Some('r') => (0, 1),
        Some('b') if cur.peek(1) == Some('r') => (1, 2),
        _ => return false,
    };
    let mut j = r_at + 1;
    while cur.peek(j) == Some('#') {
        j += 1;
    }
    cur.peek(j) == Some('"')
}

fn line_comment(cur: &mut Cursor, out: &mut Lexed, line: u32) {
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if c == '\n' {
            break;
        }
        text.push(c);
        cur.bump();
    }
    out.comments.push(Comment { text, line });
}

fn block_comment(cur: &mut Cursor, out: &mut Lexed, line: u32) {
    let mut text = String::new();
    let mut depth = 0usize;
    while let Some(c) = cur.peek(0) {
        if c == '/' && cur.peek(1) == Some('*') {
            depth += 1;
            text.push_str("/*");
            cur.bump();
            cur.bump();
        } else if c == '*' && cur.peek(1) == Some('/') {
            depth -= 1;
            text.push_str("*/");
            cur.bump();
            cur.bump();
            if depth == 0 {
                break;
            }
        } else {
            text.push(c);
            cur.bump();
        }
    }
    out.comments.push(Comment { text, line });
}

fn string_literal(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    let mut text = String::new();
    text.push(cur.bump().unwrap_or('"')); // opening quote
    while let Some(c) = cur.peek(0) {
        if c == '\\' {
            text.push(c);
            cur.bump();
            if let Some(esc) = cur.bump() {
                text.push(esc);
            }
        } else if c == '"' {
            text.push(c);
            cur.bump();
            break;
        } else {
            text.push(c);
            cur.bump();
        }
    }
    out.tokens.push(Token {
        kind: TokKind::Str,
        text,
        line,
        col,
        lo: 0,
        hi: 0,
    });
}

fn raw_string(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    let mut text = String::new();
    if cur.peek(0) == Some('b') {
        text.push('b');
        cur.bump();
    }
    text.push('r');
    cur.bump();
    let mut hashes = 0usize;
    while cur.peek(0) == Some('#') {
        hashes += 1;
        text.push('#');
        cur.bump();
    }
    text.push('"');
    cur.bump();
    'body: while let Some(c) = cur.peek(0) {
        if c == '"' {
            // Candidate terminator: `"` followed by `hashes` hashes.
            for k in 0..hashes {
                if cur.peek(1 + k) != Some('#') {
                    text.push(c);
                    cur.bump();
                    continue 'body;
                }
            }
            text.push('"');
            cur.bump();
            for _ in 0..hashes {
                text.push('#');
                cur.bump();
            }
            break;
        }
        text.push(c);
        cur.bump();
    }
    out.tokens.push(Token {
        kind: TokKind::Str,
        text,
        line,
        col,
        lo: 0,
        hi: 0,
    });
}

fn char_literal(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    // Positioned on the opening `'`.
    let mut text = String::new();
    text.push(cur.bump().unwrap_or('\'')); // '
    while let Some(c) = cur.peek(0) {
        if c == '\\' {
            text.push(c);
            cur.bump();
            if let Some(esc) = cur.bump() {
                text.push(esc);
            }
        } else if c == '\'' {
            text.push(c);
            cur.bump();
            break;
        } else if c == '\n' {
            break; // unterminated; bail rather than swallow the file
        } else {
            text.push(c);
            cur.bump();
        }
    }
    out.tokens.push(Token {
        kind: TokKind::Char,
        text,
        line,
        col,
        lo: 0,
        hi: 0,
    });
}

fn char_or_lifetime(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    // `'a`/`'static` (lifetime) vs `'x'`/`'\n'` (char literal): a lifetime
    // is `'` + identifier NOT followed by a closing `'`.
    if cur.peek(1) == Some('\\') {
        char_literal(cur, out, line, col);
        return;
    }
    if cur.peek(1).is_some_and(is_ident_start) {
        let mut j = 2;
        while cur.peek(j).is_some_and(is_ident_continue) {
            j += 1;
        }
        if cur.peek(j) != Some('\'') {
            let mut text = String::new();
            text.push(cur.bump().unwrap_or('\'')); // '
            while cur.peek(0).is_some_and(is_ident_continue) {
                text.push(cur.bump().unwrap_or('_'));
            }
            out.tokens.push(Token {
                kind: TokKind::Lifetime,
                text,
                line,
                col,
                lo: 0,
                hi: 0,
            });
            return;
        }
    }
    char_literal(cur, out, line, col);
}

fn number(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    let mut text = String::new();
    let mut is_float = false;

    if cur.peek(0) == Some('0') && matches!(cur.peek(1), Some('x' | 'X' | 'o' | 'O' | 'b' | 'B')) {
        // Radix literal: digits, underscores and (for hex) letters, plus
        // any trailing type suffix — never a float.
        text.push(cur.bump().unwrap_or('0'));
        text.push(cur.bump().unwrap_or('x'));
        while cur.peek(0).is_some_and(|c| c.is_alphanumeric() || c == '_') {
            text.push(cur.bump().unwrap_or('0'));
        }
    } else {
        while cur.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
            text.push(cur.bump().unwrap_or('0'));
        }
        // `1.5` and `1.` are floats; `1..2` is a range and `1.max(2)` a
        // method call, so only consume `.` when what follows cannot start
        // a new token that owns it.
        if cur.peek(0) == Some('.') {
            let next = cur.peek(1);
            let part_of_float =
                next.is_none_or(|n| n.is_ascii_digit() || !(is_ident_start(n) || n == '.'));
            if part_of_float {
                is_float = true;
                text.push(cur.bump().unwrap_or('.'));
                while cur.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                    text.push(cur.bump().unwrap_or('0'));
                }
            }
        }
        if matches!(cur.peek(0), Some('e' | 'E'))
            && (cur.peek(1).is_some_and(|c| c.is_ascii_digit())
                || (matches!(cur.peek(1), Some('+' | '-'))
                    && cur.peek(2).is_some_and(|c| c.is_ascii_digit())))
        {
            is_float = true;
            text.push(cur.bump().unwrap_or('e'));
            if matches!(cur.peek(0), Some('+' | '-')) {
                text.push(cur.bump().unwrap_or('+'));
            }
            while cur.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                text.push(cur.bump().unwrap_or('0'));
            }
        }
        // Type suffix (`u64`, `f32`, …). An `f` suffix makes it a float.
        if cur.peek(0).is_some_and(is_ident_start) {
            if cur.peek(0) == Some('f') {
                is_float = true;
            }
            while cur.peek(0).is_some_and(is_ident_continue) {
                text.push(cur.bump().unwrap_or('_'));
            }
        }
    }

    out.tokens.push(Token {
        kind: if is_float {
            TokKind::Float
        } else {
            TokKind::Int
        },
        text,
        line,
        col,
        lo: 0,
        hi: 0,
    });
}

fn ident(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    let mut text = String::new();
    while cur.peek(0).is_some_and(is_ident_continue) {
        text.push(cur.bump().unwrap_or('_'));
    }
    out.tokens.push(Token {
        kind: TokKind::Ident,
        text,
        line,
        col,
        lo: 0,
        hi: 0,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn comments_are_stripped_but_kept() {
        let l = lex("let x = 1; // trailing\n/* block\nspans */ let y = 2;");
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].line, 1);
        assert_eq!(l.comments[1].line, 2);
        assert!(l.tokens.iter().all(|t| t.text != "trailing"));
    }

    #[test]
    fn strings_are_opaque() {
        let toks = kinds(r#"let s = "Instant::now()";"#);
        assert!(toks.iter().any(|(k, _)| *k == TokKind::Str));
        assert!(!toks.iter().any(|(_, t)| t == "Instant"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r###"let s = r#"quote " inside"#; let t = 1;"###);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains("quote")));
        assert!(toks.iter().any(|(_, t)| t == "t"));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn numbers_classify() {
        let toks = kinds("1 1.5 1e3 2.0f64 7u32 0xFF 1.max(2) 0..4");
        let floats: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Float)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(floats, ["1.5", "1e3", "2.0f64"]);
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Int && t == "0xFF"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "max"));
    }

    #[test]
    fn positions_are_one_based() {
        let l = lex("a\n  b");
        assert_eq!((l.tokens[0].line, l.tokens[0].col), (1, 1));
        assert_eq!((l.tokens[1].line, l.tokens[1].col), (2, 3));
    }
}
