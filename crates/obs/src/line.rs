//! The one flat-line JSON reader behind every JSONL format in the
//! workspace: serve snapshots, replay traces and `--trace-out` event
//! streams. [`Line::parse`] reads one line once into `(key, raw value)`
//! pairs; typed getters then convert single values. The grammar is a
//! strict subset of JSON, with JSON whitespace allowed between tokens:
//!
//! ```text
//! line  = "{" [ pair *( "," pair ) ] "}"
//! pair  = string ":" value
//! value = string | number | "null" | "[" [ number *( "," number ) ] "]"
//! ```
//!
//! Nested objects, booleans, duplicate keys and trailing bytes are
//! rejected, so no strict prefix of a line reads as a shorter valid one.
//! Every failure is a [`LineError`] with the line number and, when there
//! is one, the offending key; the reader never panics.

use std::borrow::Cow;
use std::fmt;

/// Why a line, or one of its values, could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    /// 1-based line number.
    pub line: usize,
    /// The key whose value is missing or malformed, if any.
    pub key: Option<String>,
    /// What is wrong, naming the key when there is one.
    pub msg: String,
}

impl LineError {
    /// An error about line `line` as a whole.
    pub fn new(line: usize, msg: impl Into<String>) -> Self {
        LineError {
            line,
            key: None,
            msg: msg.into(),
        }
    }

    fn keyed(line: usize, key: &str, msg: String) -> Self {
        LineError {
            line,
            key: Some(key.to_string()),
            msg,
        }
    }
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for LineError {}

/// One parsed line: its number and its `(key, raw value)` pairs. Raw
/// values are the source text (strings keep quotes and escapes, arrays
/// their brackets), converted only by the getter that asks.
#[derive(Debug, Clone)]
pub struct Line<'a> {
    no: usize,
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Line<'a> {
    /// Parse `text`, line number `no` (1-based), as one flat object.
    pub fn parse(no: usize, text: &'a str) -> Result<Self, LineError> {
        let mut p = Parser {
            text,
            at: 0,
            no,
            key: None,
        };
        let mut pairs: Vec<(&'a str, &'a str)> = Vec::new();
        p.expect(b'{')?;
        let mut more = !p.eat(b'}');
        while more {
            let key = p.string()?;
            if pairs.iter().any(|&(k, _)| k == key) {
                return Err(p.err(&format!("duplicate key \"{key}\"")));
            }
            p.expect(b':')?;
            // Errors up to the next separator belong to this key's value.
            p.key = Some(key);
            pairs.push((key, p.value()?));
            more = p.eat(b',');
            if !more {
                p.expect(b'}')?;
            }
            p.key = None;
        }
        if p.token().is_some() {
            return Err(p.err("trailing bytes after the object"));
        }
        Ok(Line { no, pairs })
    }

    /// An error about this line as a whole, for values that read
    /// correctly but do not fit together.
    pub fn error(&self, msg: impl Into<String>) -> LineError {
        LineError::new(self.no, msg)
    }

    /// `key`'s raw value through `conv`: `None` when absent, an error
    /// saying `expected` when `conv` rejects it.
    fn get<T>(
        &self,
        key: &str,
        expected: &str,
        conv: impl FnOnce(&'a str) -> Option<T>,
    ) -> Result<Option<T>, LineError> {
        let Some(&(_, raw)) = self.pairs.iter().find(|&&(k, _)| k == key) else {
            return Ok(None);
        };
        let err = || {
            LineError::keyed(
                self.no,
                key,
                format!("malformed \"{key}\" value: {expected}"),
            )
        };
        conv(raw).map(Some).ok_or_else(err)
    }

    fn need<T>(&self, key: &str, v: Option<T>) -> Result<T, LineError> {
        v.ok_or_else(|| LineError::keyed(self.no, key, format!("missing \"{key}\"")))
    }

    /// `key` as an unsigned integer; `None` when absent.
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, LineError> {
        self.get(key, "expected an unsigned integer", |v| v.parse().ok())
    }

    /// `key` as an unsigned integer.
    pub fn u64(&self, key: &str) -> Result<u64, LineError> {
        self.need(key, self.opt_u64(key)?)
    }

    /// `key` as a float, `null` reading as NaN (writers print non-finite
    /// values as `null`); `None` when absent.
    pub fn opt_f64(&self, key: &str) -> Result<Option<f64>, LineError> {
        self.get(key, "expected a number", |v| match v {
            "null" => Some(f64::NAN),
            _ if v.starts_with(['"', '[']) => None,
            _ => v.parse().ok(),
        })
    }

    /// `key` as a float, `null` reading as NaN.
    pub fn f64(&self, key: &str) -> Result<f64, LineError> {
        self.need(key, self.opt_f64(key)?)
    }

    /// `key` as a float that travelled as its IEEE-754 bit pattern.
    pub fn f64_bits(&self, key: &str) -> Result<f64, LineError> {
        self.u64(key).map(f64::from_bits)
    }

    /// `key` as an unescaped string.
    pub fn str(&self, key: &str) -> Result<Cow<'a, str>, LineError> {
        let v = self.get(key, "expected a string with valid escapes", |v| {
            decode_escapes(v.strip_prefix('"')?.strip_suffix('"')?)
        })?;
        self.need(key, v)
    }

    /// `key` as an array of unsigned integers.
    pub fn u64s(&self, key: &str) -> Result<Vec<u64>, LineError> {
        let v = self.get(key, "expected an array of unsigned integers", |v| {
            let body = v.strip_prefix('[')?.strip_suffix(']')?.trim();
            if body.is_empty() {
                return Some(Vec::new());
            }
            body.split(',').map(|x| x.trim().parse().ok()).collect()
        })?;
        self.need(key, v)
    }
}

/// Decode a string body's JSON escapes; `None` on a bad escape (UTF-16
/// surrogates included: no writer here emits them).
fn decode_escapes(s: &str) -> Option<Cow<'_, str>> {
    if !s.contains('\\') {
        return Some(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('\\') {
        out.push_str(&rest[..i]);
        let (c, len) = match rest.as_bytes().get(i + 1)? {
            b'u' => {
                let hex = rest
                    .get(i + 2..i + 6)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))?;
                (char::from_u32(u32::from_str_radix(hex, 16).ok()?)?, 6)
            }
            b'b' => ('\u{8}', 2),
            b'f' => ('\u{c}', 2),
            b'n' => ('\n', 2),
            b'r' => ('\r', 2),
            b't' => ('\t', 2),
            &b @ (b'"' | b'\\' | b'/') => (char::from(b), 2),
            _ => return None,
        };
        out.push(c);
        rest = &rest[i + len..];
    }
    out.push_str(rest);
    Some(Cow::Owned(out))
}

/// Byte cursor over one line. It only stops at ASCII bytes, so slicing
/// `text` where it stops is always on a char boundary.
struct Parser<'a> {
    text: &'a str,
    at: usize,
    no: usize,
    /// The key whose value is being read, for error attribution.
    key: Option<&'a str>,
}

impl<'a> Parser<'a> {
    fn err(&self, detail: &str) -> LineError {
        let detail = if self.at >= self.text.len() {
            "line ends early (truncated?)"
        } else {
            detail
        };
        match self.key {
            Some(k) => LineError::keyed(self.no, k, format!("malformed \"{k}\" value: {detail}")),
            None => LineError::new(self.no, detail),
        }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    /// The next byte after any JSON whitespace, which is skipped.
    fn token(&mut self) -> Option<u8> {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
        self.byte()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.token() == Some(b);
        self.at += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), LineError> {
        if self.eat(b) {
            return Ok(());
        }
        Err(self.err(&format!("expected '{}'", char::from(b))))
    }

    fn digits(&mut self) -> usize {
        let start = self.at;
        while self.byte().is_some_and(|b| b.is_ascii_digit()) {
            self.at += 1;
        }
        self.at - start
    }

    /// A quoted string's body, escapes left for [`decode_escapes`].
    fn string(&mut self) -> Result<&'a str, LineError> {
        self.expect(b'"')?;
        let start = self.at;
        loop {
            match self.byte() {
                Some(b'"') => break,
                Some(b'\\') => self.at += 2,
                Some(b) if b >= 0x20 => self.at += 1,
                _ => return Err(self.err("unterminated string or control character")),
            }
        }
        self.at += 1;
        Ok(&self.text[start..self.at - 1])
    }

    /// A JSON number: no leading zeros, `+` or bare `.`.
    fn number(&mut self) -> Result<(), LineError> {
        self.at += usize::from(self.byte() == Some(b'-'));
        let lead = self.byte();
        let int = self.digits();
        let mut ok = int == 1 || (int > 1 && lead != Some(b'0'));
        if self.byte() == Some(b'.') {
            self.at += 1;
            ok &= self.digits() > 0;
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            self.at += 1;
            self.at += usize::from(matches!(self.byte(), Some(b'+' | b'-')));
            ok &= self.digits() > 0;
        }
        if ok {
            return Ok(());
        }
        Err(self.err("malformed number"))
    }

    /// One value's raw text.
    fn value(&mut self) -> Result<&'a str, LineError> {
        let first = self.token();
        let start = self.at;
        match first {
            Some(b'"') => {
                self.string()?;
            }
            Some(b'[') => {
                self.at += 1;
                let mut more = !self.eat(b']');
                while more {
                    self.token();
                    self.number()?;
                    more = self.eat(b',');
                    if !more {
                        self.expect(b']')?;
                    }
                }
            }
            Some(b'n') if self.text[self.at..].starts_with("null") => self.at += 4,
            Some(b'-' | b'0'..=b'9') => self.number()?,
            _ => return Err(self.err("expected a string, number, null or array of numbers")),
        }
        Ok(&self.text[start..self.at])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reads_every_value_shape() {
        let l = Line::parse(
            1,
            " { \"a\" : 7 ,\"f\":-1.5e-3,\"n\":null,\"s\":\"x\\ty\\u00e9\\/\",\
             \"xs\":[ 1 ,2,3 ],\"e\":[]}\t",
        )
        .unwrap();
        assert_eq!(l.u64("a").unwrap(), 7);
        assert_eq!(l.f64("a").unwrap(), 7.0);
        assert_eq!(l.f64("f").unwrap(), -1.5e-3);
        assert!(l.f64("n").unwrap().is_nan());
        assert_eq!(l.str("s").unwrap(), "x\tyé/");
        assert_eq!(l.u64s("xs").unwrap(), vec![1, 2, 3]);
        assert_eq!(l.u64s("e").unwrap(), Vec::<u64>::new());
        assert_eq!(l.f64_bits("a").unwrap().to_bits(), 7);
        assert!(Line::parse(1, "{}")
            .unwrap()
            .opt_f64("a")
            .unwrap()
            .is_none());
    }

    #[test]
    fn absent_and_malformed_are_distinct() {
        let l = Line::parse(4, "{\"f\":1.5,\"s\":\"x\",\"xs\":[1]}").unwrap();
        assert_eq!(l.opt_u64("zz").unwrap(), None);
        let missing = l.u64("zz").unwrap_err();
        assert_eq!((missing.line, missing.key.as_deref()), (4, Some("zz")));
        assert!(missing.msg.contains("missing"), "{missing}");
        for (key, bad) in [
            ("f", l.opt_u64("f")),
            ("s", l.opt_u64("s")),
            ("xs", l.opt_u64("xs")),
        ] {
            let e = bad.unwrap_err();
            assert_eq!(e.key.as_deref(), Some(key));
            assert!(e.to_string().starts_with("line 4: malformed"), "{e}");
        }
        assert!(l.opt_f64("s").is_err());
        assert!(l.str("f").is_err());
        assert!(l.u64s("f").is_err());
    }

    #[test]
    fn rejects_what_the_grammar_excludes() {
        for bad in [
            "",
            "[1]",
            "{\"a\":{\"b\":1}}",
            "{\"a\":true}",
            "{\"a\":1,\"a\":2}",
            "{\"a\":1} x",
            "{\"a\":1,}",
            "{\"a\":01}",
            "{\"a\":+1}",
            "{\"a\":1.}",
            "{\"a\":nope}",
            "{\"a\":[\"x\"]}",
            "{\"a\":\"\u{1}\"}",
            "{a:1}",
        ] {
            assert!(Line::parse(2, bad).is_err(), "accepted {bad:?}");
        }
        let e = Line::parse(2, "{\"t\":1,\"ops\":bogus}").unwrap_err();
        assert_eq!(e.key.as_deref(), Some("ops"));
        assert_eq!(e.line, 2);
        let e = Line::parse(2, "{\"t\":1,\"t\":2}").unwrap_err();
        assert!(e.msg.contains("duplicate"), "{e}");
        // Escapes are checked by the getter that decodes them.
        let l = Line::parse(2, "{\"q\":\"\\q\",\"u\":\"\\ud83d\",\"h\":\"\\u12\"}").unwrap();
        for key in ["q", "u", "h"] {
            assert_eq!(l.str(key).unwrap_err().key.as_deref(), Some(key));
        }
    }

    #[derive(Debug, Clone)]
    enum Val {
        U(u64),
        F(f64),
        S(String),
        A(Vec<u64>),
    }

    /// Draws `(tag, word, codes)` become one value of each shape: a
    /// `u64`, any `f64` bit pattern (NaN and infinities included), a
    /// string mixing ASCII, control and astral chars, and an array.
    fn val((tag, word, codes): (u8, u64, Vec<u32>)) -> Val {
        match tag {
            0 => Val::U(word),
            1 => Val::F(f64::from_bits(word)),
            2 => Val::S(
                codes
                    .iter()
                    .filter_map(|&c| char::from_u32(if c % 3 == 0 { c % 0x80 } else { c }))
                    .collect(),
            ),
            _ => Val::A(codes.iter().map(|&c| u64::from(c) << 32 ^ word).collect()),
        }
    }

    fn vals() -> impl Strategy<Value = Vec<Val>> {
        let one = (
            0u8..4,
            0u64..=u64::MAX,
            proptest::collection::vec(0u32..0x11_0000, 0..6),
        );
        proptest::collection::vec(one.prop_map(val), 0..8)
    }

    fn escape(s: &str) -> String {
        s.chars()
            .map(|c| match c {
                '"' => "\\\"".to_string(),
                '\\' => "\\\\".to_string(),
                c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32),
                c => c.to_string(),
            })
            .collect()
    }

    fn encode(vals: &[Val]) -> String {
        let body: Vec<String> = vals
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let raw = match v {
                    Val::U(u) => u.to_string(),
                    Val::F(f) if f.is_finite() => f.to_string(),
                    Val::F(_) => "null".to_string(),
                    Val::S(s) => format!("\"{}\"", escape(s)),
                    Val::A(xs) => {
                        let xs: Vec<String> = xs.iter().map(u64::to_string).collect();
                        format!("[{}]", xs.join(","))
                    }
                };
                format!("\"k{i}\":{raw}")
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }

    proptest! {
        /// Whatever a flat writer emits reads back bit-exactly.
        #[test]
        fn random_flat_lines_round_trip(vals in vals()) {
            let text = encode(&vals);
            let l = Line::parse(1, &text).unwrap();
            for (i, v) in vals.iter().enumerate() {
                let k = format!("k{i}");
                match v {
                    Val::U(u) => prop_assert_eq!(l.u64(&k).unwrap(), *u),
                    Val::F(f) if f.is_finite() => {
                        prop_assert_eq!(l.f64(&k).unwrap().to_bits(), f.to_bits());
                    }
                    Val::F(_) => prop_assert!(l.f64(&k).unwrap().is_nan()),
                    Val::S(s) => prop_assert_eq!(l.str(&k).unwrap(), s.as_str()),
                    Val::A(xs) => prop_assert_eq!(&l.u64s(&k).unwrap(), xs),
                }
            }
        }

        /// No strict prefix of a line reads as a (shorter) valid line.
        #[test]
        fn every_strict_prefix_is_an_error(vals in vals()) {
            let text = encode(&vals);
            for (cut, _) in text.char_indices() {
                let e = Line::parse(9, &text[..cut]).unwrap_err();
                prop_assert_eq!(e.line, 9);
            }
        }
    }
}
