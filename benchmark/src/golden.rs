//! Golden digests of every benchmark output that does not depend on the
//! seed. A digest is FNV-1a over the exact bits of the values, so any
//! change in any output bit shows as a mismatch.
//!
//! The files under `golden/` hold one `key digest` pair per line; `#`
//! starts a comment. `benchmark --bless` rewrites them from the current
//! code.

use std::fmt;

/// Running FNV-1a-64 digest over 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The empty digest.
    pub fn new() -> Self {
        Digest(Self::OFFSET)
    }

    /// Fold in one word, byte by byte (little-endian).
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Fold in the exact bits of a float.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Fold in a string's bytes and its length.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The committed golden files, compiled in so a run reads nothing at
/// run time.
pub const PAPER_ALL: &str = include_str!("../golden/paper_all.txt");
/// Frontier digests of the materialized 32 A9 x 12 K10 sweeps.
pub const EXPLORE_PAPER_SPACE: &str = include_str!("../golden/explore_paper_space.txt");
/// Frontier digests of the streamed DALEK-style sweeps.
pub const MEGA_STREAM: &str = include_str!("../golden/mega_stream.txt");

/// The digest recorded for `key` in golden file `text`, if any.
pub fn lookup(text: &str, key: &str) -> Option<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .find(|(k, _)| k.trim() == key)
        .map(|(_, d)| d.to_string())
}

/// Compare a computed digest against the golden file.
pub fn check(text: &str, key: &str, got: Digest) -> Result<(), String> {
    match lookup(text, key) {
        Some(want) if want == got.to_string() => Ok(()),
        Some(want) => Err(format!("{key}: digest {got} differs from golden {want}")),
        None => Err(format!("{key}: no golden digest (run `benchmark --bless`)")),
    }
}

/// Render `(key, digest)` pairs as a golden file with a header comment.
pub fn render(header: &str, entries: &[(String, Digest)]) -> String {
    let mut out = String::new();
    for line in header.lines() {
        out.push_str("# ");
        out.push_str(line);
        out.push('\n');
    }
    for (k, d) in entries {
        out.push_str(&format!("{k} {d}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::new();
        a.f64(1.0);
        let mut b = Digest::new();
        b.f64(f64::from_bits(1.0f64.to_bits() + 1));
        assert_ne!(a, b);
        assert_eq!(Digest::new().to_string().len(), 16);
    }

    #[test]
    fn lookup_skips_comments_and_checks_keys() {
        let text = "# header\nEP a9:2,k10:1 00000000000000ff\n\nx264 a9:2,k10:1 0000000000000001\n";
        assert_eq!(
            lookup(text, "x264 a9:2,k10:1").as_deref(),
            Some("0000000000000001")
        );
        assert_eq!(lookup(text, "EP"), None);
        assert!(check(text, "missing", Digest::new()).is_err());
    }
}
