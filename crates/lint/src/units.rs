//! The physical-dimension lattice and the identifier-suffix grammar that
//! maps this workspace's naming conventions onto it.
//!
//! A dimension is an exponent vector over four base quantities: energy
//! (joules), time (seconds), operation count, and bytes. Power is `J·s⁻¹`,
//! frequency `s⁻¹`, a service rate `ops·s⁻¹`, a per-op energy `J·ops⁻¹`.
//! The all-zero vector is *dimensionless* — distinct from *unknown* (an
//! identifier with no unit suffix), which is represented as `None` at the
//! inference layer and unifies with anything.
//!
//! # Suffix grammar
//!
//! Scanning an identifier's trailing `_`-separated segments:
//!
//! ```text
//! ident   := prefix '_' unitexpr            (prefix non-empty)
//! unitexpr := count 'per' denom             -- e.g. j_per_op, req_per_s
//!           | 'ops' 's'                     -- ops_s ≡ ops·s⁻¹
//!           | unit
//! unit    := 'j' | 'w' | 's' | 'sec' | 'secs' | 'ms' | 'us' | 'ns'
//!          | 'hz' | 'khz' | 'mhz' | 'ghz' | 'ops' | 'op' | 'pct' | 'frac'
//!          | 'ratio' | 'factor' | 'bytes' | 'kb' | 'mb' | 'gb'
//!          | 'joules' | 'watts'
//! denom   := unit | 'job' | 'jobs'          -- per-event: denominator drops
//! count   := unit | <any segment>           -- unknown counts read as ops
//! ```
//!
//! Known limits (documented in DESIGN.md §15): the lattice tracks
//! dimension, not scale — `_ms` and `_s` are both time, so a missing
//! `/ 1000.0` is invisible; `sqrt`/`powi`/`exp` erase dimensions (the
//! lattice has no fractional exponents); unknown counts (`req`, `cycles`,
//! `bytes_per_op` numerators) all collapse onto the op/byte axes listed
//! above, so unlike counts do not conflict.

use std::fmt;

/// Exponent vector over (J, s, ops, bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dim {
    pub j: i8,
    pub s: i8,
    pub ops: i8,
    pub b: i8,
}

/// Dimensionless: the all-zero vector (`_pct`, `_frac`, `_ratio`, or any
/// quotient of like dimensions).
pub const DIMLESS: Dim = Dim {
    j: 0,
    s: 0,
    ops: 0,
    b: 0,
};

const ENERGY: Dim = Dim {
    j: 1,
    s: 0,
    ops: 0,
    b: 0,
};
const POWER: Dim = Dim {
    j: 1,
    s: -1,
    ops: 0,
    b: 0,
};
const TIME: Dim = Dim {
    j: 0,
    s: 1,
    ops: 0,
    b: 0,
};
const FREQ: Dim = Dim {
    j: 0,
    s: -1,
    ops: 0,
    b: 0,
};
const OPS: Dim = Dim {
    j: 0,
    s: 0,
    ops: 1,
    b: 0,
};
const BYTES: Dim = Dim {
    j: 0,
    s: 0,
    ops: 0,
    b: 1,
};

/// Dimension of a product: exponents add.
impl std::ops::Mul for Dim {
    type Output = Dim;
    fn mul(self, rhs: Dim) -> Dim {
        Dim {
            j: self.j.saturating_add(rhs.j),
            s: self.s.saturating_add(rhs.s),
            ops: self.ops.saturating_add(rhs.ops),
            b: self.b.saturating_add(rhs.b),
        }
    }
}

/// Dimension of a quotient: exponents subtract.
impl std::ops::Div for Dim {
    type Output = Dim;
    fn div(self, rhs: Dim) -> Dim {
        Dim {
            j: self.j.saturating_sub(rhs.j),
            s: self.s.saturating_sub(rhs.s),
            ops: self.ops.saturating_sub(rhs.ops),
            b: self.b.saturating_sub(rhs.b),
        }
    }
}

impl Dim {
    /// Dimension of a reciprocal (`.recip()`).
    pub fn recip(self) -> Dim {
        DIMLESS / self
    }
}

impl fmt::Display for Dim {
    /// Canonical names for the common points of the lattice, exponent
    /// form for the rest. This string is what `--json` carries in the
    /// per-finding `dims` annotation.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let named = match (self.j, self.s, self.ops, self.b) {
            (0, 0, 0, 0) => Some("1"),
            (1, 0, 0, 0) => Some("J"),
            (1, -1, 0, 0) => Some("W"),
            (0, 1, 0, 0) => Some("s"),
            (0, -1, 0, 0) => Some("1/s"),
            (0, 0, 1, 0) => Some("ops"),
            (0, -1, 1, 0) => Some("ops/s"),
            (1, 0, -1, 0) => Some("J/op"),
            (1, -2, 0, 0) => Some("W/s"),
            (0, 0, 0, 1) => Some("B"),
            (0, 0, -1, 1) => Some("B/op"),
            (0, -1, 0, 1) => Some("B/s"),
            (0, 0, 1, -1) => Some("ops/B"),
            (0, 2, 0, 0) => Some("s^2"),
            _ => None,
        };
        match named {
            Some(n) => f.write_str(n),
            None => {
                let mut first = true;
                for (sym, e) in [
                    ("J", self.j),
                    ("s", self.s),
                    ("ops", self.ops),
                    ("B", self.b),
                ] {
                    if e == 0 {
                        continue;
                    }
                    if !first {
                        f.write_str("·")?;
                    }
                    write!(f, "{sym}^{e}")?;
                    first = false;
                }
                if first {
                    f.write_str("1")?;
                }
                Ok(())
            }
        }
    }
}

/// Dimension of one unit segment, if it is a unit segment at all.
/// Scale prefixes (`ms`, `ghz`, `kb`) map to the same dimension as the
/// base unit — the lattice tracks dimension, not magnitude.
fn unit_segment(seg: &str) -> Option<Dim> {
    match seg {
        "j" | "joules" => Some(ENERGY),
        "w" | "watts" => Some(POWER),
        "s" | "sec" | "secs" | "ms" | "us" | "ns" => Some(TIME),
        "hz" | "khz" | "mhz" | "ghz" => Some(FREQ),
        "ops" | "op" => Some(OPS),
        "pct" | "frac" | "ratio" | "factor" => Some(DIMLESS),
        "bytes" | "kb" | "mb" | "gb" => Some(BYTES),
        _ => None,
    }
}

/// Dimension read off a count-position segment (the numerator of a
/// `_X_per_Y` compound): a real unit keeps its dimension, a few words are
/// recognized, anything else is an unknown count and reads as `ops`.
fn count_segment(seg: &str) -> Dim {
    if let Some(d) = unit_segment(seg) {
        return d;
    }
    match seg {
        "energy" => ENERGY,
        "power" => POWER,
        "time" => TIME,
        _ => OPS,
    }
}

/// Infer the dimension an identifier claims through its suffix, or `None`
/// when the name carries no unit convention.
pub fn dim_of_ident(name: &str) -> Option<Dim> {
    let segs: Vec<&str> = name.split('_').filter(|s| !s.is_empty()).collect();
    let n = segs.len();
    if n < 2 {
        // A bare `s` / `j` / `ms` variable is a name, not a unit claim —
        // but full unit *words* are unambiguous even alone (`joules`,
        // `watts`, `ops`, `bytes` as locals in accumulation loops).
        return match segs.first() {
            Some(&"joules") => Some(ENERGY),
            Some(&"watts") => Some(POWER),
            Some(&"ops") => Some(OPS),
            Some(&"bytes") => Some(BYTES),
            Some(&"duration") => Some(TIME),
            Some(&"count") => Some(DIMLESS),
            _ => None,
        };
    }
    // `…_X_per_Y`
    if n >= 3 && segs[n - 2] == "per" {
        // A per-*event* quantity (`ops_per_job`) is an amount per
        // dimensionless occurrence: the denominator drops out.
        let denom = match segs[n - 1] {
            "job" | "jobs" => DIMLESS,
            other => unit_segment(other)?,
        };
        let num = count_segment(segs[n - 3]);
        return Some(num / denom);
    }
    // `…_ops_s` ≡ ops per second (the `cluster_capacity_ops_s` convention).
    if n >= 3 && segs[n - 2] == "ops" && segs[n - 1] == "s" {
        return Some(OPS / TIME);
    }
    unit_segment(segs[n - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_suffixes() {
        assert_eq!(dim_of_ident("energy_j"), Some(ENERGY));
        assert_eq!(dim_of_ident("busy_power_w"), Some(POWER));
        assert_eq!(dim_of_ident("repair_s"), Some(TIME));
        assert_eq!(dim_of_ident("freq_ghz"), Some(FREQ));
        assert_eq!(dim_of_ident("node_ops"), Some(OPS));
        assert_eq!(dim_of_ident("dpr_pct"), Some(DIMLESS));
        assert_eq!(dim_of_ident("peak_rss_kb"), Some(BYTES));
        assert_eq!(dim_of_ident("total_joules"), Some(ENERGY));
    }

    #[test]
    fn compound_suffixes() {
        assert_eq!(dim_of_ident("cost_j_per_op"), Some(ENERGY / OPS));
        assert_eq!(dim_of_ident("req_per_s"), Some(OPS / TIME));
        assert_eq!(dim_of_ident("cluster_capacity_ops_s"), Some(OPS / TIME));
        assert_eq!(dim_of_ident("cycles_per_op"), Some(DIMLESS));
        assert_eq!(dim_of_ident("io_bytes_per_op"), Some(BYTES / OPS));
        assert_eq!(dim_of_ident("energy_per_op"), Some(ENERGY / OPS));
        // J/s is W: the display collapses onto the canonical name.
        assert_eq!(dim_of_ident("drain_j_per_s"), Some(POWER));
        // Per-event denominators drop out; `sec` aliases `s`.
        assert_eq!(dim_of_ident("ops_per_job"), Some(OPS));
        assert_eq!(dim_of_ident("ops_per_sec"), Some(OPS / TIME));
        // …but an unknown denominator still voids the claim entirely.
        assert_eq!(dim_of_ident("ops_per_shard"), None);
    }

    #[test]
    fn non_units_stay_unknown() {
        assert_eq!(dim_of_ident("s"), None);
        assert_eq!(dim_of_ident("j"), None);
        // …but bare unit *words* claim their dimension.
        assert_eq!(dim_of_ident("joules"), Some(ENERGY));
        assert_eq!(dim_of_ident("ops"), Some(OPS));
        assert_eq!(dim_of_ident("duration"), Some(TIME));
        assert_eq!(dim_of_ident("retry_factor"), Some(DIMLESS));
        assert_eq!(dim_of_ident("blocks_x"), None);
        assert_eq!(dim_of_ident("io_rate"), None);
        assert_eq!(dim_of_ident("index"), None);
        assert_eq!(dim_of_ident("mem_cycles"), None);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(POWER * TIME, ENERGY);
        assert_eq!(ENERGY / TIME, POWER);
        assert_eq!(ENERGY / ENERGY, DIMLESS);
        assert_eq!(FREQ, TIME.recip());
    }

    #[test]
    fn display_names() {
        assert_eq!(POWER.to_string(), "W");
        assert_eq!((ENERGY / OPS).to_string(), "J/op");
        assert_eq!((OPS / TIME).to_string(), "ops/s");
        assert_eq!(DIMLESS.to_string(), "1");
        assert_eq!((ENERGY * ENERGY).to_string(), "J^2");
        assert_eq!((ENERGY * TIME).to_string(), "J^1·s^1");
    }
}
