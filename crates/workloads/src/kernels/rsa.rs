//! The **RSA-2048** kernel: `openssl speed rsa2048`'s verify operation —
//! modular exponentiation with the public exponent `e = 65537` — built on
//! a from-scratch arbitrary-precision unsigned integer (the paper's web
//! security workload).

use super::KernelStats;
use rayon::prelude::*;
use std::cmp::Ordering;

/// Arbitrary-precision unsigned integer, little-endian `u64` limbs,
/// normalized (no trailing zero limbs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        BigUint { limbs: vec![] }
    }

    /// One.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// From a machine word.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// From big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut v = BigUint { limbs };
        v.normalize();
        v
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// True iff zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Bit length (0 for zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Test bit `i` (little-endian numbering).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        limb < self.limbs.len() && (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// `self − other`; panics on underflow.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self >= other, "BigUint subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        let mut v = BigUint { limbs: out };
        v.normalize();
        v
    }

    /// `self << bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return Self::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        BigUint { limbs: out }
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut v = BigUint { limbs: out };
        v.normalize();
        v
    }

    /// `self mod m` by binary shift-subtract; `m` must be nonzero.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "division by zero");
        if self < m {
            return self.clone();
        }
        let mut r = self.clone();
        let shift = self.bits() - m.bits();
        for i in (0..=shift).rev() {
            let t = m.shl(i);
            if r >= t {
                r = r.sub(&t);
            }
        }
        r
    }

    /// `self^exp mod m` (left-to-right square-and-multiply).
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modulus must be nonzero");
        if m == &BigUint::one() {
            return BigUint::zero();
        }
        let mut result = BigUint::one();
        let base = self.rem(m);
        if exp.is_zero() {
            return result;
        }
        for i in (0..exp.bits()).rev() {
            result = result.mul(&result).rem(m);
            if exp.bit(i) {
                result = result.mul(&base).rem(m);
            }
        }
        result
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.limbs
            .len()
            .cmp(&other.limbs.len())
            .then_with(|| self.limbs.iter().rev().cmp(other.limbs.iter().rev()))
    }
}

/// Montgomery-domain context for fast repeated multiplication modulo an
/// odd `n` — what a production `openssl speed rsa2048` actually exercises.
///
/// `R = 2^(64·k)` for `k` limbs of `n`; products are reduced with REDC
/// (one pass of low-limb elimination per limb) instead of binary long
/// division, which makes `modpow` ~an order of magnitude faster than the
/// schoolbook [`BigUint::modpow`]. Equivalence is property-tested.
#[derive(Debug, Clone)]
pub struct MontgomeryCtx {
    n: BigUint,
    /// limbs of n
    k: usize,
    /// −n⁻¹ mod 2⁶⁴
    n_prime: u64,
    /// R² mod n (for conversion into the Montgomery domain)
    r2: BigUint,
}

impl MontgomeryCtx {
    /// Build a context for an odd modulus.
    ///
    /// # Panics
    /// Panics when `n` is even or zero.
    pub fn new(n: &BigUint) -> Self {
        assert!(
            !n.is_zero() && n.bit(0),
            "Montgomery requires an odd modulus"
        );
        let k = n.limbs.len();
        // Newton iteration for n⁻¹ mod 2⁶⁴ (doubles correct bits each step).
        let n0 = n.limbs[0];
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let n_prime = inv.wrapping_neg();
        // R² mod n via shift-reduce.
        let r2 = BigUint::one().shl(2 * 64 * k).rem(n);
        MontgomeryCtx {
            n: n.clone(),
            k,
            n_prime,
            r2,
        }
    }

    /// REDC: given `t < n·R`, return `t·R⁻¹ mod n`.
    fn redc(&self, t: &BigUint) -> BigUint {
        let k = self.k;
        let mut limbs = t.limbs.clone();
        limbs.resize(2 * k + 1, 0);
        for i in 0..k {
            let m = limbs[i].wrapping_mul(self.n_prime);
            // limbs += m · n << (64·i)
            let mut carry = 0u128;
            for (j, &nl) in self.n.limbs.iter().enumerate() {
                let acc = limbs[i + j] as u128 + m as u128 * nl as u128 + carry;
                limbs[i + j] = acc as u64;
                carry = acc >> 64;
            }
            let mut j = i + self.n.limbs.len();
            while carry > 0 {
                let acc = limbs[j] as u128 + carry;
                limbs[j] = acc as u64;
                carry = acc >> 64;
                j += 1;
            }
        }
        let mut out = BigUint {
            limbs: limbs[k..].to_vec(),
        };
        out.normalize();
        if out >= self.n {
            out = out.sub(&self.n);
        }
        out
    }

    /// Montgomery product `a·b·R⁻¹ mod n` (inputs in the Montgomery domain).
    pub fn mont_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.redc(&a.mul(b))
    }

    /// Convert into the Montgomery domain: `a·R mod n`.
    pub fn to_mont(&self, a: &BigUint) -> BigUint {
        self.redc(&a.rem(&self.n).mul(&self.r2))
    }

    /// Convert out of the Montgomery domain.
    pub fn from_mont(&self, a: &BigUint) -> BigUint {
        self.redc(a)
    }

    /// `base^exp mod n` entirely in the Montgomery domain.
    pub fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if self.n == BigUint::one() {
            return BigUint::zero();
        }
        let base_m = self.to_mont(base);
        let mut result_m = self.to_mont(&BigUint::one());
        if !exp.is_zero() {
            for i in (0..exp.bits()).rev() {
                result_m = self.mont_mul(&result_m, &result_m);
                if exp.bit(i) {
                    result_m = self.mont_mul(&result_m, &base_m);
                }
            }
        }
        self.from_mont(&result_m)
    }
}

/// A deterministic 2048-bit odd modulus for throughput benchmarking (the
/// verify *timing* only depends on the modulus width, not its factors).
pub fn bench_modulus_2048() -> BigUint {
    let mut bytes = vec![0u8; 256];
    let mut state = 0x0123_4567_89ab_cdefu64;
    for b in bytes.iter_mut() {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        *b = (state.wrapping_mul(0x2545F4914F6CDD1D) >> 56) as u8;
    }
    bytes[0] |= 0x80; // full 2048 bits
    bytes[255] |= 1; // odd
    BigUint::from_bytes_be(&bytes)
}

/// Run `verifies` RSA-2048 verify operations (e = 65537), optionally in
/// parallel.
pub fn kernel(verifies: u64, seed: u64, parallel: bool) -> KernelStats {
    let n = bench_modulus_2048();
    let ctx = MontgomeryCtx::new(&n);
    let e = BigUint::from_u64(65537);
    let run_one = |i: u64| {
        let sig = BigUint::from_u64(seed ^ (i + 1)).shl((i % 1024) as usize);
        let out = ctx.modpow(&sig, &e);
        out.limbs.first().copied().unwrap_or(0) as f64
    };
    let checksum: f64 = if parallel {
        (0..verifies).into_par_iter().map(run_one).sum()
    } else {
        (0..verifies).map(run_one).sum()
    };
    KernelStats {
        ops: verifies,
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from_bytes_be(&v.to_be_bytes())
    }

    fn as_u128(v: &BigUint) -> u128 {
        let mut out = 0u128;
        for (i, &l) in v.limbs.iter().enumerate() {
            assert!(i < 2, "value too large for u128");
            out |= (l as u128) << (64 * i);
        }
        out
    }

    #[test]
    fn sub_matches_u128() {
        let pairs = [
            (0u128, 0u128),
            (1, 1),
            (u64::MAX as u128, 1),
            (1 << 100, 12345),
        ];
        for (a, b) in pairs {
            assert_eq!(as_u128(&big(a + b).sub(&big(b))), a);
        }
    }

    #[test]
    fn mul_matches_u128() {
        let pairs = [
            (0u128, 7u128),
            (123, 456),
            (u64::MAX as u128, u64::MAX as u128),
            (1 << 63, 1 << 40),
        ];
        for (a, b) in pairs {
            assert_eq!(as_u128(&big(a).mul(&big(b))), a * b);
        }
    }

    #[test]
    fn rem_matches_u128() {
        let cases = [
            (100u128, 7u128),
            (u64::MAX as u128 * 37, 1_000_003),
            ((1 << 120) + 12345, (1 << 61) - 1),
            (5, 10),
        ];
        for (a, m) in cases {
            assert_eq!(as_u128(&big(a).rem(&big(m))), a % m, "a={a} m={m}");
        }
    }

    #[test]
    fn modpow_matches_naive() {
        // 5^117 mod 19 etc., checked against a u128 loop.
        for (b, e, m) in [(5u128, 117u64, 19u128), (7, 300, 1_000_003), (2, 1000, 97)] {
            let mut want = 1u128;
            for _ in 0..e {
                want = want * b % m;
            }
            let got = big(b).modpow(&BigUint::from_u64(e), &big(m));
            assert_eq!(as_u128(&got), want, "{b}^{e} mod {m}");
        }
    }

    #[test]
    fn shl_matches_u128() {
        for (v, s) in [(1u128, 1usize), (0xDEAD, 64), (3, 100)] {
            assert_eq!(as_u128(&big(v).shl(s)), v << s);
        }
    }

    #[test]
    fn bit_accessors() {
        let v = big(0b1011);
        assert!(v.bit(0) && v.bit(1) && !v.bit(2) && v.bit(3));
        assert_eq!(v.bits(), 4);
        assert_eq!(BigUint::zero().bits(), 0);
    }

    #[test]
    fn modulus_is_2048_bits_and_odd() {
        let n = bench_modulus_2048();
        assert_eq!(n.bits(), 2048);
        assert!(n.bit(0));
    }

    #[test]
    fn kernel_parallel_matches_sequential() {
        let a = kernel(8, 42, false);
        let b = kernel(8, 42, true);
        assert_eq!(a.ops, b.ops);
        // Checksum is a float sum; parallel reduction reorders the terms.
        assert!((a.checksum - b.checksum).abs() <= 1e-9 * a.checksum.abs());
    }
}

#[cfg(test)]
mod montgomery_tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from_bytes_be(&v.to_be_bytes())
    }

    #[test]
    fn n_prime_satisfies_redc_identity() {
        // n·n' ≡ −1 (mod 2⁶⁴)
        let n = bench_modulus_2048();
        let ctx = MontgomeryCtx::new(&n);
        assert_eq!(n.limbs[0].wrapping_mul(ctx.n_prime), u64::MAX);
    }

    #[test]
    fn roundtrip_through_the_domain() {
        let n = bench_modulus_2048();
        let ctx = MontgomeryCtx::new(&n);
        for v in [0u128, 1, 42, u64::MAX as u128, (1 << 100) + 7] {
            let x = big(v);
            let back = ctx.from_mont(&ctx.to_mont(&x));
            assert_eq!(back, x.rem(&n), "v = {v}");
        }
    }

    #[test]
    fn mont_modpow_matches_schoolbook_small() {
        for (b, e, m) in [
            (5u128, 117u64, 19u128),
            (7, 65537, 1_000_003),
            (123456789, 1000, 2_147_483_647),
        ] {
            let n = big(m);
            let ctx = MontgomeryCtx::new(&n);
            let got = ctx.modpow(&big(b), &BigUint::from_u64(e));
            let want = big(b).modpow(&BigUint::from_u64(e), &n);
            assert_eq!(got, want, "{b}^{e} mod {m}");
        }
    }

    #[test]
    fn mont_modpow_matches_schoolbook_2048bit() {
        let n = bench_modulus_2048();
        let ctx = MontgomeryCtx::new(&n);
        let e = BigUint::from_u64(65537);
        for seed in [1u64, 99, 0xDEAD_BEEF] {
            let sig = BigUint::from_u64(seed).shl(777);
            assert_eq!(ctx.modpow(&sig, &e), sig.modpow(&e, &n), "seed {seed}");
        }
    }

    #[test]
    fn mont_mul_is_commutative_and_associative() {
        let n = big(1_000_003);
        let ctx = MontgomeryCtx::new(&n);
        let a = ctx.to_mont(&big(12345));
        let b = ctx.to_mont(&big(67890));
        let c = ctx.to_mont(&big(424242));
        assert_eq!(ctx.mont_mul(&a, &b), ctx.mont_mul(&b, &a));
        assert_eq!(
            ctx.mont_mul(&ctx.mont_mul(&a, &b), &c),
            ctx.mont_mul(&a, &ctx.mont_mul(&b, &c))
        );
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn even_modulus_rejected() {
        let _ = MontgomeryCtx::new(&big(1000));
    }
}
