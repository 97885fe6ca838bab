#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! Property-based tests for the executable kernels: the bignum arithmetic
//! under RSA, the KV store against a reference model, the EP stream
//! slicing, and the pricing kernel's no-arbitrage bounds.

use enprop_workloads::kernels::blackscholes::{self, Option as BsOption};
use enprop_workloads::kernels::ep::NpbRng;
use enprop_workloads::kernels::kvstore::KvStore;
use enprop_workloads::kernels::rsa::BigUint;
use proptest::prelude::*;
use std::collections::HashMap;

fn big(v: u128) -> BigUint {
    BigUint::from_bytes_be(&v.to_be_bytes())
}

fn low_u128(v: &BigUint) -> u128 {
    // Values in these tests fit two limbs by construction.
    let bytes_bits = v.bits();
    assert!(bytes_bits <= 128, "test value exceeds u128");
    let mut out: u128 = 0;
    for i in (0..128).rev() {
        out <<= 1;
        if v.bit(i) {
            out |= 1;
        }
    }
    out
}

proptest! {
    /// Subtraction agrees with u128 for all in-range inputs.
    #[test]
    fn bignum_sub_matches_u128(a in 0u128..u128::MAX / 2, b in 0u128..u128::MAX / 2) {
        prop_assert_eq!(low_u128(&big(a + b).sub(&big(a))), b);
    }

    /// Multiplication agrees with u128 (inputs bounded to avoid overflow).
    #[test]
    fn bignum_mul_matches_u128(a in 0u128..(1 << 64), b in 0u128..(1 << 63)) {
        prop_assert_eq!(low_u128(&big(a).mul(&big(b))), a * b);
    }

    /// Remainder agrees with u128.
    #[test]
    fn bignum_rem_matches_u128(a in 0u128..u128::MAX, m in 1u128..u128::MAX) {
        prop_assert_eq!(low_u128(&big(a).rem(&big(m))), a % m);
    }

    /// Modpow agrees with a square-and-multiply reference on u128.
    #[test]
    fn bignum_modpow_matches_reference(
        b in 0u64..u64::MAX,
        e in 0u64..512,
        m in 2u64..(1 << 32),
    ) {
        let mut want: u128 = 1;
        let mut base = b as u128 % m as u128;
        let mut exp = e;
        while exp > 0 {
            if exp & 1 == 1 {
                want = want * base % m as u128;
            }
            base = base * base % m as u128;
            exp >>= 1;
        }
        let got = big(b as u128).modpow(&BigUint::from_u64(e), &big(m as u128));
        prop_assert_eq!(low_u128(&got), want);
    }

    /// Shifts agree with u128.
    #[test]
    fn bignum_shl_matches_u128(v in 0u128..(1 << 64), s in 0usize..64) {
        prop_assert_eq!(low_u128(&big(v).shl(s)), v << s);
    }

    /// Ordering agrees with u128 ordering.
    #[test]
    fn bignum_ordering_matches_u128(a in 0u128..u128::MAX, b in 0u128..u128::MAX) {
        prop_assert_eq!(big(a).cmp(&big(b)), a.cmp(&b));
    }

    /// The KV store behaves exactly like a HashMap under any operation
    /// sequence (model-based testing).
    #[test]
    fn kvstore_matches_hashmap_model(ops in proptest::collection::vec(
        (0u8..2, 0u16..64, 0u16..256), 1..200,
    )) {
        let kv = KvStore::new(4);
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for (op, key_id, val) in ops {
            let key = format!("k{key_id}").into_bytes();
            match op {
                0 => {
                    let value = val.to_le_bytes().to_vec();
                    kv.set(&key, value.clone());
                    model.insert(key, value);
                }
                _ => {
                    prop_assert_eq!(kv.get(&key), model.get(&key).cloned());
                }
            }
        }
        prop_assert_eq!(kv.len(), model.len());
    }

    /// NPB RNG stream slicing: skipping to any offset matches stepping.
    #[test]
    fn ep_rng_skip_equals_stepping(seed in 1u64..(1 << 46), n in 0u64..5000) {
        let mut stepped = NpbRng::new(seed);
        for _ in 0..n {
            stepped.next_f64();
        }
        let mut jumped = NpbRng::new(seed);
        jumped.skip(n);
        prop_assert_eq!(stepped.next_f64(), jumped.next_f64());
    }

    /// Black–Scholes put-call parity holds over the whole realistic
    /// parameter domain, and prices respect no-arbitrage bounds.
    #[test]
    fn blackscholes_parity_and_bounds(
        spot in 1.0f64..500.0,
        strike in 1.0f64..500.0,
        rate in 0.0f64..0.15,
        vol in 0.01f64..1.0,
        expiry in 0.01f64..5.0,
    ) {
        let base = BsOption { spot, strike, rate, volatility: vol, expiry, is_call: true };
        let call = blackscholes::price(&base);
        let put = blackscholes::price(&BsOption { is_call: false, ..base });
        let parity = spot - strike * (-rate * expiry).exp();
        prop_assert!((call - put - parity).abs() < 1e-6 * spot.max(strike),
            "parity: C {call} P {put} vs {parity}");
        // The Abramowitz–Stegun CNDF polynomial carries |ε| < 7.5e-8, so
        // deep out-of-the-money prices can undershoot zero by ~ε·S.
        let eps = 1e-6 * spot.max(strike);
        prop_assert!(call >= parity.max(0.0) - eps && call <= spot + eps);
        prop_assert!(put >= -eps && put <= strike + eps);
    }

    /// Calls gain value with volatility (vega > 0).
    #[test]
    fn blackscholes_vega_positive(
        spot in 10.0f64..200.0,
        strike in 10.0f64..200.0,
        vol in 0.05f64..0.8,
    ) {
        let lo = blackscholes::price(&BsOption {
            spot, strike, rate: 0.03, volatility: vol, expiry: 1.0, is_call: true,
        });
        let hi = blackscholes::price(&BsOption {
            spot, strike, rate: 0.03, volatility: vol + 0.1, expiry: 1.0, is_call: true,
        });
        prop_assert!(hi >= lo - 1e-9, "vega violated: {lo} -> {hi}");
    }
}

proptest! {
    /// Montgomery modpow equals schoolbook modpow for any odd modulus.
    #[test]
    fn montgomery_matches_schoolbook(
        b in 0u128..u128::MAX,
        e in 0u64..4096,
        m in 1u64..(u64::MAX / 2),
    ) {
        use enprop_workloads::kernels::rsa::MontgomeryCtx;
        let modulus = big(2 * m as u128 + 1); // any odd modulus ≥ 3
        let ctx = MontgomeryCtx::new(&modulus);
        let base = big(b);
        let exp = big(e as u128);
        prop_assert_eq!(
            ctx.modpow(&base, &exp),
            base.modpow(&exp, &modulus)
        );
    }

    /// Montgomery round trip: from_mont(to_mont(x)) == x mod n.
    #[test]
    fn montgomery_roundtrip(x in 0u128..u128::MAX, m in 1u64..(u64::MAX / 2)) {
        use enprop_workloads::kernels::rsa::MontgomeryCtx;
        let modulus = big(2 * m as u128 + 1);
        let ctx = MontgomeryCtx::new(&modulus);
        let v = big(x);
        prop_assert_eq!(ctx.from_mont(&ctx.to_mont(&v)), v.rem(&modulus));
    }
}
