//! The PARSEC **blackscholes** kernel: closed-form European option pricing
//! under the Black–Scholes model — the paper's financial-analytics
//! workload.

use super::KernelStats;
use rayon::prelude::*;

/// One option contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Option {
    /// Spot price of the underlying.
    pub spot: f64,
    /// Strike price.
    pub strike: f64,
    /// Risk-free rate (continuous compounding).
    pub rate: f64,
    /// Volatility (annualized).
    pub volatility: f64,
    /// Time to expiry in years.
    pub expiry: f64,
    /// True for a call, false for a put.
    pub is_call: bool,
}

/// Cumulative standard normal distribution, Abramowitz & Stegun 26.2.17 —
/// the same polynomial PARSEC's reference implementation uses (|ε| < 7.5e-8).
pub fn cndf(x: f64) -> f64 {
    let neg = x < 0.0;
    let x = x.abs();
    let k = 1.0 / (1.0 + 0.2316419 * x);
    let poly = k
        * (0.319381530
            + k * (-0.356563782 + k * (1.781477937 + k * (-1.821255978 + k * 1.330274429))));
    let pdf = (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let p = 1.0 - pdf * poly;
    if neg {
        1.0 - p
    } else {
        p
    }
}

/// Black–Scholes price of a single option.
pub fn price(o: &Option) -> f64 {
    let sqrt_t = o.expiry.sqrt();
    let d1 = ((o.spot / o.strike).ln() + (o.rate + 0.5 * o.volatility * o.volatility) * o.expiry)
        / (o.volatility * sqrt_t);
    let d2 = d1 - o.volatility * sqrt_t;
    let discounted_strike = o.strike * (-o.rate * o.expiry).exp();
    if o.is_call {
        o.spot * cndf(d1) - discounted_strike * cndf(d2)
    } else {
        discounted_strike * cndf(-d2) - o.spot * cndf(-d1)
    }
}

/// Generate a deterministic portfolio of `n` options (mirrors PARSEC's
/// input file generator: spots/strikes/vols swept over realistic ranges).
pub fn portfolio(n: usize, seed: u64) -> Vec<Option> {
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| Option {
            spot: 20.0 + 160.0 * next(),
            strike: 20.0 + 160.0 * next(),
            rate: 0.01 + 0.09 * next(),
            volatility: 0.05 + 0.60 * next(),
            expiry: 0.1 + 2.9 * next(),
            is_call: i % 2 == 0,
        })
        .collect()
}

/// Price a whole portfolio (optionally in parallel) and checksum.
pub fn kernel(options: &[Option], parallel: bool) -> KernelStats {
    let sum: f64 = if parallel {
        options.par_iter().map(price).sum()
    } else {
        options.iter().map(price).sum()
    };
    KernelStats {
        ops: options.len() as u64,
        checksum: sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ATM: Option = Option {
        spot: 100.0,
        strike: 100.0,
        rate: 0.05,
        volatility: 0.2,
        expiry: 1.0,
        is_call: true,
    };

    #[test]
    fn textbook_call_price() {
        // Hull's classic example: C ≈ 10.4506.
        let c = price(&ATM);
        assert!((c - 10.4506).abs() < 1e-3, "call = {c}");
    }

    #[test]
    fn put_call_parity() {
        // C − P = S − K·e^{−rT}, for any parameters.
        for o in portfolio(200, 42) {
            let call = price(&Option { is_call: true, ..o });
            let put = price(&Option {
                is_call: false,
                ..o
            });
            let parity = o.spot - o.strike * (-o.rate * o.expiry).exp();
            assert!(
                (call - put - parity).abs() < 1e-6,
                "parity violated: {call} - {put} != {parity}"
            );
        }
    }

    #[test]
    fn cndf_is_a_distribution() {
        assert!((cndf(0.0) - 0.5).abs() < 1e-7);
        assert!(cndf(6.0) > 0.999999);
        assert!(cndf(-6.0) < 1e-6);
        // symmetry
        for x in [0.3, 1.0, 2.5] {
            assert!((cndf(x) + cndf(-x) - 1.0).abs() < 1e-9);
        }
        // monotone
        let mut prev = 0.0;
        for i in -40..=40 {
            let v = cndf(i as f64 / 10.0);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn prices_respect_no_arbitrage_bounds() {
        for o in portfolio(500, 7) {
            let c = price(&Option { is_call: true, ..o });
            assert!(
                c >= 0.0 && c <= o.spot + 1e-9,
                "call {c} vs spot {}",
                o.spot
            );
            let p = price(&Option {
                is_call: false,
                ..o
            });
            assert!(p >= 0.0 && p <= o.strike + 1e-9);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let opts = portfolio(10_000, 123);
        let a = kernel(&opts, false);
        let b = kernel(&opts, true);
        assert_eq!(a.ops, b.ops);
        assert!((a.checksum - b.checksum).abs() < 1e-6 * a.checksum.abs());
    }

    #[test]
    fn portfolio_is_deterministic() {
        assert_eq!(portfolio(100, 5), portfolio(100, 5));
        assert_ne!(portfolio(100, 5), portfolio(100, 6));
    }
}
