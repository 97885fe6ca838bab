//! A `memslap`-style load generator (paper §II-C): requests with **fixed
//! key-value size and uniform popularity** against a preloaded key space,
//! at a configurable get:set ratio.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Key-popularity distribution.
///
/// The paper's memslap run uses [`Popularity::Uniform`]; [`Popularity::Zipf`]
/// is provided as an extension because real cache traffic is heavily
/// skewed and the skew changes the effective working set.
#[derive(Debug, Clone, PartialEq)]
pub enum Popularity {
    /// Every key equally likely (memslap's default, used by the paper).
    Uniform,
    /// Zipfian with exponent `s > 0`: rank-`r` key has weight `r^−s`.
    Zipf {
        /// Skew exponent (web caches are typically 0.6–1.1).
        s: f64,
    },
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Store `value_bytes` bytes under `key`.
    Set {
        /// Key bytes.
        key: Vec<u8>,
        /// Payload size in bytes.
        value_bytes: usize,
    },
    /// Fetch `key`.
    Get {
        /// Key bytes.
        key: Vec<u8>,
    },
}

/// Deterministic memslap-style request generator.
#[derive(Debug)]
pub struct MemslapGen {
    keys: usize,
    value_bytes: usize,
    get_ratio: f64,
    rng: SmallRng,
    /// Cumulative popularity weights; empty for the uniform distribution.
    popularity_cdf: Vec<f64>,
}

impl MemslapGen {
    /// `keys` in the key space, fixed `value_bytes`, `get_ratio` of reads
    /// (memslap's default workload is 90% get / 10% set).
    pub fn new(keys: usize, value_bytes: usize, get_ratio: f64, seed: u64) -> Self {
        Self::with_popularity(keys, value_bytes, get_ratio, Popularity::Uniform, seed)
    }

    /// Like [`MemslapGen::new`] with an explicit popularity distribution.
    pub fn with_popularity(
        keys: usize,
        value_bytes: usize,
        get_ratio: f64,
        popularity: Popularity,
        seed: u64,
    ) -> Self {
        assert!(keys > 0, "key space must be non-empty");
        assert!((0.0..=1.0).contains(&get_ratio), "get_ratio in [0, 1]");
        let popularity_cdf = match popularity {
            Popularity::Uniform => Vec::new(),
            Popularity::Zipf { s } => {
                assert!(s > 0.0, "Zipf exponent must be positive");
                let mut acc = 0.0;
                let mut cdf = Vec::with_capacity(keys);
                for r in 1..=keys {
                    acc += (r as f64).powf(-s);
                    cdf.push(acc);
                }
                let total = acc;
                for v in &mut cdf {
                    *v /= total;
                }
                cdf
            }
        };
        MemslapGen {
            keys,
            value_bytes,
            get_ratio,
            rng: SmallRng::seed_from_u64(seed),
            popularity_cdf,
        }
    }

    fn sample_key_index(&mut self) -> usize {
        if self.popularity_cdf.is_empty() {
            self.rng.gen_range(0..self.keys)
        } else {
            let u: f64 = self.rng.gen();
            self.popularity_cdf
                .partition_point(|&c| c < u)
                .min(self.keys - 1)
        }
    }

    fn key(&self, i: usize) -> Vec<u8> {
        format!("memslap-{i:012}").into_bytes()
    }

    /// The preload phase: one `set` per key (memslap's warmup).
    pub fn preload(&mut self) -> Vec<Op> {
        (0..self.keys)
            .map(|i| Op::Set {
                key: self.key(i),
                value_bytes: self.value_bytes,
            })
            .collect()
    }

    /// Next request: configured key popularity, fixed sizes.
    pub fn next_op(&mut self) -> Op {
        let i = self.sample_key_index();
        if self.rng.gen::<f64>() < self.get_ratio {
            Op::Get { key: self.key(i) }
        } else {
            Op::Set {
                key: self.key(i),
                value_bytes: self.value_bytes,
            }
        }
    }

    /// Bytes of payload one request moves on average (for demand
    /// calibration): every op touches one fixed-size value.
    pub fn bytes_per_op(&self) -> usize {
        // enprop-lint: allow(unit-assign) -- every op touches exactly one value, so the per-op byte cost equals the per-value byte count
        self.value_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preload_covers_every_key_once() {
        let mut g = MemslapGen::new(100, 64, 0.9, 1);
        let ops = g.preload();
        assert_eq!(ops.len(), 100);
        let mut keys: Vec<_> = ops
            .iter()
            .map(|o| match o {
                Op::Set { key, .. } => key.clone(),
                _ => panic!("preload must be all sets"),
            })
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 100);
    }

    #[test]
    fn get_ratio_is_respected() {
        let mut g = MemslapGen::new(50, 64, 0.9, 2);
        let n = 20_000;
        let gets = (0..n)
            .filter(|_| matches!(g.next_op(), Op::Get { .. }))
            .count();
        let ratio = gets as f64 / n as f64;
        assert!((ratio - 0.9).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn popularity_is_uniform() {
        let mut g = MemslapGen::new(10, 64, 1.0, 3);
        let mut counts = vec![0usize; 10];
        for _ in 0..50_000 {
            if let Op::Get { key } = g.next_op() {
                let i: usize = String::from_utf8(key)
                    .unwrap()
                    .trim_start_matches("memslap-")
                    .parse()
                    .unwrap();
                counts[i] += 1;
            }
        }
        for c in counts {
            assert!((c as f64 - 5000.0).abs() < 400.0, "count {c}");
        }
    }

    #[test]
    fn streams_are_seed_deterministic() {
        let mut a = MemslapGen::new(100, 32, 0.5, 42);
        let mut b = MemslapGen::new(100, 32, 0.5, 42);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    #[should_panic(expected = "key space")]
    fn rejects_empty_keyspace() {
        let _ = MemslapGen::new(0, 64, 0.9, 1);
    }

    #[test]
    fn zipf_skews_towards_low_ranks() {
        let mut g = MemslapGen::with_popularity(100, 64, 1.0, Popularity::Zipf { s: 1.0 }, 4);
        let mut counts = vec![0usize; 100];
        for _ in 0..50_000 {
            if let Op::Get { key } = g.next_op() {
                let i: usize = String::from_utf8(key)
                    .unwrap()
                    .trim_start_matches("memslap-")
                    .parse()
                    .unwrap();
                counts[i] += 1;
            }
        }
        // Rank-1 key should get ~1/H_100 ≈ 19% of requests; uniform gives 1%.
        let top = counts[0] as f64 / 50_000.0;
        assert!(top > 0.15 && top < 0.25, "top-key share {top}");
        // And roughly twice the rank-2 key.
        let ratio = counts[0] as f64 / counts[1].max(1) as f64;
        assert!((ratio - 2.0).abs() < 0.4, "rank-1/rank-2 ratio {ratio}");
    }

    #[test]
    fn zipf_s_zero_rejected() {
        let r = std::panic::catch_unwind(|| {
            MemslapGen::with_popularity(10, 64, 0.9, Popularity::Zipf { s: 0.0 }, 1)
        });
        assert!(r.is_err());
    }
}
