//! Self-contained deterministic RNG for fault sampling (SplitMix64 seeding
//! into xoshiro256++), so this crate stays dependency-free while producing
//! high-quality, reproducible streams.

/// Deterministic random stream for fault-event sampling.
///
/// Streams are keyed by an arbitrary list of `u64`s (plan seed, job seed,
/// attempt, group, node): the same key always yields the same stream, and
/// any change to any component decorrelates it.
#[derive(Debug, Clone)]
pub struct FaultRng {
    s: [u64; 4],
}

impl FaultRng {
    /// Build the stream for a key. Components are absorbed through
    /// SplitMix64 so near-identical keys (e.g. node 3 vs node 4) still
    /// produce independent streams.
    pub fn from_key(key: &[u64]) -> Self {
        const PHI: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut state = 0x243f_6a88_85a3_08d3u64; // π digits: arbitrary non-zero base
        for &k in key {
            state = splitmix(state.wrapping_add(k).wrapping_add(PHI));
        }
        let mut s = [0u64; 4];
        for word in &mut s {
            state = state.wrapping_add(PHI);
            *word = splitmix(state);
        }
        // xoshiro must not start at the all-zero state.
        if s == [0; 4] {
            s[0] = PHI;
        }
        FaultRng { s }
    }

    /// Next 64 uniformly random bits (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) as f64))
    }

    /// The raw xoshiro256++ state — a checkpoint cursor. Feeding it back
    /// through [`FaultRng::from_state`] resumes the stream exactly where
    /// it left off (the serve snapshot format stores these four words).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a stream from a [`FaultRng::state`] cursor. An all-zero
    /// state (impossible to reach from a real stream, but possible in a
    /// corrupt snapshot) is nudged off zero the same way `from_key` does.
    pub fn from_state(mut s: [u64; 4]) -> Self {
        if s == [0; 4] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        FaultRng { s }
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_stream() {
        let mut a = FaultRng::from_key(&[1, 2, 3]);
        let mut b = FaultRng::from_key(&[1, 2, 3]);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn any_key_component_decorrelates() {
        let base: Vec<u64> = (0..50)
            .map(|_| FaultRng::from_key(&[7, 0, 3]).next_u64())
            .collect();
        for key in [[8, 0, 3], [7, 1, 3], [7, 0, 4]] {
            let other = FaultRng::from_key(&key).next_u64();
            assert!(!base.contains(&other), "stream collision for {key:?}");
        }
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        let mut rng = FaultRng::from_key(&[42]);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
