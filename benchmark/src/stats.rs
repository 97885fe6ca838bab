//! Order statistics for timing samples.

/// Percentile by the nearest-rank rule: the smallest sample with at least
/// `q·n` samples at or below it. `None` for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = nearest_rank(s.len(), q)?;
    s.get(idx).copied()
}

/// Zero-based index of the `q`-percentile in `n` sorted samples.
pub fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (q * n as f64).ceil() as usize;
    Some(rank.clamp(1, n) - 1)
}

/// Median (nearest-rank), or 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

/// First and third quartiles with the same interpolation as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so
/// spreads read the same here and in the acceptance procedure.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => (0.0, 0.0),
        1 => (s[0], s[0]),
        _ => {
            let at = |p: f64| {
                let m = (n + 1) as f64 * p;
                let j = (m.floor() as usize).clamp(1, n - 1);
                let delta = m - j as f64;
                s[j - 1] + (s[j] - s[j - 1]) * delta
            };
            (at(0.25), at(0.75))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_counts() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
    }
}
