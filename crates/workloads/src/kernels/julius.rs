//! The **Julius** proxy kernel: the computational core of a real-time
//! speech recognizer — per-frame Gaussian-mixture (GMM) acoustic scoring
//! followed by Viterbi decoding over an HMM.

use super::KernelStats;
use rayon::prelude::*;

/// A diagonal-covariance Gaussian mixture over `dim`-dimensional features.
#[derive(Debug, Clone)]
pub struct Gmm {
    /// Feature dimensionality.
    pub dim: usize,
    /// Per-component means, `components × dim`.
    pub means: Vec<f64>,
    /// Per-component inverse variances, `components × dim`.
    pub inv_vars: Vec<f64>,
    /// Per-component log mixture weights.
    pub log_weights: Vec<f64>,
    /// Per-component log normalization constants.
    pub log_norms: Vec<f64>,
}

impl Gmm {
    /// Deterministic synthetic GMM with `components` mixtures.
    pub fn synthetic(dim: usize, components: usize, seed: u64) -> Self {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let means: Vec<f64> = (0..dim * components).map(|_| next() * 4.0 - 2.0).collect();
        let vars: Vec<f64> = (0..dim * components).map(|_| 0.5 + next()).collect();
        let log_norms = (0..components)
            .map(|c| {
                let det_log: f64 = vars[c * dim..(c + 1) * dim].iter().map(|v| v.ln()).sum();
                -0.5 * (dim as f64 * (2.0 * std::f64::consts::PI).ln() + det_log)
            })
            .collect();
        Gmm {
            dim,
            means,
            inv_vars: vars.iter().map(|v| 1.0 / v).collect(),
            log_weights: vec![-(components as f64).ln(); components],
            log_norms,
        }
    }

    /// Log-likelihood of one feature frame under the mixture
    /// (log-sum-exp over components).
    pub fn log_likelihood(&self, frame: &[f64]) -> f64 {
        assert_eq!(frame.len(), self.dim);
        let components = self.log_weights.len();
        let mut max = f64::NEG_INFINITY;
        let mut lls = Vec::with_capacity(components);
        for c in 0..components {
            let mu = &self.means[c * self.dim..(c + 1) * self.dim];
            let iv = &self.inv_vars[c * self.dim..(c + 1) * self.dim];
            let mut quad = 0.0;
            for ((x, m), v) in frame.iter().zip(mu).zip(iv) {
                let d = x - m;
                quad += d * d * v;
            }
            let ll = self.log_weights[c] + self.log_norms[c] - 0.5 * quad;
            max = max.max(ll);
            lls.push(ll);
        }
        max + lls.iter().map(|l| (l - max).exp()).sum::<f64>().ln()
    }
}

/// A left-to-right HMM whose states each own a GMM.
#[derive(Debug, Clone)]
pub struct Hmm {
    /// Per-state acoustic models.
    pub states: Vec<Gmm>,
    /// Log self-loop probability (stay in the same state).
    pub log_self: f64,
    /// Log advance probability (move to the next state).
    pub log_next: f64,
}

impl Hmm {
    /// Synthetic left-to-right HMM with `n` states.
    pub fn synthetic(n: usize, dim: usize, components: usize, seed: u64) -> Self {
        Hmm {
            states: (0..n)
                .map(|i| Gmm::synthetic(dim, components, seed.wrapping_add(i as u64 * 7919)))
                .collect(),
            log_self: (0.6f64).ln(),
            log_next: (0.4f64).ln(),
        }
    }

    /// Viterbi decode: best state path for the frame sequence.
    /// Returns `(best_log_prob, path)`.
    pub fn viterbi(&self, frames: &[Vec<f64>]) -> (f64, Vec<usize>) {
        let n = self.states.len();
        assert!(n > 0 && !frames.is_empty());
        // Acoustic scores, parallel over frames (the hot loop of Julius).
        let scores: Vec<Vec<f64>> = frames
            .par_iter()
            .map(|f| self.states.iter().map(|g| g.log_likelihood(f)).collect())
            .collect();

        let mut delta = vec![f64::NEG_INFINITY; n];
        delta[0] = scores[0][0]; // left-to-right: must start in state 0
        let mut back: Vec<Vec<usize>> = Vec::with_capacity(frames.len());
        back.push(vec![0; n]);
        for frame_scores in scores.iter().skip(1) {
            let mut next = vec![f64::NEG_INFINITY; n];
            let mut bp = vec![0usize; n];
            for s in 0..n {
                let stay = delta[s] + self.log_self;
                let advance = if s > 0 {
                    delta[s - 1] + self.log_next
                } else {
                    f64::NEG_INFINITY
                };
                let (best, from) = if stay >= advance { (stay, s) } else { (advance, s - 1) };
                next[s] = best + frame_scores[s];
                bp[s] = from;
            }
            delta = next;
            back.push(bp);
        }
        // Backtrack from the best final state.
        let (mut state, &best) = delta
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("Viterbi lattice has at least one state");
        let mut path = vec![0usize; frames.len()];
        for t in (0..frames.len()).rev() {
            path[t] = state;
            state = back[t][state];
        }
        (best, path)
    }
}

/// Score `samples` worth of synthetic audio (one 25 ms frame per 160
/// samples at 16 kHz, 39-dim MFCC-like features) through a 16-state HMM.
pub fn kernel(samples: u64, seed: u64) -> KernelStats {
    let frames_n = (samples / 160).max(1) as usize;
    let dim = 39;
    let hmm = Hmm::synthetic(16, dim, 4, seed);
    // Synthetic features drifting through the state means so the path moves.
    let frames: Vec<Vec<f64>> = (0..frames_n)
        .map(|t| {
            let target = (t * hmm.states.len() / frames_n).min(hmm.states.len() - 1);
            let gmm = &hmm.states[target];
            (0..dim).map(|d| gmm.means[d] + 0.1 * (t as f64).sin()).collect()
        })
        .collect();
    let (ll, path) = hmm.viterbi(&frames);
    KernelStats {
        ops: samples,
        checksum: ll + path.iter().sum::<usize>() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmm_likelihood_peaks_at_the_mean() {
        let g = Gmm::synthetic(8, 3, 1);
        let mean0: Vec<f64> = g.means[..8].to_vec();
        let at_mean = g.log_likelihood(&mean0);
        let away: Vec<f64> = mean0.iter().map(|m| m + 3.0).collect();
        assert!(at_mean > g.log_likelihood(&away));
    }

    #[test]
    fn log_sum_exp_is_stable() {
        let g = Gmm::synthetic(4, 8, 2);
        let far: Vec<f64> = vec![50.0; 4];
        let ll = g.log_likelihood(&far);
        assert!(ll.is_finite() && ll < 0.0);
    }

    #[test]
    fn viterbi_recovers_a_planted_path() {
        let hmm = Hmm::synthetic(4, 6, 2, 3);
        // Frames sitting exactly on each state's first-component mean, in
        // order, for 5 frames each.
        let frames: Vec<Vec<f64>> = (0..20)
            .map(|t| {
                let s = t / 5;
                hmm.states[s].means[..6].to_vec()
            })
            .collect();
        let (_, path) = hmm.viterbi(&frames);
        // Path must be monotone non-decreasing (left-to-right HMM) and end
        // in the last state.
        assert!(path.windows(2).all(|w| w[1] >= w[0] && w[1] <= w[0] + 1));
        assert_eq!(*path.last().unwrap(), 3);
        // It should spend the bulk of its time in the planted states.
        let matches = path
            .iter()
            .enumerate()
            .filter(|(t, &s)| s == t / 5)
            .count();
        assert!(matches >= 14, "path {path:?}");
    }

    #[test]
    fn viterbi_path_starts_in_state_zero() {
        let hmm = Hmm::synthetic(5, 4, 2, 9);
        let frames: Vec<Vec<f64>> = (0..8).map(|_| vec![0.0; 4]).collect();
        let (_, path) = hmm.viterbi(&frames);
        assert_eq!(path[0], 0);
    }

    #[test]
    fn kernel_scales_ops_with_samples() {
        let s = kernel(16_000, 5);
        assert_eq!(s.ops, 16_000);
        assert!(s.checksum.is_finite());
    }
}
