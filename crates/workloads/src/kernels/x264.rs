//! The **x264** proxy kernel: full-search SAD (sum of absolute
//! differences) motion estimation over synthetic video frames — the
//! memory-streaming inner loop that makes video encoding the paper's
//! memory-bound workload (§III-A).

use super::KernelStats;
use rayon::prelude::*;

/// A luma-only frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Width in pixels (multiple of 16).
    pub width: usize,
    /// Height in pixels (multiple of 16).
    pub height: usize,
    /// Row-major luma samples.
    pub pixels: Vec<u8>,
}

impl Frame {
    /// Deterministic pseudo-random frame (textured noise).
    pub fn synthetic(width: usize, height: usize, seed: u64) -> Self {
        assert!(
            width.is_multiple_of(16) && height.is_multiple_of(16),
            "dimensions must be multiples of 16"
        );
        let mut state = seed | 1;
        let pixels = (0..width * height)
            .map(|i| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                // mix in low-frequency structure so motion search has
                // gradients to descend
                let x = (i % width) as u64;
                let y = (i / width) as u64;
                ((state >> 32) as u8) / 2 + ((x / 16 + y / 16) as u8).wrapping_mul(31) / 2
            })
            .collect();
        Frame {
            width,
            height,
            pixels,
        }
    }

    /// The frame translated by `(dx, dy)` with edge clamping (ground-truth
    /// motion for tests).
    pub fn shifted(&self, dx: isize, dy: isize) -> Frame {
        let mut pixels = vec![0u8; self.pixels.len()];
        for y in 0..self.height {
            for x in 0..self.width {
                let sx = (x as isize - dx).clamp(0, self.width as isize - 1) as usize;
                let sy = (y as isize - dy).clamp(0, self.height as isize - 1) as usize;
                pixels[y * self.width + x] = self.pixels[sy * self.width + sx];
            }
        }
        Frame {
            width: self.width,
            height: self.height,
            pixels,
        }
    }
}

/// One motion vector with its SAD cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MotionVector {
    /// Horizontal displacement in pixels.
    pub dx: i8,
    /// Vertical displacement in pixels.
    pub dy: i8,
    /// SAD at this displacement.
    pub sad: u32,
}

/// SAD of one 16×16 block at `(bx, by)` in `cur` against the block at
/// `(bx+dx, by+dy)` in `reference`.
fn block_sad(cur: &Frame, reference: &Frame, bx: usize, by: usize, dx: isize, dy: isize) -> u32 {
    let rx = bx as isize + dx;
    let ry = by as isize + dy;
    if rx < 0
        || ry < 0
        || rx + 16 > reference.width as isize
        || ry + 16 > reference.height as isize
    {
        return u32::MAX;
    }
    let (rx, ry) = (rx as usize, ry as usize);
    let mut sad = 0u32;
    for row in 0..16 {
        let c = &cur.pixels[(by + row) * cur.width + bx..][..16];
        let r = &reference.pixels[(ry + row) * reference.width + rx..][..16];
        for (a, b) in c.iter().zip(r) {
            sad += a.abs_diff(*b) as u32;
        }
    }
    sad
}

/// Full-search motion estimation of every 16×16 macroblock of `cur`
/// against `reference` within a ±`range` window. Returns the best vector
/// per macroblock (row-major).
pub fn motion_estimate(
    cur: &Frame,
    reference: &Frame,
    range: i8,
    parallel: bool,
) -> Vec<MotionVector> {
    assert_eq!((cur.width, cur.height), (reference.width, reference.height));
    let blocks_x = cur.width / 16;
    let blocks_y = cur.height / 16;
    let search = |bi: usize| {
        let bx = (bi % blocks_x) * 16;
        let by = (bi / blocks_x) * 16;
        let mut best = MotionVector {
            dx: 0,
            dy: 0,
            sad: block_sad(cur, reference, bx, by, 0, 0),
        };
        for dy in -range..=range {
            for dx in -range..=range {
                let sad = block_sad(cur, reference, bx, by, dx as isize, dy as isize);
                if sad < best.sad {
                    best = MotionVector { dx, dy, sad };
                }
            }
        }
        best
    };
    if parallel {
        (0..blocks_x * blocks_y).into_par_iter().map(search).collect()
    } else {
        (0..blocks_x * blocks_y).map(search).collect()
    }
}

/// Encode a synthetic GOP: run motion estimation for `frames` consecutive
/// frames (each gently shifted), reporting frames as ops.
pub fn kernel(width: usize, height: usize, frames: usize, range: i8, parallel: bool) -> KernelStats {
    let base = Frame::synthetic(width, height, 99);
    let mut reference = base.clone();
    let mut checksum = 0.0;
    for i in 0..frames {
        let cur = reference.shifted(((i % 5) as isize) - 2, ((i % 3) as isize) - 1);
        let mvs = motion_estimate(&cur, &reference, range, parallel);
        checksum += mvs.iter().map(|m| m.sad as f64).sum::<f64>();
        reference = cur;
    }
    KernelStats {
        ops: frames as u64,
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_frames_give_zero_motion() {
        let f = Frame::synthetic(64, 48, 1);
        for mv in motion_estimate(&f, &f, 4, false) {
            assert_eq!((mv.dx, mv.dy, mv.sad), (0, 0, 0));
        }
    }

    #[test]
    fn recovers_a_planted_global_shift() {
        let reference = Frame::synthetic(128, 64, 2);
        let cur = reference.shifted(3, -2);
        let mvs = motion_estimate(&cur, &reference, 6, false);
        // Interior blocks (not clamped at edges) must find (-3, +2):
        // cur(x) = ref(x − d) → best match of cur block at ref offset −d.
        let blocks_x = 128 / 16;
        let interior: Vec<_> = mvs
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let bx = i % blocks_x;
                let by = i / blocks_x;
                bx > 0 && bx < blocks_x - 1 && by > 0 && by < 64 / 16 - 1
            })
            .map(|(_, m)| m)
            .collect();
        assert!(!interior.is_empty());
        for mv in interior {
            assert_eq!((mv.dx, mv.dy), (-3, 2), "got ({}, {})", mv.dx, mv.dy);
            assert_eq!(mv.sad, 0);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let a = Frame::synthetic(96, 48, 3);
        let b = Frame::synthetic(96, 48, 4);
        assert_eq!(
            motion_estimate(&a, &b, 4, false),
            motion_estimate(&a, &b, 4, true)
        );
    }

    #[test]
    fn out_of_bounds_candidates_are_rejected() {
        let f = Frame::synthetic(32, 32, 5);
        // With a range larger than the frame, the search must still return
        // valid vectors (edge blocks can't move outside).
        let mvs = motion_estimate(&f, &f, 20, false);
        for mv in mvs {
            assert!(mv.sad < u32::MAX);
        }
    }

    #[test]
    fn kernel_counts_frames() {
        let s = kernel(64, 48, 3, 2, false);
        assert_eq!(s.ops, 3);
        assert!(s.checksum >= 0.0);
    }

    #[test]
    #[should_panic(expected = "multiples of 16")]
    fn rejects_unaligned_dimensions() {
        let _ = Frame::synthetic(100, 48, 1);
    }
}
