//! Windowed aggregation keyed on **virtual time**: tumbling windows in a
//! bounded ring, each holding a count/sum pair and a [`QuantileSketch`].
//!
//! Memory is O(retained windows × sketch buckets), independent of the
//! event count — the property the serving plane needs to survive
//! 10⁸-request days.
//!
//! Conservation contract: the retained windows' counts plus
//! [`WindowedSeries::evicted_count`] equal the number of
//! [`WindowedSeries::observe_current_keyed`] calls, and the sums likewise
//! — windowing never loses events, it only forgets their fine structure
//! once a window is evicted from the ring. The chaos property tests pin
//! this against the serving controller's unwindowed counters.

use std::collections::VecDeque;

use crate::sketch::{QuantileSketch, SketchState};

/// One closed or in-progress tumbling window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Window index: `floor(t / window_s)`.
    pub index: u64,
    /// Observations in this window.
    pub count: u64,
    /// Sum of observed values in this window.
    pub sum: f64,
    /// Quantile sketch over this window's values.
    pub sketch: QuantileSketch,
}

impl WindowStats {
    fn new(index: u64, alpha: f64) -> Self {
        WindowStats {
            index,
            count: 0,
            sum: 0.0,
            sketch: QuantileSketch::new(alpha),
        }
    }
}

/// A bounded ring of tumbling windows over one observed series.
#[derive(Debug, Clone)]
pub struct WindowedSeries {
    window_s: f64,
    alpha: f64,
    max_windows: usize,
    /// Retained windows, ascending index; the back is the current window.
    ring: VecDeque<WindowStats>,
    /// Conservation sidecars for evicted windows.
    evicted_count: u64,
    evicted_sum: f64,
}

impl WindowedSeries {
    /// A series with tumbling windows of `window_s` virtual seconds,
    /// sketches at relative accuracy `alpha`, retaining at most
    /// `max_windows` windows (≥ 1).
    pub fn new(window_s: f64, alpha: f64, max_windows: usize) -> Self {
        WindowedSeries {
            window_s: if window_s.is_finite() && window_s > 0.0 {
                window_s
            } else {
                1.0
            },
            alpha,
            max_windows: max_windows.max(1),
            ring: VecDeque::new(),
            evicted_count: 0,
            evicted_sum: 0.0,
        }
    }

    /// The window length, virtual seconds.
    pub fn window_s(&self) -> f64 {
        self.window_s
    }

    /// Window index for virtual time `t`.
    pub fn index_of(&self, t: f64) -> u64 {
        if !t.is_finite() || t <= 0.0 {
            return 0;
        }
        // enprop-lint: allow(float-int-cast) -- virtual time over a positive finite window length is non-negative; saturation at u64::MAX only matters past ~5.8e11 years of virtual time
        (t / self.window_s).floor() as u64
    }

    /// Record `v` in the *current* (most recent) window, with a sketch key
    /// precomputed by an equal-`alpha` sketch. The caller places the
    /// window with [`advance_to`](Self::advance_to): the serving plane
    /// rolls windows before every event, so completions always land in
    /// the current window, and it has already keyed the value for its own
    /// sketches. Falls back to window 0 when nothing has been observed or
    /// advanced yet.
    pub fn observe_current_keyed(&mut self, v: f64, key: Option<i32>) {
        if self.ring.back().is_none() {
            self.ring.push_back(WindowStats::new(0, self.alpha));
        }
        let Some(w) = self.ring.back_mut() else {
            return;
        };
        w.count += 1;
        w.sum += v;
        w.sketch.observe_keyed(v, key);
    }

    /// Advance the current window to cover virtual time `t` without
    /// observing anything (so empty windows exist and rates read 0).
    pub fn advance_to(&mut self, t: f64) {
        let idx = self.index_of(t);
        let needs_new = match self.ring.back() {
            None => true,
            Some(last) => idx > last.index,
        };
        if needs_new {
            self.ring.push_back(WindowStats::new(idx, self.alpha));
            self.evict();
        }
    }

    fn evict(&mut self) {
        while self.ring.len() > self.max_windows {
            if let Some(old) = self.ring.pop_front() {
                self.evicted_count += old.count;
                self.evicted_sum += old.sum;
            }
        }
    }

    /// Retained windows, oldest first (the back is the current window).
    pub fn windows(&self) -> impl Iterator<Item = &WindowStats> {
        self.ring.iter()
    }

    /// Sketch relative accuracy α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Ring capacity: the most windows retained at once.
    pub fn max_windows(&self) -> usize {
        self.max_windows
    }

    /// Observations in evicted windows (the conservation sidecar).
    pub fn evicted_count(&self) -> u64 {
        self.evicted_count
    }

    /// Sum of observed values in evicted windows.
    pub fn evicted_sum(&self) -> f64 {
        self.evicted_sum
    }

    /// Rebuild a series from a [`SeriesState`] — the checkpoint/resume
    /// inverse of reading the geometry, sidecars and [`windows`](Self::windows).
    pub fn from_state(s: SeriesState) -> Self {
        let mut out = WindowedSeries::new(s.window_s, s.alpha, s.max_windows);
        out.ring = s
            .windows
            .into_iter()
            .map(|w| WindowStats {
                index: w.index,
                count: w.count,
                sum: w.sum,
                sketch: QuantileSketch::from_state(w.sketch),
            })
            .collect();
        out.evicted_count = s.evicted_count;
        out.evicted_sum = s.evicted_sum;
        out
    }
}

/// Checkpoint form of one retained window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowState {
    /// Window index.
    pub index: u64,
    /// Observations in the window.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// The window's sketch state.
    pub sketch: SketchState,
}

/// Checkpoint form of a whole [`WindowedSeries`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesState {
    /// Window length, virtual seconds.
    pub window_s: f64,
    /// Sketch relative accuracy α.
    pub alpha: f64,
    /// Ring capacity.
    pub max_windows: usize,
    /// Retained windows, oldest first.
    pub windows: Vec<WindowState>,
    /// Evicted-window conservation count.
    pub evicted_count: u64,
    /// Evicted-window conservation sum.
    pub evicted_sum: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Observations ever (retained + evicted): the conservation total.
    fn total_count(s: &WindowedSeries) -> u64 {
        s.evicted_count + s.ring.iter().map(|w| w.count).sum::<u64>()
    }

    /// Observed sum ever (retained + evicted).
    fn total_sum(s: &WindowedSeries) -> f64 {
        s.evicted_sum + s.ring.iter().map(|w| w.sum).sum::<f64>()
    }

    /// `v` observed at virtual time `t`, as the serving plane does it:
    /// advance to `t`, then observe into the current window.
    fn observe_at(s: &mut WindowedSeries, t: f64, v: f64) {
        s.advance_to(t);
        s.observe_current_keyed(v, QuantileSketch::new(s.alpha).key_for(v));
    }

    #[test]
    fn tumbling_windows_partition_by_time() {
        let mut s = WindowedSeries::new(1.0, 0.01, 8);
        observe_at(&mut s, 0.1, 1.0);
        observe_at(&mut s, 0.9, 2.0);
        observe_at(&mut s, 1.5, 3.0);
        observe_at(&mut s, 3.2, 4.0);
        let idx: Vec<u64> = s.windows().map(|w| w.index).collect();
        assert_eq!(idx, [0, 1, 3]);
        let counts: Vec<u64> = s.windows().map(|w| w.count).collect();
        assert_eq!(counts, [2, 1, 1]);
        assert_eq!(total_count(&s), 4);
        assert_eq!(total_sum(&s), 10.0);
    }

    #[test]
    fn eviction_conserves_totals() {
        let mut s = WindowedSeries::new(1.0, 0.01, 4);
        for i in 0..100 {
            observe_at(&mut s, f64::from(i), 1.0);
        }
        assert_eq!(s.ring.len(), 4);
        assert_eq!(total_count(&s), 100);
        assert_eq!(total_sum(&s), 100.0);
    }

    #[test]
    fn advance_creates_empty_windows() {
        let mut s = WindowedSeries::new(2.0, 0.01, 8);
        observe_at(&mut s, 0.5, 1.0);
        s.advance_to(9.0);
        assert_eq!(s.ring.back().map(|w| (w.index, w.count)), Some((4, 0)));
        assert_eq!(total_count(&s), 1);
    }
}
