//! The streaming observability plane: per-window aggregates, an SLO
//! burn-rate monitor, and per-group window energy for the serving
//! controller (DESIGN.md §14).
//!
//! The controller feeds every completion, shed decision and integrated
//! joule into an [`ObsPlane`]; the plane tumbles windows on **virtual
//! time** and, at each window close, emits one [`WindowReport`] — the row
//! `enprop obs report` and `--live-report` print — plus `win.*` gauges on
//! [`Track::Controller`] and per-group `win.group.*` gauges on
//! [`Track::Group`]. Memory is O(windows × sketch buckets): nothing in
//! here grows with the request count.
//!
//! # Burn-rate monitor
//!
//! Prometheus-style multi-window alerting on the p95 SLO: a completion
//! *breaches* when its response time exceeds the objective; the error
//! budget for a p95 objective is 5 % of completions, so
//! `burn = breach_fraction / 0.05`. The monitor alerts when **both** the
//! fast window (the last [`BURN_FAST_WINDOWS`] closed windows) and the
//! slow window (the last [`BURN_SLOW_WINDOWS`]) burn above
//! [`BURN_THRESHOLD`], and clears when the fast burn drops below
//! [`BURN_EXIT`]. Shed requests are deliberately *not*
//! breaches — counting them would hold shed mode on forever. Transitions
//! emit `slo.burn` / `slo.burn.clear` instants the controller's shed
//! policy consumes instead of its raw per-tick p95 threshold.
//!
//! # Window energy
//!
//! One energy book, fed from the controller's single advance-then-mutate
//! integration point: all joules by group, per window — the window's
//! power, J/request and EP index. Joules land in the window being
//! integrated when the deposit happens, accurate to one event
//! inter-arrival.

use std::collections::VecDeque;

use enprop_obs::{Recorder, Track, WindowedSeries};

/// Error budget fraction for a p95 objective: 5 % of requests may breach.
pub const P95_ERROR_BUDGET: f64 = 0.05;
/// Fast burn window, in closed plane windows (Prometheus-style
/// multi-window alerting; see DESIGN.md §14).
pub const BURN_FAST_WINDOWS: usize = 1;
/// Slow burn window, in closed plane windows.
pub const BURN_SLOW_WINDOWS: usize = 12;
/// Burn rate above which (in both windows) the SLO alert fires and shed
/// mode may engage.
pub const BURN_THRESHOLD: f64 = 2.0;
/// Fast-window burn rate below which the alert clears and shed mode exits.
pub const BURN_EXIT: f64 = 1.0;

/// Per-group slice of one closed window.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupWindow {
    /// Node-group index.
    pub group: u16,
    /// Actual joules integrated for this group in the window.
    pub energy_j: f64,
    /// Ideal-proportional joules (busy time × peak busy power).
    pub ideal_j: f64,
    /// Requests completed on this group's nodes in the window.
    pub completions: u64,
}

impl GroupWindow {
    /// Joules per completed request (0 when none completed).
    pub fn j_per_req(&self) -> f64 {
        if self.completions == 0 {
            0.0
        } else {
            self.energy_j / self.completions as f64
        }
    }

    /// Window EP index: `1 − (E_actual − E_ideal) / E_ideal` (1 when the
    /// group was fully parked, 0 when it burned energy doing nothing).
    pub fn ep(&self) -> f64 {
        if self.ideal_j <= 0.0 {
            return if self.energy_j <= 0.0 { 1.0 } else { 0.0 };
        }
        1.0 - (self.energy_j - self.ideal_j) / self.ideal_j
    }
}

/// One closed window of the serving plane — the row `obs report` prints.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// Window index (`floor(t / window_s)`).
    pub index: u64,
    /// Window end, virtual seconds.
    pub end_s: f64,
    /// Window length, virtual seconds.
    pub window_s: f64,
    /// Arrivals in the window.
    pub arrivals: u64,
    /// Completions in the window.
    pub completions: u64,
    /// Requests shed in the window.
    pub shed: u64,
    /// Median response time of the window's completions (NaN when empty).
    pub p50_s: f64,
    /// 99th-percentile response time (NaN when empty).
    pub p99_s: f64,
    /// 99.9th-percentile response time (NaN when empty).
    pub p999_s: f64,
    /// Mean cluster power over the window, watts.
    pub power_w: f64,
    /// Fast-window SLO burn rate (1 = spending budget exactly on pace).
    pub burn_fast: f64,
    /// Slow-window SLO burn rate.
    pub burn_slow: f64,
    /// Per-group energy slices, ascending group index.
    pub groups: Vec<GroupWindow>,
}

impl WindowReport {
    /// Completions per second.
    pub fn req_per_s(&self) -> f64 {
        self.completions as f64 / self.window_s
    }

    /// Total joules across groups. Summed from +0.0: an empty float
    /// `sum()` is −0.0, which a fully dark window would print as `-0`.
    pub fn energy_j(&self) -> f64 {
        self.groups.iter().fold(0.0, |j, g| j + g.energy_j)
    }

    /// Cluster-wide joules per completed request (0 when none completed).
    pub fn j_per_req(&self) -> f64 {
        if self.completions == 0 {
            0.0
        } else {
            self.energy_j() / self.completions as f64
        }
    }

    /// Cluster-wide window EP index.
    pub fn ep(&self) -> f64 {
        let ideal: f64 = self.groups.iter().map(|g| g.ideal_j).sum();
        let actual = self.energy_j();
        if ideal <= 0.0 {
            return if actual <= 0.0 { 1.0 } else { 0.0 };
        }
        1.0 - (actual - ideal) / ideal
    }

    /// Header matching [`WindowReport::row`] (the `obs report` /
    /// `--live-report` table format).
    pub fn header() -> &'static str {
        "window   t_end_s    req_per_s    p50_s     p99_s    p999_s   power_w   j_per_req        ep  burn_fast  burn_slow"
    }

    /// One fixed-width table row.
    pub fn row(&self) -> String {
        format!(
            "{:>6} {:>9.1} {:>12.1} {:>8.4} {:>9.4} {:>9.4} {:>9.1} {:>11.4} {:>9.3} {:>10.2} {:>10.2}",
            self.index,
            self.end_s,
            self.req_per_s(),
            self.p50_s,
            self.p99_s,
            self.p999_s,
            self.power_w,
            self.j_per_req(),
            self.ep(),
            self.burn_fast,
            self.burn_slow,
        )
    }
}

/// One group's accumulators for the open window, and their checkpoint
/// form (DESIGN.md §16). The plane keeps one per group in a flat `Vec`
/// (every completion updates one — a map lookup there is measurable).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlaneGroupState {
    /// Actual joules so far in the open window.
    pub energy_j: f64,
    /// Ideal-proportional joules so far in the open window.
    pub ideal_j: f64,
    /// Completions so far in the open window.
    pub completions: u64,
}

impl PlaneGroupState {
    fn is_empty(&self) -> bool {
        self.energy_j == 0.0 && self.ideal_j == 0.0 && self.completions == 0
    }
}

/// The serving controller's streaming observability plane. The snapshot
/// walks its fields in place (DESIGN.md §16): the static geometry is
/// rebuilt from the same [`crate::ServeConfig`], everything else is
/// checkpointed.
#[derive(Debug)]
pub struct ObsPlane {
    pub(crate) window_s: f64,
    pub(crate) slo_p95_s: f64,

    /// Response times of completions, windowed on completion time.
    pub(crate) resp: WindowedSeries,

    /// Next window to close (everything below is closed and emitted).
    pub(crate) cur_index: u64,
    /// End of the current window, virtual seconds (cached for
    /// [`ObsPlane::next_close_s`]).
    pub(crate) cur_end_s: f64,
    pub(crate) cur_arrivals: u64,
    pub(crate) cur_shed: u64,
    /// Completions in the current window breaching the p95 objective.
    pub(crate) cur_breaches: u64,
    /// One accumulator per node group (flat, hot-path indexed).
    pub(crate) cur_groups: Vec<PlaneGroupState>,

    /// (completions, breaches) of the last [`BURN_SLOW_WINDOWS`] closed
    /// windows.
    pub(crate) burn_ring: VecDeque<(u64, u64)>,
    pub(crate) alert: bool,
    pub(crate) burn_fast: f64,
    pub(crate) burn_slow: f64,
}

impl ObsPlane {
    /// A plane with tumbling windows of `window_s` virtual seconds,
    /// sketches at `alpha`, retaining `max_windows` windows, tracking
    /// `n_groups` node groups and judging the `slo_p95_s` objective.
    pub fn new(
        window_s: f64,
        alpha: f64,
        max_windows: usize,
        n_groups: usize,
        slo_p95_s: f64,
    ) -> Self {
        let window_s = if window_s.is_finite() && window_s > 0.0 {
            window_s
        } else {
            1.0
        };
        ObsPlane {
            window_s,
            slo_p95_s,
            resp: WindowedSeries::new(window_s, alpha, max_windows.max(1)),
            cur_index: 0,
            cur_end_s: window_s,
            cur_arrivals: 0,
            cur_shed: 0,
            cur_breaches: 0,
            cur_groups: vec![PlaneGroupState::default(); n_groups],
            burn_ring: VecDeque::new(),
            alert: false,
            burn_fast: 0.0,
            burn_slow: 0.0,
        }
    }

    /// Is the multi-window burn alert currently firing?
    pub fn burn_alert(&self) -> bool {
        self.alert
    }

    /// Fast-window burn rate as of the last window close.
    pub fn burn_fast(&self) -> f64 {
        self.burn_fast
    }

    /// Record an arrival in the current window.
    pub fn on_arrival(&mut self) {
        self.cur_arrivals += 1;
    }

    /// Record a shed request in the current window.
    pub fn on_shed(&mut self) {
        self.cur_shed += 1;
    }

    /// Record a completion on `group`. `key` is the response's sketch
    /// key, precomputed once by the controller with
    /// [`QuantileSketch::key_for`](enprop_obs::QuantileSketch::key_for)
    /// on an equal-`alpha` sketch — the plane rolls windows before every
    /// event, so the completion always lands in the current window and
    /// no index arithmetic or logarithm is needed here.
    pub fn on_completion(&mut self, resp_s: f64, group: u16, key: Option<i32>) {
        self.resp.observe_current_keyed(resp_s, key);
        if resp_s > self.slo_p95_s {
            self.cur_breaches += 1;
        }
        if let Some(acc) = self.cur_groups.get_mut(usize::from(group)) {
            acc.completions += 1;
        }
    }

    /// Deposit busy joules for `group`: window energy + ideal credit.
    pub fn busy_energy(&mut self, group: u16, joules: f64, ideal_joules: f64) {
        if let Some(acc) = self.cur_groups.get_mut(usize::from(group)) {
            acc.energy_j += joules;
            acc.ideal_j += ideal_joules;
        }
    }

    /// Deposit powered-but-idle joules for `group` (idle, stalled,
    /// crashed-but-undetected).
    pub fn idle_energy(&mut self, group: u16, joules: f64) {
        if let Some(acc) = self.cur_groups.get_mut(usize::from(group)) {
            acc.energy_j += joules;
        }
    }

    /// Virtual end time of the current window — the next time at which
    /// [`ObsPlane::roll_to`] would close a window. The controller caches
    /// this so its per-event roll guard is one float compare.
    pub fn next_close_s(&self) -> f64 {
        self.cur_end_s
    }

    /// Close every window that ends at or before `t`: compute its
    /// [`WindowReport`], update the burn monitor, emit `win.*` gauges and
    /// `slo.burn` transition instants, and hand the report to `live`.
    pub fn roll_to<R: Recorder>(
        &mut self,
        t: f64,
        rec: &mut R,
        live: &mut dyn FnMut(&WindowReport),
    ) {
        let target = self.resp.index_of(t);
        while self.cur_index < target {
            self.close_window(rec, live);
        }
    }

    /// Close the current (possibly partial) window at shutdown.
    pub fn finish<R: Recorder>(&mut self, rec: &mut R, live: &mut dyn FnMut(&WindowReport)) {
        self.close_window(rec, live);
    }

    fn burn_over(&self, k: usize) -> f64 {
        let take = k.min(self.burn_ring.len());
        let (mut comp, mut breach) = (0u64, 0u64);
        for &(c, b) in self.burn_ring.iter().rev().take(take) {
            comp += c;
            breach += b;
        }
        if comp == 0 {
            0.0
        } else {
            (breach as f64 / comp as f64) / P95_ERROR_BUDGET
        }
    }

    fn close_window<R: Recorder>(&mut self, rec: &mut R, live: &mut dyn FnMut(&WindowReport)) {
        let index = self.cur_index;
        let end_s = (index as f64 + 1.0) * self.window_s;

        // Latency stats for this window from the windowed series.
        let win = self.resp.windows().find(|w| w.index == index);
        let completions = win.map_or(0, |w| w.count);
        let (p50, p99, p999) = win.map_or((f64::NAN, f64::NAN, f64::NAN), |w| {
            (
                w.sketch.quantile(0.50).unwrap_or(f64::NAN),
                w.sketch.quantile(0.99).unwrap_or(f64::NAN),
                w.sketch.quantile(0.999).unwrap_or(f64::NAN),
            )
        });

        // Burn monitor: push this window, recompute, fire transitions.
        self.burn_ring.push_back((completions, self.cur_breaches));
        while self.burn_ring.len() > BURN_SLOW_WINDOWS {
            self.burn_ring.pop_front();
        }
        self.burn_fast = self.burn_over(BURN_FAST_WINDOWS);
        self.burn_slow = self.burn_over(BURN_SLOW_WINDOWS);
        let firing = self.burn_fast > BURN_THRESHOLD && self.burn_slow > BURN_THRESHOLD;
        if firing && !self.alert {
            self.alert = true;
            rec.instant(end_s, Track::Controller, "slo.burn", self.burn_fast);
        } else if self.alert && self.burn_fast < BURN_EXIT {
            self.alert = false;
            rec.instant(end_s, Track::Controller, "slo.burn.clear", self.burn_fast);
        }

        // The report rows (groups with no activity this window emit none).
        let groups: Vec<GroupWindow> = self
            .cur_groups
            .iter()
            .enumerate()
            .filter(|(_, acc)| !acc.is_empty())
            .map(|(gi, acc)| GroupWindow {
                group: u16::try_from(gi).unwrap_or(u16::MAX),
                energy_j: acc.energy_j,
                ideal_j: acc.ideal_j,
                completions: acc.completions,
            })
            .collect();
        let report = WindowReport {
            index,
            end_s,
            window_s: self.window_s,
            arrivals: self.cur_arrivals,
            completions,
            shed: self.cur_shed,
            p50_s: p50,
            p99_s: p99,
            p999_s: p999,
            power_w: groups.iter().fold(0.0, |j, g| j + g.energy_j) / self.window_s,
            burn_fast: self.burn_fast,
            burn_slow: self.burn_slow,
            groups,
        };

        // Undefined aggregates (quantiles of an empty window, J/req with no
        // completions) are NaN; a NaN gauge would break the bit-identical
        // determinism contract (`NaN != NaN` under `PartialEq`), so only
        // finite values are exported. The `WindowReport` keeps the NaN.
        let mut finite_gauge = |name: &'static str, v: f64| {
            if v.is_finite() {
                rec.gauge(end_s, Track::Controller, name, v);
            }
        };
        finite_gauge("win.req_per_s", report.req_per_s());
        finite_gauge("win.p50_s", report.p50_s);
        finite_gauge("win.p99_s", report.p99_s);
        finite_gauge("win.p999_s", report.p999_s);
        finite_gauge("win.power_w", report.power_w);
        finite_gauge("win.j_per_req", report.j_per_req());
        finite_gauge("win.ep", report.ep());
        finite_gauge("win.burn_fast", report.burn_fast);
        finite_gauge("win.burn_slow", report.burn_slow);
        for g in &report.groups {
            let track = Track::Group { group: g.group };
            for (name, v) in [
                ("win.group.energy_j", g.energy_j),
                ("win.group.j_per_req", g.j_per_req()),
                ("win.group.ep", g.ep()),
            ] {
                if v.is_finite() {
                    rec.gauge(end_s, track, name, v);
                }
            }
        }
        live(&report);

        // Reset per-window accumulators in place. Saturating: a restored
        // clock may sit at the last representable window index.
        self.cur_index = self.cur_index.saturating_add(1);
        self.cur_end_s = (self.cur_index as f64 + 1.0) * self.window_s;
        self.cur_arrivals = 0;
        self.cur_shed = 0;
        self.cur_breaches = 0;
        self.cur_groups.fill(PlaneGroupState::default());
        // Keep the response ring's current window aligned so empty
        // windows read rate 0 instead of reusing stale stats.
        self.resp
            .advance_to(self.cur_index as f64 * self.window_s + self.window_s * 0.5);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enprop_obs::{MemoryRecorder, NoopRecorder, WindowStats};

    fn plane() -> ObsPlane {
        // 1 s windows, α = 1 %, 4 groups, 0.1 s SLO. The burn constants
        // judge fast 1 / slow 12 windows, alert > 2, exit < 1: with one
        // closed window the slow view equals the fast one.
        ObsPlane::new(1.0, 0.01, 64, 4, 0.1)
    }

    /// Complete a request in the plane's current window, keying the
    /// response the way the controller does.
    fn complete(p: &mut ObsPlane, resp_s: f64, group: u16) {
        let key = enprop_obs::QuantileSketch::new(0.01).key_for(resp_s);
        p.on_completion(resp_s, group, key);
    }

    #[test]
    fn windows_close_in_order_with_reports() {
        let mut p = plane();
        let mut seen: Vec<u64> = Vec::new();
        complete(&mut p, 0.05, 0);
        p.busy_energy(0, 10.0, 8.0);
        p.roll_to(2.5, &mut NoopRecorder, &mut |r| seen.push(r.index));
        assert_eq!(seen, [0, 1]);
    }

    #[test]
    fn report_carries_group_energy_and_ep() {
        let mut p = plane();
        for _ in 0..100 {
            complete(&mut p, 0.05, 0);
        }
        p.busy_energy(0, 80.0, 80.0);
        p.idle_energy(1, 20.0);
        let mut reports = Vec::new();
        p.roll_to(1.0, &mut NoopRecorder, &mut |r| reports.push(r.clone()));
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.completions, 100);
        assert_eq!(r.req_per_s(), 100.0);
        assert_eq!(r.energy_j(), 100.0);
        assert_eq!(r.j_per_req(), 1.0);
        assert_eq!(r.groups.len(), 2);
        assert!(
            (r.groups[0].ep() - 1.0).abs() < 1e-12,
            "busy group proportional"
        );
        assert_eq!(r.groups[1].ep(), 0.0, "idle-only group");
        assert!(r.p50_s > 0.0 && r.p999_s > 0.0);
    }

    #[test]
    fn burn_alert_fires_and_clears_with_instants() {
        let mut p = plane();
        let mut rec = MemoryRecorder::new();
        // Window 0: every completion breaches the 0.1 s SLO → burn 20.
        for _ in 0..50 {
            complete(&mut p, 0.5, 0);
        }
        p.roll_to(1.1, &mut rec, &mut |_| {});
        assert!(
            p.burn_alert(),
            "fast {} slow {}",
            p.burn_fast(),
            p.burn_slow
        );
        assert!(p.burn_fast() > 19.0);
        // Two healthy windows: fast burn falls to 0 → clears.
        for _ in 0..50 {
            complete(&mut p, 0.01, 0);
        }
        p.roll_to(3.0, &mut rec, &mut |_| {});
        assert!(!p.burn_alert());
        let names: Vec<&str> = rec
            .events()
            .iter()
            .filter(|e| e.name.starts_with("slo.burn"))
            .map(|e| e.name)
            .collect();
        assert_eq!(names, ["slo.burn", "slo.burn.clear"]);
    }

    #[test]
    fn shed_requests_are_not_breaches() {
        let mut p = plane();
        for _ in 0..1000 {
            p.on_shed();
        }
        complete(&mut p, 0.01, 0);
        p.roll_to(1.5, &mut NoopRecorder, &mut |_| {});
        assert_eq!(p.burn_fast(), 0.0, "shedding alone must not burn budget");
        assert!(!p.burn_alert());
    }

    #[test]
    fn empty_windows_emit_zero_rate_rows() {
        let mut p = plane();
        complete(&mut p, 0.01, 0);
        let mut reports = Vec::new();
        p.roll_to(4.0, &mut NoopRecorder, &mut |r| reports.push(r.clone()));
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0].completions, 1);
        for r in &reports[1..] {
            assert_eq!(r.completions, 0);
            assert_eq!(r.req_per_s(), 0.0);
            assert_eq!(r.power_w.to_bits(), 0, "a dark window draws +0 W, not -0");
            assert!(r.p99_s.is_nan());
        }
    }

    /// The checkpoint encoder's contract: once a roll has closed a window,
    /// the window never changes while the ring retains it — later
    /// completions and rolls touch only the newest window.
    #[test]
    fn closed_windows_never_change() {
        let mut p = ObsPlane::new(1.0, 0.01, 5, 2, 0.1);
        let mut closed: Vec<WindowStats> = Vec::new();
        for step in 0..12_u32 {
            for k in 0..=(step % 4) {
                complete(
                    &mut p,
                    0.01 * f64::from(step + k + 1),
                    u16::from(k % 2 == 1),
                );
            }
            let t = f64::from(step) * 0.75 + 0.5;
            p.roll_to(t, &mut NoopRecorder, &mut |_| {});
            for w in p.resp.windows() {
                if let Some(before) = closed.iter().find(|c| c.index == w.index) {
                    assert_eq!(before, w, "closed window {} changed", w.index);
                }
            }
            let newly_closed: Vec<WindowStats> = p
                .resp
                .windows()
                .filter(|w| w.index < p.cur_index && closed.iter().all(|c| c.index != w.index))
                .cloned()
                .collect();
            closed.extend(newly_closed);
        }
        assert!(p.cur_index > 6, "the ring evicted windows along the way");
    }

    #[test]
    fn window_gauges_are_emitted_per_group() {
        let mut p = plane();
        complete(&mut p, 0.05, 2);
        p.busy_energy(2, 5.0, 5.0);
        let mut rec = MemoryRecorder::new();
        p.roll_to(1.0, &mut rec, &mut |_| {});
        let group_events: Vec<_> = rec
            .events()
            .iter()
            .filter(|e| e.track == Track::Group { group: 2 })
            .map(|e| e.name)
            .collect();
        assert!(group_events.contains(&"win.group.j_per_req"));
        assert!(group_events.contains(&"win.group.ep"));
        assert!(group_events.contains(&"win.group.energy_j"));
        assert!(rec.events().iter().any(|e| e.name == "win.p999_s"));
    }
}
