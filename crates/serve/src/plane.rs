//! The streaming observability plane: per-window aggregates, an SLO
//! burn-rate monitor, and per-group energy attribution for the serving
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
//! fast window (last [`fast and slow window counts`](crate::ServeConfig))
//! and the slow window burn above the threshold, and clears when the fast
//! burn drops below the exit level. Shed requests are deliberately *not*
//! breaches — counting them would hold shed mode on forever. Transitions
//! emit `slo.burn` / `slo.burn.clear` instants the controller's shed
//! policy consumes instead of its raw per-tick p95 threshold.
//!
//! # Energy attribution
//!
//! Two parallel books, both fed from the controller's single
//! advance-then-mutate integration point:
//!
//! - *window* energy (all joules, by group) — per-window power, J/request
//!   and EP index; joules land in the window being integrated when the
//!   deposit happens, accurate to one event inter-arrival;
//! - the run-level [`EnergyLedger`] — joules by `(group, outcome)`, where
//!   a request's busy energy is attributed once its fate is known
//!   (completed / retried / shed) and powered-but-idle energy is charged
//!   to [`EnergyOutcome::Idle`] as it accrues.

use std::collections::VecDeque;

use enprop_obs::{
    EnergyLedger, EnergyOutcome, LedgerState, QuantileSketch, Recorder, SeriesState, Track,
    WindowedSeries,
};

/// Error budget fraction for a p95 objective: 5 % of requests may breach.
pub const P95_ERROR_BUDGET: f64 = 0.05;

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

    /// Total joules across groups.
    pub fn energy_j(&self) -> f64 {
        self.groups.iter().map(|g| g.energy_j).sum()
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

/// Per-group in-progress accumulators for the current window. Indexed by
/// group in a flat `Vec` (the energy-deposit path runs on every node
/// advance — a map lookup there is measurable); ledger charges are
/// batched here and flushed once per window close for the same reason.
#[derive(Debug, Clone, Copy, Default)]
struct GroupAcc {
    energy_j: f64,
    ideal_j: f64,
    /// Joules per [`EnergyOutcome`], indexed by [`outcome_idx`].
    outcome_j: [f64; 4],
    completions: u64,
}

impl GroupAcc {
    fn is_empty(&self) -> bool {
        self.energy_j == 0.0
            && self.ideal_j == 0.0
            && self.completions == 0
            && self.outcome_j.iter().all(|&j| j == 0.0)
    }
}

/// Checkpoint form of one in-progress `GroupAcc` (DESIGN.md §16).
#[derive(Debug, Clone, PartialEq)]
pub struct PlaneGroupState {
    /// Actual joules so far in the open window.
    pub energy_j: f64,
    /// Ideal-proportional joules so far in the open window.
    pub ideal_j: f64,
    /// Batched ledger charges per outcome slot.
    pub outcome_j: [f64; 4],
    /// Completions so far in the open window.
    pub completions: u64,
}

/// Checkpoint form of the [`ObsPlane`]: everything that mutates after
/// construction except the response series, which the snapshot writer
/// reads in place through [`ObsPlane::response_series`] and the reader
/// hands to [`ObsPlane::restore`] beside this state. Static geometry
/// (window length, burn windows, thresholds) is *not* here — the resume
/// path rebuilds the plane from the same [`crate::ServeConfig`] and then
/// replays this state onto it, so a snapshot restored against a different
/// config fails loudly on the group-count check instead of silently
/// mixing geometries.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaneState {
    /// Run-level energy ledger rows.
    pub ledger: LedgerState,
    /// Next window index to close.
    pub cur_index: u64,
    /// Arrivals in the open window.
    pub cur_arrivals: u64,
    /// Sheds in the open window.
    pub cur_shed: u64,
    /// SLO breaches in the open window.
    pub cur_breaches: u64,
    /// Per-group open-window accumulators, ascending group index.
    pub groups: Vec<PlaneGroupState>,
    /// (completions, breaches) per closed window, oldest first.
    pub burn_ring: Vec<(u64, u64)>,
    /// Is the burn alert currently firing?
    pub alert: bool,
    /// Fast burn rate as of the last close.
    pub burn_fast: f64,
    /// Slow burn rate as of the last close.
    pub burn_slow: f64,
}

/// Stable array slot for each outcome (matches [`EnergyOutcome::all`]).
fn outcome_idx(o: EnergyOutcome) -> usize {
    match o {
        EnergyOutcome::Completed => 0,
        EnergyOutcome::Retried => 1,
        EnergyOutcome::Shed => 2,
        EnergyOutcome::Idle => 3,
    }
}

/// The serving controller's streaming observability plane.
#[derive(Debug)]
pub struct ObsPlane {
    window_s: f64,
    slo_p95_s: f64,
    fast_k: usize,
    slow_k: usize,
    threshold: f64,
    exit: f64,

    /// Response times of completions, windowed on completion time.
    resp: WindowedSeries,
    /// Run-level energy attribution by (group, outcome).
    ledger: EnergyLedger,

    /// Next window to close (everything below is closed and emitted).
    cur_index: u64,
    /// End of the current window, virtual seconds (cached so the
    /// per-event [`ObsPlane::pending_close`] probe is one comparison).
    cur_end_s: f64,
    cur_arrivals: u64,
    cur_shed: u64,
    /// Completions in the current window breaching the p95 objective.
    cur_breaches: u64,
    /// One accumulator per node group (flat, hot-path indexed).
    cur_groups: Vec<GroupAcc>,

    /// (completions, breaches) of the last `slow_k` closed windows.
    burn_ring: VecDeque<(u64, u64)>,
    alert: bool,
    burn_fast: f64,
    burn_slow: f64,
}

impl ObsPlane {
    /// A plane with tumbling windows of `window_s` virtual seconds,
    /// sketches at `alpha`, retaining `max_windows` windows, tracking
    /// `n_groups` node groups, judging the `slo_p95_s` objective over
    /// `fast_k`/`slow_k`-window burn rates against `threshold` (alert)
    /// and `exit` (clear).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        window_s: f64,
        alpha: f64,
        max_windows: usize,
        n_groups: usize,
        slo_p95_s: f64,
        fast_k: u32,
        slow_k: u32,
        threshold: f64,
        exit: f64,
    ) -> Self {
        let slow_k = (slow_k.max(1)) as usize;
        let window_s = if window_s.is_finite() && window_s > 0.0 {
            window_s
        } else {
            1.0
        };
        ObsPlane {
            window_s,
            slo_p95_s,
            fast_k: (fast_k.max(1)) as usize,
            slow_k,
            threshold,
            exit,
            resp: WindowedSeries::new(window_s, alpha, max_windows.max(1)),
            ledger: EnergyLedger::new(),
            cur_index: 0,
            cur_end_s: window_s,
            cur_arrivals: 0,
            cur_shed: 0,
            cur_breaches: 0,
            cur_groups: vec![GroupAcc::default(); n_groups],
            burn_ring: VecDeque::new(),
            alert: false,
            burn_fast: 0.0,
            burn_slow: 0.0,
        }
    }

    /// The window length, virtual seconds.
    pub fn window_s(&self) -> f64 {
        self.window_s
    }

    /// The run-level energy ledger.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// The windowed response-time series (for conservation checks).
    pub fn response_series(&self) -> &WindowedSeries {
        &self.resp
    }

    /// Merged response-time sketch over the last `k` retained windows.
    pub fn merged_response_sketch(&self, k: usize) -> QuantileSketch {
        self.resp.merged_last(k)
    }

    /// Is the multi-window burn alert currently firing?
    pub fn burn_alert(&self) -> bool {
        self.alert
    }

    /// Fast-window burn rate as of the last window close.
    pub fn burn_fast(&self) -> f64 {
        self.burn_fast
    }

    /// Slow-window burn rate as of the last window close.
    pub fn burn_slow(&self) -> f64 {
        self.burn_slow
    }

    /// Snapshot every mutable field but the response series for a
    /// checkpoint (DESIGN.md §16).
    pub fn state(&self) -> PlaneState {
        PlaneState {
            ledger: self.ledger.state(),
            cur_index: self.cur_index,
            cur_arrivals: self.cur_arrivals,
            cur_shed: self.cur_shed,
            cur_breaches: self.cur_breaches,
            groups: self
                .cur_groups
                .iter()
                .map(|a| PlaneGroupState {
                    energy_j: a.energy_j,
                    ideal_j: a.ideal_j,
                    outcome_j: a.outcome_j,
                    completions: a.completions,
                })
                .collect(),
            burn_ring: self.burn_ring.iter().copied().collect(),
            alert: self.alert,
            burn_fast: self.burn_fast,
            burn_slow: self.burn_slow,
        }
    }

    /// Restore a checkpointed [`PlaneState`] and response series onto a
    /// freshly-constructed plane. The plane must have been built from the
    /// same config the snapshot was taken under; a group-count or
    /// window-length mismatch, a series whose windows do not ascend
    /// strictly up to `cur_index` (or a ledger row with an unknown outcome
    /// tag) is an error saying which, not a panic. The snapshot reader
    /// reports it against the snapshot's `plane` line.
    pub fn restore(&mut self, s: &PlaneState, resp: SeriesState) -> Result<(), String> {
        if s.groups.len() != self.cur_groups.len() {
            return Err(format!(
                "obs plane has {} groups, controller has {} — wrong cluster spec?",
                s.groups.len(),
                self.cur_groups.len()
            ));
        }
        // A different window length would re-index every window (and a
        // tiny one would make the next roll close windows without end).
        if resp.window_s != self.window_s {
            return Err(format!(
                "obs series has {} s windows, the plane has {} s — wrong obs_window_s?",
                resp.window_s, self.window_s
            ));
        }
        // One window per index, none past the open one: the checkpoint
        // encoder keys closed windows by index.
        let ascending = resp.windows.windows(2).all(|p| p[0].index < p[1].index);
        if !ascending || resp.windows.last().is_some_and(|w| w.index > s.cur_index) {
            return Err(format!(
                "obs series windows must ascend strictly up to cur_index {}",
                s.cur_index
            ));
        }
        self.ledger = EnergyLedger::from_state(&s.ledger)
            .ok_or("energy ledger has an unknown outcome tag")?;
        self.resp = WindowedSeries::from_state(resp);
        self.cur_index = s.cur_index;
        self.cur_end_s = (s.cur_index as f64 + 1.0) * self.window_s;
        self.cur_arrivals = s.cur_arrivals;
        self.cur_shed = s.cur_shed;
        self.cur_breaches = s.cur_breaches;
        for (acc, g) in self.cur_groups.iter_mut().zip(&s.groups) {
            *acc = GroupAcc {
                energy_j: g.energy_j,
                ideal_j: g.ideal_j,
                outcome_j: g.outcome_j,
                completions: g.completions,
            };
        }
        self.burn_ring = s.burn_ring.iter().copied().collect();
        self.alert = s.alert;
        self.burn_fast = s.burn_fast;
        self.burn_slow = s.burn_slow;
        Ok(())
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
    /// `energy_j` is the request's accumulated busy joules, attributed
    /// to [`EnergyOutcome::Completed`] here rather than via a second
    /// [`ObsPlane::attribute`] call — one group lookup per completion.
    pub fn on_completion(&mut self, resp_s: f64, group: u16, key: Option<i32>, energy_j: f64) {
        self.resp.observe_current_keyed(resp_s, key);
        if resp_s > self.slo_p95_s {
            self.cur_breaches += 1;
        }
        if let Some(acc) = self.cur_groups.get_mut(usize::from(group)) {
            acc.completions += 1;
            acc.outcome_j[outcome_idx(EnergyOutcome::Completed)] += energy_j;
        }
    }

    /// Deposit busy joules for `group`: window energy + ideal credit.
    /// The joules themselves reach the ledger later, when the running
    /// request's fate resolves (see [`ObsPlane::attribute`]); the ideal
    /// credit is flushed to the ledger at window close.
    pub fn busy_energy(&mut self, group: u16, joules: f64, ideal_joules: f64) {
        if let Some(acc) = self.cur_groups.get_mut(usize::from(group)) {
            acc.energy_j += joules;
            acc.ideal_j += ideal_joules;
        }
    }

    /// Deposit powered-but-idle joules for `group` (idle, stalled,
    /// crashed-but-undetected): window energy now, ledger `Idle` at the
    /// window close.
    pub fn idle_energy(&mut self, group: u16, joules: f64) {
        if let Some(acc) = self.cur_groups.get_mut(usize::from(group)) {
            acc.energy_j += joules;
            acc.outcome_j[outcome_idx(EnergyOutcome::Idle)] += joules;
        }
    }

    /// Attribute a resolved request's accumulated busy joules to its
    /// outcome. The window book already counted them; the ledger charge
    /// is batched here and flushed at the window close (this runs once
    /// per completion — a map op per request would be measurable).
    pub fn attribute(&mut self, group: u16, outcome: EnergyOutcome, joules: f64) {
        if let Some(acc) = self.cur_groups.get_mut(usize::from(group)) {
            acc.outcome_j[outcome_idx(outcome)] += joules;
        }
    }

    /// Does `t` lie past the current window (i.e. would `roll_to` close
    /// at least one window)? One comparison — probed on every event.
    pub fn pending_close(&self, t: f64) -> bool {
        t >= self.cur_end_s
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
        while self.burn_ring.len() > self.slow_k {
            self.burn_ring.pop_front();
        }
        self.burn_fast = self.burn_over(self.fast_k);
        self.burn_slow = self.burn_over(self.slow_k);
        let firing = self.burn_fast > self.threshold && self.burn_slow > self.threshold;
        if firing && !self.alert {
            self.alert = true;
            rec.instant(end_s, Track::Controller, "slo.burn", self.burn_fast);
        } else if self.alert && self.burn_fast < self.exit {
            self.alert = false;
            rec.instant(end_s, Track::Controller, "slo.burn.clear", self.burn_fast);
        }

        // Flush the batched ledger charges and build the report rows
        // (groups with no activity this window emit no row).
        let mut groups: Vec<GroupWindow> = Vec::new();
        for (gi, acc) in self.cur_groups.iter().enumerate() {
            if acc.is_empty() {
                continue;
            }
            let group = u16::try_from(gi).unwrap_or(u16::MAX);
            self.ledger.charge_ideal(group, acc.ideal_j);
            for o in EnergyOutcome::all() {
                self.ledger.charge(group, o, acc.outcome_j[outcome_idx(o)]);
            }
            self.ledger.complete_requests(group, acc.completions);
            groups.push(GroupWindow {
                group,
                energy_j: acc.energy_j,
                ideal_j: acc.ideal_j,
                completions: acc.completions,
            });
        }
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
            power_w: groups.iter().map(|g| g.energy_j).sum::<f64>() / self.window_s,
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
        self.cur_groups.fill(GroupAcc::default());
        // Keep the response ring's current window aligned so empty
        // windows read rate 0 instead of reusing stale stats.
        self.resp
            .advance_to(self.cur_index as f64 * self.window_s + self.window_s * 0.5);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enprop_obs::{MemoryRecorder, NoopRecorder, WindowState, WindowStats};

    fn plane() -> ObsPlane {
        // 1 s windows, α = 1 %, 0.1 s SLO, fast 1 / slow 3, alert > 2, exit < 1.
        ObsPlane::new(1.0, 0.01, 64, 4, 0.1, 1, 3, 2.0, 1.0)
    }

    /// Complete a request in the plane's current window, keying the
    /// response the way the controller does.
    fn complete(p: &mut ObsPlane, resp_s: f64, group: u16) {
        let key = enprop_obs::QuantileSketch::new(0.01).key_for(resp_s);
        p.on_completion(resp_s, group, key, 0.0);
    }

    /// The plane's response series in checkpoint form, as the snapshot
    /// reader rebuilds it.
    fn series_state(p: &ObsPlane) -> SeriesState {
        let s = p.response_series();
        SeriesState {
            window_s: s.window_s(),
            alpha: s.alpha(),
            max_windows: s.max_windows(),
            windows: s
                .windows()
                .map(|w| WindowState {
                    index: w.index,
                    count: w.count,
                    sum: w.sum,
                    sketch: w.sketch.state(),
                })
                .collect(),
            evicted_count: s.evicted_count(),
            evicted_sum: s.evicted_sum(),
        }
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
        assert!((r.groups[0].ep() - 1.0).abs() < 1e-12, "busy group proportional");
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
        assert!(p.burn_alert(), "fast {} slow {}", p.burn_fast(), p.burn_slow());
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
            assert!(r.p99_s.is_nan());
        }
    }

    /// A plane checkpointed mid-window and restored onto a fresh plane
    /// must close its remaining windows identically to the original —
    /// same reports, same burn transitions, same ledger totals.
    #[test]
    fn state_roundtrip_preserves_future_window_closes() {
        let mut a = plane();
        for _ in 0..30 {
            complete(&mut a, 0.5, 0); // all breach the 0.1 s SLO
        }
        a.busy_energy(0, 40.0, 30.0);
        a.idle_energy(1, 5.0);
        a.on_arrival();
        a.on_shed();
        a.roll_to(1.2, &mut NoopRecorder, &mut |_| {});
        // Mid-window-1 activity, then checkpoint.
        complete(&mut a, 0.02, 1);
        a.busy_energy(1, 3.0, 3.0);
        let (snap, series) = (a.state(), series_state(&a));

        let mut b = plane();
        b.restore(&snap, series.clone()).expect("restore");
        assert_eq!(b.state(), snap, "state → restore → state is identity");
        assert_eq!(series_state(&b), series);

        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        let mut rec_a = MemoryRecorder::new();
        let mut rec_b = MemoryRecorder::new();
        for p in [(&mut a, &mut ra, &mut rec_a), (&mut b, &mut rb, &mut rec_b)] {
            let (plane, out, rec) = p;
            complete(plane, 0.03, 0);
            plane.roll_to(3.0, rec, &mut |r| out.push(r.clone()));
        }
        // Debug text: drained-window quantiles are NaN, which Vec equality
        // would reject even when bit-for-bit identical runs produced them.
        assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
        assert_eq!(rec_a.events(), rec_b.events());
        assert_eq!(a.ledger(), b.ledger());
        assert_eq!(a.burn_alert(), b.burn_alert());
    }

    #[test]
    fn restore_rejects_group_count_mismatch() {
        let p = plane();
        let mut wrong = ObsPlane::new(1.0, 0.01, 64, 2, 0.1, 1, 3, 2.0, 1.0);
        assert!(wrong.restore(&p.state(), series_state(&p)).is_err());
    }

    /// The series ring must ascend strictly and end at or before the open
    /// window: a duplicated, reordered or future window is refused.
    #[test]
    fn restore_rejects_windows_out_of_order() {
        let mut a = plane();
        complete(&mut a, 0.05, 0);
        a.roll_to(2.5, &mut NoopRecorder, &mut |_| {});
        let (snap, good) = (a.state(), series_state(&a));
        assert!(plane().restore(&snap, good.clone()).is_ok());
        let mut dup = good.clone();
        dup.windows.insert(0, dup.windows[0].clone());
        let mut swapped = good.clone();
        swapped.windows.swap(0, 1);
        let mut future = good;
        future.windows.last_mut().unwrap().index = snap.cur_index + 1;
        for bad in [dup, swapped, future] {
            let err = plane().restore(&snap, bad).unwrap_err();
            assert!(err.contains("ascend strictly"), "{err}");
        }
    }

    /// The checkpoint encoder's contract: once a roll has closed a window,
    /// the window never changes while the ring retains it — later
    /// completions and rolls touch only the newest window.
    #[test]
    fn closed_windows_never_change() {
        let mut p = ObsPlane::new(1.0, 0.01, 5, 2, 0.1, 1, 3, 2.0, 1.0);
        let mut closed: Vec<WindowStats> = Vec::new();
        for step in 0..12_u32 {
            for k in 0..=(step % 4) {
                complete(&mut p, 0.01 * f64::from(step + k + 1), u16::from(k % 2 == 1));
            }
            let t = f64::from(step) * 0.75 + 0.5;
            p.roll_to(t, &mut NoopRecorder, &mut |_| {});
            for w in p.response_series().windows() {
                if let Some(before) = closed.iter().find(|c| c.index == w.index) {
                    assert_eq!(before, w, "closed window {} changed", w.index);
                }
            }
            let newly_closed: Vec<WindowStats> = p
                .response_series()
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
