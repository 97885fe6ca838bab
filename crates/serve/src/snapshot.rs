//! Crash-consistent controller snapshots (DESIGN.md §16).
//!
//! A snapshot serializes the *entire* resumable state of a running
//! [`Controller`] — the event heap (with sequence numbers), every node's
//! accounting frontier, in-flight requests, pending queue, both quantile
//! sketches, the windowed obs plane, the emergency / breaker state, all
//! counters, and the arrival source's cursor — as versioned JSONL: one
//! `{"sec":"…"}` object per line, a header first and a
//! `{"sec":"end","lines":N}` trailer last. A partially-written file
//! fails the trailer check and restores as a typed error, never as a
//! silently-wrong run. Lines read back through the workspace's one
//! flat-line reader, [`enprop_obs::Line`].
//!
//! Every `f64` travels as its IEEE-754 bit pattern (`to_bits`, printed as
//! a decimal `u64`): resume identity is *bit*-for-bit, and text floats
//! would round. Static assertions of that identity live in
//! `tests/resume_props.rs`: a run killed at any event and resumed from its
//! last checkpoint reports joule-for-joule what the uninterrupted run
//! reports.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt::Write as _;

use enprop_faults::{Domain, DomainEvent, DomainFaultKind, EnpropError, FaultKind, Topology};
use enprop_obs::{
    Line, LineError, QuantileSketch, SeriesState, SketchState, WindowState, WindowStats,
    WindowedSeries,
};

use crate::arrivals::{ArrivalSource, SourceState};
use crate::controller::{
    window_start_s, Admin, Breaker, Controller, Ev, EvKind, GroupModel, Loc, Node, Req, Running,
    DRAIN_TIMEOUT_S, HEALTH_INTERVAL_S,
};
use crate::inflight::Inflight;
use crate::plane::{ObsPlane, PlaneGroupState, PlaneState};
use crate::report::ServeReport;

/// Version tag of the snapshot format; bumped on any incompatible change.
pub const SNAPSHOT_VERSION: &str = "enprop-snapshot-v3";

// ---- serialization ---------------------------------------------------------

fn bits(v: f64) -> u64 {
    v.to_bits()
}

fn push_u64s(out: &mut String, vals: impl IntoIterator<Item = u64>) {
    out.push('[');
    for (i, v) in vals.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// The quantile-sketch fields, one key set shared by the `sketch` and
/// `series_win` sections: `"alpha","maxb","lowc","scount","ssum","smin",
/// "smax","buckets"` (the `s` prefix keeps them clear of `series_win`'s
/// own `count` and `sum`).
fn push_sketch(out: &mut String, s: &SketchState) {
    let SketchState { alpha, max_buckets, buckets, low, count, sum, min, max } = s;
    let _ = write!(
        out,
        "\"alpha\":{},\"maxb\":{max_buckets},\"lowc\":{low},\"scount\":{count},\"ssum\":{},\"smin\":{},\"smax\":{},\"buckets\":",
        bits(*alpha),
        bits(*sum),
        bits(*min),
        bits(*max),
    );
    push_u64s(out, buckets.iter().flat_map(|&(k, n)| [i64::from(k) as u64, n]));
}

fn ev_line(out: &mut String, ev: &Ev) {
    // Generic six-operand encoding: (k, a..f) with unused operands 0.
    let (k, a, b, c, d, e, f) = match ev.kind {
        EvKind::Arrival { ops, class } => (0, bits(ops), u64::from(class), 0, 0, 0, 0),
        EvKind::Completion { node, epoch } => (1, node as u64, epoch, 0, 0, 0, 0),
        EvKind::Timeout { req, dispatch } => (2, req, u64::from(dispatch), 0, 0, 0, 0),
        EvKind::Redispatch { req } => (3, req, 0, 0, 0, 0, 0),
        EvKind::Fault { node, kind } => {
            let (fk, p) = match kind {
                FaultKind::Crash => (0, 0.0),
                FaultKind::Stall { duration_s } => (1, duration_s),
                FaultKind::Straggler { slowdown } => (2, slowdown),
            };
            (4, node as u64, fk, bits(p), 0, 0, 0)
        }
        EvKind::FaultWindow { node, window } => (5, node as u64, u64::from(window), 0, 0, 0, 0),
        EvKind::StallEnd { node } => (6, node as u64, 0, 0, 0, 0, 0),
        EvKind::StragglerEnd { node } => (7, node as u64, 0, 0, 0, 0, 0),
        EvKind::Repair { node } => (8, node as u64, 0, 0, 0, 0, 0),
        EvKind::HealthCheck => (9, 0, 0, 0, 0, 0, 0),
        EvKind::ControlTick => (10, 0, 0, 0, 0, 0, 0),
        EvKind::DrainDeadline => (11, 0, 0, 0, 0, 0, 0),
        EvKind::DomainWindow { window } => (12, u64::from(window), 0, 0, 0, 0, 0),
        EvKind::DomainFault { event } => {
            let (dom, di) = match event.domain {
                Domain::Rack(r) => (0, r as u64),
                Domain::Pdu(p) => (1, p as u64),
                Domain::Cluster => (2, 0),
            };
            let (dk, p1, p2) = match event.kind {
                DomainFaultKind::RackCrash => (0, 0.0, 0.0),
                DomainFaultKind::PduLoss => (1, 0.0, 0.0),
                DomainFaultKind::NetworkPartition { duration_s } => (2, duration_s, 0.0),
                DomainFaultKind::PowerEmergency { cap_w, duration_s } => (3, cap_w, duration_s),
            };
            (13, bits(event.at_s), dom, di, dk, bits(p1), bits(p2))
        }
        EvKind::EmergencyEnd => (14, 0, 0, 0, 0, 0, 0),
    };
    let _ = writeln!(
        out,
        "{{\"sec\":\"ev\",\"t\":{},\"seq\":{},\"k\":{k},\"a\":{a},\"b\":{b},\"c\":{c},\"d\":{d},\"e\":{e},\"f\":{f}}}",
        bits(ev.t),
        ev.seq,
    );
}

/// One window's `series_win` line, newline included.
fn window_line(out: &mut String, w: &WindowStats) {
    let _ = write!(
        out,
        "{{\"sec\":\"series_win\",\"index\":{},\"count\":{},\"sum\":{},",
        w.index,
        w.count,
        bits(w.sum),
    );
    push_sketch(out, &w.sketch.state());
    out.push_str("}\n");
}

/// [`window_line`] into a fresh string: the debug self-check's reference.
fn window_text(w: &WindowStats) -> String {
    let mut text = String::new();
    window_line(&mut text, w);
    text
}

/// The checkpoint encoder: it writes a [`Controller`] (plus the just-popped
/// event and the arrival source's cursor) as the versioned JSONL snapshot
/// text. The event loop owns one for the whole run and calls it at closed
/// obs-window boundaries, after the plane roll; it is not part of the
/// controller or of the snapshot.
///
/// A closed obs window never changes again: the plane observes only into
/// its newest window. So a window's `series_win` line is encoded once, by
/// the first checkpoint after the window closed, and reused by every later
/// checkpoint until the ring evicts the window. An empty encoder is the
/// cold path and encodes every line; a resumed run starts with one. Debug
/// builds check every reused line against a fresh encoding.
#[derive(Debug, Default)]
pub(crate) struct Encoder {
    /// The snapshot text, reused across checkpoints.
    out: String,
    /// Lines written to `out` so far, for the trailer.
    lines: u64,
    /// `(window index, series_win line)` of the retained windows below the
    /// plane's `cur_index` at the last checkpoint, ascending, each line at
    /// its exact length.
    closed: VecDeque<(u64, Box<str>)>,
}

impl Encoder {
    /// End the current line: its closing brace, the newline, and one more
    /// line for the trailer to count.
    fn end(&mut self) {
        self.out.push_str("}\n");
        self.lines += 1;
    }

    /// The snapshot of `c` with `popped` and `src`; `counters` are the
    /// recorder's running totals.
    ///
    /// The state structs are destructured exhaustively, with no `..`: a
    /// state field added without snapshot coverage fails to compile here.
    /// Fields bound as `_` are static inputs the resume rebuilds, or
    /// derived values. The `ctl` keys `next_req_id`, `arrivals_done` and
    /// `drain_armed` and the `node` key `down_span` are derived too: from
    /// the arrival count, from whether an arrival is pending, and from
    /// the node's admin state. Restore checks each against its source.
    pub(crate) fn encode(
        &mut self,
        c: &Controller<'_>,
        popped: &Ev,
        src: &SourceState,
        counters: &[(&'static str, u64)],
    ) -> &str {
        let Controller {
            cfg,
            plan: _, // static input: the resume is handed the same plan
            topo: _, // static input, likewise
            groups,
            nodes,
            heap,
            next_arrival,
            seq,
            now,
            events,
            inflight,
            pending,
            shed_mode,
            shed_entries,
            cooldown,
            tick_sketch,
            window_arrival_ops,
            run_sketch,
            resp_sum,
            plane,
            plane_next_close_s: _, // derived: re-read from the restored plane
            emergency_cap_w,
            emergency_until_s,
            emergency_level,
            shed_class_floor,
            tally,
        } = c;
        self.out.clear();
        self.lines = 0;
        let has_plane = u8::from(plane.is_some());
        let _ = write!(
            self.out,
            "{{\"sec\":\"{SNAPSHOT_VERSION}\",\"seed\":{},\"groups\":{},\"nodes\":{},\"now\":{},\"seq\":{seq},\"events\":{events},\"has_plane\":{has_plane}",
            cfg.seed,
            groups.len(),
            nodes.len(),
            bits(*now),
        );
        self.end();
        // Every arrival took the next request id, and the drain deadline
        // is armed exactly when the source ran dry: when no arrival is
        // pending, beside the heap or just popped from it.
        let next_req_id = tally.arrivals;
        let pending_arrival =
            next_arrival.is_some() || matches!(popped.kind, EvKind::Arrival { .. });
        let arrivals_done = u8::from(!pending_arrival);
        let _ = write!(
            self.out,
            "{{\"sec\":\"ctl\",\"next_req_id\":{next_req_id},\"arrivals_done\":{arrivals_done},\"drain_armed\":{arrivals_done},\"shed_mode\":{},\"shed_entries\":{shed_entries},\"cooldown\":{cooldown},\"window_arrival_ops\":{},\"resp_sum\":{},\"em_cap\":{},\"em_until\":{},\"em_level\":{emergency_level},\"class_floor\":{shed_class_floor}",
            u8::from(*shed_mode),
            bits(*window_arrival_ops),
            bits(*resp_sum),
            bits(*emergency_cap_w),
            bits(*emergency_until_s),
        );
        for (name, n) in tally.counters() {
            let _ = write!(self.out, ",\"n_{name}\":{n}");
        }
        self.end();
        // Recorder-side running totals: `Recorder::counter` events carry a
        // cumulative total kept by the *sink*, so a resumed run must
        // continue those totals or its trace diverges from the
        // uninterrupted run's.
        for (name, total) in counters {
            let _ = write!(self.out, "{{\"sec\":\"cnt\",\"name\":\"{name}\",\"total\":{total}");
            self.end();
        }
        for (gi, g) in groups.iter().enumerate() {
            let GroupModel {
                rate_at: _,     // static: rebuilt from the workload and cluster
                busy_w_at: _,   // static, likewise
                idle_w: _,      // static, likewise
                peak_busy_w: _, // derived from busy_w_at
                freq_idx,
                breaker,
            } = g;
            let (brk, ba, bb) = match *breaker {
                Breaker::Closed { fails } => (0, u64::from(fails), 0),
                Breaker::Open { until_s, reopens } => (1, bits(until_s), u64::from(reopens)),
                Breaker::HalfOpen { probe, reopens } => {
                    (2, probe.map_or(0, |p| p + 1), u64::from(reopens))
                }
            };
            let _ = write!(
                self.out,
                "{{\"sec\":\"group\",\"i\":{gi},\"freq\":{freq_idx},\"brk\":{brk},\"ba\":{ba},\"bb\":{bb}",
            );
            self.end();
        }
        for (i, n) in nodes.iter().enumerate() {
            let Node {
                group: _,    // static: fixed by the cluster spec
                in_group: _, // static, likewise
                admin,
                crashed,
                unpowered,
                stalled_until,
                slowdown,
                slow_until,
                queue,
                queued_ops,
                current,
                epoch,
                acct_t,
                energy_j,
                win_busy_j,
                win_ideal_j,
                win_idle_j,
            } = n;
            // A Down node's `node.down` span is open.
            let down_span = u8::from(*admin == Admin::Down);
            let admin = match admin {
                Admin::Active => 0,
                Admin::Draining => 1,
                Admin::Deactivated => 2,
                Admin::Down => 3,
            };
            let _ = write!(
                self.out,
                "{{\"sec\":\"node\",\"i\":{i},\"admin\":{admin},\"crashed\":{},\"unpowered\":{},\"stalled_until\":{},\"slowdown\":{},\"slow_until\":{},\"queued_ops\":{},\"epoch\":{epoch},\"acct_t\":{},\"energy\":{},\"wb\":{},\"wi\":{},\"wd\":{},\"down_span\":{},\"queue\":",
                u8::from(*crashed),
                u8::from(*unpowered),
                bits(*stalled_until),
                bits(*slowdown),
                bits(*slow_until),
                bits(*queued_ops),
                bits(*acct_t),
                bits(*energy_j),
                bits(*win_busy_j),
                bits(*win_ideal_j),
                bits(*win_idle_j),
                down_span,
            );
            push_u64s(&mut self.out, queue.iter().copied());
            match current {
                None => self.out.push_str(",\"cur\":0,\"cur_req\":0,\"cur_rem\":0"),
                Some(Running { req, remaining_ops }) => {
                    let _ = write!(
                        self.out,
                        ",\"cur\":1,\"cur_req\":{req},\"cur_rem\":{}",
                        bits(*remaining_ops),
                    );
                }
            }
            self.end();
        }
        for (id, r) in inflight.iter() {
            let Req { arrived, ops, class, attempt, dispatch, loc, exclude, traced } = r;
            let (loc, loc_node) = match loc {
                Loc::Pending => (0, 0),
                Loc::Backoff => (1, 0),
                Loc::OnNode(i) => (2, *i as u64),
            };
            let _ = write!(
                self.out,
                "{{\"sec\":\"req\",\"id\":{id},\"arrived\":{},\"ops\":{},\"class\":{class},\"attempt\":{attempt},\"dispatch\":{dispatch},\"loc\":{loc},\"loc_node\":{loc_node},\"exclude\":{},\"traced\":{}",
                bits(*arrived),
                bits(*ops),
                exclude.map_or(0, |e| e as u64 + 1),
                u8::from(*traced),
            );
            self.end();
        }
        self.out.push_str("{\"sec\":\"pending\",\"ids\":");
        push_u64s(&mut self.out, pending.iter().copied());
        self.end();
        for (which, sketch) in [tick_sketch, run_sketch].into_iter().enumerate() {
            let _ = write!(self.out, "{{\"sec\":\"sketch\",\"which\":{which},");
            push_sketch(&mut self.out, &sketch.state());
            self.end();
        }
        if let Some(plane) = plane {
            self.plane(plane);
        }
        // The heap and the pending arrival in deterministic (t, seq) order,
        // plus the just-popped event — the first thing the resumed loop
        // will process.
        let mut evs: Vec<&Ev> = heap.iter().map(|Reverse(e)| e).chain(next_arrival).collect();
        evs.push(popped);
        evs.sort();
        for ev in evs {
            ev_line(&mut self.out, ev);
            self.lines += 1;
        }
        match src {
            SourceState::Synthetic { gap, size, class, t, remaining } => {
                self.out.push_str("{\"sec\":\"source\",\"kind\":0,\"g\":");
                push_u64s(&mut self.out, gap.iter().copied());
                self.out.push_str(",\"s\":");
                push_u64s(&mut self.out, size.iter().copied());
                self.out.push_str(",\"c\":");
                push_u64s(&mut self.out, class.iter().copied());
                let _ = write!(self.out, ",\"t\":{},\"remaining\":{remaining}", bits(*t));
            }
            SourceState::Replay { next } => {
                let _ = write!(self.out, "{{\"sec\":\"source\",\"kind\":1,\"next\":{next}");
            }
        }
        self.end();
        let _ = writeln!(self.out, "{{\"sec\":\"end\",\"lines\":{}}}", self.lines);
        &self.out
    }

    /// The `plane`, `plane_group`, `series` and `series_win` sections. The
    /// windows are read in place, not copied.
    fn plane(&mut self, plane: &ObsPlane) {
        let ps = plane.state();
        let _ = write!(
            self.out,
            "{{\"sec\":\"plane\",\"cur_index\":{},\"cur_arrivals\":{},\"cur_shed\":{},\"cur_breaches\":{},\"alert\":{},\"bfast\":{},\"bslow\":{},\"ring\":",
            ps.cur_index,
            ps.cur_arrivals,
            ps.cur_shed,
            ps.cur_breaches,
            u8::from(ps.alert),
            bits(ps.burn_fast),
            bits(ps.burn_slow),
        );
        push_u64s(&mut self.out, ps.burn_ring.iter().flat_map(|&(a, b)| [a, b]));
        self.end();
        for (gi, g) in ps.groups.iter().enumerate() {
            let _ = write!(
                self.out,
                "{{\"sec\":\"plane_group\",\"i\":{gi},\"energy\":{},\"ideal\":{},\"completions\":{}",
                bits(g.energy_j),
                bits(g.ideal_j),
                g.completions,
            );
            self.end();
        }
        let series = plane.response_series();
        let _ = write!(
            self.out,
            "{{\"sec\":\"series\",\"window_s\":{},\"alpha\":{},\"max_windows\":{},\"evicted_count\":{},\"evicted_sum\":{}",
            bits(series.window_s()),
            bits(series.alpha()),
            series.max_windows(),
            series.evicted_count(),
            bits(series.evicted_sum()),
        );
        self.end();
        self.series_windows(series, ps.cur_index);
    }

    /// One `series_win` line per retained window, oldest first: the open
    /// window (index `cur_index`) encoded fresh, closed ones from the cache.
    /// Restore guarantees the indices ascend strictly, so a window's index
    /// names it for as long as the ring retains it.
    fn series_windows(&mut self, series: &WindowedSeries, cur_index: u64) {
        // Windows the ring evicted since the last checkpoint leave the
        // cache too; what remains lines up with the ring's oldest windows.
        let oldest = series.windows().next().map_or(u64::MAX, |w| w.index);
        while self.closed.front().is_some_and(|&(i, _)| i < oldest) {
            self.closed.pop_front();
        }
        for (pos, w) in series.windows().enumerate() {
            if w.index >= cur_index {
                window_line(&mut self.out, w);
            } else if let Some((_, line)) = self.closed.get(pos).filter(|(i, _)| *i == w.index) {
                debug_assert_eq!(
                    **line,
                    window_text(w),
                    "obs window {} changed after a checkpoint encoded it",
                    w.index
                );
                self.out.push_str(line);
            } else {
                // Closed since the last checkpoint: encode it once.
                let start = self.out.len();
                window_line(&mut self.out, w);
                self.closed.truncate(pos);
                self.closed.push_back((w.index, self.out[start..].into()));
            }
            self.lines += 1;
        }
    }
}

// ---- parsing ---------------------------------------------------------------

/// `v` narrowed to `T`, or an error naming `what`.
fn narrow<T: TryFrom<u64>>(l: &Line<'_>, v: u64, what: &str) -> Result<T, LineError> {
    T::try_from(v).map_err(|_| l.error(format!("{what} out of range: {v}")))
}

/// `key`'s unsigned value narrowed to `T`.
fn int<T: TryFrom<u64>>(l: &Line<'_>, key: &str) -> Result<T, LineError> {
    narrow(l, l.u64(key)?, key)
}

/// `v` as an index into a collection of `len` items.
fn below(l: &Line<'_>, v: u64, len: usize, what: &str) -> Result<usize, LineError> {
    usize::try_from(v)
        .ok()
        .filter(|&i| i < len)
        .ok_or_else(|| l.error(format!("{what} {v} out of range (0..{len})")))
}

/// A 0/1 flag.
fn boolean(l: &Line<'_>, key: &str) -> Result<bool, LineError> {
    match l.u64(key)? {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(l.error(format!("{key:?} must be 0 or 1, got {v}"))),
    }
}

/// `key`'s flat array read as `N`-tuples.
fn tuples<const N: usize>(l: &Line<'_>, key: &str) -> Result<Vec<[u64; N]>, LineError> {
    let flat = l.u64s(key)?;
    if flat.len() % N != 0 {
        return Err(
            l.error(format!("{key:?} array length {} is not a multiple of {N}", flat.len()))
        );
    }
    Ok(flat.chunks_exact(N).map(|c| std::array::from_fn(|i| c[i])).collect())
}

fn sketch_of(l: &Line<'_>) -> Result<SketchState, LineError> {
    let buckets = tuples::<2>(l, "buckets")?
        .into_iter()
        .map(|[k, n]| {
            let k = i32::try_from(k as i64).map_err(|_| l.error("bucket key out of i32 range"))?;
            Ok((k, n))
        })
        .collect::<Result<Vec<_>, LineError>>()?;
    Ok(SketchState {
        alpha: l.f64_bits("alpha")?,
        max_buckets: int(l, "maxb")?,
        buckets,
        low: l.u64("lowc")?,
        count: l.u64("scount")?,
        sum: l.f64_bits("ssum")?,
        min: l.f64_bits("smin")?,
        max: l.f64_bits("smax")?,
    })
}

/// One `ev` line, its node indices checked against `nodes` and its
/// rack/PDU indices against `topo` (no topology: none is valid).
fn ev_of(l: &Line<'_>, nodes: usize, topo: Option<&Topology>) -> Result<Ev, LineError> {
    let (a, b) = (l.u64("a")?, l.u64("b")?);
    let node = || below(l, a, nodes, "event node");
    let kind = match l.u64("k")? {
        0 => EvKind::Arrival { ops: f64::from_bits(a), class: narrow(l, b, "class")? },
        1 => EvKind::Completion { node: node()?, epoch: b },
        2 => EvKind::Timeout { req: a, dispatch: narrow(l, b, "dispatch")? },
        3 => EvKind::Redispatch { req: a },
        4 => {
            let p = l.f64_bits("c")?;
            let kind = match b {
                0 => FaultKind::Crash,
                1 => FaultKind::Stall { duration_s: p },
                2 => FaultKind::Straggler { slowdown: p },
                other => return Err(l.error(format!("unknown fault kind {other}"))),
            };
            EvKind::Fault { node: node()?, kind }
        }
        5 => EvKind::FaultWindow { node: node()?, window: narrow(l, b, "window")? },
        6 => EvKind::StallEnd { node: node()? },
        7 => EvKind::StragglerEnd { node: node()? },
        8 => EvKind::Repair { node: node()? },
        9 => EvKind::HealthCheck,
        10 => EvKind::ControlTick,
        11 => EvKind::DrainDeadline,
        12 => EvKind::DomainWindow { window: narrow(l, a, "window")? },
        13 => {
            let (di, p1, p2) = (l.u64("c")?, l.f64_bits("e")?, l.f64_bits("f")?);
            let domain = match b {
                0 => Domain::Rack(below(l, di, topo.map_or(0, Topology::racks), "rack")?),
                1 => Domain::Pdu(below(l, di, topo.map_or(0, Topology::pdus), "pdu")?),
                2 => Domain::Cluster,
                other => return Err(l.error(format!("unknown domain tag {other}"))),
            };
            let kind = match l.u64("d")? {
                0 => DomainFaultKind::RackCrash,
                1 => DomainFaultKind::PduLoss,
                2 => DomainFaultKind::NetworkPartition { duration_s: p1 },
                3 => DomainFaultKind::PowerEmergency { cap_w: p1, duration_s: p2 },
                other => return Err(l.error(format!("unknown domain fault kind {other}"))),
            };
            EvKind::DomainFault { event: DomainEvent { at_s: f64::from_bits(a), domain, kind } }
        }
        14 => EvKind::EmergencyEnd,
        other => return Err(l.error(format!("unknown event kind {other}"))),
    };
    Ok(Ev { t: l.f64_bits("t")?, seq: l.u64("seq")?, kind })
}

fn rng_state(l: &Line<'_>, key: &str) -> Result<[u64; 4], LineError> {
    <[u64; 4]>::try_from(l.u64s(key)?)
        .map_err(|_| l.error(format!("{key:?} must have exactly 4 words")))
}

// ---- restore ---------------------------------------------------------------

/// Restore `text` (produced by [`Encoder::encode`]) from `fresh`, a new
/// controller built from the same workload / cluster / plans / config, and
/// seat `source`, built from the same arrival flags, at the snapshotted
/// cursor. Returns the restored controller and the checkpointed recorder
/// counter totals (for the caller to preload). Any mismatch — truncation,
/// version skew, a different seed, cluster shape or arrival stream, an
/// index or request id that points nowhere, a clock the controller could
/// not have reached — is a typed configuration error naming the line,
/// never a panic later in the run.
pub(crate) fn restore<'a>(
    fresh: Controller<'a>,
    text: &str,
    source: &mut ArrivalSource,
) -> Result<(Controller<'a>, Vec<(String, u64)>), EnpropError> {
    read(fresh, text, source).map_err(|e| EnpropError::invalid_config(format!("snapshot {e}")))
}

/// [`restore`] with line-level errors. The controller comes back from one
/// struct literal with no `..`: a field added to [`Controller`] without a
/// snapshot source fails to compile here, as it does in [`Encoder::encode`].
fn read<'a>(
    mut fresh: Controller<'a>,
    text: &str,
    source: &mut ArrivalSource,
) -> Result<(Controller<'a>, Vec<(String, u64)>), LineError> {
    let lines: Vec<&str> = text.lines().collect();
    let total = lines.len();
    // Crash-consistency gate first: the file must end with a complete,
    // newline-terminated trailer that counts every preceding line, or it
    // was cut mid-write.
    let counted = lines
        .last()
        .filter(|_| text.ends_with('\n'))
        .and_then(|last| Line::parse(total, last).ok())
        .filter(|t| t.str("sec").is_ok_and(|s| s == "end"))
        .and_then(|t| t.u64("lines").ok());
    let body = total.saturating_sub(1);
    if counted != Some(body as u64) {
        return Err(LineError::new(
            total.max(1),
            format!(
                "no \"end\" trailer counting the {body} lines before it — truncated mid-write?"
            ),
        ));
    }
    // Header: version + shape checks.
    let h = Line::parse(1, lines[0])?;
    let version = h.str("sec")?;
    if version != SNAPSHOT_VERSION {
        return Err(
            h.error(format!("version {version:?} is not the supported {SNAPSHOT_VERSION:?}"))
        );
    }
    let seed = h.u64("seed")?;
    if seed != fresh.cfg.seed {
        return Err(h.error(format!("snapshot seed {seed} != configured seed {}", fresh.cfg.seed)));
    }
    let (n_groups, n_nodes) = (h.u64("groups")?, h.u64("nodes")?);
    if n_groups != fresh.groups.len() as u64 || n_nodes != fresh.nodes.len() as u64 {
        return Err(h.error(format!(
            "cluster shape {n_groups}g/{n_nodes}n != configured {}g/{}n",
            fresh.groups.len(),
            fresh.nodes.len()
        )));
    }
    if boolean(&h, "has_plane")? != fresh.plane.is_some() {
        return Err(
            h.error("snapshot and config disagree on whether the obs plane is on (obs_window_s)")
        );
    }
    let (now, seq) = (h.f64_bits("now")?, h.u64("seq")?);
    // The clock starts at 0 and only moves forward through finite times.
    if !(now.is_finite() && now >= 0.0) {
        return Err(h.error(format!("\"now\" {now} is not a finite time >= 0")));
    }
    // The livelock guard must be able to count events at this clock.
    fresh.now = now;
    if fresh.event_budget().is_none() {
        return Err(h.error(format!("\"now\" {now} is past the clock the event budget counts")));
    }
    // Recurring events must move the clock, or the loop spins at one instant.
    if now + HEALTH_INTERVAL_S == now {
        return Err(h.error(format!("\"now\" {now} is too large for the health interval to move")));
    }

    let n_nodes = fresh.nodes.len();
    let topo = fresh.topo.map(|t| &t.topology);
    let window_s = fresh.cfg.fault_window_s;
    let mut cursor: Option<(Line<'_>, SourceState)> = None;
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut heap = BinaryHeap::new();
    let mut next_arrival: Option<(Line<'_>, Ev)> = None;
    // `(line, id, request)`, ascending by id; the ring is sized from these
    // ids only once they are checked against the arrival source.
    let mut reqs: Vec<(usize, u64, Req)> = Vec::new();
    let mut pending: Option<VecDeque<u64>> = None;
    let mut sketches: [Option<QuantileSketch>; 2] = [None, None];
    // The `ctl`, `plane` and `series` lines are read once every section
    // is in.
    let mut ctl: Option<Line<'_>> = None;
    let (mut plane_line, mut series_line): (Option<Line<'_>>, Option<Line<'_>>) = (None, None);
    let mut plane_groups: Vec<PlaneGroupState> = Vec::new();
    let mut series_wins: Vec<WindowState> = Vec::new();
    // Request ids named by node queues/slots and the pending queue, with
    // their line numbers: checked against the `req` section at the end.
    let mut id_refs: Vec<(usize, u64)> = Vec::new();

    for (idx, text) in lines.iter().enumerate().take(total - 1).skip(1) {
        let lineno = idx + 1;
        let l = Line::parse(lineno, text)?;
        match &*l.str("sec")? {
            "ctl" => ctl = Some(l),
            "cnt" => counters.push((l.str("name")?.into_owned(), l.u64("total")?)),
            "group" => {
                let gi = below(&l, l.u64("i")?, fresh.groups.len(), "group index")?;
                let g = &mut fresh.groups[gi];
                g.freq_idx = below(&l, l.u64("freq")?, g.rate_at.len(), "freq_idx")?;
                let ba = l.u64("ba")?;
                let reopens = int(&l, "bb")?;
                g.breaker = match l.u64("brk")? {
                    0 => Breaker::Closed { fails: narrow(&l, ba, "fails")? },
                    1 => Breaker::Open { until_s: f64::from_bits(ba), reopens },
                    2 => Breaker::HalfOpen { probe: ba.checked_sub(1), reopens },
                    other => return Err(l.error(format!("unknown breaker state {other}"))),
                };
                // With breakers off no timeout is counted, so none leaves Closed.
                if fresh.cfg.breaker_failures == 0 && g.breaker != (Breaker::Closed { fails: 0 }) {
                    return Err(l.error("breakers are off, but this one left Closed"));
                }
            }
            "node" => {
                let i = below(&l, l.u64("i")?, n_nodes, "node index")?;
                let Node {
                    group: _,    // static: fixed by the cluster spec
                    in_group: _, // static, likewise
                    admin,
                    crashed,
                    unpowered,
                    stalled_until,
                    slowdown,
                    slow_until,
                    queue,
                    queued_ops,
                    current,
                    epoch,
                    acct_t,
                    energy_j,
                    win_busy_j,
                    win_ideal_j,
                    win_idle_j,
                } = &mut fresh.nodes[i];
                *admin = match l.u64("admin")? {
                    0 => Admin::Active,
                    1 => Admin::Draining,
                    2 => Admin::Deactivated,
                    3 => Admin::Down,
                    other => return Err(l.error(format!("unknown admin state {other}"))),
                };
                *crashed = boolean(&l, "crashed")?;
                *unpowered = boolean(&l, "unpowered")?;
                *stalled_until = l.f64_bits("stalled_until")?;
                *slowdown = l.f64_bits("slowdown")?;
                *slow_until = l.f64_bits("slow_until")?;
                *queue = VecDeque::from(l.u64s("queue")?);
                *queued_ops = l.f64_bits("queued_ops")?;
                *current = if boolean(&l, "cur")? {
                    let req = l.u64("cur_req")?;
                    id_refs.push((lineno, req));
                    Some(Running { req, remaining_ops: l.f64_bits("cur_rem")? })
                } else {
                    None
                };
                *epoch = l.u64("epoch")?;
                *acct_t = l.f64_bits("acct_t")?;
                *energy_j = l.f64_bits("energy")?;
                *win_busy_j = l.f64_bits("wb")?;
                *win_ideal_j = l.f64_bits("wi")?;
                *win_idle_j = l.f64_bits("wd")?;
                if boolean(&l, "down_span")? != (*admin == Admin::Down) {
                    let msg = format!("\"down_span\" disagrees with admin state {admin:?}");
                    return Err(l.error(msg));
                }
                id_refs.extend(queue.iter().map(|&id| (lineno, id)));
            }
            "req" => {
                let id = l.u64("id")?;
                let loc = match l.u64("loc")? {
                    0 => Loc::Pending,
                    1 => Loc::Backoff,
                    2 => Loc::OnNode(below(&l, l.u64("loc_node")?, n_nodes, "loc_node")?),
                    other => return Err(l.error(format!("unknown req loc {other}"))),
                };
                let exclude = match l.u64("exclude")? {
                    0 => None,
                    e => Some(below(&l, e - 1, n_nodes, "exclude")?),
                };
                if let Some(&(_, last, _)) = reqs.last().filter(|&&(_, last, _)| id <= last) {
                    return Err(l.error(format!("request id {id} does not ascend past {last}")));
                }
                let req = Req {
                    arrived: l.f64_bits("arrived")?,
                    ops: l.f64_bits("ops")?,
                    class: int(&l, "class")?,
                    attempt: int(&l, "attempt")?,
                    dispatch: int(&l, "dispatch")?,
                    loc,
                    exclude,
                    traced: boolean(&l, "traced")?,
                };
                reqs.push((lineno, id, req));
            }
            "pending" => {
                let ids = VecDeque::from(l.u64s("ids")?);
                id_refs.extend(ids.iter().map(|&id| (lineno, id)));
                pending = Some(ids);
            }
            "sketch" => {
                let slot = below(&l, l.u64("which")?, 2, "sketch slot")?;
                sketches[slot] = Some(QuantileSketch::from_state(sketch_of(&l)?));
            }
            "plane" => plane_line = Some(l),
            "plane_group" => {
                plane_groups.push(PlaneGroupState {
                    energy_j: l.f64_bits("energy")?,
                    ideal_j: l.f64_bits("ideal")?,
                    completions: l.u64("completions")?,
                });
            }
            "series" => series_line = Some(l),
            "series_win" => {
                series_wins.push(WindowState {
                    index: l.u64("index")?,
                    count: l.u64("count")?,
                    sum: l.f64_bits("sum")?,
                    sketch: sketch_of(&l)?,
                });
            }
            "ev" => {
                let ev = ev_of(&l, n_nodes, topo)?;
                if ev.seq >= seq {
                    return Err(l.error(format!("event seq {} >= header seq cursor {seq}", ev.seq)));
                }
                // The loop never runs time backwards (nor through NaN).
                if ev.t.is_nan() || ev.t < now {
                    return Err(
                        l.error(format!("event time {} is before the snapshot time {now}", ev.t))
                    );
                }
                match ev.kind {
                    EvKind::Arrival { .. } if next_arrival.is_some() => {
                        return Err(l.error("a second pending arrival (the source looks one ahead)"));
                    }
                    EvKind::Arrival { .. } => next_arrival = Some((l, ev)),
                    EvKind::FaultWindow { window, .. } | EvKind::DomainWindow { window }
                        if ev.t.to_bits() != window_start_s(window, window_s).to_bits() =>
                    {
                        return Err(l.error(format!(
                            "window {window} event at t = {}, but the controller schedules it at {}",
                            ev.t,
                            window_start_s(window, window_s)
                        )));
                    }
                    _ => heap.push(Reverse(ev)),
                }
            }
            "source" => {
                let state = match l.u64("kind")? {
                    0 => SourceState::Synthetic {
                        gap: rng_state(&l, "g")?,
                        size: rng_state(&l, "s")?,
                        class: rng_state(&l, "c")?,
                        t: l.f64_bits("t")?,
                        remaining: l.u64("remaining")?,
                    },
                    1 => SourceState::Replay { next: int(&l, "next")? },
                    other => return Err(l.error(format!("unknown source kind {other}"))),
                };
                cursor = Some((l, state));
            }
            other => return Err(l.error(format!("unknown section {other:?}"))),
        }
    }

    // Whole-snapshot checks name the trailer line: that is where an
    // absence becomes certain.
    let missing = |sec: &str| LineError::new(total, format!("no {sec:?} section"));
    let ctl = ctl.ok_or_else(|| missing("ctl"))?;
    let mut tally = ServeReport::default();
    for (name, n) in tally.counters_mut() {
        *n = ctl.u64(&format!("n_{name}"))?;
    }
    // Each processed arrival took the next request id, and each arrival
    // pulled from the source is processed or pending (in the look-ahead
    // slot until the stream runs dry). So the source's issued count bounds
    // every request id, and through it the ring's size.
    let next_req_id = ctl.u64("next_req_id")?;
    if let Some(&(lineno, id, _)) = reqs.last().filter(|&&(_, id, _)| id >= next_req_id) {
        let msg = format!("request id {id} is not below next_req_id {next_req_id}");
        return Err(LineError::new(lineno, msg));
    }
    if tally.arrivals != next_req_id {
        return Err(ctl.error(format!(
            "{} arrivals counted, but next_req_id is {next_req_id}",
            tally.arrivals
        )));
    }
    // The source ran dry, and the drain deadline was armed, exactly when
    // no arrival is pending.
    for key in ["arrivals_done", "drain_armed"] {
        let done = boolean(&ctl, key)?;
        if done == next_arrival.is_some() {
            return Err(ctl.error(format!(
                "{key} is {done}, but {} arrival is pending",
                if done { "an" } else { "no" }
            )));
        }
    }
    let (src, state) = cursor.ok_or_else(|| missing("source"))?;
    let issued = source.seat(state).map_err(|msg| src.error(msg))?;
    let looking_ahead = u64::from(next_arrival.is_some());
    if next_req_id.checked_add(looking_ahead) != Some(issued) {
        return Err(src.error(format!(
            "the source has issued {issued} arrivals, but the snapshot holds {next_req_id} \
             processed and {looking_ahead} pending — different arrival flags?"
        )));
    }
    // The pending arrival is the last one the source issued. With none
    // pending, the run stops by the drain deadline armed at the last one.
    let last_s = source.last_issued_s();
    let moved = next_arrival.as_ref().filter(|(_, ev)| ev.t.to_bits() != last_s.to_bits());
    if let Some((l, ev)) = moved {
        return Err(l.error(format!(
            "pending arrival at t = {}, but the source issued its last arrival at {last_s}",
            ev.t
        )));
    }
    if now > last_s + DRAIN_TIMEOUT_S {
        let msg = format!("\"now\" {now} is past the drain deadline after the arrival at {last_s}");
        return Err(h.error(msg));
    }
    let mut inflight = Inflight::default();
    for (_, id, req) in reqs {
        inflight.insert(id, req);
    }
    if let Some(&(lineno, id)) = id_refs.iter().find(|&&(_, id)| !inflight.contains_key(id)) {
        return Err(LineError::new(
            lineno,
            format!("request id {id} is not in the \"req\" section"),
        ));
    }
    let [tick_sketch, run_sketch] = sketches;
    let plane = match fresh.plane {
        Some(mut plane) => {
            let p = plane_line.ok_or_else(|| missing("plane"))?;
            let s = series_line.ok_or_else(|| missing("series"))?;
            let series = SeriesState {
                window_s: s.f64_bits("window_s")?,
                alpha: s.f64_bits("alpha")?,
                max_windows: int(&s, "max_windows")?,
                windows: series_wins,
                evicted_count: s.u64("evicted_count")?,
                evicted_sum: s.f64_bits("evicted_sum")?,
            };
            // Every checkpoint follows the roll to `now`, which leaves the
            // plane's open window at `now`'s window index.
            let cur_index = p.u64("cur_index")?;
            let want = plane.response_series().index_of(now);
            if cur_index != want {
                return Err(p.error(format!(
                    "cur_index {cur_index} is not the window index {want} of the snapshot time"
                )));
            }
            let state = PlaneState {
                cur_index,
                cur_arrivals: p.u64("cur_arrivals")?,
                cur_shed: p.u64("cur_shed")?,
                cur_breaches: p.u64("cur_breaches")?,
                groups: plane_groups,
                burn_ring: tuples::<2>(&p, "ring")?.into_iter().map(|[a, b]| (a, b)).collect(),
                alert: boolean(&p, "alert")?,
                burn_fast: p.f64_bits("bfast")?,
                burn_slow: p.f64_bits("bslow")?,
            };
            plane.restore(&state, series).map_err(|msg| p.error(msg))?;
            Some(plane)
        }
        None => None,
    };
    let plane_next_close_s = plane.as_ref().map_or(f64::INFINITY, ObsPlane::next_close_s);
    let c = Controller {
        cfg: fresh.cfg,
        plan: fresh.plan,
        topo: fresh.topo,
        groups: fresh.groups,
        nodes: fresh.nodes,
        heap,
        next_arrival: next_arrival.map(|(_, ev)| ev),
        seq,
        now,
        events: h.u64("events")?,
        inflight,
        pending: pending.ok_or_else(|| missing("pending"))?,
        shed_mode: boolean(&ctl, "shed_mode")?,
        shed_entries: ctl.u64("shed_entries")?,
        cooldown: int(&ctl, "cooldown")?,
        tick_sketch: tick_sketch.ok_or_else(|| missing("sketch"))?,
        window_arrival_ops: ctl.f64_bits("window_arrival_ops")?,
        run_sketch: run_sketch.ok_or_else(|| missing("sketch"))?,
        resp_sum: ctl.f64_bits("resp_sum")?,
        plane,
        plane_next_close_s,
        emergency_cap_w: ctl.f64_bits("em_cap")?,
        emergency_until_s: ctl.f64_bits("em_until")?,
        emergency_level: int(&ctl, "em_level")?,
        shed_class_floor: int(&ctl, "class_floor")?,
        tally,
    };
    Ok((c, counters))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(text: &str) -> Line<'_> {
        Line::parse(1, text.trim_end()).expect("a line the writer emits parses")
    }

    #[test]
    fn helpers_check_ranges_and_shapes() {
        let l = line("{\"x\":3,\"f\":2,\"xs\":[1,2,3,4],\"odd\":[1,2,3]}");
        assert_eq!(below(&l, 2, 3, "node").unwrap(), 2);
        let err = below(&l, 92, 3, "event node").unwrap_err().to_string();
        assert!(err.starts_with("line 1: event node 92 out of range"), "{err}");
        assert_eq!(tuples::<2>(&l, "xs").unwrap(), vec![[1, 2], [3, 4]]);
        assert!(tuples::<2>(&l, "odd").is_err());
        assert!(boolean(&l, "f").is_err());
        assert_eq!(int::<u8>(&l, "x").unwrap(), 3);
        assert!(narrow::<u8>(&l, 256, "class").is_err());
    }

    #[test]
    fn event_encoding_round_trips_every_kind() {
        let evs = vec![
            Ev { t: 1.25, seq: 0, kind: EvKind::Arrival { ops: 512.5, class: 1 } },
            Ev { t: 2.0, seq: 1, kind: EvKind::Completion { node: 3, epoch: 9 } },
            Ev { t: 2.5, seq: 2, kind: EvKind::Timeout { req: 17, dispatch: 4 } },
            Ev { t: 3.0, seq: 3, kind: EvKind::Redispatch { req: 17 } },
            Ev {
                t: 3.5,
                seq: 4,
                kind: EvKind::Fault { node: 1, kind: FaultKind::Stall { duration_s: 0.75 } },
            },
            Ev { t: 4.0, seq: 5, kind: EvKind::FaultWindow { node: 0, window: 2 } },
            Ev { t: 4.5, seq: 6, kind: EvKind::StallEnd { node: 1 } },
            Ev { t: 5.0, seq: 7, kind: EvKind::StragglerEnd { node: 2 } },
            Ev { t: 5.5, seq: 8, kind: EvKind::Repair { node: 3 } },
            Ev { t: 6.0, seq: 9, kind: EvKind::HealthCheck },
            Ev { t: 6.5, seq: 10, kind: EvKind::ControlTick },
            Ev { t: 7.0, seq: 11, kind: EvKind::DrainDeadline },
            Ev { t: 7.5, seq: 12, kind: EvKind::DomainWindow { window: 5 } },
            Ev {
                t: 8.0,
                seq: 13,
                kind: EvKind::DomainFault {
                    event: DomainEvent {
                        at_s: 0.125,
                        domain: Domain::Pdu(1),
                        kind: DomainFaultKind::PowerEmergency { cap_w: 90.0, duration_s: 30.0 },
                    },
                },
            },
            Ev { t: 8.5, seq: 14, kind: EvKind::EmergencyEnd },
        ];
        // 4 nodes, 2 per rack, 1 rack per PDU: racks 0..2, PDUs 0..2.
        let topo = Topology::new(4, 2, 1).unwrap();
        for ev in &evs {
            let mut text = String::new();
            ev_line(&mut text, ev);
            let back = ev_of(&line(&text), 4, Some(&topo)).expect("round trip");
            assert_eq!(back.t.to_bits(), ev.t.to_bits());
            assert_eq!(back.seq, ev.seq);
            // EvKind carries no PartialEq; compare through the encoding.
            let mut again = String::new();
            ev_line(&mut again, &back);
            assert_eq!(again, text);
            // One node fewer, or no topology, and an index points nowhere.
            let shrunk = ev_of(&line(&text), 3, Topology::new(2, 2, 1).ok().as_ref());
            let names_node_3 = matches!(ev.kind, EvKind::Completion { .. } | EvKind::Repair { .. });
            if names_node_3 || matches!(ev.kind, EvKind::DomainFault { .. }) {
                assert!(shrunk.is_err(), "{text}");
            }
        }
    }

    #[test]
    fn sketch_state_round_trips_negative_bucket_keys() {
        let s = SketchState {
            alpha: 0.01,
            max_buckets: 64,
            buckets: vec![(-212, 5), (0, 1), (7, 2)],
            low: 1,
            count: 8,
            sum: 1.5,
            min: 0.001,
            max: 2.0,
        };
        let mut text = String::from("{");
        push_sketch(&mut text, &s);
        text.push('}');
        let back = sketch_of(&line(&text)).expect("round trip");
        assert_eq!(back.buckets, s.buckets);
        assert_eq!(back.count, s.count);
        assert_eq!(back.sum.to_bits(), s.sum.to_bits());
    }
}
