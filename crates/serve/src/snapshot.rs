//! Crash-consistent controller snapshots (DESIGN.md §16).
//!
//! A snapshot serializes the *entire* resumable state of a running
//! [`Controller`] — the event heap (with sequence numbers), every node's
//! accounting frontier, in-flight requests, pending queue, the quantile
//! sketches, the obs plane's open window, the emergency / breaker state,
//! all counters, and the arrival source's cursor — as versioned JSONL: one
//! `{"sec":"…"}` object per line, a header first and a
//! `{"sec":"end","lines":N}` trailer last. A partially-written file
//! fails the trailer check and restores as a typed error, never as a
//! silently-wrong run. Lines read back through the workspace's one
//! flat-line reader, [`enprop_obs::Line`].
//!
//! Each section has one walk that both directions run: it names each key
//! once, in write order, beside the field it holds. A check in a walk runs
//! in both directions, and every state a live controller reaches passes it.
//!
//! Every `f64` travels as its IEEE-754 bit pattern (`to_bits`, printed as
//! a decimal `u64`): resume identity is *bit*-for-bit, and text floats
//! would round. Static assertions of that identity live in
//! `tests/resume_props.rs`: a run killed at any event and resumed from its
//! last checkpoint reports joule-for-joule what the uninterrupted run
//! reports.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::VecDeque;

use enprop_faults::{
    Domain, DomainEvent, DomainFaultKind, EnpropError, FaultKind, FaultRng, Topology,
};
use enprop_obs::{Line, LineError, QuantileSketch, SketchState};

use crate::arrivals::{ArrivalSource, SyntheticArrivals};
use crate::controller::{
    window_start_s, Admin, Breaker, Controller, Ev, EvKind, GroupModel, Loc, Node, Req, Running,
    DRAIN_TIMEOUT_S, HEALTH_INTERVAL_S,
};
use crate::plane::{ObsPlane, PlaneGroupState};
use crate::trace::ReplayCursor;

/// Version tag of the snapshot format; bumped on any incompatible change.
pub const SNAPSHOT_VERSION: &str = "enprop-snapshot-v5";

/// The largest finite float: `0.0..=MAX` is "finite and >= 0".
const MAX: f64 = f64::MAX;

type Walked = Result<(), LineError>;

// ---- the walk --------------------------------------------------------------

/// One direction of a section walk: the [`Encoder`] writes each field it
/// is handed, a [`Reader`] reads it back.
trait Walk {
    /// The integer `*v` under the key `prefix` then `key`.
    fn word(&mut self, prefix: &str, key: &str, v: &mut u64) -> Walked;
    /// The container `*v` as one flat array of integers.
    fn flat<T: Flat>(&mut self, key: &str, v: &mut T) -> Walked;
    fn str(&mut self, key: &str, v: &mut Cow<'_, str>) -> Walked;
    /// An error about the current line.
    fn error(&self, msg: String) -> LineError;

    fn u64(&mut self, key: &str, v: &mut u64) -> Walked {
        self.word("", key, v)
    }

    /// `*v` as its IEEE-754 bit pattern.
    fn f64(&mut self, key: &str, v: &mut f64) -> Walked {
        let mut bits = v.to_bits();
        self.u64(key, &mut bits)?;
        *v = f64::from_bits(bits);
        Ok(())
    }

    /// A float the controller only holds finite and in `lo..=hi`.
    fn within(&mut self, key: &str, v: &mut f64, lo: f64, hi: f64) -> Walked {
        self.f64(key, v)?;
        if (lo..=hi).contains(v) {
            return Ok(());
        }
        Err(self.error(format!("{key:?} {v} is outside {lo:e}..={hi:e}")))
    }

    /// `want`, a value other state fixes; the reader checks it.
    fn expect(&mut self, key: &str, want: u64) -> Walked {
        let mut v = want;
        self.u64(key, &mut v)?;
        if v == want {
            return Ok(());
        }
        Err(self.error(format!("{key:?} is {v}, but {want} is expected")))
    }

    /// `v` narrowed to `T`, or an error naming `what`.
    fn narrow<T: TryFrom<u64>>(&self, v: u64, what: &str) -> Result<T, LineError> {
        T::try_from(v).map_err(|_| self.error(format!("{what} out of range: {v}")))
    }

    /// An integer narrower than `u64`.
    fn int<T: Copy + TryFrom<u64> + TryInto<u64>>(&mut self, key: &str, v: &mut T) -> Walked {
        let mut x = (*v).try_into().unwrap_or(u64::MAX);
        self.u64(key, &mut x)?;
        *v = self.narrow(x, key)?;
        Ok(())
    }

    /// `v` as an index into `len` items, or an error naming `what`.
    fn below(&self, v: u64, len: usize, what: &str) -> Result<usize, LineError> {
        let i = usize::try_from(v).ok().filter(|&i| i < len);
        i.ok_or_else(|| self.error(format!("{what} {v} out of range (0..{len})")))
    }

    /// A 0/1 flag.
    fn flag(&mut self, key: &str, v: &mut bool) -> Walked {
        let mut x = u64::from(*v);
        self.u64(key, &mut x)?;
        *v = self.below(x, 2, key)? == 1;
        Ok(())
    }
}

/// A container walked as one flat array of integers.
trait Flat: Sized {
    fn words(&self) -> impl Iterator<Item = u64> + '_;
    /// The container the words spell, or `None` when they spell none.
    fn from_words(words: Vec<u64>) -> Option<Self>;
}

/// Request ids.
impl Flat for VecDeque<u64> {
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().copied()
    }
    fn from_words(words: Vec<u64>) -> Option<Self> {
        Some(words.into())
    }
}

/// The burn ring's `(completions, breaches)` pairs.
impl Flat for VecDeque<(u64, u64)> {
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().flat_map(|&(a, b)| [a, b])
    }
    fn from_words(words: Vec<u64>) -> Option<Self> {
        let pairs = words.chunks_exact(2).map(|p| (p[0], p[1]));
        words.len().is_multiple_of(2).then(|| pairs.collect())
    }
}

/// Sketch `(key, count)` buckets, each key as its two's-complement word.
impl Flat for Vec<(i32, u64)> {
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().flat_map(|&(k, n)| [i64::from(k) as u64, n])
    }
    fn from_words(words: Vec<u64>) -> Option<Self> {
        let bucket = |p: &[u64]| Some((i32::try_from(p[0] as i64).ok()?, p[1]));
        let buckets: Option<Self> = words.chunks_exact(2).map(bucket).collect();
        buckets.filter(|_| words.len().is_multiple_of(2))
    }
}

/// An xoshiro state.
impl Flat for [u64; 4] {
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().copied()
    }
    fn from_words(words: Vec<u64>) -> Option<Self> {
        words.try_into().ok()
    }
}

// ---- the sections, one walk each -------------------------------------------

/// The header after its version tag. The clock starts at 0 and only moves
/// forward through finite times.
fn header<W: Walk>(w: &mut W, c: &mut Controller<'_>) -> Walked {
    w.expect("seed", c.cfg.seed)?;
    w.expect("groups", c.groups.len() as u64)?;
    w.expect("nodes", c.nodes.len() as u64)?;
    w.within("now", &mut c.now, 0.0, MAX)?;
    w.u64("seq", &mut c.seq)?;
    w.u64("events", &mut c.events)?;
    w.expect("has_plane", u64::from(c.plane.is_some()))
}

/// The `ctl` line: the controller's own scalars and its counters.
/// [`Controller`] is destructured here once, with no `..`: a new field
/// fails to compile here. A field bound as `_` names the section that
/// walks it, or why none does.
fn ctl<W: Walk>(w: &mut W, c: &mut Controller<'_>) -> Walked {
    let Controller {
        cfg: _,  // static input: the resume is handed the same config
        plan: _, // static input, likewise
        topo: _, // static input, likewise
        groups: _,
        nodes: _,
        heap: _,         // the `ev` lines
        next_arrival: _, // an `ev` line
        seq: _,          // the header
        now: _,          // the header
        events: _,       // the header
        inflight: _,     // the `req` lines
        pending: _,      // the `pending` line
        shed_mode,
        shed_entries,
        cooldown,
        tick_sketch: _, // a `sketch` line
        window_arrival_ops,
        run_sketch: _, // a `sketch` line
        resp_sum,
        plane: _,              // the `plane`, `plane_group` and last `sketch` lines
        plane_next_close_s: _, // derived: re-read from the restored plane
        emergency_cap_w,
        emergency_until_s,
        emergency_level,
        shed_class_floor,
        tally,
    } = c;
    w.flag("shed_mode", shed_mode)?;
    w.u64("shed_entries", shed_entries)?;
    w.int("cooldown", cooldown)?;
    w.within("window_arrival_ops", window_arrival_ops, 0.0, MAX)?;
    w.within("resp_sum", resp_sum, 0.0, MAX)?;
    w.f64("em_cap", emergency_cap_w)?;
    w.f64("em_until", emergency_until_s)?;
    w.int("em_level", emergency_level)?;
    w.int("class_floor", shed_class_floor)?;
    for (name, n) in tally.counters_mut() {
        w.word("n_", name, n)?;
    }
    Ok(())
}

/// A `cnt` line: one recorder counter's running total, kept by the sink,
/// which a resumed run must continue or its trace diverges.
fn cnt<W: Walk>(w: &mut W, name: &mut Cow<'_, str>, total: &mut u64) -> Walked {
    w.str("name", name)?;
    w.u64("total", total)
}

/// A `group` line: group `i`'s DVFS level and circuit breaker.
fn group<W: Walk>(w: &mut W, groups: &mut [GroupModel], i: usize, breakers: bool) -> Walked {
    w.expect("i", i as u64)?;
    let GroupModel {
        rate_at,        // static: rebuilt from the workload and cluster
        busy_w_at: _,   // static, likewise
        idle_w: _,      // static, likewise
        peak_busy_w: _, // derived from busy_w_at
        freq_idx,
        breaker,
    } = &mut groups[i];
    let mut freq = *freq_idx as u64;
    w.u64("freq", &mut freq)?;
    *freq_idx = w.below(freq, rate_at.len(), "DVFS level")?;
    let (mut brk, mut ba, mut bb) = match *breaker {
        Breaker::Closed { fails } => (0, u64::from(fails), 0),
        Breaker::Open { until_s, reopens } => (1, until_s.to_bits(), u64::from(reopens)),
        Breaker::HalfOpen { probe, reopens } => (2, probe.map_or(0, |p| p + 1), u64::from(reopens)),
    };
    w.u64("brk", &mut brk)?;
    w.u64("ba", &mut ba)?;
    w.u64("bb", &mut bb)?;
    let reopens = w.narrow(bb, "reopens")?;
    let (until_s, probe) = (f64::from_bits(ba), ba.checked_sub(1));
    *breaker = match brk {
        0 => Breaker::Closed {
            fails: w.narrow(ba, "fails")?,
        },
        1 => Breaker::Open { until_s, reopens },
        2 => Breaker::HalfOpen { probe, reopens },
        other => return Err(w.error(format!("unknown breaker state {other}"))),
    };
    // With breakers off no timeout is counted, so none leaves Closed.
    if !breakers && *breaker != (Breaker::Closed { fails: 0 }) {
        return Err(w.error("breakers are off, but this one left Closed".into()));
    }
    Ok(())
}

/// A `node` line. Every checkpoint follows `close_windows`, which
/// integrates each node up to `now` and hands its window joules to the
/// plane.
fn node<W: Walk>(w: &mut W, nodes: &mut [Node], i: usize, now: f64) -> Walked {
    w.expect("i", i as u64)?;
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
    } = &mut nodes[i];
    use Admin::{Active, Deactivated, Down, Draining};
    let admins = [Active, Draining, Deactivated, Down];
    let mut code = admins.iter().position(|a| a == admin).unwrap_or(0) as u64;
    w.u64("admin", &mut code)?;
    *admin = admins[w.below(code, admins.len(), "admin state")?];
    w.flag("crashed", crashed)?;
    w.flag("unpowered", unpowered)?;
    w.f64("stalled_until", stalled_until)?;
    w.within("slowdown", slowdown, 1.0, MAX)?;
    w.f64("slow_until", slow_until)?;
    w.within("queued_ops", queued_ops, 0.0, MAX)?;
    w.u64("epoch", epoch)?;
    w.within("acct_t", acct_t, now, now)?;
    w.within("energy", energy_j, 0.0, MAX)?;
    for (key, joules) in [("wb", win_busy_j), ("wi", win_ideal_j), ("wd", win_idle_j)] {
        w.within(key, joules, 0.0, 0.0)?;
    }
    w.flat("queue", queue)?;
    let (mut cur, mut req, mut rem) = match current {
        None => (false, 0, 0.0),
        Some(Running { req, remaining_ops }) => (true, *req, *remaining_ops),
    };
    w.flag("cur", &mut cur)?;
    w.u64("cur_req", &mut req)?;
    w.within("cur_rem", &mut rem, 0.0, MAX)?;
    *current = cur.then_some(Running {
        req,
        remaining_ops: rem,
    });
    Ok(())
}

/// A `req` line: in-flight request `id`, which arrived by `now`. A finite
/// `deadline` is a timeout kept off the heap: the request sits on a node
/// that keeps pace and finishes before it, so it is past `now`.
fn req<W: Walk>(w: &mut W, id: &mut u64, r: &mut Req, nodes: &[Node], now: f64) -> Walked {
    w.u64("id", id)?;
    let Req {
        arrived,
        ops,
        class,
        attempt,
        dispatch,
        loc,
        lazy_deadline,
        exclude,
        traced,
    } = r;
    w.within("arrived", arrived, 0.0, now)?;
    w.within("ops", ops, 0.0, MAX)?;
    w.int("class", class)?;
    w.int("attempt", attempt)?;
    w.int("dispatch", dispatch)?;
    let (mut tag, mut on) = match *loc {
        Loc::Pending => (0, 0),
        Loc::Backoff => (1, 0),
        Loc::OnNode(i) => (2, i as u64),
    };
    w.u64("loc", &mut tag)?;
    w.u64("loc_node", &mut on)?;
    *loc = match tag {
        0 => Loc::Pending,
        1 => Loc::Backoff,
        2 => Loc::OnNode(w.below(on, nodes.len(), "request node")?),
        other => return Err(w.error(format!("unknown req loc {other}"))),
    };
    w.within("deadline", lazy_deadline, *arrived, f64::INFINITY)?;
    let held = matches!(*loc, Loc::OnNode(i) if nodes[i].keeps_pace(now));
    if lazy_deadline.is_finite() && !(held && *lazy_deadline > now) {
        let msg = "is kept off the heap, which takes a node that keeps pace and a time past now";
        return Err(w.error(format!("\"deadline\" {lazy_deadline} {msg} {now}")));
    }
    let mut avoid = exclude.map_or(0, |e| e as u64 + 1);
    w.u64("exclude", &mut avoid)?;
    let avoid = avoid
        .checked_sub(1)
        .map(|e| w.below(e, nodes.len(), "excluded"));
    *exclude = avoid.transpose()?;
    w.flag("traced", traced)
}

/// The `pending` line: the bounded backpressure queue, in order.
fn pending<W: Walk>(w: &mut W, ids: &mut VecDeque<u64>) -> Walked {
    w.flat("ids", ids)
}

/// A `sketch` line: the tick (`which` 0), the run (1) or the obs plane's
/// open-window (2) quantile sketch. The controller builds every sketch
/// with one geometry, so `alpha` and `maxb` must equal `s`'s: on restore,
/// the fresh controller's sketch.
fn sketch_line<W: Walk>(w: &mut W, which: usize, s: &mut SketchState) -> Walked {
    w.expect("which", which as u64)?;
    let SketchState {
        alpha,
        max_buckets,
        buckets,
        low,
        count,
        sum,
        min,
        max,
    } = s;
    w.expect("alpha", alpha.to_bits())?;
    w.expect("maxb", *max_buckets as u64)?;
    w.u64("lowc", low)?;
    w.u64("scount", count)?;
    w.f64("ssum", sum)?;
    w.f64("smin", min)?;
    w.f64("smax", max)?;
    w.flat("buckets", buckets)
}

/// The `plane` line. Every checkpoint follows the roll to `now`, which
/// leaves the open window at `now`'s window index.
fn plane<W: Walk>(w: &mut W, p: &mut ObsPlane, now: f64) -> Walked {
    let now_index = p.index_of(now);
    let ObsPlane {
        window_s,     // static: from the config
        slo_p95_s: _, // static, likewise
        resp: _,      // the `sketch` line after the `plane_group` lines
        cur_index,
        cur_end_s, // derived from cur_index
        cur_arrivals,
        cur_shed,
        cur_breaches,
        cur_groups: _, // the `plane_group` lines
        burn_ring,
        alert,
        burn_fast,
        burn_slow,
    } = p;
    w.u64("cur_index", cur_index)?;
    if *cur_index != now_index {
        let msg = format!("cur_index {cur_index} is not the window index of now");
        return Err(w.error(msg));
    }
    *cur_end_s = (*cur_index as f64 + 1.0) * *window_s;
    w.u64("cur_arrivals", cur_arrivals)?;
    w.u64("cur_shed", cur_shed)?;
    w.u64("cur_breaches", cur_breaches)?;
    w.flag("alert", alert)?;
    w.within("bfast", burn_fast, 0.0, MAX)?;
    w.within("bslow", burn_slow, 0.0, MAX)?;
    w.flat("ring", burn_ring)
}

/// A `plane_group` line: group `i`'s accumulators in the open window.
fn plane_group<W: Walk>(w: &mut W, groups: &mut [PlaneGroupState], i: usize) -> Walked {
    w.expect("i", i as u64)?;
    let PlaneGroupState {
        energy_j,
        ideal_j,
        completions,
    } = &mut groups[i];
    w.within("energy", energy_j, 0.0, MAX)?;
    w.within("ideal", ideal_j, 0.0, MAX)?;
    w.u64("completions", completions)
}

/// An `ev` line: one event as `(t, seq)` and a six-operand encoding of its
/// kind, `(k, a..f)` with unused operands 0.
fn event<W: Walk>(w: &mut W, ev: &mut Ev, nodes: usize, topo: Option<&Topology>) -> Walked {
    let Ev { t, seq, kind } = ev;
    w.f64("t", t)?;
    w.u64("seq", seq)?;
    let mut ops = operands(kind);
    for (key, v) in ["k", "a", "b", "c", "d", "e", "f"]
        .into_iter()
        .zip(&mut ops)
    {
        w.u64(key, v)?;
    }
    *kind = kind_of(w, ops, nodes, topo)?;
    Ok(())
}

/// `kind` as the operands `[k, a, b, c, d, e, f]`.
fn operands(kind: &EvKind) -> [u64; 7] {
    let bits = f64::to_bits;
    match *kind {
        EvKind::Arrival { ops, class } => [0, bits(ops), u64::from(class), 0, 0, 0, 0],
        EvKind::Completion { node, epoch } => [1, node as u64, epoch, 0, 0, 0, 0],
        EvKind::Timeout { req, dispatch } => [2, req, u64::from(dispatch), 0, 0, 0, 0],
        EvKind::Redispatch { req } => [3, req, 0, 0, 0, 0, 0],
        EvKind::Fault { node, kind } => {
            let (fk, p) = match kind {
                FaultKind::Crash => (0, 0.0),
                FaultKind::Stall { duration_s } => (1, duration_s),
                FaultKind::Straggler { slowdown } => (2, slowdown),
            };
            [4, node as u64, fk, bits(p), 0, 0, 0]
        }
        EvKind::FaultWindow { node, window } => [5, node as u64, u64::from(window), 0, 0, 0, 0],
        EvKind::StallEnd { node } => [6, node as u64, 0, 0, 0, 0, 0],
        EvKind::StragglerEnd { node } => [7, node as u64, 0, 0, 0, 0, 0],
        EvKind::Repair { node } => [8, node as u64, 0, 0, 0, 0, 0],
        EvKind::HealthCheck => [9, 0, 0, 0, 0, 0, 0],
        EvKind::ControlTick => [10, 0, 0, 0, 0, 0, 0],
        EvKind::DrainDeadline => [11, 0, 0, 0, 0, 0, 0],
        EvKind::DomainWindow { window } => [12, u64::from(window), 0, 0, 0, 0, 0],
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
            [13, bits(event.at_s), dom, di, dk, bits(p1), bits(p2)]
        }
        EvKind::EmergencyEnd => [14, 0, 0, 0, 0, 0, 0],
    }
}

/// The kind [`operands`] encodes. Indices are checked against `nodes` and
/// `topo` (no topology: no rack or PDU is valid), and floats against what
/// the plans and sources schedule: finite, >= 0, a slowdown >= 1.
fn kind_of<W: Walk>(
    w: &W,
    [k, a, b, c, d, e, f]: [u64; 7],
    nodes: usize,
    topo: Option<&Topology>,
) -> Result<EvKind, LineError> {
    let node = || w.below(a, nodes, "event node");
    let float = |v: u64, lo: f64| {
        let x = f64::from_bits(v);
        let what = || w.error(format!("event operand {x} is outside {lo:e}..={MAX:e}"));
        (lo..=MAX).contains(&x).then_some(x).ok_or_else(what)
    };
    Ok(match k {
        0 => EvKind::Arrival {
            ops: float(a, 0.0)?,
            class: w.narrow(b, "class")?,
        },
        1 => EvKind::Completion {
            node: node()?,
            epoch: b,
        },
        2 => EvKind::Timeout {
            req: a,
            dispatch: w.narrow(b, "dispatch")?,
        },
        3 => EvKind::Redispatch { req: a },
        4 => {
            let kind = match b {
                0 => FaultKind::Crash,
                1 => FaultKind::Stall {
                    duration_s: float(c, 0.0)?,
                },
                2 => FaultKind::Straggler {
                    slowdown: float(c, 1.0)?,
                },
                other => return Err(w.error(format!("unknown fault kind {other}"))),
            };
            EvKind::Fault {
                node: node()?,
                kind,
            }
        }
        5 => EvKind::FaultWindow {
            node: node()?,
            window: w.narrow(b, "window")?,
        },
        6 => EvKind::StallEnd { node: node()? },
        7 => EvKind::StragglerEnd { node: node()? },
        8 => EvKind::Repair { node: node()? },
        9 => EvKind::HealthCheck,
        10 => EvKind::ControlTick,
        11 => EvKind::DrainDeadline,
        12 => EvKind::DomainWindow {
            window: w.narrow(a, "window")?,
        },
        13 => {
            let domain = match b {
                0 => Domain::Rack(w.below(c, topo.map_or(0, Topology::racks), "rack")?),
                1 => Domain::Pdu(w.below(c, topo.map_or(0, Topology::pdus), "pdu")?),
                2 => Domain::Cluster,
                other => return Err(w.error(format!("unknown domain tag {other}"))),
            };
            let kind = match d {
                0 => DomainFaultKind::RackCrash,
                1 => DomainFaultKind::PduLoss,
                2 => DomainFaultKind::NetworkPartition {
                    duration_s: float(e, 0.0)?,
                },
                3 => {
                    let (cap_w, duration_s) = (float(e, 0.0)?, float(f, 0.0)?);
                    DomainFaultKind::PowerEmergency { cap_w, duration_s }
                }
                other => return Err(w.error(format!("unknown domain fault kind {other}"))),
            };
            let event = DomainEvent {
                at_s: float(a, 0.0)?,
                domain,
                kind,
            };
            EvKind::DomainFault { event }
        }
        14 => EvKind::EmergencyEnd,
        other => return Err(w.error(format!("unknown event kind {other}"))),
    })
}

/// The `source` line: the cursor of the configured source (`kind` 0
/// synthetic, 1 replay). Returns how many arrivals it has issued, and when
/// it issued the last (0 before the first: the clock the run starts at).
fn source<W: Walk>(w: &mut W, src: &mut ArrivalSource) -> Result<(u64, f64), LineError> {
    w.expect("kind", u64::from(matches!(src, ArrivalSource::Replay(_))))?;
    let s = match src {
        ArrivalSource::Synthetic(s) => s,
        ArrivalSource::Replay(ReplayCursor { arrivals, next }) => {
            w.int("next", next)?;
            if *next > arrivals.len() {
                let n = arrivals.len();
                return Err(w.error(format!("replay cursor at {next} of {n} arrivals")));
            }
            let last = next.checked_sub(1).map_or(0.0, |i| arrivals[i].t_s);
            return Ok((*next as u64, last));
        }
    };
    let SyntheticArrivals {
        model: _, // static: the configured arrival flags
        gap_rng,
        size_rng,
        class_rng,
        t,
        requests,
        remaining,
        ops_per_request: _, // static, likewise
        ops_jitter: _,      // static, likewise
        best_effort: _,     // static, likewise
    } = s;
    for (key, rng) in [("g", gap_rng), ("s", size_rng), ("c", class_rng)] {
        let mut state = rng.state();
        w.flat(key, &mut state)?;
        *rng = FaultRng::from_state(state);
    }
    w.f64("t", t)?;
    if !(t.is_finite() && *t >= 0.0) {
        let msg = format!("synthetic cursor time {t} is not a finite time >= 0");
        return Err(w.error(msg));
    }
    w.u64("remaining", remaining)?;
    if *remaining > *requests {
        let msg = format!("synthetic cursor has {remaining} arrivals left of {requests}");
        return Err(w.error(msg));
    }
    Ok((*requests - *remaining, *t))
}

/// The trailer: how many lines come before it.
fn trailer<W: Walk>(w: &mut W, lines: &mut usize) -> Walked {
    w.int("lines", lines)
}

// ---- writing ---------------------------------------------------------------

/// `"00"` to `"99"`, two ASCII digits per entry.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// `v` in decimal, as `v.to_string()` writes it: two digits per step
/// from [`DIGIT_PAIRS`] into a stack buffer, which measured faster on
/// the checkpoint path than one digit per step or a `write!` per field.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        digits[at] = b'0' + v as u8;
    }
    out.extend_from_slice(&digits[at..]);
}

/// The checkpoint encoder, the writing direction of the walk. The event
/// loop owns one for the whole run and calls it after each plane roll.
#[derive(Debug, Default)]
pub(crate) struct Encoder {
    /// The snapshot text as bytes, reused across checkpoints. Every piece
    /// appended is ASCII or a whole `&str`, so it is UTF-8 throughout;
    /// [`Encoder::encode`] checks that once per checkpoint.
    out: Vec<u8>,
    /// Lines written to `out` so far, for the trailer.
    lines: usize,
}

impl Walk for Encoder {
    fn word(&mut self, prefix: &str, key: &str, v: &mut u64) -> Walked {
        self.key(prefix, key);
        push_u64(&mut self.out, *v);
        Ok(())
    }

    fn flat<T: Flat>(&mut self, key: &str, v: &mut T) -> Walked {
        self.key("", key);
        self.out.push(b'[');
        for (i, word) in v.words().enumerate() {
            if i > 0 {
                self.out.push(b',');
            }
            push_u64(&mut self.out, word);
        }
        self.out.push(b']');
        Ok(())
    }

    fn str(&mut self, key: &str, v: &mut Cow<'_, str>) -> Walked {
        self.key("", key);
        self.out.push(b'"');
        self.out.extend_from_slice(v.as_bytes());
        self.out.push(b'"');
        Ok(())
    }

    fn error(&self, msg: String) -> LineError {
        LineError::new(self.lines + 1, msg)
    }
}

impl Encoder {
    /// `,"<prefix><key>":`.
    fn key(&mut self, prefix: &str, key: &str) {
        self.out.extend_from_slice(b",\"");
        self.out.extend_from_slice(prefix.as_bytes());
        self.out.extend_from_slice(key.as_bytes());
        self.out.extend_from_slice(b"\":");
    }

    /// One `sec` line with the fields `walk` hands over.
    fn line(&mut self, sec: &str, walk: impl FnOnce(&mut Self) -> Walked) -> Walked {
        self.out.extend_from_slice(b"{\"sec\":\"");
        self.out.extend_from_slice(sec.as_bytes());
        self.out.push(b'"');
        walk(self)?;
        self.out.extend_from_slice(b"}\n");
        self.lines += 1;
        Ok(())
    }

    /// The snapshot of `c` with `popped` and `src`'s cursor; `counters`
    /// are the recorder's running totals. The walks hand each field back
    /// as they found it, so `c` and `src` are left as they were.
    pub(crate) fn encode(
        &mut self,
        c: &mut Controller<'_>,
        popped: &Ev,
        src: &mut ArrivalSource,
        counters: &[(&str, u64)],
    ) -> &str {
        self.out.clear();
        self.lines = 0;
        let walked = self.sections(c, popped, src, counters).and_then(|()| {
            let mut lines = self.lines;
            self.line("end", |w| trailer(w, &mut lines))
        });
        // A live controller passes every check of the walk. Were one to
        // fail, the text would stop short of its trailer and restore as a
        // torn write.
        debug_assert!(walked.is_ok(), "a checkpoint failed a check: {walked:?}");
        std::str::from_utf8(&self.out).expect("ASCII and whole `&str`s are UTF-8")
    }

    /// Every line but the trailer, in write order.
    fn sections(
        &mut self,
        c: &mut Controller<'_>,
        popped: &Ev,
        src: &mut ArrivalSource,
        counters: &[(&str, u64)],
    ) -> Walked {
        self.line(SNAPSHOT_VERSION, |w| header(w, c))?;
        self.line("ctl", |w| ctl(w, c))?;
        for &(name, mut total) in counters {
            self.line("cnt", |w| cnt(w, &mut Cow::Borrowed(name), &mut total))?;
        }
        let breakers = c.cfg.breaker_failures > 0;
        for i in 0..c.groups.len() {
            self.line("group", |w| group(w, &mut c.groups, i, breakers))?;
        }
        let (now, n_nodes) = (c.now, c.nodes.len());
        for i in 0..n_nodes {
            self.line("node", |w| node(w, &mut c.nodes, i, now))?;
        }
        for (mut id, r) in c.inflight.iter() {
            let mut r = r.clone();
            self.line("req", |w| req(w, &mut id, &mut r, &c.nodes, now))?;
        }
        self.line("pending", |w| pending(w, &mut c.pending))?;
        for (which, s) in [&c.tick_sketch, &c.run_sketch].into_iter().enumerate() {
            let mut s = s.state();
            self.line("sketch", |w| sketch_line(w, which, &mut s))?;
        }
        if let Some(p) = &mut c.plane {
            self.plane_lines(p, now)?;
        }
        // The heap and the pending arrival in deterministic (t, seq) order,
        // plus the just-popped event — the first thing the resumed loop
        // will process.
        let events = c.heap.iter().map(|Reverse(e)| e).chain(&c.next_arrival);
        let mut evs: Vec<Ev> = events.chain([popped]).cloned().collect();
        evs.sort();
        let topo = c.topo.map(|t| &t.topology);
        for mut ev in evs {
            self.line("ev", |w| event(w, &mut ev, n_nodes, topo))?;
        }
        self.line("source", |w| source(w, src).map(|_issued| ()))
    }

    /// The `plane` and `plane_group` lines, and the open window's `sketch`.
    fn plane_lines(&mut self, p: &mut ObsPlane, now: f64) -> Walked {
        self.line("plane", |w| plane(w, p, now))?;
        for i in 0..p.cur_groups.len() {
            self.line("plane_group", |w| plane_group(w, &mut p.cur_groups, i))?;
        }
        let mut s = p.resp.state();
        self.line("sketch", |w| sketch_line(w, 2, &mut s))
    }
}

// ---- reading ---------------------------------------------------------------

/// The reading direction of the walk: one parsed line and its number.
struct Reader<'a>(Line<'a>, usize);

impl Walk for Reader<'_> {
    fn word(&mut self, prefix: &str, key: &str, v: &mut u64) -> Walked {
        *v = self.0.u64(&[prefix, key].concat())?;
        Ok(())
    }

    fn f64(&mut self, key: &str, v: &mut f64) -> Walked {
        *v = self.0.f64_bits(key)?;
        Ok(())
    }

    fn flat<T: Flat>(&mut self, key: &str, v: &mut T) -> Walked {
        let words = self.0.u64s(key)?;
        let n = words.len();
        let bad = || self.error(format!("{key:?} holds {n} words that fit no value"));
        *v = T::from_words(words).ok_or_else(bad)?;
        Ok(())
    }

    fn str(&mut self, key: &str, v: &mut Cow<'_, str>) -> Walked {
        *v = Cow::Owned(self.0.str(key)?.into_owned());
        Ok(())
    }

    fn error(&self, msg: String) -> LineError {
        self.0.error(msg)
    }
}

/// The lines before the trailer, taken in the order the encoder writes
/// them: a missing, extra or misplaced line is an error naming it.
struct Body<'a> {
    lines: VecDeque<(Cow<'a, str>, Reader<'a>)>,
    /// The trailer's line number.
    end: usize,
}

impl<'a> Body<'a> {
    /// `lines`, numbered from 1, each parsed; the trailer is line `end`.
    fn parse(lines: &[&'a str], end: usize) -> Result<Self, LineError> {
        let mut body = Body {
            lines: VecDeque::new(),
            end,
        };
        for (i, text) in lines.iter().enumerate() {
            let line = Line::parse(i + 1, text)?;
            body.lines
                .push_back((line.str("sec")?, Reader(line, i + 1)));
        }
        Ok(body)
    }

    /// The next line if it is a `sec` line.
    fn next_if(&mut self, sec: &str) -> Option<Reader<'a>> {
        if self.lines.front()?.0 != sec {
            return None;
        }
        self.lines.pop_front().map(|(_, l)| l)
    }

    /// The next line, which must be a `sec` line.
    fn next(&mut self, sec: &str) -> Result<Reader<'a>, LineError> {
        if let Some(l) = self.next_if(sec) {
            return Ok(l);
        }
        Err(match self.lines.front() {
            Some((found, l)) => l.error(format!("a {found:?} line where a {sec:?} line belongs")),
            None => LineError::new(self.end, format!("no {sec:?} line before the trailer")),
        })
    }
}

/// The obs plane's lines: `plane`, one `plane_group` per group, and the
/// open window's `sketch`.
fn read_plane(body: &mut Body<'_>, p: &mut ObsPlane, now: f64) -> Walked {
    plane(&mut body.next("plane")?, p, now)?;
    for i in 0..p.cur_groups.len() {
        plane_group(&mut body.next("plane_group")?, &mut p.cur_groups, i)?;
    }
    read_sketch(body, 2, &mut p.resp)
}

/// A `sketch` line onto `sketch`.
fn read_sketch(body: &mut Body<'_>, which: usize, sketch: &mut QuantileSketch) -> Walked {
    let mut s = sketch.state();
    sketch_line(&mut body.next("sketch")?, which, &mut s)?;
    *sketch = QuantileSketch::from_state(s);
    Ok(())
}

/// Restore `text` onto `fresh`, a controller built from the same inputs,
/// and seat `source` at the snapshotted cursor. Returns the controller and
/// the recorder's counter totals. Any mismatch — truncation, version skew,
/// another seed, cluster shape or arrival stream, an index or request id
/// that points nowhere, a clock or a float the controller could not have
/// reached — is a typed configuration error naming the line, never a
/// panic later in the run.
pub(crate) fn restore<'a>(
    fresh: Controller<'a>,
    text: &str,
    source: &mut ArrivalSource,
) -> Result<(Controller<'a>, Vec<(String, u64)>), EnpropError> {
    read(fresh, text, source).map_err(|e| EnpropError::invalid_config(format!("snapshot {e}")))
}

/// [`restore`] with line-level errors. The walks restore `c` in place in
/// line order.
fn read<'a>(
    mut c: Controller<'a>,
    text: &str,
    src: &mut ArrivalSource,
) -> Result<(Controller<'a>, Vec<(String, u64)>), LineError> {
    let lines: Vec<&str> = text.lines().collect();
    let total = lines.len();
    // Crash-consistency gate first: the file must end with a complete,
    // newline-terminated trailer that counts every preceding line, or it
    // was cut mid-write.
    let before = total.saturating_sub(1);
    let last = lines.last().filter(|_| text.ends_with('\n'));
    let line = last.and_then(|l| Line::parse(total, l).ok());
    let line = line.filter(|t| t.str("sec").is_ok_and(|s| s == "end"));
    let counted = line.and_then(|line| {
        let mut n = 0;
        let read = trailer(&mut Reader(line, total), &mut n);
        read.ok().map(|()| n)
    });
    if counted != Some(before) {
        let msg = format!("no \"end\" trailer counting the {before} lines before it");
        return Err(LineError::new(
            total.max(1),
            msg + " — truncated mid-write?",
        ));
    }
    let mut body = Body::parse(&lines[..before], total)?;
    let mut h = body.next(SNAPSHOT_VERSION)?;
    header(&mut h, &mut c)?;
    let now = c.now;
    // The livelock guard must be able to count events at this clock, and
    // recurring events must move it, or the loop spins at one instant.
    if c.event_budget().is_none() {
        let msg = format!("\"now\" {now} is past the clock the event budget counts");
        return Err(h.error(msg));
    }
    if now + HEALTH_INTERVAL_S == now {
        let msg = format!("\"now\" {now} is too large for the health interval to move");
        return Err(h.error(msg));
    }
    ctl(&mut body.next("ctl")?, &mut c)?;
    let mut counters: Vec<(String, u64)> = Vec::new();
    while let Some(mut l) = body.next_if("cnt") {
        let (mut name, mut n) = (Cow::Borrowed(""), 0);
        cnt(&mut l, &mut name, &mut n)?;
        counters.push((name.into_owned(), n));
    }
    let breakers = c.cfg.breaker_failures > 0;
    for i in 0..c.groups.len() {
        group(&mut body.next("group")?, &mut c.groups, i, breakers)?;
    }
    // Request ids named by node queues/slots and the pending queue, with
    // their line numbers: checked against the `req` lines at the end.
    let mut id_refs: Vec<(usize, u64)> = Vec::new();
    let n_nodes = c.nodes.len();
    for i in 0..n_nodes {
        let mut l = body.next("node")?;
        node(&mut l, &mut c.nodes, i, now)?;
        let n = &c.nodes[i];
        let running = n.current.as_ref().map(|r| r.req);
        id_refs.extend(
            running
                .into_iter()
                .chain(n.queue.iter().copied())
                .map(|id| (l.1, id)),
        );
    }
    // `(line, id, request)`, ascending by id; the ring is sized from these
    // ids only once they are checked against the arrival source.
    let mut reqs: Vec<(usize, u64, Req)> = Vec::new();
    while let Some(mut l) = body.next_if("req") {
        let (mut id, mut r) = (0, Req::default());
        req(&mut l, &mut id, &mut r, &c.nodes, now)?;
        if let Some(&(_, last, _)) = reqs.last().filter(|&&(_, last, _)| id <= last) {
            return Err(l.error(format!("request id {id} does not ascend past {last}")));
        }
        reqs.push((l.1, id, r));
    }
    let mut l = body.next("pending")?;
    pending(&mut l, &mut c.pending)?;
    id_refs.extend(c.pending.iter().map(|&id| (l.1, id)));
    read_sketch(&mut body, 0, &mut c.tick_sketch)?;
    read_sketch(&mut body, 1, &mut c.run_sketch)?;
    if let Some(p) = &mut c.plane {
        read_plane(&mut body, p, now)?;
    }
    let (topo, window_s) = (c.topo.map(|t| &t.topology), c.cfg.fault_window_s);
    let mut next_arrival: Option<(usize, Ev)> = None;
    while let Some(mut l) = body.next_if("ev") {
        let (t, seq, kind) = (now, 0, EvKind::HealthCheck);
        let mut ev = Ev { t, seq, kind };
        event(&mut l, &mut ev, n_nodes, topo)?;
        // Events are stamped below the header's seq cursor, and the loop
        // never runs time backwards (nor through NaN).
        let (t, seq, cursor) = (ev.t, ev.seq, c.seq);
        if seq >= cursor || t.is_nan() || t < now {
            let msg = format!("event (t = {t}, seq {seq}) is not after now {now}, seq {cursor}");
            return Err(l.error(msg));
        }
        match ev.kind {
            EvKind::Arrival { .. } if next_arrival.is_some() => {
                return Err(l.error("a second pending arrival (the source looks one ahead)".into()));
            }
            EvKind::Arrival { .. } => next_arrival = Some((l.1, ev)),
            EvKind::FaultWindow { window, .. } | EvKind::DomainWindow { window }
                if t.to_bits() != window_start_s(window, window_s).to_bits() =>
            {
                let at = window_start_s(window, window_s);
                let msg = format!("window {window} event at t = {t}, but the controller");
                return Err(l.error(format!("{msg} schedules it at {at}")));
            }
            _ => c.heap.push(Reverse(ev)),
        }
    }
    let mut source_line = body.next("source")?;
    let (issued, last) = source(&mut source_line, src)?;
    if let Some((found, l)) = body.lines.front() {
        return Err(l.error(format!("a {found:?} line after the \"source\" line")));
    }

    // Each processed arrival took the next request id, and each arrival
    // pulled from the source is processed or pending (in the look-ahead
    // slot until the stream runs dry). So the source's issued count bounds
    // every request id, and through it the ring's size.
    let next_req_id = c.tally.arrivals;
    if let Some(&(no, id, _)) = reqs.last().filter(|&&(_, id, _)| id >= next_req_id) {
        let msg = format!("request id {id} is not below n_arrivals {next_req_id}");
        return Err(LineError::new(no, msg));
    }
    let pending = u64::from(next_arrival.is_some());
    if next_req_id.checked_add(pending) != Some(issued) {
        return Err(source_line.error(format!(
            "the source has issued {issued} arrivals, but the snapshot holds {next_req_id} \
             processed and {pending} pending — different arrival flags?"
        )));
    }
    // The pending arrival is the last one the source issued. With none
    // pending, the run stops by the drain deadline armed at the last one.
    if let Some((no, ev)) = next_arrival.as_ref().filter(|(_, ev)| ev.t != last) {
        let t = ev.t;
        let msg = format!("pending arrival at t = {t}, but the source's last was at {last}");
        return Err(LineError::new(*no, msg));
    }
    if now > last + DRAIN_TIMEOUT_S {
        let msg = format!("\"now\" {now} is past the drain deadline after the arrival at {last}");
        return Err(h.error(msg));
    }
    for (_, id, r) in reqs {
        c.inflight.insert(id, r);
    }
    let dangling = id_refs
        .iter()
        .find(|&&(_, id)| !c.inflight.contains_key(id));
    if let Some(&(no, id)) = dangling {
        let msg = format!("request id {id} is not in the \"req\" section");
        return Err(LineError::new(no, msg));
    }
    c.next_arrival = next_arrival.map(|(_, ev)| ev);
    c.plane_next_close_s = c
        .plane
        .as_ref()
        .map_or(f64::INFINITY, ObsPlane::next_close_s);
    Ok((c, counters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{Arrival, ArrivalModel};
    use enprop_obs::NoopRecorder;

    fn reader(text: &str) -> Reader<'_> {
        let line = Line::parse(1, text.trim_end()).expect("a line the writer emits parses");
        Reader(line, 1)
    }

    /// One line of section `sec` with the fields `walk` hands over.
    fn encoded(sec: &str, walk: impl FnOnce(&mut Encoder) -> Walked) -> String {
        let mut e = Encoder::default();
        e.line(sec, walk)
            .expect("a walk over a valid value writes it");
        String::from_utf8(e.out).unwrap()
    }

    /// Every checkpoint of a faulted run (rack crashes, power emergencies,
    /// best-effort traffic), restored and encoded again with the restored
    /// controller's first event, is the checkpoint byte for byte: the
    /// reader and the writer agree on every key.
    #[test]
    fn every_checkpoint_restores_and_encodes_to_itself() {
        use crate::arrivals::{ArrivalModel, SyntheticArrivals};
        use crate::config::ServeConfig;
        use crate::controller::{cluster_capacity_ops_s, default_ops_per_request, RunHooks};
        use enprop_clustersim::ClusterSpec;
        use enprop_faults::{
            DomainFaultProfile, FaultPlan, GroupFaultProfile, MtbfModel, TopologyFaultPlan,
        };
        use enprop_obs::MemoryRecorder;

        let workload = enprop_workloads::catalog::by_name("EP").unwrap();
        let cluster = ClusterSpec::a9_k10(3, 1);
        let kinds = vec![
            (1.0, FaultKind::Crash),
            (1.0, FaultKind::Stall { duration_s: 1.0 }),
            (1.0, FaultKind::Straggler { slowdown: 3.0 }),
        ];
        let profile = GroupFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s: 8.0 },
            kinds,
        };
        let plan = FaultPlan::uniform(5, profile, cluster.groups.len());
        let domain = |kinds| DomainFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s: 3.0 },
            kinds,
        };
        let topo = TopologyFaultPlan {
            seed: 5,
            topology: Topology::new(4, 2, 1).unwrap(),
            rack: domain(vec![
                (1.0, DomainFaultKind::RackCrash),
                (1.0, DomainFaultKind::NetworkPartition { duration_s: 0.5 }),
            ]),
            pdu: domain(vec![(1.0, DomainFaultKind::PduLoss)]),
            cluster: domain(vec![(
                1.0,
                DomainFaultKind::PowerEmergency {
                    cap_w: 40.0,
                    duration_s: 2.0,
                },
            )]),
        };
        let mut cfg = ServeConfig::new(5);
        cfg.repair_s = 1.0;
        cfg.breaker_failures = 3;
        cfg.breaker_open_s = 0.5;
        cfg.max_pending = 64;
        cfg.obs_window_s = 0.25;
        let ops = default_ops_per_request(&workload, &cluster).unwrap();
        let rate = 0.9 * cluster_capacity_ops_s(&workload, &cluster).unwrap() / ops;
        let source = || {
            let model = ArrivalModel::Poisson { rate };
            let s = SyntheticArrivals::new(model, 500, ops, 0.3, 5).unwrap();
            ArrivalSource::Synthetic(s.with_best_effort(0.4).unwrap())
        };

        let mut checkpoints: Vec<String> = Vec::new();
        let mut sink = |text: &str| checkpoints.push(text.to_string());
        let mut hooks = RunHooks {
            live: &mut |_| {},
            checkpoint: Some(&mut sink),
            kill_after_events: None,
        };
        let mut rec = MemoryRecorder::new();
        let run = Controller::run_full(
            &workload,
            &cluster,
            &plan,
            Some(&topo),
            &cfg,
            &mut source(),
            &mut rec,
            &mut hooks,
        );
        let crate::controller::RunOutcome::Completed(report) = run.unwrap() else {
            panic!("no kill hook installed")
        };
        // The scenario reaches what it is for: domain faults, the ladder
        // and breakers.
        assert!(report.rack_crashes > 0 && report.pdu_losses > 0 && report.partitions > 0);
        assert!(report.emergency_actions > 0 && report.breaker_opens > 0);
        for (i, text) in checkpoints.iter().enumerate() {
            let fresh = Controller::new(&workload, &cluster, &plan, Some(&topo), &cfg).unwrap();
            let mut src = source();
            let (mut c, counters) = restore(fresh, text, &mut src).unwrap();
            let first = c.next_event().unwrap();
            let counters: Vec<(&str, u64)> =
                counters.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            let again = Encoder::default()
                .encode(&mut c, &first, &mut src, &counters)
                .to_string();
            assert!(again == *text, "checkpoint {i} does not encode to itself");
        }
    }

    #[test]
    fn the_reader_checks_ranges_and_shapes() {
        let mut l = reader("{\"x\":3,\"f\":2,\"xs\":[1,2,3,4],\"odd\":[1,2,3]}");
        assert_eq!(l.below(2, 3, "node").unwrap(), 2);
        let err = l.below(92, 3, "event node").unwrap_err().to_string();
        assert!(
            err.starts_with("line 1: event node 92 out of range"),
            "{err}"
        );
        let mut ring = VecDeque::<(u64, u64)>::new();
        l.flat("xs", &mut ring).unwrap();
        assert_eq!(ring, [(1, 2), (3, 4)]);
        assert!(l.flat("odd", &mut ring).is_err());
        assert!(l.flag("f", &mut false).is_err());
        let mut x = 0_u8;
        l.int("x", &mut x).unwrap();
        assert_eq!(x, 3);
        assert!(l.narrow::<u8>(256, "class").is_err());
        assert!(l.expect("x", 3).is_ok() && l.expect("x", 2).is_err());
    }

    fn pushed(v: u64) -> String {
        let mut out = Vec::new();
        push_u64(&mut out, v);
        String::from_utf8(out).unwrap()
    }

    /// Every digit count, each side of every power of ten, and a negative
    /// sketch key's two's-complement word.
    #[test]
    fn push_u64_writes_what_to_string_writes() {
        let mut vs = vec![0, u64::MAX, i64::from(-204) as u64];
        for k in 1..=19 {
            let p = 10_u64.pow(k);
            vs.extend([p - 1, p, p + 1]);
        }
        for v in vs {
            assert_eq!(pushed(v), v.to_string());
        }
    }

    proptest::proptest! {
        /// A random word shifted right by a random amount, so every digit
        /// count is drawn.
        #[test]
        fn push_u64_writes_what_to_string_writes_for_any_word(
            v in 0_u64..=u64::MAX,
            shift in 0_u32..64,
        ) {
            let v = v >> shift;
            proptest::prop_assert_eq!(pushed(v), v.to_string());
        }
    }

    #[test]
    fn event_encoding_round_trips_every_kind() {
        let evs = vec![
            Ev {
                t: 1.25,
                seq: 0,
                kind: EvKind::Arrival {
                    ops: 512.5,
                    class: 1,
                },
            },
            Ev {
                t: 2.0,
                seq: 1,
                kind: EvKind::Completion { node: 3, epoch: 9 },
            },
            Ev {
                t: 2.5,
                seq: 2,
                kind: EvKind::Timeout {
                    req: 17,
                    dispatch: 4,
                },
            },
            Ev {
                t: 3.0,
                seq: 3,
                kind: EvKind::Redispatch { req: 17 },
            },
            Ev {
                t: 3.5,
                seq: 4,
                kind: EvKind::Fault {
                    node: 1,
                    kind: FaultKind::Stall { duration_s: 0.75 },
                },
            },
            Ev {
                t: 4.0,
                seq: 5,
                kind: EvKind::FaultWindow { node: 0, window: 2 },
            },
            Ev {
                t: 4.5,
                seq: 6,
                kind: EvKind::StallEnd { node: 1 },
            },
            Ev {
                t: 5.0,
                seq: 7,
                kind: EvKind::StragglerEnd { node: 2 },
            },
            Ev {
                t: 5.5,
                seq: 8,
                kind: EvKind::Repair { node: 3 },
            },
            Ev {
                t: 6.0,
                seq: 9,
                kind: EvKind::HealthCheck,
            },
            Ev {
                t: 6.5,
                seq: 10,
                kind: EvKind::ControlTick,
            },
            Ev {
                t: 7.0,
                seq: 11,
                kind: EvKind::DrainDeadline,
            },
            Ev {
                t: 7.5,
                seq: 12,
                kind: EvKind::DomainWindow { window: 5 },
            },
            Ev {
                t: 8.0,
                seq: 13,
                kind: EvKind::DomainFault {
                    event: DomainEvent {
                        at_s: 0.125,
                        domain: Domain::Pdu(1),
                        kind: DomainFaultKind::PowerEmergency {
                            cap_w: 90.0,
                            duration_s: 30.0,
                        },
                    },
                },
            },
            Ev {
                t: 8.5,
                seq: 14,
                kind: EvKind::EmergencyEnd,
            },
        ];
        // 4 nodes, 2 per rack, 1 rack per PDU: racks 0..2, PDUs 0..2.
        let topo = Topology::new(4, 2, 1).unwrap();
        for ev in &evs {
            let text = encoded("ev", |w| event(w, &mut ev.clone(), 4, Some(&topo)));
            let mut back = Ev {
                t: 0.0,
                seq: 0,
                kind: EvKind::HealthCheck,
            };
            event(&mut reader(&text), &mut back, 4, Some(&topo)).expect("round trip");
            assert_eq!(back.t.to_bits(), ev.t.to_bits());
            assert_eq!(back.seq, ev.seq);
            // EvKind carries no PartialEq; compare through the encoding.
            assert_eq!(encoded("ev", |w| event(w, &mut back, 4, Some(&topo))), text);
            // One node fewer, or no topology, and an index points nowhere.
            let topo = Topology::new(2, 2, 1).ok();
            let shrunk = event(&mut reader(&text), &mut back, 3, topo.as_ref());
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
        let text = encoded("sketch", |w| sketch_line(w, 2, &mut s.clone()));
        let mut back = QuantileSketch::with_max_buckets(0.01, 64).state();
        sketch_line(&mut reader(&text), 2, &mut back).expect("round trip");
        assert_eq!(back, s);
    }

    /// 1 s windows, `groups` groups, 0.1 s SLO.
    fn plane_of(groups: usize) -> ObsPlane {
        ObsPlane::new(1.0, groups, 0.1)
    }

    /// Complete a request in the plane's current window, keying the
    /// response the way the controller does.
    fn complete(p: &mut ObsPlane, resp_s: f64, group: u16) {
        p.on_completion(resp_s, group, QuantileSketch::new(0.01).key_for(resp_s));
    }

    /// `p`'s lines at clock `now`, and `lines` read back onto `p`.
    fn plane_text(p: &mut ObsPlane, now: f64) -> String {
        let mut e = Encoder::default();
        e.plane_lines(p, now).expect("a live plane's lines");
        String::from_utf8(e.out).unwrap()
    }

    fn read_plane_text(lines: &[&str], p: &mut ObsPlane, now: f64) -> Walked {
        read_plane(&mut Body::parse(lines, lines.len() + 1)?, p, now)
    }

    /// A plane checkpointed mid-window and read back onto a fresh plane
    /// writes the same lines and closes its remaining windows as the
    /// original does: the same reports, the same burn transitions. A plane
    /// with another group count does not take the lines.
    #[test]
    fn plane_lines_restore_a_plane_that_closes_windows_alike() {
        let mut a = plane_of(4);
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
        let text = plane_text(&mut a, 1.2);
        let lines: Vec<&str> = text.lines().collect();
        let mut b = plane_of(4);
        read_plane_text(&lines, &mut b, 1.2).expect("restore");
        assert_eq!(
            plane_text(&mut b, 1.2),
            text,
            "lines → plane → lines is identity"
        );
        assert!(read_plane_text(&lines, &mut plane_of(2), 1.2).is_err());

        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        let mut rec_a = enprop_obs::MemoryRecorder::new();
        let mut rec_b = enprop_obs::MemoryRecorder::new();
        for (plane, out, rec) in [(&mut a, &mut ra, &mut rec_a), (&mut b, &mut rb, &mut rec_b)] {
            complete(plane, 0.03, 0);
            plane.roll_to(3.0, rec, &mut |r| out.push(r.clone()));
        }
        // Debug text: drained-window quantiles are NaN, which Vec equality
        // would reject even when bit-for-bit identical runs produced them.
        assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
        assert_eq!(rec_a.events(), rec_b.events());
        assert_eq!(a.burn_alert(), b.burn_alert());
    }

    /// A synthetic cursor seats on a fresh source of the same flags and
    /// counts what it issued. A cursor time that is not a time, a cursor
    /// past the stream, a replay cursor past its trace and a cursor of the
    /// other kind are refused.
    #[test]
    fn source_lines_seat_the_cursor_and_count_what_it_issued() {
        let m = ArrivalModel::Poisson { rate: 10.0 };
        let fresh = || ArrivalSource::Synthetic(SyntheticArrivals::new(m, 5, 1.0, 0.0, 1).unwrap());
        let seat = |text: &str, src: &mut ArrivalSource| source(&mut reader(text), src);
        let mut src = fresh();
        src.next_arrival();
        let t = src.next_arrival().unwrap().t_s;
        let text = encoded("source", |w| source(w, &mut src).map(|_| ()));
        let mut back = fresh();
        assert_eq!(seat(&text, &mut back), Ok((2, t)));
        let at = |v: f64| format!("\"t\":{}", v.to_bits());
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let edited = text.replace(&at(t), &at(bad));
            assert!(seat(&edited, &mut fresh()).is_err(), "cursor time {bad}");
        }
        let past_the_stream = text.replace("\"remaining\":3", "\"remaining\":6");
        assert!(seat(&past_the_stream, &mut fresh()).is_err());
        let trace = vec![Arrival {
            t_s: 0.5,
            ops: 1.0,
            class: 0,
        }];
        let mut replay = ArrivalSource::Replay(ReplayCursor::new(trace));
        for (next, issued) in [(0, Ok((0, 0.0))), (1, Ok((1, 0.5)))] {
            let text = format!("{{\"sec\":\"source\",\"kind\":1,\"next\":{next}}}");
            assert_eq!(seat(&text, &mut replay), issued);
            assert!(
                seat(&text, &mut fresh()).is_err(),
                "a replay cursor on a generator"
            );
        }
        assert!(seat("{\"sec\":\"source\",\"kind\":1,\"next\":2}", &mut replay).is_err());
        assert!(
            seat(&text, &mut replay).is_err(),
            "a generator cursor on a trace"
        );
    }
}
