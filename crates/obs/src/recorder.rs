//! The [`Recorder`] trait and its three sinks: no-op (compiles away),
//! in-memory (collects everything), and a runtime on/off enum.

use crate::event::{EventKind, PowerSample, TraceEvent, Track};
use crate::sketch::QuantileSketch;
use std::collections::BTreeMap;

/// A telemetry sink. Simulator hot loops are generic over `R: Recorder`
/// (static dispatch); `R::ACTIVE` gates any bookkeeping an instrumented
/// path would otherwise pay for, so a [`NoopRecorder`] instantiation
/// monomorphizes to the uninstrumented code.
pub trait Recorder {
    /// Whether this recorder type can ever record. `false` lets the
    /// compiler erase instrumentation branches entirely.
    const ACTIVE: bool;

    /// Whether this *instance* records right now (a [`SwitchRecorder`]
    /// may be `Off` even though its type is `ACTIVE`).
    fn enabled(&self) -> bool {
        Self::ACTIVE
    }

    /// Open a span at sim-time `t_s`; pair with [`Recorder::span_end`]
    /// using the same `(track, name, id)`.
    fn span_begin(&mut self, t_s: f64, track: Track, name: &'static str, id: u64);

    /// Close a span.
    fn span_end(&mut self, t_s: f64, track: Track, name: &'static str, id: u64);

    /// Record a point event carrying one value.
    fn instant(&mut self, t_s: f64, track: Track, name: &'static str, value: f64);

    /// Increment a monotonic counter and record the running total as an
    /// event on `track`.
    fn counter(&mut self, t_s: f64, track: Track, name: &'static str, delta: u64);

    /// Increment a monotonic counter *without* a per-event trace record —
    /// for hot loops where only the aggregate matters.
    fn tally(&mut self, name: &'static str, delta: u64);

    /// Record a sampled level (queue depth, power, …).
    fn gauge(&mut self, t_s: f64, track: Track, name: &'static str, value: f64);

    /// Record a per-component power sample.
    fn power(&mut self, t_s: f64, track: Track, sample: PowerSample);

    /// Record one observation into `name`'s quantile sketch (aggregate
    /// only, no trace event).
    fn observe(&mut self, name: &'static str, value: f64);

    /// Aggregate counter totals, for sinks that keep them. Checkpointing
    /// callers persist these so a resumed run's [`Recorder::counter`]
    /// events continue the original running totals instead of restarting
    /// at zero. Sinks without aggregate state return nothing.
    fn counter_snapshot(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Seed a counter total captured by [`Recorder::counter_snapshot`]
    /// before resuming a checkpointed run. Sinks without aggregate state
    /// ignore it.
    fn counter_restore(&mut self, _name: &'static str, _total: u64) {}
}

/// The do-nothing sink: every method is an empty inline body and
/// `ACTIVE == false`, so instrumented code paths compile to exactly the
/// uninstrumented machine code.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn span_begin(&mut self, _: f64, _: Track, _: &'static str, _: u64) {}
    #[inline(always)]
    fn span_end(&mut self, _: f64, _: Track, _: &'static str, _: u64) {}
    #[inline(always)]
    fn instant(&mut self, _: f64, _: Track, _: &'static str, _: f64) {}
    #[inline(always)]
    fn counter(&mut self, _: f64, _: Track, _: &'static str, _: u64) {}
    #[inline(always)]
    fn tally(&mut self, _: &'static str, _: u64) {}
    #[inline(always)]
    fn gauge(&mut self, _: f64, _: Track, _: &'static str, _: f64) {}
    #[inline(always)]
    fn power(&mut self, _: f64, _: Track, _: PowerSample) {}
    #[inline(always)]
    fn observe(&mut self, _: &'static str, _: f64) {}
}

/// An in-memory sink: an append-only event stream plus aggregate counters
/// and one quantile sketch per observed name. All maps are `BTreeMap`s so iteration (and therefore
/// every exporter) is deterministic.
#[derive(Debug, Clone, Default)]
pub struct MemoryRecorder {
    events: Vec<TraceEvent>,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, QuantileSketch>,
}

impl MemoryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded event stream, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Aggregate counter totals (includes [`Recorder::tally`] bumps).
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// The observed names' sketches (α = [`crate::DEFAULT_SKETCH_ALPHA`]).
    pub fn histograms(&self) -> &BTreeMap<&'static str, QuantileSketch> {
        &self.hists
    }

    /// Pre-register a counter at zero so it appears in metric snapshots
    /// even when nothing ever increments it (e.g. a retry counter on a
    /// fault-free run).
    pub fn declare_counter(&mut self, name: &'static str) {
        self.counters.entry(name).or_insert(0);
    }

    /// Number of recorded trace events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.counters.is_empty() && self.hists.is_empty()
    }
}

impl Recorder for MemoryRecorder {
    const ACTIVE: bool = true;

    fn span_begin(&mut self, t_s: f64, track: Track, name: &'static str, id: u64) {
        self.events.push(TraceEvent {
            t_s,
            track,
            name,
            id,
            kind: EventKind::SpanBegin,
        });
    }

    fn span_end(&mut self, t_s: f64, track: Track, name: &'static str, id: u64) {
        self.events.push(TraceEvent {
            t_s,
            track,
            name,
            id,
            kind: EventKind::SpanEnd,
        });
    }

    fn instant(&mut self, t_s: f64, track: Track, name: &'static str, value: f64) {
        self.events.push(TraceEvent {
            t_s,
            track,
            name,
            id: 0,
            kind: EventKind::Instant { value },
        });
    }

    fn counter(&mut self, t_s: f64, track: Track, name: &'static str, delta: u64) {
        let total = self.counters.entry(name).or_insert(0);
        *total += delta;
        let total = *total;
        self.events.push(TraceEvent {
            t_s,
            track,
            name,
            id: 0,
            kind: EventKind::Counter { total },
        });
    }

    fn tally(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    fn gauge(&mut self, t_s: f64, track: Track, name: &'static str, value: f64) {
        self.events.push(TraceEvent {
            t_s,
            track,
            name,
            id: 0,
            kind: EventKind::Gauge { value },
        });
    }

    fn power(&mut self, t_s: f64, track: Track, sample: PowerSample) {
        self.events.push(TraceEvent {
            t_s,
            track,
            name: "power",
            id: 0,
            kind: EventKind::Power { sample },
        });
    }

    fn observe(&mut self, name: &'static str, value: f64) {
        self.hists.entry(name).or_default().observe(value);
    }

    fn counter_snapshot(&self) -> Vec<(&'static str, u64)> {
        self.counters.iter().map(|(&n, &v)| (n, v)).collect()
    }

    fn counter_restore(&mut self, name: &'static str, total: u64) {
        self.counters.insert(name, total);
    }
}

/// Runtime on/off recorder — the *enum dispatch* the CLI threads through
/// command entry points: one branch per event when `Off`, full recording
/// when `On`. Hot inner loops still take `R: Recorder` generically; this
/// enum is for the outer layers where a branch is free.
#[derive(Debug, Clone, Default)]
pub enum SwitchRecorder {
    /// Recording disabled; every call is a cheap branch-and-return.
    #[default]
    Off,
    /// Recording into the wrapped in-memory sink.
    On(MemoryRecorder),
}

impl SwitchRecorder {
    /// An enabled recorder with an empty buffer.
    pub fn on() -> Self {
        SwitchRecorder::On(MemoryRecorder::new())
    }

    /// The in-memory sink, when recording.
    pub fn as_memory(&self) -> Option<&MemoryRecorder> {
        match self {
            SwitchRecorder::Off => None,
            SwitchRecorder::On(m) => Some(m),
        }
    }

    /// The in-memory sink, mutably, when recording.
    pub fn as_memory_mut(&mut self) -> Option<&mut MemoryRecorder> {
        match self {
            SwitchRecorder::Off => None,
            SwitchRecorder::On(m) => Some(m),
        }
    }
}

macro_rules! forward {
    ($self:ident, $m:ident $(, $arg:expr)*) => {
        if let SwitchRecorder::On(mem) = $self {
            mem.$m($($arg),*);
        }
    };
}

impl Recorder for SwitchRecorder {
    const ACTIVE: bool = true;

    fn enabled(&self) -> bool {
        matches!(self, SwitchRecorder::On(_))
    }

    fn span_begin(&mut self, t_s: f64, track: Track, name: &'static str, id: u64) {
        forward!(self, span_begin, t_s, track, name, id);
    }
    fn span_end(&mut self, t_s: f64, track: Track, name: &'static str, id: u64) {
        forward!(self, span_end, t_s, track, name, id);
    }
    fn instant(&mut self, t_s: f64, track: Track, name: &'static str, value: f64) {
        forward!(self, instant, t_s, track, name, value);
    }
    fn counter(&mut self, t_s: f64, track: Track, name: &'static str, delta: u64) {
        forward!(self, counter, t_s, track, name, delta);
    }
    fn tally(&mut self, name: &'static str, delta: u64) {
        forward!(self, tally, name, delta);
    }
    fn gauge(&mut self, t_s: f64, track: Track, name: &'static str, value: f64) {
        forward!(self, gauge, t_s, track, name, value);
    }
    fn power(&mut self, t_s: f64, track: Track, sample: PowerSample) {
        forward!(self, power, t_s, track, sample);
    }
    fn observe(&mut self, name: &'static str, value: f64) {
        forward!(self, observe, name, value);
    }
    fn counter_snapshot(&self) -> Vec<(&'static str, u64)> {
        match self {
            SwitchRecorder::Off => Vec::new(),
            SwitchRecorder::On(m) => m.counter_snapshot(),
        }
    }
    fn counter_restore(&mut self, name: &'static str, total: u64) {
        forward!(self, counter_restore, name, total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Compile-time guarantee: the no-op sink can never gate work on.
    const _: () = assert!(!NoopRecorder::ACTIVE);
    const _: () = assert!(SwitchRecorder::ACTIVE);

    #[test]
    fn noop_is_inactive_and_records_nothing() {
        let mut r = NoopRecorder;
        assert!(!r.enabled());
        r.span_begin(0.0, Track::Cluster, "x", 0);
        r.counter(0.0, Track::Cluster, "c", 1);
    }

    #[test]
    fn counters_are_monotone_running_totals() {
        let mut r = MemoryRecorder::new();
        r.counter(0.0, Track::Cluster, "c", 2);
        r.counter(1.0, Track::Cluster, "c", 3);
        r.tally("c", 5);
        assert_eq!(r.counters()["c"], 10);
        let totals: Vec<u64> = r
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Counter { total } => Some(total),
                _ => None,
            })
            .collect();
        assert_eq!(totals, [2, 5]);
    }

    #[test]
    fn declared_series_exist_at_zero() {
        let mut r = MemoryRecorder::new();
        r.declare_counter("dispatch.retries");
        assert_eq!(r.counters()["dispatch.retries"], 0);
    }

    #[test]
    fn switch_off_drops_everything_on_records() {
        let mut off = SwitchRecorder::Off;
        off.span_begin(0.0, Track::Dispatcher, "s", 1);
        assert!(!off.enabled());
        assert!(off.as_memory().is_none());

        let mut on = SwitchRecorder::on();
        assert!(on.enabled());
        on.span_begin(0.0, Track::Dispatcher, "s", 1);
        on.observe("h", 1.0);
        let m = on.as_memory().unwrap();
        assert_eq!(m.events().len(), 1);
        assert_eq!(m.histograms()["h"].count(), 1);
    }
}
