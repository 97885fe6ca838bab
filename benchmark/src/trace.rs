//! Spans recorded by the benchmark around its own calls into each layer's
//! public functions. Nothing inside the library crates is instrumented:
//! a layer's time here is the wall time of the calls the benchmark makes
//! into it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. Iteration spans have no parent; layer spans name
/// the iteration span that contains them.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `queueing.md1_p95`, or `iter`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Benchmark iteration the span belongs to.
    pub iter: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. When off, [`Tracer::span`] only runs the
/// closure, so untraced iterations pay nothing for the instrumentation.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open_iter: Option<usize>,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_on`].
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open_iter: None,
        }
    }

    /// Record (or stop recording) the following iterations.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open the span of iteration `i` (no-op when off).
    pub fn begin_iter(&mut self, i: u64) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        self.open_iter = Some(self.spans.len());
        self.spans.push(Span {
            name: "iter",
            start_ns: now,
            end_ns: now,
            parent: None,
            iter: i,
        });
    }

    /// Close the open iteration span.
    pub fn end_iter(&mut self) {
        if let Some(idx) = self.open_iter.take() {
            let now = self.now_ns();
            self.spans[idx].end_ns = now;
        }
    }

    /// Run `f` as one call into layer `name`, timing it when on.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let iter = self.open_iter.map_or(0, |i| self.spans[i].iter);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open_iter,
            iter,
        });
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-iteration layer totals of the recorded iterations.
    pub fn layer_times(&self) -> LayerTimes {
        let mut iters: Vec<IterTimes> = Vec::new();
        let mut index_of: BTreeMap<usize, usize> = BTreeMap::new();
        for (idx, s) in self.spans.iter().enumerate() {
            match s.parent {
                None => {
                    index_of.insert(idx, iters.len());
                    iters.push(IterTimes {
                        wall_ns: s.ns(),
                        layers: BTreeMap::new(),
                    });
                }
                Some(p) => {
                    if let Some(&k) = index_of.get(&p) {
                        *iters[k].layers.entry(s.name).or_insert(0) += s.ns();
                    }
                }
            }
        }
        LayerTimes { iters }
    }

    /// The spans as JSON lines: `{"name":..,"start_ns":..,"end_ns":..,
    /// "parent":..,"iter":..}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"iter\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.iter
            );
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// One traced iteration: its wall time and the summed time of each layer
/// called from it.
#[derive(Debug, Clone)]
pub struct IterTimes {
    /// Iteration wall time, ns.
    pub wall_ns: u64,
    /// Summed span time per layer name, ns.
    pub layers: BTreeMap<&'static str, u64>,
}

/// Layer totals of every traced iteration.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// One entry per traced iteration, in run order.
    pub iters: Vec<IterTimes>,
}

impl LayerTimes {
    /// Median over traced iterations of the time spent in `layer`, ms
    /// (iterations that never called it count as 0).
    pub fn median_ms(&self, layer: &str) -> f64 {
        let xs: Vec<f64> = self
            .iters
            .iter()
            .map(|it| it.layers.get(layer).copied().unwrap_or(0) as f64 / 1e6)
            .collect();
        crate::stats::median(&xs)
    }

    /// Median over traced iterations of the share of the iteration wall
    /// time not covered by any layer span.
    pub fn unattributed_frac(&self) -> f64 {
        let xs: Vec<f64> = self
            .iters
            .iter()
            .filter(|it| it.wall_ns > 0)
            .map(|it| {
                let covered: u64 = it.layers.values().sum();
                1.0 - covered as f64 / it.wall_ns as f64
            })
            .collect();
        crate::stats::median(&xs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_attach_to_their_iteration() {
        let mut t = Tracer::new();
        t.span("ignored", || ()); // off: not recorded
        t.set_on(true);
        t.begin_iter(3);
        let v = t.span("core.table4", || 41 + 1);
        t.span("queueing.des", || ());
        t.span("queueing.des", || ());
        t.end_iter();
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 4);
        assert!(t.spans()[1..]
            .iter()
            .all(|s| s.parent == Some(0) && s.iter == 3));
        let lt = t.layer_times();
        assert_eq!(lt.iters.len(), 1);
        assert_eq!(lt.iters[0].layers.len(), 2);
        let f = lt.unattributed_frac();
        assert!((0.0..=1.0).contains(&f), "{f}");
        assert_eq!(t.to_jsonl().lines().count(), 4);
        assert!(t.to_jsonl().starts_with("{\"name\":\"iter\""));
    }
}
