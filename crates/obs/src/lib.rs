//! # enprop-obs
//!
//! A lightweight structured-telemetry layer for the enprop simulators,
//! keyed to **simulated time** (the `f64` seconds the discrete-event
//! engines advance), not wall-clock time. The paper's whole method is
//! observation — a WT210 power meter and `perf` counters feeding the
//! time-energy model — and this crate plays that role for the simulated
//! testbed: every layer (node DES engine, cluster dispatch/retry, queueing
//! DES) emits spans, counters, gauges and per-component power samples
//! through a [`Recorder`].
//!
//! ## Dispatch discipline
//!
//! Hot loops are generic over `R: Recorder` — **static dispatch, never
//! `dyn`**. [`NoopRecorder`] has `ACTIVE == false` and empty inline
//! methods, so the uninstrumented path monomorphizes to exactly the code
//! that existed before instrumentation (bit-identical output, no
//! measurable overhead). [`SwitchRecorder`] is the runtime on/off *enum*
//! the CLI threads through command entry points, where a branch per event
//! is negligible.
//!
//! ```
//! use enprop_obs::{MemoryRecorder, Recorder, Track};
//!
//! let mut rec = MemoryRecorder::new();
//! rec.span_begin(0.0, Track::Cluster, "job", 1);
//! rec.counter(0.5, Track::Cluster, "dispatch.jobs", 1);
//! rec.span_end(2.0, Track::Cluster, "job", 1);
//! assert_eq!(rec.events().len(), 3);
//! let trace = enprop_obs::chrome_trace(rec.events());
//! assert!(trace.contains("traceEvents"));
//! ```
//!
//! Exporters are deterministic: the same event stream always serializes to
//! the same bytes (all aggregate maps are `BTreeMap`s; floats use Rust's
//! shortest-roundtrip `Display`).

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod event;
mod export;
mod line;
mod metrics;
mod profile;
mod recorder;
mod sketch;

pub use event::{EventKind, PowerSample, TraceEvent, Track};
pub use export::{chrome_trace, jsonl, parse_jsonl, ParsedEvent, ParsedKind};
pub use line::{Line, LineError};
pub use metrics::{MetricsSnapshot, SpanStats, METRICS_SCHEMA};
pub use profile::{
    append_bench_record, parse_bench_records, peak_rss_kb, BenchRecord, CommandTimer,
};
pub use recorder::{MemoryRecorder, NoopRecorder, Recorder, SwitchRecorder};
pub use sketch::{QuantileSketch, SketchState, DEFAULT_MAX_BUCKETS, DEFAULT_SKETCH_ALPHA};
