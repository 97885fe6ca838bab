//! The event vocabulary: tracks, kinds and the flat [`TraceEvent`] record.

/// Which logical timeline an event belongs to. Tracks map to Perfetto
/// threads in the Chrome exporter (one row per track).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// Cluster-level job lifecycle (dispatch, attempts, recovery).
    Cluster,
    /// The front-end dispatcher queue.
    Dispatcher,
    /// Configuration-space exploration. Events on this track use
    /// *config-index* time (the position in the enumeration order), not
    /// seconds: evaluation is model arithmetic, not a simulated timeline,
    /// and index time keeps the trace bit-identical for any thread count.
    Explore,
    /// The online serving controller: reconfiguration decisions, SLO /
    /// power-cap gauges and shed-mode spans (DESIGN.md §13).
    Controller,
    /// One simulated node, addressed by group and index within the group.
    Node {
        /// Node-group index in the cluster spec.
        group: u16,
        /// Node index within its group.
        node: u16,
    },
    /// One node *group* as a whole — per-group aggregates from the
    /// observability plane (energy attribution, EP index, J/request).
    Group {
        /// Node-group index in the cluster spec.
        group: u16,
    },
}

impl Track {
    /// Stable Chrome trace-event thread id for this track.
    pub fn tid(self) -> u64 {
        match self {
            Track::Cluster => 1,
            Track::Dispatcher => 2,
            // 3 stays unused so that no other track's tid moves.
            Track::Explore => 4,
            Track::Controller => 5,
            Track::Node { group, node } => 16 + u64::from(group) * 1024 + u64::from(node),
            // Offset past the entire Node range (16 + 65535*1024 + 65535).
            Track::Group { group } => (1 << 32) + u64::from(group),
        }
    }

    /// Human-readable track label (Perfetto thread name).
    pub fn label(self) -> String {
        match self {
            Track::Cluster => "cluster".into(),
            Track::Dispatcher => "dispatcher".into(),
            Track::Explore => "explore".into(),
            Track::Controller => "controller".into(),
            Track::Node { group, node } => format!("node g{group}.n{node}"),
            Track::Group { group } => format!("group g{group}"),
        }
    }
}

/// One per-component power observation, watts — the simulated counterpart
/// of the paper's Table 1 parameters (`P_CPU,act`, `P_CPU,stall`, `P_mem`,
/// `P_net`, `P_sys,idle`), averaged over a node run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerSample {
    /// Active-core power, watts.
    pub cpu_act_w: f64,
    /// Stalled-core power, watts.
    pub cpu_stall_w: f64,
    /// Memory-controller power, watts.
    pub mem_w: f64,
    /// NIC power, watts.
    pub net_w: f64,
    /// System idle (base) power, watts.
    pub idle_w: f64,
}

impl PowerSample {
    /// Sum of all components, watts.
    pub fn total_w(&self) -> f64 {
        self.cpu_act_w + self.cpu_stall_w + self.mem_w + self.net_w + self.idle_w
    }
}

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A span opens (matched to a [`EventKind::SpanEnd`] with the same
    /// `(track, name, id)`).
    SpanBegin,
    /// A span closes.
    SpanEnd,
    /// A point event carrying one value.
    Instant {
        /// The observed value (unit is implied by the event name).
        value: f64,
    },
    /// A monotonic counter increment; `total` is the running total *after*
    /// this increment, so the series is monotone by construction.
    Counter {
        /// Running counter total after this event.
        total: u64,
    },
    /// A sampled level (queue depth, power level, …).
    Gauge {
        /// The sampled value.
        value: f64,
    },
    /// A per-component power sample.
    Power {
        /// The component breakdown.
        sample: PowerSample,
    },
}

/// One telemetry event, stamped with simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulated time, seconds.
    pub t_s: f64,
    /// Timeline the event belongs to.
    pub track: Track,
    /// Event name (a stable, dot-namespaced identifier).
    pub name: &'static str,
    /// Correlation id — pairs span begin/end and distinguishes overlapping
    /// spans of the same name (job seeds, arrival indices, …).
    pub id: u64,
    /// Payload.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn track_tids_are_distinct() {
        let tracks = [
            Track::Cluster,
            Track::Dispatcher,
            Track::Explore,
            Track::Controller,
            Track::Node { group: 0, node: 0 },
            Track::Node { group: 0, node: 1 },
            Track::Node { group: 1, node: 0 },
            Track::Group { group: 0 },
            Track::Group { group: 1 },
            Track::Node {
                group: u16::MAX,
                node: u16::MAX,
            },
        ];
        for (i, a) in tracks.iter().enumerate() {
            for b in &tracks[i + 1..] {
                assert_ne!(a.tid(), b.tid(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn power_sample_totals_components() {
        let s = PowerSample {
            cpu_act_w: 1.0,
            cpu_stall_w: 2.0,
            mem_w: 3.0,
            net_w: 4.0,
            idle_w: 5.0,
        };
        assert_eq!(s.total_w(), 15.0);
    }
}
