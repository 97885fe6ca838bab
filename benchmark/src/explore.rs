//! The two configuration-space workloads.
//!
//! - `explore_paper_space` sweeps the paper's 32 A9 × 12 K10 space through
//!   the materialized path (`evaluate_space_with` + `EvalCache`, then
//!   `pareto_front` and `sweet_spot`), as `enprop pareto`/`sweet` do.
//! - `mega_stream` streams the first 10^6 configurations of two DALEK-style
//!   four-type spaces through `stream_pareto_front`, which prunes
//!   dominated configurations and never materializes the space.
//!
//! One workload exercises each evaluation path and bypasses the other, so
//! a change to one path should move only its own workload.

use crate::golden::{self, Digest};
use crate::trace::{LayerTimes, Tracer};
use crate::{stats, Bench, Layers, Size};
use enprop_explore::{
    configurations, count_configurations, evaluate_space_with, pareto_front, stream_pareto_front,
    sweet_spot, EvalOptions, EvalStats, EvaluatedConfig, StreamOptions, TypeSpace,
};
use enprop_faults::FaultRng;
use enprop_workloads::{catalog, Workload};
use std::time::Instant;

/// Deadline factors drawn per run; iteration `i` uses entry `i % len`.
const DEADLINE_DRAWS: usize = 1024;

fn frontier_digest(front: &[&EvaluatedConfig]) -> Digest {
    let mut d = Digest::new();
    for e in front {
        for g in &e.cluster.groups {
            d.str(g.spec.name);
            d.u64(u64::from(g.count));
            d.u64(u64::from(g.cores));
            d.f64(g.freq);
        }
        d.f64(e.job_time);
        d.f64(e.job_energy);
    }
    d
}

/// State of the `explore_paper_space` workload.
pub struct ExplorePaperSpace {
    workloads: Vec<Workload>,
    types: [TypeSpace; 2],
    space: String,
    deadline_factors: Vec<f64>,
    stats: Vec<EvalStats>,
}

impl ExplorePaperSpace {
    /// The paper's space at full size; 8 A9 × 4 K10 at tiny size.
    pub fn new(seed: u64, size: Size) -> Self {
        let (a9, k10) = match size {
            Size::Full => (32, 12),
            Size::Tiny => (8, 4),
        };
        let deadline_factors = (0..DEADLINE_DRAWS as u64)
            .map(|j| 1.0 + 3.0 * FaultRng::from_key(&[seed, 0x6465_6164, j]).unit())
            .collect();
        ExplorePaperSpace {
            workloads: catalog::all(),
            types: [TypeSpace::a9(a9), TypeSpace::k10(k10)],
            space: format!("a9:{a9},k10:{k10}"),
            deadline_factors,
            stats: Vec::new(),
        }
    }

    fn key(&self, w: &Workload) -> String {
        format!("{} {}", w.name, self.space)
    }

    fn sweep(&self, w: &Workload, t: &mut Tracer) -> (Vec<EvaluatedConfig>, EvalStats) {
        let opts = EvalOptions {
            threads: Some(1),
            cache: true,
        };
        t.span("explore.evaluate_space", || {
            evaluate_space_with(w, configurations(&self.types), opts)
        })
    }
}

impl Bench for ExplorePaperSpace {
    fn cycle(&self) -> u64 {
        self.workloads.len() as u64
    }

    fn iter(&mut self, i: u64, t: &mut Tracer) -> Result<f64, String> {
        let w = &self.workloads[(i % self.cycle()) as usize];
        let (evald, st) = self.sweep(w, t);
        let front = t.span("explore.pareto_front", || pareto_front(&evald));
        let fastest = front.first().ok_or("empty Pareto frontier")?.job_time;
        let deadline = fastest * self.deadline_factors[i as usize % DEADLINE_DRAWS];
        let spot = t.span("explore.sweet_spot", || sweet_spot(&evald, deadline));

        golden::check(
            golden::EXPLORE_PAPER_SPACE,
            &self.key(w),
            frontier_digest(&front),
        )?;
        // The minimum-energy configuration meeting a deadline is never
        // dominated, so the frontier must hold one with the same energy.
        let spot = spot.ok_or_else(|| format!("no configuration meets {deadline} s"))?;
        let front_best = front
            .iter()
            .filter(|e| e.job_time <= deadline)
            .map(|e| e.job_energy)
            .fold(f64::INFINITY, f64::min);
        if spot.job_time > deadline || spot.job_energy.to_bits() != front_best.to_bits() {
            return Err(format!(
                "{}: sweet spot ({} s, {} J) disagrees with the frontier's best {} J at deadline {deadline} s",
                w.name, spot.job_time, spot.job_energy, front_best
            ));
        }
        let n = evald.len();
        if n as u64 != count_configurations(&self.types) {
            return Err(format!(
                "evaluated {n} configurations, expected the whole space"
            ));
        }
        drop(front);
        // Freeing the materialized space is part of the materialized path.
        t.span("explore.evaluate_space", || drop(evald));
        self.stats.push(st);
        Ok(n as f64)
    }

    fn layers(&mut self, lt: &LayerTimes) -> Layers {
        let eval_ms = lt.median_ms("explore.evaluate_space");
        let configs = count_configurations(&self.types) as f64;
        let med = |f: &dyn Fn(&EvalStats) -> f64| {
            stats::median(&self.stats.iter().map(f).collect::<Vec<_>>())
        };
        vec![
            ("explore.evaluate_space.ms", eval_ms),
            (
                "explore.evaluate_space.configs_per_s",
                if eval_ms > 0.0 {
                    configs / (eval_ms / 1e3)
                } else {
                    0.0
                },
            ),
            (
                "explore.cache.hit_frac",
                med(&|s| {
                    s.cache
                        .map_or(0.0, |c| c.hits as f64 / (c.hits + c.misses).max(1) as f64)
                }),
            ),
            (
                "explore.cache.entries",
                med(&|s| s.cache.map_or(0.0, |c| c.entries as f64)),
            ),
            (
                "explore.pareto_front.ms",
                lt.median_ms("explore.pareto_front"),
            ),
            ("explore.sweet_spot.ms", lt.median_ms("explore.sweet_spot")),
            (
                "explore.peak_buffer_mb",
                med(&|s| s.peak_buffer_bytes as f64 / 1e6),
            ),
        ]
    }

    fn golden(&mut self) -> Vec<(String, Digest)> {
        let mut t = Tracer::new();
        self.workloads
            .iter()
            .map(|w| {
                let (evald, _) = self.sweep(w, &mut t);
                (self.key(w), frontier_digest(&pareto_front(&evald)))
            })
            .collect()
    }
}

/// The two DALEK-style type bounds of `mega_stream`.
const MEGA_TYPES: [[(&str, u32); 4]; 2] = [
    [("a9", 10), ("k10", 10), ("pi4", 16), ("opi5", 16)],
    [("a9", 16), ("k10", 8), ("pi4", 32), ("opi5", 8)],
];

fn type_label(bounds: &[(&str, u32)]) -> String {
    bounds
        .iter()
        .map(|(n, m)| format!("{n}:{m}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// State of the `mega_stream` workload.
pub struct MegaStream {
    workloads: Vec<Workload>,
    spaces: Vec<(String, Vec<TypeSpace>)>,
    max_configs: u64,
    stats: Vec<EvalStats>,
}

impl MegaStream {
    /// 10^6 configurations per call at full size, 10^4 at tiny size. The
    /// workload has no random inputs: every seed sweeps the same spaces.
    pub fn new(size: Size) -> Self {
        let workloads: Vec<Workload> = catalog::all()
            .iter()
            .map(|w| catalog::dalek(w.name).expect("every paper workload has a DALEK profile"))
            .collect();
        let spaces = MEGA_TYPES
            .iter()
            .map(|bounds| {
                let types = bounds
                    .iter()
                    .map(|&(n, m)| TypeSpace::try_named(n, m).expect("known node type"))
                    .collect();
                (type_label(bounds), types)
            })
            .collect();
        MegaStream {
            workloads,
            spaces,
            max_configs: match size {
                Size::Full => 1_000_000,
                Size::Tiny => 10_000,
            },
            stats: Vec::new(),
        }
    }

    fn pair(&self, k: u64) -> (&Workload, &(String, Vec<TypeSpace>)) {
        let k = k % self.cycle();
        let nw = self.workloads.len() as u64;
        (
            &self.workloads[(k % nw) as usize],
            &self.spaces[(k / nw) as usize],
        )
    }

    fn key(&self, w: &Workload, space: &str) -> String {
        format!("{} {space} {}", w.name, self.max_configs)
    }

    fn stream(
        &self,
        w: &Workload,
        types: &[TypeSpace],
        threads: usize,
    ) -> (Vec<enprop_explore::ParetoPoint>, EvalStats) {
        stream_pareto_front(
            w,
            types,
            StreamOptions {
                threads: Some(threads),
                max_configs: Some(self.max_configs),
                ..StreamOptions::default()
            },
        )
    }
}

fn stream_digest(front: &[enprop_explore::ParetoPoint]) -> Digest {
    let mut d = Digest::new();
    for p in front {
        d.u64(p.index);
        d.f64(p.eval.job_time);
        d.f64(p.eval.job_energy);
    }
    d
}

impl Bench for MegaStream {
    fn cycle(&self) -> u64 {
        (self.workloads.len() * self.spaces.len()) as u64
    }

    fn iter(&mut self, i: u64, t: &mut Tracer) -> Result<f64, String> {
        let (w, (label, types)) = self.pair(i);
        let (front, st) = t.span("explore.stream", || self.stream(w, types, 1));
        golden::check(
            golden::MEGA_STREAM,
            &self.key(w, label),
            stream_digest(&front),
        )?;
        if st.evaluated as u64 + st.pruned != self.max_configs {
            return Err(format!(
                "{} {label}: evaluated {} + pruned {} != {} configurations",
                w.name, st.evaluated, st.pruned, self.max_configs
            ));
        }
        t.span("explore.stream", || drop(front));
        self.stats.push(st);
        Ok(self.max_configs as f64)
    }

    fn layers(&mut self, lt: &LayerTimes) -> Layers {
        // Pool scaling of one fixed call: its time at 1 thread over its
        // time at 2, alternating, median of three each.
        let (w, (_, types)) = self.pair(0);
        let (mut one, mut two) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            for (threads, out) in [(1, &mut one), (2, &mut two)] {
                let t0 = Instant::now();
                std::hint::black_box(self.stream(w, types, threads));
                out.push(t0.elapsed().as_secs_f64());
            }
        }
        let scaling = stats::median(&one) / stats::median(&two);
        let med = |f: &dyn Fn(&EvalStats) -> f64| {
            stats::median(&self.stats.iter().map(f).collect::<Vec<_>>())
        };
        let cap = self.max_configs as f64;
        vec![
            ("explore.stream.ms", lt.median_ms("explore.stream")),
            ("explore.stream.prune_frac", med(&|s| s.pruned as f64 / cap)),
            (
                "explore.stream.frontier_len",
                med(&|s| s.frontier_len as f64),
            ),
            (
                "explore.stream.peak_buffer_kb",
                med(&|s| s.peak_buffer_bytes as f64 / 1024.0),
            ),
            (
                "explore.cache.entries",
                med(&|s| s.cache.map_or(0.0, |c| c.entries as f64)),
            ),
            ("explore.stream.scaling_2t", scaling),
        ]
    }

    fn golden(&mut self) -> Vec<(String, Digest)> {
        (0..self.cycle())
            .map(|k| {
                let (w, (label, types)) = self.pair(k);
                let (front, _) = self.stream(w, types, 1);
                (self.key(w, label), stream_digest(&front))
            })
            .collect()
    }
}
