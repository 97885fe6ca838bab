//! The node simulator: executes a job's work demand on a multicore node
//! and reports time and per-component energy.
//!
//! The execution model follows the paper's §II-D: work cycles split across
//! active cores; memory requests go through a single shared (UMA) memory
//! controller; out-of-order cores overlap compute with memory; a DMA NIC
//! overlaps network transfers with everything. On top of that idealized
//! model, [`Frictions`] injects the real-world effects an analytic model
//! cannot see — the source of the validation error the paper reports in
//! Table 4.

use crate::engine::EventQueue;
use crate::noise::Jitter;
use crate::power::EnergyBreakdown;
use crate::spec::NodeSpec;
use enprop_obs::{NoopRecorder, PowerSample, Recorder, Track};

/// Number of compute/memory interleaving chunks each core's slice is split
/// into; enough to let memory-controller contention emerge without
/// simulating individual cache lines.
const CHUNKS_PER_CORE: usize = 16;

/// A job's total work demand on one node (paper Table 1 workload
/// parameters, resolved to this node's share of the job).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeWork {
    /// CPU work cycles to retire, summed over cores.
    pub act_cycles: f64,
    /// Memory busy cycles (scale with core frequency, per the paper's
    /// `T_mem = cycles_mem / f` simplification).
    pub mem_cycles: f64,
    /// Bytes moved through the memory controller (bandwidth floor).
    pub mem_bytes: f64,
    /// Bytes transferred by the NIC.
    pub io_bytes: f64,
    /// Number of network requests (for the arrival-rate bound).
    pub io_requests: f64,
    /// Request inter-arrival rate `λ_I/O` in requests/second
    /// (0 = no arrival-rate bound).
    pub io_rate: f64,
    /// Instruction-mix power factor: scales the per-core *active* power
    /// relative to the CPU-max micro-benchmark (a NEON-heavy loop draws
    /// more than pointer chasing). 1.0 = micro-benchmark mix.
    pub act_power_scale: f64,
}

impl Default for NodeWork {
    fn default() -> Self {
        NodeWork {
            act_cycles: 0.0,
            mem_cycles: 0.0,
            mem_bytes: 0.0,
            io_bytes: 0.0,
            io_requests: 0.0,
            io_rate: 0.0,
            act_power_scale: 1.0,
        }
    }
}

impl NodeWork {
    /// Scale every demand component (splitting a job across nodes).
    pub fn scaled(&self, k: f64) -> Self {
        NodeWork {
            act_cycles: self.act_cycles * k,
            mem_cycles: self.mem_cycles * k,
            mem_bytes: self.mem_bytes * k,
            io_bytes: self.io_bytes * k,
            io_requests: self.io_requests * k,
            io_rate: self.io_rate,                 // a rate, not a quantity
            act_power_scale: self.act_power_scale, // a property, not a quantity
        }
    }

    /// True when the job demands nothing.
    pub fn is_empty(&self) -> bool {
        self.act_cycles == 0.0
            && self.mem_cycles == 0.0
            && self.mem_bytes == 0.0
            && self.io_bytes == 0.0
    }
}

/// Second-order effects the analytic model omits. `Frictions::default()`
/// is the friction-free setting under which the simulator agrees with the
/// model to numerical precision (asserted in tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frictions {
    /// Fraction of memory time hidden by out-of-order execution
    /// (model assumes 1.0 — the `max(T_core, T_mem)` overlap).
    pub ooo_overlap: f64,
    /// OS scheduling imbalance: extra share of work landing on one core.
    pub sched_imbalance: f64,
    /// Network protocol efficiency (model assumes raw line rate, 1.0).
    pub io_efficiency: f64,
    /// Memory-controller contention loss: fraction of bandwidth lost to
    /// bank conflicts / row misses when multiple cores interleave
    /// requests (model assumes a perfectly pipelined controller).
    pub mem_contention: f64,
    /// Multiplicative OS jitter σ applied per execution chunk.
    pub os_jitter: f64,
    /// Dynamic-power excess the meter sees vs the component model
    /// (VRM losses, fans ramping with load).
    pub power_excess: f64,
    /// Measurement noise σ on reported energy (power-meter tolerance).
    pub meter_noise: f64,
}

impl Default for Frictions {
    fn default() -> Self {
        Frictions {
            ooo_overlap: 1.0,
            sched_imbalance: 0.0,
            io_efficiency: 1.0,
            mem_contention: 0.0,
            os_jitter: 0.0,
            power_excess: 0.0,
            meter_noise: 0.0,
        }
    }
}

/// Wall-clock composition of one run (the paper's Table 2 time terms).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Time until the last core finished (`T_CPU`), seconds.
    pub cpu: f64,
    /// Total memory-controller busy time (`~T_mem`), seconds.
    pub mem: f64,
    /// NIC busy time (`T_I/O`), seconds.
    pub io: f64,
}

/// Result of simulating one job on one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeRun {
    /// Job wall-clock time on this node, seconds.
    pub duration: f64,
    /// Per-component energy, joules (already including friction effects
    /// and measurement noise).
    pub energy: EnergyBreakdown,
    /// Wall-clock composition.
    pub time: TimeBreakdown,
    /// Average power over the run, watts.
    pub avg_power_w: f64,
}

/// Simulator for a single node type.
#[derive(Debug, Clone)]
pub struct NodeSim {
    spec: NodeSpec,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A core begins its `chunk`-th compute/memory chunk.
    ChunkStart { core: u32, chunk: usize },
}

impl NodeSim {
    /// Build a simulator for the given node specification.
    pub fn new(spec: NodeSpec) -> Self {
        NodeSim { spec }
    }

    /// The simulated node's specification.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// Execute `work` on `cores` active cores at core frequency `freq`
    /// (must be a DVFS level of the spec), under the given frictions, with
    /// a deterministic seed.
    ///
    /// # Panics
    /// Panics when the operating point is invalid for this node.
    pub fn run(
        &self,
        work: &NodeWork,
        cores: u32,
        freq: f64,
        frictions: &Frictions,
        seed: u64,
    ) -> NodeRun {
        self.run_obs(
            work,
            cores,
            freq,
            frictions,
            seed,
            0.0,
            Track::Node { group: 0, node: 0 },
            &mut NoopRecorder,
        )
    }

    /// [`NodeSim::run`] plus telemetry: the run is placed at sim-time `t0`
    /// on `track`, emitting an engine-traffic tally, a `node_run` span, a
    /// DVFS-transition counter pair (idle → `freq` at start, back at end)
    /// and a per-component [`PowerSample`] averaged over the run.
    ///
    /// With a [`NoopRecorder`] this is exactly [`NodeSim::run`] — the
    /// computation (and every RNG draw) is identical regardless of `R`.
    ///
    /// # Panics
    /// Panics when the operating point is invalid for this node.
    #[allow(clippy::too_many_arguments)]
    pub fn run_obs<R: Recorder>(
        &self,
        work: &NodeWork,
        cores: u32,
        freq: f64,
        frictions: &Frictions,
        seed: u64,
        t0: f64,
        track: Track,
        rec: &mut R,
    ) -> NodeRun {
        self.spec
            .validate_operating_point(cores, freq)
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(
            (0.0..=1.0).contains(&frictions.ooo_overlap),
            "ooo_overlap must be in [0, 1]"
        );
        assert!(
            frictions.io_efficiency > 0.0 && frictions.io_efficiency <= 1.0,
            "io_efficiency must be in (0, 1]"
        );

        if work.is_empty() {
            return NodeRun {
                duration: 0.0,
                energy: EnergyBreakdown::default(),
                time: TimeBreakdown::default(),
                avg_power_w: 0.0,
            };
        }

        let mut jitter = Jitter::new(seed);
        let c = cores as usize;

        // Per-core work slices; scheduling imbalance shifts extra load onto
        // core 0 and removes it evenly from the others (total preserved).
        let share = 1.0 / c as f64;
        let mut slice = vec![share; c];
        if c > 1 && frictions.sched_imbalance > 0.0 {
            let extra = share * frictions.sched_imbalance;
            slice[0] += extra;
            for s in slice.iter_mut().skip(1) {
                *s -= extra / (c - 1) as f64;
            }
        }

        // Chunk-level demand per core.
        let chunk_act_cycles: Vec<f64> = slice
            .iter()
            .map(|s| work.act_cycles * s / CHUNKS_PER_CORE as f64)
            .collect();
        let chunk_mem_cycles: Vec<f64> = slice
            .iter()
            .map(|s| work.mem_cycles * s / CHUNKS_PER_CORE as f64)
            .collect();
        let chunk_mem_bytes: Vec<f64> = slice
            .iter()
            .map(|s| work.mem_bytes * s / CHUNKS_PER_CORE as f64)
            .collect();

        let mut queue: EventQueue<Ev> = EventQueue::new();
        for core in 0..cores {
            queue.schedule(0.0, Ev::ChunkStart { core, chunk: 0 }, rec);
        }

        let mut controller_free = 0.0f64;
        let mut controller_busy = 0.0f64;
        let mut act_time = vec![0.0f64; c];
        let mut stall_time = vec![0.0f64; c];
        let mut core_done = vec![0.0f64; c];

        while let Some(ev) = queue.pop(rec) {
            let Ev::ChunkStart { core, chunk } = ev.event;
            let i = core as usize;
            let t0 = ev.time;

            // Memory request: issued at chunk start, granted FIFO by the
            // shared controller; service is the slower of the cycle model
            // and the bandwidth floor.
            let mem_svc_raw =
                (chunk_mem_cycles[i] / freq).max(chunk_mem_bytes[i] / self.spec.mem_bandwidth);
            // Contention loss grows with the number of interleaving cores.
            let contention = 1.0 + frictions.mem_contention * (c as f64 - 1.0) / c as f64;
            let mem_svc = mem_svc_raw * contention * jitter.factor(frictions.os_jitter);
            let mem_done = if mem_svc > 0.0 {
                let grant = controller_free.max(t0);
                controller_free = grant + mem_svc;
                controller_busy += mem_svc;
                controller_free
            } else {
                t0
            };

            // Compute chunk runs concurrently with the memory request
            // (out-of-order overlap); the residual models the imperfect
            // part of that overlap.
            let act = (chunk_act_cycles[i] / freq) * jitter.factor(frictions.os_jitter);
            let act_done = t0 + act;
            let residual = (1.0 - frictions.ooo_overlap) * act.min(mem_done - t0);
            let chunk_end = act_done.max(mem_done) + residual;

            act_time[i] += act;
            stall_time[i] += chunk_end - act_done;

            if chunk + 1 < CHUNKS_PER_CORE {
                queue.schedule(
                    chunk_end,
                    Ev::ChunkStart {
                        core,
                        chunk: chunk + 1,
                    },
                    rec,
                );
            } else {
                core_done[i] = chunk_end;
            }
        }

        let cpu_time = core_done.iter().cloned().fold(0.0f64, f64::max);

        // NIC: a single DMA-overlapped transfer window, bounded below by the
        // request arrival process (`T_I/O = max(T_transfer, reqs/λ)`).
        let io_transfer = work.io_bytes / (self.spec.net_bandwidth * frictions.io_efficiency);
        let io_arrival = if work.io_rate > 0.0 {
            work.io_requests / work.io_rate
        } else {
            0.0
        };
        let io_time = io_transfer.max(io_arrival)
            * if work.io_bytes > 0.0 {
                jitter.factor(frictions.os_jitter)
            } else {
                1.0
            };

        let duration = cpu_time.max(io_time);

        // Energy accounting per Table 2, with friction effects on the
        // dynamic components and meter noise on everything.
        let fmax = self.spec.fmax();
        let p = &self.spec.power;
        let dyn_scale = 1.0 + frictions.power_excess;
        let cpu_act_e: f64 = act_time.iter().sum::<f64>()
            * p.core_act_at(freq, fmax)
            * work.act_power_scale
            * dyn_scale;
        let cpu_stall_e: f64 =
            stall_time.iter().sum::<f64>() * p.core_stall_at(freq, fmax) * dyn_scale;
        let mem_e = controller_busy * p.mem_w * dyn_scale;
        let net_e = io_time * p.net_w * dyn_scale;
        let idle_e = duration * p.sys_idle_w;

        let energy = EnergyBreakdown {
            cpu_act: cpu_act_e,
            cpu_stall: cpu_stall_e,
            mem: mem_e,
            net: net_e,
            idle: idle_e,
        }
        .scaled(jitter.factor(frictions.meter_noise));

        if R::ACTIVE && duration > 0.0 {
            rec.span_begin(t0, track, "node_run", seed);
            // Two DVFS transitions per run: idle → `freq` at dispatch and
            // back to idle at completion.
            rec.counter(t0, track, "node.dvfs_transitions", 1);
            rec.counter(t0 + duration, track, "node.dvfs_transitions", 1);
            rec.power(
                t0 + duration,
                track,
                PowerSample {
                    cpu_act_w: energy.cpu_act / duration,
                    cpu_stall_w: energy.cpu_stall / duration,
                    mem_w: energy.mem / duration,
                    net_w: energy.net / duration,
                    idle_w: energy.idle / duration,
                },
            );
            rec.span_end(t0 + duration, track, "node_run", seed);
        }

        NodeRun {
            duration,
            avg_power_w: if duration > 0.0 {
                energy.total() / duration
            } else {
                0.0
            },
            energy,
            time: TimeBreakdown {
                cpu: cpu_time,
                mem: controller_busy,
                io: io_time,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a9() -> NodeSim {
        NodeSim::new(NodeSpec::cortex_a9())
    }

    fn cpu_work(cycles: f64) -> NodeWork {
        NodeWork {
            act_cycles: cycles,
            ..Default::default()
        }
    }

    #[test]
    fn frictionless_cpu_bound_matches_model() {
        // T = cycles / (c·f) exactly when friction-free.
        let sim = a9();
        let run = sim.run(&cpu_work(5.6e9), 4, 1.4e9, &Frictions::default(), 0);
        assert!(
            (run.duration - 1.0).abs() < 1e-9,
            "duration {}",
            run.duration
        );
        // Energy: act power for 1 s per core + idle.
        let p = &sim.spec().power;
        let expect = 4.0 * p.core_act_w * 1.0 + p.sys_idle_w;
        assert!((run.energy.total() - expect).abs() < 1e-9);
    }

    #[test]
    fn duration_scales_inverse_with_frequency() {
        let sim = a9();
        let fast = sim.run(&cpu_work(1.4e9), 1, 1.4e9, &Frictions::default(), 0);
        let slow = sim.run(&cpu_work(1.4e9), 1, 0.2e9, &Frictions::default(), 0);
        assert!((slow.duration / fast.duration - 7.0).abs() < 1e-9);
    }

    #[test]
    fn duration_scales_inverse_with_cores() {
        let sim = a9();
        let one = sim.run(&cpu_work(1.4e9), 1, 1.4e9, &Frictions::default(), 0);
        let four = sim.run(&cpu_work(1.4e9), 4, 1.4e9, &Frictions::default(), 0);
        assert!((one.duration / four.duration - 4.0).abs() < 1e-9);
    }

    #[test]
    fn dvfs_lowers_power_but_costs_time() {
        let sim = a9();
        let fast = sim.run(&cpu_work(5.6e9), 4, 1.4e9, &Frictions::default(), 0);
        let slow = sim.run(&cpu_work(5.6e9), 4, 0.8e9, &Frictions::default(), 0);
        assert!(slow.duration > fast.duration);
        assert!(slow.avg_power_w < fast.avg_power_w);
    }

    #[test]
    fn memory_bound_work_is_serialized_by_the_controller() {
        // All-memory work: duration ≈ mem_cycles / f regardless of cores
        // (UMA controller is the bottleneck), vs /c for CPU work.
        let sim = a9();
        let work = NodeWork {
            mem_cycles: 1.4e9,
            ..Default::default()
        };
        let one = sim.run(&work, 1, 1.4e9, &Frictions::default(), 0);
        let four = sim.run(&work, 4, 1.4e9, &Frictions::default(), 0);
        assert!((one.duration - 1.0).abs() < 1e-9);
        assert!((four.duration - 1.0).abs() < 0.05, "got {}", four.duration);
    }

    #[test]
    fn bandwidth_floor_binds_when_cycles_underestimate() {
        // 3 GB through a 1.5 GB/s controller takes ≥ 2 s even if the cycle
        // model claims less.
        let sim = a9();
        let work = NodeWork {
            mem_cycles: 1.4e8, // 0.1 s by cycles
            mem_bytes: 3.0e9,
            ..Default::default()
        };
        let run = sim.run(&work, 4, 1.4e9, &Frictions::default(), 0);
        assert!((run.duration - 2.0).abs() < 1e-6, "got {}", run.duration);
    }

    #[test]
    fn nic_overlaps_cpu_completely() {
        // I/O shorter than CPU: duration unchanged (DMA overlap, §II-D).
        let sim = a9();
        let mut work = cpu_work(5.6e9); // 1 s CPU
        work.io_bytes = 1.0e6; // 0.08 s on 100 Mbps
        let run = sim.run(&work, 4, 1.4e9, &Frictions::default(), 0);
        assert!((run.duration - 1.0).abs() < 1e-9);
        // I/O longer than CPU: NIC dominates.
        work.io_bytes = 25.0e6; // 2 s on 100 Mbps
        let run = sim.run(&work, 4, 1.4e9, &Frictions::default(), 0);
        assert!((run.duration - 2.0).abs() < 1e-6);
    }

    #[test]
    fn io_arrival_rate_bounds_duration() {
        // 1000 requests at λ = 500/s cannot finish before 2 s.
        let sim = a9();
        let work = NodeWork {
            act_cycles: 1.4e8,
            io_bytes: 1.0e3,
            io_requests: 1000.0,
            io_rate: 500.0,
            ..Default::default()
        };
        let run = sim.run(&work, 4, 1.4e9, &Frictions::default(), 0);
        assert!((run.duration - 2.0).abs() < 1e-6, "got {}", run.duration);
    }

    #[test]
    fn imperfect_overlap_adds_stall_time() {
        let sim = a9();
        let work = NodeWork {
            act_cycles: 2.8e9,
            mem_cycles: 0.7e9,
            ..Default::default()
        };
        let ideal = sim.run(&work, 4, 1.4e9, &Frictions::default(), 0);
        let fr = Frictions {
            ooo_overlap: 0.5,
            ..Frictions::default()
        };
        let rough = sim.run(&work, 4, 1.4e9, &fr, 0);
        assert!(rough.duration > ideal.duration);
        assert!(rough.energy.cpu_stall > ideal.energy.cpu_stall);
    }

    #[test]
    fn scheduling_imbalance_stretches_the_critical_path() {
        let sim = a9();
        let fr = Frictions {
            sched_imbalance: 0.10,
            ..Frictions::default()
        };
        let even = sim.run(&cpu_work(5.6e9), 4, 1.4e9, &Frictions::default(), 0);
        let skew = sim.run(&cpu_work(5.6e9), 4, 1.4e9, &fr, 0);
        assert!((skew.duration / even.duration - 1.10).abs() < 1e-6);
    }

    #[test]
    fn protocol_overhead_slows_io() {
        let sim = a9();
        let work = NodeWork {
            io_bytes: 12.5e6, // 1 s raw
            ..Default::default()
        };
        let fr = Frictions {
            io_efficiency: 0.8,
            ..Frictions::default()
        };
        let run = sim.run(&work, 1, 1.4e9, &fr, 0);
        assert!((run.duration - 1.25).abs() < 1e-6);
    }

    #[test]
    fn power_excess_raises_energy_not_time() {
        let sim = a9();
        let base = sim.run(&cpu_work(5.6e9), 4, 1.4e9, &Frictions::default(), 0);
        let fr = Frictions {
            power_excess: 0.10,
            ..Frictions::default()
        };
        let hot = sim.run(&cpu_work(5.6e9), 4, 1.4e9, &fr, 0);
        assert_eq!(hot.duration, base.duration);
        assert!(hot.energy.cpu_act > base.energy.cpu_act);
        assert_eq!(
            hot.energy.idle, base.energy.idle,
            "idle power is measured, not modeled"
        );
    }

    #[test]
    fn runs_are_seed_deterministic() {
        let sim = a9();
        let fr = Frictions {
            os_jitter: 0.05,
            meter_noise: 0.02,
            ..Frictions::default()
        };
        let work = cpu_work(5.6e9);
        let a = sim.run(&work, 4, 1.4e9, &fr, 123);
        let b = sim.run(&work, 4, 1.4e9, &fr, 123);
        assert_eq!(a.duration, b.duration);
        assert_eq!(a.energy.total(), b.energy.total());
        let c = sim.run(&work, 4, 1.4e9, &fr, 124);
        assert_ne!(a.duration, c.duration);
    }

    #[test]
    fn empty_work_is_instant_and_free() {
        let run = a9().run(&NodeWork::default(), 4, 1.4e9, &Frictions::default(), 0);
        assert_eq!(run.duration, 0.0);
        assert_eq!(run.energy.total(), 0.0);
    }

    #[test]
    #[should_panic(expected = "active cores")]
    fn rejects_too_many_cores() {
        a9().run(&NodeWork::default(), 5, 1.4e9, &Frictions::default(), 0);
    }

    #[test]
    fn energy_equals_power_times_time() {
        let sim = a9();
        let run = sim.run(&cpu_work(5.6e9), 2, 1.1e9, &Frictions::default(), 0);
        assert!((run.avg_power_w * run.duration - run.energy.total()).abs() < 1e-9);
    }

    #[test]
    fn run_obs_is_bit_identical_and_records_the_run() {
        use enprop_obs::{EventKind, MemoryRecorder};

        let sim = a9();
        let fr = Frictions {
            os_jitter: 0.05,
            meter_noise: 0.02,
            ..Frictions::default()
        };
        let work = NodeWork {
            act_cycles: 5.6e9,
            mem_cycles: 0.7e9,
            io_bytes: 1.0e6,
            ..Default::default()
        };
        let plain = sim.run(&work, 4, 1.4e9, &fr, 42);

        let mut rec = MemoryRecorder::new();
        let track = Track::Node { group: 1, node: 3 };
        let traced = sim.run_obs(&work, 4, 1.4e9, &fr, 42, 10.0, track, &mut rec);
        assert_eq!(plain, traced, "instrumentation must not perturb the run");

        // Engine traffic: 4 cores × 16 chunks scheduled and popped.
        assert_eq!(rec.counters()["nodesim.eq.scheduled"], 64);
        assert_eq!(rec.counters()["nodesim.eq.popped"], 64);
        assert_eq!(rec.counters()["node.dvfs_transitions"], 2);

        // One node_run span at [t0, t0 + duration] plus a power sample
        // whose components average to the run's energy.
        let begin = rec
            .events()
            .iter()
            .find(|e| e.name == "node_run" && matches!(e.kind, EventKind::SpanBegin))
            .expect("span begin");
        assert_eq!(begin.t_s, 10.0);
        let power = rec
            .events()
            .iter()
            .find_map(|e| match e.kind {
                EventKind::Power { sample } => Some(sample),
                _ => None,
            })
            .expect("power sample");
        assert!((power.total_w() * traced.duration - traced.energy.total()).abs() < 1e-9);
    }
}
