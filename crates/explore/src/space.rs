//! Configuration-space enumeration and time-energy evaluation.
//!
//! Enumeration is streaming: [`configurations`] yields `ClusterSpec`s one
//! at a time from an odometer over the per-type tuples (with the
//! [`NodeSpec`] shared by `Arc` across every group it appears in), so
//! sweeps can evaluate in chunks without materializing the whole space.
//! Evaluation runs on the vendored rayon chunked thread pool with
//! source-order collection and composes memoized per-operating-point
//! values through [`EvalCache`]; both the pool and the cache are
//! **bit-identical** to a sequential, uncached evaluation (exact float
//! equality — see `vendor/rayon` and [`crate::cache`] for the two
//! contracts, and DESIGN.md §12 for the whole story).

use crate::cache::{CacheStats, EvalCache};
use enprop_clustersim::{ClusterSpec, NodeGroup, SwitchOverhead, WorkSplit};
use enprop_core::ClusterModel;
use enprop_nodesim::NodeSpec;
use enprop_workloads::Workload;
use rayon::prelude::*;
use std::sync::Arc;

/// The per-type extent of the configuration space: up to `max_nodes` nodes
/// of `spec`, every active-core count and every DVFS level.
#[derive(Debug, Clone)]
pub struct TypeSpace {
    /// Node hardware type (shared, not cloned, into every enumerated
    /// group).
    pub spec: Arc<NodeSpec>,
    /// Maximum number of nodes of this type (`n_max` in Table 1).
    pub max_nodes: u32,
    /// Interconnect overhead for budget math, if any.
    pub switch: Option<SwitchOverhead>,
}

impl TypeSpace {
    /// A9 space with the paper's switch overhead.
    pub fn a9(max_nodes: u32) -> Self {
        TypeSpace {
            spec: Arc::new(NodeSpec::cortex_a9()),
            max_nodes,
            switch: Some(SwitchOverhead::paper_a9()),
        }
    }

    /// K10 space.
    pub fn k10(max_nodes: u32) -> Self {
        TypeSpace {
            spec: Arc::new(NodeSpec::opteron_k10()),
            max_nodes,
            switch: None,
        }
    }

    /// Cortex-A15 space (extended node type).
    pub fn a15(max_nodes: u32) -> Self {
        TypeSpace {
            spec: Arc::new(NodeSpec::cortex_a15()),
            max_nodes,
            switch: Some(SwitchOverhead::paper_a9()),
        }
    }

    /// Xeon E5 space (extended node type).
    pub fn xeon(max_nodes: u32) -> Self {
        TypeSpace {
            spec: Arc::new(NodeSpec::xeon_e5()),
            max_nodes,
            switch: None,
        }
    }

    /// Raspberry Pi 4 space (DALEK-style small node; wimpy nodes share
    /// the paper's amortized-switch budgeting convention).
    pub fn pi4(max_nodes: u32) -> Self {
        TypeSpace {
            spec: Arc::new(NodeSpec::raspberry_pi4()),
            max_nodes,
            switch: Some(SwitchOverhead::paper_a9()),
        }
    }

    /// Orange Pi 5 space (DALEK-style small node).
    pub fn opi5(max_nodes: u32) -> Self {
        TypeSpace {
            spec: Arc::new(NodeSpec::orange_pi5()),
            max_nodes,
            switch: Some(SwitchOverhead::paper_a9()),
        }
    }

    /// Look up a type space by catalog name (`a9`, `k10`, `a15`, `xeon`,
    /// `pi4`, `opi5`, case-insensitive) — the CLI's `--types` vocabulary.
    pub fn try_named(name: &str, max_nodes: u32) -> Result<Self, enprop_faults::EnpropError> {
        match name.to_ascii_lowercase().as_str() {
            "a9" => Ok(TypeSpace::a9(max_nodes)),
            "k10" => Ok(TypeSpace::k10(max_nodes)),
            "a15" => Ok(TypeSpace::a15(max_nodes)),
            "xeon" | "xeone5" => Ok(TypeSpace::xeon(max_nodes)),
            "pi4" => Ok(TypeSpace::pi4(max_nodes)),
            "opi5" => Ok(TypeSpace::opi5(max_nodes)),
            other => Err(enprop_faults::EnpropError::invalid_config(format!(
                "unknown node type {other:?}; known: a9, k10, a15, xeon, pi4, opi5"
            ))),
        }
    }

    /// Number of non-empty tuples this type contributes:
    /// `n_max × cores × |frequencies|`.
    pub fn tuple_count(&self) -> u64 {
        self.max_nodes as u64 * self.spec.cores as u64 * self.spec.frequencies.len() as u64
    }

    /// This type's `(cores, freq)` operating points in enumeration order:
    /// active cores, then the DVFS table. The streamed evaluator keeps
    /// one table row per point.
    pub fn points(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        (1..=self.spec.cores).flat_map(move |c| self.spec.frequencies.iter().map(move |&f| (c, f)))
    }

    /// This type's non-empty `(count, cores, freq)` tuples in enumeration
    /// order: node count slowest, then [`TypeSpace::points`].
    /// [`configurations`] walks this order, and the streamed evaluator's
    /// odometer digit `d > 0` is tuple `d − 1`.
    pub fn tuples(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        (1..=self.max_nodes).flat_map(move |n| self.points().map(move |(c, f)| (n, c, f)))
    }

    /// Idle watts of this type's full fleet (`max_nodes` nodes), the
    /// per-type idle-power surface DALEK-style analyses sweep against.
    pub fn fleet_idle_w(&self) -> f64 {
        self.max_nodes as f64 * self.spec.power.sys_idle_w
    }

    /// Switch watts this type's full fleet draws under its budgeting
    /// convention (0 when interconnect overhead is not modeled).
    pub fn fleet_switch_w(&self) -> f64 {
        self.switch.map_or(0.0, |s| s.watts_for(self.max_nodes))
    }
}

/// Closed-form size of the configuration space over `types`
/// (each type absent or one of its tuples; minus the all-absent case):
///
/// ```text
/// Π_i (1 + n_max,i · c_max,i · |F_i|) − 1
/// ```
///
/// Saturates at `u64::MAX`: with six DALEK node types the product can
/// overflow 64 bits, and every caller treats the count as "at least this
/// many", so a saturated count is still correct for chunking and capping.
pub fn count_configurations(types: &[TypeSpace]) -> u64 {
    let product = types
        .iter()
        .map(|t| 1 + t.tuple_count() as u128)
        .try_fold(1u128, u128::checked_mul)
        .unwrap_or(u128::MAX);
    u64::try_from(product - 1).unwrap_or(u64::MAX)
}

/// Streaming enumeration of every configuration in the space, in a fixed
/// (odometer) order. The iterator reports an exact `size_hint`, so the
/// thread pool chunks it deterministically and downstream collectors can
/// pre-size.
pub fn configurations(types: &[TypeSpace]) -> Configurations {
    // Per-type choice lists: None (absent) or Some(group). Groups share
    // the type's NodeSpec allocation via Arc.
    let choices: Vec<Vec<Option<NodeGroup>>> = types
        .iter()
        .map(|t| {
            std::iter::once(None)
                .chain(t.tuples().map(|(count, cores, freq)| {
                    Some(NodeGroup {
                        spec: Arc::clone(&t.spec),
                        count,
                        cores,
                        freq,
                        switch: t.switch,
                    })
                }))
                .collect()
        })
        .collect();
    Configurations {
        idx: vec![0; choices.len()],
        choices,
        remaining: count_configurations(types),
        done: false,
    }
}

/// The streaming iterator behind [`configurations`].
#[derive(Debug, Clone)]
pub struct Configurations {
    choices: Vec<Vec<Option<NodeGroup>>>,
    idx: Vec<usize>,
    remaining: u64,
    done: bool,
}

impl Iterator for Configurations {
    type Item = ClusterSpec;

    fn next(&mut self) -> Option<ClusterSpec> {
        loop {
            if self.done {
                return None;
            }
            let groups: Vec<NodeGroup> = self
                .idx
                .iter()
                .enumerate()
                .filter_map(|(ti, &ci)| self.choices[ti][ci].clone())
                .collect();
            // Odometer increment.
            let mut t = 0;
            loop {
                if t == self.choices.len() {
                    self.done = true;
                    break;
                }
                self.idx[t] += 1;
                if self.idx[t] < self.choices[t].len() {
                    break;
                }
                self.idx[t] = 0;
                t += 1;
            }
            if !groups.is_empty() {
                self.remaining -= 1;
                return Some(ClusterSpec::new(groups));
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        (n, Some(n))
    }
}

impl ExactSizeIterator for Configurations {}

/// Materialize every configuration in the space. Prefer the streaming
/// [`configurations`] for large spaces.
pub fn enumerate_configurations(types: &[TypeSpace]) -> Vec<ClusterSpec> {
    configurations(types).collect()
}

/// A configuration with its modeled time-energy outcome.
#[derive(Debug, Clone)]
pub struct EvaluatedConfig {
    /// The configuration.
    pub cluster: ClusterSpec,
    /// Modeled job service time, seconds.
    pub job_time: f64,
    /// Modeled job energy, joules.
    pub job_energy: f64,
    /// Cluster busy power, watts.
    pub busy_power_w: f64,
    /// Cluster idle power, watts.
    pub idle_power_w: f64,
    /// Nameplate power (budget accounting, includes switches), watts.
    pub nameplate_w: f64,
}

impl EvaluatedConfig {
    /// Evaluate `cluster` from its modeled job time and energy: the one
    /// place busy (`E/T`), idle and nameplate watts are derived.
    pub fn new(cluster: ClusterSpec, job_time: f64, job_energy: f64) -> Self {
        EvaluatedConfig {
            job_time,
            job_energy,
            busy_power_w: job_energy / job_time,
            idle_power_w: cluster.idle_w(),
            nameplate_w: cluster.nameplate_w(),
            cluster,
        }
    }
}

/// Evaluate one configuration under the Table-2 model — the single
/// evaluation helper shared by `evaluate_space` and `local_search`.
/// With a cache, a [`WorkSplit`] is built from memoized operating points
/// (one [`EvalCache`] lookup per non-empty group); without one, a fresh
/// [`ClusterModel`] is built, the reference the cache is tested against.
/// Both compose through the split, so they return bit-identical results.
///
/// # Panics
/// Panics when the cluster has no capacity or a node type lacks a
/// calibrated profile, as `ClusterModel::new` does.
pub fn evaluate_config(
    workload: &Workload,
    cluster: ClusterSpec,
    cache: Option<&EvalCache>,
) -> EvaluatedConfig {
    let Some(cache) = cache else {
        let model = ClusterModel::new(workload.clone(), cluster);
        return EvaluatedConfig::new(
            model.cluster().clone(),
            model.job_time(),
            model.job_energy(),
        );
    };
    let split = WorkSplit::try_new(workload, &cluster, |g| {
        Ok(cache.point(workload, g.spec.name, g.cores, g.freq))
    })
    .unwrap_or_else(|e| panic!("{e}"));
    let ops = workload.ops_per_job;
    EvaluatedConfig::new(cluster, split.job_time(ops), split.job_energy(ops))
}

/// Knobs for [`evaluate_space_with`].
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Worker threads; `None` resolves through the pool's global order
    /// (`set_eval_threads` → `RAYON_NUM_THREADS`/`ENPROP_THREADS` →
    /// available parallelism).
    pub threads: Option<usize>,
    /// Memoize operating points in an [`EvalCache`].
    pub cache: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            threads: None,
            cache: true,
        }
    }
}

/// What one `evaluate_space_with` run did — the observability surface the
/// CLI turns into diag lines, per-chunk spans and cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalStats {
    /// Configurations evaluated.
    pub evaluated: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Source chunk length the pool used (configs per chunk).
    pub chunk_len: usize,
    /// Number of chunks the source was split into.
    pub chunks: usize,
    /// Configurations rejected by dominance pruning *before* full
    /// evaluation (always 0 on the materializing path — only the
    /// streaming evaluator prunes).
    pub pruned: u64,
    /// Size of the resulting Pareto frontier (0 when the run does not
    /// maintain one).
    pub frontier_len: usize,
    /// Peak bytes of evaluation buffering: O(space) for the materializing
    /// path; for the streaming path, its operating-point tables, each
    /// worker's odometer state and the frontier, whatever the chunk
    /// length or the space's size.
    pub peak_buffer_bytes: usize,
    /// Cache totals, when caching was on.
    pub cache: Option<CacheStats>,
}

/// Evaluate every configuration under the Table-2 model on the thread
/// pool, with memoized operating points (both default-on; results are
/// bit-identical to a sequential uncached run for any thread count).
/// Accepts a `Vec` or the streaming [`configurations`] iterator — prefer
/// the latter, which skips materializing the input space.
pub fn evaluate_space<C>(workload: &Workload, configs: C) -> Vec<EvaluatedConfig>
where
    C: IntoIterator<Item = ClusterSpec>,
    C::IntoIter: Send,
{
    evaluate_space_with(workload, configs, EvalOptions::default()).0
}

/// [`evaluate_space`] with explicit thread/cache control and run
/// statistics. Accepts any sendable configuration source (a `Vec` or the
/// streaming [`configurations`] iterator), preserving source order in the
/// output.
pub fn evaluate_space_with<C>(
    workload: &Workload,
    configs: C,
    opts: EvalOptions,
) -> (Vec<EvaluatedConfig>, EvalStats)
where
    C: IntoIterator<Item = ClusterSpec>,
    C::IntoIter: Send,
{
    let iter = configs.into_iter();
    let (lo, hi) = iter.size_hint();
    let est = hi.unwrap_or(lo);
    let threads = opts
        .threads
        .unwrap_or_else(rayon::current_num_threads)
        .max(1);
    let cache = opts.cache.then(|| EvalCache::new(workload));
    let cache_ref = cache.as_ref();
    let out: Vec<EvaluatedConfig> = iter
        .into_par_iter()
        .with_threads(threads)
        .map(|cluster| evaluate_config(workload, cluster, cache_ref))
        .collect();
    let (chunk_len, chunks) = if threads == 1 {
        (out.len(), usize::from(!out.is_empty()))
    } else {
        let chunk = rayon::chunk_len(est.max(1), threads);
        (chunk, out.len().div_ceil(chunk))
    };
    let stats = EvalStats {
        evaluated: out.len(),
        threads,
        chunk_len,
        chunks,
        pruned: 0,
        frontier_len: 0,
        peak_buffer_bytes: out.len() * std::mem::size_of::<EvaluatedConfig>(),
        cache: cache.map(|c| c.stats()),
    };
    (out, stats)
}

/// Set the process-wide worker-thread count for space evaluation (and
/// every other pool user); `0` restores the environment/host default.
pub fn set_eval_threads(n: usize) {
    rayon::set_num_threads(n);
}

/// The worker-thread count evaluation will currently use.
pub fn eval_threads() -> usize {
    rayon::current_num_threads()
}

#[cfg(test)]
mod tests {
    use super::*;
    use enprop_workloads::catalog;

    #[test]
    fn footnote4_count_is_36380() {
        // 10 ARM (5 freqs × 4 cores) + 10 AMD (3 freqs × 6 cores):
        // 36,000 mixed + 200 ARM-only + 180 AMD-only.
        let types = [TypeSpace::a9(10), TypeSpace::k10(10)];
        assert_eq!(count_configurations(&types), 36_380);
    }

    #[test]
    fn enumeration_matches_closed_form_on_small_spaces() {
        let types = [TypeSpace::a9(2), TypeSpace::k10(1)];
        let n = count_configurations(&types);
        let configs = enumerate_configurations(&types);
        assert_eq!(configs.len() as u64, n);
        // 2·4·5 = 40 A9 tuples, 1·6·3 = 18 K10 tuples → 41·19 − 1 = 778.
        assert_eq!(n, 778);
        // No configuration is empty.
        assert!(configs.iter().all(|c| c.node_count() > 0));
    }

    #[test]
    fn tuples_walk_nodes_then_cores_then_frequencies() {
        for t in [
            TypeSpace::a9(3),
            TypeSpace::k10(2),
            TypeSpace::opi5(1),
            TypeSpace::xeon(0),
        ] {
            let tuples: Vec<_> = t.tuples().collect();
            assert_eq!(tuples.len() as u64, t.tuple_count());
            let mut expected = Vec::new();
            let mut points = Vec::new();
            for c in 1..=t.spec.cores {
                for &f in &t.spec.frequencies {
                    points.push((c, f));
                }
            }
            for n in 1..=t.max_nodes {
                for &(c, f) in &points {
                    expected.push((n, c, f));
                }
            }
            assert_eq!(t.points().collect::<Vec<_>>(), points);
            assert_eq!(tuples, expected);
        }
    }

    #[test]
    fn streaming_enumeration_reports_exact_sizes() {
        let types = [TypeSpace::a9(2), TypeSpace::k10(1)];
        let mut iter = configurations(&types);
        let total = count_configurations(&types);
        assert_eq!(iter.len() as u64, total);
        let mut seen = 0u64;
        while let Some(c) = iter.next() {
            assert!(c.node_count() > 0);
            seen += 1;
            assert_eq!(iter.len() as u64, total - seen);
        }
        assert_eq!(seen, total);
        assert_eq!(iter.next(), None, "fused after exhaustion");
    }

    #[test]
    fn enumerated_groups_share_the_spec_allocation() {
        let types = [TypeSpace::a9(2)];
        let configs = enumerate_configurations(&types);
        for c in &configs {
            for g in &c.groups {
                assert!(Arc::ptr_eq(&g.spec, &types[0].spec));
            }
        }
    }

    #[test]
    fn single_type_space_has_no_empty_config() {
        let types = [TypeSpace::k10(3)];
        let configs = enumerate_configurations(&types);
        assert_eq!(configs.len() as u64, count_configurations(&types));
        assert_eq!(configs.len(), 3 * 6 * 3);
    }

    #[test]
    fn evaluation_covers_every_config() {
        let w = catalog::by_name("EP").unwrap();
        let types = [TypeSpace::a9(2), TypeSpace::k10(1)];
        let configs = enumerate_configurations(&types);
        let n = configs.len();
        let evald = evaluate_space(&w, configs);
        assert_eq!(evald.len(), n);
        for e in &evald {
            assert!(e.job_time > 0.0 && e.job_energy > 0.0);
            assert!(e.busy_power_w > e.idle_power_w);
        }
    }

    #[test]
    fn pooled_cached_and_sequential_uncached_agree_bitwise() {
        let w = catalog::by_name("blackscholes").unwrap();
        let types = [TypeSpace::a9(3), TypeSpace::k10(2)];
        let (baseline, base_stats) = evaluate_space_with(
            &w,
            configurations(&types),
            EvalOptions {
                threads: Some(1),
                cache: false,
            },
        );
        assert_eq!(base_stats.threads, 1);
        assert!(base_stats.cache.is_none());
        for threads in [2, 5, 8] {
            for cache in [false, true] {
                let (got, stats) = evaluate_space_with(
                    &w,
                    configurations(&types),
                    EvalOptions {
                        threads: Some(threads),
                        cache,
                    },
                );
                assert_eq!(got.len(), baseline.len());
                for (a, b) in baseline.iter().zip(&got) {
                    assert_eq!(a.job_time.to_bits(), b.job_time.to_bits());
                    assert_eq!(a.job_energy.to_bits(), b.job_energy.to_bits());
                    assert_eq!(a.busy_power_w.to_bits(), b.busy_power_w.to_bits());
                    assert_eq!(a.cluster, b.cluster);
                }
                assert_eq!(stats.threads, threads);
                assert_eq!(stats.cache.is_some(), cache);
            }
        }
    }

    #[test]
    fn stats_report_deterministic_cache_totals_under_threads() {
        let w = catalog::by_name("EP").unwrap();
        let types = [TypeSpace::a9(2), TypeSpace::k10(2)];
        let reference = evaluate_space_with(
            &w,
            configurations(&types),
            EvalOptions {
                threads: Some(1),
                cache: true,
            },
        )
        .1;
        for threads in [2, 4, 9] {
            let stats = evaluate_space_with(
                &w,
                configurations(&types),
                EvalOptions {
                    threads: Some(threads),
                    cache: true,
                },
            )
            .1;
            assert_eq!(stats.cache, reference.cache, "threads = {threads}");
            assert_eq!(stats.evaluated, reference.evaluated);
        }
    }

    #[test]
    fn dalek_space_reaches_mega_scale() {
        // Six node types with modest fleet caps blow past 10^7 configs —
        // the scale the streaming evaluator exists for.
        let types = [
            TypeSpace::a9(10),
            TypeSpace::k10(10),
            TypeSpace::a15(10),
            TypeSpace::xeon(10),
            TypeSpace::pi4(16),
            TypeSpace::opi5(16),
        ];
        assert!(count_configurations(&types) > 10_000_000_000_000u64);
        // ...and the count saturates instead of overflowing on absurd caps.
        let huge: Vec<TypeSpace> = (0..40).map(|_| TypeSpace::xeon(u32::MAX)).collect();
        assert_eq!(count_configurations(&huge), u64::MAX);
    }

    #[test]
    fn named_type_lookup_covers_the_catalog() {
        for (name, node) in [
            ("a9", "A9"),
            ("K10", "K10"),
            ("a15", "A15"),
            ("xeon", "XeonE5"),
            ("Pi4", "Pi4"),
            ("opi5", "OPi5"),
        ] {
            let t = TypeSpace::try_named(name, 4).unwrap();
            assert_eq!(t.spec.name, node);
            assert_eq!(t.max_nodes, 4);
        }
        assert!(TypeSpace::try_named("z80", 1).is_err());
    }

    #[test]
    fn fleet_power_matches_cluster_accounting() {
        let t = TypeSpace::a9(10);
        // 10 × 1.8 W idle; 10 nodes → 2 switches × 20 W.
        assert!((t.fleet_idle_w() - 18.0).abs() < 1e-12);
        assert!((t.fleet_switch_w() - 40.0).abs() < 1e-12);
        assert_eq!(TypeSpace::k10(10).fleet_switch_w(), 0.0);
    }

    #[test]
    fn more_hardware_is_never_slower() {
        let w = catalog::by_name("blackscholes").unwrap();
        let small = evaluate_space(&w, vec![ClusterSpec::a9_k10(4, 1)]);
        let big = evaluate_space(&w, vec![ClusterSpec::a9_k10(8, 2)]);
        assert!(big[0].job_time < small[0].job_time);
    }
}
