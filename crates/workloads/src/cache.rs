//! Cache-hierarchy demand derivation.
//!
//! The catalog's memory demands are inverted from the paper's published
//! measurements; this module goes one level deeper and *derives* memory
//! demands from first principles: a workload's working set and access
//! count per operation, pushed through a node's cache hierarchy (Table 5's
//! L1/L2/L3 sizes), yield a DRAM traffic estimate. It explains — rather
//! than postulates — why x264 is memory-bound on the A9 (1 MB L2, no L3)
//! yet markedly less so on the K10 (6 MB L3), the §III-A observation.

use crate::demand::OpDemand;
use enprop_nodesim::NodeSpec;

/// A workload's memory behaviour, hardware-independent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheProfile {
    /// Bytes the operation's data reuse spans (its working set).
    pub working_set_bytes: f64,
    /// Memory accesses issued per operation.
    pub accesses_per_op: f64,
    /// Bytes per access (cache-line granularity in practice).
    pub bytes_per_access: f64,
}

impl CacheProfile {
    /// Miss rate of a capacity-limited cache of `cache_bytes` under this
    /// profile: the classic capacity model — everything hits while the
    /// working set fits; beyond that, hits scale with the fraction of the
    /// working set the cache can hold.
    pub fn miss_rate(&self, cache_bytes: f64) -> f64 {
        assert!(self.working_set_bytes > 0.0);
        if cache_bytes <= 0.0 {
            return 1.0;
        }
        (1.0 - cache_bytes / self.working_set_bytes).clamp(0.0, 1.0)
    }

    /// DRAM traffic per operation on `spec`: accesses that miss the last
    /// level of the node's hierarchy, in bytes. The hierarchy is
    /// inclusive, so only the largest level's capacity matters for
    /// capacity misses.
    pub fn dram_bytes_per_op(&self, spec: &NodeSpec) -> f64 {
        let last_level = (spec.l3_total.max(spec.l2_total)) as f64;
        self.accesses_per_op * self.bytes_per_access * self.miss_rate(last_level)
    }

    /// Memory busy cycles per op implied by the DRAM traffic: bytes over
    /// the node's bandwidth, expressed in cycles at `fmax` (the paper's
    /// `T_mem = cycles_mem / f` convention).
    pub fn mem_cycles_per_op(&self, spec: &NodeSpec) -> f64 {
        self.dram_bytes_per_op(spec) / spec.mem_bandwidth * spec.fmax()
    }

    /// Derive a full demand vector: `cycles_per_op` of compute plus the
    /// derived memory terms.
    pub fn to_demand(&self, spec: &NodeSpec, cycles_per_op: f64) -> OpDemand {
        OpDemand {
            cycles_per_op,
            mem_cycles_per_op: self.mem_cycles_per_op(spec),
            mem_bytes_per_op: self.dram_bytes_per_op(spec),
            io_bytes_per_op: 0.0,
            io_requests_per_op: 0.0,
            act_power_scale: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame-sized working set, x264-ish.
    fn video_profile() -> CacheProfile {
        CacheProfile {
            working_set_bytes: 8.0 * (1 << 20) as f64, // 8 MB of frames
            accesses_per_op: 2.0e6,
            bytes_per_access: 64.0,
        }
    }

    #[test]
    fn fitting_working_sets_never_miss() {
        let p = CacheProfile {
            working_set_bytes: 256.0 * 1024.0,
            accesses_per_op: 1000.0,
            bytes_per_access: 64.0,
        };
        // K10's 6 MB L3 swallows a 256 KB working set.
        let k10 = NodeSpec::opteron_k10();
        assert_eq!(p.dram_bytes_per_op(&k10), 0.0);
        assert_eq!(p.mem_cycles_per_op(&k10), 0.0);
    }

    #[test]
    fn small_caches_leak_more_traffic() {
        // The §III-A story: the A9 (1 MB L2, no L3) misses far more of a
        // video working set than the K10 (6 MB L3).
        let p = video_profile();
        let a9 = NodeSpec::cortex_a9();
        let k10 = NodeSpec::opteron_k10();
        let a9_traffic = p.dram_bytes_per_op(&a9);
        let k10_traffic = p.dram_bytes_per_op(&k10);
        assert!(
            a9_traffic > 2.0 * k10_traffic,
            "{a9_traffic} vs {k10_traffic}"
        );
        // Miss rates: A9 1 − 1/8 = 0.875; K10 1 − 6/8 = 0.25.
        assert!((p.miss_rate(a9.l2_total as f64) - 0.875).abs() < 1e-9);
        assert!((p.miss_rate(k10.l3_total as f64) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn miss_rate_is_monotone_in_cache_size() {
        let p = video_profile();
        let mut prev = 1.0;
        for mb in [0u64, 1, 2, 4, 8, 16] {
            let m = p.miss_rate((mb << 20) as f64);
            assert!(m <= prev);
            assert!((0.0..=1.0).contains(&m));
            prev = m;
        }
        assert_eq!(p.miss_rate((16u64 << 20) as f64), 0.0);
    }

    #[test]
    fn derived_demand_flows_through_the_model() {
        use crate::model::SingleNodeModel;
        let p = video_profile();
        let a9 = NodeSpec::cortex_a9();
        let demand = p.to_demand(&a9, 5.0e6);
        let m = SingleNodeModel::new(&a9, &demand, 0.0);
        let t = m.time(100.0, 4, a9.fmax());
        assert!(t.mem > 0.0, "derived demand must produce memory time");
        // With this working set the A9 is genuinely memory-dominated.
        assert!(t.mem > t.core, "mem {} vs core {}", t.mem, t.core);
    }

    #[test]
    fn zero_cache_is_all_misses() {
        let p = video_profile();
        assert_eq!(p.miss_rate(0.0), 1.0);
    }
}
