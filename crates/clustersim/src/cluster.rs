//! Cluster specification: heterogeneous groups of leaf nodes plus the
//! interconnect overhead used in power budgeting.

use enprop_nodesim::NodeSpec;
use std::sync::Arc;

/// Interconnect overhead attributed to a node group for *budget*
/// accounting (paper footnote 3: "about 20 W peak power drawn by the
/// switch that connects the A9 nodes", amortized as one switch per 8 A9
/// nodes to yield the paper's 8:1 substitution ratio).
///
/// Switch power participates in nameplate/budget math only — the paper's
/// energy-proportionality metrics are computed from node power alone
/// (Table 8's 128-A9 column equals the single-A9 metrics exactly, which
/// only holds without switch power in the metric).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchOverhead {
    /// Nodes served per switch.
    pub nodes_per_switch: u32,
    /// Peak power per switch, watts.
    pub watts_per_switch: f64,
}

impl SwitchOverhead {
    /// The paper's A9 interconnect: 20 W per 8 wimpy nodes.
    pub fn paper_a9() -> Self {
        SwitchOverhead {
            nodes_per_switch: 8,
            watts_per_switch: 20.0,
        }
    }

    /// Switch watts for `count` nodes (whole switches).
    pub fn watts_for(&self, count: u32) -> f64 {
        if count == 0 {
            return 0.0;
        }
        count.div_ceil(self.nodes_per_switch) as f64 * self.watts_per_switch
    }
}

/// A homogeneous group inside a heterogeneous cluster: `count` nodes of
/// one type, all running `cores` active cores at frequency `freq`
/// (the per-type tuple of the paper's configuration definition, §II-A).
///
/// The spec is held behind an [`Arc`] so that configuration-space
/// enumeration (tens of thousands of `ClusterSpec`s over a handful of
/// node types) shares one allocation per type instead of deep-cloning
/// the frequency tables into every group.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeGroup {
    /// Node hardware type (shared across groups/clusters of this type).
    pub spec: Arc<NodeSpec>,
    /// Number of nodes of this type.
    pub count: u32,
    /// Active cores per node.
    pub cores: u32,
    /// Operating core frequency, Hz.
    pub freq: f64,
    /// Interconnect overhead for budgeting (None = negligible).
    pub switch: Option<SwitchOverhead>,
}

impl NodeGroup {
    /// A group running every core at maximum frequency. Accepts either an
    /// owned [`NodeSpec`] or an already-shared `Arc<NodeSpec>`.
    pub fn full(spec: impl Into<Arc<NodeSpec>>, count: u32) -> Self {
        let spec = spec.into();
        let cores = spec.cores;
        let freq = spec.fmax();
        NodeGroup {
            spec,
            count,
            cores,
            freq,
            switch: None,
        }
    }

    /// Validate the group's operating point.
    pub fn validate(&self) -> Result<(), String> {
        if self.count == 0 {
            return Ok(()); // empty groups are legal placeholders
        }
        self.spec.validate_operating_point(self.cores, self.freq)
    }

    /// Nameplate peak watts of this group including switches.
    pub fn nameplate_w(&self) -> f64 {
        let switch = self.switch.map_or(0.0, |s| s.watts_for(self.count));
        // Budgeting uses the marketing nameplate (5 W / 60 W class), not the
        // per-workload busy power.
        self.count as f64 * budget_nameplate(&self.spec) + switch
    }

    /// Idle watts of this group (nodes only — switch power stays out of
    /// the proportionality metrics, see [`SwitchOverhead`]). Exposed so
    /// space enumeration can precompute per-type idle columns with the
    /// same multiply [`ClusterSpec::idle_w`] performs.
    pub fn idle_w(&self) -> f64 {
        self.count as f64 * self.spec.power.sys_idle_w
    }
}

/// The nameplate wattage used in the paper's budget arithmetic: 5 W for
/// the A9 class, 60 W for the K10 class; other nodes fall back to the
/// modeled all-on peak.
fn budget_nameplate(spec: &NodeSpec) -> f64 {
    match spec.name {
        "A9" => 5.0,
        "K10" => 60.0,
        _ => spec.nameplate_peak_w(),
    }
}

/// A heterogeneous cluster: one group per node type.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Node groups (degree of heterogeneity `d` = number of non-empty
    /// groups).
    pub groups: Vec<NodeGroup>,
}

impl ClusterSpec {
    /// Build and validate a cluster from groups, reporting an
    /// [`EnpropError::InvalidConfig`] when any non-empty group has an
    /// invalid operating point.
    ///
    /// [`EnpropError::InvalidConfig`]: enprop_faults::EnpropError::InvalidConfig
    pub fn try_new(groups: Vec<NodeGroup>) -> Result<Self, enprop_faults::EnpropError> {
        for g in &groups {
            g.validate()
                .map_err(enprop_faults::EnpropError::InvalidConfig)?;
        }
        Ok(ClusterSpec { groups })
    }

    /// Build and validate a cluster from groups.
    ///
    /// # Panics
    /// Panics when any non-empty group has an invalid operating point. Use
    /// [`ClusterSpec::try_new`] to get a typed error instead.
    pub fn new(groups: Vec<NodeGroup>) -> Self {
        Self::try_new(groups).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The paper's standard mix: `a9` Cortex-A9 nodes (with the footnote-3
    /// switch overhead) plus `k10` Opteron K10 nodes, all cores at fmax.
    pub fn a9_k10(a9: u32, k10: u32) -> Self {
        let mut a9_group = NodeGroup::full(NodeSpec::cortex_a9(), a9);
        a9_group.switch = Some(SwitchOverhead::paper_a9());
        let k10_group = NodeGroup::full(NodeSpec::opteron_k10(), k10);
        ClusterSpec::new(vec![a9_group, k10_group])
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> u32 {
        self.groups.iter().map(|g| g.count).sum()
    }

    /// Cluster idle power (nodes only, per the paper's metric convention).
    pub fn idle_w(&self) -> f64 {
        self.groups.iter().map(|g| g.idle_w()).sum()
    }

    /// Nameplate peak watts including interconnect (budget accounting).
    pub fn nameplate_w(&self) -> f64 {
        self.groups.iter().map(|g| g.nameplate_w()).sum()
    }

    /// A compact label like "32 A9 : 12 K10" (the paper's legend format).
    pub fn label(&self) -> String {
        let parts: Vec<String> = self
            .groups
            .iter()
            .map(|g| format!("{} {}", g.count, g.spec.name))
            .collect();
        parts.join(" : ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mixes_fit_the_1kw_budget() {
        // Fig. 7's five mixes all sit at 960 W nameplate.
        for (a9, k10) in [(0, 16), (32, 12), (64, 8), (96, 4), (128, 0)] {
            let c = ClusterSpec::a9_k10(a9, k10);
            let w = c.nameplate_w();
            assert!((w - 960.0).abs() < 1e-9, "{}: {w} W", c.label());
            assert!(w <= 1000.0);
        }
    }

    #[test]
    fn substitution_ratio_is_8_to_1() {
        // Footnote 3: one K10 (60 W) ↔ 8 A9 (40 W nodes + 20 W switch).
        let eight_a9 = ClusterSpec::a9_k10(8, 0).nameplate_w();
        let one_k10 = ClusterSpec::a9_k10(0, 1).nameplate_w();
        assert!((eight_a9 - one_k10).abs() < 1e-9, "{eight_a9} vs {one_k10}");
    }

    #[test]
    fn idle_power_excludes_switches() {
        let c = ClusterSpec::a9_k10(64, 8);
        // 64·1.8 + 8·45 = 475.2 W
        assert!((c.idle_w() - 475.2).abs() < 1e-9);
    }

    #[test]
    fn k10_cluster_idles_about_three_times_a9_cluster() {
        // §III-C: "the K10 cluster consumes an idle power of around 720 W
        // which is about three times higher compared to the A9 cluster".
        let k10 = ClusterSpec::a9_k10(0, 16).idle_w();
        let a9 = ClusterSpec::a9_k10(128, 0).idle_w();
        assert!((k10 - 720.0).abs() < 1e-9, "K10 idle {k10}");
        assert!((k10 / a9 - 3.125).abs() < 0.01, "ratio {}", k10 / a9);
    }

    #[test]
    fn switch_counts_round_up() {
        let s = SwitchOverhead::paper_a9();
        assert_eq!(s.watts_for(0), 0.0);
        assert_eq!(s.watts_for(1), 20.0);
        assert_eq!(s.watts_for(8), 20.0);
        assert_eq!(s.watts_for(9), 40.0);
    }

    #[test]
    fn labels_and_node_count() {
        let c = ClusterSpec::a9_k10(32, 12);
        assert_eq!(c.label(), "32 A9 : 12 K10");
        assert_eq!(c.node_count(), 44);
    }

    #[test]
    #[should_panic(expected = "frequency")]
    fn invalid_operating_point_rejected() {
        let mut g = NodeGroup::full(NodeSpec::cortex_a9(), 4);
        g.freq = 1.3e9; // not a DVFS level
        let _ = ClusterSpec::new(vec![g]);
    }

    #[test]
    fn try_new_reports_typed_config_error() {
        let mut g = NodeGroup::full(NodeSpec::cortex_a9(), 4);
        g.freq = 1.3e9;
        let err = ClusterSpec::try_new(vec![g]).unwrap_err();
        assert!(matches!(err, enprop_faults::EnpropError::InvalidConfig(_)));
        assert!(err.to_string().contains("frequency"));
        assert!(ClusterSpec::try_new(vec![NodeGroup::full(NodeSpec::cortex_a9(), 2)]).is_ok());
    }
}
