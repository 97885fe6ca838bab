//! Power-budget arithmetic (paper §III-C and footnote 3): cluster mixes
//! constrained by a fixed nameplate budget.

use enprop_clustersim::ClusterSpec;

/// The paper's peak power budget for the cluster-wide analysis: 1 kW.
pub const PAPER_BUDGET_W: f64 = 1000.0;

/// Enumerate the A9:K10 mixes inside `budget_w`, stepping the K10 count
/// down by `k10_step` from the maximum and filling the rest with A9 nodes
/// (in whole switch groups of 8): the construction behind Fig. 7's
/// `{0:16, 32:12, 64:8, 96:4, 128:0}` legend.
/// ```
/// use enprop_explore::budget_mixes;
/// let mixes = budget_mixes(1000.0, 4);
/// assert_eq!(mixes.first().unwrap().label(), "0 A9 : 16 K10");
/// assert_eq!(mixes.last().unwrap().label(), "128 A9 : 0 K10");
/// ```
pub fn budget_mixes(budget_w: f64, k10_step: u32) -> Vec<ClusterSpec> {
    assert!(k10_step > 0);
    let k10_max = whole_units(budget_w);
    let mut mixes = Vec::new();
    let mut k10 = k10_max;
    loop {
        let remaining = budget_w - k10 as f64 * 60.0;
        // Whole 8-node A9 groups at 60 W each (8·5 + 20 switch).
        let a9_groups = whole_units(remaining);
        let a9 = a9_groups * 8;
        let spec = ClusterSpec::a9_k10(a9, k10);
        debug_assert!(spec.nameplate_w() <= budget_w + 1e-9);
        mixes.push(spec);
        if k10 == 0 {
            break;
        }
        k10 = k10.saturating_sub(k10_step);
    }
    mixes
}

/// Whole 60 W units (`⌊watts/60⌋`) that fit in a power budget.
fn whole_units(watts: f64) -> u32 {
    // enprop-lint: allow(float-int-cast) -- ⌊watts/60⌋ is the spec (whole nodes only) and any physical budget is ≪ 2³²·60 W
    (watts / 60.0).floor() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mixes_regenerated() {
        let mixes = budget_mixes(PAPER_BUDGET_W, 4);
        let labels: Vec<String> = mixes.iter().map(|m| m.label()).collect();
        assert_eq!(
            labels,
            [
                "0 A9 : 16 K10",
                "32 A9 : 12 K10",
                "64 A9 : 8 K10",
                "96 A9 : 4 K10",
                "128 A9 : 0 K10",
            ]
        );
    }

    #[test]
    fn every_mix_fits_the_budget() {
        for m in budget_mixes(PAPER_BUDGET_W, 4) {
            assert!(m.nameplate_w() <= PAPER_BUDGET_W, "{}", m.label());
        }
        // Tighter budget, finer steps.
        for m in budget_mixes(500.0, 1) {
            assert!(m.nameplate_w() <= 500.0, "{}", m.label());
        }
    }

    #[test]
    fn budget_mixes_end_with_homogeneous_wimpy() {
        let mixes = budget_mixes(PAPER_BUDGET_W, 4);
        let last = mixes.last().unwrap();
        assert_eq!(last.groups[1].count, 0, "last mix is A9-only");
        let first = mixes.first().unwrap();
        assert_eq!(first.groups[0].count, 0, "first mix is K10-only");
    }
}

#[cfg(test)]
mod budget_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every generated mix respects any budget, and the first mix is
        /// always the max-K10 one.
        #[test]
        fn mixes_fit_arbitrary_budgets(budget in 100.0f64..5000.0, step in 1u32..8) {
            let mixes = budget_mixes(budget, step);
            prop_assert!(!mixes.is_empty());
            for m in &mixes {
                prop_assert!(m.nameplate_w() <= budget + 1e-9, "{} under {budget}", m.label());
            }
            prop_assert_eq!(mixes[0].groups[1].count, whole_units(budget));
            prop_assert_eq!(mixes.last().unwrap().groups[1].count, 0);
        }
    }
}
