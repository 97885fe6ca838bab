//! The sweet spot: the minimum-energy configuration meeting an
//! execution-time deadline — prior work [31]'s selection rule that this
//! paper's Figs. 9–12 start from.

use crate::space::EvaluatedConfig;

/// The minimum-energy configuration meeting `deadline` seconds, if any.
///
/// Energy ties go to the faster configuration, then to the earlier one in
/// `evald`. Exact ties are common: a homogeneous cluster's model energy is
/// `ops · e_op` whatever its node count. Breaking them by time keeps the
/// answer on the Pareto frontier, so the sweet spot of the streamed
/// frontier equals the sweet spot of the whole space.
pub fn sweet_spot(evald: &[EvaluatedConfig], deadline: f64) -> Option<&EvaluatedConfig> {
    evald
        .iter()
        .filter(|e| e.job_time <= deadline)
        .min_by(|a, b| {
            a.job_energy
                .total_cmp(&b.job_energy)
                .then(a.job_time.total_cmp(&b.job_time))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::pareto_front;
    use crate::space::{configurations, evaluate_space, TypeSpace};
    use enprop_workloads::catalog;

    fn small_space() -> Vec<EvaluatedConfig> {
        let w = catalog::by_name("EP").unwrap();
        let types = [TypeSpace::a9(3), TypeSpace::k10(2)];
        evaluate_space(&w, configurations(&types))
    }

    #[test]
    fn sweet_spot_meets_deadline_with_min_energy() {
        let evald = small_space();
        let fastest = evald
            .iter()
            .map(|e| e.job_time)
            .fold(f64::INFINITY, f64::min);
        let deadline = fastest * 3.0;
        let best = sweet_spot(&evald, deadline).expect("feasible deadline");
        assert!(best.job_time <= deadline);
        for e in &evald {
            if e.job_time <= deadline {
                assert!(e.job_energy >= best.job_energy);
            }
        }
    }

    #[test]
    fn impossible_deadline_yields_nothing() {
        let evald = small_space();
        assert!(sweet_spot(&evald, 1e-12).is_none());
    }

    #[test]
    fn sweet_spot_is_a_frontier_member() {
        // Every configuration's job time as the deadline covers every
        // answer the space can give. With energy alone, EP at 2.07 s
        // picked 1 A9 at 2.04 s over 2 A9 at 1.02 s with the same joules.
        let types = [TypeSpace::a9(2), TypeSpace::k10(1)];
        for w in catalog::all() {
            let evald = evaluate_space(&w, configurations(&types));
            let front = pareto_front(&evald);
            for deadline in evald.iter().map(|e| e.job_time) {
                let best = sweet_spot(&evald, deadline).unwrap();
                assert!(
                    front.iter().any(|f| std::ptr::eq(*f, best)),
                    "{} at {deadline} s: {} ({} s, {} J) is dominated",
                    w.name,
                    best.cluster.label(),
                    best.job_time,
                    best.job_energy
                );
            }
        }
    }

    #[test]
    fn looser_deadlines_never_raise_the_energy_floor() {
        let evald = small_space();
        let e1 = sweet_spot(&evald, 0.2).map(|e| e.job_energy);
        let e2 = sweet_spot(&evald, 2.0).map(|e| e.job_energy);
        if let (Some(e1), Some(e2)) = (e1, e2) {
            assert!(e2 <= e1);
        }
    }
}
