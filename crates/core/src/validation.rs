//! Table-4 regeneration: validate the analytic model against the
//! simulated testbed for every workload.

use enprop_clustersim::{try_validate_obs, ClusterSpec, ValidationReport};
use enprop_obs::{NoopRecorder, Recorder};
use enprop_workloads::catalog;

/// The lab-scale heterogeneous mix used for validation runs (the paper
/// validated on its physical A9 + K10 testbed; we use a 4+2 mix).
pub const REFERENCE_VALIDATION_CLUSTER: (u32, u32) = (4, 2);

/// One row of the regenerated Table 4.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Application domain.
    pub domain: &'static str,
    /// Program name.
    pub program: &'static str,
    /// Model-vs-simulated errors.
    pub report: ValidationReport,
    /// The error the paper reported, percent (time, energy).
    pub paper_errors: (f64, f64),
}

/// Regenerate Table 4: per-workload model-vs-measured errors.
pub fn table4(samples: usize, seed: u64) -> Vec<Table4Row> {
    table4_obs(samples, seed, &mut NoopRecorder)
}

/// [`table4`] plus telemetry: each workload's validation jobs land on the
/// trace back-to-back (per-node spans, DVFS counters, power samples).
/// Bit-identical to `table4` for any `R`.
pub fn table4_obs<R: Recorder>(samples: usize, seed: u64, rec: &mut R) -> Vec<Table4Row> {
    let paper = [
        ("EP", 3.0, 10.0),
        ("memcached", 10.0, 8.0),
        ("x264", 11.0, 10.0),
        ("blackscholes", 4.0, 7.0),
        ("Julius", 13.0, 1.0),
        ("RSA-2048", 2.0, 8.0),
    ];
    let (a9, k10) = REFERENCE_VALIDATION_CLUSTER;
    let cluster = ClusterSpec::a9_k10(a9, k10);
    paper
        .iter()
        .map(|&(name, t, e)| {
            let w = catalog::by_name(name).expect("catalog workload");
            let report = try_validate_obs(&w, &cluster, samples, seed, rec)
                .unwrap_or_else(|err| panic!("{err}"));
            Table4Row {
                domain: w.domain,
                program: w.name,
                report,
                paper_errors: (t, e),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_has_six_rows_in_paper_order() {
        let rows = table4(2, 1);
        let names: Vec<&str> = rows.iter().map(|r| r.program).collect();
        assert_eq!(
            names,
            ["EP", "memcached", "x264", "blackscholes", "Julius", "RSA-2048"]
        );
        assert_eq!(rows[0].domain, "HPC");
        assert_eq!(rows[1].domain, "Web Server");
    }

    #[test]
    fn regenerated_errors_track_the_paper() {
        // Every row within a 2× band of the published error (plus a small
        // absolute allowance for the near-zero entries).
        for row in table4(5, 7) {
            let (t_paper, e_paper) = row.paper_errors;
            assert!(
                row.report.time_error_pct <= 2.0 * t_paper + 2.0,
                "{}: time {:.1}% vs paper {t_paper}%",
                row.program,
                row.report.time_error_pct
            );
            assert!(
                row.report.energy_error_pct <= 2.0 * e_paper + 3.0,
                "{}: energy {:.1}% vs paper {e_paper}%",
                row.program,
                row.report.energy_error_pct
            );
        }
    }
}
