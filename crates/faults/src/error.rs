//! The typed error surface shared by every enprop crate.

use std::fmt;

/// Every failure mode an enprop library call can report.
///
/// Display strings deliberately contain the phrases the original panic
/// surface used ("no calibrated profile", "no capacity", "every node
/// failed"), so the thin panicking wrappers kept for backward
/// compatibility raise messages existing callers and tests recognize.
#[derive(Debug, Clone, PartialEq)]
pub enum EnpropError {
    /// A workload has no calibrated profile for a node type.
    MissingProfile {
        /// Workload name.
        workload: String,
        /// Node type name ("A9", "K10", …).
        node: String,
    },
    /// A cluster/queue/plan parameter is structurally invalid.
    InvalidConfig(String),
    /// The cluster offers zero execution rate for a workload (no nodes, or
    /// only empty groups).
    EmptyCluster {
        /// Workload name.
        workload: String,
    },
    /// Every node crashed during a job and no survivor remains to
    /// re-execute the lost shards.
    ClusterDead {
        /// What was being executed when the cluster died.
        detail: String,
    },
    /// A job kept timing out / dying until its retry budget ran out.
    RetryBudgetExhausted {
        /// Job seed (identifies the job in a sweep).
        job_seed: u64,
        /// Attempts actually executed (1 initial + retries).
        attempts: u32,
    },
    /// A numeric parameter is out of its valid domain.
    InvalidParameter {
        /// Which parameter.
        what: &'static str,
        /// Why it was rejected.
        message: String,
    },
    /// A long-running simulation processed more discrete events than its
    /// livelock guard allows — a scheduling bug, not a big run.
    EventBudgetExceeded {
        /// Events processed when the guard tripped.
        events: u64,
        /// Virtual time reached, seconds.
        at_s: f64,
    },
}

impl EnpropError {
    /// Shorthand for [`EnpropError::InvalidConfig`].
    pub fn invalid_config(msg: impl Into<String>) -> Self {
        EnpropError::InvalidConfig(msg.into())
    }

    /// Shorthand for [`EnpropError::InvalidParameter`].
    pub fn invalid_parameter(what: &'static str, message: impl Into<String>) -> Self {
        EnpropError::InvalidParameter {
            what,
            message: message.into(),
        }
    }

    /// The process exit code a CLI should terminate with for this error:
    /// `2` for usage/configuration errors (matching the CLI's existing
    /// bad-usage convention), `3` for missing calibrations, `4` for
    /// runtime failures (dead cluster, exhausted retries).
    pub fn exit_code(&self) -> i32 {
        match self {
            EnpropError::InvalidConfig(_) | EnpropError::InvalidParameter { .. } => 2,
            EnpropError::MissingProfile { .. } | EnpropError::EmptyCluster { .. } => 3,
            EnpropError::ClusterDead { .. }
            | EnpropError::RetryBudgetExhausted { .. }
            | EnpropError::EventBudgetExceeded { .. } => 4,
        }
    }
}

impl fmt::Display for EnpropError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnpropError::MissingProfile { workload, node } => write!(
                f,
                "workload {workload} has no calibrated profile for node type {node}"
            ),
            EnpropError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            EnpropError::EmptyCluster { workload } => {
                write!(f, "cluster has no capacity for workload {workload}")
            }
            EnpropError::ClusterDead { detail } => {
                write!(f, "every node failed; {detail}")
            }
            EnpropError::RetryBudgetExhausted { job_seed, attempts } => write!(
                f,
                "job (seed {job_seed}) exhausted its retry budget after {attempts} attempts"
            ),
            EnpropError::InvalidParameter { what, message } => {
                write!(f, "invalid {what}: {message}")
            }
            EnpropError::EventBudgetExceeded { events, at_s } => write!(
                f,
                "livelock guard tripped: {events} events processed by t = {at_s} s"
            ),
        }
    }
}

impl std::error::Error for EnpropError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_legacy_panic_phrases() {
        let missing = EnpropError::MissingProfile {
            workload: "EP".into(),
            node: "K10".into(),
        };
        assert!(missing.to_string().contains("no calibrated profile"));

        let empty = EnpropError::EmptyCluster {
            workload: "EP".into(),
        };
        assert!(empty.to_string().contains("no capacity"));

        let dead = EnpropError::ClusterDead {
            detail: "the job cannot complete".into(),
        };
        assert!(dead.to_string().contains("every node failed"));
    }

    #[test]
    fn exit_codes_partition_the_error_space() {
        assert_eq!(EnpropError::invalid_config("x").exit_code(), 2);
        assert_eq!(
            EnpropError::invalid_parameter("mtbf", "negative").exit_code(),
            2
        );
        assert_eq!(
            EnpropError::MissingProfile {
                workload: "EP".into(),
                node: "A9".into()
            }
            .exit_code(),
            3
        );
        assert_eq!(
            EnpropError::RetryBudgetExhausted {
                job_seed: 1,
                attempts: 4
            }
            .exit_code(),
            4
        );
    }

    #[test]
    fn error_trait_object_round_trip() {
        let e: Box<dyn std::error::Error> = Box::new(EnpropError::invalid_config("pool = 0"));
        assert!(e.to_string().contains("pool = 0"));
    }
}
