//! # enprop-explore
//!
//! Heterogeneous configuration-space exploration (the methodology of the
//! authors' prior work \[31] that this paper builds on, re-implemented
//! because Figs. 9–12 consume its Pareto-optimal configurations):
//!
//! * **Space enumeration** — a configuration is one tuple per node type:
//!   (number of nodes, active cores per node, core frequency). Ten ARM +
//!   ten AMD nodes yield the paper's footnote-4 count of 36,380
//!   configurations, which is a unit test here.
//! * **Time-energy evaluation** — every configuration evaluated under the
//!   Table-2 model on a chunked thread pool (the vendored rayon), with
//!   per-operating-point memoization ([`EvalCache`]); both are
//!   bit-identical to a sequential, uncached evaluation (DESIGN.md §12).
//! * **Energy-deadline Pareto frontier** — the "sweet region" of
//!   configurations that meet a deadline with minimum energy.
//! * **Power budgeting** — nameplate filtering and the footnote-3
//!   8:1 A9-per-K10 substitution arithmetic behind Figs. 7–8.
//! * **Sub-linearity analysis** — which Pareto configurations fall below
//!   the reference ideal line (§III-D) and what that costs in p95 response
//!   time (§III-E).
//! * **Dynamic switching** (extension) — the paper's §I notes dynamic
//!   adaptation complements its static mapping; [`DynamicEnvelope`]
//!   quantifies that complement.
//! * **Heuristic search** (extension) — the space-reduction approach the
//!   paper defers; [`local_search`] hill-climbs to the sweet spot in a
//!   fraction of the enumeration cost.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod budget;
mod cache;
mod dynamic;
mod pareto;
mod search;
mod sleep;
mod space;
mod stream;
mod sublinear;
mod sweet;

pub use budget::{budget_mixes, PAPER_BUDGET_W};
pub use cache::{CacheStats, EvalCache};
pub use dynamic::DynamicEnvelope;
pub use pareto::{knee_point, pareto_front, Frontier, FrontierPoint};
pub use search::{local_search, SearchResult};
pub use sleep::{SleepManagedCluster, SleepPolicy};
pub use space::{
    configurations, count_configurations, enumerate_configurations, eval_threads, evaluate_config,
    evaluate_space, evaluate_space_with, set_eval_threads, Configurations, EvalOptions, EvalStats,
    EvaluatedConfig, TypeSpace,
};
pub use stream::{stream_pareto_front, ParetoPoint, StreamOptions};
pub use sublinear::{sublinear_report, SublinearReport};
pub use sweet::sweet_spot;
