//! `explab` — a declarative experiment-sweep engine for the embedding
//! pipeline.
//!
//! The paper's results are tables over *families* of shape pairs: the
//! dilation of the prescribed construction for every torus/mesh pair in a
//! range, not for one hand-coded example. This crate turns that idea into a
//! subsystem:
//!
//! * [`plan`] — declarative [`SweepPlan`]s: shape-pair generators
//!   ([`plan::Family`]) × workloads ([`plan::WorkloadSpec`]) × a seed,
//!   parsed from plan files or picked from built-ins;
//! * [`executor`] — [`executor::expand`] turns a plan into trials with
//!   per-trial derived seeds, and [`executor::run`] shards them over
//!   crossbeam workers with bit-identical results for any worker count;
//! * [`trial`] — one pair measured end to end on the batched pipeline:
//!   predicted vs measured dilation ([`embeddings::verify`]), congestion,
//!   the [`embeddings::chain::ChainReport`] bound check, and `netsim`
//!   makespans per workload;
//! * [`report`] — aggregate [`gridviz`] tables and the generated
//!   `EXPERIMENTS.md`;
//! * [`json`] — the offline JSONL serializer behind per-trial records.
//!
//! The `lab` binary wraps it all in a CLI (`lab run`, `lab report`,
//! `lab expand`, `lab plans`); see the repository README.
//!
//! # Example
//!
//! ```
//! use explab::executor::run;
//! use explab::plan::{Family, SweepPlan, WorkloadSpec};
//!
//! let plan = SweepPlan {
//!     name: "doc".into(),
//!     seed: 7,
//!     rounds: 1,
//!     families: vec![Family::RingInto { max_size: 8, max_dim: 2 }],
//!     workloads: vec![WorkloadSpec::Neighbor],
//!     optimize: None,
//!     wirelength: None,
//!     chaos: None,
//! };
//! let outcome = run(&plan, 2);
//! assert!(outcome.supported() > 0);
//! assert!(outcome.bound_violations().is_empty());
//! // Worker count never changes the records.
//! assert_eq!(outcome.records, run(&plan, 1).records);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod executor;
pub mod json;
pub mod plan;
pub mod report;
pub mod trial;

pub use error::{ExplabError, Result};
pub use executor::{run, SweepOutcome};
pub use plan::{
    ChaosSpec, Family, ObjectiveKind, OptimSpec, SweepPlan, WirelengthSpec, WorkloadSpec,
};
pub use trial::{TrialOutcome, TrialRecord, TrialSpec};

/// Commonly used items.
pub mod prelude {
    pub use crate::error::ExplabError;
    pub use crate::executor::{expand, run, SweepOutcome};
    pub use crate::plan::{
        ChaosSpec, Family, ObjectiveKind, OptimSpec, SweepPlan, WirelengthSpec, WorkloadSpec,
    };
    pub use crate::report::experiments_markdown;
    pub use crate::trial::{run_trial, TrialOutcome, TrialRecord, TrialSpec};
}

#[cfg(test)]
mod tests {
    use crate::report::check_mark;

    #[test]
    fn check_mark_outcomes_are_pairwise_distinct() {
        // Exact match, strictly-better and violation must never collapse
        // into the same marker, or sweep tables lose information.
        let exact = check_mark(3, 3);
        let beats = check_mark(3, 2);
        let violates = check_mark(3, 4);
        assert_ne!(exact, beats);
        assert_ne!(exact, violates);
        assert_ne!(beats, violates);
    }
}
