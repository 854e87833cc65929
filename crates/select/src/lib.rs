//! `cms-select` — collective, probabilistic schema-mapping selection.
//!
//! The paper's primary contribution: given a data example `(I, J)` and a
//! candidate set `C` of st tgds, select `M ⊆ C` minimizing objective
//! Eq. (4)/(9) — unexplained target data + invented target data + mapping
//! size. This crate provides:
//!
//! * the graded `covers`/`creates` semantics ([`coverage`]),
//! * the objective and its weighted generalization ([`objective`]),
//! * §III-C preprocessing ([`mod@preprocess`]),
//! * selectors: exhaustive, branch-and-bound (exact), greedy, local
//!   search, and the paper's **collective PSL** formulation
//!   ([`selectors`]),
//! * evaluation metrics ([`metrics`]) and the SET COVER reduction from the
//!   appendix's NP-hardness proof ([`reduction`]),
//! * a scenario-level pipeline ([`pipeline`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
pub mod explain;
pub mod incremental;
pub mod learn;
pub mod metrics;
pub mod objective;
pub mod pipeline;
pub mod preprocess;
pub mod reduction;
pub mod relaxation;
pub mod selectors;

pub use coverage::{CoverageModel, CoverageOptions, ErrorGroup};
pub use explain::{explain_selection, CandidateReport, SelectionReport};
pub use incremental::IncrementalObjective;
pub use learn::{learn_weights, LearnMetric, LearnedWeights, WeightGrid};
pub use metrics::{data_prf, mapping_prf, Prf};
pub use objective::{Objective, ObjectiveWeights};
pub use pipeline::{evaluate_scenario, SelectionOutcome};
pub use preprocess::{preprocess, PreprocessReport};
pub use reduction::{build_reduction, SetCoverInstance};
pub use relaxation::{build_eval_program, EvalPreds, WarmRelaxation};
pub use selectors::{
    BranchBound, CompiledProgram, Exhaustive, FixedSelection, Greedy, IndependentBaseline,
    LocalSearch, PslCollective, SelectError, Selection, SelectionTelemetry, Selector,
};
