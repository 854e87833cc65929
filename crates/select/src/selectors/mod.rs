//! Mapping selectors: algorithms that pick `M ⊆ C`.
//!
//! | Selector | Kind | Notes |
//! |----------|------|-------|
//! | [`Exhaustive`] | exact | enumerates all subsets; ≤ 25 useful candidates |
//! | [`BranchBound`] | exact | DFS with an optimistic-explains lower bound |
//! | [`Greedy`] | heuristic | best-improvement add passes + removal pass |
//! | [`LocalSearch`] | heuristic | greedy + flip hill-climbing with restarts |
//! | [`PslCollective`] | the paper's approach | HL-MRF MAP + rounding |
//! | [`IndependentBaseline`] | baseline | per-candidate marginal test (non-collective) |
//! | [`FixedSelection`] | reference | a fixed set (gold oracle, empty, all) |

mod baselines;
mod branch_bound;
mod exhaustive;
mod greedy;
mod local_search;
mod psl_collective;

pub use baselines::{FixedSelection, IndependentBaseline};
pub use branch_bound::BranchBound;
pub use exhaustive::Exhaustive;
pub use greedy::Greedy;
pub use local_search::LocalSearch;
pub use psl_collective::PslCollective;

use crate::coverage::CoverageModel;
use crate::objective::ObjectiveWeights;

/// Why a selector (or weight learning over selectors) could not produce a
/// result.
///
/// The paper's collective selector compiles the coverage model into a PSL
/// program; compilation or grounding failures surface here instead of
/// aborting the process (selectors used to `.expect()` on them), and so
/// do [`crate::learn_weights`] on an empty training set and
/// [`crate::evaluate_scenario`] on a candidate the chase rejects.
#[derive(Clone, PartialEq, Debug)]
pub enum SelectError {
    /// The PSL program failed to ground.
    Grounding(cms_psl::GroundingError),
    /// A candidate tgd failed chase validation, so no coverage model
    /// could be built.
    InvalidCandidate(cms_tgd::ChaseError),
    /// Weight learning was given no training scenarios.
    NoTrainingScenarios,
}

impl std::fmt::Display for SelectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectError::Grounding(e) => write!(f, "selection failed: {e}"),
            SelectError::InvalidCandidate(e) => write!(f, "invalid candidate tgd: {e}"),
            SelectError::NoTrainingScenarios => {
                write!(f, "weight learning needs at least one scenario")
            }
        }
    }
}

impl std::error::Error for SelectError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SelectError::Grounding(e) => Some(e),
            SelectError::InvalidCandidate(e) => Some(e),
            SelectError::NoTrainingScenarios => None,
        }
    }
}

impl From<cms_psl::GroundingError> for SelectError {
    fn from(e: cms_psl::GroundingError) -> SelectError {
        SelectError::Grounding(e)
    }
}

/// Structured diagnostics from a selector run.
///
/// The one declaration of the relaxation counters: [`WarmRelaxation`]
/// accumulates into this struct directly, [`LocalSearch`] (when it opts
/// into `track_relaxation`) reports it as is plus the soft objective, and
/// [`PslCollective`] fills the solve fields. Purely combinatorial
/// selectors leave the default.
///
/// [`WarmRelaxation`]: crate::WarmRelaxation
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SelectionTelemetry {
    /// Final soft (relaxed) objective at the reported selection.
    pub soft_objective: Option<f64>,
    /// Flips (raw value mutations, before coalescing) applied to the warm
    /// relaxation.
    pub flips: usize,
    /// Ground terms spliced (reused byte-identically) across regrounds.
    pub terms_reused: usize,
    /// Ground terms recomputed across regrounds.
    pub terms_recomputed: usize,
    /// Arithmetic free bindings spliced across regrounds without
    /// re-folding their summations.
    pub arith_bindings_spliced: usize,
    /// Raw delta entries coalesced away before the regrounder saw them
    /// (cancelling flip pairs and folded flip chains inside one batch).
    pub entries_coalesced: usize,
    /// Batch entries deduplicated into reground work already scheduled by
    /// an earlier entry of the same drained delta.
    pub sources_deduped: usize,
    /// Total ADMM iterations across all solves.
    pub admm_iterations: usize,
    /// Dual variables carried between warm solves.
    pub dual_terms_carried: usize,
    /// Regrounds abandoned for a fresh ground (self-healing rungs 2/4).
    pub fallback_fresh_grounds: usize,
    /// ADMM restarts taken inside the solver's restart loop.
    pub solver_restarts: usize,
    /// Carried dual states dropped for non-finiteness (rung 1).
    pub duals_dropped: usize,
    /// Warm solves escalated to a cold resolve (rung 3).
    pub cold_solves: usize,
    /// Health of the last ADMM solve.
    pub last_health: Option<cms_psl::SolveHealth>,
    /// Degradation-ladder rungs taken during the run, in order.
    pub degradations: Vec<cms_obs::DegradationRung>,
    /// Whether the final solve converged (collective selector only).
    pub converged: Option<bool>,
    /// Ground term count of the final program (collective selector only).
    pub ground_terms: Option<usize>,
}

/// The result of running a selector.
#[derive(Clone, Debug)]
pub struct Selection {
    /// Selected candidate indices, sorted ascending.
    pub selected: Vec<usize>,
    /// Discrete objective value `F` of the selection on the given model.
    pub objective: f64,
    /// Number of discrete objective evaluations (search effort proxy).
    pub evaluations: usize,
    /// Empty unless [`BranchBound`] ran out of its node budget, in which
    /// case it says so here and the selection is only a heuristic result.
    pub note: String,
    /// Structured diagnostics; default for purely combinatorial selectors.
    pub telemetry: SelectionTelemetry,
}

impl Selection {
    pub(crate) fn new(mut selected: Vec<usize>, objective: f64, evaluations: usize) -> Selection {
        selected.sort_unstable();
        selected.dedup();
        Selection {
            selected,
            objective,
            evaluations,
            note: String::new(),
            telemetry: SelectionTelemetry::default(),
        }
    }

    /// Attach telemetry.
    pub(crate) fn with_telemetry(mut self, telemetry: SelectionTelemetry) -> Selection {
        self.telemetry = telemetry;
        self
    }
}

/// A mapping-selection algorithm.
pub trait Selector {
    /// Human-readable name for tables.
    fn name(&self) -> &str;
    /// Choose a selection minimizing (approximately) the objective.
    /// Errors (e.g. a PSL grounding failure) propagate instead of
    /// aborting — purely combinatorial selectors never fail.
    fn select(
        &self,
        model: &CoverageModel,
        weights: &ObjectiveWeights,
    ) -> Result<Selection, SelectError>;
}

/// Candidates worth considering: everything except provably useless ones.
pub(crate) fn useful_candidates(model: &CoverageModel) -> Vec<usize> {
    let useless = model.useless_candidates();
    (0..model.num_candidates)
        .filter(|c| !useless.contains(c))
        .collect()
}

#[cfg(test)]
pub(crate) mod test_support {
    use crate::coverage::CoverageModel;
    use crate::objective::{Objective, ObjectiveWeights};
    use crate::reduction::{build_reduction, SetCoverInstance};

    /// A model where the optimum is known by construction: the set-cover
    /// reduction of a small instance (optimal covers {0,2} / {1,3}, F = 4).
    pub fn known_optimum_model() -> (CoverageModel, f64) {
        let sc = SetCoverInstance {
            universe: 4,
            sets: vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]],
            bound: 2,
        };
        let red = build_reduction(&sc);
        let model = CoverageModel::build(&red.source, &red.target, &red.candidates);
        let f = Objective::new(&model, ObjectiveWeights::unweighted());
        let best = f.value(&[0, 2]);
        (model, best)
    }

    /// The appendix running-example model (optimum = empty mapping, F=4).
    pub fn appendix_model() -> CoverageModel {
        let (_, _, i, j, cands) = crate::coverage::tests::running_example();
        CoverageModel::build(&i, &j, &cands)
    }
}
