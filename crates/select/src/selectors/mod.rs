//! Mapping selectors: algorithms that pick `M ⊆ C`.
//!
//! | Selector | Kind | Notes |
//! |----------|------|-------|
//! | [`Exhaustive`] | exact | enumerates all subsets of the whole model (the oracle); ≤ 25 useful candidates, else an error |
//! | [`BranchBound`] | exact | DFS with an optimistic-explains lower bound, per independent component; a node budget falls back to greedy per cut-off component |
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
pub use psl_collective::{CompiledProgram, PslCollective};

use crate::coverage::CoverageModel;
use crate::objective::ObjectiveWeights;

/// Why a selector (or weight learning over selectors) could not produce a
/// result.
///
/// The paper's collective selector compiles the coverage model into a PSL
/// program; compilation or grounding failures surface here instead of
/// aborting the process (selectors used to `.expect()` on them), and so
/// do [`crate::learn_weights`] on an empty training set,
/// [`crate::evaluate_scenario`] on a candidate the chase rejects and
/// [`Exhaustive`] on a model beyond its cap.
#[derive(Clone, PartialEq, Debug)]
pub enum SelectError {
    /// The PSL program failed to ground.
    Grounding(cms_psl::GroundingError),
    /// A candidate tgd failed chase validation, so no coverage model
    /// could be built.
    InvalidCandidate(cms_tgd::ChaseError),
    /// Weight learning was given no training scenarios.
    NoTrainingScenarios,
    /// [`Exhaustive`] was given more useful candidates than its cap.
    TooManyCandidates {
        /// Useful candidates in the model.
        useful: usize,
        /// The selector's cap ([`Exhaustive::max_candidates`]).
        cap: usize,
    },
}

impl std::fmt::Display for SelectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectError::Grounding(e) => write!(f, "selection failed: {e}"),
            SelectError::InvalidCandidate(e) => write!(f, "invalid candidate tgd: {e}"),
            SelectError::NoTrainingScenarios => {
                write!(f, "weight learning needs at least one scenario")
            }
            SelectError::TooManyCandidates { useful, cap } => write!(
                f,
                "exhaustive selection got {useful} useful candidates (cap {cap}); \
                 use branch-and-bound"
            ),
        }
    }
}

impl std::error::Error for SelectError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SelectError::Grounding(e) => Some(e),
            SelectError::InvalidCandidate(e) => Some(e),
            SelectError::NoTrainingScenarios | SelectError::TooManyCandidates { .. } => None,
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
/// [`PslCollective`] fills the solve fields; [`LocalSearch`], when it opts
/// into `track_relaxation`, reports only `soft_objective`. Purely
/// combinatorial selectors leave the default.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SelectionTelemetry {
    /// Final soft (relaxed) objective at the reported selection.
    pub soft_objective: Option<f64>,
    /// Always 0: no selector flips a warm relaxation any more. Kept until
    /// the benchmark stops reading it.
    pub flips: usize,
    /// Always 0: nothing is regrounded any more. Kept until the benchmark
    /// stops reading it.
    pub terms_reused: usize,
    /// Always 0, like [`SelectionTelemetry::terms_reused`].
    pub terms_recomputed: usize,
    /// ADMM iterations of the solve (collective selector only).
    pub admm_iterations: usize,
    /// ADMM restarts taken inside the solver's restart loop.
    pub solver_restarts: usize,
    /// Health of the ADMM solve.
    pub last_health: Option<cms_psl::SolveHealth>,
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
    /// Empty unless [`BranchBound`] ran out of its node budget. Then it
    /// names the components the budget cut off (each kept the best of its
    /// partial search, ∅ and greedy), and the selection is only a
    /// heuristic result.
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

    /// A generated model: `all_primitives(2)`, 15 rows, 25% noise.
    pub fn generated_model() -> CoverageModel {
        let scenario = cms_ibench::generate(&cms_ibench::ScenarioConfig {
            rows_per_relation: 15,
            noise: cms_ibench::NoiseConfig::uniform(25.0),
            seed: 3,
            ..cms_ibench::ScenarioConfig::all_primitives(2)
        });
        CoverageModel::build(&scenario.source, &scenario.target, &scenario.candidates)
    }

    /// Per target, its explain cap's `(candidate, degree)` terms as
    /// `build_program` once found them: every (target, candidate) pair
    /// through [`CoverageModel::cover`].
    pub fn explain_caps_by_scan(model: &CoverageModel) -> Vec<Vec<(usize, f64)>> {
        (0..model.num_targets())
            .map(|t| {
                (0..model.num_candidates)
                    .map(|c| (c, model.cover(c, t)))
                    .filter(|&(_, d)| d > 0.0)
                    .collect()
            })
            .collect()
    }
}
