//! Scenario-level pipeline: build the model, preprocess, select, score.
//!
//! The coverage build chases every candidate once; the pipeline keeps
//! those solutions and answers the data metric from them
//! ([`data_prf_from_solutions`]) rather than chasing the selection and
//! the gold mapping again.

use crate::coverage::{CoverageModel, CoverageOptions};
use crate::metrics::{data_prf_from_solutions, is_sorted_distinct, mapping_prf, Prf};
use crate::objective::{Objective, ObjectiveWeights};
use crate::preprocess::{preprocess, PreprocessReport};
use crate::selectors::{SelectError, Selection, Selector};
use cms_data::Instance;
use cms_ibench::Scenario;
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// Everything measured for one (scenario, selector) pair.
#[derive(Clone, Debug)]
pub struct SelectionOutcome {
    /// Selector name.
    pub selector: String,
    /// The selection and its objective (on the preprocessed model, plus
    /// the preprocessing constant so values are comparable across
    /// selectors and to the full objective).
    pub selection: Selection,
    /// Mapping-level precision/recall/F1 against the gold mapping.
    pub mapping: Prf,
    /// Data-level precision/recall/F1 (exchanged-instance comparison).
    pub data: Prf,
    /// Objective value of the gold mapping itself (reference point).
    pub gold_objective: f64,
    /// Preprocessing summary.
    pub preprocess: PreprocessReport,
    /// Wall-clock time of the whole evaluation: model building,
    /// preprocessing, selection, the gold objective and both metrics.
    pub wall: Duration,
    /// Wall-clock time of the selection call only.
    pub select_wall: Duration,
}

/// The weight-independent part of evaluating a scenario: what the
/// coverage build chased, and the model every selector runs on.
pub(crate) struct PreparedScenario {
    /// One chased universal solution per candidate, in candidate order.
    solutions: Vec<Instance>,
    /// The preprocessed coverage model.
    reduced: CoverageModel,
    /// What preprocessing removed.
    report: PreprocessReport,
}

/// Chase and score every candidate, then preprocess the model. Candidates
/// the chase rejects are [`SelectError::InvalidCandidate`].
pub(crate) fn prepare_scenario(scenario: &Scenario) -> Result<PreparedScenario, SelectError> {
    let (model, solutions, _) = {
        let _span = cms_obs::span("pipeline/build-model");
        CoverageModel::build_keeping_solutions(
            &scenario.source,
            &scenario.target,
            &scenario.candidates,
            &CoverageOptions::default(),
        )
        .map_err(SelectError::InvalidCandidate)?
    };
    let (reduced, report) = preprocess(&model);
    Ok(PreparedScenario {
        solutions,
        reduced,
        report,
    })
}

/// Run `selector` on a prepared scenario and score its selection;
/// `start` is when the evaluation began, for [`SelectionOutcome::wall`].
pub(crate) fn evaluate_prepared(
    prepared: &PreparedScenario,
    scenario: &Scenario,
    selector: &dyn Selector,
    weights: &ObjectiveWeights,
    start: Instant,
) -> Result<SelectionOutcome, SelectError> {
    let reduced = &prepared.reduced;
    let constant = weights.w_explain * prepared.report.certain_unexplained as f64;

    let select_start = Instant::now();
    let mut selection = {
        let _span = cms_obs::span(format!("pipeline/select/{}", selector.name()));
        selector.select(reduced, weights)?
    };
    let select_wall = select_start.elapsed();
    selection.objective += constant;

    let gold_objective = Objective::new(reduced, *weights).value(&scenario.gold) + constant;
    let mapping = mapping_prf(&selection.selected, &scenario.gold);
    let data = {
        let _span = cms_obs::span("pipeline/data-prf");
        data_prf_from_solutions(
            &prepared.solutions,
            &sorted_distinct(&selection.selected),
            &sorted_distinct(&scenario.gold),
        )
    };
    Ok(SelectionOutcome {
        selector: selector.name().to_owned(),
        selection,
        mapping,
        data,
        gold_objective,
        preprocess: prepared.report.clone(),
        wall: start.elapsed(),
        select_wall,
    })
}

/// `idxs` itself when already sorted and distinct (as a [`Selection`]'s
/// always is), else a sorted, deduplicated copy.
fn sorted_distinct(idxs: &[usize]) -> Cow<'_, [usize]> {
    if is_sorted_distinct(idxs) {
        Cow::Borrowed(idxs)
    } else {
        let mut owned = idxs.to_vec();
        owned.sort_unstable();
        owned.dedup();
        Cow::Owned(owned)
    }
}

/// Run one selector on one scenario. Selector failures (e.g. grounding
/// errors in the PSL selector) and candidates the chase rejects
/// ([`SelectError::InvalidCandidate`]) propagate instead of aborting.
pub fn evaluate_scenario(
    scenario: &Scenario,
    selector: &dyn Selector,
    weights: &ObjectiveWeights,
) -> Result<SelectionOutcome, SelectError> {
    let _span = cms_obs::span("pipeline/evaluate");
    let start = Instant::now();
    let prepared = prepare_scenario(scenario)?;
    evaluate_prepared(&prepared, scenario, selector, weights, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selectors::{Greedy, PslCollective};
    use cms_ibench::{generate, Primitive, ScenarioConfig};

    #[test]
    fn clean_cp_scenario_recovers_gold_exactly() {
        let scenario = generate(&ScenarioConfig::single_primitive(Primitive::Cp, 2));
        let outcome =
            evaluate_scenario(&scenario, &Greedy, &ObjectiveWeights::unweighted()).unwrap();
        assert_eq!(
            outcome.mapping.f1, 1.0,
            "selected {:?}",
            outcome.selection.selected
        );
        assert_eq!(outcome.data.f1, 1.0);
        assert!(outcome.selection.objective <= outcome.gold_objective + 1e-9);
    }

    #[test]
    fn invalid_candidate_error_reports_the_chase_failure() {
        // No `StTgd` fails chase validation today (existentials are the
        // head-minus-body variables by definition), so the chase error is
        // built by hand.
        let chase = cms_tgd::ChaseError::UnboundHeadVar {
            atom: 0,
            term: 1,
            var: cms_tgd::VarId(3),
        };
        let err = SelectError::InvalidCandidate(chase);
        assert_eq!(err.to_string(), format!("invalid candidate tgd: {chase}"));
        let source = std::error::Error::source(&err).expect("the chase error is the source");
        assert_eq!(source.downcast_ref(), Some(&chase));
    }

    #[test]
    fn clean_default_scenario_psl_matches_gold_data() {
        let scenario = generate(&ScenarioConfig::default());
        let outcome = evaluate_scenario(
            &scenario,
            &PslCollective::default(),
            &ObjectiveWeights::unweighted(),
        )
        .unwrap();
        // On a clean scenario the gold mapping explains everything with
        // zero errors, so any objective-optimal selection reproduces the
        // gold data exactly.
        assert!(
            outcome.data.f1 > 0.99,
            "data F1 = {:?} selected {:?} gold {:?}",
            outcome.data,
            outcome.selection.selected,
            scenario.gold
        );
    }
}
