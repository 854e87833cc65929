//! Evaluating a scenario's line-up and checking what comes out.
//!
//! Every evaluation counts as attempted. It fails when the selector
//! returns `Err`, panics, or fails an output check; a failure anywhere
//! makes the run incorrect.

use crate::workload::REFERENCE_SELECTORS;
use cms_data::{Instance, Schema};
use cms_ibench::Scenario;
use cms_select::{
    evaluate_scenario, preprocess, CoverageModel, CoverageOptions, Objective, ObjectiveWeights,
    Selection, SelectionOutcome, Selector,
};
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Relative tolerance of objective comparisons.
const EPS: f64 = 1e-9;

/// Objective totals of the appendix running example: `{}`, `{θ1}`,
/// `{θ3}`, `{θ1, θ3}`.
pub const APPENDIX_TOTALS: [f64; 4] = [4.0, 22.0 / 3.0, 8.0, 12.0];

/// The paper's unweighted objective, used by every workload.
pub fn weights() -> ObjectiveWeights {
    ObjectiveWeights::unweighted()
}

/// Why an evaluation failed.
#[derive(Clone, Debug, PartialEq)]
pub enum Failure {
    /// The selector returned an error.
    Err(String),
    /// The evaluation panicked.
    Panic(String),
    /// An output check failed.
    Check(String),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Err(e) => write!(f, "error: {e}"),
            Failure::Panic(p) => write!(f, "panic: {p}"),
            Failure::Check(c) => write!(f, "check failed: {c}"),
        }
    }
}

/// One (scenario, selector) evaluation.
pub type Evaluation = Result<SelectionOutcome, Failure>;

/// A scenario's evaluations, `(selector name, evaluation)` in line-up order.
pub type LineupResult = Vec<(String, Evaluation)>;

/// Run `f`, turning a panic into [`Failure::Panic`].
pub fn guarded<T>(f: impl FnOnce() -> Result<T, Failure>) -> Result<T, Failure> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|payload| Err(Failure::Panic(panic_text(&payload))))
}

fn panic_text(payload: &Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-text panic payload".to_owned()
    }
}

/// Run every selector of the line-up through `evaluate_scenario`.
pub fn run_lineup(scenario: &Scenario, lineup: &[Box<dyn Selector>]) -> LineupResult {
    lineup
        .iter()
        .map(|selector| {
            let eval = guarded(|| {
                evaluate_scenario(scenario, selector.as_ref(), &weights())
                    .map_err(|e| Failure::Err(e.to_string()))
            });
            (selector.name().to_owned(), eval)
        })
        .collect()
}

/// The scenario's preprocessed model, rebuilt outside the pipeline.
pub struct Reference {
    /// The preprocessed coverage model.
    pub reduced: CoverageModel,
    /// The objective constant preprocessing removed.
    pub constant: f64,
    /// Chase firings of the rebuild.
    pub chase_firings: usize,
}

impl Reference {
    /// Rebuild the model the pipeline selects on.
    pub fn build(scenario: &Scenario) -> Result<Reference, Failure> {
        guarded(|| {
            let (model, stats) = CoverageModel::build_with_stats(
                &scenario.source,
                &scenario.target,
                &scenario.candidates,
                &CoverageOptions::default(),
            )
            .map_err(|e| Failure::Check(format!("reference model: {e}")))?;
            let (reduced, report) = preprocess(&model);
            Ok(Reference {
                reduced,
                constant: weights().w_explain * report.certain_unexplained as f64,
                chase_firings: stats.firings,
            })
        })
    }
}

/// Apply the output checks to a scenario's evaluations; an evaluation
/// that fails one becomes a [`Failure::Check`].
pub fn check_lineup(reference: &Reference, results: &mut LineupResult) {
    let objective = Objective::new(&reference.reduced, weights());
    let greedy = results
        .iter()
        .find(|(name, _)| name == "greedy")
        .and_then(|(_, eval)| eval.as_ref().ok())
        .map(|o| o.selection.objective);
    for (name, eval) in results.iter_mut() {
        if let Ok(outcome) = eval {
            if let Err(why) = check_outcome(name, outcome, &objective, reference.constant, greedy) {
                *eval = Err(Failure::Check(why));
            }
        }
    }
}

fn check_outcome(
    name: &str,
    outcome: &SelectionOutcome,
    objective: &Objective<'_>,
    constant: f64,
    greedy: Option<f64>,
) -> Result<(), String> {
    let reported = outcome.selection.objective;
    let recomputed = objective.value(&outcome.selection.selected) + constant;
    if !close(reported, recomputed) {
        return Err(format!(
            "{name} reports objective {reported}, but F(selection) = {recomputed}"
        ));
    }
    if name == "gold-oracle" && outcome.mapping.f1 != 1.0 {
        return Err(format!("gold-oracle mapping F1 is {}", outcome.mapping.f1));
    }
    let exact_bb = name == "branch-bound" && within_budget(&outcome.selection);
    if name == "psl-collective" || exact_bb {
        if let Some(g) = greedy {
            if !(reported <= g || close(reported, g)) {
                return Err(format!("{name} objective {reported} exceeds greedy's {g}"));
            }
        }
    }
    Ok(())
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS * a.abs().max(b.abs()).max(1.0)
}

/// The appendix running example's objective totals, recomputed.
pub fn appendix_totals() -> Result<[f64; 4], Failure> {
    let parse = |e: cms_tgd::ParseError| Failure::Check(format!("appendix tgd: {e:?}"));
    let mut src = Schema::new("s");
    src.add_relation("proj", &["name", "code", "firm"]);
    src.add_relation("team", &["pcode", "emp"]);
    let mut tgt = Schema::new("t");
    tgt.add_relation("task", &["pname", "emp", "oid"]);
    tgt.add_relation("org", &["oid", "firm"]);
    let theta1 =
        cms_tgd::parse_tgd("proj(x,c,f) & team(c,e) -> task(x,e,o)", &src, &tgt).map_err(parse)?;
    let theta3 = cms_tgd::parse_tgd(
        "proj(x,c,f) & team(c,e) -> task(x,e,o) & org(o,f)",
        &src,
        &tgt,
    )
    .map_err(parse)?;
    let rel = |schema: &Schema, name: &str| {
        schema
            .rel_id(name)
            .ok_or_else(|| Failure::Check(format!("appendix relation {name} missing")))
    };
    let mut i = Instance::new();
    i.insert_ground(rel(&src, "proj")?, &["BigData", "7", "IBM"]);
    i.insert_ground(rel(&src, "proj")?, &["ML", "9", "SAP"]);
    i.insert_ground(rel(&src, "team")?, &["7", "Bob"]);
    i.insert_ground(rel(&src, "team")?, &["9", "Alice"]);
    let mut j = Instance::new();
    j.insert_ground(rel(&tgt, "task")?, &["ML", "Alice", "111"]);
    j.insert_ground(rel(&tgt, "org")?, &["111", "SAP"]);
    j.insert_ground(rel(&tgt, "task")?, &["Web", "Carol", "333"]);
    j.insert_ground(rel(&tgt, "org")?, &["444", "Oracle"]);
    let model =
        CoverageModel::try_build_with(&i, &j, &[theta1, theta3], &CoverageOptions::default())
            .map_err(|e| Failure::Check(format!("appendix model: {e}")))?;
    let objective = Objective::new(&model, weights());
    Ok([
        objective.value(&[]),
        objective.value(&[0]),
        objective.value(&[1]),
        objective.value(&[0, 1]),
    ])
}

/// Check that the appendix totals are 4 | 7.333 | 8 | 12.
pub fn check_appendix() -> Result<(), Failure> {
    let totals = guarded(appendix_totals)?;
    if totals
        .iter()
        .zip(APPENDIX_TOTALS)
        .all(|(&a, b)| close(a, b))
    {
        Ok(())
    } else {
        Err(Failure::Check(format!(
            "appendix totals {totals:?}, expected {APPENDIX_TOTALS:?}"
        )))
    }
}

/// What must repeat exactly when a scenario's line-up runs again.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    selected: Vec<usize>,
    objective_bits: u64,
    evaluations: usize,
    admm_iterations: usize,
    ground_terms: Option<usize>,
    terms_reused: usize,
    terms_recomputed: usize,
    flips: usize,
}

impl Fingerprint {
    /// The fingerprint of one evaluation.
    pub fn of(outcome: &SelectionOutcome) -> Fingerprint {
        let s = &outcome.selection;
        let t = &s.telemetry;
        Fingerprint {
            selected: s.selected.clone(),
            objective_bits: s.objective.to_bits(),
            evaluations: s.evaluations,
            admm_iterations: t.admm_iterations,
            ground_terms: t.ground_terms,
            terms_reused: t.terms_reused,
            terms_recomputed: t.terms_recomputed,
            flips: t.flips,
        }
    }
}

/// Evaluations attempted and failed.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Evaluations attempted.
    pub attempted: u64,
    /// Evaluations failed.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Tally {
    const MAX_MESSAGES: usize = 20;

    /// Count one evaluation.
    pub fn record(&mut self, context: &str, result: Result<(), &Failure>) {
        self.attempted += 1;
        if let Err(failure) = result {
            self.failed += 1;
            if self.messages.len() < Self::MAX_MESSAGES {
                self.messages.push(format!("{context}: {failure}"));
            }
        }
    }

    /// Count every evaluation of a line-up.
    pub fn record_lineup(&mut self, context: &str, results: &LineupResult) {
        for (name, eval) in results {
            self.record(&format!("{context} {name}"), eval.as_ref().map(|_| ()));
        }
    }

    /// Failed evaluations over attempted ones.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Paper quality over the non-reference selectors, plus branch-and-bound
/// exactness.
#[derive(Clone, Debug, Default)]
pub struct Quality {
    evaluations: usize,
    map_f1: f64,
    data_f1: f64,
    objective: f64,
    gold_objective: f64,
    bb_calls: usize,
    bb_exact: usize,
}

impl Quality {
    /// Count one successful evaluation.
    pub fn add(&mut self, name: &str, outcome: &SelectionOutcome) {
        if name == "branch-bound" {
            self.bb_calls += 1;
            self.bb_exact += usize::from(within_budget(&outcome.selection));
        }
        if REFERENCE_SELECTORS.contains(&name) {
            return;
        }
        self.evaluations += 1;
        self.map_f1 += outcome.mapping.f1;
        self.data_f1 += outcome.data.f1;
        self.objective += outcome.selection.objective;
        self.gold_objective += outcome.gold_objective;
    }

    fn mean(&self, sum: f64) -> f64 {
        sum / self.evaluations.max(1) as f64
    }

    /// Mean mapping F1.
    pub fn map_f1(&self) -> f64 {
        self.mean(self.map_f1)
    }

    /// Mean data F1.
    pub fn data_f1(&self) -> f64 {
        self.mean(self.data_f1)
    }

    /// Mean of `F(selection) − F(gold)`.
    pub fn objective_gap(&self) -> f64 {
        self.mean(self.objective - self.gold_objective)
    }

    /// `Σ F(selection) / Σ F(gold)`.
    pub fn objective_ratio(&self) -> f64 {
        self.objective / self.gold_objective
    }

    /// Share of branch-and-bound calls that finished within the node
    /// budget; 1 when none ran (no call was cut short).
    pub fn exact_share(&self) -> f64 {
        exact_share(self.bb_exact, self.bb_calls)
    }
}

/// Whether a branch-and-bound selection finished within its node budget:
/// a truncated search says so in its note.
pub fn within_budget(selection: &Selection) -> bool {
    selection.note.is_empty()
}

/// `exact / calls`, or 1 when there were no calls.
pub fn exact_share(exact: usize, calls: usize) -> f64 {
    if calls == 0 {
        1.0
    } else {
        exact as f64 / calls as f64
    }
}

/// Counts over one pass of the scenario set that must repeat exactly for
/// a given seed.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    candidates: usize,
    target_tuples: usize,
    chase_firings: usize,
    ground_terms: usize,
    admm_iterations: usize,
    bb_nodes: usize,
    ls_evaluations: usize,
    terms_reused: usize,
    terms_recomputed: usize,
}

impl Counts {
    /// Count a scenario's sizes.
    pub fn add_scenario(&mut self, scenario: &Scenario, reference: &Reference) {
        self.candidates += scenario.candidates.len();
        self.target_tuples += scenario.target.total_len();
        self.chase_firings += reference.chase_firings;
    }

    /// Count one successful evaluation's work.
    pub fn add_outcome(&mut self, name: &str, outcome: &SelectionOutcome) {
        let s = &outcome.selection;
        self.admm_iterations += s.telemetry.admm_iterations;
        match name {
            "psl-collective" => self.ground_terms += s.telemetry.ground_terms.unwrap_or(0),
            "branch-bound" => self.bb_nodes += s.evaluations,
            "local-search" => {
                self.ls_evaluations += s.evaluations;
                self.terms_reused += s.telemetry.terms_reused;
                self.terms_recomputed += s.telemetry.terms_recomputed;
            }
            _ => {}
        }
    }

    /// `(name, count)` pairs, for printing.
    pub fn entries(&self) -> [(&'static str, usize); 9] {
        [
            ("candidates", self.candidates),
            ("target_tuples", self.target_tuples),
            ("chase_firings", self.chase_firings),
            ("ground_terms", self.ground_terms),
            ("admm_iterations", self.admm_iterations),
            ("bb_nodes", self.bb_nodes),
            ("ls_evaluations", self.ls_evaluations),
            ("reground_terms_reused", self.terms_reused),
            ("reground_terms_recomputed", self.terms_recomputed),
        ]
    }
}
