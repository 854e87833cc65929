//! The paper's approach: collective selection via PSL MAP inference.
//!
//! The coverage model compiles into this HL-MRF (the paper's collective
//! model, with the caps and error links as hard linear constraints):
//!
//! ```text
//! predicates:  tuple/1, cand/1, creates/2 (closed)
//!              inMap/1, explained/1, err/1 (open)
//!
//! (R1)  w1 :  tuple(T) → explained(T)
//! (R2)  hard:  explained(t) ≤ Σ_θ covers(θ,t) · inMap(θ)     (per target)
//! (R3)  hard:  inMap(θ) ≤ err(g)        for each creator θ of group g
//! (R4)  w2 :  err(g) → 0                 (raw hinge on err)
//! (R5)  w3·size(θ) :  inMap(θ) → 0       (raw hinge; size prior)
//! ```
//!
//! [`PslCollective::build_program`] states this as a PSL [`Program`]
//! (atoms, database, one logical rule and raw terms), and grounding it
//! yields the HL-MRF. [`PslCollective::infer`] skips that detour:
//! [`PslCollective::compile`] writes the ground terms straight from the
//! model's dense indices, with variables laid out as
//!
//! ```text
//! explained(t) → t      inMap(c) → |T| + c      err(g) → |T| + |C| + g
//! ```
//!
//! and terms in the grounder's order — potentials R1 per target, R5 per
//! candidate, R4 per group; constraints R2 per target, R3 per group and
//! creator. That is exactly what `build_program(..).ground()` produces:
//! the grounder handles the one logical rule (R1) before the raw terms,
//! enumerates `tuple` atoms and interns each target atom in insertion
//! order, which is the order above, and every expression goes through the
//! same [`LinExpr::normalize`]. No term is observed-only, so the constant
//! loss is 0. The compiled program is therefore term-for-term the
//! grounded one, and the ADMM iterates are bit-identical; a unit test
//! checks the equality on every term, and an integration test the solves.
//!
//! MAP inference is one consensus-ADMM solve of the ground program. The
//! program separates over the coverage model's independent components —
//! candidates interact only through a target both cover or an error group
//! both create — and the solver stops each component (small ones grouped
//! into one block) on its own residual; see the `cms_psl::admm` module
//! docs. It yields relaxed `inMap` truths in [0,1]; the final discrete
//! mapping is the best of (a) every threshold rounding
//! and (b) a greedy repair seeded by the best rounding, both evaluated
//! under the true discrete objective. The LP objective of the integral
//! points coincides with `F(M)` except that `explains` is the capped *sum*
//! of covers rather than the max — the standard PSL relaxation.

use super::greedy::greedy_from;
use super::{SelectError, Selection, Selector};
use crate::coverage::CoverageModel;
use crate::objective::{Objective, ObjectiveWeights};
use cms_psl::{
    best_threshold_rounding, rvar, AdmmConfig, AdmmSolution, AdmmSolver, AtomLin, ConstraintKind,
    GroundAtom, GroundConstraint, GroundPotential, LinExpr, Program, RuleBuilder, Vocabulary,
};

/// The collective PSL selector.
#[derive(Clone, Debug)]
pub struct PslCollective {
    /// ADMM configuration.
    pub admm: AdmmConfig,
    /// Run a greedy add/remove repair from the rounded solution.
    pub greedy_repair: bool,
    /// Square the hinges of the soft rules R1, R4 and R5 (quadratic
    /// variant; the paper's objective is linear, squared is offered for the
    /// EX8 ablation). Every encoding honours it.
    pub squared: bool,
}

impl Default for PslCollective {
    fn default() -> PslCollective {
        PslCollective {
            admm: AdmmConfig::default(),
            greedy_repair: true,
            squared: false,
        }
    }
}

/// Artifacts of one PSL run, exposed for experiments that inspect the
/// relaxation itself (EX7, EX8).
#[derive(Clone, Debug)]
pub struct PslRun {
    /// Relaxed `inMap` truth value per candidate.
    pub relaxed: Vec<f64>,
    /// ADMM iterations of the longest-running block (see
    /// [`cms_psl::AdmmSolution::iterations`]).
    pub iterations: usize,
    /// Whether ADMM converged within its budget.
    pub converged: bool,
    /// Soft MAP objective: the relaxed PSL objective at the final ADMM
    /// iterate plus the program's constant loss (0 for the compiled
    /// program). It scores the continuous relaxation, not the rounded
    /// selection's Eq. (9) objective.
    pub soft_objective: f64,
    /// Ground potentials + constraints (model size proxy).
    pub ground_terms: usize,
    /// Health of the solve (see [`cms_psl::SolveHealth`]).
    pub health: cms_psl::SolveHealth,
    /// Watchdog restarts absorbed by the solve.
    pub restarts: usize,
}

impl PslRun {
    fn new(
        admm: AdmmSolution,
        relaxed: Vec<f64>,
        constant_loss: f64,
        ground_terms: usize,
    ) -> PslRun {
        PslRun {
            relaxed,
            iterations: admm.iterations,
            converged: admm.converged,
            soft_objective: admm.objective + constant_loss,
            ground_terms,
            health: admm.health,
            restarts: admm.restarts,
        }
    }
}

/// The ground HL-MRF of a coverage model over dense variable ids, as
/// [`PslCollective::compile`] writes it (layout and term order in the
/// module docs).
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// Weighted potentials: R1 per target, R5 per candidate, R4 per group.
    pub potentials: Vec<GroundPotential>,
    /// Hard constraints: R2 per target, then R3 per group and creator.
    pub constraints: Vec<GroundConstraint>,
    /// `|T| + |C| + |G|`: one variable per target, candidate and group.
    pub num_vars: usize,
}

/// A ground expression normalized the way the grounder leaves every term.
fn normalized(constant: f64, terms: impl IntoIterator<Item = (usize, f64)>) -> LinExpr {
    let mut expr = LinExpr::constant(constant);
    expr.terms.extend(terms);
    expr.normalize();
    expr
}

impl PslCollective {
    /// Compile the coverage model into the raw program's ground terms
    /// directly: term for term what `build_program(..).ground()` yields,
    /// without atoms, a database or the grounder (see the module docs).
    pub fn compile(&self, model: &CoverageModel, weights: &ObjectiveWeights) -> CompiledProgram {
        let (nt, nc, ng) = (
            model.num_targets(),
            model.num_candidates,
            model.errors.len(),
        );
        let in_map = |c: usize| nt + c;
        let err = |g: usize| nt + nc + g;
        let soft = |expr: LinExpr, weight: f64, origin: &str| GroundPotential {
            expr,
            weight,
            squared: self.squared,
            origin: origin.to_owned(),
        };
        let hard = |expr: LinExpr, origin: &str| GroundConstraint {
            expr,
            kind: ConstraintKind::LeqZero,
            origin: origin.to_owned(),
        };

        let mut potentials = Vec::with_capacity(nt + nc + ng);
        // (R1) 1 − explained(t), as the grounder folds `tuple(t) = 1`.
        potentials.extend((0..nt).map(|t| {
            soft(
                normalized(1.0, [(t, -1.0)]),
                weights.w_explain,
                "explain-reward",
            )
        }));
        // (R5) size prior.
        potentials.extend((0..nc).map(|c| {
            let weight = weights.w_size * model.sizes[c] as f64;
            soft(normalized(0.0, [(in_map(c), 1.0)]), weight, "size-prior")
        }));
        // (R4) error penalty.
        potentials.extend((0..ng).map(|g| {
            soft(
                normalized(0.0, [(err(g), 1.0)]),
                weights.w_error,
                "error-penalty",
            )
        }));

        let links: usize = model.errors.iter().map(|g| g.creators.len()).sum();
        let mut constraints = Vec::with_capacity(nt + links);
        // (R2) explanation cap per target.
        for (t, covering) in model.covers_by_target().into_iter().enumerate() {
            let caps = covering
                .into_iter()
                .filter(|&(_, d)| d > 0.0)
                .map(|(c, d)| (in_map(c), -d));
            let cap = normalized(0.0, std::iter::once((t, 1.0)).chain(caps));
            constraints.push(hard(cap, "explain-cap"));
        }
        // (R3) error links.
        for (g, group) in model.errors.iter().enumerate() {
            constraints.extend(group.creators.iter().map(|&c| {
                hard(
                    normalized(0.0, [(in_map(c), 1.0), (err(g), -1.0)]),
                    "error-link",
                )
            }));
        }

        CompiledProgram {
            potentials,
            constraints,
            num_vars: nt + nc + ng,
        }
    }

    /// Compile the model, run MAP inference, and return the relaxed state.
    /// Infallible — the compiled program needs no grounding — but returns
    /// a `Result` like [`PslCollective::infer_declarative`].
    pub fn infer(
        &self,
        model: &CoverageModel,
        weights: &ObjectiveWeights,
    ) -> Result<PslRun, SelectError> {
        let program = {
            let _span = cms_obs::span("psl/compile");
            self.compile(model, weights)
        };
        let solution = AdmmSolver::new(&program.potentials, &program.constraints, program.num_vars)
            .solve(&self.admm);
        let first = model.num_targets();
        let relaxed = solution.values[first..first + model.num_candidates].to_vec();
        let terms = program.potentials.len() + program.constraints.len();
        Ok(PslRun::new(solution, relaxed, 0.0, terms))
    }

    /// Build the hand-compiled ("raw") PSL program for a coverage model.
    /// Returns the program plus the `inMap` predicate id needed to read the
    /// relaxed truths back out. This is the reference statement of the
    /// model: its grounding is the oracle [`PslCollective::compile`] is
    /// tested against, and benches and the benchmark's trace ground it to
    /// time the PSL layers.
    pub fn build_program(
        &self,
        model: &CoverageModel,
        weights: &ObjectiveWeights,
    ) -> (Program, cms_psl::PredId) {
        let mut vocab = Vocabulary::new();
        let tuple_p = vocab.closed("tuple", 1);
        let cand_p = vocab.closed("cand", 1);
        let in_map_p = vocab.open("inMap", 1);
        let explained_p = vocab.open("explained", 1);
        let err_p = vocab.open("err", 1);

        let mut program = Program::new(vocab);

        let t_atom = |t: usize| GroundAtom::from_strs(tuple_p, &[&format!("t{t}")]);
        let c_atom = |c: usize| GroundAtom::from_strs(cand_p, &[&format!("c{c}")]);
        let in_map = |c: usize| GroundAtom::from_strs(in_map_p, &[&format!("c{c}")]);
        let explained = |t: usize| GroundAtom::from_strs(explained_p, &[&format!("t{t}")]);
        let err = |g: usize| GroundAtom::from_strs(err_p, &[&format!("g{g}")]);

        for t in 0..model.num_targets() {
            program.db.observe(t_atom(t), 1.0);
            program.db.target(explained(t));
        }
        for c in 0..model.num_candidates {
            program.db.observe(c_atom(c), 1.0);
            program.db.target(in_map(c));
            // (R5) size prior.
            let mut lin = AtomLin::new();
            lin.add(in_map(c), 1.0);
            program.add_raw_potential(
                lin,
                weights.w_size * model.sizes[c] as f64,
                self.squared,
                "size-prior",
            );
        }
        // (R1) reward explanations.
        program.add_rule(self.explain_reward(tuple_p, explained_p, weights));
        // (R2) explanation cap per target.
        for (t, covering) in model.covers_by_target().into_iter().enumerate() {
            let mut lin = AtomLin::new();
            lin.add(explained(t), 1.0);
            for (c, d) in covering {
                if d > 0.0 {
                    lin.add(in_map(c), -d);
                }
            }
            program.add_raw_constraint(lin, ConstraintKind::LeqZero, "explain-cap");
        }
        // (R3) + (R4) error groups.
        for (g, group) in model.errors.iter().enumerate() {
            program.db.target(err(g));
            for &creator in &group.creators {
                let mut lin = AtomLin::new();
                lin.add(in_map(creator), 1.0);
                lin.add(err(g), -1.0);
                program.add_raw_constraint(lin, ConstraintKind::LeqZero, "error-link");
            }
            let mut lin = AtomLin::new();
            lin.add(err(g), 1.0);
            program.add_raw_potential(lin, weights.w_error, self.squared, "error-penalty");
        }

        (program, in_map_p)
    }

    /// (R1) `w1 : tuple(T) → explained(T)`, squared when the selector is;
    /// shared by both rule encodings.
    fn explain_reward(
        &self,
        tuple_p: cms_psl::PredId,
        explained_p: cms_psl::PredId,
        weights: &ObjectiveWeights,
    ) -> cms_psl::LogicalRule {
        let rule = RuleBuilder::new("explain-reward")
            .body(tuple_p, vec![rvar("T")])
            .head(explained_p, vec![rvar("T")])
            .weight(weights.w_explain);
        let rule = if self.squared { rule.squared() } else { rule };
        rule.build()
    }
}

impl PslCollective {
    /// The same model expressed *declaratively* — logical and arithmetic
    /// PSL rules only, no raw linear terms. Semantically identical to
    /// [`PslCollective::infer`] (a test enforces it); exists to demonstrate
    /// that the engine's rule language subsumes the hand-compiled encoding
    /// and to mirror the paper's presentation of the model as PSL rules.
    ///
    /// ```text
    /// (R1)  w1  : tuple(T) → explained(T)
    /// (R2)  hard: explained(T) − Σ_C covers(C,T)·inMap(C) ≤ 0
    /// (R3)  hard: creates(C,G) ∧ inMap(C) → err(G)
    /// (R4)  w2  : errScope(G) → ¬err(G)
    /// (R5)  w3·maxSize : sizeFrac(C)·inMap(C) ≤ 0        (weighted hinge)
    /// ```
    pub fn infer_declarative(
        &self,
        model: &CoverageModel,
        weights: &ObjectiveWeights,
    ) -> Result<PslRun, SelectError> {
        let (program, in_map_p) = self.build_declarative_program(model, weights);
        let ground = program.ground()?;
        let solution = ground.solve(&self.admm);
        let relaxed = (0..model.num_candidates)
            .map(|c| {
                let atom = GroundAtom::from_strs(in_map_p, &[&format!("c{c}")]);
                solution.value(&ground, &atom).unwrap_or(0.0)
            })
            .collect();
        let terms = ground.potentials.len() + ground.constraints.len();
        Ok(PslRun::new(
            solution.admm,
            relaxed,
            solution.constant_loss,
            terms,
        ))
    }

    /// Build the declarative-rule variant of the program (logical +
    /// arithmetic rules only). Returns the program plus the `inMap`
    /// predicate id. This is the program whose grounding exercises the
    /// rule-join engine hardest (the `error-link` rule is a genuine
    /// two-literal join), so the grounding benches use it.
    pub fn build_declarative_program(
        &self,
        model: &CoverageModel,
        weights: &ObjectiveWeights,
    ) -> (Program, cms_psl::PredId) {
        use cms_psl::ArithRuleBuilder;
        use cms_psl::{RAtom, RTerm};

        let mut vocab = Vocabulary::new();
        let tuple_p = vocab.closed("tuple", 1);
        let cand_p = vocab.closed("cand", 1);
        let covers_p = vocab.closed("covers", 2);
        let creates_p = vocab.closed("creates", 2);
        let err_scope_p = vocab.closed("errScope", 1);
        let size_frac_p = vocab.closed("sizeFrac", 1);
        let in_map_p = vocab.open("inMap", 1);
        let explained_p = vocab.open("explained", 1);
        let err_p = vocab.open("err", 1);

        let mut program = Program::new(vocab);
        let c_name = |c: usize| format!("c{c}");
        let t_name = |t: usize| format!("t{t}");
        let g_name = |g: usize| format!("g{g}");

        let max_size = model.sizes.iter().copied().max().unwrap_or(1).max(1) as f64;
        for t in 0..model.num_targets() {
            program
                .db
                .observe(GroundAtom::from_strs(tuple_p, &[&t_name(t)]), 1.0);
            program
                .db
                .target(GroundAtom::from_strs(explained_p, &[&t_name(t)]));
        }
        for c in 0..model.num_candidates {
            program
                .db
                .observe(GroundAtom::from_strs(cand_p, &[&c_name(c)]), 1.0);
            program.db.observe(
                GroundAtom::from_strs(size_frac_p, &[&c_name(c)]),
                model.sizes[c] as f64 / max_size,
            );
            program
                .db
                .target(GroundAtom::from_strs(in_map_p, &[&c_name(c)]));
            for &(t, d) in &model.covers[c] {
                program.db.observe(
                    GroundAtom::from_strs(covers_p, &[&c_name(c), &t_name(t)]),
                    d,
                );
            }
        }
        for (g, group) in model.errors.iter().enumerate() {
            program
                .db
                .observe(GroundAtom::from_strs(err_scope_p, &[&g_name(g)]), 1.0);
            program
                .db
                .target(GroundAtom::from_strs(err_p, &[&g_name(g)]));
            for &creator in &group.creators {
                program.db.observe(
                    GroundAtom::from_strs(creates_p, &[&c_name(creator), &g_name(g)]),
                    1.0,
                );
            }
        }

        // (R1)
        program.add_rule(self.explain_reward(tuple_p, explained_p, weights));
        // (R2)
        let ratom = |pred, names: &[&str]| RAtom {
            pred,
            args: names.iter().map(|n| RTerm::Var((*n).to_owned())).collect(),
        };
        program.add_arith_rule(
            ArithRuleBuilder::new("explain-cap")
                .term(1.0, vec![ratom(explained_p, &["T"])])
                .term(
                    -1.0,
                    vec![ratom(covers_p, &["C", "T"]), ratom(in_map_p, &["C"])],
                )
                .sum_over("C")
                .build()
                .expect("explain-cap rule is valid"),
        );
        // (R3)
        program.add_rule(
            RuleBuilder::new("error-link")
                .body(creates_p, vec![rvar("C"), rvar("G")])
                .body(in_map_p, vec![rvar("C")])
                .head(err_p, vec![rvar("G")])
                .build(),
        );
        // (R4)
        let penalty = RuleBuilder::new("error-penalty")
            .body(err_scope_p, vec![rvar("G")])
            .head_neg(err_p, vec![rvar("G")])
            .weight(weights.w_error);
        let penalty = if self.squared {
            penalty.squared()
        } else {
            penalty
        };
        program.add_rule(penalty.build());
        // (R5)
        let prior = ArithRuleBuilder::new("size-prior")
            .term(
                1.0,
                vec![ratom(size_frac_p, &["C"]), ratom(in_map_p, &["C"])],
            )
            .weight(weights.w_size * max_size);
        let prior = if self.squared { prior.squared() } else { prior };
        program.add_arith_rule(prior.build().expect("size-prior rule is valid"));

        (program, in_map_p)
    }
}

impl Selector for PslCollective {
    fn name(&self) -> &str {
        "psl-collective"
    }

    fn select(
        &self,
        model: &CoverageModel,
        weights: &ObjectiveWeights,
    ) -> Result<Selection, SelectError> {
        let run = self.infer(model, weights)?;
        let objective = Objective::new(model, *weights);
        let mut evaluations = 0usize;

        // Threshold rounding under the true discrete objective.
        let (rounded, rounded_value) = best_threshold_rounding(&run.relaxed, |sel| {
            evaluations += 1;
            objective.value(sel)
        });

        let (selected, value) = if self.greedy_repair {
            // Portfolio repair: polish the rounded solution greedily, and
            // also run greedy from scratch (the rounded start can sit in a
            // worse basin than the empty start); keep the best of the
            // three. This is what makes "PSL ≥ greedy" hold unconditionally
            // (enforced by a property test).
            let (repaired, repaired_value, ev1) = greedy_from(model, weights, rounded.clone());
            let (from_empty, from_empty_value, ev2) = greedy_from(model, weights, Vec::new());
            evaluations += ev1 + ev2;
            let mut best = (rounded, rounded_value);
            if repaired_value < best.1 - 1e-12 {
                best = (repaired, repaired_value);
            }
            if from_empty_value < best.1 - 1e-12 {
                best = (from_empty, from_empty_value);
            }
            best
        } else {
            (rounded, rounded_value)
        };

        let sel = Selection::new(selected, value, evaluations).with_telemetry(
            super::SelectionTelemetry {
                soft_objective: Some(run.soft_objective),
                admm_iterations: run.iterations,
                solver_restarts: run.restarts,
                last_health: Some(run.health),
                converged: Some(run.converged),
                ground_terms: Some(run.ground_terms),
                ..Default::default()
            },
        );
        Ok(sel)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{appendix_model, known_optimum_model};
    use super::*;

    #[test]
    fn solves_known_set_cover_optimally() {
        let (model, best) = known_optimum_model();
        let sel = PslCollective::default()
            .select(&model, &ObjectiveWeights::unweighted())
            .unwrap();
        assert!(
            (sel.objective - best).abs() < 1e-9,
            "psl got {} expected {}",
            sel.objective,
            best
        );
    }

    #[test]
    fn appendix_example_selects_empty() {
        let model = appendix_model();
        let sel = PslCollective::default()
            .select(&model, &ObjectiveWeights::unweighted())
            .unwrap();
        assert!(sel.selected.is_empty(), "{:?}", sel.selected);
        assert!((sel.objective - 4.0).abs() < 1e-9);
    }

    #[test]
    fn relaxation_reports_are_sane() {
        let (model, _) = known_optimum_model();
        let run = PslCollective::default()
            .infer(&model, &ObjectiveWeights::unweighted())
            .unwrap();
        assert!(run.converged);
        assert!(run.ground_terms > 0);
        assert_eq!(run.relaxed.len(), 4);
        for &v in &run.relaxed {
            assert!((0.0..=1.0).contains(&v), "truth {v} out of box");
        }
    }

    #[test]
    fn without_repair_still_reasonable() {
        let (model, best) = known_optimum_model();
        let sel = PslCollective {
            greedy_repair: false,
            ..PslCollective::default()
        }
        .select(&model, &ObjectiveWeights::unweighted())
        .unwrap();
        // Pure rounding may be slightly worse but must beat "select all".
        let all = Objective::new(&model, ObjectiveWeights::unweighted()).value(&[0, 1, 2, 3]);
        assert!(sel.objective <= all + 1e-9);
        assert!(sel.objective >= best - 1e-9);
    }

    #[test]
    fn declarative_encoding_matches_raw_encoding() {
        // On a preprocessed model (no certainly-unexplained targets — their
        // cap constraints are the one thing lazy arithmetic grounding
        // cannot see), the declarative rule program and the hand-compiled
        // raw program must produce the same relaxed inMap truths.
        let (model, _) = known_optimum_model();
        let w = ObjectiveWeights::unweighted();
        let selector = PslCollective::default();
        let raw = selector.infer(&model, &w).unwrap();
        let declarative = selector.infer_declarative(&model, &w).unwrap();
        assert!(raw.converged && declarative.converged);
        for (c, (a, b)) in raw
            .relaxed
            .iter()
            .zip(declarative.relaxed.iter())
            .enumerate()
        {
            assert!(
                (a - b).abs() < 5e-3,
                "candidate {c}: raw {a} vs declarative {b}"
            );
        }

        let model = appendix_model();
        let raw = selector.infer(&model, &w).unwrap();
        let declarative = selector.infer_declarative(&model, &w).unwrap();
        for (c, (a, b)) in raw
            .relaxed
            .iter()
            .zip(declarative.relaxed.iter())
            .enumerate()
        {
            assert!(
                (a - b).abs() < 5e-3,
                "appendix candidate {c}: raw {a} vs declarative {b}"
            );
        }
    }

    #[test]
    fn explain_caps_match_the_pairwise_scan() {
        use super::super::test_support::{explain_caps_by_scan, generated_model};
        let w = ObjectiveWeights::unweighted();
        for model in [appendix_model(), known_optimum_model().0, generated_model()] {
            let psl = PslCollective::default();
            let (program, in_map_p) = psl.build_program(&model, &w);
            let ground = program.ground().unwrap();
            let grounded_in_map = |c: usize| {
                let atom = GroundAtom::from_strs(in_map_p, &[&format!("c{c}")]);
                ground.var_of(&atom).unwrap()
            };
            let compiled = psl.compile(&model, &w);
            let compiled_in_map = |c: usize| model.num_targets() + c;
            let expected = explain_caps_by_scan(&model);
            for (constraints, in_map) in [
                (
                    &ground.constraints,
                    &grounded_in_map as &dyn Fn(usize) -> usize,
                ),
                (&compiled.constraints, &compiled_in_map),
            ] {
                let caps: Vec<_> = constraints
                    .iter()
                    .filter(|c| c.origin == "explain-cap")
                    .collect();
                assert_eq!(caps.len(), expected.len());
                for (cap, want) in caps.iter().zip(&expected) {
                    let mut want: Vec<(usize, u64)> = want
                        .iter()
                        .map(|&(c, d)| (in_map(c), (-d).to_bits()))
                        .collect();
                    let mut got: Vec<(usize, u64)> = cap
                        .expr
                        .terms
                        .iter()
                        .filter(|&&(_, coef)| coef < 0.0)
                        .map(|&(v, coef)| (v, coef.to_bits()))
                        .collect();
                    want.sort_unstable();
                    got.sort_unstable();
                    assert_eq!(got, want);
                    assert_eq!(cap.expr.terms.len(), want.len() + 1, "plus explained(t)");
                }
            }
        }
    }

    /// A ground expression with its floats as bits, so `-0.0 ≠ 0.0`.
    fn expr_bits(expr: &LinExpr) -> (u64, Vec<(usize, u64)>) {
        let terms = expr.terms.iter().map(|&(v, c)| (v, c.to_bits())).collect();
        (expr.constant.to_bits(), terms)
    }

    #[test]
    fn compile_is_the_grounded_raw_program_term_for_term() {
        use super::super::test_support::generated_model;
        use cms_psl::GroundProgram;
        let weights = [
            ObjectiveWeights::unweighted(),
            ObjectiveWeights {
                w_explain: 0.0,
                w_error: 2.5,
                w_size: 0.0,
            },
            ObjectiveWeights {
                w_explain: 1.5,
                w_error: 0.0,
                w_size: 0.3,
            },
        ];
        let potentials = |p: &[GroundPotential]| -> Vec<_> {
            p.iter()
                .map(|p| {
                    (
                        expr_bits(&p.expr),
                        p.weight.to_bits(),
                        p.squared,
                        p.origin.clone(),
                    )
                })
                .collect()
        };
        let constraints = |c: &[GroundConstraint]| -> Vec<_> {
            c.iter()
                .map(|c| (expr_bits(&c.expr), c.kind, c.origin.clone()))
                .collect()
        };
        // `var_of` through the reference program's own atoms.
        let layout = |program: &Program, ground: &GroundProgram, model: &CoverageModel| {
            let var = |pred: &str, name: String| {
                let pred = program.vocab.id_of(pred).unwrap();
                ground.var_of(&GroundAtom::from_strs(pred, &[&name]))
            };
            let (nt, nc) = (model.num_targets(), model.num_candidates);
            for t in 0..nt {
                assert_eq!(var("explained", format!("t{t}")), Some(t));
            }
            for c in 0..nc {
                assert_eq!(var("inMap", format!("c{c}")), Some(nt + c));
            }
            for g in 0..model.errors.len() {
                assert_eq!(var("err", format!("g{g}")), Some(nt + nc + g));
            }
        };
        let mut checked = 0;
        for raw in [appendix_model(), known_optimum_model().0, generated_model()] {
            let (reduced, _) = crate::preprocess::preprocess(&raw);
            for model in [&raw, &reduced] {
                for w in &weights {
                    for squared in [false, true] {
                        let psl = PslCollective {
                            squared,
                            ..PslCollective::default()
                        };
                        let compiled = psl.compile(model, w);
                        let (program, _) = psl.build_program(model, w);
                        let ground = program.ground().unwrap();
                        assert_eq!(ground.constant_loss.to_bits(), 0.0f64.to_bits());
                        assert_eq!(compiled.num_vars, ground.num_vars());
                        layout(&program, &ground, model);
                        assert_eq!(
                            potentials(&compiled.potentials),
                            potentials(&ground.potentials)
                        );
                        assert_eq!(
                            constraints(&compiled.constraints),
                            constraints(&ground.constraints)
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 36);
    }

    #[test]
    fn squared_reaches_every_soft_rule_in_every_encoding() {
        let model = super::super::test_support::generated_model();
        let w = ObjectiveWeights::unweighted();
        for squared in [false, true] {
            let psl = PslCollective {
                squared,
                ..PslCollective::default()
            };
            let raw = psl.build_program(&model, &w).0.ground().unwrap();
            let declarative = psl
                .build_declarative_program(&model, &w)
                .0
                .ground()
                .unwrap();
            let compiled = psl.compile(&model, &w).potentials;
            for (encoding, potentials) in [
                ("compiled", &compiled),
                ("raw", &raw.potentials),
                ("declarative", &declarative.potentials),
            ] {
                let mut rules: Vec<&str> = potentials.iter().map(|p| p.origin.as_str()).collect();
                rules.sort_unstable();
                rules.dedup();
                assert_eq!(
                    rules,
                    ["error-penalty", "explain-reward", "size-prior"],
                    "{encoding}"
                );
                for p in potentials {
                    assert_eq!(p.squared, squared, "{encoding} {}", p.origin);
                }
            }
        }
    }

    #[test]
    fn squared_variant_runs() {
        let (model, _) = known_optimum_model();
        let sel = PslCollective {
            squared: true,
            ..PslCollective::default()
        }
        .select(&model, &ObjectiveWeights::unweighted())
        .unwrap();
        let t = &sel.telemetry;
        assert!(t.converged.is_some());
        assert!(t.ground_terms.unwrap() > 0);
        assert!(t.soft_objective.unwrap().is_finite());
        assert!(t.last_health.is_some());
        assert!(sel.note.is_empty());
    }
}
