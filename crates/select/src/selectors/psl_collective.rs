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
//! MAP inference (consensus ADMM) yields relaxed `inMap` truths in [0,1];
//! the final discrete mapping is the best of (a) every threshold rounding
//! and (b) a greedy repair seeded by the best rounding, both evaluated
//! under the true discrete objective. The LP objective of the integral
//! points coincides with `F(M)` except that `explains` is the capped *sum*
//! of covers rather than the max — the standard PSL relaxation.

use super::greedy::greedy_from;
use super::{SelectError, Selection, Selector};
use crate::coverage::CoverageModel;
use crate::objective::{Objective, ObjectiveWeights};
use cms_psl::{
    best_threshold_rounding, rvar, AdmmConfig, AtomLin, ConstraintKind, GroundAtom, GroundProgram,
    MapSolution, Program, RuleBuilder, Vocabulary,
};

/// Iteration budget of the coarse first ADMM pass; the refinement pass is
/// warm-started from its consensus (see [`PslCollective::solve_two_stage`]).
const COARSE_BURST: usize = 200;

/// The collective PSL selector.
#[derive(Clone, Debug)]
pub struct PslCollective {
    /// ADMM configuration.
    pub admm: AdmmConfig,
    /// Run a greedy add/remove repair from the rounded solution.
    pub greedy_repair: bool,
    /// Square the hinges of the soft rules (quadratic variant; the paper's
    /// objective is linear, squared is offered for the EX8 ablation).
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
    /// ADMM iterations.
    pub iterations: usize,
    /// Whether ADMM converged within its budget.
    pub converged: bool,
    /// Soft MAP objective: the relaxed PSL objective at the final ADMM
    /// iterate plus the program's constant loss. It scores the continuous
    /// relaxation, not the rounded selection's Eq. (9) objective.
    pub soft_objective: f64,
    /// Ground potentials + constraints (model size proxy).
    pub ground_terms: usize,
    /// Health of the final solve pass (see [`cms_psl::SolveHealth`]).
    pub health: cms_psl::SolveHealth,
    /// Watchdog restarts absorbed across both solve passes.
    pub restarts: usize,
}

impl PslCollective {
    /// Coarse-then-refine MAP inference: a bounded first pass, then — if
    /// it has not converged — a **warm-started** refinement pass
    /// ([`GroundProgram::solve_warm_dual`]) seeded with the coarse
    /// consensus *and* the coarse dual state (so refinement genuinely
    /// resumes the interrupted solve instead of re-learning the duals),
    /// capped at the *remaining* iteration budget so the combined count
    /// never exceeds `self.admm.max_iterations`. Returns the final
    /// solution and the total iterations across both passes.
    fn solve_two_stage(&self, ground: &GroundProgram) -> (MapSolution, usize) {
        let coarse_cfg = AdmmConfig {
            max_iterations: self.admm.max_iterations.min(COARSE_BURST),
            ..self.admm.clone()
        };
        let (coarse, duals) = ground.solve_warm_dual(&coarse_cfg, &[], None);
        if coarse.admm.converged || self.admm.max_iterations <= COARSE_BURST {
            let iterations = coarse.admm.iterations;
            return (coarse, iterations);
        }
        let refine_cfg = AdmmConfig {
            max_iterations: self.admm.max_iterations - coarse.admm.iterations,
            ..self.admm.clone()
        };
        // An unhealthy coarse pass (stalled/diverged/timed out) is not a
        // trustworthy seed — refinement then starts cold instead of
        // resuming from a state the watchdog already condemned.
        let (refined, _) = if coarse.admm.health.is_nominal() {
            ground.solve_warm_dual(&refine_cfg, &coarse.admm.values, Some(&duals))
        } else {
            ground.solve_warm_dual(&refine_cfg, &[], None)
        };
        let iterations = coarse.admm.iterations + refined.admm.iterations;
        (refined, iterations)
    }

    /// Read the relaxed `inMap` truths out of a solution.
    fn read_relaxed(
        model: &CoverageModel,
        ground: &GroundProgram,
        solution: &MapSolution,
        in_map_p: cms_psl::PredId,
    ) -> Vec<f64> {
        (0..model.num_candidates)
            .map(|c| {
                solution
                    .value(
                        ground,
                        &GroundAtom::from_strs(in_map_p, &[&format!("c{c}")]),
                    )
                    .unwrap_or(0.0)
            })
            .collect()
    }

    /// Build the program, run MAP inference, and return the relaxed state.
    /// Grounding failures propagate instead of aborting.
    pub fn infer(
        &self,
        model: &CoverageModel,
        weights: &ObjectiveWeights,
    ) -> Result<PslRun, SelectError> {
        let (program, in_map_p) = self.build_program(model, weights);
        let ground = program.ground()?;
        let (solution, iterations) = self.solve_two_stage(&ground);
        Ok(PslRun {
            relaxed: Self::read_relaxed(model, &ground, &solution, in_map_p),
            iterations,
            converged: solution.admm.converged,
            soft_objective: solution.total_objective(),
            ground_terms: ground.potentials.len() + ground.constraints.len(),
            health: solution.admm.health,
            restarts: solution.admm.restarts,
        })
    }

    /// Build the hand-compiled ("raw") PSL program for a coverage model.
    /// Returns the program plus the `inMap` predicate id needed to read the
    /// relaxed truths back out. Exposed so benches and equivalence tests
    /// can ground the exact production program without running ADMM.
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
        program.add_rule(
            RuleBuilder::new("explain-reward")
                .body(tuple_p, vec![rvar("T")])
                .head(explained_p, vec![rvar("T")])
                .weight(weights.w_explain)
                .build(),
        );
        // (R2) explanation cap per target.
        for t in 0..model.num_targets() {
            let mut lin = AtomLin::new();
            lin.add(explained(t), 1.0);
            for c in 0..model.num_candidates {
                let d = model.cover(c, t);
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
        let (solution, iterations) = self.solve_two_stage(&ground);
        Ok(PslRun {
            relaxed: Self::read_relaxed(model, &ground, &solution, in_map_p),
            iterations,
            converged: solution.admm.converged,
            soft_objective: solution.total_objective(),
            ground_terms: ground.potentials.len() + ground.constraints.len(),
            health: solution.admm.health,
            restarts: solution.admm.restarts,
        })
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
        program.add_rule(
            RuleBuilder::new("explain-reward")
                .body(tuple_p, vec![rvar("T")])
                .head(explained_p, vec![rvar("T")])
                .weight(weights.w_explain)
                .build(),
        );
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
        program.add_rule(
            RuleBuilder::new("error-penalty")
                .body(err_scope_p, vec![rvar("G")])
                .head_neg(err_p, vec![rvar("G")])
                .weight(weights.w_error)
                .build(),
        );
        // (R5)
        program.add_arith_rule(
            ArithRuleBuilder::new("size-prior")
                .term(
                    1.0,
                    vec![ratom(size_frac_p, &["C"]), ratom(in_map_p, &["C"])],
                )
                .weight(weights.w_size * max_size)
                .build()
                .expect("size-prior rule is valid"),
        );

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
