//! Warm-started PSL relaxation tracking for flip-based search.
//!
//! Local search flips one `inMap` candidate per move. Evaluating the PSL
//! relaxation of every visited selection used to mean a full
//! [`Program::ground`] plus a cold ADMM solve per move; this module keeps
//! one program alive across the whole search and pays only the delta:
//!
//! * the candidate's `inMap` atom is **observed** (0/1) rather than
//!   inferred, so a flip is a single value mutation the database logs as a
//!   [`cms_psl::DbDelta`];
//! * [`Program::reground`] splices the previous ground program,
//!   recomputing only the terms that touch the flipped atom (the
//!   `error-link` join rule takes the seeded fast path, the raw
//!   cap/size/error terms are patched by exact-atom dirtiness);
//! * [`cms_psl::GroundProgram::solve_warm_dual`] seeds ADMM with the
//!   previous consensus vector — variable indices are stable across
//!   regrounds — **and** the previous scaled duals, mapped onto the new
//!   program with [`cms_psl::GroundProgram::carry_duals`] (spliced terms
//!   keep their dual state, recomputed terms start cold), so the solve
//!   converges in a fraction of the cold iteration count;
//! * moves can be **batched** ([`WarmRelaxation::set_members`],
//!   [`WarmRelaxation::set_selection`]): all writes land in one drained
//!   delta, the drain coalesces them to their net effect (cancelling pairs
//!   vanish, flip chains fold), and the whole batch costs one reground and
//!   one warm solve — a batch that nets to nothing skips the solve
//!   entirely.
//!
//! The reported value is the LP relaxation of the discrete objective
//! (`explains` is the capped *sum* of covers rather than the max), i.e. a
//! lower bound on `F(M)` for integral selections.
//!
//! # Failure semantics
//!
//! Every incremental shortcut above is guarded, and every guard failure
//! degrades one rung down a ladder that ends at the always-correct cold
//! path (see `docs/robustness.md`):
//!
//! 1. **warm duals** — carried duals that fail
//!    [`cms_psl::DualState::all_finite`] are dropped (the solve still warm
//!    starts from the consensus vector);
//! 2. **warm consensus** — a reground rejected by the delta guard
//!    ([`cms_psl::RegroundError`]) or failing mid-splice falls back to a
//!    fresh [`Program::ground`] (counted in
//!    [`SelectionTelemetry::fallback_fresh_grounds`]);
//! 3. **cold solve** — a solve whose [`cms_psl::SolveHealth`] is not
//!    nominal (stalled/diverged after the solver's own restart policy) is
//!    redone cold on the same ground program;
//! 4. **fresh ground + cold solve** — if even the cold solve is unhealthy,
//!    the ground program itself is rebuilt from scratch and solved cold.
//!
//! A [`cms_psl::SolveHealth::TimedOut`] solve is *not* escalated: the time
//! budget is a wall-clock promise, and a cold retry would break it. The
//! ladder records every rung taken as a typed [`cms_obs::DegradationRung`]
//! — in [`WarmRelaxation::last_degradations`] for the last move and in
//! [`WarmRelaxation::telemetry`] for the lifetime, each one also emitted to
//! the telemetry journal as a [`cms_obs::Event::Degradation`] — and counts
//! it there (`fallback_fresh_grounds`, `solver_restarts`, `duals_dropped`,
//! `cold_solves`).

use crate::coverage::CoverageModel;
use crate::objective::ObjectiveWeights;
use crate::selectors::{SelectError, SelectionTelemetry};
use cms_psl::{
    AdmmConfig, AtomLin, ConstraintKind, DualState, GroundAtom, GroundProgram, PredId, Program,
    RuleBuilder, SolveHealth, Vocabulary,
};

/// Predicate ids of the evaluation program (exposed so tests and benches
/// can drive mutations directly).
#[derive(Clone, Copy, Debug)]
pub struct EvalPreds {
    /// `tuple/1`, closed: target tuples (observed 1.0).
    pub tuple: PredId,
    /// `inMap/1`, closed: the selection under evaluation (observed 0/1).
    pub in_map: PredId,
    /// `creates/2`, closed: candidate → error-group edges.
    pub creates: PredId,
    /// `explained/1`, open target.
    pub explained: PredId,
    /// `err/1`, open target.
    pub err: PredId,
}

/// Build the selection-evaluation PSL program: the collective model of
/// [`crate::selectors::PslCollective`] with `inMap` **observed** at the
/// given selection instead of inferred. Flipping one `inMap` truth is then
/// a pure value delta — the regrounder's fast path.
pub fn build_eval_program(
    model: &CoverageModel,
    weights: &ObjectiveWeights,
    selection: &[usize],
) -> (Program, EvalPreds) {
    let mut vocab = Vocabulary::new();
    let tuple_p = vocab.closed("tuple", 1);
    let in_map_p = vocab.closed("inMap", 1);
    let creates_p = vocab.closed("creates", 2);
    let explained_p = vocab.open("explained", 1);
    let err_p = vocab.open("err", 1);
    let preds = EvalPreds {
        tuple: tuple_p,
        in_map: in_map_p,
        creates: creates_p,
        explained: explained_p,
        err: err_p,
    };

    let mut program = Program::new(vocab);
    let t_atom = |t: usize| GroundAtom::from_strs(tuple_p, &[&format!("t{t}")]);
    let in_map = |c: usize| GroundAtom::from_strs(in_map_p, &[&format!("c{c}")]);
    let explained = |t: usize| GroundAtom::from_strs(explained_p, &[&format!("t{t}")]);
    let err = |g: usize| GroundAtom::from_strs(err_p, &[&format!("g{g}")]);

    let mut on = vec![false; model.num_candidates];
    for &c in selection {
        on[c] = true;
    }
    for t in 0..model.num_targets() {
        program.db.observe(t_atom(t), 1.0);
        program.db.target(explained(t));
    }
    for (c, &selected) in on.iter().enumerate() {
        program.db.observe(in_map(c), f64::from(u8::from(selected)));
        // Size prior: folds to a constant loss tracking the selection.
        let mut lin = AtomLin::new();
        lin.add(in_map(c), 1.0);
        program.add_raw_potential(
            lin,
            weights.w_size * model.sizes[c] as f64,
            false,
            "size-prior",
        );
    }
    // Reward explanations (clean rule: never touched by flips).
    program.add_rule(
        RuleBuilder::new("explain-reward")
            .body(tuple_p, vec![cms_psl::rvar("T")])
            .head(explained_p, vec![cms_psl::rvar("T")])
            .weight(weights.w_explain)
            .build(),
    );
    // Explanation cap per target (raw constraints; exact-atom dirtiness).
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
    // Error links as a genuine two-literal join rule — flips drive the
    // regrounder's seeded fast path through it.
    program.add_rule(
        RuleBuilder::new("error-link")
            .body(creates_p, vec![cms_psl::rvar("C"), cms_psl::rvar("G")])
            .body(in_map_p, vec![cms_psl::rvar("C")])
            .head(err_p, vec![cms_psl::rvar("G")])
            .build(),
    );
    for (g, group) in model.errors.iter().enumerate() {
        program.db.target(err(g));
        for &creator in &group.creators {
            program.db.observe(
                GroundAtom::from_strs(creates_p, &[&format!("c{creator}"), &format!("g{g}")]),
                1.0,
            );
        }
        let mut lin = AtomLin::new();
        lin.add(err(g), 1.0);
        program.add_raw_potential(lin, weights.w_error, false, "error-penalty");
    }
    (program, preds)
}

/// A PSL relaxation kept warm across a flip sequence: delta regrounding
/// plus warm-started ADMM per move (see the module docs).
pub struct WarmRelaxation {
    program: Program,
    preds: EvalPreds,
    ground: GroundProgram,
    admm: AdmmConfig,
    values: Vec<f64>,
    duals: Option<DualState>,
    soft_objective: f64,
    /// Cumulative counters over the relaxation's lifetime: flips, splice
    /// reuse, ADMM iterations, ladder rungs, and the last solve's health.
    /// `soft_objective` and the collective-only fields stay `None`.
    pub telemetry: SelectionTelemetry,
    /// Typed rungs taken on the last [`WarmRelaxation::set`] /
    /// [`WarmRelaxation::set_selection`] (several can fire on one flip).
    pub last_degradations: Vec<cms_obs::DegradationRung>,
}

impl WarmRelaxation {
    /// Build the evaluation program for the empty selection, ground it
    /// fully once, and solve cold — the baseline every later flip patches.
    pub fn new(
        model: &CoverageModel,
        weights: &ObjectiveWeights,
        mut admm: AdmmConfig,
    ) -> Result<WarmRelaxation, SelectError> {
        // Arm the solver watchdog unless the caller configured it: a
        // warm-started solve gone wrong should stall out and restart, not
        // burn the full iteration cap producing garbage.
        if admm.stall_window == 0 {
            admm.stall_window = 1000;
        }
        if admm.max_restarts == 0 {
            admm.max_restarts = 2;
        }
        let (mut program, preds) = build_eval_program(model, weights, &[]);
        let ground = program.ground()?;
        let _ = program.db.take_delta(); // the build writes are not a delta
        let (solution, duals) = ground.solve_warm_dual(&admm, &[], None);
        Ok(WarmRelaxation {
            program,
            preds,
            values: solution.admm.values.clone(),
            duals: Some(duals),
            soft_objective: solution.total_objective(),
            telemetry: SelectionTelemetry {
                admm_iterations: solution.admm.iterations,
                solver_restarts: solution.admm.restarts,
                last_health: Some(solution.admm.health),
                ..SelectionTelemetry::default()
            },
            ground,
            admm,
            last_degradations: Vec::new(),
        })
    }

    /// Set one candidate's membership; regrounds incrementally and
    /// re-solves warm. Returns the new soft (relaxed) objective. Writing
    /// the value the candidate already has is free.
    pub fn set(&mut self, candidate: usize, selected: bool) -> Result<f64, SelectError> {
        let atom = GroundAtom::from_strs(self.preds.in_map, &[&format!("c{candidate}")]);
        self.program.db.observe(atom, f64::from(u8::from(selected)));
        self.resolve()
    }

    /// Apply a batch of membership moves in one shot: every write lands in
    /// a single drained delta, so the whole batch costs one coalesced
    /// reground and one warm solve. Later moves override earlier ones on
    /// the same candidate, and moves that cancel out (set then unset
    /// within the batch) coalesce away before the regrounder sees them —
    /// a batch that nets to nothing skips the solve entirely.
    pub fn set_members(&mut self, moves: &[(usize, bool)]) -> Result<f64, SelectError> {
        for &(candidate, selected) in moves {
            let atom = GroundAtom::from_strs(self.preds.in_map, &[&format!("c{candidate}")]);
            self.program.db.observe(atom, f64::from(u8::from(selected)));
        }
        self.resolve()
    }

    /// Replace the whole selection (used on restarts); only candidates
    /// whose membership actually changes cost anything — one reground and
    /// one warm solve cover the whole batch.
    pub fn set_selection(&mut self, selection: &[usize]) -> Result<f64, SelectError> {
        let mut on = vec![false; self.num_candidates()];
        for &c in selection {
            on[c] = true;
        }
        for (c, &sel) in on.iter().enumerate() {
            let atom = GroundAtom::from_strs(self.preds.in_map, &[&format!("c{c}")]);
            self.program.db.observe(atom, f64::from(u8::from(sel)));
        }
        self.resolve()
    }

    /// The soft (LP-relaxed) objective of the current selection.
    pub fn soft_objective(&self) -> f64 {
        self.soft_objective
    }

    /// Predicate ids of the underlying evaluation program.
    pub fn preds(&self) -> EvalPreds {
        self.preds
    }

    fn num_candidates(&self) -> usize {
        self.program.db.atoms_of(self.preds.in_map).len()
    }

    /// Drain the delta, reground incrementally, warm-solve — degrading
    /// down the ladder in the module docs on any guard or watchdog
    /// failure.
    fn resolve(&mut self) -> Result<f64, SelectError> {
        let delta = self.program.db.take_delta();
        if delta.is_empty() {
            return Ok(self.soft_objective);
        }
        self.telemetry.flips += delta.raw_entries();
        self.last_degradations.clear();
        let prior = std::mem::take(&mut self.ground);
        let mut incremental = true;
        self.ground = match self.program.reground_owned(prior, &delta) {
            Ok(g) => g,
            Err(err) => {
                // Rung 2: the incremental state is not trustworthy; a
                // fresh grounding owes nothing to it. `dual_reuse` is then
                // `None`, so the dual carry below degrades with it.
                self.degrade(cms_obs::DegradationRung::FreshGround {
                    reason: err.to_string(),
                });
                self.telemetry.fallback_fresh_grounds += 1;
                incremental = false;
                self.program.ground()?
            }
        };
        let stats = self.ground.total_stats();
        let t = &mut self.telemetry;
        t.terms_reused += stats.terms_reused;
        t.terms_recomputed += stats.terms_recomputed;
        t.arith_bindings_spliced += stats.arith_bindings_spliced;
        t.entries_coalesced += stats.entries_coalesced;
        t.sources_deduped += stats.sources_deduped;
        if incremental && delta.is_net_empty() {
            // The batch cancelled out entirely: the ground program, the
            // consensus values, and the carried duals all still describe
            // the database exactly, so the cached objective stands and no
            // solve is needed.
            return Ok(self.soft_objective);
        }
        // Spliced terms keep their ADMM dual state across the reground;
        // only the recomputed ones start cold.
        let carried = match self.duals.as_ref().and_then(|d| self.ground.carry_duals(d)) {
            // Rung 1: poisoned duals would feed NaN straight into the
            // first local step — drop them, keep the consensus warm start.
            Some(c) if !c.all_finite() => {
                self.degrade(cms_obs::DegradationRung::DroppedNonFiniteDuals {
                    dropped: c.seeded_terms() as u64,
                });
                self.telemetry.duals_dropped += 1;
                None
            }
            other => other,
        };
        if let Some(c) = &carried {
            self.telemetry.dual_terms_carried += c.seeded_terms();
        }
        let (mut solution, mut duals) =
            self.ground
                .solve_warm_dual(&self.admm, &self.values, carried.as_ref());
        self.telemetry.solver_restarts += solution.admm.restarts;
        self.telemetry.admm_iterations += solution.admm.iterations;
        // A timed-out solve is deliberately not escalated: the budget is a
        // wall-clock promise and every further rung would respend it.
        if !solution.admm.health.is_nominal() && solution.admm.health != SolveHealth::TimedOut {
            // Rung 3: the warm start itself may be the problem — solve
            // cold on the same ground program.
            self.degrade(cms_obs::DegradationRung::ColdSolve {
                health: solution.admm.health.to_string(),
            });
            self.telemetry.cold_solves += 1;
            (solution, duals) = self.ground.solve_warm_dual(&self.admm, &[], None);
            self.telemetry.solver_restarts += solution.admm.restarts;
            self.telemetry.admm_iterations += solution.admm.iterations;
            if !solution.admm.health.is_nominal() && solution.admm.health != SolveHealth::TimedOut {
                // Rung 4: distrust the spliced ground program entirely.
                self.degrade(cms_obs::DegradationRung::FreshGroundColdSolve {
                    health: solution.admm.health.to_string(),
                });
                self.telemetry.fallback_fresh_grounds += 1;
                self.ground = self.program.ground()?;
                (solution, duals) = self.ground.solve_warm_dual(&self.admm, &[], None);
                self.telemetry.solver_restarts += solution.admm.restarts;
                self.telemetry.admm_iterations += solution.admm.iterations;
            }
        }
        self.telemetry.last_health = Some(solution.admm.health);
        self.duals = Some(duals);
        self.values.clone_from(&solution.admm.values);
        self.soft_objective = solution.total_objective();
        Ok(self.soft_objective)
    }

    /// Record one ladder rung: push it onto the typed histories and emit a
    /// [`cms_obs::Event::Degradation`] to the journal (several rungs can
    /// fire on a single flip).
    fn degrade(&mut self, rung: cms_obs::DegradationRung) {
        cms_obs::count("select.degradations", 1);
        cms_obs::emit(cms_obs::Event::Degradation(rung.clone()));
        // Flight-recorder black box: a serious rung (fresh-ground
        // fallback or worse) persists the last ring window to
        // `CMS_OBS_DUMP` so the events leading up to the degradation
        // survive even if the process dies next.
        cms_obs::dump_on_degradation(rung.rung());
        self.last_degradations.push(rung.clone());
        self.telemetry.degradations.push(rung);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objective;
    use crate::reduction::{build_reduction, SetCoverInstance};

    fn model() -> CoverageModel {
        let sc = SetCoverInstance {
            universe: 4,
            sets: vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]],
            bound: 2,
        };
        let red = build_reduction(&sc);
        CoverageModel::build(&red.source, &red.target, &red.candidates)
    }

    /// A flip sequence through the warm evaluator must (a) match a freshly
    /// built-and-ground evaluation of the same selection and (b) stay a
    /// lower bound on the discrete objective.
    #[test]
    fn warm_flips_match_fresh_evaluations_and_lower_bound_f() {
        let model = model();
        let w = ObjectiveWeights::unweighted();
        let discrete = Objective::new(&model, w);
        let mut warm = WarmRelaxation::new(&model, &w, AdmmConfig::default()).unwrap();

        let mut selection: Vec<usize> = Vec::new();
        for &(c, on) in &[(0usize, true), (2, true), (0, false), (1, true), (0, true)] {
            let soft = warm.set(c, on).unwrap();
            if on && !selection.contains(&c) {
                selection.push(c);
            } else if !on {
                selection.retain(|&x| x != c);
            }
            // Fresh evaluation of the same selection from scratch.
            let (fresh_prog, _) = build_eval_program(&model, &w, &selection);
            let fresh = fresh_prog.ground().unwrap();
            let fresh_sol = fresh.solve(&AdmmConfig::default());
            assert!(
                (soft - fresh_sol.total_objective()).abs() < 5e-3,
                "flip ({c},{on}): warm {} vs fresh {}",
                soft,
                fresh_sol.total_objective()
            );
            let f = discrete.value(&selection);
            assert!(
                soft <= f + 5e-3,
                "relaxation {soft} must lower-bound F {f} at {selection:?}"
            );
        }
        assert!(
            warm.telemetry.terms_reused > 0,
            "flips must splice ground terms"
        );
        assert!(warm.telemetry.terms_recomputed > 0);
        assert!(warm.telemetry.flips >= 5);
    }

    /// A batch of moves through `set_members` must land on the same soft
    /// objective as applying the same moves one at a time.
    #[test]
    fn batched_moves_match_sequential_flips() {
        let model = model();
        let w = ObjectiveWeights::unweighted();
        let mut seq = WarmRelaxation::new(&model, &w, AdmmConfig::default()).unwrap();
        let mut batched = WarmRelaxation::new(&model, &w, AdmmConfig::default()).unwrap();

        let moves = [(0usize, true), (2, true), (0, false), (1, true)];
        let mut seq_soft = 0.0;
        for &(c, on) in &moves {
            seq_soft = seq.set(c, on).unwrap();
        }
        let batch_soft = batched.set_members(&moves).unwrap();
        assert!(
            (seq_soft - batch_soft).abs() < 5e-3,
            "sequential {seq_soft} vs batched {batch_soft}"
        );
        // The batch drains once: four raw flips, but candidate 0's
        // set+unset pair coalesces away before the reground.
        assert_eq!(batched.telemetry.flips, 4);
        assert_eq!(batched.telemetry.entries_coalesced, 2);
        assert!(
            batched.telemetry.admm_iterations < seq.telemetry.admm_iterations,
            "one warm solve ({}) must beat four ({})",
            batched.telemetry.admm_iterations,
            seq.telemetry.admm_iterations
        );
    }

    /// A batch whose moves cancel out is a provable no-op: the flips are
    /// counted, but no solve runs.
    #[test]
    fn cancelling_batch_skips_the_solve() {
        let model = model();
        let w = ObjectiveWeights::unweighted();
        let mut warm = WarmRelaxation::new(&model, &w, AdmmConfig::default()).unwrap();
        warm.set_selection(&[1]).unwrap();
        let iters = warm.telemetry.admm_iterations;
        let soft = warm.soft_objective();
        warm.set_members(&[(2, true), (2, false)]).unwrap();
        assert_eq!(
            warm.telemetry.admm_iterations, iters,
            "net-empty batch must not solve"
        );
        assert_eq!(warm.telemetry.flips, 3, "raw flips are still counted");
        assert_eq!(warm.telemetry.entries_coalesced, 2);
        assert!((warm.soft_objective() - soft).abs() == 0.0);
        // The relaxation stays live: a real move still works after it.
        let after = warm.set(2, true).unwrap();
        let (fresh_prog, _) = build_eval_program(&model, &w, &[1, 2]);
        let fresh = fresh_prog.ground().unwrap().solve(&AdmmConfig::default());
        assert!((after - fresh.total_objective()).abs() < 5e-3);
    }

    /// Rewriting the current selection is free (no delta, no solve).
    #[test]
    fn identical_selection_costs_nothing() {
        let model = model();
        let w = ObjectiveWeights::unweighted();
        let mut warm = WarmRelaxation::new(&model, &w, AdmmConfig::default()).unwrap();
        warm.set_selection(&[1, 2]).unwrap();
        let iters = warm.telemetry.admm_iterations;
        let flips = warm.telemetry.flips;
        warm.set_selection(&[1, 2]).unwrap();
        assert_eq!(
            warm.telemetry.admm_iterations, iters,
            "no-op batch must not solve"
        );
        assert_eq!(warm.telemetry.flips, flips);
    }
    #[test]
    fn eval_explain_caps_match_the_pairwise_scan() {
        use crate::selectors::test_support::{
            appendix_model, explain_caps_by_scan, generated_model, known_optimum_model,
        };
        let w = ObjectiveWeights::unweighted();
        for model in [appendix_model(), known_optimum_model().0, generated_model()] {
            // With every candidate selected, each cap folds its inMap
            // terms into the constant −Σ degree, summed in candidate order.
            let all: Vec<usize> = (0..model.num_candidates).collect();
            let (program, _) = build_eval_program(&model, &w, &all);
            let ground = program.ground().unwrap();
            let constants: Vec<u64> = ground
                .constraints
                .iter()
                .filter(|c| c.origin == "explain-cap")
                .map(|c| c.expr.constant.to_bits())
                .collect();
            let expected: Vec<u64> = explain_caps_by_scan(&model)
                .iter()
                .map(|cap| {
                    cap.iter()
                        .fold(0.0, |acc, &(_, d)| acc + -d * 1.0)
                        .to_bits()
                })
                .collect();
            assert_eq!(constants, expected);
        }
    }
}
