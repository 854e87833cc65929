//! Programs: vocabulary + database + rules, grounded into a solvable form.
//!
//! Besides logical rules, programs support **raw linear terms** over ground
//! atoms. The CMS encoding needs one construct PSL expresses as an
//! arithmetic rule: the explanation cap
//! `explained(T) ≤ Σ_C covers(C,T) · inMap(C)`, whose coefficients come from
//! observed atoms. [`Program::add_raw_constraint`] and
//! [`Program::add_raw_potential`] cover that: observed atoms in the linear
//! combination fold into the constant, target atoms become variables.

use crate::admm::{AdmmConfig, AdmmSolution, AdmmSolver};
use crate::arith::{ground_arith_rule, ground_arith_rule_naive, ArithRule};
use crate::atom::GroundAtom;
use crate::database::{Database, Resolved};
use crate::grounding::{
    ground_rule, reference::ground_rule_naive, GroundSink, GroundStats, GroundingError, VarRegistry,
};
use crate::hinge::{ConstraintKind, GroundConstraint, GroundPotential};
use crate::linear::LinExpr;
use crate::predicate::Vocabulary;
use crate::rule::LogicalRule;
use cms_data::FxHashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A linear combination of ground atoms plus a constant.
#[derive(Clone, Debug, Default)]
pub struct AtomLin {
    /// `(atom, coefficient)` pairs.
    pub terms: Vec<(GroundAtom, f64)>,
    /// Constant offset.
    pub constant: f64,
}

impl AtomLin {
    /// Empty combination.
    pub fn new() -> AtomLin {
        AtomLin::default()
    }

    /// Add `coef · atom`.
    pub fn add(&mut self, atom: GroundAtom, coef: f64) -> &mut AtomLin {
        self.terms.push((atom, coef));
        self
    }

    /// Add a constant.
    pub fn add_constant(&mut self, c: f64) -> &mut AtomLin {
        self.constant += c;
        self
    }
}

enum RawKind {
    Potential { weight: f64, squared: bool },
    Constraint { kind: ConstraintKind },
}

struct RawTerm {
    lin: AtomLin,
    kind: RawKind,
    origin: String,
}

/// What grounding one raw term yields (see [`Program::raw_artifact`]).
enum RawArtifact {
    /// A weighted potential over at least one free variable.
    Potential(GroundPotential),
    /// A hard constraint.
    Constraint(GroundConstraint),
    /// A constant objective contribution (fully observed potential).
    ConstLoss(f64),
}

/// A PSL program: declarations, data, rules, raw terms.
pub struct Program {
    /// The predicate vocabulary.
    pub vocab: Vocabulary,
    /// Observations and targets.
    pub db: Database,
    rules: Vec<LogicalRule>,
    arith_rules: Vec<ArithRule>,
    raw: Vec<RawTerm>,
}

impl Program {
    /// A program over the given vocabulary with an empty database.
    pub fn new(vocab: Vocabulary) -> Program {
        Program {
            vocab,
            db: Database::new(),
            rules: Vec::new(),
            arith_rules: Vec::new(),
            raw: Vec::new(),
        }
    }

    /// Add a logical rule.
    pub fn add_rule(&mut self, rule: LogicalRule) {
        self.rules.push(rule);
    }

    /// Add an arithmetic rule (see [`crate::arith`]).
    pub fn add_arith_rule(&mut self, rule: ArithRule) {
        self.arith_rules.push(rule);
    }

    /// Add a hard linear constraint `lin ≤ 0` or `lin = 0` over atoms.
    pub fn add_raw_constraint(&mut self, lin: AtomLin, kind: ConstraintKind, origin: &str) {
        self.raw.push(RawTerm {
            lin,
            kind: RawKind::Constraint { kind },
            origin: origin.to_owned(),
        });
    }

    /// Add a weighted potential `w · max(0, lin)^p` over atoms.
    pub fn add_raw_potential(&mut self, lin: AtomLin, weight: f64, squared: bool, origin: &str) {
        self.raw.push(RawTerm {
            lin,
            kind: RawKind::Potential { weight, squared },
            origin: origin.to_owned(),
        });
    }

    /// Ground all rules and raw terms.
    ///
    /// Logical rules are grounded with the plan-compiled index-probing
    /// engine ([`crate::grounding`]), in parallel across rules when the
    /// machine has more than one core. The result is deterministic and
    /// independent of the thread count — see [`Program::ground_with`].
    pub fn ground(&self) -> Result<GroundProgram, GroundingError> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.ground_with(threads)
    }

    /// Ground with an explicit worker-thread budget for the logical rules.
    ///
    /// Every rule is grounded into its own [`GroundSink`] with its own
    /// local [`VarRegistry`]; the per-rule results are then merged **in
    /// rule declaration order**, interning each local registry's atoms into
    /// the global one and remapping variable ids. Because the merge order
    /// is fixed, the returned program — variable order included — is
    /// identical for every `threads` value.
    pub fn ground_with(&self, threads: usize) -> Result<GroundProgram, GroundingError> {
        let _span = cms_obs::span("ground");
        self.validate_rule_arities()?;
        let per_rule = self.ground_rules_locally(threads);

        let mut registry = VarRegistry::new();
        let mut sink = GroundSink::default();
        let mut stats: FxHashMap<String, GroundStats> = FxHashMap::default();
        let mut constant_loss = 0.0;
        for (rule, result) in self.rules.iter().zip(per_rule) {
            let rg = result?;
            // Two-phase interning: local var id → global var id, in the
            // local first-occurrence order, which a sequential shared
            // registry would also have produced.
            let map: Vec<usize> = rg
                .registry
                .atoms()
                .iter()
                .map(|a| registry.intern(a))
                .collect();
            for mut p in rg.sink.potentials {
                remap_expr(&mut p.expr, &map);
                sink.potentials.push(p);
            }
            for mut c in rg.sink.constraints {
                remap_expr(&mut c.expr, &map);
                sink.constraints.push(c);
            }
            constant_loss += rg.stats.constant_loss;
            stats
                .entry(rule.name.clone())
                .or_default()
                .absorb(&rg.stats);
        }
        self.finish_ground(registry, sink, stats, constant_loss, false)
    }

    /// Ground every logical rule into a rule-local registry/sink, sharded
    /// across `threads` workers. Results are positionally aligned with
    /// `self.rules`.
    fn ground_rules_locally(&self, threads: usize) -> Vec<Result<RuleGrounding, GroundingError>> {
        let n = self.rules.len();
        let workers = threads.min(n).max(1);
        // Per-rule spans parent under the caller's open `ground` span
        // explicitly, so rules grounded on worker threads attribute to
        // the right program grounding.
        let parent = cms_obs::current_span();
        let ground_one = |rule: &LogicalRule| {
            let _span = cms_obs::span_with_parent(format!("ground/rule/{}", rule.name), parent);
            let mut registry = VarRegistry::new();
            let mut sink = GroundSink::default();
            ground_rule(rule, &self.db, &mut registry, &mut sink).map(|stats| RuleGrounding {
                registry,
                sink,
                stats,
            })
        };
        if workers == 1 || n <= 1 {
            return self.rules.iter().map(ground_one).collect();
        }
        // Build the shared index before fanning out so workers only take
        // read locks.
        self.db.ensure_index();
        let mut results: Vec<Option<Result<RuleGrounding, GroundingError>>> =
            (0..n).map(|_| None).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (next, ground_one) = (&next, &ground_one);
                    scope.spawn(move || {
                        // Named trace track for the Perfetto export.
                        cms_obs::set_thread_track(format!("ground-worker-{w}"));
                        let mut out: Vec<(usize, Result<RuleGrounding, GroundingError>)> =
                            Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            out.push((i, ground_one(&self.rules[i])));
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                for (i, r) in h.join().expect("grounding worker panicked") {
                    results[i] = Some(r);
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every rule claimed by exactly one worker"))
            .collect()
    }

    /// Ground with the retained naive reference grounder (sequential,
    /// string-keyed nested loops). Exists for equivalence tests and the
    /// grounding benches; production callers use [`Program::ground`].
    pub fn ground_naive(&self) -> Result<GroundProgram, GroundingError> {
        self.validate_rule_arities()?;
        let mut registry = VarRegistry::new();
        let mut sink = GroundSink::default();
        let mut stats: FxHashMap<String, GroundStats> = FxHashMap::default();
        let mut constant_loss = 0.0;
        for rule in &self.rules {
            let s = ground_rule_naive(rule, &self.db, &mut registry, &mut sink)?;
            constant_loss += s.constant_loss;
            stats.entry(rule.name.clone()).or_default().absorb(&s);
        }
        self.finish_ground(registry, sink, stats, constant_loss, true)
    }

    /// Validate every logical-rule atom against the vocabulary (arity
    /// agreement) before grounding starts, so no engine can abort
    /// mid-enumeration over a malformed rule.
    fn validate_rule_arities(&self) -> Result<(), GroundingError> {
        for rule in &self.rules {
            for lit in rule.body.iter().chain(rule.head.iter()) {
                if lit.atom.pred.index() < self.vocab.len()
                    && self.vocab.predicate(lit.atom.pred).arity != lit.atom.args.len()
                {
                    return Err(GroundingError::ArityMismatch {
                        rule: rule.name.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Shared tail of all grounding paths: arithmetic rules, raw terms,
    /// assembly of the [`GroundProgram`]. `naive_arith` selects the
    /// reference (scan-only) arithmetic grounder for
    /// [`Program::ground_naive`].
    fn finish_ground(
        &self,
        mut registry: VarRegistry,
        mut sink: GroundSink,
        mut stats: FxHashMap<String, GroundStats>,
        mut constant_loss: f64,
        naive_arith: bool,
    ) -> Result<GroundProgram, GroundingError> {
        for rule in &self.arith_rules {
            let _span = cms_obs::span(format!("ground/arith/{}", rule.name));
            let start = std::time::Instant::now();
            let ground_arith = if naive_arith {
                ground_arith_rule_naive
            } else {
                ground_arith_rule
            };
            let astats = ground_arith(
                rule,
                &self.db,
                &mut registry,
                &mut sink.potentials,
                &mut sink.constraints,
            )?;
            let mut rstats = GroundStats {
                substitutions: astats.groundings,
                potentials: astats.potentials,
                constraints: astats.constraints,
                ..GroundStats::default()
            };
            rstats.wall = start.elapsed();
            stats.entry(rule.name.clone()).or_default().absorb(&rstats);
        }
        for raw in &self.raw {
            match self.raw_artifact(raw, &mut registry) {
                RawArtifact::Potential(p) => sink.potentials.push(p),
                RawArtifact::Constraint(c) => sink.constraints.push(c),
                RawArtifact::ConstLoss(d) => constant_loss += d,
            }
        }
        if cms_obs::enabled(cms_obs::ObsLevel::Stats) {
            let mut total = GroundStats::default();
            for s in stats.values() {
                total.absorb(s);
            }
            total.record_ground();
        }
        if cms_obs::enabled(cms_obs::ObsLevel::Journal) {
            // One typed event per rule-stats entry, in declaration order
            // (entries sharing a rule name were already absorbed into one).
            let mut seen = std::collections::HashSet::new();
            let names = self
                .rules
                .iter()
                .map(|r| &r.name)
                .chain(self.arith_rules.iter().map(|r| &r.name));
            for name in names {
                if let (true, Some(s)) = (seen.insert(name.clone()), stats.get(name)) {
                    cms_obs::emit(cms_obs::Event::Ground {
                        rule: name.clone(),
                        stats: s.clone(),
                    });
                }
            }
        }
        Ok(GroundProgram {
            registry,
            potentials: sink.potentials,
            constraints: sink.constraints,
            constant_loss,
            rule_stats: stats,
        })
    }

    /// Ground one raw term against the current database: observed atoms
    /// fold into the constant, target atoms become variables.
    fn raw_artifact(&self, raw: &RawTerm, registry: &mut VarRegistry) -> RawArtifact {
        let mut expr = LinExpr::constant(raw.lin.constant);
        for (atom, coef) in &raw.lin.terms {
            match self.db.resolve(atom) {
                Resolved::Observed(v) => {
                    expr.add_constant(coef * v);
                }
                Resolved::Target => {
                    let var = registry.intern(atom);
                    expr.add_term(var, *coef);
                }
            }
        }
        expr.normalize();
        match raw.kind {
            RawKind::Potential { weight, squared } => {
                if expr.is_constant() {
                    let d = expr.constant.max(0.0);
                    RawArtifact::ConstLoss(if squared { weight * d * d } else { weight * d })
                } else {
                    RawArtifact::Potential(GroundPotential {
                        expr,
                        weight,
                        squared,
                        origin: raw.origin.clone(),
                    })
                }
            }
            RawKind::Constraint { kind } => RawArtifact::Constraint(GroundConstraint {
                expr,
                kind,
                origin: raw.origin.clone(),
            }),
        }
    }
}

/// One rule's grounding into rule-local structures, pre-merge.
struct RuleGrounding {
    registry: VarRegistry,
    sink: GroundSink,
    stats: GroundStats,
}

/// Rewrite a ground expression's local variable ids through `map` and
/// restore the sorted-normalized term order.
fn remap_expr(expr: &mut LinExpr, map: &[usize]) {
    for t in &mut expr.terms {
        t.0 = map[t.0];
    }
    expr.terms.sort_unstable_by_key(|&(v, _)| v);
}

/// A fully grounded program, ready for MAP inference.
#[derive(Clone, Debug, Default)]
pub struct GroundProgram {
    registry: VarRegistry,
    /// Ground weighted potentials.
    pub potentials: Vec<GroundPotential>,
    /// Ground hard constraints.
    pub constraints: Vec<GroundConstraint>,
    /// Objective contribution fixed by observations alone.
    pub constant_loss: f64,
    /// Per-rule grounding statistics keyed by rule name.
    pub rule_stats: FxHashMap<String, GroundStats>,
}

impl GroundProgram {
    /// Number of MAP variables.
    pub fn num_vars(&self) -> usize {
        self.registry.len()
    }

    /// Aggregate grounding statistics over all rules — the quick way for
    /// benches and callers to check how much work the index short-circuited
    /// (`candidates_probed` vs `candidates_scanned`) and where wall time
    /// went.
    pub fn total_stats(&self) -> GroundStats {
        let mut total = GroundStats::default();
        for s in self.rule_stats.values() {
            total.absorb(s);
        }
        total
    }

    /// A sorted, engine-independent description of every ground term:
    /// variable ids are resolved to atom strings, term lists are sorted,
    /// coefficients printed to 9 decimals. Two ground programs describe the
    /// same HL-MRF iff their canonical terms are equal — regardless of
    /// variable order or term enumeration order. Used by the equivalence
    /// tests between the plan-compiled and naive grounding engines.
    pub fn canonical_terms(&self) -> Vec<String> {
        let desc = |expr: &LinExpr| {
            let mut terms: Vec<String> = expr
                .terms
                .iter()
                .map(|&(v, c)| format!("{c:.9}*{}", self.registry.atom(v)))
                .collect();
            terms.sort();
            format!("c={:.9} {}", expr.constant, terms.join(" + "))
        };
        let mut out: Vec<String> =
            Vec::with_capacity(self.potentials.len() + self.constraints.len());
        for p in &self.potentials {
            out.push(format!(
                "P {} w={:.9} sq={} {}",
                p.origin,
                p.weight,
                p.squared,
                desc(&p.expr)
            ));
        }
        for c in &self.constraints {
            out.push(format!("C {} {:?} {}", c.origin, c.kind, desc(&c.expr)));
        }
        out.sort();
        out
    }

    /// Variable index of a target atom, if it appears in any ground term.
    pub fn var_of(&self, atom: &GroundAtom) -> Option<usize> {
        self.registry.lookup(atom)
    }

    /// The atom of a variable index.
    pub fn atom_of(&self, var: usize) -> &GroundAtom {
        self.registry.atom(var)
    }

    /// Run MAP inference.
    pub fn solve(&self, config: &AdmmConfig) -> MapSolution {
        let solver = AdmmSolver::new(&self.potentials, &self.constraints, self.num_vars());
        let sol = solver.solve(config);
        MapSolution {
            admm: sol,
            constant_loss: self.constant_loss,
        }
    }

    /// Evaluate the soft objective (weighted potentials + constant loss)
    /// under an arbitrary assignment.
    pub fn objective(&self, values: &[f64]) -> f64 {
        self.constant_loss + self.potentials.iter().map(|p| p.value(values)).sum::<f64>()
    }

    /// Largest hard-constraint violation under an assignment.
    pub fn max_violation(&self, values: &[f64]) -> f64 {
        self.constraints
            .iter()
            .map(|c| c.violation(values))
            .fold(0.0, f64::max)
    }
}

/// A MAP state: ADMM output plus the grounding-time constant loss.
#[derive(Clone, Debug)]
pub struct MapSolution {
    /// Raw solver result.
    pub admm: AdmmSolution,
    /// Constant loss from grounding (added to the reported objective).
    pub constant_loss: f64,
}

impl MapSolution {
    /// Truth value of a target atom (None if the atom never appeared in a
    /// ground term — its value is unconstrained).
    pub fn value(&self, program: &GroundProgram, atom: &GroundAtom) -> Option<f64> {
        program.var_of(atom).map(|v| self.admm.values[v])
    }

    /// Total soft objective: solver objective + constant loss.
    pub fn total_objective(&self) -> f64 {
        self.admm.objective + self.constant_loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{rvar, RuleBuilder};

    /// The canonical toy program:
    ///   w=1 : scope(T) → explained(T)
    ///   hard: explained(T) ≤ Σ_C covers(C,T)·inMap(C)   (raw)
    ///   w=0.4 : cand(C) → ¬inMap(C)
    /// With a single candidate covering t1 fully, MAP should select it.
    fn build() -> (Program, GroundAtom, GroundAtom) {
        let mut vocab = Vocabulary::new();
        let scope = vocab.closed("scope", 1);
        let cand = vocab.closed("cand", 1);
        let covers = vocab.closed("covers", 2);
        let in_map = vocab.open("inMap", 1);
        let explained = vocab.open("explained", 1);

        let mut program = Program::new(vocab);
        program
            .db
            .observe(GroundAtom::from_strs(scope, &["t1"]), 1.0);
        program
            .db
            .observe(GroundAtom::from_strs(cand, &["c1"]), 1.0);
        program
            .db
            .observe(GroundAtom::from_strs(covers, &["c1", "t1"]), 1.0);
        let in_map_c1 = GroundAtom::from_strs(in_map, &["c1"]);
        let explained_t1 = GroundAtom::from_strs(explained, &["t1"]);
        program.db.target(in_map_c1.clone());
        program.db.target(explained_t1.clone());

        program.add_rule(
            RuleBuilder::new("explain-reward")
                .body(scope, vec![rvar("T")])
                .head(explained, vec![rvar("T")])
                .weight(1.0)
                .build(),
        );
        program.add_rule(
            RuleBuilder::new("size-prior")
                .body(cand, vec![rvar("C")])
                .head_neg(in_map, vec![rvar("C")])
                .weight(0.4)
                .build(),
        );
        let mut cap = AtomLin::new();
        cap.add(explained_t1.clone(), 1.0);
        cap.add(in_map_c1.clone(), -1.0); // covers(c1,t1) = 1
        program.add_raw_constraint(cap, ConstraintKind::LeqZero, "cap");
        (program, in_map_c1, explained_t1)
    }

    #[test]
    fn end_to_end_map_selects_covering_candidate() {
        let (program, in_map_c1, explained_t1) = build();
        let ground = program.ground().unwrap();
        assert_eq!(ground.num_vars(), 2);
        let sol = ground.solve(&AdmmConfig::default());
        assert!(sol.admm.converged);
        let m = sol.value(&ground, &in_map_c1).unwrap();
        let e = sol.value(&ground, &explained_t1).unwrap();
        // Explaining pays 1.0, the size prior costs 0.4 ⇒ select.
        assert!(m > 0.9, "inMap = {m}");
        assert!(e > 0.9, "explained = {e}");
        assert!(sol.total_objective() < 0.45 + 1e-2);
        assert!(sol.admm.max_violation < 1e-3);
    }

    #[test]
    fn heavier_prior_flips_the_decision() {
        let (mut program, in_map_c1, _) = build();
        // Add four more copies of the size prior via raw potentials.
        for i in 0..4 {
            let mut lin = AtomLin::new();
            lin.add(in_map_c1.clone(), 1.0);
            program.add_raw_potential(lin, 0.4, false, &format!("extra-prior-{i}"));
        }
        let ground = program.ground().unwrap();
        let sol = ground.solve(&AdmmConfig::default());
        let m = sol.value(&ground, &in_map_c1).unwrap();
        // Total down-pressure 2.0 > up-pressure 1.0 ⇒ deselect.
        assert!(m < 0.1, "inMap = {m}");
    }

    #[test]
    fn raw_constant_potential_folds_into_loss() {
        let mut vocab = Vocabulary::new();
        let obs = vocab.closed("obs", 1);
        let mut program = Program::new(vocab);
        program.db.observe(GroundAtom::from_strs(obs, &["a"]), 0.75);
        let mut lin = AtomLin::new();
        lin.add(GroundAtom::from_strs(obs, &["a"]), 1.0);
        program.add_raw_potential(lin, 2.0, false, "const");
        let ground = program.ground().unwrap();
        assert_eq!(ground.num_vars(), 0);
        assert!((ground.constant_loss - 1.5).abs() < 1e-12);
        let sol = ground.solve(&AdmmConfig::default());
        assert!((sol.total_objective() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rule_stats_are_collected() {
        let (program, _, _) = build();
        let ground = program.ground().unwrap();
        let s = &ground.rule_stats["explain-reward"];
        assert_eq!(s.substitutions, 1);
        assert_eq!(s.potentials, 1);
        let total = ground.total_stats();
        assert!(total.substitutions >= 2);
        assert!(total.candidates_probed + total.candidates_scanned > 0);
    }

    /// Multi-rule program exercising the parallel merge path.
    fn multi_rule_program() -> Program {
        let mut vocab = Vocabulary::new();
        let edge = vocab.closed("edge", 2);
        let hub = vocab.open("hub", 1);
        let linked = vocab.open("linked", 2);
        let mut program = Program::new(vocab);
        for i in 0..12 {
            for j in 0..12 {
                if (i + j) % 3 == 0 {
                    program.db.observe(
                        GroundAtom::from_strs(edge, &[&format!("n{i}"), &format!("n{j}")]),
                        1.0,
                    );
                }
            }
            program
                .db
                .target(GroundAtom::from_strs(hub, &[&format!("n{i}")]));
            for j in 0..12 {
                program.db.target(GroundAtom::from_strs(
                    linked,
                    &[&format!("n{i}"), &format!("n{j}")],
                ));
            }
        }
        program.add_rule(
            RuleBuilder::new("hubby")
                .body(edge, vec![rvar("X"), rvar("Y")])
                .head(hub, vec![rvar("X")])
                .weight(1.0)
                .build(),
        );
        program.add_rule(
            RuleBuilder::new("link")
                .body(edge, vec![rvar("X"), rvar("Y")])
                .body(edge, vec![rvar("Y"), rvar("Z")])
                .head(linked, vec![rvar("X"), rvar("Z")])
                .weight(0.5)
                .build(),
        );
        program.add_rule(
            RuleBuilder::new("hub-link")
                .body(edge, vec![rvar("X"), rvar("Y")])
                .body(hub, vec![rvar("X")])
                .head(linked, vec![rvar("X"), rvar("Y")])
                .weight(0.25)
                .build(),
        );
        program
    }

    /// One potential's exact shape: term count, constant, raw terms.
    type PotentialShape = (usize, f64, Vec<(usize, f64)>);

    /// Snapshot of a ground program for exact comparison.
    fn fingerprint(g: &GroundProgram) -> (Vec<String>, Vec<PotentialShape>) {
        let atoms: Vec<String> = (0..g.num_vars())
            .map(|v| g.atom_of(v).to_string())
            .collect();
        let pots: Vec<PotentialShape> = g
            .potentials
            .iter()
            .map(|p| (p.expr.terms.len(), p.expr.constant, p.expr.terms.clone()))
            .collect();
        (atoms, pots)
    }

    #[test]
    fn parallel_merge_is_deterministic_across_thread_counts() {
        let program = multi_rule_program();
        let sequential = program.ground_with(1).unwrap();
        for threads in [2, 4, 8] {
            let parallel = program.ground_with(threads).unwrap();
            assert_eq!(sequential.num_vars(), parallel.num_vars());
            assert_eq!(
                fingerprint(&sequential),
                fingerprint(&parallel),
                "threads={threads}"
            );
            assert_eq!(sequential.constraints.len(), parallel.constraints.len());
            assert!((sequential.constant_loss - parallel.constant_loss).abs() < 1e-12);
        }
        // Repeat runs are stable too (no map-iteration leakage).
        let again = program.ground().unwrap();
        assert_eq!(fingerprint(&sequential), fingerprint(&again));
    }

    #[test]
    fn vocab_arity_mismatch_rejected_up_front() {
        let mut vocab = Vocabulary::new();
        let p = vocab.closed("p", 2);
        let q = vocab.open("q", 1);
        let mut program = Program::new(vocab);
        program
            .db
            .observe(GroundAtom::from_strs(p, &["a", "b"]), 1.0);
        program.db.target(GroundAtom::from_strs(q, &["a"]));
        // Literal written with the wrong arity for p.
        program.add_rule(
            RuleBuilder::new("malformed")
                .body(p, vec![rvar("X")])
                .head(q, vec![rvar("X")])
                .weight(1.0)
                .build(),
        );
        let err = program.ground().unwrap_err();
        assert_eq!(
            err,
            GroundingError::ArityMismatch {
                rule: "malformed".into()
            }
        );
    }

    #[test]
    fn naive_grounding_matches_plan_grounding() {
        let program = multi_rule_program();
        let plan = program.ground().unwrap();
        let naive = program.ground_naive().unwrap();
        assert_eq!(plan.num_vars(), naive.num_vars());
        assert_eq!(plan.potentials.len(), naive.potentials.len());
        assert_eq!(plan.constraints.len(), naive.constraints.len());
        assert!((plan.constant_loss - naive.constant_loss).abs() < 1e-12);
        // Canonicalize each potential by resolving vars to atom strings
        // (enumeration order differs between the engines).
        let canon = |g: &GroundProgram| {
            let mut v: Vec<String> = g
                .potentials
                .iter()
                .map(|p| {
                    let mut terms: Vec<String> = p
                        .expr
                        .terms
                        .iter()
                        .map(|&(var, c)| format!("{c:.9}*{}", g.atom_of(var)))
                        .collect();
                    terms.sort();
                    format!(
                        "{} w={:.9} c={:.9} {}",
                        p.origin,
                        p.weight,
                        p.expr.constant,
                        terms.join("+")
                    )
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(canon(&plan), canon(&naive));
    }

    #[test]
    fn objective_and_violation_eval() {
        let (program, in_map_c1, explained_t1) = build();
        let ground = program.ground().unwrap();
        let mi = ground.var_of(&in_map_c1).unwrap();
        let ei = ground.var_of(&explained_t1).unwrap();
        let mut y = vec![0.0; 2];
        // Nothing selected: unexplained loss 1.0.
        assert!((ground.objective(&y) - 1.0).abs() < 1e-12);
        assert_eq!(ground.max_violation(&y), 0.0);
        // explained=1 without selecting violates the cap by 1.
        y[ei] = 1.0;
        assert!((ground.max_violation(&y) - 1.0).abs() < 1e-12);
        y[mi] = 1.0;
        assert_eq!(ground.max_violation(&y), 0.0);
        assert!((ground.objective(&y) - 0.4).abs() < 1e-12);
    }
}
