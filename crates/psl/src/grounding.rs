//! Grounding: instantiate rule templates over the database.
//!
//! ## Strategy: compile once, probe indexes, execute a plan
//!
//! Each [`LogicalRule`] is compiled to a [`crate::plan::JoinPlan`]
//! before any candidate atom is touched:
//!
//! 1. **Slot interning** — rule variables become dense slot ids; the
//!    substitution is a `Vec<Option<Sym>>`, so the innermost loop performs
//!    no string hashing and no per-binding allocation.
//! 2. **Selectivity ordering** — the positive body literals are reordered
//!    most-selective-first using the cardinalities of the database's lazy
//!    `(pred, arg position, symbol) → pool positions` index
//!    (see [`Database::count_matching`]).
//! 3. **Probe-vs-scan execution** — at each backtracking node the executor
//!    probes the shortest posting list among the literal's bound argument
//!    positions, falling back to a full pool scan only when nothing is
//!    bound. [`GroundStats::candidates_probed`] /
//!    [`GroundStats::candidates_scanned`] expose which mode did the work.
//!
//! Substitutions still join over the rule's *positive body literals*
//! against the known-atom pools (observed ∪ target atoms per predicate) —
//! the same lazy strategy PSL uses: an unobserved closed atom has truth 0,
//! so a grounding whose positive body mentions one can never have positive
//! distance-to-satisfaction *unless* the atom is negated or in the head,
//! which resolution handles via the closed-world default.
//!
//! Each complete binding compiles to a [`LinExpr`] for the distance to
//! satisfaction; groundings that are trivially satisfied for every value of
//! the target variables (`max over the [0,1] box ≤ 0`) are pruned.
//!
//! The pre-index nested-loop implementation is retained verbatim in
//! [`mod@reference`]: equivalence property tests and the grounding benches run
//! both engines on the same inputs and require identical ground programs.

use crate::atom::GroundAtom;
use crate::database::{Database, Resolved};
use crate::hinge::{ConstraintKind, GroundConstraint, GroundPotential};
use crate::linear::LinExpr;
use crate::plan::{EmitLiteral, JoinPlan, SlotTerm};
use crate::rule::{Literal, LogicalRule};
use cms_data::{FxHashMap, Sym};
use std::time::Instant;

pub use cms_obs::GroundStats;

/// Maps target atoms to dense variable indices; owns the variable order.
#[derive(Clone, Debug, Default)]
pub struct VarRegistry {
    atoms: Vec<GroundAtom>,
    index: FxHashMap<GroundAtom, usize>,
}

impl VarRegistry {
    /// Empty registry.
    pub fn new() -> VarRegistry {
        VarRegistry::default()
    }

    /// Index of `atom`, registering it if new.
    pub fn intern(&mut self, atom: &GroundAtom) -> usize {
        if let Some(&i) = self.index.get(atom) {
            return i;
        }
        let i = self.atoms.len();
        self.atoms.push(atom.clone());
        self.index.insert(atom.clone(), i);
        i
    }

    /// Index of `atom` if registered.
    pub fn lookup(&self, atom: &GroundAtom) -> Option<usize> {
        self.index.get(atom).copied()
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True iff no variables registered.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The atom of variable `i`.
    pub fn atom(&self, i: usize) -> &GroundAtom {
        &self.atoms[i]
    }

    /// All atoms in variable order.
    pub fn atoms(&self) -> &[GroundAtom] {
        &self.atoms
    }
}

/// Failures during grounding.
#[derive(Clone, PartialEq, Debug)]
pub enum GroundingError {
    /// A rule has a variable not bound by any positive body literal.
    UnsafeRule {
        /// The rule's diagnostic name.
        rule: String,
    },
    /// A rule atom's argument count disagrees with its predicate.
    ArityMismatch {
        /// The rule's diagnostic name.
        rule: String,
    },
    /// An arithmetic rule failed to ground.
    Arith(crate::arith::ArithError),
    /// The database's argument-position index was unavailable on a
    /// grounding path that requires it (it should have been ensured by the
    /// caller; propagated instead of panicking).
    IndexUnavailable {
        /// The rule being ground when the index was missing.
        rule: String,
    },
}

impl std::fmt::Display for GroundingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroundingError::UnsafeRule { rule } => write!(f, "rule {rule:?} is unsafe"),
            GroundingError::ArityMismatch { rule } => {
                write!(f, "rule {rule:?} has an atom with wrong arity")
            }
            GroundingError::Arith(e) => write!(f, "{e}"),
            GroundingError::IndexUnavailable { rule } => {
                write!(
                    f,
                    "argument-position index unavailable while grounding rule {rule:?}"
                )
            }
        }
    }
}

impl std::error::Error for GroundingError {}

/// Output sink for [`ground_rule`].
#[derive(Debug, Default)]
pub struct GroundSink {
    /// Collected potentials.
    pub potentials: Vec<GroundPotential>,
    /// Collected constraints.
    pub constraints: Vec<GroundConstraint>,
}

/// Ground one rule into `sink`, registering target atoms in `registry`.
///
/// Compiles the rule to a [`JoinPlan`] and executes it against the
/// database's argument-position index. All candidate pools of the rule's
/// positive body literals are arity-validated **before** enumeration
/// starts, so an [`GroundingError::ArityMismatch`] can never leave the sink
/// half-filled.
pub fn ground_rule(
    rule: &LogicalRule,
    db: &Database,
    registry: &mut VarRegistry,
    sink: &mut GroundSink,
) -> Result<GroundStats, GroundingError> {
    let start = Instant::now();
    if !rule.is_safe() {
        return Err(GroundingError::UnsafeRule {
            rule: rule.name.clone(),
        });
    }
    validate_pool_arities(rule, db)?;
    let plan = JoinPlan::compile(rule, db);
    let guard = db.index();
    let idx = guard
        .as_ref()
        .ok_or_else(|| GroundingError::IndexUnavailable {
            rule: rule.name.clone(),
        })?;
    let mut stats = GroundStats::default();
    plan.execute(db, idx, &mut stats, |binding, stats| {
        emit(rule, &plan, db, binding, registry, sink, stats)
    })?;
    stats.wall = start.elapsed();
    Ok(stats)
}

/// Check every candidate pool the join will touch against the literal
/// arities, up front.
fn validate_pool_arities(rule: &LogicalRule, db: &Database) -> Result<(), GroundingError> {
    for lit in rule.body.iter().filter(|l| !l.negated) {
        let want = lit.atom.args.len();
        if db
            .atoms_of(lit.atom.pred)
            .iter()
            .any(|c| c.args.len() != want)
        {
            return Err(GroundingError::ArityMismatch {
                rule: rule.name.clone(),
            });
        }
    }
    Ok(())
}

/// Instantiate one grounding: build its distance-to-satisfaction LinExpr
/// and route it to the sink.
fn emit(
    rule: &LogicalRule,
    plan: &JoinPlan,
    db: &Database,
    binding: &[Option<Sym>],
    registry: &mut VarRegistry,
    sink: &mut GroundSink,
    stats: &mut GroundStats,
) -> Result<(), GroundingError> {
    // distance = max(0, 1 − Σ_body (1 − t(B)) − Σ_head t(H))
    let mut expr = LinExpr::constant(1.0);
    for lit in &plan.emit {
        add_literal(lit, db, binding, registry, &mut expr);
    }
    expr.normalize();
    classify(rule, expr, sink, stats);
    Ok(())
}

/// Add one literal's affine contribution to the distance expression.
fn add_literal(
    lit: &EmitLiteral,
    db: &Database,
    binding: &[Option<Sym>],
    registry: &mut VarRegistry,
    expr: &mut LinExpr,
) {
    let atom = instantiate(&lit.atom.pred, &lit.atom.terms, binding);
    // The clause contribution of this literal is:
    //   body:  1 − t(lit)   head:  t(lit)
    // and t(lit) = v(atom) for positive, 1 − v(atom) for negated. The
    // contribution is subtracted from the expression. Work out the
    // affine form contribution = base + sign·v(atom):
    let (base, sign) = match (lit.in_body, lit.negated) {
        (true, false) => (1.0, -1.0), // 1 − v
        (true, true) => (0.0, 1.0),   // v
        (false, false) => (0.0, 1.0), // v
        (false, true) => (1.0, -1.0), // 1 − v
    };
    expr.add_constant(-base);
    match db.resolve(&atom) {
        Resolved::Observed(v) => {
            expr.add_constant(-sign * v);
        }
        Resolved::Target => {
            let var = registry.intern(&atom);
            expr.add_term(var, -sign);
        }
    }
}

fn instantiate(
    pred: &crate::predicate::PredId,
    terms: &[SlotTerm],
    binding: &[Option<Sym>],
) -> GroundAtom {
    GroundAtom::new(
        *pred,
        terms
            .iter()
            .map(|t| match *t {
                SlotTerm::Const(k) => k,
                SlotTerm::Slot(s) => binding[s as usize]
                    .expect("grounding produced unbound variable despite safety check"),
            })
            .collect(),
    )
}

/// Route a normalized distance expression to the sink (shared by the plan
/// executor and the naive reference grounder — the *semantics* of a
/// grounding are identical in both).
fn classify(rule: &LogicalRule, expr: LinExpr, sink: &mut GroundSink, stats: &mut GroundStats) {
    // Prune if the hinge can never activate: max over the [0,1] box.
    let max_value: f64 = expr.constant + expr.terms.iter().map(|&(_, c)| c.max(0.0)).sum::<f64>();
    if max_value <= 1e-12 {
        stats.pruned += 1;
        return;
    }
    match rule.weight {
        Some(w) if expr.is_constant() => {
            // Positive constant distance: nothing to infer.
            let d = expr.constant.max(0.0);
            stats.constant_loss += if rule.squared { w * d * d } else { w * d };
            stats.pruned += 1;
        }
        Some(w) => {
            sink.potentials.push(GroundPotential {
                expr,
                weight: w,
                squared: rule.squared,
                origin: rule.name.clone(),
            });
            stats.potentials += 1;
        }
        // A hard rule violated by observations alone stays a constraint,
        // so the solver reports infeasibility instead of silently
        // dropping it.
        None => {
            sink.constraints.push(GroundConstraint {
                expr,
                kind: ConstraintKind::LeqZero,
                origin: rule.name.clone(),
            });
            stats.constraints += 1;
        }
    }
}

/// The pre-index grounder, retained as an independent reference
/// implementation.
///
/// This is the original left-to-right nested-loop join with string-keyed
/// substitutions. It exists so equivalence tests and benches can check the
/// plan-compiled engine against it on identical inputs; production code
/// paths ([`crate::Program::ground`]) never call it.
pub mod reference {
    use super::*;
    use crate::rule::{RAtom, RTerm};

    /// Ground one rule with the naive nested-loop strategy.
    pub fn ground_rule_naive(
        rule: &LogicalRule,
        db: &Database,
        registry: &mut VarRegistry,
        sink: &mut GroundSink,
    ) -> Result<GroundStats, GroundingError> {
        let start = Instant::now();
        if !rule.is_safe() {
            return Err(GroundingError::UnsafeRule {
                rule: rule.name.clone(),
            });
        }
        let mut stats = GroundStats::default();
        let positives: Vec<&Literal> = rule.body.iter().filter(|l| !l.negated).collect();
        let mut substitution: FxHashMap<String, Sym> = FxHashMap::default();
        join(
            rule,
            &positives,
            0,
            db,
            &mut substitution,
            registry,
            sink,
            &mut stats,
        )?;
        stats.wall = start.elapsed();
        Ok(stats)
    }

    /// Recursive join over the positive body literals.
    #[allow(clippy::too_many_arguments)]
    fn join(
        rule: &LogicalRule,
        positives: &[&Literal],
        idx: usize,
        db: &Database,
        substitution: &mut FxHashMap<String, Sym>,
        registry: &mut VarRegistry,
        sink: &mut GroundSink,
        stats: &mut GroundStats,
    ) -> Result<(), GroundingError> {
        let Some(lit) = positives.get(idx) else {
            stats.substitutions += 1;
            emit_naive(rule, db, substitution, registry, sink, stats);
            return Ok(());
        };
        stats.candidates_scanned += db.atoms_of(lit.atom.pred).len();
        for cand in db.atoms_of(lit.atom.pred) {
            if cand.args.len() != lit.atom.args.len() {
                return Err(GroundingError::ArityMismatch {
                    rule: rule.name.clone(),
                });
            }
            let mut bound: Vec<String> = Vec::new();
            if unify(&lit.atom, cand, substitution, &mut bound) {
                join(
                    rule,
                    positives,
                    idx + 1,
                    db,
                    substitution,
                    registry,
                    sink,
                    stats,
                )?;
            }
            for name in bound {
                substitution.remove(&name);
            }
        }
        Ok(())
    }

    fn unify(
        pattern: &RAtom,
        cand: &GroundAtom,
        substitution: &mut FxHashMap<String, Sym>,
        bound: &mut Vec<String>,
    ) -> bool {
        for (t, &c) in pattern.args.iter().zip(cand.args.iter()) {
            match t {
                RTerm::Const(k) => {
                    if *k != c {
                        return false;
                    }
                }
                RTerm::Var(name) => match substitution.get(name) {
                    Some(&v) => {
                        if v != c {
                            return false;
                        }
                    }
                    None => {
                        substitution.insert(name.clone(), c);
                        bound.push(name.clone());
                    }
                },
            }
        }
        true
    }

    /// Instantiate one grounding (string-substitution flavor).
    fn emit_naive(
        rule: &LogicalRule,
        db: &Database,
        substitution: &FxHashMap<String, Sym>,
        registry: &mut VarRegistry,
        sink: &mut GroundSink,
        stats: &mut GroundStats,
    ) {
        let mut expr = LinExpr::constant(1.0);
        let mut add = |lit: &Literal, in_body: bool, expr: &mut LinExpr| {
            let atom = instantiate_naive(&lit.atom, substitution);
            let (base, sign) = match (in_body, lit.negated) {
                (true, false) => (1.0, -1.0),
                (true, true) => (0.0, 1.0),
                (false, false) => (0.0, 1.0),
                (false, true) => (1.0, -1.0),
            };
            expr.add_constant(-base);
            match db.resolve(&atom) {
                Resolved::Observed(v) => {
                    expr.add_constant(-sign * v);
                }
                Resolved::Target => {
                    let var = registry.intern(&atom);
                    expr.add_term(var, -sign);
                }
            }
        };
        for lit in &rule.body {
            add(lit, true, &mut expr);
        }
        for lit in &rule.head {
            add(lit, false, &mut expr);
        }
        expr.normalize();
        classify(rule, expr, sink, stats);
    }

    fn instantiate_naive(pattern: &RAtom, substitution: &FxHashMap<String, Sym>) -> GroundAtom {
        GroundAtom::new(
            pattern.pred,
            pattern
                .args
                .iter()
                .map(|t| match t {
                    RTerm::Const(c) => *c,
                    RTerm::Var(name) => *substitution
                        .get(name)
                        .expect("grounding produced unbound variable despite safety check"),
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Vocabulary;
    use crate::rule::{rvar, RTerm, RuleBuilder};

    /// covers(C,T) closed; inMap(C), explained(T) open.
    fn setup() -> (Vocabulary, Database) {
        let mut vocab = Vocabulary::new();
        let covers = vocab.closed("covers", 2);
        let in_map = vocab.open("inMap", 1);
        let explained = vocab.open("explained", 1);
        let mut db = Database::new();
        db.observe(GroundAtom::from_strs(covers, &["c1", "t1"]), 1.0);
        db.observe(GroundAtom::from_strs(covers, &["c1", "t2"]), 0.5);
        db.observe(GroundAtom::from_strs(covers, &["c2", "t2"]), 1.0);
        db.target(GroundAtom::from_strs(in_map, &["c1"]));
        db.target(GroundAtom::from_strs(in_map, &["c2"]));
        db.target(GroundAtom::from_strs(explained, &["t1"]));
        db.target(GroundAtom::from_strs(explained, &["t2"]));
        (vocab, db)
    }

    #[test]
    fn grounds_one_potential_per_matching_substitution() {
        let (vocab, db) = setup();
        let covers = vocab.id_of("covers").unwrap();
        let in_map = vocab.id_of("inMap").unwrap();
        let explained = vocab.id_of("explained").unwrap();
        let rule = RuleBuilder::new("r1")
            .body(covers, vec![rvar("C"), rvar("T")])
            .body(in_map, vec![rvar("C")])
            .head(explained, vec![rvar("T")])
            .weight(1.0)
            .build();
        let mut registry = VarRegistry::new();
        let mut sink = GroundSink::default();
        let stats = ground_rule(&rule, &db, &mut registry, &mut sink).unwrap();
        assert_eq!(stats.substitutions, 3);
        assert_eq!(stats.potentials, 3);
        assert_eq!(sink.potentials.len(), 3);
        // Each potential references two variables (inMap(C), explained(T)).
        for p in &sink.potentials {
            assert_eq!(p.expr.terms.len(), 2);
        }
        // The two-literal join runs on index probes after the root literal.
        assert!(stats.candidates_probed > 0, "{stats:?}");
    }

    #[test]
    fn observed_truths_fold_into_constant() {
        let (vocab, db) = setup();
        let covers = vocab.id_of("covers").unwrap();
        let in_map = vocab.id_of("inMap").unwrap();
        let explained = vocab.id_of("explained").unwrap();
        // covers(C,T) & inMap(C) -> explained(T)
        // distance = max(0, 1 − (1−cov) − (1−inMap) − explained)
        // For cov = 0.5: expr = inMap − explained − 0.5.
        let rule = RuleBuilder::new("r1")
            .body(covers, vec![rvar("C"), rvar("T")])
            .body(in_map, vec![rvar("C")])
            .head(explained, vec![rvar("T")])
            .weight(1.0)
            .build();
        let mut registry = VarRegistry::new();
        let mut sink = GroundSink::default();
        ground_rule(&rule, &db, &mut registry, &mut sink).unwrap();
        let half = sink
            .potentials
            .iter()
            .find(|p| (p.expr.constant + 0.5).abs() < 1e-12)
            .expect("grounding for covers=0.5 present");
        // Setting inMap=1, explained=0 gives distance 0.5.
        let mut y = vec![0.0; registry.len()];
        for &(v, _) in &half.expr.terms {
            let atom = registry.atom(v);
            if atom.pred == in_map {
                y[v] = 1.0;
            }
        }
        assert!((half.expr.eval(&y) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn trivially_satisfied_groundings_are_pruned() {
        let mut vocab = Vocabulary::new();
        let obs = vocab.closed("obs", 1);
        let out = vocab.open("out", 1);
        let mut db = Database::new();
        db.observe(GroundAtom::from_strs(obs, &["a"]), 0.0); // body truth 0
        db.target(GroundAtom::from_strs(out, &["a"]));
        let rule = RuleBuilder::new("r")
            .body(obs, vec![rvar("X")])
            .head(out, vec![rvar("X")])
            .weight(1.0)
            .build();
        let mut registry = VarRegistry::new();
        let mut sink = GroundSink::default();
        let stats = ground_rule(&rule, &db, &mut registry, &mut sink).unwrap();
        // 1 − (1−0) − out = −out ≤ 0 always: pruned.
        assert_eq!(stats.pruned, 1);
        assert!(sink.potentials.is_empty());
    }

    #[test]
    fn constant_violation_accumulates_loss() {
        let mut vocab = Vocabulary::new();
        let obs = vocab.closed("obs", 1);
        let mut db = Database::new();
        db.observe(GroundAtom::from_strs(obs, &["a"]), 0.8);
        // Penalize obs(X): distance = max(0, 1 − (1−0.8)) = 0.8, constant.
        let rule = RuleBuilder::new("pen")
            .body(obs, vec![rvar("X")])
            .weight(2.0)
            .build();
        let mut registry = VarRegistry::new();
        let mut sink = GroundSink::default();
        let stats = ground_rule(&rule, &db, &mut registry, &mut sink).unwrap();
        assert!((stats.constant_loss - 1.6).abs() < 1e-12);
        assert!(sink.potentials.is_empty());
    }

    #[test]
    fn hard_rules_become_constraints() {
        let (vocab, db) = setup();
        let covers = vocab.id_of("covers").unwrap();
        let in_map = vocab.id_of("inMap").unwrap();
        let rule = RuleBuilder::new("hard")
            .body(covers, vec![rvar("C"), rvar("T")])
            .head(in_map, vec![rvar("C")])
            .build();
        let mut registry = VarRegistry::new();
        let mut sink = GroundSink::default();
        let stats = ground_rule(&rule, &db, &mut registry, &mut sink).unwrap();
        assert_eq!(stats.constraints, 3);
        assert!(stats.potentials == 0);
    }

    #[test]
    fn constants_restrict_substitutions() {
        let (vocab, db) = setup();
        let covers = vocab.id_of("covers").unwrap();
        let explained = vocab.id_of("explained").unwrap();
        let rule = RuleBuilder::new("only-c2")
            .body(covers, vec![rconst_local("c2"), rvar("T")])
            .head(explained, vec![rvar("T")])
            .weight(1.0)
            .build();
        let mut registry = VarRegistry::new();
        let mut sink = GroundSink::default();
        let stats = ground_rule(&rule, &db, &mut registry, &mut sink).unwrap();
        assert_eq!(stats.substitutions, 1);
        // The constant argument turns the root literal into an index probe:
        // only the single covers(c2,·) atom is ever touched.
        assert_eq!(stats.candidates_probed, 1);
        assert_eq!(stats.candidates_scanned, 0);
    }

    fn rconst_local(s: &str) -> RTerm {
        crate::rule::rconst(s)
    }

    #[test]
    fn repeated_variables_join() {
        let mut vocab = Vocabulary::new();
        let edge = vocab.closed("edge", 2);
        let flag = vocab.open("flag", 1);
        let mut db = Database::new();
        db.observe(GroundAtom::from_strs(edge, &["a", "a"]), 1.0);
        db.observe(GroundAtom::from_strs(edge, &["a", "b"]), 1.0);
        db.target(GroundAtom::from_strs(flag, &["a"]));
        db.target(GroundAtom::from_strs(flag, &["b"]));
        let rule = RuleBuilder::new("self")
            .body(edge, vec![rvar("X"), rvar("X")])
            .head(flag, vec![rvar("X")])
            .weight(1.0)
            .build();
        let mut registry = VarRegistry::new();
        let mut sink = GroundSink::default();
        let stats = ground_rule(&rule, &db, &mut registry, &mut sink).unwrap();
        assert_eq!(stats.substitutions, 1);
    }

    #[test]
    fn negated_body_literal_resolves() {
        let mut vocab = Vocabulary::new();
        let scope = vocab.closed("scope", 1);
        let bad = vocab.closed("bad", 1);
        let out = vocab.open("out", 1);
        let mut db = Database::new();
        db.observe(GroundAtom::from_strs(scope, &["a"]), 1.0);
        db.observe(GroundAtom::from_strs(scope, &["b"]), 1.0);
        db.observe(GroundAtom::from_strs(bad, &["b"]), 1.0);
        db.target(GroundAtom::from_strs(out, &["a"]));
        db.target(GroundAtom::from_strs(out, &["b"]));
        // scope(X) & !bad(X) -> out(X): for b the body truth is 0 → pruned;
        // for a (bad unobserved = 0 by CWA) the potential 1 − out(a) remains.
        let rule = RuleBuilder::new("neg")
            .body(scope, vec![rvar("X")])
            .body_neg(bad, vec![rvar("X")])
            .head(out, vec![rvar("X")])
            .weight(1.0)
            .build();
        let mut registry = VarRegistry::new();
        let mut sink = GroundSink::default();
        let stats = ground_rule(&rule, &db, &mut registry, &mut sink).unwrap();
        assert_eq!(stats.substitutions, 2);
        assert_eq!(stats.potentials, 1);
        assert_eq!(stats.pruned, 1);
    }

    #[test]
    fn arity_mismatch_detected_before_any_emission() {
        let mut vocab = Vocabulary::new();
        let p = vocab.closed("p", 2);
        let out = vocab.open("out", 1);
        let mut db = Database::new();
        // Pool atoms with arity 1 under a literal written with arity 2 —
        // previously this aborted mid-enumeration; now it fails up front.
        db.observe(GroundAtom::from_strs(p, &["a"]), 1.0);
        db.target(GroundAtom::from_strs(out, &["a"]));
        let rule = RuleBuilder::new("bad")
            .body(p, vec![rvar("X"), rvar("Y")])
            .head(out, vec![rvar("X")])
            .weight(1.0)
            .build();
        let mut registry = VarRegistry::new();
        let mut sink = GroundSink::default();
        let err = ground_rule(&rule, &db, &mut registry, &mut sink).unwrap_err();
        assert_eq!(err, GroundingError::ArityMismatch { rule: "bad".into() });
        assert!(sink.potentials.is_empty() && sink.constraints.is_empty());
        assert!(registry.is_empty());
    }

    /// Canonical form of a sink for cross-engine comparison: var indices
    /// are replaced by atom strings so registry order does not matter.
    fn canonical(sink: &GroundSink, registry: &VarRegistry) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for p in &sink.potentials {
            let mut terms: Vec<String> = p
                .expr
                .terms
                .iter()
                .map(|&(v, c)| format!("{c:.9}*{}", registry.atom(v)))
                .collect();
            terms.sort();
            out.push(format!(
                "P {} w={:.9} sq={} c={:.9} {}",
                p.origin,
                p.weight,
                p.squared,
                p.expr.constant,
                terms.join(" + ")
            ));
        }
        for c in &sink.constraints {
            let mut terms: Vec<String> = c
                .expr
                .terms
                .iter()
                .map(|&(v, k)| format!("{k:.9}*{}", registry.atom(v)))
                .collect();
            terms.sort();
            out.push(format!(
                "C {} {:?} c={:.9} {}",
                c.origin,
                c.kind,
                c.expr.constant,
                terms.join(" + ")
            ));
        }
        out.sort();
        out
    }

    #[test]
    fn plan_engine_matches_naive_reference_on_joins() {
        let (vocab, db) = setup();
        let covers = vocab.id_of("covers").unwrap();
        let in_map = vocab.id_of("inMap").unwrap();
        let explained = vocab.id_of("explained").unwrap();
        for rule in [
            RuleBuilder::new("soft")
                .body(covers, vec![rvar("C"), rvar("T")])
                .body(in_map, vec![rvar("C")])
                .head(explained, vec![rvar("T")])
                .weight(1.5)
                .build(),
            RuleBuilder::new("hard")
                .body(covers, vec![rvar("C"), rvar("T")])
                .head(in_map, vec![rvar("C")])
                .build(),
            RuleBuilder::new("const")
                .body(covers, vec![rconst_local("c2"), rvar("T")])
                .head(explained, vec![rvar("T")])
                .weight(2.0)
                .squared()
                .build(),
        ] {
            let mut reg_a = VarRegistry::new();
            let mut sink_a = GroundSink::default();
            let sa = ground_rule(&rule, &db, &mut reg_a, &mut sink_a).unwrap();
            let mut reg_b = VarRegistry::new();
            let mut sink_b = GroundSink::default();
            let sb = reference::ground_rule_naive(&rule, &db, &mut reg_b, &mut sink_b).unwrap();
            assert_eq!(sa.substitutions, sb.substitutions, "{}", rule.name);
            assert_eq!(sa.potentials, sb.potentials, "{}", rule.name);
            assert_eq!(sa.constraints, sb.constraints, "{}", rule.name);
            assert_eq!(sa.pruned, sb.pruned, "{}", rule.name);
            assert_eq!(
                canonical(&sink_a, &reg_a),
                canonical(&sink_b, &reg_b),
                "{}",
                rule.name
            );
        }
    }
}
