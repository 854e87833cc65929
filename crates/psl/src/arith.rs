//! Arithmetic rules: linear (in)equalities over atoms with summation
//! variables — PSL's second rule family.
//!
//! An arithmetic rule is a linear combination of *terms*, each a
//! coefficient times a product of atoms, compared against zero:
//!
//! ```text
//! explained(T) − Σ_C covers(C, T) · inMap(C)  ≤  0
//! ```
//!
//! Variables listed as **summation variables** (`C` above) are summed over
//! all database-known bindings inside one grounding; the remaining *free*
//! variables (`T`) enumerate groundings. After resolution, observed atoms
//! in a product fold into the coefficient; at most one target atom may
//! remain per term (the expression must stay linear in the MAP variables —
//! [`ArithError::NonLinear`] otherwise).
//!
//! Hard rules ground to [`GroundConstraint`]s; weighted rules to hinge
//! potentials on the violation (`max(0, lhs)` for `≤`, both directions for
//! `=`).
//!
//! ## Grounding structure
//!
//! Grounding factors into three stages:
//!
//! 1. `arith_shape` validates the rule (summation variables must occur
//!    in some atom and not be declared twice; weights, coefficients and
//!    constants must be finite) and derives the free-variable schema plus
//!    the fixed number of potentials/constraints every grounding emits.
//! 2. `enumerate_free_bindings` joins all atoms over the database pools
//!    and projects onto the free variables — one binding per grounding, in
//!    a deterministic enumeration order.
//! 3. `fold_free_binding` expands one binding's summations and emits its
//!    potential(s) or constraint.

use crate::atom::GroundAtom;
use crate::database::{Database, Resolved};
use crate::grounding::{GroundingError, VarRegistry};
use crate::hinge::{ConstraintKind, GroundConstraint, GroundPotential};
use crate::linear::LinExpr;
use crate::rule::{RAtom, RTerm};
use cms_data::{FxHashMap, FxHashSet, Sym};

/// Comparison of the rule's left-hand side against zero.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Comparison {
    /// `lhs ≤ 0`.
    LeqZero,
    /// `lhs = 0`.
    EqZero,
    /// `lhs ≥ 0`.
    GeqZero,
}

/// One additive term: `coef · Π atoms`.
#[derive(Clone, Debug)]
pub struct ArithTerm {
    /// Constant coefficient.
    pub coef: f64,
    /// Atom product (observed atoms fold into the coefficient).
    pub atoms: Vec<RAtom>,
}

/// An arithmetic rule.
#[derive(Clone, Debug)]
pub struct ArithRule {
    /// Diagnostic name.
    pub name: String,
    /// Additive terms.
    pub terms: Vec<ArithTerm>,
    /// Constant added to the left-hand side.
    pub constant: f64,
    /// Comparison against zero.
    pub comparison: Comparison,
    /// `Some(w)` = weighted (hinge on the violation); `None` = hard.
    pub weight: Option<f64>,
    /// Square the hinge (weighted rules only).
    pub squared: bool,
    /// Variables summed over inside each grounding.
    pub sum_vars: Vec<String>,
}

/// Errors specific to arithmetic rules — raised by
/// [`ArithRuleBuilder::build`] and again at grounding time (the rule
/// fields are public, so hand-assembled rules are re-validated).
#[derive(Clone, PartialEq, Debug)]
pub enum ArithError {
    /// A term resolved to more than one target atom (nonlinear).
    NonLinear {
        /// The rule's name.
        rule: String,
    },
    /// A declared summation variable occurs in no atom — almost always a
    /// misspelled [`ArithRuleBuilder::sum_over`], which would otherwise
    /// silently turn the intended summation variable into a free one.
    UnusedSumVar {
        /// The rule's name.
        rule: String,
        /// The variable.
        var: String,
    },
    /// The same variable was declared a summation variable twice; the
    /// second declaration shadows the first and is always a mistake.
    DuplicateSumVar {
        /// The rule's name.
        rule: String,
        /// The variable.
        var: String,
    },
    /// A rule weight was negative or non-finite.
    InvalidWeight {
        /// The rule's name.
        rule: String,
        /// The offending weight.
        weight: f64,
    },
    /// A term coefficient was non-finite.
    InvalidCoefficient {
        /// The rule's name.
        rule: String,
        /// The offending coefficient.
        coef: f64,
    },
    /// The rule constant was non-finite.
    InvalidConstant {
        /// The rule's name.
        rule: String,
        /// The offending constant.
        constant: f64,
    },
}

impl std::fmt::Display for ArithError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArithError::NonLinear { rule } => {
                write!(
                    f,
                    "arithmetic rule {rule:?} has a term with two target atoms"
                )
            }
            ArithError::UnusedSumVar { rule, var } => {
                write!(
                    f,
                    "arithmetic rule {rule:?}: summation variable {var:?} occurs in no atom"
                )
            }
            ArithError::DuplicateSumVar { rule, var } => {
                write!(
                    f,
                    "arithmetic rule {rule:?}: summation variable {var:?} declared twice"
                )
            }
            ArithError::InvalidWeight { rule, weight } => {
                write!(
                    f,
                    "arithmetic rule {rule:?}: weight {weight} must be finite and non-negative"
                )
            }
            ArithError::InvalidCoefficient { rule, coef } => {
                write!(
                    f,
                    "arithmetic rule {rule:?}: coefficient {coef} must be finite"
                )
            }
            ArithError::InvalidConstant { rule, constant } => {
                write!(
                    f,
                    "arithmetic rule {rule:?}: constant {constant} must be finite"
                )
            }
        }
    }
}

impl std::error::Error for ArithError {}

/// Fluent builder for [`ArithRule`].
#[derive(Debug)]
pub struct ArithRuleBuilder {
    rule: ArithRule,
}

impl ArithRuleBuilder {
    /// Start a rule (default: hard `≤ 0`).
    pub fn new(name: &str) -> ArithRuleBuilder {
        ArithRuleBuilder {
            rule: ArithRule {
                name: name.to_owned(),
                terms: Vec::new(),
                constant: 0.0,
                comparison: Comparison::LeqZero,
                weight: None,
                squared: false,
                sum_vars: Vec::new(),
            },
        }
    }

    /// Add a term `coef · Π atoms`.
    pub fn term(mut self, coef: f64, atoms: Vec<RAtom>) -> ArithRuleBuilder {
        self.rule.terms.push(ArithTerm { coef, atoms });
        self
    }

    /// Add a constant to the left-hand side.
    pub fn constant(mut self, c: f64) -> ArithRuleBuilder {
        self.rule.constant += c;
        self
    }

    /// Compare `= 0`.
    pub fn eq(mut self) -> ArithRuleBuilder {
        self.rule.comparison = Comparison::EqZero;
        self
    }

    /// Compare `≥ 0`.
    pub fn geq(mut self) -> ArithRuleBuilder {
        self.rule.comparison = Comparison::GeqZero;
        self
    }

    /// Compare `≤ 0` (the default).
    pub fn leq(mut self) -> ArithRuleBuilder {
        self.rule.comparison = Comparison::LeqZero;
        self
    }

    /// Mark a variable as a summation variable.
    pub fn sum_over(mut self, var: &str) -> ArithRuleBuilder {
        self.rule.sum_vars.push(var.to_owned());
        self
    }

    /// Make the rule weighted.
    ///
    /// The weight is validated by [`ArithRuleBuilder::build`] (finite and
    /// non-negative), not here — a NaN no longer panics mid-builder with a
    /// misleading message.
    pub fn weight(mut self, w: f64) -> ArithRuleBuilder {
        self.rule.weight = Some(w);
        self
    }

    /// Square the hinge.
    pub fn squared(mut self) -> ArithRuleBuilder {
        self.rule.squared = true;
        self
    }

    /// Validate and finish the rule. Rejects negative or non-finite
    /// weights, non-finite coefficients/constants, summation variables
    /// that occur in no atom, and duplicate summation-variable
    /// declarations.
    pub fn build(self) -> Result<ArithRule, ArithError> {
        arith_shape(&self.rule)?;
        Ok(self.rule)
    }
}

/// Output of grounding one arithmetic rule.
#[derive(Debug, Default)]
pub struct ArithGroundStats {
    /// Groundings (free-variable substitutions) produced.
    pub groundings: usize,
    /// Potentials emitted.
    pub potentials: usize,
    /// Constraints emitted.
    pub constraints: usize,
}

/// The validated shape of an arithmetic rule: its free-variable schema (in
/// first-occurrence order) and the fixed number of potentials/constraints
/// every grounding emits.
#[derive(Clone, Debug)]
struct ArithShape {
    /// Free variables, in first-occurrence order.
    free_vars: Vec<String>,
    /// Potentials emitted per grounding (0, 1, or 2 — weighted equalities
    /// emit two hinges).
    pot_width: usize,
    /// Constraints emitted per grounding (0 or 1).
    con_width: usize,
}

/// Validate `rule` and derive its [`ArithShape`]. This is the single
/// validation point shared by [`ArithRuleBuilder::build`] and every
/// grounding path.
fn arith_shape(rule: &ArithRule) -> Result<ArithShape, ArithError> {
    if let Some(w) = rule.weight {
        if !w.is_finite() || w < 0.0 {
            return Err(ArithError::InvalidWeight {
                rule: rule.name.clone(),
                weight: w,
            });
        }
    }
    if !rule.constant.is_finite() {
        return Err(ArithError::InvalidConstant {
            rule: rule.name.clone(),
            constant: rule.constant,
        });
    }
    for term in &rule.terms {
        if !term.coef.is_finite() {
            return Err(ArithError::InvalidCoefficient {
                rule: rule.name.clone(),
                coef: term.coef,
            });
        }
    }
    // Every declared summation variable must actually occur in some atom
    // (a misspelled `sum_over` would silently change semantics), and no
    // variable may be declared twice.
    let mut seen_sum: FxHashSet<&str> = FxHashSet::default();
    for v in &rule.sum_vars {
        if !seen_sum.insert(v.as_str()) {
            return Err(ArithError::DuplicateSumVar {
                rule: rule.name.clone(),
                var: v.clone(),
            });
        }
        let occurs = rule
            .terms
            .iter()
            .flat_map(|t| &t.atoms)
            .any(|a| a.args.iter().any(|t| matches!(t, RTerm::Var(x) if x == v)));
        if !occurs {
            return Err(ArithError::UnusedSumVar {
                rule: rule.name.clone(),
                var: v.clone(),
            });
        }
    }
    // Free variables, in first-occurrence order.
    let mut free_vars: Vec<String> = Vec::new();
    for term in &rule.terms {
        for atom in &term.atoms {
            for t in &atom.args {
                if let RTerm::Var(v) = t {
                    if !seen_sum.contains(v.as_str()) && !free_vars.contains(v) {
                        free_vars.push(v.clone());
                    }
                }
            }
        }
    }
    let (pot_width, con_width) = match (rule.weight, rule.comparison) {
        (None, _) => (0, 1),
        (Some(_), Comparison::EqZero) => (2, 0),
        (Some(_), _) => (1, 0),
    };
    Ok(ArithShape {
        free_vars,
        pot_width,
        con_width,
    })
}

/// Ground an arithmetic rule, probing the database's argument-position
/// index to skip candidates that cannot unify (see [`crate::grounding`] for
/// the strategy). Produces byte-identical output to
/// [`ground_arith_rule_naive`] — probing only skips candidates the naive
/// scan would have rejected, so the successful-binding order is unchanged.
pub fn ground_arith_rule(
    rule: &ArithRule,
    db: &Database,
    registry: &mut VarRegistry,
    potentials: &mut Vec<GroundPotential>,
    constraints: &mut Vec<GroundConstraint>,
) -> Result<ArithGroundStats, GroundingError> {
    let guard = db.index();
    let index = guard
        .as_ref()
        .ok_or_else(|| GroundingError::IndexUnavailable {
            rule: rule.name.clone(),
        })?;
    ground_arith_impl(rule, db, Some(index), registry, potentials, constraints)
        .map_err(GroundingError::Arith)
}

/// Ground an arithmetic rule with pure pool scans — the reference
/// implementation backing [`crate::Program::ground_naive`].
pub fn ground_arith_rule_naive(
    rule: &ArithRule,
    db: &Database,
    registry: &mut VarRegistry,
    potentials: &mut Vec<GroundPotential>,
    constraints: &mut Vec<GroundConstraint>,
) -> Result<ArithGroundStats, GroundingError> {
    ground_arith_impl(rule, db, None, registry, potentials, constraints)
        .map_err(GroundingError::Arith)
}

fn ground_arith_impl(
    rule: &ArithRule,
    db: &Database,
    index: Option<&crate::database::AtomIndex>,
    registry: &mut VarRegistry,
    potentials: &mut Vec<GroundPotential>,
    constraints: &mut Vec<GroundConstraint>,
) -> Result<ArithGroundStats, ArithError> {
    let shape = arith_shape(rule)?;
    let keys = enumerate_free_bindings(rule, &shape, db, index);
    let mut stats = ArithGroundStats::default();
    for key in keys {
        fold_free_binding(
            rule,
            &shape,
            &key,
            db,
            index,
            registry,
            potentials,
            constraints,
        )?;
        stats.groundings += 1;
        stats.potentials += shape.pot_width;
        stats.constraints += shape.con_width;
    }
    Ok(stats)
}

/// Enumerate the rule's free-variable bindings: join all atoms over the
/// database pools, project onto the free variables, dedup by first
/// occurrence. The order is deterministic in pool order.
fn enumerate_free_bindings(
    rule: &ArithRule,
    shape: &ArithShape,
    db: &Database,
    index: Option<&crate::database::AtomIndex>,
) -> Vec<Vec<Sym>> {
    let all_atoms: Vec<&RAtom> = rule.terms.iter().flat_map(|t| &t.atoms).collect();
    let mut keys: Vec<Vec<Sym>> = Vec::new();
    let mut seen: FxHashSet<Vec<Sym>> = FxHashSet::default();
    enumerate(
        &all_atoms,
        0,
        db,
        index,
        &mut FxHashMap::default(),
        &mut |sub| {
            let key: Vec<Sym> = shape.free_vars.iter().map(|v| sub[v]).collect();
            if seen.insert(key.clone()) {
                keys.push(key);
            }
        },
    );
    keys
}

/// Expand one free binding's summations and emit its potential(s) or
/// constraint — exactly [`ArithShape::pot_width`] potentials and
/// [`ArithShape::con_width`] constraints are appended.
#[allow(clippy::too_many_arguments)]
fn fold_free_binding(
    rule: &ArithRule,
    shape: &ArithShape,
    key: &[Sym],
    db: &Database,
    index: Option<&crate::database::AtomIndex>,
    registry: &mut VarRegistry,
    potentials: &mut Vec<GroundPotential>,
    constraints: &mut Vec<GroundConstraint>,
) -> Result<(), ArithError> {
    let sub: FxHashMap<String, Sym> = shape
        .free_vars
        .iter()
        .cloned()
        .zip(key.iter().copied())
        .collect();
    let mut expr = LinExpr::constant(rule.constant);
    let mut nonlinear = false;
    for term in &rule.terms {
        // Expand the term's own summation bindings.
        let term_atoms: Vec<&RAtom> = term.atoms.iter().collect();
        let mut base = sub.clone();
        enumerate(&term_atoms, 0, db, index, &mut base, &mut |full| {
            let mut coef = term.coef;
            let mut target: Option<GroundAtom> = None;
            for atom in &term.atoms {
                let ground = instantiate(atom, full);
                match db.resolve(&ground) {
                    Resolved::Observed(v) => coef *= v,
                    Resolved::Target => {
                        if target.replace(ground).is_some() {
                            nonlinear = true;
                        }
                    }
                }
            }
            if coef == 0.0 {
                return;
            }
            match target {
                Some(atom) => {
                    let var = registry.intern(&atom);
                    expr.add_term(var, coef);
                }
                None => {
                    expr.add_constant(coef);
                }
            }
        });
    }
    if nonlinear {
        return Err(ArithError::NonLinear {
            rule: rule.name.clone(),
        });
    }
    expr.normalize();

    // Normalize the comparison to ≤ 0 (or = 0).
    let (lhs, kind) = match rule.comparison {
        Comparison::LeqZero => (expr, ConstraintKind::LeqZero),
        Comparison::EqZero => (expr, ConstraintKind::EqZero),
        Comparison::GeqZero => (negate(expr), ConstraintKind::LeqZero),
    };
    match rule.weight {
        None => {
            constraints.push(GroundConstraint {
                expr: lhs,
                kind,
                origin: rule.name.clone(),
            });
        }
        Some(w) => {
            // Weighted: hinge on the violation. Equality uses two
            // hinges (|lhs| = max(0, lhs) + max(0, −lhs)).
            let mut emit = |e: LinExpr| {
                potentials.push(GroundPotential {
                    expr: e,
                    weight: w,
                    squared: rule.squared,
                    origin: rule.name.clone(),
                });
            };
            match kind {
                ConstraintKind::LeqZero => emit(lhs),
                ConstraintKind::EqZero => {
                    emit(lhs.clone());
                    emit(negate(lhs));
                }
            }
        }
    }
    Ok(())
}

fn negate(mut e: LinExpr) -> LinExpr {
    e.constant = -e.constant;
    for (_, c) in &mut e.terms {
        *c = -*c;
    }
    e
}

fn instantiate(pattern: &RAtom, sub: &FxHashMap<String, Sym>) -> GroundAtom {
    GroundAtom::new(
        pattern.pred,
        pattern
            .args
            .iter()
            .map(|t| match t {
                RTerm::Const(c) => *c,
                RTerm::Var(v) => sub[v],
            })
            .collect(),
    )
}

/// Join `atoms` against database pools, extending `sub`; call `f` on every
/// complete substitution. Atoms fully bound by `sub` act as filters only if
/// the ground atom is known... no — unknown atoms resolve to 0 later, so we
/// only require *pool membership* to bind unbound variables; fully bound
/// atoms pass through (their truth is applied during resolution).
///
/// With `index` present, the candidate walk probes the shortest posting
/// list among the atom's bound argument positions instead of scanning the
/// whole pool. Probing only skips candidates that fail unification at a
/// bound position, so the successful-binding order matches the scan
/// exactly.
fn enumerate(
    atoms: &[&RAtom],
    idx: usize,
    db: &Database,
    index: Option<&crate::database::AtomIndex>,
    sub: &mut FxHashMap<String, Sym>,
    f: &mut dyn FnMut(&FxHashMap<String, Sym>),
) {
    let Some(atom) = atoms.get(idx) else {
        f(sub);
        return;
    };
    // If the atom has no unbound variables, skip ahead (no branching).
    let unbound: Vec<&str> = atom
        .args
        .iter()
        .filter_map(|t| match t {
            RTerm::Var(v) if !sub.contains_key(v) => Some(v.as_str()),
            _ => None,
        })
        .collect();
    if unbound.is_empty() {
        enumerate(atoms, idx + 1, db, index, sub, f);
        return;
    }
    let pool = db.atoms_of(atom.pred);
    let postings: Option<&[u32]> = index.and_then(|ix| {
        let mut best: Option<&[u32]> = None;
        for (pos, t) in atom.args.iter().enumerate() {
            let sym = match t {
                RTerm::Const(k) => Some(*k),
                RTerm::Var(v) => sub.get(v).copied(),
            };
            if let Some(sym) = sym {
                let p = ix.postings(atom.pred, pos, sym);
                if best.is_none_or(|b: &[u32]| p.len() < b.len()) {
                    best = Some(p);
                    if p.is_empty() {
                        break;
                    }
                }
            }
        }
        best
    });
    let mut visit = |cand: &crate::atom::GroundAtom| {
        if cand.args.len() != atom.args.len() {
            return;
        }
        let mut bound: Vec<String> = Vec::new();
        let mut ok = true;
        for (t, &c) in atom.args.iter().zip(cand.args.iter()) {
            match t {
                RTerm::Const(k) => {
                    if *k != c {
                        ok = false;
                        break;
                    }
                }
                RTerm::Var(v) => match sub.get(v) {
                    Some(&b) => {
                        if b != c {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        sub.insert(v.clone(), c);
                        bound.push(v.clone());
                    }
                },
            }
        }
        if ok {
            enumerate(atoms, idx + 1, db, index, sub, f);
        }
        for v in bound {
            sub.remove(&v);
        }
    };
    match postings {
        Some(postings) => {
            for &i in postings {
                visit(&pool[i as usize]);
            }
        }
        None => {
            for cand in pool {
                visit(cand);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Vocabulary;
    use crate::rule::rvar;

    fn ratom(pred: crate::predicate::PredId, args: &[&str]) -> RAtom {
        RAtom {
            pred,
            args: args.iter().map(|a| rvar(a)).collect(),
        }
    }

    /// covers closed, inMap/explained open; 2 candidates × 2 targets.
    fn setup() -> (Vocabulary, Database) {
        let mut vocab = Vocabulary::new();
        let covers = vocab.closed("covers", 2);
        let in_map = vocab.open("inMap", 1);
        let explained = vocab.open("explained", 1);
        let mut db = Database::new();
        db.observe(GroundAtom::from_strs(covers, &["c1", "t1"]), 1.0);
        db.observe(GroundAtom::from_strs(covers, &["c2", "t1"]), 0.5);
        db.observe(GroundAtom::from_strs(covers, &["c2", "t2"]), 1.0);
        db.target(GroundAtom::from_strs(in_map, &["c1"]));
        db.target(GroundAtom::from_strs(in_map, &["c2"]));
        db.target(GroundAtom::from_strs(explained, &["t1"]));
        db.target(GroundAtom::from_strs(explained, &["t2"]));
        (vocab, db)
    }

    #[test]
    fn explanation_cap_grounds_per_target() {
        let (vocab, db) = setup();
        let covers = vocab.id_of("covers").unwrap();
        let in_map = vocab.id_of("inMap").unwrap();
        let explained = vocab.id_of("explained").unwrap();
        // explained(T) − Σ_C covers(C,T)·inMap(C) ≤ 0
        let rule = ArithRuleBuilder::new("cap")
            .term(1.0, vec![ratom(explained, &["T"])])
            .term(
                -1.0,
                vec![ratom(covers, &["C", "T"]), ratom(in_map, &["C"])],
            )
            .sum_over("C")
            .build()
            .unwrap();
        let mut registry = VarRegistry::new();
        let (mut pots, mut cons) = (Vec::new(), Vec::new());
        let stats = ground_arith_rule(&rule, &db, &mut registry, &mut pots, &mut cons).unwrap();
        assert_eq!(stats.groundings, 2, "one grounding per target");
        assert_eq!(stats.constraints, 2);
        assert!(pots.is_empty());

        // t1's constraint: explained(t1) − 1·inMap(c1) − 0.5·inMap(c2) ≤ 0.
        let e_t1 = registry
            .lookup(&GroundAtom::from_strs(explained, &["t1"]))
            .unwrap();
        let m_c1 = registry
            .lookup(&GroundAtom::from_strs(in_map, &["c1"]))
            .unwrap();
        let m_c2 = registry
            .lookup(&GroundAtom::from_strs(in_map, &["c2"]))
            .unwrap();
        let t1_con = cons
            .iter()
            .find(|c| c.expr.terms.iter().any(|&(v, _)| v == e_t1))
            .unwrap();
        let coef = |v: usize| {
            t1_con
                .expr
                .terms
                .iter()
                .find(|&&(x, _)| x == v)
                .map(|&(_, c)| c)
        };
        assert_eq!(coef(e_t1), Some(1.0));
        assert_eq!(coef(m_c1), Some(-1.0));
        assert_eq!(coef(m_c2), Some(-0.5));

        // t2's constraint involves only c2.
        let e_t2 = registry
            .lookup(&GroundAtom::from_strs(explained, &["t2"]))
            .unwrap();
        let t2_con = cons
            .iter()
            .find(|c| c.expr.terms.iter().any(|&(v, _)| v == e_t2))
            .unwrap();
        assert_eq!(t2_con.expr.terms.len(), 2);
    }

    #[test]
    fn weighted_equality_emits_two_hinges() {
        let (vocab, db) = setup();
        let in_map = vocab.id_of("inMap").unwrap();
        // inMap(C) = 0.5 softly (per candidate).
        let rule = ArithRuleBuilder::new("half")
            .term(1.0, vec![ratom(in_map, &["C"])])
            .constant(-0.5)
            .eq()
            .weight(1.0)
            .build()
            .unwrap();
        let mut registry = VarRegistry::new();
        let (mut pots, mut cons) = (Vec::new(), Vec::new());
        let stats = ground_arith_rule(&rule, &db, &mut registry, &mut pots, &mut cons).unwrap();
        assert_eq!(stats.groundings, 2);
        assert_eq!(stats.potentials, 4, "two hinges per grounding");
        assert!(cons.is_empty());
        // At inMap = 0.8 the pair of hinges yields |0.8 − 0.5| = 0.3.
        let y = vec![0.8; registry.len()];
        let per_atom: f64 = pots.iter().map(|p| p.value(&y)).sum::<f64>() / 2.0;
        assert!((per_atom - 0.3).abs() < 1e-12);
    }

    #[test]
    fn geq_normalizes_to_leq() {
        let (vocab, db) = setup();
        let in_map = vocab.id_of("inMap").unwrap();
        // inMap(C) ≥ 0.2  ⇔  0.2 − inMap(C) ≤ 0.
        let rule = ArithRuleBuilder::new("floor")
            .term(1.0, vec![ratom(in_map, &["C"])])
            .constant(-0.2)
            .geq()
            .build()
            .unwrap();
        let mut registry = VarRegistry::new();
        let (mut pots, mut cons) = (Vec::new(), Vec::new());
        ground_arith_rule(&rule, &db, &mut registry, &mut pots, &mut cons).unwrap();
        assert_eq!(cons.len(), 2);
        for c in &cons {
            assert_eq!(c.kind, ConstraintKind::LeqZero);
            // Violated at 0, satisfied at 0.2+.
            let zeros = vec![0.0; registry.len()];
            assert!((c.violation(&zeros) - 0.2).abs() < 1e-12);
            let ok = vec![0.3; registry.len()];
            assert_eq!(c.violation(&ok), 0.0);
        }
    }

    #[test]
    fn nonlinear_term_rejected() {
        let (vocab, db) = setup();
        let in_map = vocab.id_of("inMap").unwrap();
        let explained = vocab.id_of("explained").unwrap();
        // inMap(C)·explained(T): two target atoms in one product.
        let rule = ArithRuleBuilder::new("bad")
            .term(1.0, vec![ratom(in_map, &["C"]), ratom(explained, &["T"])])
            .build()
            .unwrap();
        let mut registry = VarRegistry::new();
        let (mut pots, mut cons) = (Vec::new(), Vec::new());
        let err = ground_arith_rule(&rule, &db, &mut registry, &mut pots, &mut cons).unwrap_err();
        assert!(matches!(
            err,
            GroundingError::Arith(ArithError::NonLinear { .. })
        ));
    }

    #[test]
    fn zero_coefficient_terms_vanish() {
        let (vocab, db) = setup();
        let covers = vocab.id_of("covers").unwrap();
        let in_map = vocab.id_of("inMap").unwrap();
        // Unobserved covers atoms have truth 0 and must drop out: sum over
        // *all* C for target t2 touches covers(c1,t2) = 0.
        let rule = ArithRuleBuilder::new("cap")
            .term(
                -1.0,
                vec![ratom(covers, &["C", "T"]), ratom(in_map, &["C"])],
            )
            .constant(0.25)
            .sum_over("C")
            .build()
            .unwrap();
        let mut registry = VarRegistry::new();
        let (mut pots, mut cons) = (Vec::new(), Vec::new());
        ground_arith_rule(&rule, &db, &mut registry, &mut pots, &mut cons).unwrap();
        for c in &cons {
            for &(_, coef) in &c.expr.terms {
                assert!(coef != 0.0);
            }
        }
    }

    #[test]
    fn misspelled_sum_var_rejected() {
        let (vocab, _) = setup();
        let in_map = vocab.id_of("inMap").unwrap();
        // sum_over("X") — no atom mentions X; previously this was silently
        // ignored, leaving C free and changing the rule's semantics.
        let err = ArithRuleBuilder::new("typo")
            .term(1.0, vec![ratom(in_map, &["C"])])
            .sum_over("X")
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ArithError::UnusedSumVar {
                rule: "typo".into(),
                var: "X".into()
            }
        );
    }

    #[test]
    fn duplicate_sum_var_rejected() {
        let (vocab, _) = setup();
        let in_map = vocab.id_of("inMap").unwrap();
        let err = ArithRuleBuilder::new("dup")
            .term(1.0, vec![ratom(in_map, &["C"])])
            .sum_over("C")
            .sum_over("C")
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ArithError::DuplicateSumVar {
                rule: "dup".into(),
                var: "C".into()
            }
        );
    }

    #[test]
    fn invalid_weights_and_coefficients_rejected_at_build() {
        let (vocab, _) = setup();
        let in_map = vocab.id_of("inMap").unwrap();
        // Negative weight.
        let err = ArithRuleBuilder::new("neg")
            .term(1.0, vec![ratom(in_map, &["C"])])
            .weight(-1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, ArithError::InvalidWeight { weight, .. } if weight == -1.0));
        // NaN weight no longer panics with a misleading message.
        let err = ArithRuleBuilder::new("nan")
            .term(1.0, vec![ratom(in_map, &["C"])])
            .weight(f64::NAN)
            .build()
            .unwrap_err();
        assert!(matches!(err, ArithError::InvalidWeight { weight, .. } if weight.is_nan()));
        // Non-finite coefficient.
        let err = ArithRuleBuilder::new("coef")
            .term(f64::INFINITY, vec![ratom(in_map, &["C"])])
            .build()
            .unwrap_err();
        assert!(matches!(err, ArithError::InvalidCoefficient { .. }));
        // Non-finite constant.
        let err = ArithRuleBuilder::new("const")
            .term(1.0, vec![ratom(in_map, &["C"])])
            .constant(f64::NEG_INFINITY)
            .build()
            .unwrap_err();
        assert!(matches!(err, ArithError::InvalidConstant { .. }));
    }

    #[test]
    fn hand_built_rules_revalidated_at_grounding() {
        let (vocab, db) = setup();
        let in_map = vocab.id_of("inMap").unwrap();
        // Bypass the builder: the grounder must reject the same rules.
        let rule = ArithRule {
            name: "hand".into(),
            terms: vec![ArithTerm {
                coef: 1.0,
                atoms: vec![ratom(in_map, &["C"])],
            }],
            constant: 0.0,
            comparison: Comparison::LeqZero,
            weight: Some(f64::NAN),
            squared: false,
            sum_vars: Vec::new(),
        };
        let mut registry = VarRegistry::new();
        let (mut pots, mut cons) = (Vec::new(), Vec::new());
        let err = ground_arith_rule(&rule, &db, &mut registry, &mut pots, &mut cons).unwrap_err();
        assert!(matches!(
            err,
            GroundingError::Arith(ArithError::InvalidWeight { .. })
        ));
        assert!(pots.is_empty() && cons.is_empty());
    }
}
