//! Join plans: rules compiled to a dense, index-probing execution form.
//!
//! A [`JoinPlan`] is the once-per-rule compilation step of the grounder:
//!
//! * **Slot interning** — variable names are mapped to dense slot ids in
//!   first-occurrence order (body, then head), so a substitution is a
//!   `Vec<Option<Sym>>` indexed by slot instead of a string-keyed hash map.
//!   The hot loop does no hashing and no allocation per binding.
//! * **Selectivity ordering** — the positive body literals are reordered
//!   greedily most-selective-first using the database's argument-position
//!   index cardinalities: literals with constant arguments are estimated by
//!   their posting-list length, literals joining on an already-bound slot
//!   by `pool / distinct-values`, and unconstrained literals by their full
//!   pool size (penalized, so cartesian scans sink to the end).
//! * **Probe-vs-scan lowering** — at execution each literal picks, per
//!   backtracking node, the shortest posting list among its bound argument
//!   positions and iterates only those candidates; a literal with no bound
//!   position falls back to a pool scan. [`GroundStats`] records how many
//!   candidates each mode touched.
//!
//! The executor reports every complete binding to a caller-supplied
//! closure; emission semantics (hinge compilation, pruning) stay in
//! [`crate::grounding`].

use crate::database::{AtomIndex, Database};
use crate::grounding::{GroundStats, GroundingError};
use crate::predicate::PredId;
use crate::rule::{LogicalRule, RAtom, RTerm};
use cms_data::{FxHashMap, Sym};

/// A rule term lowered to a dense slot or an interned constant.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SlotTerm {
    /// A constant symbol.
    Const(Sym),
    /// A variable slot (index into the binding vector).
    Slot(u32),
}

/// One rule atom in slot form.
#[derive(Clone, Debug)]
pub(crate) struct PlanAtom {
    pub(crate) pred: PredId,
    pub(crate) terms: Vec<SlotTerm>,
}

impl PlanAtom {
    fn lower(atom: &RAtom, slots: &mut FxHashMap<String, u32>) -> PlanAtom {
        let terms = atom
            .args
            .iter()
            .map(|t| match t {
                RTerm::Const(k) => SlotTerm::Const(*k),
                RTerm::Var(name) => {
                    let next = slots.len() as u32;
                    SlotTerm::Slot(*slots.entry(name.clone()).or_insert(next))
                }
            })
            .collect();
        PlanAtom {
            pred: atom.pred,
            terms,
        }
    }
}

/// A rule literal compiled for emission (original body-then-head order).
#[derive(Clone, Debug)]
pub(crate) struct EmitLiteral {
    pub(crate) atom: PlanAtom,
    pub(crate) negated: bool,
    pub(crate) in_body: bool,
}

/// A compiled rule: slot-interned literals plus a join order.
#[derive(Debug)]
pub struct JoinPlan {
    num_slots: usize,
    /// Positive body literals in execution order.
    join: Vec<PlanAtom>,
    /// All literals (body then head, original order) for emission.
    pub(crate) emit: Vec<EmitLiteral>,
}

impl JoinPlan {
    /// Compile `rule` against the current shape of `db` (pool sizes and
    /// index cardinalities drive the join order).
    pub fn compile(rule: &LogicalRule, db: &Database) -> JoinPlan {
        let mut slots: FxHashMap<String, u32> = FxHashMap::default();
        let mut emit: Vec<EmitLiteral> = Vec::with_capacity(rule.body.len() + rule.head.len());
        for lit in &rule.body {
            emit.push(EmitLiteral {
                atom: PlanAtom::lower(&lit.atom, &mut slots),
                negated: lit.negated,
                in_body: true,
            });
        }
        for lit in &rule.head {
            emit.push(EmitLiteral {
                atom: PlanAtom::lower(&lit.atom, &mut slots),
                negated: lit.negated,
                in_body: false,
            });
        }

        let guard = db.index();
        let idx = guard.as_ref().expect("database index ensured");
        let mut remaining: Vec<(usize, PlanAtom)> = rule
            .body
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.negated)
            .map(|(i, _)| (i, emit[i].atom.clone()))
            .collect();

        let mut join: Vec<PlanAtom> = Vec::with_capacity(remaining.len());
        let mut bound: Vec<bool> = vec![false; slots.len()];
        while !remaining.is_empty() {
            let pick = remaining
                .iter()
                .enumerate()
                .min_by_key(|(_, (orig, atom))| {
                    let pool = db.atoms_of(atom.pred).len();
                    let mut probeable = false;
                    let mut est = pool;
                    for (pos, t) in atom.terms.iter().enumerate() {
                        match *t {
                            SlotTerm::Const(k) => {
                                probeable = true;
                                est = est.min(idx.postings(atom.pred, pos, k).len());
                            }
                            SlotTerm::Slot(s) if bound[s as usize] => {
                                probeable = true;
                                let distinct = idx.distinct(atom.pred, pos).max(1);
                                est = est.min(pool.div_ceil(distinct));
                            }
                            SlotTerm::Slot(_) => {}
                        }
                    }
                    (usize::from(!probeable), est, *orig)
                })
                .map(|(i, _)| i)
                .expect("non-empty remaining");
            let (_, atom) = remaining.remove(pick);
            for t in &atom.terms {
                if let SlotTerm::Slot(s) = *t {
                    bound[s as usize] = true;
                }
            }
            join.push(atom);
        }

        JoinPlan {
            num_slots: slots.len(),
            join,
            emit,
        }
    }

    /// Enumerate all bindings of the join over `db`, invoking `on_match`
    /// for each complete substitution. `idx` must be the database's current
    /// argument-position index.
    pub(crate) fn execute<F>(
        &self,
        db: &Database,
        idx: &AtomIndex,
        stats: &mut GroundStats,
        mut on_match: F,
    ) -> Result<(), GroundingError>
    where
        F: FnMut(&[Option<Sym>], &mut GroundStats) -> Result<(), GroundingError>,
    {
        let mut binding: Vec<Option<Sym>> = vec![None; self.num_slots];
        let mut trail: Vec<u32> = Vec::new();
        self.join_at(0, db, idx, &mut binding, &mut trail, stats, &mut on_match)
    }

    #[allow(clippy::too_many_arguments)]
    fn join_at<F>(
        &self,
        depth: usize,
        db: &Database,
        idx: &AtomIndex,
        binding: &mut Vec<Option<Sym>>,
        trail: &mut Vec<u32>,
        stats: &mut GroundStats,
        on_match: &mut F,
    ) -> Result<(), GroundingError>
    where
        F: FnMut(&[Option<Sym>], &mut GroundStats) -> Result<(), GroundingError>,
    {
        let Some(atom) = self.join.get(depth) else {
            stats.substitutions += 1;
            return on_match(binding, stats);
        };
        let pool = db.atoms_of(atom.pred);

        // Probe: shortest posting list among bound argument positions.
        let mut best: Option<&[u32]> = None;
        for (pos, t) in atom.terms.iter().enumerate() {
            let sym = match *t {
                SlotTerm::Const(k) => Some(k),
                SlotTerm::Slot(s) => binding[s as usize],
            };
            if let Some(sym) = sym {
                let p = idx.postings(atom.pred, pos, sym);
                if best.is_none_or(|b: &[u32]| p.len() < b.len()) {
                    best = Some(p);
                    if p.is_empty() {
                        break;
                    }
                }
            }
        }

        match best {
            Some(postings) => {
                stats.candidates_probed += postings.len();
                for &i in postings {
                    self.try_candidate(
                        atom, i as usize, depth, db, idx, binding, trail, stats, on_match,
                    )?;
                }
            }
            None => {
                stats.candidates_scanned += pool.len();
                for i in 0..pool.len() {
                    self.try_candidate(atom, i, depth, db, idx, binding, trail, stats, on_match)?;
                }
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn try_candidate<F>(
        &self,
        atom: &PlanAtom,
        cand_idx: usize,
        depth: usize,
        db: &Database,
        idx: &AtomIndex,
        binding: &mut Vec<Option<Sym>>,
        trail: &mut Vec<u32>,
        stats: &mut GroundStats,
        on_match: &mut F,
    ) -> Result<(), GroundingError>
    where
        F: FnMut(&[Option<Sym>], &mut GroundStats) -> Result<(), GroundingError>,
    {
        let cand = &db.atoms_of(atom.pred)[cand_idx];
        debug_assert_eq!(
            atom.terms.len(),
            cand.args.len(),
            "pool arity validated up front"
        );
        let mark = trail.len();
        let mut ok = true;
        for (t, &c) in atom.terms.iter().zip(cand.args.iter()) {
            match *t {
                SlotTerm::Const(k) => {
                    if k != c {
                        ok = false;
                        break;
                    }
                }
                SlotTerm::Slot(s) => match binding[s as usize] {
                    Some(v) => {
                        if v != c {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        binding[s as usize] = Some(c);
                        trail.push(s);
                    }
                },
            }
        }
        let result = if ok {
            self.join_at(depth + 1, db, idx, binding, trail, stats, on_match)
        } else {
            Ok(())
        };
        for &s in &trail[mark..] {
            binding[s as usize] = None;
        }
        trail.truncate(mark);
        result
    }

    /// Number of variable slots.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// The join order as positions into the rule's positive body literals —
    /// exposed for plan introspection in tests and diagnostics.
    pub fn join_preds(&self) -> Vec<PredId> {
        self.join.iter().map(|a| a.pred).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::GroundAtom;
    use crate::rule::{rconst, rvar, RuleBuilder};

    /// The selectivity planner must move a constant-probed literal ahead of
    /// a broader one, regardless of the order the rule wrote them in.
    #[test]
    fn constant_probe_is_ordered_first() {
        let covers = PredId(0);
        let in_map = PredId(1);
        let mut db = Database::new();
        for i in 0..20 {
            db.observe(
                GroundAtom::from_strs(covers, &[&format!("c{}", i % 4), &format!("t{i}")]),
                1.0,
            );
            db.target(GroundAtom::from_strs(in_map, &[&format!("c{}", i % 4)]));
        }
        // Written order: the unselective inMap(C) first, then covers('c2', T)
        // whose constant argument probes a 5-atom posting list.
        let rule = RuleBuilder::new("r")
            .body(in_map, vec![rvar("C")])
            .body(covers, vec![rconst("c2"), rvar("T")])
            .weight(1.0)
            .build();
        let plan = JoinPlan::compile(&rule, &db);
        assert_eq!(plan.num_slots(), 2, "C and T");
        assert_eq!(
            plan.join_preds(),
            vec![covers, in_map],
            "constant-probed covers literal must run first"
        );
    }

    /// Literal order is preserved for emission even when the join order
    /// changes (the emit template stays body-then-head as written).
    #[test]
    fn emit_template_keeps_written_order() {
        let covers = PredId(0);
        let in_map = PredId(1);
        let mut db = Database::new();
        db.observe(GroundAtom::from_strs(covers, &["c1", "t1"]), 1.0);
        db.target(GroundAtom::from_strs(in_map, &["c1"]));
        let rule = RuleBuilder::new("r")
            .body(in_map, vec![rvar("C")])
            .body(covers, vec![rconst("c1"), rvar("T")])
            .head(in_map, vec![rvar("C")])
            .weight(1.0)
            .build();
        let plan = JoinPlan::compile(&rule, &db);
        let emitted: Vec<(PredId, bool)> =
            plan.emit.iter().map(|e| (e.atom.pred, e.in_body)).collect();
        assert_eq!(
            emitted,
            vec![(in_map, true), (covers, true), (in_map, false)]
        );
    }
}
