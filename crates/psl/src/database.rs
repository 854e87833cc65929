//! The database of a PSL program: observed atom truths and target atoms.
//!
//! Besides the per-predicate candidate pools the grounder joins over, the
//! database maintains a lazy **argument-position index**
//! `(pred, arg position, symbol) → positions in the pool`. The join-plan
//! executor ([`crate::grounding`]) probes it instead of scanning whole
//! pools once a literal has at least one bound argument; reads go through
//! an `RwLock` so parallel grounding workers can share it.
//!
//! Appends (new observations, new targets) after the index is built
//! patch its posting lists in place; value-only re-observations leave
//! pools and index untouched.
//!
//! ## Lock poisoning
//!
//! The index `RwLock`'s poisoning is deliberately **recovered**
//! (`PoisonError::into_inner`), not propagated: every writer builds its
//! replacement index completely (or patches posting lists append-only)
//! before it is visible, so a panic elsewhere can never leave a
//! half-updated index behind — the same writer-invariant pattern as
//! `cms_data::Instance`.

use crate::atom::GroundAtom;
use crate::predicate::{PredId, Vocabulary};
use cms_data::{FxHashMap, FxHashSet, Sym};
use std::sync::{RwLock, RwLockReadGuard};

/// Posting lists of the argument-position index.
#[derive(Debug, Default)]
pub(crate) struct AtomIndex {
    posting: FxHashMap<(PredId, u32, Sym), Vec<u32>>,
    /// Distinct symbols per `(pred, arg position)` — the planner's
    /// average-selectivity estimate for joins on not-yet-known symbols.
    distinct: FxHashMap<(PredId, u32), usize>,
    empty: Vec<u32>,
}

impl AtomIndex {
    /// Pool positions (into [`Database::atoms_of`]) of atoms of `pred`
    /// whose argument `pos` is `sym`, in pool order.
    pub(crate) fn postings(&self, pred: PredId, pos: usize, sym: Sym) -> &[u32] {
        self.posting
            .get(&(pred, pos as u32, sym))
            .unwrap_or(&self.empty)
    }

    /// Number of distinct symbols occurring at `(pred, pos)`.
    pub(crate) fn distinct(&self, pred: PredId, pos: usize) -> usize {
        self.distinct.get(&(pred, pos as u32)).copied().unwrap_or(0)
    }

    /// Patch the posting lists for an atom appended at pool position `pos`
    /// (mirrors one step of the from-scratch build loop).
    fn append(&mut self, atom: &GroundAtom, pos: u32) {
        for (i, &sym) in atom.args.iter().enumerate() {
            let posting = self.posting.entry((atom.pred, i as u32, sym)).or_default();
            if posting.is_empty() {
                *self.distinct.entry((atom.pred, i as u32)).or_default() += 1;
            }
            posting.push(pos);
        }
    }
}

/// Observed truths in `[0,1]` plus the set of atoms to infer.
#[derive(Debug)]
pub struct Database {
    observations: FxHashMap<GroundAtom, f64>,
    targets: FxHashSet<GroundAtom>,
    /// Observed atoms grouped per predicate, for grounding joins.
    by_pred: FxHashMap<PredId, Vec<GroundAtom>>,
    /// Lazy argument-position index; `None` until first use. Appends
    /// patch it in place.
    index: RwLock<Option<AtomIndex>>,
}

impl Default for Database {
    fn default() -> Database {
        Database::new()
    }
}

impl Clone for Database {
    fn clone(&self) -> Database {
        Database {
            observations: self.observations.clone(),
            targets: self.targets.clone(),
            by_pred: self.by_pred.clone(),
            // The clone rebuilds its index on first use.
            index: RwLock::new(None),
        }
    }
}

/// How an atom resolves during grounding.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Resolved {
    /// Observed (or closed-world default) truth value.
    Observed(f64),
    /// A target atom: inferred by MAP; identified later by variable index.
    Target,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database {
            observations: FxHashMap::default(),
            targets: FxHashSet::default(),
            by_pred: FxHashMap::default(),
            index: RwLock::new(None),
        }
    }

    /// Record an observation. Values are clamped to `[0,1]`.
    ///
    /// Re-observing an atom only updates its value; a brand-new atom joins
    /// its predicate pool and patches the index in place.
    ///
    /// # Panics
    /// Panics if the atom was declared a target.
    pub fn observe(&mut self, atom: GroundAtom, value: f64) {
        assert!(
            !self.targets.contains(&atom),
            "atom {atom} is already a target"
        );
        let clamped = value.clamp(0.0, 1.0);
        if self.observations.insert(atom.clone(), clamped).is_none() {
            self.append_to_pool(atom);
        }
    }

    /// Declare an atom as a MAP target (a free variable of inference).
    /// Re-declaring an existing target is a free no-op.
    ///
    /// # Panics
    /// Panics if the atom was observed.
    pub fn target(&mut self, atom: GroundAtom) {
        assert!(
            !self.observations.contains_key(&atom),
            "atom {atom} is already observed"
        );
        if self.targets.insert(atom.clone()) {
            self.append_to_pool(atom);
        }
    }

    /// Append a new atom to its predicate pool and patch the index in
    /// place (if built).
    ///
    /// # Panics
    /// Panics if the pool already holds `u32::MAX` atoms — posting lists
    /// store pool positions as `u32`, and a silent `as`-truncation here
    /// would corrupt the index (every position past 2³²−1 would alias a
    /// low one). The explicit capacity check turns that corruption into a
    /// loud, immediate failure.
    fn append_to_pool(&mut self, atom: GroundAtom) {
        let pool = self.by_pred.entry(atom.pred).or_default();
        pool.push(atom.clone());
        let pos = u32::try_from(pool.len() - 1)
            .expect("predicate pool exceeds u32::MAX atoms (index position capacity)");
        if let Some(idx) = self
            .index
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_mut()
        {
            idx.append(&atom, pos);
        }
    }

    /// Build the argument-position index if absent.
    pub fn ensure_index(&self) {
        let mut guard = self
            .index
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if guard.is_none() {
            let mut idx = AtomIndex::default();
            for pool in self.by_pred.values() {
                for (i, atom) in pool.iter().enumerate() {
                    idx.append(atom, i as u32);
                }
            }
            *guard = Some(idx);
        }
    }

    /// Read access to the argument-position index, building it if needed.
    /// The guard must be dropped before any `&mut self` call.
    pub(crate) fn index(&self) -> RwLockReadGuard<'_, Option<AtomIndex>> {
        loop {
            let guard = self
                .index
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if guard.is_some() {
                return guard;
            }
            drop(guard);
            self.ensure_index();
        }
    }

    /// Number of known atoms of `pred` whose argument `pos` equals `sym` —
    /// the index cardinality the join planner consults. Builds the index on
    /// first use; exposed for observability and maintenance tests.
    pub fn count_matching(&self, pred: PredId, pos: usize, sym: Sym) -> usize {
        self.index()
            .as_ref()
            .expect("index just ensured")
            .postings(pred, pos, sym)
            .len()
    }

    /// Resolve an atom: target, observed value, or closed-world default 0.
    ///
    /// Unobserved atoms of *open* predicates that were never declared
    /// targets also resolve to 0 — the same pragmatic default PSL's lazy
    /// grounding applies.
    pub fn resolve(&self, atom: &GroundAtom) -> Resolved {
        if self.targets.contains(atom) {
            Resolved::Target
        } else {
            Resolved::Observed(self.observations.get(atom).copied().unwrap_or(0.0))
        }
    }

    /// Observed truth of an atom (None if target or unknown).
    pub fn observed_value(&self, atom: &GroundAtom) -> Option<f64> {
        self.observations.get(atom).copied()
    }

    /// All known atoms (observed or target) of a predicate, in insertion
    /// order. This is the candidate pool the grounder joins over.
    pub fn atoms_of(&self, pred: PredId) -> &[GroundAtom] {
        self.by_pred.get(&pred).map_or(&[], Vec::as_slice)
    }

    /// Iterate all target atoms (order unspecified).
    pub fn targets(&self) -> impl Iterator<Item = &GroundAtom> {
        self.targets.iter()
    }

    /// Number of observations.
    pub fn num_observations(&self) -> usize {
        self.observations.len()
    }

    /// Number of target atoms.
    pub fn num_targets(&self) -> usize {
        self.targets.len()
    }

    /// Sanity-check all atoms against a vocabulary (arity agreement).
    pub fn validate(&self, vocab: &Vocabulary) -> Result<(), String> {
        for atom in self.observations.keys().chain(self.targets.iter()) {
            let pred = vocab.predicate(atom.pred);
            if pred.arity != atom.args.len() {
                return Err(format!(
                    "atom {atom} has {} args but {} expects {}",
                    atom.args.len(),
                    pred.name,
                    pred.arity
                ));
            }
            if pred.closed && self.targets.contains(atom) {
                return Err(format!(
                    "target atom {atom} belongs to closed predicate {}",
                    pred.name
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_and_resolve() {
        let mut db = Database::new();
        let a = GroundAtom::from_strs(PredId(0), &["x"]);
        db.observe(a.clone(), 0.7);
        assert_eq!(db.resolve(&a), Resolved::Observed(0.7));
        assert_eq!(db.observed_value(&a), Some(0.7));
        let unknown = GroundAtom::from_strs(PredId(0), &["y"]);
        assert_eq!(db.resolve(&unknown), Resolved::Observed(0.0));
    }

    #[test]
    fn observation_clamps() {
        let mut db = Database::new();
        let a = GroundAtom::from_strs(PredId(0), &["x"]);
        db.observe(a.clone(), 1.5);
        assert_eq!(db.observed_value(&a), Some(1.0));
    }

    #[test]
    fn re_observation_overwrites_without_duplicating_pool() {
        let mut db = Database::new();
        let a = GroundAtom::from_strs(PredId(0), &["x"]);
        db.observe(a.clone(), 0.3);
        db.observe(a.clone(), 0.9);
        assert_eq!(db.observed_value(&a), Some(0.9));
        assert_eq!(db.atoms_of(PredId(0)).len(), 1);
    }

    #[test]
    fn targets_resolve_as_targets() {
        let mut db = Database::new();
        let a = GroundAtom::from_strs(PredId(1), &["m"]);
        db.target(a.clone());
        assert_eq!(db.resolve(&a), Resolved::Target);
        assert_eq!(db.num_targets(), 1);
    }

    #[test]
    #[should_panic(expected = "already observed")]
    fn target_after_observe_panics() {
        let mut db = Database::new();
        let a = GroundAtom::from_strs(PredId(0), &["x"]);
        db.observe(a.clone(), 0.5);
        db.target(a);
    }

    #[test]
    #[should_panic(expected = "already a target")]
    fn observe_after_target_panics() {
        let mut db = Database::new();
        let a = GroundAtom::from_strs(PredId(0), &["x"]);
        db.target(a.clone());
        db.observe(a, 0.5);
    }

    #[test]
    fn index_postings_match_pools() {
        let mut db = Database::new();
        db.observe(GroundAtom::from_strs(PredId(0), &["a", "x"]), 1.0);
        db.observe(GroundAtom::from_strs(PredId(0), &["a", "y"]), 1.0);
        db.observe(GroundAtom::from_strs(PredId(0), &["b", "x"]), 1.0);
        assert_eq!(db.count_matching(PredId(0), 0, Sym::new("a")), 2);
        assert_eq!(db.count_matching(PredId(0), 1, Sym::new("x")), 2);
        assert_eq!(db.count_matching(PredId(0), 0, Sym::new("zzz")), 0);
    }

    #[test]
    fn index_patched_in_place_by_observe_and_target() {
        let mut db = Database::new();
        db.observe(GroundAtom::from_strs(PredId(0), &["a"]), 1.0);
        // Force the index to exist, then mutate through both entry points.
        assert_eq!(db.count_matching(PredId(0), 0, Sym::new("a")), 1);
        db.observe(GroundAtom::from_strs(PredId(0), &["a2"]), 0.5);
        assert_eq!(db.count_matching(PredId(0), 0, Sym::new("a2")), 1);
        db.target(GroundAtom::from_strs(PredId(1), &["a"]));
        assert_eq!(db.count_matching(PredId(1), 0, Sym::new("a")), 1);
        // Re-observing an existing atom only updates the value; the pool is
        // unchanged, so counts stay put.
        db.observe(GroundAtom::from_strs(PredId(0), &["a"]), 0.1);
        assert_eq!(db.count_matching(PredId(0), 0, Sym::new("a")), 1);
        assert_eq!(db.atoms_of(PredId(0)).len(), 2);
    }

    #[test]
    fn cloned_database_rebuilds_its_own_index() {
        let mut db = Database::new();
        db.observe(GroundAtom::from_strs(PredId(0), &["a"]), 1.0);
        assert_eq!(db.count_matching(PredId(0), 0, Sym::new("a")), 1);
        let mut copy = db.clone();
        copy.observe(GroundAtom::from_strs(PredId(0), &["b"]), 1.0);
        assert_eq!(copy.count_matching(PredId(0), 0, Sym::new("b")), 1);
        assert_eq!(db.count_matching(PredId(0), 0, Sym::new("b")), 0);
    }

    #[test]
    fn validate_checks_arity_and_closedness() {
        let mut vocab = Vocabulary::new();
        let covers = vocab.closed("covers", 2);
        let in_map = vocab.open("inMap", 1);

        let mut db = Database::new();
        db.observe(GroundAtom::from_strs(covers, &["a", "b"]), 1.0);
        db.target(GroundAtom::from_strs(in_map, &["a"]));
        assert!(db.validate(&vocab).is_ok());

        let mut bad_arity = db.clone();
        bad_arity.observe(GroundAtom::from_strs(covers, &["only-one"]), 1.0);
        assert!(bad_arity.validate(&vocab).is_err());

        let mut bad_closed = db;
        bad_closed.target(GroundAtom::from_strs(covers, &["x", "y"]));
        assert!(bad_closed.validate(&vocab).is_err());
    }
}
