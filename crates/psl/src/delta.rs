//! Delta grounding: incremental re-grounding of PSL programs.
//!
//! Flip-based search (local search over `inMap` selections, MM-style
//! iterative schemes) evaluates long chains of *nearly identical*
//! databases: each step changes one observed truth value, or adds/retracts
//! a handful of atoms. Paying a full [`crate::Program::ground`] per step
//! re-derives thousands of ground terms that did not change. This module
//! makes the grounder reuse them.
//!
//! ## Design
//!
//! **Generation-stamped mutations.** [`crate::Database`] bumps a
//! generation counter on every effective write and logs each mutation as a
//! [`DeltaEntry`] (`Added` / `Removed` / `Changed {old, new}`). Appends
//! patch the argument-position index's posting lists in place (the index
//! carries `built_at`/`stamp` generations); only retractions — which shift
//! pool positions — invalidate it. [`crate::Database::take_delta`] drains
//! the log into a [`DbDelta`], the exact difference between two grounding
//! snapshots.
//!
//! **Splice support.** Every plan-compiled grounding
//! ([`crate::Program::ground`] / `ground_with`) records, per source
//! (logical rule, arithmetic rule, raw term), how many potentials and
//! constraints it emitted — the term pool is segmented in canonical
//! source order — plus, for logical rules, a *binding table* mapping each
//! complete join binding to the artifact it produced (potential index,
//! constraint index, constant-loss contribution, or pruned). The table is
//! what lets a later reground patch single groundings without re-running
//! the join.
//!
//! **Arithmetic splice tables.** Arithmetic rules fold summations across
//! bindings, so their splice unit is the *free-variable binding*, not the
//! join binding: grounding records an `ArithTable` holding the binding
//! keys in emission order plus a dependency map from every ground atom a
//! binding's summation folds (its *contributors*, captured during the
//! fold) to the binding ordinals it feeds. Each binding emits a fixed
//! number of artifacts (`ArithShape`'s widths), so ordinal `b` owns the
//! segment-relative artifact range `[b·width, (b+1)·width)` and single
//! bindings can be re-folded in place.
//!
//! **Dependency map.** The compiled [`JoinPlan`]s know every predicate a
//! rule's literals touch (body, negated body, and head — closed-world
//! resolution means a rule's ground terms depend on *only* those pools and
//! values). [`DependencyMap`] inverts that into predicate → dependent rule
//! indices; a source whose predicates are disjoint from the delta's is
//! spliced into the new ground program untouched.
//!
//! **Re-grounding granularity.** [`crate::Program::reground`] recomputes,
//! per dirty source:
//!
//! * *Value-only deltas* (`Changed` entries only — pool membership is
//!   untouched, so the substitution set of every join is provably
//!   unchanged): for each mutated atom, the plan is executed **seeded**
//!   with the atom's bindings at every literal that can instantiate it,
//!   enumerating exactly the groundings that touch the atom. Their old
//!   artifacts are looked up in the binding table and removed (including
//!   constant-loss contributions), and the groundings are re-emitted
//!   against the new values — pruned ↔ potential ↔ constraint transitions
//!   included. Dirty *arithmetic* rules re-fold exactly the free bindings
//!   the mutated atoms contribute to (`ArithTable` lookup — the binding
//!   set itself is provably unchanged); untouched bindings splice
//!   byte-identically and keep their ADMM duals.
//! * *Pool deltas* (`Added`/`Removed` present): dirty logical rules are
//!   re-grounded from scratch; clean ones are still spliced. Dirty
//!   arithmetic rules re-enumerate their free bindings and diff against
//!   the table: brand-new bindings ground fresh, vanished ones compact
//!   out, and surviving bindings splice unless a mutated atom touches
//!   their summation (`Changed`/`Removed` atoms via the contributor map;
//!   `Added` atoms via pattern unification — an added atom can only enter
//!   a binding whose key agrees with the free variables the atom's
//!   pattern binds, see `crate::arith::free_var_mask`).
//! * *Raw terms* are ground atoms, so their dirtiness test is exact atom
//!   equality against the delta; dirty raw terms are recomputed (they are
//!   single linear expressions — no joins).
//!
//! The spliced program shares the prior [`crate::VarRegistry`]: variable
//! indices of surviving atoms are stable, which is what makes warm-started
//! ADMM ([`crate::GroundProgram::solve_warm`]) a drop-in — the previous
//! consensus vector indexes the new program directly. (The registry may
//! retain atoms that no longer occur in any term; they simply stay
//! unconstrained.)
//!
//! **Term identity.** Every reground additionally records a `DualReuse`
//! map — new term position → prior term position for spliced terms. It is
//! what [`crate::GroundProgram::carry_duals`] uses to transplant the
//! ADMM scaled duals of unchanged terms across a reground, so
//! [`crate::GroundProgram::solve_warm_dual`] resumes from both the prior
//! consensus *and* the prior dual state (recomputed terms start cold).
//!
//! `reground(delta)` is equivalent to a fresh `ground()` up to term and
//! variable order — property tests over random rules and mutation
//! sequences enforce it, and [`crate::GroundStats::terms_reused`] /
//! [`crate::GroundStats::terms_recomputed`] report how much work the
//! splice saved.

use crate::arith::{
    arith_shape, enumerate_free_bindings, fold_free_binding, free_var_mask,
    ground_arith_rule_recorded,
};
use crate::atom::GroundAtom;
use crate::grounding::{emit, ground_rule, GroundSink, GroundStats, GroundingError};
use crate::hinge::{GroundConstraint, GroundPotential};
use crate::plan::JoinPlan;
use crate::predicate::PredId;
use crate::program::{remap_expr, GroundProgram, Program, RawArtifact, RuleGrounding};
use cms_data::{FxHashMap, FxHashSet, Sym};
use std::time::Instant;

/// What happened to one atom.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum DeltaKind {
    /// The atom entered its predicate pool (new observation or target).
    Added,
    /// The atom left the database ([`crate::Database::retract`]).
    Removed,
    /// An observed truth value changed; pools are untouched.
    Changed {
        /// Value before the write.
        old: f64,
        /// Value after the write (clamped to `[0,1]`).
        new: f64,
    },
}

/// One logged mutation.
#[derive(Clone, PartialEq, Debug)]
pub struct DeltaEntry {
    /// The mutated atom.
    pub atom: GroundAtom,
    /// What happened to it.
    pub kind: DeltaKind,
}

/// An ordered batch of database mutations between two grounding snapshots,
/// **coalesced to its net effect**.
///
/// [`crate::Database::take_delta`] drains the raw mutation log and folds it
/// per atom before stamping: an in-window `Added` cancelled by a later
/// `Removed` disappears entirely, chains of `Changed` fold to one net
/// `Changed { old, new }` (dropped outright when `old == new`, i.e. an
/// a→b→a round-trip), and `Changed` followed by `Removed` folds to
/// `Removed`. The delta therefore carries **two** sizes: the *raw* count of
/// logged mutations ([`DbDelta::raw_entries`], which the guard checks
/// against the generation span) and the *net* entry list
/// ([`DbDelta::entries`], which the regrounder splices). See the
/// "Batched deltas" section of `docs/robustness.md`.
///
/// Deltas are **stamped** with the generation span they cover (`base..end`)
/// and the identity of the database that produced them;
/// [`crate::Program::reground`] refuses — via
/// [`RegroundError::StateMismatch`] — to splice a delta whose stamps do
/// not line up with the prior ground program and the current database.
#[derive(Clone, Default, Debug)]
pub struct DbDelta {
    entries: Vec<DeltaEntry>,
    /// Number of raw mutations logged before coalescing — one per
    /// generation step, which is what the reground guard verifies.
    raw: usize,
    /// Database generation the delta starts from (the generation the prior
    /// grounding snapshot was taken at).
    base: u64,
    /// Database generation after the last logged mutation.
    end: u64,
    /// Identity of the producing [`crate::Database`].
    db: u64,
}

impl DbDelta {
    pub(crate) fn new(
        entries: Vec<DeltaEntry>,
        raw: usize,
        base: u64,
        end: u64,
        db: u64,
    ) -> DbDelta {
        DbDelta {
            entries,
            raw,
            base,
            end,
            db,
        }
    }

    /// Generation this delta starts from.
    pub fn base_generation(&self) -> u64 {
        self.base
    }

    /// Generation this delta ends at.
    pub fn end_generation(&self) -> u64 {
        self.end
    }

    /// Identity ([`crate::Database::id`]) of the producing database.
    pub fn db_id(&self) -> u64 {
        self.db
    }

    /// True iff no mutations were logged **and** the generation span is
    /// zero. An entry-less delta whose stamps span one or more generations
    /// is *not* empty: it is either a batch that coalesced to nothing
    /// (every raw mutation cancelled out — [`DbDelta::is_net_empty`], which
    /// the regrounder short-circuits after verifying the stamps) or a
    /// tampered log whose raw count disagrees with the span (which the
    /// reground guard rejects).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.end == self.base
    }

    /// True iff the raw mutations coalesced to no net effect (e.g. a value
    /// flipped a→b→a, or an atom added and retracted within the window).
    /// The database state then *equals* the snapshot the delta starts from,
    /// so a reground of a net-empty delta is a provable no-op.
    pub fn is_net_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of **net** mutations after coalescing.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of **raw** mutations logged before coalescing. The database
    /// bumps its generation exactly once per raw mutation, so the reground
    /// guard checks `raw_entries() == end − base` (the coalesced entry
    /// list is allowed to be shorter).
    pub fn raw_entries(&self) -> usize {
        self.raw
    }

    /// The net mutations, ordered by each atom's first appearance in the
    /// raw log.
    pub fn entries(&self) -> &[DeltaEntry] {
        &self.entries
    }

    /// True iff any mutation changed pool *membership* (added/removed an
    /// atom) rather than just an observed value. Value-only deltas keep
    /// every join's substitution set intact, enabling the seeded fast
    /// path of [`crate::Program::reground`].
    pub fn pools_changed(&self) -> bool {
        self.entries
            .iter()
            .any(|e| !matches!(e.kind, DeltaKind::Changed { .. }))
    }

    /// The set of predicates with at least one mutated atom.
    pub(crate) fn preds(&self) -> FxHashSet<PredId> {
        self.entries.iter().map(|e| e.atom.pred).collect()
    }

    /// The set of mutated atoms (for exact-atom dirtiness tests).
    pub(crate) fn atom_set(&self) -> FxHashSet<GroundAtom> {
        self.entries.iter().map(|e| e.atom.clone()).collect()
    }
}

/// Per-atom net effect tracked by [`coalesce`], folded in write order.
#[derive(Clone, Copy)]
enum NetEffect {
    /// The atom entered the pool within the window (later value writes
    /// fold into the add; the regrounder reads the live value anyway).
    Added,
    /// The atom left the database.
    Removed,
    /// Value-only: first old value, last new value.
    Changed { old: f64, new: f64 },
    /// Retracted and then re-added within the window. Pool positions
    /// shifted, so this cannot fold to a `Changed`; it emits `Removed`
    /// followed by `Added`.
    RemovedAdded,
    /// An in-window add was retracted again: the atom existed neither at
    /// the base snapshot nor now, and base-pool positions are restored
    /// (removals only ever shift atoms appended after the base), so the
    /// pair vanishes from the net delta entirely.
    Cancelled,
}

/// Collapse a drained mutation log to its net per-atom effect.
///
/// Folding rules (the only transitions [`crate::Database`]'s write rules
/// can produce — impossible ones are tolerated by keeping the later kind):
/// `Added`+`Removed` cancel, `Changed` chains fold to one
/// `Changed { first old, last new }` (dropped at emission when
/// `old == new`), `Changed`+`Removed` folds to `Removed`, and
/// `Removed`+`Added` stays a `Removed`,`Added` pair (pool positions
/// shifted, so it is still a pool delta). Output entries are ordered by
/// each atom's first appearance in the raw log.
pub(crate) fn coalesce(entries: Vec<DeltaEntry>) -> Vec<DeltaEntry> {
    if entries.len() <= 1 {
        return entries;
    }
    let mut order: Vec<GroundAtom> = Vec::new();
    let mut state: FxHashMap<GroundAtom, NetEffect> = FxHashMap::default();
    for e in entries {
        match state.get_mut(&e.atom) {
            None => {
                let net = match e.kind {
                    DeltaKind::Added => NetEffect::Added,
                    DeltaKind::Removed => NetEffect::Removed,
                    DeltaKind::Changed { old, new } => NetEffect::Changed { old, new },
                };
                order.push(e.atom.clone());
                state.insert(e.atom, net);
            }
            Some(s) => {
                *s = match (*s, e.kind) {
                    (NetEffect::Added, DeltaKind::Changed { .. }) => NetEffect::Added,
                    (NetEffect::Added, DeltaKind::Removed) => NetEffect::Cancelled,
                    (NetEffect::Changed { old, .. }, DeltaKind::Changed { new, .. }) => {
                        NetEffect::Changed { old, new }
                    }
                    (NetEffect::Changed { .. }, DeltaKind::Removed) => NetEffect::Removed,
                    (NetEffect::Removed, DeltaKind::Added) => NetEffect::RemovedAdded,
                    (NetEffect::RemovedAdded, DeltaKind::Changed { .. }) => NetEffect::RemovedAdded,
                    (NetEffect::RemovedAdded, DeltaKind::Removed) => NetEffect::Removed,
                    (NetEffect::Cancelled, DeltaKind::Added) => NetEffect::Added,
                    // The database's write rules cannot produce these
                    // (e.g. `Changed` on an atom it just removed); keep
                    // the later kind so a corrupted log still nets to
                    // *something* the guard can weigh against its span.
                    (_, DeltaKind::Added) => NetEffect::Added,
                    (_, DeltaKind::Removed) => NetEffect::Removed,
                    (_, DeltaKind::Changed { old, new }) => NetEffect::Changed { old, new },
                };
            }
        }
    }
    let mut out = Vec::with_capacity(order.len());
    for atom in order {
        let net = state.remove(&atom).expect("every ordered atom has a state");
        match net {
            NetEffect::Added => out.push(DeltaEntry {
                atom,
                kind: DeltaKind::Added,
            }),
            NetEffect::Removed => out.push(DeltaEntry {
                atom,
                kind: DeltaKind::Removed,
            }),
            NetEffect::Changed { old, new } => {
                // a→…→a round-trips vanish: the value is back where the
                // prior grounding saw it.
                if old != new {
                    out.push(DeltaEntry {
                        atom,
                        kind: DeltaKind::Changed { old, new },
                    });
                }
            }
            NetEffect::RemovedAdded => {
                out.push(DeltaEntry {
                    atom: atom.clone(),
                    kind: DeltaKind::Removed,
                });
                out.push(DeltaEntry {
                    atom,
                    kind: DeltaKind::Added,
                });
            }
            NetEffect::Cancelled => {}
        }
    }
    out
}

/// Predicate → dependent rule indices, derived from compiled join plans.
///
/// A rule depends on every predicate any of its literals mentions — body,
/// negated body, or head — because closed-world resolution folds those
/// pools and values into its ground terms.
#[derive(Clone, Default, Debug)]
pub struct DependencyMap {
    by_pred: FxHashMap<PredId, Vec<usize>>,
}

impl DependencyMap {
    /// Build the map from one compiled plan per rule (plan order = rule
    /// declaration order).
    pub(crate) fn from_plans(plans: &[JoinPlan]) -> DependencyMap {
        let mut by_pred: FxHashMap<PredId, Vec<usize>> = FxHashMap::default();
        for (i, plan) in plans.iter().enumerate() {
            for pred in plan.emit_preds() {
                let deps = by_pred.entry(pred).or_default();
                if deps.last() != Some(&i) {
                    deps.push(i);
                }
            }
        }
        DependencyMap { by_pred }
    }

    /// Rule indices that must be reconsidered when `pred` mutates.
    pub fn dependents(&self, pred: PredId) -> &[usize] {
        self.by_pred.get(&pred).map_or(&[], Vec::as_slice)
    }
}

/// The artifact one grounding (complete join binding) produced, with
/// indices relative to its rule's segment of the term pool.
#[derive(Clone, Copy, Debug)]
pub(crate) enum TermSlot {
    /// Weighted potential at the given segment-relative index.
    Potential(u32),
    /// Hard constraint at the given segment-relative index.
    Constraint(u32),
    /// Constant objective contribution (no free variables).
    ConstLoss(f64),
    /// Trivially satisfied; nothing was emitted.
    Pruned,
}

/// One logical rule's contiguous slice of the term pool plus its binding
/// table and grounding statistics.
#[derive(Clone, Debug)]
pub(crate) struct RuleSegment {
    /// Potentials this rule contributed (contiguous, in source order).
    pub(crate) pots: usize,
    /// Constraints this rule contributed.
    pub(crate) cons: usize,
    /// Complete binding → artifact (segment-relative indices).
    pub(crate) slots: FxHashMap<Vec<Sym>, TermSlot>,
    /// The rule's grounding statistics.
    pub(crate) stats: GroundStats,
}

/// Per-free-binding splice table of one arithmetic rule's grounding: the
/// binding keys in emission order plus the dependency edges from every
/// ground atom a binding's summation folds to the bindings it feeds.
/// Contributor atoms are interned so an atom shared by many bindings (the
/// common case — e.g. `inMap(c)` contributes to every target `c` covers)
/// is stored once.
#[derive(Clone, Default, Debug)]
pub(crate) struct ArithTable {
    /// Free variables in first-occurrence order (the key schema).
    pub(crate) free_vars: Vec<String>,
    /// Binding keys, in emission (enumeration) order.
    pub(crate) keys: Vec<Vec<Sym>>,
    /// Key → binding ordinal.
    key_index: FxHashMap<Vec<Sym>, u32>,
    /// Interned contributor atoms (id = position).
    atoms: Vec<GroundAtom>,
    /// Contributor atom → intern id.
    atom_ids: FxHashMap<GroundAtom, u32>,
    /// Atom id → binding ordinals whose summation folds it (ascending).
    deps: Vec<Vec<u32>>,
    /// Binding ordinal → contributor atom ids (kept so surviving bindings
    /// can carry their dependency edges through a pool-delta rebuild).
    binding_atoms: Vec<Vec<u32>>,
}

impl ArithTable {
    /// Empty table over the given free-variable schema.
    pub(crate) fn new(free_vars: Vec<String>) -> ArithTable {
        ArithTable {
            free_vars,
            ..ArithTable::default()
        }
    }

    /// Number of recorded bindings.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Append the next binding (emission order) and return its ordinal.
    pub(crate) fn begin_binding(&mut self, key: Vec<Sym>) -> u32 {
        let ordinal = self.keys.len() as u32;
        self.key_index.insert(key.clone(), ordinal);
        self.keys.push(key);
        self.binding_atoms.push(Vec::new());
        ordinal
    }

    /// Record one contributor atom of `ordinal`'s summation. Bindings must
    /// be recorded in ascending ordinal order (they are — both the full
    /// grounder and the pool-delta rebuild walk bindings in emission
    /// order), which keeps the dependency lists sorted and deduplicated.
    pub(crate) fn record_contributor(&mut self, ordinal: u32, atom: &GroundAtom) {
        let id = match self.atom_ids.get(atom) {
            Some(&id) => id,
            None => {
                let id = self.atoms.len() as u32;
                self.atoms.push(atom.clone());
                self.atom_ids.insert(atom.clone(), id);
                self.deps.push(Vec::new());
                id
            }
        };
        let deps = &mut self.deps[id as usize];
        // Ascending ordinal recording means this atom already belongs to
        // the current binding iff its last dependency is this ordinal —
        // one check dedups both lists.
        if deps.last() != Some(&ordinal) {
            deps.push(ordinal);
            self.binding_atoms[ordinal as usize].push(id);
        }
    }

    /// Ordinal of a binding key, if recorded.
    pub(crate) fn ordinal_of(&self, key: &[Sym]) -> Option<u32> {
        self.key_index.get(key).copied()
    }

    /// Ordinals of the bindings whose summations fold `atom`.
    pub(crate) fn bindings_of(&self, atom: &GroundAtom) -> &[u32] {
        self.atom_ids
            .get(atom)
            .map_or(&[], |&id| self.deps[id as usize].as_slice())
    }

    /// The contributor atoms of one binding.
    pub(crate) fn contributors_of(&self, ordinal: u32) -> impl Iterator<Item = &GroundAtom> {
        self.binding_atoms[ordinal as usize]
            .iter()
            .map(|&id| &self.atoms[id as usize])
    }
}

/// An arithmetic rule's contiguous slice of the term pool plus its
/// per-free-binding splice table and grounding statistics.
#[derive(Clone, Debug)]
pub(crate) struct ArithSegment {
    /// Potentials contributed.
    pub(crate) pots: usize,
    /// Constraints contributed.
    pub(crate) cons: usize,
    /// The rule's grounding statistics.
    pub(crate) stats: GroundStats,
    /// The per-binding splice table.
    pub(crate) table: ArithTable,
}

/// What one raw term contributed to the ground program.
#[derive(Clone, Copy, Debug)]
pub(crate) enum RawSlot {
    /// One weighted potential.
    Potential,
    /// One hard constraint.
    Constraint,
    /// A constant objective contribution.
    ConstLoss(f64),
}

/// Per-source segmentation of a ground program — everything
/// [`Program::reground`] needs to splice unchanged terms and patch dirty
/// ones. Recorded by the plan-compiled grounding paths; absent from
/// [`Program::ground_naive`] output.
#[derive(Clone, Default, Debug)]
pub(crate) struct SpliceSupport {
    /// One segment per logical rule, in declaration order.
    pub(crate) rules: Vec<RuleSegment>,
    /// One segment per arithmetic rule, in declaration order.
    pub(crate) arith: Vec<ArithSegment>,
    /// One slot per raw term, in declaration order.
    pub(crate) raw: Vec<RawSlot>,
}

/// Sentinel for "this term has no prior identity" in [`DualReuse`].
pub(crate) const NO_PRIOR: u32 = u32::MAX;

/// Term-identity map recorded by a reground: entry `i` holds the *prior*
/// program's index of the term now at position `i` (`NO_PRIOR` for terms
/// that were recomputed and therefore carry no prior identity). This is
/// what lets [`crate::GroundProgram::carry_duals`] transplant the scaled
/// duals of spliced-unchanged terms into the next warm solve.
#[derive(Clone, Default, Debug)]
pub(crate) struct DualReuse {
    /// New potential index → prior potential index (or `NO_PRIOR`).
    pub(crate) pots: Vec<u32>,
    /// New constraint index → prior constraint index (or `NO_PRIOR`).
    pub(crate) cons: Vec<u32>,
}

impl DualReuse {
    /// Record `count` terms spliced unchanged starting at `old_start`.
    fn splice(dst: &mut Vec<u32>, old_start: usize, count: usize) {
        dst.extend((old_start..old_start + count).map(|i| i as u32));
    }

    /// Record `count` freshly recomputed terms.
    fn fresh(dst: &mut Vec<u32>, count: usize) {
        dst.extend(std::iter::repeat_n(NO_PRIOR, count));
    }
}

/// Why an incremental reground refused to run (or failed while running).
///
/// `StateMismatch` is the **delta guard** speaking: the prior ground
/// program, the delta, and the current database do not describe one
/// consistent timeline, so splicing would silently produce a wrong
/// program. Callers on the degradation ladder respond with a fresh
/// [`crate::Program::ground`] (see `docs/robustness.md`).
#[derive(Clone, PartialEq, Debug)]
pub enum RegroundError {
    /// The guard rejected the prior/delta pair before any splicing.
    StateMismatch {
        /// Which invariant was violated, in human-readable form.
        reason: String,
    },
    /// The underlying (re-)grounding failed.
    Grounding(GroundingError),
}

impl std::fmt::Display for RegroundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegroundError::StateMismatch { reason } => {
                write!(f, "reground state mismatch: {reason}")
            }
            RegroundError::Grounding(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RegroundError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegroundError::StateMismatch { .. } => None,
            RegroundError::Grounding(e) => Some(e),
        }
    }
}

impl From<GroundingError> for RegroundError {
    fn from(e: GroundingError) -> RegroundError {
        RegroundError::Grounding(e)
    }
}

/// Shape-check a prior's splice support against its term pools before any
/// splicing: the segments must tile both pools exactly, and every recorded
/// slot ordinal must lie inside its segment. Returns the violated
/// invariant on failure.
fn validate_support(
    support: &SpliceSupport,
    num_pots: usize,
    num_cons: usize,
) -> Result<(), String> {
    let mut pots = 0usize;
    let mut cons = 0usize;
    for (i, seg) in support.rules.iter().enumerate() {
        for slot in seg.slots.values() {
            match *slot {
                TermSlot::Potential(p) if (p as usize) >= seg.pots => {
                    return Err(format!(
                        "rule segment {i}: potential ordinal {p} out of range \
                         (segment owns {})",
                        seg.pots
                    ));
                }
                TermSlot::Constraint(c) if (c as usize) >= seg.cons => {
                    return Err(format!(
                        "rule segment {i}: constraint ordinal {c} out of range \
                         (segment owns {})",
                        seg.cons
                    ));
                }
                _ => {}
            }
        }
        pots += seg.pots;
        cons += seg.cons;
    }
    for seg in &support.arith {
        pots += seg.pots;
        cons += seg.cons;
    }
    for slot in &support.raw {
        match slot {
            RawSlot::Potential => pots += 1,
            RawSlot::Constraint => cons += 1,
            RawSlot::ConstLoss(_) => {}
        }
    }
    if pots != num_pots {
        return Err(format!(
            "splice segments cover {pots} potentials but the prior holds {num_pots}"
        ));
    }
    if cons != num_cons {
        return Err(format!(
            "splice segments cover {cons} constraints but the prior holds {num_cons}"
        ));
    }
    Ok(())
}

/// Drop `dead` elements from `items`, returning the old → new index map
/// (entries for dropped elements are `u32::MAX`).
fn compact<T>(items: &mut Vec<T>, dead: &[bool]) -> Vec<u32> {
    let mut map = vec![u32::MAX; items.len()];
    let mut kept = 0u32;
    let mut i = 0usize;
    items.retain(|_| {
        let keep = !dead[i];
        if keep {
            map[i] = kept;
            kept += 1;
        }
        i += 1;
        keep
    });
    map
}

impl Program {
    /// Incrementally re-ground after the database mutations described by
    /// `delta`, splicing unchanged ground terms out of `prior` (see the
    /// [module docs](crate::delta) for the strategy).
    ///
    /// `prior` must be the grounding of this program against the database
    /// state *immediately before* the delta's mutations (i.e. the delta
    /// returned by [`crate::Database::take_delta`] spans exactly the
    /// writes since `prior` was produced). A **delta guard** verifies this
    /// before any splicing — the delta's generation span must start at the
    /// prior's snapshot, end at the current database state, come from the
    /// same database, and carry exactly one **raw** entry per generation
    /// step ([`DbDelta::raw_entries`]; the net entry list may be shorter
    /// because [`crate::Database::take_delta`] coalesces cancelling
    /// mutations — see the "Batched deltas" section of
    /// `docs/robustness.md`) — and rejects the call with
    /// [`RegroundError::StateMismatch`] otherwise (a stale, double-drained,
    /// foreign, or tampered delta would silently splice a wrong program).
    /// A batch whose raw mutations coalesced to nothing
    /// ([`DbDelta::is_net_empty`]) short-circuits: the prior program is
    /// returned re-stamped, without touching a single term. The result is
    /// equivalent to a fresh [`Program::ground`] up to term and variable
    /// order; if `prior` carries no splice support (naive grounding, or
    /// the program's rule list changed), a full grounding runs instead.
    pub fn reground(
        &self,
        prior: &GroundProgram,
        delta: &DbDelta,
    ) -> Result<GroundProgram, RegroundError> {
        self.reground_owned(prior.clone(), delta)
    }

    /// Consuming variant of [`Program::reground`]: unchanged segments are
    /// *moved* out of `prior` instead of cloned. This is the hot-path API
    /// for flip loops (no per-term allocation for reused terms).
    ///
    /// Pool deltas re-ground every dirty logical rule from scratch; those
    /// re-grounds are sharded across worker threads the way
    /// [`Program::ground`] shards a full grounding, with the same
    /// deterministic declaration-order merge — the result is identical for
    /// every thread count (see [`Program::reground_owned_with`]).
    pub fn reground_owned(
        &self,
        prior: GroundProgram,
        delta: &DbDelta,
    ) -> Result<GroundProgram, RegroundError> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.reground_owned_with(prior, delta, threads)
    }

    /// [`Program::reground_owned`] with an explicit worker-thread budget
    /// for the dirty-rule re-grounds of a pool delta. Value-only deltas
    /// never fan out (the seeded fast path is cheaper than a thread
    /// spawn), and neither does a pool delta with fewer than two dirty
    /// rules.
    pub fn reground_owned_with(
        &self,
        mut prior: GroundProgram,
        delta: &DbDelta,
        threads: usize,
    ) -> Result<GroundProgram, RegroundError> {
        let _span = cms_obs::span("reground");
        // Delta guard, stage 1: the timeline stamps. Runs before the
        // empty-delta early-out so even a dropped-to-empty delta is caught.
        if let Some((db_id, generation)) = prior.stamp {
            let mismatch = |reason: String| Err(RegroundError::StateMismatch { reason });
            if delta.db_id() != db_id {
                return mismatch(format!(
                    "delta from database {} but the prior was grounded against database {db_id}",
                    delta.db_id()
                ));
            }
            if self.db.id() != db_id {
                return mismatch(format!(
                    "prior was grounded against database {db_id} but this program holds \
                     database {}",
                    self.db.id()
                ));
            }
            if delta.base_generation() != generation {
                return mismatch(format!(
                    "delta starts at generation {} but the prior snapshot is at {generation} \
                     (stale, re-applied, or double-drained delta)",
                    delta.base_generation()
                ));
            }
            if delta.end_generation() != self.db.generation() {
                return mismatch(format!(
                    "delta ends at generation {} but the database is at {} \
                     (mutations after take_delta)",
                    delta.end_generation(),
                    self.db.generation()
                ));
            }
            if delta.end_generation().checked_sub(delta.base_generation())
                != Some(delta.raw_entries() as u64)
            {
                return mismatch(format!(
                    "delta carries {} raw entries for a generation span of {} \
                     (entries dropped or duplicated)",
                    delta.raw_entries(),
                    delta.end_generation() - delta.base_generation()
                ));
            }
        }
        if delta.is_empty() {
            return Ok(prior);
        }
        if delta.is_net_empty() && prior.stamp.is_some() {
            // Net-empty batch (every raw mutation cancelled — e.g. a→b→a
            // flips, add+retract pairs): the guard above proved the raw
            // count matches the generation span, so the database state is
            // *identical* to the prior snapshot and the prior program is
            // the correct grounding of it. Re-stamp it to the current
            // generation, give it an identity dual-reuse map (its old one
            // described the reground *before* it and must not leak into
            // the next dual carry), and normalise its per-rule stats to
            // "everything spliced, nothing recomputed".
            for stats in prior.rule_stats.values_mut() {
                stats.terms_reused = stats.potentials + stats.constraints;
                stats.terms_recomputed = 0;
                stats.candidates_probed = 0;
                stats.candidates_scanned = 0;
                stats.arith_bindings_spliced = 0;
                stats.entries_coalesced = 0;
                stats.sources_deduped = 0;
                stats.wall = std::time::Duration::ZERO;
            }
            if let Some(support) = prior.splice.as_ref() {
                let spliced: Vec<(String, usize)> = self
                    .arith_rules
                    .iter()
                    .zip(&support.arith)
                    .map(|(rule, seg)| (rule.name.clone(), seg.table.len()))
                    .collect();
                // Raw-term reuse accounting, mirroring the splice path: a
                // fresh ground records no raw-term stats, so rebuild them
                // from the recorded slots (every raw artifact reused).
                let mut raw_stats: FxHashMap<String, GroundStats> = FxHashMap::default();
                for (raw, slot) in self.raw_terms().iter().zip(&support.raw) {
                    let entry = raw_stats.entry(raw.origin().to_owned()).or_default();
                    match slot {
                        RawSlot::Potential => {
                            entry.potentials += 1;
                            entry.terms_reused += 1;
                        }
                        RawSlot::Constraint => {
                            entry.constraints += 1;
                            entry.terms_reused += 1;
                        }
                        RawSlot::ConstLoss(d) => entry.constant_loss += d,
                    }
                }
                for (name, bindings) in spliced {
                    if let Some(stats) = prior.rule_stats.get_mut(&name) {
                        stats.arith_bindings_spliced = bindings;
                    }
                }
                for (name, stats) in raw_stats {
                    prior.rule_stats.insert(name, stats);
                }
            }
            prior.rule_stats.insert(
                "delta-batch".to_owned(),
                GroundStats {
                    entries_coalesced: delta.raw_entries(),
                    ..GroundStats::default()
                },
            );
            prior.dual_reuse = Some(DualReuse {
                pots: (0..prior.potentials.len() as u32).collect(),
                cons: (0..prior.constraints.len() as u32).collect(),
            });
            prior.stamp = Some((self.db.id(), self.db.generation()));
            if cms_obs::enabled(cms_obs::ObsLevel::Stats) {
                let mut total = GroundStats::default();
                for s in prior.rule_stats.values() {
                    total.absorb(s);
                }
                total.record_reground();
                cms_obs::emit(cms_obs::Event::Reground {
                    rules: (self.rules.len() + self.arith_rules.len()) as u64,
                    stats: total,
                });
            }
            return Ok(prior);
        }
        // Fault-harness hook: corrupt one recorded slot ordinal so the
        // shape check below must refuse to splice.
        if crate::fault::take(crate::fault::Fault::CorruptSpliceOrdinal) {
            if let Some(support) = prior.splice.as_mut() {
                'corrupt: for seg in support.rules.iter_mut() {
                    for slot in seg.slots.values_mut() {
                        if let TermSlot::Potential(p) = slot {
                            *p = u32::MAX;
                            break 'corrupt;
                        }
                    }
                }
            }
        }
        let support = match prior.splice.take() {
            Some(s)
                if s.rules.len() == self.rules.len()
                    && s.arith.len() == self.arith_rules.len()
                    && s.raw.len() == self.raw_terms().len() =>
            {
                s
            }
            _ => return Ok(self.ground()?),
        };
        // Delta guard, stage 2: the splice tables must tile the prior term
        // pools with in-range ordinals, and the dual-reuse map (if any)
        // must align with them, or splicing would index garbage.
        validate_support(&support, prior.potentials.len(), prior.constraints.len())
            .map_err(|reason| RegroundError::StateMismatch { reason })?;
        if let Some(reuse) = &prior.dual_reuse {
            if reuse.pots.len() != prior.potentials.len()
                || reuse.cons.len() != prior.constraints.len()
            {
                return Err(RegroundError::StateMismatch {
                    reason: format!(
                        "dual-reuse map covers {}/{} terms but the prior holds {}/{}",
                        reuse.pots.len(),
                        reuse.cons.len(),
                        prior.potentials.len(),
                        prior.constraints.len()
                    ),
                });
            }
        }
        self.validate_rule_arities()?;
        self.db.ensure_index();

        let delta_preds = delta.preds();
        let delta_atoms = delta.atom_set();
        let pools_changed = delta.pools_changed();

        // Compile plans once: they provide both the dependency sets and
        // the seeded executor for the value-only fast path.
        let plans: Vec<JoinPlan> = self
            .rules
            .iter()
            .map(|r| JoinPlan::compile(r, &self.db))
            .collect();
        let deps = DependencyMap::from_plans(&plans);
        let mut dirty_rules = vec![false; self.rules.len()];
        for pred in &delta_preds {
            for &i in deps.dependents(*pred) {
                dirty_rules[i] = true;
            }
        }

        // Pool deltas re-ground every dirty logical rule from scratch —
        // shard those re-grounds across threads (each into a rule-local
        // registry/sink, exactly like `Program::ground`) and merge them in
        // declaration order below. Two-phase interning keeps the result
        // identical to the sequential shared-registry path at any thread
        // count.
        let mut preground: Vec<Option<Result<RuleGrounding, GroundingError>>> =
            (0..self.rules.len()).map(|_| None).collect();
        if pools_changed && threads >= 2 {
            let dirty_idx: Vec<usize> = (0..self.rules.len()).filter(|&i| dirty_rules[i]).collect();
            if dirty_idx.len() >= 2 {
                for (i, r) in dirty_idx
                    .iter()
                    .copied()
                    .zip(self.ground_rule_set_locally(&dirty_idx, threads))
                {
                    preground[i] = Some(r);
                }
            }
        }

        let mut registry = std::mem::take(&mut prior.registry);
        let mut pot_iter = prior.potentials.into_iter();
        let mut con_iter = prior.constraints.into_iter();

        let mut potentials: Vec<GroundPotential> = Vec::new();
        let mut constraints: Vec<GroundConstraint> = Vec::new();
        let mut rule_stats: FxHashMap<String, GroundStats> = FxHashMap::default();
        let mut constant_loss = 0.0;
        let mut new_support = SpliceSupport::default();
        // Term-identity bookkeeping: `old_pot`/`old_con` track how far into
        // the prior term pool the iterators have been consumed, so every
        // spliced term can record which prior index it came from.
        let mut reuse = DualReuse::default();
        let mut old_pot = 0usize;
        let mut old_con = 0usize;

        let rules_span = cms_obs::span("reground/rules");
        for (i, (rule, seg)) in self.rules.iter().zip(support.rules).enumerate() {
            if !dirty_rules[i] {
                // Clean: splice the whole segment unchanged.
                potentials.extend(pot_iter.by_ref().take(seg.pots));
                constraints.extend(con_iter.by_ref().take(seg.cons));
                DualReuse::splice(&mut reuse.pots, old_pot, seg.pots);
                DualReuse::splice(&mut reuse.cons, old_con, seg.cons);
                old_pot += seg.pots;
                old_con += seg.cons;
                let mut stats = seg.stats.clone();
                stats.terms_reused = seg.pots + seg.cons;
                stats.terms_recomputed = 0;
                stats.sources_deduped = 0;
                stats.entries_coalesced = 0;
                constant_loss += stats.constant_loss;
                rule_stats
                    .entry(rule.name.clone())
                    .or_default()
                    .absorb(&stats);
                new_support.rules.push(RuleSegment { stats, ..seg });
                continue;
            }
            if pools_changed {
                // Coarse path: pool membership moved under this rule —
                // discard its prior terms and re-ground it from scratch.
                // The re-ground runs once no matter how many batch entries
                // touched the rule; the extra entries count as deduped.
                pot_iter.by_ref().take(seg.pots).for_each(drop);
                con_iter.by_ref().take(seg.cons).for_each(drop);
                old_pot += seg.pots;
                old_con += seg.cons;
                let (sink, mut stats) = match preground[i].take() {
                    Some(rg) => {
                        // Parallel pre-ground: intern the rule-local
                        // registry into the shared one and remap, exactly
                        // like the `ground_with` merge.
                        let rg = rg?;
                        let map: Vec<usize> = rg
                            .registry
                            .atoms()
                            .iter()
                            .map(|a| registry.intern(a))
                            .collect();
                        let mut sink = rg.sink;
                        for p in &mut sink.potentials {
                            remap_expr(&mut p.expr, &map);
                        }
                        for c in &mut sink.constraints {
                            remap_expr(&mut c.expr, &map);
                        }
                        (sink, rg.stats)
                    }
                    None => {
                        let mut sink = GroundSink::default();
                        let stats = ground_rule(rule, &self.db, &mut registry, &mut sink)?;
                        (sink, stats)
                    }
                };
                let emit_preds: FxHashSet<PredId> = plans[i].emit_preds().collect();
                stats.sources_deduped = delta
                    .entries()
                    .iter()
                    .filter(|e| emit_preds.contains(&e.atom.pred))
                    .count()
                    .saturating_sub(1);
                DualReuse::fresh(&mut reuse.pots, sink.potentials.len());
                DualReuse::fresh(&mut reuse.cons, sink.constraints.len());
                stats.terms_recomputed = sink.potentials.len() + sink.constraints.len();
                constant_loss += stats.constant_loss;
                rule_stats
                    .entry(rule.name.clone())
                    .or_default()
                    .absorb(&stats);
                new_support.rules.push(RuleSegment {
                    pots: sink.potentials.len(),
                    cons: sink.constraints.len(),
                    slots: sink.slots,
                    stats,
                });
                potentials.extend(sink.potentials);
                constraints.extend(sink.constraints);
                continue;
            }
            // Value-only fast path: the substitution set is unchanged, so
            // recompute exactly the groundings that instantiate a mutated
            // atom, found by seeded plan execution.
            let start = Instant::now();
            let plan = &plans[i];
            let mut seg_pots: Vec<GroundPotential> = pot_iter.by_ref().take(seg.pots).collect();
            let mut seg_cons: Vec<GroundConstraint> = con_iter.by_ref().take(seg.cons).collect();
            let mut slots = seg.slots;
            let mut stats = seg.stats;

            let mut affected: FxHashSet<Vec<Sym>> = FxHashSet::default();
            {
                let guard = self.db.index();
                let idx = guard
                    .as_ref()
                    // Fault-harness hook: pretend the index vanished
                    // mid-reground (a forced invalidation).
                    .filter(|_| !crate::fault::take(crate::fault::Fault::InvalidateIndex))
                    .ok_or_else(|| GroundingError::IndexUnavailable {
                        rule: rule.name.clone(),
                    })?;
                let mut scratch = GroundStats::default();
                let mut deduped = 0usize;
                for entry in delta.entries() {
                    for lit_idx in 0..plan.num_emit_literals() {
                        let Some(seed) = plan.seed_binding(lit_idx, &entry.atom) else {
                            continue;
                        };
                        plan.execute_seeded(&self.db, idx, &seed, &mut scratch, |binding, _| {
                            let key: Vec<Sym> = binding
                                .iter()
                                .map(|s| s.expect("complete binding has no holes"))
                                .collect();
                            // A grounding reached by several batch entries
                            // (or several seed literals) re-emits once; the
                            // extra hits are the batch's deduped work.
                            if !affected.insert(key) {
                                deduped += 1;
                            }
                            Ok(())
                        })?;
                    }
                }
                // Work counters report *this* reground's probes, not a
                // running total across the flip chain (structure counters
                // — potentials/constraints/pruned/substitutions — keep
                // describing the current segment contents instead).
                stats.candidates_probed = scratch.candidates_probed;
                stats.candidates_scanned = scratch.candidates_scanned;
                stats.sources_deduped = deduped;
                stats.entries_coalesced = 0;
            }

            // Remove the affected groundings' prior artifacts.
            let mut dead_pot = vec![false; seg_pots.len()];
            let mut dead_con = vec![false; seg_cons.len()];
            for key in &affected {
                match slots.get(key) {
                    Some(TermSlot::Potential(p)) => {
                        dead_pot[*p as usize] = true;
                        stats.potentials = stats.potentials.saturating_sub(1);
                    }
                    Some(TermSlot::Constraint(c)) => {
                        dead_con[*c as usize] = true;
                        stats.constraints = stats.constraints.saturating_sub(1);
                    }
                    Some(TermSlot::ConstLoss(d)) => {
                        stats.constant_loss -= d;
                        stats.pruned = stats.pruned.saturating_sub(1);
                    }
                    Some(TermSlot::Pruned) => {
                        stats.pruned = stats.pruned.saturating_sub(1);
                    }
                    // Unreachable when `prior` matches the pre-delta
                    // database; tolerate and emit fresh below.
                    None => {}
                }
            }
            let pot_map = compact(&mut seg_pots, &dead_pot);
            let con_map = compact(&mut seg_cons, &dead_con);
            // Prior identity of the surviving (spliced) terms, for dual
            // carry-over: survivor at compacted position `new_rel` was the
            // prior program's term `old_* + old_rel`.
            let mut seg_pot_src = vec![NO_PRIOR; seg_pots.len()];
            for (old_rel, &new_rel) in pot_map.iter().enumerate() {
                if new_rel != u32::MAX {
                    seg_pot_src[new_rel as usize] = (old_pot + old_rel) as u32;
                }
            }
            let mut seg_con_src = vec![NO_PRIOR; seg_cons.len()];
            for (old_rel, &new_rel) in con_map.iter().enumerate() {
                if new_rel != u32::MAX {
                    seg_con_src[new_rel as usize] = (old_con + old_rel) as u32;
                }
            }
            old_pot += pot_map.len();
            old_con += con_map.len();
            for slot in slots.values_mut() {
                match slot {
                    TermSlot::Potential(p) if !dead_pot[*p as usize] => *p = pot_map[*p as usize],
                    TermSlot::Constraint(c) if !dead_con[*c as usize] => *c = con_map[*c as usize],
                    // Dead entries belong to affected bindings and are
                    // overwritten by the re-emission right below.
                    _ => {}
                }
            }

            // Re-emit the affected groundings against the current values.
            let mut mini = GroundSink::default();
            let mut mini_stats = GroundStats::default();
            for key in &affected {
                let binding: Vec<Option<Sym>> = key.iter().map(|&s| Some(s)).collect();
                emit(
                    rule,
                    plan,
                    &self.db,
                    &binding,
                    &mut registry,
                    &mut mini,
                    &mut mini_stats,
                )?;
            }
            let pot_off = seg_pots.len() as u32;
            let con_off = seg_cons.len() as u32;
            for (key, slot) in mini.slots {
                let shifted = match slot {
                    TermSlot::Potential(p) => TermSlot::Potential(p + pot_off),
                    TermSlot::Constraint(c) => TermSlot::Constraint(c + con_off),
                    other => other,
                };
                slots.insert(key, shifted);
            }
            stats.terms_reused = seg_pots.len() + seg_cons.len();
            stats.terms_recomputed = affected.len();
            stats.potentials += mini_stats.potentials;
            stats.constraints += mini_stats.constraints;
            stats.pruned += mini_stats.pruned;
            stats.constant_loss += mini_stats.constant_loss;
            stats.wall = start.elapsed();
            reuse.pots.extend_from_slice(&seg_pot_src);
            DualReuse::fresh(&mut reuse.pots, mini.potentials.len());
            reuse.cons.extend_from_slice(&seg_con_src);
            DualReuse::fresh(&mut reuse.cons, mini.constraints.len());
            seg_pots.extend(mini.potentials);
            seg_cons.extend(mini.constraints);

            constant_loss += stats.constant_loss;
            rule_stats
                .entry(rule.name.clone())
                .or_default()
                .absorb(&stats);
            new_support.rules.push(RuleSegment {
                pots: seg_pots.len(),
                cons: seg_cons.len(),
                slots,
                stats,
            });
            potentials.extend(seg_pots);
            constraints.extend(seg_cons);
        }

        drop(rules_span);
        // Arithmetic rules: per-free-binding granularity. The recorded
        // ArithTable maps every mutated atom to exactly the bindings whose
        // summations fold it; only those re-fold — untouched bindings
        // splice byte-identically and keep their dual identity.
        let arith_span = cms_obs::span("reground/arith");
        for (rule, seg) in self.arith_rules.iter().zip(support.arith) {
            let dirty = rule
                .terms
                .iter()
                .flat_map(|t| &t.atoms)
                .any(|a| delta_preds.contains(&a.pred));
            if !dirty {
                // Clean: splice the whole segment unchanged.
                potentials.extend(pot_iter.by_ref().take(seg.pots));
                constraints.extend(con_iter.by_ref().take(seg.cons));
                DualReuse::splice(&mut reuse.pots, old_pot, seg.pots);
                DualReuse::splice(&mut reuse.cons, old_con, seg.cons);
                old_pot += seg.pots;
                old_con += seg.cons;
                let mut stats = seg.stats.clone();
                stats.terms_reused = seg.pots + seg.cons;
                stats.terms_recomputed = 0;
                stats.arith_bindings_spliced = seg.table.len();
                stats.sources_deduped = 0;
                stats.entries_coalesced = 0;
                rule_stats
                    .entry(rule.name.clone())
                    .or_default()
                    .absorb(&stats);
                new_support.arith.push(ArithSegment { stats, ..seg });
                continue;
            }

            let start = Instant::now();
            let shape = arith_shape(rule).map_err(GroundingError::Arith)?;
            // A consistent table carries the rule's current key schema and
            // owns exactly `width` artifacts per binding; anything else (a
            // prior recorded under an older rule shape) falls back to a
            // wholesale re-ground.
            let consistent = seg.table.free_vars == shape.free_vars
                && seg.table.len() * shape.pot_width == seg.pots
                && seg.table.len() * shape.con_width == seg.cons;
            if !consistent {
                pot_iter.by_ref().take(seg.pots).for_each(drop);
                con_iter.by_ref().take(seg.cons).for_each(drop);
                old_pot += seg.pots;
                old_con += seg.cons;
                let p0 = potentials.len();
                let c0 = constraints.len();
                let (astats, table) = ground_arith_rule_recorded(
                    rule,
                    &self.db,
                    &mut registry,
                    &mut potentials,
                    &mut constraints,
                )?;
                let (pots, cons) = (potentials.len() - p0, constraints.len() - c0);
                DualReuse::fresh(&mut reuse.pots, pots);
                DualReuse::fresh(&mut reuse.cons, cons);
                let mut stats = GroundStats {
                    substitutions: astats.groundings,
                    potentials: pots,
                    constraints: cons,
                    terms_recomputed: pots + cons,
                    ..GroundStats::default()
                };
                stats.wall = start.elapsed();
                rule_stats
                    .entry(rule.name.clone())
                    .or_default()
                    .absorb(&stats);
                new_support.arith.push(ArithSegment {
                    pots,
                    cons,
                    stats,
                    table,
                });
                continue;
            }

            let (pw, cw) = (shape.pot_width, shape.con_width);
            let guard = self.db.index();
            let idx = guard
                .as_ref()
                // Fault-harness hook: forced mid-reground invalidation.
                .filter(|_| !crate::fault::take(crate::fault::Fault::InvalidateIndex))
                .ok_or_else(|| GroundingError::IndexUnavailable {
                    rule: rule.name.clone(),
                })?;
            let mut stats = GroundStats::default();

            if !pools_changed {
                // Value-only fast path: the free-binding set is provably
                // unchanged, so re-fold exactly the bindings the mutated
                // atoms contribute to, in place.
                let mut affected: FxHashSet<u32> = FxHashSet::default();
                for entry in delta.entries() {
                    for &b in seg.table.bindings_of(&entry.atom) {
                        // A free binding fed by several batch entries
                        // re-folds its summation exactly once.
                        if !affected.insert(b) {
                            stats.sources_deduped += 1;
                        }
                    }
                }
                let mut pot_src = pot_iter.by_ref().take(seg.pots);
                let mut con_src = con_iter.by_ref().take(seg.cons);
                for b in 0..seg.table.len() as u32 {
                    if affected.contains(&b) {
                        for _ in 0..pw {
                            pot_src.next();
                        }
                        for _ in 0..cw {
                            con_src.next();
                        }
                        fold_free_binding(
                            rule,
                            &shape,
                            &seg.table.keys[b as usize],
                            &self.db,
                            Some(idx),
                            &mut registry,
                            &mut potentials,
                            &mut constraints,
                            None,
                        )
                        .map_err(GroundingError::Arith)?;
                        DualReuse::fresh(&mut reuse.pots, pw);
                        DualReuse::fresh(&mut reuse.cons, cw);
                        stats.terms_recomputed += pw + cw;
                    } else {
                        for k in 0..pw {
                            potentials.push(pot_src.next().expect("spliced arith potential"));
                            reuse.pots.push((old_pot + b as usize * pw + k) as u32);
                        }
                        for k in 0..cw {
                            constraints.push(con_src.next().expect("spliced arith constraint"));
                            reuse.cons.push((old_con + b as usize * cw + k) as u32);
                        }
                        stats.terms_reused += pw + cw;
                        stats.arith_bindings_spliced += 1;
                    }
                }
                old_pot += seg.pots;
                old_con += seg.cons;
                stats.substitutions = seg.table.len();
                stats.potentials = seg.pots;
                stats.constraints = seg.cons;
                stats.wall = start.elapsed();
                rule_stats
                    .entry(rule.name.clone())
                    .or_default()
                    .absorb(&stats);
                new_support.arith.push(ArithSegment {
                    pots: seg.pots,
                    cons: seg.cons,
                    stats: stats.clone(),
                    table: seg.table,
                });
                continue;
            }

            // Pool delta: re-enumerate the free bindings and diff against
            // the table. New bindings ground fresh, vanished ones compact
            // out, surviving ones splice unless a mutated atom touches
            // their summation.
            let mut prior_pots: Vec<Option<GroundPotential>> =
                pot_iter.by_ref().take(seg.pots).map(Some).collect();
            let mut prior_cons: Vec<Option<GroundConstraint>> =
                con_iter.by_ref().take(seg.cons).map(Some).collect();
            let new_keys = enumerate_free_bindings(rule, &shape, &self.db, Some(idx));

            // Which prior bindings did the delta touch? Changed/Removed
            // atoms were contributors before (exact lookup); an Added atom
            // can only enter bindings whose keys agree with the free
            // variables some pattern instantiation of it binds.
            let mut touched: FxHashSet<u32> = FxHashSet::default();
            let mut touch_all = false;
            let mut added_masks: Vec<Vec<(usize, Sym)>> = Vec::new();
            for entry in delta.entries() {
                match entry.kind {
                    DeltaKind::Changed { .. } | DeltaKind::Removed => {
                        for &b in seg.table.bindings_of(&entry.atom) {
                            // Same dedup as the value-only path: a binding
                            // touched by N batch entries re-folds once.
                            if !touched.insert(b) {
                                stats.sources_deduped += 1;
                            }
                        }
                    }
                    DeltaKind::Added => {
                        for pattern in rule.terms.iter().flat_map(|t| &t.atoms) {
                            match free_var_mask(pattern, &entry.atom, &shape.free_vars) {
                                Some(mask) if mask.is_empty() => touch_all = true,
                                Some(mask) => added_masks.push(mask),
                                None => {}
                            }
                        }
                    }
                }
            }

            let mut table = ArithTable::new(shape.free_vars.clone());
            let mut contributors: Vec<GroundAtom> = Vec::new();
            for key in new_keys {
                let splice_from = seg.table.ordinal_of(&key).filter(|po| {
                    !touch_all
                        && !touched.contains(po)
                        && !added_masks
                            .iter()
                            .any(|m| m.iter().all(|&(i, s)| key[i] == s))
                });
                match splice_from {
                    Some(po) => {
                        for k in 0..pw {
                            let src = po as usize * pw + k;
                            potentials.push(
                                prior_pots[src]
                                    .take()
                                    .expect("arith potential spliced once"),
                            );
                            reuse.pots.push((old_pot + src) as u32);
                        }
                        for k in 0..cw {
                            let src = po as usize * cw + k;
                            constraints.push(
                                prior_cons[src]
                                    .take()
                                    .expect("arith constraint spliced once"),
                            );
                            reuse.cons.push((old_con + src) as u32);
                        }
                        let ordinal = table.begin_binding(key);
                        for atom in seg.table.contributors_of(po) {
                            table.record_contributor(ordinal, atom);
                        }
                        stats.terms_reused += pw + cw;
                        stats.arith_bindings_spliced += 1;
                    }
                    None => {
                        contributors.clear();
                        fold_free_binding(
                            rule,
                            &shape,
                            &key,
                            &self.db,
                            Some(idx),
                            &mut registry,
                            &mut potentials,
                            &mut constraints,
                            Some(&mut contributors),
                        )
                        .map_err(GroundingError::Arith)?;
                        DualReuse::fresh(&mut reuse.pots, pw);
                        DualReuse::fresh(&mut reuse.cons, cw);
                        let ordinal = table.begin_binding(key);
                        for atom in &contributors {
                            table.record_contributor(ordinal, atom);
                        }
                        stats.terms_recomputed += pw + cw;
                    }
                }
            }
            old_pot += seg.pots;
            old_con += seg.cons;
            let (pots, cons) = (table.len() * pw, table.len() * cw);
            stats.substitutions = table.len();
            stats.potentials = pots;
            stats.constraints = cons;
            stats.wall = start.elapsed();
            rule_stats
                .entry(rule.name.clone())
                .or_default()
                .absorb(&stats);
            new_support.arith.push(ArithSegment {
                pots,
                cons,
                stats,
                table,
            });
        }

        drop(arith_span);
        // Raw terms are ground: dirtiness is exact atom equality.
        let _raw_span = cms_obs::span("reground/raw");
        for (raw, slot) in self.raw_terms().iter().zip(support.raw) {
            let mut stats = GroundStats::default();
            let dirty = raw.atoms().any(|a| delta_atoms.contains(a));
            if dirty {
                match slot {
                    RawSlot::Potential => {
                        drop(pot_iter.next());
                        old_pot += 1;
                    }
                    RawSlot::Constraint => {
                        drop(con_iter.next());
                        old_con += 1;
                    }
                    RawSlot::ConstLoss(_) => {}
                }
                stats.terms_recomputed = 1;
                match self.raw_artifact(raw, &mut registry) {
                    RawArtifact::Potential(p) => {
                        stats.potentials += 1;
                        potentials.push(p);
                        reuse.pots.push(NO_PRIOR);
                        new_support.raw.push(RawSlot::Potential);
                    }
                    RawArtifact::Constraint(c) => {
                        stats.constraints += 1;
                        constraints.push(c);
                        reuse.cons.push(NO_PRIOR);
                        new_support.raw.push(RawSlot::Constraint);
                    }
                    RawArtifact::ConstLoss(d) => {
                        stats.constant_loss += d;
                        stats.pruned += 1;
                        constant_loss += d;
                        new_support.raw.push(RawSlot::ConstLoss(d));
                    }
                }
            } else {
                stats.terms_reused = 1;
                match slot {
                    RawSlot::Potential => {
                        stats.potentials += 1;
                        potentials.push(pot_iter.next().expect("reused raw potential present"));
                        reuse.pots.push(old_pot as u32);
                        old_pot += 1;
                    }
                    RawSlot::Constraint => {
                        stats.constraints += 1;
                        constraints.push(con_iter.next().expect("reused raw constraint present"));
                        reuse.cons.push(old_con as u32);
                        old_con += 1;
                    }
                    RawSlot::ConstLoss(d) => {
                        stats.constant_loss += d;
                        constant_loss += d;
                    }
                }
                new_support.raw.push(slot);
            }
            rule_stats
                .entry(raw.origin().to_owned())
                .or_default()
                .absorb(&stats);
        }

        debug_assert!(pot_iter.next().is_none(), "prior potentials fully consumed");
        debug_assert!(
            con_iter.next().is_none(),
            "prior constraints fully consumed"
        );
        debug_assert_eq!(reuse.pots.len(), potentials.len());
        debug_assert_eq!(reuse.cons.len(), constraints.len());

        // Delta-wide batch accounting under a synthetic rule entry: how
        // many raw mutations the drain coalesced away before this reground
        // ever saw them.
        rule_stats.insert(
            "delta-batch".to_owned(),
            GroundStats {
                entries_coalesced: delta.raw_entries().saturating_sub(delta.len()),
                ..GroundStats::default()
            },
        );

        if cms_obs::enabled(cms_obs::ObsLevel::Stats) {
            let mut total = GroundStats::default();
            for s in rule_stats.values() {
                total.absorb(s);
            }
            total.record_reground();
            cms_obs::emit(cms_obs::Event::Reground {
                rules: (self.rules.len() + self.arith_rules.len()) as u64,
                stats: total,
            });
        }
        Ok(GroundProgram {
            registry,
            potentials,
            constraints,
            constant_loss,
            rule_stats,
            splice: Some(new_support),
            dual_reuse: Some(reuse),
            // The guard proved delta.end == db.generation(), so the result
            // is a snapshot of the current database state.
            stamp: Some((self.db.id(), self.db.generation())),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::ArithRuleBuilder;
    use crate::hinge::ConstraintKind;
    use crate::predicate::Vocabulary;
    use crate::program::AtomLin;
    use crate::rule::{rvar, RAtom, RTerm, RuleBuilder};
    use crate::AdmmConfig;

    /// A program exercising every source kind: a two-literal join rule, a
    /// single-literal rule, an arithmetic cap, and raw terms — all over a
    /// `covers`/`inMap`(observed)/`explained` shape.
    fn eval_program() -> Program {
        let mut vocab = Vocabulary::new();
        let covers = vocab.closed("covers", 2);
        let in_map = vocab.closed("inMap", 1);
        let scope = vocab.closed("scope", 1);
        let explained = vocab.open("explained", 1);
        let mut program = Program::new(vocab);
        for t in 0..4 {
            let tn = format!("t{t}");
            program
                .db
                .observe(GroundAtom::from_strs(scope, &[&tn]), 1.0);
            program.db.target(GroundAtom::from_strs(explained, &[&tn]));
        }
        for c in 0..3 {
            let cn = format!("c{c}");
            program
                .db
                .observe(GroundAtom::from_strs(in_map, &[&cn]), 0.0);
            for t in 0..4 {
                if (c + t) % 2 == 0 {
                    program.db.observe(
                        GroundAtom::from_strs(covers, &[&cn, &format!("t{t}")]),
                        0.5 + 0.1 * t as f64,
                    );
                }
            }
            // Raw size prior on the observed inMap atom (folds to a
            // constant loss that must track flips).
            let mut lin = AtomLin::new();
            lin.add(GroundAtom::from_strs(in_map, &[&cn]), 1.0);
            program.add_raw_potential(lin, 0.25, false, "size-prior");
        }
        program.add_rule(
            RuleBuilder::new("explain-reward")
                .body(scope, vec![rvar("T")])
                .head(explained, vec![rvar("T")])
                .weight(1.0)
                .build(),
        );
        // Hard join rule: covers(C,T) ∧ inMap(C) → explained(T). Flipping
        // one inMap value moves its groundings between pruned and live.
        program.add_rule(
            RuleBuilder::new("cover-implies")
                .body(covers, vec![rvar("C"), rvar("T")])
                .body(in_map, vec![rvar("C")])
                .head(explained, vec![rvar("T")])
                .build(),
        );
        // Arithmetic cap with a summation over the join.
        program.add_arith_rule(
            ArithRuleBuilder::new("explain-cap")
                .term(
                    1.0,
                    vec![RAtom {
                        pred: explained,
                        args: vec![RTerm::Var("T".into())],
                    }],
                )
                .term(
                    -1.0,
                    vec![
                        RAtom {
                            pred: covers,
                            args: vec![RTerm::Var("C".into()), RTerm::Var("T".into())],
                        },
                        RAtom {
                            pred: in_map,
                            args: vec![RTerm::Var("C".into())],
                        },
                    ],
                )
                .sum_over("C")
                .build()
                .expect("explain-cap rule is valid"),
        );
        // A raw constraint that never touches inMap (must always splice).
        let mut lin = AtomLin::new();
        lin.add(GroundAtom::from_strs(explained, &["t0"]), 1.0);
        lin.add_constant(-1.0);
        program.add_raw_constraint(lin, ConstraintKind::LeqZero, "cap-t0");
        program
    }

    fn assert_equivalent(label: &str, incremental: &GroundProgram, fresh: &GroundProgram) {
        assert_eq!(
            incremental.canonical_terms(),
            fresh.canonical_terms(),
            "{label}: ground terms diverged"
        );
        assert!(
            (incremental.constant_loss - fresh.constant_loss).abs() < 1e-9,
            "{label}: constant loss {} vs {}",
            incremental.constant_loss,
            fresh.constant_loss
        );
    }

    #[test]
    fn value_flip_fast_path_matches_fresh_ground() {
        let mut program = eval_program();
        let prior = program.ground().unwrap();
        let _ = program.db.take_delta();
        let in_map = program.vocab.id_of("inMap").unwrap();

        // Flip c1 into the selection.
        program
            .db
            .observe(GroundAtom::from_strs(in_map, &["c1"]), 1.0);
        let delta = program.db.take_delta();
        assert!(!delta.pools_changed());
        let incremental = program.reground(&prior, &delta).unwrap();
        let fresh = program.ground().unwrap();
        assert_equivalent("flip c1 on", &incremental, &fresh);

        let total = incremental.total_stats();
        assert!(total.terms_reused > 0, "{total:?}");
        assert!(total.terms_recomputed > 0, "{total:?}");
        // The untouched single-literal rule must be spliced wholesale.
        assert_eq!(
            incremental.rule_stats["explain-reward"].terms_recomputed, 0,
            "clean rule was recomputed"
        );

        // Flip it back off: the chain of regrounds stays equivalent.
        program
            .db
            .observe(GroundAtom::from_strs(in_map, &["c1"]), 0.0);
        let delta = program.db.take_delta();
        let back = program.reground_owned(incremental, &delta).unwrap();
        let fresh = program.ground().unwrap();
        assert_equivalent("flip c1 back off", &back, &fresh);
    }

    #[test]
    fn unchanged_write_regrounds_to_identity() {
        let mut program = eval_program();
        let prior = program.ground().unwrap();
        let _ = program.db.take_delta();
        let in_map = program.vocab.id_of("inMap").unwrap();
        program
            .db
            .observe(GroundAtom::from_strs(in_map, &["c0"]), 0.0); // same value
        let delta = program.db.take_delta();
        assert!(delta.is_empty(), "no-op writes must not emit deltas");
        let same = program.reground(&prior, &delta).unwrap();
        assert_eq!(same.canonical_terms(), prior.canonical_terms());
    }

    #[test]
    fn added_and_retracted_atoms_take_the_coarse_path() {
        let mut program = eval_program();
        let prior = program.ground().unwrap();
        let _ = program.db.take_delta();
        let covers = program.vocab.id_of("covers").unwrap();

        // Add a brand-new covers atom (new join candidate).
        program
            .db
            .observe(GroundAtom::from_strs(covers, &["c2", "t1"]), 0.9);
        let delta = program.db.take_delta();
        assert!(delta.pools_changed());
        let incremental = program.reground(&prior, &delta).unwrap();
        let fresh = program.ground().unwrap();
        assert_equivalent("added covers atom", &incremental, &fresh);

        // Retract one again.
        assert!(program
            .db
            .retract(&GroundAtom::from_strs(covers, &["c0", "t0"])));
        let delta = program.db.take_delta();
        let incremental = program.reground_owned(incremental, &delta).unwrap();
        let fresh = program.ground().unwrap();
        assert_equivalent("retracted covers atom", &incremental, &fresh);
    }

    #[test]
    fn warm_solve_matches_cold_solve_after_flip() {
        let mut program = eval_program();
        let prior = program.ground().unwrap();
        let cold0 = prior.solve(&AdmmConfig::default());
        let _ = program.db.take_delta();
        let in_map = program.vocab.id_of("inMap").unwrap();
        program
            .db
            .observe(GroundAtom::from_strs(in_map, &["c0"]), 1.0);
        let delta = program.db.take_delta();
        let ground = program.reground(&prior, &delta).unwrap();
        let warm = ground.solve_warm(&AdmmConfig::default(), &cold0.admm.values);
        let cold = ground.solve(&AdmmConfig::default());
        assert!(warm.admm.converged);
        assert!(
            (warm.total_objective() - cold.total_objective()).abs() < 1e-3,
            "warm {} vs cold {}",
            warm.total_objective(),
            cold.total_objective()
        );
        assert!(warm.admm.max_violation < 1e-3);
    }

    #[test]
    fn naive_prior_falls_back_to_full_ground() {
        let mut program = eval_program();
        let prior = program.ground_naive().unwrap();
        let _ = program.db.take_delta();
        let in_map = program.vocab.id_of("inMap").unwrap();
        program
            .db
            .observe(GroundAtom::from_strs(in_map, &["c0"]), 1.0);
        let delta = program.db.take_delta();
        let incremental = program.reground(&prior, &delta).unwrap();
        let fresh = program.ground().unwrap();
        assert_equivalent("naive fallback", &incremental, &fresh);
    }

    fn flip_in_map(program: &mut Program, cand: &str, value: f64) -> DbDelta {
        let in_map = program.vocab.id_of("inMap").unwrap();
        program
            .db
            .observe(GroundAtom::from_strs(in_map, &[cand]), value);
        program.db.take_delta()
    }

    fn expect_mismatch(result: Result<GroundProgram, RegroundError>, needle: &str) {
        match result {
            Err(RegroundError::StateMismatch { reason }) => {
                assert!(
                    reason.contains(needle),
                    "reason {reason:?} lacks {needle:?}"
                );
            }
            Ok(_) => panic!("guard must reject (expected {needle:?})"),
            Err(other) => panic!("wrong error {other:?} (expected {needle:?})"),
        }
    }

    #[test]
    fn double_drained_delta_is_rejected() {
        let mut program = eval_program();
        let prior = program.ground().unwrap();
        let _ = program.db.take_delta();
        let real = flip_in_map(&mut program, "c1", 1.0);
        // The second drain is empty and spans nothing — applying it in
        // place of the real delta must be refused, not silently spliced.
        let drained_again = program.db.take_delta();
        expect_mismatch(program.reground(&prior, &drained_again), "double-drained");
        // The real delta still applies.
        let ok = program.reground(&prior, &real).unwrap();
        assert_equivalent("real delta", &ok, &program.ground().unwrap());
    }

    #[test]
    fn reapplied_delta_is_rejected() {
        let mut program = eval_program();
        let prior = program.ground().unwrap();
        let _ = program.db.take_delta();
        let delta = flip_in_map(&mut program, "c1", 1.0);
        let next = program.reground(&prior, &delta).unwrap();
        // Applying the same delta against its own result describes a
        // timeline that never happened.
        expect_mismatch(program.reground(&next, &delta), "generation");
    }

    #[test]
    fn delta_from_a_different_database_is_rejected() {
        let mut program = eval_program();
        let prior = program.ground().unwrap();
        let _ = program.db.take_delta();
        // An identically-built program still holds a *different* database
        // (every `Database` gets a fresh id): its deltas — even with the
        // same generation numbers — must not validate against the
        // original's ground program.
        let mut other = eval_program();
        let _ = other.ground().unwrap();
        let _ = other.db.take_delta();
        let foreign = flip_in_map(&mut other, "c1", 1.0);
        expect_mismatch(program.reground(&prior, &foreign), "database");
    }

    #[test]
    fn mutation_after_take_delta_is_rejected() {
        let mut program = eval_program();
        let prior = program.ground().unwrap();
        let _ = program.db.take_delta();
        let delta = flip_in_map(&mut program, "c1", 1.0);
        // Mutate again *after* draining: the delta no longer reaches the
        // database's current state.
        let in_map = program.vocab.id_of("inMap").unwrap();
        program
            .db
            .observe(GroundAtom::from_strs(in_map, &["c2"]), 1.0);
        expect_mismatch(program.reground(&prior, &delta), "mutations after");
    }

    #[test]
    fn dropped_and_duplicated_delta_entries_are_rejected() {
        for fault in [
            crate::fault::Fault::DropDeltaEntry,
            crate::fault::Fault::DuplicateDeltaEntry,
        ] {
            let mut program = eval_program();
            let prior = program.ground().unwrap();
            let _ = program.db.take_delta();
            crate::fault::arm(fault);
            let delta = flip_in_map(&mut program, "c1", 1.0);
            assert_eq!(crate::fault::armed(), None, "{fault:?} consumed");
            expect_mismatch(program.reground(&prior, &delta), "entries");
            // Recovery: a fresh ground sees the mutated database directly.
            let fresh = program.ground().unwrap();
            let mut clean = eval_program();
            let in_map = clean.vocab.id_of("inMap").unwrap();
            clean
                .db
                .observe(GroundAtom::from_strs(in_map, &["c1"]), 1.0);
            assert_equivalent(
                "fresh ground after tampered delta",
                &fresh,
                &clean.ground().unwrap(),
            );
        }
    }

    #[test]
    fn corrupted_splice_ordinal_is_rejected_before_splicing() {
        let mut program = eval_program();
        let prior = program.ground().unwrap();
        let _ = program.db.take_delta();
        let delta = flip_in_map(&mut program, "c1", 1.0);
        crate::fault::arm(crate::fault::Fault::CorruptSpliceOrdinal);
        expect_mismatch(program.reground(&prior, &delta), "out of range");
        assert_eq!(crate::fault::armed(), None);
        // One-shot: the retry against the same prior and delta succeeds.
        let ok = program.reground(&prior, &delta).unwrap();
        assert_equivalent("retry after corruption", &ok, &program.ground().unwrap());
    }

    #[test]
    fn forced_index_invalidation_surfaces_as_grounding_error() {
        let mut program = eval_program();
        let prior = program.ground().unwrap();
        let _ = program.db.take_delta();
        let delta = flip_in_map(&mut program, "c1", 1.0);
        crate::fault::arm(crate::fault::Fault::InvalidateIndex);
        match program.reground(&prior, &delta) {
            Err(RegroundError::Grounding(GroundingError::IndexUnavailable { .. })) => {}
            other => panic!("expected IndexUnavailable, got {other:?}"),
        }
        // One-shot: recovery (here, the retried reground) runs clean.
        let ok = program.reground(&prior, &delta).unwrap();
        assert_equivalent("retry after invalidation", &ok, &program.ground().unwrap());
    }

    #[test]
    fn coalesce_folds_to_net_effect_in_first_appearance_order() {
        let a = GroundAtom::from_strs(PredId(0), &["a"]);
        let b = GroundAtom::from_strs(PredId(0), &["b"]);
        let c = GroundAtom::from_strs(PredId(0), &["c"]);
        let entry = |atom: &GroundAtom, kind| DeltaEntry {
            atom: atom.clone(),
            kind,
        };
        // a: Added + Changed + Removed cancels entirely; b: a Changed
        // chain folds old→final; c: Changed + Removed folds to Removed.
        let raw = vec![
            entry(&a, DeltaKind::Added),
            entry(&b, DeltaKind::Changed { old: 0.1, new: 0.2 }),
            entry(&a, DeltaKind::Changed { old: 0.5, new: 0.9 }),
            entry(&c, DeltaKind::Changed { old: 0.3, new: 0.4 }),
            entry(&b, DeltaKind::Changed { old: 0.2, new: 0.7 }),
            entry(&a, DeltaKind::Removed),
            entry(&c, DeltaKind::Removed),
        ];
        let net = coalesce(raw);
        assert_eq!(net.len(), 2);
        // b appeared before c in the raw log, so it emits first.
        assert_eq!(net[0].atom, b);
        assert!(matches!(
            net[0].kind,
            DeltaKind::Changed { old, new }
                if (old - 0.1).abs() < 1e-12 && (new - 0.7).abs() < 1e-12
        ));
        assert_eq!(net[1].atom, c);
        assert!(matches!(net[1].kind, DeltaKind::Removed));
    }

    #[test]
    fn coalesce_keeps_removed_added_as_a_pool_pair() {
        let a = GroundAtom::from_strs(PredId(0), &["a"]);
        let raw = vec![
            DeltaEntry {
                atom: a.clone(),
                kind: DeltaKind::Removed,
            },
            DeltaEntry {
                atom: a.clone(),
                kind: DeltaKind::Added,
            },
            DeltaEntry {
                atom: a.clone(),
                kind: DeltaKind::Changed { old: 0.2, new: 0.6 },
            },
        ];
        // Remove + re-add shifted pool positions, so it must stay a pool
        // delta (two entries); the trailing value write folds into it.
        let net = coalesce(raw);
        assert_eq!(net.len(), 2);
        assert!(matches!(net[0].kind, DeltaKind::Removed));
        assert!(matches!(net[1].kind, DeltaKind::Added));
    }

    #[test]
    fn batched_mutations_reground_in_one_pass() {
        let mut program = eval_program();
        let prior = program.ground().unwrap();
        let _ = program.db.take_delta();
        let in_map = program.vocab.id_of("inMap").unwrap();
        let covers = program.vocab.id_of("covers").unwrap();

        // One drained window carrying value flips on two candidates, a
        // cancelled pair on a third, a new covers atom, and a retraction.
        program
            .db
            .observe(GroundAtom::from_strs(in_map, &["c0"]), 1.0);
        program
            .db
            .observe(GroundAtom::from_strs(in_map, &["c1"]), 1.0);
        program
            .db
            .observe(GroundAtom::from_strs(in_map, &["c2"]), 1.0);
        program
            .db
            .observe(GroundAtom::from_strs(in_map, &["c2"]), 0.0);
        program
            .db
            .observe(GroundAtom::from_strs(covers, &["c2", "t1"]), 0.9);
        assert!(program
            .db
            .retract(&GroundAtom::from_strs(covers, &["c0", "t0"])));
        let delta = program.db.take_delta();
        assert_eq!(delta.raw_entries(), 6);
        assert_eq!(delta.len(), 4, "the c2 round-trip coalesced away");
        let incremental = program.reground(&prior, &delta).unwrap();
        let fresh = program.ground().unwrap();
        assert_equivalent("mixed batch", &incremental, &fresh);
        let batch = &incremental.rule_stats["delta-batch"];
        assert_eq!(batch.entries_coalesced, 2);
    }

    #[test]
    fn value_batch_dedupes_shared_seeded_work() {
        let mut program = eval_program();
        let prior = program.ground().unwrap();
        let _ = program.db.take_delta();
        let in_map = program.vocab.id_of("inMap").unwrap();
        let covers = program.vocab.id_of("covers").unwrap();

        // Two value writes feeding the same join source: the covers edge
        // and the inMap flip both seed cover-implies groundings for c0,
        // and the shared (c0,t0) grounding must recompute exactly once.
        program
            .db
            .observe(GroundAtom::from_strs(in_map, &["c0"]), 1.0);
        program
            .db
            .observe(GroundAtom::from_strs(covers, &["c0", "t0"]), 0.8);
        let delta = program.db.take_delta();
        assert!(!delta.pools_changed());
        assert_eq!(delta.len(), 2);
        let incremental = program.reground(&prior, &delta).unwrap();
        let fresh = program.ground().unwrap();
        assert_equivalent("overlapping value batch", &incremental, &fresh);
        let total = incremental.total_stats();
        assert!(
            total.sources_deduped > 0,
            "overlapping seeds must dedup: {total:?}"
        );
    }

    #[test]
    fn net_empty_batch_short_circuits_to_the_prior() {
        let mut program = eval_program();
        let prior = program.ground().unwrap();
        let _ = program.db.take_delta();
        let in_map = program.vocab.id_of("inMap").unwrap();

        // a→b→a on one atom plus add+retract of another: net-empty.
        program
            .db
            .observe(GroundAtom::from_strs(in_map, &["c0"]), 1.0);
        program
            .db
            .observe(GroundAtom::from_strs(in_map, &["c0"]), 0.0);
        let covers = program.vocab.id_of("covers").unwrap();
        let extra = GroundAtom::from_strs(covers, &["c2", "t3"]);
        program.db.observe(extra.clone(), 0.9);
        assert!(program.db.retract(&extra));
        let delta = program.db.take_delta();
        assert!(delta.is_net_empty());
        assert!(!delta.is_empty());
        assert_eq!(delta.raw_entries(), 4);

        let same = program.reground(&prior, &delta).unwrap();
        assert_equivalent("net-empty batch", &same, &prior);
        let total = same.total_stats();
        assert_eq!(total.terms_recomputed, 0, "{total:?}");
        assert_eq!(total.entries_coalesced, 4, "{total:?}");
        assert_eq!(
            total.terms_reused,
            prior.potentials.len() + prior.constraints.len(),
            "every term must be reported as reused"
        );

        // The short-circuit restamped: the *next* real delta chains.
        program
            .db
            .observe(GroundAtom::from_strs(in_map, &["c1"]), 1.0);
        let next = program.db.take_delta();
        let chained = program.reground_owned(same, &next).unwrap();
        assert_equivalent("chained after no-op", &chained, &program.ground().unwrap());
    }

    #[test]
    fn net_empty_short_circuit_preserves_warm_duals() {
        let mut program = eval_program();
        let prior = program.ground().unwrap();
        let (_, duals) = prior.solve_warm_dual(&AdmmConfig::default(), &[], None);
        let _ = program.db.take_delta();
        let in_map = program.vocab.id_of("inMap").unwrap();
        program
            .db
            .observe(GroundAtom::from_strs(in_map, &["c0"]), 1.0);
        program
            .db
            .observe(GroundAtom::from_strs(in_map, &["c0"]), 0.0);
        let delta = program.db.take_delta();
        assert!(delta.is_net_empty());
        let same = program.reground(&prior, &delta).unwrap();
        // The identity dual-reuse map must carry every prior dual through
        // bit-for-bit.
        let carried = same
            .carry_duals(&duals)
            .expect("net-empty reground records a dual-reuse map");
        assert_eq!(carried.potential_duals(), duals.potential_duals());
        assert_eq!(carried.constraint_duals(), duals.constraint_duals());
    }

    #[test]
    fn parallel_reground_is_deterministic() {
        let mut program = eval_program();
        let prior = program.ground().unwrap();
        let prior2 = prior.clone();
        let _ = program.db.take_delta();
        let covers = program.vocab.id_of("covers").unwrap();
        let scope = program.vocab.id_of("scope").unwrap();
        let explained = program.vocab.id_of("explained").unwrap();

        // Pool mutations dirtying several rules at once, so the parallel
        // shard path actually engages.
        program
            .db
            .observe(GroundAtom::from_strs(covers, &["c2", "t1"]), 0.9);
        program
            .db
            .observe(GroundAtom::from_strs(scope, &["t4"]), 1.0);
        program.db.target(GroundAtom::from_strs(explained, &["t4"]));
        let delta = program.db.take_delta();
        assert!(delta.pools_changed());

        let seq = program.reground_owned_with(prior, &delta, 1).unwrap();
        let par = program.reground_owned_with(prior2, &delta, 4).unwrap();
        assert_eq!(
            format!("{:?}", seq.potentials),
            format!("{:?}", par.potentials),
            "parallel merge must be byte-identical to sequential"
        );
        assert_eq!(
            format!("{:?}", seq.constraints),
            format!("{:?}", par.constraints)
        );
        assert!((seq.constant_loss - par.constant_loss).abs() == 0.0);
        assert_equivalent("parallel vs fresh", &par, &program.ground().unwrap());
    }

    #[test]
    fn dependency_map_inverts_plan_predicates() {
        let program = eval_program();
        program.db.ensure_index();
        let plans: Vec<JoinPlan> = program
            .rules
            .iter()
            .map(|r| JoinPlan::compile(r, &program.db))
            .collect();
        let deps = DependencyMap::from_plans(&plans);
        let in_map = program.vocab.id_of("inMap").unwrap();
        let scope = program.vocab.id_of("scope").unwrap();
        let explained = program.vocab.id_of("explained").unwrap();
        assert_eq!(deps.dependents(in_map), &[1], "only the join rule");
        assert_eq!(deps.dependents(scope), &[0]);
        assert_eq!(
            deps.dependents(explained),
            &[0, 1],
            "head occurrences count"
        );
    }
}
