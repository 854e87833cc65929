//! Batched chase engine: one trie walk for a whole candidate set.
//!
//! [`ChaseEngine`] interns every candidate body into a shared
//! [`BodyTrie`], evaluates each canonical join prefix **once** against the
//! source [`Instance`]'s column indexes, and fires every tgd hanging off a
//! trie node from the shared bindings. For candgen-style candidate sets —
//! dozens of tgds reusing a handful of source join trees — this replaces
//! `O(candidates)` full joins with one walk over the distinct prefixes;
//! [`ChaseStats`] reports exactly how much was shared.
//!
//! ## Firing-order and null-determinism contract
//!
//! Results are equivalent to the naive per-tgd chase up to null renaming,
//! and **bit-identical** to the canonical-order reference:
//!
//! * each tgd's firing vectors (the values of its universal variables, in
//!   ascending original-variable order) are collected during the trie walk
//!   and then **sorted**, so the firing sequence — and therefore the null
//!   assignment — is a pure function of the `(source, candidates)` pair,
//!   independent of trie shape, atom order, or source insertion order;
//! * [`ChaseEngine::chase_all`] gives every candidate its own null
//!   namespace starting at 0 and equals
//!   [`crate::chase::chase_one_canonical`] per candidate, bit for bit;
//! * [`ChaseEngine::chase_merged`] threads one [`NullFactory`] through the
//!   candidates in slice order and equals
//!   [`crate::chase::chase_canonical`] bit for bit (and the classic
//!   [`crate::chase::chase`] up to null renaming).
//!
//! Malformed tgds are rejected by [`ChaseEngine::new`] with a structured
//! [`ChaseError`] before anything fires.

use crate::chase::{prepare_plans, ChaseError, FirePlan};
use crate::dependency::StTgd;
use crate::trie::{BodyTrie, CanonAtom, CanonTerm, TrieNode};
use crate::ChaseStats;
use cms_data::{ColIndexRef, FxHashMap, Instance, NullFactory, RelId, Rows, Tuple, Value};
use std::time::Instant;

/// A compiled batch chaser for a fixed candidate set.
///
/// Construction canonicalizes and interns every body into the shared
/// prefix trie and validates every head ([`FirePlan`]); the engine can then
/// be run against any number of source instances.
#[derive(Clone, Debug)]
pub struct ChaseEngine {
    trie: BodyTrie,
    plans: Vec<FirePlan>,
}

impl ChaseEngine {
    /// Compile an engine for `tgds`. Validates every tgd up front.
    pub fn new(tgds: &[StTgd]) -> Result<ChaseEngine, ChaseError> {
        let plans = prepare_plans(tgds)?;
        Ok(ChaseEngine {
            trie: BodyTrie::build(tgds),
            plans,
        })
    }

    /// Number of candidate tgds the engine was compiled for.
    pub fn num_tgds(&self) -> usize {
        self.plans.len()
    }

    /// The shared body-prefix trie (for diagnostics).
    pub fn trie(&self) -> &BodyTrie {
        &self.trie
    }

    /// Chase `source` with every candidate, returning one canonical
    /// universal solution per candidate (each with its own null namespace
    /// starting at 0) — the batched equivalent of mapping
    /// [`crate::chase::chase_one`] over the candidates, bit-identical to
    /// [`crate::chase::chase_one_canonical`].
    pub fn chase_all(&self, source: &Instance) -> Vec<Instance> {
        self.chase_all_stats(source).0
    }

    /// [`ChaseEngine::chase_all`] plus this run's [`ChaseStats`].
    pub fn chase_all_stats(&self, source: &Instance) -> (Vec<Instance>, ChaseStats) {
        let _span = cms_obs::span("chase/all");
        let start = Instant::now();
        let mut stats = self.fresh_stats();
        let firings = self.collect_firings(source, &mut stats);
        let mut out = Vec::with_capacity(self.plans.len());
        let mut buf = Vec::new();
        for (plan, per_tgd) in self.plans.iter().zip(&firings) {
            let mut target = Instance::new();
            let mut nulls = NullFactory::new();
            fire_tgd(plan, per_tgd, &mut target, &mut nulls, &mut stats, &mut buf);
            out.push(target);
        }
        stats.wall = start.elapsed();
        stats.publish();
        (out, stats)
    }

    /// Chase `source` with every candidate into **one** merged instance,
    /// sharing a single null factory across candidates in slice order —
    /// the batched equivalent of [`crate::chase::chase`], bit-identical to
    /// [`crate::chase::chase_canonical`].
    pub fn chase_merged(&self, source: &Instance) -> Instance {
        self.chase_merged_stats(source).0
    }

    /// [`ChaseEngine::chase_merged`] plus this run's [`ChaseStats`].
    pub fn chase_merged_stats(&self, source: &Instance) -> (Instance, ChaseStats) {
        let _span = cms_obs::span("chase/merged");
        let start = Instant::now();
        let mut stats = self.fresh_stats();
        let firings = self.collect_firings(source, &mut stats);
        let mut target = Instance::new();
        let mut nulls = NullFactory::new();
        let mut buf = Vec::new();
        for (plan, per_tgd) in self.plans.iter().zip(&firings) {
            fire_tgd(plan, per_tgd, &mut target, &mut nulls, &mut stats, &mut buf);
        }
        stats.wall = start.elapsed();
        stats.publish();
        (target, stats)
    }

    fn fresh_stats(&self) -> ChaseStats {
        ChaseStats {
            tgds: self.plans.len(),
            trie_nodes: self.trie.len(),
            ..ChaseStats::default()
        }
    }

    /// One trie walk: per tgd, the firing vectors (universal variable
    /// values in ascending original-variable order) in a flat buffer with
    /// a canonical (sorted) visit order.
    fn collect_firings(&self, source: &Instance, stats: &mut ChaseStats) -> Vec<TgdFirings> {
        let mut firings: Vec<TgdFirings> = self
            .plans
            .iter()
            .map(|p| TgdFirings::new(p.universals().len()))
            .collect();
        // Empty-body tgds fire once, unconditionally (the empty conjunction
        // has exactly one binding).
        for entry in &self.trie.root_tgds {
            firings[entry.tgd].count += 1;
        }
        if !self.trie.is_empty() {
            // One column-index guard per distinct relation with at least
            // one probeable node, resolved to per-node slot and row-slice
            // tables up front — the walk itself never hashes, and
            // scan-only relations never pay an index build.
            let mut rel_slots: FxHashMap<RelId, usize> = FxHashMap::default();
            let mut guards: Vec<Option<ColIndexRef<'_>>> = Vec::new();
            let node_slots: Vec<usize> = self
                .trie
                .nodes
                .iter()
                .map(|node| {
                    if !node.probeable {
                        return usize::MAX;
                    }
                    *rel_slots.entry(node.atom.rel).or_insert_with(|| {
                        guards.push(source.col_index(node.atom.rel));
                        guards.len() - 1
                    })
                })
                .collect();
            let node_rows: Vec<Rows<'_>> = self
                .trie
                .nodes
                .iter()
                .map(|node| source.rows(node.atom.rel))
                .collect();
            let eval = Eval {
                trie: &self.trie,
                node_slots: &node_slots,
                node_rows: &node_rows,
                guards: &guards,
            };
            let mut binding: Vec<Option<Value>> = vec![None; self.trie.num_canon_vars];
            let mut trail: Vec<usize> = Vec::new();
            for &root in &self.trie.roots {
                eval.node(root as usize, &mut binding, &mut trail, &mut firings, stats);
            }
        }
        // Canonical firing order (see the module docs): deterministic and
        // shared with `chase_canonical`/`chase_one_canonical`.
        for per_tgd in &mut firings {
            per_tgd.sort();
        }
        firings
    }
}

/// All firings of one tgd: `count` vectors of `stride` values each, stored
/// flat. After [`TgdFirings::sort`], the flat buffer holds the vectors in
/// canonical (sorted) order.
struct TgdFirings {
    stride: usize,
    count: usize,
    flat: Vec<Value>,
}

impl TgdFirings {
    fn new(stride: usize) -> TgdFirings {
        TgdFirings {
            stride,
            count: 0,
            flat: Vec::new(),
        }
    }

    /// Rearrange the flat buffer into canonical (value-sorted) firing
    /// order. Stride-0 firings are all identical, so any order is
    /// canonical.
    ///
    /// Values are compared through an order-preserving `u64` encoding
    /// (variant tag then id — exactly [`Value`]'s derived `Ord`), packed
    /// into one `u128` key per firing when the stride allows.
    fn sort(&mut self) {
        if self.stride == 0 || self.count < 2 {
            return;
        }
        let encode = |v: &Value| -> u64 {
            match v {
                Value::Const(s) => s.raw() as u64,
                Value::Null(n) => (1u64 << 32) | n.0 as u64,
            }
        };
        let mut order: Vec<u32> = (0..self.count as u32).collect();
        if self.stride <= 2 {
            let keys: Vec<u128> = self
                .flat
                .chunks(self.stride)
                .map(|chunk| {
                    chunk
                        .iter()
                        .fold(0u128, |acc, v| (acc << 64) | encode(v) as u128)
                })
                .collect();
            order.sort_unstable_by_key(|&i| keys[i as usize]);
        } else {
            // Composite key: the first two values pack into a u128 that
            // decides almost every comparison; ties fall back to the tail.
            let stride = self.stride;
            let heads: Vec<u128> = self
                .flat
                .chunks(stride)
                .map(|chunk| ((encode(&chunk[0]) as u128) << 64) | encode(&chunk[1]) as u128)
                .collect();
            let keys: Vec<u64> = self.flat.iter().map(encode).collect();
            order.sort_unstable_by(|&a, &b| {
                heads[a as usize].cmp(&heads[b as usize]).then_with(|| {
                    keys[a as usize * stride + 2..(a as usize + 1) * stride]
                        .cmp(&keys[b as usize * stride + 2..(b as usize + 1) * stride])
                })
            });
        }
        if order.iter().enumerate().any(|(i, &o)| o != i as u32) {
            let mut sorted = Vec::with_capacity(self.flat.len());
            for &i in &order {
                let f = i as usize * self.stride;
                sorted.extend_from_slice(&self.flat[f..f + self.stride]);
            }
            self.flat = sorted;
        }
    }

    /// The `i`-th firing vector in canonical order (call after `sort`).
    fn values(&self, i: usize) -> &[Value] {
        &self.flat[i * self.stride..(i + 1) * self.stride]
    }
}

/// Fire every collected firing of one tgd into `target`.
///
/// Null ids are assigned arithmetically — firing `j` (canonical order)
/// owns ids `base + j·n_exist ..`, matching exactly what
/// [`FirePlan::fire`] would draw from the factory firing-major — so the
/// output is bit-identical to the canonical naive chase. When every head
/// atom writes a distinct relation, emission is atom-major into a flat
/// scratch buffer: head atoms whose tuples are distinct by construction
/// (fresh nulls, or reading every universal variable into an empty
/// relation) bulk-append without any set lookups
/// ([`Instance::extend_distinct`]); other all-bound atoms into an empty
/// relation dedup with an index sort first; everything else goes through
/// normal deduplicating inserts.
fn fire_tgd(
    plan: &FirePlan,
    firings: &TgdFirings,
    target: &mut Instance,
    nulls: &mut NullFactory,
    stats: &mut ChaseStats,
    buf: &mut Vec<Value>,
) {
    let n_exist = plan.num_existentials() as u32;
    // Widen before multiplying: a wrapped u32 product would hand out
    // colliding null ids where the naive chase's checked factory panics.
    let block = u32::try_from(firings.count as u64 * n_exist as u64).expect("null id overflow");
    let base = nulls.reserve(block);
    stats.firings += firings.count;
    if plan.distinct_head_rels() {
        for atom in 0..plan.num_head_atoms() {
            let rel = plan.head_rel(atom);
            let arity = plan.head_arity(atom);
            // Fresh-null tuples are distinct across firings everywhere;
            // all-universal ground tuples are distinct across firings but
            // could collide with rows another tgd already emitted, so they
            // additionally need an empty relation.
            let dup_free = (n_exist > 0 && plan.atom_emits_existential(atom))
                || (plan.atom_covers_all_universals(atom) && target.rows(rel).is_empty());
            if arity > 0 && dup_free {
                buf.clear();
                for j in 0..firings.count {
                    plan.instantiate_into(atom, firings.values(j), base + j as u32 * n_exist, buf);
                }
                stats.tuples_emitted += firings.count;
                target.extend_distinct(rel, arity, buf);
            } else if arity > 0 && target.rows(rel).is_empty() {
                // All-bound atom into an empty relation: duplicates can
                // only come from this atom's own firings, so dedup with an
                // index sort (first occurrence wins, order preserved) and
                // bulk-append — no hashing, no clones.
                buf.clear();
                for j in 0..firings.count {
                    plan.instantiate_into(atom, firings.values(j), base, buf);
                }
                let row = |i: u32| &buf[i as usize * arity..(i as usize + 1) * arity];
                let mut order: Vec<u32> = (0..firings.count as u32).collect();
                order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)).then(a.cmp(&b)));
                let mut dup = vec![false; firings.count];
                let mut any_dup = false;
                for w in order.windows(2) {
                    if row(w[0]) == row(w[1]) {
                        dup[w[1] as usize] = true;
                        any_dup = true;
                    }
                }
                let kept = if any_dup {
                    // Compact in place, preserving first-occurrence order.
                    let mut w = 0usize;
                    for (j, &d) in dup.iter().enumerate() {
                        if !d {
                            buf.copy_within(j * arity..(j + 1) * arity, w * arity);
                            w += 1;
                        }
                    }
                    w
                } else {
                    firings.count
                };
                stats.tuples_emitted += kept;
                target.extend_distinct(rel, arity, &buf[..kept * arity]);
            } else {
                for j in 0..firings.count {
                    let args = plan.instantiate(atom, firings.values(j), base);
                    if target.insert(Tuple::new(rel, args)) {
                        stats.tuples_emitted += 1;
                    }
                }
            }
        }
    } else {
        // A relation repeats in the head: firing-major emission keeps the
        // per-relation row order of the naive reference, and inserts
        // dedup (identical sibling atoms collide every firing).
        for j in 0..firings.count {
            let null_base = base + j as u32 * n_exist;
            for atom in 0..plan.num_head_atoms() {
                let args = plan.instantiate(atom, firings.values(j), null_base);
                if target.insert(Tuple::new(plan.head_rel(atom), args)) {
                    stats.tuples_emitted += 1;
                }
            }
        }
    }
}

/// Immutable trie-walk context.
struct Eval<'a> {
    trie: &'a BodyTrie,
    /// Node index → guard slot (pre-resolved, no hashing in the walk).
    node_slots: &'a [usize],
    /// Node index → the relation's rows (pre-resolved).
    node_rows: &'a [Rows<'a>],
    guards: &'a [Option<ColIndexRef<'a>>],
}

impl Eval<'_> {
    /// Extend the shared partial binding through one trie node: probe the
    /// shortest posting list among the atom's bound argument positions
    /// (falling back to a scan when nothing is bound), record a firing for
    /// every tgd attached here, and recurse into the children.
    fn node(
        &self,
        idx: usize,
        binding: &mut [Option<Value>],
        trail: &mut Vec<usize>,
        firings: &mut [TgdFirings],
        stats: &mut ChaseStats,
    ) {
        let node = &self.trie.nodes[idx];
        let rows = self.node_rows[idx];
        let guard = if node.probeable {
            self.guards[self.node_slots[idx]].as_ref()
        } else {
            None
        };

        // Probe: shortest posting list among bound argument positions
        // (same selection rule as the per-tgd matcher).
        let best = guard.and_then(|guard| {
            crate::matcher::shortest_postings(guard, node.atom.terms.len(), |col| {
                match &node.atom.terms[col] {
                    CanonTerm::Const(c) => Some(Value::Const(*c)),
                    CanonTerm::Var(v) => binding[*v as usize],
                }
            })
        });

        match best {
            Some(postings) => {
                stats.candidates_probed += postings.len();
                for &i in postings {
                    self.visit(node, &rows[i as usize], binding, trail, firings, stats);
                }
            }
            None => {
                stats.candidates_scanned += rows.len();
                for row in rows {
                    self.visit(node, row, binding, trail, firings, stats);
                }
            }
        }
    }

    fn visit(
        &self,
        node: &TrieNode,
        row: &[Value],
        binding: &mut [Option<Value>],
        trail: &mut Vec<usize>,
        firings: &mut [TgdFirings],
        stats: &mut ChaseStats,
    ) {
        let mark = trail.len();
        if unify_canon(&node.atom, row, binding, trail) {
            stats.prefix_bindings_computed += 1;
            // A naive per-tgd chase recomputes this extension once per
            // candidate at or below this node.
            stats.prefix_bindings_reused += node.subtree_tgds - 1;
            for entry in &node.tgds {
                let per_tgd = &mut firings[entry.tgd];
                per_tgd.count += 1;
                per_tgd.flat.extend(entry.canon_of_univ.iter().map(|&c| {
                    binding[c as usize].expect("every canonical variable on the path is bound")
                }));
            }
            for &child in &node.children {
                self.node(child as usize, binding, trail, firings, stats);
            }
        }
        for &slot in &trail[mark..] {
            binding[slot] = None;
        }
        trail.truncate(mark);
    }
}

/// Unify one canonical atom against one row under the current binding,
/// recording newly bound canonical-variable slots for backtracking. Rows
/// whose arity differs from the atom's never match.
fn unify_canon(
    atom: &CanonAtom,
    row: &[Value],
    binding: &mut [Option<Value>],
    bound_here: &mut Vec<usize>,
) -> bool {
    if atom.terms.len() != row.len() {
        return false;
    }
    for (t, v) in atom.terms.iter().zip(row.iter()) {
        match t {
            CanonTerm::Const(c) => {
                if Value::Const(*c) != *v {
                    return false;
                }
            }
            CanonTerm::Var(id) => {
                let slot = *id as usize;
                match binding[slot] {
                    Some(bound) => {
                        if bound != *v {
                            return false;
                        }
                    }
                    None => {
                        binding[slot] = Some(*v);
                        bound_here.push(slot);
                    }
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::chase::{chase, chase_canonical, chase_one, chase_one_canonical};
    use crate::term::{Term, VarId};
    use cms_data::{hom_equivalent, pattern_multiset, RelId};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    fn source() -> Instance {
        let mut inst = Instance::new();
        inst.insert_ground(RelId(0), &["BigData", "7"]);
        inst.insert_ground(RelId(0), &["ML", "9"]);
        inst.insert_ground(RelId(1), &["7", "Bob"]);
        inst.insert_ground(RelId(1), &["9", "Alice"]);
        inst
    }

    /// θ1 and θ3 of the running example: identical bodies, different heads.
    fn theta1() -> StTgd {
        StTgd::new(
            vec![
                Atom::new(RelId(0), vec![v(0), v(1)]),
                Atom::new(RelId(1), vec![v(1), v(2)]),
            ],
            vec![Atom::new(RelId(0), vec![v(0), v(2), v(3)])],
            vec![],
        )
    }

    fn theta3() -> StTgd {
        StTgd::new(
            vec![
                Atom::new(RelId(0), vec![v(0), v(1)]),
                Atom::new(RelId(1), vec![v(1), v(2)]),
            ],
            vec![
                Atom::new(RelId(0), vec![v(0), v(2), v(3)]),
                Atom::new(RelId(1), vec![v(3), v(4)]),
            ],
            vec![],
        )
    }

    #[test]
    fn shared_bodies_are_joined_once() {
        let tgds = [theta1(), theta3()];
        let engine = ChaseEngine::new(&tgds).unwrap();
        let (solutions, stats) = engine.chase_all_stats(&source());
        assert_eq!(solutions.len(), 2);
        assert_eq!(stats.trie_nodes, 2, "one shared two-atom path");
        // 2 root-atom extensions + 2 join extensions, each serving both
        // tgds: computed once, reused once.
        assert_eq!(stats.prefix_bindings_computed, 4);
        assert_eq!(stats.prefix_bindings_reused, 4);
        assert_eq!(stats.firings, 4);
        assert_eq!(stats.tuples_emitted, 2 + 4);
    }

    #[test]
    fn chase_all_matches_per_tgd_chase() {
        let tgds = [theta1(), theta3()];
        let engine = ChaseEngine::new(&tgds).unwrap();
        let solutions = engine.chase_all(&source());
        for (k, tgd) in solutions.iter().zip(&tgds) {
            let naive = chase_one(&source(), tgd);
            assert_eq!(pattern_multiset(k), pattern_multiset(&naive));
            assert!(hom_equivalent(k, &naive));
            let canonical = chase_one_canonical(&source(), tgd).unwrap();
            assert_eq!(k.to_tuples(), canonical.to_tuples(), "bit-identical");
        }
    }

    #[test]
    fn chase_merged_matches_set_chase() {
        let tgds = [theta1(), theta3()];
        let engine = ChaseEngine::new(&tgds).unwrap();
        let merged = engine.chase_merged(&source());
        let canonical = chase_canonical(&source(), &tgds).unwrap();
        assert_eq!(merged.to_tuples(), canonical.to_tuples(), "bit-identical");
        let naive = chase(&source(), &tgds);
        assert_eq!(pattern_multiset(&merged), pattern_multiset(&naive));
        assert!(hom_equivalent(&merged, &naive));
    }

    #[test]
    fn divergent_bodies_still_agree_with_naive() {
        // A third candidate with a different (single-atom) body: partial
        // prefix sharing plus an independent branch.
        let flat = StTgd::new(
            vec![Atom::new(RelId(1), vec![v(0), v(1)])],
            vec![Atom::new(RelId(1), vec![v(1), v(0)])],
            vec![],
        );
        let tgds = [theta1(), flat.clone(), theta3()];
        let engine = ChaseEngine::new(&tgds).unwrap();
        let solutions = engine.chase_all(&source());
        for (k, tgd) in solutions.iter().zip(&tgds) {
            assert_eq!(
                k.to_tuples(),
                chase_one_canonical(&source(), tgd).unwrap().to_tuples()
            );
        }
    }

    #[test]
    fn empty_candidate_set_and_empty_source() {
        let engine = ChaseEngine::new(&[]).unwrap();
        assert!(engine.chase_all(&source()).is_empty());
        assert!(engine.chase_merged(&source()).is_empty());

        let tgds = [theta1()];
        let engine = ChaseEngine::new(&tgds).unwrap();
        let (solutions, stats) = engine.chase_all_stats(&Instance::new());
        assert!(solutions[0].is_empty());
        assert_eq!(stats.firings, 0);
    }

    #[test]
    fn empty_body_candidates_fire_once() {
        let unconditional = StTgd::new(vec![], vec![Atom::new(RelId(2), vec![v(0)])], vec![]);
        let engine = ChaseEngine::new(std::slice::from_ref(&unconditional)).unwrap();
        let solutions = engine.chase_all(&source());
        assert_eq!(solutions[0].total_len(), 1);
        assert_eq!(
            solutions[0].to_tuples(),
            chase_one_canonical(&source(), &unconditional)
                .unwrap()
                .to_tuples()
        );
    }

    #[test]
    fn scan_only_candidate_sets_build_no_column_index() {
        // Single all-variable-atom bodies can never probe: the engine must
        // not force an index build the naive path would also skip.
        let flat = StTgd::new(
            vec![Atom::new(RelId(0), vec![v(0), v(1)])],
            vec![Atom::new(RelId(0), vec![v(1), v(0), v(2)])],
            vec![],
        );
        let src = source();
        assert!(src.index_stamp(RelId(0)).is_none(), "fresh instance");
        let engine = ChaseEngine::new(std::slice::from_ref(&flat)).unwrap();
        let solutions = engine.chase_all(&src);
        assert_eq!(solutions[0].total_len(), 2);
        assert!(
            src.index_stamp(RelId(0)).is_none(),
            "scan-only chase must leave the index unbuilt"
        );
    }

    #[test]
    fn engine_is_reusable_across_sources() {
        let tgds = [theta1(), theta3()];
        let engine = ChaseEngine::new(&tgds).unwrap();
        let a = engine.chase_all(&source());
        let mut bigger = source();
        bigger.insert_ground(RelId(0), &["Web", "7"]);
        let b = engine.chase_all(&bigger);
        assert!(b[0].total_len() > a[0].total_len());
        for (k, tgd) in b.iter().zip(&tgds) {
            assert_eq!(
                k.to_tuples(),
                chase_one_canonical(&bigger, tgd).unwrap().to_tuples()
            );
        }
    }
}
