//! The graded `covers` / `creates` semantics of objective Eq. (9).
//!
//! For each candidate θ we chase `I` to get `K_θ` and compare against the
//! target instance `J`:
//!
//! * `k ∈ K_θ` **matches** `t ∈ J` iff every constant position agrees
//!   ([`cms_data::tuple_match`]); the match induces a null assignment.
//! * A null assignment `n ↦ c` is **supported** iff another tuple of `K_θ`
//!   containing `n` matches some `J` tuple inducing the same assignment —
//!   the join evidence that lets an existential "borrow" a concrete value
//!   (this is what makes θ3 in the appendix explain `task(ML, Alice, 111)`
//!   to degree 3/3 while θ1 only reaches 2/3).
//! * `covers(θ, t)` = max over matching `k` of
//!   `(#constants + #supported nulls) / arity`.
//! * `k` with **no** match in `J` is an error (`creates` = 1).
//!
//! Nulls are never shared across candidates (the chase freshens them per
//! firing), so per-candidate computation is exact for any selection:
//! `explains(M, t) = max_{θ ∈ M} covers(θ, t)`, and error tuples union.
//! Ground error tuples identical across candidates are merged into one
//! error *group* charged once per selection, matching `Σ_{t ∈ K_C − J}` of
//! Eq. (1).
//!
//! ## Cost
//!
//! [`CoverageModel::from_solutions`] examines each (chased tuple, target)
//! pair at most once. A chased tuple probes the target relation's column
//! index on its most selective constant (the shortest posting list) and
//! tests only the rows posted there; a tuple of nulls alone falls back to
//! the relation's rows. While matching, each induced `n ↦ c` records its
//! first inducing tuple and whether another tuple induces it too, so
//! support is one table lookup once all matches are in — nothing is
//! re-scanned. Scoring a candidate costs O(probed rows), which on iBench
//! scenarios is about 1.4× the matches. The matches themselves grow about
//! as |J|² on that generator, so no exact scorer is linear in |J|.
//! [`CoverageModel::from_solutions_reference`] keeps the scan-and-re-scan
//! scorer this replaced as the test oracle.

use cms_data::{tuple_match, ColIndexRef, FxHashMap, Instance, NullId, RelId, Rows, Tuple, Value};
use cms_tgd::{chase_one, core_of, ChaseEngine, ChaseError, ChaseStats, StTgd};
use std::collections::BTreeMap;

/// Options for coverage-model construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoverageOptions {
    /// Minimize each candidate's universal solution to its **core** before
    /// computing covers/creates. The paper evaluates on the canonical
    /// (non-minimized) solution — this switch is the ablation: redundant
    /// null-tuples produced by duplicate firings then stop inflating the
    /// error term. See `cms_tgd::core_of`.
    pub use_core: bool,
}

/// A group of identical created-but-unmatched tuples and its creators.
#[derive(Clone, Debug)]
pub struct ErrorGroup {
    /// Candidate indices that create this tuple.
    pub creators: Vec<usize>,
    /// A representative tuple (for diagnostics).
    pub example: Tuple,
}

/// Everything the objective needs, precomputed per candidate.
#[derive(Clone, Debug)]
pub struct CoverageModel {
    /// Number of candidates.
    pub num_candidates: usize,
    /// The target tuples of `J`, indexed.
    pub targets: Vec<Tuple>,
    /// `size(θ)` per candidate.
    pub sizes: Vec<usize>,
    /// Sparse per-candidate covers: `(target index, degree)` with
    /// degree > 0, at most one entry per target.
    pub covers: Vec<Vec<(usize, f64)>>,
    /// Error groups (tuples in `K_C` with no match in `J`).
    pub errors: Vec<ErrorGroup>,
    /// Per-candidate count of error groups it participates in.
    pub error_counts: Vec<usize>,
}

/// One target relation as [`CoverageModel::from_solutions`] probes it.
struct TargetRel<'a> {
    /// Position in `targets` of the relation's first row.
    offset: usize,
    rows: Rows<'a>,
    index: ColIndexRef<'a>,
}

impl TargetRel<'_> {
    /// Call `f(target index, row)` for every row `k` matches, in ascending
    /// target order. Only the rows posted under `k`'s most selective
    /// constant are examined; a tuple of nulls alone examines every row.
    fn for_each_match(&self, k: &[Value], mut f: impl FnMut(usize, &[Value])) {
        let mut probe: Option<&[u32]> = None;
        for (col, v) in k.iter().enumerate() {
            if v.is_const() {
                let postings = self.index.postings(col, v);
                if probe.is_none_or(|p| postings.len() < p.len()) {
                    probe = Some(postings);
                }
            }
        }
        let mut visit = |pos: usize| {
            let row = self.rows.row(pos);
            if matches(k, row) {
                f(self.offset + pos, row);
            }
        };
        match probe {
            Some(postings) => postings.iter().for_each(|&pos| visit(pos as usize)),
            None => (0..self.rows.len()).for_each(visit),
        }
    }
}

/// `tuple_match(k, t).is_some()` without building the assignment: equal
/// arity, `t` ground, every constant of `k` agrees, and a repeated null
/// sees equal values.
fn matches(k: &[Value], t: &[Value]) -> bool {
    k.len() == t.len()
        && k.iter().zip(t).enumerate().all(|(col, (kv, tv))| {
            tv.is_const()
                && match kv {
                    Value::Const(_) => kv == tv,
                    Value::Null(_) => k[..col]
                        .iter()
                        .position(|v| v == kv)
                        .is_none_or(|first| t[first] == *tv),
                }
        })
}

/// The chased tuples of one candidate that induce a null assignment
/// `n ↦ c`: the first to do so, and whether any other tuple does too.
#[derive(Clone, Copy, Debug)]
struct Inducers {
    first: usize,
    others: bool,
}

impl Inducers {
    /// Whether a tuple other than `asking` induces the assignment — the
    /// support rule of the module doc.
    fn supports(self, asking: usize) -> bool {
        self.others || self.first != asking
    }
}

/// Unmatched chased tuples, grouped as [`CoverageModel::errors`] lists
/// them: ground tuples merged across candidates (in tuple order), then
/// null tuples one group each (in discovery order).
#[derive(Default)]
struct ErrorCollector {
    ground: BTreeMap<Tuple, Vec<usize>>,
    null: Vec<ErrorGroup>,
}

impl ErrorCollector {
    fn push(&mut self, candidate: usize, tuple: Tuple) {
        if tuple.is_ground() {
            self.ground.entry(tuple).or_default().push(candidate);
        } else {
            self.null.push(ErrorGroup {
                creators: vec![candidate],
                example: tuple,
            });
        }
    }

    fn into_model(
        self,
        num_candidates: usize,
        targets: Vec<Tuple>,
        sizes: Vec<usize>,
        covers: Vec<Vec<(usize, f64)>>,
    ) -> CoverageModel {
        let mut errors: Vec<ErrorGroup> = self
            .ground
            .into_iter()
            .map(|(example, mut creators)| {
                creators.sort_unstable();
                creators.dedup();
                ErrorGroup { creators, example }
            })
            .collect();
        errors.extend(self.null);
        let mut error_counts = vec![0usize; num_candidates];
        for g in &errors {
            for &c in &g.creators {
                error_counts[c] += 1;
            }
        }
        CoverageModel {
            num_candidates,
            targets,
            sizes,
            covers,
            errors,
            error_counts,
        }
    }
}

impl CoverageModel {
    /// Build the model by chasing each candidate over `source` and
    /// comparing against `target` (canonical solutions, as in the paper).
    pub fn build(source: &Instance, target: &Instance, candidates: &[StTgd]) -> CoverageModel {
        CoverageModel::build_with(source, target, candidates, &CoverageOptions::default())
    }

    /// Build with explicit [`CoverageOptions`].
    ///
    /// The per-candidate solutions come from one [`ChaseEngine`] pass over
    /// the shared body-prefix trie rather than a per-candidate
    /// `chase_one` loop; results are identical to
    /// [`CoverageModel::build_reference`] (nulls are engine-renamed, which
    /// covers/creates cannot observe).
    ///
    /// Panics — before chasing anything — if a candidate fails chase
    /// validation; use [`CoverageModel::try_build_with`] for a `Result`.
    pub fn build_with(
        source: &Instance,
        target: &Instance,
        candidates: &[StTgd],
        options: &CoverageOptions,
    ) -> CoverageModel {
        CoverageModel::try_build_with(source, target, candidates, options)
            .unwrap_or_else(|e| panic!("CoverageModel: invalid candidate tgd: {e}"))
    }

    /// Fallible [`CoverageModel::build_with`].
    pub fn try_build_with(
        source: &Instance,
        target: &Instance,
        candidates: &[StTgd],
        options: &CoverageOptions,
    ) -> Result<CoverageModel, ChaseError> {
        CoverageModel::build_with_stats(source, target, candidates, options).map(|(m, _)| m)
    }

    /// Reference implementation: per-candidate naive [`chase_one`] loop
    /// scored by [`CoverageModel::from_solutions_reference`], the
    /// scan-every-target scorer. Kept as the test oracle for the engine
    /// chase and the indexed scorer together.
    pub fn build_reference(
        source: &Instance,
        target: &Instance,
        candidates: &[StTgd],
        options: &CoverageOptions,
    ) -> CoverageModel {
        let solutions: Vec<Instance> = candidates
            .iter()
            .map(|tgd| chase_one(source, tgd))
            .collect();
        CoverageModel::from_solutions_reference(target, candidates, &solutions, options)
    }

    /// Engine-backed build that also reports the batch-chase work counters
    /// (prefix bindings computed vs reused, firings, trie size).
    pub fn build_with_stats(
        source: &Instance,
        target: &Instance,
        candidates: &[StTgd],
        options: &CoverageOptions,
    ) -> Result<(CoverageModel, ChaseStats), ChaseError> {
        CoverageModel::build_keeping_solutions(source, target, candidates, options)
            .map(|(model, _, stats)| (model, stats))
    }

    /// The one chase-and-score sequence behind every engine-backed build:
    /// chase all candidates in one [`ChaseEngine`] pass, score the
    /// solutions, and hand them back (one per candidate, in candidate
    /// order) for callers that read them again — the pipeline's data
    /// metric ([`crate::metrics::data_prf_from_solutions`]).
    pub(crate) fn build_keeping_solutions(
        source: &Instance,
        target: &Instance,
        candidates: &[StTgd],
        options: &CoverageOptions,
    ) -> Result<(CoverageModel, Vec<Instance>, ChaseStats), ChaseError> {
        let engine = ChaseEngine::new(candidates)?;
        let (solutions, stats) = engine.chase_all_stats(source);
        let model = {
            let _span = cms_obs::span("coverage/score");
            CoverageModel::from_solutions(target, candidates, &solutions, options)
        };
        Ok((model, solutions, stats))
    }

    /// Score precomputed per-candidate universal solutions (one per
    /// candidate, in candidate order) against `target`.
    ///
    /// Each chased tuple probes the target's column index on its most
    /// selective constant and examines only the rows posted there; null
    /// support is read from a table filled while matching (module doc).
    pub fn from_solutions(
        target: &Instance,
        candidates: &[StTgd],
        solutions: &[Instance],
        options: &CoverageOptions,
    ) -> CoverageModel {
        debug_assert_eq!(candidates.len(), solutions.len());
        let mut rels: Vec<RelId> = target.populated_rels().collect();
        rels.sort_unstable();
        // `targets` lists relations in id order, rows in row order (as
        // `iter_all` does), so row `pos` of `rel` is `targets[offset + pos]`.
        let mut targets: Vec<Tuple> = Vec::with_capacity(target.total_len());
        let mut by_rel: FxHashMap<RelId, TargetRel<'_>> = FxHashMap::default();
        for rel in rels {
            let rows = target.rows(rel);
            let index = target.col_index(rel).expect("populated relation");
            by_rel.insert(
                rel,
                TargetRel {
                    offset: targets.len(),
                    rows,
                    index,
                },
            );
            targets.extend(rows.iter().map(|row| Tuple::new(rel, row.to_vec())));
        }

        let mut covers: Vec<Vec<(usize, f64)>> = Vec::with_capacity(candidates.len());
        let mut errors = ErrorCollector::default();
        let mut sizes = Vec::with_capacity(candidates.len());
        // Scratch reused across candidates: every (chased tuple, target)
        // match, the support table, and the best degree per target.
        let mut matches: Vec<(usize, usize)> = Vec::new();
        let mut inducers: FxHashMap<(NullId, Value), Inducers> = FxHashMap::default();
        let mut best = vec![0.0f64; targets.len()];
        let mut touched: Vec<usize> = Vec::new();

        for (cand_idx, (tgd, k)) in candidates.iter().zip(solutions).enumerate() {
            sizes.push(tgd.size());
            let cored;
            let k = if options.use_core {
                cored = core_of(k);
                &cored
            } else {
                k
            };
            let k_rows: Vec<(RelId, &[Value])> = k.iter_all().collect();
            matches.clear();
            inducers.clear();
            for (ki, &(rel, row)) in k_rows.iter().enumerate() {
                let before = matches.len();
                if let Some(target_rel) = by_rel.get(&rel) {
                    target_rel.for_each_match(row, |ti, t| {
                        matches.push((ki, ti));
                        for (kv, tv) in row.iter().zip(t) {
                            if let Value::Null(n) = kv {
                                inducers
                                    .entry((*n, *tv))
                                    .and_modify(|i| i.others |= i.first != ki)
                                    .or_insert(Inducers {
                                        first: ki,
                                        others: false,
                                    });
                            }
                        }
                    });
                }
                if matches.len() == before {
                    errors.push(cand_idx, Tuple::new(rel, row.to_vec()));
                }
            }
            for &(ki, ti) in &matches {
                let row = k_rows[ki].1;
                let hits = row
                    .iter()
                    .zip(&targets[ti].args)
                    .filter(|&(kv, tv)| match kv {
                        Value::Const(_) => true,
                        Value::Null(n) => inducers[&(*n, *tv)].supports(ki),
                    })
                    .count();
                let degree = (hits as f64 / row.len() as f64).min(1.0);
                if degree > best[ti] {
                    if best[ti] == 0.0 {
                        touched.push(ti);
                    }
                    best[ti] = degree;
                }
            }
            touched.sort_unstable();
            covers.push(
                touched
                    .drain(..)
                    .map(|ti| (ti, std::mem::take(&mut best[ti])))
                    .collect(),
            );
        }
        errors.into_model(candidates.len(), targets, sizes, covers)
    }

    /// The scan-every-target scorer [`CoverageModel::from_solutions`]
    /// replaced: each chased tuple is tried against every target of its
    /// relation, and each null assignment's support re-scans the targets
    /// for every other tuple holding the null. Test and bench oracle only;
    /// results are identical to [`CoverageModel::from_solutions`].
    pub fn from_solutions_reference(
        target: &Instance,
        candidates: &[StTgd],
        solutions: &[Instance],
        options: &CoverageOptions,
    ) -> CoverageModel {
        debug_assert_eq!(candidates.len(), solutions.len());
        let targets: Vec<Tuple> = target
            .iter_all()
            .map(|(rel, row)| Tuple::new(rel, row.to_vec()))
            .collect();
        let mut by_rel: FxHashMap<RelId, Vec<usize>> = FxHashMap::default();
        for (i, t) in targets.iter().enumerate() {
            by_rel.entry(t.rel).or_default().push(i);
        }

        let mut covers: Vec<Vec<(usize, f64)>> = Vec::with_capacity(candidates.len());
        let mut errors = ErrorCollector::default();
        let mut sizes = Vec::with_capacity(candidates.len());

        for (cand_idx, (tgd, k)) in candidates.iter().zip(solutions).enumerate() {
            sizes.push(tgd.size());
            let cored;
            let k = if options.use_core {
                cored = core_of(k);
                &cored
            } else {
                k
            };
            let k_tuples: Vec<Tuple> = k
                .iter_all()
                .map(|(rel, row)| Tuple::new(rel, row.to_vec()))
                .collect();
            let mut null_occurrences: FxHashMap<NullId, Vec<usize>> = FxHashMap::default();
            for (ki, kt) in k_tuples.iter().enumerate() {
                for v in &kt.args {
                    if let Some(n) = v.as_null() {
                        null_occurrences.entry(n).or_default().push(ki);
                    }
                }
            }
            let mut support_cache: FxHashMap<(NullId, Value, usize), bool> = FxHashMap::default();
            let mut is_supported = |n: NullId, c: Value, asking: usize| -> bool {
                if let Some(&cached) = support_cache.get(&(n, c, asking)) {
                    return cached;
                }
                let supported = null_occurrences.get(&n).is_some_and(|occs| {
                    occs.iter().filter(|&&other| other != asking).any(|&other| {
                        let kt = &k_tuples[other];
                        by_rel.get(&kt.rel).is_some_and(|tis| {
                            tis.iter().any(|&ti| {
                                tuple_match(&kt.args, &targets[ti].args)
                                    .is_some_and(|a| a.get(&n) == Some(&c))
                            })
                        })
                    })
                });
                support_cache.insert((n, c, asking), supported);
                supported
            };

            let mut cand_covers: FxHashMap<usize, f64> = FxHashMap::default();
            for (ki, kt) in k_tuples.iter().enumerate() {
                let mut matched = false;
                for &ti in by_rel.get(&kt.rel).map_or(&[][..], Vec::as_slice) {
                    let Some(assignment) = tuple_match(&kt.args, &targets[ti].args) else {
                        continue;
                    };
                    matched = true;
                    let hits = kt
                        .args
                        .iter()
                        .filter(|v| match v {
                            Value::Const(_) => true,
                            Value::Null(n) => is_supported(*n, assignment[n], ki),
                        })
                        .count();
                    let degree = (hits as f64 / kt.arity() as f64).min(1.0);
                    let entry = cand_covers.entry(ti).or_insert(0.0);
                    if degree > *entry {
                        *entry = degree;
                    }
                }
                if !matched {
                    errors.push(cand_idx, kt.clone());
                }
            }
            let mut list: Vec<(usize, f64)> =
                cand_covers.into_iter().filter(|&(_, d)| d > 0.0).collect();
            list.sort_by_key(|&(t, _)| t);
            covers.push(list);
        }
        errors.into_model(candidates.len(), targets, sizes, covers)
    }

    /// Number of target tuples.
    pub fn num_targets(&self) -> usize {
        self.targets.len()
    }

    /// Best cover of target `t` by candidate `c` (0 if none).
    pub fn cover(&self, c: usize, t: usize) -> f64 {
        self.covers[c]
            .iter()
            .find(|&&(ti, _)| ti == t)
            .map_or(0.0, |&(_, d)| d)
    }

    /// Indices of targets no candidate covers at all ("certain
    /// unexplained", removable before optimization per §III-C).
    pub fn certainly_unexplained(&self) -> Vec<usize> {
        let mut covered = vec![false; self.targets.len()];
        for cand in &self.covers {
            for &(t, _) in cand {
                covered[t] = true;
            }
        }
        covered
            .iter()
            .enumerate()
            .filter(|(_, &c)| !c)
            .map(|(i, _)| i)
            .collect()
    }

    /// The inverse of [`CoverageModel::covers`]: for each target, the
    /// `(candidate, degree)` pairs covering it, candidates ascending
    /// (`covers` holds at most one entry per target, so each candidate
    /// appears once).
    pub fn covers_by_target(&self) -> Vec<Vec<(usize, f64)>> {
        let mut by_target = vec![Vec::new(); self.targets.len()];
        for (c, cand) in self.covers.iter().enumerate() {
            for &(t, d) in cand {
                by_target[t].push((c, d));
            }
        }
        by_target
    }

    /// The inverse of [`ErrorGroup::creators`]: for each candidate, the
    /// indices of the error groups it creates, ascending and each once
    /// (even when a group lists the candidate as a creator twice).
    pub fn groups_by_candidate(&self) -> Vec<Vec<usize>> {
        let mut by_candidate = vec![Vec::new(); self.num_candidates];
        for (g, group) in self.errors.iter().enumerate() {
            for &c in &group.creators {
                let groups = &mut by_candidate[c];
                if groups.last() != Some(&g) {
                    groups.push(g);
                }
            }
        }
        by_candidate
    }

    /// The connected components of `candidates` in the graph that links
    /// two candidates when they cover a common target or create a common
    /// error group. Eq. (9) separates over these components: no target or
    /// error group reaches into two of them, so each can be optimised on
    /// its own.
    ///
    /// Each component lists its candidates ascending; components are
    /// ordered by their smallest candidate. Candidates outside
    /// `candidates` link nothing. One union-find pass (with path halving)
    /// over `covers` and `errors`.
    pub fn components(&self, candidates: &[usize]) -> Vec<Vec<usize>> {
        const NONE: usize = usize::MAX;
        let mut parent = vec![NONE; self.num_candidates];
        for &c in candidates {
            parent[c] = c;
        }
        fn find(parent: &mut [usize], mut c: usize) -> usize {
            while parent[c] != c {
                parent[c] = parent[parent[c]];
                c = parent[c];
            }
            c
        }
        // Union by smaller root, so every root is its component's minimum.
        fn union(parent: &mut [usize], a: usize, b: usize) {
            let (ra, rb) = (find(parent, a), find(parent, b));
            parent[ra.max(rb)] = ra.min(rb);
        }
        let mut owner = vec![NONE; self.targets.len()];
        for &c in candidates {
            for &(t, _) in &self.covers[c] {
                match owner[t] {
                    NONE => owner[t] = c,
                    o => union(&mut parent, o, c),
                }
            }
        }
        for group in &self.errors {
            let mut first = NONE;
            for &c in &group.creators {
                if parent[c] == NONE {
                    continue;
                }
                match first {
                    NONE => first = c,
                    f => union(&mut parent, f, c),
                }
            }
        }
        let mut slot = vec![NONE; self.num_candidates];
        let mut components: Vec<Vec<usize>> = Vec::new();
        for c in 0..self.num_candidates {
            if parent[c] == NONE {
                continue;
            }
            let root = find(&mut parent, c);
            if slot[root] == NONE {
                slot[root] = components.len();
                components.push(Vec::new());
            }
            components[slot[root]].push(c);
        }
        components
    }

    /// Candidates with no positive cover: they can only add errors and
    /// size, so no optimal selection includes them.
    pub fn useless_candidates(&self) -> Vec<usize> {
        (0..self.num_candidates)
            .filter(|&c| self.covers[c].is_empty())
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cms_data::Schema;
    use cms_tgd::parse_tgd;
    use proptest::prelude::*;

    /// The paper's running example (appendix §I), reconstructed:
    ///   source: proj(name, code, firm), team(pcode, emp)
    ///   target: task(pname, emp, oid), org(oid, firm)
    ///   θ1: proj(x,c,f) & team(c,e) -> task(x,e,o)
    ///   θ3: proj(x,c,f) & team(c,e) -> task(x,e,o) & org(o,f)
    pub(crate) fn running_example() -> (Schema, Schema, Instance, Instance, Vec<StTgd>) {
        let mut src = Schema::new("s");
        src.add_relation("proj", &["name", "code", "firm"]);
        src.add_relation("team", &["pcode", "emp"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("task", &["pname", "emp", "oid"]);
        tgt.add_relation("org", &["oid", "firm"]);

        let mut i = Instance::new();
        let proj = src.rel_id("proj").unwrap();
        let team = src.rel_id("team").unwrap();
        i.insert_ground(proj, &["BigData", "7", "IBM"]);
        i.insert_ground(proj, &["ML", "9", "SAP"]);
        i.insert_ground(team, &["7", "Bob"]);
        i.insert_ground(team, &["9", "Alice"]);

        let mut j = Instance::new();
        let task = tgt.rel_id("task").unwrap();
        let org = tgt.rel_id("org").unwrap();
        j.insert_ground(task, &["ML", "Alice", "111"]);
        j.insert_ground(org, &["111", "SAP"]);
        // Two tuples no candidate explains (keeps |J| = 4 as in the
        // appendix's objective table).
        j.insert_ground(task, &["Web", "Carol", "333"]);
        j.insert_ground(org, &["444", "Oracle"]);

        let theta1 = parse_tgd("proj(x, c, f) & team(c, e) -> task(x, e, o)", &src, &tgt).unwrap();
        let theta3 = parse_tgd(
            "proj(x, c, f) & team(c, e) -> task(x, e, o) & org(o, f)",
            &src,
            &tgt,
        )
        .unwrap();
        (src, tgt, i, j, vec![theta1, theta3])
    }

    #[test]
    fn theta1_covers_two_thirds_unsupported_null() {
        let (_, tgt, i, j, cands) = running_example();
        let model = CoverageModel::build(&i, &j, &cands);
        let task = tgt.rel_id("task").unwrap();
        let ml_idx = model
            .targets
            .iter()
            .position(|t| t.rel == task && t.args[0] == Value::constant("ML"))
            .unwrap();
        assert!((model.cover(0, ml_idx) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn theta3_covers_fully_via_join_support() {
        let (_, tgt, i, j, cands) = running_example();
        let model = CoverageModel::build(&i, &j, &cands);
        let task = tgt.rel_id("task").unwrap();
        let org = tgt.rel_id("org").unwrap();
        let ml_idx = model
            .targets
            .iter()
            .position(|t| t.rel == task && t.args[0] == Value::constant("ML"))
            .unwrap();
        let org_idx = model
            .targets
            .iter()
            .position(|t| t.rel == org && t.args[0] == Value::constant("111"))
            .unwrap();
        assert!(
            (model.cover(1, ml_idx) - 1.0).abs() < 1e-12,
            "3/3 via supported null"
        );
        assert!(
            (model.cover(1, org_idx) - 1.0).abs() < 1e-12,
            "2/2 via supported null"
        );
    }

    #[test]
    fn error_counts_match_appendix() {
        let (_, _, i, j, cands) = running_example();
        let model = CoverageModel::build(&i, &j, &cands);
        // θ1 creates 1 error (BigData task); θ3 creates 2 (BigData task +
        // IBM org). Nulls keep them in distinct groups.
        assert_eq!(model.error_counts, vec![1, 2]);
        assert_eq!(model.errors.len(), 3);
    }

    #[test]
    fn sizes_match_appendix() {
        let (_, _, i, j, cands) = running_example();
        let model = CoverageModel::build(&i, &j, &cands);
        assert_eq!(model.sizes, vec![3, 4]);
    }

    #[test]
    fn certainly_unexplained_detects_junk_targets() {
        let (_, _, i, j, cands) = running_example();
        let model = CoverageModel::build(&i, &j, &cands);
        assert_eq!(model.certainly_unexplained().len(), 2);
    }

    #[test]
    fn ground_duplicate_errors_merge_across_candidates() {
        let mut src = Schema::new("s");
        src.add_relation("a", &["x"]);
        src.add_relation("b", &["x"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("t", &["x"]);
        let c1 = parse_tgd("a(x) -> t(x)", &src, &tgt).unwrap();
        let c2 = parse_tgd("b(x) -> t(x)", &src, &tgt).unwrap();
        let mut i = Instance::new();
        i.insert_ground(src.rel_id("a").unwrap(), &["v"]);
        i.insert_ground(src.rel_id("b").unwrap(), &["v"]);
        let j = Instance::new(); // everything is an error
        let model = CoverageModel::build(&i, &j, &[c1, c2]);
        // Both candidates create the *same* ground tuple t(v): one group,
        // two creators — charged once per Eq. (1)'s sum over K_C − J.
        assert_eq!(model.errors.len(), 1);
        assert_eq!(model.errors[0].creators, vec![0, 1]);
    }

    #[test]
    fn groups_by_candidate_inverts_creators_once_each() {
        let group = |creators: Vec<usize>| ErrorGroup {
            creators,
            example: Tuple::ground(cms_data::RelId(0), &["err"]),
        };
        let model = CoverageModel {
            num_candidates: 4,
            targets: Vec::new(),
            sizes: vec![1; 4],
            covers: vec![Vec::new(); 4],
            errors: vec![
                group(vec![2, 0]),
                group(vec![1, 1]),
                group(vec![0, 2, 0]),
                group(vec![2]),
            ],
            error_counts: vec![0; 4],
        };
        assert_eq!(
            model.groups_by_candidate(),
            vec![vec![0, 2], vec![1], vec![0, 2, 3], vec![]]
        );
    }

    #[test]
    fn useless_candidates_have_no_covers() {
        let (_, _, i, j, mut cands) = running_example();
        // A candidate writing only junk no J tuple matches.
        let (src, tgt) = {
            let (s, t, _, _, _) = running_example();
            (s, t)
        };
        cands.push(parse_tgd("team(c, e) -> org(e, c)", &src, &tgt).unwrap());
        let model = CoverageModel::build(&i, &j, &cands);
        assert_eq!(model.useless_candidates(), vec![2]);
    }

    #[test]
    fn core_option_removes_redundant_errors() {
        // A tgd whose body ignores one column fires twice per "ML" value,
        // producing two pattern-identical error tuples; the core ablation
        // collapses them to one.
        let mut src = Schema::new("s");
        src.add_relation("a", &["x", "y"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("t", &["x", "k"]);
        let tgd = parse_tgd("a(x, y) -> t(x, n)", &src, &tgt).unwrap();
        let mut i = Instance::new();
        i.insert_ground(src.rel_id("a").unwrap(), &["ML", "1"]);
        i.insert_ground(src.rel_id("a").unwrap(), &["ML", "2"]);
        let j = Instance::new(); // everything is an error
        let canonical = CoverageModel::build(&i, &j, std::slice::from_ref(&tgd));
        assert_eq!(canonical.error_counts, vec![2], "two firings, two errors");
        let cored = CoverageModel::build_with(
            &i,
            &j,
            std::slice::from_ref(&tgd),
            &CoverageOptions { use_core: true },
        );
        assert_eq!(cored.error_counts, vec![1], "core collapses the duplicate");
    }

    #[test]
    fn null_support_spans_multiple_target_relations() {
        // a(x) -> t(x,n) & u(n) & w(n,x): one null threaded through three
        // target relations. Support for n ↦ c in any one relation comes
        // from the *other* relations' matches.
        let mut src = Schema::new("s");
        src.add_relation("a", &["x"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("t", &["x", "k"]);
        tgt.add_relation("u", &["k"]);
        tgt.add_relation("w", &["k", "x"]);
        let tgd = parse_tgd("a(x) -> t(x, n) & u(n) & w(n, x)", &src, &tgt).unwrap();
        let mut i = Instance::new();
        i.insert_ground(src.rel_id("a").unwrap(), &["v"]);

        // Full corroboration: every relation holds the consistent n ↦ c
        // image; all three covers are exact.
        let mut j = Instance::new();
        j.insert_ground(tgt.rel_id("t").unwrap(), &["v", "c"]);
        j.insert_ground(tgt.rel_id("u").unwrap(), &["c"]);
        j.insert_ground(tgt.rel_id("w").unwrap(), &["c", "v"]);
        let model = CoverageModel::build(&i, &j, std::slice::from_ref(&tgd));
        for t in 0..model.num_targets() {
            assert!(
                (model.cover(0, t) - 1.0).abs() < 1e-12,
                "target {t}: cross-relation support must make the cover exact"
            );
        }
        assert!(model.errors.is_empty());

        // Drop w from J: t and u still corroborate each other (support
        // only needs *one* other inducing occurrence), while the w tuple
        // becomes a null error.
        let mut j2 = Instance::new();
        j2.insert_ground(tgt.rel_id("t").unwrap(), &["v", "c"]);
        j2.insert_ground(tgt.rel_id("u").unwrap(), &["c"]);
        let model2 = CoverageModel::build(&i, &j2, std::slice::from_ref(&tgd));
        for t in 0..model2.num_targets() {
            assert!((model2.cover(0, t) - 1.0).abs() < 1e-12);
        }
        assert_eq!(
            model2.error_counts,
            vec![1],
            "unmatched w(n, v) is an error"
        );
        assert!(!model2.errors[0].example.is_ground());
    }

    #[test]
    fn conflicting_induced_assignments_are_not_support() {
        // a(x) -> t(x,n) & u(n,x): J induces n ↦ c1 from the t match but
        // n ↦ c2 from the u match. Conflicting assignments corroborate
        // nothing — both covers stay at the constant fraction 1/2.
        let mut src = Schema::new("s");
        src.add_relation("a", &["x"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("t", &["x", "k"]);
        tgt.add_relation("u", &["k", "x"]);
        let tgd = parse_tgd("a(x) -> t(x, n) & u(n, x)", &src, &tgt).unwrap();
        let mut i = Instance::new();
        i.insert_ground(src.rel_id("a").unwrap(), &["v"]);

        let mut j = Instance::new();
        j.insert_ground(tgt.rel_id("t").unwrap(), &["v", "c1"]);
        j.insert_ground(tgt.rel_id("u").unwrap(), &["c2", "v"]);
        let model = CoverageModel::build(&i, &j, std::slice::from_ref(&tgd));
        for t in 0..model.num_targets() {
            assert!(
                (model.cover(0, t) - 0.5).abs() < 1e-12,
                "target {t}: n ↦ c1 vs n ↦ c2 must not count as support"
            );
        }

        // Consistent assignments flip both covers to exact.
        let mut j_ok = Instance::new();
        j_ok.insert_ground(tgt.rel_id("t").unwrap(), &["v", "c"]);
        j_ok.insert_ground(tgt.rel_id("u").unwrap(), &["c", "v"]);
        let model_ok = CoverageModel::build(&i, &j_ok, std::slice::from_ref(&tgd));
        for t in 0..model_ok.num_targets() {
            assert!((model_ok.cover(0, t) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn use_core_can_retract_the_partially_covering_null_tuple() {
        // a(x) -> t(x,x) & t(x,e): the firing produces the ground t(v,v)
        // and the padded t(v,N); N retracts onto v, so the core drops the
        // null tuple. Against J = {t(v,w)} only t(v,N) matches (degree
        // 1/2) — coring therefore *lowers* the cover to 0 while the ground
        // error stays. The supported-null machinery must follow whichever
        // instance it is given.
        let mut src = Schema::new("s");
        src.add_relation("a", &["x"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("t", &["x", "y"]);
        let tgd = parse_tgd("a(x) -> t(x, x) & t(x, e)", &src, &tgt).unwrap();
        let mut i = Instance::new();
        i.insert_ground(src.rel_id("a").unwrap(), &["v"]);
        let mut j = Instance::new();
        j.insert_ground(tgt.rel_id("t").unwrap(), &["v", "w"]);

        let canonical = CoverageModel::build(&i, &j, std::slice::from_ref(&tgd));
        assert!((canonical.cover(0, 0) - 0.5).abs() < 1e-12);
        assert_eq!(canonical.error_counts, vec![1], "ground t(v,v) is an error");

        let cored = CoverageModel::build_with(
            &i,
            &j,
            std::slice::from_ref(&tgd),
            &CoverageOptions { use_core: true },
        );
        assert_eq!(cored.cover(0, 0), 0.0, "core dropped the covering tuple");
        assert_eq!(cored.error_counts, vec![1]);

        // When J matches the ground tuple exactly, coring is lossless:
        // cover stays exact and nothing becomes an error.
        let mut j_exact = Instance::new();
        j_exact.insert_ground(tgt.rel_id("t").unwrap(), &["v", "v"]);
        for options in [
            CoverageOptions::default(),
            CoverageOptions { use_core: true },
        ] {
            let model =
                CoverageModel::build_with(&i, &j_exact, std::slice::from_ref(&tgd), &options);
            assert!(
                (model.cover(0, 0) - 1.0).abs() < 1e-12,
                "use_core={}",
                options.use_core
            );
            assert!(model.errors.is_empty(), "use_core={}", options.use_core);
        }
    }

    #[test]
    fn engine_and_reference_builds_agree_on_running_example() {
        let (_, _, i, j, cands) = running_example();
        let engine = CoverageModel::build(&i, &j, &cands);
        let reference = CoverageModel::build_reference(&i, &j, &cands, &CoverageOptions::default());
        assert_eq!(engine.covers, reference.covers);
        assert_eq!(engine.sizes, reference.sizes);
        assert_eq!(engine.error_counts, reference.error_counts);
        assert_eq!(engine.errors.len(), reference.errors.len());
    }

    /// Both scorers on the same chased solutions.
    fn score_both(i: &Instance, j: &Instance, tgds: &[StTgd]) -> (CoverageModel, CoverageModel) {
        let solutions: Vec<Instance> = tgds.iter().map(|tgd| chase_one(i, tgd)).collect();
        let options = CoverageOptions::default();
        (
            CoverageModel::from_solutions(j, tgds, &solutions, &options),
            CoverageModel::from_solutions_reference(j, tgds, &solutions, &options),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The allocation-free match check is `tuple_match(..).is_some()`,
        /// including repeated nulls, arity mismatches and nulls in `t`.
        #[test]
        fn matches_agrees_with_tuple_match(
            k in prop::collection::vec(arb_value(), 1..=4),
            t in prop::collection::vec(arb_value(), 1..=4),
        ) {
            prop_assert_eq!(matches(&k, &t), tuple_match(&k, &t).is_some(), "k={:?} t={:?}", k, t);
        }
    }

    /// Two constants and two nulls: small enough that repeated nulls and
    /// agreeing constants come up often.
    fn arb_value() -> impl Strategy<Value = Value> {
        prop::sample::select(vec![
            Value::constant("a"),
            Value::constant("b"),
            Value::Null(NullId(0)),
            Value::Null(NullId(1)),
        ])
    }

    #[test]
    fn repeated_null_in_one_tuple_is_not_its_own_support() {
        // a(x) -> u(x, n, n) chases to u(v, N, N), which matches u(v, c, c)
        // and induces N ↦ c twice — but from the same tuple, so N stays
        // unsupported and the cover is the constant fraction 1/3.
        let mut src = Schema::new("s");
        src.add_relation("a", &["x"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("u", &["x", "k", "l"]);
        let tgd = parse_tgd("a(x) -> u(x, n, n)", &src, &tgt).unwrap();
        let mut i = Instance::new();
        i.insert_ground(src.rel_id("a").unwrap(), &["v"]);
        let mut j = Instance::new();
        j.insert_ground(tgt.rel_id("u").unwrap(), &["v", "c", "c"]);
        let (model, reference) = score_both(&i, &j, std::slice::from_ref(&tgd));
        assert_eq!(model.covers, vec![vec![(0, 1.0 / 3.0)]]);
        assert_eq!(model.covers, reference.covers);
        assert!(model.errors.is_empty());
    }

    #[test]
    fn two_inducing_tuples_support_each_other_whichever_asks() {
        // a(x) -> t(x, n) & u(n): t(v, N) (chased tuple 0, the first
        // inducer of N ↦ c) and u(N) (tuple 1) each lend the other support.
        let mut src = Schema::new("s");
        src.add_relation("a", &["x"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("t", &["x", "k"]);
        tgt.add_relation("u", &["k"]);
        let tgd = parse_tgd("a(x) -> t(x, n) & u(n)", &src, &tgt).unwrap();
        let mut i = Instance::new();
        i.insert_ground(src.rel_id("a").unwrap(), &["v"]);
        let mut j = Instance::new();
        j.insert_ground(tgt.rel_id("t").unwrap(), &["v", "c"]);
        j.insert_ground(tgt.rel_id("u").unwrap(), &["c"]);
        let (model, reference) = score_both(&i, &j, std::slice::from_ref(&tgd));
        assert_eq!(model.covers, vec![vec![(0, 1.0), (1, 1.0)]]);
        assert_eq!(model.covers, reference.covers);

        let shared = Inducers {
            first: 0,
            others: true,
        };
        assert!(shared.supports(0) && shared.supports(1));
        let alone = Inducers {
            first: 0,
            others: false,
        };
        assert!(!alone.supports(0), "a lone inducer is not its own support");
        assert!(alone.supports(1));
    }

    #[test]
    fn full_tgd_ground_cover_is_exact() {
        let mut src = Schema::new("s");
        src.add_relation("a", &["x", "y"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("t", &["x", "y"]);
        let c = parse_tgd("a(x, y) -> t(x, y)", &src, &tgt).unwrap();
        let mut i = Instance::new();
        i.insert_ground(src.rel_id("a").unwrap(), &["p", "q"]);
        let mut j = Instance::new();
        j.insert_ground(tgt.rel_id("t").unwrap(), &["p", "q"]);
        let model = CoverageModel::build(&i, &j, &[c]);
        assert_eq!(model.cover(0, 0), 1.0);
        assert!(model.errors.is_empty());
    }

    #[test]
    fn covers_by_target_inverts_covers() {
        use crate::selectors::test_support::{appendix_model, generated_model};
        for model in [appendix_model(), generated_model()] {
            let by_target = model.covers_by_target();
            assert_eq!(by_target.len(), model.num_targets());
            let mut inverted = vec![Vec::new(); model.num_candidates];
            for (t, covering) in by_target.iter().enumerate() {
                assert!(covering.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
                for &(c, d) in covering {
                    inverted[c].push((t, d));
                }
            }
            for cand in &mut inverted {
                cand.sort_by_key(|&(t, _)| t);
            }
            let mut covers = model.covers.clone();
            for cand in &mut covers {
                cand.sort_by_key(|&(t, _)| t);
            }
            assert_eq!(inverted, covers);
        }
    }
}
