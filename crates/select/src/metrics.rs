//! Evaluation metrics: how close is a selected mapping to the gold one?
//!
//! Two granularities, both reported in the experiments:
//!
//! * **mapping-level** — precision/recall/F1 of the selected candidate set
//!   against the gold indices;
//! * **data-level** — precision/recall/F1 of the exchanged instance
//!   `K_M = chase(I, M)` against `K_MG`, compared as multisets of
//!   null-canonicalized tuple patterns (nulls from different chases can
//!   never be equal verbatim).
//!
//! ## Data F1 without a chase
//!
//! The chase freshens nulls per firing, so no null-carrying tuple of one
//! candidate's solution `K_c` ever coincides with another candidate's,
//! while all-constant tuples can. The pattern multiset of the merged
//! exchange therefore splits into two parts added together:
//!
//! ```text
//! P(chase(I, S)) = Σ_{c ∈ S} P_null(K_c)  +  ⋃_{c ∈ S} ground(K_c)
//! ```
//!
//! the null-carrying patterns of each selected candidate's own solution,
//! counted with multiplicity, plus the *set* union of their all-constant
//! tuples. [`data_prf_from_solutions`] scores a selection from the
//! per-candidate solutions the coverage build already chased: a candidate
//! in both `S` and `G` adds its null-carrying tuples to both sides as a
//! plain count, patterns are built only for the symmetric difference, and
//! the all-constant overlap is `|GC| + |(GS ∖ GC) ∩ (GG ∖ GC)|` with `GC`
//! the common candidates' ground tuples. [`data_prf`] chases `S` and `G`
//! from scratch and is kept as the oracle the two are tested against.

use cms_data::{
    multiset_overlap, pattern_multiset, FxHashMap, FxHashSet, Instance, RelId, TuplePattern, Value,
};
use cms_tgd::{ChaseEngine, StTgd};

/// Precision / recall / F1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prf {
    /// |sel ∩ gold| / |sel|.
    pub precision: f64,
    /// |sel ∩ gold| / |gold|.
    pub recall: f64,
    /// Harmonic mean.
    pub f1: f64,
}

impl Prf {
    /// From raw counts. Empty-vs-empty counts as perfect (the selection
    /// made no mistake); empty-vs-nonempty as zero.
    pub fn from_counts(true_pos: usize, selected: usize, gold: usize) -> Prf {
        if selected == 0 && gold == 0 {
            return Prf {
                precision: 1.0,
                recall: 1.0,
                f1: 1.0,
            };
        }
        let precision = if selected == 0 {
            0.0
        } else {
            true_pos as f64 / selected as f64
        };
        let recall = if gold == 0 {
            0.0
        } else {
            true_pos as f64 / gold as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Prf {
            precision,
            recall,
            f1,
        }
    }
}

/// Mapping-level P/R/F1 of selected candidate indices vs gold indices.
pub fn mapping_prf(selected: &[usize], gold: &[usize]) -> Prf {
    let tp = selected.iter().filter(|c| gold.contains(c)).count();
    Prf::from_counts(tp, selected.len(), gold.len())
}

/// Data-level P/R/F1: exchanged instances compared as pattern multisets.
///
/// The oracle: chases the selected and the gold candidates afresh, each
/// set into one merged instance. [`data_prf_from_solutions`] answers the
/// same counts from solutions already chased, without a chase.
///
/// # Panics
///
/// If a selected or gold candidate fails chase validation
/// (`ChaseEngine::new`). [`crate::evaluate_scenario`] validates every
/// candidate while building the coverage model and reports an invalid
/// one as [`crate::SelectError::InvalidCandidate`] instead.
pub fn data_prf(
    source: &Instance,
    candidates: &[StTgd],
    selected: &[usize],
    gold: &[usize],
) -> Prf {
    // Exchange through the batched engine (merged solution per selection);
    // patterns are invariant under its null renaming.
    let exchange = |idxs: &[usize]| -> Instance {
        let picked: Vec<StTgd> = idxs.iter().map(|&i| candidates[i].clone()).collect();
        ChaseEngine::new(&picked)
            .unwrap_or_else(|e| panic!("data_prf: invalid candidate tgd: {e}"))
            .chase_merged(source)
    };
    let k_sel = exchange(selected);
    let k_gold = exchange(gold);
    let (ms, mg) = (pattern_multiset(&k_sel), pattern_multiset(&k_gold));
    let overlap = multiset_overlap(&ms, &mg);
    let n_sel: usize = ms.values().sum();
    let n_gold: usize = mg.values().sum();
    Prf::from_counts(overlap, n_sel, n_gold)
}

/// Data-level P/R/F1 of `selected` against `gold`, from `solutions` —
/// one chased universal solution per candidate, in candidate order, as
/// [`ChaseEngine::chase_all`] returns them. Bit-identical to
/// [`data_prf`] over the same source and candidates, with no chase (see
/// the module doc for the decomposition it rests on).
///
/// `selected` and `gold` must be sorted and distinct (checked in debug
/// builds); [`crate::Selection::selected`] always is.
pub fn data_prf_from_solutions(solutions: &[Instance], selected: &[usize], gold: &[usize]) -> Prf {
    debug_assert!(
        is_sorted_distinct(selected),
        "selected {selected:?} is not sorted and distinct"
    );
    debug_assert!(
        is_sorted_distinct(gold),
        "gold {gold:?} is not sorted and distinct"
    );
    let (common, sel_only, gold_only) = split_sorted(selected, gold);
    let has_null = |row: &[Value]| row.iter().any(|v| v.is_null());

    // Candidates in S ∩ G: their null-carrying tuples count on both sides
    // and always overlap; their ground tuples form GC.
    let mut common_nulls = 0usize;
    let mut ground_common: FxHashSet<(RelId, &[Value])> = FxHashSet::default();
    for &c in &common {
        for (rel, row) in solutions[c].iter_all() {
            if has_null(row) {
                common_nulls += 1;
            } else {
                ground_common.insert((rel, row));
            }
        }
    }

    // S ∖ G: null-carrying patterns with multiplicity, ground tuples
    // outside GC.
    let mut sel_patterns: FxHashMap<TuplePattern, usize> = FxHashMap::default();
    let mut sel_nulls = 0usize;
    let mut ground_sel: FxHashSet<(RelId, &[Value])> = FxHashSet::default();
    for &c in &sel_only {
        for (rel, row) in solutions[c].iter_all() {
            if has_null(row) {
                sel_nulls += 1;
                *sel_patterns.entry(TuplePattern::of(rel, row)).or_insert(0) += 1;
            } else if !ground_common.contains(&(rel, row)) {
                ground_sel.insert((rel, row));
            }
        }
    }

    // G ∖ S: each null-carrying pattern takes one unmatched S-only copy,
    // so the matches sum to the multiset overlap; each new ground tuple
    // outside GC overlaps iff S ∖ G produced it too.
    let mut gold_nulls = 0usize;
    let mut null_overlap = 0usize;
    let mut ground_gold: FxHashSet<(RelId, &[Value])> = FxHashSet::default();
    let mut ground_overlap = ground_common.len();
    for &c in &gold_only {
        for (rel, row) in solutions[c].iter_all() {
            if has_null(row) {
                gold_nulls += 1;
                if let Some(left) = sel_patterns.get_mut(&TuplePattern::of(rel, row)) {
                    if *left > 0 {
                        *left -= 1;
                        null_overlap += 1;
                    }
                }
            } else if !ground_common.contains(&(rel, row))
                && ground_gold.insert((rel, row))
                && ground_sel.contains(&(rel, row))
            {
                ground_overlap += 1;
            }
        }
    }

    Prf::from_counts(
        common_nulls + null_overlap + ground_overlap,
        common_nulls + sel_nulls + ground_common.len() + ground_sel.len(),
        common_nulls + gold_nulls + ground_common.len() + ground_gold.len(),
    )
}

/// True iff `idxs` is strictly ascending (sorted, no repeats).
pub(crate) fn is_sorted_distinct(idxs: &[usize]) -> bool {
    idxs.windows(2).all(|w| w[0] < w[1])
}

/// Merge two sorted, distinct index lists into `(a ∩ b, a ∖ b, b ∖ a)`.
fn split_sorted(a: &[usize], b: &[usize]) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let (mut both, mut a_only, mut b_only) = (Vec::new(), Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                a_only.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                b_only.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                both.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    a_only.extend_from_slice(&a[i..]);
    b_only.extend_from_slice(&b[j..]);
    (both, a_only, b_only)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cms_data::{RelId, Schema};
    use cms_tgd::parse_tgd;

    #[test]
    fn mapping_prf_basic() {
        let p = mapping_prf(&[0, 2], &[0, 1]);
        assert!((p.precision - 0.5).abs() < 1e-12);
        assert!((p.recall - 0.5).abs() < 1e-12);
        assert!((p.f1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn perfect_and_empty_edge_cases() {
        let perfect = mapping_prf(&[1, 2], &[1, 2]);
        assert_eq!(perfect.f1, 1.0);
        let both_empty = mapping_prf(&[], &[]);
        assert_eq!(both_empty.f1, 1.0);
        let nothing_selected = mapping_prf(&[], &[0]);
        assert_eq!(nothing_selected.f1, 0.0);
        assert_eq!(nothing_selected.precision, 0.0);
        let all_wrong = mapping_prf(&[5], &[0]);
        assert_eq!(all_wrong.f1, 0.0);
    }

    #[test]
    fn data_prf_identical_selection_is_perfect() {
        let mut src = Schema::new("s");
        src.add_relation("a", &["x", "y"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("t", &["x", "z"]);
        let c0 = parse_tgd("a(x, y) -> t(x, e)", &src, &tgt).unwrap();
        let c1 = parse_tgd("a(x, y) -> t(y, x)", &src, &tgt).unwrap();
        let mut i = Instance::new();
        i.insert_ground(RelId(0), &["p", "q"]);
        i.insert_ground(RelId(0), &["r", "s"]);
        let p = data_prf(&i, &[c0.clone(), c1.clone()], &[0], &[0]);
        assert_eq!(p.f1, 1.0);
        // Different candidate: no pattern overlap.
        let p = data_prf(&i, &[c0, c1], &[1], &[0]);
        assert_eq!(p.f1, 0.0);
    }

    #[test]
    fn data_prf_superset_selection_loses_precision() {
        let mut src = Schema::new("s");
        src.add_relation("a", &["x"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("t", &["x"]);
        tgt.add_relation("u", &["x"]);
        let good = parse_tgd("a(x) -> t(x)", &src, &tgt).unwrap();
        let extra = parse_tgd("a(x) -> u(x)", &src, &tgt).unwrap();
        let mut i = Instance::new();
        i.insert_ground(RelId(0), &["v"]);
        let p = data_prf(&i, &[good, extra], &[0, 1], &[0]);
        assert!((p.precision - 0.5).abs() < 1e-12);
        assert!((p.recall - 1.0).abs() < 1e-12);
    }

    /// Both metrics over `candidates`, the fast one from `chase_all`.
    fn both_metrics(
        i: &Instance,
        candidates: &[StTgd],
        selected: &[usize],
        gold: &[usize],
    ) -> (Prf, Prf) {
        let solutions = ChaseEngine::new(candidates).unwrap().chase_all(i);
        (
            data_prf_from_solutions(&solutions, selected, gold),
            data_prf(i, candidates, selected, gold),
        )
    }

    #[test]
    fn shared_ground_tuple_of_selected_only_and_gold_only_overlaps() {
        // c0 (selected only) and c1 (gold only) both produce t(v); c2
        // (common) produces t(w) and u(w, N); c3 (gold only) produces
        // u(v, N).
        let mut src = Schema::new("s");
        src.add_relation("a", &["x"]);
        src.add_relation("b", &["x"]);
        src.add_relation("c", &["x"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("t", &["x"]);
        tgt.add_relation("u", &["x", "k"]);
        let candidates = [
            parse_tgd("a(x) -> t(x)", &src, &tgt).unwrap(),
            parse_tgd("b(x) -> t(x)", &src, &tgt).unwrap(),
            parse_tgd("c(y) -> t(y) & u(y, e)", &src, &tgt).unwrap(),
            parse_tgd("b(x) -> u(x, n)", &src, &tgt).unwrap(),
        ];
        let mut i = Instance::new();
        i.insert_ground(RelId(0), &["v"]);
        i.insert_ground(RelId(1), &["v"]);
        i.insert_ground(RelId(2), &["w"]);
        let (fast, oracle) = both_metrics(&i, &candidates, &[0, 2], &[1, 2, 3]);
        assert_eq!(fast, oracle);
        // Selected: t(v), t(w), u(w, #0). Gold: those and u(v, #0).
        assert_eq!(fast, Prf::from_counts(3, 3, 4));
    }

    #[test]
    fn fast_metric_agrees_with_the_oracle_on_the_small_cases() {
        let mut src = Schema::new("s");
        src.add_relation("a", &["x", "y"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("t", &["x", "z"]);
        tgt.add_relation("u", &["x"]);
        let candidates = [
            parse_tgd("a(x, y) -> t(x, e)", &src, &tgt).unwrap(),
            parse_tgd("a(x, y) -> t(y, x)", &src, &tgt).unwrap(),
            parse_tgd("a(y, x) -> t(y, n)", &src, &tgt).unwrap(),
            parse_tgd("a(x, y) -> u(x)", &src, &tgt).unwrap(),
        ];
        let mut i = Instance::new();
        i.insert_ground(RelId(0), &["p", "q"]);
        i.insert_ground(RelId(0), &["p", "s"]);
        i.insert_ground(RelId(0), &["q", "p"]);
        let sets: [&[usize]; 7] = [&[], &[0], &[1], &[2], &[0, 2], &[1, 3], &[0, 1, 2, 3]];
        for selected in sets {
            for gold in sets {
                let (fast, oracle) = both_metrics(&i, &candidates, selected, gold);
                assert_eq!(fast, oracle, "selected {selected:?} gold {gold:?}");
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not sorted and distinct")]
    fn unsorted_indices_are_rejected_in_debug_builds() {
        data_prf_from_solutions(&[Instance::new(), Instance::new()], &[1, 0], &[0]);
    }

    #[test]
    fn data_prf_is_null_renaming_invariant() {
        let mut src = Schema::new("s");
        src.add_relation("a", &["x"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("t", &["x", "k"]);
        // Two structurally equal candidates written separately: their
        // chases use different nulls, but patterns agree.
        let c0 = parse_tgd("a(x) -> t(x, e)", &src, &tgt).unwrap();
        let c1 = parse_tgd("a(y) -> t(y, n)", &src, &tgt).unwrap();
        let mut i = Instance::new();
        i.insert_ground(RelId(0), &["v"]);
        let p = data_prf(&i, &[c0, c1], &[0], &[1]);
        assert_eq!(p.f1, 1.0);
    }
}
