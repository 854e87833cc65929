//! Property-based tests for the objective and the exact selectors, on
//! randomly constructed coverage models (built directly, no chase — the
//! chase path is covered by the tgd crate's properties and the
//! integration tests).

use cms_data::{RelId, Tuple};
use cms_select::{
    preprocess, BranchBound, CoverageModel, ErrorGroup, Exhaustive, Greedy, IncrementalObjective,
    LocalSearch, Objective, ObjectiveWeights, PslCollective, Selector,
};
use proptest::prelude::*;

/// A random coverage model with `n_cand ≤ 7`, `n_targets ≤ 8`. Error
/// groups may list a creator more than once (`creators` is public and
/// nothing forbids it); each such group still counts once.
fn arb_model() -> impl Strategy<Value = CoverageModel> {
    let n_cand = 1usize..=7;
    let n_tgt = 1usize..=8;
    (n_cand, n_tgt).prop_flat_map(|(nc, nt)| {
        let covers =
            prop::collection::vec(prop::collection::vec((0..nt, 1u32..=4), 0..nt), nc..=nc);
        let sizes = prop::collection::vec(2usize..=6, nc..=nc);
        let errors = prop::collection::vec(prop::collection::vec(0..nc, 1..=nc.min(3)), 0..4);
        (covers, sizes, errors).prop_map(move |(covers, sizes, errors)| {
            let covers: Vec<Vec<(usize, f64)>> = covers
                .into_iter()
                .map(|list| {
                    let mut best: std::collections::BTreeMap<usize, f64> = Default::default();
                    for (t, q) in list {
                        let d = q as f64 / 4.0;
                        let e = best.entry(t).or_insert(0.0);
                        if d > *e {
                            *e = d;
                        }
                    }
                    best.into_iter().collect()
                })
                .collect();
            let errors: Vec<ErrorGroup> = errors
                .into_iter()
                .map(|creators| ErrorGroup {
                    creators,
                    example: Tuple::ground(RelId(0), &["err"]),
                })
                .collect();
            let mut error_counts = vec![0usize; nc];
            for g in &errors {
                let mut distinct = g.creators.clone();
                distinct.sort_unstable();
                distinct.dedup();
                for c in distinct {
                    error_counts[c] += 1;
                }
            }
            CoverageModel {
                num_candidates: nc,
                targets: (0..nt)
                    .map(|t| Tuple::ground(RelId(0), &[&format!("t{t}")]))
                    .collect(),
                sizes,
                covers,
                errors,
                error_counts,
            }
        })
    })
}

/// Random objective weights, each in `[0, 3)`.
fn arb_weights() -> impl Strategy<Value = ObjectiveWeights> {
    (0.0f64..3.0, 0.0f64..3.0, 0.0f64..3.0).prop_map(|(w_explain, w_error, w_size)| {
        ObjectiveWeights {
            w_explain,
            w_error,
            w_size,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// F({}) = w1 · |targets|; F is bounded below by w3·size of the
    /// selection; components are non-negative.
    #[test]
    fn objective_basic_identities(model in arb_model()) {
        let w = ObjectiveWeights::unweighted();
        let f = Objective::new(&model, w);
        prop_assert!((f.value(&[]) - model.num_targets() as f64).abs() < 1e-9);
        let all: Vec<usize> = (0..model.num_candidates).collect();
        let (u, e, s) = f.components(&all);
        prop_assert!(u >= -1e-12 && e >= 0.0 && s >= 0.0);
        let total_size: usize = model.sizes.iter().sum();
        prop_assert!((s - total_size as f64).abs() < 1e-9);
        prop_assert!(f.value(&all) >= s - 1e-9);
    }

    /// The PSL relaxation at an integral selection (capped sum of covers)
    /// never exceeds `F` (max of covers), and equals it bit for bit when
    /// no target has two selected coverers: then every sum is a max.
    #[test]
    fn relaxed_value_lower_bounds_the_objective(
        model in arb_model(),
        weights in arb_weights(),
        bits in prop::collection::vec(any::<bool>(), 7),
    ) {
        let f = Objective::new(&model, weights);
        let selection: Vec<usize> = (0..model.num_candidates).filter(|&c| bits[c]).collect();
        let (relaxed, exact) = (f.relaxed_value(&selection), f.value(&selection));
        prop_assert!(relaxed <= exact, "relaxed {} > F {}", relaxed, exact);
        let mut coverers = vec![0usize; model.num_targets()];
        for &c in &selection {
            for &(t, _) in &model.covers[c] {
                coverers[t] += 1;
            }
        }
        if coverers.iter().all(|&n| n <= 1) {
            prop_assert_eq!(relaxed.to_bits(), exact.to_bits());
        }
    }

    /// `components` partitions the useful candidates: each lies in
    /// exactly one component, and no target or error group reaches into
    /// two of them.
    #[test]
    fn components_partition_the_useful_candidates(model in arb_model()) {
        let useful: Vec<usize> =
            (0..model.num_candidates).filter(|&c| !model.covers[c].is_empty()).collect();
        let components = model.components(&useful);
        let mut component_of = vec![None; model.num_candidates];
        for (k, comp) in components.iter().enumerate() {
            prop_assert!(!comp.is_empty() && comp.windows(2).all(|p| p[0] < p[1]));
            for &c in comp {
                prop_assert!(component_of[c].is_none(), "candidate {c} in two components");
                component_of[c] = Some(k);
            }
        }
        for &c in &useful {
            prop_assert!(component_of[c].is_some(), "candidate {c} in no component");
        }
        prop_assert!(components.windows(2).all(|p| p[0][0] < p[1][0]));
        let mut target_owner = vec![None; model.num_targets()];
        for &c in &useful {
            for &(t, _) in &model.covers[c] {
                let k = component_of[c];
                prop_assert!(target_owner[t].is_none_or(|o| o == k), "target {t} spans two");
                target_owner[t] = Some(k);
            }
        }
        for (g, group) in model.errors.iter().enumerate() {
            let mut ks = group.creators.iter().filter_map(|&c| component_of[c]);
            if let Some(first) = ks.next() {
                prop_assert!(ks.all(|k| k == first), "error group {g} spans two");
            }
        }
    }

    /// Exhaustive and branch-and-bound agree exactly, unweighted and
    /// weighted.
    #[test]
    fn exact_selectors_agree(model in arb_model(), weighted in arb_weights()) {
        for w in [ObjectiveWeights::unweighted(), weighted] {
            let ex = Exhaustive::default().select(&model, &w).unwrap();
            let bb = BranchBound::default().select(&model, &w).unwrap();
            prop_assert!((ex.objective - bb.objective).abs() < 1e-9,
                "exhaustive {} vs bb {} at {w:?}", ex.objective, bb.objective);
            let f = Objective::new(&model, w);
            prop_assert!((f.value(&bb.selected) - bb.objective).abs() < 1e-9,
                "bb misreports its own objective at {w:?}");
        }
    }

    /// No heuristic ever reports a better value than the exact optimum,
    /// and every reported value re-evaluates to itself.
    #[test]
    fn heuristics_bounded_by_exact(model in arb_model()) {
        let w = ObjectiveWeights::unweighted();
        let f = Objective::new(&model, w);
        let exact = Exhaustive::default().select(&model, &w).unwrap();
        for selector in [
            Box::new(Greedy) as Box<dyn Selector>,
            Box::new(LocalSearch { restarts: 2, seed: 1, ..LocalSearch::default() }),
            Box::new(PslCollective::default()),
        ] {
            let sel = selector.select(&model, &w).unwrap();
            prop_assert!(sel.objective >= exact.objective - 1e-9,
                "{} below optimum", selector.name());
            prop_assert!((f.value(&sel.selected) - sel.objective).abs() < 1e-9,
                "{} misreports its own objective", selector.name());
        }
    }

    /// PSL with greedy repair is never worse than plain greedy.
    #[test]
    fn psl_repair_dominates_greedy(model in arb_model()) {
        let w = ObjectiveWeights::unweighted();
        let greedy = Greedy.select(&model, &w).unwrap();
        let psl = PslCollective::default().select(&model, &w).unwrap();
        prop_assert!(psl.objective <= greedy.objective + 1e-9,
            "psl {} vs greedy {}", psl.objective, greedy.objective);
    }

    /// Preprocessing shifts the objective by exactly the constant, for
    /// every selection.
    #[test]
    fn preprocess_preserves_objective(model in arb_model()) {
        let w = ObjectiveWeights::unweighted();
        let (reduced, report) = preprocess(&model);
        let f_full = Objective::new(&model, w);
        let f_red = Objective::new(&reduced, w);
        let constant = report.certain_unexplained as f64;
        for subset in 0u32..(1 << model.num_candidates.min(5)) {
            let sel: Vec<usize> =
                (0..model.num_candidates.min(5)).filter(|&b| subset & (1 << b) != 0).collect();
            prop_assert!((f_full.value(&sel) - (f_red.value(&sel) + constant)).abs() < 1e-9);
        }
    }

    /// Weighted objective is linear in the weights: F_w = w1·U + w2·E + w3·S
    /// where (U, E, S) are the unit components.
    #[test]
    fn objective_linear_in_weights(model in arb_model(), w1 in 0.0f64..3.0, w2 in 0.0f64..3.0, w3 in 0.0f64..3.0) {
        let unit = Objective::new(&model, ObjectiveWeights::unweighted());
        let weighted = Objective::new(&model, ObjectiveWeights { w_explain: w1, w_error: w2, w_size: w3 });
        let all: Vec<usize> = (0..model.num_candidates).collect();
        for sel in [vec![], vec![0], all] {
            let (u, e, s) = unit.components(&sel);
            prop_assert!((weighted.value(&sel) - (w1 * u + w2 * e + w3 * s)).abs() < 1e-9);
        }
    }

    /// The incremental evaluator agrees with the reference evaluator after
    /// any sequence of adds/removes, and its probe deltas match the
    /// subsequent applied change.
    #[test]
    fn incremental_matches_naive(
        model in arb_model(),
        w in arb_weights(),
        ops in prop::collection::vec((0usize..7, any::<bool>()), 1..24),
    ) {
        let naive = Objective::new(&model, w);
        let mut inc = IncrementalObjective::new(&model, w);
        for (raw, add) in ops {
            let c = raw % model.num_candidates;
            let before = inc.value();
            if add {
                let delta = inc.delta_add(c);
                inc.add(c);
                prop_assert!((inc.value() - (before + delta)).abs() < 1e-9);
            } else {
                let delta = inc.delta_remove(c);
                inc.remove(c);
                prop_assert!((inc.value() - (before + delta)).abs() < 1e-9);
            }
            let sel = inc.selection();
            prop_assert!((inc.value() - naive.value(&sel)).abs() < 1e-9,
                "incremental {} vs naive {} at {sel:?}", inc.value(), naive.value(&sel));
        }
    }
}
