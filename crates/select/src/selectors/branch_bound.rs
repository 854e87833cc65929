//! Exact branch-and-bound search, one independent component at a time.
//!
//! ## Separability
//!
//! Eq. (9) is a sum over targets, error groups and candidates, and two
//! candidates interact only through a target both cover or an error group
//! both create. So `F` separates over the connected components of that
//! graph ([`CoverageModel::components`]): the optimum is the union of each
//! component's optimum, and selection is NP-hard (appendix §III) only
//! inside a component. The search runs once per component of the useful
//! candidates, smallest first (ascending size, then smallest candidate),
//! over the full model's arrays: nothing is copied per component.
//!
//! ## The search inside a component
//!
//! Depth-first over the component's candidates (in the global order of
//! descending cover mass) deciding include/exclude. At each node the
//! **lower bound** combines what can only grow with what can only shrink:
//!
//! ```text
//! bound = w1 · Σ_t (1 − max(cur(t), suffix_i(t)))  // undecided included for free
//!       + w2 · errors(included so far)              // errors only grow
//!       + w3 · size(included so far)                // size only grows
//! ```
//!
//! where `t` ranges over the component's targets, `cur(t)` is the best
//! cover of `t` by the included candidates and `suffix_i(t)` the best
//! cover by any undecided one. The bound is admissible: any completion of
//! the node has objective ≥ bound, so pruning at `bound ≥ best − 1e-12`
//! preserves exactness. Worst-case time remains exponential in the largest
//! component, but the bound collapses most of the search space on the
//! scenario families we generate.
//!
//! A node costs O(|covers(θ)| + |groups(θ)|) for its candidate θ, not
//! O(|J| + |groups|): the search keeps its state incrementally.
//!
//! * `cur_cover` is raised on include over `covers(θ)` and restored from
//!   one reused `touched` stack on backtrack.
//! * `group_hits` counts the included creators of each error group
//!   (through [`CoverageModel::groups_by_candidate`]), and `cur_errors`
//!   the groups with a hit; both are undone on backtrack.
//! * The optimistic sum is passed to each child by value. The include
//!   child inherits it unchanged (θ's covers move from the suffix into
//!   `cur`, so no `max` changes); the exclude child adjusts it only at the
//!   targets where θ raised the suffix maximum. Float drift therefore
//!   accumulates along one path only, at most depth ulps, far below the
//!   1e-12 prune slack.
//!
//! The suffix maxima are built once over the global order: a target's
//! covering candidates all lie in one component, so restricting the order
//! to a component leaves its suffix steps unchanged. Leaves sum `1 − cur(t)`
//! over the component's targets, so incumbent values are exact.
//!
//! ## Ties
//!
//! Each component starts with no incumbent (`+∞`), so its include-first
//! DFS returns its first optimal leaf in the global order. The optima of
//! the components combine into the first optimal leaf of one search over
//! the whole model, so the selections are those of that search, up to
//! ties that float noise decides. That search started from the empty
//! selection as its incumbent, so when the summed optimum does not beat
//! `F(∅)` by more than the prune slack, the selector returns ∅ too.
//!
//! ## Budget and fallback
//!
//! [`BranchBound::node_budget`] bounds the nodes of one call, across all
//! components. A component the budget cuts off (the one it runs out in,
//! and every later one) keeps the best of its own incumbent, ∅, and
//! greedy restricted to the component. The objective separates, so that
//! restriction equals greedy run on the component alone, and a truncated
//! search is never worse than greedy. [`Selection::note`] then names the
//! components cut off; it stays empty if and only if every component
//! finished, i.e. the result is exact.

use super::greedy::greedy_from;
use super::{useful_candidates, SelectError, Selection, Selector};
use crate::coverage::CoverageModel;
use crate::objective::{Objective, ObjectiveWeights};

/// Exact branch-and-bound selector.
#[derive(Clone, Debug, Default)]
pub struct BranchBound {
    /// Optional node budget per call, shared by all components; `None` =
    /// unbounded (exact). The components it cuts off fall back to the best
    /// of their partial search, ∅ and greedy (then the result is only a
    /// heuristic, and the note says so).
    pub node_budget: Option<usize>,
}

struct Search<'a> {
    model: &'a CoverageModel,
    weights: ObjectiveWeights,
    /// The component being searched, in the global cover-mass order.
    order: Vec<usize>,
    /// The component's targets, ascending.
    targets: Vec<usize>,
    /// `raised[c]`: the `(t, lo, hi)` steps by which candidate `c` raised
    /// the suffix max-cover of `t` from `lo` (over the candidates after
    /// `c` in the order) to `hi`.
    raised: Vec<Vec<(usize, f64, f64)>>,
    /// Error groups per candidate ([`CoverageModel::groups_by_candidate`]).
    groups: Vec<Vec<usize>>,
    /// Best cover of each target by the included candidates.
    cur_cover: Vec<f64>,
    /// Included creators per error group.
    group_hits: Vec<usize>,
    /// Error groups with at least one included creator.
    cur_errors: usize,
    /// `(target, previous cover)` entries to restore on backtrack.
    touched: Vec<(usize, f64)>,
    included: Vec<usize>,
    best_value: f64,
    best_set: Vec<usize>,
    nodes: usize,
    budget: usize,
    truncated: bool,
}

impl Search<'_> {
    /// DFS at position `i` of the component's order. `included`,
    /// `cur_cover` and `cur_errors` hold the state of the decisions so
    /// far; `optimistic` is `Σ_t 1 − max(cur_cover[t], suffix_i(t))` over
    /// the component's targets and `cur_size` the total size of the
    /// included candidates.
    fn dfs(&mut self, i: usize, optimistic: f64, cur_size: f64) {
        if self.nodes == self.budget {
            self.truncated = true;
            return;
        }
        self.nodes += 1;

        // Leaf: exact objective.
        if i == self.order.len() {
            let value = self.value(cur_size);
            if value < self.best_value {
                self.best_value = value;
                self.best_set = self.included.clone();
            }
            return;
        }

        // Lower bound with all remaining candidates included for free.
        let bound = self.weights.w_explain * optimistic
            + self.weights.w_error * self.cur_errors as f64
            + self.weights.w_size * cur_size;
        if bound >= self.best_value - 1e-12 {
            return;
        }

        let cand = self.order[i];
        // Branch 1: include.
        let mark = self.include(cand);
        let size = self.model.sizes[cand] as f64;
        self.dfs(i + 1, optimistic, cur_size + size);
        self.undo(cand, mark);
        // Branch 2: exclude — the suffix drops back at the targets
        // `cand` raised.
        let mut excluded = optimistic;
        for &(t, lo, hi) in &self.raised[cand] {
            let cur = self.cur_cover[t];
            excluded += cur.max(hi) - cur.max(lo);
        }
        self.dfs(i + 1, excluded, cur_size);
    }

    /// Make `comp` the component to search, in the global order given by
    /// `position`, with no incumbent; returns the root's optimistic sum
    /// over the suffix max-cover `suffix`.
    fn enter(&mut self, comp: &[usize], position: &[usize], suffix: &[f64]) -> f64 {
        self.order.clear();
        self.order.extend_from_slice(comp);
        self.order.sort_unstable_by_key(|&c| position[c]);
        self.targets.clear();
        for &c in comp {
            self.targets
                .extend(self.model.covers[c].iter().map(|&(t, _)| t));
        }
        self.targets.sort_unstable();
        self.targets.dedup();
        self.best_value = f64::INFINITY;
        self.best_set.clear();
        // Nothing is included at the root, so max(cur, suffix) = suffix.
        self.targets.iter().map(|&t| 1.0 - suffix[t]).sum()
    }

    /// The component's share of `F` at the current state: its targets'
    /// unexplained mass, the error groups hit and `cur_size`.
    fn value(&self, cur_size: f64) -> f64 {
        let unexplained: f64 = self.targets.iter().map(|&t| 1.0 - self.cur_cover[t]).sum();
        self.weights.w_explain * unexplained
            + self.weights.w_error * self.cur_errors as f64
            + self.weights.w_size * cur_size
    }

    /// Include `cand`; returns the `touched` mark [`Search::undo`] needs.
    fn include(&mut self, cand: usize) -> usize {
        let mark = self.touched.len();
        for &(t, d) in &self.model.covers[cand] {
            if d > self.cur_cover[t] {
                self.touched.push((t, self.cur_cover[t]));
                self.cur_cover[t] = d;
            }
        }
        for &g in &self.groups[cand] {
            if self.group_hits[g] == 0 {
                self.cur_errors += 1;
            }
            self.group_hits[g] += 1;
        }
        self.included.push(cand);
        mark
    }

    /// Undo the last [`Search::include`], of `cand` at `mark`.
    fn undo(&mut self, cand: usize, mark: usize) {
        self.included.pop();
        for &g in &self.groups[cand] {
            self.group_hits[g] -= 1;
            if self.group_hits[g] == 0 {
                self.cur_errors -= 1;
            }
        }
        for (t, old) in self.touched.drain(mark..).rev() {
            self.cur_cover[t] = old;
        }
    }

    /// The component's share of `F` at selection `set` (a subset of the
    /// component), from the empty state.
    fn value_of(&mut self, set: &[usize]) -> f64 {
        let marks: Vec<usize> = set.iter().map(|&c| self.include(c)).collect();
        let size: usize = set.iter().map(|&c| self.model.sizes[c]).sum();
        let value = self.value(size as f64);
        for (&c, &mark) in set.iter().zip(&marks).rev() {
            self.undo(c, mark);
        }
        value
    }
}

impl Selector for BranchBound {
    fn name(&self) -> &str {
        "branch-bound"
    }

    fn select(
        &self,
        model: &CoverageModel,
        weights: &ObjectiveWeights,
    ) -> Result<Selection, SelectError> {
        let useful = useful_candidates(model);
        let mut order = useful.clone();
        // Heaviest covers first: good incumbents early ⇒ tighter pruning.
        order.sort_by(|&a, &b| {
            let mass = |c: usize| -> f64 { model.covers[c].iter().map(|&(_, d)| d).sum() };
            mass(b).total_cmp(&mass(a))
        });
        let mut position = vec![usize::MAX; model.num_candidates];
        for (i, &c) in order.iter().enumerate() {
            position[c] = i;
        }
        // Suffix max-cover, built from the back; only its raises are kept.
        let nt = model.num_targets();
        let mut suffix = vec![0.0f64; nt];
        let mut raised = vec![Vec::new(); model.num_candidates];
        for &c in order.iter().rev() {
            for &(t, d) in &model.covers[c] {
                if d > suffix[t] {
                    raised[c].push((t, suffix[t], d));
                    suffix[t] = d;
                }
            }
        }
        let mut components = model.components(&useful);
        components.sort_by_key(|comp| (comp.len(), comp[0]));

        let mut search = Search {
            model,
            weights: *weights,
            order: Vec::new(),
            targets: Vec::new(),
            raised,
            groups: model.groups_by_candidate(),
            cur_cover: vec![0.0; nt],
            group_hits: vec![0; model.errors.len()],
            cur_errors: 0,
            touched: Vec::new(),
            included: Vec::new(),
            best_value: f64::INFINITY,
            best_set: Vec::new(),
            nodes: 0,
            budget: self.node_budget.unwrap_or(usize::MAX),
            truncated: false,
        };
        let mut selected = Vec::new();
        // Σ over components of (optimum − value of ∅).
        let mut improvement = 0.0;
        let mut greedy: Option<Vec<bool>> = None;
        let mut cut_off = Vec::new();
        for comp in &components {
            let optimistic = search.enter(comp, &position, &suffix);
            let empty = weights.w_explain * search.targets.len() as f64;
            if !search.truncated {
                search.dfs(0, optimistic, 0.0);
            }
            let (mut best, mut set) = (search.best_value, std::mem::take(&mut search.best_set));
            if search.truncated {
                cut_off.push(comp);
                if empty < best {
                    (best, set) = (empty, Vec::new());
                }
                let in_greedy = greedy.get_or_insert_with(|| {
                    let mut mask = vec![false; model.num_candidates];
                    for c in greedy_from(model, weights, Vec::new()).0 {
                        mask[c] = true;
                    }
                    mask
                });
                let restricted: Vec<usize> =
                    comp.iter().copied().filter(|&c| in_greedy[c]).collect();
                let value = search.value_of(&restricted);
                if value < best {
                    (best, set) = (value, restricted);
                }
            }
            improvement += best - empty;
            selected.extend(set);
        }
        if improvement >= -1e-12 {
            selected.clear();
        }

        let objective = Objective::new(model, *weights).value(&selected);
        let mut sel = Selection::new(selected, objective, search.nodes);
        if !cut_off.is_empty() {
            let names: Vec<String> = cut_off.iter().map(|comp| format!("{comp:?}")).collect();
            sel.note = format!(
                "node budget {} exhausted; heuristic result: {} of {} components cut off \
                 (each keeps the best of its partial search, ∅ and greedy): {}",
                search.budget,
                cut_off.len(),
                components.len(),
                names.join(" ")
            );
        }
        Ok(sel)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{appendix_model, known_optimum_model};
    use super::super::Exhaustive;
    use super::*;
    use crate::reduction::{build_reduction, SetCoverInstance};

    #[test]
    fn matches_exhaustive_on_known_instances() {
        let (model, best) = known_optimum_model();
        let sel = BranchBound::default()
            .select(&model, &ObjectiveWeights::unweighted())
            .unwrap();
        assert!((sel.objective - best).abs() < 1e-9);

        let model = appendix_model();
        let sel = BranchBound::default()
            .select(&model, &ObjectiveWeights::unweighted())
            .unwrap();
        assert!(sel.selected.is_empty());
        assert!((sel.objective - 4.0).abs() < 1e-9);
    }

    #[test]
    fn nan_cover_mass_selects_without_panicking() {
        // `covers` is public, so a caller can hand in a non-finite degree;
        // ordering by cover mass must not panic on it.
        let (mut model, _) = known_optimum_model();
        model.covers[1][0].1 = f64::NAN;
        let sel = BranchBound::default()
            .select(&model, &ObjectiveWeights::unweighted())
            .unwrap();
        assert!(sel.selected.iter().all(|&c| c < model.num_candidates));
    }

    #[test]
    fn agrees_with_exhaustive_on_random_set_covers() {
        // Deterministic pseudo-random family.
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..10 {
            let universe = 5 + (next() % 4) as usize;
            let n_sets = 4 + (next() % 5) as usize;
            let sets: Vec<Vec<usize>> = (0..n_sets)
                .map(|_| {
                    let mut s: Vec<usize> = (0..universe).filter(|_| next() % 3 == 0).collect();
                    if s.is_empty() {
                        s.push((next() % universe as u64) as usize);
                    }
                    s
                })
                .collect();
            let sc = SetCoverInstance {
                universe,
                sets,
                bound: 2,
            };
            let red = build_reduction(&sc);
            let model = CoverageModel::build(&red.source, &red.target, &red.candidates);
            let w = ObjectiveWeights::unweighted();
            let exact = Exhaustive::default().select(&model, &w).unwrap();
            let bb = BranchBound::default().select(&model, &w).unwrap();
            assert!(
                (exact.objective - bb.objective).abs() < 1e-9,
                "trial {trial}: exhaustive {} vs B&B {}",
                exact.objective,
                bb.objective
            );
        }
    }

    #[test]
    fn prunes_relative_to_exhaustive() {
        let (model, _) = known_optimum_model();
        let bb = BranchBound::default()
            .select(&model, &ObjectiveWeights::unweighted())
            .unwrap();
        // Full tree would be 2^5 - 1 internal+leaf nodes per root... just
        // assert the node count is bounded by the full enumeration count.
        assert!(bb.evaluations <= 31, "nodes = {}", bb.evaluations);
    }

    /// Node counts and selections pinned, so that a change to the bound,
    /// the order or the component split is a visible decision. The EX6
    /// scenario pin lives in `tests/branch_bound_nodes.rs`.
    #[test]
    fn node_counts_and_selections_are_pinned() {
        let w = ObjectiveWeights::unweighted();
        let (model, _) = known_optimum_model();
        let sel = BranchBound::default().select(&model, &w).unwrap();
        assert_eq!((sel.evaluations, sel.selected), (21, vec![0, 2]));

        // One component of two candidates, searched from no incumbent: the
        // full two-level tree.
        let sel = BranchBound::default()
            .select(&appendix_model(), &w)
            .unwrap();
        assert_eq!((sel.evaluations, sel.selected), (7, vec![]));
    }

    #[test]
    fn node_budget_truncates_gracefully() {
        let (model, _) = known_optimum_model();
        let sel = BranchBound {
            node_budget: Some(3),
        }
        .select(&model, &ObjectiveWeights::unweighted())
        .unwrap();
        assert!(sel.note.contains("budget"));
        // Still returns something coherent: no worse than ∅ or greedy.
        let w = ObjectiveWeights::unweighted();
        let greedy = super::super::Greedy.select(&model, &w).unwrap();
        assert!(sel.objective <= greedy.objective.min(20.0) + 1e-9);
    }

    /// Small generated scenarios whose model splits into at least two
    /// components and whose useful candidates stay within `Exhaustive`'s
    /// reach.
    fn multi_component_models() -> Vec<CoverageModel> {
        let mut models = Vec::new();
        for seed in 0..6 {
            let scenario = cms_ibench::generate(&cms_ibench::ScenarioConfig {
                rows_per_relation: 5,
                noise: cms_ibench::NoiseConfig::uniform(25.0),
                seed,
                ..cms_ibench::ScenarioConfig::all_primitives(1)
            });
            let model =
                CoverageModel::build(&scenario.source, &scenario.target, &scenario.candidates);
            let useful = useful_candidates(&model);
            if useful.len() <= 20 && model.components(&useful).len() >= 2 {
                models.push(model);
            }
        }
        models
    }

    #[test]
    fn agrees_with_exhaustive_on_multi_component_scenarios() {
        let models = multi_component_models();
        assert!(models.len() >= 5, "only {} models qualify", models.len());
        let weighted = ObjectiveWeights {
            w_explain: 2.0,
            w_error: 0.5,
            w_size: 0.25,
        };
        for (k, model) in models.iter().enumerate() {
            for w in [ObjectiveWeights::unweighted(), weighted] {
                let exact = Exhaustive {
                    max_candidates: Some(20),
                }
                .select(model, &w)
                .unwrap();
                let bb = BranchBound::default().select(model, &w).unwrap();
                assert!(
                    (exact.objective - bb.objective).abs() < 1e-9,
                    "model {k} at {w:?}: exhaustive {} vs B&B {}",
                    exact.objective,
                    bb.objective
                );
                assert!(bb.note.is_empty());
                let f = Objective::new(model, w).value(&bb.selected);
                assert_eq!(bb.objective, f);
            }
        }
    }

    /// EX6's 28-invocation model (seed 5): dozens of small components. A
    /// budget of a few dozen nodes finishes the smallest and cuts off the
    /// rest, which must not end up worse than greedy.
    #[test]
    fn truncated_search_is_no_worse_than_greedy_and_names_the_cut() {
        let scenario = cms_ibench::generate(&cms_ibench::ScenarioConfig {
            noise: cms_ibench::NoiseConfig {
                pi_corresp: 50.0,
                pi_errors: 10.0,
                pi_unexplained: 10.0,
            },
            rows_per_relation: 15,
            seed: 5,
            ..cms_ibench::ScenarioConfig::all_primitives(4)
        });
        let model = CoverageModel::build(&scenario.source, &scenario.target, &scenario.candidates);
        let w = ObjectiveWeights::unweighted();
        let greedy = super::super::Greedy.select(&model, &w).unwrap();
        let mut components = model.components(&useful_candidates(&model));
        components.sort_by_key(|comp| (comp.len(), comp[0]));
        let n = components.len();
        for budget in [30, 100] {
            let sel = BranchBound {
                node_budget: Some(budget),
            }
            .select(&model, &w)
            .unwrap();
            assert!(sel.evaluations <= budget);
            assert!(
                sel.objective <= greedy.objective + 1e-9,
                "budget {budget}: F = {} vs greedy {}",
                sel.objective,
                greedy.objective
            );
            assert_eq!(
                sel.objective,
                Objective::new(&model, w).value(&sel.selected)
            );
            // The cut-off components are a suffix of the search order, and
            // the note lists exactly them.
            let first_cut = (1..n)
                .find(|&k| {
                    let names: Vec<String> =
                        components[k..].iter().map(|c| format!("{c:?}")).collect();
                    sel.note.ends_with(&format!(": {}", names.join(" ")))
                })
                .unwrap_or_else(|| panic!("budget {budget}: note {:?}", sel.note));
            assert!(sel
                .note
                .starts_with(&format!("node budget {budget} exhausted")));
            assert!(sel
                .note
                .contains(&format!("{} of {n} components", n - first_cut)));
        }
    }
}
