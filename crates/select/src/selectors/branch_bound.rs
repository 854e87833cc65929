//! Exact branch-and-bound search.
//!
//! Depth-first over candidates (ordered by descending cover mass) deciding
//! include/exclude. At each node the **lower bound** combines what can only
//! grow with what can only shrink:
//!
//! ```text
//! bound = w1 · Σ_t (1 − max(cur(t), suffix_i(t)))  // undecided included for free
//!       + w2 · errors(included so far)              // errors only grow
//!       + w3 · size(included so far)                // size only grows
//! ```
//!
//! where `cur(t)` is the best cover of `t` by the included candidates and
//! `suffix_i(t)` the best cover by any undecided one. The bound is
//! admissible: any completion of the node has objective ≥ bound, so
//! pruning at `bound ≥ best` preserves exactness. Mapping selection is
//! NP-hard (appendix §III), so worst-case time remains exponential — but
//! the bound collapses most of the search space on the scenario families
//! we generate.
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
//! Leaves still sum `1 − cur(t)` over every target, so incumbent values
//! are exact.

use super::{useful_candidates, SelectError, Selection, Selector};
use crate::coverage::CoverageModel;
use crate::objective::{Objective, ObjectiveWeights};

/// Exact branch-and-bound selector.
#[derive(Clone, Debug, Default)]
pub struct BranchBound {
    /// Optional node budget; `None` = unbounded (exact). When the budget
    /// is exhausted the best solution so far is returned (then the result
    /// is only a heuristic — the note says so).
    pub node_budget: Option<usize>,
}

struct Search<'a> {
    model: &'a CoverageModel,
    weights: ObjectiveWeights,
    order: Vec<usize>,
    /// `raised[i]`: the `(t, lo, hi)` steps by which `order[i]` raised the
    /// suffix max-cover of `t` from `lo` (over `order[i+1..]`) to `hi`.
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
    /// DFS at position `i`. `included`, `cur_cover` and `cur_errors` hold
    /// the state of the decisions so far; `optimistic` is
    /// `Σ_t 1 − max(cur_cover[t], suffix_i(t))` and `cur_size` the total
    /// size of the included candidates.
    fn dfs(&mut self, i: usize, optimistic: f64, cur_size: f64) {
        self.nodes += 1;
        if self.nodes > self.budget {
            self.truncated = true;
            return;
        }
        let cur_errors = self.cur_errors as f64;

        // Leaf: exact objective.
        if i == self.order.len() {
            let unexplained: f64 = self.cur_cover.iter().map(|d| 1.0 - d).sum();
            let value = self.weights.w_explain * unexplained
                + self.weights.w_error * cur_errors
                + self.weights.w_size * cur_size;
            if value < self.best_value {
                self.best_value = value;
                self.best_set = self.included.clone();
            }
            return;
        }

        // Lower bound with all remaining candidates included for free.
        let bound = self.weights.w_explain * optimistic
            + self.weights.w_error * cur_errors
            + self.weights.w_size * cur_size;
        if bound >= self.best_value - 1e-12 {
            return;
        }

        let model = self.model;
        let cand = self.order[i];
        // Branch 1: include.
        let mark = self.touched.len();
        for &(t, d) in &model.covers[cand] {
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
        self.dfs(i + 1, optimistic, cur_size + model.sizes[cand] as f64);
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
        // Branch 2: exclude — the suffix drops back at the targets
        // `cand` raised.
        let mut excluded = optimistic;
        for &(t, lo, hi) in &self.raised[i] {
            let cur = self.cur_cover[t];
            excluded += cur.max(hi) - cur.max(lo);
        }
        self.dfs(i + 1, excluded, cur_size);
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
        let mut order = useful_candidates(model);
        // Heaviest covers first: good incumbents early ⇒ tighter pruning.
        order.sort_by(|&a, &b| {
            let mass = |c: usize| -> f64 { model.covers[c].iter().map(|&(_, d)| d).sum() };
            mass(b).total_cmp(&mass(a))
        });
        // Suffix max-cover, built from the back; only its raises are kept.
        let nt = model.num_targets();
        let mut suffix = vec![0.0f64; nt];
        let mut raised = vec![Vec::new(); order.len()];
        for (i, &c) in order.iter().enumerate().rev() {
            for &(t, d) in &model.covers[c] {
                if d > suffix[t] {
                    raised[i].push((t, suffix[t], d));
                    suffix[t] = d;
                }
            }
        }
        // Nothing is included at the root, so max(cur, suffix) = suffix.
        let optimistic: f64 = suffix.iter().map(|suf| 1.0 - suf).sum();

        let objective = Objective::new(model, *weights);
        let empty_value = objective.value(&[]);
        let mut search = Search {
            model,
            weights: *weights,
            order,
            raised,
            groups: model.groups_by_candidate(),
            cur_cover: vec![0.0; nt],
            group_hits: vec![0; model.errors.len()],
            cur_errors: 0,
            touched: Vec::new(),
            included: Vec::new(),
            best_value: empty_value,
            best_set: Vec::new(),
            nodes: 0,
            budget: self.node_budget.unwrap_or(usize::MAX),
            truncated: false,
        };
        search.dfs(0, optimistic, 0.0);

        let mut sel = Selection::new(search.best_set, search.best_value, search.nodes);
        if search.truncated {
            sel.note = format!("node budget {} exhausted; heuristic result", search.budget);
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

    /// Node counts and selections pinned at the full-rescan implementation:
    /// the incremental node state must not change what the search visits,
    /// so a change here is a change to the bound or the order. The EX6
    /// scenario pin lives in `tests/branch_bound_nodes.rs`.
    #[test]
    fn node_counts_and_selections_are_pinned() {
        let w = ObjectiveWeights::unweighted();
        let (model, _) = known_optimum_model();
        let sel = BranchBound::default().select(&model, &w).unwrap();
        assert_eq!((sel.evaluations, sel.selected), (21, vec![0, 2]));

        let sel = BranchBound::default()
            .select(&appendix_model(), &w)
            .unwrap();
        assert_eq!((sel.evaluations, sel.selected), (5, vec![]));
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
        // Still returns something coherent (the empty incumbent or better).
        assert!(sel.objective <= 20.0 + 1e-9);
    }
}
