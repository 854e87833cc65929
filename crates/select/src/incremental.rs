//! Incremental objective evaluation.
//!
//! Greedy and local search evaluate `F` once per candidate per pass; the
//! naive evaluator is `O(|selection| · covers)` per call, which makes those
//! selectors quadratic-ish in candidate count. This evaluator maintains the
//! selection state so that *applying* or *probing* a single add/remove is
//! proportional to the touched candidate's cover list plus its error
//! groups, not the whole model:
//!
//! * per target: the multiset of cover degrees of selected candidates,
//!   as a count-indexed max structure (degrees are few and reused, so a
//!   sorted `Vec<(degree, count)>` per target stays tiny);
//! * per error group: how many selected creators it has, reached through
//!   [`CoverageModel::groups_by_candidate`] (built once, in `new`);
//! * running totals for the three components.
//!
//! Equivalence with [`crate::objective::Objective`] is enforced by a
//! property test (`tests/properties.rs`).

use crate::coverage::CoverageModel;
use crate::objective::ObjectiveWeights;

/// Mutable selection state with O(touched) updates.
pub struct IncrementalObjective<'a> {
    model: &'a CoverageModel,
    weights: ObjectiveWeights,
    selected: Vec<bool>,
    /// Error groups per candidate, ascending.
    groups: Vec<Vec<usize>>,
    /// Per target: selected cover degrees, descending, with multiplicity.
    target_degrees: Vec<Vec<(f64, usize)>>,
    /// Per error group: number of selected creators.
    group_hits: Vec<usize>,
    /// Running Σ_t max-degree over selected.
    explained_sum: f64,
    /// Running count of triggered error groups.
    errors: usize,
    /// Running Σ size of selected.
    size: usize,
}

impl<'a> IncrementalObjective<'a> {
    /// Start from the empty selection.
    pub fn new(model: &'a CoverageModel, weights: ObjectiveWeights) -> IncrementalObjective<'a> {
        IncrementalObjective {
            model,
            weights,
            selected: vec![false; model.num_candidates],
            groups: model.groups_by_candidate(),
            target_degrees: vec![Vec::new(); model.num_targets()],
            group_hits: vec![0; model.errors.len()],
            explained_sum: 0.0,
            errors: 0,
            size: 0,
        }
    }

    /// Start from a given selection.
    pub fn with_selection(
        model: &'a CoverageModel,
        weights: ObjectiveWeights,
        selection: &[usize],
    ) -> IncrementalObjective<'a> {
        let mut inc = IncrementalObjective::new(model, weights);
        for &c in selection {
            if !inc.selected[c] {
                inc.add(c);
            }
        }
        inc
    }

    /// Current objective value.
    pub fn value(&self) -> f64 {
        let unexplained = self.model.num_targets() as f64 - self.explained_sum;
        self.weights.w_explain * unexplained
            + self.weights.w_error * self.errors as f64
            + self.weights.w_size * self.size as f64
    }

    /// Is candidate `c` currently selected?
    pub fn is_selected(&self, c: usize) -> bool {
        self.selected[c]
    }

    /// The current selection as sorted indices.
    pub fn selection(&self) -> Vec<usize> {
        (0..self.selected.len())
            .filter(|&c| self.selected[c])
            .collect()
    }

    /// Apply: add candidate `c`. No-op if already selected.
    pub fn add(&mut self, c: usize) {
        if std::mem::replace(&mut self.selected[c], true) {
            return;
        }
        self.size += self.model.sizes[c];
        for &(t, d) in &self.model.covers[c] {
            let degrees = &mut self.target_degrees[t];
            let old_max = degrees.first().map_or(0.0, |&(m, _)| m);
            insert_degree(degrees, d);
            let new_max = degrees[0].0;
            self.explained_sum += new_max - old_max;
        }
        for &g in &self.groups[c] {
            if self.group_hits[g] == 0 {
                self.errors += 1;
            }
            self.group_hits[g] += 1;
        }
    }

    /// Apply: remove candidate `c`. No-op if not selected.
    pub fn remove(&mut self, c: usize) {
        if !std::mem::replace(&mut self.selected[c], false) {
            return;
        }
        self.size -= self.model.sizes[c];
        for &(t, d) in &self.model.covers[c] {
            let degrees = &mut self.target_degrees[t];
            let old_max = degrees[0].0;
            remove_degree(degrees, d);
            let new_max = degrees.first().map_or(0.0, |&(m, _)| m);
            self.explained_sum += new_max - old_max;
        }
        for &g in &self.groups[c] {
            self.group_hits[g] -= 1;
            if self.group_hits[g] == 0 {
                self.errors -= 1;
            }
        }
    }

    /// Probe: objective delta of adding `c`, without applying.
    /// Returns 0 if already selected.
    pub fn delta_add(&self, c: usize) -> f64 {
        if self.selected[c] {
            return 0.0;
        }
        let mut delta = self.weights.w_size * self.model.sizes[c] as f64;
        for &(t, d) in &self.model.covers[c] {
            let cur = self.target_degrees[t].first().map_or(0.0, |&(m, _)| m);
            if d > cur {
                delta -= self.weights.w_explain * (d - cur);
            }
        }
        for &g in &self.groups[c] {
            if self.group_hits[g] == 0 {
                delta += self.weights.w_error;
            }
        }
        delta
    }

    /// Probe: objective delta of removing `c`, without applying.
    /// Returns 0 if not selected.
    pub fn delta_remove(&self, c: usize) -> f64 {
        if !self.selected[c] {
            return 0.0;
        }
        let mut delta = -self.weights.w_size * self.model.sizes[c] as f64;
        for &(t, d) in &self.model.covers[c] {
            let degrees = &self.target_degrees[t];
            let cur = degrees[0].0;
            if d >= cur {
                // c holds (or ties) the max: find the max after removal.
                let after = max_after_removal(degrees, d);
                delta += self.weights.w_explain * (cur - after);
            }
        }
        for &g in &self.groups[c] {
            if self.group_hits[g] == 1 {
                delta -= self.weights.w_error;
            }
        }
        delta
    }
}

/// Insert degree `d` into a descending `(degree, count)` list.
fn insert_degree(degrees: &mut Vec<(f64, usize)>, d: f64) {
    match degrees.iter_mut().find(|(m, _)| (*m - d).abs() < 1e-12) {
        Some((_, count)) => *count += 1,
        None => {
            let pos = degrees.partition_point(|&(m, _)| m > d);
            degrees.insert(pos, (d, 1));
        }
    }
}

/// Remove one occurrence of degree `d` from a descending list.
fn remove_degree(degrees: &mut Vec<(f64, usize)>, d: f64) {
    let idx = degrees
        .iter()
        .position(|(m, _)| (*m - d).abs() < 1e-12)
        .expect("removing a degree that was never inserted");
    degrees[idx].1 -= 1;
    if degrees[idx].1 == 0 {
        degrees.remove(idx);
    }
}

/// Max degree after removing one occurrence of `d` (list descending).
fn max_after_removal(degrees: &[(f64, usize)], d: f64) -> f64 {
    let (top, count) = degrees[0];
    if (top - d).abs() < 1e-12 && count == 1 {
        degrees.get(1).map_or(0.0, |&(m, _)| m)
    } else {
        top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::tests::running_example;
    use crate::objective::Objective;

    fn model() -> CoverageModel {
        let (_, _, i, j, cands) = running_example();
        CoverageModel::build(&i, &j, &cands)
    }

    #[test]
    fn matches_naive_on_all_subsets() {
        let model = model();
        let w = ObjectiveWeights::unweighted();
        let naive = Objective::new(&model, w);
        for subset in 0u32..4 {
            let sel: Vec<usize> = (0..2).filter(|&b| subset & (1 << b) != 0).collect();
            let inc = IncrementalObjective::with_selection(&model, w, &sel);
            assert!(
                (inc.value() - naive.value(&sel)).abs() < 1e-9,
                "subset {sel:?}: {} vs {}",
                inc.value(),
                naive.value(&sel)
            );
        }
    }

    #[test]
    fn deltas_agree_with_apply() {
        let model = model();
        let w = ObjectiveWeights::unweighted();
        let mut inc = IncrementalObjective::new(&model, w);
        let before = inc.value();
        let d0 = inc.delta_add(0);
        inc.add(0);
        assert!((inc.value() - (before + d0)).abs() < 1e-9);
        let d1 = inc.delta_add(1);
        inc.add(1);
        let with_both = inc.value();
        let r0 = inc.delta_remove(0);
        inc.remove(0);
        assert!((inc.value() - (with_both + r0)).abs() < 1e-9);
        let _ = d1;
    }

    #[test]
    fn add_remove_roundtrip_restores_value() {
        let model = model();
        let w = ObjectiveWeights::unweighted();
        let mut inc = IncrementalObjective::with_selection(&model, w, &[1]);
        let v = inc.value();
        inc.add(0);
        inc.remove(0);
        assert!((inc.value() - v).abs() < 1e-9);
        assert_eq!(inc.selection(), vec![1]);
    }

    #[test]
    fn idempotent_operations() {
        let model = model();
        let w = ObjectiveWeights::unweighted();
        let mut inc = IncrementalObjective::new(&model, w);
        inc.add(0);
        let v = inc.value();
        inc.add(0); // no-op
        assert_eq!(inc.value(), v);
        assert_eq!(inc.delta_add(0), 0.0);
        inc.remove(0);
        inc.remove(0); // no-op
        assert_eq!(inc.delta_remove(0), 0.0);
        assert!(!inc.is_selected(0));
    }

    #[test]
    fn tie_degrees_handled() {
        // Two candidates covering the same target with the same degree:
        // removing one must not drop the max.
        use crate::coverage::ErrorGroup;
        use cms_data::{RelId, Tuple};
        let m = CoverageModel {
            num_candidates: 2,
            targets: vec![Tuple::ground(RelId(0), &["t"])],
            sizes: vec![1, 1],
            covers: vec![vec![(0, 0.5)], vec![(0, 0.5)]],
            errors: Vec::<ErrorGroup>::new(),
            error_counts: vec![0, 0],
        };
        let w = ObjectiveWeights::unweighted();
        let mut inc = IncrementalObjective::with_selection(&m, w, &[0, 1]);
        let v_both = inc.value();
        // Removing either keeps explains at 0.5: delta = −size only.
        assert!((inc.delta_remove(0) + 1.0).abs() < 1e-9);
        inc.remove(0);
        assert!((inc.value() - (v_both - 1.0)).abs() < 1e-9);
    }
}
