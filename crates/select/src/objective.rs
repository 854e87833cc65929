//! The selection objective — Eq. (4) / Eq. (9) of the paper, plus the
//! weighted generalization from the appendix's NP-hardness section:
//!
//! ```text
//! F(M) =  w1 · Σ_{t ∈ J} [1 − explains(M, t)]
//!       + w2 · Σ_{error groups touched by M} 1
//!       + w3 · Σ_{θ ∈ M} size(θ)
//! ```
//!
//! with `explains(M, t) = max_{θ ∈ M} covers(θ, t)`. The unweighted
//! objective has `w1 = w2 = w3 = 1`.

use crate::coverage::CoverageModel;

/// Weights (w1, w2, w3) of the generalized objective.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ObjectiveWeights {
    /// Weight of unexplained target tuples (w1).
    pub w_explain: f64,
    /// Weight of error tuples (w2).
    pub w_error: f64,
    /// Weight of mapping size (w3).
    pub w_size: f64,
}

impl Default for ObjectiveWeights {
    fn default() -> ObjectiveWeights {
        ObjectiveWeights {
            w_explain: 1.0,
            w_error: 1.0,
            w_size: 1.0,
        }
    }
}

impl ObjectiveWeights {
    /// The unweighted paper objective (all ones).
    pub fn unweighted() -> ObjectiveWeights {
        ObjectiveWeights::default()
    }
}

/// Evaluates `F` over a fixed coverage model.
pub struct Objective<'a> {
    /// The coverage model.
    pub model: &'a CoverageModel,
    /// Weights.
    pub weights: ObjectiveWeights,
}

impl<'a> Objective<'a> {
    /// Construct an evaluator.
    pub fn new(model: &'a CoverageModel, weights: ObjectiveWeights) -> Objective<'a> {
        Objective { model, weights }
    }

    /// Evaluate `F` for a selection given as a membership mask.
    ///
    /// # Panics
    /// Panics if the mask length differs from the candidate count.
    pub fn value_mask(&self, selected: &[bool]) -> f64 {
        let (unexplained, errors, size) = self.components_mask(selected);
        self.weights.w_explain * unexplained
            + self.weights.w_error * errors
            + self.weights.w_size * size
    }

    /// Evaluate `F` for a selection given as candidate indices.
    pub fn value(&self, selection: &[usize]) -> f64 {
        self.value_mask(&self.mask(selection))
    }

    /// The three objective components `(unexplained, errors, size)` for a
    /// selection — the columns of the appendix's example table.
    pub fn components(&self, selection: &[usize]) -> (f64, f64, f64) {
        self.components_mask(&self.mask(selection))
    }

    fn mask(&self, selection: &[usize]) -> Vec<bool> {
        let mut mask = vec![false; self.model.num_candidates];
        for &c in selection {
            mask[c] = true;
        }
        mask
    }

    fn components_mask(&self, selected: &[bool]) -> (f64, f64, f64) {
        assert_eq!(
            selected.len(),
            self.model.num_candidates,
            "selection mask size"
        );
        // explains(M, t) = max over selected candidates.
        let mut best = vec![0.0f64; self.model.num_targets()];
        let mut size = 0usize;
        for (c, &is_in) in selected.iter().enumerate() {
            if !is_in {
                continue;
            }
            size += self.model.sizes[c];
            for &(t, d) in &self.model.covers[c] {
                if d > best[t] {
                    best[t] = d;
                }
            }
        }
        let unexplained: f64 = best.iter().map(|d| 1.0 - d).sum();
        let errors = self
            .model
            .errors
            .iter()
            .filter(|g| g.creators.iter().any(|&c| selected[c]))
            .count() as f64;
        (unexplained, errors, size as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::tests::running_example;
    use crate::coverage::CoverageModel;

    /// The exact objective table from appendix §I:
    ///
    /// | M        | Σ 1−explains | Σ error | size | total |
    /// | {}       | 4            | 0       | 0    | 4     |
    /// | {θ1}     | 3 1/3        | 1       | 3    | 7 1/3 |
    /// | {θ3}     | 2            | 2       | 4    | 8     |
    /// | {θ1,θ3}  | 2            | 3       | 7    | 12    |
    #[test]
    fn appendix_table_reproduced_exactly() {
        let (_, _, i, j, cands) = running_example();
        let model = CoverageModel::build(&i, &j, &cands);
        let f = Objective::new(&model, ObjectiveWeights::unweighted());

        let eps = 1e-9;
        assert!((f.value(&[]) - 4.0).abs() < eps);
        assert!((f.value(&[0]) - (7.0 + 1.0 / 3.0)).abs() < eps);
        assert!((f.value(&[1]) - 8.0).abs() < eps);
        assert!((f.value(&[0, 1]) - 12.0).abs() < eps);

        let (u, e, s) = f.components(&[0]);
        assert!((u - (3.0 + 1.0 / 3.0)).abs() < eps);
        assert!((e - 1.0).abs() < eps);
        assert!((s - 3.0).abs() < eps);

        let (u, e, s) = f.components(&[0, 1]);
        assert!((u - 2.0).abs() < eps);
        assert!((e - 3.0).abs() < eps);
        assert!((s - 7.0).abs() < eps);
    }

    /// The appendix's overfitting remark: with five more ML-like projects
    /// the optimum flips from {} to {θ3}.
    #[test]
    fn extra_projects_flip_optimum_to_theta3() {
        let (src, tgt, mut i, mut j, cands) = running_example();
        let proj = src.rel_id("proj").unwrap();
        let task = tgt.rel_id("task").unwrap();
        for n in 0..5 {
            let name = format!("X{n}");
            i.insert_ground(proj, &[&name, "9", "SAP"]);
            j.insert_ground(task, &[&name, "Alice", "111"]);
        }
        let model = CoverageModel::build(&i, &j, &cands);
        let f = Objective::new(&model, ObjectiveWeights::unweighted());
        let empty = f.value(&[]);
        let t1 = f.value(&[0]);
        let t3 = f.value(&[1]);
        let both = f.value(&[0, 1]);
        assert!(t3 < empty, "θ3 ({t3}) must beat empty ({empty})");
        assert!(t3 < t1, "θ3 ({t3}) must beat θ1 ({t1})");
        assert!(t3 < both, "θ3 ({t3}) must beat both ({both})");
    }

    #[test]
    fn weights_scale_components() {
        let (_, _, i, j, cands) = running_example();
        let model = CoverageModel::build(&i, &j, &cands);
        let w = ObjectiveWeights {
            w_explain: 2.0,
            w_error: 0.5,
            w_size: 0.0,
        };
        let f = Objective::new(&model, w);
        // {θ1}: 2·(10/3) + 0.5·1 + 0 = 43/6.
        assert!((f.value(&[0]) - (2.0 * (10.0 / 3.0) + 0.5)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "selection mask size")]
    fn wrong_mask_size_panics() {
        let (_, _, i, j, cands) = running_example();
        let model = CoverageModel::build(&i, &j, &cands);
        Objective::new(&model, ObjectiveWeights::unweighted()).value_mask(&[true]);
    }
}
