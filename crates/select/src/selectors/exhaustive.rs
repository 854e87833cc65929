//! Exhaustive enumeration — exact, exponential; the reference everything
//! else is checked against.

use super::{useful_candidates, SelectError, Selection, Selector};
use crate::coverage::CoverageModel;
use crate::objective::{Objective, ObjectiveWeights};

/// Enumerate all subsets of the useful candidates.
#[derive(Clone, Debug, Default)]
pub struct Exhaustive {
    /// Hard cap on useful candidates (default 25 ⇒ ≤ 2^25 evaluations);
    /// above it, `select` returns [`SelectError::TooManyCandidates`].
    pub max_candidates: Option<usize>,
}

impl Selector for Exhaustive {
    fn name(&self) -> &str {
        "exhaustive"
    }

    fn select(
        &self,
        model: &CoverageModel,
        weights: &ObjectiveWeights,
    ) -> Result<Selection, SelectError> {
        let useful = useful_candidates(model);
        let cap = self.max_candidates.unwrap_or(25);
        if useful.len() > cap {
            return Err(SelectError::TooManyCandidates {
                useful: useful.len(),
                cap,
            });
        }
        let objective = Objective::new(model, *weights);
        let n = useful.len();
        let mut best_subset: u64 = 0;
        let mut best = objective.value(&[]);
        let mut evaluations = 1usize;
        for subset in 1..(1u64 << n) {
            let selection: Vec<usize> = (0..n)
                .filter(|&b| subset & (1 << b) != 0)
                .map(|b| useful[b])
                .collect();
            let value = objective.value(&selection);
            evaluations += 1;
            if value < best {
                best = value;
                best_subset = subset;
            }
        }
        let selected: Vec<usize> = (0..n)
            .filter(|&b| best_subset & (1 << b) != 0)
            .map(|b| useful[b])
            .collect();
        Ok(Selection::new(selected, best, evaluations))
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{appendix_model, known_optimum_model};
    use super::*;

    #[test]
    fn finds_known_set_cover_optimum() {
        let (model, best) = known_optimum_model();
        let sel = Exhaustive::default()
            .select(&model, &ObjectiveWeights::unweighted())
            .unwrap();
        assert!((sel.objective - best).abs() < 1e-9);
        assert!(
            sel.selected == vec![0, 2] || sel.selected == vec![1, 3],
            "{:?}",
            sel.selected
        );
        assert_eq!(sel.evaluations, 16);
    }

    #[test]
    fn appendix_example_prefers_empty_mapping() {
        let model = appendix_model();
        let sel = Exhaustive::default()
            .select(&model, &ObjectiveWeights::unweighted())
            .unwrap();
        assert!(sel.selected.is_empty());
        assert!((sel.objective - 4.0).abs() < 1e-9);
    }

    #[test]
    fn refuses_oversized_inputs() {
        let (model, _) = known_optimum_model();
        let err = Exhaustive {
            max_candidates: Some(2),
        }
        .select(&model, &ObjectiveWeights::unweighted())
        .unwrap_err();
        assert_eq!(err, SelectError::TooManyCandidates { useful: 4, cap: 2 });
        assert!(err.to_string().contains("4 useful candidates"), "{err}");
        assert!(std::error::Error::source(&err).is_none());
    }
}
