//! Objective-weight learning from labeled scenarios.
//!
//! The paper's PSL system supports weight learning; with MAP inference as
//! the only primitive, the practical counterpart is supervised search over
//! the weight space: given training scenarios whose gold mapping is known,
//! pick the `(w1, w2, w3)` whose selections score best. `F` is invariant
//! under uniform scaling of the weights, so the grid fixes `w1 = 1` and
//! explores `(w2, w3)` on a log grid — grid search in place of PSL's
//! margin-based learners.

use crate::objective::ObjectiveWeights;
use crate::pipeline::evaluate_scenario;
use crate::selectors::{SelectError, Selector};
use cms_ibench::Scenario;

/// Which evaluation metric to maximize during learning.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LearnMetric {
    /// Mapping-level F1 against the gold candidate set.
    MappingF1,
    /// Data-level F1 of the exchanged instances.
    DataF1,
}

/// The weight search space: `w1` is fixed to 1 (scale invariance), `w2`
/// and `w3` take values from these lists.
#[derive(Clone, Debug)]
pub struct WeightGrid {
    /// Error-weight values to try.
    pub w_error: Vec<f64>,
    /// Size-weight values to try.
    pub w_size: Vec<f64>,
}

impl Default for WeightGrid {
    fn default() -> WeightGrid {
        let axis = vec![0.25, 0.5, 1.0, 2.0, 4.0];
        WeightGrid {
            w_error: axis.clone(),
            w_size: axis,
        }
    }
}

impl WeightGrid {
    /// All weight combinations of the grid.
    pub fn combinations(&self) -> Vec<ObjectiveWeights> {
        let mut out = Vec::with_capacity(self.w_error.len() * self.w_size.len());
        for &w2 in &self.w_error {
            for &w3 in &self.w_size {
                out.push(ObjectiveWeights {
                    w_explain: 1.0,
                    w_error: w2,
                    w_size: w3,
                });
            }
        }
        out
    }
}

/// The outcome of weight learning.
#[derive(Clone, Debug)]
pub struct LearnedWeights {
    /// The best weights found.
    pub weights: ObjectiveWeights,
    /// Mean training metric of the best weights.
    pub train_score: f64,
    /// Mean training metric of the unweighted default, for reference.
    pub default_score: f64,
    /// Weight combinations evaluated.
    pub evaluated: usize,
}

/// Grid-search the objective weights on labeled training scenarios.
///
/// Ties are broken toward the default weights first, then grid order, so
/// learning never moves away from the default without evidence. An empty
/// `scenarios` slice is [`SelectError::NoTrainingScenarios`]; a selector
/// failure is passed through.
pub fn learn_weights(
    scenarios: &[Scenario],
    selector: &dyn Selector,
    grid: &WeightGrid,
    metric: LearnMetric,
) -> Result<LearnedWeights, SelectError> {
    if scenarios.is_empty() {
        return Err(SelectError::NoTrainingScenarios);
    }
    let score_of = |weights: &ObjectiveWeights| -> Result<f64, SelectError> {
        let mut total = 0.0;
        for s in scenarios {
            let outcome = evaluate_scenario(s, selector, weights)?;
            total += match metric {
                LearnMetric::MappingF1 => outcome.mapping.f1,
                LearnMetric::DataF1 => outcome.data.f1,
            };
        }
        Ok(total / scenarios.len() as f64)
    };

    let default = ObjectiveWeights::unweighted();
    let default_score = score_of(&default)?;
    let mut best = (default, default_score);
    let mut evaluated = 1usize;
    for weights in grid.combinations() {
        if weights == default {
            continue; // already scored
        }
        let score = score_of(&weights)?;
        evaluated += 1;
        if score > best.1 + 1e-12 {
            best = (weights, score);
        }
    }
    Ok(LearnedWeights {
        weights: best.0,
        train_score: best.1,
        default_score,
        evaluated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selectors::Greedy;
    use cms_ibench::{generate, NoiseConfig, ScenarioConfig};

    fn training_batch() -> Vec<Scenario> {
        [3u64, 14]
            .iter()
            .map(|&seed| {
                generate(&ScenarioConfig {
                    rows_per_relation: 8,
                    noise: NoiseConfig::uniform(25.0),
                    seed,
                    ..ScenarioConfig::all_primitives(1)
                })
            })
            .collect()
    }

    #[test]
    fn learned_never_worse_than_default_on_training() {
        let scenarios = training_batch();
        let learned = learn_weights(
            &scenarios,
            &Greedy,
            &WeightGrid::default(),
            LearnMetric::MappingF1,
        )
        .unwrap();
        assert!(learned.train_score >= learned.default_score - 1e-12);
        assert!(learned.evaluated >= 2);
    }

    #[test]
    fn deterministic() {
        let scenarios = training_batch();
        let a = learn_weights(
            &scenarios,
            &Greedy,
            &WeightGrid::default(),
            LearnMetric::DataF1,
        )
        .unwrap();
        let b = learn_weights(
            &scenarios,
            &Greedy,
            &WeightGrid::default(),
            LearnMetric::DataF1,
        )
        .unwrap();
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.train_score, b.train_score);
    }

    #[test]
    fn degenerate_grid_returns_default() {
        let scenarios = training_batch();
        let grid = WeightGrid {
            w_error: vec![1.0],
            w_size: vec![1.0],
        };
        let learned = learn_weights(&scenarios, &Greedy, &grid, LearnMetric::MappingF1).unwrap();
        assert_eq!(learned.weights, ObjectiveWeights::unweighted());
        assert_eq!(learned.evaluated, 1);
    }

    #[test]
    fn empty_training_is_an_error() {
        let err = learn_weights(&[], &Greedy, &WeightGrid::default(), LearnMetric::MappingF1)
            .unwrap_err();
        assert_eq!(err, SelectError::NoTrainingScenarios);
        assert!(err.to_string().contains("at least one scenario"));
    }

    #[test]
    fn grid_combinations_cover_product() {
        let grid = WeightGrid {
            w_error: vec![1.0, 2.0],
            w_size: vec![0.5, 1.0, 2.0],
        };
        assert_eq!(grid.combinations().len(), 6);
    }
}
