//! Flip-based local search with random restarts.
//!
//! Starts from the greedy solution, then hill-climbs over single-candidate
//! flips (include ↔ exclude) to a local optimum; additional restarts begin
//! from random subsets. Deterministic given the seed.
//!
//! Every move is chosen by the exact discrete objective (incremental
//! probes, [`crate::incremental::IncrementalObjective`]); by default that
//! is all the search does.
//!
//! Opting into `track_relaxation` additionally copies each climb's
//! accepted flips into a [`WarmRelaxation`] as one batch
//! ([`WarmRelaxation::set_members`]: one coalesced delta, one incremental
//! [`cms_psl::Program::reground`], one warm-started ADMM solve) and
//! reports its [`WarmRelaxation::telemetry`] plus the soft objective of
//! the winning selection. The selection, objective and evaluation count
//! are the same either way; the option exists for the tools and tests
//! that exercise the delta-grounding path on real search traffic.

use super::greedy::greedy_from;
use super::{useful_candidates, SelectError, Selection, Selector};
use crate::coverage::CoverageModel;
use crate::objective::{Objective, ObjectiveWeights};
use crate::relaxation::WarmRelaxation;
use cms_psl::AdmmConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Local-search selector.
#[derive(Clone, Debug)]
pub struct LocalSearch {
    /// Random restarts beyond the greedy start.
    pub restarts: usize,
    /// RNG seed.
    pub seed: u64,
    /// Also copy accepted flips into the warm PSL relaxation (delta
    /// reground + warm-started ADMM) and report its telemetry. Off by
    /// default: diagnostics only, the selection is identical either way.
    pub track_relaxation: bool,
}

impl Default for LocalSearch {
    fn default() -> LocalSearch {
        LocalSearch {
            restarts: 4,
            seed: 17,
            track_relaxation: false,
        }
    }
}

fn hill_climb(
    model: &CoverageModel,
    weights: &ObjectiveWeights,
    start: &[usize],
    evaluations: &mut usize,
    mut relax: Option<&mut WarmRelaxation>,
) -> Result<(Vec<usize>, f64), SelectError> {
    let useful = useful_candidates(model);
    let mut inc = crate::incremental::IncrementalObjective::with_selection(model, *weights, start);
    if let Some(r) = relax.as_deref_mut() {
        r.set_selection(start)?;
    }
    *evaluations += 1;
    // Accepted flips accumulate here and are mirrored into the relaxation
    // as ONE batch after the climb settles: the drain coalesces them to
    // their net effect, so the whole climb costs one reground + one solve.
    let mut accepted: Vec<(usize, bool)> = Vec::new();
    loop {
        let mut best_delta = -1e-12;
        let mut best_flip = None;
        for &c in &useful {
            let delta = if inc.is_selected(c) {
                inc.delta_remove(c)
            } else {
                inc.delta_add(c)
            };
            *evaluations += 1;
            if delta < best_delta {
                best_delta = delta;
                best_flip = Some(c);
            }
        }
        match best_flip {
            Some(c) => {
                let now_selected = !inc.is_selected(c);
                if now_selected {
                    inc.add(c);
                } else {
                    inc.remove(c);
                }
                accepted.push((c, now_selected));
            }
            None => break,
        }
    }
    if let Some(r) = relax {
        if !accepted.is_empty() {
            r.set_members(&accepted)?;
        }
    }
    let selected = inc.selection();
    let value = Objective::new(model, *weights).value(&selected);
    Ok((selected, value))
}

impl Selector for LocalSearch {
    fn name(&self) -> &str {
        "local-search"
    }

    fn select(
        &self,
        model: &CoverageModel,
        weights: &ObjectiveWeights,
    ) -> Result<Selection, SelectError> {
        let mut evaluations = 0usize;
        let mut relax = if self.track_relaxation {
            Some(WarmRelaxation::new(model, weights, AdmmConfig::default())?)
        } else {
            None
        };
        // Start 1: greedy.
        let (greedy_sel, _, ev) = greedy_from(model, weights, Vec::new());
        evaluations += ev;
        let (mut best_sel, mut best_val) = hill_climb(
            model,
            weights,
            &greedy_sel,
            &mut evaluations,
            relax.as_mut(),
        )?;

        // Random restarts.
        let useful = useful_candidates(model);
        let mut rng = StdRng::seed_from_u64(self.seed);
        for _ in 0..self.restarts {
            let start: Vec<usize> = useful
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.3))
                .collect();
            let (sel, val) = hill_climb(model, weights, &start, &mut evaluations, relax.as_mut())?;
            if val < best_val - 1e-12 {
                best_val = val;
                best_sel = sel;
            }
        }
        let mut selection = Selection::new(best_sel, best_val, evaluations);
        if let Some(mut r) = relax {
            // Park the relaxation at the winning selection for the report.
            let soft = r.set_selection(&selection.selected)?;
            selection = selection.with_telemetry(super::SelectionTelemetry {
                soft_objective: Some(soft),
                ..r.telemetry
            });
        }
        Ok(selection)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{appendix_model, known_optimum_model};
    use super::*;

    #[test]
    fn at_least_as_good_as_greedy() {
        let (model, best) = known_optimum_model();
        let w = ObjectiveWeights::unweighted();
        let ls = LocalSearch::default().select(&model, &w).unwrap();
        let greedy = super::super::Greedy.select(&model, &w).unwrap();
        assert!(ls.objective <= greedy.objective + 1e-9);
        assert!((ls.objective - best).abs() < 1e-9);
    }

    #[test]
    fn appendix_example_stays_empty() {
        let model = appendix_model();
        let sel = LocalSearch::default()
            .select(&model, &ObjectiveWeights::unweighted())
            .unwrap();
        assert!(sel.selected.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let (model, _) = known_optimum_model();
        let w = ObjectiveWeights::unweighted();
        let config = LocalSearch {
            restarts: 3,
            seed: 5,
            ..LocalSearch::default()
        };
        let a = config.select(&model, &w).unwrap();
        let b = config.select(&model, &w).unwrap();
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.objective, b.objective);
    }

    fn tracked() -> LocalSearch {
        LocalSearch {
            track_relaxation: true,
            ..LocalSearch::default()
        }
    }

    #[test]
    fn tracked_relaxation_lower_bounds_the_selected_objective() {
        let (model, _) = known_optimum_model();
        let w = ObjectiveWeights::unweighted();
        let sel = tracked().select(&model, &w).unwrap();
        let t = &sel.telemetry;
        let soft = t
            .soft_objective
            .expect("tracked run reports soft objective");
        assert!(
            soft <= sel.objective + 5e-3,
            "soft {soft} vs discrete {}",
            sel.objective
        );
        // The mirror must have gone through the incremental path.
        assert!(t.flips > 0);
        assert!(t.terms_reused > 0, "flips must splice ground terms");
        assert!(t.admm_iterations > 0);
        assert!(t.last_health.is_some());
        // A nominal run takes no ladder rungs.
        assert!(t.degradations.is_empty(), "{:?}", t.degradations);
    }

    #[test]
    fn untracked_variant_matches_tracked_selection() {
        let (model, _) = known_optimum_model();
        let w = ObjectiveWeights::unweighted();
        let tracked = tracked().select(&model, &w).unwrap();
        let untracked = LocalSearch::default().select(&model, &w).unwrap();
        assert_eq!(tracked.selected, untracked.selected);
        assert_eq!(tracked.objective, untracked.objective);
        assert_eq!(tracked.evaluations, untracked.evaluations);
        assert_eq!(
            untracked.telemetry,
            super::super::SelectionTelemetry::default()
        );
        assert!(untracked.note.is_empty());
    }
}
