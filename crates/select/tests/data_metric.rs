//! The chase-free data metric against its oracle: on generated iBench
//! scenarios, `data_prf_from_solutions` over the per-candidate solutions
//! `ChaseEngine::chase_all` returns must equal `data_prf`, which chases
//! each selection afresh, exactly.

use cms_ibench::{generate, NoiseConfig, Scenario, ScenarioConfig};
use cms_select::{data_prf, data_prf_from_solutions};
use cms_tgd::ChaseEngine;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The fixed selections plus two random subsets of the candidates: one
/// disjoint from gold, one sharing at least one gold candidate.
fn selections(scenario: &Scenario, subset_seed: u64) -> Vec<Vec<usize>> {
    let n = scenario.candidates.len();
    let mut gold = scenario.gold.clone();
    gold.sort_unstable();
    gold.dedup();
    let non_gold: Vec<usize> = (0..n).filter(|c| gold.binary_search(c).is_err()).collect();
    let mut out = vec![
        vec![],
        gold.clone(),
        (0..n).collect(),
        (0..n).step_by(2).collect(),
    ];
    if let Some(&extra) = non_gold.get(non_gold.len() / 2) {
        let mut plus = gold.clone();
        plus.push(extra);
        plus.sort_unstable();
        out.push(plus);
    }
    if !gold.is_empty() {
        let mut minus = gold.clone();
        minus.remove(gold.len() / 2);
        out.push(minus);
    }
    let mut rng = StdRng::seed_from_u64(subset_seed);
    out.push(
        non_gold
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(0.5))
            .collect(),
    );
    let mut overlapping: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.5)).collect();
    if !gold.is_empty() {
        overlapping.push(gold[rng.gen_range(0..gold.len())]);
        overlapping.sort_unstable();
        overlapping.dedup();
    }
    out.push(overlapping);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn data_metric_from_solutions_equals_the_oracle(
        scale in prop::sample::select(vec![1usize, 2, 4]),
        noise in 0u32..=75,
        seed in 0u64..10_000,
        subset_seed in 0u64..10_000,
    ) {
        let scenario = generate(&ScenarioConfig {
            rows_per_relation: 8,
            noise: NoiseConfig::uniform(f64::from(noise)),
            seed,
            ..ScenarioConfig::all_primitives(scale)
        });
        let solutions = ChaseEngine::new(&scenario.candidates)
            .expect("generated candidates validate")
            .chase_all(&scenario.source);
        let mut gold = scenario.gold.clone();
        gold.sort_unstable();
        gold.dedup();
        prop_assert_eq!(gold.len(), scenario.gold.len(), "gold indices are distinct");
        for selected in selections(&scenario, subset_seed) {
            let fast = data_prf_from_solutions(&solutions, &selected, &gold);
            let oracle = data_prf(&scenario.source, &scenario.candidates, &selected, &gold);
            prop_assert_eq!(
                fast, oracle,
                "scale {} noise {} seed {} selected {:?} gold {:?}",
                scale, noise, seed, selected, gold
            );
        }
    }
}
