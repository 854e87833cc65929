//! Branch-and-bound's node count and selection on a generated EX6
//! scenario, pinned so that a change to the bound, the search order or the
//! component split is a visible decision.
//!
//! This is the only test in its binary on purpose: symbols order by
//! interning order in a process-global table, and the generated scenario
//! (hence the search) depends on that order, so no other test may intern
//! strings concurrently.

use cms_ibench::{generate, NoiseConfig, ScenarioConfig};
use cms_select::{BranchBound, CoverageModel, ObjectiveWeights, Selector};

#[test]
fn ex6_scenario_node_count_is_pinned() {
    // The EX6 scenario at 14 invocations.
    let scenario = generate(&ScenarioConfig {
        noise: NoiseConfig {
            pi_corresp: 50.0,
            pi_errors: 10.0,
            pi_unexplained: 10.0,
        },
        rows_per_relation: 15,
        seed: 5,
        ..ScenarioConfig::all_primitives(2)
    });
    let model = CoverageModel::build(&scenario.source, &scenario.target, &scenario.candidates);
    let sel = BranchBound {
        node_budget: Some(200_000),
    }
    .select(&model, &ObjectiveWeights::unweighted())
    .unwrap();
    assert!(sel.note.is_empty(), "exact within the budget");
    assert_eq!(sel.evaluations, 95);
    assert_eq!(
        sel.selected,
        vec![0, 3, 4, 6, 9, 11, 16, 21, 26, 28, 31, 34]
    );
}
