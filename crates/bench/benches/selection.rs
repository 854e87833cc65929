//! Criterion bench: end-to-end selection (EX6's time axis) — every
//! selector on a fixed noisy scenario, plus budgeted branch-and-bound on
//! EX6's 28-invocation model.

use cms_ibench::{generate, NoiseConfig, ScenarioConfig};
use cms_select::{
    BranchBound, CoverageModel, Greedy, IndependentBaseline, LocalSearch, ObjectiveWeights,
    PslCollective, Selector,
};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_selection(c: &mut Criterion) {
    let config = ScenarioConfig {
        rows_per_relation: 20,
        noise: NoiseConfig::uniform(25.0),
        seed: 9,
        ..ScenarioConfig::all_primitives(1)
    };
    let scenario = generate(&config);
    let model = CoverageModel::build(&scenario.source, &scenario.target, &scenario.candidates);
    let weights = ObjectiveWeights::unweighted();

    let mut group = c.benchmark_group("selection");
    group.sample_size(20);
    // The two local-search variants are benched under distinct ids: the
    // default is the pure discrete flip search, the opt-in `+relax` one
    // additionally pays the per-climb reground + warm-ADMM relaxation.
    let selectors: Vec<(&str, Box<dyn Selector>)> = vec![
        ("independent", Box::new(IndependentBaseline)),
        ("greedy", Box::new(Greedy)),
        ("local-search", Box::new(LocalSearch::default())),
        (
            "local-search+relax",
            Box::new(LocalSearch {
                track_relaxation: true,
                ..LocalSearch::default()
            }),
        ),
        ("branch-bound", Box::new(BranchBound::default())),
        ("psl-collective", Box::new(PslCollective::default())),
    ];
    for (label, selector) in &selectors {
        group.bench_function(*label, |b| {
            b.iter(|| selector.select(std::hint::black_box(&model), &weights));
        });
    }

    // EX6's 28-invocation model under EX6's 2M-node budget: many small
    // independent components, which the whole-model search could not
    // finish within the budget.
    let ex6 = generate(&ScenarioConfig {
        noise: NoiseConfig {
            pi_corresp: 50.0,
            pi_errors: 10.0,
            pi_unexplained: 10.0,
        },
        rows_per_relation: 15,
        seed: 5,
        ..ScenarioConfig::all_primitives(4)
    });
    let ex6_model = CoverageModel::build(&ex6.source, &ex6.target, &ex6.candidates);
    let budgeted = BranchBound {
        node_budget: Some(2_000_000),
    };
    group.bench_function("branch-bound-ex6/28", |b| {
        b.iter(|| budgeted.select(std::hint::black_box(&ex6_model), &weights));
    });
    group.finish();
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
