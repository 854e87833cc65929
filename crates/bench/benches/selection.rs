//! Criterion bench: end-to-end selection (EX6's time axis) — every
//! selector on a fixed noisy scenario.

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
    group.finish();
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
