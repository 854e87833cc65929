//! Criterion bench: coverage-model construction + PSL program grounding —
//! the two "compilation" stages between a scenario and MAP inference.
//!
//! Besides the end-to-end `coverage-model` and `program+admm` benches,
//! this file times the grounding engines head-to-head on the declarative
//! program (whose `error-link` rule is a genuine two-literal join):
//! `ground-plan/N` runs the plan-compiled, index-probing engine
//! (`Program::ground`) and `ground-naive/N` the retained nested-loop
//! reference (`Program::ground_naive`). The committed
//! `BENCH_grounding_baseline.json` snapshot records both and their ratio.
//!
//! On the benchmark's `data-scale` point (`all_primitives(4)`, 100 rows,
//! 25% noise, seed 7, preprocessed), `psl-program/ds100` times the
//! reference route to the selector's ground terms
//! (`PslCollective::build_program` + `Program::ground`) and
//! `psl-compile/ds100` the direct `PslCollective::compile` that
//! `PslCollective::infer` uses; CI gates their same-run ratio.

use cms_ibench::{generate, NoiseConfig, ScenarioConfig};
use cms_select::{preprocess, CoverageModel, ObjectiveWeights, PslCollective};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// `cargo test` runs bench targets with `--test`: shrink the `ds100` model.
fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--quick")
}

fn bench_grounding(c: &mut Criterion) {
    let mut group = c.benchmark_group("grounding");
    group.sample_size(20);
    for invocations in [1usize, 2, 4] {
        let config = ScenarioConfig {
            rows_per_relation: 20,
            noise: NoiseConfig::uniform(25.0),
            seed: 3,
            ..ScenarioConfig::all_primitives(invocations)
        };
        let scenario = generate(&config);
        group.bench_with_input(
            BenchmarkId::new("coverage-model", scenario.candidates.len()),
            &invocations,
            |b, _| {
                b.iter(|| {
                    CoverageModel::build(
                        std::hint::black_box(&scenario.source),
                        std::hint::black_box(&scenario.target),
                        std::hint::black_box(&scenario.candidates),
                    )
                });
            },
        );
        let model = CoverageModel::build(&scenario.source, &scenario.target, &scenario.candidates);
        let psl = PslCollective::default();
        group.bench_with_input(
            BenchmarkId::new("program+admm", scenario.candidates.len()),
            &invocations,
            |b, _| {
                b.iter(|| {
                    psl.infer(
                        std::hint::black_box(&model),
                        &ObjectiveWeights::unweighted(),
                    )
                });
            },
        );
        // Grounding engines head-to-head on the declarative rule program.
        let (program, _) = psl.build_declarative_program(&model, &ObjectiveWeights::unweighted());
        group.bench_with_input(
            BenchmarkId::new("ground-plan", invocations),
            &invocations,
            |b, _| {
                b.iter(|| std::hint::black_box(&program).ground().expect("grounds"));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("ground-naive", invocations),
            &invocations,
            |b, _| {
                b.iter(|| {
                    std::hint::black_box(&program)
                        .ground_naive()
                        .expect("grounds")
                });
            },
        );
    }

    let scenario = generate(&ScenarioConfig {
        rows_per_relation: if test_mode() { 10 } else { 100 },
        noise: NoiseConfig::uniform(25.0),
        seed: 7,
        ..ScenarioConfig::all_primitives(4)
    });
    let model = CoverageModel::build(&scenario.source, &scenario.target, &scenario.candidates);
    let (reduced, _) = preprocess(&model);
    let psl = PslCollective::default();
    let weights = ObjectiveWeights::unweighted();
    group.bench_with_input(BenchmarkId::new("psl-program", "ds100"), &(), |b, ()| {
        b.iter(|| {
            let (program, _) = psl.build_program(std::hint::black_box(&reduced), &weights);
            program.ground().expect("grounds")
        });
    });
    group.bench_with_input(BenchmarkId::new("psl-compile", "ds100"), &(), |b, ()| {
        b.iter(|| psl.compile(std::hint::black_box(&reduced), &weights));
    });
    group.finish();
}

criterion_group!(benches, bench_grounding);
criterion_main!(benches);
