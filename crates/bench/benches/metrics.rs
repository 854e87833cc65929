//! Criterion bench: the data-level metric, data F1 of a selection against
//! the gold mapping.
//!
//! Each size runs `all_primitives(4)` at 25% uniform noise, seed 7, rows
//! per relation as in the bench id, and scores greedy's selection on it.
//! The selection is made, and the candidate solutions are chased, once
//! outside the timed bodies:
//!
//! * `data-prf/<rows>` — `data_prf_from_solutions` on the solutions the
//!   coverage build chased: no chase, patterns built only for the
//!   candidates in one of the two sets;
//! * `data-prf-reference/<rows>` — the oracle `data_prf`, which chases the
//!   selection and the gold mapping afresh on every call.
//!
//! CI gates `data-prf/50` at ≤ 0.25× `data-prf-reference/50` in the same
//! run.

use cms_ibench::{generate, NoiseConfig, ScenarioConfig};
use cms_select::{data_prf, data_prf_from_solutions, evaluate_scenario, Greedy, ObjectiveWeights};
use cms_tgd::ChaseEngine;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics");
    group.sample_size(10);
    for rows in [25usize, 50, 100] {
        let scenario = generate(&ScenarioConfig {
            rows_per_relation: rows,
            noise: NoiseConfig::uniform(25.0),
            seed: 7,
            ..ScenarioConfig::all_primitives(4)
        });
        let selected = evaluate_scenario(&scenario, &Greedy, &ObjectiveWeights::unweighted())
            .expect("greedy evaluates")
            .selection
            .selected;
        let gold = &scenario.gold;
        let solutions = ChaseEngine::new(&scenario.candidates)
            .expect("candidates validate")
            .chase_all(&scenario.source);
        group.bench_with_input(BenchmarkId::new("data-prf", rows), &rows, |b, _| {
            b.iter(|| {
                let solutions = std::hint::black_box(&solutions);
                data_prf_from_solutions(solutions, &selected, gold)
            });
        });
        group.bench_with_input(
            BenchmarkId::new("data-prf-reference", rows),
            &rows,
            |b, _| {
                b.iter(|| {
                    let source = std::hint::black_box(&scenario.source);
                    data_prf(source, &scenario.candidates, &selected, gold)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_metrics);
criterion_main!(benches);
