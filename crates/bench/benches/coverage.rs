//! Criterion bench: coverage scoring, the half of coverage-model
//! construction that compares each candidate's chased solution against the
//! target instance (`CoverageModel::from_solutions`).
//!
//! The scaling curve runs `all_primitives(4)` at 25% uniform noise, seed 7,
//! with rows per relation swept 25 → 400. The candidate solutions are
//! chased once outside the timed body, so each line times scoring alone:
//!
//! * `score/<rows>` — the indexed scorer: each chased tuple probes the
//!   target's column index on its most selective constant, and null
//!   support is one lookup in a table filled while matching;
//! * `score-reference/<rows>` — the retained scan-every-target scorer
//!   (`CoverageModel::from_solutions_reference`), at the two smallest
//!   sizes only: its support re-scan grows as about |J|^2.7.
//!
//! CI gates `score/50` at ≤ 0.25× `score-reference/50` in the same run.

use cms_ibench::{generate, NoiseConfig, ScenarioConfig};
use cms_select::{CoverageModel, CoverageOptions};
use cms_tgd::ChaseEngine;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_coverage(c: &mut Criterion) {
    let mut group = c.benchmark_group("coverage");
    group.sample_size(10);
    let options = CoverageOptions::default();
    for rows in [25usize, 50, 100, 200, 400] {
        let scenario = generate(&ScenarioConfig {
            rows_per_relation: rows,
            noise: NoiseConfig::uniform(25.0),
            seed: 7,
            ..ScenarioConfig::all_primitives(4)
        });
        let candidates = &scenario.candidates;
        let solutions = ChaseEngine::new(candidates)
            .expect("candidates validate")
            .chase_all(&scenario.source);
        let target = &scenario.target;
        group.bench_with_input(BenchmarkId::new("score", rows), &rows, |b, _| {
            b.iter(|| {
                let target = std::hint::black_box(target);
                CoverageModel::from_solutions(target, candidates, &solutions, &options)
            });
        });
        if rows <= 50 {
            group.bench_with_input(BenchmarkId::new("score-reference", rows), &rows, |b, _| {
                b.iter(|| {
                    let target = std::hint::black_box(target);
                    CoverageModel::from_solutions_reference(
                        target, candidates, &solutions, &options,
                    )
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_coverage);
criterion_main!(benches);
