//! Criterion bench: chase throughput (canonical universal solutions).
//!
//! Feeds EX6's cost model. The per-candidate chase is the smaller half of
//! coverage-model construction: before scoring went through the target's
//! column index, scoring cost about 300× the chase at 100 rows per
//! relation, and it is still the larger half (see the `coverage` bench).
//!
//! Per `all_primitives` size:
//!
//! * `gold-mapping` — the merged chase of the gold tgds (the exchange
//!   step), naive engine, rows_per_relation = 50;
//! * `naive-candidates` vs `engine-candidates` — the coverage-model
//!   workload at rows_per_relation = 100: every candgen-emitted candidate
//!   chased to its own solution, either by the retained per-tgd
//!   `chase_one` loop or by the batched [`ChaseEngine`] (shared
//!   body-prefix trie). Candgen reuses one body per source logical
//!   relation across many heads, so this is exactly the shared-prefix
//!   case the engine targets — the checked-in `BENCH_chase_baseline.json`
//!   records the engine beating the naive loop ≥3× and `bench_gate` holds
//!   every line;
//! * `engine-build` — compiling the engine (trie + fire plans) for the
//!   candidate set. Recorded separately because the engine is built once
//!   per candidate set and reused across chases; the line keeps compile
//!   cost visible and regression-gated.

use cms_ibench::{generate, ScenarioConfig};
use cms_tgd::{chase, chase_one, ChaseEngine};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_chase(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase");
    group.sample_size(20);
    for invocations in [1usize, 2, 4] {
        let config = ScenarioConfig {
            rows_per_relation: 50,
            seed: 3,
            ..ScenarioConfig::all_primitives(invocations)
        };
        let scenario = generate(&config);
        let gold: Vec<_> = scenario.gold_tgds().into_iter().cloned().collect();
        group.throughput(Throughput::Elements(scenario.source.total_len() as u64));
        group.bench_with_input(
            BenchmarkId::new("gold-mapping", 7 * invocations),
            &invocations,
            |b, _| {
                b.iter(|| {
                    chase(
                        std::hint::black_box(&scenario.source),
                        std::hint::black_box(&gold),
                    )
                });
            },
        );

        // The candidate-set chase behind CoverageModel::build: one
        // solution per candgen-emitted candidate, over a larger source.
        let big_config = ScenarioConfig {
            rows_per_relation: 100,
            ..config
        };
        let big = generate(&big_config);
        let candidates = big.candidates.clone();
        let engine = ChaseEngine::new(&candidates).expect("candidates validate");
        group.throughput(Throughput::Elements(candidates.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("naive-candidates", invocations),
            &invocations,
            |b, _| {
                b.iter(|| {
                    let source = std::hint::black_box(&big.source);
                    std::hint::black_box(&candidates)
                        .iter()
                        .map(|tgd| chase_one(source, tgd))
                        .collect::<Vec<_>>()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("engine-candidates", invocations),
            &invocations,
            |b, _| {
                b.iter(|| {
                    std::hint::black_box(&engine).chase_all(std::hint::black_box(&big.source))
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("engine-build", invocations),
            &invocations,
            |b, _| {
                b.iter(|| {
                    ChaseEngine::new(std::hint::black_box(&candidates))
                        .expect("candidates validate")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_chase);
criterion_main!(benches);
