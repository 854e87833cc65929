//! End-to-end equivalence of the batched chase engine against the retained
//! naive per-tgd chase, on the real candidate sets candgen emits for
//! seeded iBench scenarios — plus equality of the coverage models built on
//! top of either chase.
//!
//! The contract under test (see `cms_tgd::engine`):
//!
//! * `ChaseEngine::chase_all` equals `chase_one` per candidate up to null
//!   renaming, and `chase_one_canonical` bit for bit;
//! * `ChaseEngine::chase_merged` equals `chase` up to null renaming, and
//!   `chase_canonical` bit for bit;
//! * `CoverageModel` built on the engine chase and scored through the
//!   target's column index is identical — cover degrees bit for bit,
//!   sizes, error groups, error counts — to one built on the naive chase
//!   and scored by the retained scan-every-target scorer
//!   (`CoverageModel::build_reference`).

use cms::prelude::*;
use cms::tgd::{chase_canonical, chase_one_canonical, ChaseEngine};
use cms_select::{CoverageModel, CoverageOptions};

/// Error groups as an order-insensitive multiset: creators plus the
/// null-canonicalized pattern of the representative tuple (engine and
/// naive builds may order null-error groups differently and use different
/// null ids).
fn error_multiset(model: &CoverageModel) -> Vec<(Vec<usize>, TuplePattern)> {
    let mut groups: Vec<(Vec<usize>, TuplePattern)> = model
        .errors
        .iter()
        .map(|g| {
            (
                g.creators.clone(),
                TuplePattern::of(g.example.rel, &g.example.args),
            )
        })
        .collect();
    groups.sort();
    groups
}

fn assert_models_identical(engine: &CoverageModel, naive: &CoverageModel, label: &str) {
    assert_eq!(engine.num_candidates, naive.num_candidates, "{label}");
    assert_eq!(engine.targets, naive.targets, "{label}: target tuples");
    assert_eq!(engine.sizes, naive.sizes, "{label}: sizes");
    let bits = |m: &CoverageModel| -> Vec<Vec<(usize, u64)>> {
        m.covers
            .iter()
            .map(|list| list.iter().map(|&(t, d)| (t, d.to_bits())).collect())
            .collect()
    };
    assert_eq!(bits(engine), bits(naive), "{label}: cover degrees");
    assert_eq!(
        engine.error_counts, naive.error_counts,
        "{label}: error counts"
    );
    assert_eq!(
        error_multiset(engine),
        error_multiset(naive),
        "{label}: error groups"
    );
}

#[test]
fn engine_matches_naive_chase_on_seeded_scenarios() {
    for (invocations, seed) in [(1usize, 1u64), (1, 7), (2, 3)] {
        let config = ScenarioConfig {
            rows_per_relation: 12,
            noise: NoiseConfig::uniform(25.0),
            seed,
            ..ScenarioConfig::all_primitives(invocations)
        };
        let scenario = generate(&config);
        let label = format!("all_primitives({invocations}) seed {seed}");
        let engine = ChaseEngine::new(&scenario.candidates)
            .unwrap_or_else(|e| panic!("{label}: candidates must validate: {e}"));
        let (solutions, stats) = engine.chase_all_stats(&scenario.source);
        assert_eq!(solutions.len(), scenario.candidates.len(), "{label}");

        for (i, (k, tgd)) in solutions.iter().zip(&scenario.candidates).enumerate() {
            let naive = chase_one(&scenario.source, tgd);
            assert_eq!(
                pattern_multiset(k),
                pattern_multiset(&naive),
                "{label}: candidate {i} patterns diverged"
            );
            assert_eq!(k.total_len(), naive.total_len(), "{label}: candidate {i}");
            let canonical = chase_one_canonical(&scenario.source, tgd).expect("valid tgd");
            assert_eq!(
                k.to_tuples(),
                canonical.to_tuples(),
                "{label}: candidate {i} not bit-identical to the canonical reference"
            );
        }

        // Merged solution (the metrics path).
        let merged = engine.chase_merged(&scenario.source);
        let canonical = chase_canonical(&scenario.source, &scenario.candidates).unwrap();
        assert_eq!(merged.to_tuples(), canonical.to_tuples(), "{label}: merged");
        assert_eq!(
            pattern_multiset(&merged),
            pattern_multiset(&chase(&scenario.source, &scenario.candidates)),
            "{label}: merged patterns"
        );

        // Candgen reuses one body per source logical relation across many
        // heads: the trie must actually share work on these sets.
        assert!(
            stats.prefix_bindings_reused > 0,
            "{label}: no prefix sharing on a candgen candidate set ({stats:?})"
        );
        assert!(
            stats.trie_nodes > 0 && stats.firings > 0,
            "{label}: {stats:?}"
        );
    }
}

#[test]
fn coverage_model_identical_on_engine_and_naive_chase() {
    // (invocations, rows per relation, uniform noise %, seed)
    let battery = [
        (1usize, 10usize, 25.0, 5u64),
        (2, 10, 25.0, 11),
        (1, 25, 0.0, 7),
        (1, 25, 25.0, 7),
        (1, 25, 75.0, 7),
        (4, 25, 25.0, 7),
    ];
    for (invocations, rows, noise, seed) in battery {
        let config = ScenarioConfig {
            rows_per_relation: rows,
            noise: NoiseConfig::uniform(noise),
            seed,
            ..ScenarioConfig::all_primitives(invocations)
        };
        let scenario = generate(&config);
        let label = format!(
            "coverage all_primitives({invocations}) rows {rows} noise {noise}% seed {seed}"
        );
        let options = CoverageOptions::default();
        let engine_model = CoverageModel::build_with(
            &scenario.source,
            &scenario.target,
            &scenario.candidates,
            &options,
        );
        let naive_model = CoverageModel::build_reference(
            &scenario.source,
            &scenario.target,
            &scenario.candidates,
            &options,
        );
        assert_models_identical(&engine_model, &naive_model, &label);
    }
}

#[test]
fn coverage_model_identical_under_use_core() {
    // Core computation is superlinear — keep the scenario small.
    let config = ScenarioConfig {
        rows_per_relation: 5,
        seed: 2,
        ..ScenarioConfig::all_primitives(1)
    };
    let scenario = generate(&config);
    let options = CoverageOptions { use_core: true };
    let engine_model = CoverageModel::build_with(
        &scenario.source,
        &scenario.target,
        &scenario.candidates,
        &options,
    );
    let naive_model = CoverageModel::build_reference(
        &scenario.source,
        &scenario.target,
        &scenario.candidates,
        &options,
    );
    assert_models_identical(&engine_model, &naive_model, "use_core");
}

#[test]
fn build_with_stats_reports_trie_sharing() {
    let config = ScenarioConfig {
        rows_per_relation: 12,
        seed: 4,
        ..ScenarioConfig::all_primitives(2)
    };
    let scenario = generate(&config);
    let (model, stats) = CoverageModel::build_with_stats(
        &scenario.source,
        &scenario.target,
        &scenario.candidates,
        &CoverageOptions::default(),
    )
    .expect("scenario candidates validate");
    assert_eq!(model.num_candidates, scenario.candidates.len());
    assert_eq!(stats.tgds, scenario.candidates.len());
    assert!(
        stats.prefix_bindings_reused > 0,
        "coverage build must share prefix bindings: {stats:?}"
    );
}
