//! The traced run: per-layer cost, timed from the benchmark's own code.
//!
//! Each step runs a scenario twice: once through `evaluate_scenario`
//! (plain), and once as the same public calls made one by one, each under
//! a layer timer (traced). The order alternates per step. The traced
//! scenario's time against the plain one's is the tracing overhead; the
//! part of it no layer timer covers is the unattributed share.
//!
//! Sub-layers — the chase inside a coverage build, grounding and ADMM
//! inside PSL inference, the relaxation mirror inside local search — come
//! from extra calls after the traced scenario that repeat identical work.
//! They are not part of the scenario's time, and each number is one call
//! or a difference between two calls doing the same work.

use crate::harness::{
    exact_share, guarded, weights, within_budget, Evaluation, Failure, LineupResult,
};
use crate::run::{elapsed_ms, Bench};
use cms_candgen::generate_candidates;
use cms_ibench::Scenario;
use cms_psl::best_threshold_rounding;
use cms_select::{
    data_prf, mapping_prf, preprocess, CoverageModel, LocalSearch, Objective, PslCollective,
    SelectionOutcome, Selector,
};
use cms_tgd::ChaseEngine;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-key sums of times (ms) and counts.
#[derive(Default)]
struct Sums(BTreeMap<&'static str, f64>);

impl Sums {
    fn add(&mut self, key: &'static str, value: f64) {
        *self.0.entry(key).or_insert(0.0) += value;
    }

    fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(key, elapsed_ms(start));
        out
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    fn absorb(&mut self, other: Sums) {
        for (key, value) in other.0 {
            self.add(key, value);
        }
    }
}

/// Layer timers of a traced scenario; their sum is its attributed time.
const ATTRIBUTED: [&str; 7] = [
    "coverage.build_ms",
    "preprocess.ms",
    "greedy.ms",
    "local_search.ms",
    "branch_bound.ms",
    "psl.select_ms",
    "metrics.data_prf_ms",
];

fn select_key(selector: &str) -> &'static str {
    match selector {
        "greedy" => "greedy.ms",
        "local-search" => "local_search.ms",
        "branch-bound" => "branch_bound.ms",
        "psl-collective" => "psl.select_ms",
        // Reference and baseline selectors: cheap, reported by no layer.
        _ => "baseline.select_ms",
    }
}

/// Measure the per-layer metrics over the closed loop.
pub fn measure(
    bench: &mut Bench,
    generate_ms: &[f64],
    seconds: f64,
    lines: &mut Vec<String>,
) -> BTreeMap<&'static str, f64> {
    let mut sums = Sums::default();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    // Per-layer shares need no full pass; the scenarios reached are
    // checked like plain ones.
    bench.closed_loop(seconds, false, |b, i, step| {
        if step % 2 == 0 {
            plain.push(b.run_plain(i));
            traced.push(trace_scenario(b, i, &mut sums));
        } else {
            traced.push(trace_scenario(b, i, &mut sums));
            plain.push(b.run_plain(i));
        }
    });
    lines.push(format!(
        "traced scenarios: {} (and {} plain)",
        traced.len(),
        plain.len()
    ));

    let n = traced.len() as f64;
    let per = |key: &str| sums.get(key) / n;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let set_mean = |f: fn(&Scenario) -> usize| {
        let total: usize = bench.scenarios.iter().map(f).sum();
        total as f64 / bench.scenarios.len().max(1) as f64
    };
    let reused = sums.get("reground.terms_reused");
    let recomputed = sums.get("reground.terms_recomputed");
    let prefix_reused = sums.get("chase.prefix_reused");
    let prefix_computed = sums.get("chase.prefix_computed");
    BTreeMap::from([
        ("ibench.generate_ms", mean(generate_ms)),
        ("ibench.source_tuples", set_mean(|s| s.stats.source_tuples)),
        ("ibench.target_tuples", set_mean(|s| s.stats.target_tuples)),
        ("candgen.generate_ms", per("candgen.generate_ms")),
        ("candgen.candidates", per("candgen.candidates")),
        ("chase.all_ms", per("chase.all_ms")),
        ("chase.firings", per("chase.firings")),
        (
            "chase.prefix_reuse_share",
            ratio(prefix_reused, prefix_reused + prefix_computed),
        ),
        ("coverage.build_ms", per("coverage.build_ms")),
        (
            "coverage.score_ms",
            per("coverage.build_ms") - per("chase.all_ms"),
        ),
        ("coverage.error_groups", per("coverage.error_groups")),
        ("coverage.cover_pairs", per("coverage.cover_pairs")),
        ("preprocess.ms", per("preprocess.ms")),
        (
            "preprocess.certain_unexplained",
            per("preprocess.certain_unexplained"),
        ),
        ("psl.build_program_ms", per("psl.build_program_ms")),
        ("ground.ms", per("ground.ms")),
        ("ground.terms", per("ground.terms")),
        (
            "admm.ms",
            per("psl.infer_ms") - per("psl.build_program_ms") - per("ground.ms"),
        ),
        ("admm.iterations", per("admm.iterations")),
        (
            "admm.converged_share",
            ratio(sums.get("admm.converged"), sums.get("admm.calls")),
        ),
        ("rounding.ms", per("rounding.ms")),
        ("rounding.evaluations", per("rounding.evaluations")),
        (
            "repair.ms",
            per("psl.select_ms") - per("psl.infer_ms") - per("rounding.ms"),
        ),
        (
            "local_search.mirror_ms",
            per("local_search.ms") - per("local_search.untracked_ms"),
        ),
        ("reground.terms_reused", per("reground.terms_reused")),
        (
            "reground.terms_recomputed",
            per("reground.terms_recomputed"),
        ),
        ("reground.reuse_share", ratio(reused, reused + recomputed)),
        ("relax.admm_iterations", per("relax.admm_iterations")),
        ("relax.flips", per("relax.flips")),
        ("greedy.ms", per("greedy.ms")),
        ("greedy.evaluations", per("greedy.evaluations")),
        ("local_search.ms", per("local_search.ms")),
        ("local_search.evaluations", per("local_search.evaluations")),
        ("branch_bound.ms", per("branch_bound.ms")),
        ("branch_bound.nodes", per("branch_bound.nodes")),
        (
            "branch_bound.ns_per_node",
            ratio(
                sums.get("branch_bound.ms") * 1e6,
                sums.get("branch_bound.nodes"),
            ),
        ),
        (
            "branch_bound.exact_share",
            exact_share(
                sums.get("branch_bound.exact") as usize,
                sums.get("branch_bound.calls") as usize,
            ),
        ),
        ("metrics.data_prf_ms", per("metrics.data_prf_ms")),
        ("trace.overhead_share", mean(&traced) / mean(&plain) - 1.0),
        (
            "trace.unattributed_share",
            ratio(
                sums.get("scenario_ms") - sums.get("attributed_ms"),
                sums.get("scenario_ms"),
            ),
        ),
    ])
}

/// Run scenario `i` traced, then its sub-layer calls; verify and count
/// the traced evaluations like plain ones. Returns the scenario's time.
fn trace_scenario(bench: &mut Bench, i: usize, sums: &mut Sums) -> f64 {
    let lineup = bench.lineup(i);
    let scenario = &bench.scenarios[i];
    let mut layer = Sums::default();
    let mut first_model = None;
    let start = Instant::now();
    let results: LineupResult = lineup
        .iter()
        .map(|selector| {
            let eval = guarded(|| {
                traced_evaluation(scenario, selector.as_ref(), &mut layer, &mut first_model)
            });
            (selector.name().to_owned(), eval)
        })
        .collect();
    let scenario_ms = elapsed_ms(start);
    sums.add("scenario_ms", scenario_ms);
    sums.add(
        "attributed_ms",
        ATTRIBUTED.iter().map(|key| layer.get(key)).sum(),
    );
    sums.absorb(layer);

    let sub_layers = match first_model {
        Some((reduced, certain_unexplained)) => guarded(|| {
            sub_layers(
                scenario,
                &lineup,
                &results,
                &reduced,
                certain_unexplained,
                sums,
            )
        }),
        None => Ok(()),
    };
    bench.tally.record(
        &format!("scenario {i} sub-layers"),
        sub_layers.as_ref().map(|_| ()),
    );
    bench.verify(i, results);
    scenario_ms
}

/// `evaluate_scenario`'s calls, each under its layer timer. The first
/// evaluation of a scenario also hands out its preprocessed model.
fn traced_evaluation(
    scenario: &Scenario,
    selector: &dyn Selector,
    layer: &mut Sums,
    first_model: &mut Option<(CoverageModel, usize)>,
) -> Evaluation {
    let w = weights();
    let start = Instant::now();
    let model = layer.time("coverage.build_ms", || {
        CoverageModel::build(&scenario.source, &scenario.target, &scenario.candidates)
    });
    let (reduced, report) = layer.time("preprocess.ms", || preprocess(&model));
    let constant = w.w_explain * report.certain_unexplained as f64;
    let select_start = Instant::now();
    let mut selection = layer
        .time(select_key(selector.name()), || {
            selector.select(&reduced, &w)
        })
        .map_err(|e| Failure::Err(e.to_string()))?;
    let select_wall = select_start.elapsed();
    selection.objective += constant;
    let gold_objective = Objective::new(&reduced, w).value(&scenario.gold) + constant;
    let mapping = mapping_prf(&selection.selected, &scenario.gold);
    let data = layer.time("metrics.data_prf_ms", || {
        data_prf(
            &scenario.source,
            &scenario.candidates,
            &selection.selected,
            &scenario.gold,
        )
    });
    if first_model.is_none() {
        *first_model = Some((reduced, report.certain_unexplained));
    }
    Ok(SelectionOutcome {
        selector: selector.name().to_owned(),
        selection,
        mapping,
        data,
        gold_objective,
        preprocess: report,
        wall: start.elapsed(),
        select_wall,
    })
}

/// The extra calls that split layers into their parts.
fn sub_layers(
    scenario: &Scenario,
    lineup: &[Box<dyn Selector>],
    results: &LineupResult,
    reduced: &CoverageModel,
    certain_unexplained: usize,
    sums: &mut Sums,
) -> Result<(), Failure> {
    let w = weights();
    sums.add("coverage.error_groups", reduced.errors.len() as f64);
    sums.add(
        "coverage.cover_pairs",
        reduced.covers.iter().map(Vec::len).sum::<usize>() as f64,
    );
    sums.add("preprocess.certain_unexplained", certain_unexplained as f64);

    let candidates = sums.time("candgen.generate_ms", || {
        generate_candidates(
            &scenario.source_schema,
            &scenario.target_schema,
            &scenario.correspondences,
            &scenario.config.candgen,
        )
    });
    sums.add("candgen.candidates", candidates.len() as f64);

    // Every coverage build of the line-up ran this chase once.
    for _ in lineup {
        let start = Instant::now();
        let engine = ChaseEngine::new(&scenario.candidates)
            .map_err(|e| Failure::Err(format!("chase engine: {e}")))?;
        let (solutions, stats) = engine.chase_all_stats(&scenario.source);
        sums.add("chase.all_ms", elapsed_ms(start));
        drop(solutions);
        sums.add("chase.firings", stats.firings as f64);
        sums.add(
            "chase.prefix_computed",
            stats.prefix_bindings_computed as f64,
        );
        sums.add("chase.prefix_reused", stats.prefix_bindings_reused as f64);
    }

    for (name, eval) in results {
        let Ok(outcome) = eval else { continue };
        let selection = &outcome.selection;
        let telemetry = &selection.telemetry;
        match name.as_str() {
            "greedy" => sums.add("greedy.evaluations", selection.evaluations as f64),
            "branch-bound" => {
                sums.add("branch_bound.nodes", selection.evaluations as f64);
                sums.add("branch_bound.calls", 1.0);
                sums.add(
                    "branch_bound.exact",
                    f64::from(u8::from(within_budget(selection))),
                );
            }
            "local-search" => {
                let untracked = LocalSearch {
                    track_relaxation: false,
                    ..LocalSearch::default()
                };
                sums.time("local_search.untracked_ms", || {
                    untracked.select(reduced, &w)
                })
                .map_err(|e| Failure::Err(e.to_string()))?;
                sums.add("local_search.evaluations", selection.evaluations as f64);
                sums.add("reground.terms_reused", telemetry.terms_reused as f64);
                sums.add(
                    "reground.terms_recomputed",
                    telemetry.terms_recomputed as f64,
                );
                sums.add("relax.admm_iterations", telemetry.admm_iterations as f64);
                sums.add("relax.flips", telemetry.flips as f64);
            }
            "psl-collective" => psl_sub_layers(reduced, sums)?,
            _ => {}
        }
    }
    Ok(())
}

/// PSL selection split into program build, grounding, inference and
/// rounding; repair is the rest of `select`.
fn psl_sub_layers(reduced: &CoverageModel, sums: &mut Sums) -> Result<(), Failure> {
    let w = weights();
    let psl = PslCollective::default();
    let (program, _) = sums.time("psl.build_program_ms", || psl.build_program(reduced, &w));
    let ground = sums
        .time("ground.ms", || program.ground())
        .map_err(|e| Failure::Err(e.to_string()))?;
    sums.add(
        "ground.terms",
        (ground.potentials.len() + ground.constraints.len()) as f64,
    );
    drop(ground);
    drop(program);

    let run = sums
        .time("psl.infer_ms", || psl.infer(reduced, &w))
        .map_err(|e| Failure::Err(e.to_string()))?;
    sums.add("admm.iterations", run.iterations as f64);
    sums.add("admm.calls", 1.0);
    sums.add("admm.converged", f64::from(u8::from(run.converged)));

    let objective = Objective::new(reduced, w);
    let mut evaluations = 0usize;
    sums.time("rounding.ms", || {
        best_threshold_rounding(&run.relaxed, |selection| {
            evaluations += 1;
            objective.value(selection)
        })
    });
    sums.add("rounding.evaluations", evaluations as f64);
    Ok(())
}
