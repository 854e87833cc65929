//! Tests of the benchmark harness itself: order statistics, failure
//! counting, metric naming, and agreement with `BENCHMARK.json`.

use cms_benchmark::harness::check_appendix;
use cms_benchmark::report::{MetricDef, Report, END_TO_END, PER_LAYER};
use cms_benchmark::run::{run_configs, setup, Bench, LineupFn};
use cms_benchmark::stats::{median, tail};
use cms_benchmark::workload::Workload;
use cms_benchmark::{parse_args, Args};
use cms_ibench::{NoiseConfig, ScenarioConfig};
use cms_obs::json::{parse, Json};
use cms_select::{
    BranchBound, CoverageModel, Greedy, Objective, ObjectiveWeights, SelectError, Selection,
    Selector,
};
use std::sync::atomic::{AtomicUsize, Ordering};

fn tiny_configs() -> Vec<ScenarioConfig> {
    [0.0, 25.0]
        .into_iter()
        .map(|pct| ScenarioConfig {
            rows_per_relation: 6,
            noise: NoiseConfig::uniform(pct),
            ..ScenarioConfig::all_primitives(1)
        })
        .collect()
}

/// The noise sweep's line-up plus branch-and-bound, so one tiny run
/// reaches every layer.
fn every_selector() -> LineupFn {
    Box::new(|s| {
        let mut lineup = Workload::NoiseSweep.lineup(s);
        lineup.push(Box::new(BranchBound {
            node_budget: Some(10_000),
        }));
        lineup
    })
}

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn tail_needs_ten_samples_beyond_it() {
    let ascending = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
    assert_eq!(tail(&[]), None);
    assert_eq!(tail(&ascending(10)), None);

    // Eleven samples: only the smallest has ten beyond it.
    let t = tail(&ascending(11)).unwrap();
    assert_eq!(t.value, 1.0);
    assert_eq!(t.samples, 11);
    assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);

    // A thousand samples: the 990th value, at p99.
    let mut shuffled = ascending(1000);
    shuffled.reverse();
    let t = tail(&shuffled).unwrap();
    assert_eq!(t.value, 990.0);
    assert!((t.percentile - 99.0).abs() < 1e-12);
    let beyond = shuffled.iter().filter(|&&v| v > t.value).count();
    assert_eq!(beyond, 10);
}

struct Failing;

impl Selector for Failing {
    fn name(&self) -> &str {
        "failing"
    }
    fn select(&self, _: &CoverageModel, _: &ObjectiveWeights) -> Result<Selection, SelectError> {
        Err(SelectError::Grounding(
            cms_psl::GroundingError::UnsafeRule {
                rule: "injected".to_owned(),
            },
        ))
    }
}

/// Reports an objective one higher than its selection's.
struct Misreporting;

impl Selector for Misreporting {
    fn name(&self) -> &str {
        "misreporting"
    }
    fn select(
        &self,
        model: &CoverageModel,
        w: &ObjectiveWeights,
    ) -> Result<Selection, SelectError> {
        let mut selection = Greedy.select(model, w)?;
        selection.objective += 1.0;
        Ok(selection)
    }
}

struct Panicking;

impl Selector for Panicking {
    fn name(&self) -> &str {
        "panicking"
    }
    fn select(&self, _: &CoverageModel, _: &ObjectiveWeights) -> Result<Selection, SelectError> {
        panic!("injected panic")
    }
}

#[test]
fn errors_panics_and_failed_checks_are_counted() {
    let lineup: LineupFn = Box::new(|_| {
        vec![
            Box::new(Greedy),
            Box::new(Failing),
            Box::new(Misreporting),
            Box::new(Panicking),
        ]
    });
    let report = run_configs(&tiny_configs()[..1], lineup, 0.0, false, 1);
    // The appendix check plus four evaluations; three of them fail.
    assert_eq!(report.attempted, 5);
    assert_eq!(report.failed, 3);
    assert!(!report.correct);
    let failures: Vec<&String> = report
        .lines
        .iter()
        .filter(|l| l.starts_with("failure:"))
        .collect();
    assert_eq!(failures.len(), 3, "{failures:?}");
    assert!(failures.iter().any(|l| l.contains("injected panic")));
    assert!(failures.iter().any(|l| l.contains("reports objective")));
    assert!(report
        .lines
        .iter()
        .any(|l| l.contains("failed_share = 0.6")));
}

#[test]
fn a_clean_line_up_passes_every_check() {
    let report = run_configs(&tiny_configs(), every_selector(), 0.0, false, 1);
    assert!(report.correct, "{:#?}", report.lines);
    assert_eq!(report.failed, 0);
    assert_eq!(report.attempted, 1 + 2 * 7);
    assert!(check_appendix().is_ok());
}

/// Selects nothing on its first call and the first candidate afterwards,
/// reporting the true objective each time.
struct Drifting(AtomicUsize);

impl Selector for Drifting {
    fn name(&self) -> &str {
        "drifting"
    }
    fn select(
        &self,
        model: &CoverageModel,
        w: &ObjectiveWeights,
    ) -> Result<Selection, SelectError> {
        let mut selection = Greedy.select(model, w)?;
        selection.selected = if self.0.fetch_add(1, Ordering::SeqCst) == 0 {
            Vec::new()
        } else {
            vec![0]
        };
        selection.objective = Objective::new(model, *w).value(&selection.selected);
        Ok(selection)
    }
}

#[test]
fn a_rerun_that_differs_from_the_first_run_fails() {
    let drifting = std::sync::Arc::new(Drifting(AtomicUsize::new(0)));
    let lineup: LineupFn = Box::new(move |_| vec![Box::new(SharedSelector(drifting.clone()))]);
    let scenarios = setup(&tiny_configs()[..1], 1).scenarios;
    let mut bench = Bench::new(scenarios, lineup);
    bench.run_plain(0);
    assert_eq!((bench.tally.attempted, bench.tally.failed), (1, 0));
    bench.run_plain(0);
    assert_eq!((bench.tally.attempted, bench.tally.failed), (2, 1));
    assert!(bench.tally.messages[0].contains("differs from the scenario's first run"));
}

struct SharedSelector(std::sync::Arc<Drifting>);

impl Selector for SharedSelector {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn select(
        &self,
        model: &CoverageModel,
        w: &ObjectiveWeights,
    ) -> Result<Selection, SelectError> {
        self.0.select(model, w)
    }
}

#[test]
fn the_same_seed_repeats_quality_and_counts_exactly() {
    let configs = |seed| {
        let mut configs = Workload::NoiseSweep.scenario_configs(seed);
        configs.truncate(3);
        for c in &mut configs {
            c.rows_per_relation = 8;
        }
        configs
    };
    let run = |seed| {
        let report = run_configs(
            &configs(seed),
            Box::new(|s| Workload::NoiseSweep.lineup(s)),
            0.0,
            false,
            1,
        );
        assert!(report.correct, "{:#?}", report.lines);
        report
    };
    let exact = |r: &Report| {
        let quality: Vec<u64> = ["map_f1", "data_f1", "objective_ratio", "exact_share"]
            .iter()
            .map(|name| r.values[name].to_bits())
            .collect();
        let counts: Vec<String> = r
            .lines
            .iter()
            .filter(|l| l.starts_with("count ") || l.starts_with("quality:"))
            .cloned()
            .collect();
        (quality, counts)
    };
    assert_eq!(exact(&run(5)), exact(&run(5)));
    assert_ne!(configs(5)[0].seed, configs(6)[0].seed);
}

fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn metric_names_and_units_use_the_allowed_characters() {
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
    names.extend(Workload::ALL.iter().map(|w| w.name()));
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(name_ok(m.name), "bad metric name {:?}", m.name);
        assert!(unit_ok(m.unit), "bad unit {:?} of {}", m.unit, m.name);
    }
    for w in Workload::ALL {
        assert!(name_ok(w.name()), "bad workload name {:?}", w.name());
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "a name is used twice");
    assert!(!name_ok("_leading") && !name_ok("has space") && !name_ok(&"x".repeat(65)));
    assert!(!unit_ok("") && !unit_ok("m s") && unit_ok("1/s") && unit_ok("%"));
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    parse(&text).expect("BENCHMARK.json parses")
}

fn listed(json: &Json, key: &str) -> Vec<(String, String, bool)> {
    let Some(Json::Arr(items)) = json.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
            (field("name"), field("unit"), field("better") == "higher")
        })
        .collect()
}

fn catalogue(defs: &[MetricDef]) -> Vec<(String, String, bool)> {
    defs.iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.higher_is_better))
        .collect()
}

/// Metric names and units of a printed result line.
fn printed(report: &Report) -> Vec<(String, String)> {
    let json = parse(&report.to_json()).expect("the result line is JSON");
    let Json::Obj(top) = &json else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        panic!("no metrics")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no value"
            );
            (
                name.clone(),
                m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_catalogue_and_the_command_prints_it() {
    let json = benchmark_json();
    assert_eq!(listed(&json, "end_to_end"), catalogue(END_TO_END));
    assert_eq!(listed(&json, "per_layer"), catalogue(PER_LAYER));
    let Some(Json::Arr(workloads)) = json.get("workloads") else {
        panic!("no workloads")
    };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, Workload::ALL.map(|w| w.name()));

    for (traced, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
        let report = run_configs(&tiny_configs(), every_selector(), 0.0, traced, 1);
        assert!(report.correct, "{:#?}", report.lines);
        let mut expected: Vec<(String, String)> = defs
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect();
        expected.sort();
        assert_eq!(printed(&report), expected, "traced = {traced}");
    }
}

#[test]
fn every_flag_is_required_and_checked() {
    let args = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
    assert_eq!(
        args("--workload data-scale --seed 3 --seconds 10 --trace 1"),
        Ok(Args {
            workload: Workload::DataScale,
            seed: 3,
            seconds: 10.0,
            trace: true,
        })
    );
    assert!(args("--workload data-scale --seed 3 --seconds 10").is_err());
    assert!(args("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
    assert!(args("--workload data-scale --seed -1 --seconds 10 --trace 0").is_err());
    assert!(args("--workload data-scale --seed 3 --seconds 10 --trace 2").is_err());
    assert!(args("--workload data-scale --seed 3 --seconds 10 --trace").is_err());
}
