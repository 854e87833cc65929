//! One benchmark run: set-up, the closed loop, and the end-to-end metrics.
//!
//! The loop is closed and single-client: one scenario at a time, each
//! one's whole line-up before the next. It cycles over the scenario set
//! until `--seconds` have passed and every scenario ran at least once.
//! A scenario's first run is checked in full and fixes its quality and
//! counts; every later run must reproduce it exactly.

use crate::harness::{
    check_appendix, check_lineup, run_lineup, Counts, Failure, Fingerprint, LineupResult, Quality,
    Reference, Tally,
};
use crate::host::HostSpeed;
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::stats::{median, tail};
use crate::trace;
use crate::workload::Workload;
use cms_ibench::{generate, Scenario, ScenarioConfig};
use cms_select::Selector;
use std::collections::BTreeMap;
use std::time::Instant;

/// Times the scenario set is generated; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 5;

/// Builds the line-up for a scenario.
pub type LineupFn = Box<dyn Fn(&Scenario) -> Vec<Box<dyn Selector>>>;

/// Milliseconds since `start`.
pub fn elapsed_ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The generated scenario set and what generating it cost.
pub struct Setup {
    /// The scenarios, in configuration order.
    pub scenarios: Vec<Scenario>,
    /// Median seconds to generate the whole set.
    pub setup_s: f64,
    /// Milliseconds to generate each scenario, in the last round.
    pub generate_ms: Vec<f64>,
}

/// Generate the scenario set `rounds` times.
pub fn setup(configs: &[ScenarioConfig], rounds: usize) -> Setup {
    let mut round_s = Vec::new();
    let mut scenarios = Vec::new();
    let mut generate_ms = Vec::new();
    for _ in 0..rounds.max(1) {
        let mut round = Vec::with_capacity(configs.len());
        generate_ms.clear();
        let start = Instant::now();
        for config in configs {
            let t = Instant::now();
            round.push(generate(config));
            generate_ms.push(elapsed_ms(t));
        }
        round_s.push(start.elapsed().as_secs_f64());
        scenarios = round;
    }
    Setup {
        scenarios,
        setup_s: median(&round_s),
        generate_ms,
    }
}

/// The scenario set under test, with its checks and first-run records.
pub struct Bench {
    /// The scenarios.
    pub scenarios: Vec<Scenario>,
    lineup: LineupFn,
    first_runs: Vec<Option<Vec<Option<Fingerprint>>>>,
    /// Evaluations attempted and failed.
    pub tally: Tally,
    /// Quality over each scenario's first run.
    pub quality: Quality,
    /// Exact counts over each scenario's first run.
    pub counts: Counts,
}

impl Bench {
    /// A bench over `scenarios`, each running the line-up `lineup` builds.
    pub fn new(scenarios: Vec<Scenario>, lineup: LineupFn) -> Bench {
        let n = scenarios.len();
        Bench {
            scenarios,
            lineup,
            first_runs: vec![None; n],
            tally: Tally::default(),
            quality: Quality::default(),
            counts: Counts::default(),
        }
    }

    /// The line-up of scenario `i`.
    pub fn lineup(&self, i: usize) -> Vec<Box<dyn Selector>> {
        (self.lineup)(&self.scenarios[i])
    }

    /// Run scenario `i`'s line-up through `evaluate_scenario`, verify it,
    /// and return its latency in milliseconds.
    pub fn run_plain(&mut self, i: usize) -> f64 {
        let lineup = self.lineup(i);
        let start = Instant::now();
        let results = run_lineup(&self.scenarios[i], &lineup);
        let ms = elapsed_ms(start);
        self.verify(i, results);
        ms
    }

    /// Check a line-up's results and count them. The first run of a
    /// scenario gets the full output checks; later runs must match it.
    pub fn verify(&mut self, i: usize, mut results: LineupResult) {
        match &self.first_runs[i] {
            Some(first) => {
                if first.len() != results.len() {
                    for (_, eval) in results.iter_mut() {
                        *eval = Err(Failure::Check("line-up changed between runs".to_owned()));
                    }
                }
                for ((name, eval), expected) in results.iter_mut().zip(first) {
                    if let Ok(outcome) = eval {
                        if expected.as_ref() != Some(&Fingerprint::of(outcome)) {
                            *eval = Err(Failure::Check(format!(
                                "{name} differs from the scenario's first run"
                            )));
                        }
                    }
                }
            }
            None => {
                let scenario = &self.scenarios[i];
                match Reference::build(scenario) {
                    Ok(reference) => {
                        check_lineup(&reference, &mut results);
                        self.counts.add_scenario(scenario, &reference);
                    }
                    Err(failure) => {
                        for (_, eval) in results.iter_mut() {
                            *eval = Err(failure.clone());
                        }
                    }
                }
                for (name, eval) in &results {
                    if let Ok(outcome) = eval {
                        self.quality.add(name, outcome);
                        self.counts.add_outcome(name, outcome);
                    }
                }
                self.first_runs[i] = Some(
                    results
                        .iter()
                        .map(|(_, eval)| eval.as_ref().ok().map(Fingerprint::of))
                        .collect(),
                );
            }
        }
        self.tally.record_lineup(&format!("scenario {i}"), &results);
    }

    /// Cycle over the scenarios until `seconds` have passed (and, with
    /// `full_pass`, each ran once); `step` gets the scenario index and
    /// the step number.
    pub fn closed_loop(
        &mut self,
        seconds: f64,
        full_pass: bool,
        mut step: impl FnMut(&mut Bench, usize, usize),
    ) {
        let n = self.scenarios.len();
        let min_steps = if full_pass { n } else { 1 };
        let start = Instant::now();
        let mut k = 0;
        while k < min_steps || start.elapsed().as_secs_f64() < seconds {
            step(self, k % n, k);
            k += 1;
        }
    }
}

/// Run a workload.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Report {
    run_configs(
        &workload.scenario_configs(seed),
        Box::new(move |s| workload.lineup(s)),
        seconds,
        traced,
        SETUP_ROUNDS,
    )
}

/// Run a scenario set: end-to-end metrics untraced, per-layer metrics
/// traced.
pub fn run_configs(
    configs: &[ScenarioConfig],
    lineup: LineupFn,
    seconds: f64,
    traced: bool,
    setup_rounds: usize,
) -> Report {
    let mut host = HostSpeed::new();
    let setup = setup(configs, setup_rounds);
    let mut bench = Bench::new(setup.scenarios, lineup);
    bench
        .tally
        .record("appendix", check_appendix().as_ref().map(|_| ()));

    let mut lines = Vec::new();
    let (values, catalogue) = if traced {
        let values = trace::measure(&mut bench, &setup.generate_ms, seconds, &mut lines);
        (values, PER_LAYER)
    } else {
        let values = measure_plain(&mut bench, &mut host, setup.setup_s, seconds, &mut lines);
        (values, END_TO_END)
    };

    lines.push(format!(
        "evaluations: {} attempted, {} failed, failed_share = {}",
        bench.tally.attempted,
        bench.tally.failed,
        bench.tally.failed_share()
    ));
    for message in &bench.tally.messages {
        lines.push(format!("failure: {message}"));
    }
    for (name, count) in bench.counts.entries() {
        lines.push(format!("count {name} = {count}"));
    }
    lines.push(format!(
        "quality: map_f1 = {}, data_f1 = {}, objective_gap = {} F, exact_share = {}",
        bench.quality.map_f1(),
        bench.quality.data_f1(),
        bench.quality.objective_gap(),
        bench.quality.exact_share()
    ));
    let finite = values.values().all(|v| v.is_finite());
    if !finite {
        lines.push("failure: a metric is not finite".to_owned());
    }
    Report {
        correct: bench.tally.failed == 0 && finite,
        attempted: bench.tally.attempted,
        failed: bench.tally.failed,
        values,
        catalogue,
        lines,
    }
}

fn measure_plain(
    bench: &mut Bench,
    host: &mut HostSpeed,
    setup_s: f64,
    seconds: f64,
    lines: &mut Vec<String>,
) -> BTreeMap<&'static str, f64> {
    let mut latencies = Vec::new();
    let mut per_scenario = vec![Vec::new(); bench.scenarios.len()];
    bench.closed_loop(seconds, true, |b, i, _| {
        let ms = b.run_plain(i);
        latencies.push(ms);
        per_scenario[i].push(ms);
        host.probe_if_due();
    });
    // One pass over the set at each scenario's median latency: a burst of
    // interference on a shared host then moves one sample, not the figure.
    let pass_s: f64 = per_scenario.iter().map(|l| median(l)).sum::<f64>() / 1e3;
    let p50 = median(&latencies);
    let tail = tail(&latencies);
    let tail_ms = tail.map_or_else(
        || latencies.iter().copied().fold(0.0, f64::max),
        |t| t.value,
    );
    lines.push(format!("scenario samples: {}", latencies.len()));
    lines.push(match tail {
        Some(t) => format!(
            "scenario tail: p{:.2} of {} samples (10 beyond it)",
            t.percentile, t.samples
        ),
        None => format!(
            "scenario tail: maximum of {} samples (too few for a percentile)",
            latencies.len()
        ),
    });
    let per_s = per_scenario.len() as f64 / pass_s;
    let speed = host.speed();
    lines.push(format!(
        "host probe: median {} ms over {} probes, speed {speed} of reference; raw setup_s = {setup_s} s, \
         scenarios_per_s = {per_s} 1/s, scenario_p50_ms = {p50} ms, scenario_tail_ms = {tail_ms} ms",
        host.median_ms(),
        host.probes(),
    ));
    let peak_rss = cms_obs::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
    let q = &bench.quality;
    BTreeMap::from([
        ("setup_s", setup_s * speed),
        ("scenarios_per_s", per_s / speed),
        ("scenario_p50_ms", p50 * speed),
        ("scenario_tail_ms", tail_ms * speed),
        ("peak_rss_mb", peak_rss),
        ("map_f1", q.map_f1()),
        ("data_f1", q.data_f1()),
        ("objective_ratio", q.objective_ratio()),
        ("exact_share", q.exact_share()),
    ])
}
