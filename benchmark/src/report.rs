//! The metric catalogue and the result line.
//!
//! The catalogue is the single list of metric names, units and directions;
//! `BENCHMARK.json` must agree with it (a harness test checks).

use std::collections::BTreeMap;

/// A metric's name, unit and direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// End-to-end metrics, measured with tracing off (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("scenarios_per_s", "1/s"),
    lower("scenario_p50_ms", "ms"),
    lower("scenario_tail_ms", "ms"),
    lower("peak_rss_mb", "MiB"),
    higher("map_f1", "ratio"),
    higher("data_f1", "ratio"),
    lower("objective_ratio", "ratio"),
    higher("exact_share", "ratio"),
];

/// Per-layer metrics, from the traced run (`--trace 1`). Times and work
/// counts are per scenario, summed over the calls its line-up makes;
/// model sizes are per scenario model.
pub const PER_LAYER: &[MetricDef] = &[
    lower("ibench.generate_ms", "ms"),
    lower("ibench.source_tuples", "count"),
    lower("ibench.target_tuples", "count"),
    lower("candgen.generate_ms", "ms"),
    lower("candgen.candidates", "count"),
    lower("chase.all_ms", "ms"),
    lower("chase.firings", "count"),
    higher("chase.prefix_reuse_share", "ratio"),
    lower("coverage.build_ms", "ms"),
    lower("coverage.score_ms", "ms"),
    lower("coverage.error_groups", "count"),
    lower("coverage.cover_pairs", "count"),
    lower("preprocess.ms", "ms"),
    lower("preprocess.certain_unexplained", "count"),
    lower("psl.build_program_ms", "ms"),
    lower("ground.ms", "ms"),
    lower("ground.terms", "count"),
    lower("admm.ms", "ms"),
    lower("admm.iterations", "count"),
    higher("admm.converged_share", "ratio"),
    lower("rounding.ms", "ms"),
    lower("rounding.evaluations", "count"),
    lower("repair.ms", "ms"),
    lower("local_search.mirror_ms", "ms"),
    higher("reground.terms_reused", "count"),
    lower("reground.terms_recomputed", "count"),
    higher("reground.reuse_share", "ratio"),
    lower("relax.admm_iterations", "count"),
    lower("relax.flips", "count"),
    lower("greedy.ms", "ms"),
    lower("greedy.evaluations", "count"),
    lower("local_search.ms", "ms"),
    lower("local_search.evaluations", "count"),
    lower("branch_bound.ms", "ms"),
    lower("branch_bound.nodes", "count"),
    lower("branch_bound.ns_per_node", "ns"),
    higher("branch_bound.exact_share", "ratio"),
    lower("metrics.data_prf_ms", "ms"),
    lower("trace.overhead_share", "ratio"),
    lower("trace.unattributed_share", "ratio"),
];

/// The outcome of one benchmark run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Evaluations attempted.
    pub attempted: u64,
    /// Evaluations that failed (error, panic or failed check).
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// The catalogue the values belong to.
    pub catalogue: &'static [MetricDef],
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

impl Report {
    /// The result line: one JSON object with the catalogue's metrics in
    /// catalogue order. A metric missing from `values` is a harness bug.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .catalogue
            .iter()
            .map(|m| {
                let value = self
                    .values
                    .get(m.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(*value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number in full precision; JSON has no NaN or infinity, so
/// those print as 0 (the run is already marked incorrect by then).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}
