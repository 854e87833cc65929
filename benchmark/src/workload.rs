//! The three workloads: their scenario sets and selector line-ups.
//!
//! Every scenario seed is derived from the command's `--seed`, so the same
//! seed yields byte-identical scenarios, selections and counts.

use cms_ibench::{NoiseConfig, Scenario, ScenarioConfig};
use cms_select::{
    BranchBound, FixedSelection, Greedy, IndependentBaseline, LocalSearch, PslCollective, Selector,
};

/// Uniform noise levels (percent) of the noise sweep.
pub const NOISE_LEVELS: [f64; 5] = [0.0, 10.0, 25.0, 50.0, 75.0];

/// Node budget of the exact-search workload's branch-and-bound.
pub const BB_NODE_BUDGET: usize = 200_000;

/// Selectors whose rows are reference points, not selection methods.
pub const REFERENCE_SELECTORS: [&str; 2] = ["gold-oracle", "all-candidates"];

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// EX2–EX5 traffic: many small scenarios, the full experiment line-up.
    NoiseSweep,
    /// The data-size path: few large scenarios, greedy and PSL.
    DataScale,
    /// EX6's noise point: greedy and node-budgeted branch-and-bound.
    ExactSearch,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::NoiseSweep,
        Workload::DataScale,
        Workload::ExactSearch,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NoiseSweep => "noise-sweep",
            Workload::DataScale => "data-scale",
            Workload::ExactSearch => "exact-search",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Scenarios generated per configuration point.
    pub fn seeds_per_point(self) -> usize {
        match self {
            Workload::NoiseSweep => 16,
            Workload::DataScale => 8,
            Workload::ExactSearch => 48,
        }
    }

    /// The scenario configurations of one run, derived from `seed`.
    pub fn scenario_configs(self, seed: u64) -> Vec<ScenarioConfig> {
        let points: Vec<ScenarioConfig> = match self {
            Workload::NoiseSweep => NOISE_LEVELS
                .iter()
                .map(|&pct| ScenarioConfig {
                    noise: NoiseConfig::uniform(pct),
                    ..ScenarioConfig::all_primitives(1)
                })
                .collect(),
            Workload::DataScale => vec![ScenarioConfig {
                rows_per_relation: 100,
                noise: NoiseConfig::uniform(25.0),
                ..ScenarioConfig::all_primitives(4)
            }],
            Workload::ExactSearch => vec![ScenarioConfig {
                rows_per_relation: 15,
                noise: NoiseConfig {
                    pi_corresp: 50.0,
                    pi_errors: 10.0,
                    pi_unexplained: 10.0,
                },
                ..ScenarioConfig::all_primitives(2)
            }],
        };
        let per_point = self.seeds_per_point();
        let mut configs = Vec::with_capacity(points.len() * per_point);
        for (p, point) in points.iter().enumerate() {
            for k in 0..per_point {
                configs.push(ScenarioConfig {
                    seed: scenario_seed(seed, (p * per_point + k) as u64),
                    ..point.clone()
                });
            }
        }
        configs
    }

    /// The selector line-up one scenario runs through.
    pub fn lineup(self, scenario: &Scenario) -> Vec<Box<dyn Selector>> {
        match self {
            Workload::NoiseSweep => vec![
                Box::new(FixedSelection::new("gold-oracle", scenario.gold.clone())),
                Box::new(FixedSelection::all(scenario.candidates.len())),
                Box::new(IndependentBaseline),
                Box::new(Greedy),
                Box::new(LocalSearch::default()),
                Box::new(PslCollective::default()),
            ],
            Workload::DataScale => vec![Box::new(Greedy), Box::new(PslCollective::default())],
            Workload::ExactSearch => vec![
                Box::new(Greedy),
                Box::new(BranchBound {
                    node_budget: Some(BB_NODE_BUDGET),
                }),
            ],
        }
    }
}

/// The seed of scenario `index` in a run seeded with `seed` (splitmix64).
pub fn scenario_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
