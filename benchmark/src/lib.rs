//! The repository benchmark: scenario throughput and paper quality end to
//! end, and per-layer cost from a traced run.
//!
//! The program reaches the pipeline only through public functions:
//! `cms_ibench::generate` builds each workload's scenarios from the seed,
//! and `cms_select::evaluate_scenario` runs each selector of the
//! workload's line-up. See `README.md` beside this package for the
//! workloads, the metrics and which layer should move which metric.

#![forbid(unsafe_code)]

pub mod harness;
pub mod host;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

/// Parsed command-line arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: workload::Workload,
    /// Seed the workload's scenarios are derived from.
    pub seed: u64,
    /// Seconds the closed loop runs for (at least one pass is made).
    pub seconds: f64,
    /// Measure per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Usage line for argument errors.
pub const USAGE: &str = "usage: cms-benchmark --workload <noise-sweep|data-scale|exact-search> \
                         --seed <u64> --seconds <s> --trace <0|1>";

/// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; every
/// flag is required.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}
