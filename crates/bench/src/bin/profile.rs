//! `cms-bench profile` — run the standard pipeline workload under the
//! flight recorder and print the per-label self-time profile.
//!
//! Usage:
//!
//! ```text
//! profile [--scale N] [--seed S] [--stall] [--profile-json <path>]
//!         [--trace <path>] [--journal <path>] [--top N]
//! ```
//!
//! The workload is the telemetry pipeline end to end: scenario
//! generation (chase), local-search selection opted into the warm
//! relaxation (ground → reground → warm solve per climb). The run is
//! forced to `CMS_OBS=journal` in-process so spans and events are
//! captured regardless of the environment; the `CMS_OBS_RING` capacity
//! knob applies as usual.
//!
//! Outputs:
//! * the profile table (inclusive vs self wall/CPU per span label,
//!   child breakdown) on stdout — `--top N` limits the rows;
//! * `--profile-json <path>` writes the profile as JSON for
//!   `obs_diff`;
//! * `--trace <path>` writes a Perfetto-loadable Chrome trace (spans on
//!   per-thread tracks, journal events as instants);
//! * `--journal <path>` writes the JSONL journal snapshot, drop-count
//!   header included.
//!
//! `--stall` arms the `SolverStall` fault once: the watchdog detects a
//! (forced) stall on the first solve and restarts it, inflating solve
//! self time — `obs_diff` against a clean run attributes the slowdown
//! to the `solve` phase, which is exactly the acceptance check for the
//! performance-attribution layer.

use cms_bench::workloads::seeded_scenarios;
use cms_ibench::{NoiseConfig, ScenarioConfig};
use cms_select::{evaluate_scenario, LocalSearch, ObjectiveWeights};
use std::process::ExitCode;

struct Args {
    scale: usize,
    seed: u64,
    stall: bool,
    profile_json: Option<String>,
    trace: Option<String>,
    journal: Option<String>,
    top: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        scale: 1,
        seed: 20170419,
        stall: false,
        profile_json: None,
        trace: None,
        journal: None,
        top: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--scale" => {
                out.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--stall" => out.stall = true,
            "--profile-json" => out.profile_json = Some(value("--profile-json")?),
            "--trace" => out.trace = Some(value("--trace")?),
            "--journal" => out.journal = Some(value("--journal")?),
            "--top" => out.top = value("--top")?.parse().map_err(|e| format!("--top: {e}"))?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn write_file(path: &str, contents: &str, what: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {what} to {path}: {e}"))?;
    println!("{what} written to {path}");
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    // Force full capture in-process; the ring capacity still follows
    // CMS_OBS_RING so an always-on configuration stays bounded.
    cms_obs::set_level_override(cms_obs::ObsLevel::Journal);
    println!(
        "profile: scale={}, seed={}, ring={:?}, stall={}",
        args.scale,
        args.seed,
        cms_obs::ring_capacity(),
        args.stall
    );

    let base = ScenarioConfig {
        noise: NoiseConfig::uniform(25.0),
        ..ScenarioConfig::all_primitives(args.scale)
    };
    let scenarios = seeded_scenarios(&base, &[args.seed]);

    if args.stall {
        cms_psl::fault::arm(cms_psl::Fault::SolverStall);
    }
    let local_search = LocalSearch {
        track_relaxation: true,
        ..LocalSearch::default()
    };
    let outcome = evaluate_scenario(
        &scenarios[0],
        &local_search,
        &ObjectiveWeights::unweighted(),
    )
    .map_err(|e| format!("pipeline failed: {e}"))?;
    cms_psl::fault::disarm();
    println!(
        "selector {}: F = {:.3}, mapping F1 = {:.3} ({} evaluations)\n",
        outcome.selector,
        outcome.selection.objective,
        outcome.mapping.f1,
        outcome.selection.evaluations
    );

    let report = cms_obs::profile_report();
    print!("{}", report.render(args.top));

    if let Some(path) = &args.profile_json {
        write_file(path, &report.to_json(), "profile JSON")?;
    }
    if args.trace.is_some() || args.journal.is_some() {
        let snapshot = cms_obs::snapshot_journal();
        if let Some(path) = &args.trace {
            let trace = cms_obs::export_trace_json(
                &cms_obs::snapshot_spans(),
                &snapshot.records,
                &cms_obs::thread_track_names(),
            );
            write_file(path, &trace, "Perfetto trace")?;
        }
        if let Some(path) = &args.journal {
            write_file(path, &snapshot.to_jsonl(), "journal snapshot")?;
            if snapshot.header.events_dropped > 0 {
                println!(
                    "  (ring overwrote {} events this window; header records the loss)",
                    snapshot.header.events_dropped
                );
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("profile: {e}");
            ExitCode::FAILURE
        }
    }
}
