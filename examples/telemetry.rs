//! The unified telemetry layer end to end: run the full pipeline (chase →
//! compile → solve) under the `cms-obs` event journal, force one
//! watchdog restart of the PSL solve via the fault harness, and export
//! what was recorded.
//!
//! Run with: `CMS_OBS=journal cargo run --release --example telemetry`
//!
//! Writes the JSONL journal to `telemetry.jsonl` (or the path given as the
//! first argument) and prints the metrics snapshot plus — at
//! `CMS_OBS=spans` or higher — the span/event tree. At lower `CMS_OBS`
//! levels the run still works; it just records less.

use cms::obs;
use cms::prelude::*;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "telemetry.jsonl".to_owned());
    println!("telemetry level: {}", obs::level().name());

    let before = obs::registry().snapshot();

    // A noisy scenario: generation chases the gold mapping and the noise
    // model over it (chase events), model building chases every candidate.
    let config = ScenarioConfig {
        noise: NoiseConfig::uniform(25.0),
        seed: 20170419,
        ..ScenarioConfig::all_primitives(1)
    };
    let scenario = generate(&config);

    // The paper's collective selector with the solver watchdog armed. The
    // armed fault forces a stall at the first residual check; the
    // watchdog restarts the solve, and the journal gets the fault and a
    // solve event carrying the restart.
    let psl = PslCollective {
        admm: AdmmConfig {
            stall_window: 1000,
            max_restarts: 2,
            ..AdmmConfig::default()
        },
        ..PslCollective::default()
    };
    cms::psl::fault::arm(cms::psl::Fault::SolverStall);
    let outcome =
        evaluate_scenario(&scenario, &psl, &ObjectiveWeights::unweighted()).expect("pipeline runs");
    cms::psl::fault::disarm();

    println!(
        "selector {}: F = {:.3}, mapping F1 = {:.3} ({} evaluations)",
        outcome.selector,
        outcome.selection.objective,
        outcome.mapping.f1,
        outcome.selection.evaluations
    );
    let t = &outcome.selection.telemetry;
    println!(
        "relaxation: soft objective {:.3}, {} ground terms, {} ADMM iterations, \
         {} watchdog restarts, health {}",
        t.soft_objective.unwrap_or(f64::NAN),
        t.ground_terms.unwrap_or(0),
        t.admm_iterations,
        t.solver_restarts,
        t.last_health.map_or("n/a".to_owned(), |h| h.to_string())
    );

    // Metrics: what this run added to the process-wide registry.
    let diff = obs::registry().snapshot().diff(&before);
    if diff.counters.is_empty() {
        println!("\nno counters recorded (set CMS_OBS=stats or higher)");
    } else {
        println!("\ncounters recorded by this run:");
        for (name, value) in &diff.counters {
            println!("  {name} = {value}");
        }
    }

    // Journal + spans: export the ring's window (header line first, so
    // the drop accounting travels with the records) and render.
    let snapshot = obs::drain_journal_snapshot();
    let events = snapshot.records.clone();
    let spans = obs::drain_spans();
    if events.is_empty() {
        println!("\nno journal events (set CMS_OBS=journal); nothing written");
        return;
    }
    let mut kinds: Vec<&str> = events.iter().map(|e| e.event.kind()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    println!(
        "\njournal: {} events ({}) across {} spans, {} dropped by the ring",
        events.len(),
        kinds.join(", "),
        spans.len(),
        snapshot.header.events_dropped
    );
    std::fs::write(&out_path, snapshot.to_jsonl()).expect("journal written");
    println!("JSONL journal written to {out_path}");
    if !spans.is_empty() {
        println!(
            "\nspan tree with events:\n{}",
            obs::render_tree(&spans, &events)
        );
    }
}
