//! The unified telemetry layer end to end: run the full pipeline (chase →
//! ground → reground → solve) under the `cms-obs` event journal, force one
//! degradation-ladder rung via the fault harness, and export what was
//! recorded.
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

    // Force rung 1 of the self-healing ladder on the first warm solve:
    // the armed fault NaN-poisons the first carried dual vector, the
    // `all_finite` guard drops it, and the journal gets both the fault
    // and the degradation event.
    cms::psl::fault::arm(cms::psl::Fault::PoisonDuals);

    // Local search opted into the warm relaxation: each climb's accepted
    // flips become one reground + one warm ADMM solve.
    let local_search = LocalSearch {
        track_relaxation: true,
        ..LocalSearch::default()
    };
    let outcome = evaluate_scenario(&scenario, &local_search, &ObjectiveWeights::unweighted())
        .expect("pipeline runs");
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
        "relaxation: soft objective {:.3}, {} flips, {} terms reused / {} recomputed, \
         {} ADMM iterations, {} ladder rungs",
        t.soft_objective.unwrap_or(f64::NAN),
        t.flips,
        t.terms_reused,
        t.terms_recomputed,
        t.admm_iterations,
        t.degradations.len()
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
