//! Acceptance test for the unified telemetry layer: one pipeline run at
//! the `journal` level must emit typed events covering every subsystem
//! (chase, ground, solve, fault), and the journal's counters must
//! reconcile *exactly* with the stats the engines report through their
//! own APIs ([`cms::tgd::ChaseStats`], [`GroundStats`], the collective
//! selector's ADMM telemetry).
//!
//! Everything runs in a single `#[test]` because the journal, span store,
//! and level override are process-wide.

use cms::obs;
use cms::prelude::*;
use cms::psl::GroundStats;
use cms::select::SelectionTelemetry;
use std::time::Duration;

fn scenario() -> Scenario {
    generate(&ScenarioConfig {
        noise: NoiseConfig::uniform(25.0),
        seed: 20170419,
        ..ScenarioConfig::all_primitives(1)
    })
}

/// Stats compare exactly except for wall time, which the journal carries
/// at nanosecond resolution.
fn sans_wall_chase(stats: &ChaseStats) -> ChaseStats {
    ChaseStats {
        wall: Duration::ZERO,
        ..stats.clone()
    }
}

fn sans_wall_ground(stats: &GroundStats) -> GroundStats {
    GroundStats {
        wall: Duration::ZERO,
        ..stats.clone()
    }
}

#[test]
fn journal_covers_the_pipeline_and_reconciles_with_engine_stats() {
    obs::set_level_override(obs::ObsLevel::Journal);
    let scenario = scenario();
    let weights = ObjectiveWeights::unweighted();
    // Scenario generation chases too — start the ledger clean after it.
    let _ = obs::drain_journal();
    let _ = obs::drain_spans();

    // --- Chase: the journal's chase event mirrors ChaseStats exactly. ---
    let (model, chase_stats) = CoverageModel::build_with_stats(
        &scenario.source,
        &scenario.target,
        &scenario.candidates,
        &Default::default(),
    )
    .expect("candidates chase");
    let events = obs::drain_journal();
    let chase: Vec<ChaseStats> = events
        .iter()
        .filter_map(|e| match &e.event {
            obs::Event::Chase(stats) => Some(sans_wall_chase(stats)),
            _ => None,
        })
        .collect();
    assert_eq!(
        chase,
        vec![sans_wall_chase(&chase_stats)],
        "one chase_all run = one chase event carrying its ChaseStats"
    );

    // --- Ground: per-rule events absorb to GroundProgram::total_stats. ---
    let (program, _) = PslCollective::default().build_program(&model, &weights);
    let ground = program.ground().expect("grounds");
    let total = ground.total_stats();
    let events = obs::drain_journal();
    let ground_events: Vec<&GroundStats> = events
        .iter()
        .filter_map(|e| match &e.event {
            obs::Event::Ground { stats, .. } => Some(stats),
            _ => None,
        })
        .collect();
    assert!(
        !ground_events.is_empty(),
        "grounding must journal per-rule events"
    );
    let mut journaled = GroundStats::default();
    for stats in ground_events {
        journaled.absorb(stats);
    }
    assert_eq!(sans_wall_ground(&journaled), sans_wall_ground(&total));

    // --- Local search is a pure discrete search: tracked or not, nothing
    // is grounded or solved. Tracking reports the relaxation's closed
    // form and nothing else. ---
    let _ = obs::drain_journal();
    let plain = LocalSearch::default()
        .select(&model, &weights)
        .expect("selects");
    let tracked = LocalSearch {
        track_relaxation: true,
        ..LocalSearch::default()
    }
    .select(&model, &weights)
    .expect("selects");
    let events = obs::drain_journal();
    assert!(events.is_empty(), "local search emitted {events:?}");
    assert_eq!(plain.telemetry, SelectionTelemetry::default());
    assert_eq!(tracked.selected, plain.selected);
    assert_eq!(
        tracked.telemetry,
        SelectionTelemetry {
            soft_objective: Some(Objective::new(&model, weights).relaxed_value(&plain.selected)),
            ..SelectionTelemetry::default()
        }
    );

    // --- Full run: the collective selector with the solver watchdog
    // armed, and one injected stall forcing a watchdog restart. ---
    let psl = PslCollective {
        admm: AdmmConfig {
            stall_window: 1000,
            max_restarts: 2,
            ..AdmmConfig::default()
        },
        ..PslCollective::default()
    };
    let clean = psl.select(&model, &weights).expect("selects");
    let _ = obs::drain_journal();
    cms::psl::fault::arm(cms::psl::Fault::SolverStall);
    let sel = psl.select(&model, &weights).expect("selects");
    cms::psl::fault::disarm();
    let events = obs::drain_journal();
    obs::clear_level_override();

    // The restarted solve recovers the fault-free selection.
    assert_eq!(sel.selected, clean.selected);
    assert_eq!(sel.objective, clean.objective);

    let t = &sel.telemetry;
    let kinds: std::collections::BTreeSet<&str> = events.iter().map(|e| e.event.kind()).collect();
    for kind in ["solve", "fault"] {
        assert!(kinds.contains(kind), "missing {kind} events in {kinds:?}");
    }

    // Solve events carry AdmmSolution fields; iteration and restart sums
    // must equal the selector's telemetry, and the last event's health
    // must be the reported last_health.
    let solves: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.event {
            obs::Event::Solve {
                iterations,
                restarts,
                health,
                ..
            } => Some((*iterations, *restarts, health.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(solves.len(), 1, "one PSL selection is one solve");
    let iters: u64 = solves.iter().map(|s| s.0).sum();
    let restarts: u64 = solves.iter().map(|s| s.1).sum();
    assert_eq!(iters, t.admm_iterations as u64, "ADMM iterations reconcile");
    assert_eq!(restarts, t.solver_restarts as u64);
    assert_eq!(restarts, 1, "the injected stall forces one restart");
    assert_eq!(
        solves.last().unwrap().2,
        t.last_health.unwrap().to_string(),
        "last solve event carries the reported health"
    );
    assert!(t.last_health.is_some_and(|h| h.is_nominal()));

    // The armed fault fired exactly once.
    let faults: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.event {
            obs::Event::Fault { fault } => Some(fault.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(faults, vec!["solver-stall".to_owned()]);

    // The journal round-trips through the JSONL exporter losslessly.
    let jsonl = obs::export_jsonl(&events);
    let back = obs::parse_jsonl(&jsonl).expect("exported journal re-parses");
    assert_eq!(back, events);
}
