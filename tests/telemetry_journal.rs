//! Acceptance test for the unified telemetry layer: one pipeline run at
//! the `journal` level must emit typed events covering every subsystem
//! (chase, ground, reground, solve, degradation), and the journal's
//! counters must reconcile *exactly* with the stats the engines report
//! through their own APIs ([`cms::tgd::ChaseStats`],
//! `GroundStats`-backed selection telemetry, ADMM iteration totals).
//!
//! Everything runs in a single `#[test]` because the journal, span store,
//! and level override are process-wide.

use cms::obs;
use cms::prelude::*;
use cms::select::{build_eval_program, SelectionTelemetry};

fn scenario() -> Scenario {
    generate(&ScenarioConfig {
        noise: NoiseConfig::uniform(25.0),
        seed: 20170419,
        ..ScenarioConfig::all_primitives(1)
    })
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
    let chase: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.event {
            obs::Event::Chase {
                tgds,
                firings,
                tuples_emitted,
                candidates_probed,
                candidates_scanned,
                prefix_bindings_computed,
                prefix_bindings_reused,
                ..
            } => Some((
                *tgds,
                *firings,
                *tuples_emitted,
                *candidates_probed,
                *candidates_scanned,
                *prefix_bindings_computed,
                *prefix_bindings_reused,
            )),
            _ => None,
        })
        .collect();
    assert_eq!(chase.len(), 1, "one chase_all run = one chase event");
    assert_eq!(
        chase[0],
        (
            chase_stats.tgds as u64,
            chase_stats.firings as u64,
            chase_stats.tuples_emitted as u64,
            chase_stats.candidates_probed as u64,
            chase_stats.candidates_scanned as u64,
            chase_stats.prefix_bindings_computed as u64,
            chase_stats.prefix_bindings_reused as u64,
        ),
        "chase event must mirror ChaseStats"
    );

    // --- Ground: per-rule events absorb to GroundProgram::total_stats. ---
    let (program, _) = build_eval_program(&model, &weights, &[]);
    let ground = program.ground().expect("grounds");
    let total = ground.total_stats();
    let events = obs::drain_journal();
    let mut subs = 0u64;
    let mut pots = 0u64;
    let mut cons = 0u64;
    let mut ground_events = 0usize;
    for e in &events {
        if let obs::Event::Ground { counters, .. } = &e.event {
            ground_events += 1;
            subs += counters.substitutions;
            pots += counters.potentials;
            cons += counters.constraints;
        }
    }
    assert!(ground_events > 0, "grounding must journal per-rule events");
    assert_eq!(subs, total.substitutions as u64);
    assert_eq!(pots, total.potentials as u64);
    assert_eq!(cons, total.constraints as u64);

    // --- Default local search is a pure discrete search: nothing goes
    // through the relaxation, so nothing is regrounded or solved. ---
    let _ = obs::drain_journal();
    let plain = LocalSearch::default()
        .select(&model, &weights)
        .expect("selects");
    let events = obs::drain_journal();
    for e in &events {
        let kind = e.event.kind();
        assert!(
            kind != "reground" && kind != "solve",
            "default local search emitted a {kind} event"
        );
    }
    assert_eq!(plain.telemetry, SelectionTelemetry::default());

    // --- Full run: local search opted into the warm relaxation, with one
    // fault forcing rung 1 of the degradation ladder. ---
    let _ = obs::drain_journal();
    cms::psl::fault::arm(cms::psl::Fault::PoisonDuals);
    let sel = LocalSearch {
        track_relaxation: true,
        ..LocalSearch::default()
    }
    .select(&model, &weights)
    .expect("selects");
    cms::psl::fault::disarm();
    let events = obs::drain_journal();
    obs::clear_level_override();

    // Tracking the relaxation changes what is reported, not what is
    // selected.
    assert_eq!(sel.selected, plain.selected);
    assert_eq!(sel.objective, plain.objective);
    assert_eq!(sel.evaluations, plain.evaluations);

    let t = &sel.telemetry;
    let kinds: std::collections::BTreeSet<&str> = events.iter().map(|e| e.event.kind()).collect();
    for kind in ["ground", "reground", "solve", "degradation", "fault"] {
        assert!(kinds.contains(kind), "missing {kind} events in {kinds:?}");
    }

    // Reground events absorb the same per-rule stats the relaxation
    // accumulates into its public counters — sums must agree exactly.
    let mut reused = 0u64;
    let mut recomputed = 0u64;
    let mut spliced = 0u64;
    for e in &events {
        if let obs::Event::Reground { counters, .. } = &e.event {
            reused += counters.terms_reused;
            recomputed += counters.terms_recomputed;
            spliced += counters.arith_bindings_spliced;
        }
    }
    assert_eq!(reused, t.terms_reused as u64, "terms_reused reconciles");
    assert_eq!(recomputed, t.terms_recomputed as u64);
    assert_eq!(spliced, t.arith_bindings_spliced as u64);

    // Solve events carry AdmmSolution fields; iteration and restart sums
    // must equal the relaxation's cumulative counters, and the last
    // event's health must be the reported last_health.
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
    assert!(!solves.is_empty());
    let iters: u64 = solves.iter().map(|s| s.0).sum();
    let restarts: u64 = solves.iter().map(|s| s.1).sum();
    assert_eq!(iters, t.admm_iterations as u64, "ADMM iterations reconcile");
    assert_eq!(restarts, t.solver_restarts as u64);
    assert_eq!(
        solves.last().unwrap().2,
        t.last_health.unwrap().to_string(),
        "last solve event carries the reported health"
    );

    // The armed fault fired exactly once and took exactly rung 1, which
    // the selection telemetry records as a typed DegradationRung.
    let faults: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.event {
            obs::Event::Fault { fault } => Some(fault.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(faults, vec!["poison-duals".to_owned()]);
    let rungs: Vec<u32> = events
        .iter()
        .filter_map(|e| match &e.event {
            obs::Event::Degradation(r) => Some(r.rung()),
            _ => None,
        })
        .collect();
    assert_eq!(rungs, vec![1], "poisoned duals degrade via rung 1 only");
    assert_eq!(
        t.degradations.iter().map(|r| r.rung()).collect::<Vec<_>>(),
        rungs,
        "selection telemetry mirrors the journal's rungs"
    );
    assert_eq!(t.duals_dropped, 1);

    // The journal round-trips through the JSONL exporter losslessly.
    let jsonl = obs::export_jsonl(&events);
    let back = obs::parse_jsonl(&jsonl).expect("exported journal re-parses");
    assert_eq!(back, events);
}
