//! Acceptance test for the flight recorder: the bounded journal ring
//! keeps a run longer than its capacity to exactly `capacity` retained
//! events with an exact drop count, a degraded solve (a watchdog restart)
//! persists a black-box dump, and an injected `SolverStall` shows up as a
//! solve-side regression in both the journal counters and the span
//! profile.
//!
//! One `#[test]` because the journal, span store, ring configuration and
//! level override are process-wide.

use cms::obs;
use cms::prelude::*;

fn scenario() -> Scenario {
    generate(&ScenarioConfig {
        noise: NoiseConfig::uniform(25.0),
        seed: 20170419,
        ..ScenarioConfig::all_primitives(1)
    })
}

/// Sum of (iterations, restarts) over the solve events in a snapshot.
fn solve_counters(snap: &obs::JournalSnapshot) -> (u64, u64) {
    let mut iters = 0;
    let mut restarts = 0;
    for r in &snap.records {
        if let obs::Event::Solve {
            iterations,
            restarts: rs,
            ..
        } = &r.event
        {
            iters += iterations;
            restarts += rs;
        }
    }
    (iters, restarts)
}

#[test]
fn ring_bounds_retention_dumps_on_degradation_and_attributes_stalls() {
    obs::set_level_override(obs::ObsLevel::Journal);
    let scenario = scenario();
    let weights = ObjectiveWeights::unweighted();
    let model = CoverageModel::build(&scenario.source, &scenario.target, &scenario.candidates);
    // Every run here solves the collective PSL program with the solver
    // watchdog armed.
    let psl = PslCollective {
        admm: AdmmConfig {
            stall_window: 1000,
            max_restarts: 2,
            ..AdmmConfig::default()
        },
        ..PslCollective::default()
    };

    // --- Bounded capture: a run emitting more events than the ring
    // holds keeps exactly `capacity` records and accounts for every
    // drop, with the retained window contiguous from base_seq + dropped.
    obs::set_ring_capacity_override(Some(4));
    let _ = obs::drain_journal_snapshot();
    let _ = obs::drain_spans();
    for _ in 0..6 {
        let _ = psl.select(&model, &weights).expect("selects");
    }
    let snap = obs::drain_journal_snapshot();
    assert_eq!(snap.records.len(), 4, "ring retains exactly its capacity");
    assert_eq!(
        snap.header.events_dropped, 2,
        "six solves overflow a 4-slot ring by two"
    );
    assert_eq!(snap.header.events, 4);
    assert_eq!(snap.header.ring_capacity, 4);
    assert_eq!(
        snap.records[0].seq,
        snap.header.base_seq + snap.header.events_dropped,
        "first retained seq notes the gap the drop count reports"
    );
    for pair in snap.records.windows(2) {
        assert_eq!(
            pair[1].seq,
            pair[0].seq + 1,
            "retained window is contiguous"
        );
    }
    // The export carries the header and round-trips exactly.
    let jsonl = snap.to_jsonl();
    assert!(jsonl.starts_with("{\"type\":\"journal-header\""));
    let back = obs::JournalSnapshot::parse(&jsonl).expect("snapshot re-parses");
    assert_eq!(back, snap);
    obs::clear_ring_capacity_override();

    // --- Black box: a degraded solve (an injected stall the watchdog
    // restarts) persists the journal window to the dump path.
    let dump =
        std::env::temp_dir().join(format!("cms-flight-recorder-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&dump);
    obs::set_dump_path_override(Some(dump.to_str().expect("utf-8 temp path")));
    let _ = obs::drain_journal_snapshot();
    let _ = obs::drain_spans();
    cms::psl::fault::arm(cms::psl::Fault::SolverStall);
    let _ = psl
        .select(&model, &weights)
        .expect("selects through the restart");
    cms::psl::fault::disarm();
    obs::clear_dump_path_override();
    let dumped = std::fs::read_to_string(&dump).expect("degradation wrote the dump");
    let dumped = obs::JournalSnapshot::parse(&dumped).expect("dump is a valid snapshot");
    let last = dumped.records.last().map(|r| &r.event);
    assert!(
        matches!(last, Some(obs::Event::Solve { restarts, .. }) if *restarts >= 1),
        "dump ends with the restarted solve that triggered it, got {last:?}"
    );
    assert!(dumped.records.iter().any(|r| matches!(
        &r.event,
        obs::Event::Fault { fault } if fault == "solver-stall"
    )));
    let _ = std::fs::remove_file(&dump);

    // --- Attribution: an injected solver stall must surface as extra
    // solve-side work relative to a clean run — deterministically in the
    // journal's iteration/restart counters, and as a solve entry in the
    // span profile.
    let _ = obs::drain_journal_snapshot();
    let _ = obs::drain_spans();
    let _ = psl.select(&model, &weights).expect("clean run selects");
    let clean = obs::drain_journal_snapshot();
    let clean_profile = obs::profile(&obs::drain_spans(), 0);

    cms::psl::fault::arm(cms::psl::Fault::SolverStall);
    let _ = psl.select(&model, &weights).expect("stalled run selects");
    cms::psl::fault::disarm();
    let stalled = obs::drain_journal_snapshot();
    let stalled_profile = obs::profile(&obs::drain_spans(), 0);
    obs::clear_level_override();

    let (clean_iters, clean_restarts) = solve_counters(&clean);
    let (stalled_iters, stalled_restarts) = solve_counters(&stalled);
    assert!(
        stalled_restarts > clean_restarts,
        "stall forces a watchdog restart: {stalled_restarts} vs {clean_restarts}"
    );
    assert!(
        stalled_iters >= clean_iters,
        "restarted solves never spend fewer iterations: {stalled_iters} vs {clean_iters}"
    );
    assert!(stalled.records.iter().any(|r| matches!(
        &r.event,
        obs::Event::Fault { fault } if fault == "solver-stall"
    )));

    // Both profiles attribute wall time to the solve phase, and
    // self-time never exceeds inclusive time anywhere.
    for (name, profile) in [("clean", &clean_profile), ("stalled", &stalled_profile)] {
        let solve = profile
            .entry("solve")
            .unwrap_or_else(|| panic!("{name} profile has a solve entry"));
        assert!(solve.count >= 1);
        assert!(solve.wall_inclusive_ns > 0);
        for entry in &profile.entries {
            assert!(
                entry.wall_self_ns <= entry.wall_inclusive_ns,
                "{name}: self ≤ inclusive for {}",
                entry.label
            );
        }
    }
    // The stalled run's profile round-trips through its JSON form, so
    // obs_diff can consume what `cms-bench profile` writes.
    let json = stalled_profile.to_json();
    let back = obs::Profile::parse(&json).expect("profile re-parses");
    assert_eq!(back, stalled_profile);
}
