//! Fault-injection recovery suite: the injectable fault class
//! ([`cms_psl::Fault::SolverStall`]) is injected into the collective
//! selector's ADMM solve, and the suite asserts the full chain:
//!
//! 1. the fault is **detected** by the solver watchdog (the solve reports
//!    [`cms_psl::SolveHealth::Stalled`] when no restart is allowed);
//! 2. the watchdog **restarts** the solve when restarts are armed;
//! 3. the pipeline **recovers**: the selection and its objective equal the
//!    fault-free run's.
//!
//! See `docs/robustness.md` for the fault → watchdog → recovery table.

use cms_psl::fault::{self, disarm, Fault};
use cms_psl::{AdmmConfig, SolveHealth};
use cms_select::{
    build_reduction, CoverageModel, LocalSearch, ObjectiveWeights, PslCollective, Selector,
    SetCoverInstance,
};

fn model() -> CoverageModel {
    let sc = SetCoverInstance {
        universe: 4,
        sets: vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]],
        bound: 2,
    };
    let red = build_reduction(&sc);
    CoverageModel::build(&red.source, &red.target, &red.candidates)
}

/// The collective selector with the solver watchdog armed (stall window
/// and restart budget) or disarmed.
fn psl(max_restarts: usize) -> PslCollective {
    PslCollective {
        admm: AdmmConfig {
            stall_window: 1000,
            max_restarts,
            ..AdmmConfig::default()
        },
        ..PslCollective::default()
    }
}

#[test]
fn every_fault_class_is_detected_and_recovered() {
    let model = model();
    let w = ObjectiveWeights::unweighted();
    disarm();
    let clean = psl(2).select(&model, &w).unwrap();
    assert_eq!(clean.telemetry.solver_restarts, 0);

    // Detected: with no restart allowed, the forced stall is the outcome.
    fault::arm(Fault::SolverStall);
    let unrecovered = psl(0).select(&model, &w).unwrap();
    assert_eq!(fault::armed(), None, "the injection point never fired");
    assert!(
        matches!(
            unrecovered.telemetry.last_health,
            Some(SolveHealth::Stalled { .. })
        ),
        "health {:?}",
        unrecovered.telemetry.last_health
    );

    // Restarted and recovered: the fault-free selection comes back.
    fault::arm(Fault::SolverStall);
    let faulted = psl(2).select(&model, &w).unwrap();
    assert_eq!(fault::armed(), None, "the injection point never fired");
    let t = &faulted.telemetry;
    assert_eq!(t.solver_restarts, 1, "the stall must trigger one restart");
    assert!(
        t.last_health.is_some_and(|h| h.is_nominal()),
        "the restart must recover: {:?}",
        t.last_health
    );
    assert_eq!(faulted.selected, clean.selected);
    assert_eq!(faulted.objective, clean.objective);
}

/// Local search solves nothing, tracked relaxation included (it is a
/// closed form): an armed solver fault neither fires nor changes the
/// selection.
#[test]
fn local_search_selection_survives_injection() {
    let model = model();
    let w = ObjectiveWeights::unweighted();
    let tracked = LocalSearch {
        track_relaxation: true,
        ..LocalSearch::default()
    };
    disarm();
    let clean = tracked.select(&model, &w).unwrap();
    fault::arm(Fault::SolverStall);
    let faulted = tracked.select(&model, &w).unwrap();
    assert_eq!(
        fault::armed(),
        Some(Fault::SolverStall),
        "local search must not reach a solver"
    );
    disarm();
    assert_eq!(clean.selected, faulted.selected);
    assert_eq!(clean.objective, faulted.objective);
    assert_eq!(clean.telemetry, faulted.telemetry);
}
