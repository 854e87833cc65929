//! Fault-injection recovery suite: every fault class in
//! [`cms_psl::fault::ALL_FAULTS`] is injected into a live incremental solve
//! pipeline ([`cms_select::WarmRelaxation`] driving delta regrounds and
//! warm ADMM solves), and the suite asserts the full chain per class:
//!
//! 1. the fault is **detected** by its documented guard (nothing panics,
//!    nothing silently corrupts);
//! 2. the documented **ladder rung** fires (dropped duals, fresh-ground
//!    fallback, or solver restart — see `docs/robustness.md`);
//! 3. the pipeline **recovers**: every post-fault objective matches the
//!    fault-free run of the identical flip sequence.
//!
//! The seeded scenario is driven by [`cms_psl::fault::FaultPlan`]; CI runs it
//! under `CMS_FAULT_SEED={1,2}` so the injection order varies across legs
//! while staying reproducible.

use cms_psl::fault::{self, disarm, Fault, FaultPlan};
use cms_psl::AdmmConfig;
use cms_select::{
    build_reduction, CoverageModel, LocalSearch, ObjectiveWeights, Selector, SetCoverInstance,
    WarmRelaxation,
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

/// The flip sequence every scenario replays (same walk as the relaxation
/// unit tests: add, add, retract, add, re-add).
const FLIPS: [(usize, bool); 5] = [(0, true), (2, true), (0, false), (1, true), (0, true)];

fn warm(model: &CoverageModel) -> WarmRelaxation {
    WarmRelaxation::new(
        model,
        &ObjectiveWeights::unweighted(),
        AdmmConfig::default(),
    )
    .unwrap()
}

/// Run the flip sequence with no faults armed; returns the per-step soft
/// objectives — the ground truth every recovery scenario must reproduce.
fn fault_free_reference(model: &CoverageModel) -> Vec<f64> {
    let mut w = warm(model);
    FLIPS.iter().map(|&(c, on)| w.set(c, on).unwrap()).collect()
}

/// Assert `got` matches the fault-free objective at `step` (loose ADMM
/// tolerance: recovered solves may land on a different eps-accurate point).
fn assert_recovered(step: usize, got: f64, reference: &[f64], fault: Fault) {
    assert!(
        (got - reference[step]).abs() < 5e-3,
        "{fault:?} step {step}: recovered {got} vs fault-free {}",
        reference[step]
    );
}

/// Inject one fault class at one step of the flip sequence and assert the
/// documented ladder rung fired and the objective recovered. Returns the
/// relaxation for extra per-class assertions.
fn run_with_fault_at(
    model: &CoverageModel,
    reference: &[f64],
    fault: Fault,
    at: usize,
) -> WarmRelaxation {
    disarm();
    let mut w = warm(model);
    for (step, &(c, on)) in FLIPS.iter().enumerate() {
        if step == at {
            fault::arm(fault);
        }
        let soft = w.set(c, on).unwrap();
        assert_recovered(step, soft, reference, fault);
        if step == at {
            assert_eq!(
                fault::armed(),
                None,
                "{fault:?} was never consumed — the injection point did not fire"
            );
        } else {
            assert!(
                w.last_degradations.is_empty(),
                "{fault:?} leaked to step {step}"
            );
        }
        disarm();
    }
    w
}

/// Which ladder rung a fault class must fire (the per-class contract the
/// docs table promises).
fn assert_rung(fault: Fault, w: &WarmRelaxation) {
    match fault {
        Fault::PoisonDuals => {
            assert_eq!(
                w.telemetry.duals_dropped, 1,
                "poisoned duals must be dropped"
            );
            assert_eq!(
                w.telemetry.fallback_fresh_grounds, 0,
                "no reground fallback needed"
            );
        }
        Fault::DropDeltaEntry | Fault::DuplicateDeltaEntry => {
            assert_eq!(
                w.telemetry.fallback_fresh_grounds, 1,
                "tampered delta ⇒ fresh ground"
            );
            assert_eq!(w.telemetry.duals_dropped, 0);
        }
        Fault::CorruptSpliceOrdinal | Fault::InvalidateIndex => {
            assert_eq!(
                w.telemetry.fallback_fresh_grounds, 1,
                "broken splice ⇒ fresh ground"
            );
        }
        Fault::SolverStall => {
            assert!(
                w.telemetry.solver_restarts >= 1,
                "stall must trigger a restart"
            );
            assert_eq!(w.telemetry.fallback_fresh_grounds, 0);
            assert!(
                w.telemetry.last_health.is_some_and(|h| h.is_nominal()),
                "restart must recover"
            );
        }
    }
}

#[test]
fn every_fault_class_is_detected_and_recovered() {
    let model = model();
    let reference = fault_free_reference(&model);
    for fault in fault::ALL_FAULTS {
        // Inject at step 1 (a plain add with live prior state).
        let w = run_with_fault_at(&model, &reference, fault, 1);
        assert_rung(fault, &w);
    }
}

#[test]
fn faults_on_a_retraction_step_recover_too() {
    let model = model();
    let reference = fault_free_reference(&model);
    for fault in fault::ALL_FAULTS {
        run_with_fault_at(&model, &reference, fault, 2);
    }
}

/// Drop/DuplicateDeltaEntry stay detected when the drained delta is a
/// *coalesced batch*: tampering perturbs the raw entry count, and the
/// guard checks that count — not the (smaller) net entry list — against
/// the generation span, so coalescing cannot mask the fault.
#[test]
fn tampered_coalesced_batches_are_detected_and_recovered() {
    let model = model();
    // Candidate 0 flips on and back off inside the batch, so the drain
    // genuinely coalesces (4 raw entries, 2 net) before the guard runs.
    const BATCH: [(usize, bool); 4] = [(0, true), (2, true), (0, false), (1, true)];
    disarm();
    let mut clean = warm(&model);
    let reference = clean.set_members(&BATCH).unwrap();
    assert_eq!(
        clean.telemetry.entries_coalesced, 2,
        "the batch must coalesce"
    );
    assert_eq!(clean.telemetry.fallback_fresh_grounds, 0);
    for fault in [Fault::DropDeltaEntry, Fault::DuplicateDeltaEntry] {
        disarm();
        let mut w = warm(&model);
        fault::arm(fault);
        let soft = w.set_members(&BATCH).unwrap();
        assert_eq!(
            fault::armed(),
            None,
            "{fault:?} was never consumed on the batched drain"
        );
        assert_eq!(
            w.telemetry.fallback_fresh_grounds, 1,
            "{fault:?}: tampered batch ⇒ fresh ground"
        );
        assert!(
            (soft - reference).abs() < 5e-3,
            "{fault:?}: recovered {soft} vs fault-free {reference}"
        );
        // The pipeline is re-armed: a follow-up batch splices again.
        let after = w.set_members(&[(3, true), (0, true), (0, false)]).unwrap();
        let mut check = warm(&model);
        let expect = check
            .set_members(&[(2, true), (1, true), (3, true)])
            .unwrap();
        assert!(
            (after - expect).abs() < 5e-3,
            "{fault:?}: post-recovery batch {after} vs {expect}"
        );
        assert_eq!(
            w.telemetry.fallback_fresh_grounds, 1,
            "{fault:?} must not fire twice"
        );
    }
}

/// The seeded whole-plan scenario CI varies by `CMS_FAULT_SEED`: walk the
/// plan's shuffled fault order, one fault per flip, and require the final
/// state to match the fault-free run.
#[test]
fn seeded_fault_plan_recovers_end_to_end() {
    let plan = FaultPlan::from_env().unwrap_or_else(|| FaultPlan::from_seed(1));
    let model = model();
    let reference = fault_free_reference(&model);
    disarm();
    let mut w = warm(&model);
    for (step, &(c, on)) in FLIPS.iter().enumerate() {
        let fault = plan.arm_step(step);
        let soft = w.set(c, on).unwrap();
        assert_recovered(step, soft, &reference, fault);
        disarm();
    }
    assert!(
        w.telemetry.fallback_fresh_grounds
            + w.telemetry.duals_dropped
            + w.telemetry.solver_restarts
            > 0,
        "seed {}: at least one ladder rung must have fired",
        plan.seed()
    );
}

/// End-to-end: a full local search that tracks the relaxation, with a
/// fault armed mid-flight, selects the same mapping as the fault-free
/// search.
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
    for fault in fault::ALL_FAULTS {
        fault::arm(fault);
        let faulted = tracked.select(&model, &w).unwrap();
        assert_eq!(
            fault::armed(),
            None,
            "{fault:?} was never consumed — the search did not reach it"
        );
        disarm();
        assert_eq!(
            clean.selected, faulted.selected,
            "{fault:?} changed the selected mapping"
        );
        assert!(
            (clean.objective - faulted.objective).abs() < 1e-9,
            "{fault:?} changed the objective"
        );
    }
}
