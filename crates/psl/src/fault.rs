//! Deterministic fault-injection hooks for the self-healing pipeline.
//!
//! The incremental solve path (delta capture → splice reground → dual
//! carry → warm ADMM) defends itself with guards and watchdogs; this
//! module lets tests *prove* those defenses work by injecting one fault at
//! a precisely chosen point and asserting the documented recovery rung
//! fires. Injection is:
//!
//! * **thread-local** — a fault armed on one thread never fires on
//!   another, so the suite can run faults in parallel tests, and the
//!   solver's coordinator-side hooks behave identically under
//!   `ADMM_THREADS > 1` (the residual check always runs on the thread
//!   that called `solve`);
//! * **one-shot** — the first injection point whose kind matches consumes
//!   the armed fault, so a recovery retry of the same operation runs
//!   clean;
//! * **zero-cost when disarmed** — each hook is a thread-local `Cell`
//!   read.
//!
//! On top of these primitives, a [`FaultPlan`] maps a seed to a
//! reproducible order of every fault class, so a recovery suite (or a CI
//! leg via [`SEED_ENV`]) can hammer the pipeline with each class in a
//! shuffled order and assert that each one is detected, degrades down the
//! documented ladder rung, and still ends at the fault-free result. See
//! `docs/robustness.md` for the fault → guard → ladder-rung table.

use std::cell::Cell;

/// One injectable fault. Each variant corresponds to exactly one hook in
/// the pipeline and is detected by a specific guard or watchdog (the
/// recovery suite asserts the full chain per variant).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// NaN-poison the first non-empty dual vector produced by
    /// [`crate::GroundProgram::carry_duals`]. Detected by
    /// [`crate::DualState::all_finite`] (warm-consensus rung) or, failing
    /// that, by the solver's non-finite watchdog.
    PoisonDuals,
    /// Silently drop the last entry from the next
    /// [`crate::Database::take_delta`]. Detected by the delta guard's
    /// entry-count invariant (`len == end − base`).
    DropDeltaEntry,
    /// Duplicate the last entry of the next
    /// [`crate::Database::take_delta`]. Detected by the same entry-count
    /// invariant as [`Fault::DropDeltaEntry`].
    DuplicateDeltaEntry,
    /// Corrupt one splice-table slot ordinal to an out-of-range value at
    /// the start of [`crate::Program::reground`]. Detected by the splice
    /// shape check before any splicing happens.
    CorruptSpliceOrdinal,
    /// Report the database atom index as unavailable mid-reground.
    /// Surfaces as [`crate::GroundingError::IndexUnavailable`]; the ladder
    /// falls back to a fresh ground (which, being a later operation,
    /// re-ensures the index and succeeds).
    InvalidateIndex,
    /// Force the solver watchdog to report a stall at the next residual
    /// check, regardless of actual progress. Exercises
    /// [`crate::SolveHealth::Stalled`] and the restart policy.
    SolverStall,
}

impl Fault {
    /// Stable lowercase label, used by the telemetry journal's
    /// fault events and the recovery suite's diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Fault::PoisonDuals => "poison-duals",
            Fault::DropDeltaEntry => "drop-delta-entry",
            Fault::DuplicateDeltaEntry => "duplicate-delta-entry",
            Fault::CorruptSpliceOrdinal => "corrupt-splice-ordinal",
            Fault::InvalidateIndex => "invalidate-index",
            Fault::SolverStall => "solver-stall",
        }
    }
}

thread_local! {
    static ARMED: Cell<Option<Fault>> = const { Cell::new(None) };
}

/// Arm `fault` on the current thread. At most one fault is armed at a
/// time; arming replaces any previous one. The next matching injection
/// point consumes it.
pub fn arm(fault: Fault) {
    ARMED.with(|a| a.set(Some(fault)));
}

/// Disarm whatever is armed on the current thread (idempotent). Recovery
/// tests call this between steps so a fault never leaks across scenarios.
pub fn disarm() {
    ARMED.with(|a| a.set(None));
}

/// The fault currently armed on this thread, if any (not consumed).
pub fn armed() -> Option<Fault> {
    ARMED.with(|a| a.get())
}

/// One-shot hook: if `kind` is armed on this thread, disarm it and return
/// true (the caller then performs the injection). Called from the
/// pipeline's injection points only.
pub(crate) fn take(kind: Fault) -> bool {
    let fired = ARMED.with(|a| {
        if a.get() == Some(kind) {
            a.set(None);
            true
        } else {
            false
        }
    });
    if fired {
        cms_obs::count("fault.injected", 1);
        cms_obs::emit(cms_obs::Event::Fault {
            fault: kind.label().to_owned(),
        });
    }
    fired
}

/// Every injectable fault, in declaration order. [`FaultPlan::from_seed`]
/// permutes this set; tests can also iterate it directly to cover each
/// class exactly once.
pub const ALL_FAULTS: [Fault; 6] = [
    Fault::PoisonDuals,
    Fault::DropDeltaEntry,
    Fault::DuplicateDeltaEntry,
    Fault::CorruptSpliceOrdinal,
    Fault::InvalidateIndex,
    Fault::SolverStall,
];

/// The environment variable [`FaultPlan::from_env`] reads the seed from.
pub const SEED_ENV: &str = "CMS_FAULT_SEED";

/// splitmix64: the standard 64-bit finalizer-style mixer. Deterministic,
/// dependency-free, and plenty for shuffling six elements.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded, reproducible schedule of faults to inject, one per pipeline
/// step. Two plans built from the same seed are identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Derive a plan from a seed: a Fisher–Yates shuffle of
    /// [`ALL_FAULTS`] driven by splitmix64. Every fault class appears
    /// exactly once, so a suite that walks the whole plan covers every
    /// guard regardless of the seed.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut state = seed;
        let mut faults = ALL_FAULTS.to_vec();
        for i in (1..faults.len()).rev() {
            // `% (i+1)` is negligibly biased for n = 6; determinism is
            // what matters here, not uniformity.
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            faults.swap(i, j);
        }
        FaultPlan { seed, faults }
    }

    /// Build a plan from the [`SEED_ENV`] environment variable. Returns
    /// `None` when the variable is unset; a set-but-malformed value also
    /// yields `None` (with a warning on stderr) rather than silently
    /// testing a different schedule than the caller asked for.
    pub fn from_env() -> Option<FaultPlan> {
        let raw = std::env::var(SEED_ENV).ok()?;
        match raw.trim().parse::<u64>() {
            Ok(seed) => Some(FaultPlan::from_seed(seed)),
            Err(_) => {
                eprintln!("warning: ignoring malformed {SEED_ENV}={raw:?} (expected a u64)");
                None
            }
        }
    }

    /// The seed this plan was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The full fault schedule, in injection order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Arm the fault for step `step` (wrapping past the end of the plan)
    /// on the current thread and return it. The caller performs the
    /// pipeline step, asserts recovery, and should [`disarm`] before the
    /// next step so an un-consumed fault never leaks across scenarios.
    pub fn arm_step(&self, step: usize) -> Fault {
        let fault = self.faults[step % self.faults.len()];
        arm(fault);
        fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_one_shot_and_kind_specific() {
        disarm();
        assert!(!take(Fault::SolverStall));
        arm(Fault::SolverStall);
        assert_eq!(armed(), Some(Fault::SolverStall));
        assert!(!take(Fault::PoisonDuals), "wrong kind must not consume");
        assert!(take(Fault::SolverStall));
        assert!(!take(Fault::SolverStall), "consumed exactly once");
        assert_eq!(armed(), None);
    }

    #[test]
    fn faults_are_thread_local() {
        arm(Fault::PoisonDuals);
        std::thread::spawn(|| {
            assert_eq!(armed(), None);
            assert!(!take(Fault::PoisonDuals));
        })
        .join()
        .unwrap();
        assert!(take(Fault::PoisonDuals));
    }

    #[test]
    fn same_seed_same_plan() {
        assert_eq!(FaultPlan::from_seed(1), FaultPlan::from_seed(1));
        assert_eq!(FaultPlan::from_seed(42), FaultPlan::from_seed(42));
    }

    #[test]
    fn every_plan_covers_every_fault_class() {
        for seed in 0..64 {
            let plan = FaultPlan::from_seed(seed);
            assert_eq!(plan.faults().len(), ALL_FAULTS.len());
            for f in ALL_FAULTS {
                assert!(plan.faults().contains(&f), "seed {seed} misses {f:?}");
            }
        }
    }

    #[test]
    fn seeds_produce_different_orders() {
        // Not a hard guarantee for any fixed pair, but across 16 seeds at
        // least two of the 720 orderings must appear.
        let first = FaultPlan::from_seed(0);
        assert!(
            (1..16).any(|s| FaultPlan::from_seed(s).faults() != first.faults()),
            "all seeds produced the identical order"
        );
    }

    #[test]
    fn arm_step_wraps_and_arms() {
        let plan = FaultPlan::from_seed(7);
        let f0 = plan.arm_step(0);
        assert_eq!(armed(), Some(f0));
        disarm();
        assert_eq!(plan.arm_step(ALL_FAULTS.len()), f0, "wraps modulo len");
        disarm();
    }
}
