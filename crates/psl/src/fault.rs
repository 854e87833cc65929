//! Deterministic fault-injection hook for the ADMM watchdog.
//!
//! The solver defends itself with a stall/divergence watchdog and a
//! restart policy; this module lets tests *prove* that defense works by
//! injecting a fault at a precisely chosen point and asserting the
//! documented recovery. Injection is:
//!
//! * **thread-local** — a fault armed on one thread never fires on
//!   another, so the suite can run faults in parallel tests, and the
//!   solver's coordinator-side hook behaves identically under
//!   `ADMM_THREADS > 1` (the residual check always runs on the thread
//!   that called `solve`);
//! * **one-shot** — the first injection point whose kind matches consumes
//!   the armed fault, so the recovery of the same operation runs clean;
//! * **zero-cost when disarmed** — each hook is a thread-local `Cell`
//!   read.
//!
//! See `docs/robustness.md` for the fault → watchdog → recovery table.

use std::cell::Cell;

/// One injectable fault, detected by the solver watchdog.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_one_shot() {
        disarm();
        assert!(!take(Fault::SolverStall));
        arm(Fault::SolverStall);
        assert_eq!(armed(), Some(Fault::SolverStall));
        assert!(take(Fault::SolverStall));
        assert!(!take(Fault::SolverStall), "consumed exactly once");
        assert_eq!(armed(), None);
    }

    #[test]
    fn faults_are_thread_local() {
        arm(Fault::SolverStall);
        std::thread::spawn(|| {
            assert_eq!(armed(), None);
            assert!(!take(Fault::SolverStall));
        })
        .join()
        .unwrap();
        assert!(take(Fault::SolverStall));
    }
}
