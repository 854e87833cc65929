//! `cms-psl` — a from-scratch probabilistic soft logic (PSL) engine.
//!
//! PSL programs define hinge-loss Markov random fields (HL-MRFs): weighted
//! logical rules compile, per grounding, into hinge-loss potentials
//! `w · max(0, ℓ(y))^p` over `[0,1]`-valued ground-atom truths, and hard
//! rules into linear constraints. MAP inference is exact convex
//! minimization, solved here by consensus ADMM with closed-form local steps
//! (Bach et al., JMLR 2017).
//!
//! The paper's collective mapping-selection model is expressed on top of
//! this crate by `cms-select`; nothing in here is specific to schema
//! mapping. No PSL or Markov-logic crate exists in the ecosystem, so this
//! engine is implemented from scratch.
//!
//! The pieces:
//!
//! * [`Program`] holds a [`Vocabulary`], a [`Database`] of observed and
//!   target atoms, logical rules ([`rule`]), arithmetic rules
//!   ([`arith`]) and raw linear terms; [`Program::ground`] grounds all of
//!   them from scratch with the plan-compiled, index-probing grounder
//!   ([`grounding`], [`plan`]), and [`Program::ground_naive`] with the
//!   retained nested-loop reference.
//! * [`AdmmSolver`] ([`admm`]) solves a ground program: sharded,
//!   deterministic consensus ADMM per independent component, with a
//!   stall/divergence watchdog, restarts and a time budget
//!   ([`SolveHealth`]); [`fault`] injects a solver stall to test them.
//! * [`rounding`] turns relaxed truths into a discrete choice.
//!
//! ```
//! use cms_psl::{Vocabulary, Program, GroundAtom, RuleBuilder, rvar, AdmmConfig};
//!
//! let mut vocab = Vocabulary::new();
//! let friend = vocab.closed("friend", 2);
//! let smokes = vocab.open("smokes", 1);
//! let mut program = Program::new(vocab);
//! program.db.observe(GroundAtom::from_strs(friend, &["a", "b"]), 1.0);
//! program.db.target(GroundAtom::from_strs(smokes, &["a"]));
//! program.db.target(GroundAtom::from_strs(smokes, &["b"]));
//! // friends smoke together (softly):
//! program.add_rule(
//!     RuleBuilder::new("peer")
//!         .body(friend, vec![rvar("X"), rvar("Y")])
//!         .body(smokes, vec![rvar("X")])
//!         .head(smokes, vec![rvar("Y")])
//!         .weight(1.0)
//!         .build(),
//! );
//! let ground = program.ground().unwrap();
//! let solution = ground.solve(&AdmmConfig::default());
//! assert!(solution.admm.converged);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admm;
pub mod arith;
pub mod atom;
pub mod database;
pub mod fault;
pub mod grounding;
pub mod hinge;
pub mod linear;
pub mod plan;
pub mod predicate;
pub mod program;
pub mod rounding;
pub mod rule;

pub use admm::{AdmmConfig, AdmmSolution, AdmmSolver, SolveHealth};
pub use arith::{
    ground_arith_rule, ground_arith_rule_naive, ArithError, ArithRule, ArithRuleBuilder, ArithTerm,
    Comparison,
};
pub use atom::GroundAtom;
pub use database::{Database, Resolved};
pub use fault::Fault;
pub use grounding::{
    ground_rule, reference::ground_rule_naive, GroundSink, GroundStats, GroundingError, VarRegistry,
};
pub use hinge::{ConstraintKind, GroundConstraint, GroundPotential};
pub use linear::LinExpr;
pub use plan::JoinPlan;
pub use predicate::{PredId, Predicate, Vocabulary};
pub use program::{AtomLin, GroundProgram, MapSolution, Program};
pub use rounding::{best_threshold_rounding, candidate_thresholds, threshold_select};
pub use rule::{rconst, rvar, Literal, LogicalRule, RAtom, RTerm, RuleBuilder};
