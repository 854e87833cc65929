//! `cms-tgd` — source-to-target tuple-generating dependencies and the
//! chase.
//!
//! This crate is the data-exchange engine the paper builds on: it defines
//! st tgds (the mapping language), conjunctive-query matching over
//! instances, the oblivious chase producing canonical universal solutions
//! `K_M`, a **batched chase engine** that interns candidate bodies into a
//! shared body-prefix trie and evaluates each join prefix once for a whole
//! candidate set ([`ChaseEngine`]), structural normalization for
//! recognizing the gold mapping inside the candidate set, a small text
//! parser for examples, and a programmatic builder for the generators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atom;
pub mod builder;
pub mod chase;
pub mod core;
pub mod dependency;
pub mod engine;
pub mod matcher;
pub mod normalize;
pub mod parser;
pub mod term;
pub mod trie;

pub use atom::Atom;
pub use builder::{cst, var, Arg, TgdBuilder};
pub use chase::{
    chase, chase_canonical, chase_into, chase_one, chase_one_canonical, prepare_plans, try_chase,
    try_chase_into, try_chase_one, ChaseError, FirePlan,
};
pub use cms_obs::ChaseStats;
pub use core::{core_of, is_core};
pub use dependency::{StTgd, TgdError};
pub use engine::ChaseEngine;
pub use matcher::{has_match, match_conjunction, Binding};
pub use normalize::{canonical_key, dedup_tgds, equivalent};
pub use parser::{parse_tgd, ParseError};
pub use term::{Term, VarId};
pub use trie::{canonical_body, BodyTrie, CanonAtom, CanonTerm};
