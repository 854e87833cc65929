//! `cms-candgen` — Clio-style candidate mapping generation.
//!
//! Given a source schema, a target schema, and a set of attribute
//! correspondences (schema matches), this crate produces the candidate set
//! `C` of st tgds the selection problem chooses from:
//!
//! 1. compute *logical relations* — FK-closure join trees — on both sides;
//! 2. for every (source LR, target LR) pair connected by a correspondence,
//!    emit a candidate tgd exporting matched attributes and inventing
//!    existentials for the rest;
//! 3. deduplicate structurally.
//!
//! This replaces the Clio system the paper uses as its candidate generator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correspondence;
pub mod generate;
pub mod logical_relation;

pub use correspondence::{corr, Correspondence};
pub use generate::{generate_candidates, CandGenConfig};
pub use logical_relation::{expand, logical_relations, LogicalRelation, LrAtom};
