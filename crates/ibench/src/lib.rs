//! `cms-ibench` — iBench-style scenario generation for mapping-selection
//! experiments.
//!
//! Re-implements the scenario generator of the paper's evaluation
//! (appendix §II): seven iBench primitives (CP, ADD, DL, ADL, ME, VP, VNM)
//! with range parameters (2,4), source-instance generation, data exchange
//! with the gold mapping, Clio-style candidate generation over true +
//! spurious correspondences, and the three noise knobs πCorresp, πErrors,
//! πUnexplained. iBench itself is a Java tool, so the generator is
//! rebuilt here rather than driven as an external process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod data_gen;
pub mod noise;
pub mod primitive;
pub mod scenario;

pub use config::{NoiseConfig, ScenarioConfig};
pub use data_gen::populate_source;
pub use noise::{
    apply_data_noise, ground_instance, ground_tuple, noise_correspondences, DataNoiseReport,
};
pub use primitive::{instantiate, Invocation, Primitive};
pub use scenario::{generate, Scenario, ScenarioStats};
