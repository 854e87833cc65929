//! The consensus-ADMM solve of two generated PSL programs, pinned bit for
//! bit: iteration count, block count, term updates, objective bits and a
//! hash of every value's bits. A change to the solver's arithmetic or its
//! reduction order shows up here as a visible decision.
//!
//! This is the only test in its binary on purpose: symbols order by
//! interning order in a process-global table, and the generated scenarios
//! (hence the programs) depend on that order, so the test builds both
//! programs in a fixed order and no other test may intern strings
//! concurrently.

use cms_ibench::{generate, NoiseConfig, ScenarioConfig};
use cms_psl::{AdmmConfig, AdmmSolution, AdmmSolver};
use cms_select::{preprocess, CoverageModel, ObjectiveWeights, PslCollective};

/// FNV-1a over the bits of every value.
fn values_hash(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// (iterations, components, term updates, objective bits, values hash).
fn pin(sol: &AdmmSolution) -> (usize, usize, usize, u64, u64) {
    (
        sol.iterations,
        sol.components,
        sol.term_updates,
        sol.objective.to_bits(),
        values_hash(&sol.values),
    )
}

/// The coverage model of `all_primitives(4)` at 25% uniform noise.
fn model(rows: usize, seed: u64) -> CoverageModel {
    let scenario = generate(&ScenarioConfig {
        rows_per_relation: rows,
        noise: NoiseConfig::uniform(25.0),
        seed,
        ..ScenarioConfig::all_primitives(4)
    });
    CoverageModel::build(&scenario.source, &scenario.target, &scenario.candidates)
}

#[test]
fn admm_solves_of_two_psl_programs_are_pinned() {
    let weights = ObjectiveWeights::unweighted();
    let config = AdmmConfig::default();

    // `ap4`: the compiled program of the unreduced model. Built first, as
    // the ADMM bench does.
    let ap4 = PslCollective::default().compile(&model(40, 3), &weights);
    let ap4 = AdmmSolver::new(&ap4.potentials, &ap4.constraints, ap4.num_vars).solve(&config);

    // `ds100`: the PSL program of the benchmark's data-scale point, built
    // and grounded from the preprocessed model.
    let (reduced, _) = preprocess(&model(100, 7));
    let (program, _) = PslCollective::default().build_program(&reduced, &weights);
    let ds100 = program.ground().expect("PSL program grounds");
    let ds100 = ds100.solve(&config).admm;

    assert_eq!(
        pin(&ap4),
        (
            181,
            38,
            304_691,
            4_647_875_352_832_462_672,
            13_611_838_339_902_074_468
        )
    );
    assert_eq!(
        pin(&ds100),
        (
            303,
            38,
            569_345,
            4_652_228_596_620_297_232,
            522_753_176_619_109_130
        )
    );
}
