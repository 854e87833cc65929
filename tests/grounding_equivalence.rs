//! End-to-end equivalence of the plan-compiled, index-probing grounding
//! engine against the retained naive reference grounder, on the real
//! programs the pipeline produces for seeded iBench scenarios.
//!
//! For each scenario we build the coverage model and both PSL encodings
//! (hand-compiled raw terms and declarative rules), then require that
//! `Program::ground()` (parallel, plan-compiled), `ground_with(1)`
//! (sequential, plan-compiled) and `ground_naive()` (reference) describe
//! the identical HL-MRF via [`cms_psl::GroundProgram::canonical_terms`].
//! The selector's own path skips grounding (`PslCollective::compile`);
//! its solve must equal the solve of the grounded raw program bit for bit.

use cms::prelude::*;
use cms_psl::{GroundAtom, Program};

fn assert_all_engines_agree(program: &Program, label: &str) {
    let parallel = program.ground().expect("parallel grounding succeeds");
    let sequential = program
        .ground_with(1)
        .expect("sequential grounding succeeds");
    let naive = program.ground_naive().expect("naive grounding succeeds");

    // Parallel vs sequential plan grounding: bit-identical, variable order
    // included (the deterministic two-phase merge guarantees it).
    assert_eq!(
        parallel.num_vars(),
        sequential.num_vars(),
        "{label}: var count"
    );
    for v in 0..parallel.num_vars() {
        assert_eq!(
            parallel.atom_of(v),
            sequential.atom_of(v),
            "{label}: var order"
        );
    }

    // Plan vs naive: identical HL-MRF up to term/variable ordering.
    assert_eq!(
        parallel.num_vars(),
        naive.num_vars(),
        "{label}: naive var count"
    );
    assert_eq!(
        parallel.canonical_terms(),
        naive.canonical_terms(),
        "{label}: ground terms differ between plan and naive engines"
    );
    assert!(
        (parallel.constant_loss - naive.constant_loss).abs() < 1e-9,
        "{label}: constant loss drifted"
    );
}

#[test]
fn all_engines_agree_on_seeded_scenarios() {
    for (invocations, seed) in [(1usize, 1u64), (1, 7), (2, 3)] {
        let config = ScenarioConfig {
            rows_per_relation: 10,
            noise: NoiseConfig::uniform(25.0),
            seed,
            ..ScenarioConfig::all_primitives(invocations)
        };
        let scenario = generate(&config);
        let model = CoverageModel::build(&scenario.source, &scenario.target, &scenario.candidates);
        let selector = PslCollective::default();
        let weights = ObjectiveWeights::unweighted();

        let (raw_program, _) = selector.build_program(&model, &weights);
        assert_all_engines_agree(&raw_program, &format!("raw inv={invocations} seed={seed}"));

        let (decl_program, _) = selector.build_declarative_program(&model, &weights);
        assert_all_engines_agree(
            &decl_program,
            &format!("decl inv={invocations} seed={seed}"),
        );
    }
}

#[test]
fn index_short_circuits_the_declarative_join() {
    // The declarative encoding's error-link rule is a two-literal join:
    // with the index, grounding it must probe (not scan) the inner
    // literal's pool.
    let config = ScenarioConfig {
        rows_per_relation: 12,
        noise: NoiseConfig::uniform(25.0),
        seed: 5,
        ..ScenarioConfig::all_primitives(2)
    };
    let scenario = generate(&config);
    let model = CoverageModel::build(&scenario.source, &scenario.target, &scenario.candidates);
    let (program, _) =
        PslCollective::default().build_declarative_program(&model, &ObjectiveWeights::unweighted());
    let ground = program.ground().expect("grounds");
    let stats = ground.total_stats();
    assert!(
        stats.candidates_probed > 0,
        "no index probes recorded: {stats:?}"
    );
    let naive = program.ground_naive().expect("grounds naively");
    let naive_stats = naive.total_stats();
    assert!(
        stats.candidates_probed + stats.candidates_scanned < naive_stats.candidates_scanned,
        "index did not reduce candidate work: plan={stats:?} naive={naive_stats:?}"
    );
}

#[test]
fn compiled_inference_equals_solving_the_grounded_program() {
    let weights = ObjectiveWeights::unweighted();
    let selector = PslCollective::default();
    for seed in [1u64, 7] {
        let scenario = generate(&ScenarioConfig {
            rows_per_relation: 10,
            noise: NoiseConfig::uniform(25.0),
            seed,
            ..ScenarioConfig::all_primitives(4)
        });
        let raw = CoverageModel::build(&scenario.source, &scenario.target, &scenario.candidates);
        let (reduced, _) = preprocess(&raw);
        for (label, model) in [("raw", &raw), ("preprocessed", &reduced)] {
            let run = selector.infer(model, &weights).expect("infers");

            let (program, in_map_p) = selector.build_program(model, &weights);
            let ground = program.ground().expect("grounds");
            let reference = ground.solve(&selector.admm);
            let relaxed: Vec<u64> = (0..model.num_candidates)
                .map(|c| {
                    let atom = GroundAtom::from_strs(in_map_p, &[&format!("c{c}")]);
                    reference
                        .value(&ground, &atom)
                        .expect("inMap grounded")
                        .to_bits()
                })
                .collect();

            let got: Vec<u64> = run.relaxed.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, relaxed, "seed {seed} {label}: relaxed");
            assert_eq!(
                run.iterations, reference.admm.iterations,
                "seed {seed} {label}"
            );
            assert_eq!(
                run.soft_objective.to_bits(),
                reference.total_objective().to_bits(),
                "seed {seed} {label}: soft objective"
            );
            assert_eq!(
                run.ground_terms,
                ground.potentials.len() + ground.constraints.len(),
                "seed {seed} {label}: ground terms"
            );
        }
    }
}
