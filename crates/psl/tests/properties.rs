//! Property-based tests for the PSL engine: grounding semantics and the
//! convexity/feasibility contracts of ADMM MAP inference.

use cms_psl::{
    ground_rule, AdmmConfig, AdmmSolver, ConstraintKind, Database, GroundAtom, GroundConstraint,
    GroundPotential, GroundSink, LinExpr, RuleBuilder, VarRegistry, Vocabulary,
};
use proptest::prelude::*;

/// Random linear hinge potentials over `n` variables.
fn arb_potentials(n: usize) -> impl Strategy<Value = Vec<GroundPotential>> {
    let term = (0..n, -2i32..=2).prop_map(|(v, c)| (v, c as f64));
    let potential = (
        prop::collection::vec(term, 1..4),
        -2i32..=2,
        1u32..4,
        any::<bool>(),
    )
        .prop_map(|(terms, constant, w, squared)| {
            let mut expr = LinExpr::constant(constant as f64 * 0.5);
            for (v, c) in terms {
                if c != 0.0 {
                    expr.add_term(v, c);
                }
            }
            expr.normalize();
            GroundPotential {
                expr,
                weight: w as f64,
                squared,
                origin: String::new(),
            }
        });
    prop::collection::vec(potential, 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ADMM's solution is a global minimum of the (convex) objective up to
    /// tolerance: no sampled point in the box does meaningfully better.
    #[test]
    fn admm_beats_random_points(potentials in arb_potentials(5), probes in prop::collection::vec(prop::collection::vec(0.0f64..=1.0, 5), 20)) {
        let solver = AdmmSolver::new(&potentials, &[], 5);
        let sol = solver.solve(&AdmmConfig::default());
        for probe in &probes {
            let probe_obj = solver.objective(probe);
            prop_assert!(
                sol.objective <= probe_obj + 1e-3,
                "ADMM {} worse than probe {}",
                sol.objective,
                probe_obj
            );
        }
    }

    /// With hard box-interior constraints, the solution satisfies them
    /// within tolerance.
    #[test]
    fn admm_respects_constraints(potentials in arb_potentials(4), cap in 0.1f64..0.9) {
        // Constrain y0 ≤ cap and y1 = cap.
        let mut le = LinExpr::constant(-cap);
        le.add_term(0, 1.0);
        let mut eq = LinExpr::constant(-cap);
        eq.add_term(1, 1.0);
        let constraints = vec![
            GroundConstraint { expr: le, kind: ConstraintKind::LeqZero, origin: String::new() },
            GroundConstraint { expr: eq, kind: ConstraintKind::EqZero, origin: String::new() },
        ];
        let solver = AdmmSolver::new(&potentials, &constraints, 4);
        let sol = solver.solve(&AdmmConfig::default());
        prop_assert!(sol.values[0] <= cap + 5e-3, "y0 = {} > cap {}", sol.values[0], cap);
        prop_assert!((sol.values[1] - cap).abs() < 5e-3, "y1 = {} != {}", sol.values[1], cap);
    }

    /// Solutions always stay in the [0,1] box and the reported objective
    /// matches re-evaluation.
    #[test]
    fn admm_box_and_objective_consistency(potentials in arb_potentials(6)) {
        let solver = AdmmSolver::new(&potentials, &[], 6);
        let sol = solver.solve(&AdmmConfig::default());
        for &v in &sol.values {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        let re = solver.objective(&sol.values);
        prop_assert!((re - sol.objective).abs() < 1e-9);
    }
}

/// Variables per sub-program of [`arb_block`].
const BLOCK_VARS: usize = 5;

/// A random connected sub-program over `BLOCK_VARS` local variables, large
/// enough to be solved as a block of its own (at least 16 terms): a chain
/// of four randomly weighted potentials per link, then random potentials
/// and up to two averaged half-space or hyperplane constraints.
fn arb_block() -> impl Strategy<Value = (Vec<GroundPotential>, Vec<GroundConstraint>)> {
    let link = (-2i32..=2, 1u32..4, any::<bool>());
    let constraint = (0..BLOCK_VARS, 0..BLOCK_VARS, 0.2f64..0.9, any::<bool>()).prop_map(
        |(a, b, cap, equality)| {
            let mut expr = LinExpr::constant(-cap);
            expr.add_term(a, 0.5);
            expr.add_term(b, 0.5);
            expr.normalize();
            GroundConstraint {
                expr,
                kind: if equality {
                    ConstraintKind::EqZero
                } else {
                    ConstraintKind::LeqZero
                },
                origin: String::new(),
            }
        },
    );
    (
        prop::collection::vec(link, 4 * (BLOCK_VARS - 1)),
        arb_potentials(BLOCK_VARS),
        prop::collection::vec(constraint, 0..3),
    )
        .prop_map(|(links, extra, constraints)| {
            let mut potentials: Vec<GroundPotential> = links
                .into_iter()
                .enumerate()
                .map(|(k, (constant, w, squared))| {
                    let (i, sign) = (k / 4, if k % 2 == 0 { 1.0 } else { -1.0 });
                    let mut expr = LinExpr::constant(constant as f64 * 0.25);
                    expr.add_term(i, sign);
                    expr.add_term(i + 1, -sign);
                    expr.normalize();
                    GroundPotential {
                        expr,
                        weight: w as f64,
                        squared,
                        origin: String::new(),
                    }
                })
                .collect();
            potentials.extend(extra);
            (potentials, constraints)
        })
}

/// A random sub-program too small for a block of its own: one to three
/// potentials on two variables.
fn arb_tiny_block() -> impl Strategy<Value = (Vec<GroundPotential>, Vec<GroundConstraint>)> {
    let term = (0..2usize, prop::sample::select(vec![-1.0, 1.0]));
    let potential = (term, -2i32..=2, 1u32..4).prop_map(|((v, c), constant, w)| {
        let mut expr = LinExpr::constant(constant as f64 * 0.5);
        expr.add_term(v, c);
        GroundPotential {
            expr,
            weight: w as f64,
            squared: false,
            origin: String::new(),
        }
    });
    prop::collection::vec(potential, 1..4).prop_map(|p| (p, Vec::new()))
}

/// Interleave `k` term lists round-robin, relabelling list `b`'s local
/// variable `i` to `i·k + b` so the lists' variable ids interleave too.
fn interleave<T: Clone>(blocks: &[&[T]], expr: impl Fn(&mut T) -> &mut LinExpr) -> Vec<T> {
    let k = blocks.len();
    let mut merged = Vec::new();
    let longest = blocks.iter().map(|b| b.len()).max().unwrap_or(0);
    for j in 0..longest {
        for (b, block) in blocks.iter().enumerate() {
            if let Some(term) = block.get(j) {
                let mut term = term.clone();
                for (v, _) in &mut expr(&mut term).terms {
                    *v = *v * k + b;
                }
                merged.push(term);
            }
        }
    }
    merged
}

type SubProgram = (Vec<GroundPotential>, Vec<GroundConstraint>);

/// Interleave sub-programs (see [`interleave`]) into one program.
fn interleave_programs(parts: &[&SubProgram]) -> SubProgram {
    let pots: Vec<&[GroundPotential]> = parts.iter().map(|b| &b.0[..]).collect();
    let cons: Vec<&[GroundConstraint]> = parts.iter().map(|b| &b.1[..]).collect();
    (
        interleave(&pots, |p| &mut p.expr),
        interleave(&cons, |c| &mut c.expr),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Solving a program made of disjoint sub-programs (interleaved
    /// variable ids and term order) gives every block-sized sub-program
    /// exactly the value bits it gets when solved alone, and the
    /// tiny ones exactly the bits of the program made of the tiny ones
    /// alone (they share one block); the merged counters follow the merge
    /// rules, and the split solve is bit-identical at every thread count
    /// on the forced parallel path.
    #[test]
    fn independent_components_solve_exactly_as_separate_programs(
        blocks in prop::collection::vec(arb_block(), 2..4),
        tiny in prop::collection::vec(arb_tiny_block(), 0..3),
    ) {
        let parts: Vec<&SubProgram> = blocks.iter().chain(&tiny).collect();
        let k = parts.len();
        let (potentials, constraints) = interleave_programs(&parts);
        let cfg = AdmmConfig {
            threads: 1,
            parallel_threshold: 0, // engage the parallel path at any size
            shard_slots: 3,        // several shards per block
            max_iterations: 400,
            ..AdmmConfig::default()
        };
        let solver = AdmmSolver::new(&potentials, &constraints, BLOCK_VARS * k);
        let whole = solver.solve(&cfg);

        // Each block-sized part alone, then the tiny parts as one program:
        // (solution, merged-program ids of its variables).
        let tiny_parts: Vec<&SubProgram> = tiny.iter().collect();
        let (tiny_pots, tiny_cons) = interleave_programs(&tiny_parts);
        let mut expected = Vec::new();
        for (b, (bp, bc)) in blocks.iter().enumerate() {
            let alone = AdmmSolver::new(bp, bc, BLOCK_VARS).solve(&cfg);
            let vars: Vec<usize> = (0..BLOCK_VARS).map(|i| i * k + b).collect();
            expected.push((alone, vars));
        }
        if !tiny.is_empty() {
            let t = tiny.len();
            let alone = AdmmSolver::new(&tiny_pots, &tiny_cons, BLOCK_VARS * t).solve(&cfg);
            // Tiny part j's variable i sits at i·t + j alone and at
            // i·k + (blocks + j) in the whole program.
            let mut vars = vec![usize::MAX; BLOCK_VARS * t];
            for j in 0..t {
                for i in 0..BLOCK_VARS {
                    vars[i * t + j] = i * k + blocks.len() + j;
                }
            }
            expected.push((alone, vars));
        }

        let (mut iterations, mut components, mut updates, mut converged) = (0, 0, 0, true);
        for (alone, vars) in &expected {
            iterations = iterations.max(alone.iterations);
            components += alone.components;
            updates += alone.term_updates;
            converged &= alone.converged;
            for (i, &v) in vars.iter().enumerate() {
                prop_assert_eq!(whole.values[v].to_bits(), alone.values[i].to_bits(),
                    "variable {}", v);
            }
        }
        prop_assert_eq!(whole.iterations, iterations);
        prop_assert_eq!(whole.components, components);
        prop_assert_eq!(whole.term_updates, updates);
        prop_assert_eq!(whole.converged, converged);

        for threads in [2usize, 4, 7] {
            let par = solver.solve(&AdmmConfig { threads, ..cfg.clone() });
            prop_assert_eq!(par.iterations, whole.iterations, "threads={}", threads);
            prop_assert_eq!(par.health, whole.health, "threads={}", threads);
            prop_assert_eq!(par.objective.to_bits(), whole.objective.to_bits(),
                "threads={}", threads);
            for (v, (a, b)) in whole.values.iter().zip(&par.values).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "threads={} var={}", threads, v);
            }
        }
    }
}

/// Grounding semantics: the compiled hinge equals the Łukasiewicz distance
/// to satisfaction computed directly, over a grid of truth assignments.
#[test]
fn grounding_matches_lukasiewicz_semantics() {
    let mut vocab = Vocabulary::new();
    let a = vocab.closed("a", 1);
    let b = vocab.open("b", 1);
    let c = vocab.open("c", 1);
    for &av in &[0.0, 0.3, 0.7, 1.0] {
        let mut db = Database::new();
        db.observe(GroundAtom::from_strs(a, &["x"]), av);
        db.target(GroundAtom::from_strs(b, &["x"]));
        db.target(GroundAtom::from_strs(c, &["x"]));
        // a(X) & b(X) -> c(X), weight 1.
        let rule = RuleBuilder::new("r")
            .body(a, vec![cms_psl::rvar("X")])
            .body(b, vec![cms_psl::rvar("X")])
            .head(c, vec![cms_psl::rvar("X")])
            .weight(1.0)
            .build();
        let mut registry = VarRegistry::new();
        let mut sink = GroundSink::default();
        ground_rule(&rule, &db, &mut registry, &mut sink).unwrap();

        for bv in [0.0, 0.25, 0.5, 1.0] {
            for cv in [0.0, 0.5, 1.0] {
                // Direct Łukasiewicz: I(body) = max(0, av + bv − 1);
                // distance = max(0, I(body) − cv).
                let body_truth = (av + bv - 1.0).max(0.0);
                let expected = (body_truth - cv).max(0.0);
                let mut y = vec![0.0; registry.len()];
                if let Some(i) = registry.lookup(&GroundAtom::from_strs(b, &["x"])) {
                    y[i] = bv;
                }
                if let Some(i) = registry.lookup(&GroundAtom::from_strs(c, &["x"])) {
                    y[i] = cv;
                }
                let total: f64 = sink.potentials.iter().map(|p| p.value(&y)).sum();
                assert!(
                    (total - expected).abs() < 1e-9,
                    "a={av} b={bv} c={cv}: got {total}, want {expected}"
                );
            }
        }
    }
}

/// Hard rules ground to constraints whose satisfaction coincides with the
/// Łukasiewicz satisfaction of the clause.
#[test]
fn hard_rule_constraint_semantics() {
    let mut vocab = Vocabulary::new();
    let p = vocab.closed("p", 1);
    let q = vocab.open("q", 1);
    let mut db = Database::new();
    db.observe(GroundAtom::from_strs(p, &["x"]), 1.0);
    db.target(GroundAtom::from_strs(q, &["x"]));
    let rule = RuleBuilder::new("hard")
        .body(p, vec![cms_psl::rvar("X")])
        .head(q, vec![cms_psl::rvar("X")])
        .build();
    let mut registry = VarRegistry::new();
    let mut sink = GroundSink::default();
    ground_rule(&rule, &db, &mut registry, &mut sink).unwrap();
    assert_eq!(sink.constraints.len(), 1);
    let qi = registry.lookup(&GroundAtom::from_strs(q, &["x"])).unwrap();
    let mut y = vec![0.0; registry.len()];
    // q = 0 violates p → q by 1.
    assert!((sink.constraints[0].violation(&y) - 1.0).abs() < 1e-9);
    y[qi] = 1.0;
    assert_eq!(sink.constraints[0].violation(&y), 0.0);
}

// ---------------------------------------------------------------------------
// Plan-compiled grounding vs the naive reference grounder.
// ---------------------------------------------------------------------------

mod grounding_equivalence {
    use super::*;
    use cms_psl::ground_rule_naive;
    use cms_psl::rule::{Literal, LogicalRule, RAtom, RTerm};
    use cms_psl::PredId;

    /// Predicate conventions for the random worlds: preds 0 (arity 1) and
    /// 1 (arity 2) are observed; preds 2 (arity 1) and 3 (arity 2) hold
    /// target atoms.
    const ARITIES: [usize; 4] = [1, 2, 1, 2];

    fn sym_pool(i: u32) -> String {
        format!("s{i}")
    }

    fn arb_db() -> impl Strategy<Value = Database> {
        (
            prop::collection::vec((0u32..6, 0u32..=10), 0..12), // pred0 obs
            prop::collection::vec((0u32..6, 0u32..6, 0u32..=10), 0..16), // pred1 obs
            prop::collection::vec(0u32..6, 0..8),               // pred2 targets
            prop::collection::vec((0u32..6, 0u32..6), 0..10),   // pred3 targets
        )
            .prop_map(|(p0, p1, t2, t3)| {
                let mut db = Database::new();
                for (a, v) in p0 {
                    let atom = GroundAtom::from_strs(PredId(0), &[&sym_pool(a)]);
                    if db.observed_value(&atom).is_none() {
                        db.observe(atom, f64::from(v) / 10.0);
                    }
                }
                for (a, b, v) in p1 {
                    let atom = GroundAtom::from_strs(PredId(1), &[&sym_pool(a), &sym_pool(b)]);
                    if db.observed_value(&atom).is_none() {
                        db.observe(atom, f64::from(v) / 10.0);
                    }
                }
                for a in t2 {
                    db.target(GroundAtom::from_strs(PredId(2), &[&sym_pool(a)]));
                }
                for (a, b) in t3 {
                    db.target(GroundAtom::from_strs(
                        PredId(3),
                        &[&sym_pool(a), &sym_pool(b)],
                    ));
                }
                db
            })
    }

    /// A positive body literal over the observed predicates: terms are
    /// (is_var, var_id or sym).
    fn arb_body_literal() -> impl Strategy<Value = (u32, Vec<(bool, u32)>)> {
        (0u32..2, prop::collection::vec((any::<bool>(), 0u32..4), 2)).prop_map(|(p, mut terms)| {
            terms.truncate(ARITIES[p as usize]);
            (p, terms)
        })
    }

    /// Assemble a safe rule: head/negated variables only reuse variables
    /// that some positive body literal anchors.
    fn arb_rule() -> impl Strategy<Value = LogicalRule> {
        (
            prop::collection::vec(arb_body_literal(), 1..4),
            (2u32..4, prop::collection::vec(0u32..8, 2)), // head pred + term picks
            any::<bool>(),                                // head present?
            any::<bool>(),                                // weighted?
            0u32..=8,                                     // weight
            any::<bool>(),                                // squared
        )
            .prop_map(
                |(body, (head_pred, head_picks), with_head, weighted, w, squared)| {
                    let var_name = |i: u32| format!("V{}", i % 4);
                    let mut anchored: Vec<String> = Vec::new();
                    let mut literals: Vec<Literal> = Vec::new();
                    for (p, terms) in body {
                        let args: Vec<RTerm> = terms
                            .iter()
                            .map(|&(is_var, x)| {
                                if is_var {
                                    let name = var_name(x);
                                    if !anchored.contains(&name) {
                                        anchored.push(name.clone());
                                    }
                                    RTerm::Var(name)
                                } else {
                                    cms_psl::rconst(&sym_pool(x % 6))
                                }
                            })
                            .collect();
                        literals.push(Literal {
                            atom: RAtom {
                                pred: PredId(p),
                                args,
                            },
                            negated: false,
                        });
                    }
                    let head = if with_head {
                        let arity = ARITIES[head_pred as usize];
                        let args: Vec<RTerm> = head_picks
                            .iter()
                            .take(arity)
                            .map(|&pick| {
                                if anchored.is_empty() || pick >= 6 {
                                    cms_psl::rconst(&sym_pool(pick % 6))
                                } else {
                                    RTerm::Var(anchored[pick as usize % anchored.len()].clone())
                                }
                            })
                            .collect();
                        vec![Literal {
                            atom: RAtom {
                                pred: PredId(head_pred),
                                args,
                            },
                            negated: false,
                        }]
                    } else {
                        Vec::new()
                    };
                    LogicalRule {
                        name: "rand".into(),
                        body: literals,
                        head,
                        weight: weighted.then_some(f64::from(w) * 0.5),
                        squared,
                    }
                },
            )
    }

    /// Canonical (registry-independent) description of a sink.
    fn canonical(sink: &GroundSink, registry: &VarRegistry) -> Vec<String> {
        let desc = |expr: &LinExpr| {
            let mut terms: Vec<String> = expr
                .terms
                .iter()
                .map(|&(v, c)| format!("{c:.9}*{}", registry.atom(v)))
                .collect();
            terms.sort();
            format!("c={:.9} {}", expr.constant, terms.join(" + "))
        };
        let mut out: Vec<String> = Vec::new();
        for p in &sink.potentials {
            out.push(format!(
                "P w={:.9} sq={} {}",
                p.weight,
                p.squared,
                desc(&p.expr)
            ));
        }
        for c in &sink.constraints {
            out.push(format!("C {:?} {}", c.kind, desc(&c.expr)));
        }
        out.sort();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The plan-compiled, index-probing grounder emits exactly the
        /// ground program the naive nested-loop reference emits, for any
        /// database and any safe rule.
        #[test]
        fn plan_grounding_equals_naive_grounding(db in arb_db(), rules in prop::collection::vec(arb_rule(), 1..4)) {
            for rule in &rules {
                prop_assert!(rule.is_safe(), "generator must build safe rules");
                let mut reg_plan = VarRegistry::new();
                let mut sink_plan = GroundSink::default();
                let plan_stats = ground_rule(rule, &db, &mut reg_plan, &mut sink_plan).unwrap();
                let mut reg_naive = VarRegistry::new();
                let mut sink_naive = GroundSink::default();
                let naive_stats = ground_rule_naive(rule, &db, &mut reg_naive, &mut sink_naive).unwrap();
                prop_assert_eq!(plan_stats.substitutions, naive_stats.substitutions);
                prop_assert_eq!(plan_stats.potentials, naive_stats.potentials);
                prop_assert_eq!(plan_stats.constraints, naive_stats.constraints);
                prop_assert_eq!(plan_stats.pruned, naive_stats.pruned);
                prop_assert!((plan_stats.constant_loss - naive_stats.constant_loss).abs() < 1e-9);
                prop_assert_eq!(canonical(&sink_plan, &reg_plan), canonical(&sink_naive, &reg_naive));
            }
        }
    }

    fn vocab_for_arities() -> cms_psl::Vocabulary {
        let mut vocab = Vocabulary::new();
        vocab.closed("p0", ARITIES[0]);
        vocab.closed("p1", ARITIES[1]);
        vocab.open("q2", ARITIES[2]);
        vocab.open("q3", ARITIES[3]);
        vocab
    }

    // -----------------------------------------------------------------
    // Sharded parallel ADMM vs the serial solve.
    // -----------------------------------------------------------------

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The sharded, multi-threaded consensus step is **bit-identical**
        /// to the single-threaded solve on random ground programs: same
        /// iterates, same iteration count, same objective bits. The shard
        /// structure depends only on the problem (here forced to be
        /// several shards via a tiny `shard_slots`), never on `threads`.
        #[test]
        fn sharded_solve_is_bit_identical_across_thread_counts(
            db in arb_db(),
            rules in prop::collection::vec(arb_rule(), 1..4),
        ) {
            let mut program = cms_psl::Program::new(vocab_for_arities());
            program.db = db;
            for rule in rules {
                program.add_rule(rule);
            }
            let ground = program.ground().unwrap();
            let cfg = AdmmConfig {
                threads: 1,
                parallel_threshold: 0, // engage the parallel path at any size
                shard_slots: 4,        // force several consensus shards
                max_iterations: 500,
                ..AdmmConfig::default()
            };
            let base = ground.solve(&cfg);
            for threads in [2usize, 4, 7] {
                let tcfg = AdmmConfig { threads, ..cfg.clone() };
                let sol = ground.solve(&tcfg);
                prop_assert_eq!(sol.admm.iterations, base.admm.iterations,
                    "iteration count diverged at threads={}", threads);
                prop_assert_eq!(sol.admm.objective.to_bits(), base.admm.objective.to_bits(),
                    "objective bits diverged at threads={}", threads);
                for (v, (a, b)) in base
                    .admm
                    .values
                    .iter()
                    .zip(sol.admm.values.iter())
                    .enumerate()
                {
                    prop_assert_eq!(a.to_bits(), b.to_bits(),
                        "iterate bits diverged at threads={} var={}", threads, v);
                }
            }
        }
    }
}
