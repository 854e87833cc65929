//! Property-based tests for the PSL engine: grounding semantics and the
//! convexity/feasibility contracts of ADMM MAP inference.

use cms_psl::{
    ground_rule, AdmmConfig, AdmmSolver, ConstraintKind, Database, GroundAtom, GroundConstraint,
    GroundPotential, GroundSink, LinExpr, RuleBuilder, VarRegistry, Vocabulary, WarmStart,
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
/// Returns the merged list and, per list, each term's merged index.
fn interleave<T: Clone>(
    blocks: &[&[T]],
    expr: impl Fn(&mut T) -> &mut LinExpr,
) -> (Vec<T>, Vec<Vec<usize>>) {
    let k = blocks.len();
    let mut merged = Vec::new();
    let mut index: Vec<Vec<usize>> = vec![Vec::new(); k];
    let longest = blocks.iter().map(|b| b.len()).max().unwrap_or(0);
    for j in 0..longest {
        for (b, block) in blocks.iter().enumerate() {
            if let Some(term) = block.get(j) {
                let mut term = term.clone();
                for (v, _) in &mut expr(&mut term).terms {
                    *v = *v * k + b;
                }
                index[b].push(merged.len());
                merged.push(term);
            }
        }
    }
    (merged, index)
}

type SubProgram = (Vec<GroundPotential>, Vec<GroundConstraint>);

/// Interleave sub-programs (see [`interleave`]) into one program.
fn interleave_programs(parts: &[&SubProgram]) -> (SubProgram, Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let pots: Vec<&[GroundPotential]> = parts.iter().map(|b| &b.0[..]).collect();
    let cons: Vec<&[GroundConstraint]> = parts.iter().map(|b| &b.1[..]).collect();
    let (potentials, pot_index) = interleave(&pots, |p| &mut p.expr);
    let (constraints, con_index) = interleave(&cons, |c| &mut c.expr);
    ((potentials, constraints), pot_index, con_index)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Solving a program made of disjoint sub-programs (interleaved
    /// variable ids and term order) gives every block-sized sub-program
    /// exactly the value and dual bits it gets when solved alone, and the
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
        let ((potentials, constraints), pot_index, con_index) = interleave_programs(&parts);
        let cfg = AdmmConfig {
            threads: 1,
            parallel_threshold: 0, // engage the parallel path at any size
            shard_slots: 3,        // several shards per block
            max_iterations: 400,
            ..AdmmConfig::default()
        };
        let solver = AdmmSolver::new(&potentials, &constraints, BLOCK_VARS * k);
        let (whole, duals) = solver.solve_warm(&cfg, WarmStart::default());

        // Each block-sized part alone, then the tiny parts as one program:
        // (values, duals, merged-program ids of its variables and terms).
        let tiny_parts: Vec<&SubProgram> = tiny.iter().collect();
        let ((tiny_pots, tiny_cons), tiny_pot_index, tiny_con_index) =
            interleave_programs(&tiny_parts);
        let mut expected = Vec::new();
        for (b, (bp, bc)) in blocks.iter().enumerate() {
            let alone = AdmmSolver::new(bp, bc, BLOCK_VARS).solve_warm(&cfg, WarmStart::default());
            let vars: Vec<usize> = (0..BLOCK_VARS).map(|i| i * k + b).collect();
            expected.push((alone, vars, pot_index[b].clone(), con_index[b].clone()));
        }
        if !tiny.is_empty() {
            let t = tiny.len();
            let alone = AdmmSolver::new(&tiny_pots, &tiny_cons, BLOCK_VARS * t)
                .solve_warm(&cfg, WarmStart::default());
            // Tiny part j's variable i sits at i·t + j alone and at
            // i·k + (blocks + j) in the whole program.
            let mut vars = vec![usize::MAX; BLOCK_VARS * t];
            let (mut pots, mut cons) = (vec![0; tiny_pots.len()], vec![0; tiny_cons.len()]);
            for j in 0..t {
                for i in 0..BLOCK_VARS {
                    vars[i * t + j] = i * k + blocks.len() + j;
                }
                for (a, &m) in tiny_pot_index[j].iter().zip(&pot_index[blocks.len() + j]) {
                    pots[*a] = m;
                }
                for (a, &m) in tiny_con_index[j].iter().zip(&con_index[blocks.len() + j]) {
                    cons[*a] = m;
                }
            }
            expected.push((alone, vars, pots, cons));
        }

        let (mut iterations, mut components, mut updates, mut converged) = (0, 0, 0, true);
        for ((alone, alone_duals), vars, pots, cons) in &expected {
            iterations = iterations.max(alone.iterations);
            components += alone.components;
            updates += alone.term_updates;
            converged &= alone.converged;
            for (i, &v) in vars.iter().enumerate() {
                prop_assert_eq!(whole.values[v].to_bits(), alone.values[i].to_bits(),
                    "variable {}", v);
            }
            for (j, &m) in pots.iter().enumerate() {
                prop_assert_eq!(&duals.potential_duals()[m], &alone_duals.potential_duals()[j],
                    "potential {}", m);
            }
            for (j, &m) in cons.iter().enumerate() {
                prop_assert_eq!(&duals.constraint_duals()[m], &alone_duals.constraint_duals()[j],
                    "constraint {}", m);
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

    // -----------------------------------------------------------------
    // Delta regrounding vs full grounding over random mutation sequences.
    // -----------------------------------------------------------------

    /// One random database mutation (see `apply_op`): kind, predicate
    /// coin, two symbol picks, one value pick.
    type MutOp = (u8, bool, u32, u32, u32);

    fn arb_ops() -> impl Strategy<Value = Vec<MutOp>> {
        prop::collection::vec((0u8..5, any::<bool>(), 0u32..6, 0u32..6, 0u32..=10), 1..16)
    }

    /// Apply one mutation to the program's database: (re-)observations of
    /// the closed preds 0/1 (adds, value changes, and exact no-ops), new
    /// targets on the open preds 2/3, and retractions of pooled atoms.
    fn apply_op(program: &mut cms_psl::Program, op: MutOp) {
        let (kind, wide, a, b, v) = op;
        let value = f64::from(v) / 10.0;
        match kind {
            0 => {
                // Observe (new, changed, or unchanged) on pred 0 or 1.
                let atom = if wide {
                    GroundAtom::from_strs(PredId(1), &[&sym_pool(a), &sym_pool(b)])
                } else {
                    GroundAtom::from_strs(PredId(0), &[&sym_pool(a)])
                };
                program.db.observe(atom, value);
            }
            1 => {
                // Re-observe an existing pooled atom (forces Changed/no-op
                // entries on atoms the prior grounding actually used).
                let pred = PredId(u32::from(wide));
                let pool = program.db.atoms_of(pred).to_vec();
                if !pool.is_empty() {
                    let atom = pool[a as usize % pool.len()].clone();
                    program.db.observe(atom, value);
                }
            }
            2 => {
                let atom = if wide {
                    GroundAtom::from_strs(PredId(3), &[&sym_pool(a), &sym_pool(b)])
                } else {
                    GroundAtom::from_strs(PredId(2), &[&sym_pool(a)])
                };
                program.db.target(atom);
            }
            3 => {
                // Retract a pooled observed atom, if any.
                let pred = PredId(u32::from(wide));
                let pool = program.db.atoms_of(pred).to_vec();
                if !pool.is_empty() {
                    let atom = pool[a as usize % pool.len()].clone();
                    program.db.retract(&atom);
                }
            }
            _ => {
                // Retract a pooled target atom, if any.
                let pred = PredId(2 + u32::from(wide));
                let pool = program.db.atoms_of(pred).to_vec();
                if !pool.is_empty() {
                    let atom = pool[a as usize % pool.len()].clone();
                    program.db.retract(&atom);
                }
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
        /// iterates, same iteration count, same objective bits — for cold
        /// solves and for warm solves resumed from consensus + duals. The
        /// shard structure depends only on the problem (here forced to be
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
            let (base, base_duals) = ground.solve_warm_dual(&cfg, &[], None);
            let (base_resumed, _) =
                ground.solve_warm_dual(&cfg, &base.admm.values, Some(&base_duals));
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
                // Warm resume (consensus + duals) must be identical too.
                let (resumed, _) =
                    ground.solve_warm_dual(&tcfg, &base.admm.values, Some(&base_duals));
                prop_assert_eq!(resumed.admm.iterations, base_resumed.admm.iterations,
                    "warm iteration count diverged at threads={}", threads);
                for (v, (a, b)) in base_resumed
                    .admm
                    .values
                    .iter()
                    .zip(resumed.admm.values.iter())
                    .enumerate()
                {
                    prop_assert_eq!(a.to_bits(), b.to_bits(),
                        "warm iterate bits diverged at threads={} var={}", threads, v);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `reground(delta)` after any mutation sequence describes exactly
        /// the HL-MRF a fresh `ground()` builds — chained: each step
        /// regrounds the *previous* increment, never a fresh baseline.
        #[test]
        fn reground_equals_full_ground_over_mutation_sequences(
            db in arb_db(),
            rules in prop::collection::vec(arb_rule(), 1..4),
            ops in arb_ops(),
        ) {
            let mut program = cms_psl::Program::new(vocab_for_arities());
            program.db = db;
            for rule in rules {
                program.add_rule(rule);
            }
            let mut prior = program.ground().unwrap();
            let _ = program.db.take_delta();
            for op in ops {
                apply_op(&mut program, op);
                let delta = program.db.take_delta();
                prior = program.reground_owned(prior, &delta).unwrap();
                let fresh = program.ground().unwrap();
                prop_assert_eq!(prior.canonical_terms(), fresh.canonical_terms());
                prop_assert!((prior.constant_loss - fresh.constant_loss).abs() < 1e-9,
                    "constant loss {} vs {}", prior.constant_loss, fresh.constant_loss);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A whole mutation batch drained as ONE coalesced delta (adds,
        /// changes, retractions — including injected cancelling pairs that
        /// must net out before the regrounder sees them) regrounds to
        /// exactly the HL-MRF a fresh `ground()` builds, chained across
        /// batches over programs with logical *and* arithmetic rules.
        #[test]
        fn batched_reground_equals_full_ground_over_mutation_batches(
            db in arb_db(),
            rules in prop::collection::vec(arb_rule(), 1..4),
            arith in arb_arith_rule(),
            ops in arb_ops(),
            batch in 2usize..6,
            cancel in any::<bool>(),
        ) {
            let mut program = cms_psl::Program::new(vocab_for_arities());
            program.db = db;
            for rule in rules {
                program.add_rule(rule);
            }
            program.add_arith_rule(arith);
            let mut prior = program.ground().unwrap();
            let _ = program.db.take_delta();
            for chunk in ops.chunks(batch) {
                for &op in chunk {
                    apply_op(&mut program, op);
                }
                if cancel {
                    // Fold an a→b→a round-trip into the batch: two raw
                    // entries with zero net effect.
                    let pool = program.db.atoms_of(PredId(0)).to_vec();
                    if let Some(atom) = pool.first() {
                        let old = program.db.observed_value(atom).unwrap();
                        program.db.observe(atom.clone(), old + 0.05);
                        program.db.observe(atom.clone(), old);
                    }
                }
                let delta = program.db.take_delta();
                prop_assert!(delta.len() <= delta.raw_entries(),
                    "coalescing can only shrink: {} net vs {} raw",
                    delta.len(), delta.raw_entries());
                prior = program.reground_owned(prior, &delta).unwrap();
                let fresh = program.ground().unwrap();
                prop_assert_eq!(prior.canonical_terms(), fresh.canonical_terms());
                prop_assert!((prior.constant_loss - fresh.constant_loss).abs() < 1e-9,
                    "constant loss {} vs {}", prior.constant_loss, fresh.constant_loss);
            }
        }
    }

    // -----------------------------------------------------------------
    // Arithmetic splice tables: random arith rules + mutation sequences.
    // -----------------------------------------------------------------

    /// A random arithmetic term: a handful of closed-predicate atoms plus
    /// at most one open-predicate atom, so every product stays linear in
    /// the MAP variables regardless of the database.
    fn arb_arith_term() -> impl Strategy<Value = cms_psl::ArithTerm> {
        use cms_psl::ArithTerm;
        let closed_atom = (0u32..2, prop::collection::vec((any::<bool>(), 0u32..4), 2));
        let open_atom = (2u32..4, prop::collection::vec((any::<bool>(), 0u32..4), 2));
        (
            -20i32..=20,
            prop::collection::vec(closed_atom, 0..=2),
            prop::option::of(open_atom),
        )
            .prop_map(|(coef, mut closed, open)| {
                if closed.is_empty() && open.is_none() {
                    // A term needs at least one atom; fall back to p0(s0).
                    closed.push((0, vec![(false, 0), (false, 0)]));
                }
                let var_name = |i: u32| format!("V{}", i % 3);
                let atom = |(p, picks): (u32, Vec<(bool, u32)>)| {
                    let args: Vec<RTerm> = picks
                        .into_iter()
                        .take(ARITIES[p as usize])
                        .map(|(is_var, x)| {
                            if is_var {
                                RTerm::Var(var_name(x))
                            } else {
                                cms_psl::rconst(&sym_pool(x % 6))
                            }
                        })
                        .collect();
                    RAtom {
                        pred: PredId(p),
                        args,
                    }
                };
                let atoms: Vec<RAtom> =
                    closed.into_iter().map(atom).chain(open.map(atom)).collect();
                ArithTerm {
                    coef: f64::from(coef) / 10.0,
                    atoms,
                }
            })
    }

    /// A random, *valid* arithmetic rule: the summation variable (if any)
    /// is picked from the variables the terms actually use, so the rule
    /// passes the builder's validation by construction.
    fn arb_arith_rule() -> impl Strategy<Value = cms_psl::ArithRule> {
        use cms_psl::{ArithRule, Comparison};
        (
            prop::collection::vec(arb_arith_term(), 1..=2),
            -10i32..=10,                 // constant ×0.1
            0u32..3,                     // comparison
            prop::option::of(0u32..=8),  // weight ×0.5
            any::<bool>(),               // squared
            prop::option::of(0usize..4), // sum-var pick
        )
            .prop_map(|(terms, constant, cmp, weight, squared, sum_pick)| {
                let used: Vec<String> = {
                    let mut v: Vec<String> = Vec::new();
                    for t in terms.iter().flat_map(|t| &t.atoms) {
                        for a in &t.args {
                            if let RTerm::Var(name) = a {
                                if !v.contains(name) {
                                    v.push(name.clone());
                                }
                            }
                        }
                    }
                    v
                };
                let sum_vars = match sum_pick {
                    Some(i) if !used.is_empty() => vec![used[i % used.len()].clone()],
                    _ => Vec::new(),
                };
                ArithRule {
                    name: "rand-arith".into(),
                    terms,
                    constant: f64::from(constant) / 10.0,
                    comparison: match cmp {
                        0 => Comparison::LeqZero,
                        1 => Comparison::EqZero,
                        _ => Comparison::GeqZero,
                    },
                    weight: weight.map(|w| f64::from(w) * 0.5),
                    squared,
                    sum_vars,
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The arithmetic splice tables: regrounding through any mutation
        /// sequence over programs with random arithmetic rules (value
        /// re-weights re-fold single bindings, pool mutations diff the
        /// binding set) stays equivalent to a fresh grounding, chained
        /// across the whole sequence.
        #[test]
        fn arith_reground_equals_full_ground_over_mutation_sequences(
            db in arb_db(),
            rule in arb_rule(),
            arith in prop::collection::vec(arb_arith_rule(), 1..=2),
            ops in arb_ops(),
        ) {
            let mut program = cms_psl::Program::new(vocab_for_arities());
            program.db = db;
            program.add_rule(rule);
            for r in arith {
                program.add_arith_rule(r);
            }
            let mut prior = program.ground().unwrap();
            let _ = program.db.take_delta();
            let mut spliced_total = 0usize;
            for op in ops {
                apply_op(&mut program, op);
                let delta = program.db.take_delta();
                prior = program.reground_owned(prior, &delta).unwrap();
                let fresh = program.ground().unwrap();
                prop_assert_eq!(prior.canonical_terms(), fresh.canonical_terms());
                prop_assert!((prior.constant_loss - fresh.constant_loss).abs() < 1e-9,
                    "constant loss {} vs {}", prior.constant_loss, fresh.constant_loss);
                spliced_total += prior.total_stats().arith_bindings_spliced;
            }
            // Not every random rule grounds bindings, but the counter must
            // never be touched by full grounds.
            prop_assert_eq!(program.ground().unwrap().total_stats().arith_bindings_spliced, 0);
            let _ = spliced_total;
        }
    }

    // -----------------------------------------------------------------
    // Delta-guard invariants: stale, foreign, and double-drained deltas
    // are rejected with `StateMismatch`; the documented fallback (a
    // fresh ground) matches a from-scratch grounding and re-arms the
    // incremental path.
    // -----------------------------------------------------------------

    use cms_psl::RegroundError;

    fn guard_program(db: Database, rules: &[LogicalRule]) -> cms_psl::Program {
        let mut program = cms_psl::Program::new(vocab_for_arities());
        program.db = db;
        for rule in rules {
            program.add_rule(rule.clone());
        }
        program
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Applying the same delta twice is a state mismatch the second
        /// time: the first splice advanced the prior's stamp past the
        /// delta's base generation.
        #[test]
        fn double_drained_delta_is_rejected(
            db in arb_db(),
            rules in prop::collection::vec(arb_rule(), 1..4),
            ops in arb_ops(),
        ) {
            let mut program = guard_program(db, &rules);
            let prior = program.ground().unwrap();
            let _ = program.db.take_delta();
            for op in ops {
                apply_op(&mut program, op);
            }
            let delta = program.db.take_delta();
            if delta.is_empty() {
                // prop_assume: no generation span to guard (shim has no prop_assume)
                return;
            }
            let next = program.reground_owned(prior, &delta).unwrap();
            let err = program.reground_owned(next, &delta).unwrap_err();
            prop_assert!(
                matches!(err, RegroundError::StateMismatch { .. }),
                "double-drained delta must be a StateMismatch, got {}", err
            );
        }

        /// A delta that starts *past* the prior's stamp (an intermediate
        /// drain was lost) is rejected instead of spliced over the gap.
        #[test]
        fn delta_skipping_a_generation_is_rejected(
            db in arb_db(),
            rules in prop::collection::vec(arb_rule(), 1..4),
            ops in arb_ops(),
        ) {
            let mut program = guard_program(db, &rules);
            let prior = program.ground().unwrap();
            let _ = program.db.take_delta();
            for op in ops {
                apply_op(&mut program, op);
            }
            let lost = program.db.take_delta();
            if lost.is_empty() {
                // prop_assume: no generation span to guard (shim has no prop_assume)
                return;
            }
            // One more mutation after the lost drain: its delta's base
            // generation is newer than the prior's stamp.
            program
                .db
                .observe(GroundAtom::from_strs(PredId(0), &["guard-new"]), 0.5);
            let late = program.db.take_delta();
            let err = program.reground_owned(prior, &late).unwrap_err();
            prop_assert!(
                matches!(err, RegroundError::StateMismatch { .. }),
                "generation-skipping delta must be a StateMismatch, got {}", err
            );
        }

        /// A delta drained from a *different* database — even a clone with
        /// identical content and generation numbers — is rejected on
        /// database identity, never spliced.
        #[test]
        fn foreign_database_delta_is_rejected(
            db in arb_db(),
            rules in prop::collection::vec(arb_rule(), 1..4),
        ) {
            let mut program = guard_program(db.clone(), &rules);
            let prior = program.ground().unwrap();
            let _ = program.db.take_delta();
            // An identical twin: same content and generation history, but
            // cloning mints a fresh database identity.
            let mut twin = guard_program(db, &rules);
            let _ = twin.ground().unwrap();
            let _ = twin.db.take_delta();
            twin.db
                .observe(GroundAtom::from_strs(PredId(0), &["twin-only"]), 0.4);
            let foreign = twin.db.take_delta();
            let err = program.reground_owned(prior, &foreign).unwrap_err();
            prop_assert!(
                matches!(err, RegroundError::StateMismatch { .. }),
                "foreign delta must be a StateMismatch, got {}", err
            );
        }

        /// The ladder's answer to a guard rejection — a fresh ground —
        /// describes exactly the HL-MRF a from-scratch build describes,
        /// and its new stamp re-arms the incremental path.
        #[test]
        fn fallback_fresh_ground_equals_from_scratch(
            db in arb_db(),
            rules in prop::collection::vec(arb_rule(), 1..4),
            ops in arb_ops(),
        ) {
            let mut program = guard_program(db, &rules);
            let prior = program.ground().unwrap();
            let _ = program.db.take_delta();
            for op in ops {
                apply_op(&mut program, op);
            }
            let delta = program.db.take_delta();
            if delta.is_empty() {
                // prop_assume: no generation span to guard (shim has no prop_assume)
                return;
            }
            let next = program.reground_owned(prior, &delta).unwrap();
            // A stale re-apply trips the guard …
            prop_assert!(program.reground_owned(next, &delta).is_err());
            // … and the fallback fresh ground equals a from-scratch build
            // of the same (mutated) database.
            let fallback = program.ground().unwrap();
            let reference = guard_program(program.db.clone(), &rules).ground().unwrap();
            prop_assert_eq!(fallback.canonical_terms(), reference.canonical_terms());
            prop_assert!(
                (fallback.constant_loss - reference.constant_loss).abs() < 1e-9,
                "constant loss {} vs {}", fallback.constant_loss, reference.constant_loss
            );
            // The fallback is freshly stamped: the next delta splices.
            program
                .db
                .observe(GroundAtom::from_strs(PredId(0), &["after-fallback"]), 0.7);
            let tail = program.db.take_delta();
            prop_assert!(program.reground_owned(fallback, &tail).is_ok());
        }
    }
}
