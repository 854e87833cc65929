//! Experiment reproduction harness — one subcommand per table/figure of
//! the evaluation. Each subcommand's doc comment says what it reproduces;
//! the tables are deterministic, so reruns diff byte-identical apart from
//! the ms columns.
//!
//! ```text
//! cargo run --release -p cms-bench --bin experiments -- <ex0|ex1|...|ex9|all>
//! ```

use cms_bench::tables::{f1, f3};
use cms_bench::{average_outcomes, seeded_scenarios, standard_selectors, Table};
use cms_data::Instance;
use cms_ibench::{generate, NoiseConfig, Primitive, ScenarioConfig};
use cms_select::reduction::{closed_form_objective, is_cover_within_bound};
use cms_select::{
    build_reduction, BranchBound, CoverageModel, Greedy, Objective, ObjectiveWeights,
    PslCollective, Selector, SetCoverInstance,
};
use cms_tgd::parse_tgd;
use std::time::Instant;

const SEEDS: [u64; 3] = [11, 22, 33];

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    let start = Instant::now();
    match which.as_str() {
        "ex0" => ex0(),
        "ex1" => ex1(),
        "ex2" => ex2(),
        "ex3" => ex3(),
        "ex4" => ex4(),
        "ex5" => ex5(),
        "ex6" => ex6(),
        "ex7" => ex7(),
        "ex8" => ex8(),
        "ex9" => ex9(),
        "all" => {
            for f in [ex0 as fn(), ex1, ex2, ex3, ex4, ex5, ex6, ex7, ex8, ex9] {
                f();
                println!();
            }
        }
        other => {
            eprintln!("unknown experiment {other:?}; use ex0..ex9 or all");
            std::process::exit(2);
        }
    }
    eprintln!("[{} finished in {:.1?}]", which, start.elapsed());
}

fn quality_table(title: &str, points: Vec<(String, ScenarioConfig)>) {
    println!("## {title}\n");
    let mut table = Table::new(&[
        "point", "selector", "|M|", "F", "gold-F", "map-P", "map-R", "map-F1", "data-F1", "ms",
    ]);
    for (label, config) in points {
        let scenarios = seeded_scenarios(&config, &SEEDS);
        let rows = average_outcomes(
            &scenarios,
            &standard_selectors(),
            &ObjectiveWeights::unweighted(),
            true,
        );
        for r in rows {
            table.row(vec![
                label.clone(),
                r.selector.clone(),
                format!("{:.1}", r.selected),
                f1(r.objective),
                f1(r.gold_objective),
                f3(r.map_p),
                f3(r.map_r),
                f3(r.map_f1),
                f3(r.data_f1),
                format!("{:.0}", r.wall.as_secs_f64() * 1e3),
            ]);
        }
    }
    table.print();
}

/// EX0 — the appendix §I objective table, regenerated exactly.
fn ex0() {
    println!("## EX0 — appendix §I objective table (running example)\n");
    let mut src = cms_data::Schema::new("s");
    src.add_relation("proj", &["name", "code", "firm"]);
    src.add_relation("team", &["pcode", "emp"]);
    let mut tgt = cms_data::Schema::new("t");
    tgt.add_relation("task", &["pname", "emp", "oid"]);
    tgt.add_relation("org", &["oid", "firm"]);
    let theta1 = parse_tgd("proj(x,c,f) & team(c,e) -> task(x,e,o)", &src, &tgt).unwrap();
    let theta3 = parse_tgd(
        "proj(x,c,f) & team(c,e) -> task(x,e,o) & org(o,f)",
        &src,
        &tgt,
    )
    .unwrap();
    let mut i = Instance::new();
    i.insert_ground(src.rel_id("proj").unwrap(), &["BigData", "7", "IBM"]);
    i.insert_ground(src.rel_id("proj").unwrap(), &["ML", "9", "SAP"]);
    i.insert_ground(src.rel_id("team").unwrap(), &["7", "Bob"]);
    i.insert_ground(src.rel_id("team").unwrap(), &["9", "Alice"]);
    let mut j = Instance::new();
    j.insert_ground(tgt.rel_id("task").unwrap(), &["ML", "Alice", "111"]);
    j.insert_ground(tgt.rel_id("org").unwrap(), &["111", "SAP"]);
    j.insert_ground(tgt.rel_id("task").unwrap(), &["Web", "Carol", "333"]);
    j.insert_ground(tgt.rel_id("org").unwrap(), &["444", "Oracle"]);
    let model = CoverageModel::build(&i, &j, &[theta1, theta3]);
    let obj = Objective::new(&model, ObjectiveWeights::unweighted());
    let mut table = Table::new(&["M", "Σ 1−explains", "Σ error", "size", "Eq.(9)"]);
    for (label, sel) in [
        ("{}", vec![]),
        ("{θ1}", vec![0]),
        ("{θ3}", vec![1]),
        ("{θ1,θ3}", vec![0usize, 1]),
    ] {
        let (u, e, s) = obj.components(&sel);
        table.row(vec![
            label.into(),
            f3(u),
            format!("{e:.0}"),
            format!("{s:.0}"),
            f3(obj.value(&sel)),
        ]);
    }
    table.print();
    println!("\npaper values: 4 | 7 1/3 | 8 | 12  — must match row totals above.");
}

/// EX1 — Table I: scenario-generation parameters and resulting sizes.
fn ex1() {
    println!("## EX1 — Table I: scenario generation parameters\n");
    let config = ScenarioConfig::all_primitives(1);
    let mut params = Table::new(&["parameter", "value"]);
    params.row(vec![
        "primitives".into(),
        "CP, ADD, DL, ADL, ME, VP, VNM (×1 each)".into(),
    ]);
    params.row(vec![
        "add/remove range".into(),
        format!("{:?}", config.attr_change_range),
    ]);
    params.row(vec![
        "source arity range".into(),
        format!("{:?}", config.source_arity),
    ]);
    params.row(vec![
        "rows per relation".into(),
        config.rows_per_relation.to_string(),
    ]);
    params.row(vec![
        "value pool per column".into(),
        config.value_pool.to_string(),
    ]);
    params.row(vec![
        "πCorresp / πErrors / πUnexplained".into(),
        "sweep knobs (EX2–EX4)".into(),
    ]);
    params.print();

    let mut sizes = Table::new(&[
        "πCorresp",
        "src rels",
        "tgt rels",
        "corrs(true+noise)",
        "|C|",
        "|MG|",
        "|I|",
        "|J|",
    ]);
    for pi in [0.0, 50.0, 100.0] {
        let s = generate(&ScenarioConfig {
            noise: NoiseConfig {
                pi_corresp: pi,
                ..NoiseConfig::clean()
            },
            ..config.clone()
        })
        .stats;
        sizes.row(vec![
            format!("{pi:.0}%"),
            s.source_rels.to_string(),
            s.target_rels.to_string(),
            format!("{}+{}", s.true_corrs, s.noise_corrs),
            s.candidates.to_string(),
            s.gold_size.to_string(),
            s.source_tuples.to_string(),
            s.target_tuples.to_string(),
        ]);
    }
    println!();
    sizes.print();
}

/// EX2 — quality vs metadata noise (πCorresp sweep).
fn ex2() {
    let points = [0.0, 25.0, 50.0, 75.0, 100.0]
        .into_iter()
        .map(|pi| {
            (
                format!("πCorresp={pi:.0}%"),
                ScenarioConfig {
                    noise: NoiseConfig {
                        pi_corresp: pi,
                        pi_errors: 10.0,
                        pi_unexplained: 10.0,
                    },
                    ..ScenarioConfig::all_primitives(1)
                },
            )
        })
        .collect();
    quality_table("EX2 — quality vs metadata noise (πCorresp)", points);
}

/// EX3 — quality vs data noise: deleted gold tuples (πErrors sweep).
fn ex3() {
    let points = [0.0, 10.0, 25.0, 50.0]
        .into_iter()
        .map(|pi| {
            (
                format!("πErrors={pi:.0}%"),
                ScenarioConfig {
                    noise: NoiseConfig {
                        pi_corresp: 25.0,
                        pi_errors: pi,
                        pi_unexplained: 10.0,
                    },
                    ..ScenarioConfig::all_primitives(1)
                },
            )
        })
        .collect();
    quality_table("EX3 — quality vs data noise (πErrors)", points);
}

/// EX4 — quality vs data noise: added unexplained tuples (πUnexplained).
fn ex4() {
    let points = [0.0, 10.0, 25.0, 50.0]
        .into_iter()
        .map(|pi| {
            (
                format!("πUnexpl={pi:.0}%"),
                ScenarioConfig {
                    noise: NoiseConfig {
                        pi_corresp: 25.0,
                        pi_errors: 10.0,
                        pi_unexplained: pi,
                    },
                    ..ScenarioConfig::all_primitives(1)
                },
            )
        })
        .collect();
    quality_table("EX4 — quality vs data noise (πUnexplained)", points);
}

/// EX5 — per-primitive breakdown.
fn ex5() {
    let points = Primitive::ALL
        .into_iter()
        .map(|p| {
            (
                p.to_string(),
                ScenarioConfig {
                    noise: NoiseConfig::uniform(25.0),
                    ..ScenarioConfig::single_primitive(p, 2)
                },
            )
        })
        .collect();
    quality_table(
        "EX5 — per-primitive quality breakdown (uniform 25% noise)",
        points,
    );
}

/// EX6 — scalability: runtime vs scenario size, with the independent
/// components of each model (of its useful candidates) that
/// branch-and-bound searches one at a time. Every row must read "exact"
/// (CI checks it).
fn ex6() {
    println!("## EX6 — scalability (runtime vs #invocations)\n");
    let mut table = Table::new(&[
        "invocations",
        "|C|",
        "|J|",
        "components",
        "largest component",
        "ground terms",
        "admm iters",
        "psl ms",
        "greedy ms",
        "b&b ms",
        "b&b nodes",
        "b&b note",
    ]);
    for n in [1usize, 2, 4, 8, 16] {
        let config = ScenarioConfig {
            noise: NoiseConfig {
                pi_corresp: 50.0,
                pi_errors: 10.0,
                pi_unexplained: 10.0,
            },
            rows_per_relation: 15,
            seed: 5,
            ..ScenarioConfig::all_primitives(n)
        };
        let scenario = generate(&config);
        let model = CoverageModel::build(&scenario.source, &scenario.target, &scenario.candidates);
        let weights = ObjectiveWeights::unweighted();
        let useless = model.useless_candidates();
        let useful: Vec<usize> = (0..model.num_candidates)
            .filter(|c| !useless.contains(c))
            .collect();
        let components = model.components(&useful);
        let largest = components.iter().map(Vec::len).max().unwrap_or(0);

        let t0 = Instant::now();
        let psl = PslCollective::default()
            .select(&model, &weights)
            .expect("psl selects");
        let psl_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let _ = Greedy.select(&model, &weights).expect("greedy selects");
        let greedy_ms = t0.elapsed().as_secs_f64() * 1e3;

        let bb = BranchBound {
            node_budget: Some(2_000_000),
        };
        let t0 = Instant::now();
        let bb_sel = bb.select(&model, &weights).expect("bb selects");
        let bb_ms = t0.elapsed().as_secs_f64() * 1e3;

        table.row(vec![
            (7 * n).to_string(),
            scenario.candidates.len().to_string(),
            scenario.target.total_len().to_string(),
            components.len().to_string(),
            largest.to_string(),
            psl.telemetry.ground_terms.unwrap_or(0).to_string(),
            psl.telemetry.admm_iterations.to_string(),
            format!("{psl_ms:.0}"),
            format!("{greedy_ms:.0}"),
            format!("{bb_ms:.0}"),
            bb_sel.evaluations.to_string(),
            if bb_sel.note.is_empty() {
                "exact".into()
            } else {
                "budget hit".into()
            },
        ]);
    }
    table.print();
}

/// EX7 — the SET COVER reduction: exactness of search and relaxation.
fn ex7() {
    println!("## EX7 — NP-hardness construction (appendix §III)\n");
    let mut table = Table::new(&[
        "|U|",
        "sets",
        "n",
        "F(exact)",
        "F(psl)",
        "F(greedy)",
        "threshold 2n",
        "exact covers",
        "psl covers",
    ]);
    let families: Vec<SetCoverInstance> = vec![
        SetCoverInstance {
            universe: 4,
            sets: vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]],
            bound: 2,
        },
        SetCoverInstance {
            universe: 6,
            sets: vec![
                vec![0, 1],
                vec![1, 2],
                vec![2, 3],
                vec![3, 4],
                vec![4, 5],
                vec![5, 0],
            ],
            bound: 3,
        },
        // Greedy-adversarial family: a big set that is optimal plus decoys.
        SetCoverInstance {
            universe: 8,
            sets: vec![
                vec![0, 1, 2, 3],
                vec![4, 5, 6, 7],
                vec![0, 4],
                vec![1, 5],
                vec![2, 6],
                vec![3, 7],
            ],
            bound: 2,
        },
    ];
    for sc in &families {
        let red = build_reduction(sc);
        let model = CoverageModel::build(&red.source, &red.target, &red.candidates);
        let w = ObjectiveWeights::unweighted();
        let exact = BranchBound::default()
            .select(&model, &w)
            .expect("bb selects");
        let psl = PslCollective::default()
            .select(&model, &w)
            .expect("psl selects");
        let greedy = Greedy.select(&model, &w).expect("greedy selects");
        // Cross-check closed form.
        assert!((closed_form_objective(sc, &exact.selected) - exact.objective).abs() < 1e-9);
        table.row(vec![
            sc.universe.to_string(),
            sc.sets.len().to_string(),
            sc.bound.to_string(),
            f1(exact.objective),
            f1(psl.objective),
            f1(greedy.objective),
            f1(2.0 * sc.bound as f64),
            is_cover_within_bound(sc, &exact.selected).to_string(),
            is_cover_within_bound(sc, &psl.selected).to_string(),
        ]);
    }
    table.print();
}

/// EX8 — ablations: objective weights, hinge shape, rounding repair.
fn ex8() {
    println!("## EX8 — weight & rounding ablations (fixed noisy batch)\n");
    let base = ScenarioConfig {
        noise: NoiseConfig::uniform(25.0),
        ..ScenarioConfig::all_primitives(1)
    };
    let scenarios = seeded_scenarios(&base, &SEEDS);

    let mut table = Table::new(&["variant", "map-F1", "data-F1", "F", "gold-F"]);
    let mut run = |label: &str, selector: &dyn Selector, weights: ObjectiveWeights| {
        let rows = average_outcomes(&scenarios, &[], &weights, false);
        let _ = rows;
        let n = scenarios.len() as f64;
        let (mut f1m, mut f1d, mut fo, mut fg) = (0.0, 0.0, 0.0, 0.0);
        for s in &scenarios {
            let o = cms_select::evaluate_scenario(s, selector, &weights).expect("selector runs");
            f1m += o.mapping.f1 / n;
            f1d += o.data.f1 / n;
            fo += o.selection.objective / n;
            fg += o.gold_objective / n;
        }
        table.row(vec![
            label.into(),
            f3(f1m),
            f3(f1d),
            tables_f1(fo),
            tables_f1(fg),
        ]);
    };

    let unit = ObjectiveWeights::unweighted();
    run("w=(1,1,1) linear+repair", &PslCollective::default(), unit);
    run(
        "w=(1,1,1) linear, no repair",
        &PslCollective {
            greedy_repair: false,
            ..PslCollective::default()
        },
        unit,
    );
    run(
        "w=(1,1,1) squared hinges",
        &PslCollective {
            squared: true,
            ..PslCollective::default()
        },
        unit,
    );
    for (label, w) in [
        (
            "w1=2 (favour coverage)",
            ObjectiveWeights {
                w_explain: 2.0,
                w_error: 1.0,
                w_size: 1.0,
            },
        ),
        (
            "w2=2 (punish errors)",
            ObjectiveWeights {
                w_explain: 1.0,
                w_error: 2.0,
                w_size: 1.0,
            },
        ),
        (
            "w3=2 (punish size)",
            ObjectiveWeights {
                w_explain: 1.0,
                w_error: 1.0,
                w_size: 2.0,
            },
        ),
        (
            "w3=0.25 (cheap mappings)",
            ObjectiveWeights {
                w_explain: 1.0,
                w_error: 1.0,
                w_size: 0.25,
            },
        ),
    ] {
        run(label, &PslCollective::default(), w);
    }
    table.print();
}

fn tables_f1(x: f64) -> String {
    format!("{x:.1}")
}

/// EX9 — collective vs non-collective selection across a noise grid.
fn ex9() {
    println!("## EX9 — collective (PSL) vs independent per-candidate selection\n");
    let mut table = Table::new(&[
        "uniform noise",
        "independent map-F1",
        "psl map-F1",
        "Δ",
        "independent data-F1",
        "psl data-F1",
    ]);
    for pct in [0.0, 10.0, 25.0, 50.0] {
        let base = ScenarioConfig {
            noise: NoiseConfig::uniform(pct),
            ..ScenarioConfig::all_primitives(1)
        };
        let scenarios = seeded_scenarios(&base, &SEEDS);
        let w = ObjectiveWeights::unweighted();
        let n = scenarios.len() as f64;
        let (mut ind_m, mut psl_m, mut ind_d, mut psl_d) = (0.0, 0.0, 0.0, 0.0);
        for s in &scenarios {
            let oi = cms_select::evaluate_scenario(s, &cms_select::IndependentBaseline, &w)
                .expect("baseline runs");
            let op =
                cms_select::evaluate_scenario(s, &PslCollective::default(), &w).expect("psl runs");
            ind_m += oi.mapping.f1 / n;
            psl_m += op.mapping.f1 / n;
            ind_d += oi.data.f1 / n;
            psl_d += op.data.f1 / n;
        }
        table.row(vec![
            format!("{pct:.0}%"),
            f3(ind_m),
            f3(psl_m),
            f3(psl_m - ind_m),
            f3(ind_d),
            f3(psl_d),
        ]);
    }
    table.print();
}
