//! Criterion bench: consensus-ADMM solve cost on `all_primitives(4)`-scale
//! ground programs — isolates the inference engine from grounding and
//! breaks the iteration into its **local** and **consensus** phases.
//!
//! Three solve variants run a fixed iteration budget (tolerances zeroed so
//! every variant pays exactly the same number of iterations):
//!
//! * `solve-reference` — a faithful reimplementation of the seed solver's
//!   iteration (per-term `Vec` copies, a fresh `sums` allocation and three
//!   separate sweeps per consensus step) timed per phase;
//! * `solve-serial` — the sharded solver at `threads = 1`;
//! * `solve-threads4` — the sharded solver at `threads = 4` (bit-identical
//!   results; wall-clock speedup shows up on multi-core hosts).
//!
//! The `ap4` problem is the collective PSL program
//! (`PslCollective::compile`) of the unreduced `all_primitives(4)` model,
//! 40 rows, 25% noise, seed 3.
//!
//! `solve/ds100` times the production PSL program of the benchmark's
//! `data-scale` point (`PslCollective::build_program` on the preprocessed
//! model of `all_primitives(4)`, 100 rows, 25% noise, seed 7) solved to
//! convergence with the default configuration — each independent
//! component stops on its own residual. It is timed sample-interleaved
//! with three variants of the same solve that differ only in the
//! self-healing watchdog being armed (`solve-watchdog`) and in the
//! telemetry level (`solve-obs-stats`: `stats`; `solve-ring`: the full
//! flight recorder). CI gates their clean-path overhead against
//! `solve/ds100` with `bench_gate --ratio`.
//!
//! Beyond the criterion timings, the bench emits extra JSON lines in the
//! same format for the phase breakdown (`consensus-*`, `local-*`, per
//! iteration) and for the work of the `ds100` solve (`work/ds100`: Σ over
//! blocks of iterations × terms) — a count, not nanoseconds. All lines
//! are gated against `BENCH_admm_baseline.json` by `bench_gate` in CI.

use cms_ibench::{generate, NoiseConfig, ScenarioConfig};
use cms_psl::{AdmmConfig, AdmmSolution, AdmmSolver, ConstraintKind, GroundProgram, LinExpr};
use cms_select::{preprocess, CompiledProgram, CoverageModel, ObjectiveWeights, PslCollective};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::{Duration, Instant};

/// `cargo test` runs bench targets with `--test`: shrink everything.
fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--quick")
}

/// The `ap4` problem: the compiled PSL program of the unreduced
/// `all_primitives(invocations)` model, uniform 25% noise, seed 3.
fn scenario_program(invocations: usize, rows: usize) -> CompiledProgram {
    let config = ScenarioConfig {
        rows_per_relation: rows,
        noise: NoiseConfig::uniform(25.0),
        seed: 3,
        ..ScenarioConfig::all_primitives(invocations)
    };
    let scenario = generate(&config);
    let model = CoverageModel::build(&scenario.source, &scenario.target, &scenario.candidates);
    PslCollective::default().compile(&model, &ObjectiveWeights::unweighted())
}

/// Solve a compiled program with `config`.
fn solve(program: &CompiledProgram, config: &AdmmConfig) -> AdmmSolution {
    AdmmSolver::new(&program.potentials, &program.constraints, program.num_vars).solve(config)
}

/// The ground PSL program `PslCollective` solves on the `data-scale`
/// point: `all_primitives(4)`, uniform 25% noise, seed 7, preprocessed.
fn data_scale_program(rows: usize) -> GroundProgram {
    let scenario = generate(&ScenarioConfig {
        rows_per_relation: rows,
        noise: NoiseConfig::uniform(25.0),
        seed: 7,
        ..ScenarioConfig::all_primitives(4)
    });
    let model = CoverageModel::build(&scenario.source, &scenario.target, &scenario.candidates);
    let (reduced, _) = preprocess(&model);
    let (program, _) =
        PslCollective::default().build_program(&reduced, &ObjectiveWeights::unweighted());
    program.ground().expect("PSL program grounds")
}

/// Fixed-iteration config: a *negative* absolute tolerance makes the
/// convergence test unsatisfiable (this program hits an exact fixed point
/// within a handful of iterations, so even zero tolerances would stop
/// early), forcing exactly `iters` iterations — timing differences are
/// per-iteration cost, not convergence luck.
fn fixed_cfg(threads: usize, iters: usize) -> AdmmConfig {
    AdmmConfig {
        threads,
        parallel_threshold: 0,
        eps_abs: -1.0,
        eps_rel: 0.0,
        max_iterations: iters,
        ..AdmmConfig::default()
    }
}

/// Emit one machine-readable line in the criterion-shim format so
/// `bench_gate` can pick it up alongside the real criterion output.
fn emit(group: &str, id: &str, samples: &[f64]) {
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    println!("bench: {group}/{id} ... {mean:.0} ns/iter (min {min:.0})");
    println!("{{\"bench\":\"{group}/{id}\",\"mean_ns\":{mean:.1},\"min_ns\":{min:.1}}}");
}

// ---------------------------------------------------------------------------
// Reference iteration: the seed solver's data layout and three-sweep
// consensus, kept here so the fused sharded step has a measurable baseline
// even on single-core hosts.
// ---------------------------------------------------------------------------

enum RefKind {
    Potential { weight: f64, squared: bool },
    Constraint { equality: bool },
}

struct RefTerm {
    vars: Vec<usize>,
    coefs: Vec<f64>,
    constant: f64,
    coef_norm_sq: f64,
    kind: RefKind,
    y: Vec<f64>,
    u: Vec<f64>,
}

struct RefSolver {
    terms: Vec<RefTerm>,
    counts: Vec<usize>,
    z: Vec<f64>,
}

impl RefSolver {
    fn new(program: &CompiledProgram) -> RefSolver {
        let n = program.num_vars;
        let mut terms: Vec<RefTerm> = Vec::new();
        let push = |terms: &mut Vec<RefTerm>, expr: &LinExpr, kind: RefKind| {
            terms.push(RefTerm {
                vars: expr.terms.iter().map(|&(v, _)| v).collect(),
                coefs: expr.terms.iter().map(|&(_, c)| c).collect(),
                constant: expr.constant,
                coef_norm_sq: expr.coef_norm_sq(),
                kind,
                y: vec![0.5; expr.terms.len()],
                u: vec![0.0; expr.terms.len()],
            });
        };
        for p in &program.potentials {
            push(
                &mut terms,
                &p.expr,
                RefKind::Potential {
                    weight: p.weight,
                    squared: p.squared,
                },
            );
        }
        for c in &program.constraints {
            push(
                &mut terms,
                &c.expr,
                RefKind::Constraint {
                    equality: c.kind == ConstraintKind::EqZero,
                },
            );
        }
        let mut counts = vec![0usize; n];
        for t in &terms {
            for &v in &t.vars {
                counts[v] += 1;
            }
        }
        RefSolver {
            terms,
            counts,
            z: vec![0.5; n],
        }
    }

    /// One seed-style iteration; returns (local_ns, consensus_ns).
    fn iterate(&mut self, rho: f64) -> (f64, f64) {
        let t0 = Instant::now();
        for t in &mut self.terms {
            for (i, &v) in t.vars.iter().enumerate() {
                t.y[i] = self.z[v] - t.u[i];
            }
            let s = t.constant
                + t.coefs
                    .iter()
                    .zip(t.y.iter())
                    .map(|(c, v)| c * v)
                    .sum::<f64>();
            let factor = match t.kind {
                RefKind::Constraint { equality } => {
                    if (equality || s > 0.0) && t.coef_norm_sq > 0.0 {
                        s / t.coef_norm_sq
                    } else {
                        0.0
                    }
                }
                RefKind::Potential { weight, squared } => {
                    if s <= 0.0 {
                        0.0
                    } else if squared {
                        2.0 * weight * s / (rho + 2.0 * weight * t.coef_norm_sq)
                    } else {
                        let s_after = s - (weight / rho) * t.coef_norm_sq;
                        if s_after >= 0.0 {
                            weight / rho
                        } else if t.coef_norm_sq > 0.0 {
                            s / t.coef_norm_sq
                        } else {
                            0.0
                        }
                    }
                }
            };
            if factor != 0.0 {
                for (y, c) in t.y.iter_mut().zip(t.coefs.iter()) {
                    *y -= factor * c;
                }
            }
        }
        let t1 = Instant::now();
        // Seed consensus: fresh sums allocation + rebuild of z + separate
        // dual/residual sweep.
        let n = self.z.len();
        let z_old = std::mem::take(&mut self.z);
        let mut sums = vec![0.0f64; n];
        for t in &self.terms {
            for (i, &v) in t.vars.iter().enumerate() {
                sums[v] += t.y[i] + t.u[i];
            }
        }
        self.z = (0..n)
            .map(|v| {
                if self.counts[v] == 0 {
                    z_old[v]
                } else {
                    (sums[v] / self.counts[v] as f64).clamp(0.0, 1.0)
                }
            })
            .collect();
        let mut primal_sq = 0.0f64;
        let mut y_norm_sq = 0.0f64;
        let mut z_norm_sq = 0.0f64;
        for t in &mut self.terms {
            for (i, &v) in t.vars.iter().enumerate() {
                let diff = t.y[i] - self.z[v];
                t.u[i] += diff;
                primal_sq += diff * diff;
                y_norm_sq += t.y[i] * t.y[i];
                z_norm_sq += self.z[v] * self.z[v];
            }
        }
        let mut dual_sq = 0.0f64;
        for (v, old) in z_old.iter().enumerate().take(n) {
            let d = self.z[v] - old;
            dual_sq += self.counts[v] as f64 * d * d;
        }
        std::hint::black_box((primal_sq, y_norm_sq, z_norm_sq, dual_sq));
        let t2 = Instant::now();
        ((t1 - t0).as_nanos() as f64, (t2 - t1).as_nanos() as f64)
    }
}

fn bench_admm(c: &mut Criterion) {
    let quick = test_mode();
    let (rows, iters, runs) = if quick { (6, 5, 1) } else { (40, 60, 5) };
    let ap4 = scenario_program(4, rows);
    eprintln!(
        "admm bench: ap4 rows={} -> {} vars, {} potentials, {} constraints",
        rows,
        ap4.num_vars,
        ap4.potentials.len(),
        ap4.constraints.len()
    );

    let mut group = c.benchmark_group("admm");
    group.sample_size(10);
    // Fixed-iteration whole-solve timings: reference vs sharded serial vs
    // sharded 4-thread (identical arithmetic, identical results).
    group.bench_with_input(BenchmarkId::new("solve-reference", "ap4"), &(), |b, ()| {
        b.iter(|| {
            let mut rs = RefSolver::new(&ap4);
            for _ in 0..iters {
                rs.iterate(1.0);
            }
            std::hint::black_box(rs.z[0])
        });
    });
    group.bench_with_input(BenchmarkId::new("solve-serial", "ap4"), &(), |b, ()| {
        b.iter(|| std::hint::black_box(solve(&ap4, &fixed_cfg(1, iters)).iterations));
    });
    group.bench_with_input(BenchmarkId::new("solve-threads4", "ap4"), &(), |b, ()| {
        b.iter(|| std::hint::black_box(solve(&ap4, &fixed_cfg(4, iters)).iterations));
    });

    // The production PSL solve to convergence, each block to its own
    // residual, next to the same solve with the watchdog armed and with
    // telemetry on. No fault ever fires, so the set isolates pure
    // bookkeeping cost; CI gates `watchdog/plain ≤ 1.05`,
    // `obs-stats/plain ≤ 1.02` and `ring/plain ≤ 1.02` via
    // `bench_gate --ratio`. The ratios compare same-run medians at a few
    // percent of resolution, so the set is measured with
    // `bench_interleaved`: each sample round times one burst of every
    // variant in turn (each body sets its own telemetry override), so
    // CPU-frequency drift and noisy scheduling windows are charged to all
    // lines roughly equally.
    let ds = data_scale_program(if quick { 10 } else { 100 });
    let ds_cfg = AdmmConfig {
        threads: 1,
        ..AdmmConfig::default()
    };
    let ds_sol = ds.solve(&ds_cfg).admm;
    eprintln!(
        "admm bench: ds100 -> {} terms, {} blocks, {} iterations, converged {}",
        ds.potentials.len() + ds.constraints.len(),
        ds_sol.components,
        ds_sol.iterations,
        ds_sol.converged
    );
    let watchdog = AdmmConfig {
        stall_window: 1000,
        time_budget: Some(Duration::from_secs(60)),
        max_restarts: 2,
        ..ds_cfg.clone()
    };
    let variants = [
        ("solve", cms_obs::ObsLevel::Off, false, &ds_cfg),
        ("solve-watchdog", cms_obs::ObsLevel::Off, false, &watchdog),
        ("solve-obs-stats", cms_obs::ObsLevel::Stats, false, &ds_cfg),
        ("solve-ring", cms_obs::ObsLevel::Journal, true, &ds_cfg),
    ];
    let mut bodies: Vec<(BenchmarkId, Box<dyn FnMut() + '_>)> = Vec::new();
    for (name, level, ring, cfg) in variants {
        let ds = &ds;
        bodies.push((
            BenchmarkId::new(name, "ds100"),
            Box::new(move || {
                cms_obs::set_level_override(level);
                if ring {
                    // The flight-recorder line: journal events and spans
                    // land in a bounded ring (drop-oldest, so memory stays
                    // flat across the whole run) with the per-span CPU
                    // read disabled — the exact CI always-on
                    // configuration.
                    cms_obs::set_ring_capacity_override(Some(4096));
                    cms_obs::set_cpu_sampling_override(false);
                }
                let sol = ds.solve(cfg);
                assert!(sol.admm.health.is_nominal(), "clean path must stay nominal");
                std::hint::black_box(sol.admm.iterations);
            }),
        ));
    }
    group.sample_size(240);
    group.bench_interleaved(bodies);
    cms_obs::clear_level_override();
    cms_obs::clear_ring_capacity_override();
    cms_obs::clear_cpu_sampling_override();
    let _ = cms_obs::drain_journal_snapshot();
    let _ = cms_obs::drain_spans();
    group.finish();
    emit("admm", "work/ds100", &[ds_sol.term_updates as f64]);

    // Phase breakdown, per iteration: the fused sharded consensus pass vs
    // the seed's three-sweep consensus, plus the thread-scaling line.
    let mut ref_local = Vec::new();
    let mut ref_consensus = Vec::new();
    for _ in 0..runs {
        let mut rs = RefSolver::new(&ap4);
        let (mut l, mut cns) = (0.0, 0.0);
        for _ in 0..iters {
            let (a, b) = rs.iterate(1.0);
            l += a;
            cns += b;
        }
        ref_local.push(l / iters as f64);
        ref_consensus.push(cns / iters as f64);
    }
    emit("admm", "local-reference/ap4", &ref_local);
    emit("admm", "consensus-reference/ap4", &ref_consensus);
    for (id, threads) in [("serial", 1usize), ("threads4", 4)] {
        let mut local = Vec::new();
        let mut consensus = Vec::new();
        for _ in 0..runs {
            let sol = solve(&ap4, &fixed_cfg(threads, iters));
            local.push(sol.local_time.as_nanos() as f64 / sol.iterations as f64);
            consensus.push(sol.consensus_time.as_nanos() as f64 / sol.iterations as f64);
        }
        emit("admm", &format!("local-{id}/ap4"), &local);
        emit("admm", &format!("consensus-{id}/ap4"), &consensus);
    }
}

criterion_group!(benches, bench_admm);
criterion_main!(benches);
