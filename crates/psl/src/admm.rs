//! Consensus-ADMM MAP inference for hinge-loss MRFs, with a **sharded,
//! deterministic** consensus step.
//!
//! This is the solver of Bach et al., "Hinge-Loss Markov Random Fields and
//! Probabilistic Soft Logic" (JMLR 2017): every ground potential and hard
//! constraint holds a *local copy* of the variables it touches; the local
//! subproblems have closed-form solutions (hinge prox operators and
//! hyperplane projections), and a consensus step averages copies and clips
//! to the `[0,1]` box.
//!
//! For each term with inner expression `ℓ(y) = b + aᵀy` and center
//! `c = z − u` (scaled dual form):
//!
//! * linear hinge `w·max(0,ℓ)`: if `ℓ(c) ≤ 0` take `y = c`; else try
//!   `y = c − (w/ρ)a`; if `ℓ(y) < 0` project `c` onto the hyperplane
//!   `ℓ = 0`.
//! * squared hinge `w·max(0,ℓ)²`: if `ℓ(c) ≤ 0` take `y = c`; else
//!   `y = c − (2w·ℓ(c) / (ρ + 2w‖a‖²))·a`.
//! * constraint `ℓ ≤ 0`: project onto the half-space; `ℓ = 0`: project
//!   onto the hyperplane.
//!
//! ## Sharded consensus
//!
//! The local step is embarrassingly parallel (each term owns its copies);
//! the naive consensus step — one reduction over *every* local copy — is
//! not, and becomes the serial bottleneck once the local step is spread
//! over workers. This solver shards it:
//!
//! * Variables are partitioned into **contiguous shards** balanced by copy
//!   count ([`AdmmConfig::shard_slots`] copies per shard). Shard boundaries
//!   depend only on the problem, never on the thread count.
//! * Every local copy ("slot") belongs to exactly one shard — the shard of
//!   its variable. The scaled duals `u` are stored **shard-major**, so each
//!   shard owns a contiguous dual range; the local copies `y` stay
//!   term-major for the local step.
//! * One **fused pass per shard** accumulates the per-variable sums
//!   `Σ(yᵢ + uᵢ)` in a shard-local buffer, writes the averaged-and-clipped
//!   consensus `z`, performs the dual update `u += y − z`, and gathers the
//!   primal/dual residual partials — one sweep instead of three.
//!
//! **Determinism.** Within a shard, slots are visited in ascending
//! term-major order — the exact order the single-threaded reduction used —
//! and every `z[v]`, `u` slot, and residual partial is written by exactly
//! one shard. Per-shard residual partials are merged in shard order on the
//! coordinating thread. Consequently the iterates, iteration counts, and
//! objectives are **bit-identical for every `threads` value** (a property
//! test enforces this at `threads ∈ {1, 2, 4, 7}`). Shared arrays are
//! plain `f64` bits in `AtomicU64`s (relaxed loads/stores, phase-separated
//! by barriers), which keeps the whole solver safe Rust.
//!
//! Workers are spawned **once per solve** and advance through the
//! local/consensus phases over `std::sync::Barrier`, so per-iteration
//! parallel overhead is a few barrier waits, not a thread spawn.
//!
//! ## Independent components
//!
//! Two terms interact only through a variable they share, so the
//! program's objective separates over the connected components of the
//! term–variable graph, and so does every ADMM step: a component's
//! local updates read only its own `z`/`u`, and its consensus averages
//! only its own copies. Iterating one component therefore never changes
//! another, and solving a set of components on its own is **exact** —
//! its iterates are bit-identical to solving those components as a
//! program by themselves. What one global solve adds is only its stopping
//! rule: one residual over all components keeps every component iterating
//! as long as the slowest.
//!
//! `build_workspace` finds the components (union-find over each
//! term's variables) and groups them into **blocks**: each component of
//! at least `MIN_BLOCK_TERMS` (16) terms is a block of its own, and all
//! smaller components form one block together. (An evaluation program
//! splits into about a thousand components of one to three terms, where
//! a residual test each costs more than it saves; the components of the
//! benchmark's PSL programs hold from about 15 to about 1000 terms.) Terms and variables
//! are laid out block-major — stable, blocks ordered by their smallest
//! variable, shards cut at block boundaries; with one block that is the
//! caller's order, so such a program solves exactly as before. Variables
//! in no term and terms without variables join block 0; they change no
//! iterate. One loop then iterates every block still running (the
//! parallel loop when the largest block reaches
//! [`AdmmConfig::parallel_threshold`]), and each block has its own
//! residual test over its own copies, its own iteration count,
//! stall/divergence watchdogs and restarts; a block that stops drops out
//! of the loop. The per-block outcomes merge into the one
//! [`AdmmSolution`] of the call, in the original variable order:
//!
//! * `values` are scattered back to the original variable ids;
//! * `iterations` is the maximum over blocks, `converged` holds only if
//!   every block converged, and `health` is the first non-`Converged`
//!   outcome in block order;
//! * `restarts`, `local_time`, `consensus_time` and `term_updates` are
//!   sums, and `components` counts the blocks;
//! * one [`AdmmConfig::time_budget`] deadline covers the whole call, and
//!   the solve is published to telemetry once per call.

use crate::hinge::{ConstraintKind, GroundConstraint, GroundPotential};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock, RwLock};
use std::thread;
use std::time::{Duration, Instant};

/// Solver configuration.
#[derive(Clone, Debug)]
pub struct AdmmConfig {
    /// Augmented-Lagrangian step size ρ.
    pub rho: f64,
    /// Iteration cap, per block (module docs).
    pub max_iterations: usize,
    /// Absolute tolerance (scaled by the block's size).
    pub eps_abs: f64,
    /// Relative tolerance.
    pub eps_rel: f64,
    /// Number of worker threads (1 = serial). Defaults to the
    /// `ADMM_THREADS` environment variable, or 1 when unset.
    pub threads: usize,
    /// Initial value for consensus variables.
    pub initial_value: f64,
    /// Residual-balancing ρ adaptation (Boyd et al. §3.4.1): when one
    /// residual dominates the other by more than 10×, scale ρ by 2 (and
    /// rescale the duals). Helps badly scaled programs; off by default to
    /// keep runs exactly reproducible against recorded numbers.
    pub adaptive_rho: bool,
    /// Minimum term count of the largest block before `threads > 1`
    /// actually engages the parallel path — small problems solve faster
    /// serially. Defaults to the `ADMM_PARALLEL_THRESHOLD` environment
    /// variable, or 512 when unset (the previously hard-coded value). Set
    /// to 0 to force the parallel path regardless of size (benches,
    /// determinism tests).
    pub parallel_threshold: usize,
    /// Target number of local copies per consensus shard. Shard boundaries
    /// are derived from the problem alone — never from `threads` — which
    /// is what makes results bit-identical across thread counts.
    pub shard_slots: usize,
    /// Stall watchdog: stop with [`SolveHealth::Stalled`] when the
    /// combined residual fails to improve on its best value for this many
    /// consecutive iterations. `0` (the default) disables the watchdog.
    /// Detection runs on the coordinating thread over the merged residual
    /// partials, so it is bit-identical across thread counts.
    pub stall_window: usize,
    /// Wall-clock budget for the whole solve, spanning blocks and
    /// restarts; checked once per iteration on the coordinating thread.
    /// When exceeded the solve stops with [`SolveHealth::TimedOut`] (never
    /// restarted). This is the one watchdog that is inherently *not*
    /// bit-identical across runs — leave it `None` (the default) where
    /// reproducibility matters.
    pub time_budget: Option<Duration>,
    /// Restarts attempted after a `Stalled` / `Diverged` outcome, per
    /// block. The first restart keeps the consensus iterate (scrubbed
    /// of non-finite entries), resets the duals, and doubles ρ; later
    /// restarts cold-reset the iterates at the original ρ. `0` (the
    /// default) reports the unhealthy outcome unchanged.
    pub max_restarts: usize,
}

/// Structured outcome of a solve — the watchdog-aware refinement of the
/// boolean `converged` flag.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SolveHealth {
    /// Both residuals dropped below tolerance.
    #[default]
    Converged,
    /// The iteration cap was reached without convergence — the historical
    /// non-converged outcome. Not necessarily a failure: e.g. infeasible
    /// programs legitimately settle on a compromise without converging.
    Capped,
    /// The combined residual made no progress for
    /// [`AdmmConfig::stall_window`] consecutive iterations (or a stall was
    /// injected by the fault harness).
    Stalled {
        /// Iteration at which the stall was detected.
        at: usize,
    },
    /// A non-finite value reached the residual aggregates. Any NaN/∞ in
    /// `y`, `z`, or `u` contaminates them within one iteration, so this
    /// guard catches every divergence at the iteration it happens.
    Diverged {
        /// Iteration at which the divergence was detected.
        at: usize,
    },
    /// The [`AdmmConfig::time_budget`] ran out.
    TimedOut,
}

impl SolveHealth {
    /// True for outcomes that warrant no restart or fallback:
    /// [`SolveHealth::Converged`] and the historical iteration-cap
    /// outcome.
    pub fn is_nominal(&self) -> bool {
        matches!(self, SolveHealth::Converged | SolveHealth::Capped)
    }

    /// Stable label without the iteration suffix, for metric names
    /// (`solve.health.stalled`, not `solve.health.stalled@40`).
    pub fn label(&self) -> &'static str {
        match self {
            SolveHealth::Converged => "converged",
            SolveHealth::Capped => "capped",
            SolveHealth::Stalled { .. } => "stalled",
            SolveHealth::Diverged { .. } => "diverged",
            SolveHealth::TimedOut => "timed-out",
        }
    }
}

impl std::fmt::Display for SolveHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveHealth::Converged => write!(f, "converged"),
            SolveHealth::Capped => write!(f, "capped"),
            SolveHealth::Stalled { at } => write!(f, "stalled@{at}"),
            SolveHealth::Diverged { at } => write!(f, "diverged@{at}"),
            SolveHealth::TimedOut => write!(f, "timed-out"),
        }
    }
}

/// Read a usize from the environment once (CI uses `ADMM_THREADS` /
/// `ADMM_PARALLEL_THRESHOLD` to re-run the whole suite on the parallel
/// path).
fn env_usize(cache: &'static OnceLock<usize>, name: &str, default: usize) -> usize {
    // The warning fires at most once per variable by construction: the
    // `OnceLock` initializer runs once per process.
    *cache.get_or_init(|| match std::env::var(name) {
        Ok(raw) => match raw.trim().parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!(
                    "warning: ignoring malformed {name}={raw:?} (expected a \
                     non-negative integer); using the default {default}"
                );
                default
            }
        },
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(raw)) => {
            eprintln!("warning: ignoring non-unicode {name}={raw:?}; using the default {default}");
            default
        }
    })
}

impl Default for AdmmConfig {
    fn default() -> AdmmConfig {
        static THREADS: OnceLock<usize> = OnceLock::new();
        static THRESHOLD: OnceLock<usize> = OnceLock::new();
        AdmmConfig {
            rho: 1.0,
            max_iterations: 25_000,
            eps_abs: 1e-6,
            eps_rel: 1e-4,
            threads: env_usize(&THREADS, "ADMM_THREADS", 1).max(1),
            initial_value: 0.5,
            adaptive_rho: false,
            parallel_threshold: env_usize(&THRESHOLD, "ADMM_PARALLEL_THRESHOLD", 512),
            shard_slots: 4096,
            stall_window: 0,
            time_budget: None,
            max_restarts: 0,
        }
    }
}

/// What one local term optimizes.
#[derive(Clone, Copy, Debug)]
enum TermKind {
    Potential { weight: f64, squared: bool },
    Constraint { equality: bool },
}

/// Result of a solve.
#[derive(Clone, Debug)]
pub struct AdmmSolution {
    /// Consensus values per variable, in `[0,1]`.
    pub values: Vec<f64>,
    /// Iterations executed by the longest-running block (restarts
    /// included; see the module docs on blocks).
    pub iterations: usize,
    /// True iff every block's residuals dropped below tolerance before
    /// the cap.
    pub converged: bool,
    /// Blocks the program split into and solved each to its own residual:
    /// one per connected component of at least 16 terms, plus one for all
    /// smaller components together (0 when no term touches a variable).
    pub components: usize,
    /// Local term updates performed: Σ over blocks of iterations × terms
    /// with variables, restarts included — the solve's work.
    pub term_updates: usize,
    /// Σ weighted potential values at the solution (excluding any constant
    /// loss folded away during grounding).
    pub objective: f64,
    /// Largest hard-constraint violation at the solution.
    pub max_violation: f64,
    /// Wall time spent in the local (term-minimization) step.
    pub local_time: Duration,
    /// Wall time spent in the fused consensus/dual/residual step.
    pub consensus_time: Duration,
    /// Structured outcome: `converged` is exactly
    /// `health == SolveHealth::Converged`. With several blocks, the first
    /// non-`Converged` outcome in block order.
    pub health: SolveHealth,
    /// Restarts performed by the recovery policy, summed over blocks.
    pub restarts: usize,
}

impl AdmmSolution {
    /// Mirror this solve into the telemetry layer: `solve.*` registry
    /// counters at [`cms_obs::ObsLevel::Stats`], synthetic local/
    /// consensus phase spans under `parent` at
    /// [`cms_obs::ObsLevel::Spans`], and a typed
    /// [`cms_obs::Event::Solve`] at [`cms_obs::ObsLevel::Journal`]. A
    /// solve the watchdog restarted, or one that ended stalled, diverged
    /// or timed out, then also triggers the flight recorder's
    /// [`cms_obs::dump_on_degradation`]. No-op (one atomic load) when
    /// telemetry is off.
    fn publish(&self, parent: cms_obs::SpanId) {
        if cms_obs::enabled(cms_obs::ObsLevel::Stats) {
            // Cached handles: `publish` runs once per solve, inside the
            // solve the telemetry-overhead gate times.
            use cms_obs::LazyCounter;
            static RUNS: LazyCounter = LazyCounter::new("solve.runs");
            static ITERATIONS: LazyCounter = LazyCounter::new("solve.iterations");
            static COMPONENTS: LazyCounter = LazyCounter::new("solve.components");
            static RESTARTS: LazyCounter = LazyCounter::new("solve.restarts");
            static HEALTH: [LazyCounter; 5] = [
                LazyCounter::new("solve.health.converged"),
                LazyCounter::new("solve.health.capped"),
                LazyCounter::new("solve.health.stalled"),
                LazyCounter::new("solve.health.diverged"),
                LazyCounter::new("solve.health.timed-out"),
            ];
            RUNS.inc();
            ITERATIONS.add(self.iterations as u64);
            COMPONENTS.add(self.components as u64);
            RESTARTS.add(self.restarts as u64);
            let h = match self.health {
                SolveHealth::Converged => &HEALTH[0],
                SolveHealth::Capped => &HEALTH[1],
                SolveHealth::Stalled { .. } => &HEALTH[2],
                SolveHealth::Diverged { .. } => &HEALTH[3],
                SolveHealth::TimedOut => &HEALTH[4],
            };
            h.inc();
        }
        cms_obs::record_span_duration("solve/local", parent, self.local_time.as_nanos() as u64);
        cms_obs::record_span_duration(
            "solve/consensus",
            parent,
            self.consensus_time.as_nanos() as u64,
        );
        // `emit` gates internally, but the event's health string would
        // allocate before the level check — guard here so the stats-level
        // hot path never pays it.
        if cms_obs::enabled(cms_obs::ObsLevel::Journal) {
            cms_obs::emit(cms_obs::Event::Solve {
                iterations: self.iterations as u64,
                converged: self.converged,
                components: self.components as u64,
                restarts: self.restarts as u64,
                health: self.health.to_string(),
                objective: self.objective,
                max_violation: self.max_violation,
                local_ns: self.local_time.as_nanos() as u64,
                consensus_ns: self.consensus_time.as_nanos() as u64,
            });
            if self.restarts > 0 || !self.health.is_nominal() {
                cms_obs::dump_on_degradation();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shared-array helpers: f64 bits in AtomicU64. All accesses are relaxed;
// cross-thread visibility is provided by the phase barriers.
// ---------------------------------------------------------------------------

#[inline]
fn f_load(a: &AtomicU64) -> f64 {
    f64::from_bits(a.load(Ordering::Relaxed))
}

#[inline]
fn f_store(a: &AtomicU64, v: f64) {
    a.store(v.to_bits(), Ordering::Relaxed);
}

/// Residual partials of one shard, written only by the shard's owner
/// during the consensus phase and read by the coordinator after it.
#[derive(Default)]
struct ShardPartials {
    primal_sq: AtomicU64,
    y_norm_sq: AtomicU64,
    z_norm_sq: AtomicU64,
    dual_sq: AtomicU64,
}

/// One contiguous variable shard and its shard-major slot range.
#[derive(Clone, Debug)]
struct Shard {
    /// Variables this shard owns.
    vars: Range<usize>,
    /// Range in the shard-major arrays (`u`, `shard_slot`).
    slots: Range<usize>,
}

/// Components with fewer terms than this are solved together as one
/// block. On such tiny components (an evaluation program splits into
/// about a thousand of one to three terms) a residual test of their own
/// costs more per iteration than the iterations it saves, while the
/// components of the PSL programs the benchmark solves hold from about 15
/// to about 1000 terms.
const MIN_BLOCK_TERMS: usize = 16;

/// An independently solved part of the program — one connected component
/// of at least [`MIN_BLOCK_TERMS`] terms, or all smaller components
/// together — as ranges of the block-major workspace.
#[derive(Clone, Debug)]
struct Block {
    /// Workspace terms.
    terms: Range<usize>,
    /// Terms with at least one variable: `terms` minus, in block 0, the
    /// terms without variables.
    live_terms: usize,
    /// Workspace variables.
    vars: Range<usize>,
    /// Shards (cut at the block's boundaries).
    shards: Range<usize>,
    /// Local copies: the same range in the term-major arrays (`y`) and
    /// the shard-major ones (`u`), since both are block-major.
    slots: Range<usize>,
}

/// Flattened problem + iteration state, laid out block-major (see
/// the module docs). Terms are stored structure-of-arrays: per-term
/// metadata plus term-major slot arrays (`slot_*`, `y`) delimited by
/// `term_start`, and the shard-major dual array `u` linked to the
/// term-major view through `slot_upos` / `shard_slot`. Workspace term and
/// variable ids map back to the caller's through `term_pos` / `var_orig`.
struct Workspace {
    /// Workspace variable → original variable.
    var_orig: Vec<u32>,
    blocks: Vec<Block>,
    term_start: Vec<u32>,
    kind: Vec<TermKind>,
    constant: Vec<f64>,
    coef_norm_sq: Vec<f64>,
    slot_var: Vec<u32>,
    slot_coef: Vec<f64>,
    /// Term-major slot → its shard-major position.
    slot_upos: Vec<u32>,
    /// Shard-major position → its term-major slot.
    shard_slot: Vec<u32>,
    /// Shard-major position → its variable (saves a `slot_var` indirection
    /// in the consensus sweeps).
    sm_var: Vec<u32>,
    shards: Vec<Shard>,
    counts: Vec<u32>,
    /// Local copies, term-major (written in the local phase).
    y: Vec<AtomicU64>,
    /// Scaled duals, shard-major (written in the consensus phase).
    u: Vec<AtomicU64>,
    /// Consensus variables (written by the owning shard).
    z: Vec<AtomicU64>,
}

impl Workspace {
    /// Closed-form local minimization over a range of terms: for each term
    /// compute `s = ℓ(c)` at the center `c = z − u`, pick the prox/projection
    /// step factor, and write `y = c − factor·a`.
    fn local_phase(&self, terms: Range<usize>, rho: f64) {
        for t in terms {
            let s0 = self.term_start[t] as usize;
            let s1 = self.term_start[t + 1] as usize;
            let mut s = self.constant[t];
            for i in s0..s1 {
                let c = f_load(&self.z[self.slot_var[i] as usize])
                    - f_load(&self.u[self.slot_upos[i] as usize]);
                s += self.slot_coef[i] * c;
            }
            let norm = self.coef_norm_sq[t];
            let factor = match self.kind[t] {
                TermKind::Constraint { equality } => {
                    if (equality || s > 0.0) && norm > 0.0 {
                        s / norm
                    } else {
                        0.0
                    }
                }
                TermKind::Potential { weight, squared } => {
                    if s <= 0.0 {
                        0.0 // hinge inactive at the center
                    } else if squared {
                        2.0 * weight * s / (rho + 2.0 * weight * norm)
                    } else {
                        // Try the linear-region minimizer; if it overshoots
                        // the kink, project onto ℓ = 0 instead.
                        let s_after = s - (weight / rho) * norm;
                        if s_after >= 0.0 {
                            weight / rho
                        } else if norm > 0.0 {
                            s / norm
                        } else {
                            0.0
                        }
                    }
                }
            };
            for i in s0..s1 {
                let c = f_load(&self.z[self.slot_var[i] as usize])
                    - f_load(&self.u[self.slot_upos[i] as usize]);
                f_store(&self.y[i], c - factor * self.slot_coef[i]);
            }
        }
    }

    /// Fused consensus + dual + residual pass over one shard: accumulate
    /// `Σ(y + u)` per variable (slot order = ascending term order, the same
    /// order the serial reduction used), write the averaged/clipped `z`,
    /// update the shard's duals, and record the residual partials.
    fn consensus_shard(&self, s: usize, scratch: &mut Vec<f64>, out: &ShardPartials) {
        let shard = &self.shards[s];
        let vlo = shard.vars.start;
        scratch.clear();
        scratch.resize(shard.vars.len(), 0.0);
        for pos in shard.slots.clone() {
            let slot = self.shard_slot[pos] as usize;
            let v = self.sm_var[pos] as usize;
            scratch[v - vlo] += f_load(&self.y[slot]) + f_load(&self.u[pos]);
        }
        let mut dual_sq = 0.0f64;
        for v in shard.vars.clone() {
            let old = f_load(&self.z[v]);
            let cnt = self.counts[v];
            let new = if cnt == 0 {
                old // variables in no term keep their value
            } else {
                (scratch[v - vlo] / f64::from(cnt)).clamp(0.0, 1.0)
            };
            let d = new - old;
            dual_sq += f64::from(cnt) * d * d;
            f_store(&self.z[v], new);
        }
        let mut primal_sq = 0.0f64;
        let mut y_norm_sq = 0.0f64;
        let mut z_norm_sq = 0.0f64;
        for pos in shard.slots.clone() {
            let slot = self.shard_slot[pos] as usize;
            let v = self.sm_var[pos] as usize;
            let yv = f_load(&self.y[slot]);
            let zv = f_load(&self.z[v]);
            let diff = yv - zv;
            f_store(&self.u[pos], f_load(&self.u[pos]) + diff);
            primal_sq += diff * diff;
            y_norm_sq += yv * yv;
            z_norm_sq += zv * zv;
        }
        f_store(&out.primal_sq, primal_sq);
        f_store(&out.y_norm_sq, y_norm_sq);
        f_store(&out.z_norm_sq, z_norm_sq);
        f_store(&out.dual_sq, dual_sq);
    }

    /// Rescale a block's duals by `1/factor` (ρ adaptation keeps
    /// λ = ρ·u fixed).
    fn rescale_duals(&self, block: &Block, factor: f64) {
        for a in &self.u[block.slots.clone()] {
            f_store(a, f_load(a) / factor);
        }
    }

    /// Restart repair of one block: zero its duals, scrub non-finite
    /// consensus values back to `initial`, and re-seed its local copies
    /// from `z`. Keeps whatever finite progress the failed attempt made.
    fn reset_for_restart(&self, block: &Block, initial: f64) {
        for a in &self.u[block.slots.clone()] {
            f_store(a, 0.0);
        }
        for a in &self.z[block.vars.clone()] {
            if !f_load(a).is_finite() {
                f_store(a, initial.clamp(0.0, 1.0));
            }
        }
        for slot in block.slots.clone() {
            f_store(&self.y[slot], f_load(&self.z[self.slot_var[slot] as usize]));
        }
    }

    /// Cold reset of one block: consensus back to the initial value,
    /// duals to zero, local copies re-seeded — as if its solve had just
    /// begun.
    fn cold_reset(&self, block: &Block, initial: f64) {
        for a in &self.z[block.vars.clone()] {
            f_store(a, initial.clamp(0.0, 1.0));
        }
        self.reset_for_restart(block, initial);
    }

    /// Consensus values in the original variable order.
    fn values(&self) -> Vec<f64> {
        let mut values = vec![0.0; self.z.len()];
        for (z, &v) in self.z.iter().zip(&self.var_orig) {
            values[v as usize] = f_load(z);
        }
        values
    }
}

/// Stable counting sort of the indices `0..keys.len()` by key (every key
/// below `buckets`). Returns the sorted indices and each key's start in
/// them (`buckets + 1` entries, the last one `keys.len()`).
fn counting_order(keys: &[u32], buckets: usize) -> (Vec<u32>, Vec<usize>) {
    let mut starts = vec![0usize; buckets + 1];
    for &k in keys {
        starts[k as usize + 1] += 1;
    }
    for b in 0..buckets {
        starts[b + 1] += starts[b];
    }
    let mut cursor = starts.clone();
    let mut order = vec![0u32; keys.len()];
    for (i, &k) in keys.iter().enumerate() {
        order[cursor[k as usize]] = i as u32;
        cursor[k as usize] += 1;
    }
    (order, starts)
}

/// Partition `0..weights.len()` into `parts` contiguous ranges with
/// roughly equal total weight (trailing ranges may be empty).
fn balanced_ranges(weights: &[usize], parts: usize) -> Vec<Range<usize>> {
    let total: usize = weights.iter().sum();
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0usize;
    let mut assigned = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        let remaining_parts = parts - out.len();
        let target = (total - assigned).div_ceil(remaining_parts);
        if acc >= target && out.len() + 1 < parts {
            out.push(start..i + 1);
            start = i + 1;
            assigned += acc;
            acc = 0;
        }
    }
    out.push(start..weights.len());
    while out.len() < parts {
        out.push(weights.len()..weights.len());
    }
    out
}

/// MAP solver over ground potentials and constraints.
pub struct AdmmSolver<'a> {
    potentials: &'a [GroundPotential],
    constraints: &'a [GroundConstraint],
    num_vars: usize,
}

impl<'a> AdmmSolver<'a> {
    /// Create a solver for the given ground program pieces.
    pub fn new(
        potentials: &'a [GroundPotential],
        constraints: &'a [GroundConstraint],
        num_vars: usize,
    ) -> AdmmSolver<'a> {
        AdmmSolver {
            potentials,
            constraints,
            num_vars,
        }
    }

    /// Run ADMM to convergence (or the iteration cap).
    pub fn solve(&self, config: &AdmmConfig) -> AdmmSolution {
        let _span = cms_obs::span("solve");
        let ws = self.build_workspace(config);
        let partials: Vec<ShardPartials> = (0..ws.shards.len())
            .map(|_| ShardPartials::default())
            .collect();
        let mut runs: Vec<BlockRun> = ws.blocks.iter().map(|_| BlockRun::new(config)).collect();
        let threads = config.threads.max(1);
        let largest = ws.blocks.iter().map(|b| b.terms.len()).max();
        let (local_time, consensus_time) = match largest {
            Some(terms) if threads > 1 && terms >= config.parallel_threshold => {
                self.run_parallel(config, &ws, &mut runs, &partials, threads)
            }
            _ => self.run_serial(config, &ws, &mut runs, &partials),
        };

        // Merge the blocks in block order (module docs).
        let health = runs
            .iter()
            .map(|r| r.health)
            .find(|h| *h != SolveHealth::Converged)
            .unwrap_or(SolveHealth::Converged);
        let values = ws.values();
        let objective = self.objective(&values);
        let max_violation = self
            .constraints
            .iter()
            .map(|c| c.violation(&values))
            .fold(0.0, f64::max);
        let solution = AdmmSolution {
            values,
            iterations: runs.iter().map(|r| r.iterations).max().unwrap_or(0),
            converged: health == SolveHealth::Converged,
            components: runs.len(),
            term_updates: runs
                .iter()
                .zip(&ws.blocks)
                .map(|(r, b)| r.iterations * b.live_terms)
                .sum(),
            objective,
            max_violation,
            local_time,
            consensus_time,
            health,
            restarts: runs.iter().map(|r| r.restarts).sum(),
        };
        solution.publish(_span.id());
        solution
    }

    /// Σ weighted potential values under `y`.
    pub fn objective(&self, y: &[f64]) -> f64 {
        self.potentials.iter().map(|p| p.value(y)).sum()
    }

    /// Build the flattened, block-major workspace: components found by
    /// union-find and grouped into blocks, SoA terms in block order,
    /// shards cut at block boundaries, `z` and `y` at the initial value,
    /// `u` at zero.
    fn build_workspace(&self, config: &AdmmConfig) -> Workspace {
        let n = self.num_vars;
        let num_potentials = self.potentials.len();
        let num_terms = num_potentials + self.constraints.len();
        let expr = |t: usize| {
            if t < num_potentials {
                &self.potentials[t].expr
            } else {
                &self.constraints[t - num_potentials].expr
            }
        };

        // Union-find over each term's variables. Linking the larger root
        // under the smaller keeps every root the smallest variable of its
        // set, so numbering roots in ascending order numbers components
        // by their smallest variable.
        fn find(parent: &mut [u32], mut v: usize) -> usize {
            while parent[v] as usize != v {
                parent[v] = parent[parent[v] as usize];
                v = parent[v] as usize;
            }
            v
        }
        let mut parent: Vec<u32> = (0..n as u32).collect();
        let mut orig_counts = vec![0u32; n];
        for t in 0..num_terms {
            let terms = &expr(t).terms;
            let Some((&(first, _), rest)) = terms.split_first() else {
                continue;
            };
            orig_counts[first] += 1;
            for &(v, _) in rest {
                orig_counts[v] += 1;
                let (a, b) = (find(&mut parent, first), find(&mut parent, v));
                parent[a.max(b)] = a.min(b) as u32;
            }
        }
        // Connected components, numbered by smallest variable; a term
        // belongs to the component of its first variable.
        const NONE: u32 = u32::MAX;
        let mut comp_of = vec![NONE; n];
        let mut num_comps = 0usize;
        for v in 0..n {
            if orig_counts[v] > 0 {
                let root = find(&mut parent, v);
                comp_of[v] = if root == v {
                    num_comps += 1;
                    num_comps as u32 - 1
                } else {
                    comp_of[root]
                };
            }
        }
        let term_comp: Vec<u32> = (0..num_terms)
            .map(|t| expr(t).terms.first().map_or(NONE, |&(v, _)| comp_of[v]))
            .collect();
        let mut comp_terms = vec![0usize; num_comps];
        for &c in term_comp.iter().filter(|&&c| c != NONE) {
            comp_terms[c as usize] += 1;
        }
        // Blocks: each component of at least `MIN_BLOCK_TERMS` terms alone,
        // all smaller ones together, numbered by smallest variable.
        // Variables in no term and terms without variables change no
        // iterate; they join block 0.
        let mut block_live_terms: Vec<usize> = Vec::new();
        let mut small_block = None;
        let mut num_blocks = 0u32;
        let block_of_comp: Vec<u32> = comp_terms
            .iter()
            .map(|&terms| {
                let mut next = || {
                    block_live_terms.push(0);
                    num_blocks += 1;
                    num_blocks - 1
                };
                let b = if terms >= MIN_BLOCK_TERMS {
                    next()
                } else {
                    *small_block.get_or_insert_with(next)
                };
                block_live_terms[b as usize] += terms;
                b
            })
            .collect();
        let block = |c: u32| {
            if c == NONE {
                0
            } else {
                block_of_comp[c as usize]
            }
        };
        let num_blocks = num_blocks as usize;

        // Block-major order, stable: variables and terms by block. With
        // one block that is the caller's order.
        let ((var_orig, var_bounds), (term_orig, term_bounds)) = if num_blocks > 1 {
            let var_keys: Vec<u32> = comp_of.iter().map(|&c| block(c)).collect();
            let term_keys: Vec<u32> = term_comp.iter().map(|&c| block(c)).collect();
            (
                counting_order(&var_keys, num_blocks),
                counting_order(&term_keys, num_blocks),
            )
        } else {
            (
                ((0..n as u32).collect(), vec![0, n]),
                ((0..num_terms as u32).collect(), vec![0, num_terms]),
            )
        };
        let mut var_pos = vec![0u32; n];
        for (pos, &v) in var_orig.iter().enumerate() {
            var_pos[v as usize] = pos as u32;
        }

        let mut term_start: Vec<u32> = Vec::with_capacity(num_terms + 1);
        let mut kind: Vec<TermKind> = Vec::with_capacity(num_terms);
        let mut constant: Vec<f64> = Vec::with_capacity(num_terms);
        let mut coef_norm_sq: Vec<f64> = Vec::with_capacity(num_terms);
        let mut slot_var: Vec<u32> = Vec::new();
        let mut slot_coef: Vec<f64> = Vec::new();
        term_start.push(0);
        for &t in &term_orig {
            let t = t as usize;
            let e = expr(t);
            for &(v, c) in &e.terms {
                slot_var.push(var_pos[v]);
                slot_coef.push(c);
            }
            term_start.push(slot_var.len() as u32);
            kind.push(if t < num_potentials {
                let p = &self.potentials[t];
                TermKind::Potential {
                    weight: p.weight,
                    squared: p.squared,
                }
            } else {
                TermKind::Constraint {
                    equality: self.constraints[t - num_potentials].kind == ConstraintKind::EqZero,
                }
            });
            constant.push(e.constant);
            coef_norm_sq.push(e.coef_norm_sq());
        }
        let total_copies = slot_var.len();
        let mut counts = vec![0u32; n];
        for (v, &pos) in var_pos.iter().enumerate() {
            counts[pos as usize] = orig_counts[v];
        }

        // Contiguous variable shards balanced by copy count, cut at every
        // block boundary; boundaries are a pure function of the
        // problem and `shard_slots`.
        let target = config.shard_slots.max(1);
        let mut shards: Vec<Shard> = Vec::new();
        let mut var_shard = vec![0u32; n];
        let mut blocks = Vec::with_capacity(num_blocks);
        for c in 0..num_blocks {
            let vars = var_bounds[c]..var_bounds[c + 1];
            let first_shard = shards.len();
            let mut start = vars.start;
            let mut acc = 0usize;
            for v in vars.clone() {
                acc += counts[v] as usize;
                var_shard[v] = shards.len() as u32;
                if acc >= target {
                    shards.push(Shard {
                        vars: start..v + 1,
                        slots: 0..0,
                    });
                    start = v + 1;
                    acc = 0;
                }
            }
            if start < vars.end {
                shards.push(Shard {
                    vars: start..vars.end,
                    slots: 0..0,
                });
            }
            let terms = term_bounds[c]..term_bounds[c + 1];
            blocks.push(Block {
                live_terms: block_live_terms[c],
                slots: term_start[terms.start] as usize..term_start[terms.end] as usize,
                terms,
                vars,
                shards: first_shard..shards.len(),
            });
        }

        // Shard-major slot order: bucket term-major slots by shard,
        // preserving ascending term order inside each bucket.
        let mut shard_len = vec![0usize; shards.len()];
        for &v in &slot_var {
            shard_len[var_shard[v as usize] as usize] += 1;
        }
        let mut cursor = Vec::with_capacity(shards.len());
        let mut offset = 0usize;
        for (shard, &len) in shards.iter_mut().zip(shard_len.iter()) {
            shard.slots = offset..offset + len;
            cursor.push(offset);
            offset += len;
        }
        let mut slot_upos = vec![0u32; total_copies];
        let mut shard_slot = vec![0u32; total_copies];
        let mut sm_var = vec![0u32; total_copies];
        for (slot, &v) in slot_var.iter().enumerate() {
            let s = var_shard[v as usize] as usize;
            let pos = cursor[s];
            cursor[s] += 1;
            slot_upos[slot] = pos as u32;
            shard_slot[pos] = slot as u32;
            sm_var[pos] = v;
        }

        let z: Vec<AtomicU64> = (0..n)
            .map(|_| AtomicU64::new(config.initial_value.to_bits()))
            .collect();
        let y: Vec<AtomicU64> = slot_var
            .iter()
            .map(|&v| AtomicU64::new(f_load(&z[v as usize]).to_bits()))
            .collect();
        let u: Vec<AtomicU64> = (0..total_copies).map(|_| AtomicU64::new(0)).collect();

        Workspace {
            var_orig,
            blocks,
            term_start,
            kind,
            constant,
            coef_norm_sq,
            slot_var,
            slot_coef,
            slot_upos,
            shard_slot,
            sm_var,
            shards,
            counts,
            y,
            u,
            z,
        }
    }

    /// Single-threaded iteration loop: every iteration runs the local and
    /// consensus steps of each block still iterating (same per-shard
    /// routines as the parallel path, so bit-identical to it), then
    /// settles them. Returns the local and consensus wall times.
    fn run_serial(
        &self,
        config: &AdmmConfig,
        ws: &Workspace,
        runs: &mut [BlockRun],
        partials: &[ShardPartials],
    ) -> (Duration, Duration) {
        let mut iterating = Iterating::new(config, runs.len());
        let mut scratch: Vec<f64> = Vec::new();
        let (mut local_time, mut consensus_time) = (Duration::ZERO, Duration::ZERO);
        while !iterating.active.is_empty() {
            let t0 = Instant::now();
            for &c in &iterating.active {
                runs[c].begin_iteration();
                ws.local_phase(ws.blocks[c].terms.clone(), runs[c].rho);
            }
            let t1 = Instant::now();
            for &c in &iterating.active {
                for s in ws.blocks[c].shards.clone() {
                    ws.consensus_shard(s, &mut scratch, &partials[s]);
                }
            }
            local_time += t1 - t0;
            consensus_time += t1.elapsed();
            iterating.settle(config, ws, runs, partials);
        }
        (local_time, consensus_time)
    }

    /// Barrier-phased parallel loop: workers are spawned once and step
    /// through local/consensus phases over the blocks still
    /// iterating; the coordinator settles every block (merging its
    /// residual partials in shard order) between iterations. Each
    /// block's terms and shards are split into `threads` balanced
    /// pieces, and piece `j` of block `c` runs on worker
    /// `(c + j) % threads`: a large block spreads over every worker,
    /// small ones deal out round-robin.
    fn run_parallel(
        &self,
        config: &AdmmConfig,
        ws: &Workspace,
        runs: &mut [BlockRun],
        partials: &[ShardPartials],
        threads: usize,
    ) -> (Duration, Duration) {
        // Balance term pieces by slot count and shard pieces by shard size.
        let pieces: Vec<Pieces> = ws
            .blocks
            .iter()
            .map(|block| {
                let offset = |r: Range<usize>, by: usize| r.start + by..r.end + by;
                let term_weights: Vec<usize> = block
                    .terms
                    .clone()
                    .map(|t| (ws.term_start[t + 1] - ws.term_start[t]) as usize + 1)
                    .collect();
                let shard_weights: Vec<usize> = ws.shards[block.shards.clone()]
                    .iter()
                    .map(|s| s.slots.len() + 1)
                    .collect();
                Pieces {
                    terms: balanced_ranges(&term_weights, threads)
                        .into_iter()
                        .map(|r| offset(r, block.terms.start))
                        .collect(),
                    shards: balanced_ranges(&shard_weights, threads)
                        .into_iter()
                        .map(|r| offset(r, block.shards.start))
                        .collect(),
                }
            })
            .collect();
        // The (block, ρ) pairs of the current iteration: written by
        // the coordinator while the workers wait at the iteration gate,
        // read by the workers during the two phases.
        let plan: RwLock<Vec<(usize, f64)>> = RwLock::new(Vec::new());

        let barrier = Barrier::new(threads + 1);
        let stop = AtomicBool::new(false);

        // A panicking worker would strand everyone else on the (non-
        // poisoning) barrier forever; instead workers catch the panic, keep
        // honoring the barrier protocol as no-ops, and the coordinator
        // aborts the solve and re-raises once the scope has joined.
        let panicked = AtomicBool::new(false);

        let mut iterating = Iterating::new(config, runs.len());
        let (mut local_time, mut consensus_time) = (Duration::ZERO, Duration::ZERO);
        // Workers parent their spans under the coordinator's open solve
        // span explicitly — their threads have no ambient span stack.
        let solve_span = cms_obs::current_span();
        thread::scope(|scope| {
            for w in 0..threads {
                let (barrier, stop, plan, panicked, pieces) =
                    (&barrier, &stop, &plan, &panicked, &pieces);
                scope.spawn(move || {
                    // Label the worker's trace track so the Perfetto
                    // export lays it out as a named thread.
                    cms_obs::set_thread_track(format!("admm-worker-{w}"));
                    let _span = cms_obs::span_with_parent(format!("solve/worker-{w}"), solve_span);
                    let mine = |c: usize, j: usize| (c + j) % threads == w;
                    let mut scratch: Vec<f64> = Vec::new();
                    loop {
                        barrier.wait(); // A: iteration gate
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        // Only the coordinator writes the plan, and only
                        // while every worker waits at A: no writer can
                        // have panicked holding it.
                        let plan = plan.read().expect("the ADMM plan lock is never poisoned");
                        // The barrier waits sit OUTSIDE the catches so a
                        // panicking worker still performs exactly the same
                        // number of waits per iteration as everyone else.
                        let local = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            for &(c, rho) in plan.iter() {
                                for (j, terms) in pieces[c].terms.iter().enumerate() {
                                    if mine(c, j) {
                                        ws.local_phase(terms.clone(), rho);
                                    }
                                }
                            }
                        }));
                        if local.is_err() {
                            panicked.store(true, Ordering::Relaxed);
                        }
                        barrier.wait(); // B: local phase done
                        let consensus =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                for &(c, _) in plan.iter() {
                                    for (j, shards) in pieces[c].shards.iter().enumerate() {
                                        if mine(c, j) {
                                            for s in shards.clone() {
                                                ws.consensus_shard(s, &mut scratch, &partials[s]);
                                            }
                                        }
                                    }
                                }
                            }));
                        if consensus.is_err() {
                            panicked.store(true, Ordering::Relaxed);
                        }
                        drop(plan);
                        barrier.wait(); // C: consensus phase done
                    }
                });
            }
            loop {
                if iterating.active.is_empty() || panicked.load(Ordering::Relaxed) {
                    stop.store(true, Ordering::Relaxed);
                    barrier.wait(); // release workers into the stop check
                    break;
                }
                {
                    let mut plan = plan.write().expect("the ADMM plan lock is never poisoned");
                    plan.clear();
                    for &c in &iterating.active {
                        runs[c].begin_iteration();
                        plan.push((c, runs[c].rho));
                    }
                }
                let t0 = Instant::now();
                barrier.wait(); // A
                barrier.wait(); // B: local phase complete
                let t1 = Instant::now();
                barrier.wait(); // C: consensus phase complete
                local_time += t1 - t0;
                consensus_time += t1.elapsed();
                // Workers are parked at A; the coordinator owns everything.
                if !panicked.load(Ordering::Relaxed) {
                    iterating.settle(config, ws, runs, partials);
                }
            }
        });
        assert!(
            !panicked.load(Ordering::Relaxed),
            "ADMM worker panicked during a parallel solve"
        );
        (local_time, consensus_time)
    }
}

/// One block's share of the parallel loop's work, split into
/// `threads` balanced pieces (trailing pieces may be empty).
struct Pieces {
    terms: Vec<Range<usize>>,
    shards: Vec<Range<usize>>,
}

/// The blocks still iterating, plus what their per-iteration checks
/// share.
struct Iterating {
    /// Block ids, ascending.
    active: Vec<usize>,
    /// Wall-clock deadline shared by every block and restart.
    deadline: Option<Instant>,
    /// Telemetry histogram of the combined residual, fetched once per
    /// solve so the per-iteration cost is a bucket increment. `None`
    /// below [`cms_obs::ObsLevel::Stats`].
    residual_hist: Option<&'static cms_obs::Histogram>,
}

impl Iterating {
    fn new(config: &AdmmConfig, blocks: usize) -> Iterating {
        Iterating {
            // A zero iteration cap leaves every block `Capped` at 0.
            active: if config.max_iterations > 0 {
                (0..blocks).collect()
            } else {
                Vec::new()
            },
            deadline: config.time_budget.map(|b| Instant::now() + b),
            residual_hist: cms_obs::enabled(cms_obs::ObsLevel::Stats).then(|| {
                static RESIDUAL: cms_obs::LazyHistogram = cms_obs::LazyHistogram::new(
                    "solve.residual",
                    &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1000.0],
                );
                RESIDUAL.handle()
            }),
        }
    }

    /// After an iteration: settle every active block in block
    /// order, drop the ones that finished, and record the largest
    /// combined residual among the blocks that iterated.
    fn settle(
        &mut self,
        config: &AdmmConfig,
        ws: &Workspace,
        runs: &mut [BlockRun],
        partials: &[ShardPartials],
    ) {
        let timed_out = self.deadline.is_some_and(|d| Instant::now() >= d);
        let mut residual = 0.0f64;
        self.active
            .retain(|&c| !runs[c].settle(config, ws, c, partials, timed_out, &mut residual));
        if let Some(hist) = self.residual_hist {
            hist.record(residual);
        }
    }
}

/// One block's progress through the iteration loop.
struct BlockRun {
    /// Iterations of the current attempt (the cap applies per attempt).
    attempt: usize,
    /// Iterations over all attempts.
    iterations: usize,
    restarts: usize,
    rho: f64,
    /// Best combined residual of the attempt (stall watchdog).
    best_combined: f64,
    /// Iterations since the combined residual last improved.
    stalled_for: usize,
    /// The final outcome, once the block is done.
    health: SolveHealth,
}

impl BlockRun {
    fn new(config: &AdmmConfig) -> BlockRun {
        BlockRun {
            attempt: 0,
            iterations: 0,
            restarts: 0,
            rho: config.rho,
            best_combined: f64::INFINITY,
            stalled_for: 0,
            health: SolveHealth::Capped,
        }
    }

    fn begin_iteration(&mut self) {
        self.attempt += 1;
        self.iterations += 1;
    }

    /// After an iteration of block `c`: test it, then restart or
    /// finish it if its attempt stopped. Returns true once it is done.
    fn settle(
        &mut self,
        config: &AdmmConfig,
        ws: &Workspace,
        c: usize,
        partials: &[ShardPartials],
        timed_out: bool,
        residual: &mut f64,
    ) -> bool {
        let block = &ws.blocks[c];
        let Some(health) = self.check(config, ws, block, partials, timed_out, residual) else {
            return false;
        };
        let restartable = matches!(
            health,
            SolveHealth::Stalled { .. } | SolveHealth::Diverged { .. }
        );
        if !restartable || self.restarts >= config.max_restarts {
            self.health = health;
            return true;
        }
        self.restarts += 1;
        if self.restarts == 1 {
            // First restart: keep the consensus iterate (scrubbed of any
            // non-finite entries), drop the duals, double ρ.
            ws.reset_for_restart(block, config.initial_value);
            self.rho = config.rho * 2.0;
        } else {
            // Later restarts: full cold reset at the original ρ.
            ws.cold_reset(block, config.initial_value);
            self.rho = config.rho;
        }
        self.attempt = 0;
        self.best_combined = f64::INFINITY;
        self.stalled_for = 0;
        false
    }

    /// Merge the block's per-shard residual partials (in shard
    /// order — the fixed, thread-count-independent reduction order), test
    /// convergence, run the watchdogs and residual-balancing ρ
    /// adaptation. Returns the outcome when the attempt stops.
    fn check(
        &mut self,
        config: &AdmmConfig,
        ws: &Workspace,
        block: &Block,
        partials: &[ShardPartials],
        timed_out: bool,
        residual: &mut f64,
    ) -> Option<SolveHealth> {
        let mut primal_sq = 0.0f64;
        let mut y_norm_sq = 0.0f64;
        let mut z_norm_sq = 0.0f64;
        let mut dual_sq = 0.0f64;
        for p in &partials[block.shards.clone()] {
            primal_sq += f_load(&p.primal_sq);
            y_norm_sq += f_load(&p.y_norm_sq);
            z_norm_sq += f_load(&p.z_norm_sq);
            dual_sq += f_load(&p.dual_sq);
        }
        // Divergence watchdog: any non-finite value in y/z/u contaminates
        // these four aggregates within one iteration (every slot feeds
        // primal_sq/y_norm_sq, every variable z_norm_sq, every dual the
        // update that produced it), so four is_finite checks are a
        // complete guard — and they run here, coordinator-only, over the
        // merged partials, so detection is bit-identical across threads.
        if !(primal_sq.is_finite()
            && y_norm_sq.is_finite()
            && z_norm_sq.is_finite()
            && dual_sq.is_finite())
        {
            return Some(SolveHealth::Diverged { at: self.attempt });
        }
        let combined = primal_sq.sqrt() + self.rho * dual_sq.sqrt();
        *residual = residual.max(combined);

        let m = block.slots.len() as f64;
        let eps_pri =
            config.eps_abs * m.sqrt() + config.eps_rel * y_norm_sq.sqrt().max(z_norm_sq.sqrt());
        let eps_dual =
            config.eps_abs * m.sqrt() + config.eps_rel * self.rho * dual_sq.sqrt().max(1.0);
        if primal_sq.sqrt() <= eps_pri && self.rho * dual_sq.sqrt() <= eps_dual {
            return Some(SolveHealth::Converged);
        }

        // Stall watchdog: the combined residual must set a new best within
        // the window. (The fault harness can force a stall to exercise the
        // recovery path without constructing a genuinely stuck program.)
        if crate::fault::take(crate::fault::Fault::SolverStall) {
            return Some(SolveHealth::Stalled { at: self.attempt });
        }
        if config.stall_window > 0 {
            if combined < self.best_combined {
                self.best_combined = combined;
                self.stalled_for = 0;
            } else {
                self.stalled_for += 1;
                if self.stalled_for >= config.stall_window {
                    return Some(SolveHealth::Stalled { at: self.attempt });
                }
            }
        }

        // Time budget: checked last so a converging final iteration still
        // reports convergence.
        if timed_out {
            return Some(SolveHealth::TimedOut);
        }

        // Residual balancing (τ = 2, μ = 10). Scaled duals u = λ/ρ, so
        // changing ρ requires rescaling u to keep λ unchanged.
        if config.adaptive_rho && self.attempt.is_multiple_of(50) {
            let primal = primal_sq.sqrt();
            let dual = self.rho * dual_sq.sqrt();
            let factor = if primal > 10.0 * dual {
                2.0
            } else if dual > 10.0 * primal {
                0.5
            } else {
                1.0
            };
            if factor != 1.0 {
                self.rho *= factor;
                ws.rescale_duals(block, factor);
            }
        }
        (self.attempt >= config.max_iterations).then_some(SolveHealth::Capped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinExpr;

    fn lin(terms: &[(usize, f64)], constant: f64) -> LinExpr {
        let mut e = LinExpr::constant(constant);
        for &(v, c) in terms {
            e.add_term(v, c);
        }
        e.normalize();
        e
    }

    fn pot(terms: &[(usize, f64)], constant: f64, weight: f64) -> GroundPotential {
        GroundPotential {
            expr: lin(terms, constant),
            weight,
            squared: false,
            origin: String::new(),
        }
    }

    fn base_config() -> AdmmConfig {
        // Pin the env-sensitive knobs so unit expectations are stable even
        // when the suite runs under ADMM_THREADS / ADMM_PARALLEL_THRESHOLD.
        AdmmConfig {
            threads: 1,
            parallel_threshold: 512,
            ..AdmmConfig::default()
        }
    }

    fn solve(
        potentials: &[GroundPotential],
        constraints: &[GroundConstraint],
        n: usize,
    ) -> AdmmSolution {
        AdmmSolver::new(potentials, constraints, n).solve(&base_config())
    }

    #[test]
    fn single_downward_pressure_drives_to_zero() {
        // minimize max(0, y0): optimum y0 = 0.
        let p = vec![pot(&[(0, 1.0)], 0.0, 1.0)];
        let sol = solve(&p, &[], 1);
        assert!(sol.converged);
        assert!(sol.values[0] < 1e-3, "got {}", sol.values[0]);
    }

    #[test]
    fn single_upward_pressure_drives_to_one() {
        // minimize max(0, 1 − y0): optimum y0 = 1.
        let p = vec![pot(&[(0, -1.0)], 1.0, 1.0)];
        let sol = solve(&p, &[], 1);
        assert!(sol.values[0] > 1.0 - 1e-3, "got {}", sol.values[0]);
    }

    #[test]
    fn weights_break_ties() {
        // w=1 pushes y up, w=3 pushes y down ⇒ y → 0.
        let p = vec![pot(&[(0, -1.0)], 1.0, 1.0), pot(&[(0, 1.0)], 0.0, 3.0)];
        let sol = solve(&p, &[], 1);
        assert!(sol.values[0] < 0.05, "got {}", sol.values[0]);
        // Objective = max(0,1−0)·1 = 1 at the optimum.
        assert!(
            (sol.objective - 1.0).abs() < 0.05,
            "objective {}",
            sol.objective
        );
    }

    #[test]
    fn equality_constraint_is_enforced() {
        // minimize max(0, 1−y0) s.t. y0 = 0.3.
        let p = vec![pot(&[(0, -1.0)], 1.0, 1.0)];
        let c = vec![GroundConstraint {
            expr: lin(&[(0, 1.0)], -0.3),
            kind: ConstraintKind::EqZero,
            origin: String::new(),
        }];
        let sol = AdmmSolver::new(&p, &c, 1).solve(&base_config());
        assert!((sol.values[0] - 0.3).abs() < 1e-3, "got {}", sol.values[0]);
        assert!(sol.max_violation < 1e-3);
    }

    #[test]
    fn inequality_constraint_caps_value() {
        // maximize y0 (via hinge 1−y0) s.t. y0 ≤ 0.6.
        let p = vec![pot(&[(0, -1.0)], 1.0, 2.0)];
        let c = vec![GroundConstraint {
            expr: lin(&[(0, 1.0)], -0.6),
            kind: ConstraintKind::LeqZero,
            origin: String::new(),
        }];
        let sol = AdmmSolver::new(&p, &c, 1).solve(&base_config());
        assert!((sol.values[0] - 0.6).abs() < 1e-2, "got {}", sol.values[0]);
    }

    #[test]
    fn coupled_implication_chain() {
        // Potentials encode: push a up (w=1); a → b hard; b → c hard;
        // push c down (w=0.5). Expect a=b=c=1 since the up-weight beats the
        // 0.5 down-weight through the chain.
        let p = vec![pot(&[(0, -1.0)], 1.0, 1.0), pot(&[(2, 1.0)], 0.0, 0.5)];
        let imp = |x: usize, y: usize| GroundConstraint {
            // x − y ≤ 0  (x implies y in the MAP LP sense x ≤ y)
            expr: lin(&[(x, 1.0), (y, -1.0)], 0.0),
            kind: ConstraintKind::LeqZero,
            origin: String::new(),
        };
        let c = vec![imp(0, 1), imp(1, 2)];
        let sol = AdmmSolver::new(&p, &c, 3).solve(&base_config());
        assert!(sol.values[0] > 0.95, "a = {}", sol.values[0]);
        assert!(sol.values[1] >= sol.values[0] - 1e-2);
        assert!(sol.values[2] >= sol.values[1] - 1e-2);
    }

    #[test]
    fn squared_hinge_balances_opposing_pressures() {
        // minimize max(0,1−y)² + max(0,y)² → optimum y = 0.5 by symmetry.
        let p = vec![
            GroundPotential {
                expr: lin(&[(0, -1.0)], 1.0),
                weight: 1.0,
                squared: true,
                origin: String::new(),
            },
            GroundPotential {
                expr: lin(&[(0, 1.0)], 0.0),
                weight: 1.0,
                squared: true,
                origin: String::new(),
            },
        ];
        let sol = solve(&p, &[], 1);
        assert!((sol.values[0] - 0.5).abs() < 1e-2, "got {}", sol.values[0]);
        assert!((sol.objective - 0.5).abs() < 1e-2);
    }

    #[test]
    fn linear_hinges_tie_breaks_inside_box() {
        // Equal opposing linear hinges: max(0,1−y)+max(0,y) = 1 for
        // y ∈ [0,1]. Just check the objective value is 1 and convergence.
        let p = vec![pot(&[(0, -1.0)], 1.0, 1.0), pot(&[(0, 1.0)], 0.0, 1.0)];
        let sol = solve(&p, &[], 1);
        assert!((sol.objective - 1.0).abs() < 1e-3);
    }

    #[test]
    fn untouched_variables_keep_initial_value() {
        let p = vec![pot(&[(0, 1.0)], 0.0, 1.0)];
        let sol = solve(&p, &[], 3);
        assert!((sol.values[1] - 0.5).abs() < 1e-12);
        assert!((sol.values[2] - 0.5).abs() < 1e-12);
    }

    /// A moderately sized random-ish instance over `n` variables.
    fn random_instance(n: usize) -> Vec<GroundPotential> {
        let mut potentials = Vec::new();
        for i in 0..12 * n {
            let a = i % n;
            let b = (i * 7 + 3) % n;
            if a == b {
                continue;
            }
            potentials.push(pot(
                &[(a, 1.0), (b, -1.0)],
                ((i % 3) as f64 - 1.0) * 0.2,
                1.0 + (i % 4) as f64,
            ));
        }
        potentials
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let potentials = random_instance(50);
        let solver = AdmmSolver::new(&potentials, &[], 50);
        let cfg = AdmmConfig {
            shard_slots: 64, // force several shards
            parallel_threshold: 0,
            ..base_config()
        };
        let serial = solver.solve(&AdmmConfig {
            threads: 1,
            ..cfg.clone()
        });
        for threads in [2usize, 4, 7] {
            let parallel = solver.solve(&AdmmConfig {
                threads,
                ..cfg.clone()
            });
            assert_eq!(serial.iterations, parallel.iterations, "threads={threads}");
            assert_eq!(
                serial.objective.to_bits(),
                parallel.objective.to_bits(),
                "threads={threads}"
            );
            for (v, (a, b)) in serial.values.iter().zip(parallel.values.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads} var {v}");
            }
        }
    }

    #[test]
    fn shard_size_only_changes_grouping_not_the_solution() {
        // Different shard sizes may regroup the residual reduction (and so
        // could, in principle, shift the stopping iteration by rounding),
        // but the fixed point is the same optimum.
        let potentials = random_instance(40);
        let solver = AdmmSolver::new(&potentials, &[], 40);
        let a = solver.solve(&AdmmConfig {
            shard_slots: 7,
            ..base_config()
        });
        let b = solver.solve(&AdmmConfig {
            shard_slots: 4096,
            ..base_config()
        });
        assert!(
            (a.objective - b.objective).abs() < 1e-3,
            "{} vs {}",
            a.objective,
            b.objective
        );
    }

    #[test]
    fn adaptive_rho_reaches_same_optimum() {
        // A badly scaled problem: heavy weights vs default ρ.
        let p = vec![
            pot(&[(0, -1.0)], 1.0, 200.0),
            pot(&[(0, 1.0), (1, -1.0)], 0.0, 50.0),
            pot(&[(1, 1.0)], -0.4, 1.0),
        ];
        let solver = AdmmSolver::new(&p, &[], 2);
        let plain = solver.solve(&base_config());
        let adaptive = solver.solve(&AdmmConfig {
            adaptive_rho: true,
            ..base_config()
        });
        assert!(adaptive.converged);
        assert!(
            (plain.objective - adaptive.objective).abs() < 1e-2,
            "plain {} vs adaptive {}",
            plain.objective,
            adaptive.objective
        );
    }

    #[test]
    fn infeasible_constraints_report_violation() {
        // y0 ≤ 0.2 and y0 ≥ 0.8 cannot both hold; the solver must settle
        // on a compromise and *report* the violation instead of looping.
        let c = vec![
            GroundConstraint {
                expr: lin(&[(0, 1.0)], -0.2),
                kind: ConstraintKind::LeqZero,
                origin: String::new(),
            },
            GroundConstraint {
                expr: lin(&[(0, -1.0)], 0.8),
                kind: ConstraintKind::LeqZero,
                origin: String::new(),
            },
        ];
        let solver = AdmmSolver::new(&[], &c, 1);
        let sol = solver.solve(&AdmmConfig {
            max_iterations: 2_000,
            ..base_config()
        });
        assert!(
            sol.max_violation > 0.25,
            "violation must be visible: {}",
            sol.max_violation
        );
        // The compromise sits between the two infeasible caps.
        assert!(
            sol.values[0] > 0.2 && sol.values[0] < 0.8,
            "y0 = {}",
            sol.values[0]
        );
    }

    #[test]
    fn empty_problem_is_trivially_solved() {
        let sol = solve(&[], &[], 4);
        assert!(sol.converged);
        assert_eq!(sol.iterations, 0);
        assert_eq!(sol.components, 0);
        assert_eq!(sol.values, vec![0.5; 4]);
    }

    /// A connected chain over the `len` variables `offset + stride·i`:
    /// four potentials per link — one component of `4·(len − 1)` terms.
    /// `scale` weights the pulls, which changes how fast it converges.
    fn chain(len: usize, stride: usize, offset: usize, scale: f64) -> Vec<GroundPotential> {
        let var = |i: usize| offset + stride * i;
        let mut out = Vec::new();
        for i in 0..len - 1 {
            let (a, b) = (var(i), var(i + 1));
            out.push(pot(&[(a, 1.0), (b, -1.0)], -0.1, scale));
            out.push(pot(&[(b, 1.0), (a, -1.0)], 0.2, 1.0));
            out.push(pot(&[(a, -1.0)], 0.7, 0.5 * scale));
            out.push(pot(&[(b, 1.0)], -0.2, 1.5));
        }
        out
    }

    /// `chain(10, ..)` on the even variables and a differently weighted
    /// `chain(6, ..)` on the odd ones: two blocks with interleaved ids.
    fn two_chains() -> (Vec<GroundPotential>, usize) {
        let mut potentials = chain(10, 2, 0, 1.0);
        potentials.extend(chain(6, 2, 1, 7.0));
        (potentials, 20)
    }

    #[test]
    fn blocks_solve_exactly_as_alone_and_stop_on_their_own_residuals() {
        let (potentials, n) = two_chains();
        let sol = AdmmSolver::new(&potentials, &[], n).solve(&base_config());
        assert!(sol.converged);
        assert_eq!(sol.components, 2);
        let (long, short) = (chain(10, 1, 0, 1.0), chain(6, 1, 0, 7.0));
        let long_sol = AdmmSolver::new(&long, &[], 10).solve(&base_config());
        let short_sol = AdmmSolver::new(&short, &[], 6).solve(&base_config());
        for i in 0..10 {
            assert_eq!(sol.values[2 * i].to_bits(), long_sol.values[i].to_bits());
        }
        for i in 0..6 {
            assert_eq!(
                sol.values[2 * i + 1].to_bits(),
                short_sol.values[i].to_bits()
            );
        }
        assert_eq!(
            sol.iterations,
            long_sol.iterations.max(short_sol.iterations)
        );
        assert_eq!(
            sol.term_updates,
            long_sol.term_updates + short_sol.term_updates
        );
        assert!(
            sol.term_updates < sol.iterations * potentials.len(),
            "the blocks stop at different iterations"
        );
    }

    #[test]
    fn components_below_the_block_size_share_one_block() {
        // Two single-variable components of one potential each: too small
        // for blocks of their own, so they iterate together, exactly as
        // the program made of them alone.
        let (mut potentials, n) = two_chains();
        let tiny = vec![pot(&[(0, 1.0)], -0.3, 1.0), pot(&[(1, -1.0)], 0.6, 2.0)];
        potentials.extend(tiny.iter().map(|p| GroundPotential {
            expr: lin(
                &[(p.expr.terms[0].0 + n, p.expr.terms[0].1)],
                p.expr.constant,
            ),
            ..p.clone()
        }));
        let sol = AdmmSolver::new(&potentials, &[], n + 2).solve(&base_config());
        assert_eq!(sol.components, 3);
        let alone = AdmmSolver::new(&tiny, &[], 2).solve(&base_config());
        assert_eq!(alone.components, 1);
        for i in 0..2 {
            assert_eq!(sol.values[n + i].to_bits(), alone.values[i].to_bits());
        }
    }

    #[test]
    fn injected_stall_in_a_split_solve_is_reported_and_recovered() {
        let (potentials, n) = two_chains();
        let solver = AdmmSolver::new(&potentials, &[], n);
        crate::fault::arm(crate::fault::Fault::SolverStall);
        let stalled = solver.solve(&base_config());
        assert_eq!(stalled.components, 2);
        assert_eq!(stalled.health, SolveHealth::Stalled { at: 1 });
        assert!(!stalled.converged);

        crate::fault::arm(crate::fault::Fault::SolverStall);
        let sol = solver.solve(&AdmmConfig {
            max_restarts: 2,
            ..base_config()
        });
        assert_eq!(sol.restarts, 1);
        assert!(sol.converged, "health: {:?}", sol.health);
    }

    #[test]
    fn phase_times_are_recorded() {
        let potentials = random_instance(30);
        let solver = AdmmSolver::new(&potentials, &[], 30);
        let sol = solver.solve(&base_config());
        assert!(sol.iterations > 0);
        assert!(sol.local_time > Duration::ZERO);
        assert!(sol.consensus_time > Duration::ZERO);
    }

    /// The infeasible two-cap program: residuals plateau, never converge.
    fn infeasible_constraints() -> Vec<GroundConstraint> {
        vec![
            GroundConstraint {
                expr: lin(&[(0, 1.0)], -0.2),
                kind: ConstraintKind::LeqZero,
                origin: String::new(),
            },
            GroundConstraint {
                expr: lin(&[(0, -1.0)], 0.8),
                kind: ConstraintKind::LeqZero,
                origin: String::new(),
            },
        ]
    }

    #[test]
    fn stall_watchdog_fires_on_infeasible_program() {
        let c = infeasible_constraints();
        let solver = AdmmSolver::new(&[], &c, 1);
        let sol = solver.solve(&AdmmConfig {
            stall_window: 25,
            max_iterations: 10_000,
            ..base_config()
        });
        match sol.health {
            SolveHealth::Stalled { at } => {
                assert_eq!(sol.iterations, at);
                assert!(at < 10_000, "watchdog must beat the cap: {at}");
            }
            other => panic!("expected a stall, got {other:?}"),
        }
        assert!(!sol.converged);
        assert_eq!(sol.restarts, 0);
    }

    #[test]
    fn converging_solves_are_untouched_by_the_stall_window() {
        let potentials = random_instance(40);
        let solver = AdmmSolver::new(&potentials, &[], 40);
        let plain = solver.solve(&base_config());
        let watched = solver.solve(&AdmmConfig {
            stall_window: 50,
            max_restarts: 2,
            ..base_config()
        });
        assert!(plain.converged && watched.converged);
        assert_eq!(plain.iterations, watched.iterations);
        assert_eq!(plain.objective.to_bits(), watched.objective.to_bits());
        assert_eq!(watched.restarts, 0);
    }

    #[test]
    fn zero_time_budget_times_out_immediately() {
        let potentials = random_instance(40);
        let solver = AdmmSolver::new(&potentials, &[], 40);
        let sol = solver.solve(&AdmmConfig {
            time_budget: Some(Duration::ZERO),
            // Restarts must not resurrect a timed-out solve.
            max_restarts: 3,
            ..base_config()
        });
        assert_eq!(sol.health, SolveHealth::TimedOut);
        assert_eq!(sol.iterations, 1);
        assert_eq!(sol.restarts, 0);
        assert!(!sol.converged);
    }

    #[test]
    fn nan_input_is_reported_as_divergence_not_garbage() {
        // A NaN coefficient contaminates y at iteration 1 (the prox factor
        // degrades to 0.0 but `c − 0.0·NaN` is still NaN); without the
        // guard the solve would run to the cap and report garbage.
        let p = vec![pot(&[(0, f64::NAN)], 0.0, 1.0)];
        let solver = AdmmSolver::new(&p, &[], 1);
        let sol = solver.solve(&base_config());
        assert_eq!(sol.health, SolveHealth::Diverged { at: 1 });
        assert_eq!(sol.iterations, 1);
        assert!(!sol.converged);
    }

    #[test]
    fn stall_detection_is_bit_identical_across_thread_counts() {
        let c = infeasible_constraints();
        let solver = AdmmSolver::new(&[], &c, 1);
        let cfg = AdmmConfig {
            stall_window: 25,
            max_iterations: 10_000,
            shard_slots: 64,
            parallel_threshold: 0,
            ..base_config()
        };
        let serial = solver.solve(&AdmmConfig {
            threads: 1,
            ..cfg.clone()
        });
        assert!(matches!(serial.health, SolveHealth::Stalled { .. }));
        for threads in [2usize, 4] {
            let parallel = solver.solve(&AdmmConfig {
                threads,
                ..cfg.clone()
            });
            assert_eq!(serial.health, parallel.health, "threads={threads}");
            assert_eq!(serial.iterations, parallel.iterations, "threads={threads}");
            for (a, b) in serial.values.iter().zip(parallel.values.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn injected_stall_is_one_shot() {
        let potentials = random_instance(20);
        let solver = AdmmSolver::new(&potentials, &[], 20);
        crate::fault::arm(crate::fault::Fault::SolverStall);
        let stalled = solver.solve(&base_config());
        assert_eq!(stalled.health, SolveHealth::Stalled { at: 1 });
        assert_eq!(crate::fault::armed(), None);
        // The injection was consumed: the next solve is clean.
        let clean = solver.solve(&base_config());
        assert!(clean.converged);
    }

    #[test]
    fn injected_stall_triggers_the_restart_policy() {
        let potentials = random_instance(20);
        let solver = AdmmSolver::new(&potentials, &[], 20);
        crate::fault::arm(crate::fault::Fault::SolverStall);
        let sol = solver.solve(&AdmmConfig {
            max_restarts: 2,
            ..base_config()
        });
        // One-shot injection: the restarted attempt runs clean.
        assert_eq!(sol.restarts, 1);
        assert!(sol.converged, "health: {:?}", sol.health);
    }
}
