//! Offline shim for the subset of the `criterion` API this workspace uses.
//!
//! Provides [`Criterion`], benchmark groups with `sample_size` /
//! `throughput` / `bench_function` / `bench_with_input`, [`Bencher::iter`],
//! and the [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement model: per benchmark, a short warm-up sizes the number of
//! iterations per sample so one sample takes ≥ ~5 ms, then `sample_size`
//! samples are timed and the mean/min ns-per-iteration are reported on
//! stdout as `bench: <group>/<id> ... <mean> ns/iter (min <min>)` together
//! with a machine-readable JSON line (`{"bench": ..., "mean_ns": ...}`)
//! that also carries the process's peak RSS (`peak_rss_bytes`, from
//! `VmHWM` in `/proc/self/status`; 0 where unavailable) as observed after
//! the benchmark ran.
//!
//! [`BenchmarkGroup::bench_interleaved`] (a shim extension, not real
//! criterion API) times several bodies with round-robin bursts and
//! additionally reports the per-burst `median_ns` — the statistic
//! `bench_gate --ratio` prefers for same-run overhead comparisons.
//!
//! Running with `--test` in the arguments (what `cargo test` passes to
//! bench targets, and what CI smoke runs use) executes each benchmark body
//! exactly once without timing.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Top-level benchmark driver.
pub struct Criterion {
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Criterion {
        let test_mode = std::env::args().any(|a| a == "--test" || a == "--quick");
        Criterion { test_mode }
    }
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            test_mode: self.test_mode,
            sample_size: 10,
            _marker: std::marker::PhantomData,
        }
    }
}

/// Identifies one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` id.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId { id: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId { id: s }
    }
}

/// Units processed per iteration (reported, not used for scaling).
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// A group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    test_mode: bool,
    sample_size: usize,
    // Tie the lifetime to the Criterion borrow like upstream does.
    #[allow(dead_code)]
    _marker: std::marker::PhantomData<&'a ()>,
}

// Separate impl block so the struct literal above stays simple.
impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Record the per-iteration throughput (informational).
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Run a benchmark with no explicit input.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let mut b = Bencher::new(self.test_mode, self.sample_size);
        f(&mut b);
        b.report(&self.name, &id.id);
        self
    }

    /// Run a benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher::new(self.test_mode, self.sample_size);
        f(&mut b, input);
        b.report(&self.name, &id.id);
        self
    }

    /// Measure several benchmark bodies with **sample-interleaved**
    /// timing: every sample round times one burst of each body in turn,
    /// so a noisy scheduling window is charged to all of them roughly
    /// equally instead of landing on whichever body happened to be
    /// running. Use this for same-run ratio comparisons (`bench_gate
    /// --ratio`), where a few percent of sequential-line jitter would
    /// otherwise dominate the quantity being gated. Not part of the real
    /// criterion API — a shim extension.
    pub fn bench_interleaved(&mut self, mut entries: Vec<(BenchmarkId, Box<dyn FnMut() + '_>)>) {
        if self.test_mode {
            for (id, f) in &mut entries {
                f();
                println!("bench: {}/{} ... ok (test mode)", self.name, id.id);
            }
            return;
        }
        // Warm-up: time each body's best of three single iterations, then
        // give every body the same burst length — the iterations the
        // fastest body needs to fill ~5 ms (one, for anything slower). One
        // common length amortizes any per-burst cost (the first iteration
        // after another body ran) identically on every line, and short
        // bursts keep a round's bodies close in time, so a noise window
        // lands on all of them; more rounds, not longer bursts, then steady
        // the per-burst medians the ratio gates compare.
        let fastest = entries
            .iter_mut()
            .map(|(_, f)| {
                (0..3)
                    .map(|_| {
                        let start = Instant::now();
                        f();
                        start.elapsed()
                    })
                    .min()
                    .unwrap_or_default()
            })
            .min()
            .unwrap_or_default();
        let burst = Duration::from_millis(5)
            .as_nanos()
            .div_ceil(fastest.as_nanos().max(1))
            .clamp(1, 1 << 20) as u64;
        let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(self.sample_size); entries.len()];
        for s in 0..self.sample_size {
            // Rotate the starting body each round so no body always runs
            // in the same slot of the round — position-in-round effects
            // (cache state left by the previous body, periodic external
            // noise) average out instead of biasing one line.
            for j in 0..entries.len() {
                let k = (s + j) % entries.len();
                let f = &mut entries[k].1;
                let start = Instant::now();
                for _ in 0..burst {
                    f();
                }
                samples[k].push(start.elapsed().as_nanos() as f64 / burst as f64);
            }
        }
        for (k, (id, _)) in entries.iter().enumerate() {
            let s = &mut samples[k];
            s.sort_by(|a, b| a.total_cmp(b));
            // The median per-burst time is additionally reported
            // (`median_ns`): a sustained noise window inflates the mean of
            // whichever bodies its rounds landed on, while the median only
            // moves if more than half of all rounds were noisy — which
            // shifts every interleaved body together, keeping ratios
            // honest. `bench_gate --ratio` prefers it when present.
            let median = (s[(s.len() - 1) / 2] + s[s.len() / 2]) / 2.0;
            let b = Bencher {
                test_mode: false,
                sample_size: self.sample_size,
                mean_ns: s.iter().sum::<f64>() / s.len() as f64,
                min_ns: s[0],
                median_ns: Some(median),
                ran: true,
            };
            b.report(&self.name, &id.id);
        }
    }

    /// End the group.
    pub fn finish(self) {}
}

/// Times one benchmark body.
pub struct Bencher {
    test_mode: bool,
    sample_size: usize,
    mean_ns: f64,
    min_ns: f64,
    /// Median per-burst time; recorded by [`BenchmarkGroup::bench_interleaved`] only.
    median_ns: Option<f64>,
    ran: bool,
}

impl Bencher {
    fn new(test_mode: bool, sample_size: usize) -> Bencher {
        Bencher {
            test_mode,
            sample_size,
            mean_ns: 0.0,
            min_ns: 0.0,
            median_ns: None,
            ran: false,
        }
    }

    /// Measure the closure. The return value is black-boxed and dropped.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        self.ran = true;
        if self.test_mode {
            std::hint::black_box(routine());
            return;
        }
        // Warm-up: find iterations-per-sample so one sample ≥ ~5 ms.
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(5) || iters >= 1 << 20 {
                break;
            }
            iters *= 2;
        }
        let mut total_ns = 0.0;
        let mut min_ns = f64::INFINITY;
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            let per_iter = start.elapsed().as_nanos() as f64 / iters as f64;
            total_ns += per_iter;
            min_ns = min_ns.min(per_iter);
        }
        self.mean_ns = total_ns / self.sample_size as f64;
        self.min_ns = min_ns;
    }

    fn report(&self, group: &str, id: &str) {
        if !self.ran {
            return;
        }
        if self.test_mode {
            println!("bench: {group}/{id} ... ok (test mode)");
            return;
        }
        let rss = peak_rss_bytes();
        println!(
            "bench: {group}/{id} ... {:.0} ns/iter (min {:.0}, peak rss {:.1} MiB)",
            self.mean_ns,
            self.min_ns,
            rss as f64 / (1024.0 * 1024.0)
        );
        let median = self
            .median_ns
            .map(|m| format!(",\"median_ns\":{m:.1}"))
            .unwrap_or_default();
        println!(
            "{{\"bench\":\"{group}/{id}\",\"mean_ns\":{:.1},\"min_ns\":{:.1}{median},\"peak_rss_bytes\":{rss}}}",
            self.mean_ns, self.min_ns
        );
    }
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where the proc filesystem is unavailable.
/// Self-contained so the shim stays dependency-free.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Bundle benchmark functions, as in criterion.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Emit `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
