//! Bench regression gate: compare criterion-shim JSON output against
//! checked-in baseline snapshots and fail on regressions.
//!
//! The criterion shim prints one machine-readable line per benchmark:
//!
//! ```text
//! {"bench":"grounding/ground-plan/4","mean_ns":2540216.0,"min_ns":2324052.0}
//! ```
//!
//! and the committed `BENCH_*_baseline.json` files record the same keys
//! under `"benches"`, one per line. This gate parses both (no JSON crate
//! needed for our own fixed format), matches benchmarks by name, and fails
//! when the current **min** ns/iter exceeds `factor ×` the baseline
//! **mean** — min-vs-mean absorbs shared-runner noise while a genuine
//! `factor`-sized regression still trips.
//!
//! ```text
//! bench_gate --baseline BENCH_grounding_baseline.json --log grounding.log \
//!            --baseline BENCH_admm_baseline.json --log admm.log \
//!            [--factor 2.0] [--ratio a/x/1:b/y/1<=1.05]...
//! ```
//!
//! `--ratio A:B<=L` additionally requires the *current* typical cost of
//! bench `A` to be at most `L ×` that of bench `B` — a same-run
//! comparison that survives machine changes, used to gate the
//! self-healing watchdog's and telemetry's clean-path overhead at a few
//! percent. "Typical cost" is `median_ns` where the log carries it
//! (emitted by the shim's `bench_interleaved`, whose round-robin
//! sampling makes the median ratio immune to both slow drift and
//! sustained noise windows), falling back to `mean_ns`. Minimums are
//! never used for ratios: they are an extreme statistic whose
//! run-to-run variance swamps a 2–5% bound.
//!
//! The report is a structured diff, not a panic trace:
//!
//! * `FAIL <name>: … regression` — current min exceeded the limit;
//! * `FAIL <name>: … missing from bench logs` — a baseline bench no log
//!   reported (bit-rotted bench names must fail CI too);
//! * `note <name>: … not in any baseline` — a logged bench no baseline
//!   covers (warning only: new benches land before their baseline does,
//!   and each log is checked against the union of all baselines);
//! * unreadable/malformed files and bad arguments report the offending
//!   path and exit non-zero (exit code 2 for usage errors, 1 for gate
//!   failures) instead of panicking.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

/// Pull `"field":<number>` out of a JSON-ish line (our own fixed format).
fn field(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":");
    let start = line.find(&key)? + key.len();
    let rest = line[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pull the quoted value after `"bench":` or a line-leading quoted key.
fn bench_name(line: &str) -> Option<String> {
    let start = if let Some(p) = line.find("\"bench\":\"") {
        p + "\"bench\":\"".len()
    } else {
        let t = line.trim_start();
        if !t.starts_with('"') {
            return None;
        }
        line.find('"')? + 1
    };
    let end = line[start..].find('"')? + start;
    let name = &line[start..end];
    // Baseline keys and log names both look like "group/id[/param]".
    name.contains('/').then(|| name.to_owned())
}

/// One parsed benchmark line.
#[derive(Clone, Copy)]
struct Bench {
    mean: f64,
    min: f64,
    /// Only present in logs from interleaved measurement.
    median: Option<f64>,
}

/// Parse `name -> {mean_ns, min_ns, median_ns?}` from either a bench log
/// or a baseline snapshot (both carry one bench per line). An unreadable
/// file is an error; a readable file with no bench lines is reported too,
/// so a truncated log cannot silently pass the gate.
fn parse(path: &str) -> Result<BTreeMap<String, Bench>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let (Some(name), Some(mean)) = (bench_name(line), field(line, "mean_ns")) else {
            continue;
        };
        let min = field(line, "min_ns").unwrap_or(mean);
        let median = field(line, "median_ns");
        out.insert(name, Bench { mean, min, median });
    }
    if out.is_empty() {
        return Err(format!("no benchmark lines found in {path}"));
    }
    Ok(out)
}

struct Args {
    baselines: Vec<String>,
    logs: Vec<String>,
    factor: f64,
    /// Same-run bounds `(numerator, denominator, limit)` from `--ratio`.
    ratios: Vec<(String, String, f64)>,
}

/// Parse one `--ratio` spec of the form `A:B<=L`.
fn parse_ratio(spec: &str) -> Result<(String, String, f64), String> {
    let bad = || format!("--ratio must look like bench_a:bench_b<=1.05, got {spec:?}");
    let (names, limit) = spec.split_once("<=").ok_or_else(bad)?;
    let (a, b) = names.split_once(':').ok_or_else(bad)?;
    let limit: f64 = limit.parse().map_err(|_| bad())?;
    if a.is_empty() || b.is_empty() || !limit.is_finite() || limit <= 0.0 {
        return Err(bad());
    }
    Ok((a.to_owned(), b.to_owned(), limit))
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        baselines: Vec::new(),
        logs: Vec::new(),
        factor: 2.0,
        ratios: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => parsed
                .baselines
                .push(args.next().ok_or("--baseline needs a path")?),
            "--log" => parsed.logs.push(args.next().ok_or("--log needs a path")?),
            "--ratio" => parsed
                .ratios
                .push(parse_ratio(&args.next().ok_or("--ratio needs a spec")?)?),
            "--factor" => {
                let raw = args.next().ok_or("--factor needs a value")?;
                parsed.factor = raw
                    .parse()
                    .map_err(|_| format!("--factor must be a number, got {raw:?}"))?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.baselines.is_empty() || parsed.logs.is_empty() {
        return Err(
            "usage: bench_gate --baseline <json>... --log <bench output>... [--factor 2.0]"
                .to_owned(),
        );
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<usize, String> {
    let mut current: BTreeMap<String, Bench> = BTreeMap::new();
    for log in &args.logs {
        current.extend(parse(log)?);
    }
    let mut failures = 0usize;
    let mut checked = 0usize;
    let mut covered: BTreeSet<String> = BTreeSet::new();
    for baseline_file in &args.baselines {
        for (name, base) in parse(baseline_file)? {
            let Some(&cur) = current.get(&name) else {
                println!("FAIL {name}: present in {baseline_file} but missing from bench logs");
                failures += 1;
                continue;
            };
            checked += 1;
            let base_mean = base.mean;
            let ratio = cur.min / base_mean;
            let verdict = if cur.min > args.factor * base_mean {
                failures += 1;
                "FAIL"
            } else {
                "ok"
            };
            println!(
                "{verdict:4} {name}: baseline mean {base_mean:.0} ns, current mean {:.0} / min {:.0} ns (min/baseline = {ratio:.2}x, limit {:.1}x)",
                cur.mean, cur.min, args.factor
            );
            covered.insert(name);
        }
    }
    for name in current.keys() {
        if !covered.contains(name) {
            println!("note {name}: in bench logs but not in any baseline (unguarded)");
        }
    }
    for (a, b, limit) in &args.ratios {
        let (Some(&bench_a), Some(&bench_b)) = (current.get(a), current.get(b)) else {
            let missing = if current.contains_key(a) { b } else { a };
            println!("FAIL ratio {a}:{b}: {missing} missing from bench logs");
            failures += 1;
            continue;
        };
        checked += 1;
        // Medians only compare against medians; a median-vs-mean ratio
        // would mix statistics with different biases.
        let (stat, cost_a, cost_b) = match (bench_a.median, bench_b.median) {
            (Some(ma), Some(mb)) => ("median", ma, mb),
            _ => ("mean", bench_a.mean, bench_b.mean),
        };
        let ratio = cost_a / cost_b;
        let verdict = if ratio > *limit {
            failures += 1;
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "{verdict:4} ratio {a}:{b}: {stat} {cost_a:.0} / {cost_b:.0} ns = {ratio:.3}x (limit {limit:.2}x)"
        );
    }
    println!("bench_gate: {checked} benchmarks checked, {failures} regression(s)");
    Ok(failures)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("bench_gate: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("bench_gate: {msg}");
            ExitCode::from(2)
        }
    }
}
