//! `obs_diff` — run-diff profiler: attribute the delta between two runs
//! to pipeline phases.
//!
//! Usage: `obs_diff <baseline> <current> [--top N]`
//!
//! Each input is either a **profile JSON** (written by
//! `cms-bench profile --profile-json`) or an **exported journal**
//! (JSONL snapshot, drop-count header optional); both inputs must be
//! the same kind. The diff is phase-attributed and sorted by absolute
//! regression, so when `bench_gate` flags a slowdown this tool says
//! *which phase* paid for it:
//!
//! * profiles: per-label **self** wall-time deltas (the span labels are
//!   the phases: `ground`, `solve`, per-rule children, ...)
//!   plus inclusive deltas and call-count drift;
//! * journals: per-phase wall time aggregated from the typed events
//!   (`chase`, `ground`, `solve/local`, `solve/consensus`) plus every
//!   numeric counter the events carry: each count field of the
//!   `ChaseStats`/`GroundStats` field lists, ADMM iterations and
//!   restarts, faults, ring drops.
//!
//! Exit code 0 on success (the tool explains; `bench_gate` gates),
//! 1 on unreadable or mismatched inputs.

use cms_obs::{Event, JournalSnapshot, Profile};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// One named quantity of a run, in comparable units.
type Table = BTreeMap<String, f64>;

fn load(path: &str) -> Result<(Option<Profile>, Option<JournalSnapshot>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if let Ok(profile) = Profile::parse(&text) {
        return Ok((Some(profile), None));
    }
    match JournalSnapshot::parse(&text) {
        Ok(journal) => Ok((None, Some(journal))),
        Err(e) => Err(format!(
            "{path}: neither a profile JSON nor a journal export ({e})"
        )),
    }
}

/// Self/inclusive wall and call counts per label.
fn profile_tables(p: &Profile) -> (Table, Table, Table) {
    let mut self_ms = Table::new();
    let mut incl_ms = Table::new();
    let mut calls = Table::new();
    for e in &p.entries {
        self_ms.insert(e.label.clone(), e.wall_self_ns as f64 / 1e6);
        incl_ms.insert(e.label.clone(), e.wall_inclusive_ns as f64 / 1e6);
        calls.insert(e.label.clone(), e.count as f64);
    }
    (self_ms, incl_ms, calls)
}

fn add(t: &mut Table, key: &str, v: f64) {
    *t.entry(key.to_owned()).or_insert(0.0) += v;
}

/// Add one stats record: its wall time to `phase` and every count field
/// of its field list as `<phase>.<field>`.
fn add_stats(
    wall_ms: &mut Table,
    counters: &mut Table,
    phase: &str,
    wall: Duration,
    fields: Vec<(&str, f64)>,
) {
    add(wall_ms, phase, wall.as_secs_f64() * 1e3);
    for (field, v) in fields {
        add(counters, &format!("{phase}.{field}"), v);
    }
}

/// Phase wall-time and counter tables aggregated from a journal.
fn journal_tables(j: &JournalSnapshot) -> (Table, Table) {
    let mut wall_ms = Table::new();
    let mut counters = Table::new();
    for r in &j.records {
        let kind = r.event.kind();
        add(&mut counters, &format!("events.{kind}"), 1.0);
        match &r.event {
            Event::Chase(s) => add_stats(&mut wall_ms, &mut counters, kind, s.wall, s.counters()),
            Event::Ground { stats: s, .. } => {
                add_stats(&mut wall_ms, &mut counters, kind, s.wall, s.counters());
            }
            Event::Solve {
                iterations,
                restarts,
                local_ns,
                consensus_ns,
                ..
            } => {
                add(
                    &mut wall_ms,
                    "solve",
                    (*local_ns + *consensus_ns) as f64 / 1e6,
                );
                add(&mut wall_ms, "solve/local", *local_ns as f64 / 1e6);
                add(&mut wall_ms, "solve/consensus", *consensus_ns as f64 / 1e6);
                add(&mut counters, "solve.iterations", *iterations as f64);
                add(&mut counters, "solve.restarts", *restarts as f64);
            }
            Event::Fault { fault } => {
                add(&mut counters, &format!("fault.{fault}"), 1.0);
            }
        }
    }
    counters.insert(
        "journal.events_dropped".to_owned(),
        j.header.events_dropped as f64,
    );
    (wall_ms, counters)
}

/// Rows of `(key, baseline, current)` for every key present in either
/// table, sorted by absolute delta, largest first.
fn diff_rows(base: &Table, cur: &Table) -> Vec<(String, f64, f64)> {
    let mut keys: Vec<&String> = base.keys().chain(cur.keys()).collect();
    keys.sort();
    keys.dedup();
    let mut rows: Vec<(String, f64, f64)> = keys
        .into_iter()
        .map(|k| {
            (
                k.clone(),
                base.get(k).copied().unwrap_or(0.0),
                cur.get(k).copied().unwrap_or(0.0),
            )
        })
        .filter(|(_, b, c)| b != c)
        .collect();
    rows.sort_by(|a, b| {
        let da = (a.2 - a.1).abs();
        let db = (b.2 - b.1).abs();
        db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

fn print_diff(title: &str, unit: &str, rows: &[(String, f64, f64)], top: usize) {
    if rows.is_empty() {
        println!("{title}: no differences");
        return;
    }
    println!("{title} (sorted by |Δ|):");
    println!(
        "  {:<36} {:>14} {:>14} {:>12} {:>9}",
        "phase/key",
        format!("baseline {unit}"),
        format!("current {unit}"),
        format!("Δ {unit}"),
        "Δ%"
    );
    let shown = if top == 0 {
        rows.len()
    } else {
        top.min(rows.len())
    };
    for (key, base, cur) in &rows[..shown] {
        let delta = cur - base;
        let pct = if *base != 0.0 {
            format!("{:+.1}%", delta / base * 100.0)
        } else {
            "new".to_owned()
        };
        println!("  {key:<36} {base:>14.3} {cur:>14.3} {delta:>+12.3} {pct:>9}");
    }
    if rows.len() > shown {
        println!("  ... {} more rows", rows.len() - shown);
    }
}

fn run() -> Result<(), String> {
    let mut paths: Vec<String> = Vec::new();
    let mut top = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--top" => {
                top = args
                    .next()
                    .ok_or("--top needs a value")?
                    .parse()
                    .map_err(|e| format!("--top: {e}"))?;
            }
            other => paths.push(other.to_owned()),
        }
    }
    let [base_path, cur_path] = paths.as_slice() else {
        return Err("usage: obs_diff <baseline> <current> [--top N]".into());
    };

    match (load(base_path)?, load(cur_path)?) {
        ((Some(base), _), (Some(cur), _)) => {
            println!("obs_diff: {base_path} vs {cur_path} (profiles)\n");
            let (b_self, b_incl, b_calls) = profile_tables(&base);
            let (c_self, c_incl, c_calls) = profile_tables(&cur);
            print_diff("self wall time", "ms", &diff_rows(&b_self, &c_self), top);
            println!();
            print_diff(
                "inclusive wall time",
                "ms",
                &diff_rows(&b_incl, &c_incl),
                top,
            );
            println!();
            print_diff("call counts", "calls", &diff_rows(&b_calls, &c_calls), top);
            for (name, p) in [(base_path, &base), (cur_path, &cur)] {
                if p.spans_dropped > 0 {
                    println!(
                        "\nnote: {name} lost {} spans to the ring — its numbers undercount",
                        p.spans_dropped
                    );
                }
            }
        }
        ((_, Some(base)), (_, Some(cur))) => {
            println!("obs_diff: {base_path} vs {cur_path} (journals)\n");
            let (b_wall, b_counters) = journal_tables(&base);
            let (c_wall, c_counters) = journal_tables(&cur);
            print_diff("phase wall time", "ms", &diff_rows(&b_wall, &c_wall), top);
            println!();
            print_diff("counters", "", &diff_rows(&b_counters, &c_counters), top);
        }
        _ => {
            return Err(format!(
                "cannot diff a profile against a journal ({base_path} vs {cur_path}); \
                 export both files from the same tool"
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("obs_diff: {e}");
            ExitCode::FAILURE
        }
    }
}
