//! Validate an exported telemetry journal against the JSONL event schema
//! and the flight recorder's drop accounting.
//!
//! Usage: `journal_check <journal.jsonl> [--require <kind,kind,...>]`
//!
//! Every line must parse back into a typed [`cms_obs::EventRecord`] (the
//! parser is the exact inverse of the exporter, so this checks field
//! names, types, and per-variant shape — not just JSON well-formedness),
//! with one optional `journal-header` line carrying the ring's drop
//! counts. Checks:
//!
//! * sequence numbers strictly increasing in file order;
//! * **drop accounting is exact**: the gaps in `seq` (events missing
//!   before the first retained record relative to the header's
//!   `base_seq`, plus any holes between retained records) must equal the
//!   header's `events_dropped` — the census notes gaps exactly when
//!   drops are reported, never otherwise. Headerless exports are held to
//!   zero internal gaps (pre-ring journals were complete);
//! * every required event kind occurs at least once. The default
//!   requirement is what a pipeline run with an injected solver fault
//!   emits: `chase,solve,fault`.
//!
//! Exits 0 and prints a per-kind census (plus the drop accounting) on
//! success; prints the first offending line and exits 1 on failure.

use cms_obs::JournalSnapshot;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: journal_check <journal.jsonl> [--require <kind,kind,...>]");
        return ExitCode::FAILURE;
    };
    let mut required: Vec<String> = ["chase", "solve", "fault"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    if args.next().as_deref() == Some("--require") {
        let kinds = args.next().unwrap_or_default();
        required = kinds.split(',').map(str::to_owned).collect();
    }

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("journal_check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let had_header = text.lines().any(|l| l.contains("\"journal-header\""));

    // The snapshot parser enforces the per-line schema (exact inverse of
    // the exporter) and at-most-one header; a headerless file gets a
    // synthetic zero-drop header anchored at the first record.
    let snapshot = match JournalSnapshot::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("journal_check: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let header = &snapshot.header;
    let records = &snapshot.records;

    let mut census: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut internal_gaps: u64 = 0;
    let mut last_seq: Option<u64> = None;
    for record in records {
        if let Some(prev) = last_seq {
            if record.seq <= prev {
                eprintln!(
                    "journal_check: {path}: seq {} not greater than previous {prev}",
                    record.seq
                );
                return ExitCode::FAILURE;
            }
            internal_gaps += record.seq - prev - 1;
        }
        last_seq = Some(record.seq);
        *census.entry(record.event.kind()).or_default() += 1;
    }

    // Drop accounting: gaps in seq exactly when drops are reported.
    if header.events != records.len() as u64 {
        eprintln!(
            "journal_check: {path}: header claims {} events but {} records follow",
            header.events,
            records.len()
        );
        return ExitCode::FAILURE;
    }
    let leading_gap = match records.first() {
        Some(first) if had_header => {
            if first.seq < header.base_seq {
                eprintln!(
                    "journal_check: {path}: first seq {} precedes header base_seq {}",
                    first.seq, header.base_seq
                );
                return ExitCode::FAILURE;
            }
            first.seq - header.base_seq
        }
        // Headerless exports (or an empty window) have no base to gap
        // against; only internal holes can indicate loss.
        _ => 0,
    };
    let gaps = leading_gap + internal_gaps;
    if gaps != header.events_dropped {
        eprintln!(
            "journal_check: {path}: seq census finds {gaps} missing events \
             ({leading_gap} before the first retained record, {internal_gaps} internal) \
             but the header reports events_dropped={}",
            header.events_dropped
        );
        return ExitCode::FAILURE;
    }

    let total: usize = census.values().sum();
    println!("journal_check: {path}: {total} events");
    if had_header {
        println!(
            "  header: base_seq={}, events_dropped={} (lifetime {}), ring_capacity={}",
            header.base_seq,
            header.events_dropped,
            header.events_dropped_total,
            header.ring_capacity
        );
    }
    for (kind, n) in &census {
        println!("  {kind}: {n}");
    }
    let missing: Vec<&str> = required
        .iter()
        .filter(|k| !census.contains_key(k.as_str()))
        .map(String::as_str)
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "journal_check: {path}: missing required event kinds: {}",
            missing.join(", ")
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
