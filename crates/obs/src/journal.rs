//! Structured event journal: typed records for chase, ground, solve and
//! fault events, exportable as JSONL and as a human-readable tree.
//!
//! Events are only recorded at [`ObsLevel::Journal`]. Each record
//! carries a process-wide sequence number, a nanosecond timestamp from
//! the telemetry epoch, and the emitting thread's current span ID so a
//! journal can be interleaved with the span tree.
//!
//! Storage is the bounded flight-recorder ring ([`crate::ring`]): the
//! journal keeps the **last** `CMS_OBS_RING` events, overwriting the
//! oldest and counting every eviction in [`events_dropped`], so a
//! long-running process holds bounded memory and loss stays visible.
//! [`snapshot_journal`] clones the live window without disturbing
//! capture; [`drain_journal_snapshot`] takes it together with a
//! [`JournalHeader`] carrying the exact drop accounting, and
//! [`dump_on_degradation`] persists the snapshot to `CMS_OBS_DUMP`
//! whenever a solve degrades (the watchdog restarted it, or it ended
//! unhealthy) — a crash-style black box of the last N events before
//! things went wrong.

use crate::json::{self, escape_str, fmt_f64, Json};
use crate::level::{enabled, ObsLevel};
use crate::ring::{ring_capacity, Ring};
use crate::span::{current_span, now_ns, SpanId, SpanRecord};
use crate::stats::{ChaseStats, GroundStats};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// A typed telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// One chase-engine run.
    Chase(ChaseStats),
    /// One rule grounded from scratch.
    Ground {
        /// Rule name (`rule#i` or the arithmetic rule's name).
        rule: String,
        /// The rule's stats.
        stats: GroundStats,
    },
    /// One ADMM solve (mirrors `AdmmSolution` in `cms-psl`).
    Solve {
        /// Iterations executed.
        iterations: u64,
        /// True iff residuals dropped below tolerance.
        converged: bool,
        /// Independent components solved (0 in exports that predate the
        /// field, which the parser accepts).
        components: u64,
        /// Watchdog restarts.
        restarts: u64,
        /// `SolveHealth` rendering, e.g. `converged` or `stalled@40`.
        health: String,
        /// Objective at the solution.
        objective: f64,
        /// Largest hard-constraint violation.
        max_violation: f64,
        /// Wall time in the local step, nanoseconds.
        local_ns: u64,
        /// Wall time in the consensus step, nanoseconds.
        consensus_ns: u64,
    },
    /// One injected fault observed (from the `cms_psl::fault` harness).
    Fault {
        /// Fault label, e.g. `poison-duals`.
        fault: String,
    },
}

impl Event {
    /// The JSONL `type` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Chase(_) => "chase",
            Event::Ground { .. } => "ground",
            Event::Solve { .. } => "solve",
            Event::Fault { .. } => "fault",
        }
    }
}

/// One journal entry: an [`Event`] plus ordering metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Process-wide emission sequence number (strictly increasing).
    pub seq: u64,
    /// Nanoseconds since the telemetry epoch.
    pub t_ns: u64,
    /// Innermost open span on the emitting thread, 0 for none.
    pub span: SpanId,
    /// The event.
    pub event: Event,
}

static SEQ: AtomicU64 = AtomicU64::new(0);
static EVENTS: Ring<EventRecord> = Ring::new();

/// Record `event` in the journal (no-op below [`ObsLevel::Journal`]).
///
/// The journal is the flight-recorder ring: when the `CMS_OBS_RING`
/// window is full the oldest event is evicted and counted in
/// [`events_dropped`].
pub fn emit(event: Event) {
    if !enabled(ObsLevel::Journal) {
        return;
    }
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let record = EventRecord {
        seq,
        t_ns: now_ns(),
        span: current_span(),
        event,
    };
    EVENTS.push(seq, record, ring_capacity());
}

/// Take every retained journal record, oldest first, starting a fresh
/// drop-accounting window. Use [`drain_journal_snapshot`] to also get
/// the [`JournalHeader`] with the window's drop counts.
pub fn drain_journal() -> Vec<EventRecord> {
    drain_journal_snapshot().records
}

/// Events evicted from the journal ring over the process lifetime
/// (monotonic; 0 until the ring first overflows).
pub fn events_dropped() -> u64 {
    EVENTS.dropped_total()
}

// ---------------------------------------------------------------------------
// Snapshots, the export header, and the degradation dump
// ---------------------------------------------------------------------------

/// Current version of the snapshot header schema.
///
/// Version 2 carries the stats structs' field lists as they are: the
/// `ground`/`reground` records dropped `fallback_fresh_grounds` and
/// `solver_restarts`. Version 3 drops the `reground` and `degradation`
/// kinds and the ground records' splice counters (`terms_reused`,
/// `terms_recomputed`, `arith_bindings_spliced`, `entries_coalesced`,
/// `sources_deduped`). Older exports still parse (unknown keys are
/// ignored) unless they hold a record of a dropped kind.
pub const JOURNAL_HEADER_VERSION: u64 = 3;

/// Drop-accounting metadata exported as the first line of a journal
/// snapshot, so a reader can tell exactly how much the flight recorder
/// overwrote.
///
/// Invariant (verified by `journal_check`): when `events > 0`, the
/// first retained record satisfies `seq == base_seq + events_dropped`,
/// and the retained sequence numbers are contiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// Header schema version ([`JOURNAL_HEADER_VERSION`]).
    pub version: u64,
    /// Retained records in this snapshot.
    pub events: u64,
    /// Sequence number of the first event admitted in this window
    /// (whether or not it is still retained).
    pub base_seq: u64,
    /// Events overwritten (lost) in this window.
    pub events_dropped: u64,
    /// Events overwritten over the process lifetime.
    pub events_dropped_total: u64,
    /// Ring capacity in effect when the snapshot was taken, `0` for
    /// unbounded.
    pub ring_capacity: u64,
}

impl JournalHeader {
    /// The JSONL `type` tag that distinguishes a header from events.
    pub const TYPE: &'static str = "journal-header";

    /// Serialise as a single JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"type\":\"{}\",\"version\":{},\"events\":{},\"base_seq\":{},\
             \"events_dropped\":{},\"events_dropped_total\":{},\"ring_capacity\":{}}}",
            Self::TYPE,
            self.version,
            self.events,
            self.base_seq,
            self.events_dropped,
            self.events_dropped_total,
            self.ring_capacity
        )
    }

    /// Parse a header line — the inverse of [`JournalHeader::to_json_line`].
    pub fn from_json_line(line: &str) -> Result<JournalHeader, String> {
        let v = json::parse(line)?;
        Self::from_json(&v)
    }

    fn from_json(v: &Json) -> Result<JournalHeader, String> {
        if req_str(v, "type")? != Self::TYPE {
            return Err(format!("not a {:?} line", Self::TYPE));
        }
        Ok(JournalHeader {
            version: req_u64(v, "version")?,
            events: req_u64(v, "events")?,
            base_seq: req_u64(v, "base_seq")?,
            events_dropped: req_u64(v, "events_dropped")?,
            events_dropped_total: req_u64(v, "events_dropped_total")?,
            ring_capacity: req_u64(v, "ring_capacity")?,
        })
    }
}

/// A journal window plus its drop accounting: what the flight recorder
/// retained and exactly how much it lost.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalSnapshot {
    /// Drop accounting for this window.
    pub header: JournalHeader,
    /// Retained records, oldest first.
    pub records: Vec<EventRecord>,
}

impl JournalSnapshot {
    /// Serialise as JSONL: one header line, then one line per record.
    pub fn to_jsonl(&self) -> String {
        let mut out = self.header.to_json_line();
        out.push('\n');
        out.push_str(&export_jsonl(&self.records));
        out
    }

    /// Parse a snapshot export back. The header line may appear
    /// anywhere but is conventionally first; without one, a synthetic
    /// zero-drop header is derived from the records (so pre-ring
    /// exports still parse).
    pub fn parse(text: &str) -> Result<JournalSnapshot, String> {
        let mut header = None;
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            if v.get("type").and_then(Json::as_str) == Some(JournalHeader::TYPE) {
                let h = JournalHeader::from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))?;
                if header.replace(h).is_some() {
                    return Err(format!("line {}: duplicate journal header", i + 1));
                }
            } else {
                records.push(record_from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))?);
            }
        }
        let header = header.unwrap_or(JournalHeader {
            version: JOURNAL_HEADER_VERSION,
            events: records.len() as u64,
            base_seq: records.first().map_or(0, |r| r.seq),
            events_dropped: 0,
            events_dropped_total: 0,
            ring_capacity: 0,
        });
        Ok(JournalSnapshot { header, records })
    }
}

fn snapshot_from(
    mut records: Vec<EventRecord>,
    window: crate::ring::RingWindow,
) -> JournalSnapshot {
    records.sort_by_key(|r| r.seq);
    JournalSnapshot {
        header: JournalHeader {
            version: JOURNAL_HEADER_VERSION,
            events: records.len() as u64,
            // An empty window never admitted an event; anchor the base
            // at the next sequence number to be assigned.
            base_seq: window
                .base_key
                .unwrap_or_else(|| SEQ.load(Ordering::Relaxed)),
            events_dropped: window.dropped,
            events_dropped_total: window.dropped_total,
            ring_capacity: ring_capacity().unwrap_or(0) as u64,
        },
        records,
    }
}

/// Clone the retained journal window without disturbing capture — the
/// live-reader view of the flight recorder.
pub fn snapshot_journal() -> JournalSnapshot {
    let (records, window) = EVENTS.snapshot();
    snapshot_from(records, window)
}

/// Take the retained journal window and its drop accounting, starting a
/// fresh window.
pub fn drain_journal_snapshot() -> JournalSnapshot {
    let (records, window) = EVENTS.drain();
    snapshot_from(records, window)
}

static DUMP_OVERRIDE: Mutex<Option<Option<String>>> = Mutex::new(None);

fn env_dump_path() -> Option<String> {
    static ENV_DUMP: OnceLock<Option<String>> = OnceLock::new();
    ENV_DUMP
        .get_or_init(|| {
            std::env::var("CMS_OBS_DUMP")
                .ok()
                .filter(|p| !p.trim().is_empty())
        })
        .clone()
}

fn dump_path() -> Option<String> {
    DUMP_OVERRIDE
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
        .unwrap_or_else(env_dump_path)
}

/// Programmatically set (or, with `None`, suppress) the degradation
/// dump path, overriding `CMS_OBS_DUMP`. Exists so tests can exercise
/// the dump hook in-process (the environment is only consulted once).
pub fn set_dump_path_override(path: Option<&str>) {
    *DUMP_OVERRIDE.lock().unwrap_or_else(PoisonError::into_inner) = Some(path.map(str::to_owned));
}

/// Drop a [`set_dump_path_override`] and fall back to `CMS_OBS_DUMP`.
pub fn clear_dump_path_override() {
    *DUMP_OVERRIDE.lock().unwrap_or_else(PoisonError::into_inner) = None;
}

/// Crash-style flight-recorder dump: the ADMM solver calls this when a
/// solve degrades (its watchdog restarted it, or it ended stalled,
/// diverged or timed out). When a dump path is configured
/// (`CMS_OBS_DUMP` or [`set_dump_path_override`]), persist the current
/// journal snapshot — header line plus the last N retained events — to
/// that path, overwriting any previous dump so the file always holds the
/// window before the *latest* degradation.
///
/// Best-effort by design: IO errors are swallowed (telemetry must never
/// take the pipeline down). Returns the path written, `None` when the
/// dump was skipped or failed.
pub fn dump_on_degradation() -> Option<String> {
    if !enabled(ObsLevel::Journal) {
        return None;
    }
    let path = dump_path()?;
    let snapshot = snapshot_journal();
    std::fs::write(&path, snapshot.to_jsonl()).ok()?;
    Some(path)
}

// ---------------------------------------------------------------------------
// JSONL export / import
// ---------------------------------------------------------------------------

pub(crate) fn push_u64(out: &mut String, key: &str, v: u64) {
    let _ = write!(out, ",\"{key}\":{v}");
}

pub(crate) fn push_f64(out: &mut String, key: &str, v: f64) {
    let _ = write!(out, ",\"{key}\":{}", fmt_f64(v));
}

fn push_str(out: &mut String, key: &str, v: &str) {
    let _ = write!(out, ",\"{key}\":{}", escape_str(v));
}

/// Serialise one record as a single JSON line (no trailing newline).
pub fn to_json_line(r: &EventRecord) -> String {
    let mut out = format!(
        "{{\"seq\":{},\"t_ns\":{},\"span\":{},\"type\":\"{}\"",
        r.seq,
        r.t_ns,
        r.span.0,
        r.event.kind()
    );
    match &r.event {
        Event::Chase(stats) => stats.push_json(&mut out),
        Event::Ground { rule, stats } => {
            push_str(&mut out, "rule", rule);
            stats.push_json(&mut out);
        }
        Event::Solve {
            iterations,
            converged,
            components,
            restarts,
            health,
            objective,
            max_violation,
            local_ns,
            consensus_ns,
        } => {
            push_u64(&mut out, "iterations", *iterations);
            let _ = write!(out, ",\"converged\":{converged}");
            push_u64(&mut out, "components", *components);
            push_u64(&mut out, "restarts", *restarts);
            push_str(&mut out, "health", health);
            push_f64(&mut out, "objective", *objective);
            push_f64(&mut out, "max_violation", *max_violation);
            push_u64(&mut out, "local_ns", *local_ns);
            push_u64(&mut out, "consensus_ns", *consensus_ns);
        }
        Event::Fault { fault } => {
            push_str(&mut out, "fault", fault);
        }
    }
    out.push('}');
    out
}

/// Serialise records as JSONL (one record per line, trailing newline).
pub fn export_jsonl(records: &[EventRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&to_json_line(r));
        out.push('\n');
    }
    out
}

pub(crate) fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing/invalid u64 field {key:?}"))
}

pub(crate) fn req_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing/invalid number field {key:?}"))
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing/invalid string field {key:?}"))
}

/// Parse one JSON line back into an [`EventRecord`] — the inverse of
/// [`to_json_line`], also used by the CI schema validator.
pub fn from_json_line(line: &str) -> Result<EventRecord, String> {
    record_from_json(&json::parse(line)?)
}

/// Parse an already-parsed JSON object into an [`EventRecord`] — shared
/// by [`from_json_line`] and the trace-export parser, which finds the
/// same objects nested inside Chrome trace `args`.
pub(crate) fn record_from_json(v: &Json) -> Result<EventRecord, String> {
    let event = match req_str(v, "type")?.as_str() {
        "chase" => Event::Chase(ChaseStats::parse_json(v)?),
        "ground" => Event::Ground {
            rule: req_str(v, "rule")?,
            stats: GroundStats::parse_json(v)?,
        },
        "solve" => Event::Solve {
            iterations: req_u64(v, "iterations")?,
            converged: v
                .get("converged")
                .and_then(Json::as_bool)
                .ok_or("missing/invalid bool field \"converged\"")?,
            components: match v.get("components") {
                None => 0,
                Some(_) => req_u64(v, "components")?,
            },
            restarts: req_u64(v, "restarts")?,
            health: req_str(v, "health")?,
            objective: req_f64(v, "objective")?,
            max_violation: req_f64(v, "max_violation")?,
            local_ns: req_u64(v, "local_ns")?,
            consensus_ns: req_u64(v, "consensus_ns")?,
        },
        "fault" => Event::Fault {
            fault: req_str(v, "fault")?,
        },
        other => return Err(format!("unknown event type {other:?}")),
    };
    Ok(EventRecord {
        seq: req_u64(v, "seq")?,
        t_ns: req_u64(v, "t_ns")?,
        span: SpanId(req_u64(v, "span")?),
        event,
    })
}

/// Parse a JSONL export back into records (blank lines and
/// [`JournalHeader`] lines skipped — use [`JournalSnapshot::parse`] to
/// also recover the header).
pub fn parse_jsonl(text: &str) -> Result<Vec<EventRecord>, String> {
    Ok(JournalSnapshot::parse(text)?.records)
}

// ---------------------------------------------------------------------------
// Human-readable rendering
// ---------------------------------------------------------------------------

/// A stats block's nonzero counts as `field=value`, then its wall time.
fn stats_summary(counts: Vec<(&str, f64)>, wall: std::time::Duration) -> String {
    let mut out = String::new();
    for (field, v) in counts.into_iter().filter(|&(_, v)| v != 0.0) {
        let _ = write!(out, "{field}={v} ");
    }
    let _ = write!(out, "in {:.3}ms", wall.as_secs_f64() * 1e3);
    out
}

fn event_line(r: &EventRecord) -> String {
    let t_ms = r.t_ns as f64 / 1e6;
    let body = match &r.event {
        Event::Chase(s) => format!("chase: {}", stats_summary(s.counters(), s.wall)),
        Event::Ground { rule, stats: s } => {
            format!("ground {rule}: {}", stats_summary(s.counters(), s.wall))
        }
        Event::Solve {
            iterations,
            components,
            health,
            restarts,
            objective,
            ..
        } => format!(
            "solve: {iterations} iters, {components} components, health={health}, \
             restarts={restarts}, obj={objective:.3}"
        ),
        Event::Fault { fault } => format!("fault injected: {fault}"),
    };
    format!("[{t_ms:9.3}ms] #{} {}", r.seq, body)
}

/// Render the journal as a human-readable tree: events nest under the
/// span tree (when `spans` covers their span ID) and otherwise print
/// flat in sequence order.
pub fn render_tree(spans: &[SpanRecord], events: &[EventRecord]) -> String {
    use std::collections::BTreeMap;
    let mut by_span: BTreeMap<SpanId, Vec<&EventRecord>> = BTreeMap::new();
    let known: std::collections::BTreeSet<SpanId> = spans.iter().map(|s| s.id).collect();
    let mut flat: Vec<&EventRecord> = Vec::new();
    for e in events {
        if e.span != SpanId::NONE && known.contains(&e.span) {
            by_span.entry(e.span).or_default().push(e);
        } else {
            flat.push(e);
        }
    }
    let mut children: BTreeMap<SpanId, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    for v in children.values_mut() {
        v.sort_by_key(|s| s.start_ns);
    }
    fn emit(
        out: &mut String,
        children: &BTreeMap<SpanId, Vec<&SpanRecord>>,
        by_span: &BTreeMap<SpanId, Vec<&EventRecord>>,
        node: SpanId,
        depth: usize,
    ) {
        if let Some(kids) = children.get(&node) {
            for s in kids {
                for _ in 0..depth {
                    out.push_str("  ");
                }
                let _ = writeln!(out, "{} {:.3}ms", s.name, s.wall_ns as f64 / 1e6);
                if let Some(events) = by_span.get(&s.id) {
                    for e in events {
                        for _ in 0..=depth {
                            out.push_str("  ");
                        }
                        out.push_str(&event_line(e));
                        out.push('\n');
                    }
                }
                emit(out, children, by_span, s.id, depth + 1);
            }
        }
    }
    let mut out = String::new();
    emit(&mut out, &children, &by_span, SpanId::NONE, 0);
    for e in flat {
        out.push_str(&event_line(e));
        out.push('\n');
    }
    out
}
