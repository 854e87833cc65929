//! Hierarchical spans: RAII guards measuring monotonic wall time and
//! best-effort thread CPU time, with explicit parent IDs for
//! cross-thread attribution.
//!
//! A span opened with [`span`] parents itself under the current
//! thread's innermost open span. Worker threads (the parallel grounder)
//! have no ambient parent, so they open their spans with
//! [`span_with_parent`], passing the ID the coordinating thread captured
//! before spawning — that keeps the tree connected across
//! `std::thread::scope` boundaries.
//!
//! Every record also carries the recording thread's track ID
//! ([`current_tid`]) so the trace export can lay worker threads out on
//! separate tracks and the profiler can subtract same-thread child time
//! when computing self time. Threads can label their track with
//! [`set_thread_track`] (e.g. `ground-worker-0`).
//!
//! Below [`ObsLevel::Spans`] every guard is inert: no ID is allocated,
//! nothing is recorded on drop. The sink is the bounded flight-recorder
//! ring (`CMS_OBS_RING`): when full, the oldest span is evicted and
//! counted in [`spans_dropped`]. CPU sampling reads
//! `/proc/thread-self/stat` — a syscall per span open/close — and can
//! be turned off (`CMS_OBS_CPU=off`) for always-on capture where the
//! ≤2% overhead budget matters more than CPU attribution.

use crate::level::{enabled, ObsLevel};
use crate::ring::{ring_capacity, Ring};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Identifier of a recorded span. `SpanId(0)` is "no span" (the root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span: parents under it render at top level.
    pub const NONE: SpanId = SpanId(0);
}

/// One finished span, recorded when its guard drops.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// This span's ID.
    pub id: SpanId,
    /// Parent span ID, [`SpanId::NONE`] for top-level spans.
    pub parent: SpanId,
    /// Span name, e.g. `solve/local`.
    pub name: String,
    /// Start offset from the process telemetry epoch, nanoseconds.
    pub start_ns: u64,
    /// Monotonic wall duration, nanoseconds.
    pub wall_ns: u64,
    /// Thread CPU time consumed inside the span, when the platform
    /// exposes it (`/proc/thread-self/stat` on Linux) and sampling is
    /// enabled (`CMS_OBS_CPU`).
    pub cpu_ns: Option<u64>,
    /// Track ID of the recording thread (small, process-unique,
    /// assigned on first telemetry use per thread). Trace export lays
    /// each track out as one Perfetto thread.
    pub tid: u64,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static RECORDS: Ring<SpanRecord> = Ring::new();

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process telemetry epoch (first telemetry use).
pub(crate) fn now_ns() -> u64 {
    Instant::now().duration_since(epoch()).as_nanos() as u64
}

thread_local! {
    static CURRENT: Cell<SpanId> = const { Cell::new(SpanId::NONE) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// The current thread's innermost open span, for parenting work handed
/// to other threads or attributing journal events.
pub fn current_span() -> SpanId {
    CURRENT.with(Cell::get)
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// This thread's track ID: small, process-unique, assigned on first use
/// and stable for the thread's lifetime.
pub fn current_tid() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

/// Track names never exceed this many entries — threads come and go,
/// the label map must stay bounded like everything else here.
const TRACK_NAME_CAP: usize = 4096;

static TRACK_NAMES: Mutex<Option<std::collections::BTreeMap<u64, String>>> = Mutex::new(None);

/// Label the calling thread's trace track (e.g. `ground-worker-0`). The
/// trace export emits it as the Perfetto thread name. No-op below
/// [`ObsLevel::Spans`] and once `TRACK_NAME_CAP` (4096) distinct threads
/// have registered.
pub fn set_thread_track(name: impl Into<String>) {
    if !enabled(ObsLevel::Spans) {
        return;
    }
    let tid = current_tid();
    let mut names = TRACK_NAMES.lock().unwrap_or_else(PoisonError::into_inner);
    let names = names.get_or_insert_with(Default::default);
    if names.len() < TRACK_NAME_CAP || names.contains_key(&tid) {
        names.insert(tid, name.into());
    }
}

/// The registered track labels, keyed by track ID.
pub fn thread_track_names() -> std::collections::BTreeMap<u64, String> {
    TRACK_NAMES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
        .unwrap_or_default()
}

// ---------------------------------------------------------------------------
// CPU sampling toggle (CMS_OBS_CPU)
// ---------------------------------------------------------------------------

const CPU_UNSET: u8 = u8::MAX;
static CPU_SAMPLING: AtomicU8 = AtomicU8::new(CPU_UNSET);

fn env_cpu_sampling() -> bool {
    static ENV_CPU: OnceLock<bool> = OnceLock::new();
    *ENV_CPU.get_or_init(|| match std::env::var("CMS_OBS_CPU") {
        Ok(raw) => match raw.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "false" | "no" => false,
            "on" | "1" | "true" | "yes" | "" => true,
            _ => {
                eprintln!("warning: CMS_OBS_CPU={raw:?} is not on/off; CPU sampling on");
                true
            }
        },
        Err(_) => true,
    })
}

fn cpu_sampling() -> bool {
    match CPU_SAMPLING.load(Ordering::Relaxed) {
        CPU_UNSET => env_cpu_sampling(),
        v => v != 0,
    }
}

/// Programmatically force per-span CPU sampling on or off, overriding
/// `CMS_OBS_CPU`. The always-on flight-recorder bench turns it off: the
/// `/proc` read per span open/close is the one span cost that does not
/// fit a ≤2% overhead budget.
pub fn set_cpu_sampling_override(on: bool) {
    CPU_SAMPLING.store(u8::from(on), Ordering::Relaxed);
}

/// Drop a [`set_cpu_sampling_override`] and fall back to `CMS_OBS_CPU`.
pub fn clear_cpu_sampling_override() {
    CPU_SAMPLING.store(CPU_UNSET, Ordering::Relaxed);
}

/// Best-effort CPU time of the calling thread, nanoseconds.
///
/// Linux: utime+stime of `/proc/thread-self/stat`, assuming the
/// userspace-visible 100 Hz tick. Elsewhere: `None`.
fn thread_cpu_ns() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
        // Fields after the comm, which may itself contain spaces and
        // parens; utime and stime are fields 14 and 15 (1-based).
        let rest = &stat[stat.rfind(')')? + 1..];
        let mut fields = rest.split_ascii_whitespace();
        let utime: u64 = fields.nth(11)?.parse().ok()?;
        let stime: u64 = fields.next()?.parse().ok()?;
        Some((utime + stime) * 10_000_000)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

fn sample_cpu() -> Option<u64> {
    if cpu_sampling() {
        thread_cpu_ns()
    } else {
        None
    }
}

fn push_record(record: SpanRecord) {
    RECORDS.push(record.id.0, record, ring_capacity());
}

/// Spans evicted from the span ring over the process lifetime
/// (monotonic; 0 until the ring first overflows).
pub fn spans_dropped() -> u64 {
    RECORDS.dropped_total()
}

/// RAII guard for one span; records a [`SpanRecord`] on drop.
///
/// Must drop on the thread that opened it (it restores that thread's
/// span stack).
#[derive(Debug)]
pub struct SpanGuard {
    state: Option<OpenSpan>,
}

#[derive(Debug)]
struct OpenSpan {
    id: SpanId,
    parent: SpanId,
    prev: SpanId,
    name: String,
    start: Instant,
    start_ns: u64,
    cpu_start: Option<u64>,
}

impl SpanGuard {
    /// The guard's span ID, [`SpanId::NONE`] when spans are disabled.
    pub fn id(&self) -> SpanId {
        self.state.as_ref().map_or(SpanId::NONE, |s| s.id)
    }
}

fn open(name: impl Into<String>, parent: SpanId) -> SpanGuard {
    if !enabled(ObsLevel::Spans) {
        return SpanGuard { state: None };
    }
    let id = SpanId(NEXT_ID.fetch_add(1, Ordering::Relaxed));
    let prev = CURRENT.with(|c| c.replace(id));
    let start = Instant::now();
    SpanGuard {
        state: Some(OpenSpan {
            id,
            parent,
            prev,
            name: name.into(),
            start,
            start_ns: start.duration_since(epoch()).as_nanos() as u64,
            cpu_start: sample_cpu(),
        }),
    }
}

/// Open a span parented under the current thread's innermost open span.
pub fn span(name: impl Into<String>) -> SpanGuard {
    open(name, current_span())
}

/// Open a span under an explicit parent — for worker threads whose
/// logical parent lives on another thread.
pub fn span_with_parent(name: impl Into<String>, parent: SpanId) -> SpanGuard {
    open(name, parent)
}

/// Record an already-measured duration as a finished span — for phase
/// timers accumulated across iterations (e.g. the ADMM local/consensus
/// phases), which no single RAII guard can bracket. The span is
/// backdated so it ends "now". Returns the new span's ID,
/// [`SpanId::NONE`] when spans are disabled.
pub fn record_span_duration(name: impl Into<String>, parent: SpanId, wall_ns: u64) -> SpanId {
    if !enabled(ObsLevel::Spans) {
        return SpanId::NONE;
    }
    let id = SpanId(NEXT_ID.fetch_add(1, Ordering::Relaxed));
    let end_ns = now_ns();
    push_record(SpanRecord {
        id,
        parent,
        name: name.into(),
        start_ns: end_ns.saturating_sub(wall_ns),
        wall_ns,
        cpu_ns: None,
        tid: current_tid(),
    });
    id
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(s) = self.state.take() else { return };
        let wall_ns = s.start.elapsed().as_nanos() as u64;
        let cpu_ns = match s.cpu_start {
            Some(a) => thread_cpu_ns().map(|b| b.saturating_sub(a)),
            None => None,
        };
        CURRENT.with(|c| c.set(s.prev));
        push_record(SpanRecord {
            id: s.id,
            parent: s.parent,
            name: s.name,
            start_ns: s.start_ns,
            wall_ns,
            cpu_ns,
            tid: current_tid(),
        });
    }
}

/// Take every retained span, oldest first, starting a fresh
/// drop-accounting window in the span ring.
pub fn drain_spans() -> Vec<SpanRecord> {
    RECORDS.drain().0
}

/// Clone the retained spans without disturbing capture — the
/// live-reader view.
pub fn snapshot_spans() -> Vec<SpanRecord> {
    RECORDS.snapshot().0
}

/// Render finished spans as an indented tree, children under parents
/// in start order, with wall (and CPU, when known) milliseconds.
pub fn render_tree(records: &[SpanRecord]) -> String {
    let mut by_parent: std::collections::BTreeMap<SpanId, Vec<&SpanRecord>> = Default::default();
    for r in records {
        by_parent.entry(r.parent).or_default().push(r);
    }
    for children in by_parent.values_mut() {
        children.sort_by_key(|r| r.start_ns);
    }
    let known: std::collections::BTreeSet<SpanId> = records.iter().map(|r| r.id).collect();
    let mut out = String::new();
    fn emit(
        out: &mut String,
        by_parent: &std::collections::BTreeMap<SpanId, Vec<&SpanRecord>>,
        node: SpanId,
        depth: usize,
    ) {
        if let Some(children) = by_parent.get(&node) {
            for r in children {
                for _ in 0..depth {
                    out.push_str("  ");
                }
                out.push_str(&r.name);
                out.push_str(&format!(" {:.3}ms", r.wall_ns as f64 / 1e6));
                if let Some(cpu) = r.cpu_ns {
                    out.push_str(&format!(" (cpu {:.1}ms)", cpu as f64 / 1e6));
                }
                out.push('\n');
                emit(out, by_parent, r.id, depth + 1);
            }
        }
    }
    // Roots: explicit NONE parents plus orphans whose parent span was
    // never recorded (e.g. drained separately).
    emit(&mut out, &by_parent, SpanId::NONE, 0);
    for (parent, _) in by_parent.iter() {
        if *parent != SpanId::NONE && !known.contains(parent) {
            emit(&mut out, &by_parent, *parent, 0);
        }
    }
    out
}
