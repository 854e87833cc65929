//! `cms-obs`: the unified telemetry core for the schema-mapping
//! selection pipeline — zero dependencies, no `unsafe`.
//!
//! Three cooperating facilities, all gated by one [`ObsLevel`] resolved
//! from the `CMS_OBS` environment variable (`off`/`stats`/`spans`/
//! `journal`) or a programmatic [`set_level_override`]:
//!
//! * a **metrics registry** ([`registry`]) of named counters, gauges
//!   and fixed-bucket histograms with atomic recording and a
//!   snapshot/diff API — active from [`ObsLevel::Stats`];
//! * hierarchical **spans** ([`span()`], [`span_with_parent`]) measuring
//!   monotonic wall time and best-effort thread CPU time, with
//!   explicit parent IDs for worker threads — active from
//!   [`ObsLevel::Spans`];
//! * a **structured event journal** ([`emit`]) of typed chase /
//!   ground / solve / fault records,
//!   exportable as JSONL ([`export_jsonl`]) and as a human-readable
//!   tree ([`render_tree`]) — active at [`ObsLevel::Journal`].
//!
//! The chase and grounding records carry the engines' own
//! [`ChaseStats`] and [`GroundStats`], each declared once in [`stats`].
//!
//! At `off` every recording call is one relaxed atomic load and an
//! untaken branch; the ADMM bench gates the `stats` level at ≤2%
//! overhead on the `data-scale` PSL solve. See `docs/observability.md`
//! for the span hierarchy, metric names and JSONL schema.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod json;
pub mod level;
pub mod metrics;
pub mod profile;
pub mod ring;
pub mod rss;
pub mod span;
pub mod stats;
pub mod trace;

pub use journal::{
    clear_dump_path_override, drain_journal, drain_journal_snapshot, dump_on_degradation, emit,
    events_dropped, export_jsonl, from_json_line, parse_jsonl, render_tree, set_dump_path_override,
    snapshot_journal, to_json_line, Event, EventRecord, JournalHeader, JournalSnapshot,
};
pub use level::{clear_level_override, enabled, level, set_level_override, ObsLevel};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, LazyCounter, LazyHistogram, MetricsSnapshot,
    Registry,
};
pub use profile::{profile, profile_report, ChildRow, Profile, ProfileEntry};
pub use ring::{
    clear_ring_capacity_override, ring_capacity, set_ring_capacity_override, Ring, RingWindow,
    DEFAULT_RING_CAPACITY,
};
pub use rss::peak_rss_bytes;
pub use span::{
    clear_cpu_sampling_override, current_span, current_tid, drain_spans, record_span_duration,
    render_tree as render_span_tree, set_cpu_sampling_override, set_thread_track, snapshot_spans,
    span, span_with_parent, spans_dropped, thread_track_names, SpanGuard, SpanId, SpanRecord,
};
pub use stats::{ChaseStats, GroundStats};
pub use trace::{export_trace_json, parse_trace_json};

use std::sync::OnceLock;

/// The process-wide metrics registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Convenience: bump the named counter by `n` when the level is at
/// least [`ObsLevel::Stats`].
///
/// Takes the registry lock — fine once per ground/solve/chase, not
/// inside per-iteration loops (pre-fetch a handle there, or use a
/// `static` [`LazyCounter`], which caches the handle after its first
/// recording).
pub fn count(name: &str, n: u64) {
    if enabled(ObsLevel::Stats) {
        registry().counter(name).add(n);
    }
}
