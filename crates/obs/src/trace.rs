//! Chrome trace-event export: turn recorded spans and journal events
//! into a Perfetto-loadable JSON document.
//!
//! The output is the Chrome tracing "JSON object format": one object
//! with a `traceEvents` array that `ui.perfetto.dev` (or
//! `chrome://tracing`) opens directly. Three event shapes are emitted:
//!
//! * one **complete event** (`"ph":"X"`) per span — `ts`/`dur` in
//!   microseconds on the recording thread's track (`tid`), with the
//!   exact nanosecond fields and the span/parent IDs preserved under
//!   `args` so the export stays lossless;
//! * one **instant event** (`"ph":"i"`, thread scope) per journal
//!   record, on a dedicated `journal` track (tid 0); `args` holds the
//!   record's full JSONL object, so a trace embeds the journal verbatim;
//! * **metadata events** (`"ph":"M"`, `thread_name`) naming each track:
//!   labels registered via [`crate::set_thread_track`]
//!   (`ground-worker-3`, ...), `thread-<tid>` otherwise, and `journal`
//!   for the instants track.
//!
//! [`parse_trace_json`] is the inverse over the fields we own: it
//! rebuilds the [`SpanRecord`]s and [`EventRecord`]s from `args` (the
//! microsecond `ts`/`dur` are display-only), so
//! `parse_trace_json(export_trace_json(..))` round-trips exactly — a
//! property test in `crates/obs/tests` holds this for every event
//! variant.

use crate::journal::{record_from_json, to_json_line, EventRecord};
use crate::json::{self, escape_str, Json};
use crate::span::{SpanId, SpanRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The process ID every track is emitted under (single-process trace).
const TRACE_PID: u64 = 1;

/// A parsed trace: the spans, journal events, and track labels a
/// [`export_trace_json`] document carries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Spans rebuilt from the complete (`"X"`) events.
    pub spans: Vec<SpanRecord>,
    /// Journal records rebuilt from the instant (`"i"`) events.
    pub events: Vec<EventRecord>,
    /// Track labels from `thread_name` metadata, keyed by `tid`.
    pub track_names: BTreeMap<u64, String>,
}

/// Nanoseconds → the microsecond decimal Chrome expects, exact to the
/// nanosecond (`1234567` → `"1234.567"`).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Serialise spans + journal events (+ track labels, e.g. from
/// [`crate::thread_track_names`]) as a Chrome trace-event JSON document.
///
/// Open the result at <https://ui.perfetto.dev>: spans lay out per
/// thread track, journal events appear as instants on the `journal`
/// track, and clicking any slice shows the exact counters under "args".
pub fn export_trace_json(
    spans: &[SpanRecord],
    events: &[EventRecord],
    track_names: &BTreeMap<u64, String>,
) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |obj: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&obj);
    };

    // Track metadata: every tid that appears, named.
    let tids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.tid).collect();
    let mut names: Vec<(u64, String)> = Vec::new();
    for &tid in &tids {
        let name = track_names
            .get(&tid)
            .cloned()
            .unwrap_or_else(|| format!("thread-{tid}"));
        names.push((tid, name));
    }
    if !events.is_empty() {
        names.push((0, "journal".to_owned()));
    }
    for (tid, name) in names {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{TRACE_PID},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                escape_str(&name)
            ),
            &mut out,
        );
    }

    for s in spans {
        let mut obj = format!(
            "{{\"ph\":\"X\",\"pid\":{TRACE_PID},\"tid\":{},\"name\":{},\"cat\":\"span\",\
             \"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{},\"start_ns\":{},\"wall_ns\":{}",
            s.tid,
            escape_str(&s.name),
            us(s.start_ns),
            us(s.wall_ns),
            s.id.0,
            s.parent.0,
            s.start_ns,
            s.wall_ns
        );
        if let Some(cpu) = s.cpu_ns {
            let _ = write!(obj, ",\"cpu_ns\":{cpu}");
        }
        obj.push_str("}}");
        push(obj, &mut out);
    }

    for e in events {
        // The args object is the record's JSONL line verbatim, so the
        // journal schema (and its parser) applies inside the trace too.
        push(
            format!(
                "{{\"ph\":\"i\",\"pid\":{TRACE_PID},\"tid\":0,\"name\":{},\"cat\":\"journal\",\
                 \"ts\":{},\"s\":\"t\",\"args\":{}}}",
                escape_str(e.event.kind()),
                us(e.t_ns),
                to_json_line(e)
            ),
            &mut out,
        );
    }

    out.push_str("]}");
    out
}

/// Parse a Chrome trace-event document produced by [`export_trace_json`]
/// back into its spans, journal events, and track labels. Unknown event
/// phases are ignored (so a trace decorated by other tools still
/// parses); a malformed span/instant is an error.
pub fn parse_trace_json(text: &str) -> Result<Trace, String> {
    let doc = json::parse(text)?;
    let items = match doc.get("traceEvents") {
        Some(Json::Arr(items)) => items,
        _ => return Err("missing traceEvents array".into()),
    };
    let req_u64 = |v: &Json, key: &str| {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing/invalid u64 field {key:?}"))
    };
    let mut trace = Trace::default();
    for (i, item) in items.iter().enumerate() {
        let at = |e: String| format!("traceEvents[{i}]: {e}");
        let ph = item
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing ph".into()))?;
        match ph {
            "X" => {
                let args = item
                    .get("args")
                    .ok_or_else(|| at("span without args".into()))?;
                trace.spans.push(SpanRecord {
                    id: SpanId(req_u64(args, "id").map_err(&at)?),
                    parent: SpanId(req_u64(args, "parent").map_err(&at)?),
                    name: item
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| at("span without name".into()))?
                        .to_owned(),
                    start_ns: req_u64(args, "start_ns").map_err(&at)?,
                    wall_ns: req_u64(args, "wall_ns").map_err(&at)?,
                    cpu_ns: args.get("cpu_ns").and_then(Json::as_u64),
                    tid: req_u64(item, "tid").map_err(&at)?,
                });
            }
            "i" | "I" => {
                let args = item
                    .get("args")
                    .ok_or_else(|| at("instant without args".into()))?;
                trace.events.push(record_from_json(args).map_err(&at)?);
            }
            "M" if item.get("name").and_then(Json::as_str) == Some("thread_name") => {
                if let (Ok(tid), Some(name)) = (
                    req_u64(item, "tid"),
                    item.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str),
                ) {
                    trace.track_names.insert(tid, name.to_owned());
                }
            }
            _ => {}
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Event;
    use crate::stats::GroundStats;

    fn sample_spans() -> Vec<SpanRecord> {
        vec![
            SpanRecord {
                id: SpanId(1),
                parent: SpanId::NONE,
                name: "solve".into(),
                start_ns: 1_234_567,
                wall_ns: 987_654,
                cpu_ns: Some(500_000),
                tid: 1,
            },
            SpanRecord {
                id: SpanId(2),
                parent: SpanId(1),
                name: "solve/worker-0".into(),
                start_ns: 1_300_001,
                wall_ns: 900_000,
                cpu_ns: None,
                tid: 2,
            },
        ]
    }

    fn sample_events() -> Vec<EventRecord> {
        vec![
            EventRecord {
                seq: 0,
                t_ns: 1_000,
                span: SpanId(1),
                event: Event::Ground {
                    rule: "error-link \"σ\"".into(),
                    stats: GroundStats {
                        substitutions: 12,
                        potentials: 3,
                        constant_loss: -2.5,
                        wall: std::time::Duration::from_nanos(777),
                        ..GroundStats::default()
                    },
                },
            },
            EventRecord {
                seq: 1,
                t_ns: 2_500,
                span: SpanId::NONE,
                event: Event::Fault {
                    fault: "solver \"stall\"".into(),
                },
            },
        ]
    }

    #[test]
    fn export_parses_back_losslessly() {
        let spans = sample_spans();
        let events = sample_events();
        let mut tracks = BTreeMap::new();
        tracks.insert(2u64, "ground-worker-0".to_owned());
        let doc = export_trace_json(&spans, &events, &tracks);
        let trace = parse_trace_json(&doc).expect("trace parses");
        assert_eq!(trace.spans, spans);
        assert_eq!(trace.events, events);
        assert_eq!(
            trace.track_names.get(&2).map(String::as_str),
            Some("ground-worker-0")
        );
        assert_eq!(
            trace.track_names.get(&1).map(String::as_str),
            Some("thread-1")
        );
        assert_eq!(
            trace.track_names.get(&0).map(String::as_str),
            Some("journal")
        );
    }

    #[test]
    fn timestamps_are_exact_microsecond_decimals() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_234_567), "1234.567");
    }

    #[test]
    fn emitted_document_is_valid_json_with_perfetto_fields() {
        let doc = export_trace_json(&sample_spans(), &sample_events(), &BTreeMap::new());
        let v = json::parse(&doc).expect("valid JSON");
        let Some(Json::Arr(items)) = v.get("traceEvents") else {
            panic!("traceEvents missing")
        };
        for item in items {
            let ph = item.get("ph").and_then(Json::as_str).unwrap();
            assert!(matches!(ph, "X" | "i" | "M"), "unexpected ph {ph}");
            assert!(item.get("pid").and_then(Json::as_u64).is_some());
            assert!(item.get("tid").and_then(Json::as_u64).is_some());
            if ph == "X" {
                assert!(item.get("ts").and_then(Json::as_f64).unwrap() >= 0.0);
                assert!(item.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
            }
            if ph == "i" {
                assert_eq!(item.get("s").and_then(Json::as_str), Some("t"));
            }
        }
    }

    #[test]
    fn empty_trace_still_loads() {
        let doc = export_trace_json(&[], &[], &BTreeMap::new());
        let trace = parse_trace_json(&doc).expect("empty trace parses");
        assert!(trace.spans.is_empty() && trace.events.is_empty());
    }
}
