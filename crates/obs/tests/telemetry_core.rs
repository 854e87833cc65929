//! Integration tests for the telemetry core: span nesting/parenting
//! under `std::thread::scope` parallelism, snapshot diffing across the
//! global registry, and a property test that the JSONL export
//! round-trips every event variant.
//!
//! The span sink, journal and level are process-global, so every test
//! serialises on one mutex and drains shared state before running.

use cms_obs::{
    drain_journal, drain_spans, emit, export_jsonl, export_trace_json, parse_jsonl,
    parse_trace_json, render_span_tree, render_tree, set_level_override, span, span_with_parent,
    ChaseStats, Event, EventRecord, GroundStats, ObsLevel, SpanId, SpanRecord,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    drain_spans();
    drain_journal();
    guard
}

#[test]
fn spans_nest_on_one_thread_and_parent_explicitly_across_scoped_threads() {
    let _guard = exclusive();
    set_level_override(ObsLevel::Spans);

    let solve = span("solve");
    let solve_id = solve.id();
    assert_ne!(solve_id, SpanId::NONE);
    {
        let inner = span("solve/consensus");
        assert_ne!(inner.id(), solve_id);
    }
    // Worker threads have no ambient parent: without an explicit one
    // they would record as roots, with one they attribute under the
    // coordinating span.
    std::thread::scope(|scope| {
        for worker in 0..3 {
            scope.spawn(move || {
                let _w = span_with_parent(format!("solve/worker-{worker}"), solve_id);
                let _nested = span("solve/worker-local");
            });
        }
    });
    drop(solve);
    set_level_override(ObsLevel::Off);

    let records = drain_spans();
    assert_eq!(records.len(), 8);
    let by_name = |name: &str| {
        records
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("span {name} missing"))
    };
    assert_eq!(by_name("solve").parent, SpanId::NONE);
    assert_eq!(by_name("solve/consensus").parent, solve_id);
    for worker in 0..3 {
        let w = by_name(&format!("solve/worker-{worker}"));
        assert_eq!(w.parent, solve_id, "worker spans parent explicitly");
    }
    // Each worker-local span nested under that worker's thread-local
    // current span, not under the coordinator.
    let worker_ids: Vec<SpanId> = records
        .iter()
        .filter(|r| r.name.starts_with("solve/worker-") && r.name != "solve/worker-local")
        .map(|r| r.id)
        .collect();
    let locals: Vec<_> = records
        .iter()
        .filter(|r| r.name == "solve/worker-local")
        .collect();
    assert_eq!(locals.len(), 3);
    for local in &locals {
        assert!(worker_ids.contains(&local.parent));
    }
    // All spans observed a monotonic clock and appear in the render.
    let tree = render_span_tree(&records);
    assert!(tree.contains("solve"));
    assert!(tree.contains("solve/worker-1"));

    // Guards are inert below the Spans level.
    let off = span("ignored");
    assert_eq!(off.id(), SpanId::NONE);
    drop(off);
    assert!(drain_spans().is_empty());
}

#[test]
fn journal_records_attach_to_the_emitting_spans() {
    let _guard = exclusive();
    set_level_override(ObsLevel::Journal);

    let outer = span("pipeline");
    let outer_id = outer.id();
    emit(Event::Fault {
        fault: "solver-stall".into(),
    });
    drop(outer);
    emit(Event::Solve {
        iterations: 40,
        converged: false,
        components: 1,
        restarts: 1,
        health: "stalled@40".into(),
        objective: 1.5,
        max_violation: 0.0,
        local_ns: 10,
        consensus_ns: 20,
    });
    set_level_override(ObsLevel::Off);

    let spans = drain_spans();
    let events = drain_journal();
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].span, outer_id);
    assert_eq!(events[1].span, SpanId::NONE);
    assert!(events[0].seq < events[1].seq);
    let tree = render_tree(&spans, &events);
    assert!(tree.contains("pipeline"));
    assert!(tree.contains("solver-stall"));
    assert!(tree.contains("health=stalled@40"));
}

#[test]
fn journal_is_silent_below_journal_level() {
    let _guard = exclusive();
    set_level_override(ObsLevel::Spans);
    emit(Event::Fault {
        fault: "ignored".into(),
    });
    set_level_override(ObsLevel::Off);
    assert!(drain_journal().is_empty());
}

fn tricky_strings() -> Vec<String> {
    vec![
        String::new(),
        "rule#0".into(),
        "stalled@40".into(),
        "quote\" slash\\ nl\n tab\t".into(),
        "unicode — σ \u{1}".into(),
    ]
}

fn ground_stats_strategy() -> impl Strategy<Value = GroundStats> {
    (
        (
            0usize..1_000_000,
            0usize..1_000_000,
            0usize..1_000,
            0usize..1_000,
        ),
        (-1e9f64..1e9, 0usize..1_000_000, 0usize..1_000_000),
        0u64..10_000_000_000,
    )
        .prop_map(|(a, b, wall_ns)| GroundStats {
            substitutions: a.0,
            potentials: a.1,
            constraints: a.2,
            pruned: a.3,
            constant_loss: b.0,
            candidates_probed: b.1,
            candidates_scanned: b.2,
            wall: Duration::from_nanos(wall_ns),
        })
}

fn chase_stats_strategy() -> impl Strategy<Value = ChaseStats> {
    (
        (
            0usize..100,
            0usize..10_000,
            0usize..1_000_000,
            0usize..1_000_000,
        ),
        (0usize..1_000_000, 0usize..1_000_000),
        (0usize..100_000, 0usize..100_000, 0u64..10_000_000_000),
    )
        .prop_map(|(a, b, c)| ChaseStats {
            tgds: a.0,
            trie_nodes: a.1,
            prefix_bindings_computed: a.2,
            prefix_bindings_reused: a.3,
            candidates_probed: b.0,
            candidates_scanned: b.1,
            firings: c.0,
            tuples_emitted: c.1,
            wall: Duration::from_nanos(c.2),
        })
}

fn event_strategy() -> impl Strategy<Value = Event> {
    let strings = prop::sample::select(tricky_strings());
    prop_oneof![
        chase_stats_strategy().prop_map(Event::Chase),
        (
            prop::sample::select(tricky_strings()),
            ground_stats_strategy()
        )
            .prop_map(|(rule, stats)| Event::Ground { rule, stats }),
        (
            (0u64..100_000, any::<bool>(), 0u64..8),
            prop::sample::select(tricky_strings()),
            (-1e6f64..1e6, 0f64..10.0),
            (0u64..10_000_000_000, 0u64..10_000_000_000),
        )
            .prop_map(|(a, health, obj, t)| Event::Solve {
                iterations: a.0,
                converged: a.1,
                components: a.0 % 64,
                restarts: a.2,
                health,
                objective: obj.0,
                max_violation: obj.1,
                local_ns: t.0,
                consensus_ns: t.1,
            }),
        strings.prop_map(|fault| Event::Fault { fault }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn jsonl_export_round_trips_every_event_variant(
        events in prop::collection::vec(event_strategy(), 1..8),
        seq0 in 0u64..1_000_000,
        span in 0u64..1_000,
    ) {
        let records: Vec<EventRecord> = events
            .into_iter()
            .enumerate()
            .map(|(i, event)| EventRecord {
                seq: seq0 + i as u64,
                t_ns: seq0.wrapping_mul(31).wrapping_add(i as u64 * 17) % 10_000_000_000,
                span: SpanId(span),
                event,
            })
            .collect();
        let jsonl = export_jsonl(&records);
        let parsed = parse_jsonl(&jsonl).expect("export must parse");
        prop_assert_eq!(parsed, records);
    }
}

#[test]
fn solve_events_without_a_components_key_still_parse() {
    // Exports written before `components` joined the solve event.
    let line = "{\"seq\":3,\"t_ns\":10,\"span\":0,\"type\":\"solve\",\"iterations\":7,\
                \"converged\":true,\"restarts\":0,\"health\":\"converged\",\"objective\":1.5,\
                \"max_violation\":0,\"local_ns\":5,\"consensus_ns\":6}";
    let parsed = parse_jsonl(line).expect("legacy solve event parses");
    match &parsed[0].event {
        Event::Solve {
            iterations,
            components,
            ..
        } => assert_eq!((*iterations, *components), (7, 0)),
        other => panic!("expected a solve event, got {other:?}"),
    }
    let bad = line.replace(
        "\"iterations\":7,",
        "\"iterations\":7,\"components\":\"x\",",
    );
    assert!(
        parse_jsonl(&bad).is_err(),
        "a malformed components key is rejected"
    );
}

fn span_strategy() -> impl Strategy<Value = SpanRecord> {
    (
        (1u64..1_000, 0u64..1_000),
        prop::sample::select(tricky_strings()),
        (0u64..10_000_000_000, 0u64..10_000_000_000),
        prop::option::of(0u64..10_000_000_000),
        // tid 0 is reserved for the journal instants track.
        1u64..8,
    )
        .prop_map(|(ids, name, t, cpu_ns, tid)| SpanRecord {
            id: SpanId(ids.0),
            parent: SpanId(ids.1),
            name,
            start_ns: t.0,
            wall_ns: t.1,
            cpu_ns,
            tid,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn trace_export_is_perfetto_valid_and_lossless(
        spans in prop::collection::vec(span_strategy(), 0..8),
        events in prop::collection::vec(event_strategy(), 0..8),
        named in prop::collection::vec(any::<bool>(), 8),
    ) {
        let records: Vec<EventRecord> = events
            .into_iter()
            .enumerate()
            .map(|(i, event)| EventRecord {
                seq: i as u64 * 3,
                t_ns: i as u64 * 1_000_003,
                span: SpanId(i as u64 % 5),
                event,
            })
            .collect();
        // Name an arbitrary subset of the span tracks; unnamed tids must
        // come back as "thread-<tid>".
        let mut tracks = BTreeMap::new();
        for s in &spans {
            if named[s.tid as usize] {
                tracks.insert(s.tid, format!("worker-{}", s.tid));
            }
        }

        let doc = export_trace_json(&spans, &records, &tracks);

        // Perfetto structural invariants: the document is one JSON object
        // whose traceEvents all carry a known phase, pid/tid, and the
        // shape that phase requires (ts/dur on complete events, thread
        // scope on instants, thread_name args on metadata).
        let parsed_json = cms_obs::json::parse(&doc).expect("trace is valid JSON");
        let items = match parsed_json.get("traceEvents") {
            Some(cms_obs::json::Json::Arr(items)) => items,
            other => panic!("traceEvents missing: {other:?}"),
        };
        for item in items {
            let ph = item.get("ph").and_then(cms_obs::json::Json::as_str).unwrap_or("?");
            prop_assert!(matches!(ph, "X" | "i" | "M"), "unexpected ph {}", ph);
            prop_assert!(item.get("pid").and_then(cms_obs::json::Json::as_u64).is_some());
            prop_assert!(item.get("tid").and_then(cms_obs::json::Json::as_u64).is_some());
            match ph {
                "X" => {
                    prop_assert!(item.get("name").and_then(cms_obs::json::Json::as_str).is_some());
                    prop_assert!(item.get("ts").and_then(cms_obs::json::Json::as_f64).unwrap() >= 0.0);
                    prop_assert!(item.get("dur").and_then(cms_obs::json::Json::as_f64).unwrap() >= 0.0);
                }
                "i" => {
                    prop_assert_eq!(item.get("s").and_then(cms_obs::json::Json::as_str), Some("t"));
                    prop_assert!(item.get("args").is_some());
                }
                _ => {
                    prop_assert!(item
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(cms_obs::json::Json::as_str)
                        .is_some());
                }
            }
        }

        // export ∘ parse is the identity on spans and events, and every
        // track that appears gets the registered (or fallback) label.
        let trace = parse_trace_json(&doc).expect("trace parses back");
        prop_assert_eq!(&trace.spans, &spans);
        prop_assert_eq!(&trace.events, &records);
        for s in &spans {
            let expect = tracks
                .get(&s.tid)
                .cloned()
                .unwrap_or_else(|| format!("thread-{}", s.tid));
            prop_assert_eq!(trace.track_names.get(&s.tid), Some(&expect));
        }
        if !records.is_empty() {
            prop_assert_eq!(trace.track_names.get(&0).map(String::as_str), Some("journal"));
        }
    }
}
