//! The stats structs' field lists are the journal and registry schema:
//! every field survives a JSONL round trip under its own key, each count
//! field names exactly one `<prefix>.<field>` registry counter, and
//! journals exported before the field lists existed (header version 1,
//! with the since-dropped `fallback_fresh_grounds`/`solver_restarts`
//! and splice-counter keys) still parse.

use cms_obs::json::{self, Json};
use cms_obs::{
    from_json_line, registry, set_level_override, to_json_line, ChaseStats, Event, EventRecord,
    GroundStats, JournalSnapshot, ObsLevel, SpanId,
};
use std::collections::BTreeMap;
use std::time::Duration;

/// A version-1 export: header, then one chase and two ground lines, in the
/// exporter's format and taken from a real export (renumbered, with the
/// since-dropped ladder and splice keys set nonzero on the second ground
/// line). The export's `reground` line is left out: that kind is gone,
/// and a record of it no longer parses.
const V1_JOURNAL: &str = r#"{"type":"journal-header","version":1,"events":3,"base_seq":0,"events_dropped":0,"events_dropped_total":0,"ring_capacity":4096}
{"seq":0,"t_ns":284131,"span":1,"type":"chase","tgds":15,"trie_nodes":8,"prefix_bindings_computed":199,"prefix_bindings_reused":199,"candidates_probed":25,"candidates_scanned":174,"firings":373,"tuples_emitted":501,"wall_ns":168204}
{"seq":1,"t_ns":8196399,"span":6,"type":"ground","rule":"explain-reward","substitutions":222,"potentials":222,"constraints":0,"pruned":0,"constant_loss":0.0,"candidates_probed":0,"candidates_scanned":222,"terms_reused":0,"terms_recomputed":0,"arith_bindings_spliced":0,"fallback_fresh_grounds":0,"solver_restarts":0,"entries_coalesced":0,"sources_deduped":0,"wall_ns":289591}
{"seq":2,"t_ns":9350592,"span":15,"type":"ground","rule":"error-link","substitutions":365,"potentials":346,"constraints":248,"pruned":124,"constant_loss":18.0,"candidates_probed":33,"candidates_scanned":222,"terms_reused":383,"terms_recomputed":226,"arith_bindings_spliced":0,"fallback_fresh_grounds":1,"solver_restarts":2,"entries_coalesced":0,"sources_deduped":0,"wall_ns":346176}
"#;

#[test]
fn version_1_exports_still_parse() {
    let snapshot = JournalSnapshot::parse(V1_JOURNAL).expect("v1 journal parses");
    assert_eq!(snapshot.header.version, 1);
    assert_eq!(cms_obs::snapshot_journal().header.version, 3);
    let events: Vec<Event> = snapshot.records.into_iter().map(|r| r.event).collect();
    assert_eq!(
        events,
        vec![
            Event::Chase(ChaseStats {
                tgds: 15,
                trie_nodes: 8,
                prefix_bindings_computed: 199,
                prefix_bindings_reused: 199,
                candidates_probed: 25,
                candidates_scanned: 174,
                firings: 373,
                tuples_emitted: 501,
                wall: Duration::from_nanos(168_204),
            }),
            Event::Ground {
                rule: "explain-reward".into(),
                stats: GroundStats {
                    substitutions: 222,
                    potentials: 222,
                    candidates_scanned: 222,
                    wall: Duration::from_nanos(289_591),
                    ..GroundStats::default()
                },
            },
            Event::Ground {
                rule: "error-link".into(),
                stats: GroundStats {
                    substitutions: 365,
                    potentials: 346,
                    constraints: 248,
                    pruned: 124,
                    constant_loss: 18.0,
                    candidates_probed: 33,
                    candidates_scanned: 222,
                    wall: Duration::from_nanos(346_176),
                },
            },
        ]
    );
}

/// The stats keys of one exported record with their values.
fn stats_keys(line: &str, envelope: &[&str]) -> BTreeMap<String, Json> {
    let Json::Obj(map) = json::parse(line).expect("line is JSON") else {
        panic!("record is not an object: {line}");
    };
    map.into_iter()
        .filter(|(key, _)| !envelope.contains(&key.as_str()))
        .collect()
}

/// Registry counters under `prefix.`, by name.
fn registry_counters(prefix: &str) -> BTreeMap<String, u64> {
    registry()
        .snapshot()
        .counters
        .into_iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .collect()
}

#[test]
fn every_field_round_trips_and_names_one_registry_counter() {
    let ground = GroundStats {
        substitutions: 1,
        potentials: 2,
        constraints: 3,
        pruned: 4,
        constant_loss: 5.5,
        candidates_probed: 6,
        candidates_scanned: 7,
        wall: Duration::from_nanos(8),
    };
    let record = EventRecord {
        seq: 0,
        t_ns: 0,
        span: SpanId::NONE,
        event: Event::Ground {
            rule: "r".into(),
            stats: ground.clone(),
        },
    };
    let line = to_json_line(&record);
    assert_eq!(from_json_line(&line).expect("line parses"), record);

    // One JSONL key per field, carrying that field's distinct value.
    let keys = stats_keys(&line, &["seq", "t_ns", "span", "type", "rule"]);
    let mut expected: Vec<String> = GroundStats::FIELDS.iter().map(|f| f.to_string()).collect();
    expected.retain(|f| f != "wall");
    expected.push("wall_ns".into());
    expected.sort();
    assert_eq!(keys.keys().cloned().collect::<Vec<_>>(), expected);
    assert_eq!(keys["constant_loss"].as_f64(), Some(5.5));
    assert_eq!(keys["wall_ns"].as_u64(), Some(8));

    // The registry holds `ground.runs` plus exactly `ground.<field>` for
    // each integer field, with the value that field carried in JSONL.
    ground.record_ground();
    let mut want: BTreeMap<String, u64> = keys
        .iter()
        .filter(|(key, _)| !["constant_loss", "wall_ns"].contains(&key.as_str()))
        .map(|(key, v)| (format!("ground.{key}"), v.as_u64().expect("integer")))
        .collect();
    want.insert("ground.runs".into(), 1);
    assert_eq!(registry_counters("ground."), want);

    // The chase list names its counters the same way, trie_nodes included.
    let chase = ChaseStats {
        tgds: 1,
        trie_nodes: 2,
        prefix_bindings_computed: 3,
        prefix_bindings_reused: 4,
        candidates_probed: 5,
        candidates_scanned: 6,
        firings: 7,
        tuples_emitted: 8,
        wall: Duration::from_nanos(9),
    };
    set_level_override(ObsLevel::Stats);
    chase.publish();
    let line = to_json_line(&EventRecord {
        event: Event::Chase(chase),
        ..record
    });
    let keys = stats_keys(&line, &["seq", "t_ns", "span", "type", "wall_ns"]);
    let mut want: BTreeMap<String, u64> = keys
        .iter()
        .map(|(key, v)| (format!("chase.{key}"), v.as_u64().expect("integer")))
        .collect();
    want.insert("chase.runs".into(), 1);
    assert_eq!(keys.len(), ChaseStats::FIELDS.len() - 1);
    assert_eq!(registry_counters("chase."), want);
}
