//! The grounding and chase engines' work counters, each declared once.
//!
//! [`GroundStats`] (filled by `cms-psl`'s grounder) and
//! [`ChaseStats`] (filled by `cms-tgd`'s chase engine) live here, next to
//! the journal that carries them, so that one ordered field list per
//! struct generates everything that names a counter: the struct itself,
//! `absorb`, the `<prefix>.*` registry counters, the JSONL writer and
//! parser, and the [`GroundStats::counters`] walk `obs_diff` diffs.
//! Adding a counter is a one-line edit to that list.
//!
//! A field's type decides how it is carried:
//!
//! | type       | registry counter   | JSONL key                   |
//! |------------|--------------------|-----------------------------|
//! | `usize`    | `<prefix>.<field>` | `<field>`, integer          |
//! | `f64`      | none               | `<field>`, number           |
//! | `Duration` | none               | `<field>_ns`, integer ns    |
//!
//! Every registry prefix also counts its recordings as `<prefix>.runs`.

use crate::journal::{push_f64, push_u64, req_f64, req_u64};
use crate::json::Json;
use crate::metrics::LazyCounter;
use crate::ObsLevel;
use std::time::Duration;

/// How one stats field is summed, recorded, serialised and walked.
trait StatField: Copy + std::ops::AddAssign {
    /// Add the value to its registry counter (integer fields only).
    fn record(self, counter: &LazyCounter);
    /// Append the field to a JSONL record.
    fn push_json(self, out: &mut String, field: &str);
    /// Read the field back from a parsed JSONL record.
    fn parse_json(v: &Json, field: &str) -> Result<Self, String>;
    /// The value as a diffable count; `None` for timings.
    fn count(self) -> Option<f64>;
}

impl StatField for usize {
    fn record(self, counter: &LazyCounter) {
        counter.add(self as u64);
    }

    fn push_json(self, out: &mut String, field: &str) {
        push_u64(out, field, self as u64);
    }

    fn parse_json(v: &Json, field: &str) -> Result<Self, String> {
        usize::try_from(req_u64(v, field)?).map_err(|e| format!("field {field:?}: {e}"))
    }

    fn count(self) -> Option<f64> {
        Some(self as f64)
    }
}

impl StatField for f64 {
    fn record(self, _: &LazyCounter) {}

    fn push_json(self, out: &mut String, field: &str) {
        push_f64(out, field, self);
    }

    fn parse_json(v: &Json, field: &str) -> Result<Self, String> {
        req_f64(v, field)
    }

    fn count(self) -> Option<f64> {
        Some(self)
    }
}

impl StatField for Duration {
    fn record(self, _: &LazyCounter) {}

    fn push_json(self, out: &mut String, field: &str) {
        push_u64(out, &format!("{field}_ns"), self.as_nanos() as u64);
    }

    fn parse_json(v: &Json, field: &str) -> Result<Self, String> {
        req_u64(v, &format!("{field}_ns")).map(Duration::from_nanos)
    }

    fn count(self) -> Option<f64> {
        None
    }
}

/// Declare a stats struct from one ordered field list, plus one registry
/// recorder per `fn name => "prefix"` line.
macro_rules! stats_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident $fields:tt
        registry {
            $( $(#[$rmeta:meta])* $vis:vis fn $record:ident => $prefix:literal; )*
        }
    ) => {
        stats_struct!(@struct $(#[$meta])* $name $fields);
        impl $name {
            $( stats_struct!(@record $(#[$rmeta])* $vis $record $prefix $name $fields); )*
        }
    };
    (
        @struct $(#[$meta:meta])* $name:ident
        { $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )* }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug, Default, PartialEq)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl $name {
            /// Field names in declaration order (the JSONL key order).
            pub const FIELDS: &'static [&'static str] = &[$(stringify!($field)),*];

            /// Fold `other` into `self`: every field is summed.
            pub fn absorb(&mut self, other: &$name) {
                $( self.$field += other.$field; )*
            }

            /// The count fields as `(field, value)` pairs in declaration
            /// order; timings are left out.
            pub fn counters(&self) -> Vec<(&'static str, f64)> {
                let mut out = Vec::with_capacity(Self::FIELDS.len());
                $(
                    if let Some(v) = StatField::count(self.$field) {
                        out.push((stringify!($field), v));
                    }
                )*
                out
            }

            /// Append every field to a JSONL record, in declaration order.
            pub(crate) fn push_json(&self, out: &mut String) {
                $( StatField::push_json(self.$field, out, stringify!($field)); )*
            }

            /// Read every field back from a parsed JSONL record (keys the
            /// list does not name are ignored).
            pub(crate) fn parse_json(v: &Json) -> Result<$name, String> {
                Ok($name {
                    $( $field: StatField::parse_json(v, stringify!($field))?, )*
                })
            }
        }
    };
    (
        @record $(#[$rmeta:meta])* $vis:vis $record:ident $prefix:literal $name:ident
        { $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )* }
    ) => {
        $(#[$rmeta])*
        $vis fn $record(&self) {
            static COUNTERS: [LazyCounter; 1 + $name::FIELDS.len()] = [
                LazyCounter::new(concat!($prefix, ".runs")),
                $( LazyCounter::new(concat!($prefix, ".", stringify!($field))), )*
            ];
            let [runs, $($field),*] = &COUNTERS;
            runs.inc();
            $( StatField::record(self.$field, $field); )*
        }
    };
}

stats_struct! {
    /// Grounding statistics of one rule, or of a whole program once
    /// absorbed (`GroundProgram::total_stats` in `cms-psl`).
    pub struct GroundStats {
        /// Substitutions enumerated.
        substitutions: usize,
        /// Potentials emitted (weighted rules).
        potentials: usize,
        /// Constraints emitted (hard rules).
        constraints: usize,
        /// Groundings pruned as trivially satisfied.
        pruned: usize,
        /// Objective contribution of groundings whose distance is a
        /// positive constant (no free variables) — charged regardless of
        /// inference.
        constant_loss: f64,
        /// Candidate atoms reached through index probes (posting-list
        /// walks).
        candidates_probed: usize,
        /// Candidate atoms reached through full pool scans (no bound
        /// argument at that backtracking node). The index "short-circuits"
        /// work exactly when this stays near the root-literal pool size.
        candidates_scanned: usize,
        /// Wall time spent grounding.
        wall: Duration,
    }
    registry {
        /// Add these stats to the `ground.*` registry counters (one full
        /// grounding). The caller checks [`ObsLevel::Stats`].
        pub fn record_ground => "ground";
    }
}

stats_struct! {
    /// Statistics of one chase-engine run (`ChaseEngine` in `cms-tgd`).
    ///
    /// The headline pair is `prefix_bindings_computed` vs
    /// `prefix_bindings_reused`: every successful extension of a partial
    /// body binding at a trie node is *computed* once, while a naive
    /// per-tgd chase would have recomputed it once per candidate sharing
    /// that prefix — the difference is the work the shared body-prefix
    /// trie deduplicated.
    pub struct ChaseStats {
        /// Candidate tgds chased.
        tgds: usize,
        /// Body-atom trie nodes (distinct canonical prefixes).
        trie_nodes: usize,
        /// Partial-binding extensions actually evaluated (one per
        /// successful atom unification at a trie node).
        prefix_bindings_computed: usize,
        /// Extensions a per-tgd chase would have recomputed but the trie
        /// shared: for each computed extension at a node serving `k`
        /// candidates, `k − 1` reuses are counted.
        prefix_bindings_reused: usize,
        /// Candidate rows reached through column-index probes
        /// (posting-list walks) during trie evaluation.
        candidates_probed: usize,
        /// Candidate rows reached through full relation scans (no bound
        /// argument at that trie node).
        candidates_scanned: usize,
        /// Head instantiations (tgd firings).
        firings: usize,
        /// New tuples inserted across all produced solutions (set
        /// semantics: duplicate head tuples within one solution don't
        /// count).
        tuples_emitted: usize,
        /// Wall time of the run (binding enumeration + firing).
        wall: Duration,
    }
    registry {
        fn record => "chase";
    }
}

impl ChaseStats {
    /// Bindings a naive per-tgd chase would have computed for the same
    /// candidate set (`computed + reused`).
    pub fn naive_equivalent_bindings(&self) -> usize {
        self.prefix_bindings_computed + self.prefix_bindings_reused
    }

    /// Mirror this run into the telemetry layer: `chase.*` registry
    /// counters at [`ObsLevel::Stats`] and a typed
    /// [`crate::Event::Chase`] at [`ObsLevel::Journal`]. No-op (one
    /// atomic load) when telemetry is off.
    pub fn publish(&self) {
        if crate::enabled(ObsLevel::Stats) {
            self.record();
            crate::emit(crate::Event::Chase(self.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_counters() {
        let mut a = ChaseStats {
            tgds: 1,
            trie_nodes: 2,
            prefix_bindings_computed: 3,
            prefix_bindings_reused: 4,
            candidates_probed: 8,
            candidates_scanned: 9,
            firings: 5,
            tuples_emitted: 6,
            wall: Duration::from_millis(7),
        };
        a.absorb(&a.clone());
        assert_eq!(a.tgds, 2);
        assert_eq!(a.trie_nodes, 4);
        assert_eq!(a.naive_equivalent_bindings(), 14);
        assert_eq!(a.wall, Duration::from_millis(14));
    }

    #[test]
    fn counters_walk_the_field_list_without_timings() {
        let stats = GroundStats {
            pruned: 3,
            constant_loss: 0.5,
            wall: Duration::from_millis(1),
            ..GroundStats::default()
        };
        let counters = stats.counters();
        assert_eq!(counters.len(), GroundStats::FIELDS.len() - 1);
        assert!(counters.contains(&("pruned", 3.0)));
        assert!(counters.contains(&("constant_loss", 0.5)));
        assert!(counters.iter().all(|&(field, _)| field != "wall"));
    }
}
