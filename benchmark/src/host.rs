//! Host speed, from a fixed probe interleaved with the measured work.
//!
//! On a shared machine the same work runs 25–40% slower in some minutes
//! than in others, with no steal time to show for it. A probe doing a
//! fixed piece of work in this program's own code — sorting and hashing
//! 50k pseudo-random keys, independent of the pipeline — slows down with
//! it: over 20 same-seed `noise-sweep` runs on a 2-core host, the log of
//! its time correlated at −0.84 with the log of throughput, and dividing
//! its speed out nearly halved the run-to-run spread (coefficient of
//! variation 0.095 → 0.052). The end-to-end timings are therefore reported
//! at the probe's reference speed; the raw figures are printed beside them.

use crate::run::elapsed_ms;
use crate::stats::median;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Probe milliseconds that count as reference speed.
pub const REFERENCE_PROBE_MS: f64 = 4.0;

/// Least seconds between two probes inside a loop.
const PROBE_EVERY_S: f64 = 0.25;

/// Probe times collected over a run.
pub struct HostSpeed {
    probes: Vec<f64>,
    last: Instant,
}

impl HostSpeed {
    /// Start with one probe.
    pub fn new() -> HostSpeed {
        HostSpeed {
            probes: vec![probe_ms()],
            last: Instant::now(),
        }
    }

    /// Probe when the last probe is at least a quarter second old.
    pub fn probe_if_due(&mut self) {
        if self.last.elapsed().as_secs_f64() >= PROBE_EVERY_S {
            self.probes.push(probe_ms());
            self.last = Instant::now();
        }
    }

    /// Median probe time in milliseconds.
    pub fn median_ms(&self) -> f64 {
        median(&self.probes)
    }

    /// Probes taken.
    pub fn probes(&self) -> usize {
        self.probes.len()
    }

    /// Speed over the run relative to the reference: below 1 on a slower
    /// host. A time `t` at reference speed is `t · speed`.
    pub fn speed(&self) -> f64 {
        REFERENCE_PROBE_MS / self.median_ms()
    }
}

impl Default for HostSpeed {
    fn default() -> HostSpeed {
        HostSpeed::new()
    }
}

/// Sort 50k xorshift keys and count them into a hash map; returns the
/// milliseconds taken.
fn probe_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys: Vec<u64> = (0..50_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for (i, k) in keys.iter().enumerate() {
        *counts.entry(k % 20_000).or_insert(0) += i as u64;
    }
    black_box(counts.values().sum::<u64>());
    elapsed_ms(start)
}
