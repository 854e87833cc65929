//! Metrics registry: named counters, gauges and fixed-bucket histograms
//! with atomic increments, plus a snapshot/diff API.
//!
//! Handles are `Arc`s handed out by the registry; hot paths fetch a
//! handle once (outside the loop) and then pay one atomic RMW per
//! recording. Snapshots are plain `BTreeMap`s so diffs and assertions
//! read naturally in tests.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge (f64 bits in an atomic word).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A histogram over fixed, caller-supplied bucket upper bounds.
///
/// A value `v` lands in the first bucket whose bound satisfies
/// `v <= bound`; values above every bound land in the implicit overflow
/// bucket. Bounds are immutable after registration, so concurrent
/// recording is a single atomic increment.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of recorded values as f64 bits, CAS-accumulated.
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Record one observation.
    pub fn record(&self, v: f64) {
        let idx = self
            .bounds
            .partition_point(|&b| b < v)
            .min(self.buckets.len() - 1);
        // `partition_point` returns the first bound >= v, i.e. the
        // first bucket that can hold it; NaN compares false and falls
        // into the overflow bucket.
        let idx = if v.is_nan() {
            self.buckets.len() - 1
        } else {
            idx
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The bucket upper bounds this histogram was registered with.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Point-in-time copy of the bucket counts, total count and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (the final overflow bucket has no bound).
    pub bounds: Vec<f64>,
    /// One count per bound plus the overflow bucket.
    pub buckets: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

/// The process-wide table of named metrics.
///
/// Registration takes a lock; recording through the returned handles
/// does not. Registering the same name twice returns the same handle
/// (for histograms the first registration's bounds win).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Fetch-or-create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        map.insert(name.to_owned(), Arc::clone(&c));
        c
    }

    /// Fetch-or-create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(g) = map.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::default());
        map.insert(name.to_owned(), Arc::clone(&g));
        g
    }

    /// Fetch-or-create the histogram `name` with the given bucket upper
    /// bounds (ignored if the name already exists).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut map = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new(bounds));
        map.insert(name.to_owned(), Arc::clone(&h));
        h
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A named counter that resolves its [`Registry`] handle on first use
/// and caches it for the life of the process.
///
/// `static` instances let per-call hot paths (e.g. the per-solve
/// bookkeeping the overhead gate times) skip the
/// registry lock and by-name lookup entirely after the first recording
/// — one relaxed atomic add per call thereafter. The handle itself is
/// level-agnostic, exactly like an `Arc<Counter>` fetched manually;
/// callers gate on [`crate::enabled`].
#[derive(Debug)]
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Arc<Counter>>,
}

impl LazyCounter {
    /// A handle for the counter `name`, not yet resolved.
    pub const fn new(name: &'static str) -> LazyCounter {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    fn handle(&self) -> &Counter {
        self.cell
            .get_or_init(|| crate::registry().counter(self.name))
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.handle().add(n);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.handle().inc();
    }
}

/// A named histogram resolved against the [`Registry`] on first use,
/// the histogram counterpart of [`LazyCounter`]. The bounds apply only
/// if this handle performs the first registration of the name.
#[derive(Debug)]
pub struct LazyHistogram {
    name: &'static str,
    bounds: &'static [f64],
    cell: OnceLock<Arc<Histogram>>,
}

impl LazyHistogram {
    /// A handle for the histogram `name` with `bounds`, not yet
    /// resolved.
    pub const fn new(name: &'static str, bounds: &'static [f64]) -> LazyHistogram {
        LazyHistogram {
            name,
            bounds,
            cell: OnceLock::new(),
        }
    }

    /// The resolved registry handle (for loops that record many
    /// observations against a pre-fetched reference).
    pub fn handle(&self) -> &Histogram {
        self.cell
            .get_or_init(|| crate::registry().histogram(self.name, self.bounds))
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: f64) {
        self.handle().record(v);
    }
}

/// Point-in-time copy of a [`Registry`], diffable against an earlier
/// snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counters and histogram counts accumulated since `earlier`
    /// (counters absent from `earlier` count from zero); gauges keep
    /// their latest value. Saturating, so a reset registry diffs to
    /// zero instead of wrapping.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                let base = earlier.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(base))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let mut h = h.clone();
                if let Some(base) = earlier.histograms.get(k) {
                    if base.bounds == h.bounds {
                        for (b, base_b) in h.buckets.iter_mut().zip(&base.buckets) {
                            *b = b.saturating_sub(*base_b);
                        }
                        h.count = h.count.saturating_sub(base.count);
                        h.sum -= base.sum;
                    }
                }
                (k.clone(), h)
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Counter value by name, zero when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper_bounds() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.0, -5.0, 1.0] {
            h.record(v); // <= 1.0
        }
        h.record(1.0000001); // (1, 10]
        h.record(10.0); // (1, 10]
        h.record(100.0); // (10, 100]
        h.record(100.1); // overflow
        h.record(f64::INFINITY); // overflow
        h.record(f64::NAN); // overflow (unordered)
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![3, 2, 1, 3]);
        assert_eq!(s.count, 9);
    }

    #[test]
    fn registry_returns_shared_handles() {
        let r = Registry::default();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.inc();
        assert_eq!(r.counter("x").get(), 3);
        let h1 = r.histogram("h", &[1.0]);
        let h2 = r.histogram("h", &[99.0]); // first bounds win
        assert_eq!(h2.bounds(), &[1.0]);
        h1.record(0.5);
        assert_eq!(h2.snapshot().count, 1);
    }

    #[test]
    fn snapshot_diff_subtracts_counters_and_histograms() {
        let r = Registry::default();
        let c = r.counter("n");
        let h = r.histogram("h", &[10.0]);
        c.add(5);
        h.record(3.0);
        let before = r.snapshot();
        c.add(7);
        h.record(30.0);
        r.gauge("g").set(2.5);
        let after = r.snapshot();
        let d = after.diff(&before);
        assert_eq!(d.counter("n"), 7);
        assert_eq!(d.histograms["h"].buckets, vec![0, 1]);
        assert_eq!(d.histograms["h"].count, 1);
        assert!((d.histograms["h"].sum - 30.0).abs() < 1e-9);
        assert_eq!(d.gauges["g"], 2.5);
    }

    #[test]
    fn lazy_handles_resolve_to_the_global_registry() {
        static C: LazyCounter = LazyCounter::new("test.lazy.counter");
        C.add(2);
        C.inc();
        assert_eq!(crate::registry().counter("test.lazy.counter").get(), 3);
        static H: LazyHistogram = LazyHistogram::new("test.lazy.hist", &[1.0]);
        H.record(0.5);
        H.handle().record(2.0);
        let s = crate::registry()
            .histogram("test.lazy.hist", &[])
            .snapshot();
        assert_eq!(s.buckets, vec![1, 1]);
        assert_eq!(s.bounds, vec![1.0]);
    }

    #[test]
    fn gauge_stores_last_write() {
        let g = Gauge::default();
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(g.get(), -2.25);
    }
}
