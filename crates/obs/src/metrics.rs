//! Metric primitives and the registry that names them.
//!
//! Hot-path discipline: every mutation is a single atomic RMW on a handle
//! (`Arc<Counter>`, `Arc<Gauge>`, `Arc<Histogram>`) that instrumented
//! code obtains once and caches (typically in a `OnceLock`). The
//! registry's own lock is taken only at registration and snapshot time,
//! never per-observation, so counters stay race-free without serializing
//! the subsystems they measure.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use crate::catalog::{
    member_name, CounterDef, CounterFamily, GaugeDef, HistogramDef, HistogramFamily,
};
use crate::locks::TrackedRwLock;
use crate::snapshot::HistogramSnapshot;

/// Default latency bucket upper bounds, in microseconds. A final
/// implicit `+inf` bucket catches everything above the last bound.
pub const LATENCY_BUCKETS_US: [u64; 12] =
    [1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 5_000, 25_000];

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (queue depths, live bytes).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Set the gauge to an absolute value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram. Bounds are upper bounds (inclusive),
/// ascending; one extra bucket counts observations above the last bound.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        let mut sorted: Vec<u64> = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let buckets = (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds: sorted,
            buckets,
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation. Lock-free: three relaxed atomic RMWs.
    pub fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| v > b);
        if let Some(bucket) = self.buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Bucket upper bounds (the overflow bucket is implicit).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; one longer than `bounds()` (overflow last).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time copy for serialization.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self.bucket_counts(),
            sum: self.sum(),
            count: self.count(),
        }
    }
}

/// The named-metric registry. `counter`/`gauge`/`histogram` (and the
/// `_in` family forms) are get-or-register over the declarations in
/// [`crate::catalog`]: the first caller creates the metric, later callers
/// (any thread) receive the same handle.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: TrackedRwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: TrackedRwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: TrackedRwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            counters: TrackedRwLock::new("obs.metrics.counters", BTreeMap::new()),
            gauges: TrackedRwLock::new("obs.metrics.gauges", BTreeMap::new()),
            histograms: TrackedRwLock::new("obs.metrics.histograms", BTreeMap::new()),
        }
    }

    /// Get or register a declared counter.
    pub fn counter(&self, def: &CounterDef) -> Arc<Counter> {
        self.counter_named(def.spec.name)
    }

    /// Get or register one member of a declared counter family.
    pub fn counter_in(&self, family: &CounterFamily, segment: &str) -> Arc<Counter> {
        self.counter_named(&member_name(family.spec.name, segment))
    }

    /// Get or register a declared gauge.
    pub fn gauge(&self, def: &GaugeDef) -> Arc<Gauge> {
        self.gauge_named(def.spec.name)
    }

    /// Get or register a declared histogram with its declared buckets.
    pub fn histogram(&self, def: &HistogramDef) -> Arc<Histogram> {
        self.histogram_named(def.spec.name, def.bounds)
    }

    /// Get or register one member of a declared histogram family.
    pub fn histogram_in(&self, family: &HistogramFamily, segment: &str) -> Arc<Histogram> {
        self.histogram_named(&member_name(family.spec.name, segment), family.bounds)
    }

    fn counter_named(&self, name: &str) -> Arc<Counter> {
        {
            let map = self.counters.read();
            if let Some(c) = map.get(name) {
                return Arc::clone(c);
            }
        }
        Arc::clone(
            self.counters
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::default())),
        )
    }

    fn gauge_named(&self, name: &str) -> Arc<Gauge> {
        {
            let map = self.gauges.read();
            if let Some(g) = map.get(name) {
                return Arc::clone(g);
            }
        }
        Arc::clone(
            self.gauges
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::default())),
        )
    }

    /// `bounds` only apply on first registration.
    fn histogram_named(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        {
            let map = self.histograms.read();
            if let Some(h) = map.get(name) {
                return Arc::clone(h);
            }
        }
        Arc::clone(
            self.histograms
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// Point-in-time counter values, sorted by name.
    pub fn counter_values(&self) -> BTreeMap<String, u64> {
        self.counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Point-in-time gauge values, sorted by name.
    pub fn gauge_values(&self) -> BTreeMap<String, i64> {
        self.gauges
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Point-in-time histogram snapshots, sorted by name.
    pub fn histogram_values(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.histograms
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = MetricsRegistry::new();
        let c = r.counter_named("x.count");
        c.inc();
        c.add(4);
        assert_eq!(r.counter_named("x.count").get(), 5, "same handle by name");
        let g = r.gauge_named("x.depth");
        g.set(10);
        g.add(-3);
        assert_eq!(r.gauge_named("x.depth").get(), 7);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper_bounds() {
        let r = MetricsRegistry::new();
        let h = r.histogram_named("lat", &[10, 100]);
        for v in [0, 10, 11, 100, 101, 5_000] {
            h.observe(v);
        }
        // <=10 → bucket 0; 11..=100 → bucket 1; >100 → overflow
        assert_eq!(h.bucket_counts(), vec![2, 2, 2]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 0 + 10 + 11 + 100 + 101 + 5_000);
    }

    #[test]
    fn histogram_bounds_are_sorted_and_deduped() {
        let r = MetricsRegistry::new();
        let h = r.histogram_named("h", &[100, 10, 100, 1]);
        assert_eq!(h.bounds(), &[1, 10, 100]);
        assert_eq!(h.bucket_counts().len(), 4);
    }

    #[test]
    fn registry_snapshot_values() {
        let r = MetricsRegistry::new();
        r.counter_named("a").add(2);
        r.gauge_named("b").set(-1);
        r.histogram_named("c", &[5]).observe(3);
        assert_eq!(r.counter_values().get("a"), Some(&2));
        assert_eq!(r.gauge_values().get("b"), Some(&-1));
        let h = &r.histogram_values()["c"];
        assert_eq!(h.buckets, vec![1, 0]);
    }
}
