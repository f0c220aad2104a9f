//! Point-in-time snapshots of the metrics registry, serializable to
//! deterministic JSON (BTreeMap ordering; the JSON layer
//! is the dependency-free writer in [`crate::json`]).

use std::collections::BTreeMap;

use crate::json::Json;

/// Frozen histogram state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (ascending; overflow bucket implicit).
    pub bounds: Vec<u64>,
    /// Per-bucket counts, one longer than `bounds`.
    pub buckets: Vec<u64>,
    /// Sum of observed values.
    pub sum: u64,
    /// Total observations.
    pub count: u64,
}

impl HistogramSnapshot {
    fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert(
            "bounds".to_string(),
            Json::Arr(self.bounds.iter().map(|&b| Json::Num(b as f64)).collect()),
        );
        obj.insert(
            "buckets".to_string(),
            Json::Arr(self.buckets.iter().map(|&b| Json::Num(b as f64)).collect()),
        );
        obj.insert("sum".to_string(), Json::Num(self.sum as f64));
        obj.insert("count".to_string(), Json::Num(self.count as f64));
        Json::Obj(obj)
    }
}

/// A full observability snapshot: every registered metric's value.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// The snapshot as JSON: counters, gauges and histograms, keyed by
    /// name. Holds no wall-clock times, so it suits golden tests.
    pub fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert(
            "counters".to_string(),
            Json::Obj(
                self.counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::Num(v as f64)))
                    .collect(),
            ),
        );
        obj.insert(
            "gauges".to_string(),
            Json::Obj(
                self.gauges
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::Num(v as f64)))
                    .collect(),
            ),
        );
        obj.insert(
            "histograms".to_string(),
            Json::Obj(
                self.histograms
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_json()))
                    .collect(),
            ),
        );
        Json::Obj(obj)
    }

    /// How many counters with the given name prefix are nonzero — the
    /// quick "did subsystem X actually report?" check.
    pub fn nonzero_counters_with_prefix(&self, prefix: &str) -> usize {
        self.counters
            .iter()
            .filter(|(k, &v)| k.starts_with(prefix) && v > 0)
            .count()
    }
}
