//! Point-in-time snapshots of everything the observability layer holds,
//! serializable to deterministic JSON (BTreeMap ordering; the JSON layer
//! is the dependency-free writer in [`crate::json`]).

use std::collections::BTreeMap;

use crate::json::Json;

use crate::trace::{EventRecord, SpanRecord};

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

/// A full observability snapshot: metrics plus the trace-ring contents.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Finished spans still retained, oldest first.
    pub spans: Vec<SpanRecord>,
    /// Events still retained, oldest first.
    pub events: Vec<EventRecord>,
}

impl Snapshot {
    /// The deterministic half of the snapshot: counters, gauges, and
    /// histograms only — no wall-clock times, no span ids. Suitable for
    /// golden tests.
    pub fn metrics_json(&self) -> Json {
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

    /// The full snapshot as JSON, including span and event trails.
    pub fn to_json(&self) -> Json {
        let mut obj = match self.metrics_json() {
            Json::Obj(m) => m,
            _ => BTreeMap::new(),
        };
        obj.insert(
            "spans".to_string(),
            Json::Arr(self.spans.iter().map(span_json).collect()),
        );
        obj.insert(
            "events".to_string(),
            Json::Arr(self.events.iter().map(event_json).collect()),
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

fn span_json(s: &SpanRecord) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("id".to_string(), Json::Num(s.id.0 as f64));
    obj.insert(
        "parent".to_string(),
        s.parent.map_or(Json::Null, |p| Json::Num(p.0 as f64)),
    );
    obj.insert("subsystem".to_string(), Json::Str(s.subsystem.to_string()));
    obj.insert("name".to_string(), Json::Str(s.name.to_string()));
    obj.insert(
        "start_logical".to_string(),
        Json::Num(s.start_logical as f64),
    );
    obj.insert("end_logical".to_string(), Json::Num(s.end_logical as f64));
    obj.insert("wall_us".to_string(), Json::Num(s.wall_us as f64));
    Json::Obj(obj)
}

fn event_json(e: &EventRecord) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert(
        "span".to_string(),
        e.span.map_or(Json::Null, |s| Json::Num(s.0 as f64)),
    );
    obj.insert("subsystem".to_string(), Json::Str(e.subsystem.to_string()));
    obj.insert("name".to_string(), Json::Str(e.name.to_string()));
    obj.insert("logical".to_string(), Json::Num(e.logical as f64));
    obj.insert(
        "fields".to_string(),
        Json::Obj(
            e.fields
                .iter()
                .map(|&(k, v)| (k.to_string(), Json::Num(v as f64)))
                .collect(),
        ),
    );
    Json::Obj(obj)
}
