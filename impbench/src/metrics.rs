//! Metric names, units, directions and bounds, and how a pass's raw
//! numbers turn into them.
//!
//! The end-to-end table here is the one `BENCHMARK.json` declares (a unit
//! test holds the two together); `--compare` applies its bounds.

use std::collections::BTreeMap;

use crate::stats::{highest_supported, Samples};
use crate::trace::Span;
use crate::workloads::Pass;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, where it is a statistic of a series.
    pub samples: Option<usize>,
}

pub type Metrics = BTreeMap<String, Metric>;

pub fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(
        name.to_string(),
        Metric {
            value,
            unit,
            samples: None,
        },
    );
}

pub fn put_n(m: &mut Metrics, name: &str, value: f64, unit: &'static str, samples: usize) {
    m.insert(
        name.to_string(),
        Metric {
            value,
            unit,
            samples: Some(samples),
        },
    );
}

/// An end-to-end metric: what a user of the appliance sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// The bounds come from measurement, not from hope: four rounds of ten
/// seeds on the shared 2-core host. In a quiet round every timing spread
/// (interquartile range over median) stayed under 8 %; in rounds when a
/// neighbour was busy whole runs slowed together and spreads reached 18 %
/// on `sql_analytics` and 23 % on `mixed_ops` (`query_p95_ms` both times).
/// A bound has to hold through that, so every
/// timing gets the widest bound the contract allows. Failed operations are
/// not in this table: every run reports `attempted` and `failed` beside
/// its metrics, and any failure marks the run wrong.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("queries_per_s", "1/s", true, 0.25),
    e2e("query_p50_ms", "ms", false, 0.25),
    e2e("query_p95_ms", "ms", false, 0.25),
    e2e("ingest_docs_per_s", "1/s", true, 0.25),
    e2e("ingest_ack_p50_us", "us", false, 0.25),
    e2e("annotate_docs_per_s", "1/s", true, 0.25),
    e2e("searchable_lag_p95_ms", "ms", false, 0.25),
    e2e("stored_bytes_per_user_byte", "ratio", false, 0.01),
    e2e("peak_rss_mb", "MB", false, 0.10),
];

/// Metrics that are counts made by the program: with the same seed they
/// must repeat exactly, so `--compare` demands identity, not a bound.
pub const EXACT: [&str; 8] = [
    "storage.segments_scanned",
    "storage.segments_skipped",
    "storage.zone_skip_ratio",
    "storage.bytes_scanned_per_query",
    "index.search.scored_per_query",
    "index.search.pruned_per_query",
    "index.search.prune_ratio",
    "annotate.annotations_per_doc",
];

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The end-to-end metrics of an untraced pass.
pub fn end_to_end(pass: &Pass) -> Metrics {
    let mut m = Metrics::new();
    let t = &pass.tally;
    let q = &t.query_ms;
    put(&mut m, "setup_s", pass.setup_s, "s");
    put_n(&mut m, "queries_per_s", t.queries_per_s(), "1/s", q.len());
    put_n(&mut m, "query_p50_ms", q.p(0.50), "ms", q.len());
    put_n(&mut m, "query_p95_ms", q.p(0.95), "ms", q.len());
    put(&mut m, "ingest_docs_per_s", pass.ingest_docs_per_s, "1/s");
    put_n(
        &mut m,
        "ingest_ack_p50_us",
        pass.ack_us.p(0.50),
        "us",
        pass.ack_us.len(),
    );
    put(
        &mut m,
        "annotate_docs_per_s",
        pass.annotate_docs_per_s,
        "1/s",
    );
    put_n(
        &mut m,
        "searchable_lag_p95_ms",
        pass.searchable_lag_p95_ms,
        "ms",
        pass.lag_samples,
    );
    put(
        &mut m,
        "stored_bytes_per_user_byte",
        pass.stored_bytes_per_user_byte,
        "ratio",
    );
    put(&mut m, "peak_rss_mb", peak_rss_mb(), "MB");
    m
}

/// Informational lines printed beside the end-to-end metrics: the
/// measured section's length and the highest percentile the query
/// samples support.
pub fn extras(pass: &Pass) -> Metrics {
    let mut m = Metrics::new();
    put(&mut m, "measured_s", pass.measured_s, "s");
    let q = &pass.tally.query_ms;
    if let Some((p, label)) = highest_supported(q.len()) {
        put_n(&mut m, &format!("query_{label}_ms"), q.p(p), "ms", q.len());
    }
    m
}

/// Per-layer metrics read off the spans of a traced pass (and of the
/// probe pass that followed it).
pub fn from_spans(spans: &[Span], m: &mut Metrics) {
    let mut by_name: BTreeMap<&str, Samples> = BTreeMap::new();
    for s in spans {
        by_name.entry(&s.name).or_default().push(s.dur_ns() as f64);
    }
    let mut acks = Samples::default();
    for (name, ns) in &by_name {
        if name.starts_with("core.query.") {
            put_n(
                m,
                &format!("{name}.p50_ms"),
                ns.p(0.50) / 1e6,
                "ms",
                ns.len(),
            );
        } else if name.starts_with("core.ingest.") {
            put_n(
                m,
                &format!("{name}.p50_us"),
                ns.p(0.50) / 1e3,
                "us",
                ns.len(),
            );
            acks.extend(ns.values().iter().map(|ns| ns / 1e3));
        }
    }
    put_n(m, "core.ingest.ack_p99_us", acks.p(0.99), "us", acks.len());
    put_n(
        m,
        "core.ingest.ack_p999_us",
        acks.p(0.999),
        "us",
        acks.len(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads and this table is what
    /// `--compare` applies: they must say the same thing.
    #[test]
    fn benchmark_json_declares_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let root = impliance_docmodel::json::parse(&text).expect("BENCHMARK.json parses");
        let declared = root
            .get_str_path("end_to_end")
            .and_then(|n| n.as_seq())
            .expect("end_to_end list");
        assert_eq!(declared.len(), END_TO_END.len());
        for (d, e) in declared.iter().zip(&END_TO_END) {
            let field = |k: &str| d.get_str_path(k).and_then(|n| n.as_value()).cloned();
            let text = |k: &str| field(k).and_then(|v| v.as_str().map(str::to_string));
            assert_eq!(text("name").as_deref(), Some(e.name));
            assert_eq!(text("unit").as_deref(), Some(e.unit));
            let better = if e.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(text("better").as_deref(), Some(better), "{}", e.name);
            assert_eq!(
                field("bound").and_then(|v| v.as_f64()),
                Some(e.bound),
                "{}",
                e.name
            );
        }
        let workloads: Vec<String> = root
            .get_str_path("workloads")
            .and_then(|n| n.as_seq())
            .expect("workloads list")
            .iter()
            .filter_map(|w| {
                w.get_str_path("name")?
                    .as_value()?
                    .as_str()
                    .map(str::to_string)
            })
            .collect();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
    }
}
