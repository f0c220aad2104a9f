//! The metric catalog: every metric the workspace records, declared once
//! with its name, kind, unit, recording layer and meaning.
//!
//! The registry registers only through these declarations
//! ([`MetricsRegistry::counter`](crate::MetricsRegistry::counter) takes a
//! [`CounterDef`], and so on), and only this module can construct one, so
//! a metric name that is not declared here does not compile. A family
//! such as `query.op.<operator>.rows` is declared once; its members are
//! registered with the `<operator>` segment filled in. DESIGN.md's
//! Observability table is [`design_table`]'s output, checked by a test.

use crate::metrics::LATENCY_BUCKETS_US;

/// What a declared metric is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic count.
    Counter,
    /// A value that moves both ways.
    Gauge,
    /// Fixed-bucket distribution.
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One catalog entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Full metric name; a family's name holds one `<segment>` wildcard.
    pub name: &'static str,
    /// Counter, gauge or histogram.
    pub kind: Kind,
    /// Unit of one observation.
    pub unit: &'static str,
    /// The module that records it.
    pub layer: &'static str,
    /// What it measures.
    pub meaning: &'static str,
}

/// A declared counter.
#[derive(Debug)]
pub struct CounterDef {
    pub(crate) spec: Spec,
}

/// A declared gauge.
#[derive(Debug)]
pub struct GaugeDef {
    pub(crate) spec: Spec,
}

/// A declared histogram and its bucket upper bounds.
#[derive(Debug)]
pub struct HistogramDef {
    pub(crate) spec: Spec,
    pub(crate) bounds: &'static [u64],
}

/// A declared family of counters, one per `<segment>` value.
#[derive(Debug)]
pub struct CounterFamily {
    pub(crate) spec: Spec,
}

/// A declared family of histograms, one per `<segment>` value.
#[derive(Debug)]
pub struct HistogramFamily {
    pub(crate) spec: Spec,
    pub(crate) bounds: &'static [u64],
}

trait Declared {
    const KIND: Kind;
}

impl Declared for CounterDef {
    const KIND: Kind = Kind::Counter;
}
impl Declared for GaugeDef {
    const KIND: Kind = Kind::Gauge;
}
impl Declared for HistogramDef {
    const KIND: Kind = Kind::Histogram;
}
impl Declared for CounterFamily {
    const KIND: Kind = Kind::Counter;
}
impl Declared for HistogramFamily {
    const KIND: Kind = Kind::Histogram;
}

/// The member of a family: `pattern` with its `<segment>` replaced.
pub(crate) fn member_name(pattern: &str, segment: &str) -> String {
    match pattern
        .split_once('<')
        .and_then(|(head, rest)| Some((head, rest.split_once('>')?.1)))
    {
        Some((head, tail)) => format!("{head}{segment}{tail}"),
        None => format!("{pattern}.{segment}"),
    }
}

macro_rules! catalog {
    ($(
        $layer:literal {
            $( $id:ident: $ty:ident $([$bounds:expr])? = $name:literal, $unit:literal, $meaning:literal; )*
        }
    )*) => {
        $($(
            #[doc = $meaning]
            pub const $id: $ty = $ty {
                spec: Spec {
                    name: $name,
                    kind: <$ty as Declared>::KIND,
                    unit: $unit,
                    layer: $layer,
                    meaning: $meaning,
                },
                $(bounds: &$bounds,)?
            };
        )*)*

        /// Every declared metric and family, in declaration order.
        pub const ALL: &[Spec] = &[$($($id.spec,)*)*];
    };
}

/// Bucket bounds of `query.pipeline.rows_per_batch` (powers of two up to 4096).
pub const ROWS_PER_BATCH_BUCKETS: [u64; 12] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096];

/// Bucket bounds of `dist.backoff_us`, microseconds.
pub const BACKOFF_BUCKETS_US: [u64; 9] =
    [100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 100_000];

catalog! {
    "storage::engine" {
        STORAGE_PUT_COUNT: CounterDef = "storage.put.count", "docs", "documents written";
        STORAGE_PUT_US: HistogramDef[LATENCY_BUCKETS_US] = "storage.put.us", "µs", "time to write one document";
        STORAGE_GET_COUNT: CounterDef = "storage.get.count", "reads", "point reads";
        STORAGE_GET_US: HistogramDef[LATENCY_BUCKETS_US] = "storage.get.us", "µs", "time of one point read";
        STORAGE_SCAN_COUNT: CounterDef = "storage.scan.count", "scans", "cursor walks started";
        STORAGE_SCAN_US: HistogramDef[LATENCY_BUCKETS_US] = "storage.scan.us", "µs", "time of one drained scan";
        STORAGE_SEAL_COUNT: CounterDef = "storage.seal.count", "segments", "segments sealed";
        STORAGE_SEAL_BYTES_COMPRESSED: CounterDef = "storage.seal.bytes_compressed", "bytes", "sealed segment bytes after compression";
        STORAGE_SEGMENT_SKIPPED: CounterDef = "storage.segment.skipped", "segments", "sealed segments a zone map ruled out";
        STORAGE_SEGMENT_SCANNED: CounterDef = "storage.segment.scanned", "segments", "sealed segments decoded by a scan";
    }
    "storage::epoch" {
        STORAGE_EPOCH_CURRENT: GaugeDef = "storage.epoch.current", "epoch", "latest published epoch";
        STORAGE_EPOCH_PINS: GaugeDef = "storage.epoch.pins", "pins", "outstanding snapshot pins";
        STORAGE_EPOCH_LOW_WATERMARK: GaugeDef = "storage.epoch.low_watermark", "epoch", "GC low watermark (oldest pinned epoch)";
        STORAGE_EPOCH_RECLAIMED: CounterDef = "storage.epoch.reclaimed", "versions", "versions reclaimed by `StorageEngine::run_gc`";
    }
    "query::batch" {
        QUERY_OP_ROWS: CounterFamily = "query.op.<operator>.rows", "rows", "rows emitted by one physical operator";
        QUERY_OP_US: HistogramFamily[LATENCY_BUCKETS_US] = "query.op.<operator>.us", "µs", "time inside one operator's pull";
        QUERY_OP_BATCHES: CounterFamily = "query.op.<operator>.batches", "batches", "batches emitted by one physical operator";
        QUERY_PIPELINE_ROWS_PER_BATCH: HistogramDef[ROWS_PER_BATCH_BUCKETS] = "query.pipeline.rows_per_batch", "rows", "rows per batch leaving a pipeline";
        QUERY_PIPELINE_EARLY_TERMINATIONS: CounterDef = "query.pipeline.early_terminations", "queries", "pipelines stopped early by a limit";
        QUERY_COLUMNAR_BATCHES: CounterDef = "query.columnar.batches", "batches", "column batches from the vectorized operators";
        QUERY_COLUMNAR_ROWS: CounterDef = "query.columnar.rows", "rows", "rows in those column batches";
        QUERY_SEARCH_QUERIES: CounterDef = "query.search.queries", "queries", "BM25 evaluations by the `IndexScan` operator";
        QUERY_SEARCH_CANDIDATES_SCORED: CounterDef = "query.search.candidates_scored", "docs", "candidates scored by BM25 top-k";
        QUERY_SEARCH_CANDIDATES_PRUNED: CounterDef = "query.search.candidates_pruned", "docs", "candidates skipped by MaxScore pruning";
        QUERY_SEARCH_EARLY_TERMINATIONS: CounterDef = "query.search.early_terminations", "queries", "top-k evaluations that stopped early";
    }
    "query::exec" {
        QUERY_PIPELINE_DEADLINE_EXCEEDED: CounterDef = "query.pipeline.deadline_exceeded", "queries", "pipelines cut by their deadline";
    }
    "query::parallel" {
        QUERY_PARALLEL_MORSELS: CounterDef = "query.parallel.morsels", "morsels", "morsels run by the parallel exchange";
        QUERY_PARALLEL_WORKERS_USED: GaugeDef = "query.parallel.workers_used", "workers", "workers of the latest parallel run";
        QUERY_PARALLEL_QUEUE_DEPTH: GaugeDef = "query.parallel.queue_depth", "morsels", "morsels queued at the latest parallel run's start";
        QUERY_PARALLEL_MERGE_US: HistogramDef[LATENCY_BUCKETS_US] = "query.parallel.merge_us", "µs", "time to reassemble morsel outputs";
    }
    "query::preempt" {
        QUERY_PREEMPT_YIELDS: CounterDef = "query.preempt.yields", "yields", "morsel-boundary yields by low/normal work to a high-priority query";
    }
    "query::dist" {
        DIST_RETRIES: CounterDef = "dist.retries", "attempts", "retried cluster requests (queries, puts, gets)";
        DIST_FAILOVERS: CounterDef = "dist.failovers", "morsels", "morsels answered by a replica";
        DIST_DEADLINE_EXCEEDED: CounterDef = "dist.deadline_exceeded", "queries", "distributed queries cut by their deadline";
        DIST_DEGRADED_QUERIES: CounterDef = "dist.degraded_queries", "queries", "distributed queries answered partially";
        DIST_BACKOFF_US: HistogramDef[BACKOFF_BUCKETS_US] = "dist.backoff_us", "µs", "backoff slept before a retry";
    }
    "cluster::network" {
        CLUSTER_NET_MESSAGES: CounterDef = "cluster.net.messages", "messages", "messages delivered";
        CLUSTER_NET_BYTES: CounterDef = "cluster.net.bytes", "bytes", "payload bytes delivered";
        CLUSTER_NET_DROPPED: CounterDef = "cluster.net.dropped", "messages", "messages dropped by failure injection";
    }
    "cluster::runtime" {
        CLUSTER_RUNTIME_TASKS_SUBMITTED: CounterDef = "cluster.runtime.tasks_submitted", "tasks", "tasks sent to node mailboxes";
    }
    "cluster::group" {
        CLUSTER_GROUP_HEARTBEATS: CounterDef = "cluster.group.heartbeats", "heartbeats", "heartbeats answered";
        CLUSTER_GROUP_HEARTBEAT_MISSES: CounterDef = "cluster.group.heartbeat_misses", "heartbeats", "heartbeats missed";
        CLUSTER_GROUP_2PC_COMMITTED: CounterDef = "cluster.group.2pc.committed", "transactions", "two-phase commits committed";
        CLUSTER_GROUP_2PC_ABORTED: CounterDef = "cluster.group.2pc.aborted", "transactions", "two-phase commits aborted";
        CLUSTER_GROUP_2PC_NO_MEMBERS: CounterDef = "cluster.group.2pc.no_members", "transactions", "two-phase commits with no live member";
    }
    "annotate::pipeline" {
        ANNOTATE_DOCS_SCANNED: CounterDef = "annotate.docs_scanned", "docs", "documents the discovery stage scanned";
        ANNOTATE_ANNOTATIONS_EMITTED: CounterDef = "annotate.annotations_emitted", "annotations", "annotations the discovery stage wrote";
        ANNOTATE_FEED_COMMITS: CounterDef = "annotate.feed.commits", "commits", "atomic annotation-set commits";
        ANNOTATE_FEED_CONSUMED: CounterDef = "annotate.feed.consumed", "records", "change-feed records the discovery consumer acked (bumped by `FeedConsumer::drain`)";
        ANNOTATE_FEED_LAG: GaugeDef = "annotate.feed.lag", "epochs", "current epoch minus the discovery consumer's watermark, set at the end of every drain";
    }
    "core::appliance" {
        QUERY_SNAPSHOT_PINNED: CounterDef = "query.snapshot.pinned", "queries", "queries that pinned a fresh epoch";
        QUERY_SNAPSHOT_EXPLICIT: CounterDef = "query.snapshot.explicit", "queries", "queries run at a caller-supplied epoch";
        INDEX_MAINTAIN_RECORDS: CounterDef = "index.maintain.records", "records", "change-feed records the index consumer acked (bumped by `FeedConsumer::drain`)";
        INDEX_MAINTAIN_LAG: GaugeDef = "index.maintain.lag", "epochs", "current epoch minus the index consumer's watermark, set at the end of every drain";
    }
    "virt::workload" {
        WORKLOAD_ADMITTED: CounterDef = "workload.admitted", "queries", "admitted at full fidelity";
        WORKLOAD_DEGRADED: CounterDef = "workload.degraded", "queries", "admitted with a tightened budget";
        WORKLOAD_SHED: CounterDef = "workload.shed", "queries", "shed, any cause";
        WORKLOAD_ACTIVE: GaugeDef = "workload.active", "queries", "in-flight permits";
        ADMISSION_TOKENS_DENIED: CounterDef = "admission.tokens_denied", "queries", "shed: the tenant's token bucket was empty";
        ADMISSION_DEADLINE_SHED: CounterDef = "admission.deadline_shed", "queries", "shed: the expected wait exceeded the deadline";
        ADMISSION_OVERLOAD_SHED: CounterDef = "admission.overload_shed", "queries", "shed: low priority over the concurrency limit";
    }
}

/// DESIGN.md's Observability table, rendered from [`ALL`].
pub fn design_table() -> String {
    let mut out = String::from(
        "| Metric | Kind | Unit | Recorded by | Meaning |\n\
         |--------|------|------|-------------|---------|\n",
    );
    for spec in ALL {
        out.push_str(&format!(
            "| `{}` | {} | {} | `{}` | {} |\n",
            spec.name,
            spec.kind.as_str(),
            spec.unit,
            spec.layer,
            spec.meaning
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEGIN: &str = "<!-- metric catalog: rendered by impliance_obs::catalog::design_table -->";
    const END: &str = "<!-- end metric catalog -->";

    /// DESIGN.md's table is the catalog's rendering, byte for byte. On a
    /// diff the failure prints the table to paste between the markers.
    #[test]
    fn design_md_observability_table_is_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
        let design = std::fs::read_to_string(path).expect("DESIGN.md readable");
        let table = design
            .split_once(BEGIN)
            .and_then(|(_, rest)| rest.split_once(END))
            .map(|(table, _)| table.trim_start_matches('\n'))
            .expect("DESIGN.md carries the metric catalog markers");
        let want = design_table();
        assert!(
            table == want,
            "DESIGN.md's Observability table is out of date; paste this between the markers:\n\n{want}"
        );
    }

    #[test]
    fn names_are_unique_and_metric_shaped() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in ALL {
            assert!(seen.insert(spec.name), "{} declared twice", spec.name);
            assert!(
                spec.name.split('.').count() >= 2
                    && spec.name.split('.').all(|seg| !seg.is_empty()),
                "{} is not dotted",
                spec.name
            );
            let wildcards = spec.name.matches('<').count();
            assert!(wildcards <= 1, "{}: at most one `<segment>`", spec.name);
        }
    }

    #[test]
    fn family_members_fill_the_segment() {
        assert_eq!(
            member_name(QUERY_OP_ROWS.spec.name, "scan"),
            "query.op.scan.rows"
        );
        assert_eq!(
            member_name(QUERY_OP_US.spec.name, "join"),
            "query.op.join.us"
        );
    }
}
