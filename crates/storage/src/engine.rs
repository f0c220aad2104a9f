//! The storage engine facade: hash-partitioned, thread-safe storage for
//! one data node.
//!
//! Documents are routed to partitions by a hash of their id, so partitions
//! stay balanced without any administrator placement decisions (the
//! zero-knobs TCO story of §1). All public operations take `&self`;
//! partitions are individually locked so concurrent ingest and scans
//! interleave.

use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use impliance_analysis::{TrackedMutex, TrackedRwLock};
use impliance_docmodel::{DocId, Document, Version};
use impliance_obs::{Counter, Histogram, LATENCY_BUCKETS_US};

use crate::columnar::{ColumnPage, ColumnPageBuilder};
use crate::epoch::{ChangeFeed, ConsumerObs, EpochRegistry, FeedConsumer, Snapshot};
use crate::error::StorageError;
use crate::partition::{PageSink, Partition, ScanPos};
use crate::pushdown::{Predicate, ScanMetrics, ScanRequest, ScanResult};
use crate::stats::PartitionStats;

/// Commits between lazy version-GC sweeps (a sweep walks every chain, so
/// running it on every commit would be quadratic under sustained
/// overwrite).
const GC_INTERVAL: u64 = 64;

/// Cached handles into the global metrics registry; obtained once so the
/// put/get/scan hot paths stay lock-free (one atomic RMW each).
struct EngineObs {
    puts: Arc<Counter>,
    put_us: Arc<Histogram>,
    gets: Arc<Counter>,
    get_us: Arc<Histogram>,
    scans: Arc<Counter>,
    scan_us: Arc<Histogram>,
    seals: Arc<Counter>,
    bytes_compressed: Arc<Counter>,
    seg_skipped: Arc<Counter>,
    seg_scanned: Arc<Counter>,
}

fn engine_obs() -> &'static EngineObs {
    static OBS: OnceLock<EngineObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let m = impliance_obs::global().metrics();
        EngineObs {
            puts: m.counter("storage.put.count"),
            put_us: m.histogram("storage.put.us", &LATENCY_BUCKETS_US),
            gets: m.counter("storage.get.count"),
            get_us: m.histogram("storage.get.us", &LATENCY_BUCKETS_US),
            scans: m.counter("storage.scan.count"),
            scan_us: m.histogram("storage.scan.us", &LATENCY_BUCKETS_US),
            seals: m.counter("storage.seal.count"),
            bytes_compressed: m.counter("storage.seal.bytes_compressed"),
            seg_skipped: m.counter("storage.segment.skipped"),
            seg_scanned: m.counter("storage.segment.scanned"),
        }
    })
}

/// Record a page's segment skip/scan accounting in the global registry.
fn observe_segments(skipped: u64, scanned: u64) {
    let obs = engine_obs();
    if skipped > 0 {
        obs.seg_skipped.add(skipped);
    }
    if scanned > 0 {
        obs.seg_scanned.add(scanned);
    }
}

/// Tuning options for a storage engine. Every field has a sensible default
/// — the appliance never requires these to be set.
#[derive(Debug, Clone)]
pub struct StorageOptions {
    /// Number of hash partitions.
    pub partitions: usize,
    /// Memtable entries before sealing a segment.
    pub seal_threshold: usize,
    /// Compress sealed segments.
    pub compression: bool,
    /// Encrypt sealed segments at rest with this key (§3.1 encryption
    /// push-down). `None` stores plaintext blocks.
    pub encryption_key: Option<crate::crypt::Key>,
}

impl Default for StorageOptions {
    fn default() -> Self {
        StorageOptions {
            partitions: 4,
            seal_threshold: 1024,
            compression: true,
            encryption_key: None,
        }
    }
}

/// A data node's storage engine.
#[derive(Debug)]
pub struct StorageEngine {
    // All partitions share one lock-order node ("storage.partition"): the
    // engine never nests partition locks, and the shared name catches any
    // future code path that tries to. Lock order:
    // storage.epoch.consumer > commit_lock > storage.partition >
    // storage.epoch.feed; storage.epoch.pins is a leaf.
    partitions: Vec<TrackedRwLock<Partition>>,
    epoch: Arc<EpochRegistry>,
    pub(crate) feed: ChangeFeed,
    commit_lock: TrackedMutex<()>,
    /// Lazy version GC switch. Off by default: with it off every version
    /// remains addressable (the §4 time-travel story); on, superseded
    /// versions below the pin low-watermark are reclaimed, trading
    /// history for bounded space under sustained overwrite.
    gc_enabled: AtomicBool,
    commits_since_gc: AtomicU64,
}

impl StorageEngine {
    /// Create an engine with the given options.
    pub fn new(opts: StorageOptions) -> StorageEngine {
        let n = opts.partitions.max(1);
        StorageEngine {
            partitions: (0..n)
                .map(|i| {
                    TrackedRwLock::new(
                        "storage.partition",
                        Partition::new_with_encryption(
                            opts.seal_threshold,
                            opts.compression,
                            opts.encryption_key,
                            // distinct nonce space per partition
                            (i as u64) << 32,
                        ),
                    )
                })
                .collect(),
            epoch: Arc::new(EpochRegistry::default()),
            feed: ChangeFeed::default(),
            commit_lock: TrackedMutex::new("storage.commit", ()),
            gc_enabled: AtomicBool::new(false),
            commits_since_gc: AtomicU64::new(0),
        }
    }

    /// Create an engine with default options.
    pub fn with_defaults() -> StorageEngine {
        StorageEngine::new(StorageOptions::default())
    }

    fn route(&self, id: DocId) -> usize {
        // Fibonacci hashing of the id for balanced routing.
        (id.0.wrapping_mul(0x9E3779B97F4A7C15) >> 32) as usize % self.partitions.len()
    }

    /// Store a document version: a single-document [`StorageEngine::commit`].
    pub fn put(&self, doc: &Document) -> Result<(), StorageError> {
        self.commit(std::slice::from_ref(doc)).map(|_| ())
    }

    /// Atomically commit a set of document versions in one epoch bump:
    /// every snapshot sees either all of them or none of them. Returns the
    /// commit epoch. Two-phase under the commit lock — validate everything
    /// first (stored chains *and* intra-batch version monotonicity), then
    /// apply, so phase 2 cannot fail halfway and tear the batch.
    pub fn commit(&self, docs: &[Document]) -> Result<u64, StorageError> {
        let obs = engine_obs();
        let started = Instant::now();
        let _commit = self.commit_lock.lock();
        if docs.is_empty() {
            return Ok(self.epoch.current());
        }
        let epoch = self.epoch.current() + 1;
        let mut batch_latest: HashMap<DocId, Version> = HashMap::new();
        for doc in docs {
            match batch_latest.get(&doc.id()) {
                Some(prev) if doc.version() <= *prev => {
                    return Err(StorageError::StaleVersion {
                        latest: prev.0,
                        attempted: doc.version().0,
                    });
                }
                Some(_) => {}
                None => self.partitions[self.route(doc.id())]
                    .read()
                    .validate_put(doc)?,
            }
            batch_latest.insert(doc.id(), doc.version());
        }
        for doc in docs {
            self.partitions[self.route(doc.id())]
                .write()
                .put_at(doc, epoch)?;
        }
        self.feed.append(epoch, docs.iter().map(|d| d.id()));
        self.epoch.publish(epoch);
        obs.puts.add(docs.len() as u64);
        obs.put_us.observe(started.elapsed().as_micros() as u64);
        self.maybe_gc();
        Ok(epoch)
    }

    /// Pin the current epoch for reading. Every scan and point read
    /// executed with the returned snapshot's epoch sees exactly the
    /// commits at or before it; dropping the snapshot unpins, letting the
    /// GC low-watermark advance.
    pub fn pin(&self) -> Snapshot {
        Snapshot::pin(Arc::clone(&self.epoch))
    }

    /// The latest published commit epoch.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.current()
    }

    /// The GC low-watermark: the minimum pinned epoch, or the current
    /// epoch when no snapshot is pinned.
    pub fn low_watermark(&self) -> u64 {
        self.epoch.low_watermark()
    }

    /// Enable or disable lazy version GC (off by default; see the field
    /// doc on `gc_enabled`). A sweep runs every [`GC_INTERVAL`] commits
    /// while enabled, or on demand via [`StorageEngine::run_gc`].
    pub fn set_version_gc(&self, enabled: bool) {
        self.gc_enabled.store(enabled, Ordering::Relaxed);
    }

    fn maybe_gc(&self) {
        if !self.gc_enabled.load(Ordering::Relaxed) {
            return;
        }
        let n = self.commits_since_gc.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(GC_INTERVAL) {
            self.run_gc();
        }
    }

    /// Reclaim superseded versions no longer observable from any live or
    /// future snapshot (successor epoch ≤ low-watermark). Returns the
    /// number of versions reclaimed. Memtable-resident reclaims free
    /// their bytes immediately; segment-resident ones only drop their
    /// chain entry (the sealed block is immutable).
    pub fn run_gc(&self) -> u64 {
        let watermark = self.epoch.low_watermark();
        let mut reclaimed = 0u64;
        for p in &self.partitions {
            reclaimed += p.write().reclaim(watermark);
        }
        crate::epoch::observe_reclaimed(reclaimed);
        reclaimed
    }

    /// Register a consumer of this engine's change feed, starting at the
    /// oldest retained record. From now on the feed keeps every record
    /// the consumer has not acked; see [`FeedConsumer::drain`].
    pub fn register_consumer(self: &Arc<StorageEngine>, obs: ConsumerObs) -> FeedConsumer {
        FeedConsumer::register(Arc::clone(self), obs)
    }

    /// Change-feed records retained for the slowest registered consumer.
    pub fn feed_len(&self) -> usize {
        self.feed.len()
    }

    /// The change-feed cursor one past the newest record.
    pub fn feed_head(&self) -> u64 {
        self.feed.head()
    }

    /// Latest version of a document.
    pub fn get_latest(&self, id: DocId) -> Result<Option<Document>, StorageError> {
        self.get_latest_at(id, u64::MAX)
    }

    /// Latest version visible at snapshot epoch `snap` (`u64::MAX` for
    /// the unpinned latest).
    pub fn get_latest_at(&self, id: DocId, snap: u64) -> Result<Option<Document>, StorageError> {
        let obs = engine_obs();
        let started = Instant::now();
        let out = self.partitions[self.route(id)]
            .read()
            .get_latest_at(id, snap);
        obs.gets.inc();
        obs.get_us.observe(started.elapsed().as_micros() as u64);
        out
    }

    /// A specific stored version.
    pub fn get_version(&self, id: DocId, v: Version) -> Result<Option<Document>, StorageError> {
        self.partitions[self.route(id)].read().get_version(id, v)
    }

    /// All stored versions, oldest first.
    pub fn versions(&self, id: DocId) -> Vec<Version> {
        self.partitions[self.route(id)].read().versions(id)
    }

    /// The version current at timestamp `ts` (§4 time travel).
    pub fn get_as_of(&self, id: DocId, ts: i64) -> Result<Option<Document>, StorageError> {
        self.partitions[self.route(id)].read().get_as_of(id, ts)
    }

    /// Execute a push-down scan over all partitions, merging results: a
    /// drain of one [`Cursor`] over every partition, one unbounded page
    /// per partition (the partition read lock is held per partition, not
    /// per scan).
    pub fn scan(&self, req: &ScanRequest) -> Result<ScanResult, StorageError> {
        let obs = engine_obs();
        let started = Instant::now();
        let mut out = ScanResult::default();
        let mut cursor = self.cursor(Cow::Borrowed(req), 0..self.partitions.len());
        while let Some(page) = cursor.next_rows(usize::MAX)? {
            out.merge(page);
        }
        obs.scans.inc();
        obs.scan_us.observe(started.elapsed().as_micros() as u64);
        Ok(out)
    }

    /// A paged walk of `req` over `partitions`, in index order: every
    /// partition for a whole scan, one for a parallel morsel. Indexes
    /// past the last partition read nothing.
    pub fn cursor<'a>(&'a self, req: Cow<'a, ScanRequest>, partitions: Range<usize>) -> Cursor<'a> {
        Cursor {
            engine: self,
            req,
            partitions,
            pos: ScanPos::default(),
        }
    }

    /// Force-seal every partition's memtable (used by benchmarks to get
    /// stable on-disk footprints).
    pub fn seal_all(&self) {
        let before = self.stored_bytes();
        for p in &self.partitions {
            p.write().seal();
        }
        let obs = engine_obs();
        obs.seals.add(self.partitions.len() as u64);
        // stored footprint shed by seal-time compression this round
        obs.bytes_compressed
            .add(before.saturating_sub(self.stored_bytes()) as u64);
    }

    /// Fault injection for recovery tests: corrupt every sealed block of
    /// every partition, so scans and point reads that touch sealed data
    /// return a typed [`StorageError`] instead of documents.
    pub fn corrupt_sealed_blocks(&self) {
        for p in &self.partitions {
            p.write().corrupt_sealed_blocks();
        }
    }

    /// Live (latest-version) document count.
    pub fn live_docs(&self) -> usize {
        self.partitions.iter().map(|p| p.read().live_docs()).sum()
    }

    /// Total stored versions.
    pub fn total_versions(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| p.read().total_versions())
            .sum()
    }

    /// Total stored bytes across partitions.
    pub fn stored_bytes(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| p.read().stored_bytes())
            .sum()
    }

    /// Merged statistics snapshot across partitions.
    pub fn stats(&self) -> PartitionStats {
        let mut out = PartitionStats::default();
        for p in &self.partitions {
            out.merge(p.read().stats());
        }
        out
    }

    /// Number of partitions (for tests and placement logic).
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }
}

/// The one way to read documents in bulk out of a [`StorageEngine`]: a
/// paged walk over a contiguous range of partitions, in index order.
///
/// Each page holds its partition's read lock for that page only, so
/// ingest and seals interleave with a long walk; a seal landing between
/// pages is absorbed by the [`ScanPos`]. A page that matched nothing is
/// still returned, so its metrics reach the caller, and every page's
/// segment accounting goes to the `storage.segment.*` counters.
#[derive(Debug)]
pub struct Cursor<'a> {
    engine: &'a StorageEngine,
    req: Cow<'a, ScanRequest>,
    partitions: Range<usize>,
    pos: ScanPos,
}

impl Cursor<'_> {
    /// The next page of up to `max_docs` matching documents, projected as
    /// the request asks, or `None` once the range is exhausted.
    pub fn next_rows(&mut self, max_docs: usize) -> Result<Option<ScanResult>, StorageError> {
        let mut page = ScanResult::default();
        let metrics = self.next_page(None, max_docs, &mut page)?;
        Ok(metrics.map(|metrics| ScanResult { metrics, ..page }))
    }

    /// The next page of up to `max_docs` matching documents decoded
    /// straight into typed column vectors for `paths`, or `None` once the
    /// range is exhausted. Rows carry full documents (the request's
    /// projection does not apply). `prune` extends zone-map skipping with
    /// predicates the caller applies as masks — the page itself is
    /// filtered by the request predicate only — so it must never be
    /// looser than what the caller keeps.
    pub fn next_columns(
        &mut self,
        max_docs: usize,
        paths: &[String],
        prune: Option<&Predicate>,
    ) -> Result<Option<ColumnPage>, StorageError> {
        let mut builder = ColumnPageBuilder::new(paths);
        let metrics = self.next_page(prune, max_docs, &mut builder)?;
        Ok(metrics.map(|metrics| ColumnPage {
            metrics,
            ..builder.finish()
        }))
    }

    fn next_page<S: PageSink>(
        &mut self,
        prune: Option<&Predicate>,
        max_docs: usize,
        sink: &mut S,
    ) -> Result<Option<ScanMetrics>, StorageError> {
        let next = self.partitions.clone().next();
        let Some(partition) = next.and_then(|i| self.engine.partitions.get(i)) else {
            return Ok(None);
        };
        let zone_pred = prune.or(self.req.predicate.as_ref());
        let (metrics, done) =
            partition
                .read()
                .walk_page(&self.req, zone_pred, &mut self.pos, max_docs, sink)?;
        observe_segments(metrics.segments_skipped, metrics.segments_scanned);
        if done {
            self.partitions.start += 1;
            self.pos = ScanPos::default();
        }
        Ok(Some(metrics))
    }
}

/// impbench only; removed by the next [benchmark] PR.
impl StorageEngine {
    /// One columnar page of partition `partition` from `pos`: a
    /// one-partition [`Cursor`] started at `pos`. Returns the page, the
    /// position after it, and whether the partition is exhausted.
    pub fn scan_partition_page_columnar(
        &self,
        partition: usize,
        req: &ScanRequest,
        prune: Option<&Predicate>,
        pos: ScanPos,
        max_docs: usize,
        paths: &[String],
    ) -> Result<(ColumnPage, ScanPos, bool), StorageError> {
        let mut cursor = Cursor {
            pos,
            ..self.cursor(Cow::Borrowed(req), partition..partition + 1)
        };
        let page = cursor.next_columns(max_docs, paths, prune)?;
        Ok((
            page.unwrap_or_default(),
            cursor.pos,
            cursor.partitions.is_empty(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Visible;
    use crate::pushdown::Predicate;
    use impliance_docmodel::{DocumentBuilder, Node, SourceFormat, Value};
    use std::sync::Arc;

    fn doc(i: u64) -> Document {
        DocumentBuilder::new(DocId(i), SourceFormat::Json, "c")
            .field("x", i as i64)
            .field("tag", if i.is_multiple_of(3) { "fizz" } else { "plain" })
            .build()
    }

    #[test]
    fn put_get_across_partitions() {
        let e = StorageEngine::new(StorageOptions {
            partitions: 8,
            seal_threshold: 16,
            compression: true,
            encryption_key: None,
        });
        for i in 0..200 {
            e.put(&doc(i)).unwrap();
        }
        assert_eq!(e.live_docs(), 200);
        for i in [0u64, 77, 199] {
            assert_eq!(e.get_latest(DocId(i)).unwrap().unwrap().id(), DocId(i));
        }
        assert!(e.get_latest(DocId(5000)).unwrap().is_none());
    }

    #[test]
    fn scan_merges_partitions() {
        let e = StorageEngine::new(StorageOptions {
            partitions: 4,
            seal_threshold: 10,
            compression: false,
            encryption_key: None,
        });
        for i in 0..100 {
            e.put(&doc(i)).unwrap();
        }
        let res = e
            .scan(&ScanRequest::filtered(Predicate::Eq(
                "tag".into(),
                Value::Str("fizz".into()),
            )))
            .unwrap();
        assert_eq!(res.documents.len(), 34); // i.is_multiple_of(3) for 0..100
        assert_eq!(res.metrics.docs_scanned, 100);
    }

    #[test]
    fn version_updates_visible_engine_wide() {
        let e = StorageEngine::with_defaults();
        let d = doc(1);
        e.put(&d).unwrap();
        let d2 = d.new_version(Node::map([("x".into(), Node::scalar(999i64))]), 1);
        e.put(&d2).unwrap();
        assert_eq!(e.total_versions(), 2);
        assert_eq!(e.live_docs(), 1);
        let latest = e.get_latest(DocId(1)).unwrap().unwrap();
        assert_eq!(
            latest.get_str_path("x").unwrap().as_value().unwrap(),
            &Value::Int(999)
        );
        let v1 = e.get_version(DocId(1), Version(1)).unwrap().unwrap();
        assert_eq!(
            v1.get_str_path("x").unwrap().as_value().unwrap(),
            &Value::Int(1)
        );
    }

    #[test]
    fn concurrent_ingest_and_scan() {
        let e = Arc::new(StorageEngine::new(StorageOptions {
            partitions: 4,
            seal_threshold: 32,
            compression: true,
            encryption_key: None,
        }));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let e = Arc::clone(&e);
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        e.put(&doc(t * 1000 + i)).unwrap();
                    }
                })
            })
            .collect();
        // scans interleaved with the writers' whole run must never error,
        // and one pinned at epoch E sees exactly the E single-document
        // commits at or below it, however many landed since the pin — any
        // other count is a torn snapshot
        loop {
            let pin = e.pin();
            let _ = e.scan(&ScanRequest::full()).unwrap();
            let req = ScanRequest {
                visible: Visible::AtEpoch(pin.epoch()),
                ..ScanRequest::full()
            };
            assert_eq!(e.scan(&req).unwrap().documents.len() as u64, pin.epoch());
            if writers.iter().all(|w| w.is_finished()) {
                break;
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(e.live_docs(), 1000);
        let res = e.scan(&ScanRequest::full()).unwrap();
        assert_eq!(res.documents.len(), 1000);
    }

    /// `(id, version)` of every document, in order.
    fn ids<'d>(docs: impl IntoIterator<Item = &'d Document>) -> Vec<(u64, u32)> {
        docs.into_iter()
            .map(|d| (d.id().0, d.version().0))
            .collect()
    }

    /// Summed metrics of a one-page-per-partition walk over `parts`.
    fn walked(e: &StorageEngine, req: &ScanRequest, parts: Range<usize>) -> ScanMetrics {
        let mut cursor = e.cursor(Cow::Borrowed(req), parts);
        let mut m = ScanMetrics::default();
        while let Some(page) = cursor.next_rows(usize::MAX).unwrap() {
            m.merge(&page.metrics);
        }
        m
    }

    /// Every way of driving a cursor reads what `scan` reads — same ids in
    /// the same order, same summed metrics — across 1 or 4 partitions,
    /// page sizes, row or column pages, the three visibility rules, and a
    /// seal landing half-way through the walk.
    #[test]
    fn cursor_pages_equal_the_scan_in_every_mode() {
        let body = |x: i64, tag: &str| {
            Node::map([
                ("x".to_string(), Node::scalar(x)),
                ("tag".to_string(), Node::scalar(tag)),
            ])
        };
        // 60 documents at t=10, then every 4th rewritten at t=20 after
        // the pinned epoch.
        let load = |partitions| {
            let e = StorageEngine::new(StorageOptions {
                partitions,
                seal_threshold: 12,
                compression: true,
                encryption_key: None,
            });
            for i in 0..60u64 {
                let tag = if i.is_multiple_of(3) { "fizz" } else { "plain" };
                let d = Document::new(DocId(i), SourceFormat::Json, "c", 10, body(i as i64, tag));
                e.put(&d).unwrap();
            }
            let pinned = e.current_epoch();
            for i in (0..60).step_by(4) {
                let old = e.get_latest(DocId(i)).unwrap().unwrap();
                e.put(&old.new_version(body(-1, "fizz"), 20)).unwrap();
            }
            (e, pinned)
        };
        // `Not` never prunes a zone, so a walk that reads a memtable
        // before a seal reads the same documents as one reading the
        // segment after it.
        let predicate = Predicate::Not(Box::new(Predicate::Eq(
            "tag".into(),
            Value::Str("plain".into()),
        )));
        let paths = vec!["x".to_string(), "tag".to_string()];
        for partitions in [1, 4] {
            for visible in 0..3 {
                for max_docs in [1, 3, 7, usize::MAX] {
                    for columns in [false, true] {
                        for seal in [false, true] {
                            let (e, pinned) = load(partitions);
                            let visible = [
                                Visible::default(),
                                Visible::AtEpoch(pinned),
                                Visible::AsOf(15),
                            ][visible];
                            let label = format!(
                                "{partitions} partitions, {visible:?}, max {max_docs}, \
                                 columns {columns}, seal {seal}"
                            );
                            let req = ScanRequest {
                                predicate: Some(predicate.clone()),
                                visible,
                                ..ScanRequest::full()
                            };
                            let want = e.scan(&req).unwrap();
                            let want_ids = ids(&want.documents);
                            let before: Vec<ScanMetrics> = (0..partitions)
                                .map(|p| walked(&e, &req, p..p + 1))
                                .collect();

                            let mut cursor = e.cursor(Cow::Borrowed(&req), 0..partitions);
                            let (mut got, mut metrics) = (Vec::new(), ScanMetrics::default());
                            let mut sealed_at = None;
                            loop {
                                let page = if columns {
                                    let page = cursor.next_columns(max_docs, &paths, None).unwrap();
                                    page.map(|p| (ids(p.docs.iter().map(|d| &**d)), p.metrics))
                                } else {
                                    let page = cursor.next_rows(max_docs).unwrap();
                                    page.map(|p| (ids(&p.documents), p.metrics))
                                };
                                let Some((page_ids, m)) = page else { break };
                                assert!(page_ids.len() <= max_docs, "{label}");
                                got.extend(page_ids);
                                metrics.merge(&m);
                                if seal && sealed_at.is_none() && got.len() * 2 >= want_ids.len() {
                                    sealed_at = Some(cursor.partitions.start);
                                    e.seal_all();
                                }
                            }
                            assert_eq!(got, want_ids, "{label}");
                            // Partitions the walk finished before the seal
                            // count their segments as they were; the rest
                            // count the segment the seal added too.
                            let mut expected = want.metrics;
                            if let Some(at) = sealed_at {
                                assert_eq!(ids(&e.scan(&req).unwrap().documents), want_ids);
                                let after = |p| walked(&e, &req, p..p + 1).segments_scanned;
                                expected.segments_scanned = before[..at]
                                    .iter()
                                    .map(|m| m.segments_scanned)
                                    .chain((at..partitions).map(after))
                                    .sum();
                            }
                            assert_eq!(metrics, expected, "{label}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn paged_scan_survives_concurrent_seal() {
        let e = StorageEngine::new(StorageOptions {
            partitions: 1,
            seal_threshold: 10_000,
            compression: false,
            encryption_key: None,
        });
        for i in 0..20 {
            e.put(&doc(i)).unwrap();
        }
        let mut cursor = e.cursor(Cow::Owned(ScanRequest::full()), 0..1);
        let first = cursor.next_rows(6).unwrap().unwrap();
        assert_eq!(first.documents.len(), 6);
        // a seal lands between pages (cursor was mid-memtable)
        e.seal_all();
        let mut ids: Vec<u64> = first.documents.iter().map(|d| d.id().0).collect();
        while let Some(page) = cursor.next_rows(6).unwrap() {
            ids.extend(page.documents.iter().map(|d| d.id().0));
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            20,
            "no document duplicated or lost across the seal"
        );
    }

    #[test]
    fn commit_is_atomic_at_every_snapshot() {
        let e = StorageEngine::new(StorageOptions {
            partitions: 4,
            seal_threshold: 8,
            compression: true,
            encryption_key: None,
        });
        let before = e.commit(&(0..10).map(doc).collect::<Vec<_>>()).unwrap();
        let snap_before = e.pin();
        assert_eq!(snap_before.epoch(), before);
        // A multi-document commit spanning several partitions…
        let batch: Vec<Document> = (10..30).map(doc).collect();
        let after = e.commit(&batch).unwrap();
        assert_eq!(after, before + 1);
        // …is invisible in its entirety at the earlier snapshot…
        let at = |snap: u64| {
            let req = ScanRequest {
                visible: Visible::AtEpoch(snap),
                ..ScanRequest::full()
            };
            e.scan(&req).unwrap().documents.len()
        };
        assert_eq!(at(snap_before.epoch()), 10);
        // …and visible in its entirety at the commit epoch.
        assert_eq!(at(after), 30);
        for id in 10..30 {
            assert!(e
                .get_latest_at(DocId(id), snap_before.epoch())
                .unwrap()
                .is_none());
            assert!(e.get_latest_at(DocId(id), after).unwrap().is_some());
        }
    }

    #[test]
    fn failed_commit_publishes_nothing() {
        let e = StorageEngine::with_defaults();
        let d = doc(1);
        e.put(&d).unwrap();
        let epoch = e.current_epoch();
        let head = e.feed_head();
        // Batch with an intra-batch version conflict: same id, same
        // version twice. Phase-1 validation rejects it before any write.
        let res = e.commit(&[doc(50), doc(50)]);
        assert!(matches!(res, Err(StorageError::StaleVersion { .. })));
        assert_eq!(e.current_epoch(), epoch, "epoch not bumped");
        assert_eq!(e.feed_head(), head, "no feed records");
        assert!(
            e.get_latest(DocId(50)).unwrap().is_none(),
            "no partial write"
        );
    }

    #[test]
    fn change_feed_records_commits_in_epoch_order() {
        let e = Arc::new(StorageEngine::with_defaults());
        let consumer = e.register_consumer(ConsumerObs::default());
        e.put(&doc(1)).unwrap();
        e.commit(&[doc(2), doc(3)]).unwrap();
        assert_eq!(e.feed_len(), 3);
        let mut records = Vec::new();
        let n = consumer.drain(None, &crate::NoFaults, |rec, doc, _| {
            assert_eq!(doc.map(|d| d.id()), Some(rec.id), "fetched at its epoch");
            records.push(rec);
            Ok(())
        });
        assert_eq!(n, 3);
        let ids: Vec<u64> = records.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert!(records.windows(2).all(|w| w[0].epoch <= w[1].epoch));
        assert_eq!(records[1].epoch, records[2].epoch, "one epoch per commit");
        assert_eq!(e.feed_len(), 0, "acked records are truncated");
        assert_eq!(consumer.watermark(), e.current_epoch());
        assert_eq!(consumer.drain(None, &crate::NoFaults, |_, _, _| Ok(())), 0);
    }

    #[test]
    fn version_gc_bounds_versions_under_sustained_overwrite() {
        let e = StorageEngine::new(StorageOptions {
            partitions: 2,
            seal_threshold: 10_000, // keep everything memtable-resident
            compression: false,
            encryption_key: None,
        });
        e.set_version_gc(true);
        let mut d = doc(1);
        e.put(&d).unwrap();
        for _ in 0..(3 * GC_INTERVAL) {
            d = d.new_version(Node::map([("x".into(), Node::scalar(7i64))]), 1);
            e.put(&d).unwrap();
        }
        // Unpinned: the watermark is the current epoch, so each sweep
        // reclaims everything but the latest version.
        assert!(
            e.total_versions() as u64 <= GC_INTERVAL + 1,
            "total_versions {} not bounded by the GC interval",
            e.total_versions()
        );
        assert!(e.stats().versions_reclaimed > 0, "reclamation observable");
        let latest = e.get_latest(DocId(1)).unwrap().unwrap();
        assert_eq!(latest.version(), d.version());

        // A pinned snapshot blocks reclamation of what it can still see.
        let pinned = e.pin();
        let held = e.get_latest(DocId(1)).unwrap().unwrap();
        for _ in 0..GC_INTERVAL {
            d = d.new_version(Node::map([("x".into(), Node::scalar(8i64))]), 1);
            e.put(&d).unwrap();
        }
        e.run_gc();
        let visible = e
            .get_latest_at(DocId(1), pinned.epoch())
            .unwrap()
            .expect("pinned snapshot's version survives GC");
        assert_eq!(visible, held, "pinned snapshot still reads its version");
        drop(pinned);
        e.run_gc();
        assert_eq!(e.versions(DocId(1)).len(), 1, "unpinned: only latest kept");
    }

    #[test]
    fn stats_cover_all_partitions() {
        let e = StorageEngine::new(StorageOptions {
            partitions: 3,
            seal_threshold: 8,
            compression: true,
            encryption_key: None,
        });
        for i in 0..50 {
            e.put(&doc(i)).unwrap();
        }
        let s = e.stats();
        assert_eq!(s.doc_versions, 50);
        assert_eq!(s.paths["x"].count, 50);
        assert!(s.bytes > 0);
    }

    #[test]
    fn seal_all_flushes_memtables() {
        let e = StorageEngine::new(StorageOptions {
            partitions: 2,
            seal_threshold: 10_000,
            compression: true,
            encryption_key: None,
        });
        for i in 0..100 {
            e.put(&doc(i)).unwrap();
        }
        e.seal_all();
        // everything still readable post-seal
        assert_eq!(e.scan(&ScanRequest::full()).unwrap().documents.len(), 100);
    }

    #[test]
    fn compression_reduces_footprint() {
        let mk = |compress| {
            let e = StorageEngine::new(StorageOptions {
                partitions: 1,
                seal_threshold: 64,
                compression: compress,
                encryption_key: None,
            });
            for i in 0..512u64 {
                let d = DocumentBuilder::new(DocId(i), SourceFormat::Text, "t")
                    .field(
                        "body",
                        "the quick brown fox jumps over the lazy dog ".repeat(4),
                    )
                    .build();
                e.put(&d).unwrap();
            }
            e.seal_all();
            e.stored_bytes()
        };
        let compressed = mk(true);
        let raw = mk(false);
        assert!(compressed * 2 < raw, "compressed={compressed} raw={raw}");
    }
}

#[cfg(test)]
mod encryption_tests {
    use super::*;
    use crate::pushdown::ScanRequest;
    use impliance_docmodel::{DocumentBuilder, SourceFormat};

    fn engine(key: Option<crate::crypt::Key>) -> StorageEngine {
        StorageEngine::new(StorageOptions {
            partitions: 2,
            seal_threshold: 8,
            compression: true,
            encryption_key: key,
        })
    }

    #[test]
    fn encrypted_engine_round_trips_everything() {
        let e = engine(Some(*b"0123456789abcdef"));
        for i in 0..50u64 {
            let d = DocumentBuilder::new(DocId(i), SourceFormat::Text, "secret")
                .field("body", format!("confidential record {i}"))
                .build();
            e.put(&d).unwrap();
        }
        e.seal_all();
        // point reads and scans both decrypt transparently
        assert!(e.get_latest(DocId(17)).unwrap().is_some());
        let res = e.scan(&ScanRequest::full()).unwrap();
        assert_eq!(res.documents.len(), 50);
    }

    #[test]
    fn ciphertext_differs_from_plaintext_at_rest() {
        // same corpus, one engine encrypted, one not; identical logical
        // contents but different stored footprints prove the bytes at
        // rest are not plaintext
        let plain = engine(None);
        let secret = engine(Some(*b"fedcba9876543210"));
        for i in 0..20u64 {
            let d = DocumentBuilder::new(DocId(i), SourceFormat::Text, "c")
                .field("body", "the same marker text appears in every document")
                .build();
            plain.put(&d).unwrap();
            secret.put(&d).unwrap();
        }
        plain.seal_all();
        secret.seal_all();
        // logical equality
        assert_eq!(
            plain.scan(&ScanRequest::full()).unwrap().documents.len(),
            secret.scan(&ScanRequest::full()).unwrap().documents.len()
        );
        // stored size identical (CTR is length-preserving) but content
        // differs — verified indirectly: decryption with the right key
        // works, and compression ratio is unaffected by encryption order
        assert_eq!(plain.stored_bytes(), secret.stored_bytes());
    }

    #[test]
    fn version_chains_work_under_encryption() {
        let e = engine(Some(*b"0123456789abcdef"));
        let d = DocumentBuilder::new(DocId(1), SourceFormat::Json, "c")
            .field("x", 1i64)
            .build();
        e.put(&d).unwrap();
        let d2 = d.new_version(
            impliance_docmodel::Node::map([("x".into(), impliance_docmodel::Node::scalar(2i64))]),
            1,
        );
        e.put(&d2).unwrap();
        e.seal_all();
        assert_eq!(e.versions(DocId(1)).len(), 2);
        let v1 = e.get_version(DocId(1), Version(1)).unwrap().unwrap();
        assert_eq!(
            v1.get_str_path("x").unwrap().as_value().unwrap().as_i64(),
            Some(1)
        );
    }
}

#[cfg(test)]
mod time_travel_tests {
    use super::*;
    use crate::partition::Visible;
    use crate::pushdown::{Predicate, ScanRequest};
    use impliance_docmodel::{Document, Node, SourceFormat, Value};

    /// A scan of the store as of timestamp `ts`, filtered by `predicate`.
    fn as_of(predicate: Option<Predicate>, ts: i64) -> ScanRequest {
        ScanRequest {
            predicate,
            visible: Visible::AsOf(ts),
            ..ScanRequest::full()
        }
    }

    fn doc_at(id: u64, amount: i64, ts: i64) -> Document {
        Document::new(
            DocId(id),
            SourceFormat::Json,
            "claims",
            ts,
            Node::map([("amount".to_string(), Node::scalar(amount))]),
        )
    }

    #[test]
    fn get_as_of_selects_the_version_current_at_ts() {
        let e = StorageEngine::with_defaults();
        let v1 = doc_at(1, 100, 10);
        e.put(&v1).unwrap();
        let v2 = v1.new_version(Node::map([("amount".into(), Node::scalar(200i64))]), 20);
        e.put(&v2).unwrap();
        let v3 = v2.new_version(Node::map([("amount".into(), Node::scalar(300i64))]), 30);
        e.put(&v3).unwrap();

        assert!(
            e.get_as_of(DocId(1), 5).unwrap().is_none(),
            "did not exist yet"
        );
        let at15 = e.get_as_of(DocId(1), 15).unwrap().unwrap();
        assert_eq!(
            at15.get_str_path("amount").unwrap().as_value().unwrap(),
            &Value::Int(100)
        );
        let at20 = e.get_as_of(DocId(1), 20).unwrap().unwrap();
        assert_eq!(
            at20.get_str_path("amount").unwrap().as_value().unwrap(),
            &Value::Int(200)
        );
        let at99 = e.get_as_of(DocId(1), 99).unwrap().unwrap();
        assert_eq!(
            at99.get_str_path("amount").unwrap().as_value().unwrap(),
            &Value::Int(300)
        );
    }

    #[test]
    fn scan_as_of_reconstructs_the_snapshot() {
        let e = StorageEngine::new(StorageOptions {
            partitions: 3,
            seal_threshold: 4,
            compression: true,
            encryption_key: None,
        });
        // ten docs created at t=10, half updated at t=20, two more docs at t=30
        let mut originals = Vec::new();
        for i in 0..10 {
            let d = doc_at(i, 100, 10);
            e.put(&d).unwrap();
            originals.push(d);
        }
        for d in originals.iter().take(5) {
            e.put(&d.new_version(Node::map([("amount".into(), Node::scalar(999i64))]), 20))
                .unwrap();
        }
        e.put(&doc_at(100, 1, 30)).unwrap();
        e.put(&doc_at(101, 1, 30)).unwrap();

        let at10 = e.scan(&as_of(None, 10)).unwrap();
        assert_eq!(at10.documents.len(), 10);
        assert!(at10.documents.iter().all(|d| d
            .get_str_path("amount")
            .unwrap()
            .as_value()
            .unwrap()
            .query_eq(&Value::Int(100))));

        let at25 = e.scan(&as_of(None, 25)).unwrap();
        assert_eq!(at25.documents.len(), 10, "new docs at t=30 invisible");
        let updated = at25.documents.iter().filter(|d| {
            d.get_str_path("amount")
                .unwrap()
                .as_value()
                .unwrap()
                .query_eq(&Value::Int(999))
        });
        assert_eq!(updated.count(), 5);

        let now = e.scan(&as_of(None, i64::MAX)).unwrap();
        assert_eq!(now.documents.len(), 12);
        // predicates still push down in snapshot scans
        let filtered = e
            .scan(&as_of(
                Some(Predicate::Eq("amount".into(), Value::Int(999))),
                25,
            ))
            .unwrap();
        assert_eq!(filtered.documents.len(), 5);
    }

    /// The as-of scan is the ordinary page walk under another visibility
    /// rule, so its order is the store's (segments in seal order, then
    /// the memtable) — not a hash map's.
    #[test]
    fn scan_as_of_order_is_deterministic() {
        let load = || {
            let e = StorageEngine::new(StorageOptions {
                partitions: 3,
                seal_threshold: 4,
                compression: true,
                encryption_key: None,
            });
            for i in 0..40 {
                e.put(&doc_at(i, 100, 10)).unwrap();
            }
            for i in (0..40).step_by(3) {
                let next = doc_at(i, 100, 10)
                    .new_version(Node::map([("amount".into(), Node::scalar(999i64))]), 20);
                e.put(&next).unwrap();
            }
            e
        };
        let versions = |r: &ScanResult| -> Vec<(u64, Version)> {
            r.documents
                .iter()
                .map(|d| (d.id().0, d.version()))
                .collect()
        };
        let (a, b) = (load(), load());
        for ts in [10, 20] {
            let all = versions(&a.scan(&as_of(None, ts)).unwrap());
            assert_eq!(all.len(), 40);
            assert_eq!(
                all,
                versions(&b.scan(&as_of(None, ts)).unwrap()),
                "identically loaded engines scan as of {ts} in the same order"
            );
        }
    }
}
