//! A partition: one memtable plus its sealed segments and version map.
//!
//! Partitions are the unit of ownership a data node holds. Each tracks,
//! per logical document, the full version chain location so both
//! latest-version scans and point-in-time reads (§4 auditing) are served
//! without rewriting history.

use std::collections::HashMap;

use impliance_docmodel::{DocId, Document, Version};

use crate::columnar::ColumnPageBuilder;
use crate::error::StorageError;
use crate::memtable::Memtable;
use crate::pushdown::{project, Predicate, Projection, ScanMetrics, ScanRequest, ScanResult};
use crate::segment::Segment;
use crate::stats::PartitionStats;

/// Where one document version lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// In the active memtable at the given entry index.
    Mem(usize),
    /// In sealed segment `seg` at directory index `idx`.
    Seg { seg: usize, idx: usize },
}

/// One link of a document's version chain: which version, where it
/// lives, when it was ingested, and the epoch of the commit that wrote
/// it (0 for writes outside an epoch commit — visible at every
/// snapshot). Epochs are non-decreasing along a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChainEntry {
    version: Version,
    loc: Location,
    ingested_at: i64,
    epoch: u64,
}

/// Position of a walk in a partition's scan order (sealed segments in
/// seal order, then the memtable).
///
/// Positions survive concurrent seals: [`crate::memtable::Memtable::drain`]
/// preserves entry order, so when the memtable a walk was reading drains
/// into a new segment, the walk resumes inside that segment at its old
/// memtable offset. [`crate::engine::Cursor`] owns one per partition it
/// visits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanPos {
    /// Next segment index to read (== segments fully consumed so far).
    seg: usize,
    /// Next directory index within segment `seg`.
    idx: usize,
    /// Next memtable entry index (meaningful once segments are done).
    mem: usize,
}

/// One storage partition.
#[derive(Debug)]
pub struct Partition {
    memtable: Memtable,
    segments: Vec<Segment>,
    /// id → ordered version chain. Appended by `put_at`; entries are
    /// removed only by [`Partition::reclaim`] (lazy version GC), and only
    /// when no live or future snapshot can observe them.
    chains: HashMap<DocId, Vec<ChainEntry>>,
    stats: PartitionStats,
    seal_threshold: usize,
    compress: bool,
    encryption_key: Option<crate::crypt::Key>,
    nonce_base: u64,
}

impl Partition {
    /// Create a partition sealing after `seal_threshold` buffered versions.
    pub fn new(seal_threshold: usize, compress: bool) -> Partition {
        Partition::new_with_encryption(seal_threshold, compress, None, 0)
    }

    /// Create a partition with optional at-rest encryption.
    pub fn new_with_encryption(
        seal_threshold: usize,
        compress: bool,
        encryption_key: Option<crate::crypt::Key>,
        nonce_base: u64,
    ) -> Partition {
        Partition {
            memtable: Memtable::new(),
            segments: Vec::new(),
            chains: HashMap::new(),
            stats: PartitionStats::default(),
            seal_threshold: seal_threshold.max(1),
            compress,
            encryption_key,
            nonce_base,
        }
    }

    /// Append a document version outside any epoch commit (stamped with
    /// epoch 0, visible at every snapshot). Rejects non-monotonic
    /// versions for an existing chain.
    pub fn put(&mut self, doc: &Document) -> Result<(), StorageError> {
        self.put_at(doc, 0)
    }

    /// Check that `doc` would be accepted by [`Partition::put_at`]
    /// without mutating anything — the validate phase of the engine's
    /// two-phase multi-document commit.
    pub fn validate_put(&self, doc: &Document) -> Result<(), StorageError> {
        if let Some(latest) = self.chains.get(&doc.id()).and_then(|c| c.last()) {
            if doc.version() <= latest.version {
                return Err(StorageError::StaleVersion {
                    latest: latest.version.0,
                    attempted: doc.version().0,
                });
            }
        }
        Ok(())
    }

    /// Append a document version stamped with the given commit epoch.
    /// Rejects non-monotonic versions for an existing chain.
    pub fn put_at(&mut self, doc: &Document, epoch: u64) -> Result<(), StorageError> {
        self.validate_put(doc)?;
        let idx = self.memtable.put(doc);
        let encoded_len = self.memtable.encoded_len(idx);
        let is_new_chain = !self.chains.contains_key(&doc.id());
        self.chains.entry(doc.id()).or_default().push(ChainEntry {
            version: doc.version(),
            loc: Location::Mem(idx),
            ingested_at: doc.ingested_at(),
            epoch,
        });
        self.stats.observe_document(doc, encoded_len);
        if is_new_chain {
            self.stats.live_docs += 1;
        }
        if self.memtable.len() >= self.seal_threshold {
            self.seal();
        }
        Ok(())
    }

    /// Lazy version GC: drop every chain entry that is superseded by a
    /// successor committed at or below `watermark` (the minimum pinned
    /// epoch). Such entries can no longer be chosen by any live or future
    /// snapshot. Memtable-resident reclaimed versions have their bytes
    /// tombstoned in place (entry *slots* are preserved so concurrent
    /// scan cursors stay valid); segment-resident bytes stay until their
    /// segment is rewritten, but the version disappears from
    /// `total_versions()` and all reads. Returns reclaimed entries.
    ///
    /// Note this intentionally trades §4 time travel for bounded space:
    /// reclaimed versions are gone from `versions`/`get_as_of` too, which
    /// is why the engine keeps GC opt-in.
    pub fn reclaim(&mut self, watermark: u64) -> u64 {
        let mut reclaimed = 0u64;
        for chain in self.chains.values_mut() {
            // Last entry visible at the watermark; everything before it
            // is unreachable from any snapshot ≥ watermark.
            let Some(keep_from) = chain.iter().rposition(|e| e.epoch <= watermark) else {
                continue;
            };
            if keep_from == 0 {
                continue;
            }
            for e in chain.drain(..keep_from) {
                if let Location::Mem(i) = e.loc {
                    self.memtable.tombstone(i);
                }
                reclaimed += 1;
            }
        }
        self.stats.versions_reclaimed += reclaimed;
        reclaimed
    }

    /// Freeze the memtable into a new segment and rewrite memtable
    /// locations to segment locations.
    pub fn seal(&mut self) {
        if self.memtable.is_empty() {
            return;
        }
        let entries = self.memtable.drain();
        let seg_no = self.segments.len();
        let mut remap: HashMap<(DocId, Version), usize> = HashMap::new();
        for (i, e) in entries.iter().enumerate() {
            remap.insert((e.id, e.version), i);
        }
        let segment = Segment::seal_with(
            entries,
            self.compress,
            self.encryption_key,
            self.nonce_base | seg_no as u64,
        );
        self.segments.push(segment);
        self.fix_locations(seg_no, &remap);
    }

    /// Fault injection for recovery tests: corrupt every sealed segment's
    /// stored block (see [`Segment::corrupt_block`]).
    pub fn corrupt_sealed_blocks(&mut self) {
        for segment in &mut self.segments {
            segment.corrupt_block();
        }
    }

    /// Rewrite any remaining `Mem` locations using the remap table.
    fn fix_locations(&mut self, seg_no: usize, remap: &HashMap<(DocId, Version), usize>) {
        for (id, chain) in self.chains.iter_mut() {
            for entry in chain.iter_mut() {
                if matches!(entry.loc, Location::Mem(_)) {
                    if let Some(&idx) = remap.get(&(*id, entry.version)) {
                        entry.loc = Location::Seg { seg: seg_no, idx };
                    }
                }
            }
        }
    }

    /// Fetch a document at a given location.
    fn fetch(&self, loc: Location) -> Result<Document, StorageError> {
        match loc {
            Location::Mem(i) => self.memtable.get(i),
            Location::Seg { seg, idx } => self.segments[seg].get(idx),
        }
    }

    /// Latest version of a document.
    pub fn get_latest(&self, id: DocId) -> Result<Option<Document>, StorageError> {
        self.get_latest_at(id, u64::MAX)
    }

    /// Latest version of a document visible at snapshot epoch `snap`
    /// (the last chain entry whose commit epoch is ≤ `snap`).
    pub fn get_latest_at(&self, id: DocId, snap: u64) -> Result<Option<Document>, StorageError> {
        self.visible_entry(id, Visible::AtEpoch(snap))
            .map(|e| self.fetch(e.loc))
            .transpose()
    }

    /// A specific version of a document.
    pub fn get_version(&self, id: DocId, v: Version) -> Result<Option<Document>, StorageError> {
        match self
            .chains
            .get(&id)
            .and_then(|c| c.iter().find(|e| e.version == v))
        {
            Some(entry) => Ok(Some(self.fetch(entry.loc)?)),
            None => Ok(None),
        }
    }

    /// The version that was current at timestamp `ts` (the latest version
    /// ingested at or before it), or `None` if the document did not exist
    /// yet — §4's auditing time travel.
    pub fn get_as_of(&self, id: DocId, ts: i64) -> Result<Option<Document>, StorageError> {
        self.visible_entry(id, Visible::AsOf(ts))
            .map(|e| self.fetch(e.loc))
            .transpose()
    }

    /// All stored versions of a document, oldest first.
    pub fn versions(&self, id: DocId) -> Vec<Version> {
        self.chains
            .get(&id)
            .map(|c| c.iter().map(|e| e.version).collect())
            .unwrap_or_default()
    }

    /// Number of live (latest-version) documents.
    pub fn live_docs(&self) -> usize {
        self.chains.len()
    }

    /// Total stored document versions.
    pub fn total_versions(&self) -> usize {
        self.chains.values().map(Vec::len).sum()
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> &PartitionStats {
        &self.stats
    }

    /// Stored bytes (segments at stored size + memtable raw).
    pub fn stored_bytes(&self) -> usize {
        self.segments
            .iter()
            .map(Segment::stored_bytes)
            .sum::<usize>()
            + self.memtable.bytes()
    }

    /// True when `loc` holds the version of document `id` that a reader
    /// under `visible` observes.
    fn is_visible_latest(&self, id: DocId, loc: Location, visible: Visible) -> bool {
        self.visible_entry(id, visible)
            .is_some_and(|e| e.loc == loc)
    }

    /// The chain entry of document `id` a reader under `visible` observes.
    fn visible_entry(&self, id: DocId, visible: Visible) -> Option<&ChainEntry> {
        self.chains.get(&id).and_then(|c| visible.select(c))
    }

    /// The one walk behind every scan: from `pos`, sealed segments in seal
    /// order (one block load per page-visit, whole segments skipped when
    /// `zone_pred` prunes their zone map), then the memtable. Every
    /// document version `req.visible` selects that satisfies
    /// `req.predicate` goes to `sink`, until it holds `max_docs` (the walk
    /// keeps reading through non-matching documents, so predicate
    /// push-down stays per page). Returns the page's metrics and `true`
    /// once the partition is exhausted.
    pub(crate) fn walk_page<S: PageSink>(
        &self,
        req: &ScanRequest,
        zone_pred: Option<&Predicate>,
        pos: &mut ScanPos,
        max_docs: usize,
        sink: &mut S,
    ) -> Result<(ScanMetrics, bool), StorageError> {
        let mut metrics = ScanMetrics::default();
        // A concurrent seal may have drained the memtable this walk was
        // mid-way through into segment `pos.seg`; entry order is preserved
        // by the drain, so resume inside that segment at the old offset.
        // The walk enters that segment here rather than at index 0, so
        // this is where it is counted.
        if pos.seg < self.segments.len() && pos.mem > 0 {
            pos.idx = pos.mem;
            pos.mem = 0;
            metrics.segments_scanned += 1;
        }
        let budget = max_docs.max(1);
        while pos.seg < self.segments.len() {
            // Checked up front so a segment entered at idx 0 always
            // processes at least one entry — segment accounting below
            // then counts each segment exactly once per walk.
            if sink.emitted() >= budget {
                return Ok((metrics, false));
            }
            let segment = &self.segments[pos.seg];
            let dir = segment.directory();
            if pos.idx < dir.len() {
                if pos.idx == 0 {
                    // Zone-map pruning: skip the whole segment before
                    // decryption/decompression when the predicate provably
                    // matches nothing in it.
                    if let (Some(pred), Some(zone)) = (zone_pred, segment.zone_map()) {
                        if pred.prunes_zone(zone) {
                            metrics.segments_skipped += 1;
                            pos.seg += 1;
                            continue;
                        }
                    }
                    metrics.segments_scanned += 1;
                }
                let block = segment.load_block()?;
                while pos.idx < dir.len() {
                    if sink.emitted() >= budget {
                        return Ok((metrics, false));
                    }
                    let entry = &dir[pos.idx];
                    let here = Location::Seg {
                        seg: pos.seg,
                        idx: pos.idx,
                    };
                    pos.idx += 1;
                    if !self.is_visible_latest(entry.id, here, req.visible) {
                        continue;
                    }
                    let (doc, _) = crate::codec::decode_document(&block, entry.offset as usize)?;
                    offer(doc, entry.len as usize, req, sink, &mut metrics);
                }
            }
            pos.seg += 1;
            pos.idx = 0;
        }
        for (i, id, _v, len) in self.memtable.iter_meta() {
            if i < pos.mem {
                continue;
            }
            if sink.emitted() >= budget {
                return Ok((metrics, false));
            }
            pos.mem = i + 1;
            if !self.is_visible_latest(id, Location::Mem(i), req.visible) {
                continue;
            }
            offer(self.memtable.get(i)?, len, req, sink, &mut metrics);
        }
        Ok((metrics, true))
    }
}

/// Which version of each document a scan sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visible {
    /// The last version whose commit epoch is ≤ the snapshot (epochs are
    /// non-decreasing along a chain); `u64::MAX` is the unpinned latest.
    AtEpoch(u64),
    /// The last version ingested at or before the timestamp — §4's
    /// auditing time travel.
    AsOf(i64),
}

impl Default for Visible {
    /// The unpinned latest.
    fn default() -> Self {
        Visible::AtEpoch(u64::MAX)
    }
}

impl Visible {
    fn select(self, chain: &[ChainEntry]) -> Option<&ChainEntry> {
        chain.iter().rev().find(|e| match self {
            Visible::AtEpoch(snap) => e.epoch <= snap,
            Visible::AsOf(ts) => e.ingested_at <= ts,
        })
    }
}

/// Where a page walk puts the visible, matching documents it finds.
/// Monomorphized per sink, so the per-document loop never dispatches
/// dynamically.
pub(crate) trait PageSink {
    /// Documents accepted so far — what `max_docs` counts.
    fn emitted(&self) -> usize;

    /// Take one matching document; returns the bytes it adds to
    /// `bytes_returned` (what would cross the network).
    fn accept(&mut self, doc: Document, encoded_len: usize, req: &ScanRequest) -> u64;
}

impl PageSink for ScanResult {
    fn emitted(&self) -> usize {
        self.documents.len() + self.ids.len()
    }

    /// A full document is returned as stored, so it counts its stored
    /// entry bytes; only a path projection builds and re-encodes a copy.
    fn accept(&mut self, doc: Document, encoded_len: usize, req: &ScanRequest) -> u64 {
        match &req.projection {
            Projection::IdsOnly => {
                self.ids.push(doc.id());
                8
            }
            Projection::All => {
                self.documents.push(doc);
                encoded_len as u64
            }
            Projection::Paths(paths) => {
                let projected = project(&doc, paths);
                let bytes = crate::codec::encode_document_vec(&projected).len() as u64;
                self.documents.push(projected);
                bytes
            }
        }
    }
}

impl PageSink for ColumnPageBuilder {
    fn emitted(&self) -> usize {
        self.len()
    }

    /// A full-document emit re-encodes to exactly the stored entry bytes,
    /// so `bytes_returned` matches the row sink bit for bit.
    fn accept(&mut self, doc: Document, encoded_len: usize, _req: &ScanRequest) -> u64 {
        self.push(std::sync::Arc::new(doc));
        encoded_len as u64
    }
}

/// Account for one visible document and hand it to `sink` when it
/// satisfies the request predicate.
fn offer<S: PageSink>(
    doc: Document,
    encoded_len: usize,
    req: &ScanRequest,
    sink: &mut S,
    metrics: &mut ScanMetrics,
) {
    metrics.docs_scanned += 1;
    metrics.bytes_scanned += encoded_len as u64;
    if !req.predicate.as_ref().is_none_or(|p| p.matches(&doc)) {
        return;
    }
    metrics.docs_matched += 1;
    metrics.bytes_returned += sink.accept(doc, encoded_len, req);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pushdown::Predicate;
    use impliance_docmodel::{DocumentBuilder, Node, SourceFormat, Value};

    fn doc(i: u64, amount: i64) -> Document {
        DocumentBuilder::new(DocId(i), SourceFormat::Json, "claims")
            .field("amount", amount)
            .field("make", if i.is_multiple_of(2) { "Volvo" } else { "Saab" })
            .build()
    }

    /// One row page of `p` from `pos`, and whether the partition is done.
    fn rows(p: &Partition, req: &ScanRequest, pos: &mut ScanPos, n: usize) -> (ScanResult, bool) {
        let mut out = ScanResult::default();
        let (metrics, done) = p
            .walk_page(req, req.predicate.as_ref(), pos, n, &mut out)
            .unwrap();
        out.metrics = metrics;
        (out, done)
    }

    /// The whole partition as one row page.
    fn scan(p: &Partition, req: &ScanRequest) -> ScanResult {
        rows(p, req, &mut ScanPos::default(), usize::MAX).0
    }

    /// Row pages of `n` from `pos` until the partition is done.
    fn drain(p: &Partition, req: &ScanRequest, mut pos: ScanPos, n: usize) -> ScanResult {
        let mut out = ScanResult::default();
        loop {
            let (page, done) = rows(p, req, &mut pos, n);
            out.merge(page);
            if done {
                return out;
            }
        }
    }

    #[test]
    fn put_get_latest_across_seal() {
        let mut p = Partition::new(4, true);
        for i in 0..10 {
            p.put(&doc(i, i as i64 * 100)).unwrap();
        }
        // threshold 4 → at least two segments sealed
        assert!(p.segments.len() >= 2);
        for i in 0..10 {
            let d = p.get_latest(DocId(i)).unwrap().unwrap();
            assert_eq!(
                d.get_str_path("amount").unwrap().as_value().unwrap(),
                &Value::Int(i as i64 * 100)
            );
        }
    }

    #[test]
    fn version_chain_reads() {
        let mut p = Partition::new(2, false);
        let d1 = doc(1, 100);
        p.put(&d1).unwrap();
        let d2 = d1.new_version(Node::map([("amount".into(), Node::scalar(200i64))]), 1);
        p.put(&d2).unwrap();
        let d3 = d2.new_version(Node::map([("amount".into(), Node::scalar(300i64))]), 2);
        p.put(&d3).unwrap();

        assert_eq!(
            p.versions(DocId(1)),
            vec![Version(1), Version(2), Version(3)]
        );
        let latest = p.get_latest(DocId(1)).unwrap().unwrap();
        assert_eq!(latest.version(), Version(3));
        let old = p.get_version(DocId(1), Version(1)).unwrap().unwrap();
        assert_eq!(
            old.get_str_path("amount").unwrap().as_value().unwrap(),
            &Value::Int(100)
        );
        assert_eq!(p.live_docs(), 1);
        assert_eq!(p.total_versions(), 3);
    }

    #[test]
    fn stale_version_rejected() {
        let mut p = Partition::new(100, false);
        let d1 = doc(1, 100);
        p.put(&d1).unwrap();
        assert!(matches!(p.put(&d1), Err(StorageError::StaleVersion { .. })));
    }

    #[test]
    fn scan_sees_only_latest_versions() {
        let mut p = Partition::new(3, true);
        let d1 = doc(1, 100);
        p.put(&d1).unwrap();
        let d2 = d1.new_version(Node::map([("amount".into(), Node::scalar(999i64))]), 1);
        p.put(&d2).unwrap();
        p.put(&doc(2, 50)).unwrap();
        p.put(&doc(3, 60)).unwrap(); // forces sealing along the way

        let res = scan(&p, &ScanRequest::full());
        assert_eq!(res.documents.len(), 3);
        let amounts: Vec<i64> = res
            .documents
            .iter()
            .map(|d| {
                d.get_str_path("amount")
                    .unwrap()
                    .as_value()
                    .unwrap()
                    .as_i64()
                    .unwrap()
            })
            .collect();
        assert!(amounts.contains(&999));
        assert!(
            !amounts.contains(&100),
            "superseded version must not appear"
        );
    }

    #[test]
    fn scan_with_predicate_and_metrics() {
        let mut p = Partition::new(8, true);
        for i in 0..20 {
            p.put(&doc(i, i as i64)).unwrap();
        }
        let req = ScanRequest::filtered(Predicate::Ge("amount".into(), Value::Int(15)));
        let res = scan(&p, &req);
        assert_eq!(res.documents.len(), 5);
        // Segment 0 (amounts 0..8) is zone-pruned whole; segment 1
        // (amounts 8..16) and the memtable (16..20) are scanned.
        assert_eq!(res.metrics.docs_scanned, 12);
        assert_eq!(res.metrics.docs_matched, 5);
        assert_eq!(res.metrics.segments_skipped, 1);
        assert_eq!(res.metrics.segments_scanned, 1);
        assert!(res.metrics.bytes_scanned > res.metrics.bytes_returned);

        // Arrival-ordered values give every sealed segment a tight zone:
        // a 90th-percentile predicate must skip most of them unread.
        for i in 20..80 {
            p.put(&doc(i, i as i64)).unwrap();
        }
        let req = ScanRequest::filtered(Predicate::Ge("amount".into(), Value::Int(72)));
        let m = scan(&p, &req).metrics;
        assert_eq!(m.docs_matched, 8);
        assert!(
            m.segments_skipped * 2 > m.segments_skipped + m.segments_scanned,
            "selective scan skipped {} of {} segments",
            m.segments_skipped,
            m.segments_skipped + m.segments_scanned
        );
    }

    #[test]
    fn columnar_prune_predicate_skips_more() {
        let mut p = Partition::new(8, true);
        for i in 0..20 {
            p.put(&doc(i, i as i64)).unwrap();
        }
        // Unfiltered request, but a fused query filter prunes via zones.
        let req = ScanRequest::full();
        let fused = Predicate::Ge("amount".into(), Value::Int(16));
        let paths = vec!["amount".to_string()];
        let mut builder = ColumnPageBuilder::new(&paths);
        let (metrics, done) = p
            .walk_page(
                &req,
                Some(&fused),
                &mut ScanPos::default(),
                usize::MAX,
                &mut builder,
            )
            .unwrap();
        assert!(done);
        let mut page = builder.finish();
        page.metrics = metrics;
        assert_eq!(page.metrics.segments_skipped, 2);
        assert_eq!(page.metrics.segments_scanned, 0);
        // Both segments skipped; only the memtable's docs were decoded.
        assert_eq!(page.metrics.docs_scanned, 4);
        // The fused filter is NOT applied here — the query layer masks it.
        assert_eq!(page.len, 4);
        let mask = page.eval_mask(&fused);
        assert_eq!(mask.count_ones(), 4);
    }

    #[test]
    fn scan_ids_only_returns_small_bytes() {
        let mut p = Partition::new(100, false);
        for i in 0..10 {
            p.put(&doc(i, 1)).unwrap();
        }
        let req = ScanRequest {
            projection: Projection::IdsOnly,
            ..ScanRequest::full()
        };
        let res = scan(&p, &req);
        assert_eq!(res.ids.len(), 10);
        assert_eq!(res.metrics.bytes_returned, 80);
    }

    /// A seal that drains the memtable a walk is part-way through moves
    /// the walk into the new segment: nothing is lost or repeated, and
    /// that segment is counted once.
    #[test]
    fn scan_page_cursor_survives_seal() {
        let mut p = Partition::new(1000, false);
        for i in 0..12 {
            p.put(&doc(i, 1)).unwrap();
        }
        let req = ScanRequest::full();
        // First page lands mid-memtable …
        let mut pos = ScanPos::default();
        let (first, done) = rows(&p, &req, &mut pos, 5);
        assert_eq!(first.documents.len(), 5);
        assert!(!done);
        // … then a seal drains the memtable into a segment …
        p.seal();
        for i in 12..15 {
            p.put(&doc(i, 1)).unwrap();
        }
        // … and the walk continues without duplicates or misses.
        let rest = drain(&p, &req, pos, 5);
        let mut ids: Vec<u64> = first.documents.iter().map(|d| d.id().0).collect();
        ids.extend(rest.documents.iter().map(|d| d.id().0));
        ids.sort_unstable();
        assert_eq!(ids, (0..15).collect::<Vec<u64>>());
        let scanned = first.metrics.segments_scanned + rest.metrics.segments_scanned;
        assert_eq!(scanned, 1, "the segment entered after the seal is counted");
    }

    #[test]
    fn snapshot_scans_select_epoch_consistent_versions() {
        let mut p = Partition::new(3, true);
        let d1 = doc(1, 100);
        p.put_at(&d1, 1).unwrap();
        p.put_at(&doc(2, 50), 2).unwrap();
        let d1b = d1.new_version(Node::map([("amount".into(), Node::scalar(999i64))]), 1);
        p.put_at(&d1b, 3).unwrap(); // forces a seal at threshold 3
        p.put_at(&doc(3, 60), 4).unwrap();

        let at = |snap: u64| {
            let req = ScanRequest {
                visible: Visible::AtEpoch(snap),
                ..ScanRequest::full()
            };
            let res = scan(&p, &req);
            let mut pairs: Vec<(u64, i64)> = res
                .documents
                .iter()
                .map(|d| {
                    (
                        d.id().0,
                        d.get_str_path("amount")
                            .unwrap()
                            .as_value()
                            .unwrap()
                            .as_i64()
                            .unwrap(),
                    )
                })
                .collect();
            pairs.sort_unstable();
            pairs
        };
        assert_eq!(at(0), vec![]);
        assert_eq!(at(1), vec![(1, 100)]);
        assert_eq!(at(2), vec![(1, 100), (2, 50)]);
        assert_eq!(at(3), vec![(1, 999), (2, 50)]);
        assert_eq!(at(4), vec![(1, 999), (2, 50), (3, 60)]);
        // Point reads agree with scans at every snapshot.
        assert!(p.get_latest_at(DocId(1), 0).unwrap().is_none());
        let v_at_2 = p.get_latest_at(DocId(1), 2).unwrap().unwrap();
        assert_eq!(v_at_2.version(), Version(1));
        let v_at_3 = p.get_latest_at(DocId(1), 3).unwrap().unwrap();
        assert_eq!(v_at_3.version(), Version(2));
    }

    #[test]
    fn reclaim_drops_only_superseded_below_watermark() {
        let mut p = Partition::new(1000, false);
        let d1 = doc(1, 100);
        p.put_at(&d1, 1).unwrap();
        let d2 = d1.new_version(Node::map([("amount".into(), Node::scalar(200i64))]), 1);
        p.put_at(&d2, 2).unwrap();
        let d3 = d2.new_version(Node::map([("amount".into(), Node::scalar(300i64))]), 2);
        p.put_at(&d3, 3).unwrap();
        assert_eq!(p.total_versions(), 3);

        // Watermark 1: a snapshot at epoch 1 may still read v1.
        assert_eq!(p.reclaim(1), 0);
        // Watermark 2: v1 is superseded by v2 (epoch 2 ≤ watermark).
        assert_eq!(p.reclaim(2), 1);
        assert_eq!(p.total_versions(), 2);
        assert_eq!(p.versions(DocId(1)), vec![Version(2), Version(3)]);
        // Watermark 3: v2 superseded by v3.
        assert_eq!(p.reclaim(3), 1);
        assert_eq!(p.total_versions(), 1);
        // The survivor is intact, readable, and still the latest.
        let latest = p.get_latest(DocId(1)).unwrap().unwrap();
        assert_eq!(latest.version(), Version(3));
        let res = scan(&p, &ScanRequest::full());
        assert_eq!(res.documents.len(), 1);
        assert_eq!(p.stats().versions_reclaimed, 2);
    }

    #[test]
    fn reclaimed_memtable_entries_survive_seal_and_cursors() {
        let mut p = Partition::new(1000, true);
        for i in 0..6 {
            p.put_at(&doc(i, i as i64), i + 1).unwrap();
        }
        // Overwrite docs 0..3 at later epochs, then reclaim.
        for i in 0..3u64 {
            let d = p.get_latest(DocId(i)).unwrap().unwrap();
            p.put_at(
                &d.new_version(Node::map([("amount".into(), Node::scalar(777i64))]), 1),
                10 + i,
            )
            .unwrap();
        }
        assert_eq!(p.reclaim(13), 3);
        // A scan cursor started now survives a seal landing mid-scan.
        let req = ScanRequest::full();
        let mut pos = ScanPos::default();
        let (page, done) = rows(&p, &req, &mut pos, 2);
        assert!(!done);
        p.seal();
        let mut ids: Vec<u64> = page.documents.iter().map(|d| d.id().0).collect();
        ids.extend(drain(&p, &req, pos, 2).documents.iter().map(|d| d.id().0));
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, (0..6).collect::<Vec<u64>>());
        // Sealing tombstoned entries must not disable zone pruning.
        assert!(
            p.segments.last().unwrap().zone_map().is_some(),
            "zone map built despite tombstoned entries in the sealed run"
        );
    }

    #[test]
    fn stored_bytes_nonzero_and_stats() {
        let mut p = Partition::new(4, true);
        for i in 0..8 {
            p.put(&doc(i, i as i64)).unwrap();
        }
        assert!(p.stored_bytes() > 0);
        assert_eq!(p.stats().doc_versions, 8);
        assert_eq!(p.stats().live_docs, 8);
        assert!(p.stats().paths.contains_key("amount"));
    }
}
