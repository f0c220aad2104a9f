//! Epoch snapshots and the change feed.
//!
//! Every committed write (single-document `put` or multi-document
//! `commit`) advances a monotonic **epoch counter**; each stored version
//! is stamped with the epoch of the commit that produced it. Readers
//! [`pin`](EpochRegistry::pin) the current epoch before scanning and every
//! read path filters version chains to "the latest version whose epoch is
//! ≤ my snapshot", so a query never observes a torn mix of versions:
//! either a commit's documents are all visible (snapshot ≥ commit epoch)
//! or none are.
//!
//! Pins are ref-counted per epoch. The minimum pinned epoch is the
//! **low watermark**: a superseded version whose *successor* committed at
//! or below the watermark can no longer be observed by any live or future
//! snapshot, which is exactly the condition lazy version GC uses to
//! reclaim it (see `Partition::reclaim`).
//!
//! The [`ChangeFeed`] records one `(epoch, DocId)` entry per committed
//! document, in commit order, behind a resumable absolute cursor. Every
//! background worker is a [`FeedConsumer`]: it registers with the feed
//! and runs the one checkpointed drain loop ([`FeedConsumer::drain`]) —
//! fetch at the record's epoch, run the worker's stage between three
//! crash points, advance, ack — so a record is truncated only once the
//! slowest registered consumer has acked it, and an unacked record
//! replays after a kill.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use impliance_analysis::TrackedMutex;
use impliance_docmodel::{DocId, Document};
use impliance_obs::{Counter, Gauge};

use crate::engine::StorageEngine;

struct EpochObs {
    current: Arc<Gauge>,
    pins: Arc<Gauge>,
    low_watermark: Arc<Gauge>,
    reclaimed: Arc<Counter>,
}

fn epoch_obs() -> &'static EpochObs {
    static OBS: OnceLock<EpochObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let m = impliance_obs::global().metrics();
        EpochObs {
            current: m.gauge("storage.epoch.current"),
            pins: m.gauge("storage.epoch.pins"),
            low_watermark: m.gauge("storage.epoch.low_watermark"),
            reclaimed: m.counter("storage.epoch.reclaimed"),
        }
    })
}

/// Record versions reclaimed by lazy GC in the global registry.
pub(crate) fn observe_reclaimed(n: u64) {
    if n > 0 {
        epoch_obs().reclaimed.add(n);
    }
}

/// Shared epoch state of one storage engine: the monotonic counter, the
/// ref-counted pin table, and the commit lock that serializes epoch
/// publication (so epoch `e` never becomes visible before `e - 1`).
#[derive(Debug)]
pub struct EpochRegistry {
    current: AtomicU64,
    /// epoch → number of outstanding pins at that epoch.
    pins: TrackedMutex<BTreeMap<u64, u64>>,
}

impl Default for EpochRegistry {
    fn default() -> EpochRegistry {
        EpochRegistry {
            current: AtomicU64::new(0),
            pins: TrackedMutex::new("storage.epoch.pins", BTreeMap::new()),
        }
    }
}

impl EpochRegistry {
    /// The latest published epoch.
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Acquire)
    }

    /// Publish `epoch` as the latest. Callers must hold the engine's
    /// commit lock so publications stay in order.
    pub(crate) fn publish(&self, epoch: u64) {
        self.current.store(epoch, Ordering::Release);
        epoch_obs().current.set(epoch as i64);
    }

    /// Pin the current epoch, incrementing its ref count, and return it.
    /// Prefer [`Snapshot`] (RAII) over calling this directly.
    pub fn pin_epoch(&self) -> u64 {
        let mut pins = self.pins.lock();
        let e = self.current();
        *pins.entry(e).or_insert(0) += 1;
        epoch_obs().pins.set(pins.values().sum::<u64>() as i64);
        e
    }

    /// Release one pin taken at `epoch`. Unbalanced unpins are ignored.
    pub fn unpin_epoch(&self, epoch: u64) {
        let mut pins = self.pins.lock();
        if let Some(n) = pins.get_mut(&epoch) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&epoch);
            }
        }
        epoch_obs().pins.set(pins.values().sum::<u64>() as i64);
    }

    /// The minimum pinned epoch, or the current epoch when nothing is
    /// pinned. No live or future snapshot can observe state older than
    /// this, so it bounds what lazy GC may reclaim.
    pub fn low_watermark(&self) -> u64 {
        let pins = self.pins.lock();
        let w = pins
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.current());
        epoch_obs().low_watermark.set(w as i64);
        w
    }

    /// Number of outstanding pins (all epochs).
    pub fn pinned(&self) -> u64 {
        self.pins.lock().values().sum()
    }
}

/// An RAII epoch pin: reads executed at `epoch()` see every commit up to
/// that epoch and nothing after. Dropping the snapshot releases the pin
/// (advancing the GC low watermark).
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    registry: Arc<EpochRegistry>,
}

impl Snapshot {
    pub(crate) fn pin(registry: Arc<EpochRegistry>) -> Snapshot {
        let epoch = registry.pin_epoch();
        Snapshot { epoch, registry }
    }

    /// The pinned epoch; pass it as `ScanRequest::snapshot` or to the
    /// `*_at` point reads.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Clone for Snapshot {
    fn clone(&self) -> Snapshot {
        // Re-pin the same epoch (not the current one): clones of a
        // snapshot always agree on what they can see.
        let mut pins = self.registry.pins.lock();
        *pins.entry(self.epoch).or_insert(0) += 1;
        drop(pins);
        Snapshot {
            epoch: self.epoch,
            registry: Arc::clone(&self.registry),
        }
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.registry.unpin_epoch(self.epoch);
    }
}

/// One committed document change, in commit order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangeRecord {
    /// Epoch of the commit that wrote this version.
    pub epoch: u64,
    /// The document written.
    pub id: DocId,
}

#[derive(Debug, Default)]
struct FeedInner {
    /// Absolute index of `entries[0]` (entries below it were truncated).
    base: u64,
    entries: VecDeque<ChangeRecord>,
    /// `(registration id, acked cursor)` of every registered consumer.
    consumers: Vec<(u64, u64)>,
    next_consumer: u64,
}

impl FeedInner {
    /// The absolute cursor one past the newest record.
    fn head(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// Drop every record below the slowest registered consumer's cursor —
    /// everything retained when nobody is registered.
    fn truncate(&mut self) {
        let head = self.head();
        let floor = self.consumers.iter().map(|&(_, c)| c).min();
        let keep_from = floor.unwrap_or(head).min(head);
        let drop = keep_from.saturating_sub(self.base) as usize;
        self.entries.drain(..drop);
        self.base += drop as u64;
    }
}

/// Epoch-ordered log of committed DocIds with a resumable absolute
/// cursor. Appends happen inside the engine's commit lock, so feed order
/// equals epoch order. The feed knows its consumers: each
/// [`FeedConsumer`] registers, acks its own cursor, and the feed retains
/// exactly the records the slowest of them has not acked — nothing at
/// all while nobody is registered.
#[derive(Debug)]
pub struct ChangeFeed {
    inner: TrackedMutex<FeedInner>,
}

impl Default for ChangeFeed {
    fn default() -> ChangeFeed {
        ChangeFeed {
            inner: TrackedMutex::new("storage.epoch.feed", FeedInner::default()),
        }
    }
}

impl ChangeFeed {
    /// Append one commit's records (engine-internal, under the commit
    /// lock). With no consumer registered only the head advances.
    pub(crate) fn append(&self, epoch: u64, ids: impl IntoIterator<Item = DocId>) {
        let mut inner = self.inner.lock();
        if inner.consumers.is_empty() {
            inner.base += ids.into_iter().count() as u64;
            return;
        }
        for id in ids {
            inner.entries.push_back(ChangeRecord { epoch, id });
        }
    }

    /// Register a consumer at the oldest retained record; returns its
    /// registration id and starting cursor.
    fn register(&self) -> (u64, u64) {
        let mut inner = self.inner.lock();
        let id = inner.next_consumer;
        inner.next_consumer += 1;
        let start = inner.base;
        inner.consumers.push((id, start));
        (id, start)
    }

    /// Forget consumer `id`; whatever only it was holding is truncated.
    fn unregister(&self, id: u64) {
        let mut inner = self.inner.lock();
        inner.consumers.retain(|&(c, _)| c != id);
        inner.truncate();
    }

    /// Read up to `max` records starting at absolute cursor `cursor`,
    /// returning them plus the next cursor. Re-reading an unacked cursor
    /// replays the same records, so a consumer killed before its ack
    /// loses no work. An empty result means the feed is drained at this
    /// cursor.
    fn recv_changes(&self, cursor: u64, max: usize) -> (Vec<ChangeRecord>, u64) {
        let inner = self.inner.lock();
        let start = cursor.max(inner.base);
        let skip = (start - inner.base) as usize;
        let out: Vec<ChangeRecord> = inner.entries.iter().skip(skip).take(max).copied().collect();
        let next = start + out.len() as u64;
        (out, next)
    }

    /// Consumer `id` promises never to ask for records below `cursor`
    /// again; the feed truncates to the slowest registered consumer.
    fn ack(&self, id: u64, cursor: u64) {
        let mut inner = self.inner.lock();
        if let Some(slot) = inner.consumers.iter_mut().find(|(c, _)| *c == id) {
            slot.1 = cursor;
        }
        inner.truncate();
    }

    /// Records currently retained (the slowest consumer's backlog).
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The absolute cursor one past the newest record.
    pub fn head(&self) -> u64 {
        self.inner.lock().head()
    }
}

/// Where a consumer may be killed by a fault schedule (cooperative crash
/// points, in per-record order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// After fetching the document, before the stage runs.
    AfterFetch,
    /// Inside the stage: its work is computed, nothing is persisted yet.
    BeforeCommit,
    /// After the stage's writes landed, before the cursor is acked.
    AfterCommit,
}

/// Fault injection for feed consumers: the chaos harness returns `true`
/// to kill the consumer at a crash point. Killing means
/// [`FeedConsumer::drain`] returns immediately *without acking* the
/// in-flight record, exactly like a crash between durable checkpoints.
pub trait WorkerFaults {
    /// `step` counts crash-point visits, from 0, since the consumer
    /// registered (deterministic under a fixed ingest schedule).
    fn kill_at(&self, point: KillPoint, step: u64) -> bool;
}

/// The default schedule: never kill.
pub struct NoFaults;

impl WorkerFaults for NoFaults {
    fn kill_at(&self, _point: KillPoint, _step: u64) -> bool {
        false
    }
}

/// A fault schedule fired: the drain stops with the record unacked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Killed;

/// The crash-point handle [`FeedConsumer::drain`] lends its stage: each
/// visit bumps the consumer's step counter and consults the schedule.
pub struct CrashPoints<'a> {
    steps: &'a mut u64,
    faults: &'a dyn WorkerFaults,
}

impl CrashPoints<'_> {
    /// Visit one crash point; `Err(Killed)` when the schedule fires.
    pub fn visit(&mut self, point: KillPoint) -> Result<(), Killed> {
        let step = *self.steps;
        *self.steps += 1;
        match self.faults.kill_at(point, step) {
            true => Err(Killed),
            false => Ok(()),
        }
    }
}

/// The metrics one consumer reports: records consumed, and how many
/// epochs its watermark trails the engine by. Owners register them under
/// their own names.
#[derive(Default)]
pub struct ConsumerObs {
    /// Bumped once per acked record.
    pub records: Arc<Counter>,
    /// Latest epoch − watermark, set at the end of every drain.
    pub lag: Arc<Gauge>,
}

/// A consumer's checkpoint. `cursor` models the durable resume point
/// (advanced only with the ack); whatever the stage did for the one
/// record past it replays after a kill.
#[derive(Debug, Default)]
struct ConsumerState {
    /// Absolute feed position of the next record to consume.
    cursor: u64,
    /// Epoch of the newest consumed record.
    last_epoch: u64,
    /// Every commit at or below this epoch has been consumed.
    watermark: u64,
    /// Crash-point visits so far (drives deterministic fault schedules).
    steps: u64,
}

/// One registered consumer of an engine's change feed: the checkpointed
/// drain loop every background worker (text indexing, discovery) runs,
/// differing only in the stage it hands to [`FeedConsumer::drain`].
/// Dropping the consumer unregisters it.
pub struct FeedConsumer {
    engine: Arc<StorageEngine>,
    id: u64,
    obs: ConsumerObs,
    state: TrackedMutex<ConsumerState>,
}

impl FeedConsumer {
    pub(crate) fn register(engine: Arc<StorageEngine>, obs: ConsumerObs) -> FeedConsumer {
        let (id, cursor) = engine.feed.register();
        let state = ConsumerState {
            cursor,
            ..ConsumerState::default()
        };
        FeedConsumer {
            engine,
            id,
            obs,
            state: TrackedMutex::new("storage.epoch.consumer", state),
        }
    }

    /// Feed records this consumer has not consumed yet.
    pub fn backlog(&self) -> usize {
        (self.engine.feed.head() - self.state.lock().cursor) as usize
    }

    /// The freshness watermark: every commit at or below this epoch has
    /// been through this consumer's stage.
    pub fn watermark(&self) -> u64 {
        self.state.lock().watermark
    }

    /// Consume up to `budget` records (all pending when `None`); returns
    /// how many were consumed. Per record: fetch the document *at the
    /// record's commit epoch* (a version superseded and reclaimed since
    /// fetches as `None` — its successor's record covers the document),
    /// visit `AfterFetch`, run `stage` (which visits `BeforeCommit` once
    /// its work is computed and nothing is written), visit `AfterCommit`,
    /// then advance cursor and watermark and ack. A kill at any point
    /// leaves the record unacked: the next drain replays it, so a stage
    /// must be idempotent per document version.
    ///
    /// The feed is read without the state lock and the cursor
    /// re-validated under it, so concurrent drains of one consumer are
    /// serialized per record: a drain that lost the race retries rather
    /// than run the stage a second time.
    pub fn drain<S>(&self, budget: Option<usize>, faults: &dyn WorkerFaults, mut stage: S) -> usize
    where
        S: FnMut(ChangeRecord, Option<Document>, &mut CrashPoints<'_>) -> Result<(), Killed>,
    {
        let feed = &self.engine.feed;
        let mut consumed = 0usize;
        while budget.is_none_or(|b| consumed < b) {
            let cursor = self.state.lock().cursor;
            let (records, next) = feed.recv_changes(cursor, 1);
            let mut guard = self.state.lock();
            let state = &mut *guard;
            if state.cursor != cursor {
                continue;
            }
            let Some(&record) = records.first() else {
                // Drained: everything at or below the newest consumed
                // epoch is done. (Deliberately `last_epoch`, not the
                // engine's current epoch — a commit can land between the
                // empty read and this line.)
                state.watermark = state.watermark.max(state.last_epoch);
                break;
            };
            let doc = self.engine.get_latest_at(record.id, record.epoch);
            let mut crash = CrashPoints {
                steps: &mut state.steps,
                faults,
            };
            let step = crash
                .visit(KillPoint::AfterFetch)
                .and_then(|()| stage(record, doc.ok().flatten(), &mut crash))
                .and_then(|()| crash.visit(KillPoint::AfterCommit));
            if step.is_err() {
                break;
            }
            state.cursor = next;
            // The feed is epoch-ordered: reaching epoch `e` means every
            // epoch below `e` is fully consumed.
            state.watermark = state.watermark.max(record.epoch.saturating_sub(1));
            state.last_epoch = state.last_epoch.max(record.epoch);
            feed.ack(self.id, next);
            self.obs.records.inc();
            consumed += 1;
        }
        let lag = self.engine.current_epoch().saturating_sub(self.watermark());
        self.obs.lag.set(lag as i64);
        consumed
    }
}

impl Drop for FeedConsumer {
    fn drop(&mut self) {
        self.engine.feed.unregister(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impliance_docmodel::{DocumentBuilder, SourceFormat};
    use proptest::prelude::*;

    #[test]
    fn pins_track_refcounts_and_watermark() {
        let r = Arc::new(EpochRegistry::default());
        assert_eq!(r.low_watermark(), 0);
        r.publish(3);
        let a = Snapshot::pin(Arc::clone(&r));
        r.publish(7);
        let b = Snapshot::pin(Arc::clone(&r));
        assert_eq!(a.epoch(), 3);
        assert_eq!(b.epoch(), 7);
        assert_eq!(r.low_watermark(), 3);
        assert_eq!(r.pinned(), 2);
        let a2 = a.clone();
        drop(a);
        assert_eq!(r.low_watermark(), 3, "clone still pins epoch 3");
        drop(a2);
        assert_eq!(r.low_watermark(), 7);
        drop(b);
        assert_eq!(r.low_watermark(), 7, "nothing pinned: watermark = current");
    }

    fn record(epoch: u64, id: u64) -> ChangeRecord {
        ChangeRecord {
            epoch,
            id: DocId(id),
        }
    }

    #[test]
    fn feed_cursor_resumes_and_acks() {
        let f = ChangeFeed::default();
        let (me, start) = f.register();
        assert_eq!(start, 0);
        f.append(1, [DocId(10), DocId(11)]);
        f.append(2, [DocId(12)]);
        let (batch, next) = f.recv_changes(0, 2);
        assert_eq!(batch, vec![record(1, 10), record(1, 11)]);
        assert_eq!(next, 2);
        // Replaying the same cursor returns the same records (crash
        // before ack loses no work).
        let (replay, _) = f.recv_changes(0, 2);
        assert_eq!(replay, batch);
        let (rest, next) = f.recv_changes(next, 10);
        assert_eq!(rest.len(), 1);
        assert_eq!(next, 3);
        let (empty, same) = f.recv_changes(next, 10);
        assert!(empty.is_empty());
        assert_eq!(same, 3);
        f.ack(me, 2);
        assert_eq!(f.len(), 1);
        // A cursor below the base resumes at the base.
        let (after_ack, n) = f.recv_changes(0, 10);
        assert_eq!(after_ack.len(), 1);
        assert_eq!(n, 3);
        assert_eq!(f.head(), 3);
        // The last consumer leaving takes the backlog with it.
        f.unregister(me);
        assert_eq!((f.len(), f.head()), (0, 3));
    }

    fn engine() -> Arc<StorageEngine> {
        Arc::new(StorageEngine::with_defaults())
    }

    fn doc(id: u64) -> Document {
        DocumentBuilder::new(DocId(id), SourceFormat::Json, "c")
            .field("x", id as i64)
            .build()
    }

    #[test]
    fn an_engine_nobody_listens_to_retains_no_records() {
        let e = engine();
        for i in 0..10_000 {
            e.put(&doc(i)).unwrap();
        }
        assert_eq!(e.feed_len(), 0);
        assert_eq!(e.feed_head(), 10_000, "the head still counts commits");
        // A late consumer starts at the head: it sees what commits next.
        let late = e.register_consumer(ConsumerObs::default());
        assert_eq!(late.backlog(), 0);
        e.put(&doc(10_000)).unwrap();
        let mut seen = Vec::new();
        late.drain(None, &NoFaults, |rec, _, _| {
            seen.push(rec.id);
            Ok(())
        });
        assert_eq!(seen, vec![DocId(10_000)]);
    }

    #[test]
    fn a_third_consumer_joins_without_touching_the_other_two() {
        let e = engine();
        let a = e.register_consumer(ConsumerObs::default());
        let b = e.register_consumer(ConsumerObs::default());
        for i in 0..10 {
            e.put(&doc(i)).unwrap();
        }
        a.drain(Some(7), &NoFaults, |_, _, _| Ok(()));
        b.drain(Some(3), &NoFaults, |_, _, _| Ok(()));
        assert_eq!(e.feed_len(), 7, "held for b, the slower of the two");
        let before = (a.backlog(), a.watermark(), b.backlog(), b.watermark());

        // The newcomer starts at the oldest retained record and drains
        // at its own pace; nothing about a or b changes.
        let c = e.register_consumer(ConsumerObs::default());
        assert_eq!(c.backlog(), 7);
        let mut seen = Vec::new();
        c.drain(None, &NoFaults, |rec, _, _| {
            seen.push(rec.id.0);
            Ok(())
        });
        assert_eq!(seen, (3..10).collect::<Vec<u64>>());
        assert_eq!(c.watermark(), e.current_epoch());
        assert_eq!(
            before,
            (a.backlog(), a.watermark(), b.backlog(), b.watermark())
        );
        assert_eq!(e.feed_len(), 7, "still held for b");
        // ...and leaving releases only what the leaver alone held.
        drop(b);
        assert_eq!(e.feed_len(), 3, "now a is the slowest");
    }

    /// Concurrent drains of ONE consumer: the cursor re-validation under
    /// the state lock is what keeps a record from being staged twice.
    #[test]
    fn concurrent_drains_of_one_consumer_stage_each_record_once() {
        const DOCS: u64 = 3_000;
        let e = engine();
        let consumer = e.register_consumer(ConsumerObs::default());
        for i in 0..DOCS {
            e.put(&doc(i)).unwrap();
        }
        let staged = parking_lot::Mutex::new(Vec::new());
        let total: usize = std::thread::scope(|scope| {
            let drains: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        consumer.drain(None, &NoFaults, |rec, _, _| {
                            // Let the other drains run up to the state
                            // lock with the cursor they read before this
                            // record is acked.
                            std::thread::yield_now();
                            staged.lock().push(rec.id.0);
                            Ok(())
                        })
                    })
                })
                .collect();
            drains.into_iter().map(|d| d.join().unwrap()).sum()
        });
        assert_eq!(
            total as u64, DOCS,
            "every record acked by exactly one drain"
        );
        assert_eq!(
            *staged.lock(),
            (0..DOCS).collect::<Vec<u64>>(),
            "staged once each, in feed order"
        );
        assert_eq!(consumer.backlog(), 0);
        assert_eq!(e.feed_len(), 0);
    }

    /// Kill the drain at the first visit of `point`.
    struct KillFirst {
        point: Option<KillPoint>,
        fired: std::cell::Cell<bool>,
    }

    impl WorkerFaults for KillFirst {
        fn kill_at(&self, point: KillPoint, _step: u64) -> bool {
            Some(point) == self.point && !self.fired.replace(true)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The protocol under a random interleaving of commits, budgeted
        // drains, kills at each crash point and restarts, for 1-4
        // consumers: the feed keeps exactly what the slowest consumer has
        // not acked, every consumer completes every record exactly once
        // in epoch order, and no watermark passes an unacked record.
        #[test]
        fn consumers_see_every_record_once_and_the_slowest_bounds_truncation(
            consumers in 1usize..5,
            ops in proptest::collection::vec((0usize..6, 0usize..4, 1usize..5), 1..60),
        ) {
            const POINTS: [KillPoint; 3] =
                [KillPoint::AfterFetch, KillPoint::BeforeCommit, KillPoint::AfterCommit];
            let e = engine();
            let workers: Vec<FeedConsumer> = (0..consumers)
                .map(|_| e.register_consumer(ConsumerObs::default()))
                .collect();
            // What the feed must hold, what each consumer has completed.
            let mut committed: Vec<ChangeRecord> = Vec::new();
            let mut completed: Vec<Vec<ChangeRecord>> = vec![Vec::new(); consumers];
            let mut next_id = 0u64;
            // The closing drain of every consumer runs fault-free.
            let closing = (0..consumers).map(|c| (2, c, usize::MAX));
            for (kind, who, arg) in ops.into_iter().chain(closing) {
                let who = who % consumers;
                if kind < 2 {
                    // One commit of `arg` documents: `arg` records, one epoch.
                    let docs: Vec<Document> = (next_id..next_id + arg as u64).map(doc).collect();
                    next_id += arg as u64;
                    let epoch = e.commit(&docs).unwrap();
                    committed.extend(docs.iter().map(|d| record(epoch, d.id().0)));
                } else {
                    // kind 2: budgeted drain; 3..6: killed at one crash point.
                    let faults = KillFirst {
                        point: kind.checked_sub(3).map(|p| POINTS[p]),
                        fired: std::cell::Cell::new(false),
                    };
                    let budget = (arg != usize::MAX).then_some(arg);
                    let from = completed[who].len();
                    let mut staged = Vec::new();
                    let n = workers[who].drain(budget, &faults, |rec, doc, crash| {
                        prop_assert_eq!(doc.map(|d| d.id()), Some(rec.id));
                        staged.push(rec);
                        crash.visit(KillPoint::BeforeCommit)
                    });
                    // The drain staged the records at its cursor, in
                    // order, and acked all but the one it was killed on.
                    let killed_in_stage = faults.fired.get() && kind != 3;
                    prop_assert_eq!(staged.len(), n + killed_in_stage as usize);
                    prop_assert_eq!(&staged[..], &committed[from..from + staged.len()]);
                    completed[who].extend_from_slice(&staged[..n]);
                    if let Some(b) = budget {
                        prop_assert!(n <= b);
                    }
                }
                // Who is behind is the feed's business: it holds exactly
                // the records the slowest consumer has not acked.
                let slowest = completed.iter().map(Vec::len).min().unwrap_or(0);
                prop_assert_eq!(e.feed.inner.lock().base, slowest as u64);
                prop_assert_eq!(e.feed_len(), committed.len() - slowest);
                for (worker, done) in workers.iter().zip(&completed) {
                    prop_assert_eq!(worker.backlog(), committed.len() - done.len());
                    prop_assert!(worker.watermark() <= e.current_epoch());
                    if let Some(unacked) = committed.get(done.len()) {
                        prop_assert!(worker.watermark() < unacked.epoch);
                    }
                }
            }
            for (worker, done) in workers.iter().zip(&completed) {
                prop_assert_eq!(done, &committed);
                prop_assert_eq!(worker.watermark(), e.current_epoch());
            }
            prop_assert_eq!(e.feed_len(), 0);
        }
    }
}
