//! The incremental background discovery worker.
//!
//! §3.2: "this indexing need not take place as part of the same
//! transaction that infused that document initially … All data entering
//! into Impliance will also go through a number of asynchronous analysis
//! phases." §3.3 splits annotation extraction across node types:
//! intra-document analyses (entity extraction, sentiment) on data nodes,
//! inter-document analyses (entity resolution) on grid nodes, and
//! consistent persistence on cluster nodes.
//!
//! Discovery is one **stage** of the storage change feed's consumer loop
//! ([`impliance_storage::FeedConsumer::drain`]): the loop owns cursor,
//! watermark, crash points and ack; for each committed document version
//! it hands [`DiscoveryPipeline::discover`] the document *as of the
//! change's commit epoch*. The stage runs the annotators and hands the
//! document's complete annotation set to
//! [`DiscoverySink::commit_annotations`] — one atomic commit, one epoch
//! bump — so no reader at any snapshot ever observes a half-annotated
//! document. A consumer killed mid-record replays that record, and the
//! stage remembers the `(DocId, Version)` it committed last so the
//! replay does not commit the set a second time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use impliance_docmodel::{DocId, Document, Version};
use impliance_obs::Counter;
use impliance_storage::{ConsumerObs, CrashPoints, KillPoint, Killed};
use parking_lot::Mutex;

use crate::annotator::Annotator;
use crate::resolve::EntityResolver;

/// Pipeline progress surfaced through the workspace metrics registry.
struct PipelineObs {
    docs_scanned: Arc<Counter>,
    annotations_emitted: Arc<Counter>,
    feed_commits: Arc<Counter>,
}

fn pipeline_obs() -> &'static PipelineObs {
    static OBS: OnceLock<PipelineObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let m = impliance_obs::global().metrics();
        PipelineObs {
            docs_scanned: m.counter("annotate.docs_scanned"),
            annotations_emitted: m.counter("annotate.annotations_emitted"),
            feed_commits: m.counter("annotate.feed.commits"),
        }
    })
}

/// The metrics the discovery worker's feed consumer reports under.
pub fn feed_obs() -> ConsumerObs {
    let m = impliance_obs::global().metrics();
    ConsumerObs {
        records: m.counter("annotate.feed.consumed"),
        lag: m.gauge("annotate.feed.lag"),
    }
}

/// Where the pipeline writes its discoveries (implemented by the appliance:
/// annotation documents are stored + indexed; relationships become join
/// indexes via a consistency-group commit).
pub trait DiscoverySink: Send + Sync {
    /// Record a discovered relationship.
    fn add_relationship(&self, from: DocId, to: DocId, label: &str);
    /// Atomically persist one source document's *complete* annotation
    /// set: all documents in a single epoch bump, so no snapshot can tear
    /// the set.
    fn commit_annotations(&self, annotations: Vec<Document>);
}

/// Counters describing pipeline progress.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiscoveryStats {
    /// Documents processed.
    pub docs_processed: u64,
    /// Annotation documents produced.
    pub annotations: u64,
    /// Entity mentions extracted.
    pub mentions: u64,
    /// Cross-document relationships discovered.
    pub relationships: u64,
}

/// The discovery pipeline.
pub struct DiscoveryPipeline {
    annotators: Vec<Box<dyn Annotator>>,
    resolver: Mutex<EntityResolver>,
    next_annotation_id: Arc<AtomicU64>,
    stats: Mutex<DiscoveryStats>,
    /// The `(subject, version)` whose annotation set committed last. The
    /// consumer loop acks per record and serializes its drains, so this
    /// is the only version a kill can make it replay — one key, however
    /// many documents go through. (A real deployment would rebuild it at
    /// recovery: each annotation names its subject and that version.)
    committed: Mutex<Option<(DocId, Version)>>,
}

impl DiscoveryPipeline {
    /// Create a pipeline with the given annotators. `id_allocator` hands
    /// out document ids for new annotation documents (shared with the
    /// appliance's ingestion id space). `resolution_threshold` is the
    /// Jaro-Winkler link threshold for cross-document entity resolution.
    pub fn new(
        annotators: Vec<Box<dyn Annotator>>,
        id_allocator: Arc<AtomicU64>,
        resolution_threshold: f64,
    ) -> DiscoveryPipeline {
        DiscoveryPipeline {
            annotators,
            resolver: Mutex::new(EntityResolver::new(resolution_threshold)),
            next_annotation_id: id_allocator,
            stats: Mutex::new(DiscoveryStats::default()),
            committed: Mutex::new(None),
        }
    }

    /// Progress counters.
    pub fn stats(&self) -> DiscoveryStats {
        *self.stats.lock()
    }

    /// The discovery stage of the feed consumer loop: annotate one
    /// committed document version (annotators + entity resolution),
    /// commit its full annotation set atomically, then record the
    /// relationships. `BeforeCommit` is visited for every fetched
    /// document once its set is computed and nothing is persisted —
    /// also when there is nothing to write (annotation documents are not
    /// re-annotated, a replay after a post-commit kill finds its set
    /// already committed).
    pub fn discover(
        &self,
        doc: Option<Document>,
        sink: &dyn DiscoverySink,
        crash: &mut CrashPoints<'_>,
    ) -> Result<(), Killed> {
        let Some(doc) = doc else { return Ok(()) };
        let key = (doc.id(), doc.version());
        let fresh = doc.subject().is_none() && *self.committed.lock() != Some(key);
        let work = fresh.then(|| self.annotate_document(&doc));
        crash.visit(KillPoint::BeforeCommit)?;
        let Some((annotations, edges, mention_count)) = work else {
            return Ok(());
        };
        let produced = annotations.len() as u64;
        // The whole annotation set lands in ONE commit (one epoch bump):
        // a reader at any snapshot sees none of it or all of it.
        sink.commit_annotations(annotations);
        *self.committed.lock() = Some(key);
        for (from, to, label) in &edges {
            sink.add_relationship(*from, *to, label);
        }
        let obs = pipeline_obs();
        obs.docs_scanned.inc();
        obs.annotations_emitted.add(produced);
        obs.feed_commits.inc();
        let mut stats = self.stats.lock();
        stats.docs_processed += 1;
        stats.annotations += produced;
        stats.mentions += mention_count as u64;
        stats.relationships += edges.len() as u64;
        Ok(())
    }

    /// Run annotators and entity resolution for one document, returning
    /// the annotation documents, the relationship edges to record after
    /// they commit, and the mention count. Pure with respect to the sink:
    /// nothing is persisted here, so a pre-commit kill loses no state.
    fn annotate_document(
        &self,
        doc: &Document,
    ) -> (Vec<Document>, Vec<(DocId, DocId, String)>, usize) {
        let mut all_mentions = Vec::new();
        let mut annotations = Vec::new();
        let mut edges = Vec::new();
        for annotator in &self.annotators {
            if !annotator.interested(doc) {
                continue;
            }
            for annotation in annotator.annotate(doc) {
                let ann_id = DocId(self.next_annotation_id.fetch_add(1, Ordering::Relaxed));
                let collection = format!("annotations.{}", annotation.kind);
                annotations.push(Document::annotation(
                    ann_id,
                    doc.id(),
                    collection,
                    doc.ingested_at(),
                    annotation.body,
                ));
                edges.push((ann_id, doc.id(), "annotates".to_string()));
                all_mentions.extend(annotation.mentions);
            }
        }
        // Inter-document stage: resolve entities against everything seen.
        let links = self.resolver.lock().observe(doc.id(), &all_mentions);
        for link in &links {
            edges.push((link.a, link.b, format!("same-{}", link.kind.name())));
        }
        let mentions = all_mentions.len();
        (annotations, edges, mentions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotator::{EntityAnnotator, SentimentAnnotator};
    use impliance_docmodel::{DocumentBuilder, Node, SourceFormat};
    use impliance_storage::{FeedConsumer, NoFaults, StorageEngine, WorkerFaults};
    use parking_lot::RwLock;

    #[derive(Default)]
    struct MemSink {
        annotations: RwLock<Vec<Document>>,
        edges: RwLock<Vec<(DocId, DocId, String)>>,
        commits: RwLock<Vec<usize>>,
    }

    impl DiscoverySink for MemSink {
        fn add_relationship(&self, from: DocId, to: DocId, label: &str) {
            self.edges.write().push((from, to, label.to_string()));
        }
        fn commit_annotations(&self, annotations: Vec<Document>) {
            self.commits.write().push(annotations.len());
            self.annotations.write().extend(annotations);
        }
    }

    /// A storage engine with the discovery stage on its change feed. The
    /// sink keeps annotations in memory, so the feed holds exactly the
    /// documents a test puts.
    struct Rig {
        engine: Arc<StorageEngine>,
        consumer: FeedConsumer,
        sink: MemSink,
        pipeline: DiscoveryPipeline,
    }

    impl Rig {
        fn new(pipeline: DiscoveryPipeline, docs: &[Document]) -> Rig {
            let engine = Arc::new(StorageEngine::with_defaults());
            let consumer = engine.register_consumer(ConsumerObs::default());
            for d in docs {
                engine.put(d).unwrap();
            }
            Rig {
                engine,
                consumer,
                sink: MemSink::default(),
                pipeline,
            }
        }

        fn with(docs: &[Document]) -> Rig {
            Rig::new(pipeline(), docs)
        }

        fn run(&self, budget: Option<usize>, faults: &dyn WorkerFaults) -> usize {
            self.consumer.drain(budget, faults, |_, doc, crash| {
                self.pipeline.discover(doc, &self.sink, crash)
            })
        }
    }

    fn pipeline() -> DiscoveryPipeline {
        DiscoveryPipeline::new(
            vec![Box::new(EntityAnnotator), Box::new(SentimentAnnotator)],
            Arc::new(AtomicU64::new(1_000_000)),
            0.92,
        )
    }

    fn doc(id: u64, text: &str) -> Document {
        DocumentBuilder::new(DocId(id), SourceFormat::Text, "transcripts")
            .field("body", text)
            .build()
    }

    #[test]
    fn drain_consumes_feed_and_stores_annotations() {
        let rig = Rig::with(&[doc(
            1,
            "Grace Hopper is very happy with product BX-1042, thanks!",
        )]);
        assert_eq!(rig.run(None, &NoFaults), 1);
        assert_eq!(rig.engine.feed_len(), 0, "consumed records are acked away");
        assert_eq!(rig.consumer.watermark(), 1, "watermark reaches the commit");
        let anns = rig.sink.annotations.read();
        // entity + sentiment annotations
        assert_eq!(anns.len(), 2);
        assert!(anns.iter().all(|a| a.subject() == Some(DocId(1))));
        assert!(anns
            .iter()
            .any(|a| a.collection() == "annotations.entities"));
        assert!(anns
            .iter()
            .any(|a| a.collection() == "annotations.sentiment"));
        // one atomic commit holding the whole annotation set
        assert_eq!(*rig.sink.commits.read(), vec![2]);
        // every annotation has an "annotates" edge
        let edges = rig.sink.edges.read();
        assert_eq!(edges.iter().filter(|(_, _, l)| l == "annotates").count(), 2);
    }

    #[test]
    fn cross_document_resolution_links_shared_entities() {
        let rig = Rig::with(&[
            doc(1, "Call from Grace Hopper about a refund"),
            doc(2, "Grace Hopper bought product AX-99 again"),
        ]);
        rig.run(None, &NoFaults);
        let edges = rig.sink.edges.read();
        assert!(
            edges
                .iter()
                .any(|(a, b, l)| *a == DocId(1) && *b == DocId(2) && l == "same-person"),
            "expected same-person edge, got {edges:?}"
        );
    }

    #[test]
    fn budget_limits_work_per_drain() {
        let docs: Vec<Document> = (0..10)
            .map(|i| doc(i, "Ada is happy in Boston today"))
            .collect();
        let rig = Rig::with(&docs);
        assert_eq!(rig.run(Some(3), &NoFaults), 3);
        assert_eq!(rig.consumer.backlog(), 7);
        assert_eq!(rig.pipeline.stats().docs_processed, 3);
        // the partial drain leaves the watermark behind the feed head
        assert!(rig.consumer.watermark() < 10);
    }

    #[test]
    fn superseded_and_reclaimed_versions_are_skipped_gracefully() {
        let v1 = doc(1, "Grace Hopper is happy");
        let v2 = v1.new_version(Node::map([("body".into(), Node::scalar("n/a"))]), 1);
        let rig = Rig::with(&[v1, v2]);
        rig.engine.set_version_gc(true);
        assert_eq!(rig.engine.run_gc(), 1, "version 1 is reclaimed");
        // The first record fetches nothing at its epoch; its successor's
        // record covers the document.
        assert_eq!(rig.run(None, &NoFaults), 2);
        assert_eq!(rig.pipeline.stats().docs_processed, 1);
        assert_eq!(
            rig.consumer.watermark(),
            2,
            "missing docs still advance the watermark"
        );
    }

    #[test]
    fn stats_accumulate() {
        let rig = Rig::with(&[doc(1, "Mr. Jones was extremely disappointed")]);
        rig.run(None, &NoFaults);
        let s = rig.pipeline.stats();
        assert_eq!(s.docs_processed, 1);
        assert!(s.annotations >= 2, "{s:?}");
        assert!(s.mentions >= 1);
    }

    #[test]
    fn annotation_ids_come_from_allocator() {
        let alloc = Arc::new(AtomicU64::new(500));
        let p = DiscoveryPipeline::new(vec![Box::new(EntityAnnotator)], alloc, 0.9);
        let rig = Rig::new(p, &[doc(1, "Ada is happy with service, thanks a lot")]);
        rig.run(None, &NoFaults);
        assert_eq!(rig.sink.annotations.read()[0].id(), DocId(500));
    }

    /// Kill at a specific step, once.
    struct KillOnceAt {
        point: KillPoint,
        step: u64,
        fired: std::sync::atomic::AtomicBool,
    }

    impl KillOnceAt {
        fn new(point: KillPoint, step: u64) -> KillOnceAt {
            KillOnceAt {
                point,
                step,
                fired: std::sync::atomic::AtomicBool::new(false),
            }
        }
    }

    impl WorkerFaults for KillOnceAt {
        fn kill_at(&self, point: KillPoint, step: u64) -> bool {
            if point == self.point && step >= self.step && !self.fired.swap(true, Ordering::Relaxed)
            {
                return true;
            }
            false
        }
    }

    #[test]
    fn kill_before_commit_replays_without_duplicates() {
        let rig = Rig::with(&[
            doc(1, "Grace Hopper is happy"),
            doc(2, "Ada Lovelace is unhappy"),
        ]);
        // Steps per doc: AfterFetch, BeforeCommit, AfterCommit, counted
        // from 0. Kill the second document's BeforeCommit (step 4).
        let faults = KillOnceAt::new(KillPoint::BeforeCommit, 4);
        let n = rig.run(None, &faults);
        assert_eq!(n, 1, "killed before the second record was acked");
        assert_eq!(rig.consumer.backlog(), 1, "unacked record is replayable");
        // Nothing from doc 2 was persisted (no partial annotation set).
        assert!(rig
            .sink
            .annotations
            .read()
            .iter()
            .all(|a| a.subject() == Some(DocId(1))));
        // Recovery: the replay finishes doc 2 exactly once.
        let n = rig.run(None, &NoFaults);
        assert_eq!(n, 1);
        assert_eq!(rig.engine.feed_len(), 0);
        let per_doc2 = rig
            .sink
            .annotations
            .read()
            .iter()
            .filter(|a| a.subject() == Some(DocId(2)))
            .count();
        assert_eq!(per_doc2, 2, "entity + sentiment, no duplicates");
        assert_eq!(rig.consumer.watermark(), 2);
    }

    #[test]
    fn kill_after_commit_is_idempotent_on_replay() {
        let rig = Rig::with(&[doc(1, "Grace Hopper is happy")]);
        let faults = KillOnceAt::new(KillPoint::AfterCommit, 2);
        let n = rig.run(None, &faults);
        assert_eq!(n, 0, "killed before ack");
        assert_eq!(rig.consumer.backlog(), 1, "record still replayable");
        assert_eq!(
            rig.sink.annotations.read().len(),
            2,
            "commit landed before the kill"
        );
        // Replay must not commit the annotation set a second time.
        let n = rig.run(None, &NoFaults);
        assert_eq!(n, 1);
        assert_eq!(rig.sink.annotations.read().len(), 2, "no duplicates");
        assert_eq!(*rig.sink.commits.read(), vec![2], "exactly one commit");
        assert_eq!(rig.consumer.watermark(), 1);
    }

    #[test]
    fn idempotence_state_stays_one_key_however_many_documents_drain() {
        let docs: Vec<Document> = (0..1_000).map(|i| doc(i, "Ada is happy")).collect();
        let rig = Rig::with(&docs);
        assert_eq!(rig.run(None, &NoFaults), 1_000);
        assert_eq!(rig.pipeline.stats().docs_processed, 1_000);
        // Only the record past the cursor can replay, so only the set
        // committed last needs remembering.
        let last = docs[999].version();
        let held: Vec<(DocId, Version)> = rig.pipeline.committed.lock().iter().copied().collect();
        assert_eq!(held, vec![(DocId(999), last)]);
    }

    #[test]
    fn annotation_feedback_records_are_skipped() {
        // An annotation document arriving on the feed (the sink's own
        // commit) is consumed but not re-annotated.
        let ann = Document::annotation(
            DocId(9),
            DocId(1),
            "annotations.entities",
            7,
            Node::scalar("x"),
        );
        let rig = Rig::with(&[ann]);
        assert_eq!(rig.run(None, &NoFaults), 1);
        assert!(rig.sink.annotations.read().is_empty());
        assert_eq!(rig.pipeline.stats().docs_processed, 0);
    }
}
