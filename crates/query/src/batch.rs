//! The batched, pull-based operator pipeline.
//!
//! Every physical operator implements [`Operator`]: a Volcano-style
//! `next_batch` that pulls fixed-capacity [`Batch`]es from its input.
//! Streaming operators (scan, filter, project, limit, hash-probe,
//! indexed-NL probe) hold no more than one batch at a time; blocking
//! operators (sort, group/aggregate, the build and merge sides of joins)
//! materialize only where the algebra requires it, and sort takes a top-K
//! fast path when a downstream `Limit` caps the output. `Limit` stops
//! pulling once satisfied, which terminates the whole pipeline early —
//! a `LIMIT 10` over a million documents now touches batches, not the
//! corpus.
//!
//! This is the only operator family: [`crate::exec::compile`] lowers a
//! plan to these operators whether the tree runs alone on the calling
//! thread or once per morsel inside the exchange in [`crate::parallel`].
//! Scans take the partition range they cover; `Project` and `GroupAgg`
//! accept tuple *and* column batches; the hash join probes a table it
//! built itself or one the exchange built once and shares.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use impliance_docmodel::{DocId, Document, Value};
use impliance_index::{
    search_phrase, search_topk, InvertedIndex, PathValueIndex, SearchHit, SearchMode, SearchQuery,
    TopKStats,
};
use impliance_obs::{catalog, Counter, Histogram};
use impliance_storage::{
    AggValue, Bitmask, ColumnPage, Cursor, Predicate, ScanRequest, StorageEngine, StorageError,
};

use crate::adaptive::AdaptiveFilterChain;
use crate::exec::{ExecError, ExecMetrics};
use crate::plan::{AggItem, SortKey};
use crate::tuple::{Row, Tuple, PSEUDO_ID, PSEUDO_SCORE};

/// Default number of tuples/rows per batch when neither the request nor
/// the appliance config overrides it.
pub const DEFAULT_BATCH_SIZE: usize = 256;

/// Execution metrics shared by every operator of one pipeline.
pub(crate) type SharedMetrics = Rc<RefCell<ExecMetrics>>;

/// A fixed-capacity chunk of intermediate results: bound tuples below a
/// projection/aggregation, output rows above one, typed column vectors
/// between vectorized operators.
#[derive(Debug, Clone)]
pub enum Batch {
    /// Alias-bound documents.
    Tuples(Vec<Tuple>),
    /// Final output rows.
    Rows(Vec<Row>),
    /// Typed column vectors decoded straight from storage segments
    /// ([`ColumnPage`]): one column per requested structural path plus
    /// the matching documents as the row view.
    Columns(ColumnPage),
}

impl Batch {
    /// Number of tuples/rows in the batch.
    pub fn len(&self) -> usize {
        match self {
            Batch::Tuples(t) => t.len(),
            Batch::Rows(r) => r.len(),
            Batch::Columns(p) => p.len,
        }
    }

    /// True when the batch holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keep only the first `n` entries.
    pub fn truncate(&mut self, n: usize) {
        match self {
            Batch::Tuples(t) => t.truncate(n),
            Batch::Rows(r) => r.truncate(n),
            Batch::Columns(p) => p.truncate(n),
        }
    }
}

/// A pull-based physical operator.
pub trait Operator {
    /// Static operator name (the obs key under `query.op.<name>.*`).
    fn name(&self) -> &'static str;

    /// Pull the next batch, or `None` once the operator is exhausted.
    /// Operators never emit empty batches.
    fn next_batch(&mut self) -> Result<Option<Batch>, ExecError>;
}

// ---------------------------------------------------------------------
// Observability: per-operator rows/batches/time plus pipeline-wide
// rows-per-batch distribution and early-termination count. Handles are
// cached once; the per-batch cost is a few relaxed atomic RMWs.
// ---------------------------------------------------------------------

pub(crate) const OP_NAMES: [&str; 10] = [
    "scan",
    "index_scan",
    "filter",
    "join",
    "group_agg",
    "project",
    "sort",
    "limit",
    "graph_connect",
    "fusion",
];

pub(crate) struct OpObs {
    pub(crate) rows: Arc<Counter>,
    pub(crate) us: Arc<Histogram>,
    pub(crate) batches: Arc<Counter>,
}

pub(crate) fn op_obs(idx: usize) -> Option<&'static OpObs> {
    static OBS: OnceLock<Vec<OpObs>> = OnceLock::new();
    OBS.get_or_init(|| {
        let m = impliance_obs::global().metrics();
        OP_NAMES
            .iter()
            .map(|name| OpObs {
                rows: m.counter_in(&catalog::QUERY_OP_ROWS, name),
                us: m.histogram_in(&catalog::QUERY_OP_US, name),
                batches: m.counter_in(&catalog::QUERY_OP_BATCHES, name),
            })
            .collect()
    })
    .get(idx)
}

pub(crate) struct PipelineObs {
    pub(crate) rows_per_batch: Arc<Histogram>,
    pub(crate) early_terminations: Arc<Counter>,
}

pub(crate) fn pipeline_obs() -> &'static PipelineObs {
    static OBS: OnceLock<PipelineObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let m = impliance_obs::global().metrics();
        PipelineObs {
            rows_per_batch: m.histogram(&catalog::QUERY_PIPELINE_ROWS_PER_BATCH),
            early_terminations: m.counter(&catalog::QUERY_PIPELINE_EARLY_TERMINATIONS),
        }
    })
}

/// Metering decorator: records rows, batches, per-pull latency, and the
/// rows-per-batch distribution for the wrapped operator.
pub(crate) struct Metered<'a> {
    inner: Box<dyn Operator + 'a>,
    idx: usize,
}

impl<'a> Metered<'a> {
    pub(crate) fn wrap(idx: usize, inner: Box<dyn Operator + 'a>) -> Box<dyn Operator + 'a> {
        Box::new(Metered { inner, idx })
    }
}

impl Operator for Metered<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>, ExecError> {
        let started = Instant::now();
        let out = self.inner.next_batch();
        if let (Ok(maybe), Some(obs)) = (&out, op_obs(self.idx)) {
            obs.us.observe(started.elapsed().as_micros() as u64);
            if let Some(b) = maybe {
                obs.rows.add(b.len() as u64);
                obs.batches.inc();
                pipeline_obs().rows_per_batch.observe(b.len() as u64);
            }
        }
        out
    }
}

/// Split the first `n` elements off the front of a vector without cloning.
fn take_front<T>(v: &mut Vec<T>, n: usize) -> Vec<T> {
    if n >= v.len() {
        return std::mem::take(v);
    }
    let rest = v.split_off(n);
    std::mem::replace(v, rest)
}

// ---------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------

/// Emits a pre-materialized vector in batches (index lookups, keyword
/// search results, and the legacy-wrapper entry points).
pub struct VecSource {
    name: &'static str,
    data: Batch,
    batch_size: usize,
}

impl VecSource {
    /// A tuple source named for obs purposes.
    pub fn tuples(name: &'static str, tuples: Vec<Tuple>, batch_size: usize) -> VecSource {
        VecSource {
            name,
            data: Batch::Tuples(tuples),
            batch_size: batch_size.max(1),
        }
    }

    /// A row source.
    pub fn rows(name: &'static str, rows: Vec<Row>, batch_size: usize) -> VecSource {
        VecSource {
            name,
            data: Batch::Rows(rows),
            batch_size: batch_size.max(1),
        }
    }
}

impl Operator for VecSource {
    fn name(&self) -> &'static str {
        self.name
    }

    fn next_batch(&mut self) -> Result<Option<Batch>, ExecError> {
        let out = match &mut self.data {
            Batch::Tuples(t) if !t.is_empty() => Batch::Tuples(take_front(t, self.batch_size)),
            Batch::Rows(r) if !r.is_empty() => Batch::Rows(take_front(r, self.batch_size)),
            _ => return Ok(None),
        };
        Ok(Some(out))
    }
}

/// Streaming storage scan: one storage [`Cursor`] page per pull over the
/// scan's partition range (every partition when a tree runs alone, one
/// when it runs as a morsel), predicate push-down (or a node-side
/// residual filter when push-down is off), and scan metrics merged into
/// the pipeline's shared [`ExecMetrics`].
pub struct ScanOp<'a> {
    cursor: Cursor<'a>,
    batch_size: usize,
    alias: String,
    /// Residual predicate evaluated here when push-down is disabled.
    post_filter: Option<Predicate>,
    metrics: SharedMetrics,
}

impl<'a> ScanOp<'a> {
    pub(crate) fn new(
        storage: &'a StorageEngine,
        request: ScanRequest,
        partitions: Range<usize>,
        alias: String,
        post_filter: Option<Predicate>,
        batch_size: usize,
        metrics: SharedMetrics,
    ) -> ScanOp<'a> {
        ScanOp {
            cursor: storage.cursor(Cow::Owned(request), partitions),
            batch_size: batch_size.max(1),
            alias,
            post_filter,
            metrics,
        }
    }
}

impl Operator for ScanOp<'_> {
    fn name(&self) -> &'static str {
        "scan"
    }

    fn next_batch(&mut self) -> Result<Option<Batch>, ExecError> {
        loop {
            let Some(result) = self.cursor.next_rows(self.batch_size)? else {
                return Ok(None);
            };
            self.metrics.borrow_mut().scan.merge(&result.metrics);
            let mut tuples: Vec<Tuple> = result
                .documents
                .into_iter()
                .map(|d| Tuple::single(&self.alias, Arc::new(d)))
                .collect();
            if let Some(p) = &self.post_filter {
                tuples.retain(|t| {
                    t.bindings
                        .get(&self.alias)
                        .map(|d| p.matches(d))
                        .unwrap_or(false)
                });
            }
            if tuples.is_empty() {
                continue; // all-stale or all-filtered page: pull again
            }
            return Ok(Some(Batch::Tuples(tuples)));
        }
    }
}

// ---------------------------------------------------------------------
// Index scan (scored text retrieval)
// ---------------------------------------------------------------------

pub(crate) struct SearchObs {
    pub(crate) queries: Arc<Counter>,
    pub(crate) candidates_scored: Arc<Counter>,
    pub(crate) candidates_pruned: Arc<Counter>,
    pub(crate) early_terminations: Arc<Counter>,
}

pub(crate) fn search_obs() -> &'static SearchObs {
    static OBS: OnceLock<SearchObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let m = impliance_obs::global().metrics();
        SearchObs {
            queries: m.counter(&catalog::QUERY_SEARCH_QUERIES),
            candidates_scored: m.counter(&catalog::QUERY_SEARCH_CANDIDATES_SCORED),
            candidates_pruned: m.counter(&catalog::QUERY_SEARCH_CANDIDATES_PRUNED),
            early_terminations: m.counter(&catalog::QUERY_SEARCH_EARLY_TERMINATIONS),
        }
    })
}

/// Evaluate an index-scan's search and return the ordered hits plus the
/// evaluation stats, recording the global `query.search.*` counters.
/// Shared by the serial operator and the parallel morsel driver so both
/// paths score and account identically.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_index_search(
    index: &InvertedIndex,
    query: &str,
    path: Option<&str>,
    any_term: bool,
    phrase: bool,
    k: Option<usize>,
) -> (Vec<SearchHit>, TopKStats, usize) {
    // An unbounded scan (search feeding structured filters) still needs a
    // heap bound; the live-document count is the exact "all matches" cap.
    let effective_k = k.unwrap_or_else(|| (index.live_docs() as usize).max(1));
    let hits;
    let stats;
    if phrase {
        hits = search_phrase(index, query, path, effective_k);
        stats = TopKStats {
            candidates_scored: hits.len(),
            candidates_pruned: 0,
            total_matched: hits.len(),
        };
    } else {
        let mut q = SearchQuery::new(query, effective_k);
        if any_term {
            q.mode = SearchMode::Or;
        }
        q.path = path.map(str::to_string);
        let (h, s) = search_topk(index, &q);
        hits = h;
        stats = s;
    }
    let obs = search_obs();
    obs.queries.inc();
    obs.candidates_scored.add(stats.candidates_scored as u64);
    obs.candidates_pruned.add(stats.candidates_pruned as u64);
    if stats.early_terminated(effective_k) {
        obs.early_terminations.inc();
    }
    (hits, stats, effective_k)
}

/// Where an [`IndexScanOp`] gets its ordered hit list.
pub(crate) enum IndexHits<'a> {
    /// Evaluate the search on first pull (a tree running alone).
    Search {
        index: &'a InvertedIndex,
        query: String,
        path: Option<String>,
        k: Option<usize>,
        any_term: bool,
        phrase: bool,
    },
    /// One chunk of a hit list the exchange already scored — BM25
    /// statistics are index-global, so the evaluation itself never shards
    /// and its stats were recorded once by the exchange.
    Scored(Vec<SearchHit>),
}

/// Resolves a hit or a probe match to its snapshot-visible document:
/// `Ok(None)` when there is none (deleted, or filtered out), an error
/// when the read itself failed.
pub type Fetch<'a> = Box<dyn Fn(DocId) -> Result<Option<Arc<Document>>, StorageError> + 'a>;

/// Scored text retrieval source: evaluates a BM25 (or phrase) search on
/// first pull (or takes an already-scored chunk of hits), resolves each
/// hit to its snapshot-visible document via `fetch`, and emits
/// score-descending tuple batches whose tuples carry the relevance score
/// (visible to projections as the `_score` pseudo-path). Top-k early
/// termination inside the evaluation is folded into the pipeline's
/// `ExecMetrics` so `ExecStats.early_terminations` reports it honestly.
pub struct IndexScanOp<'a> {
    hits: Option<IndexHits<'a>>,
    alias: String,
    /// Drop hits whose fetched document lives outside this collection.
    collection: Option<String>,
    fetch: Fetch<'a>,
    batch_size: usize,
    metrics: SharedMetrics,
    pending: Vec<Tuple>,
}

impl<'a> IndexScanOp<'a> {
    pub(crate) fn new(
        hits: IndexHits<'a>,
        alias: String,
        collection: Option<String>,
        fetch: Fetch<'a>,
        batch_size: usize,
        metrics: SharedMetrics,
    ) -> IndexScanOp<'a> {
        IndexScanOp {
            hits: Some(hits),
            alias,
            collection,
            fetch,
            batch_size: batch_size.max(1),
            metrics,
            pending: Vec::new(),
        }
    }

    fn fill(&mut self) -> Result<(), ExecError> {
        let hits = match self.hits.take() {
            None => return Ok(()),
            Some(IndexHits::Scored(hits)) => hits,
            Some(IndexHits::Search {
                index,
                query,
                path,
                k,
                any_term,
                phrase,
            }) => {
                let (hits, stats, effective_k) =
                    run_index_search(index, &query, path.as_deref(), any_term, phrase, k);
                self.metrics.borrow_mut().record_search(&stats, effective_k);
                hits
            }
        };
        let mut pending = Vec::new();
        for hit in hits {
            let Some(doc) = (self.fetch)(hit.id)? else {
                continue;
            };
            if let Some(c) = &self.collection {
                if doc.collection() != c {
                    continue;
                }
            }
            pending.push(Tuple::single(&self.alias, doc).with_score(hit.score));
        }
        self.pending = pending;
        Ok(())
    }
}

impl Operator for IndexScanOp<'_> {
    fn name(&self) -> &'static str {
        "index_scan"
    }

    fn next_batch(&mut self) -> Result<Option<Batch>, ExecError> {
        self.fill()?;
        if self.pending.is_empty() {
            return Ok(None);
        }
        Ok(Some(Batch::Tuples(take_front(
            &mut self.pending,
            self.batch_size,
        ))))
    }
}

// ---------------------------------------------------------------------
// Columnar (vectorized) operators
// ---------------------------------------------------------------------

struct ColumnarObs {
    batches: Arc<Counter>,
    rows: Arc<Counter>,
}

fn columnar_obs() -> &'static ColumnarObs {
    static OBS: OnceLock<ColumnarObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let m = impliance_obs::global().metrics();
        ColumnarObs {
            batches: m.counter(&catalog::QUERY_COLUMNAR_BATCHES),
            rows: m.counter(&catalog::QUERY_COLUMNAR_ROWS),
        }
    })
}

/// First-leaf value for row `i` of a page: through the typed column when
/// one was decoded, else through the document view — both reproduce
/// [`Tuple::key`] exactly. Pseudo-paths are never decoded into columns
/// (see `compile_columnar_scan`), so they resolve on the document side: a
/// scanned row has an id and no retrieval score.
fn page_value(
    page: &ColumnPage,
    col: Option<&impliance_storage::Column>,
    i: usize,
    path: &str,
) -> Value {
    match col {
        Some(c) => c.value_at(i),
        None if path == PSEUDO_SCORE => Value::Null,
        None => page
            .docs
            .get(i)
            .and_then(|d| {
                if path == PSEUDO_ID {
                    return Some(Value::Int(d.id().0 as i64));
                }
                d.root().values_at(path).next().cloned()
            })
            .unwrap_or(Value::Null),
    }
}

/// Running group states of an aggregation: group-key rendering → (key
/// value, one state per aggregate).
pub(crate) type Groups = BTreeMap<String, (Value, Vec<AggValue>)>;

/// Project a column page into output rows, column-at-a-time: each output
/// column resolves once to a typed column vector. Pages only reach a
/// projection when every column binds the scan's own alias (the fusion
/// rule in [`crate::exec::compile`]), so aliases are not consulted.
fn project_page(page: &ColumnPage, columns: &[(String, String, String)]) -> Vec<Row> {
    let cols: Vec<Option<&impliance_storage::Column>> = columns
        .iter()
        .map(|(_, path, _)| page.column(path))
        .collect();
    (0..page.len)
        .map(|i| {
            Row::from_pairs(
                columns
                    .iter()
                    .zip(&cols)
                    .map(|((_, path, out), col)| (out.clone(), page_value(page, *col, i, path))),
            )
        })
        .collect()
}

/// Project any batch into output rows — the body of [`ProjectOp`], and
/// what a morsel of a projected collect folds its batches with. Tuples
/// bind output columns through [`Tuple::key`], column pages through their
/// typed vectors; row batches pass through (projection over rows is
/// identity, matching the materialized executor).
pub(crate) fn project_batch(batch: Batch, columns: &[(String, String, String)]) -> Vec<Row> {
    match batch {
        Batch::Tuples(tuples) => tuples
            .iter()
            .map(|t| {
                Row::from_pairs(
                    columns
                        .iter()
                        .map(|(alias, path, out)| (out.clone(), t.key(alias, path))),
                )
            })
            .collect(),
        Batch::Columns(page) => project_page(&page, columns),
        Batch::Rows(rows) => rows,
    }
}

/// Fold a column page into running group states, replicating
/// [`fold_group`] over the column vectors: `Null` group keys exclude the
/// row, each operand observes its first leaf when non-null, operand-less
/// aggregates count rows.
fn fold_page(
    groups: &mut Groups,
    page: &ColumnPage,
    group_by: Option<&(String, String)>,
    aggs: &[AggItem],
) {
    let group_col = group_by.and_then(|(_, path)| page.column(path));
    let agg_cols: Vec<Option<&impliance_storage::Column>> = aggs
        .iter()
        .map(|a| a.operand.as_deref().and_then(|p| page.column(p)))
        .collect();
    for i in 0..page.len {
        let (key_render, key_value) = match group_by {
            None => (String::new(), Value::Null),
            Some((_, path)) => {
                let v = page_value(page, group_col, i, path);
                if v.is_null() {
                    continue; // no group key → excluded, like fold_group
                }
                (v.render(), v)
            }
        };
        let entry = groups
            .entry(key_render)
            .or_insert_with(|| (key_value, vec![AggValue::default(); aggs.len()]));
        for (slot, (agg, col)) in entry.1.iter_mut().zip(aggs.iter().zip(&agg_cols)) {
            match agg.operand.as_deref() {
                None => slot.count += 1,
                Some(path) => {
                    let v = page_value(page, *col, i, path);
                    if !v.is_null() {
                        slot.observe(&v);
                    }
                }
            }
        }
    }
}

/// Fold any batch into running group states — the body of
/// [`GroupAggOp`], and what a morsel of a partitioned aggregate folds its
/// batches with, so serial and per-morsel partial states accumulate
/// identically.
pub(crate) fn fold_batch(
    groups: &mut Groups,
    batch: &Batch,
    group_by: Option<&(String, String)>,
    aggs: &[AggItem],
) -> Result<(), ExecError> {
    match batch {
        Batch::Tuples(tuples) => {
            for t in tuples {
                fold_group(groups, t, group_by, aggs);
            }
        }
        Batch::Columns(page) => fold_page(groups, page, group_by, aggs),
        Batch::Rows(_) => return Err(ExecError::BadPlan("aggregate over non-tuple input".into())),
    }
    Ok(())
}

/// Columnar fast-path scan: pulls [`ColumnPage`]s straight from storage
/// ([`Cursor::next_columns`]), applies the fused filter predicates as
/// vectorized masks, and emits the survivors as [`Batch::Columns`]. The
/// storage cursor is the row path's, so the emitted row sequence is
/// identical to `ScanOp` + `FilterOp`.
pub(crate) struct ColumnarScanOp<'a> {
    cursor: Cursor<'a>,
    batch_size: usize,
    /// Predicates applied here as vectorized masks: the node-side
    /// residual when push-down is off, plus every fused `Filter`.
    masks: Vec<Predicate>,
    /// Extended zone-pruning predicate handed to storage (push-down
    /// only): the scan predicate plus the fused filters, so whole
    /// segments are skipped before decompression.
    prune: Option<Predicate>,
    /// Structural paths decoded into typed column vectors.
    paths: Vec<String>,
    metrics: SharedMetrics,
}

impl<'a> ColumnarScanOp<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        storage: &'a StorageEngine,
        request: ScanRequest,
        partitions: Range<usize>,
        masks: Vec<Predicate>,
        prune: Option<Predicate>,
        paths: Vec<String>,
        batch_size: usize,
        metrics: SharedMetrics,
    ) -> ColumnarScanOp<'a> {
        ColumnarScanOp {
            cursor: storage.cursor(Cow::Owned(request), partitions),
            batch_size: batch_size.max(1),
            masks,
            prune,
            paths,
            metrics,
        }
    }
}

/// Mask a page by the conjunction of `masks`, compacting only when rows
/// actually drop out.
fn mask_page(page: ColumnPage, masks: &[Predicate]) -> ColumnPage {
    let mut keep = Bitmask::ones(page.len);
    for m in masks {
        keep.and_assign(&page.eval_mask(m));
    }
    if keep.count_ones() == page.len {
        page
    } else {
        page.gather(&keep)
    }
}

impl Operator for ColumnarScanOp<'_> {
    fn name(&self) -> &'static str {
        "scan"
    }

    fn next_batch(&mut self) -> Result<Option<Batch>, ExecError> {
        loop {
            let page =
                self.cursor
                    .next_columns(self.batch_size, &self.paths, self.prune.as_ref())?;
            let Some(page) = page else {
                return Ok(None);
            };
            self.metrics.borrow_mut().scan.merge(&page.metrics);
            if page.is_empty() {
                continue;
            }
            let out = mask_page(page, &self.masks);
            if out.is_empty() {
                continue;
            }
            self.metrics.borrow_mut().columnar_batches += 1;
            let obs = columnar_obs();
            obs.batches.inc();
            obs.rows.add(out.len as u64);
            return Ok(Some(Batch::Columns(out)));
        }
    }
}

// ---------------------------------------------------------------------
// Streaming operators
// ---------------------------------------------------------------------

enum FilterMode {
    Single(Predicate),
    /// Multi-conjunct filters run through the self-adapting chain (§3.3
    /// adaptive operators); the chain's learned order persists across
    /// batches.
    Adaptive(AdaptiveFilterChain),
}

/// Streaming filter over tuple batches.
pub struct FilterOp<'a> {
    input: Box<dyn Operator + 'a>,
    alias: String,
    mode: FilterMode,
}

impl<'a> FilterOp<'a> {
    pub fn new(input: Box<dyn Operator + 'a>, alias: String, predicate: Predicate) -> FilterOp<'a> {
        let mode = match predicate {
            Predicate::And(conjuncts) if conjuncts.len() > 1 => {
                FilterMode::Adaptive(AdaptiveFilterChain::new(conjuncts, 64))
            }
            p => FilterMode::Single(p),
        };
        FilterOp { input, alias, mode }
    }
}

impl Operator for FilterOp<'_> {
    fn name(&self) -> &'static str {
        "filter"
    }

    fn next_batch(&mut self) -> Result<Option<Batch>, ExecError> {
        loop {
            let Some(batch) = self.input.next_batch()? else {
                return Ok(None);
            };
            let Batch::Tuples(tuples) = batch else {
                return Err(ExecError::BadPlan("filter over non-tuple input".into()));
            };
            let kept = match &mut self.mode {
                FilterMode::Single(p) => {
                    let mut t = tuples;
                    t.retain(|t| {
                        t.bindings
                            .get(&self.alias)
                            .map(|d| p.matches(d))
                            .unwrap_or(false)
                    });
                    t
                }
                FilterMode::Adaptive(chain) => chain.filter(tuples, &self.alias),
            };
            if kept.is_empty() {
                continue;
            }
            return Ok(Some(Batch::Tuples(kept)));
        }
    }
}

/// Streaming projection ([`project_batch`]): tuples and column pages
/// become rows; row batches pass through.
pub struct ProjectOp<'a> {
    input: Box<dyn Operator + 'a>,
    columns: Vec<(String, String, String)>,
}

impl<'a> ProjectOp<'a> {
    pub fn new(input: Box<dyn Operator + 'a>, columns: Vec<(String, String, String)>) -> Self {
        ProjectOp { input, columns }
    }
}

impl Operator for ProjectOp<'_> {
    fn name(&self) -> &'static str {
        "project"
    }

    fn next_batch(&mut self) -> Result<Option<Batch>, ExecError> {
        let Some(batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        Ok(Some(Batch::Rows(project_batch(batch, &self.columns))))
    }
}

/// Streaming limit: truncates batches and, once satisfied, stops pulling
/// its input entirely — the early-termination signal that propagates all
/// the way down to the storage cursor.
pub struct LimitOp<'a> {
    input: Box<dyn Operator + 'a>,
    remaining: usize,
    input_exhausted: bool,
    recorded_early_stop: bool,
    /// When present, early stops are also recorded per-query (the obs
    /// counter above is process-global).
    metrics: Option<SharedMetrics>,
}

impl<'a> LimitOp<'a> {
    pub fn new(input: Box<dyn Operator + 'a>, n: usize) -> LimitOp<'a> {
        LimitOp {
            input,
            remaining: n,
            input_exhausted: false,
            recorded_early_stop: false,
            metrics: None,
        }
    }

    /// A limit that records early terminations into the pipeline's
    /// shared [`ExecMetrics`] as well as the global obs counter.
    pub(crate) fn with_metrics(
        input: Box<dyn Operator + 'a>,
        n: usize,
        metrics: SharedMetrics,
    ) -> LimitOp<'a> {
        LimitOp {
            metrics: Some(metrics),
            ..LimitOp::new(input, n)
        }
    }
}

impl Operator for LimitOp<'_> {
    fn name(&self) -> &'static str {
        "limit"
    }

    fn next_batch(&mut self) -> Result<Option<Batch>, ExecError> {
        if self.remaining == 0 {
            if !self.input_exhausted && !self.recorded_early_stop {
                self.recorded_early_stop = true;
                pipeline_obs().early_terminations.inc();
                if let Some(m) = &self.metrics {
                    m.borrow_mut().early_terminations += 1;
                }
            }
            return Ok(None);
        }
        match self.input.next_batch()? {
            None => {
                self.input_exhausted = true;
                Ok(None)
            }
            Some(mut batch) => {
                batch.truncate(self.remaining);
                self.remaining -= batch.len();
                Ok(Some(batch))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Blocking operators
// ---------------------------------------------------------------------

pub(crate) fn sort_tuples(tuples: &mut [Tuple], keys: &[SortKey]) {
    tuples.sort_by(|a, b| {
        for k in keys {
            let va = a.key(&k.alias, &k.path);
            let vb = b.key(&k.alias, &k.path);
            let ord = va.total_cmp(&vb);
            let ord = if k.descending { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

/// Keep a top-K sort buffer bounded: once it outgrows twice `k` (at
/// least 64), sort and cut back to `k`. Stable sort + truncate commutes
/// with incremental pruning, so this is exact, not approximate — shared
/// by [`SortOp`] and the per-morsel sort buffers of the exchange.
pub(crate) fn prune_top_k(tuples: &mut Vec<Tuple>, keys: &[SortKey], top_k: Option<usize>) {
    if let Some(k) = top_k {
        if tuples.len() > (2 * k).max(64) {
            sort_tuples(tuples, keys);
            tuples.truncate(k);
        }
    }
}

pub(crate) fn sort_rows(rows: &mut [Row], keys: &[SortKey]) {
    rows.sort_by(|a, b| {
        for k in keys {
            let ord = a.get(&k.path).total_cmp(b.get(&k.path));
            let ord = if k.descending { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

enum SortBuffer {
    Tuples(Vec<Tuple>),
    Rows(Vec<Row>),
    Empty,
}

/// Blocking sort. With `top_k` set (a downstream `Limit` caps the
/// output), the buffer is pruned to `k` whenever it doubles, so memory
/// stays O(k) instead of O(corpus) — the top-K fast path.
pub struct SortOp<'a> {
    input: Option<Box<dyn Operator + 'a>>,
    keys: Vec<SortKey>,
    top_k: Option<usize>,
    batch_size: usize,
    buffer: SortBuffer,
}

impl<'a> SortOp<'a> {
    pub fn new(
        input: Box<dyn Operator + 'a>,
        keys: Vec<SortKey>,
        top_k: Option<usize>,
        batch_size: usize,
    ) -> SortOp<'a> {
        SortOp {
            input: Some(input),
            keys,
            top_k,
            batch_size: batch_size.max(1),
            buffer: SortBuffer::Empty,
        }
    }

    fn fill(&mut self) -> Result<(), ExecError> {
        let Some(mut input) = self.input.take() else {
            return Ok(());
        };
        let mut tuples: Vec<Tuple> = Vec::new();
        let mut rows: Vec<Row> = Vec::new();
        while let Some(batch) = input.next_batch()? {
            match batch {
                Batch::Tuples(t) => tuples.extend(t),
                Batch::Rows(r) => rows.extend(r),
                Batch::Columns(_) => {
                    return Err(ExecError::BadPlan("sort over columnar input".into()))
                }
            }
            prune_top_k(&mut tuples, &self.keys, self.top_k);
            if let Some(k) = self.top_k {
                if rows.len() > (2 * k).max(64) {
                    sort_rows(&mut rows, &self.keys);
                    rows.truncate(k);
                }
            }
        }
        self.buffer = if !tuples.is_empty() {
            sort_tuples(&mut tuples, &self.keys);
            if let Some(k) = self.top_k {
                tuples.truncate(k);
            }
            SortBuffer::Tuples(tuples)
        } else if !rows.is_empty() {
            sort_rows(&mut rows, &self.keys);
            if let Some(k) = self.top_k {
                rows.truncate(k);
            }
            SortBuffer::Rows(rows)
        } else {
            SortBuffer::Empty
        };
        Ok(())
    }
}

impl Operator for SortOp<'_> {
    fn name(&self) -> &'static str {
        "sort"
    }

    fn next_batch(&mut self) -> Result<Option<Batch>, ExecError> {
        self.fill()?;
        let out = match &mut self.buffer {
            SortBuffer::Tuples(t) if !t.is_empty() => Batch::Tuples(take_front(t, self.batch_size)),
            SortBuffer::Rows(r) if !r.is_empty() => Batch::Rows(take_front(r, self.batch_size)),
            _ => return Ok(None),
        };
        Ok(Some(out))
    }
}

/// First bound document's id (aliases iterate in BTreeMap order, so this
/// is deterministic for joined tuples too). Fusion's tie-breaker.
fn tuple_doc_id(t: &Tuple) -> u64 {
    t.bindings.values().next().map(|d| d.id().0).unwrap_or(0)
}

/// Reciprocal-rank fusion over a drained input: re-scores each tuple as
///
/// ```text
/// fused = text_weight / (rrf_k + text_rank)
///       + struct_weight / (rrf_k + struct_rank)
/// ```
///
/// where `text_rank` orders by the carried retrieval score (descending,
/// unscored tuples last) and `struct_rank` orders by the structured sort
/// keys — or by document id descending (recency proxy) when no keys were
/// given. Emits the fused top `k`, score-descending, ties broken by
/// ascending document id. Shared by the operator and the parallel merge.
pub(crate) fn fuse_tuples(
    tuples: Vec<Tuple>,
    k: usize,
    text_weight: f64,
    struct_weight: f64,
    rrf_k: f64,
    keys: &[SortKey],
) -> Vec<Tuple> {
    let n = tuples.len();
    let mut text_order: Vec<usize> = (0..n).collect();
    text_order.sort_by(|&a, &b| {
        let sa = tuples[a].score.unwrap_or(f64::NEG_INFINITY);
        let sb = tuples[b].score.unwrap_or(f64::NEG_INFINITY);
        sb.total_cmp(&sa)
            .then(tuple_doc_id(&tuples[a]).cmp(&tuple_doc_id(&tuples[b])))
    });
    let mut struct_order: Vec<usize> = (0..n).collect();
    if keys.is_empty() {
        struct_order.sort_by(|&a, &b| tuple_doc_id(&tuples[b]).cmp(&tuple_doc_id(&tuples[a])));
    } else {
        struct_order.sort_by(|&a, &b| {
            for key in keys {
                let va = tuples[a].key(&key.alias, &key.path);
                let vb = tuples[b].key(&key.alias, &key.path);
                let ord = va.total_cmp(&vb);
                let ord = if key.descending { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            tuple_doc_id(&tuples[a]).cmp(&tuple_doc_id(&tuples[b]))
        });
    }
    let mut fused = vec![0.0f64; n];
    for (rank, &idx) in text_order.iter().enumerate() {
        fused[idx] += text_weight / (rrf_k + (rank + 1) as f64);
    }
    for (rank, &idx) in struct_order.iter().enumerate() {
        fused[idx] += struct_weight / (rrf_k + (rank + 1) as f64);
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        fused[b]
            .total_cmp(&fused[a])
            .then(tuple_doc_id(&tuples[a]).cmp(&tuple_doc_id(&tuples[b])))
    });
    order.truncate(k);
    let mut scored: Vec<Option<Tuple>> = tuples.into_iter().map(Some).collect();
    order
        .into_iter()
        .filter_map(|idx| scored[idx].take().map(|t| t.with_score(fused[idx])))
        .collect()
}

/// Blocking reciprocal-rank fusion operator: drains its input (tuples
/// carrying text scores from an upstream `IndexScan`), fuses the text
/// ranking with the structured ranking via [`fuse_tuples`], and emits the
/// fused top-k in batches.
pub struct FusionOp<'a> {
    input: Option<Box<dyn Operator + 'a>>,
    k: usize,
    text_weight: f64,
    struct_weight: f64,
    rrf_k: f64,
    keys: Vec<SortKey>,
    batch_size: usize,
    out: Vec<Tuple>,
}

impl<'a> FusionOp<'a> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        input: Box<dyn Operator + 'a>,
        k: usize,
        text_weight: f64,
        struct_weight: f64,
        rrf_k: f64,
        keys: Vec<SortKey>,
        batch_size: usize,
    ) -> FusionOp<'a> {
        FusionOp {
            input: Some(input),
            k,
            text_weight,
            struct_weight,
            rrf_k,
            keys,
            batch_size: batch_size.max(1),
            out: Vec::new(),
        }
    }

    fn fill(&mut self) -> Result<(), ExecError> {
        let Some(mut input) = self.input.take() else {
            return Ok(());
        };
        let mut tuples: Vec<Tuple> = Vec::new();
        while let Some(batch) = input.next_batch()? {
            let Batch::Tuples(t) = batch else {
                return Err(ExecError::BadPlan("fusion over non-tuple input".into()));
            };
            tuples.extend(t);
        }
        self.out = fuse_tuples(
            tuples,
            self.k,
            self.text_weight,
            self.struct_weight,
            self.rrf_k,
            &self.keys,
        );
        Ok(())
    }
}

impl Operator for FusionOp<'_> {
    fn name(&self) -> &'static str {
        "fusion"
    }

    fn next_batch(&mut self) -> Result<Option<Batch>, ExecError> {
        self.fill()?;
        if self.out.is_empty() {
            return Ok(None);
        }
        Ok(Some(Batch::Tuples(take_front(
            &mut self.out,
            self.batch_size,
        ))))
    }
}

/// Fold one tuple into the running group states.
fn fold_group(
    groups: &mut Groups,
    t: &Tuple,
    group_by: Option<&(String, String)>,
    aggs: &[AggItem],
) {
    let (key_render, key_value) = match group_by {
        None => (String::new(), Value::Null),
        Some((alias, path)) => {
            let v = t.key(alias, path);
            if v.is_null() {
                return; // no group key → excluded
            }
            (v.render(), v)
        }
    };
    let entry = groups
        .entry(key_render)
        .or_insert_with(|| (key_value, vec![AggValue::default(); aggs.len()]));
    for (i, agg) in aggs.iter().enumerate() {
        match &agg.operand {
            None => entry.1[i].count += 1,
            Some(path) => {
                // operand path may be alias-qualified through group_by
                // alias; use the first alias that has the path
                for alias in t.bindings.keys() {
                    let v = t.key(alias, path);
                    if !v.is_null() {
                        entry.1[i].observe(&v);
                        break;
                    }
                }
            }
        }
    }
}

/// Render finished group states as output rows.
pub(crate) fn finish_groups(
    groups: Groups,
    group_by: Option<&(String, String)>,
    aggs: &[AggItem],
) -> Vec<Row> {
    groups
        .into_values()
        .map(|(key_value, states)| {
            let mut pairs: Vec<(String, Value)> = Vec::with_capacity(aggs.len() + 1);
            if group_by.is_some() {
                pairs.push(("group".to_string(), key_value));
            }
            for (agg, state) in aggs.iter().zip(states) {
                pairs.push((agg.output.clone(), state.finish(agg.func)));
            }
            Row::from_pairs(pairs)
        })
        .collect()
}

/// Blocking group/aggregate: folds input batches — tuples or column
/// pages, via [`fold_batch`] — into per-group states incrementally
/// (memory is O(groups), not O(input)), then emits the finished rows in
/// batches.
pub struct GroupAggOp<'a> {
    input: Option<Box<dyn Operator + 'a>>,
    group_by: Option<(String, String)>,
    aggs: Vec<AggItem>,
    batch_size: usize,
    out: Vec<Row>,
}

impl<'a> GroupAggOp<'a> {
    pub fn new(
        input: Box<dyn Operator + 'a>,
        group_by: Option<(String, String)>,
        aggs: Vec<AggItem>,
        batch_size: usize,
    ) -> GroupAggOp<'a> {
        GroupAggOp {
            input: Some(input),
            group_by,
            aggs,
            batch_size: batch_size.max(1),
            out: Vec::new(),
        }
    }

    fn fill(&mut self) -> Result<(), ExecError> {
        let Some(mut input) = self.input.take() else {
            return Ok(());
        };
        let mut groups = Groups::new();
        while let Some(batch) = input.next_batch()? {
            fold_batch(&mut groups, &batch, self.group_by.as_ref(), &self.aggs)?;
        }
        self.out = finish_groups(groups, self.group_by.as_ref(), &self.aggs);
        Ok(())
    }
}

impl Operator for GroupAggOp<'_> {
    fn name(&self) -> &'static str {
        "group_agg"
    }

    fn next_batch(&mut self) -> Result<Option<Batch>, ExecError> {
        self.fill()?;
        if self.out.is_empty() {
            return Ok(None);
        }
        Ok(Some(Batch::Rows(take_front(
            &mut self.out,
            self.batch_size,
        ))))
    }
}

// ---------------------------------------------------------------------
// Join operators
// ---------------------------------------------------------------------

/// A hash join's build side: key rendering → build tuples in drain
/// order (so per-key match order is the build input's order).
pub(crate) type JoinTable = HashMap<String, Vec<Tuple>>;

/// Drain a join's build input into its hash table; `Null` keys never
/// join. Run lazily by a [`HashJoinOp`] that owns its build side, or once
/// up front by the exchange for a table every morsel probes.
pub(crate) fn build_join_table(
    right: &mut dyn Operator,
    right_key: &(String, String),
) -> Result<JoinTable, ExecError> {
    let mut table = JoinTable::new();
    while let Some(batch) = right.next_batch()? {
        let Batch::Tuples(tuples) = batch else {
            return Err(ExecError::BadPlan("join right input must be tuples".into()));
        };
        index_build_tuples(&mut table, tuples, right_key);
    }
    Ok(table)
}

/// Add build-side tuples to a join table under their key (the body of
/// [`build_join_table`]; the cluster coordinator feeds it a build side
/// that was gathered from every data node).
pub(crate) fn index_build_tuples(
    table: &mut JoinTable,
    tuples: Vec<Tuple>,
    right_key: &(String, String),
) {
    for t in tuples {
        let k = t.key(&right_key.0, &right_key.1);
        if !k.is_null() {
            table.entry(k.render()).or_default().push(t);
        }
    }
}

enum BuildSide<'a> {
    /// Not built yet: the right input and its key.
    Pending(Box<dyn Operator + 'a>, (String, String)),
    /// Built here on first pull, or shared read-only by the exchange.
    Built(Arc<JoinTable>),
}

/// Hash join: blocking build over the right input (or a table built once
/// elsewhere and shared), streaming probe with left batches.
pub struct HashJoinOp<'a> {
    left: Box<dyn Operator + 'a>,
    left_key: (String, String),
    build: BuildSide<'a>,
}

impl<'a> HashJoinOp<'a> {
    pub fn new(
        left: Box<dyn Operator + 'a>,
        right: Box<dyn Operator + 'a>,
        left_key: (String, String),
        right_key: (String, String),
    ) -> HashJoinOp<'a> {
        HashJoinOp {
            left,
            left_key,
            build: BuildSide::Pending(right, right_key),
        }
    }

    /// A probe-only join over an already-built table.
    pub(crate) fn probing(
        left: Box<dyn Operator + 'a>,
        table: Arc<JoinTable>,
        left_key: (String, String),
    ) -> HashJoinOp<'a> {
        HashJoinOp {
            left,
            left_key,
            build: BuildSide::Built(table),
        }
    }

    fn table(&mut self) -> Result<Arc<JoinTable>, ExecError> {
        match &mut self.build {
            BuildSide::Built(table) => Ok(Arc::clone(table)),
            BuildSide::Pending(right, right_key) => {
                let table = Arc::new(build_join_table(right.as_mut(), right_key)?);
                self.build = BuildSide::Built(Arc::clone(&table));
                Ok(table)
            }
        }
    }
}

impl Operator for HashJoinOp<'_> {
    fn name(&self) -> &'static str {
        "join"
    }

    fn next_batch(&mut self) -> Result<Option<Batch>, ExecError> {
        let table = self.table()?;
        // `out` is hoisted: it is only moved out on a non-empty return, so
        // match-less input batches recycle the same (empty) vector instead
        // of constructing one per batch
        let mut out = Vec::new();
        loop {
            let Some(batch) = self.left.next_batch()? else {
                return Ok(None);
            };
            let Batch::Tuples(tuples) = batch else {
                return Err(ExecError::BadPlan("join left input must be tuples".into()));
            };
            for t in &tuples {
                let k = t.key(&self.left_key.0, &self.left_key.1);
                if k.is_null() {
                    continue;
                }
                if let Some(matches) = table.get(&k.render()) {
                    for m in matches {
                        out.push(t.join(m));
                    }
                }
            }
            if out.is_empty() {
                continue;
            }
            return Ok(Some(Batch::Tuples(out)));
        }
    }
}

/// Indexed nested-loop join: streams left batches, probes the right
/// collection's value index per tuple, fetching matches via `fetch`.
/// Stops early once `limit` output tuples exist (the top-k case §3.3
/// argues for).
pub struct IndexedNlJoinOp<'a> {
    left: Box<dyn Operator + 'a>,
    index: &'a PathValueIndex,
    right_alias: String,
    right_path: String,
    left_key: (String, String),
    fetch: Fetch<'a>,
    limit: Option<usize>,
    emitted: usize,
    done: bool,
    metrics: SharedMetrics,
}

impl<'a> IndexedNlJoinOp<'a> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        left: Box<dyn Operator + 'a>,
        index: &'a PathValueIndex,
        right_alias: String,
        right_path: String,
        left_key: (String, String),
        fetch: Fetch<'a>,
        limit: Option<usize>,
        metrics: SharedMetrics,
    ) -> IndexedNlJoinOp<'a> {
        IndexedNlJoinOp {
            left,
            index,
            right_alias,
            right_path,
            left_key,
            fetch,
            limit,
            emitted: 0,
            done: false,
            metrics,
        }
    }
}

impl Operator for IndexedNlJoinOp<'_> {
    fn name(&self) -> &'static str {
        "join"
    }

    fn next_batch(&mut self) -> Result<Option<Batch>, ExecError> {
        // hoisted for the same reason as HashJoinOp: only moved out when
        // non-empty, so probe-miss batches reuse the vector
        let mut out = Vec::new();
        while !self.done {
            let Some(batch) = self.left.next_batch()? else {
                self.done = true;
                break;
            };
            let Batch::Tuples(tuples) = batch else {
                return Err(ExecError::BadPlan("join left input must be tuples".into()));
            };
            'probe: for t in &tuples {
                self.metrics.borrow_mut().index_lookups += 1;
                let k: Value = t.key(&self.left_key.0, &self.left_key.1);
                if k.is_null() {
                    continue;
                }
                for id in self.index.lookup_eq(&self.right_path, &k) {
                    if let Some(doc) = (self.fetch)(id)? {
                        out.push(t.join(&Tuple::single(&self.right_alias, doc)));
                        self.emitted += 1;
                        if let Some(l) = self.limit {
                            if self.emitted >= l {
                                self.done = true;
                                break 'probe;
                            }
                        }
                    }
                }
            }
            if out.is_empty() {
                continue;
            }
            return Ok(Some(Batch::Tuples(out)));
        }
        Ok(None)
    }
}

/// Drain an operator into a tuple vector (row batches are ignored) —
/// for callers that hold an operator tree and want its whole answer.
pub fn collect_tuples(op: &mut dyn Operator) -> Result<Vec<Tuple>, ExecError> {
    let mut out = Vec::new();
    while let Some(batch) = op.next_batch()? {
        if let Batch::Tuples(t) = batch {
            out.extend(t);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use impliance_docmodel::{DocumentBuilder, SourceFormat};

    fn tuple(id: u64, amount: i64) -> Tuple {
        Tuple::single(
            "c",
            Arc::new(
                DocumentBuilder::new(DocId(id), SourceFormat::Json, "claims")
                    .field("amount", amount)
                    .build(),
            ),
        )
    }

    fn src(n: u64, batch: usize) -> Box<dyn Operator> {
        Box::new(VecSource::tuples(
            "scan",
            (0..n).map(|i| tuple(i, i as i64)).collect(),
            batch,
        ))
    }

    #[test]
    fn vec_source_batches_at_capacity() {
        let mut s = src(10, 4);
        let mut sizes = Vec::new();
        while let Some(b) = s.next_batch().unwrap() {
            sizes.push(b.len());
        }
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn limit_terminates_pipeline_early() {
        // a source that counts how many batches were pulled from it
        struct Counting {
            inner: Box<dyn Operator + 'static>,
            pulls: Rc<RefCell<usize>>,
        }
        impl Operator for Counting {
            fn name(&self) -> &'static str {
                "scan"
            }
            fn next_batch(&mut self) -> Result<Option<Batch>, ExecError> {
                *self.pulls.borrow_mut() += 1;
                self.inner.next_batch()
            }
        }
        let pulls = Rc::new(RefCell::new(0usize));
        let counting = Counting {
            inner: src(1000, 10),
            pulls: Rc::clone(&pulls),
        };
        let mut limit = LimitOp::new(Box::new(counting), 25);
        let mut got = 0;
        while let Some(b) = limit.next_batch().unwrap() {
            got += b.len();
        }
        assert_eq!(got, 25);
        assert_eq!(*pulls.borrow(), 3, "100 batches exist, only 3 pulled");
    }

    #[test]
    fn sort_top_k_matches_full_sort() {
        let keys = vec![SortKey {
            alias: "c".into(),
            path: "amount".into(),
            descending: true,
        }];
        let full = {
            let mut op = SortOp::new(src(500, 16), keys.clone(), None, 16);
            collect_tuples(&mut op).unwrap()
        };
        let topk = {
            let mut op = SortOp::new(src(500, 16), keys.clone(), Some(7), 16);
            collect_tuples(&mut op).unwrap()
        };
        assert_eq!(topk.len(), 7);
        for (a, b) in topk.iter().zip(full.iter()) {
            assert_eq!(a.key("c", "amount"), b.key("c", "amount"));
        }
    }

    fn doc_tuple(alias: &str, id: u64, fields: &[(&str, Value)]) -> Tuple {
        let mut b = DocumentBuilder::new(DocId(id), SourceFormat::Json, "t");
        for (name, value) in fields {
            b = b.field(name, value.clone());
        }
        Tuple::single(alias, Arc::new(b.build()))
    }

    fn vec_src(tuples: Vec<Tuple>) -> Box<dyn Operator> {
        Box::new(VecSource::tuples("scan", tuples, 2))
    }

    #[test]
    fn filter_on_unbound_alias_matches_nothing() {
        let mut f = FilterOp::new(src(10, 4), "missing".into(), Predicate::True);
        assert!(collect_tuples(&mut f).unwrap().is_empty());
    }

    #[test]
    fn sort_orders_by_multiple_keys_with_mixed_direction() {
        let input = [
            (1, 100, "Volvo"),
            (2, 250, "Saab"),
            (3, 50, "Volvo"),
            (4, 175, "Saab"),
        ]
        .into_iter()
        .map(|(id, amount, make)| {
            doc_tuple(
                "c",
                id,
                &[("amount", Value::Int(amount)), ("make", make.into())],
            )
        })
        .collect();
        let key = |path: &str, descending| SortKey {
            alias: "c".into(),
            path: path.into(),
            descending,
        };
        let keys = vec![key("make", false), key("amount", true)];
        let mut sort = SortOp::new(vec_src(input), keys, None, 3);
        let amounts: Vec<Value> = collect_tuples(&mut sort)
            .unwrap()
            .iter()
            .map(|t| t.key("c", "amount"))
            .collect();
        assert_eq!(amounts, [250, 175, 100, 50].map(Value::Int));
    }

    #[test]
    fn group_agg_excludes_tuples_without_a_group_key() {
        let mut input: Vec<Tuple> = (0..4)
            .map(|i| {
                doc_tuple(
                    "c",
                    i,
                    &[("make", if i % 2 == 0 { "Volvo" } else { "Saab" }.into())],
                )
            })
            .collect();
        input.push(doc_tuple("c", 9, &[("amount", Value::Int(1))])); // no make
        let count = AggItem {
            func: impliance_storage::AggFunc::Count,
            operand: None,
            output: "n".into(),
        };
        let group_by = Some(("c".to_string(), "make".to_string()));
        let mut agg = GroupAggOp::new(vec_src(input), group_by, vec![count], 8);
        let mut total = 0;
        while let Some(Batch::Rows(rows)) = agg.next_batch().unwrap() {
            total += rows.iter().filter_map(|r| r.get("n").as_i64()).sum::<i64>();
        }
        assert_eq!(total, 4, "keyless tuple excluded");
    }

    fn orders() -> Vec<Tuple> {
        [(1, "C-1"), (2, "C-2"), (3, "C-1"), (4, "C-9")]
            .into_iter()
            .map(|(id, cust)| doc_tuple("o", id, &[("cust", cust.into())]))
            .collect()
    }

    fn customers() -> Vec<Tuple> {
        [(100, "C-1"), (101, "C-2")]
            .into_iter()
            .map(|(id, code)| doc_tuple("c", id, &[("code", code.into())]))
            .collect()
    }

    fn join_keys() -> ((String, String), (String, String)) {
        (("o".into(), "cust".into()), ("c".into(), "code".into()))
    }

    #[test]
    fn null_keys_and_empty_inputs_never_join() {
        let (lk, rk) = join_keys();
        let mut left = orders();
        left.push(doc_tuple("o", 9, &[("order_id", Value::Int(9))])); // no cust key
        let mut hash = HashJoinOp::new(
            vec_src(left.clone()),
            vec_src(customers()),
            lk.clone(),
            rk.clone(),
        );
        assert_eq!(collect_tuples(&mut hash).unwrap().len(), 3);
        let mut no_left = HashJoinOp::new(
            vec_src(Vec::new()),
            vec_src(customers()),
            lk.clone(),
            rk.clone(),
        );
        assert!(collect_tuples(&mut no_left).unwrap().is_empty());
        let mut no_right = HashJoinOp::new(vec_src(orders()), vec_src(Vec::new()), lk, rk);
        assert!(collect_tuples(&mut no_right).unwrap().is_empty());
    }

    #[test]
    fn indexed_nl_join_stops_at_its_limit() {
        let index = PathValueIndex::new();
        let store: HashMap<DocId, Arc<Document>> = customers()
            .into_iter()
            .flat_map(|t| t.bindings.into_values())
            .map(|d| (d.id(), d))
            .collect();
        for d in store.values() {
            index.index_document(d);
        }
        let join = |limit| {
            let metrics: SharedMetrics = Rc::new(RefCell::new(ExecMetrics::default()));
            let mut op = IndexedNlJoinOp::new(
                vec_src(orders()),
                &index,
                "c".into(),
                "code".into(),
                join_keys().0,
                Box::new(|id| Ok(store.get(&id).cloned())),
                limit,
                Rc::clone(&metrics),
            );
            let out = collect_tuples(&mut op).unwrap().len();
            let lookups = metrics.borrow().index_lookups;
            (out, lookups)
        };
        assert_eq!(
            join(None),
            (3, 4),
            "C-9 has no customer; every order probes"
        );
        assert_eq!(join(Some(1)), (1, 1), "the first match ends the probe loop");
    }

    #[test]
    fn filter_keeps_adaptive_state_across_batches() {
        let pred = Predicate::And(vec![
            Predicate::Ge("amount".into(), Value::Int(0)),
            Predicate::Lt("amount".into(), Value::Int(5)),
        ]);
        let mut f = FilterOp::new(src(100, 8), "c".into(), pred);
        let mut got = 0;
        while let Some(b) = f.next_batch().unwrap() {
            got += b.len();
        }
        assert_eq!(got, 5);
    }
}
