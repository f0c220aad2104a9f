//! Single-node plan execution over the batched operator pipeline.
//!
//! [`compile`] is the only lowering of a [`LogicalPlan`]: it turns a plan
//! into a tree of pull-based [`crate::batch::Operator`]s, and [`drain`]
//! is the only loop that pulls one. [`execute_plan_opts`] runs a tree on
//! the calling thread; with `worker_threads > 1` it first offers the
//! plan to the exchange in [`crate::parallel`], which compiles the *same*
//! plan segment once per morsel under a [`Scope`] (the left-spine base
//! scan restricted to one partition or one chunk of scored hits, hash
//! joins probing tables built once) and drains each tree with the same
//! loop. Streaming operators (scan/filter/project/limit) never
//! materialize their input; `Limit` stops pulling once satisfied, so a
//! `LIMIT k` plan touches only as many storage pages as needed. The
//! distributed executor ([`crate::dist`]) runs the same morsels — same
//! split, same `compile`, same `drain` — on the simulated data node that
//! owns each one.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use impliance_docmodel::{DocId, Document};
use impliance_index::{InvertedIndex, JoinIndex, PathValueIndex, SearchHit, TopKStats};
use impliance_storage::{
    Predicate, Projection, ScanMetrics, ScanRequest, StorageEngine, StorageError, Visible,
};

use crate::batch::{
    op_obs, Batch, ColumnarScanOp, FilterOp, FusionOp, GroupAggOp, HashJoinOp, IndexHits,
    IndexScanOp, IndexedNlJoinOp, JoinTable, LimitOp, Metered, Operator, ProjectOp, ScanOp,
    SharedMetrics, SortMergeJoinOp, SortOp, VecSource,
};
use crate::context::ExecutionContext;
use crate::plan::{AggItem, JoinAlgo, LogicalPlan};
use crate::tuple::{Row, Tuple, PSEUDO_ID, PSEUDO_SCORE};

/// Errors during execution.
#[derive(Debug)]
pub enum ExecError {
    /// Underlying storage failed.
    Storage(StorageError),
    /// The plan was malformed (e.g. projection over a row-producing
    /// input).
    BadPlan(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Storage(e) => write!(f, "storage error: {e}"),
            ExecError::BadPlan(m) => write!(f, "bad plan: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

/// Execution-side metrics (merged scan metrics plus row counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Storage scan accounting.
    pub scan: ScanMetrics,
    /// Tuples produced by the root operator.
    pub rows_out: u64,
    /// Index lookups performed.
    pub index_lookups: u64,
    /// Batches drained at the root of an operator tree — the one tree of
    /// a serial run, summed over every morsel's tree on the parallel path
    /// (operators never emit empty batches, so empty pages do not count).
    pub batches: u64,
    /// Worker threads that executed this query (1 on the serial path).
    pub workers_used: u64,
    /// Times a `Limit` stopped pulling (or the parallel merge truncated)
    /// before its input was exhausted — or a top-k `IndexScan` evaluation
    /// skipped part of its candidate space.
    pub early_terminations: u64,
    /// `IndexScan` candidates whose text score was fully accumulated.
    pub search_candidates_scored: u64,
    /// `IndexScan` candidates skipped by upper-bound (MaxScore) pruning.
    pub search_candidates_pruned: u64,
    /// True when the per-query deadline expired before the pipeline
    /// drained: the output is a partial prefix, not the full answer.
    pub deadline_exceeded: bool,
    /// Columnar batches produced by the vectorized fast path (`0` means
    /// the query ran entirely on the row-at-a-time decode path).
    pub columnar_batches: u64,
    /// Microseconds the query spent waiting for admission before
    /// execution started (0 when admission control was not in the path).
    /// Filled in by the workload manager, not the executor.
    pub queue_wait_us: u64,
}

impl ExecMetrics {
    /// Account for one evaluated index search.
    pub(crate) fn record_search(&mut self, stats: &TopKStats, effective_k: usize) {
        self.index_lookups += 1;
        self.search_candidates_scored += stats.candidates_scored as u64;
        self.search_candidates_pruned += stats.candidates_pruned as u64;
        if stats.early_terminated(effective_k) {
            self.early_terminations += 1;
        }
    }

    /// Add the work another operator tree of the same query did (a
    /// morsel's, or a shared join build side's). `rows_out`,
    /// `workers_used` and `deadline_exceeded` belong to the query root
    /// and are set there.
    pub(crate) fn absorb(&mut self, other: &ExecMetrics) {
        self.scan.merge(&other.scan);
        self.index_lookups += other.index_lookups;
        self.batches += other.batches;
        self.early_terminations += other.early_terminations;
        self.search_candidates_scored += other.search_candidates_scored;
        self.search_candidates_pruned += other.search_candidates_pruned;
        self.columnar_batches += other.columnar_batches;
    }
}

pub(crate) fn deadline_obs() -> &'static Arc<impliance_obs::Counter> {
    static OBS: OnceLock<Arc<impliance_obs::Counter>> = OnceLock::new();
    OBS.get_or_init(|| {
        impliance_obs::global()
            .metrics()
            .counter("query.pipeline.deadline_exceeded")
    })
}

/// Everything a query needs to run on one node.
pub struct ExecContext<'a> {
    /// The document store.
    pub storage: &'a StorageEngine,
    /// Full-text index.
    pub text_index: &'a InvertedIndex,
    /// Path/value index.
    pub value_index: &'a PathValueIndex,
    /// Discovered-relationship index.
    pub join_index: &'a JoinIndex,
    /// Evaluate predicates at the storage node (push-down). On by
    /// default; experiment C2 turns it off to measure the difference.
    pub pushdown: bool,
    /// Use the columnar fast path where the plan shape allows it
    /// (`Project`/`GroupAgg` over `Filter*{Scan}`): segments decode
    /// straight into typed column vectors, predicates run as vectorized
    /// masks, and zone maps skip whole segments. Off reproduces the
    /// row-at-a-time pipeline everywhere.
    pub columnar: bool,
    /// Pinned snapshot epoch: every storage read (scans, index point
    /// fetches, join probes) sees exactly the commits at or before this
    /// epoch, so one query never observes a torn mix of versions. `None`
    /// reads the unpinned latest (single-threaded/test contexts).
    pub snapshot: Option<u64>,
}

/// The result of executing a plan.
#[derive(Debug)]
pub enum QueryOutput {
    /// Projected/aggregated rows.
    Rows(Vec<Row>),
    /// Bound documents (un-projected plans).
    Docs(Vec<Arc<Document>>),
    /// Graph connection path (`GraphConnect` plans).
    Path(Option<Vec<DocId>>),
}

impl QueryOutput {
    /// Row view (empty for non-row outputs).
    pub fn rows(&self) -> &[Row] {
        match self {
            QueryOutput::Rows(r) => r,
            _ => &[],
        }
    }

    /// Document view (empty for non-doc outputs).
    pub fn docs(&self) -> &[Arc<Document>] {
        match self {
            QueryOutput::Docs(d) => d,
            _ => &[],
        }
    }

    /// Number of rows/docs produced.
    pub fn len(&self) -> usize {
        match self {
            QueryOutput::Rows(r) => r.len(),
            QueryOutput::Docs(d) => d.len(),
            QueryOutput::Path(p) => usize::from(p.is_some()),
        }
    }

    /// True when nothing was produced.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The output of an un-projected plan: every tuple's bound documents,
    /// in alias order.
    pub(crate) fn unbind(tuples: Vec<Tuple>) -> QueryOutput {
        QueryOutput::Docs(
            tuples
                .into_iter()
                .flat_map(|t| t.bindings.into_values())
                .collect(),
        )
    }
}

/// Execute a plan with default options, returning output and metrics.
pub fn execute_plan(
    ctx: &ExecContext<'_>,
    plan: &LogicalPlan,
) -> Result<(QueryOutput, ExecMetrics), ExecError> {
    execute_plan_opts(ctx, plan, &ExecutionContext::default())
}

/// Execute a plan as a batched pipeline with an explicit execution
/// context. With `worker_threads > 1` the plan is first offered to the
/// exchange ([`crate::parallel`]); plans it cannot split — and every plan
/// at `worker_threads == 1` or over a single-partition store — run as one
/// unscoped tree on the calling thread, through the same [`compile`] and
/// the same [`drain`].
pub fn execute_plan_opts(
    ctx: &ExecContext<'_>,
    plan: &LogicalPlan,
    opts: &ExecutionContext,
) -> Result<(QueryOutput, ExecMetrics), ExecError> {
    let plan = plan.with_limit(opts.limit);
    let plan = plan.as_ref();
    // Register in the preemption gate for the whole execution: while a
    // High query holds the gate, lower-priority morsel workers and the
    // background annotation worker yield between work units.
    let _preempt = crate::preempt::PreemptGuard::enter(opts.priority);
    if opts.worker_threads > 1 {
        if let Some(result) = crate::parallel::try_execute_parallel(ctx, plan, opts)? {
            return Ok(result);
        }
    }
    let metrics: SharedMetrics = Rc::new(RefCell::new(ExecMetrics::default()));
    metrics.borrow_mut().workers_used = 1;
    let batch_size = opts.batch_size.max(1);
    let (mut op, kind) = match compile(ctx, plan, batch_size, &metrics, &Scope::default(), None)? {
        Compiled::Path(p) => return Ok((QueryOutput::Path(p), *metrics.borrow())),
        Compiled::Op { op, kind } => (op, kind),
    };
    let deadline_at = opts.deadline.map(|d| Instant::now() + d);
    let expired = || {
        let hit = deadline_at.is_some_and(|d| Instant::now() >= d);
        if hit && !metrics.borrow().deadline_exceeded {
            metrics.borrow_mut().deadline_exceeded = true;
            deadline_obs().inc();
        }
        hit
    };
    let mut tuples: Vec<Tuple> = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    drain(op.as_mut(), &metrics, expired, |batch| {
        match batch {
            Batch::Tuples(t) => tuples.extend(t),
            Batch::Rows(r) => rows.extend(r),
            Batch::Columns(_) => {}
        }
        Ok(true)
    })?;
    let (rows_out, output) = match kind {
        Kind::Rows => (rows.len(), QueryOutput::Rows(rows)),
        Kind::Tuples | Kind::Columns => (tuples.len(), QueryOutput::unbind(tuples)),
    };
    metrics.borrow_mut().rows_out = rows_out as u64;
    let m = *metrics.borrow();
    Ok((output, m))
}

/// The one pull loop: drain `op` until it is exhausted, `expired` reports
/// the budget gone (checked before every pull), or `sink` returns `false`
/// (it has all it needs). Every drained batch counts once in
/// [`ExecMetrics::batches`] — on the calling thread and inside every
/// morsel alike.
pub(crate) fn drain(
    op: &mut dyn Operator,
    metrics: &SharedMetrics,
    mut expired: impl FnMut() -> bool,
    mut sink: impl FnMut(Batch) -> Result<bool, ExecError>,
) -> Result<(), ExecError> {
    while !expired() {
        let Some(batch) = op.next_batch()? else { break };
        metrics.borrow_mut().batches += 1;
        if !sink(batch)? {
            break;
        }
    }
    Ok(())
}

/// Static batch type of a compiled operator.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Tuples,
    Rows,
    /// Column pages — only ever handed to the consumer whose
    /// [`ColumnDemand`] asked for them.
    Columns,
}

/// A compiled plan: an operator tree, or an already-resolved graph path
/// (`GraphConnect` runs at compile time — it is a point lookup, not a
/// stream).
pub(crate) enum Compiled<'a> {
    Op {
        op: Box<dyn Operator + 'a>,
        kind: Kind,
    },
    Path(Option<Vec<DocId>>),
}

/// One unit of exchange work: the slice of the base source a morsel's
/// tree reads instead of the whole.
#[derive(Clone, Copy)]
pub(crate) enum Morsel<'s> {
    /// One storage partition of a `Scan` base.
    Partition(usize),
    /// One chunk of the ordered, already-scored hit list of an
    /// `IndexScan` base.
    Hits(&'s [SearchHit]),
}

/// How the exchange restricts one [`compile`] call. The default (no
/// morsel, no tables) is the unscoped tree the calling thread runs. A
/// scope applies along the plan's *left spine* only: the base source is
/// narrowed to `morsel`, and each hash join listed in `tables` (by node
/// identity) probes that shared table instead of compiling and draining
/// its build side again. Build sides are always compiled unscoped.
#[derive(Clone, Copy, Default)]
pub(crate) struct Scope<'s> {
    pub(crate) morsel: Option<Morsel<'s>>,
    pub(crate) tables: &'s [(&'s LogicalPlan, Arc<JoinTable>)],
}

/// What a consumer that can read [`Batch::Columns`] (`Project`,
/// `GroupAgg`, or the morsel fold standing in for one) needs from its
/// input: the aliases it dereferences and the paths it reads.
pub(crate) struct ColumnDemand<'p> {
    aliases: Vec<&'p str>,
    paths: Vec<&'p str>,
}

impl<'p> ColumnDemand<'p> {
    pub(crate) fn of_project(columns: &'p [(String, String, String)]) -> ColumnDemand<'p> {
        ColumnDemand {
            aliases: columns.iter().map(|(alias, _, _)| alias.as_str()).collect(),
            paths: columns.iter().map(|(_, path, _)| path.as_str()).collect(),
        }
    }

    pub(crate) fn of_group_agg(
        group_by: Option<&'p (String, String)>,
        aggs: &'p [AggItem],
    ) -> ColumnDemand<'p> {
        ColumnDemand {
            aliases: group_by.iter().map(|(alias, _)| alias.as_str()).collect(),
            paths: group_by
                .iter()
                .map(|(_, path)| path.as_str())
                .chain(aggs.iter().filter_map(|a| a.operand.as_deref()))
                .collect(),
        }
    }
}

/// Compile a logical plan into a pull-based operator tree, type-checking
/// operator inputs statically. This is the only lowering: `scope`
/// narrows it to one morsel of the exchange, and `demand` (set by the
/// consumer directly above `plan`) lets a fusable `Filter*{Scan}` chain
/// compile to the vectorized scan instead of row operators.
pub(crate) fn compile<'a>(
    ctx: &ExecContext<'a>,
    plan: &LogicalPlan,
    batch_size: usize,
    metrics: &SharedMetrics,
    scope: &Scope<'_>,
    demand: Option<&ColumnDemand<'_>>,
) -> Result<Compiled<'a>, ExecError> {
    // The single columnar-eligibility decision.
    if let (true, Some(demand)) = (ctx.columnar, demand) {
        if let Some(fused) = fusable_chain(plan, demand) {
            return Ok(Compiled::Op {
                op: compile_columnar_scan(ctx, &fused, demand, batch_size, metrics, scope),
                kind: Kind::Columns,
            });
        }
    }
    // Everything below the node being compiled inherits the scope and
    // demands tuples unless the node says otherwise.
    let input_of = |input: &LogicalPlan, demand: Option<&ColumnDemand<'_>>| {
        compile(ctx, input, batch_size, metrics, scope, demand)
    };
    match plan {
        LogicalPlan::Scan {
            collection,
            predicate,
            alias,
            use_value_index,
        } => {
            let op = compile_scan(
                ctx,
                collection.as_deref(),
                predicate.as_ref(),
                alias,
                *use_value_index,
                batch_size,
                metrics,
                scope,
            )?;
            Ok(Compiled::Op {
                op: Metered::wrap(0, op),
                kind: Kind::Tuples,
            })
        }
        LogicalPlan::IndexScan {
            query,
            path,
            k,
            alias,
            any_term,
            phrase,
            collection,
        } => {
            let hits = match scope.morsel {
                Some(Morsel::Hits(chunk)) => IndexHits::Scored(chunk.to_vec()),
                _ => IndexHits::Search {
                    index: ctx.text_index,
                    query: query.clone(),
                    path: path.clone(),
                    k: *k,
                    any_term: *any_term,
                    phrase: *phrase,
                },
            };
            let storage = ctx.storage;
            let snap = snap_epoch(ctx);
            let fetch = move |id: DocId| -> Option<Arc<Document>> {
                storage.get_latest_at(id, snap).ok().flatten().map(Arc::new)
            };
            Ok(Compiled::Op {
                op: Metered::wrap(
                    1,
                    Box::new(IndexScanOp::new(
                        hits,
                        alias.clone(),
                        collection.clone(),
                        Box::new(fetch),
                        batch_size,
                        Rc::clone(metrics),
                    )),
                ),
                kind: Kind::Tuples,
            })
        }
        LogicalPlan::Fusion {
            input,
            k,
            text_weight,
            struct_weight,
            rrf_k,
            keys,
        } => match input_of(input, None)? {
            Compiled::Op {
                op,
                kind: Kind::Tuples,
            } => Ok(Compiled::Op {
                op: Metered::wrap(
                    9,
                    Box::new(FusionOp::new(
                        op,
                        *k,
                        *text_weight,
                        *struct_weight,
                        *rrf_k,
                        keys.clone(),
                        batch_size,
                    )),
                ),
                kind: Kind::Tuples,
            }),
            _ => Err(ExecError::BadPlan("fusion over non-tuple input".into())),
        },
        LogicalPlan::Filter {
            input,
            alias,
            predicate,
        } => match input_of(input, None)? {
            Compiled::Op {
                op,
                kind: Kind::Tuples,
            } => Ok(Compiled::Op {
                op: Metered::wrap(
                    2,
                    Box::new(FilterOp::new(op, alias.clone(), predicate.clone())),
                ),
                kind: Kind::Tuples,
            }),
            _ => Err(ExecError::BadPlan("filter over non-tuple input".into())),
        },
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
            algo,
        } => {
            let lop = match input_of(left, None)? {
                Compiled::Op {
                    op,
                    kind: Kind::Tuples,
                } => op,
                _ => return Err(ExecError::BadPlan("join left input must be tuples".into())),
            };
            let op: Box<dyn Operator + 'a> = match algo {
                JoinAlgo::IndexedNestedLoop => {
                    // right side must be a bare scan we can index-probe
                    let (right_alias, right_collection) = match right.as_ref() {
                        LogicalPlan::Scan {
                            alias,
                            collection,
                            predicate: None,
                            ..
                        } => (alias.clone(), collection.clone()),
                        _ => {
                            return Err(ExecError::BadPlan(
                                "indexed NL join right side must be a plain scan".into(),
                            ))
                        }
                    };
                    let storage = ctx.storage;
                    let snap = snap_epoch(ctx);
                    let fetch = move |id: DocId| -> Option<Arc<Document>> {
                        match storage.get_latest_at(id, snap) {
                            Ok(Some(d)) => {
                                if let Some(c) = &right_collection {
                                    if d.collection() != c {
                                        return None;
                                    }
                                }
                                Some(Arc::new(d))
                            }
                            _ => None,
                        }
                    };
                    Box::new(IndexedNlJoinOp::new(
                        lop,
                        ctx.value_index,
                        right_alias,
                        right_key.1.clone(),
                        left_key.clone(),
                        Box::new(fetch),
                        None,
                        Rc::clone(metrics),
                    ))
                }
                JoinAlgo::SortMerge => {
                    let rop = compile_join_side(ctx, right, batch_size, metrics)?;
                    Box::new(SortMergeJoinOp::new(
                        lop,
                        rop,
                        left_key.clone(),
                        right_key.clone(),
                        batch_size,
                    ))
                }
                JoinAlgo::Hash | JoinAlgo::Unspecified => {
                    match scope
                        .tables
                        .iter()
                        .find(|(node, _)| std::ptr::eq(*node, plan))
                    {
                        Some((_, table)) => Box::new(HashJoinOp::probing(
                            lop,
                            Arc::clone(table),
                            left_key.clone(),
                        )),
                        None => {
                            let rop = compile_join_side(ctx, right, batch_size, metrics)?;
                            Box::new(HashJoinOp::new(
                                lop,
                                rop,
                                left_key.clone(),
                                right_key.clone(),
                            ))
                        }
                    }
                }
            };
            Ok(Compiled::Op {
                op: Metered::wrap(3, op),
                kind: Kind::Tuples,
            })
        }
        LogicalPlan::GroupAgg {
            input,
            group_by,
            aggs,
        } => {
            let demand = ColumnDemand::of_group_agg(group_by.as_ref(), aggs);
            match input_of(input, Some(&demand))? {
                Compiled::Op {
                    op,
                    kind: Kind::Tuples | Kind::Columns,
                } => Ok(Compiled::Op {
                    op: Metered::wrap(
                        4,
                        Box::new(GroupAggOp::new(
                            op,
                            group_by.clone(),
                            aggs.clone(),
                            batch_size,
                        )),
                    ),
                    kind: Kind::Rows,
                }),
                _ => Err(ExecError::BadPlan("aggregate over non-tuple input".into())),
            }
        }
        LogicalPlan::Project { input, columns } => {
            match input_of(input, Some(&ColumnDemand::of_project(columns)))? {
                // projection over rows is identity; over tuples and
                // column pages it binds output columns
                Compiled::Op { op, kind: _ } => Ok(Compiled::Op {
                    op: Metered::wrap(5, Box::new(ProjectOp::new(op, columns.clone()))),
                    kind: Kind::Rows,
                }),
                Compiled::Path(_) => Err(ExecError::BadPlan("project over path output".into())),
            }
        }
        LogicalPlan::Sort { input, keys } => match input_of(input, None)? {
            Compiled::Op { op, kind } => Ok(Compiled::Op {
                op: Metered::wrap(6, Box::new(SortOp::new(op, keys.clone(), None, batch_size))),
                kind,
            }),
            p => Ok(p), // sort over a path is a no-op
        },
        LogicalPlan::Limit { input, n } => {
            // Limit directly over Sort: hand the cap to the sort so it
            // keeps a k-sized buffer instead of sorting the full input.
            if let LogicalPlan::Sort {
                input: sort_input,
                keys,
            } = input.as_ref()
            {
                match input_of(sort_input, None)? {
                    Compiled::Op { op, kind } => {
                        let sort = Metered::wrap(
                            6,
                            Box::new(SortOp::new(op, keys.clone(), Some(*n), batch_size)),
                        );
                        return Ok(Compiled::Op {
                            op: Metered::wrap(
                                7,
                                Box::new(LimitOp::with_metrics(sort, *n, Rc::clone(metrics))),
                            ),
                            kind,
                        });
                    }
                    p => return Ok(p),
                }
            }
            match input_of(input, None)? {
                Compiled::Op { op, kind } => Ok(Compiled::Op {
                    op: Metered::wrap(
                        7,
                        Box::new(LimitOp::with_metrics(op, *n, Rc::clone(metrics))),
                    ),
                    kind,
                }),
                p => Ok(p), // limit over a path is a no-op
            }
        }
        LogicalPlan::GraphConnect { a, b, max_hops } => {
            // point lookup in the relationship graph: resolved eagerly
            let started = Instant::now();
            metrics.borrow_mut().index_lookups += 1;
            let path = ctx.join_index.connect(DocId(*a), DocId(*b), *max_hops);
            if let Some(obs) = op_obs(8) {
                obs.rows.add(u64::from(path.is_some()));
                obs.us.observe(started.elapsed().as_micros() as u64);
            }
            Ok(Compiled::Path(path))
        }
    }
}

/// Compile a hash/sort-merge join's build input — always unscoped (a
/// morsel narrows only the probe spine) — which must produce tuples.
pub(crate) fn compile_join_side<'a>(
    ctx: &ExecContext<'a>,
    plan: &LogicalPlan,
    batch_size: usize,
    metrics: &SharedMetrics,
) -> Result<Box<dyn Operator + 'a>, ExecError> {
    match compile(ctx, plan, batch_size, metrics, &Scope::default(), None)? {
        Compiled::Op {
            op,
            kind: Kind::Tuples,
        } => Ok(op),
        _ => Err(ExecError::BadPlan("join right input must be tuples".into())),
    }
}

/// The partitions a scan under `scope` covers: the morsel's one, or the
/// whole store.
fn scoped_partitions(ctx: &ExecContext<'_>, scope: &Scope<'_>) -> std::ops::Range<usize> {
    match scope.morsel {
        Some(Morsel::Partition(p)) => p..p + 1,
        _ => 0..ctx.storage.partition_count(),
    }
}

/// Compile a storage scan: an index-backed point lookup when a value
/// index applies, otherwise a streaming cursor over the scoped
/// partitions (with push-down, or a node-side residual filter when
/// push-down is off).
#[allow(clippy::too_many_arguments)]
fn compile_scan<'a>(
    ctx: &ExecContext<'a>,
    collection: Option<&str>,
    predicate: Option<&Predicate>,
    alias: &str,
    use_value_index: bool,
    batch_size: usize,
    metrics: &SharedMetrics,
    scope: &Scope<'_>,
) -> Result<Box<dyn Operator + 'a>, ExecError> {
    // Index-backed point lookup: only for a top-level Eq predicate.
    if use_value_index {
        if let Some(Predicate::Eq(path, value)) = predicate {
            metrics.borrow_mut().index_lookups += 1;
            let ids = ctx.value_index.lookup_eq(path, value);
            let mut tuples = Vec::with_capacity(ids.len());
            for id in ids {
                if let Some(doc) = ctx.storage.get_latest_at(id, snap_epoch(ctx))? {
                    if collection.map(|c| doc.collection() == c).unwrap_or(true) {
                        tuples.push(Tuple::single(alias, Arc::new(doc)));
                    }
                }
            }
            return Ok(Box::new(VecSource::tuples("scan", tuples, batch_size)));
        }
    }
    // Storage scan, with or without push-down.
    let (request, post_filter) =
        scan_request_parts(ctx.pushdown, collection, predicate, ctx.snapshot);
    Ok(Box::new(ScanOp::new(
        ctx.storage,
        request,
        scoped_partitions(ctx, scope),
        alias.to_string(),
        post_filter,
        batch_size,
        Rc::clone(metrics),
    )))
}

/// The visibility epoch for point reads: the pinned snapshot, or
/// `u64::MAX` (everything visible) when the context is unpinned.
pub(crate) fn snap_epoch(ctx: &ExecContext<'_>) -> u64 {
    ctx.snapshot.unwrap_or(u64::MAX)
}

/// Build the storage [`ScanRequest`] and node-side residual predicate for
/// a logical scan — shared by the row and the vectorized scan so both see
/// identical pages.
fn scan_request_parts(
    pushdown: bool,
    collection: Option<&str>,
    predicate: Option<&Predicate>,
    snapshot: Option<u64>,
) -> (ScanRequest, Option<Predicate>) {
    let visible = Visible::AtEpoch(snapshot.unwrap_or(u64::MAX));
    let mut combined = Vec::new();
    if let Some(c) = collection {
        combined.push(Predicate::CollectionIs(c.to_string()));
    }
    if pushdown {
        if let Some(p) = predicate {
            combined.push(p.clone());
        }
        (
            ScanRequest {
                predicate: match combined.len() {
                    0 => None,
                    1 => combined.pop(),
                    _ => Some(Predicate::And(combined)),
                },
                projection: Projection::All,
                visible,
            },
            None,
        )
    } else {
        // No push-down: only collection routing happens at storage; the
        // predicate runs here, after full documents crossed the "network".
        (
            ScanRequest {
                predicate: match combined.len() {
                    0 => None,
                    _ => Some(Predicate::And(combined)),
                },
                projection: Projection::All,
                visible,
            },
            predicate.cloned(),
        )
    }
}

/// A `Filter*{Scan}` chain that the columnar fast path can fuse into a
/// single vectorized scan: the base scan's parameters plus every filter
/// predicate stacked above it (innermost first).
struct FusedScan<'p> {
    collection: Option<&'p str>,
    predicate: Option<&'p Predicate>,
    filters: Vec<&'p Predicate>,
}

/// Walk a plan subtree looking for a fusable `Filter*{Scan}` chain. The
/// chain does not fuse when the scan wants the value index for a point
/// lookup (the index path is already faster than any scan) or when a
/// filter — or the consumer above, per `demand` — dereferences an alias
/// other than the scan's own (the row-wise semantics of an unbound alias
/// are Null-propagation, which column vectors of the scanned document
/// cannot express).
fn fusable_chain<'p>(plan: &'p LogicalPlan, demand: &ColumnDemand<'_>) -> Option<FusedScan<'p>> {
    let mut filters: Vec<(&str, &Predicate)> = Vec::new();
    let mut cur = plan;
    loop {
        match cur {
            LogicalPlan::Filter {
                input,
                alias,
                predicate,
            } => {
                filters.push((alias, predicate));
                cur = input;
            }
            LogicalPlan::Scan {
                collection,
                predicate,
                alias,
                use_value_index,
            } => {
                if *use_value_index && matches!(predicate, Some(Predicate::Eq(_, _))) {
                    return None;
                }
                let mut aliases = filters
                    .iter()
                    .map(|(a, _)| *a)
                    .chain(demand.aliases.iter().copied());
                if aliases.any(|a| a != alias.as_str()) {
                    return None;
                }
                filters.reverse();
                return Some(FusedScan {
                    collection: collection.as_deref(),
                    predicate: predicate.as_ref(),
                    filters: filters.into_iter().map(|(_, p)| p).collect(),
                });
            }
            _ => return None,
        }
    }
}

/// Build the vectorized scan for a fused chain: the storage request uses
/// the same push-down split as the row path, the decoded columns are the
/// consumer's `demand` plus every fused filter's paths, fused filter
/// predicates become vectorized masks, and — when push-down is on — the
/// combined predicate is handed to storage as a zone-map pruning hint so
/// whole segments are skipped before decompression.
fn compile_columnar_scan<'a>(
    ctx: &ExecContext<'a>,
    fused: &FusedScan<'_>,
    demand: &ColumnDemand<'_>,
    batch_size: usize,
    metrics: &SharedMetrics,
    scope: &Scope<'_>,
) -> Box<dyn Operator + 'a> {
    let mut paths: Vec<String> = demand.paths.iter().map(|p| p.to_string()).collect();
    for p in &fused.filters {
        paths.extend(p.referenced_paths().into_iter().map(str::to_string));
    }
    // Pseudo-paths (`_id`, `_score`) name no stored leaf: consumers read
    // them off the page's documents, never from a (all-Null) column.
    paths.retain(|p| p != PSEUDO_ID && p != PSEUDO_SCORE);
    paths.sort();
    paths.dedup();
    let (request, post_filter) = scan_request_parts(
        ctx.pushdown,
        fused.collection,
        fused.predicate,
        ctx.snapshot,
    );
    let mut masks: Vec<Predicate> = Vec::new();
    if let Some(p) = post_filter {
        masks.push(p);
    }
    masks.extend(fused.filters.iter().map(|p| (*p).clone()));
    let prune = if ctx.pushdown && !fused.filters.is_empty() {
        let mut all: Vec<Predicate> = Vec::new();
        if let Some(p) = &request.predicate {
            all.push(p.clone());
        }
        all.extend(fused.filters.iter().map(|p| (*p).clone()));
        Some(Predicate::And(all))
    } else {
        None
    };
    Metered::wrap(
        0,
        Box::new(ColumnarScanOp::new(
            ctx.storage,
            request,
            scoped_partitions(ctx, scope),
            masks,
            prune,
            paths,
            batch_size,
            Rc::clone(metrics),
        )),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use impliance_docmodel::{DocumentBuilder, SourceFormat, Value};
    use impliance_storage::{AggFunc, StorageOptions};

    struct Fixture {
        storage: StorageEngine,
        text: InvertedIndex,
        values: PathValueIndex,
        joins: JoinIndex,
    }

    impl Fixture {
        fn new() -> Fixture {
            let storage = StorageEngine::new(StorageOptions {
                partitions: 2,
                seal_threshold: 16,
                compression: true,
                encryption_key: None,
            });
            let text = InvertedIndex::new(4);
            let values = PathValueIndex::new();
            let joins = JoinIndex::new();
            // customers
            for (id, code, name) in [(1u64, "C-1", "Ada"), (2, "C-2", "Grace")] {
                let d = DocumentBuilder::new(DocId(id), SourceFormat::RelationalRow, "customers")
                    .field("code", code)
                    .field("name", name)
                    .build();
                storage.put(&d).unwrap();
                text.index_document(&d);
                values.index_document(&d);
            }
            // orders
            for (id, cust, amount, notes) in [
                (10u64, "C-1", 100i64, "urgent bumper replacement"),
                (11, "C-1", 250, "hood repaint"),
                (12, "C-2", 50, "mirror fix"),
            ] {
                let d = DocumentBuilder::new(DocId(id), SourceFormat::Json, "orders")
                    .field("cust", cust)
                    .field("amount", amount)
                    .field("notes", notes)
                    .build();
                storage.put(&d).unwrap();
                text.index_document(&d);
                values.index_document(&d);
            }
            joins.add_edge(DocId(10), DocId(1), "references-customer");
            joins.add_edge(DocId(12), DocId(2), "references-customer");
            Fixture {
                storage,
                text,
                values,
                joins,
            }
        }

        fn ctx(&self) -> ExecContext<'_> {
            ExecContext {
                storage: &self.storage,
                text_index: &self.text,
                value_index: &self.values,
                join_index: &self.joins,
                pushdown: true,
                columnar: true,
                snapshot: None,
            }
        }
    }

    fn scan_plan(collection: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            collection: Some(collection.to_string()),
            predicate: None,
            alias: collection.to_string(),
            use_value_index: false,
        }
    }

    #[test]
    fn scan_filters_by_collection() {
        let f = Fixture::new();
        let (out, m) = execute_plan(&f.ctx(), &scan_plan("customers")).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(m.scan.docs_scanned, 5);
    }

    #[test]
    fn scan_with_pushdown_predicate() {
        let f = Fixture::new();
        let plan = LogicalPlan::Scan {
            collection: Some("orders".into()),
            predicate: Some(Predicate::Ge("amount".into(), Value::Int(100))),
            alias: "o".into(),
            use_value_index: false,
        };
        let (out, m) = execute_plan(&f.ctx(), &plan).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(m.scan.docs_matched, 2);
    }

    #[test]
    fn pushdown_off_returns_same_answers_more_bytes() {
        let f = Fixture::new();
        let plan = LogicalPlan::Scan {
            collection: Some("orders".into()),
            predicate: Some(Predicate::Ge("amount".into(), Value::Int(100))),
            alias: "o".into(),
            use_value_index: false,
        };
        let mut ctx_off = f.ctx();
        ctx_off.pushdown = false;
        let (out_on, m_on) = execute_plan(&f.ctx(), &plan).unwrap();
        let (out_off, m_off) = execute_plan(&ctx_off, &plan).unwrap();
        assert_eq!(out_on.len(), out_off.len());
        assert!(
            m_off.scan.bytes_returned > m_on.scan.bytes_returned,
            "without pushdown more bytes travel: {} vs {}",
            m_off.scan.bytes_returned,
            m_on.scan.bytes_returned
        );
    }

    #[test]
    fn index_backed_scan() {
        let f = Fixture::new();
        let plan = LogicalPlan::Scan {
            collection: Some("orders".into()),
            predicate: Some(Predicate::Eq("cust".into(), Value::Str("C-1".into()))),
            alias: "o".into(),
            use_value_index: true,
        };
        let (out, m) = execute_plan(&f.ctx(), &plan).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(m.index_lookups, 1);
        assert_eq!(m.scan.docs_scanned, 0, "no storage scan happened");
    }

    #[test]
    fn index_scan_plan() {
        let f = Fixture::new();
        let plan = LogicalPlan::IndexScan {
            query: "bumper".into(),
            path: None,
            k: Some(10),
            alias: "d".into(),
            any_term: false,
            phrase: false,
            collection: None,
        };
        let (out, m) = execute_plan(&f.ctx(), &plan).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.docs()[0].id(), DocId(10));
        assert_eq!(m.index_lookups, 1);
        assert_eq!(m.search_candidates_scored, 1);
    }

    #[test]
    fn index_scan_projects_scored_rows() {
        let f = Fixture::new();
        // project the pseudo-paths so the scored hit surfaces as a row
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::IndexScan {
                query: "urgent bumper".into(),
                path: None,
                k: Some(5),
                alias: "d".into(),
                any_term: false,
                phrase: false,
                collection: Some("orders".into()),
            }),
            columns: vec![
                ("d".into(), "_id".into(), "id".into()),
                ("d".into(), "_score".into(), "score".into()),
            ],
        };
        let (out, _) = execute_plan(&f.ctx(), &plan).unwrap();
        let rows = out.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("id"), &Value::Int(10));
        match rows[0].get("score") {
            Value::Float(s) => assert!(*s > 0.0, "BM25 score must be positive"),
            other => panic!("expected float score, got {other:?}"),
        }
    }

    #[test]
    fn fusion_reranks_text_hits_by_structure() {
        let f = Fixture::new();
        // "repair OR repaint OR fix" matches orders 11 and 12; fuse with
        // amount-descending structure ranking and keep the top 1.
        let plan = LogicalPlan::Fusion {
            input: Box::new(LogicalPlan::IndexScan {
                query: "repaint fix".into(),
                path: None,
                k: None,
                alias: "d".into(),
                any_term: true,
                phrase: false,
                collection: Some("orders".into()),
            }),
            k: 1,
            text_weight: 0.0,
            struct_weight: 1.0,
            rrf_k: 60.0,
            keys: vec![crate::plan::SortKey {
                alias: "d".into(),
                path: "amount".into(),
                descending: true,
            }],
        };
        let (out, _) = execute_plan(&f.ctx(), &plan).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.docs()[0].id(), DocId(11), "amount 250 wins the fusion");
    }

    #[test]
    fn join_and_project_end_to_end() {
        let f = Fixture::new();
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(scan_plan("orders")),
                right: Box::new(LogicalPlan::Scan {
                    collection: Some("customers".into()),
                    predicate: None,
                    alias: "customers".into(),
                    use_value_index: false,
                }),
                left_key: ("orders".into(), "cust".into()),
                right_key: ("customers".into(), "code".into()),
                algo: JoinAlgo::Hash,
            }),
            columns: vec![
                ("customers".into(), "name".into(), "name".into()),
                ("orders".into(), "amount".into(), "amount".into()),
            ],
        };
        let (out, _) = execute_plan(&f.ctx(), &plan).unwrap();
        let rows = out.rows();
        assert_eq!(rows.len(), 3);
        assert!(rows
            .iter()
            .any(|r| r.get("name") == &Value::Str("Ada".into())
                && r.get("amount") == &Value::Int(250)));
    }

    #[test]
    fn indexed_nl_join_through_executor() {
        let f = Fixture::new();
        let plan = LogicalPlan::Join {
            left: Box::new(scan_plan("orders")),
            right: Box::new(scan_plan("customers")),
            left_key: ("orders".into(), "cust".into()),
            right_key: ("customers".into(), "code".into()),
            algo: JoinAlgo::IndexedNestedLoop,
        };
        let (out, m) = execute_plan(&f.ctx(), &plan).unwrap();
        assert_eq!(out.len() / 2, 3); // 3 tuples × 2 bindings each
        assert!(m.index_lookups >= 3);
    }

    #[test]
    fn group_agg_over_join() {
        let f = Fixture::new();
        let plan = LogicalPlan::GroupAgg {
            input: Box::new(scan_plan("orders")),
            group_by: Some(("orders".into(), "cust".into())),
            aggs: vec![AggItem {
                func: AggFunc::Sum,
                operand: Some("amount".into()),
                output: "total".into(),
            }],
        };
        let (out, _) = execute_plan(&f.ctx(), &plan).unwrap();
        let rows = out.rows();
        assert_eq!(rows.len(), 2);
        let c1 = rows
            .iter()
            .find(|r| r.get("group") == &Value::Str("C-1".into()))
            .unwrap();
        assert_eq!(c1.get("total"), &Value::Float(350.0));
    }

    #[test]
    fn sort_and_limit() {
        let f = Fixture::new();
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(scan_plan("orders")),
                keys: vec![crate::plan::SortKey {
                    alias: "orders".into(),
                    path: "amount".into(),
                    descending: true,
                }],
            }),
            n: 1,
        };
        let (out, _) = execute_plan(&f.ctx(), &plan).unwrap();
        assert_eq!(out.docs()[0].id(), DocId(11)); // amount 250
    }

    #[test]
    fn graph_connect_plan() {
        let f = Fixture::new();
        // orders 10 and 12 connect through their customers? 10-1, 12-2: no.
        let (out, _) = execute_plan(
            &f.ctx(),
            &LogicalPlan::GraphConnect {
                a: 10,
                b: 1,
                max_hops: 2,
            },
        )
        .unwrap();
        match out {
            QueryOutput::Path(Some(p)) => assert_eq!(p, vec![DocId(10), DocId(1)]),
            other => panic!("expected path, got {other:?}"),
        }
        let (out2, _) = execute_plan(
            &f.ctx(),
            &LogicalPlan::GraphConnect {
                a: 10,
                b: 12,
                max_hops: 1,
            },
        )
        .unwrap();
        assert!(matches!(out2, QueryOutput::Path(None)));
    }

    #[test]
    fn bad_plan_errors() {
        let f = Fixture::new();
        // filter over rows output
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::GroupAgg {
                input: Box::new(scan_plan("orders")),
                group_by: None,
                aggs: vec![],
            }),
            alias: "x".into(),
            predicate: Predicate::True,
        };
        assert!(matches!(
            execute_plan(&f.ctx(), &plan),
            Err(ExecError::BadPlan(_))
        ));
    }

    #[test]
    fn request_limit_option_caps_output() {
        let f = Fixture::new();
        let opts = ExecutionContext {
            batch_size: 2,
            limit: Some(2),
            ..ExecutionContext::default()
        };
        let (out, m) = execute_plan_opts(&f.ctx(), &scan_plan("orders"), &opts).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(m.rows_out, 2);
    }

    #[test]
    fn limit_scans_only_a_prefix_of_the_corpus() {
        let storage = StorageEngine::new(StorageOptions {
            partitions: 4,
            seal_threshold: 64,
            compression: true,
            encryption_key: None,
        });
        let text = InvertedIndex::new(4);
        let values = PathValueIndex::new();
        let joins = JoinIndex::new();
        for i in 0..500u64 {
            let d = DocumentBuilder::new(DocId(i), SourceFormat::Json, "c")
                .field("x", i as i64)
                .build();
            storage.put(&d).unwrap();
        }
        let ctx = ExecContext {
            storage: &storage,
            text_index: &text,
            value_index: &values,
            join_index: &joins,
            pushdown: true,
            columnar: true,
            snapshot: None,
        };
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Scan {
                collection: Some("c".into()),
                predicate: None,
                alias: "c".into(),
                use_value_index: false,
            }),
            n: 10,
        };
        let opts = ExecutionContext {
            batch_size: 16,
            limit: None,
            ..ExecutionContext::default()
        };
        let (out, m) = execute_plan_opts(&ctx, &plan, &opts).unwrap();
        assert_eq!(out.len(), 10);
        assert!(
            m.scan.docs_scanned < 100,
            "limit 10 should stop the cursor early, scanned {}",
            m.scan.docs_scanned
        );
    }

    #[test]
    fn expired_deadline_returns_partial_rows_with_flag() {
        let f = Fixture::new();
        let opts = ExecutionContext {
            deadline: Some(std::time::Duration::ZERO),
            ..ExecutionContext::default()
        };
        let (out, m) = execute_plan_opts(&f.ctx(), &scan_plan("orders"), &opts).unwrap();
        assert!(m.deadline_exceeded, "zero budget must trip the flag");
        assert_eq!(out.len(), 0, "no batch fits a zero budget");
        // a generous budget never trips it
        let opts = ExecutionContext {
            deadline: Some(std::time::Duration::from_secs(60)),
            ..ExecutionContext::default()
        };
        let (out, m) = execute_plan_opts(&f.ctx(), &scan_plan("orders"), &opts).unwrap();
        assert!(!m.deadline_exceeded);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn batch_size_does_not_change_answers() {
        let f = Fixture::new();
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(scan_plan("orders")),
                keys: vec![crate::plan::SortKey {
                    alias: "orders".into(),
                    path: "amount".into(),
                    descending: false,
                }],
            }),
            columns: vec![("orders".into(), "amount".into(), "amount".into())],
        };
        let baseline = execute_plan(&f.ctx(), &plan).unwrap().0;
        for bs in [1usize, 2, 3, 1024] {
            let opts = ExecutionContext {
                batch_size: bs,
                limit: None,
                ..ExecutionContext::default()
            };
            let (out, _) = execute_plan_opts(&f.ctx(), &plan, &opts).unwrap();
            assert_eq!(out.rows(), baseline.rows(), "batch_size {bs}");
        }
    }
}

#[cfg(test)]
mod adaptive_exec_tests {
    use super::*;
    use impliance_docmodel::{DocumentBuilder, SourceFormat, Value};
    use impliance_storage::StorageOptions;

    #[test]
    fn multi_conjunct_filter_uses_adaptive_chain_with_same_answers() {
        let storage = StorageEngine::new(StorageOptions::default());
        let text = InvertedIndex::new(4);
        let values = PathValueIndex::new();
        let joins_idx = JoinIndex::new();
        for i in 0..500u64 {
            let d = DocumentBuilder::new(impliance_docmodel::DocId(i), SourceFormat::Json, "c")
                .field("a", (i % 2) as i64)
                .field("b", (i % 50) as i64)
                .build();
            storage.put(&d).unwrap();
        }
        let ctx = ExecContext {
            storage: &storage,
            text_index: &text,
            value_index: &values,
            join_index: &joins_idx,
            pushdown: true,
            columnar: true,
            snapshot: None,
        };
        // Filter node (post-scan) with a 2-conjunct And → adaptive path
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Scan {
                collection: Some("c".into()),
                predicate: None,
                alias: "c".into(),
                use_value_index: false,
            }),
            alias: "c".into(),
            predicate: Predicate::And(vec![
                Predicate::Eq("a".into(), Value::Int(0)),
                Predicate::Eq("b".into(), Value::Int(0)),
            ]),
        };
        let (out, _) = execute_plan(&ctx, &plan).unwrap();
        // i where i%2==0 and i%50==0 → multiples of 50: 0,50,...,450 → 10
        assert_eq!(out.len(), 10);
    }
}
