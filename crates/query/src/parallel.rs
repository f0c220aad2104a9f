//! The exchange: morsel-driven intra-query parallelism wrapped around
//! compiled operator trees.
//!
//! Nothing here interprets a plan. [`crate::exec::compile`] is the only
//! lowering and [`crate::exec::drain`] the only pull loop; this module
//! decides *where to cut* a plan ([`split`]), runs the part below the cut
//! once per morsel on a scoped worker pool, and reassembles the per-morsel
//! results at the root ([`merge_parts`]).
//!
//! **The split.** Walking down from the root, a plan divides into
//!
//! * a *root*: the stacked `Limit`s (collapsed to their minimum) and at
//!   most one `Project`;
//! * a *merge shape*: `Sort` (with the root limit as its top-K),
//!   `GroupAgg`, or — when neither is there — `Collect`;
//! * a *segment*: the borrowed subtree below the shape, which must be a
//!   left-deep spine of `Filter`s and hash `Join`s over one base `Scan`
//!   or `IndexScan`. The hash joins' build sides hang off that spine.
//!
//! Plans that do not divide this way — value-index point lookups,
//! sort-merge and indexed-NL joins, graph connects, fusion, sorts over
//! row inputs — have no split and run as one tree on the calling thread,
//! as do single-partition stores and `worker_threads == 1`.
//!
//! **A morsel** is one storage partition of a `Scan` base (claimed in
//! index order; hash routing keeps partitions balanced), or one
//! `batch_size` chunk of the ordered hit list of an `IndexScan` base —
//! the search itself is evaluated once on the caller's thread, because
//! BM25 statistics are index-global. For each morsel a worker compiles
//! the segment under a [`Scope`] that narrows the base source to the
//! morsel and points the spine's hash joins at tables built once up
//! front, drains that tree, and folds its batches into a [`Part`] with
//! the same functions the serial `Project`/`GroupAgg`/`Sort` operators
//! use. Every tree of one query reads the snapshot pinned in the
//! [`ExecContext`].
//!
//! **The merge** reassembles parts in morsel order, which reproduces the
//! serial tuple sequence exactly: `Collect` concatenates (each morsel
//! stops early once it alone could fill the limit), `Sort` concatenates
//! per-morsel buffers pruned to top-K and runs one stable sort, and
//! `GroupAgg` merges partial group states in morsel order via
//! [`AggValue::merge`] — exact for counts/min/max and integer-derived
//! sums; true floating-point sums may differ from serial by rounding.
//!
//! Between morsels workers yield to high-priority queries
//! ([`crate::preempt`]); before every batch they check the deadline (an
//! expired budget returns the parts folded so far as an honest partial);
//! the first error stops the siblings; a worker panic is re-raised on
//! the caller. Exchanges cost nothing on the simulated `Network`:
//! workers share one address space (see DESIGN.md). The cluster reuses
//! the pieces, not the pool: [`crate::dist`] cuts with the same [`split`],
//! runs [`run_segment`] + [`Split::fold`] on the data node that owns a
//! morsel, and finishes with the same [`merge_parts`].
//!
//! [`AggValue::merge`]: impliance_storage::AggValue::merge

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use impliance_index::SearchHit;
use impliance_obs::{Counter, Gauge, Histogram, LATENCY_BUCKETS_US};
use impliance_storage::Predicate;

use crate::batch::{
    build_join_table, finish_groups, fold_batch, project_batch, prune_top_k, run_index_search,
    sort_tuples, Batch, Groups, JoinTable, SharedMetrics,
};
use crate::context::ExecutionContext;
use crate::exec::{
    compile, compile_join_side, deadline_obs, drain, ColumnDemand, Compiled, ExecContext,
    ExecError, ExecMetrics, Morsel, QueryOutput, Scope,
};
use crate::plan::{AggItem, JoinAlgo, LogicalPlan, SortKey};
use crate::tuple::{Row, Tuple};

// ---------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------

struct ParObs {
    morsels: Arc<Counter>,
    workers_used: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    merge_us: Arc<Histogram>,
}

fn par_obs() -> &'static ParObs {
    static OBS: OnceLock<ParObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let m = impliance_obs::global().metrics();
        ParObs {
            morsels: m.counter("query.parallel.morsels"),
            workers_used: m.gauge("query.parallel.workers_used"),
            queue_depth: m.gauge("query.parallel.queue_depth"),
            merge_us: m.histogram("query.parallel.merge_us", &LATENCY_BUCKETS_US),
        }
    })
}

// ---------------------------------------------------------------------
// Scoped order-preserving map (the pool primitive)
// ---------------------------------------------------------------------

/// Run `f` over `items` on up to `workers` scoped threads, returning the
/// results in input order. Workers claim items through a shared atomic
/// counter, so an expensive item never blocks the rest of the list
/// behind it. With one worker (or one item) everything runs inline on
/// the caller's thread — no pool, fully deterministic. A panicking
/// worker is re-raised on the caller via `std::panic::resume_unwind`.
pub(crate) fn scoped_map<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<parking_lot::Mutex<Option<T>>> = items
        .into_iter()
        .map(|t| parking_lot::Mutex::new(Some(t)))
        .collect();
    let claim = AtomicUsize::new(0);
    let f = &f;
    let slots = &slots;
    let claim = &claim;
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                s.spawn(move || {
                    let mut out: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = claim.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else { break };
                        if let Some(item) = slot.lock().take() {
                            out.push((i, f(item)));
                        }
                    }
                    out
                })
            })
            .collect();
        let mut all = Vec::with_capacity(n);
        for h in handles {
            match h.join() {
                Ok(part) => all.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

// ---------------------------------------------------------------------
// The plan split
// ---------------------------------------------------------------------

/// How per-morsel results combine at the root.
pub(crate) enum Shape<'p> {
    /// Concatenate in morsel order (streaming plans).
    Collect,
    /// Per-morsel buffers (pruned to `top_k`), one stable sort at the
    /// root.
    Sort {
        keys: &'p [SortKey],
        top_k: Option<usize>,
    },
    /// Per-morsel partial group states, merged in morsel order.
    GroupAgg {
        group_by: Option<&'p (String, String)>,
        aggs: &'p [AggItem],
    },
}

/// A plan cut for the exchange (see the module docs). Everything borrows
/// from the plan, which outlives the worker pool.
pub(crate) struct Split<'p> {
    /// Minimum of the root's stacked limits.
    pub(crate) limit: Option<usize>,
    /// The root's projection, if any.
    project: Option<&'p [(String, String, String)]>,
    pub(crate) shape: Shape<'p>,
    /// The subtree each morsel compiles.
    pub(crate) segment: &'p LogicalPlan,
    /// The segment's base source (a `Scan` or an `IndexScan`).
    pub(crate) base: &'p LogicalPlan,
    /// The spine's hash joins, outermost first: the join node (its
    /// identity keys the shared table), its build side and build key.
    pub(crate) builds: Vec<(&'p LogicalPlan, &'p LogicalPlan, &'p (String, String))>,
}

/// Cut a plan for the exchange, or `None` when it has no split and runs
/// as one tree on the calling thread.
pub(crate) fn split(plan: &LogicalPlan) -> Option<Split<'_>> {
    let mut limit: Option<usize> = None;
    let mut take_limit = |n: usize| limit = Some(limit.map_or(n, |l| l.min(n)));
    let mut cur = plan;
    while let LogicalPlan::Limit { input, n } = cur {
        take_limit(*n);
        cur = input;
    }
    let mut project = None;
    if let LogicalPlan::Project { input, columns } = cur {
        project = Some(columns.as_slice());
        cur = input;
    }
    while let LogicalPlan::Limit { input, n } = cur {
        take_limit(*n);
        cur = input;
    }
    let (shape, segment) = match cur {
        LogicalPlan::Sort { input, keys } => (
            Shape::Sort {
                keys,
                // A limit anywhere above the sort caps its output (the
                // serial pipeline truncates after sorting; pruning to k
                // per morsel plus a final stable sort is equivalent).
                top_k: limit,
            },
            input.as_ref(),
        ),
        LogicalPlan::GroupAgg {
            input,
            group_by,
            aggs,
        } => (
            Shape::GroupAgg {
                group_by: group_by.as_ref(),
                aggs,
            },
            input.as_ref(),
        ),
        other => (Shape::Collect, other),
    };
    let mut builds = Vec::new();
    let mut cur = segment;
    let base = loop {
        match cur {
            LogicalPlan::Filter { input, .. } => cur = input,
            LogicalPlan::Join {
                left,
                right,
                right_key,
                algo: JoinAlgo::Hash | JoinAlgo::Unspecified,
                ..
            } => {
                builds.push((cur, right.as_ref(), right_key));
                cur = left;
            }
            LogicalPlan::Scan {
                predicate,
                use_value_index,
                ..
            } => {
                if *use_value_index && matches!(predicate, Some(Predicate::Eq(_, _))) {
                    return None; // index point lookup: nothing to fan out
                }
                break cur;
            }
            LogicalPlan::IndexScan { .. } => break cur,
            _ => return None, // fusion, graph, other joins, …
        }
    };
    Some(Split {
        limit,
        project,
        shape,
        segment,
        base,
        builds,
    })
}

// ---------------------------------------------------------------------
// Per-morsel work
// ---------------------------------------------------------------------

/// One morsel's folded result.
pub(crate) enum Part {
    Tuples(Vec<Tuple>),
    /// Already-projected rows (a projected collect).
    Rows(Vec<Row>),
    Groups(Groups),
}

impl<'p> Split<'p> {
    /// Merge a streaming plan over an `IndexScan` base as a sort on
    /// `keys` (best score first). One index ranks its own hits, so the
    /// single box concatenates chunks of one ordered list; shards that
    /// each ranked their own (a cluster's text shards) interleave by
    /// score instead. A bounded search stays bounded: without joins on
    /// the spine the merge keeps at most the search's own `k`.
    pub(crate) fn ranked_by(mut self, keys: &'p [SortKey]) -> Split<'p> {
        if let (LogicalPlan::IndexScan { k, .. }, Shape::Collect) = (self.base, &self.shape) {
            if let (Some(k), true) = (*k, self.builds.is_empty()) {
                self.limit = Some(self.limit.map_or(k, |l| l.min(k)));
            }
            self.shape = Shape::Sort {
                keys,
                top_k: self.limit,
            };
        }
        self
    }

    pub(crate) fn empty_part(&self) -> Part {
        match (&self.shape, self.project) {
            (Shape::GroupAgg { .. }, _) => Part::Groups(Groups::new()),
            (Shape::Collect, Some(_)) => Part::Rows(Vec::new()),
            _ => Part::Tuples(Vec::new()),
        }
    }

    /// What the morsel's fold can take as column pages instead of tuples
    /// (the same demand the serial `GroupAgg`/`Project` would state).
    pub(crate) fn demand(&self) -> Option<ColumnDemand<'_>> {
        match (&self.shape, self.project) {
            (Shape::GroupAgg { group_by, aggs }, _) => {
                Some(ColumnDemand::of_group_agg(*group_by, aggs))
            }
            (Shape::Collect, Some(columns)) => Some(ColumnDemand::of_project(columns)),
            _ => None,
        }
    }

    /// Fold one drained batch into the morsel's part; `false` once the
    /// part needs nothing more. A streaming (`Collect`) morsel never
    /// contributes more than the query limit: an entry with `limit`
    /// same-morsel predecessors can never reach the merged prefix, so the
    /// morsel's tree can stop early.
    pub(crate) fn fold(&self, part: &mut Part, batch: Batch) -> Result<bool, ExecError> {
        let cap = self.limit.unwrap_or(usize::MAX);
        match (&self.shape, part) {
            (Shape::GroupAgg { group_by, aggs }, Part::Groups(groups)) => {
                fold_batch(groups, &batch, *group_by, aggs)?;
                Ok(true)
            }
            (Shape::Sort { keys, top_k }, Part::Tuples(buf)) => {
                if let Batch::Tuples(tuples) = batch {
                    buf.extend(tuples);
                }
                prune_top_k(buf, keys, *top_k);
                Ok(true)
            }
            (Shape::Collect, Part::Rows(rows)) => {
                rows.extend(project_batch(batch, self.project.unwrap_or_default()));
                rows.truncate(cap);
                Ok(rows.len() < cap)
            }
            (Shape::Collect, Part::Tuples(buf)) => {
                if let Batch::Tuples(tuples) = batch {
                    buf.extend(tuples);
                }
                buf.truncate(cap);
                Ok(buf.len() < cap)
            }
            _ => Err(ExecError::BadPlan(
                "morsel part does not match the merge shape".into(),
            )),
        }
    }
}

/// Everything the workers of one query share, read-only.
struct Exchange<'e, 'c> {
    ctx: &'e ExecContext<'c>,
    split: &'e Split<'e>,
    demand: Option<ColumnDemand<'e>>,
    /// Build sides of the spine's hash joins, built once.
    tables: Vec<(&'e LogicalPlan, Arc<JoinTable>)>,
    /// Set by the first error or an expired deadline: unclaimed morsels
    /// are skipped.
    stop: AtomicBool,
    deadline_hit: AtomicBool,
    deadline_at: Option<Instant>,
    batch_size: usize,
}

/// The one morsel body — an exchange worker and a data-node job both run
/// it: compile `segment` under `scope`, drain the tree into `sink`.
pub(crate) fn run_segment(
    ctx: &ExecContext<'_>,
    segment: &LogicalPlan,
    scope: &Scope<'_>,
    demand: Option<&ColumnDemand<'_>>,
    batch_size: usize,
    expired: impl FnMut() -> bool,
    sink: impl FnMut(Batch) -> Result<bool, ExecError>,
) -> Result<ExecMetrics, ExecError> {
    let metrics: SharedMetrics = Rc::new(RefCell::new(ExecMetrics::default()));
    let compiled = compile(ctx, segment, batch_size, &metrics, scope, demand)?;
    let Compiled::Op { mut op, .. } = compiled else {
        return Err(ExecError::BadPlan("morsel segment is not a stream".into()));
    };
    drain(op.as_mut(), &metrics, expired, sink)?;
    let m = *metrics.borrow();
    Ok(m)
}

impl Exchange<'_, '_> {
    /// Run the segment for one morsel and fold it.
    fn run_morsel(&self, morsel: Morsel<'_>) -> Result<(Part, ExecMetrics), ExecError> {
        let scope = Scope {
            morsel: Some(morsel),
            tables: &self.tables,
        };
        let mut part = self.split.empty_part();
        let expired = || {
            let hit = self.deadline_at.is_some_and(|d| Instant::now() >= d);
            if hit {
                self.deadline_hit.store(true, Ordering::Relaxed);
                self.stop.store(true, Ordering::Relaxed);
            }
            hit
        };
        let m = run_segment(
            self.ctx,
            self.split.segment,
            &scope,
            self.demand.as_ref(),
            self.batch_size,
            expired,
            |batch| self.split.fold(&mut part, batch),
        )?;
        Ok((part, m))
    }
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

/// Try to execute `plan` through the exchange. Returns `Ok(None)` when
/// the plan has no split or the store nothing to fan out over (the
/// caller runs one tree itself). The returned rows are bit-identical to
/// the serial pipeline's except for true floating-point aggregate sums
/// (see module docs).
pub(crate) fn try_execute_parallel(
    ctx: &ExecContext<'_>,
    plan: &LogicalPlan,
    opts: &ExecutionContext,
) -> Result<Option<(QueryOutput, ExecMetrics)>, ExecError> {
    if opts.worker_threads <= 1 {
        return Ok(None);
    }
    let Some(split) = split(plan) else {
        return Ok(None);
    };
    let batch_size = opts.batch_size.max(1);
    let deadline_at = opts.deadline.map(|d| Instant::now() + d);
    let mut metrics = ExecMetrics::default();

    // Morsels in claim order, each tagged with its place in the merge.
    let hits: Vec<SearchHit>;
    let morsels: Vec<(usize, Morsel<'_>)> = match split.base {
        LogicalPlan::IndexScan {
            query,
            path,
            k,
            any_term,
            phrase,
            ..
        } => {
            let (scored, stats, effective_k) = run_index_search(
                ctx.text_index,
                query,
                path.as_deref(),
                *any_term,
                *phrase,
                *k,
            );
            metrics.record_search(&stats, effective_k);
            hits = scored;
            hits.chunks(batch_size)
                .map(Morsel::Hits)
                .enumerate()
                .collect()
        }
        _ => {
            // One morsel per partition, in index order: hash routing
            // already keeps partitions balanced.
            let partitions = ctx.storage.partition_count();
            if partitions < 2 {
                return Ok(None); // one partition: nothing to fan out
            }
            (0..partitions).map(|p| (p, Morsel::Partition(p))).collect()
        }
    };

    // Build sides run once, unscoped, on this thread (they are the small
    // inputs of a hash join); every morsel probes them read-only, so
    // per-key match order equals the serial join's.
    let mut tables = Vec::with_capacity(split.builds.len());
    for (join, build, right_key) in &split.builds {
        let built: SharedMetrics = Rc::new(RefCell::new(ExecMetrics::default()));
        let mut op = compile_join_side(ctx, build, batch_size, &built)?;
        tables.push((*join, Arc::new(build_join_table(op.as_mut(), right_key)?)));
        metrics.absorb(&built.borrow());
    }

    let workers = opts.worker_threads.min(morsels.len()).max(1);
    metrics.workers_used = workers as u64;
    let obs = par_obs();
    obs.morsels.add(morsels.len() as u64);
    obs.workers_used.set(workers as i64);

    let exchange = Exchange {
        ctx,
        split: &split,
        demand: split.demand(),
        tables,
        stop: AtomicBool::new(false),
        deadline_hit: AtomicBool::new(false),
        deadline_at,
        batch_size,
    };
    let queued = morsels.len();
    let claims: Vec<(usize, (usize, Morsel<'_>))> = morsels.into_iter().enumerate().collect();
    let results = scoped_map(workers, claims, |(claimed, (place, morsel))| {
        if exchange.stop.load(Ordering::Relaxed) {
            return None;
        }
        // Morsel-granularity preemption: while a high-priority query is
        // in flight, lower-priority workers surrender the core (bounded)
        // before starting their next morsel.
        crate::preempt::yield_to_high(opts.priority);
        obs.queue_depth
            .set(queued.saturating_sub(claimed + 1) as i64);
        let result = exchange.run_morsel(morsel);
        if result.is_err() {
            exchange.stop.store(true, Ordering::Relaxed);
        }
        Some(result.map(|(part, m)| (place, part, m)))
    });
    obs.queue_depth.set(0);

    let mut parts: Vec<(usize, Part)> = Vec::with_capacity(queued);
    for result in results.into_iter().flatten() {
        let (place, part, m) = result?;
        metrics.absorb(&m);
        parts.push((place, part));
    }
    if exchange.deadline_hit.load(Ordering::Relaxed) {
        metrics.deadline_exceeded = true;
        deadline_obs().inc();
    }
    let output = merge_parts(&split, parts, &mut metrics).into_output();
    Ok(Some((output, metrics)))
}

/// A merged answer: bound tuples (un-projected plans — what a hash join's
/// build side keeps) or finished rows.
pub(crate) enum Merged {
    Tuples(Vec<Tuple>),
    Rows(Vec<Row>),
}

impl Merged {
    pub(crate) fn into_output(self) -> QueryOutput {
        match self {
            Merged::Tuples(tuples) => QueryOutput::unbind(tuples),
            Merged::Rows(rows) => QueryOutput::Rows(rows),
        }
    }
}

/// Reassemble per-morsel parts in morsel order and finish the root:
/// merge by shape, truncate to the limit, project.
pub(crate) fn merge_parts(
    split: &Split<'_>,
    mut parts: Vec<(usize, Part)>,
    metrics: &mut ExecMetrics,
) -> Merged {
    // Morsel-order reassembly: reproduces the serial sequence.
    parts.sort_by_key(|(place, _)| *place);

    let merge_started = Instant::now();
    let mut tuples: Vec<Tuple> = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    let mut groups = Groups::new();
    for (_, part) in parts {
        match part {
            Part::Tuples(t) => tuples.extend(t),
            Part::Rows(r) => rows.extend(r),
            // Merged in morsel order so per-group accumulation order is
            // deterministic regardless of worker scheduling.
            Part::Groups(partial) => {
                for (key, (value, states)) in partial {
                    match groups.entry(key) {
                        std::collections::btree_map::Entry::Vacant(e) => {
                            e.insert((value, states));
                        }
                        std::collections::btree_map::Entry::Occupied(mut e) => {
                            for (mine, theirs) in e.get_mut().1.iter_mut().zip(&states) {
                                mine.merge(theirs);
                            }
                        }
                    }
                }
            }
        }
    }
    match &split.shape {
        Shape::Sort { keys, .. } => sort_tuples(&mut tuples, keys),
        Shape::GroupAgg { group_by, aggs } => rows = finish_groups(groups, *group_by, aggs),
        Shape::Collect => {}
    }
    // From here on exactly one of `tuples` / `rows` carries the answer.
    let cap = split.limit.unwrap_or(usize::MAX);
    let merged = tuples.len() + rows.len();
    if merged > cap {
        metrics.early_terminations += 1;
    }
    tuples.truncate(cap);
    rows.truncate(cap);
    metrics.rows_out = merged.min(cap) as u64;
    let output = match (&split.shape, split.project) {
        (Shape::GroupAgg { .. }, _) | (Shape::Collect, Some(_)) => Merged::Rows(rows),
        (Shape::Sort { .. }, Some(columns)) => {
            Merged::Rows(project_batch(Batch::Tuples(tuples), columns))
        }
        (_, None) => Merged::Tuples(tuples),
    };
    par_obs()
        .merge_us
        .observe(merge_started.elapsed().as_micros() as u64);
    output
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_map_preserves_input_order() {
        let out = scoped_map(4, (0..100).collect::<Vec<usize>>(), |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<usize>>());
    }

    #[test]
    fn scoped_map_single_worker_runs_inline() {
        let out = scoped_map(1, vec![1, 2, 3], |i| i + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    fn index_scan() -> LogicalPlan {
        LogicalPlan::IndexScan {
            query: "x".into(),
            path: None,
            k: None,
            alias: "d".into(),
            any_term: true,
            phrase: false,
            collection: Some("c".into()),
        }
    }

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan {
            collection: Some("c".into()),
            predicate: None,
            alias: "d".into(),
            use_value_index: false,
        }
    }

    #[test]
    fn split_rejects_unsupported_shapes() {
        let graph = LogicalPlan::GraphConnect {
            a: 1,
            b: 2,
            max_hops: 3,
        };
        assert!(split(&graph).is_none());
        // fusion is a blocking re-ranker with no morsel form (yet)
        let fused = LogicalPlan::Fusion {
            input: Box::new(index_scan()),
            k: 5,
            text_weight: 1.0,
            struct_weight: 1.0,
            rrf_k: 60.0,
            keys: vec![],
        };
        assert!(split(&fused).is_none());
        // only hash joins probe a shared table
        let merge_join = LogicalPlan::Join {
            left: Box::new(scan()),
            right: Box::new(scan()),
            left_key: ("d".into(), "k".into()),
            right_key: ("d".into(), "k".into()),
            algo: JoinAlgo::SortMerge,
        };
        assert!(split(&merge_join).is_none());
        // a value-index point lookup has nothing to fan out
        let point = LogicalPlan::Scan {
            collection: None,
            predicate: Some(Predicate::Eq("k".into(), impliance_docmodel::Value::Int(1))),
            alias: "d".into(),
            use_value_index: true,
        };
        assert!(split(&point).is_none());
    }

    #[test]
    fn split_accepts_index_scan_base() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(index_scan()),
                alias: "d".into(),
                predicate: Predicate::True,
            }),
            n: 5,
        };
        let s = split(&plan).expect("index scan base must split");
        assert!(matches!(
            s.base,
            LogicalPlan::IndexScan { any_term: true, .. }
        ));
        assert!(matches!(s.segment, LogicalPlan::Filter { .. }));
        assert!(matches!(s.shape, Shape::Collect));
        assert_eq!(s.limit, Some(5));
    }

    #[test]
    fn split_collapses_limits_and_strips_project() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Project {
                input: Box::new(LogicalPlan::Limit {
                    input: Box::new(scan()),
                    n: 7,
                }),
                columns: vec![("d".into(), "x".into(), "x".into())],
            }),
            n: 10,
        };
        let s = split(&plan).expect("limit/project/limit over a scan splits");
        assert_eq!((s.limit, s.project.is_some()), (Some(7), true));
        assert!(matches!(s.segment, LogicalPlan::Scan { .. }));
        assert!(matches!(s.empty_part(), Part::Rows(_)));
    }

    #[test]
    fn split_hands_the_root_limit_to_a_sort_and_lists_spine_joins() {
        let join = LogicalPlan::Join {
            left: Box::new(LogicalPlan::Filter {
                input: Box::new(scan()),
                alias: "d".into(),
                predicate: Predicate::True,
            }),
            right: Box::new(scan()),
            left_key: ("d".into(), "k".into()),
            right_key: ("r".into(), "k".into()),
            algo: JoinAlgo::Hash,
        };
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(join),
                keys: vec![],
            }),
            n: 3,
        };
        let s = split(&plan).expect("limit over sort over a hash join splits");
        assert!(matches!(s.shape, Shape::Sort { top_k: Some(3), .. }));
        assert_eq!(s.builds.len(), 1);
        assert!(
            std::ptr::eq(s.builds[0].0, s.segment),
            "keyed by the join node"
        );
        assert!(s.demand().is_none(), "sort buffers hold tuples");
    }
}
