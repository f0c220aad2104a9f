//! Distributed execution over the simulated cluster.
//!
//! Figure 3's example: "a query can be parallelized by performing
//! full-text index search on a set of data nodes, which then send the
//! reduced data to a set of grid nodes for joining, sorting, and
//! group-wise aggregation, the results of which are sent to a set of
//! cluster nodes to drive a set of updates."
//!
//! Data is spread across data nodes by one [`Placement`] (each node owns a
//! [`StorageEngine`] and a shard of the text index). Nothing here
//! interprets a plan: [`execute`] cuts it with the single box's
//! [`crate::parallel::split`], and a *morsel* is what it is there — the
//! segment compiled by [`crate::exec::compile`] and drained on the owning
//! node's thread, one per `(node, partition)` of a `Scan` base or per
//! text shard of an `IndexScan` base, folded by [`Split::fold`]. Hash-join
//! build sides are gathered first (as queries of their own), built once
//! and broadcast; the parts ship (charged to the network) to a grid node
//! for the global [`merge_parts`].
//!
//! §3.4 requires the appliance to "continue operating through component
//! failures", so morsels are *resilient*: each retries transient message
//! loss with seeded-jitter backoff ([`RetryPolicy`]); a node that fails
//! terminally is recomputed from the surviving replica stores its
//! [`Placement`] names, exactly-once for any plan; and a
//! deadline turns stragglers into a degraded partial result with an
//! honest [`CoverageReport`] instead of an error. Observable through
//! `dist.retries`, `dist.failovers`, `dist.deadline_exceeded`,
//! `dist.degraded_queries`, and the `dist.backoff_us` histogram.

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use impliance_cluster::fault::splitmix64;
use impliance_cluster::runtime::NodeCtx;
use impliance_cluster::{ClusterError, ClusterRuntime, NodeId, NodeKind, TaskHandle};
use impliance_docmodel::Document;
use impliance_index::{InvertedIndex, JoinIndex, PathValueIndex};
use impliance_obs::{catalog, Counter, Histogram};
use impliance_storage::{codec, StorageEngine, StorageError, StorageOptions};

use crate::batch::{index_build_tuples, Batch, JoinTable};
use crate::clock;
use crate::context::{ExecutionContext, RetryPolicy};
use crate::exec::{ExecContext, ExecError, ExecMetrics, Morsel, QueryOutput, Scope};
use crate::parallel::{merge_parts, run_segment, scoped_map, split, Merged, Part, Split};
use crate::placement::Placement;
use crate::plan::{LogicalPlan, SortKey};
use crate::tuple::{Row, Tuple, PSEUDO_ID, PSEUDO_SCORE};

/// Retransmission attempts for one result page before the morsel gives
/// up and reports the loss to the coordinator.
const PAGE_SEND_ATTEMPTS: usize = 4;

struct DistObs {
    retries: Arc<Counter>,
    failovers: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    degraded_queries: Arc<Counter>,
    backoff_us: Arc<Histogram>,
}

fn dist_obs() -> &'static DistObs {
    static OBS: OnceLock<DistObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let m = impliance_obs::global().metrics();
        DistObs {
            retries: m.counter(&catalog::DIST_RETRIES),
            failovers: m.counter(&catalog::DIST_FAILOVERS),
            deadline_exceeded: m.counter(&catalog::DIST_DEADLINE_EXCEEDED),
            degraded_queries: m.counter(&catalog::DIST_DEGRADED_QUERIES),
            backoff_us: m.histogram(&catalog::DIST_BACKOFF_US),
        }
    })
}

/// The state attached to each data node at boot: its slice of storage
/// plus its local shard of the full-text index.
pub struct DataNodeState {
    /// The node-local primary storage engine (scanned by queries).
    pub storage: Arc<StorageEngine>,
    /// Replica storage for other nodes' data: read by recovery and
    /// failover only, so replication never duplicates query results.
    pub replica: Arc<StorageEngine>,
    /// Node-local full-text index over primary documents ("full-text
    /// index search on a set of data nodes", §3.3).
    pub text_index: Arc<InvertedIndex>,
}

impl DataNodeState {
    /// Empty primary and replica stores laid out by `opts` (so a promoted
    /// replica behaves like the primary it replaces) and an 8-shard text
    /// index.
    pub fn new(opts: &StorageOptions) -> DataNodeState {
        DataNodeState {
            storage: Arc::new(StorageEngine::new(opts.clone())),
            replica: Arc::new(StorageEngine::new(opts.clone())),
            text_index: Arc::new(InvertedIndex::new(8)),
        }
    }

    /// Where this node keeps a document whose placement lists it at
    /// `rank`: the primary store for rank 0, the replica store otherwise.
    pub fn store_for(&self, rank: usize) -> &Arc<StorageEngine> {
        match rank {
            0 => &self.storage,
            _ => &self.replica,
        }
    }
}

/// Which partitions an execution actually covered. The contract for
/// degraded results: `partitions_total` always equals `partitions_scanned
/// + partitions_failed_over + skipped.len()`, and a result is complete
/// iff `skipped` is empty — there is no silent short count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageReport {
    /// Partitions the query was supposed to cover.
    pub partitions_total: usize,
    /// Partitions scanned on their owning node.
    pub partitions_scanned: usize,
    /// Partitions recovered from surviving nodes' replica stores.
    pub partitions_failed_over: usize,
    /// `(node, partition)` pairs whose data is missing from the result.
    pub skipped: Vec<(NodeId, usize)>,
}

impl CoverageReport {
    /// Number of partitions missing from the result.
    pub fn partitions_skipped(&self) -> usize {
        self.skipped.len()
    }

    /// Whether every partition was covered (scanned or failed over).
    pub fn is_complete(&self) -> bool {
        self.skipped.is_empty()
            && self.partitions_total == self.partitions_scanned + self.partitions_failed_over
    }
}

/// Why a distributed execution failed: the cluster could not cover the
/// plan, or a node's executor rejected it or failed reading its store.
#[derive(Debug)]
pub enum DistError {
    /// Nodes down, messages lost beyond the retry budget, deadline spent.
    Cluster(ClusterError),
    /// A node-side execution error, carried back typed.
    Exec(ExecError),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Cluster(e) => write!(f, "{e}"),
            DistError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<ClusterError> for DistError {
    fn from(e: ClusterError) -> Self {
        DistError::Cluster(e)
    }
}

impl From<ExecError> for DistError {
    fn from(e: ExecError) -> Self {
        DistError::Exec(e)
    }
}

fn no_distributed_form() -> DistError {
    ExecError::BadPlan("plan has no split: data nodes hold no value or join index".into()).into()
}

/// The answer of one distributed execution.
#[derive(Debug)]
pub struct DistOutput {
    /// Merged (exactly-once) rows or documents.
    pub output: QueryOutput,
    /// Executor accounting summed over every morsel that contributed.
    pub metrics: ExecMetrics,
    /// What was covered, recovered, and skipped — over every segment of
    /// the plan (a hash join's build side covers the partitions again).
    pub coverage: CoverageReport,
    /// True iff any partition was skipped (`output` is partial).
    pub degraded: bool,
    /// Retries spent on transient failures.
    pub retries: u64,
    /// Replica stores read to recompute failed nodes' contributions.
    pub failovers: u64,
}

/// The coordinator's address on the simulated network.
const COORDINATOR: NodeId = NodeId(u32::MAX);

fn data_state(ctx: &NodeCtx) -> Result<&DataNodeState, DistError> {
    let state = ctx.state.downcast_ref();
    state.ok_or(DistError::Cluster(ClusterError::TaskLost))
}

/// The retrying call path every coordinator → data-node request takes.
struct Caller<'a> {
    rt: &'a ClusterRuntime,
    policy: RetryPolicy,
    deadline_at: Option<Instant>,
}

impl<'a> Caller<'a> {
    /// The default retry policy, no deadline (ingest and point reads).
    fn plain(rt: &'a ClusterRuntime) -> Caller<'a> {
        Caller {
            rt,
            policy: RetryPolicy::default(),
            deadline_at: None,
        }
    }

    /// Run `make_job()` on `node` until it answers. Transient losses — a
    /// dropped request, a lost reply, a job answering `MessageDropped`
    /// (its result was dropped `PAGE_SEND_ATTEMPTS` times) — back off,
    /// jitter salted by `salt`, and retry; a dead node, any other job
    /// error (they travel typed) or an exhausted deadline
    /// (`ClusterError::Timeout`) ends the call. `first` is an attempt
    /// already in flight.
    fn call<T, J>(
        &self,
        node: NodeId,
        payload: u64,
        salt: u64,
        retries: &mut u64,
        mut first: Option<Result<TaskHandle<Result<T, DistError>>, ClusterError>>,
        make_job: impl Fn() -> J,
    ) -> Result<T, DistError>
    where
        T: Send + 'static,
        J: FnOnce(&NodeCtx) -> Result<T, DistError> + Send + 'static,
    {
        let node_down = || self.rt.network().node_is_dead(node);
        let mut attempts = 0u32;
        loop {
            if self.deadline_at.is_some_and(|d| Instant::now() >= d) {
                return Err(ClusterError::Timeout.into());
            }
            let attempt = match first.take() {
                Some(in_flight) => in_flight,
                None => self.rt.submit_to(node, payload, make_job()),
            };
            attempts += 1;
            let transient = match attempt {
                Ok(handle) => {
                    let joined = match self.deadline_at {
                        Some(d) => handle.join_timeout(d.saturating_duration_since(Instant::now())),
                        None => handle.join(),
                    };
                    match joined {
                        Ok(Ok(answer)) => return Ok(answer),
                        Ok(Err(DistError::Cluster(e @ ClusterError::MessageDropped(_)))) => e,
                        Ok(Err(e)) => return Err(e),
                        Err(ClusterError::TaskLost) if node_down() => {
                            return Err(ClusterError::NodeDown(node).into())
                        }
                        Err(e @ ClusterError::TaskLost) => e,
                        Err(e) => return Err(e.into()),
                    }
                }
                Err(e @ ClusterError::MessageDropped(_)) => e,
                Err(e) => return Err(e.into()),
            };
            if attempts >= self.policy.max_attempts.max(1) {
                return Err(transient.into());
            }
            let us = self.policy.backoff_us(attempts, salt);
            dist_obs().backoff_us.observe(us);
            dist_obs().retries.inc();
            *retries += 1;
            clock::sleep_us(us);
        }
    }
}

/// The slice of a node one job reads.
#[derive(Clone, Copy)]
enum Unit {
    /// One partition of the primary store — or, for `None`, the node's
    /// whole text shard (an `IndexScan` base) — at the node's probed epoch.
    Primary(Option<usize>, u64),
    /// The node's whole replica store (failover), unpinned: replica
    /// engines count their own epochs, and — cluster engines never run
    /// version GC — hold everything a dead primary committed.
    Replica,
}

/// Cut `plan` the way both ends of a morsel must: the exchange's split,
/// with shard-ranked hit lists merged by score (ties by ascending id).
/// `keys` only lends the split somewhere to keep that order.
fn cut<'p>(plan: &'p LogicalPlan, keys: &'p mut Vec<SortKey>) -> Option<Split<'p>> {
    let split = split(plan)?;
    if let LogicalPlan::IndexScan { alias, .. } = split.base {
        *keys = [(PSEUDO_SCORE, true), (PSEUDO_ID, false)]
            .map(|(path, descending)| SortKey {
                alias: alias.clone(),
                path: path.into(),
                descending,
            })
            .into();
    }
    Some(split.ranked_by(keys))
}

fn tuples_bytes(tuples: &[Tuple]) -> usize {
    let docs = tuples.iter().flat_map(|t| t.bindings.values());
    docs.map(|d| codec::encode_document_vec(d).len()).sum()
}

/// Wire size of a part: encoded documents, rendered row cells, or one
/// 48-byte state per aggregate and group.
fn part_bytes(part: &Part) -> u64 {
    let row = |r: &Row| -> usize {
        let cells = r.columns.iter();
        cells.map(|(k, v)| k.len() + v.render().len()).sum()
    };
    let bytes: usize = match part {
        Part::Tuples(tuples) => tuples_bytes(tuples),
        Part::Rows(rows) => rows.iter().map(row).sum(),
        Part::Groups(groups) => {
            let states = groups.iter().map(|(k, (_, s))| k.len() + 48 * s.len());
            states.sum()
        }
    };
    bytes as u64
}

type MorselResult = Result<(Part, ExecMetrics), DistError>;

/// Everything a node needs to run its share of one segment. Cloned into
/// every job; the plan and the broadcast join tables are shared.
#[derive(Clone)]
struct SegmentJob {
    plan: Arc<LogicalPlan>,
    /// Build sides of the spine's hash joins, in `Split::builds` order.
    tables: Arc<[Arc<JoinTable>]>,
    batch_size: usize,
    deadline_at: Option<Instant>,
}

impl SegmentJob {
    fn on(&self, unit: Unit) -> impl FnOnce(&NodeCtx) -> MorselResult {
        let job = self.clone();
        move |ctx| job.run(ctx, unit)
    }

    /// Node side of a morsel: re-cut the plan, compile the segment over
    /// this node's engine, drain and fold it, ship the part.
    fn run(&self, ctx: &NodeCtx, unit: Unit) -> MorselResult {
        let state = data_state(ctx)?;
        let dead = || ctx.network.node_is_dead(ctx.id);
        if dead() {
            return Err(ClusterError::NodeDown(ctx.id).into());
        }
        let mut keys = Vec::new();
        let split = cut(&self.plan, &mut keys).ok_or_else(no_distributed_form)?;
        let joins = split.builds.iter().map(|(join, _, _)| *join);
        let tables: Vec<_> = joins.zip(self.tables.iter().cloned()).collect();
        let (storage, morsel, snapshot) = match unit {
            Unit::Primary(p, epoch) => (&state.storage, p.map(Morsel::Partition), Some(epoch)),
            Unit::Replica => (&state.replica, None, None),
        };
        // Data nodes hold no value or relationship index: plans that need
        // one have no split and never get here.
        static NO_INDEXES: OnceLock<(PathValueIndex, JoinIndex)> = OnceLock::new();
        let (value_index, join_index) =
            NO_INDEXES.get_or_init(|| (PathValueIndex::new(), JoinIndex::new()));
        let exec = ExecContext {
            storage,
            text_index: &state.text_index,
            value_index,
            join_index,
            pushdown: true,
            columnar: true,
            snapshot,
        };
        let scope = Scope {
            morsel,
            tables: &tables,
        };
        // Failover ships bound tuples unfolded: the coordinator keeps the
        // failed node's documents and folds them itself.
        let raw = matches!(unit, Unit::Replica);
        let demand = split.demand().filter(|_| !raw);
        let mut part = match raw {
            true => Part::Tuples(Vec::new()),
            false => split.empty_part(),
        };
        let deadline_at = self.deadline_at;
        let expired = move || deadline_at.is_some_and(|d| Instant::now() >= d);
        let metrics = run_segment(
            &exec,
            split.segment,
            &scope,
            demand.as_ref(),
            self.batch_size,
            expired,
            |batch| match (&mut part, batch) {
                (Part::Tuples(kept), Batch::Tuples(tuples)) if raw => {
                    kept.extend(tuples);
                    Ok(true)
                }
                (part, batch) => split.fold(part, batch),
            },
        )?;
        if expired() {
            return Err(ClusterError::Timeout.into()); // the part may be a prefix
        }
        // Charge the payload from the node back to the coordinator (the
        // runtime charges the reply envelope); transient drops retransmit
        // a bounded number of times.
        let bytes = part_bytes(&part);
        for _ in 0..PAGE_SEND_ATTEMPTS {
            if ctx.network.transmit(ctx.id, COORDINATOR, bytes) {
                return Ok((part, metrics));
            }
            if dead() {
                return Err(ClusterError::NodeDown(ctx.id).into());
            }
        }
        Err(ClusterError::MessageDropped(ctx.id).into())
    }
}

/// One dispatched morsel: its merge place (node slot, unit index), the
/// partitions it stands for, what a retry re-sends, the first attempt.
struct Dispatched {
    node: NodeId,
    place: (usize, usize),
    covers: std::ops::Range<usize>,
    unit: Unit,
    payload: u64,
    first: Result<TaskHandle<MorselResult>, ClusterError>,
}

/// Coordinator state of one [`execute`] call.
struct Run<'a> {
    caller: Caller<'a>,
    opts: &'a ExecutionContext,
    /// Every *member* data node (alive or dead) with the partition count
    /// and epoch it answered its probe with, if it did.
    nodes: Vec<(NodeId, Option<(usize, u64)>)>,
    out: DistOutput,
    first_error: Option<DistError>,
    deadline_hit: bool,
}

impl Run<'_> {
    /// Book a failed call: an exhausted deadline is the deadline's, any
    /// other failure is a candidate for the error the query reports.
    fn note(&mut self, e: DistError) {
        match e {
            DistError::Cluster(ClusterError::Timeout) => self.deadline_hit = true,
            e => drop(self.first_error.get_or_insert(e)),
        }
    }

    /// Phase 1: probe each member for its partition count and current
    /// epoch (16-byte control message), with retry. The epoch pins every
    /// morsel of that node — whichever segment it belongs to, however
    /// often it retries — to one snapshot: a node never returns a torn mix
    /// of versions however ingest races the query. A node that cannot
    /// answer is failover's work.
    fn probe(&mut self, members: Vec<NodeId>) {
        for id in members {
            let salt = id.0 as u64;
            let retries = &mut self.out.retries;
            let probed = self.caller.call(id, 16, salt, retries, None, || {
                |ctx: &NodeCtx| {
                    let storage = &data_state(ctx)?.storage;
                    Ok((storage.partition_count(), storage.current_epoch()))
                }
            });
            let probe = probed.map_err(|e| self.note(e)).ok();
            self.nodes.push((id, probe));
        }
    }

    /// Answer `plan`: gather its build sides (each a query of its own) into
    /// tables, gather the segment's parts, merge them on a grid node.
    fn answer(&mut self, plan: &Arc<LogicalPlan>) -> Result<Merged, DistError> {
        let mut keys = Vec::new();
        let split = cut(plan, &mut keys).ok_or_else(no_distributed_form)?;
        let mut tables = Vec::with_capacity(split.builds.len());
        for (_, build, right_key) in &split.builds {
            let Merged::Tuples(tuples) = self.answer(&Arc::new((*build).clone()))? else {
                return Err(ExecError::BadPlan("join right input must be tuples".into()).into());
            };
            let mut table = JoinTable::new();
            index_build_tuples(&mut table, tuples, right_key);
            tables.push(Arc::new(table));
        }
        let parts = self.gather(plan, &split, tables)?;
        let payload = parts.iter().map(|(_, part)| part_bytes(part)).sum();
        let plan = Arc::clone(plan);
        let rt = self.caller.rt;
        let merge = rt.submit_to_kind(NodeKind::Grid, payload, move |_ctx| {
            let (mut keys, mut metrics) = (Vec::new(), ExecMetrics::default());
            let split = cut(&plan, &mut keys)?;
            Some((merge_parts(&split, parts, &mut metrics), metrics))
        })?;
        let (merged, m) = merge.join()?.ok_or_else(no_distributed_form)?;
        self.out.metrics.absorb(&m);
        self.out.metrics.rows_out = m.rows_out;
        Ok(merged)
    }

    /// Phases 2 and 3 for one segment: one morsel per (live node × unit),
    /// dispatched before any join so they run concurrently, then failover
    /// for nodes that failed terminally. Returns the parts in merge order
    /// and adds the segment to the coverage report.
    fn gather(
        &mut self,
        plan: &Arc<LogicalPlan>,
        split: &Split<'_>,
        tables: Vec<Arc<JoinTable>>,
    ) -> Result<Vec<(usize, Part)>, DistError> {
        let by_shard = matches!(split.base, LogicalPlan::IndexScan { .. });
        // The first morsel sent to a node carries the broadcast tables.
        let plan_bytes = format!("{plan:?}").len() as u64;
        let rows = tables.iter().flat_map(|table| table.values());
        let table_bytes = rows.map(|tuples| tuples_bytes(tuples)).sum::<usize>() as u64;
        let job = SegmentJob {
            plan: Arc::clone(plan),
            tables: tables.into(),
            batch_size: self.opts.batch_size.max(1),
            deadline_at: self.caller.deadline_at,
        };
        let mut dispatched = Vec::new();
        let mut failed = BTreeSet::new();
        for (slot, &(node, probe)) in self.nodes.iter().enumerate() {
            let Some((partitions, epoch)) = probe else {
                failed.insert(node);
                continue;
            };
            for index in 0..if by_shard { 1 } else { partitions } {
                // a shard unit stands for every partition of its node
                let (p, covers) = match by_shard {
                    true => (None, 0..partitions),
                    false => (Some(index), index..index + 1),
                };
                let unit = Unit::Primary(p, epoch);
                let payload = plan_bytes + if index == 0 { table_bytes } else { 0 };
                dispatched.push(Dispatched {
                    node,
                    place: (slot, index),
                    covers,
                    unit,
                    payload,
                    first: self.caller.rt.submit_to(node, payload, job.on(unit)),
                });
            }
        }
        // Resolve morsels through the worker pool when the caller asked
        // for parallelism, so joins and retry backoffs overlap. Outcomes
        // are processed in dispatch order either way, and retry jitter is
        // salted per (node, unit): nothing depends on scheduling.
        let (caller, job_ref) = (&self.caller, &job);
        let outcomes = scoped_map(self.opts.worker_threads.max(1), dispatched, |m| {
            let mut retries = 0u64;
            let salt = splitmix64(((m.node.0 as u64) << 20) ^ m.place.1 as u64);
            let first = Some(m.first);
            let outcome = caller.call(m.node, m.payload, salt, &mut retries, first, || {
                job_ref.on(m.unit)
            });
            (m.node, m.place, m.covers, outcome, retries)
        });
        let mut done = Vec::new();
        let mut late: Vec<(NodeId, usize)> = Vec::new();
        for (node, place, covers, outcome, retries) in outcomes {
            self.out.retries += retries;
            match outcome {
                Ok((part, metrics)) => done.push((node, place, covers.len(), part, metrics)),
                // the plan itself is wrong: no node can answer it
                Err(e @ DistError::Exec(ExecError::BadPlan(_))) => return Err(e),
                Err(e @ DistError::Cluster(ClusterError::Timeout)) => {
                    late.extend(covers.map(|p| (node, p)));
                    self.note(e);
                }
                Err(e) => {
                    failed.insert(node);
                    self.note(e);
                }
            }
        }
        // Failover is all-or-nothing per node: whatever a failed node did
        // ship is void, its whole contribution is recomputed.
        done.retain(|(node, ..)| !failed.contains(node));
        late.retain(|(node, _)| !failed.contains(node));
        let mut recovered = self.fail_over(split, &job, plan_bytes + table_bytes, &failed)?;

        // A silent node is assumed laid out like one that answered.
        let answered = self.nodes.iter().find_map(|(_, probe)| *probe);
        let fallback = answered.map_or(1, |(partitions, _)| partitions.max(1));
        let c = &mut self.out.coverage;
        let mut keyed: Vec<((usize, usize), Part)> = Vec::new();
        for (slot, &(node, probe)) in self.nodes.iter().enumerate() {
            let partitions = probe.map_or(fallback, |(partitions, _)| partitions);
            c.partitions_total += partitions;
            if failed.contains(&node) {
                match recovered.remove(&node) {
                    Some(part) => {
                        c.partitions_failed_over += partitions;
                        keyed.push(((slot, 0), part));
                    }
                    None => c.skipped.extend((0..partitions).map(|p| (node, p))),
                }
            }
        }
        for (_, place, covered, part, metrics) in done {
            c.partitions_scanned += covered;
            self.out.metrics.absorb(&metrics);
            keyed.push((place, part));
        }
        c.skipped.extend(late);
        keyed.sort_by_key(|(place, _)| *place);
        let parts = keyed.into_iter().enumerate();
        Ok(parts.map(|(i, (_, part))| (i, part)).collect())
    }

    /// Phase 3: recompute `failed` nodes' contributions from replicas.
    /// Every surviving node of the placement runs the segment over its
    /// replica store (once) and ships bound tuples; a failed node is
    /// recovered only if *all* of them answered (its documents' replicas
    /// are spread over the ring). The coordinator keeps a tuple whose base
    /// document the failed node owns only from the first surviving node of
    /// that document's placement, and folds it exactly as a morsel would
    /// have, so every plan, grouped aggregates included, stays
    /// exactly-once. Nothing is recovered once as many nodes have failed
    /// as each document has copies: some document may then have lost
    /// every copy, and only its id could say which, so the failed nodes
    /// are reported uncovered rather than answered short.
    fn fail_over(
        &mut self,
        split: &Split<'_>,
        job: &SegmentJob,
        payload: u64,
        failed: &BTreeSet<NodeId>,
    ) -> Result<HashMap<NodeId, Part>, DistError> {
        let mut recovered = HashMap::new();
        // Text shards index primary documents only: there is nothing to
        // read a failed node's hits back from.
        let (LogicalPlan::Scan { alias, .. }, Some(placement)) = (split.base, &self.opts.failover)
        else {
            return Ok(recovered);
        };
        if failed.len() >= placement.replication() {
            return Ok(recovered);
        }
        let nodes = placement.nodes().iter().copied();
        let survivors: Vec<NodeId> = nodes.filter(|n| !failed.contains(n)).collect();
        // candidate → its replica store's tuples, `None` when unusable
        let mut replicas: HashMap<NodeId, Option<Vec<Tuple>>> = HashMap::new();
        for &node in failed {
            let mut part = split.empty_part();
            let mut usable = 0;
            for &cand in &survivors {
                if let Entry::Vacant(slot) = replicas.entry(cand) {
                    let (caller, retries) = (&self.caller, &mut self.out.retries);
                    let replica = || job.on(Unit::Replica);
                    let scanned = caller.call(cand, payload, cand.0 as u64, retries, None, replica);
                    let tuples = match scanned {
                        Ok((Part::Tuples(tuples), metrics)) => {
                            self.out.failovers += 1;
                            dist_obs().failovers.inc();
                            self.out.metrics.absorb(&metrics);
                            Some(tuples)
                        }
                        Err(e @ DistError::Exec(ExecError::BadPlan(_))) => return Err(e),
                        Err(e) => {
                            self.note(e);
                            None
                        }
                        Ok(_) => None,
                    };
                    slot.insert(tuples);
                }
                let Some(Some(tuples)) = replicas.get(&cand) else {
                    usable = 0;
                    break;
                };
                let owned = |t: &&Tuple| {
                    t.bindings.get(alias).is_some_and(|d| {
                        placement.owner(d.id()) == Some(node) && {
                            let nodes = placement.nodes_for(d.id());
                            nodes.iter().find(|n| !failed.contains(n)) == Some(&cand)
                        }
                    })
                };
                let kept = tuples.iter().filter(|t| owned(t)).cloned().collect();
                split.fold(&mut part, Batch::Tuples(kept))?;
                usable += 1;
            }
            if usable > 0 {
                recovered.insert(node, part);
            }
        }
        Ok(recovered)
    }
}

/// Execute `plan` across the cluster. Plans the exchange's [`split`]
/// cannot cut (value-index lookups, indexed-NL joins, graph connects,
/// fusion) are rejected as [`ExecError::BadPlan`]; `opts.limit`
/// becomes a root `Limit`, as on the single box.
///
/// * Transient losses (dropped request, lost reply, dropped result)
///   retry per `opts.retry` with seeded-jitter backoff.
/// * A node that fails terminally — dead, or its store unreadable — is
///   recomputed from the surviving replica stores when `opts.failover`
///   names the placement the data was stored under (see
///   [`Run::fail_over`]). Plans over an `IndexScan` base cannot fail
///   over: text shards are not replicated.
/// * When the deadline expires, unresolved morsels are abandoned and
///   reported in the coverage report.
/// * Any uncovered partition makes the result degraded: returned as such
///   if `opts.degraded_ok`, otherwise the first typed error (a node-side
///   storage failure keeps its kind).
pub fn execute(
    rt: &ClusterRuntime,
    plan: &LogicalPlan,
    opts: &ExecutionContext,
) -> Result<DistOutput, DistError> {
    // *Members*, not live nodes: a node that died before this query still
    // holds data. Its probe fails and its partitions are recovered from
    // replicas or reported uncovered — never silently absent.
    let members = rt.members_of_kind(NodeKind::Data);
    if members.is_empty() {
        return Err(ClusterError::NoNodeOfKind("data").into());
    }
    let plan = Arc::new(plan.with_limit(opts.limit).into_owned());
    let caller = Caller {
        rt,
        policy: opts.retry,
        deadline_at: opts.deadline.map(|d| Instant::now() + d),
    };
    let mut run = Run {
        caller,
        opts,
        nodes: Vec::with_capacity(members.len()),
        out: DistOutput {
            output: QueryOutput::Rows(Vec::new()),
            metrics: ExecMetrics::default(),
            coverage: CoverageReport::default(),
            degraded: false,
            retries: 0,
            failovers: 0,
        },
        first_error: None,
        deadline_hit: false,
    };
    run.probe(members);
    let merged = run.answer(&plan)?;
    let live = run.nodes.iter().filter(|(_, probe)| probe.is_some());
    run.out.metrics.workers_used = live.count() as u64;
    let mut out = run.out;
    out.output = merged.into_output();
    out.coverage.skipped.sort_unstable();
    out.degraded = !out.coverage.skipped.is_empty();
    if out.degraded && !opts.degraded_ok {
        let timeout = DistError::Cluster(ClusterError::Timeout);
        return Err(run.first_error.unwrap_or(timeout));
    }
    if run.deadline_hit {
        dist_obs().deadline_exceeded.inc();
        out.metrics.deadline_exceeded = true;
    }
    if out.degraded {
        dist_obs().degraded_queries.inc();
    }
    Ok(out)
}

/// Store `doc` on `target`, which its placement lists at `rank` (the
/// primary store and text shard for rank 0, the replica store
/// otherwise). A put is idempotent under lost replies: when an
/// attempt landed and only its acknowledgement was dropped, the retry
/// finds the very version it carries already stored — that
/// `StaleVersion` *is* the acknowledgement (and re-indexing a version
/// replaces the same postings).
fn put_on(
    rt: &ClusterRuntime,
    target: NodeId,
    doc: &Document,
    size: u64,
    rank: usize,
) -> Result<(), DistError> {
    let attempts = Cell::new(0u32);
    Caller::plain(rt).call(target, size, target.0 as u64, &mut 0, None, || {
        let doc = doc.clone();
        let retried = attempts.replace(attempts.get() + 1) > 0;
        move |ctx: &NodeCtx| {
            let state = data_state(ctx)?;
            match state.store_for(rank).put(&doc) {
                Err(StorageError::StaleVersion { latest, attempted })
                    if retried && latest == attempted => {}
                stored => stored.map_err(ExecError::Storage)?,
            }
            if rank == 0 {
                // the primary owner also maintains its text shard
                state.text_index.index_document(&doc);
            }
            Ok(())
        }
    })
}

/// Store `doc` on every node `placement` names for it: the primary first
/// (the only copy queries scan and the only text shard that indexes it),
/// then the replica stores, where failover and repair find it if the
/// primary dies. Every copy retries transient message loss (see
/// [`put_on`] for why that is safe).
pub fn put(rt: &ClusterRuntime, placement: &Placement, doc: &Document) -> Result<(), DistError> {
    let nodes = placement.nodes_for(doc.id());
    if nodes.is_empty() {
        return Err(ClusterError::NoNodeOfKind("data").into());
    }
    let size = codec::encode_document_vec(doc).len() as u64;
    for (rank, &node) in nodes.iter().enumerate() {
        put_on(rt, node, doc, size, rank)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::plan::{AggItem, JoinAlgo};
    use impliance_cluster::{FaultSchedule, Network, NodeSpec};
    use impliance_docmodel::{DocId, DocumentBuilder, SourceFormat, Value};
    use impliance_storage::{AggFunc, Predicate, StorageOptions};

    fn boot(data_nodes: u32, grid_nodes: u32) -> ClusterRuntime {
        let mut specs = Vec::new();
        for i in 0..data_nodes {
            specs.push(NodeSpec::new(i, NodeKind::Data));
        }
        for i in 0..grid_nodes {
            specs.push(NodeSpec::new(100 + i, NodeKind::Grid));
        }
        specs.push(NodeSpec::new(200, NodeKind::Cluster));
        ClusterRuntime::boot(&specs, Arc::new(Network::new()), |spec| match spec.kind {
            NodeKind::Data => Arc::new(DataNodeState::new(&OPTS)),
            _ => Arc::new(()),
        })
    }

    const OPTS: StorageOptions = StorageOptions {
        partitions: 2,
        seal_threshold: 64,
        compression: true,
        encryption_key: None,
    };

    /// The placement of `rt`'s data nodes with `replication` copies.
    fn placed(rt: &ClusterRuntime, replication: usize) -> Placement {
        Placement::new(&rt.nodes_of_kind(NodeKind::Data), replication)
    }

    fn order(i: u64) -> Document {
        DocumentBuilder::new(DocId(i), SourceFormat::Json, "orders")
            .field("amount", (i % 100) as i64)
            .field("cust", format!("C-{}", i % 10))
            .build()
    }

    fn load(rt: &ClusterRuntime, n: u64) {
        let placement = placed(rt, 1);
        for i in 0..n {
            put(rt, &placement, &order(i)).unwrap();
        }
    }

    fn load_replicated(rt: &ClusterRuntime, n: u64) {
        let placement = placed(rt, 2);
        for i in 0..n {
            put(rt, &placement, &order(i)).unwrap();
        }
    }

    fn scan(collection: Option<&str>, predicate: Option<Predicate>) -> LogicalPlan {
        LogicalPlan::Scan {
            collection: collection.map(str::to_string),
            predicate,
            alias: collection.unwrap_or("d").to_string(),
            use_value_index: false,
        }
    }

    fn full() -> LogicalPlan {
        scan(None, None)
    }

    /// `SELECT cust, SUM(amount), COUNT(*) FROM orders GROUP BY cust`.
    fn sum_by_cust() -> LogicalPlan {
        LogicalPlan::GroupAgg {
            input: Box::new(scan(Some("orders"), None)),
            group_by: Some(("orders".into(), "cust".into())),
            aggs: vec![
                AggItem {
                    func: AggFunc::Sum,
                    operand: Some("amount".into()),
                    output: "total".into(),
                },
                AggItem {
                    func: AggFunc::Count,
                    operand: None,
                    output: "n".into(),
                },
            ],
        }
    }

    fn run(rt: &ClusterRuntime, plan: &LogicalPlan) -> DistOutput {
        execute(rt, plan, &ExecutionContext::default()).unwrap()
    }

    fn sorted_ids(out: &DistOutput) -> Vec<u64> {
        let mut ids: Vec<u64> = out.output.docs().iter().map(|d| d.id().0).collect();
        ids.sort_unstable();
        ids
    }

    fn rendered(out: &DistOutput) -> Vec<String> {
        out.output.rows().iter().map(|r| r.render()).collect()
    }

    /// The placement `load_replicated` stored under, for failover.
    fn ring(rt: &ClusterRuntime) -> Option<Arc<Placement>> {
        Some(Arc::new(placed(rt, 2)))
    }

    #[test]
    fn fault_free_execution_sees_every_document_once_with_complete_coverage() {
        let rt = boot(2, 1);
        load(&rt, 60);
        let out = run(&rt, &full());
        assert_eq!(sorted_ids(&out), (0..60).collect::<Vec<u64>>());
        assert!(!out.degraded);
        assert!(out.coverage.is_complete());
        // one morsel per (node × partition): 2 nodes × 2 partitions
        assert_eq!(out.coverage.partitions_total, 4);
        assert_eq!(out.coverage.partitions_scanned, 4);
        assert_eq!(out.coverage.partitions_failed_over, 0);
        assert_eq!((out.retries, out.failovers), (0, 0));
        assert_eq!(out.metrics.rows_out, 60);
        assert_eq!(out.metrics.scan.docs_scanned, 60);
    }

    #[test]
    fn pushdown_reduces_network_bytes() {
        let rt = boot(2, 1);
        load(&rt, 200);
        rt.network().reset_metrics();
        let selective = Predicate::Ge("amount".into(), Value::Int(95));
        let filtered = run(&rt, &scan(None, Some(selective)));
        let filtered_bytes = rt.network().metrics().bytes;
        rt.network().reset_metrics();
        let all = run(&rt, &full());
        let full_bytes = rt.network().metrics().bytes;
        assert_eq!(filtered.output.len(), 10);
        assert_eq!(all.output.len(), 200);
        assert!(
            filtered_bytes * 2 < full_bytes,
            "pushdown scan moved {filtered_bytes}, full scan {full_bytes}"
        );
    }

    #[test]
    fn multi_aggregate_group_by_matches_local_answer() {
        let rt = boot(3, 2);
        load(&rt, 100);
        let out = run(&rt, &sum_by_cust());
        let rows = out.output.rows();
        assert_eq!(rows.len(), 10);
        // sum over all groups must equal sum of 0..100 of (i%100) = 4950
        let total: f64 = rows
            .iter()
            .map(|r| r.get("total").as_f64().unwrap_or(0.0))
            .sum();
        assert_eq!(total, 4950.0);
        assert!(rows.iter().all(|r| r.get("n") == &Value::Int(10)));
    }

    #[test]
    fn hash_join_broadcasts_a_build_side_gathered_from_every_node() {
        let rt = boot(2, 2);
        load(&rt, 30);
        for i in 0..10u64 {
            let d = DocumentBuilder::new(DocId(1000 + i), SourceFormat::Json, "customers")
                .field("code", format!("C-{i}"))
                .field("name", format!("Customer {i}"))
                .build();
            put(&rt, &placed(&rt, 1), &d).unwrap();
        }
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(scan(Some("orders"), None)),
                right: Box::new(scan(Some("customers"), None)),
                left_key: ("orders".into(), "cust".into()),
                right_key: ("customers".into(), "code".into()),
                algo: JoinAlgo::Hash,
            }),
            columns: vec![
                ("orders".into(), "cust".into(), "cust".into()),
                ("customers".into(), "code".into(), "code".into()),
            ],
        };
        let out = run(&rt, &plan);
        let rows = out.output.rows();
        assert_eq!(rows.len(), 30, "every order has exactly one customer");
        assert!(rows.iter().all(|r| r.get("cust") == r.get("code")));
        // both segments — build side and probe side — covered 2 × 2 partitions
        assert_eq!(out.coverage.partitions_total, 8);
        assert!(out.coverage.is_complete());
        // plans the exchange cannot split have no distributed form
        let LogicalPlan::Project { input, .. } = plan else {
            panic!("the plan above is a projection");
        };
        let LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
            ..
        } = *input
        else {
            panic!("the projection above reads a join");
        };
        let indexed_join = LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
            algo: JoinAlgo::IndexedNestedLoop,
        };
        let err = execute(&rt, &indexed_join, &ExecutionContext::default()).unwrap_err();
        assert!(
            matches!(err, DistError::Exec(ExecError::BadPlan(_))),
            "{err}"
        );
    }

    #[test]
    fn batched_scan_limit_ships_fewer_bytes() {
        let rt = boot(2, 1);
        load(&rt, 200);
        let opts = ExecutionContext::with_batch_size(16);
        rt.network().reset_metrics();
        let all = execute(&rt, &full(), &opts).unwrap();
        let full_bytes = rt.network().metrics().bytes;
        rt.network().reset_metrics();
        let limited_opts = ExecutionContext {
            limit: Some(5),
            ..opts
        };
        let limited = execute(&rt, &full(), &limited_opts).unwrap();
        let limited_bytes = rt.network().metrics().bytes;
        assert_eq!(limited.output.len(), 5);
        assert!(
            limited_bytes < full_bytes,
            "limit 5 moved {limited_bytes} bytes, full scan {full_bytes}"
        );
        // each morsel stopped pulling after its first page of 16
        assert!(limited.metrics.batches < all.metrics.batches);
        assert!(limited.metrics.scan.docs_scanned < all.metrics.scan.docs_scanned);
    }

    #[test]
    fn execution_fails_without_data_nodes() {
        let specs = vec![NodeSpec::new(1, NodeKind::Grid)];
        let rt = ClusterRuntime::boot(&specs, Arc::new(Network::new()), |_| Arc::new(()));
        assert!(matches!(
            execute(&rt, &full(), &ExecutionContext::default()),
            Err(DistError::Cluster(ClusterError::NoNodeOfKind("data")))
        ));
    }

    #[test]
    fn replicated_put_places_copies_on_ring_successor() {
        let rt = boot(3, 1);
        load_replicated(&rt, 30);
        // Each document's second node holds it in its replica store.
        let nodes = rt.nodes_of_kind(NodeKind::Data);
        let mut replica_total = 0usize;
        for &id in &nodes {
            let submitted = rt.submit_to(id, 0, |ctx| {
                let state = ctx.state.downcast_ref::<DataNodeState>();
                state.map(|s| s.replica.total_versions()).unwrap_or(0)
            });
            let Ok(handle) = submitted else {
                panic!("submit replica count probe");
            };
            replica_total += handle.join().unwrap();
        }
        assert_eq!(replica_total, 30, "one replica copy per document");
        // Queries still see each document exactly once.
        assert_eq!(
            sorted_ids(&run(&rt, &full())),
            (0..30).collect::<Vec<u64>>()
        );
    }

    /// 30 % of the replies from the data nodes are dropped while 200
    /// documents are put, on each of eight drop seeds. Requests always
    /// land, so every put stores its document; a put whose three replies
    /// are all lost honestly reports `TaskLost`, and every other put
    /// reports `Ok`. The store holds each document exactly once, and more
    /// replies were dropped than the failed puts account for, so some
    /// lost acknowledgement was answered by its retry.
    #[test]
    fn puts_whose_reply_is_lost_are_acknowledged_by_their_retry() {
        for seed in 0x96C8_DA41..0x96C8_DA49 {
            let rt = boot(2, 1);
            let sched = Arc::new(FaultSchedule::new(seed));
            for &n in &rt.nodes_of_kind(NodeKind::Data) {
                sched.drop_link(n, COORDINATOR, 0.30);
            }
            rt.network().install_faults(sched);
            let placement = placed(&rt, 1);
            let outcomes: Vec<_> = (0..200).map(|i| put(&rt, &placement, &order(i))).collect();
            rt.network().clear_faults();
            let mut lost = 0;
            for outcome in outcomes {
                match outcome {
                    Ok(()) => {}
                    Err(DistError::Cluster(ClusterError::TaskLost)) => lost += 1,
                    Err(e) => panic!("seed {seed:#x}: a put failed untyped: {e}"),
                }
            }
            let dropped = rt.network().metrics().dropped;
            assert!(
                dropped > 3 * lost,
                "seed {seed:#x}: {dropped} replies dropped, {lost} puts lost all three"
            );
            assert_eq!(
                sorted_ids(&run(&rt, &full())),
                (0..200).collect::<Vec<u64>>(),
                "seed {seed:#x}"
            );
            // a genuinely stale write is still a typed conflict, not an ack
            let err = put(&rt, &placement, &order(7)).unwrap_err();
            assert!(
                matches!(
                    err,
                    DistError::Exec(ExecError::Storage(StorageError::StaleVersion { .. }))
                ),
                "seed {seed:#x}: {err}"
            );
        }
    }

    #[test]
    fn retry_survives_transient_request_drops() {
        let rt = boot(2, 1);
        load(&rt, 80);
        let baseline = sorted_ids(&run(&rt, &full()));
        let sched = Arc::new(FaultSchedule::new(0xC4A05));
        // 25% loss on requests to both data nodes.
        for &n in &rt.nodes_of_kind(NodeKind::Data) {
            sched.drop_to(n, 0.25);
        }
        rt.network().install_faults(sched);
        let opts = ExecutionContext {
            retry: RetryPolicy {
                max_attempts: 8,
                base_backoff_us: 50,
                max_backoff_us: 500,
                seed: 1,
            },
            ..ExecutionContext::default()
        };
        let out = execute(&rt, &full(), &opts).unwrap();
        rt.network().clear_faults();
        assert!(!out.degraded);
        assert!(out.retries > 0, "drops must have forced retries");
        assert_eq!(sorted_ids(&out), baseline);
    }

    #[test]
    fn dead_node_fails_over_to_replicas_exactly_once() {
        let rt = boot(4, 1);
        load_replicated(&rt, 120);
        let baseline = sorted_ids(&run(&rt, &full()));
        let victim = rt.nodes_of_kind(NodeKind::Data)[1];
        let sched = Arc::new(FaultSchedule::new(7));
        // Die mid-query: the probes alone take 8 messages, so at message
        // 10 the victim has answered its probe and at most started on its
        // two morsels (3 messages each).
        sched.kill_after(victim, 10);
        rt.network().install_faults(sched);
        let opts = ExecutionContext {
            batch_size: 4,
            failover: ring(&rt),
            ..ExecutionContext::default()
        };
        let out = execute(&rt, &full(), &opts).unwrap();
        rt.network().clear_faults();
        assert_eq!(sorted_ids(&out), baseline, "row set preserved");
        assert!(!out.degraded);
        assert!(out.failovers > 0, "replicas must have been consulted");
        // all-or-nothing: both of the victim's partitions were recomputed
        assert_eq!(out.coverage.partitions_failed_over, 2);
        assert_eq!(out.coverage.partitions_scanned, 6);
        assert!(out.coverage.is_complete());
    }

    /// Two copies per document and two dead nodes: some documents had
    /// both copies on them, so the answer cannot be whole. Both nodes'
    /// partitions are reported skipped (or the query fails typed) instead
    /// of a complete-looking answer that is short.
    #[test]
    fn as_many_dead_nodes_as_copies_degrade_instead_of_answering_short() {
        let rt = boot(4, 1);
        load_replicated(&rt, 200);
        let lenient = ExecutionContext {
            failover: ring(&rt),
            degraded_ok: true,
            ..ExecutionContext::default()
        };
        let strict = ExecutionContext {
            degraded_ok: false,
            ..lenient.clone()
        };
        let sched = Arc::new(FaultSchedule::new(1));
        sched.kill_after(NodeId(0), 0);
        sched.kill_after(NodeId(1), 0);
        rt.network().install_faults(sched);
        let out = execute(&rt, &full(), &lenient).unwrap();
        let strict = execute(&rt, &full(), &strict);
        rt.network().clear_faults();
        let err = match strict {
            Ok(short) => panic!("{} of 200 rows answered as whole", short.output.len()),
            Err(e) => e,
        };
        assert!(out.degraded && out.output.len() < 200, "{:?}", out.coverage);
        assert_eq!(out.coverage.partitions_skipped(), 4);
        assert_eq!(out.coverage.partitions_failed_over, 0);
        assert!(
            matches!(
                err,
                DistError::Cluster(ClusterError::NodeDown(_) | ClusterError::TaskLost)
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn dead_node_without_failover_errors() {
        let rt = boot(3, 1);
        load(&rt, 60);
        let victim = rt.nodes_of_kind(NodeKind::Data)[0];
        let sched = Arc::new(FaultSchedule::new(3));
        sched.kill_after(victim, 5);
        rt.network().install_faults(sched);
        let err = execute(&rt, &full(), &ExecutionContext::default()).unwrap_err();
        rt.network().clear_faults();
        assert!(
            matches!(
                err,
                DistError::Cluster(ClusterError::NodeDown(_) | ClusterError::TaskLost)
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn zero_deadline_degrades_with_honest_coverage() {
        let rt = boot(3, 1);
        load(&rt, 60);
        let opts = ExecutionContext {
            deadline: Some(Duration::ZERO),
            degraded_ok: true,
            ..ExecutionContext::default()
        };
        let out = execute(&rt, &full(), &opts).unwrap();
        assert!(out.degraded);
        assert!(out.metrics.deadline_exceeded);
        assert_eq!(out.output.len(), 0);
        assert_eq!(out.coverage.partitions_scanned, 0);
        assert_eq!(
            out.coverage.partitions_total,
            out.coverage.partitions_skipped()
        );
    }

    #[test]
    fn zero_deadline_without_degraded_ok_errors() {
        let rt = boot(2, 1);
        load(&rt, 10);
        let opts = ExecutionContext {
            deadline: Some(Duration::ZERO),
            degraded_ok: false,
            ..ExecutionContext::default()
        };
        assert!(matches!(
            execute(&rt, &full(), &opts),
            Err(DistError::Cluster(ClusterError::Timeout))
        ));
    }

    /// Partial group states cannot be deduplicated, so the old scan path
    /// refused to fail aggregates over. A failed node's contribution is
    /// now recomputed as tuples and folded at the coordinator, so a
    /// grouped aggregate under a killed node returns the fault-free
    /// groups — every document counted exactly once.
    #[test]
    fn grouped_aggregate_under_a_killed_node_returns_the_fault_free_groups_exactly_once() {
        let rt = boot(3, 1);
        load_replicated(&rt, 60);
        let baseline = rendered(&run(&rt, &sum_by_cust()));
        assert_eq!(baseline.len(), 10);
        let victim = rt.nodes_of_kind(NodeKind::Data)[0];
        let sched = Arc::new(FaultSchedule::new(5));
        sched.kill_after(victim, 5);
        rt.network().install_faults(sched);
        let opts = ExecutionContext {
            failover: ring(&rt),
            ..ExecutionContext::default()
        };
        let out = execute(&rt, &sum_by_cust(), &opts).unwrap();
        rt.network().clear_faults();
        assert_eq!(rendered(&out), baseline);
        assert!(!out.degraded, "aggregates fail over like any other plan");
        assert!(out.failovers > 0);
        assert_eq!(out.coverage.partitions_failed_over, 2);
        assert!(out.coverage.is_complete());
    }

    /// Every morsel of a node reads the epoch its probe pinned. A writer
    /// commits batches that span both partitions, each batch stamped with
    /// one generation; a query that let each partition's morsel read its
    /// own "latest" would see two generations side by side.
    #[test]
    fn morsels_of_a_node_read_the_epoch_its_probe_pinned() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let state = Arc::new(DataNodeState::new(&OPTS));
        let storage = Arc::clone(&state.storage);
        let specs = [
            NodeSpec::new(0, NodeKind::Data),
            NodeSpec::new(100, NodeKind::Grid),
        ];
        let rt = ClusterRuntime::boot(&specs, Arc::new(Network::new()), move |spec| {
            match spec.kind {
                NodeKind::Data => Arc::clone(&state) as Arc<dyn std::any::Any + Send + Sync>,
                _ => Arc::new(()),
            }
        });
        let generation = |gen: i64, prev: Option<&Vec<Document>>| -> Vec<Document> {
            (0..16u64)
                .map(|i| {
                    let fresh = DocumentBuilder::new(DocId(i), SourceFormat::Json, "c")
                        .field("gen", gen)
                        .build();
                    match prev {
                        Some(prev) => prev[i as usize].new_version(fresh.root().clone(), gen),
                        None => fresh,
                    }
                })
                .collect()
        };
        let mut docs = generation(0, None);
        storage.commit(&docs).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        #[allow(clippy::disallowed_methods, reason = "a writer, not query work")]
        let writer = {
            let (storage, stop) = (Arc::clone(&storage), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut gen = 0;
                while !stop.load(Ordering::Relaxed) && gen < 4_000 {
                    gen += 1;
                    docs = generation(gen, Some(&docs));
                    storage.commit(&docs).unwrap();
                }
            })
        };
        let plan = LogicalPlan::Project {
            input: Box::new(scan(Some("c"), None)),
            columns: vec![("c".into(), "gen".into(), "gen".into())],
        };
        for _ in 0..60 {
            let out = run(&rt, &plan);
            let rows = out.output.rows();
            assert_eq!(rows.len(), 16);
            assert!(
                rows.iter().all(|r| r.get("gen") == rows[0].get("gen")),
                "torn read across partitions: {:?}",
                rendered(&out)
            );
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }
}

#[cfg(test)]
mod search_tests {
    use super::*;
    use impliance_cluster::{Network, NodeSpec};
    use impliance_docmodel::{DocId, DocumentBuilder, SourceFormat, Value};
    use impliance_storage::StorageOptions;

    fn boot(data_nodes: u32) -> ClusterRuntime {
        let mut specs: Vec<NodeSpec> = (0..data_nodes)
            .map(|i| NodeSpec::new(i, NodeKind::Data))
            .collect();
        specs.push(NodeSpec::new(100, NodeKind::Grid));
        let opts = StorageOptions {
            partitions: 2,
            seal_threshold: 64,
            compression: true,
            encryption_key: None,
        };
        ClusterRuntime::boot(&specs, Arc::new(Network::new()), |spec| match spec.kind {
            NodeKind::Data => Arc::new(DataNodeState::new(&opts)),
            _ => Arc::new(()),
        })
    }

    /// Store a text document on its primary, which indexes it in its shard.
    fn put_and_index(rt: &ClusterRuntime, id: u64, text: &str) {
        let d = DocumentBuilder::new(DocId(id), SourceFormat::Text, "t")
            .field("body", text)
            .build();
        let placement = Placement::new(&rt.nodes_of_kind(NodeKind::Data), 1);
        put(rt, &placement, &d).unwrap();
    }

    /// A keyword search as the appliance builds it: a scored index scan
    /// projected to `(id, score)` rows.
    fn search(rt: &ClusterRuntime, query: &str, k: usize) -> Result<Vec<(u64, f64)>, DistError> {
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::IndexScan {
                query: query.into(),
                path: None,
                k: Some(k),
                alias: "d".into(),
                any_term: false,
                phrase: false,
                collection: None,
            }),
            columns: vec![
                ("d".into(), "_id".into(), "id".into()),
                ("d".into(), "_score".into(), "score".into()),
            ],
        };
        let out = execute(rt, &plan, &ExecutionContext::default())?;
        let hit = |r: &crate::tuple::Row| match (r.get("id"), r.get("score")) {
            (Value::Int(id), Value::Float(score)) => (*id as u64, *score),
            other => panic!("not a scored hit: {other:?}"),
        };
        Ok(out.output.rows().iter().map(hit).collect())
    }

    #[test]
    fn sharded_search_finds_documents_on_every_node() {
        let rt = boot(4);
        for i in 0..40 {
            let text = if i % 5 == 0 {
                "zanzibar sighting confirmed"
            } else {
                "routine note"
            };
            put_and_index(&rt, i, text);
        }
        let hits = search(&rt, "zanzibar", 100).unwrap();
        assert_eq!(hits.len(), 8);
        // merged by score (best first), ties by ascending id
        assert!(hits
            .windows(2)
            .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)));
        // ids spread over nodes: the shards each contributed
        let mut ids: Vec<u64> = hits.iter().map(|h| h.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 5, 10, 15, 20, 25, 30, 35]);
    }

    #[test]
    fn sharded_search_truncates_to_k_by_score() {
        let rt = boot(3);
        for i in 0..30 {
            put_and_index(&rt, i, "needle in text");
        }
        assert_eq!(search(&rt, "needle", 5).unwrap().len(), 5);
    }

    #[test]
    fn search_without_data_nodes_errors() {
        let specs = vec![NodeSpec::new(1, NodeKind::Grid)];
        let rt = ClusterRuntime::boot(&specs, Arc::new(Network::new()), |_| Arc::new(()));
        assert!(search(&rt, "x", 5).is_err());
    }
}
