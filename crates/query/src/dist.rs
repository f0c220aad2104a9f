//! Distributed execution over the simulated cluster.
//!
//! Figure 3's example: "a query can be parallelized by performing
//! full-text index search on a set of data nodes, which then send the
//! reduced data to a set of grid nodes for joining, sorting, and
//! group-wise aggregation, the results of which are sent to a set of
//! cluster nodes to drive a set of updates."
//!
//! Data is hash-partitioned across data nodes (each owns a
//! [`StorageEngine`]); scans fan out to all data nodes with push-down, the
//! reduced partials ship (charged to the network) to grid nodes for
//! joining and global aggregation, and consistent persistence goes through
//! a cluster-node consistency group.
//!
//! §3.4 requires the appliance to "continue operating through component
//! failures", so the scan path is *resilient*: every morsel retries
//! transient message loss with seeded-jitter exponential backoff
//! ([`RetryPolicy`]), morsels whose owner dies re-dispatch against
//! surviving nodes' replica stores ([`FailoverPolicy`], deduplicated so
//! results stay exactly-once), and a per-query deadline can convert
//! stragglers into a degraded partial result with an honest
//! [`CoverageReport`] instead of an error. All of it is observable
//! through `dist.retries`, `dist.failovers`, `dist.deadline_exceeded`,
//! `dist.degraded_queries`, and the `dist.backoff_us` histogram.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use impliance_cluster::fault::splitmix64;
use impliance_cluster::runtime::NodeCtx;
use impliance_cluster::{ClusterError, ClusterRuntime, NodeId, NodeKind, TaskHandle};
use impliance_docmodel::{DocId, Document};
use impliance_index::{InvertedIndex, SearchHit, SearchQuery};
use impliance_obs::{Counter, Histogram};
use impliance_storage::{codec, AggValue, ScanPos, ScanRequest, ScanResult, StorageEngine};

use crate::batch::{collect_tuples, HashJoinOp, VecSource, DEFAULT_BATCH_SIZE};
use crate::clock;
use crate::context::ExecutionContext;
use crate::parallel::scoped_map;
use crate::tuple::Tuple;

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
            retries: m.counter("dist.retries"),
            failovers: m.counter("dist.failovers"),
            deadline_exceeded: m.counter("dist.deadline_exceeded"),
            degraded_queries: m.counter("dist.degraded_queries"),
            backoff_us: m.histogram(
                "dist.backoff_us",
                &[100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 100_000],
            ),
        }
    })
}

/// The state attached to each data node at boot: its slice of storage
/// plus its local shard of the full-text index.
pub struct DataNodeState {
    /// The node-local primary storage engine (scanned by queries).
    pub storage: Arc<StorageEngine>,
    /// Replica storage for other nodes' data (read during recovery and
    /// scan failover; never scanned by healthy queries, so replication
    /// does not duplicate query results).
    pub replica: Arc<StorageEngine>,
    /// Node-local full-text index over primary documents ("full-text
    /// index search on a set of data nodes", §3.3).
    pub text_index: Arc<InvertedIndex>,
}

impl DataNodeState {
    /// Create a data-node state with an empty replica store and a
    /// default 8-shard text index. Prefer [`DataNodeState::with_shards`]
    /// (configured shard count) or [`DataNodeState::from_parts`]
    /// (pre-built replica/index state).
    pub fn new(storage: Arc<StorageEngine>) -> DataNodeState {
        DataNodeState::with_shards(storage, 8)
    }

    /// Create a data-node state with an empty replica store and a text
    /// index of `text_shards` shards (from `ApplianceConfig` in the
    /// appliance stack).
    pub fn with_shards(storage: Arc<StorageEngine>, text_shards: usize) -> DataNodeState {
        DataNodeState::from_parts(
            storage,
            Arc::new(StorageEngine::with_defaults()),
            Arc::new(InvertedIndex::new(text_shards.max(1))),
        )
    }

    /// Assemble a data-node state from pre-built parts, e.g. a replica
    /// engine sharing the primary's `StorageOptions` or state carried
    /// over from a previous incarnation of the node.
    pub fn from_parts(
        storage: Arc<StorageEngine>,
        replica: Arc<StorageEngine>,
        text_index: Arc<InvertedIndex>,
    ) -> DataNodeState {
        DataNodeState {
            storage,
            replica,
            text_index,
        }
    }
}

/// Route a document id to one of `n` data nodes (must match the routing
/// used at ingestion so scans see every document exactly once).
pub fn route_doc(id: DocId, n: usize) -> usize {
    (id.0.wrapping_mul(0x9E3779B97F4A7C15) >> 33) as usize % n.max(1)
}

/// Bounded, seeded-jitter exponential backoff for transient failures.
///
/// Attempt `k` (1-based; the first retry is attempt 1) sleeps a
/// deterministic jittered duration in `[cap/2, cap]` where
/// `cap = min(base · 2^(k-1), max)` — deterministic because the jitter
/// derives from `(seed, salt, k)`, not from wall-clock entropy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff cap for the first retry, microseconds.
    pub base_backoff_us: u64,
    /// Upper bound on any single backoff, microseconds.
    pub max_backoff_us: u64,
    /// Seed for deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 200,
            max_backoff_us: 10_000,
            seed: 0x1A7B_11A5,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The jittered backoff before retry `attempt` (1-based), in
    /// microseconds. `salt` differentiates concurrent callers (e.g. one
    /// per morsel) so they do not thunder in lockstep.
    pub fn backoff_us(&self, attempt: u32, salt: u64) -> u64 {
        let shift = attempt.saturating_sub(1).min(16);
        let cap = self
            .base_backoff_us
            .max(1)
            .saturating_mul(1u64 << shift)
            .min(self.max_backoff_us.max(1));
        let jitter =
            splitmix64(self.seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407) ^ attempt as u64);
        cap / 2 + jitter % (cap / 2 + 1)
    }
}

/// Where to look for a failed node's data, and how to recognise it.
///
/// `candidates` maps each data node to the ordered list of nodes whose
/// `replica` stores may hold copies of its documents; `owns` answers
/// "does this document belong to that (failed) node?" so failover keeps
/// only the dead node's rows out of a survivor's replica store.
#[derive(Clone)]
pub struct FailoverPolicy {
    candidates: HashMap<NodeId, Vec<NodeId>>,
    owns: Arc<dyn Fn(DocId, NodeId) -> bool + Send + Sync>,
}

impl FailoverPolicy {
    /// Build from explicit parts (the appliance derives these from its
    /// `StorageManager` placement ring).
    pub fn new(
        candidates: HashMap<NodeId, Vec<NodeId>>,
        owns: Arc<dyn Fn(DocId, NodeId) -> bool + Send + Sync>,
    ) -> FailoverPolicy {
        FailoverPolicy { candidates, owns }
    }

    /// The dist-layer default: data nodes form a successor ring in id
    /// order, ownership follows [`route_doc`], and every other node is a
    /// failover candidate (nearest successor first) — matching the
    /// replica placement of [`dist_put_replicated`]. Build it from the
    /// node list that was current at *ingestion* time.
    pub fn ring(data_nodes: &[NodeId]) -> FailoverPolicy {
        let mut nodes = data_nodes.to_vec();
        nodes.sort_unstable();
        nodes.dedup();
        let mut candidates = HashMap::new();
        for (i, &x) in nodes.iter().enumerate() {
            let mut cands = Vec::with_capacity(nodes.len().saturating_sub(1));
            for k in 1..nodes.len() {
                cands.push(nodes[(i + k) % nodes.len()]);
            }
            candidates.insert(x, cands);
        }
        let ring = nodes;
        let owns = Arc::new(move |id: DocId, node: NodeId| {
            !ring.is_empty() && ring[route_doc(id, ring.len())] == node
        });
        FailoverPolicy { candidates, owns }
    }

    /// Failover candidates for `node`, best first.
    pub fn candidates_for(&self, node: NodeId) -> &[NodeId] {
        self.candidates.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether `node` owns document `id`.
    pub fn owns(&self, id: DocId, node: NodeId) -> bool {
        (self.owns)(id, node)
    }
}

impl fmt::Debug for FailoverPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FailoverPolicy")
            .field("candidates", &self.candidates)
            .finish()
    }
}

/// Which partitions a resilient scan actually covered. The contract for
/// degraded results: `partitions_total` always equals
/// `partitions_scanned + partitions_failed_over + skipped.len()`, and a
/// result is complete iff `skipped` is empty — there is no silent short
/// count.
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

/// The outcome of a resilient distributed scan.
#[derive(Debug, Clone)]
pub struct ResilientScan {
    /// Merged (exactly-once) scan result.
    pub result: ScanResult,
    /// Morsel/batch/byte accounting for the primary scan path (failover
    /// replica scans are accounted separately via `failovers`).
    pub stats: DistScanStats,
    /// What was covered, recovered, and skipped.
    pub coverage: CoverageReport,
    /// True iff any partition was skipped (`result` is partial).
    pub degraded: bool,
    /// Retries spent on transient failures during this scan.
    pub retries: u64,
    /// Replica re-dispatches performed during this scan.
    pub failovers: u64,
}

/// Shape of one batched distributed scan: how many morsels ran, how many
/// batches they shipped, and the longest single-morsel chain (the
/// critical path under the simulated busy-time model — morsels on the
/// same node run as independent tasks, so total batches well above the
/// critical path means the scan exhibited intra-node parallelism).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistScanStats {
    /// Independent scan tasks: one per (data node × partition).
    pub morsels: usize,
    /// Batches shipped across all morsels.
    pub batches: u64,
    /// Result-payload bytes charged to the network (excludes envelopes).
    pub bytes_shipped: u64,
    /// Batches shipped by the busiest single morsel.
    pub critical_path_batches: u64,
}

/// Error a morsel task reports back to the coordinator. Typed (rather
/// than a string) so the coordinator can classify transient losses apart
/// from dead nodes and broken state.
#[derive(Debug, Clone, PartialEq, Eq)]
enum MorselTaskError {
    /// The node's attached state is not a `DataNodeState`.
    BadState,
    /// The node noticed its own scheduled death mid-scan.
    NodeDead,
    /// A result page was dropped `PAGE_SEND_ATTEMPTS` times in a row.
    PageLost,
    /// The storage engine failed the scan.
    Storage(String),
}

type MorselOut = Result<(ScanResult, u64), MorselTaskError>;

fn submit_morsel(
    rt: &ClusterRuntime,
    request: &ScanRequest,
    req_bytes: u64,
    node: NodeId,
    partition: usize,
    batch_size: usize,
    snapshot: Option<u64>,
) -> Result<TaskHandle<MorselOut>, ClusterError> {
    let mut req = request.clone();
    // Pin the morsel to the epoch probed from this node, so every
    // partition of the node (and every retry of this morsel) reads the
    // same snapshot even while ingest keeps committing.
    if snapshot.is_some() {
        req.snapshot = snapshot;
    }
    rt.submit_to(node, req_bytes, move |ctx| {
        morsel_body(ctx, &req, partition, batch_size)
    })
}

fn morsel_body(ctx: &NodeCtx, req: &ScanRequest, partition: usize, batch_size: usize) -> MorselOut {
    let Some(state) = ctx.state.downcast_ref::<DataNodeState>() else {
        return Err(MorselTaskError::BadState);
    };
    let coordinator = NodeId(u32::MAX);
    let mut merged = ScanResult::default();
    let mut pos = ScanPos::default();
    let mut batches = 0u64;
    loop {
        if ctx.network.node_is_dead(ctx.id) {
            return Err(MorselTaskError::NodeDead);
        }
        let (page, next, done) = state
            .storage
            .scan_partition_page(partition, req, pos, batch_size)
            .map_err(|e| MorselTaskError::Storage(e.to_string()))?;
        // Charge this batch's payload from the node back to the
        // coordinator; transient drops retransmit a bounded number of
        // times before the morsel reports the loss.
        let mut shipped = false;
        for _ in 0..PAGE_SEND_ATTEMPTS {
            if ctx
                .network
                .transmit(ctx.id, coordinator, page.metrics.bytes_returned)
            {
                shipped = true;
                break;
            }
            if ctx.network.node_is_dead(ctx.id) {
                return Err(MorselTaskError::NodeDead);
            }
        }
        if !shipped {
            return Err(MorselTaskError::PageLost);
        }
        batches += 1;
        merged.merge(page);
        pos = next;
        if done {
            break;
        }
    }
    Ok((merged, batches))
}

/// Scan a node's *replica* store during failover: same predicate and
/// projection as the primary request, but never aggregates or limits (the
/// coordinator filters to the failed node's documents and re-applies the
/// limit after dedup).
fn replica_scan_body(ctx: &NodeCtx, req: &ScanRequest) -> Result<ScanResult, MorselTaskError> {
    let Some(state) = ctx.state.downcast_ref::<DataNodeState>() else {
        return Err(MorselTaskError::BadState);
    };
    if ctx.network.node_is_dead(ctx.id) {
        return Err(MorselTaskError::NodeDead);
    }
    let res = state
        .replica
        .scan(req)
        .map_err(|e| MorselTaskError::Storage(e.to_string()))?;
    let coordinator = NodeId(u32::MAX);
    let mut shipped = false;
    for _ in 0..PAGE_SEND_ATTEMPTS {
        if ctx
            .network
            .transmit(ctx.id, coordinator, res.metrics.bytes_returned)
        {
            shipped = true;
            break;
        }
        if ctx.network.node_is_dead(ctx.id) {
            return Err(MorselTaskError::NodeDead);
        }
    }
    if !shipped {
        return Err(MorselTaskError::PageLost);
    }
    Ok(res)
}

/// Run `make_job()` on `node` with the retry policy: transient losses
/// (dropped request, lost reply) back off and retry; a dead node or an
/// exhausted deadline aborts immediately.
fn call_with_retry<T, J, F>(
    rt: &ClusterRuntime,
    node: NodeId,
    payload: u64,
    policy: &RetryPolicy,
    deadline_at: Option<Instant>,
    retries: &mut u64,
    make_job: F,
) -> Result<T, ClusterError>
where
    T: Send + 'static,
    J: FnOnce(&NodeCtx) -> T + Send + 'static,
    F: Fn() -> J,
{
    let mut last = ClusterError::TaskLost;
    for attempt in 0..policy.max_attempts.max(1) {
        if attempt > 0 {
            let us = policy.backoff_us(attempt, node.0 as u64);
            dist_obs().backoff_us.observe(us);
            dist_obs().retries.inc();
            *retries += 1;
            clock::sleep_us(us);
        }
        if let Some(d) = deadline_at {
            if Instant::now() >= d {
                return Err(ClusterError::Timeout);
            }
        }
        match rt.submit_to(node, payload, make_job()) {
            Ok(handle) => {
                let joined = match deadline_at {
                    Some(d) => handle.join_timeout(d.saturating_duration_since(Instant::now())),
                    None => handle.join(),
                };
                match joined {
                    Ok(v) => return Ok(v),
                    Err(ClusterError::Timeout) => return Err(ClusterError::Timeout),
                    Err(ClusterError::TaskLost) if rt.network().node_is_dead(node) => {
                        return Err(ClusterError::NodeDown(node));
                    }
                    Err(e) => last = e,
                }
            }
            Err(e @ ClusterError::MessageDropped(_)) => last = e,
            Err(e) => return Err(e),
        }
    }
    Err(last)
}

/// How one morsel's lifecycle ended at the coordinator.
enum MorselOutcome {
    Done(ScanResult, u64),
    NodeFailed(ClusterError),
    DeadlineHit,
}

struct MorselEnv<'a> {
    rt: &'a ClusterRuntime,
    request: &'a ScanRequest,
    req_bytes: u64,
    batch_size: usize,
    policy: &'a RetryPolicy,
    deadline_at: Option<Instant>,
}

/// Work unit of phase 2: one `(node, partition)` morsel plus the epoch
/// probed from its node (every retry re-reads the same snapshot).
struct DispatchedMorsel {
    node: NodeId,
    partition: usize,
    snapshot: Option<u64>,
    first: Result<TaskHandle<MorselOut>, ClusterError>,
}

/// Drive one morsel to completion: join its in-flight attempt, retrying
/// transient losses with backoff until the policy, the node, or the
/// deadline gives out.
fn resolve_morsel(
    env: &MorselEnv<'_>,
    node: NodeId,
    partition: usize,
    snapshot: Option<u64>,
    first: Result<TaskHandle<MorselOut>, ClusterError>,
    retries: &mut u64,
) -> MorselOutcome {
    let max_attempts = env.policy.max_attempts.max(1);
    let mut attempts = 1u32;
    let mut attempt = first;
    loop {
        // Resolve the current attempt into success or a classified error.
        let (error, terminal) = match attempt {
            Ok(handle) => {
                let joined = match env.deadline_at {
                    Some(d) => handle.join_timeout(d.saturating_duration_since(Instant::now())),
                    None => handle.join(),
                };
                match joined {
                    Ok(Ok((partial, batches))) => return MorselOutcome::Done(partial, batches),
                    Ok(Err(MorselTaskError::PageLost)) => {
                        (ClusterError::MessageDropped(node), false)
                    }
                    Ok(Err(MorselTaskError::NodeDead)) => (ClusterError::NodeDown(node), true),
                    Ok(Err(_)) => (ClusterError::TaskLost, true),
                    Err(ClusterError::Timeout) => return MorselOutcome::DeadlineHit,
                    Err(ClusterError::TaskLost) => {
                        if env.rt.network().node_is_dead(node) {
                            (ClusterError::NodeDown(node), true)
                        } else {
                            (ClusterError::TaskLost, false)
                        }
                    }
                    Err(e) => (e, true),
                }
            }
            Err(e @ ClusterError::MessageDropped(_)) => (e, false),
            Err(e) => (e, true),
        };
        if terminal || attempts >= max_attempts {
            return MorselOutcome::NodeFailed(error);
        }
        if let Some(d) = env.deadline_at {
            if Instant::now() >= d {
                return MorselOutcome::DeadlineHit;
            }
        }
        let salt = splitmix64(((node.0 as u64) << 20) ^ partition as u64);
        let us = env.policy.backoff_us(attempts, salt);
        dist_obs().backoff_us.observe(us);
        dist_obs().retries.inc();
        *retries += 1;
        clock::sleep_us(us);
        attempts += 1;
        attempt = submit_morsel(
            env.rt,
            env.request,
            env.req_bytes,
            node,
            partition,
            env.batch_size,
            snapshot,
        );
    }
}

/// Fan a push-down scan out to every data node with retry, replica
/// failover, and deadline handling; merge the partials exactly-once.
///
/// Failure semantics:
///
/// * Transient losses (dropped request, lost reply, dropped page) retry
///   per `opts.retry` with seeded-jitter backoff.
/// * A dead node's partitions are recovered from its failover
///   candidates' replica stores when `opts.failover` is set — all
///   candidates must answer, results are filtered to the dead node's
///   documents and deduplicated against already-merged rows. Aggregate
///   requests never fail over (partial group states cannot be
///   deduplicated), so a dead node degrades them instead.
/// * When the deadline expires, unresolved morsels are abandoned and
///   reported in the coverage report.
/// * Any uncovered partition makes the result degraded: returned with
///   `degraded = true` if `opts.degraded_ok`, otherwise an error.
pub fn dist_scan_resilient(
    rt: &ClusterRuntime,
    request: &ScanRequest,
    opts: &ExecutionContext,
) -> Result<ResilientScan, ClusterError> {
    let deadline_at = opts.deadline.map(|d| Instant::now() + d);
    // Enumerate *members*, not live nodes: a node that died before this
    // scan started still holds data. Its probe fails below and the
    // partitions land in the failover/skip accounting — recovered from
    // replicas when possible, honestly reported as uncovered otherwise —
    // instead of silently vanishing from a "complete" result.
    let data_nodes = rt.members_of_kind(NodeKind::Data);
    if data_nodes.is_empty() {
        return Err(ClusterError::NoNodeOfKind("data"));
    }
    let batch_size = opts.batch_size.max(1);
    let mut retries = 0u64;
    let mut first_error: Option<ClusterError> = None;
    let mut deadline_hit = false;

    // Phase 1: probe each node for its partition count and current epoch
    // (16-byte control message), with retry. The epoch pins every morsel
    // of that node to one snapshot — a node's partitions never return a
    // torn mix of versions, no matter how ingest races the scan. Nodes
    // that cannot answer are failover candidates' work; nodes that time
    // out are the deadline's.
    let mut live: Vec<(NodeId, usize, u64)> = Vec::new();
    let mut probe_failed: Vec<NodeId> = Vec::new();
    let mut probe_timed_out: Vec<NodeId> = Vec::new();
    for id in data_nodes {
        let probe = call_with_retry(rt, id, 16, &opts.retry, deadline_at, &mut retries, || {
            move |ctx: &NodeCtx| {
                ctx.state
                    .downcast_ref::<DataNodeState>()
                    .map(|s| (s.storage.partition_count(), s.storage.current_epoch()))
            }
        });
        match probe {
            Ok(Some((partitions, epoch))) => live.push((id, partitions, epoch)),
            Ok(None) => {
                first_error.get_or_insert(ClusterError::TaskLost);
                probe_failed.push(id);
            }
            Err(ClusterError::Timeout) => {
                deadline_hit = true;
                probe_timed_out.push(id);
            }
            Err(e) => {
                first_error.get_or_insert(e);
                probe_failed.push(id);
            }
        }
    }
    // Partition count assumed for nodes that never answered their probe
    // (the cluster boots homogeneous layouts).
    let fallback_partitions = live.first().map(|&(_, p, _)| p).unwrap_or(1).max(1);

    // Phase 2: one morsel per (live node × partition), dispatched before
    // any join so they stream concurrently. An explicit snapshot on the
    // caller's request wins over probed epochs (time travel); otherwise
    // each node's morsels pin that node's probed epoch.
    let req_bytes = format!("{request:?}").len() as u64;
    let mut dispatched: Vec<DispatchedMorsel> = Vec::new();
    for &(id, partitions, epoch) in &live {
        let snapshot = Some(request.snapshot.unwrap_or(epoch));
        for p in 0..partitions {
            dispatched.push(DispatchedMorsel {
                node: id,
                partition: p,
                snapshot,
                first: submit_morsel(rt, request, req_bytes, id, p, batch_size, snapshot),
            });
        }
    }
    let env = MorselEnv {
        rt,
        request,
        req_bytes,
        batch_size,
        policy: &opts.retry,
        deadline_at,
    };
    let mut merged = ScanResult::default();
    let mut stats = DistScanStats::default();
    let mut scanned = 0usize;
    // Terminal per-node failures: node → its failed partitions.
    let mut failed_parts: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
    for id in &probe_failed {
        failed_parts.insert(*id, (0..fallback_partitions).collect());
    }
    let mut deadline_skipped: Vec<(NodeId, usize)> = Vec::new();
    for id in &probe_timed_out {
        for p in 0..fallback_partitions {
            deadline_skipped.push((*id, p));
        }
    }
    // Resolve morsels through the worker pool when the caller asked for
    // parallelism: joins and retry backoffs for independent morsels then
    // overlap instead of serializing. Outcomes are processed in dispatch
    // order either way, so the merged result and error/coverage
    // classification are identical to the serial path (each morsel's
    // retry jitter is salted by its own (node, partition), independent
    // of scheduling).
    let env_ref = &env;
    let outcomes: Vec<(NodeId, usize, MorselOutcome, u64)> =
        scoped_map(opts.worker_threads.max(1), dispatched, |m| {
            let mut morsel_retries = 0u64;
            let outcome = resolve_morsel(
                env_ref,
                m.node,
                m.partition,
                m.snapshot,
                m.first,
                &mut morsel_retries,
            );
            (m.node, m.partition, outcome, morsel_retries)
        });
    for (node, partition, outcome, morsel_retries) in outcomes {
        retries += morsel_retries;
        match outcome {
            MorselOutcome::Done(partial, batches) => {
                scanned += 1;
                stats.morsels += 1;
                stats.batches += batches;
                stats.bytes_shipped += partial.metrics.bytes_returned;
                stats.critical_path_batches = stats.critical_path_batches.max(batches);
                merged.merge(partial);
            }
            MorselOutcome::NodeFailed(e) => {
                first_error.get_or_insert(e);
                failed_parts.entry(node).or_default().push(partition);
            }
            MorselOutcome::DeadlineHit => {
                deadline_hit = true;
                deadline_skipped.push((node, partition));
            }
        }
    }
    let partitions_total = live.iter().map(|&(_, p, _)| p).sum::<usize>()
        + fallback_partitions * (probe_failed.len() + probe_timed_out.len());

    // Phase 3: replica failover for nodes with terminal failures. Every
    // usable candidate's replica store is scanned once; a failed node is
    // recovered only if *all* of its surviving candidates answered (a
    // node's documents may be spread across several replica holders), and
    // only its own documents are taken, deduplicated against rows the
    // node shipped before dying.
    let mut failovers = 0u64;
    let mut failed_over = 0usize;
    let mut skipped: Vec<(NodeId, usize)> = Vec::new();
    if !failed_parts.is_empty() {
        let failover_policy = match &opts.failover {
            Some(p) if request.aggregate.is_none() => Some(p),
            _ => None,
        };
        if let Some(policy) = failover_policy {
            let failed_set: BTreeSet<NodeId> = failed_parts.keys().copied().collect();
            // Replica stores are separate engines with independent epoch
            // counters, so a primary's probed epoch (or the caller's
            // explicit snapshot) is meaningless there: failover reads the
            // replica's unpinned latest. Cluster engines never enable
            // version GC, so the documents a dead primary committed are
            // all present in its replicas.
            let replica_req = ScanRequest {
                aggregate: None,
                limit: None,
                snapshot: None,
                ..request.clone()
            };
            let replica_req_bytes = format!("{replica_req:?}").len() as u64;
            let needed: BTreeSet<NodeId> = failed_set
                .iter()
                .flat_map(|x| policy.candidates_for(*x).iter().copied())
                .filter(|c| !failed_set.contains(c))
                .collect();
            let mut replica_scans: HashMap<NodeId, ScanResult> = HashMap::new();
            for &cand in &needed {
                if deadline_at.is_some_and(|d| Instant::now() >= d) {
                    deadline_hit = true;
                    break;
                }
                let res = call_with_retry(
                    rt,
                    cand,
                    replica_req_bytes,
                    &opts.retry,
                    deadline_at,
                    &mut retries,
                    || {
                        let rq = replica_req.clone();
                        move |ctx: &NodeCtx| replica_scan_body(ctx, &rq)
                    },
                );
                if let Ok(Ok(r)) = res {
                    failovers += 1;
                    dist_obs().failovers.inc();
                    replica_scans.insert(cand, r);
                } // otherwise the candidate is unusable; coverage decides below
            }
            let mut seen: HashSet<DocId> = merged
                .documents
                .iter()
                .map(|d| d.id())
                .chain(merged.ids.iter().copied())
                .collect();
            for (&node, parts) in &failed_parts {
                let cands: Vec<NodeId> = policy
                    .candidates_for(node)
                    .iter()
                    .copied()
                    .filter(|c| !failed_set.contains(c))
                    .collect();
                let recovered =
                    !cands.is_empty() && cands.iter().all(|c| replica_scans.contains_key(c));
                if recovered {
                    for c in &cands {
                        if let Some(r) = replica_scans.get(c) {
                            merge_owned(&mut merged, &mut seen, r, policy, node);
                        }
                    }
                    failed_over += parts.len();
                } else {
                    for &p in parts {
                        skipped.push((node, p));
                    }
                }
            }
        } else {
            for (&node, parts) in &failed_parts {
                for &p in parts {
                    skipped.push((node, p));
                }
            }
        }
    }
    skipped.extend(deadline_skipped);
    skipped.sort_unstable();

    let degraded = !skipped.is_empty();
    if degraded && !opts.degraded_ok {
        return Err(match first_error {
            Some(e) => e,
            None => ClusterError::Timeout,
        });
    }
    if deadline_hit {
        dist_obs().deadline_exceeded.inc();
    }
    if degraded {
        dist_obs().degraded_queries.inc();
    }
    if let Some(limit) = request.limit {
        merged.documents.truncate(limit);
        merged
            .ids
            .truncate(limit.saturating_sub(merged.documents.len()));
    }
    Ok(ResilientScan {
        result: merged,
        stats,
        coverage: CoverageReport {
            partitions_total,
            partitions_scanned: scanned,
            partitions_failed_over: failed_over,
            skipped,
        },
        degraded,
        retries,
        failovers,
    })
}

/// Merge the documents of `from` that belong to failed node `owner` into
/// `merged`, skipping anything already present (exactly-once under
/// replication and partial primary results).
fn merge_owned(
    merged: &mut ScanResult,
    seen: &mut HashSet<DocId>,
    from: &ScanResult,
    policy: &FailoverPolicy,
    owner: NodeId,
) {
    for d in &from.documents {
        let id = d.id();
        if policy.owns(id, owner) && seen.insert(id) {
            merged.metrics.docs_matched += 1;
            merged.documents.push(d.clone());
        }
    }
    for &id in &from.ids {
        if policy.owns(id, owner) && seen.insert(id) {
            merged.metrics.docs_matched += 1;
            merged.ids.push(id);
        }
    }
}

/// Fan a push-down scan out to every data node and merge the partials.
/// Each (node, partition) pair runs as an independent morsel streaming
/// `batch_size`-document pages; every page's payload is charged to the
/// network as it ships (reply envelopes are charged by the runtime).
/// When the request carries a limit, each morsel stops at the limit and
/// the merged result is truncated to it.
///
/// Resilience defaults: transient losses retry per
/// [`RetryPolicy::default`], and a node that dies mid-scan fails over to
/// the ring replica placement of [`dist_put_replicated`]. There is no
/// deadline and degraded results are not allowed — uncovered partitions
/// surface as an error. Use [`dist_scan_resilient`] for full control.
pub fn dist_scan_batched(
    rt: &ClusterRuntime,
    request: &ScanRequest,
    batch_size: usize,
) -> Result<(ScanResult, DistScanStats), ClusterError> {
    let opts = ExecutionContext {
        batch_size,
        failover: Some(FailoverPolicy::ring(&rt.nodes_of_kind(NodeKind::Data))),
        ..ExecutionContext::default()
    };
    let scan = dist_scan_resilient(rt, request, &opts)?;
    Ok((scan.result, scan.stats))
}

/// Fan a push-down scan out to every data node and merge the partials
/// (batch-granular under the hood; see [`dist_scan_batched`]).
pub fn dist_scan(rt: &ClusterRuntime, request: &ScanRequest) -> Result<ScanResult, ClusterError> {
    dist_scan_batched(rt, request, DEFAULT_BATCH_SIZE).map(|(r, _)| r)
}

/// Distributed grouped aggregation: partial aggregation happens inside
/// each data node's scan (push-down), the partial group states ship to a
/// grid node for the global merge. Returns (group → state).
pub fn dist_aggregate(
    rt: &ClusterRuntime,
    request: &ScanRequest,
) -> Result<std::collections::BTreeMap<String, AggValue>, ClusterError> {
    assert!(
        request.aggregate.is_some(),
        "dist_aggregate needs an aggregate spec"
    );
    let partial = dist_scan(rt, request)?;
    // ship group states to a grid node for the (here trivial) global phase
    let groups = partial.groups;
    let payload = groups.len() as u64 * 48;
    let handle = rt.submit_to_kind(NodeKind::Grid, payload, move |_ctx| groups)?;
    handle.join()
}

/// Distributed equi-join: scan both sides on the data nodes (with
/// push-down predicates in the requests), ship the reduced sides to one
/// grid node, hash-join there. Returns joined tuples.
pub fn dist_join(
    rt: &ClusterRuntime,
    left_request: &ScanRequest,
    right_request: &ScanRequest,
    left_alias: &str,
    right_alias: &str,
    left_key: (String, String),
    right_key: (String, String),
) -> Result<Vec<Tuple>, ClusterError> {
    let left = dist_scan(rt, left_request)?;
    let right = dist_scan(rt, right_request)?;
    let payload = left.metrics.bytes_returned + right.metrics.bytes_returned;
    let la = left_alias.to_string();
    let ra = right_alias.to_string();
    let handle = rt.submit_to_kind(NodeKind::Grid, payload, move |_ctx| {
        let side = |docs: Vec<Document>, alias: &str| {
            let tuples = docs
                .into_iter()
                .map(|d| Tuple::single(alias, Arc::new(d)))
                .collect();
            Box::new(VecSource::tuples("scan", tuples, DEFAULT_BATCH_SIZE))
        };
        let mut join = HashJoinOp::new(
            side(left.documents, &la),
            side(right.documents, &ra),
            left_key,
            right_key,
        );
        collect_tuples(&mut join)
    })?;
    // a failed grid stage is a lost task, never a silently empty join
    handle.join()?.map_err(|_| ClusterError::TaskLost)
}

/// Ingest a document into the cluster: route to the owning data node and
/// store it there. Returns the encoded size. Transient message loss is
/// retried (idempotent: storage keeps versions and scans read the
/// latest).
pub fn dist_put(rt: &ClusterRuntime, doc: &Document) -> Result<usize, ClusterError> {
    let data_nodes = rt.nodes_of_kind(NodeKind::Data);
    if data_nodes.is_empty() {
        return Err(ClusterError::NoNodeOfKind("data"));
    }
    let target = data_nodes[route_doc(doc.id(), data_nodes.len())];
    let encoded = codec::encode_document_vec(doc);
    let size = encoded.len();
    let policy = RetryPolicy::default();
    let mut retries = 0u64;
    let doc = doc.clone();
    let stored = call_with_retry(rt, target, size as u64, &policy, None, &mut retries, || {
        let doc = doc.clone();
        move |ctx: &NodeCtx| {
            let Some(state) = ctx.state.downcast_ref::<DataNodeState>() else {
                return false;
            };
            state.storage.put(&doc).is_ok()
        }
    })?;
    if stored {
        Ok(size)
    } else {
        Err(ClusterError::TaskLost)
    }
}

/// Ingest a document with `replication`-way redundancy at the dist
/// layer: the primary copy goes to the routed owner (the only copy
/// queries scan); `replication − 1` further copies go to the owner's
/// ring successors' `replica` stores, where [`FailoverPolicy::ring`]
/// failover finds them if the owner dies.
pub fn dist_put_replicated(
    rt: &ClusterRuntime,
    doc: &Document,
    replication: usize,
) -> Result<usize, ClusterError> {
    let size = dist_put(rt, doc)?;
    let data_nodes = rt.nodes_of_kind(NodeKind::Data);
    let n = data_nodes.len();
    let owner = route_doc(doc.id(), n);
    let policy = RetryPolicy::default();
    let mut retries = 0u64;
    for k in 1..replication.min(n) {
        let target = data_nodes[(owner + k) % n];
        let doc = doc.clone();
        let stored = call_with_retry(rt, target, size as u64, &policy, None, &mut retries, || {
            let doc = doc.clone();
            move |ctx: &NodeCtx| {
                let Some(state) = ctx.state.downcast_ref::<DataNodeState>() else {
                    return false;
                };
                state.replica.put(&doc).is_ok()
            }
        })?;
        if !stored {
            return Err(ClusterError::TaskLost);
        }
    }
    Ok(size)
}

/// Scatter-gather keyword search: every data node searches its local
/// index shard, the coordinator merges partial top-k lists by score.
/// Scores use shard-local document frequencies (the standard sharded
/// approximation); ties break by ascending id for determinism.
pub fn dist_search(
    rt: &ClusterRuntime,
    query: &str,
    k: usize,
) -> Result<Vec<SearchHit>, ClusterError> {
    let data_nodes = rt.nodes_of_kind(NodeKind::Data);
    if data_nodes.is_empty() {
        return Err(ClusterError::NoNodeOfKind("data"));
    }
    let policy = RetryPolicy::default();
    let mut retries = 0u64;
    let mut merged: Vec<SearchHit> = Vec::new();
    for id in data_nodes {
        let q = query.to_string();
        let mut hits =
            call_with_retry(rt, id, q.len() as u64, &policy, None, &mut retries, || {
                let q = q.clone();
                move |ctx: &NodeCtx| {
                    let Some(state) = ctx.state.downcast_ref::<DataNodeState>() else {
                        return Vec::new(); // misconfigured node contributes no hits
                    };
                    let hits =
                        impliance_index::search::search(&state.text_index, &SearchQuery::new(q, k));
                    // each hit envelope ≈ 16 bytes on the wire
                    ctx.network.transmit(
                        ctx.id,
                        impliance_cluster::NodeId(u32::MAX),
                        (hits.len() * 16) as u64,
                    );
                    hits
                }
            })?;
        merged.append(&mut hits);
    }
    merged.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    merged.truncate(k);
    Ok(merged)
}

/// Fetch the latest version of a document from its owning data node.
pub fn dist_get(rt: &ClusterRuntime, id: DocId) -> Result<Option<Document>, ClusterError> {
    let data_nodes = rt.nodes_of_kind(NodeKind::Data);
    if data_nodes.is_empty() {
        return Err(ClusterError::NoNodeOfKind("data"));
    }
    let target = data_nodes[route_doc(id, data_nodes.len())];
    let policy = RetryPolicy::default();
    let mut retries = 0u64;
    call_with_retry(rt, target, 16, &policy, None, &mut retries, || {
        move |ctx: &NodeCtx| {
            let state = ctx.state.downcast_ref::<DataNodeState>()?;
            state.storage.get_latest(id).ok().flatten()
        }
    })
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use impliance_cluster::{Network, NodeSpec};
    use impliance_docmodel::{DocumentBuilder, SourceFormat, Value};
    use impliance_storage::{AggFunc, AggSpec, Predicate, StorageOptions};

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
            NodeKind::Data => Arc::new(DataNodeState::new(Arc::new(StorageEngine::new(
                StorageOptions {
                    partitions: 2,
                    seal_threshold: 64,
                    compression: true,
                    encryption_key: None,
                },
            )))),
            _ => Arc::new(()),
        })
    }

    fn load(rt: &ClusterRuntime, n: u64) {
        for i in 0..n {
            let d = DocumentBuilder::new(DocId(i), SourceFormat::Json, "orders")
                .field("amount", (i % 100) as i64)
                .field("cust", format!("C-{}", i % 10))
                .build();
            dist_put(rt, &d).unwrap();
        }
    }

    fn load_replicated(rt: &ClusterRuntime, n: u64) {
        for i in 0..n {
            let d = DocumentBuilder::new(DocId(i), SourceFormat::Json, "orders")
                .field("amount", (i % 100) as i64)
                .field("cust", format!("C-{}", i % 10))
                .build();
            dist_put_replicated(rt, &d, 2).unwrap();
        }
    }

    fn sorted_ids(res: &ScanResult) -> Vec<u64> {
        let mut ids: Vec<u64> = res.documents.iter().map(|d| d.id().0).collect();
        ids.extend(res.ids.iter().map(|i| i.0));
        ids.sort_unstable();
        ids
    }

    #[test]
    fn put_and_get_route_consistently() {
        let rt = boot(4, 2);
        load(&rt, 50);
        for i in [0u64, 13, 49] {
            let d = dist_get(&rt, DocId(i)).unwrap().unwrap();
            assert_eq!(d.id(), DocId(i));
        }
        assert!(dist_get(&rt, DocId(999)).unwrap().is_none());
    }

    #[test]
    fn dist_scan_sees_every_document_once() {
        let rt = boot(3, 1);
        load(&rt, 100);
        let res = dist_scan(&rt, &ScanRequest::full()).unwrap();
        assert_eq!(res.documents.len(), 100);
        let mut ids: Vec<u64> = res.documents.iter().map(|d| d.id().0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 100);
    }

    #[test]
    fn dist_scan_pushdown_reduces_network_bytes() {
        let rt = boot(2, 1);
        load(&rt, 200);
        rt.network().reset_metrics();
        let filtered = dist_scan(
            &rt,
            &ScanRequest::filtered(Predicate::Ge("amount".into(), Value::Int(95))),
        )
        .unwrap();
        let filtered_bytes = rt.network().metrics().bytes;
        rt.network().reset_metrics();
        let full = dist_scan(&rt, &ScanRequest::full()).unwrap();
        let full_bytes = rt.network().metrics().bytes;
        assert_eq!(filtered.documents.len(), 10);
        assert_eq!(full.documents.len(), 200);
        assert!(
            filtered_bytes * 2 < full_bytes,
            "pushdown scan moved {filtered_bytes}, full scan {full_bytes}"
        );
    }

    #[test]
    fn dist_aggregate_matches_local_answer() {
        let rt = boot(3, 2);
        load(&rt, 100);
        let req = ScanRequest {
            predicate: None,
            projection: impliance_storage::Projection::All,
            aggregate: Some(AggSpec {
                group_by: Some("cust".into()),
                func: AggFunc::Sum,
                operand: Some("amount".into()),
            }),
            limit: None,
            snapshot: None,
        };
        let groups = dist_aggregate(&rt, &req).unwrap();
        assert_eq!(groups.len(), 10);
        // sum over all groups must equal sum of 0..100 of (i%100) = 4950
        let total: f64 = groups.values().map(|v| v.sum).sum();
        assert_eq!(total, 4950.0);
    }

    #[test]
    fn dist_join_produces_matches() {
        let rt = boot(2, 2);
        // orders
        load(&rt, 30);
        // customers
        for i in 0..10u64 {
            let d = DocumentBuilder::new(DocId(1000 + i), SourceFormat::Json, "customers")
                .field("code", format!("C-{i}"))
                .field("name", format!("Customer {i}"))
                .build();
            dist_put(&rt, &d).unwrap();
        }
        let left = ScanRequest::filtered(Predicate::CollectionIs("orders".into()));
        let right = ScanRequest::filtered(Predicate::CollectionIs("customers".into()));
        let tuples = dist_join(
            &rt,
            &left,
            &right,
            "o",
            "c",
            ("o".to_string(), "cust".to_string()),
            ("c".to_string(), "code".to_string()),
        )
        .unwrap();
        assert_eq!(tuples.len(), 30, "every order has exactly one customer");
        for t in &tuples {
            assert_eq!(t.key("o", "cust"), t.key("c", "code"));
        }
    }

    #[test]
    fn batched_scan_runs_partition_morsels_in_parallel() {
        let rt = boot(2, 1);
        load(&rt, 100);
        let (res, stats) = dist_scan_batched(&rt, &ScanRequest::full(), 8).unwrap();
        assert_eq!(res.documents.len(), 100);
        // one morsel per (node × partition): 2 nodes × 2 partitions
        assert_eq!(stats.morsels, 4);
        assert!(stats.batches >= stats.morsels as u64);
        assert!(
            stats.critical_path_batches < stats.batches,
            "critical path {} should be shorter than the total {} — morsels overlap",
            stats.critical_path_batches,
            stats.batches
        );
        assert!(stats.bytes_shipped > 0);
    }

    #[test]
    fn batched_scan_limit_ships_fewer_bytes() {
        let rt = boot(2, 1);
        load(&rt, 200);
        rt.network().reset_metrics();
        let full = dist_scan_batched(&rt, &ScanRequest::full(), 16).unwrap();
        let full_bytes = rt.network().metrics().bytes;
        rt.network().reset_metrics();
        let limited_req = ScanRequest {
            limit: Some(5),
            ..ScanRequest::full()
        };
        let (limited, lstats) = dist_scan_batched(&rt, &limited_req, 16).unwrap();
        let limited_bytes = rt.network().metrics().bytes;
        assert_eq!(limited.documents.len(), 5);
        assert!(
            limited_bytes < full_bytes,
            "limit 5 moved {limited_bytes} bytes, full scan {full_bytes}"
        );
        // each morsel stopped after at most one page of 16
        assert!(lstats.batches <= full.1.batches);
    }

    #[test]
    fn scan_fails_without_data_nodes() {
        let specs = vec![NodeSpec::new(1, NodeKind::Grid)];
        let rt = ClusterRuntime::boot(&specs, Arc::new(Network::new()), |_| Arc::new(()));
        assert!(matches!(
            dist_scan(&rt, &ScanRequest::full()),
            Err(ClusterError::NoNodeOfKind("data"))
        ));
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff_us: 100,
            max_backoff_us: 1_000,
            seed: 42,
        };
        for attempt in 1..5u32 {
            let a = p.backoff_us(attempt, 7);
            let b = p.backoff_us(attempt, 7);
            assert_eq!(a, b, "same inputs, same backoff");
            let cap = (100u64 << (attempt - 1)).min(1_000);
            assert!(
                a >= cap / 2 && a <= cap,
                "attempt {attempt}: {a} in [{}..{cap}]",
                cap / 2
            );
        }
        assert_ne!(
            p.backoff_us(1, 7),
            p.backoff_us(1, 8),
            "different salts spread out"
        );
    }

    #[test]
    fn ring_policy_owns_and_candidates() {
        let nodes = vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let policy = FailoverPolicy::ring(&nodes);
        assert_eq!(
            policy.candidates_for(NodeId(1)),
            &[NodeId(2), NodeId(3), NodeId(0)]
        );
        for id in 0..50u64 {
            let owner = nodes[route_doc(DocId(id), nodes.len())];
            for &n in &nodes {
                assert_eq!(policy.owns(DocId(id), n), n == owner);
            }
        }
    }

    #[test]
    fn replicated_put_places_copies_on_ring_successor() {
        let rt = boot(3, 1);
        load_replicated(&rt, 30);
        // Every node's replica store holds its predecessor's documents.
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
        let res = dist_scan(&rt, &ScanRequest::full()).unwrap();
        assert_eq!(sorted_ids(&res), (0..30).collect::<Vec<u64>>());
    }

    #[test]
    fn resilient_scan_fault_free_reports_complete_coverage() {
        let rt = boot(2, 1);
        load(&rt, 60);
        let scan =
            dist_scan_resilient(&rt, &ScanRequest::full(), &ExecutionContext::default()).unwrap();
        assert!(!scan.degraded);
        assert!(scan.coverage.is_complete());
        assert_eq!(scan.coverage.partitions_total, 4);
        assert_eq!(scan.coverage.partitions_scanned, 4);
        assert_eq!(scan.coverage.partitions_failed_over, 0);
        assert_eq!(scan.retries, 0);
        assert_eq!(scan.failovers, 0);
        assert_eq!(sorted_ids(&scan.result), (0..60).collect::<Vec<u64>>());
    }

    #[test]
    fn retry_survives_transient_request_drops() {
        use impliance_cluster::FaultSchedule;
        let rt = boot(2, 1);
        load(&rt, 80);
        let baseline = {
            let r = dist_scan(&rt, &ScanRequest::full()).unwrap();
            sorted_ids(&r)
        };
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
        let scan = dist_scan_resilient(&rt, &ScanRequest::full(), &opts).unwrap();
        rt.network().clear_faults();
        assert!(!scan.degraded);
        assert!(scan.retries > 0, "drops must have forced retries");
        assert_eq!(sorted_ids(&scan.result), baseline);
    }

    #[test]
    fn dead_node_fails_over_to_replicas_exactly_once() {
        use impliance_cluster::FaultSchedule;
        let rt = boot(4, 1);
        load_replicated(&rt, 120);
        let baseline = {
            let r = dist_scan(&rt, &ScanRequest::full()).unwrap();
            sorted_ids(&r)
        };
        let victim = rt.nodes_of_kind(NodeKind::Data)[1];
        let policy = FailoverPolicy::ring(&rt.nodes_of_kind(NodeKind::Data));
        let sched = Arc::new(FaultSchedule::new(7));
        // Die mid-scan: probes alone take 8 messages and the victim's two
        // morsels need several 4-document pages each, so at message 10 the
        // victim cannot have shipped everything yet.
        sched.kill_after(victim, 10);
        rt.network().install_faults(sched);
        let opts = ExecutionContext {
            batch_size: 4,
            failover: Some(policy),
            ..ExecutionContext::default()
        };
        let scan = dist_scan_resilient(&rt, &ScanRequest::full(), &opts).unwrap();
        rt.network().clear_faults();
        assert_eq!(sorted_ids(&scan.result), baseline, "row set preserved");
        assert!(!scan.degraded);
        assert!(scan.failovers > 0, "replicas must have been consulted");
        assert!(scan.coverage.partitions_failed_over > 0);
        assert!(scan.coverage.is_complete());
    }

    #[test]
    fn dead_node_without_failover_errors() {
        use impliance_cluster::FaultSchedule;
        let rt = boot(3, 1);
        load(&rt, 60);
        let victim = rt.nodes_of_kind(NodeKind::Data)[0];
        let sched = Arc::new(FaultSchedule::new(3));
        sched.kill_after(victim, 5);
        rt.network().install_faults(sched);
        let opts = ExecutionContext {
            failover: None,
            ..ExecutionContext::default()
        };
        let err = dist_scan_resilient(&rt, &ScanRequest::full(), &opts).unwrap_err();
        rt.network().clear_faults();
        assert!(
            matches!(err, ClusterError::NodeDown(_) | ClusterError::TaskLost),
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
        let scan = dist_scan_resilient(&rt, &ScanRequest::full(), &opts).unwrap();
        assert!(scan.degraded);
        assert_eq!(scan.result.documents.len(), 0);
        assert_eq!(scan.coverage.partitions_scanned, 0);
        assert_eq!(
            scan.coverage.partitions_total,
            scan.coverage.partitions_skipped()
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
            dist_scan_resilient(&rt, &ScanRequest::full(), &opts),
            Err(ClusterError::Timeout)
        ));
    }

    #[test]
    fn aggregate_requests_do_not_fail_over() {
        use impliance_cluster::FaultSchedule;
        let rt = boot(3, 1);
        load_replicated(&rt, 60);
        let victim = rt.nodes_of_kind(NodeKind::Data)[0];
        let sched = Arc::new(FaultSchedule::new(5));
        sched.kill_after(victim, 5);
        rt.network().install_faults(sched);
        let req = ScanRequest {
            aggregate: Some(AggSpec {
                group_by: None,
                func: AggFunc::Count,
                operand: None,
            }),
            ..ScanRequest::full()
        };
        let opts = ExecutionContext {
            failover: Some(FailoverPolicy::ring(&rt.nodes_of_kind(NodeKind::Data))),
            degraded_ok: true,
            ..ExecutionContext::default()
        };
        let scan = dist_scan_resilient(&rt, &req, &opts).unwrap();
        rt.network().clear_faults();
        assert!(scan.degraded, "aggregates cannot fail over: degraded");
        assert_eq!(scan.failovers, 0);
        assert!(scan.coverage.partitions_skipped() > 0);
    }
}

#[cfg(test)]
mod search_tests {
    use super::*;
    use impliance_cluster::{Network, NodeSpec};
    use impliance_docmodel::{DocumentBuilder, SourceFormat};
    use impliance_storage::StorageOptions;

    fn boot(data_nodes: u32) -> ClusterRuntime {
        let mut specs: Vec<NodeSpec> = (0..data_nodes)
            .map(|i| NodeSpec::new(i, NodeKind::Data))
            .collect();
        specs.push(NodeSpec::new(100, NodeKind::Grid));
        ClusterRuntime::boot(&specs, Arc::new(Network::new()), |spec| match spec.kind {
            NodeKind::Data => Arc::new(DataNodeState::new(Arc::new(StorageEngine::new(
                StorageOptions {
                    partitions: 2,
                    seal_threshold: 64,
                    compression: true,
                    encryption_key: None,
                },
            )))),
            _ => Arc::new(()),
        })
    }

    fn put_and_index(rt: &ClusterRuntime, id: u64, text: &str) {
        let d = DocumentBuilder::new(DocId(id), SourceFormat::Text, "t")
            .field("body", text)
            .build();
        let n = rt.nodes_of_kind(NodeKind::Data);
        let target = n[route_doc(d.id(), n.len())];
        let doc = d.clone();
        let submitted = rt.submit_to(target, 0, move |ctx| {
            let state = ctx.state.downcast_ref::<DataNodeState>().unwrap();
            state.storage.put(&doc).unwrap();
            state.text_index.index_document(&doc);
        });
        let Ok(handle) = submitted else {
            panic!("submit put_and_index");
        };
        handle.join().unwrap();
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
        let hits = dist_search(&rt, "zanzibar", 100).unwrap();
        assert_eq!(hits.len(), 8);
        // ids spread over nodes: the shards each contributed
        let mut ids: Vec<u64> = hits.iter().map(|h| h.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 5, 10, 15, 20, 25, 30, 35]);
    }

    #[test]
    fn sharded_search_truncates_to_k_by_score() {
        let rt = boot(3);
        for i in 0..30 {
            put_and_index(&rt, i, "needle in text");
        }
        let hits = dist_search(&rt, "needle", 5).unwrap();
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn search_without_data_nodes_errors() {
        let specs = vec![NodeSpec::new(1, NodeKind::Grid)];
        let rt = ClusterRuntime::boot(&specs, Arc::new(Network::new()), |_| Arc::new(()));
        assert!(dist_search(&rt, "x", 5).is_err());
    }
}
