//! The unified execution context.
//!
//! Before PR 5 the execution knobs were split across `ExecOptions`
//! (single-node: batch size, limit, deadline) and `DistExecOptions`
//! (distributed: retry, failover, degraded results) — two structs that
//! drifted apart and forced every caller to know which executor it was
//! talking to. [`ExecutionContext`] is the one bag of knobs both
//! executors read; `QueryRequest` builds it, and the fields an executor
//! does not use are simply ignored (the single-node path never retries).
//! The policy types it carries — [`RetryPolicy`], [`FailoverPolicy`] —
//! live here with it.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use impliance_cluster::fault::splitmix64;
use impliance_cluster::NodeId;
use impliance_docmodel::DocId;

use crate::batch::DEFAULT_BATCH_SIZE;
use crate::dist::route_doc;
use crate::preempt::Priority;

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
    /// replica placement of [`crate::dist::dist_put_replicated`]. Build it from the
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

/// Every knob a query execution can carry, for both the single-node
/// pipeline ([`crate::exec::execute_plan_opts`]) and the distributed
/// executor ([`crate::dist::execute`]).
#[derive(Debug, Clone)]
pub struct ExecutionContext {
    /// Tuples/rows per pipeline batch.
    pub batch_size: usize,
    /// Cap on output rows; enforced by a pipeline `Limit` so upstream
    /// operators terminate early.
    pub limit: Option<usize>,
    /// Wall-clock budget. When it expires the single-node drain stops
    /// between batches (`ExecMetrics::deadline_exceeded`), and the
    /// distributed executor abandons unresolved morsels; both return the
    /// rows produced so far as an honest partial answer.
    pub deadline: Option<Duration>,
    /// Worker threads for morsel-driven parallel execution (`1` =
    /// serial; see [`crate::parallel`]). The appliance defaults this to
    /// the machine's available cores via `ApplianceConfig`.
    pub worker_threads: usize,
    /// Retry policy for transient message loss (distributed path).
    pub retry: RetryPolicy,
    /// Replica failover policy; `None` disables failover (a dead node
    /// fails or degrades the query). Distributed path only.
    pub failover: Option<FailoverPolicy>,
    /// When coverage cannot be completed (dead node without usable
    /// replicas, exhausted deadline): return a degraded partial result
    /// with an honest `CoverageReport` instead of an error. Distributed
    /// path only.
    pub degraded_ok: bool,
    /// Scheduling class for this execution. `High` registers in the
    /// process-wide preemption gate ([`crate::preempt`]) so lower-class
    /// morsel workers yield their next claim; `Low` yields to any
    /// in-flight high-priority query. Purely a scheduling hint — results
    /// are identical at every priority.
    pub priority: Priority,
}

impl Default for ExecutionContext {
    fn default() -> ExecutionContext {
        ExecutionContext {
            batch_size: DEFAULT_BATCH_SIZE,
            limit: None,
            deadline: None,
            // Library-conservative: callers opt into parallelism. The
            // appliance plumbs `ApplianceConfig::worker_threads`
            // (default = available cores) through here.
            worker_threads: 1,
            retry: RetryPolicy::default(),
            failover: None,
            degraded_ok: false,
            priority: Priority::default(),
        }
    }
}

impl ExecutionContext {
    /// A context with everything default except the batch size.
    pub fn with_batch_size(batch_size: usize) -> ExecutionContext {
        ExecutionContext {
            batch_size: batch_size.max(1),
            ..ExecutionContext::default()
        }
    }

    /// Set the worker-thread count (clamped to ≥ 1), builder-style.
    pub fn parallelism(mut self, workers: usize) -> ExecutionContext {
        self.worker_threads = workers.max(1);
        self
    }

    /// Set the scheduling class, builder-style.
    pub fn with_priority(mut self, priority: Priority) -> ExecutionContext {
        self.priority = priority;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn default_is_serial_and_unbounded() {
        let ctx = ExecutionContext::default();
        assert_eq!(ctx.batch_size, DEFAULT_BATCH_SIZE);
        assert_eq!(ctx.worker_threads, 1);
        assert!(ctx.limit.is_none());
        assert!(ctx.deadline.is_none());
        assert!(ctx.failover.is_none());
        assert!(!ctx.degraded_ok);
        assert_eq!(ctx.priority, Priority::Normal);
    }

    #[test]
    fn priority_builder_sets_class() {
        let ctx = ExecutionContext::default().with_priority(Priority::High);
        assert_eq!(ctx.priority, Priority::High);
    }

    #[test]
    fn parallelism_clamps_to_one() {
        assert_eq!(ExecutionContext::default().parallelism(0).worker_threads, 1);
        assert_eq!(ExecutionContext::default().parallelism(8).worker_threads, 8);
    }
}
