//! The unified execution context.
//!
//! Before PR 5 the execution knobs were split across `ExecOptions`
//! (single-node: batch size, limit, deadline) and `DistExecOptions`
//! (distributed: retry, failover, degraded results) — two structs that
//! drifted apart and forced every caller to know which executor it was
//! talking to. [`ExecutionContext`] is the one bag of knobs both
//! executors read; `QueryRequest` builds it, and the fields an executor
//! does not use are simply ignored (the single-node path never retries).
//! [`RetryPolicy`] lives here with it; failover reads the cluster's
//! [`Placement`].

use std::sync::Arc;
use std::time::Duration;

use impliance_cluster::fault::splitmix64;

use crate::batch::DEFAULT_BATCH_SIZE;
use crate::placement::Placement;
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
    /// The placement the cluster's data was stored under: failover reads
    /// a failed node's documents back from the replica stores it names.
    /// `None` disables failover (a dead node fails or degrades the
    /// query). Distributed path only.
    pub failover: Option<Arc<Placement>>,
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
    fn parallelism_clamps_to_one() {
        assert_eq!(ExecutionContext::default().parallelism(0).worker_threads, 1);
        assert_eq!(ExecutionContext::default().parallelism(8).worker_threads, 8);
    }
}
