//! # Impliance query processing
//!
//! §3.3: "Instead of implementing a full-fledged cost-based optimizer as a
//! conventional database system does, we propose to build a simple planner
//! that allows only a few limited choices of the underlying physical
//! operators. Such a planner is desirable because it offers predictable
//! performance (as opposed to optimal performance) and obviates the need
//! for maintaining complex statistics."
//!
//! This crate is the simple side of that argument; the cost-based
//! optimizer it argues against lives with the other baselines
//! (`impliance_baselines::costopt`), so experiment C1 measures both:
//!
//! * [`plan`] — the logical algebra (scan, search, filter, project, join,
//!   group/aggregate, sort, limit, graph-connect).
//! * [`batch`] — the batched, pull-based operator pipeline ([`Batch`] /
//!   [`Operator`]), the one operator family every execution mode runs:
//!   row and vectorized scans over a partition range, streaming
//!   filter/project/limit, blocking sort and group/aggregate, and the
//!   two join algorithms a planner may choose (indexed nested-loop,
//!   hash).
//! * [`simple`] — the **simple planner**: a handful of fixed rules, no
//!   statistics, biased toward index use and top-k friendliness.
//! * [`adaptive`] — runtime adaptation (selectivity-ordered predicate
//!   chains, join side swapping), borrowing from the adaptive query
//!   processing literature the paper cites.
//! * [`sql`] — a mini-SQL surface ("Traditional structured query languages
//!   such as SQL … can be mapped to this new query interface").
//! * [`exec`] — the single-node executor: `compile`, the only lowering
//!   of a [`LogicalPlan`] to operators, and `drain`, the only pull loop.
//! * [`parallel`] — the exchange: splits a plan into root, merge shape
//!   and segment, compiles the segment once per morsel (a storage
//!   partition, or a chunk of scored hits) on a scoped worker pool, and
//!   merges per-morsel results in morsel order (exact, not approximate).
//! * [`dist`] — the distributed executor: the same split, with a morsel
//!   compiled and drained on the data node that owns it, the global merge
//!   on a grid node, updates via cluster nodes (Figure 3's example query
//!   flow); retry, replica failover and deadlines wrap morsels.
//! * [`context`] — the unified [`ExecutionContext`] carrying every
//!   execution knob (batch size, limit, deadline, worker threads, retry
//!   and failover policies) across the local, parallel, and distributed
//!   paths.
//! * [`clock`] — the injectable clocks: the backoff sleeper (retry
//!   pacing) and the [`clock::TimeSource`] logical clock that workload
//!   management reads, so tests and benchmarks never burn wall time.
//! * [`preempt`] — query [`Priority`] classes and the process-wide
//!   preemption gate low-priority morsel workers consult between claims.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod adaptive;
pub mod batch;
pub mod clock;
pub mod context;
pub mod dist;
pub mod exec;
pub mod parallel;
pub mod plan;
pub mod preempt;
pub mod searchapi;
pub mod simple;
pub mod sql;
pub mod tuple;

pub use batch::{Batch, Operator, DEFAULT_BATCH_SIZE};
pub use clock::{BackoffClock, ManualTime, RealClock, RealTime, TimeSource};
pub use context::{ExecutionContext, FailoverPolicy, RetryPolicy};
pub use dist::{CoverageReport, DistError, DistOutput};
pub use exec::{execute_plan, execute_plan_opts, ExecContext, ExecError, ExecMetrics, QueryOutput};
pub use plan::{AggItem, JoinAlgo, LogicalPlan, SortKey};
pub use preempt::{PreemptGuard, Priority};
pub use searchapi::{keyword_candidates, keyword_candidates_any};
pub use simple::SimplePlanner;
pub use sql::parse_sql;
pub use tuple::{Row, Tuple};
