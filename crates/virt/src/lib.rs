//! # Impliance workload management
//!
//! §3.4's execution management, first half: [`workload`] is multi-tenant
//! admission control — per-tenant token buckets and a deadline-aware
//! concurrency policy, so 2x offered load degrades a predictable subset
//! instead of everything at once. Where a document lives is
//! `impliance_query::placement`'s answer, and rolling upgrades are
//! `impliance_cluster::upgrade`'s.
//!
//! §3.4's other half of execution management, "properly interleaving
//! [long-running] analysis tasks with the execution of queries with more
//! stringent response-time requirements", has no scheduler of its own:
//! the appliance's background stages yield to in-flight `High` queries
//! between records (`impliance_query::preempt::yield_to_high`, consulted
//! by `Impliance::maintain`), and queries pass through the admission
//! above. Experiment C9 measures that interleaving on a booted appliance.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod workload;

pub use workload::{
    Admission, Permit, Shed, ShedReason, TenantId, TenantQuota, WorkloadConfig, WorkloadManager,
    WorkloadStats,
};
