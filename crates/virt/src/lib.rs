//! # Impliance compute and storage resource virtualization
//!
//! §3.4: "Impliance will virtualize this diverse set of compute and
//! storage resources by introducing the notion of a resource group: a
//! group of tightly-coupled nodes … that can be assigned the role of
//! cluster, grid, or data storage service … we organize and manage these
//! resource groups in a hierarchical fashion."
//!
//! * [`ring`] — consistent-hash placement of documents/replicas onto data
//!   nodes, so adding or removing a node moves only its share of data.
//! * [`upgrade`] — §3.1's rolling software upgrades: availability-aware
//!   batch planning so the appliance keeps serving while nodes restart.
//! * [`storagemgr`] — storage management: per-class replication policy
//!   (user data vs. derived data vs. regulatory data), placement, and
//!   autonomous re-replication after node loss (experiment C5).
//! * [`workload`] — multi-tenant admission control: per-tenant token
//!   buckets and a deadline-aware concurrency policy, so 2x offered load
//!   degrades a predictable subset instead of everything at once.
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

pub mod ring;
pub mod storagemgr;
pub mod upgrade;
pub mod workload;

pub use ring::HashRing;
pub use storagemgr::{DataClass, ReplicationReport, StorageManager, StoragePolicy};
pub use upgrade::{plan_rolling_upgrade, validate_plan, UpgradeError, UpgradePlan, UpgradePolicy};
pub use workload::{
    Admission, Permit, Shed, ShedReason, TenantId, TenantQuota, WorkloadConfig, WorkloadManager,
    WorkloadStats,
};
