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
//! * [`resource`] — resource groups, the group hierarchy, and the broker
//!   that "facilitates the transfer of resources between groups" on
//!   failure or load imbalance.
//! * [`execmgr`] — execution management: "scheduling prioritized tasks,
//!   i.e., managing queues of long-running analysis tasks and properly
//!   interleaving these analysis tasks with the execution of queries with
//!   more stringent response-time requirements."
//! * [`upgrade`] — §3.1's rolling software upgrades: availability-aware
//!   batch planning so the appliance keeps serving while nodes restart.
//! * [`storagemgr`] — storage management: per-class replication policy
//!   (user data vs. derived data vs. regulatory data), placement, and
//!   autonomous re-replication after node loss (experiment C5).
//! * [`workload`] — multi-tenant workload management: per-tenant token
//!   buckets, bounded queues, priority dispatch, and deadline-aware load
//!   shedding, so 2x offered load degrades a predictable subset instead
//!   of everything at once.
//! * [`traffic`] — seeded open-loop workload generator and virtual-time
//!   simulator (thousands of clients, zipfian tenant skew) for overload
//!   experiments that burn no wall-clock.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod execmgr;
pub mod resource;
pub mod ring;
pub mod storagemgr;
pub mod traffic;
pub mod upgrade;
pub mod workload;

pub use execmgr::{ExecutionManager, TaskClass, TaskTicket};
pub use resource::{Broker, GroupId, GroupRole, ResourceGroup, ResourcePool};
pub use ring::HashRing;
pub use storagemgr::{DataClass, ReplicationReport, StorageManager, StoragePolicy};
pub use traffic::{class_index, class_of, ClassReport, TrafficReport, TrafficSpec};
pub use upgrade::{plan_rolling_upgrade, validate_plan, UpgradeError, UpgradePlan, UpgradePolicy};
pub use workload::{
    Admission, Permit, Shed, ShedReason, TenantId, TenantQuota, WorkloadConfig, WorkloadManager,
    WorkloadStats,
};
