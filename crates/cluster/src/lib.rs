//! # Impliance cluster substrate (simulated)
//!
//! §3.3 describes "a number of nodes, topologically differentiated into
//! three flavors … but each supporting the same execution environment":
//!
//! * **Data nodes** own a subset of the persistent storage;
//! * **Grid nodes** perform analytic computations in "work crews" and hold
//!   no long-term state;
//! * **Cluster nodes** make "consistent locking and caching decisions …
//!   within data consistency groups", paying heartbeat/membership
//!   overhead.
//!
//! The paper's hardware (racks of blades with a high-capacity
//! interconnect) is simulated: every node is an OS thread with a mailbox,
//! and all traffic flows through a [`network::Network`] that counts
//! messages and bytes, injects configurable latency, and can drop
//! messages for failure experiments. The *shape* of scale-out behaviour —
//! which node type a stage runs on and how many bytes cross the wire — is
//! thereby measurable on a single machine (see DESIGN.md, substitution
//! table).
//!
//! Modules:
//!
//! * [`node`] — node identities, kinds, and specs.
//! * [`network`] — the byte-accounting simulated interconnect.
//! * [`runtime`] — node threads, mailboxes, task submission, work crews.
//! * [`group`] — consistency groups: heartbeats, membership, primary
//!   election, and two-phase commit for consistent persistence.
//! * [`fault`] — seeded, deterministic fault schedules (kills, link
//!   drops, delays) for chaos experiments.
//! * [`upgrade`] — §3.1's rolling software upgrades: availability-aware
//!   batch planning so the appliance keeps serving while nodes restart.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod fault;
pub mod group;
pub mod network;
pub mod node;
pub mod runtime;
pub mod upgrade;

pub use fault::{FaultDecision, FaultSchedule};
pub use group::{CommitOutcome, ConsistencyGroup, GroupEvent};
pub use network::{Network, NetworkMetrics};
pub use node::{NodeId, NodeKind, NodeSpec};
pub use runtime::{ClusterError, ClusterRuntime, TaskHandle};
pub use upgrade::{plan_rolling_upgrade, validate_plan, UpgradeError, UpgradePlan, UpgradePolicy};
