//! # Impliance — the appliance itself
//!
//! The paper's primary contribution is the *combination* (§3): an
//! appliance that is operational out of the box, manages all data
//! uniformly, scales by simple massive parallelism, and virtualizes its
//! resources. This crate ties the substrates together:
//!
//! * [`config`] — the hardware manifest and the (deliberately tiny) set
//!   of behavioural switches, each defaulted so that
//!   `Impliance::boot(ApplianceConfig::default())` is a working system
//!   with **zero administrator decisions**.
//! * [`appliance`] — the single-box [`Impliance`]: ingest anything,
//!   query immediately (SQL, keyword, graph), background indexing and
//!   discovery enrich answers over time, versioned updates, faceted
//!   sessions, OLAP rollups.
//! * [`views`] — Figure 2's "system-supplied views that map the native
//!   data types back into relational rows": entity and sentiment
//!   annotations exposed as flat rows joinable with base data.
//! * [`audit`] — §4's security surface: collection-level access policy,
//!   an append-only audit log answering "which queries touched this
//!   document?", and lineage tracing over versions and annotations.
//! * [`cluster_app`] — the scaled-out [`ClusterImpliance`]: the same
//!   appliance surface over a simulated cluster of data/grid/cluster
//!   nodes, with consistent-hash placement, replicated storage, and
//!   autonomous failure recovery.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod appliance;
pub mod audit;
pub mod cluster_app;
pub mod config;
pub mod error;
mod ingest;
pub mod query_api;
pub mod views;

pub use appliance::{ApplianceError, Impliance};
pub use audit::{AccessPolicy, AuditLog, GuardedAppliance, Principal};
pub use cluster_app::ClusterImpliance;
pub use config::ApplianceConfig;
pub use error::{Error, ErrorKind};
pub use impliance_query::DistOutput;
pub use query_api::{
    AdmissionOutcome, ExecStats, FusionSpec, MatchClause, QueryRequest, QueryRequestBuilder,
    QueryResponse,
};
pub use views::ViewFreshness;

// Re-exported so appliance callers can express workload policy (quotas,
// priorities) without depending on the virt/query crates directly.
pub use impliance_query::Priority;
pub use impliance_virt::{TenantId, TenantQuota, WorkloadConfig, WorkloadStats};
