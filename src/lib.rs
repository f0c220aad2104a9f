//! # Impliance — a next-generation information management appliance
//!
//! Umbrella crate re-exporting every subsystem of the Impliance
//! reproduction (CIDR 2007). See the README for the architecture overview
//! and `DESIGN.md` for the per-experiment index.
//!
//! The usual entry point is `core::Impliance` (re-exported at the root as
//! `Impliance`): boot an appliance from a hardware manifest, throw data
//! of any format at it, and query it immediately while background discovery
//! enriches it.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub use impliance_annotate as annotate;
pub use impliance_baselines as baselines;
pub use impliance_cluster as cluster;
pub use impliance_core as core;
pub use impliance_docmodel as docmodel;
pub use impliance_facet as facet;
pub use impliance_index as index;
pub use impliance_obs as obs;
pub use impliance_query as query;
pub use impliance_storage as storage;
pub use impliance_virt as virt;
