//! # Baseline information systems (the Figure 4 comparators)
//!
//! Figure 4 compares Impliance qualitatively against the incumbent system
//! classes along *scalability*, *TCO*, and *modeling/querying power*. To
//! turn that qualitative chart into experiment F4's measured matrix, this
//! crate implements the capability envelope of each class:
//!
//! * [`rdbms`] — `MiniRdbms`: schema-first tables, synchronous index
//!   maintenance, typed columns. Powerful structured queries, zero
//!   content awareness, and every schema/tuning decision is a human
//!   admin operation (the TCO proxy).
//! * [`content`] — `ContentStore`: BLOB content plus a predefined
//!   metadata catalog (the JSR-170-style content manager of §3.2);
//!   metadata-only search, "searching and querying are limited to the
//!   metadata".
//! * [`bi_appliance`] — `BiAppliance`: the Netezza/DATAllegro-class BI
//!   appliance of §5 — relational scale-out with low admin overhead but
//!   no content awareness and a mandatory schema.
//! * [`fsstore`] — `FsStore`: the "ultra-simple 'bag of bytes' model of
//!   file systems … a repository of last resort" — no schema, no admin,
//!   no query capability beyond a full-scan grep.
//! * [`admin`] — the [`admin::AdminLedger`], counting every human
//!   operation a system demands (schema design, index selection, knob
//!   setting). Impliance's ledger stays at ~zero; that difference *is*
//!   the paper's TCO argument, measured.
//! * [`capability`] — the twelve task classes of the F4 query-power axis
//!   and the [`capability::InfoSystem`] trait every system (including the
//!   appliance) implements.
//!
//! One more baseline is a planner rather than a system: [`costopt`] — the
//! [`CostOptimizer`], the conventional statistics-driven optimizer §3.3
//! argues against, with its own `ANALYZE` (per-path histograms and
//! distinct estimates built from documents read through the appliance).
//! Experiment C1 races it against the appliance's simple planner.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod admin;
pub mod bi_appliance;
pub mod capability;
pub mod content;
pub mod costopt;
pub mod fsstore;
pub mod rdbms;

pub use admin::AdminLedger;
pub use bi_appliance::BiAppliance;
pub use capability::{Capability, InfoSystem, ALL_CAPABILITIES};
pub use content::{ContentError, ContentStore};
pub use costopt::CostOptimizer;
pub use fsstore::FsStore;
pub use rdbms::{ColumnType, MiniRdbms, RdbmsError, TableSchema};
