//! # Impliance storage engine (data-node substrate)
//!
//! The paper's data nodes "have direct ownership of a subset of the
//! persistent storage" (§3.3) and run the push-down logic "in the software
//! component of a storage unit" (§3.1). This crate is that storage unit:
//!
//! * [`codec`] — deterministic binary encoding of documents (the on-disk
//!   format).
//! * [`columnar`] — typed column vectors ([`ColumnPage`]) decoded straight
//!   from segments, with validity bitmasks, page-level string dictionaries,
//!   and exact vectorized predicate masks.
//! * [`compress`] — LZ-style block compression of sealed segments,
//!   applied inside the storage node per §3.1's "pushing down logic …
//!   compression".
//! * [`crypt`] — segment encryption (XTEA-CTR, simulation-grade) applied
//!   after compression, the paper's second push-down example: plaintext
//!   never leaves the storage node.
//! * [`segment`] / [`memtable`] / [`partition`] — an append-only,
//!   immutable-segment layout: documents are never updated in place (§4);
//!   a new version is appended and the latest-version map is advanced.
//!   A put encodes the document and links it into its chain, nothing
//!   more: the simple planner keeps no statistics (§3.3), so the only
//!   per-path summary is each sealed segment's [`ZoneMap`], built once at
//!   seal for pruning.
//! * [`pushdown`] — the scan request (predicate, projection, visibility)
//!   evaluated *at* the storage node for early data reduction, with
//!   byte-level metrics so experiment C2 can show how much data movement
//!   push-down saves.
//! * [`epoch`] — monotonic commit epochs, ref-counted snapshot pins
//!   (readers pin an epoch so concurrent ingest never tears a query's
//!   view), and the change feed with the one checkpointed consumer loop
//!   ([`FeedConsumer::drain`]) every background worker is a stage of.
//! * [`engine`] — the [`StorageEngine`] facade combining hash-partitioned
//!   storage with version-chain reads; every bulk read is one paged
//!   [`Cursor`] over a range of partitions.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod codec;
pub mod columnar;
pub mod compress;
pub mod crypt;
pub mod engine;
pub mod epoch;
pub mod error;
pub mod memtable;
pub mod partition;
pub mod pushdown;
pub mod segment;

pub use columnar::{Bitmask, Column, ColumnPage, ColumnPageBuilder, ColumnVec};
pub use engine::{Cursor, StorageEngine, StorageOptions};
pub use epoch::{
    ChangeFeed, ChangeRecord, ConsumerObs, CrashPoints, EpochRegistry, FeedConsumer, KillPoint,
    Killed, NoFaults, Snapshot, WorkerFaults,
};
pub use error::StorageError;
pub use partition::{ScanPos, Visible};
pub use pushdown::{
    AggFunc, AggValue, Predicate, Projection, ScanMetrics, ScanRequest, ScanResult,
};
pub use segment::{PathZone, ZoneMap};
