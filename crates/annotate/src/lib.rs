//! # Impliance discovery and annotation engine
//!
//! §3.2: "All data entering into Impliance will also go through a number
//! of asynchronous analysis phases … additional metadata will be extracted
//! for each document by running different kinds of annotators. This will
//! identify not only entities such as person names and locations, but also
//! relationships among them."
//!
//! * [`scan`] — from-scratch text scanners for entity mentions (persons,
//!   organizations, locations, dates, money, phones, e-mails, product
//!   codes). The paper's annotators (UIMA/Avatar) are proprietary; these
//!   scanners exercise the same pipeline shape on synthetic corpora (see
//!   the substitution table in DESIGN.md).
//! * [`sentiment`] — lexicon-based sentiment detection with negation
//!   handling ("sentiment detection within a single document", §3.3).
//! * [`schema_map`] — schema mapping/consolidation across heterogeneous
//!   sources ("using schema mapping technologies, structures from
//!   different sources can be consolidated").
//! * [`resolve`] — entity resolution across documents (blocking +
//!   Jaro-Winkler similarity), emitting relationships for join indexes.
//! * [`annotator`] — the annotator abstraction and the built-in set.
//! * [`pipeline`] — the incremental background discovery worker: a stage
//!   of the storage change feed's consumer loop, so annotators run
//!   *after* ingestion, never blocking it (experiment C3 quantifies
//!   why), committing each document's annotation set atomically.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod annotator;
pub mod pipeline;
pub mod resolve;
pub mod scan;
pub mod schema_map;
pub mod sentiment;

pub use annotator::{Annotation, Annotator, EntityAnnotator, SentimentAnnotator};
// The crash-point vocabulary lives with the consumer loop in storage;
// re-exported here because fault schedules are written against discovery.
pub use impliance_storage::{KillPoint, NoFaults, WorkerFaults};
pub use pipeline::{DiscoveryPipeline, DiscoverySink, DiscoveryStats};
pub use resolve::{jaro_winkler, EntityResolver};
pub use scan::{scan_entities, EntityKind, EntityMention};
pub use schema_map::{SchemaMapper, UnifiedAttribute, UnifiedSchema};
pub use sentiment::{sentiment_score, SentimentLabel};
