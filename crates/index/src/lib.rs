//! # Impliance indexing subsystem
//!
//! §3.2: "Impliance automatically indexes each document by its values as
//! well as its structures (e.g., every path in the document) for efficient
//! keyword and structural search. Unlike traditional database systems,
//! this indexing need not take place as part of the same transaction that
//! infused that document initially."
//!
//! The paper proposes embedding Lucene/Indri but notes three required
//! extensions — hierarchy-native indexing, structured payloads for faceted
//! search, and incremental maintenance. This crate builds those properties
//! in from the start:
//!
//! * [`mod@tokenize`] — analyzer producing lowercase word tokens with
//!   positions.
//! * [`postings`] — delta-varint-compressed positional postings lists.
//! * [`inverted`] — the full-text index: an in-memory delta absorbing new
//!   documents plus immutable merged runs (LSM-style), so maintenance is
//!   incremental and never blocks ingestion. Tokens are recorded *per
//!   structural path*, making the index hierarchy-aware.
//! * [`pathindex`] — structural and value indexes: every path, and every
//!   (path, value) pair, point to the documents containing them; ordered
//!   so range predicates use them too.
//! * [`joinindex`] — discovered relationships stored as join indexes
//!   "utilized at query time" (§3.2).
//! * [`search`] — BM25 top-k evaluation with AND/OR semantics and
//!   per-path restriction.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod inverted;
pub mod joinindex;
pub mod pathindex;
pub mod postings;
pub mod search;
pub mod tokenize;

pub use inverted::{DocOrdinal, InvertedIndex};
pub use joinindex::JoinIndex;
pub use pathindex::PathValueIndex;
pub use search::{search_phrase, search_topk, SearchHit, SearchMode, SearchQuery, TopKStats};
pub use tokenize::{tokenize, Token};
