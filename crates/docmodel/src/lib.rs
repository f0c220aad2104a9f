//! # Impliance uniform document model
//!
//! The paper's first requirement (§3.2) is that *all* data — structured
//! rows, semi-structured documents, and unstructured text — be mapped into
//! one uniform model on ingestion, so that a single engine can store, index,
//! query, and annotate it.
//!
//! This crate provides that model:
//!
//! * [`Value`] — scalar leaf values (null, bool, int, float, string, bytes,
//!   timestamp).
//! * [`Node`] — a schema-free tree: a value, a sequence, or a map.
//! * [`Document`] — an immutable, versioned tree with provenance metadata.
//!   New versions are appended, never updated in place (§4).
//! * [`Path`] — dotted/indexed paths into a document; every path is
//!   enumerable so the structural index can index "every path in the
//!   document" as the paper requires.
//! * [`json`] — a from-scratch JSON parser and emitter (the appliance is
//!   self-contained; no external parsing dependencies).
//! * [`xml`] — a small non-validating XML reader mapping elements,
//!   attributes, and text into the same tree.
//! * [`convert`] — ingestion converters from relational rows, CSV,
//!   key-value pairs, plain text, and RFC-2822-ish e-mail into the model.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod convert;
pub mod document;
pub mod error;
pub mod json;
pub mod node;
pub mod path;
pub mod value;
pub mod xml;

pub use convert::{
    email_to_document, kv_to_document, relational_row_to_document, text_to_document, CsvReader,
    RelationalSchema,
};
pub use document::{DocId, Document, DocumentBuilder, SourceFormat, Version};
pub use error::DocError;
pub use node::Node;
pub use path::{Path, PathStep};
pub use value::Value;
