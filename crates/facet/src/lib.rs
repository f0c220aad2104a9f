//! # Impliance faceted retrieval interface
//!
//! §3.2.1: "Multi-faceted search, or guided search … provides more
//! analytical functions such as drill-down and drill-across of the search
//! results, while at the same time masking schema complexity from the user
//! through interactive navigational links. We envision an interface for
//! Impliance that extends the concept of faceted search by incorporating
//! more sophisticated analytical capabilities than just counting entities
//! in one dimension … some flavor of joins and aggregates in traditional
//! relational terms."
//!
//! * [`facets`] — facet-dimension discovery (which structural paths make
//!   good facets) and counting over result sets, including numeric
//!   bucketing.
//! * [`session`] — the guided-search session: keyword query + facet
//!   constraints, drill-down, drill-across, and undo.
//! * [`olap`] — OLAP-style rollups over discovered hierarchies (calendar
//!   year→month→day over timestamps, magnitude buckets over numerics)
//!   with count/sum/avg measures — the "beyond counting" extension.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod facets;
pub mod olap;
pub mod session;

pub use facets::{FacetDimension, FacetEngine, FacetValue};
pub use olap::{civil_from_millis, time_rollup, RollupLevel, RollupRow};
pub use session::{apply_guided_query, GuidedSession};
