//! # Impliance experiment harness
//!
//! Workload generators and reporting helpers for the `figures` binary,
//! which regenerates every experiment in EXPERIMENTS.md (the paper's
//! Figures 1–4 plus the falsifiable §3/§4 claims C1–C8), and for the
//! root `tests/` and `examples/`. Performance is measured by `impbench`
//! (see `BENCHMARK.json`), not here.
//!
//! The paper's corpora (call-center transcripts, insurance claims,
//! enterprise e-mail, purchase orders) are proprietary; [`corpus`]
//! generates deterministic synthetic equivalents that exercise the same
//! code paths — entity mentions, sentiment vocabulary, cross-document
//! references, schema diversity (see DESIGN.md's substitution table).

pub mod corpus;
pub mod report;

pub use corpus::Corpus;
pub use report::Table;
