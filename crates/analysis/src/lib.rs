//! `impliance-analysis`: correctness tooling for the Impliance workspace.
//!
//! Two halves:
//!
//! * **Static invariant checker** ([`lints`], [`report`]) — enforces what
//!   only a call graph or a cross-file view can check: L7 (unwraps on
//!   cluster call chains, test code included), L9-L11 (interprocedural,
//!   built on a lightweight item parser ([`parser`]) over a
//!   self-contained lexer ([`lexer`]), a workspace symbol table
//!   ([`symbols`]) and a call graph ([`callgraph`]) with witness paths;
//!   see [`iplints`]) and L12 (metric names vs DESIGN.md). Any finding
//!   fails the check. Run it with `cargo run -p impliance-analysis --
//!   check`, or `-- explain L9` for any lint's rationale and heuristics.
//!   The per-file rules clippy checks type-aware live in clippy
//!   configuration, not here (DESIGN.md "Invariants").
//! * **Runtime lock-order detector** ([`locks`]) — [`TrackedMutex`] /
//!   [`TrackedRwLock`] wrappers that, in debug builds, maintain a global
//!   acquired-before graph and panic with the offending cycle on
//!   lock-order inversion. Adopted by the cluster runtime, the storage
//!   engine, and the virtualization execution manager.
//!
//! The paper's appliance promise ("ease of administration", §3) is only
//! honest if the substrate's invariants are checked by machines, not by
//! reviewers; this crate and clippy are that machine.

pub mod callgraph;
pub mod iplints;
pub mod lexer;
pub mod lints;
pub mod locks;
pub mod parser;
pub mod report;
pub mod symbols;

pub use callgraph::CallGraph;
pub use iplints::{EntrySpec, Workspace};
pub use lints::{
    analyze_workspace, collect_sources, lint_workspace, LintConfig, WorkspaceAnalysis,
};
#[cfg(debug_assertions)]
pub use locks::reset_lock_order_graph_for_tests;
pub use locks::{TrackedMutex, TrackedRwLock};
pub use report::{Diagnostic, Json, LintId};
pub use symbols::SymbolTable;
