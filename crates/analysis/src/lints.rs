//! What the workspace scan covers and how it runs: [`LintConfig`], the
//! source walk, the one token-stream lint (L7), and [`analyze_workspace`],
//! which adds the interprocedural invariants L9-L12 from
//! [`crate::iplints`] and finalizes the combined diagnostics
//! deterministically.
//!
//! | id | invariant |
//! |----|-----------|
//! | L7 | no `unwrap()` / `expect()` on cluster `submit_to`/`transmit` chains in the resilient distributed executor — test code included |
//!
//! The per-file rules that clippy checks type-aware (the old L1-L5, L8
//! and L13) live in clippy configuration instead: the lib.rs `#![deny]`
//! attributes, `[workspace.lints.clippy]` and the `clippy.toml` files
//! (DESIGN.md "Invariants" maps each old id to its new home). L7 stays
//! here because it covers test code on one call chain, a scope clippy
//! cannot express.
//!
//! The analysis is lexical (the environment has no `syn`), which buys
//! simplicity and zero dependencies at the cost of heuristics that are
//! documented on each lint. Every finding can be suppressed with a
//! trailing or preceding comment `impliance-lint: allow(Lx)`.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, TokenKind};
use crate::parser::normalize_line;
use crate::report::{parse_allow, Diagnostic, LintId};

/// What to scan and which invariants apply where. All paths are
/// workspace-relative with forward slashes.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Workspace root directory.
    pub root: PathBuf,
    /// Directory prefixes holding library code to scan at all.
    pub scan_prefixes: Vec<String>,
    /// Files forming the resilient distributed executor for L7: cluster
    /// call results here must never be unwrapped, even in tests, because
    /// chaos schedules make those calls fail on purpose.
    pub l7_files: Vec<String>,
    /// L9 entry points: panic sites transitively reachable from these
    /// fns (outside test code) are findings.
    pub l9_entries: Vec<crate::iplints::EntrySpec>,
    /// Files whose loops are hot paths for L10 in addition to every
    /// `Operator::next_batch` impl (the morsel worker pool).
    pub l10_worker_files: Vec<String>,
    /// Workspace-relative design document holding the Observability
    /// section that L12 checks metric names against.
    pub l12_design_doc: String,
}

impl LintConfig {
    /// The configuration for this repository.
    pub fn impliance(root: impl Into<PathBuf>) -> LintConfig {
        LintConfig {
            root: root.into(),
            scan_prefixes: vec!["crates/".into(), "src/".into()],
            l7_files: vec!["crates/query/src/dist.rs".into()],
            l9_entries: vec![
                crate::iplints::EntrySpec::method("Impliance", "query"),
                crate::iplints::EntrySpec::trait_impl("Operator", "next_batch"),
                crate::iplints::EntrySpec::free("execute"),
                // The background workers: a panic in the change-feed
                // consumer loop or in either of its stages (text
                // indexing, discovery — closures of these two methods)
                // kills incremental maintenance, so their
                // reachable-panic surface is audited like the query
                // entry points.
                crate::iplints::EntrySpec::method("FeedConsumer", "drain"),
                crate::iplints::EntrySpec::method("Impliance", "run_indexing_with_faults"),
                crate::iplints::EntrySpec::method("Impliance", "run_discovery_with_faults"),
                // The admission gate runs before every query, including
                // under overload — a reachable panic here turns graceful
                // shedding into an outage, so both admission surfaces are
                // audited roots.
                crate::iplints::EntrySpec::method("WorkloadManager", "admit"),
                crate::iplints::EntrySpec::method("WorkloadManager", "submit"),
                crate::iplints::EntrySpec::method("WorkloadManager", "next_ready"),
            ],
            l10_worker_files: vec!["crates/query/src/parallel.rs".into()],
            l12_design_doc: "DESIGN.md".into(),
        }
    }
}

/// Directories never scanned (tests, benches, fixtures, build output,
/// vendored shims).
const SKIP_DIRS: &[&str] = &[
    "tests", "benches", "examples", "fixtures", "target", "vendor", ".git",
];

/// Recursively collect workspace-relative paths of library `.rs` files.
pub fn collect_sources(config: &LintConfig) -> Vec<String> {
    let mut out = Vec::new();
    for prefix in &config.scan_prefixes {
        let dir = config.root.join(prefix.trim_end_matches('/'));
        walk(&dir, &config.root, &mut out);
    }
    out.sort();
    out.dedup();
    out
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            walk(&path, root, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}

/// Run the full scan over the workspace (diagnostics only; see
/// [`analyze_workspace`] for the call graph as well).
pub fn lint_workspace(config: &LintConfig) -> std::io::Result<Vec<Diagnostic>> {
    Ok(analyze_workspace(config)?.diagnostics)
}

/// The full result of a workspace scan: finalized diagnostics plus the
/// interprocedural index they were computed over.
pub struct WorkspaceAnalysis {
    /// All findings across L7 and L9-L12, sorted by `(file, line, lint
    /// id)` and deduped (see [`finalize_diagnostics`]).
    pub diagnostics: Vec<Diagnostic>,
    /// Parsed + indexed workspace, for call-graph serialization.
    pub workspace: crate::iplints::Workspace,
}

/// Run L7 over its files and the interprocedural passes (L9-L12) over
/// the workspace.
pub fn analyze_workspace(config: &LintConfig) -> std::io::Result<WorkspaceAnalysis> {
    let mut diags = Vec::new();
    let mut inputs = Vec::new();
    for rel in collect_sources(config) {
        let source = std::fs::read_to_string(config.root.join(&rel))?;
        if config.l7_files.contains(&rel) {
            diags.extend(lint_l7(&rel, &source));
        }
        inputs.push((rel, source));
    }
    let workspace = crate::iplints::Workspace::build(inputs);
    diags.extend(crate::iplints::lint_graph(config, &workspace));
    diags.extend(crate::iplints::lint_l12(config, &workspace));
    finalize_diagnostics(&mut diags);
    Ok(WorkspaceAnalysis {
        diagnostics: diags,
        workspace,
    })
}

/// Deterministic output contract: stable sort by `(file, line, lint
/// id)` and drop duplicates of the same finding.
pub fn finalize_diagnostics(diags: &mut Vec<Diagnostic>) {
    diags.sort_by(|a, b| {
        (
            a.file.as_str(),
            a.line,
            a.id,
            a.signature.as_str(),
            a.message.as_str(),
        )
            .cmp(&(
                b.file.as_str(),
                b.line,
                b.id,
                b.signature.as_str(),
                b.message.as_str(),
            ))
    });
    diags.dedup_by(|a, b| {
        a.id == b.id && a.file == b.file && a.line == b.line && a.signature == b.signature
    });
}

// ---------------------------------------------------------------------
// L7: cluster call results in the resilient executor must be handled
// ---------------------------------------------------------------------

/// The whole point of the fault-tolerant executor is that cluster calls
/// fail: `submit_to` returns `Err` when a node is dead or the request
/// envelope is dropped, and the chaos harness injects exactly those
/// failures. An `.unwrap()` / `.expect(..)` anywhere in a method chain
/// rooted at `submit_to` / `submit_to_kind` / `map_kind` / `transmit`
/// turns an injected fault into a panic — in TEST code too, since chaos
/// tests must assert on retried/degraded outcomes, not die. Scope is the
/// resilient executor files (`l7_files`); handled results (let-else,
/// match, the retry/failover helpers) pass. Heuristic: only the direct
/// chain is tracked — a result bound first and unwrapped later is caught
/// by review, not this lint.
fn lint_l7(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    const ROOTS: &[&str] = &["submit_to", "submit_to_kind", "map_kind", "transmit"];
    let lexed = lex(source);
    let toks = &lexed.tokens;
    let lines: Vec<&str> = source.lines().collect();
    // a marker covers its own lines and the next line
    let mut allowed: HashSet<u32> = HashSet::new();
    for comment in &lexed.comments {
        if parse_allow(&comment.text).is_some_and(|ids| ids.contains(&LintId::L7)) {
            allowed.extend(comment.line..=comment.end_line + 1);
        }
    }
    let skip_parens = |start: usize| -> usize {
        // `start` indexes the opening "("; returns the index of its match
        let mut depth = 0i32;
        let mut m = start;
        while m < toks.len() {
            match toks[m].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            m += 1;
        }
        m
    };
    let mut diags = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let is_root = toks[i].kind == TokenKind::Ident
            && ROOTS.contains(&toks[i].text.as_str())
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(");
        if !is_root {
            i += 1;
            continue;
        }
        let call_end = skip_parens(i + 1);
        // walk the rest of the method chain: `?`, `.name`, `.name(..)`
        let mut k = call_end + 1;
        while k < toks.len() {
            match toks.get(k).map(|t| t.text.as_str()) {
                Some("?") => k += 1,
                Some(".") => {
                    let Some(name) = toks.get(k + 1) else { break };
                    if name.kind != TokenKind::Ident {
                        break;
                    }
                    let called = toks.get(k + 2).map(|t| t.text.as_str()) == Some("(");
                    if called
                        && matches!(name.text.as_str(), "unwrap" | "expect")
                        && !allowed.contains(&name.line)
                    {
                        diags.push(Diagnostic {
                            id: LintId::L7,
                            file: rel_path.to_string(),
                            line: name.line,
                            signature: normalize_line(&lines, name.line),
                            message: format!(
                                "`{}()` on a cluster `{}` chain panics on injected faults \
                                 (node kills and message drops are expected here)",
                                name.text, toks[i].text
                            ),
                            suggestion: "handle the Err arm (let-else / match) or route the \
                                 call through the retry/failover helpers so chaos schedules \
                                 degrade instead of panicking"
                                .to_string(),
                            witness: Vec::new(),
                        });
                    }
                    if called {
                        k = skip_parens(k + 2) + 1;
                    } else {
                        break; // field access / turbofish — chain type changed
                    }
                }
                _ => break,
            }
        }
        i = call_end + 1;
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l7_flags_unwrap_on_submit_chain_even_in_tests() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {
                    let n = rt.submit_to(node, 8, |_| 1u64).unwrap().join().unwrap();
                    let m = rt.map_kind(NodeKind::Data, 8, job).expect("map");
                    let _ = (n, m);
                }
            }
        "#;
        assert_eq!(lint_l7("crates/query/src/dist.rs", src).len(), 3);
    }

    #[test]
    fn l7_handled_results_pass() {
        let src = r#"
            pub fn dispatch(rt: &Runtime) -> Result<u64, ClusterError> {
                let handle = rt.submit_to(node, 8, job)?;
                let Ok(n) = handle.join() else {
                    return Err(ClusterError::TaskLost);
                };
                Ok(n)
            }
        "#;
        assert!(lint_l7("crates/query/src/dist.rs", src).is_empty());
    }

    #[test]
    fn l7_allow_comment_suppresses() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {
                    // impliance-lint: allow(L7)
                    rt.submit_to(node, 8, job).unwrap();
                }
            }
        "#;
        assert!(lint_l7("crates/query/src/dist.rs", src).is_empty());
    }

    #[test]
    fn l7_scopes_to_its_files_and_normalizes_signatures() {
        let root = std::env::temp_dir().join(format!("impliance-l7-{}", std::process::id()));
        let chained = "fn f() {\n    rt.submit_to(n, 8, job)   .unwrap();\n}\n";
        for file in ["crates/query/src/dist.rs", "crates/query/src/exec.rs"] {
            let path = root.join(file);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, chained).unwrap();
        }
        let diags = lint_workspace(&LintConfig::impliance(&root)).unwrap();
        let _ = std::fs::remove_dir_all(&root);
        let l7: Vec<_> = diags.iter().filter(|d| d.id == LintId::L7).collect();
        // same unwrap chain outside the resilient executor: L7 silent
        assert_eq!(l7.len(), 1, "{diags:?}");
        assert_eq!(l7[0].file, "crates/query/src/dist.rs");
        assert_eq!(l7[0].signature, "rt.submit_to(n, 8, job) .unwrap();");
    }
}
