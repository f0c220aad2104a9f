//! The Impliance workspace lexical invariants (L1-L5, L7, L8, L13; L6 was
//! retired with the `ops`/`joins` wrappers it policed), enforced over the
//! token stream produced by [`crate::lexer`].
//!
//! | id | invariant |
//! |----|-----------|
//! | L1 | no `unwrap()` / `expect()` / `panic!` in non-test library code of hot-path crates |
//! | L2 | no raw channel `send` / `thread::sleep` in cluster code outside the `Network` accounting layer |
//! | L3 | no `Instant::now` / `SystemTime::now` in simulation-deterministic cluster code outside the clock exemptions |
//! | L4 | no `Mutex`/`RwLock` guard held across a channel `send`/`recv` in the same function body |
//! | L5 | no `print!`/`println!`/`eprint!`/`eprintln!` in library crates |
//! | L7 | no `unwrap()` / `expect()` on cluster `submit_to`/`transmit` chains in the resilient distributed executor — test code included |
//! | L8 | no raw `std::thread::spawn` in the query crate outside the morsel worker pool (`parallel.rs`) |
//! | L13 | no direct `index::search` entry-point calls (`search::search` / `search_topk` / `search_phrase`) outside `crates/query` / `crates/index` |
//!
//! The interprocedural invariants L9-L12 live in [`crate::iplints`] on
//! top of the call graph ([`crate::parser`] -> [`crate::symbols`] ->
//! [`crate::callgraph`]); [`analyze_workspace`] runs both halves and
//! finalizes the combined diagnostics deterministically.
//!
//! The analysis is lexical (the environment has no `syn`), which buys
//! simplicity and zero dependencies at the cost of heuristics that are
//! documented on each lint below. Every finding can be suppressed with a
//! trailing or preceding comment `impliance-lint: allow(Lx)`; pre-existing
//! debt is ratcheted via `lint_baseline.json` (see [`crate::baseline`]).

use std::collections::{BTreeSet, HashSet};
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Lexed, TokenKind};
use crate::report::{Diagnostic, LintId};

/// What to scan and which invariants apply where. All paths are
/// workspace-relative with forward slashes.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Workspace root directory.
    pub root: PathBuf,
    /// Directory prefixes holding library code to scan at all.
    pub scan_prefixes: Vec<String>,
    /// Prefixes of hot-path crates for L1.
    pub l1_prefixes: Vec<String>,
    /// Prefixes of simulation/cluster code for L2 and L3.
    pub cluster_prefixes: Vec<String>,
    /// Files exempt from L2 (the byte-accounting layer itself).
    pub l2_exempt: Vec<String>,
    /// Files exempt from L3 (the clock abstraction).
    pub l3_exempt: Vec<String>,
    /// Prefixes exempt from L5 (harness/tooling crates whose job is to
    /// print: the bench harness and the analysis driver itself).
    pub l5_exempt_prefixes: Vec<String>,
    /// Files forming the resilient distributed executor for L7: cluster
    /// call results here must never be unwrapped, even in tests, because
    /// chaos schedules make those calls fail on purpose.
    pub l7_files: Vec<String>,
    /// Prefixes where L8 applies: query execution code must parallelize
    /// through the morsel worker pool, never `std::thread::spawn`.
    pub l8_prefixes: Vec<String>,
    /// Files exempt from L8 (the worker pool implementation itself).
    pub l8_exempt: Vec<String>,
    /// L9 entry points: panic sites transitively reachable from these
    /// fns (outside test code) are findings.
    pub l9_entries: Vec<crate::iplints::EntrySpec>,
    /// Files whose loops are hot paths for L10 in addition to every
    /// `Operator::next_batch` impl (the morsel worker pool).
    pub l10_worker_files: Vec<String>,
    /// Workspace-relative design document holding the Observability
    /// section that L12 checks metric names against.
    pub l12_design_doc: String,
    /// Prefixes allowed to call the direct index search entry points for
    /// L13: the query pipeline (which owns scoring, top-k, fusion, and
    /// the freshness watermark) and the index crate itself.
    pub l13_allowed_prefixes: Vec<String>,
}

impl LintConfig {
    /// The configuration for this repository.
    pub fn impliance(root: impl Into<PathBuf>) -> LintConfig {
        LintConfig {
            root: root.into(),
            scan_prefixes: vec!["crates/".into(), "src/".into()],
            l1_prefixes: vec![
                "crates/storage/src/".into(),
                "crates/query/src/".into(),
                "crates/index/src/".into(),
                "crates/cluster/src/".into(),
                "crates/core/src/".into(),
            ],
            cluster_prefixes: vec![
                "crates/cluster/src/".into(),
                "crates/core/src/cluster_app.rs".into(),
            ],
            l2_exempt: vec!["crates/cluster/src/network.rs".into()],
            l3_exempt: vec!["crates/cluster/src/network.rs".into()],
            l5_exempt_prefixes: vec!["crates/bench/".into(), "crates/analysis/".into()],
            l7_files: vec!["crates/query/src/dist.rs".into()],
            l8_prefixes: vec!["crates/query/src/".into()],
            l8_exempt: vec!["crates/query/src/parallel.rs".into()],
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
            l13_allowed_prefixes: vec!["crates/query/".into(), "crates/index/".into()],
        }
    }

    fn in_any(prefixes: &[String], rel: &str) -> bool {
        prefixes.iter().any(|p| rel.starts_with(p.as_str()))
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

/// Run every applicable lint over one file's source text.
pub fn lint_source(config: &LintConfig, rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let lexed = lex(source);
    let lines: Vec<&str> = source.lines().collect();
    let ctx = FileContext::new(rel_path, &lexed, &lines);

    let mut diags = Vec::new();
    if LintConfig::in_any(&config.l1_prefixes, rel_path) {
        lint_l1(&ctx, &mut diags);
    }
    if LintConfig::in_any(&config.cluster_prefixes, rel_path) {
        if !config.l2_exempt.iter().any(|f| f == rel_path) {
            lint_l2(&ctx, &mut diags);
        }
        if !config.l3_exempt.iter().any(|f| f == rel_path) {
            lint_l3(&ctx, &mut diags);
        }
    }
    lint_l4(&ctx, &mut diags);
    if !LintConfig::in_any(&config.l5_exempt_prefixes, rel_path)
        && !rel_path.ends_with("main.rs")
        && !rel_path.contains("/bin/")
    {
        lint_l5(&ctx, &mut diags);
    }
    if config.l7_files.iter().any(|f| f == rel_path) {
        lint_l7(&ctx, &mut diags);
    }
    if LintConfig::in_any(&config.l8_prefixes, rel_path)
        && !config.l8_exempt.iter().any(|f| f == rel_path)
    {
        lint_l8(&ctx, &mut diags);
    }
    if !LintConfig::in_any(&config.l13_allowed_prefixes, rel_path) {
        lint_l13(&ctx, &mut diags);
    }

    diags.retain(|d| !ctx.allowed(d.id, d.line));
    diags.sort_by_key(|d| (d.line, d.id));
    diags
}

/// Run the full scan over the workspace (diagnostics only; see
/// [`analyze_workspace`] for the call graph as well).
pub fn lint_workspace(config: &LintConfig) -> std::io::Result<Vec<Diagnostic>> {
    Ok(analyze_workspace(config)?.diagnostics)
}

/// The full result of a workspace scan: finalized diagnostics plus the
/// interprocedural index they were computed over.
pub struct WorkspaceAnalysis {
    /// All findings across L1-L12, sorted by `(file, line, lint id)`
    /// and deduped (see [`finalize_diagnostics`]).
    pub diagnostics: Vec<Diagnostic>,
    /// Parsed + indexed workspace, for call-graph serialization.
    pub workspace: crate::iplints::Workspace,
}

/// Run the per-file lints (L1-L8) and the interprocedural passes
/// (L9-L12) over the workspace.
pub fn analyze_workspace(config: &LintConfig) -> std::io::Result<WorkspaceAnalysis> {
    let mut diags = Vec::new();
    let mut inputs = Vec::new();
    for rel in collect_sources(config) {
        let path = config.root.join(&rel);
        let source = std::fs::read_to_string(&path)?;
        diags.extend(lint_source(config, &rel, &source));
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
/// id)`, drop exact duplicates, and apply the cross-lint precedence
/// rules — when two lints describe the same underlying hazard at the
/// same site, the more specific one wins:
///
/// * L1 (panic in hot-path crate) beats L9 (panic reachable from an
///   entry point) at the same `(file, line)`;
/// * L4 (guard across channel op, intra-procedural) beats L11 (guard
///   across transitively-blocking call) at the same `(file, line)`.
pub fn finalize_diagnostics(diags: &mut Vec<Diagnostic>) {
    use std::collections::HashSet;
    let occupied: HashSet<(LintId, String, u32)> = diags
        .iter()
        .map(|d| (d.id, d.file.clone(), d.line))
        .collect();
    diags.retain(|d| {
        let shadowed_by = match d.id {
            LintId::L9 => Some(LintId::L1),
            LintId::L11 => Some(LintId::L4),
            _ => None,
        };
        !shadowed_by.is_some_and(|winner| occupied.contains(&(winner, d.file.clone(), d.line)))
    });
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
// shared per-file context
// ---------------------------------------------------------------------

struct FileContext<'a> {
    rel_path: &'a str,
    lexed: &'a Lexed,
    lines: &'a [&'a str],
    /// Token indexes inside `#[cfg(test)] mod ... { }` bodies.
    test_tokens: Vec<bool>,
    /// (lint, line) pairs suppressed by `impliance-lint: allow(..)`.
    allows: HashSet<(LintId, u32)>,
}

impl<'a> FileContext<'a> {
    fn new(rel_path: &'a str, lexed: &'a Lexed, lines: &'a [&'a str]) -> FileContext<'a> {
        let test_tokens = mark_test_modules(lexed);
        let mut allows = HashSet::new();
        for comment in &lexed.comments {
            if let Some(ids) = parse_allow(&comment.text) {
                for id in ids {
                    // a marker covers its own lines and the next line
                    for line in comment.line..=comment.end_line + 1 {
                        allows.insert((id, line));
                    }
                }
            }
        }
        FileContext {
            rel_path,
            lexed,
            lines,
            test_tokens,
            allows,
        }
    }

    fn allowed(&self, id: LintId, line: u32) -> bool {
        self.allows.contains(&(id, line))
    }

    fn is_test_token(&self, idx: usize) -> bool {
        self.test_tokens.get(idx).copied().unwrap_or(false)
    }

    fn signature(&self, line: u32) -> String {
        let text = self.lines.get(line as usize - 1).copied().unwrap_or("");
        let mut sig = String::with_capacity(text.len());
        let mut last_space = true;
        for c in text.trim().chars() {
            if c.is_whitespace() {
                if !last_space {
                    sig.push(' ');
                }
                last_space = true;
            } else {
                sig.push(c);
                last_space = false;
            }
        }
        sig
    }

    fn diag(&self, id: LintId, line: u32, message: String, suggestion: &str) -> Diagnostic {
        Diagnostic {
            id,
            file: self.rel_path.to_string(),
            line,
            signature: self.signature(line),
            message,
            suggestion: suggestion.to_string(),
            witness: Vec::new(),
        }
    }
}

/// Parse `impliance-lint: allow(L1)` / `allow(L1, L4)` out of a comment.
fn parse_allow(comment: &str) -> Option<Vec<LintId>> {
    let marker = "impliance-lint:";
    let rest = &comment[comment.find(marker)? + marker.len()..];
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("allow(")?;
    let inner = &rest[..rest.find(')')?];
    let ids: Vec<LintId> = inner
        .split(',')
        .filter_map(|part| LintId::parse(part.trim()))
        .collect();
    (!ids.is_empty()).then_some(ids)
}

/// Mark every token inside `#[cfg(test)] mod name { ... }` bodies, plus
/// `#[test]`-attributed functions, as test code.
fn mark_test_modules(lexed: &Lexed) -> Vec<bool> {
    let toks = &lexed.tokens;
    let mut marked = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        // match "#" "[" ("cfg" "(" "test" ...| "test" "]") — i.e. the
        // attribute opener for either #[cfg(test)] or #[test]
        if toks[i].text == "#" && toks.get(i + 1).map(|t| t.text.as_str()) == Some("[") {
            let is_cfg_test = toks.get(i + 2).map(|t| t.text.as_str()) == Some("cfg")
                && toks.get(i + 3).map(|t| t.text.as_str()) == Some("(")
                && toks.get(i + 4).map(|t| t.text.as_str()) == Some("test");
            let is_test_attr = toks.get(i + 2).map(|t| t.text.as_str()) == Some("test")
                && toks.get(i + 3).map(|t| t.text.as_str()) == Some("]");
            if is_cfg_test || is_test_attr {
                // find the end of the attribute, then the item's body
                let mut j = i + 2;
                let mut bracket_depth = 1; // we're inside "["
                while j < toks.len() && bracket_depth > 0 {
                    match toks[j].text.as_str() {
                        "[" => bracket_depth += 1,
                        "]" => bracket_depth -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                // scan forward to the item's opening brace (skipping
                // further attributes and the item header); bail on `;`
                let mut k = j;
                let mut paren_depth = 0i32;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "(" | "<" => paren_depth += 1,
                        ")" | ">" => paren_depth -= 1,
                        "{" if paren_depth <= 0 => break,
                        ";" if paren_depth <= 0 => {
                            k = toks.len();
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                if k < toks.len() {
                    // mark to the matching close brace
                    let mut depth = 0i32;
                    let mut m = k;
                    while m < toks.len() {
                        match toks[m].text.as_str() {
                            "{" => depth += 1,
                            "}" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        marked[m] = true;
                        m += 1;
                    }
                    if m < toks.len() {
                        marked[m] = true;
                    }
                    i = m + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    marked
}

// ---------------------------------------------------------------------
// function spans (for L2/L4)
// ---------------------------------------------------------------------

struct FnSpan {
    /// Index of the `{` opening the body.
    body_start: usize,
    /// Index of the matching `}`.
    body_end: usize,
}

/// Locate function bodies: each `fn` keyword followed (at paren-depth 0)
/// by `{`. Declarations ending in `;` (trait methods, externs) are
/// skipped. Nested functions/closures are inside their parent's span;
/// lints that walk spans de-duplicate findings by token index.
fn function_spans(lexed: &Lexed) -> Vec<FnSpan> {
    let toks = &lexed.tokens;
    let mut spans = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokenKind::Ident || toks[i].text != "fn" {
            continue;
        }
        let mut j = i + 1;
        let mut paren_depth = 0i32;
        let mut body_start = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" => paren_depth += 1,
                ")" => paren_depth -= 1,
                "{" if paren_depth == 0 => {
                    body_start = Some(j);
                    break;
                }
                ";" if paren_depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(start) = body_start else { continue };
        let mut depth = 0i32;
        let mut m = start;
        while m < toks.len() {
            match toks[m].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            m += 1;
        }
        if m < toks.len() {
            spans.push(FnSpan {
                body_start: start,
                body_end: m,
            });
        }
    }
    spans
}

// ---------------------------------------------------------------------
// L1: no unwrap/expect/panic! in hot-path library code
// ---------------------------------------------------------------------

fn lint_l1(ctx: &FileContext<'_>, diags: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if ctx.is_test_token(i) || toks[i].kind != TokenKind::Ident {
            continue;
        }
        let next_is = |off: usize, s: &str| toks.get(i + off).map(|t| t.text.as_str()) == Some(s);
        let prev_is_dot = i > 0 && toks[i - 1].text == ".";
        match toks[i].text.as_str() {
            "unwrap" | "expect" if prev_is_dot && next_is(1, "(") => {
                diags.push(ctx.diag(
                    LintId::L1,
                    toks[i].line,
                    format!(
                        "`{}()` in hot-path library code can panic under load",
                        toks[i].text
                    ),
                    "propagate the error (`?` / `ok_or`) or handle the None/Err arm explicitly",
                ));
            }
            "panic" if next_is(1, "!") => {
                diags.push(ctx.diag(
                    LintId::L1,
                    toks[i].line,
                    "`panic!` in hot-path library code aborts the worker thread".to_string(),
                    "return a typed error; reserve panics for programmer bugs behind debug_assert!",
                ));
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// L2: cluster sends must go through the Network accounting layer
// ---------------------------------------------------------------------

/// Heuristic: inside each function body in cluster-scoped files, a
/// `.send(...)` is legal only if a `transmit(...)` call appears earlier in
/// the same body (the runtime charges the Network before shipping bytes).
/// `thread::sleep` is never legal — simulated time must come from the
/// clock abstraction so single-node runs stay deterministic.
fn lint_l2(ctx: &FileContext<'_>, diags: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    for span in function_spans(ctx.lexed) {
        let mut transmit_seen = false;
        for i in span.body_start..=span.body_end.min(toks.len() - 1) {
            if ctx.is_test_token(i) || toks[i].kind != TokenKind::Ident {
                continue;
            }
            let next_is_paren = toks.get(i + 1).map(|t| t.text.as_str()) == Some("(");
            match toks[i].text.as_str() {
                "transmit" if next_is_paren => transmit_seen = true,
                "send" | "try_send"
                    if next_is_paren
                        && i > 0
                        && toks[i - 1].text == "."
                        && !transmit_seen
                        && seen.insert(i) =>
                {
                    diags.push(ctx.diag(
                        LintId::L2,
                        toks[i].line,
                        "raw channel send in cluster code without a preceding Network::transmit \
                         charge in this function"
                            .to_string(),
                        "route the transfer through Network::transmit so bytes are accounted, \
                         or move the send into the accounting layer",
                    ));
                }
                "sleep"
                    if next_is_paren
                        && i >= 2
                        && toks[i - 1].text == ":"
                        && toks[i - 2].text == ":"
                        && seen.insert(i) =>
                {
                    diags.push(ctx.diag(
                        LintId::L2,
                        toks[i].line,
                        "thread::sleep in cluster code couples simulation behaviour to \
                         wall-clock time"
                            .to_string(),
                        "use the simulated clock / latency model on Network instead of sleeping",
                    ));
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------
// L3: no wall-clock reads in simulation-deterministic cluster code
// ---------------------------------------------------------------------

fn lint_l3(ctx: &FileContext<'_>, diags: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if ctx.is_test_token(i) || toks[i].kind != TokenKind::Ident {
            continue;
        }
        let is_clock = matches!(toks[i].text.as_str(), "Instant" | "SystemTime");
        if is_clock
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some(":")
            && toks.get(i + 2).map(|t| t.text.as_str()) == Some(":")
            && toks.get(i + 3).map(|t| t.text.as_str()) == Some("now")
        {
            diags.push(ctx.diag(
                LintId::L3,
                toks[i].line,
                format!(
                    "`{}::now` leaks wall-clock time into simulation-deterministic cluster code",
                    toks[i].text
                ),
                "take timestamps from the clock abstraction (or pass them in) so simulated \
                 runs are reproducible",
            ));
        }
    }
}

// ---------------------------------------------------------------------
// L5: library crates must not print to stdout/stderr
// ---------------------------------------------------------------------

/// Library code talks through the observability layer, not the console:
/// a `println!` inside a storage or query crate corrupts harness output
/// (the figures binary emits machine-readable tables and a JSON metrics
/// snapshot on stdout) and is invisible to anything consuming the
/// appliance as a library. Binaries (`main.rs`, `src/bin/`) and the
/// harness/analysis crates are exempt via config.
fn lint_l5(ctx: &FileContext<'_>, diags: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if ctx.is_test_token(i) || toks[i].kind != TokenKind::Ident {
            continue;
        }
        let is_print = matches!(
            toks[i].text.as_str(),
            "println" | "print" | "eprintln" | "eprint"
        );
        if is_print && toks.get(i + 1).map(|t| t.text.as_str()) == Some("!") {
            diags.push(ctx.diag(
                LintId::L5,
                toks[i].line,
                format!(
                    "`{}!` in library code writes to the console instead of the \
                     observability layer",
                    toks[i].text
                ),
                "record a counter/event via impliance-obs, or return the text to the caller; \
                 only binaries may print",
            ));
        }
    }
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
fn lint_l7(ctx: &FileContext<'_>, diags: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    const ROOTS: &[&str] = &["submit_to", "submit_to_kind", "map_kind", "transmit"];
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
                    if called && matches!(name.text.as_str(), "unwrap" | "expect") {
                        diags.push(ctx.diag(
                            LintId::L7,
                            name.line,
                            format!(
                                "`{}()` on a cluster `{}` chain panics on injected faults \
                                 (node kills and message drops are expected here)",
                                name.text, toks[i].text
                            ),
                            "handle the Err arm (let-else / match) or route the call through \
                             the retry/failover helpers so chaos schedules degrade instead of \
                             panicking",
                        ));
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
}

// ---------------------------------------------------------------------
// L8: query execution threads come from the morsel pool
// ---------------------------------------------------------------------

/// The morsel pool (`parallel::scoped_map`) owns worker accounting: it
/// reports `query.parallel.workers_used`, maintains the queue-depth
/// gauge, and re-raises worker panics on the caller thread. A raw
/// `thread::spawn` / `std::thread::spawn` elsewhere in the query crate
/// produces threads invisible to all of that — and detached `spawn`
/// handles can silently swallow panics. Scoped spawns (`s.spawn(..)`,
/// preceded by `.`) are the pool's own mechanism and pass; test code
/// is exempt like L1.
fn lint_l8(ctx: &FileContext<'_>, diags: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if ctx.is_test_token(i) || toks[i].kind != TokenKind::Ident {
            continue;
        }
        if toks[i].text == "spawn"
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
            && i >= 3
            && toks[i - 1].text == ":"
            && toks[i - 2].text == ":"
            && toks[i - 3].text == "thread"
        {
            diags.push(
                ctx.diag(
                    LintId::L8,
                    toks[i].line,
                    "raw `thread::spawn` in query execution code bypasses the morsel worker pool"
                        .to_string(),
                    "run the work through parallel::scoped_map (or a thread::scope inside \
                 parallel.rs) so workers are counted, observed, and panic-safe",
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// L13: retrieval goes through the query pipeline
// ---------------------------------------------------------------------

/// The direct index entry points (`search::search`, `search_topk`,
/// `search_phrase`) return unscored, unmetered results with no freshness
/// watermark and no admission control — everything the IndexScan operator
/// adds. Outside `crates/query` / `crates/index`, callers must go through
/// `Impliance::query` match clauses or `impliance_query::keyword_candidates`.
/// Definitions (`fn search_topk(...)`) and test code are exempt — tests
/// use the index directly as a brute-force oracle.
fn lint_l13(ctx: &FileContext<'_>, diags: &mut Vec<Diagnostic>) {
    const ENTRIES: &[&str] = &["search", "search_topk", "search_phrase"];
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if ctx.is_test_token(i) || toks[i].kind != TokenKind::Ident {
            continue;
        }
        let next_is = |off: usize, s: &str| toks.get(i + off).map(|t| t.text.as_str()) == Some(s);
        let qualified = toks[i].text == "search"
            && next_is(1, ":")
            && next_is(2, ":")
            && toks
                .get(i + 3)
                .map(|t| t.kind == TokenKind::Ident && ENTRIES.contains(&t.text.as_str()))
                == Some(true)
            && next_is(4, "(");
        if qualified {
            diags.push(ctx.diag(
                LintId::L13,
                toks[i].line,
                format!(
                    "direct call to `search::{}(..)` bypasses the hybrid retrieval pipeline",
                    toks[i + 3].text
                ),
                "route the lookup through `Impliance::query` with a match clause (or \
                 `impliance_query::keyword_candidates` for raw candidate sets) so results \
                 are scored, metered, and carry the index_epoch watermark",
            ));
            continue;
        }
        let bare = matches!(toks[i].text.as_str(), "search_topk" | "search_phrase")
            && next_is(1, "(")
            && !(i > 0 && toks[i - 1].text == "fn")
            // method calls (`imp.search_phrase(..)`) are the sanctioned
            // appliance wrappers, not the index free functions
            && !(i > 0 && toks[i - 1].text == ".")
            // `search::search_topk(` is already reported as the qualified
            // form above; other qualifiers (`impliance_index::search_topk`)
            // still land here
            && !(i >= 3
                && toks[i - 1].text == ":"
                && toks[i - 2].text == ":"
                && toks[i - 3].text == "search");
        if bare {
            diags.push(ctx.diag(
                LintId::L13,
                toks[i].line,
                format!(
                    "direct call to `{}(..)` bypasses the hybrid retrieval pipeline",
                    toks[i].text
                ),
                "route the lookup through `Impliance::query` with a match clause (or \
                 `impliance_query::keyword_candidates` for raw candidate sets) so results \
                 are scored, metered, and carry the index_epoch watermark",
            ));
        }
    }
}

// ---------------------------------------------------------------------
// L4: no lock guard held across a channel send/recv
// ---------------------------------------------------------------------

#[derive(Debug)]
struct ActiveGuard {
    name: String,
    depth: i32,
    line: u32,
}

/// Heuristic: a `let g = <expr>.lock();` / `.read();` / `.write();`
/// statement binds a guard named `g`; the guard is live until `drop(g)` or
/// the closing brace of its block. Any `.send(` / `.recv(` /
/// `.recv_timeout(` / `.try_recv(` while a guard is live is a finding.
/// Chained uses (`map.lock().get(..)`) create only a temporary guard and
/// are ignored.
fn lint_l4(ctx: &FileContext<'_>, diags: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    let mut reported: BTreeSet<usize> = BTreeSet::new();
    for span in function_spans(ctx.lexed) {
        let mut depth = 0i32;
        let mut guards: Vec<ActiveGuard> = Vec::new();
        let mut i = span.body_start;
        while i <= span.body_end.min(toks.len() - 1) {
            let text = toks[i].text.as_str();
            match text {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                }
                "let" if toks[i].kind == TokenKind::Ident && !ctx.is_test_token(i) => {
                    // find simple `let [mut] name = ... .lock() ;` pattern
                    if let Some((name, end)) = guard_binding(toks, i, span.body_end) {
                        guards.push(ActiveGuard {
                            name,
                            depth,
                            line: toks[i].line,
                        });
                        i = end;
                        continue;
                    }
                }
                "drop"
                    if toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
                        && toks.get(i + 3).map(|t| t.text.as_str()) == Some(")") =>
                {
                    if let Some(dropped) = toks.get(i + 2) {
                        guards.retain(|g| g.name != dropped.text);
                    }
                }
                "send" | "recv" | "recv_timeout" | "try_recv" | "try_send"
                    if !ctx.is_test_token(i)
                        && i > 0
                        && toks[i - 1].text == "."
                        && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
                        && !guards.is_empty()
                        && reported.insert(i) =>
                {
                    let held: Vec<String> = guards
                        .iter()
                        .map(|g| format!("`{}` (taken line {})", g.name, g.line))
                        .collect();
                    diags.push(ctx.diag(
                        LintId::L4,
                        toks[i].line,
                        format!(
                            "channel `{}` while lock guard{} {} still held — blocks the lock \
                             for the channel's latency and invites deadlock",
                            text,
                            if held.len() == 1 { "" } else { "s" },
                            held.join(", ")
                        ),
                        "drop the guard (narrow scope or explicit drop()) before touching the \
                         channel",
                    ));
                }
                _ => {}
            }
            i += 1;
        }
    }
}

/// If tokens at `let_idx` form `let [mut] name = ... .lock|read|write ( ) ;`
/// (the lock call terminating the statement), return the guard name and the
/// index of the `;`.
fn guard_binding(
    toks: &[crate::lexer::Token],
    let_idx: usize,
    limit: usize,
) -> Option<(String, usize)> {
    let mut j = let_idx + 1;
    if toks.get(j).map(|t| t.text.as_str()) == Some("mut") {
        j += 1;
    }
    let name_tok = toks.get(j)?;
    if name_tok.kind != TokenKind::Ident {
        return None; // tuple/struct pattern — not a simple guard binding
    }
    let name = name_tok.text.clone();
    if toks.get(j + 1).map(|t| t.text.as_str()) != Some("=") {
        return None; // `let x: T = ...` (typed) or something else; skip type ascription
    }
    // scan to the end of the statement at nesting depth 0
    let mut k = j + 2;
    let mut nest = 0i32;
    while k <= limit {
        match toks.get(k).map(|t| t.text.as_str()) {
            Some("(") | Some("[") | Some("{") => nest += 1,
            Some(")") | Some("]") | Some("}") => nest -= 1,
            Some(";") if nest == 0 => break,
            None => return None,
            _ => {}
        }
        k += 1;
    }
    if k > limit {
        return None;
    }
    // statement must end with `. lock|read|write ( ) ;`
    if k >= 4
        && toks[k - 1].text == ")"
        && toks[k - 2].text == "("
        && matches!(toks[k - 3].text.as_str(), "lock" | "read" | "write")
        && toks[k - 4].text == "."
    {
        Some((name, k))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config_for(path: &str) -> LintConfig {
        let mut c = LintConfig::impliance("/nonexistent");
        if !path.starts_with("crates/") {
            c.l1_prefixes.push(path.to_string());
            c.cluster_prefixes.push(path.to_string());
        }
        c
    }

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_source(&config_for(path), path, src)
    }

    #[test]
    fn l1_flags_unwrap_expect_panic() {
        let src = r#"
            pub fn f(x: Option<u32>) -> u32 {
                let a = x.unwrap();
                let b = x.expect("boom");
                if a + b > 100 { panic!("too big"); }
                a
            }
        "#;
        let diags = run("crates/storage/src/engine.rs", src);
        let ids: Vec<_> = diags.iter().map(|d| d.id).collect();
        assert_eq!(ids, vec![LintId::L1, LintId::L1, LintId::L1]);
    }

    #[test]
    fn l1_ignores_test_modules_and_strings() {
        let src = r#"
            pub fn g() -> &'static str { "please .unwrap() responsibly" }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Some(1).unwrap(); }
            }
        "#;
        assert!(run("crates/storage/src/engine.rs", src).is_empty());
    }

    #[test]
    fn l1_not_applied_outside_hot_path() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(run("crates/docmodel/src/node.rs", src).is_empty());
    }

    #[test]
    fn allow_comment_suppresses() {
        let src = r#"
            pub fn f(x: Option<u32>) -> u32 {
                // impliance-lint: allow(L1)
                x.unwrap()
            }
        "#;
        assert!(run("crates/storage/src/engine.rs", src).is_empty());
    }

    #[test]
    fn l2_send_without_transmit_flags() {
        let src = r#"
            pub fn relay(tx: &Sender<u32>) {
                tx.send(1).ok();
            }
        "#;
        let diags = run("crates/cluster/src/group.rs", src);
        assert_eq!(diags.iter().filter(|d| d.id == LintId::L2).count(), 1);
    }

    #[test]
    fn l2_send_after_transmit_passes() {
        let src = r#"
            pub fn relay(net: &Network, tx: &Sender<u32>) {
                net.transmit(a, b, 64);
                tx.send(1).ok();
            }
        "#;
        assert!(run("crates/cluster/src/group.rs", src)
            .iter()
            .all(|d| d.id != LintId::L2));
    }

    #[test]
    fn l2_sleep_always_flags() {
        let src = r#"
            pub fn wait() { std::thread::sleep(Duration::from_millis(5)); }
        "#;
        let diags = run("crates/cluster/src/group.rs", src);
        assert_eq!(diags.iter().filter(|d| d.id == LintId::L2).count(), 1);
    }

    #[test]
    fn l3_flags_wall_clock() {
        let src = r#"
            pub fn stamp() -> Instant { Instant::now() }
            pub fn stamp2() -> SystemTime { SystemTime::now() }
        "#;
        let diags = run("crates/cluster/src/group.rs", src);
        assert_eq!(diags.iter().filter(|d| d.id == LintId::L3).count(), 2);
    }

    #[test]
    fn l3_exempt_file_passes() {
        let src = "pub fn stamp() -> Instant { Instant::now() }";
        let c = LintConfig::impliance("/nonexistent");
        assert!(lint_source(&c, "crates/cluster/src/network.rs", src).is_empty());
    }

    #[test]
    fn l4_guard_across_send_flags() {
        let src = r#"
            pub fn f(&self) {
                let nodes = self.nodes.read();
                self.tx.send(1).ok();
            }
        "#;
        let diags = run("crates/docmodel/src/node.rs", src);
        assert_eq!(diags.iter().filter(|d| d.id == LintId::L4).count(), 1);
        assert!(diags[0].message.contains("`nodes`"));
    }

    #[test]
    fn l4_dropped_guard_passes() {
        let src = r#"
            pub fn f(&self) {
                let nodes = self.nodes.read();
                drop(nodes);
                self.tx.send(1).ok();
            }
        "#;
        assert!(run("crates/docmodel/src/node.rs", src).is_empty());
    }

    #[test]
    fn l4_scoped_guard_passes() {
        let src = r#"
            pub fn f(&self) {
                {
                    let nodes = self.nodes.read();
                    let _ = nodes.len();
                }
                self.tx.send(1).ok();
            }
        "#;
        assert!(run("crates/docmodel/src/node.rs", src).is_empty());
    }

    #[test]
    fn l4_chained_temporary_is_not_a_guard() {
        let src = r#"
            pub fn f(&self) {
                let n = self.nodes.read().len();
                self.tx.send(n).ok();
            }
        "#;
        assert!(run("crates/docmodel/src/node.rs", src).is_empty());
    }

    #[test]
    fn l5_flags_console_prints_in_library_code() {
        let src = r#"
            pub fn noisy(x: u32) {
                println!("value = {x}");
                eprintln!("warning");
            }
        "#;
        let diags = run("crates/storage/src/engine.rs", src);
        assert_eq!(diags.iter().filter(|d| d.id == LintId::L5).count(), 2);
    }

    #[test]
    fn l5_skips_binaries_harness_and_tests() {
        let src = r#"pub fn noisy() { println!("hello"); }"#;
        let c = LintConfig::impliance("/nonexistent");
        assert!(lint_source(&c, "crates/bench/src/report.rs", src).is_empty());
        assert!(lint_source(&c, "crates/analysis/src/main.rs", src).is_empty());
        assert!(lint_source(&c, "crates/bench/src/bin/figures.rs", src).is_empty());
        assert!(lint_source(&c, "src/main.rs", src).is_empty());
        let test_src = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { println!("debugging a test is fine"); }
            }
        "#;
        assert!(lint_source(&c, "crates/storage/src/engine.rs", test_src).is_empty());
    }

    #[test]
    fn l5_allow_comment_suppresses() {
        let src = r#"
            pub fn report() {
                // impliance-lint: allow(L5)
                println!("sanctioned output");
            }
        "#;
        let c = LintConfig::impliance("/nonexistent");
        assert!(lint_source(&c, "crates/storage/src/engine.rs", src).is_empty());
    }

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
        let diags = run("crates/query/src/dist.rs", src);
        assert_eq!(diags.iter().filter(|d| d.id == LintId::L7).count(), 3);
    }

    #[test]
    fn l7_handled_results_and_other_files_pass() {
        let src = r#"
            pub fn dispatch(rt: &Runtime) -> Result<u64, ClusterError> {
                let handle = rt.submit_to(node, 8, job)?;
                let Ok(n) = handle.join() else {
                    return Err(ClusterError::TaskLost);
                };
                Ok(n)
            }
        "#;
        assert!(run("crates/query/src/dist.rs", src)
            .iter()
            .all(|d| d.id != LintId::L7));
        // same unwrap chain outside the resilient executor: L7 silent
        let chained = "fn f() { rt.submit_to(n, 8, job).unwrap(); }";
        assert!(run("crates/query/src/exec.rs", chained)
            .iter()
            .all(|d| d.id != LintId::L7));
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
        assert!(run("crates/query/src/dist.rs", src)
            .iter()
            .all(|d| d.id != LintId::L7));
    }

    #[test]
    fn l8_flags_raw_thread_spawn_in_query_crate() {
        let src = r#"
            pub fn run(jobs: Vec<Job>) {
                let a = std::thread::spawn(move || jobs.len());
                let b = thread::spawn(|| 1u64);
                let _ = (a, b);
            }
        "#;
        let diags = run("crates/query/src/exec.rs", src);
        assert_eq!(diags.iter().filter(|d| d.id == LintId::L8).count(), 2);
    }

    #[test]
    fn l8_allows_pool_file_scoped_spawns_and_other_crates() {
        let c = LintConfig::impliance("/nonexistent");
        let raw = "pub fn run() { let h = std::thread::spawn(|| 1u64); h.join().ok(); }";
        // the pool implementation itself is exempt
        assert!(lint_source(&c, "crates/query/src/parallel.rs", raw)
            .iter()
            .all(|d| d.id != LintId::L8));
        // other crates are out of scope
        assert!(lint_source(&c, "crates/storage/src/engine.rs", raw)
            .iter()
            .all(|d| d.id != LintId::L8));
        // scoped spawns are the pool mechanism, not a raw thread
        let scoped = r#"
            pub fn pooled(workers: usize) {
                std::thread::scope(|s| {
                    for _ in 0..workers {
                        s.spawn(|| {});
                    }
                });
            }
        "#;
        assert!(lint_source(&c, "crates/query/src/exec.rs", scoped)
            .iter()
            .all(|d| d.id != LintId::L8));
        // test code is exempt like L1
        let test_src = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { std::thread::spawn(|| {}).join().ok(); }
            }
        "#;
        assert!(lint_source(&c, "crates/query/src/exec.rs", test_src)
            .iter()
            .all(|d| d.id != LintId::L8));
    }

    #[test]
    fn l13_flags_direct_search_calls_outside_query() {
        let src = r#"
            pub fn lookup(idx: &InvertedIndex, q: &str) -> Vec<DocId> {
                let hits = search::search(idx, &SearchQuery::terms(q));
                let (scored, _, _) = search_topk(idx, q, 10);
                let ph = impliance_index::search_phrase(idx, q, None);
                hits
            }
        "#;
        let diags = run("crates/facet/src/session.rs", src);
        assert_eq!(diags.iter().filter(|d| d.id == LintId::L13).count(), 3);
    }

    #[test]
    fn l13_exempts_query_index_definitions_and_tests() {
        let c = LintConfig::impliance("/nonexistent");
        let raw = "pub fn go(i: &InvertedIndex) { let _ = search::search_topk(i, \"q\", 5); }";
        // the pipeline itself may call the entry points
        assert!(lint_source(&c, "crates/query/src/batch.rs", raw)
            .iter()
            .all(|d| d.id != LintId::L13));
        assert!(lint_source(&c, "crates/index/src/search.rs", raw)
            .iter()
            .all(|d| d.id != LintId::L13));
        // defining the entry point is not calling it
        let def = "pub fn search_topk(i: &InvertedIndex, q: &str, k: usize) -> Vec<Hit> { vec![] }";
        assert!(lint_source(&c, "crates/facet/src/session.rs", def)
            .iter()
            .all(|d| d.id != LintId::L13));
        // tests use the index as a brute-force oracle
        let test_src = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn oracle() { let _ = search::search_topk(&idx, "q", 5); }
            }
        "#;
        assert!(lint_source(&c, "crates/facet/src/session.rs", test_src)
            .iter()
            .all(|d| d.id != LintId::L13));
    }

    #[test]
    fn signatures_normalize_whitespace() {
        let src = "pub fn f(x: Option<u32>) -> u32 {\n    x   .unwrap()\n}";
        let diags = run("crates/storage/src/engine.rs", src);
        assert_eq!(diags[0].signature, "x .unwrap()");
    }
}
