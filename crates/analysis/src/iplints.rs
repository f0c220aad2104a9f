//! The interprocedural invariants (L9-L11) and the metrics-drift check
//! (L12), built on [`crate::parser`] -> [`crate::symbols`] ->
//! [`crate::callgraph`].
//!
//! | id  | invariant |
//! |-----|-----------|
//! | L9  | no panic site transitively reachable from the public entry points |
//! | L10 | no allocating call inside operator `next_batch` / worker loops |
//! | L11 | no lock guard live across a channel operation or a call that transitively blocks |
//! | L12 | recorded metric names and DESIGN.md's Observability section agree |
//!
//! Every L9/L11 finding carries a witness path (entry point or guard
//! site down to the offending call) rendered into the diagnostic and
//! serialized in `analysis_report.json`. Approximations are documented
//! on [`crate::symbols`] (call resolution) and [`crate::parser`]
//! (body heuristics).

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::callgraph::CallGraph;
use crate::lints::LintConfig;
use crate::parser::{normalize_line, parse_file, CallSite, MetricSite};
use crate::report::{Diagnostic, LintId};
use crate::symbols::SymbolTable;

/// An L9 entry-point spec: fn `name`, optionally constrained to an impl
/// owner (`Impliance::query`) or an implemented trait
/// (`<X as Operator>::next_batch`).
#[derive(Clone, Debug)]
pub struct EntrySpec {
    /// Bare fn name.
    pub name: String,
    /// Required impl owner, if any.
    pub owner: Option<String>,
    /// Required implemented trait, if any.
    pub trait_name: Option<String>,
}

impl EntrySpec {
    /// Free fn entry.
    pub fn free(name: &str) -> EntrySpec {
        EntrySpec {
            name: name.into(),
            owner: None,
            trait_name: None,
        }
    }

    /// `Owner::name` entry.
    pub fn method(owner: &str, name: &str) -> EntrySpec {
        EntrySpec {
            name: name.into(),
            owner: Some(owner.into()),
            trait_name: None,
        }
    }

    /// Every impl of `Trait::name`.
    pub fn trait_impl(trait_name: &str, name: &str) -> EntrySpec {
        EntrySpec {
            name: name.into(),
            owner: None,
            trait_name: Some(trait_name.into()),
        }
    }
}

/// Parsed-and-indexed workspace: the input to the L9-L12 passes and the
/// source of the serialized call graph.
pub struct Workspace {
    /// All fn items, indexed.
    pub table: SymbolTable,
    /// Resolved call edges.
    pub graph: CallGraph,
    /// Per-file `allow(Lx)` suppressions.
    allows: HashMap<String, HashSet<(LintId, u32)>>,
    /// Metric registration literals: `(file, site)`.
    metric_sites: Vec<(String, MetricSite)>,
    /// Raw source lines per file, for diagnostic signatures.
    sources: HashMap<String, Vec<String>>,
}

impl Workspace {
    /// Parse + index a set of `(workspace-relative path, source)` files.
    /// Pass them sorted by path for deterministic node ids.
    pub fn build(files: Vec<(String, String)>) -> Workspace {
        let mut allows = HashMap::new();
        let mut metric_sites = Vec::new();
        let mut sources = HashMap::new();
        let mut parsed = Vec::new();
        for (rel, source) in files {
            let mut file = parse_file(&rel, &source);
            allows.insert(rel.clone(), std::mem::take(&mut file.allows));
            for site in file.metric_sites.drain(..) {
                metric_sites.push((rel.clone(), site));
            }
            sources.insert(rel.clone(), source.lines().map(|l| l.to_string()).collect());
            parsed.push(file);
        }
        let table = SymbolTable::build(parsed);
        let graph = CallGraph::build(&table);
        Workspace {
            table,
            graph,
            allows,
            metric_sites,
            sources,
        }
    }

    fn allowed(&self, file: &str, id: LintId, line: u32) -> bool {
        self.allows
            .get(file)
            .is_some_and(|s| s.contains(&(id, line)))
    }

    fn signature(&self, file: &str, line: u32) -> String {
        let lines = match self.sources.get(file) {
            Some(l) => l,
            None => return String::new(),
        };
        let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
        normalize_line(&refs, line)
    }

    fn diag(
        &self,
        id: LintId,
        file: &str,
        line: u32,
        message: String,
        suggestion: &str,
        witness: Vec<String>,
    ) -> Diagnostic {
        Diagnostic {
            id,
            file: file.to_string(),
            line,
            signature: self.signature(file, line),
            message,
            suggestion: suggestion.to_string(),
            witness,
        }
    }
}

/// Run the call-graph lints (L9, L10, L11).
pub fn lint_graph(config: &LintConfig, ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    lint_l9(config, ws, &mut diags);
    lint_l10(config, ws, &mut diags);
    lint_l11(ws, &mut diags);
    diags
}

// ---------------------------------------------------------------------
// L9: panic-reachability from public entry points
// ---------------------------------------------------------------------

/// Is this call site a panic site?
fn panic_site(call: &CallSite) -> Option<&'static str> {
    if call.is_method && matches!(call.callee.as_str(), "unwrap" | "expect") {
        return Some(if call.callee == "unwrap" {
            "unwrap()"
        } else {
            "expect()"
        });
    }
    if call.is_macro && matches!(call.callee.as_str(), "panic" | "unreachable") {
        return Some(if call.callee == "panic" {
            "panic!"
        } else {
            "unreachable!"
        });
    }
    None
}

fn lint_l9(config: &LintConfig, ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    let mut entries: Vec<usize> = Vec::new();
    for spec in &config.l9_entries {
        entries.extend(ws.table.matching(
            &spec.name,
            spec.owner.as_deref(),
            spec.trait_name.as_deref(),
        ));
    }
    entries.sort_unstable();
    entries.dedup();
    let parents = ws.graph.reach_from(&ws.table, &entries);
    for (id, def) in ws.table.fns.iter().enumerate() {
        if def.item.is_test || parents[id].is_none() {
            continue;
        }
        for call in &def.item.calls {
            let Some(kind) = panic_site(call) else {
                continue;
            };
            if ws.allowed(&def.file, LintId::L9, call.line) {
                continue;
            }
            let mut witness = ws.graph.witness(&ws.table, &parents, id);
            let entry = witness
                .first()
                .and_then(|s| s.rsplit(' ').next())
                .unwrap_or("?")
                .to_string();
            witness.push(format!("{}:{} {} site", def.file, call.line, kind));
            diags.push(ws.diag(
                LintId::L9,
                &def.file,
                call.line,
                format!(
                    "`{kind}` in `{}` is reachable from entry point `{entry}` \
                     ({} call hop{}) — a bad input can crash the appliance",
                    def.item.qual_name(),
                    witness.len() - 2,
                    if witness.len() == 3 { "" } else { "s" },
                ),
                "return a typed error along the call chain (or prove the invariant and \
                 suppress with a justification)",
                witness,
            ));
        }
    }
}

// ---------------------------------------------------------------------
// L10: allocating calls inside hot loops
// ---------------------------------------------------------------------

/// Is this call site an allocating construct?
fn alloc_site(call: &CallSite) -> Option<String> {
    if call.is_macro && matches!(call.callee.as_str(), "format" | "vec") {
        return Some(format!("{}!", call.callee));
    }
    if call.is_method && matches!(call.callee.as_str(), "clone" | "to_vec" | "to_string") {
        return Some(format!(".{}()", call.callee));
    }
    if let Some(q) = &call.qualifier {
        if matches!(q.as_str(), "Vec" | "String") && matches!(call.callee.as_str(), "new" | "from")
        {
            return Some(format!("{q}::{}", call.callee));
        }
    }
    None
}

fn lint_l10(config: &LintConfig, ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for def in ws.table.fns.iter() {
        if def.item.is_test {
            continue;
        }
        let is_operator_pull =
            def.item.name == "next_batch" && def.item.trait_name.as_deref() == Some("Operator");
        let is_worker_file = config.l10_worker_files.iter().any(|f| f == &def.file);
        if !is_operator_pull && !is_worker_file {
            continue;
        }
        for call in &def.item.calls {
            if call.loop_depth == 0 {
                continue;
            }
            let Some(what) = alloc_site(call) else {
                continue;
            };
            if ws.allowed(&def.file, LintId::L10, call.line) {
                continue;
            }
            diags.push(ws.diag(
                LintId::L10,
                &def.file,
                call.line,
                format!(
                    "`{what}` allocates inside a loop in `{}` — {} runs per tuple on \
                     the hot path",
                    def.item.qual_name(),
                    if is_operator_pull {
                        "the operator pull loop"
                    } else {
                        "the morsel worker loop"
                    },
                ),
                "hoist the allocation out of the loop and reuse the buffer (clear() + \
                 extend), or borrow instead of cloning",
                Vec::new(),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// L11: guard live across a transitively-blocking call
// ---------------------------------------------------------------------

/// Does this call site block directly?
fn sink_call(call: &CallSite) -> Option<&'static str> {
    if call.is_macro {
        return None;
    }
    match call.callee.as_str() {
        "transmit" if call.is_method || call.qualifier.as_deref() == Some("Network") => {
            Some("Network::transmit")
        }
        "send" | "try_send" if call.is_method => Some("channel send"),
        "recv" | "recv_timeout" | "try_recv" if call.is_method => Some("channel recv"),
        // The change-feed poll: holding an unrelated guard across it
        // serializes ingest commits against the annotation worker.
        "recv_changes" if call.is_method => Some("change-feed recv"),
        "sleep" if call.is_method || call.qualifier.as_deref() == Some("BackoffClock") => {
            Some("BackoffClock::sleep")
        }
        _ => None,
    }
}

fn lint_l11(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    // fns containing a direct sink, with the sink's description + line
    let mut sink_in: Vec<Option<(&'static str, u32)>> = vec![None; ws.table.fns.len()];
    for (id, def) in ws.table.fns.iter().enumerate() {
        if def.item.is_test {
            continue;
        }
        for call in &def.item.calls {
            if let Some(kind) = sink_call(call) {
                sink_in[id] = Some((kind, call.line));
                break;
            }
        }
    }
    let targets: Vec<bool> = sink_in.iter().map(|s| s.is_some()).collect();
    let hops = ws.graph.next_hop_to(&targets);

    for def in ws.table.fns.iter() {
        if def.item.is_test {
            continue;
        }
        let owner = def.item.owner.as_deref();
        for call in &def.item.calls {
            if call.guards.is_empty() {
                continue;
            }
            if ws.allowed(&def.file, LintId::L11, call.line) {
                continue;
            }
            // direct sink under guard, or a callee that reaches one
            let (blocking, witness) = if let Some(kind) = sink_call(call) {
                (
                    kind,
                    vec![format!(
                        "{}:{} {} (direct {kind})",
                        def.file,
                        call.line,
                        def.item.qual_name()
                    )],
                )
            } else {
                // does any resolved callee transitively block?
                let candidates = ws.table.resolve(
                    &call.callee,
                    call.qualifier.as_deref(),
                    call.is_method,
                    call.is_macro,
                    owner,
                );
                let Some(&start) = candidates.iter().find(|&&c| hops[c].is_some()) else {
                    continue;
                };
                let mut steps = vec![format!(
                    "{}:{} {}",
                    def.file,
                    call.line,
                    def.item.qual_name()
                )];
                let mut cur = start;
                let kind;
                loop {
                    let cdef = &ws.table.fns[cur];
                    match hops[cur] {
                        Some(Some((next, line))) => {
                            steps.push(format!(
                                "{}:{} {}",
                                cdef.file,
                                cdef.item.line,
                                cdef.item.qual_name()
                            ));
                            let _ = line;
                            cur = next;
                        }
                        _ => {
                            let (k, line) =
                                sink_in[cur].unwrap_or(("blocking call", cdef.item.line));
                            kind = k;
                            steps.push(format!(
                                "{}:{} {} ({k} at line {line})",
                                cdef.file,
                                cdef.item.line,
                                cdef.item.qual_name()
                            ));
                            break;
                        }
                    }
                }
                (kind, steps)
            };
            let held: Vec<String> = call
                .guards
                .iter()
                .map(|g| format!("`{}` (taken line {})", g.name, g.line))
                .collect();
            diags.push(ws.diag(
                LintId::L11,
                &def.file,
                call.line,
                format!(
                    "lock guard{} {} held across `{}` which reaches {blocking} — the lock \
                     blocks for the callee's full latency",
                    if held.len() == 1 { "" } else { "s" },
                    held.join(", "),
                    call.callee,
                ),
                "drop the guard before the blocking call (narrow scope / explicit drop()), \
                 or move the blocking work outside the critical section",
                witness,
            ));
        }
    }
}

// ---------------------------------------------------------------------
// L12: metrics drift between code and DESIGN.md
// ---------------------------------------------------------------------

/// A documented metric-name pattern: `.`-separated segments where a
/// segment is either a literal or a `<wildcard>`.
struct DocPattern {
    segments: Vec<String>,
    line: u32,
    /// Pattern text as written (post brace-expansion).
    text: String,
}

impl DocPattern {
    fn is_concrete(&self) -> bool {
        self.segments.iter().all(|s| !s.starts_with('<'))
    }

    fn matches(&self, name: &str) -> bool {
        let parts: Vec<&str> = name.split('.').collect();
        parts.len() == self.segments.len()
            && parts
                .iter()
                .zip(&self.segments)
                .all(|(p, s)| s.starts_with('<') || p == s)
    }
}

/// Extract documented metric patterns from the Observability section.
fn doc_patterns(design: &str) -> Vec<DocPattern> {
    let mut out = Vec::new();
    let mut in_section = false;
    for (idx, line) in design.lines().enumerate() {
        if line.starts_with("## ") {
            in_section = line.contains("Observability");
            continue;
        }
        if !in_section {
            continue;
        }
        // backtick spans: odd-numbered chunks
        for (k, chunk) in line.split('`').enumerate() {
            if k % 2 == 0 {
                continue;
            }
            for name in expand_braces(chunk) {
                if !is_metric_shaped(&name) {
                    continue;
                }
                out.push(DocPattern {
                    segments: name.split('.').map(|s| s.to_string()).collect(),
                    line: idx as u32 + 1,
                    text: name,
                });
            }
        }
    }
    out
}

/// A candidate backtick span looks like a metric name: lowercase
/// dotted segments (wildcards allowed), no path/file noise.
fn is_metric_shaped(name: &str) -> bool {
    if !name.contains('.') || name.starts_with('.') || name.ends_with('.') {
        return false;
    }
    const FILE_EXTS: &[&str] = &[
        ".rs", ".json", ".sh", ".md", ".toml", ".yml", ".yaml", ".lock", ".txt",
    ];
    if FILE_EXTS.iter().any(|e| name.ends_with(e)) {
        return false;
    }
    name.chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || matches!(c, '.' | '_' | '<' | '>'))
        && name.split('.').all(|seg| !seg.is_empty())
}

/// Expand `a.{b,c}.d` brace sets (cartesian over multiple sets).
fn expand_braces(text: &str) -> Vec<String> {
    match (text.find('{'), text.find('}')) {
        (Some(open), Some(close)) if open < close => {
            let head = &text[..open];
            let tail = &text[close + 1..];
            text[open + 1..close]
                .split(',')
                .flat_map(|alt| expand_braces(&format!("{head}{}{tail}", alt.trim())))
                .collect()
        }
        _ => vec![text.to_string()],
    }
}

/// Run the metrics-drift check. A configured design doc that cannot be
/// read, or whose Observability section names no metric, is one finding:
/// the gate fails closed rather than passing with no contract to check.
pub fn lint_l12(config: &LintConfig, ws: &Workspace) -> Vec<Diagnostic> {
    let doc = config.l12_design_doc.as_str();
    let no_contract = |problem: String| {
        vec![Diagnostic {
            id: LintId::L12,
            file: doc.to_string(),
            line: 1,
            signature: doc.to_string(),
            message: format!("{doc} {problem}, so no metric name can be checked"),
            suggestion: format!(
                "restore {doc} with a `## Observability` section listing the recorded \
                 metric names in backticks"
            ),
            witness: Vec::new(),
        }]
    };
    let design = match std::fs::read_to_string(config.root.join(doc)) {
        Ok(text) => text,
        Err(e) => return no_contract(format!("cannot be read ({e})")),
    };
    let patterns = doc_patterns(&design);
    if patterns.is_empty() {
        return no_contract("names no metric under a `## Observability` heading".into());
    }
    let mut diags = Vec::new();

    // recorded -> documented
    let mut recorded: BTreeMap<&str, (&str, &MetricSite)> = BTreeMap::new();
    for (file, site) in &ws.metric_sites {
        if site.in_test {
            continue;
        }
        recorded.entry(site.name.as_str()).or_insert((file, site));
    }
    for (name, (file, site)) in &recorded {
        if patterns.iter().any(|p| p.matches(name)) {
            continue;
        }
        if ws.allowed(file, LintId::L12, site.line) {
            continue;
        }
        diags.push(Diagnostic {
            id: LintId::L12,
            file: file.to_string(),
            line: site.line,
            signature: site.signature.clone(),
            message: format!(
                "metric `{name}` is recorded here but not documented in {doc}'s \
                 Observability section"
            ),
            suggestion: "add the metric to the Observability table (or rename it to match \
                 a documented pattern) — undocumented metrics are invisible to operators"
                .to_string(),
            witness: Vec::new(),
        });
    }

    // documented -> recorded (concrete patterns only)
    let doc_lines: Vec<&str> = design.lines().collect();
    let mut seen_doc: HashSet<&str> = HashSet::new();
    for p in &patterns {
        if !p.is_concrete() || !seen_doc.insert(p.text.as_str()) {
            continue;
        }
        if recorded.contains_key(p.text.as_str()) {
            continue;
        }
        diags.push(Diagnostic {
            id: LintId::L12,
            file: doc.to_string(),
            line: p.line,
            signature: format!("{} :: {}", p.text, normalize_line(&doc_lines, p.line)),
            message: format!(
                "metric `{}` is documented in the Observability section but never \
                 recorded by any non-test code",
                p.text
            ),
            suggestion: "remove the dead entry, or wire the metric up in impliance-obs — \
                 documented-but-dead metrics break dashboards built on the contract"
                .to_string(),
            witness: Vec::new(),
        });
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect(),
        )
    }

    fn config() -> LintConfig {
        LintConfig::impliance("/nonexistent")
    }

    #[test]
    fn l9_flags_reachable_panic_with_witness() {
        let w = ws(&[
            (
                "crates/core/src/appliance.rs",
                "impl Impliance { pub fn query(&self) -> u32 { shred(1) } }",
            ),
            (
                "crates/docmodel/src/shred.rs",
                r#"
                pub fn shred(x: u32) -> u32 { decode(x) }
                fn decode(x: u32) -> u32 { checked(x).unwrap() }
                pub fn orphan(x: Option<u32>) -> u32 { x.unwrap() }
                fn checked(x: u32) -> Option<u32> { Some(x) }
                "#,
            ),
        ]);
        let diags = lint_graph(&config(), &w);
        let l9: Vec<&Diagnostic> = diags.iter().filter(|d| d.id == LintId::L9).collect();
        assert_eq!(l9.len(), 1, "{l9:?}");
        assert_eq!(l9[0].file, "crates/docmodel/src/shred.rs");
        assert!(l9[0].message.contains("Impliance::query"));
        assert!(l9[0].witness.len() >= 3, "witness: {:?}", l9[0].witness);
        assert!(l9[0].witness[0].contains("Impliance::query"));
    }

    #[test]
    fn l9_respects_allow_and_test_code() {
        let w = ws(&[
            (
                "crates/core/src/appliance.rs",
                "impl Impliance { pub fn query(&self) -> u32 { shred(1) } }",
            ),
            (
                "crates/docmodel/src/shred.rs",
                r#"
                pub fn shred(x: u32) -> u32 {
                    // impliance-lint: allow(L9) checked above
                    checked(x).unwrap()
                }
                fn checked(x: u32) -> Option<u32> { Some(x) }
                #[cfg(test)]
                mod tests {
                    #[test]
                    fn t() { shred_helper().unwrap(); }
                }
                "#,
            ),
        ]);
        let diags = lint_graph(&config(), &w);
        assert!(diags.iter().all(|d| d.id != LintId::L9), "{diags:?}");
    }

    #[test]
    fn l10_flags_loop_allocations_in_operator_pull() {
        let w = ws(&[(
            "crates/query/src/myop.rs",
            r#"
            impl Operator for FilterOp {
                fn next_batch(&mut self) -> Option<Batch> {
                    let mut out = Vec::new();
                    for t in self.buf.iter() {
                        out.push(t.clone());
                        let s = format!("{t:?}");
                        keep(s);
                    }
                    Some(out)
                }
            }
            impl FilterOp {
                fn helper(&self) { for x in self.buf.iter() { x.clone(); } }
            }
            "#,
        )]);
        let diags = lint_graph(&config(), &w);
        let l10: Vec<&Diagnostic> = diags.iter().filter(|d| d.id == LintId::L10).collect();
        // clone + format! in next_batch loop; Vec::new outside the loop and
        // the non-next_batch helper stay silent
        assert_eq!(l10.len(), 2, "{l10:?}");
    }

    #[test]
    fn l10_applies_to_worker_files() {
        let w = ws(&[(
            "crates/query/src/parallel.rs",
            r#"
            pub fn worker_loop(pages: &[Page]) {
                while claim() {
                    let copy = pages.to_vec();
                    process(copy);
                }
            }
            "#,
        )]);
        let diags = lint_graph(&config(), &w);
        assert_eq!(
            diags.iter().filter(|d| d.id == LintId::L10).count(),
            1,
            "{diags:?}"
        );
    }

    #[test]
    fn l11_flags_guard_across_transitively_blocking_call() {
        let w = ws(&[(
            "crates/cluster/src/relay.rs",
            r#"
            impl Relay {
                pub fn push(&self) {
                    let g = self.state.lock();
                    self.flush_all();
                    drop(g);
                }
                fn flush_all(&self) { self.net.transmit(1, 2, 3); }
                pub fn safe(&self) {
                    let g = self.state.lock();
                    drop(g);
                    self.flush_all();
                }
            }
            "#,
        )]);
        let diags = lint_graph(&config(), &w);
        let l11: Vec<&Diagnostic> = diags.iter().filter(|d| d.id == LintId::L11).collect();
        assert_eq!(l11.len(), 1, "{l11:?}");
        assert!(l11[0].message.contains("`g`"));
        assert!(l11[0].message.contains("Network::transmit"));
        assert!(
            l11[0].witness.iter().any(|s| s.contains("flush_all")),
            "witness: {:?}",
            l11[0].witness
        );
    }

    #[test]
    fn l11_flags_direct_transmit_under_guard() {
        let w = ws(&[(
            "crates/cluster/src/relay.rs",
            r#"
            pub fn direct(net: &Network, state: &Mutex<u32>) {
                let g = state.lock();
                net.transmit(1, 2, 3);
                drop(g);
            }
            "#,
        )]);
        let diags = lint_graph(&config(), &w);
        assert_eq!(
            diags.iter().filter(|d| d.id == LintId::L11).count(),
            1,
            "{diags:?}"
        );
    }

    #[test]
    fn l11_flags_guard_across_channel_ops() {
        let w = ws(&[(
            "crates/cluster/src/relay.rs",
            r#"
            impl Relay {
                pub fn f(&self) {
                    let nodes = self.nodes.read();
                    self.tx.send(1).ok();
                    self.rx.try_recv().ok();
                }
                pub fn scoped(&self) {
                    { let nodes = self.nodes.read(); nodes.len(); }
                    self.tx.send(1).ok();
                    let n = self.nodes.read().len();
                    self.tx.try_send(n).ok();
                }
            }
            "#,
        )]);
        let diags = lint_graph(&config(), &w);
        let l11: Vec<&Diagnostic> = diags.iter().filter(|d| d.id == LintId::L11).collect();
        assert_eq!(l11.len(), 2, "{l11:?}");
        assert!(l11[0].message.contains("`nodes`") && l11[0].message.contains("channel send"));
    }

    #[test]
    fn l11_method_call_never_resolves_to_a_free_fn() {
        // `self.memtable.put(..)` is a method call: the free `put` that
        // blocks on a channel is not its callee, so the guard is fine
        let w = ws(&[
            (
                "crates/storage/src/partition.rs",
                r#"
                impl Partition {
                    pub fn put_at(&self, doc: u64) {
                        let guard = self.state.write();
                        self.memtable.put(doc);
                        drop(guard);
                    }
                }
                "#,
            ),
            (
                "crates/query/src/dist.rs",
                "pub fn put(rt: &Runtime) -> u64 { rt.reply.recv().unwrap_or(0) }",
            ),
        ]);
        let diags = lint_graph(&config(), &w);
        assert!(diags.iter().all(|d| d.id != LintId::L11), "{diags:?}");
    }

    #[test]
    fn l12_fails_closed_without_a_contract() {
        let diags = lint_l12(&config(), &ws(&[]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].file, "DESIGN.md");
        assert!(diags[0].message.contains("cannot be read"), "{diags:?}");
    }

    #[test]
    fn brace_expansion_and_matching() {
        let names = expand_braces("storage.{put,get}.{count,us}");
        assert_eq!(names.len(), 4);
        assert!(names.contains(&"storage.put.count".to_string()));
        let p = DocPattern {
            segments: vec![
                "query".into(),
                "op".into(),
                "<operator>".into(),
                "rows".into(),
            ],
            line: 1,
            text: "query.op.<operator>.rows".into(),
        };
        assert!(p.matches("query.op.scan.rows"));
        assert!(!p.matches("query.op.scan.us"));
        assert!(!p.is_concrete());
    }

    #[test]
    fn metric_shape_filter() {
        assert!(is_metric_shaped("storage.put.count"));
        assert!(is_metric_shaped("query.op.<operator>.us"));
        assert!(!is_metric_shaped("analysis_report.json"));
        assert!(!is_metric_shaped("Snapshot::metrics_json()"));
        assert!(!is_metric_shaped("nodots"));
        assert!(!is_metric_shaped("Upper.case"));
    }
}
