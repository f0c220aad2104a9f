//! A lightweight item parser on top of [`crate::lexer`], feeding the
//! interprocedural lints (L9-L12).
//!
//! The parser recognizes `impl`/`trait`/`fn` items and reduces each
//! function body to the streams the call-graph lints need:
//!
//! * **call sites** — every `name(..)`, `recv.name(..)`, `Path::name(..)`
//!   and `name!(..)` occurrence, annotated with the loop depth and the
//!   set of lock guards live at the call;
//! * **metric sites** — string literals passed directly to
//!   `.counter("..")` / `.gauge("..")` / `.histogram("..")` (for L12);
//! * **suppressions** — `impliance-lint: allow(Lx)` comments, resolved to
//!   `(lint, line)` pairs exactly as the L7 token pass does.
//!
//! Known approximations (deliberate — the environment has no `syn`):
//! nested `fn` items are parsed as their own functions and excluded from
//! the parent's call stream, but closures stay attributed to the
//! enclosing fn; calls in a loop *header* (`for x in f() {`) take the
//! loop depth of the enclosing scope, not the new loop; tuple-struct and
//! enum-variant constructions (`Some(x)`) lex like calls but resolve to
//! nothing in the symbol table, so they are harmless.

use std::collections::{HashMap, HashSet};

use crate::lexer::{lex, Lexed, Token, TokenKind};
use crate::report::{parse_allow, LintId};

/// One parsed source file: its function items plus file-level side
/// channels the interprocedural lints consume.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// Every `fn` item with a body, in source order (nested fns too).
    pub fns: Vec<FnItem>,
    /// Metric name literals registered in this file: `(name, line, in_test)`.
    pub metric_sites: Vec<MetricSite>,
    /// `(lint, line)` pairs suppressed by `impliance-lint: allow(..)`.
    pub allows: HashSet<(LintId, u32)>,
}

/// A string literal passed directly to a metrics-registry constructor.
#[derive(Debug)]
pub struct MetricSite {
    /// The metric name (literal contents, quotes stripped).
    pub name: String,
    /// 1-based line of the literal.
    pub line: u32,
    /// Whether the registration is inside test code.
    pub in_test: bool,
    /// The source line text, whitespace-normalized (diagnostic signature).
    pub signature: String,
}

/// One `fn` item with a body.
#[derive(Debug)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Surrounding `impl`/`trait` type name (`Impliance` for
    /// `impl Impliance { fn query .. }`), if any.
    pub owner: Option<String>,
    /// Trait being implemented (`Operator` for `impl Operator for X`),
    /// or the trait's own name for default methods in `trait X { .. }`.
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Inside `#[cfg(test)]` / `#[test]` code.
    pub is_test: bool,
    /// Call sites in the body, in source order.
    pub calls: Vec<CallSite>,
}

impl FnItem {
    /// `Owner::name` when inside an impl/trait, else the bare name.
    pub fn qual_name(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A lock guard live at a call site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GuardRef {
    /// Binding name (`let g = x.lock();` -> `g`).
    pub name: String,
    /// Line the guard was taken on.
    pub line: u32,
}

/// One call-shaped occurrence inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// Callee name (`transmit` in `net.transmit(..)`, `new` in
    /// `Vec::new()`, `format` in `format!(..)`).
    pub callee: String,
    /// Path qualifier, when called as `Qual::callee(..)`.
    pub qualifier: Option<String>,
    /// `recv.callee(..)` — a method call.
    pub is_method: bool,
    /// `self.callee(..)` — a method call on the caller's own receiver.
    pub on_self: bool,
    /// `callee!(..)` — a macro invocation.
    pub is_macro: bool,
    /// 1-based line.
    pub line: u32,
    /// How many loop bodies enclose this call.
    pub loop_depth: u32,
    /// Lock guards live at the call (see [`guard_binding`]).
    pub guards: Vec<GuardRef>,
}

/// Keywords that read like calls when followed by `(`.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "let", "fn", "move", "ref", "in",
    "as", "where", "impl", "use", "pub", "mod", "unsafe", "dyn", "box", "break", "continue",
    "crate", "super", "self", "Self", "trait", "struct", "enum", "union", "static", "const",
    "type", "extern", "async", "await",
];

/// Parse one source file into its item/call streams.
pub fn parse_file(path: &str, source: &str) -> ParsedFile {
    let lexed = lex(source);
    let toks = &lexed.tokens;
    let test_marks = mark_test_tokens(&lexed);
    let lines: Vec<&str> = source.lines().collect();

    let mut allows = HashSet::new();
    for comment in &lexed.comments {
        if let Some(ids) = parse_allow(&comment.text) {
            for id in ids {
                for line in comment.line..=comment.end_line + 1 {
                    allows.insert((id, line));
                }
            }
        }
    }

    let mut out = ParsedFile {
        path: path.to_string(),
        fns: Vec::new(),
        metric_sites: Vec::new(),
        allows,
    };

    // Stack of surrounding impl/trait regions: (end token idx, owner, trait).
    let mut regions: Vec<(usize, String, Option<String>)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        while regions.last().is_some_and(|r| i > r.0) {
            regions.pop();
        }
        let text = toks[i].text.as_str();
        if toks[i].kind == TokenKind::Ident && (text == "impl" || text == "trait") {
            if let Some((owner, trait_name, open)) = parse_impl_header(toks, i, text == "trait") {
                let end = match_brace(toks, open);
                regions.push((end, owner, trait_name));
                i = open + 1; // descend into the impl/trait body
                continue;
            }
        }
        if toks[i].kind == TokenKind::Ident && text == "fn" {
            let (owner, trait_name) = match regions.last() {
                Some((_, o, t)) => (Some(o.clone()), t.clone()),
                None => (None, None),
            };
            if let Some(next) = parse_fn(toks, i, owner, trait_name, &test_marks, &lines, &mut out)
            {
                i = next;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Mark every token inside `#[cfg(test)] mod .. { }` bodies and
/// `#[test]`-attributed items as test code.
fn mark_test_tokens(lexed: &Lexed) -> Vec<bool> {
    let toks = &lexed.tokens;
    let mut marked = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" && toks.get(i + 1).map(|t| t.text.as_str()) == Some("[") {
            let is_cfg_test = toks.get(i + 2).map(|t| t.text.as_str()) == Some("cfg")
                && toks.get(i + 3).map(|t| t.text.as_str()) == Some("(")
                && toks.get(i + 4).map(|t| t.text.as_str()) == Some("test");
            let is_test_attr = toks.get(i + 2).map(|t| t.text.as_str()) == Some("test")
                && toks.get(i + 3).map(|t| t.text.as_str()) == Some("]");
            if is_cfg_test || is_test_attr {
                // skip to the end of the attribute
                let mut j = i + 2;
                let mut bracket_depth = 1;
                while j < toks.len() && bracket_depth > 0 {
                    match toks[j].text.as_str() {
                        "[" => bracket_depth += 1,
                        "]" => bracket_depth -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                // scan forward to the item's opening brace; bail on `;`
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

/// From an `impl`/`trait` keyword, extract `(owner, trait_name, body open
/// brace index)`. `impl A for B { .. }` -> (B, Some(A));
/// `impl B { .. }` -> (B, None); `trait T { .. }` -> (T, Some(T)).
fn parse_impl_header(
    toks: &[Token],
    kw: usize,
    is_trait: bool,
) -> Option<(String, Option<String>, usize)> {
    let mut j = kw + 1;
    j = skip_angles(toks, j);
    let (first, mut j) = read_path_tail(toks, j)?;
    let (owner, trait_name);
    if !is_trait && toks.get(j).map(|t| t.text.as_str()) == Some("for") {
        let (second, j2) = read_path_tail(toks, j + 1)?;
        owner = second;
        trait_name = Some(first);
        j = j2;
    } else if is_trait {
        owner = first.clone();
        trait_name = Some(first);
    } else {
        owner = first;
        trait_name = None;
    }
    // skip the where clause (if any) to the body `{`; bail on `;`
    let mut paren_depth = 0i32;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" => paren_depth += 1,
            ")" => paren_depth -= 1,
            "{" if paren_depth == 0 => return Some((owner, trait_name, j)),
            ";" if paren_depth == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Skip a balanced `<..>` group if one starts at `j`.
fn skip_angles(toks: &[Token], j: usize) -> usize {
    if toks.get(j).map(|t| t.text.as_str()) != Some("<") {
        return j;
    }
    let mut depth = 0i32;
    let mut k = j;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
        k += 1;
    }
    k
}

/// Read a type path (`a::b::Name<..>`, `&mut Name`, `dyn Name`) starting
/// at `j`; return the final segment's identifier and the index after the
/// path.
fn read_path_tail(toks: &[Token], mut j: usize) -> Option<(String, usize)> {
    // skip reference/pointer/dyn prefixes and lifetimes
    while j < toks.len() {
        match toks[j].text.as_str() {
            "&" | "mut" | "dyn" => j += 1,
            _ if toks[j].kind == TokenKind::Lifetime => j += 1,
            _ => break,
        }
    }
    let mut last: Option<String> = None;
    loop {
        let tok = toks.get(j)?;
        if tok.kind != TokenKind::Ident {
            break;
        }
        last = Some(tok.text.clone());
        j += 1;
        j = skip_angles(toks, j);
        if toks.get(j).map(|t| t.text.as_str()) == Some(":")
            && toks.get(j + 1).map(|t| t.text.as_str()) == Some(":")
        {
            j += 2;
            continue;
        }
        break;
    }
    last.map(|name| (name, j))
}

/// Index of the `}` matching the `{` at `open`.
fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut m = open;
    while m < toks.len() {
        match toks[m].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return m;
                }
            }
            _ => {}
        }
        m += 1;
    }
    toks.len() - 1
}

/// Parse a `fn` item starting at keyword index `kw`. On success pushes
/// the item (and any nested fns) into `out` and returns the index after
/// the body; `None` for bodyless declarations.
#[allow(clippy::too_many_arguments)]
fn parse_fn(
    toks: &[Token],
    kw: usize,
    owner: Option<String>,
    trait_name: Option<String>,
    test_marks: &[bool],
    lines: &[&str],
    out: &mut ParsedFile,
) -> Option<usize> {
    let name_tok = toks.get(kw + 1)?;
    if name_tok.kind != TokenKind::Ident {
        return None; // `fn(..)` pointer type, not an item
    }
    // find the body `{` at paren depth 0; `;` means no body
    let mut j = kw + 2;
    let mut paren_depth = 0i32;
    let open = loop {
        match toks.get(j).map(|t| t.text.as_str()) {
            Some("(") => paren_depth += 1,
            Some(")") => paren_depth -= 1,
            Some("{") if paren_depth == 0 => break j,
            Some(";") if paren_depth == 0 => return Some(j + 1),
            None => return None,
            _ => {}
        }
        j += 1;
    };
    let close = match_brace(toks, open);
    let is_test = test_marks.get(kw).copied().unwrap_or(false);
    let mut item = FnItem {
        name: name_tok.text.clone(),
        owner,
        trait_name,
        line: toks[kw].line,
        is_test,
        calls: Vec::new(),
    };
    parse_body(toks, open, close, test_marks, lines, &mut item, out);
    out.fns.push(item);
    Some(close + 1)
}

/// Walk a function body, emitting call sites with loop/guard context.
/// Nested `fn` items are parsed recursively and excluded from the parent
/// stream; closures stay in the parent.
fn parse_body(
    toks: &[Token],
    open: usize,
    close: usize,
    test_marks: &[bool],
    lines: &[&str],
    item: &mut FnItem,
    out: &mut ParsedFile,
) {
    // Pre-scan for loop bodies so loop depth is known when walking.
    let mut loop_opens: HashMap<usize, usize> = HashMap::new();
    let mut s = open + 1;
    while s < close {
        if toks[s].kind == TokenKind::Ident
            && matches!(toks[s].text.as_str(), "for" | "while" | "loop")
        {
            let mut k = s + 1;
            let mut paren_depth = 0i32;
            while k < close {
                match toks[k].text.as_str() {
                    "(" => paren_depth += 1,
                    ")" => paren_depth -= 1,
                    "{" if paren_depth == 0 => {
                        loop_opens.insert(k, match_brace(toks, k));
                        break;
                    }
                    ";" if paren_depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
        }
        s += 1;
    }

    let mut depth = 0i32;
    let mut guards: Vec<(GuardRef, i32)> = Vec::new();
    let mut active_loops: Vec<usize> = Vec::new(); // close indexes
    let mut i = open;
    while i <= close {
        active_loops.retain(|&end| i <= end);
        if let Some(&end) = loop_opens.get(&i) {
            active_loops.push(end);
        }
        let text = toks[i].text.as_str();
        match text {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                guards.retain(|(_, d)| *d <= depth);
            }
            "let" if toks[i].kind == TokenKind::Ident => {
                if let Some((name, end)) = guard_binding(toks, i, close) {
                    guards.push((
                        GuardRef {
                            name,
                            line: toks[i].line,
                        },
                        depth,
                    ));
                    i = end;
                    continue;
                }
            }
            "drop"
                if toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
                    && toks.get(i + 3).map(|t| t.text.as_str()) == Some(")") =>
            {
                if let Some(dropped) = toks.get(i + 2) {
                    guards.retain(|(g, _)| g.name != dropped.text);
                }
            }
            "fn" if toks[i].kind == TokenKind::Ident && i > open => {
                // nested fn item: parse on its own, skip in the parent
                if let Some(next) = parse_fn(toks, i, None, None, test_marks, lines, out) {
                    i = next;
                    continue;
                }
            }
            _ if toks[i].kind == TokenKind::Ident && !KEYWORDS.contains(&text) => {
                let next = toks.get(i + 1).map(|t| t.text.as_str());
                let is_macro = next == Some("!")
                    && matches!(
                        toks.get(i + 2).map(|t| t.text.as_str()),
                        Some("(") | Some("[") | Some("{")
                    );
                let is_call = next == Some("(");
                if is_macro || is_call {
                    let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
                    let is_method = prev == Some(".");
                    let qualifier = if !is_method
                        && prev == Some(":")
                        && i >= 2
                        && toks[i - 2].text == ":"
                        && i >= 3
                        && toks[i - 3].kind == TokenKind::Ident
                    {
                        Some(toks[i - 3].text.clone())
                    } else {
                        None
                    };
                    item.calls.push(CallSite {
                        callee: text.to_string(),
                        qualifier,
                        is_method,
                        on_self: is_method && i >= 2 && toks[i - 2].text == "self",
                        is_macro,
                        line: toks[i].line,
                        loop_depth: active_loops.len() as u32,
                        guards: guards.iter().map(|(g, _)| g.clone()).collect(),
                    });
                    // metric registration literal (L12)
                    if is_method
                        && matches!(text, "counter" | "gauge" | "histogram")
                        && toks.get(i + 2).map(|t| t.kind == TokenKind::Literal) == Some(true)
                        && toks.get(i + 2).map(|t| t.text.starts_with('"')) == Some(true)
                    {
                        let lit = &toks[i + 2];
                        out.metric_sites.push(MetricSite {
                            name: lit.text.trim_matches('"').to_string(),
                            line: lit.line,
                            in_test: item.is_test || test_marks.get(i).copied().unwrap_or(false),
                            signature: normalize_line(lines, lit.line),
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Whitespace-normalized source line (diagnostic signature), 1-based.
pub fn normalize_line(lines: &[&str], line: u32) -> String {
    let text = lines.get(line as usize - 1).copied().unwrap_or("");
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

/// If tokens at `let_idx` form `let [mut] name = .. .lock|read|write ( ) ;`
/// (the lock call terminating the statement), return the guard name and
/// the index of the `;`.
fn guard_binding(toks: &[Token], let_idx: usize, limit: usize) -> Option<(String, usize)> {
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
        return None; // typed `let x: T = ..` or something else
    }
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

    fn parse(src: &str) -> ParsedFile {
        parse_file("crates/x/src/lib.rs", src)
    }

    #[test]
    fn impl_and_trait_items_get_owners() {
        let src = r#"
            pub struct Impliance;
            impl Impliance {
                pub fn query(&self) -> u32 { helper() }
            }
            impl Operator for FilterOp {
                fn next_batch(&mut self) -> Option<u32> { None }
            }
            trait Widget {
                fn draw(&self) { self.paint(); }
                fn area(&self) -> u32;
            }
            fn helper() -> u32 { 7 }
        "#;
        let parsed = parse(src);
        let names: Vec<String> = parsed.fns.iter().map(|f| f.qual_name()).collect();
        assert_eq!(
            names,
            vec![
                "Impliance::query",
                "FilterOp::next_batch",
                "Widget::draw",
                "helper"
            ]
        );
        let nb = &parsed.fns[1];
        assert_eq!(nb.trait_name.as_deref(), Some("Operator"));
        let draw = &parsed.fns[2];
        assert_eq!(draw.trait_name.as_deref(), Some("Widget"));
        assert!(parsed.fns[0].calls.iter().any(|c| c.callee == "helper"));
    }

    #[test]
    fn generics_and_where_clauses_parse() {
        let src = r#"
            impl<'a, T: Clone + Iterator<Item = u8>> Operator for Scan<'a, T>
            where
                T: Send,
            {
                fn next_batch(&mut self) -> Option<T> { self.pull() }
            }
        "#;
        let parsed = parse(src);
        assert_eq!(parsed.fns.len(), 1);
        assert_eq!(parsed.fns[0].qual_name(), "Scan::next_batch");
        assert_eq!(parsed.fns[0].trait_name.as_deref(), Some("Operator"));
    }

    #[test]
    fn call_sites_carry_qualifiers_and_shapes() {
        let src = r#"
            fn f(x: &Net) {
                let v = Vec::new();
                x.transmit(1, 2, 3);
                free_call(v);
                format!("{}", 1);
            }
        "#;
        let calls = &parse(src).fns[0].calls;
        let find = |n: &str| calls.iter().find(|c| c.callee == n).unwrap();
        assert_eq!(find("new").qualifier.as_deref(), Some("Vec"));
        assert!(find("transmit").is_method);
        assert!(!find("free_call").is_method);
        assert!(find("format").is_macro);
    }

    #[test]
    fn loop_depth_tracks_nested_loops_not_headers() {
        let src = r#"
            fn f(rows: &[u32]) {
                setup();
                for r in rows.iter() {
                    once(r);
                    while more() {
                        twice(r);
                    }
                }
                teardown();
            }
        "#;
        let calls = &parse(src).fns[0].calls;
        let depth = |n: &str| calls.iter().find(|c| c.callee == n).unwrap().loop_depth;
        assert_eq!(depth("setup"), 0);
        assert_eq!(depth("iter"), 0, "loop header runs once");
        assert_eq!(depth("once"), 1);
        assert_eq!(depth("twice"), 2);
        assert_eq!(depth("teardown"), 0);
    }

    #[test]
    fn guards_attach_to_calls_until_drop_or_scope_end() {
        let src = r#"
            fn f(&self) {
                let g = self.state.lock();
                with_guard();
                drop(g);
                without_guard();
                {
                    let h = self.other.read();
                    inner();
                }
                after_scope();
            }
        "#;
        let calls = &parse(src).fns[0].calls;
        let guards = |n: &str| calls.iter().find(|c| c.callee == n).unwrap().guards.clone();
        assert_eq!(guards("with_guard").len(), 1);
        assert_eq!(guards("with_guard")[0].name, "g");
        assert!(guards("without_guard").is_empty());
        assert_eq!(guards("inner")[0].name, "h");
        assert!(guards("after_scope").is_empty());
    }

    #[test]
    fn nested_fns_split_out_of_parent() {
        let src = r#"
            fn outer() {
                fn inner() { deep_call(); }
                outer_call();
            }
        "#;
        let parsed = parse(src);
        let outer = parsed.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = parsed.fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(outer.calls.iter().all(|c| c.callee != "deep_call"));
        assert!(inner.calls.iter().any(|c| c.callee == "deep_call"));
    }

    #[test]
    fn test_marks_and_allows_flow_through() {
        let src = r#"
            // impliance-lint: allow(L9)
            fn risky() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { probe(); }
            }
        "#;
        let parsed = parse(src);
        assert!(parsed.allows.contains(&(LintId::L9, 3)));
        let t = parsed.fns.iter().find(|f| f.name == "t").unwrap();
        assert!(t.is_test);
        assert!(
            !parsed
                .fns
                .iter()
                .find(|f| f.name == "risky")
                .unwrap()
                .is_test
        );
    }

    #[test]
    fn metric_sites_collect_literals_only() {
        let src = r#"
            fn install(m: &MetricsRegistry, name: &str) {
                m.counter("a.count");
                m.histogram("a.us", &BUCKETS);
                m.gauge(name);
                m.counter(&format!("dyn.{name}"));
            }
        "#;
        let parsed = parse(src);
        let names: Vec<&str> = parsed
            .metric_sites
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(names, vec!["a.count", "a.us"]);
    }

    #[test]
    fn raw_string_bodies_do_not_confuse_the_parser() {
        let src = r##"
            fn render() -> &'static str {
                let tpl = r#"fn fake() { panic!("not real") } for { }"#;
                real_call(tpl)
            }
        "##;
        let parsed = parse(src);
        assert_eq!(parsed.fns.len(), 1);
        let calls = &parsed.fns[0].calls;
        assert!(calls.iter().any(|c| c.callee == "real_call"));
        assert!(calls.iter().all(|c| c.callee != "panic"));
    }
}
