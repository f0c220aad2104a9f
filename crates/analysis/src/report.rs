//! Diagnostics, human-readable rendering, and a dependency-free JSON
//! layer: the writer behind `analysis_report.json` and a
//! recursive-descent reader (the obs snapshot tests parse with it).
//! serde is unavailable offline, so the small JSON dialect these need is
//! implemented here directly.

use std::collections::BTreeMap;
use std::fmt;

/// Identifier of an enforced invariant. The gaps are rules clippy
/// enforces now (L1-L3, L5, L8, L13), L4 (folded into L11) and the
/// retired L6; DESIGN.md "Invariants" maps every old id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintId {
    /// No `unwrap()` / `expect()` on cluster `submit_to` / `transmit`
    /// result chains in the resilient distributed executor — those calls
    /// fail by design under chaos schedules, and must degrade, not panic.
    /// Applies to test code too.
    L7,
    /// Panic-reachability: no `unwrap()` / `expect()` / `panic!` /
    /// `unreachable!` in non-test code transitively reachable from the
    /// public entry points (`Impliance::query`, `Operator::next_batch`
    /// impls, `dist::execute`) over the workspace call graph.
    L9,
    /// Hot-loop allocation: no allocating calls (`Vec::new`, `vec!`,
    /// `format!`, `.clone()`, `.to_vec()`, `.to_string()`,
    /// `String::from`) inside loops in operator `next_batch` bodies or
    /// the morsel worker loops (`parallel.rs`).
    L10,
    /// Guard-across-blocking: no `Mutex`/`RwLock` guard live across a
    /// channel operation or a call whose callee transitively reaches
    /// `Network::transmit`, a channel operation, or `BackoffClock::sleep`.
    L11,
    /// Metrics drift: every metric name literal recorded via the
    /// `impliance-obs` registry must be documented in DESIGN.md's
    /// Observability section, and every concrete documented name must be
    /// recorded somewhere in the workspace.
    L12,
}

impl LintId {
    /// All lints, in order.
    pub const ALL: [LintId; 5] = [
        LintId::L7,
        LintId::L9,
        LintId::L10,
        LintId::L11,
        LintId::L12,
    ];

    /// Stable string form (`"L7"`...).
    pub fn as_str(&self) -> &'static str {
        match self {
            LintId::L7 => "L7",
            LintId::L9 => "L9",
            LintId::L10 => "L10",
            LintId::L11 => "L11",
            LintId::L12 => "L12",
        }
    }

    /// Parse from the stable string form.
    pub fn parse(s: &str) -> Option<LintId> {
        LintId::ALL.into_iter().find(|id| id.as_str() == s)
    }

    /// One-line description of what the invariant protects.
    pub fn description(&self) -> &'static str {
        match self {
            LintId::L7 => {
                "no unwrap()/expect() on cluster submit_to/transmit chains in the resilient \
                 distributed executor (test code included)"
            }
            LintId::L9 => {
                "no unwrap()/expect()/panic!/unreachable! transitively reachable from the \
                 public entry points (Impliance::query, Operator::next_batch, \
                 dist::execute)"
            }
            LintId::L10 => {
                "no allocating calls (Vec::new/vec!/format!/.clone()/.to_vec()/.to_string()/\
                 String::from) inside loops in operator next_batch bodies or the morsel \
                 worker loops"
            }
            LintId::L11 => {
                "no Mutex/RwLock guard live across a channel send/recv or a call whose callee \
                 transitively reaches Network::transmit, a channel operation, or \
                 BackoffClock::sleep"
            }
            LintId::L12 => {
                "every metric name recorded via impliance-obs must be documented in \
                 DESIGN.md's Observability section, and vice versa"
            }
        }
    }

    /// Why the invariant exists — the paragraph `explain <Lx>` prints.
    pub fn rationale(&self) -> &'static str {
        match self {
            LintId::L7 => {
                "Chaos schedules make cluster calls fail on purpose; an unwrap on a \
                 submit_to/transmit chain converts an injected, recoverable fault into a \
                 panic — in tests too, which must assert on degraded outcomes."
            }
            LintId::L9 => {
                "The paper's self-managing appliance promise (§4) means no input may crash \
                 the box: any panic site transitively reachable from Impliance::query, an \
                 Operator::next_batch impl, or dist::execute is a denial-of-service \
                 bug waiting for the right input. clippy::unwrap_used denies panics in the \
                 hot-path crates one file at a time; L9 follows the call graph into every \
                 crate."
            }
            LintId::L10 => {
                "Every morsel worker runs the same per-tuple loop, so the pool multiplies \
                 its cost instead of hiding it (impbench reports query.parallel.speedup_group \
                 and query.exec.wide_rows_per_s_1w): each allocation in a next_batch or \
                 worker loop is a malloc per tuple per batch. Hot loops must reuse buffers; \
                 allocate once outside the loop."
            }
            LintId::L11 => {
                "Holding a Mutex/RwLock guard across a channel operation, or a call that \
                 (transitively) blocks on Network::transmit, a channel recv, or a backoff \
                 sleep, serializes every other thread on that lock behind simulated network \
                 latency and is the classic shape of the guard-across-await deadlock family."
            }
            LintId::L12 => {
                "With no DBA watching, the appliance explains itself through its metrics — \
                 so DESIGN.md's Observability section is the contract. An undocumented \
                 metric is invisible to operators; a documented-but-dead metric is a lie \
                 dashboards will be built on. A missing contract (no readable doc, or no \
                 metric names under its Observability heading) is itself a finding."
            }
        }
    }

    /// How the lint decides — heuristics and known approximations.
    pub fn heuristics(&self) -> &'static str {
        match self {
            LintId::L7 => {
                "Follows the direct method chain rooted at submit_to/submit_to_kind/\
                 map_kind/transmit; an unwrap/expect anywhere in the chain flags. A result \
                 bound first and unwrapped later is out of scope (caught by \
                 clippy::unwrap_used/L9)."
            }
            LintId::L9 => {
                "Builds a workspace call graph from a lightweight item parser (fn/impl/\
                 trait items over the lexer). Calls resolve by qualified path \
                 (`Type::name`) when present; a method call `x.name(..)` resolves to the \
                 workspace fns named `name` declared in an impl or trait block (receiver \
                 types are unknown, so every such method is a candidate), a bare call \
                 `name(..)` only to free fns. A fixed list of ubiquitous std-colliding \
                 method names like get/len/push/insert/iter/next/clone never resolves \
                 (under-approximate, documented in symbols.rs). Panic sites in reachable \
                 non-test fns are flagged, each with an entry-point witness path. Calls \
                 through function pointers, trait objects with renamed methods, and \
                 macros-generated fns are missed."
            }
            LintId::L10 => {
                "Scope: `next_batch` bodies in `impl Operator for ..` blocks plus every \
                 fn in the configured worker-loop files (parallel.rs). Within loop bodies \
                 (for/while/loop brace spans), flags Vec::new/String::from qualified \
                 calls, vec!/format! macros, and .clone()/.to_vec()/.to_string() method \
                 calls. Allocations hidden behind helper calls are not followed."
            }
            LintId::L11 => {
                "Tracks `let g = x.lock()/read()/write();` bindings per body; the guard \
                 dies at drop(g) or scope end, and chained temporaries (`x.lock().len()`) \
                 are not guards. A call made with a guard live is flagged when it is a \
                 direct sink (`.send(`/`.try_send(`/`.recv(`/`.try_recv(`/\
                 `.recv_timeout(`, `transmit`, `BackoffClock::sleep` / clock `.sleep(`) or \
                 when the call graph shows a resolved callee transitively reaching one. \
                 Each finding carries the guard-site -> callee -> sink witness path. Same \
                 resolution approximations as L9."
            }
            LintId::L12 => {
                "Collects string literals passed directly to `.counter(\"..\")` / \
                 `.gauge(\"..\")` / `.histogram(\"..\")` in non-test code, and parses \
                 DESIGN.md's Observability section for backticked metric names \
                 (`a.{b,c}.d` brace sets expand; `<seg>` segments are wildcards that \
                 match any recorded segment and are exempt from the dead-metric \
                 direction). Dynamically formatted metric names are invisible to the \
                 recorded side — document them with a wildcard."
            }
        }
    }

    /// Suppression syntax for `explain <Lx>`.
    pub fn suppression(&self) -> String {
        format!(
            "// impliance-lint: allow({id})  — on (or the line before) the flagged line, \
             with a justification",
            id = self.as_str()
        )
    }
}

impl fmt::Display for LintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which invariant was violated.
    pub id: LintId,
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The offending source line, whitespace-normalized.
    pub signature: String,
    /// Human message.
    pub message: String,
    /// Suggested fix.
    pub suggestion: String,
    /// For interprocedural findings (L9/L11): the call chain from an
    /// entry point (or guard site) to the offending call, rendered as
    /// `file:line fn_name` steps. Empty for single-function lints.
    pub witness: Vec<String>,
}

impl Diagnostic {
    /// `file:line: [Lx] message (suggestion)` — the human rendering,
    /// with the witness path (when present) as indented steps.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}:{}: [{}] {}\n    suggestion: {}",
            self.file, self.line, self.id, self.message, self.suggestion
        );
        if !self.witness.is_empty() {
            out.push_str("\n    witness:");
            for step in &self.witness {
                out.push_str("\n      -> ");
                out.push_str(step);
            }
        }
        out
    }
}

/// Parse `impliance-lint: allow(L9)` / `allow(L9, L11)` out of a comment.
/// Shared by the L7 token pass and the item parser.
pub fn parse_allow(comment: &str) -> Option<Vec<LintId>> {
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

// ---------------------------------------------------------------------
// JSON value + writer
// ---------------------------------------------------------------------

/// Minimal JSON value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// null
    Null,
    /// true / false
    Bool(bool),
    /// Numbers (always written as f64; integral values print without `.0`).
    Num(f64),
    /// String
    Str(String),
    /// Array
    Arr(Vec<Json>),
    /// Object — BTreeMap so output is deterministic and diffs are stable.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object member access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize with 2-space indentation (stable, diff-friendly).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let pad_in = "  ".repeat(indent + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad_in);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    out.push_str(&pad_in);
                    write_json_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < map.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------

/// Parse a JSON document. Returns a message on malformed input.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let chars: Vec<char> = input.chars().collect();
    let mut pos = 0usize;
    let value = parse_value(&chars, &mut pos)?;
    skip_ws(&chars, &mut pos);
    if pos != chars.len() {
        return Err(format!("trailing characters at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(chars: &[char], pos: &mut usize) {
    while *pos < chars.len() && chars[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn parse_value(chars: &[char], pos: &mut usize) -> Result<Json, String> {
    skip_ws(chars, pos);
    match chars.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some('{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(chars, pos);
            if chars.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(chars, pos);
                let key = match parse_value(chars, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be string, got {other:?}")),
                };
                skip_ws(chars, pos);
                if chars.get(*pos) != Some(&':') {
                    return Err(format!("expected ':' at offset {pos}", pos = *pos));
                }
                *pos += 1;
                let value = parse_value(chars, pos)?;
                map.insert(key, value);
                skip_ws(chars, pos);
                match chars.get(*pos) {
                    Some(',') => {
                        *pos += 1;
                    }
                    Some('}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    other => return Err(format!("expected ',' or '}}', got {other:?}")),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(chars, pos);
            if chars.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(chars, pos)?);
                skip_ws(chars, pos);
                match chars.get(*pos) {
                    Some(',') => {
                        *pos += 1;
                    }
                    Some(']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    other => return Err(format!("expected ',' or ']', got {other:?}")),
                }
            }
        }
        Some('"') => {
            *pos += 1;
            let mut s = String::new();
            while let Some(&c) = chars.get(*pos) {
                *pos += 1;
                match c {
                    '"' => return Ok(Json::Str(s)),
                    '\\' => {
                        let esc = chars.get(*pos).copied().ok_or("bad escape")?;
                        *pos += 1;
                        match esc {
                            'n' => s.push('\n'),
                            'r' => s.push('\r'),
                            't' => s.push('\t'),
                            'u' => {
                                let hex: String = chars
                                    .get(*pos..*pos + 4)
                                    .unwrap_or_default()
                                    .iter()
                                    .collect();
                                *pos += 4;
                                let cp = u32::from_str_radix(&hex, 16)
                                    .map_err(|e| format!("bad \\u escape: {e}"))?;
                                s.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                            }
                            other => s.push(other),
                        }
                    }
                    c => s.push(c),
                }
            }
            Err("unterminated string".into())
        }
        Some(c) if *c == '-' || c.is_ascii_digit() => {
            let start = *pos;
            while let Some(&c) = chars.get(*pos) {
                if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                    *pos += 1;
                } else {
                    break;
                }
            }
            let text: String = chars[start..*pos].iter().collect();
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
        Some('t') if chars[*pos..].starts_with(&['t', 'r', 'u', 'e']) => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some('f') if chars[*pos..].starts_with(&['f', 'a', 'l', 's', 'e']) => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some('n') if chars[*pos..].starts_with(&['n', 'u', 'l', 'l']) => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) => Err(format!("unexpected character {c:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let mut obj = BTreeMap::new();
        obj.insert(
            "name".to_string(),
            Json::Str("a \"quoted\"\nvalue".to_string()),
        );
        obj.insert("count".to_string(), Json::Num(473.0));
        obj.insert(
            "nested".to_string(),
            Json::Arr(vec![Json::Bool(true), Json::Null]),
        );
        let doc = Json::Obj(obj);
        let text = doc.pretty();
        let back = parse_json(&text).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{ \"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = parse_json(r#""snow☃man""#).unwrap();
        assert_eq!(v.as_str(), Some("snow☃man"));
    }
}
