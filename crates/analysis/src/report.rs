//! Diagnostics, human-readable rendering, and a dependency-free JSON
//! layer (writer + recursive-descent reader) used for
//! `analysis_report.json` and `lint_baseline.json`. serde is unavailable
//! offline, so the small JSON dialect these files need is implemented
//! here directly.

use std::collections::BTreeMap;
use std::fmt;

/// Identifier of an enforced invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintId {
    /// No `unwrap()` / `expect()` / `panic!` in hot-path library code.
    L1,
    /// Cluster traffic must flow through the byte-accounted `Network`.
    L2,
    /// No wall-clock reads in simulation-deterministic cluster code.
    L3,
    /// No lock guard held across a channel `send` / `recv`.
    L4,
    /// Library crates must not print to stdout/stderr — diagnostics flow
    /// through the observability layer (`impliance-obs`), not the console.
    L5,
    /// No `unwrap()` / `expect()` on cluster `submit_to` / `transmit`
    /// result chains in the resilient distributed executor — those calls
    /// fail by design under chaos schedules, and must degrade, not panic.
    /// Unlike L1 this applies to test code too.
    L7,
    /// No raw `std::thread::spawn` in the query crate outside the morsel
    /// pool (`parallel.rs`) — ad-hoc threads escape the worker accounting,
    /// panic propagation, and queue-depth observability of `scoped_map`.
    L8,
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
    /// Interprocedural guard-across-blocking: no `Mutex`/`RwLock` guard
    /// live across a call whose callee transitively reaches
    /// `Network::transmit`, a channel `recv`, or `BackoffClock::sleep`.
    L11,
    /// Metrics drift: every metric name literal recorded via the
    /// `impliance-obs` registry must be documented in DESIGN.md's
    /// Observability section, and every concrete documented name must be
    /// recorded somewhere in the workspace.
    L12,
    /// Retrieval goes through the query pipeline: no direct
    /// `index::search` calls (`search::search`, `search_topk`,
    /// `search_phrase`) outside `crates/query` / `crates/index` — every
    /// other crate reaches text search via `Impliance::query` match
    /// clauses or `impliance_query::keyword_candidates`.
    L13,
}

impl LintId {
    /// All lints, in order.
    pub const ALL: [LintId; 12] = [
        LintId::L1,
        LintId::L2,
        LintId::L3,
        LintId::L4,
        LintId::L5,
        LintId::L7,
        LintId::L8,
        LintId::L9,
        LintId::L10,
        LintId::L11,
        LintId::L12,
        LintId::L13,
    ];

    /// Stable string form (`"L1"`...).
    pub fn as_str(&self) -> &'static str {
        match self {
            LintId::L1 => "L1",
            LintId::L2 => "L2",
            LintId::L3 => "L3",
            LintId::L4 => "L4",
            LintId::L5 => "L5",
            LintId::L7 => "L7",
            LintId::L8 => "L8",
            LintId::L9 => "L9",
            LintId::L10 => "L10",
            LintId::L11 => "L11",
            LintId::L12 => "L12",
            LintId::L13 => "L13",
        }
    }

    /// Parse from the stable string form.
    pub fn parse(s: &str) -> Option<LintId> {
        match s {
            "L1" => Some(LintId::L1),
            "L2" => Some(LintId::L2),
            "L3" => Some(LintId::L3),
            "L4" => Some(LintId::L4),
            "L5" => Some(LintId::L5),
            "L7" => Some(LintId::L7),
            "L8" => Some(LintId::L8),
            "L9" => Some(LintId::L9),
            "L10" => Some(LintId::L10),
            "L11" => Some(LintId::L11),
            "L12" => Some(LintId::L12),
            "L13" => Some(LintId::L13),
            _ => None,
        }
    }

    /// One-line description of what the invariant protects.
    pub fn description(&self) -> &'static str {
        match self {
            LintId::L1 => "no unwrap()/expect()/panic! in hot-path library code",
            LintId::L2 => "cluster sends/sleeps must go through the Network accounting layer",
            LintId::L3 => {
                "no Instant::now/SystemTime::now in simulation-deterministic cluster code"
            }
            LintId::L4 => "no Mutex/RwLock guard held across a channel send/recv",
            LintId::L5 => "no print!/println!/eprint!/eprintln! in library crates",
            LintId::L7 => {
                "no unwrap()/expect() on cluster submit_to/transmit chains in the resilient \
                 distributed executor (test code included)"
            }
            LintId::L8 => {
                "no raw std::thread::spawn in the query crate outside the morsel worker pool \
                 (parallel.rs)"
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
                "no Mutex/RwLock guard live across a call whose callee transitively reaches \
                 Network::transmit, a channel recv, or BackoffClock::sleep"
            }
            LintId::L12 => {
                "every metric name recorded via impliance-obs must be documented in \
                 DESIGN.md's Observability section, and vice versa"
            }
            LintId::L13 => {
                "direct index search entry points (search::search, search_topk, \
                 search_phrase) may only be called from crates/query and \
                 crates/index; everyone else goes through the query API"
            }
        }
    }

    /// Why the invariant exists — the paragraph `explain <Lx>` prints.
    pub fn rationale(&self) -> &'static str {
        match self {
            LintId::L1 => {
                "The storage/query/index/cluster/core crates are the appliance's hot path; a \
                 panic there aborts a worker mid-query and (under the morsel pool) takes the \
                 whole pipeline down. Errors must be values on the hot path."
            }
            LintId::L2 => {
                "Every byte the simulated cluster moves must be charged to the Network \
                 accounting layer, or the bench numbers lie. Raw channel sends and \
                 thread::sleep bypass both the byte ledger and simulated time."
            }
            LintId::L3 => {
                "Cluster simulations replay seeded fault schedules; reading the wall clock \
                 makes replays diverge between hosts and turns deterministic chaos tests \
                 into flakes."
            }
            LintId::L4 => {
                "A lock guard held across a channel send/recv couples the lock's critical \
                 section to the channel's latency and is the classic shape of the \
                 guard-across-await deadlock family."
            }
            LintId::L5 => {
                "Library output flows through impliance-obs so harnesses emit \
                 machine-readable streams; a stray println! corrupts golden stdout and is \
                 invisible to library consumers."
            }
            LintId::L7 => {
                "Chaos schedules make cluster calls fail on purpose; an unwrap on a \
                 submit_to/transmit chain converts an injected, recoverable fault into a \
                 panic — in tests too, which must assert on degraded outcomes."
            }
            LintId::L8 => {
                "The morsel pool owns worker accounting, queue-depth gauges, and panic \
                 re-raising; raw thread::spawn creates threads invisible to all of it and \
                 can silently swallow panics via detached handles."
            }
            LintId::L9 => {
                "The paper's self-managing appliance promise (§4) means no input may crash \
                 the box: any panic site transitively reachable from Impliance::query, an \
                 Operator::next_batch impl, or dist::execute is a denial-of-service \
                 bug waiting for the right input. L1 checks single files in hot-path \
                 crates; L9 follows the call graph into every crate."
            }
            LintId::L10 => {
                "Every morsel worker runs the same per-tuple loop, so the pool multiplies \
                 its cost instead of hiding it (impbench reports query.parallel.speedup_group \
                 and query.exec.wide_rows_per_s_1w): each allocation in a next_batch or \
                 worker loop is a malloc per tuple per batch. Hot loops must reuse buffers; \
                 allocate once outside the loop."
            }
            LintId::L11 => {
                "Holding a Mutex/RwLock guard across a call that (transitively) blocks on \
                 Network::transmit, a channel recv, or a backoff sleep serializes every \
                 other thread on that lock behind simulated network latency. L4 sees only \
                 one function body; L11 follows callees across the call graph."
            }
            LintId::L12 => {
                "With no DBA watching, the appliance explains itself through its metrics — \
                 so DESIGN.md's Observability section is the contract. An undocumented \
                 metric is invisible to operators; a documented-but-dead metric is a lie \
                 dashboards will be built on."
            }
            LintId::L13 => {
                "Hybrid retrieval is one pipeline: BM25 scoring, top-k early \
                 termination, fusion, admission control, and the index_epoch freshness \
                 watermark all live on the IndexScan path behind Impliance::query. A \
                 crate that calls index::search directly gets unscored, unmetered, \
                 unwatermarked results and silently bypasses workload management — the \
                 exact split-brain the query API redesign removed."
            }
        }
    }

    /// How the lint decides — heuristics and known approximations.
    pub fn heuristics(&self) -> &'static str {
        match self {
            LintId::L1 => {
                "Lexical scan of non-test tokens in configured hot-path crates for \
                 `.unwrap(` / `.expect(` / `panic!`. #[cfg(test)] modules and #[test] fns \
                 are excluded."
            }
            LintId::L2 => {
                "Per function body: a `.send(`/`.try_send(` is flagged unless a \
                 `transmit(` call appears earlier in the same body; `::sleep(` always \
                 flags. The Network impl itself is exempt via config."
            }
            LintId::L3 => {
                "Flags `Instant::now` / `SystemTime::now` tokens in cluster-scoped files \
                 outside the clock exemptions."
            }
            LintId::L4 => {
                "Tracks `let g = x.lock()/read()/write();` bindings per body; the guard \
                 dies at drop(g) or scope end. Chained temporaries (`x.lock().len()`) are \
                 not guards. Guards smuggled through helper returns are missed (see L11 \
                 for the interprocedural case)."
            }
            LintId::L5 => {
                "Flags print-family macro tokens in library files; binaries (main.rs, \
                 src/bin/), the bench/analysis crates, and test code are exempt."
            }
            LintId::L7 => {
                "Follows the direct method chain rooted at submit_to/submit_to_kind/\
                 map_kind/transmit; an unwrap/expect anywhere in the chain flags. A result \
                 bound first and unwrapped later is out of scope (caught by L1/L9)."
            }
            LintId::L8 => {
                "Flags `thread::spawn(` tokens in query-crate files outside parallel.rs; \
                 scoped `s.spawn(` and test code pass."
            }
            LintId::L9 => {
                "Builds a workspace call graph from a lightweight item parser (fn/impl/\
                 trait items over the lexer). Calls resolve by qualified path \
                 (`Type::name`) when present, else by bare name; receiver types are \
                 unknown, so method calls resolve to every workspace method of that name \
                 (over-approximate) except a fixed list of ubiquitous std-colliding names \
                 like get/len/push/insert/iter/next/clone (under-approximate, documented \
                 in symbols.rs). Panic sites in reachable non-test fns are flagged, each \
                 with an entry-point witness path. Calls through function pointers, \
                 trait objects with renamed methods, and macros-generated fns are missed."
            }
            LintId::L10 => {
                "Scope: `next_batch` bodies in `impl Operator for ..` blocks plus every \
                 fn in the configured worker-loop files (parallel.rs). Within loop bodies \
                 (for/while/loop brace spans), flags Vec::new/String::from qualified \
                 calls, vec!/format! macros, and .clone()/.to_vec()/.to_string() method \
                 calls. Allocations hidden behind helper calls are not followed."
            }
            LintId::L11 => {
                "Reuses the L4 guard-liveness heuristic to find calls made with a guard \
                 live, then asks the call graph whether any resolved callee transitively \
                 reaches a blocking sink (`transmit`, `.recv(`/`.recv_timeout(`, \
                 `BackoffClock::sleep` / clock `.sleep(`). Each finding carries the \
                 guard-site -> callee -> sink witness path. Same resolution \
                 approximations as L9; a finding L4 already reports on the same line is \
                 deduped in favour of L4."
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
            LintId::L13 => {
                "Lexical scan outside the allowed prefixes (crates/query/, \
                 crates/index/): flags qualified calls `search::search(...)`, \
                 `search::search_topk(...)`, `search::search_phrase(...)` (including \
                 longer paths ending in `search::<entry>`), and bare calls \
                 `search_topk(` / `search_phrase(` that are neither definitions (not \
                 preceded by `fn`) nor method calls (not preceded by `.` — the \
                 appliance wrapper methods are the sanctioned route). Test code is \
                 exempt — tests may use the index directly as a brute-force oracle."
            }
        }
    }

    /// Suppression syntax for `explain <Lx>`.
    pub fn suppression(&self) -> String {
        format!(
            "// impliance-lint: allow({id})  — on (or the line before) the flagged line, \
             with a justification; pre-existing debt ratchets via lint_baseline.json \
             (`check --update-baseline`)",
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
    /// The offending construct (normalized snippet used as the ratchet key).
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
    /// Stable ratchet key: file + lint + normalized signature. Line numbers
    /// are deliberately excluded so edits elsewhere in a file don't
    /// invalidate the baseline.
    pub fn ratchet_key(&self) -> String {
        format!("{}:{}:{}", self.id, self.file, self.signature)
    }

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

/// Parse `impliance-lint: allow(L1)` / `allow(L1, L4)` out of a comment.
/// Shared by the lexical lint pass and the interprocedural parser.
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

/// Aggregate findings keyed for the ratchet: key -> occurrence count.
pub fn count_by_key(diags: &[Diagnostic]) -> BTreeMap<String, usize> {
    let mut map = BTreeMap::new();
    for d in diags {
        *map.entry(d.ratchet_key()).or_insert(0) += 1;
    }
    map
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
    fn ratchet_key_excludes_line() {
        let a = Diagnostic {
            id: LintId::L1,
            file: "crates/x/src/lib.rs".into(),
            line: 10,
            signature: "foo().unwrap()".into(),
            message: "m".into(),
            suggestion: "s".into(),
            witness: Vec::new(),
        };
        let mut b = a.clone();
        b.line = 99;
        assert_eq!(a.ratchet_key(), b.ratchet_key());
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = parse_json(r#""snow☃man""#).unwrap();
        assert_eq!(v.as_str(), Some("snow☃man"));
    }
}
