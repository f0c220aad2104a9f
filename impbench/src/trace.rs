//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! The benchmark records spans from its own files, at the public function
//! it calls; spans inside the appliance are a later change. A span is
//! `{id, parent, op, name, start_ns, end_ns}`: all spans of one operation
//! share `op`, `parent` is the span that caused it (0 = none). Spans stay
//! in memory and are written out after the measured section has ended.
//! With tracing off, [`Tracer::time`] only reads the clock, which is what
//! the end-to-end numbers are measured with.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder. Threads each own a tracer over the same
/// origin and are merged after they join, so recording takes no lock.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    /// High bits of every id this tracer hands out (distinct per thread).
    tag: u64,
    next: u64,
    /// Open spans, innermost last: the parent of the next span.
    stack: Vec<u64>,
    op: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant, thread: u64) -> Tracer {
        Tracer {
            enabled,
            origin,
            tag: thread << 40,
            next: 0,
            stack: Vec::new(),
            op: 0,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Run `f` under a span named `name` and return its result with the
    /// elapsed nanoseconds. A span opened while none is open starts a new
    /// operation; one opened inside another is its child.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, u64) {
        if !self.enabled {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed().as_nanos() as u64);
        }
        self.next += 1;
        let id = self.tag | self.next;
        let parent = self.stack.last().copied().unwrap_or(0);
        if parent == 0 {
            self.op = id;
        }
        let op = self.op;
        self.stack.push(id);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            op,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        (out, end_ns - start_ns)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    pub fn absorb(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> std::collections::HashMap<u64, u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Write spans as JSON lines, each with its self time.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"op":{},"name":"{}","start_ns":{},"end_ns":{},"self_ns":{}}}"#,
            s.id,
            s.parent,
            s.op,
            s.name,
            s.start_ns,
            s.end_ns,
            selfs.get(&s.id).copied().unwrap_or(0)
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "s".into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),  // overlaps span 2: union is 10..50
            span(4, 1, 90, 120), // clipped to the parent's end
            span(5, 3, 25, 35),  // grandchild: only comes off span 3
        ];
        let t = self_times(&spans);
        assert_eq!(t[&1], 100 - 40 - 10);
        assert_eq!(t[&2], 20);
        assert_eq!(t[&3], 30 - 10);
        assert_eq!(t[&4], 30);
        assert_eq!(t[&5], 10);
    }

    #[test]
    fn nested_spans_share_the_operation_of_their_root() {
        let mut t = Tracer::new(true, Instant::now(), 1);
        t.time("tick", |t| {
            t.time("ingest", |_| ());
            t.time("index", |_| ());
        });
        t.time("query", |_| ());
        let spans = t.into_spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded");
        let (tick, query) = (by_name("tick"), by_name("query"));
        assert_eq!(tick.parent, 0);
        assert_eq!(by_name("ingest").parent, tick.id);
        assert_eq!(by_name("index").op, tick.id);
        assert_ne!(query.op, tick.op);
        assert!(tick.start_ns <= by_name("ingest").start_ns);
        assert!(tick.end_ns >= by_name("index").end_ns);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 1);
        let (v, _ns) = t.time("x", |_| 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
