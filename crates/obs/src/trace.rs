//! Span-based tracing: RAII guards recording wall and logical time, with
//! parent/child nesting via a per-thread active-span stack, plus
//! per-subsystem structured events. Finished spans and events land in
//! bounded ring buffers — a long figures run keeps the most recent
//! window rather than growing without limit.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::locks::TrackedMutex;

/// Identifier of one span. Ids are unique per [`Tracer`], allocated from 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// A finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// This span's id.
    pub id: SpanId,
    /// Enclosing span on the same thread at start time, if any.
    pub parent: Option<SpanId>,
    /// Subsystem label (`"storage"`, `"query"`, ...).
    pub subsystem: &'static str,
    /// Operation name.
    pub name: &'static str,
    /// Logical clock at start (total order across all spans/events).
    pub start_logical: u64,
    /// Logical clock at end.
    pub end_logical: u64,
    /// Wall-clock duration in microseconds.
    pub wall_us: u64,
}

/// A structured event, attributed to the active span (if any).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Active span on this thread when the event fired.
    pub span: Option<SpanId>,
    /// Subsystem label.
    pub subsystem: &'static str,
    /// Event name.
    pub name: &'static str,
    /// Logical clock when the event fired.
    pub logical: u64,
    /// Structured payload: static keys, integer values.
    pub fields: Vec<(&'static str, u64)>,
}

#[derive(Debug)]
struct Ring<T> {
    buf: VecDeque<T>,
    cap: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    fn new(cap: usize) -> Ring<T> {
        Ring {
            buf: VecDeque::with_capacity(cap.min(1024)),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    fn push(&mut self, item: T) {
        if self.buf.len() >= self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
    }
}

thread_local! {
    /// Active span ids on this thread, innermost last. Shared by every
    /// tracer on the thread; in practice one process uses one global
    /// tracer, and test-local tracers run on their own test threads.
    static ACTIVE_SPANS: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

/// The tracer: allocates span ids, advances the logical clock, and owns
/// the bounded ring buffers of finished spans and events.
#[derive(Debug)]
pub struct Tracer {
    next_id: AtomicU64,
    logical: AtomicU64,
    spans: TrackedMutex<Ring<SpanRecord>>,
    events: TrackedMutex<Ring<EventRecord>>,
}

impl Tracer {
    /// A tracer retaining at most `capacity` finished spans and
    /// `capacity` events.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            next_id: AtomicU64::new(1),
            logical: AtomicU64::new(0),
            spans: TrackedMutex::new("obs.trace.spans", Ring::new(capacity)),
            events: TrackedMutex::new("obs.trace.events", Ring::new(capacity)),
        }
    }

    /// Start a span. The returned guard records the span on drop; nested
    /// calls on the same thread become children of the enclosing span.
    pub fn span(&self, subsystem: &'static str, name: &'static str) -> SpanGuard<'_> {
        let id = SpanId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let start_logical = self.logical.fetch_add(1, Ordering::Relaxed);
        let parent = ACTIVE_SPANS.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        SpanGuard {
            tracer: self,
            id,
            parent,
            subsystem,
            name,
            start_logical,
            started: Instant::now(),
        }
    }

    /// Record a structured event attributed to the current span.
    pub fn event(
        &self,
        subsystem: &'static str,
        name: &'static str,
        fields: &[(&'static str, u64)],
    ) {
        let logical = self.logical.fetch_add(1, Ordering::Relaxed);
        let span = ACTIVE_SPANS.with(|s| s.borrow().last().copied());
        self.events.lock().push(EventRecord {
            span,
            subsystem,
            name,
            logical,
            fields: fields.to_vec(),
        });
    }

    /// The innermost active span on this thread, if any.
    pub fn current_span(&self) -> Option<SpanId> {
        ACTIVE_SPANS.with(|s| s.borrow().last().copied())
    }

    /// Finished spans still in the ring, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().buf.iter().cloned().collect()
    }

    /// Events still in the ring, oldest first.
    pub fn events(&self) -> Vec<EventRecord> {
        self.events.lock().buf.iter().cloned().collect()
    }

    /// `(spans_evicted, events_evicted)` — how much the rings dropped.
    pub fn evicted(&self) -> (u64, u64) {
        (self.spans.lock().dropped, self.events.lock().dropped)
    }

    fn finish(&self, record: SpanRecord) {
        ACTIVE_SPANS.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == record.id) {
                stack.remove(pos);
            }
        });
        self.spans.lock().push(record);
    }
}

/// RAII guard for an in-flight span; records the span when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: SpanId,
    parent: Option<SpanId>,
    subsystem: &'static str,
    name: &'static str,
    start_logical: u64,
    started: Instant,
}

impl SpanGuard<'_> {
    /// This span's id (stable before and after the guard drops).
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_logical = self.tracer.logical.fetch_add(1, Ordering::Relaxed);
        self.tracer.finish(SpanRecord {
            id: self.id,
            parent: self.parent,
            subsystem: self.subsystem,
            name: self.name,
            start_logical: self.start_logical,
            end_logical,
            wall_us: self.started.elapsed().as_micros() as u64,
        });
    }
}

/// `span!(obs, "subsystem", "name")` — start a span on an [`crate::Obs`]
/// handle, returning the guard.
#[macro_export]
macro_rules! span {
    ($obs:expr, $subsystem:expr, $name:expr) => {
        $obs.tracer().span($subsystem, $name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_wall_and_logical_time() {
        let t = Tracer::new(16);
        {
            let _g = t.span("test", "outer");
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "outer");
        assert!(spans[0].end_logical > spans[0].start_logical);
    }

    #[test]
    fn nested_spans_report_parentage() {
        let t = Tracer::new(16);
        let outer_id;
        let inner_id;
        {
            let outer = t.span("test", "outer");
            outer_id = outer.id();
            {
                let inner = t.span("test", "inner");
                inner_id = inner.id();
                assert_eq!(t.current_span(), Some(inner_id));
            }
            assert_eq!(t.current_span(), Some(outer_id));
        }
        let spans = t.spans();
        // inner finished first
        assert_eq!(spans[0].id, inner_id);
        assert_eq!(spans[0].parent, Some(outer_id));
        assert_eq!(spans[1].id, outer_id);
        assert_eq!(spans[1].parent, None);
    }

    #[test]
    fn events_attach_to_active_span() {
        let t = Tracer::new(16);
        t.event("test", "orphan", &[("n", 1)]);
        let id = {
            let g = t.span("test", "op");
            t.event("test", "inside", &[("bytes", 42)]);
            g.id()
        };
        let events = t.events();
        assert_eq!(events[0].span, None);
        assert_eq!(events[1].span, Some(id));
        assert_eq!(events[1].fields, vec![("bytes", 42)]);
    }

    #[test]
    fn ring_buffer_is_bounded() {
        let t = Tracer::new(4);
        for _ in 0..10 {
            let _g = t.span("test", "s");
        }
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.evicted().0, 6);
    }
}
