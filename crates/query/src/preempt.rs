//! Priority classes and the morsel-granularity preemption gate.
//!
//! §3.4's execution management promises to interleave "queries with more
//! stringent response-time requirements" ahead of everything else. Inside
//! one box that cannot mean thread preemption — workers are cooperative —
//! so the engine preempts at the natural yield points it already has:
//! the atomic morsel claim in [`crate::parallel`] and the per-record loop
//! of the background annotation worker. A query that declares itself
//! [`Priority::High`] registers in a process-wide gate for the duration
//! of its execution; lower-priority workers consult the gate before
//! claiming their next unit of work and briefly yield the core while any
//! high-priority query is in flight. Yielding is bounded (a few
//! scheduler hints, never a wait loop), so a low-priority query is slowed
//! under contention but can never hang or starve.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use impliance_obs::{catalog, Counter};

/// Query priority classes, lowest to highest. Ordering is meaningful:
/// `Low < Normal < High`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Best-effort work: first to be shed under overload, yields the
    /// morsel queue to everything above it.
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Response-time-sensitive work: jumps the morsel claim, admitted
    /// ahead of concurrency limits, last to be shed.
    High,
}

impl Priority {
    /// Stable lower-snake name (used in metrics labels and reports).
    pub fn as_str(&self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// High-priority queries currently executing, process-wide.
fn high_active() -> &'static AtomicUsize {
    static GATE: AtomicUsize = AtomicUsize::new(0);
    &GATE
}

fn yields_obs() -> &'static Arc<Counter> {
    static OBS: OnceLock<Arc<Counter>> = OnceLock::new();
    OBS.get_or_init(|| {
        impliance_obs::global()
            .metrics()
            .counter(&catalog::QUERY_PREEMPT_YIELDS)
    })
}

/// True while at least one high-priority query is executing.
pub fn high_priority_active() -> bool {
    high_active().load(Ordering::Relaxed) > 0
}

/// Registration of one executing query in the preemption gate. Created
/// at execution start, dropped when the query finishes; only
/// high-priority queries occupy the gate.
#[derive(Debug)]
pub struct PreemptGuard {
    registered: bool,
}

impl PreemptGuard {
    /// Enter the gate for a query of the given priority.
    pub fn enter(priority: Priority) -> PreemptGuard {
        let registered = priority == Priority::High;
        if registered {
            high_active().fetch_add(1, Ordering::Relaxed);
        }
        PreemptGuard { registered }
    }
}

impl Drop for PreemptGuard {
    fn drop(&mut self) {
        if self.registered {
            high_active().fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Bounded scheduler hints per contended claim: enough for a waiting
/// high-priority worker to win the next atomic claim, small enough that
/// the yielding worker's own progress is only dented, never stopped.
const YIELD_HINTS: usize = 4;

/// Cooperative preemption point: called by low/normal-priority workers
/// between morsel claims (and by the background annotation worker
/// between change-feed records). While a high-priority query is in
/// flight, surrender the core a bounded number of times so the
/// high-priority worker wins the next claim race. Returns how many
/// scheduler yields were performed (0 when uncontended), so callers and
/// tests can observe the gate without timing assumptions.
pub fn yield_to_high(priority: Priority) -> usize {
    if priority >= Priority::High || !high_priority_active() {
        return 0;
    }
    let mut yielded = 0;
    while yielded < YIELD_HINTS && high_priority_active() {
        std::thread::yield_now();
        yielded += 1;
    }
    if yielded > 0 {
        yields_obs().add(yielded as u64);
    }
    yielded
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders_low_to_high() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
        assert_eq!(Priority::High.as_str(), "high");
        assert_eq!(Priority::Low.to_string(), "low");
    }

    #[test]
    fn guard_registers_only_high_and_releases_on_drop() {
        // Tests in this binary share the process-wide gate; measure
        // relative to the entry value rather than asserting absolutes.
        let before = high_active().load(Ordering::Relaxed);
        {
            let _low = PreemptGuard::enter(Priority::Low);
            let _normal = PreemptGuard::enter(Priority::Normal);
            assert_eq!(high_active().load(Ordering::Relaxed), before);
            let _high = PreemptGuard::enter(Priority::High);
            assert_eq!(high_active().load(Ordering::Relaxed), before + 1);
            let _high2 = PreemptGuard::enter(Priority::High);
            assert_eq!(high_active().load(Ordering::Relaxed), before + 2);
        }
        assert_eq!(high_active().load(Ordering::Relaxed), before);
    }

    #[test]
    fn yield_is_bounded_and_skipped_when_uncontended() {
        // A high-priority caller never yields, contended or not.
        let _high = PreemptGuard::enter(Priority::High);
        assert_eq!(yield_to_high(Priority::High), 0);
        // A low-priority caller yields a bounded number of times while
        // the gate is occupied — never an unbounded wait.
        let yielded = yield_to_high(Priority::Low);
        assert!(yielded >= 1 && yielded <= YIELD_HINTS, "{yielded}");
        drop(_high);
        if !high_priority_active() {
            assert_eq!(yield_to_high(Priority::Low), 0);
        }
    }
}
