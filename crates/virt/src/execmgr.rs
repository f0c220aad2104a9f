//! Execution management: interleaving interactive queries with background
//! analysis.
//!
//! §3.4: "Execution management also includes scheduling prioritized tasks,
//! i.e., managing queues of long-running analysis tasks and properly
//! interleaving these analysis tasks with the execution of queries with
//! more stringent response-time requirements."
//!
//! The manager keeps two queues. Interactive work always preempts, but a
//! configurable background share guarantees discovery never starves: out
//! of every `window` dispatches, at least `background_share` go to
//! background tasks when any are waiting.
//!
//! Time is read from an injectable
//! [`impliance_query::clock::TimeSource`] — production managers use the
//! process default (monotonic microseconds), tests and simulations inject
//! a `ManualTime` and drive hours of virtual scheduling instantly.

use std::collections::VecDeque;
use std::sync::Arc;

use impliance_obs::TrackedMutex;
use impliance_query::clock::{default_time_source, TimeSource};

/// Task priority classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskClass {
    /// Response-time-sensitive query work.
    Interactive,
    /// Long-running analysis/discovery work.
    Background,
}

/// A queued unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskTicket {
    /// Caller-assigned identifier.
    pub id: u64,
    /// Priority class.
    pub class: TaskClass,
    /// Enqueue time in microseconds, read from the manager's time source.
    pub enqueued_at: u64,
}

#[derive(Debug, Default)]
struct Queues {
    interactive: VecDeque<TaskTicket>,
    background: VecDeque<TaskTicket>,
    dispatched_in_window: u32,
    background_in_window: u32,
    /// (count, total wait) per class for reporting
    interactive_waits: (u64, u64),
    background_waits: (u64, u64),
}

/// The execution manager.
#[derive(Debug)]
pub struct ExecutionManager {
    queues: TrackedMutex<Queues>,
    /// Dispatch window size.
    window: u32,
    /// Guaranteed background dispatches per window (when backlogged).
    background_share: u32,
    /// Where enqueue/dispatch timestamps come from.
    time: Arc<dyn TimeSource>,
}

impl ExecutionManager {
    /// Create a manager guaranteeing `background_share` of every `window`
    /// dispatches to background work, on the process-default time source.
    pub fn new(window: u32, background_share: u32) -> ExecutionManager {
        ExecutionManager::with_time_source(window, background_share, default_time_source())
    }

    /// Same, but reading time from an explicit source (tests inject a
    /// `ManualTime`).
    pub fn with_time_source(
        window: u32,
        background_share: u32,
        time: Arc<dyn TimeSource>,
    ) -> ExecutionManager {
        ExecutionManager {
            queues: TrackedMutex::new("virt.exec_queues", Queues::default()),
            window: window.max(1),
            background_share: background_share.min(window),
            time,
        }
    }

    /// Enqueue a task, stamped with the time source's current reading.
    pub fn submit(&self, id: u64, class: TaskClass) {
        let now = self.time.now_us();
        let mut q = self.queues.lock();
        let ticket = TaskTicket {
            id,
            class,
            enqueued_at: now,
        };
        match class {
            TaskClass::Interactive => q.interactive.push_back(ticket),
            TaskClass::Background => q.background.push_back(ticket),
        }
    }

    /// Pending counts `(interactive, background)`.
    pub fn pending(&self) -> (usize, usize) {
        let q = self.queues.lock();
        (q.interactive.len(), q.background.len())
    }

    /// Dispatch the next task according to the interleaving policy. Wait
    /// accounting uses the manager's time source.
    pub fn next(&self) -> Option<TaskTicket> {
        let now = self.time.now_us();
        let mut q = self.queues.lock();
        if q.dispatched_in_window >= self.window {
            q.dispatched_in_window = 0;
            q.background_in_window = 0;
        }
        let remaining = self.window - q.dispatched_in_window;
        let bg_owed = self.background_share.saturating_sub(q.background_in_window);
        // Take background when it is owed its share and the window could
        // not otherwise satisfy it, or when no interactive work waits.
        let take_background =
            !q.background.is_empty() && (q.interactive.is_empty() || bg_owed >= remaining);
        let ticket = if take_background {
            q.background_in_window += 1;
            q.background.pop_front()
        } else {
            q.interactive.pop_front().or_else(|| {
                q.background_in_window += 1;
                q.background.pop_front()
            })
        }?;
        q.dispatched_in_window += 1;
        let wait = now.saturating_sub(ticket.enqueued_at);
        match ticket.class {
            TaskClass::Interactive => {
                q.interactive_waits.0 += 1;
                q.interactive_waits.1 += wait;
            }
            TaskClass::Background => {
                q.background_waits.0 += 1;
                q.background_waits.1 += wait;
            }
        }
        Some(ticket)
    }

    /// Mean wait `(interactive, background)` over everything dispatched.
    pub fn mean_waits(&self) -> (f64, f64) {
        let q = self.queues.lock();
        let mean = |(n, total): (u64, u64)| if n == 0 { 0.0 } else { total as f64 / n as f64 };
        (mean(q.interactive_waits), mean(q.background_waits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impliance_query::clock::ManualTime;

    fn manager(window: u32, share: u32) -> (ExecutionManager, Arc<ManualTime>) {
        let time = Arc::new(ManualTime::new());
        (
            ExecutionManager::with_time_source(window, share, time.clone()),
            time,
        )
    }

    #[test]
    fn interactive_preempts_background() {
        let (m, _) = manager(10, 2);
        m.submit(1, TaskClass::Background);
        m.submit(2, TaskClass::Interactive);
        m.submit(3, TaskClass::Interactive);
        assert_eq!(m.next().unwrap().id, 2);
        assert_eq!(m.next().unwrap().id, 3);
        assert_eq!(m.next().unwrap().id, 1);
        assert!(m.next().is_none());
    }

    #[test]
    fn background_never_starves() {
        let (m, time) = manager(4, 1);
        m.submit(100, TaskClass::Background);
        // continuous interactive arrivals
        let mut background_ran_at = None;
        for i in 0..16u64 {
            m.submit(i, TaskClass::Interactive);
            time.advance_us(1);
            let t = m.next().unwrap();
            if t.class == TaskClass::Background {
                background_ran_at = Some(i);
                break;
            }
        }
        assert!(
            background_ran_at.is_some(),
            "background task must run within a few windows despite interactive load"
        );
        assert!(background_ran_at.unwrap() <= 8);
    }

    #[test]
    fn background_share_bounded() {
        let (m, _) = manager(4, 1);
        for i in 0..8 {
            m.submit(i, TaskClass::Background);
            m.submit(100 + i, TaskClass::Interactive);
        }
        let mut bg = 0;
        let mut ia = 0;
        for _ in 0..8 {
            match m.next().unwrap().class {
                TaskClass::Background => bg += 1,
                TaskClass::Interactive => ia += 1,
            }
        }
        assert!(ia >= 6, "interactive should dominate: ia={ia} bg={bg}");
        assert!(bg >= 1, "background must get its share: ia={ia} bg={bg}");
    }

    #[test]
    fn wait_accounting_uses_time_source() {
        let (m, time) = manager(10, 2);
        m.submit(1, TaskClass::Interactive);
        m.submit(2, TaskClass::Background);
        time.advance_us(5);
        m.next(); // interactive waited 5
        time.advance_us(4);
        m.next(); // background waited 9
        let (iw, bw) = m.mean_waits();
        assert_eq!(iw, 5.0);
        assert_eq!(bw, 9.0);
    }

    #[test]
    fn empty_manager_returns_none() {
        let (m, _) = manager(4, 1);
        assert!(m.next().is_none());
        assert_eq!(m.pending(), (0, 0));
        assert_eq!(m.mean_waits(), (0.0, 0.0));
    }
}
