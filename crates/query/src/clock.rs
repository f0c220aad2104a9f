//! Injectable clocks: the backoff sleeper for the distributed executor
//! and the logical time source for workload management.
//!
//! Retry backoff in [`crate::dist`] used to call `std::thread::sleep`
//! directly, which made chaos tests and benches pay real wall-clock time
//! for every injected fault. Both backoff sites now sleep through the
//! process-wide [`BackoffClock`] installed here; tests and benches
//! install a counting no-op so a thousand retries cost nothing, while
//! production keeps the real sleep. The delays are *pacing*, never
//! correctness: results are identical under any clock.
//!
//! [`TimeSource`] is the read side of the same idea: anything that needs
//! "what time is it" — token-bucket refill, the admission estimator's
//! service times — asks a `TimeSource` instead of `Instant::now`, so the
//! proptest batteries can drive thousands of virtual seconds without
//! burning any wall-clock. Production uses [`RealTime`] (monotonic microseconds since
//! process start); tests hold a [`ManualTime`] and advance it explicitly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use impliance_obs::{assert_unguarded, TrackedRwLock};

/// A sleeper used for retry backoff pacing.
pub trait BackoffClock: Send + Sync {
    /// Pause the calling worker for `us` microseconds (or account the
    /// request and return immediately, for simulated clocks).
    fn sleep_us(&self, us: u64);
}

/// The default clock: real wall-clock sleeping.
#[derive(Debug, Default)]
pub struct RealClock;

impl BackoffClock for RealClock {
    fn sleep_us(&self, us: u64) {
        std::thread::sleep(Duration::from_micros(us));
    }
}

fn slot() -> &'static TrackedRwLock<Arc<dyn BackoffClock>> {
    static SLOT: OnceLock<TrackedRwLock<Arc<dyn BackoffClock>>> = OnceLock::new();
    SLOT.get_or_init(|| TrackedRwLock::new("query.clock", Arc::new(RealClock)))
}

/// Install a process-wide backoff clock, replacing the previous one.
/// Chaos tests and benches install a counting no-op so fault schedules
/// don't pay real sleeps.
pub fn install(clock: Arc<dyn BackoffClock>) {
    *slot().write() = clock;
}

/// Restore the default [`RealClock`].
pub fn install_default() {
    install(Arc::new(RealClock));
}

/// A monotonic microsecond clock readable by workload accounting.
pub trait TimeSource: Send + Sync + std::fmt::Debug {
    /// Microseconds elapsed on this source's timeline. Monotonic
    /// non-decreasing; the zero point is the source's own (process start
    /// for [`RealTime`], construction for [`ManualTime`]).
    fn now_us(&self) -> u64;
}

/// The default time source: monotonic wall-clock microseconds since the
/// first read.
#[derive(Debug, Default)]
pub struct RealTime;

fn process_epoch() -> std::time::Instant {
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    *EPOCH.get_or_init(std::time::Instant::now)
}

impl TimeSource for RealTime {
    fn now_us(&self) -> u64 {
        process_epoch().elapsed().as_micros() as u64
    }
}

/// A hand-advanced time source for tests: time moves only when the
/// driver says so, so a simulated hour costs nothing.
#[derive(Debug, Default)]
pub struct ManualTime {
    us: AtomicU64,
}

impl ManualTime {
    /// A manual clock starting at 0 µs.
    pub fn new() -> ManualTime {
        ManualTime::default()
    }

    /// Advance the clock by `us` microseconds.
    pub fn advance_us(&self, us: u64) {
        self.us.fetch_add(us, Ordering::Relaxed);
    }
}

impl TimeSource for ManualTime {
    fn now_us(&self) -> u64 {
        self.us.load(Ordering::Relaxed)
    }
}

/// The process-wide default time source (used when a component is not
/// handed an explicit one).
pub fn default_time_source() -> Arc<dyn TimeSource> {
    static SLOT: OnceLock<Arc<dyn TimeSource>> = OnceLock::new();
    Arc::clone(SLOT.get_or_init(|| Arc::new(RealTime)))
}

/// Sleep `us` microseconds through the installed clock.
pub(crate) fn sleep_us(us: u64) {
    assert_unguarded("clock::sleep_us");
    let clock = Arc::clone(&slot().read());
    clock.sleep_us(us);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Counting {
        total_us: AtomicU64,
    }

    impl BackoffClock for Counting {
        fn sleep_us(&self, us: u64) {
            self.total_us.fetch_add(us, Ordering::Relaxed);
        }
    }

    #[test]
    fn installed_clock_receives_sleeps() {
        let counting = Arc::new(Counting {
            total_us: AtomicU64::new(0),
        });
        install(counting.clone());
        sleep_us(150);
        sleep_us(350);
        // ">=" rather than "==": other tests in this binary may back off
        // through the same installed clock while we hold it
        assert!(counting.total_us.load(Ordering::Relaxed) >= 500);
        install_default();
    }

    #[test]
    fn manual_time_moves_only_when_advanced() {
        let t = ManualTime::new();
        assert_eq!(t.now_us(), 0);
        t.advance_us(250);
        assert_eq!(t.now_us(), 250);
    }

    #[test]
    fn real_time_is_monotonic() {
        let t = RealTime;
        let a = t.now_us();
        let b = t.now_us();
        assert!(b >= a);
    }
}
