//! Runtime lock checking: [`TrackedMutex`] / [`TrackedRwLock`] and
//! [`assert_unguarded`].
//!
//! In debug builds every tracked acquisition records, per thread, the
//! names of the locks currently held. Two checks read that stack:
//!
//! * **Lock order.** Acquiring lock `B` while holding `A` inserts the
//!   edge `A -> B` into a process-global order graph. If the new edge
//!   closes a cycle the process panics immediately, naming the cycle —
//!   converting a maybe-once-a-month deadlock into a deterministic test
//!   failure the first time two call paths disagree about ordering. The
//!   graph is keyed by the static name given at construction, so all
//!   instances created at one site share a node (that is what makes the
//!   A->B / B->A pattern detectable from single-threaded tests).
//! * **No guard across a blocking call.** A blocking sink (a network
//!   transmit, a mailbox send, a join on a task result, a backoff sleep,
//!   a change-feed read) calls [`assert_unguarded`], which panics if this
//!   thread holds any tracked guard: a guard held there serializes every
//!   other thread on that lock behind simulated network latency.
//!
//! Release builds compile the tracking away entirely: the wrappers hold a
//! `parking_lot` lock plus its role name, the lock/unlock path does no
//! extra work, and [`assert_unguarded`] is empty.

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(debug_assertions)]
mod graph {
    use parking_lot::Mutex;
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};

    /// Process-global acquired-before graph: name -> names acquired while
    /// it was held.
    static EDGES: Mutex<BTreeMap<&'static str, BTreeSet<&'static str>>> =
        Mutex::new(BTreeMap::new());

    thread_local! {
        /// Names of tracked locks currently held by this thread, in
        /// acquisition order (duplicates possible for reentrant reads).
        static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    /// Record an acquisition of `name`, panicking if it inverts an order
    /// the process has already committed to.
    #[allow(
        clippy::panic,
        reason = "a lock-order inversion is a debug-build test failure"
    )]
    pub fn on_acquire(name: &'static str) {
        HELD.with(|held| {
            let held = held.borrow();
            if held.is_empty() {
                return;
            }
            let mut edges = EDGES.lock();
            for &h in held.iter() {
                if h == name {
                    continue; // same-name reentrancy is the lock's business
                }
                edges.entry(h).or_default().insert(name);
            }
            // adding h->name may close a cycle: walk from `name` back to
            // any held lock
            for &h in held.iter() {
                if h == name {
                    continue;
                }
                if let Some(path) = path_between(&edges, name, h) {
                    let mut cycle: Vec<&str> = path;
                    cycle.push(name);
                    panic!(
                        "lock-order inversion: acquiring `{name}` while holding `{h}`, but the \
                         process already acquired them in the opposite order \
                         (cycle: {})",
                        cycle.join(" -> ")
                    );
                }
            }
        });
        HELD.with(|held| held.borrow_mut().push(name));
    }

    /// Record a release of `name` (latest acquisition wins).
    pub fn on_release(name: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&h| h == name) {
                held.remove(pos);
            }
        });
    }

    /// Panic if this thread holds any tracked guard.
    #[allow(
        clippy::panic,
        reason = "a guard across a blocking call is a debug-build test failure"
    )]
    pub fn assert_unguarded(sink: &'static str) {
        HELD.with(|held| {
            let held = held.borrow();
            if !held.is_empty() {
                panic!("L11: `{sink}` reached while holding tracked guard(s) {held:?}");
            }
        });
    }

    /// DFS: path from `from` to `to` along recorded edges, if any.
    fn path_between(
        edges: &BTreeMap<&'static str, BTreeSet<&'static str>>,
        from: &'static str,
        to: &'static str,
    ) -> Option<Vec<&'static str>> {
        let mut stack = vec![(from, vec![from])];
        let mut seen = BTreeSet::new();
        while let Some((node, path)) = stack.pop() {
            if node == to {
                return Some(path);
            }
            if !seen.insert(node) {
                continue;
            }
            if let Some(nexts) = edges.get(node) {
                for &n in nexts {
                    let mut p = path.clone();
                    p.push(n);
                    stack.push((n, p));
                }
            }
        }
        None
    }
}

/// Mark a blocking call: in debug builds, panic if this thread holds any
/// tracked guard, naming the `sink` and the held locks. Compiles to
/// nothing in release builds.
#[inline(always)]
pub fn assert_unguarded(sink: &'static str) {
    #[cfg(debug_assertions)]
    graph::assert_unguarded(sink);
    #[cfg(not(debug_assertions))]
    let _ = sink;
}

#[inline(always)]
fn acquired(name: &'static str) {
    #[cfg(debug_assertions)]
    graph::on_acquire(name);
    #[cfg(not(debug_assertions))]
    let _ = name;
}

#[inline(always)]
fn released(name: &'static str) {
    #[cfg(debug_assertions)]
    graph::on_release(name);
    #[cfg(not(debug_assertions))]
    let _ = name;
}

/// A [`parking_lot::Mutex`] that participates in lock checking in debug
/// builds. The `name` should be unique per lock *role* (e.g.
/// `"cluster.nodes"`), not per instance.
pub struct TrackedMutex<T: ?Sized> {
    name: &'static str,
    inner: Mutex<T>,
}

/// Guard for [`TrackedMutex`]. Its `Drop` releases the held-lock entry;
/// the lock itself unlocks right after, when the `guard` field drops.
pub struct TrackedMutexGuard<'a, T: ?Sized> {
    name: &'static str,
    guard: MutexGuard<'a, T>,
}

impl<T> TrackedMutex<T> {
    /// Create a named tracked mutex.
    pub const fn new(name: &'static str, value: T) -> TrackedMutex<T> {
        TrackedMutex {
            name,
            inner: Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> TrackedMutex<T> {
    /// Acquire, recording the acquisition in debug builds. Panics on
    /// lock-order inversion (debug builds only).
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        acquired(self.name);
        TrackedMutexGuard {
            name: self.name,
            guard: self.inner.lock(),
        }
    }
}

impl<T: ?Sized> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        released(self.name);
    }
}

impl<T: ?Sized> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A [`parking_lot::RwLock`] that participates in lock checking in debug
/// builds. Read and write acquisitions share one graph node: a read/write
/// pair in opposite orders can deadlock just like two writes.
pub struct TrackedRwLock<T: ?Sized> {
    name: &'static str,
    inner: RwLock<T>,
}

/// Read guard for [`TrackedRwLock`].
pub struct TrackedReadGuard<'a, T: ?Sized> {
    name: &'static str,
    guard: RwLockReadGuard<'a, T>,
}

/// Write guard for [`TrackedRwLock`].
pub struct TrackedWriteGuard<'a, T: ?Sized> {
    name: &'static str,
    guard: RwLockWriteGuard<'a, T>,
}

impl<T> TrackedRwLock<T> {
    /// Create a named tracked rwlock.
    pub const fn new(name: &'static str, value: T) -> TrackedRwLock<T> {
        TrackedRwLock {
            name,
            inner: RwLock::new(value),
        }
    }
}

impl<T: ?Sized> TrackedRwLock<T> {
    /// Acquire shared, recording the acquisition in debug builds.
    pub fn read(&self) -> TrackedReadGuard<'_, T> {
        acquired(self.name);
        TrackedReadGuard {
            name: self.name,
            guard: self.inner.read(),
        }
    }

    /// Acquire exclusive, recording the acquisition in debug builds.
    pub fn write(&self) -> TrackedWriteGuard<'_, T> {
        acquired(self.name);
        TrackedWriteGuard {
            name: self.name,
            guard: self.inner.write(),
        }
    }
}

impl<T: ?Sized> Drop for TrackedReadGuard<'_, T> {
    fn drop(&mut self) {
        released(self.name);
    }
}

impl<T: ?Sized> Drop for TrackedWriteGuard<'_, T> {
    fn drop(&mut self) {
        released(self.name);
    }
}

impl<T: ?Sized> std::ops::Deref for TrackedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::Deref for TrackedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for TrackedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedMutex")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TrackedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedRwLock")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}
