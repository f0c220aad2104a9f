//! Runtime lock-checker tests: lock-order inversions and guards held
//! across a blocking call. Debug builds only: release builds compile the
//! tracking away, so there is nothing to assert there.
#![cfg(debug_assertions)]

use impliance_obs::{assert_unguarded, TrackedMutex, TrackedRwLock};

/// A->B in one place and B->A in another must panic, naming the cycle.
#[test]
fn ab_then_ba_inversion_panics_with_cycle() {
    static A: TrackedMutex<u32> = TrackedMutex::new("inv.a", 0);
    static B: TrackedMutex<u32> = TrackedMutex::new("inv.b", 0);

    {
        let _a = A.lock();
        let _b = B.lock(); // commits the order inv.a -> inv.b
    }

    let err = std::panic::catch_unwind(|| {
        let _b = B.lock();
        let _a = A.lock(); // inversion
    })
    .expect_err("B-then-A after A-then-B must panic");

    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "non-string panic".to_string());
    assert!(msg.contains("lock-order inversion"), "panic message: {msg}");
    assert!(
        msg.contains("inv.a") && msg.contains("inv.b"),
        "cycle named: {msg}"
    );
    assert!(
        msg.contains("inv.a -> inv.b -> inv.a"),
        "full cycle path: {msg}"
    );
}

/// Consistent nesting, repeated many times, never panics.
#[test]
fn consistent_order_is_accepted() {
    static OUTER: TrackedMutex<u32> = TrackedMutex::new("ok.outer", 0);
    static INNER: TrackedMutex<u32> = TrackedMutex::new("ok.inner", 0);

    for _ in 0..100 {
        let mut o = OUTER.lock();
        let mut i = INNER.lock();
        *o += 1;
        *i += 1;
    }
    assert_eq!(*OUTER.lock(), 100);
}

/// Read and write acquisitions of a TrackedRwLock share one graph node,
/// so a read/write inversion is caught like a write/write one.
#[test]
fn rwlock_read_write_inversion_panics() {
    static MAP: TrackedRwLock<u32> = TrackedRwLock::new("inv.map", 0);
    static LOG: TrackedMutex<u32> = TrackedMutex::new("inv.log", 0);

    {
        let _m = MAP.read();
        let _l = LOG.lock(); // commits inv.map -> inv.log
    }

    let err = std::panic::catch_unwind(|| {
        let _l = LOG.lock();
        let _m = MAP.write(); // inversion via the write side
    })
    .expect_err("write-after-log inversion must panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "non-string panic".to_string());
    assert!(
        msg.contains("inv.map") && msg.contains("inv.log"),
        "cycle named: {msg}"
    );
}

/// Transitive inversion: A->B, B->C, then C->A closes a 3-cycle.
#[test]
fn transitive_cycle_is_detected() {
    static A: TrackedMutex<u32> = TrackedMutex::new("tri.a", 0);
    static B: TrackedMutex<u32> = TrackedMutex::new("tri.b", 0);
    static C: TrackedMutex<u32> = TrackedMutex::new("tri.c", 0);

    {
        let _a = A.lock();
        let _b = B.lock();
    }
    {
        let _b = B.lock();
        let _c = C.lock();
    }
    let err = std::panic::catch_unwind(|| {
        let _c = C.lock();
        let _a = A.lock();
    })
    .expect_err("closing the 3-cycle must panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "non-string panic".to_string());
    assert!(
        msg.contains("tri.a") && msg.contains("tri.b") && msg.contains("tri.c"),
        "3-cycle named: {msg}"
    );
}

/// After a guard is dropped, later acquisitions record no edge from it.
#[test]
fn sequential_acquisitions_record_no_order() {
    static X: TrackedMutex<u32> = TrackedMutex::new("seq.x", 0);
    static Y: TrackedMutex<u32> = TrackedMutex::new("seq.y", 0);

    {
        let _x = X.lock();
    } // dropped before Y
    {
        let _y = Y.lock();
    }
    // sequential use committed no order, so this nesting is legal...
    {
        let _y = Y.lock();
        let _x = X.lock();
    }
    // ...and only now is the opposite nesting an inversion
    let err = std::panic::catch_unwind(|| {
        let _x = X.lock();
        let _y = Y.lock();
    });
    assert!(err.is_err(), "y->x then x->y nesting is an inversion");
}

/// A blocking sink reached with a tracked guard live panics, naming the
/// sink and the held lock; the same sink after the guard drops is fine.
#[test]
fn blocking_sink_under_a_guard_panics_naming_both() {
    static NODES: TrackedRwLock<u32> = TrackedRwLock::new("sink.nodes", 0);

    {
        let _n = NODES.read();
        let err = std::panic::catch_unwind(|| assert_unguarded("Network::transmit"))
            .expect_err("a sink under a guard must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".to_string());
        assert!(
            msg.contains(
                "`Network::transmit` reached while holding tracked guard(s) [\"sink.nodes\"]"
            ),
            "panic message: {msg}"
        );
    }
    assert_unguarded("Network::transmit");
}
