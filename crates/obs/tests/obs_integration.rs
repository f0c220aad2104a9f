//! Integration tests for the observability layer: snapshot JSON golden
//! output, histogram bucket boundaries, and a concurrency smoke test that
//! runs the counters and histograms under the lock-order detector (the
//! registry uses `TrackedRwLock`, so a lock-order inversion anywhere in
//! the obs hot path would panic this test in debug builds).

use std::sync::Arc;
use std::thread;

use impliance_obs::catalog::{
    QUERY_OP_US, QUERY_PIPELINE_ROWS_PER_BATCH, STORAGE_EPOCH_PINS, STORAGE_PUT_COUNT,
    STORAGE_PUT_US,
};
use impliance_obs::Obs;

#[test]
fn snapshot_metrics_json_matches_golden() {
    let obs = Obs::new();
    obs.metrics().counter(&STORAGE_PUT_COUNT).add(3);
    obs.metrics().gauge(&STORAGE_EPOCH_PINS).set(2);
    let h = obs.metrics().histogram_in(&QUERY_OP_US, "scan");
    h.observe(7);
    h.observe(50);
    h.observe(50_000);
    let got = obs.snapshot().to_json().pretty();
    let want = r#"{
  "counters": {
    "storage.put.count": 3
  },
  "gauges": {
    "storage.epoch.pins": 2
  },
  "histograms": {
    "query.op.scan.us": {
      "bounds": [
        1,
        2,
        5,
        10,
        25,
        50,
        100,
        250,
        500,
        1000,
        5000,
        25000
      ],
      "buckets": [
        0,
        0,
        0,
        1,
        0,
        1,
        0,
        0,
        0,
        0,
        0,
        0,
        1
      ],
      "count": 3,
      "sum": 50057
    }
  }
}
"#;
    assert_eq!(got, want);
}

#[test]
fn histogram_boundary_values_land_in_lower_bucket() {
    let obs = Obs::new();
    let h = obs.metrics().histogram(&QUERY_PIPELINE_ROWS_PER_BATCH);
    // exact boundary values are inclusive upper bounds: 1, 2, 4, ..
    for v in [1, 2, 4] {
        h.observe(v);
    }
    assert_eq!(&h.bucket_counts()[..4], &[1, 1, 1, 0]);
    h.observe(5);
    assert_eq!(&h.bucket_counts()[..4], &[1, 1, 1, 1]);
    h.observe(4097);
    assert_eq!(h.bucket_counts().last(), Some(&1), "overflow bucket");
}

#[test]
fn counters_are_race_free_under_lock_order_detector() {
    let obs = Arc::new(Obs::new());
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let obs = Arc::clone(&obs);
            thread::spawn(move || {
                // half the threads pre-register, half race the registry
                let counter = obs.metrics().counter(&STORAGE_PUT_COUNT);
                let hist = obs.metrics().histogram(&STORAGE_PUT_US);
                for i in 0..PER_THREAD {
                    counter.inc();
                    hist.observe(i % 100);
                    if i % 1000 == 0 {
                        // snapshotting while writers run must not deadlock
                        // or invert lock order
                        let _ = obs.snapshot();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no lock-order panic in any thread");
    }
    let snap = obs.snapshot();
    assert_eq!(
        snap.counters["storage.put.count"],
        THREADS as u64 * PER_THREAD
    );
    assert_eq!(
        snap.histograms["storage.put.us"].count,
        THREADS as u64 * PER_THREAD
    );
}
