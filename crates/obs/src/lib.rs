//! `impliance-obs`: the workspace-wide observability layer.
//!
//! The Impliance paper's §3 claims (where a stage runs, how many bytes
//! cross the interconnect, how background annotation interleaves with
//! queries) are only falsifiable if the system reports on itself. This
//! crate is that substrate, with zero external dependencies:
//!
//! * [`catalog`] — every metric the workspace records, declared once
//!   (name, kind, unit, meaning); DESIGN.md's Observability table is its
//!   rendering.
//! * [`MetricsRegistry`] — counters, gauges, and fixed-bucket histograms,
//!   registered only through catalog declarations. The hot path is
//!   lock-free: instrumented code caches the `Arc` handles and every
//!   observation is a relaxed atomic RMW.
//! * [`Snapshot`] — a point-in-time copy of the registry, serializable
//!   to deterministic [`Json`].
//! * [`TrackedMutex`] / [`TrackedRwLock`] and [`assert_unguarded`] — the
//!   debug-build lock checks ([`locks`]): lock-order inversions and guards
//!   held across a blocking call panic, naming the locks.
//!
//! Subsystems instrument against [`global()`]; tests construct local
//! [`Obs`] instances for deterministic assertions.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod catalog;
pub mod json;
pub mod locks;
pub mod metrics;
pub mod snapshot;

use std::sync::OnceLock;

pub use json::Json;
pub use locks::{assert_unguarded, TrackedMutex, TrackedRwLock};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, LATENCY_BUCKETS_US};
pub use snapshot::{HistogramSnapshot, Snapshot};

/// One observability domain: a metrics registry.
#[derive(Debug, Default)]
pub struct Obs {
    metrics: MetricsRegistry,
}

impl Obs {
    /// An empty observability domain.
    pub fn new() -> Obs {
        Obs::default()
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Freeze every registered metric into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.metrics.counter_values(),
            gauges: self.metrics.gauge_values(),
            histograms: self.metrics.histogram_values(),
        }
    }
}

/// The process-wide observability domain every subsystem reports into.
pub fn global() -> &'static Obs {
    static GLOBAL: OnceLock<Obs> = OnceLock::new();
    GLOBAL.get_or_init(Obs::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_is_a_singleton() {
        let a = global() as *const Obs;
        let b = global() as *const Obs;
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_captures_all_three_metric_kinds() {
        let obs = Obs::new();
        obs.metrics().counter(&catalog::STORAGE_PUT_COUNT).add(3);
        obs.metrics().gauge(&catalog::STORAGE_EPOCH_PINS).set(-2);
        obs.metrics().histogram(&catalog::STORAGE_GET_US).observe(4);
        let snap = obs.snapshot();
        assert_eq!(snap.counters["storage.put.count"], 3);
        assert_eq!(snap.gauges["storage.epoch.pins"], -2);
        assert_eq!(snap.histograms["storage.get.us"].count, 1);
        assert_eq!(snap.nonzero_counters_with_prefix("storage."), 1);
        assert_eq!(snap.nonzero_counters_with_prefix("zzz"), 0);
    }
}
