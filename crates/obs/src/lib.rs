//! `impliance-obs`: the workspace-wide observability layer.
//!
//! The Impliance paper's §3 claims (where a stage runs, how many bytes
//! cross the interconnect, how background annotation interleaves with
//! queries) are only falsifiable if the system reports on itself. This
//! crate is that substrate, with zero external dependencies:
//!
//! * [`MetricsRegistry`] — named counters, gauges, and fixed-bucket
//!   histograms. The hot path is lock-free: instrumented code caches the
//!   `Arc` handles and every observation is a relaxed atomic RMW.
//! * [`Tracer`] — `span!`-style RAII guards recording wall and logical
//!   time with parent/child nesting, plus per-subsystem structured
//!   events, retained in bounded ring buffers.
//! * [`Snapshot`] — a point-in-time copy of everything above,
//!   serializable to deterministic JSON.
//!
//! Subsystems instrument against [`global()`]; tests construct local
//! [`Obs`] instances for deterministic assertions.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod metrics;
pub mod snapshot;
pub mod trace;

use std::sync::OnceLock;

pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, LATENCY_BUCKETS_US};
pub use snapshot::{HistogramSnapshot, Snapshot};
pub use trace::{EventRecord, SpanGuard, SpanId, SpanRecord, Tracer};

/// One observability domain: a metrics registry plus a tracer.
#[derive(Debug)]
pub struct Obs {
    metrics: MetricsRegistry,
    tracer: Tracer,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// An observability domain retaining up to 4096 spans and events.
    pub fn new() -> Obs {
        Obs::with_capacity(4096)
    }

    /// An observability domain with an explicit trace-ring capacity.
    pub fn with_capacity(trace_capacity: usize) -> Obs {
        Obs {
            metrics: MetricsRegistry::new(),
            tracer: Tracer::new(trace_capacity),
        }
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Freeze everything into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.metrics.counter_values(),
            gauges: self.metrics.gauge_values(),
            histograms: self.metrics.histogram_values(),
            spans: self.tracer.spans(),
            events: self.tracer.events(),
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
    fn snapshot_captures_all_three_metric_kinds_and_traces() {
        let obs = Obs::with_capacity(8);
        obs.metrics().counter("c").add(3);
        obs.metrics().gauge("g").set(-2);
        obs.metrics().histogram("h", &[10]).observe(4);
        {
            let _g = span!(obs, "test", "op");
            obs.tracer().event("test", "evt", &[("k", 1)]);
        }
        let snap = obs.snapshot();
        assert_eq!(snap.counters["c"], 3);
        assert_eq!(snap.gauges["g"], -2);
        assert_eq!(snap.histograms["h"].count, 1);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.nonzero_counters_with_prefix("c"), 1);
        assert_eq!(snap.nonzero_counters_with_prefix("zzz"), 0);
    }
}
