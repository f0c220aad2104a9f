//! The simulated interconnect.
//!
//! All inter-node traffic is charged here: message counts and byte volumes
//! per (source, destination) and in aggregate. The network can inject a
//! latency proportional to message size (modelling a commodity
//! low-latency fabric, §1) and drop messages probabilistically (failure
//! experiments, C5). Substituting this for real hardware preserves what
//! the experiments measure: *how much* data moves and *where*.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use impliance_obs::Counter;
use parking_lot::Mutex;

use crate::fault::{FaultDecision, FaultSchedule};
use crate::node::NodeId;

/// Byte/message accounting re-exported through the workspace metrics
/// registry, so a figures run carries interconnect counters in its
/// observability snapshot alongside storage and query metrics.
struct NetObs {
    messages: Arc<Counter>,
    bytes: Arc<Counter>,
    dropped: Arc<Counter>,
}

fn net_obs() -> &'static NetObs {
    static OBS: OnceLock<NetObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let m = impliance_obs::global().metrics();
        NetObs {
            messages: m.counter("cluster.net.messages"),
            bytes: m.counter("cluster.net.bytes"),
            dropped: m.counter("cluster.net.dropped"),
        }
    })
}

/// Aggregate traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetworkMetrics {
    /// Messages delivered.
    pub messages: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Messages dropped by failure injection.
    pub dropped: u64,
}

/// The simulated network fabric.
#[derive(Debug)]
pub struct Network {
    messages: AtomicU64,
    bytes: AtomicU64,
    dropped: AtomicU64,
    /// Simulated per-byte transfer cost; `None` disables sleeping (fast
    /// unit tests). A value models bandwidth: e.g. 1 ns/byte ≈ 1 GB/s.
    nanos_per_byte: AtomicU64,
    /// Fixed per-message latency in nanoseconds.
    nanos_per_message: AtomicU64,
    /// Per-destination drop rate in [0, 1], scaled by 1e6.
    drop_rates: Mutex<HashMap<NodeId, u32>>,
    /// Deterministic xorshift state for drop decisions.
    rng: AtomicU64,
    /// Per-edge traffic (from, to) → bytes.
    edges: Mutex<HashMap<(NodeId, NodeId), u64>>,
    /// Installed chaos schedule, consulted on every transmit.
    faults: Mutex<Option<Arc<FaultSchedule>>>,
}

impl Default for Network {
    fn default() -> Self {
        Network::new()
    }
}

impl Network {
    /// A network with accounting only (no simulated latency).
    pub fn new() -> Network {
        Network {
            messages: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            nanos_per_byte: AtomicU64::new(0),
            nanos_per_message: AtomicU64::new(0),
            drop_rates: Mutex::new(HashMap::new()),
            rng: AtomicU64::new(0x9E3779B97F4A7C15),
            edges: Mutex::new(HashMap::new()),
            faults: Mutex::new(None),
        }
    }

    /// Install a deterministic chaos schedule. All subsequent transmits
    /// consult it (before any legacy per-destination drop rate).
    pub fn install_faults(&self, schedule: Arc<FaultSchedule>) {
        *self.faults.lock() = Some(schedule);
    }

    /// Remove the installed chaos schedule, if any.
    pub fn clear_faults(&self) {
        *self.faults.lock() = None;
    }

    /// The installed chaos schedule, if any.
    pub fn fault_schedule(&self) -> Option<Arc<FaultSchedule>> {
        self.faults.lock().clone()
    }

    /// Whether the installed schedule has marked `node` dead. Without a
    /// schedule every node counts as alive.
    pub fn node_is_dead(&self, node: NodeId) -> bool {
        self.fault_schedule()
            .map(|s| s.is_dead(node))
            .unwrap_or(false)
    }

    /// Enable simulated latency: a fixed per-message cost plus a per-byte
    /// cost. Both in nanoseconds.
    pub fn set_latency(&self, nanos_per_message: u64, nanos_per_byte: u64) {
        self.nanos_per_message
            .store(nanos_per_message, Ordering::Relaxed);
        self.nanos_per_byte.store(nanos_per_byte, Ordering::Relaxed);
    }

    /// Set the probability (0.0–1.0) that messages *to* `dest` are dropped.
    pub fn set_drop_rate(&self, dest: NodeId, rate: f64) {
        let scaled = (rate.clamp(0.0, 1.0) * 1e6) as u32;
        self.drop_rates.lock().insert(dest, scaled);
    }

    /// Clear failure injection for a destination.
    pub fn heal(&self, dest: NodeId) {
        self.drop_rates.lock().remove(&dest);
    }

    fn next_rand(&self) -> u64 {
        // xorshift64*; relaxed is fine — determinism only needs atomicity
        let mut x = self.rng.load(Ordering::Relaxed);
        loop {
            let mut y = x;
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            match self
                .rng
                .compare_exchange_weak(x, y, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return y,
                Err(cur) => x = cur,
            }
        }
    }

    /// Charge one message of `payload` bytes from `from` to `to`.
    /// Returns `false` if failure injection dropped it.
    pub fn transmit(&self, from: NodeId, to: NodeId, payload: u64) -> bool {
        let mut fault_delay = 0u64;
        if let Some(sched) = self.fault_schedule() {
            match sched.decide(from, to) {
                FaultDecision::Deliver { extra_nanos } => fault_delay = extra_nanos,
                FaultDecision::DropLink | FaultDecision::DropDeadNode => {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    net_obs().dropped.inc();
                    return false;
                }
            }
        }
        if let Some(&rate) = self.drop_rates.lock().get(&to) {
            if rate > 0 {
                let roll = (self.next_rand() % 1_000_000) as u32;
                if roll < rate {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    net_obs().dropped.inc();
                    return false;
                }
            }
        }
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(payload, Ordering::Relaxed);
        let obs = net_obs();
        obs.messages.inc();
        obs.bytes.add(payload);
        *self.edges.lock().entry((from, to)).or_insert(0) += payload;
        let npb = self.nanos_per_byte.load(Ordering::Relaxed);
        let npm = self.nanos_per_message.load(Ordering::Relaxed);
        let nanos = npm + npb.saturating_mul(payload) + fault_delay;
        if nanos > 0 {
            #[allow(clippy::disallowed_methods, reason = "the latency model itself")]
            std::thread::sleep(Duration::from_nanos(nanos));
        }
        true
    }

    /// Aggregate counters snapshot.
    pub fn metrics(&self) -> NetworkMetrics {
        NetworkMetrics {
            messages: self.messages.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// Bytes sent along a specific edge.
    pub fn edge_bytes(&self, from: NodeId, to: NodeId) -> u64 {
        self.edges.lock().get(&(from, to)).copied().unwrap_or(0)
    }

    /// Reset all counters (between benchmark phases).
    pub fn reset_metrics(&self) {
        self.messages.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
        self.edges.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmit_accounts_bytes_and_messages() {
        let n = Network::new();
        assert!(n.transmit(NodeId(1), NodeId(2), 100));
        assert!(n.transmit(NodeId(1), NodeId(2), 50));
        assert!(n.transmit(NodeId(2), NodeId(3), 7));
        let m = n.metrics();
        assert_eq!(m.messages, 3);
        assert_eq!(m.bytes, 157);
        assert_eq!(n.edge_bytes(NodeId(1), NodeId(2)), 150);
        assert_eq!(n.edge_bytes(NodeId(2), NodeId(3)), 7);
        assert_eq!(n.edge_bytes(NodeId(3), NodeId(1)), 0);
    }

    #[test]
    fn drop_rate_one_drops_everything() {
        let n = Network::new();
        n.set_drop_rate(NodeId(9), 1.0);
        for _ in 0..10 {
            assert!(!n.transmit(NodeId(1), NodeId(9), 1));
        }
        assert_eq!(n.metrics().dropped, 10);
        assert_eq!(n.metrics().messages, 0);
        n.heal(NodeId(9));
        assert!(n.transmit(NodeId(1), NodeId(9), 1));
    }

    #[test]
    fn drop_rate_partial_is_probabilistic() {
        let n = Network::new();
        n.set_drop_rate(NodeId(5), 0.5);
        let mut delivered = 0;
        for _ in 0..1000 {
            if n.transmit(NodeId(1), NodeId(5), 1) {
                delivered += 1;
            }
        }
        assert!(delivered > 350 && delivered < 650, "delivered {delivered}");
    }

    #[test]
    fn reset_clears_counters() {
        let n = Network::new();
        n.transmit(NodeId(1), NodeId(2), 10);
        n.reset_metrics();
        assert_eq!(n.metrics(), NetworkMetrics::default());
        assert_eq!(n.edge_bytes(NodeId(1), NodeId(2)), 0);
    }

    #[test]
    fn installed_schedule_drops_and_counts() {
        let n = Network::new();
        let s = Arc::new(FaultSchedule::new(11));
        s.drop_link(NodeId(1), NodeId(2), 1.0);
        s.kill_after(NodeId(7), 0);
        n.install_faults(Arc::clone(&s));
        assert!(!n.transmit(NodeId(1), NodeId(2), 10), "link drop");
        assert!(!n.transmit(NodeId(3), NodeId(7), 10), "dead destination");
        assert!(!n.transmit(NodeId(7), NodeId(3), 10), "dead source");
        assert!(n.transmit(NodeId(3), NodeId(4), 10), "clean link delivers");
        assert_eq!(n.metrics().dropped, 3);
        assert_eq!(n.metrics().messages, 1);
        assert!(n.node_is_dead(NodeId(7)));
        assert!(!n.node_is_dead(NodeId(1)));
        n.clear_faults();
        assert!(n.transmit(NodeId(1), NodeId(2), 10), "cleared schedule");
    }

    #[test]
    fn latency_sleeps_roughly_linearly() {
        let n = Network::new();
        n.set_latency(0, 100); // 100 ns/byte
        #[allow(clippy::disallowed_methods, reason = "the test times the real sleep")]
        let start = std::time::Instant::now();
        n.transmit(NodeId(1), NodeId(2), 100_000); // ≥ 10 ms
        assert!(start.elapsed() >= Duration::from_millis(5));
    }
}
