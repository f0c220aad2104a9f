//! Deterministic fault schedules for chaos experiments.
//!
//! A [`FaultSchedule`] scripts failures against the simulated
//! interconnect: kill node N after K messages, drop p% of traffic on a
//! link A→B, delay everything addressed to node D. Every decision is a
//! pure function of the schedule's seed and per-link message sequence
//! numbers, so a test or bench that replays the same schedule over the
//! same workload sees the same drops — regardless of thread
//! interleaving across *different* links.
//!
//! The schedule is installed into a [`crate::Network`] with
//! [`crate::Network::install_faults`]; the runtime services due kills on
//! its submission path (turning a scheduled death into a real
//! thread-level [`crate::ClusterRuntime::kill`]) and the network consults
//! the schedule on every [`crate::Network::transmit`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use impliance_obs::TrackedMutex;

use crate::node::NodeId;

/// SplitMix64: a cheap, well-distributed mixer used to derive per-link
/// drop decisions from the schedule seed. Public so benches and tests can
/// derive sub-seeds the same way the schedule does.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

fn link_key(from: NodeId, to: NodeId) -> u64 {
    ((from.0 as u64) << 32) | to.0 as u64
}

/// What the schedule decided for one transmit attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver the message, optionally after an injected delay.
    Deliver {
        /// Extra latency to add to this message, in nanoseconds.
        extra_nanos: u64,
    },
    /// Drop the message: transient link loss (the destination is alive).
    DropLink,
    /// Drop the message: the source or destination is scheduled dead.
    DropDeadNode,
}

struct KillRule {
    /// The node dies once the global message counter reaches this value.
    after_messages: u64,
    /// Whether the runtime has already turned this into a physical kill.
    serviced: bool,
}

/// A seeded, deterministic script of failures.
///
/// Determinism contract: whether a given message on link A→B is dropped
/// depends only on `(seed, A, B, k)` where `k` is the number of prior
/// messages attempted on that same link. Kill activation depends on the
/// *global* attempt counter, so the exact activation instant can shift
/// with interleaving across links — but once dead, a node stays dead,
/// and correctness-oriented tests should assert on results, not on the
/// precise activation message.
pub struct FaultSchedule {
    seed: u64,
    /// Global transmit-attempt counter (drives kill activation).
    messages: AtomicU64,
    kills: TrackedMutex<HashMap<NodeId, KillRule>>,
    /// Exact-link drop rates, parts-per-million.
    link_drops: TrackedMutex<HashMap<(NodeId, NodeId), u32>>,
    /// Any-source drop rates keyed by destination, parts-per-million.
    dest_drops: TrackedMutex<HashMap<NodeId, u32>>,
    /// Extra per-message latency by destination, nanoseconds.
    delays: TrackedMutex<HashMap<NodeId, u64>>,
    /// Per-link attempt counters (drive deterministic drop decisions).
    link_seq: TrackedMutex<HashMap<(NodeId, NodeId), u64>>,
}

impl FaultSchedule {
    /// An empty schedule with the given seed.
    pub fn new(seed: u64) -> FaultSchedule {
        FaultSchedule {
            seed,
            messages: AtomicU64::new(0),
            kills: TrackedMutex::new("cluster.fault.kills", HashMap::new()),
            link_drops: TrackedMutex::new("cluster.fault.link_drops", HashMap::new()),
            dest_drops: TrackedMutex::new("cluster.fault.dest_drops", HashMap::new()),
            delays: TrackedMutex::new("cluster.fault.delays", HashMap::new()),
            link_seq: TrackedMutex::new("cluster.fault.link_seq", HashMap::new()),
        }
    }

    /// The schedule's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Kill `node` once `after_messages` transmit attempts have been
    /// observed network-wide. The runtime physically kills it the next
    /// time its submission path services faults; until then the network
    /// already refuses the node's traffic.
    pub fn kill_after(&self, node: NodeId, after_messages: u64) {
        self.kills.lock().insert(
            node,
            KillRule {
                after_messages,
                serviced: false,
            },
        );
    }

    /// Drop probability `p` (0.0–1.0) for messages on the exact link
    /// `from → to`.
    pub fn drop_link(&self, from: NodeId, to: NodeId, p: f64) {
        let ppm = (p.clamp(0.0, 1.0) * 1e6) as u32;
        self.link_drops.lock().insert((from, to), ppm);
    }

    /// Drop probability `p` (0.0–1.0) for messages to `dest` from any
    /// source (exact-link rules take precedence).
    pub fn drop_to(&self, dest: NodeId, p: f64) {
        let ppm = (p.clamp(0.0, 1.0) * 1e6) as u32;
        self.dest_drops.lock().insert(dest, ppm);
    }

    /// Add `extra_nanos` of latency to every message delivered to `dest`
    /// (models a slow node without dropping its traffic).
    pub fn delay_dest(&self, dest: NodeId, extra_nanos: u64) {
        self.delays.lock().insert(dest, extra_nanos);
    }

    /// Transmit attempts observed so far.
    pub fn messages_seen(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Whether `node` has passed its kill threshold.
    pub fn is_dead(&self, node: NodeId) -> bool {
        let seen = self.messages.load(Ordering::Relaxed);
        self.kills
            .lock()
            .get(&node)
            .map(|k| seen >= k.after_messages)
            .unwrap_or(false)
    }

    /// Nodes whose kill threshold has passed but that have not yet been
    /// physically killed. Marks them serviced; the caller is expected to
    /// actually kill them (idempotent if it cannot).
    pub fn due_kills(&self) -> Vec<NodeId> {
        let seen = self.messages.load(Ordering::Relaxed);
        let mut due = Vec::new();
        for (node, rule) in self.kills.lock().iter_mut() {
            if !rule.serviced && seen >= rule.after_messages {
                rule.serviced = true;
                due.push(*node);
            }
        }
        due.sort_unstable();
        due
    }

    /// Decide the fate of one transmit attempt on `from → to`. Called by
    /// [`crate::Network::transmit`]; counts the attempt.
    pub fn decide(&self, from: NodeId, to: NodeId) -> FaultDecision {
        let seen = self.messages.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let kills = self.kills.lock();
            let dead = |n: &NodeId| {
                kills
                    .get(n)
                    .map(|k| seen > k.after_messages)
                    .unwrap_or(false)
            };
            if dead(&from) || dead(&to) {
                return FaultDecision::DropDeadNode;
            }
        }
        let ppm = {
            let links = self.link_drops.lock();
            match links.get(&(from, to)) {
                Some(&p) => p,
                None => self.dest_drops.lock().get(&to).copied().unwrap_or(0),
            }
        };
        if ppm > 0 {
            let k = {
                let mut seqs = self.link_seq.lock();
                let seq = seqs.entry((from, to)).or_insert(0);
                let k = *seq;
                *seq += 1;
                k
            };
            let roll = splitmix64(self.seed ^ splitmix64(link_key(from, to)) ^ k) % 1_000_000;
            if (roll as u32) < ppm {
                return FaultDecision::DropLink;
            }
        }
        let extra = self.delays.lock().get(&to).copied().unwrap_or(0);
        FaultDecision::Deliver { extra_nanos: extra }
    }
}

impl std::fmt::Debug for FaultSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultSchedule")
            .field("seed", &self.seed)
            .field("messages_seen", &self.messages_seen())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_decisions_replay_identically() {
        let run = |seed: u64| -> Vec<bool> {
            let s = FaultSchedule::new(seed);
            s.drop_link(NodeId(1), NodeId(2), 0.3);
            (0..200)
                .map(|_| s.decide(NodeId(1), NodeId(2)) == FaultDecision::DropLink)
                .collect()
        };
        assert_eq!(run(42), run(42), "same seed replays the same drops");
        assert_ne!(run(42), run(43), "different seeds differ");
        let dropped = run(42).iter().filter(|&&d| d).count();
        assert!((30..=90).contains(&dropped), "dropped {dropped}/200 at 30%");
    }

    #[test]
    fn links_are_independent() {
        let s = FaultSchedule::new(7);
        s.drop_link(NodeId(1), NodeId(2), 1.0);
        assert_eq!(s.decide(NodeId(1), NodeId(2)), FaultDecision::DropLink);
        assert_eq!(
            s.decide(NodeId(2), NodeId(1)),
            FaultDecision::Deliver { extra_nanos: 0 },
            "reverse link unaffected"
        );
        assert_eq!(
            s.decide(NodeId(3), NodeId(4)),
            FaultDecision::Deliver { extra_nanos: 0 }
        );
    }

    #[test]
    fn dest_drop_applies_to_any_source() {
        let s = FaultSchedule::new(1);
        s.drop_to(NodeId(9), 1.0);
        assert_eq!(s.decide(NodeId(1), NodeId(9)), FaultDecision::DropLink);
        assert_eq!(s.decide(NodeId(2), NodeId(9)), FaultDecision::DropLink);
        assert_eq!(
            s.decide(NodeId(9), NodeId(1)),
            FaultDecision::Deliver { extra_nanos: 0 },
            "outbound traffic unaffected"
        );
    }

    #[test]
    fn kill_takes_effect_after_threshold() {
        let s = FaultSchedule::new(0);
        s.kill_after(NodeId(5), 3);
        for _ in 0..3 {
            assert_eq!(
                s.decide(NodeId(5), NodeId(1)),
                FaultDecision::Deliver { extra_nanos: 0 }
            );
        }
        assert!(s.is_dead(NodeId(5)));
        assert_eq!(s.decide(NodeId(5), NodeId(1)), FaultDecision::DropDeadNode);
        assert_eq!(s.decide(NodeId(1), NodeId(5)), FaultDecision::DropDeadNode);
        assert_eq!(s.due_kills(), vec![NodeId(5)]);
        assert_eq!(s.due_kills(), Vec::<NodeId>::new(), "serviced once");
    }

    #[test]
    fn delay_reported_for_destination() {
        let s = FaultSchedule::new(0);
        s.delay_dest(NodeId(2), 1_000);
        assert_eq!(
            s.decide(NodeId(1), NodeId(2)),
            FaultDecision::Deliver { extra_nanos: 1_000 }
        );
        assert_eq!(
            s.decide(NodeId(2), NodeId(1)),
            FaultDecision::Deliver { extra_nanos: 0 }
        );
    }
}
