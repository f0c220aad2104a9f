//! Storage management: replication policy, placement, and autonomous
//! repair.
//!
//! §3.4: "Storage management is the task of determining how and where to
//! store the system's data, including how much to replicate the data for
//! reliability. Some data, especially data users have added, will require
//! high reliability, and some will require the kind of regulatory
//! protection mandated by Sarbanes-Oxley. Other data can be re-created
//! with varying amounts of effort, such as data derived by analytics."
//!
//! The manager assigns a replication factor per data class, places
//! replicas on the consistent-hash ring, and when a node dies produces
//! (and accounts for) the re-replication plan that restores every
//! document's factor — with **no administrator involvement**, the paper's
//! zero-knobs goal.

use std::collections::{BTreeMap, HashMap};

use impliance_cluster::NodeId;
use impliance_docmodel::DocId;

use crate::ring::HashRing;

/// Reliability classes of stored data (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataClass {
    /// Data users added: high reliability.
    UserBase,
    /// Derived by analytics; can be re-created: cheap.
    Derived,
    /// Under regulatory retention: high reliability + write-once flag.
    Regulatory,
}

/// Replication policy per class.
#[derive(Debug, Clone)]
pub struct StoragePolicy {
    /// Replicas for user base data.
    pub user_base: usize,
    /// Replicas for derived data.
    pub derived: usize,
    /// Replicas for regulatory data.
    pub regulatory: usize,
}

impl Default for StoragePolicy {
    fn default() -> Self {
        StoragePolicy {
            user_base: 3,
            derived: 1,
            regulatory: 3,
        }
    }
}

impl StoragePolicy {
    /// Replication factor for a class.
    pub fn factor(&self, class: DataClass) -> usize {
        match class {
            DataClass::UserBase => self.user_base,
            DataClass::Derived => self.derived,
            DataClass::Regulatory => self.regulatory,
        }
    }
}

/// One re-replication action: copy `doc` from a surviving holder to `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairAction {
    /// The under-replicated document.
    pub doc: DocId,
    /// A surviving replica to copy from.
    pub from: NodeId,
    /// The node that should receive a new replica.
    pub to: NodeId,
    /// Bytes to copy.
    pub bytes: u64,
}

/// Summary of a repair round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicationReport {
    /// Documents that were under-replicated.
    pub under_replicated: usize,
    /// Actions produced.
    pub actions: Vec<RepairAction>,
    /// Total bytes scheduled for copying.
    pub bytes_to_move: u64,
}

#[derive(Debug, Clone)]
struct DocMeta {
    class: DataClass,
    bytes: u64,
    replicas: Vec<NodeId>,
    /// Regulatory data is write-once (WORM); tracked for auditing.
    worm: bool,
}

/// The storage manager.
#[derive(Debug)]
pub struct StorageManager {
    policy: StoragePolicy,
    ring: HashRing,
    docs: HashMap<DocId, DocMeta>,
}

impl StorageManager {
    /// Create a manager over the given data nodes.
    pub fn new(policy: StoragePolicy, nodes: &[NodeId]) -> StorageManager {
        let mut ring = HashRing::new();
        for &n in nodes {
            ring.add_node(n);
        }
        StorageManager {
            policy,
            ring,
            docs: HashMap::new(),
        }
    }

    /// Current data nodes.
    pub fn nodes(&self) -> &[NodeId] {
        self.ring.nodes()
    }

    /// Place a new document: returns the replica set (primary first).
    pub fn place(&mut self, doc: DocId, class: DataClass, bytes: u64) -> Vec<NodeId> {
        let replicas = self.ring.placement(doc, self.policy.factor(class));
        self.docs.insert(
            doc,
            DocMeta {
                class,
                bytes,
                replicas: replicas.clone(),
                worm: class == DataClass::Regulatory,
            },
        );
        replicas
    }

    /// The replica set currently recorded for a document.
    pub fn replicas(&self, doc: DocId) -> Vec<NodeId> {
        self.docs
            .get(&doc)
            .map(|m| m.replicas.clone())
            .unwrap_or_default()
    }

    /// Whether the document is write-once (regulatory).
    pub fn is_worm(&self, doc: DocId) -> bool {
        self.docs.get(&doc).map(|m| m.worm).unwrap_or(false)
    }

    /// Per-node stored byte load (for balance diagnostics).
    pub fn node_load(&self) -> BTreeMap<NodeId, u64> {
        let mut out = BTreeMap::new();
        for m in self.docs.values() {
            for &n in &m.replicas {
                *out.entry(n).or_insert(0) += m.bytes;
            }
        }
        out
    }

    /// Handle a node failure: remove it from the ring and every replica
    /// set, then compute the repair plan restoring every affected
    /// document's factor. The plan is applied to the metadata immediately
    /// (the actual byte copies are the caller's job — experiment C5 times
    /// them through the simulated network).
    pub fn node_failed(&mut self, node: NodeId) -> ReplicationReport {
        self.ring.remove_node(node);
        let mut report = ReplicationReport::default();
        for (&id, meta) in self.docs.iter_mut() {
            if !meta.replicas.contains(&node) {
                continue;
            }
            meta.replicas.retain(|n| *n != node);
            let want = self.policy.factor(meta.class);
            if meta.replicas.len() >= want {
                continue;
            }
            report.under_replicated += 1;
            // survivors to copy from; if none, data is lost (derived data
            // with factor 1) — recorded as an action-less entry
            let Some(&from) = meta.replicas.first() else {
                continue;
            };
            // candidate targets: ring placement minus current holders
            let candidates = self.ring.placement(id, want + meta.replicas.len());
            for cand in candidates {
                if meta.replicas.len() >= want {
                    break;
                }
                if !meta.replicas.contains(&cand) {
                    meta.replicas.push(cand);
                    report.actions.push(RepairAction {
                        doc: id,
                        from,
                        to: cand,
                        bytes: meta.bytes,
                    });
                    report.bytes_to_move += meta.bytes;
                }
            }
        }
        report
    }

    /// Add a new node to the ring (future placements use it; existing
    /// replicas stay put — rebalancing is lazy, like real systems).
    pub fn node_added(&mut self, node: NodeId) {
        self.ring.add_node(node);
    }

    /// Count of documents whose replica sets currently satisfy policy.
    pub fn fully_replicated(&self) -> usize {
        self.docs
            .values()
            .filter(|m| m.replicas.len() >= self.policy.factor(m.class))
            .count()
    }

    /// Total tracked documents.
    pub fn doc_count(&self) -> usize {
        self.docs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn placement_respects_class_factors() {
        let mut m = StorageManager::new(StoragePolicy::default(), &nodes(5));
        let user = m.place(DocId(1), DataClass::UserBase, 100);
        let derived = m.place(DocId(2), DataClass::Derived, 100);
        let reg = m.place(DocId(3), DataClass::Regulatory, 100);
        assert_eq!(user.len(), 3);
        assert_eq!(derived.len(), 1);
        assert_eq!(reg.len(), 3);
        assert!(m.is_worm(DocId(3)));
        assert!(!m.is_worm(DocId(1)));
    }

    #[test]
    fn failure_triggers_repair_restoring_factor() {
        let mut m = StorageManager::new(StoragePolicy::default(), &nodes(6));
        for i in 0..200u64 {
            m.place(DocId(i), DataClass::UserBase, 50);
        }
        assert_eq!(m.fully_replicated(), 200);
        let victim = NodeId(2);
        let report = m.node_failed(victim);
        assert!(
            report.under_replicated > 0,
            "some docs must have lived on node 2"
        );
        assert_eq!(report.actions.len(), report.under_replicated);
        assert_eq!(report.bytes_to_move, report.actions.len() as u64 * 50);
        // after repair, everything is back to factor 3 and nothing
        // references the dead node
        assert_eq!(m.fully_replicated(), 200);
        for i in 0..200u64 {
            assert!(!m.replicas(DocId(i)).contains(&victim));
        }
    }

    #[test]
    fn derived_data_with_single_replica_can_be_lost() {
        let mut m = StorageManager::new(StoragePolicy::default(), &nodes(3));
        for i in 0..50u64 {
            m.place(DocId(i), DataClass::Derived, 10);
        }
        let victim = m.replicas(DocId(0))[0];
        let report = m.node_failed(victim);
        // docs whose only replica was the victim get no repair actions
        let lost = 50 - m.fully_replicated();
        assert!(lost > 0, "some derived docs should be lost");
        assert!(report.actions.len() < report.under_replicated + lost);
    }

    #[test]
    fn repair_targets_are_alive_and_distinct() {
        let mut m = StorageManager::new(StoragePolicy::default(), &nodes(5));
        for i in 0..100u64 {
            m.place(DocId(i), DataClass::UserBase, 10);
        }
        let report = m.node_failed(NodeId(0));
        for a in &report.actions {
            assert_ne!(a.to, NodeId(0));
            assert_ne!(a.from, NodeId(0));
            assert_ne!(a.from, a.to);
        }
    }

    #[test]
    fn node_load_tracks_bytes() {
        let mut m = StorageManager::new(StoragePolicy::default(), &nodes(4));
        for i in 0..100u64 {
            m.place(DocId(i), DataClass::UserBase, 10);
        }
        let load = m.node_load();
        let total: u64 = load.values().sum();
        assert_eq!(total, 100 * 10 * 3, "3 replicas of 10 bytes each");
        // reasonably balanced across 4 nodes
        for (_, l) in load {
            assert!(l > 300, "load {l}");
        }
    }

    #[test]
    fn added_node_used_for_future_placements() {
        let mut m = StorageManager::new(StoragePolicy::default(), &nodes(3));
        m.node_added(NodeId(9));
        let mut seen = false;
        for i in 0..200u64 {
            if m.place(DocId(i), DataClass::UserBase, 1)
                .contains(&NodeId(9))
            {
                seen = true;
                break;
            }
        }
        assert!(seen, "new node should receive some placements");
    }

    #[test]
    fn cascading_failures_still_converge() {
        let mut m = StorageManager::new(StoragePolicy::default(), &nodes(6));
        for i in 0..100u64 {
            m.place(DocId(i), DataClass::UserBase, 10);
        }
        m.node_failed(NodeId(0));
        m.node_failed(NodeId(1));
        m.node_failed(NodeId(2));
        // 3 nodes remain = factor, all docs should be fully replicated
        assert_eq!(m.fully_replicated(), 100);
        assert_eq!(m.nodes().len(), 3);
    }
}
