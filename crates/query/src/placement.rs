//! Where a document lives: one consistent-hash ring, computed and never
//! stored.
//!
//! §3.4: storage management is "determining how and where to store the
//! system's data, including how much to replicate the data for
//! reliability", with no administrator involved. A [`Placement`] answers
//! "where" for every document from its id alone: the id hashes onto a
//! ring of virtual nodes, and the first `replication` distinct data nodes
//! met walking the ring hold it, the first of them as primary. Nothing
//! records a document's nodes, because nothing needs to: removing a node
//! from the ring keeps the surviving holders in their order and appends
//! the next node on the walk, which is exactly the replica set a repair
//! restores. Adding or removing a node relocates only the keys in its
//! arc, the property that lets Impliance "seamlessly and scalably expand"
//! (§1) without mass data reshuffling.
//!
//! Ingest ([`crate::dist::put`]), replica failover ([`crate::dist::execute`])
//! and the scaled-out appliance's repair after a node loss all read the
//! same `Placement`.

use std::collections::BTreeMap;

use impliance_cluster::NodeId;
use impliance_docmodel::DocId;

/// Virtual nodes per physical node; more vnodes → smoother balance.
const VNODES: u32 = 64;

fn hash64(x: u64) -> u64 {
    // splitmix64 finalizer
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The data nodes of a consistent-hash ring and how many of them hold
/// each document.
#[derive(Debug, Clone)]
pub struct Placement {
    /// ring position → physical node
    ring: BTreeMap<u64, NodeId>,
    /// nodes on the ring, ascending
    nodes: Vec<NodeId>,
    replication: usize,
}

impl Placement {
    /// A ring over `nodes` (duplicates count once) placing every document
    /// on `replication` of them (at least 1).
    pub fn new(nodes: &[NodeId], replication: usize) -> Placement {
        let mut nodes = nodes.to_vec();
        nodes.sort_unstable();
        nodes.dedup();
        let mut ring = BTreeMap::new();
        for &node in &nodes {
            for v in 0..VNODES {
                ring.insert(hash64((u64::from(node.0) << 32) | u64::from(v)), node);
            }
        }
        Placement {
            ring,
            nodes,
            replication: replication.max(1),
        }
    }

    /// The nodes on the ring, ascending.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// How many nodes hold each document (fewer when the ring is smaller).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The distinct nodes holding `id`, primary first: the primary's
    /// store is the copy queries scan, the rest hold it in their replica
    /// stores. Empty only on an empty ring.
    pub fn nodes_for(&self, id: DocId) -> Vec<NodeId> {
        let start = hash64(id.0);
        let mut out = Vec::with_capacity(self.replication);
        for (_, node) in self.ring.range(start..).chain(self.ring.range(..start)) {
            if !out.contains(node) {
                out.push(*node);
                if out.len() == self.replication {
                    break;
                }
            }
        }
        out
    }

    /// The primary of `id` (the head of [`Placement::nodes_for`]), if the
    /// ring has a node.
    pub fn owner(&self, id: DocId) -> Option<NodeId> {
        let start = hash64(id.0);
        let mut walk = self.ring.range(start..).chain(self.ring.range(..start));
        walk.next().map(|(_, node)| *node)
    }

    /// The placement once `node` has left the ring: every document keeps
    /// its surviving holders in order, and one that lost a holder gains
    /// the next node on its walk.
    pub fn without(&self, node: NodeId) -> Placement {
        let mut rest = self.clone();
        rest.nodes.retain(|n| *n != node);
        rest.ring.retain(|_, n| *n != node);
        rest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ring_of(n: u32, replication: usize) -> Placement {
        Placement::new(&(0..n).map(NodeId).collect::<Vec<_>>(), replication)
    }

    #[test]
    fn placement_is_deterministic_and_distinct() {
        let r = ring_of(5, 3);
        for i in 0..100u64 {
            let p1 = r.nodes_for(DocId(i));
            let p2 = r.nodes_for(DocId(i));
            assert_eq!(p1, p2);
            assert_eq!(p1.len(), 3);
            let mut dedup = p1.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "replicas must be distinct nodes");
        }
    }

    #[test]
    fn placement_capped_by_ring_size() {
        assert_eq!(ring_of(2, 3).nodes_for(DocId(1)).len(), 2);
        assert!(ring_of(0, 3).nodes_for(DocId(1)).is_empty());
        assert_eq!(ring_of(0, 3).owner(DocId(1)), None);
    }

    #[test]
    fn balance_is_reasonable() {
        let r = ring_of(4, 1);
        let mut counts = std::collections::HashMap::new();
        for i in 0..4000u64 {
            *counts.entry(r.owner(DocId(i)).unwrap()).or_insert(0u32) += 1;
        }
        for (_, c) in counts {
            assert!(c > 500 && c < 2000, "unbalanced: {c}");
        }
    }

    #[test]
    fn removal_only_moves_owned_keys() {
        let r1 = ring_of(5, 1);
        let r2 = r1.without(NodeId(3));
        let mut moved = 0;
        let total = 2000u64;
        for i in 0..total {
            let p1 = r1.owner(DocId(i)).unwrap();
            let p2 = r2.owner(DocId(i)).unwrap();
            if p1 != p2 {
                // only keys previously owned by node 3 may move
                assert_eq!(p1, NodeId(3), "key {i} moved from a surviving node");
                moved += 1;
            }
        }
        // ~1/5 of keys should move
        assert!(
            moved > (total / 10) as i32 && moved < (total / 3) as i32,
            "moved {moved}"
        );
    }

    #[test]
    fn duplicate_nodes_count_once() {
        let r = Placement::new(&[NodeId(0), NodeId(1), NodeId(2), NodeId(1)], 2);
        assert_eq!(r.nodes(), &[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(r.ring.len(), 3 * VNODES as usize);
    }

    #[test]
    fn failover_placement_promotes_next_replica() {
        let r = ring_of(5, 3);
        let id = DocId(42);
        let before = r.nodes_for(id);
        let after = r.without(before[0]).nodes_for(id);
        // old second replica becomes primary
        assert_eq!(after[0], before[1]);
        assert_eq!(after.len(), 3);
    }

    #[test]
    fn owner_heads_nodes_for_and_replication_floors_at_one() {
        let r = Placement::new(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)], 0);
        assert_eq!(r.replication(), 1);
        for id in 0..50u64 {
            let nodes = r.nodes_for(DocId(id));
            assert_eq!(nodes.len(), 1);
            assert_eq!(r.owner(DocId(id)), Some(nodes[0]));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Removing a node keeps every document's surviving holders in
        // their order and appends at most one node: the replica set a
        // repair restores is the ring's own answer on the smaller ring,
        // alive and distinct, for any node set, factor and removal order.
        #[test]
        fn removal_keeps_survivors_in_order_and_appends_at_most_one(
            ids in prop::collection::vec(any::<u32>(), 1..9),
            replication in 1usize..4,
            removals in prop::collection::vec(any::<u32>(), 1..6),
            docs in prop::collection::vec(any::<u64>(), 1..64),
        ) {
            let nodes: Vec<NodeId> = ids.into_iter().map(|i| NodeId(i % 16)).collect();
            let mut placement = Placement::new(&nodes, replication);
            for pick in removals {
                let len = placement.nodes().len().max(1);
                let Some(&gone) = placement.nodes().get(pick as usize % len) else {
                    break;
                };
                let rest = placement.without(gone);
                for &doc in &docs {
                    let before = placement.nodes_for(DocId(doc));
                    let after = rest.nodes_for(DocId(doc));
                    let kept: Vec<NodeId> = before.iter().copied().filter(|n| *n != gone).collect();
                    prop_assert_eq!(after.get(..kept.len()), Some(&kept[..]));
                    prop_assert!(after.len() <= kept.len() + 1);
                    prop_assert_eq!(after.len(), replication.min(rest.nodes().len()));
                    prop_assert_eq!(rest.owner(DocId(doc)), after.first().copied());
                    for (i, n) in after.iter().enumerate() {
                        prop_assert!(rest.nodes().contains(n), "{n:?} is not on the ring");
                        prop_assert!(!after[..i].contains(n), "{n:?} holds {doc} twice");
                    }
                }
                placement = rest;
            }
        }
    }
}
