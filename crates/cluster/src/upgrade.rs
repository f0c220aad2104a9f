//! Rolling software upgrades (§3.1).
//!
//! "Impliance software upgrades are automatically pushed to the nodes and
//! installed automatically according to user-modifiable policies that
//! balance the performance and availability impact of doing the upgrade
//! with the hope for security and reliability gains."
//!
//! The planner turns a node inventory into an ordered sequence of
//! batches. A batch never takes down more nodes of one kind than the
//! policy's availability floor allows, so the appliance keeps answering
//! queries throughout the rollout.

use std::collections::BTreeMap;

use crate::{NodeId, NodeKind};

/// The user-modifiable policy balancing speed against availability.
#[derive(Debug, Clone)]
pub struct UpgradePolicy {
    /// Maximum nodes upgraded simultaneously per batch.
    pub batch_size: usize,
    /// Minimum nodes of each kind that must stay up during any batch.
    pub min_available: BTreeMap<&'static str, usize>,
}

impl Default for UpgradePolicy {
    fn default() -> Self {
        UpgradePolicy {
            batch_size: 2,
            min_available: BTreeMap::from([("data", 1), ("grid", 1), ("cluster", 2)]),
        }
    }
}

/// One step of the rollout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpgradeBatch {
    /// Nodes taken down, upgraded, and restarted together.
    pub nodes: Vec<NodeId>,
}

/// A complete rollout plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpgradePlan {
    /// Batches in execution order.
    pub batches: Vec<UpgradeBatch>,
    /// The version being rolled out.
    pub to_version: String,
}

/// Errors from planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpgradeError {
    /// The policy's availability floor cannot be met for a node kind —
    /// e.g. only one data node exists but one must stay up while it
    /// upgrades.
    CannotMaintainAvailability(&'static str),
}

impl std::fmt::Display for UpgradeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpgradeError::CannotMaintainAvailability(kind) => {
                write!(
                    f,
                    "cannot upgrade {kind} nodes while keeping the availability floor"
                )
            }
        }
    }
}

impl std::error::Error for UpgradeError {}

/// Plan a rolling upgrade over the given nodes. Nodes are grouped by
/// kind; each kind is upgraded in batches bounded both by `batch_size`
/// and by its availability floor.
pub fn plan_rolling_upgrade(
    nodes: &[(NodeId, NodeKind)],
    policy: &UpgradePolicy,
    to_version: &str,
) -> Result<UpgradePlan, UpgradeError> {
    let mut by_kind: BTreeMap<&'static str, Vec<NodeId>> = BTreeMap::new();
    for (id, kind) in nodes {
        by_kind.entry(kind.name()).or_default().push(*id);
    }
    let mut batches = Vec::new();
    for (kind, mut ids) in by_kind {
        ids.sort_unstable();
        let floor = policy.min_available.get(kind).copied().unwrap_or(0);
        let total = ids.len();
        if total <= floor && total > 0 {
            return Err(UpgradeError::CannotMaintainAvailability(match kind {
                "data" => "data",
                "grid" => "grid",
                _ => "cluster",
            }));
        }
        // at most (total - floor) nodes of this kind may be down at once
        let max_down = (total - floor).max(1);
        let step = policy.batch_size.min(max_down).max(1);
        for chunk in ids.chunks(step) {
            batches.push(UpgradeBatch {
                nodes: chunk.to_vec(),
            });
        }
    }
    Ok(UpgradePlan {
        batches,
        to_version: to_version.to_string(),
    })
}

/// Verify a plan against its policy (used by tests and by the executor
/// before applying): no batch exceeds the size bound or violates a
/// per-kind availability floor.
pub fn validate_plan(
    plan: &UpgradePlan,
    nodes: &[(NodeId, NodeKind)],
    policy: &UpgradePolicy,
) -> bool {
    let count_of_kind = |kind: &str| nodes.iter().filter(|(_, k)| k.name() == kind).count();
    for batch in &plan.batches {
        if batch.nodes.is_empty() {
            return false;
        }
        // per-kind down-count within the batch
        let mut down: BTreeMap<&'static str, usize> = BTreeMap::new();
        for id in &batch.nodes {
            if let Some((_, kind)) = nodes.iter().find(|(n, _)| n == id) {
                *down.entry(kind.name()).or_default() += 1;
            } else {
                return false; // unknown node
            }
        }
        for (kind, n_down) in down {
            let floor = policy.min_available.get(kind).copied().unwrap_or(0);
            if count_of_kind(kind).saturating_sub(n_down) < floor {
                return false;
            }
        }
    }
    // every node appears exactly once
    let mut seen: Vec<NodeId> = plan.batches.iter().flat_map(|b| b.nodes.clone()).collect();
    seen.sort_unstable();
    let mut all: Vec<NodeId> = nodes.iter().map(|(n, _)| *n).collect();
    all.sort_unstable();
    seen == all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(data: u32, grid: u32, cluster_n: u32) -> Vec<(NodeId, NodeKind)> {
        let mut out = Vec::new();
        for i in 0..data {
            out.push((NodeId(i), NodeKind::Data));
        }
        for i in 0..grid {
            out.push((NodeId(100 + i), NodeKind::Grid));
        }
        for i in 0..cluster_n {
            out.push((NodeId(200 + i), NodeKind::Cluster));
        }
        out
    }

    #[test]
    fn plan_covers_every_node_once_and_validates() {
        let nodes = cluster(4, 3, 3);
        let policy = UpgradePolicy::default();
        let plan = plan_rolling_upgrade(&nodes, &policy, "2.0").unwrap();
        assert!(validate_plan(&plan, &nodes, &policy), "{plan:?}");
        assert_eq!(plan.to_version, "2.0");
    }

    #[test]
    fn availability_floor_limits_batch_width() {
        // 3 cluster nodes with floor 2 → only 1 may be down at a time
        let nodes = cluster(0, 0, 3);
        let policy = UpgradePolicy::default();
        let plan = plan_rolling_upgrade(&nodes, &policy, "2.0").unwrap();
        assert_eq!(
            plan.batches.len(),
            3,
            "one cluster node per batch: {plan:?}"
        );
        assert!(validate_plan(&plan, &nodes, &policy));
    }

    #[test]
    fn single_node_kind_cannot_upgrade_under_floor() {
        let nodes = cluster(1, 0, 0);
        let policy = UpgradePolicy::default(); // data floor 1
        assert_eq!(
            plan_rolling_upgrade(&nodes, &policy, "2.0"),
            Err(UpgradeError::CannotMaintainAvailability("data"))
        );
    }

    #[test]
    fn batch_size_respected_when_floor_allows() {
        let nodes = cluster(8, 0, 0);
        let policy = UpgradePolicy {
            batch_size: 3,
            min_available: BTreeMap::from([("data", 2)]),
        };
        let plan = plan_rolling_upgrade(&nodes, &policy, "2.0").unwrap();
        assert!(plan.batches.iter().all(|b| b.nodes.len() <= 3));
        assert!(validate_plan(&plan, &nodes, &policy));
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let nodes = cluster(2, 0, 0);
        let policy = UpgradePolicy::default();
        // both data nodes in one batch with floor 1 → invalid
        let bad = UpgradePlan {
            batches: vec![UpgradeBatch {
                nodes: vec![NodeId(0), NodeId(1)],
            }],
            to_version: "x".into(),
        };
        assert!(!validate_plan(&bad, &nodes, &policy));
        // a plan that misses a node → invalid
        let partial = UpgradePlan {
            batches: vec![UpgradeBatch {
                nodes: vec![NodeId(0)],
            }],
            to_version: "x".into(),
        };
        assert!(!validate_plan(&partial, &nodes, &policy));
    }
}
