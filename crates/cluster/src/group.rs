//! Consistency groups: membership, heartbeats, primary election, and
//! two-phase commit.
//!
//! §3.3: cluster nodes make "consistent locking and caching decisions on
//! data within data consistency groups … being a part of a consistency
//! group requires overhead for heartbeats and for reacting to nodes
//! joining or leaving the group." The group here is tick-driven for
//! deterministic tests: callers advance a logical clock, members record
//! heartbeats, silence beyond the timeout suspects a member, and the
//! primary is always the lowest-id alive member (bully-style).
//!
//! Consistent persistence of discovered structures (§3.3's "cluster nodes
//! are responsible for persisting newly extracted structures … reliably
//! and consistently") uses a two-phase commit across the alive members.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

use impliance_obs::{catalog, Counter, TrackedMutex};

use crate::node::NodeId;

/// Group-protocol counters surfaced through the workspace metrics
/// registry: heartbeat volume and misses plus 2PC outcomes.
struct GroupObs {
    heartbeats: Arc<Counter>,
    heartbeat_misses: Arc<Counter>,
    committed: Arc<Counter>,
    aborted: Arc<Counter>,
    no_members: Arc<Counter>,
}

fn group_obs() -> &'static GroupObs {
    static OBS: OnceLock<GroupObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let m = impliance_obs::global().metrics();
        GroupObs {
            heartbeats: m.counter(&catalog::CLUSTER_GROUP_HEARTBEATS),
            heartbeat_misses: m.counter(&catalog::CLUSTER_GROUP_HEARTBEAT_MISSES),
            committed: m.counter(&catalog::CLUSTER_GROUP_2PC_COMMITTED),
            aborted: m.counter(&catalog::CLUSTER_GROUP_2PC_ABORTED),
            no_members: m.counter(&catalog::CLUSTER_GROUP_2PC_NO_MEMBERS),
        }
    })
}

/// Result of a two-phase commit attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitOutcome {
    /// All alive members prepared and committed.
    Committed {
        /// Members that acknowledged.
        acks: Vec<NodeId>,
    },
    /// At least one member voted no; everyone rolled back.
    Aborted {
        /// Members that refused.
        refused: Vec<NodeId>,
    },
    /// No members are alive.
    NoMembers,
}

/// Membership changes surfaced by ticks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupEvent {
    /// A member missed its heartbeat deadline and was suspected out.
    MemberFailed(NodeId),
    /// A member (re)joined.
    MemberJoined(NodeId),
    /// Primary changed to this node.
    PrimaryChanged(NodeId),
}

#[derive(Debug)]
struct Member {
    last_heartbeat: u64,
    alive: bool,
    /// Failure injection: member votes "no" in 2PC prepare.
    refuse_prepare: bool,
}

#[derive(Debug)]
struct Inner {
    members: BTreeMap<NodeId, Member>,
    primary: Option<NodeId>,
    timeout: u64,
    now: u64,
    /// Committed log entries (payload descriptions), for verification.
    log: Vec<String>,
    /// 2PC round counter (overhead accounting).
    commit_rounds: u64,
    heartbeats_seen: u64,
}

/// A data consistency group over cluster nodes.
#[derive(Debug)]
pub struct ConsistencyGroup {
    inner: TrackedMutex<Inner>,
}

impl ConsistencyGroup {
    /// Create a group with a heartbeat timeout in logical ticks.
    pub fn new(timeout: u64) -> ConsistencyGroup {
        ConsistencyGroup {
            inner: TrackedMutex::new(
                "cluster.group",
                Inner {
                    members: BTreeMap::new(),
                    primary: None,
                    timeout: timeout.max(1),
                    now: 0,
                    log: Vec::new(),
                    commit_rounds: 0,
                    heartbeats_seen: 0,
                },
            ),
        }
    }

    /// Add a member; it is immediately alive with a fresh heartbeat.
    pub fn join(&self, id: NodeId) -> Vec<GroupEvent> {
        let mut inner = self.inner.lock();
        let now = inner.now;
        inner.members.insert(
            id,
            Member {
                last_heartbeat: now,
                alive: true,
                refuse_prepare: false,
            },
        );
        let mut events = vec![GroupEvent::MemberJoined(id)];
        events.extend(Self::reelect(&mut inner));
        events
    }

    /// Record a heartbeat from a member at the current tick. A heartbeat
    /// from a suspected member revives it.
    pub fn heartbeat(&self, id: NodeId) -> Vec<GroupEvent> {
        let mut inner = self.inner.lock();
        inner.heartbeats_seen += 1;
        group_obs().heartbeats.inc();
        let now = inner.now;
        let mut events = Vec::new();
        if let Some(m) = inner.members.get_mut(&id) {
            m.last_heartbeat = now;
            if !m.alive {
                m.alive = true;
                events.push(GroupEvent::MemberJoined(id));
            }
        }
        events.extend(Self::reelect(&mut inner));
        events
    }

    /// Advance the logical clock and run failure detection.
    pub fn tick(&self, delta: u64) -> Vec<GroupEvent> {
        let mut inner = self.inner.lock();
        inner.now += delta;
        let now = inner.now;
        let timeout = inner.timeout;
        let mut events = Vec::new();
        for (id, m) in inner.members.iter_mut() {
            if m.alive && now.saturating_sub(m.last_heartbeat) > timeout {
                m.alive = false;
                group_obs().heartbeat_misses.inc();
                events.push(GroupEvent::MemberFailed(*id));
            }
        }
        events.extend(Self::reelect(&mut inner));
        events
    }

    fn reelect(inner: &mut Inner) -> Vec<GroupEvent> {
        let new_primary = inner
            .members
            .iter()
            .find(|(_, m)| m.alive)
            .map(|(id, _)| *id);
        if new_primary != inner.primary {
            inner.primary = new_primary;
            if let Some(p) = new_primary {
                return vec![GroupEvent::PrimaryChanged(p)];
            }
        }
        Vec::new()
    }

    /// The current primary, if any member is alive.
    pub fn primary(&self) -> Option<NodeId> {
        self.inner.lock().primary
    }

    /// Alive members, ascending.
    pub fn alive_members(&self) -> Vec<NodeId> {
        self.inner
            .lock()
            .members
            .iter()
            .filter(|(_, m)| m.alive)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Inject a prepare-refusal fault into a member.
    pub fn set_refuse_prepare(&self, id: NodeId, refuse: bool) {
        if let Some(m) = self.inner.lock().members.get_mut(&id) {
            m.refuse_prepare = refuse;
        }
    }

    /// Two-phase commit of a payload across alive members. Phase 1 asks
    /// every alive member to prepare; if all vote yes, phase 2 commits and
    /// the entry enters the group log. Any refusal aborts everywhere.
    pub fn commit(&self, payload: &str) -> CommitOutcome {
        let mut inner = self.inner.lock();
        inner.commit_rounds += 1;
        let alive: Vec<NodeId> = inner
            .members
            .iter()
            .filter(|(_, m)| m.alive)
            .map(|(id, _)| *id)
            .collect();
        if alive.is_empty() {
            group_obs().no_members.inc();
            return CommitOutcome::NoMembers;
        }
        let refused: Vec<NodeId> = alive
            .iter()
            .copied()
            .filter(|id| inner.members[id].refuse_prepare)
            .collect();
        if !refused.is_empty() {
            group_obs().aborted.inc();
            return CommitOutcome::Aborted { refused };
        }
        inner.log.push(payload.to_string());
        group_obs().committed.inc();
        CommitOutcome::Committed { acks: alive }
    }

    /// Committed entries, in order.
    pub fn log(&self) -> Vec<String> {
        self.inner.lock().log.clone()
    }

    /// Overhead counters: `(heartbeats_processed, commit_rounds)` — the
    /// "overhead for heartbeats" the paper attributes to cluster nodes.
    pub fn overhead(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.heartbeats_seen, inner.commit_rounds)
    }

    /// Members in a BTree order with liveness, for diagnostics.
    pub fn membership(&self) -> BTreeSet<(NodeId, bool)> {
        self.inner
            .lock()
            .members
            .iter()
            .map(|(id, m)| (*id, m.alive))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group_with(ids: &[u32]) -> ConsistencyGroup {
        let g = ConsistencyGroup::new(3);
        for &i in ids {
            g.join(NodeId(i));
        }
        g
    }

    #[test]
    fn lowest_alive_member_is_primary() {
        let g = group_with(&[5, 2, 9]);
        assert_eq!(g.primary(), Some(NodeId(2)));
    }

    #[test]
    fn missed_heartbeats_fail_member_and_reelect() {
        let g = group_with(&[1, 2]);
        assert_eq!(g.primary(), Some(NodeId(1)));
        // node 2 heartbeats, node 1 goes silent
        g.tick(2);
        g.heartbeat(NodeId(2));
        let events = g.tick(2); // node 1 now 4 ticks silent > timeout 3
        assert!(events.contains(&GroupEvent::MemberFailed(NodeId(1))));
        assert!(events.contains(&GroupEvent::PrimaryChanged(NodeId(2))));
        assert_eq!(g.alive_members(), vec![NodeId(2)]);
    }

    #[test]
    fn heartbeat_revives_suspected_member() {
        let g = group_with(&[1, 2]);
        g.tick(10); // both fail
        assert!(g.alive_members().is_empty());
        assert_eq!(g.primary(), None);
        let events = g.heartbeat(NodeId(2));
        assert!(events.contains(&GroupEvent::MemberJoined(NodeId(2))));
        assert_eq!(g.primary(), Some(NodeId(2)));
        // node 1 rejoins and reclaims primaryship (lowest id)
        let events = g.heartbeat(NodeId(1));
        assert!(events.contains(&GroupEvent::PrimaryChanged(NodeId(1))));
    }

    #[test]
    fn commit_all_yes() {
        let g = group_with(&[1, 2, 3]);
        match g.commit("annotations batch 1") {
            CommitOutcome::Committed { acks } => {
                assert_eq!(acks, vec![NodeId(1), NodeId(2), NodeId(3)])
            }
            other => panic!("expected commit, got {other:?}"),
        }
        assert_eq!(g.log(), vec!["annotations batch 1"]);
    }

    #[test]
    fn commit_aborts_on_refusal() {
        let g = group_with(&[1, 2]);
        g.set_refuse_prepare(NodeId(2), true);
        match g.commit("x") {
            CommitOutcome::Aborted { refused } => assert_eq!(refused, vec![NodeId(2)]),
            other => panic!("expected abort, got {other:?}"),
        }
        assert!(g.log().is_empty(), "aborted payload must not be logged");
        g.set_refuse_prepare(NodeId(2), false);
        assert!(matches!(g.commit("x"), CommitOutcome::Committed { .. }));
    }

    #[test]
    fn commit_with_no_members() {
        let g = ConsistencyGroup::new(3);
        assert_eq!(g.commit("x"), CommitOutcome::NoMembers);
    }

    #[test]
    fn failed_members_excluded_from_commit() {
        let g = group_with(&[1, 2]);
        g.tick(2);
        g.heartbeat(NodeId(1));
        g.tick(2); // 2 fails
        match g.commit("y") {
            CommitOutcome::Committed { acks } => assert_eq!(acks, vec![NodeId(1)]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn overhead_counters() {
        let g = group_with(&[1]);
        g.heartbeat(NodeId(1));
        g.heartbeat(NodeId(1));
        g.commit("z");
        let (hb, rounds) = g.overhead();
        assert_eq!(hb, 2);
        assert_eq!(rounds, 1);
    }

    #[test]
    fn reelection_under_concurrent_expiry_and_refusal() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        // Five members; only 3 and 4 keep heartbeating while the clock
        // advances and a refusing member churns 2PC — all from separate
        // threads. However the operations interleave, the group must end
        // with {3, 4} alive, 3 as primary, and a log containing exactly
        // the payloads whose commit reported Committed.
        let g = Arc::new(ConsistencyGroup::new(3));
        for i in 1..=5 {
            g.join(NodeId(i));
        }
        g.set_refuse_prepare(NodeId(4), true);
        let committed = Arc::new(AtomicU64::new(0));
        let aborted = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for survivor in [3u32, 4] {
            let g = Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    g.heartbeat(NodeId(survivor));
                }
            }));
        }
        {
            let g = Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    g.tick(0); // failure detection without time advance
                }
            }));
        }
        {
            let g = Arc::clone(&g);
            let committed = Arc::clone(&committed);
            let aborted = Arc::clone(&aborted);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    match g.commit(&format!("entry-{i}")) {
                        CommitOutcome::Committed { .. } => {
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                        CommitOutcome::Aborted { refused } => {
                            assert_eq!(refused, vec![NodeId(4)]);
                            aborted.fetch_add(1, Ordering::Relaxed);
                        }
                        CommitOutcome::NoMembers => panic!("members stay joined"),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Now let 1, 2, 5 expire while 3 and 4 stay fresh: advance past
        // half the window, refresh the survivors, then cross the timeout.
        g.tick(2);
        g.heartbeat(NodeId(3));
        g.heartbeat(NodeId(4));
        let events = g.tick(2);
        for dead in [1u32, 2, 5] {
            assert!(events.contains(&GroupEvent::MemberFailed(NodeId(dead))));
        }
        assert!(events.contains(&GroupEvent::PrimaryChanged(NodeId(3))));
        assert_eq!(g.alive_members(), vec![NodeId(3), NodeId(4)]);
        assert_eq!(g.primary(), Some(NodeId(3)));
        // While 4 refused, every round aborted (refuser was alive the
        // whole time) and nothing reached the log.
        assert_eq!(committed.load(Ordering::Relaxed), 0);
        assert_eq!(aborted.load(Ordering::Relaxed), 100);
        assert!(g.log().is_empty());
        // With the fault cleared, the surviving quorum commits again.
        g.set_refuse_prepare(NodeId(4), false);
        match g.commit("after-recovery") {
            CommitOutcome::Committed { acks } => assert_eq!(acks, vec![NodeId(3), NodeId(4)]),
            other => panic!("expected commit, got {other:?}"),
        }
        assert_eq!(g.log(), vec!["after-recovery"]);
    }

    #[test]
    fn concurrent_revival_races_settle_on_lowest_alive_primary() {
        use std::sync::Arc;
        // Members 1..=4 all expire; then every member revives from its
        // own thread while another thread keeps running detection. The
        // election must settle on the lowest id no matter who revived
        // first, and each member must be alive exactly once in the
        // final membership.
        let g = Arc::new(ConsistencyGroup::new(2));
        for i in 1..=4 {
            g.join(NodeId(i));
        }
        g.tick(10);
        assert_eq!(g.primary(), None);
        let mut handles = Vec::new();
        for i in 1..=4u32 {
            let g = Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    g.heartbeat(NodeId(i));
                }
            }));
        }
        {
            let g = Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    g.tick(0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(g.primary(), Some(NodeId(1)));
        assert_eq!(
            g.alive_members(),
            vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
        let membership = g.membership();
        assert_eq!(membership.len(), 4);
        assert!(membership.iter().all(|(_, alive)| *alive));
    }

    #[test]
    fn membership_snapshot() {
        let g = group_with(&[1, 2]);
        g.tick(2);
        g.heartbeat(NodeId(1));
        g.tick(2);
        let m = g.membership();
        assert!(m.contains(&(NodeId(1), true)));
        assert!(m.contains(&(NodeId(2), false)));
    }
}
