//! Node threads, mailboxes, task submission, and work crews.
//!
//! Every node "supports the same execution environment" (§3.3): a
//! mailbox-draining worker thread. Work is submitted as boxed closures
//! that receive the node's context (its identity plus whatever state the
//! upper layer attached — a storage engine for data nodes, nothing for
//! grid nodes). Results flow back over per-task channels; all transfers
//! are charged to the [`Network`].

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use impliance_analysis::{TrackedMutex, TrackedRwLock};
use impliance_obs::Counter;

use crate::network::Network;
use crate::node::{NodeId, NodeKind, NodeSpec};

fn tasks_submitted() -> &'static Arc<Counter> {
    static OBS: std::sync::OnceLock<Arc<Counter>> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        impliance_obs::global()
            .metrics()
            .counter("cluster.runtime.tasks_submitted")
    })
}

/// Errors from the cluster runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The destination node is unknown or has been killed.
    NodeDown(NodeId),
    /// No node of the requested kind is alive.
    NoNodeOfKind(&'static str),
    /// The task's result channel closed without a value (node died
    /// mid-task or its reply was dropped in flight).
    TaskLost,
    /// Failure injection dropped the request in flight; the destination
    /// itself is alive, so the send is worth retrying.
    MessageDropped(NodeId),
    /// The caller's wait budget expired before the result arrived.
    Timeout,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NodeDown(id) => write!(f, "{id} is down"),
            ClusterError::NoNodeOfKind(k) => write!(f, "no {k} node available"),
            ClusterError::TaskLost => write!(f, "task result lost"),
            ClusterError::MessageDropped(id) => write!(f, "message to {id} dropped in flight"),
            ClusterError::Timeout => write!(f, "timed out waiting for task result"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Context passed to every task when it runs on a node.
pub struct NodeCtx {
    /// The executing node.
    pub id: NodeId,
    /// Its kind.
    pub kind: NodeKind,
    /// Upper-layer state attached at spawn (e.g. a storage engine).
    pub state: Arc<dyn Any + Send + Sync>,
    /// The shared network, for tasks that themselves ship data onward.
    pub network: Arc<Network>,
}

type Job = Box<dyn FnOnce(&NodeCtx) -> Box<dyn Any + Send> + Send>;

enum Mail {
    Task {
        job: Job,
        reply: Sender<Box<dyn Any + Send>>,
        reply_to: NodeId,
    },
    Stop,
}

struct NodeHandle {
    spec: NodeSpec,
    sender: Sender<Mail>,
    thread: Option<std::thread::JoinHandle<()>>,
    inflight: Arc<AtomicU64>,
    completed: Arc<AtomicU64>,
}

/// Typed handle to an asynchronous task result.
pub struct TaskHandle<T> {
    receiver: Receiver<Box<dyn Any + Send>>,
    _marker: std::marker::PhantomData<T>,
}

impl<T: 'static> TaskHandle<T> {
    /// Block until the result arrives. Returns `TaskLost` if the node died
    /// or the result had an unexpected type.
    pub fn join(self) -> Result<T, ClusterError> {
        match self.receiver.recv() {
            Ok(boxed) => boxed
                .downcast::<T>()
                .map(|b| *b)
                .map_err(|_| ClusterError::TaskLost),
            Err(_) => Err(ClusterError::TaskLost),
        }
    }

    /// Block until the result arrives or `timeout` elapses. A `Timeout`
    /// abandons the in-flight task: its reply (if any) is discarded with
    /// the handle.
    pub fn join_timeout(self, timeout: std::time::Duration) -> Result<T, ClusterError> {
        use crossbeam::channel::RecvTimeoutError;
        match self.receiver.recv_timeout(timeout) {
            Ok(boxed) => boxed
                .downcast::<T>()
                .map(|b| *b)
                .map_err(|_| ClusterError::TaskLost),
            Err(RecvTimeoutError::Timeout) => Err(ClusterError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(ClusterError::TaskLost),
        }
    }
}

/// The cluster runtime: spawns and addresses node threads.
pub struct ClusterRuntime {
    nodes: TrackedRwLock<HashMap<NodeId, NodeHandle>>,
    /// Cluster membership: every node ever spawned and not yet
    /// decommissioned, alive or dead. An unplanned death ([`Self::kill`])
    /// keeps its entry — the node is still *expected* to hold data, and
    /// coordinators that pretend otherwise return silent partial answers.
    /// Only [`Self::decommission`] (a planned removal, after the node's
    /// data has been rehomed) shrinks this set.
    members: TrackedRwLock<BTreeMap<NodeId, NodeKind>>,
    network: Arc<Network>,
    /// Round-robin cursors per kind.
    cursors: TrackedMutex<HashMap<&'static str, usize>>,
    /// The coordinator's "node id" used as message source for client work.
    coordinator: NodeId,
}

impl ClusterRuntime {
    /// Boot a runtime over the given hardware manifest. Node state is
    /// produced per node by `make_state` (data nodes typically get storage
    /// engines; others may share unit state).
    pub fn boot(
        specs: &[NodeSpec],
        network: Arc<Network>,
        mut make_state: impl FnMut(&NodeSpec) -> Arc<dyn Any + Send + Sync>,
    ) -> ClusterRuntime {
        let rt = ClusterRuntime {
            nodes: TrackedRwLock::new("cluster.nodes", HashMap::new()),
            members: TrackedRwLock::new("cluster.members", BTreeMap::new()),
            network,
            cursors: TrackedMutex::new("cluster.cursors", HashMap::new()),
            coordinator: NodeId(u32::MAX),
        };
        for spec in specs {
            let state = make_state(spec);
            rt.spawn_node(spec.clone(), state);
        }
        rt
    }

    /// Add a node at runtime ("add more data nodes to provide additional
    /// data capacity", §3.3). Returns `false` if the OS refused the node's
    /// worker thread — the node is then simply absent (`NodeDown` on
    /// submit), which degrades capacity instead of crashing the appliance.
    pub fn spawn_node(&self, spec: NodeSpec, state: Arc<dyn Any + Send + Sync>) -> bool {
        let (tx, rx) = unbounded::<Mail>();
        let inflight = Arc::new(AtomicU64::new(0));
        let completed = Arc::new(AtomicU64::new(0));
        let ctx = NodeCtx {
            id: spec.id,
            kind: spec.kind,
            state,
            network: Arc::clone(&self.network),
        };
        let inflight2 = Arc::clone(&inflight);
        let completed2 = Arc::clone(&completed);
        let network = Arc::clone(&self.network);
        let node_id = spec.id;
        let spawned = std::thread::Builder::new()
            .name(format!("impliance-{}-{}", spec.kind.name(), spec.id.0))
            .spawn(move || {
                for mail in rx.iter() {
                    match mail {
                        Mail::Task {
                            job,
                            reply,
                            reply_to,
                        } => {
                            let out = job(&ctx);
                            // Charge the reply transfer. Size estimation:
                            // tasks that care report exact sizes themselves;
                            // the runtime charges a fixed envelope. A
                            // dropped reply envelope suppresses the reply:
                            // the coordinator's handle disconnects and
                            // reports `TaskLost`, exactly as a real lost
                            // response would.
                            if network.transmit(node_id, reply_to, 64) {
                                #[allow(clippy::disallowed_methods, reason = "charged above")]
                                let _ = reply.send(out);
                            }
                            inflight2.fetch_sub(1, Ordering::Relaxed);
                            completed2.fetch_add(1, Ordering::Relaxed);
                        }
                        Mail::Stop => break,
                    }
                }
            });
        let thread = match spawned {
            Ok(t) => t,
            // No worker means no mailbox drain: leave the node unregistered
            // so submissions report NodeDown rather than hanging.
            Err(_) => return false,
        };
        self.members.write().insert(spec.id, spec.kind);
        self.nodes.write().insert(
            spec.id,
            NodeHandle {
                spec,
                sender: tx,
                thread: Some(thread),
                inflight,
                completed,
            },
        );
        true
    }

    /// The shared network.
    pub fn network(&self) -> &Arc<Network> {
        &self.network
    }

    /// Ids of alive nodes of a kind, ascending.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .nodes
            .read()
            .values()
            .filter(|h| h.spec.kind == kind)
            .map(|h| h.spec.id)
            .collect();
        out.sort_unstable();
        out
    }

    /// Ids of *member* nodes of a kind, ascending — alive or dead. This
    /// is the coordinator's coverage denominator: a node killed by a
    /// fault is still a member (its data is unaccounted for until it is
    /// recovered or the node is [`Self::decommission`]ed), so resilient
    /// readers can tell "everything answered" from "a holder of data
    /// never showed up".
    pub fn members_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        self.members
            .read()
            .iter()
            .filter(|(_, k)| **k == kind)
            .map(|(id, _)| *id)
            .collect()
    }

    /// All alive node ids.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.nodes.read().keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// Submit a task to a specific node, charging `payload_bytes` of
    /// request traffic. Returns a typed handle.
    pub fn submit_to<T: Send + 'static>(
        &self,
        node: NodeId,
        payload_bytes: u64,
        job: impl FnOnce(&NodeCtx) -> T + Send + 'static,
    ) -> Result<TaskHandle<T>, ClusterError> {
        // Turn any scheduled deaths that have come due into real kills
        // before routing, so a scheduled-dead node reports `NodeDown`
        // rather than swallowing the task.
        self.service_faults();
        // Copy the mailbox out under the lock, then release it before any
        // channel traffic (invariant L11: never hold a guard across a send).
        let (sender, inflight) = {
            let nodes = self.nodes.read();
            let handle = nodes.get(&node).ok_or(ClusterError::NodeDown(node))?;
            (handle.sender.clone(), Arc::clone(&handle.inflight))
        };
        if !self.network.transmit(self.coordinator, node, payload_bytes) {
            // Distinguish transient loss from a dead destination: a drop
            // against a live node is retryable, a scheduled-dead node is
            // not (callers should fail over instead).
            return Err(if self.network.node_is_dead(node) {
                ClusterError::NodeDown(node)
            } else {
                ClusterError::MessageDropped(node)
            });
        }
        let (reply_tx, reply_rx) = bounded::<Box<dyn Any + Send>>(1);
        let mail = Mail::Task {
            job: Box::new(move |ctx| Box::new(job(ctx)) as Box<dyn Any + Send>),
            reply: reply_tx,
            reply_to: self.coordinator,
        };
        inflight.fetch_add(1, Ordering::Relaxed);
        tasks_submitted().inc();
        #[allow(clippy::disallowed_methods, reason = "charged above")]
        if sender.send(mail).is_err() {
            inflight.fetch_sub(1, Ordering::Relaxed); // node died between lookup and send
            return Err(ClusterError::NodeDown(node));
        }
        Ok(TaskHandle {
            receiver: reply_rx,
            _marker: std::marker::PhantomData,
        })
    }

    /// Submit to the least-loaded node of a kind (the scheduler's
    /// resource-availability criterion, §3.3), falling back to round-robin
    /// among ties.
    pub fn submit_to_kind<T: Send + 'static>(
        &self,
        kind: NodeKind,
        payload_bytes: u64,
        job: impl FnOnce(&NodeCtx) -> T + Send + 'static,
    ) -> Result<TaskHandle<T>, ClusterError> {
        let candidates = self.nodes_of_kind(kind);
        if candidates.is_empty() {
            return Err(ClusterError::NoNodeOfKind(kind.name()));
        }
        let chosen = {
            let nodes = self.nodes.read();
            let min_load = candidates
                .iter()
                .map(|id| nodes[id].inflight.load(Ordering::Relaxed))
                .min()
                .unwrap_or(0);
            let ties: Vec<NodeId> = candidates
                .iter()
                .copied()
                .filter(|id| nodes[id].inflight.load(Ordering::Relaxed) == min_load)
                .collect();
            let mut cursors = self.cursors.lock();
            let cursor = cursors.entry(kind.name()).or_insert(0);
            let pick = ties[*cursor % ties.len()];
            *cursor = cursor.wrapping_add(1);
            pick
        };
        self.submit_to(chosen, payload_bytes, job)
    }

    /// Fan a job out to *every* node of a kind (work crew) and collect all
    /// results.
    pub fn map_kind<T: Send + 'static>(
        &self,
        kind: NodeKind,
        payload_bytes: u64,
        job: impl Fn(&NodeCtx) -> T + Send + Sync + Clone + 'static,
    ) -> Result<Vec<T>, ClusterError> {
        let ids = self.nodes_of_kind(kind);
        if ids.is_empty() {
            return Err(ClusterError::NoNodeOfKind(kind.name()));
        }
        let mut handles = Vec::with_capacity(ids.len());
        for id in ids {
            let job = job.clone();
            handles.push(self.submit_to(id, payload_bytes, move |ctx| job(ctx))?);
        }
        handles.into_iter().map(TaskHandle::join).collect()
    }

    /// Tasks completed by a node so far.
    pub fn completed(&self, node: NodeId) -> u64 {
        self.nodes
            .read()
            .get(&node)
            .map(|h| h.completed.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Physically kill any node whose scheduled death (see
    /// [`crate::fault::FaultSchedule::kill_after`]) has come due. Invoked
    /// on every submission; callers may also invoke it directly after
    /// advancing the message clock.
    pub fn service_faults(&self) {
        if let Some(sched) = self.network.fault_schedule() {
            for node in sched.due_kills() {
                self.kill(node);
            }
        }
    }

    /// Planned removal: kill the node *and* drop it from membership.
    /// Callers must have rehomed the node's data first (re-replication,
    /// primary promotion) — after decommissioning, coordinators no longer
    /// count the node toward scan coverage.
    pub fn decommission(&self, node: NodeId) -> bool {
        let killed = self.kill(node);
        self.members.write().remove(&node);
        killed
    }

    /// Kill a node (failure injection). In-flight tasks are lost; later
    /// submissions return `NodeDown`. The node stays a cluster *member*
    /// (see [`Self::members_of_kind`]): its data is still out there, and
    /// honest coverage accounting must keep counting it until recovery
    /// rehomes the data and [`Self::decommission`] retires the identity.
    pub fn kill(&self, node: NodeId) -> bool {
        let handle = self.nodes.write().remove(&node);
        match handle {
            Some(mut h) => {
                // Zero-byte control-plane stop, not a data transfer:
                // nothing to charge to the Network.
                #[allow(clippy::disallowed_methods, reason = "control-plane stop, no data")]
                let _ = h.sender.send(Mail::Stop);
                if let Some(t) = h.thread.take() {
                    let _ = t.join();
                }
                true
            }
            None => false,
        }
    }

    /// Graceful shutdown of all nodes.
    pub fn shutdown(&self) {
        let ids = self.all_nodes();
        for id in ids {
            self.kill(id);
        }
    }
}

impl Drop for ClusterRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Vec<NodeSpec> {
        vec![
            NodeSpec::new(1, NodeKind::Data),
            NodeSpec::new(2, NodeKind::Data),
            NodeSpec::new(3, NodeKind::Grid),
            NodeSpec::new(4, NodeKind::Grid),
            NodeSpec::new(5, NodeKind::Cluster),
        ]
    }

    fn boot() -> ClusterRuntime {
        ClusterRuntime::boot(&manifest(), Arc::new(Network::new()), |_| Arc::new(()))
    }

    #[test]
    fn submit_returns_typed_results() {
        let rt = boot();
        let h = rt.submit_to(NodeId(3), 10, |ctx| ctx.id.0 * 10).unwrap();
        assert_eq!(h.join().unwrap(), 30);
    }

    #[test]
    fn submit_to_unknown_node_fails() {
        let rt = boot();
        assert!(matches!(
            rt.submit_to(NodeId(99), 0, |_| 0u32),
            Err(ClusterError::NodeDown(NodeId(99)))
        ));
    }

    #[test]
    fn kind_routing_balances() {
        let rt = boot();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..8 {
            let h = rt.submit_to_kind(NodeKind::Grid, 0, |ctx| ctx.id).unwrap();
            seen.insert(h.join().unwrap());
        }
        assert_eq!(seen.len(), 2, "both grid nodes should be used");
    }

    #[test]
    fn map_kind_reaches_every_node() {
        let rt = boot();
        let mut ids = rt.map_kind(NodeKind::Data, 0, |ctx| ctx.id.0).unwrap();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn state_is_node_local() {
        let specs = manifest();
        let rt = ClusterRuntime::boot(&specs, Arc::new(Network::new()), |spec| {
            Arc::new(spec.id.0 * 100) as Arc<dyn Any + Send + Sync>
        });
        let h = rt
            .submit_to(NodeId(2), 0, |ctx| {
                *ctx.state.downcast_ref::<u32>().unwrap()
            })
            .unwrap();
        assert_eq!(h.join().unwrap(), 200);
    }

    #[test]
    fn network_is_charged_for_requests_and_replies() {
        let rt = boot();
        rt.network().reset_metrics();
        rt.submit_to(NodeId(1), 500, |_| ())
            .unwrap()
            .join()
            .unwrap();
        let m = rt.network().metrics();
        assert_eq!(m.messages, 2); // request + reply envelope
        assert_eq!(m.bytes, 564);
    }

    #[test]
    fn kill_makes_node_unreachable() {
        let rt = boot();
        assert!(rt.kill(NodeId(3)));
        assert!(!rt.kill(NodeId(3)), "second kill is a no-op");
        assert!(rt.submit_to(NodeId(3), 0, |_| 0u32).is_err());
        assert_eq!(rt.nodes_of_kind(NodeKind::Grid), vec![NodeId(4)]);
    }

    #[test]
    fn no_node_of_kind_after_killing_all() {
        let rt = boot();
        rt.kill(NodeId(5));
        assert!(matches!(
            rt.submit_to_kind(NodeKind::Cluster, 0, |_| 0u32),
            Err(ClusterError::NoNodeOfKind("cluster"))
        ));
    }

    #[test]
    fn spawn_node_at_runtime_scales_out() {
        let rt = boot();
        rt.spawn_node(NodeSpec::new(10, NodeKind::Grid), Arc::new(()));
        assert_eq!(rt.nodes_of_kind(NodeKind::Grid).len(), 3);
        let h = rt.submit_to(NodeId(10), 0, |ctx| ctx.kind.name()).unwrap();
        assert_eq!(h.join().unwrap(), "grid");
    }

    #[test]
    fn completed_counters_advance() {
        let rt = boot();
        for _ in 0..5 {
            rt.submit_to(NodeId(1), 0, |_| ()).unwrap().join().unwrap();
        }
        assert_eq!(rt.completed(NodeId(1)), 5);
    }

    #[test]
    fn injected_drop_is_distinct_from_dead_node() {
        let rt = boot();
        rt.network().set_drop_rate(NodeId(1), 1.0);
        assert!(matches!(
            rt.submit_to(NodeId(1), 0, |_| 0u32),
            Err(ClusterError::MessageDropped(NodeId(1)))
        ));
        rt.network().heal(NodeId(1));
        assert!(matches!(
            rt.submit_to(NodeId(99), 0, |_| 0u32),
            Err(ClusterError::NodeDown(NodeId(99)))
        ));
    }

    #[test]
    fn join_timeout_reports_slow_tasks() {
        let rt = boot();
        let h = rt
            .submit_to(NodeId(3), 0, |_| {
                #[allow(clippy::disallowed_methods, reason = "a slow task on a real thread")]
                std::thread::sleep(std::time::Duration::from_millis(200));
                7u32
            })
            .unwrap();
        assert!(matches!(
            h.join_timeout(std::time::Duration::from_millis(10)),
            Err(ClusterError::Timeout)
        ));
        let h = rt.submit_to(NodeId(4), 0, |_| 7u32).unwrap();
        assert_eq!(h.join_timeout(std::time::Duration::from_secs(5)), Ok(7));
    }

    #[test]
    fn scheduled_kill_becomes_node_down() {
        use crate::fault::FaultSchedule;
        let rt = boot();
        let sched = Arc::new(FaultSchedule::new(3));
        sched.kill_after(NodeId(2), 2);
        rt.network().install_faults(sched);
        // First submission passes (messages 1–2: request + reply).
        let h = rt.submit_to(NodeId(2), 0, |ctx| ctx.id.0).unwrap();
        assert_eq!(h.join().unwrap(), 2);
        // Threshold passed: the next submission services the kill and the
        // node is physically gone.
        assert!(matches!(
            rt.submit_to(NodeId(2), 0, |_| 0u32),
            Err(ClusterError::NodeDown(NodeId(2)))
        ));
        assert_eq!(rt.nodes_of_kind(NodeKind::Data), vec![NodeId(1)]);
    }

    #[test]
    fn dropped_reply_envelope_surfaces_as_task_lost() {
        use crate::fault::FaultSchedule;
        let rt = boot();
        let sched = Arc::new(FaultSchedule::new(9));
        // Drop every reply flowing back to the coordinator from node 1.
        sched.drop_link(NodeId(1), NodeId(u32::MAX), 1.0);
        rt.network().install_faults(sched);
        let h = rt.submit_to(NodeId(1), 0, |_| 1u32).unwrap();
        assert!(matches!(h.join(), Err(ClusterError::TaskLost)));
    }

    #[test]
    fn parallel_fanout_runs_concurrently() {
        // 4 tasks of 30 ms on 2 grid nodes should take ~60 ms, not 120.
        let rt = boot();
        #[allow(clippy::disallowed_methods, reason = "the test times real threads")]
        let start = std::time::Instant::now();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                rt.submit_to_kind(NodeKind::Grid, 0, |_| {
                    #[allow(clippy::disallowed_methods, reason = "a slow task on a real thread")]
                    std::thread::sleep(std::time::Duration::from_millis(30));
                })
                .unwrap()
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(110),
            "elapsed {elapsed:?}"
        );
    }
}
