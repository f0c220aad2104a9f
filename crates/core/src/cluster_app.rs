//! The scaled-out appliance: Impliance over a simulated cluster.
//!
//! Figure 3's deployment: data nodes own primary data (plus replica
//! stores for other nodes' data), grid nodes run analytic stages, and
//! cluster nodes form a consistency group that commits derived
//! structures. Adding data nodes adds capacity; adding grid nodes adds
//! compute — independently (§3.3). One [`Placement`] says which data
//! nodes hold each document; ingest, replica failover and repair all read
//! it. When a data node dies, the appliance autonomously re-replicates
//! and promotes replicas so queries keep answering — experiment C5's
//! observable.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use impliance_cluster::{
    plan_rolling_upgrade, ClusterError, ClusterRuntime, ConsistencyGroup, Network, NodeId,
    NodeKind, NodeSpec, UpgradePolicy,
};
use impliance_docmodel::{DocId, Document};
use impliance_obs::{TrackedMutex, TrackedRwLock};
use impliance_query::dist::{self, DataNodeState, DistOutput};
use impliance_query::{ExecutionContext, LogicalPlan, Placement, QueryOutput};
use impliance_storage::{codec, Projection, ScanRequest, StorageOptions};

use crate::config::ApplianceConfig;
use crate::error::{Error, ErrorKind};
use crate::ingest::Input;
use crate::query_api::QueryRequest;

/// Summary of a failure-recovery round (experiment C5).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Copies made: a new replica, or a replica promoted to a primary.
    pub docs_repaired: usize,
    /// Encoded bytes of those copies.
    pub bytes_copied: u64,
    /// Documents the dead node held that no survivor holds.
    pub docs_lost: usize,
}

/// The scaled-out Impliance instance.
pub struct ClusterImpliance {
    runtime: Arc<ClusterRuntime>,
    /// App-side handles to every data node's engines (survivor reads
    /// during recovery).
    engines: TrackedMutex<HashMap<NodeId, Arc<DataNodeState>>>,
    /// Where every document lives; replaced, never edited, when a data
    /// node leaves.
    placement: TrackedRwLock<Arc<Placement>>,
    group: ConsistencyGroup,
    /// Software version per node ("1.0" at boot; rolling_upgrade bumps).
    versions: TrackedMutex<HashMap<NodeId, String>>,
    next_id: AtomicU64,
    clock_ms: AtomicI64,
    config: ApplianceConfig,
}

impl ClusterImpliance {
    /// Boot a cluster instance from the hardware manifest in `config`.
    pub fn boot(config: ApplianceConfig) -> ClusterImpliance {
        let mut specs = Vec::new();
        for i in 0..config.data_nodes.max(1) as u32 {
            specs.push(NodeSpec::new(i, NodeKind::Data));
        }
        for i in 0..config.grid_nodes.max(1) as u32 {
            specs.push(NodeSpec::new(1000 + i, NodeKind::Grid));
        }
        for i in 0..config.cluster_nodes.max(1) as u32 {
            specs.push(NodeSpec::new(2000 + i, NodeKind::Cluster));
        }
        let network = Arc::new(Network::new());
        let engines = TrackedMutex::new("core.cluster.engines", HashMap::new());
        let opts = StorageOptions {
            partitions: config.partitions_per_node.max(1),
            seal_threshold: config.seal_threshold,
            compression: config.compression,
            encryption_key: config.encryption_key,
        };
        let runtime = Arc::new(ClusterRuntime::boot(&specs, network, |spec| {
            match spec.kind {
                NodeKind::Data => {
                    let state = Arc::new(DataNodeState::new(&opts));
                    engines.lock().insert(spec.id, Arc::clone(&state));
                    state
                }
                _ => Arc::new(()),
            }
        }));
        let data_ids = runtime.nodes_of_kind(NodeKind::Data);
        let placement = Arc::new(Placement::new(&data_ids, config.replication));
        let group = ConsistencyGroup::new(3);
        for id in runtime.nodes_of_kind(NodeKind::Cluster) {
            group.join(id);
        }
        ClusterImpliance {
            runtime,
            engines,
            placement: TrackedRwLock::new("core.cluster.placement", placement),
            group,
            versions: TrackedMutex::new("core.cluster.versions", HashMap::new()),
            next_id: AtomicU64::new(1),
            clock_ms: AtomicI64::new(1_168_000_000_000),
            config,
        }
    }

    /// The cluster runtime (for experiments that need raw access).
    pub fn runtime(&self) -> &Arc<ClusterRuntime> {
        &self.runtime
    }

    /// The consistency group over cluster nodes.
    pub fn group(&self) -> &ConsistencyGroup {
        &self.group
    }

    /// The configuration the instance booted with.
    pub fn config(&self) -> &ApplianceConfig {
        &self.config
    }

    /// Where every document lives now: the ring over the data nodes in
    /// service and the configured replication factor.
    pub fn placement(&self) -> Arc<Placement> {
        Arc::clone(&self.placement.read())
    }

    /// A new document's id and timestamp.
    fn stamp(&self) -> (DocId, i64) {
        let id = DocId(self.next_id.fetch_add(1, Ordering::Relaxed));
        (id, self.clock_ms.fetch_add(1, Ordering::Relaxed))
    }

    /// Ingest data of any format, mapped exactly as `Impliance::ingest`
    /// maps it: [`dist::put`] stores each document's primary copy on the
    /// node the placement names first and its replicas on the next nodes
    /// of the ring (retrying lost messages, so an acknowledged write is
    /// never reported lost).
    pub fn ingest(&self, input: Input<'_>) -> Result<Vec<DocId>, Error> {
        let placement = self.placement();
        input.store(
            || self.stamp(),
            |doc| {
                dist::put(&self.runtime, &placement, &doc)?;
                Ok(doc.id())
            },
        )
    }

    /// Live primary documents across the cluster.
    pub fn doc_count(&self) -> usize {
        self.engines
            .lock()
            .iter()
            .filter(|(id, _)| self.runtime.all_nodes().contains(id))
            .map(|(_, s)| s.storage.live_docs())
            .sum()
    }

    /// The unified query entry point, cluster edition: the request becomes
    /// the same logical plan `Impliance::query` would build (SQL, match
    /// clause, top-k), and [`dist::execute`] runs it — each data node
    /// compiles and drains its morsels of the plan, a grid node merges.
    /// The simple planner is not consulted: both of its rules pick an
    /// index access path (value index, indexed nested-loop join) that data
    /// nodes do not hold. Transient losses retry per the default
    /// [`impliance_query::RetryPolicy`] and a dead node is recomputed from
    /// the replica stores the placement names; the returned [`DistOutput`]
    /// carries a coverage report saying exactly which partitions the
    /// answer covers. A
    /// request with a deadline degrades to an honest partial when it
    /// expires; one without fails typed if anything is left uncovered.
    /// `at_epoch` is rejected (every node pins its own epoch), and tenant
    /// and priority-based admission are not in this path.
    pub fn query(&self, req: QueryRequest) -> Result<DistOutput, Error> {
        if req.snapshot().is_some() {
            return Err(Error::new(
                ErrorKind::InvalidInput,
                "at_epoch names one engine's epoch; a cluster query pins each node separately",
            ));
        }
        let opts = ExecutionContext {
            batch_size: req.batch_size().unwrap_or(self.config.batch_size),
            limit: req.limit().or(req.top_k()),
            deadline: req.deadline_ms().map(std::time::Duration::from_millis),
            degraded_ok: req.deadline_ms().is_some(),
            worker_threads: req.parallelism().unwrap_or(self.config.worker_threads),
            priority: req.priority(),
            ..ExecutionContext::default()
        };
        self.run_plan(&req.build_plan()?, opts)
    }

    fn run_plan(&self, plan: &LogicalPlan, opts: ExecutionContext) -> Result<DistOutput, Error> {
        let opts = ExecutionContext {
            failover: Some(self.placement()),
            ..opts
        };
        Ok(dist::execute(&self.runtime, plan, &opts)?)
    }

    /// SQL over the cluster. Convenience wrapper over
    /// [`ClusterImpliance::query`].
    pub fn sql(&self, statement: &str) -> Result<QueryOutput, Error> {
        Ok(self.query(QueryRequest::builder(statement).build())?.output)
    }

    /// Figure 3's full pipeline: data-node scan+partial aggregation →
    /// grid-node global merge → cluster-node consistent commit of the
    /// derived result. Returns the committed row count.
    pub fn pipeline_query(&self, req: QueryRequest) -> Result<usize, Error> {
        let rows = self.query(req)?.output.len();
        let payload = format!("derived-aggregate:{rows} groups");
        match self.group.commit(&payload) {
            impliance_cluster::CommitOutcome::Committed { .. } => Ok(rows),
            _ => Err(ClusterError::TaskLost.into()),
        }
    }

    /// Kill a data node and autonomously recover. Every document the node
    /// held, as primary or replica, gets a copy on each node the placement
    /// without it names that lacks one: the next node of its ring walk
    /// gains a replica, and when the dead node was its primary, the
    /// surviving replica that now heads its placement gains the primary
    /// copy. Subsequent scans therefore still see everything. A document
    /// no survivor holds is counted lost; a store that fails a read or a
    /// write fails the recovery with its own kind.
    pub fn kill_data_node(&self, node: NodeId) -> Result<RecoveryReport, Error> {
        let dead = self.engines.lock().get(&node).cloned();
        let dead = dead.ok_or(ClusterError::NodeDown(node))?;
        // Capture the dead node's doc ids before the kill. A failed scan
        // aborts the removal with the node still in service: recovering
        // from an empty id list would skip every document the node held.
        let ids_only = ScanRequest {
            projection: Projection::IdsOnly,
            ..ScanRequest::full()
        };
        let mut held = dead.storage.scan(&ids_only)?.ids;
        held.extend(dead.replica.scan(&ids_only)?.ids);
        held.sort_unstable();
        held.dedup();
        // Planned removal: recovery below rehomes the node's data, so the
        // identity is decommissioned (dropped from scan-coverage
        // membership), not just killed.
        self.runtime.decommission(node);
        self.engines.lock().remove(&node);
        let before = self.placement();
        let after = Arc::new(before.without(node));
        *self.placement.write() = Arc::clone(&after);

        let engines = self.engines.lock().clone();
        let mut out = RecoveryReport::default();
        for id in held {
            let holders = before.nodes_for(id);
            let Some((from, doc)) = fetch(&engines, &holders, id)? else {
                out.docs_lost += 1;
                continue;
            };
            let bytes = codec::encode_document_vec(&doc).len() as u64;
            for (rank, to) in after.nodes_for(id).into_iter().enumerate() {
                // a survivor keeps its copy in the store its old rank named
                let kept = holders.iter().position(|n| *n == to);
                if kept.is_some_and(|old| (old == 0) == (rank == 0)) {
                    continue;
                }
                let target = engines.get(&to).ok_or(ClusterError::NodeDown(to))?;
                let store = target.store_for(rank);
                if from != to {
                    self.runtime.network().transmit(from, to, bytes);
                }
                store.put(&doc)?;
                out.docs_repaired += 1;
                out.bytes_copied += bytes;
            }
        }
        Ok(out)
    }

    /// Roll a software upgrade across the cluster (§3.1): nodes restart
    /// in availability-respecting batches, data nodes keep their storage
    /// across the restart, and the instance stays queryable throughout.
    /// Returns the per-batch node counts.
    pub fn rolling_upgrade(
        &self,
        to_version: &str,
        policy: &UpgradePolicy,
    ) -> Result<Vec<usize>, Error> {
        let mut inventory: Vec<(NodeId, NodeKind)> = Vec::new();
        for kind in [NodeKind::Data, NodeKind::Grid, NodeKind::Cluster] {
            inventory.extend(
                self.runtime
                    .nodes_of_kind(kind)
                    .into_iter()
                    .map(|id| (id, kind)),
            );
        }
        let plan = plan_rolling_upgrade(&inventory, policy, to_version)?;
        let mut batch_sizes = Vec::with_capacity(plan.batches.len());
        for batch in &plan.batches {
            for &node in &batch.nodes {
                let kind = inventory.iter().find(|(n, _)| *n == node).map(|(_, k)| *k);
                let Some(kind) = kind else { continue };
                // "restart": kill, then respawn with the same identity —
                // data nodes (the only ones with engines) keep their
                // engines: state survives the restart
                let state: Arc<dyn std::any::Any + Send + Sync> =
                    match self.engines.lock().get(&node).cloned() {
                        Some(engines) => engines,
                        None => Arc::new(()),
                    };
                self.runtime.kill(node);
                self.runtime.spawn_node(NodeSpec::new(node.0, kind), state);
                self.versions.lock().insert(node, to_version.to_string());
            }
            // the instance must stay queryable between batches
            let any_document = LogicalPlan::Scan {
                collection: None,
                predicate: None,
                alias: "d".into(),
                use_value_index: false,
            };
            let one = ExecutionContext {
                limit: Some(1),
                ..ExecutionContext::default()
            };
            self.run_plan(&any_document, one)?;
            batch_sizes.push(batch.nodes.len());
        }
        Ok(batch_sizes)
    }

    /// The software version each node currently runs (nodes never
    /// upgraded report the boot version "1.0").
    pub fn node_version(&self, node: NodeId) -> String {
        self.versions
            .lock()
            .get(&node)
            .cloned()
            .unwrap_or_else(|| "1.0".to_string())
    }
}

/// The latest version of `id` from the first of `holders` still in
/// service, each read in the store its rank names, with the node it came
/// from; `None` when no survivor holds it.
fn fetch(
    engines: &HashMap<NodeId, Arc<DataNodeState>>,
    holders: &[NodeId],
    id: DocId,
) -> Result<Option<(NodeId, Document)>, Error> {
    for (rank, node) in holders.iter().enumerate() {
        let Some(state) = engines.get(node) else {
            continue;
        };
        if let Some(doc) = state.store_for(rank).get_latest(id)? {
            return Ok(Some((*node, doc)));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use impliance_docmodel::Value;

    fn config(data: usize, grid: usize) -> ApplianceConfig {
        ApplianceConfig {
            data_nodes: data,
            grid_nodes: grid,
            cluster_nodes: 3,
            replication: 2,
            seal_threshold: 64,
            ..ApplianceConfig::default()
        }
    }

    fn load(app: &ClusterImpliance, n: u64) {
        for i in 0..n {
            app.ingest(Input::Json(
                "orders",
                &format!(r#"{{"amount": {}, "cust": "C-{}"}}"#, i % 100, i % 10),
            ))
            .unwrap();
        }
    }

    fn all_orders(app: &ClusterImpliance) -> DistOutput {
        app.query(QueryRequest::builder("SELECT * FROM orders").build())
            .unwrap()
    }

    fn sorted_ids(out: &DistOutput) -> Vec<u64> {
        let mut ids: Vec<u64> = out.output.docs().iter().map(|d| d.id().0).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn ingest_scan_sees_each_doc_once_despite_replication() {
        let app = ClusterImpliance::boot(config(4, 2));
        load(&app, 100);
        assert_eq!(
            all_orders(&app).output.len(),
            100,
            "replicas must not duplicate scan results"
        );
        assert_eq!(app.doc_count(), 100);
    }

    /// 30 % of node→coordinator replies are lost while 200 documents are
    /// ingested, on each of eight drop seeds (unreplicated). Requests
    /// always land, so every document is stored; an ingest whose three
    /// replies are all lost honestly fails `Unavailable` (the put's
    /// `TaskLost`), and every other lost acknowledgement is answered by
    /// the put's retry (the version is already there — that is the ack).
    /// The store holds each document exactly once either way.
    #[test]
    fn ingest_whose_acknowledgement_is_lost_is_acknowledged_by_its_retry() {
        for seed in 2318..2326 {
            let app = ClusterImpliance::boot(ApplianceConfig {
                replication: 1,
                ..config(2, 1)
            });
            let sched = Arc::new(impliance_cluster::FaultSchedule::new(seed));
            for &n in &app.runtime().nodes_of_kind(NodeKind::Data) {
                sched.drop_link(n, NodeId(u32::MAX), 0.30);
            }
            app.runtime().network().install_faults(sched);
            let outcomes: Vec<Result<Vec<DocId>, Error>> = (0..200)
                .map(|i| app.ingest(Input::Json("orders", &format!(r#"{{"amount": {i}}}"#))))
                .collect();
            app.runtime().network().clear_faults();
            let mut lost = 0;
            for outcome in outcomes {
                match outcome {
                    Ok(_) => {}
                    Err(e) if e.kind() == ErrorKind::Unavailable => lost += 1,
                    Err(e) => panic!("seed {seed}: an ingest failed untyped: {e}"),
                }
            }
            let dropped = app.runtime().network().metrics().dropped;
            assert!(
                dropped > 3 * lost,
                "seed {seed}: {dropped} replies dropped, {lost} ingests lost all three"
            );
            assert_eq!(
                sorted_ids(&all_orders(&app)),
                (1..=200).collect::<Vec<u64>>(),
                "seed {seed}"
            );
            // the primary's text shard indexed each document too
            let hits = app
                .query(
                    QueryRequest::builder("SELECT * FROM orders")
                        .match_text("amount", "137")
                        .top_k(5)
                        .build(),
                )
                .unwrap();
            assert_eq!(hits.output.len(), 1, "seed {seed}");
        }
    }

    #[test]
    fn malformed_json_is_a_parse_error_not_a_lost_task() {
        let app = ClusterImpliance::boot(config(2, 1));
        let err = app.ingest(Input::Json("c", "{broken")).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Parse, "{err}");
        let err = app.sql("SELEKT nothing").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Parse, "{err}");
    }

    #[test]
    fn aggregate_and_pipeline() {
        let app = ClusterImpliance::boot(config(3, 2));
        load(&app, 100);
        let statement =
            "SELECT cust, COUNT(*) AS n, SUM(amount) AS total FROM orders GROUP BY cust";
        let out = app.sql(statement).unwrap();
        assert_eq!(out.rows().len(), 10);
        assert!(out.rows().iter().all(|r| r.get("n") == &Value::Int(10)));
        let committed = app
            .pipeline_query(QueryRequest::builder(statement).build())
            .unwrap();
        assert_eq!(committed, 10);
        assert_eq!(
            app.group().log().len(),
            1,
            "cluster nodes committed the derived result"
        );
    }

    #[test]
    fn join_order_by_and_limit_across_cluster() {
        let app = ClusterImpliance::boot(config(2, 2));
        load(&app, 20);
        for i in 0..10u64 {
            app.ingest(Input::Json(
                "customers",
                &format!(r#"{{"code": "C-{i}", "name": "N{i}"}}"#),
            ))
            .unwrap();
        }
        let joined = app
            .sql("SELECT o.amount, c.name FROM orders o JOIN customers c ON o.cust = c.code")
            .unwrap();
        assert_eq!(joined.rows().len(), 20);
        let top = app
            .sql("SELECT amount FROM orders ORDER BY amount DESC LIMIT 3")
            .unwrap();
        let amounts: Vec<&Value> = top.rows().iter().map(|r| r.get("amount")).collect();
        assert_eq!(amounts, [&Value::Int(19), &Value::Int(18), &Value::Int(17)]);
    }

    #[test]
    fn requests_the_cluster_cannot_honour_are_typed_invalid_input() {
        let app = ClusterImpliance::boot(config(2, 1));
        load(&app, 10);
        let pinned = QueryRequest::builder("SELECT * FROM orders")
            .at_epoch(1)
            .build();
        assert_eq!(
            app.query(pinned).unwrap_err().kind(),
            ErrorKind::InvalidInput
        );
        // fusion is a blocking re-ranker with no distributed form
        let fused = QueryRequest::builder("SELECT * FROM orders")
            .match_text("*", "c")
            .fusion(crate::query_api::FusionSpec::default())
            .build();
        assert_eq!(
            app.query(fused).unwrap_err().kind(),
            ErrorKind::InvalidInput
        );
    }

    #[test]
    fn data_node_failure_recovers_all_documents() {
        let app = ClusterImpliance::boot(config(4, 1));
        load(&app, 200);
        let victim = app.runtime().nodes_of_kind(NodeKind::Data)[1];
        let report = app.kill_data_node(victim).unwrap();
        assert!(report.docs_repaired > 0, "repairs must happen: {report:?}");
        assert_eq!(
            report.docs_lost, 0,
            "replication 2 must survive one failure"
        );
        // every document still visible to scans
        assert_eq!(
            all_orders(&app).output.len(),
            200,
            "no documents lost after recovery"
        );
    }

    #[test]
    fn query_survives_scheduled_node_kill() {
        use impliance_cluster::FaultSchedule;
        let app = ClusterImpliance::boot(config(4, 1));
        load(&app, 150);
        let baseline = sorted_ids(&all_orders(&app));
        let victim = app.runtime().nodes_of_kind(NodeKind::Data)[2];
        let sched = Arc::new(FaultSchedule::new(0xBEEF));
        sched.kill_after(victim, 10);
        app.runtime().network().install_faults(sched);
        let out = all_orders(&app);
        app.runtime().network().clear_faults();
        assert_eq!(
            sorted_ids(&out),
            baseline,
            "replica failover preserves the row set"
        );
        assert!(!out.degraded);
        assert!(out.failovers > 0, "the dead node's replicas were read");
        assert!(out.coverage.is_complete());
    }

    #[test]
    fn zero_deadline_query_degrades() {
        let app = ClusterImpliance::boot(config(2, 1));
        load(&app, 20);
        let out = app
            .query(
                QueryRequest::builder("SELECT * FROM orders")
                    .deadline_ms(0)
                    .build(),
            )
            .unwrap();
        assert!(out.degraded);
        assert_eq!(
            out.coverage.partitions_total,
            out.coverage.partitions_skipped()
        );
    }

    #[test]
    fn kill_data_node_surfaces_a_failed_id_scan() {
        let app = ClusterImpliance::boot(config(4, 1));
        load(&app, 200);
        let victim = app.runtime().nodes_of_kind(NodeKind::Data)[1];
        let state = app.engines.lock().get(&victim).cloned().unwrap();
        state.storage.seal_all();
        state.storage.corrupt_sealed_blocks();
        let err = app
            .kill_data_node(victim)
            .expect_err("an unreadable primary store must not report a successful recovery");
        assert_eq!(err.kind(), crate::error::ErrorKind::Corrupt, "{err}");
        // nothing was decommissioned on the strength of an empty id list
        assert!(app
            .runtime()
            .nodes_of_kind(NodeKind::Data)
            .contains(&victim));
        assert!(app.engines.lock().contains_key(&victim));
        // A query meets the same unreadable store inside a morsel. With
        // replicas to recompute from it still answers in full; without a
        // failover policy the storage failure surfaces with its own kind.
        assert_eq!(all_orders(&app).output.len(), 200);
        let any = LogicalPlan::Scan {
            collection: None,
            predicate: None,
            alias: "d".into(),
            use_value_index: false,
        };
        let err = dist::execute(app.runtime(), &any, &ExecutionContext::default())
            .map_err(Error::from)
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Corrupt, "{err}");
    }

    /// Recovery reads each document back from a survivor's store. When
    /// every survivor's replica store is unreadable, the documents whose
    /// primary died cannot be read back: the kill fails with the store's
    /// own kind instead of reporting them lost.
    #[test]
    fn kill_data_node_surfaces_an_unreadable_replica_store() {
        let app = ClusterImpliance::boot(config(4, 1));
        load(&app, 200);
        let victim = app.runtime().nodes_of_kind(NodeKind::Data)[1];
        for (node, state) in app.engines.lock().iter() {
            if *node != victim {
                state.replica.seal_all();
                state.replica.corrupt_sealed_blocks();
            }
        }
        let err = app
            .kill_data_node(victim)
            .expect_err("an unreadable replica store must not report lost documents");
        assert_eq!(err.kind(), ErrorKind::Corrupt, "{err}");
    }

    #[test]
    fn killing_unknown_node_errors() {
        let app = ClusterImpliance::boot(config(2, 1));
        assert!(app.kill_data_node(NodeId(999)).is_err());
    }

    #[test]
    fn independent_scaling_shapes() {
        // More data nodes spread the same corpus wider (fewer docs per
        // node); grid count does not affect storage spread.
        let small = ClusterImpliance::boot(config(2, 1));
        let large = ClusterImpliance::boot(config(8, 1));
        load(&small, 100);
        load(&large, 100);
        let max_per_node = |app: &ClusterImpliance| {
            app.engines
                .lock()
                .values()
                .map(|s| s.storage.live_docs())
                .max()
                .unwrap_or(0)
        };
        assert!(
            max_per_node(&large) < max_per_node(&small),
            "8 nodes should each hold less than 2 nodes would"
        );
    }

    #[test]
    fn sum_aggregate_correct_under_replication() {
        let app = ClusterImpliance::boot(config(3, 1));
        load(&app, 100);
        let out = app.sql("SELECT SUM(amount) AS total FROM orders").unwrap();
        assert_eq!(out.rows()[0].get("total"), &Value::Float(4950.0));
    }
}

#[cfg(test)]
mod upgrade_tests {
    use super::*;

    #[test]
    fn rolling_upgrade_preserves_data_and_availability() {
        let app = ClusterImpliance::boot(ApplianceConfig {
            data_nodes: 4,
            grid_nodes: 2,
            cluster_nodes: 3,
            replication: 1,
            ..ApplianceConfig::default()
        });
        for i in 0..100 {
            app.ingest(Input::Json("orders", &format!(r#"{{"amount": {i}}}"#)))
                .unwrap();
        }
        let batches = app
            .rolling_upgrade("2.0", &UpgradePolicy::default())
            .unwrap();
        assert!(!batches.is_empty());
        // every node now reports 2.0
        for kind in [NodeKind::Data, NodeKind::Grid, NodeKind::Cluster] {
            for node in app.runtime().nodes_of_kind(kind) {
                assert_eq!(app.node_version(node), "2.0");
            }
        }
        // all data survived the restarts
        assert_eq!(app.sql("SELECT * FROM orders").unwrap().len(), 100);
        // node counts unchanged
        assert_eq!(app.runtime().nodes_of_kind(NodeKind::Data).len(), 4);
        assert_eq!(app.runtime().nodes_of_kind(NodeKind::Cluster).len(), 3);
    }

    #[test]
    fn upgrade_fails_when_floor_unsatisfiable() {
        let app = ClusterImpliance::boot(ApplianceConfig {
            data_nodes: 1,
            grid_nodes: 1,
            cluster_nodes: 1,
            replication: 1,
            ..ApplianceConfig::default()
        });
        // default policy wants 2 cluster nodes up — impossible with 1
        let err = app
            .rolling_upgrade("2.0", &UpgradePolicy::default())
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Unavailable, "{err}");
        assert!(
            err.message().contains("cluster"),
            "the upgrade planner's own message survives: {err}"
        );
    }
}

#[cfg(test)]
mod cluster_search_tests {
    use super::*;

    #[test]
    fn cluster_keyword_search_spans_shards() {
        let app = ClusterImpliance::boot(ApplianceConfig {
            data_nodes: 4,
            grid_nodes: 1,
            replication: 2,
            ..ApplianceConfig::default()
        });
        for i in 0..40 {
            let notes = if i % 4 == 0 {
                "fraud indicator present"
            } else {
                "routine claim"
            };
            app.ingest(Input::Json(
                "claims",
                &format!(r#"{{"amount": {i}, "notes": "{notes}"}}"#),
            ))
            .unwrap();
        }
        let search = |k: usize| {
            let req = QueryRequest::builder("").match_text("*", "fraud").top_k(k);
            app.query(req.build()).unwrap()
        };
        assert_eq!(
            search(100).output.len(),
            10,
            "replicas must not duplicate search hits"
        );
        assert_eq!(search(3).output.len(), 3);
        // hybrid: the text match intersects a structured predicate
        let hybrid = QueryRequest::builder("SELECT amount FROM claims WHERE amount >= 20")
            .match_text("notes", "fraud")
            .build();
        let rows = app.query(hybrid).unwrap();
        let mut amounts: Vec<String> = rows.output.rows().iter().map(|r| r.render()).collect();
        amounts.sort();
        assert_eq!(
            amounts,
            [
                "amount=20",
                "amount=24",
                "amount=28",
                "amount=32",
                "amount=36"
            ]
        );
    }
}
