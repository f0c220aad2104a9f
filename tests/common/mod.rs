//! The shared half of the executor's equivalence battery: one fixture,
//! one family of plan generators, and the mode matrix every plan is run
//! across. `parallel_equivalence.rs` drives the matrix (every mode
//! returns the serial reference); `pipeline_equivalence.rs` checks that
//! reference against oracles computed straight from the corpus.
#![allow(dead_code)]

use std::cell::RefCell;
use std::sync::Arc;

use impliance::cluster::{ClusterRuntime, FaultSchedule, Network, NodeId, NodeKind, NodeSpec};
use impliance::docmodel::{Document, Node};
use impliance::index::{InvertedIndex, JoinIndex, PathValueIndex};
use impliance::query::dist::{self, DataNodeState, DistOutput};
use impliance::query::{
    execute_plan_opts, AggItem, ExecContext, ExecMetrics, ExecutionContext, JoinAlgo, LogicalPlan,
    Placement, QueryOutput, RetryPolicy, SortKey,
};
use impliance::storage::{AggFunc, Predicate, StorageEngine, StorageOptions};

/// Debug builds run ~10x slower; scale case counts so `cargo test` stays
/// fast while `--release` runs the full battery.
pub const fn cases(release: u32) -> u32 {
    if cfg!(debug_assertions) {
        release / 8 + 4
    } else {
        release
    }
}

pub const BATCH_SIZES: [usize; 4] = [1, 3, 64, 1024];
pub const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

pub struct Fixture {
    pub storage: StorageEngine,
    text: InvertedIndex,
    values: PathValueIndex,
    joins: JoinIndex,
    /// Everything `put` so far, so the matrix can overwrite it.
    corpus: RefCell<Vec<Document>>,
}

impl Fixture {
    pub fn new(partitions: usize, seal: usize) -> Fixture {
        Fixture {
            storage: StorageEngine::new(StorageOptions {
                partitions,
                seal_threshold: seal,
                compression: true,
                encryption_key: None,
            }),
            text: InvertedIndex::new(4),
            values: PathValueIndex::new(),
            joins: JoinIndex::new(),
            corpus: RefCell::new(Vec::new()),
        }
    }

    /// Commit one document in an epoch of its own and index its values
    /// and text.
    pub fn put(&self, doc: &Document) {
        self.storage.commit(std::slice::from_ref(doc)).unwrap();
        self.values.index_document(doc);
        self.text.index_document(doc);
        self.corpus.borrow_mut().push(doc.clone());
    }

    /// Everything `put` so far — what [`run_cluster`] loads.
    pub fn corpus(&self) -> Vec<Document> {
        self.corpus.borrow().clone()
    }

    pub fn ctx(&self, columnar: bool, snapshot: Option<u64>) -> ExecContext<'_> {
        ExecContext {
            storage: &self.storage,
            text_index: &self.text,
            value_index: &self.values,
            join_index: &self.joins,
            pushdown: true,
            columnar,
            snapshot,
        }
    }

    /// Pin the store where it stands, then commit an emptied new version
    /// of every document. A run pinned at the returned epoch still sees
    /// the corpus as `put`; one that loses the pin anywhere — a morsel, a
    /// join build side, an index fetch — sees bodies with no fields and
    /// answers differently.
    fn pin_then_overwrite(&self) -> u64 {
        let pinned = self.storage.current_epoch();
        for doc in self.corpus.borrow().iter() {
            let emptied = doc.new_version(Node::empty_map(), doc.ingested_at() + 1);
            self.storage.commit(&[emptied]).unwrap();
        }
        pinned
    }
}

/// One point of the mode matrix.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    pub batch_size: usize,
    pub workers: usize,
    pub columnar: bool,
    pub snapshot: Option<u64>,
}

/// The materialized serial reference: one row at a time, one worker, the
/// row pipeline, reading the unpinned latest.
pub const REFERENCE: Mode = Mode {
    batch_size: 1,
    workers: 1,
    columnar: false,
    snapshot: None,
};

pub fn run(
    f: &Fixture,
    plan: &LogicalPlan,
    mode: Mode,
    limit: Option<usize>,
) -> (QueryOutput, ExecMetrics) {
    let opts = ExecutionContext {
        limit,
        ..ExecutionContext::with_batch_size(mode.batch_size)
    }
    .parallelism(mode.workers);
    execute_plan_opts(&f.ctx(mode.columnar, mode.snapshot), plan, &opts).unwrap()
}

/// Render an output in a batch-size-independent but order-sensitive way.
pub fn render(out: &QueryOutput) -> Vec<String> {
    match out {
        QueryOutput::Rows(rows) => rows.iter().map(|r| r.render()).collect(),
        QueryOutput::Docs(docs) => docs.iter().map(|d| format!("{}", d.id().0)).collect(),
        QueryOutput::Path(p) => vec![format!("{p:?}")],
    }
}

/// Run every plan across batch {1,3,64,1024} × workers {1,2,8} × columnar
/// {off,on} × {unpinned, pinned snapshot} and assert that each mode
/// renders exactly the serial reference — same rows, same order. The
/// pinned half runs after the store was overwritten past the pin (see
/// [`Fixture::pin_then_overwrite`]), which is why the fixture is
/// consumed. `rows_out` equals the reference's in every mode, and within
/// one columnar setting the storage work is invariant under the worker
/// count: `segments_scanned + segments_skipped` and `docs_scanned` equal
/// the one-worker run's. A request `limit` may stop a scan early, at a
/// point that depends on who stops it, so the storage work is not
/// compared then.
pub fn assert_matrix(f: Fixture, plans: &[(&str, &LogicalPlan)], limit: Option<usize>) {
    let references: Vec<(Vec<String>, u64)> = plans
        .iter()
        .map(|(_, plan)| {
            let (out, m) = run(&f, plan, REFERENCE, limit);
            (render(&out), m.rows_out)
        })
        .collect();
    let check = |snapshot: Option<u64>| {
        for ((label, plan), (reference, rows_out)) in plans.iter().zip(&references) {
            for columnar in [false, true] {
                for batch_size in BATCH_SIZES {
                    let mut one_worker = None;
                    for workers in WORKER_COUNTS {
                        let mode = Mode {
                            batch_size,
                            workers,
                            columnar,
                            snapshot,
                        };
                        let (out, m) = run(&f, plan, mode, limit);
                        assert_eq!(&render(&out), reference, "{label}: {mode:?} diverged");
                        assert_eq!(m.rows_out, *rows_out, "{label}: {mode:?} rows_out");
                        assert!(m.workers_used >= 1, "{label}: {mode:?} reports no worker");
                        if limit.is_some() {
                            continue;
                        }
                        let work = (
                            m.scan.segments_scanned + m.scan.segments_skipped,
                            m.scan.docs_scanned,
                        );
                        let serial = *one_worker.get_or_insert(work);
                        assert_eq!(
                            work, serial,
                            "{label}: {mode:?} (segments, docs_scanned) differs from one worker"
                        );
                    }
                }
            }
        }
    };
    check(None);
    let pinned = f.pin_then_overwrite();
    check(Some(pinned));
}

// ---------------------------------------------------------------------
// The cluster axis
// ---------------------------------------------------------------------

/// What a cluster run has to survive.
#[derive(Debug, Clone, Copy)]
pub enum Faults {
    Healthy,
    /// Seeded: one data node (picked by the seed) is killed once
    /// `kill_after` messages have crossed the network, and 20 % of the
    /// traffic on its coordinator links is dropped until then.
    KillAndDrops {
        seed: u64,
        kill_after: u64,
    },
}

/// Run `plan` on a fresh simulated cluster of `data_nodes` data nodes
/// (three partitions each, one grid node) loaded with `corpus` through
/// `dist::put` on a two-copy `Placement`, so every document sits in its
/// primary's store and text shard and in the next ring node's replica
/// store. The run retries up to 8 times and fails over through the same
/// placement; it must come back complete.
pub fn run_cluster(
    data_nodes: u32,
    corpus: &[Document],
    plan: &LogicalPlan,
    limit: Option<usize>,
    faults: Faults,
) -> DistOutput {
    // chaos batteries retry a lot; never burn wall-clock time on backoff
    struct NoSleep;
    impl impliance::query::clock::BackoffClock for NoSleep {
        fn sleep_us(&self, _us: u64) {}
    }
    impliance::query::clock::install(Arc::new(NoSleep));

    let mut specs: Vec<NodeSpec> = (0..data_nodes)
        .map(|i| NodeSpec::new(i, NodeKind::Data))
        .collect();
    specs.push(NodeSpec::new(100, NodeKind::Grid));
    let opts = StorageOptions {
        partitions: 3,
        seal_threshold: 8,
        compression: true,
        encryption_key: None,
    };
    let rt = ClusterRuntime::boot(&specs, Arc::new(Network::new()), |spec| match spec.kind {
        NodeKind::Data => Arc::new(DataNodeState::new(&opts)),
        _ => Arc::new(()),
    });
    let nodes = rt.nodes_of_kind(NodeKind::Data);
    let placement = Arc::new(Placement::new(&nodes, 2));
    for doc in corpus {
        dist::put(&rt, &placement, doc).expect("replicated ingest on a healthy cluster");
    }
    if let Faults::KillAndDrops { seed, kill_after } = faults {
        let victim = nodes[(seed % nodes.len() as u64) as usize];
        let coord = NodeId(u32::MAX);
        let sched = Arc::new(FaultSchedule::new(seed));
        sched.drop_link(coord, victim, 0.20);
        sched.drop_link(victim, coord, 0.20);
        sched.kill_after(victim, kill_after);
        rt.network().install_faults(sched);
    }
    let opts = ExecutionContext {
        limit,
        retry: RetryPolicy {
            max_attempts: 8,
            ..RetryPolicy::default()
        },
        failover: Some(placement),
        ..ExecutionContext::with_batch_size(4)
    };
    let out = dist::execute(&rt, plan, &opts).expect("the cluster answers");
    rt.network().clear_faults();
    assert!(!out.degraded && out.coverage.is_complete(), "{faults:?}");
    out
}

// ---------------------------------------------------------------------
// The plan generators
// ---------------------------------------------------------------------

pub fn scan(collection: &str) -> LogicalPlan {
    LogicalPlan::Scan {
        collection: Some(collection.to_string()),
        predicate: None,
        alias: collection.to_string(),
        use_value_index: false,
    }
}

/// `input` filtered on `alias` (un-projected: documents out).
pub fn filter(input: LogicalPlan, alias: &str, predicate: Predicate) -> LogicalPlan {
    LogicalPlan::Filter {
        input: Box::new(input),
        alias: alias.into(),
        predicate,
    }
}

/// Project `paths` of collection `c` (output column = path).
pub fn project(input: LogicalPlan, paths: &[&str]) -> LogicalPlan {
    LogicalPlan::Project {
        input: Box::new(input),
        columns: paths
            .iter()
            .map(|p| ("c".to_string(), p.to_string(), p.to_string()))
            .collect(),
    }
}

pub fn agg(func: AggFunc, operand: Option<&str>, output: &str) -> AggItem {
    AggItem {
        func,
        operand: operand.map(str::to_string),
        output: output.into(),
    }
}

/// Group `input` by `c.<group>`.
pub fn group_agg(input: LogicalPlan, group: &str, aggs: Vec<AggItem>) -> LogicalPlan {
    LogicalPlan::GroupAgg {
        input: Box::new(input),
        group_by: Some(("c".into(), group.into())),
        aggs,
    }
}

/// `l ⋈ r` on `l.k = r.k`.
pub fn join(right: LogicalPlan, algo: JoinAlgo) -> LogicalPlan {
    LogicalPlan::Join {
        left: Box::new(scan("l")),
        right: Box::new(right),
        left_key: ("l".into(), "k".into()),
        right_key: ("r".into(), "k".into()),
        algo,
    }
}

pub const JOIN_ALGOS: [JoinAlgo; 2] = [JoinAlgo::Hash, JoinAlgo::IndexedNestedLoop];

/// The first `n` of collection `c` ordered by `path`, projected to it.
pub fn sort_limit(path: &str, descending: bool, n: usize) -> LogicalPlan {
    project(
        LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(scan("c")),
                keys: vec![SortKey {
                    alias: "c".into(),
                    path: path.into(),
                    descending,
                }],
            }),
            n,
        },
        &[path],
    )
}
