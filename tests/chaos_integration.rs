//! Chaos tests for the fault-tolerant distributed executor: seeded
//! [`FaultSchedule`]s kill nodes and drop messages mid-query, and
//! `dist::execute` must return the exact fault-free row set (via retry +
//! replica failover), or — when coverage is genuinely impossible — an
//! honest degraded result. Never a panic, never a silent short count.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use std::collections::BTreeMap;

use impliance::annotate::{KillPoint, WorkerFaults};
use impliance::cluster::{
    ClusterRuntime, FaultDecision, FaultSchedule, Network, NodeId, NodeKind, NodeSpec,
};
use impliance::core::{ApplianceConfig, Impliance, Input, NoFaults, QueryRequest, Stage};
use impliance::docmodel::{DocId, DocumentBuilder, SourceFormat};
use impliance::query::clock::{self, BackoffClock, ManualTime};
use impliance::query::dist::{self, DataNodeState, DistError, DistOutput};
use impliance::query::{ExecutionContext, LogicalPlan, Placement, Priority, RetryPolicy};
use impliance::storage::{ScanRequest, StorageOptions, Visible};
use impliance::virt::{Admission, TenantId, TenantQuota, WorkloadConfig, WorkloadManager};

const DATA_NODES: u32 = 4;

/// Retry backoff that burns no wall-clock time: chaos batteries retry
/// hundreds of times, and the injectable clock keeps them instant.
struct NoSleep;

impl BackoffClock for NoSleep {
    fn sleep_us(&self, _us: u64) {}
}

fn quiet_backoff() {
    clock::install(Arc::new(NoSleep));
}

fn boot(partitions: usize) -> ClusterRuntime {
    let mut specs: Vec<NodeSpec> = (0..DATA_NODES)
        .map(|i| NodeSpec::new(i, NodeKind::Data))
        .collect();
    specs.push(NodeSpec::new(100, NodeKind::Grid));
    let opts = StorageOptions {
        partitions,
        seal_threshold: 32,
        compression: true,
        encryption_key: None,
    };
    ClusterRuntime::boot(&specs, Arc::new(Network::new()), move |spec| {
        match spec.kind {
            NodeKind::Data => Arc::new(DataNodeState::new(&opts)),
            _ => Arc::new(()),
        }
    })
}

/// Two copies of every document on the cluster's ring: the placement
/// `ingest` stores under and failover reads back from.
fn placement(rt: &ClusterRuntime) -> Arc<Placement> {
    Arc::new(Placement::new(&rt.nodes_of_kind(NodeKind::Data), 2))
}

fn ingest(rt: &ClusterRuntime, docs: u64) {
    let placement = placement(rt);
    for i in 0..docs {
        let doc = DocumentBuilder::new(DocId(i), SourceFormat::Json, "c")
            .field("amount", (i % 100) as i64)
            .build();
        dist::put(rt, &placement, &doc).expect("replicated ingest on a healthy cluster");
    }
}

/// Every document of the cluster, un-projected.
fn full_scan() -> LogicalPlan {
    LogicalPlan::Scan {
        collection: None,
        predicate: None,
        alias: "d".into(),
        use_value_index: false,
    }
}

fn sorted_ids(out: &DistOutput) -> Vec<u64> {
    let mut ids: Vec<u64> = out.output.docs().iter().map(|d| d.id().0).collect();
    ids.sort_unstable();
    ids
}

/// The acceptance scenario: a seeded schedule kills 1 of 4 data nodes
/// mid-scan and drops 20% of the traffic on the victim's coordinator
/// links. Default retry + ring failover must return exactly the
/// fault-free row set, with failovers actually exercised.
#[test]
fn killed_node_with_drops_returns_fault_free_row_set() {
    quiet_backoff();
    let rt = boot(3);
    ingest(&rt, 160);

    let plan = full_scan();
    let opts = ExecutionContext {
        failover: Some(placement(&rt)),
        ..ExecutionContext::with_batch_size(8)
    };
    let baseline = dist::execute(&rt, &plan, &opts).expect("fault-free scan");
    let baseline_ids = sorted_ids(&baseline);
    assert_eq!(baseline_ids.len(), 160, "every ingested doc scans");

    let victim = rt.nodes_of_kind(NodeKind::Data)[2];
    let coord = NodeId(u32::MAX);
    let sched = Arc::new(FaultSchedule::new(0xC4A0_5EED));
    sched.drop_link(coord, victim, 0.20);
    sched.drop_link(victim, coord, 0.20);
    sched.kill_after(victim, 12);
    rt.network().install_faults(Arc::clone(&sched));

    let failovers = impliance::obs::global()
        .metrics()
        .counter(&impliance::obs::catalog::DIST_FAILOVERS);
    let before = failovers.get();
    let chaotic = dist::execute(&rt, &plan, &opts).expect("chaotic scan recovers");
    rt.network().clear_faults();

    assert_eq!(
        sorted_ids(&chaotic),
        baseline_ids,
        "row set under kill + 20% drop equals the fault-free row set"
    );
    assert!(
        failovers.get() > before,
        "the victim's partitions were recovered from replicas"
    );
}

/// Pooled morsel resolution: with `worker_threads = 4` the coordinator
/// resolves node/partition morsels on a scoped pool, but per-morsel
/// retry jitter is salted by (node, partition) — not by scheduling — so
/// a chaotic pooled scan still returns the exact fault-free row set.
#[test]
fn pooled_resilient_scan_returns_fault_free_row_set_under_faults() {
    quiet_backoff();
    let rt = boot(3);
    ingest(&rt, 120);

    let plan = full_scan();
    let opts = ExecutionContext {
        batch_size: 8,
        retry: RetryPolicy {
            max_attempts: 8,
            ..RetryPolicy::default()
        },
        failover: Some(placement(&rt)),
        ..ExecutionContext::default()
    }
    .parallelism(4);
    let baseline = dist::execute(&rt, &plan, &opts).expect("pooled fault-free scan");
    assert!(baseline.coverage.is_complete());
    assert_eq!(sorted_ids(&baseline).len(), 120);

    let victim = rt.nodes_of_kind(NodeKind::Data)[1];
    let coord = NodeId(u32::MAX);
    let sched = Arc::new(FaultSchedule::new(0x0001_ED55));
    sched.drop_link(coord, victim, 0.15);
    sched.drop_link(victim, coord, 0.15);
    sched.kill_after(victim, 10);
    rt.network().install_faults(sched);

    let chaotic = dist::execute(&rt, &plan, &opts).expect("pooled chaotic scan");
    rt.network().clear_faults();

    assert_eq!(
        sorted_ids(&chaotic),
        sorted_ids(&baseline),
        "pooled scan under kill + 15% drop equals the fault-free row set"
    );
    assert!(!chaotic.degraded);
    assert!(chaotic.coverage.is_complete());
}

/// Without a deadline but with `degraded_ok`, a dead node whose replicas
/// are reachable still yields a complete result; the coverage report must
/// agree with itself either way (total = scanned + failed_over + skipped).
#[test]
fn coverage_report_accounting_is_exact_under_kill() {
    quiet_backoff();
    let rt = boot(2);
    ingest(&rt, 80);

    let victim = rt.nodes_of_kind(NodeKind::Data)[0];
    let sched = Arc::new(FaultSchedule::new(7));
    sched.kill_after(victim, 10);
    rt.network().install_faults(sched);

    let opts = ExecutionContext {
        batch_size: 4,
        failover: Some(placement(&rt)),
        degraded_ok: true,
        ..ExecutionContext::default()
    };
    let scan = dist::execute(&rt, &full_scan(), &opts).expect("resilient scan");
    rt.network().clear_faults();

    let c = &scan.coverage;
    assert_eq!(
        c.partitions_total,
        c.partitions_scanned + c.partitions_failed_over + c.partitions_skipped(),
        "coverage accounting balances: {c:?}"
    );
    assert_eq!(
        scan.degraded,
        !c.is_complete(),
        "degraded flag matches coverage"
    );
    if !scan.degraded {
        assert_eq!(sorted_ids(&scan).len(), 80, "complete result has every doc");
    }
}

/// A zero deadline exhausts immediately: with `degraded_ok` the scan
/// returns partial rows plus a coverage report that owns up to every
/// skipped partition; without it, a typed timeout error — never a panic.
#[test]
fn exhausted_deadline_degrades_honestly_or_errors() {
    quiet_backoff();
    let rt = boot(2);
    ingest(&rt, 40);

    let degraded_opts = ExecutionContext {
        deadline: Some(Duration::ZERO),
        degraded_ok: true,
        ..ExecutionContext::default()
    };
    let scan = dist::execute(&rt, &full_scan(), &degraded_opts).expect("degraded result");
    assert!(scan.degraded, "zero deadline cannot complete coverage");
    let c = &scan.coverage;
    assert_eq!(
        c.partitions_total,
        c.partitions_scanned + c.partitions_failed_over + c.partitions_skipped(),
        "skipped partitions are reported, not silently dropped: {c:?}"
    );
    assert!(
        scan.output.len() < 40 || c.is_complete(),
        "a partial row count comes with an incomplete coverage report"
    );

    let strict_opts = ExecutionContext {
        deadline: Some(Duration::ZERO),
        degraded_ok: false,
        ..ExecutionContext::default()
    };
    let err = dist::execute(&rt, &full_scan(), &strict_opts)
        .expect_err("strict mode surfaces the deadline");
    assert!(
        matches!(
            err,
            DistError::Cluster(impliance::cluster::ClusterError::Timeout)
        ),
        "typed timeout, got {err:?}"
    );
}

/// The full composition: 2x standing overload (the admission gate's
/// concurrency limit is saturated by held permits) on a cluster with one
/// data node killed mid-run and 20% message drop on its coordinator
/// links. Every request must land in exactly one of three honest
/// outcomes — the exact fault-free row set, a degraded partial whose
/// coverage report owns up to every skipped partition, or a typed shed
/// with a retry-after hint — never a hang, never a silent short count.
#[test]
fn overloaded_cluster_with_kill_and_drops_answers_typed_or_degraded() {
    quiet_backoff();
    let rt = boot(3);
    ingest(&rt, 120);

    let plan = full_scan();
    let data_nodes = rt.nodes_of_kind(NodeKind::Data);
    let base_opts = ExecutionContext {
        batch_size: 8,
        retry: RetryPolicy {
            max_attempts: 8,
            ..RetryPolicy::default()
        },
        failover: Some(placement(&rt)),
        degraded_ok: true,
        ..ExecutionContext::default()
    };
    let baseline = dist::execute(&rt, &plan, &base_opts).expect("fault-free scan");
    let baseline_ids = sorted_ids(&baseline);
    assert_eq!(baseline_ids.len(), 120, "every ingested doc scans");

    // Admission front door, sized for 4 in-flight queries; 4 permits are
    // already held by long-running load, so every arrival below hits the
    // overload policy — a standing 2x.
    let time = Arc::new(ManualTime::new());
    let wm = WorkloadManager::with_time_source(
        WorkloadConfig {
            max_concurrent: 4,
            expected_service_us: 5_000,
            min_degraded_budget_us: 1,
            ..WorkloadConfig::default()
        },
        time.clone(),
    );
    wm.set_quota(
        TenantId(9),
        TenantQuota {
            tokens_per_sec: 1,
            burst: 1,
        },
    );
    let standing: Vec<_> = (0..4)
        .filter_map(
            |i| match wm.admit(TenantId(100 + i), Priority::Normal, None) {
                Admission::Admitted(p) => Some(p),
                _ => None,
            },
        )
        .collect();
    assert_eq!(
        standing.len(),
        4,
        "standing load fills the concurrency limit"
    );

    // Fault the cluster under the admitted queries: kill one data node
    // after 12 messages and drop 20% both ways on its coordinator links.
    let victim = data_nodes[1];
    let coord = NodeId(u32::MAX);
    let sched = Arc::new(FaultSchedule::new(0x2C0A_0AD5));
    sched.drop_link(coord, victim, 0.20);
    sched.drop_link(victim, coord, 0.20);
    sched.kill_after(victim, 12);
    rt.network().install_faults(sched);

    let (mut exact, mut degraded, mut rejected) = (0u32, 0u32, 0u32);
    const REQUESTS: u64 = 24;
    for i in 0..REQUESTS {
        time.advance_us(1_000);
        // Four interleaved request shapes: a quota-starved low tenant, a
        // normal tenant with slack, a latency-critical high tenant, and a
        // normal tenant whose deadline barely clears the expected wait
        // (so its degraded budget is ~zero and the scan must give up
        // honestly rather than run long).
        let admission = match i % 4 {
            0 => wm.admit(TenantId(9), Priority::Low, None),
            1 => wm.admit(TenantId(1), Priority::Normal, Some(250_000)),
            2 => wm.admit(TenantId(2), Priority::High, None),
            _ => wm.admit(
                TenantId(3),
                Priority::Normal,
                Some(wm.mean_service_us() + 1),
            ),
        };
        match admission {
            Admission::Shed(shed) => {
                assert!(
                    shed.retry_after_us > 0,
                    "typed rejection must carry a retry-after hint: {shed:?}"
                );
                rejected += 1;
            }
            Admission::Admitted(permit) | Admission::Degraded(permit) => {
                let opts = ExecutionContext {
                    deadline: permit.budget_us().map(Duration::from_micros),
                    ..base_opts.clone()
                };
                let scan = dist::execute(&rt, &plan, &opts)
                    .expect("admitted query never hangs or errors with degraded_ok");
                let c = &scan.coverage;
                assert_eq!(
                    c.partitions_total,
                    c.partitions_scanned + c.partitions_failed_over + c.partitions_skipped(),
                    "coverage accounting balances: {c:?}"
                );
                assert_eq!(
                    scan.degraded,
                    !c.is_complete(),
                    "degraded flag matches coverage"
                );
                let ids = sorted_ids(&scan);
                if scan.degraded {
                    assert!(
                        ids.iter().all(|id| baseline_ids.binary_search(id).is_ok()),
                        "degraded rows are a subset of the truth, never invented"
                    );
                    degraded += 1;
                } else {
                    assert_eq!(
                        ids.len(),
                        baseline_ids.len(),
                        "complete answers are exact (i={i}, coverage={c:?}, budget={:?})",
                        permit.budget_us()
                    );
                    assert_eq!(ids, baseline_ids.clone(), "complete answers are exact");
                    exact += 1;
                }
            }
        }
    }
    rt.network().clear_faults();

    assert_eq!(
        u64::from(exact + degraded + rejected),
        REQUESTS,
        "every request accounted: exact={exact} degraded={degraded} rejected={rejected}"
    );
    assert!(rejected > 0, "the starved/low tenants saw typed rejections");
    assert!(
        exact > 0,
        "admitted queries recovered exact rows despite the kill + drops"
    );
    assert!(
        degraded > 0,
        "near-zero budgets produced honest degraded partials"
    );

    drop(standing);
    assert_eq!(wm.stats().active, 0, "all permits released");
}

/// The schedule's determinism contract: per-link drop decisions depend
/// only on (seed, from, to, per-link sequence number), so two schedules
/// built from the same script replay identically.
#[test]
fn fault_schedule_replays_deterministically() {
    let build = || {
        let s = FaultSchedule::new(0x0D15_EA5E);
        s.drop_link(NodeId(0), NodeId(1), 0.35);
        s.drop_to(NodeId(2), 0.10);
        s.delay_dest(NodeId(3), 1_500);
        s
    };
    let a = build();
    let b = build();
    let links = [
        (NodeId(0), NodeId(1)),
        (NodeId(1), NodeId(0)),
        (NodeId(0), NodeId(2)),
        (NodeId(1), NodeId(3)),
    ];
    let mut dropped = 0u32;
    for step in 0..2_000u32 {
        let (from, to) = links[(step % links.len() as u32) as usize];
        let da = a.decide(from, to);
        assert_eq!(da, b.decide(from, to), "replay diverged at step {step}");
        if da == FaultDecision::DropLink {
            dropped += 1;
        }
    }
    // 500 messages at p=0.35 plus 500 at p=0.10: the deterministic stream
    // must land in a loose band around the configured rates.
    assert!(
        (100..=350).contains(&dropped),
        "drop stream wildly off-rate: {dropped}/2000"
    );
    assert_eq!(a.messages_seen(), b.messages_seen());
}

/// Debug builds run proptest cases slower; keep the chaotic battery small
/// there and let `--release` run the full set.
const fn cases(release: u32) -> u32 {
    if cfg!(debug_assertions) {
        release / 4 + 2
    } else {
        release
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    // Fault/fault-free equivalence: for random corpora, victims, and
    // kill points, a resilient scan with generous retry returns exactly
    // the row set a healthy cluster returns.
    #[test]
    fn resilient_scan_equals_fault_free_under_random_kills(
        docs in 20u64..120,
        victim_idx in 0usize..(DATA_NODES as usize),
        kill_after in 9u64..34,
        seed in any::<u64>(),
    ) {
        quiet_backoff();
        let rt = boot(2);
        ingest(&rt, docs);
        let plan = full_scan();
        let opts = ExecutionContext {
            batch_size: 4,
            retry: RetryPolicy { max_attempts: 8, ..RetryPolicy::default() },
            failover: Some(placement(&rt)),
            ..ExecutionContext::default()
        };
        let baseline = dist::execute(&rt, &plan, &opts).expect("fault-free scan");
        prop_assert!(baseline.coverage.is_complete());

        let victim = rt.nodes_of_kind(NodeKind::Data)[victim_idx];
        let sched = Arc::new(FaultSchedule::new(seed));
        sched.kill_after(victim, kill_after);
        rt.network().install_faults(sched);
        let chaotic = dist::execute(&rt, &plan, &opts).expect("scan survives the kill");
        rt.network().clear_faults();

        prop_assert_eq!(
            sorted_ids(&chaotic),
            sorted_ids(&baseline),
            "row set drifted under a kill at message {}", kill_after
        );
        prop_assert!(!chaotic.degraded);
        prop_assert!(chaotic.coverage.is_complete());
    }
}

// ---------------------------------------------------------------------
// Annotator chaos: kill the background discovery worker at cooperative
// crash points mid-drain. The epoch-snapshot contract under test: a
// document's annotation set commits in ONE epoch bump, so a reader at
// ANY pinned epoch sees either none of a subject's annotations or the
// complete quiesced set — never a torn prefix — and a resumed worker
// converges to exactly the fault-free result (no lost or duplicated
// annotations).
// ---------------------------------------------------------------------

/// Each text trips both the entity and the sentiment annotator, so every
/// base document's annotation set spans multiple annotation documents —
/// a torn commit would be observable as a strict subset.
const ANNOTATOR_CORPUS: &[&str] = &[
    "Grace Hopper loved the excellent compilers in Seattle",
    "Alan Turing found the broken tape reader in Manchester awful",
    "Barbara Liskov praised the wonderful abstractions in Boston",
    "Edsger Dijkstra was happy with the reliable queues in Austin",
];

/// Kill the worker the first time crash point `point` is visited with
/// the exact step number `step`. Step numbers are monotone per pipeline,
/// so the schedule fires at most once and a resumed worker runs clean.
struct KillAt {
    point: KillPoint,
    step: u64,
}

impl WorkerFaults for KillAt {
    fn kill_at(&self, point: KillPoint, step: u64) -> bool {
        point == self.point && step == self.step
    }
}

/// A multi-kill schedule for the proptest battery: the worker dies at
/// every listed (point, step) visit and is restarted in between.
struct KillSchedule {
    kills: Vec<(KillPoint, u64)>,
}

impl WorkerFaults for KillSchedule {
    fn kill_at(&self, point: KillPoint, step: u64) -> bool {
        self.kills.iter().any(|&(p, s)| p == point && s == step)
    }
}

fn boot_corpus(docs: usize) -> Impliance {
    let imp = Impliance::boot(ApplianceConfig::default());
    for text in &ANNOTATOR_CORPUS[..docs] {
        imp.ingest(Input::Text("chaos", text)).expect("ingest");
    }
    imp
}

fn doc_body(doc: &impliance::docmodel::Document) -> Option<String> {
    let node = doc.get_str_path("body")?;
    let value = node.as_value()?;
    Some(value.render())
}

/// The annotation sets visible at one pinned epoch, keyed by the subject
/// document's body text (annotation/ingest ids share an allocator, so
/// raw ids are not stable across fault schedules; bodies are).
fn annotation_sets_at(imp: &Impliance, epoch: u64) -> BTreeMap<String, Vec<String>> {
    let req = ScanRequest {
        visible: Visible::AtEpoch(epoch),
        ..ScanRequest::full()
    };
    let scan = imp.storage().scan(&req).expect("snapshot scan");
    let mut bodies: BTreeMap<u64, String> = BTreeMap::new();
    for doc in &scan.documents {
        if doc.subject().is_none() {
            if let Some(body) = doc_body(doc) {
                bodies.insert(doc.id().0, body);
            }
        }
    }
    let mut sets: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for doc in &scan.documents {
        let Some(subject) = doc.subject() else {
            continue;
        };
        let body = bodies
            .get(&subject.0)
            .unwrap_or_else(|| panic!("annotation {:?} visible before its subject", doc.id()));
        sets.entry(body.clone())
            .or_default()
            .push(doc.collection().to_string());
    }
    for set in sets.values_mut() {
        set.sort();
    }
    sets
}

/// The fault-free answer: what a fully quiesced appliance annotates each
/// corpus document with.
fn reference_sets(docs: usize) -> BTreeMap<String, Vec<String>> {
    let imp = boot_corpus(docs);
    imp.maintain(Stage::All, None, &NoFaults);
    annotation_sets_at(&imp, imp.storage().current_epoch())
}

/// The tentpole invariant: at EVERY epoch from boot to now, every
/// subject's visible annotation set is empty-or-complete.
fn assert_zero_or_all(imp: &Impliance, reference: &BTreeMap<String, Vec<String>>, context: &str) {
    for epoch in 0..=imp.storage().current_epoch() {
        for (body, set) in annotation_sets_at(imp, epoch) {
            let full = reference
                .get(&body)
                .unwrap_or_else(|| panic!("{context}: unknown subject {body:?} at epoch {epoch}"));
            assert_eq!(
                &set, full,
                "{context}: torn annotation set for {body:?} at epoch {epoch}"
            );
        }
    }
}

/// Exhaustive single-kill sweep: for every crash point and every step at
/// which it can fire, kill the annotator mid-drain, check the
/// zero-or-all invariant at every pinned epoch, then resume and verify
/// exact convergence with the fault-free annotation sets.
#[test]
fn annotator_killed_mid_drain_never_tears_an_annotation_set() {
    const DOCS: usize = 4;
    let reference = reference_sets(DOCS);
    assert_eq!(reference.len(), DOCS, "every corpus doc gets annotations");
    for (body, set) in &reference {
        assert!(
            set.len() >= 2,
            "corpus doc {body:?} must span multiple annotation docs, got {set:?}"
        );
    }

    for point in [
        KillPoint::AfterFetch,
        KillPoint::BeforeCommit,
        KillPoint::AfterCommit,
    ] {
        for step in 0..64u64 {
            let imp = boot_corpus(DOCS);
            imp.maintain(Stage::Discovery, None, &KillAt { point, step });
            if imp.status().discovery_backlog == 0 {
                // The drain finished before step `step`: the kill can
                // never fire later, so this crash point is exhausted.
                break;
            }
            let ctx = format!("killed at {point:?} step {step}");
            assert_zero_or_all(&imp, &reference, &ctx);

            // A restarted worker replays the unacked change and converges
            // on the fault-free answer: nothing lost, nothing duplicated.
            imp.maintain(Stage::All, None, &NoFaults);
            assert_eq!(imp.status().discovery_backlog, 0, "{ctx}: drain converges");
            assert_eq!(
                imp.status().annotation_epoch,
                imp.storage().current_epoch(),
                "{ctx}: watermark catches up to the last commit"
            );
            assert_eq!(
                annotation_sets_at(&imp, imp.storage().current_epoch()),
                reference,
                "{ctx}: resumed worker must converge on the fault-free sets"
            );
        }
    }
}

/// Replay determinism: the same corpus under the same kill schedule
/// leaves two independent appliances in identical observable states —
/// same progress counters, same watermark, same visible annotation sets
/// at every epoch.
#[test]
fn annotator_chaos_replays_deterministically() {
    let run = || {
        let imp = boot_corpus(3);
        let sched = KillSchedule {
            kills: vec![(KillPoint::BeforeCommit, 4), (KillPoint::AfterCommit, 8)],
        };
        imp.maintain(Stage::Discovery, None, &sched);
        imp.maintain(Stage::Discovery, None, &sched);
        imp
    };
    let a = run();
    let b = run();
    assert_eq!(a.status().discovery, b.status().discovery);
    assert_eq!(a.status().discovery_backlog, b.status().discovery_backlog);
    assert_eq!(a.status().annotation_epoch, b.status().annotation_epoch);
    assert_eq!(
        a.storage().current_epoch(),
        b.storage().current_epoch(),
        "same commits landed on both replicas of the schedule"
    );
    for epoch in 0..=a.storage().current_epoch() {
        assert_eq!(
            annotation_sets_at(&a, epoch),
            annotation_sets_at(&b, epoch),
            "replay diverged at epoch {epoch}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    // Random kill schedules, with fresh ingest arriving mid-chaos: after
    // every crash/restart cycle the zero-or-all invariant holds at every
    // pinned epoch, and a final quiesce converges on exactly the
    // fault-free annotation sets.
    #[test]
    fn annotator_survives_random_kill_schedules(
        docs in 1usize..5,
        kills in proptest::collection::vec((0usize..3, 0u64..24), 1..4),
        ingest_mid_drain in any::<bool>(),
    ) {
        let points = [KillPoint::AfterFetch, KillPoint::BeforeCommit, KillPoint::AfterCommit];
        let sched = KillSchedule {
            kills: kills.iter().map(|&(p, s)| (points[p], s)).collect(),
        };
        let extra = "Ada Lovelace enjoyed the delightful engines in London";
        let mut reference = reference_sets(docs);
        if ingest_mid_drain {
            // The reference for the late arrival comes from its own
            // quiesced appliance; annotation sets are per-subject, so
            // they compose.
            let solo = Impliance::boot(ApplianceConfig::default());
            solo.ingest(Input::Text("chaos", extra)).expect("ingest");
            solo.maintain(Stage::All, None, &NoFaults);
            for (body, set) in annotation_sets_at(&solo, solo.storage().current_epoch()) {
                reference.insert(body, set);
            }
        }

        let imp = boot_corpus(docs);
        let mut ingested_extra = false;
        // Each faulted run either dies at the next scheduled kill or
        // drains the feed; kills.len() + 1 runs exhaust the schedule.
        for round in 0..=kills.len() {
            imp.maintain(Stage::Discovery, None, &sched);
            if ingest_mid_drain && !ingested_extra {
                imp.ingest(Input::Text("chaos", extra)).expect("mid-drain ingest");
                ingested_extra = true;
            }
            assert_zero_or_all(&imp, &reference, &format!("round {round}"));
            prop_assert!(
                imp.status().annotation_epoch <= imp.storage().current_epoch(),
                "watermark never runs ahead of the epoch counter"
            );
        }

        imp.maintain(Stage::All, None, &NoFaults);
        prop_assert_eq!(imp.status().discovery_backlog, 0);
        prop_assert_eq!(
            annotation_sets_at(&imp, imp.storage().current_epoch()),
            reference,
            "chaotic appliance converges on the fault-free annotation sets"
        );
        prop_assert_eq!(
            imp.status().annotation_epoch,
            imp.storage().current_epoch(),
            "quiesced watermark is exact"
        );
    }
}

// ---------------------------------------------------------------------
// Index-maintainer chaos: kills mid-drain leave the full-text index
// stale-but-consistent, never torn
// ---------------------------------------------------------------------

/// A corpus where every document carries one shared term plus two
/// document-unique terms. Torn postings are then observable: if a kill
/// could split one document's postings across runs, a search for one
/// unique term would find the document while its twin misses it.
fn boot_search_corpus(docs: usize) -> (Impliance, Vec<(DocId, u64)>) {
    let imp = Impliance::boot(ApplianceConfig::default());
    let mut epochs = Vec::new();
    for i in 0..docs {
        let id = imp
            .ingest(Input::Json(
                "chaos",
                &format!(r#"{{"notes": "shared uniqa{i}x uniqb{i}x filler words here"}}"#),
            ))
            .expect("ingest")[0];
        epochs.push((id, imp.storage().current_epoch()));
    }
    (imp, epochs)
}

fn hit_ids(imp: &Impliance, query: &str) -> Vec<u64> {
    let request = QueryRequest::builder("")
        .match_text("*", query)
        .top_k(1_000);
    let resp = imp.query(request.build()).expect("keyword query");
    let mut ids: Vec<u64> = resp.hits().into_iter().map(|h| h.id.0).collect();
    ids.sort_unstable();
    ids
}

/// The stale-but-consistent contract after a kill:
///
/// * the `index_epoch` watermark never claims more than storage has;
/// * every document committed at or below the watermark IS searchable
///   (the watermark is a floor, not a guess);
/// * every document is all-or-nothing: both unique terms find it, or
///   neither does (no torn postings).
fn assert_stale_but_consistent(imp: &Impliance, epochs: &[(DocId, u64)], context: &str) {
    let watermark = imp.status().index_epoch;
    assert!(
        watermark <= imp.storage().current_epoch(),
        "{context}: watermark {watermark} ahead of storage epoch {}",
        imp.storage().current_epoch()
    );
    for (i, (id, epoch)) in epochs.iter().enumerate() {
        let a = hit_ids(imp, &format!("uniqa{i}x"));
        let b = hit_ids(imp, &format!("uniqb{i}x"));
        assert_eq!(
            a, b,
            "{context}: torn postings for doc {id:?} — one unique term indexed without its twin"
        );
        if *epoch <= watermark {
            assert_eq!(
                a,
                vec![id.0],
                "{context}: doc {id:?} committed at epoch {epoch} <= watermark {watermark} \
                 must be searchable"
            );
        }
    }
}

/// Exhaustive single-kill sweep over the index maintainer: for every
/// crash point and every step at which it can fire, kill the maintainer
/// mid-drain, check stale-but-consistent, then resume and verify exact
/// convergence with the fault-free search results.
#[test]
fn index_maintainer_killed_mid_drain_stays_stale_but_consistent() {
    const DOCS: usize = 6;
    // Fault-free reference: search hits per unique term after a full drain.
    let (reference_imp, _) = boot_search_corpus(DOCS);
    reference_imp.maintain(Stage::Index, None, &NoFaults);
    let reference: Vec<Vec<u64>> = (0..DOCS)
        .map(|i| hit_ids(&reference_imp, &format!("uniqa{i}x")))
        .collect();
    for (i, hits) in reference.iter().enumerate() {
        assert_eq!(hits.len(), 1, "unique term {i} finds exactly its doc");
    }

    for point in [
        KillPoint::AfterFetch,
        KillPoint::BeforeCommit,
        KillPoint::AfterCommit,
    ] {
        for step in 0..64u64 {
            let (imp, epochs) = boot_search_corpus(DOCS);
            imp.maintain(Stage::Index, None, &KillAt { point, step });
            if imp.status().index_backlog == 0 {
                // The drain finished before step `step`: the kill can
                // never fire later, so this crash point is exhausted.
                break;
            }
            let ctx = format!("index maintainer killed at {point:?} step {step}");
            assert_stale_but_consistent(&imp, &epochs, &ctx);

            // A restarted maintainer replays the unacked record
            // (re-indexing is an idempotent same-postings replace) and
            // converges on the fault-free index.
            imp.maintain(Stage::Index, None, &NoFaults);
            assert_eq!(imp.status().index_backlog, 0, "{ctx}: drain converges");
            assert_eq!(
                imp.status().index_epoch,
                imp.storage().current_epoch(),
                "{ctx}: watermark catches up to the last commit"
            );
            for (i, want) in reference.iter().enumerate() {
                assert_eq!(
                    &hit_ids(&imp, &format!("uniqa{i}x")),
                    want,
                    "{ctx}: resumed maintainer converges on fault-free hits"
                );
            }
        }
    }
}

/// Ingest keeps flowing while the maintainer crash-loops: the watermark
/// stays honest throughout, and a final drain catches up to everything —
/// including documents that arrived mid-chaos.
#[test]
fn index_maintainer_crash_loop_with_mid_chaos_ingest_converges() {
    let (imp, mut epochs) = boot_search_corpus(4);
    let sched = KillSchedule {
        kills: vec![
            (KillPoint::AfterFetch, 1),
            (KillPoint::AfterCommit, 3),
            (KillPoint::BeforeCommit, 5),
        ],
    };
    for round in 0..4 {
        imp.maintain(Stage::Index, None, &sched);
        if round == 1 {
            let i = epochs.len();
            let id = imp
                .ingest(Input::Json(
                    "chaos",
                    &format!(r#"{{"notes": "shared uniqa{i}x uniqb{i}x late arrival"}}"#),
                ))
                .expect("mid-chaos ingest")[0];
            epochs.push((id, imp.storage().current_epoch()));
        }
        assert_stale_but_consistent(&imp, &epochs, &format!("crash-loop round {round}"));
    }
    imp.maintain(Stage::Index, None, &NoFaults);
    assert_eq!(imp.status().index_backlog, 0);
    assert_eq!(imp.status().index_epoch, imp.storage().current_epoch());
    for (i, (id, _)) in epochs.iter().enumerate() {
        assert_eq!(
            hit_ids(&imp, &format!("uniqa{i}x")),
            vec![id.0],
            "post-chaos drain indexes everything, late arrivals included"
        );
    }
}
