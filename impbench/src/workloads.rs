//! The four workloads.
//!
//! Each drives the appliance only through its public functions, from one
//! generator thread (`mixed_ops` adds a second, the writer), with op
//! counts that are a fixed function of `--seconds`: the same seed and
//! length give the same requests in the same order, so sample counts and
//! program counters repeat exactly. The rates below were calibrated on the
//! 2-core host so that a measured section lasts about `--seconds`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use impliance_core::Impliance;
use impliance_docmodel::{Node, Path};

use crate::gen::{customer_schema, mix_counts, store_counts, Doc, Kind, Rng, KINDS};
use crate::queries::{
    count_rows, Ask, Growth, InteractiveMix, Oracle, TextDraw, MIXED_TEMPLATES, SQL_TEMPLATES,
    TEXT_TEMPLATES,
};
use crate::stats::Samples;
use crate::store::{generate, load, LoadStats, Store, WAVE};
use crate::trace::Tracer;

pub const WORKLOADS: [&str; 4] = ["bulk_ingest", "sql_analytics", "text_search", "mixed_ops"];

/// `sql_analytics`: cycles over the eight statements per second of run.
const SQL_CYCLES_PER_S: f64 = 3.1;
/// `text_search`: cycles over the ten templates per second of run.
const TEXT_CYCLES_PER_S: f64 = 5.7;
/// `bulk_ingest`: documents loaded (phase A), feed records annotated
/// (phase B) and post-load query cycles, per second of run.
const BULK_DOCS_PER_S: f64 = 3_300.0;
const BULK_ANNOTATED_PER_S: f64 = 400.0;
const BULK_QUERY_CYCLES_PER_S: f64 = 6.0;
/// Records per `run_discovery` call in phase B and in the epilogue.
const DISCOVERY_BATCH: usize = 500;
/// Feed records the query workloads annotate after their measured section.
const EPILOGUE_RECORDS: usize = 1_000;
/// `mixed_ops` writer: a tick every 50 ms with 5 documents is 100 docs/s.
const TICK: Duration = Duration::from_millis(50);
const DOCS_PER_TICK: usize = 5;
/// Every this many ticks (5 s) the writer updates orders and runs GC.
const UPDATE_EVERY_TICKS: usize = 100;
const UPDATES_PER_ROUND: usize = 50;

/// How much work a run does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Target length of the measured section; op counts are linear in it.
    pub seconds: f64,
    /// The shared store holds `STORE_COUNTS / store_div` documents.
    pub store_div: usize,
    /// Times the set-up is repeated (its median is `setup_s`).
    pub setups: usize,
}

impl Scale {
    pub fn full(seconds: f64) -> Scale {
        Scale {
            seconds,
            store_div: 1,
            setups: 3,
        }
    }

    /// 1/50 of the default op counts and store: every code path, quickly.
    pub fn smoke() -> Scale {
        Scale {
            seconds: crate::DEFAULT_SECONDS / 50.0,
            store_div: 50,
            setups: 1,
        }
    }

    fn ops(&self, per_second: f64) -> usize {
        ((per_second * self.seconds).round() as usize).max(1)
    }
}

/// Operations attempted and failed, and the samples a pass collects at
/// the appliance's public surface.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the operator.
    pub failures: Vec<String>,
    /// Latency of every query, in the order sent.
    pub query_ms: Samples,
    /// Templates in one cycle of the closed query loop.
    pub cycle_len: usize,
    pub plan_cache_hits: u64,
    pub queue_wait_us: Samples,
    /// Open-loop writer: how late each tick started.
    pub late_ms: Samples,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    pub fn expect(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(what.to_string());
        }
    }

    /// Throughput of the closed query loop: queries in a cycle over the
    /// median time a whole cycle's queries took. Only time inside
    /// `Impliance::query` counts (the harness checks answers between
    /// queries), and one stalled cycle does not move the median; a stall
    /// shows in the latency percentiles instead.
    pub fn queries_per_s(&self) -> f64 {
        let cycle_s: Samples = self
            .query_ms
            .values()
            .chunks_exact(self.cycle_len.max(1))
            .map(|cycle| cycle.iter().sum::<f64>() / 1e3)
            .collect();
        self.cycle_len as f64 / cycle_s.median().max(1e-12)
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// What one pass of a workload produced.
pub struct Pass {
    pub store: Store,
    pub oracle: Oracle,
    pub tally: Tally,
    pub setup_s: f64,
    /// Length of the measured section.
    pub measured_s: f64,
    pub ingest_docs_per_s: f64,
    pub ack_us: Samples,
    pub annotate_docs_per_s: f64,
    /// Per `run_discovery` call: `(records consumed, wall ms)`.
    pub discovery: Vec<(usize, f64)>,
    pub searchable_lag_p95_ms: f64,
    pub lag_samples: usize,
    pub stored_bytes_per_user_byte: f64,
}

/// Send one request, time it, and check its answer.
fn ask(
    imp: &Impliance,
    oracle: &mut Oracle,
    span: &str,
    ask: &Ask,
    grown: Option<&Growth>,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Option<impliance_core::QueryResponse> {
    let request = ask.request();
    let (result, ns) = tracer.time(span, |_| imp.query(request));
    tally.attempted += 1;
    tally.query_ms.push(ns as f64 / 1e6);
    match result {
        Ok(resp) => {
            tally.plan_cache_hits += u64::from(resp.plan_cache_hit);
            tally.queue_wait_us.push(resp.queue_wait_us as f64);
            if let Err(why) = oracle.check(imp, ask, &resp, grown) {
                tally.fail(format!("{span}: {why}"));
            }
            Some(resp)
        }
        Err(e) => {
            tally.fail(format!("{span}: {e}"));
            None
        }
    }
}

fn span_names(templates: &[&str]) -> Vec<String> {
    templates
        .iter()
        .map(|t| format!("core.query.{t}"))
        .collect()
}

/// The shared store as a run built it.
struct SharedStore {
    /// The last build, the one the workload runs on.
    store: Store,
    /// Median time of the builds.
    setup_s: f64,
    /// What the builds before the last measured.
    earlier: Vec<LoadStats>,
}

/// Build the shared store `setups` times and keep the last one.
fn shared_store(seed: u64, scale: &Scale, tracer: &mut Tracer) -> SharedStore {
    let counts = store_counts(1, scale.store_div);
    let mut times = Samples::default();
    let mut earlier = Vec::new();
    let mut kept: Option<Store> = None;
    for _ in 0..scale.setups.max(1) {
        if let Some(prev) = kept.take() {
            let Store { load, .. } = prev; // drop the appliance before the next build
            earlier.push(load);
        }
        let started = Instant::now();
        let (generator, docs) = generate(seed, counts);
        let store = load(generator, docs, tracer);
        times.push(started.elapsed().as_secs_f64());
        kept = Some(store);
    }
    SharedStore {
        store: kept.expect("at least one set-up ran"),
        setup_s: times.median(),
        earlier,
    }
}

/// Fill in the ingest-side numbers of a pass that ran on the shared store
/// from its builds: all builds pooled for the samples, the median build
/// for the rate.
fn store_pass(
    shared: SharedStore,
    oracle: Oracle,
    mut tally: Tally,
    measured_s: f64,
    annotated: Annotated,
) -> Pass {
    let SharedStore {
        store,
        setup_s,
        earlier,
    } = shared;
    let loads = || earlier.iter().chain(std::iter::once(&store.load));
    let rate: Samples = loads()
        .map(|l| store.docs.len() as f64 / l.wall_s)
        .collect();
    let ack_us: Samples = loads()
        .flat_map(|l| l.ack_us.values().iter().copied())
        .collect();
    // each build's own p95 is one of its merge waves; pooled, the p95 would
    // be the slowest of them across builds, a maximum and as noisy as one
    let lag_p95: Samples = loads().map(|l| l.searchable_lag_ms.p(0.95)).collect();
    let lag_samples = loads().map(|l| l.searchable_lag_ms.len()).sum();
    tally.attempted += (store.docs.len() * (earlier.len() + 1)) as u64;
    let load_failed: u64 = loads().map(|l| l.failed).sum();
    if load_failed > 0 {
        tally.failed += load_failed;
        tally
            .failures
            .push(format!("{load_failed} failures while loading the store"));
    }
    let ratio = store.load.stored_bytes as f64 / store.load.user_bytes.max(1) as f64;
    let ingest_docs_per_s = rate.median();
    Pass {
        oracle,
        tally,
        setup_s,
        measured_s,
        ingest_docs_per_s,
        ack_us,
        annotate_docs_per_s: annotated.docs_per_s,
        discovery: annotated.batches,
        searchable_lag_p95_ms: lag_p95.median(),
        lag_samples,
        stored_bytes_per_user_byte: ratio,
        store,
    }
}

/// What background annotation cost.
#[derive(Default)]
struct Annotated {
    /// Feed records consumed per second of wall time, the text index
    /// brought up to date after every batch.
    docs_per_s: f64,
    /// Per `run_discovery` call: `(records consumed, wall ms)`.
    batches: Vec<(usize, f64)>,
}

/// Annotate `records` feed records in batches, bringing the text index up
/// to date after each.
fn annotate(imp: &Impliance, records: usize, tracer: &mut Tracer) -> Annotated {
    let started = Instant::now();
    let mut batches = Vec::new();
    let mut done = 0usize;
    while done < records {
        let budget = DISCOVERY_BATCH.min(records - done);
        let (n, ns) = tracer.time("core.run_discovery", |_| imp.run_discovery(Some(budget)));
        tracer.time("core.run_indexing", |_| imp.run_indexing(None));
        batches.push((n, ns as f64 / 1e6));
        done += n;
        if n < budget {
            break; // feed drained
        }
    }
    Annotated {
        docs_per_s: done as f64 / started.elapsed().as_secs_f64().max(1e-9),
        batches,
    }
}

/// `sql_analytics` and `text_search`: one closed-loop client cycling over
/// the workload's templates on the sealed shared store.
fn query_workload(text: bool, seed: u64, scale: &Scale, tracer: &mut Tracer) -> Pass {
    let shared = shared_store(seed, scale, tracer);
    let imp = &shared.store.imp;
    let mut oracle = Oracle::new(&shared.store);
    let (templates, cycles): (Vec<&'static str>, usize) = if text {
        (TEXT_TEMPLATES.to_vec(), scale.ops(TEXT_CYCLES_PER_S))
    } else {
        let names = SQL_TEMPLATES.iter().map(|(name, _)| *name).collect();
        (names, scale.ops(SQL_CYCLES_PER_S))
    };
    let names = span_names(&templates);
    let mut tally = Tally {
        cycle_len: templates.len(),
        ..Tally::default()
    };
    let mut draw = TextDraw::new(seed);
    let started = Instant::now();
    for _ in 0..cycles {
        for (template, span) in templates.iter().zip(&names) {
            let a = if text {
                draw.ask(template)
            } else {
                Ask::Sql(template)
            };
            ask(imp, &mut oracle, span, &a, None, tracer, &mut tally);
        }
    }
    let measured_s = started.elapsed().as_secs_f64();
    let annotated = annotate(imp, EPILOGUE_RECORDS, tracer);
    store_pass(shared, oracle, tally, measured_s, annotated)
}

/// `bulk_ingest`: load a mixed-format stream (phase A), ask the
/// interactive mix of the fresh store, then annotate the head of the feed
/// (phase B). One thread, closed loop.
pub fn bulk_ingest(seed: u64, scale: &Scale, tracer: &mut Tracer) -> Pass {
    let docs_total = (scale.ops(BULK_DOCS_PER_S).div_ceil(WAVE) * WAVE).max(WAVE);
    let counts = mix_counts(docs_total);
    // Set-up draws the stream and, like every workload's set-up, builds the
    // shared store: here only to warm the process up (allocator, lazy
    // statics, page cache of the binary), so that the measured load does
    // not pay for a cold start the others have behind them. It is dropped
    // before the measured section and leaves no spans.
    let mut setups = Samples::default();
    let mut drawn = None;
    for _ in 0..scale.setups.max(1) {
        let started = Instant::now();
        drawn = Some(generate(seed, counts));
        let (generator, docs) = generate(seed, store_counts(1, scale.store_div));
        drop(load(
            generator,
            docs,
            &mut Tracer::new(false, tracer.origin(), 0),
        ));
        setups.push(started.elapsed().as_secs_f64());
    }
    let (generator, docs) = drawn.expect("at least one set-up ran");

    let started = Instant::now();
    let store = load(generator, docs, tracer);
    let mut tally = Tally {
        cycle_len: MIXED_TEMPLATES.len(),
        attempted: store.docs.len() as u64,
        failed: store.load.failed,
        ..Tally::default()
    };

    // the three freshness stages: queryable at ack, searchable, annotated
    let imp = &store.imp;
    tally.expect(
        "index backlog is empty after phase A",
        imp.indexing_backlog() == 0,
    );
    tally.expect(
        "every commit is searchable after phase A",
        imp.index_epoch() == imp.storage().current_epoch(),
    );
    for kind in KINDS {
        let got = count_rows(imp, kind);
        tally.expect(
            &format!(
                "COUNT(*) of {} is {:?}, want {}",
                kind.collection(),
                got,
                store.count(kind)
            ),
            got == Ok(store.count(kind)),
        );
    }
    let mut pick = Rng::new(seed, 8);
    for _ in 0..100 {
        let i = pick.below(store.docs.len() as u64) as usize;
        let ok = store.ids[i].is_some_and(|id| round_trips(imp, id, &store.docs[i]));
        tally.expect(&format!("document {i} reads back as ingested"), ok);
    }

    let mut oracle = Oracle::new(&store);
    let mut mix = InteractiveMix::new(seed);
    let names = span_names(&MIXED_TEMPLATES);
    for i in 0..scale.ops(BULK_QUERY_CYCLES_PER_S) * MIXED_TEMPLATES.len() {
        let a = mix.next(i, &oracle);
        ask(
            imp,
            &mut oracle,
            &names[i % names.len()],
            &a,
            None,
            tracer,
            &mut tally,
        );
    }

    let annotated = annotate(imp, scale.ops(BULK_ANNOTATED_PER_S), tracer);
    let measured_s = started.elapsed().as_secs_f64();
    let load = &store.load;
    Pass {
        tally,
        setup_s: setups.median(),
        measured_s,
        ingest_docs_per_s: store.docs.len() as f64 / load.wall_s,
        ack_us: load.ack_us.clone(),
        annotate_docs_per_s: annotated.docs_per_s,
        discovery: annotated.batches,
        searchable_lag_p95_ms: load.searchable_lag_ms.p(0.95),
        lag_samples: load.searchable_lag_ms.len(),
        stored_bytes_per_user_byte: load.stored_bytes as f64 / load.user_bytes.max(1) as f64,
        oracle,
        store,
    }
}

/// Whether `id` reads back as the document that was handed over.
fn round_trips(imp: &Impliance, id: impliance_docmodel::DocId, doc: &Doc) -> bool {
    let Ok(Some(stored)) = imp.get(id) else {
        return false;
    };
    let leaf = |path: &str| {
        stored
            .get_str_path(path)
            .and_then(|n| n.as_value())
            .cloned()
    };
    use impliance_docmodel::Value;
    stored.collection() == doc.kind().collection()
        && match doc {
            Doc::Claim(c) => {
                leaf("claim_no") == Some(Value::Int(c.claim_no))
                    && leaf("vehicle.year") == Some(Value::Int(c.year))
                    && leaf("notes") == Some(Value::Str(c.notes()))
            }
            Doc::Order(o) => {
                leaf("order_id") == Some(Value::Int(o.order_id))
                    && leaf("total") == Some(Value::Int(o.total))
            }
            Doc::Customer(c) => {
                leaf("code") == Some(Value::Str(c.code_str()))
                    && leaf("name") == Some(Value::Str(c.name.clone()))
            }
            Doc::Call(t) => leaf("body") == Some(Value::Str(t.clone())),
            Doc::Mail(t) => leaf("body").is_some_and(|b| match b {
                Value::Str(body) => t.ends_with(&body),
                _ => false,
            }),
        }
}

/// What the `mixed_ops` writer measured.
#[derive(Default)]
struct WriterStats {
    tally: Tally,
    ack_us: Samples,
    /// Tick due time to the moment its last commit was searchable.
    lag_ms: Samples,
    /// How late each tick started.
    late_ms: Samples,
    ingested: [usize; 5],
    user_bytes: u64,
    /// Seconds inside ingest calls and `run_indexing`.
    ingest_busy_s: f64,
    /// Per `run_discovery` call: `(records consumed, wall ms)`.
    discovery: Vec<(usize, f64)>,
}

/// `mixed_ops`: a closed-loop reader beside an open-loop writer on the
/// shared store, for `--seconds` of wall time.
pub fn mixed_ops(seed: u64, scale: &Scale, tracer: &mut Tracer) -> Pass {
    let mut shared = shared_store(seed, scale, tracer);
    let store = &mut shared.store;
    let mut oracle = Oracle::new(store);
    let ticks = scale.ops(1.0 / TICK.as_secs_f64());
    // the writer continues the store's sequences: new claim numbers, and
    // customers beyond the ones the point lookups ask for
    let written: Vec<Doc> = {
        let kinds = mix_counts(ticks * DOCS_PER_TICK);
        store.generator.stream(kinds)
    };
    let order_ids: Vec<_> = store.of_kind(Kind::Order).map(|(_, id)| id).collect();
    let growth = Growth::default();
    let done = AtomicBool::new(false);
    let mut tally = Tally {
        cycle_len: MIXED_TEMPLATES.len(),
        ..Tally::default()
    };
    let mut writer_tracer = Tracer::new(tracer.enabled(), tracer.origin(), 2);
    let imp = &store.imp;
    let started = Instant::now();
    let writer = std::thread::scope(|s| {
        let handle = s.spawn(|| {
            let w = write_ticks(
                imp,
                seed,
                &written,
                &order_ids,
                &growth,
                ticks,
                &mut writer_tracer,
            );
            done.store(true, Ordering::SeqCst);
            w
        });
        let mut mix = InteractiveMix::new(seed);
        let names = span_names(&MIXED_TEMPLATES);
        let mut last_snapshot = 0u64;
        let mut i = 0usize;
        while !done.load(Ordering::SeqCst) {
            let a = mix.next(i, &oracle);
            let span = &names[i % names.len()];
            i += 1;
            let Some(resp) = ask(
                imp,
                &mut oracle,
                span,
                &a,
                Some(&growth),
                tracer,
                &mut tally,
            ) else {
                continue;
            };
            // The response reads the index watermark after it has executed,
            // so beside a writer it may be ahead of the snapshot the query
            // pinned; what it can never be ahead of is the store itself.
            let committed = imp.storage().current_epoch();
            if resp.index_epoch > committed || resp.snapshot_epoch > committed {
                tally.fail(format!(
                    "index epoch {} or snapshot {} ahead of the store's {committed}",
                    resp.index_epoch, resp.snapshot_epoch
                ));
            }
            if resp.snapshot_epoch < last_snapshot {
                tally.fail(format!(
                    "snapshot went back from {last_snapshot} to {}",
                    resp.snapshot_epoch
                ));
            }
            last_snapshot = resp.snapshot_epoch;
        }
        handle.join().expect("writer thread panicked")
    });
    let measured_s = started.elapsed().as_secs_f64();
    tracer.absorb(writer_tracer.into_spans());

    imp.run_indexing(None);
    for kind in KINDS {
        let want = store.count(kind) + writer.ingested[kind as usize];
        let got = count_rows(imp, kind);
        tally.expect(
            &format!(
                "final COUNT(*) of {} is {got:?}, want {want}",
                kind.collection()
            ),
            got == Ok(want),
        );
    }
    imp.storage().seal_all();
    let stored = imp.storage().stored_bytes() as f64;
    let user_bytes = (store.load.user_bytes + writer.user_bytes).max(1) as f64;

    let mut w = writer;
    tally.late_ms = std::mem::take(&mut w.late_ms);
    tally.absorb(std::mem::take(&mut w.tally));
    // Beside the readers, the writer's rates are service rates: work done
    // per second it was busy, not per second of wall time (that is the
    // offered 100 docs/s as long as it keeps up). Annotation is rated by
    // its median call, because a call the readers' workers pre-empt says
    // how busy the cores were, not what annotating costs.
    let call_ms: Samples = w.discovery.iter().map(|b| b.1).collect();
    let annotated = Annotated {
        docs_per_s: DOCS_PER_TICK as f64 / (call_ms.median() / 1e3).max(1e-9),
        batches: w.discovery,
    };
    let mut pass = store_pass(shared, oracle, tally, measured_s, annotated);
    pass.ingest_docs_per_s = w.ingested.iter().sum::<usize>() as f64 / w.ingest_busy_s.max(1e-9);
    pass.ack_us = w.ack_us;
    pass.searchable_lag_p95_ms = w.lag_ms.p(0.95);
    pass.lag_samples = w.lag_ms.len();
    pass.stored_bytes_per_user_byte = stored / user_bytes;
    pass
}

/// The writer: every tick, due or not, ingest a few documents of the
/// stream, bring the text index up to date, annotate as many feed records;
/// every 5 s rewrite some orders and collect superseded versions. Each
/// tick is timed from when it was due, so a stall is charged to every
/// tick it delays.
fn write_ticks(
    imp: &Impliance,
    seed: u64,
    written: &[Doc],
    order_ids: &[impliance_docmodel::DocId],
    growth: &Growth,
    ticks: usize,
    tracer: &mut Tracer,
) -> WriterStats {
    let schema = customer_schema();
    let mut w = WriterStats::default();
    let mut pick = Rng::new(seed, 9);
    let qty = Path::parse("qty");
    let started = Instant::now();
    for (tick, docs) in written.chunks(DOCS_PER_TICK).take(ticks).enumerate() {
        let due = started + TICK * tick as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        w.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        tracer.time("bench.tick", |t| {
            for doc in docs {
                // noted before it is handed over: a reader may see the
                // document the moment it is acknowledged
                growth.note(doc);
                let (res, ns) = t.time(doc.kind().ingest_span(), |_| doc.ingest(imp, &schema));
                w.tally.attempted += 1;
                w.ingest_busy_s += ns as f64 / 1e9;
                match res {
                    Ok(_) => {
                        w.ack_us.push(ns as f64 / 1e3);
                        w.ingested[doc.kind() as usize] += 1;
                        w.user_bytes += doc.user_bytes() as u64;
                    }
                    Err(e) => w.tally.fail(format!("writer ingest: {e}")),
                }
            }
            let last_commit = imp.storage().current_epoch();
            let (_, ns) = t.time("core.run_indexing", |_| imp.run_indexing(None));
            w.ingest_busy_s += ns as f64 / 1e9;
            w.tally.attempted += 1;
            if imp.index_epoch() >= last_commit {
                w.lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
            } else {
                w.tally
                    .fail("tick's last commit not searchable after run_indexing".into());
            }
            let (n, ns) = t.time("core.run_discovery", |_| {
                imp.run_discovery(Some(DOCS_PER_TICK))
            });
            w.discovery.push((n, ns as f64 / 1e6));
            if (tick + 1) % UPDATE_EVERY_TICKS == 0 && !order_ids.is_empty() {
                t.time("bench.update_round", |t| {
                    for _ in 0..UPDATES_PER_ROUND {
                        let id = order_ids[pick.below(order_ids.len() as u64) as usize];
                        let new_qty = pick.range(1, 20);
                        let (res, _) = t.time("core.update", |_| {
                            let doc = imp.get(id)?.ok_or_else(|| {
                                impliance_core::Error::from(
                                    impliance_core::ApplianceError::NotFound(id),
                                )
                            })?;
                            let mut root = doc.root().clone();
                            root.set(&qty, Node::scalar(new_qty));
                            imp.update(id, root)
                        });
                        w.tally.attempted += 1;
                        if let Err(e) = res {
                            w.tally.fail(format!("writer update: {e}"));
                        }
                    }
                    t.time("storage.run_gc", |_| imp.storage().run_gc());
                });
            }
        });
    }
    w
}

pub fn run(workload: &str, seed: u64, scale: &Scale, tracer: &mut Tracer) -> Option<Pass> {
    Some(match workload {
        "bulk_ingest" => bulk_ingest(seed, scale, tracer),
        "sql_analytics" => query_workload(false, seed, scale, tracer),
        "text_search" => query_workload(true, seed, scale, tracer),
        "mixed_ops" => mixed_ops(seed, scale, tracer),
        _ => return None,
    })
}
