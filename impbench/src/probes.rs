//! The probe pass: after a traced workload pass, call each layer's public
//! function directly, on the same store and inputs, under its own span.
//!
//! Counts are read at the same boundaries (`exec_stats()`,
//! `discovery_stats()`, `workload_stats()`) and, with one writer and one
//! seed, repeat exactly. Nothing here feeds an end-to-end number.

use impliance_annotate::scan_entities;
use impliance_core::{Impliance, QueryRequest};
use impliance_docmodel::{DocId, Document, Value};
use impliance_index::{search_phrase, search_topk, tokenize};
use impliance_query::{
    execute_plan_opts, parse_sql, ExecContext, ExecutionContext, LogicalPlan, Priority,
    SimplePlanner,
};
use impliance_storage::{
    codec, compress, ColumnPage, Predicate, Projection, ScanPos, ScanRequest, StorageEngine,
    StorageOptions,
};
use impliance_virt::{TenantId, WorkloadConfig, WorkloadManager};

use crate::gen::{Doc, Kind, Rng};
use crate::metrics::{put, put_n, Metrics};
use crate::queries::{
    index_query, sql_statement, Ask, InteractiveMix, TextDraw, MIXED_TEMPLATES, SQL_TEMPLATES,
    TEXT_TEMPLATES,
};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::workloads::Pass;

/// Executions per template and probe.
const REPEATS: usize = 5;
/// Point reads, index lookups and documents put, per probe.
const POINTS: usize = 1_000;
const CODEC_DOCS: usize = 2_000;
const PAGE_ROWS: usize = 1_024;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn per_s(items: usize, ns: u64) -> f64 {
    items as f64 / (ns.max(1) as f64 / 1e9)
}

fn mb_per_s(bytes: usize, ns: u64) -> f64 {
    per_s(bytes, ns) / 1e6
}

/// `wide`'s storage request: the predicate and projection its plan pushes.
fn wide_request() -> (ScanRequest, Predicate, Vec<String>) {
    let amount = Predicate::Ge("amount".into(), Value::Int(500));
    let paths: Vec<String> = ["claimant", "amount", "city"].map(String::from).to_vec();
    let req = ScanRequest {
        predicate: Some(Predicate::And(vec![
            Predicate::CollectionIs("claims".into()),
            amount.clone(),
        ])),
        projection: Projection::Paths(paths.clone()),
        ..ScanRequest::default()
    };
    (req, amount, paths)
}

/// Probe calls that returned an error: each is a failed operation.
#[derive(Default)]
pub struct Fails(pub Vec<String>);

impl Fails {
    fn check<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        result
            .map_err(|e| self.0.push(format!("probe {what}: {e}")))
            .ok()
    }
}

pub fn run(pass: &Pass, seed: u64, t: &mut Tracer, m: &mut Metrics) -> Fails {
    let mut fails = Fails::default();
    core_templates(pass, seed, t, m, &mut fails);
    query_layer(&pass.store.imp, t, m, &mut fails);
    virt_layer(pass, t, m);
    storage_layer(pass, seed, t, m, &mut fails);
    docmodel_and_tokenize(pass, t, m);
    index_layer(pass, seed, t, m);
    annotate_layer(pass, t, m);
    fails
}

/// Every template a few times through `Impliance::query`, so each traced
/// run reports each template whatever workload it traced; and the exact
/// counts `exec_stats()` gives for them.
fn core_templates(pass: &Pass, seed: u64, t: &mut Tracer, m: &mut Metrics, fails: &mut Fails) {
    let imp = &pass.store.imp;
    let mut draw = TextDraw::new(seed ^ 0x9e37);
    let mut sql = (0u64, 0u64, 0u64, 0usize); // batches, workers, early, queries
    let mut text = (0u64, 0u64, 0usize); // scored, pruned, queries
    let mut hits = (0u64, 0u64);
    let mut asks: Vec<(String, Ask)> = Vec::new();
    for (template, _) in SQL_TEMPLATES {
        asks.extend((0..REPEATS).map(|_| (template.to_string(), Ask::Sql(template))));
    }
    for template in TEXT_TEMPLATES {
        asks.extend((0..REPEATS).map(|_| (template.to_string(), draw.ask(template))));
    }
    let mut mix = InteractiveMix::new(seed ^ 0x9e37);
    for i in 0..REPEATS * MIXED_TEMPLATES.len() {
        let template = MIXED_TEMPLATES[i % MIXED_TEMPLATES.len()];
        let a = mix.next(i, &pass.oracle);
        // `selective` is already among the SQL templates
        if template != "selective" {
            asks.push((template.to_string(), a));
        }
    }
    t.time("probe.core", |t| {
        for (i, (template, a)) in asks.iter().enumerate() {
            let request = a.request();
            let (res, _) = t.time(&format!("core.query.{template}"), |_| imp.query(request));
            let Some(resp) = fails.check(template, res) else {
                continue;
            };
            hits.0 += u64::from(resp.plan_cache_hit);
            hits.1 += 1;
            let s = resp.exec_stats();
            let first = i % REPEATS == 0;
            if matches!(a, Ask::Sql(_)) && template != "limit100" && first {
                sql = (
                    sql.0 + s.batches,
                    sql.1 + s.workers_used,
                    sql.2 + s.early_terminations,
                    sql.3 + 1,
                );
                if template == "selective" {
                    put(
                        m,
                        "storage.segments_scanned",
                        s.segments_scanned as f64,
                        "count",
                    );
                    put(
                        m,
                        "storage.segments_skipped",
                        s.segments_skipped as f64,
                        "count",
                    );
                    let all = (s.segments_scanned + s.segments_skipped).max(1);
                    put(
                        m,
                        "storage.zone_skip_ratio",
                        s.segments_skipped as f64 / all as f64,
                        "ratio",
                    );
                }
                if template == "wide" {
                    put(
                        m,
                        "storage.bytes_scanned_per_query",
                        s.bytes_scanned as f64,
                        "B",
                    );
                }
            }
            if matches!(a, Ask::Text(_)) && template != "text_mid1" {
                text = (
                    text.0 + s.candidates_scored,
                    text.1 + s.candidates_pruned,
                    text.2 + 1,
                );
            }
        }
    });
    let n = sql.3.max(1) as f64;
    put(m, "query.exec.batches_per_query", sql.0 as f64 / n, "count");
    put(m, "query.exec.workers_used", sql.1 as f64 / n, "count");
    put(m, "query.exec.early_terminations", sql.2 as f64, "count");
    let n = text.2.max(1) as f64;
    put(
        m,
        "index.search.scored_per_query",
        text.0 as f64 / n,
        "count",
    );
    put(
        m,
        "index.search.pruned_per_query",
        text.1 as f64 / n,
        "count",
    );
    put(
        m,
        "index.search.prune_ratio",
        text.1 as f64 / (text.0 + text.1).max(1) as f64,
        "ratio",
    );
    // the workload's own ratio comes first; this is the fallback for a
    // workload that sent no query of its own before the probe
    let own = &pass.tally;
    let (h, n) = if own.query_ms.is_empty() {
        hits
    } else {
        (own.plan_cache_hits, own.query_ms.len() as u64)
    };
    put_n(
        m,
        "core.plan_cache.hit_ratio",
        h as f64 / n.max(1) as f64,
        "ratio",
        n as usize,
    );
}

fn exec_context(imp: &Impliance) -> ExecContext<'_> {
    ExecContext {
        storage: imp.storage(),
        text_index: imp.text_index(),
        value_index: imp.value_index(),
        join_index: imp.join_index(),
        pushdown: imp.config().pushdown,
        columnar: true,
        snapshot: Some(imp.storage().current_epoch()),
    }
}

/// Parse, plan and execute without admission, plan cache or snapshot pin.
fn query_layer(imp: &Impliance, t: &mut Tracer, m: &mut Metrics, fails: &mut Fails) {
    let planner = SimplePlanner::new();
    let statements: Vec<&str> = SQL_TEMPLATES.iter().map(|(_, s)| *s).collect();
    const ROUNDS: usize = 200;
    let parses = ROUNDS * statements.len();
    let (parsed, ns) = t.time("query.sql.parse", |_| {
        let mut last = Vec::new();
        for _ in 0..ROUNDS {
            last = statements
                .iter()
                .filter_map(|s| parse_sql(s).ok())
                .collect();
        }
        last
    });
    put_n(
        m,
        "query.sql.parse_us",
        ns as f64 / 1e3 / parses as f64,
        "us",
        parses,
    );
    let (_, ns) = t.time("query.plan.optimize", |_| {
        for _ in 0..ROUNDS {
            for plan in &parsed {
                std::hint::black_box(planner.plan(plan.clone()));
            }
        }
    });
    let plans = (ROUNDS * parsed.len()).max(1);
    put_n(
        m,
        "query.plan.optimize_us",
        ns as f64 / 1e3 / plans as f64,
        "us",
        plans,
    );

    let ctx = exec_context(imp);
    let workers = imp.config().worker_threads;
    let opts = |worker_threads: usize| ExecutionContext {
        batch_size: imp.config().batch_size,
        worker_threads,
        ..ExecutionContext::default()
    };
    let mut named: Vec<(&str, String)> = SQL_TEMPLATES
        .iter()
        .map(|(t, s)| (*t, s.to_string()))
        .collect();
    named.push((
        "point_customers",
        Ask::PointCustomer(0).request().statement().to_string(),
    ));
    let mut exec_p50_us = 0.0;
    t.time("probe.query.exec", |t| {
        for (template, sql) in &named {
            // the plan the appliance would run, taken from a response
            let answered = imp.query(QueryRequest::builder(sql.as_str()).build());
            let Some(plan) = fails.check(template, answered).map(|resp| resp.plan) else {
                continue;
            };
            let plan: LogicalPlan = plan;
            let mut samples = Samples::default();
            for _ in 0..REPEATS {
                let (res, ns) = t.time(&format!("query.exec.{template}"), |_| {
                    execute_plan_opts(&ctx, &plan, &opts(workers))
                });
                fails.check(template, res);
                samples.push(ms(ns));
            }
            put_n(
                m,
                &format!("query.exec.{template}.p50_ms"),
                samples.p(0.5),
                "ms",
                REPEATS,
            );
            if *template == "point_customers" {
                exec_p50_us = samples.p(0.5) * 1e3;
            }
            if *template == "wide" {
                let mut rates = Samples::default();
                for _ in 0..REPEATS {
                    let (res, ns) = t.time("query.exec.wide_1w", |_| {
                        execute_plan_opts(&ctx, &plan, &opts(1))
                    });
                    if let Some((out, _)) = fails.check("wide with one worker", res) {
                        rates.push(per_s(out.len(), ns));
                    }
                }
                put_n(
                    m,
                    "query.exec.wide_rows_per_s_1w",
                    rates.p(0.5),
                    "1/s",
                    REPEATS,
                );
            }
        }
    });
    // what `Impliance::query` adds around parse + plan + execute on the
    // smallest query: admission, cache lookup, snapshot pin, bookkeeping
    let parse_us = m.get("query.sql.parse_us").map_or(0.0, |x| x.value);
    let plan_us = m.get("query.plan.optimize_us").map_or(0.0, |x| x.value);
    let mut whole = Samples::default();
    for code in 0..REPEATS as u32 * 4 {
        let request = Ask::PointCustomer(code).request();
        let (res, ns) = t.time("core.query.point_customers", |_| imp.query(request));
        fails.check("point_customers", res);
        whole.push(ns as f64 / 1e3);
    }
    put(
        m,
        "core.query.overhead_us",
        whole.p(0.5) - (parse_us + plan_us + exec_p50_us),
        "us",
    );

    for (name, sql) in [
        ("group", sql_statement("group")),
        ("limit100", sql_statement("limit100")),
    ] {
        let mut p50 = [0.0f64; 2];
        for (slot, parallelism) in [1, workers].into_iter().enumerate() {
            let mut samples = Samples::default();
            for _ in 0..REPEATS {
                let req = QueryRequest::builder(sql).parallelism(parallelism).build();
                let (res, ns) = t.time(&format!("probe.parallel.{name}.{parallelism}w"), |_| {
                    imp.query(req)
                });
                fails.check(name, res);
                samples.push(ms(ns));
            }
            p50[slot] = samples.p(0.5);
        }
        put(
            m,
            &format!("query.parallel.speedup_{name}"),
            p50[0] / p50[1].max(1e-9),
            "ratio",
        );
    }
}

fn virt_layer(pass: &Pass, t: &mut Tracer, m: &mut Metrics) {
    const ADMITS: usize = 10_000;
    let manager = WorkloadManager::new(WorkloadConfig::default());
    let (_, ns) = t.time("virt.workload.admit", |_| {
        for _ in 0..ADMITS {
            drop(std::hint::black_box(manager.admit(
                TenantId::default(),
                Priority::Normal,
                None,
            )));
        }
    });
    put_n(
        m,
        "virt.workload.admit_us",
        ns as f64 / 1e3 / ADMITS as f64,
        "us",
        ADMITS,
    );
    let waits = &pass.tally.queue_wait_us;
    put_n(
        m,
        "virt.workload.queue_wait_p95_us",
        waits.p(0.95),
        "us",
        waits.len(),
    );
    let shed = pass.store.imp.workload_stats().shed_total();
    put(m, "virt.workload.shed", shed as f64, "count");
}

fn storage_layer(pass: &Pass, seed: u64, t: &mut Tracer, m: &mut Metrics, fails: &mut Fails) {
    let imp = &pass.store.imp;
    let storage = imp.storage();
    let (req, mask, paths) = wide_request();

    let mut rates = Samples::default();
    for _ in 0..REPEATS {
        let (res, ns) = t.time("storage.scan.row", |_| storage.scan(&req));
        if let Some(r) = fails.check("row scan", res) {
            rates.push(per_s(r.metrics.docs_scanned as usize, ns));
        }
    }
    put_n(
        m,
        "storage.scan.row_docs_per_s",
        rates.p(0.5),
        "1/s",
        REPEATS,
    );

    let mut pages: Vec<ColumnPage> = Vec::new();
    let mut rates = Samples::default();
    for _ in 0..REPEATS {
        pages.clear();
        let (_, ns) = t.time("storage.scan.columnar", |_| {
            for partition in 0..storage.partition_count() {
                let mut pos = ScanPos::default();
                loop {
                    let page = storage.scan_partition_page_columnar(
                        partition, &req, None, pos, PAGE_ROWS, &paths,
                    );
                    let Some((page, next, done)) = fails.check("columnar scan", page) else {
                        break;
                    };
                    pages.push(page);
                    pos = next;
                    if done {
                        break;
                    }
                }
            }
        });
        let scanned: u64 = pages.iter().map(|p| p.metrics.docs_scanned).sum();
        rates.push(per_s(scanned as usize, ns));
    }
    put_n(
        m,
        "storage.scan.columnar_rows_per_s",
        rates.p(0.5),
        "1/s",
        REPEATS,
    );

    let rows: usize = pages.iter().map(|p| p.len).sum();
    const MASK_ROUNDS: usize = 20;
    let (_, ns) = t.time("storage.columnar.eval_mask", |_| {
        for _ in 0..MASK_ROUNDS {
            for page in &pages {
                std::hint::black_box(page.eval_mask(&mask));
            }
        }
    });
    put_n(
        m,
        "storage.columnar.eval_mask_rows_per_s",
        per_s(rows * MASK_ROUNDS, ns),
        "1/s",
        rows * MASK_ROUNDS,
    );

    // point reads of seeded ids, and the documents for the codec probes
    let ids: Vec<DocId> = pass.store.ids.iter().flatten().copied().collect();
    let mut pick = Rng::new(seed, 10);
    let mut reads = Samples::default();
    let mut fetched: Vec<Document> = Vec::new();
    t.time("probe.storage.get", |t| {
        for _ in 0..POINTS.min(ids.len()) {
            let id = ids[pick.below(ids.len() as u64) as usize];
            let (res, ns) = t.time("storage.get", |_| storage.get_latest(id));
            reads.push(ns as f64 / 1e3);
            match fails.check("point read", res) {
                Some(Some(doc)) => fetched.push(doc),
                Some(None) => fails.0.push(format!("probe point read: {id} is missing")),
                None => {}
            }
        }
    });
    put_n(m, "storage.get.p50_us", reads.p(0.50), "us", reads.len());
    put_n(m, "storage.get.p99_us", reads.p(0.99), "us", reads.len());

    let claims: Vec<Document> = pass
        .store
        .of_kind(Kind::Claim)
        .take(CODEC_DOCS)
        .filter_map(|(_, id)| storage.get_latest(id).ok().flatten())
        .collect();
    let (encoded, ns) = t.time("storage.codec.encode", |_| {
        claims
            .iter()
            .map(codec::encode_document_vec)
            .collect::<Vec<_>>()
    });
    put_n(
        m,
        "storage.codec.encode_docs_per_s",
        per_s(claims.len(), ns),
        "1/s",
        claims.len(),
    );
    let (_, ns) = t.time("storage.codec.decode", |_| {
        for buf in &encoded {
            fails.check(
                "decode",
                std::hint::black_box(codec::decode_document(buf, 0)),
            );
        }
    });
    put_n(
        m,
        "storage.codec.decode_docs_per_s",
        per_s(encoded.len(), ns),
        "1/s",
        encoded.len(),
    );
    // blocks the size a sealed segment holds
    let seal = imp.config().seal_threshold.max(1);
    let blocks: Vec<Vec<u8>> = encoded.chunks(seal).map(|c| c.concat()).collect();
    let raw: usize = blocks.iter().map(Vec::len).sum();
    let (packed, ns) = t.time("storage.compress.lz_compress", |_| {
        blocks
            .iter()
            .map(|b| compress::lz_compress(b))
            .collect::<Vec<_>>()
    });
    put(
        m,
        "storage.compress.lz_compress_mb_per_s",
        mb_per_s(raw, ns),
        "MB/s",
    );
    let (_, ns) = t.time("storage.compress.lz_decompress", |_| {
        for block in &packed {
            fails.check(
                "decompress",
                std::hint::black_box(compress::lz_decompress(block)),
            );
        }
    });
    put(
        m,
        "storage.compress.lz_decompress_mb_per_s",
        mb_per_s(raw, ns),
        "MB/s",
    );

    // put, seal and GC on an engine of its own, shaped like the
    // appliance's, so the store under test is left as the workload left it
    let cfg = imp.config();
    let scratch = StorageEngine::new(StorageOptions {
        partitions: cfg.partitions_per_node.max(1) * cfg.data_nodes.max(1),
        seal_threshold: cfg.seal_threshold,
        compression: cfg.compression,
        encryption_key: cfg.encryption_key,
    });
    // a version can be put once: drop the ids the seeded picks repeated
    let mut once = std::collections::HashSet::new();
    fetched.retain(|d| once.insert(d.id()));
    let (_, ns) = t.time("storage.put", |_| {
        for doc in &fetched {
            fails.check("put", scratch.put(doc));
        }
    });
    put_n(
        m,
        "storage.put.us_per_doc",
        ns as f64 / 1e3 / fetched.len().max(1) as f64,
        "us",
        fetched.len(),
    );
    let (_, ns) = t.time("storage.seal_all", |_| scratch.seal_all());
    put(m, "storage.seal.ms", ms(ns), "ms");
    put(
        m,
        "storage.stored_bytes",
        scratch.stored_bytes() as f64,
        "B",
    );
    for doc in fetched.iter().take(POINTS / 2) {
        let next = doc.new_version(doc.root().clone(), doc.ingested_at() + 1);
        fails.check("put of a new version", scratch.put(&next));
    }
    let (reclaimed, ns) = t.time("storage.run_gc", |_| scratch.run_gc());
    put(m, "storage.gc.ms", ms(ns), "ms");
    put(
        m,
        "storage.gc.versions_reclaimed",
        reclaimed as f64,
        "count",
    );
}

fn docmodel_and_tokenize(pass: &Pass, t: &mut Tracer, m: &mut Metrics) {
    let json: Vec<String> = pass
        .store
        .docs
        .iter()
        .filter_map(|d| match d {
            Doc::Claim(c) => Some(c.json().to_string()),
            Doc::Order(o) => Some(o.json().to_string()),
            _ => None,
        })
        .take(4 * CODEC_DOCS)
        .collect();
    let bytes: usize = json.iter().map(String::len).sum();
    let (_, ns) = t.time("docmodel.json.parse", |_| {
        for text in &json {
            std::hint::black_box(impliance_docmodel::json::parse(text).is_ok());
        }
    });
    put(
        m,
        "docmodel.json.parse_mb_per_s",
        mb_per_s(bytes, ns),
        "MB/s",
    );

    let texts: Vec<String> = pass
        .store
        .docs
        .iter()
        .filter_map(|d| match d {
            Doc::Claim(c) => Some(c.notes()),
            Doc::Call(text) => Some(text.clone()),
            _ => None,
        })
        .take(4 * CODEC_DOCS)
        .collect();
    let bytes: usize = texts.iter().map(String::len).sum();
    let (_, ns) = t.time("index.tokenize", |_| {
        for text in &texts {
            std::hint::black_box(tokenize(text));
        }
    });
    put(m, "index.tokenize.mb_per_s", mb_per_s(bytes, ns), "MB/s");
}

fn index_layer(pass: &Pass, seed: u64, t: &mut Tracer, m: &mut Metrics) {
    let imp = &pass.store.imp;
    let idx = imp.text_index();
    let waves = &pass.store.load.index_waves;
    let records: usize = waves.iter().map(|w| w.0).sum();
    let wave_ms: Samples = waves.iter().map(|w| w.1).collect();
    put_n(
        m,
        "index.maintain.us_per_record",
        wave_ms.sum() * 1e3 / records.max(1) as f64,
        "us",
        records,
    );
    put_n(
        m,
        "index.maintain.wave_p95_ms",
        wave_ms.p(0.95),
        "ms",
        wave_ms.len(),
    );
    put_n(
        m,
        "index.maintain.wave_max_ms",
        wave_ms.max(),
        "ms",
        wave_ms.len(),
    );
    put(
        m,
        "index.inverted.run_count",
        idx.run_count() as f64,
        "count",
    );

    let mut draw = TextDraw::new(seed ^ 0x9e37);
    t.time("probe.index.search", |t| {
        for template in TEXT_TEMPLATES.iter().filter(|t| **t != "hybrid_rrf") {
            let mut samples = Samples::default();
            for _ in 0..REPEATS {
                let Ask::Text(q) = draw.ask(template) else {
                    continue;
                };
                let (_, ns) = t.time(&format!("index.search.{template}"), |_| {
                    if q.phrase {
                        // impliance-lint: allow(L13) the probe measures the index layer itself
                        search_phrase(idx, &q.text, q.path, q.k).len()
                    } else {
                        // impliance-lint: allow(L13) the probe measures the index layer itself
                        search_topk(idx, &index_query(&q, q.k)).0.len()
                    }
                });
                samples.push(ns as f64 / 1e3);
            }
            put_n(
                m,
                &format!("index.search.{template}.p50_us"),
                samples.p(0.5),
                "us",
                REPEATS,
            );
        }
    });

    let mut pick = Rng::new(seed, 11);
    let mut lookups = Samples::default();
    let customers = pass.oracle.customers().max(1) as u64;
    t.time("probe.index.pathindex", |t| {
        for _ in 0..POINTS {
            let code = Value::Str(format!("C-{}", pick.below(customers)));
            let (_, ns) = t.time("index.pathindex.lookup_eq", |_| {
                imp.value_index().lookup_eq("code", &code).len()
            });
            lookups.push(ns as f64 / 1e3);
        }
    });
    put_n(
        m,
        "index.pathindex.lookup_eq_p50_us",
        lookups.p(0.5),
        "us",
        POINTS,
    );
}

fn annotate_layer(pass: &Pass, t: &mut Tracer, m: &mut Metrics) {
    let batches = &pass.discovery;
    let records: usize = batches.iter().map(|b| b.0).sum();
    let total_ms: f64 = batches.iter().map(|b| b.1).sum();
    put_n(
        m,
        "annotate.discover.us_per_record",
        total_ms * 1e3 / records.max(1) as f64,
        "us",
        records,
    );
    // per-record cost over the last fifth of the batches against the first
    let fifth = (batches.len() / 5).max(1).min(batches.len());
    let cost = |part: &[(usize, f64)]| {
        part.iter().map(|b| b.1).sum::<f64>()
            / part.iter().map(|b| b.0).sum::<usize>().max(1) as f64
    };
    let ratio = if batches.is_empty() {
        0.0
    } else {
        cost(&batches[batches.len() - fifth..]) / cost(&batches[..fifth]).max(1e-12)
    };
    put(m, "annotate.discover.slowdown_ratio", ratio, "ratio");

    let calls: Vec<&String> = pass
        .store
        .docs
        .iter()
        .filter_map(|d| match d {
            Doc::Call(text) => Some(text),
            _ => None,
        })
        .take(CODEC_DOCS)
        .collect();
    let bytes: usize = calls.iter().map(|c| c.len()).sum();
    let (_, ns) = t.time("annotate.scan_entities", |_| {
        for text in &calls {
            std::hint::black_box(scan_entities(text));
        }
    });
    put(
        m,
        "annotate.scan_entities.mb_per_s",
        mb_per_s(bytes, ns),
        "MB/s",
    );
    let stats = pass.store.imp.discovery_stats();
    put_n(
        m,
        "annotate.annotations_per_doc",
        stats.annotations as f64 / stats.docs_processed.max(1) as f64,
        "count",
        stats.docs_processed as usize,
    );
}
