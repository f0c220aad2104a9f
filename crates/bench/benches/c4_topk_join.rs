//! C4 (§3.3): "given a keyword-search interface that requires only the
//! top-k results, indexed nested-loop joins may always be the preferred
//! join method" — the crossover between indexed NL and hash join as k
//! grows.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use impliance_bench::Corpus;
use impliance_core::{ApplianceConfig, Impliance};
use impliance_docmodel::DocId;
use impliance_query::batch::{
    collect_tuples, HashJoinOp, IndexedNlJoinOp, Operator, VecSource, DEFAULT_BATCH_SIZE,
};
use impliance_query::{ExecMetrics, Tuple};
use impliance_storage::{Predicate, ScanRequest};

fn bench(c: &mut Criterion) {
    let imp = Impliance::boot(ApplianceConfig::default());
    let mut corpus = Corpus::new(61);
    let po = Corpus::po_schema();
    let cu = Corpus::customer_schema();
    for _ in 0..8000 {
        imp.ingest_row(&po, corpus.purchase_order_row(800)).unwrap();
    }
    for code in 0..800 {
        imp.ingest_row(&cu, corpus.customer_row(code)).unwrap();
    }
    let orders: Vec<Tuple> = imp
        .storage()
        .scan(&ScanRequest::filtered(Predicate::CollectionIs(
            "orders".into(),
        )))
        .unwrap()
        .documents
        .into_iter()
        .map(|d| Tuple::single("o", Arc::new(d)))
        .collect();
    let customers: Vec<Tuple> = imp
        .storage()
        .scan(&ScanRequest::filtered(Predicate::CollectionIs(
            "customers".into(),
        )))
        .unwrap()
        .documents
        .into_iter()
        .map(|d| Tuple::single("c", Arc::new(d)))
        .collect();
    let lk = ("o".to_string(), "cust".to_string());
    let rk = ("c".to_string(), "code".to_string());
    let storage = imp.storage();
    let source = |tuples: &[Tuple]| -> Box<dyn Operator> {
        Box::new(VecSource::tuples(
            "scan",
            tuples.to_vec(),
            DEFAULT_BATCH_SIZE,
        ))
    };

    let mut group = c.benchmark_group("c4_topk_join");
    group.sample_size(10);
    for k in [1usize, 10, 100, 8000] {
        group.bench_with_input(BenchmarkId::new("indexed_nl", k), &k, |b, &k| {
            b.iter(|| {
                let mut op = IndexedNlJoinOp::new(
                    source(&orders),
                    imp.value_index(),
                    "c".into(),
                    "code".into(),
                    lk.clone(),
                    Box::new(|id: DocId| storage.get_latest(id).ok().flatten().map(Arc::new)),
                    Some(k),
                    Rc::new(RefCell::new(ExecMetrics::default())),
                );
                collect_tuples(&mut op).expect("indexed NL join").len()
            })
        });
        group.bench_with_input(BenchmarkId::new("hash", k), &k, |b, &k| {
            b.iter(|| {
                let mut op =
                    HashJoinOp::new(source(&orders), source(&customers), lk.clone(), rk.clone());
                let mut out = collect_tuples(&mut op).expect("hash join");
                out.truncate(k);
                out.len()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10);
    targets = bench
}
criterion_main!(benches);
