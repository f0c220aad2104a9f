//! Oracle tests for the executor: for random corpora, the answers the
//! plan generators in `common` produce agree with a naive evaluation
//! done directly over the corpus — at every batch size and on both the
//! row and the columnar pipeline of a one-tree (serial) run. That every
//! *other* execution mode returns these same rows is the mode matrix's
//! job (`parallel_equivalence.rs`).

mod common;

use std::collections::BTreeMap;

use proptest::prelude::*;

use common::*;
use impliance::docmodel::{DocId, DocumentBuilder, SourceFormat, Value};
use impliance::query::{
    execute_plan_opts, ExecError, ExecutionContext, JoinAlgo, LogicalPlan, QueryOutput,
};
use impliance::storage::{AggFunc, Predicate};

/// The plan's answer in every one-tree mode: batch {1,3,64,1024} ×
/// columnar {off,on}.
fn serial_answers(f: &Fixture, plan: &LogicalPlan) -> Vec<(Mode, QueryOutput)> {
    let mut out = Vec::new();
    for columnar in [false, true] {
        for batch_size in BATCH_SIZES {
            let mode = Mode {
                batch_size,
                columnar,
                ..REFERENCE
            };
            out.push((mode, run(f, plan, mode, None).0));
        }
    }
    out
}

fn ints(out: &QueryOutput, column: &str) -> Vec<i64> {
    out.rows()
        .iter()
        .map(|r| r.get(column).as_i64().unwrap())
        .collect()
}

fn sorted(mut v: Vec<i64>) -> Vec<i64> {
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(32)))]

    #[test]
    fn filter_project_rows_invariant_under_batch_size(
        amounts in proptest::collection::vec(0i64..100, 1..60),
        threshold in 0i64..100,
        partitions in 1usize..5,
        seal in 4usize..32,
    ) {
        let f = Fixture::new(partitions, seal);
        for (i, a) in amounts.iter().enumerate() {
            f.put(
                &DocumentBuilder::new(DocId(i as u64), SourceFormat::Json, "c")
                    .field("amount", *a)
                    .build(),
            );
        }
        let pred = Predicate::Ge("amount".into(), Value::Int(threshold));
        let plan = project(filter(scan("c"), "c", pred), &["amount"]);
        // naive oracle: multiset of qualifying amounts
        let expected = sorted(amounts.iter().copied().filter(|a| *a >= threshold).collect());
        for (mode, out) in serial_answers(&f, &plan) {
            prop_assert_eq!(sorted(ints(&out, "amount")), expected.clone(), "{:?}", mode);
        }
    }

    #[test]
    fn sort_limit_top_k_matches_full_sort_oracle(
        amounts in proptest::collection::vec(0i64..1000, 1..60),
        n in 1usize..20,
        descending in any::<bool>(),
    ) {
        let f = Fixture::new(3, 8);
        // unique sort keys so exact ordering is well defined
        let keys: Vec<i64> = amounts.iter().enumerate().map(|(i, a)| a * 100 + i as i64).collect();
        for (i, k) in keys.iter().enumerate() {
            f.put(
                &DocumentBuilder::new(DocId(i as u64), SourceFormat::Json, "c")
                    .field("x", *k)
                    .build(),
            );
        }
        // oracle: full sort then prefix (the top-K fast path must agree)
        let mut expected = sorted(keys);
        if descending {
            expected.reverse();
        }
        expected.truncate(n);
        for (mode, out) in serial_answers(&f, &sort_limit("x", descending, n)) {
            prop_assert_eq!(ints(&out, "x"), expected.clone(), "{:?}", mode);
        }
    }

    #[test]
    fn group_agg_sums_match_oracle(
        rows in proptest::collection::vec((0u8..4, 0i64..100), 1..60),
    ) {
        let f = Fixture::new(2, 8);
        for (i, (tag, amount)) in rows.iter().enumerate() {
            f.put(
                &DocumentBuilder::new(DocId(i as u64), SourceFormat::Json, "c")
                    .field("tag", format!("t{tag}"))
                    .field("amount", *amount)
                    .build(),
            );
        }
        let plan = group_agg(scan("c"), "tag", vec![agg(AggFunc::Sum, Some("amount"), "total")]);
        // oracle: per-tag sums computed directly
        let mut expected: BTreeMap<String, f64> = BTreeMap::new();
        for (tag, amount) in &rows {
            *expected.entry(format!("t{tag}")).or_default() += *amount as f64;
        }
        for (mode, out) in serial_answers(&f, &plan) {
            let got: BTreeMap<String, f64> = out
                .rows()
                .iter()
                .map(|r| match r.get("total") {
                    Value::Float(x) => (r.get("group").render(), *x),
                    other => panic!("expected float total, got {other:?}"),
                })
                .collect();
            prop_assert_eq!(got, expected.clone(), "{:?}", mode);
        }
    }

    #[test]
    fn all_join_algorithms_agree_with_nested_loop_oracle(
        left_keys in proptest::collection::vec(0i64..5, 1..25),
        right_keys in proptest::collection::vec(0i64..5, 1..25),
    ) {
        let f = Fixture::new(2, 8);
        for (i, k) in left_keys.iter().enumerate() {
            f.put(
                &DocumentBuilder::new(DocId(i as u64), SourceFormat::Json, "l")
                    .field("k", *k)
                    .build(),
            );
        }
        for (i, k) in right_keys.iter().enumerate() {
            f.put(
                &DocumentBuilder::new(DocId(1000 + i as u64), SourceFormat::Json, "r")
                    .field("k", *k)
                    .build(),
            );
        }
        // oracle: nested-loop match count
        let expected: usize = left_keys
            .iter()
            .map(|lk| right_keys.iter().filter(|rk| *rk == lk).count())
            .sum();
        for algo in JOIN_ALGOS {
            for (mode, out) in serial_answers(&f, &join(scan("r"), algo)) {
                // joined tuples carry two bindings each → two docs per match
                prop_assert_eq!(out.len(), expected * 2, "algo {:?} {:?}", algo, mode);
            }
        }
    }

    #[test]
    fn columnar_matches_rows_on_null_heavy_columns(
        rows in proptest::collection::vec((any::<bool>(), 0i64..50), 1..60),
        threshold in 0i64..50,
        partitions in 1usize..5,
        seal in 4usize..32,
    ) {
        let f = Fixture::new(partitions, seal);
        // `amount` is present on roughly half the documents; the rest
        // decode as Null in the column's validity mask.
        for (i, (present, a)) in rows.iter().enumerate() {
            let b = DocumentBuilder::new(DocId(i as u64), SourceFormat::Json, "c")
                .field("tag", format!("t{}", i % 3));
            let b = if *present { b.field("amount", *a) } else { b };
            f.put(&b.build());
        }
        let pred = Predicate::Lt("amount".into(), Value::Int(threshold));
        let plan = project(filter(scan("c"), "c", pred), &["amount", "missing"]);
        // oracle: Null amounts never satisfy a comparison, and a path no
        // document has projects as Null
        let expected = sorted(
            rows.iter().filter(|(p, a)| *p && *a < threshold).map(|(_, a)| *a).collect(),
        );
        for (mode, out) in serial_answers(&f, &plan) {
            prop_assert_eq!(sorted(ints(&out, "amount")), expected.clone(), "{:?}", mode);
            prop_assert!(out.rows().iter().all(|r| r.get("missing").is_null()), "{:?}", mode);
        }
    }

    #[test]
    fn columnar_matches_rows_on_dictionary_encoded_strings(
        tags in proptest::collection::vec(0u8..4, 1..80),
        pick in 0u8..4,
        partitions in 1usize..5,
        seal in 4usize..32,
    ) {
        let f = Fixture::new(partitions, seal);
        // Low-cardinality string column → page-level dictionary encoding.
        for (i, t) in tags.iter().enumerate() {
            f.put(
                &DocumentBuilder::new(DocId(i as u64), SourceFormat::Json, "c")
                    .field("tag", format!("t{t}"))
                    .field("amount", i as i64)
                    .build(),
            );
        }
        let picked = Value::Str(format!("t{pick}"));
        let plan = project(
            filter(scan("c"), "c", Predicate::Eq("tag".into(), picked.clone())),
            &["tag", "amount"],
        );
        // oracle: the positions holding the picked tag
        let expected: Vec<i64> =
            (0..tags.len()).filter(|i| tags[*i] == pick).map(|i| i as i64).collect();
        for (mode, out) in serial_answers(&f, &plan) {
            prop_assert_eq!(sorted(ints(&out, "amount")), expected.clone(), "{:?}", mode);
            prop_assert!(out.rows().iter().all(|r| r.get("tag") == &picked), "{:?}", mode);
        }
    }

    #[test]
    fn request_limit_is_a_prefix_of_the_unlimited_result(
        amounts in proptest::collection::vec(0i64..100, 1..60),
        n in 0usize..70,
    ) {
        let f = Fixture::new(3, 8);
        for (i, a) in amounts.iter().enumerate() {
            f.put(
                &DocumentBuilder::new(DocId(i as u64), SourceFormat::Json, "c")
                    .field("amount", *a)
                    .build(),
            );
        }
        let plan = scan("c");
        let unlimited = render(&run(&f, &plan, Mode { batch_size: 7, ..REFERENCE }, None).0);
        for batch_size in BATCH_SIZES {
            let (out, m) = run(&f, &plan, Mode { batch_size, columnar: true, ..REFERENCE }, Some(n));
            prop_assert_eq!(out.len(), n.min(amounts.len()));
            prop_assert_eq!(m.rows_out as usize, out.len());
            prop_assert_eq!(render(&out), unlimited[..n.min(amounts.len())].to_vec());
        }
    }
}

fn text_doc(id: u64, collection: &str, body: &str, k: i64) -> impliance::docmodel::Document {
    DocumentBuilder::new(DocId(id), SourceFormat::Text, collection)
        .field("body", body)
        .field("k", k)
        .build()
}

/// A fetch that fails is an error, not a missing document: an
/// `IndexScan` and an indexed nested-loop join whose fetches hit a
/// corrupt sealed block fail with `ExecError::Storage` instead of
/// answering short.
#[test]
fn a_failed_fetch_is_an_error_not_a_missing_row() {
    let f = Fixture::new(1, 4);
    // two sealed segments of `r` documents, then three unsealed `l`
    // documents the join's left side reads from the memtable
    for i in 0..8 {
        f.put(&text_doc(i, "r", "alpha report", i as i64));
    }
    for i in 0..3 {
        f.put(&text_doc(100 + i, "l", "left side", i as i64));
    }
    let search = |query: &str, alias: &str| LogicalPlan::IndexScan {
        query: query.into(),
        path: None,
        k: None,
        alias: alias.into(),
        any_term: false,
        phrase: false,
        collection: Some(alias.into()),
    };
    let probe = |algo| LogicalPlan::Join {
        left: Box::new(search("left side", "l")),
        right: Box::new(scan("r")),
        left_key: ("l".into(), "k".into()),
        right_key: ("r".into(), "k".into()),
        algo,
    };
    let hits = search("alpha report", "r");
    let indexed = probe(JoinAlgo::IndexedNestedLoop);
    assert_eq!(render(&run(&f, &hits, REFERENCE, None).0).len(), 8);
    let joined = render(&run(&f, &indexed, REFERENCE, None).0);
    assert!(!joined.is_empty());
    assert_eq!(
        joined,
        render(&run(&f, &probe(JoinAlgo::Hash), REFERENCE, None).0)
    );

    f.storage.corrupt_sealed_blocks();
    for plan in [&hits, &indexed] {
        let got = execute_plan_opts(&f.ctx(false, None), plan, &ExecutionContext::default());
        assert!(
            matches!(got, Err(ExecError::Storage(_))),
            "{}: a corrupt block must fail the query, got {:?}",
            plan.describe(),
            got.map(|(out, _)| render(&out).len())
        );
    }
}
